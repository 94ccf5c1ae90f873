"""Exception hierarchy shared by every repro subsystem."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class LexiconError(ReproError):
    """Raised on invalid lexicon entries or merge conflicts."""


class SegmentationError(ReproError):
    """Raised when a text cannot be segmented (e.g. empty input)."""


class CorpusError(ReproError):
    """Raised on malformed encyclopedia dumps or pages."""


class TaxonomyError(ReproError):
    """Raised on invalid taxonomy operations (unknown ids, cycles...)."""


class VocabularyError(ReproError):
    """Raised by the neural vocabulary on unknown or reserved symbols."""


class TrainingError(ReproError):
    """Raised when neural training is misconfigured."""


class PipelineError(ReproError):
    """Raised when the build pipeline is driven in the wrong order."""


class APIError(ReproError):
    """Raised by the taxonomy serving layer on bad requests."""


class WorkloadError(ReproError):
    """Raised on invalid workload specs, call streams or fault specs."""


class TelemetryError(ReproError):
    """Raised by the observability spine on invalid metric/event use."""


class AnalysisError(ReproError):
    """Raised by the static-analysis subsystem on bad inputs.

    Unparseable sources, malformed baselines, unknown checker ids —
    driver mistakes, never findings (findings are data, not errors).
    """


class ServiceUnavailableError(APIError):
    """Raised when no healthy replica can serve a request.

    A transient availability failure, not a caller mistake: the HTTP
    layer maps it to 503 so clients retry, unlike the 400 a plain
    :class:`APIError` becomes.
    """


class DeltaConflictError(APIError):
    """A delta publish refused because the replica's version moved.

    The delta-aware replication handshake: a publish carries the
    ``base_version`` it was computed against, and a replica whose
    published version differs answers HTTP 409 with its current
    version instead of applying.  The router heals the replica —
    catch-up chain from :class:`~repro.taxonomy.delta.DeltaHistory`
    when the span is covered, full-snapshot ``/admin/swap`` otherwise —
    so the conflict is a routine signal, never a stack trace.
    ``server_version`` carries the replica's current version id when
    the response included one; ``server_content_hash`` the replica's
    content-addressed version (canonical-bytes sha256), letting the
    publisher distinguish a *diverged* replica from one that already
    holds the exact bytes the delta produces (a merge, not a conflict).
    """

    def __init__(
        self,
        message: str,
        *,
        server_version: str | None = None,
        server_content_hash: str | None = None,
    ):
        super().__init__(message)
        self.server_version = server_version
        self.server_content_hash = server_content_hash
