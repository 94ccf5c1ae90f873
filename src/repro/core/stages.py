"""Pluggable stage architecture for the build pipeline (Figure 2).

The paper's flow — four generation sources feeding a merged candidate
pool, three disjunctive verifiers pruning it — is an open pipeline here,
not a hard-coded sequence.  :class:`StageRegistry` holds named, ordered
stage registrations; :func:`default_registry` provides the paper's
built-ins (bracket / abstract / infobox / tag sources and syntax / ner /
incompatible verifiers); third parties register their own stages against
the same registry and :class:`~repro.core.pipeline.CNProbaseBuilder`
runs them without modification.

A stage is any object satisfying one of two structural protocols:

- :class:`GenerationSource` — ``generate(context)`` returns candidate
  isA relations (or ``None`` when the stage's preconditions are unmet,
  e.g. the abstract source without bracket priors to distant-supervise
  on);
- :class:`Verifier` — ``verify(context, relations)`` returns a
  :class:`~repro.core.verification.incompatible.FilterDecision`
  splitting the survivors from the vetoed.

Both receive a :class:`BuildContext` carrying the shared NLP resources
(lexicon, segmenter, tagger, recognizer, PMI statistics, segmented
corpus, page titles) prepared exactly once by the driver, so stages stop
re-deriving them.  Per-stage wall-clock, candidate counts and cache hits
land in a :class:`StageTrace` on the build result.

A source may declare ``requires``: the names of earlier sources whose
output it reads through :meth:`BuildContext.relations_from`.  The
:class:`ExecutionPlan` orders sources into *waves* by it, so a source
runs after every active source it requires, whatever order they were
registered in.  A source that declares nothing is scheduled after
**every** source registered before it, so existing third-party stages
keep seeing their predecessors' output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.errors import PipelineError
from repro.taxonomy.model import IsARelation, register_source_name

if TYPE_CHECKING:
    from repro.core.generation.predicates import DiscoveryResult
    from repro.core.pipeline import PipelineConfig
    from repro.core.verification.incompatible import FilterDecision
    from repro.encyclopedia.model import EncyclopediaDump
    from repro.neural.training import TrainingReport
    from repro.nlp.lexicon import Lexicon
    from repro.nlp.ner import NamedEntityRecognizer
    from repro.nlp.pmi import PMIStatistics
    from repro.nlp.pos import POSTagger
    from repro.nlp.segmentation import Segmenter

SOURCE_KIND = "source"
VERIFIER_KIND = "verifier"
DRIVER_KIND = "driver"


@dataclass
class BuildContext:
    """Shared resources for one build, prepared once by the driver.

    Stages read what they need instead of re-deriving it; the abstract
    and infobox sources additionally read the bracket source's output
    through :meth:`relations_from` (distant supervision / predicate
    alignment), which is why source order matters.
    """

    dump: EncyclopediaDump
    config: PipelineConfig
    lexicon: Lexicon
    segmenter: Segmenter
    tagger: POSTagger
    recognizer: NamedEntityRecognizer
    pmi: PMIStatistics
    corpus: list[list[str]]
    titles: dict[str, str]
    # Mutable per-build state the stages fill in.
    per_source: dict[str, list[IsARelation]] = field(default_factory=dict)
    discovery: DiscoveryResult | None = None
    training_report: TrainingReport | None = None
    # Incremental builds: the page_ids a page-local source must
    # (re)generate for; None means the whole dump (the full-build case).
    generation_scope: frozenset[str] | None = None

    def relations_from(self, source: str) -> list[IsARelation]:
        """Candidates an earlier source produced (empty if it didn't run)."""
        return self.per_source.get(source, [])

    def generation_pages(self):
        """The pages a ``page_local`` source should extract from.

        Full builds return the whole dump.  During an incremental build
        the driver narrows the scope to the diff's added + changed
        pages and replays the previous build's candidates for the rest
        — only sources declaring ``page_local = True`` (per-page output
        depends on nothing but the page itself) may consume this; every
        other source keeps reading ``context.dump`` in full.
        """
        if self.generation_scope is None:
            return self.dump
        return [
            page for page in self.dump
            if page.page_id in self.generation_scope
        ]


@runtime_checkable
class GenerationSource(Protocol):
    """A candidate-producing stage (left side of Figure 2)."""

    name: str

    def generate(self, context: BuildContext) -> list[IsARelation] | None:
        """Extract candidates; ``None`` means preconditions were unmet."""
        ...


@runtime_checkable
class Verifier(Protocol):
    """A candidate-vetoing stage (right side of Figure 2)."""

    name: str

    def verify(
        self, context: BuildContext, relations: list[IsARelation]
    ) -> FilterDecision:
        """Split *relations* into kept and removed."""
        ...


# -- trace ---------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    """One stage's contribution to a build.

    ``count`` is candidates produced for sources, candidates removed for
    verifiers, and relations handled for driver steps.  ``ran=False``
    marks a stage that contributed nothing — disabled by a switch, or
    executed with unmet preconditions (``generate()`` returned ``None``;
    ``seconds`` then keeps the time that probe cost) — so ablation runs
    still show the full pipeline shape.

    ``cache_hit`` marks work skipped because a cache answered: the
    ``resources`` step under the build-context cache, or a
    ``page_local`` source replaying the previous build's candidates.
    """

    name: str
    kind: str
    seconds: float
    count: int
    ran: bool = True
    cache_hit: bool = False


@dataclass
class StageTrace:
    """Per-stage wall-clock and candidate accounting for one build."""

    records: list[StageRecord] = field(default_factory=list)
    total_seconds: float = 0.0

    def add(self, record: StageRecord) -> None:
        self.records.append(record)

    def get(self, name: str) -> StageRecord | None:
        for record in self.records:
            if record.name == name:
                return record
        return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def ran(self, kind: str | None = None) -> list[StageRecord]:
        """Records of stages that actually executed, optionally by kind."""
        return [
            r for r in self.records
            if r.ran and (kind is None or r.kind == kind)
        ]

    @property
    def stage_seconds(self) -> float:
        """Wall-clock spent inside stages and driver steps."""
        return sum(r.seconds for r in self.records)

    @property
    def overhead_seconds(self) -> float:
        """Registry dispatch + bookkeeping: total minus traced work."""
        return max(0.0, self.total_seconds - self.stage_seconds)

    def as_dict(self) -> dict[str, dict[str, float | int | bool | str]]:
        return {
            r.name: {
                "kind": r.kind,
                "seconds": r.seconds,
                "count": r.count,
                "ran": r.ran,
                "cache_hit": r.cache_hit,
            }
            for r in self.records
        }


# -- registry ------------------------------------------------------------------


@dataclass
class StageEntry:
    """One named registration: how to build a stage, and whether to.

    ``requires`` (sources only) lists earlier sources whose output this
    stage reads; the :class:`ExecutionPlan` schedules it in a later wave
    than every active requirement.  Defaults to the factory's
    ``requires`` class attribute, so stage classes can declare their own
    data dependencies.  ``None`` means undeclared: the planner then
    conservatively schedules the stage after every source ahead of it
    in registration order — i.e. exactly the serial pipeline's
    ``relations_from`` visibility.  Declare ``requires = ()`` to opt a
    dependency-free stage into the first wave.
    """

    name: str
    kind: str
    factory: Callable[[], object]
    origin: str
    enabled: bool = True
    config_flag: str | None = None
    requires: tuple[str, ...] | None = None

    def active(self, config: object) -> bool:
        """Registry switch ANDed with the legacy ``PipelineConfig`` flag."""
        if not self.enabled:
            return False
        if self.config_flag is None:
            return True
        return bool(getattr(config, self.config_flag, True))


class StageRegistry:
    """Named, ordered registry of generation sources and verifiers.

    Sources run in registration order, then verifiers in registration
    order — the disjunctive semantics of the verification module make
    verifier order irrelevant for the final set, but the order is still
    honoured and traced.  Names are unique across both kinds.
    """

    def __init__(self) -> None:
        self._entries: dict[str, StageEntry] = {}
        self._order: dict[str, list[str]] = {SOURCE_KIND: [], VERIFIER_KIND: []}

    # -- registration -----------------------------------------------------

    def register_source(
        self,
        name: str,
        factory: Callable[[], object],
        *,
        origin: str | None = None,
        index: int | None = None,
        config_flag: str | None = None,
        requires: tuple[str, ...] | None = None,
    ) -> StageEntry:
        """Register a :class:`GenerationSource` factory under *name*.

        Also registers *name* as a valid relation provenance so the
        stage can stamp its output ``IsARelation(source=name)``.
        *requires* defaults to the factory's ``requires`` attribute.
        """
        entry = self._register(
            SOURCE_KIND, name, factory, origin, index, config_flag, requires
        )
        register_source_name(name)
        return entry

    def register_verifier(
        self,
        name: str,
        factory: Callable[[], object],
        *,
        origin: str | None = None,
        index: int | None = None,
        config_flag: str | None = None,
    ) -> StageEntry:
        """Register a :class:`Verifier` factory under *name*."""
        return self._register(
            VERIFIER_KIND, name, factory, origin, index, config_flag, None
        )

    def _register(
        self,
        kind: str,
        name: str,
        factory: Callable[[], object],
        origin: str | None,
        index: int | None,
        config_flag: str | None,
        requires: tuple[str, ...] | None,
    ) -> StageEntry:
        if not name:
            raise PipelineError("stage name must be non-empty")
        if name in self._entries:
            raise PipelineError(
                f"stage {name!r} is already registered "
                f"(as a {self._entries[name].kind})"
            )
        if origin is None:
            origin = getattr(factory, "__module__", None) or "unknown"
        if requires is None:
            declared = getattr(factory, "requires", None)
            requires = None if declared is None else tuple(declared)
        else:
            requires = tuple(requires)
        if requires and name in requires:
            raise PipelineError(f"stage {name!r} cannot require itself")
        entry = StageEntry(
            name=name, kind=kind, factory=factory,
            origin=origin, config_flag=config_flag, requires=requires,
        )
        self._entries[name] = entry
        order = self._order[kind]
        if index is None:
            order.append(name)
        else:
            order.insert(index, name)
        return entry

    # -- switches --------------------------------------------------------------

    def enable(self, name: str) -> None:
        self.get(name).enabled = True

    def disable(self, name: str) -> None:
        self.get(name).enabled = False

    def is_enabled(self, name: str) -> bool:
        return self.get(name).enabled

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> StageEntry:
        entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise PipelineError(
                f"unknown stage {name!r}; registered stages: {known}"
            )
        return entry

    def sources(self) -> list[StageEntry]:
        return [self._entries[n] for n in self._order[SOURCE_KIND]]

    def verifiers(self) -> list[StageEntry]:
        return [self._entries[n] for n in self._order[VERIFIER_KIND]]

    def entries(self) -> list[StageEntry]:
        return self.sources() + self.verifiers()

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "StageRegistry":
        """Independent registry with the same entries and switches."""
        duplicate = StageRegistry()
        for kind in (SOURCE_KIND, VERIFIER_KIND):
            for name in self._order[kind]:
                entry = self._entries[name]
                copied = StageEntry(
                    name=entry.name, kind=entry.kind, factory=entry.factory,
                    origin=entry.origin, enabled=entry.enabled,
                    config_flag=entry.config_flag, requires=entry.requires,
                )
                duplicate._entries[name] = copied
                duplicate._order[kind].append(name)
        return duplicate


# -- execution planning --------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPlan:
    """The order one build runs a registry in: source waves, verifiers.

    ``source_waves`` are topological levels of the active sources'
    ``requires`` graph: every source in a wave has all of its active
    requirements satisfied by earlier waves.  A build runs the waves in
    order and each wave's members in registration order; a wave's
    output becomes visible when the wave ends.  Results are merged in
    registration order whatever the waves.

    ``verifiers`` run strictly in order, each consuming the previous
    one's survivors.
    """

    source_waves: tuple[tuple[StageEntry, ...], ...]
    verifiers: tuple[StageEntry, ...]

    @property
    def n_sources(self) -> int:
        return sum(len(wave) for wave in self.source_waves)

    def describe(self) -> str:
        """Human-readable schedule, one line per wave."""
        lines = []
        for i, wave in enumerate(self.source_waves, start=1):
            names = ", ".join(entry.name for entry in wave)
            lines.append(f"wave {i}: {names}")
        names = ", ".join(entry.name for entry in self.verifiers)
        lines.append(f"verifiers: {names or '(none)'}")
        return "\n".join(lines)


def plan_execution(registry: StageRegistry, config: object) -> ExecutionPlan:
    """Compute the wave schedule for *registry* under *config*.

    A requirement naming a disabled or unregistered stage does not
    block scheduling — the dependent source simply sees no output from
    it (``relations_from`` returns ``[]``).  A source whose entry
    declares no ``requires`` at all is given an implicit dependency on
    every active source ahead of it in registration order.  A genuine
    ``requires`` cycle among active sources raises
    :class:`~repro.errors.PipelineError`.
    """
    active = [e for e in registry.sources() if e.active(config)]
    active_names = {e.name for e in active}
    requires: dict[str, tuple[str, ...]] = {}
    for position, entry in enumerate(active):
        if entry.requires is None:
            requires[entry.name] = tuple(e.name for e in active[:position])
        else:
            requires[entry.name] = entry.requires
    waves: list[tuple[StageEntry, ...]] = []
    placed: set[str] = set()
    pending = list(active)
    while pending:
        wave = tuple(
            entry for entry in pending
            if all(
                dep in placed or dep not in active_names
                for dep in requires[entry.name]
            )
        )
        if not wave:
            cycle = ", ".join(e.name for e in pending)
            raise PipelineError(
                f"stage dependency cycle among sources: {cycle}"
            )
        waves.append(wave)
        placed.update(entry.name for entry in wave)
        pending = [e for e in pending if e.name not in placed]
    verifiers = tuple(e for e in registry.verifiers() if e.active(config))
    return ExecutionPlan(source_waves=tuple(waves), verifiers=verifiers)


def default_registry() -> StageRegistry:
    """A fresh registry holding the paper's seven built-in stages.

    Each call returns an independent copy, so disabling a stage for one
    build never leaks into another builder.
    """
    # Local imports: the stage modules annotate against this module, so
    # importing them at module level would be circular.
    from repro.core.generation.neural_gen import AbstractSource
    from repro.core.generation.predicates import InfoboxSource
    from repro.core.generation.separation import BracketSource
    from repro.core.generation.tags import TagSource
    from repro.core.verification.incompatible import IncompatibleVerifier
    from repro.core.verification.ner_filter import NERVerifier
    from repro.core.verification.syntax_rules import SyntaxVerifier

    registry = StageRegistry()
    registry.register_source(
        "bracket", BracketSource, origin="builtin",
        config_flag="enable_bracket",
    )
    registry.register_source(
        "abstract", AbstractSource, origin="builtin",
        config_flag="enable_abstract",
    )
    registry.register_source(
        "infobox", InfoboxSource, origin="builtin",
        config_flag="enable_infobox",
    )
    registry.register_source(
        "tag", TagSource, origin="builtin",
        config_flag="enable_tag",
    )
    registry.register_verifier(
        "syntax", SyntaxVerifier, origin="builtin",
        config_flag="enable_syntax",
    )
    registry.register_verifier(
        "ner", NERVerifier, origin="builtin",
        config_flag="enable_ner",
    )
    registry.register_verifier(
        "incompatible", IncompatibleVerifier, origin="builtin",
        config_flag="enable_incompatible",
    )
    return registry
