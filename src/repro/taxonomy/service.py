"""Versioned serving facade: snapshots, batching, latency accounting.

The paper's deployment serves tens of millions of calls (Table II)
while the taxonomy behind them is periodically rebuilt.
:class:`TaxonomyService` keeps the two concerns apart:

- requests are served from an immutable :class:`TaxonomySnapshot` with
  a version id; a rebuild is published with :meth:`TaxonomyService.swap`,
  which replaces the snapshot atomically — in-flight batches keep
  reading the snapshot they pinned, so a swap never tears a batch;
- each snapshot serves from a
  :class:`~repro.taxonomy.store.ReadOptimizedTaxonomy` frozen at publish
  time: the sorted result lists of all three APIs are precomputed, so a
  served call is a dict hit plus a list copy — no per-call ``sorted()``
  and no answer drift if someone mutates the builder's taxonomy after
  publishing;
- the canonical serving surface is :class:`BatchedServingAPI` — singles
  ``men2ent`` / ``get_concepts`` / ``get_entities``, batched variants
  ``men2ent_batch`` / ``get_concepts_batch`` / ``get_entities_batch``
  that pin one snapshot for the whole batch and answer
  position-for-position — the same mixin the :mod:`repro.serving`
  cluster (sharded store, replica router, HTTP client) implements;
- every call is validated once and measured once: per-API call/hit
  counts, wall-clock and a recent-window latency reservoir land in a
  :class:`ServiceMetrics` ledger that survives snapshot swaps and
  reports p50/p95/p99 tail latency, which is what the API-service
  example and the cluster's ``/metrics`` endpoint report.  A serving
  front times a group of calls (a batch, or one shard group of it)
  once and records each of its calls at the group's per-call mean, in
  one ledger update (:meth:`ServiceMetrics.observe_served`); a single
  is a group of one, timed alone.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from repro.obs.clock import elapsed
from typing import Sequence

from repro.errors import APIError, TaxonomyError
from repro.obs import current_trace_id, get_hub
from repro.obs.metrics import (
    RESERVOIR_SIZE,
    MetricSnapshot,
    Sample,
    SummarySample,
    summary_quantiles,
)
from repro.taxonomy.delta import DeltaHistory, bump_version, publish_handshake
from repro.taxonomy.model import TaxonomyStats
from repro.taxonomy.store import ReadOptimizedTaxonomy, Taxonomy

#: The reserved lookup key health probes use.  Guaranteed to miss (real
#: keys never start with ``__``), and excluded from the per-API metrics
#: ledgers at every serving front — probe traffic is liveness plumbing,
#: not workload, and must not pollute serving p50/p95/p99.
PROBE_KEY = "__probe__"

#: How many recent per-call latencies each :class:`APILatency` keeps for
#: quantile estimation.  A bounded ring buffer: tail latency is a
#: recent-window property (a spike six hours ago should not dominate
#: today's p99), and production traffic is unbounded so the ledger must
#: not grow with it.  The registry's summaries keep the same window.
LATENCY_RESERVOIR_SIZE = RESERVOIR_SIZE


@dataclass(frozen=True)
class TaxonomySnapshot:
    """One immutable published version of the taxonomy.

    ``read_view`` is the frozen :class:`ReadOptimizedTaxonomy` the
    snapshot's lookups answer from; ``taxonomy`` keeps the full store
    for closure queries and persistence.
    """

    version: int
    taxonomy: Taxonomy
    read_view: ReadOptimizedTaxonomy
    #: sha256 of the canonical saved bytes — the content-addressed
    #: version id probes and the publish handshake converge on.
    content_hash: str | None = None

    @classmethod
    def publish(cls, version: int, taxonomy: Taxonomy) -> "TaxonomySnapshot":
        """Freeze *taxonomy* into a servable snapshot."""
        read_view = taxonomy.freeze()
        return cls(
            version=version,
            taxonomy=taxonomy,
            read_view=read_view,
            content_hash=taxonomy.content_hash(),
        )

    @property
    def version_id(self) -> str:
        return f"v{self.version}"

    def stats(self) -> TaxonomyStats:
        return self.read_view.stats()


@dataclass
class APILatency:
    """Latency/hit accounting for one API across the service lifetime.

    Besides the cumulative counters, the last
    :data:`LATENCY_RESERVOIR_SIZE` observations are kept in a ring
    buffer so :meth:`quantile` can report real tail latency — ``/metrics``
    exposes p50/p95/p99, which a mean can hide completely.

    :meth:`observe_group` is the one update: a group of calls lands as
    their per-call samples in call order, so the counters, the sum and
    the reservoir equal what one :meth:`observe` per call would leave.
    """

    calls: int = 0
    hits: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._samples: deque[float] = deque(maxlen=LATENCY_RESERVOIR_SIZE)

    def observe(self, seconds: float, hit: bool) -> None:
        """Account one call: a group of one."""
        self.observe_group((seconds,), 1 if hit else 0)

    def observe_group(self, seconds: Sequence[float], hits: int) -> None:
        """Account a group of calls: one latency each, *hits* non-empty.

        One pass in call order, so ``total_seconds`` and
        ``max_seconds`` come out bit for bit as a per-call loop leaves
        them (``sum()`` compensates on Python 3.12+ and would not).
        """
        total, longest = self.total_seconds, self.max_seconds
        for value in seconds:
            total += value
            if value > longest:
                longest = value
        self.calls += len(seconds)
        self.hits += hits
        self.total_seconds, self.max_seconds = total, longest
        self._samples.extend(seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the recent-latency reservoir.

        Returns 0.0 before the first observation, so an idle API reads
        as all-zero instead of raising from ``/metrics``.
        """
        return self.quantiles(q)[0]

    def quantiles(self, *qs: float) -> tuple[float, ...]:
        """Several nearest-rank quantiles from one sorted snapshot.

        The rank rule is :func:`~repro.obs.metrics.summary_quantiles`',
        so the JSON ``apis`` block and the registry summary report the
        same values.  The reservoir is copied before sorting so a
        concurrent ``observe`` from another serving thread cannot
        mutate the deque mid-iteration, and ``/metrics`` pays one sort
        per API instead of one per percentile.
        """
        for q in qs:
            if not 0.0 < q <= 1.0:
                raise APIError(f"quantile must be in (0, 1], got {q}")
        return tuple(
            value for _, value in summary_quantiles(tuple(self._samples), qs)
        )

    @property
    def p50_seconds(self) -> float:
        return self.quantile(0.50)

    @property
    def p95_seconds(self) -> float:
        return self.quantile(0.95)

    @property
    def p99_seconds(self) -> float:
        return self.quantile(0.99)


@dataclass
class ServiceMetrics:
    """Cumulative per-API accounting; survives snapshot swaps.

    Observation is lock-protected: the service serves concurrent
    callers across swaps, and unsynchronised ``+=`` on the counters
    would silently drop increments under that load.  Serving fronts
    update it once per group (:meth:`observe_served`: one
    :meth:`observe_group`, so one lock acquisition, for a batch or for
    one shard group of it), and
    :meth:`latency` reads the entry under the same lock, since a first
    call to an API inserts it.
    """

    per_api: dict[str, APILatency] = field(default_factory=dict)
    swaps: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def observe(self, api: str, seconds: float, hit: bool) -> None:
        """Account one call: a group of one."""
        self.observe_group(api, (seconds,), 1 if hit else 0)

    def observe_group(
        self, api: str, seconds: Sequence[float], hits: int
    ) -> None:
        """Account a group of *api* calls under one lock acquisition.

        *seconds* holds one latency per call, in call order, and
        *hits* counts the calls answered non-empty.  An empty group (a
        batch made only of probes) changes nothing.
        """
        if not seconds:
            return
        with self._lock:
            entry = self.per_api.get(api)
            if entry is None:
                entry = self.per_api[api] = APILatency()
            entry.observe_group(seconds, hits)

    def observe_served(
        self,
        api: str,
        arguments: Sequence[str],
        results: Sequence[list[str]],
        seconds: float,
    ) -> None:
        """Account a group of *api* calls answered in *seconds* together.

        Each counted call lands at the group's per-call mean, *seconds*
        over every call the group answered, in one
        :meth:`observe_group`; without probes the samples sum to the
        group's time.  ``PROBE_KEY`` arguments were answered but are
        not counted: they stay out of the calls and the hits, and their
        share of the group's time leaves with them.
        """
        if not results:
            return
        mean = seconds / len(results)
        if PROBE_KEY in arguments:
            results = [
                result for argument, result in zip(arguments, results)
                if argument != PROBE_KEY
            ]
        hits = len(list(filter(None, results)))
        self.observe_group(api, [mean] * len(results), hits)

    def latency(self, api: str) -> APILatency:
        with self._lock:
            entry = self.per_api.get(api)
        return APILatency() if entry is None else entry

    @property
    def total_calls(self) -> int:
        with self._lock:  # observe() may be inserting a new API
            return sum(entry.calls for entry in self.per_api.values())

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        with self._lock:  # consistent snapshot vs concurrent observe()
            report = {}
            for api, entry in self.per_api.items():
                p50, p95, p99 = entry.quantiles(0.50, 0.95, 0.99)
                report[api] = {
                    "calls": entry.calls,
                    "hits": entry.hits,
                    "hit_rate": entry.hit_rate,
                    "mean_seconds": entry.mean_seconds,
                    "p50_seconds": p50,
                    "p95_seconds": p95,
                    "p99_seconds": p99,
                    "max_seconds": entry.max_seconds,
                }
            return report

    def metric_samples(self) -> list[MetricSnapshot]:
        """This ledger as registry-shaped metric families.

        The :class:`~repro.obs.metrics.MetricsRegistry` collector hook:
        one consistent read under the ledger lock, emitted as
        ``serving_api_calls_total`` / ``serving_api_hits_total``
        counters, the ``serving_api_latency_seconds`` summary, and the
        ``serving_swaps_total`` counter.
        """
        with self._lock:
            calls, hits, latencies = [], [], []
            for api, entry in self.per_api.items():
                labels = (("api", api),)
                calls.append(Sample(labels, float(entry.calls)))
                hits.append(Sample(labels, float(entry.hits)))
                latencies.append(SummarySample(
                    labels=labels,
                    count=entry.calls,
                    sum=entry.total_seconds,
                    max=entry.max_seconds,
                    quantiles=summary_quantiles(entry._samples),
                ))
            swaps = (Sample((), float(self.swaps)),)
        return [
            MetricSnapshot(
                "serving_api_calls_total", "counter",
                "Calls served, per API", tuple(calls),
            ),
            MetricSnapshot(
                "serving_api_hits_total", "counter",
                "Calls answered non-empty, per API", tuple(hits),
            ),
            MetricSnapshot(
                "serving_api_latency_seconds", "summary",
                "Per-call serving latency, per API", tuple(latencies),
            ),
            MetricSnapshot(
                "serving_swaps_total", "counter",
                "Snapshot publishes absorbed by this ledger", swaps,
            ),
        ]


#: wire api name (the paper's Table-II spelling) → (single method,
#: batch method) on the canonical :class:`BatchedServingAPI` surface.
#: The single names deliberately match the lookup methods of
#: :class:`~repro.taxonomy.store.Taxonomy` /
#: :class:`~repro.taxonomy.store.ReadOptimizedTaxonomy`, so the same
#: mapping routes at every layer (store shard, router, HTTP server,
#: client, ``replay_calls``) — keep it the single source of truth.
WIRE_API_METHODS = {
    "men2ent": ("men2ent", "men2ent_batch"),
    "getConcept": ("get_concepts", "get_concepts_batch"),
    "getEntity": ("get_entities", "get_entities_batch"),
}


class BatchedServingAPI:
    """The canonical serving surface shared by every service-shaped front.

    :class:`TaxonomyService`, the sharded store, the replica router and
    the HTTP client SDK all expose the same methods by mixing this in
    and implementing two hooks:

    - ``_single(api_name, argument) -> list[str]``
    - ``_batch(api_name, arguments) -> list[list[str]]`` (one pinned
      version for the whole batch)

    where ``api_name`` is one of the paper's wire names (``men2ent`` /
    ``getConcept`` / ``getEntity``).

    The single names match the lookups of
    :class:`~repro.taxonomy.store.Taxonomy` — one key in, plural results
    out:

    - singles: ``men2ent`` / ``get_concepts`` / ``get_entities``
      (one non-empty string argument each; anything else, a list
      included, raises :class:`~repro.errors.APIError`),
    - batches: ``men2ent_batch`` / ``get_concepts_batch`` /
      ``get_entities_batch`` (a sequence of strings each).
    """

    # -- singles ---------------------------------------------------------------

    def men2ent(self, mention: str) -> list[str]:
        """Disambiguated entity page_ids for one mention surface."""
        return self._single("men2ent", self._checked("men2ent", mention))

    def get_concepts(self, page_id: str) -> list[str]:
        """Direct hypernyms of one entity (the getConcept API)."""
        return self._single("getConcept", self._checked("getConcept", page_id))

    def get_entities(self, concept: str) -> list[str]:
        """Entity hyponyms of one concept (the getEntity API)."""
        return self._single("getEntity", self._checked("getEntity", concept))

    # -- batches ---------------------------------------------------------------

    def men2ent_batch(self, mentions: Sequence[str]) -> list[list[str]]:
        """``men2ent`` for every mention, answered from one version."""
        return self._batch("men2ent", self._checked_batch("men2ent", mentions))

    def get_concepts_batch(self, page_ids: Sequence[str]) -> list[list[str]]:
        """``getConcept`` for every entity id, answered from one version."""
        return self._batch(
            "getConcept", self._checked_batch("getConcept", page_ids)
        )

    def get_entities_batch(self, concepts: Sequence[str]) -> list[list[str]]:
        """``getEntity`` for every concept, answered from one version."""
        return self._batch(
            "getEntity", self._checked_batch("getEntity", concepts)
        )

    # -- validation ------------------------------------------------------------

    @staticmethod
    def _checked(api_name: str, argument: str) -> str:
        if not isinstance(argument, str) or not argument:
            raise APIError(
                f"{api_name} requires a non-empty string argument, "
                f"got {argument!r}"
            )
        return argument

    @classmethod
    def _checked_batch(
        cls, api_name: str, arguments: Sequence[str]
    ) -> list[str]:
        """A fresh list of *arguments*, each a non-empty string.

        One C-level pass checks the whole batch; only a batch that
        fails it goes key by key, so :meth:`_checked` raises the same
        error a single would.
        """
        if isinstance(arguments, str):
            raise APIError(
                f"{api_name} batch expects a sequence of arguments, "
                "got a single string"
            )
        arguments = list(arguments)
        if not all(map(isinstance, arguments, repeat(str))) or (
            "" in arguments
        ):
            for argument in arguments:
                cls._checked(api_name, argument)
        return arguments

    # -- hooks -----------------------------------------------------------------

    def _single(self, api_name: str, argument: str) -> list[str]:
        raise NotImplementedError

    def _batch(
        self, api_name: str, arguments: Sequence[str]
    ) -> list[list[str]]:
        raise NotImplementedError


class TaxonomyService(BatchedServingAPI):
    """Serve a taxonomy's read view: versioned, batched, measured."""

    def __init__(
        self, taxonomy: Taxonomy, *, version: int = 1, hub=None
    ) -> None:
        self._lock = threading.Lock()
        self._snapshot = TaxonomySnapshot.publish(version, taxonomy)
        self.metrics = ServiceMetrics()
        #: Bounded ring of applied deltas + the versions they produced,
        #: so a late-joining replica can catch up by chain (compose the
        #: missed deltas) instead of pulling a full snapshot.
        self.delta_history = DeltaHistory()
        self._hub = hub if hub is not None else get_hub()
        self._hub.registry.register_collector("service", self.metrics)

    # -- snapshots -------------------------------------------------------------

    @property
    def snapshot(self) -> TaxonomySnapshot:
        """The currently published snapshot (a single atomic read)."""
        # lint: allow[lock-discipline] atomic reference read; swap publishes
        return self._snapshot

    @property
    def version_id(self) -> str:
        # lint: allow[lock-discipline] atomic reference read
        return self._snapshot.version_id

    @property
    def content_hash(self) -> str | None:
        """The published snapshot's canonical-bytes sha256."""
        # lint: allow[lock-discipline] atomic reference read
        return self._snapshot.content_hash

    def version_lineage(self) -> list[str]:
        """Version ids the delta publishes produced, oldest first.

        A full :meth:`swap` records nothing (it breaks the delta
        chain), so gaps in the lineage mark where a chain catch-up
        must fall back to a snapshot.
        """
        return self.delta_history.lineage_ids()

    def swap(
        self, taxonomy: Taxonomy, *, version: int | None = None
    ) -> TaxonomySnapshot:
        """Publish a rebuilt taxonomy; returns the new snapshot.

        The swap is a single reference assignment under a lock: callers
        holding the previous snapshot (e.g. mid-batch) keep a fully
        consistent view, new calls see only the new version.  *version*
        stamps the snapshot explicitly (must be newer than the current
        one) — how a replica healed from a snapshot rejoins the
        cluster's version lineage.
        """
        with self._lock:
            snapshot = TaxonomySnapshot.publish(
                bump_version(self._snapshot.version, version), taxonomy
            )
            previous = self._snapshot
            self._snapshot = snapshot
            self.metrics.swaps += 1
            self._hub.emit(
                "swap", component="service",
                from_version=previous.version_id,
                version=snapshot.version_id,
                content_hash=snapshot.content_hash,
            )
            return snapshot

    def publish_delta(
        self,
        delta,
        *,
        version: int | None = None,
        base_version: int | None = None,
    ) -> TaxonomySnapshot:
        """Publish a :class:`~repro.taxonomy.delta.TaxonomyDelta`.

        The refresh-cost-proportional-to-change version of :meth:`swap`:
        the delta is applied to a *copy* of the current taxonomy
        (:meth:`Taxonomy.apply_delta` validates it against the base
        first) and the read view is advanced touched-keys-only — but
        the publish guarantees are identical.  Version lineage
        continues (``version + 1``), the new snapshot lands in one
        atomic reference assignment, and a failed validation leaves the
        old version serving with its snapshot — taxonomy included —
        completely untouched, so readers pinned to it never observe a
        half-published state and a corrected delta can still be
        retried.

        *base_version* and the delta's hash stamps go through
        :func:`~repro.taxonomy.delta.publish_handshake` under the
        publish lock: a mismatch raises
        :class:`~repro.errors.DeltaConflictError`, unless this front
        already holds the exact bytes the delta produces — then the
        publish is a **merge**, a no-op returning the current snapshot.
        """
        with self._lock:
            current = self._snapshot
            if publish_handshake(
                current, delta, base_version, self._hub, "service"
            ) == "merge":
                return current
            target = bump_version(current.version, version)
            taxonomy = current.taxonomy.copy().apply_delta(delta)
            content_hash = taxonomy.content_hash()
            if (
                delta.new_content_hash is not None
                and content_hash != delta.new_content_hash
            ):
                # the base matched but applying did not land on the
                # stamped bytes — refuse before publishing divergence
                raise TaxonomyError(
                    "delta application diverged: expected content hash "
                    f"{delta.new_content_hash}, got {content_hash}"
                )
            # Headline numbers come from the applied store itself — the
            # same source a full freeze() would use — so they are right
            # even for a hand-built delta whose header omits them.
            read_view = current.read_view.apply_delta(
                delta,
                stats=taxonomy.stats(),
                n_relations=len(taxonomy),
                name=taxonomy.name,
            )
            snapshot = TaxonomySnapshot(
                version=target,
                taxonomy=taxonomy,
                read_view=read_view,
                content_hash=content_hash,
            )
            self._snapshot = snapshot
            self.metrics.swaps += 1
            self.delta_history.record(
                current.version,
                target,
                delta,
                base_content_hash=current.content_hash,
                content_hash=content_hash,
            )
            self._hub.emit(
                "publish", component="service",
                from_version=current.version_id,
                version=snapshot.version_id,
                content_hash=content_hash,
            )
            return snapshot

    # -- internals -------------------------------------------------------------

    def _serve(
        self,
        snapshot: TaxonomySnapshot,
        api_name: str,
        arguments: Sequence[str],
    ) -> list[list[str]]:
        """Answer a group of keys from *snapshot*, timed once.

        The one serving loop: a batch is one group and a single is a
        group of one.  The lookups run as one ``map`` between two clock
        reads, and the group's calls land in the ledger at its per-call
        mean (:meth:`ServiceMetrics.observe_served`).  Inside a trace
        context each key is timed alone instead, to record its own
        span, and the group's time is the sum of its keys'.  Probes
        are answered but stay out of the ledger and the spans.
        """
        call = getattr(snapshot.read_view, WIRE_API_METHODS[api_name][0])
        trace_id = current_trace_id()
        if trace_id is None:
            started = elapsed()
            results = list(map(call, arguments))
            seconds = elapsed() - started
        else:
            results = []
            seconds = 0.0
            for argument in arguments:
                started = elapsed()
                result = call(argument)
                took = elapsed() - started
                results.append(result)
                seconds += took
                if argument == PROBE_KEY:
                    continue
                self._hub.record_span(
                    trace_id, "service", api_name, took,
                    outcome="hit" if result else "miss",
                    version=snapshot.version_id,
                    content_hash=snapshot.content_hash,
                )
        self.metrics.observe_served(api_name, arguments, results, seconds)
        return results

    def _single(self, api_name: str, argument: str) -> list[str]:
        # lint: allow[lock-discipline] atomic reference read of the snapshot
        return self._serve(self._snapshot, api_name, (argument,))[0]

    def _batch(
        self, api_name: str, arguments: Sequence[str]
    ) -> list[list[str]]:
        # pin one version for the whole batch
        # lint: allow[lock-discipline] atomic reference read pins one version
        return self._serve(self._snapshot, api_name, arguments)
