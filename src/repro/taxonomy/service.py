"""The serving surface and its ledger: batching, validation, latency.

The paper's deployment serves tens of millions of calls (Table II)
while the taxonomy behind them is periodically rebuilt.  Every serving
front shares what this module defines:

- the canonical serving surface, :class:`BatchedServingAPI` — singles
  ``men2ent`` / ``get_concepts`` / ``get_entities`` and batched
  variants ``men2ent_batch`` / ``get_concepts_batch`` /
  ``get_entities_batch`` that answer position-for-position from one
  pinned version — which the sharded store, the replica router and
  the HTTP client implement;
- the wire names of the three APIs (:data:`WIRE_API_METHODS`) and the
  health probes' reserved key (:data:`PROBE_KEY`);
- the per-API ledger: every call is validated once and measured once,
  and call/hit counts, wall-clock and a recent-window latency
  reservoir land in a :class:`ServiceMetrics` that survives publishes
  and reports p50/p95/p99 tail latency, which is what the API-service
  example and the cluster's ``/metrics`` endpoint report.  A serving
  front times a group of calls (a batch, or one shard group of it)
  once and records each of its calls at the group's per-call mean, in
  one ledger update (:meth:`ServiceMetrics.observe_served`); a single
  is a group of one, timed alone.

The versioned in-process front — snapshots, atomic swap, delta
publishes — is :class:`~repro.serving.sharding.ShardedSnapshotStore`,
one shard by default.  ``TaxonomyService`` remains importable from
here as a name for that class.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

from repro.errors import APIError
from repro.obs.metrics import (
    RESERVOIR_SIZE,
    MetricSnapshot,
    Sample,
    SummarySample,
    summary_quantiles,
)

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

    Observation is lock-protected: a front serves concurrent callers
    across swaps, and unsynchronised ``+=`` on the counters
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

    The sharded store, the replica router and the HTTP client SDK all
    expose the same methods by mixing this in and implementing two
    hooks:

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


def __getattr__(name: str):
    # ``TaxonomyService`` names the one-shard store.  Resolved on first
    # use (PEP 562): repro.serving.sharding imports this module, so a
    # load-time import would cycle.
    if name == "TaxonomyService":
        from repro.serving.sharding import ShardedSnapshotStore

        return ShardedSnapshotStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
