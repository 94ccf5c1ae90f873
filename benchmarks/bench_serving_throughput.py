"""Serving throughput — per-call-sorted vs cached vs read-optimized.

Replays a Table-II-mix workload against four serving paths over the
same built taxonomy:

1. **per-call sorted** — the seed's lookup: ``sorted()`` over the index
   set on every call (reconstructed here inline, since the store now
   memoises),
2. **store (memoised)** — ``Taxonomy`` lookups with the per-key sorted
   cache warm,
3. **service singles / batched** — the one-shard
   :class:`ShardedSnapshotStore`, the in-process serving front (set pin
   + latency ledger per served group),
4. **read-optimized view** — the frozen
   :class:`ReadOptimizedTaxonomy` a shard serves from: dict hit + list
   copy.

Asserts the read-optimized path answers identically to the seed path
and is at least 2x its ops/sec; numbers land in
``benchmarks/out/BENCH_parallel.json`` under ``"serving"``.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import SyntheticWorld
from repro.eval.report import render_table
from repro.serving import ShardedSnapshotStore
from repro.workloads import ArgumentPools, TableIICallStream
from trajectory import merge_bench_json

N_ENTITIES = 1_200
N_CALLS = 40_000
BATCH_SIZE = 64
MIN_SPEEDUP = 2.0


def _build_taxonomy():
    dump = SyntheticWorld.generate(seed=9, n_entities=N_ENTITIES).dump()
    builder = CNProbaseBuilder(
        PipelineConfig(enable_abstract=False), resource_cache=ResourceCache()
    )
    return builder.build(dump).taxonomy


def _per_call_sorted_handlers(taxonomy):
    """The seed's lookup path: sort the index set on every call."""
    mention_index = taxonomy._mention_index
    entity_hypernyms = taxonomy._entity_hypernyms
    concept_entities = taxonomy._concept_entities
    return {
        "men2ent": lambda arg: sorted(mention_index.get(arg, ())),
        "getConcept": lambda arg: sorted(entity_hypernyms.get(arg, ())),
        "getEntity": lambda arg: sorted(concept_entities.get(arg, ())),
    }


def _store_handlers(taxonomy):
    return {
        "men2ent": taxonomy.men2ent,
        "getConcept": taxonomy.get_concepts,
        "getEntity": taxonomy.get_entities,
    }


def _timed(calls, handlers) -> tuple[float, list[list[str]]]:
    """Best-of-two timing: the first pass warms every per-path cache
    (store memos, allocator, branch predictors) so paths are compared
    steady-state, the way a long-lived server runs them."""
    best = float("inf")
    results: list[list[str]] = []
    for _ in range(2):
        started = perf_counter()
        results = [handlers[call.api](call.argument) for call in calls]
        best = min(best, perf_counter() - started)
    return best, results


def test_serving_throughput_benchmark(record):
    taxonomy = _build_taxonomy()
    calls = TableIICallStream(
        ArgumentPools.from_taxonomy(taxonomy), seed=13
    ).generate(N_CALLS)
    service = ShardedSnapshotStore(taxonomy)
    read_view = taxonomy.freeze()

    baseline_seconds, baseline_results = _timed(
        calls, _per_call_sorted_handlers(taxonomy)
    )

    store_seconds, store_results = _timed(calls, _store_handlers(taxonomy))

    single_handlers = {
        "men2ent": service.men2ent,
        "getConcept": service.get_concepts,
        "getEntity": service.get_entities,
    }
    service_seconds, service_results = _timed(calls, single_handlers)

    batched = {
        "men2ent": service.men2ent_batch,
        "getConcept": service.get_concepts_batch,
        "getEntity": service.get_entities_batch,
    }
    batched_seconds = float("inf")
    for _ in range(2):
        buffers: dict[str, list[str]] = {name: [] for name in batched}
        batched_results = []
        started = perf_counter()
        for call in calls:
            buffer = buffers[call.api]
            buffer.append(call.argument)
            if len(buffer) >= BATCH_SIZE:
                batched_results.extend(batched[call.api](buffer))
                buffer.clear()
        for name, buffer in buffers.items():
            if buffer:
                batched_results.extend(batched[name](buffer))
        batched_seconds = min(batched_seconds, perf_counter() - started)

    view_seconds, view_results = _timed(calls, _store_handlers(read_view))

    # Identical answers on every path that preserves call order.
    assert view_results == baseline_results
    assert store_results == baseline_results
    assert service_results == baseline_results

    ops = lambda seconds: N_CALLS / seconds  # noqa: E731
    speedup = ops(view_seconds) / ops(baseline_seconds)
    rows = [
        ["per-call sorted (seed path)", f"{ops(baseline_seconds):,.0f}", ""],
        ["store, memoised sorted", f"{ops(store_seconds):,.0f}",
         f"{ops(store_seconds) / ops(baseline_seconds):.2f}x"],
        ["service singles (metrics on)", f"{ops(service_seconds):,.0f}",
         f"{ops(service_seconds) / ops(baseline_seconds):.2f}x"],
        [f"service batched ({BATCH_SIZE})", f"{ops(batched_seconds):,.0f}",
         f"{ops(batched_seconds) / ops(baseline_seconds):.2f}x"],
        ["read-optimized view", f"{ops(view_seconds):,.0f}",
         f"{speedup:.2f}x"],
    ]
    record(render_table(
        ["serving path", "ops/sec", "vs seed"],
        rows,
        title=(
            f"Serving throughput — {N_CALLS:,} Table-II-mix calls, "
            f"{N_ENTITIES:,}-entity taxonomy"
        ),
    ))

    merge_bench_json("serving", {
        "n_calls": N_CALLS,
        "batch_size": BATCH_SIZE,
        "per_call_sorted_ops": ops(baseline_seconds),
        "store_memoised_ops": ops(store_seconds),
        "service_single_ops": ops(service_seconds),
        "service_batched_ops": ops(batched_seconds),
        "read_optimized_ops": ops(view_seconds),
        "read_optimized_speedup": speedup,
    })

    assert speedup >= MIN_SPEEDUP, (
        f"read-optimized view is only {speedup:.2f}x the per-call-sorted "
        f"path; need >= {MIN_SPEEDUP}x"
    )
