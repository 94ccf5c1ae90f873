"""Serving cluster — sharded/replicated/HTTP paths vs one shard.

Replays one Table-II-mix workload over the same built taxonomy through
every layer of the :mod:`repro.serving` stack:

1. **sharded store** — :class:`ShardedSnapshotStore` singles at 1, 2
   and 4 shards (one shard is the baseline the other rows are compared
   with), plus batched fan-out/merge at 4 shards,
2. **replicated router** — 2 replicas per shard with health tracking,
3. **real HTTP** — the ThreadingHTTPServer + ``TaxonomyClient`` wire,
   singles vs batched (fewer, larger round trips).

Asserts every path answers **byte-identically** to the source
taxonomy's own lookups, whose memoised sorted path shares no code with
the serving read views (the acceptance bar for the cluster), and that
HTTP batching beats HTTP singles.  Numbers land in
``benchmarks/out/BENCH_parallel.json`` under ``"serving_cluster"``.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import SyntheticWorld
from repro.eval.report import render_table
from repro.serving import (
    ReplicatedRouter,
    ShardedSnapshotStore,
    TaxonomyClient,
    start_server,
)
from repro.workloads import ArgumentPools, TableIICallStream
from trajectory import merge_bench_json

N_ENTITIES = 1_200
N_CALLS = 20_000
N_HTTP_SINGLE = 1_500
N_HTTP_BATCHED = 12_000
BATCH_SIZE = 64
SHARD_COUNTS = (1, 2, 4)
REPLICAS = 2


def _build_taxonomy():
    dump = SyntheticWorld.generate(seed=9, n_entities=N_ENTITIES).dump()
    builder = CNProbaseBuilder(
        PipelineConfig(enable_abstract=False), resource_cache=ResourceCache()
    )
    return builder.build(dump).taxonomy


def _handlers(front):
    return {
        "men2ent": front.men2ent,
        "getConcept": front.get_concepts,
        "getEntity": front.get_entities,
    }


def _batch_handlers(front):
    return {
        "men2ent": front.men2ent_batch,
        "getConcept": front.get_concepts_batch,
        "getEntity": front.get_entities_batch,
    }


def _timed_singles(calls, front):
    handlers = _handlers(front)
    best = float("inf")
    results = []
    for _ in range(2):  # best-of-two: steady-state, caches warm
        started = perf_counter()
        results = [handlers[call.api](call.argument) for call in calls]
        best = min(best, perf_counter() - started)
    return best, results


def _timed_batched(calls, batched, batch_size=BATCH_SIZE):
    best = float("inf")
    results = []
    for _ in range(2):
        buffers: dict[str, list[str]] = {name: [] for name in batched}
        results = []
        started = perf_counter()
        for call in calls:
            buffer = buffers[call.api]
            buffer.append(call.argument)
            if len(buffer) >= batch_size:
                results.extend(batched[call.api](buffer))
                buffer.clear()
        for name, buffer in buffers.items():
            if buffer:
                results.extend(batched[name](buffer))
        best = min(best, perf_counter() - started)
    return best, results


def test_serving_cluster_benchmark(record):
    taxonomy = _build_taxonomy()
    calls = TableIICallStream(
        ArgumentPools.from_taxonomy(taxonomy), seed=13
    ).generate(N_CALLS)
    ops = lambda n, seconds: n / seconds  # noqa: E731

    source = _handlers(taxonomy)
    expected = [source[call.api](call.argument) for call in calls]
    # Batched results come back in buffer-flush order, so the identity
    # checks batch the source lookups the same way.
    source_batches = {
        api: lambda keys, lookup=lookup: list(map(lookup, keys))
        for api, lookup in source.items()
    }
    rows = []
    payload: dict[str, float | int | bool] = {
        "n_calls": N_CALLS,
        "batch_size": BATCH_SIZE,
    }

    # -- sharded store: byte-identical answers at every shard count ------
    base_seconds = store4 = None
    for n_shards in SHARD_COUNTS:
        store = ShardedSnapshotStore(taxonomy, n_shards=n_shards)
        seconds, results = _timed_singles(calls, store)
        assert results == expected, (
            f"sharded answers diverged from the source at {n_shards} shards"
        )
        base_seconds = base_seconds or seconds
        rows.append([
            f"sharded store, {n_shards} shard(s) (singles)",
            f"{ops(N_CALLS, seconds):,.0f}",
            f"{base_seconds / seconds:.2f}x",
        ])
        payload[f"sharded_{n_shards}_single_ops"] = ops(N_CALLS, seconds)
        store4 = store

    _, expected_batched = _timed_batched(calls, source_batches)
    batched_seconds, batched_results = _timed_batched(
        calls, _batch_handlers(store4)
    )
    assert batched_results == expected_batched
    rows.append([
        f"sharded store, 4 shards (batched {BATCH_SIZE})",
        f"{ops(N_CALLS, batched_seconds):,.0f}",
        f"{base_seconds / batched_seconds:.2f}x",
    ])
    payload["sharded_4_batched_ops"] = ops(N_CALLS, batched_seconds)

    # -- replicated router ------------------------------------------------
    router = ReplicatedRouter.from_store(
        ShardedSnapshotStore(taxonomy, n_shards=4), replicas=REPLICAS
    )
    router_seconds, router_results = _timed_singles(calls, router)
    assert router_results == expected
    rows.append([
        f"router, 4 shards x {REPLICAS} replicas (singles)",
        f"{ops(N_CALLS, router_seconds):,.0f}",
        f"{base_seconds / router_seconds:.2f}x",
    ])
    payload["router_single_ops"] = ops(N_CALLS, router_seconds)

    # -- real HTTP: singles vs batched ------------------------------------
    server = start_server(
        ShardedSnapshotStore(taxonomy, n_shards=4), admin_token="bench"
    )
    try:
        with TaxonomyClient(server.url) as client:
            http_single_seconds, http_single_results = _timed_singles(
                calls[:N_HTTP_SINGLE], client
            )
        assert http_single_results == expected[:N_HTTP_SINGLE]
        _, http_expected = _timed_batched(
            calls[:N_HTTP_BATCHED], source_batches
        )
        with TaxonomyClient(server.url) as client:
            http_batched_seconds, http_batched_results = _timed_batched(
                calls[:N_HTTP_BATCHED], _batch_handlers(client)
            )
        assert http_batched_results == http_expected
    finally:
        server.close()
    http_single_ops = ops(N_HTTP_SINGLE, http_single_seconds)
    http_batched_ops = ops(N_HTTP_BATCHED, http_batched_seconds)
    rows.append([
        "HTTP singles (client SDK)", f"{http_single_ops:,.0f}", ""
    ])
    rows.append([
        f"HTTP batched ({BATCH_SIZE}/round trip)",
        f"{http_batched_ops:,.0f}",
        f"{http_batched_ops / http_single_ops:.2f}x vs HTTP singles",
    ])
    payload["http_single_ops"] = http_single_ops
    payload["http_batched_ops"] = http_batched_ops
    payload["http_batching_speedup"] = http_batched_ops / http_single_ops
    payload["identical_answers_all_shard_counts"] = True

    record(render_table(
        ["serving path", "ops/sec", "vs 1 shard"],
        rows,
        title=(
            f"Serving cluster — {N_CALLS:,} Table-II-mix calls, "
            f"{N_ENTITIES:,}-entity taxonomy "
            f"(HTTP rows: {N_HTTP_SINGLE:,}/{N_HTTP_BATCHED:,} calls)"
        ),
    ))
    merge_bench_json("serving_cluster", payload)

    # Batching is the whole point of the wire API: one round trip must
    # amortise over many answers.
    assert http_batched_ops > http_single_ops, (
        f"HTTP batching ({http_batched_ops:,.0f} ops/s) should beat "
        f"HTTP singles ({http_single_ops:,.0f} ops/s)"
    )
