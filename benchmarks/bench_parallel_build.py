"""Parallel build correctness + speedup across backends.

The ExecutionPlan promise is absolute: a build with any backend and any
worker count produces a byte-identical taxonomy.  This bench builds the
same dump with ``serial``, ``threads`` (workers=4) and ``processes``
(workers=2 and 4) and asserts

- all four ``Taxonomy.save`` outputs are byte-for-byte equal,
- per-verifier ``removed_by`` counts match exactly,
- the StageTrace lists stages in the same (registration) order,
- a rebuild on the unchanged dump hits the resource cache,
- the threads backend never regresses below 0.9x serial — the work
  floor keeps pools parked when the dump is too small to amortise
  them, which is exactly what this world exercises,
- the processes backend never regresses below 0.9x serial *when the
  machine has a second core to give it* (on a single-CPU box the
  fork + pickle tax has no parallelism to pay for itself with, so the
  numbers are recorded honestly under ``cpu_limited`` instead).

Timings land in ``benchmarks/out/BENCH_parallel.json`` (the perf
trajectory future PRs regress against): the legacy ``build`` section
keeps its historical shape, and the new ``parallel_build`` section
carries the per-backend numbers plus the CPU budget they ran under.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter

from repro.core.pipeline import (
    CNProbaseBuilder,
    PipelineConfig,
    ResourceCache,
)
from repro.encyclopedia import SyntheticWorld
from repro.eval.report import merge_bench_entry, render_table

N_ENTITIES = 1_200
WORKERS = 4
#: ISSUE 9 acceptance target for processes at workers=4 — only
#: enforceable when the container actually has four cores.
TARGET_PROCESS_SPEEDUP = 2.5
OUT_DIR = Path(__file__).parent / "out"
BENCH_JSON = OUT_DIR / "BENCH_parallel.json"


def merge_bench_json(key: str, payload: dict) -> None:
    """Merge one bench's section into BENCH_parallel.json.

    Delegates to :func:`repro.eval.report.merge_bench_entry`:
    the parent directory is created if missing and the update is
    atomic (temp file + ``os.replace``), so a crashed bench can never
    leave a truncated perf trajectory behind.
    """
    merge_bench_entry(BENCH_JSON, key, payload)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS has no sched_getaffinity
        return os.cpu_count() or 1


def _config(workers: int, backend: str = "threads") -> PipelineConfig:
    return PipelineConfig(
        enable_abstract=False, workers=workers, backend=backend
    )


def _timed_build(dump, config):
    """Best-of-2 wall time with isolated caches; returns (result, s)."""
    best, result = None, None
    for _ in range(2):
        builder = CNProbaseBuilder(config, resource_cache=ResourceCache())
        started = perf_counter()
        result = builder.build(dump)
        seconds = perf_counter() - started
        best = seconds if best is None else min(best, seconds)
    return result, best


def test_parallel_build_benchmark(record, tmp_path):
    dump = SyntheticWorld.generate(seed=9, n_entities=N_ENTITIES).dump()
    cpus = available_cpus()

    serial, serial_seconds = _timed_build(dump, _config(1, "serial"))
    threads, threads_seconds = _timed_build(
        dump, _config(WORKERS, "threads")
    )
    proc2, proc2_seconds = _timed_build(dump, _config(2, "processes"))
    proc4, proc4_seconds = _timed_build(
        dump, _config(WORKERS, "processes")
    )

    # Rebuild on the unchanged dump: resource cache replays the lexicon
    # harvest, corpus segmentation and PMI counting.
    cached_builder = CNProbaseBuilder(
        _config(WORKERS, "threads"), resource_cache=ResourceCache()
    )
    cached_builder.build(dump)
    started = perf_counter()
    cached = cached_builder.build(dump)
    cached_seconds = perf_counter() - started

    # -- correctness: byte-identical output on every backend -------------
    paths = {}
    for name, result in [("serial", serial), ("threads", threads),
                         ("proc2", proc2), ("proc4", proc4)]:
        paths[name] = tmp_path / f"{name}.jsonl"
        result.taxonomy.save(paths[name])
    reference = paths["serial"].read_bytes()
    for name, path in paths.items():
        assert path.read_bytes() == reference, f"{name} diverged"

    for other in (threads, proc2, proc4):
        assert {k: len(v) for k, v in serial.removed_by.items()} == \
            {k: len(v) for k, v in other.removed_by.items()}
        assert [r.name for r in serial.stage_trace.records] == \
            [r.name for r in other.stage_trace.records]
    assert cached.stage_trace.get("resources").cache_hit
    assert not serial.stage_trace.get("resources").cache_hit

    # The work floor calls: this world is big enough for process
    # fan-out (waves + verifier shards clear PROCESS_WORK_FLOOR) but
    # below THREAD_WORK_FLOOR, so threads must have stayed inline —
    # that is the regression fix for small-world pool overhead.
    assert proc4.stage_trace.get("syntax").workers == WORKERS
    assert proc4.stage_trace.get("syntax").backend == "processes"
    assert threads.stage_trace.get("syntax").workers == 1

    threads_speedup = serial_seconds / threads_seconds
    proc2_speedup = serial_seconds / proc2_seconds
    proc4_speedup = serial_seconds / proc4_seconds
    cached_speedup = serial_seconds / cached_seconds

    # -- perf gates, honest about the CPU budget -------------------------
    assert threads_speedup >= 0.9, (
        f"threads backend regressed to {threads_speedup:.2f}x serial — "
        "the work floor should have kept pools parked on this world"
    )
    cpu_limited = cpus < 2
    if cpus >= 2:
        assert proc2_speedup >= 0.9, (
            f"processes (workers=2) at {proc2_speedup:.2f}x serial "
            f"with {cpus} CPUs available"
        )
    if cpus >= WORKERS:
        assert proc4_speedup > TARGET_PROCESS_SPEEDUP, (
            f"processes (workers={WORKERS}) at {proc4_speedup:.2f}x "
            f"serial with {cpus} CPUs — target {TARGET_PROCESS_SPEEDUP}x"
        )

    rows = [
        ["serial (workers=1)", f"{serial_seconds:.3f}", ""],
        [f"threads (workers={WORKERS}, floored inline)",
         f"{threads_seconds:.3f}", f"{threads_speedup:.2f}x"],
        ["processes (workers=2)", f"{proc2_seconds:.3f}",
         f"{proc2_speedup:.2f}x"],
        [f"processes (workers={WORKERS})", f"{proc4_seconds:.3f}",
         f"{proc4_speedup:.2f}x"],
        ["cached rebuild (same dump)", f"{cached_seconds:.3f}",
         f"{cached_speedup:.2f}x"],
        ["byte-identical output", "yes", ""],
        ["cpus available", str(cpus),
         "cpu-limited" if cpu_limited else ""],
    ]
    record(render_table(
        ["build", "seconds", "speedup"],
        rows,
        title=f"Parallel build — {N_ENTITIES:,}-entity world",
    ))

    # Legacy section: keeps the perf trajectory's historical keys
    # (parallel_* tracked the threads backend before processes landed).
    merge_bench_json("build", {
        "n_entities": N_ENTITIES,
        "workers": WORKERS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": threads_seconds,
        "parallel_speedup": threads_speedup,
        "cached_rebuild_seconds": cached_seconds,
        "cached_rebuild_speedup": cached_speedup,
        "identical_output": True,
    })
    merge_bench_json("parallel_build", {
        "n_entities": N_ENTITIES,
        "cpus": cpus,
        "cpu_limited": cpu_limited,
        "serial_seconds": serial_seconds,
        "target_process_speedup": TARGET_PROCESS_SPEEDUP,
        "backends": {
            "threads": {
                "workers": WORKERS,
                "seconds": threads_seconds,
                "speedup": threads_speedup,
            },
            "processes_w2": {
                "workers": 2,
                "seconds": proc2_seconds,
                "speedup": proc2_speedup,
            },
            "processes_w4": {
                "workers": WORKERS,
                "seconds": proc4_seconds,
                "speedup": proc4_speedup,
            },
        },
        "identical_output": True,
    })
