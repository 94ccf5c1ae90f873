"""perfbench: the CN-Probase benchmark, one command for every workload.

    python3 perfbench/run.py --workload http_api --seed 7 --seconds 15 \\
        --trace 0

Workloads: ``http_api`` (the ``cn-probase serve`` subprocess through
``TaxonomyClient``), ``inproc_publish`` (the ``build_cluster`` front in
this process, reads racing delta publishes) and ``nightly_build`` (cold
and incremental builds).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays the same inputs down the layer ladder and prints
the per-layer metrics plus the tracing overhead.  See README.md.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
correctness check failed, 2 when the benchmark could not run at all.
Every run also leaves its full record (fingerprint, run context,
tails, diagnostics) in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("http_api", "inproc_publish", "nightly_build")

#: end-to-end metric → (unit, better)
E2E = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op2_p50_ms": ("ms", "lower"),
    "op_cpu_ms": ("ms", "lower"),
    "rss_mb": ("MB", "lower"),
    "precision": ("ratio", "higher"),
    "correct_isa": ("count", "higher"),
}

#: what each generic metric is on each workload, under its own name:
#: (name, unit, scale from the generic value)
MEANING = {
    "http_api": {
        "op_p50_ms": ("single_p50_ms", "ms", 1.0),
        "op2_p50_ms": ("batch_p50_ms", "ms", 1.0),
        "op_cpu_ms": ("server_cpu_ms", "ms", 1.0),
        "rss_mb": ("server rss_mb", "MB", 1.0),
    },
    "inproc_publish": {
        "op_p50_ms": ("batch_p50_ms", "ms", 1.0),
        "op2_p50_ms": ("publish_p50_ms", "ms", 1.0),
        "op_cpu_ms": ("process cpu per batch", "ms", 1.0),
        "rss_mb": ("process rss_mb", "MB", 1.0),
    },
    "nightly_build": {
        "op_p50_ms": ("build_s", "s", 1e-3),
        "op2_p50_ms": ("rebuild_s", "s", 1e-3),
        "op_cpu_ms": ("cpu per cold build", "s", 1e-3),
        "rss_mb": ("peak rss_mb", "MB", 1.0),
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timed(phase, state, seconds, tracer=None):
    """Run a timed phase with the set-up's objects out of the collector.

    The benchmark keeps the world, the expected answers and spare
    set-up objects alive; freezing them keeps the cyclic collector
    from rescanning them inside timed operations, which would charge
    the program for the benchmark's heap.
    """
    gc.collect()
    gc.freeze()
    try:
        return phase(state, seconds, tracer=tracer)
    finally:
        gc.unfreeze()


def untraced(name, scale, seed, seconds, workdir) -> dict:
    """k set-ups (median reported), then the timed phase on the last."""
    from common import SpeedClock, latency_summary
    from workloads import PHASES, SETUPS

    clock = time.perf_counter
    speed = SpeedClock()
    setups, fingerprints = [], []
    state = None
    try:
        for _ in range(scale.setups):
            if state is not None:
                state.close()
                state = None
                gc.collect()
            speed.probe()
            with speed.sampling() as paused:
                start = clock()
                state = SETUPS[name](scale, seed, workdir)
                end = clock()
            speed.probe()
            setups.append((end - start - paused.wall, start, end))
            fingerprints.append(state.fingerprint)
        phase = _timed(PHASES[name], state, seconds)
    finally:
        if state is not None:
            state.close()
    precision, correct_isa = phase.quality
    # the same seed must give the same inputs, set-up after set-up
    unstable = int(any(fp != fingerprints[0] for fp in fingerprints))
    setup = latency_summary([speed.calibrate(*s) for s in setups])
    raw = {**phase.diagnostics.pop("raw"),
           "setup_s": latency_summary([s[0] for s in setups])["p50"]}
    return {
        "metrics": {
            "setup_s": setup["p50"],
            **phase.metrics,
            "precision": precision,
            "correct_isa": float(correct_isa),
        },
        "raw": raw,
        "attempted": phase.attempted + len(setups),
        "failed": phase.failed + unstable,
        "fingerprint": fingerprints[-1],
        "latencies": phase.latencies,
        "diagnostics": {
            **phase.diagnostics, "setup_s_all": [s[0] for s in setups],
            "setup_speed": speed.summary(),
            "fingerprints_stable": not unstable, "errors": phase.errors,
        },
    }


def traced(name, scale, seed, seconds, workdir, results) -> dict:
    """The same load traced and untraced, then the layer ladder."""
    from ladder import LAYER_UNITS, Tracer, run_ladder
    from workloads import PHASES, SETUPS

    clock = time.perf_counter
    start = clock()
    state = SETUPS[name](scale, seed, workdir)
    setup_s = clock() - start
    tracer = Tracer()
    try:
        plain = _timed(PHASES[name], state, seconds / 2)
        spanned = _timed(PHASES[name], state, seconds / 2, tracer=tracer)
        layers, attempted, failed, diagnostics = run_ladder(
            state, scale, seed, workdir, tracer
        )
    finally:
        state.close()
    tracer.write(results / f"{name}-seed{seed}-spans.jsonl")
    overhead = {
        metric: spanned.metrics[metric] / plain.metrics[metric] - 1.0
        for metric in ("op_p50_ms", "op2_p50_ms")
    }
    return {
        "metrics": {m: layers[m] for m in LAYER_UNITS},
        "units": LAYER_UNITS,
        "attempted": plain.attempted + spanned.attempted + attempted,
        "failed": plain.failed + spanned.failed + failed,
        "fingerprint": state.fingerprint,
        "latencies": {"untraced": plain.latencies,
                      "traced": spanned.latencies},
        "diagnostics": {
            **diagnostics,
            "setup_s": setup_s,
            "untraced": plain.metrics,
            "traced": spanned.metrics,
            "tracing_overhead": overhead,
            "errors": plain.errors + spanned.errors,
        },
    }


def run(name: str, seed: int, seconds: float, trace: int, *, scale=None,
        out: Path | None = None) -> dict:
    """One benchmark run; returns its full record, also written to
    ``<out>/results``."""
    from common import FULL, OUT, cpu_times, run_context, steal_pct

    scale = scale or FULL
    out = out or OUT
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = out / f"run-{name}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    steal_before = cpu_times()
    started = time.perf_counter()
    try:
        if trace:
            record = traced(name, scale, seed, seconds, workdir, results)
        else:
            record = untraced(name, scale, seed, seconds, workdir)
            record["units"] = {m: unit for m, (unit, _) in E2E.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        wall_s=time.perf_counter() - started,
        context={**run_context(),
                 "steal_pct": steal_pct(steal_before, cpu_times())},
    )
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric with unit and direction."""
    from common import REFERENCE_PROBE_MS

    name = record["workload"]
    context = record["context"]
    lines = [
        f"perfbench {name} seed={record['seed']} "
        f"seconds={record['seconds']:g} trace={record['trace']}",
        f"  context: cpus={context['cpus']} python={context['python']} "
        f"steal={context['steal_pct']:.1f}% wall={record['wall_s']:.1f}s",
        f"  fingerprint: {record['fingerprint']['combined'][:16]}",
    ]
    if record["trace"]:
        diagnostics = record["diagnostics"]
        for metric, value in record["metrics"].items():
            lines.append(f"  {metric:34s} {value:14.4f} "
                         f"{record['units'][metric]}")
        lines.append(f"  replayed sources: "
                     f"{', '.join(diagnostics['replayed_sources'])}")
        for metric, share in diagnostics["tracing_overhead"].items():
            lines.append(
                f"  tracing overhead {metric}: {share * 100:+.2f}% "
                f"({diagnostics['untraced'][metric]:.4f} -> "
                f"{diagnostics['traced'][metric]:.4f} ms)"
            )
    else:
        meaning = MEANING[name]
        speed = record["diagnostics"]["speed"]
        lines.append(
            f"  speed probe: mean {speed['mean_ms']:.3f} ms over "
            f"{speed['readings']} readings (reference "
            f"{REFERENCE_PROBE_MS} ms; min {speed['min_ms']:.3f}, "
            f"max {speed['max_ms']:.3f})"
        )
        for metric, value in record["metrics"].items():
            unit, better = E2E[metric]
            line = f"  {metric:12s} {value:14.4f} {unit:6s} {better:6s}"
            if metric in record["raw"]:
                line += f"  measured {record['raw'][metric]:.4f}"
            if metric in meaning:
                label, label_unit, factor = meaning[metric]
                line += f"  = {label} {value * factor:.4f} {label_unit}"
            lines.append(line)
        for label, summary in record["latencies"].items():
            lines.append(
                f"  {label}: p50 {summary['p50'] * 1e3:.4f} ms  "
                f"p99 {summary['p99'] * 1e3:.4f} ms  n={summary['n']}"
            )
        for key, value in record["diagnostics"].items():
            if key.startswith("lateness_"):
                lines.append(
                    f"  {key}: p50 {value['p50'] * 1e3:.3f} ms  "
                    f"p99 {value['p99'] * 1e3:.3f} ms  n={value['n']}"
                )
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"  operations: {attempted} attempted, {failed} failed "
                 f"({100.0 * failed / max(1, attempted):.3f}%)")
    for error in record["diagnostics"].get("errors", [])[:3]:
        lines.append(f"  error: {error}")
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": record["units"][metric]}
            for metric, value in record["metrics"].items()
        },
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a TERM unwinds like an exception, so the server subprocess is
    # stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    record = run(args.workload, args.seed, args.seconds, args.trace)
    for line in report(record):
        print(line)
    print(result_line(record), flush=True)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
