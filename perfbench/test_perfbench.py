"""Self-test of the benchmark: tiny runs of every workload.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Runs each workload untraced and traced on a 300-entity world for about
a second, and checks what the numbers rest on: every declared metric is
reported with its unit and direction, tails are never below medians, a
wrong answer counts as a failed operation, cold builds never hit the
resource cache, and the traced incremental build still replays ``tag``.

Everything that runs the benchmark runs in a child interpreter, as
under a real run: the benchmark warms and patches process-wide state
(urllib's shared opener, ``http.client``, signal timers, the cyclic
collector), and the tests that share this process must see none of it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from common import (  # noqa: E402
    RecordingCache,
    Scale,
    SpeedClock,
    build_cold,
    build_config,
)
from ladder import LAYER_UNITS  # noqa: E402
from repro.core.pipeline import CNProbaseBuilder  # noqa: E402

TINY = Scale(
    entities=300, calls=2000, setups=2, ladder_singles=200,
    ladder_batches=12, ladder_publishes=8, service_publishes=2,
)
SECONDS = 0.8
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def in_child(check: str, *args) -> None:
    """Call ``check(*args)`` of this module in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, test_perfbench; "
         f"test_perfbench.{check}(*sys.argv[1:])", *map(str, args)],
        cwd=HERE, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]


def tiny_run(name: str, seed: str, seconds: str, trace: str,
             out: str) -> None:
    run.run(name, int(seed), float(seconds), int(trace), scale=TINY,
            out=Path(out))


def run_isolated(name: str, seed: int, seconds: float, trace: int,
                 out: Path) -> dict:
    """A tiny run in a child interpreter; returns the record it saved."""
    in_child("tiny_run", name, seed, seconds, trace, out)
    path = out / "results" / f"{name}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def records(out):
    """(workload, trace) → the record of one tiny run."""
    return {
        (name, trace): run_isolated(name, 5, SECONDS, trace, out)
        for name in run.WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_appears_with_unit_and_direction(records, name):
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        record = records[(name, trace)]
        assert record["failed"] == 0, record["diagnostics"].get("errors")
        line = json.loads(run.result_line(record))
        assert line["correct"] is True
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(declared)
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"], metric
            assert declared[metric]["better"] in ("higher", "lower")
    for metric, (unit, better) in run.E2E.items():
        assert (unit, better) == (
            end_to_end[metric]["unit"], end_to_end[metric]["better"]
        )
        assert records[(name, 0)]["metrics"][metric] > 0, metric
    assert LAYER_UNITS == {m: e["unit"] for m, e in per_layer.items()}
    printed = "\n".join(run.report(records[(name, 0)]))
    for metric, (unit, better) in run.E2E.items():
        assert f"{metric}" in printed and better in printed


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tails_are_never_below_medians(records, name):
    untraced = records[(name, 0)]["latencies"]
    traced = records[(name, 1)]["latencies"]
    summaries = list(untraced.values()) + [
        summary for side in traced.values() for summary in side.values()
    ]
    for summary in summaries:
        assert summary["p99"] >= summary["p50"] > 0
        assert summary["n"] >= 1


def test_wrong_answers_count_as_failed_operations(out):
    in_child("wrong_answers_count_as_failed_operations", out)


def wrong_answers_count_as_failed_operations(out: str) -> None:
    workdir = Path(out) / "inject"
    workdir.mkdir()
    state = workloads.setup_http(TINY, 5, workdir)
    try:
        state.expected_singles[0] = ["not-an-answer"]
        state.expected_batches[0] = [["not-an-answer"]]
        phase = workloads.phase_http(state, 0.5)
    finally:
        state.close()
    assert phase.failed == 2 and phase.attempted > 2

    state = workloads.setup_inproc(TINY, 5, workdir)
    for version in state.expected:
        version[0] = [["not-an-answer"]]
    phase = workloads.phase_inproc(state, 0.5)
    assert phase.failed >= 1
    assert phase.diagnostics["mixed_version_batches"] == phase.failed

    real_bytes = workloads.taxonomy_bytes

    def tampered(taxonomy, path):
        data = real_bytes(taxonomy, path)
        return data + b"\n" if path.name == "rebuild.jsonl" else data

    workloads.taxonomy_bytes = tampered  # the child process is discarded
    state = workloads.setup_nightly(TINY, 5, workdir)
    phase = workloads.phase_nightly(state, 0.1)
    assert phase.failed == phase.attempted // 2 >= 1


def test_cold_builds_miss_the_resource_cache(out):
    in_child("cold_builds_miss_the_resource_cache", out)


def cold_builds_miss_the_resource_cache(out: str) -> None:
    state = workloads.setup_nightly(TINY, 5, Path(out))
    for rep in range(2):
        result = workloads.nightly_rep(state, SpeedClock(), rep=rep,
                                       keep=True)
        assert not result.cold.stage_trace.get("resources").cache_hit
        assert result.cold_ok and result.rebuild_ok
    # the check is live: a builder reusing its cache would hit
    _, entry = build_cold(state.dump1)
    cache = RecordingCache()
    cache.put(*entry)
    warm = CNProbaseBuilder(build_config(), resource_cache=cache).build(
        state.dump1
    )
    assert warm.stage_trace.get("resources").cache_hit


def test_traced_rebuild_still_replays_tag(records):
    for name in run.WORKLOADS:
        record = records[(name, 1)]
        assert "tag" in record["diagnostics"]["replayed_sources"]
        assert record["metrics"]["pipeline.replayed_sources"] >= 1


def test_same_seed_same_fingerprint_and_compare_refuses_others(records, out):
    for name in run.WORKLOADS:
        untraced, traced = records[(name, 0)], records[(name, 1)]
        assert untraced["diagnostics"]["fingerprints_stable"]
        assert untraced["fingerprint"] == traced["fingerprint"]
    other = run_isolated("nightly_build", 6, 0.1, 0, out)
    reason = compare.incomparable(records[("nightly_build", 0)], other)
    assert reason is not None and "dump0" in reason
    assert compare.incomparable(
        records[("nightly_build", 0)], records[("nightly_build", 0)]
    ) is None


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_api",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
