#!/usr/bin/env bash
# Tier-1 tests, the paper's claims (the ten bench_*.py files that check
# Tables I and II, Figures 2 and 3, the verification and separation
# ablations, per-source precision, QA coverage, predicate discovery and
# scaling; pytest does not collect bench_*.py on its own, so they run
# here by name, right after tier-1 and before any speed gate), a
# dev-mode ResourceWarning gate over the serving and CLI tests, every
# script under examples/ run end to end, + the fast perf gates to run
# before pushing pipeline or serving changes: stage-registry overhead,
# serving throughput (read-optimized snapshots >= 2x the
# per-call-sorted path), the serving cluster (sharded answers
# byte-identical to the source taxonomy's own lookups at 1/2/4 shards,
# HTTP batched > HTTP singles), the incremental rebuild contract (delta-applied
# taxonomy byte-identical to a full rebuild, small-change refresh
# faster than a full build) and two real server round trips
# (cn-probase serve subprocess: start -> query -> swap -> query ->
# shutdown, and build -> diff -> incremental rebuild ->
# /admin/apply-delta), plus the delta-chain contract (composed chain =
# one-by-one chain = cold rebuild, byte-identical; one composed
# publish beats N nightly publishes), plus the self-healing chaos
# smoke (kill -> publish -> restart -> probe-time auto-resync ->
# byte-identical content hashes), the telemetry overhead gate (unified
# registry + trace hook within 5% of the un-instrumented in-process hot
# path), the exposition-parity smoke (every metric in the JSON /metrics
# payload must appear in the Prometheus text rendering, and vice
# versa), and the static-analysis gate (`cn-probase lint`: the three
# repro.analysis checkers over every package, zero non-baselined
# findings).  Zero mixed-version answers and chaos convergence under
# faults are checked by the model-based state machine in tier-1
# (tests/serving/test_model_machine.py).  The perf numbers land in
# benchmarks/out/BENCH_parallel.json (git-ignored; the committed perf
# ledger is BENCH_perfbench.json, written by perfbench/) — the final
# check fails the run if that file did not grow.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

bench_json="benchmarks/out/BENCH_parallel.json"
bench_bytes_before=0
[ -f "$bench_json" ] && bench_bytes_before=$(wc -c < "$bench_json")

python -m pytest -x -q
# the paper's claims: 17 checks, each a shape or band the paper reports
python -m pytest -x -q benchmarks/bench_table1_comparison.py \
    benchmarks/bench_table2_apis.py benchmarks/bench_fig3_separation.py \
    benchmarks/bench_pipeline_stages.py \
    benchmarks/bench_ablation_verification.py \
    benchmarks/bench_ablation_separation.py \
    benchmarks/bench_sources_precision.py benchmarks/bench_qa_coverage.py \
    benchmarks/bench_predicate_discovery.py benchmarks/bench_scaling.py
# dev-mode leak gate: an unclosed socket or file in the serving, CLI,
# taxonomy, encyclopedia and file-writer tests fails the run.  The
# pytest category goes after `-m pytest`: Python's own -W cannot import
# pytest at start-up and drops it.
python -X dev -W error::ResourceWarning -m pytest \
    -W error::pytest.PytestUnraisableExceptionWarning -x -q \
    tests/serving tests/test_cli.py tests/taxonomy tests/encyclopedia \
    tests/test_files.py
# the examples are the documented entry points: each must still run
for example in examples/*.py; do
    echo "example: $example"
    python "$example" > /dev/null
done
python -m pytest -x -q benchmarks/bench_stage_overhead.py
python -m pytest -x -q benchmarks/bench_serving_throughput.py
python -m pytest -x -q benchmarks/bench_serving_cluster.py
python -m pytest -x -q benchmarks/bench_incremental_build.py
python -m pytest -x -q benchmarks/bench_delta_chain.py
python -m pytest -x -q benchmarks/bench_obs_overhead.py
python benchmarks/smoke_serving_roundtrip.py
python benchmarks/smoke_incremental_roundtrip.py
python benchmarks/smoke_chaos_replication.py
python benchmarks/smoke_metrics_parity.py
# static-analysis gate: all three invariant checkers, hard-fail on any
# finding that is neither pragma-acknowledged nor in the shipped
# baseline; the counts land as the static_analysis trajectory section
python -m repro.cli lint --format json --bench-json "$bench_json" \
    > /dev/null

# fail loudly if the perf trajectory did not grow: every benchmark
# above appends here, so a silently-skipped writer shows up as a
# missing section or a shrunken file.
python - "$bench_json" "$bench_bytes_before" <<'EOF'
import json, os, sys

path, before = sys.argv[1], int(sys.argv[2])
assert os.path.exists(path), f"{path} was never written"
size = os.path.getsize(path)
data = json.load(open(path, encoding="utf-8"))
assert "obs_overhead" in data, "telemetry overhead gate never ran"
analysis = data.get("static_analysis")
assert analysis, "static-analysis gate never ran (no static_analysis section)"
assert analysis["findings_new"] == 0, (
    f"static analysis found {analysis['findings_new']} non-baselined "
    f"finding(s): run `cn-probase lint` for the sites"
)
assert size >= before and size > 2, (
    f"{path} did not grow: {before} -> {size} bytes"
)
print(f"{path}: {size} bytes, sections: {', '.join(sorted(data))}")
EOF
