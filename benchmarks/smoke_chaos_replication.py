"""Chaos smoke: kill → publish → restart → probe auto-resync → converge.

The deterministic self-healing ladder: a 3-replica chaos cluster loses
one replica, a delta publish lands while it is down, the replica comes
back stale (restart rebuilds from the base snapshot), and the next
probe sweep must pull the catch-up chain so every replica reports the
*same content hash* as the publisher.  The same contract under seeded
faults and concurrent publishes is the model-based state machine's
(``tests/serving/test_model_machine.py``).

Appends the verdict to ``benchmarks/out/BENCH_parallel.json`` under
``"chaos_replication"``.

Run:  python benchmarks/smoke_chaos_replication.py
(run_smoke.sh runs it after the incremental round trip)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "src"))

from repro.core.pipeline import PipelineConfig, build_cn_probase  # noqa: E402
from repro.taxonomy.delta import TaxonomyDelta  # noqa: E402
from repro.workloads import (  # noqa: E402
    FaultSpec,
    WorldSpec,
    build_chaos_cluster,
)
from trajectory import merge_bench_json  # noqa: E402

#: the world and nightly churn this smoke has always published
WORLD = WorldSpec(n_entities=300, churn_rate=0.25)
SEED = 19


def main() -> None:
    started = time.perf_counter()
    world = WORLD.build_world(SEED)
    config = PipelineConfig(enable_abstract=False)
    taxonomy = build_cn_probase(world.dump(), config).taxonomy
    churned = build_cn_probase(
        WORLD.churned_dump(world, SEED + 1), config
    ).taxonomy
    delta = TaxonomyDelta.compute(taxonomy, churned)

    # miss a publish, come back stale, let the probe sweep heal it
    cluster = build_chaos_cluster(
        taxonomy, FaultSpec(replicas=3, probe_after=1)
    )
    cluster.replicas[2].kill()
    cluster.router.publish_delta(delta, base_version=1, version=2)
    cluster.replicas[2].restart()  # rebuilt from the base snapshot: stale
    assert cluster.replicas[2].inner_version() == "v1"
    probe_resyncs = cluster.settle()
    assert probe_resyncs >= 1, "the probe sweep never triggered a resync"
    ladder = cluster.convergence()
    assert ladder["converged"], ladder
    hashes = {r["content_hash"] for r in ladder["replicas"]}
    assert hashes == {ladder["expected_hash"]}, (
        f"replicas diverged after resync: {sorted(hashes)}"
    )

    total_seconds = time.perf_counter() - started
    merge_bench_json("chaos_replication", {
        "ladder_resyncs": ladder["resyncs"],
        "ladder_converged": ladder["converged"],
        "total_seconds": total_seconds,
        "round_trip": "kill->publish->restart->probe-resync->converged",
        "ok": True,
    })
    print(
        "chaos replication ok: ladder converged after "
        f"{probe_resyncs} probe resync(s), {total_seconds:.1f}s end to end"
    )


if __name__ == "__main__":
    main()
