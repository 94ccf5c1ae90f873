"""repro.workloads — seeded worlds, call streams and fault injection.

The inputs every serving measurement and chaos test is built from::

    spec.py       WorldSpec → SyntheticWorld + churned nightly dumps
                  (normalised alias / chain-depth / churn knobs)
    sampling.py   ArgumentPools → TableIICallStream → SampledCall,
                  and replay_calls (closed-loop, any serving front)
    faults.py     FaultSpec × FaultyReplica → a chaos cluster (kills,
                  restarts, partitions, wire delay/drop/5xx); settle()
                  then convergence() checks every replica holds the
                  published content hash

Determinism is the backbone contract: every draw comes from an
explicit seed (a lint test enforces it package-wide), so the same seed
always yields the same world, churn and call stream, and a measurement
regression is attributable to the code, never the workload.

Quickstart::

    from repro.workloads import ArgumentPools, TableIICallStream, replay_calls

    calls = TableIICallStream(ArgumentPools.from_taxonomy(taxonomy),
                              seed=7).generate(1_000)
    replay_calls(service, calls, batch_size=16)
"""

from __future__ import annotations

from repro.workloads.faults import (
    ChaosCluster,
    FaultSpec,
    FaultyReplica,
    WireFaults,
    build_chaos_cluster,
)
from repro.workloads.sampling import (
    ArgumentPools,
    SampledCall,
    TableIICallStream,
    replay_calls,
)
from repro.workloads.spec import WorldSpec

__all__ = [
    "ArgumentPools",
    "ChaosCluster",
    "FaultSpec",
    "FaultyReplica",
    "SampledCall",
    "TableIICallStream",
    "WireFaults",
    "WorldSpec",
    "build_chaos_cluster",
    "replay_calls",
]
