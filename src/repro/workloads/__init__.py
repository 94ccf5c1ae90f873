"""repro.workloads — the declarative scenario factory and load harness.

The paper's deployment answers tens of millions of calls a day; this
package is the missing traffic model for that scale.  Instead of one
hard-coded Table-II replay, every serving benchmark is a **named,
reproducible scenario**: a frozen, JSON-serializable spec compiled to
an explicit call schedule and replayed open-loop against any serving
front, with its own p50/p95/p99 line in the perf trajectory.

The pipeline, module by module::

    spec.py       TrafficSpec × WorldSpec → Scenario   (declarative, frozen)
    schedule.py   Scenario + seed → Schedule            (deterministic compile,
                                                         byte-identical JSONL)
    runner.py     Schedule → RunReport                  (open-loop threads,
                                                         lateness + p50/p95/p99,
                                                         publish-under-load +
                                                         mixed-version audit)
    harness.py    prepare_scenario / run_scenario       (world → build → replay)
    faults.py     FaultSpec × FaultyReplica → chaos     (kills/restarts, wire
                                                         delay/drop/5xx, dual
                                                         publishers; convergence
                                                         asserted by content hash)
    registry.py   the 10 built-in scenarios             (steady_table2, zipf_hot,
                                                         burst, batch_heavy,
                                                         adversarial_miss,
                                                         publish_under_load,
                                                         multi_tenant,
                                                         churn_world,
                                                         replica_chaos,
                                                         dual_publisher)
    report.py     RunReport → BENCH_parallel.json       (atomic, per-scenario)
    sampling.py   seeded pools / zipf / Table-II stream (no unseeded random —
                                                         lint-tested)

Determinism is the backbone contract: compiling the same ``(Scenario,
seed)`` twice produces byte-identical schedule JSONL, so a perf
regression is always attributable to the code, never the workload.

Quickstart::

    from repro.workloads import get_scenario, prepare_scenario, run_scenario

    prepared = prepare_scenario(get_scenario("zipf_hot"))
    report = run_scenario(prepared, "service")
    print(report.as_dict()["per_api"]["men2ent"]["p99_seconds"])

or from the shell: ``cn-probase workload list | compile | run``.

For a plain seeded call stream without a schedule,
:class:`~repro.workloads.sampling.TableIICallStream` draws Table II
calls one at a time and :func:`~repro.workloads.runner.replay_calls`
serves them closed-loop.
"""

from __future__ import annotations

from repro.workloads.faults import (
    ChaosCluster,
    FaultSpec,
    FaultyReplica,
    ReplicaCrash,
    WireFaults,
    build_chaos_cluster,
    fault_actions,
)
from repro.workloads.harness import (
    PreparedScenario,
    prepare_scenario,
    run_scenario,
)
from repro.workloads.registry import (
    builtin_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workloads.report import (
    append_scenario_entry,
    merge_bench_entry,
    render_run_report,
)
from repro.workloads.runner import (
    RunReport,
    RunTarget,
    TARGET_KINDS,
    TimedAction,
    VersionAuditor,
    make_target,
    replay_calls,
    run_schedule,
    serve_subprocess,
)
from repro.workloads.sampling import (
    ArgumentPools,
    PopularitySampler,
    SampledCall,
    TableIICallStream,
)
from repro.workloads.schedule import (
    Schedule,
    ScheduledCall,
    compile_schedule,
    load_schedule,
    save_schedule,
)
from repro.workloads.spec import (
    ArrivalSpec,
    KeyPopularity,
    Scenario,
    TrafficSpec,
    WorldSpec,
)

__all__ = [
    "ArgumentPools",
    "ArrivalSpec",
    "ChaosCluster",
    "FaultSpec",
    "FaultyReplica",
    "KeyPopularity",
    "PopularitySampler",
    "PreparedScenario",
    "ReplicaCrash",
    "RunReport",
    "RunTarget",
    "SampledCall",
    "Scenario",
    "Schedule",
    "ScheduledCall",
    "TARGET_KINDS",
    "TableIICallStream",
    "TimedAction",
    "TrafficSpec",
    "VersionAuditor",
    "WireFaults",
    "WorldSpec",
    "append_scenario_entry",
    "build_chaos_cluster",
    "builtin_scenarios",
    "compile_schedule",
    "fault_actions",
    "get_scenario",
    "load_schedule",
    "make_target",
    "merge_bench_entry",
    "prepare_scenario",
    "register_scenario",
    "render_run_report",
    "replay_calls",
    "run_scenario",
    "run_schedule",
    "save_schedule",
    "scenario_names",
    "serve_subprocess",
]
