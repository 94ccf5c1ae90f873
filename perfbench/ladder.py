"""The traced run's layer ladder: per-layer self time, counts and ratios.

Spans are recorded from the benchmark's own files only, around each
call into a layer's public entry point.  The same ops go down every
rung, closed loop from one thread:

    view     ReadOptimizedTaxonomy lookups (the floor)
    service  TaxonomyService
    store    ShardedSnapshotStore, 2 shards (the ``--replicas 1`` path)
    router   build_cluster(shards=2, replicas=2)
    http     TaxonomyClient -> ``cn-probase serve --shards 2 --replicas 2``

A layer's self time is its rung minus the rung it delegates to: the
store, the router and the service each read shard views directly, so
each is measured against the view rung; the HTTP rung is measured
against the router it wraps.  Rungs run interleaved in blocks, so a
burst of hypervisor steal lands on every rung rather than one.

Publishes go down view ``apply_delta`` -> store ``publish_delta`` ->
router ``publish_delta``, with ``TaxonomyService.publish_delta`` as an
off-path row.  Builds run through a :class:`StageRegistry` whose
factories wrap ``generate`` and ``verify`` with spans; resources,
merge and assemble come from the build's own ``StageTrace``.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time
from pathlib import Path

from common import (
    BATCH,
    SINGLE,
    Scale,
    ServerProcess,
    make_batches,
    make_calls,
    make_day1,
    proc_cpu,
)
from repro.core.pipeline import PreviousBuild
from repro.core.stages import StageRegistry, default_registry
from repro.encyclopedia.model import diff_dumps
from repro.eval.metrics import make_oracle
from repro.serving import (
    ShardedSnapshotStore,
    TaxonomyClient,
    build_cluster,
    shard_for,
)
from repro.taxonomy.delta import TaxonomyDelta, parse_version_id
from repro.taxonomy.service import TaxonomyService
from repro.taxonomy.store import ReadOptimizedTaxonomy
from workloads import NightlyState, expected_answers, nightly_rep

clock = time.perf_counter

#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "client.connects_per_req": "count",
    "client.cpu_ms": "ms",
    "client.retries": "count",
    "server.user_ms": "ms",
    "server.sys_ms": "ms",
    "server.http_self_us": "us",
    "server.http_batch_self_us": "us",
    "router.self_us": "us",
    "router.batch_self_us": "us",
    "router.attempts_per_group": "count",
    "router.failovers": "count",
    "router.publish_self_ms": "ms",
    "sharding.self_us": "us",
    "sharding.batch_self_us": "us",
    "sharding.publish_ms": "ms",
    "sharding.touched_shards": "count",
    "store.us": "us",
    "store.batch_us": "us",
    "store.apply_delta_ms": "ms",
    "service.self_us": "us",
    "service.batch_self_us": "us",
    "service.publish_ms": "ms",
    "delta.compute_ms": "ms",
    "delta.records": "count",
    "encyclopedia.diff_ms": "ms",
    "encyclopedia.pages_touched": "count",
    "nlp.resources_s": "s",
    "nlp.incremental_resources_s": "s",
    **{
        f"generation.{source}.{metric}": unit
        for source in ("bracket", "infobox", "tag")
        for metric, unit in (
            ("s", "s"), ("candidates", "count"), ("precision", "ratio"),
        )
    },
    **{
        f"verification.{verifier}.{metric}": unit
        for verifier in ("syntax", "ner", "incompatible")
        for metric, unit in (
            ("s", "s"), ("removed", "count"), ("veto_precision", "ratio"),
        )
    },
    "pipeline.merge_s": "s",
    "pipeline.assemble_s": "s",
    "pipeline.incremental_reuse": "count",
    "pipeline.replayed_sources": "count",
}

#: read-ladder rungs run in this many interleaved blocks
BLOCKS = 4


class Tracer:
    """In-memory spans: (layer, op id, start, end), written at the end.

    Ops keep their id on every rung, so the spans of one op down the
    ladder share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []

    def add(self, layer: str, op: int, start: float, end: float) -> None:
        self.spans.append((layer, op, start, end))

    def durations(self, layer: str) -> list[float]:
        return [end - start for name, _, start, end in self.spans
                if name == layer]

    def median(self, layer: str) -> float:
        return statistics.median(self.durations(layer))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, op, start, end in self.spans:
                handle.write(json.dumps([layer, op, start, end]) + "\n")


# -- builds --------------------------------------------------------------------


class _TracedFactory:
    """A stage factory whose stages record spans and outputs.

    The planner reads ``requires``, ``page_local`` and
    ``per_relation_pure`` off the factory, so they are copied over —
    without ``page_local`` an incremental build would stop replaying
    the ``tag`` source.
    """

    def __init__(self, factory, name: str, tracer: Tracer, outputs: dict):
        self._factory = factory
        self._name = name
        self._tracer = tracer
        self._outputs = outputs
        for attr in ("requires", "page_local", "per_relation_pure"):
            if hasattr(factory, attr):
                setattr(self, attr, getattr(factory, attr))

    def __call__(self):
        return _TracedStage(self._factory(), self)


class _TracedStage:
    def __init__(self, stage, factory: _TracedFactory) -> None:
        self._stage = stage
        self._factory = factory
        self.name = stage.name

    def _record(self, kind: str, start: float, output) -> None:
        factory = self._factory
        layer = f"{kind}.{factory._name}"
        op = len(factory._outputs.setdefault(layer, []))
        factory._tracer.add(layer, op, start, clock())
        factory._outputs[layer].append(output)

    def generate(self, context):
        start = clock()
        relations = self._stage.generate(context)
        self._record("generation", start, relations)
        return relations

    def verify(self, context, relations):
        start = clock()
        decision = self._stage.verify(context, relations)
        self._record("verification", start, decision.removed)
        return decision


def traced_registry(tracer: Tracer, outputs: dict) -> StageRegistry:
    """The default stages, re-registered behind tracing factories."""
    registry = StageRegistry()
    base = default_registry()
    for entry in base.sources():
        registry.register_source(
            entry.name,
            _TracedFactory(entry.factory, entry.name, tracer, outputs),
            origin=entry.origin, config_flag=entry.config_flag,
            requires=entry.requires,
        )
    for entry in base.verifiers():
        registry.register_verifier(
            entry.name,
            _TracedFactory(entry.factory, entry.name, tracer, outputs),
            origin=entry.origin, config_flag=entry.config_flag,
        )
    for entry in base.entries():
        if not entry.enabled:
            registry.disable(entry.name)
    return registry


def build_layers(world, cold, rebuild, tracer: Tracer,
                 outputs: dict) -> tuple[dict, dict, int]:
    """Per-layer build metrics from one traced cold build and rebuild.

    Each wrapped stage's first span and output belong to the cold
    build.  The build's own ``StageTrace`` cross-checks the wrapped
    timings: a span longer than its stage record means the wrappers
    timed something else, and counts as a failure.  Returns (metrics,
    diagnostics, failures).
    """
    oracle = make_oracle(world)
    metrics: dict[str, float] = {}
    span_over_record = {}
    failures = 0
    for record in cold.stage_trace.records:
        kind = {"source": "generation", "verifier": "verification"}.get(
            record.kind
        )
        if kind is None or not record.ran:
            continue
        layer = f"{kind}.{record.name}"
        seconds = tracer.durations(layer)[0]
        produced = outputs[layer][0]
        metrics[f"{layer}.s"] = seconds
        if kind == "generation":
            metrics[f"{layer}.candidates"] = float(len(produced))
            metrics[f"{layer}.precision"] = _share(
                produced, lambda r: oracle(r.hyponym, r.hypernym)
            )
        else:
            metrics[f"{layer}.removed"] = float(len(produced))
            metrics[f"{layer}.veto_precision"] = _share(
                produced, lambda r: not oracle(r.hyponym, r.hypernym)
            )
        span_over_record[layer] = seconds / record.seconds
        if seconds > record.seconds * 1.05 + 1e-3:
            failures += 1
    trace = cold.stage_trace
    metrics["nlp.resources_s"] = trace.get("resources").seconds
    metrics["nlp.incremental_resources_s"] = (
        rebuild.stage_trace.get("resources").seconds
    )
    metrics["pipeline.merge_s"] = trace.get("merge").seconds
    metrics["pipeline.assemble_s"] = trace.get("assemble").seconds
    metrics["pipeline.incremental_reuse"] = float(
        rebuild.resource_mode == "incremental"
    )
    replayed = [
        record.name for record in rebuild.stage_trace.records
        if record.kind == "source" and record.cache_hit
    ]
    metrics["pipeline.replayed_sources"] = float(len(replayed))
    if "tag" not in replayed:
        failures += 1
    return metrics, {
        "replayed_sources": replayed,
        "span_over_stage_record": span_over_record,
    }, failures


def _share(items, predicate) -> float:
    return sum(1 for item in items if predicate(item)) / len(items) \
        if items else 0.0


def delta_layers(dump0, dump1, taxonomy0, taxonomy1, rebuild_delta):
    """``diff_dumps`` and ``TaxonomyDelta.compute``, timed directly.

    Returns (metrics, forward delta, inverse delta, failures): the
    directly computed delta must be the rebuild's delta, byte for byte.
    """
    start = clock()
    diff = diff_dumps(dump0, dump1)
    diff_s = clock() - start
    start = clock()
    forward = TaxonomyDelta.compute(taxonomy0, taxonomy1)
    compute_s = clock() - start
    inverse = TaxonomyDelta.compute(taxonomy1, taxonomy0)
    same = forward.to_wire() == rebuild_delta.to_wire()
    return {
        "encyclopedia.diff_ms": diff_s * 1e3,
        "encyclopedia.pages_touched": float(diff.n_touched),
        "delta.compute_ms": compute_s * 1e3,
        "delta.records": float(forward.n_records),
    }, forward, inverse, int(not same)


# -- reads ---------------------------------------------------------------------


class _ConnectCounter:
    """Counts ``http.client.HTTPConnection.connect`` calls while entered."""

    def __init__(self) -> None:
        self.count = 0
        self._original = http.client.HTTPConnection.connect

    def __enter__(self) -> "_ConnectCounter":
        original = self._original

        def connect(conn):
            self.count += 1
            return original(conn)

        http.client.HTTPConnection.connect = connect
        return self

    def __exit__(self, *exc) -> None:
        http.client.HTTPConnection.connect = self._original


def _rung_singles(front, calls, indices, layer, tracer, expected) -> int:
    """Closed-loop single reads; returns how many answers were wrong."""
    wrong = 0
    for i in indices:
        api, argument = calls[i]
        call = getattr(front, SINGLE[api])
        start = clock()
        answer = call(argument)
        tracer.add(layer, i, start, clock())
        wrong += answer != expected[i]
    return wrong


def _rung_batches(front, batches, indices, layer, tracer, expected) -> int:
    """Closed-loop batches; the view rung, which has no batch call, looks
    each key up in a plain loop."""
    wrong = 0
    for i in indices:
        api, arguments = batches[i]
        if isinstance(front, ReadOptimizedTaxonomy):
            method = getattr(front, SINGLE[api])
            start = clock()
            answer = [method(argument) for argument in arguments]
        else:
            call = getattr(front, BATCH[api])
            start = clock()
            answer = call(arguments)
        tracer.add(layer, i, start, clock())
        wrong += answer != expected[i]
    return wrong


def read_layers(taxonomy0, view0, calls, batches, client, server_pid,
                tracer: Tracer) -> tuple[dict, int, int]:
    """Singles and batches down every read rung, interleaved in blocks.

    Returns (metrics, attempted, failed).
    """
    rungs = {
        "view": view0,
        "service": TaxonomyService(taxonomy0),
        "store": ShardedSnapshotStore(taxonomy0, n_shards=2),
        "router": build_cluster(taxonomy0, shards=2, replicas=2),
        "http": client,
    }
    router = rungs["router"]
    expected, expected_batches = expected_answers(view0, calls, batches)
    failed = 0
    client_cpu = server_user = server_sys = 0.0
    retries = client.wire_stats.as_dict()["retries"]
    router_before = router.stats.as_dict()
    groups = 0
    connects = _ConnectCounter()
    for block in range(BLOCKS):
        singles = range(block, len(calls), BLOCKS)
        grouped = range(block, len(batches), BLOCKS)
        for rung, front in rungs.items():
            if rung == "http":
                cpu, server = time.process_time(), proc_cpu(server_pid)
                with connects:
                    failed += _rung_singles(front, calls, singles,
                                            "http.single", tracer, expected)
                client_cpu += time.process_time() - cpu
                user, system = proc_cpu(server_pid)
                server_user += user - server[0]
                server_sys += system - server[1]
                with connects:
                    failed += _rung_batches(front, batches, grouped,
                                            "http.batch", tracer,
                                            expected_batches)
                continue
            failed += _rung_singles(front, calls, singles, f"{rung}.single",
                                    tracer, expected)
            failed += _rung_batches(front, batches, grouped, f"{rung}.batch",
                                    tracer, expected_batches)
        groups += len(singles) + sum(
            len({shard_for(a, 2) for a in batches[i][1]}) for i in grouped
        )
    router_after = router.stats.as_dict()
    attempted = len(rungs) * (len(calls) + len(batches))
    n_singles = len(calls)
    us = 1e6

    def self_us(upper: str, lower: str, kind: str) -> float:
        return (tracer.median(f"{upper}.{kind}")
                - tracer.median(f"{lower}.{kind}")) * us

    metrics = {
        "client.connects_per_req": connects.count / (
            len(calls) + len(batches)
        ),
        "client.cpu_ms": client_cpu / n_singles * 1e3,
        "client.retries": float(
            client.wire_stats.as_dict()["retries"] - retries
        ),
        "server.user_ms": server_user / n_singles * 1e3,
        "server.sys_ms": server_sys / n_singles * 1e3,
        "server.http_self_us": self_us("http", "router", "single"),
        "server.http_batch_self_us": self_us("http", "router", "batch"),
        "router.self_us": self_us("router", "view", "single"),
        "router.batch_self_us": self_us("router", "view", "batch"),
        "router.attempts_per_group": (
            router_after["attempts"] - router_before["attempts"]
        ) / groups,
        "router.failovers": float(
            router_after["failovers"] - router_before["failovers"]
        ),
        "sharding.self_us": self_us("store", "view", "single"),
        "sharding.batch_self_us": self_us("store", "view", "batch"),
        "store.us": tracer.median("view.single") * us,
        "store.batch_us": tracer.median("view.batch") * us,
        "service.self_us": self_us("service", "view", "single"),
        "service.batch_self_us": self_us("service", "view", "batch"),
    }
    return metrics, attempted, failed


# -- publishes -----------------------------------------------------------------


def publish_layers(taxonomy0, view0, forward, inverse, scale: Scale,
                   tracer: Tracer) -> tuple[dict, int, int]:
    """The same delta and its inverse, alternately, down every publish
    rung.  Returns (metrics, attempted, failed)."""
    deltas = (forward, inverse)
    attempted = failed = 0
    touched: list[int] = []

    def view_rung(count: int, offset: int) -> None:
        view = view0
        for k in range(count):
            delta = deltas[k % 2]
            start = clock()
            view = view.apply_delta(
                delta, stats=delta.new_stats,
                n_relations=delta.new_n_relations, name=delta.name,
            )
            tracer.add("view.publish", offset + k, start, clock())

    def front_rung(rung: str, front, count: int, offset: int) -> int:
        bad = 0
        for k in range(count):
            delta = deltas[k % 2]
            before = front.shard_versions() if rung == "store" else None
            start = clock()
            front.publish_delta(
                delta, base_version=parse_version_id(front.version_id)
            )
            tracer.add(f"{rung}.publish", offset + k, start, clock())
            bad += front.content_hash != delta.new_content_hash
            if before is not None:
                touched.append(sum(
                    a != b for a, b in zip(before, front.shard_versions())
                ))
        return bad

    fronts = {
        "store": ShardedSnapshotStore(taxonomy0, n_shards=2),
        "router": build_cluster(taxonomy0, shards=2, replicas=2),
    }
    # an even count per block leaves every front back on day 0
    per_block = max(2, scale.ladder_publishes // BLOCKS // 2 * 2)
    for block in range(BLOCKS):
        offset = block * per_block
        view_rung(per_block, offset)
        for rung, front in fronts.items():
            failed += front_rung(rung, front, per_block, offset)
            attempted += per_block
    service = TaxonomyService(taxonomy0)
    failed += front_rung("service", service, scale.service_publishes, 0)
    attempted += scale.service_publishes
    ms = 1e3
    return {
        "store.apply_delta_ms": tracer.median("view.publish") * ms,
        "sharding.publish_ms": tracer.median("store.publish") * ms,
        "sharding.touched_shards": float(statistics.mean(touched)),
        "router.publish_self_ms": (
            tracer.median("router.publish") - tracer.median("store.publish")
        ) * ms,
        "service.publish_ms": tracer.median("service.publish") * ms,
    }, attempted, failed


# -- the whole ladder ----------------------------------------------------------


def run_ladder(state, scale: Scale, seed: int, workdir: Path,
               tracer: Tracer) -> tuple[dict, int, int, dict]:
    """Builds, then reads, then publishes, on the workload's own inputs.

    Returns (per-layer metrics, attempted, failed, diagnostics).
    """
    base = state.base
    dump1 = make_day1(scale, base.world, seed)
    nightly = NightlyState(
        base, dump1, PreviousBuild.from_result(base.dump0, base.build0),
        workdir, {},
    )
    outputs: dict = {}
    rep = nightly_rep(
        nightly, None, lambda: traced_registry(tracer, outputs), keep=True
    )
    cold, rebuild = rep.cold, rep.rebuild_result
    failed = (not rep.cold_ok) + (not rep.rebuild_ok)
    metrics, diagnostics, failures = build_layers(
        base.world, cold, rebuild, tracer, outputs
    )
    failed += failures
    delta_metrics, forward, inverse, failures = delta_layers(
        base.dump0, dump1, base.build0.taxonomy, cold.taxonomy,
        rebuild.delta,
    )
    metrics.update(delta_metrics)
    failed += failures
    attempted = 4  # two builds, the diff and the delta

    calls = make_calls(scale, base.world, seed)
    batches = make_batches(calls)[:scale.ladder_batches]
    calls = calls[:scale.ladder_singles]
    server = getattr(state, "server", None)
    own_server = server is None
    if own_server:
        path = workdir / "ladder-day0.jsonl"
        base.build0.taxonomy.save(path)
        server = ServerProcess(path, workdir)
    try:
        client = TaxonomyClient(server.url, jitter_seed=seed)
        read_metrics, read_attempted, read_failed = read_layers(
            base.build0.taxonomy, base.view0, calls, batches, client,
            server.pid, tracer,
        )
    finally:
        if own_server:
            server.stop()
    metrics.update(read_metrics)
    attempted += read_attempted
    failed += read_failed

    publish_metrics, publish_attempted, publish_failed = publish_layers(
        base.build0.taxonomy, base.view0, forward, inverse, scale, tracer
    )
    metrics.update(publish_metrics)
    attempted += publish_attempted
    failed += publish_failed
    missing = set(LAYER_UNITS) - set(metrics)
    if missing:
        raise RuntimeError(f"ladder produced no {sorted(missing)}")
    return metrics, attempted, failed, diagnostics
