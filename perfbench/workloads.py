"""The three workloads: set-up, timed phase and correctness checks.

Each workload has a ``setup_*`` (everything before the first timed
operation) returning a state object, and a ``phase_*`` that drives the
load for a number of seconds and returns a :class:`Phase`.  A phase
takes an optional tracer: the untraced run passes none, the traced run
(``ladder.py``) passes one and the same load records a span per
operation, so the two runs differ only by the tracing.

Every answer is checked, and a wrong answer or an exception counts as a
failed operation, which ranks as the slowest one in every median.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BATCH,
    REFERENCE_PROBE_MS,
    SAMPLE_ITERATIONS,
    SINGLE,
    Paused,
    Scale,
    ServerProcess,
    SpeedClock,
    build_cold,
    build_warm,
    calls_digest,
    delta_digest,
    fingerprint,
    latency_summary,
    lookup,
    make_batches,
    make_calls,
    make_day1,
    make_world,
    peak_rss_mb,
    proc_cpu,
    quality,
    rss_mb,
    taxonomy_bytes,
)
from repro.core.pipeline import PreviousBuild
from repro.serving import TaxonomyClient, build_cluster
from repro.taxonomy.delta import TaxonomyDelta, parse_version_id

clock = time.perf_counter

#: http_api load: singles and batches, each evenly spaced at its rate,
#: in alternating windows of this many seconds.
SINGLE_RATE = 200.0
BATCH_RATE = 25.0
WINDOW_S = 1.0
SENDERS = 2
#: inproc_publish: one delta publish every this many seconds, and a
#: speed probe every this many batches (~0.15 s)
PUBLISH_EVERY = 0.25
PROBE_EVERY_BATCHES = 400
WARMUP_OPS = 50


@dataclass
class Phase:
    """What one timed phase measured.

    ``metrics`` are calibrated to the reference speed (see
    :class:`~common.SpeedClock`); the same numbers as measured, before
    calibration, are in ``diagnostics["raw"]``.
    """

    metrics: dict[str, float]
    latencies: dict[str, dict] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (precision, correct relations) of what the workload serves or
    #: rebuilds, labelled after the timed operations
    quality: tuple = (0.0, 0)
    #: the first few errors raised by failed operations
    errors: list = field(default_factory=list)


def _summaries(ops, failed: int, speed: SpeedClock) -> tuple[dict, dict]:
    """Calibrated and raw latency summaries of ``(seconds, start, end)``
    operations."""
    calibrated = [speed.calibrate(*op) for op in ops]
    return (latency_summary(calibrated, failed),
            latency_summary([op[0] for op in ops], failed))


@dataclass
class Base:
    """What every workload's set-up produces first: the day-0 build."""

    world: object
    dump0: object
    build0: object
    #: the day-0 shared resources a warm nightly process still holds
    resources0: tuple
    view0: object


def setup_base(scale: Scale, seed: int) -> Base:
    world = make_world(scale, seed)
    dump0 = world.dump()
    build0, resources0 = build_cold(dump0)
    return Base(world, dump0, build0, resources0, build0.taxonomy.freeze())


def expected_answers(view, calls, batches):
    singles = [lookup(view, api, argument) for api, argument in calls]
    grouped = [
        [lookup(view, api, argument) for argument in arguments]
        for api, arguments in batches
    ]
    return singles, grouped


# -- http_api ------------------------------------------------------------------


@dataclass
class HttpState:
    base: Base
    calls: list
    batches: list
    expected_singles: list
    expected_batches: list
    server: ServerProcess
    client: TaxonomyClient
    fingerprint: dict

    def close(self) -> None:
        self.server.stop()


def setup_http(scale: Scale, seed: int, workdir: Path) -> HttpState:
    base = setup_base(scale, seed)
    calls = make_calls(scale, base.world, seed)
    batches = make_batches(calls)
    singles, grouped = expected_answers(base.view0, calls, batches)
    path = workdir / "day0.jsonl"
    base.build0.taxonomy.save(path)
    server = ServerProcess(path, workdir)
    try:
        client = TaxonomyClient(
            server.url, admin_token=ServerProcess.TOKEN, jitter_seed=seed
        )
        for api, argument in calls[:WARMUP_OPS]:
            getattr(client, SINGLE[api])(argument)
        for api, arguments in batches[:WARMUP_OPS // 10]:
            getattr(client, BATCH[api])(arguments)
    except BaseException:
        server.stop()
        raise
    return HttpState(
        base, calls, batches, singles, grouped, server, client,
        fingerprint({
            "dump0": base.dump0.fingerprint(),
            "calls": calls_digest(calls),
        }),
    )


def _open_loop(first: int, n_ops: int, rate: float, send, layer: str,
               tracer):
    """Fire ops ``first .. first + n_ops - 1`` evenly spaced at *rate*
    from :data:`SENDERS` threads.

    Latency runs from the op's due time, so a stall also charges the
    ops queued behind it; lateness is how far behind schedule a send
    started.  Returns (ops as ``(latency, start, end)``, lateness,
    failed, errors).
    """
    t0 = clock() + 0.02
    outcomes: list = [None] * n_ops
    errors: list = []

    def sender(offset: int) -> None:
        for i in range(offset, n_ops, SENDERS):
            due = t0 + i / rate
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            start = clock()
            try:
                ok = send(first + i)
            except Exception as exc:  # a failed operation, not a crash
                errors.append(repr(exc))
                ok = False
            end = clock()
            outcomes[i] = ((end - due, due, end), start - due, ok)
            if tracer is not None:
                tracer.add(layer, first + i, start, end)

    threads = [
        threading.Thread(target=sender, args=(j,), daemon=True)
        for j in range(SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ops = [op for op, _, ok in outcomes if ok]
    lateness = [late for _, late, _ in outcomes]
    return ops, lateness, n_ops - len(ops), errors


def phase_http(state: HttpState, seconds: float, tracer=None) -> Phase:
    """Alternate windows of open-loop singles and open-loop batches.

    Both kinds thus sample the whole run instead of one half each.  A
    background thread probes the speed throughout; a probe holds the
    interpreter lock for about a millisecond every 0.1 s, while the
    sender threads mostly wait on their sockets.
    """
    client, calls, batches = state.client, state.calls, state.batches

    def send_single(i: int) -> bool:
        api, argument = calls[i % len(calls)]
        answer = getattr(client, SINGLE[api])(argument)
        return answer == state.expected_singles[i % len(calls)]

    def send_batch(i: int) -> bool:
        api, arguments = batches[i % len(batches)]
        answer = getattr(client, BATCH[api])(arguments)
        return answer == state.expected_batches[i % len(batches)]

    windows = max(1, int(seconds / (2 * WINDOW_S)))
    per_single = int(WINDOW_S * SINGLE_RATE)
    per_batch = int(WINDOW_S * BATCH_RATE)
    pid = state.server.pid
    speed = SpeedClock()
    single_ops, single_late, batch_ops, batch_late = [], [], [], []
    single_failed = batch_failed = 0
    errors: list = []
    server_cpu = []  # (user + sys seconds, start, end) per singles window
    user = system = 0.0
    rss = []
    speed.probe()
    with speed.background():
        for window in range(windows):
            start, before = clock(), proc_cpu(pid)
            ops, late, failed, errs = _open_loop(
                window * per_single, per_single, SINGLE_RATE, send_single,
                "http_api.single", tracer,
            )
            after, end = proc_cpu(pid), clock()
            user += after[0] - before[0]
            system += after[1] - before[1]
            server_cpu.append((sum(after) - sum(before), start, end))
            single_ops += ops
            single_late += late
            single_failed += failed
            errors += errs
            ops, late, failed, errs = _open_loop(
                window * per_batch, per_batch, BATCH_RATE, send_batch,
                "http_api.batch", tracer,
            )
            batch_ops += ops
            batch_late += late
            batch_failed += failed
            errors += errs
            if window in (0, windows - 1):
                rss.append(rss_mb(pid))
    speed.probe()
    n_singles = windows * per_single
    single, single_raw = _summaries(single_ops, single_failed, speed)
    batch, batch_raw = _summaries(batch_ops, batch_failed, speed)
    cpu = sum(speed.calibrate(*window) for window in server_cpu) / n_singles
    return Phase(
        metrics={
            "op_p50_ms": single["p50"] * 1e3,
            "op2_p50_ms": batch["p50"] * 1e3,
            "op_cpu_ms": cpu * 1e3,
            "rss_mb": max(rss),
        },
        latencies={"single": single, "batch": batch},
        diagnostics={
            "raw": {
                "op_p50_ms": single_raw["p50"] * 1e3,
                "op2_p50_ms": batch_raw["p50"] * 1e3,
                "op_cpu_ms": (user + system) / n_singles * 1e3,
            },
            "speed": speed.summary(),
            "lateness_single": latency_summary(single_late),
            "lateness_batch": latency_summary(batch_late),
            "server_user_ms": user / n_singles * 1e3,
            "server_sys_ms": system / n_singles * 1e3,
        },
        attempted=n_singles + windows * per_batch,
        failed=single_failed + batch_failed,
        quality=quality(state.base.world, state.base.build0.taxonomy),
        errors=errors[:5],
    )


# -- inproc_publish ------------------------------------------------------------


@dataclass
class InprocState:
    base: Base
    build1: object
    batches: list
    #: per version the front can serve, the answer to every batch
    expected: list[list]
    #: the publish cycle: day 0 -> night A -> day 0 -> night B -> day 0
    cycle: list
    front: object
    fingerprint: dict
    #: index into ``cycle`` of the next publish
    position: int = 0

    def close(self) -> None:
        pass


def setup_inproc(scale: Scale, seed: int, workdir: Path) -> InprocState:
    """Day 0 plus two nights' rebuilds of it, and their deltas.

    A publish costs more the more entities the concepts it touches
    hold, and one night's churn draws only ~30 concepts, so one night
    makes the publish median swing ~40 % from seed to seed.  Cycling
    through two nights halves that swing.
    """
    base = setup_base(scale, seed)
    previous = PreviousBuild.from_result(base.dump0, base.build0)
    calls = make_calls(scale, base.world, seed)
    batches = make_batches(calls)
    expected = [expected_answers(base.view0, [], batches)[1]]
    cycle, nights, parts = [], [], {}
    for variant in (0, 1):
        dump1 = make_day1(scale, base.world, seed, variant)
        build1 = build_warm(dump1, previous, base.resources0)
        cycle += [
            build1.delta,
            TaxonomyDelta.compute(build1.taxonomy, base.build0.taxonomy),
        ]
        nights.append(build1)
        expected.append(
            expected_answers(build1.taxonomy.freeze(), [], batches)[1]
        )
        parts[f"dump1.{variant}"] = dump1.fingerprint()
        parts[f"delta.{variant}"] = delta_digest(build1.delta)
    front = build_cluster(base.build0.taxonomy, shards=2, replicas=2)
    for api, arguments in batches[:WARMUP_OPS]:
        getattr(front, BATCH[api])(arguments)
    return InprocState(
        base, nights[0], batches, expected, cycle, front,
        fingerprint({
            "dump0": base.dump0.fingerprint(),
            "calls": calls_digest(calls),
            **parts,
        }),
    )


def phase_inproc(state: InprocState, seconds: float, tracer=None) -> Phase:
    """Closed-loop batches racing periodic publishes.

    The reader thread runs the speed probe every
    :data:`PROBE_EVERY_BATCHES` batches, between two batches.  The
    publisher, which may run on the other CPU, brackets each publish
    with a short probe of its own.
    """
    front, batches, versions = state.front, state.batches, state.expected
    stop = threading.Event()
    speed = SpeedClock()
    publisher_speed = SpeedClock()
    batch_ops: list[tuple] = []
    publish_ops: list[tuple] = []
    failures = {"batch": 0, "publish": 0, "mixed": 0}
    publish_late: list[float] = []
    errors: list[str] = []

    def reader() -> None:
        i = 0
        while not stop.is_set():
            k = i % len(batches)
            api, arguments = batches[k]
            start = clock()
            try:
                answer = getattr(front, BATCH[api])(arguments)
            except Exception as exc:  # a failed operation, not a crash
                errors.append(repr(exc))
                answer = None
            end = clock()
            if answer is None:
                failures["batch"] += 1
            elif any(answer == version[k] for version in versions):
                batch_ops.append((end - start, start, end))
            else:
                # neither version position for position: torn or wrong
                failures["mixed"] += 1
            if tracer is not None:
                tracer.add("inproc_publish.batch", i, start, end)
            i += 1
            if i % PROBE_EVERY_BATCHES == 0:
                speed.probe()

    def publisher() -> None:
        t0 = clock()
        k = 0
        while True:
            due = t0 + (k + 1) * PUBLISH_EVERY
            if due - t0 > seconds:
                return
            if stop.wait(max(0.0, due - clock())):
                return
            delta = state.cycle[state.position % len(state.cycle)]
            publisher_speed.probe(1, SAMPLE_ITERATIONS)
            start = clock()
            try:
                front.publish_delta(
                    delta, base_version=parse_version_id(front.version_id)
                )
                ok = front.content_hash == delta.new_content_hash
            except Exception as exc:  # a failed operation, not a crash
                errors.append(repr(exc))
                ok = False
            end = clock()
            publisher_speed.probe(1, SAMPLE_ITERATIONS)
            publish_late.append(start - due)
            if ok:
                publish_ops.append((end - start, start, end))
                state.position += 1
            else:
                failures["publish"] += 1
                # continue from wherever the front actually is
                state.position = next(
                    (i for i, d in enumerate(state.cycle)
                     if d.base_content_hash == front.content_hash),
                    state.position + 1,
                )
            if tracer is not None:
                tracer.add("inproc_publish.publish", k, start, end)
            k += 1

    speed.probe()
    cpu_before = time.process_time()
    threads = [
        threading.Thread(target=reader, daemon=True),
        threading.Thread(target=publisher, daemon=True),
    ]
    for thread in threads:
        thread.start()
    time.sleep(seconds / 2)
    rss = [rss_mb()]
    time.sleep(seconds / 2)
    stop.set()
    for thread in threads:
        thread.join()
    rss.append(rss_mb())
    cpu = (time.process_time() - cpu_before) / max(
        1, len(batch_ops) + failures["batch"] + failures["mixed"]
    )
    speed.probe()
    n_batches = len(batch_ops) + failures["batch"] + failures["mixed"]
    n_publishes = len(publish_ops) + failures["publish"]
    batch, batch_raw = _summaries(
        batch_ops, failures["batch"] + failures["mixed"], speed
    )
    publish, publish_raw = _summaries(
        publish_ops, failures["publish"], publisher_speed
    )
    whole = REFERENCE_PROBE_MS / speed.summary()["mean_ms"]
    return Phase(
        metrics={
            "op_p50_ms": batch["p50"] * 1e3,
            "op2_p50_ms": publish["p50"] * 1e3,
            "op_cpu_ms": cpu * whole * 1e3,
            "rss_mb": max(rss),
        },
        latencies={"batch": batch, "publish": publish},
        diagnostics={
            "raw": {
                "op_p50_ms": batch_raw["p50"] * 1e3,
                "op2_p50_ms": publish_raw["p50"] * 1e3,
                "op_cpu_ms": cpu * 1e3,
            },
            "speed": speed.summary(),
            "lateness_publish": latency_summary(publish_late),
            "mixed_version_batches": failures["mixed"],
        },
        attempted=n_batches + n_publishes,
        failed=sum(failures.values()),
        quality=quality(state.base.world, state.build1.taxonomy),
        errors=errors[:5],
    )


# -- nightly_build -------------------------------------------------------------


@dataclass
class NightlyState:
    base: Base
    dump1: object
    previous: PreviousBuild
    workdir: Path
    fingerprint: dict

    def close(self) -> None:
        pass


def setup_nightly(scale: Scale, seed: int, workdir: Path) -> NightlyState:
    base = setup_base(scale, seed)
    dump1 = make_day1(scale, base.world, seed)
    return NightlyState(
        base, dump1, PreviousBuild.from_result(base.dump0, base.build0),
        workdir,
        fingerprint({
            "dump0": base.dump0.fingerprint(),
            "dump1": dump1.fingerprint(),
        }),
    )


@dataclass
class Rep:
    """One nightly repetition's timings and checks."""

    #: (seconds, start, end) of the cold build, its CPU and the rebuild
    build: tuple
    cpu: tuple
    rebuild: tuple | None
    #: a cold build that hit the resource cache timed the cache, not
    #: the build; a rebuild whose bytes differ from the cold build's
    #: is wrong
    cold_ok: bool = True
    rebuild_ok: bool = True
    #: the build results, kept only when asked for
    cold: object = None
    rebuild_result: object = None
    #: (precision, correct relations) of the cold build, when asked for
    quality: tuple | None = None


def nightly_rep(state: NightlyState, speed: SpeedClock | None,
                registry_factory=None, tracer=None, rep: int = 0,
                keep: bool = False, label: bool = False) -> Rep:
    """One repetition: a cold full build of day 1, then the warm rebuild.

    With a *speed* clock, each build is bracketed by speed probes and
    sampled inside, and the samples' own time is taken off the build's.
    Unless *keep* is set,
    the cold
    build is dropped before the rebuild starts, so neither build's
    garbage collection scans the other's objects; *label* has the cold
    taxonomy's quality measured first, outside both timings.
    """
    registry = registry_factory() if registry_factory else None
    with _sampled(speed) as paused:
        cpu = time.process_time()
        start = clock()
        cold, _ = build_cold(state.dump1, registry)
        end = clock()
        cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.add("nightly_build.build", rep, start, end)
    result = Rep((end - start - paused.wall, start, end),
                 (cpu - paused.cpu, start, end), None,
                 cold=cold if keep else None)
    result.cold_ok = not cold.stage_trace.get("resources").cache_hit
    cold_bytes = taxonomy_bytes(cold.taxonomy, state.workdir / "cold.jsonl")
    if label:
        result.quality = quality(state.base.world, cold.taxonomy)
    del cold
    gc.collect()
    registry = registry_factory() if registry_factory else None
    with _sampled(speed) as paused:
        start = clock()
        rebuild = build_warm(
            state.dump1, state.previous, state.base.resources0, registry
        )
        end = clock()
    if tracer is not None:
        tracer.add("nightly_build.rebuild", rep, start, end)
    result.rebuild = (end - start - paused.wall, start, end)
    saved = taxonomy_bytes(rebuild.taxonomy, state.workdir / "rebuild.jsonl")
    result.rebuild_ok = saved == cold_bytes
    if keep:
        result.rebuild_result = rebuild
    return result


@contextlib.contextmanager
def _sampled(speed: SpeedClock | None):
    """Probe around and inside one build; nothing without a clock."""
    if speed is None:
        yield Paused()
        return
    speed.probe()
    with speed.sampling() as paused:
        yield paused
    speed.probe()


def phase_nightly(state: NightlyState, seconds: float, tracer=None) -> Phase:
    speed = SpeedClock()
    reps: list[Rep] = []
    t0 = clock()
    while not reps or clock() - t0 < seconds:
        # every repetition builds the same taxonomy: label the first
        reps.append(nightly_rep(state, speed, tracer=tracer, rep=len(reps),
                                label=not reps))
        gc.collect()
    cold_failed = sum(not r.cold_ok for r in reps)
    rebuild_failed = sum(not r.rebuild_ok for r in reps)
    build, build_raw = _summaries(
        [r.build for r in reps if r.cold_ok], cold_failed, speed
    )
    cpu, cpu_raw = _summaries(
        [r.cpu for r in reps if r.cold_ok], cold_failed, speed
    )
    rebuild, rebuild_raw = _summaries(
        [r.rebuild for r in reps if r.rebuild_ok], rebuild_failed, speed
    )
    return Phase(
        metrics={
            "op_p50_ms": build["p50"] * 1e3,
            "op2_p50_ms": rebuild["p50"] * 1e3,
            "op_cpu_ms": cpu["p50"] * 1e3,
            "rss_mb": peak_rss_mb(),
        },
        latencies={"build": build, "rebuild": rebuild},
        diagnostics={
            "raw": {
                "op_p50_ms": build_raw["p50"] * 1e3,
                "op2_p50_ms": rebuild_raw["p50"] * 1e3,
                "op_cpu_ms": cpu_raw["p50"] * 1e3,
            },
            "speed": speed.summary(),
            "repetitions": len(reps),
        },
        attempted=2 * len(reps),
        failed=cold_failed + rebuild_failed,
        quality=reps[0].quality,
    )


# -- registry ------------------------------------------------------------------

SETUPS = {
    "http_api": setup_http,
    "inproc_publish": setup_inproc,
    "nightly_build": setup_nightly,
}
PHASES = {
    "http_api": phase_http,
    "inproc_publish": phase_inproc,
    "nightly_build": phase_nightly,
}
