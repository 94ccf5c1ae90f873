"""Open-loop schedule replay against any ``BatchedServingAPI`` front.

:func:`run_schedule` drives a compiled
:class:`~repro.workloads.schedule.Schedule` the way production traffic
arrives — *open loop*: every event fires at its scheduled offset
whether or not earlier requests have completed, so a slow server builds
a visible backlog instead of silently throttling the load.  The
dispatcher thread sleeps to each event's offset and hands it to a
bounded worker pool; workers measure per-request latency, and the gap
between an event's scheduled and actual start is recorded as
**lateness** — reported, never silently absorbed, because a saturated
runner would otherwise masquerade as a fast server.

The target is anything speaking the canonical
:class:`~repro.taxonomy.service.BatchedServingAPI` surface: the
in-process :class:`~repro.taxonomy.service.TaxonomyService`, the
sharded store, the :class:`~repro.serving.router.ReplicatedRouter`, or
a :class:`~repro.serving.client.TaxonomyClient` pointed at a live
``cn-probase serve`` process (:func:`serve_subprocess` spawns one).

Mixed read + publish runs: :class:`TimedAction` schedules a
``publish_delta`` (or any admin callable) at an offset inside the
replay, and a :class:`VersionAuditor` armed with the before/after
frozen views checks every batched answer against exactly one version —
the publish_under_load acceptance gate is its ``mixed_answers == 0``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.errors import WorkloadError
from repro.obs import (
    TraceIdSource,
    get_hub,
    per_hop_breakdown,
    trace_context,
)
from repro.taxonomy.service import APILatency, WIRE_API_METHODS
from repro.workloads.schedule import Schedule, ScheduledCall

#: Store lookup method per wire API (the single source of truth is
#: WIRE_API_METHODS; index 0 is the single-key spelling every
#: ReadOptimizedTaxonomy exposes directly).
_LOOKUPS = {api: names[0] for api, names in WIRE_API_METHODS.items()}

#: The wall-clock sleep hook this module lends out.  The determinism
#: lint bans ``time`` everywhere in the package except here, so
#: anything that must actually sleep (e.g. an injected wire-fault
#: delay in :mod:`repro.workloads.faults`) receives this hook instead
#: of importing the clock itself.
wall_sleep = time.sleep


@dataclass
class TimedAction:
    """A side action fired at *at_s* schedule seconds into the run."""

    at_s: float
    label: str
    action: object  # zero-arg callable
    fired_at_s: float | None = None
    seconds: float | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "at_s": self.at_s,
            "label": self.label,
            "fired_at_s": self.fired_at_s,
            "seconds": self.seconds,
            "error": self.error,
        }


class VersionAuditor:
    """Checks every answered batch against exactly one taxonomy version.

    Armed with ``(version_label, read_view)`` pairs — typically the
    frozen before/after views of a publish-under-load run.  A batch
    whose answers match no single version position-for-position is a
    **mixed-version answer**, the torn read the serving layer promises
    can never happen.
    """

    def __init__(self, versions) -> None:
        if not versions:
            raise WorkloadError("auditor needs at least one version view")
        self._versions = list(versions)
        self._lock = threading.Lock()
        self.matched: dict[str, int] = {label: 0 for label, _ in self._versions}
        self.mixed_answers = 0
        self.mixed_samples: list[dict] = []

    def check(self, call: ScheduledCall, results: list[list[str]]) -> None:
        for label, view in self._versions:
            lookup = getattr(view, _LOOKUPS[call.api])
            if all(
                result == lookup(argument)
                for argument, result in zip(call.args, results)
            ):
                with self._lock:
                    self.matched[label] += 1
                return
        with self._lock:
            self.mixed_answers += 1
            if len(self.mixed_samples) < 8:
                self.mixed_samples.append(
                    {"index": call.index, "api": call.api,
                     "args": list(call.args)}
                )

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "matched": dict(self.matched),
                "mixed_answers": self.mixed_answers,
                "mixed_samples": list(self.mixed_samples),
            }


@dataclass
class RunReport:
    """What one schedule replay measured."""

    scenario: str
    target: str
    n_events: int = 0
    n_calls: int = 0
    n_errors: int = 0
    n_hits: int = 0
    n_expected_misses: int = 0
    wall_seconds: float = 0.0
    time_scale: float = 1.0
    schedule_duration_s: float = 0.0
    per_api: dict[str, APILatency] = field(default_factory=dict)
    lateness: APILatency = field(default_factory=APILatency)
    per_tenant_calls: dict[str, int] = field(default_factory=dict)
    error_samples: list[str] = field(default_factory=list)
    actions: list[TimedAction] = field(default_factory=list)
    audit: dict | None = None
    #: Chaos runs only: the post-settle cluster convergence report
    #: (see :meth:`repro.workloads.faults.ChaosCluster.convergence`).
    convergence: dict | None = None
    #: Trace-sampled runs only: per-component latency quantiles for the
    #: sampled requests (see :func:`repro.obs.per_hop_breakdown`).
    per_hop: dict | None = None
    traced_calls: int = 0

    @property
    def throughput_calls_per_s(self) -> float:
        return self.n_calls / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def error_rate(self) -> float:
        return self.n_errors / self.n_events if self.n_events else 0.0

    @property
    def hit_rate(self) -> float:
        return self.n_hits / self.n_calls if self.n_calls else 0.0

    def as_dict(self) -> dict:
        apis = {}
        for api, ledger in sorted(self.per_api.items()):
            p50, p95, p99 = ledger.quantiles(0.50, 0.95, 0.99)
            apis[api] = {
                "calls": ledger.calls,
                "hit_rate": ledger.hit_rate,
                "mean_seconds": ledger.mean_seconds,
                "p50_seconds": p50,
                "p95_seconds": p95,
                "p99_seconds": p99,
                "max_seconds": ledger.max_seconds,
            }
        late_p50, late_p95, late_p99 = self.lateness.quantiles(
            0.50, 0.95, 0.99
        )
        payload = {
            "scenario": self.scenario,
            "target": self.target,
            "n_events": self.n_events,
            "n_calls": self.n_calls,
            "n_errors": self.n_errors,
            "error_rate": self.error_rate,
            "hit_rate": self.hit_rate,
            "expected_misses": self.n_expected_misses,
            "wall_seconds": self.wall_seconds,
            "time_scale": self.time_scale,
            "schedule_duration_s": self.schedule_duration_s,
            "throughput_calls_per_s": self.throughput_calls_per_s,
            "per_api": apis,
            "lateness": {
                "p50_seconds": late_p50,
                "p95_seconds": late_p95,
                "p99_seconds": late_p99,
                "max_seconds": self.lateness.max_seconds,
            },
            "per_tenant_calls": dict(sorted(self.per_tenant_calls.items())),
            "errors": list(self.error_samples),
            "actions": [action.as_dict() for action in self.actions],
            "audit": self.audit,
        }
        if self.convergence is not None:
            payload["convergence"] = self.convergence
        if self.per_hop is not None:
            payload["per_hop"] = self.per_hop
            payload["traced_calls"] = self.traced_calls
        return payload


def run_schedule(
    front,
    schedule: Schedule,
    *,
    target_name: str = "service",
    workers: int = 8,
    time_scale: float = 1.0,
    actions: list[TimedAction] | None = None,
    auditor: VersionAuditor | None = None,
    trace_every: int = 0,
    hub=None,
    gather_spans=None,
) -> RunReport:
    """Replay *schedule* open-loop against *front*; returns the report.

    *time_scale* > 1 compresses the schedule (offsets divide by it) so
    a 60-second trace replays in seconds without changing the request
    sequence.  *actions* fire at their (scaled) offsets on their own
    threads, so a slow ``publish_delta`` never stalls the dispatcher.

    With ``trace_every=N`` every Nth scheduled event runs inside a
    minted trace context, so the instrumented serving layers record
    spans into *hub* (the process default when omitted); the report
    then carries the sampled ``per_hop`` latency breakdown.
    *gather_spans*, when given, is a zero-arg callable returning extra
    span dicts from across a process boundary (an HTTP target's
    ``fetch_traces``) to fold into the same breakdown.
    """
    if workers < 1:
        raise WorkloadError(f"workers must be >= 1, got {workers}")
    if time_scale <= 0:
        raise WorkloadError(f"time_scale must be positive, got {time_scale}")
    if trace_every < 0:
        raise WorkloadError(f"trace_every must be >= 0, got {trace_every}")
    if not schedule.calls:
        raise WorkloadError("schedule has no calls to replay")
    if hub is None:
        hub = get_hub()
    trace_source = TraceIdSource("w")
    minted_ids: set[str] = set()
    report = RunReport(
        scenario=schedule.scenario,
        target=target_name,
        time_scale=time_scale,
        schedule_duration_s=schedule.duration_s,
    )
    report.n_expected_misses = schedule.n_expected_misses
    singles = {api: getattr(front, names[0])
               for api, names in WIRE_API_METHODS.items()}
    batches = {api: getattr(front, names[1])
               for api, names in WIRE_API_METHODS.items()}
    lock = threading.Lock()
    action_threads: list[threading.Thread] = []

    def serve(
        call: ScheduledCall,
        target_t: float,
        start: float,
        trace_id: str | None = None,
    ) -> None:
        begun = perf_counter()
        lateness = max(0.0, (begun - start) - target_t)
        try:
            if trace_id is not None:
                with trace_context(trace_id):
                    if call.batch_size == 1:
                        results = [singles[call.api](call.args[0])]
                    else:
                        results = batches[call.api](list(call.args))
            elif call.batch_size == 1:
                results = [singles[call.api](call.args[0])]
            else:
                results = batches[call.api](list(call.args))
        except Exception as exc:  # measured, never raised mid-load
            with lock:
                report.n_errors += 1
                report.lateness.observe(lateness, False)
                if len(report.error_samples) < 8:
                    report.error_samples.append(
                        f"{call.api}#{call.index}: {exc}"
                    )
            return
        seconds = perf_counter() - begun
        if auditor is not None and call.batch_size > 1:
            auditor.check(call, results)
        hits = sum(1 for result in results if result)
        per_call = seconds / call.batch_size
        with lock:
            ledger = report.per_api.setdefault(call.api, APILatency())
            for result in results:
                ledger.observe(per_call, bool(result))
            report.lateness.observe(lateness, False)
            report.n_hits += hits
            report.per_tenant_calls[call.tenant] = (
                report.per_tenant_calls.get(call.tenant, 0) + call.batch_size
            )

    timeline: list[tuple[float, object]] = [
        (call.at_s / time_scale, call) for call in schedule.calls
    ]
    for action in actions or ():
        timeline.append((action.at_s / time_scale, action))
    timeline.sort(key=lambda item: (item[0], isinstance(item[1], TimedAction)))

    n_served = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        start = perf_counter()
        for target_t, item in timeline:
            delay = target_t - (perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            if isinstance(item, TimedAction):
                thread = threading.Thread(
                    target=_fire_action, args=(item, start), daemon=True
                )
                thread.start()
                action_threads.append(thread)
                report.actions.append(item)
            else:
                trace_id = None
                if trace_every and n_served % trace_every == 0:
                    trace_id = trace_source.mint()
                    minted_ids.add(trace_id)
                n_served += 1
                # lint: allow[pickle-safety] thread pool — no process boundary
                pool.submit(serve, item, target_t, start, trace_id)
    for thread in action_threads:
        thread.join(timeout=60.0)
    report.wall_seconds = perf_counter() - start
    report.n_events = schedule.n_events
    report.n_calls = schedule.n_calls
    if auditor is not None:
        report.audit = auditor.as_dict()
    if minted_ids:
        report.traced_calls = len(minted_ids)
        report.per_hop = _sampled_per_hop(hub, minted_ids, gather_spans)
    return report


def _sampled_per_hop(hub, minted_ids: set[str], gather_spans) -> dict:
    """Fold local hub spans + any remote spans into one hop breakdown."""
    from repro.obs import _span_field

    spans: list = [
        span for span in hub.traces.spans()
        if span.trace_id in minted_ids
    ]
    if gather_spans is not None:
        try:
            remote = gather_spans()
        except Exception:  # a dead server must not void the replay
            remote = []
        spans.extend(
            span for span in remote
            if _span_field(span, "trace_id") in minted_ids
        )
    return per_hop_breakdown(spans)


def _fire_action(action: TimedAction, start: float) -> None:
    action.fired_at_s = perf_counter() - start
    begun = perf_counter()
    try:
        action.action()
    except Exception as exc:  # reported, not raised mid-load
        action.error = str(exc)
    action.seconds = perf_counter() - begun


def replay_calls(front, calls, *, batch_size: int = 1):
    """Closed-loop replay of sampled calls against a serving front.

    *front* is anything exposing the canonical
    :class:`~repro.taxonomy.service.BatchedServingAPI` surface — the
    in-process service, the sharded store, the replica router or the
    HTTP client.  *calls* is any iterable of objects with ``api`` and
    ``argument`` attributes (e.g.
    :class:`~repro.workloads.sampling.SampledCall`).  With
    ``batch_size > 1`` requests are
    buffered per API and served through the ``*_batch`` variants, the
    way a real gateway amortises round trips.  Returns the front's
    cumulative ``metrics`` ledger when it has one.

    For timestamped open-loop replay with latency/lateness percentiles
    use :func:`run_schedule` instead.
    """
    if batch_size < 1:
        raise WorkloadError(f"batch_size must be >= 1, got {batch_size}")
    singles = {api: getattr(front, names[0])
               for api, names in WIRE_API_METHODS.items()}
    batches = {api: getattr(front, names[1])
               for api, names in WIRE_API_METHODS.items()}
    buffers: dict[str, list[str]] = {name: [] for name in singles}
    for call in calls:
        if batch_size == 1:
            singles[call.api](call.argument)
            continue
        buffer = buffers[call.api]
        buffer.append(call.argument)
        if len(buffer) >= batch_size:
            batches[call.api](buffer)
            buffer.clear()
    for name, buffer in buffers.items():
        if buffer:
            batches[name](buffer)
    return getattr(front, "metrics", None)


# -- serving targets ----------------------------------------------------------

TARGET_KINDS = ("service", "sharded", "router", "http")


@dataclass
class RunTarget:
    """One serving front to replay against, plus its publish hook."""

    name: str
    front: object
    publish: object  # callable(delta, base_version_id, version_int) | None
    close: object = None  # zero-arg callable
    #: zero-arg callable returning remote span dicts (http targets: the
    #: server process's trace ring via ``fetch_traces``); None when the
    #: front records its spans into the local hub already.
    gather_spans: object = None

    def __enter__(self) -> "RunTarget":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.close is not None:
            self.close()


def make_target(
    kind: str,
    taxonomy,
    *,
    shards: int = 2,
    replicas: int = 2,
    port: int = 0,
) -> RunTarget:
    """Build a serving front of *kind* over *taxonomy*.

    ``service`` is the in-process facade, ``sharded`` the key-hashed
    store, ``router`` replica routing over it, and ``http`` a real
    ``cn-probase serve`` subprocess behind a
    :class:`~repro.serving.client.TaxonomyClient`.
    """
    if kind == "service":
        from repro.taxonomy.service import TaxonomyService

        service = TaxonomyService(taxonomy)
        return RunTarget(
            name=kind,
            front=service,
            publish=lambda delta, base, version: service.publish_delta(
                delta, base_version=base, version=version
            ),
        )
    if kind == "sharded":
        from repro.serving import ShardedSnapshotStore

        store = ShardedSnapshotStore(taxonomy, n_shards=shards)
        return RunTarget(
            name=kind,
            front=store,
            publish=lambda delta, base, version: store.publish_delta(
                delta, base_version=base, version=version
            ),
        )
    if kind == "router":
        from repro.serving import ReplicatedRouter, ShardedSnapshotStore

        store = ShardedSnapshotStore(taxonomy, n_shards=shards)
        router = ReplicatedRouter.from_store(store, replicas=replicas)
        return RunTarget(
            name=kind,
            front=router,
            publish=lambda delta, base, version: router.publish_delta(
                delta, base_version=base, version=version
            ),
        )
    if kind == "http":
        return _http_target(taxonomy, shards=shards, replicas=replicas,
                            port=port)
    raise WorkloadError(
        f"unknown target kind {kind!r}; known: {TARGET_KINDS}"
    )


def _http_target(taxonomy, *, shards: int, replicas: int, port: int) -> RunTarget:
    from repro.serving import TaxonomyClient

    tmp = tempfile.TemporaryDirectory(prefix="cn-probase-workload-")
    taxonomy_path = Path(tmp.name) / "serving.jsonl"
    taxonomy.save(taxonomy_path)
    admin_token = "workload-admin"
    stack = serve_subprocess(
        taxonomy_path,
        shards=shards,
        replicas=replicas,
        port=port,
        admin_token=admin_token,
    )
    try:
        url, process = stack.__enter__()
    except BaseException:
        tmp.cleanup()
        raise
    client = TaxonomyClient(url, admin_token=admin_token)

    def close() -> None:
        try:
            client.close()
            stack.__exit__(None, None, None)
        finally:
            tmp.cleanup()

    return RunTarget(
        name="http",
        front=client,
        publish=lambda delta, base, version: client.apply_delta_wire(
            delta,
            base_version=None if base is None else f"v{base}",
            version=version,
        ),
        close=close,
        gather_spans=lambda: client.fetch_traces()["spans"],
    )


READY_TIMEOUT_SECONDS = 30.0


@contextmanager
def serve_subprocess(
    taxonomy_path: str | Path,
    *,
    shards: int = 2,
    replicas: int = 1,
    port: int = 0,
    admin_token: str | None = None,
    timeout: float = READY_TIMEOUT_SECONDS,
):
    """A live ``cn-probase serve`` subprocess, ready and pid-validated.

    Yields ``(base_url, process)``; shuts the server down (kill as the
    fallback) on exit.  Readiness follows the ``--ready-file``
    protocol: the JSON marker is trusted only when its pid matches the
    subprocess actually spawned, so a stale file from a crashed
    predecessor never passes.
    """
    with tempfile.TemporaryDirectory(prefix="cn-probase-serve-") as tmp:
        ready_file = Path(tmp) / "ready.json"
        argv = [
            sys.executable, "-m", "repro.cli", "serve", str(taxonomy_path),
            "--shards", str(shards), "--replicas", str(replicas),
            "--port", str(port), "--ready-file", str(ready_file),
        ]
        if admin_token:
            argv += ["--admin-token", admin_token]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            yield _wait_for_ready(ready_file, process, timeout), process
        finally:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()


def _wait_for_ready(
    ready_file: Path, process: subprocess.Popen, timeout: float
) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise WorkloadError(
                f"cn-probase serve exited early with {process.returncode}:\n"
                f"{process.stdout.read()}"
            )
        if ready_file.exists():
            try:
                payload = json.loads(ready_file.read_text())
            except (ValueError, OSError):
                payload = None  # mid-write or garbage: keep waiting
            if isinstance(payload, dict) and payload.get("pid") == process.pid:
                return f"http://{payload['host']}:{payload['port']}"
        time.sleep(0.05)
    raise WorkloadError(f"cn-probase serve not ready within {timeout}s")
