"""Shared pieces of the benchmark: seeded inputs, fingerprints, probes, stats.

Everything the program is fed is generated here from the workload seed
by the program's own generators (``WorldSpec``, ``churned_dump``,
``TableIICallStream``), and hashed into a fingerprint so two results can
be refused as incomparable when their inputs differ.  The load itself
(pacing, batching, timing) belongs to the benchmark, not to
``repro.workloads``, so a change to the program's load library cannot
move a measurement.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run (taxonomy files, ready-files) and the
#: result records runs leave behind; git-ignored.
OUT = ROOT / ".perfbench"

from repro.core.pipeline import (  # noqa: E402  (SRC is on sys.path)
    CNProbaseBuilder,
    PipelineConfig,
    PreviousBuild,
    ResourceCache,
)
from repro.eval.metrics import make_oracle, relation_precision  # noqa: E402
from repro.taxonomy.service import WIRE_API_METHODS  # noqa: E402
from repro.workloads.sampling import (  # noqa: E402
    ArgumentPools,
    TableIICallStream,
)
from repro.workloads.spec import WorldSpec  # noqa: E402

#: wire api → single / batch method of every serving front; the single
#: names are also ``ReadOptimizedTaxonomy``'s lookups.
SINGLE = {api: single for api, (single, _) in WIRE_API_METHODS.items()}
BATCH = {api: batch for api, (_, batch) in WIRE_API_METHODS.items()}
#: share of day-0 pages the nightly model changes for day 1
CHURN_RATE = 0.02
BATCH_SIZE = 64


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; tests use a tiny one."""

    entities: int = 6000
    calls: int = 20_000
    setups: int = 3
    ladder_singles: int = 2000
    ladder_batches: int = 150
    ladder_publishes: int = 60
    service_publishes: int = 4


FULL = Scale()


def build_config() -> PipelineConfig:
    """The bench build: every source but the neural ``abstract`` one."""
    return PipelineConfig(enable_abstract=False)


# -- inputs --------------------------------------------------------------------


def make_world(scale: Scale, seed: int):
    return WorldSpec(n_entities=scale.entities).build_world(seed)


def make_day1(scale: Scale, world, seed: int, variant: int = 0):
    """The nightly model: 2 % of pages gain a tag and a line.

    *variant* picks another night's churn of the same world.
    """
    spec = WorldSpec(n_entities=scale.entities, churn_rate=CHURN_RATE)
    return spec.churned_dump(world, seed + 1 + variant)


def make_calls(scale: Scale, world, seed: int) -> list[tuple[str, str]]:
    """The Table-II read stream: (api, argument) pairs, uniform keys,
    5 % unknown mentions."""
    stream = TableIICallStream(ArgumentPools.from_world(world), seed=seed)
    return [(c.api, c.argument) for c in stream.generate(scale.calls)]


def make_batches(
    calls: list[tuple[str, str]]
) -> list[tuple[str, tuple[str, ...]]]:
    """Consecutive calls of one API grouped into full 64-key batches."""
    pending: dict[str, list[str]] = {}
    batches = []
    for api, argument in calls:
        group = pending.setdefault(api, [])
        group.append(argument)
        if len(group) == BATCH_SIZE:
            batches.append((api, tuple(group)))
            pending[api] = []
    return batches


class RecordingCache(ResourceCache):
    """A ``ResourceCache`` that remembers the last entry put into it.

    The nightly process that built day 0 still holds day 0's shared
    resources when it rebuilds day 1; :func:`warm_cache` recreates
    exactly that state for every rebuild, so no rebuild can hit an entry
    a previous repetition left behind.
    """

    last: tuple | None = None

    def put(self, key, resources) -> None:
        super().put(key, resources)
        self.last = (key, resources)


def warm_cache(entry: tuple) -> ResourceCache:
    cache = ResourceCache()
    cache.put(*entry)
    return cache


def build_cold(dump, registry=None):
    """A full build on a fresh resource cache (never a cache hit)."""
    cache = RecordingCache()
    builder = CNProbaseBuilder(
        build_config(), registry=registry, resource_cache=cache
    )
    return builder.build(dump), cache.last


def build_warm(dump, previous: PreviousBuild, entry: tuple, registry=None):
    """``build_incremental`` as a warm nightly process runs it."""
    builder = CNProbaseBuilder(
        build_config(), registry=registry, resource_cache=warm_cache(entry)
    )
    return builder.build_incremental(dump, previous)


def quality(world, taxonomy) -> tuple[float, int]:
    """(precision, correct relations) by exhaustive oracle labelling."""
    estimate = relation_precision(taxonomy.relations(), make_oracle(world))
    return estimate.precision, estimate.n_correct


def lookup(view, api: str, argument: str) -> list[str]:
    return getattr(view, SINGLE[api])(argument)


def taxonomy_bytes(taxonomy, path: Path) -> bytes:
    """What ``Taxonomy.save`` writes, read back."""
    taxonomy.save(path)
    return path.read_bytes()


# -- fingerprints --------------------------------------------------------------


def sha256_text(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def calls_digest(calls) -> str:
    return sha256_text(f"{api}\t{argument}" for api, argument in calls)


def delta_digest(delta) -> str:
    return sha256_text([json.dumps(delta.to_wire(), sort_keys=True,
                                   ensure_ascii=False)])


def fingerprint(parts: dict[str, str]) -> dict[str, str]:
    """Per-input digests plus one combined id over all of them."""
    combined = sha256_text(f"{k}={v}" for k, v in sorted(parts.items()))
    return {**parts, "combined": combined}


# -- process probes ------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu(pid: int) -> tuple[float, float]:
    """(user, system) CPU seconds of every thread of process *pid*."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / CLOCK_TICKS, int(fields[12]) / CLOCK_TICKS


def rss_mb(pid: int | None = None) -> float:
    """Current resident set size of *pid* (default: this process)."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmRSS in {path}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # guest time is already inside user; count it once
    total = sum(fields[:8])
    steal = fields[7] if len(fields) > 7 else 0
    return steal, total


def steal_pct(start: tuple[int, int], end: tuple[int, int]) -> float:
    total = end[1] - start[1]
    return 100.0 * (end[0] - start[0]) / total if total else 0.0


#: Thread-CPU milliseconds the speed probe takes on the reference
#: machine; calibrated times are scaled to that speed.
REFERENCE_PROBE_MS = 5.0


#: iterations of the probe loop the reference is stated for
PROBE_ITERATIONS = 20_000


def speed_probe_ms(iterations: int = PROBE_ITERATIONS) -> float:
    """Thread-CPU milliseconds of a fixed pure-Python workload, scaled
    to :data:`PROBE_ITERATIONS` iterations.

    Thread CPU time leaves out steal and waits for the interpreter
    lock, so the reading is the speed this CPU executes Python at right
    now.  On a shared 2-vCPU VM that speed flips between two states
    about 1.9x apart, second by second, and stays in one of them for
    minutes at a time — an effect steal does not show.
    """
    start = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len((i, key))
    return (time.thread_time() - start) * 1e3 * PROBE_ITERATIONS / iterations


#: in-operation sampling: one short probe per this much CPU time
SAMPLE_EVERY_S = 0.1
SAMPLE_ITERATIONS = 4_000


@dataclass
class Paused:
    """Time the in-operation probes took: wall and thread-CPU seconds."""

    wall: float = 0.0
    cpu: float = 0.0


class SpeedClock:
    """Timestamped speed-probe readings taken through a run.

    Each timed operation is scaled to the reference speed by the
    readings around it: ``calibrate(seconds, start, end)`` multiplies
    by ``REFERENCE_PROBE_MS / mean(readings)`` over the readings inside
    ``[start, end]`` plus the nearest one on either side.  A program
    change moves the operation and not the probe, so it shows in full;
    a change in machine speed moves both, and cancels.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []
        # re-entrant: the sampling signal handler records on the main
        # thread, which may be recording already
        self._lock = threading.RLock()

    def probe(self, repeats: int = 3,
              iterations: int = PROBE_ITERATIONS) -> None:
        """Record the median of *repeats* probes, stamped now."""
        values = sorted(speed_probe_ms(iterations) for _ in range(repeats))
        self._record(values[len(values) // 2])

    def _record(self, reading: float) -> None:
        with self._lock:
            self.times.append(time.perf_counter())
            self.readings.append(reading)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every :data:`SAMPLE_EVERY_S` of CPU while the block runs.

        For long operations on the main thread (builds): a virtual-time
        timer interrupts the operation, and the handler runs a short
        probe, so the readings follow speed changes inside it.  Yields
        a :class:`Paused` whose ``wall``/``cpu`` totals are the probes'
        own cost, for the caller to take off the operation's time.
        """
        paused = Paused()

        def handler(signum, frame) -> None:
            start, cpu = time.perf_counter(), time.thread_time()
            self._record(speed_probe_ms(SAMPLE_ITERATIONS))
            paused.wall += time.perf_counter() - start
            paused.cpu += time.thread_time() - cpu

        previous = signal.signal(signal.SIGVTALRM, handler)
        signal.setitimer(
            signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S
        )
        try:
            yield paused
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    @contextlib.contextmanager
    def background(self):
        """Probe every :data:`SAMPLE_EVERY_S` from a thread while the
        block runs: for load whose threads mostly wait on sockets, where
        a short probe delays little."""
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(SAMPLE_EVERY_S):
                self._record(speed_probe_ms(SAMPLE_ITERATIONS))

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self, start: float, end: float) -> float:
        with self._lock:
            first = max(0, bisect.bisect_left(self.times, start) - 1)
            last = bisect.bisect_right(self.times, end) + 1
            around = self.readings[first:last]
        return REFERENCE_PROBE_MS / (sum(around) / len(around))

    def calibrate(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.scale(start, end)

    def summary(self) -> dict:
        return {
            "readings": len(self.readings),
            "mean_ms": sum(self.readings) / len(self.readings),
            "min_ms": min(self.readings),
            "max_ms": max(self.readings),
        }


def run_context() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- the server subprocess -----------------------------------------------------


class ServerProcess:
    """``cn-probase serve`` in a subprocess, stopped by :meth:`stop`."""

    TOKEN = "perfbench"

    def __init__(self, taxonomy_path: Path, workdir: Path,
                 *, shards: int = 2, replicas: int = 2) -> None:
        stamp = time.monotonic_ns()
        ready = workdir / f"ready-{stamp}.json"
        log = workdir / f"server-{stamp}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # output goes to a file: a pipe nobody drains would stall a
        # server that logs
        with open(log, "wb") as output:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 str(taxonomy_path), "--shards", str(shards),
                 "--replicas", str(replicas), "--port", "0",
                 "--admin-token", self.TOKEN, "--ready-file", str(ready)],
                env=env, cwd=str(ROOT), stdout=output,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while not (ready.exists() and ready.stat().st_size):
            if self.process.poll() is not None:
                output = log.read_text(encoding="utf-8", errors="replace")
                raise RuntimeError(f"server exited during start:\n{output}")
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server not ready after 60 s")
            time.sleep(0.01)
        info = json.loads(ready.read_text(encoding="utf-8"))
        self.pid = self.process.pid
        self.url = f"http://{info['host']}:{info['port']}"

    def stop(self) -> None:
        """SIGTERM (the serve loop exits cleanly), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)


# -- statistics ----------------------------------------------------------------


def ranked(values, q: float, failed: int = 0) -> float:
    """Nearest-rank quantile where each failed operation counts as the
    slowest one.

    A failure has no latency of its own; it ranks above every measured
    value.  Should the rank land on a failure, the slowest measured value
    stands in (the run is marked incorrect either way).
    """
    ordered = sorted(values) + [math.inf] * failed
    if not ordered:
        raise ValueError("quantile of an empty sample")
    value = ordered[max(1, math.ceil(q * len(ordered))) - 1]
    if math.isinf(value):
        return ordered[len(values) - 1] if values else 0.0
    return value


def latency_summary(values, failed: int = 0) -> dict:
    """Median and p99 (failures as slowest) with the sample count."""
    return {
        "p50": ranked(values, 0.50, failed),
        "p99": ranked(values, 0.99, failed),
        "n": len(values) + failed,
        "failed": failed,
    }
