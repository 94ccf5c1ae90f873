"""One metrics registry for the whole system.

`MetricsRegistry` holds named counter / gauge / summary families (a
summary is a histogram-style metric reporting count / sum / max plus
reservoir-sampled quantiles, matching what `APILatency` already
exposes).  Families are created get-or-create by name, children
get-or-create by label set, and every read goes through one
`snapshot()` taken under the registry lock -- so a concurrent scraper
can never observe a torn view of related counters.

Besides directly-owned families, the registry accepts *collectors*:
pre-existing ledger objects (`ServiceMetrics`, `RouterStats`, ...) that
already keep their own locked counters.  A collector registers once
with a component name and a ``metric_samples()`` method; at snapshot
time the registry calls it and merges the result in, stamping each
sample with a ``component`` label.  Collectors are held by weakref so
registering a short-lived store or router never pins it alive, and
live collectors sharing a component name are disambiguated
deterministically (``store``, ``store#2``, ...) in registration order.

The same snapshot feeds both renderings -- ``as_dict()`` (the JSON
``/metrics`` payload) and ``render_text()`` (the Prometheus-style
exposition) -- so the two can never disagree about which metrics
exist.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable

COUNTER = "counter"
GAUGE = "gauge"
SUMMARY = "summary"

#: Quantiles every summary reports, matching ``APILatency``.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

#: Bounded per-child reservoir for summary quantiles.
RESERVOIR_SIZE = 2048

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelPairs:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One scalar sample of a counter or gauge family."""

    labels: LabelPairs
    value: float

    def as_dict(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


@dataclass(frozen=True)
class SummarySample:
    """One labelled summary: count / sum / max plus quantiles."""

    labels: LabelPairs
    count: int
    sum: float
    max: float
    quantiles: tuple[tuple[float, float], ...]

    def as_dict(self) -> dict:
        out = {
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
        }
        for q, value in self.quantiles:
            out[f"p{int(q * 100)}"] = value
        return out


@dataclass(frozen=True)
class MetricSnapshot:
    """A frozen view of one metric family at snapshot time."""

    name: str
    kind: str
    help: str
    samples: tuple[Sample | SummarySample, ...]

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [s.as_dict() for s in self.samples],
        }


class _Counter:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _Gauge:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _Summary:
    __slots__ = ("_lock", "_count", "_sum", "_max", "_reservoir")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._reservoir: deque[float] = deque(maxlen=RESERVOIR_SIZE)

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            self._reservoir.append(value)

    # lint: allow[lock-discipline] caller (the registry snapshot) holds the lock
    def _snapshot(self, labels: LabelPairs) -> SummarySample:
        # Caller holds the lock.
        return SummarySample(
            labels=labels,
            count=self._count,
            sum=self._sum,
            max=self._max,
            quantiles=summary_quantiles(self._reservoir),
        )


def summary_quantiles(
    values: Iterable[float],
    quantiles: tuple[float, ...] = SUMMARY_QUANTILES,
) -> tuple[tuple[float, float], ...]:
    """Nearest-rank quantiles of *values* as ``((q, value), ...)``.

    The value at rank ``ceil(q·n)`` (at least 1) of the sorted input,
    so the p50 of 1..100 is 50.  Sorts a copy, so a live reservoir can
    be passed directly; an empty input yields value 0.0 at every
    quantile.  Monotone in ``q`` by construction.
    """
    ordered = sorted(values)
    if not ordered:
        return tuple((q, 0.0) for q in quantiles)
    n = len(ordered)
    return tuple(
        (q, ordered[max(1, math.ceil(q * n)) - 1]) for q in quantiles
    )


_CHILD_TYPES = {COUNTER: _Counter, GAUGE: _Gauge, SUMMARY: _Summary}


class MetricFamily:
    """A named metric with one child per label set."""

    def __init__(self, name: str, kind: str, help: str, lock: threading.RLock):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind: {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._lock = lock
        self._children: dict[LabelPairs, _Counter | _Gauge | _Summary] = {}

    def labels(self, **labels: str):
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _CHILD_TYPES[self.kind](self._lock)
                self._children[key] = child
            return child

    # Label-less shortcuts so `registry.counter("x").inc()` reads well.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    # lint: allow[lock-discipline] caller (the registry snapshot) holds the lock
    def _snapshot(self) -> MetricSnapshot:
        # Caller holds the lock.
        samples: list[Sample | SummarySample] = []
        for key, child in self._children.items():
            if isinstance(child, _Summary):
                samples.append(child._snapshot(key))
            else:
                samples.append(Sample(labels=key, value=child.value))
        return MetricSnapshot(
            name=self.name, kind=self.kind, help=self.help,
            samples=tuple(samples),
        )


class _Collector:
    __slots__ = ("component", "ref", "method")

    def __init__(self, component: str, owner: object, method: str):
        self.component = component
        self.ref = weakref.ref(owner)
        self.method = method


class MetricsRegistry:
    """Thread-safe, process-local registry of metric families."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[_Collector] = []

    # -- direct families ---------------------------------------------------

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, COUNTER, help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, GAUGE, help)

    def summary(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, SUMMARY, help)

    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, self._lock)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind},"
                    f" not {kind}"
                )
            return family

    # -- collectors --------------------------------------------------------

    def register_collector(
        self, component: str, owner: object, method: str = "metric_samples"
    ) -> None:
        """Merge ``owner.metric_samples()`` into every future snapshot.

        *owner* is held by weakref; a dead collector silently drops out
        of the next snapshot.  Each emitted sample gains a
        ``component`` label; when several live collectors share
        *component* the later ones get ``#2``, ``#3``, ... suffixes in
        registration order.
        """
        if not getattr(owner, method, None):
            raise TypeError(
                f"collector for {component!r} has no {method}() method"
            )
        with self._lock:
            self._collectors.append(_Collector(component, owner, method))

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> tuple[MetricSnapshot, ...]:
        """A consistent view of every family, direct and collected."""
        with self._lock:
            merged: dict[str, MetricSnapshot] = {
                name: family._snapshot()
                for name, family in sorted(self._families.items())
            }
            live: list[tuple[str, object, str]] = []
            seen_components: dict[str, int] = {}
            kept: list[_Collector] = []
            for collector in self._collectors:
                owner = collector.ref()
                if owner is None:
                    continue  # prune the dead
                kept.append(collector)
                n = seen_components.get(collector.component, 0) + 1
                seen_components[collector.component] = n
                label = collector.component if n == 1 else (
                    f"{collector.component}#{n}"
                )
                live.append((label, owner, collector.method))
            self._collectors = kept
        # Collector calls happen outside our lock: each ledger takes its
        # own lock and must never wait on ours (lock-order safety).
        for label, owner, method in live:
            for snap in getattr(owner, method)():
                relabelled = MetricSnapshot(
                    name=snap.name, kind=snap.kind, help=snap.help,
                    samples=tuple(
                        _with_component(sample, label)
                        for sample in snap.samples
                    ),
                )
                existing = merged.get(snap.name)
                if existing is None:
                    merged[snap.name] = relabelled
                else:
                    merged[snap.name] = MetricSnapshot(
                        name=snap.name, kind=existing.kind,
                        help=existing.help or snap.help,
                        samples=existing.samples + relabelled.samples,
                    )
        return tuple(merged[name] for name in sorted(merged))

    def as_dict(self) -> dict:
        """JSON-shaped ``{name: {type, help, samples}}`` view."""
        return {snap.name: snap.as_dict() for snap in self.snapshot()}

    def render_text(self) -> str:
        """Prometheus-style text exposition of the current snapshot."""
        return render_text(self.snapshot())


def _with_component(sample, component: str):
    labels = (("component", component),) + tuple(
        pair for pair in sample.labels if pair[0] != "component"
    )
    labels = tuple(sorted(labels))
    if isinstance(sample, SummarySample):
        return SummarySample(
            labels=labels, count=sample.count, sum=sample.sum,
            max=sample.max, quantiles=sample.quantiles,
        )
    return Sample(labels=labels, value=sample.value)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_labels(labels: LabelPairs, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    return repr(float(value))


def render_text(snapshots: Iterable[MetricSnapshot]) -> str:
    """Render *snapshots* in the Prometheus text exposition format.

    Summaries expand to ``name{quantile=...}`` series plus
    ``name_sum`` / ``name_count`` / ``name_max``.
    """
    lines: list[str] = []
    for snap in snapshots:
        if snap.help:
            lines.append(f"# HELP {snap.name} {_escape(snap.help)}")
        lines.append(f"# TYPE {snap.name} {snap.kind}")
        for sample in snap.samples:
            if isinstance(sample, SummarySample):
                for q, value in sample.quantiles:
                    qlabel = (("quantile", format(q, "g")),)
                    lines.append(
                        f"{snap.name}{_format_labels(sample.labels, qlabel)}"
                        f" {_format_value(value)}"
                    )
                labels = _format_labels(sample.labels)
                lines.append(
                    f"{snap.name}_sum{labels} {_format_value(sample.sum)}"
                )
                lines.append(f"{snap.name}_count{labels} {sample.count}")
                lines.append(
                    f"{snap.name}_max{labels} {_format_value(sample.max)}"
                )
            else:
                lines.append(
                    f"{snap.name}{_format_labels(sample.labels)}"
                    f" {_format_value(sample.value)}"
                )
    return "\n".join(lines) + "\n"
