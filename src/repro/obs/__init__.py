"""`repro.obs` -- the observability spine.

One `TelemetryHub` bundles the three surfaces every component shares:

- :class:`~repro.obs.metrics.MetricsRegistry` -- named counters /
  gauges / summaries, absorbing every pre-existing ad-hoc ledger
  (`ServiceMetrics`, `RouterStats`, store swap stats, client
  retry/backoff counts, build stage timings) via weakref collectors;
- :class:`~repro.obs.trace.TraceLog` -- bounded ring of per-request
  spans, correlated by the ``X-Trace-Id`` minted at the client and
  propagated server -> router -> shard;
- :class:`~repro.obs.events.EventLog` -- append-only structured
  records of every serving-layer state change.

A process-global default hub (`get_hub`) keeps wiring zero-config;
components capture their hub at construction, so tests and benches
isolate themselves with `fresh_hub()`.
"""

from __future__ import annotations

from contextlib import contextmanager

from .clock import elapsed, wall_time
from .events import EventLog
from .metrics import (
    COUNTER,
    GAUGE,
    SUMMARY,
    MetricFamily,
    MetricSnapshot,
    MetricsRegistry,
    Sample,
    SummarySample,
    render_text,
    summary_quantiles,
)
from .trace import (
    TRACE_HEADER,
    Span,
    TraceIdSource,
    TraceLog,
    current_trace_id,
    trace_context,
)

__all__ = [
    "COUNTER", "GAUGE", "SUMMARY",
    "MetricFamily", "MetricSnapshot", "MetricsRegistry",
    "Sample", "SummarySample", "render_text", "summary_quantiles",
    "TRACE_HEADER", "Span", "TraceIdSource", "TraceLog",
    "current_trace_id", "trace_context",
    "EventLog", "TelemetryHub",
    "get_hub", "set_hub", "fresh_hub",
    "per_hop_breakdown", "elapsed", "wall_time",
]


class TelemetryHub:
    """Registry + trace ring + event log, bundled per process (or test)."""

    def __init__(self, *, trace_capacity: int = 4096,
                 event_capacity: int = 4096):
        self.registry = MetricsRegistry()
        self.traces = TraceLog(trace_capacity)
        self.events = EventLog(event_capacity)

    # Convenience pass-throughs so call sites read `hub.emit(...)`.
    def record_span(self, *args, **kwargs) -> Span:
        return self.traces.record(*args, **kwargs)

    def emit(self, kind: str, **fields) -> dict:
        return self.events.emit(kind, **fields)

    def record_stage_trace(self, trace, *, mode: str = "full") -> None:
        """Absorb a build's ``StageTrace`` into the registry.

        Duck-typed on purpose: ``trace.records`` yields objects with
        ``name`` / ``kind`` / ``seconds`` / ``count`` / ``ran``, and
        ``trace.total_seconds`` is the wall time of the whole build --
        exactly the `repro.core.stages.StageTrace` shape, without
        importing the build layer from here.  *mode* (``full`` or
        ``incremental``) labels the build counter and the end-to-end
        ``build_seconds`` summary.
        """
        stage_seconds = self.registry.gauge(
            "build_stage_seconds", "Seconds spent in each build stage"
        )
        stage_items = self.registry.gauge(
            "build_stage_items", "Items processed by each build stage"
        )
        for record in trace.records:
            if not getattr(record, "ran", True):
                continue
            labels = {"stage": record.name, "kind": record.kind}
            stage_seconds.labels(**labels).set(record.seconds)
            stage_items.labels(**labels).set(record.count)
        self.registry.counter(
            "builds_total", "Completed taxonomy builds"
        ).labels(mode=mode).inc()
        self.registry.summary(
            "build_seconds", "End-to-end build wall time"
        ).labels(mode=mode).observe(trace.total_seconds)


_default_hub = TelemetryHub()


def get_hub() -> TelemetryHub:
    """The process-global default hub."""
    return _default_hub


def set_hub(hub: TelemetryHub) -> TelemetryHub:
    """Swap the default hub; returns the previous one."""
    global _default_hub
    previous = _default_hub
    _default_hub = hub
    return previous


@contextmanager
def fresh_hub(**kwargs):
    """A scoped, isolated hub -- components built inside see only it."""
    hub = TelemetryHub(**kwargs)
    previous = set_hub(hub)
    try:
        yield hub
    finally:
        set_hub(previous)


def _span_field(span, name):
    if isinstance(span, dict):
        return span.get(name)
    return getattr(span, name, None)


def per_hop_breakdown(spans) -> dict:
    """Aggregate spans into per-component latency quantiles.

    Groups spans by trace id, sums seconds per component within each
    trace (a batch fanning out to several shards counts once, as the
    request experienced it), and reports count / p50 / p95 / p99 /
    mean seconds per component.  When a trace carries both a client
    and a server span, the difference lands as a derived ``wire`` hop
    -- the cost of the HTTP stack itself.  Accepts `Span` objects or
    their ``as_dict()`` form (the ``/admin/traces`` payload).
    """
    per_trace: dict[str, dict[str, float]] = {}
    for span in spans:
        trace_id = _span_field(span, "trace_id")
        component = _span_field(span, "component")
        seconds = _span_field(span, "seconds")
        if not trace_id or not component or seconds is None:
            continue
        hops = per_trace.setdefault(trace_id, {})
        hops[component] = hops.get(component, 0.0) + float(seconds)
    by_component: dict[str, list[float]] = {}
    for hops in per_trace.values():
        client = hops.get("client")
        server = hops.get("server")
        if client is not None and server is not None:
            hops = {**hops, "wire": max(0.0, client - server)}
        for component, seconds in hops.items():
            by_component.setdefault(component, []).append(seconds)
    out: dict[str, dict] = {}
    for component in sorted(by_component):
        values = by_component[component]
        quantiles = summary_quantiles(values)
        entry = {"count": len(values),
                 "mean_s": sum(values) / len(values)}
        for q, value in quantiles:
            entry[f"p{int(q * 100)}_s"] = value
        out[component] = entry
    return out
