"""End-to-end request tracing.

A trace id is minted once per sampled request -- by `TaxonomyClient`
or at the server front door -- and rides the ``X-Trace-Id`` header
across the wire.  Inside a process it propagates through a
`contextvars.ContextVar`, so thread pools and nested calls see the
active id without any plumbing through call signatures.  Each layer
that touches the request records a `Span` (component, operation,
duration, outcome, replica/shard identity, taxonomy version +
content-hash) into a bounded `TraceLog` ring with monotonic sequence
numbers.

Trace ids are minted without RNG or clock access (`TraceIdSource` is a
pair of monotonic counters), so traced runs stay byte-reproducible
under the package-wide determinism lint.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, asdict

from . import clock

__all__ = [
    "TRACE_HEADER", "current_trace_id", "trace_context",
    "TraceIdSource", "Span", "TraceLog",
]

#: Wire header carrying the trace id between client and server.
TRACE_HEADER = "X-Trace-Id"

_current: ContextVar[str | None] = ContextVar(
    "repro_obs_trace_id", default=None
)


def current_trace_id() -> str | None:
    """The trace id of the in-flight request, or None when untraced."""
    return _current.get()


@contextmanager
def trace_context(trace_id: str | None):
    """Bind *trace_id* as the active trace for the enclosed block."""
    token = _current.set(trace_id)
    try:
        yield trace_id
    finally:
        _current.reset(token)


_SOURCE_IDS = itertools.count(1)


class TraceIdSource:
    """Mints process-unique trace ids from two monotonic counters.

    No randomness, no clock: ids look like ``t3-000017`` (source
    number, then a per-source counter), which is all the uniqueness a
    process-local trace ring needs while staying reproducible run to
    run.
    """

    def __init__(self, prefix: str = "t"):
        self._prefix = f"{prefix}{next(_SOURCE_IDS)}"
        self._lock = threading.Lock()
        self._n = 0

    def mint(self) -> str:
        with self._lock:
            self._n += 1
            n = self._n
        return f"{self._prefix}-{n:06d}"


@dataclass(frozen=True)
class Span:
    """One component's slice of one traced request."""

    seq: int
    ts: float
    trace_id: str
    component: str
    operation: str
    seconds: float
    outcome: str = "ok"
    shard: int | None = None
    replica: int | None = None
    version: str | None = None
    content_hash: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


class TraceLog:
    """Bounded ring of spans; oldest-first eviction, monotonic seq."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._seq = 0

    def record(
        self,
        trace_id: str,
        component: str,
        operation: str,
        seconds: float,
        *,
        outcome: str = "ok",
        shard: int | None = None,
        replica: int | None = None,
        version: str | None = None,
        content_hash: str | None = None,
    ) -> Span:
        with self._lock:
            self._seq += 1
            span = Span(
                seq=self._seq,
                ts=clock.wall_time(),
                trace_id=trace_id,
                component=component,
                operation=operation,
                seconds=seconds,
                outcome=outcome,
                shard=shard,
                replica=replica,
                version=version,
                content_hash=content_hash,
            )
            self._spans.append(span)
            return span

    def spans(
        self, *, trace_id: str | None = None, limit: int | None = None
    ) -> list[Span]:
        """Retained spans oldest-first; *limit* keeps the newest N."""
        with self._lock:
            out = list(self._spans)
        if trace_id is not None:
            out = [span for span in out if span.trace_id == trace_id]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
