"""The structured event log.

Every *state change* in the serving layer -- publishes, delta
conflicts and merges, resyncs, heals, swaps, replica health
transitions -- lands here as one append-only JSON-shaped record with a
monotonic sequence number.  It is the one record of the router's
per-replica publish outcomes (``publish_outcome``) and probe-time
resyncs (``resync``); read it with ``cn-probase obs tail`` or
``GET /admin/events``.

The ring is bounded: eviction is strictly oldest-first, and within the
retained window sequence numbers are contiguous by construction (one
lock, one counter, one append).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import TelemetryError

from . import clock

__all__ = ["EventLog"]


class EventLog:
    """Bounded append-only log of structured event records."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: deque[dict] = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, kind: str, **fields) -> dict:
        """Append one event; returns a copy of the stored record."""
        for reserved in ("seq", "ts", "kind"):
            if reserved in fields:
                raise TelemetryError(f"field {reserved!r} is reserved")
        with self._lock:
            self._seq += 1
            record = {"seq": self._seq, "ts": clock.wall_time(),
                      "kind": kind, **fields}
            self._records.append(record)
        return dict(record)

    def records(
        self,
        *,
        since: int = 0,
        kind: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Retained records oldest-first, as copies.

        *since* keeps records with ``seq > since`` (the cursor shape
        ``obs tail`` polls with); *kind* filters by event kind; *limit*
        keeps the newest N after filtering.
        """
        with self._lock:
            out = [dict(r) for r in self._records]
        if since:
            out = [r for r in out if r["seq"] > since]
        if kind is not None:
            out = [r for r in out if r["kind"] == kind]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
