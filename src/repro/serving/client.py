"""`TaxonomyClient` — the keep-alive SDK for the serving cluster.

The client exposes the same canonical
:class:`~repro.taxonomy.service.BatchedServingAPI` surface as the
in-process store, so anything written against
:class:`~repro.serving.sharding.ShardedSnapshotStore` — including
:func:`~repro.workloads.sampling.replay_calls` — drives a remote
cluster unchanged.  Singles go over
``GET /v1/{api}?q=...``, batches over ``POST /v1/{api}``; transient
transport failures and 5xx responses are retried with capped, jittered
exponential backoff (seeded, so retry schedules are reproducible),
while 4xx responses surface immediately as :class:`APIError` (the
server already rejected the request; resending it cannot help).

The transport is a pool of persistent ``http.client`` connections
(HTTP/1.1 keep-alive), shared by every thread using the client: a
call takes an idle connection, or opens one, and returns it once the
response body is read, so the pool grows to the peak number of calls
in flight.  An idle connection the server has closed is replaced
before the call, which is therefore not a retry.  Each pooled
connection holds a server thread, so :meth:`TaxonomyClient.close` (or
a ``with`` block) ends them.  Unlike the urllib transport it replaced,
the client does not honour the ``*_proxy`` environment variables: it
always connects straight to *base_url*.

``http.client`` only connects (the HTTPS wrap, the timeout and
``TCP_NODELAY`` stay its ``connect()``).  The client writes each
request itself, head and body in one ``sendall``, with the bytes
``HTTPConnection.request`` would write, and reads each response off the
socket itself: the status line, then ``Content-Length`` and
``Connection`` out of the head, under ``http.client``'s bounds (a
65,536-byte line, 100 header lines), without the ``email`` parser
``getresponse`` runs on every head.  A connection goes back to the
pool only when its body was read in full, the response keeps it open
and no byte past the body arrived with it.  A head the reader cannot
trust (no status line, a bad one, an over-long head, a bad
``Content-Length``, any ``Transfer-Encoding``) or a body cut short is a
transport error, retried like a reset.  A request the wire cannot
carry (a target with a space, a control character or a non-ASCII
character; a header value with CR or LF) is refused with
:class:`~repro.errors.APIError` before the first attempt: nothing is
sent, counted or retried.

The client keeps its own :class:`ServiceMetrics` ledger of end-to-end
(wire-inclusive) latencies, which is what ``replay_calls`` returns
when driven with a client, plus a :class:`ClientWireStats`
retry/backoff ledger registered with the telemetry hub.  With
``trace_every=N`` the client mints an ``X-Trace-Id`` for every Nth
call (or propagates the ambient trace context) so a slow wire call can
be correlated with the server / router / shard spans that served it.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import threading
import time
import urllib.parse
from random import Random
from typing import Sequence

from repro.errors import APIError, DeltaConflictError
from repro.obs import (
    TRACE_HEADER,
    TraceIdSource,
    current_trace_id,
    get_hub,
)
from repro.obs.metrics import MetricSnapshot, Sample
from repro.serving.server import MAX_HEAD_LINES, MAX_LINE
from repro.taxonomy.service import (
    PROBE_KEY,
    WIRE_API_METHODS,
    BatchedServingAPI,
    ServiceMetrics,
)

#: wire api names, in the order the paper lists them (Table II)
WIRE_API_NAMES = tuple(WIRE_API_METHODS)

#: the connection class for each URL scheme the client speaks
_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

#: what a failed round trip raises: socket errors and timeouts, or a
#: broken HTTP exchange (bad status line, body cut short)
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: the most one ``recv`` asks for
_RECV_BYTES = 65536

#: finds what a request target may not hold: anything but visible
#: ASCII, i.e. what ``http.client`` refuses (controls, space) or fails
#: to encode
_BAD_TARGET = re.compile(r"[^\x21-\x7e]").search

#: finds what no header value may hold: a line break, or a character
#: that does not encode as Latin-1
_BAD_HEADER_VALUE = re.compile(r"[\r\n]|[^\x00-\xff]").search

#: the ``Content-Type`` line of every call but the text ``/metrics``
_JSON_CONTENT_TYPE = ("Content-Type", "application/json; charset=utf-8")


def _hung_up(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection's socket has something to read.

    Between responses the server has nothing to say, so readable means
    it closed the connection (EOF) or reset it.  ``poll``, not
    ``select.select``, which fails on descriptors >= 1024.
    """
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    return bool(poller.poll(0))


def _host_field(connection: http.client.HTTPConnection) -> str:
    """The ``Host`` value ``putrequest`` writes for *connection*.

    The host as ASCII (IDNA if it is not), in brackets if it is an
    IPv6 address, and ``:port`` only off the scheme's default port.
    """
    host, port = connection.host, connection.port
    try:
        host = host.encode("ascii").decode("ascii")
    except UnicodeEncodeError:
        host = host.encode("idna").decode("ascii")
    if ":" in host:
        host = f"[{host}]"
    return host if port == connection.default_port else f"{host}:{port}"


def _read_response(sock) -> tuple[int, str, bytes, bool]:
    """One response off *sock*: ``(status, reason, body, reusable)``.

    The status line is split as ``http.client`` splits it; of the
    header lines only ``Content-Length`` and ``Connection`` count, and
    any ``Transfer-Encoding`` is refused (the server never sends one).
    The body is exactly ``Content-Length`` bytes, or, without one,
    everything up to EOF.  The connection closes as ``http.client``
    decides (HTTP/1.1 on ``Connection: close``, HTTP/1.0 unless kept
    alive, and without a length), and *reusable* is also false when a
    byte past the body arrived with it: that byte belongs to no
    request this client sent.  Every refusal is an ``HTTPException``.
    """
    recv = sock.recv
    data = recv(_RECV_BYTES)
    end = data.find(b"\r\n\r\n")
    while end < 0:
        if not data:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response"
            )
        if data.count(b"\n") > MAX_HEAD_LINES:
            raise http.client.HTTPException(
                f"got more than {MAX_HEAD_LINES} headers"
            )
        if len(data) - data.rfind(b"\n") - 1 > MAX_LINE:
            raise http.client.LineTooLong("response head line")
        more = recv(_RECV_BYTES)
        if not more:
            raise http.client.HTTPException(
                "connection closed inside the response head"
            )
        # resume the search where a terminator split across the two
        # pieces could begin; a negative start would count from the end
        resume = max(0, len(data) - 3)
        data += more
        end = data.find(b"\r\n\r\n", resume)
    lines = data[:end].split(b"\r\n")
    # the status line, then header lines: with the blank one, at most
    # MAX_HEAD_LINES
    if len(lines) > MAX_HEAD_LINES:
        raise http.client.HTTPException(
            f"got more than {MAX_HEAD_LINES} headers"
        )
    if end + 2 > MAX_LINE and max(map(len, lines)) + 2 > MAX_LINE:
        raise http.client.LineTooLong("response head line")

    status_line = str(lines[0], "iso-8859-1")
    words = status_line.split(None, 2)
    if len(words) == 2:
        words.append("")
    if len(words) != 3:
        raise http.client.BadStatusLine(status_line)
    version, status, reason = words
    if not (
        version.startswith("HTTP/") and len(status) == 3
        and status.isdecimal() and status[0] != "0"
    ):
        raise http.client.BadStatusLine(status_line)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http_10 = True
    elif version.startswith("HTTP/1."):
        http_10 = False
    else:
        raise http.client.UnknownProtocol(version)

    length = connection = None
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if not colon:
            raise http.client.HTTPException(f"bad header line {line!r}")
        name = name.lower()
        if name == b"content-length":
            value = value.strip(b" \t")
            if length is not None or not value.isdigit():
                raise http.client.HTTPException(
                    f"bad Content-Length {value!r}"
                )
            length = int(value)
        elif name == b"connection":
            if connection is None:  # the first one counts, as in email
                connection = value.lower()
        elif name == b"transfer-encoding":
            raise http.client.HTTPException(
                f"unsupported Transfer-Encoding {value.strip()!r}"
            )
    if http_10:
        will_close = connection is None or b"keep-alive" not in connection
    else:
        will_close = connection is not None and b"close" in connection

    start = end + 4
    if length is None:  # the body runs to EOF, and so does the connection
        pieces = [data[start:]]
        while piece := recv(_RECV_BYTES):
            pieces.append(piece)
        return int(status), reason.strip(), b"".join(pieces), False
    stop = start + length
    body = data[start:stop]
    if len(body) < length:
        pieces = [body]
        missing = length - len(body)
        while missing:
            # never past the body: a stray byte after it stays in the
            # socket, where the next checkout's ``_hung_up`` sees it
            piece = recv(min(missing, _RECV_BYTES))
            if not piece:
                raise http.client.IncompleteRead(b"".join(pieces), missing)
            pieces.append(piece)
            missing -= len(piece)
        body = b"".join(pieces)
    elif len(data) > stop:  # bytes past the body
        will_close = True
    return int(status), reason.strip(), body, not will_close


class ClientWireStats:
    """The client's transport ledger: requests, retries, backoff.

    Lock-protected like every ledger the registry collects, and
    registered under component ``client`` so retry storms and backoff
    stalls show up next to the serving metrics they explain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.retries = 0
        self.backoff_seconds = 0.0
        self.failures = 0
        self.conflicts = 0

    def observe_request(self) -> None:
        with self._lock:
            self.requests += 1

    def observe_retry(self, backoff_seconds: float) -> None:
        with self._lock:
            self.retries += 1
            self.backoff_seconds += backoff_seconds

    def observe_failure(self) -> None:
        with self._lock:
            self.failures += 1

    def observe_conflict(self) -> None:
        with self._lock:
            self.conflicts += 1

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "retries": self.retries,
                "backoff_seconds": self.backoff_seconds,
                "failures": self.failures,
                "conflicts": self.conflicts,
            }

    def metric_samples(self) -> list[MetricSnapshot]:
        with self._lock:
            counters = (
                ("client_requests_total",
                 "Wire round trips attempted", float(self.requests)),
                ("client_retries_total",
                 "Retried wire round trips", float(self.retries)),
                ("client_backoff_seconds_total",
                 "Cumulative retry backoff slept", self.backoff_seconds),
                ("client_request_failures_total",
                 "Requests exhausted without a response",
                 float(self.failures)),
                ("client_conflicts_total",
                 "409 version-handshake refusals", float(self.conflicts)),
            )
        return [
            MetricSnapshot(name, "counter", help, (Sample((), value),))
            for name, help, value in counters
        ]


class TaxonomyClient(BatchedServingAPI):
    """Small SDK over the cluster's JSON wire format."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        backoff_cap_seconds: float = 1.0,
        jitter_seed: int | None = None,
        admin_token: str | None = None,
        trace_every: int = 0,
        hub=None,
    ) -> None:
        if retries < 0:
            raise APIError(f"retries must be >= 0, got {retries}")
        if trace_every < 0:
            raise APIError(f"trace_every must be >= 0, got {trace_every}")
        if backoff_cap_seconds < backoff_seconds:
            raise APIError(
                f"backoff_cap_seconds ({backoff_cap_seconds}) must be >= "
                f"backoff_seconds ({backoff_seconds})"
            )
        if admin_token is not None and _BAD_HEADER_VALUE(admin_token):
            raise APIError(
                "admin_token must hold no CR or LF and only Latin-1 "
                "characters"
            )
        self._base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self._base_url)
        self._connection_class = _CONNECTION_CLASSES.get(parts.scheme)
        if self._connection_class is None or not parts.netloc:
            raise APIError(
                f"base_url must be an http:// or https:// URL, "
                f"got {base_url!r}"
            )
        self._netloc = parts.netloc
        self._path_prefix = parts.path
        try:  # the stdlib's host and port parse, checked once, here
            host = _host_field(self._connection_class(self._netloc))
        except (http.client.InvalidURL, UnicodeError) as exc:
            raise APIError(f"base_url {base_url!r}: {exc}") from exc
        #: the fields after the request line that every request carries
        self._host_fields = (
            f"Host: {host}\r\nAccept-Encoding: identity\r\n"
        )
        #: idle keep-alive connections, most recently used last
        self._idle: list[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._timeout = timeout
        self._retries = retries
        self._backoff_seconds = backoff_seconds
        self._backoff_cap_seconds = backoff_cap_seconds
        # Seeded jitter: retries back off exponentially (doubling per
        # attempt, capped) with a multiplicative [0.5, 1.0) spread so a
        # herd of clients retrying the same blip fans out instead of
        # stampeding in lockstep — and a fixed seed keeps any one
        # client's schedule reproducible run to run.
        self._rng = Random(jitter_seed)
        self._admin_token = admin_token
        self.metrics = ServiceMetrics()
        self.wire_stats = ClientWireStats()
        self._hub = hub if hub is not None else get_hub()
        self._hub.registry.register_collector("client", self)
        #: Sample every Nth serving call into a trace (0 = off).  An
        #: ambient trace context always propagates regardless.
        self._trace_every = trace_every
        self._trace_source = TraceIdSource("c")
        self._sample_lock = threading.Lock()
        self._calls_seen = 0

    def metric_samples(self) -> list[MetricSnapshot]:
        """Registry collector hook: wire transport + serving ledgers."""
        return (
            self.wire_stats.metric_samples()
            + self.metrics.metric_samples()
        )

    def _trace_id_for(self, argument: str | None) -> str | None:
        """The trace id this call should carry, minting when sampled.

        An ambient trace context (a caller wrapping its calls in
        ``trace_context``) always wins — the minting counter doesn't advance, so
        sampling cadence is driven by untraced calls only.  Probes are
        never traced.
        """
        if argument == PROBE_KEY:
            return None
        ambient = current_trace_id()
        if ambient is not None:
            return ambient
        if not self._trace_every:
            return None
        with self._sample_lock:
            self._calls_seen += 1
            sampled = (self._calls_seen - 1) % self._trace_every == 0
        return self._trace_source.mint() if sampled else None

    # -- transport -------------------------------------------------------------

    def close(self) -> None:
        """Close every idle pooled connection.

        Each one holds a server thread until it closes.  The client
        stays usable: a later call opens a new connection.
        """
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "TaxonomyClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        """The most recently used idle connection, else a new one.

        Idle connections the server has hung up on are closed and
        skipped here, before the caller's attempt begins: a server
        restart costs no retry, and an admin mutation (one attempt,
        never resent) is not spent on a dead connection.  A new
        connection connects in ``_round_trip``, through
        ``HTTPConnection.connect``.
        """
        while True:
            with self._pool_lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not _hung_up(connection):
                return connection
            connection.close()
        return self._connection_class(self._netloc, timeout=self._timeout)

    def _encode_request(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: Sequence[tuple[str, str]],
    ) -> bytes:
        """The request's bytes, head and body, as one buffer.

        They are the bytes ``HTTPConnection.request`` writes for the
        same call: the request line, ``Host``, ``Accept-Encoding:
        identity``, ``Content-Length`` when there is a body, then
        *headers* in order.  A target or header value the wire cannot
        carry raises :class:`APIError`.
        """
        target = self._path_prefix + path
        if _BAD_TARGET(target):
            raise APIError(
                f"{target!r}: a request target takes visible ASCII only, "
                "with no space or control character"
            )
        head = f"{method} {target} HTTP/1.1\r\n{self._host_fields}"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        for name, value in headers:
            if _BAD_HEADER_VALUE(value):
                raise APIError(
                    f"{path}: the {name} header must hold no CR or LF and "
                    "only Latin-1 characters"
                )
            head += f"{name}: {value}\r\n"
        request = (head + "\r\n").encode("latin-1")
        return request if body is None else request + body

    def _round_trip(self, request: bytes) -> tuple[int, str, bytes]:
        """One HTTP exchange: ``(status, reason, body)``, body fully read.

        The one place a request meets the wire: *request* goes out in
        one ``sendall`` and :func:`_read_response` reads the answer.
        The connection goes back to the pool only after a complete
        response that keeps it open and left nothing unread.  On any
        exception, a timeout included, it is closed instead, since its
        stream position is unknown, and the exception propagates (see
        ``_TRANSPORT_ERRORS``).
        """
        connection = self._connection()
        try:
            if connection.sock is None:
                connection.connect()
            connection.sock.sendall(request)
            status, reason, payload, reusable = _read_response(
                connection.sock
            )
        except BaseException:
            connection.close()
            raise
        if reusable:
            with self._pool_lock:
                self._idle.append(connection)
        else:
            connection.close()
        return status, reason, payload

    def _request(
        self,
        path: str,
        *,
        body: dict | None = None,
        admin: bool = False,
        idempotent: bool = True,
        degraded_ok: bool = False,
        trace_id: str | None = None,
    ) -> dict:
        """One JSON round trip with bounded retries.

        Retries cover connection errors and 5xx (the replica/router
        layer may have failed over by the next attempt); 4xx raise
        immediately with the server's error message.  Non-idempotent
        calls (admin mutations like swap) are never resent: a timeout
        after the server already acted would otherwise repeat the
        action.  With ``degraded_ok`` a non-2xx JSON body that is a
        status report rather than an error (the 503 ``/healthz``
        answers when a shard has no healthy replicas) is returned
        instead of retried — health callers want to *read* that state,
        not throw on it.  A request the wire cannot carry raises
        :class:`APIError` before the first attempt.
        """
        headers = [_JSON_CONTENT_TYPE]
        if trace_id is not None:
            headers.append((TRACE_HEADER, trace_id))
        if admin:
            if self._admin_token is None:
                raise APIError(
                    "admin call needs a client constructed with admin_token"
                )
            headers.append(("Authorization", f"Bearer {self._admin_token}"))
        data = (
            json.dumps(body, ensure_ascii=False).encode("utf-8")
            if body is not None
            else None
        )
        request = self._encode_request(
            "POST" if data is not None else "GET", path, data, headers
        )
        attempts = (self._retries + 1) if idempotent else 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                backoff = min(
                    self._backoff_cap_seconds,
                    self._backoff_seconds * (2 ** (attempt - 1)),
                )
                slept = backoff * (0.5 + 0.5 * self._rng.random())
                self.wire_stats.observe_retry(slept)
                time.sleep(slept)
            self.wire_stats.observe_request()
            try:
                status, reason, raw = self._round_trip(request)
            except _TRANSPORT_ERRORS as exc:
                last_error = exc
                continue
            if 200 <= status < 300:
                return json.loads(raw.decode("utf-8"))
            payload = self._error_payload(raw, reason)
            if degraded_ok and "error" not in payload:
                return payload  # a status report, not a failure
            detail = payload.get("error", payload.get("_raw", reason))
            if status == 409:  # version handshake refused the write
                self.wire_stats.observe_conflict()
                raise DeltaConflictError(
                    f"{path}: HTTP 409: {detail}",
                    server_version=payload.get("version"),
                    server_content_hash=payload.get("content_hash"),
                )
            if status < 500:  # the server meant it: don't retry
                raise APIError(f"{path}: HTTP {status}: {detail}")
            last_error = APIError(f"{path}: HTTP {status}: {detail}")
        self.wire_stats.observe_failure()
        raise APIError(
            f"{path}: no response after {attempts} attempts: {last_error}"
        ) from last_error

    @staticmethod
    def _error_payload(raw: bytes, reason: str) -> dict:
        """The JSON body of a non-2xx response, if it has one."""
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            return {"_raw": reason}
        if isinstance(payload, dict):
            return payload
        return {"_raw": str(payload)}

    # -- serving hooks (BatchedServingAPI) -------------------------------------

    def _single(self, api_name: str, argument: str) -> list[str]:
        return self.query(api_name, argument)["results"]

    def query(self, api_name: str, argument: str) -> dict:
        """One single read's whole response: its ``results`` list and
        the ``version`` that answered it (``api_name`` is a wire name,
        e.g. ``"getConcept"``).  The singles return just the results.
        """
        query = urllib.parse.quote_plus(argument)  # urlencode's bytes
        trace_id = self._trace_id_for(argument)
        started = time.perf_counter()
        payload = self._request(f"/v1/{api_name}?q={query}", trace_id=trace_id)
        results = payload.get("results")
        if not isinstance(results, list):
            raise APIError(f"{api_name}: malformed response {payload!r}")
        elapsed = time.perf_counter() - started
        if argument != PROBE_KEY:  # probes stay out of the ledgers
            self.metrics.observe(api_name, elapsed, bool(results))
        if trace_id is not None:
            self._hub.record_span(
                trace_id, "client", api_name, elapsed,
                outcome="hit" if results else "miss",
                version=payload.get("version"),
            )
        return payload

    def _batch(
        self, api_name: str, arguments: Sequence[str]
    ) -> list[list[str]]:
        trace_id = self._trace_id_for(arguments[0] if arguments else None)
        started = time.perf_counter()
        payload = self._request(
            f"/v1/{api_name}", body={"arguments": list(arguments)},
            trace_id=trace_id,
        )
        results = payload.get("results")
        if not isinstance(results, list) or len(results) != len(arguments):
            raise APIError(f"{api_name}: malformed batch response")
        elapsed = time.perf_counter() - started
        # One wire round trip served the whole batch: its calls land at
        # the batch's per-call mean, as at every serving front
        self.metrics.observe_served(api_name, arguments, results, elapsed)
        if trace_id is not None:
            self._hub.record_span(
                trace_id, "client", api_name, elapsed,
                outcome="batch", version=payload.get("version"),
            )
        return results

    # -- cluster info ----------------------------------------------------------

    def healthz(self) -> dict:
        """Cluster liveness — including the degraded state.

        A degraded cluster answers 503 with a health body
        (``{"status": "degraded", "unhealthy_shards": [...]}``); that
        payload is returned, not raised, so monitors can read it.
        """
        return self._request("/healthz", degraded_ok=True)

    def version(self) -> dict:
        return self._request("/version")

    def server_metrics(self) -> dict:
        """The server-side ledger (the client's own is ``.metrics``)."""
        return self._request("/metrics")

    def server_metrics_text(self) -> str:
        """The server's Prometheus-style text exposition (one attempt)."""
        path = "/metrics?format=text"
        request = self._encode_request("GET", path, None, ())
        try:
            status, reason, raw = self._round_trip(request)
        except _TRANSPORT_ERRORS as exc:
            raise APIError(f"{path}: {exc}") from exc
        if not 200 <= status < 300:
            raise APIError(f"{path}: HTTP {status}: {reason}")
        return raw.decode("utf-8")

    def fetch_traces(
        self, *, limit: int | None = None, trace_id: str | None = None
    ) -> dict:
        """Recent server-side spans (``GET /admin/traces``), oldest
        first; *limit* keeps the newest N, *trace_id* filters to one
        trace."""
        params = {}
        if limit is not None:
            params["limit"] = int(limit)
        if trace_id is not None:
            params["trace_id"] = trace_id
        query = f"?{urllib.parse.urlencode(params)}" if params else ""
        return self._request(f"/admin/traces{query}", admin=True)

    def fetch_events(
        self, *, since: int = 0, limit: int | None = None
    ) -> dict:
        """Structured events after sequence *since*
        (``GET /admin/events``) — the cursor surface ``obs tail``
        polls."""
        params: dict = {}
        if since:
            params["since"] = int(since)
        if limit is not None:
            params["limit"] = int(limit)
        query = f"?{urllib.parse.urlencode(params)}" if params else ""
        return self._request(f"/admin/events{query}", admin=True)

    # -- admin -----------------------------------------------------------------

    def swap(self, taxonomy_path: str, *, version: int | None = None) -> dict:
        """Hot-swap the server onto the taxonomy file at *taxonomy_path*.

        The path is resolved by the **server** process; the file must be
        readable there.  *version* stamps the published version
        explicitly — the snapshot-heal path of delta replication uses
        it to bring a lagging replica back into version lockstep.

        Never resent: a retry after a timeout could repeat a swap the
        server already performed.
        """
        body: dict = {"taxonomy": str(taxonomy_path)}
        if version is not None:
            body["version"] = int(version)
        return self._request(
            "/admin/swap", body=body, admin=True, idempotent=False
        )

    def apply_delta(self, delta_path: str) -> dict:
        """Publish the taxonomy-delta file at *delta_path* incrementally.

        The path is resolved by the **server** process, which validates
        the delta against the taxonomy it currently serves; a delta
        computed against a different base is refused (400) with the old
        version still serving.

        Never resent (one attempt): after a timeout the server may
        already have applied the delta, and resending it against the
        advanced base would fail spuriously.  Ship with
        :meth:`apply_delta_wire` and a ``base_version`` when you need
        that situation to surface as a clean
        :class:`~repro.errors.DeltaConflictError` instead.
        """
        return self._request(
            "/admin/apply-delta",
            body={"delta": str(delta_path)},
            admin=True,
            idempotent=False,
        )

    def apply_delta_wire(
        self,
        delta,
        *,
        base_version: str | None = None,
        version: int | None = None,
        slice_spec: dict | None = None,
    ) -> dict:
        """Ship a :class:`~repro.taxonomy.delta.TaxonomyDelta` by value.

        The delta-aware replication wire: the delta travels inline as
        its :meth:`~repro.taxonomy.delta.TaxonomyDelta.to_wire` object,
        so the replica needs no shared filesystem.  *base_version*
        ("v3") arms the handshake — a replica published at any other
        version refuses with HTTP 409, raised here as
        :class:`~repro.errors.DeltaConflictError` carrying the
        replica's current version.  *version* stamps the produced
        version (lockstep), *slice_spec* (``{"shard_id": s,
        "n_shards": n}``) tells the replica which slice of the cluster
        keyspace this delta was cut to, so it validates and applies
        only keys it owns.

        Never resent (one attempt), like every admin mutation.
        """
        body: dict = {"delta": delta.to_wire()}
        if base_version is not None:
            body["base_version"] = base_version
        if version is not None:
            body["version"] = int(version)
        if slice_spec is not None:
            body["slice"] = dict(slice_spec)
        return self._request(
            "/admin/apply-delta", body=body, admin=True, idempotent=False
        )

    def fetch_chain(self, from_ref: str) -> dict:
        """The catch-up chain from *from_ref* to the server's version.

        *from_ref* is what this side holds — a content hash (preferred:
        meaningful even after a restart reset the ordinal counter) or a
        version id ("v3").  The server answers with its current
        ``version`` / ``content_hash`` and, when its delta history
        covers the span, ``covered: true`` plus the ordered ``deltas``
        (each hop carrying its lineage endpoints and the inline
        :meth:`~repro.taxonomy.delta.TaxonomyDelta.to_wire` object).
        ``covered: false`` is a normal answer, not an error — the
        caller falls back to a snapshot heal.

        Idempotent (a pure read), so it retries like any query.
        """
        query = urllib.parse.urlencode({"from": from_ref})
        return self._request(f"/admin/delta-chain?{query}", admin=True)

    def shutdown_server(self) -> dict:
        return self._request(
            "/admin/shutdown", body={}, admin=True, idempotent=False
        )
