"""stdlib HTTP server for the taxonomy serving cluster.

A thin JSON wire over any service-shaped front (a
:class:`~repro.serving.sharding.ShardedSnapshotStore` or a
:class:`~repro.serving.router.ReplicatedRouter`).  One thread per
connection (:class:`ThreadingHTTPServer`), which the snapshot/shard-set
pinning underneath is already built to serve safely.  Connections are
HTTP/1.1 keep-alive, so a thread serves every request its client
sends until the client hangs up; :meth:`ClusterHTTPServer.close` ends
the connections still open.

The handler parses its own request head into a dict (the stdlib's
``email``-based header parser was most of a single read's server CPU)
and writes each response head and body as one buffer.  The request
line follows the stdlib's rules and status codes.  Framing is strict:
a header line without a colon, a folded line, whitespace before the
colon, or a ``Content-Length`` that is not one non-negative decimal
number is 400, any ``Transfer-Encoding`` is 501, a ``Content-Length``
above :data:`MAX_BODY` is 413, and each ends the connection without
reading a body.  Every request's body is read exactly, a GET's too, in
pieces of at most 64 KiB; one that ends before its ``Content-Length``
is 400, ends the connection and is never routed.

Endpoints (see the package docstring for the full wire format):

- ``GET /v1/{men2ent,getConcept,getEntity}?q=<arg>`` — single query
- ``POST /v1/{api}`` with ``{"arguments": [...]}`` — batched query
- ``GET /healthz`` / ``GET /version`` (incl. the delta-publish
  ``lineage`` and the ``content_hash`` of the published bytes) /
  ``GET /metrics`` (JSON; ``?format=text`` serves the Prometheus-style
  exposition of the unified registry)
- ``GET /admin/traces?limit=N`` — recent request spans from the
  telemetry hub's bounded ring (requests carrying an ``X-Trace-Id``
  header are traced through server → router → shard)
- ``GET /admin/events?since=N`` — structured serving-layer events
  (publishes, merges, conflicts, resyncs, heals, health transitions)
  after sequence number N
- ``GET /admin/delta-chain?from=<hash or vN>`` — the catch-up chain
  from the caller's state to the served version (probe-time
  auto-resync pulls this); ``covered: false`` when the delta history
  does not span it
- ``POST /admin/swap`` with ``{"taxonomy": "<path>"}`` — load the
  taxonomy file server-side and hot-swap it atomically; an optional
  ``"version"`` stamps the published version (replication lockstep)
- ``POST /admin/apply-delta`` with ``{"delta": "<path>"}`` (file) or
  ``{"delta": {...}}`` (inline
  :meth:`~repro.taxonomy.delta.TaxonomyDelta.to_wire` object) —
  publish a delta incrementally (only touched shards repartition);
  optional ``base_version`` arms the 409-conflict handshake,
  ``version`` stamps the result, ``slice`` restricts to one cluster
  shard's keys
- ``POST /admin/shutdown`` — stop serving after the response is sent

Admin endpoints require ``Authorization: Bearer <token>`` matching the
token the server was started with; with no token configured they are
disabled (403).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    APIError,
    DeltaConflictError,
    ReproError,
    ServiceUnavailableError,
)
from repro.obs import TRACE_HEADER, get_hub, trace_context
from repro.taxonomy.service import WIRE_API_METHODS
from repro.taxonomy.store import Taxonomy

#: Ops/admin endpoints whose latency must stay out of the serving
#: quantiles — a metrics scrape or a probe-time admin read is plumbing,
#: not workload, exactly like ``PROBE_KEY`` traffic.
OPS_PATHS = ("/metrics", "/healthz", "/version", "/admin/")

#: The stdlib's bounds on a head (``http.client``'s ``_MAXLINE`` and
#: ``_MAXHEADERS``): a longer line, or more lines counting the blank one
#: that ends the head.  A request head past them is answered 431; the
#: client refuses a response head past them.
MAX_LINE = 65536
MAX_HEAD_LINES = 100
#: The longest request body the server reads; a longer declared
#: ``Content-Length`` is answered 413 before any body byte is read.  The
#: largest body the cluster itself sends is an inline catch-up delta
#: composed over a 32-entry ``DeltaHistory``.  On the 6,000-entity
#: benchmark world one night's delta (2 % churn) is 4.4 KB inline, so
#: 32 of them come to ~140 KB; the whole taxonomy as one delta is 2.5 MB.
MAX_BODY = 16 * 2**20
#: the most one read of a request body asks for
_BODY_PIECE = 65536
_HEAD_ENDS = (b"\r\n", b"\n", b"")


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """``date_time_string()`` for one wall-clock second, formatted once."""
    return formatdate(second, usegmt=True)


class _RequestHeaders(dict):
    """A request head's fields, keyed by lower-cased name.

    ``get`` takes a name in any case.  A repeated name keeps its first
    value, as ``email.message.Message.get`` did.
    """

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class TaxonomyRequestHandler(BaseHTTPRequestHandler):
    """Dispatch one request against ``self.server.service``."""

    server_version = "cn-probase/1.0"
    #: ``version_string()``, which the stdlib rebuilds for every response
    _server_header = f"{server_version} {BaseHTTPRequestHandler.sys_version}"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on the accepted socket, and every response buffered
    #: and flushed once by ``_send``: on a keep-alive connection a
    #: second small write would wait for the client's delayed ACK of
    #: the first (~40 ms), and Nagle would hold a large body's tail
    disable_nagle_algorithm = True
    wbufsize = 1 << 16

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logs stay out of test/benchmark output

    def parse_request(self) -> bool:
        """Parse ``raw_requestline``, then read the head after it.

        The request line follows ``BaseHTTPRequestHandler.parse_request``
        rule for rule: 400 for a bad version or word count, 505 from
        HTTP/2.0 on, a two-word line is an HTTP/0.9 GET, a leading
        ``//`` collapses to ``/``, keep-alive from HTTP/1.1 on.  Every
        error is sent here; ``False`` tells the caller to stop.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            # "HTTP/" major "." minor, each at most 10 decimal digits
            major, dot, minor = version[5:].partition(".")
            if not (
                version.startswith("HTTP/") and dot
                and major.isdecimal() and len(major) <= 10
                and minor.isdecimal() and len(minor) <= 10
            ):
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad request version ({version!r})",
                )
                return False
            number = (int(major), int(minor))
            if number >= (1, 1):  # and protocol_version is HTTP/1.1
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                f"Bad request syntax ({requestline!r})",
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
                return False
        if path.startswith("//"):  # no open redirect to //host/path
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        return self._read_head()

    def _read_head(self) -> bool:
        """Read the header lines into ``self.headers``; check the framing.

        The lines go into a :class:`_RequestHeaders`, not the ``email``
        Message ``http.client.parse_headers`` builds, with the stdlib's
        431 bounds; ``Connection`` and ``Expect: 100-continue`` act as
        there.  Framing errors end the connection through ``send_error``
        before any body is read: 400 for a line without a colon, a
        folded line, whitespace before the colon, or a
        ``Content-Length`` that is not one non-negative decimal number;
        501 for any ``Transfer-Encoding``; 413 for a ``Content-Length``
        above :data:`MAX_BODY`.
        """
        headers = _RequestHeaders()
        content_length = None
        readline = self.rfile.readline
        for count in range(1, MAX_HEAD_LINES + 2):
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_LINE} bytes when reading "
                    "header line",
                )
                return False
            if count > MAX_HEAD_LINES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEAD_LINES} headers",
                )
                return False
            if line in _HEAD_ENDS:
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or " " in name or "\t" in name:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad header line",
                    "a header line is Name: value, unfolded, with no "
                    "whitespace before the colon",
                )
                return False
            name = name.lower()
            value = value.lstrip(" \t").rstrip("\r\n")
            if name == "content-length":
                digits = value.rstrip(" \t")
                if content_length is not None or not digits.isdecimal():
                    self.send_error(
                        HTTPStatus.BAD_REQUEST,
                        "Bad Content-Length",
                        "Content-Length must be one non-negative "
                        "decimal number",
                    )
                    return False
                content_length = int(digits)
            headers.setdefault(name, value)
        if "transfer-encoding" in headers:
            self.send_error(
                HTTPStatus.NOT_IMPLEMENTED,
                "Transfer-Encoding not supported",
                "send the body with a Content-Length",
            )
            return False
        if content_length is not None and content_length > MAX_BODY:
            self.send_error(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                "Body too large",
                f"a request body is at most {MAX_BODY} bytes",
            )
            return False
        self.headers = headers
        self._content_length = content_length or 0

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        # the buffered wfile would hold the interim "100 Continue" back
        # until the final response, which the client is waiting to send
        # the body for
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def _respond(self, status: int, payload: dict) -> None:
        self._send(
            status, "application/json; charset=utf-8", _json_bytes(payload)
        )

    def _error(self, status: int, message: str) -> None:
        self._respond(status, {"error": message})

    def _respond_text(self, status: int, text: str) -> None:
        self._send(
            status, "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Write the response as one buffer and flush it.

        The head is the bytes ``send_response``, two ``send_header``
        calls and ``end_headers`` would write; an HTTP/0.9 request gets
        the body alone, as there.
        """
        # stop the clock before the first byte goes out: once the
        # client can read it, the client's span (which encloses ours) may end
        self._ready_at = perf_counter()
        if self.request_version != "HTTP/0.9":
            body = (
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self._server_header}\r\n"
                f"Date: {_http_date(int(time.time()))}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1") + body
        self.wfile.write(body)
        self.wfile.flush()

    def _drain_body(self) -> bool:
        """Read the request body off the socket into ``self._body``.

        With HTTP/1.1 keep-alive an unread body would be parsed as the
        next request line, so every request drains it up front, a GET's
        included, as do the paths (bad auth, unknown endpoint) that
        never look at it.  ``parse_request`` has checked the length, at
        most :data:`MAX_BODY`.  It is read in pieces of at most
        ``_BODY_PIECE`` bytes, so memory follows the bytes that arrive,
        not the length declared.  A body that ends before its length is
        answered 400 through ``send_error``, which closes the connection;
        ``False`` then tells the caller not to route the request.
        """
        remaining = self._content_length
        pieces = []
        while remaining:
            piece = self.rfile.read(min(remaining, _BODY_PIECE))
            if not piece:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Body shorter than Content-Length",
                    f"the connection ended {remaining} bytes short of "
                    "the declared body",
                )
                return False
            pieces.append(piece)
            remaining -= len(piece)
        self._body = b"".join(pieces)
        return True

    @staticmethod
    def _parse_json_body(raw: bytes) -> dict:
        if not raw:
            raise APIError("request body must be a JSON object")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise APIError(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise APIError("request body must be a JSON object")
        return body

    def _authorized(self) -> bool:
        token = self.server.admin_token
        if token is None:
            self._error(403, "admin API disabled: server started "
                             "without --admin-token")
            return False
        supplied = self.headers.get("Authorization", "")
        if supplied != f"Bearer {token}":
            self._error(401, "missing or invalid admin bearer token")
            return False
        return True

    # -- HTTP verbs ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._route_post)

    def _dispatch(self, route) -> None:
        """Route one request with tracing + request accounting.

        The body is drained first, whatever the method.  An
        ``X-Trace-Id`` header binds the trace context around the
        whole dispatch, so every span the service front records during
        this request correlates with the server span recorded here.
        The server span ends when the response is ready, before it is
        written, so it always nests inside the client's span.
        """
        url = urlsplit(self.path)
        trace_id = self.headers.get(TRACE_HEADER) or None
        self._ready_at = None
        started = perf_counter()
        if not self._drain_body():
            return  # a short body: answered 400, never routed nor counted
        outcome = "ok"
        try:
            if trace_id is not None:
                with trace_context(trace_id):
                    route(url)
            else:
                route(url)
        except ServiceUnavailableError as exc:  # transient: clients retry
            self._error(503, str(exc))
            outcome = "unavailable"
        except APIError as exc:
            self._error(400, str(exc))
            outcome = "error"
        except Exception as exc:  # pragma: no cover - defensive 500
            self._error(500, f"internal error: {exc}")
            outcome = "error"
        ready_at = self._ready_at
        if ready_at is None:  # defensive: every path responds via _send
            ready_at = perf_counter()
        self.server.observe_request(
            url.path, ready_at - started, outcome, trace_id
        )

    def _route_get(self, url) -> None:
        if url.path == "/healthz":
            payload = self.server.health_payload()
            status = 200 if payload["status"] == "ok" else 503
            self._respond(status, payload)
        elif url.path == "/version":
            self._respond(200, self.server.version_payload())
        elif url.path == "/metrics":
            formats = parse_qs(url.query).get("format")
            if formats and formats[0] == "text":
                self._respond_text(
                    200, self.server.hub.registry.render_text()
                )
            else:
                self._respond(200, self.server.metrics_payload())
        elif url.path == "/admin/delta-chain":
            if self._authorized():
                self._admin_delta_chain(url)
        elif url.path == "/admin/traces":
            if self._authorized():
                self._admin_traces(url)
        elif url.path == "/admin/events":
            if self._authorized():
                self._admin_events(url)
        elif url.path.startswith("/v1/"):
            self._query_single(url)
        else:
            self._error(404, f"no such endpoint: {url.path}")

    def _route_post(self, url) -> None:
        raw_body = self._body
        if url.path == "/admin/swap":
            if self._authorized():
                self._admin_swap(raw_body)
        elif url.path == "/admin/apply-delta":
            if self._authorized():
                self._admin_apply_delta(raw_body)
        elif url.path == "/admin/shutdown":
            if self._authorized():
                self._respond(200, {"shutting_down": True})
                self.server.shutdown_soon()
        elif url.path.startswith("/v1/"):
            self._query_batch(url, raw_body)
        else:
            self._error(404, f"no such endpoint: {url.path}")

    # -- queries ---------------------------------------------------------------

    def _wire_api(self, url) -> tuple[str, tuple[str, str]]:
        api_name = url.path[len("/v1/"):]
        methods = WIRE_API_METHODS.get(api_name)
        if methods is None:
            known = ", ".join(sorted(WIRE_API_METHODS))
            raise APIError(f"unknown API {api_name!r}; known APIs: {known}")
        return api_name, methods

    def _query_single(self, url) -> None:
        api_name, (single, _) = self._wire_api(url)
        arguments = parse_qs(url.query).get("q")
        if not arguments:
            raise APIError(f"{api_name} needs a ?q=<argument> query")
        results = getattr(self.server.service, single)(arguments[0])
        self._respond(200, {
            "api": api_name,
            "version": self.server.service_version(),
            "argument": arguments[0],
            "results": results,
        })

    def _query_batch(self, url, raw_body: bytes) -> None:
        api_name, (_, batch) = self._wire_api(url)
        body = self._parse_json_body(raw_body)
        arguments = body.get("arguments")
        if not isinstance(arguments, list):
            raise APIError(
                f"{api_name} batch body must be "
                '{"arguments": ["...", ...]}'
            )
        results = getattr(self.server.service, batch)(arguments)
        self._respond(200, {
            "api": api_name,
            "version": self.server.service_version(),
            "results": results,
        })

    # -- admin -----------------------------------------------------------------

    @staticmethod
    def _target_version(body: dict) -> int | None:
        """The explicit publish version a body may carry (int or "vN").

        Strict: booleans, floats and unparseable strings are garbage
        (a silently-coerced stamp would desync the sender's lockstep
        expectation), mirroring ``check_format_version``.
        """
        from repro.taxonomy.delta import parse_version_id

        version = body.get("version")
        if version is None:
            return None
        if isinstance(version, str):
            parsed = parse_version_id(version)
            if parsed is None:
                raise APIError(f"malformed publish version {version!r}")
            return parsed
        if isinstance(version, bool) or not isinstance(version, int):
            raise APIError(f"malformed publish version {version!r}")
        return version

    @staticmethod
    def _base_version(body: dict) -> int | None:
        """The handshake base a body may carry, as an int.

        Only parsed here — the *comparison* happens inside the service
        front's ``publish_delta`` under its publish lock, so two
        concurrent publishes naming the same base can never both pass.
        """
        from repro.taxonomy.delta import parse_version_id

        base_version = body.get("base_version")
        if base_version is None:
            return None
        parsed = parse_version_id(base_version)
        if parsed is None:
            raise APIError(f"malformed base_version {base_version!r}")
        return parsed

    def _admin_delta_chain(self, url) -> None:
        """Answer a recovering replica's catch-up query (a pure read).

        ``?from=`` is the caller's state: a content hash (preferred —
        meaningful even after a restart reset its ordinal counter) or a
        version id ("v3").  The response always reports the served
        ``version`` / ``content_hash``; when the delta history covers
        the span it adds ``covered: true`` and the ordered ``deltas``
        (lineage endpoints + the inline ``to_wire`` object per hop).
        An uncovered span is a normal 200 with ``covered: false`` —
        the caller's signal to heal by snapshot instead.
        """
        from repro.taxonomy.delta import parse_version_id

        refs = parse_qs(url.query).get("from")
        if not refs or not refs[0]:
            raise APIError(
                "delta-chain needs a ?from=<content hash or version id> "
                "query"
            )
        from_ref = refs[0]
        service = self.server.service
        history = getattr(service, "delta_history", None)
        if history is None:
            raise APIError(
                "this service front does not keep a delta history"
            )
        version_id = getattr(service, "published_version_id", None)
        if version_id is None:
            version_id = self.server.service_version()
        content_hash = getattr(service, "content_hash", None)
        from_version = parse_version_id(from_ref)
        entries = history.catch_up(
            from_version=from_version,
            from_hash=from_ref if from_version is None else None,
            to_version=parse_version_id(version_id),
            to_hash=content_hash,
        )
        payload: dict = {
            "version": version_id,
            "content_hash": content_hash,
            "covered": entries is not None,
            "deltas": [],
        }
        if entries:
            # advertise the chain's own endpoint, not the re-read
            # current state: a publish landing mid-handler must not
            # produce a payload whose deltas stop short of the version
            # it claims — a consistent prefix beats a torn answer (the
            # next probe chains the replica the rest of the way)
            last = entries[-1]
            payload["version"] = f"v{last.version}"
            if last.content_hash is not None:
                payload["content_hash"] = last.content_hash
            payload["deltas"] = [
                {
                    "base_version": f"v{entry.base_version}",
                    "version": f"v{entry.version}",
                    "base_content_hash": entry.base_content_hash,
                    "content_hash": entry.content_hash,
                    "delta": entry.delta.to_wire(),
                }
                for entry in entries
            ]
        self._respond(200, payload)

    @staticmethod
    def _int_param(url, name: str) -> int | None:
        values = parse_qs(url.query).get(name)
        if not values or not values[0]:
            return None
        try:
            parsed = int(values[0])
        except ValueError as exc:
            raise APIError(f"{name} must be an integer") from exc
        if parsed < 0:
            raise APIError(f"{name} must be >= 0")
        return parsed

    def _admin_traces(self, url) -> None:
        limit = self._int_param(url, "limit")
        trace_ids = parse_qs(url.query).get("trace_id")
        trace_id = trace_ids[0] if trace_ids and trace_ids[0] else None
        traces = self.server.hub.traces
        spans = traces.spans(trace_id=trace_id, limit=limit)
        self._respond(
            200,
            {
                "spans": [span.as_dict() for span in spans],
                "capacity": traces.capacity,
                "last_seq": traces.last_seq,
            },
        )

    def _admin_events(self, url) -> None:
        since = self._int_param(url, "since") or 0
        limit = self._int_param(url, "limit")
        events = self.server.hub.events
        self._respond(
            200,
            {
                "events": events.records(since=since, limit=limit),
                "last_seq": events.last_seq,
            },
        )

    def _admin_swap(self, raw_body: bytes) -> None:
        body = self._parse_json_body(raw_body)
        path = body.get("taxonomy")
        if not isinstance(path, str) or not path:
            raise APIError('swap body must be {"taxonomy": "<path>"}')
        version = self._target_version(body)
        try:
            taxonomy = Taxonomy.load(path)
            if version is None:
                published = self.server.service.swap(taxonomy)
            else:
                published = self.server.service.swap(
                    taxonomy, version=version
                )
        except (ReproError, OSError) as exc:  # bad path/perms: caller error
            raise APIError(f"swap failed, still serving "
                           f"{self.server.service_version()}: {exc}") from exc
        version_id = getattr(
            published, "version_id", self.server.service_version()
        )
        self._respond(200, {"swapped": True, "version": version_id})

    def _admin_apply_delta(self, raw_body: bytes) -> None:
        """Publish a delta incrementally — by file path or by value.

        ``{"delta": "<path>"}`` loads the delta file server-side;
        ``{"delta": {...to_wire() object...}}`` applies the inline
        delta the replication layer ships.  Optional fields:
        ``base_version`` arms the version handshake (409 on mismatch,
        old version still serving), ``version`` stamps the produced
        version (replication lockstep), ``slice`` (``{"shard_id": s,
        "n_shards": n}``) restricts validation + application to the
        cluster-shard keyspace this replica owns.  The delta is always
        structurally validated against the currently served taxonomy,
        so a failed apply keeps the old version serving — same
        contract as a failed ``/admin/swap``.
        """
        from repro.serving.sharding import shard_for
        from repro.taxonomy.delta import TaxonomyDelta, load_delta

        body = self._parse_json_body(raw_body)
        source = body.get("delta")
        publish = getattr(self.server.service, "publish_delta", None)
        if not callable(publish):
            raise APIError(
                "this service front does not support delta publishes"
            )
        kwargs: dict = {}
        version = self._target_version(body)
        if version is not None:
            kwargs["version"] = version
        base_version = self._base_version(body)
        if base_version is not None:
            kwargs["base_version"] = base_version
        slice_spec = body.get("slice")
        if slice_spec is not None:
            try:
                shard_id = int(slice_spec["shard_id"])
                n_shards = int(slice_spec["n_shards"])
            except (TypeError, KeyError, ValueError) as exc:
                raise APIError(
                    'slice must be {"shard_id": s, "n_shards": n}, '
                    f"got {slice_spec!r}"
                ) from exc
            kwargs["key_filter"] = (
                lambda key: shard_for(key, n_shards) == shard_id
            )
        if not (isinstance(source, str) and source) \
                and not isinstance(source, dict):
            raise APIError(
                'apply-delta body must be {"delta": "<path>"} or '
                '{"delta": {...inline delta...}}'
            )
        if kwargs:
            # capability check by signature, not by catching TypeError
            # around the call — an internal TypeError from a legitimate
            # publish must surface as the 500 it is, not masquerade as
            # a capability gap the replication layer would "heal"
            import inspect

            try:
                parameters = inspect.signature(publish).parameters
                takes_kwargs = any(
                    p.kind == p.VAR_KEYWORD for p in parameters.values()
                )
                unsupported = [
                    name
                    for name in kwargs
                    if name not in parameters and not takes_kwargs
                ]
            except (TypeError, ValueError):  # uninspectable callable
                unsupported = []
            if unsupported:
                raise APIError(
                    "this service front does not support "
                    f"{'/'.join(sorted(unsupported))} on delta publishes"
                )
        try:
            if isinstance(source, str):
                delta = load_delta(source)
            else:
                delta = TaxonomyDelta.from_wire(source, "request body")
            published = publish(delta, **kwargs)
        except DeltaConflictError as exc:
            # the handshake (checked under the publish lock) refused:
            # tell the sender which version is serving so it can pick
            # chain catch-up vs snapshot heal
            self._respond(409, {
                "error": str(exc),
                "conflict": True,
                "version": exc.server_version
                or self.server.service_version(),
                # the replica's content-addressed state, so the sender
                # can tell "diverged" from "already has these bytes"
                "content_hash": exc.server_content_hash
                or getattr(self.server.service, "content_hash", None),
            })
            return
        except (ReproError, OSError) as exc:  # bad path/base: caller error
            raise APIError(
                f"apply-delta failed, still serving "
                f"{self.server.service_version()}: {exc}"
            ) from exc
        version_id = getattr(
            published, "version_id", self.server.service_version()
        )
        payload = {"applied": True, "version": version_id}
        summary = getattr(delta, "summary", None)
        if callable(summary):
            payload["delta"] = summary()
        shard_versions = getattr(self.server.service, "shard_versions", None)
        if callable(shard_versions):
            payload["shard_versions"] = shard_versions()
        self._respond(200, payload)


class ClusterHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a service front + admin token."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service,
        *,
        admin_token: str | None = None,
        hub=None,
    ) -> None:
        super().__init__(address, TaxonomyRequestHandler)
        self.service = service
        self.admin_token = admin_token
        self._thread: threading.Thread | None = None
        #: accepted sockets not yet shut down, for ``close()``
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        if hub is None:
            # prefer the hub the service front already reports into, so
            # server-side spans land in the same rings as service spans
            hub = getattr(service, "_hub", None) or get_hub()
        self.hub = hub
        self._http_requests = hub.registry.counter(
            "http_requests_total", "HTTP requests served, by path class."
        )
        self._http_seconds = hub.registry.summary(
            "http_request_seconds",
            "Server-side latency of /v1 query requests, by api.",
        )
        #: each wire API's path → its counter and latency children, made
        #: on the API's first request: ``labels()`` sorts its label dict
        #: under the registry lock, too dear for every request
        self._api_children: dict[str, tuple] = {}

    def observe_request(
        self, path: str, seconds: float, outcome: str, trace_id
    ) -> None:
        """Account one finished request; record a server span if traced.

        Only the wire APIs' queries land in the latency summary.  Ops
        and admin paths (``OPS_PATHS``) are counted but kept out of it
        (a metrics scrape or health probe is plumbing, not workload,
        exactly like ``PROBE_KEY`` traffic), and every other path,
        unknown ``/v1/`` names included, is counted as ``other``, so
        junk requests cannot grow either family.
        """
        is_query = path.startswith("/v1/")
        api = path[len("/v1/") :] if is_query else None
        children = self._api_children.get(path)
        if children is None and api in WIRE_API_METHODS:
            children = self._api_children[path] = (
                self._http_requests.labels(path=path),
                self._http_seconds.labels(api=api),
            )
        if children is not None:
            requests, latency = children
            requests.inc()
            latency.observe(seconds)
        elif any(
            path == ops or (ops.endswith("/") and path.startswith(ops))
            for ops in OPS_PATHS
        ):
            label = path if not path.startswith("/admin/") else "/admin/*"
            self._http_requests.labels(path=label).inc()
        else:
            self._http_requests.labels(path="other").inc()
        if trace_id:
            self.hub.record_span(
                trace_id=trace_id,
                component="server",
                operation=api or path,
                seconds=seconds,
                outcome=outcome,
                version=self.service_version(),
            )

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    # -- info payloads ---------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def service_version(self) -> str:
        return getattr(self.service, "version_id", "v?")

    def health_payload(self) -> dict:
        """Liveness that reflects real serving capacity.

        With a router in front, a shard whose replicas are all down
        cannot answer its slice of the keyspace — report ``degraded``
        (the handler returns it as 503) so a load balancer rotates this
        instance out instead of feeding it traffic that will fail.
        """
        payload = {
            "status": "ok",
            "version": self.service_version(),
            "shards": getattr(self.service, "n_shards", 1),
        }
        health = getattr(self.service, "health", None)
        if callable(health):
            dead_shards = [
                shard_id
                for shard_id, replicas in enumerate(health())
                if not any(state["healthy"] for state in replicas)
            ]
            if dead_shards:
                payload["status"] = "degraded"
                payload["unhealthy_shards"] = dead_shards
        return payload

    def version_payload(self) -> dict:
        payload = {
            "version": self.service_version(),
            "shards": getattr(self.service, "n_shards", 1),
            "replicas": getattr(self.service, "n_replicas", 1),
        }
        content_hash = getattr(self.service, "content_hash", None)
        if content_hash is not None:
            # the content-addressed version id: the canonical-bytes
            # sha256 every converged replica advertises identically
            payload["content_hash"] = content_hash
        shard_versions = getattr(self.service, "shard_versions", None)
        if callable(shard_versions):
            payload["shard_versions"] = shard_versions()
        lineage = getattr(self.service, "version_lineage", None)
        if callable(lineage):
            # the versions delta publishes produced (oldest first) —
            # how far back this replica can be caught up by chain
            payload["lineage"] = lineage()
        return payload

    def metrics_payload(self) -> dict:
        metrics = self.service.metrics
        apis = metrics.as_dict()  # one locked read: total_calls agrees
        payload = {
            "version": self.service_version(),
            "swaps": metrics.swaps,
            "total_calls": sum(entry["calls"] for entry in apis.values()),
            "apis": apis,
        }
        stats = getattr(self.service, "stats", None)
        health = getattr(self.service, "health", None)
        if hasattr(stats, "as_dict") and callable(health):
            payload["router"] = {
                "stats": stats.as_dict(),
                "replicas": health(),
            }
        # the unified registry view: same snapshot that ?format=text
        # renders, so the two expositions cannot drift apart
        payload["metrics"] = self.hub.registry.as_dict()
        return payload

    # -- lifecycle -------------------------------------------------------------

    def start_background(self) -> "ClusterHTTPServer":
        thread = threading.Thread(
            target=lambda: self.serve_forever(poll_interval=0.05),
            name="cn-probase-serve",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def shutdown_soon(self) -> None:
        """Stop the serve loop without deadlocking the calling handler."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def wait(self) -> None:
        """Block until the serve loop exits (CLI foreground mode)."""
        if self._thread is not None:
            self._thread.join()

    def close(self) -> None:
        """Stop serving and end every connection still open.

        ``server_close()`` closes only the listening socket, and the
        daemon handler threads are never joined: without the shutdowns
        below a closed server keeps answering on a keep-alive
        connection that is already open.  Each shutdown wakes its
        handler thread with EOF, and the thread exits.
        """
        self.shutdown()
        self.server_close()
        with self._connections_lock:  # held: no fd reuse under our feet
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:  # its handler is closing it already
                    pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def start_server(
    service,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    admin_token: str | None = None,
    hub=None,
) -> ClusterHTTPServer:
    """Bind, start serving on a background thread, return the server.

    ``port=0`` picks a free port; read the bound address back from
    ``server.url``.  Call ``server.close()`` (or POST /admin/shutdown)
    to stop.
    """
    server = ClusterHTTPServer(
        (host, port), service, admin_token=admin_token, hub=hub
    )
    return server.start_background()
