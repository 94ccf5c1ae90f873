"""The handler's own request-head parser and response-head writer.

``TaxonomyRequestHandler.parse_request`` reads the head without the
stdlib's ``email`` parser, and ``_send`` writes the response head
itself.  The reference for both is the stdlib:
``BaseHTTPRequestHandler.parse_request`` and ``send_response`` +
``send_header`` + ``end_headers``, run on a handler with no socket over
``io.BytesIO``.  Well-formed heads must parse the same and every
response head must be byte-identical; framing errors the stdlib let
through must end, over a real socket, in one 4xx and a closed
connection.
"""

import http.client
import io
import json
import socket
import time
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import fresh_hub
from repro.serving import TaxonomyClient, build_cluster, start_server
from repro.serving.server import MAX_BODY, TaxonomyRequestHandler
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

#: 2023-11-14T22:13:20Z, a clock no live request reads
FIXED_CLOCK = 1_700_000_000.25


class StdlibParse(TaxonomyRequestHandler):
    """The handler with the stdlib's request-head parser put back."""

    parse_request = BaseHTTPRequestHandler.parse_request


def offline(cls, raw: bytes):
    """A handler of *cls* over in-memory streams, its request line read."""
    handler = cls.__new__(cls)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.requestline = ""
    handler.raw_requestline = handler.rfile.readline(65537)
    return handler


def parse_both(raw: bytes):
    """``(ours, reference, ours' result, reference's result)`` for *raw*."""
    ours, reference = offline(TaxonomyRequestHandler, raw), offline(
        StdlibParse, raw
    )
    return ours, reference, ours.parse_request(), reference.parse_request()


@pytest.fixture
def fixed_clock(monkeypatch):
    """Pin ``time.time`` so two heads written apart carry one Date."""
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)


# -- the parse, differentially ------------------------------------------------

FIELD_NAMES = (
    "Host", "Accept", "User-Agent", "Authorization", "X-Trace-Id",
    "Content-Type", "X-Custom",
)

#: field-value characters: visible ASCII, space, tab and every Latin-1
#: byte from 0x80 on (RFC 7230's obs-text)
VALUE_CHARS = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(min_codepoint=0x80, max_codepoint=0xFF),
    st.just("\t"),
)


def mixed_case(name: str):
    return st.tuples(
        *(st.sampled_from((c.lower(), c.upper())) for c in name)
    ).map("".join)


@st.composite
def heads(draw):
    """A well-formed request head as bytes, plus the names it uses."""
    method = draw(st.sampled_from(("GET", "POST")))
    version = draw(st.sampled_from(("HTTP/1.0", "HTTP/1.1")))
    path = draw(st.sampled_from(
        ("/v1/men2ent?q=x", "//v1/getEntity", "///admin/swap", "/healthz")
    ))
    fields = draw(st.lists(
        st.tuples(
            st.sampled_from(FIELD_NAMES).flatmap(mixed_case),
            st.text(VALUE_CHARS, max_size=24),
        ),
        max_size=8,
    ))
    connection = draw(st.sampled_from(
        (None, "close", "keep-alive", "Close", "KEEP-ALIVE")
    ))
    if connection is not None:
        fields.insert(
            draw(st.integers(0, len(fields))),
            (draw(mixed_case("Connection")), connection),
        )
    if draw(st.booleans()):
        fields.insert(
            draw(st.integers(0, len(fields))),
            (draw(mixed_case("Expect")), "100-continue"),
        )
    if method == "POST":
        fields.append(("Content-Length", "2"))
    spaces = draw(st.sampled_from(("", " ", "  ", "\t")))
    newline = draw(st.sampled_from(("\r\n", "\n")))
    head = f"{method} {path} {version}{newline}" + "".join(
        f"{name}:{spaces}{value}{newline}" for name, value in fields
    ) + newline
    return head.encode("latin-1") + b"{}", [name for name, _ in fields]


class TestParseMatchesTheStdlib:
    @settings(max_examples=300, deadline=None)
    @given(heads())
    @example((  # a repeated name keeps its first value
        b"GET / HTTP/1.1\r\nX-Trace-Id: first\r\n"
        b"x-trace-id: second\r\n\r\n",
        ["X-Trace-Id", "x-trace-id"],
    ))
    def test_well_formed_heads_parse_the_same(self, drawn):
        raw, names = drawn
        ours, reference, ok, reference_ok = parse_both(raw)
        assert ok is reference_ok is True
        for attribute in (
            "command", "path", "request_version", "close_connection"
        ):
            assert getattr(ours, attribute) == getattr(reference, attribute)
        # only an interim "100 Continue" is written, and no body is read
        assert ours.wfile.getvalue() == reference.wfile.getvalue()
        assert ours.rfile.tell() == reference.rfile.tell()
        for name in {*names, "Missing-Header"}:
            for spelling in (name, name.lower(), name.upper()):
                assert ours.headers.get(spelling) == reference.headers.get(
                    spelling
                )
                assert ours.headers.get(spelling, "-") == (
                    reference.headers.get(spelling, "-")
                )

    @pytest.mark.parametrize(
        "request_line, status, status_line",
        [
            (b"GET / HTTP/1\r\n", 400, False),
            (b"GET / HTTP/1.1.1\r\n", 400, False),
            (b"GET / HTTP/a.1\r\n", 400, False),
            (b"GET / HTTP/\xb2.1\r\n", 400, False),
            (b"GET / FTP/1.1\r\n", 400, False),
            (b"GET / HTTP/12345678901.1\r\n", 400, False),
            (b"GET / x HTTP/1.1\r\n", 400, True),
            (b"GET\r\n", 400, False),
            (b"POST /\r\n", 400, False),
            (b"GET / HTTP/2.0\r\n", 505, False),
            (b"GET / HTTP/3.1\r\n", 505, False),
        ],
    )
    def test_malformed_request_lines(
        self, fixed_clock, request_line, status, status_line
    ):
        raw = request_line + b"Host: x\r\n\r\n"
        ours, reference, ok, reference_ok = parse_both(raw)
        assert ok is reference_ok is False
        written = ours.wfile.getvalue()
        assert written == reference.wfile.getvalue()
        assert ours.close_connection and reference.close_connection
        assert b"<p>Error code: %d</p>" % status in written
        # the stdlib writes a status line only once it has accepted the
        # version; before that the error is the HTML body alone
        assert written.startswith(b"HTTP/1.1 %d " % status) is status_line

    @pytest.mark.parametrize(
        "head",
        [
            # a 65,537-byte header line
            b"X-Long: " + b"a" * 65529 + b"\r\n\r\n",
            # 100 header lines: with the blank line, more than 100
            b"".join(b"X-%d: v\r\n" % n for n in range(100)) + b"\r\n",
            # 100 header lines, then a line too long to read
            b"".join(b"X-%d: v\r\n" % n for n in range(100))
            + b"X-Long: " + b"a" * 65529 + b"\r\n\r\n",
        ],
        ids=["line-too-long", "too-many-lines", "too-many-then-too-long"],
    )
    def test_oversized_heads_are_431(self, fixed_clock, head):
        ours, reference, ok, reference_ok = parse_both(
            b"GET / HTTP/1.1\r\n" + head
        )
        assert ok is reference_ok is False
        written = ours.wfile.getvalue()
        assert written == reference.wfile.getvalue()
        assert written.startswith(b"HTTP/1.1 431 ")

    def test_99_header_lines_still_parse(self):
        head = b"".join(b"X-%d: v\r\n" % n for n in range(99)) + b"\r\n"
        ours, _, ok, reference_ok = parse_both(b"GET / HTTP/1.1\r\n" + head)
        assert ok is reference_ok is True
        assert ours.headers.get("x-98") == "v"

    def test_overlong_request_line_is_414(self, fixed_clock):
        raw = b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n"
        written = []
        for cls in (TaxonomyRequestHandler, StdlibParse):
            handler = offline(cls, b"")
            handler.rfile = io.BytesIO(raw)
            handler.handle_one_request()
            assert handler.close_connection
            written.append(handler.wfile.getvalue())
        assert written[0] == written[1]
        # the line is too long to know its version: no status line
        assert b"<p>Error code: 414</p>" in written[0]


# -- the response head --------------------------------------------------------


def reference_response(
    status: int, content_type: str, body: bytes, version: str
) -> bytes:
    handler = offline(StdlibParse, b"")
    handler.request_version = version
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)
    return handler.wfile.getvalue()


def sent_response(
    status: int, content_type: str, body: bytes, version: str
) -> bytes:
    handler = offline(TaxonomyRequestHandler, b"")
    handler.request_version = version
    handler._send(status, content_type, body)
    return handler.wfile.getvalue()


class TestResponseHead:
    @pytest.mark.parametrize(
        "status", [200, 400, 401, 403, 404, 409, 500, 503]
    )
    def test_head_is_the_stdlib_head(self, fixed_clock, status):
        body = json.dumps({"error": "华仔"}, ensure_ascii=False).encode()
        for content_type in (
            "application/json; charset=utf-8",
            "text/plain; version=0.0.4; charset=utf-8",
        ):
            sent = sent_response(status, content_type, body, "HTTP/1.1")
            assert sent == reference_response(
                status, content_type, body, "HTTP/1.1"
            )
            assert sent.endswith(b"\r\n\r\n" + body)

    def test_http_0_9_gets_the_body_alone(self, fixed_clock):
        body = b'{"results": []}'
        sent = sent_response(
            200, "application/json; charset=utf-8", body, "HTTP/0.9"
        )
        assert sent == body == reference_response(
            200, "application/json; charset=utf-8", body, "HTTP/0.9"
        )

    def test_date_moves_with_the_second(self, monkeypatch):
        clock = [FIXED_CLOCK]
        monkeypatch.setattr(time, "time", lambda: clock[0])

        def date_of(response: bytes) -> bytes:
            return next(
                line for line in response.split(b"\r\n")
                if line.startswith(b"Date: ")
            )

        def sent() -> bytes:
            return sent_response(200, "text/plain", b"", "HTTP/1.1")

        first = sent()
        clock[0] = FIXED_CLOCK + 0.7  # same second
        assert date_of(sent()) == date_of(first)
        clock[0] = FIXED_CLOCK + 0.75  # the next second begins
        later = sent()
        assert date_of(later) != date_of(first)
        assert later == reference_response(200, "text/plain", b"", "HTTP/1.1")


# -- framing errors over a real socket ----------------------------------------


def make_taxonomy() -> Taxonomy:
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    return t


@pytest.fixture(scope="module")
def server():
    server = start_server(build_cluster(make_taxonomy(), shards=2, replicas=2))
    yield server
    server.close()


def exchange(
    server, raw: bytes, timeout: float = 2.0, half_close: bool = False
) -> bytes:
    """Send *raw* on a fresh connection; every byte until the server closes.

    With *half_close* the client then ends its side of the stream, as a
    sender whose body ended early does.  A server that keeps the
    connection open, or hangs, fails the test with ``TimeoutError``
    after *timeout* seconds.
    """
    host, port = server.server_address[:2]
    received = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            received.append(chunk)
    return b"".join(received)


def one_response(wire: bytes) -> tuple[int, dict, bytes]:
    """``(status, headers, body)`` of *wire*, which must hold one response."""
    head, _, body = wire.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, _ = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = dict(line.split(": ", 1) for line in lines)
    # nothing after the body: not a second response, not a second body
    assert len(body) == int(headers["Content-Length"])
    return int(status), headers, body


BODY = b'{"arguments": ["x"]}'

FRAMING_ERRORS = {
    "negative-one": (b"Content-Length: -1\r\n", BODY, 400),
    "not-a-number": (b"Content-Length: abc\r\n", BODY, 400),
    "negative": (b"Content-Length: -5\r\n", BODY, 400),
    "space-before-colon": (
        b"Content-Length : %d\r\n" % len(BODY), BODY, 400
    ),
    "chunked": (
        b"Transfer-Encoding: chunked\r\n",
        b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY), 501,
    ),
    "two-lengths": (
        b"Content-Length: %d\r\nContent-Length: 5\r\n" % len(BODY), BODY, 400
    ),
    "no-colon": (b"Content-Length\r\n", BODY, 400),
    "folded-line": (b"X-Custom: a\r\n  b\r\n", BODY, 400),
    # a length the server would not read: answered before the body,
    # which never arrives in full
    "above-the-bound": (
        b"Content-Length: %d\r\n" % (MAX_BODY + 1), BODY, 413
    ),
    "30-digit-length": (b"Content-Length: %d\r\n" % 10 ** 29, BODY, 413),
}


class TestFramingErrors:
    @pytest.mark.parametrize(
        "field, body, status",
        list(FRAMING_ERRORS.values()),
        ids=list(FRAMING_ERRORS),
    )
    def test_ends_in_one_error_and_a_close(self, server, field, body, status):
        wire = exchange(
            server,
            b"POST /v1/men2ent HTTP/1.1\r\nHost: x\r\n" + field + b"\r\n"
            + body,
        )
        answered, headers, html = one_response(wire)
        assert answered == status
        assert headers["Connection"] == "close"
        assert headers["Content-Type"].startswith("text/html")
        assert b"Error code: %d" % status in html
        # the server still answers, on a fresh connection
        with TaxonomyClient(server.url, retries=0, timeout=2.0) as client:
            assert client.men2ent("华仔") == ["刘德华#0"]

    def test_framing_checks_come_before_100_continue(self, server):
        wire = exchange(
            server,
            b"POST /v1/men2ent HTTP/1.1\r\nHost: x\r\n"
            b"Expect: 100-continue\r\nContent-Length: -1\r\n\r\n",
        )
        assert one_response(wire)[0] == 400

    def test_a_valid_length_is_read_exactly_and_keeps_the_connection(
        self, server
    ):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=2.0)
        try:
            for _ in range(2):
                connection.request(
                    "POST", "/v1/men2ent",
                    body=json.dumps({"arguments": ["华仔"]}).encode("utf-8"),
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["results"] == [
                    ["刘德华#0"]
                ]
                assert not response.will_close
        finally:
            connection.close()


class TestBodyFraming:
    """A body is read exactly: a GET's too, and one that ends short is a
    400 that is never routed."""

    def test_a_get_body_is_drained_and_the_next_request_answered(
        self, server
    ):
        wire = exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n"
            b"\r\nGARBAGE /x\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        first, _, rest = wire.partition(b"\r\n\r\n")
        length = int(first.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        second = rest[length:]
        assert first.startswith(b"HTTP/1.1 200 ")
        assert json.loads(rest[:length])["status"] == "ok"
        status, headers, body = one_response(second)
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        with TaxonomyClient(server.url, retries=0, timeout=2.0) as client:
            assert client.men2ent("华仔") == ["刘德华#0"]

    @pytest.mark.parametrize(
        "length, body",
        [(len(BODY) + 50, BODY)],  # 50 bytes short
        ids=["50-bytes-short"],
    )
    def test_a_body_that_ends_short_is_one_400_never_routed(
        self, server, length, body
    ):
        served = server.service.metrics.total_calls
        wire = exchange(
            server,
            b"POST /v1/men2ent HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            b"\r\n%s" % (length, body),
            half_close=True,
        )
        status, headers, html = one_response(wire)
        assert status == 400
        assert headers["Connection"] == "close"
        assert b"Body shorter than Content-Length" in html
        assert server.service.metrics.total_calls == served
        # the server still answers, on a fresh connection
        with TaxonomyClient(server.url, retries=0, timeout=2.0) as client:
            assert client.men2ent("华仔") == ["刘德华#0"]


# -- the HTTP metric families -------------------------------------------------


class TestMetricLabels:
    def test_unknown_apis_do_not_grow_the_families(self):
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=1, hub=hub), hub=hub
            )
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=5.0)

            def junk(n: int) -> None:
                connection.request("GET", f"/v1/junk{n}?q=x")
                response = connection.getresponse()
                response.read()
                assert response.status == 400

            def samples() -> dict[str, int]:
                families = hub.registry.as_dict()
                return {
                    name: len(families[name]["samples"])
                    for name in ("http_requests_total", "http_request_seconds")
                }

            def settled(sent: int) -> None:
                """Wait until the server has counted all *sent* requests:
                it counts each one just after writing its response."""
                deadline = time.monotonic() + 5.0
                while True:
                    counted = {
                        dict(s["labels"])["path"]: s["value"]
                        for s in hub.registry.as_dict()[
                            "http_requests_total"
                        ]["samples"]
                    }
                    if counted.get("other") == sent:
                        return
                    assert time.monotonic() < deadline, counted
                    time.sleep(0.001)

            try:
                junk(0)
                settled(1)
                after_first = samples()
                for n in range(1, 300):
                    junk(n)
                settled(300)
                assert samples() == after_first
                counted = {
                    dict(s["labels"])["path"]: s["value"]
                    for s in hub.registry.as_dict()["http_requests_total"][
                        "samples"
                    ]
                }
                assert counted == {"other": 300.0}
                # a junk name did no lookup: no latency sample at all
                assert after_first["http_request_seconds"] == 0
            finally:
                connection.close()
                server.close()
