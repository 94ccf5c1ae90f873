"""The client's own request writer and response reader.

``TaxonomyClient`` writes each request in one ``sendall`` and reads each
response head itself, on pooled ``http.client`` connections.  The
reference for both is the stdlib: the bytes ``HTTPConnection.request``
writes for the same call, and what ``HTTPResponse`` reads from the same
response bytes.  Requests the wire cannot carry are refused before
anything is sent.
"""

import http.client
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import APIError
from repro.obs import trace_context
from repro.serving import TaxonomyClient, build_cluster, start_server
from repro.serving.client import _read_response
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

ADMIN_TOKEN = "wire-token"
JSON_TYPE = "application/json; charset=utf-8"

#: what the fake server answers every call with: a list of one empty
#: answer fits a single, a one-key batch and an admin read alike
CANNED = json.dumps({"results": [[]]}).encode("utf-8")


class FakeSocket:
    """Records what is sent; answers from *response*, then EOF."""

    def __init__(self, response: bytes = b"") -> None:
        self.sent: list[bytes] = []
        self._unread = response

    def sendall(self, data: bytes) -> None:
        self.sent.append(bytes(data))

    def recv(self, size: int) -> bytes:
        data, self._unread = self._unread[:size], self._unread[size:]
        return data

    def close(self) -> None:
        pass


@pytest.fixture
def offline(monkeypatch):
    """Every ``HTTPConnection.connect`` gets a :class:`FakeSocket`.

    Its response closes the connection, so nothing is pooled and each
    call connects anew; the list holds every socket in connect order.
    """
    sockets: list[FakeSocket] = []
    response = (
        b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(CANNED)
    ) + CANNED

    def connect(connection):
        connection.sock = FakeSocket(response)
        sockets.append(connection.sock)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return sockets


def stdlib_bytes(
    netloc: str, method: str, url: str, body, headers: dict
) -> bytes:
    """What ``HTTPConnection.request`` writes for the same call."""
    connection = http.client.HTTPConnection(netloc)
    connection.sock = FakeSocket()
    connection.request(method, url, body=body, headers=headers)
    return b"".join(connection.sock.sent)


def batch_body(arguments) -> bytes:
    return json.dumps({"arguments": arguments}, ensure_ascii=False).encode()


# -- the request bytes --------------------------------------------------------


class TestRequestBytes:
    @pytest.mark.parametrize(
        "base_url, netloc, prefix",
        [
            ("http://127.0.0.1:8321", "127.0.0.1:8321", ""),
            ("http://127.0.0.1:8321/api/", "127.0.0.1:8321", "/api"),
            ("http://example.test", "example.test", ""),
            ("http://[::1]:8321", "[::1]:8321", ""),
        ],
        ids=["port", "path-prefix", "default-port", "ipv6"],
    )
    def test_every_call_shape_writes_the_stdlib_bytes(
        self, offline, base_url, netloc, prefix
    ):
        with TaxonomyClient(base_url, admin_token=ADMIN_TOKEN) as client:
            client.men2ent("华仔 &=+/%")
            client.men2ent_batch(["刘德华"])
            client.fetch_traces(limit=5)
            client.swap("/srv/taxonomy.jsonl")
            with trace_context("t-7"):
                client.get_concepts("刘德华#0")
        json_only = {"Content-Type": JSON_TYPE}
        admin = {**json_only, "Authorization": f"Bearer {ADMIN_TOKEN}"}
        expected = [
            ("GET", "/v1/men2ent?q=%E5%8D%8E%E4%BB%94+%26%3D%2B%2F%25",
             None, json_only),
            ("POST", "/v1/men2ent", batch_body(["刘德华"]), json_only),
            ("GET", "/admin/traces?limit=5", None, admin),
            ("POST", "/admin/swap",
             json.dumps({"taxonomy": "/srv/taxonomy.jsonl"}).encode(), admin),
            ("GET", "/v1/getConcept?q=%E5%88%98%E5%BE%B7%E5%8D%8E%230", None,
             {**json_only, "X-Trace-Id": "t-7"}),
        ]
        assert len(offline) == len(expected)
        for sock, (method, path, body, headers) in zip(offline, expected):
            # one request, one sendall
            assert len(sock.sent) == 1
            assert sock.sent[0] == stdlib_bytes(
                netloc, method, prefix + path, body, headers
            )

    def test_the_text_metrics_call_sends_no_content_type(self, offline):
        with TaxonomyClient("http://127.0.0.1:8321") as client:
            assert client.server_metrics_text() == CANNED.decode("utf-8")
        assert offline[0].sent == [
            stdlib_bytes(
                "127.0.0.1:8321", "GET", "/metrics?format=text", None, {}
            )
        ]


# -- the response reader, differentially --------------------------------------

STATUSES = (200, 400, 401, 403, 404, 409, 414, 431, 500, 501, 503, 505)

#: reason and field-value characters: tab, visible ASCII, space and
#: every Latin-1 character from 0x80 on; no CR or LF (heads are CRLF)
TEXT_CHARS = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(min_codepoint=0x80, max_codepoint=0xFF),
    st.just("\t"),
)

#: names both readers ignore.  Not ``Keep-Alive`` or
#: ``Proxy-Connection``: on HTTP/1.0 ``http.client`` keeps the
#: connection for either, while the reader acts on ``Connection`` alone
#: and closes it (the server sends neither)
EXTRA_NAMES = ("Server", "Date", "Content-Type", "X-Trace-Id", "X-Custom")


def mixed_case(word: str):
    return st.tuples(
        *(st.sampled_from((c.lower(), c.upper())) for c in word)
    ).map("".join)


@st.composite
def responses(draw):
    """A CRLF response, as bytes, and the recv sizes to deliver it in."""
    version = draw(st.sampled_from(("HTTP/1.0", "HTTP/1.1")))
    status = draw(st.sampled_from(STATUSES))
    reason = draw(st.one_of(
        st.sampled_from(("", " ", "OK", "Bad Request", "Not Found")),
        st.text(TEXT_CHARS, max_size=20),
    ))
    status_line = f"{version} {status}" + (
        f" {reason}" if reason or draw(st.booleans()) else ""
    )
    fields = draw(st.lists(
        st.tuples(
            st.sampled_from(EXTRA_NAMES).flatmap(mixed_case),
            st.text(TEXT_CHARS, max_size=24),
        ),
        max_size=6,
    ))
    connection = draw(st.one_of(
        st.none(),
        st.sampled_from(("close", "keep-alive")).flatmap(mixed_case),
    ))
    if connection is not None:
        fields.insert(
            draw(st.integers(0, len(fields))),
            (draw(mixed_case("Connection")), connection),
        )
    body = draw(st.one_of(
        st.binary(max_size=300),
        st.text(max_size=100).map(lambda text: text.encode("utf-8")),
    ))
    if draw(st.booleans()):
        trailing = draw(st.sampled_from(("", " ", "\t")))
        fields.insert(
            draw(st.integers(0, len(fields))),
            (draw(mixed_case("Content-Length")), f"{len(body)}{trailing}"),
        )
    spaces = draw(st.sampled_from(("", " ", "  ", "\t")))
    head = f"{status_line}\r\n" + "".join(
        f"{name}:{spaces}{value}\r\n" for name, value in fields
    ) + "\r\n"
    recv_sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=4))
    return head.encode("latin-1") + body, recv_sizes


class ChunkedSocket:
    """Delivers *wire* in pieces no larger than the sizes given, cycled."""

    def __init__(self, wire: bytes, sizes: list[int]) -> None:
        self._unread = wire
        self._sizes = sizes
        self._calls = 0

    def recv(self, size: int) -> bytes:
        size = min(size, self._sizes[self._calls % len(self._sizes)])
        self._calls += 1
        data, self._unread = self._unread[:size], self._unread[size:]
        return data


class StdlibSocket:
    def __init__(self, wire: bytes) -> None:
        self._wire = wire

    def makefile(self, mode):
        return io.BytesIO(self._wire)


def stdlib_read(wire: bytes) -> tuple[int, str, bytes, bool]:
    response = http.client.HTTPResponse(StdlibSocket(wire), method="GET")
    response.begin()
    body = response.read()
    return response.status, response.reason, body, response.will_close


class TestReaderMatchesTheStdlib:
    @settings(max_examples=400, deadline=None)
    @given(responses())
    @example((  # a first piece shorter than the head's terminator
        b"HTTP/1.0 200  \r\nconnection:close\r\n\r\n", [1, 35]
    ))
    def test_well_formed_responses_read_the_same(self, drawn):
        wire, sizes = drawn
        status, reason, body, reusable = _read_response(
            ChunkedSocket(wire, sizes)
        )
        assert (status, reason, body, not reusable) == stdlib_read(wire)

    def test_a_byte_past_the_body_makes_it_unreusable(self):
        one = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
        assert _read_response(ChunkedSocket(one, [4096]))[3] is True
        assert _read_response(ChunkedSocket(one + one, [4096])) == (
            200, "OK", b"{}", False,
        )

    def test_99_header_lines_still_read(self):
        head = b"".join(b"X-%d: v\r\n" % n for n in range(98))
        wire = b"HTTP/1.1 200 OK\r\n" + head + b"Content-Length: 0\r\n\r\n"
        assert stdlib_read(wire)[0] == 200
        for sizes in ([4096], [7]):
            assert _read_response(ChunkedSocket(wire, sizes))[0] == 200


# -- requests the wire cannot carry -------------------------------------------


def make_taxonomy() -> Taxonomy:
    taxonomy = Taxonomy()
    taxonomy.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    taxonomy.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    return taxonomy


@pytest.fixture(scope="module")
def server():
    server = start_server(
        build_cluster(make_taxonomy(), shards=2), admin_token=ADMIN_TOKEN
    )
    yield server
    server.close()


class TestCallerErrors:
    @pytest.mark.parametrize(
        "api_name",
        ["men 2ent", "men2ent\r\nX-Evil: 1", "men\x00ent", "men2ent\x7f",
         "华仔"],
        ids=["space", "crlf", "nul", "del", "non-ascii"],
    )
    def test_a_bad_target_is_refused_before_sending(
        self, server, connects, api_name
    ):
        with TaxonomyClient(server.url, backoff_seconds=0.0) as client:
            with pytest.raises(APIError, match="request target"):
                client.query(api_name, "x")
            assert connects == []
            assert client.wire_stats.as_dict()["requests"] == 0
            assert client.wire_stats.as_dict()["failures"] == 0
            assert client._idle == []
            # the client still serves
            assert client.men2ent("华仔") == ["刘德华#0"]

    @pytest.mark.parametrize(
        "trace_id", ["t-1\r\nX-Evil: 1", "t-1\n", "t-1\r", "t-华"],
        ids=["crlf", "lf", "cr", "not-latin-1"],
    )
    def test_a_bad_ambient_trace_id_is_refused_before_sending(
        self, server, connects, trace_id
    ):
        with TaxonomyClient(server.url, backoff_seconds=0.0) as client:
            with trace_context(trace_id):
                with pytest.raises(APIError, match="X-Trace-Id"):
                    client.men2ent("华仔")
            assert connects == []
            assert client.wire_stats.as_dict()["requests"] == 0
            assert client.metrics.total_calls == 0

    @pytest.mark.parametrize(
        "token", ["tok\r\nX-Evil: 1", "tok\n", "令牌"],
        ids=["crlf", "lf", "not-latin-1"],
    )
    def test_a_bad_admin_token_is_refused_at_construction(
        self, server, connects, token
    ):
        with pytest.raises(APIError, match="admin_token"):
            TaxonomyClient(server.url, admin_token=token)
        assert connects == []

    def test_a_bad_port_is_refused_at_construction(self, connects):
        with pytest.raises(APIError, match="port"):
            TaxonomyClient("http://127.0.0.1:http")
        assert connects == []
