"""End-to-end HTTP tests: server wire format + TaxonomyClient SDK."""

import gc
import json
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.errors import APIError, DeltaConflictError
from repro.serving import TaxonomyClient, build_cluster, start_server
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy
from repro.workloads import ArgumentPools, TableIICallStream, replay_calls

ADMIN_TOKEN = "test-admin-token"


def make_taxonomy(marker: str = "歌手") -> Taxonomy:
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_entity(Entity("周杰伦#0", "周杰伦"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", marker, "tag"))
    t.add_relation(IsARelation("周杰伦#0", marker, "tag"))
    return t


@pytest.fixture(scope="module")
def cluster():
    """One server shared by the read-only tests (2 shards × 2 replicas)."""
    service = build_cluster(make_taxonomy(), shards=2, replicas=2)
    server = start_server(service, admin_token=ADMIN_TOKEN)
    client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
    yield server, client
    client.close()
    server.close()


class TestInfoEndpoints:
    def test_healthz(self, cluster):
        _, client = cluster
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == "v1"
        assert payload["shards"] == 2

    def test_version_topology(self, cluster):
        _, client = cluster
        payload = client.version()
        assert payload["version"] == "v1"
        assert payload["shards"] == 2
        assert payload["replicas"] == 2
        assert payload["shard_versions"] == ["v1", "v1"]

    def test_metrics_reports_tail_latency_and_router(self, cluster):
        _, client = cluster
        client.men2ent("华仔")
        payload = client.server_metrics()
        assert payload["total_calls"] >= 1
        entry = payload["apis"]["men2ent"]
        for key in ("calls", "hit_rate", "mean_seconds",
                    "p50_seconds", "p95_seconds", "p99_seconds",
                    "max_seconds"):
            assert key in entry
        assert payload["router"]["stats"]["attempts"] >= 1
        assert len(payload["router"]["replicas"]) == 2


class TestQueries:
    def test_singles_match_the_source_taxonomy(self, cluster):
        _, client = cluster
        reference = make_taxonomy()
        assert client.men2ent("华仔") == reference.men2ent("华仔")
        assert client.get_concepts("刘德华#0") == \
            reference.get_concepts("刘德华#0")
        assert client.get_entities("歌手") == reference.get_entities("歌手")

    def test_cjk_arguments_survive_url_encoding(self, cluster):
        _, client = cluster
        assert client.men2ent("刘德华") == ["刘德华#0"]
        assert client.men2ent("不存在的词") == []

    def test_batches_answer_position_for_position(self, cluster):
        _, client = cluster
        assert client.men2ent_batch(["华仔", "无人", "周杰伦"]) == [
            ["刘德华#0"], [], ["周杰伦#0"],
        ]
        assert client.get_concepts_batch(["刘德华#0", "周杰伦#0"]) == [
            ["歌手", "演员"], ["歌手"],
        ]
        assert client.get_entities_batch(["歌手", "导演"]) == [
            ["刘德华#0", "周杰伦#0"], [],
        ]

    def test_list_passed_to_a_single_is_refused_before_sending(
        self, cluster
    ):
        server, client = cluster
        sent = client.metrics.total_calls
        served = server.service.metrics.total_calls
        with pytest.raises(APIError, match="non-empty string"):
            client.get_entities(["歌手"])
        assert client.metrics.total_calls == sent
        assert server.service.metrics.total_calls == served

    def test_client_keeps_its_own_ledger(self, cluster):
        _, client = cluster
        before = client.metrics.latency("getEntity").calls
        client.get_entities("歌手")
        after = client.metrics.latency("getEntity")
        assert after.calls == before + 1
        assert after.p99_seconds >= 0.0

    def test_replay_calls_drives_the_client_unchanged(self, cluster):
        _, client = cluster
        taxonomy = make_taxonomy()
        stream = TableIICallStream(
            ArgumentPools.from_taxonomy(taxonomy), seed=4
        )
        before = client.metrics.total_calls
        metrics = replay_calls(client, stream.generate(60), batch_size=8)
        assert metrics is client.metrics
        assert metrics.total_calls == before + 60


class TestWireErrors:
    def test_unknown_api_is_400(self, cluster):
        _, client = cluster
        with pytest.raises(APIError, match="unknown API"):
            client._request("/v1/getEverything?q=x")

    def test_missing_query_argument_is_400(self, cluster):
        _, client = cluster
        with pytest.raises(APIError, match="q="):
            client._request("/v1/men2ent")

    def test_empty_argument_is_400(self, cluster):
        _, client = cluster
        with pytest.raises(APIError, match="non-empty"):
            client.men2ent("")

    def test_malformed_batch_body_is_400(self, cluster):
        _, client = cluster
        with pytest.raises(APIError, match="arguments"):
            client._request("/v1/men2ent", body={"mentions": ["x"]})

    def test_unknown_path_is_404(self, cluster):
        server, _ = cluster
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_client_gives_up_after_retries(self):
        with TaxonomyClient(
            "http://127.0.0.1:9", retries=1, backoff_seconds=0.0
        ) as client:
            with pytest.raises(APIError, match="after 2 attempts"):
                client.men2ent("华仔")


class TestAdminAuth:
    def test_wrong_token_is_401(self, cluster):
        server, _ = cluster
        with TaxonomyClient(server.url, admin_token="wrong-token") as bad:
            with pytest.raises(APIError, match="HTTP 401"):
                bad.swap("/nonexistent.jsonl")

    def test_client_without_token_refuses_admin_calls(self, cluster):
        server, _ = cluster
        with TaxonomyClient(server.url) as anonymous:
            with pytest.raises(APIError, match="admin_token"):
                anonymous.swap("/nonexistent.jsonl")

    def test_tokenless_server_disables_admin_api(self):
        service = build_cluster(make_taxonomy(), shards=1)
        server = start_server(service)  # no admin token
        try:
            with TaxonomyClient(server.url, admin_token="anything") as client:
                with pytest.raises(APIError, match="HTTP 403"):
                    client.swap("/nonexistent.jsonl")
        finally:
            server.close()

    def test_swap_with_missing_file_is_400_and_keeps_serving(self, cluster):
        _, client = cluster
        with pytest.raises(APIError, match="still serving v1"):
            client.swap("/no/such/taxonomy.jsonl")
        assert client.healthz()["version"] == "v1"
        assert client.men2ent("华仔") == ["刘德华#0"]

    def test_swap_with_directory_is_400_not_500(self, cluster, tmp_path):
        # IsADirectoryError is an OSError, not a ReproError — it must
        # still land on the documented 400 "still serving" path
        _, client = cluster
        with pytest.raises(APIError, match="HTTP 400.*still serving v1"):
            client.swap(str(tmp_path))
        assert client.healthz()["version"] == "v1"


class TestDegradedCluster:
    """Availability failures are 503 (retryable) and visible on /healthz."""

    @pytest.fixture
    def degraded(self):
        from repro.serving import build_cluster as _build
        router = _build(make_taxonomy(), shards=2, replicas=2)
        server = start_server(router)
        for shard_id in range(router.n_shards):
            for replica_index in range(2):
                router.mark_unhealthy(shard_id, replica_index)
        yield server, router
        server.close()

    def test_healthz_degrades_to_503(self, degraded):
        server, _ = degraded
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/healthz")
        assert excinfo.value.code == 503
        with excinfo.value:
            payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["status"] == "degraded"
        assert payload["unhealthy_shards"] == [0, 1]

    def test_client_healthz_returns_degraded_payload(self, degraded):
        server, _ = degraded
        # the SDK reports the state instead of raising on the 503
        with TaxonomyClient(server.url) as client:
            payload = client.healthz()
        assert payload["status"] == "degraded"
        assert payload["unhealthy_shards"] == [0, 1]

    def test_replica_exhaustion_is_503_not_400(self, degraded):
        server, _ = degraded
        from urllib.parse import quote
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{server.url}/v1/men2ent?q={quote('华仔')}"
            )
        assert excinfo.value.code == 503
        with excinfo.value:
            payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "no healthy replica" in payload["error"]

    def test_healthz_recovers_after_probe(self, degraded):
        server, router = degraded
        assert router.probe_all() == 4
        with TaxonomyClient(server.url) as client:
            assert client.healthz()["status"] == "ok"
            assert client.men2ent("华仔") == ["刘德华#0"]


class TestSwapRoundTrip:
    """The acceptance round trip: start → query → swap → query → shutdown."""

    def test_query_swap_query_shutdown(self, tmp_path):
        service = build_cluster(make_taxonomy("歌手"), shards=2, replicas=2)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        try:
            assert client.healthz()["version"] == "v1"
            assert client.get_concepts("刘德华#0") == ["歌手", "演员"]

            rebuilt_path = tmp_path / "rebuilt.jsonl"
            make_taxonomy("影帝").save(rebuilt_path)
            swapped = client.swap(str(rebuilt_path))
            assert swapped == {"swapped": True, "version": "v2"}

            assert client.version()["shard_versions"] == ["v2", "v2"]
            assert client.get_concepts("刘德华#0") == ["影帝", "演员"]
            assert client.get_entities("歌手") == []

            assert client.shutdown_server() == {"shutting_down": True}
            server.wait()  # serve loop exits after the response
        finally:
            client.close()
            server.close()
        with TaxonomyClient(
            server.url, retries=0, backoff_seconds=0.0, timeout=1.0
        ) as late:
            with pytest.raises(APIError):
                late.men2ent("华仔")


class TestKeepAlive:
    """The pooled keep-alive transport and the server that serves it."""

    def test_threads_share_the_pool_without_mixing_answers(self, connects):
        calls = [
            ("men2ent", "华仔"), ("men2ent", "周杰伦"), ("men2ent", "无人"),
            ("get_concepts", "刘德华#0"), ("get_concepts", "周杰伦#0"),
            ("get_entities", "歌手"), ("get_entities", "演员"),
        ]
        reference = make_taxonomy()
        expected = [getattr(reference, api)(arg) for api, arg in calls]
        server = start_server(build_cluster(make_taxonomy(), shards=2))
        client = TaxonomyClient(server.url)
        wrong: list = []

        def caller(offset: int) -> None:
            # neighbouring threads make different calls at the same
            # moment: a connection shared by two of them would hand one
            # thread the other's answer
            for i in range(offset, offset + 50):
                api, argument = calls[i % len(calls)]
                answer = getattr(client, api)(argument)
                if answer != expected[i % len(calls)]:
                    wrong.append((api, argument, answer))

        # more threads than a small machine has cores, switched often,
        # so calls are preempted in the middle of their round trips
        threads = [
            threading.Thread(target=caller, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    client.close()
                    del client
                    gc.collect()
            finally:
                server.close()
        assert not [t for t in threads if t.is_alive()]
        assert not wrong, wrong[:5]
        # the pool grows to the calls in flight, never past them
        assert 1 <= len(connects) <= len(threads)
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]

    def test_sequential_singles_reuse_one_connection_without_stall(
        self, connects
    ):
        server = start_server(build_cluster(make_taxonomy(), shards=2))
        try:
            with TaxonomyClient(server.url) as client:
                started = time.perf_counter()
                for _ in range(50):
                    assert client.men2ent("华仔") == ["刘德华#0"]
                elapsed = time.perf_counter() - started
        finally:
            server.close()
        assert len(connects) == 1
        # a response written as head then body waits ~40 ms on each
        # keep-alive call for the client's delayed ACK: 2 s for 50
        assert elapsed < 1.0, f"50 singles took {elapsed:.2f}s"

    def test_restarted_server_costs_no_retry_and_one_swap(self, tmp_path):
        servers: list = []

        def restart(marker: str):
            """Close the serving server and bind its port anew."""
            port = 0
            if servers:
                port = servers[-1].server_address[1]
                servers[-1].close()
            servers.append(start_server(
                build_cluster(make_taxonomy(marker), shards=1),
                port=port, admin_token=ADMIN_TOKEN,
            ))
            return servers[-1]

        client = TaxonomyClient(restart("歌手").url, admin_token=ADMIN_TOKEN)
        try:
            assert client.get_concepts("刘德华#0") == ["歌手", "演员"]
            restart("影帝")
            # the pooled connection the restart closed is dropped before
            # the call, which is then not a retry
            assert client.get_concepts("刘德华#0") == ["影帝", "演员"]
            restart("歌神")
            # an admin mutation gets one attempt: it must not be spent
            # on the connection the restart closed
            rebuilt = tmp_path / "rebuilt.jsonl"
            make_taxonomy("影后").save(rebuilt)
            assert client.swap(str(rebuilt))["version"] == "v2"
            assert client.get_concepts("刘德华#0") == ["影后", "演员"]
        finally:
            client.close()
            for server in servers:
                server.close()
        assert client.wire_stats.retries == 0
        assert [server.service.metrics.swaps for server in servers] == [
            0, 0, 1,
        ]

    def test_closed_server_ends_its_open_connections(self):
        server = start_server(build_cluster(make_taxonomy(), shards=1))
        before = set(threading.enumerate())
        client = TaxonomyClient(server.url, retries=0, timeout=2.0)
        try:
            assert client.men2ent("华仔") == ["刘德华#0"]
            handlers = [t for t in threading.enumerate() if t not in before]
            assert handlers, "no handler thread serves the connection"
            server.close()
            for thread in handlers:
                thread.join(timeout=5)
            assert not [t for t in handlers if t.is_alive()]
            # nothing answers any more, not even on the pooled connection
            with pytest.raises(APIError):
                client.men2ent("华仔")
        finally:
            client.close()
            server.close()

    def test_only_http_and_https_urls(self):
        with pytest.raises(APIError, match="http:// or https://"):
            TaxonomyClient("ftp://127.0.0.1:21")


class TestWireFormatRaw:
    """Pin the documented JSON shapes with raw urllib (no SDK sugar)."""

    def test_single_payload_shape(self, cluster):
        server, _ = cluster
        from urllib.parse import quote
        with urllib.request.urlopen(
            f"{server.url}/v1/men2ent?q={quote('华仔')}"
        ) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload == {
            "api": "men2ent",
            "version": "v1",
            "argument": "华仔",
            "results": ["刘德华#0"],
        }

    def test_batch_payload_shape(self, cluster):
        server, _ = cluster
        body = json.dumps({"arguments": ["歌手"]}).encode("utf-8")
        request = urllib.request.Request(
            f"{server.url}/v1/getEntity", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload == {
            "api": "getEntity",
            "version": "v1",
            "results": [["刘德华#0", "周杰伦#0"]],
        }


class TestApplyDeltaEndpoint:
    """POST /admin/apply-delta: incremental publish over the wire."""

    def _delta_file(self, tmp_path, marker_old="歌手", marker_new="影帝"):
        from repro.taxonomy.delta import TaxonomyDelta, save_delta

        delta = TaxonomyDelta.compute(
            make_taxonomy(marker_old), make_taxonomy(marker_new)
        )
        path = tmp_path / "delta.jsonl"
        save_delta(delta, path)
        return path

    def test_apply_delta_round_trip(self, tmp_path):
        service = build_cluster(make_taxonomy("歌手"), shards=2, replicas=2)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        try:
            assert client.get_concepts("刘德华#0") == ["歌手", "演员"]
            payload = client.apply_delta(str(self._delta_file(tmp_path)))
            assert payload["applied"] is True
            assert payload["version"] == "v2"
            assert payload["delta"]["relations_changed"] == 0
            assert set(payload["shard_versions"]) <= {"v1", "v2"}
            assert client.get_concepts("刘德华#0") == ["影帝", "演员"]
            assert client.get_entities("歌手") == []
            assert client.server_metrics()["swaps"] == 1
        finally:
            client.close()
            server.close()

    def test_apply_delta_requires_auth(self, tmp_path):
        service = build_cluster(make_taxonomy("歌手"), shards=1, replicas=1)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        try:
            with TaxonomyClient(server.url, admin_token="wrong") as bad:
                with pytest.raises(APIError, match="401"):
                    bad.apply_delta(str(self._delta_file(tmp_path)))
            with TaxonomyClient(server.url) as tokenless:
                with pytest.raises(APIError, match="admin_token"):
                    tokenless.apply_delta(str(self._delta_file(tmp_path)))
        finally:
            server.close()

    def test_wrong_base_delta_is_refused_and_keeps_serving(self, tmp_path):
        service = build_cluster(make_taxonomy("歌手"), shards=2, replicas=1)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        try:
            # delta computed against a base the server is not serving:
            # its base_content_hash stamp arms the handshake, so the
            # mismatch surfaces as a clean 409 conflict carrying the
            # served version — and the old version keeps serving
            mismatched = self._delta_file(
                tmp_path, marker_old="影帝", marker_new="歌神"
            )
            with pytest.raises(DeltaConflictError) as excinfo:
                client.apply_delta(str(mismatched))
            assert excinfo.value.server_version == "v1"
            assert client.healthz()["version"] == "v1"
            assert client.get_concepts("刘德华#0") == ["歌手", "演员"]
        finally:
            client.close()
            server.close()

    def test_missing_delta_file_is_400(self, tmp_path):
        service = build_cluster(make_taxonomy("歌手"), shards=1, replicas=1)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        try:
            with pytest.raises(APIError, match="400"):
                client.apply_delta(str(tmp_path / "nope.jsonl"))
            assert client.healthz()["version"] == "v1"
        finally:
            client.close()
            server.close()

    def test_malformed_body_is_400(self, tmp_path):
        service = build_cluster(make_taxonomy("歌手"), shards=1, replicas=1)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        try:
            request = urllib.request.Request(
                f"{server.url}/admin/apply-delta",
                data=json.dumps({"wrong": "shape"}).encode("utf-8"),
                headers={"Authorization": f"Bearer {ADMIN_TOKEN}"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            excinfo.value.close()
            assert excinfo.value.code == 400
        finally:
            server.close()

    @pytest.mark.parametrize("bad_record", [
        pytest.param({
            "kind": "entity_add", "page_id": "王菲#0", "name": "王菲",
            "aliases": 5,
        }, id="non-list-aliases"),
        pytest.param(
            {"kind": "relation_change", "old": "x", "new": "y"},
            id="string-change-half",
        ),
        pytest.param({
            "kind": "entity_add", "page_id": "王菲#0", "name": "王菲",
            "aliases": [[1]],
        }, id="nested-alias"),
        pytest.param({
            "kind": "entity_add", "page_id": "王菲#0", "name": 1,
            "aliases": [],
        }, id="integer-name"),
        pytest.param({
            "kind": "relation_add", "hyponym": 1, "hypernym": "歌手",
            "source": "tag", "hyponym_kind": "entity", "score": 1.0,
        }, id="integer-hyponym"),
        pytest.param({
            # its name is a served mention, so its id would be sorted
            # into that mention's answer next to a string
            "kind": "entity_add", "page_id": 1, "name": "刘德华",
            "aliases": [],
        }, id="integer-page-id"),
        pytest.param({
            # a string is iterable: it used to decode as one-character
            # aliases
            "kind": "entity_add", "page_id": "阿甲#0", "name": "阿甲乙",
            "aliases": "阿甲",
        }, id="string-aliases"),
    ])
    def test_malformed_inline_delta_is_400(self, bad_record):
        """A record the parser cannot type is the sender's error (400),
        not the server's (500), and the served state does not move."""
        from repro.serving.sharding import ShardedSnapshotStore
        from repro.taxonomy.delta import TaxonomyDelta

        delta = TaxonomyDelta.compute(
            make_taxonomy("歌手"), make_taxonomy("影帝")
        )
        payload = delta.to_wire()
        payload["records"].append(bad_record)
        store = ShardedSnapshotStore(make_taxonomy("歌手"), n_shards=2)
        server = start_server(store, admin_token=ADMIN_TOKEN)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        try:
            before = client.version()
            request = urllib.request.Request(
                f"{server.url}/admin/apply-delta",
                data=json.dumps(
                    {"delta": payload, "base_version": "v1"}
                ).encode("utf-8"),
                headers={"Authorization": f"Bearer {ADMIN_TOKEN}"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            excinfo.value.close()
            assert excinfo.value.code == 400
            after = client.version()
            assert after["version"] == before["version"] == "v1"
            assert after["content_hash"] == before["content_hash"]
            assert client.get_concepts("刘德华#0") == ["歌手", "演员"]
        finally:
            client.close()
            server.close()


#: responses the client cannot read, each with whether the server hangs
#: up after it: every one must end the attempt in a transport error
MALFORMED_RESPONSES = {
    "eof-before-status-line": (b"", True),
    "bad-status-line": (
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n", False
    ),
    "not-http": (b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n", False),
    "unknown-version": (
        b"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n", False
    ),
    "head-cut-short": (b"HTTP/1.1 200 OK\r\nContent-Le", True),
    "line-too-long": (
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", False
    ),
    "too-many-headers": (
        b"HTTP/1.1 200 OK\r\n" + b"X-N: v\r\n" * 100 + b"\r\n", False
    ),
    "header-without-colon": (
        b"HTTP/1.1 200 OK\r\nContent-Length 2\r\n\r\n{}", False
    ),
    "bad-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}", False
    ),
    "negative-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}", False
    ),
    "two-content-lengths": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
        b"Content-Length: 2\r\n\r\n{}", False,
    ),
    "transfer-encoding": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n", False,
    ),
    "body-cut-short": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{\"results\"", True
    ),
}


class TestRetrySemantics:
    """Batched-read POSTs retry; admin mutations are never resent; a
    response the client cannot read is retried on a fresh connection."""

    class _CountingServer:
        """A scripted HTTP server: per-path request counts + failures.

        *raw* maps a path to the bytes its first request is answered
        with instead, and whether the server then hangs up; without
        hanging up it waits for the connection's next request.
        """

        def __init__(
            self,
            fail_times: dict[str, int],
            raw: dict[str, tuple[bytes, bool]] | None = None,
        ):
            import threading
            from http.server import (
                BaseHTTPRequestHandler,
                ThreadingHTTPServer,
            )

            counts: dict[str, int] = {}
            outer = self

            class Handler(BaseHTTPRequestHandler):
                protocol_version = "HTTP/1.1"

                def log_message(self, fmt, *args):  # noqa: A002
                    pass

                def _reply(self, status, payload):
                    body = json.dumps(payload).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)

                def _serve(self):
                    length = int(self.headers.get("Content-Length") or 0)
                    raw = self.rfile.read(length) if length else b""
                    path = self.path.split("?")[0]
                    counts[path] = counts.get(path, 0) + 1
                    if counts[path] == 1 and path in outer.raw:
                        wire, hang_up = outer.raw[path]
                        try:
                            self.wfile.write(wire)
                        except OSError:  # the client gave up reading
                            pass
                        self.close_connection = hang_up
                        return
                    if counts[path] <= outer.fail_times.get(path, 0):
                        self._reply(500, {"error": "scripted failure"})
                        return
                    if path.startswith("/v1/"):
                        if raw:
                            n = len(json.loads(raw)["arguments"])
                            self._reply(200, {"results": [[]] * n})
                        else:
                            self._reply(200, {"results": []})
                    elif path == "/admin/swap":
                        self._reply(200, {"swapped": True, "version": "v2"})
                    elif path == "/admin/apply-delta":
                        self._reply(200, {"applied": True, "version": "v2"})
                    else:
                        self._reply(404, {"error": "no such endpoint"})

                do_GET = do_POST = _serve  # noqa: N815

            self.fail_times = fail_times
            self.raw = raw or {}
            self.counts = counts
            self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
            host, port = self._server.server_address[:2]
            self.url = f"http://{host}:{port}"
            self._thread = threading.Thread(
                target=self._server.serve_forever, daemon=True
            )
            self._thread.start()

        def close(self):
            self._server.shutdown()
            self._server.server_close()

    @pytest.fixture
    def scripted(self, request):
        def start(fail_times, raw=None):
            server = self._CountingServer(fail_times, raw)
            request.addfinalizer(server.close)
            return server

        return start

    def test_batched_read_post_is_retried_after_5xx(self, scripted):
        server = scripted({"/v1/men2ent": 1})  # first attempt 500s
        with TaxonomyClient(server.url, backoff_seconds=0.0) as client:
            assert client.men2ent_batch(["华仔", "周杰伦"]) == [[], []]
        assert server.counts["/v1/men2ent"] == 2

    def test_single_get_is_retried_after_5xx(self, scripted):
        server = scripted({"/v1/getConcept": 1})
        with TaxonomyClient(server.url, backoff_seconds=0.0) as client:
            assert client.get_concepts("刘德华#0") == []
        assert server.counts["/v1/getConcept"] == 2

    def test_swap_is_never_resent(self, scripted):
        server = scripted({"/admin/swap": 99})  # always fails
        with TaxonomyClient(
            server.url, retries=3, backoff_seconds=0.0, admin_token="t"
        ) as client:
            with pytest.raises(APIError, match="after 1 attempts"):
                client.swap("/some/taxonomy.jsonl")
        assert server.counts["/admin/swap"] == 1  # one send, no retry

    def test_apply_delta_is_never_resent(self, scripted):
        server = scripted({"/admin/apply-delta": 99})
        with TaxonomyClient(
            server.url, retries=3, backoff_seconds=0.0, admin_token="t"
        ) as client:
            with pytest.raises(APIError, match="after 1 attempts"):
                client.apply_delta("/some/delta.jsonl")
        assert server.counts["/admin/apply-delta"] == 1

    def test_apply_delta_wire_is_never_resent(self, scripted):
        from repro.taxonomy.delta import TaxonomyDelta

        server = scripted({"/admin/apply-delta": 99})
        with TaxonomyClient(
            server.url, retries=3, backoff_seconds=0.0, admin_token="t"
        ) as client:
            with pytest.raises(APIError, match="after 1 attempts"):
                client.apply_delta_wire(
                    TaxonomyDelta(name="x"), base_version="v1"
                )
        assert server.counts["/admin/apply-delta"] == 1

    def test_shutdown_is_never_resent(self, scripted):
        server = scripted({"/admin/shutdown": 99})
        with TaxonomyClient(
            server.url, retries=3, backoff_seconds=0.0, admin_token="t"
        ) as client:
            with pytest.raises(APIError, match="after 1 attempts"):
                client.shutdown_server()

    @pytest.mark.parametrize(
        "wire, hang_up",
        list(MALFORMED_RESPONSES.values()),
        ids=list(MALFORMED_RESPONSES),
    )
    def test_an_unreadable_response_is_retried_on_a_fresh_connection(
        self, scripted, connects, wire, hang_up
    ):
        server = scripted({}, raw={"/v1/getConcept": (wire, hang_up)})
        with TaxonomyClient(
            server.url, retries=1, backoff_seconds=0.0, timeout=30.0
        ) as client:
            started = time.perf_counter()
            assert client.get_concepts("刘德华#0") == []
            elapsed = time.perf_counter() - started
            stats = client.wire_stats.as_dict()
        # refused on sight: a reader that waited for more bytes on the
        # open connection would have run into the 30-s timeout
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        assert server.counts["/v1/getConcept"] == 2
        assert (stats["requests"], stats["retries"]) == (2, 1)
        # the first connection was closed, not pooled: a pooled one the
        # server still holds open would have been reused for the retry
        assert len(connects) == 2

    def test_a_stale_second_response_never_answers_the_next_call(
        self, scripted
    ):
        stale = json.dumps({"results": ["stale"]}).encode("utf-8")
        fresh = json.dumps({"results": ["first"]}).encode("utf-8")
        wire = b"".join(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body)
            for body in (fresh, stale)
        )
        # both responses to one request, in one write, connection open
        server = scripted({}, raw={"/v1/getConcept": (wire, False)})
        with TaxonomyClient(server.url, retries=0, timeout=2.0) as client:
            assert client.get_concepts("刘德华#0") == ["first"]
            assert client.get_concepts("刘德华#0") == []
            assert client.get_concepts("刘德华#0") == []
        assert server.counts["/v1/getConcept"] == 3

