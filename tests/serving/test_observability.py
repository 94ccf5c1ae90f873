"""Unified telemetry across the serving stack.

Covers the observability acceptance gates end to end:

- a client-minted trace id shows up in spans recorded at the client,
  the HTTP server, the router, and the shard for the *same* request;
- ``/metrics`` stays consistent under concurrent readers while
  publishes swap snapshots underneath (no torn counters, every summary
  monotone in its quantiles);
- every ``publish_outcome`` event — including the ``merged``
  outcome — carries one normalized schema;
- the event log captures publishes, swaps, health transitions and
  resyncs with contiguous sequence numbers.
"""

import json
import threading
import time

import pytest

from repro.errors import APIError
from repro.obs import fresh_hub, trace_context
from repro.serving import (
    ReplicatedRouter,
    ShardedSnapshotStore,
    TaxonomyClient,
    build_cluster,
    start_server,
)
from repro.serving.sharding import shard_for
from repro.taxonomy.delta import TaxonomyDelta
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.service import PROBE_KEY, TaxonomyService
from repro.taxonomy.store import Taxonomy

ADMIN_TOKEN = "obs-test-token"

#: Keys every publish-report entry carries, whatever its outcome.
REPORT_SCHEMA = {
    "shard", "replica", "backend", "outcome", "version", "content_hash",
}


def make_taxonomy(generation: int = 0) -> Taxonomy:
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_entity(Entity("周杰伦#0", "周杰伦"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
    t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
    for n in range(generation):
        page_id = f"新星{n}#0"
        t.add_entity(Entity(page_id, f"新星{n}"))
        t.add_relation(IsARelation(page_id, "歌手", "tag"))
    return t


def nightly_delta(generation: int = 0) -> TaxonomyDelta:
    return TaxonomyDelta.compute(
        make_taxonomy(generation), make_taxonomy(generation + 1)
    )


class TestEndToEndTracing:
    def test_one_trace_id_spans_client_server_router_shard(self, connects):
        with fresh_hub() as hub:
            router = build_cluster(
                make_taxonomy(), shards=2, replicas=2, hub=hub
            )
            server = start_server(router, admin_token=ADMIN_TOKEN, hub=hub)
            client = TaxonomyClient(
                server.url, admin_token=ADMIN_TOKEN,
                trace_every=1, hub=hub,
            )
            try:
                # an untraced call first: the first in-process request
                # pays one-off client set-up, which must not be what
                # keeps the client span longer than the server span
                with TaxonomyClient(server.url) as warm_up:
                    warm_up.men2ent("华仔")
                connects_before = len(connects)
                for _ in range(20):
                    client.men2ent("华仔")
                client.men2ent_batch(["华仔", "周杰伦", "刘德华", "新星0"])
                traced_connects = len(connects) - connects_before
                # the server records its span after writing the response,
                # so the handler thread may still be finishing when this
                # read arrives — poll briefly
                full = []
                for _ in range(100):
                    by_trace = {}
                    for span in hub.traces.spans():
                        by_trace.setdefault(span.trace_id, []).append(span)
                    full = [
                        spans for spans in by_trace.values()
                        if {"client", "server", "router", "shard"}
                        <= {s.component for s in spans}
                    ]
                    if len(full) == 21:
                        break
                    time.sleep(0.01)
                # one full trace read back over the wire: the authorized
                # GET /admin/traces, spans in their as_dict form
                wire = client.fetch_traces(
                    trace_id=full[0][0].trace_id
                )["spans"] if full else []
            finally:
                client.close()
                server.close()
        # the 21 traced calls shared one keep-alive connection, so the
        # span checks below cover reused-connection round trips
        assert traced_connects == 1
        assert len(full) == 21, f"{len(full)} full-path traces of 21"
        for trace in full:
            seconds = {}
            for span in trace:
                seconds.setdefault(span.component, []).append(span.seconds)
            # the client measured the whole round trip; the server a
            # subset of it; the shard lookups (one per shard group) less
            [client_seconds] = seconds["client"]
            [server_seconds] = seconds["server"]
            assert client_seconds >= server_seconds
            assert server_seconds >= sum(seconds["shard"])
        assert {s["trace_id"] for s in wire} == {full[0][0].trace_id}
        spans = {s["component"]: s for s in wire}
        assert {"client", "server", "router", "shard"} <= set(spans)
        assert spans["client"]["seconds"] >= spans["server"]["seconds"]
        assert spans["server"]["seconds"] >= spans["shard"]["seconds"]
        assert spans["shard"]["shard"] is not None
        assert spans["shard"]["version"] == "v1"
        assert spans["router"]["operation"] == "men2ent"

    def test_ambient_trace_context_propagates_over_http(self):
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=1, hub=hub),
                admin_token=ADMIN_TOKEN, hub=hub,
            )
            client = TaxonomyClient(
                server.url, admin_token=ADMIN_TOKEN, hub=hub
            )
            try:
                with trace_context("ambient-42"):
                    client.men2ent("华仔")
                components = set()
                for _ in range(100):  # server span lands post-response
                    components = {
                        s.component
                        for s in hub.traces.spans(trace_id="ambient-42")
                    }
                    if "server" in components:
                        break
                    time.sleep(0.01)
            finally:
                client.close()
                server.close()
        assert {"client", "server", "shard"} <= components

    def test_probe_traffic_is_never_traced(self):
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=1, hub=hub),
                hub=hub,
            )
            try:
                from repro.taxonomy.service import PROBE_KEY

                with TaxonomyClient(
                    server.url, trace_every=1, hub=hub
                ) as client:
                    client.men2ent(PROBE_KEY)
            finally:
                server.close()
            # probes never mint a trace id, so no client span exists;
            # the untraced request leaves no server span either
            assert not [
                s for s in hub.traces.spans() if s.component == "client"
            ]

    def test_traces_endpoint_requires_admin(self):
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=1, hub=hub),
                admin_token=ADMIN_TOKEN, hub=hub,
            )
            try:
                with TaxonomyClient(server.url) as anonymous:
                    with pytest.raises(APIError):
                        anonymous.fetch_traces()
                    with pytest.raises(APIError):
                        anonymous.fetch_events()
            finally:
                server.close()


class TestMetricsUnderConcurrency:
    def test_concurrent_scrapes_during_publish_swaps(self):
        """Satellite 3: parallel readers during swaps see sane metrics."""
        with fresh_hub() as hub:
            router = build_cluster(
                make_taxonomy(), shards=2, replicas=2, hub=hub
            )
            server = start_server(router, admin_token=ADMIN_TOKEN, hub=hub)
            stop = threading.Event()
            failures: list[str] = []

            def scrape(client):
                last_calls = -1.0
                while not stop.is_set():
                    try:
                        payload = client.server_metrics()
                        text = client.server_metrics_text()
                    except Exception as exc:  # noqa: BLE001
                        failures.append(f"scrape failed: {exc}")
                        return
                    metrics = payload["metrics"]
                    for name, family in metrics.items():
                        if family["type"] != "summary":
                            continue
                        for sample in family["samples"]:
                            if not (sample["p50"] <= sample["p95"]
                                    <= sample["p99"]):
                                failures.append(
                                    f"{name}: torn quantiles {sample}"
                                )
                    calls = sum(
                        s["value"]
                        for s in metrics["serving_api_calls_total"]["samples"]
                    )
                    if calls < last_calls:
                        failures.append(
                            f"calls counter went backwards: "
                            f"{calls} < {last_calls}"
                        )
                    last_calls = calls
                    if f"# TYPE serving_api_calls_total counter" not in text:
                        failures.append("text exposition missing counter")

            clients = [
                TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
                for _ in range(3)
            ]
            readers = [
                threading.Thread(target=scrape, args=(client,))
                for client in clients
            ]
            for t in readers:
                t.start()
            reader_client = TaxonomyClient(server.url)
            try:
                for generation in range(4):
                    for _ in range(20):
                        reader_client.men2ent("华仔")
                    router.swap(make_taxonomy(generation + 1))
            finally:
                stop.set()
                for t in readers:
                    t.join(timeout=30)
                for client in clients + [reader_client]:
                    client.close()
                server.close()
            assert not failures, failures[:5]

    def test_ops_paths_stay_out_of_latency_summaries(self):
        """Satellite 2: /metrics and friends never skew the quantiles."""
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=1, hub=hub),
                admin_token=ADMIN_TOKEN, hub=hub,
            )
            try:
                with TaxonomyClient(
                    server.url, admin_token=ADMIN_TOKEN
                ) as client:
                    for _ in range(5):
                        client.server_metrics()
                        client.healthz()
                    client.men2ent("华仔")
                    payload = client.server_metrics()
            finally:
                server.close()
        families = payload["metrics"]
        latency_apis = {
            dict(s["labels"]).get("api")
            for s in families["http_request_seconds"]["samples"]
        }
        # only the /v1 query landed in the latency summary
        assert latency_apis == {"men2ent"}
        # ...while the request counter still saw the ops traffic
        counted = {
            dict(s["labels"])["path"]
            for s in families["http_requests_total"]["samples"]
        }
        assert {"/metrics", "/healthz", "/v1/men2ent"} <= counted


def storeless_router(hub):
    """Router over publish-capable local replicas (the chaos-cluster
    shape — a store-backed router's pinned locals skip the fan-out)."""
    from repro.serving.replica import LocalReplica

    replicas = [
        [LocalReplica(make_taxonomy(), hub=hub) for _ in range(2)]
    ]
    return ReplicatedRouter(replicas, base_version=1, hub=hub)


def logged_entries(hub, since: int) -> list[dict]:
    """The ``publish_outcome`` records logged after *since*, without the
    log's own ``seq``/``ts``/``kind`` envelope."""
    return [
        {k: v for k, v in record.items() if k not in ("seq", "ts", "kind")}
        for record in hub.events.records(kind="publish_outcome", since=since)
    ]


class TestPublishReportSchema:
    def test_all_entries_share_one_schema_including_merged(self):
        """The merged entry matches the per-replica shape."""
        with fresh_hub() as hub:
            router = storeless_router(hub)
            delta = nightly_delta()
            since = hub.events.last_seq
            router.publish_delta(delta, base_version=1, version=2)
            first = logged_entries(hub, since)
            since = hub.events.last_seq
            router.publish_delta(delta, base_version=1, version=2)
            merged = logged_entries(hub, since)
        assert len(first) == 2  # one entry per replica
        for entry in first + merged:
            assert set(entry) == REPORT_SCHEMA, entry
        assert all(e["outcome"] == "applied" for e in first)
        assert all(e["version"] == "v2" for e in first)
        assert all(e["shard"] == 0 for e in first)
        assert [e["replica"] for e in first] == [0, 1]
        assert [e["outcome"] for e in merged] == ["merged"]
        # cluster-level merged entry: no single replica to attribute
        assert merged[0]["shard"] is None
        assert merged[0]["replica"] is None
        assert merged[0]["version"] == "v2"
        assert merged[0]["content_hash"]

    def test_store_merge_reports_the_same_schema(self):
        """The store-backed merge site emits the identical entry shape."""
        with fresh_hub() as hub:
            store = ShardedSnapshotStore(make_taxonomy(), n_shards=2, hub=hub)
            router = ReplicatedRouter.from_store(store, replicas=2)
            delta = nightly_delta()
            router.publish_delta(delta, base_version=1, version=2)
            since = hub.events.last_seq
            router.publish_delta(delta, base_version=1, version=2)
            merged = logged_entries(hub, since)
        assert [e["outcome"] for e in merged] == ["merged"]
        assert set(merged[0]) == REPORT_SCHEMA

    def test_publish_outcomes_mirrored_into_event_log(self):
        with fresh_hub() as hub:
            router = storeless_router(hub)
            delta = nightly_delta()
            router.publish_delta(delta, base_version=1, version=2)
            router.publish_delta(delta, base_version=1, version=2)
            outcomes = [
                r["outcome"]
                for r in hub.events.records(kind="publish_outcome")
            ]
        assert outcomes.count("applied") == 2
        assert "merged" in outcomes


class TestEventLogIntegration:
    def test_swap_and_publish_events_with_contiguous_seqs(self):
        with fresh_hub() as hub:
            store = ShardedSnapshotStore(make_taxonomy(), n_shards=2, hub=hub)
            router = ReplicatedRouter.from_store(store, replicas=2)
            router.publish_delta(nightly_delta(0), base_version=1, version=2)
            router.swap(make_taxonomy(5))
            records = hub.events.records()
        kinds = {r["kind"] for r in records}
        # store-backed pinned replicas follow the store directly, so the
        # publish fan-out has no per-replica outcomes to report here
        assert {"publish", "swap"} <= kinds
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_health_transition_events(self):
        with fresh_hub() as hub:
            store = ShardedSnapshotStore(make_taxonomy(), n_shards=2, hub=hub)
            router = ReplicatedRouter.from_store(store, replicas=2)
            router.mark_unhealthy(0, 1)
            router.probe(0, 1)
            health_events = hub.events.records(kind="replica_health")
        assert [e["healthy"] for e in health_events] == [False, True]
        assert health_events[0]["reason"] == "operator"
        assert health_events[0]["shard"] == 0
        assert health_events[0]["replica"] == 1
        assert health_events[1]["reason"] == "probe_recovery"

    def test_events_over_http_with_since_cursor(self):
        with fresh_hub() as hub:
            router = build_cluster(
                make_taxonomy(), shards=2, replicas=2, hub=hub
            )
            server = start_server(router, admin_token=ADMIN_TOKEN, hub=hub)
            client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
            try:
                router.swap(make_taxonomy(1))
                first = client.fetch_events()
                assert first["events"], "swap produced no events"
                cursor = first["last_seq"]
                router.swap(make_taxonomy(2))
                second = client.fetch_events(since=cursor)
            finally:
                client.close()
                server.close()
        assert second["events"]
        assert all(e["seq"] > cursor for e in second["events"])
        assert json.dumps(second["events"])  # wire-serializable


class TestMetricsPayloadCompat:
    def test_legacy_keys_survive_alongside_registry(self):
        """The pre-telemetry /metrics consumers keep their fields."""
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=2, replicas=2, hub=hub),
                hub=hub,
            )
            try:
                with TaxonomyClient(server.url) as client:
                    client.men2ent("华仔")
                    payload = client.server_metrics()
            finally:
                server.close()
        for key in ("version", "swaps", "total_calls", "apis", "router"):
            assert key in payload, key
        assert "metrics" in payload
        assert "serving_api_calls_total" in payload["metrics"]


#: hits, misses and a probe, spread over both shards of a 2-shard layout
LEDGER_BATCH = ["华仔", "王菲", PROBE_KEY, "周杰伦", "无人", "刘德华"]
LEDGER_ANSWERS = [["刘德华#0"], [], [], ["周杰伦#0"], [], ["刘德华#0"]]


def ledger_groups() -> list[int]:
    """The router's shard groups for ``LEDGER_BATCH``, in serving order."""
    return list(dict.fromkeys(shard_for(key, 2) for key in LEDGER_BATCH))


class TestGroupLedger:
    """Every serving front records a batch as per-call samples, with
    one ledger update per group: the batch for the service, the store
    and the client, each shard group for the router."""

    @staticmethod
    def _count_updates(monkeypatch, metrics) -> list:
        """Record ``(api, samples, hits)`` per ``observe_group`` call."""
        updates = []
        observe_group = metrics.observe_group

        def counting(api, seconds, hits):
            updates.append((api, len(seconds), hits))
            observe_group(api, seconds, hits)

        monkeypatch.setattr(metrics, "observe_group", counting)
        return updates

    def test_batch_lands_per_call_with_one_update_per_group(
        self, monkeypatch
    ):
        assert len(ledger_groups()) == 2  # the router really splits it
        n_keys = sum(key != PROBE_KEY for key in LEDGER_BATCH)
        n_hits = sum(
            1 for key, answer in zip(LEDGER_BATCH, LEDGER_ANSWERS)
            if key != PROBE_KEY and answer
        )
        with fresh_hub() as hub:
            server = start_server(
                build_cluster(make_taxonomy(), shards=2, replicas=2, hub=hub),
                hub=hub,
            )
            client = TaxonomyClient(server.url, hub=hub)
            fronts = [
                (TaxonomyService(make_taxonomy(), hub=hub), 1),
                (ShardedSnapshotStore(make_taxonomy(), n_shards=2, hub=hub), 1),
                (
                    build_cluster(
                        make_taxonomy(), shards=2, replicas=2, hub=hub
                    ),
                    len(ledger_groups()),
                ),
                (client, 1),
            ]
            try:
                for front, n_groups in fronts:
                    updates = self._count_updates(monkeypatch, front.metrics)
                    front.men2ent("华仔")  # a single is a group of one
                    assert updates == [("men2ent", 1, 1)], front
                    entry = front.metrics.latency("men2ent")
                    calls, hits = entry.calls, entry.hits
                    samples = len(entry._samples)
                    assert front.men2ent_batch(LEDGER_BATCH) == LEDGER_ANSWERS
                    assert entry.calls - calls == n_keys, front
                    assert entry.hits - hits == n_hits, front
                    assert len(entry._samples) - samples == n_keys, front
                    batch_updates = updates[1:]
                    assert len(batch_updates) == n_groups, front
                    assert sum(size for _, size, _ in batch_updates) == n_keys
                    assert sum(hit for _, _, hit in batch_updates) == n_hits
            finally:
                client.close()
                server.close()

    def test_traced_batch_keeps_its_per_key_spans(self):
        with fresh_hub() as hub:
            service = TaxonomyService(make_taxonomy(), hub=hub)
            store = ShardedSnapshotStore(make_taxonomy(), n_shards=2, hub=hub)
            router = build_cluster(
                make_taxonomy(), shards=2, replicas=2, hub=hub
            )
            for trace_id, front in (
                ("ledger-service", service),
                ("ledger-store", store),
                ("ledger-router", router),
            ):
                with trace_context(trace_id):
                    assert front.men2ent_batch(LEDGER_BATCH) == LEDGER_ANSWERS

            def spans(trace_id):
                return [
                    (s.component, s.operation, s.outcome, s.shard,
                     s.version, s.content_hash)
                    for s in hub.traces.spans(trace_id=trace_id)
                ]

            served = [
                (key, "hit" if answer else "miss")
                for key, answer in zip(LEDGER_BATCH, LEDGER_ANSWERS)
                if key != PROBE_KEY
            ]
            # the one-shard store records a shard span per key
            assert spans("ledger-service") == [
                ("shard", "men2ent", outcome, 0, "v1",
                 service.content_hash)
                for _, outcome in served
            ]
            assert spans("ledger-store") == [
                ("shard", "men2ent", outcome, shard_for(key, 2), "v1",
                 store.content_hash)
                for key, outcome in served
            ]
            # the router traces groups, not keys: a shard and a router
            # span per shard group
            assert spans("ledger-router") == [
                (component, "men2ent", "ok", shard, "v1",
                 router.content_hash)
                for shard in ledger_groups()
                for component in ("shard", "router")
            ]


class CountingClock:
    """A fake clock: counts its reads, and no two timings it gives are
    the same length (the n-th read returns 1 + 2 + ... + n)."""

    def __init__(self) -> None:
        self.reads: list[float] = []

    def __call__(self) -> float:
        n = len(self.reads)
        self.reads.append(float(n * (n + 1) // 2))
        return self.reads[-1]

    def timings(self, since: int) -> list[float]:
        """The time between each pair of reads after the first *since*."""
        reads = self.reads[since:]
        return [end - start for start, end in zip(reads[::2], reads[1::2])]


#: 64 keys over both shards, known and unknown; the first lands on
#: shard 1, so first-seen shard order is not shard-id order
GROUP_BATCH = ["华仔", "周杰伦", "刘德华"] + [f"无人{i}" for i in range(61)]
GROUP_BATCH.sort(key=lambda key: shard_for(key, 2) == 0)


def served_groups(front, batch) -> list[list[str]]:
    """The groups *front* times a batch in: the batch itself, or the
    router's shard groups in first-seen shard order."""
    if not isinstance(front, ReplicatedRouter):
        return [list(batch)]
    order = dict.fromkeys(shard_for(key, 2) for key in batch)
    return [[key for key in batch if shard_for(key, 2) == shard]
            for shard in order]


class TestGroupRule:
    """Each in-process front times a served group once and records its
    counted calls at the group's per-call mean; a single is timed alone."""

    #: the modules whose ``elapsed`` the fake clock replaces
    CLOCKED = ("repro.serving.sharding", "repro.serving.router")

    @pytest.fixture
    def clock(self, monkeypatch):
        import importlib

        fake = CountingClock()
        for name in self.CLOCKED:
            monkeypatch.setattr(importlib.import_module(name), "elapsed", fake)
        return fake

    @classmethod
    def fronts(cls, hub):
        fronts = [
            TaxonomyService(make_taxonomy(), hub=hub),
            ShardedSnapshotStore(make_taxonomy(), n_shards=2, hub=hub),
            build_cluster(make_taxonomy(), shards=2, replicas=2, hub=hub),
        ]
        # each front's timing loop must read the fake clock, or the
        # counts below would fail, or pass, for the wrong reason
        for front in fronts:
            loop = "_serve_group" if isinstance(
                front, ReplicatedRouter
            ) else "_serve"
            assert getattr(type(front), loop).__module__ in cls.CLOCKED
        return fronts

    def test_a_batch_reads_the_clock_twice_per_group(self, clock):
        assert GROUP_BATCH[0] != GROUP_BATCH[-1]
        assert len(GROUP_BATCH) == 64
        assert shard_for(GROUP_BATCH[0], 2) == 1
        with fresh_hub() as hub:
            service, store, router = self.fronts(hub)
            for front, reads in ((service, 2), (store, 2), (router, 4)):
                before = len(clock.reads)
                front.men2ent_batch(GROUP_BATCH)
                assert len(clock.reads) - before == reads, front
                before = len(clock.reads)
                front.men2ent("华仔")
                assert len(clock.reads) - before == 2, front

    @pytest.mark.parametrize("batch", [
        GROUP_BATCH,
        [PROBE_KEY, "华仔", "无人", PROBE_KEY, "周杰伦", "王菲"],
        [PROBE_KEY, PROBE_KEY],
    ], ids=["64-keys", "probes-inside", "probes-only"])
    def test_a_group_lands_at_its_mean(self, clock, batch):
        with fresh_hub() as hub:
            for front in self.fronts(hub):
                since = len(clock.reads)
                assert front.men2ent("华仔") == ["刘德华#0"]
                entry = front.metrics.latency("men2ent")
                assert list(entry._samples) == clock.timings(since)
                calls, hits = entry.calls, entry.hits
                since = len(clock.reads)
                answers = front.men2ent_batch(batch)
                groups = served_groups(front, batch)
                expected: list[float] = []
                for group, seconds in zip(groups, clock.timings(since)):
                    # the mean is over every call the group answered;
                    # a probe's share leaves with it
                    n = sum(key != PROBE_KEY for key in group)
                    mean = [seconds / len(group)] * n
                    if n == len(group):
                        assert sum(mean) == pytest.approx(seconds)
                    expected += mean
                counted = [
                    answer for key, answer in zip(batch, answers)
                    if key != PROBE_KEY
                ]
                assert entry.calls - calls == len(counted), front
                assert entry.hits - hits == sum(map(bool, counted)), front
                assert list(entry._samples)[1:] == expected, front

    def test_a_traced_group_lands_at_the_mean_of_its_keys(self, clock):
        batch = ["华仔", PROBE_KEY, "无人", "周杰伦"]
        with fresh_hub() as hub:
            service, store, _ = self.fronts(hub)
            for front in (service, store):
                since = len(clock.reads)
                with trace_context("group-rule"):
                    front.men2ent_batch(batch)
                # each key timed alone for its span, the probe's too
                timings = clock.timings(since)
                assert len(timings) == len(batch)
                seconds = sum(timings)
                samples = list(front.metrics.latency("men2ent")._samples)
                assert samples == [seconds / 4] * 3, front

    def test_router_serves_groups_in_first_seen_shard_order(
        self, monkeypatch
    ):
        with fresh_hub() as hub:
            router = build_cluster(
                make_taxonomy(), shards=2, replicas=2, hub=hub
            )
            served = []
            serve_group = router._serve_group

            def recording(api_name, shard_id, arguments, pin=None):
                served.append((shard_id, list(arguments)))
                return serve_group(api_name, shard_id, arguments, pin=pin)

            monkeypatch.setattr(router, "_serve_group", recording)
            answers = router.men2ent_batch(GROUP_BATCH)
        assert served == [
            (shard_for(group[0], 2), group)
            for group in served_groups(router, GROUP_BATCH)
        ]
        assert [shard for shard, _ in served] == [1, 0]
        view = make_taxonomy().freeze()
        assert answers == [view.men2ent(key) for key in GROUP_BATCH]
