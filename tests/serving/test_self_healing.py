"""Self-healing replication: resync outcomes and delta-chain edges.

The probe-time auto-resync contract under the awkward conditions:
a catch-up chain racing a concurrent publish, a history ring that has
already evicted the needed base, a second publisher shipping the same
nightly delta (merge, not fork), and the replica-driven
:func:`~repro.serving.replica.resync_replica` ladder — aligned →
chained → healed → refuse.
"""

import threading

import pytest

from repro.errors import APIError, DeltaConflictError
from repro.obs import get_hub
from repro.serving import (
    LocalReplica,
    RemoteReplica,
    ReplicatedRouter,
    ShardedSnapshotStore,
    TaxonomyClient,
    build_cluster,
    resync_replica,
    start_server,
)
from repro.taxonomy.delta import DELTA_HISTORY_SIZE, TaxonomyDelta, compose
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

ADMIN_TOKEN = "self-healing-test-token"


def make_taxonomy(generation: int = 0) -> Taxonomy:
    """A small world that grows one entity per generation."""
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


def nightly_delta(generation: int) -> TaxonomyDelta:
    return TaxonomyDelta.compute(
        make_taxonomy(generation), make_taxonomy(generation + 1)
    )


def advanced_store(publishes: int) -> ShardedSnapshotStore:
    """A hub store at v1 advanced through *publishes* delta publishes."""
    store = ShardedSnapshotStore(make_taxonomy(0), n_shards=1)
    for generation in range(publishes):
        store.publish_delta(
            nightly_delta(generation), base_version=generation + 1
        )
    return store


class TestResyncLadder:
    """resync_replica against an in-process source: every outcome."""

    def test_aligned_replica_is_left_alone(self):
        source = ShardedSnapshotStore(make_taxonomy(0), n_shards=1)
        replica = LocalReplica(make_taxonomy(0))
        report = resync_replica(replica, source)
        assert report["outcome"] == "aligned"
        assert report["from_hash"] == report["to_hash"]

    def test_lagging_replica_chains_to_byte_identical_state(self):
        source = advanced_store(2)  # v1 → v3
        replica = LocalReplica(make_taxonomy(0))
        report = resync_replica(replica, source)
        assert report["outcome"] == "chained"
        assert report["hops"] == 2
        assert replica.published().version_id == "v3"
        assert replica.published().content_hash == source.content_hash
        assert replica.men2ent("新星1") == ["新星1#0"]

    def test_evicted_ring_without_snapshot_refuses_loudly(self):
        # enough publishes that the ring no longer reaches back to v1
        source = advanced_store(DELTA_HISTORY_SIZE + 2)
        replica = LocalReplica(make_taxonomy(0))
        with pytest.raises(APIError, match="not covered"):
            resync_replica(replica, source)
        # the failed resync must leave the replica serving its old state
        assert replica.published().version_id == "v1"

    def test_evicted_ring_heals_through_the_snapshot(self, tmp_path):
        publishes = DELTA_HISTORY_SIZE + 2
        source = advanced_store(publishes)
        snapshot = tmp_path / "current.jsonl"
        make_taxonomy(publishes).save(snapshot)
        replica = LocalReplica(make_taxonomy(0))
        report = resync_replica(replica, source, snapshot_path=snapshot)
        assert report["outcome"] == "healed"
        assert replica.published().version_id == f"v{publishes + 1}"
        assert replica.published().content_hash == source.content_hash

    def test_resync_is_content_addressed_not_ordinal(self):
        # a replica whose ordinal matches the source but whose *bytes*
        # diverged (it was built from a different base) must not get a
        # chain blindly applied onto the wrong state
        source = advanced_store(1)  # at v2
        replica = LocalReplica(make_taxonomy(5), version=2)  # also "v2"
        # hash-aware planning sees the divergence: the matching ordinal
        # must not get the v1→v2 chain applied onto the wrong bytes —
        # with no snapshot to heal from, refusing loudly is the only
        # correct outcome
        with pytest.raises(APIError, match="not covered"):
            resync_replica(replica, source)
        assert replica.published().content_hash == (
            make_taxonomy(5).content_hash()
        )


class TestDeltaChainWire:
    """GET /admin/delta-chain + the wire merge/conflict handshake."""

    @pytest.fixture
    def cluster(self, request):
        service = build_cluster(make_taxonomy(0), shards=1)
        server = start_server(service, admin_token=ADMIN_TOKEN)
        request.addfinalizer(server.close)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        request.addfinalizer(client.close)
        return service, client

    def test_chain_by_content_hash_covers_the_span(self, cluster):
        service, client = cluster
        base_hash = service.content_hash
        client.apply_delta_wire(
            nightly_delta(0), base_version="v1", version=2
        )
        payload = client.fetch_chain(base_hash)
        assert payload["covered"] is True
        assert payload["version"] == "v2"
        assert payload["content_hash"] == service.content_hash
        [hop] = payload["deltas"]
        assert hop["base_version"] == "v1"
        assert hop["base_content_hash"] == base_hash

    def test_stale_remote_resync_reads_its_version_once(
        self, cluster, monkeypatch
    ):
        service, client = cluster  # the remote replica, stale at v1
        source = advanced_store(1)  # the publisher, at v2
        reads = []
        version = client.version

        def counted_version():
            reads.append("/version")
            return version()

        monkeypatch.setattr(client, "version", counted_version)
        report = resync_replica(RemoteReplica(client), source)
        assert report["outcome"] == "chained"
        assert reads == ["/version"]  # one read: ordinal and hash
        assert service.content_hash == source.content_hash

    def test_chain_by_version_id_and_uncovered_hash(self, cluster):
        service, client = cluster
        client.apply_delta_wire(
            nightly_delta(0), base_version="v1", version=2
        )
        by_version = client.fetch_chain("v1")
        assert by_version["covered"] is True
        assert len(by_version["deltas"]) == 1
        unknown = client.fetch_chain("f" * 64)  # no such lineage point
        assert unknown["covered"] is False
        assert unknown["deltas"] == []
        assert unknown["version"] == "v2"  # state still reported

    def test_duplicate_publish_merges_instead_of_conflicting(self, cluster):
        service, client = cluster
        delta = nightly_delta(0)
        first = client.apply_delta_wire(delta, base_version="v1", version=2)
        assert first["applied"] is True
        # the second builder ships the same nightly delta: same bytes,
        # so the hub converges (still v2) instead of raising a 409
        again = client.apply_delta_wire(delta, base_version="v1", version=2)
        assert again["applied"] is True
        assert service.version_id == "v2"

    def test_diverged_publish_conflicts_with_server_hash(self, cluster):
        service, client = cluster
        client.apply_delta_wire(
            nightly_delta(0), base_version="v1", version=2
        )
        diverged = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(3))
        with pytest.raises(DeltaConflictError) as excinfo:
            client.apply_delta_wire(diverged, base_version="v1", version=2)
        assert excinfo.value.server_version == "v2"
        assert excinfo.value.server_content_hash == service.content_hash

    def test_chain_fetch_racing_a_publish_stays_self_consistent(
        self, cluster
    ):
        """A fetch overlapping publishes returns a *consistent prefix*.

        Whatever interleaving happens, a covered payload's deltas must
        chain contiguously from the requested base to exactly the
        version and content hash the payload advertises — never a
        chain that stops short of the claimed state.
        """
        service, client = cluster
        base_hash = service.content_hash
        generations = 6
        errors: list[str] = []

        def publisher():
            for generation in range(generations):
                client.apply_delta_wire(
                    nightly_delta(generation),
                    base_version=f"v{generation + 1}",
                    version=generation + 2,
                )

        thread = threading.Thread(target=publisher)
        thread.start()
        try:
            for _ in range(20):
                payload = client.fetch_chain(base_hash)
                if not payload["covered"] or not payload["deltas"]:
                    continue
                hops = payload["deltas"]
                if hops[0]["base_content_hash"] != base_hash:
                    errors.append("chain does not start at the asked base")
                for earlier, later in zip(hops, hops[1:]):
                    if earlier["version"] != later["base_version"]:
                        errors.append("chain hops are not contiguous")
                if hops[-1]["version"] != payload["version"]:
                    errors.append("chain stops short of claimed version")
                if hops[-1]["content_hash"] != payload["content_hash"]:
                    errors.append("chain stops short of claimed hash")
        finally:
            thread.join()
        assert not errors, errors
        # and once quiet, the full span replays to the live bytes
        final = client.fetch_chain(base_hash)
        assert final["covered"] is True
        composed = compose([
            TaxonomyDelta.from_wire(hop["delta"], "race-test")
            for hop in final["deltas"]
        ])
        replayed = make_taxonomy(0).apply_delta(composed)
        assert replayed.content_hash() == service.content_hash


class TestProbeTimeResync:
    """The router end of self-healing: stale replicas pull their own fix."""

    def test_stale_attached_replica_rejoins_via_probe(self):
        replicas = [LocalReplica(make_taxonomy(0)) for _ in range(2)]
        router = ReplicatedRouter([list(replicas)], base_version=1)
        router.publish_delta(nightly_delta(0), base_version=1, version=2)
        # a replica restored from an old backup joins one version behind
        stale = LocalReplica(make_taxonomy(0), name="stale")
        router.attach_replica(0, stale)
        assert router.health()[0][-1]["healthy"] is False  # parked
        events = get_hub().events
        since = events.last_seq
        assert router.probe(0, 2) is True
        assert router.stats.probe_resyncs == 1
        assert router.stats.resync_chains == 1
        assert stale.published().content_hash == router.content_hash
        [resync] = events.records(kind="resync", since=since)
        assert resync["outcome"] == "chained"
        assert resync["hops"] == 1

    def test_wire_source_resync_uses_the_chain_endpoint(self, request):
        hub_service = build_cluster(make_taxonomy(0), shards=1)
        server = start_server(hub_service, admin_token=ADMIN_TOKEN)
        request.addfinalizer(server.close)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        request.addfinalizer(client.close)
        client.apply_delta_wire(
            nightly_delta(0), base_version="v1", version=2
        )
        client.apply_delta_wire(
            nightly_delta(1), base_version="v2", version=3
        )
        replica = LocalReplica(make_taxonomy(0))
        report = resync_replica(replica, client)  # source speaks HTTP
        assert report["outcome"] == "chained"
        assert report["hops"] == 2
        assert replica.published().version_id == "v3"
        assert replica.published().content_hash == hub_service.content_hash


class TestSilentRestart:
    """A replica that restarts stale without failing a call.

    It stays healthy in the rotation, so only the version each answer
    reports can tell the router it serves the pre-publish taxonomy.
    """

    NEW_KEY = "新星0"  # absent at v1, served from v2 on

    def test_chaos_replica_restarted_after_a_publish_is_refused(self):
        from repro.workloads import FaultSpec, build_chaos_cluster

        cluster = build_chaos_cluster(
            make_taxonomy(0), FaultSpec(replicas=3, probe_after=1)
        )
        router = cluster.router
        router.publish_delta(nightly_delta(0), base_version=1, version=2)
        cluster.replicas[0].kill()
        cluster.replicas[0].restart()  # back from the base snapshot: v1
        answers = [router.men2ent(self.NEW_KEY) for _ in range(6)]
        assert answers == [["新星0#0"]] * 6
        router.probe_all()
        assert cluster.replicas[0].inner_version() == "v2"
        assert cluster.convergence()["converged"] is True

    def test_settle_resyncs_a_restart_no_read_has_hit(self):
        from repro.workloads import FaultSpec, build_chaos_cluster

        cluster = build_chaos_cluster(
            make_taxonomy(0), FaultSpec(replicas=3, probe_after=1)
        )
        cluster.router.publish_delta(
            nightly_delta(0), base_version=1, version=2
        )
        cluster.replicas[1].kill()
        cluster.replicas[1].restart()
        assert cluster.settle() == 1
        assert cluster.replicas[1].inner_version() == "v2"
        assert cluster.convergence()["converged"] is True

    def test_remote_restarted_on_its_port_is_refused(self, request):
        def serve(port: int = 0):
            store = ShardedSnapshotStore(make_taxonomy(0), n_shards=1)
            server = start_server(store, port=port, admin_token=ADMIN_TOKEN)
            request.addfinalizer(server.close)
            return server

        servers = [serve(), serve()]
        clients = []
        for server in servers:
            client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
            request.addfinalizer(client.close)
            clients.append(client)
        router = ReplicatedRouter(
            [[RemoteReplica(client) for client in clients]], base_version=1
        )
        router.publish_delta(nightly_delta(0), base_version=1, version=2)
        assert [c.version()["version"] for c in clients] == ["v2", "v2"]
        # replica 0's process restarts from its base snapshot on the
        # same port; the pooled client reconnects without a failed call
        port = servers[0].server_address[1]
        servers[0].close()
        serve(port)
        answers = [router.men2ent(self.NEW_KEY) for _ in range(6)]
        assert answers == [["新星0#0"]] * 6
        assert router.health()[0][0]["healthy"] is False  # refused
        assert router.probe_all() == 1
        assert clients[0].version()["version"] == "v2"
        assert router.health()[0][0]["healthy"] is True

    def test_group_answered_from_two_versions_is_refused(self):
        class Straddling(LocalReplica):
            """Answers its first lookup from v1, the rest from v2: a
            remote's per-argument GETs with a publish landing between."""

            def versioned_reader(self):
                read = super().versioned_reader()
                versions = iter((1, 2, 2, 2))
                return lambda api, key: (read(api, key)[0], next(versions))

        torn = Straddling(make_taxonomy(0), name="torn")
        steady = LocalReplica(make_taxonomy(0), name="steady")
        router = ReplicatedRouter([[torn, steady]], base_version=1)
        assert router.men2ent_batch(["华仔", "周杰伦"]) == [
            ["刘德华#0"], ["周杰伦#0"],
        ]
        assert router.stats.failovers == 1
        assert router.health()[0][0]["healthy"] is False
