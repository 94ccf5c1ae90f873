"""Delta-aware replication end to end: remote replicas over real HTTP.

The topology under test is the paper's deployment shape grown one step
further: a hub (store-backed :class:`ReplicatedRouter`) plus remote
replica processes (in these tests: in-process
:class:`ClusterHTTPServer`s on real sockets) driven through
:class:`RemoteReplica`/:class:`TaxonomyClient`.  A nightly refresh
ships each shard's *slice* of the :class:`TaxonomyDelta` by value with
a ``base_version`` handshake; a replica that fell behind is caught up
by a composed delta chain when :class:`DeltaHistory` covers its lag
and healed by a one-shot full snapshot (``/admin/swap``) otherwise.
"""

import dataclasses
import threading

import pytest

from repro.errors import DeltaConflictError
from repro.obs import fresh_hub, get_hub
from repro.serving import (
    LocalReplica,
    RemoteReplica,
    ReplicaBackend,
    ReplicatedRouter,
    ShardedSnapshotStore,
    TaxonomyClient,
    build_cluster,
    shard_for,
    start_server,
)
from repro.taxonomy.delta import TaxonomyDelta
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.service import TaxonomyService
from repro.taxonomy.store import Taxonomy

ADMIN_TOKEN = "replication-test-token"

N_SHARDS = 2


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
        t.add_relation(
            IsARelation(page_id, "演员", "bracket", score=1.0 + n)
        )
    return t


def nightly_delta(generation: int) -> TaxonomyDelta:
    return TaxonomyDelta.compute(
        make_taxonomy(generation), make_taxonomy(generation + 1)
    )


class RemoteFixture:
    """One remote replica process: server + client + backend."""

    def __init__(self, taxonomy: Taxonomy, shard_id: int):
        self.server = start_server(
            build_cluster(taxonomy, shards=1), admin_token=ADMIN_TOKEN
        )
        self.client = TaxonomyClient(
            self.server.url, admin_token=ADMIN_TOKEN
        )
        self.backend = RemoteReplica(
            self.client, shard_id=shard_id, n_shards=N_SHARDS
        )

    def close(self):
        self.server.close()
        self.client.close()


@pytest.fixture
def hub():
    """Store-backed router over v1, one local replica per shard."""
    store = ShardedSnapshotStore(make_taxonomy(0), n_shards=N_SHARDS)
    return ReplicatedRouter.from_store(store, replicas=1)


@pytest.fixture
def remotes(request):
    """One remote replica per shard, started from the v1 taxonomy."""
    fixtures = [
        RemoteFixture(make_taxonomy(0), shard_id)
        for shard_id in range(N_SHARDS)
    ]
    request.addfinalizer(lambda: [f.close() for f in fixtures])
    return fixtures


def logged_outcomes(since: int) -> list[str]:
    """Outcomes of the ``publish_outcome`` events logged after *since*."""
    return [
        record["outcome"]
        for record in get_hub().events.records(
            kind="publish_outcome", since=since
        )
    ]


def attach(hub, remotes):
    for shard_id, fixture in enumerate(remotes):
        hub.attach_replica(shard_id, fixture.backend)


def make_front(kind, telemetry):
    """One publishing front at v1 over ``make_taxonomy(0)``."""
    if kind == "service":
        return TaxonomyService(make_taxonomy(0), hub=telemetry)
    store = ShardedSnapshotStore(
        make_taxonomy(0), n_shards=N_SHARDS, hub=telemetry
    )
    if kind == "store":
        return store
    if kind == "store_router":
        return ReplicatedRouter.from_store(store, replicas=2)
    return ReplicatedRouter(  # storeless, over publish-capable replicas
        [[LocalReplica(make_taxonomy(0), hub=telemetry)
          for _ in range(2)]],
        base_version=1, hub=telemetry,
    )


class TestRemoteReads:
    def test_remote_replica_satisfies_the_protocol(self, remotes):
        assert isinstance(remotes[0].backend, ReplicaBackend)

    def test_reads_spread_over_local_and_remote(self, hub, remotes):
        attach(hub, remotes)
        reference = make_taxonomy(0)
        for key in ("华仔", "刘德华", "周杰伦"):
            for _ in range(2):  # both rotation slots answer identically
                assert hub.men2ent(key) == reference.men2ent(key)
        assert hub.get_concepts("刘德华#0") == ["歌手", "演员"]
        assert hub.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]

    def test_dead_remote_fails_over_to_local(self, hub, remotes):
        attach(hub, remotes)
        for fixture in remotes:
            fixture.close()
        reference = make_taxonomy(0)
        for _ in range(4):
            assert hub.men2ent("华仔") == reference.men2ent("华仔")
        # the dead remotes were marked unhealthy along the way
        health = hub.health()
        assert any(
            not state["healthy"]
            for replicas in health
            for state in replicas
        )


class TestDeltaShipping:
    def test_publish_delta_advances_every_replica_in_lockstep(
        self, hub, remotes
    ):
        attach(hub, remotes)
        delta = nightly_delta(0)
        since = get_hub().events.last_seq
        result = hub.publish_delta(delta)
        assert result.version == 2  # the store's shard set
        # every remote-capable replica got its slice and is at v2
        assert logged_outcomes(since) == ["applied"] * N_SHARDS
        for fixture in remotes:
            assert fixture.client.version()["version"] == "v2"
        # and answers keys *it owns* exactly like the new build
        reference = make_taxonomy(1)
        for key in ("新星0", "新星0#0", "歌手", "演员"):
            shard_id = shard_for(key, N_SHARDS)
            fixture = remotes[shard_id]
            assert fixture.client.men2ent(key) == reference.men2ent(key)
            assert fixture.client.get_concepts(key) == \
                reference.get_concepts(key)
            assert fixture.client.get_entities(key) == \
                reference.get_entities(key)
        # the router end-to-end serves the new version from any replica
        for _ in range(2):
            assert hub.men2ent("新星0") == ["新星0#0"]

    def test_second_night_chains_on_the_first(self, hub, remotes):
        attach(hub, remotes)
        hub.publish_delta(nightly_delta(0))
        since = get_hub().events.last_seq
        hub.publish_delta(nightly_delta(1))
        assert logged_outcomes(since) == ["applied"] * N_SHARDS
        for fixture in remotes:
            assert fixture.client.version()["version"] == "v3"
        assert hub.version_lineage() == ["v2", "v3"]
        # the remote's own /version shows its applied-delta lineage
        assert remotes[0].client.version()["lineage"] == ["v2", "v3"]

    def test_lagging_replica_catches_up_by_chain(self, hub, remotes):
        # night 1 happens before the replicas join: they stay at v1
        hub.publish_delta(nightly_delta(0))
        attach(hub, remotes)
        # night 2: the handshake refuses (replicas are at v1, base is
        # v2) and the router composes the missed chain from history
        since = get_hub().events.last_seq
        hub.publish_delta(nightly_delta(1))
        assert logged_outcomes(since) == ["chained"] * N_SHARDS
        assert hub.stats.chain_catchups == N_SHARDS
        assert hub.stats.snapshot_heals == 0
        reference = make_taxonomy(2)
        for fixture in remotes:
            assert fixture.client.version()["version"] == "v3"
        for key in ("新星0", "新星1", "歌手"):
            fixture = remotes[shard_for(key, N_SHARDS)]
            assert fixture.client.men2ent(key) == reference.men2ent(key)
            assert fixture.client.get_entities(key) == \
                reference.get_entities(key)

    def test_replica_beyond_history_heals_by_snapshot(
        self, hub, remotes, tmp_path
    ):
        # night 1 by delta, then a full swap: the swap breaks the
        # delta chain (no history entry), so a v1 replica attached
        # afterwards cannot be caught up by chain
        hub.publish_delta(nightly_delta(0))
        hub.swap(make_taxonomy(2))  # v3
        attach(hub, remotes)
        snapshot_path = tmp_path / "current.jsonl"
        make_taxonomy(3).save(snapshot_path)
        since = get_hub().events.last_seq
        hub.publish_delta(
            nightly_delta(2), snapshot_path=str(snapshot_path)
        )
        assert logged_outcomes(since) == ["healed"] * N_SHARDS
        assert hub.stats.snapshot_heals == N_SHARDS
        reference = make_taxonomy(3)
        for fixture in remotes:
            # healed onto the full v4 snapshot, stamped into lockstep
            assert fixture.client.version()["version"] == "v4"
            assert fixture.client.men2ent("新星2") == \
                reference.men2ent("新星2")
        # the next night applies cleanly again — the replica rejoined
        since = get_hub().events.last_seq
        hub.publish_delta(nightly_delta(3))
        assert logged_outcomes(since) == ["applied"] * N_SHARDS

    def test_refusing_replica_without_heal_path_is_marked_failed(
        self, hub, remotes
    ):
        hub.publish_delta(nightly_delta(0))
        hub.swap(make_taxonomy(2))  # break the chain
        attach(hub, remotes)
        since = get_hub().events.last_seq
        hub.publish_delta(nightly_delta(2))  # no snapshot_path
        assert logged_outcomes(since) == ["failed"] * N_SHARDS
        # the stale replicas left the rotation; local replicas serve
        health = hub.health()
        for replicas in health:
            assert replicas[0]["healthy"] is True  # the store view
            assert replicas[1]["healthy"] is False  # the stale remote
        assert hub.men2ent("新星2") == ["新星2#0"]


class TestStorelessRouter:
    """A pure-remote router: every backend is a remote process."""

    @pytest.fixture
    def cluster(self, request):
        fixtures = [
            RemoteFixture(make_taxonomy(0), shard_id)
            for shard_id in range(N_SHARDS)
        ]
        request.addfinalizer(lambda: [f.close() for f in fixtures])
        router = ReplicatedRouter(
            [[fixtures[shard_id].backend] for shard_id in range(N_SHARDS)]
        )
        return router, fixtures

    def test_reads_route_over_the_wire(self, cluster):
        router, _ = cluster
        reference = make_taxonomy(0)
        assert router.men2ent("华仔") == reference.men2ent("华仔")
        assert router.men2ent_batch(["华仔", "周杰伦"]) == [
            ["刘德华#0"], ["周杰伦#0"],
        ]

    def test_publish_delta_returns_the_report(self, cluster):
        router, fixtures = cluster
        report = router.publish_delta(nightly_delta(0))
        assert [r["outcome"] for r in report] == ["applied"] * N_SHARDS
        for fixture in fixtures:
            assert fixture.client.version()["version"] == "v2"
        assert router.version_lineage() == ["v2"]
        # the router versioned the publish itself (storeless lineage)
        report = router.publish_delta(nightly_delta(1))
        assert [r["outcome"] for r in report] == ["applied"] * N_SHARDS
        assert router.version_lineage() == ["v2", "v3"]


class TestConflictHandshake:
    """The wire-level base_version handshake, seen from the client."""

    @pytest.fixture
    def remote(self, request):
        fixture = RemoteFixture(make_taxonomy(0), shard_id=0)
        request.addfinalizer(fixture.close)
        return fixture

    def test_stale_base_version_is_a_clean_conflict(self, remote):
        delta = nightly_delta(1)  # computed against v2, replica is v1
        with pytest.raises(DeltaConflictError) as excinfo:
            remote.client.apply_delta_wire(delta, base_version="v2")
        assert excinfo.value.server_version == "v1"
        # the old version is still serving, untouched
        assert remote.client.version()["version"] == "v1"
        assert remote.client.men2ent("华仔") == ["刘德华#0"]

    def test_retried_publish_surfaces_as_conflict_not_traceback(
        self, remote
    ):
        delta = nightly_delta(0)
        remote.client.apply_delta_wire(delta, base_version="v1")
        assert remote.client.version()["version"] == "v2"
        # an orchestrator re-sends the same publish (e.g. it timed out
        # reading the first response): the replica already holds the
        # exact bytes the delta produces, so it merges — no re-apply,
        # no 409, same version still serving
        payload = remote.client.apply_delta_wire(delta, base_version="v1")
        assert payload["applied"] is True
        assert payload["version"] == "v2"
        assert remote.client.version()["version"] == "v2"
        # a *different* delta against the same stale base is a genuine
        # divergence: clean conflict carrying version + content hash,
        # old answer kept
        diverged = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(2))
        with pytest.raises(DeltaConflictError) as excinfo:
            remote.client.apply_delta_wire(diverged, base_version="v1")
        assert excinfo.value.server_version == "v2"
        assert excinfo.value.server_content_hash == \
            make_taxonomy(1).content_hash()
        assert remote.client.version()["version"] == "v2"

    def test_matching_base_version_applies(self, remote):
        payload = remote.client.apply_delta_wire(
            nightly_delta(0), base_version="v1", version=2
        )
        assert payload["applied"] is True
        assert payload["version"] == "v2"
        assert remote.client.men2ent("新星0") == ["新星0#0"]

    def test_sliced_publish_only_touches_owned_keys(self, remote):
        delta = nightly_delta(0)
        sliced = delta.slice(lambda key: shard_for(key, N_SHARDS) == 0)
        remote.client.apply_delta_wire(
            sliced,
            base_version="v1",
            version=2,
            slice_spec={"shard_id": 0, "n_shards": N_SHARDS},
        )
        reference = make_taxonomy(1)
        base = make_taxonomy(0)
        for key in ("新星0", "新星0#0", "歌手", "演员"):
            expected = (
                reference if shard_for(key, N_SHARDS) == 0 else base
            )
            assert remote.client.men2ent(key) == expected.men2ent(key)
            assert remote.client.get_entities(key) == \
                expected.get_entities(key)


class TestRouterFrontedReplica:
    """A remote replica process running `serve --replicas R` puts a
    ReplicatedRouter in front of its store: version-stamped, sliced
    wire publishes must pass through it exactly like a bare store."""

    @pytest.fixture
    def remote(self, request):
        server = start_server(
            build_cluster(make_taxonomy(0), shards=2, replicas=2),
            admin_token=ADMIN_TOKEN,
        )
        request.addfinalizer(server.close)
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        request.addfinalizer(client.close)
        return client

    def test_wire_publish_with_version_and_handshake(self, remote):
        payload = remote.apply_delta_wire(
            nightly_delta(0), base_version="v1", version=3
        )
        assert payload["applied"] is True
        assert payload["version"] == "v3"
        assert remote.men2ent("新星0") == ["新星0#0"]
        assert remote.version()["lineage"] == ["v3"]
        # a re-sent identical publish merges (the router-fronted store
        # already holds the target bytes); a diverged one conflicts
        payload = remote.apply_delta_wire(
            nightly_delta(0), base_version="v1"
        )
        assert payload["version"] == "v3"
        diverged = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(2))
        with pytest.raises(DeltaConflictError) as excinfo:
            remote.apply_delta_wire(diverged, base_version="v1")
        assert excinfo.value.server_version == "v3"

    def test_sliced_wire_publish(self, remote):
        delta = nightly_delta(0)
        sliced = delta.slice(lambda key: shard_for(key, N_SHARDS) == 0)
        payload = remote.apply_delta_wire(
            sliced,
            base_version="v1",
            version=2,
            slice_spec={"shard_id": 0, "n_shards": N_SHARDS},
        )
        assert payload["applied"] is True
        reference, base = make_taxonomy(1), make_taxonomy(0)
        for key in ("新星0", "歌手"):
            expected = reference if shard_for(key, N_SHARDS) == 0 else base
            assert remote.men2ent(key) == expected.men2ent(key)


def test_storeless_stale_explicit_version_is_refused(request):
    from repro.errors import TaxonomyError

    fixture = RemoteFixture(make_taxonomy(0), shard_id=0)
    request.addfinalizer(fixture.close)
    router = ReplicatedRouter([[fixture.backend]], base_version=2)
    with pytest.raises(TaxonomyError, match="must be newer"):
        router.publish_delta(nightly_delta(0), version=2)
    # nothing was recorded or shipped: lineage and replica untouched
    assert router.version_lineage() == []
    assert fixture.client.version()["version"] == "v1"


class TestSwapWithRemotes:
    """A full swap must never leave a healthy-but-stale remote serving."""

    def test_swap_without_snapshot_parks_remotes_as_stale(
        self, hub, remotes
    ):
        attach(hub, remotes)
        since = get_hub().events.last_seq
        hub.swap(make_taxonomy(2))  # no snapshot_path: cannot ship it
        assert logged_outcomes(since) == ["stale"] * N_SHARDS
        # the remotes are out of the rotation…
        for replicas in hub.health():
            assert replicas[1]["healthy"] is False
        # …and the version-aware probe refuses to re-admit them while
        # they still serve v1 (alive, but behind the swap)
        assert hub.probe_all() == 0
        for replicas in hub.health():
            assert replicas[1]["healthy"] is False
        # reads keep answering the swapped version from local replicas
        assert hub.men2ent("新星1") == ["新星1#0"]

    def test_swap_with_snapshot_heals_remotes(self, hub, remotes, tmp_path):
        attach(hub, remotes)
        snapshot_path = tmp_path / "rebuilt.jsonl"
        make_taxonomy(2).save(snapshot_path)
        since = get_hub().events.last_seq
        hub.swap(make_taxonomy(2), snapshot_path=str(snapshot_path))
        assert logged_outcomes(since) == ["healed"] * N_SHARDS
        reference = make_taxonomy(2)
        for fixture in remotes:
            assert fixture.client.version()["version"] == "v2"
            assert fixture.client.men2ent("新星1") == \
                reference.men2ent("新星1")
        # healed replicas pass the version-aware probe and keep serving
        for replicas in hub.health():
            assert all(state["healthy"] for state in replicas)

    def test_healed_replica_is_probed_back_into_rotation(
        self, hub, remotes, tmp_path
    ):
        attach(hub, remotes)
        hub.swap(make_taxonomy(2))  # parks the remotes as stale
        # out-of-band heal (an operator swaps the replica directly,
        # stamped to the hub's version)…
        snapshot_path = tmp_path / "rebuilt.jsonl"
        make_taxonomy(2).save(snapshot_path)
        for fixture in remotes:
            fixture.client.swap(str(snapshot_path), version=2)
        # …after which the probe happily re-admits them
        assert hub.probe_all() == N_SHARDS
        for replicas in hub.health():
            assert all(state["healthy"] for state in replicas)


class TestVersionAlignedAdmission:
    """The rotation never mixes taxonomy versions — at attach, at
    probe, and across a publish that re-admits a caught-up replica."""

    def test_attach_parks_a_lagging_replica_until_publish(
        self, hub, remotes
    ):
        hub.publish_delta(nightly_delta(0))  # hub at v2, remotes at v1
        attach(hub, remotes)
        # parked on arrival: reads must not alternate v1/v2 answers
        for replicas in hub.health():
            assert replicas[1]["healthy"] is False
        for _ in range(4):
            assert hub.men2ent("新星0") == ["新星0#0"]
        # the next publish catches them up by chain and re-admits them
        since = get_hub().events.last_seq
        hub.publish_delta(nightly_delta(1))
        assert logged_outcomes(since) == ["chained"] * N_SHARDS
        for replicas in hub.health():
            assert all(state["healthy"] for state in replicas)
        for _ in range(4):  # both rotation slots serve v3 now
            assert hub.men2ent("新星1") == ["新星1#0"]

    def test_read_only_router_probe_ignores_foreign_versions(
        self, request
    ):
        # a storeless router that never published is a plain load
        # balancer: the replicas' own version lineage is not its
        # business, so a transient failure must not park them forever
        fixture = RemoteFixture(make_taxonomy(0), shard_id=0)
        request.addfinalizer(fixture.close)
        fixture.client.apply_delta_wire(nightly_delta(0))  # replica at v2
        router = ReplicatedRouter([[fixture.backend]])
        router.mark_unhealthy(0, 0)
        assert router.probe(0, 0) is True  # alive is enough here
        assert router.men2ent("新星0") == ["新星0#0"]


class TestMalformedVersionStamp:
    @pytest.fixture
    def remote(self, request):
        fixture = RemoteFixture(make_taxonomy(0), shard_id=0)
        request.addfinalizer(fixture.close)
        return fixture

    def test_garbage_stamps_are_rejected_not_coerced(self, remote):
        from repro.errors import APIError

        for garbage in (True, 4.9, "five", "v4.9", [4]):
            with pytest.raises(APIError, match="malformed publish version"):
                remote.client._request(
                    "/admin/apply-delta",
                    body={
                        "delta": nightly_delta(0).to_wire(),
                        "version": garbage,
                    },
                    admin=True,
                    idempotent=False,
                )
        assert remote.client.version()["version"] == "v1"  # untouched


class TestLockedHandshake:
    """base_version is compared inside the publish lock, not before it."""

    def test_store_level_handshake(self):
        from repro.serving.sharding import ShardedSnapshotStore

        store = ShardedSnapshotStore(make_taxonomy(0), n_shards=2)
        with pytest.raises(DeltaConflictError) as excinfo:
            store.publish_delta(nightly_delta(0), base_version=3)
        assert excinfo.value.server_version == "v1"
        assert store.version_id == "v1"  # old set still serving
        store.publish_delta(nightly_delta(0), base_version=1)
        assert store.version_id == "v2"

    def test_service_level_handshake(self):
        from repro.taxonomy.service import TaxonomyService

        service = TaxonomyService(make_taxonomy(0))
        with pytest.raises(DeltaConflictError):
            service.publish_delta(nightly_delta(0), base_version=7)
        assert service.version_id == "v1"
        service.publish_delta(nightly_delta(0), base_version=1)
        assert service.version_id == "v2"

    def test_parked_remote_is_readmitted_by_swap_heal(
        self, hub, remotes, tmp_path
    ):
        attach(hub, remotes)
        hub.swap(make_taxonomy(1))  # parks the remotes as stale
        for replicas in hub.health():
            assert replicas[1]["healthy"] is False
        snapshot_path = tmp_path / "rebuilt.jsonl"
        make_taxonomy(2).save(snapshot_path)
        since = get_hub().events.last_seq
        hub.swap(make_taxonomy(2), snapshot_path=str(snapshot_path))
        assert logged_outcomes(since) == ["healed"] * N_SHARDS
        # healed replicas rejoin the rotation immediately — no probe
        # round-trip needed
        for replicas in hub.health():
            assert all(state["healthy"] for state in replicas)
        for _ in range(4):
            assert hub.men2ent("新星1") == ["新星1#0"]

    def test_storeless_router_handshake_is_locked(self, monkeypatch):
        # two identical publishes race on a storeless router: the second
        # must see the first's published value and merge, never apply
        with fresh_hub() as telemetry:
            router = make_front("storeless_router", telemetry)
            history = router.delta_history
            record = history.record
            entered, release = threading.Event(), threading.Event()

            def held_record(*args, **kwargs):
                if not entered.is_set():  # hold the first publish here
                    entered.set()
                    release.wait(timeout=10)
                return record(*args, **kwargs)

            monkeypatch.setattr(history, "record", held_record)
            reports = []

            def publish():
                reports.append(
                    router.publish_delta(nightly_delta(0), base_version=1)
                )

            first = threading.Thread(target=publish)
            first.start()
            assert entered.wait(timeout=10)
            second = threading.Thread(target=publish)
            second.start()
            second.join(timeout=0.2)  # give it time to race the check
            release.set()
            first.join(timeout=10)
            second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        outcomes = sorted(
            tuple(entry["outcome"] for entry in report)
            for report in reports
        )
        assert outcomes == [("applied", "applied"), ("merged",)]
        assert router.version_lineage() == ["v2"]


@pytest.mark.parametrize(
    "kind", ["service", "store", "store_router", "storeless_router"]
)
def test_every_front_runs_the_same_handshake(kind):
    """Merge on a re-sent delta, 409 on a diverged one — at every front."""
    with fresh_hub() as telemetry:
        front = make_front(kind, telemetry)
        target_hash = make_taxonomy(1).content_hash()
        front.publish_delta(nightly_delta(0), base_version=1)
        assert front.content_hash == target_hash
        # re-sending the applied delta merges: nothing moves
        front.publish_delta(nightly_delta(0), base_version=1)
        assert front.content_hash == target_hash
        [merge] = telemetry.events.records(kind="delta_merge")
        assert (merge["version"], merge["content_hash"]) == (
            "v2", target_hash
        )
        # a stale base targeting different bytes is a clean conflict
        diverged = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(2))
        with pytest.raises(DeltaConflictError) as excinfo:
            front.publish_delta(diverged, base_version=1)
        assert excinfo.value.server_version == "v2"
        assert excinfo.value.server_content_hash == target_hash
        [conflict] = telemetry.events.records(kind="delta_conflict")
        assert conflict["version"] == "v2"
        assert conflict["base"] == "v1"
        assert front.content_hash == target_hash


class TestUnchainableHistory:
    """A history whose recorded deltas don't actually chain must never
    let a publish raise — the snapshot heal (or a failed mark) decides.

    The night published after the two unchainable rescores has its hash
    stamps stripped, so the refusing replicas' resync ladder can only
    take the ordinal chain v1 → v4, whose ``compose`` fails.  The same
    night *stamped* chains by content hash, skipping the rescores.
    """

    def _rescore_delta(self, old_score, new_score):
        # structural validation only checks serving-key presence, so
        # two independently-computed rescore deltas can both be
        # accepted while violating compose()'s strict chaining
        return TaxonomyDelta(
            name="CN-Probase",
            relations_changed=(
                (
                    IsARelation("刘德华#0", "歌手", "tag", score=old_score),
                    IsARelation("刘德华#0", "歌手", "tag", score=new_score),
                ),
            ),
        )

    def _publish_night(self, hub, remotes, delta, **kwargs):
        hub.publish_delta(self._rescore_delta(1.0, 2.0))  # v2
        hub.publish_delta(self._rescore_delta(5.0, 3.0))  # v3: unchains
        attach(hub, remotes)  # parked at v1
        since = get_hub().events.last_seq
        hub.publish_delta(delta, **kwargs)  # v4: must not raise
        return logged_outcomes(since)

    @staticmethod
    def _unstamped(delta):
        return dataclasses.replace(
            delta, base_content_hash=None, new_content_hash=None
        )

    def test_broken_chain_falls_back_instead_of_raising(
        self, hub, remotes, tmp_path
    ):
        snapshot_path = tmp_path / "current.jsonl"
        make_taxonomy(1).save(snapshot_path)
        # compose([d1, d2, d3]) raises inside the replica's resync,
        # which must fall through to the snapshot heal
        outcomes = self._publish_night(
            hub, remotes, self._unstamped(nightly_delta(0)),
            snapshot_path=str(snapshot_path),
        )
        assert outcomes == ["healed"] * N_SHARDS
        assert hub.stats.snapshot_heals == N_SHARDS
        for fixture in remotes:
            assert fixture.client.version()["version"] == "v4"

    def test_broken_chain_without_heal_path_marks_failed(
        self, hub, remotes
    ):
        outcomes = self._publish_night(
            hub, remotes, self._unstamped(nightly_delta(0))
        )
        assert outcomes == ["failed"] * N_SHARDS
        for replicas in hub.health():
            assert replicas[1]["healthy"] is False

    @pytest.mark.parametrize("with_snapshot", [False, True])
    def test_stamped_night_chains_by_content_hash(
        self, hub, remotes, tmp_path, with_snapshot
    ):
        kwargs = {}
        if with_snapshot:
            kwargs["snapshot_path"] = str(tmp_path / "unused.jsonl")
        outcomes = self._publish_night(
            hub, remotes, nightly_delta(0), **kwargs
        )
        assert outcomes == ["chained"] * N_SHARDS
        assert hub.stats.chain_catchups == N_SHARDS
        assert hub.content_hash == make_taxonomy(1).content_hash()
        for fixture in remotes:
            version = fixture.client.version()
            assert version["version"] == "v4"
            assert version["content_hash"] == hub.content_hash
        for replicas in hub.health():
            assert all(state["healthy"] for state in replicas)


def test_storeless_router_refuses_key_filter(request):
    from repro.errors import APIError

    fixture = RemoteFixture(make_taxonomy(0), shard_id=0)
    request.addfinalizer(fixture.close)
    router = ReplicatedRouter([[fixture.backend]])
    with pytest.raises(APIError, match="no backing store to key-filter"):
        router.publish_delta(
            nightly_delta(0), key_filter=lambda key: True
        )
    assert fixture.client.version()["version"] == "v1"  # nothing shipped
