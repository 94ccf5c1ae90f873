"""Tests for replication-aware routing (repro.serving.router)."""

import pytest

from repro.errors import APIError
from repro.serving.router import PROBE_KEY, ReplicatedRouter, StoreShardReplica
from repro.serving.sharding import ShardedSnapshotStore, shard_for
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy


class FakeReplica:
    """A scriptable shard backend: records calls, fails on demand."""

    def __init__(self, name: str, answers: dict[str, list[str]] | None = None):
        self.name = name
        self.answers = answers or {}
        self.failing = False
        self.calls: list[tuple[str, str]] = []

    def _lookup(self, api: str, argument: str) -> list[str]:
        if self.failing:
            raise ConnectionError(f"{self.name} is down")
        self.calls.append((api, argument))
        return list(self.answers.get(argument, ()))

    def men2ent(self, mention):
        return self._lookup("men2ent", mention)

    def get_concepts(self, page_id):
        return self._lookup("getConcept", page_id)

    def get_entities(self, concept):
        return self._lookup("getEntity", concept)


def one_shard_router(replicas, **kwargs):
    return ReplicatedRouter([replicas], **kwargs)


class TestSpreading:
    def test_round_robin_over_healthy_replicas(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        router = one_shard_router([a, b])
        for _ in range(6):
            assert router.men2ent("k") == ["x"]
        assert len(a.calls) == 3
        assert len(b.calls) == 3

    def test_batch_group_pins_one_replica(self):
        a = FakeReplica("a")
        b = FakeReplica("b")
        router = one_shard_router([a, b])
        router.men2ent_batch([f"k{i}" for i in range(8)])
        # the whole group went to exactly one backend
        assert sorted(
            (len(a.calls), len(b.calls))
        ) == [0, 8]

    def test_batch_groups_by_shard(self):
        # two shards, one replica each: each backend only ever sees
        # keys that hash to its shard
        shard0 = FakeReplica("s0")
        shard1 = FakeReplica("s1")
        router = ReplicatedRouter([[shard0], [shard1]])
        keys = [f"键{i}" for i in range(30)]
        router.men2ent_batch(keys)
        for backend, shard_id in ((shard0, 0), (shard1, 1)):
            assert backend.calls, "both shards should receive traffic"
            for _, key in backend.calls:
                assert shard_for(key, 2) == shard_id


class TestFailover:
    def test_failed_replica_marks_unhealthy_and_fails_over(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        a.failing = True
        router = one_shard_router([a, b])
        assert router.men2ent("k") == ["x"]
        assert router.men2ent("k") == ["x"]
        health = router.health()[0]
        assert [state["healthy"] for state in health] == [False, True]
        assert router.stats.failovers == 1
        assert len(b.calls) == 2

    def test_all_replicas_down_raises_unavailable(self):
        from repro.errors import ServiceUnavailableError

        a = FakeReplica("a")
        b = FakeReplica("b")
        a.failing = b.failing = True
        router = one_shard_router([a, b])
        # ServiceUnavailableError (an APIError) so the HTTP layer can
        # answer 503 and clients keep retrying
        with pytest.raises(ServiceUnavailableError, match="no healthy replica"):
            router.men2ent("k")
        assert all(not s["healthy"] for s in router.health()[0])

    def test_retries_bound_the_attempts(self):
        replicas = [FakeReplica(str(i)) for i in range(4)]
        for replica in replicas:
            replica.failing = True
        router = one_shard_router(replicas, retries=1)
        with pytest.raises(APIError, match="after 2 attempts"):
            router.men2ent("k")
        # only retries+1 backends were touched
        assert sum(s["failures"] for s in router.health()[0]) == 2

    def test_attempts_are_served_plus_failed_picks(self):
        from repro.errors import ServiceUnavailableError

        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        router = one_shard_router([a, b], probe_after=1)
        a.failing = True
        assert router.men2ent("k") == ["x"]  # a fails, b serves
        b.failing = True
        with pytest.raises(ServiceUnavailableError):
            router.men2ent("k")  # b fails; a's in-line probe fails
        a.failing = False
        # nothing healthy: the pick probes a, and it serves
        assert router.men2ent("k") == ["x"]
        assert router.stats.probe_recoveries == 1
        served = 2
        assert router.stats.failovers == 2
        assert router.stats.attempts == served + router.stats.failovers

    def test_metrics_only_count_served_answers(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        a.failing = True
        router = one_shard_router([a, b])
        router.men2ent("k")
        assert router.metrics.total_calls == 1


class TestProbing:
    def test_unhealthy_until_probe_passes(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        a.failing = True
        router = one_shard_router([a, b], probe_after=10_000)
        router.men2ent("k")  # trips a → unhealthy
        a.failing = False  # backend recovers...
        for _ in range(4):
            router.men2ent("k")
        # ...but without a probe it stays out of rotation
        assert not router.health()[0][0]["healthy"]
        assert router.probe(0, 0) is True
        assert router.health()[0][0]["healthy"]
        before = len(a.calls)
        router.men2ent("k")
        router.men2ent("k")
        assert len(a.calls) > before

    def test_probe_failure_keeps_replica_out(self):
        a = FakeReplica("a")
        a.failing = True
        b = FakeReplica("b")
        router = one_shard_router([a, b])
        router.men2ent("k")
        assert router.probe(0, 0) is False
        assert not router.health()[0][0]["healthy"]

    def test_auto_probe_after_skips(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        a.failing = True
        router = one_shard_router([a, b], probe_after=3)
        router.men2ent("k")  # a fails over to b, a unhealthy
        a.failing = False
        for _ in range(10):
            router.men2ent("k")
        # the in-line probe brought a back without any operator call
        assert router.health()[0][0]["healthy"]
        assert router.stats.probe_recoveries >= 1

    def test_probe_all_recovers_everything(self):
        a, b = FakeReplica("a"), FakeReplica("b")
        router = one_shard_router([a, b])
        router.mark_unhealthy(0, 0)
        router.mark_unhealthy(0, 1)
        assert router.probe_all() == 2
        assert all(s["healthy"] for s in router.health()[0])

    def test_probe_uses_healthcheck_when_present(self):
        class HealthcheckedReplica(FakeReplica):
            def __init__(self):
                super().__init__("hc")
                self.probed = False

            def healthcheck(self):
                self.probed = True
                return True

        replica = HealthcheckedReplica()
        router = one_shard_router([replica])
        router.mark_unhealthy(0, 0)
        assert router.probe(0, 0)
        assert replica.probed
        assert not replica.calls  # probe did not fake a real query

    def test_fallback_probe_uses_probe_key(self):
        a = FakeReplica("a")
        router = one_shard_router([a])
        router.mark_unhealthy(0, 0)
        assert router.probe(0, 0)
        assert a.calls == [("men2ent", PROBE_KEY)]


class TestStoreBackedRouter:
    @pytest.fixture
    def taxonomy(self):
        t = Taxonomy()
        t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
        t.add_entity(Entity("周杰伦#0", "周杰伦"))
        t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
        t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
        return t

    def test_from_store_serves_and_versions(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        router = ReplicatedRouter.from_store(store, replicas=3)
        assert router.n_shards == 2
        assert router.n_replicas == 3
        assert router.version_id == "v1"
        assert router.men2ent("华仔") == ["刘德华#0"]
        assert router.get_concepts("刘德华#0") == ["演员"]

    def test_swap_through_router_propagates_to_all_replicas(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        router = ReplicatedRouter.from_store(store, replicas=2)
        rebuilt = Taxonomy()
        rebuilt.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
        rebuilt.add_relation(IsARelation("刘德华#0", "导演", "bracket"))
        router.swap(rebuilt)
        assert router.version_id == "v2"
        assert router.shard_versions() == ["v2", "v2"]
        # every replica of every shard answers from the new version
        for _ in range(4):  # cycles the round-robin over both replicas
            assert router.get_concepts("刘德华#0") == ["导演"]

    def test_shared_metrics_ledger(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        router = ReplicatedRouter.from_store(store, replicas=2)
        router.men2ent("华仔")
        router.swap(taxonomy)
        assert store.metrics.total_calls == 1
        assert router.metrics.swaps == 1

    def test_store_shard_replica_pins_batches(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=1)
        replica = StoreShardReplica(store, 0)
        pinned = replica.pinned()
        store.swap(Taxonomy())
        # the pinned view still answers from the old version
        assert pinned.men2ent("华仔") == ["刘德华#0"]
        assert replica.men2ent("华仔") == []

    def test_storeless_router_rejects_versioning(self):
        router = one_shard_router([FakeReplica("a")])
        with pytest.raises(APIError):
            _ = router.version_id
        with pytest.raises(APIError):
            router.swap(Taxonomy())


class TestRouterBatchPinning:
    """A store-backed router must give batches the store's no-torn-
    batch guarantee even when a swap lands between shard groups."""

    N_ENTITIES = 60

    def _versioned_taxonomy(self, marker: str) -> Taxonomy:
        taxonomy = Taxonomy()
        for i in range(self.N_ENTITIES):
            page_id = f"路由{i}#0"
            taxonomy.add_entity(Entity(page_id, f"路由{i}"))
            taxonomy.add_relation(IsARelation(page_id, marker, "bracket"))
        return taxonomy

    def test_no_torn_batches_through_router_while_swapping(self):
        import threading

        markers = ("版本A", "版本B")
        taxonomies = [self._versioned_taxonomy(m) for m in markers]
        store = ShardedSnapshotStore(taxonomies[0], n_shards=4)
        router = ReplicatedRouter.from_store(store, replicas=2)
        page_ids = [f"路由{i}#0" for i in range(self.N_ENTITIES)]
        assert len({shard_for(p, 4) for p in page_ids}) > 1

        anomalies: list[tuple] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                batch = router.get_concepts_batch(page_ids)
                versions = {tuple(answer) for answer in batch}
                if len(versions) != 1:
                    anomalies.append(("torn batch", versions))
                    return

        def swapper() -> None:
            for i in range(40):
                router.swap(taxonomies[(i + 1) % 2])

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        swap_thread.join()
        stop.set()
        for thread in readers:
            thread.join()

        assert anomalies == []
        assert router.metrics.swaps == 40


class TestConstruction:
    def test_rejects_empty_topology(self):
        with pytest.raises(APIError):
            ReplicatedRouter([])
        with pytest.raises(APIError):
            ReplicatedRouter([[FakeReplica("a")], []])

    def test_rejects_bad_knobs(self):
        with pytest.raises(APIError):
            one_shard_router([FakeReplica("a")], retries=-1)
        with pytest.raises(APIError):
            one_shard_router([FakeReplica("a")], probe_after=0)
        store = ShardedSnapshotStore(Taxonomy(), n_shards=1)
        with pytest.raises(APIError):
            ReplicatedRouter.from_store(store, replicas=0)


class TestRoundRobinConcurrency:
    """The _pick read-increment and healthy filtering are one atomic
    step, and the cursor advances past the *chosen* replica — so a
    shrunken healthy subset still splits load evenly."""

    def test_survivors_split_load_evenly_when_one_replica_dies(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        c = FakeReplica("c", {"k": ["x"]})
        router = one_shard_router([a, b, c])
        router.mark_unhealthy(0, 1)  # b is down
        for _ in range(10):
            assert router.men2ent("k") == ["x"]
        # strict alternation between the survivors: 5/5, never 6/4 (the
        # pre-fix rotation let the replica after the dead slot absorb a
        # double share)
        assert len(a.calls) == 5
        assert len(c.calls) == 5
        assert len(b.calls) == 0

    def test_rotation_is_exact_under_concurrency(self):
        import threading

        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        c = FakeReplica("c", {"k": ["x"]})
        router = one_shard_router([a, b, c])
        c.failing = True  # auto-probes must not resurrect it mid-test
        router.mark_unhealthy(0, 2)  # c is down: survivors must alternate

        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []

        def hammer():
            barrier.wait()
            try:
                for _ in range(per_thread):
                    assert router.men2ent("k") == ["x"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer) for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = n_threads * per_thread
        # picks are atomic: every call answered, and the two healthy
        # replicas split the even total exactly — no lost increments,
        # no double-served rotation slots
        assert len(a.calls) + len(b.calls) == total
        assert len(a.calls) == len(b.calls) == total // 2
        assert len(c.calls) == 0

    def test_recovered_replica_rejoins_even_rotation(self):
        a = FakeReplica("a", {"k": ["x"]})
        b = FakeReplica("b", {"k": ["x"]})
        router = one_shard_router([a, b])
        router.mark_unhealthy(0, 0)
        for _ in range(4):
            router.men2ent("k")
        assert len(b.calls) == 4
        assert router.probe(0, 0)
        a.calls.clear()
        b.calls.clear()
        for _ in range(6):
            router.men2ent("k")
        assert len(a.calls) == 3
        assert len(b.calls) == 3


class TestAttachReplica:
    def test_attached_backend_joins_the_rotation(self):
        a = FakeReplica("a", {"k": ["x"]})
        router = one_shard_router([a])
        late = FakeReplica("late", {"k": ["x"]})
        router.attach_replica(0, late)
        for _ in range(4):
            assert router.men2ent("k") == ["x"]
        assert len(a.calls) == 2
        assert len(late.calls) == 2

    def test_unknown_shard_is_refused(self):
        router = one_shard_router([FakeReplica("a")])
        with pytest.raises(APIError, match="no shard 3"):
            router.attach_replica(3, FakeReplica("b"))
