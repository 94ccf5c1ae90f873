"""Tests for the key-hashed sharded snapshot store (repro.serving.sharding)."""

import random
import threading

import pytest

from repro.errors import APIError
from repro.serving.sharding import (
    ShardSet,
    ShardedSnapshotStore,
    shard_for,
    shard_ids,
)
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.service import TaxonomyService
from repro.taxonomy.store import Taxonomy
from repro.workloads import ArgumentPools, TableIICallStream


def make_taxonomy(n_entities: int = 120, seed: int = 3) -> Taxonomy:
    """A taxonomy big enough that every shard count gets populated."""
    rng = random.Random(seed)
    taxonomy = Taxonomy()
    concepts = [f"概念{i}" for i in range(24)]
    for i in range(n_entities):
        page_id = f"实体{i}#0"
        aliases = (f"别名{i}",) if i % 2 else ()
        taxonomy.add_entity(Entity(page_id, f"实体{i}", aliases=aliases))
        for concept in rng.sample(concepts, k=rng.randint(1, 3)):
            taxonomy.add_relation(IsARelation(page_id, concept, "bracket"))
    return taxonomy


@pytest.fixture(scope="module")
def taxonomy():
    return make_taxonomy()


@pytest.fixture(scope="module")
def reference(taxonomy):
    return TaxonomyService(taxonomy)


class TestShardFor:
    def test_stable_and_in_range(self):
        for key in ("华仔", "实体7#0", "概念3", "x"):
            first = shard_for(key, 4)
            assert first == shard_for(key, 4)
            assert 0 <= first < 4

    def test_single_shard_is_zero(self):
        assert shard_for("anything", 1) == 0

    def test_invalid_shard_count(self):
        with pytest.raises(APIError):
            shard_for("key", 0)

    def test_a_group_is_placed_as_its_keys_are(self):
        keys = ["华仔", "实体7#0", "概念3", "x", "华仔", "__probe__"]
        for n_shards in (1, 2, 3, 4):
            assert shard_ids(keys, n_shards) == [
                shard_for(key, n_shards) for key in keys
            ]
        assert shard_ids([], 4) == []
        with pytest.raises(APIError):
            shard_ids(keys, 0)


class TestPartition:
    def test_each_key_lands_in_exactly_one_shard(self, taxonomy):
        shard_set = ShardSet.partition(1, taxonomy, 4)
        frozen = taxonomy.freeze()
        for index_pos in range(3):
            full = frozen.as_indexes()[index_pos]
            seen: dict[str, int] = {}
            for shard in shard_set.shards:
                for key in shard.read_view.as_indexes()[index_pos]:
                    assert key not in seen
                    seen[key] = shard.shard_id
                    assert shard.shard_id == shard_for(key, 4)
            assert set(seen) == set(full)

    def test_all_shard_counts_cover_all_relations(self, taxonomy):
        frozen = taxonomy.freeze()
        total = sum(
            len(v) for v in frozen.as_indexes()[1].values()
        )
        for n_shards in (1, 2, 4):
            shard_set = ShardSet.partition(1, taxonomy, n_shards)
            assert sum(len(s.read_view) for s in shard_set.shards) == total

    def test_partition_from_frozen_view(self, taxonomy):
        frozen = taxonomy.freeze()
        a = ShardSet.partition(1, taxonomy, 2)
        b = ShardSet.partition(1, frozen, 2)
        for shard_a, shard_b in zip(a.shards, b.shards):
            assert shard_a.read_view.as_indexes() == \
                shard_b.read_view.as_indexes()


class TestAnswerIdentity:
    """Sharded answers must be byte-identical to the unsharded facade."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_full_workload_singles(self, taxonomy, reference, n_shards):
        store = ShardedSnapshotStore(taxonomy, n_shards=n_shards)
        calls = TableIICallStream(
            ArgumentPools.from_taxonomy(taxonomy), seed=11
        ).generate(1_500)
        single = {
            "men2ent": (store.men2ent, reference.men2ent),
            "getConcept": (store.get_concepts, reference.get_concepts),
            "getEntity": (store.get_entities, reference.get_entities),
        }
        for call in calls:
            sharded, unsharded = single[call.api]
            assert sharded(call.argument) == unsharded(call.argument)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_full_workload_batched(self, taxonomy, reference, n_shards):
        store = ShardedSnapshotStore(taxonomy, n_shards=n_shards)
        generator = TableIICallStream(
            ArgumentPools.from_taxonomy(taxonomy), seed=12
        )
        buffers: dict[str, list[str]] = {
            "men2ent": [], "getConcept": [], "getEntity": [],
        }
        for call in generator.generate(1_200):
            buffers[call.api].append(call.argument)
        assert store.men2ent_batch(buffers["men2ent"]) == \
            reference.men2ent_batch(buffers["men2ent"])
        assert store.get_concepts_batch(buffers["getConcept"]) == \
            reference.get_concepts_batch(buffers["getConcept"])
        assert store.get_entities_batch(buffers["getEntity"]) == \
            reference.get_entities_batch(buffers["getEntity"])

    def test_batch_preserves_argument_order(self, taxonomy, reference):
        store = ShardedSnapshotStore(taxonomy, n_shards=4)
        mentions = [f"实体{i}" for i in range(40)] + ["不存在的词"]
        assert store.men2ent_batch(mentions) == \
            reference.men2ent_batch(mentions)

    def test_list_passed_to_a_single_is_refused(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        with pytest.raises(APIError, match="non-empty string"):
            store.get_entities(["概念1"])
        assert store.metrics.total_calls == 0


class TestValidationAndMetrics:
    def test_empty_argument_rejected(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        with pytest.raises(APIError):
            store.men2ent("")
        with pytest.raises(APIError):
            store.get_concepts_batch(["实体1#0", ""])
        assert store.metrics.total_calls == 0

    def test_batch_rejects_single_string(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        with pytest.raises(APIError, match="sequence"):
            store.men2ent_batch("华仔")

    def test_metrics_accounting(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=4)
        store.men2ent("实体1")
        store.men2ent("无此词")
        store.get_entities_batch(["概念1", "概念2"])
        metrics = store.metrics
        assert metrics.total_calls == 4
        assert metrics.latency("men2ent").calls == 2
        assert metrics.latency("men2ent").hits == 1
        assert metrics.latency("getEntity").calls == 2

    def test_invalid_shard_count(self, taxonomy):
        with pytest.raises(APIError):
            ShardedSnapshotStore(taxonomy, n_shards=0)


class TestSwap:
    def test_swap_bumps_every_shard_version(self, taxonomy):
        store = ShardedSnapshotStore(taxonomy, n_shards=4)
        assert store.version_id == "v1"
        assert store.shard_versions() == ["v1"] * 4
        rebuilt = make_taxonomy(seed=9)
        shard_set = store.swap(rebuilt)
        assert shard_set.version_id == "v2"
        assert store.shard_versions() == ["v2"] * 4
        assert store.metrics.swaps == 1

    def test_swap_changes_answers(self):
        old = Taxonomy()
        old.add_entity(Entity("e#0", "e"))
        old.add_relation(IsARelation("e#0", "旧概念", "bracket"))
        new = Taxonomy()
        new.add_entity(Entity("e#0", "e"))
        new.add_relation(IsARelation("e#0", "新概念", "bracket"))
        store = ShardedSnapshotStore(old, n_shards=2)
        assert store.get_concepts("e#0") == ["旧概念"]
        store.swap(new)
        assert store.get_concepts("e#0") == ["新概念"]

    def test_failed_swap_is_all_or_nothing(self, taxonomy, monkeypatch):
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        before = store.shard_set

        class ExplodingTaxonomy:
            name = "boom"

            def as_indexes(self):
                raise RuntimeError("partition exploded mid-way")

        with pytest.raises(RuntimeError):
            store.swap(ExplodingTaxonomy())
        # old version untouched, still serving, no half-published shards
        assert store.shard_set is before
        assert store.version_id == "v1"
        assert store.metrics.swaps == 0
        assert store.men2ent("实体1") == ["实体1#0"]

    def test_immune_to_source_mutation_after_publish(self):
        taxonomy = Taxonomy()
        taxonomy.add_entity(Entity("e#0", "e"))
        taxonomy.add_relation(IsARelation("e#0", "概念", "bracket"))
        store = ShardedSnapshotStore(taxonomy, n_shards=2)
        taxonomy.add_entity(Entity("f#0", "f"))
        taxonomy.add_relation(IsARelation("f#0", "概念", "bracket"))
        assert store.get_entities("概念") == ["e#0"]


class TestConcurrentSwapUnderLoad:
    """Satellite: hammer batches from threads while versions swap.

    Every key answers a version-marker concept, so a torn batch (some
    answers from v_n, some from v_n+1) is directly observable.  The
    pinned-ShardSet design must make that impossible at any shard
    count.
    """

    N_ENTITIES = 60

    def _versioned_taxonomy(self, marker: str) -> Taxonomy:
        taxonomy = Taxonomy()
        for i in range(self.N_ENTITIES):
            page_id = f"并发{i}#0"
            taxonomy.add_entity(Entity(page_id, f"并发{i}"))
            taxonomy.add_relation(IsARelation(page_id, marker, "bracket"))
        return taxonomy

    def test_no_torn_batches_while_swapping(self):
        markers = ("版本A", "版本B")
        taxonomies = [self._versioned_taxonomy(m) for m in markers]
        store = ShardedSnapshotStore(taxonomies[0], n_shards=4)
        page_ids = [f"并发{i}#0" for i in range(self.N_ENTITIES)]
        # the ids must actually span shards for the test to mean anything
        assert len({shard_for(p, 4) for p in page_ids}) > 1

        anomalies: list[tuple] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                batch = store.get_concepts_batch(page_ids)
                versions = {tuple(answer) for answer in batch}
                if len(versions) != 1:
                    anomalies.append(("torn batch", versions))
                    return
                if versions not in ({(markers[0],)}, {(markers[1],)}):
                    anomalies.append(("unexpected answer", versions))
                    return

        def swapper() -> None:
            for i in range(40):
                store.swap(taxonomies[(i + 1) % 2])

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
        assert store.metrics.swaps == 40


class TestPublishDelta:
    """Per-shard delta publishes: answer-preserving, identity-preserving."""

    def _evolved(self) -> Taxonomy:
        new = make_taxonomy()
        new.add_entity(Entity("新实体#0", "新实体", aliases=("小新",)))
        new.add_relation(IsARelation("新实体#0", "概念0", "bracket"))
        new.add_relation(IsARelation("实体3#0", "新概念", "tag"))
        return new

    def _all_keys(self, *taxonomies) -> set[str]:
        keys: set[str] = set()
        for taxonomy in taxonomies:
            for index in taxonomy.freeze().as_indexes():
                keys.update(index)
        return keys

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_answers_match_a_full_swap(self, n_shards):
        from repro.taxonomy.delta import TaxonomyDelta

        old, new = make_taxonomy(), self._evolved()
        delta = TaxonomyDelta.compute(old, new)
        store = ShardedSnapshotStore(make_taxonomy(), n_shards=n_shards)
        store.publish_delta(delta)
        reference = ShardedSnapshotStore(self._evolved(), n_shards=n_shards)
        for key in self._all_keys(old, new):
            assert store.men2ent(key) == reference.men2ent(key)
            assert store.get_concepts(key) == reference.get_concepts(key)
            assert store.get_entities(key) == reference.get_entities(key)
        assert [s.read_view.stats() for s in store.shard_set.shards] == \
            [s.read_view.stats() for s in reference.shard_set.shards]

    def test_untouched_shards_keep_object_identity(self):
        from repro.serving.sharding import shard_for as hash_key
        from repro.taxonomy.delta import TaxonomyDelta

        old, new = make_taxonomy(), self._evolved()
        delta = TaxonomyDelta.compute(old, new)
        n_shards = 8
        store = ShardedSnapshotStore(make_taxonomy(), n_shards=n_shards)
        before = list(store.shard_set.shards)
        store.publish_delta(delta)
        after = list(store.shard_set.shards)
        touched = {
            hash_key(key, n_shards)
            for key in delta.touched_serving_keys()
        }
        assert touched and len(touched) < n_shards  # both kinds exist
        for shard_id in range(n_shards):
            if shard_id in touched:
                assert after[shard_id] is not before[shard_id]
                assert after[shard_id].version_id == "v2"
            else:
                assert after[shard_id] is before[shard_id]
                assert after[shard_id].read_view is before[shard_id].read_view
                assert after[shard_id].version_id == "v1"
        assert store.version_id == "v2"
        assert store.metrics.swaps == 1

    def test_rescore_only_delta_touches_no_shard(self):
        from repro.taxonomy.delta import TaxonomyDelta

        old = make_taxonomy()
        new = make_taxonomy()
        target = old.relations()[0]
        new.add_relation(
            IsARelation(
                target.hyponym, target.hypernym, target.source, score=9.0
            )
        )
        delta = TaxonomyDelta.compute(old, new)
        assert delta.relations_changed and not delta.relations_added
        store = ShardedSnapshotStore(make_taxonomy(), n_shards=4)
        before = list(store.shard_set.shards)
        store.publish_delta(delta)
        assert all(
            a is b for a, b in zip(store.shard_set.shards, before)
        )
        assert store.version_id == "v2"  # lineage still advances

    def test_pinned_batches_survive_a_delta_publish(self):
        from repro.taxonomy.delta import TaxonomyDelta

        old, new = make_taxonomy(), self._evolved()
        store = ShardedSnapshotStore(make_taxonomy(), n_shards=4)
        pinned = store.shard_set
        store.publish_delta(TaxonomyDelta.compute(old, new))
        # a reader that pinned the old set keeps the old answers
        assert pinned.shard_of("小新").lookup("men2ent", "小新") == []
        assert store.men2ent("小新") == ["新实体#0"]

    def test_router_delegates_publish_delta(self):
        from repro.serving.router import ReplicatedRouter
        from repro.taxonomy.delta import TaxonomyDelta

        old, new = make_taxonomy(), self._evolved()
        store = ShardedSnapshotStore(make_taxonomy(), n_shards=2)
        router = ReplicatedRouter.from_store(store, replicas=2)
        router.publish_delta(TaxonomyDelta.compute(old, new))
        assert router.men2ent("小新") == ["新实体#0"]
        assert router.version_id == "v2"

    def _nights(self) -> list[Taxonomy]:
        """Day 0 and three nights, each a churn of the night before:
        entities leave, arrive and change aliases; relations leave,
        arrive on old and new entities, and one flips to the concept
        layer."""
        rng = random.Random(17)
        nights = [make_taxonomy()]
        for night in range(1, 4):
            previous = nights[-1]
            gone = {
                e.page_id for e in rng.sample(previous.entities(), k=3)
            }
            taxonomy = Taxonomy()
            for entity in previous.entities():
                if entity.page_id in gone:
                    continue
                if rng.random() < 0.1:
                    entity = Entity(
                        entity.page_id, entity.name,
                        aliases=(f"夜{night}{entity.name}",),
                    )
                taxonomy.add_entity(entity)
            arrivals = [
                Entity(f"夜{night}实体{i}#0", f"夜{night}实体{i}")
                for i in range(3)
            ]
            for entity in arrivals:
                taxonomy.add_entity(entity)
            kept = [
                r for r in previous.relations()
                if r.hyponym not in gone and rng.random() > 0.05
            ]
            flipped = kept.pop(rng.randrange(len(kept)))
            for relation in kept:
                taxonomy.add_relation(relation)
            taxonomy.add_relation(IsARelation(
                flipped.hyponym, flipped.hypernym, flipped.source,
                hyponym_kind="concept",
            ))
            for entity in arrivals + rng.sample(taxonomy.entities(), k=5):
                taxonomy.add_relation(IsARelation(
                    entity.page_id, f"概念{rng.randrange(26)}", "tag"
                ))
            nights.append(taxonomy)
        return nights

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_stats_follow_a_publish_chain(self, n_shards):
        """Three nights forward, then their inverses one by one: after
        every publish each shard counts what a fresh partition of that
        night's taxonomy counts, so a carried count that drifts by one
        fails here."""
        from repro.taxonomy.delta import TaxonomyDelta

        nights = self._nights()
        steps = list(zip(nights, nights[1:]))
        steps += [(new, old) for old, new in reversed(steps)]
        store = ShardedSnapshotStore(nights[0], n_shards=n_shards)
        for old, new in steps:
            store.publish_delta(TaxonomyDelta.compute(old, new))
            fresh = ShardSet.partition(1, new, n_shards)
            for shard, want in zip(store.shard_set.shards, fresh.shards):
                assert shard.read_view.stats() == want.read_view.stats()
                assert len(shard.read_view) == len(want.read_view)
        assert store.content_hash == nights[0].content_hash()


class TestEmptyDeltaPublish:
    """An empty delta is an exact no-op on every shard."""

    def test_no_shard_changes_and_no_shard_version_bump(self):
        from repro.taxonomy.delta import TaxonomyDelta

        store = ShardedSnapshotStore(make_taxonomy(), n_shards=4)
        before = store.shard_set
        store.publish_delta(TaxonomyDelta(name=before.shards[0].read_view.name))
        after = store.shard_set
        # every shard crossed the publish object-identical…
        for old, new in zip(before.shards, after.shards):
            assert new is old
            assert new.read_view is old.read_view
        # …so the per-shard lineage did not move
        assert store.shard_versions() == ["v1"] * 4
        # while the set version advanced, keeping handshakes alive
        assert store.version_id == "v2"

    def test_delta_touching_no_serving_key_is_also_a_no_op(self):
        from repro.taxonomy.delta import TaxonomyDelta

        base = make_taxonomy()
        rescored = base.copy()
        existing = base.relations()[0]
        rescored.add_relation(
            IsARelation(
                existing.hyponym, existing.hypernym, existing.source,
                score=existing.score + 9.0,
            )
        )
        delta = TaxonomyDelta.compute(base, rescored)
        assert not delta.is_empty  # a pure rescore…
        assert delta.relations_changed  # …of an existing pair…
        store = ShardedSnapshotStore(base, n_shards=4)
        before = store.shard_set.shards
        store.publish_delta(delta)
        for old, new in zip(before, store.shard_set.shards):
            assert new is old  # …touches zero shards
        assert store.shard_versions() == ["v1"] * 4


class TestPublishVersionStamping:
    def _grown(self, base):
        grown = base.copy()
        grown.add_entity(Entity("新星#0", "新星"))
        grown.add_relation(IsARelation("新星#0", "概念0", "bracket"))
        return grown

    def test_explicit_version_on_swap_and_delta(self):
        from repro.taxonomy.delta import TaxonomyDelta
        from repro.errors import TaxonomyError

        base = make_taxonomy()
        store = ShardedSnapshotStore(base, n_shards=2)
        store.swap(base, version=5)
        assert store.version_id == "v5"
        grown = self._grown(base)
        store.publish_delta(TaxonomyDelta.compute(base, grown), version=9)
        assert store.version_id == "v9"
        assert store.version_lineage() == ["v9"]
        assert store.delta_history.chain(5, 9) is not None
        with pytest.raises(TaxonomyError, match="must be newer"):
            store.swap(base, version=4)
        assert store.version_id == "v9"

    def test_key_filtered_publish_applies_only_owned_keys(self):
        from repro.taxonomy.delta import TaxonomyDelta

        base = make_taxonomy()
        grown = self._grown(base)
        full_delta = TaxonomyDelta.compute(base, grown)

        # a "replica" holding one cluster shard's slice: build it by
        # filtering the full index down to the keys shard 0 of 2 owns
        n_cluster = 2
        keep = lambda key: shard_for(key, n_cluster) == 0  # noqa: E731
        sliced_delta = full_delta.slice(keep)

        replica = ShardedSnapshotStore(base, n_shards=1)
        replica.publish_delta(sliced_delta, key_filter=keep)
        reference = ShardedSnapshotStore(grown, n_shards=1)
        # keys the replica owns answer the new version exactly…
        for key in ("新星", "新星#0", "概念0"):
            if keep(key):
                assert replica.men2ent(key) == reference.men2ent(key)
                assert replica.get_concepts(key) == \
                    reference.get_concepts(key)
                assert replica.get_entities(key) == \
                    reference.get_entities(key)
        # …and keys it does not own were never touched (still v1 data,
        # which is fine: the router never routes them here)
        for key in ("新星", "新星#0", "概念0"):
            if not keep(key):
                base_ref = ShardedSnapshotStore(base, n_shards=1)
                assert replica.men2ent(key) == base_ref.men2ent(key)

    def test_sliced_delta_without_filter_is_refused(self):
        from repro.errors import TaxonomyError
        from repro.taxonomy.delta import TaxonomyDelta

        base = make_taxonomy()
        grown = self._grown(base)
        full_delta = TaxonomyDelta.compute(base, grown)
        n_cluster = 2
        target_shard = shard_for("新星#0", n_cluster)
        other = 1 - target_shard
        sliced = full_delta.slice(
            lambda key: shard_for(key, n_cluster) == other
        )
        replica = ShardedSnapshotStore(base, n_shards=1)
        if sliced.is_empty:
            pytest.skip("every key of the delta hashed to one shard")
        # applying a slice *without* declaring the filter validates the
        # full keyspace: fine here (structurally consistent), so this
        # documents that the filter is about ownership, not validity
        replica.publish_delta(sliced)
        assert replica.version_id == "v2"
