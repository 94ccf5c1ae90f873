"""Tests for TaxonomyDelta: compute/apply equivalence, persistence, views."""

import json

import pytest

from repro.errors import TaxonomyError
from repro.taxonomy.codec import DELTA_FORMAT_VERSION
from repro.taxonomy.delta import (
    DeltaHistory,
    TaxonomyDelta,
    compose,
    load_delta,
    save_delta,
)
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

from malformed import MALFORMED, delta_record


def base_taxonomy() -> Taxonomy:
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_entity(Entity("周杰伦#0", "周杰伦"))
    t.add_entity(Entity("苹果#1", "苹果"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
    t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
    t.add_relation(IsARelation("苹果#1", "公司", "tag"))
    t.add_relation(IsARelation("男演员", "演员", "tag", hyponym_kind="concept"))
    return t


def evolved_taxonomy() -> Taxonomy:
    """base_taxonomy() with one of everything: add / remove / change."""
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔", "Andy")))
    t.add_entity(Entity("周杰伦#0", "周杰伦"))
    t.add_entity(Entity("王菲#0", "王菲"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag", score=2.0))
    t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
    t.add_relation(IsARelation("王菲#0", "歌手", "tag"))
    t.add_relation(IsARelation("男演员", "演员", "tag", hyponym_kind="concept"))
    t.add_relation(IsARelation("女歌手", "歌手", "tag", hyponym_kind="concept"))
    return t


class TestCompute:
    def test_identical_taxonomies_give_empty_delta(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), base_taxonomy())
        assert delta.is_empty
        assert delta.n_records == 0

    def test_counts_every_change_kind(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        assert delta.summary() == {
            "entities_added": 1,      # 王菲#0
            "entities_removed": 1,    # 苹果#1
            "entities_changed": 1,    # 刘德华#0 gained an alias
            "relations_added": 2,     # 王菲→歌手, 女歌手→歌手
            "relations_removed": 1,   # 苹果#1→公司
            "relations_changed": 1,   # 刘德华→歌手 rescored
        }
        assert delta.new_n_relations == len(evolved_taxonomy())
        assert delta.new_stats == evolved_taxonomy().stats()

    def test_changed_pairs_carry_old_and_new(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        (old, new), = delta.relations_changed
        assert old.key == new.key == ("刘德华#0", "歌手")
        assert old.score == 1.0 and new.score == 2.0


class TestApply:
    def test_apply_reproduces_target_bytes(self, tmp_path):
        old, new = base_taxonomy(), evolved_taxonomy()
        delta = TaxonomyDelta.compute(old, new)
        old.apply_delta(delta)
        applied_path = tmp_path / "applied.jsonl"
        target_path = tmp_path / "target.jsonl"
        old.save(applied_path)
        new.save(target_path)
        assert applied_path.read_bytes() == target_path.read_bytes()

    def test_apply_reproduces_stats_and_lookups(self):
        old, new = base_taxonomy(), evolved_taxonomy()
        old.apply_delta(TaxonomyDelta.compute(old, new))
        assert old.stats() == new.stats()
        assert old.men2ent("Andy") == ["刘德华#0"]
        assert old.men2ent("苹果") == []
        assert old.get_entities("歌手") == new.get_entities("歌手")
        assert old.get_subconcepts("歌手") == ["女歌手"]
        assert old.graph.is_dag()

    def test_empty_delta_is_identity(self, tmp_path):
        t = base_taxonomy()
        before = tmp_path / "before.jsonl"
        t.save(before)
        t.apply_delta(TaxonomyDelta.compute(base_taxonomy(), base_taxonomy()))
        after = tmp_path / "after.jsonl"
        t.save(after)
        assert before.read_bytes() == after.read_bytes()

    def test_wrong_base_is_refused_before_mutation(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        wrong = Taxonomy()
        wrong.add_entity(Entity("刘德华#0", "刘德华"))  # aliases differ
        wrong.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
        with pytest.raises(TaxonomyError, match="does not match base"):
            wrong.apply_delta(delta)
        # validation failed up front: nothing was applied
        assert wrong.men2ent("王菲") == []
        assert len(wrong) == 1

    def test_double_apply_is_refused(self):
        old = base_taxonomy()
        delta = TaxonomyDelta.compute(old, evolved_taxonomy())
        old.apply_delta(delta)
        with pytest.raises(TaxonomyError):
            old.apply_delta(delta)


class TestReadOptimizedApply:
    def test_matches_full_freeze(self):
        old, new = base_taxonomy(), evolved_taxonomy()
        delta = TaxonomyDelta.compute(old, new)
        advanced = old.freeze().apply_delta(
            delta,
            stats=delta.new_stats,
            n_relations=delta.new_n_relations,
            name=delta.name,
        )
        frozen = new.freeze()
        keys = set()
        for index in frozen.as_indexes() + old.freeze().as_indexes():
            keys.update(index)
        for key in keys:
            assert advanced.men2ent(key) == frozen.men2ent(key)
            assert advanced.get_concepts(key) == frozen.get_concepts(key)
            assert advanced.get_entities(key) == frozen.get_entities(key)
        assert advanced.stats() == frozen.stats()
        assert len(advanced) == len(frozen)

    def test_source_view_is_untouched(self):
        old = base_taxonomy()
        view = old.freeze()
        delta = TaxonomyDelta.compute(old, evolved_taxonomy())
        view.apply_delta(delta)
        assert view.men2ent("苹果") == ["苹果#1"]
        assert view.men2ent("王菲") == []

    def test_untouched_keys_keep_tuple_identity(self):
        old, new = base_taxonomy(), evolved_taxonomy()
        view = old.freeze()
        advanced = view.apply_delta(TaxonomyDelta.compute(old, new))
        before = view.as_indexes()
        after = advanced.as_indexes()
        # 周杰伦 is untouched by the delta: same result-tuple objects
        assert after[0]["周杰伦"] is before[0]["周杰伦"]
        assert after[1]["周杰伦#0"] is before[1]["周杰伦#0"]

    def test_key_filter_restricts_application(self):
        old, new = base_taxonomy(), evolved_taxonomy()
        delta = TaxonomyDelta.compute(old, new)
        advanced = old.freeze().apply_delta(
            delta, key_filter=lambda key: key == "王菲"
        )
        assert advanced.men2ent("王菲") == ["王菲#0"]
        assert advanced.men2ent("苹果") == ["苹果#1"]  # filtered out, kept


class TestPersistence:
    def test_round_trip(self, tmp_path):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        path = tmp_path / "delta.jsonl"
        save_delta(delta, path)
        loaded = load_delta(path)
        assert loaded == delta

    def test_round_trip_preserves_unicode(self, tmp_path):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        path = tmp_path / "delta.jsonl"
        save_delta(delta, path)
        raw = path.read_text(encoding="utf-8")
        assert "王菲" in raw  # ensure_ascii=False: human-readable deltas
        assert load_delta(path) == delta

    def test_applying_a_loaded_delta_reproduces_target(self, tmp_path):
        old, new = base_taxonomy(), evolved_taxonomy()
        path = tmp_path / "delta.jsonl"
        save_delta(TaxonomyDelta.compute(old, new), path)
        old.apply_delta(load_delta(path))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        old.save(a)
        new.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(TaxonomyError):
            load_delta(tmp_path / "nope.jsonl")

    def test_future_format_version_is_refused(self, tmp_path):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        path = tmp_path / "delta.jsonl"
        save_delta(delta, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["format_version"] = DELTA_FORMAT_VERSION + 7
        lines[0] = json.dumps(header, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TaxonomyError, match="format_version"):
            load_delta(path)

    def test_non_delta_file_is_refused(self, tmp_path):
        taxonomy_path = tmp_path / "t.jsonl"
        base_taxonomy().save(taxonomy_path)
        with pytest.raises(TaxonomyError):
            load_delta(taxonomy_path)

    def test_headerless_file_is_refused(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TaxonomyError, match="header"):
            load_delta(path)


class TestTouchedServingKeys:
    def test_rescore_only_delta_touches_nothing(self):
        old = base_taxonomy()
        new = base_taxonomy()
        new.add_relation(IsARelation("刘德华#0", "歌手", "tag", score=3.0))
        delta = TaxonomyDelta.compute(old, new)
        assert delta.relations_changed
        assert list(delta.touched_serving_keys()) == []

    def test_structural_delta_touches_both_endpoints(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        touched = set(delta.touched_serving_keys())
        assert {"王菲", "王菲#0", "歌手", "苹果", "苹果#1", "公司"} <= touched
        # concept-layer edge (女歌手→歌手) is not a serving key
        assert "女歌手" not in touched


class TestKindFlip:
    """A (hyponym, hypernym) pair whose hyponym_kind flips between
    builds moves between the serving indexes: the delta must carry it
    as remove + add, never as an index-neutral 'changed' pair."""

    def _old(self):
        t = Taxonomy()
        t.add_entity(Entity("刘德华#0", "刘德华"))
        t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
        t.add_relation(
            IsARelation("天王", "演员", "tag", hyponym_kind="concept")
        )
        return t

    def _new(self):
        t = Taxonomy()
        t.add_entity(Entity("刘德华#0", "刘德华"))
        t.add_entity(Entity("天王", "天王"))
        t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
        t.add_relation(IsARelation("天王", "演员", "tag"))  # now an entity
        return t

    def test_flip_is_remove_plus_add(self):
        delta = TaxonomyDelta.compute(self._old(), self._new())
        assert not delta.relations_changed
        (removed,) = delta.relations_removed
        (added,) = delta.relations_added
        assert removed.key == added.key == ("天王", "演员")
        assert removed.hyponym_kind == "concept"
        assert added.hyponym_kind == "entity"
        assert "天王" in set(delta.touched_serving_keys())

    def test_flip_round_trips_through_every_apply_path(self, tmp_path):
        old, new = self._old(), self._new()
        delta = TaxonomyDelta.compute(old, new)

        frozen = old.freeze().apply_delta(delta)
        reference = new.freeze()
        assert frozen.get_concepts("天王") == reference.get_concepts("天王")
        assert frozen.get_entities("演员") == reference.get_entities("演员")

        old.apply_delta(delta)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        old.save(a)
        new.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_flip_publishes_through_the_sharded_store(self):
        from repro.serving.sharding import ShardedSnapshotStore

        delta = TaxonomyDelta.compute(self._old(), self._new())
        store = ShardedSnapshotStore(self._old(), n_shards=2)
        store.publish_delta(delta)
        reference = ShardedSnapshotStore(self._new(), n_shards=2)
        for key in ("天王", "演员", "刘德华#0", "刘德华"):
            assert store.men2ent(key) == reference.men2ent(key)
            assert store.get_concepts(key) == reference.get_concepts(key)
            assert store.get_entities(key) == reference.get_entities(key)


def third_taxonomy() -> Taxonomy:
    """evolved_taxonomy() mutated again: night 3 of the chain."""
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))  # alias back
    t.add_entity(Entity("王菲#0", "王菲"))
    t.add_entity(Entity("苹果#1", "苹果"))  # returns after a night away
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag", score=3.0))
    t.add_relation(IsARelation("王菲#0", "歌手", "tag"))
    t.add_relation(IsARelation("苹果#1", "水果", "tag"))
    t.add_relation(IsARelation("女歌手", "歌手", "tag", hyponym_kind="concept"))
    return t


def nightly_chain() -> tuple[Taxonomy, list]:
    """The canonical three-night chain the compose tests walk."""
    states = [base_taxonomy(), evolved_taxonomy(), third_taxonomy()]
    deltas = [
        TaxonomyDelta.compute(states[i], states[i + 1])
        for i in range(len(states) - 1)
    ]
    return states[0], deltas


class TestCompose:
    def test_composed_chain_is_byte_identical_to_one_by_one(self, tmp_path):
        base, deltas = nightly_chain()
        squashed = compose(deltas)

        one_by_one = base_taxonomy()
        for delta in deltas:
            one_by_one.apply_delta(delta)
        base.apply_delta(squashed)

        composed_path = tmp_path / "composed.jsonl"
        chained_path = tmp_path / "chained.jsonl"
        cold_path = tmp_path / "cold.jsonl"
        base.save(composed_path)
        one_by_one.save(chained_path)
        third_taxonomy().save(cold_path)
        assert composed_path.read_bytes() == chained_path.read_bytes()
        assert composed_path.read_bytes() == cold_path.read_bytes()

    def test_matches_direct_compute(self):
        _, deltas = nightly_chain()
        squashed = compose(deltas)
        direct = TaxonomyDelta.compute(base_taxonomy(), third_taxonomy())
        assert squashed.summary() == direct.summary()
        assert list(squashed.records()) == list(direct.records())

    def test_add_then_remove_cancels(self):
        _, deltas = nightly_chain()
        # 王菲#0 was added night 1; remove her again night 2'
        gone = third_taxonomy()
        gone_delta = TaxonomyDelta.compute(evolved_taxonomy(), gone)
        squashed = compose([deltas[0], gone_delta])
        added_ids = {e.page_id for e in squashed.entities_added}
        removed_ids = {e.page_id for e in squashed.entities_removed}
        # 苹果#1 was removed night 1 and re-added identically night 2:
        # net nothing on either side
        assert "苹果#1" not in added_ids | removed_ids

    def test_change_of_change_collapses_to_first_old_last_new(self):
        _, deltas = nightly_chain()
        squashed = compose(deltas)
        changed = {
            old.key: (old, new) for old, new in squashed.relations_changed
        }
        old, new = changed[("刘德华#0", "歌手")]
        assert old.score == 1.0  # night 0 state, not night 1's 2.0
        assert new.score == 3.0  # night 2 state

    def test_single_delta_chain_is_itself(self):
        _, deltas = nightly_chain()
        squashed = compose(deltas[:1])
        assert list(squashed.records()) == list(deltas[0].records())

    def test_empty_chain_is_refused(self):
        with pytest.raises(TaxonomyError, match="at least one"):
            compose([])

    def test_unchained_deltas_are_refused(self):
        _, deltas = nightly_chain()
        with pytest.raises(TaxonomyError, match="do not chain"):
            compose([deltas[1], deltas[0]])  # wrong order

    def test_net_kind_flip_is_remove_plus_add(self):
        def entity_world():
            t = Taxonomy()
            t.add_entity(Entity("刘德华#0", "刘德华"))
            t.add_entity(Entity("天王", "天王"))
            t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
            t.add_relation(IsARelation("天王", "演员", "tag"))
            return t

        def concept_world():
            t = Taxonomy()
            t.add_entity(Entity("刘德华#0", "刘德华"))
            t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
            t.add_relation(
                IsARelation("天王", "演员", "tag", hyponym_kind="concept")
            )
            return t

        def rescored_entity_world():
            t = entity_world()
            t.add_relation(IsARelation("天王", "演员", "tag", score=2.0))
            return t

        d1 = TaxonomyDelta.compute(concept_world(), entity_world())
        d2 = TaxonomyDelta.compute(entity_world(), rescored_entity_world())
        squashed = compose([d1, d2])
        assert not any(
            old.key == ("天王", "演员")
            for old, new in squashed.relations_changed
        )
        flipped_removed = [
            r for r in squashed.relations_removed if r.key == ("天王", "演员")
        ]
        flipped_added = [
            r for r in squashed.relations_added if r.key == ("天王", "演员")
        ]
        assert flipped_removed[0].hyponym_kind == "concept"
        assert flipped_added[0].hyponym_kind == "entity"
        assert flipped_added[0].score == 2.0

        applied = concept_world().apply_delta(squashed)
        reference = rescored_entity_world()
        assert applied.get_entities("演员") == reference.get_entities("演员")

    def test_headline_numbers_come_from_the_last_delta(self):
        _, deltas = nightly_chain()
        squashed = compose(deltas)
        assert squashed.new_stats == deltas[-1].new_stats
        assert squashed.new_n_relations == deltas[-1].new_n_relations
        assert squashed.name == deltas[-1].name


class TestWireRoundTrip:
    def test_to_wire_from_wire_is_identity(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        rebuilt = TaxonomyDelta.from_wire(delta.to_wire())
        assert rebuilt == delta

    def test_wire_payload_is_json_serializable(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        payload = json.loads(json.dumps(delta.to_wire(), ensure_ascii=False))
        assert TaxonomyDelta.from_wire(payload) == delta

    def test_wire_payload_matches_file_persistence(self, tmp_path):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        path = tmp_path / "delta.jsonl"
        save_delta(delta, path)
        assert load_delta(path) == TaxonomyDelta.from_wire(delta.to_wire())

    def test_non_object_payload_is_refused(self):
        with pytest.raises(TaxonomyError, match="JSON object"):
            TaxonomyDelta.from_wire(["not", "a", "dict"])

    def test_missing_records_is_refused(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        payload = delta.to_wire()
        del payload["records"]
        with pytest.raises(TaxonomyError, match="records"):
            TaxonomyDelta.from_wire(payload)

    def test_unknown_record_kind_is_refused(self):
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        payload = delta.to_wire()
        payload["records"].append({"kind": "entity_rename"})
        with pytest.raises(TaxonomyError, match="unknown delta record kind"):
            TaxonomyDelta.from_wire(payload)

    @pytest.mark.parametrize("bad", [
        {"kind": "entity_add", "page_id": "x#0", "name": "x", "aliases": 5},
        {"kind": "relation_change", "old": "x", "new": "y"},
        {"kind": "entity_add", "page_id": "x#0", "name": "x",
         "aliases": [[1]]},
        {"kind": "entity_add", "page_id": "x#0", "name": "x",
         "aliases": "xy"},
        {"kind": "entity_add", "page_id": 1, "name": "x", "aliases": []},
        {"kind": "entity_remove", "page_id": "x#0", "name": 1,
         "aliases": []},
        {"kind": "relation_add", "hyponym": 1, "hypernym": "歌手",
         "source": "tag", "hyponym_kind": "entity", "score": 1.0},
        {"kind": "relation_remove", "hyponym": "x#0", "hypernym": ["歌手"],
         "source": "tag", "hyponym_kind": "entity", "score": 1.0},
        {"kind": "entity_change",
         "old": {"page_id": "x#0", "name": "x", "aliases": []},
         "new": {"page_id": "x#0", "name": "x", "aliases": [None]}},
        {"kind": "entity_add", "page_id": "", "name": "x", "aliases": []},
        {"kind": "entity_add", "page_id": "p1", "name": "", "aliases": []},
        {"kind": "relation_add", "hyponym": "x#0", "hypernym": "歌手",
         "source": 5, "hyponym_kind": "entity", "score": 1.0},
        *(
            pytest.param(delta_record(*case.values), id=case.id)
            for case in MALFORMED
        ),
    ])
    def test_untypeable_record_names_its_place(self, tmp_path, bad):
        """A wire record is named by its index, a file record by its
        line, exactly once, and neither escapes as a ``TypeError``."""
        delta = TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())
        payload = delta.to_wire()
        payload["records"].append(bad)
        with pytest.raises(TaxonomyError) as excinfo:
            TaxonomyDelta.from_wire(payload)
        index = len(payload["records"]) - 1
        assert str(excinfo.value).startswith(f"wire: record {index}: ")
        assert str(excinfo.value).count("wire: record") == 1
        path = tmp_path / "delta.jsonl"
        save_delta(delta, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(bad) + "\n")
        line = len(path.read_text(encoding="utf-8").splitlines())
        with pytest.raises(TaxonomyError) as excinfo:
            load_delta(path)
        assert str(excinfo.value).startswith(f"{path}:{line}: ")
        assert str(excinfo.value).count(f"{path}:") == 1


class TestSlice:
    def _delta(self):
        return TaxonomyDelta.compute(base_taxonomy(), evolved_taxonomy())

    def test_keep_everything_is_identity_up_to_rescores(self):
        delta = self._delta()
        sliced = delta.slice(lambda key: True)
        assert sliced.entities_added == delta.entities_added
        assert sliced.entities_removed == delta.entities_removed
        assert sliced.entities_changed == delta.entities_changed
        # entity-kind structural records survive; concept-layer ones
        # (no serving keys) are dropped
        assert all(
            r.hyponym_kind == "entity"
            for r in sliced.relations_added + sliced.relations_removed
        )
        # rescores touch no serving index and never ship
        assert sliced.relations_changed == ()

    def test_keep_nothing_is_empty(self):
        assert self._delta().slice(lambda key: False).is_empty

    def test_slices_partition_the_serving_records(self):
        from repro.serving.sharding import shard_for

        delta = self._delta()
        n_shards = 4
        slices = [
            delta.slice(
                lambda key, s=s: shard_for(key, n_shards) == s
            )
            for s in range(n_shards)
        ]
        # every entity-kind structural record lands in >= 1 slice, and
        # a record appears in a slice iff one of its keys hashes there
        for relation in delta.relations_added + delta.relations_removed:
            if relation.hyponym_kind != "entity":
                continue
            owners = {
                shard_for(relation.hyponym, n_shards),
                shard_for(relation.hypernym, n_shards),
            }
            for s, sliced in enumerate(slices):
                held = relation in (
                    sliced.relations_added + sliced.relations_removed
                )
                assert held == (s in owners)

    def test_sliced_headline_numbers_are_cleared(self):
        sliced = self._delta().slice(lambda key: True)
        assert sliced.new_stats is None
        assert sliced.new_n_relations == 0


class TestMalformedHeaders:
    """Missing/garbage format_version raise the store's format error."""

    def _write(self, tmp_path, header: dict) -> str:
        path = tmp_path / "delta.jsonl"
        path.write_text(
            json.dumps({"kind": "header", **header}, ensure_ascii=False)
            + "\n",
            encoding="utf-8",
        )
        return str(path)

    def test_missing_format_version_is_refused(self, tmp_path):
        path = self._write(tmp_path, {"format": "taxonomy-delta"})
        with pytest.raises(TaxonomyError, match="missing format_version"):
            load_delta(path)

    def test_garbage_format_version_is_refused(self, tmp_path):
        for garbage in ("two", 0, -3, True, 1.5):
            path = self._write(
                tmp_path,
                {"format": "taxonomy-delta", "format_version": garbage},
            )
            with pytest.raises(TaxonomyError, match="malformed format_version"):
                load_delta(path)

    def test_wire_header_is_checked_too(self):
        with pytest.raises(TaxonomyError, match="missing format_version"):
            TaxonomyDelta.from_wire(
                {"format": "taxonomy-delta", "records": []}
            )
        with pytest.raises(TaxonomyError, match="malformed format_version"):
            TaxonomyDelta.from_wire({
                "format": "taxonomy-delta",
                "format_version": "garbage",
                "records": [],
            })

    def test_malformed_stats_header_is_refused(self, tmp_path):
        path = self._write(tmp_path, {
            "format": "taxonomy-delta",
            "format_version": DELTA_FORMAT_VERSION,
            "new_stats": {"entities": 1},  # missing the other counts
        })
        with pytest.raises(TaxonomyError, match="malformed new_stats"):
            load_delta(path)


class TestDeltaHistory:
    def _delta(self, n: int) -> TaxonomyDelta:
        return TaxonomyDelta(name=f"delta-{n}")

    def test_chain_walks_contiguous_lineage(self):
        history = DeltaHistory()
        for version in (2, 3, 4):
            history.record(version - 1, version, self._delta(version))
        chain = history.chain(1, 4)
        assert [d.name for d in chain] == ["delta-2", "delta-3", "delta-4"]
        assert history.chain(2, 4) is not None
        assert history.chain(3, 4) is not None

    def test_same_version_is_the_empty_chain(self):
        history = DeltaHistory()
        assert history.chain(5, 5) == []

    def test_uncovered_span_is_none(self):
        history = DeltaHistory()
        history.record(2, 3, self._delta(3))
        assert history.chain(1, 3) is None  # start evicted / never seen
        assert history.chain(3, 5) is None  # end beyond the ring

    def test_lineage_gap_breaks_the_chain(self):
        history = DeltaHistory()
        history.record(1, 2, self._delta(2))
        # a full swap produced v3 with no history entry
        history.record(3, 4, self._delta(4))
        assert history.chain(1, 4) is None
        assert history.chain(3, 4) is not None

    def test_ring_is_bounded(self):
        history = DeltaHistory(maxlen=2)
        for version in (2, 3, 4):
            history.record(version - 1, version, self._delta(version))
        assert len(history) == 2
        assert history.versions() == [3, 4]
        assert history.chain(1, 4) is None  # the oldest hop was evicted
        assert [d.name for d in history.chain(2, 4)] == [
            "delta-3", "delta-4",
        ]
