"""Tests for the read-optimized serving view and the store's per-key
sorted-result memos."""

from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.sharding import ShardSet, shard_for
from repro.taxonomy.delta import TaxonomyDelta
from repro.taxonomy.model import (
    HYPONYM_CONCEPT,
    HYPONYM_ENTITY,
    Entity,
    IsARelation,
)
from repro.taxonomy.service import TaxonomyService
from repro.taxonomy.store import (
    ReadOptimizedTaxonomy,
    Taxonomy,
    TaxonomyStats,
)


@pytest.fixture
def taxonomy():
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_entity(Entity("周杰伦#0", "周杰伦"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
    t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
    t.add_relation(IsARelation("歌手", "人物", "tag", hyponym_kind="concept"))
    return t


class TestStoreMemos:
    def test_repeated_lookup_same_result(self, taxonomy):
        assert taxonomy.men2ent("华仔") == ["刘德华#0"]
        assert taxonomy.men2ent("华仔") == ["刘德华#0"]
        assert taxonomy.get_concepts("刘德华#0") == ["歌手", "演员"]
        assert taxonomy.get_concepts("刘德华#0") == ["歌手", "演员"]

    def test_returned_list_is_not_an_alias(self, taxonomy):
        first = taxonomy.get_entities("歌手")
        first.append("垃圾#9")
        assert taxonomy.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]

    def test_add_relation_invalidates_affected_keys(self, taxonomy):
        assert taxonomy.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]
        assert taxonomy.get_concepts("刘德华#0") == ["歌手", "演员"]
        taxonomy.add_entity(Entity("张学友#0", "张学友"))
        taxonomy.add_relation(IsARelation("张学友#0", "歌手", "tag"))
        taxonomy.add_relation(IsARelation("刘德华#0", "导演", "bracket"))
        assert taxonomy.get_entities("歌手") == [
            "刘德华#0", "周杰伦#0", "张学友#0",
        ]
        assert taxonomy.get_concepts("刘德华#0") == ["导演", "歌手", "演员"]

    def test_add_entity_invalidates_mentions(self, taxonomy):
        assert taxonomy.men2ent("刘德华") == ["刘德华#0"]
        taxonomy.add_entity(Entity("刘德华#1", "刘德华"))
        assert taxonomy.men2ent("刘德华") == ["刘德华#0", "刘德华#1"]

    def test_misses_not_memoised(self, taxonomy):
        assert taxonomy.men2ent("未知词123") == []
        assert taxonomy._men2ent_cache.get("未知词123") is None
        assert taxonomy.get_entities("未知概念") == []
        assert taxonomy._entities_cache.get("未知概念") is None


class TestReadOptimizedView:
    def test_freeze_matches_store(self, taxonomy):
        view = taxonomy.freeze()
        for mention in ("刘德华", "华仔", "周杰伦", "无人"):
            assert view.men2ent(mention) == taxonomy.men2ent(mention)
        for page_id in ("刘德华#0", "周杰伦#0", "无#9"):
            assert view.get_concepts(page_id) == taxonomy.get_concepts(page_id)
        for concept in ("歌手", "演员", "人物", "无概念"):
            assert view.get_entities(concept) == taxonomy.get_entities(concept)
        assert view.stats() == taxonomy.stats()
        assert len(view) == len(taxonomy)
        assert view.name == taxonomy.name

    def test_view_decoupled_from_source_mutation(self, taxonomy):
        view = taxonomy.freeze()
        taxonomy.add_entity(Entity("张学友#0", "张学友"))
        taxonomy.add_relation(IsARelation("张学友#0", "歌手", "tag"))
        assert view.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]
        assert taxonomy.get_entities("歌手") == [
            "刘德华#0", "周杰伦#0", "张学友#0",
        ]

    def test_view_returns_fresh_lists(self, taxonomy):
        view = taxonomy.freeze()
        first = view.get_entities("歌手")
        first.append("垃圾#9")
        assert view.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]

    def test_from_taxonomy_classmethod(self, taxonomy):
        view = ReadOptimizedTaxonomy.from_taxonomy(taxonomy)
        assert view.men2ent("华仔") == ["刘德华#0"]


class TestSnapshotServesReadView:
    def test_snapshot_wraps_view(self, taxonomy):
        service = TaxonomyService(taxonomy)
        [shard] = service.shard_set.shards
        assert isinstance(shard.read_view, ReadOptimizedTaxonomy)

    def test_served_answers_frozen_at_publish(self, taxonomy):
        service = TaxonomyService(taxonomy)
        taxonomy.add_entity(Entity("张学友#0", "张学友"))
        taxonomy.add_relation(IsARelation("张学友#0", "歌手", "tag"))
        # published snapshot still answers from its freeze...
        assert service.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]
        # ...until the mutated taxonomy is explicitly re-published
        service.swap(taxonomy)
        assert service.get_entities("歌手") == [
            "刘德华#0", "周杰伦#0", "张学友#0",
        ]

    def test_snapshot_stats_from_view(self, taxonomy):
        service = TaxonomyService(taxonomy)
        # the serving indexes' stats: the concept-layer relation
        # (歌手 → 人物) has no serving index and is not counted
        [stats] = service.stats()
        assert stats.n_isa_total == 3
        assert taxonomy.stats().n_isa_total == 4


# -- apply_delta against the code its kernels replaced -------------------------


def reference_apply_delta(
    self,
    delta: "TaxonomyDelta",
    *,
    key_filter: Callable[[str], bool] | None = None,
    stats: TaxonomyStats | None = None,
    n_relations: int | None = None,
    name: str | None = None,
) -> "ReadOptimizedTaxonomy":
    """``ReadOptimizedTaxonomy.apply_delta`` before it carried the pair
    count and edited answers by bisect: every insert re-sorts the
    answer, every remove rebuilds it, and the recount path sums the
    entity→concept pairs twice.  Kept verbatim as the oracle."""
    keep = key_filter if key_filter is not None else (lambda key: True)
    mentions = dict(self._mention_index)
    hypernyms = dict(self._entity_hypernyms)
    entities = dict(self._concept_entities)

    def remove(index: dict, key: str, member: str) -> None:
        if not keep(key):
            return
        remaining = tuple(m for m in index.get(key, ()) if m != member)
        if remaining:
            index[key] = remaining
        else:
            index.pop(key, None)

    def insert(index: dict, key: str, member: str) -> None:
        if not keep(key):
            return
        current = index.get(key, ())
        if member not in current:
            index[key] = tuple(sorted((*current, member)))

    for entity in delta.entities_removed:
        for mention in entity.mentions:
            remove(mentions, mention, entity.page_id)
    for old, new in delta.entities_changed:
        for mention in set(old.mentions) - set(new.mentions):
            remove(mentions, mention, old.page_id)
        for mention in set(new.mentions) - set(old.mentions):
            insert(mentions, mention, new.page_id)
    for entity in delta.entities_added:
        for mention in entity.mentions:
            insert(mentions, mention, entity.page_id)
    for relation in delta.relations_removed:
        if relation.hyponym_kind == HYPONYM_ENTITY:
            remove(hypernyms, relation.hyponym, relation.hypernym)
            remove(entities, relation.hypernym, relation.hyponym)
    for relation in delta.relations_added:
        if relation.hyponym_kind == HYPONYM_ENTITY:
            insert(hypernyms, relation.hyponym, relation.hypernym)
            insert(entities, relation.hypernym, relation.hyponym)
    # relations_changed carry the same key with new score/source —
    # neither lives in the serving indexes, so nothing to touch.

    if n_relations is None:
        n_relations = sum(len(v) for v in hypernyms.values())
    if stats is None:
        stats = TaxonomyStats(
            n_entities=len(hypernyms),
            n_concepts=len(entities),
            n_entity_concept=sum(len(v) for v in hypernyms.values()),
            n_subconcept_concept=0,
        )
    return ReadOptimizedTaxonomy(
        name=name if name is not None else self.name,
        mention_index=mentions,
        entity_hypernyms=hypernyms,
        concept_entities=entities,
        stats=stats,
        n_relations=n_relations,
    )


def advance_both(view, reference, delta, key_filter=None):
    """Apply *delta* to *view* and, by the reference, to *reference*;
    check that they agree and that untouched keys kept their tuples."""
    advanced = view.apply_delta(delta, key_filter=key_filter)
    expected = reference_apply_delta(
        reference, delta, key_filter=key_filter
    )
    touched = set(delta.touched_serving_keys())
    for before, after, want in zip(
        view.as_indexes(), advanced.as_indexes(), expected.as_indexes()
    ):
        assert list(after.items()) == list(want.items())
        for key, members in after.items():
            assert members and members == tuple(sorted(set(members)))
            if key not in touched or (
                key_filter is not None and not key_filter(key)
            ):
                assert members is before[key]
    assert advanced.stats() == expected.stats()
    assert len(advanced) == len(expected)
    return advanced, expected


# Names double as aliases and as concepts, so one string can key all three
# indexes and one mention can name several entities.
_SURFACES = ("刘德华", "华仔", "歌手", "演员")
_CONCEPTS = ("人物", "歌手", "演员", "导演", "艺人")


def _build(entities: dict, relations: dict) -> Taxonomy:
    taxonomy = Taxonomy()
    for page_id in sorted(entities):
        name, aliases = entities[page_id]
        taxonomy.add_entity(Entity(page_id, name, aliases=aliases))
    for (hyponym, hypernym), (kind, score) in sorted(relations.items()):
        taxonomy.add_relation(IsARelation(
            hyponym, hypernym, "tag", hyponym_kind=kind, score=score
        ))
    return taxonomy


def _draw_entity(draw) -> tuple[str, tuple[str, ...]]:
    aliases = draw(st.lists(st.sampled_from(_SURFACES), max_size=2))
    return draw(st.sampled_from(_SURFACES)), tuple(aliases)


_EDITS = (
    "entity_add", "entity_remove", "alias_change", "relation_add",
    "relation_remove", "rescore", "kind_flip",
)


def _draw_night(draw, entities: dict, relations: dict) -> None:
    """Mutate the records in place with 1–3 of a night's edits.  An edit
    with nothing to act on is skipped; an add may bring back a page id
    an earlier night removed."""
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(_EDITS))
        if edit == "entity_add":
            page_id = f"e{draw(st.integers(0, 7))}#0"
            entities.setdefault(page_id, _draw_entity(draw))
        elif edit in ("entity_remove", "alias_change", "relation_add"):
            if not entities:
                continue
            page_id = draw(st.sampled_from(sorted(entities)))
            if edit == "entity_remove":
                del entities[page_id]
                for key, (kind, _) in list(relations.items()):
                    if key[0] == page_id and kind == HYPONYM_ENTITY:
                        del relations[key]
            elif edit == "alias_change":
                name = entities[page_id][0]
                entities[page_id] = (name, _draw_entity(draw)[1])
            else:
                concept = draw(st.sampled_from(_CONCEPTS))
                relations.setdefault((page_id, concept), (HYPONYM_ENTITY, 1.0))
        elif relations:
            key = draw(st.sampled_from(sorted(relations)))
            kind, score = relations[key]
            if edit == "relation_remove":
                del relations[key]
            elif edit == "rescore":
                relations[key] = (kind, score + 1.0)
            elif kind == HYPONYM_ENTITY:  # a kind flip, both ways
                relations[key] = (HYPONYM_CONCEPT, score)
            elif key[0] in entities:
                relations[key] = (HYPONYM_ENTITY, score)


@st.composite
def publish_chains(draw):
    """A small taxonomy, a chain of 1–5 deltas from it, and a view of it:
    the full freeze, or one shard of a 1–4-shard partition with that
    shard's key filter."""
    entities = {
        f"e{i}#0": _draw_entity(draw) for i in range(draw(st.integers(1, 5)))
    }
    relations = {}
    for page_id in entities:
        for concept in draw(st.lists(
            st.sampled_from(_CONCEPTS), max_size=3, unique=True
        )):
            relations[(page_id, concept)] = (HYPONYM_ENTITY, 1.0)
    relations[("歌手", "人物")] = (HYPONYM_CONCEPT, 1.0)
    taxonomies = [_build(entities, relations)]
    for _ in range(draw(st.integers(1, 5))):
        _draw_night(draw, entities, relations)
        taxonomies.append(_build(entities, relations))
    deltas = [
        TaxonomyDelta.compute(old, new)
        for old, new in zip(taxonomies, taxonomies[1:])
    ]
    n_shards = draw(st.sampled_from((None, 1, 2, 3, 4)))
    if n_shards is None:
        return taxonomies[0].freeze(), deltas, None
    shard_id = draw(st.integers(0, n_shards - 1))
    view = ShardSet.partition(1, taxonomies[0], n_shards).shards[shard_id]
    return view.read_view, deltas, (
        lambda key: shard_for(key, n_shards) == shard_id
    )


class TestApplyDeltaKernels:
    """The carried pair count and the bisect/slice edits give the answers,
    stats and lengths of the recounting, re-sorting code they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(publish_chains())
    def test_chains_match_the_reference(self, chain):
        view, deltas, key_filter = chain
        reference = view
        for delta in deltas:
            view, reference = advance_both(view, reference, delta, key_filter)

    def _relation(self, hyponym, hypernym):
        return IsARelation(hyponym, hypernym, "tag")

    def test_removing_the_last_member_drops_the_key(self, taxonomy):
        view = taxonomy.freeze()
        delta = TaxonomyDelta(
            name="t", relations_removed=(self._relation("周杰伦#0", "歌手"),)
        )
        advanced, _ = advance_both(view, view, delta)
        assert "周杰伦#0" not in advanced.as_indexes()[1]
        assert advanced.get_entities("歌手") == ["刘德华#0"]
        assert advanced.stats().n_entity_concept == 2

    def test_insert_before_the_first_and_after_the_last(self, taxonomy):
        view = taxonomy.freeze()
        assert view.get_concepts("刘德华#0") == ["歌手", "演员"]
        delta = TaxonomyDelta(name="t", relations_added=(
            self._relation("刘德华#0", "人物"),
            self._relation("刘德华#0", "艺人"),
        ))
        advanced, _ = advance_both(view, view, delta)
        assert advanced.get_concepts("刘德华#0") == ["人物", "歌手", "演员", "艺人"]
        assert advanced.stats().n_entity_concept == 5

    def test_removing_an_absent_member_leaves_the_key(self, taxonomy):
        view = taxonomy.freeze()
        delta = TaxonomyDelta(
            name="t", relations_removed=(self._relation("刘德华#0", "导演"),)
        )
        advanced, _ = advance_both(view, view, delta)
        before, after = view.as_indexes()[1], advanced.as_indexes()[1]
        assert after["刘德华#0"] is before["刘德华#0"]
        assert "导演" not in advanced.as_indexes()[2]
        assert advanced.stats().n_entity_concept == 3

    def test_remove_and_readd_one_key_in_one_delta(self, taxonomy):
        view = taxonomy.freeze()
        delta = TaxonomyDelta(
            name="t",
            entities_removed=(Entity("周杰伦#0", "周杰伦"),),
            entities_added=(Entity("周杰伦#1", "周杰伦"),),
            relations_removed=(self._relation("周杰伦#0", "歌手"),),
            relations_added=(
                self._relation("周杰伦#1", "歌手"),
                self._relation("周杰伦#0", "演员"),
            ),
        )
        advanced, _ = advance_both(view, view, delta)
        assert advanced.men2ent("周杰伦") == ["周杰伦#1"]
        assert advanced.get_concepts("周杰伦#0") == ["演员"]
        assert advanced.get_entities("歌手") == ["刘德华#0", "周杰伦#1"]
        assert advanced.stats().n_entity_concept == 4
