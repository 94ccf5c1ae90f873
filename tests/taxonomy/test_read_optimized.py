"""Tests for the read-optimized serving view and the store's per-key
sorted-result memos."""

import pytest

from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.service import TaxonomyService
from repro.taxonomy.store import ReadOptimizedTaxonomy, Taxonomy


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
        snapshot = service.snapshot
        assert isinstance(snapshot.read_view, ReadOptimizedTaxonomy)

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
        assert service.snapshot.stats().n_isa_total == 4
