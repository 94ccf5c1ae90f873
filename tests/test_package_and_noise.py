"""Package-level exports and noise-channel behaviour tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.encyclopedia import NoiseConfig, SyntheticWorld
from repro.nlp.base_lexicon import PLACE_SEEDS, THEMATIC_SEEDS


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_names_resolve(self):
        assert repro.SyntheticWorld is SyntheticWorld
        assert callable(repro.build_cn_probase)
        assert repro.Taxonomy.__name__ == "Taxonomy"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_dir_lists_exports(self):
        names = dir(repro)
        assert "build_cn_probase" in names
        assert "SyntheticWorld" in names

    def test_taxonomy_service_names_the_one_shard_store(self):
        """``repro.taxonomy`` loads no serving module, and its
        ``TaxonomyService`` resolves on first use to the store."""
        code = (
            "import sys, repro.taxonomy\n"
            "print(sorted(n for n in sys.modules"
            " if n.startswith('repro.serving')))\n"
            "from repro.taxonomy.service import TaxonomyService\n"
            "import repro.serving\n"
            "print(TaxonomyService is repro.serving.ShardedSnapshotStore"
            " is repro.TaxonomyService)\n"
            "print(TaxonomyService(repro.taxonomy.Taxonomy()).n_shards)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        printed = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert printed.split("\n") == ["[]", "True", "1", ""]


class TestNoiseChannels:
    """Each channel, enabled alone, injects exactly its error type."""

    def _world(self, **overrides):
        config = NoiseConfig.noiseless()
        config = NoiseConfig(**{**vars(config), **overrides})
        return SyntheticWorld.generate(seed=5, n_entities=400, noise=config)

    def test_validate_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NoiseConfig(p_thematic_tag=1.5).validate()

    def test_thematic_channel(self):
        world = self._world(p_thematic_tag=1.0)
        thematic = set(THEMATIC_SEEDS)
        pages_with_thematic = sum(
            1 for p in world.dump() if set(p.tags) & thematic
        )
        assert pages_with_thematic > len(world.entities) * 0.8

    def test_ne_tag_channel(self):
        world = self._world(p_ne_tag=1.0)
        places = set(PLACE_SEEDS)
        entity_pages = [world.dump().get(e.page_id) for e in world.entities]
        tagged = sum(1 for p in entity_pages if set(p.tags) & places)
        assert tagged > len(entity_pages) * 0.8

    def test_ne_bracket_channel(self):
        world = self._world(p_ne_bracket=1.0, p_bracket_missing=0.0)
        places = set(PLACE_SEEDS)
        entity_pages = [world.dump().get(e.page_id) for e in world.entities]
        assert all(p.bracket in places for p in entity_pages)

    def test_tags_missing_channel(self):
        world = self._world(p_tags_missing=1.0)
        entity_pages = [world.dump().get(e.page_id) for e in world.entities]
        assert all(not p.tags for p in entity_pages)

    def test_sibling_channel_injects_non_gold_same_kind(self):
        world = self._world(p_sibling_tag=1.0)
        violations = 0
        checked = 0
        for entity in world.entities[:100]:
            page = world.dump().get(entity.page_id)
            for tag in page.tags:
                if not world.is_gold_isa(entity.page_id, tag):
                    info = world.concepts.get(tag)
                    if info is not None:
                        assert info.kind == entity.kind
                        violations += 1
            checked += 1
        assert violations > checked * 0.5

    def test_role_bracket_channel(self):
        world = self._world(p_role_bracket=1.0, p_bracket_missing=0.0)
        role_nouns = ("战略官", "执行官", "财务官", "总裁", "经理", "董事长")
        persons = [e for e in world.entities if e.kind == "person"]
        with_roles = [
            e for e in persons
            if e.bracket and e.bracket.endswith(role_nouns)
        ]
        # role brackets need an existing org name pool, so early persons
        # may fall back; the channel must still dominate
        assert len(with_roles) > len(persons) * 0.5
        sample = with_roles[0]
        assert any(r in sample.gold_hypernyms for r in role_nouns)

    def test_noiseless_tags_perfectly_gold(self):
        world = self._world()
        for entity in world.entities[:150]:
            page = world.dump().get(entity.page_id)
            for tag in page.tags:
                assert world.is_gold_isa(entity.page_id, tag)


class TestEmbeddingOOV:
    def test_extended_ids_map_to_unk_row(self):
        from repro.neural.layers import Embedding
        from repro.neural.vocab import UNK

        rng = np.random.default_rng(0)
        table = Embedding(rng, n_tokens=10, dim=4)
        regular = table(np.array([UNK]))
        extended = table(np.array([10, 57]))  # beyond-vocab ids
        np.testing.assert_array_equal(extended.data[0], regular.data[0])
        np.testing.assert_array_equal(extended.data[1], regular.data[0])


class TestTransitiveConceptQuery:
    def test_closure_via_concept_layer(self):
        from repro.taxonomy.model import Entity, IsARelation
        from repro.taxonomy.store import Taxonomy

        taxonomy = Taxonomy()
        taxonomy.add_entity(Entity("a#0", "a"))
        taxonomy.add_relation(IsARelation("a#0", "男演员", "tag"))
        taxonomy.add_relation(
            IsARelation("男演员", "演员", "tag", hyponym_kind="concept")
        )
        taxonomy.add_relation(
            IsARelation("演员", "人物", "tag", hyponym_kind="concept")
        )
        assert taxonomy.get_concepts("a#0") == ["男演员"]
        assert taxonomy.get_concepts_transitive("a#0") == [
            "人物", "演员", "男演员",
        ]
