"""Integration tests for the end-to-end build pipeline (Figure 2)."""

import pytest

from repro.core.generation.neural_gen import NeuralGenConfig
from repro.core.pipeline import (
    BuildResult,
    CNProbaseBuilder,
    PipelineConfig,
    ResourceCache,
    _harvest_contributions,
    build_cn_probase,
    harvest_lexicon,
)
from repro.encyclopedia import SyntheticWorld
from repro.encyclopedia.model import EncyclopediaDump
from repro.errors import PipelineError
from repro.eval.metrics import make_oracle, sample_precision
from repro.nlp.lexicon import Lexicon
from repro.workloads.spec import WorldSpec


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(seed=17, n_entities=700)


@pytest.fixture(scope="module")
def result(world) -> BuildResult:
    config = PipelineConfig(
        neural=NeuralGenConfig(epochs=3, embed_dim=16, hidden_dim=20),
        max_generation_pages=120,
    )
    return build_cn_probase(world.dump(), config)


class TestBuild:
    def test_empty_dump_rejected(self):
        with pytest.raises(PipelineError):
            CNProbaseBuilder().build(EncyclopediaDump())

    def test_all_sources_contribute(self, result):
        for source in ("bracket", "tag", "infobox", "abstract"):
            assert source in result.per_source_relations, source
            assert result.per_source_relations[source], source

    def test_verifiers_all_fire(self, result):
        for verifier in ("syntax", "ner", "incompatible"):
            assert verifier in result.removed_by
            assert result.removed_by[verifier], verifier

    def test_precision_in_paper_band(self, result, world):
        oracle = make_oracle(world)
        estimate = sample_precision(
            result.taxonomy.relations(), oracle, 2000, seed=5
        )
        assert 0.92 <= estimate.precision <= 0.99, str(estimate)

    def test_verification_improves_over_pool(self, world, result):
        oracle = make_oracle(world)
        unverified = build_cn_probase(
            world.dump(),
            PipelineConfig(
                enable_syntax=False, enable_ner=False,
                enable_incompatible=False, enable_abstract=False,
            ),
        )
        raw = sample_precision(unverified.taxonomy.relations(), oracle, 2000, 5)
        verified = sample_precision(result.taxonomy.relations(), oracle, 2000, 5)
        assert verified.precision > raw.precision + 0.03

    def test_bracket_source_highly_precise(self, result, world):
        oracle = make_oracle(world)
        estimate = sample_precision(
            result.per_source_relations["bracket"], oracle, 2000, seed=5
        )
        # Paper: 96.2% raw bracket precision.
        assert estimate.precision >= 0.93, str(estimate)

    def test_discovery_selected_subset_of_candidates(self, result):
        discovery = result.discovery
        assert discovery is not None
        assert discovery.n_candidates > len(discovery.selected)
        candidate_names = {c.name for c in discovery.candidates}
        assert set(discovery.selected) <= candidate_names

    def test_selected_predicates_are_genuine(self, result):
        from repro.encyclopedia.synthesis.inventory import PREDICATE_WHITELIST

        assert set(result.discovery.selected) <= PREDICATE_WHITELIST

    def test_taxonomy_has_both_relation_kinds(self, result):
        stats = result.taxonomy.stats()
        assert stats.n_entity_concept > 0
        assert stats.n_subconcept_concept > 0
        assert stats.n_entity_concept > stats.n_subconcept_concept

    def test_concept_layer_is_acyclic(self, result):
        assert result.taxonomy.graph.is_dag()

    def test_mention_index_serves_entities(self, result, world):
        entity = world.entities[0]
        if result.taxonomy.has_entity(entity.page_id):
            assert entity.page_id in result.taxonomy.men2ent(entity.name)

    def test_training_report_present(self, result):
        assert result.training_report is not None
        assert result.training_report.epoch_losses

    def test_reclassified_concept_pages(self, result):
        assert result.reclassified > 0


class TestAblationSwitches:
    def test_disable_all_sources_yields_empty(self, world):
        config = PipelineConfig(
            enable_bracket=False, enable_abstract=False,
            enable_infobox=False, enable_tag=False,
        )
        result = build_cn_probase(world.dump(), config)
        assert len(result.taxonomy) == 0

    def test_tag_only_build(self, world):
        config = PipelineConfig(
            enable_bracket=False, enable_abstract=False, enable_infobox=False,
        )
        result = build_cn_probase(world.dump(), config)
        assert set(result.per_source_relations) == {"tag"}
        assert len(result.taxonomy) > 0

    def test_abstract_requires_bracket_priors(self, world):
        config = PipelineConfig(
            enable_bracket=False, enable_infobox=False, enable_tag=False,
        )
        result = build_cn_probase(world.dump(), config)
        # no bracket priors → no distant supervision → no abstract source
        assert "abstract" not in result.per_source_relations

    def test_each_verifier_removes_something(self, result):
        assert result.n_removed == sum(
            len(v) for v in result.removed_by.values()
        )


class TestPinnedBuildBytes:
    """Speed work on the build must leave its output byte for byte.

    The hashes and veto counts were measured before the pair-verdict
    memo and the regex text kernel went in, and held under
    ``PYTHONHASHSEED`` 0, 1, 12345 and random.
    """

    @pytest.mark.parametrize("n_entities,seed,size,removed,content_hash", [
        (300, 3, 730, {"syntax": 91, "ner": 15, "incompatible": 4},
         "de256eb8dabc08b73cb4eaad553b75659f594a1d53fd4cc5e53f3f133438d742"),
        (1200, 9, 2844, {"syntax": 388, "ner": 60, "incompatible": 53},
         "2e09af3043481b9ee648285d5058a7e70bde6b1b759c56e432290b99efd8fedd"),
    ], ids=["300-entities", "1200-entities"])
    def test_build_bytes(self, n_entities, seed, size, removed, content_hash):
        world = WorldSpec(n_entities=n_entities).build_world(seed)
        result = CNProbaseBuilder(
            PipelineConfig(enable_abstract=False),
            resource_cache=ResourceCache(),
        ).build(world.dump())
        assert len(result.taxonomy) == size
        assert {
            name: len(vetoed) for name, vetoed in result.removed_by.items()
        } == removed
        assert result.taxonomy.content_hash() == content_hash


def reference_harvest(dump):
    """``harvest_lexicon`` before it summed weights: one ``add`` per
    contribution, kept verbatim."""
    lexicon = Lexicon.base()
    for page in dump:
        for word, freq in _harvest_contributions(page):
            lexicon.add(word, freq, "n")
    return lexicon


def test_harvest_equals_one_add_per_contribution(world):
    dump = world.dump()
    harvested = harvest_lexicon(dump)
    reference = reference_harvest(dump)
    assert list(harvested._entries.items()) == list(
        reference._entries.items()
    )
    assert harvested.total == reference.total
    assert harvested.prefixes == reference.prefixes
    assert harvested.max_word_len == reference.max_word_len
    # surfaces repeat across pages, and each is added once
    surfaces = {
        word for page in dump for word, _ in _harvest_contributions(page)
    }
    adds = harvested.version - Lexicon.base().version
    assert adds == len(surfaces)
    assert reference.version - Lexicon.base().version > adds
