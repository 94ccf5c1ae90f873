"""Tests for build scheduling: the ExecutionPlan's dependency waves,
the run and merge order they give a build, and the build-context
resource cache."""

import pytest

from repro.core.generation.tags import TagSource
from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.core.stages import StageRegistry, default_registry, plan_execution
from repro.encyclopedia import SyntheticWorld
from repro.errors import PipelineError
from repro.nlp.lexicon import Lexicon
from repro.taxonomy.model import IsARelation


class StubSource:
    name = "stub"

    def generate(self, context):
        return []


class TagReader:
    """Proposes one relation when, and only when, it can read tag's."""

    name = "tag-reader"

    def generate(self, context):
        if not context.relations_from("tag"):
            return []
        return [IsARelation(
            "阅读概念", "人物", source="tag-reader",
            hyponym_kind="concept",
        )]


def fast_config(**kwargs) -> PipelineConfig:
    kwargs.setdefault("enable_abstract", False)
    return PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(seed=17, n_entities=250)


class TestExecutionPlan:
    def test_default_waves(self):
        plan = plan_execution(default_registry(), PipelineConfig())
        waves = [[e.name for e in wave] for wave in plan.source_waves]
        assert waves == [["bracket", "tag"], ["abstract", "infobox"]]
        assert [e.name for e in plan.verifiers] == [
            "syntax", "ner", "incompatible",
        ]

    def test_disabled_requirement_does_not_block(self):
        plan = plan_execution(
            default_registry(),
            PipelineConfig(enable_bracket=False),
        )
        waves = [[e.name for e in wave] for wave in plan.source_waves]
        # abstract/infobox still run (and will see empty priors), in wave 1
        assert waves == [["abstract", "infobox", "tag"]]

    def test_unregistered_requirement_does_not_block(self):
        registry = StageRegistry()
        registry.register_source("stub", StubSource, requires=("missing",))
        plan = plan_execution(registry, PipelineConfig())
        assert [[e.name for e in w] for w in plan.source_waves] == [["stub"]]

    def test_cycle_detected(self):
        registry = StageRegistry()
        registry.register_source("a", StubSource, requires=("b",))
        registry.register_source("b", StubSource, requires=("a",))
        with pytest.raises(PipelineError, match="cycle"):
            plan_execution(registry, PipelineConfig())

    def test_self_requirement_rejected_at_registration(self):
        registry = StageRegistry()
        with pytest.raises(PipelineError, match="require itself"):
            registry.register_source("a", StubSource, requires=("a",))

    def test_requires_read_from_factory_attribute(self):
        registry = default_registry()
        assert registry.get("abstract").requires == ("bracket",)
        assert registry.get("infobox").requires == ("bracket",)
        assert registry.get("bracket").requires == ()

    def test_unannotated_source_scheduled_fully_sequentially(self):
        # A stage that declares nothing keeps the pre-planner serial
        # contract: it runs after every source registered before it.
        registry = default_registry()
        registry.register_source("legacy", StubSource)
        plan = plan_execution(registry, PipelineConfig())
        waves = [[e.name for e in w] for w in plan.source_waves]
        assert waves == [
            ["bracket", "tag"], ["abstract", "infobox"], ["legacy"],
        ]
        assert registry.get("legacy").requires is None

    def test_explicit_empty_requires_opts_into_first_wave(self):
        registry = default_registry()
        registry.register_source("eager", StubSource, requires=())
        plan = plan_execution(registry, PipelineConfig())
        assert "eager" in [e.name for e in plan.source_waves[0]]

    def test_unannotated_source_sees_predecessor_output(self, world):
        # A legacy source reading relations_from on a source it never
        # declared must observe its output.
        registry = default_registry()
        registry.register_source("tag-reader", TagReader)
        builder = CNProbaseBuilder(
            fast_config(), registry=registry,
            resource_cache=ResourceCache(),
        )
        result = builder.build(world.dump())
        assert result.stage_trace.get("tag-reader").count == 1

    def test_copy_preserves_requires(self):
        duplicate = default_registry().copy()
        assert duplicate.get("abstract").requires == ("bracket",)

    def test_describe_lists_waves(self):
        plan = plan_execution(default_registry(), PipelineConfig())
        text = plan.describe()
        assert "wave 1: bracket, tag" in text
        assert "verifiers: syntax, ner, incompatible" in text


class TestRunOrder:
    def test_sources_merge_in_registration_order(self, world):
        # The waves run tag before infobox, but the merge order fed to
        # the candidate pool stays the registered one: that is what
        # keeps the saved bytes independent of the wave grouping.
        builder = CNProbaseBuilder(
            fast_config(), resource_cache=ResourceCache()
        )
        waves = [[e.name for e in w] for w in builder.plan().source_waves]
        assert waves == [["bracket", "tag"], ["infobox"]]
        result = builder.build(world.dump())
        assert list(result.per_source_relations) == [
            "bracket", "infobox", "tag",
        ]

    def test_source_registered_ahead_of_its_requirement_reads_it(
        self, world
    ):
        registry = StageRegistry()
        registry.register_source("tag-reader", TagReader, requires=("tag",))
        registry.register_source("tag", TagSource)
        builder = CNProbaseBuilder(
            fast_config(), registry=registry,
            resource_cache=ResourceCache(),
        )
        result = builder.build(world.dump())
        assert result.stage_trace.get("tag-reader").count == 1
        assert list(result.per_source_relations) == ["tag-reader", "tag"]


class TestResourceCache:
    def test_rebuild_hits_cache(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(fast_config(), resource_cache=cache)
        first = builder.build(world.dump())
        second = builder.build(world.dump())
        assert not first.stage_trace.get("resources").cache_hit
        assert second.stage_trace.get("resources").cache_hit
        assert cache.hits == 1 and cache.misses == 1
        assert [r.key for r in first.taxonomy.relations()] == \
            [r.key for r in second.taxonomy.relations()]

    def test_cache_shared_across_builders(self, world):
        cache = ResourceCache()
        CNProbaseBuilder(fast_config(), resource_cache=cache).build(world.dump())
        other = CNProbaseBuilder(fast_config(), resource_cache=cache)
        assert other.build(world.dump()).stage_trace.get("resources").cache_hit

    def test_changed_dump_misses(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(fast_config(), resource_cache=cache)
        builder.build(world.dump())
        other_dump = SyntheticWorld.generate(seed=23, n_entities=120).dump()
        result = builder.build(other_dump)
        assert not result.stage_trace.get("resources").cache_hit

    def test_resource_config_keys_cache(self, world):
        cache = ResourceCache()
        CNProbaseBuilder(
            fast_config(), resource_cache=cache
        ).build(world.dump())
        result = CNProbaseBuilder(
            fast_config(harvest_lexicon=False), resource_cache=cache
        ).build(world.dump())
        assert not result.stage_trace.get("resources").cache_hit

    def test_opt_out_flag(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(
            fast_config(resource_cache=False), resource_cache=cache
        )
        builder.build(world.dump())
        second = builder.build(world.dump())
        assert not second.stage_trace.get("resources").cache_hit
        assert len(cache) == 0

    def test_external_lexicon_not_cached(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(
            fast_config(), lexicon=Lexicon.base(), resource_cache=cache
        )
        builder.build(world.dump())
        assert len(cache) == 0

    def test_bounded_lru_evicts_oldest(self):
        cache = ResourceCache(maxsize=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"  # refresh a
        cache.put(("c",), "C")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A" and cache.get(("c",)) == "C"

    def test_invalid_maxsize(self):
        with pytest.raises(PipelineError):
            ResourceCache(maxsize=0)


class TestDumpFingerprint:
    def test_stable_and_order_sensitive(self, world):
        dump = world.dump()
        assert dump.fingerprint() == dump.fingerprint()
        assert dump.fingerprint() == world.dump().fingerprint()

    def test_changes_on_add(self, world):
        from repro.encyclopedia.model import EncyclopediaPage

        dump = world.dump()
        before = dump.fingerprint()
        dump.add(EncyclopediaPage(page_id="新页#0", title="新页"))
        assert dump.fingerprint() != before
