"""Incremental rebuild tests: the delta equivalence contract end to end.

The non-negotiable contract: ``build_incremental(dump, previous)``
produces a taxonomy byte-identical (saved JSONL) to a full ``build`` on
the same dump, in every reuse mode — and applying its ``TaxonomyDelta``
to the previous taxonomy reproduces it exactly.
"""

import dataclasses

import pytest

from repro.core.pipeline import (
    CNProbaseBuilder,
    PipelineConfig,
    PreviousBuild,
    ResourceCache,
)
from repro.encyclopedia import SyntheticWorld
from repro.encyclopedia.model import (
    EncyclopediaDump,
    EncyclopediaPage,
    Triple,
    diff_dumps,
)
from repro.errors import PipelineError


def small_config(**overrides) -> PipelineConfig:
    return PipelineConfig(enable_abstract=False, **overrides)


@pytest.fixture(scope="module")
def base_dump():
    return SyntheticWorld.generate(seed=21, n_entities=250).dump()


def perturb(dump, *, bracket_every=40, drop=None, add=0):
    """A new dump with bracket edits, optional removals and additions."""
    pages = []
    for i, page in enumerate(dump.pages):
        if drop is not None and i in drop:
            continue
        if i % bracket_every == 5 and page.bracket:
            page = dataclasses.replace(
                page, bracket="中国著名" + page.bracket
            )
        pages.append(page)
    for i in range(add):
        pages.append(EncyclopediaPage(
            page_id=f"新增{i}#0",
            title=f"新增{i}",
            bracket="中国当代歌手",
            abstract=f"新增{i}是一位歌手。",
            infobox=(Triple(f"新增{i}#0", "职业", "歌手"),),
            tags=("人物", "歌手"),
        ))
    return EncyclopediaDump(pages)


def assert_equivalent(builder, dump_old, dump_new, tmp_path, label):
    """Core contract: incremental == full bytes, delta applies exactly."""
    previous_result = builder.build(dump_old)
    incremental = builder.build_incremental(
        dump_new, PreviousBuild.from_result(dump_old, previous_result)
    )
    full = CNProbaseBuilder(
        builder.config, registry=builder.registry.copy(),
        resource_cache=ResourceCache(),
    ).build(dump_new)

    inc_path = tmp_path / f"{label}-inc.jsonl"
    full_path = tmp_path / f"{label}-full.jsonl"
    applied_path = tmp_path / f"{label}-applied.jsonl"
    incremental.taxonomy.save(inc_path)
    full.taxonomy.save(full_path)
    assert inc_path.read_bytes() == full_path.read_bytes()

    previous_result.taxonomy.apply_delta(incremental.delta)
    previous_result.taxonomy.save(applied_path)
    assert applied_path.read_bytes() == full_path.read_bytes()
    return incremental


class TestEquivalenceContract:
    def test_lexicon_stable_change_uses_incremental_resources(
        self, base_dump, tmp_path
    ):
        builder = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        )
        dump_new = perturb(base_dump)  # bracket edits keep the lexicon
        incremental = assert_equivalent(
            builder, base_dump, dump_new, tmp_path, "stable"
        )
        assert incremental.resource_mode == "incremental"
        assert incremental.stage_trace.get("resources").cache_hit
        assert not incremental.diff.is_empty
        assert incremental.diff.added == () and incremental.diff.removed == ()

    def test_added_and_removed_pages_fall_back_but_stay_exact(
        self, base_dump, tmp_path
    ):
        builder = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        )
        dump_new = perturb(base_dump, drop={17, 99}, add=3)
        incremental = assert_equivalent(
            builder, base_dump, dump_new, tmp_path, "fallback"
        )
        # new titles harvest into the lexicon → conservative full re-derive
        assert incremental.resource_mode == "full"
        assert len(incremental.diff.added) == 3
        assert len(incremental.diff.removed) == 2
        assert incremental.delta.summary()["entities_removed"] >= 1

    def test_surfaces_moved_between_pages_still_fast_path(
        self, base_dump, tmp_path
    ):
        """Per-page contributions differ but the lexicon nets out equal:
        the re-harvest second chance keeps the fast path engaged."""
        pages = list(base_dump.pages)
        donor = next(i for i, p in enumerate(pages) if p.tags)
        receiver = next(
            i for i, p in enumerate(pages)
            if i != donor and pages[donor].tags[0] not in p.tags
        )
        moved = pages[donor].tags[0]
        pages[donor] = dataclasses.replace(
            pages[donor], tags=pages[donor].tags[1:]
        )
        pages[receiver] = dataclasses.replace(
            pages[receiver], tags=pages[receiver].tags + (moved,)
        )
        dump_new = EncyclopediaDump(pages)
        builder = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        )
        incremental = assert_equivalent(
            builder, base_dump, dump_new, tmp_path, "moved"
        )
        assert incremental.resource_mode == "incremental"
        assert len(incremental.diff.changed) == 2

    def test_unchanged_dump_yields_empty_delta(self, base_dump, tmp_path):
        builder = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        )
        same = EncyclopediaDump(list(base_dump.pages))
        incremental = assert_equivalent(
            builder, base_dump, same, tmp_path, "noop"
        )
        assert incremental.diff.is_empty
        assert incremental.delta.is_empty
        assert incremental.resource_mode == "cache"  # same fingerprint

    def test_cold_previous_without_per_source_is_exact(
        self, base_dump, tmp_path
    ):
        """The CLI path: only the previous taxonomy + dump files exist."""
        config = small_config()
        previous_taxonomy = CNProbaseBuilder(
            config, resource_cache=ResourceCache()
        ).build(base_dump).taxonomy
        dump_new = perturb(base_dump)
        builder = CNProbaseBuilder(config, resource_cache=ResourceCache())
        incremental = builder.build_incremental(
            dump_new,
            PreviousBuild(dump=base_dump, taxonomy=previous_taxonomy),
        )
        full = CNProbaseBuilder(
            config, resource_cache=ResourceCache()
        ).build(dump_new)
        a, b = tmp_path / "cold.jsonl", tmp_path / "coldfull.jsonl"
        incremental.taxonomy.save(a)
        full.taxonomy.save(b)
        assert a.read_bytes() == b.read_bytes()
        # no per_source candidates → the tag stage could not replay
        assert not incremental.stage_trace.get("tag").cache_hit

    def test_empty_dump_rejected(self, base_dump):
        builder = CNProbaseBuilder(small_config())
        with pytest.raises(PipelineError):
            builder.build_incremental(
                EncyclopediaDump(),
                PreviousBuild(dump=base_dump, taxonomy=None),
            )


class TestGenerationReplay:
    def test_tag_stage_replays_for_unchanged_pages(self, base_dump):
        builder = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        )
        previous = builder.build(base_dump)
        incremental = builder.build_incremental(
            perturb(base_dump),
            PreviousBuild.from_result(base_dump, previous),
        )
        tag_record = incremental.stage_trace.get("tag")
        assert tag_record.ran and tag_record.cache_hit
        # globally-coupled sources re-run in full, no replay flag
        assert not incremental.stage_trace.get("bracket").cache_hit

    def test_replayed_tag_candidates_match_full_run(self, base_dump):
        builder = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        )
        previous = builder.build(base_dump)
        dump_new = perturb(base_dump, drop={10}, add=2)
        incremental = builder.build_incremental(
            dump_new, PreviousBuild.from_result(base_dump, previous)
        )
        full = CNProbaseBuilder(
            small_config(), resource_cache=ResourceCache()
        ).build(dump_new)
        assert incremental.per_source_relations["tag"] == \
            full.per_source_relations["tag"]


class TestResourceSignature:
    """Satellite: the cache key covers exactly the resource-shaping flags."""

    def test_non_resource_flag_still_hits_the_cache(self, base_dump):
        cache = ResourceCache()
        CNProbaseBuilder(small_config(), resource_cache=cache).build(
            base_dump
        )
        flipped = CNProbaseBuilder(
            small_config(enable_ner=False, enable_syntax=False),
            resource_cache=cache,
        ).build(base_dump)
        assert flipped.stage_trace.get("resources").cache_hit

    @pytest.mark.parametrize(
        "overrides",
        [{"harvest_lexicon": False}, {"pmi_smoothing": 0.4}],
        ids=["harvest_lexicon", "pmi_smoothing"],
    )
    def test_resource_flag_misses_the_cache(self, base_dump, overrides):
        cache = ResourceCache(maxsize=4)
        CNProbaseBuilder(small_config(), resource_cache=cache).build(
            base_dump
        )
        flipped = CNProbaseBuilder(
            small_config(**overrides), resource_cache=cache
        ).build(base_dump)
        assert not flipped.stage_trace.get("resources").cache_hit

    def test_signature_lists_every_declared_resource_field(self):
        builder = CNProbaseBuilder(small_config())
        assert builder._resource_signature() == tuple(
            getattr(builder.config, name)
            for name in PipelineConfig.RESOURCE_FIELDS
        )
        assert "harvest_lexicon" in PipelineConfig.RESOURCE_FIELDS
        assert "pmi_smoothing" in PipelineConfig.RESOURCE_FIELDS

    def test_pmi_smoothing_actually_shapes_resources(self, base_dump):
        """The widened field is real: it changes the derived statistics."""
        cache_a, cache_b = ResourceCache(), ResourceCache()
        CNProbaseBuilder(
            small_config(), resource_cache=cache_a
        ).build(base_dump)
        CNProbaseBuilder(
            small_config(pmi_smoothing=0.9), resource_cache=cache_b
        ).build(base_dump)
        (key_a,) = cache_a._entries
        (key_b,) = cache_b._entries
        pmi_a = cache_a._entries[key_a].pmi
        pmi_b = cache_b._entries[key_b].pmi
        assert pmi_a.pmi("中国", "著名") != pmi_b.pmi("中国", "著名")
