"""Tests for the frozen, seeded world spec."""

import pytest

from repro.encyclopedia import diff_dumps
from repro.errors import WorkloadError
from repro.workloads import WorldSpec


class TestWorldSpec:
    def test_knobs_are_probabilities(self):
        with pytest.raises(WorkloadError, match="alias_ambiguity"):
            WorldSpec(alias_ambiguity=2.0)

    def test_noise_scales_with_knobs(self):
        low, high = WorldSpec(alias_ambiguity=0.0), WorldSpec(
            alias_ambiguity=1.0
        )
        assert high.noise().p_alias > low.noise().p_alias
        shallow, deep = WorldSpec(chain_depth=0.0), WorldSpec(chain_depth=1.0)
        assert deep.noise().p_role_bracket > shallow.noise().p_role_bracket

    def test_build_world_is_deterministic(self):
        spec = WorldSpec(n_entities=60)
        a = spec.build_world(5).dump()
        b = spec.build_world(5).dump()
        assert [p.page_id for p in a.pages] == [p.page_id for p in b.pages]
        assert [p.tags for p in a.pages] == [p.tags for p in b.pages]

    def test_churned_dump_changes_the_churn_fraction(self):
        spec = WorldSpec(n_entities=80, churn_rate=0.25)
        world = spec.build_world(5)
        churned = spec.churned_dump(world, 6)
        diff = diff_dumps(world.dump(), churned)
        assert not diff.added and not diff.removed
        assert len(diff.changed) == round(0.25 * len(world.dump().pages))

    def test_churned_dump_is_deterministic(self):
        spec = WorldSpec(n_entities=60, churn_rate=0.3)
        world = spec.build_world(5)
        a = spec.churned_dump(world, 7)
        b = spec.churned_dump(world, 7)
        assert [p.abstract for p in a.pages] == [p.abstract for p in b.pages]
        assert [p.tags for p in a.pages] == [p.tags for p in b.pages]

    def test_round_trips_through_a_dict(self):
        spec = WorldSpec(n_entities=60, alias_ambiguity=0.6, churn_rate=0.3)
        assert WorldSpec.from_dict(spec.as_dict()) == spec
        with pytest.raises(WorkloadError, match="unknown keys"):
            WorldSpec.from_dict({**spec.as_dict(), "surprise": True})
