"""Tests for the paper's three public APIs and the Table II call stream."""

import random

import pytest

from repro.errors import APIError, WorkloadError
from repro.taxonomy.api import PAPER_API_MIX
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.service import TaxonomyService
from repro.taxonomy.store import Taxonomy
from repro.workloads import ArgumentPools, TableIICallStream, replay_calls


@pytest.fixture
def taxonomy():
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_entity(Entity("周杰伦#0", "周杰伦"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
    t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
    return t


@pytest.fixture
def api(taxonomy):
    return TaxonomyService(taxonomy)


def stream(taxonomy, **kwargs):
    return TableIICallStream(ArgumentPools.from_taxonomy(taxonomy), **kwargs)


def total_hits(metrics):
    return sum(metrics.latency(name).hits for name in PAPER_API_MIX)


class TestAPIs:
    """The three lookups, served and counted by one front."""

    def test_men2ent(self, api):
        assert api.men2ent("华仔") == ["刘德华#0"]

    def test_get_concept(self, api):
        assert api.get_concepts("刘德华#0") == ["歌手", "演员"]

    def test_get_entity(self, api):
        assert api.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]

    def test_empty_arguments_rejected(self, api):
        for call in (api.men2ent, api.get_concepts, api.get_entities):
            with pytest.raises(APIError):
                call("")
        assert api.metrics.total_calls == 0

    def test_usage_counting(self, api):
        api.men2ent("华仔")
        api.men2ent("无人")
        api.get_concepts("刘德华#0")
        men2ent = api.metrics.latency("men2ent")
        assert (men2ent.calls, men2ent.hits) == (2, 1)
        assert api.metrics.total_calls == 3
        assert men2ent.hit_rate == 0.5


class TestWorkload:
    """The Table II stream, replayed against a service."""

    def test_paper_mix_sums_to_one(self):
        assert sum(PAPER_API_MIX.values()) == pytest.approx(1.0)

    def test_men2ent_dominates_paper_mix(self):
        assert PAPER_API_MIX["men2ent"] > PAPER_API_MIX["getEntity"]
        assert PAPER_API_MIX["getEntity"] > PAPER_API_MIX["getConcept"]

    def test_generated_mix_matches_paper(self, taxonomy):
        calls = stream(taxonomy, seed=1).generate(4000)
        for name, expected in PAPER_API_MIX.items():
            share = sum(call.api == name for call in calls) / len(calls)
            assert share == pytest.approx(expected, abs=0.03)

    def test_hit_rate_high_for_low_miss(self, taxonomy, api):
        calls = stream(taxonomy, seed=2, miss_rate=0.0).generate(500)
        assert not any(call.expected_miss for call in calls)
        metrics = replay_calls(api, calls)
        assert metrics.total_calls == 500
        for name in PAPER_API_MIX:
            latency = metrics.latency(name)
            if latency.calls:
                assert latency.hit_rate == 1.0

    def test_deterministic(self, taxonomy):
        a = stream(taxonomy, seed=3).generate(100)
        b = stream(taxonomy, seed=3).generate(100)
        assert a == b

    def test_same_stream_as_legacy_algorithm(self, taxonomy):
        """RNG consumption matches the historical generator bit for bit."""
        pools = {
            "men2ent": sorted(
                m for e in ("刘德华#0", "周杰伦#0")
                for m in taxonomy.entity(e).mentions
            ),
            "getConcept": ["刘德华#0", "周杰伦#0"],
            "getEntity": ["歌手", "演员"],
        }
        rng = random.Random(7)
        apis = list(PAPER_API_MIX)
        weights = [PAPER_API_MIX[a] for a in apis]
        legacy = []
        for _ in range(300):
            api_name = rng.choices(apis, weights=weights)[0]
            if rng.random() < 0.05:
                argument = "未知词" + str(rng.randint(0, 10_000))
            else:
                argument = rng.choice(pools[api_name])
            legacy.append((api_name, argument))
        calls = stream(taxonomy, seed=7).generate(300)
        assert [(c.api, c.argument) for c in calls] == legacy

    def test_empty_pool_yields_counted_unknown(self):
        """The old silent-"空" path: now a seeded, flagged miss."""
        empty = Taxonomy()
        calls = stream(empty, seed=6, miss_rate=0.0).generate(80)
        assert all(call.expected_miss for call in calls)
        assert all(call.argument != "空" for call in calls)
        assert len({call.argument for call in calls}) > 1  # seeded, varied
        metrics = replay_calls(TaxonomyService(empty), calls)
        assert metrics.total_calls == 80
        assert total_hits(metrics) == 0

    def test_intended_misses_counted_in_ledger(self, taxonomy, api):
        calls = stream(taxonomy, seed=8, miss_rate=0.5).generate(400)
        misses = sum(call.expected_miss for call in calls)
        assert 100 < misses < 300  # ~half the stream
        metrics = replay_calls(api, calls)
        # every intended miss missed, every pool draw hit
        assert total_hits(metrics) == len(calls) - misses

    def test_invalid_miss_rate(self, taxonomy):
        with pytest.raises(WorkloadError):
            stream(taxonomy, miss_rate=1.5)

    def test_invalid_mix(self, taxonomy):
        with pytest.raises(WorkloadError):
            stream(taxonomy, mix={"men2ent": 0.5, "getConcept": 0.2,
                                  "getEntity": 0.2})

    def test_invalid_call_count(self, taxonomy):
        with pytest.raises(WorkloadError):
            stream(taxonomy).generate(0)
