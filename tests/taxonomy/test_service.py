"""Tests for the versioned serving facade (repro.taxonomy.service)."""

import dataclasses
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import APIError, WorkloadError
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.service import (
    LATENCY_RESERVOIR_SIZE,
    APILatency,
    BatchedServingAPI,
    ServiceMetrics,
    TaxonomyService,
    TaxonomySnapshot,
)
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
def rebuilt():
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_relation(IsARelation("刘德华#0", "导演", "bracket"))
    return t


@pytest.fixture
def service(taxonomy):
    return TaxonomyService(taxonomy)


class TestSingleCalls:
    def test_delegates_to_api(self, service):
        assert service.men2ent("华仔") == ["刘德华#0"]
        assert service.get_concepts("刘德华#0") == ["歌手", "演员"]
        assert service.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]

    def test_metrics_accounting(self, service):
        service.men2ent("华仔")
        service.men2ent("无人")
        service.get_entities("歌手")
        metrics = service.metrics
        assert metrics.total_calls == 3
        latency = metrics.latency("men2ent")
        assert latency.calls == 2 and latency.hits == 1
        assert latency.hit_rate == 0.5
        assert 0.0 <= latency.mean_seconds <= latency.max_seconds
        assert metrics.as_dict()["men2ent"]["calls"] == 2

    def test_empty_argument_rejected_and_not_counted(self, service):
        with pytest.raises(APIError):
            service.men2ent("")
        assert service.metrics.total_calls == 0

    def test_single_is_checked_once_and_observed_once(
        self, service, monkeypatch
    ):
        checked, observed = [], []
        check = BatchedServingAPI._checked
        observe_group = service.metrics.observe_group

        def counting_check(api_name, argument):
            checked.append(api_name)
            return check(api_name, argument)

        def counting_observe_group(api_name, seconds, hits):
            observed.append(api_name)
            observe_group(api_name, seconds, hits)

        monkeypatch.setattr(
            BatchedServingAPI, "_checked", staticmethod(counting_check)
        )
        monkeypatch.setattr(
            service.metrics, "observe_group", counting_observe_group
        )
        assert service.get_concepts("刘德华#0") == ["歌手", "演员"]
        assert checked == observed == ["getConcept"]
        # the snapshot carries the read view, no second ledger
        fields = {field.name for field in dataclasses.fields(TaxonomySnapshot)}
        assert "api" not in fields


class TestBatchedCalls:
    def test_men2ent_batch_positional(self, service):
        assert service.men2ent_batch(["华仔", "无人", "周杰伦"]) == [
            ["刘德华#0"], [], ["周杰伦#0"],
        ]
        assert service.metrics.latency("men2ent").calls == 3
        assert service.metrics.latency("men2ent").hits == 2

    def test_get_concepts_batch(self, service):
        assert service.get_concepts_batch(["刘德华#0", "周杰伦#0"]) == [
            ["歌手", "演员"], ["歌手"],
        ]

    def test_get_entities_batch(self, service):
        assert service.get_entities_batch(["歌手", "导演"]) == [
            ["刘德华#0", "周杰伦#0"], [],
        ]

    def test_single_string_rejected(self, service):
        with pytest.raises(APIError, match="sequence"):
            service.men2ent_batch("华仔")


class TestSnapshots:
    def test_initial_version(self, service):
        assert service.version_id == "v1"
        assert service.snapshot.version == 1
        assert service.snapshot.stats().n_isa_total == 3

    def test_swap_bumps_version_atomically(self, service, rebuilt):
        old = service.snapshot
        snapshot = service.swap(rebuilt)
        assert snapshot.version == 2 and service.version_id == "v2"
        assert service.metrics.swaps == 1
        # new snapshot serves the rebuild, pinned old snapshot unchanged
        assert service.get_concepts("刘德华#0") == ["导演"]
        assert old.taxonomy.get_concepts("刘德华#0") == ["歌手", "演员"]

    def test_metrics_survive_swap(self, service, rebuilt):
        service.men2ent("华仔")
        service.swap(rebuilt)
        service.men2ent("华仔")
        assert service.metrics.latency("men2ent").calls == 2


class TestLatencyQuantiles:
    def test_known_distribution(self):
        latency = APILatency()
        for ms in range(1, 101):  # 1ms..100ms, uniform
            latency.observe(ms / 1000.0, hit=True)
        assert latency.p50_seconds == pytest.approx(0.050)
        assert latency.p95_seconds == pytest.approx(0.095)
        assert latency.p99_seconds == pytest.approx(0.099)
        assert latency.quantile(1.0) == pytest.approx(0.100)

    def test_empty_reads_zero(self):
        latency = APILatency()
        assert latency.p50_seconds == 0.0
        assert latency.p99_seconds == 0.0

    def test_single_sample(self):
        latency = APILatency()
        latency.observe(0.25, hit=False)
        assert latency.p50_seconds == 0.25
        assert latency.p99_seconds == 0.25

    def test_invalid_quantile_rejected(self):
        latency = APILatency()
        with pytest.raises(APIError):
            latency.quantile(0.0)
        with pytest.raises(APIError):
            latency.quantile(1.5)

    def test_reservoir_is_bounded_and_recent(self):
        from repro.taxonomy.service import LATENCY_RESERVOIR_SIZE

        latency = APILatency()
        for _ in range(LATENCY_RESERVOIR_SIZE):
            latency.observe(10.0, hit=True)  # ancient slow era
        for _ in range(LATENCY_RESERVOIR_SIZE):
            latency.observe(0.001, hit=True)  # recent fast era
        # quantiles reflect the recent window; max stays historical
        assert latency.p99_seconds == pytest.approx(0.001)
        assert latency.max_seconds == 10.0
        assert latency.calls == 2 * LATENCY_RESERVOIR_SIZE

    def test_json_and_registry_quantiles_agree(self):
        """``/metrics`` reports one sample set once: the JSON ``apis``
        block and the registry summary use one rank rule."""
        metrics = ServiceMetrics()
        for ms in range(1, 101):
            metrics.observe("men2ent", ms / 1000.0, hit=True)
        entry = metrics.as_dict()["men2ent"]
        [summary] = [
            family for family in metrics.metric_samples()
            if family.name == "serving_api_latency_seconds"
        ]
        [sample] = summary.samples
        assert dict(sample.quantiles) == {
            0.5: entry["p50_seconds"],
            0.95: entry["p95_seconds"],
            0.99: entry["p99_seconds"],
        }
        assert entry["p50_seconds"] == pytest.approx(0.050)

    def test_total_calls_reads_under_the_ledger_lock(self):
        """``observe`` inserts new APIs under the lock; a ``total_calls``
        summing the dict bare could see it change size mid-iteration."""
        metrics = ServiceMetrics()
        metrics.observe("men2ent", 0.001, hit=True)
        totals = []
        with metrics._lock:
            reader = threading.Thread(
                target=lambda: totals.append(metrics.total_calls)
            )
            reader.start()
            reader.join(timeout=0.1)
            assert reader.is_alive() and totals == []
        reader.join(timeout=10)
        assert totals == [1]

    def test_as_dict_surfaces_tail_latency(self, service):
        service.men2ent("华仔")
        entry = service.metrics.as_dict()["men2ent"]
        for key in ("p50_seconds", "p95_seconds", "p99_seconds"):
            assert key in entry
            assert 0.0 <= entry[key] <= entry["max_seconds"]


class _PerCallLatency(APILatency):
    """The per-call update the group form replaced, kept verbatim as
    the reference the group ledger must reproduce."""

    def observe(self, seconds: float, hit: bool) -> None:
        self.calls += 1
        if hit:
            self.hits += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        self._samples.append(seconds)


class _PerCallMetrics(ServiceMetrics):
    """The per-call ledger update, verbatim, over the reference entry."""

    def observe(self, api: str, seconds: float, hit: bool) -> None:
        with self._lock:
            self.per_api.setdefault(api, _PerCallLatency()).observe(
                seconds, hit
            )


_API_NAMES = ("men2ent", "getConcept", "getEntity")

#: one group: an API, then 0–200 calls as (seconds, hit)
_GROUP = st.tuples(
    st.sampled_from(_API_NAMES),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.booleans(),
        ),
        max_size=200,
    ),
    st.booleans(),  # record through the per-call observe instead
)

#: 11 groups of 200 on one API wrap the 2,048-slot reservoir
_WRAPPING = [
    (
        _API_NAMES[round % 2 * 2],
        [((i + 1) * 1.1e-6 * (round + 1), i % 3 == 0) for i in range(200)],
        False,
    )
    for round in range(22)
]


class TestGroupLedger:
    """``observe_group`` leaves the ledger exactly as one per-call
    ``observe`` per sample would."""

    @staticmethod
    def _assert_same(ledger, reference):
        assert list(ledger.per_api) == list(reference.per_api)
        for api, entry in ledger.per_api.items():
            expected = reference.per_api[api]
            assert (entry.calls, entry.hits) == (expected.calls, expected.hits)
            # bit for bit, not approximately
            assert entry.total_seconds.hex() == expected.total_seconds.hex()
            assert entry.max_seconds.hex() == expected.max_seconds.hex()
            assert list(entry._samples) == list(expected._samples)
        assert ledger.as_dict() == reference.as_dict()
        assert ledger.metric_samples() == reference.metric_samples()

    @settings(max_examples=60, deadline=None)
    @given(groups=st.lists(_GROUP, min_size=1, max_size=30))
    @example(groups=_WRAPPING)
    def test_groups_match_per_call_observes(self, groups):
        ledger, reference = ServiceMetrics(), _PerCallMetrics()
        for api, calls, per_call in groups:
            if per_call:
                for seconds, hit in calls:
                    ledger.observe(api, seconds, hit)
            else:
                ledger.observe_group(
                    api,
                    [seconds for seconds, _ in calls],
                    sum(hit for _, hit in calls),
                )
            for seconds, hit in calls:
                reference.observe(api, seconds, hit)
            self._assert_same(ledger, reference)

    def test_wrapping_example_wraps_the_reservoir(self):
        for name in ("men2ent", "getEntity"):
            n_calls = sum(
                len(calls) for api, calls, _ in _WRAPPING if api == name
            )
            assert n_calls > LATENCY_RESERVOIR_SIZE

    def test_empty_group_adds_no_entry(self):
        ledger = ServiceMetrics()
        ledger.observe_group("men2ent", [], 0)
        assert ledger.per_api == {}
        assert ledger.latency("men2ent").calls == 0

    def test_concurrent_groups_lose_no_update(self):
        """More writers than cores, switching threads as often as the
        interpreter allows: a group applied outside the lock would
        drop counts."""
        import sys

        ledger = ServiceMetrics()
        n_threads, n_groups = 8, 2000

        def write(api):
            for _ in range(n_groups):
                ledger.observe_group(api, [1.0] * 10, 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [
                threading.Thread(target=write, args=(_API_NAMES[i % 2],))
                for i in range(n_threads)
            ]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=30)
                assert not writer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for api in _API_NAMES[:2]:
            entry = ledger.latency(api)
            assert entry.calls == n_threads // 2 * n_groups * 10
            assert entry.hits == n_threads // 2 * n_groups * 3
            assert entry.total_seconds == float(entry.calls)
            assert len(entry._samples) == LATENCY_RESERVOIR_SIZE


class TestCanonicalNaming:
    """get_concepts/get_entities singles + their *_batch forms."""

    def test_canonical_singles(self, service):
        assert service.get_concepts("刘德华#0") == ["歌手", "演员"]
        assert service.get_entities("歌手") == ["刘德华#0", "周杰伦#0"]

    def test_canonical_batches(self, service):
        assert service.get_concepts_batch(["刘德华#0", "周杰伦#0"]) == [
            ["歌手", "演员"], ["歌手"],
        ]
        assert service.get_entities_batch(["歌手", "导演"]) == [
            ["刘德华#0", "周杰伦#0"], [],
        ]

    def test_list_passed_to_a_single_is_refused(self, service):
        for single in (
            service.men2ent, service.get_concepts, service.get_entities
        ):
            with pytest.raises(APIError, match="non-empty string"):
                single(["刘德华#0"])
        assert service.metrics.total_calls == 0

    def test_canonical_batch_rejects_single_string(self, service):
        with pytest.raises(APIError, match="sequence"):
            service.get_concepts_batch("刘德华#0")
        with pytest.raises(APIError, match="sequence"):
            service.get_entities_batch("歌手")

    @pytest.mark.parametrize("bad", ["", 5, None, ["华仔"], b"hua"])
    def test_batch_refuses_a_bad_member_as_its_single_would(
        self, service, bad
    ):
        with pytest.raises(APIError) as single:
            service.men2ent(bad)
        with pytest.raises(APIError) as batch:
            service.men2ent_batch(["华仔", bad, "周杰伦"])
        assert str(batch.value) == str(single.value)
        assert service.metrics.total_calls == 0

    def test_batch_rejects_empty_member_upfront(self, service):
        with pytest.raises(APIError, match="non-empty"):
            service.men2ent_batch(["华仔", ""])
        # all-or-nothing validation: nothing was served or counted
        assert service.metrics.total_calls == 0


class TestWorkloadThroughService:
    def _stream(self, taxonomy, **kwargs):
        return TableIICallStream(
            ArgumentPools.from_taxonomy(taxonomy), **kwargs
        )

    def test_replay_singles(self, taxonomy, service):
        calls = self._stream(taxonomy, seed=4).generate(400)
        metrics = replay_calls(service, calls)
        assert metrics is service.metrics
        assert metrics.total_calls == 400

    def test_replay_batched(self, taxonomy, service):
        calls = self._stream(taxonomy, seed=5, miss_rate=0.0).generate(501)
        metrics = replay_calls(service, calls, batch_size=7)
        assert metrics.total_calls == 501
        for name in ("men2ent", "getConcept", "getEntity"):
            latency = metrics.latency(name)
            if latency.calls:
                assert latency.hit_rate == 1.0

    def test_invalid_batch_size(self, taxonomy, service):
        calls = self._stream(taxonomy).generate(10)
        with pytest.raises(WorkloadError):
            replay_calls(service, calls, batch_size=0)


class TestPublishDelta:
    """Incremental publishes keep every snapshot guarantee of swap()."""

    def _delta(self, base, target):
        from repro.taxonomy.delta import TaxonomyDelta

        return TaxonomyDelta.compute(base, target)

    def _target(self):
        t = Taxonomy()
        t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
        t.add_entity(Entity("周杰伦#0", "周杰伦"))
        t.add_entity(Entity("王菲#0", "王菲"))
        t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
        t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
        t.add_relation(IsARelation("周杰伦#0", "歌手", "tag"))
        t.add_relation(IsARelation("王菲#0", "歌手", "tag"))
        return t

    def test_publishes_new_version_with_delta_content(self, taxonomy):
        service = TaxonomyService(taxonomy)
        delta = self._delta(taxonomy, self._target())
        snapshot = service.publish_delta(delta)
        assert snapshot.version_id == "v2"
        assert service.men2ent("王菲") == ["王菲#0"]
        assert service.get_entities("歌手") == \
            TaxonomyService(self._target()).get_entities("歌手")
        assert service.metrics.swaps == 1
        assert snapshot.stats() == self._target().stats()

    def test_pinned_snapshot_taxonomy_is_never_mutated(self, taxonomy):
        service = TaxonomyService(taxonomy)
        pinned = service.snapshot
        service.publish_delta(self._delta(taxonomy, self._target()))
        # the old snapshot's taxonomy object kept its v1 content
        assert pinned.taxonomy.men2ent("王菲") == []
        assert len(pinned.taxonomy) == 3
        assert pinned.read_view.men2ent("王菲") == []
        # and the new snapshot owns an independent store
        assert service.snapshot.taxonomy is not pinned.taxonomy

    def test_failed_publish_leaves_service_untouched_and_retryable(
        self, taxonomy
    ):
        from repro.errors import DeltaConflictError

        service = TaxonomyService(taxonomy)
        wrong_base = Taxonomy()
        wrong_base.add_entity(Entity("谁#0", "谁"))
        wrong_base.add_relation(IsARelation("谁#0", "何物", "tag"))
        bad_delta = self._delta(wrong_base, self._target())
        # the stamped base hash arms the handshake, so the wrong base
        # surfaces as a clean conflict before any structural check
        with pytest.raises(DeltaConflictError):
            service.publish_delta(bad_delta)
        assert service.version_id == "v1"
        assert service.metrics.swaps == 0
        assert len(service.snapshot.taxonomy) == 3  # base untouched
        # a correct delta still applies afterwards
        service.publish_delta(self._delta(taxonomy, self._target()))
        assert service.version_id == "v2"
        assert service.men2ent("王菲") == ["王菲#0"]

    def test_taxonomy_copy_is_independent(self, taxonomy):
        duplicate = taxonomy.copy()
        assert duplicate.stats() == taxonomy.stats()
        duplicate.add_entity(Entity("新#0", "新"))
        duplicate.add_relation(IsARelation("新#0", "人物", "tag"))
        assert not taxonomy.has_entity("新#0")
        assert taxonomy.men2ent("新") == []
        assert duplicate.men2ent("新") == ["新#0"]

    def test_headline_numbers_survive_a_statless_delta(self, taxonomy):
        """A hand-built delta without new_stats/new_n_relations must not
        zero the published snapshot's headline numbers."""
        from repro.taxonomy.delta import TaxonomyDelta

        target = self._target()
        computed = self._delta(taxonomy, target)
        bare = TaxonomyDelta(
            name=computed.name,
            entities_added=computed.entities_added,
            relations_added=computed.relations_added,
        )
        service = TaxonomyService(taxonomy)
        snapshot = service.publish_delta(bare)
        assert len(snapshot.read_view) == len(target)
        assert snapshot.stats() == target.stats()


class TestMetricsSerializability:
    """Regressions: an idle or barely-used ledger must never raise."""

    def test_as_dict_is_json_serializable_when_never_called(self):
        import json

        from repro.taxonomy.service import ServiceMetrics

        metrics = ServiceMetrics()
        assert metrics.as_dict() == {}
        assert json.loads(json.dumps(metrics.as_dict())) == {}
        assert metrics.total_calls == 0

    def test_as_dict_after_single_call_is_serializable(self, service):
        import json

        service.men2ent("华仔")  # exactly one sample in the reservoir
        payload = json.loads(json.dumps(service.metrics.as_dict()))
        entry = payload["men2ent"]
        assert entry["calls"] == 1
        assert entry["p50_seconds"] == entry["p99_seconds"]
        assert entry["p99_seconds"] <= entry["max_seconds"]

    def test_latency_for_unknown_api_reads_zero(self):
        from repro.taxonomy.service import ServiceMetrics

        entry = ServiceMetrics().latency("never-called")
        assert entry.calls == 0
        assert entry.mean_seconds == 0.0
        assert entry.hit_rate == 0.0
        assert entry.p50_seconds == 0.0
        assert entry.max_seconds == 0.0

    def test_zero_arg_quantiles_is_empty_tuple(self):
        assert APILatency().quantiles() == ()

    def test_extreme_quantiles_on_single_sample(self):
        latency = APILatency()
        latency.observe(0.5, hit=True)
        assert latency.quantile(0.0001) == 0.5
        assert latency.quantile(1.0) == 0.5


class TestServiceDeltaHistory:
    """publish_delta keeps a bounded lineage ring for chain catch-up."""

    def _delta(self, base, target):
        from repro.taxonomy.delta import TaxonomyDelta

        return TaxonomyDelta.compute(base, target)

    def _plus_entity(self, base, n):
        target = base.copy()
        target.add_entity(Entity(f"新星{n}#0", f"新星{n}"))
        target.add_relation(IsARelation(f"新星{n}#0", "歌手", "tag"))
        return target

    def test_history_records_lineage(self, taxonomy):
        service = TaxonomyService(taxonomy)
        v2 = self._plus_entity(taxonomy, 1)
        v3 = self._plus_entity(v2, 2)
        d1 = self._delta(taxonomy, v2)
        d2 = self._delta(v2, v3)
        service.publish_delta(d1)
        service.publish_delta(d2)
        assert service.version_lineage() == ["v2", "v3"]
        assert service.delta_history.chain(1, 3) == [d1, d2]

    def test_swap_breaks_the_chain(self, taxonomy, rebuilt):
        service = TaxonomyService(taxonomy)
        v2 = self._plus_entity(taxonomy, 1)
        service.publish_delta(self._delta(taxonomy, v2))
        service.swap(rebuilt)  # v3, no history entry
        v4 = self._plus_entity(rebuilt, 2)
        service.publish_delta(self._delta(rebuilt, v4))
        assert service.version_lineage() == ["v2", "v4"]
        assert service.delta_history.chain(1, 4) is None
        assert service.delta_history.chain(3, 4) is not None

    def test_explicit_version_stamps_the_snapshot(self, taxonomy, rebuilt):
        service = TaxonomyService(taxonomy)
        snapshot = service.swap(rebuilt, version=7)
        assert snapshot.version_id == "v7"
        assert service.version_id == "v7"
        v8 = self._plus_entity(rebuilt, 1)
        published = service.publish_delta(
            self._delta(rebuilt, v8), version=12
        )
        assert published.version_id == "v12"
        assert service.delta_history.chain(7, 12) is not None

    def test_stale_explicit_version_is_refused(self, taxonomy, rebuilt):
        from repro.errors import TaxonomyError

        service = TaxonomyService(taxonomy, version=5)
        with pytest.raises(TaxonomyError, match="must be newer"):
            service.swap(rebuilt, version=5)
        assert service.version_id == "v5"
