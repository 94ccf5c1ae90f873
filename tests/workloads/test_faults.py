"""The fault-injection layer: specs, the faulty wire, the chaos cluster."""

import pytest

from repro.errors import APIError, ServiceUnavailableError, WorkloadError
from repro.workloads import (
    FaultSpec,
    FaultyReplica,
    WireFaults,
    build_chaos_cluster,
)
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy


def make_taxonomy(generation: int = 0) -> Taxonomy:
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    for n in range(generation):
        page_id = f"新星{n}#0"
        t.add_entity(Entity(page_id, f"新星{n}"))
        t.add_relation(IsARelation(page_id, "歌手", "tag"))
    return t


class TestFaultSpecs:
    def test_round_trip(self):
        spec = FaultSpec(
            replicas=4,
            seed=3,
            wire=WireFaults(delay_rate=0.1, drop_rate=0.05, error_rate=0.01),
            probe_after=2,
        )
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_validation_catches_the_traps(self):
        with pytest.raises(WorkloadError, match=">= 1 replica"):
            FaultSpec(replicas=0)
        with pytest.raises(WorkloadError, match="probe_after"):
            FaultSpec(probe_after=0)
        with pytest.raises(WorkloadError, match="drop_rate"):
            WireFaults(drop_rate=1.5)
        with pytest.raises(WorkloadError, match="unknown keys"):
            FaultSpec.from_dict({"replicas": 2, "chaos_level": 11})


class TestFaultyReplica:
    def make(self, **kwargs):
        from repro.serving import LocalReplica

        return FaultyReplica(
            lambda: LocalReplica(make_taxonomy(0)), name="r0", **kwargs
        )

    def test_kill_makes_every_surface_unreachable(self):
        replica = self.make()
        replica.kill()
        for call in (
            lambda: replica.men2ent("华仔"),
            replica.healthcheck,
            replica.published,
            lambda: replica.resync(None),
            replica.versioned_reader,
        ):
            with pytest.raises(ServiceUnavailableError, match="unreachable"):
                call()

    def test_restart_rebuilds_stale_but_reconnect_keeps_state(self):
        from repro.serving import LocalReplica

        generations = iter((0, 0))
        replica = FaultyReplica(
            lambda: LocalReplica(make_taxonomy(next(generations))),
            name="r0",
        )
        base_hash = replica.published().content_hash
        from repro.taxonomy.delta import TaxonomyDelta

        delta = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(1))
        replica.publish_delta(delta, base_version="v1", version=2)
        assert replica.published().version_id == "v2"
        # a partition keeps the state it had
        replica.isolate()
        replica.reconnect()
        assert replica.published().version_id == "v2"
        # a process death loses it: back to the base snapshot, stale
        replica.kill()
        replica.restart()
        assert replica.published().version_id == "v1"
        assert replica.published().content_hash == base_hash
        assert replica.events == [
            "isolate", "reconnect", "kill", "restart",
        ]

    def test_wire_faults_drop_error_and_delay(self):
        slept: list[float] = []
        always_drop = self.make(wire=WireFaults(drop_rate=1.0), seed=1)
        with pytest.raises(ServiceUnavailableError, match="injected drop"):
            always_drop.men2ent("华仔")
        always_error = self.make(wire=WireFaults(error_rate=1.0), seed=1)
        with pytest.raises(APIError, match="injected server error"):
            always_error.men2ent("华仔")
        always_slow = self.make(
            wire=WireFaults(delay_rate=1.0, delay_seconds=0.5),
            seed=1,
            sleep=slept.append,
        )
        assert always_slow.men2ent("华仔") == ["刘德华#0"]
        assert slept == [0.5]
        always_slow.set_wire_faults(None)
        assert always_slow.men2ent("华仔") == ["刘德华#0"]
        assert slept == [0.5]  # faults lifted: no more delays
        always_slow.set_wire_faults(WireFaults(drop_rate=1.0))
        with pytest.raises(ServiceUnavailableError, match="injected drop"):
            always_slow.men2ent("华仔")  # and armed again

    def test_pinned_group_survives_a_mid_group_publish(self):
        from repro.taxonomy.delta import TaxonomyDelta

        replica = self.make()
        read = replica.versioned_reader()
        delta = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(1))
        replica.publish_delta(delta, base_version="v1", version=2)
        # the pinned reader still answers from the pre-publish snapshot,
        # and says so
        assert read("men2ent", "新星0") == ([], 1)
        assert replica.men2ent("新星0") == ["新星0#0"]
        assert replica.versioned_reader()("men2ent", "新星0") == (
            ["新星0#0"], 2,
        )


class TestChaosCluster:
    def test_replicas_are_independent_stores(self):
        from repro.taxonomy.delta import TaxonomyDelta

        cluster = build_chaos_cluster(make_taxonomy(0), FaultSpec(replicas=2))
        delta = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(1))
        cluster.replicas[0].publish_delta(
            delta, base_version="v1", version=2
        )
        assert cluster.replicas[0].inner_version() == "v2"
        assert cluster.replicas[1].inner_version() == "v1"

    def test_settle_and_convergence_after_a_kill(self):
        from repro.taxonomy.delta import TaxonomyDelta

        spec = FaultSpec(replicas=3, probe_after=1)
        cluster = build_chaos_cluster(make_taxonomy(0), spec)
        cluster.replicas[2].kill()
        delta = TaxonomyDelta.compute(make_taxonomy(0), make_taxonomy(1))
        cluster.router.publish_delta(delta, base_version=1, version=2)
        cluster.replicas[2].restart()  # back, but one version behind
        assert cluster.replicas[2].inner_version() == "v1"
        assert cluster.settle() >= 1  # the probe sweep resyncs it
        verdict = cluster.convergence()
        assert verdict["converged"] is True
        assert verdict["resyncs"]["resync_chains"] == 1
        dead = cluster.convergence.__self__.replicas[0]
        dead.kill()  # a replica left dead fails the gate
        assert cluster.convergence()["converged"] is False

    def test_fresh_cluster_settles_converged(self):
        # before its first publish the storeless router has no content
        # hash; replicas on the same base bytes and ordinal are aligned
        cluster = build_chaos_cluster(make_taxonomy(0), FaultSpec(replicas=3))
        assert cluster.settle() == 0
        verdict = cluster.convergence()
        assert verdict["converged"] is True
        assert verdict["expected_hash"] is None
        assert verdict["expected_version"] == "v1"
        assert {r["version"] for r in verdict["replicas"]} == {"v1"}
