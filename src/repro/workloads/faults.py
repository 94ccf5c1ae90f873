"""Fault injection for the replicated serving tier.

A :class:`FaultSpec` describes a **chaos cluster**: a storeless
:class:`~repro.serving.router.ReplicatedRouter` over
:class:`FaultyReplica`-wrapped
:class:`~repro.serving.replica.LocalReplica` backends, each owning an
independent copy of the taxonomy — the closest in-process analogue of
R replica processes behind a router — plus the per-call wire faults
(:class:`WireFaults`: delay, drop, injected 5xx) its replicas start
with.  Tests take replicas down and bring them back through
:meth:`FaultyReplica.kill` / :meth:`~FaultyReplica.restart` (a process
death) and :meth:`~FaultyReplica.isolate` /
:meth:`~FaultyReplica.reconnect` (a partition).

The point of the exercise is the self-healing contract: a killed
replica restarts **stale** (rebuilt from the base snapshot, one
version behind), and nothing but the router's version-aware reads and
probes and the replica's own ``resync`` is allowed to bring it back.
:meth:`ChaosCluster.settle` lifts the wire faults and runs one probe
sweep; :meth:`ChaosCluster.convergence` then reports whether every
replica ended alive on the version the router published — the
**byte-identical content hash** once the router has published one.

Determinism: every wire-fault decision draws from a ``Random`` seeded
from the fault spec, and this module never reads the clock — delaying
a call sleeps through a hook the caller injects (``time.sleep``, or a
test's stub), so the determinism lint holds here too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

from repro.errors import APIError, ServiceUnavailableError, WorkloadError
from repro.workloads.spec import _check_probability, _known_fields

if TYPE_CHECKING:
    from repro.serving.router import ReplicatedRouter


@dataclass(frozen=True)
class WireFaults:
    """Per-call wire-level faults a :class:`FaultyReplica` injects.

    Rates are independent per-call probabilities: a call may first be
    delayed (``delay_rate`` → sleep ``delay_seconds``), then dropped
    (``drop_rate`` → :class:`ServiceUnavailableError`, the wire
    timeout) or answered with an injected server error (``error_rate``
    → :class:`APIError`, the 5xx).
    """

    delay_rate: float = 0.0
    delay_seconds: float = 0.002
    drop_rate: float = 0.0
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("delay_rate", self.delay_rate)
        _check_probability("drop_rate", self.drop_rate)
        _check_probability("error_rate", self.error_rate)
        if self.delay_seconds < 0:
            raise WorkloadError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def as_dict(self) -> dict:
        return {
            "delay_rate": self.delay_rate,
            "delay_seconds": self.delay_seconds,
            "drop_rate": self.drop_rate,
            "error_rate": self.error_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WireFaults":
        return cls(**_known_fields(cls, data))


@dataclass(frozen=True)
class FaultSpec:
    """The shape of one chaos cluster.

    ``replicas`` sizes it (one shard × N replicas); ``wire`` is the
    fault mix every replica starts with; ``probe_after`` tunes how many
    routing skips a downed replica accumulates before the router
    probes (and, finding it alive but stale, resyncs) it — low values
    make recovery visible inside short runs.
    """

    replicas: int = 3
    seed: int = 0
    wire: WireFaults | None = None
    probe_after: int = 4

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise WorkloadError(
                f"fault spec needs >= 1 replica, got {self.replicas}"
            )
        if self.probe_after < 1:
            raise WorkloadError(
                f"probe_after must be >= 1, got {self.probe_after}"
            )

    def as_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "seed": self.seed,
            "wire": self.wire.as_dict() if self.wire is not None else None,
            "probe_after": self.probe_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        known = _known_fields(cls, data)
        if known.get("wire") is not None:
            known["wire"] = WireFaults.from_dict(known["wire"])
        return cls(**known)


class FaultyReplica:
    """A fault-injecting proxy around one replica backend.

    Wraps anything speaking the
    :class:`~repro.serving.replica.ReplicaBackend` surface (serving
    lookups + the replication surface) and stands between it and the
    router the way an unreliable network would: while :meth:`kill`-ed
    or :meth:`isolate`-d every call raises
    :class:`ServiceUnavailableError`; while up, :class:`WireFaults`
    may delay, drop, or fail any call.  :meth:`restart` rebuilds the
    inner backend from the factory — a process that lost its state and
    came back serving the base snapshot — whereas :meth:`reconnect`
    keeps it, a partition healing.

    Faults fire on the *wire* surface only: :meth:`inner_content_hash`
    and :meth:`inner_version` read the wrapped backend directly so the
    convergence report can inspect a replica the faults would hide.
    """

    def __init__(
        self,
        factory,
        *,
        name: str = "replica",
        wire: WireFaults | None = None,
        seed: int = 0,
        sleep=None,
    ) -> None:
        self._factory = factory
        self._inner = factory()
        self._name = name
        self._wire = wire
        self._rng = Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self.alive = True
        #: Chronological chaos-control events (``kill`` / ``restart`` /
        #: ``isolate`` / ``reconnect``) — observability for reports.
        self.events: list[str] = []

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:
        # lint: allow[lock-discipline] debug repr; racy bool read is fine
        state = "up" if self.alive else "down"
        return f"FaultyReplica({self._name}, {state})"

    # -- chaos controls --------------------------------------------------------

    def kill(self) -> None:
        """The process dies: unreachable until :meth:`restart`."""
        with self._lock:
            self.alive = False
            self.events.append("kill")

    def restart(self) -> None:
        """The process comes back — from the base snapshot, stale."""
        inner = self._factory()
        with self._lock:
            self._inner = inner
            self.alive = True
            self.events.append("restart")

    def isolate(self) -> None:
        """A partition: unreachable, but state survives."""
        with self._lock:
            self.alive = False
            self.events.append("isolate")

    def reconnect(self) -> None:
        """The partition heals; whatever state it had still serves."""
        with self._lock:
            self.alive = True
            self.events.append("reconnect")

    def set_wire_faults(self, wire: WireFaults | None) -> None:
        """Inject *wire* faults from now on (None: a healthy wire)."""
        self._wire = wire

    # -- the injected wire -----------------------------------------------------

    def _gate(self, op: str) -> None:
        # lint: allow[lock-discipline] atomic bool read; kill/restart flip it
        if not self.alive:
            raise ServiceUnavailableError(
                f"{self._name} is unreachable ({op})"
            )
        wire = self._wire
        if wire is None:
            return
        with self._lock:  # one seeded stream, even under worker threads
            delay = wire.delay_rate and self._rng.random() < wire.delay_rate
            drop = wire.drop_rate and self._rng.random() < wire.drop_rate
            error = (
                not drop
                and wire.error_rate
                and self._rng.random() < wire.error_rate
            )
        if delay and self._sleep is not None:
            self._sleep(wire.delay_seconds)
        if drop:
            raise ServiceUnavailableError(
                f"injected drop: {op} to {self._name} timed out"
            )
        if error:
            raise APIError(f"injected server error: {op} at {self._name}")

    # -- serving surface -------------------------------------------------------

    def men2ent(self, mention: str) -> list[str]:
        self._gate("men2ent")
        return self._inner.men2ent(mention)

    def get_concepts(self, page_id: str) -> list[str]:
        self._gate("get_concepts")
        return self._inner.get_concepts(page_id)

    def get_entities(self, concept: str) -> list[str]:
        self._gate("get_entities")
        return self._inner.get_entities(concept)

    def versioned_reader(self):
        """The inner replica's reader for a whole batch group.

        The gate fires once per group — the in-process analogue of one
        batched HTTP request either failing on the wire or being served
        whole against one server-side snapshot.
        """
        self._gate("read")
        # lint: allow[lock-discipline] atomic reference read of the inner view
        return self._inner.versioned_reader()

    def healthcheck(self) -> bool:
        self._gate("healthcheck")
        return bool(self._inner.healthcheck())

    # -- replication surface ---------------------------------------------------

    def published(self):
        self._gate("published")
        return self._inner.published()

    def publish_delta(self, delta, *, base_version=None, version=None):
        self._gate("publish_delta")
        return self._inner.publish_delta(
            delta, base_version=base_version, version=version
        )

    def publish_snapshot(self, taxonomy_path, *, version=None):
        self._gate("publish_snapshot")
        return self._inner.publish_snapshot(taxonomy_path, version=version)

    def resync(self, source, *, snapshot_path=None):
        self._gate("resync")
        return self._inner.resync(source, snapshot_path=snapshot_path)

    # -- fault-free inspection (reports, not the wire) -------------------------

    def inner_version(self) -> str:
        return self._inner.published().version_id

    def inner_content_hash(self) -> str | None:
        return self._inner.published().content_hash


@dataclass
class ChaosCluster:
    """A storeless router over fault-wrapped local replicas."""

    router: "ReplicatedRouter"
    replicas: list[FaultyReplica] = field(default_factory=list)

    def settle(self) -> int:
        """End-of-run recovery sweep: faults off, one probe pass.

        The injected network is healthy again; any replica still
        parked, or alive but behind the published version, gets one
        probe (which resyncs it if it is merely stale).  Returns how
        many replicas the sweep recovered.  A replica left dead (killed
        and never restarted) stays dead — settling heals the network,
        not the process.
        """
        for replica in self.replicas:
            replica.set_wire_faults(None)
        return self.router.probe_all()

    def convergence(self) -> dict:
        """Did every replica end alive on the published version?

        The chaos acceptance gate, after :meth:`settle`.  It uses the
        router's own alignment rule
        (:meth:`~repro.serving.replica.PublishedVersion.matches`): once
        the router has published, each replica's content hash must
        equal the published hash — byte-identical taxonomies, not just
        matching ordinals; before its first publish the router has no
        hash, and the ordinals must match.  Dead replicas (never
        restarted) fail the gate.
        """
        from repro.serving.replica import PublishedVersion
        from repro.taxonomy.delta import parse_version_id

        router = self.router
        expected = PublishedVersion(
            parse_version_id(router.published_version_id),
            router.content_hash,
        )
        entries = []
        for replica in self.replicas:
            have = None
            if replica.alive:
                have = PublishedVersion(
                    parse_version_id(replica.inner_version()),
                    replica.inner_content_hash(),
                )
            entries.append({
                "replica": replica.name,
                "alive": replica.alive,
                "version": have.version_id if have else None,
                "content_hash": have.content_hash if have else None,
                "converged": have is not None and have.matches(expected),
                "events": list(replica.events),
            })
        stats = router.stats
        return {
            "expected_version": expected.version_id,
            "expected_hash": expected.content_hash,
            "converged": all(entry["converged"] for entry in entries),
            "replicas": entries,
            "resyncs": {
                "probe_resyncs": stats.probe_resyncs,
                "resync_chains": stats.resync_chains,
                "resync_heals": stats.resync_heals,
                "resync_failures": stats.resync_failures,
                "chain_catchups": stats.chain_catchups,
                "snapshot_heals": stats.snapshot_heals,
                "probe_recoveries": stats.probe_recoveries,
            },
        }


def build_chaos_cluster(taxonomy, spec: FaultSpec, *, sleep=None) -> ChaosCluster:
    """One shard × ``spec.replicas`` fault-wrapped local replicas.

    Every replica owns an independent :class:`Taxonomy` copy behind a
    :class:`~repro.serving.replica.LocalReplica`, so a publish to one
    never leaks into another and a restarted replica is *genuinely*
    stale — the chaos cluster exercises the same delta-chain /
    resync / heal machinery R separate processes would.  *sleep* is
    the wall-clock hook :class:`WireFaults` delays use (``time.sleep``,
    or a test's stub).
    """
    from repro.serving.replica import LocalReplica
    from repro.serving.router import ReplicatedRouter

    def make_factory(index: int):
        def factory():
            return LocalReplica(
                taxonomy.copy(), version=1, name=f"replica-{index}"
            )

        return factory

    replicas = [
        FaultyReplica(
            make_factory(index),
            name=f"replica-{index}",
            wire=spec.wire,
            seed=spec.seed * 7919 + index,
            sleep=sleep,
        )
        for index in range(spec.replicas)
    ]
    router = ReplicatedRouter(
        [list(replicas)],
        retries=spec.replicas,
        probe_after=spec.probe_after,
        base_version=1,
    )
    return ChaosCluster(router=router, replicas=replicas)
