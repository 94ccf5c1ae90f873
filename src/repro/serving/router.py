"""Replication-aware routing over shard replicas.

:class:`ReplicatedRouter` is the availability layer of the cluster: it
owns the key→shard routing (the same stable :func:`~repro.serving.sharding.shard_for`
hash the store uses) and, for each shard, spreads reads round-robin over
``R`` replica backends.  A replica that raises is marked unhealthy and
the call fails over to the next healthy replica, up to a configurable
number of retries; unhealthy replicas are skipped until a probe passes
(probes run automatically every ``probe_after`` skips, and can be forced
with :meth:`ReplicatedRouter.probe`).

A replica backend is anything satisfying the
:class:`~repro.serving.replica.ReplicaBackend` protocol — the three
single-key lookups (``men2ent`` / ``get_concepts`` / ``get_entities``)
answering for that shard's slice of the keyspace.  In-process that is a
:class:`StoreShardReplica` view over a
:class:`~repro.serving.sharding.ShardedSnapshotStore` (what
``cn-probase serve --replicas R`` wires up); across processes it is a
:class:`~repro.serving.replica.RemoteReplica` driving another serving
process through :class:`~repro.serving.client.TaxonomyClient`
(:meth:`ReplicatedRouter.attach_replica` adds one to a shard's
rotation).  :meth:`ReplicatedRouter.publish_delta` keeps remote
replicas fresh the delta-aware way: each shard's slice of the delta is
shipped by value with a ``base_version`` handshake.  Every repair —
a replica refusing that slice, :meth:`ReplicatedRouter.swap` with a
snapshot path, a probe finding a replica alive but stale — is the same
call: the replica's own ``resync`` ladder, which catches it up by delta
chain when the :class:`~repro.taxonomy.delta.DeltaHistory` ring covers
its lag and otherwise heals it by a one-shot full snapshot
(``/admin/swap``) from the snapshot path a publish or swap carries (a
probe carries none).

Consistency note: a store-backed router pins one
:class:`~repro.serving.sharding.ShardSet` per *batch* (via the
``pinned_in()`` backend hook), so a batched response never mixes
versions even when a swap lands between shard groups — the same
guarantee the store itself gives.  Backends that track their own
version (local and remote replicas) answer through
``versioned_reader()``, every answer naming the version it came from:
a group answered from two versions (a remote's per-argument GETs
straddling a publish) or from a version older than the router last
saw that replica hold (it restarted from its base snapshot) is
refused and fails over.  Answers *across* shard groups of such a
router may still come from both sides of a publish in flight:
cross-shard atomicity would need cross-node coordination the wire
protocol does not carry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from repro.obs.clock import elapsed
from typing import Sequence

from repro.errors import (
    APIError,
    DeltaConflictError,
    ServiceUnavailableError,
)
from repro.obs import current_trace_id, get_hub
from repro.obs.metrics import MetricSnapshot, Sample
from repro.serving.replica import PublishedVersion
from repro.serving.sharding import (
    _API_LOOKUPS,
    ShardedSnapshotStore,
    shard_for,
    shard_ids,
)
from repro.taxonomy.delta import (
    DeltaHistory,
    bump_version,
    parse_version_id,
    publish_handshake,
)
from repro.taxonomy.service import (
    PROBE_KEY,
    BatchedServingAPI,
    ServiceMetrics,
)


def _timed_lookups(
    call, arguments: Sequence[str]
) -> tuple[list[list[str]], float]:
    """Answer *arguments* with *call*: one ``map`` between two clock
    reads.  Returns the answers in argument order and the group's
    seconds."""
    started = elapsed()
    results = list(map(call, arguments))
    return results, elapsed() - started


class StoreShardReplica:
    """In-process replica of one shard of a :class:`ShardedSnapshotStore`.

    Late-binding: every lookup reads the store's *current* shard set, so
    a swap on the store propagates to all replicas at once.  One replica
    object per (shard, replica slot) keeps health state meaningful even
    though process-local replicas share the underlying index memory.
    """

    def __init__(self, store: ShardedSnapshotStore, shard_id: int) -> None:
        self._store = store
        self._shard_id = shard_id

    def _view(self):
        return self._store.shard_set.shards[self._shard_id].read_view

    def men2ent(self, mention: str) -> list[str]:
        return self._view().men2ent(mention)

    def get_concepts(self, page_id: str) -> list[str]:
        return self._view().get_concepts(page_id)

    def get_entities(self, concept: str) -> list[str]:
        return self._view().get_entities(concept)

    def pinned_in(self, shard_set):
        """This replica's view inside an explicitly pinned shard set.

        The router pins one set per *batch* (not per group) with this,
        so a swap landing between shard groups cannot mix versions
        within one batched response.
        """
        return shard_set.shards[self._shard_id].read_view

    def healthcheck(self) -> bool:
        self._view()
        return True


@dataclass
class ReplicaState:
    """Router-side health bookkeeping for one replica backend.

    ``versioned_reader`` is the backend's hook when it reports the
    version each answer came from (looked up once, when the router
    takes the backend on), else None.  ``version`` is the ordinal the
    router last saw such a replica hold — after a publish it applied, a
    repair, or a probe; its answers from an older version are stale.
    """

    backend: object
    healthy: bool = True
    failures: int = 0
    skips_since_down: int = 0
    versioned_reader: object = field(default=None, init=False)
    version: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.versioned_reader = getattr(
            self.backend, "versioned_reader", None
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "healthy": self.healthy,
            "failures": self.failures,
            "skips_since_down": self.skips_since_down,
        }


#: A replica's resync outcome → the publish-report outcome it shows as.
_LADDER_OUTCOMES = {
    "aligned": "applied", "chained": "chained", "healed": "healed",
}


@dataclass
class RouterStats:
    """Cumulative routing outcomes (for ``/metrics`` and tests)."""

    attempts: int = 0
    failovers: int = 0
    probes: int = 0
    probe_recoveries: int = 0
    chain_catchups: int = 0
    snapshot_heals: int = 0
    #: probe-time self-healing: a stale-but-alive replica pulled its own
    #: catch-up at probe time (no publish involved)
    probe_resyncs: int = 0
    resync_chains: int = 0
    resync_heals: int = 0
    resync_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "failovers": self.failovers,
            "probes": self.probes,
            "probe_recoveries": self.probe_recoveries,
            "chain_catchups": self.chain_catchups,
            "snapshot_heals": self.snapshot_heals,
            "probe_resyncs": self.probe_resyncs,
            "resync_chains": self.resync_chains,
            "resync_heals": self.resync_heals,
            "resync_failures": self.resync_failures,
        }

    def metric_samples(self) -> list[MetricSnapshot]:
        """This ledger as one registry-shaped counter family.

        The :class:`~repro.obs.metrics.MetricsRegistry` collector hook:
        every routing outcome becomes a ``router_ops_total{op=...}``
        sample, so dashboards read one family instead of ten ad-hoc
        attributes.
        """
        return [MetricSnapshot(
            "router_ops_total", "counter",
            "Cumulative routing outcomes, per operation",
            tuple(
                Sample((("op", op),), float(value))
                for op, value in self.as_dict().items()
            ),
        )]


class ReplicatedRouter(BatchedServingAPI):
    """Route the canonical serving surface over shards × replicas."""

    def __init__(
        self,
        replica_sets: Sequence[Sequence[object]],
        *,
        retries: int = 2,
        probe_after: int = 16,
        metrics: ServiceMetrics | None = None,
        base_version: int = 1,
        hub=None,
    ) -> None:
        if not replica_sets or any(not replicas for replicas in replica_sets):
            raise APIError("router needs >= 1 replica for every shard")
        if retries < 0:
            raise APIError(f"retries must be >= 0, got {retries}")
        if probe_after < 1:
            raise APIError(f"probe_after must be >= 1, got {probe_after}")
        self._replicas: list[list[ReplicaState]] = [
            [ReplicaState(backend) for backend in replicas]
            for replicas in replica_sets
        ]
        self._rr: list[int] = [0] * len(self._replicas)
        self._retries = retries
        self._probe_after = probe_after
        self._lock = threading.Lock()
        self._store: ShardedSnapshotStore | None = None
        # storeless (pure-remote) routers track their own publish
        # lineage; store-backed ones defer to the store's
        self._publish_lock = threading.Lock()
        self._published = PublishedVersion(base_version)
        self._delta_history = DeltaHistory()
        shared_metrics = metrics is not None
        self.metrics = metrics if shared_metrics else ServiceMetrics()
        self.stats = RouterStats()
        self._owns_metrics = not shared_metrics
        self._hub = hub if hub is not None else get_hub()
        self._hub.registry.register_collector("router", self)

    @classmethod
    def from_store(
        cls,
        store: ShardedSnapshotStore,
        *,
        replicas: int = 2,
        retries: int = 2,
        probe_after: int = 16,
    ) -> "ReplicatedRouter":
        """R in-process replicas per shard over one sharded store.

        The router delegates :meth:`swap` to the store, so an admin
        hot-swap through the router republishes every replica of every
        shard in the store's single atomic assignment.  Router and store
        share one metrics ledger: the front is one service, however the
        calls reach it.
        """
        if replicas < 1:
            raise APIError(f"replicas must be >= 1, got {replicas}")
        router = cls(
            [
                [StoreShardReplica(store, shard_id) for _ in range(replicas)]
                for shard_id in range(store.n_shards)
            ],
            retries=retries,
            probe_after=probe_after,
            metrics=store.metrics,
            hub=store._hub,  # one telemetry hub per cluster
        )
        router._store = store
        return router

    def metric_samples(self) -> list[MetricSnapshot]:
        """Registry collector hook: routing stats, plus the serving
        ledger when this router owns it (a store-backed router shares
        the store's ledger, which the store already registered)."""
        samples = self.stats.metric_samples()
        if self._owns_metrics:
            samples.extend(self.metrics.metric_samples())
        return samples

    # -- cluster topology / versioning ----------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._replicas)

    @property
    def n_replicas(self) -> int:
        return max(len(replicas) for replicas in self._replicas)

    @property
    def version_id(self) -> str:
        if self._store is None:
            raise APIError("router has no backing store to version")
        return self._store.version_id

    @property
    def published_version_id(self) -> str:
        """The version id of the last publish this router made.

        Unlike :attr:`version_id` this also answers for storeless
        routers (from their own publish counter) — it is the version a
        resyncing replica is asked to reach.
        """
        return self._published_state().version_id

    @property
    def content_hash(self) -> str | None:
        """The published content hash (store's, or router-local)."""
        return self._published_state().content_hash

    def _published_state(self):
        """The published value: the store's shard set, or this
        storeless router's own :class:`PublishedVersion`."""
        if self._store is not None:
            return self._store.shard_set
        # lint: allow[lock-discipline] atomic reference read; assigned whole
        return self._published

    @property
    def delta_history(self) -> DeltaHistory:
        """The catch-up ring resyncs read (store's, or router-local)."""
        if self._store is not None:
            return self._store.delta_history
        return self._delta_history

    def shard_versions(self) -> list[str]:
        if self._store is None:
            raise APIError("router has no backing store to version")
        return self._store.shard_versions()

    def version_lineage(self) -> list[str]:
        """Versions delta publishes produced (store's, or router-local)."""
        if self._store is not None:
            return self._store.version_lineage()
        return self._delta_history.lineage_ids()

    def attach_replica(self, shard_id: int, backend) -> None:
        """Add a backend to one shard's rotation — e.g. a
        :class:`~repro.serving.replica.RemoteReplica` joining a
        store-backed cluster as an extra read replica.

        A version-reporting backend that is *behind* the published
        version joins parked (unhealthy): admitting it would mix
        taxonomy versions in the rotation.  The next
        :meth:`publish_delta` or :meth:`probe` runs its resync ladder
        (chain or heal) and re-admits it once it is aligned.
        """
        if not 0 <= shard_id < len(self._replicas):
            raise APIError(
                f"no shard {shard_id} (router has {len(self._replicas)})"
            )
        state = ReplicaState(backend)
        state.healthy = self._version_aligned(state)
        with self._lock:
            self._replicas[shard_id].append(state)
            replica_index = len(self._replicas[shard_id]) - 1
        self._hub.emit(
            "replica_attached", shard=shard_id, replica=replica_index,
            backend=repr(backend), healthy=state.healthy,
        )

    def swap(
        self,
        taxonomy,
        *,
        version: int | None = None,
        snapshot_path=None,
    ):
        """Hot-swap the backing store (store-backed routers only).

        Local replicas are late-binding views and see the new version
        immediately.  A full snapshot cannot ship by value, so attached
        *remote* replicas either run their own ``resync`` ladder against
        the store with *snapshot_path* (the taxonomy file, resolved by
        the remote process) as the heal — the same call a publish
        refusal and a probe make — or, without a path, are taken out of
        the rotation as stale: the version-aware probe refuses to
        re-admit them until a later publish heals them, so a swap never
        leaves the rotation serving two taxonomies.  Per-replica
        outcomes land in the event log as ``publish_outcome`` events.
        """
        if self._store is None:
            raise APIError(
                "router has no backing store; swap the shard backends "
                "directly"
            )
        result = self._store.swap(taxonomy, version=version)
        target = result.version
        self._hub.emit(
            "swap", component="router", version=f"v{target}",
            content_hash=result.content_hash,
        )
        report: list[dict] = []
        for shard_id, replicas in enumerate(self._replicas):
            for replica_index, state in enumerate(list(replicas)):
                backend = state.backend
                # anything that tracks its own published state is made
                # stale by this swap — even a backend that can only
                # receive deltas must at least be parked
                if not any(
                    callable(getattr(backend, name, None))
                    for name in (
                        "published", "publish_delta",
                        "publish_snapshot", "resync",
                    )
                ):
                    continue
                if snapshot_path is not None and callable(
                    getattr(backend, "resync", None)
                ):
                    outcome = self._recover(state, snapshot_path, "swap")
                else:
                    # stale by construction: park it (not a failure of
                    # the backend, so only the health flag moves)
                    self._set_health(state, False, "swap_stale")
                    outcome = "stale"
                report.append(self._publish_entry(
                    shard_id, replica_index, state.backend, outcome,
                    target, result.content_hash,
                ))
        for entry in report:
            self._hub.emit("publish_outcome", **entry)
        return result

    # -- publish reporting / event plumbing -------------------------------------

    @staticmethod
    def _publish_entry(
        shard, replica, backend, outcome, version, content_hash,
    ) -> dict:
        """One publish-report record; every outcome shares this schema.

        ``shard`` / ``replica`` / ``backend`` are None for cluster-level
        outcomes (a merge converges the whole front at once), never
        absent — consumers can rely on the keys existing.
        """
        return {
            "shard": shard,
            "replica": replica,
            "backend": repr(backend) if backend is not None else None,
            "outcome": outcome,
            "version": f"v{version}" if isinstance(version, int) else version,
            "content_hash": content_hash,
        }

    def _locate(self, state) -> tuple[int | None, int | None]:
        for shard_id, replicas in enumerate(self._replicas):
            for replica_index, candidate in enumerate(replicas):
                if candidate is state:
                    return shard_id, replica_index
        return None, None

    def _emit_health(self, state, healthy: bool, reason: str) -> None:
        shard_id, replica_index = self._locate(state)
        self._hub.emit(
            "replica_health",
            shard=shard_id,
            replica=replica_index,
            backend=repr(state.backend),
            healthy=healthy,
            reason=reason,
        )

    # -- delta-aware replication ------------------------------------------------

    def publish_delta(
        self,
        delta,
        *,
        snapshot_path=None,
        key_filter=None,
        version: int | None = None,
        base_version: int | None = None,
    ) -> object:
        """Publish a taxonomy delta to the whole topology.

        Store-backed: the store applies the delta once (replicas are
        late-binding views over its shard set, so a per-shard delta
        publish propagates to every :class:`StoreShardReplica` at once
        — replicas of untouched shards keep serving the identical read
        view objects) and the store's :class:`ShardSet` is returned.
        Storeless (pure-remote) routers version the publish themselves
        (``base_version`` at construction, +1 per publish) and return
        the report instead of a shard set: under their publish lock
        they run :func:`~repro.taxonomy.delta.publish_handshake`,
        record the history entry and advance, before any slice ships.

        Remote-capable backends (those exposing ``publish_delta``, the
        :class:`~repro.serving.replica.ReplicaBackend` replication
        surface) are then brought up to date the delta-aware way: each
        shard's *slice* of the delta ships by value with a
        ``base_version`` handshake.  A replica that refuses runs its
        own ``resync`` ladder — the call :meth:`probe` makes: chained
        when the :class:`~repro.taxonomy.delta.DeltaHistory` ring
        covers its lag, healed from *snapshot_path* otherwise, marked
        unhealthy when neither works.  Per-replica outcomes land in the
        event log as ``publish_outcome`` events.

        *key_filter* and *version* pass through to the store publish —
        a router-fronted replica process (``serve --replicas R``)
        receives sliced, version-stamped wire publishes exactly like a
        bare store does.
        """
        if self._store is not None:
            base = self._store.shard_set.version
            result = published = self._store.publish_delta(
                delta,
                key_filter=key_filter,
                version=version,
                base_version=base_version,
            )
            # the store merged when it already held the delta's target
            # bytes: replicas hold them too, nothing to ship
            merged = published.version == base
        else:
            if not any(
                callable(getattr(state.backend, "publish_delta", None))
                for replicas in self._replicas
                for state in replicas
            ):
                raise APIError(
                    "router has no backing store; apply the delta to the "
                    "shard backends directly"
                )
            if key_filter is not None:
                # a storeless router has no store to apply a filtered
                # slice to, and recording a full delta while claiming a
                # slice would poison later chain catch-ups — refuse,
                # like the storeless swap does
                raise APIError(
                    "router has no backing store to key-filter; publish "
                    "the sliced delta to the shard backends directly"
                )
            result = None
            with self._publish_lock:
                current = published = self._published
                base = current.version
                merged = publish_handshake(
                    current, delta, base_version, self._hub, "router"
                ) == "merge"
                if not merged:
                    published = PublishedVersion(
                        bump_version(base, version), delta.new_content_hash
                    )
                    # record and advance before shipping, so a refusing
                    # replica resyncs to this publish, not the one before
                    self._delta_history.record(
                        base,
                        published.version,
                        delta,
                        base_content_hash=(
                            current.content_hash or delta.base_content_hash
                        ),
                        content_hash=delta.new_content_hash,
                    )
                    self._published = published
        if merged:
            # a cluster-level outcome: replicas that missed the first
            # publish are resynced by the probe loop, not a re-ship
            report = [self._publish_entry(
                None, None, None, "merged",
                published.version, published.content_hash,
            )]
        else:
            report = self._ship(delta, base, published, snapshot_path)
            self._hub.emit(
                "publish", component="router",
                from_version=f"v{base}", version=published.version_id,
                content_hash=published.content_hash,
            )
        for entry in report:
            self._hub.emit("publish_outcome", **entry)
        return result if self._store is not None else report

    def _ship(self, delta, base, published, snapshot_path) -> list[dict]:
        """Push each remote-capable replica its shard's slice."""
        report: list[dict] = []
        n_shards = self.n_shards
        for shard_id, replicas in enumerate(self._replicas):
            sliced = None
            for replica_index, state in enumerate(list(replicas)):
                if not callable(
                    getattr(state.backend, "publish_delta", None)
                ):
                    continue
                if sliced is None:
                    sliced = self._slice_for(delta, shard_id, n_shards)
                try:
                    state.backend.publish_delta(
                        sliced, base_version=f"v{base}",
                        version=published.version,
                    )
                except DeltaConflictError:
                    # the handshake refused: the replica is elsewhere
                    outcome = self._recover(state, snapshot_path, "publish")
                except Exception:
                    self._mark_failed(state)
                    outcome = "failed"
                else:
                    outcome = "applied"
                    with self._lock:
                        state.version = published.version
                    self._set_health(state, True, "publish_applied")
                report.append(self._publish_entry(
                    shard_id, replica_index, state.backend, outcome,
                    published.version, published.content_hash,
                ))
        return report

    @staticmethod
    def _slice_for(delta, shard_id: int, n_shards: int):
        if n_shards == 1:
            return delta
        return delta.slice(
            lambda key: shard_for(key, n_shards) == shard_id
        )

    def _recover(self, state, snapshot_path, trigger: str) -> str:
        """Run one replica's own ``resync`` ladder (the repair a publish
        refusal and a swap heal share with :meth:`probe`); returns the
        outcome, ``aligned`` reporting as ``applied``.  Success
        re-admits the replica, failure parks it for the probe loop.
        """
        try:
            ladder = state.backend.resync(self, snapshot_path=snapshot_path)
            outcome = _LADDER_OUTCOMES[ladder["outcome"]]
        except Exception:
            self._mark_failed(state, reason=f"{trigger}_failed")
            return "failed"
        # an aligned replica already held the target bytes, at its own
        # ordinal; a repaired one was stamped with the target's
        held = ladder[
            "from_version" if ladder["outcome"] == "aligned" else "to_version"
        ]
        with self._lock:
            state.version = parse_version_id(held) or 0
            if outcome == "chained":
                self.stats.chain_catchups += 1
            elif outcome == "healed":
                self.stats.snapshot_heals += 1
        self._set_health(state, True, f"{trigger}_{outcome}")
        return outcome

    def _set_health(self, state, healthy: bool, reason: str) -> None:
        """Move one replica's health flag; emit only on a flip."""
        with self._lock:
            was_healthy = state.healthy
            state.healthy = healthy
            state.skips_since_down = 0
        if healthy != was_healthy:
            self._emit_health(state, healthy, reason)

    def _mark_failed(self, state, *, reason: str = "error") -> None:
        with self._lock:
            state.failures += 1
        self._set_health(state, False, reason)

    # -- health ----------------------------------------------------------------

    def health(self) -> list[list[dict[str, object]]]:
        """Per-shard, per-replica health (shard order, replica order)."""
        return [
            [state.as_dict() for state in replicas]
            for replicas in self._replicas
        ]

    def mark_unhealthy(self, shard_id: int, replica_index: int) -> None:
        self._set_health(
            self._replicas[shard_id][replica_index], False, "operator"
        )

    def _version_aligned(self, state) -> bool:
        """Is a version-reporting backend at the published version?

        Probes gate on this: a remote replica that missed a publish
        (its wire apply timed out, or the hub swapped underneath it)
        answers its healthcheck happily while serving stale answers —
        re-admitting it would mix taxonomy versions in the rotation.
        It stays parked until a publish or a probe-time resync heals
        it.  Backends without ``published()`` (in-process store views)
        are always aligned: they read the store's current shard set.

        The comparison is :meth:`PublishedVersion.matches`: content
        hashes when both sides advertise one (immune to ordinal drift,
        e.g. a replica healed through an out-of-band swap with the right
        bytes but its own counter), else ordinals.  An aligned replica's
        ordinal becomes the floor its answers are checked against.
        """
        published = getattr(state.backend, "published", None)
        if not callable(published):
            return True
        if self._store is None and not len(self._delta_history):
            # this router never published anything (a read-only load
            # balancer over independently-managed replicas): it has no
            # basis to call any served version stale
            return True
        expected = self._published_state()
        try:
            have = published()
        except Exception:
            return False
        if not have.matches(expected):
            return False
        with self._lock:
            state.version = have.version
        return True

    def probe(self, shard_id: int, replica_index: int) -> bool:
        """Probe one replica; on success it rejoins the rotation.

        Success means alive *and* version-aligned (see
        :meth:`_version_aligned`) — a healthy-but-stale remote replica
        stays out of the rotation.  When the backend can ``resync``, an
        alive-but-stale replica runs its own ladder right here and
        rejoins without waiting for the next publish — the self-healing
        half of replication, and the same ladder a publish refusal runs.
        A probe has no snapshot path, so a lag the delta history no
        longer covers stays parked until a publish or a
        ``swap(snapshot_path=…)`` heals it.
        """
        state = self._replicas[shard_id][replica_index]
        with self._lock:
            self.stats.probes += 1
        try:
            check = getattr(state.backend, "healthcheck", None)
            if check is not None:
                ok = bool(check())
            else:
                state.backend.men2ent(PROBE_KEY)
                ok = True
        except Exception:
            ok = False
        if ok:
            aligned = self._version_aligned(state)
            if not aligned:
                aligned = self._try_resync(shard_id, replica_index, state)
            ok = aligned
        with self._lock:
            was_healthy = state.healthy
            if ok:
                if not state.healthy:
                    self.stats.probe_recoveries += 1
                state.healthy = True
                state.skips_since_down = 0
            else:
                state.healthy = False
                state.skips_since_down = 0
        if ok != was_healthy:
            self._emit_health(
                state, ok, "probe_recovery" if ok else "probe_failed"
            )
        return ok

    def probe_all(self) -> int:
        """Probe every unhealthy replica; returns how many recovered.

        Healthy version-reporting replicas are checked too: one can
        restart from its base snapshot without failing a call, and
        until a read refuses it nothing else notices.  One found behind
        the published version is parked and probed like the rest, so
        its probe resyncs it.
        """
        recovered = 0
        for shard_id, replicas in enumerate(self._replicas):
            for replica_index, state in enumerate(replicas):
                if (
                    state.healthy
                    and state.versioned_reader is not None
                    and not self._version_aligned(state)
                ):
                    self._set_health(state, False, "stale")
                if not state.healthy and self.probe(shard_id, replica_index):
                    recovered += 1
        return recovered

    def _try_resync(self, shard_id: int, replica_index: int, state) -> bool:
        """Let an alive-but-stale replica pull its own catch-up.

        The replica's ``resync`` drives the whole recovery — read its
        own state, chain from this router's (or store's) delta history —
        so the router stays a coordinator, not a data plane.  Returns
        True when the replica ends aligned.
        """
        resync = getattr(state.backend, "resync", None)
        if not callable(resync):
            return False
        entry = {
            "shard": shard_id,
            "replica": replica_index,
            "backend": repr(state.backend),
        }
        try:
            entry.update(resync(self, snapshot_path=None))
        except Exception as exc:
            entry.update(outcome="failed", error=str(exc))
        outcome = entry.get("outcome")
        self._hub.emit("resync", **entry)
        ok = outcome in _LADDER_OUTCOMES
        with self._lock:
            if outcome == "chained":
                self.stats.resync_chains += 1
            elif outcome == "healed":
                self.stats.resync_heals += 1
            if ok:
                self.stats.probe_resyncs += 1
            else:
                self.stats.resync_failures += 1
        # trust, then verify: the replica must actually report aligned
        return ok and self._version_aligned(state)

    # -- routing ---------------------------------------------------------------

    def _pick(self, shard_id: int, exclude: set[int]) -> int | None:
        """Next replica for *shard_id*: round-robin over healthy ones.

        Selection is atomic: the healthy-replica scan and the rotation
        advance happen under one lock acquisition, so two concurrent
        picks can never choose from a half-updated rotation, and the
        cursor only ever advances *past the replica actually chosen* —
        when the healthy subset shrinks, the survivors keep absorbing
        the load evenly instead of whichever one happens to follow the
        dead slot in index order absorbing a double share.

        Every pick still counts one skip against each unhealthy
        replica; after ``probe_after`` skips a replica is probed
        in-line (outside the lock — probes do I/O), so a recovered
        backend rejoins the rotation without an operator call (a failed
        probe resets the countdown — cheap exponential-ish backoff).
        Returns None when every replica is excluded or down; a replica
        returned counts one ``stats.attempts`` in the same critical
        section that chose it.
        """
        replicas = self._replicas[shard_id]
        with self._lock:
            start = self._rr[shard_id]
            chosen: int | None = None
            for offset in range(len(replicas)):
                index = (start + offset) % len(replicas)
                if index in exclude:
                    continue
                if replicas[index].healthy:
                    chosen = index
                    self._rr[shard_id] = (index + 1) % len(replicas)
                    self.stats.attempts += 1
                    break
            probe_candidate: int | None = None
            for index, state in enumerate(replicas):
                if state.healthy or index in exclude:
                    continue
                state.skips_since_down += 1
                if (
                    probe_candidate is None
                    and state.skips_since_down >= self._probe_after
                ):
                    probe_candidate = index
        if probe_candidate is not None:
            recovered = self.probe(shard_id, probe_candidate)
            if chosen is None and recovered:
                # nothing else was healthy; the probe just brought
                # this replica back, so route to it
                with self._lock:
                    self._rr[shard_id] = (
                        probe_candidate + 1
                    ) % len(replicas)
                    self.stats.attempts += 1
                return probe_candidate
        return chosen

    def _serve_group(
        self,
        api_name: str,
        shard_id: int,
        arguments: Sequence[str],
        pin=None,
    ) -> list[list[str]]:
        """Serve one shard's argument group on one replica.

        The replica is pinned for the whole group — against *pin* (the
        shard set a batch captured up front) via the backend's
        ``pinned_in()`` hook when both exist — so a concurrent swap
        cannot tear the group; a single-key group reads the backend's
        current view.  A version-reporting replica answers through its
        ``versioned_reader`` instead (see :meth:`_read_versioned`).  A
        replica failure marks it unhealthy and the *entire* group fails
        over to the next one.  The group is answered in one pass timed
        once (:func:`_timed_lookups`), and only the replica that
        answered records its calls, at the group's per-call mean
        (:meth:`~repro.taxonomy.service.ServiceMetrics.observe_served`).
        """
        lookup_name = _API_LOOKUPS[api_name]
        attempts = self._retries + 1
        tried: set[int] = set()
        last_error: Exception | None = None
        trace_id = current_trace_id()
        group_started = elapsed() if trace_id is not None else 0.0
        for _ in range(attempts):
            index = self._pick(shard_id, tried)
            if index is None:
                break
            state = self._replicas[shard_id][index]
            try:
                if state.versioned_reader is not None:
                    served = self._read_versioned(state, api_name, arguments)
                else:
                    # resolving the pin is the first wire round-trip to
                    # the replica — a failure here is a replica failure
                    # and must fail over, not escape the group
                    pinned_in = getattr(state.backend, "pinned_in", None)
                    if pin is not None and pinned_in is not None:
                        target = pinned_in(pin)
                    else:
                        target = state.backend
                    served = _timed_lookups(
                        getattr(target, lookup_name), arguments
                    )
            except Exception as exc:  # failed replica: mark + fail over
                last_error = exc
                tried.add(index)
                with self._lock:
                    was_healthy = state.healthy
                    state.healthy = False
                    state.failures += 1
                    state.skips_since_down = 0
                    self.stats.failovers += 1
                if was_healthy:
                    self._emit_health(state, False, "serve_failure")
                continue
            results, seconds = served
            self.metrics.observe_served(api_name, arguments, results, seconds)
            if trace_id is not None:
                self._record_group_spans(
                    trace_id, api_name, shard_id, index, pin,
                    seconds, elapsed() - group_started,
                )
            return results
        detail = f": {last_error}" if last_error is not None else ""
        if trace_id is not None:
            self._hub.record_span(
                trace_id, "router", api_name,
                elapsed() - group_started,
                outcome="unavailable", shard=shard_id,
            )
        raise ServiceUnavailableError(
            f"{api_name}: no healthy replica for shard {shard_id} "
            f"after {attempts} attempts{detail}"
        )

    def _read_versioned(
        self, state, api_name: str, arguments: Sequence[str]
    ) -> tuple[list[list[str]], float]:
        """Serve a group through the replica's ``versioned_reader``.

        Returns what :func:`_timed_lookups` returns.  Raises (so the
        group fails over and the replica is parked for its probe to
        resync) when the answers came from two versions, or from one
        older than the replica held when the group began — it restarted
        from an old snapshot without failing a call.  A publish still
        in flight may be answered from either side of it.
        """
        floor = state.version
        read = state.versioned_reader()
        versions: set[int] = set()

        def call(argument: str) -> list[str]:
            result, version = read(api_name, argument)
            versions.add(version)
            return result

        served = _timed_lookups(call, arguments)
        if len(versions) > 1:
            raise ServiceUnavailableError(
                f"{state.backend!r} answered one group from versions "
                f"{sorted(versions)}"
            )
        if min(versions) < floor:
            raise ServiceUnavailableError(
                f"{state.backend!r} answered from v{min(versions)}, "
                f"behind the v{floor} it held"
            )
        return served

    def _record_group_spans(
        self, trace_id, api_name, shard_id, replica_index, pin,
        shard_seconds, group_seconds,
    ) -> None:
        """Router + shard spans for one served group.

        The shard span is the group's timed lookups on the replica
        that answered (the time its ledger calls share); the router
        span is the whole group including pick/failover, so the
        difference reads directly as routing overhead.
        """
        published = pin if pin is not None else self._published_state()
        version, content_hash = published.version_id, published.content_hash
        self._hub.record_span(
            trace_id, "shard", api_name, shard_seconds,
            shard=shard_id, replica=replica_index,
            version=version, content_hash=content_hash,
        )
        self._hub.record_span(
            trace_id, "router", api_name, group_seconds,
            shard=shard_id, replica=replica_index,
            version=version, content_hash=content_hash,
        )

    # -- serving hooks ---------------------------------------------------------

    def _single(self, api_name: str, argument: str) -> list[str]:
        shard_id = shard_for(argument, len(self._replicas))
        return self._serve_group(api_name, shard_id, (argument,))[0]

    def _batch(
        self, api_name: str, arguments: Sequence[str]
    ) -> list[list[str]]:
        # Group by shard so each shard's group lands on one replica —
        # the per-shard sub-batch a network front would send as one
        # request.  Groups are served in the order their shards first
        # appear, and the answers are dealt back by each key's shard.
        # For a store-backed router one shard set is pinned for the
        # whole batch, so a swap landing between groups cannot mix
        # versions in one response (the same guarantee the store
        # itself gives).
        pin = self._store.shard_set if self._store is not None else None
        n_shards = len(self._replicas)
        placements = shard_ids(arguments, n_shards)
        groups: dict[int, list[str]] = {}
        for shard_id, key in zip(placements, arguments):
            group = groups.get(shard_id)
            if group is None:
                groups[shard_id] = [key]
            else:
                group.append(key)
        answers: list = [None] * n_shards
        for shard_id, group in groups.items():
            answers[shard_id] = iter(
                self._serve_group(api_name, shard_id, group, pin=pin)
            )
        return list(map(next, map(answers.__getitem__, placements)))
