"""Every serving front against one reference model.

A hypothesis ``RuleBasedStateMachine`` drives five fronts — a
one-shard store (``TaxonomyService``), a sharded store, a store-backed
replica router, a chaos cluster of fault-wrapped local replicas and a
loopback HTTP server — through reads, nightly publishes, a composed
catch-up publish, a second publisher's republish, full swaps, replica
kills / restarts / partitions, wire faults, probes and settles.  Every
answer is checked against a small reference model built from each
night's taxonomy records (never from a lookup under test).

The machine is sequential; ``test_batches_race_a_publishing_thread``
keeps the real-thread race: reader threads batch against four fronts
while another thread publishes the nightly chain.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from random import Random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.pipeline import PipelineConfig, build_cn_probase
from repro.errors import ReproError, ServiceUnavailableError
from repro.obs import TelemetryHub, set_hub, trace_context
from repro.serving import (
    ReplicatedRouter,
    ShardedSnapshotStore,
    TaxonomyClient,
    start_server,
)
from repro.taxonomy.delta import TaxonomyDelta, compose
from repro.taxonomy.model import HYPONYM_ENTITY
from repro.taxonomy.service import WIRE_API_METHODS, TaxonomyService
from repro.workloads import (
    FaultSpec,
    WireFaults,
    WorldSpec,
    build_chaos_cluster,
)
from repro.workloads.sampling import unknown_argument

SEED = 3
WORLD = WorldSpec(n_entities=60, alias_ambiguity=0.6, churn_rate=0.3)
NIGHTS = 3
APIS = tuple(WIRE_API_METHODS)
#: a near-miss key is a real key plus one of these characters
SUFFIXES = ("氏", "君", "号")
ADMIN_TOKEN = "model-machine-token"


class Version:
    """The reference model of one night: three dicts of sets."""

    def __init__(self, taxonomy) -> None:
        self.taxonomy = taxonomy
        self.content_hash = taxonomy.content_hash()
        self.index: dict[str, dict[str, set[str]]] = {
            api: {} for api in APIS
        }
        for entity in taxonomy.entities():
            for mention in entity.mentions:
                self.index["men2ent"].setdefault(mention, set()).add(
                    entity.page_id
                )
        for relation in taxonomy.relations():
            if relation.hyponym_kind != HYPONYM_ENTITY:
                continue
            self.index["getConcept"].setdefault(
                relation.hyponym, set()
            ).add(relation.hypernym)
            self.index["getEntity"].setdefault(
                relation.hypernym, set()
            ).add(relation.hyponym)

    def answers(self, api: str, keys) -> list[list[str]]:
        return [sorted(self.index[api].get(key, ())) for key in keys]


@dataclass(frozen=True)
class Inputs:
    versions: tuple[Version, ...]
    #: chain[k] takes night k to night k + 1
    chain: tuple[TaxonomyDelta, ...]
    #: per API: every night's keys, and those whose answer changes
    keys: dict[str, tuple[str, ...]]
    changing: dict[str, tuple[str, ...]]
    unknown: tuple[str, ...]

    def changed(self, api: str, night: int) -> tuple[str, ...]:
        """Keys whose answer night *night* + 1 changes (else any)."""
        old, new = self.versions[night], self.versions[night + 1]
        keys = tuple(
            key for key in self.changing[api]
            if old.answers(api, [key]) != new.answers(api, [key])
        )
        return keys or self.keys[api]


@lru_cache(maxsize=None)
def inputs() -> Inputs:
    """A 60-entity world and three churned nights, built once."""
    world = WORLD.build_world(SEED)
    config = PipelineConfig(enable_abstract=False)
    dumps = [world.dump()] + [
        WORLD.churned_dump(world, SEED + night)
        for night in range(1, NIGHTS + 1)
    ]
    taxonomies = [build_cn_probase(dump, config).taxonomy for dump in dumps]
    versions = tuple(Version(taxonomy) for taxonomy in taxonomies)
    keys = {
        api: tuple(sorted(set().union(
            *(version.index[api] for version in versions)
        )))
        for api in APIS
    }
    return Inputs(
        versions=versions,
        chain=tuple(
            TaxonomyDelta.compute(old, new)
            for old, new in zip(taxonomies, taxonomies[1:])
        ),
        keys=keys,
        changing={
            api: tuple(
                key for key in keys[api]
                if len({str(v.answers(api, [key])) for v in versions}) > 1
            )
            for api in APIS
        },
        unknown=tuple(unknown_argument(Random(SEED + n)) for n in range(3)),
    )


@lru_cache(maxsize=None)
def diff(old: int, new: int) -> TaxonomyDelta:
    """Night *old* → night *new* in one delta (any two nights)."""
    versions = inputs().versions
    return TaxonomyDelta.compute(
        versions[old].taxonomy, versions[new].taxonomy
    )


def keys_for(api: str):
    """Real keys of every night (those whose answer changes drawn as
    often as all the others), unknown keys and near misses."""
    data = inputs()
    real = st.sampled_from(data.keys[api])
    return st.one_of(
        st.sampled_from(data.changing[api]),
        real,
        st.sampled_from(data.unknown),
        st.tuples(real, st.sampled_from(SUFFIXES)).map("".join),
    )


def read(front, api: str, keys, batch: bool) -> list[list[str]]:
    single, batched = WIRE_API_METHODS[api]
    if batch:
        return getattr(front, batched)(list(keys))
    return [getattr(front, single)(key) for key in keys]


class InjectingHub(TelemetryHub):
    """A telemetry hub that runs one armed action after the Nth span.

    The service and the store record a span per key and the router one
    per shard group (inside a trace context), so an action armed here
    lands *between* the keys or groups of one batch.
    """

    def __init__(self) -> None:
        super().__init__()
        self._armed: list | None = None

    def arm(self, action, after: int) -> None:
        self._armed = [action, after]

    def disarm(self) -> None:
        self._armed = None

    def record_span(self, *args, **kwargs):
        span = super().record_span(*args, **kwargs)
        if self._armed is not None:
            self._armed[1] -= 1
            if self._armed[1] == 0:
                action, self._armed = self._armed[0], None
                action()
        return span


class ServingMachine(RuleBasedStateMachine):
    """Five serving fronts, one model, every answer checked."""

    def __init__(self) -> None:
        super().__init__()
        self.fronts: dict[str, object] = {}
        self.previous_hub = None
        self.server = None
        self.snapshots = None
        #: the model's night, and the version ordinal every front
        #: reports (a composed publish or a swap moves it by one)
        self.night = 0
        self.ordinal = 1
        self.wire: WireFaults | None = None
        #: one action the chaos replicas' stub sleep runs (see _sleep)
        self.on_sleep = None

    @initialize(shards=st.integers(1, 4))
    def build_fronts(self, shards):
        self.hub = InjectingHub()
        self.previous_hub = set_hub(self.hub)
        base = inputs().versions[0].taxonomy
        self.snapshots = tempfile.TemporaryDirectory(prefix="model-machine-")
        self.chaos = build_chaos_cluster(
            base, FaultSpec(replicas=3, probe_after=1), sleep=self._sleep
        )
        self.server = start_server(
            ShardedSnapshotStore(base, n_shards=shards),
            admin_token=ADMIN_TOKEN,
        )
        self.client = TaxonomyClient(self.server.url, admin_token=ADMIN_TOKEN)
        self.fronts = {
            "service": TaxonomyService(base.copy()),
            "store": ShardedSnapshotStore(base, n_shards=shards),
            "router": ReplicatedRouter.from_store(
                ShardedSnapshotStore(base, n_shards=shards), replicas=2
            ),
            "chaos": self.chaos.router,
            "http": self.client,
        }

    def teardown(self) -> None:
        if self.server is not None:
            self.client.close()
            self.server.close()
        if self.snapshots is not None:
            self.snapshots.cleanup()
        if self.previous_hub is not None:
            set_hub(self.previous_hub)

    # -- helpers ----------------------------------------------------------------

    @property
    def model(self) -> Version:
        return inputs().versions[self.night]

    def _sleep(self, seconds: float) -> None:
        """The chaos wire's delay hook: no wall clock, one armed action."""
        action, self.on_sleep = self.on_sleep, None
        if action is not None:
            action()

    def _snapshot(self, night: int) -> str:
        path = Path(self.snapshots.name) / f"night{night}.jsonl"
        if not path.exists():
            inputs().versions[night].taxonomy.save(path)
        return str(path)

    def _publish(self, delta, *, base: int) -> None:
        """One publish of *delta* to every front, naming *base*."""
        fronts = self.fronts
        for name in ("service", "store", "router", "chaos"):
            fronts[name].publish_delta(delta, base_version=base)
        self.client.apply_delta_wire(delta, base_version=f"v{base}")

    def _publish_next(self) -> None:
        self._publish(inputs().chain[self.night], base=self.ordinal)
        self.night += 1
        self.ordinal += 1

    # -- rules ------------------------------------------------------------------

    @rule(api=st.sampled_from(APIS), batch=st.booleans(), data=st.data())
    def read_every_front(self, api, batch, data):
        """The same keys, as singles or one batch, from every front."""
        keys = data.draw(st.lists(keys_for(api), min_size=1, max_size=6))
        expected = self.model.answers(api, keys)
        for name, front in self.fronts.items():
            try:
                answers = read(front, api, keys, batch)
            except ServiceUnavailableError:
                if name == "chaos":  # every replica down or refusing
                    continue
                raise
            assert answers == expected, (name, api, keys)

    @precondition(lambda self: self.night < NIGHTS)
    @rule(
        name=st.sampled_from(("service", "store", "router", "chaos")),
        api=st.sampled_from(APIS),
        data=st.data(),
    )
    def batch_across_a_publish(self, name, api, data):
        """A publish lands mid-batch; the batch is one version's answer.

        In-process fronts get it between keys or shard groups; the chaos
        router at the replica's pin, through the wire's delay hook.  The
        keys are ones the publish changes, repeats allowed, so a torn
        batch cannot pass for either night.
        """
        changed = inputs().changed(api, self.night)
        keys = data.draw(
            st.lists(st.sampled_from(changed), min_size=2, max_size=8)
        )
        before = self.model.answers(api, keys)
        fired: list[bool] = []

        def publish() -> None:
            fired.append(True)
            self._publish_next()

        try:
            if name == "chaos":
                self.on_sleep = publish
                delay = replace(self.wire or WireFaults(), delay_rate=1.0)
                for replica in self.chaos.replicas:
                    replica.set_wire_faults(delay)
                try:
                    answers = read(self.chaos.router, api, keys, True)
                except ServiceUnavailableError:
                    answers = None
                finally:
                    self.on_sleep = None
                    for replica in self.chaos.replicas:
                        replica.set_wire_faults(self.wire)
            else:
                self.hub.arm(publish, data.draw(st.integers(1, len(keys) - 1)))
                with trace_context("machine-batch"):
                    answers = read(self.fronts[name], api, keys, True)
        finally:
            self.hub.disarm()  # fired or not
        if not fired:
            publish()
        after = self.model.answers(api, keys)
        if answers is not None:
            assert answers in (before, after), (name, api, keys)

    @precondition(lambda self: self.night < NIGHTS)
    @rule()
    def publish_next_night(self):
        self._publish_next()

    @precondition(lambda self: self.night < NIGHTS - 1)
    @rule()
    def publish_composed_rest(self):
        """The rest of the chain in one step: one ordinal, many nights."""
        rest = compose(list(inputs().chain[self.night:]))
        self._publish(rest, base=self.ordinal)
        self.night = NIGHTS
        self.ordinal += 1

    @precondition(lambda self: self.night > 0)
    @rule()
    def republish_current_night(self):
        """A second publisher sends the night the fronts already hold,
        naming the version before it: every front merges, none forks."""
        self._publish(inputs().chain[self.night - 1], base=self.ordinal - 1)

    @rule(night=st.integers(0, NIGHTS))
    def swap(self, night):
        """A full swap to any night, back to the base one included."""
        taxonomy = inputs().versions[night].taxonomy
        path = self._snapshot(night)
        version = self.ordinal + 1
        fronts = self.fronts
        fronts["service"].swap(taxonomy.copy())
        fronts["store"].swap(taxonomy)
        fronts["router"].swap(taxonomy)
        self.client.swap(path)
        # The storeless router has nothing to swap: its replicas swap
        # from the saved file, then it publishes the matching delta,
        # which each swapped replica merges (and a missed one applies).
        for replica in self.chaos.replicas:
            try:
                replica.publish_snapshot(path, version=version)
            except ReproError:  # down, or a faulty wire
                pass
        self.chaos.router.publish_delta(
            diff(self.night, night), base_version=self.ordinal, version=version
        )
        self.ordinal, self.night = version, night

    @rule(
        replica=st.integers(0, 2),
        fault=st.sampled_from(("kill", "restart", "isolate", "reconnect")),
    )
    def replica_fault(self, replica, fault):
        getattr(self.chaos.replicas[replica], fault)()

    @rule(
        drop_rate=st.sampled_from((0.0, 0.3, 0.6)),
        error_rate=st.sampled_from((0.0, 0.3)),
    )
    def wire_faults_on(self, drop_rate, error_rate):
        self.wire = WireFaults(
            delay_rate=0.2, drop_rate=drop_rate, error_rate=error_rate
        )
        for replica in self.chaos.replicas:
            replica.set_wire_faults(self.wire)

    @rule()
    def wire_faults_off(self):
        self.wire = None
        for replica in self.chaos.replicas:
            replica.set_wire_faults(None)

    @rule(replica=st.integers(0, 2))
    def probe(self, replica):
        self.chaos.router.probe(0, replica)

    @rule()
    def settle(self):
        """Bring every replica back, heal the wire, one probe sweep:
        every replica then holds the published version."""
        for replica in self.chaos.replicas:
            if not replica.alive:
                if replica.events[-1] == "kill":
                    replica.restart()
                else:
                    replica.reconnect()
        self.wire = None
        self.chaos.settle()
        verdict = self.chaos.convergence()
        assert verdict["converged"], verdict
        assert verdict["expected_version"] == f"v{self.ordinal}"
        if verdict["expected_hash"] is not None:
            assert verdict["expected_hash"] == self.model.content_hash

    # -- invariants -------------------------------------------------------------

    @invariant()
    def versions_agree(self):
        fronts = self.fronts
        want = f"v{self.ordinal}"
        assert fronts["service"].version_id == want
        assert fronts["store"].version_id == want
        assert fronts["router"].version_id == want
        assert self.chaos.router.published_version_id == want
        served = self.client.version()
        assert served["version"] == want
        content_hash = self.model.content_hash
        assert fronts["service"].content_hash == content_hash
        assert fronts["store"].content_hash == content_hash
        assert fronts["router"].content_hash == content_hash
        assert served["content_hash"] == content_hash
        assert self.chaos.router.content_hash in (None, content_hash)


ServingMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    database=None,
)
TestServingMachine = ServingMachine.TestCase


def test_batches_race_a_publishing_thread():
    """Reader threads batch against four fronts while another thread
    publishes the three-night chain: every batch is one night's answer,
    and only the chaos router may refuse (every replica busy failing
    over)."""
    data = inputs()
    base = data.versions[0].taxonomy
    server = start_server(
        ShardedSnapshotStore(base, n_shards=4), admin_token=ADMIN_TOKEN
    )
    client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
    chaos = build_chaos_cluster(base, FaultSpec(replicas=3, probe_after=1))
    fronts = {
        "store": ShardedSnapshotStore(base, n_shards=4),
        "router": ReplicatedRouter.from_store(
            ShardedSnapshotStore(base, n_shards=4), replicas=2
        ),
        "http": client,
        "chaos": chaos.router,
    }
    # keys whose answer changes across the nights, so a torn batch shows
    varying = data.changing
    done = threading.Event()
    failures: list[tuple] = []
    #: per front, the nights its batches matched
    seen: dict[str, set[int]] = {name: set() for name in fronts}

    def reader(name: str, front, seed: int) -> None:
        rng = Random(seed)
        while not done.is_set():
            api = rng.choice(APIS)
            keys = rng.sample(varying[api], min(8, len(varying[api])))
            try:
                answers = read(front, api, keys, True)
            except ServiceUnavailableError:
                if name == "chaos":
                    continue
                failures.append((name, "raised"))
                return
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append((name, repr(exc)))
                return
            nights = {
                night for night, version in enumerate(data.versions)
                if answers == version.answers(api, keys)
            }
            if not nights:
                failures.append((name, "mixed versions", api, keys))
                return
            seen[name] |= nights

    def publisher() -> None:
        for night, delta in enumerate(data.chain, start=1):
            time.sleep(0.05)
            for name in ("store", "router", "chaos"):
                fronts[name].publish_delta(delta, base_version=night)
            client.apply_delta_wire(delta, base_version=f"v{night}")

    threads = [
        threading.Thread(target=reader, args=(name, front, seed))
        for seed, (name, front) in enumerate(fronts.items())
    ]
    writer = threading.Thread(target=publisher)
    try:
        for thread in threads:
            thread.start()
        writer.start()
        writer.join(timeout=10)
        time.sleep(0.05)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10)
        client.close()
        server.close()
    assert not writer.is_alive() and not any(t.is_alive() for t in threads)
    assert not failures, failures
    # every reader overlapped the publishes: it saw night 0 and a later one
    assert all(0 in nights and len(nights) > 1 for nights in seen.values())
    assert fronts["store"].version_id == f"v{NIGHTS + 1}"
