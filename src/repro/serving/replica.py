"""Replica backends: the protocol the router routes over, plus remotes.

:class:`~repro.serving.router.ReplicatedRouter` never cares what a
replica *is* — only what it answers.  This module names that contract
(:class:`ReplicaBackend`) and provides the remote implementation that
turns the router into a real multi-process cluster:
:class:`RemoteReplica` drives another serving process through its
:class:`~repro.serving.client.TaxonomyClient`, including the
delta-aware replication surface (ship a per-shard-sliced
:class:`~repro.taxonomy.delta.TaxonomyDelta` by value, handshake on
``base_version``, and :meth:`RemoteReplica.resync` — chain, else
full snapshot — when the handshake fails).

The in-process counterpart,
:class:`~repro.serving.router.StoreShardReplica`, lives next to the
router; both satisfy the same protocol, so a shard's replica set can
mix local views and remote processes freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import APIError, ReproError
from repro.taxonomy.delta import TaxonomyDelta, compose, parse_version_id

if TYPE_CHECKING:
    from repro.serving.client import TaxonomyClient
    from repro.taxonomy.store import Taxonomy


@dataclass(frozen=True)
class PublishedVersion:
    """A published version: ordinal and content hash as one value.

    What a replica reports it serves (one read, never half-updated) and
    what a storeless router last published.  ``content_hash`` is
    ``None`` when the published state was never hashed (a frozen view
    swap), in which case callers fall back to the ordinal.
    """

    version: int
    content_hash: str | None = None

    @property
    def version_id(self) -> str:
        return f"v{self.version}"

    def matches(self, published) -> bool:
        """Is this the same version as *published* (anything with
        ``version`` and ``content_hash``)?

        The router's alignment rule: content-addressed when both sides
        advertise a hash — byte-equality of the served taxonomy, immune
        to ordinal drift — else the ordinal lockstep check.
        """
        theirs = published.content_hash
        if self.content_hash is not None and theirs is not None:
            return self.content_hash == theirs
        return self.version == published.version


@runtime_checkable
class ReplicaBackend(Protocol):
    """What the router requires of a replica: the three shard lookups.

    Everything else is optional and discovered by ``getattr``:

    - ``healthcheck() -> bool`` — probed instead of a benign lookup;
    - ``pinned_in(shard_set)`` — the snapshot pinning hook for
      backends that report no version (in-process store views), so a
      batch group never spans two published versions;
    - ``versioned_reader()`` — for backends that track their own
      published version (:class:`LocalReplica`, :class:`RemoteReplica`):
      a lookup ``(api_name, argument) -> (result, version)`` for one
      batch group, each answer naming the version it came from.  The
      router refuses a group answered from two versions (a remote whose
      per-argument GETs straddled a publish), or from one older than
      the router last saw the replica hold (it restarted stale), and
      fails it over;
    - the replication surface (``published()`` → a
      :class:`PublishedVersion`, ``publish_delta(...)``,
      ``publish_snapshot(...)`` and ``resync(source, snapshot_path=)``)
      — backends exposing it receive delta publishes from
      :meth:`~repro.serving.router.ReplicatedRouter.publish_delta`, and
      ``resync`` is the one repair the router calls for them: when a
      pushed slice is refused with a 409, when
      :meth:`~repro.serving.router.ReplicatedRouter.swap` is given a
      snapshot path, and when a probe finds them alive but stale.
      Backends without it (plain read replicas over a shared store)
      are updated through the store instead.
    """

    def men2ent(self, mention: str) -> list[str]: ...

    def get_concepts(self, page_id: str) -> list[str]: ...

    def get_entities(self, concept: str) -> list[str]: ...


class RemoteReplica:
    """One remote serving process as a shard replica backend.

    Reads go over the wire as singles (the router already grouped the
    batch per shard; a remote *serving* process applies its own
    batching underneath).  Writes are the delta-aware replication
    surface: :meth:`publish_delta` ships a delta by value with the
    ``base_version`` handshake, :meth:`publish_snapshot` is the
    one-shot full heal (``/admin/swap`` on a server-side path) for a
    replica whose version fell outside every chain.

    *shard_id* / *n_shards* name the slice of the cluster keyspace this
    replica serves; they are sent as the wire ``slice`` so the replica
    validates and applies exactly the keys the router will ever route
    to it.  A replica serving the full keyspace (n_shards=1 cluster, or
    a full-copy replica) omits them.
    """

    def __init__(
        self,
        client: "TaxonomyClient",
        *,
        shard_id: int | None = None,
        n_shards: int | None = None,
    ) -> None:
        if (shard_id is None) != (n_shards is None):
            raise APIError(
                "shard_id and n_shards name one slice: give both or neither"
            )
        self._client = client
        self._shard_id = shard_id
        self._n_shards = n_shards

    @property
    def client(self) -> "TaxonomyClient":
        return self._client

    @property
    def slice_spec(self) -> dict | None:
        """The wire ``slice`` object, or None for a full-keyspace replica."""
        if self._shard_id is None:
            return None
        return {"shard_id": self._shard_id, "n_shards": self._n_shards}

    def __repr__(self) -> str:  # in failover logs and reports
        where = self._client._base_url
        if self._shard_id is not None:
            where += f"#shard{self._shard_id}/{self._n_shards}"
        return f"RemoteReplica({where})"

    # -- the three shard lookups -----------------------------------------------

    def men2ent(self, mention: str) -> list[str]:
        return self._client.men2ent(mention)

    def get_concepts(self, page_id: str) -> list[str]:
        return self._client.get_concepts(page_id)

    def get_entities(self, concept: str) -> list[str]:
        return self._client.get_entities(concept)

    def versioned_reader(self):
        """Reads for one batch group, each with the version it came from.

        The version is the ``version`` field every read response
        already carries, so this costs no extra round trip.  Each
        argument is its own GET: a group can straddle a publish, which
        the router sees as two versions.
        """
        return self._read

    def _read(self, api_name: str, argument: str) -> tuple[list[str], int]:
        payload = self._client.query(api_name, argument)
        version = parse_version_id(payload.get("version"))
        if version is None:
            raise APIError(
                f"{self!r} answered with a malformed version "
                f"{payload.get('version')!r}"
            )
        return payload["results"], version

    # -- health ----------------------------------------------------------------

    def healthcheck(self) -> bool:
        return self._client.healthz().get("status") == "ok"

    # -- replication -----------------------------------------------------------

    def published(self) -> PublishedVersion:
        """What the remote serves, from one ``GET /version``: its
        version and the canonical-bytes sha256 it advertises."""
        payload = self._client.version()
        version = parse_version_id(payload.get("version"))
        if version is None:
            raise APIError(
                f"{self!r} reported a malformed version "
                f"{payload.get('version')!r}"
            )
        content_hash = payload.get("content_hash")
        if not isinstance(content_hash, str):
            content_hash = None
        return PublishedVersion(version, content_hash)

    def publish_delta(
        self,
        delta: "TaxonomyDelta",
        *,
        base_version: str | None = None,
        version: int | None = None,
    ) -> dict:
        """Ship *delta* by value; raises
        :class:`~repro.errors.DeltaConflictError` when the remote's
        published version does not match *base_version*."""
        return self._client.apply_delta_wire(
            delta,
            base_version=base_version,
            version=version,
            slice_spec=self.slice_spec,
        )

    def publish_snapshot(
        self, taxonomy_path: str, *, version: int | None = None
    ) -> dict:
        """Full-snapshot heal: ``/admin/swap`` onto *taxonomy_path*.

        The path is resolved by the **remote** process.  *version*
        stamps the swapped version so the replica rejoins the cluster's
        lineage instead of restarting its own count.
        """
        return self._client.swap(taxonomy_path, version=version)

    def resync(self, source, *, snapshot_path: str | None = None) -> dict:
        """Pull this replica back into lockstep with *source*.

        The probe-time self-heal surface the router drives; see
        :func:`resync_replica` for the algorithm.
        """
        return resync_replica(self, source, snapshot_path=snapshot_path)


def _resync_plan(
    source, have_version: int | None, have_hash: str | None
) -> tuple[int | None, str | None, "list[TaxonomyDelta] | None"]:
    """What *source* says the replica must apply to catch up.

    Returns ``(want_version, want_hash, deltas)``: the source's
    published ordinal and content hash, plus the ordered catch-up
    chain — ``[]`` when the replica is already at the target, ``None``
    when the span is not covered (caller falls back to a snapshot).

    Two source shapes are understood:

    - a wire client with ``fetch_chain`` (the replica pulls its own
      chain from the hub's ``GET /admin/delta-chain``), and
    - an in-process publisher with ``delta_history`` + ``content_hash``
      + a version id (a sharded store, or a router standing in for
      one) — the chain is read straight out of the history ring.

    The in-process lookup is
    :meth:`~repro.taxonomy.delta.DeltaHistory.catch_up` — the same
    hash-first rule the wire endpoint answers with.
    """
    fetch = getattr(source, "fetch_chain", None)
    if callable(fetch):
        from_ref = have_hash
        if from_ref is None and have_version is not None:
            from_ref = f"v{have_version}"
        if from_ref is None:
            raise APIError(
                "resync needs the replica's version or content hash"
            )
        payload = fetch(from_ref)
        want_version = parse_version_id(payload.get("version"))
        want_hash = payload.get("content_hash")
        if not isinstance(want_hash, str):
            want_hash = None
        if not payload.get("covered"):
            return want_version, want_hash, None
        deltas = [
            TaxonomyDelta.from_wire(hop.get("delta"), "delta-chain")
            for hop in payload.get("deltas", ())
        ]
        return want_version, want_hash, deltas

    want_id = getattr(source, "published_version_id", None)
    if want_id is None:
        want_id = getattr(source, "version_id", None)
    want_version = parse_version_id(want_id)
    want_hash = source.content_hash
    entries = source.delta_history.catch_up(
        from_version=have_version,
        from_hash=have_hash,
        to_version=want_version,
        to_hash=want_hash,
    )
    if entries is None:
        return want_version, want_hash, None
    return want_version, want_hash, [entry.delta for entry in entries]


def resync_replica(replica, source, *, snapshot_path=None) -> dict:
    """Self-heal *replica* against *source*; returns an outcome report.

    The one recovery ladder: the router runs it when a replica refuses
    a published slice, when a swap ships a snapshot path, and at probe
    time.  Shared by every backend kind
    (:class:`RemoteReplica` pulls over the wire, :class:`LocalReplica`
    reads the publisher's history in-process).  The replica states what
    it holds (ordinal + content hash), :func:`_resync_plan` answers
    with the span, and the cheapest sufficient repair is applied:

    - already at the target bytes → ``"aligned"`` (nothing applied);
    - the span is covered by the source's delta history → one composed
      catch-up delta published with the full base handshake →
      ``"chained"``;
    - otherwise (evicted ring, broken lineage, diverged bytes, or a
      chain publish that fails) → full snapshot swap from
      *snapshot_path* → ``"healed"``; with no snapshot configured the
      failure surfaces as :class:`~repro.errors.APIError`.
    """
    have = replica.published()
    have_version_id, have_hash = have.version_id, have.content_hash
    want_version, want_hash, deltas = _resync_plan(
        source, have.version, have_hash
    )
    report: dict = {
        "from_version": have_version_id,
        "from_hash": have_hash,
        "to_version": (
            f"v{want_version}" if want_version is not None else None
        ),
        "to_hash": want_hash,
    }
    aligned = deltas == [] or (
        want_hash is not None and want_hash == have_hash
    )
    if aligned:
        report["outcome"] = "aligned"
        return report
    if deltas:
        try:
            composed = compose(deltas)
            replica.publish_delta(
                composed, base_version=have_version_id, version=want_version
            )
            report["outcome"] = "chained"
            report["hops"] = len(deltas)
            return report
        except ReproError as exc:
            if snapshot_path is None:
                raise
            report["chain_error"] = str(exc)
    if snapshot_path is None:
        raise APIError(
            f"cannot resync from {have_version_id} "
            f"({have_hash or 'unhashed'}): span not covered by the "
            "source's delta history and no snapshot path configured"
        )
    replica.publish_snapshot(str(snapshot_path), version=want_version)
    report["outcome"] = "healed"
    return report


class LocalReplica:
    """An in-process replica owning its own independent store.

    The fault-injection twin of :class:`RemoteReplica`: it satisfies
    the same replication surface (``published`` / ``publish_delta`` /
    ``publish_snapshot`` / ``resync``), but the "process" is a private
    :class:`~repro.serving.sharding.ShardedSnapshotStore` — so a chaos
    test can kill and restart it without sockets while the router
    replicates to it exactly as it would to a remote.  Like a remote,
    it shares *nothing* with its peers: a publish that never reaches it
    leaves it genuinely stale until the handshake or a resync heals it.

    *shard_id* / *n_shards* name the slice of the cluster keyspace this
    replica serves (deltas are applied under that key filter); a
    full-keyspace replica omits them.
    """

    def __init__(
        self,
        taxonomy: "Taxonomy",
        *,
        version: int = 1,
        shard_id: int | None = None,
        n_shards: int | None = None,
        name: str = "local",
        hub=None,
    ) -> None:
        from repro.serving.sharding import ShardedSnapshotStore

        if (shard_id is None) != (n_shards is None):
            raise APIError(
                "shard_id and n_shards name one slice: give both or neither"
            )
        self._shard_id = shard_id
        self._n_shards = n_shards
        self.name = name
        # one internal shard: intra-replica sharding buys nothing, the
        # cluster-level sharding happens in the router above.  The
        # store registers its ledger under "replica" so a chaos
        # cluster's per-replica stores don't masquerade as the front.
        self._store = ShardedSnapshotStore(
            taxonomy, n_shards=1, version=version, hub=hub,
            component="replica",
        )

    @property
    def store(self):
        """The private store (chaos tests inspect it directly)."""
        return self._store

    @property
    def slice_spec(self) -> dict | None:
        """The wire ``slice`` object, or None for a full-keyspace replica."""
        if self._shard_id is None:
            return None
        return {"shard_id": self._shard_id, "n_shards": self._n_shards}

    def _key_filter(self):
        if self._shard_id is None:
            return None
        from repro.serving.sharding import shard_for

        shard_id, n_shards = self._shard_id, self._n_shards
        return lambda key: shard_for(key, n_shards) == shard_id

    def __repr__(self) -> str:  # in failover logs and reports
        return f"LocalReplica({self.name}@{self._store.version_id})"

    # -- the three shard lookups -----------------------------------------------

    def men2ent(self, mention: str) -> list[str]:
        return self._store.men2ent(mention)

    def get_concepts(self, page_id: str) -> list[str]:
        return self._store.get_concepts(page_id)

    def get_entities(self, concept: str) -> list[str]:
        return self._store.get_entities(concept)

    def versioned_reader(self):
        """Pin one shard set for a whole batch group; every answer
        reports that set's version.

        The pin keeps a publish landing mid-group from tearing the
        batch across versions; the version lets the router refuse a
        replica that restarted from its base snapshot.
        """
        shard_set = self._store.shard_set
        shard, version = shard_set.shards[0], shard_set.version
        return lambda api_name, argument: (
            shard.lookup(api_name, argument), version
        )

    # -- health ----------------------------------------------------------------

    def healthcheck(self) -> bool:
        return True

    # -- replication -----------------------------------------------------------

    def published(self) -> PublishedVersion:
        shard_set = self._store.shard_set
        return PublishedVersion(shard_set.version, shard_set.content_hash)

    def publish_delta(
        self,
        delta: "TaxonomyDelta",
        *,
        base_version: str | None = None,
        version: int | None = None,
    ) -> dict:
        base: int | None = None
        if base_version is not None:
            base = parse_version_id(base_version)
            if base is None:
                raise APIError(f"malformed base_version {base_version!r}")
        shard_set = self._store.publish_delta(
            delta,
            key_filter=self._key_filter(),
            version=version,
            base_version=base,
        )
        return {
            "applied": True,
            "version": shard_set.version_id,
            "content_hash": shard_set.content_hash,
        }

    def publish_snapshot(
        self, taxonomy_path: str, *, version: int | None = None
    ) -> dict:
        from repro.taxonomy.store import Taxonomy

        taxonomy = Taxonomy.load(taxonomy_path)
        shard_set = self._store.swap(taxonomy, version=version)
        return {
            "swapped": True,
            "version": shard_set.version_id,
            "content_hash": shard_set.content_hash,
        }

    def resync(self, source, *, snapshot_path: str | None = None) -> dict:
        """Self-heal against *source*; see :func:`resync_replica`."""
        return resync_replica(self, source, snapshot_path=snapshot_path)
