"""Key-hashed sharding of a read-optimized taxonomy.

:class:`ShardedSnapshotStore` partitions one
:class:`~repro.taxonomy.store.ReadOptimizedTaxonomy` into ``n_shards``
shards and serves the exact
:class:`~repro.taxonomy.service.BatchedServingAPI` surface over them.
The partitioning invariant that makes this answer-preserving is that
each of the three serving indexes is keyed independently:

- ``men2ent`` is routed by the mention string,
- ``getConcept`` by the entity page_id,
- ``getEntity`` by the concept string,

and a key's complete (already sorted) result tuple lives wholly in the
shard :func:`shard_for` maps it to — so a sharded answer is the same
bytes the source taxonomy's own lookup returns, at any shard count.

Versioning is all-or-nothing: a swap partitions the *entire* rebuilt
taxonomy into a fresh :class:`ShardSet` first and only then publishes it
with a single reference assignment.  Readers pin one ``ShardSet`` per
batch, so no request can ever observe shards from two versions — the
mixed-version ("torn") read a per-shard swap loop would allow.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from zlib import crc32
from repro.obs.clock import elapsed
from typing import Sequence

from repro.errors import APIError, TaxonomyError
from repro.obs import current_trace_id, get_hub
from repro.taxonomy.delta import DeltaHistory, bump_version, publish_handshake
from repro.taxonomy.model import HYPONYM_ENTITY, TaxonomyStats
from repro.taxonomy.service import (
    PROBE_KEY,
    WIRE_API_METHODS,
    BatchedServingAPI,
    ServiceMetrics,
)
from repro.taxonomy.store import ReadOptimizedTaxonomy, Taxonomy


def shard_for(key: str, n_shards: int) -> int:
    """Stable shard index for *key* (crc32, identical across processes).

    Python's builtin ``hash()`` is salted per process, so a router in
    one process and a store in another would disagree on placement;
    crc32 over the UTF-8 bytes gives every member of the cluster the
    same answer forever.
    """
    if n_shards < 1:
        raise APIError(f"n_shards must be >= 1, got {n_shards}")
    return crc32(key.encode("utf-8")) % n_shards


def shard_ids(keys: Sequence[str], n_shards: int) -> list[int]:
    """:func:`shard_for` of each of *keys*, in order, in one call: how
    a serving front places a whole group of keys."""
    if n_shards < 1:
        raise APIError(f"n_shards must be >= 1, got {n_shards}")
    return [crc32(key.encode("utf-8")) % n_shards for key in keys]


#: api wire name → ReadOptimizedTaxonomy lookup method name (the
#: canonical single names coincide with the view's lookups by design)
_API_LOOKUPS = {
    api: single for api, (single, _) in WIRE_API_METHODS.items()
}


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard of one published version: an immutable read view."""

    shard_id: int
    version: int
    read_view: ReadOptimizedTaxonomy

    @property
    def version_id(self) -> str:
        return f"v{self.version}"

    def lookup(self, api_name: str, argument: str) -> list[str]:
        return getattr(self.read_view, _API_LOOKUPS[api_name])(argument)


@dataclass(frozen=True)
class ShardSet:
    """All shards of one published version, swapped as a unit.

    ``content_hash`` is the canonical-bytes sha256 of the *cluster-level*
    taxonomy this set was partitioned from (or advanced to by a stamped
    delta) — the content-addressed version id probes and resyncs
    converge on.  ``None`` when the source could not provide one (a
    frozen view swap, or an unstamped hand-built delta).
    """

    version: int
    shards: tuple[ShardSnapshot, ...]
    content_hash: str | None = None

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def version_id(self) -> str:
        return f"v{self.version}"

    def shard_of(self, key: str) -> ShardSnapshot:
        return self.shards[shard_for(key, len(self.shards))]

    @classmethod
    def partition(
        cls,
        version: int,
        taxonomy: "Taxonomy | ReadOptimizedTaxonomy",
        n_shards: int,
        *,
        content_hash: str | None = None,
    ) -> "ShardSet":
        """Split *taxonomy* into *n_shards* key-hashed read views.

        Works from the frozen view (a mutable :class:`Taxonomy` is
        frozen first), so a published shard set is immune to later
        mutation of the builder's taxonomy.  *content_hash* stamps the
        set; when omitted it is computed from a mutable
        :class:`Taxonomy` source (a frozen view cannot reproduce the
        canonical bytes, so it stays ``None``).
        """
        if n_shards < 1:
            raise APIError(f"n_shards must be >= 1, got {n_shards}")
        if isinstance(taxonomy, Taxonomy):
            if content_hash is None:
                content_hash = taxonomy.content_hash()
            taxonomy = taxonomy.freeze()
        mentions, entity_hypernyms, concept_entities = taxonomy.as_indexes()
        split_mentions: list[dict] = [{} for _ in range(n_shards)]
        split_hypernyms: list[dict] = [{} for _ in range(n_shards)]
        split_entities: list[dict] = [{} for _ in range(n_shards)]
        for split, index in (
            (split_mentions, mentions),
            (split_hypernyms, entity_hypernyms),
            (split_entities, concept_entities),
        ):
            for key, members in index.items():
                split[shard_for(key, n_shards)][key] = members
        shards = []
        for shard_id in range(n_shards):
            hypernyms = split_hypernyms[shard_id]
            n_relations = sum(len(v) for v in hypernyms.values())
            shards.append(
                ShardSnapshot(
                    shard_id=shard_id,
                    version=version,
                    read_view=ReadOptimizedTaxonomy(
                        name=f"{taxonomy.name}/shard{shard_id}",
                        mention_index=split_mentions[shard_id],
                        entity_hypernyms=hypernyms,
                        concept_entities=split_entities[shard_id],
                        # Shard-local stats describe the serving indexes
                        # this shard holds (concept-layer relations are
                        # not routed, so they are not counted here).
                        stats=TaxonomyStats(
                            n_entities=len(hypernyms),
                            n_concepts=len(split_entities[shard_id]),
                            n_entity_concept=n_relations,
                            n_subconcept_concept=0,
                        ),
                        n_relations=n_relations,
                        _n_pairs=n_relations,
                    ),
                )
            )
        return cls(
            version=version, shards=tuple(shards), content_hash=content_hash
        )


def _validate_delta_base(shard_set: ShardSet, delta, keep=None) -> None:
    """Refuse a delta that was not computed against the published version.

    The frozen shards carry no scores, so the check is structural
    (index membership): every record the delta removes or changes must
    be present, every record it adds must be absent.  Validation runs
    *before* any shard is rebuilt, preserving the all-or-nothing swap
    guarantee — a mismatched delta leaves the old set serving.
    Concept-layer relations have no serving index to check and pass
    through (the mutable :meth:`Taxonomy.apply_delta` validates them).

    *keep* (a key predicate) restricts the check to the slice of the
    keyspace this store owns: a replica serving one shard of a larger
    cluster receives per-shard-sliced deltas and must not refuse them
    just because a record's *other* keys (mentions hashing to other
    shards) are not served here.
    """

    def kept(key: str) -> bool:
        return keep is None or keep(key)

    def present(api_name: str, key: str, member: str) -> bool:
        return member in shard_set.shard_of(key).lookup(api_name, key)

    def refuse(what: str) -> None:
        raise TaxonomyError(
            f"delta does not match the published version: {what}"
        )

    for entity in delta.entities_removed:
        for mention in entity.mentions:
            if kept(mention) and not present(
                "men2ent", mention, entity.page_id
            ):
                refuse(f"entity {entity.page_id!r} to remove is not served")
    for old, _new in delta.entities_changed:
        for mention in old.mentions:
            if kept(mention) and not present("men2ent", mention, old.page_id):
                refuse(f"entity {old.page_id!r} to change is not served")
    for entity in delta.entities_added:
        for mention in entity.mentions:
            if kept(mention) and present(
                "men2ent", mention, entity.page_id
            ):
                refuse(f"entity {entity.page_id!r} to add already served")
    for relation in delta.relations_removed:
        if relation.hyponym_kind == HYPONYM_ENTITY and kept(
            relation.hyponym
        ) and not present(
            "getConcept", relation.hyponym, relation.hypernym
        ):
            refuse(f"relation {relation.key!r} to remove is not served")
    for old, _new in delta.relations_changed:
        if old.hyponym_kind == HYPONYM_ENTITY and kept(
            old.hyponym
        ) and not present("getConcept", old.hyponym, old.hypernym):
            refuse(f"relation {old.key!r} to change is not served")
    removed_keys = {r.key for r in delta.relations_removed}
    for relation in delta.relations_added:
        # a remove + re-add of one key in the same delta is legitimate
        # (a pair whose hyponym_kind flipped between the index layers)
        if (
            relation.hyponym_kind == HYPONYM_ENTITY
            and relation.key not in removed_keys
            and kept(relation.hyponym)
            and present("getConcept", relation.hyponym, relation.hypernym)
        ):
            refuse(f"relation {relation.key!r} to add already served")


class ShardedSnapshotStore(BatchedServingAPI):
    """The versioned in-process serving front: N key-hashed shards.

    One shard by default (``repro.taxonomy.service.TaxonomyService``
    names the class); the router, the HTTP server and every replica
    serve through it.  Every call routes by key hash into the currently
    published :class:`ShardSet`; batch calls pin one set up front and
    answer in argument order (the per-shard sub-batch grouping that
    decides which *replica* serves a group belongs to the
    :class:`~repro.serving.router.ReplicatedRouter`).

    :meth:`swap` is atomic and all-or-nothing: the full replacement
    :class:`ShardSet` is partitioned before the single reference
    assignment that publishes it, so a failed rebuild leaves the old
    version serving and no reader ever sees two versions in one batch.
    """

    def __init__(
        self,
        taxonomy: "Taxonomy | ReadOptimizedTaxonomy",
        *,
        n_shards: int = 1,
        version: int = 1,
        metrics: ServiceMetrics | None = None,
        hub=None,
        component: str = "store",
    ) -> None:
        self._lock = threading.Lock()
        self._shard_set = ShardSet.partition(version, taxonomy, n_shards)
        shared_metrics = metrics is not None
        self.metrics = metrics if shared_metrics else ServiceMetrics()
        #: Ring of applied deltas with their version lineage — what a
        #: lagging replica catches up from (chain instead of snapshot).
        self.delta_history = DeltaHistory()
        self._hub = hub if hub is not None else get_hub()
        if not shared_metrics:
            # a handed-in ledger is already registered by its owner
            self._hub.registry.register_collector(component, self.metrics)

    # -- versioning ------------------------------------------------------------

    @property
    def shard_set(self) -> ShardSet:
        """The currently published shard set (a single atomic read)."""
        # lint: allow[lock-discipline] atomic reference read; swap publishes
        return self._shard_set

    @property
    def n_shards(self) -> int:
        # lint: allow[lock-discipline] atomic reference read
        return self._shard_set.n_shards

    @property
    def version_id(self) -> str:
        # lint: allow[lock-discipline] atomic reference read
        return self._shard_set.version_id

    @property
    def content_hash(self) -> str | None:
        """The published set's cluster-level canonical-bytes sha256."""
        # lint: allow[lock-discipline] atomic reference read
        return self._shard_set.content_hash

    def shard_versions(self) -> list[str]:
        """Per-shard version ids: the version each shard last changed at.

        All equal after a full :meth:`swap`; after a
        :meth:`publish_delta` only touched shards advance, so the list
        doubles as the per-shard publish lineage.
        """
        # lint: allow[lock-discipline] atomic reference read
        return [shard.version_id for shard in self._shard_set.shards]

    def stats(self) -> list[TaxonomyStats]:
        """Shard-local serving-index stats, in shard order."""
        # lint: allow[lock-discipline] atomic reference read
        return [s.read_view.stats() for s in self._shard_set.shards]

    def version_lineage(self) -> list[str]:
        """Version ids the delta publishes produced, oldest first.

        The replica lineage ``/version`` reports; see
        :meth:`~repro.taxonomy.delta.DeltaHistory.lineage_ids`.
        """
        return self.delta_history.lineage_ids()

    def swap(
        self,
        taxonomy: "Taxonomy | ReadOptimizedTaxonomy",
        *,
        version: int | None = None,
        content_hash: str | None = None,
    ) -> ShardSet:
        """Publish a rebuilt taxonomy across every shard atomically.

        The new set is fully partitioned *before* the lock-protected
        reference assignment: if partitioning raises, the store keeps
        serving the old version untouched (all-or-nothing), and readers
        that pinned the old set mid-batch finish on it.

        *version* stamps the published set explicitly (it must be newer
        than the current one) — how a snapshot-healed replica is
        brought back into lockstep with the cluster's version lineage
        instead of restarting its own count.
        """
        with self._lock:
            shard_set = ShardSet.partition(
                bump_version(self._shard_set.version, version),
                taxonomy,
                self._shard_set.n_shards,
                content_hash=content_hash,
            )
            previous = self._shard_set
            self._shard_set = shard_set
            self.metrics.swaps += 1
            self._hub.emit(
                "swap", component="store",
                from_version=previous.version_id,
                version=shard_set.version_id,
                content_hash=shard_set.content_hash,
            )
            return shard_set

    def publish_delta(
        self,
        delta,
        *,
        key_filter=None,
        version: int | None = None,
        base_version: int | None = None,
    ) -> ShardSet:
        """Publish a :class:`~repro.taxonomy.delta.TaxonomyDelta`,
        repartitioning only the shards whose keys it touches.

        Every serving key the delta can affect is hashed with the same
        :func:`shard_for` the read path uses; shards owning none of
        those keys are carried into the new :class:`ShardSet` as the
        *same objects* — identical :class:`ShardSnapshot` and read view,
        still stamped with the version they were last rebuilt at (the
        per-shard lineage ``shard_versions()`` reports).  An empty delta
        therefore touches nothing: every shard crosses the publish
        object-identical and no ``shard_versions()`` entry moves (only
        the set version advances, keeping the lineage handshake alive).
        Touched shards get a fresh read view advanced touched-keys-only
        through :meth:`ReadOptimizedTaxonomy.apply_delta` with this
        shard's hash predicate as the key filter, so each shard applies
        exactly its slice of the delta.

        *key_filter* further restricts both validation and application
        to the keys this store owns — a remote replica serving one
        shard's slice of a larger cluster passes the cluster-level
        shard predicate so a sliced delta applies cleanly.  *version*
        stamps the new set explicitly (replication lockstep, see
        :meth:`swap`).  *base_version* is the replication handshake
        (:func:`~repro.taxonomy.delta.publish_handshake`), checked
        **under the publish lock** so two concurrent publishes naming
        the same base can never both pass: a mismatch raises
        :class:`~repro.errors.DeltaConflictError` (the HTTP layer's
        409) with the old set still serving, and a delta targeting the
        bytes already published merges, returning the current set.

        The swap guarantee is unchanged: the complete replacement set is
        assembled before one atomic reference assignment, readers pin
        one set per batch, and a delta that fails to apply leaves the
        old set serving.
        """
        with self._lock:
            current = self._shard_set
            if publish_handshake(
                current, delta, base_version, self._hub, "store"
            ) == "merge":
                return current
            target = bump_version(current.version, version)
            _validate_delta_base(current, delta, key_filter)
            n_shards = current.n_shards
            touched = {
                shard_for(key, n_shards)
                for key in delta.touched_serving_keys()
                if key_filter is None or key_filter(key)
            }
            shards: list[ShardSnapshot] = []
            for shard in current.shards:
                if shard.shard_id not in touched:
                    shards.append(shard)  # object identity preserved
                    continue
                shard_id = shard.shard_id
                read_view = shard.read_view.apply_delta(
                    delta,
                    key_filter=lambda key, sid=shard_id: (
                        shard_for(key, n_shards) == sid
                        and (key_filter is None or key_filter(key))
                    ),
                )
                shards.append(
                    ShardSnapshot(
                        shard_id=shard_id,
                        version=target,
                        read_view=read_view,
                    )
                )
            shard_set = ShardSet(
                version=target,
                shards=tuple(shards),
                # the cluster-level stamp the delta carries (slices keep
                # it); an unstamped delta leaves the new set unhashed
                content_hash=delta.new_content_hash,
            )
            self._shard_set = shard_set
            self.metrics.swaps += 1
            self.delta_history.record(
                current.version,
                target,
                delta,
                base_content_hash=current.content_hash,
                content_hash=delta.new_content_hash,
            )
            self._hub.emit(
                "publish", component="store",
                from_version=current.version_id,
                version=shard_set.version_id,
                content_hash=delta.new_content_hash,
                touched_shards=sorted(touched),
            )
            return shard_set

    # -- serving hooks ---------------------------------------------------------

    def _serve(
        self, shard_set: ShardSet, api_name: str, arguments: Sequence[str]
    ) -> list[list[str]]:
        """Answer a group of keys from the pinned *shard_set*, timed once.

        The one serving loop: a batch is one group and a single a
        group of one.  Each shard's lookup is resolved once per group
        and the keys are placed in one :func:`shard_ids` call; the
        lookups then run in one pass between two clock reads, and the
        group's calls land in the ledger at its per-call mean.  Inside
        a trace context each key is timed alone instead, to record its
        own span.  Probes exercise the lookup path but stay out of the
        ledger and the spans.
        """
        lookup_name = _API_LOOKUPS[api_name]
        calls = [
            getattr(shard.read_view, lookup_name) for shard in shard_set.shards
        ]
        placed = shard_ids(arguments, len(calls))
        trace_id = current_trace_id()
        if trace_id is None:
            started = elapsed()
            results = [
                calls[shard_id](key) for shard_id, key in zip(placed, arguments)
            ]
            seconds = elapsed() - started
        else:
            results = []
            seconds = 0.0
            for shard_id, key in zip(placed, arguments):
                started = elapsed()
                result = calls[shard_id](key)
                took = elapsed() - started
                results.append(result)
                seconds += took
                if key == PROBE_KEY:
                    continue
                self._hub.record_span(
                    trace_id, "shard", api_name, took,
                    outcome="hit" if result else "miss",
                    shard=shard_id,
                    version=shard_set.version_id,
                    content_hash=shard_set.content_hash,
                )
        self.metrics.observe_served(api_name, arguments, results, seconds)
        return results

    def _single(self, api_name: str, argument: str) -> list[str]:
        # lint: allow[lock-discipline] atomic reference read of the published set
        return self._serve(self._shard_set, api_name, (argument,))[0]

    def _batch(
        self, api_name: str, arguments: Sequence[str]
    ) -> list[list[str]]:
        # Pin one version for the whole batch; per-argument routing is
        # a hash into the pinned set, so answering in argument order is
        # already the fan-out/merge — the per-shard *grouping* (one
        # sub-request per shard on one replica) lives in the router,
        # where it changes which backend serves the group.
        # lint: allow[lock-discipline] atomic reference read pins one version
        return self._serve(self._shard_set, api_name, arguments)
