"""`TaxonomyDelta` — the cross-layer currency of incremental rebuilds.

A delta is the exact record-level difference between two built
taxonomies: entities and isA relations *added*, *removed* and *changed*
(rescored / re-sourced).  Every layer of the refresh path speaks it:

- the build pipeline emits one from
  :meth:`~repro.core.pipeline.CNProbaseBuilder.build_incremental`,
- the store applies one with :meth:`~repro.taxonomy.store.Taxonomy.apply_delta`
  (mutable) and :meth:`~repro.taxonomy.store.ReadOptimizedTaxonomy.apply_delta`
  (frozen, touched-keys-only),
- the sharded store, the one in-process serving front, republishes
  only the shards whose keys the delta touches
  (:meth:`~repro.serving.sharding.ShardedSnapshotStore.publish_delta`),
- the HTTP cluster accepts one at ``POST /admin/apply-delta`` — by
  server-side path or inline as the :meth:`TaxonomyDelta.to_wire` JSON
  object the replication layer ships to remote replicas.

The non-negotiable equivalence contract: for any two taxonomies *old*
and *new*, applying ``TaxonomyDelta.compute(old, new)`` to *old* yields
a taxonomy whose canonical JSONL (:meth:`Taxonomy.save`) is
byte-identical to saving *new*.  ``changed`` entries carry both the old
and the new record, so a delta is self-describing (appliable without
the base at hand, and refusable when the base does not match).

Deltas also *chain*: :func:`compose` squashes an ordered sequence of
deltas (night 1 → night 2 → ... → night N) into one equivalent delta —
add-then-remove cancels, change-of-change collapses to
(first old, last new) — with its own contract: applying the composed
delta to the chain's base is byte-identical to applying the chain one
by one.  :class:`DeltaHistory` keeps a bounded ring of applied deltas
keyed by version so a lagging replica can catch up by chain instead of
a full snapshot, and :meth:`TaxonomyDelta.slice` restricts a delta to
the serving keys a shard owns (the per-shard wire payload).

Persistence is JSONL like the taxonomy itself: a header line with a
``format_version``, then one record per line, written atomically.
Delta files have always been versioned, so a header *missing*
``format_version`` is malformed (unlike taxonomy files, which accept
the legacy pre-versioning layout).  The header and the records are
laid out, typed and encoded by :mod:`repro.taxonomy.codec`, for files
and for the inline form alike.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import DeltaConflictError, TaxonomyError
from repro.files import read_jsonl, write_atomic
from repro.taxonomy.codec import (
    decode_delta_header,
    decode_entity,
    decode_relation,
    delta_header,
    entity_dict,
    entity_fields,
    record_lines,
    relation_dict,
    relation_fields,
)
from repro.taxonomy.model import (
    HYPONYM_ENTITY,
    Entity,
    IsARelation,
    TaxonomyStats,
)

if TYPE_CHECKING:
    from repro.taxonomy.store import Taxonomy

#: The six body record kinds, in file and wire order: the delta field
#: each fills and the codec of its records (decoder, dict, JSON text).
#: A ``*_change`` record carries its ``(old, new)`` pair as two objects.
_ENTITY_CODEC = (decode_entity, entity_dict, entity_fields)
_RELATION_CODEC = (decode_relation, relation_dict, relation_fields)
_RECORD_KINDS = {
    "entity_add": ("entities_added", _ENTITY_CODEC),
    "entity_remove": ("entities_removed", _ENTITY_CODEC),
    "entity_change": ("entities_changed", _ENTITY_CODEC),
    "relation_add": ("relations_added", _RELATION_CODEC),
    "relation_remove": ("relations_removed", _RELATION_CODEC),
    "relation_change": ("relations_changed", _RELATION_CODEC),
}


@dataclass(frozen=True)
class TaxonomyDelta:
    """Exact record-level difference between two built taxonomies.

    ``*_changed`` pairs are ``(old, new)`` records sharing an identity
    (page_id / relation key) whose fields differ — for relations that is
    a rescore or a provenance change.  ``new_stats`` / ``new_n_relations``
    are the target taxonomy's headline numbers, carried so a frozen
    read view can be advanced without recounting the world.

    ``base_content_hash`` / ``new_content_hash`` are the sha256 content
    hashes (:meth:`~repro.taxonomy.store.Taxonomy.content_hash`) of the
    *cluster-level* base and target taxonomies — the content-addressed
    half of the publish handshake.  They survive :meth:`slice` unchanged
    (a shard slice still targets the same cluster state), so every
    replica that applies its slice of a delta converges on the same
    advertised hash.  ``None`` means the producer did not stamp them
    (hand-built deltas); consumers fall back to ordinal versions.
    """

    name: str
    entities_added: tuple[Entity, ...] = ()
    entities_removed: tuple[Entity, ...] = ()
    entities_changed: tuple[tuple[Entity, Entity], ...] = ()
    relations_added: tuple[IsARelation, ...] = ()
    relations_removed: tuple[IsARelation, ...] = ()
    relations_changed: tuple[tuple[IsARelation, IsARelation], ...] = ()
    new_stats: TaxonomyStats | None = None
    new_n_relations: int = 0
    base_content_hash: str | None = None
    new_content_hash: str | None = None

    @classmethod
    def compute(cls, old: "Taxonomy", new: "Taxonomy") -> "TaxonomyDelta":
        """The exact delta turning *old* into *new*.

        Equivalence holds by construction:
        ``old.apply_delta(compute(old, new))`` saves byte-identically to
        ``new`` (canonical JSONL order makes insertion order moot).
        """
        old_entities = {e.page_id: e for e in old.entities()}
        new_entities = {e.page_id: e for e in new.entities()}
        old_relations = {r.key: r for r in old.relations()}
        new_relations = {r.key: r for r in new.relations()}
        # A pair whose hyponym_kind flipped moves between the serving
        # indexes even though its (hyponym, hypernym) key is unchanged;
        # emit it as remove + add — which every consumer handles index-
        # aware — rather than as a "changed" pair, which the frozen
        # views rightly treat as index-neutral (rescore / re-source).
        flipped = {
            key
            for key in set(old_relations) & set(new_relations)
            if old_relations[key].hyponym_kind
            != new_relations[key].hyponym_kind
        }
        return cls(
            name=new.name,
            entities_added=tuple(
                new_entities[pid]
                for pid in sorted(set(new_entities) - set(old_entities))
            ),
            entities_removed=tuple(
                old_entities[pid]
                for pid in sorted(set(old_entities) - set(new_entities))
            ),
            entities_changed=tuple(
                (old_entities[pid], new_entities[pid])
                for pid in sorted(set(old_entities) & set(new_entities))
                if old_entities[pid] != new_entities[pid]
            ),
            relations_added=tuple(
                new_relations[key]
                for key in sorted(
                    (set(new_relations) - set(old_relations)) | flipped
                )
            ),
            relations_removed=tuple(
                old_relations[key]
                for key in sorted(
                    (set(old_relations) - set(new_relations)) | flipped
                )
            ),
            relations_changed=tuple(
                (old_relations[key], new_relations[key])
                for key in sorted(
                    (set(old_relations) & set(new_relations)) - flipped
                )
                if old_relations[key] != new_relations[key]
            ),
            new_stats=new.stats(),
            new_n_relations=len(new),
            base_content_hash=old.content_hash(),
            new_content_hash=new.content_hash(),
        )

    # -- shape ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not (
            self.entities_added
            or self.entities_removed
            or self.entities_changed
            or self.relations_added
            or self.relations_removed
            or self.relations_changed
        )

    @property
    def n_records(self) -> int:
        return (
            len(self.entities_added)
            + len(self.entities_removed)
            + len(self.entities_changed)
            + len(self.relations_added)
            + len(self.relations_removed)
            + len(self.relations_changed)
        )

    def summary(self) -> dict[str, int]:
        return {
            "entities_added": len(self.entities_added),
            "entities_removed": len(self.entities_removed),
            "entities_changed": len(self.entities_changed),
            "relations_added": len(self.relations_added),
            "relations_removed": len(self.relations_removed),
            "relations_changed": len(self.relations_changed),
        }

    def touched_serving_keys(self) -> Iterator[str]:
        """Every index key whose *serving answer* this delta can change.

        This is the per-shard publish surface: mentions of added /
        removed / changed entities and both endpoints of added / removed
        entity-kind relations.  Pure rescores and concept-layer edges do
        not appear in the three serving indexes, so they touch nothing —
        a rescore-only delta republishes zero shards.
        """
        for entity in self.entities_added + self.entities_removed:
            yield from entity.mentions
        for old, new in self.entities_changed:
            yield from old.mentions
            yield from new.mentions
        for relation in self.relations_added + self.relations_removed:
            if relation.hyponym_kind == HYPONYM_ENTITY:
                yield relation.hyponym
                yield relation.hypernym

    # -- slicing -----------------------------------------------------------------

    def slice(self, keep: Callable[[str], bool]) -> "TaxonomyDelta":
        """The sub-delta touching only serving keys *keep* accepts.

        This is the per-shard wire payload of delta-aware replication: a
        record is kept iff at least one of its serving keys (mentions
        for entities, both endpoints for entity-kind relations) passes
        *keep* — the receiving replica applies it under the same key
        filter, so keys outside its shard are never half-updated.
        Records with no serving keys at all (concept-layer relations,
        pure rescores) serve nothing and are dropped; headline numbers
        are cleared for the same reason (the receiver recomputes its
        shard-local counts on apply).  The content-hash stamps are
        *kept*: a shard slice still targets the same cluster-level
        state, and the receiving replica advertises the cluster hash.
        """

        def keep_entity(*records: Entity) -> bool:
            return any(
                keep(mention)
                for record in records
                for mention in record.mentions
            )

        def keep_relation(relation: IsARelation) -> bool:
            return relation.hyponym_kind == HYPONYM_ENTITY and (
                keep(relation.hyponym) or keep(relation.hypernym)
            )

        return TaxonomyDelta(
            name=self.name,
            entities_added=tuple(
                e for e in self.entities_added if keep_entity(e)
            ),
            entities_removed=tuple(
                e for e in self.entities_removed if keep_entity(e)
            ),
            entities_changed=tuple(
                (old, new)
                for old, new in self.entities_changed
                if keep_entity(old, new)
            ),
            relations_added=tuple(
                r for r in self.relations_added if keep_relation(r)
            ),
            relations_removed=tuple(
                r for r in self.relations_removed if keep_relation(r)
            ),
            base_content_hash=self.base_content_hash,
            new_content_hash=self.new_content_hash,
        )

    # -- persistence -------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """The body records as :meth:`to_wire` ships them, in file order."""
        for kind, (field, (_, as_dict, _)) in _RECORD_KINDS.items():
            for item in getattr(self, field):
                if kind.endswith("_change"):
                    old, new = item
                    yield {"kind": kind, "old": as_dict(old),
                           "new": as_dict(new)}
                else:
                    yield {"kind": kind, **as_dict(item)}

    def lines(self) -> Iterator[str]:
        """The JSONL lines :func:`save_delta` writes: the header, then
        :meth:`records` in the codec's line encoding."""
        header = {"kind": "header", **delta_header(self)}
        yield json.dumps(header, ensure_ascii=False) + "\n"
        for kind, (field, (_, _, fields)) in _RECORD_KINDS.items():
            if not kind.endswith("_change"):
                yield from record_lines(kind, fields, getattr(self, field))
                continue
            for old, new in getattr(self, field):
                yield (
                    f'{{"kind": "{kind}", "old": {{{fields(old)}}}, '
                    f'"new": {{{fields(new)}}}}}\n'
                )

    def to_wire(self) -> dict:
        """The delta as one JSON-serializable object (header + records).

        This is the inline body ``POST /admin/apply-delta`` accepts, so
        a delta can be shipped to a remote replica *by value* — the file
        persistence (:func:`save_delta`) is the same header and records,
        one JSON document per line instead of one object.
        """
        return {**delta_header(self), "records": list(self.records())}

    @classmethod
    def from_wire(cls, payload: dict, where: str = "wire") -> "TaxonomyDelta":
        """Rebuild a delta from a :meth:`to_wire` object.

        Raises :class:`~repro.errors.TaxonomyError` on anything
        malformed — wrong ``format``, missing or garbage
        ``format_version``, unknown record kinds, a record the codec
        refuses — naming *where* or ``<where>: record <i>``, never a
        builtin exception.
        """
        if not isinstance(payload, dict):
            raise TaxonomyError(
                f"{where}: delta payload must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        records = payload.get("records")
        if not isinstance(records, list):
            raise TaxonomyError(
                f"{where}: delta payload needs a 'records' list"
            )
        return _decode(payload, where, (
            (f"{where}: record {index}", record)
            for index, record in enumerate(records)
        ))


def save_delta(delta: TaxonomyDelta, path: str | Path) -> None:
    """Write *delta* as JSONL, atomically (temp file + ``os.replace``)."""
    write_atomic(path, delta.lines())


def load_delta(path: str | Path) -> TaxonomyDelta:
    """Read a delta written by :func:`save_delta`."""
    header = None
    records = []
    for where, record in read_jsonl(path, TaxonomyError, "delta"):
        if record.get("kind") == "header":
            header = where, record
        else:
            records.append((where, record))
    if header is None:
        raise TaxonomyError(f"{path}: missing taxonomy-delta header line")
    return _decode(header[1], header[0], records)


def _decode(
    header: dict, where: str, records: Iterable[tuple[str, object]]
) -> TaxonomyDelta:
    """A delta from its header (at *where*) and its ``(where, record)``
    body; every error names the place of the header or record."""
    try:
        fields = decode_delta_header(header)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{where}: {exc}") from exc
    parts: dict[str, list] = {
        field: [] for field, _ in _RECORD_KINDS.values()
    }
    for record_where, record in records:
        try:
            field, item = _decode_record(record)
        except TaxonomyError as exc:
            raise TaxonomyError(f"{record_where}: {exc}") from exc
        parts[field].append(item)
    return TaxonomyDelta(
        **fields, **{field: tuple(items) for field, items in parts.items()}
    )


def _decode_record(record) -> tuple[str, object]:
    """``(delta field, record or (old, new) pair)`` of one body record."""
    if not isinstance(record, dict):
        raise TaxonomyError(
            f"delta record must be a JSON object, "
            f"got {type(record).__name__}"
        )
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _RECORD_KINDS:
        raise TaxonomyError(f"unknown delta record kind {kind!r}")
    field, (decode, _, _) = _RECORD_KINDS[kind]
    if not kind.endswith("_change"):
        return field, decode(record)
    halves = record.get("old"), record.get("new")
    if not all(isinstance(half, dict) for half in halves):
        raise TaxonomyError(
            f"{kind} record needs an old and a new object, got {halves!r}"
        )
    return field, (decode(halves[0]), decode(halves[1]))


def compose(deltas: Sequence[TaxonomyDelta]) -> TaxonomyDelta:
    """Squash an ordered chain of deltas into one equivalent delta.

    The chain-equivalence contract: for a base taxonomy *T* that
    ``deltas[0]`` applies to, ``T.apply_delta(compose(deltas))`` saves
    byte-identically to applying the chain one by one (and therefore to
    a cold full rebuild of the final state) — asserted by the test
    suite and ``benchmarks/bench_delta_chain.py``.

    Per record identity (entity page_id / relation key) only the *net*
    change survives: add-then-remove cancels to nothing,
    change-of-change collapses to (first old, last new), remove-then-
    re-add of an identical record cancels, and a relation whose
    ``hyponym_kind`` flipped net-to-net is emitted as remove + add
    (the same convention :meth:`TaxonomyDelta.compute` uses, because
    the pair moves between serving indexes).  Headline numbers and the
    name come from the last delta — the chain's final state.

    The deltas must actually chain: each op's expected base state must
    match the net state the earlier deltas left, otherwise
    :class:`~repro.errors.TaxonomyError` is raised (composing
    deltas from two unrelated nights would otherwise silently corrupt
    whatever it was applied to).
    """
    if not deltas:
        raise TaxonomyError("compose needs at least one delta")

    entity_net: dict[str, list] = {}
    relation_net: dict[tuple[str, str], list] = {}

    def advance(net: dict, key, old, new, what: str) -> None:
        tracked = net.get(key)
        if tracked is None:
            net[key] = [old, new]
            return
        if tracked[1] != old:
            raise TaxonomyError(
                f"deltas do not chain: {what} {key!r} expects base "
                f"{old!r} but the earlier deltas leave {tracked[1]!r}"
            )
        tracked[1] = new

    for delta in deltas:
        # removals before additions: one delta may remove and re-add
        # the same relation key (a hyponym_kind flip), and that pair
        # only chains in remove-then-add order
        for entity in delta.entities_removed:
            advance(entity_net, entity.page_id, entity, None, "entity")
        for old, new in delta.entities_changed:
            advance(entity_net, old.page_id, old, new, "entity")
        for entity in delta.entities_added:
            advance(entity_net, entity.page_id, None, entity, "entity")
        for relation in delta.relations_removed:
            advance(relation_net, relation.key, relation, None, "relation")
        for old, new in delta.relations_changed:
            advance(relation_net, old.key, old, new, "relation")
        for relation in delta.relations_added:
            advance(relation_net, relation.key, None, relation, "relation")

    entities_added: list[Entity] = []
    entities_removed: list[Entity] = []
    entities_changed: list[tuple[Entity, Entity]] = []
    for page_id in sorted(entity_net):
        old, new = entity_net[page_id]
        if old is None and new is not None:
            entities_added.append(new)
        elif old is not None and new is None:
            entities_removed.append(old)
        elif old != new:  # both present; identical pairs cancelled out
            entities_changed.append((old, new))

    relations_added: list[IsARelation] = []
    relations_removed: list[IsARelation] = []
    relations_changed: list[tuple[IsARelation, IsARelation]] = []
    for key in sorted(relation_net):
        old, new = relation_net[key]
        if old is None and new is not None:
            relations_added.append(new)
        elif old is not None and new is None:
            relations_removed.append(old)
        elif old != new:
            if old.hyponym_kind != new.hyponym_kind:
                # net kind flip: the pair moves between the serving
                # indexes — remove + add, exactly like compute()
                relations_removed.append(old)
                relations_added.append(new)
            else:
                relations_changed.append((old, new))

    last = deltas[-1]
    return TaxonomyDelta(
        name=last.name,
        entities_added=tuple(entities_added),
        entities_removed=tuple(entities_removed),
        entities_changed=tuple(entities_changed),
        relations_added=tuple(sorted(relations_added, key=lambda r: r.key)),
        relations_removed=tuple(
            sorted(relations_removed, key=lambda r: r.key)
        ),
        relations_changed=tuple(relations_changed),
        new_stats=last.new_stats,
        new_n_relations=last.new_n_relations,
        # content endpoints of the squashed span: the chain starts at
        # the first delta's base bytes and lands on the last's target
        base_content_hash=deltas[0].base_content_hash,
        new_content_hash=last.new_content_hash,
    )


def parse_version_id(version_id: object) -> int | None:
    """``"v3"`` → 3; anything else → ``None``.

    The one parser for the wire's version-id spelling — the router's
    alignment check, the resync ladder and the server's publish
    stamping must never drift apart on what a version id looks like.
    """
    if isinstance(version_id, str) and version_id.startswith("v"):
        try:
            return int(version_id[1:])
        except ValueError:
            return None
    return None


def bump_version(current: int, requested: int | None) -> int:
    """The version a publish produces: ``current + 1``, or an explicit
    newer stamp.

    Every publishing front (sharded store, router) shares
    this rule, so a stale explicit stamp — e.g. an orchestration layer
    re-sending last night's publish — is refused identically
    everywhere instead of silently rewinding one front's lineage.
    """
    if requested is None:
        return current + 1
    if requested <= current:
        raise TaxonomyError(
            f"publish version v{requested} must be newer than the "
            f"published v{current}"
        )
    return requested


def publish_handshake(
    published,
    delta: TaxonomyDelta,
    base_version: int | None,
    hub,
    component: str,
) -> str:
    """The one merge-or-409 decision every publishing front makes.

    *published* is anything with ``version``, ``version_id`` and
    ``content_hash`` (a shard set, or a storeless router's published
    value); callers hold their publish lock, so two
    concurrent publishes naming the same base can never both pass.
    Returns ``"proceed"`` when *base_version* and the delta's
    ``base_content_hash`` match; ``"merge"`` on a mismatch when the
    front already holds the bytes the delta produces; otherwise raises
    :class:`~repro.errors.DeltaConflictError` with the front's version
    and hash.  Emits ``delta_merge`` / ``delta_conflict`` on *hub*.
    """
    base_mismatch = (
        base_version is not None and base_version != published.version
    ) or (
        delta.base_content_hash is not None
        and published.content_hash is not None
        and delta.base_content_hash != published.content_hash
    )
    if not base_mismatch:
        return "proceed"
    if (
        delta.new_content_hash is not None
        and delta.new_content_hash == published.content_hash
    ):
        hub.emit(
            "delta_merge", component=component,
            version=published.version_id,
            content_hash=published.content_hash,
        )
        return "merge"
    base_label = (
        f"v{base_version}" if base_version is not None else "unpinned"
    )
    hub.emit(
        "delta_conflict", component=component,
        version=published.version_id,
        content_hash=published.content_hash,
        base=base_label,
        base_content_hash=delta.base_content_hash,
    )
    raise DeltaConflictError(
        f"delta base ({base_label}, "
        f"{delta.base_content_hash or 'unhashed'}) does not "
        f"match the published version {published.version_id}",
        server_version=published.version_id,
        server_content_hash=published.content_hash,
    )


#: How many applied deltas a :class:`DeltaHistory` ring keeps.  Covers a
#: month of nightly refreshes — a replica lagging further than that is
#: healed by a full snapshot, which at that distance is cheaper anyway.
DELTA_HISTORY_SIZE = 32


@dataclass(frozen=True)
class AppliedDelta:
    """One published delta with its version lineage endpoints.

    ``base_content_hash`` / ``content_hash`` are the content-addressed
    endpoints of the same hop — the canonical-bytes sha256 before and
    after the publish — so the history can answer catch-up queries by
    *content* as well as by ordinal (a restarted replica knows what
    bytes it holds, not what ordinal the cluster reached).
    """

    base_version: int
    version: int
    delta: TaxonomyDelta
    base_content_hash: str | None = None
    content_hash: str | None = None


class DeltaHistory:
    """Bounded ring of applied deltas, keyed by version lineage.

    Every delta publish records ``(base_version → version, delta)``;
    :meth:`chain` walks the ring to answer "what sequence of deltas
    turns version *F* into version *T*?" — which is how a late-joining
    replica catches up by chain (one composed delta over the wire)
    instead of a full snapshot.  A full swap breaks the lineage by
    design (its version has no entry), so a chain across it correctly
    comes back ``None`` and the caller falls back to a snapshot.

    Thread-safe: publishes happen under the owning store's lock but
    reads (the replication path) may come from any thread.
    """

    def __init__(self, maxlen: int = DELTA_HISTORY_SIZE) -> None:
        if maxlen < 1:
            raise TaxonomyError(f"history maxlen must be >= 1, got {maxlen}")
        self._entries: deque[AppliedDelta] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def record(
        self,
        base_version: int,
        version: int,
        delta: TaxonomyDelta,
        *,
        base_content_hash: str | None = None,
        content_hash: str | None = None,
    ) -> None:
        if base_content_hash is None:
            base_content_hash = delta.base_content_hash
        if content_hash is None:
            content_hash = delta.new_content_hash
        with self._lock:
            self._entries.append(
                AppliedDelta(
                    base_version,
                    version,
                    delta,
                    base_content_hash=base_content_hash,
                    content_hash=content_hash,
                )
            )

    def entries(self) -> list[AppliedDelta]:
        with self._lock:
            return list(self._entries)

    def versions(self) -> list[int]:
        """The versions delta publishes produced, oldest first."""
        return [entry.version for entry in self.entries()]

    def lineage_ids(self) -> list[str]:
        """:meth:`versions` as wire version ids (``["v2", "v3"]``).

        What every front's ``version_lineage()`` (and ``/version``)
        reports: a contiguous run means those versions are reachable by
        chain; a full swap records nothing, so gaps mark where catch-up
        must fall back to a snapshot.
        """
        return [f"v{version}" for version in self.versions()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def chain(
        self, from_version: int, to_version: int
    ) -> list[TaxonomyDelta] | None:
        """The recorded delta sequence from one version to another.

        Returns ``None`` when the ring does not cover the span — the
        start has been evicted, the lineage was broken by a full swap,
        or the versions never existed.  ``from_version == to_version``
        is the empty chain.
        """
        entries = self._walk("version", from_version, to_version)
        if entries is None:
            return None
        return [entry.delta for entry in entries]

    def catch_up(
        self,
        *,
        from_version: int | None,
        from_hash: str | None,
        to_version: int | None,
        to_hash: str | None,
    ) -> list[AppliedDelta] | None:
        """The catch-up chain from a replica's state to the target's.

        The one rule the resync ladder and ``GET /admin/delta-chain``
        share: content hashes when both sides have one, else ordinals
        (a replica whose bytes are off the recorded lineage is
        diverged, whatever its ordinal says).  ``[]`` when already
        there, ``None`` when the ring does not cover the span.
        """
        if from_hash is not None and to_hash is not None:
            return self._walk("content_hash", from_hash, to_hash)
        if from_version is not None and to_version is not None:
            return self._walk("version", from_version, to_version)
        return None

    def _walk(self, key: str, start, end) -> list[AppliedDelta] | None:
        """Follow ``base_<key>`` → ``<key>`` hops from *start* to *end*;
        entries missing either endpoint never participate."""
        if start == end:
            return []
        base_key = f"base_{key}"
        by_base = {
            getattr(entry, base_key): entry
            for entry in self.entries()
            if getattr(entry, base_key) is not None
            and getattr(entry, key) is not None
        }
        chain: list[AppliedDelta] = []
        cursor = start
        while cursor != end:
            entry = by_base.get(cursor)
            if entry is None:
                return None
            chain.append(entry)
            cursor = getattr(entry, key)
            if len(chain) > len(by_base):  # defensive: lineage loop
                return None
        return chain
