"""Indexed taxonomy store with JSONL persistence.

The store maintains every index the serving APIs need:

- mention index (title + aliases → entity page_ids) for ``men2ent``,
- entity → hypernym adjacency for ``getConcept``,
- concept → entity/subconcept hyponyms for ``getEntity``,
- a concept-layer :class:`TaxonomyGraph` for closure queries.

Duplicate (hyponym, hypernym) pairs are merged keeping the best score and
the first-seen source, mirroring the paper's candidate merging step.

The three hot lookups (``men2ent`` / ``get_concepts`` / ``get_entities``)
memoise their sorted result per key and invalidate exactly the keys a
mutation touches, so repeated hot-key traffic stops paying ``sorted()``
per call.  For pure serving, :class:`ReadOptimizedTaxonomy` freezes a
built taxonomy into precomputed sorted tuples — every lookup becomes a
plain dict hit, which is what each shard of
:class:`~repro.serving.sharding.ShardedSnapshotStore` serves from.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import TaxonomyError
from repro.files import read_jsonl, write_atomic
from repro.taxonomy.codec import (
    decode_entity,
    decode_relation,
    decode_taxonomy_header,
    entity_fields,
    record_lines,
    relation_fields,
    taxonomy_header,
)
from repro.taxonomy.graph import TaxonomyGraph
from repro.taxonomy.model import (
    HYPONYM_ENTITY,
    Entity,
    IsARelation,
    TaxonomyStats,
)

if TYPE_CHECKING:
    from repro.taxonomy.delta import TaxonomyDelta


class Taxonomy:
    """The product of the pipeline: entities, concepts and isA relations."""

    def __init__(self, name: str = "CN-Probase") -> None:
        self.name = name
        self._entities: dict[str, Entity] = {}
        self._relations: dict[tuple[str, str], IsARelation] = {}
        self._mention_index: dict[str, set[str]] = {}
        self._entity_hypernyms: dict[str, set[str]] = {}
        self._concept_entities: dict[str, set[str]] = {}
        self._concepts: set[str] = set()
        self._graph = TaxonomyGraph()
        # Per-key memos of the sorted lookup results; a mutation pops
        # exactly the keys it affects.  Values are tuples so a cached
        # result can never be mutated through a returned alias.
        self._men2ent_cache: dict[str, tuple[str, ...]] = {}
        self._concepts_cache: dict[str, tuple[str, ...]] = {}
        self._entities_cache: dict[str, tuple[str, ...]] = {}

    # -- construction -------------------------------------------------------

    def add_entity(self, entity: Entity) -> None:
        existing = self._entities.get(entity.page_id)
        if existing is not None and existing != entity:
            raise TaxonomyError(
                f"conflicting entity for page_id {entity.page_id!r}"
            )
        self._entities[entity.page_id] = entity
        for mention in entity.mentions:
            self._mention_index.setdefault(mention, set()).add(entity.page_id)
            self._men2ent_cache.pop(mention, None)

    def add_relation(self, relation: IsARelation) -> None:
        if relation.hyponym_kind == HYPONYM_ENTITY:
            if relation.hyponym not in self._entities:
                raise TaxonomyError(
                    f"relation references unknown entity {relation.hyponym!r}; "
                    "add_entity first"
                )
        previous = self._relations.get(relation.key)
        if previous is None or relation.score > previous.score:
            if previous is not None:
                # keep first-seen provenance, best score
                relation = relation.with_source(previous.source)
            self._relations[relation.key] = relation
        self._concepts.add(relation.hypernym)
        if relation.hyponym_kind == HYPONYM_ENTITY:
            self._entity_hypernyms.setdefault(relation.hyponym, set()).add(
                relation.hypernym
            )
            self._concept_entities.setdefault(relation.hypernym, set()).add(
                relation.hyponym
            )
            self._concepts_cache.pop(relation.hyponym, None)
            self._entities_cache.pop(relation.hypernym, None)
        else:
            self._concepts.add(relation.hyponym)
            self._graph.add_edge(relation.hyponym, relation.hypernym, relation.score)

    def add_relations(self, relations: Iterator[IsARelation]) -> None:
        for relation in relations:
            self.add_relation(relation)

    def finalize(self) -> list[tuple[str, str]]:
        """Break concept-layer cycles; returns the removed edges."""
        removed = self._graph.break_cycles()
        for child, parent in removed:
            self._relations.pop((child, parent), None)
        return removed

    # -- lookups -----------------------------------------------------------------

    @staticmethod
    def _cached_sorted(
        cache: dict[str, tuple[str, ...]], index: dict[str, set[str]], key: str
    ) -> list[str]:
        """Sorted lookup memoised per key.

        Misses (keys absent from the index) are never cached: production
        traffic contains unbounded unknown strings and must not grow the
        memo.  Known keys are bounded by the taxonomy itself.
        """
        cached = cache.get(key)
        if cached is None:
            members = index.get(key)
            if members is None:
                return []
            cached = tuple(sorted(members))
            cache[key] = cached
        return list(cached)

    def men2ent(self, mention: str) -> list[str]:
        """Disambiguated entity page_ids for a mention surface."""
        return self._cached_sorted(
            self._men2ent_cache, self._mention_index, mention
        )

    def get_concepts(self, page_id: str) -> list[str]:
        """Direct hypernyms of an entity (the getConcept API payload)."""
        return self._cached_sorted(
            self._concepts_cache, self._entity_hypernyms, page_id
        )

    def get_concepts_transitive(self, page_id: str) -> list[str]:
        """Hypernyms of an entity including the concept-layer closure."""
        direct = self._entity_hypernyms.get(page_id, set())
        closure = set(direct)
        for concept in direct:
            closure.update(self._graph.ancestors(concept))
        return sorted(closure)

    def get_entities(self, concept: str) -> list[str]:
        """Entity hyponyms of a concept (the getEntity API payload)."""
        return self._cached_sorted(
            self._entities_cache, self._concept_entities, concept
        )

    def get_subconcepts(self, concept: str) -> list[str]:
        return sorted(self._graph.children(concept))

    def concept_parents(self, concept: str) -> list[str]:
        return sorted(self._graph.parents(concept))

    def has_entity(self, page_id: str) -> bool:
        return page_id in self._entities

    def has_concept(self, concept: str) -> bool:
        return concept in self._concepts

    def entity(self, page_id: str) -> Entity | None:
        return self._entities.get(page_id)

    def entities(self) -> list[Entity]:
        """Every entity record, in insertion order."""
        return list(self._entities.values())

    def relations(self) -> list[IsARelation]:
        return list(self._relations.values())

    def relations_by_source(self, source: str) -> list[IsARelation]:
        return [r for r in self._relations.values() if r.source == source]

    @property
    def graph(self) -> TaxonomyGraph:
        return self._graph

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._relations

    # -- stats ----------------------------------------------------------------------

    def stats(self) -> TaxonomyStats:
        n_entity_concept = sum(
            1 for r in self._relations.values()
            if r.hyponym_kind == HYPONYM_ENTITY
        )
        # Entities that actually carry at least one relation — the paper
        # counts taxonomy members, not raw dump pages.
        linked_entities = len(self._entity_hypernyms)
        return TaxonomyStats(
            n_entities=linked_entities,
            n_concepts=len(self._concepts),
            n_entity_concept=n_entity_concept,
            n_subconcept_concept=len(self._relations) - n_entity_concept,
        )

    # -- persistence -------------------------------------------------------------------

    def _canonical_lines(self) -> Iterator[str]:
        """The canonical JSONL lines :meth:`save` writes, in order.

        Record order is canonical (entities by page_id, relations by
        key) — two taxonomies with equal content yield byte-identical
        lines regardless of the insertion order they were built in.
        This single serialization feeds both :meth:`save` and
        :meth:`content_hash`, so the hash is *of the saved bytes* by
        construction.  Each record line comes from the line encoder of
        :mod:`repro.taxonomy.codec`; the per-record ``json.dumps`` loop
        it replaced is kept as the reference in
        ``tests/taxonomy/test_store.py::TestCanonicalLineKernel``.
        """
        yield taxonomy_header(self.name)
        entities, relations = self._entities, self._relations
        yield from record_lines(
            "entity", entity_fields,
            map(entities.__getitem__, sorted(entities)),
        )
        yield from record_lines(
            "relation", relation_fields,
            map(relations.__getitem__, sorted(relations)),
        )

    def save(self, path: str | Path) -> None:
        """Write the taxonomy as JSONL: one entity or relation per line.

        The write is atomic (temp file + ``os.replace``), so a crashed
        save never leaves a torn file, and the bytes are canonical (see
        :meth:`_canonical_lines`).  That canonical form is what the
        incremental-rebuild equivalence contract compares and what
        :meth:`content_hash` addresses.
        """
        write_atomic(path, self._canonical_lines())

    def content_hash(self) -> str:
        """sha256 hex digest of the canonical saved bytes.

        Because :meth:`save` is canonical and byte-stable, two replicas
        holding equal content — however they got there: full load,
        delta chain, snapshot swap — compute the same hash.  This is
        the content-addressed version id the serving tier's probes,
        publishes and resyncs converge on.

        Each line is hashed as it is built, never the whole file joined
        in memory.
        """
        digest = hashlib.sha256()
        for line in self._canonical_lines():
            digest.update(line.encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def load(cls, path: str | Path) -> "Taxonomy":
        """Read a taxonomy written by :meth:`save`.

        Lines are decoded by :mod:`repro.taxonomy.codec`, and a malformed
        one raises :class:`TaxonomyError` naming its ``file:line``.
        """
        taxonomy = cls()
        for where, record in read_jsonl(path, TaxonomyError, "taxonomy"):
            kind = record.get("kind")
            try:
                if kind == "entity":
                    taxonomy.add_entity(decode_entity(record))
                elif kind == "relation":
                    taxonomy.add_relation(decode_relation(record))
                elif kind == "header":
                    taxonomy.name = decode_taxonomy_header(record)
                else:
                    raise TaxonomyError(f"unknown record kind {kind!r}")
            except TaxonomyError as exc:
                raise TaxonomyError(f"{where}: {exc}") from exc
        return taxonomy

    def freeze(self) -> "ReadOptimizedTaxonomy":
        """A read-optimized view of the current state (see below)."""
        return ReadOptimizedTaxonomy.from_taxonomy(self)

    def copy(self) -> "Taxonomy":
        """An independent taxonomy holding the same records.

        Entity and relation records are immutable and shared; every
        index is rebuilt, so mutating either taxonomy afterwards never
        leaks into the other.
        """
        duplicate = Taxonomy(name=self.name)
        duplicate._entities = dict(self._entities)
        duplicate._relations = dict(self._relations)
        duplicate._reindex()
        return duplicate

    # -- incremental updates ----------------------------------------------------

    def apply_delta(self, delta: "TaxonomyDelta") -> "Taxonomy":
        """Apply a :class:`~repro.taxonomy.delta.TaxonomyDelta` in place.

        The equivalence contract: after applying
        ``TaxonomyDelta.compute(self, new)`` this taxonomy saves
        byte-identically to *new*.  The delta is validated against the
        current state first (removed/changed records must match what is
        stored, added must be absent), so applying a delta to the wrong
        base raises :class:`TaxonomyError` instead of silently
        diverging.  Returns ``self`` for chaining.
        """
        for entity in delta.entities_removed:
            if self._entities.get(entity.page_id) != entity:
                raise TaxonomyError(
                    f"delta does not match base: entity {entity.page_id!r} "
                    "to remove is absent or differs"
                )
        for old, _new in delta.entities_changed:
            if self._entities.get(old.page_id) != old:
                raise TaxonomyError(
                    f"delta does not match base: entity {old.page_id!r} "
                    "to change is absent or differs"
                )
        for entity in delta.entities_added:
            if entity.page_id in self._entities:
                raise TaxonomyError(
                    f"delta does not match base: entity {entity.page_id!r} "
                    "to add already exists"
                )
        for relation in delta.relations_removed:
            if self._relations.get(relation.key) != relation:
                raise TaxonomyError(
                    f"delta does not match base: relation {relation.key!r} "
                    "to remove is absent or differs"
                )
        for old, _new in delta.relations_changed:
            if self._relations.get(old.key) != old:
                raise TaxonomyError(
                    f"delta does not match base: relation {old.key!r} "
                    "to change is absent or differs"
                )
        removed_keys = {r.key for r in delta.relations_removed}
        for relation in delta.relations_added:
            # a key may be removed and re-added in one delta (a pair
            # whose hyponym_kind flipped); otherwise adds must be new
            if relation.key in self._relations \
                    and relation.key not in removed_keys:
                raise TaxonomyError(
                    f"delta does not match base: relation {relation.key!r} "
                    "to add already exists"
                )

        self.name = delta.name
        for entity in delta.entities_removed:
            del self._entities[entity.page_id]
        for old, new in delta.entities_changed:
            self._entities[old.page_id] = new
        for entity in delta.entities_added:
            self._entities[entity.page_id] = entity
        for relation in delta.relations_removed:
            del self._relations[relation.key]
        for old, new in delta.relations_changed:
            self._relations[old.key] = new
        for relation in delta.relations_added:
            self._relations[relation.key] = relation
        self._reindex()
        return self

    def _reindex(self) -> None:
        """Rebuild every derived index from the record dicts.

        Used after a delta apply: the mention/hypernym/hyponym indexes,
        the concept set and the concept graph are all pure functions of
        ``_entities`` + ``_relations``, so rebuilding them yields exactly
        the state a fresh construction of the same records would have
        (no stale concepts, no emptied index keys lingering).
        """
        self._mention_index = {}
        self._entity_hypernyms = {}
        self._concept_entities = {}
        self._concepts = set()
        self._graph = TaxonomyGraph()
        self._men2ent_cache = {}
        self._concepts_cache = {}
        self._entities_cache = {}
        for entity in self._entities.values():
            for mention in entity.mentions:
                self._mention_index.setdefault(mention, set()).add(
                    entity.page_id
                )
        for relation in self._relations.values():
            self._concepts.add(relation.hypernym)
            if relation.hyponym_kind == HYPONYM_ENTITY:
                self._entity_hypernyms.setdefault(
                    relation.hyponym, set()
                ).add(relation.hypernym)
                self._concept_entities.setdefault(
                    relation.hypernym, set()
                ).add(relation.hyponym)
            else:
                self._concepts.add(relation.hyponym)
                self._graph.add_edge(
                    relation.hyponym, relation.hypernym, relation.score
                )

class ReadOptimizedTaxonomy:
    """A frozen, serving-shaped view of a built taxonomy.

    Every index the three public APIs read is precomputed into sorted
    tuples at construction: ``men2ent`` / ``get_concepts`` /
    ``get_entities`` are pure dict hits plus a cheap ``list()`` copy —
    no per-call ``sorted()``, no set materialisation, no shared mutable
    state.  That makes the view safe to serve from any number of threads
    and is what each :class:`~repro.serving.sharding.ShardSnapshot`
    wraps.

    The view is deliberately decoupled from its source: mutating the
    original :class:`Taxonomy` after freezing never changes answers a
    published snapshot gives.

    Every index value is a non-empty tuple, sorted and free of
    duplicates: :meth:`from_taxonomy` sorts the store's sets,
    :meth:`ShardSet.partition <repro.serving.sharding.ShardSet.partition>`
    carries those tuples into the shards, and :meth:`apply_delta` keeps
    all three properties, which is what lets it edit an answer with one
    bisect and two slices.  The view also carries its entity→concept
    pair count (the sum of the entity→concepts tuples' lengths), so a
    delta advances it instead of recounting the index.
    """

    def __init__(
        self,
        name: str,
        mention_index: dict[str, tuple[str, ...]],
        entity_hypernyms: dict[str, tuple[str, ...]],
        concept_entities: dict[str, tuple[str, ...]],
        stats: TaxonomyStats,
        n_relations: int,
        *,
        _n_pairs: int | None = None,
    ) -> None:
        self.name = name
        self._mention_index = mention_index
        self._entity_hypernyms = entity_hypernyms
        self._concept_entities = concept_entities
        self._stats = stats
        self._n_relations = n_relations
        # entity→concept pairs in _entity_hypernyms, counted once here
        # unless the caller already knows it; apply_delta advances it
        self._n_pairs = (
            _n_pairs if _n_pairs is not None
            else sum(map(len, entity_hypernyms.values()))
        )

    @classmethod
    def from_taxonomy(cls, taxonomy: Taxonomy) -> "ReadOptimizedTaxonomy":
        return cls(
            name=taxonomy.name,
            mention_index={
                mention: tuple(sorted(page_ids))
                for mention, page_ids in taxonomy._mention_index.items()
            },
            entity_hypernyms={
                page_id: tuple(sorted(concepts))
                for page_id, concepts in taxonomy._entity_hypernyms.items()
            },
            concept_entities={
                concept: tuple(sorted(page_ids))
                for concept, page_ids in taxonomy._concept_entities.items()
            },
            stats=taxonomy.stats(),
            n_relations=len(taxonomy),
        )

    # -- the three API lookups (list[str], same contract as Taxonomy) -------

    def men2ent(self, mention: str) -> list[str]:
        return list(self._mention_index.get(mention, ()))

    def get_concepts(self, page_id: str) -> list[str]:
        return list(self._entity_hypernyms.get(page_id, ()))

    def get_entities(self, concept: str) -> list[str]:
        return list(self._concept_entities.get(concept, ()))

    # -- incremental updates ---------------------------------------------------

    def apply_delta(
        self,
        delta: "TaxonomyDelta",
        *,
        key_filter: Callable[[str], bool] | None = None,
        stats: TaxonomyStats | None = None,
        n_relations: int | None = None,
        name: str | None = None,
    ) -> "ReadOptimizedTaxonomy":
        """A new frozen view with *delta* applied, rebuilding only touched keys.

        Immutability is preserved: ``self`` is untouched and keeps
        answering for any snapshot that pinned it.  Index keys the delta
        does not touch keep their exact result-tuple objects (no
        re-sort, no copy), which is what lets the sharded store leave
        untouched shards object-identical across a delta publish.

        A touched answer is edited in place of a re-sort: relying on the
        sorted, duplicate-free invariant (see the class docstring), an
        insert bisects for the member's slot and a remove finds its
        index, so each edit costs the length of that one answer, in C.
        Removing a key's last member drops the key.

        *key_filter* restricts application to the keys a caller owns —
        the sharded store passes its shard's hash predicate so each
        shard applies exactly its slice.  *stats* / *n_relations*
        override the serving-local counts; when omitted they describe
        this view's indexes (the same formula shard partitioning uses),
        with the entity→concept pair count advanced by the delta's net
        change rather than recounted.  Callers holding the *full*
        keyspace should pass the delta's ``new_stats`` /
        ``new_n_relations`` so headline numbers keep counting the
        concept layer a full freeze would count.
        """
        keep = key_filter if key_filter is not None else (lambda key: True)
        mentions = dict(self._mention_index)
        hypernyms = dict(self._entity_hypernyms)
        entities = dict(self._concept_entities)

        def remove(index: dict, key: str, member: str) -> bool:
            """Drop *member* from *key*'s answer; True if it was there."""
            if not keep(key):
                return False
            current = index.get(key, ())
            try:
                at = current.index(member)
            except ValueError:
                return False
            if len(current) == 1:
                del index[key]
            else:
                index[key] = current[:at] + current[at + 1:]
            return True

        def insert(index: dict, key: str, member: str) -> bool:
            """Add *member* to *key*'s answer; True if it was absent."""
            if not keep(key):
                return False
            current = index.get(key, ())
            at = bisect_left(current, member)
            if at < len(current) and current[at] == member:
                return False
            index[key] = current[:at] + (member,) + current[at:]
            return True

        for entity in delta.entities_removed:
            for mention in entity.mentions:
                remove(mentions, mention, entity.page_id)
        for old, new in delta.entities_changed:
            for mention in set(old.mentions) - set(new.mentions):
                remove(mentions, mention, old.page_id)
            for mention in set(new.mentions) - set(old.mentions):
                insert(mentions, mention, new.page_id)
        for entity in delta.entities_added:
            for mention in entity.mentions:
                insert(mentions, mention, entity.page_id)
        n_pairs = self._n_pairs
        for relation in delta.relations_removed:
            if relation.hyponym_kind == HYPONYM_ENTITY:
                n_pairs -= remove(
                    hypernyms, relation.hyponym, relation.hypernym
                )
                remove(entities, relation.hypernym, relation.hyponym)
        for relation in delta.relations_added:
            if relation.hyponym_kind == HYPONYM_ENTITY:
                n_pairs += insert(
                    hypernyms, relation.hyponym, relation.hypernym
                )
                insert(entities, relation.hypernym, relation.hyponym)
        # relations_changed carry the same key with new score/source —
        # neither lives in the serving indexes, so nothing to touch.

        if n_relations is None:
            n_relations = n_pairs
        if stats is None:
            stats = TaxonomyStats(
                n_entities=len(hypernyms),
                n_concepts=len(entities),
                n_entity_concept=n_pairs,
                n_subconcept_concept=0,
            )
        return ReadOptimizedTaxonomy(
            name=name if name is not None else self.name,
            mention_index=mentions,
            entity_hypernyms=hypernyms,
            concept_entities=entities,
            stats=stats,
            n_relations=n_relations,
            _n_pairs=n_pairs,
        )

    # -- introspection -------------------------------------------------------

    def as_indexes(
        self,
    ) -> tuple[
        dict[str, tuple[str, ...]],
        dict[str, tuple[str, ...]],
        dict[str, tuple[str, ...]],
    ]:
        """The three serving indexes: (mentions, entity→concepts, concept→entities).

        This is the partitioning surface for
        :class:`~repro.serving.sharding.ShardedSnapshotStore`: each index
        is keyed independently, so splitting every index by a stable key
        hash preserves per-key answers exactly.  Callers must treat the
        returned mappings as read-only (they are the live index objects,
        not copies).
        """
        return (
            self._mention_index,
            self._entity_hypernyms,
            self._concept_entities,
        )

    def stats(self) -> TaxonomyStats:
        return self._stats

    def __len__(self) -> int:
        return self._n_relations
