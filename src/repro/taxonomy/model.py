"""Typed records for taxonomy content.

An :class:`IsARelation` keeps its extraction provenance (which of the four
sources produced it), because the paper evaluates per-source precision
(bracket 96.2%, tag 97.4%) and the verification heuristics weight sources
differently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TaxonomyError

# Extraction sources (Figure 2 of the paper).
SOURCE_BRACKET = "bracket"
SOURCE_ABSTRACT = "abstract"
SOURCE_INFOBOX = "infobox"
SOURCE_TAG = "tag"

KNOWN_SOURCES = frozenset(
    {SOURCE_BRACKET, SOURCE_ABSTRACT, SOURCE_INFOBOX, SOURCE_TAG, "baseline"}
)

# Provenances registered at runtime by third-party generation stages
# (see :meth:`repro.core.stages.StageRegistry.register_source`).
_EXTRA_SOURCES: set[str] = set()


def register_source_name(name: str) -> None:
    """Allow *name* as an :class:`IsARelation` provenance.

    Loading a saved taxonomy that contains custom-source relations
    requires the producing stage to be registered first in that process.
    """
    if not name:
        raise TaxonomyError("source name must be non-empty")
    _EXTRA_SOURCES.add(name)


def is_known_source(name: str) -> bool:
    return name in KNOWN_SOURCES or name in _EXTRA_SOURCES


# Hyponym kinds: entity-concept vs subconcept-concept relations, reported
# separately by the paper (32.4M vs 527K).
HYPONYM_ENTITY = "entity"
HYPONYM_CONCEPT = "concept"


@dataclass(frozen=True)
class Entity:
    """A disambiguated entity: page identity plus its mention surfaces."""

    page_id: str
    name: str
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.page_id:
            raise TaxonomyError("entity page_id must be non-empty")
        if not self.name:
            raise TaxonomyError(f"entity {self.page_id!r} has an empty name")

    @property
    def mentions(self) -> tuple[str, ...]:
        """All surfaces under which this entity can be mentioned."""
        return (self.name, *self.aliases)


@dataclass(frozen=True)
class IsARelation:
    """One hypernym-hyponym pair with provenance.

    ``hyponym`` is a page_id when ``hyponym_kind == "entity"`` and a
    concept string when ``hyponym_kind == "concept"``.  ``hypernym`` is
    always a concept string.
    """

    hyponym: str
    hypernym: str
    source: str
    hyponym_kind: str = HYPONYM_ENTITY
    score: float = 1.0

    def __post_init__(self) -> None:
        if not self.hyponym or not self.hypernym:
            raise TaxonomyError(
                f"isA relation needs both sides, got "
                f"({self.hyponym!r}, {self.hypernym!r})"
            )
        if self.hyponym_kind not in (HYPONYM_ENTITY, HYPONYM_CONCEPT):
            raise TaxonomyError(f"unknown hyponym kind {self.hyponym_kind!r}")
        if not is_known_source(self.source):
            raise TaxonomyError(f"unknown source {self.source!r}")

    @property
    def key(self) -> tuple[str, str]:
        """Identity of the pair regardless of provenance (for dedup)."""
        return (self.hyponym, self.hypernym)

    def with_source(self, source: str) -> "IsARelation":
        return IsARelation(
            hyponym=self.hyponym,
            hypernym=self.hypernym,
            source=source,
            hyponym_kind=self.hyponym_kind,
            score=self.score,
        )


@dataclass(frozen=True)
class TaxonomyStats:
    """Headline counts as the paper reports them (Section IV)."""

    n_entities: int
    n_concepts: int
    n_entity_concept: int
    n_subconcept_concept: int

    @property
    def n_isa_total(self) -> int:
        return self.n_entity_concept + self.n_subconcept_concept

    def as_dict(self) -> dict[str, int]:
        return {
            "entities": self.n_entities,
            "concepts": self.n_concepts,
            "entity_concept_relations": self.n_entity_concept,
            "subconcept_concept_relations": self.n_subconcept_concept,
            "isa_relations_total": self.n_isa_total,
        }
