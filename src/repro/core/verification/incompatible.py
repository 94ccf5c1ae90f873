"""Incompatible-concept verification (Section III-A).

Two concepts are *compatible* when they plausibly share entities (singer
and actor); incompatible when they cannot (person and book).  The filter
runs in two steps:

1. **pair mining** — concepts are incompatible when their hyponym sets
   barely overlap (Jaccard) *and* their attribute distributions diverge
   (cosine).  Both distributions come from the candidate pool and the
   infobox, not from gold data.
2. **arbitration** — for an entity claimed by two incompatible concepts,
   the KL divergence between the entity's attribute distribution and each
   concept's (Eq. 1) decides which claim is wrong: the larger-KL concept
   is dropped.

This is the verifier that removes cross-sense leakage on ambiguous
titles (the 音乐-tag-on-刘德华 class of error).

One ``filter`` call runs the pair test once per distinct *ordered*
concept pair (:func:`cosine` sums in its first argument's key order, so
a swapped pair can differ in the last bit at the threshold); the public
:meth:`IncompatibleConceptFilter.incompatible` stays unmemoised.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.encyclopedia.model import EncyclopediaDump
from repro.errors import PipelineError
from repro.taxonomy.model import HYPONYM_ENTITY, IsARelation

_EPSILON = 1e-9


def _normalise(counts: Counter[str]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {key: value / total for key, value in counts.items()}


def jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def cosine(a: dict[str, float], b: dict[str, float]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(value * b.get(key, 0.0) for key, value in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def kl_divergence(
    entity_dist: dict[str, float], concept_dist: dict[str, float]
) -> float:
    """Eq. 1: D_KL(v_att(e) || v_att(c)) with epsilon smoothing."""
    total = 0.0
    for key, p in entity_dist.items():
        if p <= 0.0:
            continue
        q = concept_dist.get(key, 0.0) + _EPSILON
        total += p * math.log(p / q)
    return total


@dataclass
class FilterDecision:
    """Outcome of one verifier run."""

    kept: list[IsARelation]
    removed: list[IsARelation]

    @property
    def n_removed(self) -> int:
        return len(self.removed)


class IncompatibleConceptFilter:
    """Two-step incompatible-pair mining + KL arbitration."""

    def __init__(
        self,
        jaccard_threshold: float = 0.02,
        cosine_threshold: float = 0.35,
        min_concept_entities: int = 3,
    ) -> None:
        self._jaccard_threshold = jaccard_threshold
        self._cosine_threshold = cosine_threshold
        self._min_concept_entities = min_concept_entities
        self._concept_entities: dict[str, set[str]] = {}
        self._concept_attrs: dict[str, dict[str, float]] = {}
        self._entity_predicates: dict[str, list[str]] = {}
        self._entity_attrs: dict[str, dict[str, float]] = {}
        self._fitted = False

    # -- step 0: statistics from pool + infobox ---------------------------

    def fit(
        self, relations: list[IsARelation], dump: EncyclopediaDump
    ) -> "IncompatibleConceptFilter":
        """Collect each concept's entities and attribute distribution.

        A concept's predicate counts are taken straight from its
        entities' infobox predicate lists, in relation order, so their
        integers and key order are those of folding one ``Counter`` per
        page.  An entity's own distribution is normalised on its first
        :meth:`entity_concept_kl` lookup, since only entities claimed
        by an incompatible pair are ever asked about.
        """
        concept_entities: dict[str, set[str]] = defaultdict(set)
        entity_predicates: dict[str, list[str]] = {}
        for page in dump:
            if page.infobox:
                entity_predicates[page.page_id] = [
                    triple.predicate for triple in page.infobox
                ]
        concept_attr_counts: dict[str, Counter[str]] = defaultdict(Counter)
        for relation in relations:
            if relation.hyponym_kind != HYPONYM_ENTITY:
                continue
            concept_entities[relation.hypernym].add(relation.hyponym)
            predicates = entity_predicates.get(relation.hyponym)
            if predicates:
                concept_attr_counts[relation.hypernym].update(predicates)
        self._concept_entities = dict(concept_entities)
        self._concept_attrs = {
            concept: _normalise(counts)
            for concept, counts in concept_attr_counts.items()
        }
        self._entity_predicates = entity_predicates
        self._entity_attrs = {}
        self._fitted = True
        return self

    # -- step 1: incompatible pair test ----------------------------------------

    def incompatible(self, concept_a: str, concept_b: str) -> bool:
        """True when the two concepts should not share entities."""
        entities_a = self._concept_entities.get(concept_a, set())
        entities_b = self._concept_entities.get(concept_b, set())
        if (
            len(entities_a) < self._min_concept_entities
            or len(entities_b) < self._min_concept_entities
        ):
            return False  # not enough evidence to call them incompatible
        if jaccard(entities_a, entities_b) > self._jaccard_threshold:
            return False
        attrs_a = self._concept_attrs.get(concept_a, {})
        attrs_b = self._concept_attrs.get(concept_b, {})
        return cosine(attrs_a, attrs_b) <= self._cosine_threshold

    # -- step 2: KL arbitration ----------------------------------------------------

    def entity_concept_kl(self, page_id: str, concept: str) -> float:
        entity_dist = self._entity_attrs.get(page_id)
        if entity_dist is None:
            entity_dist = self._entity_attrs[page_id] = _normalise(
                Counter(self._entity_predicates.get(page_id, ()))
            )
        concept_dist = self._concept_attrs.get(concept, {})
        if not entity_dist or not concept_dist:
            return 0.0
        return kl_divergence(entity_dist, concept_dist)

    def filter(self, relations: list[IsARelation]) -> FilterDecision:
        if not self._fitted:
            raise PipelineError("fit() must run before filter()")
        by_entity: dict[str, list[IsARelation]] = defaultdict(list)
        passthrough: list[IsARelation] = []
        for relation in relations:
            if relation.hyponym_kind == HYPONYM_ENTITY:
                by_entity[relation.hyponym].append(relation)
            else:
                passthrough.append(relation)

        kept: list[IsARelation] = list(passthrough)
        removed: list[IsARelation] = []
        verdicts: dict[tuple[str, str], bool] = {}
        for page_id, entity_relations in by_entity.items():
            doomed: set[str] = set()
            concepts = [r.hypernym for r in entity_relations]
            for i, concept_a in enumerate(concepts):
                for concept_b in concepts[i + 1:]:
                    if concept_a in doomed or concept_b in doomed:
                        continue
                    pair = (concept_a, concept_b)
                    if pair not in verdicts:
                        verdicts[pair] = self.incompatible(*pair)
                    if not verdicts[pair]:
                        continue
                    kl_a = self.entity_concept_kl(page_id, concept_a)
                    kl_b = self.entity_concept_kl(page_id, concept_b)
                    doomed.add(concept_a if kl_a > kl_b else concept_b)
            for relation in entity_relations:
                if relation.hypernym in doomed:
                    removed.append(relation)
                else:
                    kept.append(relation)
        return FilterDecision(kept=kept, removed=removed)


class IncompatibleVerifier:
    """Registry adapter: the incompatible-concept verification stage."""

    name = "incompatible"

    def verify(self, context, relations: list[IsARelation]) -> FilterDecision:
        incompatible = IncompatibleConceptFilter()
        incompatible.fit(relations, context.dump)
        return incompatible.filter(relations)
