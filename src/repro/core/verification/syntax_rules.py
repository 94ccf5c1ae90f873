"""Syntax-rule verification (Section III-C).

Rule 1 — a good hypernym is not a thematic word (政治, 军事...); the
184-entry lexicon reconstruction lives in
:mod:`repro.core.verification.thematic`.

Rule 2 — the stem of the hypernym's lexical head must not occur in a
non-head position of the hyponym: isA(教育机构, 教育) is rejected
because 教育 heads nothing in 教育机构.

A trivial identity guard (hyponym surface == hypernym) is included, as
any real implementation needs it after merging multiple sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.verification.incompatible import FilterDecision
from repro.core.verification.thematic import THEMATIC_WORDS
from repro.errors import SegmentationError
from repro.nlp.head import head_stem_violates
from repro.nlp.pos import POSTagger
from repro.nlp.segmentation import Segmenter
from repro.taxonomy.model import HYPONYM_ENTITY, IsARelation


@dataclass
class RuleCounts:
    """How many relations each rule removed (for the ablation report)."""

    thematic: int = 0
    head_stem: int = 0
    identity: int = 0

    def total(self) -> int:
        return self.thematic + self.head_stem + self.identity


class SyntaxRuleFilter:
    """Lexicon + head-stem syntactic filters."""

    def __init__(
        self,
        segmenter: Segmenter,
        tagger: POSTagger | None = None,
        thematic_words: frozenset[str] = THEMATIC_WORDS,
    ) -> None:
        self._segmenter = segmenter
        self._tagger = tagger if tagger is not None else POSTagger(segmenter.lexicon)
        self._thematic = thematic_words
        self.last_counts = RuleCounts()

    def is_thematic(self, hypernym: str) -> bool:
        """Rule 1: thematic lexicon membership (plus POS back-off)."""
        return hypernym in self._thematic or self._tagger.is_thematic(hypernym)

    def violates_head_stem(self, hyponym_surface: str, hypernym: str) -> bool:
        """Rule 2 on surfaces: segment both sides, then check the stems."""
        return self._violates_head_stem(hyponym_surface, hypernym, {})

    def _violates_head_stem(
        self,
        hyponym_surface: str,
        hypernym: str,
        words: dict[str, list[str] | None],
    ) -> bool:
        """Rule 2, segmenting each surface at most once per *words* memo.

        A surface that cannot be segmented is memoised as ``None`` and
        means "no violation", as a :class:`SegmentationError` always has.
        """
        hypo_words = self._words(hyponym_surface, words)
        if hypo_words is None:
            return False
        hyper_words = self._words(hypernym, words)
        if hyper_words is None:
            return False
        return head_stem_violates(hypo_words, hyper_words)

    def _words(
        self, surface: str, words: dict[str, list[str] | None]
    ) -> list[str] | None:
        if surface not in words:
            try:
                words[surface] = self._segmenter.segment(surface)
            except SegmentationError:
                words[surface] = None
        return words[surface]

    def filter(
        self,
        relations: list[IsARelation],
        titles: dict[str, str] | None = None,
    ) -> FilterDecision:
        """Apply both rules; *titles* maps page_ids to mention surfaces.

        Each distinct surface is segmented once per call, the way
        :meth:`NEHypernymFilter.filter
        <repro.core.verification.ner_filter.NEHypernymFilter.filter>`
        scores each hypernym once.
        """
        titles = titles or {}
        counts = RuleCounts()
        kept: list[IsARelation] = []
        removed: list[IsARelation] = []
        words: dict[str, list[str] | None] = {}
        for relation in relations:
            surface = relation.hyponym
            if relation.hyponym_kind == HYPONYM_ENTITY:
                surface = titles.get(relation.hyponym, relation.hyponym)
            if self.is_thematic(relation.hypernym):
                counts.thematic += 1
                removed.append(relation)
            elif surface == relation.hypernym:
                counts.identity += 1
                removed.append(relation)
            elif self._violates_head_stem(surface, relation.hypernym, words):
                counts.head_stem += 1
                removed.append(relation)
            else:
                kept.append(relation)
        self.last_counts = counts
        return FilterDecision(kept=kept, removed=removed)


class SyntaxVerifier:
    """Registry adapter: the syntax-rule verification stage."""

    name = "syntax"

    def verify(self, context, relations: list[IsARelation]) -> FilterDecision:
        return SyntaxRuleFilter(context.segmenter, context.tagger).filter(
            relations, context.titles
        )
