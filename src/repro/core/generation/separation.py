"""Separation algorithm: hypernyms from bracket noun compounds (Section II).

The bracket of a disambiguated entity (``陈龙（蚂蚁金服首席战略官）``)
is a noun compound whose right side names the entity's hypernyms.  The
algorithm of the paper builds a binary tree over the segmented compound by
a PMI-guided sliding window:

- Step 1: for window ``(x_{i-1}, x_i, x_{i+1})``, if
  ``PMI(x_{i-1}, x_i) < PMI(x_i, x_{i+1})`` merge the right pair (step 2),
  otherwise just slide left (step 3);
- Step 4: at the left edge, if ``PMI(x_1, x_2) > PMI(x_2, x_3)`` merge the
  front pair, then re-scan.

Merges recorded as ⊕ operations form the binary tree; the hypernyms are
the node texts along the tree's rightmost path (蚂蚁金服首席战略官 →
首席战略官 and 战略官, the blue phrases of Figure 3).

The paper leaves the termination of the window dance unspecified; we
complete it deterministically: repeated right-to-left sweeps, the front
merge at the edge, a final merge for two remaining units, and — should a
sweep make no progress (uniform PMI plateaus) — a fallback merge of the
maximum-PMI adjacent pair.  An ``agglomerative`` mode (always merge the
globally best pair) is provided for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encyclopedia.model import EncyclopediaPage
from repro.errors import SegmentationError
from repro.nlp.pmi import PMIStatistics
from repro.nlp.pos import POSTagger
from repro.nlp.segmentation import Segmenter
from repro.nlp.text import split_phrases
from repro.taxonomy.model import SOURCE_BRACKET, IsARelation


@dataclass
class SeparationNode:
    """A node of the separation binary tree."""

    words: tuple[str, ...]
    left: "SeparationNode | None" = None
    right: "SeparationNode | None" = None

    @property
    def text(self) -> str:
        return "".join(self.words)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @classmethod
    def leaf(cls, word: str) -> "SeparationNode":
        return cls(words=(word,))

    @classmethod
    def merge(cls, left: "SeparationNode", right: "SeparationNode") -> "SeparationNode":
        return cls(words=left.words + right.words, left=left, right=right)


class SeparationAlgorithm:
    """PMI sliding-window compound bracketing."""

    def __init__(self, pmi: PMIStatistics, agglomerative: bool = False) -> None:
        self._pmi = pmi
        self._agglomerative = agglomerative

    def _boundary_pmi(self, left: SeparationNode, right: SeparationNode) -> float:
        """PMI across the junction of two units (boundary words)."""
        return self._pmi.pmi(left.words[-1], right.words[0])

    def build_tree(self, words: list[str]) -> SeparationNode:
        """Build the separation tree over a segmented compound."""
        if not words:
            raise SegmentationError("cannot separate an empty compound")
        units = [SeparationNode.leaf(w) for w in words]
        if self._agglomerative:
            return self._build_agglomerative(units)
        return self._build_sliding_window(units)

    def _build_agglomerative(self, units: list[SeparationNode]) -> SeparationNode:
        while len(units) > 1:
            best = max(
                range(len(units) - 1),
                key=lambda i: self._boundary_pmi(units[i], units[i + 1]),
            )
            units[best:best + 2] = [SeparationNode.merge(units[best], units[best + 1])]
        return units[0]

    def _build_sliding_window(self, units: list[SeparationNode]) -> SeparationNode:
        while len(units) > 1:
            if len(units) == 2:
                units = [SeparationNode.merge(units[0], units[1])]
                continue
            merged_any = False
            # Right-to-left sweep: window middle index m over (m-1, m, m+1).
            m = len(units) - 2
            while m >= 1:
                left_pmi = self._boundary_pmi(units[m - 1], units[m])
                right_pmi = self._boundary_pmi(units[m], units[m + 1])
                if left_pmi < right_pmi:
                    # Step 2: bind the middle to its right neighbour.
                    units[m:m + 2] = [
                        SeparationNode.merge(units[m], units[m + 1])
                    ]
                    merged_any = True
                m -= 1  # steps 2 and 3 both slide the window left
            # Step 4: front-pair merge at the left edge.
            if len(units) >= 3:
                if self._boundary_pmi(units[0], units[1]) > self._boundary_pmi(
                    units[1], units[2]
                ):
                    units[0:2] = [SeparationNode.merge(units[0], units[1])]
                    merged_any = True
            if not merged_any and len(units) > 2:
                # PMI plateau: force progress on the best adjacent pair.
                best = max(
                    range(len(units) - 1),
                    key=lambda i: self._boundary_pmi(units[i], units[i + 1]),
                )
                units[best:best + 2] = [
                    SeparationNode.merge(units[best], units[best + 1])
                ]
        return units[0]

    def hypernyms(self, words: list[str]) -> list[str]:
        """Node texts along the rightmost path of the separation tree.

        A single-word compound is its own hypernym.
        """
        if len(words) == 1:
            return [words[0]]
        tree = self.build_tree(words)
        result: list[str] = []
        node = tree
        while node.right is not None:
            node = node.right
            result.append(node.text)
        return result


class BracketExtractor:
    """Bracket source of the generation module.

    Splits the bracket annotation into phrases (``演员、歌手``), runs the
    separation algorithm on each, and emits one candidate isA relation per
    hypernym.  A light shape filter (hypernyms must contain CJK and not be
    pure function words) keeps this source at its naturally high precision
    without doing the verification module's job.
    """

    def __init__(
        self,
        segmenter: Segmenter,
        pmi: PMIStatistics,
        tagger: POSTagger | None = None,
        agglomerative: bool = False,
    ) -> None:
        self._segmenter = segmenter
        self._algorithm = SeparationAlgorithm(pmi, agglomerative=agglomerative)
        self._tagger = tagger if tagger is not None else POSTagger(segmenter.lexicon)

    @property
    def algorithm(self) -> SeparationAlgorithm:
        return self._algorithm

    def extract_from_page(self, page: EncyclopediaPage) -> list[IsARelation]:
        if not page.bracket:
            return []
        relations: list[IsARelation] = []
        seen: set[str] = set()
        for phrase in split_phrases(page.bracket):
            try:
                words = self._segmenter.segment(phrase)
            except SegmentationError:
                continue
            for hypernym in self._algorithm.hypernyms(words):
                if hypernym in seen or not self._plausible(hypernym):
                    continue
                seen.add(hypernym)
                relations.append(
                    IsARelation(
                        hyponym=page.page_id,
                        hypernym=hypernym,
                        source=SOURCE_BRACKET,
                    )
                )
        return relations

    def extract(self, pages) -> list[IsARelation]:
        """Run over an iterable of pages (e.g. a dump)."""
        relations: list[IsARelation] = []
        for page in pages:
            relations.extend(self.extract_from_page(page))
        return relations

    def _plausible(self, hypernym: str) -> bool:
        if len(hypernym) < 2:
            return False
        tag = self._tagger.tag(hypernym)
        return tag not in ("m", "x", "u", "v")


class BracketSource:
    """Registry adapter: the bracket-separation generation stage.

    Runs first so its high-precision output can distant-supervise the
    abstract source and align the infobox predicate discovery.
    """

    name = SOURCE_BRACKET
    # Explicitly dependency-free: reads no other source's output, so the
    # ExecutionPlan may schedule it in the first wave.
    requires = ()

    def generate(self, context) -> list[IsARelation]:
        extractor = BracketExtractor(
            context.segmenter, context.pmi, context.tagger
        )
        return extractor.extract(context.dump)
