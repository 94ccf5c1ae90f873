"""Pointwise mutual information over adjacent-word co-occurrences.

The separation algorithm (Section II of the paper) compares
``PMI(x_{i-1}, x_i)`` against ``PMI(x_i, x_{i+1})`` for adjacent words of a
noun compound.  The statistics here are collected from segmented corpus
text (abstracts + compound phrases of the encyclopedia), the same corpus
family the authors use.

PMI(a, b) = log2( p(a, b) / (p(a) * p(b)) ), with add-k smoothing on the
bigram count so unseen pairs get a large-negative but finite score.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import log2
from typing import Iterable, Sequence


class PMIStatistics:
    """Unigram/bigram counters with smoothed PMI queries."""

    def __init__(self, smoothing: float = 0.1) -> None:
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        self._smoothing = smoothing
        self._unigrams: Counter[str] = Counter()
        self._bigrams: Counter[tuple[str, str]] = Counter()
        self._total_unigrams = 0
        self._total_bigrams = 0

    # -- collection -----------------------------------------------------------

    def add_sequence(self, words: Sequence[str]) -> None:
        """Count unigrams and adjacent bigrams of one token sequence."""
        self.add_corpus((words,))

    def add_corpus(self, sequences: Iterable[Sequence[str]]) -> None:
        """Count unigrams and adjacent bigrams of every sequence.

        Each counter takes one ``Counter.update`` over the chained
        stream, so its keys are inserted in the order the per-sequence
        loop first met them, and the counts and totals are that loop's.
        """
        sequences = list(sequences)
        self._unigrams.update(chain.from_iterable(sequences))
        self._bigrams.update(
            chain.from_iterable(zip(words, words[1:]) for words in sequences)
        )
        self._total_unigrams += sum(map(len, sequences))
        self._total_bigrams += sum(
            max(len(words) - 1, 0) for words in sequences
        )

    def remove_sequence(self, words: Sequence[str]) -> None:
        """Exactly undo one earlier :meth:`add_sequence` of *words*.

        Counts that reach zero are deleted (never left as zero entries),
        so after removing a sequence the statistics are
        indistinguishable from never having counted it — including
        ``vocabulary_size``, which feeds the smoothing denominator.
        This is what lets an incremental rebuild advance PMI by
        subtracting changed pages' old text and adding their new text
        instead of recounting the whole corpus.
        """
        for word in words:
            remaining = self._unigrams[word] - 1
            if remaining > 0:
                self._unigrams[word] = remaining
            else:
                del self._unigrams[word]
        self._total_unigrams -= len(words)
        for pair in zip(words, words[1:]):
            remaining = self._bigrams[pair] - 1
            if remaining > 0:
                self._bigrams[pair] = remaining
            else:
                del self._bigrams[pair]
        self._total_bigrams -= max(len(words) - 1, 0)

    def remove_corpus(self, sequences: Iterable[Sequence[str]]) -> None:
        for words in sequences:
            self.remove_sequence(words)

    def clone(self) -> "PMIStatistics":
        """An independent copy with identical counts and smoothing."""
        copy = PMIStatistics(smoothing=self._smoothing)
        copy._unigrams = Counter(self._unigrams)
        copy._bigrams = Counter(self._bigrams)
        copy._total_unigrams = self._total_unigrams
        copy._total_bigrams = self._total_bigrams
        return copy

    def same_counts(self, other: "PMIStatistics") -> bool:
        """True when both objects would answer every query identically."""
        return (
            self._smoothing == other._smoothing
            and self._total_unigrams == other._total_unigrams
            and self._total_bigrams == other._total_bigrams
            and self._unigrams == other._unigrams
            and self._bigrams == other._bigrams
        )

    # -- queries ---------------------------------------------------------------

    @property
    def vocabulary_size(self) -> int:
        return len(self._unigrams)

    @property
    def total_unigrams(self) -> int:
        return self._total_unigrams

    @property
    def total_bigrams(self) -> int:
        return self._total_bigrams

    def unigram_count(self, word: str) -> int:
        return self._unigrams[word]

    def bigram_count(self, left: str, right: str) -> int:
        return self._bigrams[(left, right)]

    def pmi(self, left: str, right: str) -> float:
        """Smoothed PMI of the adjacent pair (*left*, *right*).

        Works even on an empty statistics object (returns 0.0), so callers
        degrade to right-branching rather than crash.
        """
        if self._total_unigrams == 0 or self._total_bigrams == 0:
            return 0.0
        k = self._smoothing
        vocab = max(self.vocabulary_size, 1)
        p_pair = (self._bigrams[(left, right)] + k) / (
            self._total_bigrams + k * vocab * vocab
        )
        p_left = (self._unigrams[left] + k) / (self._total_unigrams + k * vocab)
        p_right = (self._unigrams[right] + k) / (self._total_unigrams + k * vocab)
        return log2(p_pair / (p_left * p_right))

    def cohesion(self, words: Sequence[str]) -> float:
        """Mean adjacent-pair PMI of a multi-word unit (0.0 for 1 word)."""
        if len(words) < 2:
            return 0.0
        scores = [self.pmi(a, b) for a, b in zip(words, words[1:])]
        return sum(scores) / len(scores)
