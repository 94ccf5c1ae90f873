"""Frequency/POS lexicon with prefix tables for DAG segmentation.

The lexicon mirrors jieba's prefix-dictionary design: besides the real
entries we keep a set of every proper prefix of every word, so the
segmenter can abort its forward scan as soon as no dictionary word can
start at the current position.  The segmenter scores words through
:meth:`Lexicon.log_prob_table`, one dict of every entry's
:meth:`Lexicon.log_prob` built once per :attr:`Lexicon.version`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator

from repro.errors import LexiconError
from repro.nlp import base_lexicon

_UNKNOWN_FREQ = 0.5


@dataclass(frozen=True)
class LexiconEntry:
    """One lexicon row: surface form, frequency weight and coarse POS."""

    word: str
    freq: int
    pos: str


class Lexicon:
    """Mutable frequency lexicon with prefix lookup.

    Frequencies are relative weights, not corpus counts; the segmenter only
    consumes their ratios (via log-probabilities), so any consistent scale
    works.
    """

    def __init__(self) -> None:
        self._entries: dict[str, LexiconEntry] = {}
        self._prefixes: set[str] = set()
        self._total: int = 0
        self._max_len: int = 0
        self._version: int = 0
        # (version, {word: log_prob(word)}, log_prob of an unknown word)
        self._log_probs: tuple[int, dict[str, float], float] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def base(cls) -> "Lexicon":
        """Return a fresh lexicon loaded with the bundled base vocabulary."""
        lex = cls()
        for word, freq, pos in base_lexicon.BASE_ENTRIES:
            lex.add(word, freq, pos)
        return lex

    def add(self, word: str, freq: int = 1, pos: str = "n") -> None:
        """Insert *word*, accumulating frequency on duplicates.

        POS of an existing entry is kept unless the existing POS is the
        default ``n`` and the new one is more specific.
        """
        if not word:
            raise LexiconError("cannot add empty word to lexicon")
        if freq <= 0:
            raise LexiconError(f"frequency must be positive, got {freq} for {word!r}")
        existing = self._entries.get(word)
        if existing is None:
            self._entries[word] = LexiconEntry(word, freq, pos)
        else:
            kept_pos = existing.pos if existing.pos != "n" else pos
            self._entries[word] = LexiconEntry(word, existing.freq + freq, kept_pos)
        self._total += freq
        self._max_len = max(self._max_len, len(word))
        self._version += 1
        for i in range(1, len(word)):
            self._prefixes.add(word[:i])

    def add_all(self, words: Iterable[str], freq: int = 1, pos: str = "n") -> None:
        """Insert every word of *words* with the same frequency and POS."""
        for word in words:
            self.add(word, freq, pos)

    def merge(self, other: "Lexicon") -> None:
        """Accumulate every entry of *other* into this lexicon."""
        for entry in other:
            self.add(entry.word, entry.freq, entry.pos)

    def same_content(self, other: "Lexicon") -> bool:
        """True when both lexicons hold identical entries.

        Content equality (word → frequency + POS) is what segmentation,
        tagging and NER outcomes depend on — two lexicons with the same
        content are interchangeable regardless of insertion history.
        The incremental build path uses this as its settle-everything
        check: when the cheap per-page contribution comparison cannot
        prove the harvested lexicon unchanged, a re-harvest compared
        with ``same_content`` decides whether the previous build's
        segmenter can still be reused verbatim.
        """
        return self._entries == other._entries

    # -- lookup --------------------------------------------------------------

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LexiconEntry]:
        return iter(self._entries.values())

    def get(self, word: str) -> LexiconEntry | None:
        """Return the entry for *word*, or None when absent."""
        return self._entries.get(word)

    def freq(self, word: str) -> int:
        """Return the frequency weight of *word* (0 when absent)."""
        entry = self._entries.get(word)
        return entry.freq if entry is not None else 0

    def pos_of(self, word: str) -> str | None:
        """Return the coarse POS of *word*, or None when absent."""
        entry = self._entries.get(word)
        return entry.pos if entry is not None else None

    @property
    def total(self) -> int:
        """Sum of all frequency weights (normalising constant)."""
        return self._total

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every :meth:`add`.

        Derived caches (the segmenter's Viterbi LRU and
        :meth:`log_prob_table`) key their validity on this, so feeding
        the lexicon new words after a cache has warmed up can never
        serve stale segmentations.
        """
        return self._version

    @property
    def max_word_len(self) -> int:
        return self._max_len

    @property
    def prefixes(self) -> AbstractSet[str]:
        """Every proper prefix of every entry (read-only)."""
        return self._prefixes

    def log_prob(
        self, word: str, default_freq: float = _UNKNOWN_FREQ
    ) -> float:
        """Log unigram probability of *word* under this lexicon.

        Unknown words get *default_freq*; single unknown characters are the
        segmenter's fallback, so the default must stay well below real
        entries.  This is the definition :meth:`log_prob_table` caches.
        """
        total = max(self._total, 1)
        freq = self.freq(word)
        return math.log(max(freq, default_freq)) - math.log(total)

    def log_prob_table(self) -> tuple[dict[str, float], float]:
        """``log_prob`` of every entry, and of an unknown word, at the
        current :attr:`version`.

        Each value is :meth:`log_prob`'s own expression, float for
        float (``log(total)`` is taken once, which yields the same
        float).  The table is built on first use after a mutation.
        Callers must not mutate it.
        """
        # Threads that race here build equal tables and each publish a
        # whole tuple, so a reader never sees a table of another version.
        version = self._version
        cached = self._log_probs
        if cached is None or cached[0] != version:
            log_total = math.log(max(self._total, 1))
            table = {
                word: math.log(max(entry.freq, _UNKNOWN_FREQ)) - log_total
                for word, entry in self._entries.items()
            }
            cached = (version, table, math.log(_UNKNOWN_FREQ) - log_total)
            self._log_probs = cached
        return cached[1], cached[2]
