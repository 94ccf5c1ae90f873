"""Dictionary-DAG Viterbi word segmentation.

Chinese has no word spaces, so every downstream component (the separation
algorithm, PMI statistics, NER support counting) consumes the output of
this segmenter.  The algorithm is the same family as jieba's core:

1. build a DAG of every dictionary word starting at each position,
2. pick the maximum log-probability path under a unigram model,
3. fall back to single characters for out-of-vocabulary spans.

Runs come from :func:`repro.nlp.text.split_cjk_runs`.  Non-CJK runs
(Latin, digits) are emitted as single tokens; whitespace is dropped;
punctuation becomes its own token.

The Viterbi path is memoised per CJK run in a bounded LRU (corpus text
repeats brackets, tags and common phrases heavily, so a warm cache turns
most ``segment`` calls into dict hits).  The cache keys its validity on
:attr:`Lexicon.version` and flushes itself whenever the lexicon gains
words, so results are always identical to the uncached segmenter.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.errors import SegmentationError
from repro.nlp.lexicon import Lexicon
from repro.nlp.text import normalize_text, split_cjk_runs

_UNKNOWN_CHAR_FREQ = 0.5
DEFAULT_SEGMENT_CACHE = 32_768


class Segmenter:
    """Maximum-probability segmenter over a :class:`Lexicon`."""

    def __init__(
        self,
        lexicon: Lexicon | None = None,
        cache_size: int | None = DEFAULT_SEGMENT_CACHE,
    ) -> None:
        self._lexicon = lexicon if lexicon is not None else Lexicon.base()
        self._cache_size = cache_size
        # lru_cache is thread-safe, which the parallel build relies on:
        # several stages share one segmenter across worker threads.
        self._cached_viterbi = lru_cache(maxsize=cache_size)(self._viterbi)
        self._cached_version = self._lexicon.version

    def __getstate__(self) -> dict:
        # The lru_cache-wrapped bound method is unpicklable (and its
        # entries are worthless in another process); ship the lexicon
        # and cache size, rebuild the memo cold on the other side.
        # Results are unaffected: the cache only ever replays what
        # _viterbi would recompute.
        return {
            "lexicon": self._lexicon,
            "cache_size": self._cache_size,
            "cached_version": self._cached_version,
        }

    def __setstate__(self, state: dict) -> None:
        self._lexicon = state["lexicon"]
        self._cache_size = state["cache_size"]
        self._cached_viterbi = lru_cache(maxsize=self._cache_size)(
            self._viterbi
        )
        self._cached_version = state["cached_version"]

    @property
    def lexicon(self) -> Lexicon:
        return self._lexicon

    def cache_info(self):
        """``functools.lru_cache`` statistics for the Viterbi memo."""
        return self._cached_viterbi.cache_info()

    def segment(self, text: str, keep_punctuation: bool = False) -> list[str]:
        """Segment *text* into a list of word tokens.

        Raises :class:`SegmentationError` on empty/whitespace-only input so
        callers never silently operate on nothing.
        """
        normalized = normalize_text(text)
        if not normalized:
            raise SegmentationError(f"cannot segment empty text {text!r}")
        version = self._lexicon.version
        if self._cached_version != version:
            # Memory hygiene only — correctness comes from *version*
            # being part of the cache key, so a thread that started
            # computing against the old lexicon can never poison the
            # cache for the new one (its entry sits under the old key).
            self._cached_viterbi.cache_clear()
            self._cached_version = version
        tokens: list[str] = []
        for i, run in enumerate(split_cjk_runs(normalized)):
            if i % 2:
                tokens.extend(self._cached_viterbi(run, version))
            elif run:
                tokens.extend(_split_non_cjk(run, keep_punctuation))
        if not tokens:
            raise SegmentationError(f"no tokens produced for {text!r}")
        return tokens

    def segment_corpus(self, texts: Iterable[str]) -> list[list[str]]:
        """Segment every text, skipping ones that produce no tokens."""
        out: list[list[str]] = []
        for text in texts:
            try:
                out.append(self.segment(text))
            except SegmentationError:
                continue
        return out

    def _viterbi(self, run: str, version: int = 0) -> tuple[str, ...]:
        """Best segmentation of a pure-CJK run under the unigram model.

        *version* does not affect the computation — it is the lexicon
        version the caller read, present only so the LRU keys every
        entry to the lexicon state it was computed under.  Returns a
        tuple (not a list) because the result is shared through the
        LRU: callers must never receive a mutable alias of a cached
        value.
        """
        n = len(run)
        # best[i] = (score of best path covering run[:i], start of last word)
        best: list[tuple[float, int]] = [(0.0, 0)] + [(float("-inf"), 0)] * n
        for start in range(n):
            base_score = best[start][0]
            if base_score == float("-inf"):
                continue
            candidates = self._lexicon.words_starting_at(run, start)
            # Single-character fallback keeps the lattice connected even
            # for fully out-of-vocabulary spans.
            if not candidates or len(candidates[0]) != 1:
                candidates = [run[start]] + candidates
            for word in candidates:
                end = start + len(word)
                score = base_score + self._lexicon.log_prob(
                    word, default_freq=_UNKNOWN_CHAR_FREQ
                )
                if score > best[end][0]:
                    best[end] = (score, start)
        # Backtrack.
        words: list[str] = []
        pos = n
        while pos > 0:
            start = best[pos][1]
            words.append(run[start:pos])
            pos = start
        words.reverse()
        return tuple(words)


def _split_non_cjk(run: str, keep_punctuation: bool) -> list[str]:
    """Tokenise a non-CJK run: alnum sequences stay whole, whitespace is
    dropped, punctuation becomes per-character tokens when kept."""
    tokens: list[str] = []
    current: list[str] = []
    for ch in run:
        if ch.isalnum():
            current.append(ch)
            continue
        if current:
            tokens.append("".join(current))
            current = []
        if not ch.isspace() and keep_punctuation:
            tokens.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens

