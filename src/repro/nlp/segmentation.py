"""Dictionary-DAG Viterbi word segmentation.

Chinese has no word spaces, so every downstream component (the separation
algorithm, PMI statistics, NER support counting) consumes the output of
this segmenter.  The algorithm is the same family as jieba's core:

1. build a DAG of every dictionary word starting at each position,
2. pick the maximum log-probability path under a unigram model,
3. fall back to single characters for out-of-vocabulary spans.

The forward pass is one table-driven kernel: each word's score is a
lookup in :meth:`Lexicon.log_prob_table` (every entry's
:meth:`Lexicon.log_prob`, built once per lexicon version), and the scan
for words starting at a position walks :attr:`Lexicon.prefixes`
directly, with no method call per fragment.  Candidates are scored in
a fixed order (the single character first, then longer words in
ascending length), and a later candidate must score strictly higher to
win, so ties go to the earlier one.

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

DEFAULT_SEGMENT_CACHE = 32_768


class Segmenter:
    """Maximum-probability segmenter over a :class:`Lexicon`."""

    def __init__(
        self,
        lexicon: Lexicon | None = None,
        cache_size: int | None = DEFAULT_SEGMENT_CACHE,
    ) -> None:
        self._lexicon = lexicon if lexicon is not None else Lexicon.base()
        self._cached_viterbi = lru_cache(maxsize=cache_size)(self._viterbi)
        self._cached_version = self._lexicon.version

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

        At each start position the single character is scored first
        (its table value, or the unknown-word value when it is no
        entry), which keeps the lattice connected across
        out-of-vocabulary spans.  Longer fragments follow in ascending
        length until one is neither an entry nor a proper prefix of
        one.  A path's score is ``base + log_prob(word)``, and a
        candidate replaces the best path ending where it ends only when
        its score is strictly greater.
        """
        log_probs, unknown = self._lexicon.log_prob_table()
        log_prob = log_probs.get
        prefixes = self._lexicon.prefixes
        n = len(run)
        # best[i]: score of the best path covering run[:i]; back[i]: the
        # start of that path's last word.
        best = [0.0] + [float("-inf")] * n
        back = [0] * (n + 1)
        for start in range(n):
            base = best[start]
            char = run[start]
            score = base + log_prob(char, unknown)
            if score > best[start + 1]:
                best[start + 1] = score
                back[start + 1] = start
            if char not in prefixes:
                continue
            for end in range(start + 2, n + 1):
                fragment = run[start:end]
                lp = log_prob(fragment)
                if lp is None:
                    if fragment in prefixes:
                        continue
                    break
                score = base + lp
                if score > best[end]:
                    best[end] = score
                    back[end] = start
        words: list[str] = []
        pos = n
        while pos > 0:
            start = back[pos]
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

