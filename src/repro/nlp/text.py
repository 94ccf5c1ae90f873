"""Low-level Chinese text utilities.

These helpers deal with the orthographic quirks the paper's introduction
calls out: no word spaces, mixed full-width/half-width punctuation, and
bracket annotations attached directly to entity names (e.g.
``刘德华（中国香港男演员、歌手、词作人）``).

One regex compiled from ``_CJK_RANGES`` answers every CJK question
(character, word, runs) and :func:`normalize_text` is one
``str.translate``: the segmenter's per-character work runs in C.
"""

from __future__ import annotations

import re
from typing import Iterator

# Unicode ranges treated as CJK ideographs.  The extension blocks matter for
# rare-character entity names that occur in encyclopedia dumps.
_CJK_RANGES: tuple[tuple[int, int], ...] = (
    (0x4E00, 0x9FFF),    # CJK Unified Ideographs
    (0x3400, 0x4DBF),    # Extension A
    (0x20000, 0x2A6DF),  # Extension B
    (0xF900, 0xFAFF),    # Compatibility Ideographs
)

# One maximal run of CJK ideographs; the group makes ``split`` keep the runs.
_CJK_RUN = re.compile(
    "(["
    + "".join(rf"\U{lo:08x}-\U{hi:08x}" for lo, hi in _CJK_RANGES)
    + "]+)"
)

# Full-width ASCII variants map onto their half-width counterparts; the
# ideographic space maps onto a plain space.
_HALF_WIDTH = {code: code - 0xFEE0 for code in range(0xFF01, 0xFF5F)}
_HALF_WIDTH[0x3000] = ord(" ")

# Chinese enumeration/sentence punctuation used as split points when pulling
# phrases out of brackets and abstracts.
CHINESE_DELIMITERS = "、，。；：！？,;:!?"

# Bracket pairs seen around disambiguation suffixes in encyclopedia titles.
BRACKET_PAIRS: tuple[tuple[str, str], ...] = (
    ("（", "）"),
    ("(", ")"),
    ("【", "】"),
    ("〔", "〕"),
)


def is_cjk_char(char: str) -> bool:
    """Return True when *char* is a single CJK ideograph."""
    return len(char) == 1 and is_cjk_word(char)


def is_cjk_word(word: str) -> bool:
    """Return True when *word* is non-empty and made only of CJK ideographs."""
    return _CJK_RUN.fullmatch(word) is not None


def normalize_text(text: str) -> str:
    """Normalise full-width ASCII and whitespace.

    Full-width digits/letters/punctuation become half-width, the
    ideographic space becomes a plain space, and outer whitespace is
    stripped.  CJK ideographs and Chinese punctuation are left untouched.
    """
    return text.translate(_HALF_WIDTH).strip()


def strip_brackets(title: str) -> tuple[str, str | None]:
    """Split an encyclopedia title into (entity name, bracket content).

    ``刘德华（中国香港男演员）`` → ``("刘德华", "中国香港男演员")``.
    Returns ``(title, None)`` when no trailing bracket annotation exists.
    Only a bracket that closes at the end of the title counts as a
    disambiguation annotation.
    """
    stripped = title.strip()
    for opener, closer in BRACKET_PAIRS:
        if not stripped.endswith(closer):
            continue
        start = stripped.rfind(opener)
        if start <= 0:
            continue
        inner = stripped[start + len(opener):-len(closer)].strip()
        name = stripped[:start].strip()
        if name and inner:
            return name, inner
    return stripped, None


def split_cjk_runs(text: str) -> list[str]:
    """Split *text* around its maximal runs of CJK ideographs.

    The runs sit at the odd indices; the even indices hold the non-CJK
    text before, between and after them, empty where there is none.
    """
    return _CJK_RUN.split(text)


def iter_cjk_runs(text: str) -> Iterator[str]:
    """Yield maximal runs of consecutive CJK ideographs in *text*."""
    return iter(split_cjk_runs(text)[1::2])


def split_phrases(text: str) -> list[str]:
    """Split *text* on Chinese/Latin enumeration punctuation.

    Used to break bracket annotations such as
    ``中国香港男演员、歌手、词作人`` into candidate noun compounds.
    """
    phrases: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch in CHINESE_DELIMITERS or ch.isspace():
            if current:
                phrases.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        phrases.append("".join(current))
    return phrases


def char_ngrams(text: str, n: int) -> Iterator[str]:
    """Yield all character n-grams of *text* (used by mention indexing)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(text) - n + 1):
        yield text[i:i + n]
