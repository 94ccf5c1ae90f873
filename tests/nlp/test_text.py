"""Tests for repro.nlp.text utilities."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SegmentationError
from repro.nlp.lexicon import Lexicon
from repro.nlp.segmentation import Segmenter, _split_non_cjk
from repro.nlp.text import (
    _CJK_RANGES,
    char_ngrams,
    is_cjk_char,
    is_cjk_word,
    iter_cjk_runs,
    normalize_text,
    split_cjk_runs,
    split_phrases,
    strip_brackets,
)


class TestIsCjk:
    def test_common_ideograph(self):
        assert is_cjk_char("中")

    def test_latin_is_not_cjk(self):
        assert not is_cjk_char("a")

    def test_digit_is_not_cjk(self):
        assert not is_cjk_char("9")

    def test_chinese_punctuation_is_not_cjk(self):
        assert not is_cjk_char("，")

    def test_multi_char_string_is_not_a_char(self):
        assert not is_cjk_char("中国")

    def test_empty_string(self):
        assert not is_cjk_char("")

    def test_extension_a(self):
        assert is_cjk_char(chr(0x3400))

    def test_cjk_word(self):
        assert is_cjk_word("蚂蚁金服")

    def test_mixed_word_is_not_cjk(self):
        assert not is_cjk_word("iPhone手机")

    def test_empty_word_is_not_cjk(self):
        assert not is_cjk_word("")


class TestNormalize:
    def test_fullwidth_ascii_becomes_halfwidth(self):
        assert normalize_text("ＡＢＣ１２３") == "ABC123"

    def test_ideographic_space_becomes_space(self):
        assert normalize_text("刘德华　歌手") == "刘德华 歌手"

    def test_strips_outer_whitespace(self):
        assert normalize_text("  刘德华  ") == "刘德华"

    def test_cjk_untouched(self):
        assert normalize_text("蚂蚁金服") == "蚂蚁金服"

    def test_chinese_punctuation_untouched(self):
        assert normalize_text("演员、歌手") == "演员、歌手"

    @given(st.text(alphabet="abc中美日123", max_size=20))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestStripBrackets:
    def test_fullwidth_bracket(self):
        name, bracket = strip_brackets("刘德华（中国香港男演员）")
        assert name == "刘德华"
        assert bracket == "中国香港男演员"

    def test_halfwidth_bracket(self):
        name, bracket = strip_brackets("刘德华(歌手)")
        assert name == "刘德华"
        assert bracket == "歌手"

    def test_no_bracket(self):
        assert strip_brackets("刘德华") == ("刘德华", None)

    def test_bracket_not_at_end_is_ignored(self):
        name, bracket = strip_brackets("（注）刘德华")
        assert bracket is None

    def test_bracket_only_title_is_not_split(self):
        name, bracket = strip_brackets("（全部）")
        assert bracket is None

    def test_empty_bracket_is_ignored(self):
        assert strip_brackets("刘德华（）") == ("刘德华（）", None)

    def test_square_bracket(self):
        name, bracket = strip_brackets("苹果【水果】")
        assert name == "苹果"
        assert bracket == "水果"


class TestRunsAndPhrases:
    def test_iter_cjk_runs_splits_on_latin(self):
        assert list(iter_cjk_runs("刘德华Andy歌手")) == ["刘德华", "歌手"]

    def test_iter_cjk_runs_empty(self):
        assert list(iter_cjk_runs("abc 123")) == []

    def test_split_phrases_on_enumeration_comma(self):
        assert split_phrases("演员、歌手、词作人") == ["演员", "歌手", "词作人"]

    def test_split_phrases_mixed_delimiters(self):
        assert split_phrases("演员，歌手；作家") == ["演员", "歌手", "作家"]

    def test_split_phrases_no_delimiter(self):
        assert split_phrases("演员") == ["演员"]

    def test_split_phrases_empty(self):
        assert split_phrases("") == []

    def test_char_ngrams(self):
        assert list(char_ngrams("刘德华", 2)) == ["刘德", "德华"]

    def test_char_ngrams_longer_than_text(self):
        assert list(char_ngrams("刘", 2)) == []

    def test_char_ngrams_invalid_n(self):
        with pytest.raises(ValueError):
            list(char_ngrams("刘德华", 0))

    @given(st.text(alphabet="中美日korea123", min_size=1, max_size=15))
    def test_cjk_runs_are_pure_cjk(self, text):
        for run in iter_cjk_runs(text):
            assert is_cjk_word(run)


# -- the per-character kernel the regex kernel replaced, kept verbatim --------

_FULLWIDTH_OFFSET = 0xFEE0
_IDEOGRAPHIC_SPACE = "　"


def reference_is_cjk_char(char: str) -> bool:
    if len(char) != 1:
        return False
    code = ord(char)
    return any(lo <= code <= hi for lo, hi in _CJK_RANGES)


def reference_is_cjk_word(word: str) -> bool:
    return bool(word) and all(reference_is_cjk_char(ch) for ch in word)


def reference_normalize_text(text: str) -> str:
    chars = []
    for ch in text:
        if ch == _IDEOGRAPHIC_SPACE:
            chars.append(" ")
            continue
        code = ord(ch)
        if 0xFF01 <= code <= 0xFF5E:
            chars.append(chr(code - _FULLWIDTH_OFFSET))
        else:
            chars.append(ch)
    return "".join(chars).strip()


def reference_iter_cjk_runs(text: str):
    run: list[str] = []
    for ch in text:
        if reference_is_cjk_char(ch):
            run.append(ch)
        elif run:
            yield "".join(run)
            run = []
    if run:
        yield "".join(run)


def reference_iter_runs(text: str) -> list[tuple[str, bool]]:
    """The segmenter's former private run splitter."""
    runs: list[tuple[str, bool]] = []
    current: list[str] = []
    current_kind: bool | None = None
    for ch in text:
        kind = reference_is_cjk_char(ch)
        if current_kind is None or kind == current_kind:
            current.append(ch)
            current_kind = kind
        else:
            runs.append(("".join(current), current_kind))
            current = [ch]
            current_kind = kind
    if current:
        runs.append(("".join(current), bool(current_kind)))
    return runs


def reference_segment(segmenter, text, keep_punctuation):
    """``Segmenter.segment`` over the reference kernel; [] where it raises."""
    tokens: list[str] = []
    for run, is_cjk in reference_iter_runs(reference_normalize_text(text)):
        if is_cjk:
            tokens.extend(segmenter._viterbi(run))
        else:
            tokens.extend(_split_non_cjk(run, keep_punctuation))
    return tokens


# Both sides of every CJK range edge (U+33FF/3400, U+4DBF/4DC0,
# U+4DFF/4E00, U+9FFF/A000, U+F8FF/F900, U+FAFF/FB00, U+1FFFF/20000,
# U+2A6DF/2A6E0) plus a few ideographs inside the ranges.
CJK_EDGES = "".join(
    chr(code) for lo, hi in _CJK_RANGES for code in (lo - 1, lo, hi, hi + 1)
) + "中国刘德华歌手"
# Both sides of each full-width edge and the ideographic space, then a
# few full-width letters, digits and brackets in between.
FULL_WIDTH_EDGES = "\uff00\uff01\uff5e\uff5f\u3000"
FULL_WIDTH = FULL_WIDTH_EDGES + "ＡＺａｚ０９（），"
ALPHABET = (
    CJK_EDGES + FULL_WIDTH + string.ascii_letters + string.digits
    + " \t\n\r\x0b\x0c\xa0\u2003" + "、，。；：！？（）【】《》“”…—"
)
texts = st.text(alphabet=ALPHABET, max_size=40)
cjk_heavy = st.text(alphabet=CJK_EDGES + FULL_WIDTH_EDGES, max_size=12)


class TestKernelMatchesPerCharacterReference:
    def test_range_edges(self):
        for lo, hi in _CJK_RANGES:
            assert is_cjk_char(chr(lo)) and is_cjk_char(chr(hi))
            assert not is_cjk_char(chr(lo - 1))
            assert not is_cjk_char(chr(hi + 1))
        assert normalize_text(FULL_WIDTH_EDGES) == "\uff00!~\uff5f"

    @given(texts)
    def test_normalize_text(self, text):
        assert normalize_text(text) == reference_normalize_text(text)

    @given(texts)
    def test_runs(self, text):
        parts = split_cjk_runs(text)
        assert "".join(parts) == text
        runs = [(run, bool(i % 2)) for i, run in enumerate(parts) if run]
        assert runs == reference_iter_runs(text)
        assert list(iter_cjk_runs(text)) == list(reference_iter_cjk_runs(text))

    @given(st.one_of(texts, cjk_heavy))
    def test_is_cjk_word(self, text):
        assert is_cjk_word(text) == reference_is_cjk_word(text)

    @given(st.one_of(st.sampled_from(ALPHABET), st.characters(), texts))
    def test_is_cjk_char(self, text):
        assert is_cjk_char(text) == reference_is_cjk_char(text)

    @given(texts, st.booleans())
    def test_segment(self, text, keep_punctuation):
        segmenter = Segmenter(Lexicon.base())
        expected = reference_segment(segmenter, text, keep_punctuation)
        if not expected:
            with pytest.raises(SegmentationError):
                segmenter.segment(text, keep_punctuation)
        else:
            assert segmenter.segment(text, keep_punctuation) == expected
