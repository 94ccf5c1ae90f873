"""Tests for the DAG-Viterbi segmenter."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SegmentationError
from repro.nlp.lexicon import Lexicon
from repro.nlp.segmentation import Segmenter


@pytest.fixture(scope="module")
def segmenter():
    lexicon = Lexicon.base()
    lexicon.add("蚂蚁", 500, "n")
    lexicon.add("金服", 300, "n")
    lexicon.add("刘德华", 400, "nr")
    return Segmenter(lexicon)


class TestSegment:
    def test_figure3_compound(self, segmenter):
        # The paper's Figure 3 example: the bracket compound of 陈龙.
        assert segmenter.segment("蚂蚁金服首席战略官") == [
            "蚂蚁", "金服", "首席", "战略官",
        ]

    def test_simple_compound(self, segmenter):
        assert segmenter.segment("著名歌手") == ["著名", "歌手"]

    def test_prefers_long_known_words(self, segmenter):
        assert segmenter.segment("刘德华") == ["刘德华"]

    def test_unknown_chars_fall_back_to_singles(self, segmenter):
        tokens = segmenter.segment("囍囍")
        assert tokens == ["囍", "囍"]

    def test_latin_run_kept_whole(self, segmenter):
        assert "iPhone" in segmenter.segment("iPhone手机")

    def test_digits_kept_whole(self, segmenter):
        assert "1961" in segmenter.segment("1961年出生")

    def test_whitespace_dropped(self, segmenter):
        tokens = segmenter.segment("著名 歌手")
        assert tokens == ["著名", "歌手"]

    def test_punctuation_dropped_by_default(self, segmenter):
        tokens = segmenter.segment("演员、歌手")
        assert "、" not in tokens

    def test_punctuation_kept_on_request(self, segmenter):
        tokens = segmenter.segment("演员、歌手", keep_punctuation=True)
        assert "、" in tokens

    def test_empty_raises(self, segmenter):
        with pytest.raises(SegmentationError):
            segmenter.segment("")

    def test_whitespace_only_raises(self, segmenter):
        with pytest.raises(SegmentationError):
            segmenter.segment("   ")

    def test_fullwidth_normalised_before_segmenting(self, segmenter):
        assert "ABC" in segmenter.segment("ＡＢＣ公司")

    def test_mixed_sentence(self, segmenter):
        tokens = segmenter.segment("刘德华是中国香港著名歌手")
        assert "刘德华" in tokens
        assert "歌手" in tokens

    def test_default_lexicon_used_when_none(self):
        seg = Segmenter()
        assert seg.segment("著名歌手") == ["著名", "歌手"]


class TestSegmentCorpus:
    def test_skips_empty_texts(self, segmenter):
        corpus = segmenter.segment_corpus(["著名歌手", "", "演员"])
        assert len(corpus) == 2

    def test_returns_token_lists(self, segmenter):
        corpus = segmenter.segment_corpus(["著名歌手"])
        assert corpus == [["著名", "歌手"]]


@given(st.text(alphabet="中美日本歌手演员著名公司大学", min_size=1, max_size=12))
def test_segmentation_is_lossless_for_cjk(text):
    seg = Segmenter()
    assert "".join(seg.segment(text)) == text


@given(st.text(alphabet="中abc1 ，。", min_size=1, max_size=12))
def test_segmentation_never_crashes_on_mixed_text(text):
    seg = Segmenter()
    try:
        tokens = seg.segment(text)
    except SegmentationError:
        return
    assert all(tokens)


class TestViterbiCache:
    def test_repeated_segment_hits_cache(self):
        segmenter = Segmenter()
        first = segmenter.segment("中国人民大学")
        info = segmenter.cache_info()
        assert info.misses >= 1
        again = segmenter.segment("中国人民大学")
        assert again == first
        assert segmenter.cache_info().hits > info.hits

    def test_cached_results_are_fresh_lists(self):
        segmenter = Segmenter()
        first = segmenter.segment("中国人民大学")
        first.append("垃圾")
        assert segmenter.segment("中国人民大学") != first

    def test_lexicon_mutation_invalidates(self):
        lexicon = Lexicon.base()
        segmenter = Segmenter(lexicon)
        before = segmenter.segment("蚂蚁金服")
        lexicon.add("蚂蚁金服", 10_000, "n")
        after = segmenter.segment("蚂蚁金服")
        assert after == ["蚂蚁金服"]
        assert before != after

    def test_cache_can_be_disabled(self):
        segmenter = Segmenter(cache_size=0)
        segmenter.segment("中国人民大学")
        segmenter.segment("中国人民大学")
        assert segmenter.cache_info().currsize == 0

    def test_cache_matches_uncached_segmentation(self):
        lexicon = Lexicon.base()
        cached = Segmenter(lexicon)
        uncached = Segmenter(lexicon, cache_size=0)
        texts = ["中国人民大学", "蚂蚁金服首席战略官", "刘德华是演员",
                 "中国人民大学", "蚂蚁金服首席战略官"]
        for text in texts:
            assert cached.segment(text) == uncached.segment(text)


# -- the table-driven kernel against the per-word path ------------------------
#
# The three functions below are the pre-table segmenter, kept verbatim
# apart from reading the lexicon from an argument: ``Lexicon.log_prob``,
# ``Lexicon.words_starting_at`` (with ``is_prefix`` inlined) and
# ``Segmenter._viterbi``.


def reference_log_prob(lexicon, word, default_freq=0.5):
    total = max(lexicon._total, 1)
    freq = lexicon.freq(word)
    return math.log(max(freq, default_freq)) - math.log(total)


def reference_words_starting_at(lexicon, text, start):
    found = []
    limit = min(len(text), start + lexicon._max_len)
    for end in range(start + 1, limit + 1):
        fragment = text[start:end]
        if fragment in lexicon._entries:
            found.append(fragment)
        elif fragment not in lexicon._prefixes:
            break
    return found


def reference_viterbi(lexicon, run):
    n = len(run)
    # best[i] = (score of best path covering run[:i], start of last word)
    best = [(0.0, 0)] + [(float("-inf"), 0)] * n
    for start in range(n):
        base_score = best[start][0]
        if base_score == float("-inf"):
            continue
        candidates = reference_words_starting_at(lexicon, run, start)
        # Single-character fallback keeps the lattice connected even
        # for fully out-of-vocabulary spans.
        if not candidates or len(candidates[0]) != 1:
            candidates = [run[start]] + candidates
        for word in candidates:
            end = start + len(word)
            score = base_score + reference_log_prob(
                lexicon, word, default_freq=0.5
            )
            if score > best[end][0]:
                best[end] = (score, start)
    # Backtrack.
    words = []
    pos = n
    while pos > 0:
        start = best[pos][1]
        words.append(run[start:pos])
        pos = start
    words.reverse()
    return tuple(words)


# 甲乙丙丁 make words; 戊 is in no word, so runs hold unknown characters.
_FREQS = st.one_of(
    st.sampled_from([1, 2]),
    st.integers(10**6, 10**12),
    st.floats(min_value=1e-3, max_value=0.49),
)
_LEXICONS = st.lists(
    st.tuples(st.text(alphabet="甲乙丙丁", min_size=1, max_size=4), _FREQS),
    max_size=12,
)
_RUNS = st.text(alphabet="甲乙丙丁戊", min_size=1, max_size=14)


def lexicon_of(entries):
    lexicon = Lexicon()
    for word, freq in entries:
        lexicon.add(word, freq)
    return lexicon


class TestTableKernel:
    @given(_LEXICONS, st.lists(_RUNS, min_size=1, max_size=4))
    # 甲乙|甲 and 甲|乙甲 score a + b and b + a, the same float: the
    # first path to reach the end (乙甲 from position 1) must keep it.
    @example([("甲", 1), ("乙甲", 1), ("甲乙", 1)], ["甲乙甲"])
    # the same tie, decided against a later multi-character word (丙丁)
    @example([("甲", 1), ("乙丙丁", 1), ("甲乙", 1), ("丙丁", 1)], ["甲乙丙丁"])
    @example([], ["戊甲"])
    @example([("甲乙丙", 0.25), ("甲", 1)], ["甲乙丙丁甲乙丙"])
    def test_kernel_equals_the_per_word_path(self, entries, runs):
        lexicon = lexicon_of(entries)
        segmenter = Segmenter(lexicon, cache_size=0)
        for run in runs:
            assert segmenter._viterbi(run) == reference_viterbi(lexicon, run)

    def test_equal_scores_keep_the_earlier_path(self):
        lexicon = lexicon_of([("甲", 1), ("乙甲", 1), ("甲乙", 1)])
        assert Segmenter(lexicon).segment("甲乙甲") == ["甲", "乙甲"]

    def test_raising_a_frequency_re_decides_a_segmentation(self):
        # No surface is added, so only the version tells the table that
        # the scores moved.
        lexicon = lexicon_of([("蚂蚁", 500), ("金服", 300), ("蚂蚁金服", 1)])
        segmenter = Segmenter(lexicon)
        assert segmenter.segment("蚂蚁金服") == ["蚂蚁", "金服"]
        lexicon.add("蚂蚁金服", 10**6)
        assert segmenter.segment("蚂蚁金服") == ["蚂蚁金服"]

    def test_table_holds_every_entry_log_prob(self):
        lexicon = lexicon_of([("甲", 3), ("甲乙", 0.25), ("丙丁", 10**9)])
        table, unknown = lexicon.log_prob_table()
        assert table == {
            word: reference_log_prob(lexicon, word) for word in table
        }
        assert list(table) == ["甲", "甲乙", "丙丁"]
        assert unknown == reference_log_prob(lexicon, "戊")
