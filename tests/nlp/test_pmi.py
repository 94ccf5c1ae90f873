"""Tests for PMI statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.pmi import PMIStatistics

_WORDS = st.sampled_from(["蚂蚁", "金服", "首席", "战略官", "歌手", "演员"])


@pytest.fixture
def stats():
    s = PMIStatistics()
    # 蚂蚁金服 is a strong collocation; 金服+首席 never co-occur.
    for _ in range(50):
        s.add_sequence(["蚂蚁", "金服"])
    for _ in range(30):
        s.add_sequence(["首席", "战略官"])
    for _ in range(20):
        s.add_sequence(["著名", "歌手"])
    s.add_sequence(["蚂蚁", "歌手"])
    return s


class TestCounts:
    def test_unigram_count(self, stats):
        assert stats.unigram_count("蚂蚁") == 51

    def test_bigram_count(self, stats):
        assert stats.bigram_count("蚂蚁", "金服") == 50

    def test_bigram_is_directional(self, stats):
        assert stats.bigram_count("金服", "蚂蚁") == 0

    def test_totals(self, stats):
        assert stats.total_unigrams == 202
        assert stats.total_bigrams == 101

    def test_vocabulary_size(self, stats):
        # 蚂蚁 金服 首席 战略官 著名 歌手
        assert stats.vocabulary_size == 6

    def test_single_word_sequence_adds_no_bigram(self):
        s = PMIStatistics()
        s.add_sequence(["蚂蚁"])
        assert s.total_bigrams == 0
        assert s.total_unigrams == 1

    def test_add_corpus(self):
        s = PMIStatistics()
        s.add_corpus([["a", "b"], ["a", "b"]])
        assert s.bigram_count("a", "b") == 2


class TestPMI:
    def test_collocation_beats_non_collocation(self, stats):
        assert stats.pmi("蚂蚁", "金服") > stats.pmi("金服", "首席")

    def test_figure3_comparison_chain(self, stats):
        # PMI(金服, 首席) < PMI(首席, 战略官) drives the first merge of the
        # separation algorithm on 蚂蚁金服首席战略官.
        assert stats.pmi("金服", "首席") < stats.pmi("首席", "战略官")
        # PMI(蚂蚁, 金服) > PMI(金服, 首席战略官-boundary 首席) drives step 4.
        assert stats.pmi("蚂蚁", "金服") > stats.pmi("金服", "首席")

    def test_rare_pair_still_positive_association(self, stats):
        assert stats.pmi("蚂蚁", "歌手") < stats.pmi("蚂蚁", "金服")

    def test_unseen_pair_is_finite(self, stats):
        value = stats.pmi("歌手", "战略官")
        assert value < 0
        assert value != float("-inf")

    def test_unseen_words_are_finite(self, stats):
        assert stats.pmi("新词", "另词") != float("-inf")

    def test_empty_stats_return_zero(self):
        assert PMIStatistics().pmi("a", "b") == 0.0

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            PMIStatistics(smoothing=0)


class TestCohesion:
    def test_single_word_is_zero(self, stats):
        assert stats.cohesion(["蚂蚁"]) == 0.0

    def test_collocation_has_higher_cohesion(self, stats):
        assert stats.cohesion(["蚂蚁", "金服"]) > stats.cohesion(["金服", "首席"])


@given(st.lists(st.lists(_WORDS, min_size=1, max_size=5), min_size=1, max_size=20))
def test_totals_are_consistent(sequences):
    s = PMIStatistics()
    s.add_corpus(sequences)
    assert s.total_unigrams == sum(len(seq) for seq in sequences)
    assert s.total_bigrams == sum(len(seq) - 1 for seq in sequences)


@given(_WORDS, _WORDS)
def test_pmi_symmetric_inputs_do_not_crash(a, b):
    s = PMIStatistics()
    s.add_sequence(["蚂蚁", "金服", "首席", "战略官"])
    assert isinstance(s.pmi(a, b), float)


class TestIncrementalCounts:
    """clone / remove_sequence: the incremental build's PMI advance."""

    def test_remove_undoes_add_exactly(self):
        from repro.nlp.pmi import PMIStatistics

        base = [["中国", "歌手"], ["著名", "演员", "歌手"]]
        extra = ["中国", "著名", "歌手"]
        never = PMIStatistics()
        never.add_corpus(base)
        undone = PMIStatistics()
        undone.add_corpus(base)
        undone.add_sequence(extra)
        undone.remove_sequence(extra)
        assert undone.same_counts(never)
        assert undone.vocabulary_size == never.vocabulary_size  # no zeros
        assert undone.pmi("中国", "歌手") == never.pmi("中国", "歌手")

    def test_clone_is_independent(self):
        from repro.nlp.pmi import PMIStatistics

        original = PMIStatistics()
        original.add_sequence(["中国", "歌手"])
        copy = original.clone()
        assert copy.same_counts(original)
        copy.add_sequence(["著名", "演员"])
        assert not copy.same_counts(original)
        assert original.unigram_count("著名") == 0

    def test_subtract_add_matches_fresh_recount(self):
        from repro.nlp.pmi import PMIStatistics

        old_corpus = [["中国", "歌手"], ["旧", "文本"], ["著名", "演员"]]
        new_corpus = [["中国", "歌手"], ["新", "文本", "内容"], ["著名", "演员"]]
        fresh = PMIStatistics()
        fresh.add_corpus(new_corpus)
        advanced = PMIStatistics()
        advanced.add_corpus(old_corpus)
        advanced = advanced.clone()
        advanced.remove_sequence(old_corpus[1])
        advanced.add_sequence(new_corpus[1])
        assert advanced.same_counts(fresh)


def reference_add_corpus(stats, sequences):
    """``add_corpus`` as a loop of the per-sequence counting it
    replaced, kept verbatim."""
    for words in sequences:
        for word in words:
            stats._unigrams[word] += 1
        stats._total_unigrams += len(words)
        for left, right in zip(words, words[1:]):
            stats._bigrams[(left, right)] += 1
        stats._total_bigrams += max(len(words) - 1, 0)


def assert_same_state(stats, reference):
    assert list(stats._unigrams.items()) == list(reference._unigrams.items())
    assert list(stats._bigrams.items()) == list(reference._bigrams.items())
    assert stats.total_unigrams == reference.total_unigrams
    assert stats.total_bigrams == reference.total_bigrams


_CORPORA = st.lists(
    st.one_of(
        st.lists(_WORDS, max_size=6),
        st.lists(_WORDS, max_size=6).map(tuple),
    ),
    max_size=8,
)


@given(_CORPORA, _CORPORA, st.booleans())
def test_add_corpus_equals_the_per_sequence_loop(first, second, lazily):
    stats, reference = PMIStatistics(), PMIStatistics()
    for corpus in (first, second):
        stats.add_corpus(iter(corpus) if lazily else corpus)
        reference_add_corpus(reference, corpus)
    assert_same_state(stats, reference)


@pytest.mark.parametrize("words", [[], ["蚂蚁"], ["蚂蚁", "金服", "蚂蚁"]])
def test_add_sequence_equals_the_per_sequence_loop(words):
    stats, reference = PMIStatistics(), PMIStatistics()
    stats.add_sequence(["歌手", "蚂蚁"])
    reference_add_corpus(reference, [["歌手", "蚂蚁"]])
    stats.add_sequence(words)
    reference_add_corpus(reference, [words])
    assert_same_state(stats, reference)


def test_add_corpus_takes_a_generator_once():
    stats = PMIStatistics()
    stats.add_corpus(words for words in [["蚂蚁", "金服"], [], ["金服"]])
    assert stats.total_unigrams == 3
    assert stats.total_bigrams == 1
    assert stats.bigram_count("蚂蚁", "金服") == 1
