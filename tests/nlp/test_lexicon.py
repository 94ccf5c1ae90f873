"""Tests for the frequency lexicon."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LexiconError
from repro.nlp.lexicon import Lexicon

_CJK = st.text(alphabet="中美日歌手演员学家金服蚂蚁", min_size=1, max_size=6)


def words_starting_at(lexicon, text, start):
    """The words the segmenter's scan finds at *start* in *text*: it
    walks the lexicon's log-prob table and proper-prefix set, stopping
    at the first fragment that is in neither."""
    table, _ = lexicon.log_prob_table()
    found = []
    for end in range(start + 1, len(text) + 1):
        fragment = text[start:end]
        if fragment in table:
            found.append(fragment)
        elif fragment not in lexicon.prefixes:
            break
    return found


@pytest.fixture
def lex():
    lexicon = Lexicon()
    lexicon.add("歌手", 100, "n")
    lexicon.add("演员", 80, "n")
    lexicon.add("著名", 50, "a")
    return lexicon


class TestAdd:
    def test_contains(self, lex):
        assert "歌手" in lex
        assert "作家" not in lex

    def test_freq(self, lex):
        assert lex.freq("歌手") == 100
        assert lex.freq("missing") == 0

    def test_duplicate_accumulates(self, lex):
        lex.add("歌手", 20)
        assert lex.freq("歌手") == 120

    def test_pos_kept_on_duplicate(self, lex):
        lex.add("著名", 1, "n")
        assert lex.pos_of("著名") == "a"

    def test_default_pos_upgraded(self):
        lexicon = Lexicon()
        lexicon.add("北京", 1, "n")
        lexicon.add("北京", 1, "ns")
        assert lexicon.pos_of("北京") == "ns"

    def test_empty_word_rejected(self, lex):
        with pytest.raises(LexiconError):
            lex.add("")

    def test_non_positive_freq_rejected(self, lex):
        with pytest.raises(LexiconError):
            lex.add("词", 0)

    def test_total_tracks_weights(self, lex):
        assert lex.total == 230

    def test_len(self, lex):
        assert len(lex) == 3

    def test_add_all(self, lex):
        lex.add_all(["作家", "诗人"], freq=5)
        assert lex.freq("作家") == 5
        assert lex.freq("诗人") == 5

    def test_merge(self, lex):
        other = Lexicon()
        other.add("歌手", 10, "n")
        other.add("作家", 7, "n")
        lex.merge(other)
        assert lex.freq("歌手") == 110
        assert lex.freq("作家") == 7


class TestPrefixLookup:
    def test_words_starting_at(self):
        lexicon = Lexicon()
        lexicon.add("战略")
        lexicon.add("战略官")
        words = words_starting_at(lexicon, "战略官员", 0)
        assert words == ["战略", "战略官"]

    def test_words_starting_at_no_match(self, lex):
        assert words_starting_at(lex, "作家", 0) == []

    def test_words_starting_mid_string(self, lex):
        assert words_starting_at(lex, "著名歌手", 2) == ["歌手"]

    def test_is_prefix(self, lex):
        assert "歌" in lex.prefixes
        assert "歌手" not in lex.prefixes  # full word, not a proper prefix

    def test_max_word_len(self):
        lexicon = Lexicon()
        lexicon.add("战略官")
        assert lexicon.max_word_len == 3


class TestLogProb:
    def test_known_word_beats_unknown(self, lex):
        assert lex.log_prob("歌手") > lex.log_prob("冷僻")

    def test_higher_freq_higher_prob(self, lex):
        assert lex.log_prob("歌手") > lex.log_prob("演员")

    def test_unknown_is_finite(self, lex):
        assert lex.log_prob("冷") > float("-inf")


class TestBase:
    def test_base_lexicon_nonempty(self):
        base = Lexicon.base()
        assert len(base) > 400

    def test_base_contains_core_concepts(self):
        base = Lexicon.base()
        for word in ("歌手", "演员", "公司", "大学", "水果", "战略官"):
            assert word in base, word

    def test_base_thematic_pos(self):
        base = Lexicon.base()
        assert base.pos_of("音乐") == "t"
        assert base.pos_of("政治") == "t"

    def test_base_returns_fresh_copy(self):
        a = Lexicon.base()
        b = Lexicon.base()
        a.add("新词", 1)
        assert "新词" not in b


@given(st.lists(st.tuples(_CJK, st.integers(1, 50)), min_size=1, max_size=30))
def test_total_equals_sum_of_weights(entries):
    lexicon = Lexicon()
    for word, freq in entries:
        lexicon.add(word, freq)
    assert lexicon.total == sum(freq for _, freq in entries)


@given(st.lists(_CJK, min_size=1, max_size=20))
def test_every_added_word_is_found_at_its_position(words):
    lexicon = Lexicon()
    for word in words:
        lexicon.add(word)
    text = "".join(words)
    pos = 0
    for word in words:
        assert word in words_starting_at(lexicon, text, pos)
        pos += len(word)
