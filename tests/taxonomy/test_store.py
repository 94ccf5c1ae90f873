"""Tests for the taxonomy store and persistence."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TaxonomyError
from repro.taxonomy.codec import TAXONOMY_FORMAT_VERSION
from repro.taxonomy.delta import TaxonomyDelta
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

from malformed import MALFORMED, taxonomy_line


@pytest.fixture
def taxonomy():
    t = Taxonomy()
    t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    t.add_entity(Entity("苹果#0", "苹果"))
    t.add_entity(Entity("苹果#1", "苹果"))
    t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
    t.add_relation(IsARelation("苹果#0", "水果", "tag"))
    t.add_relation(IsARelation("苹果#1", "公司", "tag"))
    t.add_relation(
        IsARelation("男演员", "演员", "tag", hyponym_kind="concept")
    )
    t.add_relation(
        IsARelation("演员", "艺人", "tag", hyponym_kind="concept")
    )
    return t


class TestMentions:
    def test_men2ent_by_name(self, taxonomy):
        assert taxonomy.men2ent("刘德华") == ["刘德华#0"]

    def test_men2ent_by_alias(self, taxonomy):
        assert taxonomy.men2ent("华仔") == ["刘德华#0"]

    def test_men2ent_ambiguous(self, taxonomy):
        assert taxonomy.men2ent("苹果") == ["苹果#0", "苹果#1"]

    def test_men2ent_unknown(self, taxonomy):
        assert taxonomy.men2ent("不存在") == []


class TestRelations:
    def test_get_concepts(self, taxonomy):
        assert taxonomy.get_concepts("刘德华#0") == ["歌手", "演员"]

    def test_get_concepts_transitive(self, taxonomy):
        assert "艺人" in taxonomy.get_concepts_transitive("刘德华#0")

    def test_get_entities(self, taxonomy):
        assert taxonomy.get_entities("演员") == ["刘德华#0"]

    def test_get_subconcepts(self, taxonomy):
        assert taxonomy.get_subconcepts("演员") == ["男演员"]

    def test_concept_parents(self, taxonomy):
        assert taxonomy.concept_parents("演员") == ["艺人"]

    def test_relation_requires_known_entity(self, taxonomy):
        with pytest.raises(TaxonomyError):
            taxonomy.add_relation(IsARelation("鬼#0", "妖怪", "tag"))

    def test_concept_relation_needs_no_entity(self, taxonomy):
        taxonomy.add_relation(
            IsARelation("女演员", "演员", "tag", hyponym_kind="concept")
        )
        assert "女演员" in taxonomy.get_subconcepts("演员")

    def test_duplicate_keeps_first_source_best_score(self, taxonomy):
        taxonomy.add_relation(IsARelation("刘德华#0", "演员", "tag", score=2.0))
        rel = next(
            r for r in taxonomy.relations()
            if r.key == ("刘德华#0", "演员")
        )
        assert rel.source == "bracket"
        assert rel.score == 2.0

    def test_len_and_contains(self, taxonomy):
        assert len(taxonomy) == 6
        assert ("刘德华#0", "演员") in taxonomy
        assert ("刘德华#0", "公司") not in taxonomy

    def test_relations_by_source(self, taxonomy):
        assert len(taxonomy.relations_by_source("bracket")) == 1

    def test_conflicting_entity_rejected(self, taxonomy):
        with pytest.raises(TaxonomyError):
            taxonomy.add_entity(Entity("刘德华#0", "刘德华", aliases=()))

    def test_idempotent_entity_add(self, taxonomy):
        taxonomy.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
        assert taxonomy.men2ent("刘德华") == ["刘德华#0"]


class TestStats:
    def test_counts(self, taxonomy):
        stats = taxonomy.stats()
        assert stats.n_entities == 3
        assert stats.n_entity_concept == 4
        assert stats.n_subconcept_concept == 2
        assert stats.n_isa_total == 6
        # 演员 歌手 水果 公司 男演员 艺人
        assert stats.n_concepts == 6

    def test_as_dict(self, taxonomy):
        d = taxonomy.stats().as_dict()
        assert d["isa_relations_total"] == 6


class TestFinalize:
    def test_cycle_removed_from_relations(self):
        t = Taxonomy()
        t.add_relation(IsARelation("a", "b", "tag", "concept", score=0.9))
        t.add_relation(IsARelation("b", "a", "tag", "concept", score=0.1))
        removed = t.finalize()
        assert removed == [("b", "a")]
        assert ("b", "a") not in t
        assert ("a", "b") in t


_ENTITY = '{"kind": "entity", "page_id": "a#0", "name": "甲"}'
_RELATION = (
    '{"kind": "relation", "hyponym": "a#0", "hypernym": "乙",'
    ' "source": "tag", "hyponym_kind": "entity", "score": %s}'
)


class TestPersistence:
    def test_round_trip(self, taxonomy, tmp_path):
        path = tmp_path / "taxonomy.jsonl"
        taxonomy.save(path)
        loaded = Taxonomy.load(path)
        assert loaded.stats() == taxonomy.stats()
        assert loaded.men2ent("华仔") == ["刘德华#0"]
        assert loaded.get_concepts("刘德华#0") == ["歌手", "演员"]
        assert loaded.name == taxonomy.name

    def test_load_missing(self, tmp_path):
        with pytest.raises(TaxonomyError):
            Taxonomy.load(tmp_path / "nope.jsonl")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(TaxonomyError):
            Taxonomy.load(path)

    def test_load_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n', encoding="utf-8")
        with pytest.raises(TaxonomyError):
            Taxonomy.load(path)

    @pytest.mark.parametrize("lines", [
        *(
            pytest.param((_ENTITY, taxonomy_line(*case.values)), id=case.id)
            for case in MALFORMED
        ),
        pytest.param(
            (_ENTITY, _RELATION % "1.0", _RELATION % '"high"'),
            id="mixed-type-scores",
        ),
        pytest.param((_ENTITY, '["kind", "entity"]'), id="array-line"),
    ])
    def test_malformed_record_names_its_line(self, tmp_path, lines):
        """A bad last line ends in a TaxonomyError naming ``file:line``
        exactly once, never a builtin exception."""
        path = tmp_path / "bad.jsonl"
        header = '{"kind": "header", "name": "t", "format_version": 1}'
        path.write_text(
            "".join(f"{line}\n" for line in (header, *lines)),
            encoding="utf-8",
        )
        with pytest.raises(TaxonomyError) as excinfo:
            Taxonomy.load(path)
        assert str(excinfo.value).startswith(f"{path}:{len(lines) + 1}: ")
        assert str(excinfo.value).count(f"{path}:") == 1


def reference_lines(taxonomy):
    """The canonical lines as written before the record kernel: one
    ``json.dumps(record, ensure_ascii=False)`` per record."""
    header = {
        "kind": "header",
        "name": taxonomy.name,
        "format_version": TAXONOMY_FORMAT_VERSION,
    }
    yield json.dumps(header, ensure_ascii=False) + "\n"
    for page_id in sorted(taxonomy._entities):
        entity = taxonomy._entities[page_id]
        record = {
            "kind": "entity",
            "page_id": entity.page_id,
            "name": entity.name,
            "aliases": list(entity.aliases),
        }
        yield json.dumps(record, ensure_ascii=False) + "\n"
    for key in sorted(taxonomy._relations):
        relation = taxonomy._relations[key]
        record = {
            "kind": "relation",
            "hyponym": relation.hyponym,
            "hypernym": relation.hypernym,
            "source": relation.source,
            "hyponym_kind": relation.hyponym_kind,
            "score": relation.score,
        }
        yield json.dumps(record, ensure_ascii=False) + "\n"


# every character json escapes (U+0000-U+001F, quote, backslash), the
# space after that range, the ones other encoders treat specially ("/",
# U+007F, U+0080, U+0085, U+2028/2029), CJK, non-BMP and lone surrogates
# (which json.loads makes from "\ud800" escapes)
_SPECIAL = (
    ['"', "\\", "/", "\x7f", "\x80", "\x85", "\u2028", "\u2029", " ",
     "歌", "手", "\u3000", "\U0001f600", "\U00020000", "\ud800", "\udfff"]
    + [chr(c) for c in range(0x20)]
)
_TEXT = st.text(
    st.one_of(st.sampled_from(_SPECIAL), st.characters()),
    min_size=1, max_size=6,
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SOURCES = st.sampled_from(["bracket", "abstract", "infobox", "tag"])


@st.composite
def _loadable_taxonomies(draw):
    """Taxonomies holding any value ``Taxonomy.load`` can put there:
    non-empty strings, and finite float scores."""
    taxonomy = Taxonomy(name=draw(_TEXT))
    page_ids = draw(st.lists(_TEXT, unique=True, max_size=5))
    for page_id in page_ids:
        taxonomy.add_entity(Entity(
            page_id, draw(_TEXT),
            aliases=tuple(draw(st.lists(_TEXT, max_size=4))),
        ))
    hyponyms = [(p, "entity") for p in page_ids]
    # each (hyponym, hypernym) key once
    concepts = st.lists(_TEXT, unique=True, max_size=3)
    hyponyms += [(c, "concept") for c in draw(concepts) if c not in page_ids]
    for hyponym, kind in hyponyms:
        hypernyms = st.lists(_TEXT.filter(lambda h: h != hyponym),
                             unique=True, max_size=3)
        for hypernym in draw(hypernyms):
            taxonomy.add_relation(IsARelation(
                hyponym, hypernym, draw(_SOURCES), kind,
                score=draw(_FINITE),
            ))
    return taxonomy


class TestCanonicalLineKernel:
    @given(_loadable_taxonomies())
    @settings(deadline=None)
    def test_lines_equal_the_per_record_dumps_loop(self, taxonomy):
        assert list(taxonomy._canonical_lines()) == list(
            reference_lines(taxonomy)
        )

    #: lines that loaded before the codec typed the records; the first
    #: two made ``save`` and ``content_hash`` raise a bare TypeError
    _UNTYPED = (
        '{"kind": "entity", "page_id": 5, "name": "a", "aliases": []}',
        '{"kind": "relation", "hyponym": 5, "hypernym": "乙",'
        ' "source": "tag", "hyponym_kind": "entity", "score": 1.0}',
        '{"kind": "header", "name": 7, "format_version": 1}',
        '{"kind": "entity", "page_id": "c", "name": true, "aliases": []}',
        '{"kind": "entity", "page_id": "c", "name": "c",'
        ' "aliases": [7, null, true, 1.5]}',
        *(
            '{"kind": "relation", "hyponym": "b", "hypernym": "丁",'
            f' "source": "tag", "hyponym_kind": "entity", "score": {score}}}'
            for score in ("NaN", "null", "true", "1", "-Infinity", '"x"')
        ),
    )

    def test_non_string_values_are_refused(self, tmp_path):
        """Non-string ids, names and aliases, and scores that are not
        finite floats, are refused where they stand; the typed values
        around them round-trip byte for byte."""
        text = "".join(line + "\n" for line in (
            '{"kind": "header", "name": "a\\"b\\\\c", "format_version": 1}',
            '{"kind": "entity", "page_id": "b", "name": "a\\"b\\\\c",'
            ' "aliases": ["\\u0000\u2028歌"]}',
            '{"kind": "relation", "hyponym": "b", "hypernym": "丙",'
            ' "source": "tag", "hyponym_kind": "entity", "score": -0.0}',
        ))
        source = tmp_path / "typed.jsonl"
        source.write_text(text, encoding="utf-8")
        taxonomy = Taxonomy.load(source)
        assert "".join(taxonomy._canonical_lines()) == text
        assert list(taxonomy._canonical_lines()) == list(
            reference_lines(taxonomy)
        )
        taxonomy.save(tmp_path / "again.jsonl")
        saved = (tmp_path / "again.jsonl").read_bytes()
        assert saved == text.encode("utf-8")
        assert taxonomy.content_hash() == hashlib.sha256(saved).hexdigest()
        for line in self._UNTYPED:
            source.write_text(text + line + "\n", encoding="utf-8")
            with pytest.raises(TaxonomyError) as excinfo:
                Taxonomy.load(source)
            assert str(excinfo.value).startswith(f"{source}:4: "), line


def _saved_hash(taxonomy):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "t.jsonl"
        taxonomy.save(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


_PAGES = st.sampled_from(["甲#0", "乙#0", "丙#0"])
_CONCEPTS = st.sampled_from(["人物", "歌手", "演员"])
_SCORES = st.sampled_from([0.25, 0.5, 0.75])
# 1, True and 1.0 compare equal but serialise differently
_NAMES = st.sampled_from(["CN-Probase", "夜间", 1, True, 1.0, None])
# one mutation of a taxonomy; "rescore" and "delta" pick existing
# relations by index
_STEPS = st.one_of(
    st.tuples(st.just("entity"), _PAGES,
              st.lists(_CONCEPTS, max_size=2).map(tuple)),
    st.tuples(st.just("relation"), _PAGES, _CONCEPTS, _SOURCES, _SCORES),
    st.tuples(st.just("rescore"), st.integers(0, 9)),
    # two concepts, so two concept steps make a cycle half the time
    st.tuples(st.just("concept"), st.permutations(["人物", "歌手"]),
              _SOURCES, _SCORES),
    st.just(("finalize",)),
    st.tuples(st.just("delta"), _CONCEPTS,
              st.lists(st.integers(0, 9), max_size=2)),
    st.just(("copy",)),
    st.tuples(st.just("name"), _NAMES),
)


def _apply(taxonomy, step):
    """Apply *step*; returns the taxonomy to go on with."""
    kind, *args = step
    if kind == "entity":
        page_id, aliases = args
        taxonomy.add_entity(Entity(page_id, page_id[0], aliases))
    elif kind == "relation":
        page_id, concept, source, score = args
        taxonomy.add_relation(IsARelation(page_id, concept, source,
                                          score=score))
    elif kind == "rescore":
        relations = taxonomy.relations()
        if relations:
            old = relations[args[0] % len(relations)]
            # a higher-score duplicate keeps the first source
            taxonomy.add_relation(IsARelation(
                old.hyponym, old.hypernym, "abstract", old.hyponym_kind,
                score=old.score + 1.0,
            ))
    elif kind == "concept":
        (child, parent), source, score = args
        taxonomy.add_relation(IsARelation(child, parent, source, "concept",
                                          score=score))
    elif kind == "finalize":
        taxonomy.finalize()
    elif kind == "delta":
        concept, picks = args
        target = taxonomy.copy()
        target.add_entity(Entity("丁#0", "丁"))
        target.add_relation(IsARelation("丁#0", concept, "tag"))
        relations = taxonomy.relations()
        for pick in picks if relations else ():
            old = relations[pick % len(relations)]
            target.add_relation(IsARelation(
                old.hyponym, old.hypernym, old.source, old.hyponym_kind,
                score=old.score + 0.5,
            ))
        taxonomy.apply_delta(TaxonomyDelta.compute(taxonomy, target))
    elif kind == "copy":
        original, taxonomy = taxonomy, taxonomy.copy()
        assert original.content_hash() == _saved_hash(original)
    else:
        taxonomy.name = args[0]
    return taxonomy


class TestContentHash:
    @given(st.lists(_STEPS, max_size=14))
    @settings(max_examples=60, deadline=None)
    # one sequence per kind of mutation, so none rests on the draw
    @example([("entity", "甲#0", ())])
    @example([("entity", "甲#0", ()),
              ("relation", "甲#0", "人物", "tag", 0.25), ("rescore", 0)])
    @example([("concept", ("人物", "歌手"), "tag", 0.25),
              ("concept", ("歌手", "人物"), "tag", 0.5), ("finalize",)])
    @example([("delta", "人物", [])])
    @example([("entity", "甲#0", ()), ("copy",), ("entity", "乙#0", ())])
    @example([("name", 1), ("name", True), ("name", 1.0)])
    def test_hash_equals_the_saved_bytes_after_every_step(self, steps):
        """``content_hash()`` is the sha256 of what ``save`` writes,
        whatever sequence of edits led to the taxonomy."""
        taxonomy = Taxonomy()
        assert taxonomy.content_hash() == _saved_hash(taxonomy)
        for step in steps:
            try:
                taxonomy = _apply(taxonomy, step)
            except TaxonomyError:
                pass  # refused before any record changed
            assert taxonomy.content_hash() == _saved_hash(taxonomy)
