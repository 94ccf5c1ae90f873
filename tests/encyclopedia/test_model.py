"""Tests for the encyclopedia page/dump model and JSONL persistence."""

import pytest

from repro.encyclopedia.corpus import load_dump, save_dump
from repro.encyclopedia.model import (
    DumpDiff,
    EncyclopediaDump,
    EncyclopediaPage,
    Triple,
    diff_dumps,
)
from repro.errors import CorpusError


@pytest.fixture
def page():
    return EncyclopediaPage(
        page_id="刘德华#0",
        title="刘德华",
        bracket="中国香港男演员",
        abstract="刘德华，1961年出生于香港，著名演员、歌手。",
        infobox=(
            Triple("刘德华#0", "职业", "演员"),
            Triple("刘德华#0", "职业", "歌手"),
            Triple("刘德华#0", "体重", "63"),
        ),
        tags=("人物", "演员", "音乐"),
    )


class TestPage:
    def test_full_title_with_bracket(self, page):
        assert page.full_title == "刘德华（中国香港男演员）"

    def test_full_title_without_bracket(self):
        plain = EncyclopediaPage(page_id="a#0", title="a")
        assert plain.full_title == "a"

    def test_has_abstract(self, page):
        assert page.has_abstract
        assert not EncyclopediaPage(page_id="a#0", title="a").has_abstract

    def test_infobox_values(self, page):
        assert page.infobox_values("职业") == ["演员", "歌手"]
        assert page.infobox_values("missing") == []

    def test_empty_page_id_rejected(self):
        with pytest.raises(CorpusError):
            EncyclopediaPage(page_id="", title="a")

    def test_empty_title_rejected(self):
        with pytest.raises(CorpusError):
            EncyclopediaPage(page_id="a#0", title="")

    def test_round_trip_dict(self, page):
        assert EncyclopediaPage.from_dict(page.to_dict()) == page

    def test_from_dict_missing_key(self):
        with pytest.raises(CorpusError):
            EncyclopediaPage.from_dict({"title": "a"})

    def test_triple_round_trip(self):
        t = Triple("a", "b", "c")
        assert Triple.from_dict(t.to_dict()) == t

    def test_triple_from_bad_dict(self):
        with pytest.raises(CorpusError):
            Triple.from_dict({"s": "a"})


class TestDump:
    def test_add_and_get(self, page):
        dump = EncyclopediaDump([page])
        assert dump.get("刘德华#0") is page
        assert dump.get("missing") is None
        assert "刘德华#0" in dump
        assert len(dump) == 1

    def test_duplicate_id_rejected(self, page):
        dump = EncyclopediaDump([page])
        with pytest.raises(CorpusError):
            dump.add(page)

    def test_stats(self, page):
        dump = EncyclopediaDump([page, EncyclopediaPage(page_id="b#0", title="b")])
        stats = dump.stats()
        assert stats.n_pages == 2
        assert stats.n_abstracts == 1
        assert stats.n_triples == 3
        assert stats.n_tags == 3
        assert stats.as_dict()["pages"] == 2

    def test_text_corpus_contains_all_sources(self, page):
        dump = EncyclopediaDump([page])
        corpus = list(dump.text_corpus())
        assert page.abstract in corpus
        assert page.bracket in corpus
        assert "人物" in corpus

    def test_iteration_preserves_order(self, page):
        second = EncyclopediaPage(page_id="b#0", title="b")
        dump = EncyclopediaDump([page, second])
        assert [p.page_id for p in dump] == ["刘德华#0", "b#0"]


class TestDumpDiff:
    def _dump(self, *pages):
        return EncyclopediaDump(list(pages))

    def test_page_digest_is_content_addressed(self, page):
        import dataclasses

        same = EncyclopediaPage.from_dict(page.to_dict())
        assert page.digest() == same.digest()
        edited = dataclasses.replace(page, abstract=page.abstract + "！")
        assert edited.digest() != page.digest()

    def test_dump_fingerprint_derives_from_page_digests(self, page):
        dump = self._dump(page)
        assert dump.page_digests() == {page.page_id: page.digest()}
        fingerprint = dump.fingerprint()
        dump.add(EncyclopediaPage(page_id="b#0", title="b"))
        assert dump.fingerprint() != fingerprint  # memo invalidated by add
        assert set(dump.page_digests()) == {page.page_id, "b#0"}

    def test_identical_dumps_diff_empty(self, page):
        diff = diff_dumps(self._dump(page), self._dump(page))
        assert diff.is_empty
        assert diff.n_touched == 0
        assert diff.regenerate_ids() == frozenset()

    def test_added_changed_removed(self, page):
        import dataclasses

        kept = EncyclopediaPage(page_id="kept#0", title="kept")
        gone = EncyclopediaPage(page_id="gone#0", title="gone")
        old = self._dump(page, kept, gone)
        new = self._dump(
            dataclasses.replace(page, tags=page.tags + ("新标签",)),
            kept,
            EncyclopediaPage(page_id="new#0", title="new"),
        )
        diff = old.diff(new)
        assert diff.added == ("new#0",)
        assert diff.changed == (page.page_id,)
        assert diff.removed == ("gone#0",)
        assert diff.regenerate_ids() == {"new#0", page.page_id}

    def test_reordering_pages_is_not_a_change(self, page):
        other = EncyclopediaPage(page_id="b#0", title="b")
        assert diff_dumps(
            self._dump(page, other), self._dump(other, page)
        ).is_empty

    def test_round_trips_through_dict(self, page):
        old = self._dump(page)
        new = self._dump(EncyclopediaPage(page_id="n#0", title="n"))
        diff = diff_dumps(old, new)
        assert DumpDiff.from_dict(diff.as_dict()) == diff


class TestPersistence:
    def test_round_trip(self, page, tmp_path):
        dump = EncyclopediaDump([page])
        path = tmp_path / "dump.jsonl"
        assert save_dump(dump, path) == 1
        loaded = load_dump(path)
        assert loaded.pages == dump.pages

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_dump(tmp_path / "nope.jsonl")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_dump(path)

    def test_a_line_that_is_not_an_object_names_its_line(
        self, page, tmp_path
    ):
        path = tmp_path / "dump.jsonl"
        save_dump(EncyclopediaDump([page]), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('["a"]\n')
        with pytest.raises(CorpusError, match=f"^{path}:2: .*JSON object"):
            load_dump(path)

    def test_blank_lines_skipped(self, page, tmp_path):
        path = tmp_path / "dump.jsonl"
        save_dump(EncyclopediaDump([page]), path)
        path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
        assert len(load_dump(path)) == 1
