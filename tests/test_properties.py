"""Cross-module property-based tests and failure injection.

These guard the invariants the pipeline relies on rather than individual
behaviours: suffix structure of separation output, dedup idempotence of
the candidate pool, persistence round-trips, filter partition laws, and
graceful degradation on hostile inputs.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation.merge import CandidatePool
from repro.core.generation.separation import SeparationAlgorithm
from repro.core.verification.incompatible import kl_divergence
from repro.core.verification.ner_filter import noisy_or
from repro.encyclopedia.model import EncyclopediaDump, EncyclopediaPage, Triple
from repro.errors import CorpusError, TaxonomyError
from repro.nlp.pmi import PMIStatistics
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

_WORDS = st.sampled_from(
    ["蚂蚁", "金服", "首席", "战略官", "著名", "歌手", "中国", "演员"]
)
_SOURCES = st.sampled_from(["bracket", "abstract", "infobox", "tag"])


class TestSeparationInvariants:
    @given(st.lists(_WORDS, min_size=1, max_size=7))
    @settings(max_examples=60)
    def test_hypernyms_are_proper_suffixes(self, words):
        pmi = PMIStatistics()
        pmi.add_sequence(["蚂蚁", "金服", "首席", "战略官", "歌手"])
        compound = "".join(words)
        for hypernym in SeparationAlgorithm(pmi).hypernyms(words):
            assert compound.endswith(hypernym) or hypernym == compound

    @given(st.lists(_WORDS, min_size=2, max_size=7))
    @settings(max_examples=60)
    def test_tree_preserves_word_sequence(self, words):
        pmi = PMIStatistics()
        tree = SeparationAlgorithm(pmi).build_tree(words)
        assert list(tree.words) == words
        assert tree.text == "".join(words)

    @given(st.lists(_WORDS, min_size=1, max_size=7))
    @settings(max_examples=40)
    def test_hypernym_count_bounded_by_length(self, words):
        pmi = PMIStatistics()
        hypernyms = SeparationAlgorithm(pmi).hypernyms(words)
        assert 1 <= len(hypernyms) <= len(words)


class TestPoolInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a#0", "b#0", "c#0"]),
                st.sampled_from(["歌手", "演员", "作品"]),
                _SOURCES,
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_unique_keys_and_add_count(self, triples):
        pool = CandidatePool()
        pool.add([
            IsARelation(hypo, hyper, source) for hypo, hyper, source in triples
        ])
        stats = pool.stats()
        assert stats.added == len(triples)
        assert stats.unique == len({(h, y) for h, y, _ in triples})
        keys = [r.key for r in pool.relations()]
        assert len(keys) == len(set(keys))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a#0", "b#0"]),
                st.sampled_from(["歌手", "演员"]),
                _SOURCES,
            ),
            max_size=15,
        )
    )
    @settings(max_examples=40)
    def test_adding_twice_is_idempotent_on_relations(self, triples):
        relations = [
            IsARelation(h, y, s) for h, y, s in triples
        ]
        once = CandidatePool()
        once.add(relations)
        twice = CandidatePool()
        twice.add(relations)
        twice.add(relations)
        assert {r.key for r in once.relations()} == {
            r.key for r in twice.relations()
        }


class TestScoreFunctions:
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_noisy_or_bounds_and_amplification(self, s1, s2):
        combined = noisy_or(s1, s2)
        assert 0.0 <= combined <= 1.0
        assert combined >= max(s1, s2) - 1e-12

    @given(st.floats(0, 1))
    def test_noisy_or_identity(self, s):
        assert noisy_or(s, 0.0) == pytest.approx(s)

    @given(
        st.dictionaries(
            st.sampled_from("abcde"), st.floats(0.01, 1.0),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_kl_nonnegative_on_normalised(self, raw):
        total = sum(raw.values())
        dist = {k: v / total for k, v in raw.items()}
        assert kl_divergence(dist, dist) == pytest.approx(0.0, abs=1e-6)
        other = {k: 1.0 / len(dist) for k in dist}
        # epsilon smoothing can dip microscopically below zero
        assert kl_divergence(dist, other) >= -1e-6


class TestPersistenceRoundTrips:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["刘#0", "周#0", "王#1"]),
                st.sampled_from(["歌手", "演员", "人物"]),
                _SOURCES,
                st.floats(0.1, 2.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=30)
    def test_taxonomy_round_trip(self, tmp_path_factory, rows):
        taxonomy = Taxonomy()
        for hypo, hyper, source, score in rows:
            taxonomy.add_entity(Entity(hypo, hypo.split("#")[0]))
            taxonomy.add_relation(
                IsARelation(hypo, hyper, source, score=score)
            )
        path = tmp_path_factory.mktemp("tx") / "t.jsonl"
        taxonomy.save(path)
        loaded = Taxonomy.load(path)
        assert loaded.stats() == taxonomy.stats()
        assert {r.key for r in loaded.relations()} == {
            r.key for r in taxonomy.relations()
        }

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["刘#0", "周#0", "王#1", "陈#2"]),
                st.sampled_from(["歌手", "演员", "人物", "公司"]),
                _SOURCES,
                st.floats(0.1, 2.0),
                st.sampled_from(["", "华仔", "Ａｎｄｙ", "天王"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=30)
    def test_save_load_save_is_byte_stable(self, tmp_path_factory, rows):
        """Canonical JSONL: persistence round-trips byte-for-byte.

        ``save`` orders records canonically, so a loaded-then-resaved
        taxonomy (whatever insertion order the load used) reproduces
        the original file exactly — including non-ASCII mentions and
        aliases, which must survive un-escaped (``ensure_ascii=False``).
        """
        taxonomy = Taxonomy()
        for hypo, hyper, source, score, alias in rows:
            aliases = (alias,) if alias else ()
            if not taxonomy.has_entity(hypo):
                taxonomy.add_entity(
                    Entity(hypo, hypo.split("#")[0], aliases=aliases)
                )
            taxonomy.add_relation(
                IsARelation(hypo, hyper, source, score=score)
            )
        root = tmp_path_factory.mktemp("stable")
        first, second = root / "first.jsonl", root / "second.jsonl"
        taxonomy.save(first)
        Taxonomy.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()
        # non-ASCII mentions stay human-readable (no \uXXXX escapes)
        assert rows[0][0].split("#")[0] in first.read_text(encoding="utf-8")

    def test_dump_round_trip_preserves_unicode(self, tmp_path):
        from repro.encyclopedia.corpus import load_dump, save_dump

        page = EncyclopediaPage(
            page_id="刘德华#0", title="刘德华",
            bracket="中国香港男演员",
            abstract="刘德华（Andy Lau），1961年出生。",
            infobox=(Triple("刘德华#0", "体重", "63KG"),),
            tags=("人物", "演员"),
        )
        path = tmp_path / "dump.jsonl"
        save_dump(EncyclopediaDump([page]), path)
        raw = path.read_text(encoding="utf-8")
        assert "刘德华" in raw  # ensure_ascii=False: human-readable dumps
        assert load_dump(path).pages[0] == page


class TestFailureInjection:
    def test_crashed_save_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        """Atomic save: a failure mid-write never tears the target."""
        taxonomy = Taxonomy()
        taxonomy.add_entity(Entity("a#0", "a"))
        taxonomy.add_relation(IsARelation("a#0", "歌手", "tag"))
        path = tmp_path / "t.jsonl"
        taxonomy.save(path)
        good_bytes = path.read_bytes()

        real_lines = Taxonomy._canonical_lines

        def exploding_lines(self):
            yield next(real_lines(self))  # header written, then crash
            raise OSError("disk full")

        taxonomy.add_relation(IsARelation("a#0", "演员", "tag"))
        monkeypatch.setattr(Taxonomy, "_canonical_lines", exploding_lines)
        with pytest.raises(OSError):
            taxonomy.save(path)
        monkeypatch.undo()
        # target untouched by the torn write, and still loadable
        assert path.read_bytes() == good_bytes
        assert len(Taxonomy.load(path).relations()) == 1
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_future_taxonomy_format_version_is_refused(self, tmp_path):
        taxonomy = Taxonomy()
        taxonomy.add_entity(Entity("a#0", "a"))
        taxonomy.add_relation(IsARelation("a#0", "歌手", "tag"))
        path = tmp_path / "t.jsonl"
        taxonomy.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["format_version"] >= 1  # save stamps the version
        header["format_version"] = 99
        lines[0] = json.dumps(header, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TaxonomyError, match="format_version 99"):
            Taxonomy.load(path)

    def test_legacy_header_without_format_version_loads(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            '{"kind": "header", "name": "旧版"}\n'
            '{"kind": "entity", "page_id": "a#0", "name": "a", "aliases": []}\n'
            '{"kind": "relation", "hyponym": "a#0", "hypernym": "歌手", '
            '"source": "tag", "hyponym_kind": "entity", "score": 1.0}\n',
            encoding="utf-8",
        )
        loaded = Taxonomy.load(path)
        assert loaded.name == "旧版"
        assert loaded.men2ent("a") == ["a#0"]

    def test_truncated_taxonomy_file(self, tmp_path):
        taxonomy = Taxonomy()
        taxonomy.add_entity(Entity("a#0", "a"))
        taxonomy.add_relation(IsARelation("a#0", "b", "tag"))
        path = tmp_path / "t.jsonl"
        taxonomy.save(path)
        content = path.read_text(encoding="utf-8")
        path.write_text(content[: len(content) // 2], encoding="utf-8")
        with pytest.raises((TaxonomyError, KeyError)):
            Taxonomy.load(path)

    def test_dump_with_corrupt_middle_line(self, tmp_path):
        from repro.encyclopedia.corpus import load_dump, save_dump

        pages = [
            EncyclopediaPage(page_id=f"p{i}#0", title=f"p{i}")
            for i in range(3)
        ]
        path = tmp_path / "d.jsonl"
        save_dump(EncyclopediaDump(pages), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "{broken json"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(CorpusError) as excinfo:
            load_dump(path)
        assert ":2:" in str(excinfo.value)  # error names the line

    def test_relation_with_entity_missing_from_store(self):
        taxonomy = Taxonomy()
        with pytest.raises(TaxonomyError):
            taxonomy.add_relation(IsARelation("ghost#0", "概念", "tag"))

    def test_pipeline_survives_sparse_pages(self):
        from repro.core.pipeline import PipelineConfig, build_cn_probase

        dump = EncyclopediaDump([
            EncyclopediaPage(page_id=f"e{i}#0", title=f"词{i}",
                             tags=("人物",))
            for i in range(5)
        ])
        result = build_cn_probase(
            dump, PipelineConfig(enable_abstract=False)
        )
        # 5 pages, tag source only: builds a tiny but valid taxonomy
        assert result.taxonomy.stats().n_entities <= 5
        assert result.taxonomy.graph.is_dag()

    def test_pipeline_with_relationless_pages(self):
        from repro.core.pipeline import PipelineConfig, build_cn_probase

        dump = EncyclopediaDump([
            EncyclopediaPage(page_id="bare#0", title="空页")
        ])
        result = build_cn_probase(
            dump, PipelineConfig(enable_abstract=False)
        )
        assert len(result.taxonomy) == 0

    def test_workload_generator_on_empty_taxonomy(self):
        from repro.taxonomy.service import TaxonomyService
        from repro.workloads import (
            ArgumentPools,
            TableIICallStream,
            replay_calls,
        )

        taxonomy = Taxonomy()
        calls = TableIICallStream(
            ArgumentPools.from_taxonomy(taxonomy), seed=1
        ).generate(50)
        # every empty-pool draw is a flagged unknown, not a silent "空"
        assert all(call.expected_miss for call in calls)
        metrics = replay_calls(TaxonomyService(taxonomy), calls)
        assert metrics.total_calls == 50  # misses, but no crashes

    def test_filters_on_empty_relation_lists(self):
        from repro.core.verification.incompatible import (
            IncompatibleConceptFilter,
        )
        from repro.core.verification.ner_filter import NEHypernymFilter
        from repro.core.verification.syntax_rules import SyntaxRuleFilter
        from repro.nlp.ner import NamedEntityRecognizer
        from repro.nlp.segmentation import Segmenter

        dump = EncyclopediaDump(
            [EncyclopediaPage(page_id="a#0", title="a")]
        )
        incompatible = IncompatibleConceptFilter().fit([], dump)
        assert incompatible.filter([]).kept == []
        ner = NEHypernymFilter(NamedEntityRecognizer()).fit([], [])
        assert ner.filter([]).kept == []
        syntax = SyntaxRuleFilter(Segmenter())
        assert syntax.filter([]).kept == []


class TestFilterPartitionLaw:
    """kept + removed is always a partition of the input."""

    def _relations(self):
        return [
            IsARelation("a#0", "歌手", "tag"),
            IsARelation("a#0", "政治", "tag"),
            IsARelation("b#0", "美国", "tag"),
            IsARelation("流行歌手", "歌手", "tag", hyponym_kind="concept"),
        ]

    def test_syntax_partition(self):
        from repro.core.verification.syntax_rules import SyntaxRuleFilter
        from repro.nlp.segmentation import Segmenter

        relations = self._relations()
        decision = SyntaxRuleFilter(Segmenter()).filter(
            relations, {"a#0": "某", "b#0": "某某"}
        )
        assert sorted(
            r.key for r in decision.kept + decision.removed
        ) == sorted(r.key for r in relations)

    def test_ner_partition(self):
        from repro.core.verification.ner_filter import NEHypernymFilter
        from repro.nlp.ner import NamedEntityRecognizer

        relations = self._relations()
        filt = NEHypernymFilter(NamedEntityRecognizer())
        filt.fit([["美国"]], relations, {})
        decision = filt.filter(relations)
        assert len(decision.kept) + len(decision.removed) == len(relations)

    def test_incompatible_partition(self):
        from repro.core.verification.incompatible import (
            IncompatibleConceptFilter,
        )

        relations = self._relations()
        dump = EncyclopediaDump(
            [EncyclopediaPage(page_id="a#0", title="某"),
             EncyclopediaPage(page_id="b#0", title="某某")]
        )
        filt = IncompatibleConceptFilter().fit(relations, dump)
        decision = filt.filter(relations)
        assert len(decision.kept) + len(decision.removed) == len(relations)
