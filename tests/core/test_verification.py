"""Tests for the three verification heuristics (Section III)."""

from collections import Counter, defaultdict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.pipeline import PipelineConfig, build_cn_probase
from repro.core.stages import default_registry
from repro.core.verification.incompatible import (
    FilterDecision,
    IncompatibleConceptFilter,
    _normalise,
    cosine,
    jaccard,
    kl_divergence,
)
from repro.core.verification.ner_filter import NEHypernymFilter, noisy_or
from repro.core.verification.syntax_rules import RuleCounts, SyntaxRuleFilter
from repro.core.verification.thematic import THEMATIC_WORDS
from repro.encyclopedia.model import EncyclopediaDump, EncyclopediaPage, Triple
from repro.errors import PipelineError, SegmentationError
from repro.nlp.head import head_stem_violates
from repro.nlp.lexicon import Lexicon
from repro.nlp.ner import NamedEntityRecognizer
from repro.nlp.pos import POSTagger
from repro.nlp.segmentation import Segmenter
from repro.taxonomy.model import HYPONYM_ENTITY, IsARelation
from repro.workloads.spec import WorldSpec


class TestThematicLexicon:
    def test_exactly_184_entries(self):
        assert len(THEMATIC_WORDS) == 184

    def test_contains_paper_examples(self):
        assert "政治" in THEMATIC_WORDS
        assert "军事" in THEMATIC_WORDS
        assert "音乐" in THEMATIC_WORDS

    def test_no_taxonomic_concepts(self):
        for concept in ("歌手", "演员", "公司", "水果"):
            assert concept not in THEMATIC_WORDS


def _person_page(page_id, name):
    return EncyclopediaPage(
        page_id=page_id, title=name,
        infobox=(
            Triple(page_id, "职业", "歌手"),
            Triple(page_id, "出生日期", "1990年1月1日"),
            Triple(page_id, "代表作品", "忘情水"),
        ),
    )


def _song_page(page_id, name):
    return EncyclopediaPage(
        page_id=page_id, title=name,
        infobox=(
            Triple(page_id, "类型", "歌曲"),
            Triple(page_id, "发行时间", "2001年2月2日"),
            Triple(page_id, "作者", "王伟"),
        ),
    )


class TestIncompatibleConcepts:
    @pytest.fixture
    def fitted(self):
        pages = [_person_page(f"p{i}#0", f"歌星{i}") for i in range(5)]
        pages += [_song_page(f"s{i}#0", f"曲子{i}") for i in range(5)]
        dump = EncyclopediaDump(pages)
        relations = [
            IsARelation(f"p{i}#0", "歌手", "tag") for i in range(5)
        ] + [
            IsARelation(f"s{i}#0", "歌曲", "tag") for i in range(5)
        ]
        filt = IncompatibleConceptFilter(min_concept_entities=3)
        filt.fit(relations, dump)
        return filt, relations, dump

    def test_person_vs_song_incompatible(self, fitted):
        filt, _, _ = fitted
        assert filt.incompatible("歌手", "歌曲")

    def test_concept_compatible_with_itself_entities(self, fitted):
        filt, _, _ = fitted
        assert not filt.incompatible("歌手", "歌手")

    def test_small_concepts_never_incompatible(self, fitted):
        filt, _, _ = fitted
        assert not filt.incompatible("歌手", "冷门概念")

    def test_kl_arbitration_removes_wrong_concept(self, fitted):
        filt, relations, dump = fitted
        # 歌星0 (a person) wrongly also claimed as 歌曲 (cross-sense leak).
        noisy = relations + [IsARelation("p0#0", "歌曲", "tag")]
        decision = filt.filter(noisy)
        removed_pairs = {(r.hyponym, r.hypernym) for r in decision.removed}
        assert ("p0#0", "歌曲") in removed_pairs
        assert ("p0#0", "歌手") not in removed_pairs

    def test_compatible_concepts_pass(self, fitted):
        filt, relations, _ = fitted
        decision = filt.filter(relations)
        assert decision.removed == []

    def test_filter_before_fit_raises(self):
        with pytest.raises(PipelineError):
            IncompatibleConceptFilter().filter([])

    def test_concept_relations_pass_through(self, fitted):
        filt, _, _ = fitted
        concept_rel = IsARelation("男歌手", "歌手", "tag", hyponym_kind="concept")
        decision = filt.filter([concept_rel])
        assert decision.kept == [concept_rel]


def reference_filter(filt, relations):
    """``IncompatibleConceptFilter.filter`` with no memo: the pair test
    runs for every pair of every entity."""
    by_entity = defaultdict(list)
    passthrough = []
    for relation in relations:
        if relation.hyponym_kind == HYPONYM_ENTITY:
            by_entity[relation.hyponym].append(relation)
        else:
            passthrough.append(relation)
    kept = list(passthrough)
    removed = []
    for page_id, entity_relations in by_entity.items():
        doomed = set()
        concepts = [r.hypernym for r in entity_relations]
        for i, concept_a in enumerate(concepts):
            for concept_b in concepts[i + 1:]:
                if concept_a in doomed or concept_b in doomed:
                    continue
                if not filt.incompatible(concept_a, concept_b):
                    continue
                kl_a = filt.entity_concept_kl(page_id, concept_a)
                kl_b = filt.entity_concept_kl(page_id, concept_b)
                doomed.add(concept_a if kl_a > kl_b else concept_b)
        for relation in entity_relations:
            if relation.hypernym in doomed:
                removed.append(relation)
            else:
                kept.append(relation)
    return FilterDecision(kept=kept, removed=removed)


class ReferenceFitFilter(IncompatibleConceptFilter):
    """The filter with its eager ``fit``: one ``Counter`` per infobox
    page, folded into concepts, and every entity's distribution
    normalised up front.  ``fit`` and ``entity_concept_kl`` are the
    pre-change methods, kept verbatim."""

    def fit(self, relations, dump):
        concept_entities = defaultdict(set)
        entity_attr_counts = {}
        for page in dump:
            if page.infobox:
                entity_attr_counts[page.page_id] = Counter(
                    triple.predicate for triple in page.infobox
                )
        concept_attr_counts = defaultdict(Counter)
        for relation in relations:
            if relation.hyponym_kind != HYPONYM_ENTITY:
                continue
            concept_entities[relation.hypernym].add(relation.hyponym)
            attrs = entity_attr_counts.get(relation.hyponym)
            if attrs:
                concept_attr_counts[relation.hypernym].update(attrs)
        self._concept_entities = dict(concept_entities)
        self._concept_attrs = {
            concept: _normalise(counts)
            for concept, counts in concept_attr_counts.items()
        }
        self._entity_attrs = {
            page_id: _normalise(counts)
            for page_id, counts in entity_attr_counts.items()
        }
        self._fitted = True
        return self

    def entity_concept_kl(self, page_id, concept):
        entity_dist = self._entity_attrs.get(page_id, {})
        concept_dist = self._concept_attrs.get(concept, {})
        if not entity_dist or not concept_dist:
            return 0.0
        return kl_divergence(entity_dist, concept_dist)


class CountingFilter(IncompatibleConceptFilter):
    """Records every pair the pair test is asked about."""

    def __init__(self) -> None:
        super().__init__()
        self.asked: list[tuple[str, str]] = []

    def incompatible(self, concept_a, concept_b):
        self.asked.append((concept_a, concept_b))
        return super().incompatible(concept_a, concept_b)


@pytest.fixture(scope="module")
def stage_inputs():
    """What the syntax and incompatible stages receive in a 1,200-entity
    build: ``{stage: (relations, context)}``."""
    captured = {}

    def capture(stage):
        class Capture:
            def verify(self, context, relations):
                captured[stage] = (list(relations), context)
                return FilterDecision(kept=list(relations), removed=[])

        return Capture

    registry = default_registry()
    for stage in ("syntax", "incompatible"):
        names = [entry.name for entry in registry.verifiers()]
        registry.register_verifier(
            f"capture-{stage}", capture(stage), index=names.index(stage)
        )
    world = WorldSpec(n_entities=1200).build_world(9)
    build_cn_probase(
        world.dump(), PipelineConfig(enable_abstract=False),
        registry=registry,
    )
    return captured


class TestIncompatibleFilterMatchesReference:
    @pytest.fixture(scope="class")
    def stage_input(self, stage_inputs):
        relations, context = stage_inputs["incompatible"]
        return relations, context.dump

    def test_filter_equals_the_unmemoised_loop(self, stage_input):
        relations, dump = stage_input
        filt = CountingFilter().fit(relations, dump)
        decision = filt.filter(relations)
        reference = reference_filter(
            IncompatibleConceptFilter().fit(relations, dump), relations
        )
        assert len(reference.removed) == 53
        assert decision.kept == reference.kept
        assert decision.removed == reference.removed
        # each distinct ordered pair is tested once
        assert len(filt.asked) == len(set(filt.asked))

    def test_fit_equals_the_eager_counter_fit(self, stage_input):
        relations, dump = stage_input
        filt = IncompatibleConceptFilter().fit(relations, dump)
        reference = ReferenceFitFilter().fit(relations, dump)
        assert list(filt._concept_attrs) == list(reference._concept_attrs)
        for concept, dist in reference._concept_attrs.items():
            assert list(filt._concept_attrs[concept].items()) == list(
                dist.items()
            )
        assert filt._concept_entities == reference._concept_entities
        decision = filt.filter(relations)
        expected = reference_filter(reference, relations)
        assert len(expected.removed) == 53
        assert decision.kept == expected.kept
        assert decision.removed == expected.removed
        # only entities on an incompatible pair were normalised, each
        # to the eager distribution
        assert 0 < len(filt._entity_attrs) < len(reference._entity_attrs)
        for page_id, dist in filt._entity_attrs.items():
            assert list(dist.items()) == list(
                reference._entity_attrs.get(page_id, {}).items()
            )

    def test_verdicts_are_keyed_on_the_ordered_pair(self):
        # cosine sums in its first argument's key order; with these two
        # attribute orders the directions differ in the last bit
        predicates = {
            "歌手": ["职业", "籍贯", "生日"],
            "歌曲": ["生日", "籍贯"] + ["职业"] * 4,
        }
        singer = {"职业": 1 / 3, "籍贯": 1 / 3, "生日": 1 / 3}
        song = {"生日": 1 / 6, "籍贯": 1 / 6, "职业": 4 / 6}
        assert cosine(singer, song) != cosine(song, singer)
        pages, relations = [], []
        for concept, names in predicates.items():
            for i in range(3):
                page_id = f"{concept}{i}#0"
                infobox = tuple(Triple(page_id, name, "值") for name in names)
                pages.append(EncyclopediaPage(
                    page_id=page_id, title=f"{concept}{i}",
                    infobox=infobox if i == 0 else (),
                ))
                relations.append(IsARelation(page_id, concept, "tag"))
        # one entity claims the pair in each order
        for page_id, concepts in (("甲#0", ("歌手", "歌曲")),
                                  ("乙#0", ("歌曲", "歌手"))):
            pages.append(EncyclopediaPage(page_id=page_id, title=page_id[0]))
            relations += [IsARelation(page_id, c, "tag") for c in concepts]
        filt = IncompatibleConceptFilter(
            jaccard_threshold=1.0,
            cosine_threshold=min(cosine(singer, song), cosine(song, singer)),
        ).fit(relations, EncyclopediaDump(pages))
        assert filt.incompatible("歌手", "歌曲") != filt.incompatible(
            "歌曲", "歌手"
        )
        decision = filt.filter(relations)
        reference = reference_filter(filt, relations)
        assert len(reference.removed) == 1
        assert decision.kept == reference.kept
        assert decision.removed == reference.removed


def reference_syntax_filter(filt, segmenter, relations, titles):
    """``SyntaxRuleFilter.filter`` with no memo: both surfaces of every
    relation are segmented."""

    def violates_head_stem(hyponym_surface, hypernym):
        try:
            hypo_words = segmenter.segment(hyponym_surface)
            hyper_words = segmenter.segment(hypernym)
        except SegmentationError:
            return False
        return head_stem_violates(hypo_words, hyper_words)

    counts = RuleCounts()
    kept, removed = [], []
    for relation in relations:
        surface = relation.hyponym
        if relation.hyponym_kind == HYPONYM_ENTITY:
            surface = titles.get(relation.hyponym, relation.hyponym)
        if filt.is_thematic(relation.hypernym):
            counts.thematic += 1
            removed.append(relation)
        elif surface == relation.hypernym:
            counts.identity += 1
            removed.append(relation)
        elif violates_head_stem(surface, relation.hypernym):
            counts.head_stem += 1
            removed.append(relation)
        else:
            kept.append(relation)
    return FilterDecision(kept=kept, removed=removed), counts


class CountingSegmenter:
    """Records every text it is asked to segment."""

    def __init__(self, inner: Segmenter) -> None:
        self.inner = inner
        self.asked: list[str] = []

    def segment(self, text):
        self.asked.append(text)
        return self.inner.segment(text)


class TestSyntaxFilterMatchesReference:
    def test_filter_equals_the_unmemoised_loop(self, stage_inputs):
        relations, context = stage_inputs["syntax"]
        segmenter = CountingSegmenter(context.segmenter)
        filt = SyntaxRuleFilter(segmenter, context.tagger)
        decision = filt.filter(relations, context.titles)
        reference, counts = reference_syntax_filter(
            filt, context.segmenter, relations, context.titles
        )
        assert len(reference.removed) == 388
        assert decision.kept == reference.kept
        assert decision.removed == reference.removed
        assert filt.last_counts == counts
        # each distinct surface is segmented once per call
        assert len(segmenter.asked) == len(set(segmenter.asked))

    def test_unsegmentable_surface_is_no_violation(self):
        segmenter = CountingSegmenter(Segmenter(Lexicon.base()))
        filt = SyntaxRuleFilter(segmenter, POSTagger(Lexicon.base()))
        relations = [IsARelation(f"空{i}#0", "歌手", "tag") for i in range(2)]
        titles = {relation.hyponym: " \u3000 " for relation in relations}
        decision = filt.filter(relations, titles)
        assert decision.kept == relations
        assert segmenter.asked == [" \u3000 "]
        assert not filt.violates_head_stem(" \u3000 ", "歌手")


class TestMathHelpers:
    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 0.0

    @given(*[st.sets(st.integers(0, 11).map(str))] * 2)
    @example(set("abc"), set("abcde"))  # 3 * (1 / 5) != 3 / 5
    def test_jaccard_is_exact(self, a, b):
        if a or b:
            assert jaccard(a, b) == len(a & b) / len(a | b)
        else:
            assert jaccard(a, b) == 0.0

    def test_cosine_identical(self):
        d = {"x": 0.5, "y": 0.5}
        assert cosine(d, d) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine({"x": 1.0}, {"y": 1.0}) == 0.0

    def test_kl_zero_for_identical(self):
        d = {"x": 0.5, "y": 0.5}
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-6)

    def test_kl_larger_for_disjoint(self):
        p = {"x": 1.0}
        close = {"x": 0.9, "y": 0.1}
        far = {"y": 1.0}
        assert kl_divergence(p, far) > kl_divergence(p, close)

    def test_noisy_or(self):
        assert noisy_or(0.0, 0.0) == 0.0
        assert noisy_or(1.0, 0.0) == 1.0
        assert noisy_or(0.5, 0.5) == pytest.approx(0.75)


class TestNEFilter:
    @pytest.fixture
    def fitted(self):
        recognizer = NamedEntityRecognizer()
        corpus = [["美国", "歌手"], ["美国", "出生"], ["歌手", "演唱"]]
        relations = [
            IsARelation("iPhone#0", "美国", "tag"),
            IsARelation("iPhone#0", "手机", "tag"),
            IsARelation("王伟#0", "歌手", "tag"),
        ]
        titles = {"iPhone#0": "iPhone", "王伟#0": "王伟"}
        filt = NEHypernymFilter(recognizer, threshold=0.55)
        filt.fit(corpus, relations, titles)
        return filt

    def test_paper_example_iphone_america(self, fitted):
        decision = fitted.filter([IsARelation("iPhone#0", "美国", "tag")])
        assert decision.n_removed == 1

    def test_common_concept_kept(self, fitted):
        decision = fitted.filter([IsARelation("iPhone#0", "手机", "tag")])
        assert decision.removed == []

    def test_entity_title_as_hypernym_removed(self, fitted):
        # 王伟 occurs as a hyponym title, so s2 flags it as an instance.
        decision = fitted.filter([IsARelation("iPhone#0", "王伟", "tag")])
        assert decision.n_removed == 1

    def test_s1_from_corpus(self, fitted):
        assert fitted.s1("美国") > 0.9
        assert fitted.s1("歌手") == 0.0

    def test_s2_balance(self, fitted):
        assert fitted.s2("歌手") == 0.0  # only ever a hypernym
        assert fitted.s2("王伟") == 1.0  # only ever a hyponym

    def test_support_combines(self, fitted):
        support = fitted.support("美国")
        assert support.combined >= support.s1

    def test_unfitted_raises(self):
        filt = NEHypernymFilter(NamedEntityRecognizer())
        with pytest.raises(PipelineError):
            filt.filter([])

    def test_bad_threshold_rejected(self):
        with pytest.raises(PipelineError):
            NEHypernymFilter(NamedEntityRecognizer(), threshold=0.0)


class TestSyntaxRules:
    @pytest.fixture(scope="class")
    def filt(self):
        lexicon = Lexicon.base()
        lexicon.add("教育机构", 300, "n")
        lexicon.add("机构", 500, "n")
        return SyntaxRuleFilter(Segmenter(lexicon))

    def test_thematic_hypernym_removed(self, filt):
        decision = filt.filter([IsARelation("a#0", "政治", "tag")], {"a#0": "某人"})
        assert decision.n_removed == 1
        assert filt.last_counts.thematic == 1

    def test_paper_head_stem_example(self, filt):
        # isA(教育机构, 教育) must be rejected by rule 2.
        decision = filt.filter(
            [IsARelation("教育机构", "教育", "tag", hyponym_kind="concept")]
        )
        # 教育 is thematic too; ensure removal happened either way
        assert decision.n_removed == 1

    def test_head_stem_non_thematic(self, filt):
        decision = filt.filter(
            [IsARelation("战略研究所", "战略官", "tag", hyponym_kind="concept")]
        )
        assert decision.n_removed == 1
        assert filt.last_counts.head_stem == 1

    def test_identity_removed(self, filt):
        decision = filt.filter(
            [IsARelation("a#0", "歌手", "tag")], {"a#0": "歌手"}
        )
        assert decision.n_removed == 1
        assert filt.last_counts.identity == 1

    def test_good_relation_kept(self, filt):
        decision = filt.filter(
            [IsARelation("a#0", "歌手", "tag")], {"a#0": "刘德华"}
        )
        assert decision.removed == []

    def test_valid_compound_kept(self, filt):
        # isA(流行歌手, 歌手) — stem in head position is fine.
        decision = filt.filter(
            [IsARelation("流行歌手", "歌手", "tag", hyponym_kind="concept")]
        )
        assert decision.removed == []
