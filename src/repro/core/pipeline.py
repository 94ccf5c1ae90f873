"""The generation + verification build pipeline (Figure 2).

``CNProbaseBuilder.build(dump)`` is a thin driver over a
:class:`~repro.core.stages.StageRegistry`:

1. prepare the shared :class:`~repro.core.stages.BuildContext` — lexicon
   harvesting (titles/tags/aliases extend the base lexicon, the way real
   pipelines feed encyclopedia titles to jieba as a user dict), PMI
   statistics over the dump's own text corpus, segmenter/tagger/NER,
2. run every registered generation source (bracket separation, neural
   generation, predicate discovery, tag extraction by default) into the
   merged candidate pool,
3. identify the concept layer,
4. run every registered verifier in order (disjunctive: any veto removes
   the candidate),
5. assemble the taxonomy, index mentions and break concept cycles.

Sources run in the dependency waves of an
:class:`~repro.core.stages.ExecutionPlan`, one after another in one
process: a source reads the output of earlier waves, never of its own,
and results are merged into the candidate pool in registration order.
Verifiers then run once each, in registration order, over the
survivors of the one before.  The taxonomy a build saves is therefore a
pure function of the dump, the config and the registry, byte for byte.

Shared resource preparation is cached in a :class:`ResourceCache` keyed
on the dump's content fingerprint plus the resource-relevant slice of
the config (:attr:`PipelineConfig.RESOURCE_FIELDS`): rebuilding on an
unchanged dump skips lexicon harvesting, corpus segmentation and PMI
recounting entirely (``cache_hit`` on the ``resources`` trace record
says when).

``CNProbaseBuilder.build_incremental(dump, previous)`` is the nightly
refresh path: a page-level :class:`~repro.encyclopedia.model.DumpDiff`
against the previous dump drives exact reuse — unchanged pages keep
their segment lists and PMI advances by counter subtract/add (when the
harvested lexicon is provably unchanged), ``page_local`` sources replay
previous candidates for unchanged pages — and the result is
byte-identical to a full build, plus a
:class:`~repro.taxonomy.delta.TaxonomyDelta` whose application to the
previous taxonomy reproduces it exactly (the equivalence contract the
tests and ``benchmarks/bench_incremental_build.py`` assert).

Per-stage wall-clock, candidate counts and cache hits are recorded in
a :class:`~repro.core.stages.StageTrace` on the result.  Stages remain
individually switchable through :class:`PipelineConfig` (what the
ablation benchmarks drive) or through the registry's enable/disable
switches; custom stages register through :mod:`repro.core.stages`
without touching this module.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import ClassVar

from repro.core.generation.merge import CandidatePool, PoolStats
from repro.core.generation.neural_gen import NeuralGenConfig
from repro.core.generation.predicates import DiscoveryResult
from repro.core.stages import (
    DRIVER_KIND,
    SOURCE_KIND,
    VERIFIER_KIND,
    BuildContext,
    ExecutionPlan,
    StageEntry,
    StageRecord,
    StageRegistry,
    StageTrace,
    default_registry,
    plan_execution,
)
from repro.encyclopedia.model import DumpDiff, EncyclopediaDump, diff_dumps
from repro.errors import PipelineError
from repro.neural.training import TrainingReport
from repro.obs import get_hub
from repro.nlp.lexicon import Lexicon
from repro.nlp.ner import NamedEntityRecognizer
from repro.nlp.pmi import PMIStatistics
from repro.nlp.pos import POSTagger
from repro.nlp.segmentation import Segmenter
from repro.taxonomy.delta import TaxonomyDelta
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy


@dataclass
class PipelineConfig:
    """Switches and hyper-parameters for one build."""

    # generation sources
    enable_bracket: bool = True
    enable_abstract: bool = True
    enable_infobox: bool = True
    enable_tag: bool = True
    # verification heuristics
    enable_incompatible: bool = True
    enable_ner: bool = True
    enable_syntax: bool = True
    # component parameters
    neural: NeuralGenConfig = field(default_factory=NeuralGenConfig)
    ne_threshold: float = 0.55
    predicate_min_aligned: int = 2
    predicate_min_support: float = 0.28
    predicate_max_selected: int = 12
    # neural extraction can be capped for wall-clock control; None = all
    max_generation_pages: int | None = None
    harvest_lexicon: bool = True
    # add-k smoothing of the PMI statistics derived from the dump corpus
    pmi_smoothing: float = 0.1
    # consult the builder's ResourceCache for the shared NLP resources
    resource_cache: bool = True

    #: Fields that shape the *shared resources* (lexicon, segmenter,
    #: tagger, recognizer, PMI, segmented corpus) rather than individual
    #: stages.  This is the config slice of every resource-cache key —
    #: a flag listed here must invalidate cached resources when flipped,
    #: and a flag absent from it must not.  Keep it in sync with
    #: :meth:`CNProbaseBuilder._build_resources`.
    RESOURCE_FIELDS: ClassVar[tuple[str, ...]] = (
        "harvest_lexicon",
        "pmi_smoothing",
    )


@dataclass
class SharedResources:
    """The expensive once-per-build derivations a :class:`ResourceCache`
    can replay: everything in :class:`BuildContext` that depends only on
    the dump (and the resource slice of the config), not on stages.

    ``page_segments`` slices the flat ``corpus`` per page (same list
    objects, keyed by page_id in dump order) — the reuse unit of an
    incremental rebuild: unchanged pages' segment lists carry over
    verbatim and changed pages' old lists are subtracted from PMI.
    """

    lexicon: Lexicon
    segmenter: Segmenter
    tagger: POSTagger
    recognizer: NamedEntityRecognizer
    pmi: PMIStatistics
    corpus: list[list[str]]
    titles: dict[str, str]
    page_segments: dict[str, list[list[str]]] = field(default_factory=dict)


class ResourceCache:
    """Bounded LRU of :class:`SharedResources`, keyed by dump + config.

    The key is ``(dump.fingerprint(), resource-config signature)``: a
    nightly rebuild on an unchanged dump skips lexicon harvesting,
    corpus segmentation and PMI recounting — the dominant fixed cost of
    a build.  Entries are treated as immutable by every stage (stages
    only read the shared resources), so sharing them across builds is
    safe.  Thread-safe; the default instance is shared by all builders.

    An entry pins the whole segmented corpus of its dump, so the
    default capacity is one — the rebuild-on-unchanged-dump case needs
    exactly the latest entry, and anything larger would keep a full
    superseded corpus resident.  Pass a bigger *maxsize* when a process
    really does alternate between dumps.
    """

    def __init__(self, maxsize: int = 1) -> None:
        if maxsize < 1:
            raise PipelineError(f"cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._entries: OrderedDict[tuple, SharedResources] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> SharedResources | None:
        with self._lock:
            resources = self._entries.get(key)
            if resources is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return resources

    def put(self, key: tuple, resources: SharedResources) -> None:
        with self._lock:
            self._entries[key] = resources
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide default cache: nightly-style repeated builds through any
#: builder hit the same warm entries.
DEFAULT_RESOURCE_CACHE = ResourceCache()


@dataclass
class BuildResult:
    """Everything a build produces, for evaluation and reporting."""

    taxonomy: Taxonomy
    pool_stats: PoolStats
    per_source_relations: dict[str, list[IsARelation]]
    discovery: DiscoveryResult | None
    training_report: TrainingReport | None
    removed_by: dict[str, list[IsARelation]]
    reclassified: int
    cycle_edges: list[tuple[str, str]]
    titles: dict[str, str]
    stage_trace: StageTrace = field(default_factory=StageTrace)

    @property
    def n_removed(self) -> int:
        return sum(len(v) for v in self.removed_by.values())


@dataclass
class PreviousBuild:
    """What an incremental rebuild needs to know about the last build.

    ``dump`` and ``taxonomy`` are mandatory (the diff base and the delta
    base); ``per_source`` — the previous build's pre-merge candidate
    lists — is optional and unlocks replaying ``page_local`` generation
    stages for unchanged pages.  A cold process that only has the files
    on disk (``cn-probase build --incremental``) runs without it,
    trading the generation replay away but keeping exactness.
    """

    dump: EncyclopediaDump
    taxonomy: Taxonomy
    per_source: dict[str, list[IsARelation]] | None = None

    @classmethod
    def from_result(
        cls, dump: EncyclopediaDump, result: BuildResult
    ) -> "PreviousBuild":
        """The warm-process form: previous dump + its full build result."""
        return cls(
            dump=dump,
            taxonomy=result.taxonomy,
            per_source=result.per_source_relations,
        )


@dataclass
class IncrementalBuildResult(BuildResult):
    """A :class:`BuildResult` plus the delta story of how it got there.

    ``taxonomy`` is byte-identical (via :meth:`Taxonomy.save`) to what a
    full :meth:`CNProbaseBuilder.build` on the same dump produces — the
    equivalence contract — and ``delta`` applied to the previous
    taxonomy reproduces it exactly.  ``resource_mode`` records how the
    shared resources were obtained: ``"incremental"`` (previous
    lexicon/segmenter reused, unchanged pages' segment lists carried
    over, PMI advanced by subtract/add), ``"cache"`` (same-dump
    resource-cache hit) or ``"full"`` (fallback re-derivation, e.g.
    the harvested lexicon changed).
    """

    delta: TaxonomyDelta | None = None
    diff: DumpDiff | None = None
    resource_mode: str = "full"


@dataclass
class _GenerationReplay:
    """Per-page candidate replay for ``page_local`` generation stages.

    Holds the previous build's pre-merge candidates per source and the
    page_ids whose extraction must re-run.  A stage qualifies when it
    declares ``page_local = True`` — the promise that its per-page
    output is a pure function of the page alone and every emitted
    relation carries the page's id as its hyponym — and its previous
    candidates are at hand.  Merging walks the *new* dump order, so the
    combined list is exactly what a full run over the new dump emits:
    removed pages drop out, unchanged pages replay, diff pages are
    fresh.
    """

    regenerate: frozenset[str]
    previous: dict[str, list[IsARelation]]

    def available_for(self, entry: StageEntry) -> bool:
        return (
            bool(getattr(entry.factory, "page_local", False))
            and entry.name in self.previous
        )

    def merge(
        self,
        name: str,
        dump: EncyclopediaDump,
        fresh: list[IsARelation],
    ) -> list[IsARelation]:
        prev_by_page: dict[str, list[IsARelation]] = {}
        for relation in self.previous[name]:
            prev_by_page.setdefault(relation.hyponym, []).append(relation)
        fresh_by_page: dict[str, list[IsARelation]] = {}
        for relation in fresh:
            fresh_by_page.setdefault(relation.hyponym, []).append(relation)
        merged: list[IsARelation] = []
        for page in dump:
            source = (
                fresh_by_page
                if page.page_id in self.regenerate
                else prev_by_page
            )
            merged.extend(source.get(page.page_id, ()))
        return merged


class CNProbaseBuilder:
    """End-to-end builder of a CN-Probase-style taxonomy.

    The builder owns a :class:`StageRegistry` (its own copy of
    :func:`default_registry` unless one is injected), so callers can
    register custom stages or flip switches per builder without
    affecting other builds.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        lexicon: Lexicon | None = None,
        recognizer: NamedEntityRecognizer | None = None,
        registry: StageRegistry | None = None,
        resource_cache: ResourceCache | None = None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.registry = registry if registry is not None else default_registry()
        self._external_lexicon = lexicon
        self._external_recognizer = recognizer
        self._resource_cache = (
            resource_cache if resource_cache is not None
            else DEFAULT_RESOURCE_CACHE
        )

    # -- pipeline --------------------------------------------------------------

    def plan(self) -> ExecutionPlan:
        """The source waves and verifiers the next :meth:`build` runs."""
        return plan_execution(self.registry, self.config)

    def build(self, dump: EncyclopediaDump) -> BuildResult:
        if len(dump) == 0:
            raise PipelineError("cannot build a taxonomy from an empty dump")
        started = perf_counter()
        trace = StageTrace()
        plan = self.plan()
        context = self._prepare_context(dump, trace)
        result = self._execute(dump, context, trace, started, plan)
        get_hub().record_stage_trace(trace, mode="full")
        return result

    def build_incremental(
        self, dump: EncyclopediaDump, previous: PreviousBuild
    ) -> IncrementalBuildResult:
        """Rebuild for *dump* with cost proportional to what changed.

        The page-level :class:`~repro.encyclopedia.model.DumpDiff`
        against ``previous.dump`` drives three exact reuse levels:

        1. **resources** — when the harvested lexicon is provably
           unchanged (no pages added/removed, changed pages contribute
           the same title/tag/alias surfaces), the previous
           lexicon/segmenter/tagger/recognizer carry over, unchanged
           pages keep their per-page segment lists verbatim and PMI
           advances by exact counter subtract/add of just the changed
           pages' text.  Anything else falls back to full
           re-derivation — conservative, never approximate;
        2. **generation** — ``page_local`` sources replay their
           previous candidates for unchanged pages and re-extract only
           the diff's pages; globally-coupled sources re-run in full;
        3. **verification / assembly** — always re-run over the merged
           pool (the verifier fits are global), against warm caches.

        The result's taxonomy is byte-identical (saved JSONL) to a full
        :meth:`build` on *dump* — every reuse level above is applied
        only under conditions that provably cannot change the output —
        and the returned :class:`~repro.taxonomy.delta.TaxonomyDelta`
        applied to ``previous.taxonomy`` reproduces it exactly.
        """
        if len(dump) == 0:
            raise PipelineError("cannot build a taxonomy from an empty dump")
        started = perf_counter()
        trace = StageTrace()
        plan = self.plan()
        diff_started = perf_counter()
        diff = diff_dumps(previous.dump, dump)
        trace.add(StageRecord(
            "diff", DRIVER_KIND, perf_counter() - diff_started,
            diff.n_touched,
        ))
        context, resource_mode = self._prepare_context_incremental(
            dump, previous, diff, trace
        )
        replay = None
        if previous.per_source is not None:
            replay = _GenerationReplay(
                regenerate=diff.regenerate_ids(),
                previous=previous.per_source,
            )
        result = self._execute(
            dump, context, trace, started, plan, replay=replay
        )
        get_hub().record_stage_trace(trace, mode="incremental")
        delta = TaxonomyDelta.compute(previous.taxonomy, result.taxonomy)
        return IncrementalBuildResult(
            **{f.name: getattr(result, f.name) for f in fields(BuildResult)},
            delta=delta,
            diff=diff,
            resource_mode=resource_mode,
        )

    def _execute(
        self,
        dump: EncyclopediaDump,
        context: BuildContext,
        trace: StageTrace,
        started: float,
        plan: ExecutionPlan,
        replay: _GenerationReplay | None = None,
    ) -> BuildResult:
        pool = CandidatePool()

        # generation: dependency waves, merged in registration order.
        source_records = self._run_sources(plan, context, pool, replay)
        for entry in self.registry.sources():
            record = source_records.get(entry.name)
            if record is None:  # disabled by a switch
                record = StageRecord(
                    entry.name, SOURCE_KIND, 0.0, 0, ran=False
                )
            trace.add(record)

        # merge + concept-layer identification.
        merge_started = perf_counter()
        reclassified = pool.reclassify_concept_pages(dump)
        pool_stats = pool.stats()
        relations = pool.relations()
        trace.add(StageRecord(
            "merge", DRIVER_KIND, perf_counter() - merge_started,
            len(relations),
        ))

        # verification: every registered verifier, in order (disjunctive
        # veto, applied in sequence).
        removed_by: dict[str, list[IsARelation]] = {}
        for entry in self.registry.verifiers():
            if not entry.active(self.config):
                trace.add(StageRecord(
                    entry.name, VERIFIER_KIND, 0.0, 0, ran=False
                ))
                continue
            stage_started = perf_counter()
            decision = entry.factory().verify(context, relations)
            elapsed = perf_counter() - stage_started
            removed_by[entry.name] = decision.removed
            relations = decision.kept
            trace.add(StageRecord(
                entry.name, VERIFIER_KIND, elapsed, len(decision.removed)
            ))

        # taxonomy assembly.
        assemble_started = perf_counter()
        taxonomy, cycle_edges = self._assemble(dump, relations, context.titles)
        trace.add(StageRecord(
            "assemble", DRIVER_KIND, perf_counter() - assemble_started,
            len(taxonomy),
        ))
        trace.total_seconds = perf_counter() - started

        return BuildResult(
            taxonomy=taxonomy,
            pool_stats=pool_stats,
            per_source_relations=context.per_source,
            discovery=context.discovery,
            training_report=context.training_report,
            removed_by=removed_by,
            reclassified=reclassified,
            cycle_edges=cycle_edges,
            titles=context.titles,
            stage_trace=trace,
        )

    def _run_sources(
        self,
        plan: ExecutionPlan,
        context: BuildContext,
        pool: CandidatePool,
        replay: _GenerationReplay | None = None,
    ) -> dict[str, StageRecord]:
        """Run every wave in order; merge results in registration order.

        A wave's output lands in ``context.per_source`` when the wave
        ends, so a source reads earlier waves through ``relations_from``
        but never a sibling in its own wave.  The candidate pool is only
        fed after all waves, strictly in registration order: wave
        grouping moves dependency-free sources ahead of dependent ones,
        and that must not leak into the pool's first-seen-source dedup
        or ``Taxonomy.save``'s insertion order.
        """
        records: dict[str, StageRecord] = {}
        for wave in plan.source_waves:
            produced: dict[str, list[IsARelation]] = {}
            for entry in wave:
                replayed = replay is not None and replay.available_for(entry)
                context.generation_scope = (
                    replay.regenerate if replayed else None
                )
                stage_started = perf_counter()
                relations = entry.factory().generate(context)
                elapsed = perf_counter() - stage_started
                if relations is None:  # preconditions unmet (e.g. no priors)
                    records[entry.name] = StageRecord(
                        entry.name, SOURCE_KIND, elapsed, 0, ran=False
                    )
                    continue
                if replayed:
                    relations = replay.merge(
                        entry.name, context.dump, relations
                    )
                produced[entry.name] = relations
                records[entry.name] = StageRecord(
                    entry.name, SOURCE_KIND, elapsed, len(relations),
                    cache_hit=replayed,
                )
            context.per_source.update(produced)
        context.generation_scope = None
        ordered = {
            entry.name: context.per_source[entry.name]
            for entry in self.registry.sources()
            if entry.name in context.per_source
        }
        context.per_source.clear()
        context.per_source.update(ordered)
        for relations in ordered.values():
            pool.add(relations)
        return records

    # -- helpers ------------------------------------------------------------------

    def _resource_signature(self) -> tuple:
        """The resource-relevant slice of the config (the "config hash").

        Built from :attr:`PipelineConfig.RESOURCE_FIELDS` — the declared
        list of every config field :meth:`_build_resources` actually
        reads (lexicon harvesting, PMI smoothing).  Shared resources
        depend on nothing else in :class:`PipelineConfig`: every other
        knob only affects stages, which consume the resources read-only,
        so flipping one must *not* invalidate cached resources.
        """
        return tuple(
            getattr(self.config, name)
            for name in PipelineConfig.RESOURCE_FIELDS
        )

    def _prepare_context(
        self,
        dump: EncyclopediaDump,
        trace: StageTrace,
    ) -> BuildContext:
        """Derive (or replay) the shared NLP resources every stage reads."""
        started = perf_counter()
        cacheable = (
            self.config.resource_cache
            and self._external_lexicon is None
            and self._external_recognizer is None
        )
        resources = None
        cache_key: tuple | None = None
        if cacheable:
            cache_key = (dump.fingerprint(), self._resource_signature())
            resources = self._resource_cache.get(cache_key)
        cache_hit = resources is not None
        if resources is None:
            resources = self._build_resources(dump)
            if cacheable and cache_key is not None:
                self._resource_cache.put(cache_key, resources)
        trace.add(StageRecord(
            "resources", DRIVER_KIND, perf_counter() - started,
            len(resources.titles), cache_hit=cache_hit,
        ))
        return BuildContext(
            dump=dump,
            config=self.config,
            lexicon=resources.lexicon,
            segmenter=resources.segmenter,
            tagger=resources.tagger,
            recognizer=resources.recognizer,
            pmi=resources.pmi,
            corpus=resources.corpus,
            titles=resources.titles,
        )

    def _prepare_context_incremental(
        self,
        dump: EncyclopediaDump,
        previous: PreviousBuild,
        diff: DumpDiff,
        trace: StageTrace,
    ) -> tuple[BuildContext, str]:
        """Shared resources for *dump*, reusing the previous build's where
        provably value-identical.

        The fast path requires the previous dump's resources to still
        sit in the builder's :class:`ResourceCache` (a nightly-refresh
        process keeps them warm) and the harvested lexicon to be
        provably unchanged — no pages added or removed and every
        changed page contributing the same title/tag/alias surfaces —
        the condition under which segmentation, tagging and NER are
        pure functions of unchanged inputs.  Then only the diff's pages
        pay for anything: their old segment lists are subtracted from a
        clone of the previous PMI counts, their new snippets segmented
        and added, and every other page's segment lists carry over
        verbatim.  Any other situation falls back to the full
        derivation path, keeping the output byte-identical in every
        case.
        """
        started = perf_counter()
        cacheable = (
            self.config.resource_cache
            and self._external_lexicon is None
            and self._external_recognizer is None
        )
        resources: SharedResources | None = None
        mode = "full"
        if cacheable:
            new_key = (dump.fingerprint(), self._resource_signature())
            cached = self._resource_cache.get(new_key)
            if cached is not None:
                resources, mode = cached, "cache"
        harvested: Lexicon | None = None
        if resources is None and cacheable:
            old_key = (
                previous.dump.fingerprint(), self._resource_signature()
            )
            old_resources = self._resource_cache.get(old_key)
            if old_resources is not None:
                stable, harvested = self._lexicon_stability(
                    previous.dump, dump, diff, old_resources.lexicon
                )
                if stable:
                    resources = self._advance_resources(
                        old_resources, previous.dump, dump, diff
                    )
                    mode = "incremental"
        if resources is None:
            resources = self._build_resources(dump, lexicon=harvested)
        if cacheable:
            self._resource_cache.put(new_key, resources)
        trace.add(StageRecord(
            "resources", DRIVER_KIND, perf_counter() - started,
            len(resources.titles), cache_hit=(mode != "full"),
        ))
        return (
            BuildContext(
                dump=dump,
                config=self.config,
                lexicon=resources.lexicon,
                segmenter=resources.segmenter,
                tagger=resources.tagger,
                recognizer=resources.recognizer,
                pmi=resources.pmi,
                corpus=resources.corpus,
                titles=resources.titles,
            ),
            mode,
        )

    def _lexicon_stability(
        self,
        old_dump: EncyclopediaDump,
        new_dump: EncyclopediaDump,
        diff: DumpDiff,
        old_lexicon: Lexicon,
    ) -> tuple[bool, Lexicon | None]:
        """Whether the harvested lexicon provably did not change.

        Cheap proof first: harvesting accumulates per-surface weights
        commutatively (every contribution uses the same POS), so the
        lexicon is a pure function of the *multiset* of per-page
        contributions — with no pages added or removed and every
        changed page contributing the same surfaces, the multiset is
        unchanged without re-harvesting anything.  When that fails
        (e.g. surfaces moved between pages, netting out), a full
        re-harvest compared by content settles it; that harvest is
        returned so a fallback to full derivation reuses it instead of
        harvesting the same dump twice.  An injected external lexicon
        never varies with the dump and is trivially stable.
        """
        if self._external_lexicon is not None:
            return True, None
        if not self.config.harvest_lexicon:
            return True, None  # Lexicon.base() does not depend on the dump
        if not diff.added and not diff.removed and all(
            sorted(_harvest_contributions(old_dump.get(page_id)))
            == sorted(_harvest_contributions(new_dump.get(page_id)))
            for page_id in diff.changed
        ):
            return True, None
        harvested = self._prepare_lexicon(new_dump)
        return harvested.same_content(old_lexicon), harvested

    def _advance_resources(
        self,
        old: SharedResources,
        old_dump: EncyclopediaDump,
        new_dump: EncyclopediaDump,
        diff: DumpDiff,
    ) -> SharedResources:
        """The previous resources advanced to *new_dump*, paying only for
        the diff's pages.  Caller guarantees the lexicon is unchanged
        (:meth:`_lexicon_stable`), which makes every step exact:

        - unchanged pages keep their previous segment lists verbatim,
        - changed/added pages segment through the previous segmenter
          (same lexicon → same results as a cold build) and are added
          to a clone of the previous PMI counts, from which changed/
          removed pages' old lists were first subtracted,
        - the flat corpus is re-assembled in new-dump page order.
        """
        pmi = old.pmi.clone()
        for page_id in (*diff.changed, *diff.removed):
            pmi.remove_corpus(old.page_segments[page_id])
        corpus: list[list[str]] = []
        page_segments: dict[str, list[list[str]]] = {}
        regenerate = diff.regenerate_ids()
        for page in new_dump:
            if page.page_id in regenerate:
                segments = old.segmenter.segment_corpus(
                    page.text_snippets()
                )
                pmi.add_corpus(segments)
            else:
                segments = old.page_segments[page.page_id]
            page_segments[page.page_id] = segments
            corpus.extend(segments)
        return SharedResources(
            lexicon=old.lexicon,
            segmenter=old.segmenter,
            tagger=old.tagger,
            recognizer=old.recognizer,
            pmi=pmi,
            corpus=corpus,
            titles={page.page_id: page.title for page in new_dump},
            page_segments=page_segments,
        )

    def _build_resources(
        self,
        dump: EncyclopediaDump,
        lexicon: Lexicon | None = None,
    ) -> SharedResources:
        """Derive everything from scratch; *lexicon*, when given, is a
        just-harvested lexicon for this exact dump (the incremental
        fallback hands its stability-check harvest over rather than
        paying for it twice)."""
        if lexicon is None:
            lexicon = self._prepare_lexicon(dump)
        segmenter = Segmenter(lexicon)
        tagger = POSTagger(lexicon)
        recognizer = (
            self._external_recognizer
            if self._external_recognizer is not None
            else NamedEntityRecognizer(lexicon)
        )
        corpus, page_segments = _segment_pages(segmenter, dump)
        pmi = PMIStatistics(smoothing=self.config.pmi_smoothing)
        pmi.add_corpus(corpus)
        titles = {page.page_id: page.title for page in dump}
        return SharedResources(
            lexicon=lexicon,
            segmenter=segmenter,
            tagger=tagger,
            recognizer=recognizer,
            pmi=pmi,
            corpus=corpus,
            titles=titles,
            page_segments=page_segments,
        )

    @staticmethod
    def _assemble(
        dump: EncyclopediaDump,
        relations: list[IsARelation],
        titles: dict[str, str],
    ) -> tuple[Taxonomy, list[tuple[str, str]]]:
        taxonomy = Taxonomy()
        aliases = _collect_aliases(dump)
        for relation in relations:
            if relation.hyponym_kind == "entity":
                page_title = titles.get(relation.hyponym)
                if page_title is None:
                    continue
                taxonomy.add_entity(
                    Entity(
                        page_id=relation.hyponym,
                        name=page_title,
                        aliases=aliases.get(relation.hyponym, ()),
                    )
                )
            taxonomy.add_relation(relation)
        return taxonomy, taxonomy.finalize()

    def _prepare_lexicon(self, dump: EncyclopediaDump) -> Lexicon:
        if self._external_lexicon is not None:
            return self._external_lexicon
        if self.config.harvest_lexicon:
            return harvest_lexicon(dump)
        return Lexicon.base()


def _segment_pages(
    segmenter: Segmenter, dump: EncyclopediaDump
) -> tuple[list[list[str]], dict[str, list[list[str]]]]:
    """The flat segmented corpus plus its per-page slices.

    The flat list is exactly ``segment_corpus(dump.text_corpus())`` —
    same order, same skip semantics — while the per-page mapping shares
    the same inner lists, giving incremental rebuilds their reuse and
    subtraction unit for free.
    """
    corpus: list[list[str]] = []
    page_segments: dict[str, list[list[str]]] = {}
    for page in dump:
        segments = segmenter.segment_corpus(page.text_snippets())
        page_segments[page.page_id] = segments
        corpus.extend(segments)
    return corpus, page_segments


def _harvest_contributions(page) -> list[tuple[str, int]]:
    """The lexicon entries one page feeds into :func:`harvest_lexicon`.

    The single source of truth for harvesting: the harvest loop *adds*
    exactly these (surface, weight) pairs, and the incremental build's
    lexicon-stability check compares their multisets — so the two can
    never drift apart.
    """
    contributions = [(page.title, 300)]
    contributions.extend(
        (tag, 200) for tag in page.tags if tag and len(tag) <= 8
    )
    contributions.extend((alias, 150) for alias in _page_aliases(page))
    return contributions


def harvest_lexicon(dump: EncyclopediaDump) -> Lexicon:
    """Base lexicon extended with surfaces harvested from the dump.

    Titles, tags and aliases go in the way real pipelines feed
    encyclopedia titles to jieba as a user dictionary.  Weights
    accumulate commutatively with a uniform POS, so the result is a
    pure function of the multiset of :func:`_harvest_contributions` —
    which is also what the incremental build's lexicon-stability check
    compares, making drift between the two impossible.

    That is also why each surface's weights can be summed over the dump
    first and the surface added once.  Surfaces are added in the order
    they are first seen in the dump, so the entries, their order, the
    prefixes, ``total`` and ``max_word_len`` all equal those of one
    ``add`` per contribution; only :attr:`Lexicon.version` differs.
    """
    weights: dict[str, int] = {}
    for page in dump:
        for word, freq in _harvest_contributions(page):
            weights[word] = weights.get(word, 0) + freq
    lexicon = Lexicon.base()
    for word, freq in weights.items():
        lexicon.add(word, freq, "n")
    return lexicon


def _page_aliases(page) -> tuple[str, ...]:
    return tuple(v for v in page.infobox_values("别名") if v)


def _collect_aliases(dump: EncyclopediaDump) -> dict[str, tuple[str, ...]]:
    return {
        page.page_id: _page_aliases(page)
        for page in dump
        if any(t.predicate == "别名" for t in page.infobox)
    }


def build_cn_probase(
    dump: EncyclopediaDump,
    config: PipelineConfig | None = None,
    lexicon: Lexicon | None = None,
    registry: StageRegistry | None = None,
) -> BuildResult:
    """One-call convenience wrapper around :class:`CNProbaseBuilder`."""
    return CNProbaseBuilder(
        config=config, lexicon=lexicon, registry=registry
    ).build(dump)
