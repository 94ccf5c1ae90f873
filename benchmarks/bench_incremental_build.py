"""Incremental rebuild equivalence + speedup — small-change refresh.

The PR-4 contract is absolute and asserted here, not just reported:

- ``build_incremental`` on a slightly-changed dump produces a taxonomy
  whose ``Taxonomy.save`` output is **byte-identical** to a full
  rebuild's,
- applying the emitted :class:`TaxonomyDelta` to the previous taxonomy
  reproduces those same bytes,
- the incremental refresh is **faster** than the full rebuild (the
  fast path reuses the previous build's segmenter — unchanged snippets
  replay from its Viterbi memo — recounts PMI exactly, and replays
  page-local generation for unchanged pages).

The perturbation is the realistic nightly shape: a small fraction of
pages get edited brackets/abstracts (entity descriptions evolve), which
keeps the harvested lexicon stable — the condition under which the
resource fast path engages.  Timings land in
``benchmarks/out/BENCH_parallel.json`` under ``"incremental_build"``.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

from repro.core.pipeline import (
    CNProbaseBuilder,
    PipelineConfig,
    PreviousBuild,
    ResourceCache,
)
from repro.encyclopedia import SyntheticWorld
from repro.encyclopedia.model import EncyclopediaDump
from repro.eval.report import render_table
from trajectory import merge_bench_json

N_ENTITIES = 1_200
EDIT_EVERY = 80  # ~1.25% of pages change between "nights"


def _config() -> PipelineConfig:
    return PipelineConfig(enable_abstract=False)


def perturbed(dump: EncyclopediaDump) -> EncyclopediaDump:
    """A nightly refresh: a few pages' brackets/abstracts edited."""
    pages = []
    for i, page in enumerate(dump.pages):
        if i % EDIT_EVERY == 7 and page.bracket:
            page = dataclasses.replace(
                page,
                bracket="中国著名" + page.bracket,
                abstract=page.abstract + "近年持续活跃。",
            )
        pages.append(page)
    return EncyclopediaDump(pages)


def test_incremental_build_benchmark(record, tmp_path):
    dump_v1 = SyntheticWorld.generate(seed=9, n_entities=N_ENTITIES).dump()
    dump_v2 = perturbed(dump_v1)
    diff = dump_v1.diff(dump_v2)
    assert not diff.is_empty and not diff.added and not diff.removed

    # the nightly process: one builder, warm resource cache
    builder = CNProbaseBuilder(_config(), resource_cache=ResourceCache())
    previous = builder.build(dump_v1)

    started = perf_counter()
    incremental = builder.build_incremental(
        dump_v2, PreviousBuild.from_result(dump_v1, previous)
    )
    incremental_seconds = perf_counter() - started

    # a cold full rebuild of the same new dump, for the baseline cost
    started = perf_counter()
    full = CNProbaseBuilder(
        _config(), resource_cache=ResourceCache()
    ).build(dump_v2)
    full_seconds = perf_counter() - started

    # -- the equivalence contract, asserted ------------------------------
    incremental_path = tmp_path / "incremental.jsonl"
    full_path = tmp_path / "full.jsonl"
    applied_path = tmp_path / "applied.jsonl"
    incremental.taxonomy.save(incremental_path)
    full.taxonomy.save(full_path)
    assert incremental_path.read_bytes() == full_path.read_bytes()

    previous.taxonomy.apply_delta(incremental.delta)
    previous.taxonomy.save(applied_path)
    assert applied_path.read_bytes() == full_path.read_bytes()

    # the fast path actually engaged and the refresh is cheaper
    assert incremental.resource_mode == "incremental"
    assert incremental.stage_trace.get("tag").cache_hit
    assert incremental_seconds < full_seconds, (
        f"incremental refresh ({incremental_seconds:.3f}s) not faster "
        f"than full rebuild ({full_seconds:.3f}s)"
    )

    speedup = full_seconds / incremental_seconds
    rows = [
        ["full rebuild (cold)", f"{full_seconds:.3f}", ""],
        [f"incremental ({diff.n_touched} pages changed)",
         f"{incremental_seconds:.3f}", f"{speedup:.2f}x"],
        ["byte-identical to full rebuild", "yes", ""],
        ["delta applies to previous exactly", "yes", ""],
    ]
    record(render_table(
        ["refresh", "seconds", "speedup"],
        rows,
        title=(
            f"Incremental rebuild — {N_ENTITIES:,}-entity world, "
            f"{diff.n_touched} edited pages"
        ),
    ))

    merge_bench_json("incremental_build", {
        "n_entities": N_ENTITIES,
        "pages_changed": diff.n_touched,
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "incremental_speedup": speedup,
        "resource_mode": incremental.resource_mode,
        "delta": incremental.delta.summary(),
        "identical_output": True,
    })
