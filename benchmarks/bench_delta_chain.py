"""Delta chains — compose N nights into one publish, equivalence asserted.

The PR-5 chain-equivalence contract is absolute and asserted here, not
just reported: for a chain of nightly deltas d1..dN,

- applying ``compose([d1..dN])`` to the night-0 taxonomy saves
  **byte-identically** to applying the chain one delta at a time,
- and byte-identically to a cold full rebuild of the final night,
- and a sharded store that publishes the one composed delta answers
  exactly like one that published every night separately.

The payoff measured: a replica that missed N nights catches up with one
composed publish instead of N (fewer validations, fewer shard
republishes, one wire round trip) — the delta-aware replication path
(`ReplicatedRouter.publish_delta` + DeltaHistory) does exactly this.
Timings land in ``benchmarks/out/BENCH_parallel.json`` under
``"delta_chain"``.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import SyntheticWorld
from repro.encyclopedia.model import EncyclopediaDump
from repro.eval.report import render_table
from repro.serving.sharding import ShardedSnapshotStore
from repro.taxonomy.delta import TaxonomyDelta, compose
from trajectory import merge_bench_json

N_ENTITIES = 800
N_NIGHTS = 3
EDIT_EVERY = 60  # ~1.7% of pages edited per night


def _config() -> PipelineConfig:
    return PipelineConfig(enable_abstract=False)


def perturbed(dump: EncyclopediaDump, night: int) -> EncyclopediaDump:
    """Night *night*'s edits: a distinct slice of pages is touched."""
    pages = []
    for i, page in enumerate(dump.pages):
        if i % EDIT_EVERY == night and page.bracket:
            page = dataclasses.replace(
                page,
                bracket="知名" * night + page.bracket,
                abstract=page.abstract + f"第{night}夜更新。",
            )
        pages.append(page)
    return EncyclopediaDump(pages)


def test_delta_chain_benchmark(record, tmp_path):
    builder = CNProbaseBuilder(_config(), resource_cache=ResourceCache())
    dump = SyntheticWorld.generate(seed=11, n_entities=N_ENTITIES).dump()

    # night 0 and N nightly full builds (the deltas' ground truth)
    taxonomies = [builder.build(dump).taxonomy]
    for night in range(1, N_NIGHTS + 1):
        dump = perturbed(dump, night)
        started = perf_counter()
        taxonomies.append(builder.build(dump).taxonomy)
        cold_rebuild_seconds = perf_counter() - started  # keeps the last

    deltas = [
        TaxonomyDelta.compute(taxonomies[i], taxonomies[i + 1])
        for i in range(N_NIGHTS)
    ]
    assert all(not delta.is_empty for delta in deltas)

    # -- squash the chain -------------------------------------------------
    started = perf_counter()
    squashed = compose(deltas)
    compose_seconds = perf_counter() - started

    # -- apply: one-by-one vs composed ------------------------------------
    chained = taxonomies[0].copy()
    started = perf_counter()
    for delta in deltas:
        chained.apply_delta(delta)
    chain_apply_seconds = perf_counter() - started

    composed_applied = taxonomies[0].copy()
    started = perf_counter()
    composed_applied.apply_delta(squashed)
    composed_apply_seconds = perf_counter() - started

    # -- the chain-equivalence contract, asserted -------------------------
    chained_path = tmp_path / "chained.jsonl"
    composed_path = tmp_path / "composed.jsonl"
    cold_path = tmp_path / "cold.jsonl"
    chained.save(chained_path)
    composed_applied.save(composed_path)
    taxonomies[-1].save(cold_path)
    assert composed_path.read_bytes() == chained_path.read_bytes(), \
        "composed delta diverged from the one-by-one chain"
    assert composed_path.read_bytes() == cold_path.read_bytes(), \
        "composed delta diverged from the cold full rebuild"

    # -- serving side: N publishes vs one ---------------------------------
    nightly_store = ShardedSnapshotStore(taxonomies[0], n_shards=4)
    started = perf_counter()
    for delta in deltas:
        nightly_store.publish_delta(delta)
    nightly_publish_seconds = perf_counter() - started

    squashed_store = ShardedSnapshotStore(taxonomies[0], n_shards=4)
    started = perf_counter()
    squashed_store.publish_delta(squashed)
    squashed_publish_seconds = perf_counter() - started

    reference = ShardedSnapshotStore(taxonomies[-1], n_shards=4)
    probe_keys = sorted(taxonomies[-1].freeze().as_indexes()[0])[:64]
    for key in probe_keys:
        assert nightly_store.men2ent(key) == reference.men2ent(key)
        assert squashed_store.men2ent(key) == reference.men2ent(key)

    publish_speedup = (
        nightly_publish_seconds / squashed_publish_seconds
        if squashed_publish_seconds
        else float("inf")
    )
    chain_records = sum(delta.n_records for delta in deltas)
    rows = [
        [f"cold full rebuild (night {N_NIGHTS})",
         f"{cold_rebuild_seconds:.3f}", ""],
        [f"apply {N_NIGHTS} deltas one by one ({chain_records} records)",
         f"{chain_apply_seconds:.3f}", ""],
        [f"apply composed delta ({squashed.n_records} records)",
         f"{compose_seconds + composed_apply_seconds:.3f}",
         f"{chain_apply_seconds / (compose_seconds + composed_apply_seconds):.2f}x"],
        [f"{N_NIGHTS} sharded publishes",
         f"{nightly_publish_seconds:.3f}", ""],
        ["1 composed sharded publish",
         f"{squashed_publish_seconds:.3f}", f"{publish_speedup:.2f}x"],
        ["byte-identical (chain = composed = cold)", "yes", ""],
    ]
    record(render_table(
        ["path", "seconds", "speedup"],
        rows,
        title=(
            f"Delta chains — {N_ENTITIES:,}-entity world, "
            f"{N_NIGHTS} nights squashed into one delta"
        ),
    ))

    merge_bench_json("delta_chain", {
        "n_entities": N_ENTITIES,
        "n_nights": N_NIGHTS,
        "chain_records": chain_records,
        "composed_records": squashed.n_records,
        "cold_rebuild_seconds": cold_rebuild_seconds,
        "chain_apply_seconds": chain_apply_seconds,
        "compose_seconds": compose_seconds,
        "composed_apply_seconds": composed_apply_seconds,
        "nightly_publish_seconds": nightly_publish_seconds,
        "squashed_publish_seconds": squashed_publish_seconds,
        "publish_speedup": publish_speedup,
        "identical_output": True,
    })
