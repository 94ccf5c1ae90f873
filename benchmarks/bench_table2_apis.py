"""Table II — the three public APIs and their usage statistics.

Paper (six months on Aliyun): men2ent 43,896,044 calls, getConcept
13,815,076, getEntity 25,793,372 — a 0.53 / 0.17 / 0.31 mix.  The
Table II call stream replays that mix at reduced volume against a
one-shard ``ShardedSnapshotStore`` over the built taxonomy, whose
metrics ledger counts the calls; the benchmarked unit is serving
throughput.
"""

from __future__ import annotations

import pytest

from repro.eval.report import format_count, format_percent, render_table
from repro.taxonomy.api import PAPER_API_MIX
from repro.serving import ShardedSnapshotStore
from repro.workloads import ArgumentPools, TableIICallStream, replay_calls

N_CALLS = 30_000


def _calls(taxonomy, seed: int, n_calls: int):
    pools = ArgumentPools.from_taxonomy(taxonomy)
    return TableIICallStream(pools, seed=seed).generate(n_calls)


@pytest.fixture(scope="module")
def served(cn_probase):
    service = ShardedSnapshotStore(cn_probase.taxonomy)
    return replay_calls(service, _calls(cn_probase.taxonomy, 2, N_CALLS))


def test_table2_benchmark(benchmark, cn_probase, served, record):
    service = ShardedSnapshotStore(cn_probase.taxonomy)
    calls = _calls(cn_probase.taxonomy, 3, 5_000)

    def serve() -> int:
        return replay_calls(service, calls).total_calls

    total = benchmark(serve)
    assert total >= 5_000

    latency = {name: served.latency(name) for name in PAPER_API_MIX}
    rows = []
    for name in ("men2ent", "getConcept", "getEntity"):
        rows.append([
            name,
            format_count(latency[name].calls),
            format_percent(latency[name].calls / served.total_calls),
            format_percent(PAPER_API_MIX[name]),
            format_percent(latency[name].hit_rate),
        ])
    record(render_table(
        ["API name", "calls", "mix", "paper mix", "hit rate"],
        rows,
        title=f"Table II — API usage over {N_CALLS:,} replayed calls",
    ))
    # mix shape: men2ent > getEntity > getConcept, matching the paper
    assert latency["men2ent"].calls > latency["getEntity"].calls
    assert latency["getEntity"].calls > latency["getConcept"].calls
    for name in ("men2ent", "getConcept", "getEntity"):
        assert latency[name].hit_rate > 0.8
