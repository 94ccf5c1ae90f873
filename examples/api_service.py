"""Serve a built taxonomy over real HTTP and query it with the SDK.

Launches the full :mod:`repro.serving` stack — a
:class:`ShardedSnapshotStore` split over 4 key-hashed shards, a
replication-aware router (2 replicas per shard), and the stdlib HTTP
server — then drives the paper's Table-II call mix through
:class:`TaxonomyClient` over the wire, hot-swaps a rebuilt taxonomy
through the authenticated ``/admin/swap`` endpoint with zero downtime,
and prints both ledgers (client-side wire latency with p50/p95/p99
tails, server-side cluster metrics).

Run:  python examples/api_service.py
"""

import tempfile
from pathlib import Path

from repro.core.pipeline import PipelineConfig, build_cn_probase
from repro.encyclopedia import SyntheticWorld
from repro.eval.report import format_count, format_percent, render_table
from repro.serving import TaxonomyClient, build_cluster, start_server
from repro.workloads import ArgumentPools, TableIICallStream, replay_calls

ADMIN_TOKEN = "example-admin-token"
SHARDS = 4
REPLICAS = 2
N_CALLS = 4_000
BATCH_SIZE = 32


def main() -> None:
    world = SyntheticWorld.generate(seed=5, n_entities=1200)
    result = build_cn_probase(
        world.dump(), PipelineConfig(enable_abstract=False)
    )

    service = build_cluster(
        result.taxonomy, shards=SHARDS, replicas=REPLICAS
    )
    server = start_server(service, port=0, admin_token=ADMIN_TOKEN)
    client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
    try:
        health = client.healthz()
        print(f"cluster up at {server.url}: "
              f"version {health['version']}, {health['shards']} shards, "
              f"{REPLICAS} replicas/shard "
              f"({result.taxonomy.stats().n_isa_total} isA relations)")

        print(f"replaying {2 * N_CALLS:,} API calls over HTTP with the "
              f"paper's call mix (batches of {BATCH_SIZE})...")
        stream = TableIICallStream(
            ArgumentPools.from_taxonomy(result.taxonomy),
            seed=1, miss_rate=0.05,
        )
        replay_calls(client, stream.generate(N_CALLS), batch_size=BATCH_SIZE)

        # A rebuild lands: save it where the server can load it, then
        # publish it atomically through the admin API.  In-flight
        # batches finish on the version they pinned; the ledgers below
        # span both versions.
        new_world = SyntheticWorld.generate(seed=6, n_entities=1200)
        rebuilt = build_cn_probase(
            new_world.dump(), PipelineConfig(enable_abstract=False)
        )
        with tempfile.TemporaryDirectory() as tmp:
            rebuilt_path = Path(tmp) / "rebuilt.jsonl"
            rebuilt.taxonomy.save(rebuilt_path)
            swapped = client.swap(str(rebuilt_path))
        print(f"hot-swapped to {swapped['version']} via /admin/swap "
              "(all shards republished in one atomic assignment)")

        stream = TableIICallStream(
            ArgumentPools.from_taxonomy(rebuilt.taxonomy),
            seed=2, miss_rate=0.05,
        )
        replay_calls(client, stream.generate(N_CALLS), batch_size=BATCH_SIZE)

        metrics = client.metrics
        rows = [
            [name,
             format_count(entry.calls),
             format_percent(entry.calls / metrics.total_calls),
             format_percent(entry.hit_rate),
             f"{entry.p50_seconds * 1e6:.0f}",
             f"{entry.p95_seconds * 1e6:.0f}",
             f"{entry.p99_seconds * 1e6:.0f}"]
            for name, entry in (
                (n, metrics.latency(n))
                for n in ("men2ent", "getConcept", "getEntity")
            )
        ]
        print()
        print(render_table(
            ["API name", "calls", "mix", "hit rate",
             "p50 µs", "p95 µs", "p99 µs"],
            rows,
            title="Table II (replayed over HTTP) — client wire latency",
        ))

        remote = client.server_metrics()
        print(f"\nserver ledger: {remote['total_calls']:,} calls served, "
              f"{remote['swaps']} swap(s), now at {remote['version']}")
        if "router" in remote:
            stats = remote["router"]["stats"]
            print(f"router: {stats['attempts']:,} replica attempts, "
                  f"{stats['failovers']} failovers")

        # A couple of live queries for flavour, over the wire.
        entity = next(
            e for e in new_world.entities
            if rebuilt.taxonomy.has_entity(e.page_id)
        )
        print(f"\nlive: men2ent({entity.name!r}) = "
              f"{client.men2ent(entity.name)}")
        batch = [
            e.name for e in new_world.entities[1:20]
            if rebuilt.taxonomy.has_entity(e.page_id)
        ][:3]
        print(f"live: men2ent_batch({batch!r}) = "
              f"{client.men2ent_batch(batch)}")

        client.shutdown_server()
        print("\nserver shut down over /admin/shutdown")
    finally:
        client.close()
        server.close()


if __name__ == "__main__":
    main()
