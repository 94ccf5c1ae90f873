"""Exposition-parity smoke: JSON `/metrics` vs Prometheus text.

Both expositions render from the same registry snapshot, so any
metric present in the JSON payload must also appear in
``GET /metrics?format=text`` — a writer registered on only one side
(or a renderer silently dropping a family) fails this gate.  Runs
against a live in-process cluster server with real traffic (queries,
a batch with a probe and a miss in it, a traced request, an admin
scrape) so the registry holds every kind of family: counters,
summaries, and weakref'd component collectors.  Both expositions must
also count exactly the ``men2ent`` calls and hits the smoke sent,
probes excluded.

Run:  python benchmarks/smoke_metrics_parity.py
(run_smoke.sh runs it after the chaos-replication smoke)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "src"))

from repro.core.pipeline import PipelineConfig, build_cn_probase  # noqa: E402
from repro.encyclopedia import SyntheticWorld  # noqa: E402
from repro.obs import fresh_hub  # noqa: E402
from repro.serving import TaxonomyClient, build_cluster  # noqa: E402
from repro.serving.server import start_server  # noqa: E402
from repro.taxonomy.service import PROBE_KEY  # noqa: E402

ADMIN_TOKEN = "parity-smoke-token"

#: families the serving stack is expected to publish — a rename or a
#: dropped writer shows up here, not just as a parity mismatch
EXPECTED_METRICS = {
    "http_requests_total",
    "http_request_seconds",
    "serving_api_calls_total",
    "serving_api_latency_seconds",
}


def main() -> None:
    world = SyntheticWorld.generate(seed=7, n_entities=400)
    taxonomy = build_cn_probase(
        world.dump(), PipelineConfig(enable_abstract=False)
    ).taxonomy
    mentions = sorted(taxonomy.freeze().as_indexes()[0])
    mention = mentions[0]
    # real mentions with one probe and one miss among them
    batch = mentions[1:4] + [PROBE_KEY, "no-such-mention-in-batch"]

    with fresh_hub() as hub:
        router = build_cluster(taxonomy, shards=2, replicas=1, hub=hub)
        server = start_server(
            router, port=0, admin_token=ADMIN_TOKEN, hub=hub
        )
        client = TaxonomyClient(server.url, admin_token=ADMIN_TOKEN)
        try:
            # Traffic so every family kind has samples: plain queries
            # (counters + latency summaries), a traced query (span
            # plumbing), a miss, health + admin scrapes.
            for _ in range(20):
                client.men2ent(mention)
            client.men2ent("no-such-mention-xyz")
            answers = client.men2ent_batch(batch)
            client.healthz()
            client.fetch_traces(limit=5)

            payload = client.server_metrics()
            names = set(payload["metrics"])
            text = client.server_metrics_text()
        finally:
            client.close()
            server.close()

    missing_families = EXPECTED_METRICS - names
    assert not missing_families, (
        f"JSON /metrics payload lost expected families: "
        f"{sorted(missing_families)}"
    )

    unexposed = sorted(
        name for name in names if f"# TYPE {name} " not in text
    )
    assert not unexposed, (
        f"Prometheus exposition is missing JSON-payload metrics: "
        f"{unexposed}"
    )

    # and the reverse: text never invents families the JSON lacks
    text_families = set(re.findall(r"^# TYPE (\S+) ", text, re.MULTILINE))
    phantom = sorted(text_families - names)
    assert not phantom, f"text exposition has phantom families: {phantom}"

    # summaries must expose quantile series in text form
    assert 'quantile="0.5"' in text and "_count" in text and "_sum" in text

    # the men2ent ledger counts every non-probe call and hit it served
    sent = [
        (argument, bool(answer))
        for argument, answer in zip(batch, answers)
        if argument != PROBE_KEY
    ]
    assert {hit for _, hit in sent} == {True, False}, sent
    calls = 20 + 1 + len(sent)
    hits = 20 + sum(hit for _, hit in sent)
    expected = {
        "serving_api_calls_total": calls,
        "serving_api_hits_total": hits,
        "serving_api_latency_seconds_count": calls,
    }
    metrics = payload["metrics"]
    json_counts = {
        "serving_api_calls_total": men2ent_values(
            metrics["serving_api_calls_total"], "value"
        ),
        "serving_api_hits_total": men2ent_values(
            metrics["serving_api_hits_total"], "value"
        ),
        "serving_api_latency_seconds_count": men2ent_values(
            metrics["serving_api_latency_seconds"], "count"
        ),
    }
    for series, want in expected.items():
        for exposition, counts in (
            ("JSON", json_counts[series]),
            ("text", men2ent_text_values(text, series)),
        ):
            assert "store" in counts, (
                f"{exposition} exposition has no server-side {series}"
            )
            wrong = {
                component: value for component, value in counts.items()
                if value != want
            }
            assert not wrong, (
                f"{exposition} {series}{{api=\"men2ent\"}} read {wrong}, "
                f"but the smoke sent {want}"
            )

    print(
        f"metrics parity ok: {len(names)} families in both expositions "
        f"({len(text.splitlines())} text lines); men2ent counts "
        f"{calls} calls, {hits} hits in both"
    )


def men2ent_values(family: dict, field: str) -> dict[str, float]:
    """``{component: sample[field]}`` for a JSON family's men2ent samples."""
    return {
        sample["labels"]["component"]: sample[field]
        for sample in family["samples"]
        if sample["labels"].get("api") == "men2ent"
    }


def men2ent_text_values(text: str, series: str) -> dict[str, float]:
    """``{component: value}`` for a text series' men2ent lines."""
    values = {}
    for labels, value in re.findall(
        rf"^{series}\{{([^}}]*)\}} (\S+)$", text, re.MULTILINE
    ):
        pairs = dict(re.findall(r'(\w+)="([^"]*)"', labels))
        if pairs.get("api") == "men2ent":
            values[pairs["component"]] = float(value)
    return values


if __name__ == "__main__":
    main()
