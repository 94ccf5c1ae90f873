"""Incremental-path smoke: build → diff → incremental rebuild → apply-delta.

Exercises the whole PR-4 refresh loop against the real deployment shape:

1. ``cn-probase build`` a v1 taxonomy from a dump (CLI subprocess),
2. perturb the dump (the nightly edit) and ``cn-probase diff`` it,
3. ``cn-probase build --incremental`` → new taxonomy + ``.delta.jsonl``,
   asserting the output is byte-identical to a full CLI build,
4. ``cn-probase serve`` the v1 taxonomy (subprocess, sharded), check
   that a delta file with one malformed record is refused with HTTP 400
   and the server stays on v1, then publish the delta through
   ``TaxonomyClient.apply_delta`` — only the touched shards may
   republish — verify the served answers changed accordingly and shut
   down.

Appends timings to ``benchmarks/out/BENCH_parallel.json`` under
``"incremental_roundtrip"``.

Run:  python benchmarks/smoke_incremental_roundtrip.py
(run_smoke.sh runs it after the serving round trip)
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "src"))

from smoke_serving_roundtrip import cli_env, wait_for_ready  # noqa: E402
from repro.encyclopedia import (  # noqa: E402
    EncyclopediaDump,
    load_dump,
    save_dump,
)
from repro.errors import APIError  # noqa: E402
from repro.serving import TaxonomyClient  # noqa: E402
from repro.taxonomy import Taxonomy, load_delta  # noqa: E402
from trajectory import merge_bench_json  # noqa: E402

ADMIN_TOKEN = "smoke-incremental-token"
N_ENTITIES = 500


def run_cli(*args: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=cli_env(),
        check=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def perturb_dump(src: Path, dst: Path) -> int:
    dump = load_dump(src)
    pages = []
    edited = 0
    for i, page in enumerate(dump.pages):
        if i % 50 == 3 and page.bracket:
            page = dataclasses.replace(
                page, bracket="中国著名" + page.bracket
            )
            edited += 1
        pages.append(page)
    save_dump(EncyclopediaDump(pages), dst)
    return edited


def main() -> None:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        dump_v1 = tmp_path / "dump-v1.jsonl"
        dump_v2 = tmp_path / "dump-v2.jsonl"
        taxonomy_v1 = tmp_path / "taxonomy-v1.jsonl"
        taxonomy_v2 = tmp_path / "taxonomy-v2.jsonl"
        taxonomy_full = tmp_path / "taxonomy-full.jsonl"

        # build v1, perturb, diff
        run_cli("generate", "--entities", str(N_ENTITIES), "--seed", "5",
                "--out", str(dump_v1))
        run_cli("build", "--dump", str(dump_v1), "--out", str(taxonomy_v1),
                "--no-abstract")
        edited = perturb_dump(dump_v1, dump_v2)
        assert edited > 0
        run_cli("diff", str(dump_v1), str(dump_v2))

        # incremental rebuild: byte-identical to a full rebuild + delta
        incremental_started = time.perf_counter()
        run_cli("build", "--dump", str(dump_v2), "--out", str(taxonomy_v2),
                "--no-abstract", "--incremental",
                "--previous", str(taxonomy_v1),
                "--previous-dump", str(dump_v1))
        incremental_seconds = time.perf_counter() - incremental_started
        run_cli("build", "--dump", str(dump_v2), "--out",
                str(taxonomy_full), "--no-abstract")
        assert taxonomy_v2.read_bytes() == taxonomy_full.read_bytes(), \
            "incremental CLI build must be byte-identical to a full build"
        delta_path = Path(f"{taxonomy_v2}.delta.jsonl")
        assert delta_path.exists(), "incremental build must write the delta"

        # serve v1, publish the delta, verify the served answers moved
        ready_file = tmp_path / "ready"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(taxonomy_v1),
                "--shards", "4", "--port", "0",
                "--admin-token", ADMIN_TOKEN,
                "--ready-file", str(ready_file),
            ],
            env=cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = wait_for_ready(ready_file, process)
            with TaxonomyClient(url, admin_token=ADMIN_TOKEN) as client:
                assert client.healthz()["version"] == "v1"

                delta = load_delta(delta_path)
                probe_concept = next(
                    (r.hypernym for r in delta.relations_added
                     if r.hyponym_kind == "entity"),
                    None,
                )
                before = (
                    client.get_entities(probe_concept)
                    if probe_concept else None
                )

                # a malformed record is the sender's error: 400, v1 kept
                bad_path = tmp_path / "malformed.delta.jsonl"
                bad_path.write_text(
                    delta_path.read_text(encoding="utf-8")
                    + '{"kind": "relation_change", "old": "x", "new": "y"}\n',
                    encoding="utf-8",
                )
                try:
                    client.apply_delta(str(bad_path))
                except APIError as exc:
                    assert "HTTP 400" in str(exc), exc
                else:
                    raise AssertionError("a malformed delta was applied")
                assert client.healthz()["version"] == "v1"

                apply_started = time.perf_counter()
                applied = client.apply_delta(str(delta_path))
                apply_seconds = time.perf_counter() - apply_started
                assert applied["applied"], applied
                assert applied["version"] == "v2", applied
                shard_versions = applied["shard_versions"]
                assert len(shard_versions) == 4 and "v2" in shard_versions

                # the delta's content is actually being served now
                if probe_concept is not None:
                    after = client.get_entities(probe_concept)
                    assert after != before or delta.is_empty

                client.shutdown_server()
                process.wait(timeout=15)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    total_seconds = time.perf_counter() - started
    untouched = sum(1 for v in shard_versions if v == "v1")
    merge_bench_json("incremental_roundtrip", {
        "entities": N_ENTITIES,
        "pages_edited": edited,
        "incremental_cli_seconds": incremental_seconds,
        "apply_delta_seconds": apply_seconds,
        "shard_versions": shard_versions,
        "untouched_shards": untouched,
        "total_seconds": total_seconds,
        "round_trip": "build->diff->incremental->apply-delta->serve",
        "ok": True,
    })
    print(f"incremental round trip ok: {edited} pages edited, "
          f"delta applied over HTTP in {apply_seconds * 1e3:.0f}ms "
          f"({untouched}/4 shards untouched), "
          f"{total_seconds:.1f}s end to end")


if __name__ == "__main__":
    main()
