"""Tests for the cn-probase command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """One generate→build flow shared by the query/stats tests."""
    root = tmp_path_factory.mktemp("cli")
    dump_path = root / "dump.jsonl"
    taxonomy_path = root / "taxonomy.jsonl"
    assert main([
        "generate", "--entities", "300", "--seed", "3",
        "--out", str(dump_path),
    ]) == 0
    assert main([
        "build", "--dump", str(dump_path), "--out", str(taxonomy_path),
        "--no-abstract",
    ]) == 0
    return dump_path, taxonomy_path


class TestGenerate:
    def test_writes_dump(self, artefacts):
        dump_path, _ = artefacts
        assert dump_path.exists()
        assert dump_path.stat().st_size > 0

    def test_generate_output_loadable(self, artefacts):
        from repro.encyclopedia import load_dump

        dump_path, _ = artefacts
        assert len(load_dump(dump_path)) >= 300


class TestBuild:
    def test_writes_taxonomy(self, artefacts):
        _, taxonomy_path = artefacts
        from repro.taxonomy import Taxonomy

        taxonomy = Taxonomy.load(taxonomy_path)
        assert taxonomy.stats().n_isa_total > 0

    def test_build_missing_dump_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "build", "--dump", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "t.jsonl"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_build_on_a_dump_line_that_is_not_an_object_exits_2(
        self, tmp_path, capsys
    ):
        dump_path = tmp_path / "dump.jsonl"
        dump_path.write_text('["a"]\n', encoding="utf-8")
        code = main([
            "build", "--dump", str(dump_path),
            "--out", str(tmp_path / "t.jsonl"), "--no-abstract",
        ])
        assert code == 2
        assert f"error: {dump_path}:1: " in capsys.readouterr().err

    def test_build_on_a_wrong_typed_page_field_exits_2(
        self, artefacts, tmp_path, capsys
    ):
        # refused at load, with its place: not a traceback from save
        # after a whole build
        dump_path, _ = artefacts
        lines = dump_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record["page_id"] = 5
        lines[2] = json.dumps(record, ensure_ascii=False)
        bad_dump = tmp_path / "dump.jsonl"
        bad_dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "t.jsonl"
        code = main([
            "build", "--dump", str(bad_dump), "--out", str(out),
            "--no-abstract",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_dump}:3: page page_id must be a")
        assert "Traceback" not in err
        assert not out.exists()


class TestStats:
    def test_prints_counts(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        assert main(["stats", "--taxonomy", str(taxonomy_path)]) == 0
        out = capsys.readouterr().out
        assert "isa_relations_total" in out


class TestQuery:
    def test_get_entity(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        code = main([
            "query", "--taxonomy", str(taxonomy_path), "getEntity", "人物",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()

    def test_men2ent_round_trip(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        main(["query", "--taxonomy", str(taxonomy_path), "getEntity", "人物"])
        page_id = capsys.readouterr().out.splitlines()[0]
        mention = page_id.split("#")[0]
        code = main([
            "query", "--taxonomy", str(taxonomy_path), "men2ent", mention,
        ])
        assert code == 0
        assert page_id in capsys.readouterr().out

    def test_unknown_argument_returns_nonzero(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        code = main([
            "query", "--taxonomy", str(taxonomy_path), "men2ent", "不存在词",
        ])
        assert code == 1
        assert "(no results)" in capsys.readouterr().out

    def test_get_concept(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        main(["query", "--taxonomy", str(taxonomy_path), "getEntity", "人物"])
        page_id = capsys.readouterr().out.splitlines()[0]
        code = main([
            "query", "--taxonomy", str(taxonomy_path), "getConcept", page_id,
        ])
        assert code == 0
        assert "人物" in capsys.readouterr().out

    def test_empty_argument_exits_2(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        for api in ("men2ent", "getConcept", "getEntity"):
            code = main(["query", "--taxonomy", str(taxonomy_path), api, ""])
            assert code == 2
            assert "non-empty" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_api_name_exits(self, artefacts):
        _, taxonomy_path = artefacts
        with pytest.raises(SystemExit):
            main(["query", "--taxonomy", str(taxonomy_path), "badApi", "x"])


class TestStages:
    def test_lists_all_builtin_stages(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        for name in ("bracket", "abstract", "infobox", "tag",
                     "syntax", "ner", "incompatible"):
            assert name in out
        assert "builtin" in out
        assert "yes" in out

    def test_build_disable_stage(self, artefacts, tmp_path, capsys):
        dump_path, _ = artefacts
        out_path = tmp_path / "t.jsonl"
        code = main([
            "build", "--dump", str(dump_path), "--out", str(out_path),
            "--no-abstract", "--disable-stage", "ner",
            "--disable-stage", "infobox",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert "stage bracket (source)" in out
        assert "stage ner" not in out
        assert "stage infobox" not in out

    def test_build_unknown_stage_fails_cleanly(self, artefacts, tmp_path,
                                               capsys):
        dump_path, _ = artefacts
        code = main([
            "build", "--dump", str(dump_path),
            "--out", str(tmp_path / "t.jsonl"),
            "--no-abstract", "--disable-stage", "bogus",
        ])
        assert code == 2
        assert "unknown stage" in capsys.readouterr().err


class TestTraceSidecar:
    def test_build_writes_trace(self, artefacts):
        import json

        _, taxonomy_path = artefacts
        trace_path = taxonomy_path.parent / (taxonomy_path.name + ".trace.json")
        assert trace_path.exists()
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert "bracket" in trace["stages"]
        record = trace["stages"]["bracket"]
        assert {"kind", "seconds", "count", "ran", "cache_hit"} <= set(record)

    def test_stages_prints_trace_columns(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        trace_path = taxonomy_path.parent / (taxonomy_path.name + ".trace.json")
        assert main(["stages", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "cache" in out
        assert "bracket" in out and "total:" in out

    def test_stages_missing_trace_fails_cleanly(self, tmp_path, capsys):
        code = main(["stages", "--trace", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_stages_non_trace_json_fails_cleanly(self, artefacts, capsys):
        _, taxonomy_path = artefacts
        # pointing --trace at the taxonomy itself (the easy slip)
        code = main(["stages", "--trace", str(taxonomy_path)])
        assert code == 2
        assert "not a build trace sidecar" in capsys.readouterr().err


class TestServe:
    """cn-probase serve + TaxonomyClient: the acceptance round trip."""

    def test_serve_imports_leave_the_build_stack_out(self):
        """A serving process loads neither numpy nor the build pipeline."""
        import repro

        code = (
            "import sys, repro.cli, repro.serving.server\n"
            "build = {'repro.core', 'repro.neural', 'repro.nlp',"
            " 'repro.encyclopedia'}\n"
            "print(sorted(name for name in sys.modules"
            " if name.split('.')[0] == 'numpy'"
            " or '.'.join(name.split('.')[:2]) in build))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        loaded = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert loaded.strip() == "[]"

    def test_serve_query_swap_query_shutdown(self, artefacts, tmp_path):
        import threading
        import time

        from repro.serving import TaxonomyClient
        from repro.taxonomy import Taxonomy

        _, taxonomy_path = artefacts
        taxonomy = Taxonomy.load(taxonomy_path)
        mention = sorted(taxonomy.freeze().as_indexes()[0])[0]
        ready_file = tmp_path / "ready"
        exit_codes: list[int] = []

        def run_cli() -> None:
            exit_codes.append(main([
                "serve", str(taxonomy_path),
                "--shards", "2", "--replicas", "2",
                "--port", "0",
                "--admin-token", "cli-test-token",
                "--ready-file", str(ready_file),
            ]))

        # a stale marker from a "crashed" predecessor: the real server
        # must overwrite it, and readers must not trust it (wrong pid)
        import json
        import os
        ready_file.write_text(
            json.dumps({"pid": 999999999, "host": "127.0.0.1", "port": 1})
        )

        # daemon: a failed assertion below must not leave a live serve
        # thread blocking interpreter exit
        thread = threading.Thread(target=run_cli, daemon=True)
        thread.start()
        client = None
        try:
            deadline = time.monotonic() + 30

            def ready_payload():
                if not ready_file.exists():
                    return None
                try:
                    payload = json.loads(ready_file.read_text())
                except (ValueError, OSError):
                    return None  # mid-write or garbage: keep waiting
                # the CLI runs in-process here, so a valid marker names
                # our own pid — the stale seed above never does
                if payload.get("pid") != os.getpid():
                    return None
                return payload

            while ready_payload() is None:
                assert time.monotonic() < deadline, "server never came up"
                assert thread.is_alive(), f"serve exited: {exit_codes}"
                time.sleep(0.02)
            payload = ready_payload()
            host, port = payload["host"], payload["port"]
            client = TaxonomyClient(
                f"http://{host}:{port}", admin_token="cli-test-token"
            )

            # query (v1)
            assert client.healthz() == {
                "status": "ok", "version": "v1", "shards": 2,
            }
            v1_answer = client.men2ent(mention)
            assert v1_answer == taxonomy.men2ent(mention)

            # swap to a taxonomy where the mention answers differently
            rebuilt = Taxonomy()
            rebuilt_path = tmp_path / "rebuilt.jsonl"
            rebuilt.save(rebuilt_path)
            assert client.swap(str(rebuilt_path)) == {
                "swapped": True, "version": "v2",
            }

            # query (v2): all shards republished, answers flipped
            assert client.version()["shard_versions"] == ["v2", "v2"]
            assert client.men2ent(mention) == []

            # shutdown ends the foreground CLI cleanly and removes the
            # readiness marker, so orchestration never sees a dead
            # server as ready
            client.shutdown_server()
            thread.join(timeout=15)
            assert not ready_file.exists()
        finally:
            if thread.is_alive() and client is not None:
                try:  # best-effort teardown after a mid-test failure
                    client.shutdown_server()
                except Exception:
                    pass
                thread.join(timeout=15)
            if client is not None:
                client.close()
        assert not thread.is_alive()
        assert exit_codes == [0]


class TestDiff:
    def test_identical_dumps(self, artefacts, capsys):
        dump_path, _ = artefacts
        assert main(["diff", str(dump_path), str(dump_path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_reports_changes_and_writes_json(self, artefacts, tmp_path, capsys):
        import dataclasses
        import json

        from repro.encyclopedia import (
            EncyclopediaDump,
            load_dump,
            save_dump,
        )

        dump_path, _ = artefacts
        dump = load_dump(dump_path)
        pages = list(dump.pages)
        pages[0] = dataclasses.replace(pages[0], abstract="改动后的摘要。")
        edited_path = tmp_path / "edited.jsonl"
        save_dump(EncyclopediaDump(pages[:-1]), edited_path)
        json_path = tmp_path / "diff.json"
        assert main([
            "diff", str(dump_path), str(edited_path),
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "changed: 1" in out
        assert "removed: 1" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["changed"] == [pages[0].page_id]
        assert len(payload["removed"]) == 1

    def test_missing_dump_fails_cleanly(self, artefacts, tmp_path, capsys):
        dump_path, _ = artefacts
        code = main(["diff", str(dump_path), str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestIncrementalBuild:
    def test_incremental_matches_full_and_writes_delta(
        self, artefacts, tmp_path, capsys
    ):
        import dataclasses

        from repro.encyclopedia import EncyclopediaDump, load_dump, save_dump
        from repro.taxonomy import Taxonomy, load_delta

        dump_path, taxonomy_path = artefacts
        dump = load_dump(dump_path)
        pages = [
            dataclasses.replace(p, bracket="中国著名" + p.bracket)
            if i % 60 == 3 and p.bracket else p
            for i, p in enumerate(dump.pages)
        ]
        new_dump_path = tmp_path / "new-dump.jsonl"
        save_dump(EncyclopediaDump(pages), new_dump_path)

        incremental_path = tmp_path / "incremental.jsonl"
        assert main([
            "build", "--dump", str(new_dump_path),
            "--out", str(incremental_path), "--no-abstract",
            "--incremental", "--previous", str(taxonomy_path),
            "--previous-dump", str(dump_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "dump diff:" in out
        assert "wrote delta to" in out

        full_path = tmp_path / "full.jsonl"
        assert main([
            "build", "--dump", str(new_dump_path),
            "--out", str(full_path), "--no-abstract",
        ]) == 0
        assert incremental_path.read_bytes() == full_path.read_bytes()

        delta_path = incremental_path.with_name(
            incremental_path.name + ".delta.jsonl"
        )
        assert delta_path.exists()
        previous = Taxonomy.load(taxonomy_path)
        previous.apply_delta(load_delta(delta_path))
        applied_path = tmp_path / "applied.jsonl"
        previous.save(applied_path)
        assert applied_path.read_bytes() == full_path.read_bytes()

    def test_incremental_without_previous_fails_cleanly(
        self, artefacts, tmp_path, capsys
    ):
        dump_path, _ = artefacts
        code = main([
            "build", "--dump", str(dump_path),
            "--out", str(tmp_path / "t.jsonl"), "--no-abstract",
            "--incremental",
        ])
        assert code == 2
        assert "--previous" in capsys.readouterr().err


class TestDeltaSquash:
    def _worlds(self):
        from repro.taxonomy.model import Entity, IsARelation
        from repro.taxonomy import Taxonomy

        def world(generation):
            t = Taxonomy()
            t.add_entity(Entity("刘德华#0", "刘德华"))
            t.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
            for n in range(generation):
                t.add_entity(Entity(f"新星{n}#0", f"新星{n}"))
                t.add_relation(IsARelation(f"新星{n}#0", "歌手", "tag"))
            return t

        return [world(g) for g in range(3)]

    def test_squash_round_trip(self, tmp_path, capsys):
        from repro.taxonomy.delta import TaxonomyDelta, load_delta, save_delta

        w0, w1, w2 = self._worlds()
        d1_path, d2_path = tmp_path / "n1.jsonl", tmp_path / "n2.jsonl"
        save_delta(TaxonomyDelta.compute(w0, w1), d1_path)
        save_delta(TaxonomyDelta.compute(w1, w2), d2_path)
        out_path = tmp_path / "squashed.jsonl"

        code = main([
            "delta-squash", str(d1_path), str(d2_path),
            "-o", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "squashed 2 deltas" in out

        applied = w0
        applied.apply_delta(load_delta(out_path))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        applied.save(a)
        w2.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unchained_inputs_fail_cleanly(self, tmp_path, capsys):
        from repro.taxonomy.delta import TaxonomyDelta, save_delta

        w0, w1, _ = self._worlds()
        d1_path = tmp_path / "n1.jsonl"
        save_delta(TaxonomyDelta.compute(w0, w1), d1_path)
        code = main([  # the same night twice: the second add cannot
            # apply to the state the first one leaves
            "delta-squash", str(d1_path), str(d1_path),
            "-o", str(tmp_path / "out.jsonl"),
        ])
        assert code == 2
        assert "do not chain" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()
