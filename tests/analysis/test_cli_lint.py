"""`cn-probase lint` end to end: exit codes, formats, baselines, bench."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def violating_tree(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "jittery.py").write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n",
        encoding="utf-8",
    )
    (root / "clean.py").write_text(
        "from random import Random\n\nrng = Random(7)\n", encoding="utf-8"
    )
    return root


def test_shipped_tree_is_clean(capsys):
    # the acceptance bar: all three checkers over the installed package,
    # exit 0 — pragmas and the shipped baseline account for everything
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 new finding(s)" in out


def test_shipped_tree_json_reports_all_three_checkers(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings_new"] == 0
    assert set(payload["checkers"]) == {
        "determinism", "lock-discipline", "error-taxonomy",
    }
    assert payload["modules_scanned"] > 50


def test_synthetic_violation_fails(violating_tree, capsys):
    assert main(["lint", "--path", str(violating_tree)]) == 1
    out = capsys.readouterr().out
    assert "jittery.py" in out
    assert "unseeded global RNG" in out


def test_json_format_lists_finding_sites(violating_tree, capsys):
    assert main(["lint", "--path", str(violating_tree),
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings_new"] == 1
    (finding,) = payload["findings"]
    assert finding["path"] == "jittery.py"
    assert finding["checker"] == "determinism"


def test_select_limits_the_checkers(violating_tree, capsys):
    assert main(["lint", "--path", str(violating_tree),
                 "--select", "lock-discipline,error-taxonomy"]) == 0
    assert main(["lint", "--select", "nonsense"]) == 2
    assert "unknown checker id" in capsys.readouterr().err
    # the deprecation checker went with the shims it guarded, and the
    # pickle-safety checker with the process pool
    assert main(["lint", "--select", "deprecation"]) == 2
    assert "unknown checker id" in capsys.readouterr().err
    assert main(["lint", "--select", "pickle-safety"]) == 2
    assert "unknown checker id" in capsys.readouterr().err


def test_write_baseline_then_baseline_suppresses(violating_tree, tmp_path,
                                                 capsys):
    baseline = tmp_path / "grandfathered.json"
    assert main(["lint", "--path", str(violating_tree),
                 "--write-baseline", str(baseline)]) == 1
    capsys.readouterr()
    assert main(["lint", "--path", str(violating_tree),
                 "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # a fresh violation is NOT hidden by the old baseline
    (violating_tree / "clean.py").write_text(
        "import random\nx = random.choice([1])\n", encoding="utf-8"
    )
    assert main(["lint", "--path", str(violating_tree),
                 "--baseline", str(baseline)]) == 1


def test_no_baseline_reports_grandfathered_debt(capsys):
    # the shipped tree carries baselined debt; --no-baseline exposes it
    assert main(["lint", "--no-baseline"]) == 1
    assert "error-taxonomy" in capsys.readouterr().out


def test_broken_baseline_is_a_driver_error(violating_tree, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["lint", "--path", str(violating_tree),
                 "--baseline", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_json_lands_static_analysis_section(violating_tree, tmp_path,
                                                  capsys):
    bench = tmp_path / "BENCH.json"
    bench.write_text('{"other": {"kept": true}}', encoding="utf-8")
    assert main(["lint", "--path", str(violating_tree),
                 "--bench-json", str(bench)]) == 1
    capsys.readouterr()
    data = json.loads(bench.read_text(encoding="utf-8"))
    assert data["other"] == {"kept": True}  # merged, not clobbered
    section = data["static_analysis"]
    assert section["findings_new"] == 1
    assert section["checkers"]["determinism"]["new"] == 1
    assert "findings" not in section  # the trajectory tracks counts
