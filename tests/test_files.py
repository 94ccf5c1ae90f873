"""Every file the program writes goes through one atomic writer.

A write that fails midway (here: a disk that fills after half of the
first piece) must leave the previous file as it was and no temp file
behind, whichever program path wrote it.
"""

import errno
from pathlib import Path

import pytest

import repro.files
from repro.analysis.framework import Baseline
from repro.cli import main
from repro.encyclopedia import SyntheticWorld, save_dump
from repro.eval.report import merge_bench_entry
from repro.taxonomy import Entity, IsARelation, Taxonomy, TaxonomyDelta
from repro.taxonomy import save_delta

PREVIOUS = '{"previous": true}\n'


def small_taxonomy() -> Taxonomy:
    taxonomy = Taxonomy()
    taxonomy.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    taxonomy.add_relation(IsARelation("刘德华#0", "演员", "bracket"))
    return taxonomy


def small_dump(tmp_path: Path) -> Path:
    path = tmp_path / "dump.jsonl"
    save_dump(SyntheticWorld.generate(seed=3, n_entities=60).dump(), path)
    return path


def taxonomy_file(tmp_path):
    target = tmp_path / "t.jsonl"
    return target, lambda: small_taxonomy().save(target)


def delta_file(tmp_path):
    target = tmp_path / "d.jsonl"
    delta = TaxonomyDelta.compute(Taxonomy(), small_taxonomy())
    return target, lambda: save_delta(delta, target)


def dump_file(tmp_path):
    target = tmp_path / "out.jsonl"
    dump = SyntheticWorld.generate(seed=3, n_entities=60).dump()
    return target, lambda: save_dump(dump, target)


def stage_trace(tmp_path):
    dump, out = small_dump(tmp_path), tmp_path / "t.jsonl"
    return Path(f"{out}.trace.json"), lambda: main([
        "build", "--dump", str(dump), "--out", str(out), "--no-abstract",
    ])


def diff_json(tmp_path):
    dump, target = small_dump(tmp_path), tmp_path / "diff.json"
    return target, lambda: main([
        "diff", str(dump), str(dump), "--json", str(target),
    ])


def ready_file(tmp_path):
    taxonomy, target = tmp_path / "t.jsonl", tmp_path / "ready.json"
    small_taxonomy().save(taxonomy)
    return target, lambda: main([
        "serve", str(taxonomy), "--port", "0", "--ready-file", str(target),
    ])


def lint_baseline(tmp_path):
    target = tmp_path / "baseline.json"
    return target, lambda: Baseline({"key": "reason"}).save(target)


def bench_entry(tmp_path):
    target = tmp_path / "BENCH.json"
    return target, lambda: merge_bench_entry(target, "section", {"x": 1})


WRITERS = {
    writer.__name__.replace("_", "-"): writer
    for writer in (
        taxonomy_file, delta_file, dump_file, stage_trace, diff_json,
        ready_file, lint_baseline, bench_entry,
    )
}


class DiskFull:
    """A file handle that writes half of the first piece, then fails."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self._handle.write(piece[: len(piece) // 2])
            self._handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("writer", list(WRITERS.values()), ids=list(WRITERS))
def test_a_write_that_fails_midway_keeps_the_previous_file(
    tmp_path, monkeypatch, writer
):
    target, write = writer(tmp_path)
    target.write_text(PREVIOUS, encoding="utf-8")

    def open_to_fail(file, *args, **kwargs):
        handle = open(file, *args, **kwargs)
        if Path(file).name.startswith(f".{target.name}."):
            return DiskFull(handle)
        return handle

    # the writer's own module-level name: no other file is touched
    monkeypatch.setattr(repro.files, "open", open_to_fail, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write()
    assert target.read_text(encoding="utf-8") == PREVIOUS
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
