"""The benchmark trajectory file the benches and smokes write to.

Each bench merges its own top-level section into ``BENCH_JSON``
(``benchmarks/out/BENCH_parallel.json``, git-ignored) through
:func:`merge_bench_json`; ``run_smoke.sh``'s final check reads it back.
"""

from __future__ import annotations

from pathlib import Path

from repro.eval.report import merge_bench_entry

OUT_DIR = Path(__file__).parent / "out"
BENCH_JSON = OUT_DIR / "BENCH_parallel.json"


def merge_bench_json(key: str, payload: dict) -> None:
    """Merge one bench's section into BENCH_parallel.json.

    Delegates to :func:`repro.eval.report.merge_bench_entry`:
    the parent directory is created if missing and the update is
    atomic (temp file + ``os.replace``), so a crashed bench can never
    leave a truncated perf trajectory behind.
    """
    merge_bench_entry(BENCH_JSON, key, payload)
