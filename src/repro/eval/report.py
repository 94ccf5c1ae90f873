"""Benchmark output: plain-text tables and the perf trajectory file.

The benchmarks print tables shaped exactly like the paper's (Table I,
Table II); this renderer keeps columns aligned for CJK-free numeric
cells and pads header/label columns.  :func:`merge_bench_entry` lands
each bench's section in the shared ``BENCH_parallel.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.files import write_atomic


def _display_width(text: str) -> int:
    """Terminal cells occupied: CJK characters take two columns."""
    width = 0
    for ch in text:
        width += 2 if ord(ch) > 0x2E7F else 1
    return width


def _pad(text: str, width: int) -> str:
    return text + " " * max(width - _display_width(text), 0)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = []
    for col, header in enumerate(headers):
        width = _display_width(header)
        for row in cells:
            width = max(width, _display_width(row[col]))
        widths.append(width)
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(_pad(h, w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(_pad(c, w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_count(value: int) -> str:
    """Thousands-separated count, as the paper prints its tables."""
    return f"{value:,}"


def format_percent(value: float) -> str:
    return f"{value:.1%}"


def merge_bench_entry(path: str | Path, key: str, payload: dict) -> dict:
    """Atomically merge ``{key: payload}`` into the JSON file at *path*.

    Returns the merged document.  The update goes through
    :func:`~repro.files.write_atomic`, so a crashed benchmark can never
    leave a truncated JSON behind for the next run to choke on.  An
    existing file that is not a JSON object raises rather than being
    silently clobbered.
    """
    target = Path(path)
    data: dict = {}
    if target.exists():
        data = json.loads(target.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ReproError(f"{target} does not hold a JSON object")
    data[key] = payload
    write_atomic(target, [json.dumps(data, ensure_ascii=False, indent=2)])
    return data
