"""Compare two result records that ``run.py`` left in ``.perfbench/results/``.

    python3 perfbench/compare.py BASE.json NEW.json

Records whose input fingerprints differ were fed different dumps, op
streams or deltas, so their numbers say nothing about the code: they
are refused as incomparable (exit 2).  Otherwise each metric is printed
with its change, and flagged when it worsened by more than the bound
``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def incomparable(base: dict, new: dict) -> str | None:
    """Why two records cannot be compared, or None when they can."""
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    if base["fingerprint"]["combined"] != new["fingerprint"]["combined"]:
        differing = sorted(
            part for part in base["fingerprint"]
            if part != "combined"
            and base["fingerprint"][part] != new["fingerprint"].get(part)
        )
        return f"input fingerprints differ ({', '.join(differing)})"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                 for p in argv)
    reason = incomparable(base, new)
    if reason is not None:
        print(f"incomparable: {reason}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for metric, before in base["metrics"].items():
        after = new["metrics"][metric]
        entry = declared[metric]
        change = (after - before) / before if before else 0.0
        worse = -change if entry["better"] == "higher" else change
        bound = entry.get("bound")
        flag = "  REGRESSED" if bound is not None and worse > bound else ""
        print(f"{metric:40s} {before:14.4f} -> {after:14.4f} "
              f"{entry['unit']:6s} {change * 100:+7.2f}%{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
