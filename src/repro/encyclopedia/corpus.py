"""JSONL persistence for encyclopedia dumps.

One JSON object per line keeps dumps streamable and diff-friendly; the
format round-trips exactly through :meth:`EncyclopediaPage.to_dict`.
Dumps are read and written through :mod:`repro.files`, like taxonomy
files: a line that is not a JSON object is a :class:`CorpusError`
naming its ``file:line``, and a save never leaves a torn file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.encyclopedia.model import EncyclopediaDump, EncyclopediaPage
from repro.errors import CorpusError
from repro.files import read_jsonl, write_atomic


def save_dump(dump: EncyclopediaDump, path: str | Path) -> int:
    """Write *dump* to *path* as JSONL; returns the number of pages."""
    write_atomic(path, (
        json.dumps(page.to_dict(), ensure_ascii=False) + "\n"
        for page in dump
    ))
    return len(dump)


def load_dump(path: str | Path) -> EncyclopediaDump:
    """Load a JSONL dump written by :func:`save_dump`."""
    dump = EncyclopediaDump()
    for _, record in read_jsonl(path, CorpusError, "dump"):
        dump.add(EncyclopediaPage.from_dict(record))
    return dump
