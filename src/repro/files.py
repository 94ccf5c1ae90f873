"""The program's file plumbing: one JSONL reader and one atomic writer.

Taxonomy files, delta files and encyclopedia dumps are read through
:func:`read_jsonl`, and every file the program writes goes through
:func:`write_atomic`.  The module imports no subsystem, so
:mod:`repro.encyclopedia` and :mod:`repro.taxonomy` share it without
importing each other.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ReproError


def read_jsonl(
    path: str | Path, error: type[ReproError], what: str
) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, record)`` for each non-blank line of a JSONL file.

    *where* is ``<path>:<line>``.  A missing file raises *error*
    (``<what> file not found: <path>``), and so does a line that is not
    JSON or not a JSON object, naming its ``file:line``.
    """
    source = Path(path)
    if not source.exists():
        raise error(f"{what} file not found: {source}")
    name = str(source)
    with source.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{name}:{line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: invalid JSON: {exc}") from exc
            if type(record) is not dict:
                raise error(
                    f"{where}: record must be a JSON object, "
                    f"got {type(record).__name__}"
                )
            yield where, record


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write *chunks* to *path* through a temp file and ``os.replace``.

    An error mid-write leaves the previous file (or nothing) in place,
    never a torn one a reader would trip on, and no temp file behind.
    The temp file lives next to the target, so the rename stays on one
    filesystem (``os.replace`` is atomic only within one), and is named
    for this process and thread, so concurrent writers never share one.
    Missing parent directories are created.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(
        f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
