"""The checker framework: parsed-module index, findings, baselines.

Every invariant this reproduction sells — the same seeded worlds and
call streams, byte-identical builds, zero mixed-version answers under
chaos — is held by a coding convention (seeded RNGs,
``with self._lock:`` blocks, :class:`~repro.errors.ReproError`
subclasses).  This module is the machinery that turns those
conventions into machine-checked rules:

- :class:`ParsedModule` / :class:`ModuleIndex` — every ``*.py`` under
  ``src/repro`` parsed **once** into a shared AST index all checkers
  walk, each module addressed by its package-relative posix path
  (``"serving/router.py"``), never its bare filename — so an unrelated
  ``server.py`` in a future package can never inherit another module's
  exemption.
- :class:`Checker` — the plug-in protocol: an ``id``, a
  ``description``, and ``check(module) -> findings``.
- :class:`Finding` — one structured violation (path / line / checker
  id / message / enclosing symbol), ordered and JSON-round-trippable.
- suppression, two deliberate flavors:

  * **pragmas** — ``# lint: allow[checker-id] reason`` on (or directly
    above) the offending line acknowledges a *benign* violation in
    place; the reason is mandatory, a bare pragma suppresses nothing
    and is itself reported.
  * **baselines** — a JSON file of grandfathered finding keys (line
    numbers excluded, so unrelated edits don't invalidate it) for debt
    that predates a checker; new violations never match.

:func:`run_analysis` ties it together and feeds both the
``cn-probase lint`` CLI and the ``static_analysis`` section of
``BENCH_parallel.json``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import AnalysisError
from repro.files import write_atomic

#: ``# lint: allow[determinism] reason`` — the in-place acknowledgement
#: of a benign violation.  Several ids may share one pragma
#: (``allow[determinism,lock-discipline]``); the trailing reason is
#: mandatory.
PRAGMA_RE = re.compile(
    r"#\s*lint:\s*allow\[(?P<ids>[a-z0-9_\-, ]+)\]\s*(?P<reason>.*)$"
)

BASELINE_FORMAT_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One structured violation a checker reported.

    Ordering is ``(path, line, checker, message)`` so reports read in
    file order.  :attr:`key` deliberately excludes the line number:
    baselines must survive unrelated edits shifting code around, and
    ``symbol`` (the enclosing class/function qualname) keeps the key
    specific enough that a *new* violation of the same rule elsewhere
    in the file never hides behind a grandfathered one.
    """

    path: str
    line: int
    checker: str
    message: str
    symbol: str = ""

    @property
    def key(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.checker}::{self.path}::{self.symbol}::{self.message}"

    def as_dict(self) -> dict:
        return {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "symbol": self.symbol,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Finding":
        try:
            return cls(
                path=str(payload["path"]),
                line=int(payload["line"]),
                checker=str(payload["checker"]),
                message=str(payload["message"]),
                symbol=str(payload.get("symbol", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(
                f"not a finding record: {payload!r} ({exc})"
            ) from exc

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        return f"{where}: [{self.checker}] {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# lint: allow[...]`` comment."""

    checkers: frozenset[str]
    reason: str

    def allows(self, checker_id: str) -> bool:
        return bool(self.reason.strip()) and checker_id in self.checkers


class ParsedModule:
    """One source module, parsed once and shared by every checker."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        #: package-relative posix path — the only way checkers and
        #: exemption tables may address a module (never bare filenames).
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        self.pragmas: dict[int, Pragma] = {}
        #: pragmas whose mandatory reason is missing — reported, not
        #: honored (a bare ``allow[...]`` must never silence anything)
        self.bare_pragma_lines: list[tuple[int, str]] = []
        for lineno, line in enumerate(self.lines, start=1):
            match = PRAGMA_RE.search(line)
            if not match:
                continue
            ids = frozenset(
                part.strip() for part in match.group("ids").split(",")
                if part.strip()
            )
            reason = match.group("reason").strip()
            if reason:
                self.pragmas[lineno] = Pragma(ids, reason)
            else:
                self.bare_pragma_lines.append((lineno, ", ".join(sorted(ids))))

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ParsedModule":
        rel = path.relative_to(root).as_posix()
        return cls(path, rel, path.read_text(encoding="utf-8"))

    def allows(self, checker_id: str, line: int) -> bool:
        """Is *line* covered by a reasoned pragma for *checker_id*?

        The pragma may sit on the offending line itself or on the line
        directly above it (long offending lines rarely have room for a
        trailing comment).
        """
        for candidate in (line, line - 1):
            pragma = self.pragmas.get(candidate)
            if pragma is not None and pragma.allows(checker_id):
                return True
        return False

    def finding(
        self, checker_id: str, node: ast.AST | int, message: str,
        symbol: str = "",
    ) -> Finding:
        line = node if isinstance(node, int) else node.lineno
        return Finding(
            path=self.rel, line=line, checker=checker_id,
            message=message, symbol=symbol,
        )


class ModuleIndex:
    """Every module under one source root, parsed once, checked by all."""

    def __init__(self, root: Path, modules: Sequence[ParsedModule]) -> None:
        self.root = root
        self.modules = list(modules)

    @classmethod
    def scan(cls, root: str | Path | None = None) -> "ModuleIndex":
        """Parse every ``*.py`` under *root* (default: the installed
        :mod:`repro` package itself)."""
        if root is None:
            import repro

            root = Path(repro.__file__).parent
        root = Path(root)
        if not root.is_dir():
            raise AnalysisError(f"not a directory to analyze: {root}")
        modules = [
            ParsedModule.parse(path, root)
            for path in sorted(root.rglob("*.py"))
            if "__pycache__" not in path.parts
        ]
        return cls(root, modules)

    def __len__(self) -> int:
        return len(self.modules)

    def packages(self) -> list[str]:
        """Top-level package names covered by the index ('.' = root)."""
        names = {
            module.rel.split("/", 1)[0] if "/" in module.rel else "."
            for module in self.modules
        }
        return sorted(names)

    def module(self, rel: str) -> ParsedModule:
        for candidate in self.modules:
            if candidate.rel == rel:
                return candidate
        raise AnalysisError(f"no module {rel!r} in the index")


@runtime_checkable
class Checker(Protocol):
    """The plug-in surface: stateless, one module at a time.

    ``id`` names the checker in findings, ``--select``, pragmas and
    baselines; ``description`` is the one-line story ``lint`` prints.
    ``check`` walks one :class:`ParsedModule` and yields findings —
    pragma and baseline suppression belong to :func:`run_analysis`,
    never to individual checkers.
    """

    id: str
    description: str

    def check(self, module: ParsedModule) -> Iterable[Finding]: ...


class Baseline:
    """Grandfathered finding keys loaded from (or saved to) JSON."""

    def __init__(self, entries: Mapping[str, str] | None = None) -> None:
        #: finding key → reason it was grandfathered
        self.entries: dict[str, str] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, finding: Finding) -> bool:
        return finding.key in self.entries

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        source = Path(path)
        if not source.exists():
            raise AnalysisError(f"baseline file not found: {source}")
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise AnalysisError(
                f"baseline {source} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise AnalysisError(f"baseline {source} must be a JSON object")
        version = payload.get("format_version")
        if version != BASELINE_FORMAT_VERSION:
            raise AnalysisError(
                f"baseline {source} has format_version {version!r}, "
                f"this build reads {BASELINE_FORMAT_VERSION}"
            )
        entries: dict[str, str] = {}
        for entry in payload.get("entries", ()):
            if not isinstance(entry, dict) or "key" not in entry:
                raise AnalysisError(
                    f"baseline {source}: entry {entry!r} has no 'key'"
                )
            entries[str(entry["key"])] = str(entry.get("reason", ""))
        return cls(entries)

    @classmethod
    def from_findings(
        cls, findings: Iterable[Finding], reason: str = "grandfathered"
    ) -> "Baseline":
        return cls({finding.key: reason for finding in findings})

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": BASELINE_FORMAT_VERSION,
            "entries": [
                {"key": key, "reason": reason}
                for key, reason in sorted(self.entries.items())
            ],
        }
        write_atomic(
            path, [json.dumps(payload, ensure_ascii=False, indent=2) + "\n"]
        )


@dataclass
class AnalysisReport:
    """Everything one analysis run decided, ready for text or JSON."""

    modules_scanned: int
    checker_ids: tuple[str, ...]
    findings: list[Finding]
    baselined: list[Finding]
    pragma_suppressed: list[Finding]

    def by_checker(self) -> dict[str, dict[str, int]]:
        counts = {
            checker_id: {"found": 0, "baselined": 0, "allowed": 0, "new": 0}
            for checker_id in self.checker_ids
        }
        for finding, bucket in (
            *((f, "new") for f in self.findings),
            *((f, "baselined") for f in self.baselined),
            *((f, "allowed") for f in self.pragma_suppressed),
        ):
            entry = counts.setdefault(
                finding.checker,
                {"found": 0, "baselined": 0, "allowed": 0, "new": 0},
            )
            entry["found"] += 1
            entry[bucket] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "modules_scanned": self.modules_scanned,
            "findings_total": (
                len(self.findings) + len(self.baselined)
                + len(self.pragma_suppressed)
            ),
            "findings_new": len(self.findings),
            "findings_baselined": len(self.baselined),
            "findings_allowed": len(self.pragma_suppressed),
            "checkers": self.by_checker(),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        summary = ", ".join(
            f"{checker_id}={entry['new']}"
            for checker_id, entry in sorted(self.by_checker().items())
        )
        lines.append(
            f"{len(self.findings)} new finding(s) "
            f"({len(self.baselined)} baselined, "
            f"{len(self.pragma_suppressed)} allowed by pragma) "
            f"over {self.modules_scanned} modules [{summary}]"
        )
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return not self.findings


def run_analysis(
    index: ModuleIndex,
    checkers: Sequence[Checker],
    *,
    baseline: Baseline | None = None,
) -> AnalysisReport:
    """Run *checkers* over every module in *index*.

    Checker ids must be unique (a pragma or baseline naming a checker
    must name exactly one rule).  A reasoned pragma on the finding's
    line suppresses it as *allowed*; a baseline key match suppresses it
    as *baselined*; a pragma missing its reason is itself a finding.
    """
    seen_ids: set[str] = set()
    for checker in checkers:
        if checker.id in seen_ids:
            raise AnalysisError(f"duplicate checker id {checker.id!r}")
        seen_ids.add(checker.id)
    new: list[Finding] = []
    baselined: list[Finding] = []
    allowed: list[Finding] = []
    for module in index.modules:
        for lineno, ids in module.bare_pragma_lines:
            new.append(module.finding(
                "pragma", lineno,
                f"lint: allow[{ids}] has no reason — every suppression "
                "must say why",
            ))
        for checker in checkers:
            for finding in checker.check(module):
                if module.allows(checker.id, finding.line):
                    allowed.append(finding)
                elif baseline is not None and baseline.matches(finding):
                    baselined.append(finding)
                else:
                    new.append(finding)
    return AnalysisReport(
        modules_scanned=len(index),
        checker_ids=tuple(checker.id for checker in checkers),
        findings=sorted(new),
        baselined=sorted(baselined),
        pragma_suppressed=sorted(allowed),
    )
