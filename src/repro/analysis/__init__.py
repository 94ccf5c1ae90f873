"""Static analysis: the repo's invariants enforced as code.

Usage — programmatic::

    from repro.analysis import ModuleIndex, all_checkers, run_analysis

    report = run_analysis(ModuleIndex.scan(), all_checkers())
    assert report.ok, report.render_text()

or from the CLI: ``cn-probase lint [--format json] [--select ids]``.

The framework lives in :mod:`repro.analysis.framework`; one module per
checker.  The shipped baseline (``baseline.json`` next to this file)
grandfathers pre-existing debt — see each entry's ``reason``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.determinism import DeterminismChecker
from repro.analysis.framework import (
    AnalysisReport,
    Baseline,
    Checker,
    Finding,
    ModuleIndex,
    ParsedModule,
    run_analysis,
)
from repro.analysis.locks import LockDisciplineChecker
from repro.analysis.taxonomy_errors import ErrorTaxonomyChecker

__all__ = [
    "AnalysisReport",
    "Baseline",
    "Checker",
    "DeterminismChecker",
    "ErrorTaxonomyChecker",
    "Finding",
    "LockDisciplineChecker",
    "ModuleIndex",
    "ParsedModule",
    "all_checkers",
    "default_baseline_path",
    "run_analysis",
]


def all_checkers() -> list[Checker]:
    """The three shipped checkers, in report order."""
    return [
        DeterminismChecker(),
        LockDisciplineChecker(),
        ErrorTaxonomyChecker(),
    ]


def default_baseline_path() -> Path:
    """The shipped baseline of grandfathered findings."""
    return Path(__file__).with_name("baseline.json")
