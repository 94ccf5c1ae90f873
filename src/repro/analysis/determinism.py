"""Determinism checker: no ambient entropy outside sanctioned modules.

The backbone contracts — same seed → the same world and call stream,
same dump → byte-identical taxonomy, deterministic trace/event ids —
all die quietly the first time a module reaches for ambient entropy.
This checker walks every module and forbids:

- any use of the ``random`` module other than ``random.Random`` /
  ``from random import Random`` (module-level functions share hidden
  global state seeded from the OS),
- ``Random()`` constructed without an explicit seed argument,
- ``time`` / ``datetime`` / ``uuid`` / ``secrets`` imports anywhere
  except the explicitly exempted modules below,
- function-call expressions in default argument values (the classic
  ``def f(now=time.time())`` time-dependent-default trap).

Exemptions are keyed on **package-relative paths**, never bare
filenames — an unrelated ``server.py`` in a future package must not
silently inherit the HTTP server's clock exemption.  Every entry
carries the reason it is allowed to touch the clock; everything else
imports :mod:`repro.obs.clock` (timestamps / durations) or takes a
sleep hook from its caller instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, Mapping

from repro.analysis.framework import Finding, ParsedModule

ENTROPY_MODULES = frozenset({"time", "datetime", "uuid", "secrets"})

#: package-relative path → why that module may touch the clock.
CLOCK_EXEMPT: Mapping[str, str] = {
    "obs/clock.py":
        "the one sanctioned timestamp hook every other module imports",
    "core/pipeline.py":
        "stage timing via perf_counter (observability only; stage "
        "scheduling and output stay clock-free)",
    "serving/server.py":
        "wire timeouts and per-request latency on a real socket",
    "serving/client.py":
        "retry backoff sleeps and wire-latency measurement",
    "cli.py":
        "the `obs tail` polling loop sleeps between fetches",
}


class DeterminismChecker:
    """Flag unseeded randomness, clock imports and call-in-default traps.

    *clock_exempt* overrides the shipped exemption table (tests inject
    their own); exemption only covers the entropy-module imports — the
    ``random`` rules and the default-argument trap hold everywhere.
    """

    id = "determinism"
    description = (
        "no unseeded RNGs, no clock/uuid/secrets imports outside the "
        "exemption table, no call expressions in default arguments"
    )

    def __init__(self, clock_exempt: Mapping[str, str] | None = None) -> None:
        self.clock_exempt = dict(
            CLOCK_EXEMPT if clock_exempt is None else clock_exempt
        )

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        exempt = module.rel in self.clock_exempt
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(module.finding(self.id, node, message))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ENTROPY_MODULES and not exempt:
                        flag(node, f"import {alias.name} — only the "
                                   "clock-exempt modules may touch the "
                                   "clock (use repro.obs.clock)")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ENTROPY_MODULES and not exempt:
                    flag(node, f"from {node.module} import ... — only the "
                               "clock-exempt modules may touch the clock "
                               "(use repro.obs.clock)")
                if root == "random":
                    for alias in node.names:
                        if alias.name != "Random":
                            flag(node, f"from random import {alias.name} — "
                                       "module-level random functions use "
                                       "hidden global state")
            elif isinstance(node, ast.Attribute):
                if (isinstance(node.value, ast.Name)
                        and node.value.id == "random"
                        and node.attr != "Random"):
                    flag(node, f"random.{node.attr} — unseeded global RNG")
            elif isinstance(node, ast.Call):
                callee = node.func
                name = (callee.id if isinstance(callee, ast.Name)
                        else callee.attr if isinstance(callee, ast.Attribute)
                        else None)
                if name == "Random" and not node.args and not node.keywords:
                    flag(node, "Random() without a seed — OS-entropy seeded")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    for sub in ast.walk(default):
                        if isinstance(sub, ast.Call):
                            flag(default, f"def {node.name}(...): call "
                                          "expression in a default argument "
                                          "is evaluated once at import time")
        return findings
