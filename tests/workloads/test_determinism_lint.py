"""Static lint: the whole package must stay seed-deterministic.

The backbone contract is that the same seed always yields the same
world and call stream and the same dump always builds the
byte-identical taxonomy.  That dies quietly the first time a
module reaches for ambient entropy, so the :mod:`repro.analysis`
determinism checker walks the AST of every module and forbids unseeded
RNG use, clock/uuid/secrets imports outside the exemption table, and
call-in-default traps (the rules are documented on the checker).

This file is the thin test driver: the lint logic itself lives in
``src/repro/analysis/determinism.py`` where ``cn-probase lint`` and
``run_smoke.sh`` run it over all of ``src/repro``, not just the three
packages the original test-local lint covered.
"""

from pathlib import Path

import repro
from repro.analysis import DeterminismChecker, ModuleIndex, ParsedModule
from repro.analysis.determinism import CLOCK_EXEMPT


def package_index() -> ModuleIndex:
    return ModuleIndex.scan(Path(repro.__file__).parent)


def lint_module(
    path: Path, clock_exempt: frozenset = frozenset()
) -> list[str]:
    """Run the determinism checker on one file outside the package.

    *clock_exempt* names package-relative paths, matching the shipped
    exemption table's keying (never bare filenames).
    """
    module = ParsedModule(path, path.name, path.read_text(encoding="utf-8"))
    checker = DeterminismChecker(
        clock_exempt={rel: "test exemption" for rel in clock_exempt}
    )
    return [finding.render() for finding in checker.check(module)]


def test_no_unseeded_randomness_or_clock_leaks():
    index = package_index()
    checker = DeterminismChecker()
    problems = [
        finding.render()
        for module in index.modules
        for finding in checker.check(module)
    ]
    assert not problems, "\n".join(problems)


def test_the_lint_actually_scans_the_packages():
    names = {module.rel for module in package_index().modules}
    assert {"workloads/spec.py", "workloads/sampling.py",
            "workloads/faults.py"} <= names
    # the obs package rides the same lint: metrics/trace/events must
    # never mint ids or timestamps from ambient entropy
    assert {"obs/metrics.py", "obs/trace.py", "obs/events.py",
            "obs/clock.py"} <= names
    # so does the build pipeline: its run and merge order is what
    # keeps a build byte-identical
    assert {"core/pipeline.py", "core/stages.py"} <= names
    # the generalized lint reaches every package, serving included
    assert {"serving/router.py", "taxonomy/service.py", "cli.py"} <= names


def test_exemptions_key_on_package_relative_paths():
    # an unrelated server.py in some future package must never inherit
    # the HTTP server's clock exemption by filename
    assert "serving/server.py" in CLOCK_EXEMPT
    assert "server.py" not in CLOCK_EXEMPT
    assert all("/" in rel or rel == "cli.py" for rel in CLOCK_EXEMPT)
    # no workloads module touches the clock: sleeps come from the caller
    assert not any(rel.startswith("workloads/") for rel in CLOCK_EXEMPT)


def test_the_lint_catches_the_traps(tmp_path):
    bad = (
        "import random\n"
        "from random import randint\n"
        "from random import Random\n"
        "import time\n"
        "def f(now=time.time()):\n"
        "    return random.random() + Random().random()\n"
    )
    fake = tmp_path / "spec.py"  # borrow a non-clock-exempt name
    fake.write_text(bad, encoding="utf-8")
    joined = "\n".join(lint_module(fake))
    assert "randint" in joined
    assert "import time" in joined
    assert "default argument" in joined
    assert "unseeded global RNG" in joined
    assert "Random() without a seed" in joined


def test_the_exemption_covers_only_the_clock(tmp_path):
    # an exempted module may import time, but unseeded RNG rules and
    # the default-argument trap still hold there
    bad = "import time\nimport random\nx = random.random()\n"
    fake = tmp_path / "runner.py"
    fake.write_text(bad, encoding="utf-8")
    joined = "\n".join(lint_module(fake, frozenset({"runner.py"})))
    assert "import time" not in joined
    assert "unseeded global RNG" in joined
