"""Per-checker positive/negative fixtures (tmp_path-written modules)."""

from pathlib import Path

import pytest

from repro.analysis import (
    DeterminismChecker,
    ErrorTaxonomyChecker,
    LockDisciplineChecker,
    ParsedModule,
)


def check(checker, source: str, rel: str = "pkg/mod.py") -> list[str]:
    module = ParsedModule(Path(rel), rel, source)
    return [finding.message for finding in checker.check(module)]


class TestDeterminism:
    def test_flags_the_classic_traps(self):
        messages = check(DeterminismChecker(clock_exempt={}), (
            "import random\n"
            "from random import randint\n"
            "import uuid\n"
            "def f(now=uuid.uuid4()):\n"
            "    return random.random()\n"
        ))
        joined = "\n".join(messages)
        assert "randint" in joined
        assert "import uuid" in joined
        assert "default argument" in joined
        assert "unseeded global RNG" in joined

    def test_seeded_random_is_fine(self):
        assert check(DeterminismChecker(clock_exempt={}), (
            "from random import Random\n"
            "rng = Random(7)\n"
        )) == []

    def test_exemption_is_path_scoped_and_clock_only(self):
        exempt = {"pkg/mod.py": "test"}
        source = "import time\nimport random\nx = random.random()\n"
        exempted = check(DeterminismChecker(clock_exempt=exempt), source)
        assert not any("import time" in m for m in exempted)
        assert any("unseeded global RNG" in m for m in exempted)
        # same filename at a different package path: no exemption
        other = check(DeterminismChecker(clock_exempt=exempt), source,
                      rel="other/mod.py")
        assert any("import time" in m for m in other)


LOCKED_CLASS = """\
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {{}}

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def peek(self, key):
        {peek_body}
"""


class TestLockDiscipline:
    def test_flags_bare_access_to_guarded_attribute(self):
        messages = check(
            LockDisciplineChecker(),
            LOCKED_CLASS.format(peek_body="return self._items.get(key)"),
        )
        assert len(messages) == 1
        assert "Store.peek reads self._items" in messages[0]

    def test_locked_access_everywhere_is_clean(self):
        source = LOCKED_CLASS.format(
            peek_body="with self._lock:\n            "
                      "return self._items.get(key)"
        )
        assert check(LockDisciplineChecker(), source) == []

    def test_init_is_construction_not_a_race(self):
        # __init__'s bare writes never flag (object unpublished); a
        # guarded attr mutated bare in a normal method does
        source = LOCKED_CLASS.format(peek_body="self._items = {}")
        messages = check(LockDisciplineChecker(), source)
        assert len(messages) == 1
        assert "Store.peek mutates self._items" in messages[0]

    def test_unguarded_attributes_do_not_flag(self):
        # a class with a lock whose attribute is never written under it
        # (e.g. a plain counter) stays out of scope
        assert check(LockDisciplineChecker(), (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.hits = 0\n"
            "    def bump(self):\n"
            "        self.hits += 1\n"
        )) == []

    def test_classes_without_locks_are_ignored(self):
        assert check(LockDisciplineChecker(), (
            "class C:\n"
            "    def set(self, v):\n"
            "        self.value = v\n"
        )) == []

    def test_with_granted_lock_attribute_counts_as_a_lock(self):
        # an injected lock (never constructed in the class) still
        # establishes discipline when used as `with self._lock:`
        messages = check(LockDisciplineChecker(), (
            "class Child:\n"
            "    def __init__(self, lock):\n"
            "        self._lock = lock\n"
            "        self._n = 0\n"
            "    def inc(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def read(self):\n"
            "        return self._n\n"
        ))
        assert len(messages) == 1
        assert "Child.read reads self._n" in messages[0]


class TestErrorTaxonomy:
    def test_flags_bare_raise_in_public_function(self):
        messages = check(ErrorTaxonomyChecker(), (
            "def lookup(table, key):\n"
            "    raise KeyError(key)\n"
        ))
        assert len(messages) == 1
        assert "lookup raises bare KeyError" in messages[0]

    def test_private_helpers_and_dunders_are_exempt(self):
        assert check(ErrorTaxonomyChecker(), (
            "def _parse(raw):\n"
            "    raise ValueError(raw)\n"
            "class Thing:\n"
            "    def __init__(self, n):\n"
            "        if n < 0:\n"
            "            raise ValueError(n)\n"
            "class _Hidden:\n"
            "    def act(self):\n"
            "        raise RuntimeError('internal')\n"
        )) == []

    def test_repro_errors_and_reraise_pass(self):
        assert check(ErrorTaxonomyChecker(), (
            "from repro.errors import TaxonomyError\n"
            "def lookup(table, key):\n"
            "    try:\n"
            "        return table[key]\n"
            "    except KeyError:\n"
            "        raise TaxonomyError(key)\n"
            "def retry():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        raise\n"
        )) == []

    def test_module_level_raise_is_out_of_scope(self):
        assert check(ErrorTaxonomyChecker(), (
            "import sys\n"
            "if sys.version_info < (3, 9):\n"
            "    raise RuntimeError('needs 3.9')\n"
        )) == []
