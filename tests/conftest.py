import os
import subprocess
import sys
from pathlib import Path

import pytest

import weyl_dl
from weyl_dl import build_weyl_group, character_table, conjugacy_classes


@pytest.fixture(scope="session")
def groups():
    """Enumerated groups shared across tests, keyed by (type, rank)."""
    cache = {}

    def get(type_label, rank):
        key = (type_label, rank)
        if key not in cache:
            cache[key] = build_weyl_group(type_label, rank)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def tables(groups):
    """Full-group character tables, computed once per type."""

    def get(type_label, rank):
        W = groups(type_label, rank)
        return W, conjugacy_classes(W), character_table(W)

    return get


@pytest.fixture
def run_optimized():
    """Run a snippet under python -O, where assert statements are stripped; returns its stdout."""

    def run(code):
        src = Path(weyl_dl.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


class NoGenerators:
    """Stands in for the simple reflections of a root system: touching one is forming a product."""

    def _refuse(self, *args):
        raise AssertionError("a simple reflection was used")

    __getitem__ = __iter__ = __len__ = _refuse


@pytest.fixture
def without_generators():
    """The root system with its simple reflections replaced by NoGenerators."""

    def replace(rs):
        return rs._replace(simple_reflection_perms=NoGenerators())

    return replace
