"""Shared test setup."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _src_on_child_path(monkeypatch):
    # pyproject's `pythonpath` puts src/ on sys.path of the pytest process
    # only; the tests that run `python -m congrkit.cli` in a child need it in
    # PYTHONPATH as well.
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    )


@pytest.fixture
def table_builds(monkeypatch):
    """The primes at which ModTables is built during the test, in order.
    Builds are counted, not mod_tables lookups: ctx.tables looks up at every
    read."""
    from congrkit.binomsum import ModTables, mod_tables

    built = []
    real = ModTables.__init__

    def counting(self, p):
        built.append(p)
        real(self, p)

    mod_tables.cache_clear()  # a table cached by an earlier test would hide a build
    monkeypatch.setattr(ModTables, "__init__", counting)
    return built
