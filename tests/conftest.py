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

