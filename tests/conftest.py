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


# every (a, b, num, den) that a statement without a sampler sums, at the
# default upper limit [p/a]: those on the diagonals of LUCAS_SCALES, which
# lucas_sum takes, and those a sweep's PrefixSums holds
LUCAS_SUM_KEYS = [
    (3, 1, -3, 1), (3, 1, -1, 1), (3, 1, -1, 3), (3, 1, -1, 27), (3, 1, 1, 1), (3, 1, 1, 3),
    (3, 1, 1, 27), (3, 1, 2, 1), (4, 2, -1, 1), (4, 2, -1, 4), (4, 2, -1, 16), (4, 2, -1, 36),
    (4, 2, -1, 64), (4, 2, -1, 144), (4, 2, 1, 1), (4, 2, 1, 4), (4, 2, 1, 8), (4, 2, 1, 16),
    (4, 2, 1, 64), (4, 2, 4, 1),
]
STORE_SUM_KEYS = [
    (6, 2, 1, 729), (6, 3, -1, 64), (8, 4, 1, 1), (8, 4, 1, 256),
    (10, 5, -1, 1024), (12, 6, -1, 4096), (12, 6, 1, 4096), (20, 10, 1, 4**10), (24, 12, 1, 4**12),
]


@pytest.fixture
def parameter_free_sum_keys():
    return LUCAS_SUM_KEYS + STORE_SUM_KEYS


@pytest.fixture
def store_sum_keys():
    return list(STORE_SUM_KEYS)
