"""tools/bench_pairs.py: the per-metric summary of parent/change pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(parent: list[float], change: list[float]) -> list[dict]:
    """Pair i of the synthetic runs is (parent[i], change[i])."""
    return [{"side": side, "pair": i, "metrics": {"m": value}}
            for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


def test_a_clear_gain_is_within_bound_and_meets_the_gain_rule():
    got = bench_pairs.summary(runs([10, 11, 12, 10, 11], [5, 6, 5, 6, 5]), "m", "lower", 0.25)
    assert got["parent"] == {"median": 11, "q1": 10, "q3": 11.5, "min": 10, "max": 12}
    assert got["change"] == {"median": 5, "q1": 5, "q3": 6, "min": 5, "max": 6}
    assert got["change_vs_parent"] == pytest.approx(5 / 11 - 1)
    assert (got["pairs_won"], got["pairs_lost"]) == (5, 0)
    assert got["parent_iqr_share"] == pytest.approx(1.5 / 11)
    assert got["change_iqr_share"] == pytest.approx(1 / 5)
    assert got["status"] == "within bound"
    assert got["gain_rule_met"] is True


def test_a_median_worse_by_more_than_the_bound_is_worse():
    got = bench_pairs.summary(runs([10] * 4, [13] * 4), "m", "lower", 0.25)
    assert got["status"] == "worse" and got["gain_rule_met"] is False
    # for a higher-is-better metric the same runs are a gain
    got = bench_pairs.summary(runs([10] * 4, [13] * 4), "m", "higher", 0.25)
    assert got["status"] == "within bound" and got["gain_rule_met"] is True


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    # the parent's quartiles span 10 to 17 about a median of 15: wider than 0.25
    parent = [10, 10, 18, 15, 16]
    got = bench_pairs.summary(runs(parent, [11, 12, 13, 11, 12]), "m", "lower", 0.25)
    assert got["status"] == "unresolved"
    got = bench_pairs.summary(runs(parent, [8, 9, 9, 8, 9]), "m", "lower", 0.25)
    assert got["status"] == "within bound"
    # the change's own spread counts as well
    got = bench_pairs.summary(runs([10] * 5, [6, 6, 12, 9, 11]), "m", "lower", 0.25)
    assert got["change_iqr_share"] > 0.25 and got["status"] == "unresolved"


def test_the_gain_rule_wants_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_spread():
    parent = [10.0] * 10
    nine = [9.0] * 9 + [11.0]
    got = bench_pairs.summary(runs(parent, nine), "m", "lower", 0.25)
    assert (got["pairs_won"], got["pairs_lost"]) == (9, 1) and got["gain_rule_met"] is True
    eight = [9.0] * 8 + [10.0, 11.0]  # a tie counts for neither side
    got = bench_pairs.summary(runs(parent, eight), "m", "lower", 0.25)
    assert (got["pairs_won"], got["pairs_lost"]) == (8, 1) and got["gain_rule_met"] is False
    # every pair won, but by less than the parent's quartile distance of 2
    got = bench_pairs.summary(runs([9, 11] * 5, [8, 10] * 5), "m", "lower", 0.25)
    assert got["pairs_won"] == 10 and got["gain_rule_met"] is False


def test_min_and_max_show_an_outlier_the_quartiles_hide():
    # one reading in five near 45 MB leaves the median and quartiles alone
    got = bench_pairs.summary(runs([30, 31, 30, 45, 30], [30, 30, 31, 30, 44]), "m", "lower", 0.1)
    assert (got["parent"]["min"], got["parent"]["max"]) == (30, 45)
    assert (got["change"]["min"], got["change"]["max"]) == (30, 44)


NAMES = ["sweep-all", "sweep-all-j2", "sweep-one", "spot-large"]


def test_every_workload_runs_unless_some_are_named():
    assert bench_pairs.parse_args(["--out", "x"], NAMES).workloads == NAMES
    # repeatable, run in the order of BENCHMARK.json, each once
    args = bench_pairs.parse_args(["--out", "x", "--workload", "spot-large", "--workload",
                                   "sweep-one", "--workload", "spot-large"], NAMES)
    assert args.workloads == ["sweep-one", "spot-large"]


def test_an_unknown_workload_is_refused(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--out", "x", "--workload", "sweep-none"], NAMES)
    assert "invalid choice: 'sweep-none'" in capsys.readouterr().err
