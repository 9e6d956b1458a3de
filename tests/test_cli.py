"""CLI surface: output formats and exit codes."""

import json
import subprocess
import sys

import pytest

from congrkit.binomsum import TABLE_PRIME_LIMIT, lucas_sum
from congrkit.cli import main
from congrkit.modarith import is_prime


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "congrkit.cli", *argv],
        capture_output=True, text=True, timeout=300,
    )
    return proc


def test_compute_sum_prints_residue(capsys):
    assert main(["compute", "sum", "--a", "4", "--b", "2", "--num", "-1",
                 "--den", "1", "--prime", "7"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_compute_symbol_jacobi(capsys):
    assert main(["compute", "symbol", "--kind", "jacobi", "--top", "2",
                 "--bottom", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_symbol_cubic(capsys):
    assert main(["compute", "symbol", "--kind", "cubic", "--top", "1,2",
                 "--bottom", "23"]) == 0
    assert capsys.readouterr().out.strip() == "w^0"


def test_compute_symbol_quartic(capsys):
    assert main(["compute", "symbol", "--kind", "quartic", "--top", "2,1",
                 "--bottom", "13"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("i^") and out[2:] in "0123"


def test_compute_tsum(capsys):
    assert main(["compute", "tsum", "--n", "4", "--m", "3", "--r", "0"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_compute_lucas(capsys):
    assert main(["compute", "lucas", "--P", "1", "--Q", "-1", "--n", "10",
                 "--prime", "101"]) == 0
    assert capsys.readouterr().out.strip() == "U=55 V=22"


def test_compute_lucas_negative_index_errors(capsys):
    assert main(["compute", "lucas", "--P", "1", "--Q", "-1", "--n", "-5",
                 "--prime", "101"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_represent(capsys):
    assert main(["represent", "--form", "1,0,15", "--prime", "31"]) == 0
    assert capsys.readouterr().out.strip() == "(-4,-1) (-4,1) (4,-1) (4,1)"


def test_classgroup(capsys):
    assert main(["classgroup", "--disc", "-3"]) == 0
    assert capsys.readouterr().out.strip() == "[1,1,1]"
    assert main(["classgroup", "--disc", "-207"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6 and lines[0] == "[1,1,52]"


def test_classgroup_above_the_disc_limit_errors(capsys):
    assert main(["classgroup", "--disc", "-400000000003"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "class group limit" in err


def test_primes(capsys):
    assert main(["primes", "--limit", "13"]) == 0
    assert capsys.readouterr().out.split() == ["2", "3", "5", "7", "11", "13"]


def test_verify_text_and_exit_zero(capsys):
    assert main(["verify", "--id", "thm-2.6", "--max-prime", "200"]) == 0
    out = capsys.readouterr().out
    assert "thm-2.6" in out and "failed=0" in out


def test_verify_repeated_id_reports_once(capsys):
    assert main(["verify", "--id", "thm-3.8", "--id", "thm-3.8", "--max-prime", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert "checked=6 " in lines[0] and lines[0].endswith("na=18")


def test_verify_unknown_id_exits_2(capsys):
    assert main(["verify", "--id", "no-such-id", "--max-prime", "100"]) == 2
    assert "no-such-id" in capsys.readouterr().err


def test_verify_requires_id_or_all(capsys):
    assert main(["verify", "--max-prime", "100"]) == 2


def test_verify_disputed_exit_behavior(capsys):
    assert main(["verify", "--id", "thm-4.4", "--max-prime", "60"]) == 0
    capsys.readouterr()
    assert main(["verify", "--id", "thm-4.4", "--max-prime", "60",
                 "--strict"]) == 1


def test_verify_json_parses(capsys):
    assert main(["verify", "--id", "thm-4.4", "--id", "thm-2.6",
                 "--max-prime", "100", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["id"] for r in reports} == {"thm-4.4", "thm-2.6"}
    disputed = next(r for r in reports if r["id"] == "thm-4.4")
    assert disputed["failures"][0]["prime"] == 11
    assert disputed["failures"][0]["lhs"] == 0


def test_compute_sum_takes_the_lucas_path_without_tables(capsys, table_builds):
    # at the largest table prime a table build takes about a second
    p = next(q for q in range(TABLE_PRIME_LIMIT, 0, -1) if is_prime(q))
    assert main(["compute", "sum", "--a", "4", "--b", "2", "--num", "3", "--den", "5",
                 "--prime", str(p)]) == 0
    want = lucas_sum(4, 2, 3 * pow(5, -1, p) % p, p)
    assert want != 0 and capsys.readouterr().out.strip() == str(want)
    assert table_builds == []


@pytest.mark.parametrize("a, b", [(8, 4), (6, 2)])
def test_compute_sum_takes_the_ring_path_without_tables(capsys, table_builds, a, b):
    # the default upper limit [p/a] takes ring_sum and builds no table; an
    # explicit one reads the tables and prints the same value
    p = 100_003
    args = ["compute", "sum", "--a", str(a), "--b", str(b), "--num", "3", "--den", "5",
            "--prime", str(p)]
    assert main(args) == 0
    got = capsys.readouterr().out.strip()
    assert table_builds == []
    assert main(args + ["--upper", str(p // a)]) == 0
    assert table_builds == [p]
    assert capsys.readouterr().out.strip() == got != "0"


@pytest.mark.parametrize("b, p", [(10**9, 3), (5 * 10**6, 1_999_993)])
def test_compute_sum_past_half_the_prime_is_one(capsys, table_builds, b, p):
    # 2b > p leaves only k = 0 in the sum to [p/2b]: no ring of b slots, no
    # table
    args = ["compute", "sum", "--a", str(2 * b), "--b", str(b), "--num", "3", "--den", "5",
            "--prime", str(p)]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert table_builds == []


def test_compute_sum_refuses_a_long_diagonal_before_building_tables(capsys, table_builds):
    # 4 * 600000 reaches p = 1999993, which check_diag refuses before the
    # 2 * 10^6-entry tables are built
    p = next(q for q in range(TABLE_PRIME_LIMIT, 0, -1) if is_prime(q))
    assert main(["compute", "sum", "--a", "4", "--b", "2", "--num", "1",
                 "--upper", "600000", "--prime", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert table_builds == []


def test_compute_sum_bad_prime_errors(capsys):
    assert main(["compute", "sum", "--a", "4", "--b", "2", "--num", "1",
                 "--prime", "15"]) == 2
    assert "not an odd prime" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    pytest.param(["--a", "0", "--b", "0"], id="a-zero"),
    pytest.param(["--a", "2", "--b", "3"], id="b-above-a"),
    pytest.param(["--a", "4", "--b", "2", "--upper", "-1"], id="upper-negative"),
    pytest.param(["--a", "4", "--b", "2", "--den", "14"], id="den-vanishes"),
])
def test_compute_sum_bad_input_errors(capsys, extra):
    assert main(["compute", "sum", "--num", "1", "--prime", "7", *extra]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    pytest.param(["represent", "--form", "1,0", "--prime", "13"], id="form-too-short"),
    pytest.param(["compute", "symbol", "--kind", "cubic", "--top", "x", "--bottom", "7"],
                 id="top-not-integer"),
    pytest.param(["verify", "--id", "thm-3.8", "--max-prime", "50", "--jobs", "0"],
                 id="jobs-zero"),
    pytest.param(["verify", "--id", "thm-3.8", "--max-prime", "50", "--jobs", "-3"],
                 id="jobs-negative"),
])
def test_malformed_input_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


_ABOVE_LIMIT = next(q for q in range(TABLE_PRIME_LIMIT + 1, TABLE_PRIME_LIMIT + 100)
                    if is_prime(q))


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--id", "thm-2.6", "--max-prime", str(_ABOVE_LIMIT)],
                 id="verify-limit"),
    pytest.param(["compute", "sum", "--a", "4", "--b", "2", "--num", "1",
                  "--prime", str(_ABOVE_LIMIT)], id="sum-prime"),
    # above modarith.TRIAL_DIVISION_LIMIT, where trial division would run for minutes or more
    pytest.param(["represent", "--form", "1,0,1", "--prime", "1000000000000000009"],
                 id="represent-prime-above-trial-division"),
    pytest.param(["compute", "symbol", "--kind", "cubic", "--top", "2,1",
                  "--bottom", "1000000016000000063"], id="cubic-bottom-above-trial-division"),
    # above modarith.SIEVE_LIMIT, where the sieve would ask for terabytes
    pytest.param(["primes", "--limit", "10000000000000"], id="primes-above-sieve-limit"),
])
def test_above_table_limit_errors(capsys, monkeypatch, argv):
    # each command refuses before it sieves, builds tables or divides
    monkeypatch.setattr("congrkit.registry.engine.sieve_primes", None)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_represent_by_reduction_at_a_large_prime(capsys):
    # a non-reduced form of D = -3, [1,1,1] at (y + 10^6 x, x), whose y
    # window would be about 1.15e12 wide: the 12 representations of p by
    # [1,1,1], 6 automorphs for each of the two roots
    p = 999999999961
    assert main(["represent", "--form", "1000001000001,2000001,1", "--prime", str(p)]) == 0
    pairs = [tuple(map(int, t.strip("()").split(",")))
             for t in capsys.readouterr().out.split()]
    assert len(set(pairs)) == 12
    assert all(1000001000001 * x * x + 2000001 * x * y + y * y == p for x, y in pairs)


def test_cli_as_subprocess_matches_in_process():
    proc = run_cli("compute", "tsum", "--n", "4", "--m", "3", "--r", "0")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"


def test_usage_error_exit_code():
    proc = run_cli("compute", "sum", "--a", "4")
    assert proc.returncode == 2
