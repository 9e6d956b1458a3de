"""Exact congruence toolkit for truncated central binomial sums.

Modular arithmetic, Lucas sequences, binary quadratic forms, cubic and
quartic residue symbols, and a registry of checkable congruence statements
with a CLI front end.
"""

from .binomsum import binom_shift_lemma_check, mod_tables
from .combsum import (
    TSumKey,
    delta5,
    delta5_claimed,
    delta5_findings,
    t0_closed,
    t5_row_claim,
    t10_lucas_identity,
    t_recurrences_check,
    t_sum_exact,
)
from .cyclotomic import (
    EisensteinInt,
    GaussianInt,
    UnityRoot3,
    UnityRoot4,
    cubic_character,
    cubic_symbol,
    quartic_character,
    quartic_symbol,
)
from .errors import CongruenceError
from .lucas import lucas_uv_exact, uv_mod
from .modarith import (
    Rational,
    frac_mod,
    inv_mod,
    is_prime,
    jacobi,
    sieve_primes,
    sqrt_mod,
)
from .qform import (
    ClassMatch,
    QuadForm,
    class_group,
    classify_by_class,
    reduce,
    represent,
    two_squares,
)
from .registry import (
    Report,
    Verdict,
    check_statement,
    cubic_roots,
    delta_p,
    registered_ids,
    reports_json,
    verify_many,
)

__version__ = "0.1.0"

__all__ = [
    "ClassMatch",
    "CongruenceError",
    "EisensteinInt",
    "GaussianInt",
    "QuadForm",
    "Rational",
    "Report",
    "TSumKey",
    "UnityRoot3",
    "UnityRoot4",
    "Verdict",
    "binom_shift_lemma_check",
    "check_statement",
    "class_group",
    "classify_by_class",
    "cubic_character",
    "cubic_roots",
    "cubic_symbol",
    "delta5",
    "delta5_claimed",
    "delta5_findings",
    "delta_p",
    "frac_mod",
    "inv_mod",
    "is_prime",
    "jacobi",
    "lucas_uv_exact",
    "mod_tables",
    "quartic_character",
    "quartic_symbol",
    "reduce",
    "registered_ids",
    "reports_json",
    "represent",
    "sieve_primes",
    "sqrt_mod",
    "t0_closed",
    "t10_lucas_identity",
    "t5_row_claim",
    "t_recurrences_check",
    "t_sum_exact",
    "two_squares",
    "uv_mod",
    "verify_many",
]
