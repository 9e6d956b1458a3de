"""Statement registry: every claim gets an id, a checker, and a verdict."""

from .engine import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Ctx,
    Outcome,
    Report,
    Statement,
    Verdict,
    check_statement,
    cubic_roots,
    registered_ids,
    reports_json,
    verify_many,
)

# importing a statements module registers its ids
from .statements_binom4 import DeltaP, delta_p, delta_sign_from_symbol, delta_solve
from . import statements_binom3  # noqa: F401
from . import statements_tsums  # noqa: F401

__all__ = [
    "FAIL",
    "NOT_APPLICABLE",
    "PASS",
    "Ctx",
    "DeltaP",
    "Outcome",
    "Report",
    "Statement",
    "Verdict",
    "check_statement",
    "cubic_roots",
    "delta_p",
    "delta_sign_from_symbol",
    "delta_solve",
    "registered_ids",
    "reports_json",
    "verify_many",
]
