"""Shared result records.

These dataclasses are the lingua franca between the numerical layers: series
evaluators return :class:`EvaluationResult`, the quadrature engine returns
:class:`QuadratureResult`, and the identity engine condenses both sides of a
closed-form identity into an :class:`IdentityReport`.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError

# Every iterative evaluator stops on estimate <= max(tol * |value|, TINY):
# relative to the value, with an absolute floor for values that are zero or
# lost to underflow.
TINY = 1e-280


def require_normal(value: float, what: str) -> float:
    """value itself; ConvergenceError when it is not a normal double.

    A factor that overflowed, or underflowed to zero or a subnormal, has
    lost its relative accuracy, so no verdict can rest on it.
    """
    if math.isfinite(value) and abs(value) >= sys.float_info.min:
        return value
    raise ConvergenceError(f"{what} is {value!r}, outside the normal double range")


@dataclass(frozen=True)
class EvaluationResult:
    """Value of a truncated series together with a rigorous tail bound."""

    value: float
    error_bound: float
    terms_used: int


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an a-posteriori error estimate.

    ``abs_integral`` is the rule's estimate of the integral of |f|: an error
    of at most e |f(x)| in every sample moves the value by about
    e * abs_integral.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    abs_integral: float


class Verdict(str, enum.Enum):
    """Outcome of comparing an integral against candidate closed forms."""

    BOTH_AGREE = "BOTH_AGREE"
    CONFIRMED_CORRECTED = "CONFIRMED_CORRECTED"
    CONFIRMED_PAPER = "CONFIRMED_PAPER"
    NEITHER = "NEITHER"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __str__(self) -> str:  # so f-strings print the bare name
        return self.value


@dataclass(frozen=True)
class IdentityReport:
    """Side-by-side record of one identity check at one parameter point.

    ``rhs_paper`` holds the closed form exactly as printed in the source
    theorem, ``rhs_corrected`` the re-derived form.  ``error`` is None on a
    clean run and carries the diagnostic string when evaluation of the point
    failed outright (grid sweeps never abort on a single bad point).
    """

    lhs_value: float | None
    lhs_error_estimate: float | None
    rhs_paper: float | None
    rhs_corrected: float | None
    rel_dev_paper: float | None
    rel_dev_corrected: float | None
    verdict: Verdict
    strict_hypotheses: bool
    error: str | None = None
