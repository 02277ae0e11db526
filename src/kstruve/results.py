"""Shared result records.

These immutable named tuples are the lingua franca between the numerical
layers: series evaluators return :class:`EvaluationResult`, the quadrature
engine returns :class:`QuadratureResult`, and the identity engine condenses
both sides of a closed-form identity into an :class:`IdentityReport`.  Being
tuples, they iterate and compare equal to a plain tuple of their fields;
``_replace`` gives a copy with some fields changed.

Every evaluator that returns one stops on the same relative rule,
estimate <= tol * |value|, with no absolute term: a zero value converges
only on a zero estimate, and a value whose estimate cannot get under the
rule ends in ConvergenceError.  :func:`require_tol` checks each public tol.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple

from .errors import ConvergenceError, DomainError


def require_tol(tol: float) -> None:
    """Raise DomainError unless tol is a finite positive number."""
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive number, got {tol!r}")


def require_normal(value: float, what: str) -> float:
    """value itself; ConvergenceError when it is not a normal double.

    A factor that overflowed, or underflowed to zero or a subnormal, has
    lost its relative accuracy, so no verdict can rest on it.
    """
    if math.isfinite(value) and abs(value) >= sys.float_info.min:
        return value
    raise ConvergenceError(f"{what} is {value!r}, outside the normal double range")


class EvaluationResult(namedtuple("EvaluationResult", "value error_bound terms_used")):
    """Value of a truncated series together with a rigorous tail bound."""

    __slots__ = ()


class QuadratureResult(
    namedtuple("QuadratureResult", "value error_estimate evaluations converged abs_integral")
):
    """Value of a definite integral with an a-posteriori error estimate.

    ``abs_integral`` is the rule's estimate of the integral of |f|: an error
    of at most e |f(x)| in every sample moves the value by about
    e * abs_integral.
    """

    __slots__ = ()


class Verdict(str, enum.Enum):
    """Outcome of comparing an integral against candidate closed forms."""

    BOTH_AGREE = "BOTH_AGREE"
    CONFIRMED_CORRECTED = "CONFIRMED_CORRECTED"
    CONFIRMED_PAPER = "CONFIRMED_PAPER"
    NEITHER = "NEITHER"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __str__(self) -> str:  # so f-strings print the bare name
        return self.value


class IdentityReport(
    namedtuple(
        "IdentityReport",
        "lhs_value lhs_error_estimate rhs_paper rhs_corrected rel_dev_paper rel_dev_corrected"
        " verdict strict_hypotheses error",
        defaults=(None,),
    )
):
    """Side-by-side record of one identity check at one parameter point.

    ``rhs_paper`` holds the closed form exactly as printed in the source
    theorem, ``rhs_corrected`` the re-derived form.  ``error`` is None on a
    clean run and carries the diagnostic string when evaluation of the point
    failed outright (grid sweeps never abort on a single bad point).
    """

    __slots__ = ()
