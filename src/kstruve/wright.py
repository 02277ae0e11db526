"""Fox-Wright generalized hypergeometric series p Psi q.

    Psi(z) = sum_{m>=0} prod_i Gamma(a_i + alpha_i m)
                        / prod_j Gamma(b_j + beta_j m) * z**m / m!

with all alpha_i, beta_j > 0.  The series is entire whenever the convergence
index  delta = sum(beta_j) - sum(alpha_i)  exceeds -1; at delta = -1 it has a
finite radius and below that it is purely asymptotic, so evaluation is
refused there.  Terms are assembled in log space with explicit sign tracking,
which keeps gamma factors with large or negative arguments out of trouble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PoleError
from .gamma import log_abs_gamma
from .results import TINY, EvaluationResult

_POLE_SNAP = 1e-9


@dataclass(frozen=True)
class WrightSpec:
    """Parameter lists ((a_i, alpha_i), ...) upstairs and ((b_j, beta_j), ...) downstairs."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(al)) for a, al in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(be)) for b, be in self.lower))
        for a, al in self.upper:
            if not (math.isfinite(a) and math.isfinite(al) and al > 0.0):
                raise DomainError(f"upper pair ({a}, {al}) needs finite a and alpha > 0")
        for b, be in self.lower:
            if not (math.isfinite(b) and math.isfinite(be) and be > 0.0):
                raise DomainError(f"lower pair ({b}, {be}) needs finite b and beta > 0")


def convergence_index(spec: WrightSpec) -> float:
    """delta = sum of lower slopes minus sum of upper slopes."""
    return math.fsum(be for _, be in spec.lower) - math.fsum(al for _, al in spec.upper)


def _near_nonpositive_integer(v: float) -> bool:
    nearest = round(v)
    return nearest <= 0 and abs(v - nearest) <= _POLE_SNAP


def _log_term(spec: WrightSpec, m: int) -> tuple[float, float]:
    """(log magnitude, sign) of the m-th term without the z**m / m! factor."""
    log_mag = 0.0
    sign = 1.0
    for a, al in spec.upper:
        arg = a + al * m
        if _near_nonpositive_integer(arg):
            raise PoleError(f"upper gamma argument {arg} at term {m} hits a pole")
        lg, s = log_abs_gamma(arg)
        log_mag += lg
        sign *= s
    for b, be in spec.lower:
        arg = b + be * m
        if _near_nonpositive_integer(arg):
            raise PoleError(f"lower gamma argument {arg} at term {m} hits a pole")
        lg, s = log_abs_gamma(arg)
        log_mag -= lg
        sign *= s
    return log_mag, sign


def wright_eval(
    spec: WrightSpec, z: float, tol: float = 1e-12, max_terms: int = 1000
) -> EvaluationResult:
    """Sum the Fox-Wright series at real z with a geometric tail bound.

    Truncation is certified once every gamma argument has passed its last
    pole, the observed term ratios decrease over a three-term window, and the
    latest ratio drops below 1; the tail is then majorized by a geometric
    series, and summation stops once that bound is at most
    ``max(tol * |value|, 1e-280)``: relative to the value, with an absolute
    floor for sums lost to underflow.  Raises ConvergenceError if delta <= -1
    (outside the entire regime) or if ``max_terms`` is exhausted first.
    """
    if not (math.isfinite(z) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"need finite z and tol > 0, got z={z!r}, tol={tol!r}")
    delta = convergence_index(spec)
    if delta <= -1.0:
        raise ConvergenceError(
            f"convergence index {delta} <= -1: series is not entire, refusing to sum"
        )

    def term_value(m: int) -> float:
        log_mag, sign = _log_term(spec, m)
        if m > 0:
            if z == 0.0:
                return 0.0
            log_mag += m * math.log(abs(z)) - math.lgamma(m + 1.0)
            if z < 0.0 and m % 2 == 1:
                sign = -sign
        if log_mag < -745.0:
            return 0.0
        return sign * math.exp(log_mag)

    def args_positive(m: int) -> bool:
        return all(a + al * m > 0.0 for a, al in spec.upper) and all(
            b + be * m > 0.0 for b, be in spec.lower
        )

    total = 0.0
    comp = 0.0
    previous = term_value(0)
    if z == 0.0:
        return EvaluationResult(previous, 0.0, 1)
    ratios: list[float] = []
    for m in range(1, max_terms + 1):
        y = previous - comp
        t = total + y
        comp = (t - total) - y
        total = t
        current = term_value(m)
        if previous != 0.0 and math.isfinite(current / previous):
            ratios.append(abs(current / previous))
            if len(ratios) > 3:
                ratios.pop(0)
        elif current == 0.0 and previous == 0.0:
            # underflowed into the flat tail: nothing left to add
            return EvaluationResult(total, 0.0, m)
        rho = ratios[-1] if ratios else math.inf
        window_ok = len(ratios) == 3 and ratios[0] >= ratios[1] >= ratios[2]
        if window_ok and rho < 1.0 and args_positive(m):
            bound = abs(current) / (1.0 - rho)
            if bound <= max(tol * abs(total), TINY):
                y = current - comp
                total = total + y
                return EvaluationResult(total, bound, m + 1)
        previous = current
    raise ConvergenceError(
        f"Fox-Wright series needed more than {max_terms} terms at z={z} for tol={tol}"
    )
