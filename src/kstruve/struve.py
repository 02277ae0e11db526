"""Generalized k-Struve series and the classical Struve functions.

The central object is

    S[k, nu, c](x) = sum_{r>=0} (-c)**r (x/2)**(2r + nu/k + 1)
                     / (Gamma_k(r k + nu + 3k/2) * Gamma(r + 3/2)),

an entire function of x for every k > 0, nu > -3k/2 and real c.  Setting
c = k = 1 recovers the Struve function H_nu, c = -1, k = 1 the modified
Struve function L_nu.  Terms are generated by the exact ratio recurrence

    t_{r+1} / t_r = -c (x/2)**2 / (k (r + nu/k + 3/2) (r + 3/2)),

whose magnitude decreases monotonically in r, so a geometric majorant gives
a rigorous truncation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConvergenceError, DomainError
from .gamma import gamma, log_k_gamma
from .results import TINY, EvaluationResult

_LOG_DBL_MAX = 709.782712893384
_LGAMMA_3_2 = math.lgamma(1.5)
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class StruveParams:
    """Parameter triple (nu, c, k) of the generalized k-Struve series.

    ``k`` must be positive and ``nu > -3k/2`` so that every k-gamma argument
    nu + (r + 3/2) k stays off the poles.
    """

    nu: float
    c: float
    k: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.c) and math.isfinite(self.k)):
            raise DomainError(f"parameters must be finite, got {self!r}")
        if self.k <= 0.0:
            raise DomainError(f"k must be positive, got k={self.k}")
        if self.nu <= -1.5 * self.k:
            raise DomainError(
                f"need nu > -3k/2 for pole-free denominators, got nu={self.nu}, k={self.k}"
            )

    @property
    def power(self) -> float:
        """Leading exponent nu/k + 1 of the series."""
        return self.nu / self.k + 1.0

    @cached_property
    def log_scale(self) -> float:
        """log of 1 / (Gamma_k(nu + 3k/2) Gamma(3/2)), the r = 0 coefficient."""
        return -log_k_gamma(self.nu + 1.5 * self.k, self.k) - _LGAMMA_3_2


def k_struve(
    params: StruveParams, x: float, tol: float = 1e-12, max_terms: int = 500
) -> EvaluationResult:
    """Evaluate the k-Struve series at real x with a certified tail bound.

    Negative x is admitted only when the leading exponent nu/k + 1 is an
    integer, in which case S(-x) = (-1)**(nu/k + 1) S(x); otherwise the
    fractional power has no real value and DomainError is raised.  Summation
    stops once the tail bound is at most ``max(tol * |value|, 1e-280)``,
    relative to the value with an absolute floor for sums lost to underflow.
    The returned ``error_bound`` majorizes the truncation error (not the
    floating-point rounding, which is a few ulps on top).
    """
    if not (math.isfinite(x) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"need finite x and tol > 0, got x={x!r}, tol={tol!r}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    lam = params.power

    if x < 0.0:
        if lam != math.floor(lam):
            raise DomainError(
                f"negative argument x={x} needs integer nu/k + 1, got {lam}"
            )
        flipped = k_struve(params, -x, tol=tol, max_terms=max_terms)
        sign = 1.0 if lam % 2.0 == 0.0 else -1.0
        return EvaluationResult(sign * flipped.value, flipped.error_bound, flipped.terms_used)

    if x == 0.0:
        if lam > 0.0:
            return EvaluationResult(0.0, 0.0, 0)
        if lam == 0.0:
            # only the r = 0 term survives: (x/2)**0 = 1
            return EvaluationResult(math.exp(params.log_scale), 0.0, 1)
        raise DomainError(f"x = 0 diverges for nu/k + 1 = {lam} < 0")

    half = 0.5 * x
    # subnormal x can underflow the halving; take the log before scaling then
    log_half = math.log(half) if half > 0.0 else math.log(x) - math.log(2.0)
    log_t0 = lam * log_half + params.log_scale
    if log_t0 > _LOG_DBL_MAX:
        raise ConvergenceError(
            f"leading term overflows at x={x}; argument too large for the series"
        )
    term = math.exp(log_t0)
    ratio_scale = -params.c * half * half / params.k
    base = params.nu / params.k + 1.5

    total = 0.0
    comp = 0.0  # Kahan carry
    for r in range(max_terms):
        # compensated add of the current term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        rho = abs(ratio_scale) / ((r + base) * (r + 1.5))
        if rho < 1.0:
            bound = abs(term) * rho / (1.0 - rho)
            if bound <= max(tol * abs(total), TINY):
                return EvaluationResult(total, bound, r + 1)
        term *= ratio_scale / ((r + base) * (r + 1.5))
        if not math.isfinite(term):
            raise ConvergenceError(
                f"series term overflowed at r={r + 1} for x={x}; argument too large"
            )
    raise ConvergenceError(
        f"k-Struve series needed more than {max_terms} terms at x={x} for tol={tol}"
    )


def struve_h(nu: float, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Struve function H_nu(x), the k-Struve series at c = k = 1."""
    return k_struve(StruveParams(nu=nu, c=1.0, k=1.0), x, tol=tol)


def struve_l(nu: float, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Modified Struve function L_nu(x), the k-Struve series at c = -1, k = 1."""
    return k_struve(StruveParams(nu=nu, c=-1.0, k=1.0), x, tol=tol)


def struve_ode_residual(nu: float, x: float, step: float = 1e-4, tol: float = 1e-12) -> float:
    """Absolute residual of the Struve differential equation at x.

    H_nu satisfies  x^2 y'' + x y' + (x^2 - nu^2) y = 4 (x/2)**(nu+1)
    / (sqrt(pi) Gamma(nu + 1/2)).  Derivatives are approximated with central
    differences of width ``step``, so the residual carries an O(step**2)
    discretization error on top of series rounding; it is a sanity probe,
    not a certified quantity.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if x <= 2.0 * step:
        raise DomainError(f"need x > 2*step to difference safely, got x={x}, step={step}")
    y_minus = struve_h(nu, x - step, tol=tol).value
    y_center = struve_h(nu, x, tol=tol).value
    y_plus = struve_h(nu, x + step, tol=tol).value
    d1 = (y_plus - y_minus) / (2.0 * step)
    d2 = (y_plus - 2.0 * y_center + y_minus) / (step * step)
    forcing = 4.0 * (0.5 * x) ** (nu + 1.0) / (_SQRT_PI * gamma(nu + 0.5))
    return abs(x * x * d2 + x * d1 + (x * x - nu * nu) * y_center - forcing)
