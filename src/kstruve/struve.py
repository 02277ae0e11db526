"""Generalized k-Struve series and the classical Struve functions.

The central object is

    S[k, nu, c](x) = sum_{r>=0} (-c)**r (x/2)**(2r + nu/k + 1)
                     / (Gamma_k(r k + nu + 3k/2) * Gamma(r + 3/2)),

an entire function of x for every k > 0, nu > -3k/2 and real c.  Setting
c = k = 1 recovers the Struve function H_nu, c = -1, k = 1 the modified
Struve function L_nu.  Terms are generated by the exact ratio recurrence

    t_{r+1} / t_r = -c (x/2)**2 / (k (r + nu/k + 3/2) (r + 3/2)),

whose magnitude decreases monotonically in r, so a geometric majorant gives
a rigorous truncation bound.  The returned bound adds the rounding of the
double-precision loop; where the terms cancel too much for doubles (c > 0 and
large x sqrt(c/k)) the same ratio, read as an exact rational, is summed in
fixed point on integers (see :mod:`kstruve.fixedpoint`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConvergenceError, DomainError
from .fixedpoint import UNIT, LinearRatio, sum_fixed
from .gamma import gamma, log_k_gamma
from .results import TINY, EvaluationResult

_LOG_DBL_MAX = 709.782712893384
_LGAMMA_3_2 = math.lgamma(1.5)
_SQRT_PI = math.sqrt(math.pi)
# from x sqrt(c/k) = 8 (ratio_scale = -16) on, with c > 0, the terms outgrow
# the sum by more than about 150: the double loop would fail the relative rule
# at the usual tolerances, so the fixed-point path runs directly
_FIXED_RATIO_SCALE = -16.0
# log2(e): the terms of the c > 0 series outgrow their sum by about e**(x sqrt(c/k))
_LOG2_E = 1.4426950408889634


def _gap(f: float, num: int, den: int) -> float:
    """num/den - f for a double f, without rounding before the subtraction."""
    fn, fd = f.as_integer_ratio()
    return (num * fd - fn * den) / (fd * den)


class _SeriesConstants:
    """Per-parameter constants of the k-Struve evaluator, built once.

    ``table`` holds the exact ratio -c x**2 bd / (2k (r bd + bn)(2r + 3)) with
    base = nu/k + 3/2 = bn/bd read exactly from the doubles nu and k;
    ``num_const`` times xn**2 is its numerator for x = xn / 2**e.
    ``power_delta`` is the exact leading power nu/k + 1 minus its double,
    and ``scale_err`` bounds the absolute error of ``log_scale``.
    """

    def __init__(self, p: "StruveParams"):
        nn, nd = p.nu.as_integer_ratio()
        kn, kd = p.k.as_integer_ratio()
        cn, cd = p.c.as_integer_ratio()
        bn, bd = 2 * nn * kd + 3 * nd * kn, 2 * nd * kn
        g = math.gcd(bn, bd)
        bn, bd = bn // g, bd // g
        self.base = p.nu / p.k + 1.5
        # ulps a term of the double loop gains per step: 3 from ratio_scale,
        # 4 from the ratio and the product, and the error of the double base,
        # a relative error of at most |base error| / base in each r + base
        self.step_ulps = 7.0 + abs(_gap(self.base, bn, bd)) / self.base / UNIT
        self.power_delta = _gap(p.power, 2 * bn - bd, 2 * bd)
        self._exact = (bn, bd, abs(cn) * kd * bd, 2 * cd * kn)
        # log_scale = -((t - 1) log k + lgamma(t)) - lgamma(3/2), t = (nu + 1.5k)/k:
        # the error of t moves lgamma by at most |psi(t)| <= 1/t + log(t + 1) + 1,
        # each libm call is within 2 ulps and each operation within one
        t = (p.nu + 1.5 * p.k) / p.k
        t_err = abs(_gap(t, bn, bd))
        log_k = math.log(p.k)
        lg = math.lgamma(t)
        prod = (t - 1.0) * log_k
        psi = 1.0 / t + math.log(t + 1.0) + 1.0
        self.scale_err = (
            abs(log_k) * (t_err + UNIT * abs(t - 1.0))
            + psi * t_err
            + UNIT * (3.0 * abs(prod) + 4.0 * (abs(lg) + 1.0) + abs(prod + lg))
            + UNIT * (4.0 * abs(_LGAMMA_3_2) + abs(p.log_scale))
        )
        # 1 / (Gamma_k(nu + 3k/2) Gamma(3/2)) as a double, when that is normal,
        # and the error of (x/2)**power * scale0: pow, exp and the product, and
        # the power correction 1 + t and its product
        self.scale0 = math.exp(p.log_scale) if abs(p.log_scale) < 690.0 else 0.0
        self.lead_err = self.scale_err + 7.0 * UNIT
        self.power = p.power

    @cached_property
    def table(self) -> LinearRatio:
        bn, bd, num_const, den_const = self._exact
        return LinearRatio((), ((bd, bn), (2, 3)), num_const, den_const, 0)


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

    @cached_property
    def _series(self) -> _SeriesConstants:
        return _SeriesConstants(self)

    @property
    def lead_error(self) -> float:
        """Relative error bound of the computed r = 0 coefficient.

        :func:`k_struve` cannot meet a relative tolerance much below it.
        """
        return self._series.lead_err


def k_struve(
    params: StruveParams, x: float, tol: float = 1e-12, max_terms: int = 500
) -> EvaluationResult:
    """Evaluate the k-Struve series at real x with a certified error bound.

    Negative x is admitted only when the leading exponent nu/k + 1 is an
    integer, in which case S(-x) = (-1)**(nu/k + 1) S(x); otherwise the
    fractional power has no real value and DomainError is raised.  Summation
    stops once the error bound is at most ``max(tol * |value|, 1e-280)``,
    relative to the value with an absolute floor for sums lost to underflow.

    The returned ``error_bound`` covers the truncated tail and the rounding:
    the error of the leading term, (s n + 2) ulps of sum |t_r| for the double
    loop after n + 1 terms, with s about 7 roundings a step, and the
    fixed-point floors when that path runs.  The
    series is summed in fixed point on integers, at about
    64 + log2(sum |t_r| / |S|) bits, when c > 0 and x sqrt(c/k) >= 8, or when
    the rounding of the double loop alone would break the rule above.
    """
    if not (math.isfinite(x) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"need finite x and tol > 0, got x={x!r}, tol={tol!r}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    consts = params._series
    lam = consts.power

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
            value = math.exp(params.log_scale)
            return EvaluationResult(value, value * (consts.scale_err + 2.0 * UNIT), 1)
        raise DomainError(f"x = 0 diverges for nu/k + 1 = {lam} < 0")

    half = 0.5 * x
    try:
        lead = half**lam * consts.scale0
    except OverflowError:
        lead = 0.0
    if 1e-300 < lead < 1e300:
        lead_err = consts.lead_err
        if consts.power_delta:
            # the exact power: (x/2)**delta = exp(t), within t**2 of 1 + t for
            # |t| < 1/2; delta is a few ulps of nu/k, so t is of order 1e-13
            t = consts.power_delta * math.log(half)
            lead *= 1.0 + t
            lead_err += t * t + 3.0 * UNIT * abs(t)
    else:
        # subnormal x can underflow the halving; take the log before scaling then
        log_half = math.log(half) if half > 0.0 else math.log(x) - math.log(2.0)
        log_t0 = (lam * log_half + consts.power_delta * log_half) + params.log_scale
        if log_t0 > _LOG_DBL_MAX:
            raise ConvergenceError(
                f"leading term overflows at x={x}; argument too large for the series"
            )
        lead = math.exp(log_t0)
        # the log and products, the two sums, exp
        lead_err = (
            UNIT * (4.0 * abs(lam * log_half) + 3.0 * abs(consts.power_delta * log_half))
            + UNIT * (abs(log_t0) + 2.0)
            + consts.scale_err
        )
    ratio_scale = -params.c * half * half / params.k
    if ratio_scale <= _FIXED_RATIO_SCALE:
        return _fixed(params, x, lead, lead_err, ratio_scale, 0, tol, max_terms)
    base = consts.base
    term = lead

    total = 0.0
    comp = 0.0  # Kahan carry
    mags = 0.0  # sum of |t_r|
    for r in range(max_terms):
        # compensated add of the current term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(term)
        mags += mag
        ratio = ratio_scale / ((r + base) * (r + 1.5))
        rho = abs(ratio)
        if rho < 1.0:
            bound = mag * rho / (1.0 - rho)
            limit = max(tol * abs(total), TINY)
            if bound <= limit:
                # each t_j, j <= r, carries at most r * step_ulps; Kahan
                # summation adds 2 ulps
                rounding = UNIT * (consts.step_ulps * r + 2.0) * mags
                rounding += lead_err * abs(total)
                if bound + rounding <= limit:
                    return EvaluationResult(total, bound + rounding, r + 1)
                if rounding > 0.5 * limit:
                    cond_bits = math.ceil(math.log2(mags / abs(total))) if total else 0
                    return _fixed(params, x, lead, lead_err, ratio_scale, cond_bits, tol, max_terms)
        term *= ratio
    # an overflowed term turns the bound into inf or nan, so the loop ends here
    if not math.isfinite(term):
        raise ConvergenceError(f"series term overflowed for x={x}; argument too large")
    raise ConvergenceError(
        f"k-Struve series needed more than {max_terms} terms at x={x} for tol={tol}"
    )


def _fixed(params, x, lead, lead_err, ratio_scale, cond_bits, tol, max_terms):
    """The fixed-point path of :func:`k_struve`, after its guards."""
    # the terms grow while (r + base)(r + 3/2) < |ratio_scale|, that is up to
    # r = sqrt|ratio_scale|, and reach about e**(2 sqrt|ratio_scale|) times the first
    q = -ratio_scale if ratio_scale < 0.0 else ratio_scale
    peak = math.sqrt(q)
    if peak >= max_terms:
        raise ConvergenceError(
            f"k-Struve series needed more than {max_terms} terms at x={x} for tol={tol}"
        )
    if params.c > 0.0:
        cond_bits = max(cond_bits, math.ceil(2.0 * _LOG2_E * peak) + 8)
    consts = params._series
    xn, xd = x.as_integer_ratio()
    try:
        return sum_fixed(
            consts.table,
            xn * xn,
            2 * (xd.bit_length() - 1),
            params.c > 0.0,
            lead,
            lead_err,
            cond_bits,
            tol,
            max_terms,
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"k-Struve series at x={x}: {exc}") from None


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
