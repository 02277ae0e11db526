"""Fox-Wright generalized hypergeometric series p Psi q.

    Psi(z) = sum_{m>=0} prod_i Gamma(a_i + alpha_i m)
                        / prod_j Gamma(b_j + beta_j m) * z**m / m!

with all alpha_i, beta_j > 0.  The series is entire whenever the convergence
index  delta = sum(beta_j) - sum(alpha_i)  exceeds -1; at delta = -1 it has a
finite radius and below that it is purely asymptotic, so evaluation is
refused there.  With integer slopes (every identity in the package) the terms
follow their exact ratio recurrence, re-summed in fixed point when they cancel
beyond double precision; other slopes assemble each term in log space with
explicit sign tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConvergenceError, DomainError, PoleError
from .fixedpoint import UNIT as _UNIT
from .fixedpoint import MAX_BITS, SUBNORMAL_ULP, LinearRatio, sum_fixed
from .gamma import log_abs_gamma
from .results import TINY, EvaluationResult

_POLE_SNAP = 1e-9
_LOG2_E = 1.4426950408889634
# beyond a peak of e**this times the first term the fixed-point pass would
# need more than MAX_BITS bits: the double loop runs and reports the overflow
_MAX_LOG_PEAK = MAX_BITS / _LOG2_E


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

    @cached_property
    def _plan(self) -> "_Plan":
        """The integer-slope evaluator, built on first use."""
        return _Plan(self)

    @property
    def lead_error(self) -> float:
        """Relative error bound of the computed m = 0 term.

        :func:`wright_eval` cannot meet a relative tolerance much below it.
        """
        if all(w.is_integer() for _, w in self.upper + self.lower):
            return self._plan.lead_err
        _, _, size = _log_term(self, 0)
        count = len(self.upper) + len(self.lower)
        return _UNIT * ((6.0 + count) * size + 4.0 * (count + 1) + 2.0)


def convergence_index(spec: WrightSpec) -> float:
    """delta = sum of lower slopes minus sum of upper slopes."""
    return math.fsum(be for _, be in spec.lower) - math.fsum(al for _, al in spec.upper)


def _near_nonpositive_integer(v: float) -> bool:
    nearest = round(v)
    return nearest <= 0 and abs(v - nearest) <= _POLE_SNAP


def _log_term(spec: WrightSpec, m: int) -> tuple[float, float, float]:
    """(log magnitude, sign, sum of |log Gamma|) of the m-th term without z**m / m!."""
    log_mag = 0.0
    sign = 1.0
    size = 0.0
    for a, al in spec.upper:
        arg = a + al * m
        if _near_nonpositive_integer(arg):
            raise PoleError(f"upper gamma argument {arg} at term {m} hits a pole")
        lg, s = log_abs_gamma(arg)
        log_mag += lg
        size += abs(lg)
        sign *= s
    for b, be in spec.lower:
        arg = b + be * m
        if _near_nonpositive_integer(arg):
            raise PoleError(f"lower gamma argument {arg} at term {m} hits a pole")
        lg, s = log_abs_gamma(arg)
        log_mag -= lg
        size += abs(lg)
        sign *= s
    return log_mag, sign, size


def _first_positive(forms) -> int:
    """Smallest m >= 0 with p*m + q > 0 for every (p, q) in forms."""
    first = 0
    for p, q in forms:
        m = max(0, math.floor(-q / p) + 1) if q <= 0.0 else 0
        while p * m + q <= 0.0:
            m += 1
        first = max(first, m)
    return first


def _factor(slope: float, a: float, s: int):
    """The factor slope*m + a + s, exactly as (slope, n, d) and as a double pair.

    a + s = n / d with d a power of two; the double a + s can round, and then
    it is positive, since for |a| < 2**53 a + s is exact whenever |a + s| <= |a|.
    """
    n, d = a.as_integer_ratio()
    return (int(slope), n + s * d, d), (int(slope), a + s)


class _Plan:
    """Integer-slope evaluator of one spec, built once.

    With integer slopes Gamma(a + alpha (m + 1)) / Gamma(a + alpha m) is the
    product of alpha linear factors, so the term ratio is z times a ratio of
    linear factors in m; a factor shared by both sides (such as m + 1 from
    m!) cancels.  From ``tail_start`` on every factor is positive and the
    ratio magnitude is non-increasing, which certifies a geometric tail.
    """

    def __init__(self, spec: WrightSpec):
        num = [_factor(al, a, s) for a, al in spec.upper for s in range(int(al))]
        den = [_factor(be, b, s) for b, be in spec.lower for s in range(int(be))]
        den.append(_factor(1.0, 1.0, 0))  # m + 1 from z**m / m!
        for form in list(num):
            if form in den:
                num.remove(form)
                den.remove(form)
        exact_num = [exact for exact, _ in num]
        exact_den = [exact for exact, _ in den]
        num = [form for _, form in num]
        den = [form for _, form in den]
        start = _first_positive(num + den)
        if num:
            low = min(q / p for p, q in num)
            high = max(q / p for p, q in den)
            # sum 1/(m + q/p) upstairs <= downstairs once this holds
            edge = (len(num) * high - len(den) * low) / (len(den) - len(num))
            start = max(start, math.ceil(edge) + 1)
        self.num_forms = tuple(num)
        self.den_forms = tuple(den)
        self._exact = (exact_num, exact_den)
        # roundings per step: one per factor and product, the quotient, the
        # update, and one for each q = a + s that is not a double
        inexact = sum(
            q.as_integer_ratio() != (n, d)
            for (_, n, d), (_, q) in zip(exact_num + exact_den, num + den)
        )
        self.step_ulps = 2.0 * (len(num) + len(den)) + 1.0 + inexact
        self.tail_start = start
        # |t_m / t_0| is about (|z| kappa)**m / m!**order for large m, which
        # peaks near m = (|z| kappa)**(1/order) at about e**(order m)
        self.order = len(den) - len(num)
        self.kappa = math.prod([p for p, _ in num]) / math.prod([p for p, _ in den])

        log_mag, sign, size = _log_term(spec, 0)
        count = len(spec.upper) + len(spec.lower)
        self.lead = sign * math.exp(log_mag) if -700.0 < log_mag < 700.0 else 0.0
        # each log Gamma within 2 ulps (plus 4 ulps absolute), the sum, exp
        self.lead_err = _UNIT * ((4.0 + count) * size + 4.0 * count + 2.0)

    @cached_property
    def log_forms(self) -> tuple[tuple[float, float, float, float], ...] | None:
        """(sign, log p, q/p, lgamma(q/p)) of each factor, upstairs +1; None unless every q > 0.

        Then prod_{j<m} (p j + q) = p**m Gamma(m + q/p) / Gamma(q/p), which
        gives log |t_m / t_0| from log-gamma values.
        """
        groups = ((1.0, self.num_forms), (-1.0, self.den_forms))
        if any(q <= 0.0 for _, forms in groups for _, q in forms):
            return None
        return tuple(
            (sign, math.log(p), q / p, math.lgamma(q / p)) for sign, forms in groups for p, q in forms
        )

    @cached_property
    def table(self) -> LinearRatio:
        """The factors as exact integers, for the fixed-point path."""
        # p*m + n/d = (p*d*m + n) / d: the denominators d are powers of two,
        # moved across
        exact_num, exact_den = self._exact
        num_const = math.prod(d for _, _, d in exact_den)
        den_const = math.prod(d for _, _, d in exact_num)
        return LinearRatio(
            [(p * d, n) for p, n, d in exact_num],
            [(p * d, n) for p, n, d in exact_den],
            num_const,
            den_const,
            self.tail_start,
        )


def wright_eval(
    spec: WrightSpec, z: float, tol: float = 1e-12, max_terms: int = 1000
) -> EvaluationResult:
    """Sum the Fox-Wright series at real z with a certified error bound.

    Summation stops once the error bound is at most
    ``max(tol * |value|, 1e-280)``: relative to the value, with an absolute
    floor for sums lost to underflow.  With integer slopes that floor is
    multiplied by the first term's magnitude when it is below 1, so a small
    sum that a large prefactor scales back up keeps its relative accuracy.
    The bound covers the truncated tail and the rounding of every term and of
    the sum, with (terms + 2) * 2**-1074 for results below the normal range.

    When every slope is an integer the terms follow their exact ratio
    recurrence; from the index at which every factor is positive and the
    ratio magnitude can no longer rise, the tail is majorized by a geometric
    series.  If the rounding of the double loop alone would break the rule,
    the series is re-summed in fixed point on integers (see
    :mod:`kstruve.fixedpoint`); for z < 0 whose largest term exceeds
    tol / 2**-53 times the first, which an O(1) estimate detects, the
    fixed-point pass runs without the double loop.  Other slopes assemble
    each term from log Gamma values; the tail is certified once every gamma
    argument is positive, the observed term ratios decrease over a
    three-term window and the latest ratio is below 1, and a rounding bound
    the rule cannot absorb raises ConvergenceError naming the cancellation.  ConvergenceError is
    also raised if delta <= -1 (outside the entire regime) or if
    ``max_terms`` is exhausted first.
    """
    if not (math.isfinite(z) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"need finite z and tol > 0, got z={z!r}, tol={tol!r}")
    delta = convergence_index(spec)
    if delta <= -1.0:
        raise ConvergenceError(
            f"convergence index {delta} <= -1: series is not entire, refusing to sum"
        )
    if all(w.is_integer() for _, w in spec.upper + spec.lower):
        plan = spec._plan
        if plan.lead != 0.0:
            return _ratio_sum(plan, z, tol, max_terms)
    return _log_sum(spec, z, tol, max_terms)


def _peak_bits(plan: _Plan, z: float, tol: float) -> int:
    """log2 max |t_m / t_0| at z < 0 when it is too large for doubles, else 0.

    Doubles cannot serve once UNIT times the largest term exceeds tol * |t_0|,
    since the sum of the alternating terms is below |t_0| there.  The test
    costs O(1) in z: the upper estimate order (|z| kappa)**(1/order) of the
    log peak screens out small |z|, and only then is log |t_m / t_0| taken
    from log-gamma values at m = round((|z| kappa)**(1/order)), at or near
    the peak.
    """
    budget = math.log(tol / _UNIT)
    root = (-z * plan.kappa) ** (1.0 / plan.order)
    if not budget < plan.order * root <= _MAX_LOG_PEAK or plan.log_forms is None:
        return 0
    m = round(root)
    log_peak = m * math.log(-z)
    for sign, log_p, shift, lgamma_shift in plan.log_forms:
        log_peak += sign * (m * log_p + math.lgamma(m + shift) - lgamma_shift)
    if log_peak <= budget:
        return 0
    return math.ceil(log_peak * _LOG2_E)


def _ratio_sum(plan: _Plan, z: float, tol: float, max_terms: int) -> EvaluationResult:
    """Integer-slope series by its exact term ratio, in doubles or fixed point."""
    lead = plan.lead
    if z == 0.0:
        return EvaluationResult(lead, abs(lead) * plan.lead_err + 3.0 * SUBNORMAL_ULP, 1)
    if z < 0.0:
        peak_bits = _peak_bits(plan, z, tol)
        if peak_bits:
            return _fixed(plan, z, peak_bits, tol, max_terms)
    num_forms, den_forms = plan.num_forms, plan.den_forms
    start = plan.tail_start
    # below |t_0| = 1 the absolute floor shrinks with it: a small sum that a
    # large prefactor scales back up keeps its relative accuracy
    floor = TINY * min(abs(lead), 1.0)
    term = lead
    total = 0.0
    comp = 0.0
    mags = 0.0  # sum of |t_m|
    for m in range(max_terms):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(term)
        mags += mag
        num = z
        for p, q in num_forms:
            num *= p * m + q
        den = 1.0
        for p, q in den_forms:
            den *= p * m + q
        ratio = num / den
        rho = abs(ratio)
        term *= ratio
        if not math.isfinite(term):
            raise ConvergenceError(f"Fox-Wright term overflowed at m={m + 1} for z={z}")
        if m < start or rho >= 1.0:
            continue
        # each t_j, j <= m, carries at most m * step_ulps and the leading
        # term's error; Kahan summation adds 2
        rounding = _UNIT * (plan.step_ulps * m + 2.0) * mags + plan.lead_err * abs(total)
        reach = abs(total) + abs(term) / (1.0 - rho)  # bounds |sum| from here on
        if abs(term) <= (1.0 - rho) * max(tol * abs(total), floor):
            # the next term and all after it are within tol: add it as well,
            # which leaves a tail of at most |t_{m+1}| rho / (1 - rho)
            total += term - comp
            mag = abs(term)
            mags += mag
            bound = mag * rho / (1.0 - rho)
            rounding = _UNIT * (plan.step_ulps * (m + 1) + 2.0) * mags + plan.lead_err * abs(total)
            if bound + rounding <= max(tol * abs(total), floor):
                error = bound + rounding + (m + 4) * SUBNORMAL_ULP
                return EvaluationResult(total, error, m + 2)
        elif rounding <= 0.5 * tol * reach:
            continue
        # the rounding cannot fit under tol * |value| any more
        cond_bits = math.ceil(math.log2(mags / abs(total))) if total else 0
        return _fixed(plan, z, cond_bits, tol, max_terms)
    raise ConvergenceError(
        f"Fox-Wright series needed more than {max_terms} terms at z={z} for tol={tol}"
    )


def _fixed(plan: _Plan, z: float, cond_bits: int, tol: float, max_terms: int) -> EvaluationResult:
    """The fixed-point path of :func:`_ratio_sum`."""
    zn, zd = z.as_integer_ratio()
    try:
        return sum_fixed(
            plan.table,
            abs(zn),
            zd.bit_length() - 1,
            z < 0.0,
            plan.lead,
            plan.lead_err,
            cond_bits,
            tol,
            max_terms,
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"Fox-Wright series at z={z}: {exc}") from None


def _log_sum(spec: WrightSpec, z: float, tol: float, max_terms: int) -> EvaluationResult:
    """Any slopes: each term from log Gamma values, with a running rounding bound."""
    count = len(spec.upper) + len(spec.lower)
    log_z = math.log(abs(z)) if z != 0.0 else 0.0

    def term_value(m: int) -> tuple[float, float]:
        """The m-th term and a bound on its relative rounding error."""
        log_mag, sign, size = _log_term(spec, m)
        if m > 0:
            if z == 0.0:
                return 0.0, 0.0
            power = m * log_z
            lg_fact = math.lgamma(m + 1.0)
            log_mag += power - lg_fact
            size += abs(power) + abs(lg_fact)
            if z < 0.0 and m % 2 == 1:
                sign = -sign
        # each log within 2 ulps (plus 4 ulps absolute), the sums, exp
        err = _UNIT * ((6.0 + count) * size + 4.0 * (count + 1) + 2.0)
        if log_mag < -745.0:
            return 0.0, 0.0
        return sign * math.exp(log_mag), err

    positive_from = _first_positive([(w, a) for a, w in spec.upper + spec.lower])
    total = 0.0
    comp = 0.0
    previous, previous_err = term_value(0)
    if z == 0.0:
        return EvaluationResult(previous, abs(previous) * previous_err + 3.0 * SUBNORMAL_ULP, 1)
    # as in _ratio_sum, the absolute floor shrinks with a first term below 1
    floor = TINY * min(abs(previous), 1.0)
    mags = 0.0
    rounding = 0.0
    ratios: list[float] = []
    for m in range(1, max_terms + 1):
        y = previous - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mags += abs(previous)
        rounding += abs(previous) * previous_err
        current, current_err = term_value(m)
        if previous != 0.0 and math.isfinite(current / previous):
            ratios.append(abs(current / previous))
            if len(ratios) > 3:
                ratios.pop(0)
        elif current == 0.0 and previous == 0.0:
            # underflowed into the flat tail: nothing left to add
            return EvaluationResult(total, _UNIT * 2.0 * mags + rounding + (m + 2) * SUBNORMAL_ULP, m)
        rho = ratios[-1] if ratios else math.inf
        window_ok = len(ratios) == 3 and ratios[0] >= ratios[1] >= ratios[2]
        if window_ok and rho < 1.0 and m >= positive_from:
            bound = abs(current) / (1.0 - rho)
            limit = max(tol * abs(total), floor)
            if bound <= limit:
                rounding += abs(current) * current_err + _UNIT * 2.0 * (mags + abs(current))
                error = bound + rounding
                if error <= limit:
                    y = current - comp
                    total = total + y
                    return EvaluationResult(total, error + (m + 3) * SUBNORMAL_ULP, m + 1)
                if rounding > 0.5 * limit:
                    cancellation = mags / abs(total) if total else math.inf
                    raise ConvergenceError(
                        f"Fox-Wright series at z={z}: the terms cancel "
                        f"(sum |t| / |sum t| = {cancellation:.2e}) and their "
                        f"rounding {rounding:.2e} exceeds tol * |value| = {limit:.2e}"
                    )
        previous, previous_err = current, current_err
    raise ConvergenceError(
        f"Fox-Wright series needed more than {max_terms} terms at z={z} for tol={tol}"
    )
