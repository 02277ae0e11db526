"""Summation of series whose term ratio is an exact rational, in doubles or fixed point.

Both series in the package (the k-Struve series is a Fox-Wright series
times a power) have term ratios that are rational functions of the
summation index, with coefficients that are exact binary fractions once
the double-precision inputs are read as rationals.  The integer-slope
Fox-Wright series is summed here; the k-Struve series takes only the kept
terms of one fixed-point pass (:func:`fixed_terms`) for its polynomial:

    t_{m+1} / t_m = +-(scale * NUM_m / 2**shift) / DEN_m,

where NUM_m and DEN_m are integer polynomials in m (products of linear
factors p*m + q).  :func:`sum_ratio` sums the terms in doubles, with a
geometric tail bound and a rounding bound of a few ulps per step.  When
double rounding cannot meet a relative tolerance (the terms cancel),
:func:`sum_fixed` re-sums t_0 * sum_m u_m on Python integers:
u_0 = 2**bits and u_{m+1} = floor(u_m * ratio), with NUM_m and DEN_m
multiplied out from their factors at each index, so the only rounding is
one floor per step.  The floor errors e_m obey
e_{m+1} <= rho_m e_m + 1; once the ratios rho_m are non-increasing (from
index ``tail_start`` on), every error's later growth is majorized by the
terms themselves, which gives the bound

    sum_m e_m <= 4 * sum_m |u_m| * (sum_{1 <= j < start} 1 / |u_j| + n / |u_start|)

in units of 2**-bits.  Summation stops on a bit-length test: the first
dropped term is below 2**-gap of the partial sum and the ratio there is at
most 1/4, so the tail is at most twice that term.

:func:`fixed_terms` hands out the kept terms u_m of one such pass, with
the tail and floor bounds, for a caller that evaluates the series at
smaller arguments as a polynomial in the ratio of the squared arguments.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConvergenceError
from .results import TINY, EvaluationResult

# unit roundoff of a double, 2**-53
UNIT = 2.0**-53

# spacing of the subnormal doubles, 2**-1074: below the normal range, where
# UNIT * |value| underflows, each term and the sum may be off by this much.
# Every returned bound adds (terms + 2) of it, after the stopping test
SUBNORMAL_ULP = math.ulp(0.0)

# the working precision never exceeds this many bits; beyond it the argument
# is out of reach and the caller is told so instead of allocating huge integers
MAX_BITS = 4096

# log2(e), for bit counts of terms that grow like e**t
LOG2_E = 1.4426950408889634


def sum_ratio(
    lead, lead_err, z, num_forms, den_forms, step_ulps, tail_start, floor, tol, max_terms, fixed
):
    """lead * sum_m t_m / t_0 in doubles, with a bound that covers truncation and rounding.

    t_{m+1} / t_m = z prod(p m + q) / prod(p' m + q') over the pairs of
    ``num_forms`` and ``den_forms``, and its magnitude rho is non-increasing
    from ``tail_start`` on.  ``lead`` is t_0 with relative error at most
    ``lead_err``, and each step adds at most ``step_ulps`` ulps to a term.
    Summation stops once the next term, added as well, leaves a tail and a
    rounding that fit max(tol |sum|, floor).  When the rounding alone cannot
    fit, the result is ``fixed(cond_bits)``, with cond_bits about
    log2(sum |t_m| / |sum t_m|).  ConvergenceError if a term overflows or
    ``max_terms`` terms do not suffice.
    """
    term = lead
    total = 0.0
    comp = 0.0  # Kahan carry
    mags = 0.0  # sum of |t_m|
    for m in range(max_terms):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mags += abs(term)
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
            raise ConvergenceError(f"term overflowed at m={m + 1}")
        if m < tail_start or rho >= 1.0:
            continue
        # each t_j, j <= m, carries at most m * step_ulps and the leading
        # term's error; Kahan summation adds 2
        rounding = UNIT * (step_ulps * m + 2.0) * mags + lead_err * abs(total)
        reach = abs(total) + abs(term) / (1.0 - rho)  # bounds |sum| from here on
        if abs(term) <= (1.0 - rho) * max(tol * abs(total), floor):
            # the next term and all after it are within tol: add it as well,
            # which leaves a tail of at most |t_{m+1}| rho / (1 - rho)
            total += term - comp
            mag = abs(term)
            mags += mag
            bound = mag * rho / (1.0 - rho)
            rounding = UNIT * (step_ulps * (m + 1) + 2.0) * mags + lead_err * abs(total)
            if bound + rounding <= max(tol * abs(total), floor):
                error = bound + rounding + (m + 4) * SUBNORMAL_ULP
                return EvaluationResult(total, error, m + 2)
        elif rounding <= 0.5 * tol * reach:
            continue
        # the rounding cannot fit under tol * |value| any more
        cond_bits = math.ceil(math.log2(mags / abs(total))) if total else 0
        return fixed(cond_bits)
    raise ConvergenceError(f"needed more than {max_terms} terms for tol={tol}")


class LinearRatio(
    namedtuple("LinearRatio", "num_forms den_forms num_const den_const tail_start shift")
):
    """Exact integer numerators and denominators of a term ratio, immutable.

    ``num_forms`` and ``den_forms`` are integer pairs (p, q) standing for the
    linear factors p*m + q, so that NUM_m = num_const * prod(p*m + q) and
    likewise DEN_m, up to the power of two ``2**shift`` taken out of their
    ratio.  ``tail_start`` is an index from which the ratio magnitudes are
    non-increasing.
    """

    __slots__ = ()

    def __new__(cls, num_forms, den_forms, num_const: int, den_const: int, tail_start: int):
        # powers of two in the constants become a shift, which keeps the
        # integers of every step short; a zero numerator (every ratio 0) has none
        num_twos = (num_const & -num_const).bit_length() - 1 if num_const else 0
        den_twos = (den_const & -den_const).bit_length() - 1
        return super().__new__(
            cls, num_forms, den_forms, num_const >> num_twos, den_const >> den_twos, tail_start,
            den_twos - num_twos,
        )


def _pass(table, step, shift, negate, bits, gap, max_terms, keep=None):
    """One summation at ``bits`` bits: (sum, tail, floors, terms), or None.

    ``tail`` bounds the dropped terms and ``floors`` the summed floor errors,
    both in units of 2**-bits.  The tail is certified once the ratio is at
    most 1/4 past ``tail_start``.  Positive and negative terms go to separate
    sums, whose total is sum |u|.  A list ``keep`` receives the signed kept
    terms u_1, u_2, ...
    """
    a = 1 << bits
    plus, minus = a, 0
    positive = True
    start = table.tail_start
    early = []  # u_j for 1 <= j < start
    anchor = a  # u_start
    # the bookkeeping of the first terms runs on every term while keeping
    stop = start if keep is None else max_terms
    num_forms, den_forms, den_const = table.num_forms, table.den_forms, table.den_const
    # a term can pass the bit-length test only if it is at most |sum| >> (gap - 1);
    # this bound is refreshed whenever a term falls under it
    thresh = a >> (gap - 1)
    for m in range(max_terms):
        num = step
        for p, q in num_forms:
            num *= p * m + q
        den = den_const
        for p, q in den_forms:
            den *= p * m + q
        nxt = (a * abs(num) >> shift) // abs(den)
        if nxt <= thresh:
            total = plus - minus
            if m >= start and nxt.bit_length() + gap <= total.bit_length() and (nxt + 1) << 2 <= a:
                magnitude = plus + minus
                try:
                    floors = 4.0 * (
                        math.fsum(magnitude / u for u in early) + (m + 1) * (magnitude / anchor)
                    )
                    return total, 2.0 * (nxt + 1), 3.0 * floors, m + 1
                except OverflowError:
                    raise ConvergenceError("the fixed-point bounds leave the double range") from None
            if not nxt:
                return None  # the terms ran out of bits before the sum was resolved
            thresh = abs(total) >> (gap - 1)
        if negate != ((num < 0) != (den < 0)):
            positive = not positive
        if positive:
            plus += nxt
        else:
            minus += nxt
        if m < stop:
            if keep is not None:
                keep.append(nxt if positive else -nxt)
            if m + 1 < start:
                early.append(nxt)
            elif m + 1 == start:
                anchor = nxt
        a = nxt
    raise ConvergenceError(f"{max_terms} terms were not enough for the fixed-point sum")


def _setup(table, scale, shift, cond_bits, tol, max_terms):
    """The precision rule: (step, shift, gap, bits) of the first pass.

    ``bits`` leaves 8 guard bits, one per bit of ``max_terms``, ``cond_bits``
    for the cancellation and the bits of ``tol``; the pass stops once a term
    is ``gap`` bits below the sum.
    """
    precision = max(0, 1 - math.frexp(tol)[1])  # smallest b >= 0 with 2**-b <= tol
    gap = 3 + precision
    bits = 8 + max_terms.bit_length() + max(cond_bits, 0) + precision
    step = scale * table.num_const
    shift += table.shift
    if shift < 0:
        step <<= -shift
        shift = 0
    return step, shift, gap, bits


def fixed_terms(
    table: LinearRatio,
    scale: int,
    shift: int,
    negate: bool,
    cond_bits: int,
    tol: float,
    max_terms: int,
) -> tuple[list[int], int, float, float]:
    """The kept terms of one :func:`sum_fixed` pass: (terms, bits, tail, floors).

    ``terms`` are the signed integers u_0 = 2**bits, u_1, ..., u_R, each
    within its floor error of 2**bits t_m / t_0.  ``tail`` bounds
    sum_{m > R} |t_m| / t_0 and ``floors`` the summed floor errors, both in
    units of 2**-bits.  The arguments and the precision are those of
    :func:`sum_fixed`, whose retry with doubled bits is kept for terms that
    run out of bits; ConvergenceError when that fails too.
    """
    step, shift, gap, bits = _setup(table, scale, shift, cond_bits, tol, max_terms)
    for _ in range(4):
        if bits > MAX_BITS:
            break
        terms = [1 << bits]
        out = _pass(table, step, shift, negate, bits, gap, max_terms, terms)
        if out is not None:
            return terms, bits, out[1], out[2]
        bits *= 2
    raise ConvergenceError(f"the terms cancel or grow beyond {MAX_BITS} bits of precision")


def sum_fixed(
    table: LinearRatio,
    scale: int,
    shift: int,
    negate: bool,
    lead: float,
    lead_err: float,
    cond_bits: int,
    tol: float,
    max_terms: int,
) -> EvaluationResult:
    """lead * sum_m u_m / 2**bits with a bound that covers truncation and rounding.

    ``lead`` is t_0 with relative error at most ``lead_err``; ``cond_bits``
    estimates log2(sum |t_m| / |sum t_m|) and sets the working precision.
    ``negate`` flips the sign of every ratio.  The pass is repeated with
    more bits while the fixed-point rounding, not the leading term, keeps the
    bound above ``max(tol * |value|, 1e-280 * min(|lead|, 1))``.
    """
    step, shift, gap, bits = _setup(table, scale, shift, cond_bits, tol, max_terms)
    for _ in range(4):
        if bits > MAX_BITS:
            break
        out = _pass(table, step, shift, negate, bits, gap, max_terms)
        if out is None:
            bits *= 2
            continue
        total, tail, floors, terms = out
        units = tail + floors
        if total.bit_length() - bits > 1000 or not math.isfinite(units):
            break
        value = lead * (total / (1 << bits))
        if not math.isfinite(value):
            break
        error = abs(lead) * math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT)
        error += abs(value) * (lead_err + 3.0 * UNIT)
        limit = max(tol * abs(value), TINY * min(abs(lead), 1.0))
        if error <= limit:
            return EvaluationResult(value, error + (terms + 2) * SUBNORMAL_ULP, terms)
        if abs(value) * (lead_err + 3.0 * UNIT) > 0.5 * limit:
            raise ConvergenceError(
                f"tol={tol} is below the accuracy of the leading term "
                f"(relative error {lead_err:.2e})"
            )
        # the floors dominate: add the bits that bring them under tol/16
        if total:
            shortfall = math.log2(units) - math.log2(tol / 16.0) - (total.bit_length() - 1)
        else:
            shortfall = bits
        bits += max(int(shortfall), 0) + 16
    raise ConvergenceError(f"the terms cancel or grow beyond {MAX_BITS} bits of precision")
