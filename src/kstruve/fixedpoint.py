"""The fixed-point pass shared by both series, whose term ratio is an exact rational.

Both series in the package (the k-Struve series is a Fox-Wright series
times a power) have term ratios that are rational functions of the
summation index, exact once the double-precision inputs are read as
rationals.  :class:`LinearRatio` is the one form of such a ratio:

    t_{m+1} / t_m = NUM_m / (DEN_m * 2**shift),

where NUM_m and DEN_m are integer polynomials in m: each a constant times
a product of linear factors P*m + Q, with the argument and the sign in
NUM_m's constant.  Where double rounding cannot meet a relative tolerance
(the terms cancel), :func:`fixed_terms` computes the terms on Python
integers: u_0 = 2**bits and u_{m+1} = floor(u_m * ratio), with NUM_m and
DEN_m multiplied out from their factors at each index, so the only rounding
is one floor per step.  The floor errors e_m obey e_{m+1} <= rho_m e_m + 1;
once the ratios rho_m are non-increasing (from index ``tail_start`` on),
every error's later growth is majorized by the terms themselves, which
gives the bound

    sum_m e_m <= 4 * sum_m |u_m| * (sum_{1 <= j < start} 1 / |u_j| + n / |u_start|)

in units of 2**-bits.  The pass stops on a bit-length test: the first
dropped term is below 2**-gap of the partial sum and the ratio there is at
most 1/4, so the tail is at most twice that term.

The integer-slope Fox-Wright series sums the kept terms u_m
(:func:`kstruve.wright.wright_eval`); the k-Struve series evaluates them at
smaller arguments as a polynomial in the ratio of the squared arguments
(:func:`kstruve.struve.k_struve_poly`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConvergenceError

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


class LinearRatio(
    namedtuple("LinearRatio", "num_forms den_forms num_const den_const tail_start shift")
):
    """The exact term ratio of a series, immutable.

    Built from factors (p, n, d) upstairs and downstairs, integers with
    d > 0 that stand for p*m + n/d, and one exact rational constant
    ``const`` = (numerator, positive denominator), which holds the argument
    and the sign:

        t_{m+1} / t_m = const * prod_up (p*m + n/d) / prod_down (p*m + n/d).

    Each d moves across, so the factors are stored as integer pairs
    (p*d, n) in ``num_forms`` and ``den_forms``.  The constants, reduced to
    lowest terms, are ``num_const`` and ``den_const`` times 2**``shift``,
    with den_const odd and shift >= 0: NUM_m = num_const * prod(p*d*m + n)
    upstairs, DEN_m likewise, and the ratio is NUM_m / (DEN_m * 2**shift).
    ``tail_start`` is an index from which the ratio magnitudes are
    non-increasing.
    """

    __slots__ = ()

    def __new__(cls, num_factors, den_factors, const: tuple[int, int], tail_start: int):
        num_const = const[0] * math.prod(d for _, _, d in den_factors)
        den_const = const[1] * math.prod(d for _, _, d in num_factors)
        common = math.gcd(num_const, den_const)
        num_const, den_const = num_const // common, den_const // common
        # the denominator's powers of two become a shift, which keeps the
        # integers of every step short
        shift = (den_const & -den_const).bit_length() - 1
        return super().__new__(
            cls,
            tuple((p * d, n) for p, n, d in num_factors),
            tuple((p * d, n) for p, n, d in den_factors),
            num_const, den_const >> shift, tail_start, shift,
        )


def _pass(table, bits, gap, max_terms):
    """One summation of ``table``'s terms at ``bits`` bits: (terms, tail, floors), or None.

    ``terms`` are the signed kept terms u_0 = 2**bits, u_1, ..., u_R.
    ``tail`` bounds the dropped terms and ``floors`` the summed floor errors,
    both in units of 2**-bits.  The tail is certified once the ratio is at
    most 1/4 past ``tail_start``.  Positive and negative terms go to separate
    sums, whose total is sum |u|.  None when the terms run out of bits
    before the sum is resolved.
    """
    a = 1 << bits
    terms = [a]
    plus, minus = a, 0
    positive = True
    num_forms, den_forms, num_const, den_const, start, shift = table
    # a term can pass the bit-length test only if it is at most |sum| >> (gap - 1);
    # this bound is refreshed whenever a term falls under it
    thresh = a >> (gap - 1)
    for m in range(max_terms):
        num = num_const
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
                        math.fsum(magnitude / abs(u) for u in terms[1:start])
                        + (m + 1) * (magnitude / abs(terms[start]))
                    )
                    return terms, 2.0 * (nxt + 1), 3.0 * floors
                except OverflowError:
                    raise ConvergenceError("the fixed-point bounds leave the double range") from None
            if not nxt:
                return None  # the terms ran out of bits before the sum was resolved
            thresh = abs(total) >> (gap - 1)
        if (num < 0) != (den < 0):
            positive = not positive
        if positive:
            plus += nxt
        else:
            minus += nxt
        terms.append(nxt if positive else -nxt)
        a = nxt
    raise ConvergenceError(f"{max_terms} terms were not enough for the fixed-point sum")


def fixed_terms(
    table: LinearRatio, cond_bits: int, tol: float, max_terms: int
) -> tuple[list[int], int, float, float]:
    """The kept terms of one fixed-point pass over ``table``: (terms, bits, tail, floors).

    ``terms`` are the signed integers u_0 = 2**bits, u_1, ..., u_R, each
    within its floor error of 2**bits t_m / t_0.  ``tail`` bounds
    sum_{m > R} |t_m| / t_0 and ``floors`` the summed floor errors, both in
    units of 2**-bits.  ``bits`` leaves 8 guard bits, one per bit of
    ``max_terms``, ``cond_bits`` (an estimate of log2(sum |t_m| / |sum t_m|))
    for the cancellation and the bits b of ``tol``; the pass stops once a
    term is b + 3 bits below the sum.  A pass whose terms run
    out of bits first is repeated with twice the bits, up to 4 passes and
    ``MAX_BITS``; ConvergenceError when that fails too.
    """
    precision = max(0, 1 - math.frexp(tol)[1])  # smallest b >= 0 with 2**-b <= tol
    gap = 3 + precision
    bits = 8 + max_terms.bit_length() + max(cond_bits, 0) + precision
    for _ in range(4):
        if bits > MAX_BITS:
            break
        out = _pass(table, bits, gap, max_terms)
        if out is not None:
            return out[0], bits, out[1], out[2]
        bits *= 2
    raise ConvergenceError(f"the terms cancel or grow beyond {MAX_BITS} bits of precision")
