"""The fixed-point pass shared by both series, whose term ratio is an exact rational.

Both series in the package (the k-Struve series is a Fox-Wright series
times a power) have term ratios that are rational functions of the
summation index, with coefficients that are exact binary fractions once
the double-precision inputs are read as rationals:

    t_{m+1} / t_m = +-(scale * NUM_m / 2**shift) / DEN_m,

where NUM_m and DEN_m are integer polynomials in m (products of linear
factors p*m + q).  Where double rounding cannot meet a relative tolerance
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


def _pass(table, step, shift, negate, bits, gap, max_terms):
    """One summation at ``bits`` bits: (terms, tail, floors), or None.

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
    start = table.tail_start
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
                        math.fsum(magnitude / abs(u) for u in terms[1:start])
                        + (m + 1) * (magnitude / abs(terms[start]))
                    )
                    return terms, 2.0 * (nxt + 1), 3.0 * floors
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
        terms.append(nxt if positive else -nxt)
        a = nxt
    raise ConvergenceError(f"{max_terms} terms were not enough for the fixed-point sum")


def fixed_terms(
    table: LinearRatio,
    scale: int,
    shift: int,
    negate: bool,
    cond_bits: int,
    tol: float,
    max_terms: int,
) -> tuple[list[int], int, float, float]:
    """The kept terms of one fixed-point pass: (terms, bits, tail, floors).

    The ratio is ``table`` times scale / 2**shift, negated when ``negate``.
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
    step = scale * table.num_const
    shift += table.shift
    if shift < 0:
        step <<= -shift
        shift = 0
    for _ in range(4):
        if bits > MAX_BITS:
            break
        out = _pass(table, step, shift, negate, bits, gap, max_terms)
        if out is not None:
            return out[0], bits, out[1], out[2]
        bits *= 2
    raise ConvergenceError(f"the terms cancel or grow beyond {MAX_BITS} bits of precision")
