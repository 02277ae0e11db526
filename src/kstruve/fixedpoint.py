"""Fixed-point summation of series whose term ratio is an exact rational.

Both series in the package have term ratios that are rational functions of
the summation index, with coefficients that are exact binary fractions once
the double-precision inputs are read as rationals:

    t_{m+1} / t_m = +-(scale * NUM_m / 2**shift) / DEN_m,

where NUM_m and DEN_m are integer polynomials in m (products of linear
factors p*m + q).  When double rounding cannot meet a relative tolerance
(the terms cancel), :func:`sum_fixed` re-sums t_0 * sum_m u_m on Python
integers: u_0 = 2**bits and u_{m+1} = floor(u_m * ratio), so the only
rounding is one floor per step.  The floor errors e_m obey
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
from itertools import accumulate

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


def _differences(const: int, forms) -> list[int]:
    """P(0), Delta P(0), ..., Delta**d P(0) for P(m) = const * prod (p*m + q)."""
    values = []
    for m in range(len(forms) + 1):
        value = const
        for p, q in forms:
            value *= p * m + q
        values.append(value)
    state = []
    while values:
        state.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return state


class LinearRatio:
    """Exact integer numerators and denominators of a term ratio, built lazily.

    ``num_forms`` and ``den_forms`` are integer pairs (p, q) standing for the
    linear factors p*m + q, so that NUM_m = num_const * prod(p*m + q) and
    likewise DEN_m, up to the power of two ``2**shift`` taken out of their
    ratio.  ``tail_start`` is an index from which the ratio magnitudes are
    non-increasing.  The lists ``nums`` (None when NUM_m is the constant
    ``num_const``), ``dens`` and ``flips`` (NUM_m DEN_m < 0) grow by forward
    differences: one addition per degree and index.
    """

    def __init__(self, num_forms, den_forms, num_const: int, den_const: int, tail_start: int):
        # powers of two in the constants become a shift, which keeps the
        # integers of every step short
        num_twos = (num_const & -num_const).bit_length() - 1
        den_twos = (den_const & -den_const).bit_length() - 1
        num_const >>= num_twos
        den_const >>= den_twos
        self.shift = den_twos - num_twos
        self.num_const = num_const
        self.tail_start = tail_start
        self._num = _differences(num_const, num_forms) if num_forms else None
        self._den = _differences(den_const, den_forms)
        self.nums: list[int] | None = [] if num_forms else None
        self.dens: list[int] = []
        self.flips: list[bool] = []

    def grow(self, n: int) -> None:
        """Extend the per-index lists to at least n entries."""
        count = n - len(self.dens)
        if count <= 0:
            return
        dens = _advance(self._den, count)
        if self._num is None:
            flips = [v < 0 for v in dens]
        else:
            nums = _advance(self._num, count)
            flips = [(a < 0) != (b < 0) for a, b in zip(nums, dens)]
            self.nums.extend(map(abs, nums))
        self.dens.extend(map(abs, dens))
        self.flips.extend(flips)


def _advance(state: list[int], count: int) -> list[int]:
    """The next ``count`` values of a polynomial; ``state`` moves past them."""
    degree = len(state) - 1
    seq = [state[degree]] * (count + 1)
    for k in range(degree - 1, -1, -1):
        seq = list(accumulate(seq[:count], initial=state[k]))
        state[k] = seq[count]
    return seq[:count]


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
    nums, dens, flips = table.nums, table.dens, table.flips
    size = len(dens)
    # a term can pass the bit-length test only if it is at most |sum| >> (gap - 1);
    # this bound is refreshed whenever a term falls under it
    thresh = a >> (gap - 1)
    for m in range(max_terms):
        if m == size:
            table.grow(m + 32)
            size = len(dens)
        nxt = (a * (step if nums is None else step * nums[m]) >> shift) // dens[m]
        if nxt <= thresh:
            total = plus - minus
            if m >= start and nxt.bit_length() + gap <= total.bit_length() and (nxt + 1) << 2 <= a:
                magnitude = plus + minus
                floors = 4.0 * (math.fsum(magnitude / u for u in early) + (m + 1) * (magnitude / anchor))
                return total, 2.0 * (nxt + 1), 3.0 * floors, m + 1
            if not nxt:
                return None  # the terms ran out of bits before the sum was resolved
            thresh = abs(total) >> (gap - 1)
        if negate != flips[m]:
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
    step = scale * table.num_const if table.nums is None else scale
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
