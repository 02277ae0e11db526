"""Real gamma, log-gamma and the k-deformed gamma function.

The k-gamma function of Diaz and Pariguan generalizes Euler's gamma through

    Gamma_k(z) = k**(z/k - 1) * Gamma(z/k),            k > 0,

so Gamma_1 is the classical function and Gamma_k(z + k) = z * Gamma_k(z)
replaces the familiar recurrence.  Everything here reduces to the C library
``tgamma``/``lgamma`` via :mod:`math`; the value added is domain policing
(poles raise instead of returning nonsense), overflow policing and sign
tracking for negative arguments.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, OverflowRangeError, PoleError

# exp() overflows just above this; used to fail fast instead of raising
# from inside math.exp
_LOG_DBL_MAX = 709.782712893384
_MIN_NORMAL = sys.float_info.min
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _lgamma(x: float) -> float:
    """math.lgamma, whose overflow (from x of about 2.6e305 on) is an OverflowRangeError."""
    try:
        return math.lgamma(x)
    except OverflowError:
        raise OverflowRangeError(f"log Gamma({x!r}) exceeds the double range") from None


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"log_gamma expects a finite real, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return _lgamma(x)


def log_abs_gamma(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign of Gamma(x)) for real non-pole x.

    The sign of Gamma on (-n-1, -n) alternates: it is positive for x > 0 and
    flips across each negative integer, so floor(x) parity decides.
    """
    if not math.isfinite(x):
        raise DomainError(f"log_abs_gamma expects a finite real, got {x!r}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    if x > 0.0:
        return _lgamma(x), 1.0
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the non-positive integers."""
    if not math.isfinite(x):
        raise DomainError(f"gamma expects a finite real, got {x!r}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowRangeError(f"gamma({x}) exceeds the double range") from None


def log_k_gamma(z: float, k: float) -> float:
    """log Gamma_k(z) for z, k > 0.

    Where log Gamma(z/k) (z/k of about 2.6e305 and more) or (z/k - 1) log k
    overflows on its own but the result is a double, Stirling's series (DLMF 5.11.1) with
    t = z/k gives t (log z - 1) - log k - (log t)/2 + (log 2 pi)/2.  Its
    remainder is below 1/(12 t), under 4e-307, and the rounding adds a few
    ulps of t |log z|: a relative error of a few ulps times
    |log z| / |log z - 1|, since the value itself is ill-conditioned in z
    where log z is near 1.  A result beyond the double range raises
    OverflowRangeError.
    """
    if not (math.isfinite(z) and math.isfinite(k)) or k <= 0.0:
        raise DomainError(f"log_k_gamma requires finite z and k > 0, got z={z}, k={k}")
    if z <= 0.0:
        raise DomainError(f"log_k_gamma requires z > 0, got {z}")
    t = z / k
    if t == math.inf:
        raise OverflowRangeError(f"log_k_gamma({z}, {k}) exceeds the double range")
    if t == 0.0:
        # z / k underflowed: Gamma(t) = Gamma(1 + t) / t gives t log k - log z
        return -math.log(z)
    try:
        value = (t - 1.0) * math.log(k) + math.lgamma(t)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        # log Gamma(t) or (t - 1) log k alone leaves the double range: Stirling's series
        value = t * (math.log(z) - 1.0) - math.log(k) - 0.5 * math.log(t) + _HALF_LOG_2PI
    if math.isinf(value):
        raise OverflowRangeError(f"log_k_gamma({z}, {k}) exceeds the double range")
    return value


def k_gamma(z: float, k: float) -> float:
    """Gamma_k(z) = k**(z/k - 1) * Gamma(z/k).

    Poles of Gamma(z/k) (i.e. z/k a non-positive integer) raise PoleError;
    results beyond the double range, and a z/k that overflows, raise
    OverflowRangeError.  Whenever k**(z/k - 1), Gamma(z/k) and their
    product are normal doubles, the product is returned, which keeps the
    relative error at a couple of ulps up to the edge of the double range;
    otherwise log space decides between overflow and a finite value, with
    the absolute error of the logarithm as relative error.  A nonzero z/k
    below the normal range, where Gamma(z/k) ~ k/z overflows, gives
    k**(z/k) Gamma(1 + z/k) / z.
    """
    if not (math.isfinite(z) and math.isfinite(k)) or k <= 0.0:
        raise DomainError(f"k_gamma requires finite z and k > 0, got z={z}, k={k}")
    t = z / k
    if math.isinf(t):
        raise OverflowRangeError(f"k_gamma({z}, {k}): z/k exceeds the double range")
    if z != 0.0 and abs(t) < _MIN_NORMAL:
        # a subnormal or underflowed z/k has lost digits, and Gamma(t) ~ 1/t
        # overflows: Gamma(t) = Gamma(1 + t) / t gives k**t Gamma(1 + t) / z
        value = k**t * math.gamma(1.0 + t) / z
        if math.isinf(value):
            raise OverflowRangeError(f"k_gamma({z}, {k}) exceeds the double range")
        return value
    if _is_nonpositive_integer(t):
        raise PoleError(f"k_gamma pole at z = {z} (z/k = {t})")
    try:
        power = k ** (t - 1.0)
        factor = math.gamma(t)
    except OverflowError:
        power = factor = math.inf
    value = power * factor
    if all(_MIN_NORMAL <= abs(v) < math.inf for v in (power, factor, value)):
        return value
    # a factor or the product outside the normal range: assemble from logs,
    # sign from the Gamma factor
    log_abs, sign = log_abs_gamma(t)
    log_mag = (t - 1.0) * math.log(k) + log_abs
    if log_mag > _LOG_DBL_MAX:
        raise OverflowRangeError(f"k_gamma({z}, {k}) exceeds the double range")
    return sign * math.exp(log_mag)
