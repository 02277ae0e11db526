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
    """log Gamma_k(z) for z, k > 0."""
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
    return (t - 1.0) * math.log(k) + _lgamma(t)


def k_gamma(z: float, k: float) -> float:
    """Gamma_k(z) = k**(z/k - 1) * Gamma(z/k).

    Poles of Gamma(z/k) (i.e. z/k a non-positive integer) raise PoleError;
    results beyond the double range, and a z/k that overflows, raise
    OverflowRangeError.  For moderate arguments the two-factor product is
    evaluated directly, which keeps the relative error at a couple of ulps;
    only near the representable edge do we switch to log space to decide
    between overflow and a finite value.  A nonzero z/k below the normal
    range, where Gamma(z/k) ~ k/z overflows, gives k**(z/k) Gamma(1 + z/k) / z.
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
    log_mag = (t - 1.0) * math.log(k) + _lgamma(t)
    if log_mag > _LOG_DBL_MAX:
        raise OverflowRangeError(f"k_gamma({z}, {k}) exceeds the double range")
    if abs(t) < 170.0 and abs(log_mag) < 700.0:
        power = k ** (t - 1.0)
        if math.isfinite(power) and power != 0.0:
            return power * math.gamma(t)
    # edge of the range: assemble from logs, sign from the Gamma factor
    sign = 1.0 if t > 0.0 or math.floor(t) % 2 == 0 else -1.0
    return sign * math.exp(log_mag)
