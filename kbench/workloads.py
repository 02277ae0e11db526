"""Seeded point generators for the three benchmark workloads.

Every generator returns plain tuples, so the package under test receives only
the generated values.  The seed moves values inside fixed strata and shuffles
the order; it never changes how many points fall in each stratum, so every
seed asks for the same mix of cheap and expensive points.  Strata sit away
from the places where the package switches behaviour (the Gauss-Kronrod /
tanh-sinh choice at an endpoint exponent of 1, and the quadrature caps), so
that a jittered point keeps its cost class.

A theorem point is ``(identity, alpha, mu, nu, c, k, y)``; a Lavoie point is
``(alpha, beta)``.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("grid_small_y", "grid_large_y", "lavoie")


# grid_small_y: strata chosen so that no point straddles a method switch
# (theorem1 switches at alpha = 1 and alpha + mu = 2, theorem2 at alpha = 2
# and alpha + mu = 1)
_SMALL_ALPHAS = ((0.55, 0.75), (1.15, 1.45), (2.2, 2.6))
_SMALL_MUS = ((0.1, 0.2), (0.9, 1.1))
_SMALL_NUS = ((1.8, 2.2), (2.8, 3.2))
_SMALL_CS = (-1.0, 1.0)
_SMALL_KS = (0.5, 1.0, 2.0)
_SMALL_YS = tuple((0.5 + 0.5625 * i, 0.5 + 0.5625 * (i + 1)) for i in range(8))  # [0.5, 5]
# the relaxed corner nu/k + 1 < 0 (theorem1 only), nu as a multiple of k; at
# alpha <= 0.55 such a point ends in a DomainError inside the quadrature, at
# alpha >= 1 it converges, so the first alpha stratum fixes the error share
_CORNER_ALPHAS = ((0.45, 0.53), (1.15, 1.45), (2.2, 2.6))
_CORNER_NU_OVER_K = (-1.35, -1.15)
_CORNER_YS = ((0.5, 2.75), (2.75, 5.0))


def grid_small_y(seed: int) -> list[tuple]:
    """Relaxed everyday sweep: 1,152 regular points plus 72 corner points."""
    rng = random.Random(f"grid_small_y:{seed}")
    points = []
    for which, a, m, n, c, k, y in itertools.product(
        ("theorem1", "theorem2"), _SMALL_ALPHAS, _SMALL_MUS, _SMALL_NUS, _SMALL_CS, _SMALL_KS, _SMALL_YS
    ):
        points.append(
            (which, rng.uniform(*a), rng.uniform(*m), rng.uniform(*n), c, k, rng.uniform(*y))
        )
    for a, m, c, k, y in itertools.product(_CORNER_ALPHAS, _SMALL_MUS, _SMALL_CS, _SMALL_KS, _CORNER_YS):
        nu = k * rng.uniform(*_CORNER_NU_OVER_K)
        points.append(("theorem1", rng.uniform(*a), rng.uniform(*m), nu, c, k, rng.uniform(*y)))
    rng.shuffle(points)
    return points


# grid_large_y: anchors of the three cost classes at c = +1, y in [20, 40].
# The seed moves each value by at most 1% of itself; each anchor was checked
# to keep its class, its integrate-call count and its cost under that jitter.
# Converging points: five cheap ones, seven that cost about the same (3-4 ms,
# each used three times, so that the median lands inside a tight cluster) and
# two dearer ones.
_LARGE_CONVERGED = (
    ("theorem2", 0.5, 1.0, 3.0, 20.0),
    ("theorem2", 0.5, 0.25, 2.0, 20.0),
    ("theorem2", 1.0, 1.0, 3.0, 20.0),
    ("theorem2", 1.0, 0.25, 2.0, 20.0),
    ("theorem2", 1.0, 0.25, 3.0, 30.0),
    *(
        ("theorem1", 0.5, 1.0, 3.0, 20.0),
        ("theorem1", 1.0, 0.25, 3.0, 20.0),
        ("theorem1", 0.5, 1.0, 2.0, 20.0),
        ("theorem1", 0.5, 0.25, 2.0, 20.0),
        ("theorem2", 0.5, 0.25, 2.0, 30.0),
        ("theorem2", 0.5, 0.25, 3.0, 40.0),
        ("theorem2", 0.5, 0.25, 2.0, 40.0),
    )
    * 3,
    ("theorem2", 2.0, 0.25, 3.0, 30.0),
    ("theorem2", 1.0, 1.0, 2.0, 40.0),
)
# tanh-sinh stalls at its level cap after about 28,100 evaluations
_LARGE_TS_CAP = (
    ("theorem1", 0.5, 0.25, 2.0, 40.0),
    ("theorem1", 0.5, 0.25, 3.0, 40.0),
) * 2
# Gauss-Kronrod stalls at 4,096 intervals, 122,865 evaluations
_LARGE_GK_CAP = (("theorem1", 2.0, 0.25, 2.0, 40.0),)


def grid_large_y(seed: int) -> list[tuple]:
    """Cancellation regime: 28 converging, 4 tanh-sinh-cap and 1 GK-cap point.

    The shares (85%, 12%, 3%) put the median among the converging points
    and the 90th percentile among the tanh-sinh stalls.  The classes differ
    in cost by a factor of 100, so neither percentile interpolates across a
    class boundary.
    """
    rng = random.Random(f"grid_large_y:{seed}")
    points = []
    for which, a, m, n, y in _LARGE_CONVERGED + _LARGE_TS_CAP + _LARGE_GK_CAP:
        a, m, n, y = (v * rng.uniform(0.99, 1.01) for v in (a, m, n, y))
        points.append((which, a, m, n, 1.0, 1.0, y))
    rng.shuffle(points)
    return points


# lavoie: tanh-sinh is chosen when alpha < 2 or beta < 1, Gauss-Kronrod otherwise
_LAVOIE_ALPHAS = ((0.3, 0.4), (0.65, 0.8), (1.25, 1.5), (2.4, 2.7), (3.3, 3.7))
_LAVOIE_BETAS = ((0.3, 0.4), (0.65, 0.8), (1.3, 1.6), (2.3, 2.7))
_LAVOIE_PER_CELL = 80


def lavoie(seed: int) -> list[tuple]:
    """Scalar Lavoie-Trottier lattice: 20 cells of 80 jittered points each."""
    rng = random.Random(f"lavoie:{seed}")
    points = [
        (rng.uniform(*a), rng.uniform(*b))
        for a, b in itertools.product(_LAVOIE_ALPHAS, _LAVOIE_BETAS)
        for _ in range(_LAVOIE_PER_CELL)
    ]
    rng.shuffle(points)
    return points


GENERATORS = {"grid_small_y": grid_small_y, "grid_large_y": grid_large_y, "lavoie": lavoie}
