"""Fixed pure-Python reference kernel used to normalise wall times.

The benchmark runs this kernel between short slices of workload and scales
each slice's wall time by ``K_nominal / K_measured``, so that a host running
uniformly faster or slower for a while does not move the reported figures.
The kernel imitates the instruction mix of the measured code: a ratio
recurrence with ``math`` calls, a weighted node sum over tuples and a small
heap, plus closures, frozen dataclass results, a dict cache and a try block.
It must never import anything from the package under test: its cost has to
stay fixed while the package changes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

_NODES = tuple((0.5 + 0.5 * math.cos(math.pi * (i + 0.5) / 15.0), 1.0 / (i + 1.0)) for i in range(15))
_SERIES_REPS = 500
_OBJECT_REPS = 400
# checksum of one kernel run; a different value means the kernel itself changed
CHECKSUM = 1545.1750319092998


def _series(x: float, nu: float) -> tuple[float, int]:
    """Struve-like ratio recurrence summed to double precision."""
    term = math.exp((nu + 1.0) * math.log(0.5 * x) - math.lgamma(nu + 1.5) - math.lgamma(1.5))
    scale = -0.25 * x * x
    total = 0.0
    r = 0
    while r < 200:
        total += term
        term *= scale / ((r + nu + 1.5) * (r + 1.5))
        r += 1
        if abs(term) <= 1e-17 * abs(total):
            break
    return total, r


def _node_sum(shift: float) -> float:
    acc = 0.0
    for x, w in _NODES:
        acc += w * (x ** (0.5 + shift)) * (1.0 - x) ** 1.5
    return acc


@dataclass(frozen=True)
class _Result:
    value: float
    bound: float
    terms: int


def _objects() -> float:
    acc = 0.0
    cache: dict[tuple[int, float], _Result] = {}
    for i in range(_OBJECT_REPS):
        x = 0.25 + (i % 64) * 0.125

        def f(t, s=x):
            return math.exp(-s * t) * (1.0 - t) ** 1.5

        values = [f(j / 15.0) for j in range(1, 15)]
        result = _Result(value=sum(values), bound=abs(values[-1]), terms=len(values))
        key = (i % 17, round(x, 3))
        cache[key] = result
        try:
            if result.terms > 100:
                raise ValueError(result.terms)
            acc += cache[key].value + result.bound
        except ValueError:
            acc = -acc
    return acc


def kernel() -> float:
    """One kernel pass; returns a checksum that never changes."""
    acc = 0.0
    heap: list[tuple[float, int]] = []
    for i in range(_SERIES_REPS):
        value, terms = _series(0.25 + (i % 64) * 0.125, 1.0 + (i % 5) * 0.5)
        acc += value + terms * 1e-3
        acc += _node_sum((i % 7) * 0.1)
        heapq.heappush(heap, (-abs(value), i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return acc + _objects()


def time_kernel() -> float:
    """Wall time of one kernel pass in seconds, checking its result."""
    start = time.perf_counter()
    value = kernel()
    elapsed = time.perf_counter() - start
    if abs(value - CHECKSUM) > 1e-6 * CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {value!r} != {CHECKSUM!r}")
    return elapsed
