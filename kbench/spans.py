"""Span tracer for the traced benchmark run.

The tracer replaces public names in the package's module namespaces with
wrappers that record one span per call: layer, parent span, point index,
start and end.  Spans live in flat arrays until the run ends; self time is a
span's duration minus the durations of its direct children.  Each wrapper
also counts the work its call reports (series terms, integrand evaluations,
quadrature stalls).

A site that no longer exists (a name moved or removed by a refactor) is
recorded by name.  Every metric that depends on it is then reported as
missing, never as zero; nothing is wrapped in the untraced run.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("bench", "identities", "quadrature", "struve", "wright", "gamma", "report")

# (layer, module, attribute): the names wrapped in the package's namespaces
SITES = (
    ("identities", "identities", "verify"),
    ("quadrature", "identities", "integrate"),
    ("quadrature", "quadrature", "integrate"),
    ("struve", "identities", "k_struve"),
    ("wright", "identities", "wright_eval"),
    ("gamma", "struve", "log_k_gamma"),
    ("gamma", "wright", "log_abs_gamma"),
    ("gamma", "identities", "log_gamma"),
    ("gamma", "quadrature", "log_gamma"),
    ("report", "report", "record"),
    ("report", "report", "emit_json"),
)


class Tracer:
    """Wraps the sites of ``modules`` (a name -> module mapping) while active."""

    def __init__(self, modules: dict, convergence_error: type | None):
        self.modules = modules
        self.convergence_error = convergence_error
        self.missing: list[str] = []
        self.now = perf_counter  # the benchmark swaps in its normalising clock
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.point = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.point_index = -1
        self.counts: Counter = Counter()
        self.stalls: dict[int, set[str]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for layer, module_name, attr in SITES:
            module = self.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            on_result, on_error = self._hooks(layer, original)
            wrapper = self._wrap(LAYERS.index(layer), original, on_result, on_error)
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def missing_layers(self) -> set[str]:
        return {layer for layer, module_name, attr in SITES if f"{module_name}.{attr}" in self.missing}

    # -- spans --------------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.point.append(self.point_index)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.start[idx] = t0
        self.end[idx] = t1
        self._stack.pop()

    def span(self, layer: str, fn, *args):
        """Run ``fn(*args)`` inside a span of ``layer`` (used for the point loop)."""
        idx = self._open(LAYERS.index(layer))
        t0 = self.now()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, self.now())

    def _wrap(self, layer_id, original, on_result, on_error):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(layer_id)
            t0 = tracer.now()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, t0, tracer.now())
                on_error(exc, args, kwargs)
                raise
            tracer._close(idx, t0, tracer.now())
            on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _hooks(self, layer: str, original):
        counts = self.counts

        def count_call(result, args, kwargs):
            counts[f"{layer}.calls"] += 1

        def count_failed_call(exc, args, kwargs):
            counts[f"{layer}.calls"] += 1

        if layer in ("struve", "wright"):

            def count_terms(result, args, kwargs):
                counts[f"{layer}.calls"] += 1
                terms = getattr(result, "terms_used", None)
                if terms is None:
                    counts[f"{layer}.terms_unreadable"] += 1
                else:
                    counts[f"{layer}.terms"] += terms

            return count_terms, count_failed_call
        if layer == "quadrature":
            signature = inspect.signature(original)

            def method_of(args, kwargs) -> str:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return str(bound.arguments.get("method", "?"))

            def count_quad(result, args, kwargs):
                counts["quadrature.calls"] += 1
                counts["quadrature.evaluations"] += getattr(result, "evaluations", 0)

            def count_stall(exc, args, kwargs):
                counts["quadrature.calls"] += 1
                if self.convergence_error is not None and isinstance(exc, self.convergence_error):
                    partial = getattr(exc, "partial", None)
                    counts["quadrature.evaluations"] += getattr(partial, "evaluations", 0)
                    counts["quadrature.not_converged"] += 1
                    self.stalls.setdefault(self.point_index, set()).add(method_of(args, kwargs))

            return count_quad, count_stall
        return count_call, count_failed_call

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, plus 'total' for the top-level spans."""
        child = [0.0] * len(self.start)
        total = 0.0
        for idx in range(len(self.start)):
            duration = self.end[idx] - self.start[idx]
            parent = self.parent[idx]
            if parent >= 0:
                child[parent] += duration
            else:
                total += duration
        out = dict.fromkeys(LAYERS, 0.0)
        for idx in range(len(self.start)):
            out[LAYERS[self.layer[idx]]] += self.end[idx] - self.start[idx] - child[idx]
        out["total"] = total
        return out
