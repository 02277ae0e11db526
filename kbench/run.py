"""Closed-loop benchmark of the kstruve package.

    python3 kbench/run.py --k-nominal K --workload W --seed N --seconds S --trace 0|1

One caller, one process for the measurement (plus short-lived child
interpreters that time the import).  Each workload is a fixed list of points
made from ``--seed`` (see ``workloads.py``); a pass runs every point once and
passes repeat until ``--seconds`` have gone by.  Every pass must reproduce
the first pass bit for bit, and every output is checked.

Timings are speed-normalised: the reference kernel in ``refkernel.py`` runs
between short slices of workload, and each slice's wall time is scaled by
``K / K_measured``, where ``K_measured`` is the mean of the kernel runs on
either side of the slice and ``K`` is ``--k-nominal``.  A normalised second
is therefore "a second on a host whose kernel run takes K seconds".

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``spans.py``).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

sys.path.insert(0, str(BENCH_DIR))
import refkernel  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

TOL = 1e-10  # CLI defaults: quadrature tolerance and agreement threshold
THRESHOLD = 1e-6
SLICE_S = 0.1  # workload time between two kernel runs
MIN_PASSES = 3
SETUP_CHILDREN = 9
PROBE_S = 0.15

# what a fresh interpreter imports for each workload: the console entry
# point pays for the CLI, library users for the package
SETUP_MODULE = {"grid_small_y": "kstruve.cli", "grid_large_y": "kstruve", "lavoie": "kstruve"}

_CHILD = """
import sys, time, importlib, statistics
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[3])
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import refkernel
kernel = statistics.median(refkernel.time_kernel() for _ in range(3))
print(t1 - t0, kernel)
"""


def setup_seconds(module: str, k_nominal: float) -> tuple[float, list[float]]:
    """Median normalised import time over fresh interpreters (one warm-up first)."""
    values = []
    raw = []
    for i in range(SETUP_CHILDREN + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", _CHILD, str(SRC_DIR), str(BENCH_DIR), module],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout.split()
        if i == 0:
            continue  # the first child may compile bytecode
        import_s, kernel_s = float(out[0]), float(out[1])
        raw.append(import_s)
        values.append(import_s * k_nominal / kernel_s)
    return statistics.median(values), raw


# -- the workloads' calls ------------------------------------------------------


class TheoremRunner:
    """The calls ``kstruve grid`` makes: verify_grid, record, emit_json."""

    passed_verdict = "CONFIRMED_CORRECTED"

    def __init__(self, kstruve, points):
        self.kstruve = kstruve
        self.report = kstruve.report
        self.points = [
            (which, kstruve.TheoremParams(alpha=a, mu=m, nu=n, c=c, k=k, y=y))
            for which, a, m, n, c, k, y in points
        ]

    def call(self, i):
        which, p = self.points[i]
        ((_, rep),) = self.kstruve.verify_grid(which, [p], tol=TOL, threshold=THRESHOLD, strict=False)
        params = {"alpha": p.alpha, "mu": p.mu, "nu": p.nu, "c": p.c, "k": p.k, "y": p.y}
        return self.report.record(which, params, rep)

    def finish(self, outputs):
        buf = io.StringIO()
        self.report.emit_json(outputs, buf)
        return buf.getvalue()

    def signature(self, outputs, finished):
        return finished.splitlines()

    def check(self, outputs, finished) -> list[int]:
        """Indices of points whose output fails a check."""
        bad = set()
        for i, rec in enumerate(outputs):
            which, p = self.points[i]
            if rec["identity"] != which or rec["params"] != {
                "alpha": p.alpha, "mu": p.mu, "nu": p.nu, "c": p.c, "k": p.k, "y": p.y
            }:
                bad.add(i)
            elif rec["verdict"] in ("CONFIRMED_CORRECTED", "BOTH_AGREE"):
                lhs, err = rec["lhs"], rec["lhs_err"]
                ok = rec["rel_dev_corrected"] <= THRESHOLD and err <= THRESHOLD * abs(lhs)
                if rec["verdict"] == "BOTH_AGREE":
                    ok = ok and rec["rel_dev_paper"] <= THRESHOLD
                if not ok:
                    bad.add(i)
        lines = finished.splitlines()
        try:
            parsed = [json.loads(line) for line in lines]
        except ValueError:
            return list(range(len(outputs)))
        if len(parsed) != len(outputs) + 1:
            return list(range(len(outputs)))
        bad.update(i for i, rec in enumerate(outputs) if parsed[i] != rec)
        tally: dict[str, int] = {}
        for rec in outputs:
            tally[rec["verdict"]] = tally.get(rec["verdict"], 0) + 1
        passed = sum(tally.get(v, 0) for v in ("CONFIRMED_CORRECTED", "BOTH_AGREE"))
        summary = parsed[-1].get("summary", {})
        if summary != {
            "total": len(outputs),
            "verdicts": dict(sorted(tally.items())),
            "all_confirmed": len(outputs) > 0 and passed == len(outputs),
        }:
            return list(range(len(outputs)))
        return sorted(bad)

    def passed(self, outputs) -> int:
        return sum(rec["verdict"] == self.passed_verdict for rec in outputs)

    def errored(self, output) -> bool:
        return output.get("error") is not None


class LavoieRunner:
    """The scalar check ``lavoie_trottier_check(alpha, beta)``."""

    passed_verdict = "BOTH_AGREE"

    def __init__(self, kstruve, points):
        self.check_fn = kstruve.lavoie_trottier_check
        self.points = points

    def call(self, i):
        return self.check_fn(*self.points[i], tol=TOL)

    def finish(self, outputs):
        return None

    def signature(self, outputs, finished):
        return [
            (r.lhs_value, r.lhs_error_estimate, r.rhs_paper, r.rel_dev_paper, r.verdict.value)
            for r in outputs
        ]

    def check(self, outputs, finished) -> list[int]:
        bad = []
        for i, rep in enumerate(outputs):
            alpha, beta = self.points[i]
            log_ratio = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
            closed = (2.0 / 3.0) ** (2.0 * alpha) * math.exp(log_ratio)
            ok = abs(rep.rhs_paper - closed) <= 1e-13 * closed
            if rep.verdict.value == "BOTH_AGREE":
                lhs = rep.lhs_value
                ok = ok and abs(lhs - closed) <= TOL * abs(lhs) + 8 * sys.float_info.epsilon * closed
                ok = ok and rep.lhs_error_estimate <= TOL * abs(lhs)
            if not ok:
                bad.append(i)
        return bad

    def passed(self, outputs) -> int:
        return sum(r.verdict.value == self.passed_verdict for r in outputs)

    def errored(self, output) -> bool:
        return output.error is not None


def cost_class(errored: bool, stalled_methods: set) -> str:
    """The cost class of one point, from its outcome and its quadrature stalls."""
    if errored:
        return "error"
    if "adaptive_gk" in stalled_methods:
        return "gk_cap"
    if "tanh_sinh" in stalled_methods:
        return "ts_cap"
    return "converged"


# -- the normalising clock -------------------------------------------------------


class NormClock:
    """Workload clock that pauses every SLICE_S seconds to run the reference kernel.

    A SIGALRM handler runs the kernel, so even a single point that takes
    seconds is cut into short slices.  Kernel time is excluded from the
    clock; between two kernel samples K_i and K_i+1 one clock second counts
    as ``K / ((K_i + K_i+1) / 2)`` normalised seconds.
    """

    def __init__(self, k_nominal: float):
        self.k_nominal = k_nominal
        self.paused = 0.0
        self.sample_t: list[float] = []
        self.sample_k: list[float] = []
        self._busy = False

    def now(self) -> float:
        while True:
            paused = self.paused
            t = perf_counter()
            if paused == self.paused:
                return t - paused

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t = perf_counter()
        self.sample_t.append(t - self.paused)
        self.sample_k.append(refkernel.time_kernel())
        self.paused += perf_counter() - t
        self._busy = False

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def normalise(self, a: float, b: float) -> float:
        """Normalised length of the clock interval [a, b]."""
        ts, ks = self.sample_t, self.sample_k
        last = len(ts) - 2
        j = min(max(bisect.bisect_right(ts, a) - 1, 0), last)
        total = 0.0
        lo = a
        while lo < b:
            hi = b if j == last else min(b, ts[j + 1])
            total += (hi - lo) * self.k_nominal / (0.5 * (ks[j] + ks[j + 1]))
            lo = hi
            j = min(j + 1, last)
        return total


# -- timed passes ----------------------------------------------------------------


class Pass:
    """One run over every point: outputs and clock intervals."""

    def __init__(self, n):
        self.outputs = [None] * n
        self.intervals = [(0.0, 0.0)] * n
        self.span = (0.0, 0.0)
        self.finished = None
        self.latency: list[float] = []  # normalised, filled by normalise()
        self.raw_s = 0.0
        self.norm_s = 0.0

    def normalise(self, clock: NormClock) -> None:
        self.latency = [clock.normalise(a, b) for a, b in self.intervals]
        self.raw_s = self.span[1] - self.span[0]
        self.norm_s = clock.normalise(*self.span)


def run_pass(runner, n, clock, tracer=None) -> Pass:
    """Run points 0..n-1 once, then the runner's end-of-pass step."""
    result = Pass(n)
    start = clock.now()
    for i in range(n):
        t0 = clock.now()
        if tracer is None:
            result.outputs[i] = runner.call(i)
        else:
            tracer.point_index = i
            result.outputs[i] = tracer.span("bench", runner.call, i)
        result.intervals[i] = (t0, clock.now())
    if tracer is not None:
        tracer.point_index = -1
    result.finished = runner.finish(result.outputs)
    result.span = (start, clock.now())
    return result


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def point_medians(passes, n):
    return [statistics.median(p.latency[i] for p in passes) for i in range(n)]


def mismatches(runner, p, reference, n) -> set:
    """Indices of points whose output differs from the reference pass."""
    sig = runner.signature(p.outputs, p.finished)
    if len(sig) != len(reference):
        return set(range(n))
    bad = {i for i, (a, b) in enumerate(zip(sig, reference)) if a != b}
    return set(range(n)) if any(i >= n for i in bad) else bad


def verify_passes(runner, passes, n, reference) -> tuple[int, int]:
    """(attempted, failed) over passes; a failed point breaks a check or differs from the reference."""
    attempted = failed = 0
    for p in passes:
        bad = set(runner.check(p.outputs, p.finished)) | mismatches(runner, p, reference, n)
        attempted += n
        failed += len(bad)
    return attempted, failed


# -- probes (traced run) ---------------------------------------------------------


def probes(kstruve, k_nominal) -> dict:
    """Time fixed public calls: normalised microseconds per call and the call's work."""
    out = {}

    def timed(name, fn, work_attr, work_name):
        with NormClock(k_nominal) as clock:
            intervals = []
            result = None
            start = clock.now()
            while len(intervals) < 3 or clock.now() - start < PROBE_S:
                t0 = clock.now()
                result = fn()
                intervals.append((t0, clock.now()))
        out[f"{name}.us"] = (statistics.median(clock.normalise(a, b) for a, b in intervals) * 1e6, "us")
        out[f"{name}.{work_name}"] = (getattr(result, work_attr), "count")

    if hasattr(kstruve, "k_struve") and hasattr(kstruve, "StruveParams"):
        params = kstruve.StruveParams(nu=2.0, c=1.0, k=1.0)
        for label, x in (("x0_5", 0.5), ("x5", 5.0), ("x30", 30.0)):
            timed(f"probe.struve.{label}", lambda x=x: kstruve.k_struve(params, x, tol=TOL * 0.1), "terms_used", "terms")
    if hasattr(kstruve, "wright_eval") and hasattr(kstruve, "WrightSpec"):
        # the corrected theorem1 2Psi3 at alpha = 1, mu = 0.5, nu = 2, k = 1
        spec = kstruve.WrightSpec(upper=((4.0, 2.0), (1.0, 1.0)), lower=((3.5, 1.0), (1.5, 1.0), (5.5, 2.0)))
        for z in (-1.0, -100.0, -400.0):
            timed(f"probe.wright.z{int(z)}", lambda z=z: kstruve.wright_eval(spec, z, tol=TOL * 0.1), "terms_used", "terms")
    if hasattr(kstruve, "integrate"):
        # the Lavoie-Trottier integrand, smooth (GK) and endpoint-singular (tanh-sinh)
        for label, rule, a, b in (("gk", "adaptive_gk", 2.5, 1.5), ("tanh_sinh", "tanh_sinh", 0.5, 0.5)):

            def f(x, omx, a=a, b=b):
                return x ** (a - 1.0) * omx ** (2.0 * b - 1.0) * (1.0 - x / 3.0) ** (2.0 * a - 1.0) * (1.0 - x / 4.0) ** (b - 1.0)

            timed(f"probe.quadrature.{label}", lambda f=f, rule=rule: kstruve.integrate(f, tol=1e-12, method=rule), "evaluations", "evaluations")
    return out


PROBE_METRICS = {
    **{f"probe.struve.{x}.{m}": u for x in ("x0_5", "x5", "x30") for m, u in (("us", "us"), ("terms", "count"))},
    **{f"probe.wright.{z}.{m}": u for z in ("z-1", "z-100", "z-400") for m, u in (("us", "us"), ("terms", "count"))},
    **{f"probe.quadrature.{q}.{m}": u for q in ("gk", "tanh_sinh") for m, u in (("us", "us"), ("evaluations", "count"))},
}


# -- main ------------------------------------------------------------------------


def timed_passes(runner, n, k_nominal, seconds, tracer=None):
    """Untraced passes until the deadline; with a tracer, each is followed by a traced one."""
    passes = []
    traced = []
    deadline = perf_counter() + seconds
    with NormClock(k_nominal) as clock:
        if tracer is not None:
            tracer.now = clock.now
        while True:
            pair_start = perf_counter()
            passes.append(run_pass(runner, n, clock))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    p = run_pass(runner, n, clock, tracer)
                finally:
                    tracer.uninstall()
                traced.append((p, tracer.self_times(), dict(tracer.counts), dict(tracer.stalls)))
                # stop before a pair of passes that would overrun the deadline
                if 2 * perf_counter() - pair_start > deadline:
                    break
            elif perf_counter() >= deadline and len(passes) >= MIN_PASSES:
                break
    for p in passes + [t[0] for t in traced]:
        p.normalise(clock)
    return passes, traced, statistics.median(clock.sample_k)


def layer_metrics(runner, n, passes, traced, tracer, kernel_s) -> dict:
    first, _, counts, stalls = traced[0]
    missing = tracer.missing_layers()
    m = {}

    def put(name, value, unit, needs=()):
        gone = [layer for layer in needs if layer in missing]
        m[name] = (None, unit, gone) if gone else (value, unit)

    put("quadrature.integrate_calls_per_point", counts.get("quadrature.calls", 0) / n, "count", ("quadrature",))
    put("quadrature.evaluations_per_point", counts.get("quadrature.evaluations", 0) / n, "count", ("quadrature",))
    put("quadrature.not_converged", counts.get("quadrature.not_converged", 0), "count", ("quadrature",))
    for layer in ("struve", "wright"):
        calls = counts.get(f"{layer}.calls", 0)
        put(f"{layer}.calls_per_point", calls / n, "count", (layer,))
        if counts.get(f"{layer}.terms_unreadable"):
            m[f"{layer}.terms_per_call"] = (None, "count", [f"{layer}.terms_used"])
        else:
            put(f"{layer}.terms_per_call", counts.get(f"{layer}.terms", 0) / calls if calls else 0.0, "count", (layer,))
    put("gamma.calls_per_point", counts.get("gamma.calls", 0) / n, "count", ("gamma",))

    # self times partition the traced time, so one missing layer spoils them all
    layers = LAYERS[1:]
    for layer in layers:
        share = statistics.median(t[layer] / t["total"] for _, t, _, _ in traced)
        put(f"{layer}.self_share", share, "fraction", layers)
    for layer in ("struve", "wright"):
        per_call = [
            t[layer] * p.norm_s / p.raw_s / c[f"{layer}.calls"] * 1e6
            for p, t, c, _ in traced
            if c.get(f"{layer}.calls")
        ]
        put(f"{layer}.self_us_per_call", statistics.median(per_call) if per_call else 0.0, "us", layers)

    untraced = statistics.median(p.norm_s for p in passes)
    put("trace.overhead", statistics.median(p.norm_s for p, *_ in traced) / untraced, "ratio")
    put("wall.points_per_s", statistics.median(n / p.raw_s for p in passes), "1/s")
    put("ref.kernel_s", kernel_s, "s")

    classes = dict.fromkeys(("converged", "ts_cap", "gk_cap", "error"), 0)
    for i in range(n):
        classes[cost_class(runner.errored(first.outputs[i]), stalls.get(i, set()))] += 1
    put("pass.evaluations", counts.get("quadrature.evaluations", 0), "count", ("quadrature",))
    put("pass.series_terms", counts.get("struve.terms", 0) + counts.get("wright.terms", 0), "count", ("struve", "wright"))
    for name, value in classes.items():
        put(f"pass.class.{name}", value, "count", ("quadrature",))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k-nominal", type=float, required=True, help="nominal reference-kernel time in seconds")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--points", type=int, default=0, help="use only the first N points of a pass (smoke tests)")
    args = ap.parse_args(argv)

    if not (SRC_DIR / "kstruve" / "__init__.py").is_file():
        print(f"kbench: package source not found under {SRC_DIR}", file=sys.stderr)
        return 2

    points = workloads.GENERATORS[args.workload](args.seed)
    if args.points:
        points = points[: args.points]
    n = len(points)

    setup = None if args.trace else setup_seconds(SETUP_MODULE[args.workload], args.k_nominal)

    sys.path.insert(0, str(SRC_DIR))
    import kstruve
    import kstruve.report

    runner = (LavoieRunner if args.workload == "lavoie" else TheoremRunner)(kstruve, points)
    tracer = None
    if args.trace:
        modules = {name: sys.modules.get(f"kstruve.{name}") for name in ("identities", "quadrature", "struve", "wright", "report")}
        tracer = Tracer(modules, getattr(kstruve, "ConvergenceError", None))
    passes, traced, kernel_s = timed_passes(runner, n, args.k_nominal, args.seconds, tracer)

    reference = runner.signature(passes[0].outputs, passes[0].finished)
    attempted, failed = verify_passes(runner, passes + [t[0] for t in traced], n, reference)

    raw_rates = [n / p.raw_s for p in passes]
    norm_rates = [n / p.norm_s for p in passes]
    print(f"workload={args.workload} seed={args.seed} points_per_pass={n} passes={len(passes)} traced_passes={len(traced)}")
    print(f"raw points/s per pass: {' '.join(f'{r:.3f}' for r in raw_rates)}")
    print(f"normalised points/s per pass: {' '.join(f'{r:.3f}' for r in norm_rates)}")

    if args.trace:
        metrics = layer_metrics(runner, n, passes, traced, tracer, kernel_s)
        metrics.update(probes(kstruve, args.k_nominal))
        for name, unit in PROBE_METRICS.items():
            metrics.setdefault(name, (None, unit, ["probe"]))
        if tracer.missing:
            print(f"missing trace sites: {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        med = point_medians(passes, n)
        metrics = {
            "points_per_s": (statistics.median(norm_rates), "1/s"),
            "latency_p50_ms": (percentile(med, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(med, 90) * 1e3, "ms"),
            "passed_share": (runner.passed(passes[0].outputs) / n, "fraction"),
            "setup_s": (setup[0], "s"),
        }
        print(f"latency percentiles over {n} points, each the median of {len(passes)} passes ({n * len(passes)} samples)")
        print(f"setup: {SETUP_CHILDREN} fresh interpreters importing {SETUP_MODULE[args.workload]}, raw s: {' '.join(f'{s:.4f}' for s in setup[1])}")

    out = {}
    for name, entry in metrics.items():
        if entry[0] is None:
            out[name] = {"value": None, "unit": entry[1], "missing": sorted(entry[2])}
        else:
            out[name] = {"value": entry[0], "unit": entry[1]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
