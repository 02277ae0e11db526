"""Mutation probe for the terms of the package's returned bounds.

Each mutant removes one term of a bound by one exact-string edit.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the edit, runs the oracle tests (those that
compare a value with mpmath or an exact reference, against its bound) and
prints whether any of them failed: "killed", with the failing tests, or
"survived".  The unmutated copy runs first and must pass.

    python3 scripts/bound_mutants.py               # every mutant
    python3 scripts/bound_mutants.py threshold/    # mutants whose name starts with "threshold/"
    python3 scripts/bound_mutants.py --all ...     # the whole test suite instead of the oracle tests

The mutants of the k-Struve polynomial's inline thresholds (g_min and
t_min in ``struve.k_struve_poly``, and ``struve._threshold``) share the name
prefix ``threshold/``.  The exit status is 0 when every selected mutant is
killed, 1 when one survives, and 2 when no name matches, a mutant's text
is not found once, or the unmutated tree fails.

Stdlib only; it needs pytest, mpmath and hypothesis for the tests it runs.
A mutant takes as long as its test run: about 8 s on the oracle tests and
15 s on the whole suite on a 2-core machine.  A term that
survives is reported, never deleted: it is either dominated by another
term, which its comment should prove, or in a regime that no oracle test
reaches yet.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/kstruve, exact text, replacement)
MUTANTS = [
    # the double polynomial's inline threshold g_min (struve.k_struve_poly)
    ("threshold/double: tail T", "struve.py",
     "g_min = _threshold(tail + rounding * mags,", "g_min = _threshold(rounding * mags,"),
    ("threshold/double: eps M(W)", "struve.py",
     "g_min = _threshold(tail + rounding * mags,", "g_min = _threshold(tail,"),
    ("threshold/double: eps S in E where c <= 0", "struve.py",
     "lead_err_max + UNIT + rounding * _SLACK", "lead_err_max + UNIT"),
    # L_max, the slack and the room, shared by both thresholds (struve._threshold)
    ("threshold/L_max: power correction", "struve.py",
     "lead_err_max = lead_err0 + (t_max * t_max + 3.0 * UNIT * t_max)", "lead_err_max = lead_err0"),
    ("threshold/slack", "struve.py", "_SLACK = 1.0 + 2.0**-20", "_SLACK = 1.0"),
    ("threshold/room: 1 + 64u", "struve.py",
     "room = tol / (1.0 + 64.0 * UNIT) - lead_err", "room = tol - lead_err"),
    # the Taylor shift's inline threshold t_min (struve.k_struve_poly)
    ("threshold/taylor: floors", "struve.py",
     "units = floors + pass_tail * _S_PAD**tail_power", "units = pass_tail * _S_PAD**tail_power"),
    ("threshold/taylor: pass tail", "struve.py",
     "units = floors + pass_tail * _S_PAD**tail_power + rest_units", "units = floors + rest_units"),
    ("threshold/taylor: remainder", "struve.py",
     "+ rest_units * (sigma_max * _S_PAD) ** order", "+ 0.0"),
    ("threshold/taylor: rounding", "struve.py",
     "top = math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT) + taylor_rounding",
     "top = math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT)"),
    ("threshold/taylor: 3u", "struve.py",
     "t_min = _threshold(top, tol, lead_err_max + 3.0 * UNIT)",
     "t_min = _threshold(top, tol, lead_err_max + UNIT)"),
    # terms that an oracle test killed at 66df275, with the whole suite
    ("struve: _S_PAD -> 1", "struve.py", "_S_PAD = 1.0 + 8.0 * UNIT", "_S_PAD = 1.0"),
    ("lavoie: factor_ulps -> 0", "identities.py",
     "factor_ulps = 2.0 * (abs(e_third) + abs(e_quarter)) + 8.0", "factor_ulps = 0.0"),
    ("struve: double Horner rounding eps -> 0", "struve.py",
     "rounding = UNIT * (consts.step_ulps * degree + degree + 2.0)", "rounding = 0.0"),
    ("wright: _log_path_term error -> 0", "wright.py",
     "return log_mag, sign, UNIT * ((6.0 + count) * size + 4.0 * (count + 1) + 2.0)",
     "return log_mag, sign, 0.0"),
    ("tanh_sinh: 1.1e-16 |value| floor", "quadrature.py",
     "max(estimate, 1.1e-16 * abs(total))", "estimate"),
    ("jacobi_cc: beta_err -> 0", "quadrature.py",
     "beta_err = UNIT * (7.0 * magnitude + 92.0 + s * abs(math.log(s)))", "beta_err = 0.0"),
    ("jacobi_cc: round_err -> 0", "quadrature.py",
     "round_err = beta * UNIT * rounding + abs(value) * beta_err", "round_err = 0.0"),
    ("wright: _Plan.lead_err -> 0", "wright.py",
     "self.lead_err = UNIT * ((4.0 + count) * size + 4.0 * count + 2.0)", "self.lead_err = 0.0"),
    # terms that only pins, the golden file or path tests caught at 66df275
    ("identities: _WEIGHT_ULPS -> 0", "identities.py", "_WEIGHT_ULPS = 16.0", "_WEIGHT_ULPS = 0.0"),
    ("wright: double loop per-step rounding", "wright.py",
     "rounding = UNIT * (step_ulps * m + 2.0) * mags + lead_err * abs(total)",
     "rounding = lead_err * abs(total)"),
    ("struve: step_ulps -> 0", "struve.py",
     "self.step_ulps = 7.0 + abs(_gap(self.base, bn, bd)) / self.base / UNIT",
     "self.step_ulps = 0.0"),
    ("identities: _ARGUMENT_MARGIN -> 1 (a range margin)", "identities.py",
     "_ARGUMENT_MARGIN = 1.0 + 8.0 * UNIT", "_ARGUMENT_MARGIN = 1.0"),
    # terms that no test needed at 66df275
    ("jacobi_cc: 3k**2 moment drift", "quadrature.py",
     "(n + 2) * abs_s + 3.0 * drift", "(n + 2) * abs_s"),
    ("jacobi_cc: (N/2 + 4) row sums", "quadrature.py",
     "rounding = (half + 4) * row_bound * sum(map(abs, moments)) + ", "rounding = "),
    ("log_sum: accumulated rounding", "wright.py",
     "rounding += abs(current) * current_err + UNIT * 2.0 * (mags + abs(current))",
     "rounding += abs(current) * current_err"),
]

ORACLE_TESTS = [
    "tests/test_struve.py::TestCertificates",
    "tests/test_struve.py::test_a_targeted_hunt_finds_no_k_struve_bound_below_its_error",
    "tests/test_struve.py::test_a_targeted_hunt_finds_no_certified_node_beyond_tol",
    "tests/test_struve.py::TestPolynomial::test_fixed_point_regime_is_served",
    "tests/test_struve.py::TestPolynomial::test_one_node_polynomial_serves_a_random_scan",
    "tests/test_struve.py::TestPolynomial::test_agrees_with_k_struve_inside_and_declines_outside",
    "tests/test_acceptance.py::test_k_struve_bounds_hold_against_mpmath_oracle",
    "tests/test_acceptance.py::test_k_struve_poly_bounds_hold_against_mpmath_oracle",
    "tests/test_acceptance.py::test_k_struve_poly_fixed_point_regime_against_mpmath_oracle",
    "tests/test_acceptance.py::test_k_struve_poly_taylor_at_w_against_mpmath_oracle",
    "tests/test_acceptance.py::test_double_polynomial_certificate_against_mpmath_oracle",
    "tests/test_acceptance.py::test_struve_h_at_60_matches_mpmath",
    "tests/test_acceptance.py::test_wright_bounds_hold_against_mpmath_oracle",
    "tests/test_acceptance.py::test_wright_large_negative_z_against_mpmath_oracle",
    "tests/test_identities.py::TestFusedIntegrand",
    "tests/test_identities.py::TestLhsError",
    "tests/test_identities.py::TestRhs::test_every_form_verify_returns_holds_against_mpmath",
    "tests/test_identities.py::TestVerdictTable::test_tiny_values_hold_against_mpmath",
    "tests/test_quadrature.py::TestIntegrate::test_battery_error_estimates_are_honest",
    "tests/test_quadrature.py::TestJacobiClenshawCurtis::test_estimate_bounds_the_error",
    "tests/test_quadrature.py::TestJacobiClenshawCurtis::test_moments_match_the_hypergeometric_oracle",
    "tests/test_quadrature.py::test_lavoie_estimate_holds_against_mpmath_oracle",
    "tests/test_quadrature.py::test_lavoie_estimate_holds_against_mpmath_at_large_exponents",
    "tests/test_wright.py::test_a_targeted_hunt_finds_no_wright_bound_below_its_error",
    "tests/test_wright.py::test_a_targeted_hunt_finds_no_wright_bound_below_its_error_where_the_first_term_underflows",
    "tests/test_wright.py::test_pair_sums_hold_against_mpmath_and_the_printed_sum_is_wright_evals",
    "tests/test_wright.py::test_the_lead_error_of_a_non_integer_slope_bounds_the_first_term",
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: list[str]) -> list[str]:
    """The ids of the tests that fail in ``tree`` (empty when all pass)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = re.findall(r"^FAILED (\S+)", out.stdout, flags=re.MULTILINE)
    if out.returncode and not failed:
        raise RuntimeError(f"pytest exited {out.returncode} without a failing test:\n{out.stdout[-2000:]}")
    return failed


def main(argv: list[str]) -> int:
    tests = ["tests"] if "--all" in argv else ORACLE_TESTS
    pattern = next((a for a in argv if not a.startswith("--")), "")
    chosen = [m for m in MUTANTS if m[0].startswith(pattern)]
    if not chosen:
        print(f"no mutant's name starts with {pattern!r}", file=sys.stderr)
        return 2
    for name, module, old, _ in chosen:
        count = (ROOT / "src" / "kstruve" / module).read_text().count(old)
        if count != 1:
            print(f"mutant {name!r}: its text occurs {count} times in {module}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="bound_mutants_") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        failed = _run_tests(base, tests)
        if failed:
            print("the unmutated tree fails:", *failed, sep="\n  ", file=sys.stderr)
            return 2
        rows = []
        for name, module, old, new in chosen:
            tree = Path(tmp) / "mutant"
            if tree.exists():
                shutil.rmtree(tree)
            _copy_tree(tree)
            path = tree / "src" / "kstruve" / module
            path.write_text(path.read_text().replace(old, new))
            start = time.perf_counter()
            failed = _run_tests(tree, tests)
            seconds = time.perf_counter() - start
            rows.append((name, "killed" if failed else "survived", seconds, failed))
            print(f"{name}: {rows[-1][1]} ({seconds:.0f} s)", file=sys.stderr)
    print("| mutant | outcome | failing tests |")
    print("|---|---|---|")
    for name, outcome, _, failed in rows:
        shown = ", ".join(f"`{f.split('::', 1)[1]}`" for f in failed[:3])
        more = f" and {len(failed) - 3} more" if len(failed) > 3 else ""
        print(f"| {name} | {outcome} | {shown}{more} |")
    return 1 if any(outcome == "survived" for _, outcome, _, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
