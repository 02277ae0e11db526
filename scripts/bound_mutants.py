"""Mutation probe for the terms of the package's returned bounds.

Each mutant removes one term of a bound by one exact-string edit.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the edit, runs the oracle tests (those that
compare a value with mpmath or an exact reference, against its bound) and
prints whether any of them failed: "killed", with the failing tests, or
"survived".  The unmutated copy runs first and must pass.

    python3 scripts/bound_mutants.py            # every mutant
    python3 scripts/bound_mutants.py taylor     # mutants whose name contains "taylor"
    python3 scripts/bound_mutants.py --all ...  # the whole test suite instead of the oracle tests

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
    # the double polynomial's certificate on (0, w] (struve._double_rel)
    ("double: tail T (w/W)**2R", "struve.py",
     "rel = (tail * (w / xmax) ** span / d + kappa)", "rel = (0.0 + kappa)"),
    ("double: kappa", "struve.py",
     "rel = (tail * (w / xmax) ** span / d + kappa)", "rel = (tail * (w / xmax) ** span / d)"),
    ("double: 8u on rho0", "struve.py",
     "d = 1.0 - rho0 * (1.0 + 8.0 * UNIT)", "d = 1.0 - rho0"),
    ("double: 1 + 64u slack", "struve.py",
     "return (rel + lead_err_max + UNIT) * (1.0 + 64.0 * UNIT)", "return rel + lead_err_max + UNIT"),
    # L_max, shared by both certificates
    ("L_max: power correction", "struve.py",
     "return consts.lead_err + (t_max * t_max + 3.0 * UNIT * t_max)", "return consts.lead_err"),
    # the Taylor shift's certificate (struve._taylor_rel)
    ("taylor: Horner rounding in low", "struve.py",
     "low = at_max[0] - others - rounding", "low = at_max[0] - others"),
    ("taylor: floors", "struve.py",
     "units = floors + tail * _S_PAD**tail_power", "units = tail * _S_PAD**tail_power"),
    ("taylor: pass tail", "struve.py",
     "units = floors + tail * _S_PAD**tail_power + remainder", "units = floors + remainder"),
    ("taylor: remainder", "struve.py",
     "+ remainder * (sigma_max * _S_PAD) ** order", "+ 0.0"),
    ("taylor: rounding in top", "struve.py",
     "top = math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT) + rounding",
     "top = math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT)"),
    ("taylor: 1 + 64u slack", "struve.py",
     "return (top / low + lead_err_max + 3.0 * UNIT) * (1.0 + 64.0 * UNIT)",
     "return top / low + lead_err_max + 3.0 * UNIT"),
    # terms that no oracle test needed at 66df275
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
    chosen = [m for m in MUTANTS if pattern in m[0]]
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
