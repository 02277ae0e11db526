"""Command-line interface.

Three subcommands:

* ``eval``: evaluate one special function at a point and print the value
  (plus the certified tail bound and term count for series results).
* ``verify``: check one identity, either at a single parameter point or on
  its default grid, and emit a report; a flag that would be ignored is a
  usage error.
* ``grid``: sweep the grids of an INI config file, one section per identity
  expanded by :func:`~kstruve.identities.default_grid`, or with no config
  every identity's default grid.

Exit codes: 0 success / all points confirmed, 1 usage error, 2 domain or
pole or overflow error, 3 convergence failure or non-finite sample, 4 at
least one verification verdict other than BOTH_AGREE / CONFIRMED_CORRECTED,
141 (128 + SIGPIPE) when the reader of stdout closes it early.
Reports are deterministic; see :mod:`kstruve.report`.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .errors import (
    ConvergenceError,
    DomainError,
    NonFiniteSampleError,
    OverflowRangeError,
    UsageError,
)
from .gamma import gamma, k_gamma
from .identities import (
    COROLLARY_PINS, DEFAULT_AXES, IDENTITIES, TheoremParams, default_grid, grid_axes,
    lavoie_trottier_check, verify_grid,
)
from .report import PASSING, emit_csv, emit_json, emit_table, format_number, record
from .struve import StruveParams, k_struve, struve_h, struve_l
from .wright import WrightSpec, wright_eval

CONFIG_ENV = "KSTRUVE_CONFIG"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DOMAIN = 2
_EXIT_CONVERGENCE = 3
_EXIT_REFUTED = 4
_EXIT_BROKEN_PIPE = 141

_MAX_GRID_POINTS = 10000


def _tolerance(text: str) -> float:
    """The type of every ``--tol`` and ``--threshold``: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kstruve", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a special function at a point")
    evsub = ev.add_subparsers(dest="function", required=True)

    p = evsub.add_parser("gamma", help="Euler gamma")
    p.add_argument("x", type=float)
    p = evsub.add_parser("kgamma", help="k-gamma Gamma_k(z)")
    p.add_argument("z", type=float)
    p.add_argument("k", type=float)
    for name, help_text in (
        ("struve_h", "Struve H_nu(x)"),
        ("struve_l", "modified Struve L_nu(x)"),
    ):
        p = evsub.add_parser(name, help=help_text)
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--x", type=float, required=True)
        p.add_argument("--tol", type=_tolerance, default=1e-12, help="relative series tolerance")
    p = evsub.add_parser("kstruve", help="generalized k-Struve S[k,nu,c](x)")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="relative series tolerance")
    p = evsub.add_parser("wright", help="Fox-Wright p Psi q at real z")
    p.add_argument(
        "--upper",
        nargs=2,
        type=float,
        action="append",
        metavar=("A", "ALPHA"),
        default=None,
        help="upper pair (a, alpha); repeatable",
    )
    p.add_argument(
        "--lower",
        nargs=2,
        type=float,
        action="append",
        metavar=("B", "BETA"),
        default=None,
        help="lower pair (b, beta); repeatable",
    )
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="relative series tolerance")

    vf = sub.add_parser("verify", help="verify an identity numerically")
    vf.add_argument("identity", choices=("lavoie",) + IDENTITIES)
    vf.add_argument("--alpha", type=float)
    vf.add_argument("--beta", type=float, help="lavoie only")
    vf.add_argument("--mu", type=float)
    vf.add_argument("--nu", type=float)
    vf.add_argument("--c", type=float)
    vf.add_argument("--k", type=float)
    vf.add_argument("--y", type=float, help="default 1")
    vf.add_argument("--grid", choices=("default",), help="sweep the built-in grid")
    _add_report_flags(vf)

    gr = sub.add_parser("grid", help="sweep identity grids from a config file")
    gr.add_argument("--config", help=f"INI path (default: ${CONFIG_ENV} or built-ins)")
    _add_report_flags(gr)
    return parser


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_tolerance, default=1e-10, help="relative quadrature tolerance")
    # None marks a flag not given, so that verify lavoie can reject both
    p.add_argument("--threshold", type=_tolerance, help="agreement threshold (default 1e-6)")
    p.add_argument(
        "--relaxed", action="store_true", default=None, help="accept nu > -3k/2 instead of nu > 3k/2"
    )
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", help="write the report to this file instead of stdout")


def _report(records: list[dict], fmt: str, out: str | None, stdout) -> int:
    """Emit the records; exit 0 when every verdict passes, else 4."""
    emitter = {"json": emit_json, "csv": emit_csv, "table": emit_table}[fmt]
    if out:
        try:
            handle = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: {exc.strerror}") from None
        with handle:
            emitter(records, handle)
    else:
        emitter(records, stdout)
    ok = all(rec["verdict"] in {v.value for v in PASSING} for rec in records)
    return _EXIT_OK if ok else _EXIT_REFUTED


def _cmd_eval(args, stdout) -> int:
    if args.function == "gamma":
        stdout.write(format_number(gamma(args.x)) + "\n")
        return _EXIT_OK
    if args.function == "kgamma":
        stdout.write(format_number(k_gamma(args.z, args.k)) + "\n")
        return _EXIT_OK
    if args.function == "struve_h":
        result = struve_h(args.nu, args.x, tol=args.tol)
    elif args.function == "struve_l":
        result = struve_l(args.nu, args.x, tol=args.tol)
    elif args.function == "kstruve":
        params = StruveParams(nu=args.nu, c=args.c, k=args.k)
        result = k_struve(params, args.x, tol=args.tol)
    else:
        spec = WrightSpec(
            upper=tuple(tuple(pair) for pair in (args.upper or ())),
            lower=tuple(tuple(pair) for pair in (args.lower or ())),
        )
        result = wright_eval(spec, args.z, tol=args.tol)
    stdout.write(format_number(result.value) + "\n")
    stdout.write(f"error_bound={result.error_bound!r} terms_used={result.terms_used}\n")
    return _EXIT_OK


def _single_point(args) -> TheoremParams:
    """The flags' point; a corollary's c and k default to its pins, else as in TheoremParams."""
    missing = [n for n in ("alpha", "mu", "nu") if getattr(args, n) is None]
    if missing:
        raise UsageError(
            f"verify {args.identity} needs --{' --'.join(missing)} (or --grid default)"
        )
    pins = COROLLARY_PINS.get(args.identity, {})
    point = {n: pins[n] for n in ("c", "k") if n in pins}
    point.update((n, getattr(args, n)) for n in DEFAULT_AXES if getattr(args, n) is not None)
    return TheoremParams(**point)


def _reject_stray_flags(args) -> None:
    """UsageError for any flag that this form of ``verify`` would ignore."""
    if args.identity == "lavoie":
        used, form = ("alpha", "beta"), "verify lavoie"
    elif args.grid:
        used, form = ("grid", "threshold", "relaxed"), f"verify {args.identity} --grid {args.grid}"
    else:
        used, form = (*DEFAULT_AXES, "threshold", "relaxed"), f"verify {args.identity}"
    names = ("beta", *DEFAULT_AXES, "grid", "threshold", "relaxed")
    stray = [f"--{n}" for n in names if n not in used and getattr(args, n) is not None]
    if stray:
        raise UsageError(f"{form} does not take {', '.join(stray)}")


def _run_plan(plan, args, stdout) -> int:
    """Verify every (identity, points) pair of ``plan`` and report all the records."""
    threshold = 1e-6 if args.threshold is None else args.threshold
    records: list[dict] = []
    for which, points in plan:
        pairs = verify_grid(which, points, tol=args.tol, threshold=threshold, strict=not args.relaxed)
        records += [record(which, p._asdict(), rep) for p, rep in pairs]
    return _report(records, args.format, args.out, stdout)


def _cmd_verify(args, stdout) -> int:
    _reject_stray_flags(args)
    if args.identity == "lavoie":
        if args.alpha is None or args.beta is None:
            raise UsageError("verify lavoie needs --alpha and --beta")
        report = lavoie_trottier_check(args.alpha, args.beta, tol=args.tol)
        records = [record("lavoie", {"alpha": args.alpha, "beta": args.beta}, report)]
        return _report(records, args.format, args.out, stdout)
    points = default_grid(args.identity) if args.grid else [_single_point(args)]
    return _run_plan([(args.identity, points)], args, stdout)


def _parse_config(path: str) -> list[tuple[str, list[TheoremParams]]]:
    """(identity, points) per section; each section expands through :func:`default_grid`."""
    import configparser  # here, not at the top: no other command reads a config

    parser = configparser.ConfigParser()
    try:
        loaded = parser.read(path)
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path!r} is malformed: {exc}") from None
    if not loaded:
        raise UsageError(f"config file {path!r} not found or unreadable")
    plan: list[tuple[str, list[TheoremParams]]] = []
    for section, items in sections.items():
        if section not in IDENTITIES:
            raise UsageError(
                f"config section [{section}] is not one of {IDENTITIES}; "
                "use 'verify lavoie' for the scalar identity"
            )
        values: dict[str, list[float]] = {}
        for key, raw in items:
            if key not in DEFAULT_AXES:
                raise UsageError(f"unknown key {key!r} in section [{section}]")
            tokens = [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]
            if not tokens:
                raise UsageError(f"empty value for {key!r} in section [{section}]")
            try:
                values[key] = [float(tok) for tok in tokens]
            except ValueError:
                raise UsageError(f"non-numeric value for {key!r} in section [{section}]") from None
        count = math.prod(len(axis) for axis in grid_axes(section, **values).values())
        if count > _MAX_GRID_POINTS:
            raise UsageError(
                f"section [{section}] expands to {count} points (limit {_MAX_GRID_POINTS})"
            )
        plan.append((section, default_grid(section, **values)))
    if not plan:
        raise UsageError(f"config file {path!r} has no identity sections")
    return plan


def _cmd_grid(args, stdout) -> int:
    path = args.config or os.environ.get(CONFIG_ENV)
    plan = _parse_config(path) if path else [(which, default_grid(which)) for which in IDENTITIES]
    return _run_plan(plan, args, stdout)


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args, stdout)
        if args.command == "verify":
            return _cmd_verify(args, stdout)
        return _cmd_grid(args, stdout)
    except UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return _EXIT_USAGE
    except (OverflowRangeError, DomainError) as exc:
        stderr.write(f"domain error: {exc}\n")
        return _EXIT_DOMAIN
    except (ConvergenceError, NonFiniteSampleError) as exc:
        stderr.write(f"convergence error: {exc}\n")
        return _EXIT_CONVERGENCE


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so that
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
