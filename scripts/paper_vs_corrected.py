#!/usr/bin/env python3
"""Profile how far each printed closed form drifts from quadrature.

Sweeps one parameter (k by default) at a fixed base point and prints the
relative deviation of the as-printed and re-derived right-hand sides from
the integrated left-hand side, for both theorems.  The printed first-theorem
form degrades like k^(1/2) away from k = 1 on top of a constant parameter-
shift error; the printed second-theorem form is off everywhere.

Usage:
    python scripts/paper_vs_corrected.py [--sweep {k,y,nu}] [--points N]
"""

import argparse
import sys

from kstruve import TheoremParams, verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", choices=("k", "y", "nu"), default="k")
    parser.add_argument("--points", type=int, default=7)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=0.5)
    args = parser.parse_args(argv)

    if args.points < 2:
        parser.error("--points must be at least 2")

    sweeps = {
        "k": [0.25 + 1.75 * i / (args.points - 1) for i in range(args.points)],
        "y": [0.25 + 1.75 * i / (args.points - 1) for i in range(args.points)],
        "nu": [2.0 + 3.0 * i / (args.points - 1) for i in range(args.points)],
    }
    values = sweeps[args.sweep]

    pinned = " (nu pinned to 3k/2 + 0.5)" if args.sweep == "k" else ""
    print(f"sweep {args.sweep} at alpha={args.alpha}, mu={args.mu}{pinned}")
    header = f"{'identity':9} {args.sweep:>6} {'dev_paper':>12} {'dev_corrected':>14} verdict"
    print(header)
    for which in ("theorem1", "theorem2"):
        for v in values:
            kwargs = {"alpha": args.alpha, "mu": args.mu, "nu": 2.0,
                      "c": 1.0, "k": 1.0, "y": 1.0}
            kwargs[args.sweep] = v
            if args.sweep == "k":
                kwargs["nu"] = 1.5 * v + 0.5
            p = TheoremParams(**kwargs)
            rep = verify(which, p)
            print(f"{which:9} {v:6.3f} {rep.rel_dev_paper:12.3e} "
                  f"{rep.rel_dev_corrected:14.3e} {rep.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
