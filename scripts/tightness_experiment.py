#!/usr/bin/env python3
"""Tightness experiment for the participation-majority space.

Prints the exact per-symbol deviations of a representative player (the
kernel sums over the law of the vote total, not the 3^n grid), then the
majp_tightness rows that `pivotal sweep --p-prime` prints, at p' = p/2 on
an alpha grid anchored at the derived deviations. With --sizes it also
prints, per larger n, the exact deviation of the vote-1 symbol,
1/sqrt(pn) and their product, which tracks a constant.

Example:
    python scripts/tightness_experiment.py --n 9 --p 1/2 --sizes 25,49,1000
"""

import argparse
import math
import sys
from fractions import Fraction

from pivotal import MajPFn, majp_dist, majp_tightness, pivotal_player, pivotal_report
from pivotal.serialize import parse_rational, rational_str


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=9)
    ap.add_argument("--p", type=parse_rational, default=Fraction(1, 2))
    ap.add_argument("--sizes", default="",
                    help="comma-separated larger n values for the 1/sqrt(pn) scaling")
    args = ap.parse_args()

    n, p = args.n, args.p
    d = majp_dist(n, p)
    report = pivotal_report(MajPFn(n), d, p, Fraction(1))
    row = report.rows[0]
    print(f"# exact enumeration at n={n}, p={rational_str(p)}")
    print(f"# E[f] = {rational_str(report.expectation)}")
    for sd in row.deviations:
        label = d.alphabet.symbols[sd.symbol]
        print(f"#   symbol {label}: mass {rational_str(sd.mass)}, "
              f"deviation {rational_str(sd.deviation)} ({float(sd.deviation):+.6f})")

    participating = [abs(sd.deviation) for sd in row.deviations if sd.symbol != 2]
    alpha_star = min(participating) / 2
    p_prime = p / 2
    print(f"# derived thresholds: alpha* = {rational_str(alpha_star)}, "
          f"p' = {rational_str(p_prime)}")

    print("alpha,alpha_dec,count,bound,bound_dec")
    grid = (alpha_star / 4, alpha_star / 2, alpha_star, 2 * alpha_star, Fraction(1, 2), 1)
    for r in majp_tightness(n, p, grid, p_prime=p_prime):
        print(f"{rational_str(r.alpha)},{float(r.alpha)},{r.count},"
              f"{rational_str(r.bound)},{float(r.bound)}")

    if args.sizes:
        print()
        print("# exact deviation of the vote-1 symbol vs 1/sqrt(pn)")
        print("n,deviation,one_over_sqrt_pn,deviation_times_sqrt_pn")
        for big in (int(s) for s in args.sizes.split(",")):
            _, big_row = pivotal_player(MajPFn(big), majp_dist(big, p), 0, p, Fraction(1))
            dev = float(next(sd.deviation for sd in big_row.deviations if sd.symbol == 1))
            scale = 1.0 / math.sqrt(float(p) * big)
            print(f"{big},{dev:.5f},{scale:.5f},{dev / scale:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
