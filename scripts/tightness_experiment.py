#!/usr/bin/env python3
"""Tightness experiment for the participation-majority space.

Exact mode derives the per-symbol deviations for a representative player
(the kernel sums over the law of the vote total, not the 3^n grid) and
tabulates pivotal counts against the 8/(p a^2) bound over an alpha grid
anchored at the derived deviations. With --mc-sizes it also estimates the
participating-symbol deviation at larger n, reports how it tracks
1/sqrt(pn), and prints the exact deviation times sqrt(pn) beside it.

Example:
    python scripts/tightness_experiment.py --n 9 --p 1/2 --mc-sizes 25,49 --samples 20000 --seed 7
"""

import argparse
import math
import sys
from fractions import Fraction

from pivotal import MajPFn, majp_dist, pivotal_player, pivotal_report
from pivotal.serialize import parse_rational, rational_str
from pivotal.theorems import estimate_majp_deviations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=9)
    ap.add_argument("--p", type=parse_rational, default=Fraction(1, 2))
    ap.add_argument("--mc-sizes", default="",
                    help="comma-separated larger n values for Monte Carlo scaling")
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=7)
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
    for alpha in (alpha_star / 4, alpha_star / 2, alpha_star,
                  2 * alpha_star, Fraction(1, 2), Fraction(1)):
        count = report.count(p_prime, alpha)
        bound = 8 / (p_prime * alpha ** 2)
        print(f"{rational_str(alpha)},{float(alpha)},{count},"
              f"{rational_str(bound)},{float(bound)}")

    if args.mc_sizes:
        print()
        print("# Monte Carlo deviation of the vote-1 symbol vs 1/sqrt(pn)")
        print("n,estimate,halfwidth,one_over_sqrt_pn,exact_times_sqrt_pn")
        for big in (int(s) for s in args.mc_sizes.split(",")):
            devs = estimate_majp_deviations(big, p, args.samples, args.seed)
            est, hw = devs[1]
            scale = 1.0 / math.sqrt(float(p) * big)
            _, exact_row = pivotal_player(MajPFn(big), majp_dist(big, p), 0, p, Fraction(1))
            exact = next(sd.deviation for sd in exact_row.deviations if sd.symbol == 1)
            print(f"{big},{float(abs(est)):.5f},{hw:.5f},{scale:.5f},{float(exact) / scale:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
