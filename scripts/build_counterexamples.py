#!/usr/bin/env python3
"""Build the certified zero-effect and zero-influence pairs for a range of k.

Writes the function/distribution JSON files into --out-dir and prints a
one-line certificate summary per construction. The zero-influence build is
expected to refuse at k=3 (it names the violating dominance pair); the
smallest working k is 4. Any other refusal makes the exit status 1.

Example:
    python scripts/build_counterexamples.py --k 3,4 --out-dir out/
"""

import argparse
import sys
from pathlib import Path

from pivotal import CertificateError, effect_counterexample, influence_counterexample
from pivotal.serialize import save_dist, save_fn


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", default="3,4", help="comma-separated k values")
    ap.add_argument("--out-dir", default="counterexamples")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    unexpected = False
    for k in (int(s) for s in args.k.split(",")):
        for which, build in (("effect", effect_counterexample),
                             ("influence", influence_counterexample)):
            try:
                f, d, cert = build(k)
            except CertificateError as exc:
                print(f"{which} k={k}: REFUSED ({exc.violation})")
                unexpected |= (which, k) != ("influence", 3)
                continue
            save_fn(out / f"{which}_k{k}_fn.json", f)
            save_dist(out / f"{which}_k{k}_dist.json", d)
            checks = ", ".join(f"{c.name}={'ok' if c.ok else 'FAIL'}" for c in cert.checks)
            print(f"{which} k={k}: n={d.n}, |supp|={len(d.support)}, "
                  f"generators={len(f.generators)} [{checks}]")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
