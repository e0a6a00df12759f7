#!/usr/bin/env python3
"""Sweep dense-orbit certificates over rates and seeds, one CSV row per level.

Example:
    python3 scripts/dense_certificate.py --rates 2 3 10 --seeds 5 6 --out dense_sweep.csv
"""

import argparse
import csv
import sys
import time

from discdyn import TargetFamily, dense_orbit_report, schedule


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates", type=float, nargs="+", default=[2.0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[5])
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--targets", type=int, default=8)
    ap.add_argument("--out", default="dense_sweep.csv")
    args = ap.parse_args(argv)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rate", "seed", "n", "k", "dist", "bound", "error_bar", "certified", "seconds"])
        for rate in args.rates:
            sched = schedule("hyperbolic", rate, max(args.targets, args.levels + 2))
            for seed in args.seeds:
                fam = TargetFamily.generate(args.targets, seed=seed)
                t0 = time.perf_counter()
                rows = dense_orbit_report(fam, sched, n_levels=args.levels)
                dt = time.perf_counter() - t0
                for r in rows:
                    ok = r.dist <= r.bound + r.error_bar
                    w.writerow([rate, seed, r.n, r.k, f"{r.dist:.6e}", f"{r.bound:.6e}",
                                f"{r.error_bar:.2e}", int(ok), f"{dt:.2f}"])
                    if not ok:
                        print(f"uncertified: rate={rate} seed={seed} n={r.n}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
