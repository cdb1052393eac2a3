#!/usr/bin/env python3
"""Generate the headline rate-memory comparison tables as CSV files.

Writes four long-format tables (schema M,R,scheme,N,K):

  centralized_avg_n30_k30.csv   optimal-avg vs man-avg
  centralized_peak_n20_k40.csv  optimal-peak vs man-avg
  decentralized_avg_n30_k30.csv dec-avg vs man-dec-avg
  decentralized_peak_n20_k40.csv dec-peak vs man-dec-avg

Usage: python scripts/tradeoff_tables.py [--outdir results] [--points-per-t 2]
"""

import argparse
import pathlib
import sys
from fractions import Fraction

from cachekit.rate_analysis import rate_curve, write_curves_csv

TABLES = [
    ("centralized_avg_n30_k30.csv", 30, 30, ["optimal-avg", "man-avg"]),
    ("centralized_peak_n20_k40.csv", 20, 40, ["optimal-peak", "man-avg"]),
    ("decentralized_avg_n30_k30.csv", 30, 30, ["dec-avg", "man-dec-avg"]),
    ("decentralized_peak_n20_k40.csv", 20, 40, ["dec-peak", "man-dec-avg"]),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--points-per-t", type=int, default=2,
                        help="grid samples per integer cache parameter step")
    args = parser.parse_args(argv)
    if args.points_per_t < 1:
        parser.error(f"--points-per-t must be at least 1, got {args.points_per_t}")
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, N, K, labels in TABLES:
        step = Fraction(N, K * args.points_per_t)
        grid = [j * step for j in range(K * args.points_per_t + 1)]
        curves = [rate_curve(label, N, K, grid) for label in labels]
        path = outdir / name
        with open(path, "w") as fh:
            write_curves_csv(curves, fh)
        print(f"{path}: {len(grid)} grid points x {len(labels)} schemes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
