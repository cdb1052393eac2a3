#!/usr/bin/env python3
"""Sandwich experiment: converse bound vs what the delivery scheme sends.

Draws seeded random uncoded placements, evaluates the coverage-profile lower
bound per demand type, measures the per-type average rate of the
level-partitioned delivery on the same placement, and prints the gap. The
batch placement rows show the bound tight to exactly 1/F.

Usage: python scripts/converse_experiment.py [--n 3 --k 4 --m 1 --f 120 --placements 20]
Exits 1 when an achieved rate falls below the bound, 0 otherwise.
"""

import argparse
import sys
from collections import defaultdict
from fractions import Fraction

from cachekit import (
    CacheProfile,
    all_demands,
    batch_placement,
    converse_bound,
    delivery_rate_value,
    demand_stats,
    enumerate_types,
    make_database,
)
from cachekit import decentralized


def per_type_rates(db, placement, N, K, F):
    acc = defaultdict(list)
    for d in all_demands(N, K):
        messages = decentralized.encode_delivery(db, placement.partition, d)
        acc[demand_stats(d, N).counts].append(decentralized.delivered_rate(messages, F))
    return {counts: sum(rs, Fraction(0)) / len(rs) for counts, rs in acc.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--m", type=Fraction, default=Fraction(1))
    parser.add_argument("--f", type=int, default=120)
    parser.add_argument("--placements", type=int, default=20)
    args = parser.parse_args(argv)
    for flag in ("n", "k", "f"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    N, K, F, M = args.n, args.k, args.f, args.m
    types = enumerate_types(N, K)
    db = make_database(N, F, seed=0)

    t_int = Fraction(K) * M / N
    if t_int.denominator == 1:
        placement = batch_placement(N, K, int(t_int), F)
        profile = CacheProfile.from_placement(placement)
        print(f"batch placement t={int(t_int)}:")
        for stats in types:
            bound = converse_bound(profile, stats, K, F, eps=0)
            achieved = delivery_rate_value(K, int(t_int), stats.distinct)
            print(f"  type {stats.counts}: bound {float(bound):.6f}"
                  f"  achieved {float(achieved):.6f}  gap {float(achieved - bound):.6f}")

    print(f"\n{args.placements} random placements (M={M}):")
    worst_gap = defaultdict(lambda: Fraction(0))
    violations = 0
    for seed in range(args.placements):
        placement = decentralized.random_placement(N, K, M, F, seed=seed)
        profile = CacheProfile.from_placement(placement)
        achieved = per_type_rates(db, placement, N, K, F)
        for stats in types:
            bound = converse_bound(profile, stats, K, F, eps=0)
            gap = achieved[stats.counts] - bound
            if gap < 0:
                violations += 1
            worst_gap[stats.counts] = max(worst_gap[stats.counts], gap)
    for stats in types:
        print(f"  type {stats.counts}: worst achieved-bound gap {float(worst_gap[stats.counts]):.6f}")
    print(f"bound violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
