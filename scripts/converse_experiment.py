#!/usr/bin/env python3
"""Sandwich experiment: converse bound vs what the delivery scheme sends.

Draws seeded random uncoded placements, evaluates the coverage-profile lower
bound per demand type, measures the per-type average rate of the
level-partitioned delivery on the same placement, and prints the gap. The
batch placement rows show the bound tight to exactly 1/F.

Usage: python scripts/converse_experiment.py [--n 3 --k 4 --m 1 --f 120 --placements 20]
Exits 1 when an achieved rate falls below the bound, 0 otherwise, and 2 on
bad arguments: sizes below 1, M outside [0, N], a negative placement count,
or more than `cachekit.cli.EXHAUSTION_GUARD` demands (N^K) to walk per
placement. When C(K, t) does not divide F the batch rows are skipped.
"""

import argparse
import sys
from collections import defaultdict
from fractions import Fraction

import numpy as np

from cachekit import (
    CacheProfile,
    batch_placement,
    binomial,
    converse_bound,
    delivery_rate_value,
    enumerate_types,
    make_database,
)
from cachekit.model import demand_range
from cachekit import cli, decentralized


def per_type_rates(db, placement, N, K, F):
    """Each demand type's average delivered rate: the N^K demands are encoded
    a stack at a time, and only their payload bits are summed."""
    partition = placement.partition
    size = decentralized.stack_size(partition, 0)
    bits, demands = defaultdict(int), defaultdict(int)
    for start in range(0, N**K, size):
        stack = demand_range(start, min(start + size, N**K), N, K)
        sent = sum((lengths.sum(axis=1) for _, lengths in decentralized.encode_stack(db, partition, stack)),
                   np.zeros(len(stack), dtype=np.int64))
        for counts, b in zip(map(tuple, type_counts(stack, N).tolist()), sent.tolist()):
            bits[counts] += b
            demands[counts] += 1
    return {counts: Fraction(bits[counts], F * demands[counts]) for counts in bits}


def type_counts(stack, N):
    """(n, N): each demand's per-file request counts, sorted descending."""
    n, K = stack.shape
    ranked = np.sort(stack, axis=1)
    head = np.ones((n, K), dtype=bool)
    head[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run = np.cumsum(head, axis=1) - 1  # each request's file, numbered within its demand
    counts = np.zeros((n, max(N, K)), dtype=np.int64)
    counts[:, :K] = np.bincount((np.arange(n)[:, None] * K + run).reshape(-1), minlength=n * K).reshape(n, K)
    return -np.sort(-counts, axis=1)[:, :N]


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
    if not 0 <= M <= N:
        parser.error(f"--m must be in [0, {N}], got {M}")
    if args.placements < 0:
        parser.error(f"--placements must be non-negative, got {args.placements}")
    if N**K > cli.EXHAUSTION_GUARD:
        parser.error(f"N^K = {N**K} demands per placement exceeds the exhaustion guard {cli.EXHAUSTION_GUARD}")
    types = enumerate_types(N, K)
    db = make_database(N, F, seed=0)

    t_int = Fraction(K) * M / N
    if t_int.denominator == 1 and F % binomial(K, int(t_int)):
        print(f"batch placement t={int(t_int)}: skipped, F={F} is not a multiple "
              f"of C({K},{int(t_int)}) = {binomial(K, int(t_int))}")
    elif t_int.denominator == 1:
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
