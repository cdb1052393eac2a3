"""Shared fixtures: the canonical six-user/three-file worked instance.

The instance: K=6 users, N=3 files (A, B, C), t=2 (cache of one file each),
demand (A,A,B,B,C,C). With lowest-index leaders {1,3,5}, delivery sends 19
of the 20 possible three-user XOR messages, omitting the one for {2,4,6}.
`SIX_USER_TABLE` spells out the expected symbol composition of each message,
worked by hand: subset -> set of (file letter, subfile index subset).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

CANONICAL_DEMAND = (1, 1, 2, 2, 3, 3)
CANONICAL_N, CANONICAL_K, CANONICAL_T = 3, 6, 2
FILE_LETTERS = {1: "A", 2: "B", 3: "C"}

# (N, K) instances on which the rate curves are checked, each on the grid
# M = j*N/(2K), j = 0..2K
CURVE_CASES = [(2, 2), (2, 3), (3, 3), (4, 6), (6, 4), (20, 40), (40, 20), (30, 30), (40, 40)]

SIX_USER_TABLE = {
    (1, 2, 3): {("B", (1, 2)), ("A", (1, 3)), ("A", (2, 3))},
    (1, 2, 4): {("B", (1, 2)), ("A", (1, 4)), ("A", (2, 4))},
    (1, 2, 5): {("C", (1, 2)), ("A", (1, 5)), ("A", (2, 5))},
    (1, 2, 6): {("C", (1, 2)), ("A", (1, 6)), ("A", (2, 6))},
    (1, 3, 4): {("B", (1, 3)), ("B", (1, 4)), ("A", (3, 4))},
    (1, 3, 5): {("C", (1, 3)), ("B", (1, 5)), ("A", (3, 5))},
    (1, 3, 6): {("C", (1, 3)), ("B", (1, 6)), ("A", (3, 6))},
    (1, 4, 5): {("C", (1, 4)), ("B", (1, 5)), ("A", (4, 5))},
    (1, 4, 6): {("C", (1, 4)), ("B", (1, 6)), ("A", (4, 6))},
    (1, 5, 6): {("C", (1, 5)), ("C", (1, 6)), ("A", (5, 6))},
    (2, 3, 4): {("B", (2, 3)), ("B", (2, 4)), ("A", (3, 4))},
    (2, 3, 5): {("C", (2, 3)), ("B", (2, 5)), ("A", (3, 5))},
    (2, 3, 6): {("C", (2, 3)), ("B", (2, 6)), ("A", (3, 6))},
    (2, 4, 5): {("C", (2, 4)), ("B", (2, 5)), ("A", (4, 5))},
    (2, 5, 6): {("C", (2, 5)), ("C", (2, 6)), ("A", (5, 6))},
    (3, 4, 5): {("C", (3, 4)), ("B", (3, 5)), ("B", (4, 5))},
    (3, 4, 6): {("C", (3, 4)), ("B", (3, 6)), ("B", (4, 6))},
    (3, 5, 6): {("C", (3, 5)), ("C", (3, 6)), ("B", (5, 6))},
    (4, 5, 6): {("C", (4, 5)), ("C", (4, 6)), ("B", (5, 6))},
}


@pytest.fixture
def canonical_instance():
    from cachekit import batch_placement, make_database

    F = 15
    db = make_database(CANONICAL_N, F, seed=20240817)
    placement = batch_placement(CANONICAL_N, CANONICAL_K, CANONICAL_T, F)
    return db, placement, CANONICAL_DEMAND


def subfile_ranges(K, t, F):
    """Each t-subset's half-open bit range in a batch placement, in rank
    order; needs C(K,t) | F."""
    from cachekit.combinatorics import binomial, enumerate_subsets

    if not 0 <= t <= K:
        raise ValueError(f"t must be in 0..{K}, got {t}")
    pieces = binomial(K, t)
    if F % pieces != 0:
        raise ValueError(f"F must be a multiple of C({K},{t}) = {pieces}, got F={F}")
    size = F // pieces
    return {sid.members: (sid.rank * size, (sid.rank + 1) * size) for sid in enumerate_subsets(K, t)}


def direct_payload(db, placement, d, members):
    """XOR, over users x in `members`, of the batch subfile of file d_x indexed
    by the other members, sliced straight from the database."""
    members = tuple(members)
    ranges = subfile_ranges(placement.K, len(members) - 1, db.F)
    size = db.F // len(ranges)
    acc = np.zeros(size, dtype=np.uint8)
    for idx, x in enumerate(members):
        lo, hi = ranges[members[:idx] + members[idx + 1 :]]
        acc ^= db.bits[d[x - 1] - 1, lo:hi]
    return acc


def terms_oracle(A, d, leaders):
    """The subsets whose messages the cancellation identity XORs to rebuild
    leaderless A: (A + leaders) minus V over every choice V of one requester
    per requested file, the all-leaders choice excluded."""
    block = sorted(set(A) | leaders)
    by_file = {}
    for x in block:
        by_file.setdefault(d[x - 1], []).append(x)
    return {tuple(x for x in block if x not in choice)
            for choice in itertools.product(*by_file.values()) if frozenset(choice) != leaders}


def rebuilt_oracle(payloads, A, d, leaders):
    """Leaderless A's message rebuilt from the received equal-length
    `payloads` (members -> payload): their XOR over `terms_oracle`."""
    return np.bitwise_xor.reduce([payloads[T] for T in sorted(terms_oracle(A, d, leaders))])


def placement_from_mask(mask):
    """The placement in which user k caches exactly the True entries of
    `mask[k-1]`, a K x N x F boolean array."""
    from cachekit.model import Placement, code_dtype

    K, N, F = mask.shape
    codes = np.zeros((N, F), dtype=code_dtype(K))
    for k in range(K):
        codes[mask[k]] |= 1 << k
    codes.setflags(write=False)
    return Placement(K, codes)


def members_of(code, K):
    """The 1-based users of a user-set code, ascending."""
    return tuple(k + 1 for k in range(K) if int(code) >> k & 1)


def oracle_groups(placement, N, F):
    """Groups by caching set with one `flatnonzero` pass per code and file:
    each present set's members -> its positions in each file, codes
    ascending. The codes are Python ints, so any K works."""
    K = placement.K
    codes = np.zeros((N, F), dtype=object)
    for k in range(K):
        codes[placement.cached(k + 1)] += 1 << k
    return {members_of(code, K): tuple(np.flatnonzero(codes[i] == code) for i in range(N))
            for code in np.unique(codes)}


def oracle_level_partition(placement, N, F):
    """The partition's runs made from `oracle_groups`: the codes ascending,
    each file's positions in code order and each group's bit count in each
    file."""
    from cachekit.decentralized import LevelPartition

    groups = oracle_groups(placement, N, F)
    codes = np.array([sum(1 << (k - 1) for k in members) for members in groups], dtype=placement.codes.dtype)
    order = np.array([np.concatenate([g[i] for g in groups.values()]) for i in range(N)])
    sizes = np.array([[len(g[i]) for g in groups.values()] for i in range(N)])
    return LevelPartition(placement.K, N, F, codes, order, sizes)


def subset_rank(members, k_users):
    """Lexicographic rank of a sorted subset of {1..k_users}: the oracle for
    `SubsetId.rank` (C(K, |T|) - 1 less the same-size subsets after T)."""
    members = tuple(members)
    size = len(members)
    if any(b <= a for a, b in zip(members, members[1:])):
        raise ValueError(f"subset members must be strictly increasing: {members}")
    if members and (members[0] < 1 or members[-1] > k_users):
        raise ValueError(f"members {members} not within 1..{k_users}")
    # the subsets after this one are those whose first difference from it
    # replaces members[i] by a larger user: C(k_users - members[i], size - i)
    rank = math.comb(k_users, size) - 1
    for i, c in enumerate(members):
        rank -= math.comb(k_users - c, size - i)
    return rank


# --- rate-layer oracles, independent of the library's rate code --------------


def surjection_counts(universe, max_onto):
    """Numbers of functions from a `universe`-set onto an e-set, e = 0..max_onto,
    by inclusion-exclusion: sum_i (-1)^i C(e, i) (e - i)^universe."""
    powers = [j**universe for j in range(max_onto + 1)]
    return [sum((-1) ** i * math.comb(e, i) * powers[e - i] for i in range(e + 1))
            for e in range(max_onto + 1)]


def oracle_ne_weights(N, K):
    """(e, C(N,e) * surjections(K -> e)) for e in 1..min(N, K): the demands
    with exactly e distinct files, by inclusion-exclusion."""
    E = min(N, K)
    onto = surjection_counts(K, E)
    return tuple((e, math.comb(N, e) * onto[e]) for e in range(1, E + 1))


def chord_envelope(points, x):
    """Envelope oracle: the LP optimum sits on a pair of points, so take the
    minimum over all chords (and exact points) that straddle x."""
    left = [(t, v) for t, v in points if t <= x]
    right = [(t, v) for t, v in points if t >= x]
    best = None
    for t1, v1 in left:
        for t2, v2 in right:
            if t1 == t2:
                value = Fraction(v1)
            else:
                value = v1 + (v2 - v1) * Fraction(x - t1) / Fraction(t2 - t1)
            if best is None or value < best:
                best = value
    return best
