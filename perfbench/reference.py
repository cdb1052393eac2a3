"""Reference computations for the benchmark's output checks.

Written apart from cachekit and sharing no code with it, so that a fault in
the program cannot hide behind the same fault in its checker:

* the distribution of the number of distinct requested files, from the
  Stirling recurrence (cachekit uses inclusion-exclusion),
* exact `Fraction` closed forms of the six `compare` schemes, with this
  module's own lower convex hull over the integer operating points,
* partition counts, which are the number of demand types,
* cache-set groups per bit, built from each user's `cached_pairs`, and the
  per-level delivery's payload, message and padding counts derived from them.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import comb, floor
from typing import Iterable, Sequence

import numpy as np

COMPARE_SCHEMES = ("optimal-avg", "man-avg", "optimal-peak", "dec-avg", "man-dec-avg", "dec-peak")


# --- distinct-file distribution ----------------------------------------------


def stirling2_row(K: int) -> list[int]:
    """S(K, e) for e = 0..K, Stirling numbers of the second kind."""
    row = [1]
    for n in range(1, K + 1):
        prev = row + [0]
        row = [0] + [e * prev[e] + prev[e - 1] for e in range(1, n + 1)]
    return row


def distinct_distribution(N: int, K: int) -> dict[int, Fraction]:
    """P(e distinct files) for a uniform demand in {1..N}^K.

    The demands with exactly e distinct files number N(N-1)...(N-e+1) S(K, e).
    """
    s = stirling2_row(K)
    out = {}
    falling = 1
    for e in range(1, min(N, K) + 1):
        falling *= N - e + 1
        out[e] = Fraction(falling * s[e], N**K)
    return out


def mean_distinct(dist: dict[int, Fraction]) -> Fraction:
    return sum((e * p for e, p in dist.items()), Fraction(0))


# --- lower convex hull ---------------------------------------------------------


def lower_hull(points: Sequence[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Lower convex hull of points with strictly increasing x."""
    hull: list[tuple[Fraction, Fraction]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it is not strictly below the chord
            if (y1 - y0) * (x - x0) >= (y - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def hull_value(hull: Sequence[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    xs = [p[0] for p in hull]
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"x={x} outside [{xs[0]}, {xs[-1]}]")
    i = bisect.bisect_left(xs, x)
    if xs[i] == x:
        return hull[i][1]
    (x0, y0), (x1, y1) = hull[i - 1], hull[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


# --- the six compare schemes ------------------------------------------------------


def _centralized_points(K: int, values) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(t), Fraction(values(t))) for t in range(K + 1)]


def compare_reference(N: int, K: int, grid: Iterable[Fraction]) -> dict[str, list[Fraction]]:
    """Exact rate of each `compare` default scheme at each M of `grid`.

    Centralized schemes are closed forms at integer t = KM/N, joined by the
    lower hull (memory sharing); decentralized ones are closed forms at every M.
    """
    dist = distinct_distribution(N, K)
    mean = mean_distinct(dist)
    worst = min(N, K)

    def batch_rate(t: int, e: int) -> Fraction:
        return Fraction(comb(K, t + 1) - comb(K - e, t + 1), comb(K, t))

    hulls = {
        "optimal-avg": lower_hull(_centralized_points(
            K, lambda t: sum((p * batch_rate(t, e) for e, p in dist.items()), Fraction(0)))),
        "optimal-peak": lower_hull(_centralized_points(K, lambda t: batch_rate(t, worst))),
        "man-avg": lower_hull(_centralized_points(
            K, lambda t: min(Fraction(K - t, t + 1), mean * (1 - Fraction(t, K))))),
    }
    out: dict[str, list[Fraction]] = {s: [] for s in COMPARE_SCHEMES}
    for M in grid:
        M = Fraction(M)
        x = K * M / N
        for scheme, hull in hulls.items():
            out[scheme].append(hull_value(hull, x))
        if M == 0:
            out["dec-avg"].append(mean)
            out["dec-peak"].append(Fraction(worst))
            out["man-dec-avg"].append(min(Fraction(K), mean))
            continue
        miss = (N - M) / N
        gain = (N - M) / M
        out["dec-avg"].append(sum((p * gain * (1 - miss**e) for e, p in dist.items()), Fraction(0)))
        out["dec-peak"].append(gain * (1 - miss**worst))
        out["man-dec-avg"].append(miss * min(N / M * (1 - miss**K), mean))
    return out


# --- demand types -------------------------------------------------------------------


def partitions_by_parts(K: int, N: int) -> dict[int, int]:
    """Number of partitions of K into exactly e parts, for e = 1..min(N, K).

    p(n, e) = p(n - 1, e - 1) + p(n - e, e): either a part equals 1, or every
    part shrinks by one.
    """
    table = [[0] * (K + 1) for _ in range(K + 1)]
    table[0][0] = 1
    for n in range(1, K + 1):
        for e in range(1, n + 1):
            table[n][e] = table[n - 1][e - 1] + table[n - e][e]
    return {e: table[K][e] for e in range(1, min(N, K) + 1)}


def leaders(d: Sequence[int]) -> set[int]:
    """Lowest-indexed requester (1-based) of each distinct file."""
    first: dict[int, int] = {}
    for k, f in enumerate(d, start=1):
        first.setdefault(f, k)
    return set(first.values())


def centralized_message_count(K: int, t: int, d: Sequence[int]) -> int:
    return comb(K, t + 1) - comb(K - len(set(d)), t + 1)


# --- decentralized cache-set groups --------------------------------------------------


def cache_set_codes(pairs_per_user: Iterable[Sequence[tuple[int, int]]], N: int, F: int) -> np.ndarray:
    """(N, F) array whose bit k-1 is set where user k caches that file bit.

    `pairs_per_user` yields, for users 1..K in order, their (file, bit) pairs
    with 1-based files and 0-based bits, as `Placement.cached_pairs` gives them.
    """
    codes = np.zeros((N, F), dtype=np.uint64)
    for k, pairs in enumerate(pairs_per_user):
        if k >= 64:
            raise ValueError("reference cache-set codes hold at most 64 users")
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        codes[arr[:, 0] - 1, arr[:, 1]] |= np.uint64(1) << np.uint64(k)
    return codes


def group_sizes(codes: np.ndarray) -> dict[tuple[int, int], int]:
    """|G(S, i)| keyed by (user-set bitmask of S, 1-based file i)."""
    out = {}
    for i, row in enumerate(codes, start=1):
        values, counts = np.unique(row, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            out[(int(v), i)] = int(c)
    return out


def per_user_file_counts(codes: np.ndarray, K: int) -> np.ndarray:
    """(K, N) array: bits of each file cached by each user."""
    return np.array([[int(np.count_nonzero((row >> np.uint64(k)) & np.uint64(1))) for row in codes]
                     for k in range(K)])


def delivery_counts(size, d: Sequence[int], K: int) -> dict[str, int]:
    """Payload bits, messages and zero padding of the per-level delivery.

    `size(s, i)` is |G(S, i)| for the user set S with bitmask s and 1-based
    file i. Every user set S that holds a leader and has a non-empty chunk
    gets one message of max over x in S of |G(S - x, d_x)| bits; each chunk
    shorter than that is zero-padded to it; an empty chunk adds no XOR term
    and no padding.
    """
    lead_mask = sum(1 << (k - 1) for k in leaders(d))
    payload = messages = padding = 0
    for s in range(1, 1 << K):
        if not s & lead_mask:
            continue
        chunk = [size(s & ~(1 << x), d[x]) for x in range(K) if s >> x & 1]
        longest = max(chunk)
        if longest:
            payload += longest
            messages += 1
            padding += sum(longest - c for c in chunk if c)
    return {"payload_bits": payload, "messages_sent": messages, "padding_bits": padding}


def members(s: int) -> tuple[int, ...]:
    """The 1-based users of bitmask s, ascending."""
    return tuple(k + 1 for k in range(s.bit_length()) if s >> k & 1)


def cache_quota(N: int, M: Fraction, F: int) -> int:
    return floor(Fraction(M) * F / N)
