"""Exact subset combinatorics and lower convex envelopes.

Everything here is exact: binomials and surjection counts are arbitrary
precision integers, and the envelope is evaluated in rational arithmetic
whenever the inputs are rationals, so downstream rate formulas never lose
a tie to rounding.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires non-negative arguments, got ({n}, {k})")
    return math.comb(n, k)


def surjection_counts(universe: int, max_onto: int) -> list[int]:
    """Numbers of functions from a `universe`-set onto an e-set, e = 0..max_onto.

    Inclusion-exclusion: sum_i (-1)^i C(e, i) (e - i)^universe, with the
    powers computed once for all e.
    """
    if max_onto < 0 or universe < 0:
        raise ValueError("surjection_counts requires non-negative arguments")
    powers = [j**universe for j in range(max_onto + 1)]
    return [
        sum((-1) ** i * binomial(e, i) * powers[e - i] for i in range(e + 1))
        for e in range(max_onto + 1)
    ]


@dataclass(frozen=True)
class SubsetId:
    """A size-`k` subset of users {1..K}, with its lexicographic rank.

    `members` is strictly increasing; `rank` is the subset's position among
    all same-size subsets of {1..K} enumerated in lexicographic order.
    """

    members: tuple[int, ...]
    rank: int


def enumerate_subsets(k_users: int, size: int) -> list[SubsetId]:
    """All size-`size` subsets of {1..k_users} in lexicographic order.

    Ranks are consistent with list position by construction.
    """
    if not 0 <= size <= k_users:
        raise ValueError(f"size {size} out of range 0..{k_users}")
    return [
        SubsetId(members, rank)
        for rank, members in enumerate(itertools.combinations(range(1, k_users + 1), size))
    ]


Number = int | float | Fraction


def _cross(o, a, b) -> Number:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lower_hull(points: Iterable[tuple[Number, Number]]) -> list[tuple[Number, Number]]:
    """Lower convex hull of points sorted by x (monotone chain)."""
    hull: list[tuple[Number, Number]] = []
    for p in points:
        # pop while the previous point lies on or above the new chord
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def _exact_ratio(num: Number, den: Number) -> Number:
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num) / Fraction(den)


def lower_convex_envelope_many(pts: Sequence[tuple[Number, Number]], xs: Iterable[Number]) -> list[Number]:
    """Values at each of `xs` of the lower convex envelope of the given points.

    The hull is built once; each x finds its segment by bisection, so `xs`
    may come in any order. Every x must lie within [min t, max t]. Exact when
    points and xs are rational.
    """
    points = tuple(pts)
    if not points:
        raise ValueError("no points to envelope")
    lo, hi = points[0][0], points[-1][0]
    hull = lower_hull(points)  # keeps both end points, so it spans [lo, hi]
    hull_ts = [t for t, _ in hull]
    values = []
    for x in xs:
        if not lo <= x <= hi:
            raise ValueError(f"x={x} outside envelope domain [{lo}, {hi}]")
        i = bisect.bisect_left(hull_ts, x)
        t1, v1 = hull[i]
        if x == t1:
            values.append(v1)
            continue
        t0, v0 = hull[i - 1]
        values.append(v0 + (v1 - v0) * _exact_ratio(x - t0, t1 - t0))
    return values
