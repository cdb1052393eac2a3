"""Exact subset combinatorics and lower convex envelopes.

Everything here is exact integer arithmetic: binomials are arbitrary
precision integers, and the envelope reads every coordinate as an integer
(numerator, denominator) pair, builds its hull from integer cross products
and returns integer pairs, so downstream rate formulas never lose a tie to
rounding. Only ints and `Fraction`s are accepted; there is no float path.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Pair = tuple[int, int]  # (numerator, positive denominator) of a rational


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires non-negative arguments, got ({n}, {k})")
    return math.comb(n, k)


@dataclass(frozen=True)
class SubsetId:
    """A size-`k` subset of users {1..K}, with its lexicographic rank.

    `members` is strictly increasing; `rank` is the subset's position among
    all same-size subsets of {1..K} enumerated in lexicographic order.
    """

    members: tuple[int, ...]
    rank: int


def lex_rank(members: Sequence[int], k_users: int) -> int:
    """The lexicographic rank of the strictly increasing `members` among the
    same-size subsets of {1..k_users}: per column i, the subsets that agree
    before it and hold a smaller user v there, C(k_users - v, size - i - 1)
    for each v, summed by the hockey-stick identity."""
    rank, prev, size = 0, 0, len(members)
    for i, c in enumerate(members):
        rank, prev = rank + math.comb(k_users - prev, size - i) - math.comb(k_users - c + 1, size - i), c
    return rank


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


def lower_envelope(points: Sequence[tuple[Pair, Pair]], xs: Iterable[Pair]) -> list[Pair]:
    """Values at each of `xs` of the lower convex envelope of `points`, all
    read as integer pairs (numerator, positive denominator).

    `points` are (x, y), each coordinate a pair, with strictly increasing x. Both
    axes are put over one common denominator each, the hull is built from
    integer cross products and each segment keeps four integers, so an x costs
    one integer bisection and a few products. Each value comes back as an
    unreduced (numerator, positive denominator) pair; `xs` may come in any
    order, and every x must lie within [min x, max x].
    """
    if not points:
        raise ValueError("no points to envelope")
    x_scale = math.lcm(*(b for (_, b), _ in points))
    y_scale = math.lcm(*(e for _, (_, e) in points))
    hull: list[Pair] = []  # the points on both common denominators, lower hull only
    for (a, b), (c, e) in points:
        X, Y = a * (x_scale // b), c * (y_scale // e)
        if hull and X <= hull[-1][0]:
            raise ValueError("envelope points must have strictly increasing x")
        # pop while the last hull point lies on or above the chord to the new one
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (Y - hull[-2][1]) <= (hull[-1][1] - hull[-2][1]) * (X - hull[-2][0])
        ):
            hull.pop()
        hull.append((X, Y))
    # segment (X0, Y0)-(X1, Y1) at x = n/d is
    # (Y0*(X1-X0)*d + (Y1-Y0)*(n*x_scale - X0*d)) / (y_scale*(X1-X0)*d)
    segments = [(X0, Y0 * (X1 - X0), Y1 - Y0, y_scale * (X1 - X0))
                for (X0, Y0), (X1, Y1) in zip(hull, hull[1:])] or [(hull[0][0], hull[0][1], 0, y_scale)]
    ends = [X for X, _ in hull]
    lo, hi = ends[0], ends[-1]
    values = []
    for n, d in xs:
        floor, rem = divmod(n * x_scale, d)
        ceil = floor + (rem > 0)
        if floor < lo or ceil > hi:
            raise ValueError(f"x={Fraction(n, d)} outside envelope domain "
                             f"[{Fraction(lo, x_scale)}, {Fraction(hi, x_scale)}]")
        X0, P, B, Q = segments[max(bisect.bisect_left(ends, ceil) - 1, 0)]
        values.append((P * d + B * (n * x_scale - X0 * d), Q * d))
    return values


def _pair(v) -> Pair:
    if not isinstance(v, numbers.Rational):
        raise TypeError(f"envelope values must be ints or Fractions, got {type(v).__name__} {v!r}")
    return int(v.numerator), int(v.denominator)


def lower_convex_envelope_many(pts: Iterable[tuple[int | Fraction, int | Fraction]],
                               xs: Iterable[int | Fraction]) -> list[Fraction]:
    """`lower_envelope` over ints and Fractions (a float raises `TypeError`):
    the envelope's value at each of `xs`, each one `Fraction`."""
    values = lower_envelope([(_pair(x), _pair(y)) for x, y in pts], [_pair(x) for x in xs])
    return [Fraction(n, d) for n, d in values]
