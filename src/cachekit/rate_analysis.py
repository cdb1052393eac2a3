"""Exact rate-memory tradeoff formulas, prior-art baselines, and the
converse bound for arbitrary uncoded placements.

Every rate is read from a curve: each `SCHEMES` entry maps (N, K, Ms) to the
rates at every cache size in Ms, and `rate_curve` evaluates one by name. A
one-point value is `SCHEMES[label](N, K, [M])[0]`.

All arithmetic is over `fractions.Fraction`; callers convert to float at
output time. Non-integer cache parameters are handled by the lower convex
envelope over the integer operating points (memory sharing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import binomial, lower_convex_envelope_many
from .model import DemandStats, Placement, expected_distinct, ne_weights


def delivery_rate_value(K: int, t: int, n_distinct: int) -> Fraction:
    """Delivery rate of the batch scheme at integer t for a demand with
    `n_distinct` distinct files: (C(K,t+1) - C(K-n,t+1)) / C(K,t)."""
    return Fraction(binomial(K, t + 1) - binomial(K - n_distinct, t + 1), binomial(K, t))


def _as_fraction(M, N: int) -> Fraction:
    M = Fraction(M)
    if not 0 <= M <= N:
        raise ValueError(f"M must be in [0, {N}], got {M}")
    return M


def _cache_parameters(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """t = K*M/N for each cache size M, each checked to lie in [0, N]."""
    return [Fraction(K) * _as_fraction(M, N) / N for M in Ms]


def dec_rate_for_distinct(N: int, M, n_distinct: int) -> Fraction:
    """Decentralized delivery rate predicted for one demand with
    `n_distinct` distinct files (the quantity `dec_avg_curve` averages)."""
    M = _as_fraction(M, N)
    if M == 0:
        return Fraction(n_distinct)
    return Fraction(N - M, M) * (1 - Fraction(N - M, N) ** n_distinct)


def optimal_avg_points(N: int, K: int) -> list[tuple[int, Fraction]]:
    """Integer operating points of the average-rate tradeoff.

    The rate at t is E[delivery_rate_value(K, t, distinct)] over uniform
    demands, summed exactly as one integer numerator
    sum_e w_e * (C(K,t+1) - C(K-e,t+1)) over N^K * C(K,t), where w_e counts
    the demands with e distinct files.
    """
    weights = ne_weights(N, K)
    total = N**K
    points = []
    for t in range(K + 1):
        served = binomial(K, t + 1)
        num = sum(w * (served - binomial(K - e, t + 1)) for e, w in weights)
        points.append((t, Fraction(num, total * binomial(K, t))))
    return points


def optimal_peak_points(N: int, K: int) -> list[tuple[int, Fraction]]:
    worst = min(N, K)
    return [(t, delivery_rate_value(K, t, worst)) for t in range(K + 1)]


# --- curves: each takes (N, K, Ms) and returns the rates at every M ----------
#
# Per-curve work (operating points, hulls, the N_e weights) is done once per
# call, then every M is evaluated from it.


def optimal_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Minimum average rate over uniform demands at each cache size M."""
    xs = _cache_parameters(N, K, Ms)
    return lower_convex_envelope_many(optimal_avg_points(N, K), xs)


def optimal_peak_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Minimum worst-demand rate at each cache size M."""
    xs = _cache_parameters(N, K, Ms)
    return lower_convex_envelope_many(optimal_peak_points(N, K), xs)


def _man_points(N: int, K: int) -> tuple[list, list]:
    """Per-integer-t points of the prior-art centralized scheme's two terms:
    coded delivery (K-t)/(t+1) and uncoded delivery E[distinct]*(1-t/K)."""
    mean = expected_distinct(N, K)
    coded = [(t, Fraction(K - t, t + 1)) for t in range(K + 1)]
    uncoded = [(t, mean * (1 - Fraction(t, K))) for t in range(K + 1)]
    return coded, uncoded


def man_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Prior-art centralized average rate at each cache size M: the lower
    convex envelope of the per-integer-t values min{coded, uncoded}."""
    xs = _cache_parameters(N, K, Ms)
    coded, uncoded = _man_points(N, K)
    pts = [(t, min(a, b)) for (t, a), (_, b) in zip(coded, uncoded)]
    return lower_convex_envelope_many(pts, xs)


def man_avg_minconv_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """The other interpolation of the prior-art centralized average rate:
    the pointwise min of the coded and uncoded terms' own envelopes."""
    xs = _cache_parameters(N, K, Ms)
    coded, uncoded = _man_points(N, K)
    return [
        min(a, b)
        for a, b in zip(lower_convex_envelope_many(coded, xs), lower_convex_envelope_many(uncoded, xs))
    ]


def dec_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Decentralized minimum average rate at each cache size M.

    With q = (N-M)/N = a/b and E = min(N, K), E[q^distinct] is one integer
    sum_e w_e * a^e * b^(E-e) over N^K * b^E. M = 0 degenerates to unicast
    of each distinct request.
    """
    Ms = [_as_fraction(M, N) for M in Ms]
    weights = ne_weights(N, K)
    total = N**K
    E = min(N, K)
    rates = []
    for M in Ms:
        if M == 0:
            rates.append(expected_distinct(N, K))
            continue
        q = Fraction(N - M, N)
        a, b = q.numerator, q.denominator
        den = total * b**E
        num = sum(w * a**e * b ** (E - e) for e, w in weights)
        rates.append(Fraction(N - M, M) * Fraction(den - num, den))
    return rates


def dec_peak_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Decentralized minimum peak rate at each cache size M."""
    return [dec_rate_for_distinct(N, M, min(N, K)) for M in Ms]


def man_dec_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Prior-art decentralized average rate at each cache size M: the better
    of coded delivery and plain multicast of distinct requests, scaled by the
    uncached share."""
    Ms = [_as_fraction(M, N) for M in Ms]
    mean = expected_distinct(N, K)
    rates = []
    for M in Ms:
        if M == 0:
            rates.append(mean)  # unicast of each distinct request; mean <= min(N, K)
            continue
        coded = Fraction(N, M) * (1 - (1 - Fraction(M, N)) ** K)
        rates.append(Fraction(N - M, N) * min(coded, mean))
    return rates


@dataclass(frozen=True)
class CacheProfile:
    """`coverage[n]` counts database bits cached by exactly n users."""

    coverage: tuple[int, ...]

    @classmethod
    def from_placement(cls, placement: Placement) -> "CacheProfile":
        per_bit = np.bitwise_count(placement.codes).astype(np.intp)  # users caching each bit
        counts = np.bincount(per_bit.ravel(), minlength=placement.K + 1)
        return cls(tuple(int(c) for c in counts))


def converse_bound(profile: CacheProfile, stats: DemandStats, K: int, F: int, eps=0) -> Fraction:
    """Lower bound on the average rate within a demand type for any
    placement with the given coverage profile.

    Sum_n coverage[n]/(N*F) * rate_value(K,n,distinct) - (1/F + distinct^2 * eps).
    """
    N = len(stats.counts)
    if len(profile.coverage) != K + 1:
        raise ValueError(f"profile must have K+1 = {K + 1} entries")
    total = sum(profile.coverage)
    if total != N * F:
        raise ValueError(f"profile covers {total} bits, expected N*F = {N * F}")
    ne = stats.distinct
    bound = sum(
        (Fraction(a, N * F) * delivery_rate_value(K, n, ne) for n, a in enumerate(profile.coverage) if a),
        Fraction(0),
    )
    return bound - (Fraction(1, F) + ne * ne * Fraction(eps))


@dataclass(frozen=True)
class RateCurve:
    """Sampled (M, R) points of one scheme's tradeoff curve."""

    scheme: str
    N: int
    K: int
    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ms = [m for m, _ in self.points]
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("M values must be strictly increasing")


SCHEMES: dict[str, Callable[[int, int, Sequence[Fraction]], list[Fraction]]] = {
    "optimal-avg": optimal_avg_curve,
    "optimal-peak": optimal_peak_curve,
    "man-avg": man_avg_curve,
    "man-avg-minconv": man_avg_minconv_curve,
    "dec-avg": dec_avg_curve,
    "dec-peak": dec_peak_curve,
    "man-dec-avg": man_dec_avg_curve,
}


def rate_curve(scheme: str, N: int, K: int, grid: Sequence) -> RateCurve:
    """Evaluate a named scheme on an M-grid (values in [0, N])."""
    fn = SCHEMES.get(scheme)
    if fn is None:
        raise ValueError(f"unknown scheme {scheme!r}; known: {', '.join(sorted(SCHEMES))}")
    Ms = [Fraction(M) for M in grid]
    return RateCurve(scheme, N, K, tuple(zip(Ms, fn(N, K, Ms))))


def write_curves_csv(curves: Sequence[RateCurve], fh) -> None:
    """Long-format CSV `M,R,scheme,N,K`; grid-major, then scheme order as given."""
    fh.write("M,R,scheme,N,K\n")
    if not curves:
        return
    npoints = len(curves[0].points)
    if any(len(c.points) != npoints for c in curves):
        raise ValueError("all curves must share a grid")
    for i in range(npoints):
        for c in curves:
            m, r = c.points[i]
            fh.write(f"{float(m):.6f},{float(r):.6f},{c.scheme},{c.N},{c.K}\n")
