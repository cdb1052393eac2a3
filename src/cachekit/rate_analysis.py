"""Exact rate-memory tradeoff formulas, prior-art baselines, and the
converse bound for arbitrary uncoded placements.

Every rate is read from a curve: each `SCHEMES` entry maps (N, K, Ms) to the
rates at every cache size in Ms, and `rate_curve` evaluates one by name. A
one-point value is `SCHEMES[label](N, K, [M])[0]`.

Every curve computes in integers: each rate is built as one integer
numerator over one integer denominator, and only then turned into its one
`fractions.Fraction`; callers convert to float at output time. Non-integer
cache parameters are handled by the lower convex envelope over the integer
operating points (memory sharing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import Pair, binomial, lower_envelope
from .model import DemandStats, Placement, expected_distinct, ne_weights


def _delivery_rate(K: int, t: int, n_distinct: int) -> Pair:
    return binomial(K, t + 1) - binomial(K - n_distinct, t + 1), binomial(K, t)


def delivery_rate_value(K: int, t: int, n_distinct: int) -> Fraction:
    """Delivery rate of the batch scheme at integer t for a demand with
    `n_distinct` distinct files: (C(K,t+1) - C(K-n,t+1)) / C(K,t)."""
    return Fraction(*_delivery_rate(K, t, n_distinct))


def _cache_sizes(N: int, Ms: Iterable) -> list[Pair]:
    """Each cache size M as (p, r) with M = p/r, r > 0, checked to lie in
    [0, N]. Ints and Fractions are read as they are; anything else goes
    through `Fraction(M)`."""
    pairs = []
    for M in Ms:
        if not isinstance(M, (int, Fraction)):
            M = Fraction(M)
        p, r = M.numerator, M.denominator
        if not 0 <= p <= N * r:
            raise ValueError(f"M must be in [0, {N}], got {M}")
        pairs.append((p, r))
    return pairs


def _cache_parameters(N: int, K: int, Ms: Iterable) -> list[Pair]:
    """t = K*M/N for each cache size M = p/r, as the pair (K*p, N*r)."""
    return [(K * p, N * r) for p, r in _cache_sizes(N, Ms)]


def _fractions(pairs: Iterable[Pair]) -> list[Fraction]:
    return [Fraction(n, d) for n, d in pairs]


def _min(a: Pair, b: Pair) -> Pair:
    """The smaller of two rationals given as pairs with positive denominators."""
    return a if a[0] * b[1] <= b[0] * a[1] else b


def _dec_rate(N: int, p: int, r: int, n_distinct: int) -> Fraction:
    """(N-M)/M * (1 - ((N-M)/N)^n) at M = p/r > 0, over one integer numerator."""
    b = N * r
    a = b - p
    return Fraction(a * (b**n_distinct - a**n_distinct), p * b**n_distinct)


def dec_rate_for_distinct(N: int, M, n_distinct: int) -> Fraction:
    """Decentralized delivery rate predicted for one demand with
    `n_distinct` distinct files (the quantity `dec_avg_curve` averages)."""
    ((p, r),) = _cache_sizes(N, [M])
    return Fraction(n_distinct) if p == 0 else _dec_rate(N, p, r, n_distinct)


def _times_one_plus_x(poly: list[int]) -> list[int]:
    return [a + b for a, b in zip(poly + [0], [0] + poly)]


def optimal_avg_points(N: int, K: int) -> list[tuple[Pair, Pair]]:
    """Integer operating points (t, rate) of the average-rate tradeoff, as
    integer pairs.

    The rate at t is E[delivery_rate_value(K, t, distinct)] over uniform
    demands: sum_e w_e * (C(K,t+1) - C(K-e,t+1)) over N^K * C(K,t), where w_e
    counts the demands with e distinct files. The inner sum
    sum_e w_e * C(K-e, t+1) is the x^(t+1) coefficient of
    P(x) = sum_e w_e * (1+x)^(K-e), built by Horner's rule in (1+x).
    """
    weights = ne_weights(N, K)
    total = N**K
    poly: list[int] = []  # coefficients of P, lowest power first
    for _, w in weights:  # e = 1, 2, ..., E: P <- P*(1+x) + w_e
        poly = _times_one_plus_x(poly)
        poly[0] += w
    for _ in range(K - len(weights)):
        poly = _times_one_plus_x(poly)
    poly += [0, 0]  # P has degree K-1; t = K-1 and t = K read x^K and x^(K+1)
    return [((t, 1), (binomial(K, t + 1) * total - poly[t + 1], total * binomial(K, t))) for t in range(K + 1)]


def optimal_peak_points(N: int, K: int) -> list[tuple[Pair, Pair]]:
    worst = min(N, K)
    return [((t, 1), _delivery_rate(K, t, worst)) for t in range(K + 1)]


# --- curves: each takes (N, K, Ms) and returns the rates at every M ----------
#
# Per-curve work (operating points, hulls, the N_e weights) is done once per
# call, then every M is evaluated from it, in integers, into one Fraction.


def optimal_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Minimum average rate over uniform demands at each cache size M."""
    xs = _cache_parameters(N, K, Ms)
    return _fractions(lower_envelope(optimal_avg_points(N, K), xs))


def optimal_peak_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Minimum worst-demand rate at each cache size M."""
    xs = _cache_parameters(N, K, Ms)
    return _fractions(lower_envelope(optimal_peak_points(N, K), xs))


def _man_points(N: int, K: int) -> tuple[list, list]:
    """Per-integer-t points of the prior-art centralized scheme's two terms:
    coded delivery (K-t)/(t+1) and uncoded delivery E[distinct]*(1-t/K)."""
    mean = expected_distinct(N, K)
    a, b = mean.numerator, mean.denominator * K
    coded = [((t, 1), (K - t, t + 1)) for t in range(K + 1)]
    uncoded = [((t, 1), (a * (K - t), b)) for t in range(K + 1)]
    return coded, uncoded


def man_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Prior-art centralized average rate at each cache size M: the lower
    convex envelope of the per-integer-t values min{coded, uncoded}."""
    xs = _cache_parameters(N, K, Ms)
    coded, uncoded = _man_points(N, K)
    pts = [(t, _min(a, b)) for (t, a), (_, b) in zip(coded, uncoded)]
    return _fractions(lower_envelope(pts, xs))


def man_avg_minconv_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """The other interpolation of the prior-art centralized average rate:
    the pointwise min of the coded and uncoded terms' own envelopes."""
    xs = _cache_parameters(N, K, Ms)
    coded, uncoded = _man_points(N, K)
    return _fractions(map(_min, lower_envelope(coded, xs), lower_envelope(uncoded, xs)))


def dec_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Decentralized minimum average rate at each cache size M.

    With M = p/r, q = (N-M)/N = a/b in lowest terms and E = min(N, K),
    E[q^distinct] is one integer sum_e w_e * a^e * b^(E-e) over N^K * b^E,
    evaluated by Horner's rule in a/b. M = 0 degenerates to unicast of each
    distinct request.
    """
    sizes = _cache_sizes(N, Ms)
    weights = ne_weights(N, K)
    total = N**K
    rates = []
    for p, r in sizes:
        if p == 0:
            rates.append(expected_distinct(N, K))
            continue
        g = math.gcd(p, N * r)  # q in lowest terms keeps b^E short
        b = N * r // g
        a = b - p // g
        num, den = 0, 1  # Horner: acc <- (acc + w_e) * a/b for e = E..1
        for _, w in reversed(weights):
            num, den = (num + w * den) * a, den * b
        den *= total  # now E[q^distinct] = num / den, den = N^K * b^E
        rates.append(Fraction(a * (den - num), p // g * den))
    return rates


def dec_peak_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Decentralized minimum peak rate at each cache size M."""
    E = min(N, K)
    return [Fraction(E) if p == 0 else _dec_rate(N, p, r, E) for p, r in _cache_sizes(N, Ms)]


def man_dec_avg_curve(N: int, K: int, Ms: Iterable) -> list[Fraction]:
    """Prior-art decentralized average rate at each cache size M: the better
    of coded delivery and plain multicast of distinct requests, scaled by the
    uncached share."""
    sizes = _cache_sizes(N, Ms)
    mean = expected_distinct(N, K)
    rates = []
    for p, r in sizes:
        if p == 0:
            rates.append(mean)  # unicast of each distinct request; mean <= min(N, K)
            continue
        # coded = (N/M) * (1 - (1 - M/N)^K), with M/N = p/b
        b = N * r
        a = b - p
        coded = (b**K - a**K, p * b ** (K - 1))
        num, den = _min(coded, (mean.numerator, mean.denominator))
        rates.append(Fraction(a * num, b * den))
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
        # a/b < c/d as a*d < c*b (denominators are positive): integer
        # products, without building a Fraction per comparison
        ms = [(m.numerator, m.denominator) for m, _ in self.points]
        if any(c * b <= a * d for (a, b), (c, d) in zip(ms, ms[1:])):
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
    Ms = [M if isinstance(M, Fraction) else Fraction(M) for M in grid]
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
