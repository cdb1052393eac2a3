"""Exactness gate for the rate curves.

Every scheme's curve must be `Fraction`-equal to an oracle that evaluates
the per-M formulas one M at a time: the N_e expectation through
`ne_distribution` and one `lower_convex_envelope` call per point.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cachekit
from cachekit import delivery_rate_value, lower_convex_envelope
from cachekit.rate_analysis import SCHEMES, rate_curve

from conftest import CURVE_CASES

# --- oracle: the per-M formulas -------------------------------------------------

# The distribution and the optimal-avg points are memoized per (N, K) only to
# keep the oracle's run time down; every M still builds its own envelope.
ne_distribution = functools.lru_cache(maxsize=None)(cachekit.ne_distribution)


def expected_distinct(N, K):
    return ne_distribution(N, K).mean()


def _as_fraction(M, N):
    M = Fraction(M)
    if not 0 <= M <= N:
        raise ValueError(f"M must be in [0, {N}], got {M}")
    return M


def _cache_parameter(N, K, M):
    return Fraction(K) * _as_fraction(M, N) / N


@functools.lru_cache(maxsize=None)
def optimal_avg_points(N, K):
    dist = ne_distribution(N, K)
    return [(t, dist.expect(lambda e: delivery_rate_value(K, t, e))) for t in range(K + 1)]


def optimal_peak_points(N, K):
    worst = min(N, K)
    return [(t, delivery_rate_value(K, t, worst)) for t in range(K + 1)]


def avg_rate_optimal(N, K, M):
    return lower_convex_envelope(optimal_avg_points(N, K), _cache_parameter(N, K, M))


def peak_rate_optimal(N, K, M):
    return lower_convex_envelope(optimal_peak_points(N, K), _cache_parameter(N, K, M))


def baseline_centralized_avg(N, K, M, method="envelope-of-min"):
    x = _cache_parameter(N, K, M)
    mean = expected_distinct(N, K)
    coded = [(t, Fraction(K - t, t + 1)) for t in range(K + 1)]
    uncoded = [(t, mean * (1 - Fraction(t, K))) for t in range(K + 1)]
    if method == "envelope-of-min":
        pts = [(t, min(a[1], b[1])) for t, (a, b) in enumerate(zip(coded, uncoded))]
        return lower_convex_envelope(pts, x)
    if method == "min-of-envelopes":
        return min(lower_convex_envelope(coded, x), lower_convex_envelope(uncoded, x))
    raise ValueError(f"unknown method {method!r}")


def _dec_integrand(N, M, e):
    return Fraction(N - M, M) * (1 - (Fraction(N - M, N)) ** e)


def dec_avg_rate(N, M, K):
    M = _as_fraction(M, N)
    dist = ne_distribution(N, K)
    if M == 0:
        return dist.mean()
    return dist.expect(lambda e: _dec_integrand(N, M, e))


def dec_peak_rate(N, M, K):
    M = _as_fraction(M, N)
    if M == 0:
        return Fraction(min(N, K))
    return _dec_integrand(N, M, min(N, K))


def baseline_decentralized_avg(N, M, K):
    M = _as_fraction(M, N)
    mean = expected_distinct(N, K)
    if M == 0:
        return min(Fraction(K), mean)
    coded = Fraction(N, M) * (1 - (1 - Fraction(M, N)) ** K)
    return Fraction(N - M, N) * min(coded, mean)


ORACLE = {
    "optimal-avg": avg_rate_optimal,
    "optimal-peak": peak_rate_optimal,
    "man-avg": baseline_centralized_avg,
    "man-avg-minconv": lambda N, K, M: baseline_centralized_avg(N, K, M, method="min-of-envelopes"),
    "dec-avg": lambda N, K, M: dec_avg_rate(N, M, K),
    "dec-peak": lambda N, K, M: dec_peak_rate(N, M, K),
    "man-dec-avg": lambda N, K, M: baseline_decentralized_avg(N, M, K),
}

# the package's single-M public functions, by scheme
SINGLE_M = {
    "optimal-avg": cachekit.avg_rate_optimal,
    "optimal-peak": cachekit.peak_rate_optimal,
    "man-avg": cachekit.baseline_centralized_avg,
    "man-avg-minconv": lambda N, K, M: cachekit.baseline_centralized_avg(N, K, M, method="min-of-envelopes"),
    "dec-avg": lambda N, K, M: cachekit.dec_avg_rate(N, M, K),
    "dec-peak": lambda N, K, M: cachekit.dec_peak_rate(N, M, K),
    "man-dec-avg": lambda N, K, M: cachekit.baseline_decentralized_avg(N, M, K),
}

# --- the gate ------------------------------------------------------------------


def assert_curves_exact(N, K, grid):
    for scheme in SCHEMES:
        curve = rate_curve(scheme, N, K, grid)
        expected = [ORACLE[scheme](N, K, M) for M in grid]
        assert [m for m, _ in curve.points] == grid, scheme
        assert [r for _, r in curve.points] == expected, (scheme, N, K)
        assert all(isinstance(r, Fraction) for _, r in curve.points), scheme


def test_oracle_covers_every_scheme():
    assert set(ORACLE) == set(SINGLE_M) == set(SCHEMES)


@pytest.mark.parametrize("N,K", CURVE_CASES)
def test_curve_cases_grid(N, K):
    assert_curves_exact(N, K, [Fraction(j * N, 2 * K) for j in range(2 * K + 1)])


@pytest.mark.parametrize("N", [16, 517, 4111])
def test_compare_grid(N):
    """`compare --k 16 --grid 0:N:N/40`, the command the tables benchmark times."""
    assert_curves_exact(N, 16, [Fraction(N * i, 40) for i in range(41)])


@st.composite
def unsorted_grids(draw):
    N = draw(st.integers(1, 6))
    K = draw(st.integers(1, 6))
    M = st.one_of(st.just(Fraction(0)), st.just(Fraction(N)), st.fractions(0, N, max_denominator=12))
    return N, K, draw(st.lists(M, min_size=1, max_size=8))


@settings(max_examples=30, deadline=None)
@given(unsorted_grids())
@example((1, 1, [Fraction(1), Fraction(0), Fraction(1, 2)]))
@example((1, 4, [Fraction(1, 3), Fraction(1)]))
@example((5, 1, [Fraction(5), Fraction(0), Fraction(5, 2), Fraction(5, 2)]))
def test_unsorted_grids(case):
    """The curve functions take any grid order, repeats included; the
    single-M public functions agree at every point."""
    N, K, grid = case
    for scheme, fn in SCHEMES.items():
        assert fn(N, K, grid) == [ORACLE[scheme](N, K, M) for M in grid], (scheme, N, K, grid)
        assert [SINGLE_M[scheme](N, K, M) for M in grid] == fn(N, K, grid), (scheme, N, K, grid)
    assert_curves_exact(N, K, sorted(set(grid)))
