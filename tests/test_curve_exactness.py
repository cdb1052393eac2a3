"""Exactness gate for the rate curves.

Every scheme's curve must be `Fraction`-equal to an oracle that evaluates
the per-M formulas one M at a time, in `Fraction`s: the N_e expectation
through the distribution of the number of distinct files, its weights by
inclusion-exclusion, and a chord envelope per point. None of it calls the
library's rate code (`conftest.chord_envelope`, `conftest.oracle_ne_weights`).
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachekit import rate_analysis
from cachekit.model import ne_weights
from cachekit.rate_analysis import SCHEMES, rate_curve

from conftest import CURVE_CASES, chord_envelope, oracle_ne_weights

# --- oracle: the per-M formulas -------------------------------------------------

# The distribution and the optimal-avg points are memoized per (N, K) only to
# keep the oracle's run time down; every M still builds its own envelope.
@functools.lru_cache(maxsize=None)
def ne_distribution(N, K):
    """{e: P(distinct = e)} = C(N,e) * surjections(K -> e) / N^K, exact."""
    total = N**K
    dist = {e: Fraction(w, total) for e, w in oracle_ne_weights(N, K)}
    assert sum(dist.values()) == 1, (N, K)
    return dist


def expect(dist, fn):
    """Exact expectation of fn(e) over the distribution."""
    return sum((p * fn(e) for e, p in dist.items()), Fraction(0))


def delivery_rate_value(K, t, e):
    return Fraction(math.comb(K, t + 1) - math.comb(K - e, t + 1), math.comb(K, t))


def expected_distinct(N, K):
    return expect(ne_distribution(N, K), lambda e: e)


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
    return [(t, expect(dist, lambda e: delivery_rate_value(K, t, e))) for t in range(K + 1)]


def optimal_peak_points(N, K):
    worst = min(N, K)
    return [(t, delivery_rate_value(K, t, worst)) for t in range(K + 1)]


def optimal_avg(N, K, M):
    return chord_envelope(optimal_avg_points(N, K), _cache_parameter(N, K, M))


def optimal_peak(N, K, M):
    return chord_envelope(optimal_peak_points(N, K), _cache_parameter(N, K, M))


def _man_terms(N, K):
    mean = expected_distinct(N, K)
    coded = [(t, Fraction(K - t, t + 1)) for t in range(K + 1)]
    uncoded = [(t, mean * (1 - Fraction(t, K))) for t in range(K + 1)]
    return coded, uncoded


def man_avg(N, K, M):
    """The envelope of the per-t minimum of the two terms."""
    coded, uncoded = _man_terms(N, K)
    pts = [(t, min(a[1], b[1])) for t, (a, b) in enumerate(zip(coded, uncoded))]
    return chord_envelope(pts, _cache_parameter(N, K, M))


def man_avg_minconv(N, K, M):
    """The minimum of the two terms' own envelopes."""
    x = _cache_parameter(N, K, M)
    coded, uncoded = _man_terms(N, K)
    return min(chord_envelope(coded, x), chord_envelope(uncoded, x))


def _dec_integrand(N, M, e):
    return Fraction(N - M, M) * (1 - (Fraction(N - M, N)) ** e)


def dec_avg(N, K, M):
    M = _as_fraction(M, N)
    if M == 0:
        return expected_distinct(N, K)
    return expect(ne_distribution(N, K), lambda e: _dec_integrand(N, M, e))


def dec_peak(N, K, M):
    M = _as_fraction(M, N)
    if M == 0:
        return Fraction(min(N, K))
    return _dec_integrand(N, M, min(N, K))


def man_dec_avg(N, K, M):
    M = _as_fraction(M, N)
    mean = expected_distinct(N, K)
    if M == 0:
        return min(Fraction(K), mean)
    coded = Fraction(N, M) * (1 - (1 - Fraction(M, N)) ** K)
    return Fraction(N - M, N) * min(coded, mean)


ORACLE = {
    "optimal-avg": optimal_avg,
    "optimal-peak": optimal_peak,
    "man-avg": man_avg,
    "man-avg-minconv": man_avg_minconv,
    "dec-avg": dec_avg,
    "dec-peak": dec_peak,
    "man-dec-avg": man_dec_avg,
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
    assert set(ORACLE) == set(SCHEMES)


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
    """The curve functions take any grid order, repeats included; a
    one-point call agrees with the grid call at every point."""
    N, K, grid = case
    for scheme, fn in SCHEMES.items():
        assert fn(N, K, grid) == [ORACLE[scheme](N, K, M) for M in grid], (scheme, N, K, grid)
        assert [fn(N, K, [M])[0] for M in grid] == fn(N, K, grid), (scheme, N, K, grid)
    assert_curves_exact(N, K, sorted(set(grid)))


# --- large K: the weights and the optimal-avg points ---------------------------

# K <= 150 keeps the oracle's inclusion-exclusion fast; N < K, N > K, N = K
# and one file or one user all appear
LARGE_K_CASES = [(150, 150), (2, 150), (1, 150), (150, 3), (150, 1), (97, 120)]


@pytest.mark.parametrize("N,K", LARGE_K_CASES)
def test_large_k_weights_and_points(N, K):
    weights = oracle_ne_weights(N, K)
    assert ne_weights(N, K) == weights
    total = N**K
    expected = [((t, 1), Fraction(sum(w * (math.comb(K, t + 1) - math.comb(K - e, t + 1)) for e, w in weights),
                                  total * math.comb(K, t)))
                for t in range(K + 1)]
    points = rate_analysis.optimal_avg_points(N, K)
    assert [(x, Fraction(*y)) for x, y in points] == expected
    assert all(d > 0 for _, (_, d) in points)


# --- degenerate corners ----------------------------------------------------------


@pytest.mark.parametrize("N,K", [(1, 1), (1, 5), (5, 1), (2, 5), (5, 2)])
def test_degenerate_corners(N, K):
    """M = 0, M = N, one file and one user, with N < K and N > K: every scheme
    matches the oracle; at M = N nothing is sent, and at M = 0 the averages
    are E[distinct] and the peaks min(N, K)."""
    grid = [Fraction(0), Fraction(N, 3), Fraction(N)]
    assert_curves_exact(N, K, grid)
    mean = expected_distinct(N, K)
    for scheme, fn in SCHEMES.items():
        at_zero, _, at_full = fn(N, K, grid)
        assert at_full == 0, scheme
        assert at_zero == (min(N, K) if scheme.endswith("-peak") else mean), scheme
        if 1 in (N, K):
            assert mean == 1
