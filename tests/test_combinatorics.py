import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachekit.combinatorics import (
    binomial,
    enumerate_subsets,
    lower_convex_envelope_many,
    surjection_counts,
)

from conftest import subset_rank


def pascal_table(n_max):
    """Independent binomial oracle built purely from the addition recurrence."""
    table = [[1]]
    for n in range(1, n_max + 1):
        prev = table[-1]
        row = [1] + [prev[k - 1] + (prev[k] if k < n else 0) for k in range(1, n + 1)]
        table.append(row)
    return table


def test_binomial_known_values():
    assert binomial(6, 3) == 20
    assert binomial(3, 4) == 0
    assert binomial(30, 2) == 435
    assert binomial(0, 0) == 1


def test_binomial_matches_pascal_recurrence():
    table = pascal_table(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]


def test_binomial_negative_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


@given(st.integers(1, 30), st.integers(1, 30))
def test_pascal_identity(n, k):
    if k <= n:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def surjection_count(universe, onto):
    """Surjections from a `universe`-set onto an `onto`-set: the last entry
    of `surjection_counts`."""
    return surjection_counts(universe, onto)[onto]


def brute_surjections(universe, onto):
    count = 0
    for f in itertools.product(range(onto), repeat=universe):
        if set(f) == set(range(onto)):
            count += 1
    return count


@pytest.mark.parametrize("universe,onto", [(3, 2), (2, 2), (4, 2), (4, 3), (5, 5), (5, 1)])
def test_surjection_count_brute_force(universe, onto):
    assert surjection_count(universe, onto) == brute_surjections(universe, onto)


def test_surjection_corner_cases():
    assert surjection_count(3, 2) == 6
    assert surjection_count(2, 2) == 2
    for K in range(1, 9):
        assert surjection_count(K, 1) == 1
    assert surjection_count(2, 3) == 0


@given(st.integers(1, 8), st.integers(1, 8))
def test_surjection_partition_of_all_maps(N, K):
    assert sum(binomial(N, e) * surjection_count(K, e) for e in range(N + 1)) == N**K


def test_enumerate_subsets_examples():
    pairs = enumerate_subsets(3, 2)
    assert [s.members for s in pairs] == [(1, 2), (1, 3), (2, 3)]
    assert [s.rank for s in pairs] == [0, 1, 2]
    empty = enumerate_subsets(4, 0)
    assert len(empty) == 1 and empty[0].members == ()
    assert len(enumerate_subsets(6, 3)) == binomial(6, 3) == 20


def test_enumerate_subsets_bad_size():
    with pytest.raises(ValueError):
        enumerate_subsets(3, 4)
    with pytest.raises(ValueError):
        enumerate_subsets(3, -1)


def test_rank_unrank_roundtrip_exhaustive():
    # the ranks `enumerate_subsets` gives, the tests' rank oracle and the
    # lexicographic position all agree
    for K in range(13):
        for size in range(K + 1):
            subsets = enumerate_subsets(K, size)
            for rank, members in enumerate(itertools.combinations(range(1, K + 1), size)):
                assert subsets[rank].members == members and subsets[rank].rank == rank
                assert subset_rank(members, K) == rank


def test_rank_validates_members():
    with pytest.raises(ValueError):
        subset_rank((2, 2), 4)
    with pytest.raises(ValueError):
        subset_rank((0, 1), 4)


def chord_envelope(points, x):
    """Envelope oracle: the LP optimum sits on a pair of points, so take the
    minimum over all chords (and exact points) that straddle x."""
    best = None
    for (t1, v1), (t2, v2) in itertools.combinations_with_replacement(points, 2):
        if not t1 <= x <= t2:
            continue
        if t1 == t2:
            value = v1
        else:
            value = v1 + (v2 - v1) * Fraction(x - t1) / Fraction(t2 - t1)
        if best is None or value < best:
            best = value
    return best


def envelope_at(points, x):
    return lower_convex_envelope_many(points, [x])[0]


def test_envelope_convex_points_interpolates():
    pts = ((0, Fraction(2)), (1, Fraction(1, 2)), (2, Fraction(0)))
    assert envelope_at(pts, Fraction(1, 2)) == Fraction(5, 4)
    for t, v in pts:
        assert envelope_at(pts, t) == v


def test_envelope_skips_dominated_point():
    pts = ((0, 3), (1, 3), (2, 0))
    assert envelope_at(pts, 1) == Fraction(3, 2)
    assert envelope_at(pts, 1) == chord_envelope(pts, 1)


def test_envelope_domain_checked():
    pts = ((0, 1), (2, 0))
    with pytest.raises(ValueError):
        envelope_at(pts, -1)
    with pytest.raises(ValueError):
        envelope_at(pts, Fraction(5, 2))
    with pytest.raises(ValueError):
        envelope_at((), 0)


@st.composite
def envelope_instances(draw):
    n = draw(st.integers(2, 8))
    ts = sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n)))
    values = [
        Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 8)))
        for _ in ts
    ]
    lam = Fraction(draw(st.integers(0, 64)), 64)
    x = ts[0] + lam * (ts[-1] - ts[0])
    return tuple(zip(ts, values)), x


@settings(max_examples=200)
@given(envelope_instances())
def test_envelope_matches_chord_oracle(case):
    points, x = case
    assert envelope_at(points, x) == chord_envelope(points, x)


@settings(max_examples=25)
@given(envelope_instances(), st.lists(st.fractions(0, 1), max_size=10))
def test_envelope_many_any_order_matches_chord_oracle(case, lams):
    points, x = case
    lo, hi = points[0][0], points[-1][0]
    xs = [x, hi, lo] + [lo + lam * (hi - lo) for lam in lams]
    assert lower_convex_envelope_many(points, xs) == [chord_envelope(points, v) for v in xs]
    with pytest.raises(ValueError):
        lower_convex_envelope_many(points, [x, hi + 1])


def test_batch_rate_sequence_convex_and_touching():
    # the per-type delivery rates at integer t are non-increasing and convex,
    # so the envelope passes through every integer point
    for K in range(1, 13):
        for n_distinct in range(1, K + 1):
            seq = [
                Fraction(binomial(K, t + 1) - binomial(K - n_distinct, t + 1), binomial(K, t))
                for t in range(K + 1)
            ]
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            for t in range(1, K):
                assert seq[t - 1] + seq[t + 1] >= 2 * seq[t]
            pts = tuple(enumerate(seq))
            for t in range(K + 1):
                assert envelope_at(pts, t) == seq[t]
