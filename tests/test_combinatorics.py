import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachekit.combinatorics import (
    binomial,
    enumerate_subsets,
    lex_rank,
    lower_convex_envelope_many,
    lower_envelope,
)
from cachekit.model import ne_weights

from conftest import chord_envelope, oracle_ne_weights, subset_rank, surjection_counts


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
    of the tests' inclusion-exclusion `surjection_counts`."""
    return surjection_counts(universe, onto)[onto]


def onto_weight(universe, onto):
    """`ne_weights(onto, universe)` at e = onto: the maps from `universe`
    users onto all `onto` files, 0 when there are fewer users than files."""
    return dict(ne_weights(onto, universe)).get(onto, 0)


def brute_surjections(universe, onto):
    count = 0
    for f in itertools.product(range(onto), repeat=universe):
        if set(f) == set(range(onto)):
            count += 1
    return count


@pytest.mark.parametrize("universe,onto", [(3, 2), (2, 2), (4, 2), (4, 3), (5, 5), (5, 1)])
def test_surjection_count_brute_force(universe, onto):
    assert surjection_count(universe, onto) == brute_surjections(universe, onto)
    assert onto_weight(universe, onto) == brute_surjections(universe, onto)


def test_surjection_corner_cases():
    for count in (surjection_count, onto_weight):
        assert count(3, 2) == 6
        assert count(2, 2) == 2
        for K in range(1, 9):
            assert count(K, 1) == 1
        assert count(2, 3) == 0


@given(st.integers(1, 8), st.integers(1, 8))
def test_surjection_partition_of_all_maps(N, K):
    assert sum(binomial(N, e) * surjection_count(K, e) for e in range(N + 1)) == N**K
    assert ne_weights(N, K) == oracle_ne_weights(N, K)


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
    # the ranks `enumerate_subsets` and `lex_rank` give, the tests' rank
    # oracle and the lexicographic position all agree
    for K in range(13):
        for size in range(K + 1):
            subsets = enumerate_subsets(K, size)
            for rank, members in enumerate(itertools.combinations(range(1, K + 1), size)):
                assert subsets[rank].members == members and subsets[rank].rank == rank
                assert subset_rank(members, K) == rank
                assert lex_rank(members, K) == rank


def test_rank_validates_members():
    with pytest.raises(ValueError):
        subset_rank((2, 2), 4)
    with pytest.raises(ValueError):
        subset_rank((0, 1), 4)


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


def test_envelope_refuses_floats():
    with pytest.raises(TypeError, match="ints or Fractions"):
        envelope_at(((0, 1), (2, 0)), 0.5)
    with pytest.raises(TypeError, match="ints or Fractions"):
        envelope_at(((0, 1.0), (2, 0)), 1)
    with pytest.raises(TypeError, match="ints or Fractions"):
        envelope_at(((0.0, 1), (2, 0)), 1)


def test_envelope_needs_strictly_increasing_x():
    for pts in [((0, 1), (0, 2), (1, 0)), ((1, 1), (0, 2))]:
        with pytest.raises(ValueError, match="strictly increasing"):
            envelope_at(pts, 0)


def test_envelope_single_point_and_returned_pairs():
    point = (Fraction(-3, 2), Fraction(7, 3))
    assert lower_convex_envelope_many((point,), [point[0]] * 2) == [point[1]] * 2
    # the pair form: every value an unreduced (numerator, positive denominator)
    values = lower_envelope((((0, 1), (4, 2)), ((2, 1), (0, 1))), [(1, 1), (2, 4), (6, 3)])
    assert [Fraction(n, d) for n, d in values] == [1, Fraction(3, 2), 0]
    assert all(d > 0 for _, d in values)


@st.composite
def envelope_instances(draw):
    """Points with rational abscissas (negative ones too) and rational values,
    and an x inside their span."""
    n = draw(st.integers(2, 8))
    abscissa = st.builds(Fraction, st.integers(-120, 120), st.integers(1, 6))
    ts = sorted(draw(st.sets(abscissa, min_size=n, max_size=n)))
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


@settings(max_examples=50)
@given(envelope_instances(), st.lists(st.fractions(0, 1), max_size=10), st.data())
def test_envelope_many_any_order_matches_chord_oracle(case, lams, data):
    """Any order, repeats and every point's own abscissa (hull vertices and
    points above the hull alike) among the xs."""
    points, x = case
    lo, hi = points[0][0], points[-1][0]
    xs = [x, hi, lo] + [lo + lam * (hi - lo) for lam in lams] + [t for t, _ in points]
    xs = data.draw(st.permutations(xs + data.draw(st.lists(st.sampled_from(xs), max_size=6))))
    assert lower_convex_envelope_many(points, xs) == [chord_envelope(points, v) for v in xs]
    with pytest.raises(ValueError):
        lower_convex_envelope_many(points, [x, hi + 1])
    with pytest.raises(ValueError):
        lower_convex_envelope_many(points, [lo - Fraction(1, 7)])


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
