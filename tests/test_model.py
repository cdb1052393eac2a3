import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cachekit import (
    all_demands,
    batch_placement,
    demand_stats,
    enumerate_types,
    expected_distinct,
    load_placement,
    make_database,
    ne_weights,
    save_placement,
)
from cachekit.decentralized import random_placement
from cachekit.model import DemandStats, PlacementParseError, count_types, validate_demand


class TestDatabase:
    def test_deterministic_given_seed(self):
        a = make_database(1, 8, seed=7)
        b = make_database(1, 8, seed=7)
        assert np.array_equal(a.bits, b.bits)
        c = make_database(1, 8, seed=8)
        assert not np.array_equal(a.bits, c.bits)

    def test_shape(self):
        db = make_database(3, 15, seed=0)
        assert db.bits.shape == (3, 15)
        assert db.bits.dtype == np.uint8
        assert set(np.unique(db.bits)) <= {0, 1}

    def test_fair_coin_marginal(self):
        db = make_database(2, 10**5, seed=123)
        assert 0.49 <= db.bits.mean() <= 0.51

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_database(0, 10, seed=0)
        with pytest.raises(ValueError):
            make_database(2, 0, seed=0)


class TestDemandStats:
    def test_worked_example(self):
        st_ = demand_stats((1, 1, 2, 3), N=4)
        assert st_.counts == (2, 1, 1, 0)
        assert st_.distinct == 3

    def test_single_file(self):
        st_ = demand_stats((1,) * 5, N=3)
        assert st_.counts == (5, 0, 0)
        assert st_.distinct == 1

    def test_all_distinct(self):
        st_ = demand_stats((1, 2, 3), N=3)
        assert st_.counts == (1, 1, 1)
        assert st_.distinct == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            demand_stats((0, 1), N=2)
        with pytest.raises(ValueError):
            demand_stats((1, 3), N=2)
        with pytest.raises(ValueError):
            validate_demand((), N=2)
        with pytest.raises(ValueError):
            DemandStats((1, 2, 0), 2)  # not sorted descending
        # entries that are not integers are refused, not truncated
        for bad in [(1.5, 2), ("1", 2), (1, 2.0)]:
            with pytest.raises(ValueError, match="integers"):
                validate_demand(bad, N=2)
        assert validate_demand((np.int64(1), np.uint8(2)), N=2) == (1, 2)
        assert all(type(x) is int for x in validate_demand(np.array([2, 1]), N=2))


class TestTypes:
    def test_four_by_four(self):
        got = [t.counts for t in enumerate_types(4, 4)]
        assert got == [
            (4, 0, 0, 0),
            (3, 1, 0, 0),
            (2, 2, 0, 0),
            (2, 1, 1, 0),
            (1, 1, 1, 1),
        ]

    def test_single_file(self):
        assert [t.counts for t in enumerate_types(1, 6)] == [(6,)]

    def test_three_files_two_users(self):
        assert [t.counts for t in enumerate_types(3, 2)] == [(2, 0, 0), (1, 1, 0)]

    def test_count_matches_enumeration(self):
        for N in range(1, 10):
            for K in range(1, 13):
                assert count_types(N, K) == len(enumerate_types(N, K)), (N, K)
        # p(K) once N >= K: p(20) = 627, p(45) = 89,134; never enumerated here
        assert count_types(25, 20) == 627
        assert count_types(45, 45) == 89_134
        with pytest.raises(ValueError):
            count_types(0, 3)

    @staticmethod
    def type_size(stats, K):
        """Number of demands of a type: which file carries each count
        (equal counts, zeros included, collapse), then which users request
        what (multinomial)."""
        N = len(stats.counts)
        if sum(stats.counts) != K:
            raise ValueError("counts must sum to K")
        file_assignments = math.factorial(N)
        for c in set(stats.counts):
            file_assignments //= math.factorial(stats.counts.count(c))
        user_assignments = math.factorial(K)
        for c in stats.counts:
            user_assignments //= math.factorial(c)
        return file_assignments * user_assignments

    @pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 4), (4, 3), (3, 5), (6, 6)])
    def test_grouping_demands_reproduces_types(self, N, K):
        groups = defaultdict(list)
        for d in all_demands(N, K):
            groups[demand_stats(d, N).counts].append(d)
        types = enumerate_types(N, K)
        assert set(groups) == {t.counts for t in types}
        for t in types:
            assert len(groups[t.counts]) == self.type_size(t, K)
        assert sum(map(len, groups.values())) == N**K


class TestNeDistribution:
    """`ne_weights`: the number of demands with each number of distinct files."""

    def test_examples(self):
        assert ne_weights(2, 2) == ((1, 2), (2, 2))
        assert ne_weights(5, 1) == ((1, 5),)
        assert ne_weights(3, 2) == ((1, 3), (2, 6))

    @pytest.mark.parametrize("N,K", [(2, 3), (3, 3), (4, 2), (2, 6), (5, 4), (6, 6)])
    def test_matches_exhaustive_histogram(self, N, K):
        hist = Counter(len(set(d)) for d in all_demands(N, K))
        assert dict(ne_weights(N, K)) == hist
        assert sum(w for _, w in ne_weights(N, K)) == N**K

    def test_curves_of_one_comparison_share_the_weights(self):
        from cachekit import rate_curve

        ne_weights.cache_clear()
        grid = [Fraction(j, 4) for j in range(13)]
        for label in ("optimal-avg", "man-avg", "dec-avg", "man-dec-avg"):
            rate_curve(label, 3, 7, grid)
        assert ne_weights.cache_info().misses == 1

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_mean_matches_occupancy_identity(self, N, K):
        expected = N * (1 - Fraction(N - 1, N) ** K)
        assert expected_distinct(N, K) == expected  # exact, hence within 1e-12


class TestPlacementFile:
    def test_round_trip_batch(self, tmp_path):
        placement = batch_placement(N=3, K=4, t=2, F=12)
        path = tmp_path / "batch.placement"
        save_placement(path, placement, N=3, F=12, M=Fraction(3, 2))
        loaded, N, F, M = load_placement(path)
        assert (N, F, M) == (3, 12, Fraction(3, 2))
        assert loaded.K == 4
        assert loaded.codes.dtype == placement.codes.dtype and not loaded.codes.flags.writeable
        assert np.array_equal(loaded.codes, placement.codes)

    def test_round_trip_random(self, tmp_path):
        placement = random_placement(N=2, K=3, M=1, F=40, seed=5)
        path = tmp_path / "random.placement"
        save_placement(path, placement, N=2, F=40, M=1)
        loaded, N, F, M = load_placement(path)
        assert np.array_equal(loaded.codes, placement.codes)
        assert M == 1

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.placement"
        path.write_text("2 2 4 1\n1 1:0 1:3\n2 9:9\n")
        with pytest.raises(PlacementParseError) as err:
            load_placement(path)
        assert "line 3" in str(err.value)

    def test_budget_enforced(self, tmp_path):
        path = tmp_path / "greedy.placement"
        # M=1, F=4: budget is 4 bits, user 1 lists 5
        path.write_text("2 2 4 1\n1 1:0 1:1 1:2 1:3 2:0\n2\n")
        with pytest.raises(PlacementParseError) as err:
            load_placement(path)
        assert "more than" in str(err.value)

    def test_lines_after_users_rejected(self, tmp_path):
        path = tmp_path / "long.placement"
        path.write_text("2 2 4 1\n1 1:0\n2\n\n3 1:1\n")
        with pytest.raises(PlacementParseError) as err:
            load_placement(path)
        assert "line 5" in str(err.value)
        path.write_text("2 2 4 1\n1 1:0\n2\n\n  \n")  # trailing blank lines are fine
        assert load_placement(path)[0].cached_bits(1) == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "short.placement"
        for header in ("3 2\n", "2 2 4 1/0\n"):
            path.write_text(header)
            with pytest.raises(PlacementParseError) as err:
                load_placement(path)
            assert "line 1" in str(err.value)


def test_cache_views_refuse_users_outside_1_to_k():
    # uint8 codes have spare bits: user 7 of 5 used to cache nothing, user 0
    # raised a negative shift count and user 9 an OverflowError
    placement = random_placement(2, 5, 1, 20, seed=1)
    for bad in (0, 6, 7, 9, -1):
        for call in (lambda: placement.cached(bad), lambda: placement.cached_bits(bad),
                     lambda: placement.caches([1, bad, 2])):
            with pytest.raises(ValueError, match=f"user {bad} is not in 1..5"):
                call()
    assert placement.caches([]).shape == (0, 2, 20)
    assert sum(placement.cached_bits(k) for k in range(1, 6)) == 5 * 2 * 10


def test_cached_pairs_sorted_and_consistent():
    placement = random_placement(N=2, K=2, M=1, F=16, seed=9)
    for k in (1, 2):
        pairs = placement.cached_pairs(k)
        assert pairs == sorted(pairs)
        assert len(pairs) == placement.cached_bits(k)
        assert all(type(p) is tuple and len(p) == 2 for p in pairs)
        assert all(type(i) is int and type(j) is int for i, j in pairs)
        for i, j in pairs:
            assert placement.cached(k)[i - 1, j]
