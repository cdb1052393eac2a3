from collections import defaultdict
from fractions import Fraction

import pytest

from cachekit import (
    CacheProfile,
    all_demands,
    batch_placement,
    binomial,
    converse_bound,
    delivered_rate,
    delivery_rate_value,
    demand_stats,
    encode_delivery,
    enumerate_types,
    expected_distinct,
    make_database,
    rate_curve,
)
from cachekit import decentralized
from cachekit.rate_analysis import SCHEMES, RateCurve, write_curves_csv


def rate_at(scheme, N, K, M):
    """One point of a scheme's curve."""
    return SCHEMES[scheme](N, K, [M])[0]


class TestOptimalAverage:
    def test_thirty_by_thirty_anchor(self):
        assert abs(float(rate_at("optimal-avg", 30, 30, 1)) - 12.67) <= 0.005

    def test_full_cache_is_free(self):
        assert rate_at("optimal-avg", 4, 6, 4) == 0
        assert rate_at("optimal-peak", 4, 6, 4) == 0

    def test_two_by_two(self):
        assert rate_at("optimal-avg", 2, 2, 1) == Fraction(1, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rate_at("optimal-avg", 2, 2, -1)
        with pytest.raises(ValueError):
            rate_at("optimal-avg", 2, 2, Fraction(5, 2))

    @pytest.mark.parametrize("N,K", [(2, 3), (3, 4), (2, 4), (4, 4)])
    def test_equals_exhaustive_average_and_max(self, N, K):
        for t in range(K + 1):
            F = 2 * binomial(K, t)
            db = make_database(N, F, seed=t + 1)
            placement = batch_placement(N, K, t, F)
            rates = [
                delivered_rate(encode_delivery(db, placement, d), F) for d in all_demands(N, K)
            ]
            M = Fraction(t * N, K)
            assert sum(rates, Fraction(0)) / len(rates) == rate_at("optimal-avg", N, K, M)
            assert max(rates) == rate_at("optimal-peak", N, K, M)


class TestOptimalPeak:
    def test_no_cache_is_distinct_files(self):
        assert rate_at("optimal-peak", 3, 5, 0) == 3
        assert rate_at("optimal-peak", 7, 4, 0) == 4

    def test_memory_sharing_midpoint(self):
        assert rate_at("optimal-peak", 2, 2, Fraction(1, 2)) == Fraction(5, 4)

    def test_more_files_than_users_closed_form(self):
        for N, K in [(5, 4), (8, 3), (4, 4)]:
            for t in range(K + 1):
                assert rate_at("optimal-peak", N, K, Fraction(t * N, K)) == Fraction(K - t, t + 1)


class TestCentralizedBaseline:
    def test_thirty_by_thirty_anchor(self):
        assert abs(float(rate_at("man-avg", 30, 30, 1)) - 14.12) <= 0.15

    def test_alternate_interpolation_differs(self):
        default = rate_at("man-avg", 30, 30, 1)
        alt = rate_at("man-avg-minconv", 30, 30, 1)
        assert alt == Fraction(29, 2)
        assert default < alt

    def test_corners(self):
        assert rate_at("man-avg", 3, 4, 3) == 0
        mean = expected_distinct(3, 4)
        assert rate_at("man-avg", 3, 4, 0) == min(Fraction(4), mean)


class TestDecentralizedFormulas:
    def test_examples(self):
        assert rate_at("dec-avg", 2, 2, 1) == Fraction(5, 8)
        assert rate_at("dec-peak", 2, 2, 1) == Fraction(3, 4)
        assert rate_at("man-dec-avg", 2, 2, 1) == Fraction(3, 4)

    def test_full_cache(self):
        assert rate_at("dec-avg", 3, 5, 3) == 0
        assert rate_at("dec-peak", 3, 5, 3) == 0
        assert rate_at("man-dec-avg", 3, 5, 3) == 0

    def test_no_cache(self):
        assert rate_at("dec-avg", 3, 4, 0) == expected_distinct(3, 4)
        assert rate_at("dec-peak", 3, 4, 0) == 3
        assert rate_at("dec-peak", 5, 3, 0) == 3

    def test_matches_brute_force_expectation(self):
        for N, K in [(2, 3), (3, 3), (3, 5)]:
            M = Fraction(1)
            integrand = {
                e: Fraction(N - M, M) * (1 - Fraction(N - M, N) ** e) for e in range(1, N + 1)
            }
            total = sum(integrand[len(set(d))] for d in all_demands(N, K))
            assert rate_at("dec-avg", N, K, M) == total / N**K

    def test_rate_independent_of_extra_users(self):
        # demands with the same distinct count cost the same regardless of how
        # many users the system has: measured rates for n_e = 2 agree across
        # K = 2, 3, 4 with the K-free predicted value 3/4
        N, M, F = 2, 1, 30_000
        predicted = 3 / 4
        for K, d in [(2, (1, 2)), (3, (1, 2, 1)), (4, (1, 2, 1, 2))]:
            db = make_database(N, F, seed=40 + K)
            placement = decentralized.random_placement(N, K, M, F, seed=50 + K)
            part = decentralized.level_partition(placement, N, F)
            measured = float(
                decentralized.delivered_rate(decentralized.encode_delivery(db, part, d), F)
            )
            assert abs(measured - predicted) / predicted < 0.05

    def test_peak_matches_worst_demand_simulation(self):
        N, K, M, F = 2, 2, 1, 40_000
        db = make_database(N, F, seed=15)
        placement = decentralized.random_placement(N, K, M, F, seed=16)
        part = decentralized.level_partition(placement, N, F)
        worst = max(
            float(decentralized.delivered_rate(decentralized.encode_delivery(db, part, d), F))
            for d in all_demands(N, K)
        )
        assert abs(worst - 3 / 4) / (3 / 4) < 0.05

    def test_baseline_dominates_everywhere(self):
        for N, K in [(2, 2), (3, 4), (30, 30)]:
            for j in range(2 * K + 1):
                M = Fraction(j * N, 2 * K)
                assert rate_at("man-dec-avg", N, K, M) >= rate_at("dec-avg", N, K, M)
        assert rate_at("man-dec-avg", 2, 2, 1) > rate_at("dec-avg", 2, 2, 1)


class TestConverseBound:
    def test_batch_profile_single_term(self):
        N, K, t, F = 3, 4, 2, 12
        placement = batch_placement(N, K, t, F)
        profile = CacheProfile.from_placement(placement)
        assert profile.coverage == (0, 0, N * F, 0, 0)
        for stats in enumerate_types(N, K):
            expected = delivery_rate_value(K, t, stats.distinct) - Fraction(1, F)
            assert converse_bound(profile, stats, K, F, eps=0) == expected

    def test_empty_profile_gives_distinct_count(self):
        N, K, F = 3, 4, 100
        profile = CacheProfile((N * F, 0, 0, 0, 0))
        for stats in enumerate_types(N, K):
            assert converse_bound(profile, stats, K, F) == stats.distinct - Fraction(1, F)

    def test_rejects_wrong_totals(self):
        stats = demand_stats((1, 2, 1), 3)
        with pytest.raises(ValueError, match="covers"):
            converse_bound(CacheProfile((5, 0, 0, 0)), stats, K=3, F=10)
        with pytest.raises(ValueError, match="entries"):
            converse_bound(CacheProfile((30, 0, 0)), stats, K=3, F=10)

    def test_eps_penalty(self):
        N, K, F = 2, 2, 10
        profile = CacheProfile((N * F, 0, 0))
        stats = demand_stats((1, 2), 2)
        zero = converse_bound(profile, stats, K, F, eps=0)
        assert converse_bound(profile, stats, K, F, eps=Fraction(1, 100)) == zero - 4 * Fraction(1, 100)

    def test_sandwich_on_random_placements(self):
        N, K, F, M = 3, 4, 120, 1
        for seed in range(20):
            placement = decentralized.random_placement(N, K, M, F, seed=seed)
            profile = CacheProfile.from_placement(placement)
            db = make_database(N, F, seed=1000 + seed)
            part = decentralized.level_partition(placement, N, F)
            per_type = defaultdict(list)
            for d in all_demands(N, K):
                rate = decentralized.delivered_rate(decentralized.encode_delivery(db, part, d), F)
                per_type[demand_stats(d, N).counts].append(rate)
            for stats in enumerate_types(N, K):
                bound = converse_bound(profile, stats, K, F, eps=0)
                achieved = sum(per_type[stats.counts], Fraction(0)) / len(per_type[stats.counts])
                assert bound <= achieved


class TestCurves:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            rate_curve("optimal", 2, 2, [0, 1, 2])

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            rate_curve("optimal-avg", 2, 2, [0, 0, 1])

    def test_curve_points_strictly_increase_in_m(self):
        # compared by integer cross-products: 3/5 < 2/3 though 3 > 2
        R = Fraction(1)
        RateCurve("x", 2, 2, ((Fraction(0), R), (Fraction(3, 5), R), (Fraction(2, 3), R), (Fraction(2), R)))
        for ms in ([Fraction(2, 3), Fraction(3, 5)], [Fraction(1, 2), Fraction(2, 4)], [0, Fraction(5, 7), 0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                RateCurve("x", 2, 2, tuple((M, R) for M in ms))

    def test_monotone_and_dominance(self):
        N, K = 4, 6
        grid = [Fraction(j, 2) for j in range(2 * N + 1)]
        curves = {label: rate_curve(label, N, K, grid) for label in SCHEMES}
        for curve in curves.values():
            values = [r for _, r in curve.points]
            assert all(a >= b for a, b in zip(values, values[1:]))
        for i in range(len(grid)):
            assert curves["optimal-peak"].points[i][1] >= curves["optimal-avg"].points[i][1]
            assert curves["man-avg"].points[i][1] >= curves["optimal-avg"].points[i][1]
            assert curves["dec-peak"].points[i][1] >= curves["dec-avg"].points[i][1]
            assert curves["man-dec-avg"].points[i][1] >= curves["dec-avg"].points[i][1]
            assert curves["dec-avg"].points[i][1] >= curves["optimal-avg"].points[i][1]

    def test_csv_layout(self, tmp_path):
        import io

        curves = [rate_curve("optimal-avg", 2, 2, [0, 1, 2]), rate_curve("optimal-peak", 2, 2, [0, 1, 2])]
        buf = io.StringIO()
        write_curves_csv(curves, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "M,R,scheme,N,K"
        assert lines[1] == "0.000000,1.500000,optimal-avg,2,2"
        assert lines[2] == "0.000000,2.000000,optimal-peak,2,2"
        assert len(lines) == 1 + 6
