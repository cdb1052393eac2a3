"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
of passing tests inline).
"""

import itertools
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from cachekit import (
    CacheProfile,
    all_demands,
    batch_placement,
    binomial,
    converse_bound,
    dec_rate_for_distinct,
    decode_user,
    delivered_rate,
    delivery_rate_value,
    demand_stats,
    encode_delivery,
    enumerate_types,
    make_database,
    select_leaders,
    verify_message_cancellation,
)
from cachekit import decentralized
from cachekit.rate_analysis import SCHEMES

from conftest import CURVE_CASES, FILE_LETTERS, SIX_USER_TABLE, direct_payload, rebuilt_oracle

SWEEP_RANGE = [
    (N, K, t) for N in range(1, 5) for K in range(1, 6) for t in range(K + 1)
]


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Every (N<=4, K<=5, t) instance at F = 2*C(K,t): encode, count, rate,
    and bit-exact decode of every user for every one of the N^K demands."""
    started = time.perf_counter()
    results = {}
    for N, K, t in SWEEP_RANGE:
        F = 2 * binomial(K, t)
        db = make_database(N, F, seed=N * 1000 + K * 10 + t)
        placement = batch_placement(N, K, t, F)
        rates = {}
        counts_ok = True
        decode_ok = True
        for d in all_demands(N, K):
            leaders = select_leaders(d)
            messages = encode_delivery(db, placement, d, leaders)
            distinct = len(set(d))
            if len(messages) != binomial(K, t + 1) - binomial(K - distinct, t + 1):
                counts_ok = False
            rates[d] = delivered_rate(messages, F)
            for k in range(1, K + 1):
                decoded = decode_user(k, db, placement, messages, d, leaders)
                if not np.array_equal(decoded, db.file(d[k - 1])):
                    decode_ok = False
        results[(N, K, t)] = {"rates": rates, "counts_ok": counts_ok, "decode_ok": decode_ok}
    results["elapsed"] = time.perf_counter() - started
    return results


def test_criterion_1_closed_form_anchors():
    started = time.perf_counter()
    optimal = SCHEMES["optimal-avg"](30, 30, [1])[0]
    baseline = SCHEMES["man-avg"](30, 30, [1])[0]
    elapsed = time.perf_counter() - started
    assert abs(float(optimal) - 12.67) <= 0.005
    assert abs(float(baseline) - 14.12) <= 0.15  # interpolation ambiguity documented
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1: PASS - optimal 12.67 reproduced ({float(optimal):.4f}), "
        f"prior-art baseline {float(baseline):.4f} within 14.12±0.15, {elapsed:.2f}s"
    )


def test_criterion_2_worked_example(canonical_instance):
    started = time.perf_counter()
    db, placement, d = canonical_instance
    leaders = select_leaders(d)
    assert leaders == {1, 3, 5}
    messages = encode_delivery(db, placement, d, leaders)

    assert len(messages) == 19
    subsets = [m.subset.members for m in messages]
    assert (2, 4, 6) not in subsets
    assert delivered_rate(messages, db.F) == Fraction(19, 15)

    composed = {
        m.subset.members: {
            (FILE_LETTERS[d[x - 1]], tuple(v for v in m.subset.members if v != x))
            for x in m.subset.members
        }
        for m in messages
    }
    assert composed == SIX_USER_TABLE

    for k in range(1, 7):
        assert np.array_equal(decode_user(k, db, placement, messages, d, leaders), db.file(d[k - 1]))

    rebuilt = rebuilt_oracle({m.subset.members: m.payload for m in messages}, (2, 4, 6), d, leaders)
    assert np.array_equal(rebuilt, direct_payload(db, placement, d, (2, 4, 6)))

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS - 19 messages match the worked table, all decode, {elapsed:.2f}s")


def test_criterion_3_exhaustive_zero_error(exhaustive_sweep):
    for key in SWEEP_RANGE:
        assert exhaustive_sweep[key]["decode_ok"], f"decode failure at {key}"
        assert exhaustive_sweep[key]["counts_ok"], f"message-count mismatch at {key}"
    elapsed = exhaustive_sweep["elapsed"]
    assert elapsed < 60.0
    demands = sum(N**K for N, K, _ in SWEEP_RANGE)
    print(
        f"ACCEPTANCE 3: PASS - {len(SWEEP_RANGE)} instances, {demands} demand cases, "
        f"all users bit-exact, counts match, {elapsed:.1f}s"
    )


def test_criterion_4_formula_matches_simulation(exhaustive_sweep):
    checked = 0
    for (N, K, t) in SWEEP_RANGE:
        rates = exhaustive_sweep[(N, K, t)]["rates"]
        M = Fraction(t * N, K)
        average = sum(rates.values(), Fraction(0)) / len(rates)
        assert average == SCHEMES["optimal-avg"](N, K, [M])[0]
        assert max(rates.values()) == SCHEMES["optimal-peak"](N, K, [M])[0]
        checked += 1
    print(f"ACCEPTANCE 4: PASS - exact rational equality on {checked} instances (avg and peak)")


CANCEL_F = {1: 2, 2: 4, 3: 6, 4: 24, 5: 20, 6: 240, 7: 420}


def test_criterion_5_cancellation_identity():
    exhaustive = 0
    for K in range(1, 6):
        F = CANCEL_F[K]
        for N in range(1, 5):
            db = make_database(N, F, seed=K * 7 + N)
            for d in all_demands(N, K):
                leaders = select_leaders(d)
                others = [k for k in range(1, K + 1) if k not in leaders]
                for r in range(len(others) + 1):
                    for extra in itertools.combinations(others, r):
                        group = tuple(sorted(set(extra) | leaders))
                        assert verify_message_cancellation(db, d, leaders, group), (d, group)
                        exhaustive += 1
    sampled = 0
    rng = np.random.default_rng(2718)
    for K in (6, 7):
        F = CANCEL_F[K]
        for _ in range(100):
            N = int(rng.integers(2, 5))
            db = make_database(N, F, seed=int(rng.integers(0, 10**6)))
            d = tuple(int(x) for x in rng.integers(1, N + 1, size=K))
            leaders = select_leaders(d)
            others = [k for k in range(1, K + 1) if k not in leaders]
            extra = [x for x in others if rng.random() < 0.5]
            group = tuple(sorted(set(extra) | leaders))
            assert verify_message_cancellation(db, d, leaders, group), (d, group)
            sampled += 1
    assert sampled >= 200
    print(
        f"ACCEPTANCE 5: PASS - cancellation identity on {exhaustive} exhaustive (K<=5) "
        f"and {sampled} sampled (K in 6,7) groups, zero failures"
    )


def test_criterion_6_converse_sandwich():
    N, K, F, M = 3, 4, 120, 1
    types = enumerate_types(N, K)

    # tightness: on every batch placement the bound sits exactly 1/F below
    # the (exactly achieved) per-type rate
    for t in range(K + 1):
        placement = batch_placement(N, K, t, F)
        profile = CacheProfile.from_placement(placement)
        for stats in types:
            bound = converse_bound(profile, stats, K, F, eps=0)
            achieved = delivery_rate_value(K, t, stats.distinct)
            assert achieved - bound == Fraction(1, F)

    # 100 random uncoded placements: bound never exceeds what the delivery
    # scheme actually sends, per type
    checked = 0
    for seed in range(100):
        placement = decentralized.random_placement(N, K, M, F, seed=seed)
        profile = CacheProfile.from_placement(placement)
        db = make_database(N, F, seed=10_000 + seed)
        partition = decentralized.level_partition(placement, N, F)
        per_type = defaultdict(list)
        for d in all_demands(N, K):
            messages = decentralized.encode_delivery(db, partition, d)
            per_type[demand_stats(d, N).counts].append(decentralized.delivered_rate(messages, F))
        for stats in types:
            sample = per_type[stats.counts]
            achieved = sum(sample, Fraction(0)) / len(sample)
            assert converse_bound(profile, stats, K, F, eps=0) <= achieved
            checked += 1
    print(
        f"ACCEPTANCE 6: PASS - bound <= per-type achieved rate on 100 random placements "
        f"({checked} type checks); batch placements tight to exactly 1/F"
    )


def test_criterion_7_decentralized_concentration():
    started = time.perf_counter()
    N, K, M, F = 3, 4, 1, 200_000
    worst_rel = 0.0
    for seed in range(10):
        db = make_database(N, F, seed=500 + seed)
        placement = decentralized.random_placement(N, K, M, F, seed=900 + seed)
        partition = decentralized.level_partition(placement, N, F)
        for d in all_demands(N, K):
            messages = decentralized.encode_delivery(db, partition, d)
            measured = decentralized.delivered_rate(messages, F)
            predicted = dec_rate_for_distinct(N, M, len(set(d)))
            rel = abs(float(measured) - float(predicted)) / float(predicted)
            worst_rel = max(worst_rel, rel)
            assert rel < 0.05, (seed, d, rel)
            for k in range(1, K + 1):
                decoded = decentralized.decode_user(k, db, placement, partition, messages, d)
                assert np.array_equal(decoded, db.file(d[k - 1])), (seed, d, k)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 7: PASS - 10 seeds x 81 demands at F=2e5: worst rate error "
        f"{worst_rel * 100:.2f}% (< 5%), all decodes exact, {elapsed:.1f}s"
    )


CURVE_SCHEMES = ["optimal-avg", "optimal-peak", "man-avg", "dec-avg", "dec-peak", "man-dec-avg"]
CONVEX_SCHEMES = ["optimal-avg", "optimal-peak", "man-avg", "dec-avg", "dec-peak"]


def test_criterion_8_curve_properties():
    for N, K in CURVE_CASES:
        grid = [Fraction(j * N, 2 * K) for j in range(2 * K + 1)]
        values = {label: SCHEMES[label](N, K, grid) for label in CURVE_SCHEMES}
        for label, vals in values.items():
            assert all(a >= b for a, b in zip(vals, vals[1:])), (label, N, K)
        for label in CONVEX_SCHEMES:
            vals = values[label]  # uniform grid, so the second difference test applies
            for i in range(1, len(vals) - 1):
                assert vals[i - 1] + vals[i + 1] >= 2 * vals[i], (label, N, K, i)
        n_pts = len(values["optimal-avg"])
        for i in range(n_pts):
            assert values["optimal-peak"][i] >= values["optimal-avg"][i]
            assert values["dec-peak"][i] >= values["dec-avg"][i]
            assert values["man-avg"][i] >= values["optimal-avg"][i]
            assert values["man-dec-avg"][i] >= values["dec-avg"][i]
        if N > 1:
            interior = range(1, n_pts - 1)
            assert any(values["man-dec-avg"][i] > values["dec-avg"][i] for i in interior), (N, K)
            if K >= 3:  # strict centralized improvement needs an integer 0 < t < K-1
                assert any(values["man-avg"][i] > values["optimal-avg"][i] for i in interior), (N, K)
    print(
        f"ACCEPTANCE 8: PASS - monotone on all curves, convex on {CONVEX_SCHEMES}, "
        f"dominance and strict improvement verified on {len(CURVE_CASES)} (N,K) cases"
    )
