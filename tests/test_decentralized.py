import math

import numpy as np
import pytest

from cachekit import (
    CacheProfile,
    all_demands,
    batch_placement,
    binomial,
    dec_rate_for_distinct,
    decode_user,
    encode_delivery,
    make_database,
)
from cachekit import decentralized
from cachekit.model import Placement


class TestRandomPlacement:
    def test_quota_exact_per_file(self):
        placement = decentralized.random_placement(N=2, K=3, M=1, F=10_000, seed=1)
        per_file = placement.mask.sum(axis=2)
        assert (per_file == 5000).all()
        assert placement.cached_bits(1) == 2 * 5000

    def test_extremes(self):
        full = decentralized.random_placement(N=2, K=2, M=2, F=10, seed=0)
        assert full.mask.all()
        empty = decentralized.random_placement(N=2, K=2, M=0, F=10, seed=0)
        assert not empty.mask.any()

    def test_budget_is_floor(self):
        placement = decentralized.random_placement(N=3, K=2, M=1, F=100, seed=2)
        quota = math.floor(1 * 100 / 3)
        assert (placement.mask.sum(axis=2) == quota).all()
        assert placement.cached_bits(1) == 3 * quota <= 100

    def test_deterministic_and_roughly_uniform(self):
        a = decentralized.random_placement(N=2, K=3, M=1, F=10_000, seed=42)
        b = decentralized.random_placement(N=2, K=3, M=1, F=10_000, seed=42)
        assert np.array_equal(a.mask, b.mask)
        assert abs(a.mask.mean() - 0.5) < 0.02

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            decentralized.random_placement(N=2, K=2, M=3, F=10, seed=0)


class TestLevelPartition:
    def test_batch_placement_is_single_level(self):
        placement = batch_placement(N=2, K=4, t=2, F=12)
        part = decentralized.level_partition(placement, N=2, F=12)
        sizes = part.level_sizes()
        assert sizes[2] == 2 * 12 and sum(sizes) == 2 * 12
        for members, (lo, hi) in placement.batch_view.items():
            for i in (1, 2):
                assert np.array_equal(part.positions(members, i), np.arange(lo, hi))

    def test_empty_placement_all_level_zero(self):
        placement = Placement(3, np.zeros((3, 2, 5), dtype=bool))
        part = decentralized.level_partition(placement, N=2, F=5)
        assert part.level_sizes() == [10, 0, 0, 0]
        assert np.array_equal(part.positions((), 1), np.arange(5))

    def test_partition_is_exact_cover(self):
        placement = decentralized.random_placement(N=2, K=4, M=1, F=500, seed=3)
        part = decentralized.level_partition(placement, N=2, F=500)
        for i in (1, 2):
            seen = np.concatenate([per_file[i - 1] for per_file in part.groups.values()])
            assert np.array_equal(np.sort(seen), np.arange(500))
        # group membership agrees with the mask
        for members, per_file in part.groups.items():
            for i in (1, 2):
                for j in per_file[i - 1][:5]:
                    cachers = {k + 1 for k in range(4) if placement.mask[k, i - 1, j]}
                    assert cachers == set(members)

    def test_level_sizes_concentrate(self):
        N, K, F = 2, 3, 300
        placement = decentralized.random_placement(N, K, M=1, F=F, seed=4)
        part = decentralized.level_partition(placement, N, F)
        sizes = part.level_sizes()
        for j in range(K + 1):
            p = binomial(K, j) * 0.5**K  # per-file quota is exactly half of F
            mean, sigma = N * F * p, math.sqrt(N * F * p * (1 - p))
            assert abs(sizes[j] - mean) <= 3 * sigma

    def test_user_limit(self):
        # one code bit per user, at most 64: K=64 still agrees with the coverage profile,
        # K=65 would overflow the codes, so it is refused
        at_limit = decentralized.random_placement(1, 64, "1/2", 40, seed=3)
        part = decentralized.level_partition(at_limit, 1, 40)
        assert part.level_sizes() == list(CacheProfile.from_placement(at_limit).coverage)
        past_limit = decentralized.random_placement(1, 65, "1/2", 40, seed=3)
        with pytest.raises(ValueError, match="K <= 64"):
            decentralized.level_partition(past_limit, 1, 40)


class TestEncodeDecode:
    # the sorted-code level partition of a batch placement and the batch
    # adapters' partition, built from the subfile ranges, deliver alike
    def test_batch_reduction_byte_identical(self, canonical_instance):
        db, placement, d = canonical_instance
        part = decentralized.level_partition(placement, db.N, db.F)
        dec_messages = decentralized.encode_delivery(db, part, d)
        cen_messages = encode_delivery(db, placement, d)
        assert len(dec_messages) == len(cen_messages)
        for a, b in zip(dec_messages, cen_messages):
            assert a.subset == b.subset
            assert np.array_equal(a.payload, b.payload)

    def test_batch_reduction_decodes_identically(self, canonical_instance):
        db, placement, d = canonical_instance
        part = decentralized.level_partition(placement, db.N, db.F)
        messages = decentralized.encode_delivery(db, part, d)
        for k in range(1, 7):
            a = decentralized.decode_user(k, db, placement, part, messages, d)
            b = decode_user(k, db, placement, messages, d)
            assert np.array_equal(a, b)
            assert np.array_equal(a, db.file(d[k - 1]))

    def test_reads_only_cached_bits(self):
        # clear one cached 1-bit of user 2's wanted file after delivery: it
        # decodes wrong, so the decoder reads that bit only through the cache
        N, K, F = 2, 3, 200
        db = make_database(N, F, seed=15)
        placement = decentralized.random_placement(N, K, M=1, F=F, seed=16)
        part = decentralized.level_partition(placement, N, F)
        d = (1, 2, 1)
        messages = decentralized.encode_delivery(db, part, d)
        wanted = d[1] - 1
        j = int(np.flatnonzero(placement.mask[1, wanted] & (db.bits[wanted] == 1))[0])
        mask = placement.mask.copy()
        mask[1, wanted, j] = False
        decoded = decentralized.decode_user(2, db, Placement(K, mask), part, messages, d)
        assert decoded[j] != db.file(d[1])[j]

    def test_fully_cached_no_messages(self):
        db = make_database(2, 10, seed=6)
        placement = decentralized.random_placement(2, 3, M=2, F=10, seed=7)
        part = decentralized.level_partition(placement, 2, 10)
        d = (1, 2, 2)
        messages = decentralized.encode_delivery(db, part, d)
        assert messages == []
        assert decentralized.delivered_rate(messages, 10) == 0
        for k in (1, 2, 3):
            assert np.array_equal(
                decentralized.decode_user(k, db, placement, part, messages, d), db.file(d[k - 1])
            )

    def test_empty_cache_is_exact_unicast(self):
        db = make_database(3, 50, seed=8)
        placement = decentralized.random_placement(3, 4, M=0, F=50, seed=9)
        part = decentralized.level_partition(placement, 3, 50)
        for d in [(1, 1, 1, 1), (1, 2, 3, 1), (2, 3, 2, 3)]:
            messages = decentralized.encode_delivery(db, part, d)
            assert decentralized.delivered_rate(messages, 50) == len(set(d))
            for k in range(1, 5):
                assert np.array_equal(
                    decentralized.decode_user(k, db, placement, part, messages, d),
                    db.file(d[k - 1]),
                )

    @pytest.mark.parametrize("N,K", [(2, 3), (3, 3), (2, 4), (3, 4)])
    def test_zero_error_all_demands(self, N, K):
        F = 500
        for seed in range(5):
            db = make_database(N, F, seed=100 + seed)
            placement = decentralized.random_placement(N, K, M=1, F=F, seed=200 + seed)
            part = decentralized.level_partition(placement, N, F)
            for d in all_demands(N, K):
                messages = decentralized.encode_delivery(db, part, d)
                for k in range(1, K + 1):
                    assert np.array_equal(
                        decentralized.decode_user(k, db, placement, part, messages, d),
                        db.file(d[k - 1]),
                    )

    def test_unequal_handmade_groups_still_decode(self):
        # user 1 caches a prefix of file 1 only; user 2 a short suffix of file 2
        F = 20
        mask = np.zeros((2, 2, F), dtype=bool)
        mask[0, 0, :12] = True
        mask[1, 1, 17:] = True
        placement = Placement(2, mask)
        db = make_database(2, F, seed=10)
        part = decentralized.level_partition(placement, 2, F)
        for d in [(1, 2), (2, 1), (2, 2), (1, 1)]:
            messages = decentralized.encode_delivery(db, part, d)
            for k in (1, 2):
                assert np.array_equal(
                    decentralized.decode_user(k, db, placement, part, messages, d),
                    db.file(d[k - 1]),
                )

    def test_average_rate_close_to_formula(self):
        N, K, M, F = 2, 2, 1, 40_000
        db = make_database(N, F, seed=11)
        placement = decentralized.random_placement(N, K, M, F, seed=12)
        part = decentralized.level_partition(placement, N, F)
        rates = [
            float(decentralized.delivered_rate(decentralized.encode_delivery(db, part, d), F))
            for d in all_demands(N, K)
        ]
        average = sum(rates) / len(rates)
        assert abs(average - 5 / 8) / (5 / 8) < 0.02

    def test_rate_concentration_per_demand(self):
        N, K, M, F = 3, 4, 1, 50_000
        db = make_database(N, F, seed=13)
        placement = decentralized.random_placement(N, K, M, F, seed=14)
        part = decentralized.level_partition(placement, N, F)
        for d in [(1, 1, 1, 1), (1, 2, 1, 2), (1, 2, 3, 3), (3, 2, 1, 3)]:
            messages = decentralized.encode_delivery(db, part, d)
            measured = float(decentralized.delivered_rate(messages, F))
            predicted = float(dec_rate_for_distinct(N, M, len(set(d))))
            assert abs(measured - predicted) / predicted < 0.05
