import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from cachekit.combinatorics import enumerate_subsets
from cachekit.model import Placement

from conftest import members_of, placement_from_mask, subfile_ranges
from test_delivery_exactness import assert_runs_match_oracle


def cached_mask(placement):
    """K x N x F: entry [k-1] is user k's cache view."""
    return np.stack([placement.cached(k) for k in range(1, placement.K + 1)])


# the mask and OR loops the placements were once built with, kept to pin their codes
def mask_random_placement(N, K, M, F, seed):
    quota = math.floor(Fraction(M) * F / N)
    rng = np.random.default_rng(seed)
    mask = np.zeros((K, N, F), dtype=bool)
    for k in range(K):
        for i in range(N):
            mask[k, i, rng.choice(F, size=quota, replace=False)] = True
    return mask


def or_loop_random_codes(N, K, M, F, seed):
    quota = math.floor(Fraction(M) * F / N)
    rng = np.random.default_rng(seed)
    codes = np.zeros((N, F), dtype=np.min_scalar_type((1 << K) - 1))
    for k in range(K):
        for i in range(N):
            codes[i, rng.choice(F, size=quota, replace=False)] |= 1 << k
    return codes


def mask_batch_placement(N, K, t, F):
    size = F // binomial(K, t)
    mask = np.zeros((K, N, F), dtype=bool)
    for sid in enumerate_subsets(K, t):
        for k in sid.members:
            mask[k - 1, :, sid.rank * size : (sid.rank + 1) * size] = True
    return mask


@st.composite
def batch_cases(draw):
    """(N, K, t) with t near 0 or K, so C(K, t) stays small up to K = 70."""
    K = draw(st.integers(1, 70))
    t = draw(st.sampled_from(sorted({0, 1, 2, K - 2, K - 1, K} & set(range(K + 1)))))
    return draw(st.integers(1, 3)), K, t


class TestCodes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 70), st.integers(1, 30), st.fractions(0, 1), st.integers(0, 2**16))
    @example(2, 8, 24, Fraction(1, 2), 7)
    @example(2, 64, 24, Fraction(1, 2), 7)
    @example(2, 65, 24, Fraction(1, 2), 7)
    def test_random_placement_same_stream(self, N, K, F, share, seed):
        M = share * N
        placement = decentralized.random_placement(N, K, M, F, seed)
        assert placement.codes.shape == (N, F) and not placement.codes.flags.writeable
        assert placement.codes.dtype == np.min_scalar_type((1 << K) - 1)
        assert np.array_equal(cached_mask(placement), mask_random_placement(N, K, M, F, seed))
        assert np.array_equal(placement.codes, or_loop_random_codes(N, K, M, F, seed))

    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    @example((2, 64, 63))
    @example((2, 65, 64))
    @example((1, 65, 1))
    def test_batch_placement_same_cache(self, case):
        N, K, t = case
        F = 2 * binomial(K, t)
        placement = batch_placement(N, K, t, F)
        assert not placement.codes.flags.writeable
        assert np.array_equal(cached_mask(placement), mask_batch_placement(N, K, t, F))


class TestRandomPlacement:
    def test_quota_exact_per_file(self):
        placement = decentralized.random_placement(N=2, K=3, M=1, F=10_000, seed=1)
        per_file = cached_mask(placement).sum(axis=2)
        assert (per_file == 5000).all()
        assert placement.cached_bits(1) == 2 * 5000

    def test_extremes(self):
        full = decentralized.random_placement(N=2, K=2, M=2, F=10, seed=0)
        assert cached_mask(full).all()
        empty = decentralized.random_placement(N=2, K=2, M=0, F=10, seed=0)
        assert not cached_mask(empty).any()

    def test_budget_is_floor(self):
        placement = decentralized.random_placement(N=3, K=2, M=1, F=100, seed=2)
        quota = math.floor(1 * 100 / 3)
        assert (cached_mask(placement).sum(axis=2) == quota).all()
        assert placement.cached_bits(1) == 3 * quota <= 100

    def test_deterministic_and_roughly_uniform(self):
        a = decentralized.random_placement(N=2, K=3, M=1, F=10_000, seed=42)
        b = decentralized.random_placement(N=2, K=3, M=1, F=10_000, seed=42)
        assert np.array_equal(a.codes, b.codes)
        assert abs(cached_mask(a).mean() - 0.5) < 0.02

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            decentralized.random_placement(N=2, K=2, M=3, F=10, seed=0)


class TestLevelPartition:
    def test_batch_placement_is_single_level(self):
        placement = batch_placement(N=2, K=4, t=2, F=12)
        part = decentralized.level_partition(placement, N=2, F=12)
        assert [len(members_of(code, 4)) for code in part.codes.tolist()] == [2] * 6
        assert (part.sizes == 2).all()
        for members, (lo, hi) in subfile_ranges(4, 2, 12).items():
            for i in (1, 2):
                assert np.array_equal(part.positions(members, i), np.arange(lo, hi))

    def test_empty_placement_all_level_zero(self):
        placement = Placement(3, np.zeros((2, 5), dtype=np.uint8))
        part = decentralized.level_partition(placement, N=2, F=5)
        assert part.codes.tolist() == [0] and part.sizes.tolist() == [[5], [5]]
        assert np.array_equal(part.positions((), 1), np.arange(5))

    def test_positions_refuse_a_file_outside_1_to_n(self):
        # an index <= 0 read another file's row, one past N raised IndexError
        part = decentralized.random_placement(3, 4, 1, 40, seed=1).partition
        for members, i in [((), 0), ((1,), -2), ((1,), 4), ((2, 3), 10)]:
            with pytest.raises(ValueError, match=re.escape(f"file {i} is not in 1..3")):
                part.positions(members, i)
        assert sum(len(part.positions((1,), i)) for i in (1, 2, 3)) == part.sizes[:, part.codes == 1].sum()

    def test_partition_is_exact_cover(self):
        placement = decentralized.random_placement(N=2, K=4, M=1, F=500, seed=3)
        part = decentralized.level_partition(placement, N=2, F=500)
        groups = [members_of(code, 4) for code in part.codes.tolist()]
        for i in (1, 2):
            seen = np.concatenate([part.positions(members, i) for members in groups])
            assert np.array_equal(np.sort(seen), np.arange(500))
        # group membership agrees with the users' cache views
        for members in groups:
            for i in (1, 2):
                for j in part.positions(members, i)[:5]:
                    cachers = {k for k in range(1, 5) if placement.cached(k)[i - 1, j]}
                    assert cachers == set(members)

    def test_user_limit(self):
        # there is none: past 64 users the codes are Python ints, and K=65
        # partitions like K=64, agreeing with the coverage profile and the oracle
        for K in (64, 65):
            placement = decentralized.random_placement(1, K, "1/2", 40, seed=3)
            part = decentralized.level_partition(placement, 1, 40)
            levels = [len(members_of(code, K)) for code in part.codes.tolist()]
            coverage = np.bincount(levels, weights=part.sizes.sum(axis=0), minlength=K + 1)
            assert coverage.tolist() == list(CacheProfile.from_placement(placement).coverage)
            assert_runs_match_oracle(part, placement)
            assert any(K in members_of(code, K) for code in part.codes.tolist())
        assert placement.codes.dtype == object and part.codes.dtype == object

    def test_partition_does_not_import_numpy_ma(self):
        # numpy.ma costs its import time and memory to every run that
        # partitions; a fresh process shows whether building one, its
        # delivery index or an encode pulls it in
        code = (
            "import sys\n"
            "from cachekit import decentralized, make_database\n"
            "for K in (4, 65):\n"
            "    placement = decentralized.random_placement(2, K, 1, 40, seed=3)\n"
            "    partition = decentralized.level_partition(placement, 2, 40)\n"
            "    assert partition.levels\n"
            "    db = make_database(2, 40, seed=4)\n"
            "    assert decentralized.encode_delivery(db, partition, (1, 2) * (K // 2) + (1,) * (K % 2))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        src = str(pathlib.Path(decentralized.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


class TestCacheProfile:
    # the partition's per-level bit counts are the coverage profile's
    def test_batch_placement_is_single_level(self):
        assert CacheProfile.from_placement(batch_placement(N=2, K=4, t=2, F=12)).coverage == (0, 0, 24, 0, 0)

    def test_empty_placement_all_level_zero(self):
        assert CacheProfile.from_placement(Placement(3, np.zeros((2, 5), dtype=np.uint8))).coverage == (10, 0, 0, 0)

    def test_coverage_concentrates(self):
        N, K, F = 2, 3, 300
        placement = decentralized.random_placement(N, K, M=1, F=F, seed=4)
        sizes = CacheProfile.from_placement(placement).coverage
        for j in range(K + 1):
            p = binomial(K, j) * 0.5**K  # per-file quota is exactly half of F
            mean, sigma = N * F * p, math.sqrt(N * F * p * (1 - p))
            assert abs(sizes[j] - mean) <= 3 * sigma


class TestEncodeDecode:
    # the batch adapters deliver over the partition kept with the (shared,
    # cached) batch placement; a freshly built level partition delivers alike
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
        j = int(np.flatnonzero(placement.cached(2)[wanted] & (db.bits[wanted] == 1))[0])
        codes = placement.codes.copy()
        codes[wanted, j] ^= 1 << 1  # user 2 forgets bit j
        decoded = decentralized.decode_user(2, db, Placement(K, codes), part, messages, d)
        assert decoded[j] != db.file(d[1])[j]

    def test_fully_cached_no_messages(self):
        db = make_database(2, 10, seed=6)
        placement = decentralized.random_placement(2, 3, M=2, F=10, seed=7)
        part = decentralized.level_partition(placement, 2, 10)
        d = (1, 2, 2)
        messages = decentralized.encode_delivery(db, part, d)
        assert len(messages) == 0 and list(messages) == []
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
        placement = placement_from_mask(mask)
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
