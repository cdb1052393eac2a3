import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from cachekit import (
    DecodeError,
    all_demands,
    batch_placement,
    binomial,
    decode_user,
    delivered_rate,
    demand_stats,
    encode_delivery,
    make_database,
    select_leaders,
    verify_message_cancellation,
)
from cachekit import centralized, decentralized
from cachekit.model import Database, Placement, enumerate_types, type_representative

from conftest import FILE_LETTERS, SIX_USER_TABLE, direct_payload, rebuilt_oracle, subfile_ranges


class TestBatchPlacement:
    def test_canonical_split(self):
        placement = batch_placement(N=3, K=6, t=2, F=15)
        ranges = subfile_ranges(6, 2, 15)
        assert len(ranges) == 15
        # user 1 caches exactly the subfiles indexed by pairs containing 1
        expected = {(1, j) for j in range(2, 7)}
        cached_cols = set()
        cache = placement.cached(1)
        for members, (lo, hi) in ranges.items():
            assert hi - lo == 1
            if cache[0, lo]:
                cached_cols.add(members)
        assert cached_cols == expected
        # same subfiles cached for every file
        for i in range(3):
            assert np.array_equal(cache[0], cache[i])

    @pytest.mark.parametrize("N,K,t,F", [(3, 6, 2, 15), (2, 4, 1, 8), (4, 5, 3, 20), (1, 3, 0, 6)])
    def test_per_user_load(self, N, K, t, F):
        placement = batch_placement(N, K, t, F)
        for k in range(1, K + 1):
            assert placement.cached_bits(k) == N * t * F // K

    def test_ranges_partition_file(self):
        spans = sorted(subfile_ranges(5, 2, 30).values())
        assert spans[0][0] == 0 and spans[-1][1] == 30
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_t_zero_and_t_full(self):
        empty = batch_placement(N=2, K=3, t=0, F=4)
        assert not empty.codes.any()
        assert subfile_ranges(3, 0, 4) == {(): (0, 4)}
        full = batch_placement(N=2, K=3, t=3, F=4)
        assert all(full.cached(k).all() for k in (1, 2, 3))
        assert full.cached_bits(1) == 2 * 4

    def test_divisibility_error_names_multiple(self):
        with pytest.raises(ValueError, match=r"multiple of C\(6,2\) = 15"):
            batch_placement(N=3, K=6, t=2, F=16)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            batch_placement(N=2, K=3, t=4, F=4)


class TestLeaders:
    def test_lowest_index_per_file(self):
        assert select_leaders((1, 1, 2, 2, 3, 3)) == {1, 3, 5}

    def test_all_distinct(self):
        assert select_leaders((3, 1, 2)) == {1, 2, 3}

    def test_single_file(self):
        assert select_leaders((2, 2, 2)) == {1}


class TestEncode:
    def test_canonical_message_set(self, canonical_instance):
        db, placement, d = canonical_instance
        messages = encode_delivery(db, placement, d)
        assert len(messages) == 19
        subsets = [m.subset.members for m in messages]
        assert (2, 4, 6) not in subsets
        assert subsets == sorted(subsets)
        assert all(len(m.payload) == 1 for m in messages)
        assert delivered_rate(messages, db.F) == Fraction(19, 15)

    def test_canonical_table_symbol_for_symbol(self, canonical_instance):
        db, placement, d = canonical_instance
        messages = encode_delivery(db, placement, d)
        composed = {}
        for m in messages:
            symbols = set()
            for x in m.subset.members:
                rest = tuple(v for v in m.subset.members if v != x)
                symbols.add((FILE_LETTERS[d[x - 1]], rest))
            composed[m.subset.members] = symbols
        assert composed == SIX_USER_TABLE

    def test_canonical_payload_values(self, canonical_instance):
        db, placement, d = canonical_instance
        messages = {m.subset.members: m.payload for m in encode_delivery(db, placement, d)}
        letters = {v: k for k, v in FILE_LETTERS.items()}
        ranges = subfile_ranges(6, 2, db.F)
        for subset, symbols in SIX_USER_TABLE.items():
            expected = np.zeros(1, dtype=np.uint8)
            for letter, members in symbols:
                lo, hi = ranges[members]
                expected = expected ^ db.bits[letters[letter] - 1, lo:hi]
            assert np.array_equal(messages[subset], expected)

    def test_all_distinct_rate(self):
        for K, t in [(4, 1), (5, 2), (3, 0)]:
            N, F = K, 2 * binomial(K, t)
            db = make_database(N, F, seed=K)
            placement = batch_placement(N, K, t, F)
            d = tuple(range(1, K + 1))
            messages = encode_delivery(db, placement, d)
            assert len(messages) == binomial(K, t + 1)
            assert delivered_rate(messages, F) == Fraction(K - t, t + 1)

    def test_two_user_shared_demand(self):
        db = make_database(2, 4, seed=1)
        placement = batch_placement(2, 2, t=1, F=4)
        messages = encode_delivery(db, placement, (1, 1))
        assert len(messages) == binomial(2, 2) - binomial(1, 2) == 1
        (m,) = messages
        assert m.subset.members == (1, 2)
        ranges = subfile_ranges(2, 1, 4)
        lo1, hi1 = ranges[(1,)]
        lo2, hi2 = ranges[(2,)]
        expected = db.bits[0, lo2:hi2] ^ db.bits[0, lo1:hi1]
        assert np.array_equal(m.payload, expected)
        assert delivered_rate(messages, 4) == Fraction(1, 2)

    def test_t_equals_k_sends_nothing(self):
        db = make_database(2, 4, seed=2)
        placement = batch_placement(2, 3, t=3, F=4)
        messages = encode_delivery(db, placement, (1, 2, 1))
        assert len(messages) == 0 and list(messages) == []

    def test_random_placement_goes_through_the_engine(self):
        # any placement is delivered over its level partition, batch or not
        db = make_database(2, 8, seed=3)
        placement = decentralized.random_placement(2, 2, 1, 8, seed=0)
        part = decentralized.level_partition(placement, 2, 8)
        for d in all_demands(2, 2):
            got = encode_delivery(db, placement, d)
            want = decentralized.encode_delivery(db, part, d)
            assert [m.subset for m in got] == [m.subset for m in want]
            assert all(a.payload.tobytes() == b.payload.tobytes() for a, b in zip(got, want))
            for k in (1, 2):
                assert np.array_equal(decode_user(k, db, placement, got, d), db.file(d[k - 1]))


class TestReconstruct:
    def test_canonical_omitted_message(self, canonical_instance):
        db, placement, d = canonical_instance
        leaders = select_leaders(d)
        messages = encode_delivery(db, placement, d, leaders)
        by_subset = {m.subset.members: m.payload for m in messages}
        rebuilt = rebuilt_oracle(by_subset, (2, 4, 6), d, leaders)
        direct = direct_payload(db, placement, d, (2, 4, 6))
        assert np.array_equal(rebuilt, direct)
        # and it is exactly the XOR of the 7 leader-containing messages of
        # the selections inside {1..6} other than the leaders themselves
        acc = np.zeros(1, dtype=np.uint8)
        terms = 0
        for choice in itertools.product((1, 2), (3, 4), (5, 6)):
            if set(choice) == leaders:
                continue
            acc = acc ^ by_subset[tuple(sorted(set(range(1, 7)) - set(choice)))]
            terms += 1
        assert terms == 7
        assert np.array_equal(acc, rebuilt)

    def test_matches_direct_on_random_instances(self):
        N, K, t = 2, 5, 1
        F = 2 * binomial(K, t)
        for seed in range(5):
            db = make_database(N, F, seed=seed)
            placement = batch_placement(N, K, t, F)
            for d in [(1, 1, 2, 2, 2), (2, 1, 1, 1, 2), (1, 1, 1, 2, 2)]:
                leaders = select_leaders(d)
                by_subset = {m.subset.members: m.payload for m in encode_delivery(db, placement, d, leaders)}
                non_leaders = [k for k in range(1, K + 1) if k not in leaders]
                for A in itertools.combinations(non_leaders, t + 1):
                    rebuilt = rebuilt_oracle(by_subset, A, d, leaders)
                    assert np.array_equal(rebuilt, direct_payload(db, placement, d, A))


class TestDecode:
    def test_canonical_all_users(self, canonical_instance):
        db, placement, d = canonical_instance
        messages = encode_delivery(db, placement, d)
        for k in range(1, 7):
            assert np.array_equal(decode_user(k, db, placement, messages, d), db.file(d[k - 1]))

    def test_fully_cached_needs_no_messages(self):
        db = make_database(2, 4, seed=4)
        placement = batch_placement(2, 3, t=3, F=4)
        d = (2, 1, 2)
        for k in (1, 2, 3):
            assert np.array_equal(decode_user(k, db, placement, [], d), db.file(d[k - 1]))

    def test_reads_only_cached_bits(self, canonical_instance):
        # clear one cached 1-bit of user 1's wanted file, keeping the original
        # partition: it decodes wrong, so the decoder reads that bit through
        # the cache and nowhere else
        db, placement, d = canonical_instance
        messages = encode_delivery(db, placement, d)
        wanted = d[0] - 1
        j = int(np.flatnonzero(placement.cached(1)[wanted] & (db.bits[wanted] == 1))[0])
        codes = placement.codes.copy()
        codes[wanted, j] ^= 1  # user 1 forgets bit j
        forgetful = Placement(placement.K, codes)
        decoded = decentralized.decode_user(1, db, forgetful, placement.partition, messages, d)
        assert decoded[j] != db.file(d[0])[j]

    def test_missing_message_identifies_subset(self, canonical_instance):
        db, placement, d = canonical_instance
        messages = [m for m in encode_delivery(db, placement, d) if m.subset.members != (1, 2, 3)]
        with pytest.raises(DecodeError) as err:
            decode_user(1, db, placement, messages, d)
        assert err.value.subset == (1, 2, 3)

    def test_lost_term_of_a_rebuilt_message_is_named(self, canonical_instance):
        # user 2 never needs {1, 3, 5} directly, only as a term of the omitted
        # {2, 4, 6}: losing it must raise, not decode to wrong bits
        db, placement, d = canonical_instance
        messages = [m for m in encode_delivery(db, placement, d) if m.subset.members != (1, 3, 5)]
        with pytest.raises(DecodeError) as err:
            decode_user(2, db, placement, messages, d)
        assert err.value.subset == (1, 3, 5)

    def test_exhaustive_small_instance(self):
        N, K, t = 3, 4, 2
        F = 2 * binomial(K, t)
        db = make_database(N, F, seed=11)
        placement = batch_placement(N, K, t, F)
        for d in all_demands(N, K):
            messages = encode_delivery(db, placement, d)
            for k in range(1, K + 1):
                assert np.array_equal(decode_user(k, db, placement, messages, d), db.file(d[k - 1]))

    def test_leaders_never_reconstruct(self, canonical_instance, monkeypatch):
        db, placement, d = canonical_instance
        leaders = select_leaders(d)
        messages = encode_delivery(db, placement, d, leaders)

        def forbidden(plan, terms, delivery, i, rows):
            raise AssertionError(f"decoding handed the rebuild {len(rows)} rows")

        # the engine's decoder hands each level's omitted rows to this function
        monkeypatch.setattr(decentralized, "_rebuild", forbidden)
        for k in sorted(leaders):
            assert np.array_equal(decode_user(k, db, placement, messages, d, leaders), db.file(d[k - 1]))
        assert np.array_equal(
            decentralized.decode_users(sorted(leaders), db, placement, placement.partition, messages, d, leaders),
            db.bits[[d[k - 1] - 1 for k in sorted(leaders)]])
        # a non-leader needs the omitted message of {2, 4, 6}, so the patch is live
        with pytest.raises(AssertionError, match="handed the rebuild 1 rows"):
            decode_user(2, db, placement, messages, d, leaders)


class TestCancellationIdentity:
    def test_canonical_full_group(self, canonical_instance):
        db, _, d = canonical_instance
        assert verify_message_cancellation(db, d, select_leaders(d), range(1, 7))

    def test_group_equal_leaders_is_trivial(self):
        db = make_database(3, 6, seed=5)
        d = (1, 2, 3)
        leaders = select_leaders(d)
        assert verify_message_cancellation(db, d, leaders, (1, 2, 3))

    def test_requires_all_leaders(self, canonical_instance):
        db, _, d = canonical_instance
        with pytest.raises(ValueError, match="leaders"):
            verify_message_cancellation(db, d, select_leaders(d), (2, 3, 4))

    def test_detects_a_wrong_direct_payload(self, canonical_instance, monkeypatch):
        db, _, d = canonical_instance
        encode = decentralized.encode_delivery

        def corrupted(*args, **kwargs):
            messages = encode(*args, **kwargs)
            for m in messages:
                if m.subset.members == (2, 4, 6):
                    m.payload[0] ^= 1
            return messages

        monkeypatch.setattr(decentralized, "encode_delivery", corrupted)
        assert not verify_message_cancellation(db, d, select_leaders(d), range(1, 7))

    def test_fails_on_a_database_with_one_flipped_subfile_bit(self, canonical_instance, monkeypatch):
        db, placement, d = canonical_instance
        # a bit of user 2's chunk of the omitted message (2, 4, 6): file d_2's
        # subfile cached by exactly {4, 6}
        f = d[1] - 1
        j = np.flatnonzero(placement.codes[f] == (1 << 3) | (1 << 5))[0]
        bits = db.bits.copy()
        bits[f, j] ^= 1
        flipped = Database(db.N, db.F, bits)
        encode = decentralized.encode_delivery
        # the engine encodes from the flipped database, the chunks come from the intact one
        monkeypatch.setattr(decentralized, "encode_delivery", lambda _, *args: encode(flipped, *args))
        assert not verify_message_cancellation(db, d, select_leaders(d), range(1, 7))
        # read alike, the flipped database's messages still cancel
        assert verify_message_cancellation(flipped, d, select_leaders(d), range(1, 7))

    def test_agrees_with_the_engine_rebuild_on_every_type(self):
        # the check the oracle replaced: the engine's direct messages with
        # every user a leader, the omitted one rebuilt from its terms' messages
        def rebuild_check(db, d, leaders, group):
            omitted = tuple(x for x in sorted(group) if x not in leaders)
            if not omitted:
                return True
            partition = batch_placement(db.N, len(d), len(omitted) - 1, db.F).partition
            everyone = frozenset(range(1, len(d) + 1))
            direct = {m.subset.members: m.payload for m in decentralized.encode_delivery(db, partition, d, everyone)}
            return np.array_equal(rebuilt_oracle(direct, omitted, d, leaders), direct[omitted])

        checks = 0
        for N in range(1, 4):
            for K in range(1, 8):
                for t in range(K):
                    db = make_database(N, binomial(K, t), seed=100 * N + 10 * K + t)
                    for stats in enumerate_types(N, K):
                        d = type_representative(stats)
                        leaders = select_leaders(d)
                        others = [k for k in range(1, K + 1) if k not in leaders]
                        if len(others) < t + 1:
                            continue
                        group = tuple(sorted(set(others[: t + 1]) | leaders))
                        assert verify_message_cancellation(db, d, leaders, group)
                        assert rebuild_check(db, d, leaders, group)
                        checks += 1
        assert checks > 100

    def test_requires_one_leader_per_file(self, canonical_instance):
        db, _, d = canonical_instance
        with pytest.raises(ValueError, match="one requester of each"):
            verify_message_cancellation(db, d, {1, 2, 3, 5}, range(1, 7))

    def test_rejects_members_outside_the_users(self, canonical_instance):
        db, _, d = canonical_instance
        leaders = select_leaders(d)
        for outside in (0, 7):
            with pytest.raises(ValueError, match=f"group member {outside} is not in 1..6"):
                verify_message_cancellation(db, d, leaders, (*sorted(leaders), 2, outside))

    def test_rejects_a_group_size_whose_t_does_not_divide_F(self, monkeypatch):
        K = 65
        db = make_database(2, 130, seed=1)
        d = (1, 2) + (1,) * (K - 2)
        assert select_leaders(d) == {1, 2}

        def forbidden(*args):
            raise AssertionError("a placement was built")

        monkeypatch.setattr(centralized, "batch_placement", forbidden)
        with pytest.raises(ValueError, match=r"group of 5 users with 2 leaders has t = 2, "
                                             r"and C\(65,2\) = 2080 does not divide F=130"):
            verify_message_cancellation(db, d, {1, 2}, (1, 2, 3, 5, 64))

    def test_random_configurations(self):
        lcm_f = {2: 2, 3: 6, 4: 12, 5: 20, 6: 120}
        rng = np.random.default_rng(77)
        checks = 0
        while checks < 200:
            K = int(rng.integers(2, 7))
            N = int(rng.integers(1, 5))
            db = make_database(N, 2 * lcm_f[K], seed=int(rng.integers(0, 10**6)))
            d = tuple(int(x) for x in rng.integers(1, N + 1, size=K))
            leaders = select_leaders(d)
            extras = [k for k in range(1, K + 1) if k not in leaders]
            keep = [x for x in extras if rng.random() < 0.6]
            group = tuple(sorted(set(keep) | leaders))
            assert verify_message_cancellation(db, d, leaders, group)
            checks += 1


class TestInvariants:
    @pytest.mark.parametrize("N,K,t", [(3, 4, 1), (2, 4, 2), (3, 3, 1)])
    def test_rate_constant_within_type(self, N, K, t):
        F = 2 * binomial(K, t)
        db = make_database(N, F, seed=21)
        placement = batch_placement(N, K, t, F)
        by_type = defaultdict(set)
        for d in all_demands(N, K):
            messages = encode_delivery(db, placement, d)
            stats = demand_stats(d, N)
            assert len(messages) == binomial(K, t + 1) - binomial(K - stats.distinct, t + 1)
            by_type[stats.counts].add(delivered_rate(messages, F))
        for rates in by_type.values():
            assert len(rates) == 1

    def test_permutation_equivariance(self):
        N, K, t = 3, 4, 2
        F = 2 * binomial(K, t)
        db = make_database(N, F, seed=31)
        placement = batch_placement(N, K, t, F)
        rng = np.random.default_rng(13)
        for d in [(1, 1, 2, 3), (2, 2, 2, 1), (3, 1, 3, 1)]:
            leaders = select_leaders(d)
            original = {m.subset.members: m.payload for m in encode_delivery(db, placement, d, leaders)}
            for _ in range(4):
                p = dict(enumerate(rng.permutation(K) + 1, start=1))
                q = dict(enumerate(rng.permutation(N) + 1, start=1))
                # relabeled database: subfile (q(i), p(S)) holds subfile (i, S)
                bits2 = np.empty_like(db.bits)
                ranges = subfile_ranges(K, t, F)
                for members, (lo, hi) in ranges.items():
                    pm = tuple(sorted(p[x] for x in members))
                    lo2, hi2 = ranges[pm]
                    for i in range(1, N + 1):
                        bits2[q[i] - 1, lo2:hi2] = db.bits[i - 1, lo:hi]
                db2 = Database(N, F, bits2)
                d2 = [0] * K
                for k in range(1, K + 1):
                    d2[p[k] - 1] = q[d[k - 1]]
                leaders2 = frozenset(p[u] for u in leaders)
                relabeled = {
                    m.subset.members: m.payload
                    for m in encode_delivery(db2, placement, tuple(d2), leaders2)
                }
                assert set(relabeled) == {tuple(sorted(p[x] for x in s)) for s in original}
                for members, payload in original.items():
                    image = tuple(sorted(p[x] for x in members))
                    assert np.array_equal(relabeled[image], payload)


def test_transcript_line_format(canonical_instance):
    db, placement, d = canonical_instance
    (first, *_) = encode_delivery(db, placement, d)
    line = first.transcript_line()
    head, _, body = line.partition(" : ")
    assert head == "1,2,3"
    assert len(body) == 2  # one payload bit packs into one hex byte
    assert int(body, 16) in (0x00, 0x80)
