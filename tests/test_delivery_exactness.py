"""Exactness gate for the delivery engine.

Decentralized: the level partition, the broadcast and every user's decode
must match an oracle that builds the partition with one `flatnonzero` pass
per cache-set code and file, and encodes by walking every user subset level
by level.

Centralized: the batch adapters, which hand the subfiles to the same engine
as a one-level partition, must match an oracle that slices subfiles straight
from the database, sends every leader-holding (t+1)-subset in lexicographic
order, and decodes subfile by subfile, rebuilding leaderless messages from
the broadcast.
"""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachekit import all_demands, batch_placement, binomial, centralized, decentralized, make_database
from cachekit.centralized import BroadcastMessage, DecodeError, select_leaders
from cachekit.combinatorics import enumerate_subsets
from cachekit.model import Placement, validate_demand

from conftest import (
    CANONICAL_T, direct_payload, members_of, oracle_groups, oracle_level_partition, placement_from_mask,
    subfile_ranges,
)

# --- oracle: one pass per code and file (conftest), all 2^K subsets ---------------


def oracle_encode_delivery(db, partition, d, leaders=None):
    d = validate_demand(d, db.N)
    K = partition.K
    if len(d) != K:
        raise ValueError(f"demand length {len(d)} != K={K}")
    if leaders is None:
        leaders = select_leaders(d)
    messages = []
    for level in range(K):  # bits cached by all K users need no delivery
        for sid in enumerate_subsets(K, level + 1):
            if leaders.isdisjoint(sid.members):
                continue
            members = sid.members
            chunks = []
            for idx, x in enumerate(members):
                rest = members[:idx] + members[idx + 1 :]
                pos = partition.positions(rest, d[x - 1])
                if len(pos):
                    chunks.append(db.bits[d[x - 1] - 1, pos])
            if not chunks:
                continue
            payload = np.zeros(max(len(c) for c in chunks), dtype=np.uint8)
            for c in chunks:
                payload[: len(c)] ^= c
            messages.append(BroadcastMessage(sid, payload))
    return messages


# --- the gate --------------------------------------------------------------------


def assert_runs_match_oracle(part, placement):
    """The partition's runs equal those made from the oracle's groups, its
    sort order is read-only int64, and `positions` gives each present set's
    group in each file (ascending, read-only int64) and nothing for absent
    sets. Returns the oracle's partition."""
    N, F, K = part.N, part.F, part.K
    groups = oracle_groups(placement, N, F)
    want = oracle_level_partition(placement, N, F)
    assert part.codes.dtype == placement.codes.dtype and part.codes.tolist() == want.codes.tolist()
    assert [members_of(code, K) for code in part.codes.tolist()] == list(groups)
    assert np.array_equal(part.order, want.order) and np.array_equal(part.sizes, want.sizes)
    assert part.sizes.dtype == np.intp
    assert part.order.dtype == np.int64 and not part.order.flags.writeable
    for members, per_file in groups.items():
        assert len(per_file) == N
        for i, ref in enumerate(per_file, start=1):
            got = part.positions(members, i)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, ref)
            assert (np.diff(got) > 0).all()
    every = (S for r in range(K + 1) for S in itertools.combinations(range(1, K + 1), r))
    for absent in {next((S for S in every if S not in groups), (K + 1,)), (K + 1,), (1, K + 1)}:
        assert all(len(part.positions(absent, i)) == 0 for i in range(1, N + 1))
    return want


def assert_engine_exact(db, placement, d):
    N, F, K = db.N, db.F, placement.K
    part = decentralized.level_partition(placement, N, F)
    want = assert_runs_match_oracle(part, placement)

    messages = decentralized.encode_delivery(db, part, d)
    expected = oracle_encode_delivery(db, want, d)
    assert [m.subset for m in messages] == [m.subset for m in expected]
    for got, ref in zip(messages, expected):
        assert got.payload.dtype == np.uint8
        assert got.payload.tobytes() == ref.payload.tobytes()

    for k in range(1, K + 1):
        decoded = decentralized.decode_user(k, db, placement, part, messages, d)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, db.file(d[k - 1]))


@st.composite
def random_instances(draw):
    N = draw(st.integers(1, 4))
    K = draw(st.integers(1, 6))
    F = draw(st.integers(1, 40))
    M = draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(N)), st.fractions(0, N, max_denominator=12)))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    return N, K, F, M, d, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(random_instances())
@example((3, 4, 30, Fraction(0), (1, 2, 3, 1), 1))
@example((3, 4, 30, Fraction(3), (1, 2, 3, 1), 2))
@example((2, 1, 17, Fraction(1, 2), (2,), 3))
@example((4, 6, 1, Fraction(2), (1, 2, 3, 4, 4, 1), 4))
@example((1, 1, 1, Fraction(1, 3), (1,), 5))
@example((2000, 3, 2, Fraction(1000), (1, 2000, 7), 6))  # many files of two bits: one bit each cached per user
def test_random_placement_matches_oracle(instance):
    N, K, F, M, d, seed = instance
    db = make_database(N, F, seed)
    placement = decentralized.random_placement(N, K, M, F, seed + 1)
    assert_engine_exact(db, placement, d)


@st.composite
def free_instances(draw):
    """Arbitrary cache masks: users may cache more of one file than another,
    so groups of one level have unequal sizes and chunks get zero-padded."""
    N = draw(st.integers(1, 4))
    K = draw(st.integers(1, 6))
    F = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    return N, K, F, density, d, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(free_instances())
def test_free_mask_matches_oracle(instance):
    N, K, F, density, d, seed = instance
    db = make_database(N, F, seed)
    mask = np.random.default_rng(seed + 1).random((K, N, F)) < density
    assert_engine_exact(db, placement_from_mask(mask), d)


def test_k64_groups_match_oracle_as_sets():
    # the top user's bit is the top bit of the engine's uint64 codes
    N, K, F = 2, 64, 24
    placement = decentralized.random_placement(N, K, Fraction(1, 2), F, seed=7)
    assert placement.cached(K).any()
    part = decentralized.level_partition(placement, N, F)
    assert part.codes.dtype == np.uint64
    assert_runs_match_oracle(part, placement)
    assert any(K in members_of(code, K) for code in part.codes.tolist())

    db = make_database(N, F, seed=8)
    d = tuple(np.random.default_rng(9).integers(1, N + 1, size=K).tolist())
    messages = decentralized.encode_delivery(db, part, d)
    for k in (1, 2, K - 1, K):
        assert np.array_equal(decentralized.decode_user(k, db, placement, part, messages, d), db.file(d[k - 1]))


@pytest.mark.parametrize("shape, d", [((3, 100), (1, 2, 2, 1)), ((3, 100), (1, 2, 3, 3))])
def test_encode_refuses_database_of_another_shape(shape, d):
    # a third file would be encoded silently, or its demand would index past the partition
    part = decentralized.random_placement(2, 4, 1, 100, seed=1).partition
    with pytest.raises(ValueError, match=re.escape(f"database has (N, F) = {shape}, but the partition has (2, 100)")):
        decentralized.encode_delivery(make_database(*shape, seed=2), part, d)


@pytest.mark.parametrize("shape", [(2, 120), (2, 80), (1, 100)])
def test_decode_refuses_database_of_another_shape(shape):
    N, K, F, d = 2, 4, 100, (1, 2, 2, 1)
    placement = decentralized.random_placement(N, K, 1, F, seed=1)
    messages = decentralized.encode_delivery(make_database(N, F, seed=2), placement.partition, d)
    with pytest.raises(ValueError, match=re.escape(f"database has (N, F) = {shape}, but the partition has (2, 100)")):
        decentralized.decode_users([1, 2], make_database(*shape, seed=2), placement, placement.partition, messages, d)
    # the placement's codes must have the database's shape as well
    db = make_database(N, F, seed=2)
    with pytest.raises(ValueError, match=re.escape(f"database has (N, F) = (2, 100), but the placement has {shape}")):
        decentralized.decode_users([1, 2], db, Placement(K, np.zeros(shape, dtype=np.uint8)), placement.partition,
                                   messages, d)


# --- oracle: batch delivery by subfile slicing ------------------------------------


def oracle_batch_encode(db, placement, t, d, leaders):
    messages = []
    if t == placement.K:
        return messages
    for sid in enumerate_subsets(placement.K, t + 1):
        if not leaders.isdisjoint(sid.members):
            messages.append(BroadcastMessage(sid, direct_payload(db, placement, d, sid.members)))
    return messages


def oracle_reconstruct(payloads, d, leaders, members):
    block = sorted(set(members) | leaders)
    by_file = {}
    for x in block:
        by_file.setdefault(d[x - 1], []).append(x)
    acc = None
    for choice in itertools.product(*(by_file[f] for f in sorted(by_file))):
        if frozenset(choice) == leaders:
            continue
        key = tuple(x for x in block if x not in choice)
        if key not in payloads:
            raise DecodeError(key)
        acc = payloads[key].copy() if acc is None else acc ^ payloads[key]
    return acc


def oracle_batch_decode(k, db, placement, t, messages, d, leaders):
    cache = np.where(placement.cached(k), db.bits, 0).astype(np.uint8)
    ranges = subfile_ranges(placement.K, t, db.F)
    payloads = {m.subset.members: m.payload for m in messages}
    wanted = d[k - 1]
    out = np.empty(db.F, dtype=np.uint8)
    for S, (lo, hi) in ranges.items():
        if k in S:
            out[lo:hi] = cache[wanted - 1, lo:hi]
            continue
        A = tuple(sorted(S + (k,)))
        y = payloads.get(A)
        if y is None:
            y = oracle_reconstruct(payloads, d, leaders, A)
        acc = y.copy()
        for x in S:
            lo2, hi2 = ranges[tuple(v for v in A if v != x)]
            acc ^= cache[d[x - 1] - 1, lo2:hi2]
        out[lo:hi] = acc
    return out


# --- the batch gate ---------------------------------------------------------------


def assert_batch_exact(db, placement, t, d, leaders):
    K = placement.K
    messages = centralized.encode_delivery(db, placement, d, leaders)
    expected = oracle_batch_encode(db, placement, t, d, leaders)
    assert [(m.subset.members, m.subset.rank) for m in messages] == [
        (m.subset.members, m.subset.rank) for m in expected
    ]
    for got, ref in zip(messages, expected):
        assert got.payload.dtype == np.uint8
        assert got.payload.tobytes() == ref.payload.tobytes()
    for k in range(1, K + 1):
        decoded = centralized.decode_user(k, db, placement, messages, d, leaders)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, oracle_batch_decode(k, db, placement, t, expected, d, leaders))
        assert np.array_equal(decoded, db.file(d[k - 1]))


@pytest.mark.parametrize("N,K,t,F", [
    (3, 4, 2, 12),
    (3, 4, 2, 6),  # F = C(K,t): one bit per subfile
    (2, 5, 0, 4),  # t = 0: nothing cached
    (2, 5, 5, 4),  # t = K: nothing sent
    (1, 1, 0, 3),  # K = 1
    (1, 1, 1, 1),
    (4, 3, 1, 3),
    (2, 6, 3, 20),
])
def test_batch_adapters_match_oracle_every_demand(N, K, t, F):
    db = make_database(N, F, seed=100 * N + 10 * K + t)
    placement = batch_placement(N, K, t, F)
    for d in all_demands(N, K):
        assert_batch_exact(db, placement, t, d, select_leaders(d))


@st.composite
def batch_instances(draw):
    N = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    t = draw(st.integers(0, K))
    F = binomial(K, t) * draw(st.integers(1, 3))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    # any one requester per requested file may lead, not only the lowest-indexed
    leaders = frozenset(draw(st.sampled_from([x for x in range(1, K + 1) if d[x - 1] == f]))
                        for f in sorted(set(d)))
    return N, K, t, F, d, leaders, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(batch_instances())
def test_batch_adapters_match_oracle_drawn(instance):
    N, K, t, F, d, leaders, seed = instance
    db = make_database(N, F, seed)
    placement = batch_placement(N, K, t, F)
    assert_batch_exact(db, placement, t, d, leaders)
    # every user a leader: each (t+1)-subset's direct payload, as the cancellation check uses it
    everyone = frozenset(range(1, K + 1))
    got = centralized.encode_delivery(db, placement, d, everyone)
    want = oracle_batch_encode(db, placement, t, d, everyone)
    assert [m.subset for m in got] == [m.subset for m in want]
    assert all(a.payload.tobytes() == b.payload.tobytes() for a, b in zip(got, want))


def test_batch_reduction_matches_oracle(canonical_instance):
    # the engine on the sorted-code level partition of a batch placement is
    # the batch scheme too, byte for byte
    db, placement, d = canonical_instance
    leaders = select_leaders(d)
    part = decentralized.level_partition(placement, db.N, db.F)
    messages = decentralized.encode_delivery(db, part, d)
    expected = oracle_batch_encode(db, placement, CANONICAL_T, d, leaders)
    assert [m.subset for m in messages] == [m.subset for m in expected]
    assert all(a.payload.tobytes() == b.payload.tobytes() for a, b in zip(messages, expected))
    for k in range(1, placement.K + 1):
        decoded = decentralized.decode_user(k, db, placement, part, messages, d)
        assert np.array_equal(decoded, oracle_batch_decode(k, db, placement, CANONICAL_T, expected, d, leaders))
        assert np.array_equal(decoded, db.file(d[k - 1]))


# --- all users in one call ----------------------------------------------------------

K65_DEMAND = tuple(k % 3 + 1 for k in range(65))


@st.composite
def multi_user_instances(draw):
    """A batch or random placement, a demand, and any order of any subset of users."""
    N = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    if draw(st.booleans()):
        t = draw(st.integers(0, K))
        kind, param, F = "batch", t, binomial(K, t) * draw(st.integers(1, 3))
    else:
        M = draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(N)), st.fractions(0, N, max_denominator=6)))
        kind, param, F = "random", M, draw(st.integers(1, 30))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    users = tuple(draw(st.permutations(range(1, K + 1)))[: draw(st.integers(0, K))])
    return kind, N, K, param, F, d, users, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(multi_user_instances())
@example(("random", 2, 2, Fraction(0), 5, (1, 2), (2, 1), 1))  # M = 0
@example(("random", 2, 3, Fraction(2), 5, (1, 2, 2), (3, 1, 2), 2))  # M = N
@example(("batch", 1, 1, 0, 1, (1,), (1,), 3))  # K = 1, F = 1
@example(("random", 3, 4, Fraction(3, 2), 1, (3, 1, 2, 1), (4, 2), 4))  # F = 1
@example(("batch", 3, 65, 1, 65, K65_DEMAND, (65, 1, 33), 5))
@example(("random", 3, 65, Fraction(1), 24, K65_DEMAND, (64, 65, 2, 1), 6))
def test_decode_users_equals_one_user_decodes(instance):
    kind, N, K, param, F, d, users, seed = instance
    db = make_database(N, F, seed)
    if kind == "batch":
        placement = batch_placement(N, K, param, F)
    else:
        placement = decentralized.random_placement(N, K, param, F, seed + 1)
    part = placement.partition
    messages = decentralized.encode_delivery(db, part, d)
    got = decentralized.decode_users(users, db, placement, part, messages, d)
    assert len(got) == len(users)
    for k, decoded in zip(users, got):
        one = decentralized.decode_user(k, db, placement, part, messages, d)
        assert decoded.dtype == one.dtype == np.uint8
        assert np.array_equal(decoded, one)
        assert np.array_equal(decoded, db.file(d[k - 1]))


@pytest.mark.parametrize("N,K,t,d", [
    (2, 7, 2, (1, 1, 1, 1, 2, 2, 2)),
    (3, 6, 2, (1, 1, 2, 2, 3, 3)),
    (3, 8, 3, (2, 3, 2, 2, 3, 3, 2, 3)),
])
def test_each_omitted_message_is_rebuilt_once(monkeypatch, N, K, t, d):
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=K)
    placement = batch_placement(N, K, t, F)
    leaders = select_leaders(d)
    messages = centralized.encode_delivery(db, placement, d, leaders)
    rebuilt = []
    rebuild = decentralized._rebuild

    def counting(plan, terms, rows):
        assert (rows < len(plan.level.members)).all()  # rows of a stack of one demand
        rebuilt.extend(tuple(members) for members in plan.level.members[rows].tolist())
        return rebuild(plan, terms, rows)

    # the engine's decoder hands each level's omitted rows to this function
    monkeypatch.setattr(decentralized, "_rebuild", counting)
    users = range(1, K + 1)
    decoded = decentralized.decode_users(users, db, placement, placement.partition, messages, d, leaders)
    assert all(np.array_equal(got, db.file(d[k - 1])) for k, got in zip(users, decoded))
    omitted = [sid.members for sid in enumerate_subsets(K, t + 1) if leaders.isdisjoint(sid.members)]
    assert len(omitted) == binomial(K - len(set(d)), t + 1) > 0
    # one decode call hands the rebuild each omitted row once, in send order
    assert rebuilt == omitted
    # calls on the decoded broadcast hand it nothing: the rows are kept with it
    for k in users:
        rebuilt.clear()
        assert np.array_equal(centralized.decode_user(k, db, placement, messages, d, leaders), db.file(d[k - 1]))
        assert rebuilt == []
    # over one-user calls on a fresh broadcast, in any order, each omitted row
    # goes once, with the first call whose user needs it: every member of a
    # row has a non-empty batch chunk, so the first of its members to call
    fresh = centralized.encode_delivery(db, placement, d, leaders)
    order = random.Random(K).sample(users, K)
    for at, k in enumerate(order):
        rebuilt.clear()
        assert np.array_equal(centralized.decode_user(k, db, placement, fresh, d, leaders), db.file(d[k - 1]))
        assert rebuilt == [A for A in omitted if k in A and not set(order[:at]) & set(A)]
    # and over calls of two users each, who may share a row: once, in send order
    fresh = centralized.encode_delivery(db, placement, d, leaders)
    for at in range(0, K, 2):
        rebuilt.clear()
        pair = order[at : at + 2]
        got = decentralized.decode_users(pair, db, placement, placement.partition, fresh, d, leaders)
        assert np.array_equal(got, db.bits[[d[k - 1] - 1 for k in pair]])
        assert rebuilt == [A for A in omitted if set(pair) & set(A) and not set(order[:at]) & set(A)]


@pytest.mark.parametrize("forgetter", [1, 2, 5])
def test_forgetting_one_bit_spoils_only_that_user(canonical_instance, forgetter):
    # user `forgetter` loses one cached 1-bit of its wanted file after delivery;
    # decoded together with everyone else, only its own file comes out wrong
    db, placement, d = canonical_instance
    messages = centralized.encode_delivery(db, placement, d)
    wanted = d[forgetter - 1] - 1
    j = int(np.flatnonzero(placement.cached(forgetter)[wanted] & (db.bits[wanted] == 1))[0])
    codes = placement.codes.copy()
    codes[wanted, j] ^= 1 << (forgetter - 1)
    forgetful = Placement(placement.K, codes)
    users = range(1, placement.K + 1)
    decoded = decentralized.decode_users(users, db, forgetful, placement.partition, messages, d)
    wrong = [k for k, got in zip(users, decoded) if not np.array_equal(got, db.file(d[k - 1]))]
    assert wrong == [forgetter]
    assert decoded[forgetter - 1][j] != db.file(d[forgetter - 1])[j]


@pytest.mark.parametrize("users,message", [
    ([0], "user 0 is not in 1..6"),
    ([7], "user 7 is not in 1..6"),
    ([1, -1], "user -1 is not in 1..6"),
    ([2, 3, 2], "user 2 is requested twice"),
])
def test_decode_users_refuses_bad_users(canonical_instance, users, message):
    db, placement, d = canonical_instance
    messages = centralized.encode_delivery(db, placement, d)
    with pytest.raises(ValueError, match=re.escape(message)):
        decentralized.decode_users(users, db, placement, placement.partition, messages, d)
    if len(users) == 1:
        with pytest.raises(ValueError, match=re.escape(message)):
            centralized.decode_user(users[0], db, placement, messages, d)
    # the stacked entry checks its users alike, on a stack of two demands
    demands = np.array([d, d[::-1]])
    delivery = decentralized.encode_stack(db, placement.partition, demands)
    with pytest.raises(ValueError, match=re.escape(message)):
        decentralized.decode_stack(users, db, placement, placement.partition, delivery, demands)


ONE_DEMAND_ENTRIES = {
    "encode_delivery": lambda db, placement, messages, d, leaders: decentralized.encode_delivery(
        db, placement.partition, d, leaders),
    "decode_users": lambda db, placement, messages, d, leaders: decentralized.decode_users(
        [1, 2], db, placement, placement.partition, messages, d, leaders),
    "decode_user": lambda db, placement, messages, d, leaders: decentralized.decode_user(
        1, db, placement, placement.partition, messages, d, leaders),
    "centralized.encode_delivery": lambda db, placement, messages, d, leaders: centralized.encode_delivery(
        db, placement, d, leaders),
    "centralized.decode_user": lambda db, placement, messages, d, leaders: centralized.decode_user(
        1, db, placement, messages, d, leaders),
}


@pytest.mark.parametrize("entry", ONE_DEMAND_ENTRIES)
@pytest.mark.parametrize("entries, leaders, message", [
    ({1: 1.5}, None, "demand entries must be"),
    ({1: "1"}, None, "demand entries must be"),
    ({4: 0}, None, "demand entries must be"),
    ({5: 4}, None, "demand entries must be"),  # N + 1
    ({}, frozenset({0, 1, 3, 5}), "leader 0 is not in 1..6"),
    ({}, frozenset({1, 3, 5, 7}), "leader 7 is not in 1..6"),
    ({}, frozenset({1.5, 3, 5}), "leader 1.5 is not an integer"),
    ({}, frozenset({"1", 3, 5}), "leader '1' is not an integer"),
])
def test_one_demand_entries_refuse_bad_entries_and_leaders(canonical_instance, entry, entries, leaders, message):
    db, placement, d = canonical_instance
    messages = centralized.encode_delivery(db, placement, d)
    bad = tuple(entries.get(i, f) for i, f in enumerate(d))
    with pytest.raises(ValueError, match=re.escape(message)):
        ONE_DEMAND_ENTRIES[entry](db, placement, messages, bad, leaders)


@pytest.mark.parametrize("d", [(1, 1, 2, 2, 3), (1, 1, 2, 2, 3, 3, 1)])
def test_decode_users_refuses_demand_of_wrong_length(canonical_instance, d):
    db, placement, demand = canonical_instance
    messages = centralized.encode_delivery(db, placement, demand)
    with pytest.raises(ValueError, match=re.escape(f"demand length {len(d)} != K=6")):
        decentralized.decode_users([1], db, placement, placement.partition, messages, d)
    with pytest.raises(ValueError, match=re.escape(f"demand length {len(d)} != K=6")):
        centralized.decode_user(1, db, placement, messages, d)
