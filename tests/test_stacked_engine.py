"""The demand-stacked delivery engine against a loop of one-demand calls, and
corrupted deliveries and caches against the users they must spoil.

`encode_stack`/`decode_stack` handle a stack of demands in one gather per
level; `encode_delivery`/`decode_users` are their calls with a stack of one.
On random stacks (degenerate corners and K = 65 included) the two must agree
message for message, in count, payload bits, transcript lines and decoded
files. A flipped bit of one sent payload must spoil exactly the users that
read it, directly or through an omitted message it is a term of, in its
demand only; a cleared cache bit must spoil only its user.
"""

import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachekit import batch_placement, binomial, cli, decentralized, make_database
from cachekit.centralized import BroadcastMessage
from cachekit.combinatorics import SubsetId
from cachekit.model import Placement, demand_range

from conftest import subset_rank, terms_oracle

K65 = 65


def flags_of(leader_sets, K):
    return None if leader_sets is None else np.array([[k in L for k in range(1, K + 1)] for L in leader_sets])


def stacked_messages(partition, delivery, s):
    """Demand s's messages as the stacked encode sent them, in send order."""
    K = partition.K
    return [BroadcastMessage(SubsetId(tuple(level.members[r].tolist()), subset_rank(level.members[r].tolist(), K)),
                             payloads[s, r, : lengths[s, r]])
            for level, (payloads, lengths) in zip(partition.levels, delivery)
            for r in lengths[s].nonzero()[0]]


def assert_stack_matches_loop(db, placement, demands, leader_sets=None):
    K, part = placement.K, placement.partition
    flags = flags_of(leader_sets, K)
    delivery = decentralized.encode_stack(db, part, demands, flags)
    decoded = decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, demands, flags)
    assert decoded.shape == (len(demands), K, db.F) and decoded.dtype == np.uint8
    for s, d in enumerate(demands.tolist()):
        leaders = None if leader_sets is None else leader_sets[s]
        messages = decentralized.encode_delivery(db, part, d, leaders)
        stacked = stacked_messages(part, delivery, s)
        assert sum(np.count_nonzero(lengths[s]) for _, lengths in delivery) == len(messages) == len(stacked)
        assert sum(int(lengths[s].sum()) for _, lengths in delivery) == sum(len(m.payload) for m in messages)
        assert [m.transcript_line() for m in stacked] == [m.transcript_line() for m in messages]
        assert [m.subset for m in stacked] == [m.subset for m in messages]
        one = decentralized.decode_users(range(1, K + 1), db, placement, part, messages, d, leaders)
        assert np.array_equal(decoded[s], one)
        assert np.array_equal(decoded[s], db.bits[np.subtract(d, 1)])


CORNERS = ["M=0", "M=N", "t=K", "K=1", "F=1", "any"]


@st.composite
def stacks(draw):
    """A batch or random placement, often on a degenerate corner, a stack of
    demands and either the default leaders or, per demand, any non-empty set
    of each file's requesters: often one, sometimes several, while another
    requester of the same or another file may stay a non-leader."""
    corner = draw(st.sampled_from(CORNERS))
    N = draw(st.integers(1, 4))
    K = 1 if corner == "K=1" else draw(st.integers(1, 6))
    if corner == "t=K" or draw(st.booleans()):
        t = {"M=0": 0, "M=N": K, "t=K": K}.get(corner)
        if t is None:
            t = draw(st.sampled_from([0, K]) if corner == "F=1" else st.integers(0, K))
        F = 1 if corner == "F=1" else binomial(K, t) * draw(st.integers(1, 3))
        kind, param = "batch", t
    else:
        F = 1 if corner == "F=1" else draw(st.integers(1, 30))
        kind, param = "random", {"M=0": Fraction(0), "M=N": Fraction(N)}.get(corner)
        if param is None:
            param = draw(st.fractions(0, N, max_denominator=6))
    n = draw(st.integers(1, 5))
    demands = [tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K))) for _ in range(n)]
    leader_sets = None
    if draw(st.booleans()):
        leader_sets = []
        for d in demands:
            leaders = set()
            for f in sorted(set(d)):
                leaders |= draw(st.sets(st.sampled_from([x for x in range(1, K + 1) if d[x - 1] == f]), min_size=1))
            leader_sets.append(frozenset(leaders))
    return kind, N, K, param, F, demands, leader_sets, draw(st.integers(0, 2**16))


def placement_of(kind, N, K, param, F, seed):
    if kind == "batch":
        return batch_placement(N, K, param, F)
    return decentralized.random_placement(N, K, param, F, seed)


K65_DEMANDS = [tuple(k % 3 + 1 for k in range(K65)), tuple((k * 7) % 2 + 1 for k in range(K65)), (2,) * K65]


@settings(max_examples=120, deadline=None)
@given(stacks())
@example(("random", 3, 4, Fraction(0), 9, [(1, 2, 3, 1), (3, 3, 3, 3)], None, 1))  # M = 0
@example(("batch", 2, 5, 5, 3, [(2, 1, 2, 2, 1), (1, 1, 1, 1, 1)], None, 2))  # M = N, t = K
@example(("batch", 3, 1, 0, 1, [(1,), (3,), (2,)], [frozenset({1})] * 3, 3))  # K = 1, F = 1
@example(("random", 3, 6, Fraction(3, 2), 1, [(3, 1, 2, 3, 3, 1)], None, 4))  # F = 1
@example(("batch", 3, K65, 64, K65, K65_DEMANDS, None, 5))  # K = 65: Python-int codes
@example(("random", 3, K65, Fraction(1), 12, K65_DEMANDS, None, 6))
@example(("batch", 2, 6, 2, 15, [(1, 1, 2, 2, 1, 2), (2, 2, 2, 2, 2, 1)],
          [frozenset({2, 6}), frozenset({3, 6})], 7))  # leaders other than the first requesters
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3)], [frozenset({1, 2, 3, 5})], 8))  # file 1 led twice
@example(("batch", 2, 6, 2, 15, [(1, 1, 1, 1, 2, 2), (2, 1, 2, 1, 1, 2)],
          [frozenset({1, 2, 5}), frozenset({1, 2, 3})], 9))  # omitted rows whose members' file is led twice
def test_stack_equals_loop_of_one_demand_calls(instance):
    kind, N, K, param, F, demands, leader_sets, seed = instance
    db = make_database(N, F, seed)
    placement = placement_of(kind, N, K, param, F, seed + 1)
    assert_stack_matches_loop(db, placement, np.array(demands), leader_sets)


def test_every_demand_of_an_instance_in_one_stack():
    # a whole full-mode verify instance, in one stack and in stacks of 7
    N, K, t = 2, 6, 2
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=5)
    placement = batch_placement(N, K, t, F)
    demands = demand_range(0, N**K, N, K)
    assert_stack_matches_loop(db, placement, demands)
    for lo in range(0, N**K, 7):
        assert_stack_matches_loop(db, placement, demands[lo : lo + 7])


# --- corruption ---------------------------------------------------------------------


def readers_oracle(partition, d, leaders, T, bit):
    """The users whose decode reads bit `bit` of T's payload: each member of T
    whose own chunk is longer than `bit`, and each member of a leaderless
    subset A, not sent, that has T as a term and a chunk longer than `bit`."""
    def chunk(x, members):
        return len(partition.positions(tuple(y for y in members if y != x), d[x - 1]))

    readers = {x for x in T if chunk(x, T) > bit}
    K = partition.K
    for A in itertools.combinations([x for x in range(1, K + 1) if x not in leaders], len(T)):
        if T in terms_oracle(A, d, leaders):
            readers |= {x for x in A if chunk(x, A) > bit}
    return readers


@st.composite
def corruptions(draw):
    kind, N, K, param, F, demands, _, seed = draw(stacks())
    return kind, N, K, param, F, demands, seed, draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(corruptions())
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3), (1, 2, 3, 1, 2, 3)], 1, 0))
@example(("random", 2, 5, Fraction(1), 24, [(1, 1, 1, 2, 2), (2, 2, 2, 2, 2), (1, 2, 1, 2, 1)], 2, 3))
def test_flipped_payload_bit_spoils_exactly_its_readers(instance):
    kind, N, K, param, F, demands, seed, pick = instance
    db = make_database(N, F, seed)
    placement = placement_of(kind, N, K, param, F, seed + 1)
    part, demands = placement.partition, np.array(demands)
    delivery = decentralized.encode_stack(db, part, demands)
    sent = [(i, s, r) for i, (_, lengths) in enumerate(delivery) for s, r in zip(*lengths.nonzero())]
    if not sent:
        return  # nothing is broadcast
    i, s, r = sent[pick % len(sent)]
    payloads, lengths = delivery[i]
    bit = pick // len(sent) % lengths[s, r]
    payloads[s, r, bit] ^= 1
    decoded = decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, demands)
    wrong = {(t, k) for t, d in enumerate(demands.tolist()) for k in range(1, K + 1)
             if not np.array_equal(decoded[t, k - 1], db.bits[d[k - 1] - 1])}
    d = tuple(demands[s].tolist())
    T = tuple(part.levels[i].members[r].tolist())
    readers = readers_oracle(part, d, decentralized.select_leaders(d), T, bit)
    assert readers and wrong == {(s, k) for k in readers}
    # the one-demand decode of the same corrupted broadcast spoils the same users
    messages = stacked_messages(part, delivery, s)
    one = decentralized.decode_users(range(1, K + 1), db, placement, part, messages, d)
    assert {k for k in range(1, K + 1) if not np.array_equal(one[k - 1], db.bits[d[k - 1] - 1])} == readers


@settings(max_examples=80, deadline=None)
@given(corruptions())
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3), (2, 2, 1, 3, 3, 1)], 1, 4))
@example(("random", 3, 4, Fraction(3, 2), 30, [(3, 1, 2, 3), (1, 1, 1, 1)], 2, 1))
def test_cleared_cache_bit_spoils_only_its_user(instance):
    kind, N, K, param, F, demands, seed, pick = instance
    db = make_database(N, F, seed)
    placement = placement_of(kind, N, K, param, F, seed + 1)
    part, demands = placement.partition, np.array(demands)
    user = pick % K + 1
    wanted = demands[0, user - 1] - 1
    # a bit of the file `user` wants in the first demand, cached by it and 1
    held = np.flatnonzero(placement.cached(user)[wanted] & (db.bits[wanted] == 1))
    if not len(held):
        return  # the user caches no 1-bit of its file
    j = int(held[pick // K % len(held)])
    codes = placement.codes.copy()
    codes[wanted, j] ^= codes.dtype.type(1 << (user - 1)) if codes.dtype != object else 1 << (user - 1)
    forgetful = Placement(K, codes)
    delivery = decentralized.encode_stack(db, part, demands)
    decoded = decentralized.decode_stack(range(1, K + 1), db, forgetful, part, delivery, demands)
    wrong = {(t, k) for t, d in enumerate(demands.tolist()) for k in range(1, K + 1)
             if not np.array_equal(decoded[t, k - 1], db.bits[d[k - 1] - 1])}
    # the user misses the bit in every demand in which it wants that file,
    # and nobody else misses anything
    assert {k for _, k in wrong} == {user}
    assert {t for t, d in enumerate(demands.tolist()) if d[user - 1] - 1 == wanted} <= {t for t, _ in wrong}
    assert all(decoded[t, user - 1, j] == 0 for t, d in enumerate(demands.tolist()) if d[user - 1] - 1 == wanted)
    # and the one-demand decodes agree demand by demand
    for t, d in enumerate(demands.tolist()):
        one = decentralized.decode_user(user, db, forgetful, part, stacked_messages(part, delivery, t), d)
        assert np.array_equal(one, decoded[t, user - 1])


# --- some of the users -------------------------------------------------------------


@st.composite
def user_subsets(draw):
    """A drawn stack and some of its users, in any order: all but one at most."""
    instance = draw(stacks())
    K = instance[2]
    users = draw(st.permutations(range(1, K + 1)))
    return instance, tuple(users[: draw(st.integers(1, max(K - 1, 1)))])


@settings(max_examples=80, deadline=None)
@given(user_subsets())
@example((("batch", 2, 6, 2, 15, [(1, 1, 2, 2, 1, 2), (2, 2, 2, 2, 2, 1)],
           [frozenset({2, 6}), frozenset({3, 6})], 7), (5, 2)))
@example((("random", 3, 6, Fraction(3, 2), 1, [(3, 1, 2, 3, 3, 1), (1, 1, 1, 2, 2, 2)], None, 4), (5, 2)))  # F = 1
@example((("batch", 3, K65, 64, K65, K65_DEMANDS, None, 5), (65, 1, 33)))  # K = 65: Python-int codes
@example((("random", 3, K65, Fraction(1), 12, K65_DEMANDS, None, 6), (64, 2)))
def test_some_users_decode_as_their_rows_of_the_all_user_decode(instance):
    # a call for some users takes their slices of the plan's pairs grouped
    # by user: on raw stacked arrays, planned per call, and on a broadcast,
    # whose plans (and grouping) the following calls share
    (kind, N, K, param, F, demands, leader_sets, seed), users = instance
    db = make_database(N, F, seed)
    placement = placement_of(kind, N, K, param, F, seed + 1)
    part, demands, flags = placement.partition, np.array(demands), flags_of(leader_sets, K)
    delivery = decentralized.encode_stack(db, part, demands, flags)
    every = decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, demands, flags)
    assert np.array_equal(every, db.bits[demands - 1])
    columns = np.subtract(users, 1)
    got = decentralized.decode_stack(users, db, placement, part, delivery, demands, flags)
    assert np.array_equal(got, every[:, columns])
    for s, d in enumerate(demands.tolist()):
        leaders = None if leader_sets is None else leader_sets[s]
        broadcast = decentralized.encode_delivery(db, part, d, leaders)
        for call in (users, users[::-1], *([k] for k in users), users):
            got = decentralized.decode_users(call, db, placement, part, broadcast, d, leaders)
            assert np.array_equal(got, every[s, np.subtract(call, 1)])


@pytest.mark.parametrize("kind, N, K, param, F, d", [
    ("batch", 3, 6, 2, 15, (1, 1, 2, 2, 3, 3)),
    ("random", 3, 5, Fraction(1), 20, (1, 2, 1, 3, 2)),
    ("random", 2, 6, Fraction(1, 2), 30, (1, 2, 2, 1, 1, 2)),
])
def test_a_lost_row_is_named_for_exactly_the_users_that_read_it(kind, N, K, param, F, d):
    # two sent rows dropped: in every call order, each user alone (and a
    # pair of users) is told the first of them in send order that it reads,
    # directly or as a term of an omitted row it needs, and decodes if none
    db = make_database(N, F, seed=K)
    placement = placement_of(kind, N, K, param, F, K + 1)
    part = placement.partition
    leaders = decentralized.select_leaders(d)
    delivery = decentralized.encode_stack(db, part, np.array([d]))
    sent = [(i, r) for i, (_, lengths) in enumerate(delivery) for r in lengths[0].nonzero()[0].tolist()]
    rng = np.random.default_rng(K)
    outcomes = set()
    for _ in range(6):
        dropped = sorted(sent[j] for j in rng.choice(len(sent), size=2, replace=False))
        members = [tuple(part.levels[i].members[r].tolist()) for i, r in dropped]
        read = [readers_oracle(part, d, leaders, T, 0) for T in members]
        arrays = [(payloads.copy(), lengths.copy()) for payloads, lengths in delivery]
        for i, r in dropped:
            arrays[i][1][0, r] = 0
        broadcast = decentralized.Broadcast(part, arrays)
        order = rng.permutation(np.arange(1, K + 1)).tolist()
        for users in [[k] for k in order] + [order[:2]]:
            named = next((T for T, readers in zip(members, read) if readers & set(users)), None)
            outcomes.add(named is None)
            if named is None:
                got = decentralized.decode_users(users, db, placement, part, broadcast, d)
                assert np.array_equal(got, db.bits[np.subtract(d, 1)][np.subtract(users, 1)])
            else:
                with pytest.raises(decentralized.DecodeError) as lost:
                    decentralized.decode_users(users, db, placement, part, broadcast, d)
                assert lost.value.subset == named
    assert outcomes == {True, False}  # some calls are told of a lost row, some decode


def test_a_repeat_decode_keeps_the_stack_only_for_the_same_arrays(monkeypatch):
    # the checked stack and its leader table are kept for a repeat call; a
    # call that changes only the leaders, only one demand entry or only the
    # demands' integer type checks its stack anew, and every call decodes
    N, K, t = 3, 6, 2
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=2)
    placement = batch_placement(N, K, t, F)
    part = placement.partition
    checked = []
    stack = decentralized._stack

    def counting(*args):
        checked.append(args[1].tolist())
        return stack(*args)

    monkeypatch.setattr(decentralized, "_stack", counting)
    d, other = (1, 1, 2, 2, 3, 3), (2, 1, 2, 2, 3, 3)
    for demand, leaders, anew in [(d, None, True), (d, None, False), (d, frozenset({2, 4, 6}), True),
                                  (d, frozenset({2, 4, 6}), False), (other, frozenset({2, 4, 6}), True),
                                  (other, frozenset({2, 4, 6}), False), (d, None, True)]:
        broadcast = decentralized.encode_delivery(db, part, demand, leaders)
        checked.clear()
        for k in range(1, K + 1):
            got = decentralized.decode_user(k, db, placement, part, broadcast, demand, leaders)
            assert np.array_equal(got, db.file(demand[k - 1]))
        assert checked == ([[list(demand)]] if anew else [])
    demands = np.array([d, other])
    delivery = decentralized.encode_stack(db, part, demands)
    for typed, anew in [(demands, True), (demands.copy(), False), (demands.astype(np.uint8), True)]:
        checked.clear()
        got = decentralized.decode_stack([3, 1], db, placement, part, delivery, typed)
        assert np.array_equal(got, db.bits[demands[:, [2, 0]] - 1])
        assert len(checked) == anew


def test_stack_refuses_bad_demands():
    N, K, t = 3, 4, 2
    F = binomial(K, t)
    db = make_database(N, F, seed=1)
    placement = batch_placement(N, K, t, F)
    part = placement.partition
    for demands, message in [
        (np.ones((2, 3), dtype=int), r"shape \(2, 3\), expected \(n, K=4\)"),
        (np.ones(4, dtype=int), r"shape \(4,\), expected \(n, K=4\)"),
        (np.array([[1, 2, 3, 4]]), r"integers in 1..3"),
        (np.array([[0, 1, 1, 1]]), r"integers in 1..3"),
        (np.ones((1, 4)), r"integers in 1..3"),
    ]:
        with pytest.raises(ValueError, match=message):
            decentralized.encode_stack(db, part, demands)
        with pytest.raises(ValueError, match=message):
            decentralized.decode_stack([1], db, placement, part, [], demands)
    with pytest.raises(ValueError, match=r"leader flags have shape \(1, 3\)"):
        decentralized.encode_stack(db, part, np.ones((1, 4), dtype=int), np.ones((1, 3), dtype=bool))


def test_a_delivery_missing_levels_is_refused():
    # an empty list, and encode_stack's list short of its last two levels,
    # used to decode every file wrong without a word
    N, K, t, F = 3, 5, 2, 20
    db = make_database(N, F, seed=1)
    placement = batch_placement(N, K, t, F)
    d = np.array([(1, 2, 3, 1, 2)])
    with pytest.raises(ValueError, match="the delivery has 0 levels, the partition 1"):
        decentralized.decode_stack(range(1, K + 1), db, placement, placement.partition, [], d)
    F = 40
    db = make_database(N, F, seed=2)
    placement = decentralized.random_placement(N, K, 1, F, seed=4)
    part = placement.partition
    delivery = decentralized.encode_stack(db, part, d)
    levels = len(part.levels)
    assert levels > 2
    with pytest.raises(ValueError, match=f"the delivery has {levels - 2} levels, the partition {levels}"):
        decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery[:-2], d)
    decoded = decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, d)
    assert np.array_equal(decoded[0], db.bits[d[0] - 1])


def test_a_level_of_the_wrong_shape_is_refused():
    # each level's payloads must be (n, n_T, L) and its lengths (n, n_T)
    N, K, F = 3, 5, 60
    db = make_database(N, F, seed=1)
    placement = decentralized.random_placement(N, K, 1, F, seed=2)
    part = placement.partition
    demands = np.array([(1, 2, 3, 1, 2), (2, 2, 1, 3, 3)])
    delivery = decentralized.encode_stack(db, part, demands)
    (n_T, _), width = part.levels[1].members.shape, part.levels[1].positions.shape[1]
    payloads, lengths = delivery[1]
    expected = f"expected {(2, n_T, width)} and {(2, n_T)}"
    for bad in [(payloads[:, :, :-1], lengths), (payloads, lengths[:, :-1]), (payloads[:1], lengths[:1])]:
        message = f"level 1 of the delivery has payloads {bad[0].shape} and lengths {bad[1].shape}, {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            decentralized.decode_stack([1, 2], db, placement, part, [delivery[0], bad, *delivery[2:]], demands)
    # one demand's arrays decoded as a stack of two
    with pytest.raises(ValueError, match=re.escape("level 0 of the delivery has payloads (1, ")):
        decentralized.decode_stack([1], db, placement, part, [(p[:1], n[:1]) for p, n in delivery], demands)


def lowest_flagged_oracle(demands, flags):
    """Per demand and user, the lowest-indexed flagged user requesting the
    same file, K + 1 if there is none."""
    K = len(flags[0])
    return [[min((y for y in range(1, K + 1) if row[y - 1] and d[y - 1] == f), default=K + 1) for f in d]
            for d, row in zip(demands, flags)]


@settings(max_examples=150, deadline=None)
@given(stacks(), st.integers(0, 2**16))
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3), (3, 1, 1, 2, 2, 3)], [frozenset({1, 3, 5}), frozenset({1, 4})],
          1), 0)  # the second demand's flags miss file 1
def test_stack_leader_table_matches_the_oracles(instance, pick):
    # default flags are `select_leaders`; the table is each user's lowest
    # flagged fellow requester; given flags pass iff they cover every file
    kind, N, K, param, F, demands, leader_sets, seed = instance
    part = placement_of(kind, N, K, param, F, seed + 1).partition
    _, flags, _, lowest = decentralized._stack(part, np.array(demands), None)
    assert [set((np.flatnonzero(row) + 1).tolist()) for row in flags] == [
        decentralized.select_leaders(d) for d in demands]
    assert lowest.tolist() == lowest_flagged_oracle(demands, flags.tolist())
    given = flags if leader_sets is None else flags_of(leader_sets, K)
    if pick % 2:  # clear some flags, which may leave a file without a leader
        given = given & (np.random.default_rng(pick).random(given.shape) < 0.6)
    table = lowest_flagged_oracle(demands, given.tolist())
    uncovered = [(s, x) for s, row in enumerate(table) for x in range(K) if row[x] > K]
    if not uncovered:
        _, got, _, lowest = decentralized._stack(part, np.array(demands), given)
        assert np.array_equal(got, given) and lowest.tolist() == table
    else:
        s, x = uncovered[0]
        with pytest.raises(ValueError, match=re.escape(f"demand {demands[s]} hold no requester of file "
                                                       f"{demands[s][x]}")):
            decentralized._stack(part, np.array(demands), given)


def test_each_omitted_message_of_a_stack_is_rebuilt_once(monkeypatch):
    # one stacked decode of every user hands the rebuild each (demand,
    # omitted subset) once: C(K - distinct, t + 1) rows per demand
    N, K, t = 3, 7, 2
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=9)
    placement = batch_placement(N, K, t, F)
    demands = np.array([(1, 1, 2, 2, 3, 3, 1), (2, 2, 2, 2, 2, 2, 2), (1, 2, 3, 1, 2, 3, 1), (3, 1, 1, 1, 1, 2, 2)])
    handed = []
    rebuild = decentralized._rebuild

    def counting(plan, terms, rows):
        handed.extend(divmod(int(r), len(plan.level.members)) for r in rows)
        return rebuild(plan, terms, rows)

    monkeypatch.setattr(decentralized, "_rebuild", counting)
    delivery = decentralized.encode_stack(db, placement.partition, demands)
    decoded = decentralized.decode_stack(range(1, K + 1), db, placement, placement.partition, delivery, demands)
    assert np.array_equal(decoded, db.bits[demands - 1])
    assert len(handed) == len(set(handed)) == sum(binomial(K - len(set(d)), t + 1) for d in demands.tolist())
    level = placement.partition.levels[0]
    for s, r in handed:
        leaders = decentralized.select_leaders(tuple(demands[s].tolist()))
        assert leaders.isdisjoint(level.members[r].tolist())


def test_each_level_term_table_is_built_once_per_stack(monkeypatch):
    # the K one-user decodes of one demand build the terms of each level that
    # has an omitted row once, and never a level without one
    N, K, F = 3, 7, 40
    db = make_database(N, F, seed=3)
    placement = decentralized.random_placement(N, K, 1, F, seed=4)
    part = placement.partition
    built = []
    level_terms = decentralized._level_terms

    def counting(plan, *args):
        built.append(next(i for i, level in enumerate(part.levels) if level is plan.level))
        return level_terms(plan, *args)

    monkeypatch.setattr(decentralized, "_level_terms", counting)

    def omitted_levels(d, leaders):
        def chunk(x, members):
            return len(part.positions(tuple(y for y in members if y != x), d[x - 1]))

        return {i for i, level in enumerate(part.levels) for A in level.members.tolist()
                if leaders.isdisjoint(A) and any(chunk(x, A) for x in A)}

    def decode_each_user(d, leaders=None):
        built.clear()
        messages = decentralized.encode_delivery(db, part, d, leaders)
        for k in range(1, K + 1):
            decoded = decentralized.decode_user(k, db, placement, part, messages, d, leaders)
            assert np.array_equal(decoded, db.file(d[k - 1]))
        return sorted(built)

    d = (1, 2, 3, 1, 2, 3, 1)
    wanted = omitted_levels(d, decentralized.select_leaders(d))
    assert wanted and set(range(len(part.levels))) - wanted  # some levels have omitted rows, some not
    assert decode_each_user(d) == sorted(wanted)
    assert decode_each_user(d) == []  # the same stack again: the tables are kept
    # another demand, and the same demand with other leaders, build them anew
    other = (2, 2, 1, 1, 3, 3, 3)
    assert decode_each_user(other) == sorted(omitted_levels(other, decentralized.select_leaders(other)))
    last = frozenset({5, 6, 7})  # the highest-indexed requester of each file
    assert decode_each_user(d, last) == sorted(omitted_levels(d, last))
    assert decode_each_user(d) == sorted(wanted)


def test_leaders_must_cover_every_requested_file():
    N, K, t = 3, 6, 2
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=1)
    placement = batch_placement(N, K, t, F)
    part, d = placement.partition, (1, 1, 2, 2, 3, 3)
    # a one-demand leader set with no requester of files 2 and 3
    for call in (lambda: decentralized.encode_delivery(db, part, d, frozenset({1})),
                 lambda: decentralized.decode_user(2, db, placement, part, [], d, frozenset({1}))):
        with pytest.raises(ValueError, match=r"demand \(1, 1, 2, 2, 3, 3\) hold no requester of file 2"):
            call()
    # stacked flags: the second demand's leaders miss file 1
    demands = np.array([d, (3, 1, 1, 2, 2, 3)])
    flags = flags_of([{1, 3, 5}, {1, 4}], K)
    with pytest.raises(ValueError, match=r"demand \(3, 1, 1, 2, 2, 3\) hold no requester of file 1"):
        decentralized.encode_stack(db, part, demands, flags)
    with pytest.raises(ValueError, match=r"demand \(3, 1, 1, 2, 2, 3\) hold no requester of file 1"):
        decentralized.decode_stack([1], db, placement, part, [], demands, flags)
    # flags that cover every file pass, whatever the demands' integer type
    flags = flags_of([{1, 3, 5}, {1, 2, 4}], K)
    for dtype in (np.uint8, np.uint64, np.int32):
        typed = demands.astype(dtype)
        delivery = decentralized.encode_stack(db, part, typed, flags)
        decoded = decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, typed, flags)
        assert np.array_equal(decoded, db.bits[demands - 1])
    # a superset of one requester per file stays valid: every user a leader
    everyone = frozenset(range(1, K + 1))
    messages = decentralized.encode_delivery(db, part, d, everyone)
    assert len(messages) == binomial(K, t + 1)
    for k in range(1, K + 1):
        assert np.array_equal(decentralized.decode_user(k, db, placement, part, messages, d, everyone),
                              db.file(d[k - 1]))


# --- block boundaries, sparse levels and the stack budget -----------------------------


SMALL_BLOCK_CASES = [
    # batch t = 0: a row's one member has no partners, an empty leading axis
    ("batch", 3, 5, 0, 2, [(1, 2, 3, 1, 2), (3, 3, 3, 3, 3), (2, 1, 1, 2, 3)]),
    # batch t = K - 1: one level of K-member rows
    ("batch", 2, 6, 5, 12, [(1, 2, 1, 2, 1, 2), (2, 2, 2, 2, 2, 1), (1, 1, 2, 2, 2, 2)]),
    ("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3), (1, 2, 3, 1, 2, 3), (3, 1, 1, 1, 1, 2), (2, 2, 2, 2, 2, 2)]),
    # decentralized F = 1, and a many-level placement whose omitted rows span blocks
    ("random", 3, 6, Fraction(3, 2), 1, [(3, 1, 2, 3, 3, 1), (1, 1, 1, 2, 2, 2)]),
    ("random", 3, 7, Fraction(1), 40, [(1, 2, 3, 1, 2, 3, 1), (2, 2, 1, 1, 3, 3, 3), (1, 1, 1, 1, 2, 2, 2)]),
    # K = 65: Python-int codes
    ("batch", 3, K65, 64, K65, K65_DEMANDS),
    ("random", 3, K65, Fraction(1), 12, K65_DEMANDS),
]


@pytest.mark.parametrize("kind, N, K, param, F, demands", SMALL_BLOCK_CASES)
def test_small_blocks_match_the_loop(monkeypatch, kind, N, K, param, F, demands):
    # every gather, term count and rebuild split into blocks of a few rows
    monkeypatch.setattr(decentralized, "_BLOCK", 64)
    db = make_database(N, F, seed=K)
    placement = placement_of(kind, N, K, param, F, K + 1)
    assert_stack_matches_loop(db, placement, np.array(demands))


def test_a_dropped_row_names_the_same_subset_in_small_blocks(monkeypatch):
    N, K, F = 3, 7, 40
    db = make_database(N, F, seed=3)
    placement = decentralized.random_placement(N, K, 1, F, seed=4)
    part = placement.partition
    demands = np.array([(1, 2, 3, 1, 2, 3, 1), (2, 2, 1, 1, 3, 3, 3), (1, 1, 1, 1, 2, 2, 2), (3, 2, 1, 3, 2, 1, 1)])
    sent = [(i, s, r) for i, (_, lengths) in enumerate(decentralized.encode_stack(db, part, demands))
            for s, r in zip(*lengths.nonzero())]
    rng = np.random.default_rng(5)
    for _ in range(12):
        dropped = [sent[k] for k in rng.choice(len(sent), size=2, replace=False)]
        named = []
        for block in (decentralized._BLOCK, 64):
            monkeypatch.setattr(decentralized, "_BLOCK", block)
            delivery = decentralized.encode_stack(db, part, demands)
            for i, s, r in dropped:
                delivery[i][1][s, r] = 0
            with pytest.raises(decentralized.DecodeError) as lost:
                decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, demands)
            named.append(lost.value.subset)
        # every sent row is needed by one of its members: the first dropped
        # in send order (level, then demand, then row) is named
        i, _, r = min(dropped)
        assert named == [tuple(part.levels[i].members[r].tolist())] * 2


def test_sparse_level_rebuilds_are_bit_exact():
    # the level of 7-member rows holds 784 of the C(12, 7) = 792 subsets, so
    # some omitted rows have a cancellation term absent from the index (an
    # empty message) while terms that swap more of their members are present
    N, K, F = 3, 12, 2000
    placement = decentralized.random_placement(N, K, 1, F, seed=0)
    part = placement.partition
    d = (1, 2, 3, 1, 2, 3, 1, 1, 2, 3, 3, 2)
    leaders = decentralized.select_leaders(d)
    level = next(level for level in part.levels if level.members.shape[1] == 7)
    present = {tuple(row) for row in level.members.tolist()}
    assert len(present) == 784 < binomial(K, 7)

    def chunk(x, members):
        return len(part.positions(tuple(y for y in members if y != x), d[x - 1]))

    sparse = set()
    for A in present:
        if not leaders.isdisjoint(A) or not any(chunk(x, A) for x in A):
            continue  # sent, or empty: not rebuilt
        swapped = {T: set(A) - set(T) for T in terms_oracle(A, d, leaders)}
        if any(swapped[T] < swapped[S] for T in swapped if T not in present for S in swapped if S in present):
            sparse.add(A)
    assert {(4, 5, 6, 7, 8, 10, 11), (5, 6, 7, 8, 9, 10, 12)} <= sparse
    db = make_database(N, F, seed=1)
    messages = decentralized.encode_delivery(db, part, d)
    decoded = decentralized.decode_users(range(1, K + 1), db, placement, part, messages, d)
    assert np.array_equal(decoded, db.bits[np.subtract(d, 1)])


@pytest.mark.parametrize("kind, N, K, param, F, demands, leader_sets, seed", [
    ("random", 3, 12, 1, 2000, [(1, 2, 3, 1, 2, 3, 1, 1, 2, 3, 3, 2)], None, 0),  # the sparse levels above
    ("batch", 2, 6, 2, 15, [(1, 1, 2, 2, 1, 2), (2, 2, 2, 2, 2, 1)], [frozenset({2, 6}), frozenset({3, 6})], 7),
])
def test_each_term_table_holds_exactly_its_levels_terms(kind, N, K, param, F, demands, leader_sets, seed):
    # row for row with the omitted rows (demand * n_T + row, ascending): the
    # rows of the terms the level holds, leftmost, then the zero row up to
    # the table's width, the most terms any row has
    placement = placement_of(kind, N, K, param, F, seed)
    part = placement.partition
    db = make_database(N, F, seed=1)
    flags = flags_of(leader_sets, K)
    delivery = decentralized.encode_stack(db, part, np.array(demands), flags)
    decentralized.decode_stack(range(1, K + 1), db, placement, part, delivery, np.array(demands), flags)
    tables = 0
    for i, level in enumerate(part.levels):
        n_T = len(level.members)
        zero = len(demands) * n_T
        present = {tuple(row) for row in level.members.tolist()}
        expected = []
        for s, d in enumerate(demands):
            leaders = decentralized.select_leaders(d) if leader_sets is None else leader_sets[s]
            for A in level.members.tolist():
                if leaders.isdisjoint(A) and any(len(part.positions([y for y in A if y != x], d[x - 1])) for x in A):
                    expected.append({(s, T) for T in terms_oracle(A, d, leaders) if T in present})
        if not expected:
            continue
        table = part.decode_cache[i]
        assert table.shape == (len(expected), max(map(len, expected)))
        for row, terms in zip(table.tolist(), expected):
            assert row == sorted(row, key=lambda e: e == zero)  # the terms leftmost
            held = [(e // n_T, tuple(level.members[e % n_T].tolist())) for e in row if e != zero]
            assert len(held) == len(terms) and set(held) == terms
        tables += 1
    assert tables


def test_term_tables_of_a_sparse_partition_stay_small():
    # at K=32 almost none of an omitted row's terms are rows of its level;
    # tables with a zero-row entry for each of them took 6.4 MB
    N, K, F = 3, 32, 3000
    placement = decentralized.random_placement(N, K, 1, F, seed=1)
    part = placement.partition
    d = tuple(np.random.default_rng(3).integers(1, 4, size=K).tolist())
    db = make_database(N, F, seed=1)
    messages = decentralized.encode_delivery(db, part, d)
    decoded = decentralized.decode_users(range(1, K + 1), db, placement, part, messages, d)
    assert np.array_equal(decoded, db.bits[np.subtract(d, 1)])
    assert sum(table.nbytes for i, table in part.decode_cache.items() if isinstance(i, int)) < 1 << 20


# the temporaries budget `decentralized.stack_size` documents
STACK_BUDGET = 2 << 20


@pytest.mark.parametrize("N, K, t", [(2, 8, 1), (2, 7, 2), (3, 6, 5), (2, 13, 11)])
def test_a_stack_stays_within_the_temporaries_budget(N, K, t):
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=1)
    placement = batch_placement(N, K, t, F)
    size = decentralized.stack_size(placement.partition, K)
    demands = demand_range(0, min(size, N**K), N, K)
    cli._check_block(db, placement, t, demands)  # builds the delivery index
    placement.partition.decode_cache.clear()  # each new stack counts its terms anew
    tracemalloc.start()
    try:
        reasons = cli._check_block(db, placement, t, demands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reasons == [""] * len(demands)
    assert peak < STACK_BUDGET
    if K < 13:
        assert N**K <= 2 * size  # a full verify of these is one or two stacks
