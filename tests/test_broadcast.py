"""`Broadcast`, the one delivery representation, against the message lists
it stands for.

`encode_delivery` returns a `Broadcast` over `encode_stack`'s arrays for one
demand. As a sequence it must be the list of sent messages, in send order,
count and payload bits included; and a decoder must give the same files (or
name the same lost subset) whether it reads the `Broadcast`'s arrays or a
list of messages: the broadcast itself, shuffled, with duplicates, with a
foreign subset or an over-long payload, with wrong ranks (a message is
placed by its members), after messages whose members are not distinct users
in 1..K, or with one message missing.

A `Broadcast`'s arrays are read-only, and it keeps nothing of a decode:
its partition keeps the plans of the last broadcast decoded, for the last
demand and leaders, so that one-user calls share them. Whatever the calls
before, a call must decode what the same call on the message list (which
keeps nothing) decodes: in any user order, alternating between two
broadcasts, for another demand or leader set, with a forgetful placement,
or with a lost row, which every user that needs it must name. The engine
refuses a `Broadcast` of another partition or of a stack of one demand
decoded as a larger stack.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from cachekit import (Broadcast, BroadcastMessage, DecodeError, batch_placement, binomial, centralized, decentralized,
                      make_database)
from cachekit.model import Placement
from cachekit.combinatorics import SubsetId

from test_stacked_engine import K65, K65_DEMANDS, placement_of, stacked_messages, stacks


def one_demand(instance):
    """The first demand of a drawn stack, its leaders, database and placement."""
    kind, N, K, param, F, demands, leader_sets, seed = instance
    db = make_database(N, F, seed)
    placement = placement_of(kind, N, K, param, F, seed + 1)
    return db, placement, demands[0], None if leader_sets is None else leader_sets[0], seed


def decode(db, placement, messages, d, leaders, users):
    """The decoded files, or the subset a `DecodeError` names."""
    try:
        return decentralized.decode_users(users, db, placement, placement.partition, messages, d, leaders)
    except DecodeError as err:
        return err.subset


def same(a, b):
    return a == b if isinstance(a, tuple) or isinstance(b, tuple) else np.array_equal(a, b)


def without(broadcast, lost):
    """A copy of the broadcast's arrays with the row of message `lost` unsent."""
    delivery = [(payloads.copy(), lengths.copy()) for payloads, lengths in broadcast.delivery]
    members = lost.subset.members
    for level, (_, lengths) in zip(broadcast.partition.levels, delivery):
        if level.members.shape[1] == len(members):
            code = np.array([sum(1 << (x - 1) for x in members)], dtype=level.codes.dtype)
            lengths[0, level.rows_of(code)] = 0
    return Broadcast(broadcast.partition, delivery)


@settings(max_examples=100, deadline=None)
@given(stacks())
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3)], None, 1))
@example(("random", 3, 4, Fraction(3, 2), 30, [(3, 1, 2, 3)], None, 2))
@example(("batch", 3, K65, 64, K65, K65_DEMANDS, None, 5))  # K = 65: Python-int codes
@example(("random", 3, K65, Fraction(1), 12, K65_DEMANDS, None, 6))
def test_broadcast_is_its_message_list(instance):
    db, placement, d, leaders, _ = one_demand(instance)
    part = placement.partition
    broadcast = decentralized.encode_delivery(db, part, d, leaders)
    assert isinstance(broadcast, Broadcast) and broadcast.partition is part
    flags = None if leaders is None else np.array([[k in leaders for k in range(1, placement.K + 1)]])
    want = stacked_messages(part, decentralized.encode_stack(db, part, np.array([d]), flags), 0)
    messages = list(broadcast)
    assert len(broadcast) == len(messages) == len(want)
    assert [m.transcript_line() for m in messages] == [m.transcript_line() for m in want]
    assert [m.subset for m in messages] == [m.subset for m in want]
    assert broadcast.payload_bits == sum(len(m.payload) for m in want)
    assert decentralized.delivered_rate(broadcast, db.F) == decentralized.delivered_rate(want, db.F)
    for j in [0, len(want) // 2, len(want) - 1, -1, -len(want)] if want else []:
        assert broadcast[j].subset == want[j].subset
        assert np.array_equal(broadcast[j].payload, want[j].payload)
    assert [m.subset for m in broadcast[1::2]] == [m.subset for m in want[1::2]]
    for j in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            broadcast[j]


@settings(max_examples=100, deadline=None)
@given(stacks())
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3)], None, 1))
@example(("batch", 2, 6, 2, 15, [(1, 1, 2, 2, 1, 2)], [frozenset({2, 6})], 7))
@example(("random", 3, 5, Fraction(1), 20, [(1, 2, 1, 3, 2)], None, 3))
@example(("random", 3, K65, Fraction(1), 12, K65_DEMANDS, None, 6))
def test_every_representation_decodes_alike(instance):
    db, placement, d, leaders, seed = one_demand(instance)
    part, K = placement.partition, placement.K
    rng = random.Random(seed)
    users = sorted(rng.sample(range(1, K + 1), rng.randint(1, K)))
    broadcast = decentralized.encode_delivery(db, part, d, leaders)
    want = decode(db, placement, broadcast, d, leaders, users)
    assert np.array_equal(want, db.bits[np.subtract(d, 1)][np.subtract(users, 1)])
    messages = list(broadcast)
    shuffled = rng.sample(messages, len(messages))
    # a wrong payload first, the right one last: the last message of a subset wins
    duplicated = [BroadcastMessage(m.subset, m.payload ^ 1) for m in messages] + shuffled
    # a subset no level has a row for, and payloads longer than their level
    widths = {level.members.shape[1]: level.positions.shape[1] for level in part.levels}
    padded = [BroadcastMessage(m.subset, np.concatenate([m.payload, np.zeros(widths[len(m.subset.members)]
                                                                            - len(m.payload), np.uint8),
                                                         np.ones(3, np.uint8)]))
              for m in messages]
    foreign = [BroadcastMessage(SubsetId(tuple(range(1, K + 2)), 0), np.ones(4, np.uint8))] + padded
    # a message is placed by its members, whatever its rank says
    reranked = [BroadcastMessage(SubsetId(m.subset.members, m.subset.rank + 1), m.payload) for m in messages]
    # members that are not distinct users in 1..K name no row: after the
    # right messages, with wrong payloads, they must be ignored
    invalid = messages + [BroadcastMessage(SubsetId(T, 0), m.payload ^ 1) for m in messages
                          for T in [(0,) + m.subset.members[1:], m.subset.members[:-1] + (K + 1,),
                                    m.subset.members[:1] + m.subset.members[:-1]]
                          if len(set(T)) < len(T) or not set(T) <= set(range(1, K + 1))]
    for variant in (messages, shuffled, duplicated, foreign, reranked, invalid):
        assert same(decode(db, placement, variant, d, leaders, users), want)
    if messages:
        lost = messages[rng.randrange(len(messages))]
        rest = [m for m in messages if m is not lost]
        got = decode(db, placement, rest, d, leaders, range(1, K + 1))
        assert isinstance(got, tuple) and got == lost.subset.members
        # and the engine reading arrays with that row unsent names the same subset
        assert decode(db, placement, without(broadcast, lost), d, leaders, range(1, K + 1)) == got


def test_a_broadcast_of_another_partition_is_read_as_messages():
    # an equal partition that is not the same object: the messages are placed
    # by subset, so the decode is the same
    N, K, t, F = 3, 5, 2, 20
    db = make_database(N, F, seed=4)
    placement = batch_placement(N, K, t, F)
    d = (1, 2, 2, 3, 1)
    other = decentralized.level_partition(placement, N, F)
    broadcast = decentralized.encode_delivery(db, other, d)
    got = decentralized.decode_users(range(1, K + 1), db, placement, placement.partition, broadcast, d)
    assert np.array_equal(got, db.bits[np.subtract(d, 1)])


# --- the decode plans the partition keeps -------------------------------------


def test_a_broadcasts_arrays_are_read_only():
    N, K, t = 3, 5, 2
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=2)
    placement = batch_placement(N, K, t, F)
    d = (1, 2, 2, 3, 1)
    broadcast = decentralized.encode_delivery(db, placement.partition, d)
    for payloads, lengths in broadcast.delivery:
        for array in (payloads, lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        broadcast[0].payload[0] ^= 1
    # the engine's own arrays stay writable
    delivery = decentralized.encode_stack(db, placement.partition, np.array([d]))
    assert all(payloads.flags.writeable and lengths.flags.writeable for payloads, lengths in delivery)


def test_a_broadcast_is_only_its_arrays():
    # decoded user by user, then all at once, a broadcast holds its partition,
    # its arrays and its sent rows, and no plan
    N, K, F = 3, 6, 300
    db = make_database(N, F, seed=3)
    placement = decentralized.random_placement(N, K, 1, F, seed=4)
    d = (1, 2, 3, 1, 2, 3)
    broadcast = decentralized.encode_delivery(db, placement.partition, d)
    assert len(broadcast) > 0
    for users in [[k] for k in range(1, K + 1)] + [range(1, K + 1)]:
        got = decode(db, placement, broadcast, d, None, users)
        assert np.array_equal(got, db.bits[np.subtract(d, 1)][np.subtract(users, 1)])
    assert set(vars(broadcast)) == {"partition", "delivery", "_sent"}


def test_two_broadcasts_of_one_partition_decode_alternately():
    # one-user calls switching between two broadcasts of one stack (the second
    # of another database) and of another demand: each call decodes its own
    N, K, F = 3, 5, 240
    placement = decentralized.random_placement(N, K, 1, F, seed=5)
    part = placement.partition
    first, second = make_database(N, F, seed=6), make_database(N, F, seed=7)
    d, other = (1, 2, 3, 1, 2), (3, 3, 1, 2, 1)
    sent = [(first, d, decentralized.encode_delivery(first, part, d)),
            (second, d, decentralized.encode_delivery(second, part, d)),
            (first, other, decentralized.encode_delivery(first, part, other))]
    for k in [1, 2, 3, 4, 5, 5, 3, 1]:
        for db, demand, broadcast in sent:
            got = decentralized.decode_user(k, db, placement, part, broadcast, demand)
            assert np.array_equal(got, db.file(demand[k - 1]))


def test_a_broadcast_of_another_partition_is_refused_by_the_engine():
    # decode_stack reads a broadcast's arrays, which only its own partition
    # lays out: a foreign one used to fail deep in numpy, and once its own
    # partition had decoded it, to decode 4 wrong files without a word
    N, K, F = 3, 4, 600
    d = np.array([(1, 2, 3, 1)])
    db = make_database(N, F, seed=1)
    own = decentralized.random_placement(N, K, 1, F, seed=1)
    other = decentralized.random_placement(N, K, 1, F, seed=2)
    broadcast = decentralized.encode_delivery(db, own.partition, d[0])
    for _ in range(2):
        with pytest.raises(ValueError, match="another partition"):
            decentralized.decode_stack(range(1, K + 1), db, other, other.partition, broadcast, d)
        decoded = decentralized.decode_stack(range(1, K + 1), db, own, own.partition, broadcast, d)
        assert np.array_equal(decoded[0], db.bits[d[0] - 1])
    # decode_users places a foreign broadcast's messages by members
    got = decentralized.decode_users(range(1, K + 1), db, other, other.partition, broadcast, d[0])
    assert got.shape == (K, F)


def test_a_broadcast_decoded_as_a_larger_stack_is_refused():
    N, K, t = 3, 5, 2
    F = 2 * binomial(K, t)
    db = make_database(N, F, seed=2)
    placement = batch_placement(N, K, t, F)
    d = (1, 2, 2, 3, 1)
    broadcast = decentralized.encode_delivery(db, placement.partition, d)
    with pytest.raises(ValueError, match="a broadcast holds one demand, not a stack of 2"):
        decentralized.decode_stack([1], db, placement, placement.partition, broadcast, np.array([d, d]))


@settings(max_examples=60, deadline=None)
@given(stacks())
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3)], None, 1))
@example(("batch", 2, 6, 2, 15, [(1, 1, 2, 2, 1, 2)], [frozenset({2, 6})], 7))
@example(("random", 3, 5, Fraction(1), 20, [(1, 2, 1, 3, 2)], None, 3))
@example(("random", 3, K65, Fraction(1), 12, K65_DEMANDS, None, 6))
def test_one_user_calls_share_the_broadcasts_plan(instance):
    # each user alone, in a shuffled order and again, then all users in one
    # call, on one broadcast: the files of a decode of its message list
    db, placement, d, leaders, seed = one_demand(instance)
    K = placement.K
    broadcast = decentralized.encode_delivery(db, placement.partition, d, leaders)
    want = decode(db, placement, list(broadcast), d, leaders, range(1, K + 1))
    assert np.array_equal(want, db.bits[np.subtract(d, 1)])
    order = random.Random(seed).sample(range(1, K + 1), K)
    for k in order + order:
        assert np.array_equal(decode(db, placement, broadcast, d, leaders, [k]), want[[k - 1]])
    assert np.array_equal(decode(db, placement, broadcast, d, leaders, range(1, K + 1)), want)


def test_a_broadcast_decoded_for_other_stacks_stays_exact():
    # the plan is kept for the last demand and leaders: decoding the same
    # broadcast for another demand, then with other leaders, then as sent,
    # gives in every call what a decode of the message list gives
    N, K, F = 3, 7, 60
    db = make_database(N, F, seed=8)
    placement = decentralized.random_placement(N, K, 1, F, seed=9)
    # `other` has the same first requesters as d, 1, 2 and 3, so only the
    # demand tells their plans apart
    d, other = (1, 2, 3, 1, 2, 3, 1), (3, 1, 2, 2, 1, 3, 3)
    last = frozenset({5, 6, 7})  # the highest-indexed requester of each file of d
    broadcast = decentralized.encode_delivery(db, placement.partition, d)
    messages = list(broadcast)
    for demand, leaders in [(d, None), (other, None), (d, last), (d, None)]:
        for k in range(1, K + 1):
            got = decode(db, placement, broadcast, demand, leaders, [k])
            assert same(got, decode(db, placement, messages, demand, leaders, [k]))
            if demand == d and leaders is None:
                assert np.array_equal(got, db.bits[[d[k - 1] - 1]])
    assert not np.array_equal(decode(db, placement, broadcast, other, None, range(1, K + 1)),
                              db.bits[np.subtract(other, 1)])


@pytest.mark.parametrize("forgetter", [1, 2, 5])
def test_a_forgetful_placement_after_the_honest_one_still_shows(canonical_instance, forgetter):
    # the plan holds no cache or database bits: a placement that lost one
    # cached bit, decoded after the honest one from the same broadcast,
    # still spoils that user's file, and only that user's
    db, placement, d = canonical_instance
    K, users = placement.K, range(1, placement.K + 1)
    broadcast = centralized.encode_delivery(db, placement, d)
    honest = decentralized.decode_users(users, db, placement, placement.partition, broadcast, d)
    assert np.array_equal(honest, db.bits[np.subtract(d, 1)])
    wanted = d[forgetter - 1] - 1
    j = int(np.flatnonzero(placement.cached(forgetter)[wanted] & (db.bits[wanted] == 1))[0])
    codes = placement.codes.copy()
    codes[wanted, j] ^= 1 << (forgetter - 1)
    forgetful = Placement(K, codes)
    for k in users:
        got = decentralized.decode_user(k, db, forgetful, placement.partition, broadcast, d)
        assert np.array_equal(got, db.file(d[k - 1])) == (k != forgetter)
    decoded = decentralized.decode_users(users, db, forgetful, placement.partition, broadcast, d)
    assert [k for k in users if not np.array_equal(decoded[k - 1], db.file(d[k - 1]))] == [forgetter]


@settings(max_examples=60, deadline=None)
@given(stacks())
@example(("batch", 3, 6, 2, 15, [(1, 1, 2, 2, 3, 3)], None, 1))
@example(("random", 3, 5, Fraction(1), 20, [(1, 2, 1, 3, 2)], None, 3))
@example(("random", 3, 6, Fraction(3, 2), 12, [(3, 1, 2, 3, 3, 1)], [frozenset({3, 5, 6})], 4))
def test_a_lost_row_is_named_alike_in_every_call_order(instance):
    # one sent row lost: every user that needs it, directly or as a term,
    # names it, whichever user calls first and however often; the others
    # decode their files
    db, placement, d, leaders, seed = one_demand(instance)
    K = placement.K
    broadcast = decentralized.encode_delivery(db, placement.partition, d, leaders)
    messages = list(broadcast)
    if not messages:
        return
    rng = random.Random(seed)
    lost = messages[rng.randrange(len(messages))]
    rest = [m for m in messages if m is not lost]
    alone = {k: decode(db, placement, rest, d, leaders, [k]) for k in range(1, K + 1)}
    named = [k for k, got in alone.items() if isinstance(got, tuple)]
    assert named and all(alone[k] == lost.subset.members for k in named)  # a member with a chunk needs it
    assert all(np.array_equal(alone[k], db.bits[[d[k - 1] - 1]]) for k in alone if k not in named)
    for _ in range(2):
        lossy = without(broadcast, lost)
        order = rng.sample(range(1, K + 1), K)
        for k in order + order:
            assert same(decode(db, placement, lossy, d, leaders, [k]), alone[k])
