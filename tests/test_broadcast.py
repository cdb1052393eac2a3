"""`Broadcast`, the one delivery representation, against the message lists
it stands for.

`encode_delivery` returns a `Broadcast` over `encode_stack`'s arrays for one
demand. As a sequence it must be the list of sent messages, in send order,
count and payload bits included; and a decoder must give the same files (or
name the same lost subset) whether it reads the `Broadcast`'s arrays or a
list of messages: the broadcast itself, shuffled, with duplicates, with a
foreign subset or an over-long payload, or with one message missing.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from cachekit import Broadcast, BroadcastMessage, DecodeError, batch_placement, decentralized, make_database
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
    for variant in (messages, shuffled, duplicated, foreign):
        assert same(decode(db, placement, variant, d, leaders, users), want)
    if messages:
        lost = messages[rng.randrange(len(messages))]
        rest = [m for m in messages if m is not lost]
        got = decode(db, placement, rest, d, leaders, range(1, K + 1))
        assert isinstance(got, tuple) and got == lost.subset.members
        # and the engine reading arrays with that row unsent names the same subset
        delivery = [(payloads.copy(), lengths.copy()) for payloads, lengths in broadcast.delivery]
        size, rank = len(lost.subset.members), lost.subset.rank
        for level, (payloads, lengths) in zip(part.levels, delivery):
            if level.members.shape[1] == size:
                lengths[0, np.searchsorted(level.ranks, rank)] = 0
        assert decode(db, placement, Broadcast(part, delivery), d, leaders, range(1, K + 1)) == got


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
