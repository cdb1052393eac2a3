"""Centralized scheme: symmetric batch prefetching, delivered by the engine.

Each file is split into C(K,t) equal subfiles indexed by the t-subsets of
users; user k caches every subfile whose index contains k. Every bit of a
subfile has the same cache-set code, so the subfiles are the groups of the
placement's one-level partition and delivery is the engine's (see
`decentralized`): for every (t+1)-subset with a leader, the XOR of the
subfiles its members want from each other. Receivers rebuild the omitted
leaderless messages by the cancellation identity, which
`verify_message_cancellation` checks directly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import decentralized
from .combinatorics import binomial
# the engine's message types and leader rule are importable from here as well
from .decentralized import Broadcast, BroadcastMessage, DecodeError, select_leaders
from .model import Database, Demand, Placement, code_dtype, validate_demand


@lru_cache(maxsize=16)
def batch_placement(N: int, K: int, t: int, F: int) -> Placement:
    """Symmetric batch prefetching for cache parameter t in {0..K}.

    Requires C(K,t) | F so subfiles are equal-sized: subfile r, the t-subset
    of rank r, is bits r*F/C(K,t) up to (r+1)*F/C(K,t) of every file, and each
    user ends up caching exactly N*t*F/K bits. Built once per (N, K, t, F)
    and shared: the codes are read-only, and the partition is kept with the
    placement.
    """
    if not 0 <= t <= K:
        raise ValueError(f"t must be in 0..{K}, got {t}")
    pieces = binomial(K, t)
    if F % pieces != 0:
        raise ValueError(f"F must be a multiple of C({K},{t}) = {pieces}, got F={F}")
    # the t-subsets in rank (lexicographic) order, one row of users each
    members = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(1, K + 1), t)),
                          dtype=np.intp, count=pieces * t).reshape(pieces, t)
    subsets = np.bitwise_or.reduce(decentralized._user_bits(K, code_dtype(K))[members], axis=1)
    codes = np.tile(np.repeat(subsets, F // pieces), (N, 1))
    codes.setflags(write=False)
    return Placement(K, codes)


def encode_delivery(
    db: Database,
    placement: Placement,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> Broadcast:
    """All messages for (t+1)-subsets that contain at least one leader,
    in lexicographic subset order, as a `Broadcast`. Any other placement is
    delivered over its level partition alike."""
    return decentralized.encode_delivery(db, placement.partition, d, leaders)


def decode_user(
    k: int,
    db: Database,
    placement: Placement,
    messages,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> np.ndarray:
    """Recover file d_k for user k from its cache plus the broadcast."""
    return decentralized.decode_user(k, db, placement, placement.partition, messages, d, leaders)


def verify_message_cancellation(
    db: Database,
    d: Demand,
    leaders: frozenset[int],
    group: Sequence[int],
) -> bool:
    """Check that XORing, over every one-requester-per-file selection V inside
    `group`, the directly computed message of `group` minus V gives zero.

    `group` and `leaders` must be integer users in 1..K, `group` must
    contain every leader, one requester of each requested file, and its
    size must be e + t + 1 for e leaders and a t with C(K, t) | F: the
    messages are those of the batch placement of that t. This identity is
    what makes the omitted leaderless messages reconstructable. It is
    checked apart from the engine's rebuild: the
    selections V come from `itertools.product`, and each message of
    `group` minus V, as the engine sends it with every user a leader, must
    equal the XOR of its members' chunks read straight from the batch
    placement's codes; then the messages must cancel.
    """
    d = validate_demand(d, db.N)
    K = len(d)
    members = tuple(sorted({decentralized._user(x, K, "group member") for x in group}))
    leaders = frozenset(decentralized._user(x, K, "leader") for x in leaders)
    if not leaders.issubset(members):
        raise ValueError(f"group {members} must contain all leaders {sorted(leaders)}")
    if sorted(d[x - 1] for x in leaders) != sorted(set(d)):
        raise ValueError(f"leaders {sorted(leaders)} must be one requester of each requested file")
    if len(members) == len(leaders):
        return True  # group == leaders: the single term is the empty-set message, zero
    t = len(members) - len(leaders) - 1  # every message of the identity has t + 1 members
    if db.F % binomial(K, t):
        raise ValueError(f"a group of {len(members)} users with {len(leaders)} leaders has t = {t}, "
                         f"and C({K},{t}) = {binomial(K, t)} does not divide F={db.F}")
    placement = batch_placement(db.N, K, t, db.F)
    requesters = {}
    for x in members:
        requesters.setdefault(d[x - 1], []).append(x)
    rests = [[x for x in members if x not in V] for V in itertools.product(*requesters.values())]
    codes = [sum(1 << (x - 1) for x in rest) for rest in rests]
    # each member's chunk of each message: its file's bits cached by exactly
    # the message's other members, F / C(K, t) of them in position order
    files = np.array([d[x - 1] - 1 for rest in rests for x in rest])
    cached = np.array([code - (1 << (x - 1)) for rest, code in zip(rests, codes) for x in rest],
                      dtype=placement.codes.dtype)
    chunks = db.bits[files][placement.codes[files] == cached[:, None]].reshape(len(rests), t + 1, -1)
    direct = np.bitwise_xor.reduce(chunks, axis=1)
    broadcast = decentralized.encode_delivery(db, placement.partition, d, frozenset(range(1, K + 1)))
    (level,), ((payloads, _),) = placement.partition.levels, broadcast.delivery
    sent = payloads[0].take(level.rows_of(np.array(codes, dtype=level.codes.dtype)), axis=0)
    return np.array_equal(sent, direct) and not np.bitwise_xor.reduce(direct, axis=0).any()
