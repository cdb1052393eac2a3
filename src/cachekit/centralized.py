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

    `group` must contain every leader, one requester of each requested file.
    This identity is what makes the omitted leaderless messages
    reconstructable, so it is checked as exactly that: fed the direct
    messages, the engine's reconstruct step must rebuild the direct message
    of `group` minus the leaders.
    """
    d = validate_demand(d, db.N)
    K = len(d)
    leaders = frozenset(leaders)
    members = tuple(sorted(set(group)))
    if not leaders.issubset(members):
        raise ValueError(f"group {members} must contain all leaders {sorted(leaders)}")
    if sorted(d[x - 1] for x in leaders) != sorted(set(d)):
        raise ValueError(f"leaders {sorted(leaders)} must be one requester of each requested file")
    omitted = tuple(x for x in members if x not in leaders)
    if not omitted:
        return True  # group == leaders: the single term is the empty-set message, zero
    # with every user a leader the engine sends each subset's direct payload
    everyone = frozenset(range(1, K + 1))
    partition = batch_placement(db.N, K, len(omitted) - 1, db.F).partition
    direct = {m.subset.members: m.payload for m in decentralized.encode_delivery(db, partition, d, everyone)}
    return np.array_equal(decentralized.reconstruct_message(direct, d, leaders, omitted), direct[omitted])
