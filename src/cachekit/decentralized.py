"""Decentralized scheme: uniform random prefetching and per-level delivery.

Each user independently caches a uniform floor(M*F/N)-subset of every file's
bit positions. Delivery groups database bits by the exact set of users that
cached them; within each level (sets of equal size j) the groups play the
role of subfiles and the centralized leader-based delivery is applied with
(j+1)-subsets. Groups of unequal length are zero-padded to the longest chunk
inside each XOR, and receivers drop the padding using the known group sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Sequence

import numpy as np

from .centralized import BroadcastMessage, DecodeError, _payload_map, _requester_groups, select_leaders
from .combinatorics import enumerate_subsets
from .model import Database, Demand, Placement, validate_demand

_EMPTY = np.empty(0, dtype=np.int64)
# level_partition packs each bit's caching set into one int64, one bit per user.
MAX_USERS = 64


def random_placement(N: int, K: int, M, F: int, seed: int) -> Placement:
    """Every user caches a uniform random floor(M*F/N)-subset of each file."""
    M = Fraction(M)
    if not 0 <= M <= N:
        raise ValueError(f"M must be in [0, {N}], got {M}")
    quota = floor(M * F / N)
    rng = np.random.default_rng(seed)
    mask = np.zeros((K, N, F), dtype=bool)
    for k in range(K):
        for i in range(N):
            mask[k, i, rng.choice(F, size=quota, replace=False)] = True
    mask.setflags(write=False)
    return Placement(K, mask)


@dataclass(frozen=True)
class LevelPartition:
    """Database bit positions grouped by the exact set of users caching them.

    `groups[members][i-1]` holds the (ascending) bit positions of file i that
    are cached by precisely the users in `members`. Absent keys mean empty
    groups; together the groups partition all N*F positions.
    """

    K: int
    N: int
    F: int
    groups: dict[tuple[int, ...], tuple[np.ndarray, ...]]

    def positions(self, members: Sequence[int], file_index: int) -> np.ndarray:
        entry = self.groups.get(tuple(members))
        return _EMPTY if entry is None else entry[file_index - 1]

    def level_sizes(self) -> list[int]:
        """Total number of bits cached by exactly j users, for j = 0..K."""
        sizes = [0] * (self.K + 1)
        for members, per_file in self.groups.items():
            sizes[len(members)] += sum(len(p) for p in per_file)
        return sizes


def level_partition(placement: Placement, N: int, F: int) -> LevelPartition:
    """Exact partition of all (file, bit) positions by caching set."""
    K = placement.K
    if K > MAX_USERS:
        raise ValueError(f"level_partition supports K <= {MAX_USERS} users, got K={K}")
    codes = np.zeros((N, F), dtype=np.int64)
    for k in range(K):
        codes[placement.mask[k]] += np.int64(1) << k
    groups: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    for code in np.unique(codes):
        members = tuple(k + 1 for k in range(K) if (int(code) >> k) & 1)
        groups[members] = tuple(np.flatnonzero(codes[i] == code) for i in range(N))
    return LevelPartition(K, N, F, groups)


def _chunk_length(partition: LevelPartition, d: Demand, members: tuple[int, ...]) -> int:
    """Payload length of the message for `members`: the longest wanted chunk."""
    longest = 0
    for idx, x in enumerate(members):
        rest = members[:idx] + members[idx + 1 :]
        longest = max(longest, len(partition.positions(rest, d[x - 1])))
    return longest


def encode_delivery(
    db: Database,
    partition: LevelPartition,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> list[BroadcastMessage]:
    """Per-level leader-based delivery; chunks zero-padded to the longest
    chunk in each subset. Messages that would be empty are not sent."""
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


def _xor_padded(acc: np.ndarray | None, arr: np.ndarray) -> np.ndarray:
    if acc is None:
        return arr.copy()
    if arr.size > acc.size:
        acc = np.pad(acc, (0, arr.size - acc.size))
    acc[: arr.size] ^= arr
    return acc


def _fetch_message(
    payloads: dict,
    partition: LevelPartition,
    d: Demand,
    leaders: frozenset[int],
    members: tuple[int, ...],
) -> np.ndarray:
    """Broadcast payload for `members`, reconstructing leaderless ones.

    Messages skipped by the encoder because every chunk was empty come back
    as zero-length arrays.
    """
    direct = payloads.get(members)
    if direct is not None:
        return direct
    if not leaders.isdisjoint(members):
        if _chunk_length(partition, d, members) == 0:
            return _EMPTY.astype(np.uint8)
        raise DecodeError(members)
    # leaderless: XOR the broadcast messages of (members ∪ leaders) minus V
    # over every one-requester-per-file selection V other than the leaders
    block = tuple(sorted(set(members) | leaders))
    acc: np.ndarray | None = None
    for choice in itertools.product(*_requester_groups(d, block)):
        if frozenset(choice) == leaders:
            continue
        key = tuple(x for x in block if x not in choice)
        term = payloads.get(key)
        if term is None:
            if _chunk_length(partition, d, key) == 0:
                continue
            raise DecodeError(key)
        acc = _xor_padded(acc, term)
    return acc if acc is not None else _EMPTY.astype(np.uint8)


def decode_user(
    k: int,
    db: Database,
    placement: Placement,
    partition: LevelPartition,
    messages,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> np.ndarray:
    """Recover file d_k from the user's cache and the per-level broadcast."""
    d = validate_demand(d, db.N)
    if leaders is None:
        leaders = select_leaders(d)
    cache = np.where(placement.mask[k - 1], db.bits, 0).astype(np.uint8)
    payloads = _payload_map(messages)
    wanted = d[k - 1]
    out = np.empty(db.F, dtype=np.uint8)
    for level in range(partition.K + 1):
        for sid in enumerate_subsets(partition.K, level):
            S = sid.members
            pos = partition.positions(S, wanted)
            if len(pos) == 0:
                continue
            if k in S:
                out[pos] = cache[wanted - 1, pos]
                continue
            group = tuple(sorted(S + (k,)))
            y = _fetch_message(payloads, partition, d, leaders, group)
            if y.size < len(pos):
                y = np.pad(y, (0, len(pos) - y.size))
            acc = y.copy()
            for x in S:
                rest = tuple(v for v in group if v != x)
                ppos = partition.positions(rest, d[x - 1])
                if len(ppos):
                    chunk = cache[d[x - 1] - 1, ppos]
                    acc[: len(chunk)] ^= chunk
            out[pos] = acc[: len(pos)]
    return out


def empirical_rate(messages: Sequence[BroadcastMessage], F: int) -> Fraction:
    """Total transmitted bits divided by the file size, exact."""
    return Fraction(sum(len(m.payload) for m in messages), F)
