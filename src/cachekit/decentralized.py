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
from .combinatorics import SubsetId, subset_rank
from .model import Database, Demand, Placement, validate_demand

_EMPTY = np.empty(0, dtype=np.int64)
# level_partition packs each bit's caching set into one unsigned word, one bit per user.
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

    `groups[members][i-1]` holds the (ascending, read-only) bit positions of
    file i that are cached by precisely the users in `members`. Absent keys
    mean empty groups; together the groups partition all N*F positions.
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
    """Exact partition of all (file, bit) positions by caching set.

    Each bit's caching set is a K-bit code; one stable sort per file puts
    equal codes next to each other with their positions ascending, and each
    group is its run's slice of the (read-only) sort order.
    """
    K = placement.K
    if K > MAX_USERS:
        raise ValueError(f"level_partition supports K <= {MAX_USERS} users, got K={K}")
    dtype = np.min_scalar_type((1 << K) - 1)
    codes = np.zeros((N, F), dtype=dtype)
    for k in range(K):
        codes |= placement.mask[k].astype(dtype) << dtype.type(k)
    order = np.argsort(codes, axis=1, kind="stable")
    order.setflags(write=False)
    ranked = np.take_along_axis(codes, order, axis=1)
    heads = np.ones((N, F), dtype=bool)
    heads[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    present = np.unique(ranked[heads])
    starts = [np.searchsorted(row, present, side="left").tolist() for row in ranked]
    stops = [np.searchsorted(row, present, side="right").tolist() for row in ranked]
    groups: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    for c, code in enumerate(present.tolist()):
        groups[_members(code, K)] = tuple(order[i, starts[i][c] : stops[i][c]] for i in range(N))
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
    chunk in each subset. Messages that would be empty are not sent.

    Only the subsets S + {x} of a non-empty group S whose chunk for file d_x
    is non-empty can carry data, so those are the only ones built; they are
    sent by size, then in lexicographic order.
    """
    d = validate_demand(d, db.N)
    K = partition.K
    if len(d) != K:
        raise ValueError(f"demand length {len(d)} != K={K}")
    if leaders is None:
        leaders = select_leaders(d)
    lead_mask = _bitmask(leaders)
    chunks: dict[int, list[np.ndarray]] = {}  # user-set bitmask -> its non-empty chunks
    for members, per_file in partition.groups.items():
        s = _bitmask(members)
        gathered: dict[int, np.ndarray] = {}  # one gather per file, shared by its requesters
        for x, f in enumerate(d):  # user x + 1 wants file f
            target = s | 1 << x
            if target != s and target & lead_mask and len(per_file[f - 1]):
                if f not in gathered:
                    gathered[f] = db.bits[f - 1, per_file[f - 1]]
                chunks.setdefault(target, []).append(gathered[f])
    subsets = sorted(((_members(t, K), parts) for t, parts in chunks.items()), key=lambda e: (len(e[0]), e[0]))
    messages = []
    for members, parts in subsets:
        parts.sort(key=len, reverse=True)
        payload = parts[0].copy()
        for c in parts[1:]:
            payload[: len(c)] ^= c
        messages.append(BroadcastMessage(SubsetId(members, subset_rank(members, K)), payload))
    return messages


def _bitmask(users) -> int:
    """Bit k-1 set for each 1-based user k."""
    return sum(1 << (k - 1) for k in users)


def _members(mask: int, K: int) -> tuple[int, ...]:
    """The 1-based users whose bits are set in `mask`, ascending."""
    return tuple(k + 1 for k in range(K) if mask >> k & 1)


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
    cache = db.bits & placement.mask[k - 1]
    payloads = _payload_map(messages)
    wanted = d[k - 1]
    out = cache[wanted - 1].copy()  # every bit user k cached; the groups without k fill the rest
    for S, per_file in partition.groups.items():
        pos = per_file[wanted - 1]
        if len(pos) == 0 or k in S:
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
