"""The delivery engine, and uniform random (decentralized) prefetching.

Delivery groups database bits by the exact set of users that cached them;
within each level (sets of equal size j) the groups play the role of
subfiles, each a run of one stable sort of its file's bits by cache-set
code (`LevelPartition`). For every (j+1)-subset T holding a leader (one
requester per distinct requested file) the broadcast XORs the chunks T's
members want from each other, user x's chunk being file d_x's bits cached
by exactly T minus x, zero-padded to the longest. The engine works a level
at a time over a demand-free index built once per partition
(`LevelPartition.levels`): encoding is one gather of every chunk of the
level's sent subsets and one XOR-reduce over their members. Decoding
gathers each requested user's partner chunks from its own cache view,
XOR-reduces them with the payloads and scatters the result into the user's
file; padding lands in a zero sentinel column. Omitted leaderless messages
are rebuilt by the cancellation identity, each once per decode call for
all its members. Batch (centralized) delivery is the one-level,
equal-chunk case: `centralized` hands its subfiles to this engine.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor
from typing import TYPE_CHECKING

import numpy as np

from .combinatorics import SubsetId
from .model import Database, Demand, Placement, code_dtype, validate_demand

if TYPE_CHECKING:
    from .level_index import Level

# Elements gathered per block of a level's rows, which bounds the index and
# bit temporaries of a gather to under a MB however large the level is.
_BLOCK = 1 << 16


class DecodeError(RuntimeError):
    """A message required for decoding is not available."""

    def __init__(self, subset: tuple[int, ...]):
        super().__init__(f"missing broadcast message for subset {subset}")
        self.subset = subset


@dataclass(frozen=True)
class BroadcastMessage:
    """One broadcast: the user subset it serves and its XOR payload."""

    subset: SubsetId
    payload: np.ndarray

    def transcript_line(self) -> str:
        """`members-comma-separated : hex` with bits packed MSB-first."""
        body = np.packbits(self.payload, bitorder="big").tobytes().hex()
        return f"{','.join(map(str, self.subset.members))} : {body}"


def select_leaders(d: Demand) -> frozenset[int]:
    """One leader per distinct requested file: the lowest-indexed requester."""
    first_user: dict[int, int] = {}
    for k, f in enumerate(d, start=1):
        first_user.setdefault(f, k)
    return frozenset(first_user.values())


def random_placement(N: int, K: int, M, F: int, seed: int) -> Placement:
    """Every user caches a uniform random floor(M*F/N)-subset of each file."""
    M = Fraction(M)
    if not 0 <= M <= N:
        raise ValueError(f"M must be in [0, {N}], got {M}")
    quota = floor(M * F / N)
    rng = np.random.default_rng(seed)
    codes = np.zeros((N, F), dtype=code_dtype(K))
    for k in range(K):
        for i in range(N):
            codes[i, rng.choice(F, size=quota, replace=False)] |= 1 << k
    codes.setflags(write=False)
    return Placement(K, codes)


@dataclass(frozen=True, eq=False)
class LevelPartition:
    """Database bit positions grouped by the exact set of users caching them.

    `codes` are the user-set codes present in any file, ascending (bit k-1
    for user k); `order[i-1]` is file i's positions (int64, read-only) in
    code order, ascending within a code; `sizes[i-1, c]` counts file i's
    bits of `codes[c]`. Each group is a run of `order`, and together the
    runs partition all N*F positions."""

    K: int
    N: int
    F: int
    codes: np.ndarray
    order: np.ndarray
    sizes: np.ndarray

    @cached_property
    def starts(self) -> np.ndarray:
        """(N, len(codes)): where each group's run begins in its file's `order`."""
        return np.cumsum(self.sizes, axis=1) - self.sizes

    def positions(self, members: Sequence[int], file_index: int) -> np.ndarray:
        """Positions of file `file_index` cached by exactly the users `members` (ascending, read-only)."""
        users = {operator.index(k) for k in members}
        if all(1 <= k <= self.K for k in users):
            code = _user_code(users)
            c = int(self.codes.searchsorted(self.codes.dtype.type(code)))  # typed: an int casts the array
            if c < len(self.codes) and self.codes[c] == code:
                start = self.starts[file_index - 1, c]
                return self.order[file_index - 1, start : start + self.sizes[file_index - 1, c]]
        return np.empty(0, dtype=np.int64)

    @cached_property
    def levels(self) -> list[Level]:
        """The delivery index: a `Level` for each level below K that has
        groups, in send order. Demand-free, so built once per partition."""
        from . import level_index  # imported on the first delivery, not at start-up

        return level_index.build_levels(self)


def level_partition(placement: Placement, N: int, F: int) -> LevelPartition:
    """Exact partition of all (file, bit) positions by caching set.

    One stable sort of the placement's codes per file puts equal codes next
    to each other with their positions ascending; each group's bit count in
    a file is where its code's run ends less where the previous one does.
    """
    K, codes = placement.K, placement.codes
    if codes.shape != (N, F):
        raise ValueError(f"placement codes have shape {codes.shape}, expected (N, F) = {(N, F)}")
    order = np.argsort(codes, axis=1, kind="stable")
    order.setflags(write=False)
    ranked = np.take_along_axis(codes, order, axis=1)
    heads = np.ones((N, F), dtype=bool)
    heads[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    # the codes present in any file, ascending: one sort and a neighbour
    # comparison (np.unique would import numpy.ma on first use)
    present = np.sort(ranked[heads])
    firsts = np.ones(len(present), dtype=bool)
    firsts[1:] = present[1:] != present[:-1]
    present = present[firsts]
    stops = np.array([np.searchsorted(row, present, side="right") for row in ranked])
    return LevelPartition(K, N, F, present, order, np.diff(stops, axis=1, prepend=0))


def _blocks(count: int, per_item: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most _BLOCK // per_item items."""
    if count * per_item <= _BLOCK:
        return [slice(None)]
    step = max(_BLOCK // max(per_item, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _demand_rows(d: tuple[int, ...]) -> np.ndarray:
    """Each user's wanted file row, indexed by 1-based user (entry 0 unused)."""
    return np.array((1, *d)) - 1


def encode_delivery(
    db: Database,
    partition: LevelPartition,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> list[BroadcastMessage]:
    """Leader-based delivery over every level of the partition. Messages that
    would be empty are not sent; the rest go by subset size, then lexicographic.
    Each level's payloads are one gather of their chunks and one XOR-reduce."""
    if db.bits.shape != partition.order.shape:
        raise ValueError(f"database has (N, F) = {db.bits.shape}, but the partition has {partition.order.shape}")
    d = validate_demand(d, db.N)
    if len(d) != partition.K:
        raise ValueError(f"demand length {len(d)} != K={partition.K}")
    if leaders is None:
        leaders = select_leaders(d)
    F = partition.F
    bits = np.zeros((db.N, F + 1), dtype=np.uint8)  # column F is the padding's zero
    bits[:, :F] = db.bits
    flat = bits.reshape(-1)
    wanted, lead = _demand_rows(d), _user_code(leaders)
    messages = []
    for level in partition.levels:
        cells, sizes = level.chunks(wanted)
        rows, lengths = level.sent(sizes, lead)
        for block in _blocks(len(rows), level.members.shape[1] * level.positions.shape[1]):
            block = rows[block]
            payloads = np.bitwise_xor.reduce(np.take(flat, level.positions[cells[block]]), axis=1)
            for members, rank, n, payload in zip(
                level.members[block].tolist(), level.ranks[block].tolist(), lengths[block].tolist(), payloads
            ):
                messages.append(BroadcastMessage(SubsetId(tuple(members), rank), payload[:n]))
    return messages


def _xor_into(acc: np.ndarray, parts: Sequence[np.ndarray]) -> np.ndarray:
    """XOR each array into the front of `acc`, which is no shorter; returns `acc`."""
    for c in parts:
        if len(c) == len(acc):
            acc ^= c
        else:
            acc[: len(c)] ^= c
    return acc


def _user_code(users) -> int:
    """Bit k-1 set for each 1-based user k."""
    return sum(1 << (k - 1) for k in users)


def payload_map(messages) -> Mapping[tuple[int, ...], np.ndarray]:
    """Payloads by subset members; build it once to decode several users."""
    if isinstance(messages, Mapping):
        return messages
    return {m.subset.members: m.payload for m in messages}


def _requester_groups(d: Demand, pool: Sequence[int]) -> list[list[int]]:
    """Users of `pool` grouped by requested file, one group per distinct file."""
    groups: dict[int, list[int]] = {}
    for x in pool:
        groups.setdefault(d[x - 1], []).append(x)
    return [groups[f] for f in sorted(groups)]


def reconstruct_message(
    messages,
    d: Demand,
    leaders: frozenset[int],
    subset: SubsetId | Sequence[int],
    sent=None,
) -> np.ndarray:
    """Rebuild the omitted message of a leaderless subset A.

    With B = A ∪ leaders, XOR the broadcast messages of B minus V over every
    selection V of one requester per requested file, the all-leaders
    selection excluded; shorter terms are zero-padded. Equals the direct
    XOR-of-chunks payload. A term missing from `messages` is lost
    (`DecodeError`), unless `sent()`, the members of every message the
    encoder sent, lacks it: the encoder skipped it as empty, so it is zero.
    """
    members = tuple(subset.members) if isinstance(subset, SubsetId) else tuple(sorted(subset))
    leaders = frozenset(leaders)
    if not leaders.isdisjoint(members):
        raise ValueError(f"subset {members} contains a leader; message was broadcast")
    payloads = payload_map(messages)
    block = sorted(leaders.union(members))
    terms = []
    for choice in itertools.product(*_requester_groups(d, block)):
        if leaders.issuperset(choice):
            continue  # one requester per file: the all-leaders selection
        key = tuple([x for x in block if x not in choice])
        term = payloads.get(key)
        if term is not None:
            terms.append(term)
        elif sent is None or key in sent():
            raise DecodeError(key)
    terms.sort(key=len, reverse=True)
    return _xor_into(terms[0].copy(), terms[1:]) if terms else np.zeros(0, dtype=np.uint8)


def decode_users(
    users: Sequence[int],
    db: Database,
    placement: Placement,
    partition: LevelPartition,
    messages,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> np.ndarray:
    """Recover file d_k for each user k of `users` from its cache plus the
    broadcast: a (len(users), F) array, one row per user in that order.

    Level by level, every requested user's chunk of every subset is decoded
    by one gather from the users' cache views, one XOR-reduce over the
    partners and one scatter; each omitted message is rebuilt once and
    shared by the members that need it. Each user's bits are read from the
    database only through its own cache (the rest are zeroed), so any
    decoding gap shows up as a bit mismatch. `messages` may be a list or a
    `payload_map` of it.
    """
    for name, shape in (("partition", partition.order.shape), ("placement", placement.codes.shape)):
        if db.bits.shape != shape:
            raise ValueError(f"database has (N, F) = {db.bits.shape}, but the {name} has {shape}")
    d = validate_demand(d, db.N)
    K, N, F = partition.K, db.N, partition.F
    if len(d) != K:
        raise ValueError(f"demand length {len(d)} != K={K}")
    users = [operator.index(k) for k in users]
    slot = [-1] * (K + 1)  # each requested user's row of the views
    for u, k in enumerate(users):
        if not 1 <= k <= K:
            raise ValueError(f"user {k} is not in 1..{K}")
        if slot[k] >= 0:
            raise ValueError(f"user {k} is requested twice")
        slot[k] = u
    slot = np.array(slot)
    requested = slot >= 0
    leaders = select_leaders(d) if leaders is None else frozenset(leaders)
    wanted = _demand_rows(d)
    # every user's cache view, flat per user; column F of each file stays zero
    views = _cache_views(db, placement, users, F)
    flat, view_start = views.reshape(-1), slot * (N * (F + 1))
    payloads = payload_map(messages)
    sent_set = None

    def sent() -> set[tuple[int, ...]]:
        nonlocal sent_set  # built on the first missing term only
        if sent_set is None:
            lead, sent_set = _user_code(leaders), set()
            for level in partition.levels:
                rows, _ = level.sent(level.chunks(wanted)[1], lead)
                sent_set.update(map(tuple, level.members[rows].tolist()))
        return sent_set

    for level in partition.levels:
        cells, sizes = level.chunks(wanted)
        # (row, member) pairs of a requested user and its non-empty chunk
        mine = requested[level.members] & (sizes > 0)
        rows = np.logical_or.reduce(mine, axis=1).nonzero()[0]
        if not len(rows):
            continue
        # the rows' payloads, zero-padded to the level's width
        Y = np.zeros((len(rows), level.positions.shape[1]), dtype=np.uint8)
        width = Y.shape[1]
        for i, members in enumerate(map(tuple, level.members[rows].tolist())):
            y = payloads.get(members)
            if y is None:
                if not leaders.isdisjoint(members):
                    raise DecodeError(members)  # a chunk of it is non-empty, so it was sent
                y = reconstruct_message(payloads, d, leaders, members, sent)
            Y[i, : len(y)] = y[:width]
        at, column = mine[rows].nonzero()
        for block in _blocks(len(at), level.members.shape[1] * width):
            pair_rows, c = rows[at[block]], column[block]
            pos = level.positions[cells[pair_rows[:, None], level.partners[c]]].astype(np.intp)
            own = level.positions[cells[pair_rows, c]].astype(np.intp)
            if len(users) > 1:
                # each pair's user's view starts at view_start in `flat`. One
                # user's starts at 0, and this pass over the positions costs
                # about what widening them does, so a one-user call skips it
                start = view_start[level.members[pair_rows, c]][:, None]
                pos += start[:, :, None]
                own += start
            acc = np.bitwise_xor.reduce(flat[pos], axis=1)
            acc ^= Y[at[block]]
            # decoded in place, where the user's view holds no partner chunk;
            # the chunks' padding lands in column F, which is zeroed again
            flat[own] = acc
            flat[F :: F + 1] = 0
    return views[np.arange(len(users)), wanted[users], :F]


def _cache_views(db: Database, placement: Placement, users: Sequence[int], F: int) -> np.ndarray:
    """(len(users), N, F + 1) bits: what each user caches of every file,
    zeros elsewhere and in column F; built a block of users at a time."""
    views = np.zeros((len(users), db.N, F + 1), dtype=np.uint8)
    for block in _blocks(len(users), db.bits.size):
        np.multiply(db.bits, placement.caches(users[block]), out=views[block, :, :F])
    return views


def decode_user(
    k: int,
    db: Database,
    placement: Placement,
    partition: LevelPartition,
    messages,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> np.ndarray:
    """Recover file d_k for user k: `decode_users` for the one user."""
    return decode_users([k], db, placement, partition, messages, d, leaders)[0]


def delivered_rate(messages: Sequence[BroadcastMessage], F: int) -> Fraction:
    """Total payload bits divided by the file size, exact."""
    return Fraction(sum(len(m.payload) for m in messages), F)
