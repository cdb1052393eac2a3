"""The delivery engine, and uniform random (decentralized) prefetching.

Delivery groups database bits by the exact set of users that cached them;
within each level (sets of equal size j) the groups play the role of
subfiles, each a run of one stable sort of its file's bits by cache-set
code (`LevelPartition`). For every (j+1)-subset T holding a leader (one
requester per distinct requested file) the broadcast XORs the chunks T's
members want from each other, user x's chunk being file d_x's bits cached
by exactly T minus x, zero-padded to the longest. The engine works a level
at a time, on a stack of demands, over a demand-free index built once per
partition (`LevelPartition.levels`): encoding (`encode_stack`) is one
gather of every chunk of the level's sent subsets, for every demand of the
stack, and one XOR-reduce over their members. Decoding (`decode_stack`)
is one pass over the levels: it rebuilds the level's omitted leaderless
messages by the cancellation identity, each once per decode plan for all
its members, one gather of their terms, then gathers each requested user's
partner chunks from its own cache view, XOR-reduces them with the payloads
and scatters the result into a copy of the user's file, one layout for
every stack; padding lands in a zero sentinel column. One array per level of
the plan says which rows were received, and a call for fewer than K users
takes its users' pairs from the plan's grouping by user (`_pairs`); the
partition's decode cache keeps the last stack, checked, and its term tables
and plans. Two rules keep the kernels fast on the short rows of small
instances, where numpy's cost per call and per row, not the bits moved, sets
the time. Every gather is an `ndarray.take` over a flat index: fancy
indexing with a 2-D or paired index costs about 15 times as much. Each
gather is laid out so that its XOR-reduce runs over the leading axis:
(members, rows, L) to encode, (partners, pairs, L) to decode and (terms,
rows, L) to rebuild; reducing over a middle axis of length 2-10 costs tens
to hundreds of times as much. The one-demand functions (`encode_delivery`,
`decode_users`, `decode_user`) are calls with a stack of one. Each input is
checked at one door: a one-demand call's length and leaders in `_one`, a
stack's entries and leaders in `_stack`, which builds the stack's one leader
table, the users in `decode_stack`, a delivery's levels and shapes in
`_plans`. A delivery has one representation, those arrays: `encode_delivery`
returns them as a `Broadcast`, a sequence whose `BroadcastMessage`s are
built only when it is read as one, and the decoders read a `Broadcast` of
their partition from its arrays, placing any other message list into arrays
first, one message at a time, each at the row of its members' code. Batch
(centralized) delivery is the one-level, equal-chunk case: `centralized`
hands its subfiles to this engine.
"""

from __future__ import annotations

import operator
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .combinatorics import SubsetId, lex_rank
from .model import Database, Demand, Placement, code_dtype

if TYPE_CHECKING:
    from .level_index import Level

# Elements gathered per block of a level's rows, which bounds the index and
# bit temporaries of a gather to under a MB however large the level is; a
# stack of demands holds about this many elements per level (`stack_size`).
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


class Broadcast(Sequence):
    """One demand's broadcast as `encode_stack` sent it: the partition and,
    for each of its levels, the payloads (1, n_T, L) and lengths (1, n_T),
    made read-only; a row of length 0 was not sent. A read-only sequence of
    the sent `BroadcastMessage`s in send order, each built only when it is
    indexed or iterated, its payload a view of the arrays. Its length and
    payload bits are read from the lengths, and the decoders read the arrays
    themselves; it keeps nothing of a decode (see `_plans`)."""

    def __init__(self, partition: LevelPartition, delivery: list[tuple[np.ndarray, np.ndarray]]):
        for arrays in delivery:
            for array in arrays:
                array.setflags(write=False)
        self.partition = partition
        self.delivery = delivery

    @cached_property
    def _sent(self) -> list[np.ndarray]:
        """Each level's sent rows."""
        return [lengths[0].nonzero()[0] for _, lengths in self.delivery]

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._sent)

    @property
    def payload_bits(self) -> int:
        return sum(int(lengths.sum()) for _, lengths in self.delivery)

    def _messages(self, i: int, rows: np.ndarray) -> list[BroadcastMessage]:
        level, (payloads, lengths) = self.partition.levels[i], self.delivery[i]
        return [BroadcastMessage(SubsetId(members, lex_rank(members, self.partition.K)), payloads[0, r, :n])
                for r, members, n in zip(rows.tolist(), map(tuple, level.members[rows].tolist()),
                                         lengths[0, rows].tolist())]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(len(self))[index]]
        j = range(len(self))[index]  # IndexError past either end
        for i, rows in enumerate(self._sent):
            if j < len(rows):
                return self._messages(i, rows[j : j + 1])[0]
            j -= len(rows)

    def __iter__(self):
        for i, rows in enumerate(self._sent):
            yield from self._messages(i, rows)


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
    bits = _user_bits(K, codes.dtype)
    for k in range(1, K + 1):
        for row in codes:
            # the draws are distinct, so adding user k's bit sets it; a scatter
            # through the file's row view costs about half a 2-D one
            row[rng.choice(F, size=quota, replace=False)] += bits[k]
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
        """Positions of file `file_index` (1..N) cached by exactly the users `members` (ascending, read-only)."""
        if not 1 <= file_index <= self.N:
            raise ValueError(f"file {file_index} is not in 1..{self.N}")
        users = {operator.index(k) for k in members}
        if all(1 <= k <= self.K for k in users):
            code = _user_code(users)
            c = int(self.codes.searchsorted(self.codes.dtype.type(code)))  # typed: an int casts the array
            if c < len(self.codes) and self.codes[c] == code:
                start = self.starts[file_index - 1, c]
                return self.order[file_index - 1, start : start + self.sizes[file_index - 1, c]]
        return np.empty(0, dtype=np.int64)

    @cached_property
    def decode_cache(self) -> dict:
        """The decoder's only state, for the last stack decoded: its "key"
        and "stack" (`decode_stack`), each level i's table of the terms it
        has (`_level_terms`, 0.5 MB at N=3, K=64, M=1, seed 3), and as
        "plans" a weak reference to the last `Broadcast` decoded with its
        plans: calls alternating between two broadcasts plan at each switch."""
        return {}

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
    a file is the length of its code's run, from its head to the next.
    """
    K, codes = placement.K, placement.codes
    if codes.shape != (N, F):
        raise ValueError(f"placement codes have shape {codes.shape}, expected (N, F) = {(N, F)}")
    # stable sorts: on small integer codes numpy sorts them by radix, where
    # its default sort takes about 20 times as long on these few distinct codes
    order = np.argsort(codes, axis=1, kind="stable")
    order.setflags(write=False)
    ranked = np.sort(codes, axis=1, kind="stable")
    heads = np.ones((N, F), dtype=bool)
    heads[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    # the codes present in any file, ascending: one sort and a neighbour
    # comparison (np.unique would import numpy.ma on first use)
    at = np.flatnonzero(heads)  # every run's head, file by file
    run = ranked.reshape(-1).take(at)
    present = np.sort(run)
    firsts = np.ones(len(present), dtype=bool)
    firsts[1:] = present[1:] != present[:-1]
    present = present[firsts]
    sizes = np.zeros((N, len(present)), dtype=np.intp)
    sizes[at // F, present.searchsorted(run)] = np.diff(at, append=N * F)
    return LevelPartition(K, N, F, present, order, sizes)


def _blocks(count: int, per_item: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most _BLOCK // per_item
    items (at least one); none if count is 0."""
    step = max(_BLOCK // max(per_item, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def stack_size(partition: LevelPartition, users: int) -> int:
    """Demands per stack that keep a stacked encode and decode of `users`
    users to about 2 MB of temporaries: a stack's rows, chunk cells and
    payloads, level by level, and its users' decoded files come to at most
    _BLOCK elements. The decode holds several int64 index arrays of that
    many elements at once, and each of its gathers is blocked to _BLOCK
    elements besides. Fewer, larger stacks matter: every stack pays the
    same few hundred numpy calls, about a millisecond, however small."""
    per_demand = partition.K + users * (partition.F + 1) + sum(
        level.members.size + level.positions.shape[1] * len(level.members) for level in partition.levels)
    return max(_BLOCK // per_demand, 1)


def _stack(partition: LevelPartition, demands, leaders) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A stack of demands, checked, with its one leader table: each user's
    wanted file row per demand ((n, K+1), column 0 unused), the leader flags
    ((n, K)), each demand's leader code and the table ((n, K)): each user's
    lowest-indexed flagged requester of its file, K+1 if none. With no flags
    every user counts as flagged and the flags are `table == user`,
    `select_leaders`' rule; given flags must flag a requester of every
    requested file (no K+1), or its omitted messages have no terms."""
    demands, K = np.asarray(demands), partition.K
    if demands.ndim != 2 or demands.shape[1] != K:
        raise ValueError(f"demands have shape {demands.shape}, expected (n, K={K})")
    if demands.dtype.kind not in "iu" or demands.size and not 1 <= demands.min() <= demands.max() <= partition.N:
        raise ValueError(f"demand entries must be integers in 1..{partition.N}")
    if leaders is not None:
        leaders = np.asarray(leaders, dtype=bool)
        if leaders.shape != demands.shape:
            raise ValueError(f"leader flags have shape {leaders.shape}, expected {demands.shape}")
    n, N = len(demands), partition.N
    wanted = np.empty((n, K + 1), dtype=np.intp)
    wanted[:, 0] = 0
    np.subtract(demands, 1, out=wanted[:, 1:])
    users = np.arange(1, K + 1)
    # one minimum over the stack's (demand, file) slots
    slots = wanted[:, 1:] + np.arange(0, n * N, N)[:, None]
    lowest = np.full(n * N, K + 1, dtype=np.intp)
    np.minimum.at(lowest, slots.reshape(-1),
                  np.tile(users, n) if leaders is None else np.where(leaders, users, K + 1).reshape(-1))
    lowest = lowest.take(slots)
    if leaders is None:
        leaders = lowest == users
    elif (lowest > K).any():
        s, x = np.argwhere(lowest > K)[0].tolist()
        raise ValueError(f"the leaders of demand {tuple(demands[s].tolist())} hold no requester of file "
                         f"{demands[s, x]}")
    bits = _user_bits(K, partition.codes.dtype)
    return wanted, leaders, np.bitwise_or.reduce(bits[1:] * leaders, axis=1), lowest


@lru_cache(maxsize=None)
def _user_bits(K: int, dtype: np.dtype) -> np.ndarray:
    """Each 1-based user's code bit, entry 0 being 0 (read-only)."""
    bits = np.array([0] + [1 << k for k in range(K)], dtype=dtype)
    bits.setflags(write=False)
    return bits


def _user(x, K: int, role: str) -> int:
    """`x` as an integer user in 1..K (a bool is the int it is), or a `ValueError` naming it as a `role`."""
    try:
        k = operator.index(x)
    except TypeError:
        raise ValueError(f"{role} {x!r} is not an integer") from None
    if not 1 <= k <= K:
        raise ValueError(f"{role} {k} is not in 1..{K}")
    return k


def _one(d, partition: LevelPartition, leaders) -> tuple[np.ndarray, np.ndarray | None]:
    """A stack of the one demand `d` of length K, and the flags of the given
    `leaders` (None if None); `_stack` checks the entries and the flags."""
    K = partition.K
    if len(d) != K:
        raise ValueError(f"demand length {len(d)} != K={K}")
    if leaders is None:
        return np.array([d]), None
    flags = np.zeros((1, K), dtype=bool)
    for x in leaders:
        flags[0, _user(x, K, "leader") - 1] = True
    return np.array([d]), flags


def _check_shape(db: Database, **shapes) -> None:
    for name, shape in shapes.items():
        if db.bits.shape != shape:
            raise ValueError(f"database has (N, F) = {db.bits.shape}, but the {name} has {shape}")


def encode_stack(
    db: Database,
    partition: LevelPartition,
    demands: np.ndarray,
    leaders: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Leader-based delivery of a stack of n demands ((n, K), files 1..N)
    with leader flags `leaders` ((n, K), `select_leaders`' if None). For
    each level of the partition: the payloads (n, n_T, L), zero-padded, and
    each row's payload length (n, n_T). A row is sent when it holds a leader
    and a non-empty chunk; a row not sent is zero, with length 0. Each level
    is one gather of the sent rows' chunks and one XOR-reduce."""
    _check_shape(db, partition=partition.order.shape)
    wanted, _, lead, _ = _stack(partition, demands, leaders)
    F = partition.F
    bits = np.zeros((db.N, F + 1), dtype=np.uint8)  # column F is the padding's zero
    bits[:, :F] = db.bits
    flat = bits.reshape(-1)
    delivery = []
    for level in partition.levels:
        cells, sizes = level.chunks(wanted)
        lengths = np.maximum.reduce(sizes, axis=0)
        lengths[(level.codes & lead[:, None]) == 0] = 0
        m, width, rows = len(cells), level.positions.shape[1], lengths.reshape(-1).nonzero()[0]
        payloads = np.zeros((*lengths.shape, width), dtype=np.uint8)
        cells = cells.reshape(m, -1)
        for block in _blocks(len(rows), m * width):
            # (members, rows, L): the XOR runs over the leading axis
            positions = level.positions.take(cells.take(rows[block], axis=1).reshape(-1), axis=0)
            chunks = flat.take(positions.astype(np.intp))  # see `Level` on int32 positions
            payloads.reshape(-1, width)[rows[block]] = np.bitwise_xor.reduce(chunks.reshape(m, -1, width), axis=0)
        delivery.append((payloads, lengths))
    return delivery


def encode_delivery(
    db: Database,
    partition: LevelPartition,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> Broadcast:
    """Leader-based delivery over every level of the partition: `encode_stack`
    for the one demand. Messages that would be empty are not sent; the rest
    go by subset size, then lexicographic."""
    return Broadcast(partition, encode_stack(db, partition, *_one(d, partition, leaders)))


def _user_code(users) -> int:
    """Bit k-1 set for each 1-based user k."""
    return sum(1 << (k - 1) for k in users)


def _as_delivery(partition: LevelPartition, messages) -> Broadcast | list[tuple[np.ndarray, np.ndarray]]:
    """A received broadcast as `encode_stack`'s arrays for one demand: a
    `Broadcast` itself if it is of this partition, else each message's payload
    placed, one message at a time, at the row of its members' code (its rank
    is not read). The last message naming a row wins, members with no row or
    not distinct users in 1..K are ignored, a payload is cut to its level's
    width, and a row no message names (or named with an empty payload) has
    length 0: it was not received."""
    if isinstance(messages, Broadcast) and messages.partition is partition:
        return messages
    delivery, by_size = [], {}
    for level in partition.levels:
        (n_T, m), width = level.members.shape, level.positions.shape[1]
        delivery.append((np.zeros((1, n_T, width), dtype=np.uint8), np.zeros((1, n_T), dtype=np.intp)))
        by_size[m] = (level, *delivery[-1])
    bit = {k: 1 << (k - 1) for k in range(1, partition.K + 1)}
    for message in messages:
        members = message.subset.members
        if len(members) not in by_size or len(set(members)) != len(members) or not all(x in bit for x in members):
            continue
        level, payloads, lengths = by_size[len(members)]
        r = int(level.rows_of(np.array([sum(bit[x] for x in members)], dtype=level.codes.dtype))[0])
        if r >= 0:
            payload = np.asarray(message.payload)[: payloads.shape[2]]
            payloads[0, r] = 0  # no bit of an earlier, longer payload of the row stays
            payloads[0, r, : len(payload)] = payload
            lengths[0, r] = len(payload)
    return delivery


def _cancellation_terms(codes: np.ndarray, files: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """The cancellation identity's terms for R leaderless subsets A of one
    level, from each A's code (R,), its members' requested files (R, m) and
    each member's swap bits (its own code bit and its file's leader's, (R, m)).

    With B = A + leaders, the identity XORs the messages of B minus V over
    every choice V of one requester per file but the all-leaders one. Such
    a term is A with a non-empty set of members, at most one per file,
    swapped for their file's leader: A has prod_f (1 + a_f) - 1 terms, a_f
    its members requesting file f, each in A's level and holding a leader.
    Term k = 1, 2, ... is k in mixed radix, one digit per file (0 for no
    swap, i for the file's i-th member). Returns the terms' codes, (R, C)
    for the most terms C of any A, a row's entries past its own terms being
    code 0: the empty set, which no level holds."""
    R, m = files.shape
    at = np.arange(0, R * m, m)[:, None]  # each row's start in a flat (R, m) array
    order = files.argsort(axis=1, kind="stable") + at
    ranked, swaps = files.take(order), swaps.take(order)
    head = np.ones((R, m), dtype=bool)
    head[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    group = head.cumsum(axis=1) - 1  # each member's file, numbered within A
    size = np.bincount((at + group).reshape(-1), minlength=R * m).reshape(R, m)
    first = size.cumsum(axis=1) - size
    count = (size + 1).prod(axis=1) - 1
    k = np.arange(1, count.max(initial=0) + 1)[None, :]
    terms = np.repeat(codes[:, None], k.shape[1], axis=1)
    for g in range(np.count_nonzero(size, axis=1).max(initial=0)):
        k, digit = np.divmod(k, size[:, g, None] + 1)
        terms ^= np.where(digit > 0, swaps.take(at + np.maximum(first[:, g, None] + digit - 1, 0)), 0)
    terms[k > 0] = 0  # k is left over past the last digit exactly beyond a row's own terms
    return terms


class _Plan(NamedTuple):
    """One level's share of a stack's decode from one delivery, for any
    users: the chunk cells of every row ((j+1, n * n_T), rows numbered
    demand * n_T + row, int32 where they fit), which are non-empty, every
    row's payload ((n * n_T + 1, L), received or rebuilt; the last row
    stays zero), every row's state, the only record of what was received
    ((n * n_T + 1,)): the first row it needs that was sent but not
    received, n * n_T (none) for the zero row and for a row received or
    with only empty chunks, the row itself if it holds a leader, and for an
    omitted row -1 until it is rebuilt, then its first such term; the
    omitted rows (no leader, a non-empty chunk; received or not), ascending;
    and, once a call for fewer than K users needs them (`_pairs`), the pairs
    (member c, row r) with a non-empty chunk, c * n * n_T + r (int32 where
    they fit), by user and row, with K + 2 offsets, user k's from the k-th."""

    level: Level
    cells: np.ndarray
    nonempty: np.ndarray
    payloads: np.ndarray
    lost: np.ndarray
    omitted: np.ndarray
    by_user: list


def _level_terms(plan: _Plan, wanted: np.ndarray, lowest: np.ndarray) -> np.ndarray:
    """One level's term table for a stack, row for row with its plan's
    omitted rows: the rows of each one's cancellation terms that the level
    has (a term it lacks has no chunk, so its message is empty), leftmost,
    then the zero row n * n_T up to the most any row has. The terms are
    counted a block of rows at a time (`_cancellation_terms`) and found by
    one lookup per block (`Level.rows_of`), which drops absent terms and
    non-terms alike. A member is swapped for its file's lowest-indexed
    leader, read from the stack's leader table `lowest` (`_stack`)."""
    level, rows, K = plan.level, plan.omitted, lowest.shape[1]
    n_T, m = level.members.shape
    s, r = np.divmod(rows, n_T)
    members = level.members.take(r, axis=0)
    files = wanted.take((s * wanted.shape[1])[:, None] + members)  # each member's file, 0-based
    bits = _user_bits(K, level.codes.dtype)
    swaps = bits.take(members) | bits.take(lowest.take((s * K - 1)[:, None] + members))
    codes, zero = level.codes.take(r), len(wanted) * n_T
    small = np.int32 if zero < 2**31 else np.intp  # the table is kept: halve it
    counts, held_rows = [], []
    # a block's terms are (rows, C) int64 arrays, and C, the most terms of a
    # row, grows about as the square of its width
    for block in _blocks(len(rows), 4 * m * m):
        found = level.rows_of(_cancellation_terms(codes[block], files[block], swaps[block]))
        held = found >= 0
        counts.append(np.count_nonzero(held, axis=1))
        held_rows.append((found[held] + np.repeat(s[block] * n_T, counts[-1])).astype(small))
    count = np.concatenate(counts)
    table = np.full((len(count), count.max()), zero, dtype=small)
    table[np.arange(table.shape[1]) < count[:, None]] = np.concatenate(held_rows)
    return table


def _rebuild(plan: _Plan, terms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write the message of each of the plan's omitted `rows` into its
    payloads from the level's term table (`_level_terms`): per block of
    rows, one gather of their terms' payloads laid out (terms, rows, L),
    padding being the zero row, and one XOR-reduce over the leading axis.
    Returns each row's first term that was sent but not received (the zero
    row if none), read from the terms' states in `plan.lost`: a term holds
    a leader, so its state is itself or the zero row."""
    at = np.searchsorted(plan.omitted, rows)
    lost = []
    for block in _blocks(len(rows), terms.shape[1] * plan.payloads.shape[1]):
        term_rows = terms.take(at[block], axis=0).T
        plan.payloads[rows[block]] = np.bitwise_xor.reduce(plan.payloads.take(term_rows, axis=0), axis=0)
        lost.append(np.minimum.reduce(plan.lost.take(term_rows), axis=0))
    return np.concatenate(lost)


def _pairs(plan: _Plan, users: list[int], K: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of the plan's level that `users` decode and, ascending, the
    rows they need not received but for those rebuilt from received terms:
    for all K users every pair and such row, else the users' slices of
    `by_user` (filled by a counting sort of the pairs, row-major, by user)."""
    R = len(plan.lost) - 1
    if len(users) == K:
        return np.flatnonzero(plan.nonempty), np.flatnonzero(plan.lost[:-1] < R)
    if not plan.by_user:
        members, m = plan.level.members, len(plan.nonempty)
        at = np.flatnonzero(plan.nonempty.T)  # row * m + member
        owner = members.take(at % members.size)
        r, c = np.divmod(at.take(owner.argsort(kind="stable")), m)  # a radix sort of small integers
        offsets = [0, *np.cumsum(np.bincount(owner, minlength=K + 1)).tolist()]
        plan.by_user[:] = (c * R + r).astype(np.int32 if m * R < 2**31 else np.intp), offsets
    pairs, offsets = plan.by_user
    mine = [pairs[offsets[k] : offsets[k + 1]] for k in users]
    pairs = mine[0] if len(mine) == 1 else np.concatenate([pairs[:0], *mine])
    needed = pairs % R  # ascending for one user; two may share a row
    missing = needed[plan.lost.take(needed) < R]
    return pairs, missing if len(users) == 1 else np.flatnonzero(np.bincount(missing))


def _plans(partition: LevelPartition, delivery, wanted: np.ndarray, lead: np.ndarray) -> list[_Plan]:
    """The `_Plan`s for decoding a stack (wanted files and leader codes) from
    `delivery`, `encode_stack`'s arrays (writable, so planned anew) or a
    `Broadcast`, whose plans `decode_cache` keeps until another is decoded.
    A `Broadcast` of another partition or with a stack of n != 1, and a
    level count or array shape that does not fit the partition and the
    stack, are refused with a `ValueError`. Each row's state is set here
    from the delivery's lengths, the decode's only read of them, and the
    chunk sizes."""
    cache = partition.decode_cache
    if "plans" in cache and cache["plans"][0]() is delivery:
        return cache["plans"][1]
    plans, arrays, n = [], delivery, len(wanted)
    if isinstance(delivery, Broadcast):
        if delivery.partition is not partition:
            raise ValueError("the broadcast is of another partition")
        if n != 1:
            raise ValueError(f"a broadcast holds one demand, not a stack of {n}")
        arrays = delivery.delivery
    if len(arrays) != len(partition.levels):
        raise ValueError(f"the delivery has {len(arrays)} levels, the partition {len(partition.levels)}")
    for i, (level, (payloads, lengths)) in enumerate(zip(partition.levels, arrays)):
        (n_T, m), width = level.members.shape, level.positions.shape[1]
        if np.shape(payloads) != (n, n_T, width) or np.shape(lengths) != (n, n_T):
            raise ValueError(f"level {i} of the delivery has payloads {np.shape(payloads)} and lengths "
                             f"{np.shape(lengths)}, expected {(n, n_T, width)} and {(n, n_T)}")
        rows = n * n_T
        cells, sizes = level.chunks(wanted)
        nonempty = (sizes > 0).reshape(m, -1)
        table = np.zeros((rows + 1, width), dtype=np.uint8)
        table[:-1] = payloads.reshape(-1, width)
        led = (np.tile(level.codes, n) & np.repeat(lead, n_T)) != 0
        chunked = np.logical_or.reduce(nonempty, axis=0)
        lost = np.full(rows + 1, rows)
        lost[:-1] = np.where((lengths.reshape(-1) > 0) | ~chunked, rows, np.where(led, np.arange(rows), -1))
        # int32 where the cell numbers fit, as the index's groups: a plan is kept
        cells = cells.reshape(m, -1).astype(np.int32 if len(level.sizes) <= 2**31 else np.intp)
        plans.append(_Plan(level, cells, nonempty, table, lost, (~led & chunked).nonzero()[0], []))
    if isinstance(delivery, Broadcast):
        cache["plans"] = (weakref.ref(delivery), plans)
    return plans


def decode_stack(
    users: Sequence[int],
    db: Database,
    placement: Placement,
    partition: LevelPartition,
    delivery,
    demands: np.ndarray,
    leaders: np.ndarray | None = None,
) -> np.ndarray:
    """Recover file d_k for each user k of `users` in each demand of a stack
    ((n, K), leader flags `leaders` as for `encode_stack`) from its cache
    plus the delivery: (n, len(users), F). `delivery` is `encode_stack`'s
    arrays, or a one-demand `Broadcast` of this partition; a row of length 0
    was not received. `users` must be distinct integers in 1..K, the stack
    as `_stack` checks it and the delivery as `_plans` does, or a
    `ValueError` says why.

    A repeat call with the same stack skips `_stack`. The users' cache
    views and each user's copy of its file in each demand (row s * U + u,
    for any n and U) are built first; the plan (`_plans`) does not depend
    on the users. Then one pass over the levels, in send order, checks,
    rebuilds and decodes each, from its pairs (`_pairs`): each (demand,
    row, member) with a requested member and a non-empty own chunk. A
    needed leaderless row that was not received is rebuilt once per plan by
    the cancellation identity; a needed row that holds a leader, directly
    or as a term, but was not received is lost: `DecodeError` names the
    first such in send order. The pairs are decoded by one gather from the
    views, one XOR-reduce over the partners and one scatter into the copies.
    Each user's bits are read from the database only through its own cache
    (the rest are zeroed), so any decoding gap shows up as a bit mismatch.
    """
    _check_shape(db, partition=partition.order.shape, placement=placement.codes.shape)
    N, F = db.N, partition.F
    # the stack is kept for a repeat call on the same arrays (dtype, shape, bytes)
    demands, flags = np.asarray(demands), None if leaders is None else np.asarray(leaders, dtype=bool)
    key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (demands, flags) if a is not None)
    cache = partition.decode_cache
    if cache.get("key") != key:
        wanted, _, lead, lowest = _stack(partition, demands, flags)
        cache.clear()
        cache.update(key=key, stack=(wanted, lead, lowest))
    wanted, lead, lowest = cache["stack"]
    n, K = len(wanted), partition.K
    users = [_user(k, K, "user") for k in users]
    if len(set(users)) < len(users):
        raise ValueError(f"user {next(k for i, k in enumerate(users) if k in users[:i])} is requested twice")
    U = len(users)
    plans = _plans(partition, delivery, wanted, lead)
    # every user's cache view, flat per user; column F of each file stays zero
    views = _cache_views(db, placement, users, F)
    flat = views.reshape(-1)
    # each user's view of its file in each demand, row s * U + u, where a
    # chunk of file i lands i * (F + 1) before its place in the views
    decoded = views.reshape(U * N, F + 1).take(np.arange(U) * N + wanted.take(users, axis=1), axis=0)
    decoded_flat = decoded.reshape(-1)
    slot = np.zeros(K + 1, dtype=np.intp)  # each requested user's row of the views
    slot[users] = np.arange(U)
    for i, plan in enumerate(plans):
        level, cells, payloads = plan.level, plan.cells, plan.payloads
        (n_T, m), width, R = level.members.shape, level.positions.shape[1], len(plan.lost) - 1
        pairs, missing = _pairs(plan, users, K)
        if len(missing):
            fresh = missing[plan.lost.take(missing) < 0]  # omitted, and no earlier call rebuilt them
            if len(fresh):
                if i not in cache:
                    cache[i] = _level_terms(plan, wanted, lowest)
                plan.lost[fresh] = _rebuild(plan, cache[i], fresh)
            first = plan.lost.take(missing).min()
            if first < R:
                raise DecodeError(tuple(level.members[first % n_T].tolist()))
        # a pair gathers m * width elements and holds about 16 entries of
        # int64 index arrays besides, which bound a block of short chunks
        for block in _blocks(len(pairs), m * width + 16):
            p = pairs[block]
            c, r = np.divmod(p, R)
            # (partners, pairs, L): the XOR runs over the leading axis
            pos = level.positions.take(cells.take(level.partners.take(c, axis=1) * R + r), axis=0)
            pos = pos.reshape(m - 1, len(p) * width)
            own = level.positions.take(cells.take(p), axis=0).reshape(-1)
            if n * U > 1:
                # each offset is repeated along its chunk, as adding (pairs,
                # 1) to (pairs, L) is slow for short chunks, and the sums are intp
                s, t = np.divmod(r, n_T)
                x = level.members.take(t * m + c)
                pos = pos + np.repeat(slot.take(x) * (N * (F + 1)), width)
                own = own + np.repeat((s * U + slot.take(x) - wanted.take(s * wanted.shape[1] + x)) * (F + 1), width)
            else:
                # one user's view of one demand starts at 0, its copy at its file
                pos, own = pos.astype(np.intp), own - wanted[0, users[0]] * (F + 1)  # see `Level` on int32 positions
            acc = np.bitwise_xor.reduce(flat.take(pos), axis=0)
            acc ^= payloads.take(r, axis=0).reshape(-1)
            decoded_flat[own] = acc
    return decoded[..., :F]


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
    broadcast `messages`: a (len(users), F) array, one row per user in that
    order; `decode_stack` for the one demand. A `Broadcast` of this partition
    is read from its arrays, its plans kept until another is decoded, so
    its one-user calls share them; any other sequence of `BroadcastMessage`s
    is placed into arrays first (see `_as_delivery`), for this call alone.
    """
    demands, flags = _one(d, partition, leaders)
    return decode_stack(users, db, placement, partition, _as_delivery(partition, messages), demands, flags)[0]


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
    """Total payload bits divided by the file size, exact; a `Broadcast`'s
    are read from its lengths."""
    if isinstance(messages, Broadcast):
        return Fraction(messages.payload_bits, F)
    return Fraction(sum(len(m.payload) for m in messages), F)
