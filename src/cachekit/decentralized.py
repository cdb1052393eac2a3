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
gathers each requested user's partner chunks from its own cache view,
XOR-reduces them with the payloads and scatters the result into the user's
file; padding lands in a zero sentinel column. Omitted leaderless messages
are rebuilt by the cancellation identity, each once per decode plan for
all its members, one gather of their terms per level; a `Broadcast` keeps
its plan, so that its one-user calls share it. Two rules keep the
kernels fast on the short rows of small instances, where numpy's cost per
call and per row, not the bits moved, sets the time. Every gather is an
`ndarray.take` over a flat index: fancy indexing with a 2-D or paired
index costs about 15 times as much. Each gather is laid out so that its
XOR-reduce runs over the leading axis: (members, rows, L) to encode,
(partners, pairs, L) to decode and (terms, rows, L) to rebuild; reducing
over a middle axis of length 2-10 costs tens to hundreds of times as
much. The one-demand functions (`encode_delivery`, `decode_users`,
`decode_user`) are calls with a stack of one. Each input has one door: a
one-demand call's demand and leaders are checked by `_one`, a stack by
`_stack`, the users by `decode_stack`. A delivery has one
representation, those arrays: `encode_delivery` returns them as a
`Broadcast`, a sequence whose `BroadcastMessage`s are built only when it is
read as one, and the decoders read a `Broadcast` of their partition from
its arrays, placing any other message list into arrays first, one message
at a time. Batch (centralized) delivery is the one-level, equal-chunk
case: `centralized` hands its subfiles to this engine.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .combinatorics import SubsetId
from .model import Database, Demand, Placement, code_dtype, validate_demand

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
    themselves, keeping with it the decode plan of its last stack (`_plans`)."""

    def __init__(self, partition: LevelPartition, delivery: list[tuple[np.ndarray, np.ndarray]]):
        for arrays in delivery:
            for array in arrays:
                array.setflags(write=False)
        self.partition = partition
        self.delivery = delivery
        self._plan = None  # (key, plans): see `_plans`

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
        return [BroadcastMessage(SubsetId(tuple(members), rank), payloads[0, r, :n])
                for r, members, rank, n in zip(rows.tolist(), level.members[rows].tolist(),
                                               level.ranks[rows].tolist(), lengths[0, rows].tolist())]

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
    def term_cache(self) -> dict:
        """The decoder's cancellation terms for the last stack of demands: its
        key, and a `_Terms` for each level, built the first time a decode of
        the stack rebuilds a row of that level; every delivery shares them."""
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
    a file is where its code's run ends less where the previous one does.
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


def first_requesters(demands: np.ndarray) -> np.ndarray:
    """(n, K) booleans for a stack of n demands: whether each user is the
    lowest-indexed requester of its file, `select_leaders`' rule."""
    demands = np.asarray(demands)
    leaders = np.ones(demands.shape, dtype=bool)
    for x in range(1, demands.shape[1]):
        leaders[:, x] = (demands[:, :x] != demands[:, x, None]).all(axis=1)
    return leaders


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
    """Each user's wanted file row per demand ((n, K+1), column 0 unused), the
    leader flags ((n, K), `first_requesters` if None; they must flag a
    requester of every requested file), each demand's leader code and each
    1-based user's code bit (entry 0 is 0)."""
    demands = np.asarray(demands)
    if demands.ndim != 2 or demands.shape[1] != partition.K:
        raise ValueError(f"demands have shape {demands.shape}, expected (n, K={partition.K})")
    if demands.dtype.kind not in "iu" or demands.size and not 1 <= demands.min() <= demands.max() <= partition.N:
        raise ValueError(f"demand entries must be integers in 1..{partition.N}")
    if leaders is not None and np.shape(leaders) != demands.shape:
        raise ValueError(f"leader flags have shape {np.shape(leaders)}, expected {demands.shape}")
    if leaders is None:
        leaders = first_requesters(demands)
    else:
        # each requested file needs a leader, or its omitted messages have no terms
        leaders = np.asarray(leaders, dtype=bool)
        size = len(demands) * (partition.N + 1)
        slots = np.add(demands, np.arange(0, size, partition.N + 1)[:, None], dtype=np.intp)  # each demand's files
        led = np.zeros(size, dtype=bool)
        led[slots.reshape(-1).compress(leaders.reshape(-1))] = True
        if not led.take(slots).all():
            s, x = np.argwhere(~led.take(slots))[0].tolist()
            raise ValueError(f"the leaders of demand {tuple(demands[s].tolist())} hold no requester of file "
                             f"{demands[s, x]}")
    wanted = np.empty((len(demands), partition.K + 1), dtype=np.intp)
    wanted[:, 0] = 0
    np.subtract(demands, 1, out=wanted[:, 1:])
    bits = _user_bits(partition.K, partition.codes.dtype)
    return wanted, leaders, np.bitwise_or.reduce(bits[1:] * leaders, axis=1), bits


@lru_cache(maxsize=None)
def _user_bits(K: int, dtype: np.dtype) -> np.ndarray:
    """Each 1-based user's code bit, entry 0 being 0 (read-only)."""
    bits = np.array([0] + [1 << k for k in range(K)], dtype=dtype)
    bits.setflags(write=False)
    return bits


def _one(d, partition: LevelPartition, leaders) -> tuple[np.ndarray, np.ndarray]:
    """A stack of the one demand `d`, checked against the partition, and its
    leader flags (`select_leaders` if None)."""
    d, K = validate_demand(d, partition.N), partition.K
    if len(d) != K:
        raise ValueError(f"demand length {len(d)} != K={K}")
    flags = np.zeros((1, K), dtype=bool)
    for x in select_leaders(d) if leaders is None else leaders:
        if not 1 <= x <= K:
            raise ValueError(f"leader {x} is not in 1..{K}")
        flags[0, x - 1] = True
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
    with leader flags `leaders` ((n, K), `first_requesters` if None). For
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
    _check_shape(db, partition=partition.order.shape)
    return Broadcast(partition, encode_stack(db, partition, *_one(d, partition, leaders)))


def _user_code(users) -> int:
    """Bit k-1 set for each 1-based user k."""
    return sum(1 << (k - 1) for k in users)


def _as_delivery(partition: LevelPartition, messages) -> Broadcast | list[tuple[np.ndarray, np.ndarray]]:
    """A received broadcast as `encode_stack`'s arrays for one demand: a
    `Broadcast` itself if it is of this partition, else each message's payload
    placed, one message at a time, at the row of its subset's size and rank.
    The last message naming a row wins, a subset with no row is ignored, a
    payload is cut to its level's width, and a row no message names (or
    named with an empty payload) has length 0: it was not received."""
    if isinstance(messages, Broadcast) and messages.partition is partition:
        return messages
    delivery, by_size = [], {}
    for level in partition.levels:
        (n_T, m), width = level.members.shape, level.positions.shape[1]
        delivery.append((np.zeros((1, n_T, width), dtype=np.uint8), np.zeros((1, n_T), dtype=np.intp)))
        by_size[m] = (level, *delivery[-1])
    for message in messages:
        subset = message.subset
        if len(subset.members) not in by_size:
            continue
        level, payloads, lengths = by_size[len(subset.members)]
        r = int(np.searchsorted(level.ranks, subset.rank))  # ranks ascend in send order
        if r < len(level.ranks) and level.ranks[r] == subset.rank:
            payload = np.asarray(message.payload)[: payloads.shape[2]]
            payloads[0, r] = 0  # no bit of an earlier, longer payload of the row stays
            payloads[0, r, : len(payload)] = payload
            lengths[0, r] = len(payload)
    return delivery


def _cancellation_terms(codes: np.ndarray, files: np.ndarray, swaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    for the most terms C of any A, and which of them are terms."""
    R, m = files.shape
    at = np.arange(R)[:, None]
    order = files.argsort(axis=1, kind="stable")
    ranked, swaps = files[at, order], swaps[at, order]
    head = np.ones((R, m), dtype=bool)
    head[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    group = head.cumsum(axis=1) - 1  # each member's file, numbered within A
    size = np.bincount((at * m + group).reshape(-1), minlength=R * m).reshape(R, m)
    first = size.cumsum(axis=1) - size
    count = (size + 1).prod(axis=1) - 1
    k = np.arange(1, count.max(initial=0) + 1)[None, :]
    valid = k <= count[:, None]
    terms = np.repeat(codes[:, None], valid.shape[1], axis=1)
    for g in range(np.count_nonzero(size, axis=1).max(initial=0)):
        k, digit = np.divmod(k, size[:, g, None] + 1)
        terms ^= np.where(digit > 0, swaps[at, np.maximum(first[:, g, None] + digit - 1, 0)], 0)
    return terms, valid


class _Plan(NamedTuple):
    """One level's share of a stack's decode from one delivery, for any
    users: the chunk cells of every row ((j+1, n * n_T), rows numbered
    demand * n_T + row), which are non-empty, every row's payload
    ((n * n_T + 1, L), received or rebuilt; the last row stays zero) and
    the first row each row needs that was sent but not received: n * n_T
    (none) if received, itself if it holds a leader, and for an omitted
    row -1 until it is rebuilt, then its first such term."""

    level: Level
    cells: np.ndarray
    nonempty: np.ndarray
    payloads: np.ndarray
    lost: np.ndarray


class _Terms(NamedTuple):
    """One level's omitted rows for a stack of demands: the rows with no
    leader and a non-empty chunk (numbered demand * n_T + row, ascending),
    and per row the rows of its cancellation terms (R, C). A term absent
    from the level has no chunk, so its message is empty: it and the
    padding of a row with fewer than C terms are the zero row n * n_T."""

    rows: np.ndarray
    term_rows: np.ndarray


def _level_terms(plan: _Plan, wanted: np.ndarray, leaders: np.ndarray, lead: np.ndarray, bits) -> _Terms:
    """The `_Terms` of one level of a stack, from its plan's chunk sizes: the
    omitted rows' terms are counted a block of rows at a time
    (`_cancellation_terms`), and each block's are found in the level by one
    lookup (`Level.rows_of`). A member is swapped for the lowest-indexed
    leader of its file, read from one table over the stack's (demand, file)
    slots."""
    level, n = plan.level, len(wanted)
    n_T, m = level.members.shape
    led = (np.tile(level.codes, n) & np.repeat(lead, n_T)) != 0
    rows = (~led & np.logical_or.reduce(plan.nonempty, axis=0)).nonzero()[0]
    s, r = np.divmod(rows, n_T)
    members = level.members.take(r, axis=0)
    files = wanted.take((s * wanted.shape[1])[:, None] + members)  # each member's file, 0-based
    # the lowest-indexed leader of each (demand, file) slot: `_stack` made
    # sure that every requested file has one
    N = int(wanted.max()) + 1
    by, x = leaders.nonzero()
    leader = np.full(n * N, len(bits), dtype=np.intp)
    np.minimum.at(leader, by * N + wanted.take(by * wanted.shape[1] + x + 1), x + 1)
    swaps = bits.take(members) | bits.take(leader.take((s * N)[:, None] + files))
    codes, zero = level.codes.take(r), n * n_T
    parts = []
    # a block's terms are (rows, C) int64 arrays, and C, the most terms of a
    # row, grows about as the square of its width
    for block in _blocks(len(rows), 4 * m * m):
        terms, valid = _cancellation_terms(codes[block], files[block], swaps[block])
        found = level.rows_of(terms.reshape(-1)).reshape(terms.shape)
        found = np.where(valid & (found >= 0), (s[block] * n_T)[:, None] + found, zero)
        parts.append(found.astype(np.int32) if zero < 2**31 else found)  # the table is kept: halve it
    C = max(part.shape[1] for part in parts)  # blocks count up to their own most terms
    return _Terms(rows, np.concatenate([np.pad(part, ((0, 0), (0, C - part.shape[1])), constant_values=zero)
                                        for part in parts]))


def _rebuild(plan, terms: _Terms, delivery, i: int, rows: np.ndarray) -> np.ndarray:
    """Write the message of each of level i's omitted `rows` into its plan's
    payloads: per block of rows, one gather of their terms' payloads laid
    out (terms, rows, L), a missing term being the zero row, and one
    XOR-reduce over the leading axis. Returns each row's first term that was
    sent but not received (the zero row if none): a term with a chunk holds
    a leader, so it was sent."""
    at = np.searchsorted(terms.rows, rows)
    # the rows with a chunk that were not received; the zero row has none
    gone = np.append(np.logical_or.reduce(plan.nonempty, axis=0) & (delivery[i][1].reshape(-1) == 0), False)
    lost = []
    for block in _blocks(len(rows), terms.term_rows.shape[1] * plan.payloads.shape[1]):
        term_rows = terms.term_rows.take(at[block], axis=0).T
        plan.payloads[rows[block]] = np.bitwise_xor.reduce(plan.payloads.take(term_rows, axis=0), axis=0)
        lost.append(np.minimum.reduce(np.where(gone.take(term_rows), term_rows, len(gone) - 1), axis=0))
    return np.concatenate(lost)


def _plans(partition: LevelPartition, delivery, arrays, wanted: np.ndarray, lead: np.ndarray,
           key: tuple) -> list[_Plan]:
    """The `_Plan`s for decoding the stack `key` (wanted files and leader
    flags) from `delivery`: new for raw arrays, kept by a `Broadcast`."""
    kept = delivery._plan if isinstance(delivery, Broadcast) else None
    if kept is not None and kept[0] == key:
        return kept[1]
    plans = []
    for level, (payloads, lengths) in zip(partition.levels, arrays):
        (n_T, m), width = level.members.shape, level.positions.shape[1]
        rows = len(wanted) * n_T
        cells, sizes = level.chunks(wanted)
        table = np.zeros((rows + 1, width), dtype=np.uint8)
        table[:-1] = payloads.reshape(-1, width)
        led = (np.tile(level.codes, len(wanted)) & np.repeat(lead, n_T)) != 0
        lost = np.where(lengths.reshape(-1) > 0, rows, np.where(led, np.arange(rows), -1))
        plans.append(_Plan(level, cells.reshape(m, -1), (sizes > 0).reshape(m, -1), table, lost))
    if isinstance(delivery, Broadcast):
        delivery._plan = (key, plans)
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
    was not received. `users` must be distinct and in 1..K, and the stack
    as `_stack` checks it, or a `ValueError` says why.

    Every (demand, row, member) with a requested member and a non-empty own
    chunk is decoded, a level at a time, by one gather from the users' cache
    views, one XOR-reduce over the partners and one scatter. The views do
    not depend on the demand, so they are built once per stack; the plan
    (`_plans`) does not depend on the users. Each needed leaderless row that
    was not received is rebuilt once per plan by the cancellation identity.
    A needed row that holds a leader, directly or as a term, but was not
    received is lost: `DecodeError` names the first such in send order.
    Each user's bits are read from the database only through its own cache
    (the rest are zeroed), so any decoding gap shows up as a bit mismatch.
    """
    _check_shape(db, partition=partition.order.shape, placement=placement.codes.shape)
    N, F = db.N, partition.F
    wanted, leaders, lead, bits = _stack(partition, demands, leaders)
    n, K = len(wanted), partition.K
    users = [operator.index(k) for k in users]
    seen = set()
    for k in users:
        if not 1 <= k <= K:
            raise ValueError(f"user {k} is not in 1..{K}")
        if k in seen:
            raise ValueError(f"user {k} is requested twice")
        seen.add(k)
    U = len(users)
    requested = np.zeros(K + 1, dtype=bool)
    requested[users] = True
    key = (wanted.tobytes(), leaders.tobytes())
    arrays = delivery.delivery if isinstance(delivery, Broadcast) else delivery
    plans = _plans(partition, delivery, arrays, wanted, lead, key)
    terms = partition.term_cache
    mines = []
    for i, plan in enumerate(plans):
        level, (n_T, m) = plan.level, plan.level.members.shape
        # (member, row) of a requested member and its non-empty chunk
        mine = (requested.take(level.members.T)[:, None, :] & plan.nonempty.reshape(m, n, n_T)).reshape(m, -1)
        mines.append(mine)
        # the needed rows not received, but for those rebuilt from received terms
        missing = np.flatnonzero(np.logical_or.reduce(mine, axis=0) & (plan.lost < n * n_T))
        if len(missing):
            fresh = missing[plan.lost.take(missing) < 0]  # omitted, and no earlier call rebuilt them
            if len(fresh):
                if terms.get("key") != key:
                    terms.clear()
                    terms["key"] = key
                if i not in terms:
                    terms[i] = _level_terms(plan, wanted, leaders, lead, bits)
                plan.lost[fresh] = _rebuild(plan, terms[i], arrays, i, fresh)
            first = plan.lost.take(missing).min()
            if first < n * n_T:
                raise DecodeError(tuple(level.members[first % n_T].tolist()))
    # every user's cache view, flat per user; column F of each file stays zero
    views = _cache_views(db, placement, users, F)
    flat = views.reshape(-1)
    if n == 1:
        # decoded in place: a user's own chunks lie where its view holds no
        # partner chunk, and user u's view starts at u * N * (F + 1)
        decoded, row = views, N * (F + 1)
    else:
        # each user's view of its file in each demand, row s * U + u, where a
        # chunk of file i lands i * (F + 1) before its place in the views
        decoded = views.reshape(U * N, F + 1).take(np.arange(U) * N + wanted.take(users, axis=1), axis=0)
        row = F + 1
    decoded_flat = decoded.reshape(-1)
    slot = np.zeros(K + 1, dtype=np.intp)  # each requested user's row of the views
    slot[users] = np.arange(U)
    for plan, mine in zip(plans, mines):
        pairs = np.flatnonzero(mine)  # member * n * n_T + row, by member
        if not len(pairs):
            continue
        level, cells, payloads = plan.level, plan.cells, plan.payloads
        (n_T, m), width, R = level.members.shape, level.positions.shape[1], mine.shape[1]
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
                # one user's view of one demand starts at 0, so a call for one
                # user and one demand adds no offsets; each offset is repeated
                # along its chunk, as adding (pairs, 1) to (pairs, L) is slow
                # for short chunks, and the sums are intp
                s, t = np.divmod(r, n_T)
                x = level.members.take(t * m + c)
                pos = pos + np.repeat(slot.take(x) * (N * (F + 1)), width)
                base = (s * U + slot.take(x)) * row
                if n > 1:
                    base -= wanted.take(s * wanted.shape[1] + x) * (F + 1)
                own = own + np.repeat(base, width)
            else:
                pos, own = pos.astype(np.intp), own.astype(np.intp)  # see `Level` on int32 positions
            acc = np.bitwise_xor.reduce(flat.take(pos), axis=0)
            acc ^= payloads.take(r, axis=0).reshape(-1)
            decoded_flat[own] = acc
            if n == 1:
                decoded_flat[F :: F + 1] = 0  # the chunks' padding lands in the views' zero column
    if n == 1:
        return views[np.arange(U), wanted[0, users], :F][None]
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
    is read from its arrays and keeps the decode plan, so one-user calls
    share it; any other sequence of `BroadcastMessage`s is placed into
    arrays first (see `_as_delivery`), for this call alone.
    """
    _check_shape(db, partition=partition.order.shape, placement=placement.codes.shape)
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
