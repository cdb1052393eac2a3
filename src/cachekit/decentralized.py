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
are rebuilt by the cancellation identity, each once per decode call for
all its members, one gather of their terms per level. The one-demand
functions (`encode_delivery`, `decode_users`, `decode_user`) are calls
with a stack of one. Batch (centralized) delivery is the one-level,
equal-chunk case: `centralized` hands its subfiles to this engine.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
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
    def term_cache(self) -> dict:
        """The decoder's cancellation terms for the last stack of demands."""
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
    users to about half a MB of temporaries: a stack's rows, chunk cells
    and payloads, level by level, and its users' decoded files come to at
    most _BLOCK / 4 elements, since the decode holds several int64 index
    arrays of that many elements at once."""
    per_demand = partition.K + users * (partition.F + 1) + sum(
        level.members.size + level.positions.shape[1] * len(level.members) for level in partition.levels)
    return max(_BLOCK // (4 * per_demand), 1)


def _stack(partition: LevelPartition, demands, leaders) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each user's wanted file row per demand ((n, K+1), column 0 unused), the
    leader flags ((n, K), `first_requesters` if None), each demand's leader
    code and each 1-based user's code bit (entry 0 is 0)."""
    demands = np.asarray(demands)
    if demands.ndim != 2 or demands.shape[1] != partition.K:
        raise ValueError(f"demands have shape {demands.shape}, expected (n, K={partition.K})")
    if demands.dtype.kind not in "iu" or demands.size and not 1 <= demands.min() <= demands.max() <= partition.N:
        raise ValueError(f"demand entries must be integers in 1..{partition.N}")
    if leaders is not None and np.shape(leaders) != demands.shape:
        raise ValueError(f"leader flags have shape {np.shape(leaders)}, expected {demands.shape}")
    leaders = first_requesters(demands) if leaders is None else np.asarray(leaders, dtype=bool)
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


def _one(d, K: int, leaders) -> tuple[np.ndarray, np.ndarray]:
    """A stack of the one demand `d` and its leader flags (`select_leaders` if None)."""
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
        lengths = np.maximum.reduce(sizes, axis=2)
        lengths[(level.codes & lead[:, None]) == 0] = 0
        payloads = np.zeros((*lengths.shape, level.positions.shape[1]), dtype=np.uint8)
        s, r = lengths.nonzero()
        for block in _blocks(len(s), level.members.shape[1] * level.positions.shape[1]):
            s_b, r_b = s[block], r[block]
            payloads[s_b, r_b] = np.bitwise_xor.reduce(np.take(flat, level.positions[cells[s_b, r_b]]), axis=1)
        delivery.append((payloads, lengths))
    return delivery


def encode_delivery(
    db: Database,
    partition: LevelPartition,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> list[BroadcastMessage]:
    """Leader-based delivery over every level of the partition: `encode_stack`
    for the one demand. Messages that would be empty are not sent; the rest
    go by subset size, then lexicographic."""
    _check_shape(db, partition=partition.order.shape)
    d = validate_demand(d, db.N)
    if len(d) != partition.K:
        raise ValueError(f"demand length {len(d)} != K={partition.K}")
    messages = []
    for level, (payloads, lengths) in zip(partition.levels, encode_stack(db, partition, *_one(d, partition.K, leaders))):
        for members, rank, n, payload in zip(level.members.tolist(), level.ranks.tolist(), lengths[0].tolist(), payloads[0]):
            if n:
                messages.append(BroadcastMessage(SubsetId(tuple(members), rank), payload[:n]))
    return messages


def _user_code(users) -> int:
    """Bit k-1 set for each 1-based user k."""
    return sum(1 << (k - 1) for k in users)


def _received(messages: Sequence[BroadcastMessage]) -> dict[tuple[int, int], np.ndarray]:
    """A received broadcast as a delivery of one demand for `decode_stack`:
    each message's payload by its subset's size and rank."""
    return {(len(m.subset.members), m.subset.rank): m.payload for m in messages}


def _payload_rows(delivery, i: int, level: Level, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The payloads, zero-padded ((len(rows), L)), and the lengths of level
    i's rows, numbered demand * n_T + row: gathered from `encode_stack`'s
    arrays, or for one demand copied from a received broadcast (length 0
    where no message names a row)."""
    width = level.positions.shape[1]
    if not isinstance(delivery, Mapping):
        payloads, lengths = delivery[i]
        return payloads.reshape(-1, width)[rows], lengths.reshape(-1)[rows]
    out = np.zeros((len(rows), width), dtype=np.uint8)
    lengths = []
    size = level.members.shape[1]
    for j, rank in enumerate(level.ranks[rows].tolist()):
        y = delivery.get((size, rank))
        if y is None:
            lengths.append(0)
            continue
        if len(y) > width:
            y = y[:width]
        out[j, : len(y)] = y
        lengths.append(len(y))
    return out, np.array(lengths, dtype=np.intp)


def _cancellation_terms(codes: np.ndarray, files: np.ndarray, swaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cancellation identity's terms for R leaderless subsets A, from each
    A's code (R,), its members' requested files (R, m) and each member's swap
    bits (its own code bit and its file's leader's, (R, m)). A column whose
    swap is 0 pads A to the widest subset; its file must sort last.

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
    weights = (swaps != 0).reshape(-1).astype(float)  # a pad counts for no file
    size = np.bincount((at * m + group).reshape(-1), weights, minlength=R * m).astype(np.intp).reshape(R, m)
    first = size.cumsum(axis=1) - size
    count = (size + 1).prod(axis=1) - 1
    k = np.arange(1, count.max(initial=0) + 1)[None, :]
    valid = k <= count[:, None]
    terms = np.repeat(codes[:, None], valid.shape[1], axis=1)
    for g in range(np.count_nonzero(size, axis=1).max(initial=0)):
        k, digit = np.divmod(k, size[:, g, None] + 1)
        terms ^= np.where(digit > 0, swaps[at, np.maximum(first[:, g, None] + digit - 1, 0)], 0)
    return terms, valid


def reconstruct_message(
    messages,
    d: Demand,
    leaders: frozenset[int],
    subset: SubsetId | Sequence[int],
) -> np.ndarray:
    """Rebuild the omitted message of a leaderless subset A: the XOR of its
    cancellation terms' messages (see `_cancellation_terms`), shorter ones
    zero-padded. Equals the direct XOR-of-chunks payload. Every term must be
    among `messages` (a list, or a mapping from members to payloads), or it
    is lost (`DecodeError`)."""
    members = tuple(subset.members) if isinstance(subset, SubsetId) else tuple(sorted(subset))
    leaders = frozenset(leaders)
    if not leaders.isdisjoint(members):
        raise ValueError(f"subset {members} contains a leader; message was broadcast")
    leader_of = {}
    for x in sorted(leaders, reverse=True):
        leader_of[d[x - 1]] = x
    files = [d[x - 1] for x in members]
    if not leader_of.keys() >= set(files):
        raise ValueError(f"leaders {sorted(leaders)} hold no requester of a file {members} request")
    swaps = [(1 << (x - 1)) | (1 << (leader_of[f] - 1)) for x, f in zip(members, files)]
    terms, _ = _cancellation_terms(np.array([_user_code(members)], dtype=object), np.array([files]),
                                   np.array([swaps], dtype=object))
    payloads = messages if isinstance(messages, Mapping) else {m.subset.members: m.payload for m in messages}
    parts = []
    for code in terms[0].tolist():
        key = tuple(k + 1 for k in range(code.bit_length()) if code >> k & 1)
        if key not in payloads:
            raise DecodeError(key)
        parts.append(payloads[key])
    parts.sort(key=len, reverse=True)
    acc = parts[0].copy()
    for y in parts[1:]:
        acc[: len(y)] ^= y
    return acc


def _leader_of(wanted: np.ndarray, leaders: np.ndarray) -> np.ndarray:
    """(n, K + 1): the lowest-indexed leader requesting each user's file in
    each demand, 0 if none; column 0, no user, is 0."""
    n, K = leaders.shape
    # whether user y leads user x's file, (n, x, y)
    leads = (wanted[:, 1:, None] == wanted[:, None, 1:]) & leaders[:, None, :]
    out = np.zeros((n, K + 1), dtype=np.intp)
    out[:, 1:] = np.where(leads.any(axis=2), leads.argmax(axis=2) + 1, 0)
    return out


class _Plan(NamedTuple):
    """One level's share of a decode: the chunk cells and sizes of every
    row (numbered demand * n_T + row), the (row, member) pairs to decode,
    the rows they need and those rows' payloads."""

    level: Level
    cells: np.ndarray
    sizes: np.ndarray
    mine: np.ndarray
    rows: np.ndarray
    payloads: np.ndarray


class _Terms(NamedTuple):
    """One level's omitted rows for a stack of demands: the rows with no
    leader and a non-empty chunk (numbered demand * n_T + row, ascending),
    and per row the rows of its cancellation terms (R, C), which of them
    are terms of it and which of those have a chunk, so were sent."""

    rows: np.ndarray
    term_rows: np.ndarray
    valid: np.ndarray
    sent: np.ndarray


def _omitted_terms(partition, plans, wanted, leaders, lead, bits) -> list[_Terms | None]:
    """The `_Terms` of every level of a stack (None where no row is
    omitted), from its plans' chunk sizes. The terms of every omitted row
    are counted at once, a block of rows at a time, each row padded with
    user 0 to the widest level; then each level's terms are found by one
    lookup. Kept with the partition for the last stack it was built for,
    so decoding one demand's users one call at a time builds it once."""
    key = (wanted.tobytes(), leaders.tobytes())
    cache = partition.term_cache
    if cache.get("key") == key:
        return cache["terms"]
    omitted = []
    for level, plan in zip(partition.levels, plans):
        n_T = len(level.members)
        led = (np.tile(level.codes, len(wanted)) & np.repeat(lead, n_T)) != 0
        omitted.append((~led & np.logical_or.reduce(plan.sizes > 0, axis=1)).nonzero()[0])
    terms = [None] * len(omitted)
    if any(len(rows) for rows in omitted):
        ends = np.cumsum([len(rows) for rows in omitted])
        width = max(level.members.shape[1] for level, rows in zip(partition.levels, omitted) if len(rows))
        members = np.zeros((ends[-1], width), dtype=np.intp)  # user 0 pads
        codes = np.empty(ends[-1], dtype=bits.dtype)
        s = np.empty(ends[-1], dtype=np.intp)
        for level, rows, hi in zip(partition.levels, omitted, ends):
            if not len(rows):
                continue
            lo = hi - len(rows)
            s[lo:hi], r = np.divmod(rows, len(level.members))
            members[lo:hi, : level.members.shape[1]] = level.members[r]
            codes[lo:hi] = level.codes[r]
        files = np.where(members > 0, wanted[s[:, None], members], partition.N)  # a pad's file, N, sorts last
        leads = _leader_of(wanted, leaders)[s[:, None], members]
        if not (leads > 0)[members > 0].all():
            raise ValueError("the leaders hold no requester of a file that an omitted subset's member requests")
        swaps = bits[members] | bits[leads]
        parts = [[] for _ in omitted]
        # a block's terms are (rows, C) int64 arrays, and C, the most terms
        # of a row, grows about as the square of its width
        for block in _blocks(ends[-1], 4 * width * width):
            b0, b1 = range(ends[-1])[block].start, range(ends[-1])[block].stop
            codes_b, valid_b = _cancellation_terms(codes[block], files[block], swaps[block])
            for i, (level, rows, end) in enumerate(zip(partition.levels, omitted, ends)):
                lo, hi = max(end - len(rows), b0), min(end, b1)
                if lo < hi:
                    found = level.rows_of(codes_b[lo - b0 : hi - b0].reshape(-1)).reshape(hi - lo, -1)
                    valid = valid_b[lo - b0 : hi - b0] & (found >= 0)
                    found = np.where(valid, (s[lo:hi] * len(level.members))[:, None] + found, 0)
                    if len(wanted) * len(level.members) < 2**31:
                        found = found.astype(np.int32)  # the table is kept: halve it
                    parts[i].append((found, valid, valid & np.logical_or.reduce(plans[i].sizes[found] > 0, axis=2)))
        for i, rows in enumerate(omitted):
            if len(parts[i]) == 1:
                terms[i] = _Terms(rows, *parts[i][0])
            elif parts[i]:
                # blocks count up to their own most terms: pad to the level's
                C = max(found.shape[1] for found, _, _ in parts[i])
                terms[i] = _Terms(rows, *(np.concatenate([np.pad(a, ((0, 0), (0, C - a.shape[1]))) for a in part])
                                          for part in zip(*parts[i])))
    cache.clear()
    cache.update(key=key, terms=terms)
    return terms


def _rebuild(plan, terms: _Terms, delivery, i: int, places: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write the message of each of level i's omitted `rows` into its plan's
    payloads at `places`: per block of rows, one gather of their terms' rows
    and one XOR-reduce. Returns the term rows that were sent but not
    received."""
    at = np.searchsorted(terms.rows, rows)
    width = plan.payloads.shape[1]
    lost = []
    for block in _blocks(len(rows), terms.term_rows.shape[1] * width):
        valid = terms.valid[at[block]]
        term_rows = terms.term_rows[at[block]][valid]
        parts = np.zeros((*valid.shape, width), dtype=np.uint8)
        parts[valid], lengths = _payload_rows(delivery, i, plan.level, term_rows)
        plan.payloads[places[block]] = np.bitwise_xor.reduce(parts, axis=1)
        lost.append(term_rows[terms.sent[at[block]][valid] & (lengths == 0)])
    return np.concatenate(lost)


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
    plus the delivery: (n, len(users), F). `delivery` is `encode_stack`'s,
    or for one demand `_received`'s map of a broadcast; a row of length 0
    was not received.

    Every (demand, row, member) with a requested member and a non-empty own
    chunk is decoded, a level at a time, by one gather from the users' cache
    views, one XOR-reduce over the partners and one scatter. The views do
    not depend on the demand, so they are built once per stack. Each
    needed leaderless row that was not received is rebuilt once per stack
    by the cancellation identity. A needed row that holds a leader, directly
    or as a term, but was not received is lost: `DecodeError` names the
    first such in send order. Each user's bits are read from the database
    only through its own cache (the rest are zeroed), so any decoding gap
    shows up as a bit mismatch.
    """
    _check_shape(db, partition=partition.order.shape, placement=placement.codes.shape)
    N, F = db.N, partition.F
    wanted, leaders, lead, bits = _stack(partition, demands, leaders)
    n = len(wanted)
    users = list(users)
    U = len(users)
    requested = np.zeros(partition.K + 1, dtype=bool)
    requested[users] = True
    # the rows each level needs, with their payloads: received, lost or to rebuild
    plans, lost, omitted = [], [], []
    for i, level in enumerate(partition.levels):
        n_T, m = level.members.shape
        cells, sizes = level.chunks(wanted)
        # (row, member) of a requested member and its non-empty chunk
        mine = (requested[level.members] & (sizes > 0)).reshape(-1, m)
        rows = np.logical_or.reduce(mine, axis=1).nonzero()[0]
        payloads, lengths = _payload_rows(delivery, i, level, rows)
        plans.append(_Plan(level, cells.reshape(-1, m), sizes.reshape(-1, m), mine, rows, payloads))
        places = (lengths == 0).nonzero()[0]  # needed rows not received
        if len(places):
            s, r = np.divmod(rows[places], n_T)
            led = (level.codes[r] & lead[s]) != 0
            lost.append((i, rows[places[led]]))
            if not led.all():
                omitted.append((i, places[~led], rows[places[~led]]))
    if omitted:
        terms = _omitted_terms(partition, plans, wanted, leaders, lead, bits)
        lost += [(i, _rebuild(plans[i], terms[i], delivery, i, places, rows)) for i, places, rows in omitted]
    for i in sorted({i for i, rows in lost if len(rows)}):
        level, first = plans[i].level, min(rows.min() for j, rows in lost if j == i and len(rows))
        raise DecodeError(tuple(level.members[first % len(level.members)].tolist()))
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
        decoded, row = views[np.arange(U), wanted[:, users]], F + 1
    decoded_flat = decoded.reshape(-1)
    slot = np.zeros(partition.K + 1, dtype=np.intp)  # each requested user's row of the views
    slot[users] = np.arange(U)
    for level, cells, _, mine, rows, payloads in plans:
        if not len(rows):
            continue
        at, c = mine[rows].nonzero()
        width = level.positions.shape[1]
        for block in _blocks(len(at), level.members.shape[1] * width):
            at_b, c_b = at[block], c[block]
            pos = level.positions[cells[rows[at_b, None], level.partners[c_b]]].astype(np.intp)
            own = level.positions[cells[rows[at_b], c_b]].astype(np.intp)
            if n * U > 1:
                # one user's view of one demand starts at 0, and this pass over
                # the positions costs about what widening them does, so a call
                # for one user and one demand skips it
                s, r = np.divmod(rows[at_b], len(level.members))
                x = level.members[r, c_b]
                pos += (slot[x] * (N * (F + 1)))[:, None, None]
                own += ((s * U + slot[x]) * row - (wanted[s, x] * (F + 1) if n > 1 else 0))[:, None]
            acc = np.bitwise_xor.reduce(flat[pos], axis=1)
            acc ^= payloads[at_b]
            # the chunks' padding lands in column F, which is zeroed again
            decoded_flat[own] = acc
            decoded_flat[F :: F + 1] = 0
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
    broadcast `messages`, a list of `BroadcastMessage`s: a (len(users), F)
    array, one row per user in that order; `decode_stack` for the one
    demand.
    """
    _check_shape(db, partition=partition.order.shape, placement=placement.codes.shape)
    d = validate_demand(d, db.N)
    K = partition.K
    if len(d) != K:
        raise ValueError(f"demand length {len(d)} != K={K}")
    users = [operator.index(k) for k in users]
    seen = set()
    for k in users:
        if not 1 <= k <= K:
            raise ValueError(f"user {k} is not in 1..{K}")
        if k in seen:
            raise ValueError(f"user {k} is requested twice")
        seen.add(k)
    demands, flags = _one(d, K, leaders)
    return decode_stack(users, db, placement, partition, _received(messages), demands, flags)[0]


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
