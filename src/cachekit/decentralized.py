"""The delivery engine, and uniform random (decentralized) prefetching.

Delivery groups database bits by the exact set of users that cached them;
within each level (sets of equal size j) the groups play the role of
subfiles. For every (j+1)-subset T holding a leader (one requester per
distinct requested file) the broadcast XORs the chunks T's members want
from each other, user x's chunk being file d_x's bits cached by exactly
T minus x, zero-padded to the longest; receivers drop the padding using the
known group sizes and rebuild the omitted leaderless messages by the
cancellation identity. Batch (centralized) delivery is the one-level,
equal-chunk case: `centralized` hands its subfiles to this engine.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor

import numpy as np

from .combinatorics import SubsetId, subset_rank
from .model import Database, Demand, Placement, code_dtype, validate_demand

_EMPTY = np.empty(0, dtype=np.int64)


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

    @cached_property
    def _subsets(self) -> list[tuple[SubsetId, int, list]]:
        """Every subset T = S + {x} of a group S and a user x outside S, in
        send order (by size, then lexicographic): its id, its user-set code and
        its sources (x, positions per file of group T - {x}). Demand-free, so
        built once per partition."""
        sources: dict[tuple[int, ...], list] = {}
        for S, per_file in self.groups.items():
            for x in set(range(1, self.K + 1)).difference(S):
                i = bisect_left(S, x)  # members stay ascending
                sources.setdefault(S[:i] + (x,) + S[i:], []).append((x, per_file))
        order = sorted(sources, key=lambda T: (len(T), T))
        return [(SubsetId(T, subset_rank(T, self.K)), _user_code(T), sources[T]) for T in order]


def level_partition(placement: Placement, N: int, F: int) -> LevelPartition:
    """Exact partition of all (file, bit) positions by caching set.

    One stable sort of the placement's codes per file puts equal codes next
    to each other with their positions ascending, and each group is its
    run's slice of the (read-only) sort order.
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
    starts = [np.searchsorted(row, present, side="left").tolist() for row in ranked]
    stops = [np.searchsorted(row, present, side="right").tolist() for row in ranked]
    groups: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    for c, code in enumerate(present.tolist()):
        members = tuple(k + 1 for k in range(K) if code >> k & 1)
        groups[members] = tuple(order[i, starts[i][c] : stops[i][c]] for i in range(N))
    return LevelPartition(K, N, F, groups)


def _sent(partition: LevelPartition, d: tuple[int, ...], lead_code: int):
    """(subset id, [(file, positions), ...]) of each message the encoder sends,
    in send order: subsets with a leader and at least one non-empty chunk."""
    for sid, code, sources in partition._subsets:
        if code & lead_code:
            chunks = []
            for x, per_file in sources:
                f = d[x - 1]
                pos = per_file[f - 1]
                if len(pos):
                    chunks.append((f, pos))
            if chunks:
                yield sid, chunks


def encode_delivery(
    db: Database,
    partition: LevelPartition,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> list[BroadcastMessage]:
    """Leader-based delivery over every level of the partition. Messages that
    would be empty are not sent; the rest go by subset size, then lexicographic."""
    d = validate_demand(d, db.N)
    if len(d) != partition.K:
        raise ValueError(f"demand length {len(d)} != K={partition.K}")
    if leaders is None:
        leaders = select_leaders(d)
    files = list(db.bits)  # 1-D rows: gathering from a row beats 2-D fancy indexing
    messages = []
    for sid, chunks in _sent(partition, d, _user_code(leaders)):
        parts = sorted((files[f - 1][pos] for f, pos in chunks), key=len, reverse=True)
        # each gather is a fresh array, so the longest one takes the XOR
        messages.append(BroadcastMessage(sid, _xor_into(parts[0], parts[1:])))
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
    block = sorted(set(members) | leaders)
    terms = []
    for choice in itertools.product(*_requester_groups(d, block)):
        if frozenset(choice) == leaders:
            continue
        key = tuple(x for x in block if x not in choice)
        term = payloads.get(key)
        if term is not None:
            terms.append(term)
        elif sent is None or key in sent():
            raise DecodeError(key)
    terms.sort(key=len, reverse=True)
    return _xor_into(terms[0].copy(), terms[1:]) if terms else np.zeros(0, dtype=np.uint8)


def decode_user(
    k: int,
    db: Database,
    placement: Placement,
    partition: LevelPartition,
    messages,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> np.ndarray:
    """Recover file d_k for user k from its cache plus the broadcast.

    Only bits the user actually cached are read from the database (the rest
    are zeroed), so any decoding gap shows up as a bit mismatch.
    `messages` may be a list or a `payload_map` of it.
    """
    d = validate_demand(d, db.N)
    if leaders is None:
        leaders = select_leaders(d)
    lead_code = _user_code(leaders)
    view = list(db.bits & placement.cached(k))  # 1-D rows of the user's cache view
    payloads = payload_map(messages)
    wanted = d[k - 1]
    out = view[wanted - 1].copy()  # every bit user k cached; the other groups fill the rest
    sent_set = None

    def sent() -> set[tuple[int, ...]]:
        nonlocal sent_set  # one pass over the partition per call, on the first missing term only
        if sent_set is None:
            sent_set = {sid.members for sid, _ in _sent(partition, d, lead_code)}
        return sent_set

    k_bit = 1 << (k - 1)
    for sid, code, sources in partition._subsets:
        if not code & k_bit:
            continue
        for x, own in sources:
            if x == k:
                break
        else:
            continue  # the group T - {k} is empty
        pos = own[wanted - 1]
        n = len(pos)
        if not n:
            continue
        members = sid.members
        y = payloads.get(members)
        if y is None:
            if code & lead_code:
                raise DecodeError(members)  # k's own chunk is non-empty, so it was sent
            y = reconstruct_message(payloads, d, leaders, members, sent)
        # only the first n bits of a partner's chunk meet k's; a rebuilt y is no
        # shorter than n, since one of its terms holds k's chunk
        parts = [view[d[x - 1] - 1][per_file[d[x - 1] - 1][:n]] for x, per_file in sources if x != k]
        out[pos] = _xor_into(y[:n].copy(), parts)
    return out


def delivered_rate(messages: Sequence[BroadcastMessage], F: int) -> Fraction:
    """Total payload bits divided by the file size, exact."""
    return Fraction(sum(len(m.payload) for m in messages), F)
