"""Centralized scheme: symmetric batch prefetching and leader-based XOR delivery.

Each file is split into C(K,t) equal subfiles indexed by the t-subsets of
users; user k caches every subfile whose index contains k. Delivery sends,
for every (t+1)-subset that contains at least one leader, the XOR of the
subfiles the members of that subset want from each other. Messages whose
subset contains no leader are redundant and omitted; receivers rebuild them
as an XOR of broadcast messages (the cancellation identity below) before
extracting subfiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import SubsetId, binomial, enumerate_subsets
from .model import Database, Demand, Placement, validate_demand


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


def batch_placement(N: int, K: int, t: int, F: int) -> Placement:
    """Symmetric batch prefetching for cache parameter t in {0..K}.

    Requires C(K,t) | F so subfiles are equal-sized; each user ends up caching
    exactly N*t*F/K bits.
    """
    if not 0 <= t <= K:
        raise ValueError(f"t must be in 0..{K}, got {t}")
    pieces = binomial(K, t)
    if F % pieces != 0:
        raise ValueError(f"F must be a multiple of C({K},{t}) = {pieces}, got F={F}")
    size = F // pieces
    batch_view: dict[tuple[int, ...], tuple[int, int]] = {}
    mask = np.zeros((K, N, F), dtype=bool)
    for sid in enumerate_subsets(K, t):
        lo = sid.rank * size
        batch_view[sid.members] = (lo, lo + size)
        for k in sid.members:
            mask[k - 1, :, lo : lo + size] = True
    mask.setflags(write=False)
    return Placement(K, mask, batch_view, t)


def select_leaders(d: Demand) -> frozenset[int]:
    """One leader per distinct requested file: the lowest-indexed requester."""
    first_user: dict[int, int] = {}
    for k, f in enumerate(d, start=1):
        first_user.setdefault(f, k)
    return frozenset(first_user.values())


def _subfile(db: Database, cache: np.ndarray | None, file_index: int, span: tuple[int, int]) -> np.ndarray:
    source = db.bits if cache is None else cache
    lo, hi = span
    return source[file_index - 1, lo:hi]


def message_payload(db: Database, placement: Placement, d: Demand, members: Sequence[int]) -> np.ndarray:
    """XOR, over users x in `members`, of the subfile of file d_x indexed by
    the remaining members. The empty subset yields the all-zero payload."""
    bv = placement.batch_view
    if bv is None:
        raise ValueError("placement has no batch view; batch placement required")
    members = tuple(members)
    size = db.F // binomial(placement.K, placement.t)
    acc = np.zeros(size, dtype=np.uint8)
    for idx, x in enumerate(members):
        rest = members[:idx] + members[idx + 1 :]
        acc ^= _subfile(db, None, d[x - 1], bv[rest])
    return acc


def encode_delivery(
    db: Database,
    placement: Placement,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> list[BroadcastMessage]:
    """All messages for (t+1)-subsets that contain at least one leader,
    in lexicographic subset order."""
    if placement.batch_view is None:
        raise ValueError("placement has no batch view; batch placement required")
    d = validate_demand(d, db.N)
    if len(d) != placement.K:
        raise ValueError(f"demand length {len(d)} != K={placement.K}")
    if leaders is None:
        leaders = select_leaders(d)
    t = placement.t
    if t == placement.K:
        return []
    messages = []
    for sid in enumerate_subsets(placement.K, t + 1):
        if leaders.isdisjoint(sid.members):
            continue
        messages.append(BroadcastMessage(sid, message_payload(db, placement, d, sid.members)))
    return messages


def _payload_map(messages) -> dict[tuple[int, ...], np.ndarray]:
    if isinstance(messages, Mapping):
        return dict(messages)
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
) -> np.ndarray:
    """Rebuild the omitted message of a leaderless subset A.

    With B = A ∪ leaders, XOR the broadcast messages of B minus V over every
    selection V of one requester per requested file, the all-leaders
    selection excluded. Equals the direct XOR-of-subfiles payload.
    """
    members = tuple(subset.members) if isinstance(subset, SubsetId) else tuple(sorted(subset))
    leaders = frozenset(leaders)
    if not leaders.isdisjoint(members):
        raise ValueError(f"subset {members} contains a leader; message was broadcast")
    payloads = _payload_map(messages)
    block = sorted(set(members) | leaders)
    acc: np.ndarray | None = None
    for choice in itertools.product(*_requester_groups(d, block)):
        if frozenset(choice) == leaders:
            continue
        key = tuple(x for x in block if x not in choice)
        payload = payloads.get(key)
        if payload is None:
            raise DecodeError(key)
        acc = payload.copy() if acc is None else acc ^ payload
    if acc is None:
        raise ValueError("nothing to reconstruct from: no valid requester selection")
    return acc


def decode_user(
    k: int,
    db: Database,
    placement: Placement,
    messages,
    d: Demand,
    leaders: frozenset[int] | None = None,
) -> np.ndarray:
    """Recover file d_k for user k from its cache plus the broadcast.

    Only bits the user actually cached are read from the database (the rest
    are masked to zero), so any decoding gap shows up as a bit mismatch.
    """
    d = validate_demand(d, db.N)
    bv = placement.batch_view
    if bv is None:
        raise ValueError("placement has no batch view; batch placement required")
    if leaders is None:
        leaders = select_leaders(d)
    cache = db.bits & placement.mask[k - 1]
    wanted = d[k - 1]
    if placement.t == placement.K:
        return cache[wanted - 1].copy()
    payloads = _payload_map(messages)
    out = np.empty(db.F, dtype=np.uint8)
    for S, (lo, hi) in bv.items():
        if k in S:
            out[lo:hi] = cache[wanted - 1, lo:hi]
            continue
        A = tuple(sorted(S + (k,)))
        y = payloads.get(A)
        if y is None:
            if leaders.isdisjoint(A):
                y = reconstruct_message(payloads, d, leaders, A)
                payloads[A] = y
            else:
                raise DecodeError(A)
        acc = y.copy()
        for x in S:
            rest = tuple(v for v in A if v != x)
            acc ^= _subfile(db, cache, d[x - 1], bv[rest])
        out[lo:hi] = acc
    return out


def verify_message_cancellation(
    db: Database,
    d: Demand,
    leaders: frozenset[int],
    group: Sequence[int],
) -> bool:
    """Check that XORing, over every one-requester-per-file selection V inside
    `group`, the directly computed message of `group` minus V gives zero.

    `group` must contain every leader. This identity is what makes the
    omitted leaderless messages reconstructable.
    """
    d = validate_demand(d, db.N)
    K = len(d)
    leaders = frozenset(leaders)
    members = tuple(sorted(set(group)))
    if not leaders.issubset(members):
        raise ValueError(f"group {members} must contain all leaders {sorted(leaders)}")
    t = len(members) - len(leaders) - 1
    if t < 0:
        return True  # group == leaders: the single term is the empty-set message, zero
    placement = batch_placement(db.N, K, t, db.F)
    acc = np.zeros(db.F // binomial(K, t), dtype=np.uint8)
    for choice in itertools.product(*_requester_groups(d, members)):
        rest = tuple(x for x in members if x not in choice)
        acc ^= message_payload(db, placement, d, rest)
    return not acc.any()


def delivered_rate(messages: Sequence[BroadcastMessage], F: int) -> Fraction:
    """Total payload bits divided by the file size, exact."""
    return Fraction(sum(len(m.payload) for m in messages), F)
