"""Exactness gate for the delivery engine.

Decentralized: the level partition, the broadcast and every user's decode
must match an oracle that builds the partition with one `flatnonzero` pass
per cache-set code and file, and encodes by walking every user subset level
by level.

Centralized: the batch adapters, which hand the subfiles to the same engine
as a one-level partition, must match an oracle that slices subfiles straight
from the database, sends every leader-holding (t+1)-subset in lexicographic
order, and decodes subfile by subfile, rebuilding leaderless messages from
the broadcast.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachekit import all_demands, batch_placement, binomial, centralized, decentralized, make_database
from cachekit.centralized import BroadcastMessage, DecodeError, select_leaders, subfile_ranges
from cachekit.combinatorics import enumerate_subsets
from cachekit.model import validate_demand

from conftest import CANONICAL_T, direct_payload, oracle_level_partition, placement_from_mask

# --- oracle: one pass per code and file (conftest), all 2^K subsets ---------------


def oracle_encode_delivery(db, partition, d, leaders=None):
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


# --- the gate --------------------------------------------------------------------


def assert_groups_read_only(part):
    for per_file in part.groups.values():
        for pos in per_file:
            assert pos.dtype == np.int64 and not pos.flags.writeable


def assert_engine_exact(db, placement, d):
    N, F, K = db.N, db.F, placement.K
    part = decentralized.level_partition(placement, N, F)
    want = oracle_level_partition(placement, N, F)
    assert list(part.groups) == list(want.groups)
    for members, per_file in part.groups.items():
        assert len(per_file) == N
        for got, ref in zip(per_file, want.groups[members]):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)
            assert (np.diff(got) > 0).all()
    assert_groups_read_only(part)

    messages = decentralized.encode_delivery(db, part, d)
    expected = oracle_encode_delivery(db, want, d)
    assert [m.subset for m in messages] == [m.subset for m in expected]
    for got, ref in zip(messages, expected):
        assert got.payload.dtype == np.uint8
        assert got.payload.tobytes() == ref.payload.tobytes()

    for k in range(1, K + 1):
        decoded = decentralized.decode_user(k, db, placement, part, messages, d)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, db.file(d[k - 1]))


@st.composite
def random_instances(draw):
    N = draw(st.integers(1, 4))
    K = draw(st.integers(1, 6))
    F = draw(st.integers(1, 40))
    M = draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(N)), st.fractions(0, N, max_denominator=12)))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    return N, K, F, M, d, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(random_instances())
@example((3, 4, 30, Fraction(0), (1, 2, 3, 1), 1))
@example((3, 4, 30, Fraction(3), (1, 2, 3, 1), 2))
@example((2, 1, 17, Fraction(1, 2), (2,), 3))
@example((4, 6, 1, Fraction(2), (1, 2, 3, 4, 4, 1), 4))
@example((1, 1, 1, Fraction(1, 3), (1,), 5))
def test_random_placement_matches_oracle(instance):
    N, K, F, M, d, seed = instance
    db = make_database(N, F, seed)
    placement = decentralized.random_placement(N, K, M, F, seed + 1)
    assert_engine_exact(db, placement, d)


@st.composite
def free_instances(draw):
    """Arbitrary cache masks: users may cache more of one file than another,
    so groups of one level have unequal sizes and chunks get zero-padded."""
    N = draw(st.integers(1, 4))
    K = draw(st.integers(1, 6))
    F = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    return N, K, F, density, d, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(free_instances())
def test_free_mask_matches_oracle(instance):
    N, K, F, density, d, seed = instance
    db = make_database(N, F, seed)
    mask = np.random.default_rng(seed + 1).random((K, N, F)) < density
    assert_engine_exact(db, placement_from_mask(mask), d)


def test_k64_groups_match_oracle_as_sets():
    # the top user's bit is the top bit of the engine's uint64 codes
    N, K, F = 2, 64, 24
    placement = decentralized.random_placement(N, K, Fraction(1, 2), F, seed=7)
    assert placement.cached(K).any()
    part = decentralized.level_partition(placement, N, F)
    want = oracle_level_partition(placement, N, F)

    def as_set(p):
        return {(members, tuple(map(tuple, per_file))) for members, per_file in p.groups.items()}

    assert as_set(part) == as_set(want)
    assert any(K in members for members in part.groups)
    assert_groups_read_only(part)

    db = make_database(N, F, seed=8)
    d = tuple(np.random.default_rng(9).integers(1, N + 1, size=K).tolist())
    messages = decentralized.encode_delivery(db, part, d)
    for k in (1, 2, K - 1, K):
        assert np.array_equal(decentralized.decode_user(k, db, placement, part, messages, d), db.file(d[k - 1]))


# --- oracle: batch delivery by subfile slicing ------------------------------------


def oracle_batch_encode(db, placement, t, d, leaders):
    messages = []
    if t == placement.K:
        return messages
    for sid in enumerate_subsets(placement.K, t + 1):
        if not leaders.isdisjoint(sid.members):
            messages.append(BroadcastMessage(sid, direct_payload(db, placement, d, sid.members)))
    return messages


def oracle_reconstruct(payloads, d, leaders, members):
    block = sorted(set(members) | leaders)
    by_file = {}
    for x in block:
        by_file.setdefault(d[x - 1], []).append(x)
    acc = None
    for choice in itertools.product(*(by_file[f] for f in sorted(by_file))):
        if frozenset(choice) == leaders:
            continue
        key = tuple(x for x in block if x not in choice)
        if key not in payloads:
            raise DecodeError(key)
        acc = payloads[key].copy() if acc is None else acc ^ payloads[key]
    return acc


def oracle_batch_decode(k, db, placement, t, messages, d, leaders):
    cache = np.where(placement.cached(k), db.bits, 0).astype(np.uint8)
    ranges = subfile_ranges(placement.K, t, db.F)
    payloads = {m.subset.members: m.payload for m in messages}
    wanted = d[k - 1]
    out = np.empty(db.F, dtype=np.uint8)
    for S, (lo, hi) in ranges.items():
        if k in S:
            out[lo:hi] = cache[wanted - 1, lo:hi]
            continue
        A = tuple(sorted(S + (k,)))
        y = payloads.get(A)
        if y is None:
            y = oracle_reconstruct(payloads, d, leaders, A)
        acc = y.copy()
        for x in S:
            lo2, hi2 = ranges[tuple(v for v in A if v != x)]
            acc ^= cache[d[x - 1] - 1, lo2:hi2]
        out[lo:hi] = acc
    return out


# --- the batch gate ---------------------------------------------------------------


def assert_batch_exact(db, placement, t, d, leaders):
    K = placement.K
    messages = centralized.encode_delivery(db, placement, d, leaders)
    expected = oracle_batch_encode(db, placement, t, d, leaders)
    assert [(m.subset.members, m.subset.rank) for m in messages] == [
        (m.subset.members, m.subset.rank) for m in expected
    ]
    for got, ref in zip(messages, expected):
        assert got.payload.dtype == np.uint8
        assert got.payload.tobytes() == ref.payload.tobytes()
    for k in range(1, K + 1):
        decoded = centralized.decode_user(k, db, placement, messages, d, leaders)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, oracle_batch_decode(k, db, placement, t, expected, d, leaders))
        assert np.array_equal(decoded, db.file(d[k - 1]))


@pytest.mark.parametrize("N,K,t,F", [
    (3, 4, 2, 12),
    (3, 4, 2, 6),  # F = C(K,t): one bit per subfile
    (2, 5, 0, 4),  # t = 0: nothing cached
    (2, 5, 5, 4),  # t = K: nothing sent
    (1, 1, 0, 3),  # K = 1
    (1, 1, 1, 1),
    (4, 3, 1, 3),
    (2, 6, 3, 20),
])
def test_batch_adapters_match_oracle_every_demand(N, K, t, F):
    db = make_database(N, F, seed=100 * N + 10 * K + t)
    placement = batch_placement(N, K, t, F)
    for d in all_demands(N, K):
        assert_batch_exact(db, placement, t, d, select_leaders(d))


@st.composite
def batch_instances(draw):
    N = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    t = draw(st.integers(0, K))
    F = binomial(K, t) * draw(st.integers(1, 3))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    # any one requester per requested file may lead, not only the lowest-indexed
    leaders = frozenset(draw(st.sampled_from([x for x in range(1, K + 1) if d[x - 1] == f]))
                        for f in sorted(set(d)))
    return N, K, t, F, d, leaders, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(batch_instances())
def test_batch_adapters_match_oracle_drawn(instance):
    N, K, t, F, d, leaders, seed = instance
    db = make_database(N, F, seed)
    placement = batch_placement(N, K, t, F)
    assert_batch_exact(db, placement, t, d, leaders)
    # every user a leader: each (t+1)-subset's direct payload, as the cancellation check uses it
    everyone = frozenset(range(1, K + 1))
    got = centralized.encode_delivery(db, placement, d, everyone)
    want = oracle_batch_encode(db, placement, t, d, everyone)
    assert [m.subset for m in got] == [m.subset for m in want]
    assert all(a.payload.tobytes() == b.payload.tobytes() for a, b in zip(got, want))


def test_batch_reduction_matches_oracle(canonical_instance):
    # the engine on the sorted-code level partition of a batch placement is
    # the batch scheme too, byte for byte
    db, placement, d = canonical_instance
    leaders = select_leaders(d)
    part = decentralized.level_partition(placement, db.N, db.F)
    messages = decentralized.encode_delivery(db, part, d)
    expected = oracle_batch_encode(db, placement, CANONICAL_T, d, leaders)
    assert [m.subset for m in messages] == [m.subset for m in expected]
    assert all(a.payload.tobytes() == b.payload.tobytes() for a, b in zip(messages, expected))
    for k in range(1, placement.K + 1):
        decoded = decentralized.decode_user(k, db, placement, part, messages, d)
        assert np.array_equal(decoded, oracle_batch_decode(k, db, placement, CANONICAL_T, expected, d, leaders))
        assert np.array_equal(decoded, db.file(d[k - 1]))
