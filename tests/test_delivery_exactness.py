"""Exactness gate for the decentralized delivery engine.

The level partition, the broadcast and every user's decode must match an
oracle that builds the partition with one `flatnonzero` pass per cache-set
code and file, and encodes by walking every user subset level by level.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachekit import decentralized, make_database
from cachekit.centralized import BroadcastMessage, select_leaders
from cachekit.combinatorics import enumerate_subsets
from cachekit.model import Placement, validate_demand

# --- oracle: int64 codes, one pass per code and file, all 2^K subsets ------------


def oracle_level_partition(placement, N, F):
    K = placement.K
    codes = np.zeros((N, F), dtype=np.int64)
    for k in range(K):
        codes[placement.mask[k]] += np.int64(1) << k
    groups = {}
    for code in np.unique(codes):
        members = tuple(k + 1 for k in range(K) if (int(code) >> k) & 1)
        groups[members] = tuple(np.flatnonzero(codes[i] == code) for i in range(N))
    return decentralized.LevelPartition(K, N, F, groups)


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
    assert_engine_exact(db, Placement(K, mask), d)


def test_k64_groups_match_oracle_as_sets():
    # the top user's bit is the sign bit of the oracle's int64 codes, so the
    # two dicts order their keys differently; the groups themselves agree
    N, K, F = 2, 64, 24
    placement = decentralized.random_placement(N, K, Fraction(1, 2), F, seed=7)
    assert placement.mask[K - 1].any()
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
