"""The level-at-a-time delivery engine on the degenerate corners, past 64
users, on a lost message, and its index built once per partition.

Transcripts are checked against `oracle_encode_delivery`, which walks all
2^K user subsets, and, at any K, against an oracle that walks the groups
present in the partition's `codes` and XORs each chunk straight from the
database; decodes must give every user its file bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachekit import batch_placement, binomial, centralized, decentralized, level_index, make_database
from cachekit.centralized import DecodeError, select_leaders
from conftest import members_of, oracle_level_partition, subset_rank
from test_delivery_exactness import oracle_encode_delivery


def groups_oracle_transcript(db, partition, d, leaders):
    """(members, rank, payload bytes) of every message, in send order: each
    T = S + {x} of a group S and a user x outside it that holds a leader and
    a non-empty chunk, its chunks XORed from the database, zero-padded."""
    K = partition.K
    groups = [members_of(code, K) for code in partition.codes.tolist()]
    subsets = {tuple(sorted(S + (x,))) for S in groups for x in range(1, K + 1) if x not in S}
    out = []
    for T in sorted(subsets, key=lambda T: (len(T), T)):
        if leaders.isdisjoint(T):
            continue
        chunks = [db.bits[d[x - 1] - 1, partition.positions(tuple(y for y in T if y != x), d[x - 1])] for x in T]
        width = max(map(len, chunks))
        if width:
            payload = np.zeros(width, dtype=np.uint8)
            for c in chunks:
                payload[: len(c)] ^= c
            out.append((T, subset_rank(T, K), payload.tobytes()))
    return out


def transcript(messages):
    return [(m.subset.members, m.subset.rank, m.payload.tobytes()) for m in messages]


def assert_delivers(db, placement, d, oracle=True):
    part = placement.partition
    leaders = select_leaders(d)
    messages = decentralized.encode_delivery(db, part, d, leaders)
    assert all(m.payload.dtype == np.uint8 and len(m.payload) for m in messages)
    assert transcript(messages) == groups_oracle_transcript(db, part, d, leaders)
    if oracle:
        assert transcript(messages) == transcript(oracle_encode_delivery(db, part, d, leaders))
    K = placement.K
    decoded = decentralized.decode_users(range(1, K + 1), db, placement, part, messages, d, leaders)
    for k, got in enumerate(decoded, start=1):
        assert got.dtype == np.uint8 and np.array_equal(got, db.file(d[k - 1]))
    for k in {1, K}:
        one = decentralized.decode_user(k, db, placement, part, messages, d, leaders)
        assert np.array_equal(one, db.file(d[k - 1]))


CORNERS = ["M=0", "M=N", "t=K", "K=1", "F=1"]


@st.composite
def corner_instances(draw):
    """A batch or random placement on one degenerate corner, and a demand."""
    corner = draw(st.sampled_from(CORNERS))
    N = draw(st.integers(1, 4))
    K = 1 if corner == "K=1" else draw(st.integers(1, 6))
    batch = corner == "t=K" or draw(st.booleans())
    if batch:
        t = {"M=0": 0, "M=N": K, "t=K": K}.get(corner)
        if t is None:
            t = draw(st.sampled_from([0, K]) if corner == "F=1" else st.integers(0, K))
        F = 1 if corner == "F=1" else binomial(K, t) * draw(st.integers(1, 3))
        param = t
    else:
        F = 1 if corner == "F=1" else draw(st.integers(1, 30))
        param = {"M=0": Fraction(0), "M=N": Fraction(N)}.get(corner)
        if param is None:
            param = draw(st.fractions(0, N, max_denominator=6))
    d = tuple(draw(st.lists(st.integers(1, N), min_size=K, max_size=K)))
    return corner, batch, N, K, param, F, d, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(corner_instances())
@example(("M=0", False, 3, 4, Fraction(0), 9, (1, 2, 3, 1), 1))
@example(("M=N", True, 2, 5, 5, 3, (2, 1, 2, 2, 1), 2))
@example(("t=K", True, 3, 6, 6, 1, (1, 2, 3, 1, 2, 3), 3))
@example(("K=1", False, 4, 1, Fraction(5, 2), 11, (3,), 4))
@example(("F=1", True, 2, 4, 0, 1, (1, 1, 2, 1), 5))
@example(("F=1", False, 3, 6, Fraction(3, 2), 1, (3, 1, 2, 3, 3, 1), 6))
def test_engine_on_degenerate_corners(instance):
    _, batch, N, K, param, F, d, seed = instance
    db = make_database(N, F, seed)
    if batch:
        placement = batch_placement(N, K, param, F)
    else:
        placement = decentralized.random_placement(N, K, param, F, seed + 1)
    assert_delivers(db, placement, d)


def test_engine_past_64_users():
    # K = 65 users: object (Python int) codes through the same engine
    N, K, F = 3, 65, 40
    placement = decentralized.random_placement(N, K, Fraction(1, 2), F, seed=11)
    assert placement.codes.dtype == object
    d = tuple(np.random.default_rng(12).integers(1, N + 1, size=K).tolist())
    assert_delivers(make_database(N, F, seed=13), placement, d, oracle=False)


@pytest.mark.parametrize("K", [4, 65])
def test_index_depends_only_on_the_runs(K):
    # runs rebuilt from the oracle's groups (its own code order and positions)
    # give the engine the same transcript and decodes as level_partition's sort
    N, F = 2, 40
    placement = decentralized.random_placement(N, K, 1, F, seed=K)
    db = make_database(N, F, seed=5)
    d = tuple(np.random.default_rng(K).integers(1, N + 1, size=K).tolist())
    oracle = oracle_level_partition(placement, N, F)
    messages = decentralized.encode_delivery(db, oracle, d)
    assert transcript(messages) == transcript(decentralized.encode_delivery(db, placement.partition, d))
    decoded = decentralized.decode_users(range(1, K + 1), db, placement, oracle, messages, d)
    assert np.array_equal(decoded, db.bits[np.subtract(d, 1)])


@pytest.mark.parametrize("users, lost", [((1,), (1, 4, 6)), ((2,), (1, 4, 6)), ((4, 2), (1, 2, 4)), ((6,), (1, 5, 6))])
def test_lost_message_is_named(canonical_instance, users, lost):
    # delivery omits (2,4,6), and rebuilding it needs (1,4,6): user 2 misses
    # (1,4,6) through the rebuild, user 1 directly; in send order, users 4
    # and 2 miss (1,2,4) first, and user 6 misses its own (1,5,6)
    db, placement, d = canonical_instance
    messages = [m for m in centralized.encode_delivery(db, placement, d) if m.subset.members != lost]
    with pytest.raises(DecodeError) as exc:
        decentralized.decode_users(users, db, placement, placement.partition, messages, d)
    assert exc.value.subset == lost


def test_index_is_built_once_per_partition(monkeypatch):
    built = []
    build = level_index.build_levels

    def counting(partition):
        built.append((partition.K, partition.N, partition.F))
        return build(partition)

    monkeypatch.setattr(level_index, "build_levels", counting)
    N, K, F = 3, 5, 60
    db = make_database(N, F, seed=1)
    placement = decentralized.random_placement(N, K, 1, F, seed=2)
    part = placement.partition
    for d in [(1, 2, 3, 1, 2), (3, 3, 3, 3, 3), (2, 1, 1, 2, 3)]:
        messages = decentralized.encode_delivery(db, part, d)
        decoded = decentralized.decode_users(range(1, K + 1), db, placement, part, messages, d)
        assert all(np.array_equal(got, db.file(d[k - 1])) for k, got in enumerate(decoded, start=1))
        assert np.array_equal(decentralized.decode_user(2, db, placement, part, messages, d), db.file(d[1]))
    assert built == [(K, N, F)]
