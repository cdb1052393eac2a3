"""`verify`'s demand selection against a test-local copy of the earlier one,
which enumerated every demand, computed its statistics, kept the first
demand of each type and drew the seeded sample by index into the list."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachekit import cli
from cachekit.model import all_demands, demand_at, demand_range, demand_stats, enumerate_types, type_representative

# every (N, K) with N^K <= 5*10^4 and N <= 10 (N = 1 up to K = 16); the oracle
# costs O(N) per demand, so larger N at K <= 4 would only add run time
CASES = [(N, K) for N in range(1, 11) for K in range(1, 17) if N**K <= 5 * 10**4]


def oracle_representatives(N, K):
    seen_types = {}
    for d in all_demands(N, K):
        stats = demand_stats(d, N)
        if stats.counts not in seen_types:
            seen_types[stats.counts] = d
    return list(seen_types.values())


def oracle_sample(N, K, sample, seed):
    demands = list(all_demands(N, K))
    total = len(demands)
    picks = np.random.default_rng(seed).integers(0, total, size=min(sample, total))
    return [demands[int(i)] for i in picks]


def test_representatives_and_order_match_first_appearance():
    assert len(CASES) == 77
    for N, K in CASES:
        reps = [type_representative(stats) for stats in enumerate_types(N, K)]
        assert reps == oracle_representatives(N, K), (N, K)


def test_representatives_have_their_type():
    for N, K in CASES:
        for stats in enumerate_types(N, K):
            assert demand_stats(type_representative(stats), N) == stats


def test_demand_at_is_the_list_index():
    for N, K in [(1, 4), (2, 5), (3, 4), (5, 3), (7, 1)]:
        demands = list(all_demands(N, K))
        assert [demand_at(i, N, K) for i in range(len(demands))] == demands
    for bad in (-1, 3**4):
        with pytest.raises(ValueError):
            demand_at(bad, 3, 4)


def test_demand_range_is_the_list_slice():
    for N, K in [(1, 4), (2, 5), (3, 4), (5, 3), (7, 1), (1000, 2)]:
        demands = list(all_demands(N, K)) if N**K <= 5000 else None
        for start, stop in [(0, N**K), (0, 0), (1, min(7, N**K)), (N**K - 1, N**K)]:
            got = demand_range(start, stop, N, K)
            assert got.shape == (stop - start, K)
            want = demands[start:stop] if demands is not None else [demand_at(i, N, K) for i in range(start, stop)]
            assert list(map(tuple, got.tolist())) == want
    for start, stop in [(-1, 2), (3, 2), (0, 3**4 + 1)]:
        with pytest.raises(ValueError):
            demand_range(start, stop, 3, 4)
    with pytest.raises(ValueError, match="int64"):
        demand_range(0, 1, 2, 63)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CASES),
    sample=st.integers(0, 300),
    seed=st.integers(0, 2**63 - 1),
)
def test_sample_matches_list_index(case, sample, seed):
    N, K = case
    assert cli._sampled_demands(N, K, sample, seed) == oracle_sample(N, K, sample, seed)


@pytest.mark.parametrize("N, K", [(2, 62), (3, 39), (7, 22)])
def test_sample_draws_up_to_the_int64_index_limit(N, K):
    # the largest N^K below 2^63 that verify admits: the same seeded int64 draw
    assert N**K < 2**63 <= N ** (K + 1)
    picks = np.random.default_rng(5).integers(0, N**K, size=4)
    assert cli._sampled_demands(N, K, 4, 5) == [demand_at(int(i), N, K) for i in picks]


@pytest.mark.parametrize("N, K", [(2, 63), (2, 64), (3, 40), (10**6, 4)])
def test_verify_refuses_demands_past_the_int64_index(capsys, monkeypatch, N, K):
    # the demand index is int64, and so is numpy's draw of the sample
    with pytest.raises(ValueError, match="int64"):
        demand_range(0, 1, N, K)
    monkeypatch.setattr(cli, "batch_placement", None)  # nothing may be built
    assert cli.main(["verify", "--n", str(N), "--k", str(K), "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: N={N} K={K} has N^K >= 2^63 demands, past the 2^63 limit "
                                                "of their int64 index\n")


def test_verify_checks_the_sample_of_the_largest_admitted_instances(capsys):
    # 2^62 and 2^21 demands, checked per type
    for argv, checked in [(["--n", "2", "--k", "62", "--sample", "5"], 32 + 5),
                          (["--n", "2", "--k", "21"], 11 + 200)]:
        assert cli.main(["verify", *argv, "--t", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "mode: per-type" in out and f"demands checked bit-exactly: {checked}\n" in out
        assert out.endswith("PASS\n")
