"""`verify`'s demand selection against a test-local copy of the earlier one,
which enumerated every demand, computed its statistics, kept the first
demand of each type and drew the seeded sample by index into the list."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachekit import cli
from cachekit.model import all_demands, demand_at, demand_stats, enumerate_types, type_representative

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


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CASES),
    sample=st.integers(0, 300),
    seed=st.integers(0, 2**63 - 1),
)
def test_sample_matches_list_index(case, sample, seed):
    N, K = case
    assert cli._sampled_demands(N, K, sample, seed) == oracle_sample(N, K, sample, seed)
