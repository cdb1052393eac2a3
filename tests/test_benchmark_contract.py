"""The benchmark's calls into the package, kept working by the tier-1 suite.

`perfbench/workloads.py` calls the one-demand engine entries with positional
leaders (`encode_delivery(db, partition, d, leaders)`, `decode_user(k, ...,
d, leaders)`) and `LevelPartition.positions` in its checks. One in-process
round of each workload, through its own `run` and `check`, plus
`Verify.finish`, must report no problem. perfbench's own suite stays out of
the tier-1 run: one of its tests times `sleep` calls.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads imports its sibling `reference`
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["tables", "verify", "decentralized"])
def test_one_round_of_each_workload_checks_clean(workloads, name):
    workload = workloads.WORKLOADS[name](seed=0)
    for op in workload.next_round():
        items, problems = workload.check(op, workload.run(op))
        assert problems == [] and items > 0
    if name == "verify":
        assert workload.finish() == []
