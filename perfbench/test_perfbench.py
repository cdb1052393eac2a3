"""The benchmark's own tests: reference anchors, checks that catch corrupted
outputs, the tracer's arithmetic, and every workload run for one round.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


# --- reference anchors ---------------------------------------------------------------


def test_reference_matches_readme_anchors():
    assert abs(float(ref.compare_reference(30, 30, [Fraction(1)])["optimal-avg"][0]) - 12.6699) < 5e-5
    assert ref.compare_reference(2, 2, [Fraction(1, 2)])["optimal-peak"] == [Fraction(5, 4)]
    assert ref.compare_reference(2, 2, [Fraction(1)])["dec-avg"] == [Fraction(5, 8)]
    assert sum(ref.partitions_by_parts(6, 4).values()) == 9


def test_distinct_distribution_counts_every_demand():
    for N, K in ((1, 1), (3, 5), (7, 4), (5, 9)):
        dist = ref.distinct_distribution(N, K)
        assert sum(dist.values()) == 1
        demands = np.array(np.meshgrid(*[range(N)] * K)).reshape(K, -1).T
        distinct = [len(set(d)) for d in demands.tolist()]
        for e, p in dist.items():
            assert p == Fraction(distinct.count(e), N**K)


def test_lower_hull_drops_points_above_chords():
    pts = [(Fraction(0), Fraction(4)), (Fraction(1), Fraction(3)), (Fraction(2), Fraction(1)),
           (Fraction(3), Fraction(0))]
    hull = ref.lower_hull(pts)
    assert hull == [pts[0], pts[2], pts[3]]
    assert ref.hull_value(hull, Fraction(1)) == Fraction(5, 2)


def test_delivery_counts_on_a_hand_worked_case():
    # K=2, N=2, demand (1, 2): both users lead. Sizes: nobody caches 3 bits of
    # file 1 and 1 bit of file 2; user 1 alone caches 2 bits of file 2; user 2
    # alone caches 5 bits of file 1.
    sizes = {(0, 1): 3, (0, 2): 1, (1, 2): 2, (2, 1): 5}
    counts = ref.delivery_counts(lambda s, i: sizes.get((s, i), 0), (1, 2), K=2)
    # {1}: |G({},1)| = 3; {2}: |G({},2)| = 1; {1,2}: max(|G({2},1)|, |G({1},2)|) = 5
    assert counts == {"payload_bits": 9, "messages_sent": 3, "padding_bits": 3}


# --- checks catch corrupted outputs -----------------------------------------------------


def test_tables_check_catches_a_wrong_rate():
    tables = workloads.Tables(seed=0)
    N = tables.next_round()[0]
    rc, text = tables.run(N)
    assert tables.check(N, (rc, text)) == (41 * 6, [])
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[2] = f"{float(cells[2]) + 1e-6:.6f}"
    lines[5] = ",".join(cells)
    items, problems = tables.check(N, (rc, "\n".join(lines) + "\n"))
    assert problems and "man-avg" in problems[0]


class SmallVerify(workloads.Verify):
    FULL = ((3, 4, 1, 0),)
    PER_TYPE = ((2, 13, 11, 3),)


def test_verify_check_catches_a_wrong_report():
    verify = SmallVerify(seed=0)
    ops = verify.next_round()
    outputs = [verify.run(op) for op in ops]
    assert [verify.check(op, out)[1] for op, out in zip(ops, outputs)] == [[], []]
    op, (rc, text) = ops[0], outputs[0]
    assert verify.check(op, (rc, text.replace("PASS", "FAIL")))[1]
    bad_count = text.replace("demands checked bit-exactly: ", "demands checked bit-exactly: 1")
    assert verify.check(op, (rc, bad_count))[1]
    assert verify.check(op, (1, text))[1]


def test_verify_finish_catches_a_wrong_decode(monkeypatch):
    verify = SmallVerify(seed=0)
    verify.instances = verify.instances[:1]
    assert verify.finish() == []
    decode = workloads.centralized.decode_user

    def flipped(*args, **kwargs):
        out = decode(*args, **kwargs).copy()
        out[0] ^= 1
        return out

    monkeypatch.setattr(workloads.centralized, "decode_user", flipped)
    assert verify.finish()


def test_decentralized_check_catches_a_wrong_bit_and_a_lost_message():
    dec = workloads.Decentralized(seed=0)
    op = dec.next_round()[0]
    assert op[2], "the first op of a round gets the cached_pairs check"
    placement, partition, messages, decoded = dec.run(op)
    assert dec.check(op, (placement, partition, messages, decoded)) == (dec.K * dec.F, [])
    flipped = [d.copy() for d in decoded]
    flipped[3][17] ^= 1
    assert dec.check(op, (placement, partition, messages, flipped))[1]
    lost = dec.check(op, (placement, partition, messages[1:], decoded))[1]
    assert any("partition groups" in p for p in lost) and any("cached_pairs groups" in p for p in lost)


# --- tracer ---------------------------------------------------------------------------------


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    child = tracer.wrap("x.child", lambda: time.sleep(0.02))

    def parent():
        child()
        child()
        time.sleep(0.01)

    traced_parent = tracer.wrap("x.parent", parent)
    tracer.enabled = True
    traced_parent()
    tracer.enabled = False
    assert tracer.calls == {"x.child": 2, "x.parent": 1}
    assert tracer.busy_ns["x.parent"] >= 0.05e9
    assert 0.01e9 <= tracer.self_ns["x.parent"] < 0.02e9
    assert tracer.self_ns["x.child"] == tracer.busy_ns["x.child"]
    records = tracer.span_records()
    assert [r["name"] for r in records] == ["x.parent", "x.child", "x.child"]
    assert [r["parent"] for r in records] == [-1, 0, 0]


def test_tracer_reaches_names_imported_into_the_cli():
    import importlib

    import spans

    modules = [importlib.import_module(f"cachekit.{layer}") for layer in spans.LAYERS]
    modules.append(importlib.import_module("cachekit"))
    saved = [dict(vars(m)) for m in modules]
    before = modules[-1].decode_user
    try:
        Tracer().install()
        cli, centralized = modules[spans.LAYERS.index("cli")], modules[spans.LAYERS.index("centralized")]
        assert cli.decode_user is centralized.decode_user is modules[-1].decode_user
        assert cli.decode_user is not before and cli.decode_user.__wrapped__ is before
    finally:
        for module, namespace in zip(modules, saved):
            vars(module).update(namespace)


# --- host-speed correction -----------------------------------------------------------------


def test_corrected_time_scales_with_the_probes():
    ref_ns = hostspeed.REF_NS
    assert hostspeed.corrected(100.0, ref_ns, ref_ns) == 100.0
    # probes that ran twice as slow as the reference halve the time
    assert hostspeed.corrected(100.0, 2 * ref_ns, 2 * ref_ns) == 50.0
    assert hostspeed.corrected(90.0, ref_ns, 2 * ref_ns) == 60.0
    assert hostspeed.probe_ns() > 0


# --- the command itself ------------------------------------------------------------------------


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_one_clean_round(workload, trace):
    extra = ["--trace"] if trace else []
    result = run.spawn(workload, 0, 0, *extra)
    assert result["correct"] and result["failed"] == 0 and result["rounds"] == 1
    assert result["attempted"] == len(result["op_ns"]) == len(result["probe_pairs"]) >= 4
    if trace:
        assert result["calls"]["bench.op"] == result["attempted"]
        assert result["first_round"]["ops"] == result["attempted"]


def test_run_refuses_a_directory_without_cachekit(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
