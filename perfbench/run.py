"""cachekit benchmark: one command for every workload.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; cachekit is imported from its `src/`.
Each run starts fresh single-threaded worker processes (`worker.py`):

* `--trace 0`: one process sets up and runs the timed ops; set-up is
  timed in SETUP_PROBES processes that stop after set-up, half of them
  before that run and half after. The last stdout line holds the end-to-end
  metrics; `setup_s` is the median of the set-up times.
* `--trace 1`: one untraced process and then one traced process, each for
  half of `--seconds`, on the same ops. The last stdout line holds the
  per-layer metrics and the tracing overhead (traced against untraced
  median op latency). Spans go to `.perfbench_out/`.

Every time is scaled to the reference host speed with the probes of
`hostspeed.py`: an op by the probes the worker runs right before and after
it, a set-up by probes this process runs right before and after the worker,
and a traced run's layer times by the median probe of that run. The raw
figures go to `.perfbench_out/` beside them.

The exit code is 0 only when every worker ran to its end; a result whose
outputs failed a check still prints, with `"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tables", "verify", "decentralized")
SETUP_PROBES = 11
MIN_OPS = 100  # op_p90_ms needs at least ten ops beyond the 90th percentile
WORKER_TIMEOUT_S = 170

# (metric, unit, kind, key); see README.md for what each should move
PER_LAYER = [
    ("combinatorics.self_s", "s/op", "self", "combinatorics"),
    ("model.self_s", "s/op", "self", "model"),
    ("rate_analysis.self_s", "s/op", "self", "rate_analysis"),
    ("centralized.self_s", "s/op", "self", "centralized"),
    ("decentralized.self_s", "s/op", "self", "decentralized"),
    ("cli.self_s", "s/op", "self", "cli"),
    ("rate_analysis.rate_curve.busy_s", "s/op", "busy", "rate_analysis.rate_curve"),
    ("rate_analysis.optimal_avg_points.calls", "calls/op", "calls", "rate_analysis.optimal_avg_points"),
    ("rate_analysis.optimal_avg_points.busy_s", "s/op", "busy", "rate_analysis.optimal_avg_points"),
    ("combinatorics.lower_convex_envelope.calls", "calls/op", "calls", "combinatorics.lower_convex_envelope"),
    ("model.demand_stats.calls", "calls/op", "calls", "model.demand_stats"),
    ("model.demand_stats.busy_s", "s/op", "busy", "model.demand_stats"),
    ("centralized.encode_delivery.busy_s", "s/op", "busy", "centralized.encode_delivery"),
    ("centralized.decode_user.busy_s", "s/op", "busy", "centralized.decode_user"),
    ("centralized.verify_message_cancellation.busy_s", "s/op", "busy",
     "centralized.verify_message_cancellation"),
    ("centralized.reconstruct_message.calls", "calls/op", "calls", "centralized.reconstruct_message"),
    ("decentralized.random_placement.busy_s", "s/op", "busy", "decentralized.random_placement"),
    ("decentralized.level_partition.busy_s", "s/op", "busy", "decentralized.level_partition"),
    ("decentralized.encode_delivery.busy_s", "s/op", "busy", "decentralized.encode_delivery"),
    ("decentralized.decode_user.busy_s", "s/op", "busy", "decentralized.decode_user"),
    ("model.make_database.busy_s", "s", "setup_busy", "model.make_database"),
    ("centralized.messages_sent", "msgs/op", "count", "centralized.messages_sent"),
    ("centralized.payload_bits", "bits/op", "count", "centralized.payload_bits"),
    ("decentralized.messages_sent", "msgs/op", "count", "decentralized.messages_sent"),
    ("decentralized.payload_bits", "bits/op", "count", "decentralized.payload_bits"),
    ("decentralized.padding_bits", "bits/op", "count", "decentralized.padding_bits"),
    ("trace.overhead_pct", "%", "overhead", None),
]


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CACHEKIT_SEED", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    start_ns = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--start-ns", str(start_ns), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(extra) or 'run'} for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrected_op_ms(run: dict) -> list[float]:
    return [hostspeed.corrected(ns, *pair) / 1e6 for ns, pair in zip(run["op_ns"], run["probe_pairs"])]


def timing_metrics(setups: list[float], op_ms: list[float], items: int) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items / (sum(op_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(op_ms, n=100)[89], "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # half the set-ups before the timed run and half after it, so that a slow
    # or fast spell of the machine weighs less on the median
    def time_setups(n):
        for _ in range(n):
            before = hostspeed.probe_ns()
            setup_s = spawn(workload, seed, seconds, "--setup-only")["setup_s"]
            after = hostspeed.probe_ns()
            setups.append((setup_s, before, after))

    setups: list[tuple[float, int, int]] = []
    time_setups(SETUP_PROBES // 2)
    run = spawn(workload, seed, seconds, "--min-ops", str(MIN_OPS))
    time_setups(SETUP_PROBES - SETUP_PROBES // 2)
    run["setups"] = setups
    metrics = timing_metrics([hostspeed.corrected(*s) for s in setups], corrected_op_ms(run), run["items"])
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    raw = timing_metrics([s[0] for s in setups], [ns / 1e6 for ns in run["op_ns"]], run["items"])
    run["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
    return run, metrics


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    base = spawn(workload, seed, seconds / 2)
    spans_path = OUT / f"{workload}-seed{seed}-spans.json"
    run = spawn(workload, seed, seconds / 2, "--trace", "--spans", str(spans_path))
    ops = len(run["op_ns"])
    first = run["first_round"]
    # layer times are summed over many ops, so they are scaled by the run's median probe
    speed = hostspeed.REF_NS / statistics.median(p for pair in run["probe_pairs"] for p in pair)
    metrics = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "self":
            value = sum(v for k, v in run["self_ns"].items() if k.startswith(key + ".")) * speed / ops / 1e9
        elif kind == "busy":
            value = run["busy_ns"].get(key, 0) * speed / ops / 1e9
        elif kind == "calls":
            value = first["calls"].get(key, 0) / first["ops"]
        elif kind == "count":
            value = first["counts"].get(key, 0) / first["ops"]
        elif kind == "setup_busy":
            value = run["setup_busy_ns"].get(key, 0) * speed / 1e9
        else:
            traced = statistics.median(corrected_op_ms(run))
            value = (traced / statistics.median(corrected_op_ms(base)) - 1) * 100
        metrics[name] = (value, unit)
    run["untraced"] = {k: base[k] for k in ("op_ns", "probe_pairs", "attempted", "failed", "correct")}
    run["correct"] = run["correct"] and base["correct"]
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"]
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cachekit" / "__init__.py").is_file():
        print(f"error: no cachekit source under {ROOT / 'src'}; run from a cachekit checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    run, metrics = measure(args.workload, args.seed, args.seconds)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"run": run, "metrics": metrics}, fh)
    print(json.dumps({
        "correct": bool(run["correct"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
