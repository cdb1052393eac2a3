"""One workload in one fresh process: set-up, timed ops, output checks.

`run.py` starts this script; it is not meant to be run by hand. It prints one
JSON object as the last line of its standard output.

Set-up is timed from `--start-ns`, the parent's `time.monotonic_ns()` just
before it started this process, to the first timed op: interpreter start,
`import cachekit` and the workload's fixed inputs. With `--setup-only` the
process stops there. Otherwise it runs whole rounds of ops until `--seconds`
have passed and at least `--min-ops` ops are done. Each op is timed alone,
between two host-speed probes (`hostspeed.py`); its outputs are checked
between ops, outside the timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import probe_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_WINDOW_S = 120.0  # stop starting rounds after this, whatever --min-ops says


def import_cachekit():
    """Import cachekit from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cachekit

    if Path(cachekit.__file__).resolve().parent != src / "cachekit":
        raise SystemExit(f"cachekit imported from {cachekit.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--start-ns", type=int, required=True)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=str, default=None, help="write recorded spans here (JSON)")
    args = parser.parse_args(argv)

    import_cachekit()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    if tracer is not None:
        for name, fn in workloads.OBSERVERS.items():
            tracer.observe(name, fn)
        tracer.enabled = True
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - args.start_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result: dict = {"setup_s": setup_s}
    run_op = workload.run
    if tracer is not None:
        tracer.enabled = False
        result["setup_busy_ns"] = dict(tracer.busy_ns)
        tracer.calls.clear()
        tracer.busy_ns.clear()
        tracer.self_ns.clear()
        tracer.counts.clear()
        run_op = tracer.wrap("bench.op", workload.run)

    op_ns: list[int] = []
    probe_pairs: list[tuple[int, int]] = []  # host-speed probes right before and after each op
    items = attempted = failed = 0
    problems: list[str] = []
    clock = time.perf_counter_ns
    window_start = time.perf_counter()
    rounds = 0
    while True:
        for op in workload.next_round():
            attempted += 1
            before = probe_ns()
            if tracer is not None:
                tracer.enabled = True
            start = clock()
            try:
                outputs = run_op(op)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                failed += 1
                print(f"op {op!r} failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                elapsed_ns = clock() - start
                if tracer is not None:
                    tracer.enabled = False
            op_ns.append(elapsed_ns)
            probe_pairs.append((before, probe_ns()))
            done, found = workload.check(op, outputs)
            items += done
            problems.extend(found)
        rounds += 1
        if tracer is not None and rounds == 1:
            result["first_round"] = {
                "ops": attempted,
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
            }
        window = time.perf_counter() - window_start
        if window >= MAX_WINDOW_S or (window >= args.seconds and len(op_ns) >= args.min_ops):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if hasattr(workload, "finish"):
        problems.extend(workload.finish())
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result.update(
        op_ns=op_ns,
        probe_pairs=probe_pairs,
        items=items,
        attempted=attempted,
        failed=failed,
        rounds=rounds,
        correct=not problems,
        problems=len(problems),
        peak_rss_mb=peak_rss_mb,
        window_s=time.perf_counter() - window_start,
    )
    if tracer is not None:
        result.update(
            calls=dict(tracer.calls),
            busy_ns=dict(tracer.busy_ns),
            self_ns=dict(tracer.self_ns),
            spans_recorded=len(tracer.spans),
        )
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.span_records(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
