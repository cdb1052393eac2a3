"""Host-speed probe: a fixed piece of interpreter-bound work, timed.

The shared 2-vCPU host the benchmark was written on runs the same code up to
three times as fast in some spells as in others, and the spells last from a fraction
of a second to minutes. CPU time slows down with wall time, so no in-process
clock sees the loss. The benchmark therefore times this probe right before and
right after every timed op (and every set-up), and reports each time scaled to
a host on which the probe takes REF_NS:

    corrected = measured * REF_NS / mean(probe before, probe after)

The probe is the benchmark's own code, so a change to cachekit moves the
measured time and not the probe. Raw times are kept beside the corrected ones
in `.perfbench_out/`.

The probe has two halves: an integer-arithmetic loop and a loop of small
function calls and dict updates. Of five candidates timed around the ops of
each workload for 100 s (integer loop, `Fraction` sums,
calls and dict updates, numpy arithmetic on 200 000 ints, list building and
sorting), this pair left the smallest spread of corrected medians on every
workload at once: the integer loop alone tracked `tables` ops poorly, and
the numpy one tracked `tables` and `verify` poorly.
"""

from __future__ import annotations

import time

ARITH_ITERS = 50_000
CALL_ITERS = 25_000
REF_NS = 10_000_000  # about the probe's time on the host it was written on


def _step(a: int, b: int) -> int:
    return a * b % 11


def probe_ns() -> int:
    """Wall time of the two fixed loops."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(ARITH_ITERS):
        acc += i * i % 7
    counts: dict[int, int] = {}
    for i in range(CALL_ITERS):
        key = _step(i, 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter_ns() - start


def corrected(measured: float, before_ns: int, after_ns: int) -> float:
    """`measured` scaled to the reference host speed (same unit as `measured`)."""
    return measured * REF_NS * 2 / (before_ns + after_ns)
