"""Command-line front end: tradeoff tables, exhaustive verification,
end-to-end simulation, converse evaluation, and scheme comparison.

Exit codes: 0 success, 1 verification/simulation failure, 2 usage error.
All randomness derives from one seed (flag `--seed`, else env CACHEKIT_SEED,
else 0), so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import decentralized
from .centralized import (  # decode_user is not called here; perfbench's tracer test finds it here
    batch_placement,
    decode_user,
    verify_message_cancellation,
)
from .combinatorics import binomial
from .decentralized import delivered_rate, select_leaders
from .model import (
    PlacementParseError,
    code_dtype,
    count_types,
    demand_at,
    demand_range,
    demand_stats,
    enumerate_types,
    load_placement,
    make_database,
    type_representative,
    validate_demand,
)
from .rate_analysis import (
    SCHEMES,
    CacheProfile,
    converse_bound,
    dec_rate_for_distinct,
    delivery_rate_value,
    rate_curve,
    write_curves_csv,
)

EXHAUSTION_GUARD = 10**6
# Full bit-exact decoding of every demand is done while the estimated work
# stays under this many subfile operations; beyond that, verify bit-checks
# one representative per demand type plus a random sample. Checked a block
# of demands at a time, the largest full-mode runs take about 5 s on a
# 2-vCPU x86-64 VM: `verify --n 10 --k 6 --t 0` (10^6 demands) 4.7 s,
# `--n 3 --k 9 --t 2` 3.3 s (20 s when each demand was checked alone).
FULL_WORK_LIMIT = 4 * 10**7
DEFAULT_SAMPLE = 200
# Largest M grid `rates` and `compare` evaluate; every point costs exact
# rational work per scheme, so a larger grid is refused, not built.
MAX_GRID_POINTS = 10**5
# Largest estimated allocation of a batch (centralized) `verify`/`simulate`
# run, see `batch_bytes_estimate`; a larger instance is refused before any
# of it is allocated.
MAX_BATCH_BYTES = 2**30
# Peak memory per subfile group beyond its bits' codes and sort order: its
# run in the partition, its message and its share of the engine's index, of
# the K cache views one decode call holds (K·N·(F+1) bytes) and of the
# omitted messages' cancellation terms. Peak RSS of `simulate --n 2` is 51,
# 92 and 245 MB at (K, t) = (16, 8), (18, 9) and (20, 10); less the 30 MB
# the imported package takes, that is 1.6, 1.3 and 1.2 KB per group over
# 12,870 to 184,756 groups. Kept at 4 KB: a smaller
# figure would admit larger instances, whose run time nothing bounds yet.
BYTES_PER_SUBFILE = 4096
# Most demand types `bound` prints a line for, counted before any is built.
# A type costs about 40 µs (14,888 types of a K=N=35 placement took 0.57 s),
# so an admitted run stays within about 4 s; K=N=100 would be 1.9e8 types.
MAX_BOUND_TYPES = 10**5


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.6f}"


def resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("CACHEKIT_SEED")
    return int(env) if env else 0


def child_seeds(seed: int, n: int) -> list[int]:
    """Independent per-purpose seeds derived from the one user-facing seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def parse_grid(spec: str) -> list[Fraction]:
    try:
        parts = [Fraction(p) for p in spec.split(":")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad grid {spec!r}; expected start:stop:step") from None
    if len(parts) != 3:
        raise UsageError(f"bad grid {spec!r}; expected start:stop:step")
    start, stop, step = parts
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid {spec!r}; need step > 0 and stop >= start")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid {spec!r} has {count} points, more than the limit of {MAX_GRID_POINTS}")
    return [start + i * step for i in range(count)]


def _grid(args) -> list[Fraction]:
    """The --grid of `rates`/`compare` (default 0:N:1), every M within [0, N]."""
    grid = parse_grid(args.grid if args.grid else f"0:{args.n}:1")
    if grid[0] < 0 or grid[-1] > args.n:
        raise UsageError(f"grid M values must be in [0, {args.n}], got {grid[0]}..{grid[-1]}")
    return grid


def parse_m(spec: str, N: int) -> Fraction:
    """A --m cache size: a number or fraction within [0, N]."""
    try:
        M = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad cache size {spec!r}; expected a number or fraction") from None
    if not 0 <= M <= N:
        raise UsageError(f"M must be in [0, {N}], got {M}")
    return M


def parse_schemes(spec: str | None, default: list[str]) -> list[str]:
    if spec is None:
        return default
    labels = [s for s in (part.strip() for part in spec.split(",")) if s]
    if not labels:
        raise UsageError("empty scheme list")
    return labels


def _rate_schemes(spec: str | None, default: list[str]) -> list[str]:
    labels = parse_schemes(spec, default)
    for label in labels:
        if label not in SCHEMES:
            raise UsageError(f"unknown scheme {label!r}; known: {', '.join(sorted(SCHEMES))}")
    return labels


def parse_demand(spec: str, N: int, K: int) -> tuple[int, ...]:
    try:
        d = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise UsageError(f"bad demand {spec!r}; expected comma-separated file indices") from None
    if len(d) != K:
        raise UsageError(f"demand has {len(d)} entries, expected K={K}")
    try:
        return validate_demand(d, N)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_t(args, N: int, K: int) -> int:
    """--t, or the integer t = K*M/N of --m; given both, they must agree."""
    if args.t is None and args.m is None:
        raise UsageError("need --t or --m")
    if args.t is not None and not 0 <= args.t <= K:
        raise UsageError(f"t must be in 0..{K}")
    if args.m is None:
        return args.t
    t = Fraction(K) * parse_m(args.m, N) / N
    if args.t is not None and t != args.t:
        raise UsageError(f"--t {args.t} contradicts --m {args.m}, which gives t = K*M/N = {t}")
    if t.denominator != 1:
        raise UsageError(f"M={args.m} gives non-integer t={t}; pass --t or an integer-t M")
    return int(t)


def batch_bytes_estimate(N: int, K: int, t: int, F: int) -> int:
    """Estimated bytes a batch run allocates: per bit, its placement code
    (past 64 users a pointer plus a Python int of its own) and its entry in
    the partition's sort order, plus BYTES_PER_SUBFILE for each of the C(K,t)
    subfile groups. Computed from the parameters alone, before anything is
    built."""
    code = code_dtype(K)
    per_bit = code.itemsize + np.dtype(np.intp).itemsize + (sys.getsizeof(1 << K) if code == object else 0)
    return N * F * per_bit + BYTES_PER_SUBFILE * binomial(K, t)


def _batch_file_size(args, K: int, t: int) -> int:
    """--f for a batch placement (default 2*C(K,t)); it must split into C(K,t)
    subfiles, and the run's estimated memory must stay within MAX_BATCH_BYTES."""
    pieces = binomial(K, t)
    F = args.f if args.f is not None else 2 * pieces
    if F % pieces:
        raise UsageError(f"F must be a multiple of C({K},{t}) = {pieces}, got F={F}")
    estimate = batch_bytes_estimate(args.n, K, t, F)
    if estimate > MAX_BATCH_BYTES:
        raise UsageError(
            f"N={args.n} K={K} t={t} F={F} needs an estimated {estimate} bytes "
            f"(placement codes plus {pieces} subfile groups), more than the limit of {MAX_BATCH_BYTES}"
        )
    return F


def _check_sizes(args) -> None:
    """--n, --k and --f, where the subcommand takes them and they are given,
    must be positive."""
    for flag in ("n", "k", "f"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise UsageError(f"--{flag} must be at least 1, got {value}")


# --- rates / compare ---------------------------------------------------------


def cmd_rates(args) -> int:
    labels = _rate_schemes(args.schemes, default=[])
    if not labels:
        raise UsageError("rates requires --schemes")
    grid = _grid(args)
    curves = [rate_curve(label, args.n, args.k, grid) for label in labels]
    if args.out:
        with open(args.out, "w") as fh:
            write_curves_csv(curves, fh)
        print(f"wrote {len(grid) * len(curves)} rows to {args.out}")
    else:
        width = max(len(c.scheme) for c in curves) + 2
        print("M".ljust(10) + "".join(c.scheme.rjust(width) for c in curves))
        for i, m in enumerate(grid):
            row = _fmt(m).ljust(10)
            row += "".join(_fmt(c.points[i][1]).rjust(width) for c in curves)
            print(row)
    return 0


def cmd_compare(args) -> int:
    default = ["optimal-avg", "man-avg", "optimal-peak", "dec-avg", "man-dec-avg", "dec-peak"]
    labels = _rate_schemes(args.schemes, default)
    grid = _grid(args)
    curves = [rate_curve(label, args.n, args.k, grid) for label in labels]
    header = "M," + ",".join(labels)
    lines = [header]
    for i, m in enumerate(grid):
        lines.append(",".join([_fmt(m)] + [_fmt(c.points[i][1]) for c in curves]))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(grid)} rows to {args.out}")
    else:
        print("\n".join(lines))
    return 0


# --- verify ------------------------------------------------------------------


def _wrong_users(db, placement, messages, d, leaders) -> list[int]:
    """The users, ascending, whose decode of the delivery misses their file;
    all K are decoded in one call and XORed in place with their files."""
    decoded = decentralized.decode_users(
        range(1, placement.K + 1), db, placement, placement.partition, messages, d, leaders)
    np.bitwise_xor(decoded, db.bits[np.subtract(d, 1)], out=decoded)
    return (np.logical_or.reduce(decoded, axis=1).nonzero()[0] + 1).tolist()


def _check_block(db, placement, t: int, demands: np.ndarray) -> list[str]:
    """Why each demand of a block ((n, K), files 1..N) fails, "" where it
    passes: its message count against the closed form, else its payload
    bits against `delivery_rate_value`·F, else the first user whose file
    decodes wrong. One stacked encode and one stacked decode of all K users
    from their caches and the sent rows."""
    K, F, partition = placement.K, db.F, placement.partition
    leaders = decentralized.first_requesters(demands)
    delivery = decentralized.encode_stack(db, partition, demands, leaders)
    counts = np.zeros(len(demands), dtype=np.int64)
    sent_bits = np.zeros(len(demands), dtype=np.int64)
    for _, lengths in delivery:
        counts += np.count_nonzero(lengths, axis=1)
        sent_bits += lengths.sum(axis=1)
    decoded = decentralized.decode_stack(range(1, K + 1), db, placement, partition, delivery, demands, leaders)
    wrong = np.logical_or.reduce(decoded != db.bits[demands - 1], axis=2)
    first_wrong = np.where(wrong.any(axis=1), wrong.argmax(axis=1) + 1, 0)  # 0: every user decoded right
    distinct = np.count_nonzero(leaders, axis=1).tolist()
    expected = {e: (binomial(K, t + 1) - binomial(K - e, t + 1), delivery_rate_value(K, t, e) * F)
                for e in set(distinct)}
    reasons = []
    for count, bits, e, user in zip(counts.tolist(), sent_bits.tolist(), distinct, first_wrong.tolist()):
        count_form, bits_form = expected[e]
        if count != count_form:
            reasons.append(f"message count {count} != {count_form}")
        elif bits != bits_form:
            reasons.append("delivered rate does not match the closed form")
        elif user:
            reasons.append(f"user {user} decoded the wrong bits")
        else:
            reasons.append("")
    return reasons


def _sampled_demands(N: int, K: int, sample: int, seed: int) -> list[tuple[int, ...]]:
    """`sample` seeded uniform draws (at most N^K) from the demands in
    lexicographic order, each built from its index alone."""
    total = N**K
    picks = np.random.default_rng(seed).integers(0, total, size=min(sample, total))
    return [demand_at(int(i), N, K) for i in picks]


def cmd_verify(args) -> int:
    N, K = args.n, args.k
    t = _resolve_t(args, N, K)
    F = _batch_file_size(args, K, t)
    total = N**K
    if total > EXHAUSTION_GUARD:
        raise UsageError(
            f"N^K = {total} exceeds the exhaustion guard {EXHAUSTION_GUARD}; "
            "choose smaller N or K"
        )
    if args.sample < 0:
        raise UsageError(f"--sample must be non-negative, got {args.sample}")
    placement = batch_placement(N, K, t, F)
    seed = resolve_seed(args.seed)
    db_seed, sample_seed = child_seeds(seed, 2)
    db = make_database(N, F, db_seed)
    work = total * K * binomial(K, t) * (t + 2)
    full = work <= FULL_WORK_LIMIT
    mode = "full" if full else f"per-type + {args.sample} sampled"
    print(f"verify: N={N} K={K} t={t} F={F} ({total} demands, mode: {mode})")

    # the lexicographically first demand of each type, in first-appearance order
    reps = [type_representative(stats) for stats in enumerate_types(N, K)]
    # demands are checked a block at a time, in order: in full mode each block
    # is a run of consecutive indices, in per-type mode a run of the
    # representatives, then of the sample
    size = decentralized.stack_size(placement.partition, K)
    if full:
        blocks = (demand_range(lo, min(lo + size, total), N, K) for lo in range(0, total, size))
        checked = total
    else:
        to_check = np.array(reps + _sampled_demands(N, K, args.sample, sample_seed))
        blocks = (to_check[lo : lo + size] for lo in range(0, len(to_check), size))
        checked = len(to_check)

    failures = []
    for demands in blocks:
        reasons = _check_block(db, placement, t, demands)
        bad = next((i for i, why in enumerate(reasons) if why), None)
        if bad is not None:
            failures.append((tuple(demands[bad].tolist()), reasons[bad]))
            break

    cancel_checks = 0
    for rep in reps:
        leaders = select_leaders(rep)
        non_leaders = [k for k in range(1, K + 1) if k not in leaders]
        if len(non_leaders) < t + 1:
            continue  # no leaderless subset exists, nothing to cancel
        group = tuple(sorted(set(non_leaders[: t + 1]) | leaders))
        cancel_checks += 1
        if not verify_message_cancellation(db, rep, leaders, group):
            failures.append((rep, f"cancellation identity failed on group {group}"))
            break

    print(f"demand types: {len(reps)}; demands checked bit-exactly: {checked}")
    print("message-count and rate identities: checked on every demand verified above")
    print(f"cancellation identity: {cancel_checks} checks")
    if failures:
        d, why = failures[0]
        print(f"FAIL: demand={','.join(map(str, d))}: {why}")
        return 1
    print("PASS")
    return 0


# --- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    N, K = args.n, args.k
    labels = parse_schemes(args.schemes, default=["centralized"])
    if len(labels) != 1 or labels[0] not in ("centralized", "decentralized"):
        raise UsageError("simulate takes one scheme: centralized or decentralized")
    scheme = labels[0]
    seed = resolve_seed(args.seed)
    db_seed, place_seed, demand_seed = child_seeds(seed, 3)

    if scheme == "centralized":
        t = _resolve_t(args, N, K)
        F = _batch_file_size(args, K, t)
        placement = batch_placement(N, K, t, F)
        setting = f"t={t} F={F}"
    else:
        if args.m is None:
            raise UsageError("decentralized simulate requires --m")
        if args.t is not None:
            raise UsageError("decentralized simulate takes --m, not --t")
        F = args.f if args.f is not None else 10_000
        M = parse_m(args.m, N)
        placement = decentralized.random_placement(N, K, M, F, place_seed)
        setting = f"M={M} F={F}"
    db = make_database(N, F, db_seed)
    d = (
        parse_demand(args.demand, N, K)
        if args.demand
        else tuple(np.random.default_rng(demand_seed).integers(1, N + 1, size=K).tolist())
    )
    leaders = select_leaders(d)
    stats = demand_stats(d, N)
    messages = decentralized.encode_delivery(db, placement.partition, d, leaders)
    rate = delivered_rate(messages, F)
    bad = _wrong_users(db, placement, messages, d, leaders)
    print(f"{scheme} simulate: N={N} K={K} {setting} seed={seed}")
    print(f"demand: {','.join(map(str, d))} ({stats.distinct} distinct), leaders: {sorted(leaders)}")
    if scheme == "centralized":
        predicted = delivery_rate_value(K, t, stats.distinct)
        print(f"messages: {len(messages)}, rate: {rate} = {_fmt(rate)}, predicted: {predicted}")
    else:
        predicted = dec_rate_for_distinct(N, M, stats.distinct)
        rel = abs(float(rate) - float(predicted)) / float(predicted) if predicted else 0.0
        print(f"messages: {len(messages)}, measured rate: {_fmt(rate)}, "
              f"predicted: {_fmt(predicted)}, relative error: {rel * 100:.3f}%")
    print("decode: all users OK" if not bad else f"decode: FAILED for users {bad}")
    if args.dump:
        for m in messages:
            print(m.transcript_line())
    if scheme == "centralized" and rate != predicted:
        print(f"rate mismatch: measured {rate} vs predicted {predicted}")
        return 1
    return 1 if bad else 0


# --- bound ---------------------------------------------------------------------


def _batch_achieved_level(profile: CacheProfile, partition, F: int) -> int | None:
    """The single coverage level if the placement is batch-like, else None.

    Batch-like: every bit cached by exactly t users and all (set, file)
    groups have the equal subfile size F / C(K, t).
    """
    levels = [n for n, a in enumerate(profile.coverage) if a]
    if len(levels) != 1:
        return None
    t = levels[0]
    size, rem = divmod(F, binomial(partition.K, t))
    return None if rem or not (partition.sizes == size).all() else t


def cmd_bound(args) -> int:
    try:
        placement, N, F, M = load_placement(args.placement)
    except PlacementParseError as exc:
        raise UsageError(f"cannot parse {args.placement}: {exc}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {args.placement}: {exc}") from None
    K = placement.K
    types = count_types(N, K)
    if types > MAX_BOUND_TYPES:
        raise UsageError(f"K={K} users and N={N} files give {types} demand types, "
                         f"more than the limit of {MAX_BOUND_TYPES}")
    profile = CacheProfile.from_placement(placement)
    print(f"placement: K={K} N={N} F={F} M={M}")
    print("coverage profile (bits cached by exactly n users):")
    for n, a in enumerate(profile.coverage):
        if a:
            print(f"  n={n}: {a}")
    batch_t = _batch_achieved_level(profile, placement.partition, F)
    if batch_t is not None:
        print(f"placement is batch-structured with t={batch_t}")
    print("per-type lower bounds on the average delivery rate (eps=0):")
    for stats in enumerate_types(N, K):
        bound = converse_bound(profile, stats, K, F, eps=0)
        line = f"  type {stats.counts} distinct={stats.distinct}: bound={_fmt(bound)}"
        if batch_t is not None:
            achieved = delivery_rate_value(K, batch_t, stats.distinct)
            line += f", achieved={_fmt(achieved)}"
        print(line)
    return 0


# --- entry point -----------------------------------------------------------------


# Every flag (and positional) a subcommand can take, declared once:
# name -> add_argument keywords.
FLAGS = {
    "--n": dict(type=int, required=True, help="number of files"),
    "--k": dict(type=int, required=True, help="number of users"),
    "--m": dict(type=str, default=None, help="cache size in files (fraction ok)"),
    "--t": dict(type=int, default=None, help="integer cache parameter K*M/N"),
    "--f": dict(type=int, default=None, help="bits per file"),
    "--seed": dict(type=int, default=None, help="seed (default env CACHEKIT_SEED or 0)"),
    "--sample": dict(type=int, default=DEFAULT_SAMPLE,
                     help="extra random demands to bit-check in per-type mode"),
    "--grid": dict(type=str, default=None, help="M grid start:stop:step"),
    "--schemes": dict(type=str, default=None, help="comma-separated scheme labels"),
    "--out": dict(type=str, default=None, help="CSV output path"),
    "--dump": dict(action="store_true", help="print the delivery transcript"),
    "--demand": dict(type=str, default=None, help="comma-separated file indices"),
    "placement": dict(type=str, help="placement file path"),
}

# Each subcommand takes exactly the flags its cmd_* function reads.
SUBCOMMANDS = {
    "rates": (cmd_rates, "tabulate tradeoff formulas on an M grid",
              ["--n", "--k", "--grid", "--schemes", "--out"]),
    "verify": (cmd_verify, "exhaustively verify an instance",
               ["--n", "--k", "--m", "--t", "--f", "--seed", "--sample"]),
    "simulate": (cmd_simulate, "one placement + demand, end to end",
                 ["--n", "--k", "--m", "--t", "--f", "--seed", "--schemes", "--demand", "--dump"]),
    "bound": (cmd_bound, "converse bound for a placement file", ["placement"]),
    "compare": (cmd_compare, "side-by-side scheme table",
                ["--n", "--k", "--grid", "--schemes", "--out"]),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser. A flag of FLAGS that this subcommand does not
    take is set aside with its value before parsing and reported with it as
    unrecognized; otherwise the value could be read as the subcommand's
    positional (`bound --f 0 my.placement` took `0` for the placement)."""

    def parse_known_args(self, args=None, namespace=None):
        # the subcommand's part of the command line, or argparse's default
        args = sys.argv[1:] if args is None else list(args)
        kept, stray, i = [], [], 0
        while i < len(args):
            arg, i = args[i], i + 1
            if arg == "--":
                kept += args[i - 1 :]
                break
            flag = arg.split("=", 1)[0]
            if flag not in FLAGS or not flag.startswith("--") or flag in self._option_string_actions:
                kept.append(arg)
                continue
            stray.append(arg)
            takes_value = "action" not in FLAGS[flag] and "=" not in arg
            if takes_value and i < len(args) and not args[i].startswith("--"):
                stray.append(args[i])
                i += 1
        namespace, extras = super().parse_known_args(kept, namespace)
        return namespace, stray + extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachekit",
        description="Coded caching with uncoded prefetching: schemes, tradeoffs, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for command, (fn, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
