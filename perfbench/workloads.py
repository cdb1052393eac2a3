"""The benchmark's three workloads: their inputs, one op each, and the checks.

A workload builds its fixed inputs from the benchmark seed in `__init__`
(that is set-up), then hands out ops a round at a time. Every round holds the
same number of ops of the same kind, so a run always attempts whole rounds.
`run(op)` does the timed work through cachekit's public functions and returns
its raw outputs; `check(op, outputs)` runs outside the timing, compares them
with `reference` and returns (items completed, list of problems).
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from math import comb

import numpy as np

import reference as ref
from cachekit import centralized, cli, decentralized, model


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Tables:
    """One op is one `cachekit compare` (six default schemes) at a new (N, K).

    K is fixed and N >= K, so every op evaluates the same number of operating
    points and distinct-file terms at the same grid size: the cost barely
    depends on N. No two ops in a run share an N, so a cache that only helps
    repeated (N, K) inside one process cannot show up as a gain.
    """

    K = 16
    STEPS = 40  # grid 0:N:N/40, 41 M points
    BLOCK = 4096  # N values per shuffled block
    ROUND = 8

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self._ns: list[int] = []
        self._blocks = 0

    def _next_n(self) -> int:
        if not self._ns:
            base = self.K + self._blocks * self.BLOCK
            self._ns = (base + self.rng.permutation(self.BLOCK)).tolist()[::-1]
            self._blocks += 1
        return self._ns.pop()

    def next_round(self) -> list[int]:
        return [self._next_n() for _ in range(self.ROUND)]

    def run(self, N: int):
        return _run_cli(["compare", "--n", str(N), "--k", str(self.K), "--grid", f"0:{N}:{N}/{self.STEPS}"])

    def check(self, N: int, outputs) -> tuple[int, list[str]]:
        rc, text = outputs
        K = self.K
        if rc != 0:
            return 0, [f"compare N={N} exited {rc}"]
        lines = text.splitlines()
        if lines[0] != "M," + ",".join(ref.COMPARE_SCHEMES):
            return 0, [f"compare N={N}: header {lines[0]!r}"]
        grid = [Fraction(N * i, self.STEPS) for i in range(self.STEPS + 1)]
        if len(lines) != len(grid) + 1:
            return 0, [f"compare N={N}: {len(lines) - 1} rows, expected {len(grid)}"]
        expect = ref.compare_reference(N, K, grid)
        problems = []
        printed = {s: [] for s in ref.COMPARE_SCHEMES}
        for i, (m, line) in enumerate(zip(grid, lines[1:])):
            cells = line.split(",")
            if cells[0] != f"{float(m):.6f}" or len(cells) != 1 + len(ref.COMPARE_SCHEMES):
                problems.append(f"compare N={N}: row {line!r}")
                continue
            for scheme, cell in zip(ref.COMPARE_SCHEMES, cells[1:]):
                want = f"{float(expect[scheme][i]):.6f}"
                if cell != want:
                    problems.append(f"compare N={N} M={m} {scheme}: printed {cell}, reference {want}")
                printed[scheme].append(float(cell))
        if problems:
            return 0, problems
        for a, b in (("optimal-avg", "man-avg"), ("dec-avg", "man-dec-avg"), ("optimal-avg", "optimal-peak")):
            if any(x > y for x, y in zip(printed[a], printed[b])):
                problems.append(f"compare N={N}: {a} exceeds {b}")
        for scheme, values in printed.items():
            if any(b > a for a, b in zip(values, values[1:])):
                problems.append(f"compare N={N}: {scheme} increases in M")
            if values[-1] != 0:
                problems.append(f"compare N={N}: {scheme} R(N) = {values[-1]}")
        return len(grid) * len(ref.COMPARE_SCHEMES), problems


class Verify:
    """One op is one `cachekit verify` on one centralized instance (N, K, t).

    Half of the instances are decoded in full (every demand), half are past
    verify's full-work limit and bit-check one demand per type plus a seeded
    sample after enumerating all N^K demands. Each instance was chosen to
    cost 0.18-0.25 s (median of seven runs on a 2-vCPU x86-64 Linux VM,
    Python 3.11); the samples even out the per-type costs. A round runs every
    instance once, in a seeded order, each with a new `--seed`.
    """

    # (N, K, t, --sample)
    FULL = ((3, 6, 5, 0), (2, 7, 2, 0), (2, 8, 1, 0), (2, 9, 8, 0))
    PER_TYPE = ((3, 9, 7, 4), (2, 13, 11, 8), (2, 14, 13, 4), (3, 9, 6, 2))
    DECODED_PER_INSTANCE = 3
    REPORT = re.compile(
        r"verify: N=(\d+) K=(\d+) t=(\d+) F=(\d+) \((\d+) demands, mode: (.+)\)\n"
        r"demand types: (\d+); demands checked bit-exactly: (\d+)\n"
        r".*\n"
        r"cancellation identity: (\d+) checks\n"
        r"PASS\n$"
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 2])
        self.instances = [(i, True) for i in self.FULL] + [(i, False) for i in self.PER_TYPE]

    def next_round(self) -> list[tuple]:
        order = self.rng.permutation(len(self.instances))
        seeds = self.rng.integers(0, 2**31, size=len(order))
        return [self.instances[i] + (int(s),) for i, s in zip(order, seeds)]

    def run(self, op):
        (N, K, t, sample), _, seed = op
        return _run_cli(["verify", "--n", str(N), "--k", str(K), "--t", str(t),
                         "--seed", str(seed), "--sample", str(sample)])

    def check(self, op, outputs) -> tuple[int, list[str]]:
        (N, K, t, sample), full, _ = op
        rc, text = outputs
        match = self.REPORT.search(text)
        if rc != 0 or match is None:
            return 0, [f"verify {N},{K},{t}: exit {rc}, report {text!r}"]
        n, k, tt, _, total, mode, types, checked, cancel = match.groups()
        by_parts = ref.partitions_by_parts(K, N)
        want_types = sum(by_parts.values())
        want_cancel = sum(c for e, c in by_parts.items() if K - e >= t + 1)
        want_checked = N**K if full else want_types + min(sample, N**K)
        problems = []
        if (int(n), int(k), int(tt), int(total)) != (N, K, t, N**K):
            problems.append(f"verify {N},{K},{t}: header {match.group(0).splitlines()[0]!r}")
        if (mode == "full") != full:
            problems.append(f"verify {N},{K},{t}: mode {mode!r}")
        if int(types) != want_types:
            problems.append(f"verify {N},{K},{t}: {types} types, reference {want_types}")
        if int(checked) != want_checked:
            problems.append(f"verify {N},{K},{t}: {checked} demands checked, expected {want_checked}")
        if int(cancel) != want_cancel:
            problems.append(f"verify {N},{K},{t}: {cancel} cancellation checks, expected {want_cancel}")
        return int(checked), problems

    def finish(self) -> list[str]:
        """Decode a few seeded demands of every instance through the package."""
        rng = np.random.default_rng([self.seed, 3])
        problems = []
        for (N, K, t, _), _ in self.instances:
            F = 2 * comb(K, t)
            db = model.make_database(N, F, int(rng.integers(0, 2**31)))
            placement = centralized.batch_placement(N, K, t, F)
            for _ in range(self.DECODED_PER_INSTANCE):
                d = tuple(int(x) for x in rng.integers(1, N + 1, size=K))
                messages = centralized.encode_delivery(db, placement, d)
                if len(messages) != ref.centralized_message_count(K, t, d):
                    problems.append(f"instance {N},{K},{t} demand {d}: {len(messages)} messages")
                for user in range(1, K + 1):
                    got = centralized.decode_user(user, db, placement, messages, d)
                    if not np.array_equal(got, db.bits[d[user - 1] - 1]):
                        problems.append(f"instance {N},{K},{t} demand {d}: user {user} decoded wrong bits")
        return problems


class Decentralized:
    """One op is one random placement plus one delivery to a uniform demand,
    done the way `simulate --schemes decentralized` does it.

    Every op's decoded files, message count and payload bits are checked, the
    last two against the per-level delivery formula over the partition's group
    sizes. The first op of each round also rebuilds the cache-set groups from
    every user's `cached_pairs` (about twice the op's own time, so not on every
    op): the partition and the payload must agree with them, and each user
    must cache floor(M F / N) bits of every file.
    """

    N, K, M, F = 4, 8, Fraction(1), 50_000
    ROUND = 4

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 4])
        self.db = model.make_database(self.N, self.F, int(self.rng.integers(0, 2**31)))

    def next_round(self) -> list[tuple]:
        seeds = self.rng.integers(0, 2**31, size=self.ROUND)
        demands = self.rng.integers(1, self.N + 1, size=(self.ROUND, self.K))
        return [(int(s), tuple(int(x) for x in d), i == 0)
                for i, (s, d) in enumerate(zip(seeds, demands))]

    def run(self, op):
        seed, d, _ = op
        N, K, F, db = self.N, self.K, self.F, self.db
        placement = decentralized.random_placement(N, K, self.M, F, seed)
        partition = decentralized.level_partition(placement, N, F)
        leaders = centralized.select_leaders(d)
        messages = decentralized.encode_delivery(db, partition, d, leaders)
        decoded = [decentralized.decode_user(k, db, placement, partition, messages, d, leaders)
                   for k in range(1, K + 1)]
        return placement, partition, messages, decoded

    def check(self, op, outputs) -> tuple[int, list[str]]:
        seed, d, full_check = op
        placement, partition, messages, decoded = outputs
        N, K, F = self.N, self.K, self.F
        problems = [f"placement {seed}: user {k} decoded wrong bits"
                    for k, got in enumerate(decoded, start=1)
                    if not np.array_equal(got, self.db.bits[d[k - 1] - 1])]

        def program_size(s, i):
            return len(partition.positions(ref.members(s), i))

        sizes = {"partition": program_size}
        if full_check:
            codes = ref.cache_set_codes((placement.cached_pairs(k) for k in range(1, K + 1)), N, F)
            quota = ref.cache_quota(N, self.M, F)
            if not (ref.per_user_file_counts(codes, K) == quota).all():
                problems.append(f"placement {seed}: a user does not cache {quota} bits of every file")
            groups = ref.group_sizes(codes)
            if any(program_size(s, i) != n for (s, i), n in groups.items()):
                problems.append(f"placement {seed}: level partition differs from cached_pairs groups")
            sizes["cached_pairs"] = lambda s, i: groups.get((s, i), 0)
        got = {"payload_bits": sum(m.payload.size for m in messages), "messages_sent": len(messages)}
        for source, size in sizes.items():
            want = ref.delivery_counts(size, d, K)
            for key, value in got.items():
                if value != want[key]:
                    problems.append(f"placement {seed} demand {d}: {key} {value}, {source} groups give {want[key]}")
        return K * F, problems


WORKLOADS = {"tables": Tables, "verify": Verify, "decentralized": Decentralized}


# --- work counts taken from return values, in traced runs ----------------------------


def count_centralized(tracer, args, kwargs, messages) -> None:
    tracer.counts["centralized.messages_sent"] += len(messages)
    tracer.counts["centralized.payload_bits"] += sum(m.payload.size for m in messages)


def count_decentralized(tracer, args, kwargs, messages) -> None:
    partition, d = args[1], args[2]
    padding = 0
    for m in messages:
        members = m.subset.members
        for idx, x in enumerate(members):
            size = len(partition.positions(members[:idx] + members[idx + 1:], d[x - 1]))
            if size:
                padding += m.payload.size - size
    tracer.counts["decentralized.messages_sent"] += len(messages)
    tracer.counts["decentralized.payload_bits"] += sum(m.payload.size for m in messages)
    tracer.counts["decentralized.padding_bits"] += padding


OBSERVERS = {
    "centralized.encode_delivery": count_centralized,
    "decentralized.encode_delivery": count_decentralized,
}
