"""Core data model: file database, prefetchings, demands, and demand statistics.

Conventions used across the package:

* users are numbered 1..K, file indices in demands are 1..N (the bit matrix
  row for file i is `bits[i-1]`),
* bit positions inside a file are 0..F-1,
* all randomness is drawn from numpy's PCG64 (`np.random.default_rng(seed)`),
  so a given seed reproduces the same database / placement on any platform.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import binomial

Demand = Sequence[int]


@dataclass(frozen=True)
class Database:
    """N files of F bits each; `bits[i-1, j]` is bit j of file i."""

    N: int
    F: int
    bits: np.ndarray

    def file(self, index: int) -> np.ndarray:
        """Row of file `index` (1-based)."""
        return self.bits[index - 1]


def make_database(N: int, F: int, seed: int) -> Database:
    """I.i.d. fair-coin database, deterministic for a given seed."""
    if N < 1 or F < 1:
        raise ValueError(f"need N >= 1 and F >= 1, got N={N}, F={F}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(N, F), dtype=np.uint8)
    bits.setflags(write=False)
    return Database(N, F, bits)


def code_dtype(K: int) -> np.dtype:
    """Smallest dtype holding a K-bit user set: uint8 up to K = 8, ..., uint64
    at K = 64, and object (Python ints) past 64 users."""
    return np.min_scalar_type((1 << K) - 1) if K <= 64 else np.dtype(object)


@dataclass(frozen=True)
class Placement:
    """Per-bit cache sets.

    Bit k-1 of `codes[i-1, j]` is set iff user k caches bit j of file i; the
    (N, F) array has dtype `code_dtype(K)` and is read-only once built.
    """

    K: int
    codes: np.ndarray

    def cached(self, user: int) -> np.ndarray:
        """(N, F) boolean view of what `user` (1-based) caches."""
        return self.caches([user])[0]

    def caches(self, users: Sequence[int]) -> np.ndarray:
        """(len(users), N, F) booleans: what each user (1-based, 1..K) caches."""
        if len(users) and not 1 <= min(users) <= max(users) <= self.K:
            raise ValueError(f"user {min(users) if min(users) < 1 else max(users)} is not in 1..{self.K}")
        bits = np.array([1 << (k - 1) for k in users], dtype=self.codes.dtype)
        return (self.codes & bits[:, None, None]) != 0

    def cached_bits(self, user: int) -> int:
        """Number of bits cached by `user` (1-based)."""
        return int(np.count_nonzero(self.cached(user)))

    def cached_pairs(self, user: int) -> list[tuple[int, int]]:
        """Sorted (file, bit) pairs cached by `user`; file 1-based, bit 0-based."""
        rows, cols = np.nonzero(self.cached(user))
        return list(zip((rows + 1).tolist(), cols.tolist()))

    @cached_property
    def partition(self):
        """The level partition of the codes (`decentralized.level_partition`),
        built on first use and kept with the placement."""
        from .decentralized import level_partition  # decentralized imports this module

        return level_partition(self, *self.codes.shape)


def validate_demand(d: Demand, N: int) -> tuple[int, ...]:
    """`d` as a tuple of ints in 1..N; entries that are not integers (floats,
    strings) are refused, not truncated. numpy integers are accepted."""
    try:
        d = tuple(map(operator.index, d))
    except TypeError:
        raise ValueError(f"demand entries must be integers: {d!r}") from None
    if not d:
        raise ValueError("demand must be non-empty")
    if min(d) < 1 or max(d) > N:
        raise ValueError(f"demand entries must be in 1..{N}: {d}")
    return d


@dataclass(frozen=True)
class DemandStats:
    """Sorted per-file request counts of a demand.

    `counts` is non-increasing and zero-padded to length N; `distinct` is the
    number of nonzero entries (the number of distinct files requested).
    Demands sharing the same counts form one type: they cost the same to
    serve and are interchangeable up to relabeling users and files.
    """

    counts: tuple[int, ...]
    distinct: int

    def __post_init__(self):
        if any(b > a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-increasing")
        if self.distinct != sum(1 for c in self.counts if c > 0):
            raise ValueError("distinct must equal the number of nonzero counts")


def demand_stats(d: Demand, N: int) -> DemandStats:
    """Per-file request counts, sorted descending and zero-padded to length N."""
    d = validate_demand(d, N)
    counts = [0] * N
    for x in d:
        counts[x - 1] += 1
    counts.sort(reverse=True)
    return DemandStats(tuple(counts), sum(1 for c in counts if c > 0))


def enumerate_types(N: int, K: int) -> list[DemandStats]:
    """All demand types for N files and K users, largest-first.

    A type is a partition of K into at most N parts, zero-padded to length N.
    """
    if N < 1 or K < 1:
        raise ValueError("need N >= 1 and K >= 1")
    out: list[DemandStats] = []

    def extend(prefix: list[int], remaining: int, cap: int, slots: int):
        if remaining == 0:
            counts = tuple(prefix) + (0,) * (N - len(prefix))
            out.append(DemandStats(counts, len(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            if part * slots < remaining:
                break
            extend(prefix + [part], remaining - part, part, slots - 1)

    extend([], K, K, N)
    return out


def count_types(N: int, K: int) -> int:
    """`len(enumerate_types(N, K))` without building the list: partitions of K
    with no part above N (conjugates of those into at most N parts)."""
    if N < 1 or K < 1:
        raise ValueError("need N >= 1 and K >= 1")
    ways = [1] + [0] * K  # ways[n]: partitions of n into the part sizes seen so far
    for part in range(1, min(N, K) + 1):
        for n in range(part, K + 1):
            ways[n] += ways[n - part]
    return ways[K]


def all_demands(N: int, K: int) -> Iterable[tuple[int, ...]]:
    """Every demand in {1..N}^K, lexicographic order."""
    return itertools.product(range(1, N + 1), repeat=K)


def demand_at(index: int, N: int, K: int) -> tuple[int, ...]:
    """`list(all_demands(N, K))[index]` without enumerating: the K base-N
    digits of `index`, most significant first, each plus 1."""
    if not 0 <= index < N**K:
        raise ValueError(f"demand index must be in 0..{N**K - 1}, got {index}")
    digits = [0] * K
    for j in range(K - 1, -1, -1):
        index, digits[j] = divmod(index, N)
    return tuple(x + 1 for x in digits)


def demand_range(start: int, stop: int, N: int, K: int) -> np.ndarray:
    """`list(all_demands(N, K))[start:stop]` as an (n, K) array, built from
    the indices: each index's K base-N digits, most significant first, plus
    1. The indices are int64, so N^K must be below 2^63."""
    if N**K >= 2**63:
        raise ValueError(f"N^K = {N**K} demands do not fit int64 indices")
    if not 0 <= start <= stop <= N**K:
        raise ValueError(f"demand indices must satisfy 0 <= start <= stop <= {N**K}, got {start}..{stop}")
    return np.arange(start, stop)[:, None] // N ** np.arange(K - 1, -1, -1) % N + 1


def type_representative(stats: DemandStats) -> tuple[int, ...]:
    """The lexicographically first demand of a type: counts[0] requests of
    file 1, then counts[1] of file 2, and so on. In `enumerate_types` order
    these are the types' first appearances in `all_demands` order."""
    return tuple(f for f, c in enumerate(stats.counts, start=1) for _ in range(c))


@lru_cache(maxsize=8)
def ne_weights(N: int, K: int) -> tuple[tuple[int, int], ...]:
    """(e, N(N-1)...(N-e+1) * S(K, e)) for e in 1..min(N, K): the number of
    demands in {1..N}^K with exactly e distinct files, S(K, e) the Stirling
    numbers of the second kind (partitions of the K users into e requester
    groups, each given its own file in order). The counts sum to N^K. Kept
    for the last few (N, K), since the curves of one comparison share them."""
    if N < 1 or K < 1:
        raise ValueError("need N >= 1 and K >= 1")
    E = min(N, K)
    stirling = [1] + [0] * E  # S(n, e) for e = 0..E, from n = 0 up to K
    for _ in range(K):
        # S(n+1, e) = e * S(n, e) + S(n, e-1)
        stirling = [0] + [e * s + below for e, s, below in zip(range(1, E + 1), stirling[1:], stirling)]
    weights, falling = [], 1
    for e in range(1, E + 1):
        falling *= N - e + 1
        weights.append((e, falling * stirling[e]))
    return tuple(weights)


def expected_distinct(N: int, K: int) -> Fraction:
    """E[number of distinct requested files] under a uniform demand: each
    file is missed by all K users with probability ((N-1)/N)^K, so the mean
    is N * (1 - ((N-1)/N)^K) = (N^K - (N-1)^K) / N^(K-1)."""
    if N < 1 or K < 1:
        raise ValueError("need N >= 1 and K >= 1")
    return Fraction(N**K - (N - 1) ** K, N ** (K - 1))


# --- placement file format -------------------------------------------------
#
# Line-oriented text. Header: `K N F M` (M as an exact fraction string, e.g.
# "1" or "1/2"). Then one line per user k = 1..K: the user index followed by
# space-separated `file:bit` pairs, file 1-based, bit 0-based, sorted
# ascending. Every user line is present even when the cache is empty.


def save_placement(path, placement: Placement, N: int, F: int, M) -> None:
    lines = [f"{placement.K} {N} {F} {Fraction(M)}"]
    for k in range(1, placement.K + 1):
        pairs = " ".join(f"{i}:{j}" for i, j in placement.cached_pairs(k))
        lines.append(f"{k} {pairs}".rstrip())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class PlacementParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_placement_header(lines: list[str]) -> tuple[int, int, int, Fraction]:
    """The checked `K N F M` header of a placement file, from its first line
    (`lines` may hold that one alone)."""
    if not lines:
        raise PlacementParseError(1, "empty file")
    header = lines[0].split()
    if len(header) != 4:
        raise PlacementParseError(1, f"header must be 'K N F M', got {lines[0]!r}")
    try:
        K, N, F = (int(x) for x in header[:3])
        M = Fraction(header[3])
    except (ValueError, ZeroDivisionError) as exc:
        raise PlacementParseError(1, str(exc)) from None
    if K < 1 or N < 1 or F < 1 or not 0 <= M <= N:
        raise PlacementParseError(1, f"invalid parameters K={K} N={N} F={F} M={M}")
    return K, N, F, M


def load_placement(path) -> tuple[Placement, int, int, Fraction]:
    """Parse a placement file; returns (placement, N, F, M)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    K, N, F, M = parse_placement_header(lines)
    if len(lines) < 1 + K:
        raise PlacementParseError(len(lines), f"expected {K} user lines, got {len(lines) - 1}")
    codes = np.zeros((N, F), dtype=code_dtype(K))
    placement = Placement(K, codes)
    budget = math.floor(M * F)
    for offset, line in enumerate(lines[1 : 1 + K], start=2):
        tokens = line.split()
        if not tokens:
            raise PlacementParseError(offset, "missing user index")
        try:
            k = int(tokens[0])
        except ValueError:
            raise PlacementParseError(offset, f"bad user index {tokens[0]!r}") from None
        if k != offset - 1:
            raise PlacementParseError(offset, f"expected user {offset - 1}, got {k}")
        for tok in tokens[1:]:
            try:
                i_s, j_s = tok.split(":")
                i, j = int(i_s), int(j_s)
            except ValueError:
                raise PlacementParseError(offset, f"bad pair {tok!r}") from None
            if not (1 <= i <= N and 0 <= j < F):
                raise PlacementParseError(offset, f"pair {tok} out of range")
            codes[i - 1, j] |= 1 << (k - 1)
        if placement.cached_bits(k) > budget:
            raise PlacementParseError(offset, f"user {k} caches more than M*F = {budget} bits")
    for line_no, line in enumerate(lines[1 + K :], start=2 + K):
        if line.strip():
            raise PlacementParseError(line_no, f"unexpected line after the {K} user lines")
    codes.setflags(write=False)
    return placement, N, F, M
