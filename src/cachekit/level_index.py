"""The demand-free delivery index of a level partition, one `Level` per level.

Built once per partition from the sort `decentralized.level_partition` did,
so that encoding and decoding work a level at a time with numpy gathers
instead of a walk over the subsets.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np


class Level(NamedTuple):
    """The subsets one level of groups serves: the groups of j users and
    the (j+1)-subsets T = S + {x} of such a group S and a user x outside it.

    `members` is (n_T, j+1), T's users in send order (lexicographic), with
    `codes` their user-set codes and `ranks` their `SubsetId` ranks;
    `by_code` lists the rows in ascending code order and `sorted_codes`
    their codes, to find a subset's row by its code.
    `groups[T, c]` is the level's index of group T minus its c-th member,
    or G_j if that group is empty; the level has `slots` = G_j + 1 groups.
    A cell is file i's part of group g, numbered i * slots + g: `sizes` is
    each cell's bit count and `positions` is (N * slots, L_j), L_j the
    largest count, each cell's bits as indices i*(F+1) + bit into an
    (N, F + 1) array, padded with i*(F+1) + F, a column kept zero.
    `partners[c]` lists the columns of T other than c. Group indices, sizes
    and positions are int32 while N*(F+1) < 2^31, to keep the index small;
    the engine widens the positions it gathers through to intp (numpy
    gathers through int32 indices at about a third of the speed).
    """

    members: np.ndarray
    codes: np.ndarray
    ranks: np.ndarray
    by_code: np.ndarray
    sorted_codes: np.ndarray
    groups: np.ndarray
    slots: int
    sizes: np.ndarray
    positions: np.ndarray
    partners: np.ndarray

    def chunks(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For a stack of n demands (`wanted[s, x]` is user x's file row in
        demand s): the cell and the bit count of each member's chunk, both
        (n, n_T, j+1)."""
        cells = wanted[:, self.members] * self.slots + self.groups
        return cells, self.sizes[cells]

    def rows_of(self, codes: np.ndarray) -> np.ndarray:
        """The row of each user-set code, or -1 where no row has it."""
        at = np.minimum(np.searchsorted(self.sorted_codes, codes), len(self.codes) - 1)
        return np.where(self.sorted_codes[at] == codes, self.by_code[at], -1)


def _held(codes: np.ndarray, user_bits: np.ndarray) -> np.ndarray:
    """(len(codes), K) booleans: whether each user set holds each user."""
    held = np.empty((len(codes), len(user_bits)), dtype=bool)
    for k, bit in enumerate(user_bits):
        np.not_equal(codes & bit, 0, out=held[:, k])
    return held


def build_levels(partition) -> list[Level]:
    """The `Level`s of a `LevelPartition`, read from its sort: the codes
    present, ascending, each file's positions in code order, and each
    group's bit count and run start in each file."""
    K, N, F, codes, order = partition.K, partition.N, partition.F, partition.codes, partition.order
    sizes, starts = partition.sizes, partition.starts
    user_bits = np.array([1 << k for k in range(K)], dtype=codes.dtype)
    held = _held(codes, user_bits)
    # the all-users code is the largest, and its group serves no subset
    G = len(codes) - int(held[-1].all())
    codes, held, sizes, starts = codes[:G], held[:G], sizes[:, :G], starts[:, :G]
    level = held.sum(axis=1)
    counts = np.bincount(level, minlength=K)
    by_level = np.argsort(level, kind="stable")  # ascending codes within a level
    local = np.empty(G + 1, dtype=np.intp)  # each group's index in its level
    local[by_level] = np.arange(G) - np.repeat(np.cumsum(counts) - counts, counts)
    widest = sizes.max(axis=0, initial=0)
    width = np.array([widest[level == j].max(initial=0) for j in range(K)])
    extent = N * (counts + 1) * width  # each level's padded positions
    base = np.cumsum(extent) - extent

    small = np.int32 if N * (F + 1) < 2**31 else np.intp  # for positions, group indices and sizes
    positions = np.full(int(extent.sum()), F, dtype=small)
    head = base[level] + local[:G] * width[level]
    for i in range(N):
        # the bits of file i in code order, each at its group's row plus its
        # offset in the group's run: one scatter per file
        target = np.repeat(head + i * (counts[level] + 1) * width[level] - starts[i], sizes[i])
        target += np.arange(len(target))
        positions[target] = order[i, : len(target)]
    for j in counts.nonzero()[0]:  # then file i's, padding included, offset by i * (F + 1)
        positions[base[j] : base[j] + extent[j]].reshape(N, -1)[:] += (np.arange(N, dtype=small) * (F + 1))[:, None]

    size, subsets, ranks, members, groups = _subsets(K, codes, held, user_bits)
    levels, rows, pairs = [], 0, 0
    for j in counts.nonzero()[0].tolist():
        n = int(np.count_nonzero(size == j + 1))
        at = slice(pairs, pairs + n * (j + 1))
        by_code = np.argsort(subsets[rows : rows + n], kind="stable")
        local[G] = counts[j]  # an empty group: the level's zero-size sentinel
        sized = np.zeros((N, counts[j] + 1), dtype=small)
        sized[:, :-1] = sizes[:, by_level[level[by_level] == j]]
        levels.append(Level(
            members[at].reshape(n, j + 1),
            subsets[rows : rows + n],
            ranks[rows : rows + n],
            by_code,
            subsets[rows : rows + n][by_code],
            local[groups[at]].reshape(n, j + 1).astype(small),
            int(counts[j]) + 1,
            sized.reshape(-1),
            positions[base[j] : base[j] + extent[j]].reshape(-1, width[j]),
            np.array([[x for x in range(j + 1) if x != c] for c in range(j + 1)], dtype=np.intp).reshape(j + 1, j),
        ))
        rows, pairs = rows + n, pairs + n * (j + 1)
    return levels


def _subsets(K: int, codes, held, user_bits):
    """Every subset T = S + {x} of a group S (codes ascending) and a user x
    outside S, in send order (by size, then lexicographic): each T's size,
    code and `SubsetId` rank, then for each member of each T, in T's order,
    the member and the group T minus it (len(codes) if that group is empty)."""
    g, x = np.nonzero(~held)
    candidates = np.sort(codes[g] | user_bits[x])
    fresh = np.ones(len(candidates), dtype=bool)
    fresh[1:] = candidates[1:] != candidates[:-1]
    subsets = candidates[fresh]
    row, user = np.nonzero(_held(subsets, user_bits))  # users ascending within T
    size = np.bincount(row, minlength=len(subsets))
    first = np.cumsum(size) - size
    # T's rank counts down from C(K, |T|) - 1 the same-size subsets after T:
    # C(K - x, |T| - c) of them for its member x (user + 1) at column c
    binom = np.array([[comb(n, r) for r in range(K + 1)] for n in range(K + 1)],
                     dtype=np.int64 if comb(K, K // 2) < 2**63 else object)
    column = np.arange(len(row)) - first[row]
    after = np.concatenate(([0], np.cumsum(binom[K - 1 - user, size[row] - column])))
    ranks = binom[K, size] - 1 - (after[first + size] - after[first])
    rest = subsets[row] ^ user_bits[user]
    found = np.searchsorted(codes, rest)
    found[codes[np.minimum(found, len(codes) - 1)] != rest] = len(codes)
    send = np.argsort(ranks, kind="stable")
    send = send[np.argsort(size[send], kind="stable")]
    ordered = size[send]
    pair = np.repeat(first[send] - (np.cumsum(ordered) - ordered), ordered) + np.arange(len(row))
    return ordered, subsets[send], ranks[send], (user[pair] + 1).astype(np.min_scalar_type(K)), found[pair]
