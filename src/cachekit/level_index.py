"""The demand-free delivery index of a level partition, one `Level` per level.

Built once per partition from the sort `decentralized.level_partition` did,
so that encoding and decoding work a level at a time with numpy gathers
instead of a walk over the subsets. The build itself goes a level at a
time: a level's subsets T = S + {x} come from its own groups S alone, and
so does each group T minus a member, so its temporaries are bounded by the
largest level.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Level(NamedTuple):
    """The subsets one level of groups serves: the groups of j users and
    the (j+1)-subsets T = S + {x} of such a group S and a user x outside it.

    `members` is (n_T, j+1), T's users in send order (lexicographic), with
    `codes` their user-set codes; `by_code` lists the rows in ascending code
    order and `sorted_codes` their codes, to find a subset's row by its code.
    `groups[c, T]` is the level's index of group T minus its c-th member,
    or G_j if that group is empty; the level has `slots` = G_j + 1 groups.
    A cell is file i's part of group g, numbered i * slots + g: `sizes` is
    each cell's bit count and `positions` is (N * slots, L_j), L_j the
    largest count, each cell's bits as indices i*(F+1) + bit into an
    (N, F + 1) array, padded with i*(F+1) + F, a column kept zero.
    `partners[:, c]` lists the columns of T other than c. Group indices,
    sizes and positions are int32 while N*(F+1) < 2^31, to keep the index
    small. The engine gathers rows of them with `take`, and widens the
    positions it gathers bits through to intp before using them as an
    index: numpy's own widening inside a `take` or a scatter is slower than
    an `astype` and an intp gather (about 1.25 times at 10^5 positions).
    """

    members: np.ndarray
    codes: np.ndarray
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
        (j+1, n, n_T), member-major so that a reduction over a row's members
        runs over the leading axis."""
        n, (n_T, m) = len(wanted), self.members.shape
        cells = np.empty((m, n, n_T), dtype=np.intp)
        np.multiply(wanted.take(self.members.T, axis=1).transpose(1, 0, 2), self.slots, out=cells)
        cells += self.groups[:, None, :]
        return cells, self.sizes.take(cells)

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
    group's bit count and run start in each file. Each level's subsets,
    their send order and their groups are built from its own groups."""
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
    first = np.cumsum(counts) - counts
    local = np.empty(G, dtype=np.intp)  # each group's index in its level
    local[by_level] = np.arange(G) - np.repeat(first, counts)
    widest = sizes.max(axis=0, initial=0)
    width = np.array([widest[level == j].max(initial=0) for j in range(K)])
    extent = N * (counts + 1) * width  # each level's padded positions
    base = np.cumsum(extent) - extent

    small = np.int32 if N * (F + 1) < 2**31 else np.intp  # for positions, group indices and sizes
    positions = np.full(int(extent.sum()), F, dtype=small)
    head = base[level] + local * width[level]
    for i in range(N):
        # the bits of file i in code order, each at its group's row plus its
        # offset in the group's run: one scatter per file
        target = np.repeat(head + i * (counts[level] + 1) * width[level] - starts[i], sizes[i])
        target += np.arange(len(target))
        positions[target] = order[i, : len(target)]
    for j in counts.nonzero()[0]:  # then file i's, padding included, offset by i * (F + 1)
        positions[base[j] : base[j] + extent[j]].reshape(N, -1)[:] += (np.arange(N, dtype=small) * (F + 1))[:, None]

    levels = []
    for j in counts.nonzero()[0].tolist():
        ids = by_level[first[j] : first[j] + counts[j]]
        own = codes[ids]  # the level's groups, ascending
        # its subsets T: each group g plus one user x outside it, ascending
        # and once each. T minus x is g, so g is T's group at x's column, the
        # count of g's users below x; a member y with no group T minus y
        # keeps G_j, the empty group
        own_held = held[ids]
        g, x = np.nonzero(~own_held)
        candidates = own[g] | user_bits[x]
        by = np.argsort(candidates, kind="stable")
        fresh = np.ones(len(by), dtype=bool)
        fresh[1:] = candidates[by[1:]] != candidates[by[:-1]]
        subsets, row = candidates[by[fresh]], np.cumsum(fresh) - 1
        column = np.cumsum(own_held, axis=1).take(g * K + x).take(by)
        groups = np.full((j + 1, len(subsets)), counts[j], dtype=small)
        groups[column, row] = g.take(by)
        # T's users ascending: those of its first pair's group, and x at its column
        pair = by[fresh]
        at_x = np.zeros((len(subsets), j + 1), dtype=bool)
        at_x[np.arange(len(subsets)), column[fresh]] = True
        members = np.empty(at_x.shape, dtype=np.min_scalar_type(K))
        members[at_x] = x.take(pair) + 1
        members[~at_x] = (np.flatnonzero(own_held) % K + 1).reshape(len(own), j)[g.take(pair)].reshape(-1)
        send = np.lexsort(members.T[::-1])  # lexicographic: column 0 first
        by_code = np.empty_like(send)
        by_code[send] = np.arange(len(send))
        sized = np.zeros((N, counts[j] + 1), dtype=small)
        sized[:, :-1] = sizes[:, ids]
        levels.append(Level(
            members[send],
            subsets[send],
            by_code,
            subsets,
            groups.take(send, axis=1),
            int(counts[j]) + 1,
            sized.reshape(-1),
            positions[base[j] : base[j] + extent[j]].reshape(-1, width[j]),
            np.arange(j)[:, None] + (np.arange(j)[:, None] >= np.arange(j + 1)),  # k, or k + 1 from column c on
        ))
    return levels
