"""Hot inner loops: exact balanced-cut search and 1-swap hill climbing.

Both run on numpy alone.  The exact search is Horowitz-Sahni split-and-list
over the two node halves, each size class scored by one float64 matrix
product (exact on integer weights).  The hill climber scores, in int64,
only the swaps of a step that a per-node bound cannot rule out.
``benchmarks/layered/run.py`` times both solvers.

Cut-weight bookkeeping used throughout: with membership m (1 = side_s),
g[v] = sum_{j in S} w[v, j] and rowtot[v] = sum_j w[v, j], the cut weight is
sum_{v not in S} g[v] = rowtot . m - m^T w m; moving v into S changes the
weight by rowtot[v] - 2 g[v], moving it out by 2 g[v] - rowtot[v], and
swapping u in S with v outside changes it by
2 g[u] - 2 g[v] + 2 w[u, v] - rowtot[u] + rowtot[v] = 2 w[u, v] + c[u] - c[v]
with the per-node vector c = 2 g - rowtot.  This needs symmetric weights,
which `CutGraph` enforces.  The climber keeps c alone (a swap of u out and
v in adds 2 w[:, v] - 2 w[:, u] to it).

The exact search: with A = {0..N-1} and B = {N..2N-1}, a cut with halves
m_A, m_B weighs f_A(m_A) + f_B(m_B) - 2 m_A W_AB m_B, where
f_X(m) = m^T (diag(r_X) - W_XX) m and r is the row totals.  `_tables`
caches, per half size, every A-membership holding node 0 and every
B-membership, one column each, grouped by size class s = |side_s & A|.
Each call builds the columns
    a = [-2 W_AB^T m_A; f_A(m_A); 1]    and    b = [m_B; 1; f_B(m_B)]
once, so a . b is the cut's weight, and scores class s as one product of
the two tables' column slices for s, written into one buffer reused by
every class.
One argmax per class finds its top and its row-major first maximiser,
which is the lex-least side_s of the class; a class whose top beats no
earlier one is skipped, else the scores equal to the top are counted for
the tie flag.  Every term and partial sum is an integer at most
2 n^2 max|w| (n = 2N), so the guard 4 n^2 max|w| < 2**53 keeps every
score exact in any summation order.

The bound: with row_top[a] and col_top[a] the largest entry of row a and
of column a of 2 w (computed once per graph), every swap of a step has
    delta(u, v) <= c[u] + row_top[u] - min_{S-bar} c
    delta(u, v) <= max_S c - c[v] + col_top[v].
The floor is the gain of one swap of the step, the one between argmax_S c
and argmin_{S-bar} c, so it never exceeds the step's best gain (under
first_improvement the floor is 1, the least positive integer gain).  A
step keeps the rows u whose first bound reaches the floor and the columns
v whose second bound does, and scores that sub-block only: from the
precomputed 2 w with two contiguous `take`s, one per axis (several times
cheaper than `np.ix_` fancy indexing), then adding c[u] and subtracting
c[v] in place.  It is exact: every swap dropped scores below the floor, so
every maximiser (every positive gain under first_improvement) lies in the
sub-block, and the sub-block keeps the (u ascending, v ascending) order,
so its row-major first maximiser is the whole block's.  On the
benchmark's Hamming graphs a best-improvement step keeps about 0.1% of
the block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "active_backend",
    "exact_max_balanced_cut",
    "hillclimb_sweep",
]


def active_backend() -> str:
    """Name of the array backend the kernels run on: always "numpy".  Kept
    only because benchmarks/layered records it; ROADMAP item 1 deletes it."""
    return "numpy"


@lru_cache(maxsize=None)
def _tables(half: int):
    """Subset tables of one node half, built on first use and cached.

    Returns (m_a, m_b, classes).  m_a stacks, for s = 1..half in turn, the
    memberships of the s-subsets of range(half) that hold node 0; m_b
    stacks the (half - s)-subsets.  Each table is float64 0/1 with one
    column per subset, each class in lexicographic order of its subsets'
    index tuples; classes[s - 1] is the pair of column slices (of m_a, of
    m_b) for class s.  Both tables are read-only, so no caller can corrupt
    the cache.
    """
    a_sets, b_sets, classes = [], [], []
    for s in range(1, half + 1):
        a = [(0, *rest) for rest in combinations(range(1, half), s - 1)]
        b = list(combinations(range(half), half - s))
        classes.append((slice(len(a_sets), len(a_sets) + len(a)), slice(len(b_sets), len(b_sets) + len(b))))
        a_sets += a
        b_sets += b
    tables = []
    for sets in (a_sets, b_sets):
        table = np.zeros((half, len(sets)))
        for col, members in enumerate(sets):
            table[members, col] = 1.0
        table.flags.writeable = False
        tables.append(table)
    return tables[0], tables[1], tuple(classes)


def exact_max_balanced_cut(weights: np.ndarray):
    """Maximum-weight canonical balanced cut by split-and-list.

    Nodes split into A = {0..N-1} (node 0 always on side_s) and
    B = {N..2N-1}.  For each count s = |side_s & A|, every cut of the class
    is scored at once as f_A(m_A) + f_B(m_B) - 2 m_A W_AB m_B^T by one
    matrix product of augmented subset tables (see the module docstring).
    Weights are integers and every partial sum stays below 2**53, so the
    float64 scores are exact.

    Returns (best_weight, membership uint8[n], tie, evaluations); ties keep
    the lexicographically smallest side_s index tuple and set `tie`, and
    evaluations counts every cut scored, C(2N-1, N-1).
    """
    w = np.asarray(weights, dtype=np.int64)
    n = w.shape[0]
    if n < 2 or n % 2:
        raise ValueError(f"a balanced cut needs an even, positive node count, got {n}")
    if 4 * n * n * int(np.abs(w).max()) >= 2**53:
        raise ValueError("edge weights too large for exact float64 cut scores")
    half = n // 2
    m_a, m_b, classes = _tables(half)
    wf = w.astype(np.float64)
    r = wf.sum(axis=1)
    # columns [-2 W_AB^T m_A; f_A; 1] and [m_B; 1; f_B]: each pair's dot
    # product is the cut's weight
    a_aug = np.empty((half + 2, m_a.shape[1]))
    b_aug = np.empty((half + 2, m_b.shape[1]))
    np.matmul(-2.0 * wf[:half, half:].T, m_a, out=a_aug[:half])
    b_aug[:half] = m_b
    a_aug[half + 1] = 1.0
    b_aug[half] = 1.0
    for m, aug, row, x in ((m_a, a_aug, half, slice(0, half)), (m_b, b_aug, half + 1, slice(half, n))):
        q = (np.diag(r[x]) - wf[x, x]) @ m
        q *= m
        aug[row] = q.sum(axis=0)
    # one buffer for every class's scores: fresh pages for each block cost
    # more than the product itself
    buf = np.empty(max((ra.stop - ra.start) * (rb.stop - rb.start) for ra, rb in classes))

    def side(at):
        return tuple(np.flatnonzero(m_a[:, at[0]]).tolist()) + tuple((half + np.flatnonzero(m_b[:, at[1]])).tolist())

    best_w, best_at, winners, evals = None, None, 0, 0
    for cols_a, cols_b in classes:
        width = cols_b.stop - cols_b.start
        flat = buf[: (cols_a.stop - cols_a.start) * width]
        np.matmul(a_aug[:, cols_a].T, b_aug[:, cols_b], out=flat.reshape(-1, width))
        evals += flat.size
        # row-major first maximiser: lex-least side_s among this s; every
        # score before it is lower
        top_at = int(np.argmax(flat))
        top = flat[top_at]
        if best_w is not None and top < best_w:
            continue
        hits = int(np.count_nonzero(flat[top_at:] == top))
        at = (cols_a.start + top_at // width, cols_b.start + top_at % width)
        if best_w is None or top > best_w:
            best_w, best_at, winners = top, at, hits
        else:
            best_at, winners = min(best_at, at, key=side), winners + hits
    membership = np.zeros(n, dtype=np.uint8)
    membership[list(side(best_at))] = 1
    return int(best_w), membership, winners > 1, evals


def hillclimb_sweep(weights: np.ndarray, membership: np.ndarray, first_improvement: bool = False):
    """Best-improvement 1-swap local search from a balanced start.

    Scan order is (u ascending over side_s) x (v ascending over side_sbar);
    each step applies the first swap attaining the best positive gain (with
    `first_improvement`, the first positive one).  Returns (weight,
    membership, evaluations, trace), where trace lists the cut weight after
    each accepted swap.  `weights` must be symmetric, as `CutGraph`
    enforces: the gain formula in the module docstring relies on it.

    Each step scores only the rows and columns whose bound reaches the
    step's floor (see the module docstring); every swap left out scores
    below the floor, so the swap taken is the one a scan of the whole
    |S| x |S-bar| block takes.  `evaluations` still counts |S| |S-bar|
    per step, since the bound covers every swap of the step.

    Restarts on one graph share its graph-only terms: `solve_hillclimb`
    makes them once with `_climb_terms` and calls `_climb` per restart.
    """
    return _climb(_climb_terms(weights), membership, first_improvement)


def _climb_terms(weights: np.ndarray):
    """The graph-only terms of a climb, shared by every restart on one graph:
    (w, 2 w, row maxima of 2 w, column maxima of 2 w, row totals of w)."""
    w = np.asarray(weights, dtype=np.int64)
    w2 = 2 * w
    return w, w2, w2.max(axis=1), w2.max(axis=0), w.sum(axis=1)


def _climb(terms, membership: np.ndarray, first_improvement: bool):
    """`hillclimb_sweep` on the terms `_climb_terms` made for its weights."""
    w, w2, row_top, col_top, rowtot = terms
    in_s = np.asarray(membership).astype(bool)
    g = w[:, in_s].sum(axis=1)
    weight = int(g[~in_s].sum())
    c = 2 * g - rowtot
    evals = 0
    trace: list[int] = []
    while True:
        s_idx = in_s.nonzero()[0]
        sbar_idx = (~in_s).nonzero()[0]
        evals += s_idx.size * sbar_idx.size
        c_s = c[s_idx]
        c_sbar = c[sbar_idx]
        i = c_s.argmax()
        j = c_sbar.argmin()
        hi = c_s[i]
        lo = c_sbar[j]
        # the gain of one swap of the step, so no more than the step's best
        floor = 1 if first_improvement else w2[s_idx[i], sbar_idx[j]] + hi - lo
        rows = s_idx[c_s + row_top[s_idx] >= floor + lo]
        cols = sbar_idx[col_top[sbar_idx] - c_sbar >= floor - hi]
        if rows.size == 0 or cols.size == 0:  # only under first_improvement
            break
        # delta[u, v] = 2 w[u, v] + c[u] - c[v] for swapping u (side_s) with v (side_sbar)
        delta = w2.take(rows, axis=0).take(cols, axis=1)
        delta += c[rows][:, None]
        delta -= c[cols]
        # row-major first maximum of the gains, or of (gain > 0) under first_improvement
        ui, vi = divmod(int(np.argmax(delta > 0 if first_improvement else delta)), delta.shape[1])
        if delta[ui, vi] <= 0:
            break
        u, v = int(rows[ui]), int(cols[vi])
        in_s[u] = False
        in_s[v] = True
        c += w2[:, v]
        c -= w2[:, u]
        weight += int(delta[ui, vi])
        trace.append(weight)
    return weight, in_s.astype(np.uint8), evals, trace

