"""Hot inner loops: exact balanced-cut search and 1-swap hill climbing.

Both run on numpy alone.  The exact search is Horowitz-Sahni split-and-list
over the two node halves, each size class scored by one float64 matrix
product (exact on integer weights).  The hill climber climbs every restart
of a graph in lockstep and scores, in int64, only the swaps of a step that
a per-node bound cannot rule out.  ``benchmarks/layered/run.py`` times both
solvers.

Cut-weight bookkeeping used throughout: with membership m (1 = side_s),
g[v] = sum_{j in S} w[v, j] and rowtot[v] = sum_j w[v, j], the cut weight is
sum_{v not in S} g[v] = rowtot . m - m^T w m; moving v into S changes the
weight by rowtot[v] - 2 g[v], moving it out by 2 g[v] - rowtot[v], and
swapping u in S with v outside changes it by
2 g[u] - 2 g[v] + 2 w[u, v] - rowtot[u] + rowtot[v] = 2 w[u, v] + c[u] - c[v]
with the per-node vector c = 2 g - rowtot.  This needs symmetric weights,
which `CutGraph` enforces.  The climber keeps c alone: a swap of u out and
v in adds 2 w[v] - 2 w[u] to it, two contiguous rows, which by symmetry
are the columns the formula names.

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

The bound: with top[u] the largest entry of row u of 2 w (computed once
per graph; by symmetry it also bounds column u), every swap of a step has
    delta(u, v) <= c[u] + top[u] - min_{S-bar} c.
The floor is the gain of one swap of the step, the one between
i = argmax_S c and j = argmin_{S-bar} c, so it never exceeds the step's
best gain (under first_improvement the floor is 1, the least positive
integer gain).  A step keeps the rows u of S whose bound reaches the floor
and scores each against every node v.  It is exact: every swap dropped
scores below the floor, so every maximiser (every positive gain under
first_improvement) lies in the kept rows, which keep ascending u and are
scored over ascending v, so their row-major first maximiser is the whole
|S| x |S-bar| block's.  On the benchmark's Hamming graphs a
best-improvement step keeps two or three rows of a restart.

Lockstep: c is an R x 2N stack, one row per restart still climbing, and
each step makes the same array calls for all of them: the argmax and
argmin of every row of c, the floors, the kept rows as one flat index of
(restart, u) pairs in order, their gains, each kept row's first maximum,
and each restart's first maximum over its consecutive kept rows
(`maximum.reduceat`, then the first row that attains it).  A restart
whose best gain is not positive stops and leaves the stack; the stack is
copied only then.  So a graph costs as many steps as its longest climb,
not the sum over its restarts, and a restart's weight, membership,
evaluation count and trace are those of a climb from its start alone.

Sentinels: membership is kept in c itself, which carries SENT = 2**61 on
side_s.  So the argmax of a row of c is the argmax over S, its argmin is
the argmin over S-bar, and c + top - SENT reaches a floor only on S.  The
step rows are 2 w - SENT off the diagonal and 2 w = 0 on it, so adding row
v and subtracting row u both update c and move v into S and u out of it.
A kept row u scored as (step row u) + c[u] - c gives the gain
2 w[u, v] + c[u] - c[v] at each v in S-bar, that gain less SENT at each
other v in S, and 0 at v = u, which is the row's maximum only when no gain
of the restart is positive, so that the restart stops all the same.  The
guard n^2 max|w| < 2**53 bounds every real c, 2 w, gain, floor and cut
weight below 2**53 in magnitude (and keeps exact the float64 product that
forms the first c), so a value that carries one or two SENT lies more than
2**60 from every real one, and none reaches 2**63 in magnitude.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "active_backend",
    "exact_max_balanced_cut",
    "hillclimb_stack",
    "hillclimb_sweep",
]


# SENT of the module docstring: c carries it on side_s, the step rows less it off the diagonal
_SENTINEL = 1 << 61


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
    """Best-improvement 1-swap local search from one balanced start.

    Scan order is (u ascending over side_s) x (v ascending over side_sbar);
    each step applies the first swap attaining the best positive gain (with
    `first_improvement`, the first positive one).  Returns (weight,
    membership, evaluations, trace), where trace lists the cut weight after
    each accepted swap and evaluations counts |S| |S-bar| per step, every
    swap the step's bound covers.  It is `hillclimb_stack` on a stack of
    one start, under the same conditions on `weights`.
    """
    return hillclimb_stack(weights, [membership], first_improvement)[0]


def hillclimb_stack(weights: np.ndarray, starts, first_improvement: bool = False):
    """`hillclimb_sweep` from each of several balanced starts on one graph,
    all climbed in lockstep (see the module docstring).

    Returns one (weight, membership, evaluations, trace) per start, in
    order, each exactly what a climb from that start alone gives.
    `weights` must be symmetric with a zero diagonal, as `CutGraph`
    enforces: the gain formula and the sentinels rely on it.  Raises
    ValueError for a start that is not a balanced 0/1 membership of the
    graph's nodes, or for weights past the guard n^2 max|w| < 2**53.
    """
    w = np.asarray(weights, dtype=np.int64)
    n = w.shape[0]
    in_s = np.array(starts, dtype=np.int64, ndmin=2)
    if in_s.shape[1:] != (n,) or np.any((in_s != 0) & (in_s != 1)) or np.any(2 * in_s.sum(axis=1) != n):
        raise ValueError(f"each start must be a balanced 0/1 membership of {n} nodes")
    if np.any(w.diagonal() != 0):
        raise ValueError("weights must have a zero diagonal")
    if n * n * max(int(w.max()), -int(w.min())) >= 2**53:
        raise ValueError("edge weights too large for exact swap gains")
    in_s = in_s.astype(bool)
    # g[r, v] = sum of w[v, j] over j in S_r, for every start at once: one
    # float64 product, exact because every partial sum is an integer below
    # the guard
    wf = w.astype(np.float64)
    g = in_s @ wf
    weight = g.sum(axis=1, where=~in_s).astype(np.int64)
    c = (2.0 * g - wf.sum(axis=1)).astype(np.int64)
    del wf, g
    c[in_s] += _SENTINEL
    # the step rows 2 w - SENT + SENT I, and the row maxima of 2 w less SENT
    rows = 2 * w
    top = rows.max(axis=1) - _SENTINEL
    rows -= _SENTINEL
    rows.flat[:: n + 1] += _SENTINEL
    flat_rows = rows.reshape(-1)
    live = np.arange(len(in_s))
    lanes = live * n
    row_offsets = np.arange(live.size * n) * n
    ends = [None] * live.size
    steps = []
    segments = [(live, steps)]  # the restarts live, and their weights after each step
    while True:
        base = lanes[: live.size]
        flat_c = c.reshape(-1)
        reach = c + top
        if first_improvement:
            # the least positive gain, past min_{S-bar} c; a restart with no
            # row that reaches it keeps its top row, whose gains are all
            # below 1, so that it stops as any other restart does
            need = np.minimum(c.min(axis=1) + 1, reach.max(axis=1))
        else:
            # 2 w[i, j] + c[i] with i = argmax_S c and j = argmin_{S-bar} c:
            # the gain of one swap of the step, past min_{S-bar} c; row i
            # always reaches it
            need = flat_rows.take(c.argmax(axis=1) * n + c.argmin(axis=1)) + c.max(axis=1)
        at = (reach >= need[:, None]).reshape(-1).nonzero()[0]
        restart, kept = np.divmod(at, n)
        firsts = at.searchsorted(base)
        # gains[k, v] = part[k, v] + c[u] = 2 w[u, v] + c[u] - c[v] for the
        # k-th kept row u; c[u] is the same along the row, so each row's
        # first maximum is taken on part
        part = rows.take(kept, axis=0)
        part -= c.take(restart, axis=0)
        c_u = flat_c.take(at)
        first_max = (part > -c_u[:, None] if first_improvement else part).argmax(axis=1)
        row_gain = part.reshape(-1).take(row_offsets[: at.size] + first_max) + c_u
        # each restart's first maximum over its rows, which are consecutive
        key = row_gain > 0 if first_improvement else row_gain
        best = np.maximum.reduceat(key, firsts)
        hits = (key == best.take(restart)).nonzero()[0]
        k = hits.take(hits.searchsorted(firsts))
        u = kept.take(k)
        v = first_max.take(k)
        gain = row_gain.take(k)
        if gain.min() <= 0:
            stop = gain <= 0
            for r in stop.nonzero()[0]:
                ends[live[r]] = (int(weight[r]), (c[r] > _SENTINEL // 2).astype(np.uint8))
            keep = ~stop
            live = live[keep]
            if not live.size:
                break
            c, weight, u, v, gain = c[keep], weight[keep], u[keep], v[keep], gain[keep]
            steps = []
            segments.append((live, steps))
        c += rows.take(v, axis=0)
        c -= rows.take(u, axis=0)
        weight = weight + gain  # a new array: steps keeps each one
        steps.append(weight)
    traces = [[] for _ in ends]
    for restarts, weights_after in segments:
        if weights_after:
            for r, trace in zip(restarts.tolist(), np.stack(weights_after, axis=1).tolist()):
                traces[r] += trace
    pairs = (n // 2) ** 2
    return [(w_end, m_end, pairs * (len(trace) + 1), trace) for (w_end, m_end), trace in zip(ends, traces)]
