"""Hot inner loops: exact balanced-cut search and 1-swap hill climbing.

Both run on numpy alone.  The exact search is Horowitz-Sahni split-and-list
over the two node halves, scored with dense float64 matrix products (exact
on integer weights).  The hill climber scores every swap of a step with one
vectorised expression.  ``benchmarks/layered/run.py`` times both solvers.

Cut-weight bookkeeping used throughout: with membership m (1 = side_s),
g[v] = sum_{j in S} w[v, j] and rowtot[v] = sum_j w[v, j], the cut weight is
sum_{v not in S} g[v] = rowtot . m - m^T w m; moving v into S changes the
weight by rowtot[v] - 2 g[v], moving it out by 2 g[v] - rowtot[v], and
swapping u in S with v outside changes it by
2 g[u] - 2 g[v] + 2 w[u, v] - rowtot[u] + rowtot[v].
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "active_backend",
    "exact_max_balanced_cut",
    "hillclimb_sweep",
]


def active_backend() -> str:
    """Name of the array backend the kernels run on (recorded by benchmarks)."""
    return "numpy"


@lru_cache(maxsize=None)
def _subsets(size: int, pick: int) -> np.ndarray:
    """Memberships of every pick-subset of range(size), one float64 row each,
    in lexicographic order of the subsets' index tuples (read-only)."""
    rows = math.comb(size, pick)
    idx = np.array(list(combinations(range(size), pick)), dtype=np.intp).reshape(rows, pick)
    table = np.zeros((rows, size))
    np.put_along_axis(table, idx, 1.0, axis=1)
    table.flags.writeable = False
    return table


def _side_weights(m: np.ndarray, w_xx: np.ndarray, r_x: np.ndarray) -> np.ndarray:
    """f_X(m) = r_X . m - m^T W_XX m for every row m of a membership table."""
    return m @ r_x - ((m @ w_xx) * m).sum(axis=1)


def exact_max_balanced_cut(weights: np.ndarray):
    """Maximum-weight canonical balanced cut by split-and-list.

    Nodes split into A = {0..N-1} (node 0 always on side_s) and
    B = {N..2N-1}.  For each count s = |side_s & A|, every cut is scored at
    once as f_A(m_A) + f_B(m_B) - 2 m_A W_AB m_B^T, with matrix products over
    the subset tables of the two halves.  Weights are integers and every
    term stays below 2**53, so the float64 scores are exact.

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
    wf = w.astype(np.float64)
    r = wf.sum(axis=1)
    a, b = slice(0, half), slice(half, n)
    best_w, best_side, winners, evals = None, None, 0, 0
    for s in range(1, half + 1):
        # the subsets holding node 0 are the first C(N-1, s-1) rows
        m_a = _subsets(half, s)[: math.comb(half - 1, s - 1)]
        m_b = _subsets(half, half - s)
        scores = (
            _side_weights(m_a, wf[a, a], r[a])[:, None]
            + _side_weights(m_b, wf[b, b], r[b])
            - 2.0 * (m_a @ wf[a, b] @ m_b.T)
        )
        evals += scores.size
        top = scores.max()
        if best_w is not None and top < best_w:
            continue
        # row-major first maximiser: lex-least side_s among this s
        i, j = divmod(int(np.argmax(scores)), scores.shape[1])
        side = tuple(np.flatnonzero(m_a[i]).tolist()) + tuple((half + np.flatnonzero(m_b[j])).tolist())
        hits = int(np.count_nonzero(scores == top))
        if best_w is None or top > best_w:
            best_w, best_side, winners = top, side, hits
        else:
            best_side, winners = min(best_side, side), winners + hits
    membership = np.zeros(n, dtype=np.uint8)
    membership[list(best_side)] = 1
    return int(best_w), membership, winners > 1, evals


def hillclimb_sweep(weights: np.ndarray, membership: np.ndarray, first_improvement: bool = False):
    """Best-improvement 1-swap local search from a balanced start.

    Scan order is (u ascending over side_s) x (v ascending over side_sbar);
    each step applies the first swap attaining the best positive gain (with
    `first_improvement`, the first positive one).  Returns (weight,
    membership, evaluations, trace), where trace lists the cut weight after
    each accepted swap.
    """
    w = np.asarray(weights, dtype=np.int64)
    rowtot = w.sum(axis=1)
    in_s = np.asarray(membership).astype(bool)
    g = w[:, in_s].sum(axis=1)
    weight = int(g[~in_s].sum())
    evals = 0
    trace: list[int] = []
    while True:
        s_idx = np.flatnonzero(in_s)
        sbar_idx = np.flatnonzero(~in_s)
        # delta[u, v] for swapping u (side_s) with v (side_sbar)
        delta = (
            (2 * g[s_idx] - rowtot[s_idx])[:, None]
            + (rowtot[sbar_idx] - 2 * g[sbar_idx])[None, :]
            + 2 * w[np.ix_(s_idx, sbar_idx)]
        )
        evals += delta.size
        if first_improvement:
            pos = np.argwhere(delta > 0)
            if pos.size == 0:
                break
            ui, vi = pos[0]
        else:
            ui, vi = divmod(int(np.argmax(delta)), delta.shape[1])
            if delta[ui, vi] <= 0:
                break
        u, v = int(s_idx[ui]), int(sbar_idx[vi])
        in_s[u] = False
        in_s[v] = True
        g = g + w[:, v] - w[:, u]
        weight += int(delta[ui, vi])
        trace.append(weight)
    return weight, in_s.astype(np.uint8), evals, trace


def n_balanced_cuts(n_nodes: int) -> int:
    return math.comb(n_nodes - 1, n_nodes // 2 - 1)
