"""Independent reference implementations used as ground truth by the tests.

Everything here is deliberately naive (bitmask loops, double sums) and
written separately from the production code paths it checks.
"""

import math
from itertools import combinations

import numpy as np

from mixcut.graph import BalancedCut, CutGraph


def score_brute(x, y):
    total = 0
    for a, b in zip(x, y):
        total += int(a) * int(b)
    return total


def cut_weight_brute(weights, side_s):
    inside = set(side_s)
    n = len(weights)
    total = 0
    for i in inside:
        for j in range(n):
            if j not in inside:
                total += int(weights[i][j])
    return total


def _balanced_masks(n):
    half = n // 2
    for mask in range(1, 1 << n, 2):  # bit 0 set: canonical representative
        if bin(mask).count("1") == half:
            yield tuple(i for i in range(n) if mask >> i & 1)


def naive_extreme_balanced_cut(weights, maximize=True):
    """Brute-force optimal balanced cut via a bitmask sweep.

    Returns (weight, side_s tuple, tie); ties resolved to the
    lexicographically smallest side_s tuple.
    """
    n = len(weights)
    scored = [(cut_weight_brute(weights, s), s) for s in _balanced_masks(n)]
    best = max(w for w, _ in scored) if maximize else min(w for w, _ in scored)
    winners = sorted(s for w, s in scored if w == best)
    return best, winners[0], len(winners) > 1


def naive_hillclimb(weights, membership, first_improvement=False):
    """1-swap local search that rescores every swap from scratch.

    Each step loops u over side_s and v over side_sbar, both ascending, and
    applies the first swap of the largest positive gain (with
    `first_improvement`, the first positive one).  Every pair scored counts
    as an evaluation.  Returns (weight, membership, evaluations, trace),
    where trace lists the cut weight after each accepted swap.
    """
    n = len(weights)
    inside = {i for i in range(n) if membership[i]}
    weight = cut_weight_brute(weights, inside)
    evals = 0
    trace = []
    while True:
        chosen = None  # (gain, u, v)
        for u in sorted(inside):
            for v in (j for j in range(n) if j not in inside):
                evals += 1
                gain = cut_weight_brute(weights, (inside - {u}) | {v}) - weight
                if gain <= 0:
                    continue
                if chosen is None or (not first_improvement and gain > chosen[0]):
                    chosen = (gain, u, v)
        if chosen is None:
            break
        gain, u, v = chosen
        inside = (inside - {u}) | {v}
        weight += gain
        trace.append(weight)
    return weight, [int(i in inside) for i in range(n)], evals, trace


def full_scan_hillclimb(weights: np.ndarray, membership: np.ndarray, first_improvement: bool = False):
    """Best-improvement 1-swap local search from a balanced start.

    Scan order is (u ascending over side_s) x (v ascending over side_sbar);
    each step applies the first swap attaining the best positive gain (with
    `first_improvement`, the first positive one).  Returns (weight,
    membership, evaluations, trace), where trace lists the cut weight after
    each accepted swap.
    """
    w = np.asarray(weights, dtype=np.int64)
    w2 = 2 * w
    in_s = np.asarray(membership).astype(bool)
    g = w[:, in_s].sum(axis=1)
    weight = int(g[~in_s].sum())
    c = 2 * g - w.sum(axis=1)
    evals = 0
    trace: list[int] = []
    while True:
        s_idx = np.flatnonzero(in_s)
        sbar_idx = np.flatnonzero(~in_s)
        # delta[u, v] = 2 w[u, v] + c[u] - c[v] for swapping u (side_s) with v (side_sbar)
        delta = w2.take(s_idx, axis=0).take(sbar_idx, axis=1)
        delta += c[s_idx][:, None]
        delta -= c[sbar_idx]
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
        c += w2[:, v]
        c -= w2[:, u]
        weight += int(delta[ui, vi])
        trace.append(weight)
    return weight, in_s.astype(np.uint8), evals, trace


def svd_split(bits):
    """Spectral split taken from a thin SVD of the column-centred bits.

    Returns (side_s, margin): the N nodes with the largest entries of the
    leading left singular vector (stable order on equal entries), and the
    gap |lead[N-1] - lead[N]| between the N-th and (N+1)-th entries in that
    order.  A sign flip of the vector only mirrors the split unless the
    margin is zero.
    """
    x = np.asarray(bits, dtype=np.float64)
    lead = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)[0][:, 0]
    order = np.argsort(-lead, kind="stable")
    half = len(lead) // 2
    return sorted(order[:half].tolist()), abs(lead[order[half - 1]] - lead[order[half]])


def score_graph(dataset):
    """The dataset's score graph: <x, y> for every pair of rows, from one
    int64 product, with the diagonal zeroed."""
    bits = dataset.bits.astype(np.int64)
    weights = bits @ bits.T
    np.fill_diagonal(weights, 0)
    return CutGraph(weights=weights)


def four_term_diff(weights, ref_side_s, other_side_s, n_nodes):
    """Sum of the cut definition's four edge groups between swapped and
    unswapped nodes: the explicit form of the cut-score difference."""
    ref = set(ref_side_s)
    oth = set(other_side_s)
    kept_s = ref & oth
    moved_out = ref - oth  # left the reference side_s
    moved_in = oth - ref   # joined it
    kept_sbar = set(range(n_nodes)) - ref - moved_in
    total = 0
    for v in moved_in:
        for y in kept_sbar:
            total += int(weights[v][y])
        for x in kept_s:
            total -= int(weights[v][x])
    for u in moved_out:
        for x in kept_s:
            total += int(weights[u][x])
        for y in kept_sbar:
            total -= int(weights[u][y])
    return total


def oneshot_bernoulli(rng, lead, p):
    """Bernoulli bits of shape lead + p.shape from one call to `rng.random`:
    bit [..., j] is set with probability p[j]."""
    return rng.random(lead + p.shape) < p


def oneshot_imbalance_deviations(rng, m, p1, p2, l):
    """|t_k| swap-imbalance deviations of m draws, as one m x K float64
    array: the column counts u and v of two groups of L rows, drawn one
    after the other by `oneshot_bernoulli`, give |u - v - L (p1 - p2)| /
    sqrt(L)."""
    u = oneshot_bernoulli(rng, (m,), np.broadcast_to(p1, (l, p1.size))).sum(axis=1)
    v = oneshot_bernoulli(rng, (m,), np.broadcast_to(p2, (l, p2.size))).sum(axis=1)
    dev = np.subtract(u, v, dtype=np.float64) - l * (p1 - p2)
    return np.abs(dev) / math.sqrt(l)


def random_model(rng, k):
    from mixcut.model import MixtureModel

    return MixtureModel(p1=rng.random(k), p2=rng.random(k))


def random_instance(rng, n_per_side, k_lo=4, k_hi=24):
    """Random (model, dataset) pair for oracle comparisons."""
    from mixcut.model import sample

    k = int(rng.integers(k_lo, k_hi + 1))
    model = random_model(rng, k)
    seed = int(rng.integers(0, 2**63 - 1))
    return model, sample(model, n_per_side, seed)


def all_balanced_cuts(n_nodes: int):
    """Every canonical balanced cut, in lexicographic order of the side_s
    index tuple (node 0 plus an (N-1)-subset of {1..2N-1})."""
    half = n_nodes // 2
    if 2 * half != n_nodes:
        raise ValueError("n_nodes must be even")
    for rest in combinations(range(1, n_nodes), half - 1):
        yield BalancedCut.from_side((0,) + rest, n_nodes)
