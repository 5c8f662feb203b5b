"""Balanced-cut solvers (exact, hill climbing, spectral) and the one
solve-and-judge path that every trial goes through.

The exact solver scores every canonical balanced cut (node 0 fixed on
side_s) by split-and-list over the two node halves and is the ground truth
at desk scale; C(2N-1, N-1) cuts, capped by default at 2N = 24 nodes
(~1.35M cuts).  The hill climber applies best-improving 1-swaps (one node
each way, balance preserved) from random balanced starts.  The spectral
baseline centers the bit matrix by its global column means and splits the
nodes on the leading left singular vector:
centering removes the all-samples mean direction, which otherwise occupies
the top of the uncentered spectrum, so the between-population axis is the
leading direction of the centered matrix.  It takes that vector as the top
eigenvector of the 2N x 2N centered Gram matrix rather than from an SVD of
the 2N x K matrix, and weighs its cut with `graph.score_cut_weight`,
without building the graph.

`solve` dispatches on the method name and, under the score metric, has
exact and hillclimb seek the minimum-score cut; `judge` scores a result
against the hidden partition under the strict success rule: the cut must
equal the partition and no other cut may tie its weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .graph import BalancedCut, CutGraph, Metric, cut_weight, score_cut_weight, swap_count, true_partition
from .model import Dataset, philox

__all__ = [
    "SolveResult",
    "EnumerationCapError",
    "DegenerateInstanceError",
    "DEFAULT_ENUMERATION_CAP",
    "solve_exact",
    "solve_hillclimb",
    "solve_spectral",
    "solve",
    "judge",
]

DEFAULT_ENUMERATION_CAP = 24


class EnumerationCapError(ValueError):
    """Instance exceeds the exact-enumeration node cap."""


class DegenerateInstanceError(ValueError):
    """Input admits no meaningful separation (e.g. all rows identical)."""


@dataclass(frozen=True)
class SolveResult:
    """A solver's cut and its weight.

    `evaluations` counts every cut or swap the solver's scans cover:
    C(2N-1, N-1) cuts for exact; for hill climbing, |S| |S-bar| swaps per
    step, pruned by the kernel's bound or scored, plus one per restart; 1
    for spectral.
    """

    best_cut: BalancedCut
    best_weight: int
    method: str
    evaluations: int
    tie: bool


def solve_exact(graph: CutGraph, cap_nodes: int = DEFAULT_ENUMERATION_CAP) -> SolveResult:
    """Maximum-weight balanced cut over all C(2N-1, N-1) canonical cuts.

    Ties keep the lexicographically smallest side_s index tuple and set the
    tie flag.
    """
    if graph.n_nodes > cap_nodes:
        raise EnumerationCapError(
            f"instance has {graph.n_nodes} nodes; exact enumeration is capped at "
            f"{cap_nodes} nodes ({kernels.n_balanced_cuts(cap_nodes)} cuts)"
        )
    best_w, best_m, tie, evals = kernels.exact_max_balanced_cut(graph.weights)
    return SolveResult(
        best_cut=BalancedCut.from_membership(best_m),
        best_weight=int(best_w),
        method="exact",
        evaluations=evals,
        tie=tie,
    )


def _random_balanced_membership(n_nodes: int, rng: np.random.Generator) -> np.ndarray:
    half = n_nodes // 2
    m = np.zeros(n_nodes, dtype=np.uint8)
    m[0] = 1
    rest = rng.permutation(np.arange(1, n_nodes))[: half - 1]
    m[rest] = 1
    return m


def solve_hillclimb(
    graph: CutGraph,
    restarts: int = 8,
    seed: int = 0,
    first_improvement: bool = False,
) -> SolveResult:
    """Best local optimum of 1-swap hill climbing over random restarts.

    Deterministic for a given seed: restart r draws its start from
    `philox(seed, r)`; equal-weight optima keep the earliest restart.
    Each restart's end is mirrored to node 0's side before comparison, so
    only distinct bipartitions of the best weight set the tie flag.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best_w = None
    best_m = None
    tie = False
    total_evals = 0
    terms = kernels._climb_terms(graph.weights)
    for r in range(restarts):
        start = _random_balanced_membership(graph.n_nodes, philox(seed, r))
        w, m, evals, _trace = kernels._climb(terms, start, first_improvement)
        if m[0] == 0:
            m = 1 - m
        total_evals += evals + 1
        if best_w is None or w > best_w:
            best_w, best_m, tie = w, m, False
        elif w == best_w and not np.array_equal(m, best_m):
            tie = True
    return SolveResult(
        best_cut=BalancedCut.from_membership(best_m),
        best_weight=int(best_w),
        method="hillclimb",
        evaluations=total_evals,
        tie=tie,
    )


def solve_spectral(dataset: Dataset, metric: Metric = Metric.HAMMING) -> SolveResult:
    """Split on the leading left singular vector of the centered bit matrix.

    With C = U S V^T, C C^T = U S^2 U^T, so the eigenvector of the largest
    eigenvalue of the 2N x 2N Gram C C^T (`eigh`, last column) is C's
    leading left singular vector up to sign; forming it this way costs one
    2N x 2N x K product and a 2N x 2N eigensolve instead of a 2N x K SVD.
    The top N nodes by vector value form side_s (stable order on equal
    values); a global sign flip only mirrors the bipartition, so the result
    is sign-invariant.  Rows whose entries tie in exact arithmetic
    (duplicate rows) get values equal up to rounding, which then orders
    them; where such rows straddle the split either order is a valid
    split, and which one is returned may differ from an SVD's.  The
    returned weight is the cut's weight under `metric`, without the graph:
    `score_cut_weight` under score, and N (number of ones) - 2 (score
    weight) under Hamming (exact integers).
    """
    bits = dataset.bits.astype(np.float64)
    if np.all(dataset.bits == dataset.bits[0]):
        raise DegenerateInstanceError("all rows identical; no separation axis exists")
    centered = bits - bits.mean(axis=0, keepdims=True)
    lead = np.linalg.eigh(centered @ centered.T)[1][:, -1]
    order = np.argsort(-lead, kind="stable")
    n = dataset.n_per_side
    weight = score_cut_weight(dataset.bits, order[:n], order[n:])
    if metric is not Metric.SCORE:
        weight = n * int(np.count_nonzero(dataset.bits)) - 2 * weight
    return SolveResult(
        best_cut=BalancedCut.from_side(order[:n].tolist(), dataset.n_nodes),
        best_weight=weight,
        method="spectral",
        evaluations=1,
        tie=False,
    )


def solve(
    graph: CutGraph,
    dataset: Dataset,
    method: str,
    restarts: int,
    seed: int,
    first_improvement: bool,
    cap_nodes: int,
) -> SolveResult:
    """Run the named solver ("exact", "hillclimb" or "spectral") on the
    graph of `dataset`; `seed` drives the hill climber's restarts.

    Under the score metric the estimator is the minimum-score balanced cut,
    so exact and hillclimb maximise over -W and the weight is negated back.
    For balanced cuts the Hamming weight is N sum(pop) - 2 (score weight),
    so every swap gain under -W is half the Hamming one: the cut, the tie
    flag and the evaluation count match the Hamming run on the same sample.
    """
    if method == "spectral":
        return solve_spectral(dataset, graph.metric)
    if method not in ("exact", "hillclimb"):
        raise ValueError(f"unknown method {method!r}")
    minimise = graph.metric is Metric.SCORE
    if minimise:
        graph = CutGraph(weights=-graph.weights, metric=graph.metric, n_nodes=graph.n_nodes)
    if method == "exact":
        result = solve_exact(graph, cap_nodes=cap_nodes)
    else:
        result = solve_hillclimb(graph, restarts=restarts, seed=seed, first_improvement=first_improvement)
    return replace(result, best_weight=-result.best_weight) if minimise else result


def judge(graph: CutGraph, dataset: Dataset, result: SolveResult):
    """Score a result against the hidden partition.

    Returns (true_weight, L, tie_with_truth, success): a success needs the
    solved cut to equal the partition (L = 0) and no tie at the truth's
    weight (strict reading of "the maximum cut is the partition").
    """
    truth = true_partition(dataset)
    true_weight = cut_weight(graph, truth)
    l_from_truth = swap_count(truth, result.best_cut)
    tie_with_truth = result.tie and true_weight == result.best_weight
    return true_weight, l_from_truth, tie_with_truth, l_from_truth == 0 and not tie_with_truth

