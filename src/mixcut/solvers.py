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
leading direction of the centered matrix.  It takes that direction by a
Lanczos iteration on the centered matrix's exact Gram on its smaller side,
2N x 2N or K x K, formed blockwise by `graph.exact_gram` rather than from
an SVD of a float64 copy of the bits, and builds no graph.  The iteration
starts from a fixed vector, multiplies with numpy's own loops rather than
BLAS, and orients its result by that start, so the vector and its sign do
not depend on the BLAS thread count or on LAPACK's sign convention.  Each
node's value is a fixed-order sum over its own row, so identical rows get
bit-equal values and the stable split takes them by node index.

`solve` dispatches on the method name.  The estimator is the maximum
Hamming cut, which is the minimum score cut (`graph` states the identity),
so exact and hillclimb search the one Hamming graph under either metric;
the metric picks only the unit of the reported weight, which
`graph.cut_weight_from_rows` gives.  `judge` scores a result against the
hidden partition under the strict success rule: the cut must equal the
partition and no other cut may tie its weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .graph import (
    BalancedCut,
    CutGraph,
    Metric,
    build_graph,
    cut_weight_from_rows,
    exact_gram,
    swap_count,
    true_partition,
)
from .model import BLOCK_VALUES, Dataset, philox

__all__ = [
    "METHODS",
    "SolveResult",
    "EnumerationCapError",
    "DegenerateInstanceError",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_RESTARTS",
    "require_within_cap",
    "solve_exact",
    "solve_hillclimb",
    "solve_spectral",
    "solve",
    "judge",
]

DEFAULT_ENUMERATION_CAP = 24
DEFAULT_RESTARTS = 8
# the spectral solver's Lanczos iteration (see `_lanczos_top`)
_LANCZOS_KEY = 1950
_LANCZOS_TOL = 1e-13
_LANCZOS_CHECK = 4
_LANCZOS_CHUNK = 32
METHODS = ("exact", "hillclimb", "spectral")


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


def require_within_cap(n_nodes: int, cap_nodes: int) -> None:
    """Refuse exact enumeration of `n_nodes` nodes above `cap_nodes` nodes."""
    if n_nodes > cap_nodes:
        raise EnumerationCapError(f"{n_nodes} nodes exceed the exact-enumeration cap of {cap_nodes} nodes")


def solve_exact(graph: CutGraph, cap_nodes: int = DEFAULT_ENUMERATION_CAP) -> SolveResult:
    """Maximum-weight balanced cut over all C(2N-1, N-1) canonical cuts.

    Ties keep the lexicographically smallest side_s index tuple and set the
    tie flag.
    """
    require_within_cap(graph.n_nodes, cap_nodes)
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
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    first_improvement: bool = False,
) -> SolveResult:
    """Best local optimum of 1-swap hill climbing over random restarts.

    Deterministic for a given seed: restart r draws its start from
    `philox(seed, r)`; equal-weight optima keep the earliest restart.
    Every restart climbs in one `kernels.hillclimb_stack` call, in
    lockstep, each to the end its climb alone would reach.  Each restart's
    end is mirrored to node 0's side before comparison, so only distinct
    bipartitions of the best weight set the tie flag.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    starts = [_random_balanced_membership(graph.n_nodes, philox(seed, r)) for r in range(restarts)]
    best_w = None
    best_m = None
    tie = False
    total_evals = 0
    for w, m, evals, _trace in kernels.hillclimb_stack(graph.weights, starts, first_improvement):
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


def _centred_gram(bits: np.ndarray) -> np.ndarray:
    """The Gram of D = n B - 1 s^T = n C on its smaller side, in exact
    integers held in float64; raises DegenerateInstanceError when all rows
    are identical.

    With n rows, s the column sums and C the centred bits:
        n^2 C C^T = n^2 B B^T - n (B s 1^T + 1 (B s)^T) + (s^T s) 1 1^T
    when n <= K, else
        n^2 C^T C = n^2 B^T B - n s s^T.
    B s is the row sums of B B^T and s^T s their sum.  Every entry and
    partial sum of either Gram is an integer of magnitude below
    4 n^2 max(n, K), which the guard keeps below 2**53.
    """
    n, k = bits.shape
    if 4 * n * n * max(n, k) >= 2**53:
        raise ValueError("bit matrix too large for an exact float64 Gram")
    if n <= k:
        gram = exact_gram(bits, rows=True)
        bs = gram.sum(axis=1)
        gram *= n * n
        gram -= n * bs[:, None]
        gram -= n * bs[None, :]
        gram += bs.sum()
    else:
        s = bits.sum(axis=0, dtype=np.int64).astype(np.float64)
        gram = exact_gram(bits, rows=False)
        gram *= n * n
        gram -= n * np.multiply.outer(s, s)
    if not gram.any():  # C = 0 exactly
        raise DegenerateInstanceError("all rows identical; no separation axis exists")
    return gram


def _lanczos_start(m: int) -> np.ndarray:
    """The Lanczos start vector of a side-m Gram: m standard normals from a
    Philox stream of its own key, the same for every instance.

    It is not 1, which the row-side centred Gram maps to 0, nor a pattern
    such as alternating +-1, which a two-block answer in some node order
    is orthogonal to; a random start is orthogonal to the top eigenvector
    with probability 0.
    """
    return philox(0, _LANCZOS_KEY).standard_normal(m)


def _lanczos_top(gram: np.ndarray) -> tuple[float, np.ndarray, int]:
    """The top eigenpair of the symmetric `gram` by a Lanczos iteration
    with full reorthogonalisation (Lanczos 1950; Golub & Van Loan, ch. 10):
    (Ritz value, unit Ritz vector, steps taken).

    Step j forms w = G q_j - beta_{j-1} q_{j-1}, alpha_j = q_j . w and
    w - alpha_j q_j, then projects w off the whole basis, and once more
    if that pass halved its squared norm (the test of Daniel, Gragg,
    Kaufman & Stewart, 1976); the rest's norm is beta_j.  The iteration
    stops once the residual bound beta_j |y_j| of the top eigenpair
    (theta, y) of the tridiagonal of the alphas and betas is at most
    `_LANCZOS_TOL` times the largest |Ritz value|.  It stops regardless at
    a breakdown, beta_j at most `_LANCZOS_TOL` times the largest alpha or
    beta so far (a lower bound of the Gram's norm), where the basis spans
    an invariant subspace, and at step len(gram), where it spans the whole
    space.  The residual bound is checked after `_LANCZOS_CHECK` steps,
    then each time the step count has grown by a quarter, by at least
    `_LANCZOS_CHECK` steps: an `eigh` of the j x j tridiagonal costs
    O(j^3), so checks at that growing spacing cost a bounded multiple of
    the last one, and the iteration runs past the step where the bound
    first holds by at most a quarter of its steps or `_LANCZOS_CHECK` - 1.

    The vector is oriented to a positive inner product with
    `_lanczos_start`, that is y_0 > 0, so its sign comes from the fixed
    start, not from LAPACK.  Every product and projection is an `np.einsum`
    without `optimize`, numpy's own fixed-order loops rather than BLAS, so
    the vector's bits do not depend on the number of BLAS threads; the one
    LAPACK call is `eigh` of the small tridiagonal.  The basis grows
    `_LANCZOS_CHUNK` rows at a time, so memory is O(steps len(gram)).
    """
    m = len(gram)
    start = _lanczos_start(m)
    basis = np.empty((min(m, _LANCZOS_CHUNK), m))
    basis[0] = start / math.sqrt(np.einsum("i,i", start, start))
    alphas, betas, scale, check = [], [], 0.0, _LANCZOS_CHECK
    w = np.empty(m)
    for j in range(m):
        np.einsum("ij,j->i", gram, basis[j], out=w)
        if j:
            w -= betas[-1] * basis[j - 1]
        alphas.append(float(np.einsum("i,i", basis[j], w)))
        w -= alphas[-1] * basis[j]
        norm2 = np.einsum("i,i", w, w)
        for _ in range(2):  # a second pass only if the first cancelled much
            before, q = norm2, basis[:j + 1]
            w -= np.einsum("ji,j->i", q, np.einsum("ij,j->i", q, w))
            norm2 = np.einsum("i,i", w, w)
            if norm2 >= before / 2:
                break
        beta = math.sqrt(norm2)
        scale = max(scale, abs(alphas[-1]), beta)
        final = j + 1 == m or beta <= _LANCZOS_TOL * scale
        if final or j + 1 == check:
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            thetas, ys = np.linalg.eigh(tridiagonal)
            if final or beta * abs(ys[-1, -1]) <= _LANCZOS_TOL * np.abs(thetas).max():
                break
            check += max(_LANCZOS_CHECK, check // 4)
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((min(m - len(basis), _LANCZOS_CHUNK), m))])
        np.divide(w, beta, out=basis[j + 1])
        betas.append(beta)
    y = ys[:, -1] if ys[0, -1] > 0 else -ys[:, -1]
    return float(thetas[-1]), np.einsum("ji,j->i", basis[:j + 1], y), j + 1


def _spectral_lead(bits: np.ndarray) -> np.ndarray:
    """Each row's value on the leading axis of the column-centred bits,
    up to one shift and one scale shared by all rows; raises
    DegenerateInstanceError when all rows are identical.

    The leading vector is `_lanczos_top` of `_centred_gram`.  On the row
    side it is C's leading left singular vector u, which is mapped to the
    right one, v proportional to D^T u = n B^T u - s (1^T u), each entry
    of B^T u a fixed-order sum down its column; the column-side Gram gives
    v itself.  The value of row i is b_i . v, a fixed-order sum over its
    own row: C v is proportional to u, and b_i . v differs from c_i . v by
    the same shift for every row.  So identical rows get bit-equal values.
    """
    n, k = bits.shape
    top = _lanczos_top(_centred_gram(bits))[1]
    if n <= k:
        s = bits.sum(axis=0, dtype=np.int64).astype(np.float64)
        width = max(n, BLOCK_VALUES // n)
        btu = np.concatenate(
            [(bits[:, lo:lo + width] * top[:, None]).sum(axis=0) for lo in range(0, k, width)]
        )
        v = n * btu - s * top.sum()
    else:
        v = top
    per = max(1, BLOCK_VALUES // k)
    return np.concatenate([(bits[lo:lo + per] * v).sum(axis=-1) for lo in range(0, n, per)])


def solve_spectral(dataset: Dataset, metric: Metric = Metric.HAMMING) -> SolveResult:
    """Split on the leading left singular vector of the centered bit matrix.

    The vector comes from a Lanczos iteration on the centred bits' exact
    Gram on its smaller side, n x n or K x K (see `_spectral_lead` and
    `_lanczos_top`), so no float64 copy of the bits is made.  The top N
    nodes by value form side_s, in stable order, so rows with equal values,
    identical rows among them, are taken by node index; the vector's sign,
    fixed by the iteration's start, decides which copies those are, and
    otherwise a global sign flip only mirrors the bipartition.  The returned
    weight is the cut's weight under `metric`, from `cut_weight_from_rows`.
    """
    lead = _spectral_lead(dataset.bits)
    order = np.argsort(-lead, kind="stable")
    cut = BalancedCut.from_side(order[: dataset.n_per_side].tolist(), dataset.n_nodes)
    return SolveResult(
        best_cut=cut,
        best_weight=cut_weight_from_rows(dataset.bits, cut, metric),
        method="spectral",
        evaluations=1,
        tie=False,
    )


def solve(
    dataset: Dataset,
    method: str,
    metric: Metric,
    restarts: int,
    seed: int,
    first_improvement: bool,
    cap_nodes: int,
) -> SolveResult:
    """Run the named solver (one of `METHODS`) on `dataset` and report the
    cut's weight under `metric`; `seed` drives the hill climber's restarts.

    Exact and hillclimb search the dataset's Hamming graph, built here,
    under either metric: its maximum cut is the minimum-score cut, with the
    same tie flag and evaluation count (see `graph`).  Spectral builds no
    graph.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "spectral":
        return solve_spectral(dataset, metric)
    graph = build_graph(dataset)
    if method == "exact":
        result = solve_exact(graph, cap_nodes=cap_nodes)
    else:
        result = solve_hillclimb(graph, restarts=restarts, seed=seed, first_improvement=first_improvement)
    if metric is Metric.HAMMING:
        return result
    return replace(result, best_weight=cut_weight_from_rows(dataset.bits, result.best_cut, metric))


def judge(dataset: Dataset, result: SolveResult, metric: Metric):
    """Score a result against the hidden partition, weighing the truth
    under `metric` from the rows (`cut_weight_from_rows`), with no graph.

    Returns (true_weight, L, tie_with_truth, success): a success needs the
    solved cut to equal the partition (L = 0) and no tie at the truth's
    weight (strict reading of "the maximum cut is the partition").
    """
    truth = true_partition(dataset)
    true_weight = cut_weight_from_rows(dataset.bits, truth, metric)
    l_from_truth = swap_count(truth, result.best_cut)
    tie_with_truth = result.tie and true_weight == result.best_weight
    return true_weight, l_from_truth, tie_with_truth, l_from_truth == 0 and not tie_with_truth
