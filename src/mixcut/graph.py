"""Edge-weighted complete graphs over a sample and balanced-cut statistics.

Two metrics are supported: the inner-product score <x, y> between bit
vectors, and the Hamming distance sum_k (x^k XOR y^k).  They are linked by
the exact identity  hamming(x, y) = |x| + |y| - 2 * score(x, y), which makes
the balanced max-cut under Hamming coincide with the balanced min-cut under
score.  Weights are kept as exact integers so cut comparisons never depend
on float rounding.

A balanced cut splits the 2N nodes into two sides of N; cuts are stored in
canonical form with node 0 on side_s, so each unordered bipartition has one
representative.  The swap distance L between two cuts is the number of nodes
per side that changed sides (after mirroring), L in [0, N/2].

`diff_node` and `score_cut_weight` also take stacks of rows or datasets
(extra leading axes), so the concentration checks evaluate many draws with
one call to the same formula.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .model import Dataset, MixtureModel

__all__ = [
    "Metric",
    "CutGraph",
    "BalancedCut",
    "score",
    "hamming",
    "build_graph",
    "cut_weight",
    "score_cut_weight",
    "diff_node",
    "diff_cut",
    "swap_count",
    "swap_imbalance",
    "true_partition",
    "all_balanced_cuts",
]


class Metric(enum.Enum):
    SCORE = "score"
    HAMMING = "hamming"


def _as_bits(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D bit vector")
    return arr


def score(x, y) -> int:
    """Inner product of two equal-length bit vectors."""
    xa, ya = _as_bits(x), _as_bits(y)
    if xa.shape != ya.shape:
        raise ValueError("bit vectors must have equal length")
    return int(xa @ ya)


def hamming(x, y) -> int:
    """Number of coordinates where two equal-length bit vectors differ."""
    xa, ya = _as_bits(x), _as_bits(y)
    if xa.shape != ya.shape:
        raise ValueError("bit vectors must have equal length")
    return int(np.sum(xa != ya))


@dataclass(frozen=True)
class CutGraph:
    """Symmetric integer edge weights over 2N nodes under one metric."""

    weights: np.ndarray
    metric: Metric
    n_nodes: int

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.int64)
        if w.shape != (self.n_nodes, self.n_nodes):
            raise ValueError("weights must be n_nodes x n_nodes")
        if np.any(w != w.T) or np.any(np.diag(w) != 0):
            raise ValueError("weights must be symmetric with zero diagonal")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class BalancedCut:
    """Bipartition of {0..2N-1} into sides of size N, node 0 on side_s."""

    side_s: tuple
    side_sbar: tuple = field(default=())

    def __post_init__(self):
        s = tuple(sorted(int(i) for i in self.side_s))
        sbar = tuple(sorted(int(i) for i in self.side_sbar))
        n_nodes = len(s) + len(sbar)
        if len(s) != len(sbar):
            raise ValueError("sides must have equal size")
        if sorted(s + sbar) != list(range(n_nodes)):
            raise ValueError("sides must partition 0..2N-1")
        if 0 not in s:  # mirror to the canonical representative
            s, sbar = sbar, s
        object.__setattr__(self, "side_s", s)
        object.__setattr__(self, "side_sbar", sbar)

    @classmethod
    def from_side(cls, side_s: Sequence[int], n_nodes: int) -> "BalancedCut":
        s = set(int(i) for i in side_s)
        sbar = tuple(i for i in range(n_nodes) if i not in s)
        return cls(side_s=tuple(s), side_sbar=sbar)

    @classmethod
    def from_membership(cls, membership: np.ndarray) -> "BalancedCut":
        side = np.flatnonzero(np.asarray(membership) == 1)
        return cls.from_side(side.tolist(), int(len(membership)))

    @property
    def n_nodes(self) -> int:
        return len(self.side_s) + len(self.side_sbar)

    @property
    def n_per_side(self) -> int:
        return len(self.side_s)

    def membership(self) -> np.ndarray:
        m = np.zeros(self.n_nodes, dtype=np.uint8)
        m[list(self.side_s)] = 1
        return m


def build_graph(dataset: Dataset, metric: Metric) -> CutGraph:
    """All pairwise weights under the chosen metric, via one matrix product.

    The Gram matrix of shared ones is one float64 BLAS product (numpy has no
    BLAS kernel for int64), cast back to exact int64 scores.
    """
    bits = dataset.bits.astype(np.float64)
    # Exact: each entry counts shared ones, and every partial sum of the
    # product is an integer <= K < 2**53, so no float64 step rounds.
    scores = (bits @ bits.T).astype(np.int64)
    if metric is Metric.SCORE:
        weights = scores.copy()
        np.fill_diagonal(weights, 0)
    else:
        pop = np.diag(scores)
        weights = pop[:, None] + pop[None, :] - 2 * scores
    return CutGraph(weights=weights, metric=metric, n_nodes=dataset.n_nodes)


def _check_cover(graph: CutGraph, cut: BalancedCut) -> None:
    if cut.n_nodes != graph.n_nodes:
        raise ValueError("cut does not cover the graph's node set")


def cut_weight(graph: CutGraph, cut: BalancedCut) -> int:
    """Sum of edge weights across the cut."""
    _check_cover(graph, cut)
    sub = graph.weights[np.ix_(cut.side_s, cut.side_sbar)]
    return int(sub.sum())


def score_cut_weight(bits: np.ndarray, side_s, side_sbar):
    """Score-graph weight of the cut (side_s, side_sbar) over the rows of
    `bits`, without building the graph: the sum of <x, y> over crossing
    pairs is (sum of the side_s rows) . (sum of the side_sbar rows), in
    exact integers.  `bits` is one 2N x K dataset, giving an int, or a stack
    of shape (..., 2N, K), giving an int64 array of shape (...).

    A column sum of 0/1 bits over a side is at most the side's size, so it
    is accumulated in the smallest unsigned type that holds that size
    (uint8 up to 255 rows), which reduces far faster than int64; the
    products and their sum are int64."""
    count = np.min_scalar_type(max(len(side_s), len(side_sbar)))
    a = bits[..., side_s, :].sum(axis=-2, dtype=count)
    b = bits[..., side_sbar, :].sum(axis=-2, dtype=count)
    weight = np.multiply(a, b, dtype=np.int64).sum(axis=-1)
    return int(weight) if weight.ndim == 0 else weight


def diff_node(z, model: MixtureModel, origin: int):
    """Expected score gap of a sample toward its own vs the other center.

    For a row z of origin 1 this is sum_k z^k (p1^k - p2^k); origin 2 flips
    the sign of the gap.  `z` is one row of shape (K,), giving a float, or a
    stack of rows of shape (..., K), giving an array of shape (...).
    """
    za = np.asarray(z, dtype=np.float64)
    if za.shape[-1:] != model.p1.shape:
        raise ValueError("bit vector length must equal the model dimension")
    if origin not in (1, 2):
        raise ValueError("origin must be 1 or 2")
    gap = za @ (model.p1 - model.p2 if origin == 1 else model.p2 - model.p1)
    return float(gap) if gap.ndim == 0 else gap


def diff_cut(graph: CutGraph, reference: BalancedCut, other: BalancedCut) -> int:
    """Cut-weight difference other - reference on a score graph.

    Equals the explicit sum over the 4L(N-L) edges that differ between the
    two cuts (the L x L block between the two swapped groups is crossed by
    both cuts and cancels); exact in integer arithmetic.
    """
    if graph.metric is not Metric.SCORE:
        raise ValueError("diff statistics are defined on the score graph")
    _check_cover(graph, reference)
    _check_cover(graph, other)
    return cut_weight(graph, other) - cut_weight(graph, reference)


def swap_count(reference: BalancedCut, other: BalancedCut) -> int:
    """Minimal number of cross-swaps turning one bipartition into the other;
    mirror-invariant, in [0, N/2]."""
    if reference.n_nodes != other.n_nodes:
        raise ValueError("cuts must share a node set")
    n = reference.n_per_side
    ref_s = set(reference.side_s)
    overlap = len(ref_s & set(other.side_s))
    return n - max(overlap, n - overlap)


def swap_imbalance(dataset: Dataset, swapped_u: Sequence[int], swapped_v: Sequence[int], k: int) -> int:
    """Bit-sum gap at coordinate k between the two swapped groups."""
    u = list(swapped_u)
    v = list(swapped_v)
    if len(u) != len(v):
        raise ValueError("swapped groups must have equal size")
    if not 0 <= k < dataset.k:
        raise IndexError("dimension index out of range")
    col = dataset.bits[:, k].astype(np.int64)
    return int(col[u].sum() - col[v].sum())


def true_partition(dataset: Dataset) -> BalancedCut:
    """The bipartition induced by the hidden labels."""
    side = np.flatnonzero(dataset.labels == 1)
    return BalancedCut.from_side(side.tolist(), dataset.n_nodes)


def all_balanced_cuts(n_nodes: int) -> Iterator[BalancedCut]:
    """Every canonical balanced cut, in lexicographic order of the side_s
    index tuple (node 0 plus an (N-1)-subset of {1..2N-1})."""
    half = n_nodes // 2
    if 2 * half != n_nodes:
        raise ValueError("n_nodes must be even")
    for rest in combinations(range(1, n_nodes), half - 1):
        yield BalancedCut.from_side((0,) + rest, n_nodes)
