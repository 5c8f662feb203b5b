"""The Hamming graph over a sample, and balanced-cut statistics.

The estimator is the maximum-weight balanced cut of one graph, whose edge
weights are the pairwise Hamming distances sum_k (x^k XOR y^k); every
solver that needs a graph searches that one.  The inner-product score
<x, y> between bit vectors is linked to it by the exact identity
hamming(x, y) = |x| + |y| - 2 * score(x, y).  Summed over the N^2 crossing
pairs of a balanced cut it gives
    H(cut) = N * (number of ones in the sample) - 2 * S(cut),
so the balanced max-cut under Hamming is the balanced min-cut under
score, and every swap's score gain is -1/2 of its Hamming gain.
`cut_weight_from_rows` owns this identity: it weighs a balanced cut under
either metric from the rows alone, so no score graph is built.  Weights are
kept as exact integers so cut comparisons never depend on float rounding.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BLOCK_VALUES, Dataset, MixtureModel

__all__ = [
    "Metric",
    "CutGraph",
    "BalancedCut",
    "exact_gram",
    "build_graph",
    "cut_weight",
    "score_cut_weight",
    "cut_weight_from_rows",
    "diff_node",
    "swap_count",
    "true_partition",
]


class Metric(enum.Enum):
    """The unit of a reported cut weight; the cut searched is the same."""

    HAMMING = "hamming"
    SCORE = "score"


@dataclass(frozen=True)
class CutGraph:
    """Exact integer edge weights over 2N nodes (`build_graph` makes the
    Hamming ones): square, symmetric and zero on the diagonal, as the hill
    climber's swap-gain formula requires."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.int64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if np.any(w != w.T) or np.any(np.diag(w) != 0):
            raise ValueError("weights must be symmetric with zero diagonal")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class BalancedCut:
    """Bipartition of {0..2N-1} into sides of size N, node 0 on side_s."""

    side_s: tuple
    side_sbar: tuple

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


def exact_gram(bits: np.ndarray, rows: bool) -> np.ndarray:
    """The float64 Gram matrix of a 0/1 matrix B: B B^T when `rows`, else
    B^T B.

    It is summed over blocks of the contracted axis, each cast from the
    uint8 bits into one reused float32 buffer and multiplied in float32,
    so no wide copy of the whole matrix is made.  With m the Gram's side,
    a block spans max(m, BLOCK_VALUES // m) of the contracted axis: never
    more than max(BLOCK_VALUES, m^2) values, and one block whenever the
    Gram is the larger array, so a large Gram is never summed block by
    block.  Exact for any blocking and any number of BLAS threads: every
    entry and partial sum of a block's product is an integer at most the
    block's width, which the guard keeps below 2**24, so the float32
    product is exact; each is added into the float64 total, whose entries
    and partial sums are integers at most the contracted length, below
    2**53.
    """
    a = bits if rows else bits.T
    m, length = a.shape
    width = max(m, BLOCK_VALUES // m)
    if width >= 2**24:
        raise ValueError("bit matrix too large for exact float32 Gram blocks")
    buffer = np.empty((m, min(width, length)), dtype=np.float32)
    gram = np.zeros((m, m))
    for lo in range(0, length, width):
        block = buffer[:, :min(width, length - lo)]
        block[...] = a[:, lo:lo + width]
        gram += block @ block.T
    return gram


def build_graph(dataset: Dataset, metric: Metric = Metric.HAMMING) -> CutGraph:
    """The dataset's Hamming graph: all pairwise Hamming distances
    pop_i + pop_j - 2 <b_i, b_j>, from the Gram matrix of shared ones.

    The weights are formed in place on the float64 `exact_gram` and cast
    once to int64; every value is an integer at most 2K, so none rounds.
    `metric` exists only for callers that still pass one (the layered
    benchmark) and must be Hamming; it goes with `harness.worker_count` and
    `kernels.active_backend` (ROADMAP item 1).
    """
    if metric is not Metric.HAMMING:
        raise ValueError("build_graph builds only the Hamming graph")
    weights = exact_gram(dataset.bits, rows=True)
    pop = weights.diagonal().copy()
    weights *= -2
    weights += pop[:, None]
    weights += pop[None, :]
    return CutGraph(weights=weights.astype(np.int64))


def cut_weight(graph: CutGraph, cut: BalancedCut) -> int:
    """Sum of edge weights across the cut."""
    if cut.n_nodes != graph.n_nodes:
        raise ValueError("cut does not cover the graph's node set")
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


def cut_weight_from_rows(bits: np.ndarray, cut: BalancedCut, metric: Metric) -> int:
    """Weight of the balanced cut under `metric`, from the 2N x K rows of
    `bits` alone, in exact integers: `score_cut_weight`, taken to Hamming by
    the identity H(cut) = N * (number of ones) - 2 * S(cut)."""
    weight = score_cut_weight(bits, list(cut.side_s), list(cut.side_sbar))
    if metric is Metric.HAMMING:
        weight = cut.n_per_side * int(np.count_nonzero(bits)) - 2 * weight
    return weight


def diff_node(z, model: MixtureModel, origin: int):
    """Expected score gap of a sample toward its own vs the other center.

    For a row z of origin 1 this is sum_k z^k (p1^k - p2^k); origin 2 flips
    the sign of the gap.  `z` is one row of shape (K,), giving a float, or a
    stack of rows of shape (..., K), giving an array of shape (...).

    Each gap is the row sum of z * (p1 - p2) in numpy's fixed pairwise
    order, so it is a function of that row's bits alone: the same however
    the rows are stacked or split into blocks, and on any number of BLAS
    threads (a BLAS matrix-vector product rounds a row's sum by where the
    row falls in its row groups and thread shares).  A bool stack is
    multiplied as it is, without a float64 copy of its bits.
    """
    za = np.asarray(z)
    if za.shape[-1:] != model.p1.shape:
        raise ValueError("bit vector length must equal the model dimension")
    if origin not in (1, 2):
        raise ValueError("origin must be 1 or 2")
    gap = (za * (model.p1 - model.p2 if origin == 1 else model.p2 - model.p1)).sum(axis=-1)
    return float(gap) if gap.ndim == 0 else gap


def swap_count(reference: BalancedCut, other: BalancedCut) -> int:
    """Minimal number of cross-swaps turning one bipartition into the other;
    mirror-invariant, in [0, N/2]."""
    if reference.n_nodes != other.n_nodes:
        raise ValueError("cuts must share a node set")
    n = reference.n_per_side
    ref_s = set(reference.side_s)
    overlap = len(ref_s & set(other.side_s))
    return n - max(overlap, n - overlap)


def true_partition(dataset: Dataset) -> BalancedCut:
    """The bipartition induced by the hidden labels."""
    side = np.flatnonzero(dataset.labels == 1)
    return BalancedCut.from_side(side.tolist(), dataset.n_nodes)
