"""Two-component Bernoulli product mixtures over the Boolean cube.

A mixture is a pair of center vectors p1, p2 in [0,1]^K; a sample point from
component t sets bit k to 1 independently with probability pt^k.  The
divergence of a mixture is the mean squared coordinate gap

    gamma = (1/K) * sum_k (p1^k - p2^k)^2,

which lies in [0,1] and is 0 iff the centers coincide.

Every random draw in the package comes from `philox`, the counter-based
Philox generator keyed by an explicit seed and an optional key tuple, so a
dataset is a pure function of (model, N, seed).  Per-trial seeds for
experiment grids are derived from a master seed via `derive_seed`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MixtureModel",
    "Dataset",
    "divergence",
    "sample",
    "figure1_mixture",
    "constant_gap_mixture",
    "save_model",
    "load_model",
    "derive_seed",
    "philox",
]


def _frozen_probs(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D probability vector")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MixtureModel:
    """Pair of Bernoulli centers over {0,1}^K. Immutable once built."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p1", _frozen_probs(self.p1, "p1"))
        object.__setattr__(self, "p2", _frozen_probs(self.p2, "p2"))
        if self.p1.shape != self.p2.shape:
            raise ValueError("p1 and p2 must have identical length")

    @property
    def k(self) -> int:
        return int(self.p1.size)


@dataclass(frozen=True)
class Dataset:
    """2N sampled bit rows with hidden component labels.

    Rows 0..N-1 carry label 1 (drawn from p1), rows N..2N-1 label 2; row
    order is canonical because every downstream operation except evaluation
    is label-blind.
    """

    bits: np.ndarray
    labels: np.ndarray
    n_per_side: int
    seed: int

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        labels = np.asarray(self.labels, dtype=np.int8)
        n = self.n_per_side
        if bits.ndim != 2 or bits.shape[0] != 2 * n:
            raise ValueError("bits must be a 2N x K matrix")
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("bits must be 0/1 valued")
        if labels.shape != (2 * n,):
            raise ValueError("labels must have length 2N")
        if int(np.sum(labels == 1)) != n or int(np.sum(labels == 2)) != n:
            raise ValueError("labels must contain exactly N ones and N twos")
        bits.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "labels", labels)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_per_side

    @property
    def k(self) -> int:
        return int(self.bits.shape[1])


def divergence(model: MixtureModel) -> float:
    """Mean squared coordinate gap between the two centers; in [0, 1]."""
    gaps = model.p1 - model.p2
    return float(np.mean(gaps * gaps))


def sample(model: MixtureModel, n_per_side: int, seed: int) -> Dataset:
    """Draw N rows from each component, bit-reproducible for a given seed."""
    if n_per_side < 1:
        raise ValueError("n_per_side must be >= 1")
    rng = philox(seed)
    centers = np.vstack([
        np.broadcast_to(model.p1, (n_per_side, model.k)),
        np.broadcast_to(model.p2, (n_per_side, model.k)),
    ])
    bits = (rng.random(centers.shape) < centers).astype(np.uint8)
    labels = np.repeat(np.array([1, 2], dtype=np.int8), n_per_side)
    return Dataset(bits=bits, labels=labels, n_per_side=n_per_side, seed=int(seed))


def figure1_mixture(
    k: int,
    fraction_biased: float = 0.1,
    small: float = 1e-5,
    large: float = 0.1265,
    base: float = 0.5,
) -> MixtureModel:
    """Canned biased mixture: a small fraction of coordinates carry a large
    frequency gap, the rest a negligible one.  With the defaults and k=10
    the divergence is ~0.0016.

    Gaps are centered on `base` (p1 = base + gap/2, p2 = base - gap/2); the
    biased coordinates come first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= fraction_biased <= 1.0:
        raise ValueError("fraction_biased must lie in [0, 1]")
    n_biased = int(round(k * fraction_biased))
    gaps = np.full(k, small, dtype=np.float64)
    gaps[:n_biased] = large
    return MixtureModel(p1=base + gaps / 2.0, p2=base - gaps / 2.0)


def constant_gap_mixture(k: int, gamma: float, base: float = 0.5) -> MixtureModel:
    """Mixture with the same coordinate gap sqrt(gamma) everywhere, so its
    divergence equals `gamma` at any dimension count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    gap = float(np.sqrt(gamma))
    gaps = np.full(k, gap, dtype=np.float64)
    return MixtureModel(p1=base + gaps / 2.0, p2=base - gaps / 2.0)


def save_model(model: MixtureModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p1": model.p1.tolist(), "p2": model.p2.tolist()}, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> MixtureModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return MixtureModel(p1=payload["p1"], p2=payload["p2"])


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable 64-bit seed for a grid point, e.g. (N, K, trial).

    SeedSequence(entropy, spawn_key) is a documented, version-stable hash of
    the master seed and the index tuple, so a trial's seed depends on its
    indices alone, never on which trials ran before it.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


def philox(seed: int, *key: int) -> np.random.Generator:
    """Philox generator keyed by SeedSequence(entropy=seed, spawn_key=key).

    With no key this is the stream of `Philox(seed)`, which seeds through
    `SeedSequence(seed)` with an empty spawn key.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))
