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

Bernoulli bits are decided on the generator's raw 64-bit words, never on
floats.  numpy's `Generator.random` maps a word w to (w >> 11) * 2**-53,
so that uniform is below p exactly when (w >> 11) < ceil(p * 2**53).
`bernoulli_thresholds` makes those integer thresholds and `bernoulli_bits`
applies them; a word array gives the same bits as `random() < p` over the
same words, for every p in [0, 1], and leaves the generator in the same
state.

Work over a whole sample is done in blocks of about `BLOCK_VALUES` values,
so no copy of a sample at a wider type than its uint8 bits is ever made
whole: `sample` draws its words in row blocks, `graph.exact_gram`
multiplies float32 blocks of the bits, and the concentration checks draw
and reduce their samples in blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    "is_json_number",
    "derive_seed",
    "philox",
    "bernoulli_thresholds",
    "bernoulli_bits",
    "BLOCK_VALUES",
]

# Values per block of blockwise work: 2**17 uint64 words or float64 values
# (1 MiB), so a block and what is derived from it stay in cache together.
BLOCK_VALUES = 1 << 17

# numpy's `random()` keeps the top 53 bits of a word: (w >> 11) * 2**-53
_UNIFORM_SHIFT = 11
_UNIFORM_SCALE = float(2**53)


def _frozen_probs(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D probability vector")
    # NaN fails both comparisons, so it is refused with the infinities
    bad = np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0)))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] = {float(arr[bad[0]])} is not a probability in [0, 1]")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Pair of Bernoulli centers over {0,1}^K. Immutable once built.

    `thresholds` holds the `bernoulli_thresholds` of p1 and p2 as the rows
    of one read-only 2 x K uint64 array, made once here so that `sample`
    does not remake them on every call.

    Two models are equal when their centers are equal entry by entry, and
    equal models hash alike."""

    p1: np.ndarray
    p2: np.ndarray
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p1", _frozen_probs(self.p1, "p1"))
        object.__setattr__(self, "p2", _frozen_probs(self.p2, "p2"))
        if self.p1.shape != self.p2.shape:
            raise ValueError("p1 and p2 must have identical length")
        thresholds = bernoulli_thresholds(np.stack([self.p1, self.p2]))
        thresholds.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)

    def __eq__(self, other):
        if not isinstance(other, MixtureModel):
            return NotImplemented
        return np.array_equal(self.p1, other.p1) and np.array_equal(self.p2, other.p2)

    def __hash__(self):
        # Python floats hash equal values alike, -0.0 and 0.0 included
        return hash((tuple(self.p1.tolist()), tuple(self.p2.tolist())))

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
        if bits.max(initial=0) > 1:
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
    """Draw N rows from each component, bit-reproducible for a given seed.

    Bit [i, k] is decided by raw word [i, k] of the C-order stream of
    2N x K words from `philox(seed)`, against the model's `thresholds`, so
    it equals `philox(seed).random((2N, K))[i, k] < pt^k`.  The words are
    drawn in blocks of whole rows of about `BLOCK_VALUES` words, each
    decided straight into the uint8 bits and released before the next is
    drawn."""
    if n_per_side < 1:
        raise ValueError("n_per_side must be >= 1")
    n, k = 2 * n_per_side, model.k
    per = max(1, BLOCK_VALUES // k)
    bit_generator = philox(seed).bit_generator
    bits = np.empty((n, k), dtype=np.uint8)
    for lo in range(0, n, per):
        hi = min(lo + per, n)
        # rows [lo, mid) are drawn from p1 and rows [mid, hi) from p2
        mid = min(max(lo, n_per_side), hi)
        words = bit_generator.random_raw((hi - lo) * k).reshape(hi - lo, k)
        bernoulli_bits(words[:mid - lo], model.thresholds[0], out=bits[lo:mid].view(bool))
        bernoulli_bits(words[mid - lo:], model.thresholds[1], out=bits[mid:hi].view(bool))
        del words
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


_MODEL_KEYS = ("p1", "p2")


def is_json_number(value) -> bool:
    """True iff `value`, as `json.load` gives it, is a JSON number: an int
    or a float, and not a bool (which Python counts as an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_model(path: str) -> MixtureModel:
    """The model saved at `path` by `save_model`: a JSON object with exactly
    the keys p1 and p2, each a JSON list of JSON numbers.  Any other shape,
    a missing key or an unknown key raises ValueError naming the file and
    the key; a center that is not a list, or a center entry that is not a
    JSON number (an object, string, bool or list) or is NaN, infinite or
    outside [0, 1], one naming the file and the entry."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"model file {path}: expected a JSON object with keys p1, p2")
    unknown = sorted(set(payload) - set(_MODEL_KEYS))
    if unknown:
        raise ValueError(
            f"model file {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected keys: {', '.join(_MODEL_KEYS)}"
        )
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ValueError(f"model file {path}: missing key(s) {', '.join(map(repr, missing))}")
    for key in _MODEL_KEYS:
        center = payload[key]
        if not isinstance(center, list):
            raise ValueError(f"model file {path}: {key} must be a JSON list of numbers, got {center!r}")
        for i, entry in enumerate(center):
            if not is_json_number(entry):
                raise ValueError(f"model file {path}: {key}[{i}] = {entry!r} is not a JSON number")
    try:
        return MixtureModel(p1=payload["p1"], p2=payload["p2"])
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc


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


def bernoulli_thresholds(p) -> np.ndarray:
    """uint64 thresholds of probabilities p in [0, 1], of p's shape: a raw
    Philox word w gives a set bit exactly when (w >> 11) < threshold.

    numpy's uniform of w is (w >> 11) * 2**-53, and an integer lies below a
    real x exactly when it lies below ceil(x).  p * 2**53 is exact in
    float64 (a power-of-two scale that neither overflows nor underflows), so
    the threshold ceil(p * 2**53) is exact: 0 for p = 0, never met, and
    2**53 for p = 1, always met."""
    return np.ceil(np.asarray(p, dtype=np.float64) * _UNIFORM_SCALE).astype(np.uint64)


def bernoulli_bits(words: np.ndarray, thresholds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bits `uniform(w) < p` of the raw uint64 `words` into the bool array
    `out`, for the `bernoulli_thresholds` of p (broadcast against `words`).

    `words` is overwritten: it is shifted in place to the 53 bits a uniform
    keeps."""
    np.right_shift(words, _UNIFORM_SHIFT, out=words)
    return np.less(words, thresholds, out=out)
