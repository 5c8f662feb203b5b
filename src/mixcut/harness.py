"""Monte Carlo experiment runner: recovery sweeps, CSV emission, and the
empirical concentration-verification suite.

Every artifact is a pure function of (config, master seed): trial seeds are
derived as a stable hash of (master seed, N, K, trial index), and a sweep
runs its trials serially on the calling thread, in (N, K, trial) order.

Each trial goes through `solvers.solve` and `solvers.judge`: a success
needs the solver's cut to equal the hidden partition AND no other cut to
tie its weight; ties involving the true partition are tallied separately.
The config's metric picks only the unit of the reported weights: the cut
is the maximum Hamming cut, which is the minimum score cut (`graph` states
the identity).

The concentration checks draw their Bernoulli samples here and take every
closed-form quantity from its owner: `graph.diff_node` and
`theory.is_bad_node` on stacks of rows, `graph.score_cut_weight` on a stack
of datasets, `theory.bad_node_threshold_k` and `theory.rho2_standin`.  Each
check draws its samples through `_draw_reduced`: the sample axis is split
into one contiguous stretch per available CPU, each stretch drawn on its
own thread in blocks of about `model.BLOCK_VALUES` raw Philox words, each
word decided against `model.bernoulli_thresholds`, and every block reduced
to per-sample values at once, so only those values are kept whole.  Philox is
counter-based, so each stretch starts at its own offset of the check's one
stream and reads the same words as one draw of the whole sample array.
Every per-sample value depends on that sample's bits alone, so the reports
equal those of drawing everything at once, on any number of cores or BLAS
threads.  The two swap-imbalance checks keep only the small integer column
counts whole and reduce their float deviations block by block.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import math
import os
import threading
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .graph import Metric, diff_node, score_cut_weight
from .model import (
    BLOCK_VALUES,
    MixtureModel,
    bernoulli_bits,
    bernoulli_thresholds,
    constant_gap_mixture,
    derive_seed,
    divergence,
    figure1_mixture,
    is_json_number,
    load_model,
    philox,
    sample,
)
from .solvers import DEFAULT_ENUMERATION_CAP, DEFAULT_RESTARTS, METHODS, EnumerationCapError, judge, solve
from .theory import bad_node_threshold_k, delta, is_bad_node, required_k, rho2_standin

__all__ = [
    "ValidationError",
    "ExperimentConfig",
    "TrialRecord",
    "CellAggregate",
    "VerifyConfig",
    "CheckResult",
    "ConcentrationReport",
    "PHASE_CSV_HEADER",
    "resolve_model",
    "require_separation",
    "run_trial",
    "run_cell",
    "phase_diagram",
    "read_phase_csv",
    "verify_concentration",
    "format_report",
    "worker_count",
]

# The phase CSV's columns, in order: each one's name, the type it is read
# back as, and the `CellAggregate` attribute it is written from.  A float is
# written to 6 significant digits, any other value as `str` gives it.
_PHASE_CSV_COLUMNS = (
    ("N", int, "n"),
    ("K", int, "k"),
    ("gamma", float, "gamma"),
    ("method", str, "method"),
    ("metric", str, "metric"),
    ("trials", int, "trials"),
    ("successes", int, "successes"),
    ("success_rate", float, "success_rate"),
    ("mean_L", float, "mean_l"),
    ("required_K_case", str, "required_k_case"),
    ("required_K_value", float, "required_k_value"),
    ("seed", int, "seed"),
)
PHASE_CSV_HEADER = ",".join(name for name, _, _ in _PHASE_CSV_COLUMNS)

_MODEL_GENERATORS = {"figure1": figure1_mixture, "constant_gap": constant_gap_mixture}


class ValidationError(ValueError):
    """Config or model fails a precondition (distinct from usage errors)."""


def _json_field(key: str, kind: type, value):
    """`value` if it is the JSON form of the config field type `kind`: an
    object for dict, a string for str, true or false for bool, an integer
    (not a bool, float or string) for int, a list of integers for tuple."""
    if kind is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"config key {key!r} must be a JSON list of integers, got {value!r}")
        return tuple(_json_field(key, int, v) for v in value)
    ok, form = {
        dict: (isinstance(value, dict), "a JSON object"),
        str: (isinstance(value, str), "a JSON string"),
        bool: (isinstance(value, bool), "true or false"),
        int: (is_json_number(value) and isinstance(value, int), "a JSON integer"),
    }[kind]
    if not ok:
        raise ValidationError(f"config key {key!r} must be {form}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep, as a config file's JSON object states it.

    The config keys are this class's fields, in order, each under its own
    name except `model_source`, whose key is "model".  A field with no
    default is a required key; an absent optional key takes the field's
    default.  Each value must be the JSON form of its field's type
    (`_json_field`); `validate` checks the ranges.
    """

    model_source: dict = field(metadata={"key": "model"})
    n_values: tuple
    k_values: tuple
    trials: int
    method: str
    metric: str
    seed: int
    output: str
    restarts: int = DEFAULT_RESTARTS
    first_improvement: bool = False
    cap_nodes: int = DEFAULT_ENUMERATION_CAP

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValidationError(f"a config must be a JSON object, got {payload!r}")
        types = typing.get_type_hints(cls)
        fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - set(fields))
        if unknown:
            raise ValidationError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"expected keys: {', '.join(fields)}"
            )
        missing = [key for key, f in fields.items() if f.default is dataclasses.MISSING and key not in payload]
        if missing:
            raise ValidationError(f"missing config key(s) {', '.join(map(repr, missing))}")
        return cls(**{
            f.name: _json_field(key, types[f.name], payload[key])
            for key, f in fields.items() if key in payload
        })

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if not self.n_values or any(n < 4 for n in self.n_values):
            raise ValidationError("every N in 'n_values' must be >= 4 (the required-K thresholds need N >= 4)")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValidationError("all K values must be positive")
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.metric not in {m.value for m in Metric}:
            raise ValidationError(f"unknown metric {self.metric!r}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.method == "exact":
            worst = 2 * max(self.n_values)
            if worst > self.cap_nodes:
                raise EnumerationCapError(
                    f"exact cells reach {worst} nodes, above the cap of "
                    f"{self.cap_nodes} nodes"
                )


@dataclass(frozen=True)
class TrialRecord:
    n: int
    k: int
    gamma: float
    trial: int
    seed: int
    success: bool
    best_weight: int
    true_weight: int
    l_from_truth: int
    tie: bool
    wall_time: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class CellAggregate:
    n: int
    k: int
    gamma: float
    method: str
    metric: str
    trials: int
    successes: int
    ties: int
    mean_l: float
    required_k_case: str
    required_k_value: float
    seed: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def resolve_model(model_source: dict, k: int) -> MixtureModel:
    """Instantiate the configured model at dimension count k.

    `model_source` names exactly one source: {"file": path}, or a generator
    ("figure1" or "constant_gap") with a JSON object of its numeric keyword
    parameters.  Anything else is refused before a model is built, naming
    the offending key.
    """
    sources = ("file",) + tuple(_MODEL_GENERATORS)
    if len(model_source) != 1 or not set(model_source) <= set(sources):
        named = ", ".join(map(repr, model_source)) or "none"
        raise ValidationError(f"model needs exactly one of the keys {', '.join(sources)}; got {named}")
    (source, params), = model_source.items()
    if source == "file":
        if not isinstance(params, str):
            raise ValidationError(f"model key 'file' must be a JSON string path, got {params!r}")
        model = load_model(params)
        if model.k != k:
            raise ValidationError(
                f"model file has K={model.k} but the cell requests K={k}"
            )
        return model
    if not isinstance(params, dict):
        raise ValidationError(f"model key {source!r} must be a JSON object of parameters, got {params!r}")
    generator = _MODEL_GENERATORS[source]
    signature = inspect.signature(generator)
    accepted = list(signature.parameters)[1:]  # every parameter after k
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValidationError(
            f"unknown model parameter(s) {', '.join(map(repr, unknown))} for {source!r}; "
            f"expected: {', '.join(accepted)}"
        )
    try:
        signature.bind(k, **params)
    except TypeError as exc:
        raise ValidationError(f"model key {source!r}: {exc}") from None
    for name, value in params.items():
        if not is_json_number(value):
            raise ValidationError(f"model parameter {source}.{name} must be a JSON number, got {value!r}")
    return generator(k, **params)


def require_separation(model: MixtureModel) -> MixtureModel:
    """`model`, refused when its centers coincide (gamma = 0)."""
    if divergence(model) == 0.0:
        raise ValidationError("model has gamma = 0; separation is impossible")
    return model


def run_trial(config: ExperimentConfig, model: MixtureModel, n: int, k: int, trial: int) -> TrialRecord:
    gamma = divergence(model)
    seed = derive_seed(config.seed, n, k, trial)
    start = time.perf_counter()
    dataset = sample(model, n, seed)
    metric = Metric(config.metric)
    result = solve(
        dataset, config.method, metric, restarts=config.restarts, seed=seed,
        first_improvement=config.first_improvement, cap_nodes=config.cap_nodes,
    )
    true_weight, l_from_truth, tie_with_truth, success = judge(dataset, result, metric)
    return TrialRecord(
        n=n,
        k=k,
        gamma=gamma,
        trial=trial,
        seed=seed,
        success=success,
        best_weight=result.best_weight,
        true_weight=true_weight,
        l_from_truth=l_from_truth,
        tie=tie_with_truth,
        wall_time=time.perf_counter() - start,
    )


def run_cell(config: ExperimentConfig, n: int, k: int):
    """All trial records for one (N, K) cell, in trial order."""
    config.validate()
    model = require_separation(resolve_model(config.model_source, k))
    return [run_trial(config, model, n, k, t) for t in range(config.trials)]


def worker_count() -> int:
    """Number of threads a sweep runs its trials on: always 1.  Kept only
    because benchmarks/layered records it; ROADMAP item 1 deletes it."""
    return 1


def _aggregate(config: ExperimentConfig, n: int, k: int, records) -> CellAggregate:
    gamma = records[0].gamma
    successes = sum(r.success for r in records)
    ties = sum(r.tie for r in records)
    mean_l = sum(r.l_from_truth for r in records) / len(records)
    rk = required_k(n, gamma)
    return CellAggregate(
        n=n,
        k=k,
        gamma=gamma,
        method=config.method,
        metric=config.metric,
        trials=len(records),
        successes=successes,
        ties=ties,
        mean_l=mean_l,
        required_k_case=rk.active_case,
        required_k_value=rk.active_k_threshold(),
        seed=config.seed,
    )


def phase_diagram(config: ExperimentConfig):
    """Run the full (N, K) sweep and emit one aggregate CSV row per cell.

    Resolves each K's model once, then runs every cell's trials serially on
    the calling thread, in (N, K, trial) order.  Returns the list of
    CellAggregate rows (the CSV is written to config.output).  An output
    whose directory is missing is refused before any model is built.
    """
    config.validate()
    folder = os.path.dirname(os.path.realpath(config.output))
    if not os.path.isdir(folder):
        raise ValidationError(f"output {config.output}: directory {folder} does not exist")
    models = {k: require_separation(resolve_model(config.model_source, k)) for k in set(config.k_values)}
    aggregates = []
    for n in config.n_values:
        for k in config.k_values:
            records = [run_trial(config, models[k], n, k, t) for t in range(config.trials)]
            aggregates.append(_aggregate(config, n, k, records))
    lines = [PHASE_CSV_HEADER] + [
        ",".join(
            f"{getattr(a, attr):.6g}" if kind is float else str(getattr(a, attr))
            for _, kind, attr in _PHASE_CSV_COLUMNS
        )
        for a in aggregates
    ]
    _write_replacing(config.output, "\n".join(lines) + "\n")
    return aggregates


def _write_replacing(path: str, text: str) -> None:
    """Write `text` to a new file beside `path`, then rename it onto `path`,
    so an existing output is replaced whole and never truncated in place.
    A symlinked output is replaced at its target; paths that exist but are
    not regular files (e.g. os.devnull) are written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    folder, name = os.path.split(os.path.realpath(path))
    tmp = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never clobbers another file; mode 0o666 under the umask, as open()
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(folder, name))
    except BaseException:
        os.unlink(tmp)
        raise


def read_phase_csv(path: str):
    """Parse an emitted phase CSV back into row dicts keyed by column name,
    each value read as its column's type in `_PHASE_CSV_COLUMNS`.  A header
    other than `PHASE_CSV_HEADER`, columns reordered included, raises
    ValueError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != PHASE_CSV_HEADER.split(","):
            raise ValueError("unexpected phase CSV header")
        return [{name: kind(row[name]) for name, kind, _ in _PHASE_CSV_COLUMNS} for row in reader]


# ---------------------------------------------------------------------------
# concentration verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    model: MixtureModel
    n: int = 4
    l_grid: tuple = (1, 2)
    tau: float = 0.01
    pairs: int = 100_000
    cut_samples: int = 10_000
    node_draws: int = 100_000
    imbalance_draws: int = 10_000
    imbalance_l: int = 4
    t_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    seed: int = 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: str
    target: float
    empirical: float
    tolerance: str
    passed: bool | None
    note: str = ""


@dataclass(frozen=True)
class ConcentrationReport:
    k: int
    gamma: float
    n: int
    checks: tuple

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


# Words per Philox block: each counter value yields four 64-bit words.
_PHILOX_WORDS = 4


def _cpu_count() -> int:
    """CPUs this process may run on: the number of stretches of a draw."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _philox_at(rng, words: int) -> np.random.Generator:
    """A new generator on `rng`'s Philox stream, `words` 64-bit words past
    `rng`'s position; `rng` itself is not moved.

    The copy first uses up what is left of the current 4-word block, then
    skips whole blocks by moving the counter (`advance`, which also empties
    the buffer) and discards the rest of the last block word by word."""
    state = rng.bit_generator.state
    bit_generator = np.random.Philox()
    bit_generator.state = state
    head = min(words, _PHILOX_WORDS - state["buffer_pos"])
    bit_generator.random_raw(head, output=False)
    if words > head:
        bit_generator.advance((words - head) // _PHILOX_WORDS)
        bit_generator.random_raw((words - head) % _PHILOX_WORDS, output=False)
    return np.random.Generator(bit_generator)


def _draw_reduced(rng, m: int, p: np.ndarray, reduce) -> np.ndarray:
    """Per-sample values of m >= 1 Bernoulli samples of shape p.shape, drawn
    in blocks of whole samples on every available CPU.

    Bit [i, ...] of sample i is set with probability p[...].  `reduce` maps
    a block of bits of shape (r,) + p.shape to its r per-sample values, and
    the values of all m samples are returned as one array.

    Sample i takes raw words [i * p.size, (i + 1) * p.size) of `rng`'s
    Philox stream, in C order, and each word is decided against the
    `bernoulli_thresholds` of p, made once per call.  The sample axis is
    split into one contiguous stretch per CPU (`_cpu_count`); the calling
    thread draws stretch 0 and one thread each the others.  Philox is
    counter-based, so each stretch reads its words from its own bit
    generator placed at its first word (`_philox_at`), with no walk through
    the words before it.  A stretch draws its rows in blocks of about
    `BLOCK_VALUES` words, decides them into a bool buffer of its own,
    releases the block's words before drawing the next, and writes the
    reduced values into the shared result.  So the bits equal
    `rng.random((m,) + p.shape) < p` for any number of stretches, and `rng`
    ends in the state that one such call leaves.  The values equal `reduce`
    of those bits whenever `reduce` gives each sample a value from that
    sample's bits alone, as every check's reduction does.  An exception
    raised in any stretch is raised here once all have ended.
    """
    per = max(1, BLOCK_VALUES // p.size)
    stretches = min(_cpu_count(), m)
    bounds = [m * i // stretches for i in range(stretches + 1)]
    thresholds = bernoulli_thresholds(p)

    def blocks(lo: int, hi: int):
        bit_generator = _philox_at(rng, lo * p.size).bit_generator
        bits = np.empty((min(per, hi - lo),) + p.shape, dtype=bool)
        for start in range(lo, hi, per):
            r = min(per, hi - start)
            words = bit_generator.random_raw(r * p.size).reshape(bits[:r].shape)
            bernoulli_bits(words, thresholds, out=bits[:r])
            del words
            yield start, reduce(bits[:r])

    first = blocks(bounds[0], bounds[1])
    _, block = next(first)
    values = np.empty((m,) + block.shape[1:], dtype=block.dtype)
    values[:len(block)] = block
    errors = [None] * stretches

    def fill(i: int, stretch) -> None:
        try:
            for start, block in stretch:
                values[start:start + len(block)] = block
        except BaseException as exc:
            errors[i] = exc

    threads = [
        threading.Thread(target=fill, args=(i, blocks(bounds[i], bounds[i + 1])))
        for i in range(1, stretches)
    ]
    for thread in threads:
        thread.start()
    fill(0, first)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    rng.bit_generator.state = _philox_at(rng, m * p.size).bit_generator.state
    return values


def _mean_check(name: str, statistic: str, target: float, samples: np.ndarray) -> CheckResult:
    """Passes when the sample mean lies within 3 standard errors of target."""
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    return CheckResult(
        name=name,
        statistic=statistic,
        target=target,
        empirical=mean,
        tolerance=f"3 SE = {3 * se:.4g}",
        passed=abs(mean - target) <= 3 * se,
    )


def _check_pair_gap_mean(cfg: VerifyConfig, gamma: float) -> CheckResult:
    """Mean of diff(X) + diff(Y) over independent pairs vs K gamma."""
    model, m = cfg.model, cfg.pairs
    rng = philox(cfg.seed, 1)
    dx = _draw_reduced(rng, m, model.p1, lambda bits: diff_node(bits, model, 1))
    dy = _draw_reduced(rng, m, model.p2, lambda bits: diff_node(bits, model, 2))
    return _mean_check("pair_gap_mean", f"mean diff(X)+diff(Y), {m} pairs", model.k * gamma, dx + dy)


def _check_cut_gap_mean(cfg: VerifyConfig, gamma: float, l: int) -> CheckResult:
    """Mean cut-score difference for a fixed L-swap cut over resampled
    datasets vs (N-L) L K gamma.  The truth cut puts rows 0..N-1 on side_s;
    the L-swap cut trades rows N-L..N-1 for rows 2N-L..2N-1."""
    n, k, m = cfg.n, cfg.model.k, cfg.cut_samples
    rng = philox(cfg.seed, 2, l)
    probs = np.concatenate([np.tile(cfg.model.p1, n), np.tile(cfg.model.p2, n)]).reshape(2 * n, k)
    other_s = np.concatenate([np.arange(n - l), np.arange(2 * n - l, 2 * n)])

    def cut_gap(bits):
        w_truth = score_cut_weight(bits, np.arange(n), np.arange(n, 2 * n))
        return score_cut_weight(bits, other_s, np.arange(n - l, 2 * n - l)) - w_truth

    return _mean_check(
        f"cut_gap_mean_L{l}",
        f"mean score(S,Sbar)-score(T), N={n} L={l}, {m} datasets",
        (n - l) * l * k * gamma,
        _draw_reduced(rng, m, probs, cut_gap).astype(np.float64),
    )


def _check_bad_node_rate(cfg: VerifyConfig, gamma: float) -> CheckResult:
    """Frequency of nodes whose score gap drops K gamma / 4 below its
    expectation, vs tau under the K >= 8 ln(1/tau)/gamma hypothesis."""
    model, k = cfg.model, cfg.model.k
    threshold_k = bad_node_threshold_k(cfg.tau, gamma)
    rng = philox(cfg.seed, 3)
    half = cfg.node_draws // 2
    bad = np.concatenate([
        _draw_reduced(rng, half, model.p1, lambda bits: is_bad_node(bits, model, 1)),
        _draw_reduced(rng, half, model.p2, lambda bits: is_bad_node(bits, model, 2)),
    ])
    freq = float(bad.mean())
    m = bad.size
    slack = 3.0 * math.sqrt(cfg.tau * (1 - cfg.tau) / m)
    met = k >= threshold_k
    return CheckResult(
        name="bad_node_rate",
        statistic=f"bad-node frequency, {m} draws, tau={cfg.tau}",
        target=cfg.tau,
        empirical=freq,
        tolerance=f"tau + 3 binomial SE = {cfg.tau + slack:.4g}",
        passed=(freq <= cfg.tau + slack) if met else None,
        note="" if met else f"hypothesis unmet: K={k} < {threshold_k}",
    )


def _imbalance_deviations(cfg: VerifyConfig, key: int):
    """|t_k| samples: per-dimension swap-imbalance deviations over draws of
    the two swapped groups, scaled by sqrt(L), yielded in blocks of whole
    draws.

    Each group's L x K bits per draw come from `_draw_reduced` with the
    (L, K) broadcast of its center, and each block is summed over its L axis
    at once, so only the m x K column counts u and v are kept whole.  They
    are exact in a small signed type: the smallest one that holds -L - 1
    holds every count and every u - v in [-L, L].  The float64 deviations
    are formed from them in blocks of about `BLOCK_VALUES` values, into
    one buffer that each block overwrites, so a caller must be done with a
    block (and may overwrite it) before asking for the next."""
    p1, p2 = cfg.model.p1, cfg.model.p2
    l, m = cfg.imbalance_l, cfg.imbalance_draws
    rng = philox(cfg.seed, key)
    count = np.min_scalar_type(-l - 1)

    def column_counts(bits):
        return bits.sum(axis=1, dtype=count)

    u = _draw_reduced(rng, m, np.broadcast_to(p1, (l, p1.size)), column_counts)
    v = _draw_reduced(rng, m, np.broadcast_to(p2, (l, p2.size)), column_counts)
    shift, scale = l * (p1 - p2), math.sqrt(l)
    rows = max(1, BLOCK_VALUES // p1.size)
    dev = np.empty((min(rows, m), p1.size))
    for start in range(0, m, rows):
        block = dev[:min(rows, m - start)]
        np.subtract(u[start:start + rows], v[start:start + rows], out=block, dtype=np.float64)
        block -= shift
        np.abs(block, out=block)
        block /= scale
        yield block


def _check_imbalance_tail(cfg: VerifyConfig) -> list:
    """Per-dimension deviation tail vs 2 exp(-t^2) across the t grid; the
    reported empirical value is the worst dimension.  The hits of each
    (t, k) are counted exactly, block by block."""
    m = cfg.imbalance_draws
    hits = np.zeros((len(cfg.t_grid), cfg.model.k), dtype=np.int64)
    for dev in _imbalance_deviations(cfg, 4):
        for i, t in enumerate(cfg.t_grid):
            hits[i] += np.count_nonzero(dev >= t, axis=0)
    out = []
    for t, row in zip(cfg.t_grid, hits):
        emp = int(row.max()) / m
        bound = 2.0 * math.exp(-t * t)
        if bound >= 1.0:
            passed = True
            tol = "trivial (bound >= 1)"
        else:
            slack = 4.0 * math.sqrt(bound * (1.0 - bound) / m) + 1.0 / m
            passed = emp <= bound + slack
            tol = f"bound + 4 SE = {bound + slack:.4g}"
        out.append(
            CheckResult(
                name=f"imbalance_tail_t{t:g}",
                statistic=f"max_k freq(|t_k| >= {t:g}), L={cfg.imbalance_l}, {m} draws",
                target=bound,
                empirical=emp,
                tolerance=tol,
                passed=passed,
            )
        )
    return out


def _check_delta_event_rate(cfg: VerifyConfig) -> CheckResult:
    """Frequency of the simultaneous-deviation event sum_k t_k^2 >= Delta
    vs the order-bound stand-in, with a safety factor of 10.  Each draw's
    sum over K is taken within its block, so it is the same pairwise sum
    as over the whole m x K array."""
    m = cfg.imbalance_draws
    budget = delta(cfg.n, cfg.model.k)
    events = 0
    for dev in _imbalance_deviations(cfg, 5):
        events += int(np.count_nonzero(np.sum(np.square(dev, out=dev), axis=1) >= budget))
    freq = events / m
    standin = rho2_standin(cfg.n)
    return CheckResult(
        name="delta_event_rate",
        statistic=f"freq(sum t_k^2 >= {budget:.4g}), {m} draws",
        target=standin,
        empirical=freq,
        tolerance=f"stand-in x 10 = {standin * 10:.4g} (order bound only)",
        passed=freq <= standin * 10.0,
    )


def verify_concentration(cfg: VerifyConfig) -> ConcentrationReport:
    """Run the five named concentration checks against the configured model."""
    gamma = divergence(cfg.model)
    if gamma == 0.0:
        raise ValidationError("verification needs gamma > 0")
    if cfg.n < 4:
        raise ValidationError("verification needs N >= 4 (deviation budget)")
    if not 0.0 < cfg.tau < 1.0:
        raise ValidationError(f"verification needs 0 < tau < 1, got tau={cfg.tau}")
    # two samples for a standard error; node_draws splits into two halves
    for name, least in (("pairs", 2), ("cut_samples", 2), ("node_draws", 2),
                        ("imbalance_draws", 1), ("imbalance_l", 1)):
        if getattr(cfg, name) < least:
            raise ValidationError(f"verification needs {name} >= {least}, got {name}={getattr(cfg, name)}")
    for l in cfg.l_grid:
        if l < 1 or 2 * l > cfg.n:
            raise ValidationError("each L must satisfy 1 <= L <= N/2")
    checks = [_check_pair_gap_mean(cfg, gamma)]
    checks += [_check_cut_gap_mean(cfg, gamma, l) for l in cfg.l_grid]
    checks.append(_check_bad_node_rate(cfg, gamma))
    checks += _check_imbalance_tail(cfg)
    checks.append(_check_delta_event_rate(cfg))
    return ConcentrationReport(k=cfg.model.k, gamma=gamma, n=cfg.n, checks=tuple(checks))


def format_report(report: ConcentrationReport) -> str:
    lines = [
        f"concentration checks: K={report.k} gamma={report.gamma:.6g} N={report.n}",
        f"{'check':<24} {'target':>12} {'empirical':>12} {'tolerance':>28} verdict",
    ]
    for c in report.checks:
        verdict = "PASS" if c.passed else ("SKIP" if c.passed is None else "FAIL")
        line = (
            f"{c.name:<24} {c.target:>12.6g} {c.empirical:>12.6g} "
            f"{c.tolerance:>28} {verdict}"
        )
        if c.note:
            line += f"  [{c.note}]"
        lines.append(line)
    return "\n".join(lines)
