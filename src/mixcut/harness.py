"""Monte Carlo experiment runner: recovery sweeps, CSV emission, and the
empirical concentration-verification suite.

Every artifact is a pure function of (config, master seed): trial seeds are
derived as a stable hash of (master seed, N, K, trial index), workers only
change scheduling, and records are sorted by (N, K, trial) before any
aggregation.  ``MIXCUT_THREADS`` caps the worker count (speed only, never
output).

Each trial goes through `solvers.solve` and `solvers.judge`: a success
needs the solver's cut to equal the hidden partition AND no other cut to
tie its weight; ties involving the true partition are tallied separately.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import Metric, build_graph
from .model import (
    MixtureModel,
    constant_gap_mixture,
    derive_seed,
    divergence,
    figure1_mixture,
    load_model,
    sample,
)
from .solvers import DEFAULT_ENUMERATION_CAP, EnumerationCapError, judge, solve
from .theory import delta, required_k

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
    "run_trial",
    "run_cell",
    "phase_diagram",
    "read_phase_csv",
    "verify_concentration",
    "format_report",
    "worker_count",
]

PHASE_CSV_HEADER = (
    "N,K,gamma,method,metric,trials,successes,success_rate,mean_L,"
    "required_K_case,required_K_value,seed"
)

_METHODS = ("exact", "hillclimb", "spectral")
_METRICS = {"hamming": Metric.HAMMING, "score": Metric.SCORE}
_REQUIRED_KEYS = ("model", "n_values", "k_values", "trials", "method", "metric", "seed", "output")
_CONFIG_KEYS = _REQUIRED_KEYS + ("restarts", "first_improvement", "cap_nodes")


class ValidationError(ValueError):
    """Config or model fails a precondition (distinct from usage errors)."""


def _json_int(key: str, value) -> int:
    """`value` if it is a JSON integer (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"config key {key!r} must be a JSON integer, got {value!r}")
    return value


def _json_ints(key: str, values) -> tuple:
    if not isinstance(values, list):
        raise ValidationError(f"config key {key!r} must be a JSON list of integers, got {values!r}")
    return tuple(_json_int(key, v) for v in values)


def _json_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"config key {key!r} must be a JSON string, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    model_source: dict
    n_values: tuple
    k_values: tuple
    trials: int
    method: str
    metric: str
    seed: int
    output: str
    restarts: int = 8
    first_improvement: bool = False
    cap_nodes: int = DEFAULT_ENUMERATION_CAP

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValidationError(f"a config must be a JSON object, got {payload!r}")
        unknown = sorted(set(payload) - set(_CONFIG_KEYS))
        if unknown:
            raise ValidationError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"expected keys: {', '.join(_CONFIG_KEYS)}"
            )
        missing = [key for key in _REQUIRED_KEYS if key not in payload]
        if missing:
            raise ValidationError(f"missing config key(s) {', '.join(map(repr, missing))}")
        if not isinstance(payload["model"], dict):
            raise ValidationError(f"config key 'model' must be a JSON object, got {payload['model']!r}")
        first_improvement = payload.get("first_improvement", False)
        if not isinstance(first_improvement, bool):
            raise ValidationError(
                f"config key 'first_improvement' must be true or false, got {first_improvement!r}"
            )
        return cls(
            model_source=payload["model"],
            n_values=_json_ints("n_values", payload["n_values"]),
            k_values=_json_ints("k_values", payload["k_values"]),
            trials=_json_int("trials", payload["trials"]),
            method=_json_str("method", payload["method"]),
            metric=_json_str("metric", payload["metric"]),
            seed=_json_int("seed", payload["seed"]),
            output=_json_str("output", payload["output"]),
            restarts=_json_int("restarts", payload.get("restarts", 8)),
            first_improvement=first_improvement,
            cap_nodes=_json_int("cap_nodes", payload.get("cap_nodes", DEFAULT_ENUMERATION_CAP)),
        )

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
        if self.method not in _METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.metric not in _METRICS:
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


def resolve_model(model_source: dict, k: int) -> MixtureModel:
    """Instantiate the configured model at dimension count k."""
    if "file" in model_source:
        model = load_model(model_source["file"])
        if model.k != k:
            raise ValidationError(
                f"model file has K={model.k} but the cell requests K={k}"
            )
        return model
    if "figure1" in model_source:
        params = dict(model_source["figure1"] or {})
        return figure1_mixture(k, **params)
    if "constant_gap" in model_source:
        params = dict(model_source["constant_gap"])
        return constant_gap_mixture(k, **params)
    raise ValidationError("model source needs one of: file, figure1, constant_gap")


def _checked_model(model_source: dict, k: int) -> MixtureModel:
    model = resolve_model(model_source, k)
    if divergence(model) == 0.0:
        raise ValidationError("model has gamma = 0; separation is impossible")
    return model


def run_trial(config: ExperimentConfig, model: MixtureModel, n: int, k: int, trial: int) -> TrialRecord:
    gamma = divergence(model)
    seed = derive_seed(config.seed, n, k, trial)
    start = time.perf_counter()
    dataset = sample(model, n, seed)
    graph = build_graph(dataset, _METRICS[config.metric])
    result = solve(
        graph, dataset, config.method, restarts=config.restarts, seed=seed,
        first_improvement=config.first_improvement, cap_nodes=config.cap_nodes,
    )
    true_weight, l_from_truth, tie_with_truth, success = judge(graph, dataset, result)
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
    model = _checked_model(config.model_source, k)
    return [run_trial(config, model, n, k, t) for t in range(config.trials)]


def worker_count() -> int:
    env = os.environ.get("MIXCUT_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(
                f"MIXCUT_THREADS must be an integer worker count, got {env!r}"
            ) from None
    return min(8, os.cpu_count() or 1)


def _aggregate(config: ExperimentConfig, n: int, k: int, records) -> CellAggregate:
    records = sorted(records, key=lambda r: r.trial)
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


def _g6(x: float) -> str:
    return f"{x:.6g}"


def phase_diagram(config: ExperimentConfig):
    """Run the full (N, K) sweep and emit one aggregate CSV row per cell.

    Trials run concurrently; output bytes are independent of worker count.
    Returns the list of CellAggregate rows (the CSV is written to
    config.output).
    """
    config.validate()
    cells = [(n, k) for n in config.n_values for k in config.k_values]
    models = {k: _checked_model(config.model_source, k) for k in set(config.k_values)}
    tasks = [(n, k, t) for (n, k) in cells for t in range(config.trials)]
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda nt: run_trial(config, models[nt[1]], *nt), tasks)
            )
    else:
        results = [run_trial(config, models[k], n, k, t) for (n, k, t) in tasks]
    by_cell = {cell: [] for cell in cells}
    for rec in results:
        by_cell[(rec.n, rec.k)].append(rec)
    aggregates = [_aggregate(config, n, k, by_cell[(n, k)]) for (n, k) in cells]
    text = PHASE_CSV_HEADER + "\n" + "".join(
        f"{a.n},{a.k},{_g6(a.gamma)},{a.method},{a.metric},{a.trials},"
        f"{a.successes},{_g6(a.successes / a.trials)},{_g6(a.mean_l)},"
        f"{a.required_k_case},{_g6(a.required_k_value)},{a.seed}\n"
        for a in aggregates
    )
    _write_replacing(config.output, text)
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
    """Parse an emitted phase CSV back into typed row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != PHASE_CSV_HEADER.split(","):
            raise ValueError("unexpected phase CSV header")
        for row in reader:
            rows.append(
                {
                    "N": int(row["N"]),
                    "K": int(row["K"]),
                    "gamma": float(row["gamma"]),
                    "method": row["method"],
                    "metric": row["metric"],
                    "trials": int(row["trials"]),
                    "successes": int(row["successes"]),
                    "success_rate": float(row["success_rate"]),
                    "mean_L": float(row["mean_L"]),
                    "required_K_case": row["required_K_case"],
                    "required_K_value": float(row["required_K_value"]),
                    "seed": int(row["seed"]),
                }
            )
    return rows


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


def _rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _draw_bits(rng, count, p):
    return (rng.random((count, p.size)) < p).astype(np.int8)


def _check_pair_gap_mean(cfg: VerifyConfig, gamma: float) -> CheckResult:
    """Mean of diff(X) + diff(Y) over independent pairs vs K gamma."""
    p1, p2 = cfg.model.p1, cfg.model.p2
    rng = _rng(cfg.seed, 1)
    m = cfg.pairs
    gaps = p1 - p2
    dx = _draw_bits(rng, m, p1).astype(np.float64) @ gaps
    dy = _draw_bits(rng, m, p2).astype(np.float64) @ (-gaps)
    s = dx + dy
    mean = float(s.mean())
    se = float(s.std(ddof=1) / math.sqrt(m))
    target = cfg.model.k * gamma
    return CheckResult(
        name="pair_gap_mean",
        statistic=f"mean diff(X)+diff(Y), {m} pairs",
        target=target,
        empirical=mean,
        tolerance=f"3 SE = {3 * se:.4g}",
        passed=abs(mean - target) <= 3 * se,
    )


def _check_cut_gap_mean(cfg: VerifyConfig, gamma: float, l: int) -> CheckResult:
    """Mean cut-score difference for a fixed L-swap cut over resampled
    datasets vs (N-L) L K gamma."""
    n, k = cfg.n, cfg.model.k
    p1, p2 = cfg.model.p1, cfg.model.p2
    m = cfg.cut_samples
    rng = _rng(cfg.seed, 2, l)
    probs = np.concatenate([np.tile(p1, n), np.tile(p2, n)]).reshape(2 * n, k)
    bits = (rng.random((m, 2 * n, k)) < probs).astype(np.int64)
    scores = np.einsum("mik,mjk->mij", bits, bits)
    truth_s = np.arange(n)
    other_s = np.concatenate([np.arange(n - l), np.arange(2 * n - l, 2 * n)])
    all_nodes = np.arange(2 * n)
    truth_sbar = np.setdiff1d(all_nodes, truth_s)
    other_sbar = np.setdiff1d(all_nodes, other_s)
    w_truth = scores[:, truth_s][:, :, truth_sbar].sum(axis=(1, 2))
    w_other = scores[:, other_s][:, :, other_sbar].sum(axis=(1, 2))
    diff = (w_other - w_truth).astype(np.float64)
    mean = float(diff.mean())
    se = float(diff.std(ddof=1) / math.sqrt(m))
    target = (n - l) * l * k * gamma
    return CheckResult(
        name=f"cut_gap_mean_L{l}",
        statistic=f"mean score(S,Sbar)-score(T), N={n} L={l}, {m} datasets",
        target=target,
        empirical=mean,
        tolerance=f"3 SE = {3 * se:.4g}",
        passed=abs(mean - target) <= 3 * se,
    )


def _check_bad_node_rate(cfg: VerifyConfig, gamma: float) -> CheckResult:
    """Frequency of nodes whose score gap drops K gamma / 4 below its
    expectation, vs tau under the K >= 8 ln(1/tau)/gamma hypothesis."""
    p1, p2 = cfg.model.p1, cfg.model.p2
    k = cfg.model.k
    kg = k * gamma
    threshold_k = 8.0 * math.log(1.0 / cfg.tau) / gamma
    rng = _rng(cfg.seed, 3)
    half = cfg.node_draws // 2
    gaps = p1 - p2
    d1 = _draw_bits(rng, half, p1).astype(np.float64) @ gaps
    d2 = _draw_bits(rng, half, p2).astype(np.float64) @ (-gaps)
    eta1 = float(p1 @ gaps)
    eta2 = kg - eta1
    bad = np.concatenate([d1 < eta1 - kg / 4.0, d2 < eta2 - kg / 4.0])
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
        note="" if met else f"hypothesis unmet: K={k} < {threshold_k:.1f}",
    )


def _imbalance_deviations(cfg: VerifyConfig, key: int):
    """|t_k| samples: per-dimension swap-imbalance deviations over draws of
    the two swapped groups, scaled by sqrt(L)."""
    p1, p2 = cfg.model.p1, cfg.model.p2
    l, m, k = cfg.imbalance_l, cfg.imbalance_draws, cfg.model.k
    rng = _rng(cfg.seed, key)
    u = (rng.random((m, l, k)) < p1).astype(np.int64).sum(axis=1)
    v = (rng.random((m, l, k)) < p2).astype(np.int64).sum(axis=1)
    f2 = u - v
    expected = l * (p1 - p2)
    return np.abs(f2 - expected) / math.sqrt(l)


def _check_imbalance_tail(cfg: VerifyConfig) -> list:
    """Per-dimension deviation tail vs 2 exp(-t^2) across the t grid; the
    reported empirical value is the worst dimension."""
    dev = _imbalance_deviations(cfg, 4)
    m = dev.shape[0]
    out = []
    for t in cfg.t_grid:
        emp = float((dev >= t).mean(axis=0).max())
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
    vs the order-bound stand-in, with a safety factor of 10."""
    dev = _imbalance_deviations(cfg, 5)
    m = dev.shape[0]
    budget = delta(cfg.n, cfg.model.k)
    freq = float((np.sum(dev * dev, axis=1) >= budget).mean())
    standin = math.exp(-2.0 * cfg.n * math.log(2.0) - 1.5 * math.log(cfg.n))
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
