"""Calls into mixcut's layers from the benchmark's own code.

`run_trial_layers` makes the calls harness.run_trial makes, in its order,
and `run_verify_layers` the calls harness.verify_concentration makes; each
call is wrapped in a span.  `check_trial` checks a trial's outputs with
the independent computations in checks.py.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import checks
from mixcut import graph, harness, kernels, model as model_mod, solvers
from workloads import VERIFY_GAMMA, VERIFY_K

METRICS = {"hamming": graph.Metric.HAMMING, "score": graph.Metric.SCORE}

VERIFY_CHECKS = ("pair_gap_mean", "cut_gap_mean", "bad_node_rate", "imbalance_tail", "delta_event_rate")


class Spans:
    """Spans kept in memory: (op id, name, start, end) in perf_counter seconds."""

    def __init__(self):
        self.rows = []

    @contextmanager
    def span(self, op: int, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((op, name, start, time.perf_counter()))


@dataclass
class Trial:
    n: int
    k: int
    trial: int
    seed: int
    dataset: object
    graph: object
    result: object
    true_weight: int
    l_from_truth: int

    def record(self, gamma: float) -> harness.TrialRecord:
        """The record harness.run_trial builds from the same layer outputs."""
        tie = self.result.tie and self.true_weight == self.result.best_weight
        return harness.TrialRecord(
            n=self.n, k=self.k, gamma=gamma, trial=self.trial, seed=self.seed,
            success=self.l_from_truth == 0 and not tie,
            best_weight=self.result.best_weight, true_weight=self.true_weight,
            l_from_truth=self.l_from_truth, tie=tie,
        )


def run_trial_layers(config, mdl, n: int, k: int, t: int, spans: Spans, op: int) -> Trial:
    seed = model_mod.derive_seed(config.seed, n, k, t)
    metric = METRICS[config.metric]
    with spans.span(op, "model.sample"):
        dataset = model_mod.sample(mdl, n, seed)
    with spans.span(op, "graph.build_graph"):
        g = graph.build_graph(dataset, metric)
    with spans.span(op, f"solvers.{config.method}"):
        if config.method == "exact":
            result = solvers.solve_exact(g, cap_nodes=config.cap_nodes)
        elif config.method == "hillclimb":
            result = solvers.solve_hillclimb(
                g, restarts=config.restarts, seed=seed, first_improvement=config.first_improvement,
            )
        else:
            result = solvers.solve_spectral(dataset, metric)
    with spans.span(op, "graph.judge"):
        truth = graph.true_partition(dataset)
        true_weight = graph.cut_weight(g, truth)
        l_from_truth = graph.swap_count(truth, result.best_cut)
    return Trial(n, k, t, seed, dataset, g, result, true_weight, l_from_truth)


def check_trial(config, tr: Trial):
    """Problems with one trial's outputs, and its (success, L) recounted
    under the harness's success rule from independently checked parts."""
    bits = tr.dataset.bits
    weights = checks.hamming_matrix(bits)
    problems = checks.check_graph(bits, tr.graph.weights)
    res = tr.result
    side = tuple(res.best_cut.side_s)
    if config.method == "exact":
        problems += checks.check_exact(weights, side, res.best_weight, res.tie, res.evaluations)
    elif config.method == "hillclimb":
        problems += checks.check_hillclimb(weights, side, res.best_weight)
        endpoints = []
        for r in range(config.restarts):
            start = checks.restart_start(tr.seed, r, weights.shape[0])
            w, m, _evals, _moves = kernels.hillclimb_sweep(tr.graph.weights, start, config.first_improvement)
            endpoints.append((w, m))
        problems += checks.check_tie(res.tie, res.best_weight, endpoints)
    else:
        problems += checks.check_cut(weights, side, res.best_weight, "spectral")
        problems += checks.check_spectral(bits, side)
    truth_side = tuple(int(i) for i in np.flatnonzero(tr.dataset.labels == 1))
    true_weight = checks.cut_weight_of(weights, truth_side)
    if true_weight != tr.true_weight:
        problems.append(f"judge: true cut weighs {true_weight}, reported {tr.true_weight}")
    l, success, _tie = checks.judge(truth_side, side, tr.n, res.tie, true_weight, res.best_weight)
    if l != tr.l_from_truth:
        problems.append(f"judge: L={tr.l_from_truth}, recount {l}")
    return problems, (success, l)


def checked_sweep(config, payload: dict, text: str, spans: Spans, new_op, on_trial=None):
    """Run every trial of one sweep through the layers, in phase_diagram's
    task order, and check each; then check the sweep's CSV `text` against a
    recount of the checked trials.

    new_op(n=, k=) gives each trial's op id; on_trial(op, trial, model)
    runs after the trial's spans.  Returns (failed operations, problems)."""
    config.validate()
    models = {k: harness.resolve_model(config.model_source, k) for k in config.k_values}
    gamma = payload["model"]["constant_gap"]["gamma"]
    problems = [p for m in models.values() for p in checks.check_constant_gap(m.p1, m.p2, gamma)]
    gammas = {k: float(((m.p1 - m.p2) ** 2).mean()) for k, m in models.items()}
    failed, cells = [], {}
    for n in config.n_values:
        for k in config.k_values:
            cells[(n, k)] = []
            for t in range(config.trials):
                op = new_op(n=n, k=k)
                start = time.perf_counter()
                tr = run_trial_layers(config, models[k], n, k, t, spans, op)
                spans.rows.append((op, "op", start, time.perf_counter()))
                if on_trial is not None:
                    on_trial(op, tr, models[k])
                bad, judged = check_trial(config, tr)
                cells[(n, k)].append(judged)
                if bad:
                    failed.append({"op": f"{config.method} N={n} K={k} trial {t}", "problems": bad})
    problems += checks.check_phase_csv(text, payload, gammas, cells)
    return failed, problems


def run_verify_layers(cfg, spans: Spans, op: int):
    gamma = model_mod.divergence(cfg.model)
    with spans.span(op, "harness.verify.pair_gap_mean"):
        found = [harness._check_pair_gap_mean(cfg, gamma)]
    with spans.span(op, "harness.verify.cut_gap_mean"):
        found += [harness._check_cut_gap_mean(cfg, gamma, l) for l in cfg.l_grid]
    with spans.span(op, "harness.verify.bad_node_rate"):
        found.append(harness._check_bad_node_rate(cfg, gamma))
    with spans.span(op, "harness.verify.imbalance_tail"):
        found += harness._check_imbalance_tail(cfg)
    with spans.span(op, "harness.verify.delta_event_rate"):
        found.append(harness._check_delta_event_rate(cfg))
    return harness.ConcentrationReport(k=cfg.model.k, gamma=gamma, n=cfg.n, checks=tuple(found))


def verify_config(op_seed: int) -> harness.VerifyConfig:
    """The config `mixcut verify --gap-gamma 0.2 --k 200 --seed s` builds."""
    mdl = model_mod.constant_gap_mixture(VERIFY_K, gamma=VERIFY_GAMMA)
    return harness.VerifyConfig(model=mdl, seed=op_seed)


def verify_draws(cfg) -> int:
    """Bernoulli draws one verify_concentration call makes."""
    k, two_n = cfg.model.k, 2 * cfg.n
    return (
        2 * cfg.pairs * k
        + len(cfg.l_grid) * cfg.cut_samples * two_n * k
        + 2 * (cfg.node_draws // 2) * k
        + 4 * cfg.imbalance_draws * cfg.imbalance_l * k
    )


@contextmanager
def mixcut_threads(value):
    """MIXCUT_THREADS set to `value` (None: unset) for the block."""
    saved = os.environ.pop("MIXCUT_THREADS", None)
    if value is not None:
        os.environ["MIXCUT_THREADS"] = str(value)
    try:
        yield
    finally:
        os.environ.pop("MIXCUT_THREADS", None)
        if saved is not None:
            os.environ["MIXCUT_THREADS"] = saved
