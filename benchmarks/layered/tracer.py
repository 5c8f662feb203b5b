"""Traced rounds and the per-layer metrics drawn from their spans.

A traced round of a phase sweep first runs harness.phase_diagram at the
default worker count with harness.run_trial wrapped to record each trial's
own busy time, for the pool's busy share.  It then runs every trial twice:
once through the layer calls of layers.run_trial_layers (spans around each
call), once through harness.run_trial (one span), and requires equal
records.  Last, phase_diagram runs at one worker replaying the recorded
trials, which leaves only its own work (validation, model resolution,
aggregation and the CSV), and must write the same CSV.  A traced verify
round runs the five check families from the benchmark's code and requires
the report verify_concentration gives.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import checks
import layers
from layers import VERIFY_CHECKS
from mixcut import harness, model as model_mod
from workloads import VERIFY_SEEDS, WORKLOADS, phase_configs

EXACT, HEURISTIC, VERIFY = WORKLOADS
TRIAL_LAYERS = ("model.sample", "graph.build_graph", "solvers.exact", "solvers.hillclimb",
                "solvers.spectral", "graph.judge")

UNITS = {
    "cli.import_s": "s",
    "cli.config_s": "s",
    "model.sample_ms": "ms",
    "graph.build_graph_ms": "ms",
    "graph.build_graph_gmac_per_s": "GMAC/s",
    "graph.judge_ms": "ms",
    "solvers.exact_ms": "ms",
    "solvers.exact_cuts_per_s": "cuts/s",
    "solvers.exact_evaluations": "count",
    "solvers.hillclimb_ms": "ms",
    "solvers.hillclimb_evals_per_s": "evals/s",
    "solvers.spectral_ms": "ms",
    "harness.trial_overhead_ms": "ms",
    **{f"harness.run_trial_ms.{w}": "ms" for w in (EXACT, HEURISTIC)},
    **{f"harness.aggregate_csv_ms.{w}": "ms" for w in (EXACT, HEURISTIC)},
    **{f"harness.pool_busy_share.{w}": "share" for w in (EXACT, HEURISTIC)},
    **{f"harness.verify.{c}_ms": "ms" for c in VERIFY_CHECKS},
    "harness.verify.draws_per_s": "draws/s",
    **{f"trace.ops_per_s.{w}": "ops/s" for w in WORKLOADS},
}


@contextmanager
def _run_trial_replaced(fn):
    """harness.run_trial replaced by fn(original) for the block."""
    original = harness.run_trial
    harness.run_trial = fn(original)
    try:
        yield
    finally:
        harness.run_trial = original


class Tracer:
    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.spans = layers.Spans()
        self.ops = {}
        self.attempted = 0
        self.failed = []
        self.problems = []

    def _new_op(self, **meta) -> int:
        op = len(self.ops) + 1
        self.ops[op] = meta
        return op

    def run_round(self, workload: str, seed: int, rnd: int) -> None:
        if workload == VERIFY:
            for op_seed in VERIFY_SEEDS:
                self._verify_op(op_seed, rnd)
        else:
            for payload in phase_configs(workload, seed):
                self._sweep(workload, payload, rnd)

    def _verify_op(self, op_seed: int, rnd: int) -> None:
        cfg = layers.verify_config(op_seed)
        op = self._new_op(workload=VERIFY, round=rnd, draws=layers.verify_draws(cfg))
        start = time.perf_counter()
        report = layers.run_verify_layers(cfg, self.spans, op)
        self.spans.rows.append((op, "op", start, time.perf_counter()))
        with self.spans.span(op, "harness.verify_concentration"):
            expected = harness.verify_concentration(cfg)
        if report != expected:
            self.problems.append(f"verify seed {op_seed}: traced checks differ from verify_concentration")
        self.attempted += 1
        problems = checks.check_verify(report, cfg)
        if problems:
            self.failed.append({"op": f"verify seed {op_seed}", "problems": problems})

    def _sweep(self, workload: str, payload: dict, rnd: int) -> None:
        output = self.tmp / "traced.csv"
        config = harness.ExperimentConfig.from_dict({**payload, "output": str(output)})
        busy = []

        def recording(original):
            def run(*args):
                rec = original(*args)
                busy.append(rec.wall_time)
                return rec
            return run

        sweep_op = self._new_op(workload=workload, round=rnd, sweep=config.method)
        output.unlink(missing_ok=True)  # a rewrite would time the file system (run.py)
        with _run_trial_replaced(recording), layers.mixcut_threads(None):
            workers = min(harness.worker_count(), len(config.n_values) * len(config.k_values) * config.trials)
            start = time.perf_counter()
            harness.phase_diagram(config)
            wall = time.perf_counter() - start
        self.ops[sweep_op].update(busy=sum(busy), capacity=wall * workers)
        pooled = output.read_text()
        output.unlink()

        records = {}

        def compare(op, tr, mdl):
            with self.spans.span(op, "harness.run_trial"):
                rec = harness.run_trial(config, mdl, tr.n, tr.k, tr.trial)
            self.ops[op]["evaluations"] = tr.result.evaluations
            if rec != tr.record(model_mod.divergence(mdl)):
                self.problems.append(f"{config.method} N={tr.n} K={tr.k} trial {tr.trial}: "
                                     "traced record differs from run_trial's")
            records[(tr.n, tr.k, tr.trial)] = rec

        failed, problems = layers.checked_sweep(
            config, payload, pooled, self.spans,
            lambda **cell: self._new_op(workload=workload, round=rnd, **cell), compare)
        self.attempted += len(records)
        self.failed += failed
        self.problems += problems
        with _run_trial_replaced(lambda _original: lambda _c, _m, n, k, t: records[(n, k, t)]):
            with layers.mixcut_threads(1), self.spans.span(sweep_op, "harness.aggregate_csv"):
                harness.phase_diagram(config)
        if output.read_text() != pooled:
            self.problems.append(f"{config.method} sweep: CSV from recorded trials differs from the pooled run")

    # -- metrics ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Median over rounds of each metric; median_low keeps an observed
        value, so counts stay whole."""
        per_round = [self._round_metrics(r) for r in range(rounds)]
        return {name: (statistics.median_low(m[name] for m in per_round), UNITS[name])
                for name in per_round[0]}

    def _round_metrics(self, rnd: int) -> dict:
        spans = {}
        for op, name, start, end in self.spans.rows:
            spans.setdefault(op, {})[name] = end - start
        ops = [(meta, spans.get(op, {})) for op, meta in self.ops.items() if meta["round"] == rnd]

        def pick(name, **where):
            return [(m, d[name]) for m, d in ops
                    if name in d and all(m.get(key) == v for key, v in where.items())]

        def ms_per_call(name, **where):
            got = [d for _m, d in pick(name, **where)]
            return 1e3 * sum(got) / len(got)

        def per_second(name, count, **where):
            got = pick(name, **where)
            return sum(count(m) for m, _d in got) / sum(d for _m, d in got)

        out = {
            "model.sample_ms": ms_per_call("model.sample", workload=HEURISTIC, k=2000),
            "graph.build_graph_ms": ms_per_call("graph.build_graph", workload=HEURISTIC, k=2000),
            "graph.build_graph_gmac_per_s": 1e-9 * per_second(
                "graph.build_graph", lambda m: (2 * m["n"]) ** 2 * m["k"], workload=HEURISTIC),
            "graph.judge_ms": ms_per_call("graph.judge", workload=EXACT, n=6),
            "solvers.exact_ms": ms_per_call("solvers.exact", n=10),
            "solvers.exact_cuts_per_s": per_second("solvers.exact", lambda m: m["evaluations"]),
            "solvers.exact_evaluations": pick("solvers.exact", n=10)[0][0]["evaluations"],
            "solvers.hillclimb_ms": ms_per_call("solvers.hillclimb"),
            "solvers.hillclimb_evals_per_s": per_second("solvers.hillclimb", lambda m: m["evaluations"]),
            "solvers.spectral_ms": ms_per_call("solvers.spectral"),
            "harness.trial_overhead_ms": 1e3 * statistics.median(
                d["harness.run_trial"] - sum(d.get(s, 0.0) for s in TRIAL_LAYERS)
                for m, d in ops if m["workload"] == EXACT and m.get("n") == 6),
        }
        for w in (EXACT, HEURISTIC):
            sweeps = [m for m, _d in ops if m["workload"] == w and "sweep" in m]
            out[f"harness.run_trial_ms.{w}"] = ms_per_call("harness.run_trial", workload=w)
            out[f"harness.aggregate_csv_ms.{w}"] = ms_per_call("harness.aggregate_csv", workload=w)
            out[f"harness.pool_busy_share.{w}"] = (
                sum(m["busy"] for m in sweeps) / sum(m["capacity"] for m in sweeps))
        for c in VERIFY_CHECKS:
            out[f"harness.verify.{c}_ms"] = ms_per_call(f"harness.verify.{c}")
        out["harness.verify.draws_per_s"] = per_second("op", lambda m: m["draws"], workload=VERIFY)
        for w in WORKLOADS:
            # the traced counterpart of one untraced sweep at one worker: the
            # traced trials plus phase_diagram's own work
            busy = [d for _m, d in pick("op", workload=w) + pick("harness.aggregate_csv", workload=w)]
            out[f"trace.ops_per_s.{w}"] = len(pick("op", workload=w)) / sum(busy)
        return out
