"""Tests of the benchmark's own checks and a short run of each workload.

Each check is fed the program's real output, which it must accept, and a
planted wrong answer, which it must flag.

    python3 -m pytest -q benchmarks/layered
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from mixcut import graph, harness, model, solvers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _dataset(n, k, gamma, seed=3):
    return model.sample(model.constant_gap_mixture(k, gamma=gamma), n, seed)


def _hamming(ds):
    return graph.build_graph(ds, graph.Metric.HAMMING)


def test_graph_check_flags_a_wrong_weight():
    ds = _dataset(4, 30, 0.25)
    g = _hamming(ds)
    assert checks.check_graph(ds.bits, g.weights) == []
    wrong = g.weights.copy()
    wrong[0, 1] += 1
    wrong[1, 0] += 1
    assert checks.check_graph(ds.bits, wrong)


def test_exact_check_flags_a_non_maximal_cut():
    ds = _dataset(5, 40, 0.25)
    g = _hamming(ds)
    res = solvers.solve_exact(g)
    side = tuple(res.best_cut.side_s)
    assert checks.check_exact(g.weights, side, res.best_weight, res.tie, res.evaluations) == []
    other = (0, 1, 2, 3, 9) if side != (0, 1, 2, 3, 9) else (0, 1, 2, 3, 8)
    weight = checks.cut_weight_of(checks.hamming_matrix(ds.bits), other)
    problems = checks.check_exact(g.weights, other, weight, res.tie, res.evaluations)
    assert any("is not the maximum" in p for p in problems)
    assert checks.check_exact(g.weights, side, res.best_weight, res.tie, res.evaluations - 1)


def test_exact_check_wants_the_lex_least_maximiser_and_the_tie_flag():
    flat = np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)  # every cut weighs 9
    assert checks.check_exact(flat, (0, 1, 2), 9, True, 10) == []
    assert any("lex-least" in p for p in checks.check_exact(flat, (0, 1, 3), 9, True, 10))
    assert any("tie=False" in p for p in checks.check_exact(flat, (0, 1, 2), 9, False, 10))


def test_hillclimb_check_flags_a_cut_with_an_improving_swap():
    ds = _dataset(16, 400, 0.25)
    g = _hamming(ds)
    res = solvers.solve_hillclimb(g, restarts=4, seed=1)
    side = tuple(res.best_cut.side_s)
    assert checks.check_hillclimb(g.weights, side, res.best_weight) == []
    rest = [v for v in range(32) if v not in side]
    worse = tuple(sorted(set(side[1:]) - {side[1]} | {0, rest[0]}))
    weight = checks.cut_weight_of(checks.hamming_matrix(ds.bits), worse)
    problems = checks.check_hillclimb(g.weights, worse, weight)
    assert any("1-swap gains" in p for p in problems)
    assert checks.check_hillclimb(g.weights, side, res.best_weight + 1)


def test_tie_check_flags_mirror_images_only():
    m = np.array([1, 1, 0, 0], dtype=np.uint8)
    mirror = 1 - m
    other = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert checks.check_tie(True, 7, [(7, m), (7, mirror)])
    assert checks.check_tie(True, 7, [(7, m), (7, other)]) == []
    assert checks.check_tie(False, 7, [(7, m), (5, other)]) == []
    assert checks.check_tie(False, 7, [(7, m), (7, other)])


def test_restart_start_matches_the_solver():
    ds = _dataset(8, 50, 0.05)
    g = _hamming(ds)
    res = solvers.solve_hillclimb(g, restarts=3, seed=11)
    from mixcut import kernels

    ends = [kernels.hillclimb_sweep(g.weights, checks.restart_start(11, r, 16))[:2] for r in range(3)]
    assert max(w for w, _ in ends) == res.best_weight


def test_spectral_check_flags_a_side_in_the_wrong_order():
    ds = _dataset(32, 400, 0.05)
    res = solvers.solve_spectral(ds, graph.Metric.HAMMING)
    side = tuple(res.best_cut.side_s)
    assert checks.check_spectral(ds.bits, side) == []
    order = np.argsort(-checks.leading_gram_vector(ds.bits), kind="stable")
    middle = order[16:48]
    assert checks.check_spectral(ds.bits, tuple(int(i) for i in middle))
    mirrored = tuple(int(i) for i in order[32:])
    assert checks.check_spectral(ds.bits, mirrored) == []


def _small_verify_config(seed=4):
    return harness.VerifyConfig(
        model=model.constant_gap_mixture(200, gamma=0.2), pairs=4000, cut_samples=400,
        node_draws=4000, imbalance_draws=1000, seed=seed,
    )


def test_verify_check_flags_a_wrong_target_and_a_wrong_verdict():
    cfg = _small_verify_config()
    report = harness.verify_concentration(cfg)
    assert checks.check_verify(report, cfg) == []
    for i, c in enumerate(report.checks):
        wrong = list(report.checks)
        wrong[i] = dataclasses.replace(c, target=c.target * 1.01 + 1e-6)
        planted = dataclasses.replace(report, checks=tuple(wrong))
        assert any("closed form" in p for p in checks.check_verify(planted, cfg)), c.name
    flipped = list(report.checks)
    flipped[0] = dataclasses.replace(flipped[0], passed=False)
    assert checks.check_verify(dataclasses.replace(report, checks=tuple(flipped)), cfg)


def test_verify_check_flags_every_failed_gated_check():
    cfg = _small_verify_config()
    report = harness.verify_concentration(cfg)
    c = report.checks[0]
    se = float(c.tolerance.rsplit("=", 1)[1]) / 3.0
    for deviation in (4, 10):  # a FAIL that agrees with its tolerance is still a failure
        planted = dataclasses.replace(c, empirical=c.target + deviation * se, passed=False)
        r = dataclasses.replace(report, checks=(planted, *report.checks[1:]))
        assert any("FAIL" in p for p in checks.check_verify(r, cfg)), deviation


def test_csv_check_flags_a_count_off_by_one(tmp_path):
    payload = {
        "model": {"constant_gap": {"gamma": 0.25}}, "n_values": [4, 5], "k_values": [10, 40],
        "trials": 3, "method": "exact", "metric": "hamming", "seed": 2,
    }
    config = harness.ExperimentConfig.from_dict({**payload, "output": str(tmp_path / "p.csv")})
    harness.phase_diagram(config)
    text = (tmp_path / "p.csv").read_text()
    spans = layers.Spans()
    cells, gammas = {}, {}
    for k in config.k_values:
        mdl = harness.resolve_model(config.model_source, k)
        gammas[k] = float(((mdl.p1 - mdl.p2) ** 2).mean())
        for n in config.n_values:
            cells[(n, k)] = [layers.check_trial(config, layers.run_trial_layers(config, mdl, n, k, t, spans, 0))[1]
                             for t in range(config.trials)]
    assert checks.check_phase_csv(text, payload, gammas, cells) == []
    lines = text.split("\n")
    row = lines[1].split(",")
    row[6] = str(int(row[6]) + 1)
    planted = "\n".join([lines[0], ",".join(row), *lines[2:]])
    assert any("successes" in p for p in checks.check_phase_csv(planted, payload, gammas, cells))
    assert checks.check_phase_csv(text.replace("mean_L", "mean_l"), payload, gammas, cells)


def _run(tmp_path, *args, cwd=ROOT):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "layered" / "run.py"), *args, "--out", str(out)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc, out


@pytest.mark.parametrize("workload,failed_share", [
    ("phase-exact", 0.0), ("phase-heuristic", 0.5), ("verify", 0.0),
])
def test_short_run_of_each_workload(tmp_path, workload, failed_share):
    proc, out = _run(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == failed_share * result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert json.loads(out.read_text())["environment"]["backend"] in ("numpy", "numba")


def test_short_traced_run_reports_every_layer(tmp_path):
    proc, _out = _run(tmp_path, "--workload", "phase-exact", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["solvers.exact_evaluations"]["value"] == 92378  # C(19, 9)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, _out = _run(tmp_path, "--workload", "verify", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
