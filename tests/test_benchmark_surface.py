"""The calls that the layered benchmark (benchmarks/layered) makes into mixcut.

The benchmark runs its own copy of each trial's and each verify's layer
calls.  Each case here runs that copy on a tiny input and requires it to
agree with the program, so a change to mixcut that breaks one of those calls
fails this suite rather than only the benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "layered"))

import layers  # noqa: E402
import run  # noqa: E402
from mixcut import harness, model  # noqa: E402


@pytest.mark.parametrize("method", ["exact", "hillclimb", "spectral"])
def test_checked_sweep_agrees_with_run_trial(tmp_path, method):
    # N = 64 only for hillclimb: there restarts stop at different steps,
    # and the exact cap refuses it
    payload = {
        "model": {"constant_gap": {"gamma": 0.25}}, "n_values": [4, 6, 64] if method == "hillclimb" else [4, 6],
        "k_values": [10, 40],
        "trials": 2, "method": method, "metric": "hamming", "seed": 7,
    }
    config = harness.ExperimentConfig.from_dict({**payload, "output": str(tmp_path / "phase.csv")})
    harness.phase_diagram(config)
    differing = []

    def compare(op, trial, mdl):
        want = harness.run_trial(config, mdl, trial.n, trial.k, trial.trial)
        if trial.record(model.divergence(mdl)) != want:
            differing.append((trial.n, trial.k, trial.trial))

    failed, problems = layers.checked_sweep(
        config, payload, (tmp_path / "phase.csv").read_text(), layers.Spans(), lambda **_: 0, compare)
    assert (failed, problems, differing) == ([], [], [])


def test_verify_layers_and_environment_match_the_program():
    cfg = harness.VerifyConfig(
        model=model.constant_gap_mixture(40, gamma=0.2), pairs=400, cut_samples=100,
        node_draws=400, imbalance_draws=50, seed=3,
    )
    assert layers.run_verify_layers(cfg, layers.Spans(), 0) == harness.verify_concentration(cfg)
    assert run.environment(None)["backend"] == "numpy"
