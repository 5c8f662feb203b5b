import hashlib
import json
import os
import subprocess
import sys

import pytest

import mixcut
from mixcut import cli, graph, harness, solvers
from mixcut.cli import main
from mixcut.model import constant_gap_mixture, divergence, figure1_mixture, load_model, save_model


# the directory holding the imported package, put first on a child's path
# so that the child runs the code under test
MIXCUT_PATH = os.path.dirname(os.path.dirname(os.path.abspath(mixcut.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_figure1_model(tmp_path, capsys):
    out = tmp_path / "fig1.json"
    code, stdout, _ = run_cli(capsys, "gen", "--figure1", "--k", "10", "--out", str(out))
    assert code == 0
    assert "gamma=0.00160023" in stdout
    model = load_model(str(out))
    assert model.k == 10
    assert abs(divergence(model) - 0.0016) <= 1e-6


def test_gen_constant_gap_model(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code, stdout, _ = run_cli(capsys, "gen", "--gap-gamma", "1.0", "--k", "4", "--out", str(out))
    assert code == 0
    model = load_model(str(out))
    assert divergence(model) == pytest.approx(1.0)


@pytest.mark.parametrize("flags, generator", [
    (("--figure1",), lambda k: figure1_mixture(k)),
    (("--gap-gamma", "0.1"), lambda k: constant_gap_mixture(k, 0.1)),
    (("--figure1", "--fraction-biased", "0.3", "--small", "0.02", "--large", "0.4", "--base", "0.45"),
     lambda k: figure1_mixture(k, fraction_biased=0.3, small=0.02, large=0.4, base=0.45)),
])
def test_gen_writes_the_generator_defaults(tmp_path, capsys, flags, generator):
    out, expected = tmp_path / "m.json", tmp_path / "expected.json"
    assert run_cli(capsys, "gen", *flags, "--k", "10", "--out", str(out))[0] == 0
    save_model(generator(10), str(expected))
    assert out.read_bytes() == expected.read_bytes()


def test_gen_refuses_a_flag_its_generator_does_not_take(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, stderr = run_cli(capsys, "gen", "--gap-gamma", "0.1", "--k", "7", "--small", "0.2",
                                   "--out", str(out))
    assert code == 2 and stdout == ""
    assert "refused:" in stderr and "'small'" in stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_replaces_an_existing_model_file_whole(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli(capsys, "gen", "--figure1", "--k", "40", "--out", str(out))[0] == 0
    before = out.stat().st_ino
    assert run_cli(capsys, "gen", "--gap-gamma", "0.2", "--k", "3", "--out", str(out))[0] == 0
    assert out.stat().st_ino != before
    assert load_model(str(out)) == constant_gap_mixture(3, 0.2)
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_gen_into_a_missing_directory_names_the_output(tmp_path, capsys):
    out = tmp_path / "missing" / "m.json"
    code, _, stderr = run_cli(capsys, "gen", "--figure1", "--k", "3", "--out", str(out))
    assert code == 2 and stderr == f"mixcut gen: error: [Errno 2] No such file or directory: '{out}'\n"


@pytest.mark.parametrize("command", ["gen", "solve", "phase", "bounds", "verify"])
def test_every_subcommand_help_exits_0(capsys, command):
    code, stdout, _ = run_cli(capsys, command, "--help")
    assert code == 0 and stdout.startswith(f"usage: mixcut {command}")


def test_solve_hillclimb_runs_the_default_restart_count(tmp_path, capsys, monkeypatch):
    seen = []
    original = solvers.solve_hillclimb

    def recording(graph, restarts, **kwargs):
        seen.append(restarts)
        return original(graph, restarts, **kwargs)

    monkeypatch.setattr(solvers, "solve_hillclimb", recording)
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.25", "--k", "40", "--out", str(out))
    assert run_cli(capsys, "solve", "--model", str(out), "--n", "5", "--seed", "11",
                   "--method", "hillclimb")[0] == 0
    assert seen == [solvers.DEFAULT_RESTARTS]


def test_solve_reports_success_on_separated_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "1.0", "--k", "5", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys, "solve", "--model", str(out), "--n", "2", "--seed", "7", "--method", "exact"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["success"] is True
    assert payload["L"] == 0
    assert payload["best_weight"] == payload["true_weight"]
    assert payload["method"] == "exact"


def test_solve_all_methods_run(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.25", "--k", "40", "--out", str(out))
    for method in ("exact", "hillclimb", "spectral"):
        code, stdout, _ = run_cli(
            capsys, "solve", "--model", str(out), "--n", "4", "--seed", "3",
            "--method", method,
        )
        assert code == 0
        assert json.loads(stdout)["method"] == method


def test_solve_cap_refusal_is_exit_2(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.25", "--k", "6", "--out", str(out))
    code, _, stderr = run_cli(
        capsys, "solve", "--model", str(out), "--n", "13", "--seed", "1", "--method", "exact"
    )
    assert code == 2
    assert "refused" in stderr


def test_solve_degenerate_model_is_exit_2(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.0", "--k", "6", "--out", str(out))
    code, _, stderr = run_cli(
        capsys, "solve", "--model", str(out), "--n", "3", "--seed", "1", "--method", "exact"
    )
    assert code == 2
    assert "gamma" in stderr


def test_usage_errors_are_exit_1(capsys):
    assert run_cli(capsys, "bounds", "--n", "100")[0] == 1          # missing args
    assert run_cli(capsys, "solve", "--frobnicate")[0] == 1         # unknown flag
    assert run_cli(capsys, "nonsense")[0] == 1                       # unknown command
    code, _, stderr = run_cli(capsys, "gen", "--k", "4", "--out", "x.json")
    assert code == 1 and "usage" in stderr


def test_bounds_prints_case3_threshold_and_flags(capsys):
    code, stdout, _ = run_cli(capsys, "bounds", "--n", "100", "--k", "9000", "--gamma", "0.1")
    assert code == 0
    assert "8657.72" in stdout
    text, json_line = stdout.rstrip("\n").rsplit("\n", 1)
    payload = json.loads(json_line)
    assert payload["satisfied"]["case3_k"] is True
    assert payload["required_k"]["case3_k"] == pytest.approx(8657.719949657612)
    assert payload["required_k"]["active_case"] == "case2"
    assert "delta" in payload and "rho1" in payload and "rho3" in payload
    assert "case3" in text and "active case" in text


# sha256 of the stdout of `mixcut bounds` over the grid below, run in order;
# its (N, gamma) pairs fall 19 in case2, 11 in case1, 9 in none, 6 in case3
_BOUNDS_GRID_SHA256 = "16aa5d4e66cca58abd91192c2ee9807b548427802cd03dbde0c961b85a3f1472"


def test_bounds_output_over_every_regime_case_is_pinned(capsys):
    digest = hashlib.sha256()
    for n in (4, 5, 8, 16, 20, 64, 100, 1000, 100000):
        for gamma in (0.001, 0.01, 0.05, 0.25, 1.0):
            for k in (1, 50, 5000):
                code, stdout, _ = run_cli(capsys, "bounds", "--n", str(n), "--k", str(k), "--gamma", repr(gamma))
                assert code == 0
                digest.update(stdout.encode())
    assert digest.hexdigest() == _BOUNDS_GRID_SHA256


def test_bounds_refusals(capsys):
    assert run_cli(capsys, "bounds", "--n", "3", "--k", "10", "--gamma", "0.1")[0] == 2
    assert run_cli(capsys, "bounds", "--n", "10", "--k", "10", "--gamma", "0")[0] == 2


def test_phase_runs_twice_byte_identical(tmp_path, capsys):
    csv_path = tmp_path / "phase.csv"
    config = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [4],
        "k_values": [10, 40],
        "trials": 10,
        "method": "exact",
        "metric": "hamming",
        "seed": 5,
        "output": str(csv_path),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(capsys, "phase", "--config", str(cfg_path))[0] == 0
    first = csv_path.read_bytes()
    assert run_cli(capsys, "phase", "--config", str(cfg_path))[0] == 0
    assert csv_path.read_bytes() == first


def test_phase_cap_violation_is_exit_2(tmp_path, capsys):
    config = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [20],
        "k_values": [10],
        "trials": 5,
        "method": "exact",
        "metric": "hamming",
        "seed": 5,
        "output": str(tmp_path / "phase.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "phase", "--config", str(cfg_path))
    assert code == 2 and "cap" in stderr


def test_phase_unknown_config_key_is_exit_2(tmp_path, capsys):
    config = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [4],
        "k_values": [10],
        "trials": 2,
        "method": "hillclimb",
        "metric": "hamming",
        "seed": 5,
        "restart": 32,
        "output": str(tmp_path / "phase.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "phase", "--config", str(cfg_path))
    assert code == 2 and "restart" in stderr
    assert not (tmp_path / "phase.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("restarts", 0), ("first_improvement", "false"), ("n_values", [3]), ("output", 7),
    ("model", {"constant_gap": {"gama": 0.25}}), ("model", {"constant_gap": [0.25]}),
    ("model", {"constant_gap": {"gamma": "0.25"}}), ("model", {"constant_gap": {"gamma": 0.25}, "figure1": {}}),
    ("model", {"file": 3}),
])
def test_phase_bad_config_value_is_refused_before_any_trial(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)  # a refused "output": 7 must not leave a file named 7
    config = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [4],
        "k_values": [10],
        "trials": 2,
        "method": "hillclimb",
        "metric": "hamming",
        "seed": 5,
        "output": str(tmp_path / "phase.csv"),
    }
    config[key] = value
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "phase", "--config", str(cfg_path))
    assert code == 2 and "refused:" in stderr and key in stderr
    assert not (tmp_path / "phase.csv").exists() and not (tmp_path / "7").exists()


def test_phase_output_in_a_missing_directory_is_refused_before_any_trial(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", never)
    output = tmp_path / "missing" / "phase.csv"
    config = {
        "model": {"constant_gap": {"gamma": 0.25}}, "n_values": [4], "k_values": [10], "trials": 2,
        "method": "exact", "metric": "hamming", "seed": 5, "output": str(output),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "phase", "--config", str(cfg_path))
    assert code == 2 and f"refused: output {output}:" in stderr and ".tmp" not in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def test_phase_output_that_is_a_directory_is_refused_before_any_trial(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", never)
    output = tmp_path / "out.csv"
    output.mkdir()
    config = {
        "model": {"constant_gap": {"gamma": 0.25}}, "n_values": [4], "k_values": [10], "trials": 2,
        "method": "exact", "metric": "hamming", "seed": 5, "output": str(output),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "phase", "--config", str(cfg_path))
    assert code == 2 and f"refused: output {output}:" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "sweep.json"]
    assert list(output.iterdir()) == []


def test_phase_config_missing_a_required_key_is_refused_by_name(tmp_path, capsys):
    config = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [4],
        "k_values": [10],
        "method": "exact",
        "metric": "hamming",
        "seed": 5,
        "output": str(tmp_path / "phase.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "phase", "--config", str(cfg_path))
    assert code == 2 and "refused: missing config key(s) 'trials'" in stderr
    assert not (tmp_path / "phase.csv").exists()


def test_phase_readme_example_config_csv_is_pinned(tmp_path, capsys):
    # the sweep config printed in README.md; the digest is of its CSV bytes
    config = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [6],
        "k_values": [10, 40, 160, 640],
        "trials": 200,
        "method": "exact",
        "metric": "hamming",
        "seed": 20240601,
        "output": str(tmp_path / "phase.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(capsys, "phase", "--config", str(cfg_path))[0] == 0
    digest = hashlib.sha256((tmp_path / "phase.csv").read_bytes()).hexdigest()
    assert digest == "62d68a7d3e46fd1acb1e55fe1545ff3721d3d9ad82e1aad48025de9c6b74e129"


# `mixcut solve --n 5 --seed 11` on the model `gen --gap-gamma 0.25 --k 40`;
# under score, exact and hillclimb find the minimum-score cut, which is the
# Hamming maximum (same side_s, tie and evaluations)
_SOLVE_GOLDEN = {
    ("exact", "hamming"):
        '{"success": true, "method": "exact", "metric": "hamming", "best_weight": 638, "true_weight": 638, "L": 0, "tie": false, "evaluations": 126, "gamma": 0.25, "n": 5, "k": 40, "seed": 11, "side_s": [0, 1, 2, 3, 4]}',
    ("exact", "score"):
        '{"success": true, "method": "exact", "metric": "score", "best_weight": 166, "true_weight": 166, "L": 0, "tie": false, "evaluations": 126, "gamma": 0.25, "n": 5, "k": 40, "seed": 11, "side_s": [0, 1, 2, 3, 4]}',
    ("hillclimb", "hamming"):
        '{"success": true, "method": "hillclimb", "metric": "hamming", "best_weight": 638, "true_weight": 638, "L": 0, "tie": false, "evaluations": 583, "gamma": 0.25, "n": 5, "k": 40, "seed": 11, "side_s": [0, 1, 2, 3, 4]}',
    ("hillclimb", "score"):
        '{"success": true, "method": "hillclimb", "metric": "score", "best_weight": 166, "true_weight": 166, "L": 0, "tie": false, "evaluations": 583, "gamma": 0.25, "n": 5, "k": 40, "seed": 11, "side_s": [0, 1, 2, 3, 4]}',
    ("spectral", "hamming"):
        '{"success": true, "method": "spectral", "metric": "hamming", "best_weight": 638, "true_weight": 638, "L": 0, "tie": false, "evaluations": 1, "gamma": 0.25, "n": 5, "k": 40, "seed": 11, "side_s": [0, 1, 2, 3, 4]}',
    ("spectral", "score"):
        '{"success": true, "method": "spectral", "metric": "score", "best_weight": 166, "true_weight": 166, "L": 0, "tie": false, "evaluations": 1, "gamma": 0.25, "n": 5, "k": 40, "seed": 11, "side_s": [0, 1, 2, 3, 4]}',
}


@pytest.mark.parametrize("method, metric", sorted(_SOLVE_GOLDEN))
def test_solve_output_is_pinned(tmp_path, capsys, method, metric):
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.25", "--k", "40", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys, "solve", "--model", str(out), "--n", "5", "--seed", "11",
        "--method", method, "--metric", metric,
    )
    assert code == 0
    assert stdout == _SOLVE_GOLDEN[(method, metric)] + "\n"


@pytest.mark.parametrize("metric", ["hamming", "score"])
@pytest.mark.parametrize("method", ["exact", "hillclimb", "spectral"])
def test_only_exact_and_hillclimb_trials_build_a_graph_and_it_is_the_hamming_one(
        tmp_path, capsys, monkeypatch, method, metric):
    built = []
    original = graph.build_graph

    def counting(dataset):  # takes no metric, so a call that passes one fails
        built.append(dataset)
        return original(dataset)

    # patched in every module a trial passes through, so a call from any of them counts
    for module in (graph, solvers, harness, cli):
        monkeypatch.setattr(module, "build_graph", counting, raising=False)
    config = {
        "model": {"constant_gap": {"gamma": 0.25}}, "n_values": [4, 5], "k_values": [10, 40],
        "trials": 2, "method": method, "metric": metric, "seed": 3,
        "output": str(tmp_path / "phase.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(capsys, "phase", "--config", str(cfg_path))[0] == 0
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.25", "--k", "40", "--out", str(out))
    assert run_cli(capsys, "solve", "--model", str(out), "--n", "5", "--seed", "11",
                   "--method", method, "--metric", metric)[0] == 0
    trials = 2 * 2 * 2 + 1  # two N by two K by two trials, then the solve
    assert len(built) == (0 if method == "spectral" else trials)


def test_verify_emits_all_five_check_families(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "--gap-gamma", "0.2", "--k", "50",
        "--pairs", "5000", "--cut-samples", "1000", "--node-draws", "5000",
        "--imbalance-draws", "1000",
    )
    assert code == 0
    assert "pair_gap_mean" in stdout
    assert "cut_gap_mean_L1" in stdout
    assert "bad_node_rate" in stdout
    assert "imbalance_tail_t0" in stdout
    assert "delta_event_rate" in stdout
    assert "PASS" in stdout


def test_verify_exits_3_when_a_gated_check_fails(capsys, monkeypatch):
    from mixcut import harness

    def failing(cfg):
        return harness.ConcentrationReport(k=cfg.model.k, gamma=0.2, n=cfg.n, checks=(
            harness.CheckResult("pair_gap_mean", "s", 10.0, 12.0, "3 SE = 0.1", False),
            harness.CheckResult("bad_node_rate", "s", 0.01, 0.05, "t", None, "hypothesis unmet"),
        ))

    monkeypatch.setattr(harness, "verify_concentration", failing)
    code, stdout, _ = run_cli(capsys, "verify", "--gap-gamma", "0.2")
    assert code == 3
    assert "FAIL" in stdout and "SKIP" in stdout


def test_verify_readme_example_with_a_skip_exits_0(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--gap-gamma", "0.2", "--k", "50", "--seed", "0")
    assert code == 0
    assert "SKIP  [hypothesis unmet: K=50 < 185]" in stdout and "FAIL" not in stdout


@pytest.mark.parametrize("flag, value", [
    ("--tau", "0"), ("--tau", "1.5"), ("--node-draws", "1"), ("--imbalance-draws", "0"),
    ("--pairs", "1"), ("--cut-samples", "1"), ("--imbalance-l", "0"),
])
def test_verify_refuses_an_out_of_range_size(capsys, flag, value):
    code, stdout, stderr = run_cli(capsys, "verify", "--gap-gamma", "0.2", flag, value)
    assert code == 2 and stdout == ""
    assert "refused:" in stderr and flag[2:].replace("-", "_") in stderr


def test_verify_refuses_a_model_with_gamma_0(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "--gap-gamma", "0", "--pairs", "200")
    assert code == 2 and stdout == ""
    assert "refused:" in stderr and "gamma = 0" in stderr


def test_verify_hands_over_the_verify_config_defaults(capsys, monkeypatch):
    seen = []

    def recording(cfg):
        seen.append(cfg)
        return harness.ConcentrationReport(k=cfg.model.k, gamma=0.2, n=cfg.n, checks=())

    monkeypatch.setattr(harness, "verify_concentration", recording)
    assert run_cli(capsys, "verify", "--gap-gamma", "0.2", "--k", "200", "--seed", "3")[0] == 0
    assert seen == [harness.VerifyConfig(model=constant_gap_mixture(200, 0.2), seed=3)]


def test_verify_refuses_k_with_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    run_cli(capsys, "gen", "--gap-gamma", "0.2", "--k", "30", "--out", str(out))
    small = ("--pairs", "200", "--cut-samples", "200", "--node-draws", "200", "--imbalance-draws", "200")
    code, stdout, stderr = run_cli(capsys, "verify", "--model", str(out), "--k", "30", *small)
    assert code == 2 and stdout == ""
    assert "refused:" in stderr and "--k" in stderr and "--model" in stderr
    code, stdout, _ = run_cli(capsys, "verify", "--model", str(out), *small)
    assert code == 0 and stdout.startswith("concentration checks: K=30 ")
    code, stdout, _ = run_cli(capsys, "verify", "--gap-gamma", "0.2", *small)
    assert code == 0 and stdout.startswith("concentration checks: K=50 ")


def _model_file_argv(tmp_path, command, model_path):
    """argv of `command` reading the model file at `model_path`."""
    if command == "verify":
        return ("verify", "--model", str(model_path), "--pairs", "200", "--cut-samples", "200")
    if command == "solve":
        return ("solve", "--model", str(model_path), "--n", "4", "--seed", "1", "--method", "exact")
    config = {
        "model": {"file": str(model_path)}, "n_values": [4], "k_values": [10], "trials": 2,
        "method": "exact", "metric": "hamming", "seed": 5, "output": str(tmp_path / "phase.csv"),
    }
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    return ("phase", "--config", str(tmp_path / "sweep.json"))


@pytest.mark.parametrize("payload, named", [
    ({"p1": [0.7] * 10, "p2": [0.3] * 10, "p3": [1]}, "unknown key(s) 'p3'"),
    ({"p1": [0.7] * 10}, "missing key(s) 'p2'"),
    ([[0.7] * 10, [0.3] * 10], "expected a JSON object with keys p1, p2"),
])
@pytest.mark.parametrize("command", ["verify", "solve", "phase"])
def test_a_model_file_with_an_unknown_or_missing_key_is_exit_2(tmp_path, capsys, command, payload, named):
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(payload))
    code, stdout, stderr = run_cli(capsys, *_model_file_argv(tmp_path, command, model_path))
    assert code == 2 and stdout == ""
    assert named in stderr and str(model_path) in stderr
    assert not (tmp_path / "phase.csv").exists()


@pytest.mark.parametrize("payload, named", [
    ({"p1": {"a": 1}, "p2": [0.5]}, "p1 must be a JSON list of numbers, got {'a': 1}"),
    ({"p1": [0.9] * 10, "p2": "0.1"}, "p2 must be a JSON list of numbers"),
    ({"p1": ["0.9"] + [0.9] * 9, "p2": [0.1] * 10}, "p1[0] = '0.9' is not a JSON number"),
    ({"p1": [0.9] * 10, "p2": [0.1] * 9 + [False]}, "p2[9] = False is not a JSON number"),
    ({"p1": [0.9, [0.9]] + [0.9] * 8, "p2": [0.1] * 10}, "p1[1] = [0.9] is not a JSON number"),
], ids=["object", "string", "string-entry", "bool-entry", "list-entry"])
@pytest.mark.parametrize("command", ["verify", "solve", "phase"])
def test_a_model_file_center_that_is_not_a_list_of_numbers_is_exit_2(tmp_path, capsys, command, payload, named):
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(payload))
    code, stdout, stderr = run_cli(capsys, *_model_file_argv(tmp_path, command, model_path))
    assert code == 2 and stdout == ""
    assert named in stderr and str(model_path) in stderr
    assert not (tmp_path / "phase.csv").exists()


def test_solve_refuses_a_model_file_with_a_nan_center(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    model_path.write_text('{"p1": [0.7, NaN, 0.7], "p2": [0.3, 0.3, 0.3]}')
    code, stdout, stderr = run_cli(capsys, "solve", "--model", str(model_path), "--n", "4", "--seed", "1",
                                   "--method", "exact")
    assert code == 2 and stdout == ""
    assert str(model_path) in stderr and "p1[1] = nan" in stderr


def test_python_dash_m_mixcut_runs_the_cli(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = MIXCUT_PATH + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mixcut", "gen", "--gap-gamma", "0.25", "--k", "40", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {out}: K=40 gamma=0.25\n"
    usage = subprocess.run(
        [sys.executable, "-m", "mixcut", "bogus"], capture_output=True, text=True, env=env, timeout=60,
    )
    assert usage.returncode == 1 and "usage: mixcut" in usage.stderr



@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_verify_bytes_do_not_depend_on_cores_or_blas_threads(tmp_path):
    # the sizes of the diff_node BLAS-rounding case; a child pinned to one
    # CPU draws each check in one stretch, an unpinned one in one per CPU
    argv = [sys.executable, "-m", "mixcut", "verify", "--gap-gamma", "0.1", "--k", "37",
            "--pairs", "1237", "--node-draws", "999", "--seed", "5"]
    one_cpu = {min(os.sched_getaffinity(0))}

    def start(blas_threads, pinned):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = MIXCUT_PATH + os.pathsep + env.get("PYTHONPATH", "")
        pin = (lambda: os.sched_setaffinity(0, one_cpu)) if pinned else None
        return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=env, preexec_fn=pin)

    procs = [start(blas, pinned) for blas in ("1", "2") for pinned in (False, True)]

    # one phase-sweep child per BLAS thread count: spectral (Gram product
    # and Lanczos iteration, duplicate rows at K <= 10) and hill-climb
    # (graph product) sweeps under both metrics, K below and above 2N, then
    # Grams summed over several blocks: column blocks at N=128, K=2000 for
    # both methods, and row blocks for spectral at N=700, K=100
    # (2N > max(K, 2**17 // K)); last, a spectral sweep below the recovery
    # threshold, where the iteration takes dozens of steps
    small = ([4, 8, 24, 64], [5, 10, 40, 400])
    sweeps = [(method, metric, *small, 0.1) for method in ("spectral", "hillclimb") for metric in ("hamming", "score")]
    sweeps += [("spectral", "hamming", [128], [2000], 0.1), ("hillclimb", "hamming", [128], [2000], 0.1),
               ("spectral", "hamming", [700], [100], 0.1), ("spectral", "hamming", [64], [400], 0.001)]
    phase = {}
    for blas in ("1", "2"):
        configs = []
        for i, (method, metric, n_values, k_values, gamma) in enumerate(sweeps):
            cfg_path = tmp_path / f"{i}-{blas}.json"
            cfg_path.write_text(json.dumps({
                "model": {"constant_gap": {"gamma": gamma}}, "n_values": n_values,
                "k_values": k_values, "trials": 6, "method": method, "metric": metric,
                "seed": 31, "output": str(tmp_path / f"{i}-{blas}.csv"),
            }))
            configs.append(str(cfg_path))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = MIXCUT_PATH + os.pathsep + env.get("PYTHONPATH", "")
        script = "import sys; from mixcut.cli import main; sys.exit(max(main(['phase', '--config', c]) for c in sys.argv[1:]))"
        phase[blas] = subprocess.Popen([sys.executable, "-c", script, *configs], stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True, env=env)

    runs = [(proc.communicate(timeout=60), proc.returncode) for proc in procs]
    (stdout, stderr), code = runs[0]
    assert code == 0 and stdout.startswith("concentration checks: K=37 "), stderr
    assert all((out, rc) == (stdout, code) for (out, _), rc in runs)
    for blas, proc in phase.items():
        assert proc.communicate(timeout=120)[1] == "" and proc.returncode == 0
    for i, (method, metric, n_values, k_values, _gamma) in enumerate(sweeps):
        one, two = ((tmp_path / f"{i}-{blas}.csv").read_bytes() for blas in ("1", "2"))
        assert one.count(b"\n") == 1 + len(n_values) * len(k_values) and one == two, (method, metric)
