import hashlib
import json
import os
import stat
import threading

import numpy as np
import pytest

from mixcut.harness import (
    PHASE_CSV_HEADER,
    ExperimentConfig,
    ValidationError,
    VerifyConfig,
    phase_diagram,
    read_phase_csv,
    resolve_model,
    run_cell,
    verify_concentration,
    worker_count,
)
from mixcut.model import constant_gap_mixture, save_model
from mixcut.solvers import EnumerationCapError


def make_config(tmp_path, **overrides):
    payload = {
        "model": {"constant_gap": {"gamma": 0.25}},
        "n_values": [4],
        "k_values": [30],
        "trials": 20,
        "method": "exact",
        "metric": "hamming",
        "seed": 99,
        "output": str(tmp_path / "phase.csv"),
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


def test_run_cell_deterministic_and_ordered(tmp_path):
    config = make_config(tmp_path)
    a = run_cell(config, 4, 30)
    b = run_cell(config, 4, 30)
    assert a == b
    assert [r.trial for r in a] == list(range(20))
    assert all(r.n == 4 and r.k == 30 for r in a)


def test_run_cell_success_iff_l_zero_without_ties(tmp_path):
    config = make_config(tmp_path)
    for rec in run_cell(config, 4, 30):
        if not rec.tie:
            assert rec.success == (rec.l_from_truth == 0)
        else:
            assert rec.success is False


def test_run_cell_deterministic_model_always_succeeds(tmp_path):
    config = make_config(tmp_path, model={"constant_gap": {"gamma": 1.0}}, trials=10)
    records = run_cell(config, 3, 5)
    assert all(r.success for r in records)
    assert all(r.l_from_truth == 0 for r in records)


def test_run_cell_exact_hamming_weight_dominance(tmp_path):
    config = make_config(tmp_path, model={"constant_gap": {"gamma": 0.04}}, trials=30)
    for rec in run_cell(config, 5, 12):
        assert rec.best_weight >= rec.true_weight
        if rec.success:
            assert rec.best_weight == rec.true_weight


def test_run_cell_other_methods(tmp_path):
    hc = make_config(tmp_path, method="hillclimb", trials=5)
    assert len(run_cell(hc, 4, 30)) == 5
    sp = make_config(tmp_path, method="spectral", trials=5)
    recs = run_cell(sp, 4, 30)
    assert len(recs) == 5
    assert all(r.best_weight >= 0 for r in recs)


def test_config_validation_errors(tmp_path):
    with pytest.raises(EnumerationCapError):
        make_config(tmp_path, n_values=[13]).validate()
    with pytest.raises(ValidationError):
        make_config(tmp_path, trials=0).validate()
    with pytest.raises(ValidationError):
        make_config(tmp_path, method="anneal").validate()
    with pytest.raises(ValidationError):
        make_config(tmp_path, metric="cosine").validate()
    with pytest.raises(ValidationError):
        make_config(tmp_path, k_values=[0]).validate()
    with pytest.raises(ValidationError, match="n_values.*>= 4"):
        make_config(tmp_path, n_values=[4, 3]).validate()
    with pytest.raises(ValidationError, match="restarts"):
        make_config(tmp_path, method="hillclimb", restarts=0).validate()
    # hillclimb cells are not subject to the enumeration cap
    make_config(tmp_path, n_values=[13], method="hillclimb").validate()


@pytest.mark.parametrize("key, value", [
    ("first_improvement", "false"),
    ("first_improvement", 0),
    ("trials", 2.7),
    ("trials", 2.0),
    ("trials", "20"),
    ("trials", True),
    ("seed", 99.5),
    ("restarts", "8"),
    ("cap_nodes", 24.0),
    ("n_values", [4.5]),
    ("n_values", 4),
    ("k_values", ["30"]),
    ("k_values", [True]),
    ("method", 7),
    ("metric", None),
    ("output", 7),
    ("model", "figure1"),
])
def test_config_refuses_values_of_the_wrong_json_type(tmp_path, key, value):
    with pytest.raises(ValidationError, match=key):
        make_config(tmp_path, **{key: value})


@pytest.mark.parametrize("key", ["model", "n_values", "k_values", "trials", "method", "metric", "seed", "output"])
def test_config_refuses_a_missing_required_key_by_name(tmp_path, key):
    payload = {
        "model": {"constant_gap": {"gamma": 0.25}}, "n_values": [4], "k_values": [30],
        "trials": 20, "method": "exact", "metric": "hamming", "seed": 99,
        "output": str(tmp_path / "phase.csv"),
    }
    del payload[key]
    with pytest.raises(ValidationError, match=f"missing config key.*'{key}'"):
        ExperimentConfig.from_dict(payload)


def test_config_keeps_json_typed_values(tmp_path):
    config = make_config(tmp_path, first_improvement=True, restarts=3, cap_nodes=20)
    assert (config.first_improvement, config.restarts, config.cap_nodes) == (True, 3, 20)
    assert (config.n_values, config.k_values, config.trials, config.seed) == ((4,), (30,), 20, 99)


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValidationError, match="'restart'"):
        make_config(tmp_path, restart=32)  # typo of "restarts"
    assert make_config(tmp_path, restarts=32, method="hillclimb").restarts == 32
    with pytest.raises(ValidationError, match="JSON object"):
        ExperimentConfig.from_dict(["model", "trials"])


def test_worker_count_rejects_non_integer_thread_setting(monkeypatch):
    for value in ("two", "0", "-3"):
        monkeypatch.setenv("MIXCUT_THREADS", value)
        with pytest.raises(ValidationError, match="MIXCUT_THREADS"):
            worker_count()
    monkeypatch.setenv("MIXCUT_THREADS", "3")
    assert worker_count() == 3


def test_run_cell_refuses_degenerate_model(tmp_path):
    config = make_config(tmp_path, model={"constant_gap": {"gamma": 0.0}})
    with pytest.raises(ValidationError):
        run_cell(config, 4, 30)


def test_resolve_model_variants(tmp_path):
    model = constant_gap_mixture(12, 0.04)
    path = tmp_path / "m.json"
    save_model(model, str(path))
    loaded = resolve_model({"file": str(path)}, 12)
    assert np.array_equal(loaded.p1, model.p1)
    with pytest.raises(ValidationError):
        resolve_model({"file": str(path)}, 13)
    fig = resolve_model({"figure1": {}}, 10)
    assert fig.k == 10
    with pytest.raises(ValidationError):
        resolve_model({}, 10)


@pytest.mark.parametrize("source, named", [
    ({"constant_gap": {"gama": 0.25}}, "'gama'"),
    ({"constant_gap": {}}, "'gamma'"),
    ({"constant_gap": [0.25]}, "'constant_gap'"),
    ({"figure1": None}, "'figure1'"),
    ({"constant_gap": {"gamma": "0.25"}}, "gamma"),
    ({"constant_gap": {"gamma": True}}, "gamma"),
    ({"constant_gap": {"gamma": 0.25}, "figure1": {}}, "'constant_gap', 'figure1'"),
    ({"file": 3}, "'file'"),
    ({"figure1": {}, "fille": "m.json"}, "'fille'"),
])
def test_resolve_model_refuses_a_bad_model_block_by_key(source, named):
    with pytest.raises(ValidationError, match=named):
        resolve_model(source, 10)


def test_phase_diagram_single_cell_csv(tmp_path):
    config = make_config(tmp_path, trials=8)
    aggregates = phase_diagram(config)
    assert len(aggregates) == 1
    text = (tmp_path / "phase.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == PHASE_CSV_HEADER
    assert len(lines) == 2
    assert text.endswith("\n") and "\r" not in text


def test_phase_diagram_round_trip(tmp_path):
    config = make_config(tmp_path, k_values=[10, 30], trials=10)
    aggregates = phase_diagram(config)
    rows = read_phase_csv(config.output)
    assert len(rows) == len(aggregates) == 2
    for row, agg in zip(rows, aggregates):
        assert row["N"] == agg.n and row["K"] == agg.k
        assert row["successes"] == agg.successes
        assert row["trials"] == agg.trials
        assert row["seed"] == agg.seed
        assert row["success_rate"] == float(f"{agg.successes / agg.trials:.6g}")
        assert row["mean_L"] == float(f"{agg.mean_l:.6g}")
        assert row["required_K_case"] == agg.required_k_case
        assert row["method"] == "exact" and row["metric"] == "hamming"


def test_phase_diagram_worker_count_does_not_change_bytes(tmp_path, monkeypatch):
    config = make_config(tmp_path, k_values=[10, 20], trials=12)
    monkeypatch.setenv("MIXCUT_THREADS", "1")
    phase_diagram(config)
    one = (tmp_path / "phase.csv").read_bytes()
    monkeypatch.setenv("MIXCUT_THREADS", "4")
    phase_diagram(config)
    four = (tmp_path / "phase.csv").read_bytes()
    assert one == four


# sha256 of the phase CSV of each heuristic sweep: N in {8, 24}, K in
# {10, 40, 160} (below and above 2N), gamma 0.1, 6 trials per cell, seed 31
_HEURISTIC_CSV_SHA256 = {
    ("hillclimb", "hamming", False): "b07119966d0fc54e74fa033dc0bb7881ad112199ba14afe4f0f7854b5da582d8",
    ("hillclimb", "score", True): "747b53d7ae1a4fc51c41819b1954a03b62ec11abde77273ae303ad5f22e3a636",
    ("spectral", "hamming", False): "5d72fa5d20346ec03eed62515eb15daff2d3d2e9dfc4a3381bd8a588c9766a94",
    ("spectral", "score", False): "b5647bdbf5d5042287517da6c299a266c7ebb02c0c0039cf064e75413ad96b1f",
}


@pytest.mark.parametrize("method,metric,first_improvement", sorted(_HEURISTIC_CSV_SHA256))
def test_phase_diagram_heuristic_csv_is_pinned(tmp_path, method, metric, first_improvement):
    config = make_config(
        tmp_path, model={"constant_gap": {"gamma": 0.1}}, n_values=[8, 24], k_values=[10, 40, 160],
        trials=6, method=method, metric=metric, first_improvement=first_improvement, seed=31,
    )
    phase_diagram(config)
    digest = hashlib.sha256((tmp_path / "phase.csv").read_bytes()).hexdigest()
    assert digest == _HEURISTIC_CSV_SHA256[method, metric, first_improvement]


def test_phase_diagram_replaces_existing_output_whole(tmp_path):
    fresh = make_config(tmp_path, k_values=[10, 20], trials=6, output=str(tmp_path / "fresh.csv"))
    phase_diagram(fresh)
    stale = tmp_path / "phase.csv"
    stale.write_text("stale\n" * 1000)  # longer than the CSV
    with open(stale, encoding="utf-8") as reader:
        phase_diagram(make_config(tmp_path, k_values=[10, 20], trials=6))
        assert reader.read() == "stale\n" * 1000  # renamed over, not truncated in place
    assert stale.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "phase.csv"]


def test_phase_diagram_writes_through_a_non_regular_output(tmp_path):
    fifo = tmp_path / "phase.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    phase_diagram(make_config(tmp_path, trials=2, output=str(fifo)))
    reader.join(timeout=30)
    assert got and got[0].startswith(PHASE_CSV_HEADER + "\n")
    assert stat.S_ISFIFO(fifo.stat().st_mode)  # not renamed over


def test_phase_diagram_figure1_end_to_end(tmp_path):
    # low-divergence canned mixture at desk scale: cells must run and carry
    # theory columns; no recovery rate is asserted at gamma ~ 0.0016
    config = make_config(tmp_path, model={"figure1": {}}, n_values=[6],
                         k_values=[10, 100], trials=10)
    phase_diagram(config)
    rows = read_phase_csv(config.output)
    assert len(rows) == 2
    for row in rows:
        assert abs(row["gamma"] - 0.0016) <= 1e-6
        assert row["required_K_case"] in ("case1", "case2", "case3", "none")
        assert row["required_K_value"] > 0
        assert 0.0 <= row["success_rate"] <= 1.0
    # an over-cap sweep with the same model is refused up front
    with pytest.raises(EnumerationCapError):
        make_config(tmp_path, model={"figure1": {}}, n_values=[50]).validate()


def test_config_json_round_trip(tmp_path):
    config = make_config(tmp_path)
    path = tmp_path / "sweep.json"
    payload = {
        "model": config.model_source,
        "n_values": list(config.n_values),
        "k_values": list(config.k_values),
        "trials": config.trials,
        "method": config.method,
        "metric": config.metric,
        "seed": config.seed,
        "output": config.output,
    }
    path.write_text(json.dumps(payload))
    assert ExperimentConfig.from_file(str(path)) == config


def test_verify_concentration_passes_on_calibrated_model():
    cfg = VerifyConfig(
        model=constant_gap_mixture(50, 0.2),
        n=4,
        l_grid=(1, 2),
        pairs=30_000,
        cut_samples=4_000,
        node_draws=30_000,
        imbalance_draws=5_000,
        seed=0,
    )
    report = verify_concentration(cfg)
    names = [c.name for c in report.checks]
    assert names[0] == "pair_gap_mean"
    assert "cut_gap_mean_L1" in names and "cut_gap_mean_L2" in names
    assert "bad_node_rate" in names and "delta_event_rate" in names
    assert any(n.startswith("imbalance_tail_t0") for n in names)
    # K=50 < 8 ln(1/tau)/gamma ~ 184: the bad-node check must be gated
    bad = next(c for c in report.checks if c.name == "bad_node_rate")
    assert bad.passed is None and "hypothesis unmet" in bad.note
    t0 = next(c for c in report.checks if c.name == "imbalance_tail_t0")
    assert t0.passed is True and t0.empirical <= 1.0 <= t0.target
    scored = [c for c in report.checks if c.passed is not None]
    assert scored and all(c.passed for c in scored)


def test_verify_concentration_bad_node_ungated_at_high_dimension():
    cfg = VerifyConfig(
        model=constant_gap_mixture(200, 0.2),
        pairs=5_000,
        cut_samples=2_000,
        node_draws=40_000,
        imbalance_draws=2_000,
        seed=1,
    )
    report = verify_concentration(cfg)
    bad = next(c for c in report.checks if c.name == "bad_node_rate")
    assert bad.passed is True and bad.note == ""


def test_verify_concentration_rejects_gamma_zero():
    cfg = VerifyConfig(model=constant_gap_mixture(10, 0.0))
    with pytest.raises(ValidationError):
        verify_concentration(cfg)


# Every check's target, empirical value (float.hex), tolerance text, verdict
# and note, at reduced sample sizes: K=200 meets the bad-node hypothesis at
# gamma=0.2, tau=0.01 and K=50 does not.  A refactor of the checks must
# reproduce these exactly (same RNG streams, same arithmetic).
VERIFY_PINS = {
    (200, 0): [
        "pair_gap_mean 0x1.3fffffffffffep+5 0x1.40ad5c735d289p+5 '3 SE = 0.1894' True ''",
        "cut_gap_mean_L1 0x1.dfffffffffffdp+6 0x1.e2a3d70a3d70ap+6 '3 SE = 1.635' True ''",
        "cut_gap_mean_L2 0x1.3fffffffffffep+7 0x1.3f051eb851eb8p+7 '3 SE = 1.847' True ''",
        "bad_node_rate 0x1.47ae147ae147bp-7 0x0.0p+0 'tau + 3 binomial SE = 0.01334' True ''",
        "imbalance_tail_t0 0x1.0000000000000p+1 0x1.0000000000000p+0 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t0.5 0x1.8ebef9eac820bp+0 0x1.ef9db22d0e560p-2 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t1 0x1.78b56362cef38p-1 0x1.199999999999ap-3 'bound + 4 SE = 0.7757' True ''",
        "imbalance_tail_t1.5 0x1.afb718e8457f7p-3 0x1.89374bc6a7efap-7 'bound + 4 SE = 0.2478' True ''",
        "imbalance_tail_t2 0x1.2c155b8213cf4p-5 0x1.47ae147ae147bp-9 'bound + 4 SE = 0.05393' True ''",
        "imbalance_tail_t2.5 0x1.fa0e9586aebc7p-9 0x1.0624dd2f1a9fcp-11 'bound + 4 SE = 0.009908' True ''",
        "imbalance_tail_t3 0x1.02cf22526545ap-12 0x0.0p+0 'bound + 4 SE = 0.002152' True ''",
        "delta_event_rate 0x1.0000000000004p-11 0x0.0p+0 'stand-in x 10 = 0.004883 (order bound only)' True ''",
    ],
    (200, 1): [
        "pair_gap_mean 0x1.3fffffffffffep+5 0x1.3f1345149fc4cp+5 '3 SE = 0.1915' True ''",
        "cut_gap_mean_L1 0x1.dfffffffffffdp+6 0x1.dc71a9fbe76c9p+6 '3 SE = 1.581' True ''",
        "cut_gap_mean_L2 0x1.3fffffffffffep+7 0x1.40a872b020c4ap+7 '3 SE = 1.806' True ''",
        "bad_node_rate 0x1.47ae147ae147bp-7 0x1.0624dd2f1a9fcp-11 'tau + 3 binomial SE = 0.01334' True ''",
        "imbalance_tail_t0 0x1.0000000000000p+1 0x1.0000000000000p+0 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t0.5 0x1.8ebef9eac820bp+0 0x1.f1a9fbe76c8b4p-2 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t1 0x1.78b56362cef38p-1 0x1.189374bc6a7f0p-3 'bound + 4 SE = 0.7757' True ''",
        "imbalance_tail_t1.5 0x1.afb718e8457f7p-3 0x1.999999999999ap-7 'bound + 4 SE = 0.2478' True ''",
        "imbalance_tail_t2 0x1.2c155b8213cf4p-5 0x1.89374bc6a7efap-9 'bound + 4 SE = 0.05393' True ''",
        "imbalance_tail_t2.5 0x1.fa0e9586aebc7p-9 0x1.0624dd2f1a9fcp-10 'bound + 4 SE = 0.009908' True ''",
        "imbalance_tail_t3 0x1.02cf22526545ap-12 0x0.0p+0 'bound + 4 SE = 0.002152' True ''",
        "delta_event_rate 0x1.0000000000004p-11 0x0.0p+0 'stand-in x 10 = 0.004883 (order bound only)' True ''",
    ],
    (50, 0): [
        "pair_gap_mean 0x1.3fffffffffffdp+3 0x1.4004d634b422ap+3 '3 SE = 0.0958' True ''",
        "cut_gap_mean_L1 0x1.dfffffffffffcp+4 0x1.df0624dd2f1aap+4 '3 SE = 0.817' True ''",
        "cut_gap_mean_L2 0x1.3fffffffffffdp+5 0x1.3f00000000000p+5 '3 SE = 0.9204' True ''",
        "bad_node_rate 0x1.47ae147ae147bp-7 0x1.3d70a3d70a3d7p-5 'tau + 3 binomial SE = 0.01334' None 'hypothesis unmet: K=50 < 185'",
        "imbalance_tail_t0 0x1.0000000000000p+1 0x1.0000000000000p+0 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t0.5 0x1.8ebef9eac820bp+0 0x1.f22d0e5604189p-2 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t1 0x1.78b56362cef38p-1 0x1.116872b020c4ap-3 'bound + 4 SE = 0.7757' True ''",
        "imbalance_tail_t1.5 0x1.afb718e8457f7p-3 0x1.999999999999ap-7 'bound + 4 SE = 0.2478' True ''",
        "imbalance_tail_t2 0x1.2c155b8213cf4p-5 0x1.47ae147ae147bp-9 'bound + 4 SE = 0.05393' True ''",
        "imbalance_tail_t2.5 0x1.fa0e9586aebc7p-9 0x1.0624dd2f1a9fcp-11 'bound + 4 SE = 0.009908' True ''",
        "imbalance_tail_t3 0x1.02cf22526545ap-12 0x0.0p+0 'bound + 4 SE = 0.002152' True ''",
        "delta_event_rate 0x1.0000000000004p-11 0x0.0p+0 'stand-in x 10 = 0.004883 (order bound only)' True ''",
    ],
    (50, 1): [
        "pair_gap_mean 0x1.3fffffffffffdp+3 0x1.3f7a896dcd99cp+3 '3 SE = 0.09489' True ''",
        "cut_gap_mean_L1 0x1.dfffffffffffcp+4 0x1.e1ba5e353f7cfp+4 '3 SE = 0.818' True ''",
        "cut_gap_mean_L2 0x1.3fffffffffffdp+5 0x1.411cac083126fp+5 '3 SE = 0.9252' True ''",
        "bad_node_rate 0x1.47ae147ae147bp-7 0x1.4395810624dd3p-5 'tau + 3 binomial SE = 0.01334' None 'hypothesis unmet: K=50 < 185'",
        "imbalance_tail_t0 0x1.0000000000000p+1 0x1.0000000000000p+0 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t0.5 0x1.8ebef9eac820bp+0 0x1.eb020c49ba5e3p-2 'trivial (bound >= 1)' True ''",
        "imbalance_tail_t1 0x1.78b56362cef38p-1 0x1.199999999999ap-3 'bound + 4 SE = 0.7757' True ''",
        "imbalance_tail_t1.5 0x1.afb718e8457f7p-3 0x1.5810624dd2f1bp-7 'bound + 4 SE = 0.2478' True ''",
        "imbalance_tail_t2 0x1.2c155b8213cf4p-5 0x1.89374bc6a7efap-9 'bound + 4 SE = 0.05393' True ''",
        "imbalance_tail_t2.5 0x1.fa0e9586aebc7p-9 0x1.0624dd2f1a9fcp-11 'bound + 4 SE = 0.009908' True ''",
        "imbalance_tail_t3 0x1.02cf22526545ap-12 0x0.0p+0 'bound + 4 SE = 0.002152' True ''",
        "delta_event_rate 0x1.0000000000004p-11 0x0.0p+0 'stand-in x 10 = 0.004883 (order bound only)' True ''",
    ],
}


@pytest.mark.parametrize("k, seed", sorted(VERIFY_PINS))
def test_verify_concentration_is_pinned(k, seed):
    cfg = VerifyConfig(model=constant_gap_mixture(k, 0.2), pairs=4_000, cut_samples=1_000,
                       node_draws=8_000, imbalance_draws=2_000, seed=seed)
    got = [
        f"{c.name} {c.target.hex()} {c.empirical.hex()} {c.tolerance!r} {c.passed} {c.note!r}"
        for c in verify_concentration(cfg).checks
    ]
    assert got == VERIFY_PINS[(k, seed)]
