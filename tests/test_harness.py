import hashlib
import json
import os
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mixcut import harness
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
from mixcut.graph import diff_node, score_cut_weight
from mixcut.model import BLOCK_VALUES, MixtureModel, constant_gap_mixture, philox, save_model
from mixcut.solvers import EnumerationCapError
from mixcut.theory import delta, is_bad_node
from oracles import oneshot_bernoulli, oneshot_imbalance_deviations


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
    with pytest.raises(EnumerationCapError, match="26 nodes exceed the exact-enumeration cap of 24 nodes"):
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


def test_read_phase_csv_refuses_a_header_with_two_columns_swapped(tmp_path):
    config = make_config(tmp_path, trials=2)
    phase_diagram(config)
    text = (tmp_path / "phase.csv").read_text(encoding="utf-8")
    swapped = text.replace("N,K,", "K,N,", 1)
    assert swapped != text
    (tmp_path / "phase.csv").write_text(swapped, encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected phase CSV header"):
        read_phase_csv(config.output)


def test_phase_diagram_writes_to_the_null_device(tmp_path):
    assert len(phase_diagram(make_config(tmp_path, trials=2, output=os.devnull))) == 1
    assert list(tmp_path.iterdir()) == []


def test_phase_diagram_worker_count_does_not_change_bytes(tmp_path, monkeypatch):
    # MIXCUT_THREADS is not read: any value, valid or not, runs one worker
    config = make_config(tmp_path, k_values=[10, 20], trials=12)
    outputs = []
    for value in ("1", "4", "two", "0", None):
        if value is None:
            monkeypatch.delenv("MIXCUT_THREADS", raising=False)
        else:
            monkeypatch.setenv("MIXCUT_THREADS", value)
        assert worker_count() == 1
        phase_diagram(config)
        outputs.append((tmp_path / "phase.csv").read_bytes())
    assert all(out == outputs[0] for out in outputs)


def test_phase_diagram_runs_trials_on_the_calling_thread_in_order(tmp_path, monkeypatch):
    config = make_config(tmp_path, n_values=[4, 5], k_values=[10, 20, 30], trials=4)
    calls = []
    original = harness.run_trial

    def recording(config, model, n, k, trial):
        calls.append((threading.get_ident(), n, k, trial))
        return original(config, model, n, k, trial)

    monkeypatch.setattr(harness, "run_trial", recording)
    phase_diagram(config)
    assert {ident for ident, *_ in calls} == {threading.get_ident()}
    assert [call[1:] for call in calls] == [
        (n, k, t) for n in (4, 5) for k in (10, 20, 30) for t in range(4)
    ]


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


def test_verify_configs_compare_and_hash_by_their_fields():
    cfg = VerifyConfig(model=constant_gap_mixture(10, 0.1), seed=3)
    same = VerifyConfig(model=constant_gap_mixture(10, 0.1), seed=3)
    assert cfg == same and not cfg != same
    assert hash(cfg) == hash(same) and len({cfg, same}) == 1
    assert cfg != VerifyConfig(model=constant_gap_mixture(10, 0.2), seed=3)
    assert cfg != VerifyConfig(model=constant_gap_mixture(10, 0.1), seed=4)


# Every check's target, empirical value (float.hex), tolerance text, verdict
# and note, at reduced sample sizes: K=200 meets the bad-node hypothesis at
# gamma=0.2, tau=0.01 and K=50 does not.  A refactor of the checks must
# reproduce these exactly (same RNG streams, same arithmetic).
VERIFY_PINS = {
    (200, 0): [
        "pair_gap_mean 0x1.3fffffffffffep+5 0x1.40ad5c735d286p+5 '3 SE = 0.1894' True ''",
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
        "pair_gap_mean 0x1.3fffffffffffep+5 0x1.3f1345149fc49p+5 '3 SE = 0.1915' True ''",
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
        "pair_gap_mean 0x1.3fffffffffffdp+3 0x1.4004d634b4229p+3 '3 SE = 0.0958' True ''",
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


# The verify suite at the CLI defaults (K=200, gamma=0.2, seed 0), in the
# VERIFY_PINS format.  These sizes put the draw's block boundaries where the
# reduced sizes above do not.
DEFAULT_PIN = [
    "pair_gap_mean 0x1.3fffffffffffep+5 0x1.4008e28ec0605p+5 '3 SE = 0.03785' True ''",
    "cut_gap_mean_L1 0x1.dfffffffffffdp+6 0x1.e017f62b6ae7dp+6 '3 SE = 0.5052' True ''",
    "cut_gap_mean_L2 0x1.3fffffffffffep+7 0x1.3f85e353f7ceep+7 '3 SE = 0.5871' True ''",
    "bad_node_rate 0x1.47ae147ae147bp-7 0x1.6f0068db8bac7p-12 'tau + 3 binomial SE = 0.01094' True ''",
    "imbalance_tail_t0 0x1.0000000000000p+1 0x1.0000000000000p+0 'trivial (bound >= 1)' True ''",
    "imbalance_tail_t0.5 0x1.8ebef9eac820bp+0 0x1.e339c0ebedfa4p-2 'trivial (bound >= 1)' True ''",
    "imbalance_tail_t1 0x1.78b56362cef38p-1 0x1.0346dc5d63886p-3 'bound + 4 SE = 0.7535' True ''",
    "imbalance_tail_t1.5 0x1.afb718e8457f7p-3 0x1.30be0ded288cep-7 'bound + 4 SE = 0.2272' True ''",
    "imbalance_tail_t2 0x1.2c155b8213cf4p-5 0x1.f212d77318fc5p-10 'bound + 4 SE = 0.04425' True ''",
    "imbalance_tail_t2.5 0x1.fa0e9586aebc7p-9 0x1.3a92a30553261p-12 'bound + 4 SE = 0.006442' True ''",
    "imbalance_tail_t3 0x1.02cf22526545ap-12 0x0.0p+0 'bound + 4 SE = 0.0009752' True ''",
    "delta_event_rate 0x1.0000000000004p-11 0x0.0p+0 'stand-in x 10 = 0.004883 (order bound only)' True ''",
]


def test_verify_concentration_at_cli_defaults_is_pinned_within_80_mb():
    cfg = VerifyConfig(model=constant_gap_mixture(200, 0.2), seed=0)
    tracemalloc.start()
    try:
        checks = verify_concentration(cfg).checks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    got = [f"{c.name} {c.target.hex()} {c.empirical.hex()} {c.tolerance!r} {c.passed} {c.note!r}" for c in checks]
    assert got == DEFAULT_PIN
    # one-shot draws peaked at 174-182 MB here (100000 x 200 float64 uniforms)
    assert peak < 80e6, f"peak traced allocation {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("check", ["_check_imbalance_tail", "_check_delta_event_rate"])
def test_imbalance_checks_at_cli_defaults_stay_within_12_mb(monkeypatch, check):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = VerifyConfig(model=constant_gap_mixture(200, 0.2), seed=0)
    tracemalloc.start()
    try:
        getattr(harness, check)(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # whole m x K float64 deviations (16 MB each) put the peak at 20-21 MB;
    # the int8 column counts and one block of deviations keep it near 7 MB
    assert peak < 12e6, f"peak traced allocation {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("l", [1, 4])
def test_streamed_imbalance_checks_equal_the_oneshot_deviations(monkeypatch, l):
    k = 37
    rnd = np.random.default_rng(l)
    model = MixtureModel(p1=rnd.random(k), p2=rnd.random(k))
    rows = BLOCK_VALUES // k  # draws per block of deviations
    for m in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        cfg = VerifyConfig(model=model, imbalance_draws=m, imbalance_l=l, seed=6)
        dev = oneshot_imbalance_deviations(philox(6, 4), m, model.p1, model.p2, l)
        got = [c.empirical for c in harness._check_imbalance_tail(cfg)]
        assert got == [float((dev >= t).mean(axis=0).max()) for t in cfg.t_grid]
        sums = np.sum(np.square(oneshot_imbalance_deviations(philox(6, 5), m, model.p1, model.p2, l)), axis=1)
        # the check's own budget, and the median sum, which some draws meet
        for budget in (delta(cfg.n, k), float(np.median(sums))):
            monkeypatch.setattr(harness, "delta", lambda n, k, budget=budget: budget)
            freq = harness._check_delta_event_rate(cfg).empirical
            assert freq == float((sums >= budget).mean())
        assert freq >= 0.5


def _dyadic_model(k):
    """A model whose centers are multiples of 1/8, so every gap sum is exact
    in float64 and per-sample values cannot depend on summation order."""
    rnd = np.random.default_rng(k)
    return MixtureModel(p1=rnd.integers(0, 9, k) / 8.0, p2=rnd.integers(0, 9, k) / 8.0)


def _chunked_cases():
    k, n, l = 37, 3, 3
    model = _dyadic_model(k)
    stack = np.concatenate([np.tile(model.p1, n), np.tile(model.p2, n)]).reshape(2 * n, k)
    other_s, other_sbar = [0, 1, 5], [2, 3, 4]
    return {
        "diff_node": (model.p1, lambda bits: diff_node(bits, model, 1)),
        "is_bad_node": (model.p2, lambda bits: is_bad_node(bits, model, 2)),
        "cut_gap": (stack, lambda bits: score_cut_weight(bits, other_s, other_sbar)
                    - score_cut_weight(bits, [0, 1, 2], [3, 4, 5])),
        "imbalance": (np.broadcast_to(model.p1, (l, k)), lambda bits: bits.sum(axis=1, dtype=np.int8)),
    }


@pytest.mark.parametrize("case", sorted(_chunked_cases()))
def test_chunked_draw_equals_the_oneshot_draw(case):
    p, reduce = _chunked_cases()[case]
    blocks = []

    def record(bits):
        blocks.append(len(bits))
        return bits[:, 0]

    harness._draw_reduced(philox(3, 9), 10_000, p, record)
    per = blocks[0]  # rows in a full block
    assert 1 < per < 10_000 and sum(blocks) == 10_000
    for m in (1, per - 1, per, per + 1, 2 * per + 3):
        rng, ref = philox(3, 9), philox(3, 9)
        bits = harness._draw_reduced(rng, m, p, lambda block: block)
        want = oneshot_bernoulli(ref, (m,), p)
        np.testing.assert_array_equal(bits, want)
        assert rng.random(7).tolist() == ref.random(7).tolist()
        rng, ref = philox(3, 9), philox(3, 9)
        values = harness._draw_reduced(rng, m, p, reduce)
        expected = reduce(oneshot_bernoulli(ref, (m,), p))
        assert values.dtype == expected.dtype
        np.testing.assert_array_equal(values, expected)
        assert rng.random(7).tolist() == ref.random(7).tolist()


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
@pytest.mark.parametrize("lead", [0, 1, 2, 3])
def test_draw_is_the_same_for_any_number_of_stretches(monkeypatch, cores, lead):
    # an odd p.size puts the stretches' first words anywhere in a 4-word
    # Philox block, and `lead` uniforms drawn first leave the caller's own
    # generator part way through one; a short switch interval interleaves
    # the stretches' threads often
    model = constant_gap_mixture(37, 0.1)
    per = BLOCK_VALUES // model.k
    monkeypatch.setattr(harness, "_cpu_count", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for m in (1, 4, per - 1, per, per + 1, 2 * per + 3):
            rng, ref = philox(3, 9), philox(3, 9)
            rng.random(lead)
            ref.random(lead)
            bits = harness._draw_reduced(rng, m, model.p1, lambda block: block)
            want = oneshot_bernoulli(ref, (m,), model.p1)
            np.testing.assert_array_equal(bits, want)
            assert rng.random(7).tolist() == ref.random(7).tolist()
            rng, ref = philox(3, 9), philox(3, 9)
            rng.random(lead)
            ref.random(lead)
            values = harness._draw_reduced(rng, m, model.p1, lambda block: diff_node(block, model, 1))
            expected = diff_node(oneshot_bernoulli(ref, (m,), model.p1), model, 1)
            assert values.tobytes() == expected.tobytes()
            assert rng.random(7).tolist() == ref.random(7).tolist()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("shape", [(37,), (4, 37)])
def test_draw_decides_the_edge_probabilities_as_the_oneshot_draw(monkeypatch, cores, shape):
    # 0 and 1, the least subnormal, the least uniform step, 1/2 and
    # 1 - 2**-53, then uniform probabilities; the (L, K) case is the
    # broadcast the imbalance draws pass
    edges = [0.0, 2.0**-1074, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
    p1 = np.concatenate([edges, np.random.default_rng(2).random(shape[-1] - len(edges))])
    p = np.broadcast_to(p1, shape)
    per = BLOCK_VALUES // p.size
    monkeypatch.setattr(harness, "_cpu_count", lambda: cores)
    for m in (1, 3, per + 1):
        rng, ref = philox(4, 7), philox(4, 7)
        bits = harness._draw_reduced(rng, m, p, lambda block: block)
        np.testing.assert_array_equal(bits, oneshot_bernoulli(ref, (m,), p))
        assert rng.random(7).tolist() == ref.random(7).tolist()


def test_an_exception_in_a_late_stretch_is_raised_by_the_draw(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
    caller = threading.current_thread()
    running = threading.active_count()

    def reduce(bits):
        if threading.current_thread() is not caller:
            raise ZeroDivisionError("late stretch")
        return bits[:, 0]

    with pytest.raises(ZeroDivisionError, match="late stretch"):
        harness._draw_reduced(philox(3, 9), 30, np.full(5, 0.5), reduce)
    assert threading.active_count() == running
