"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
Statistical criteria use fixed seeds, so outcomes are reproducible.
"""

import math
import time

import numpy as np
import pytest

from mixcut.graph import (
    BalancedCut,
    Metric,
    build_graph,
    cut_weight,
    cut_weight_from_rows,
    swap_count,
    true_partition,
)
from mixcut.harness import ExperimentConfig, phase_diagram, run_cell
from mixcut.model import (
    constant_gap_mixture,
    derive_seed,
    divergence,
    figure1_mixture,
    sample,
)
from mixcut.solvers import solve_exact
from mixcut.theory import (
    bad_node_threshold_k,
    delta,
    failure_budget,
    is_bad_node,
    required_k,
    rho3_exponent_check,
    sigma_sq_bound,
)

from oracles import all_balanced_cuts, four_term_diff, naive_extreme_balanced_cut, random_instance, score_graph


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def instance_pool():
    """200 random instances, 40 at each size 2N in {4, 6, 8, 10, 12}."""
    rng = np.random.default_rng(20240612)
    pool = []
    for n_per_side in (2, 3, 4, 5, 6):
        for _ in range(40):
            pool.append((n_per_side, random_instance(rng, n_per_side)[1]))
    return pool


def test_criterion_1_exact_solver_matches_naive_enumerator(instance_pool):
    start = time.perf_counter()
    checked = 0
    for n_per_side, ds in instance_pool:
        for graph in (build_graph(ds), score_graph(ds)):
            res = solve_exact(graph)
            w, side, tie = naive_extreme_balanced_cut(graph.weights, maximize=True)
            assert res.best_weight == w
            assert res.tie == tie
            if not tie:
                assert res.best_cut.side_s == side
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    verdict(1, True, f"{checked} solver/oracle comparisons agree exactly in {elapsed:.1f}s")


def test_criterion_2_hamming_score_cut_duality(instance_pool):
    checked_cuts = 0
    argpairs = 0
    for n_per_side, ds in instance_pool:
        gs = score_graph(ds)
        gh = build_graph(ds)
        total_pop = int(ds.bits.sum())
        for cut in all_balanced_cuts(2 * n_per_side):
            assert cut_weight(gh, cut) == n_per_side * total_pop - 2 * cut_weight(gs, cut)
            checked_cuts += 1
        max_h = solve_exact(gh)
        min_w, min_side, min_tie = naive_extreme_balanced_cut(gs.weights, maximize=False)
        if not max_h.tie and not min_tie:
            assert max_h.best_cut.side_s == min_side
            argpairs += 1
    verdict(2, True,
            f"duality identity exact on {checked_cuts} cuts; "
            f"Hamming-argmax = score-argmin on {argpairs} tie-free instances")


def test_criterion_3_cut_difference_equals_four_term_sum():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        n_per_side = int(rng.integers(2, 7))
        _, ds = random_instance(rng, n_per_side)
        truth = true_partition(ds)
        cuts = list(all_balanced_cuts(2 * n_per_side))
        other = cuts[int(rng.integers(0, len(cuts)))]
        got = cut_weight_from_rows(ds.bits, other, Metric.SCORE) - cut_weight_from_rows(ds.bits, truth, Metric.SCORE)
        want = four_term_diff(score_graph(ds).weights, truth.side_s, other.side_s, 2 * n_per_side)
        assert got == want, (
            f"cut-weight difference {got} != four-term sum {want}; "
            f"discrepancy {got - want} on N={n_per_side}, L={swap_count(truth, other)}"
        )
        checked += 1
    verdict(3, True, f"{checked} random (dataset, cut) pairs: difference equals the "
                     "four-term edge sum exactly (no L^2-block discrepancy)")


def test_criterion_4_pair_gap_mean_matches_k_gamma():
    start = time.perf_counter()
    models = [figure1_mixture(10), constant_gap_mixture(50, 0.04), constant_gap_mixture(20, 0.25)]
    details = []
    for model in models:
        gamma = divergence(model)
        rng = np.random.Generator(np.random.Philox(11))
        m = 100_000
        gaps = model.p1 - model.p2
        dx = ((rng.random((m, model.k)) < model.p1) @ gaps)
        dy = ((rng.random((m, model.k)) < model.p2) @ (-gaps))
        s = dx + dy
        target = model.k * gamma
        tol = 3 * float(s.std(ddof=1)) / math.sqrt(m)
        assert abs(float(s.mean()) - target) <= tol
        details.append(f"gamma={gamma:.4g}: |{float(s.mean()):.5g} - {target:.5g}| <= {tol:.2g}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    verdict(4, True, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_cut_gap_mean_matches_advantage():
    start = time.perf_counter()
    model = constant_gap_mixture(20, 0.1)
    gamma = divergence(model)
    details = []
    for n, l in ((3, 1), (4, 1), (4, 2)):
        other = BalancedCut.from_side(list(range(n - l)) + list(range(2 * n - l, 2 * n)), 2 * n)
        diffs = np.empty(10_000)
        for t in range(10_000):
            ds = sample(model, n, derive_seed(2024, n, l, t))
            truth = true_partition(ds)
            diffs[t] = (cut_weight_from_rows(ds.bits, other, Metric.SCORE)
                        - cut_weight_from_rows(ds.bits, truth, Metric.SCORE))
        target = (n - l) * l * model.k * gamma
        tol = 3 * float(diffs.std(ddof=1)) / 100.0
        assert abs(float(diffs.mean()) - target) <= tol
        details.append(f"(N={n},L={l}): |{float(diffs.mean()):.4g} - {target:.4g}| <= {tol:.2g}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    verdict(5, True, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_bad_node_tail_at_threshold_dimension():
    tau, gamma_nominal = 0.01, 0.1
    k = bad_node_threshold_k(tau, gamma_nominal)
    assert k == 369
    model = constant_gap_mixture(k, gamma_nominal)
    gamma = divergence(model)
    kg = k * gamma
    gaps = model.p1 - model.p2
    eta1 = float(model.p1 @ gaps)
    rng = np.random.Generator(np.random.Philox(13))
    m = 100_000
    d1 = (rng.random((m // 2, k)) < model.p1).astype(np.float64) @ gaps
    d2 = (rng.random((m // 2, k)) < model.p2).astype(np.float64) @ (-gaps)
    x_bits = (rng.random((200, k)) < model.p1).astype(np.int64)
    # dual route: the vectorized predicate must agree with is_bad_node
    for row in x_bits:
        assert is_bad_node(row, model, 1) == bool(row.astype(np.float64) @ gaps < eta1 - kg / 4)
    bad = np.concatenate([d1 < eta1 - kg / 4.0, d2 < (kg - eta1) - kg / 4.0])
    freq = float(bad.mean())
    tol = tau + 3 * math.sqrt(tau * (1 - tau) / m)
    assert freq <= tol
    verdict(6, True, f"K={k}: bad-node frequency {freq:.5f} <= {tol:.5f}")


def test_criterion_7_desk_scale_recovery_phase_behavior(tmp_path):
    start = time.perf_counter()
    k_grid = (10, 40, 160, 640)
    config = ExperimentConfig(
        model_source={"constant_gap": {"gamma": 0.25}},
        n_values=(6,),
        k_values=k_grid,
        trials=200,
        method="exact",
        metric="hamming",
        seed=20240601,
        output=str(tmp_path / "phase7.csv"),
    )
    rates = []
    for k in k_grid:
        records = run_cell(config, 6, k)
        rates.append(sum(r.success for r in records) / len(records))
    assert rates[-1] >= 0.95
    for lo, hi in zip(rates, rates[1:]):
        slack = 2 * math.sqrt(lo * (1 - lo) / 200 + hi * (1 - hi) / 200)
        assert hi >= lo - slack
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    pairs = ", ".join(f"K={k}: {r:.3f}" for k, r in zip(k_grid, rates))
    verdict(7, True, f"success rates non-decreasing [{pairs}] in {elapsed:.1f}s")


def test_criterion_8_theory_calculators_and_exponent_inequality():
    assert delta(4, 10) == pytest.approx(79.71192576439371, rel=1e-7)
    assert delta(4, 1) == pytest.approx(29.805328764077647, rel=1e-7)
    assert sigma_sq_bound(4, 1, 10, 0.1, delta(4, 10)) == pytest.approx(968.5431091727246, rel=1e-7)
    assert required_k(100, 0.1).case3_k == pytest.approx(8657.719949657612, rel=1e-7)
    report = failure_budget(10, 500, 0.1)
    assert math.comb(10, 1) ** 2 * report.rho3[0] == pytest.approx(0.02, rel=1e-7)
    assert failure_budget(4, 100, 0.1).rho1 == pytest.approx(8.0 / 4**32, rel=1e-7)
    assert required_k(4, 0.2).case1_ceiling == pytest.approx(2.5, rel=1e-7)
    grid = [(100, 26000, 0.1), (200, 16000, 0.25), (10_000, 48000, 0.05), (2_000, 11000, 0.2)]
    checked = 0
    for n, k, gamma in grid:
        assert failure_budget(n, k, gamma).satisfied["active"]
        for l, lhs, rhs in rho3_exponent_check(n, k, gamma):
            assert lhs >= rhs, (n, k, gamma, l)
            checked += 1
    verdict(8, True, f"hand values reproduced to 6+ significant digits; "
                     f"exponent inequality holds at {checked} (N,K,gamma,L) points")


def test_criterion_9_phase_csv_identical_across_worker_counts(tmp_path, monkeypatch):
    outputs = []
    for workers in ("1", "2", "8"):
        out = tmp_path / f"phase_w{workers}.csv"
        config = ExperimentConfig(
            model_source={"constant_gap": {"gamma": 0.25}},
            n_values=(4,),
            k_values=(10, 40),
            trials=25,
            method="exact",
            metric="hamming",
            seed=424242,
            output=str(out),
        )
        monkeypatch.setenv("MIXCUT_THREADS", workers)
        phase_diagram(config)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    verdict(9, True, f"phase CSV byte-identical under 1/2/8 workers ({len(outputs[0])} bytes)")
