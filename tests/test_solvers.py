import math

import numpy as np
import pytest

import mixcut.kernels as kernels
from mixcut.graph import (
    BalancedCut,
    CutGraph,
    Metric,
    all_balanced_cuts,
    build_graph,
    cut_weight,
    true_partition,
)
from mixcut.model import MixtureModel, constant_gap_mixture, derive_seed, sample
from mixcut.solvers import (
    DegenerateInstanceError,
    EnumerationCapError,
    _random_balanced_membership,
    climb_trace,
    evaluate,
    judge,
    solve,
    solve_exact,
    solve_hillclimb,
    solve_spectral,
)

from oracles import naive_extreme_balanced_cut, random_instance


def deterministic_dataset(k=3, n=2):
    model = MixtureModel(p1=np.ones(k), p2=np.zeros(k))
    return sample(model, n, 0)


def test_exact_on_deterministic_instance():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    res = solve_exact(graph)
    assert res.best_weight == 12
    assert set(res.best_cut.side_s) == {0, 1}
    assert res.tie is False
    assert res.evaluations == 3


def test_exact_zero_weight_graph_ties_on_first_canonical_cut():
    ds = deterministic_dataset(n=3)
    graph = build_graph(ds, Metric.SCORE)  # ones vs zeros: every score crossing is 0
    assert np.all(graph.weights[np.ix_(range(3), range(3, 6))] == 0)
    res = solve_exact(graph)
    assert res.tie is True
    # interesting zero case: a literally all-zero graph
    zero = build_graph(sample(MixtureModel(p1=np.zeros(3), p2=np.zeros(3)), 3, 1), Metric.HAMMING)
    res = solve_exact(zero)
    assert res.best_weight == 0
    assert res.best_cut.side_s == (0, 1, 2)
    assert res.tie is True


def test_exact_matches_naive_enumerator():
    rng = np.random.default_rng(100)
    for n_per_side in (2, 3, 4, 5):
        for _ in range(5):
            _, ds = random_instance(rng, n_per_side)
            for metric in Metric:
                graph = build_graph(ds, metric)
                res = solve_exact(graph)
                w, side, tie = naive_extreme_balanced_cut(graph.weights, maximize=True)
                assert res.best_weight == w
                assert res.tie == tie
                if not tie:
                    assert res.best_cut.side_s == side


def _random_graph(rng, n_nodes, high):
    upper = np.triu(rng.integers(0, high + 1, size=(n_nodes, n_nodes)), 1)
    return CutGraph(weights=upper + upper.T, metric=Metric.HAMMING, n_nodes=n_nodes)


def test_exact_matches_naive_enumerator_on_tie_heavy_weights():
    rng = np.random.default_rng(105)
    ties = 0
    for n_nodes in range(2, 13, 2):
        for _ in range(12):
            graph = _random_graph(rng, n_nodes, high=2)
            res = solve_exact(graph)
            w, side, tie = naive_extreme_balanced_cut(graph.weights, maximize=True)
            assert (res.best_weight, res.best_cut.side_s, res.tie) == (w, side, tie)
            assert res.evaluations == math.comb(n_nodes - 1, n_nodes // 2 - 1)
            ties += tie
    assert ties >= 10  # the lex-least tie rule is exercised, not just the maximum


def test_exact_all_zero_graph_keeps_first_cut_and_counts_every_cut():
    for n in range(1, 8):
        zeros = np.zeros((2 * n, 2 * n), dtype=np.int64)
        graph = CutGraph(weights=zeros, metric=Metric.HAMMING, n_nodes=2 * n)
        res = solve_exact(graph)
        assert res.best_weight == 0
        assert res.best_cut.side_s == tuple(range(n))
        assert res.tie is (n > 1)
        assert res.evaluations == math.comb(2 * n - 1, n - 1)


def test_exact_two_nodes_has_no_side_s_node_in_second_half():
    graph = CutGraph(weights=np.array([[0, 5], [5, 0]]), metric=Metric.HAMMING, n_nodes=2)
    res = solve_exact(graph)
    assert (res.best_weight, res.best_cut.side_s, res.tie, res.evaluations) == (5, (0,), False, 1)


def test_exact_result_weight_is_exact_and_dominates_all_cuts():
    rng = np.random.default_rng(101)
    _, ds = random_instance(rng, 4)
    graph = build_graph(ds, Metric.HAMMING)
    res = solve_exact(graph)
    assert res.best_weight == cut_weight(graph, res.best_cut)
    assert all(cut_weight(graph, c) <= res.best_weight for c in all_balanced_cuts(8))


def test_exact_cap_refusal_names_the_cap():
    model = constant_gap_mixture(4, 0.25)
    ds = sample(model, 13, 0)
    graph = build_graph(ds, Metric.HAMMING)
    with pytest.raises(EnumerationCapError, match="24"):
        solve_exact(graph)
    # a raised cap admits the same instance
    assert solve_exact(graph, cap_nodes=26).best_weight >= 0


def test_exact_recovers_partition_at_high_dimension():
    model = constant_gap_mixture(200, 0.25)
    hits = 0
    for s in range(100):
        ds = sample(model, 6, derive_seed(7, 6, 200, s))
        graph = build_graph(ds, Metric.HAMMING)
        res = solve_exact(graph)
        hits += evaluate(res, ds) and not res.tie
    assert hits >= 95


def test_hillclimb_reaches_global_optimum_from_every_start():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    for start in all_balanced_cuts(4):
        trace, weight, cut = climb_trace(graph, start)
        assert weight == 12
        assert set(cut.side_s) == {0, 1}
        assert all(b > a for a, b in zip([cut_weight(graph, start)] + trace, trace))


def test_hillclimb_never_beats_exact_and_is_deterministic():
    rng = np.random.default_rng(102)
    for _ in range(10):
        _, ds = random_instance(rng, 4)
        graph = build_graph(ds, Metric.HAMMING)
        exact = solve_exact(graph)
        hc1 = solve_hillclimb(graph, restarts=4, seed=9)
        hc2 = solve_hillclimb(graph, restarts=4, seed=9)
        assert hc1.best_weight <= exact.best_weight
        assert hc1.best_weight == cut_weight(graph, hc1.best_cut)
        assert hc1.best_cut == hc2.best_cut
        assert hc1.best_weight == hc2.best_weight
        assert len(hc1.best_cut.side_s) == 4 and 0 in hc1.best_cut.side_s


def test_hillclimb_mirror_image_ends_are_not_a_tie():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    ends = []
    for r in range(2):  # the two restarts solve_hillclimb(seed=1) runs
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=1, spawn_key=(r,))))
        ends.append(kernels.hillclimb_sweep(graph.weights, _random_balanced_membership(4, rng))[1])
    assert np.array_equal(ends[0], 1 - ends[1])  # one bipartition, two mirror images
    res = solve_hillclimb(graph, restarts=2, seed=1)
    assert res.tie is False
    assert res.best_weight == 12 and res.best_cut.side_s == (0, 1)


def test_hillclimb_first_improvement_flag():
    rng = np.random.default_rng(103)
    _, ds = random_instance(rng, 5)
    graph = build_graph(ds, Metric.HAMMING)
    exact = solve_exact(graph)
    res = solve_hillclimb(graph, restarts=4, seed=2, first_improvement=True)
    assert res.best_weight <= exact.best_weight
    assert res.best_weight == cut_weight(graph, res.best_cut)
    with pytest.raises(ValueError):
        solve_hillclimb(graph, restarts=0, seed=2)


def test_spectral_on_deterministic_instance():
    ds = deterministic_dataset(n=3)
    res = solve_spectral(ds)
    assert evaluate(res, ds)
    assert res.best_weight == cut_weight(build_graph(ds, Metric.HAMMING), res.best_cut)
    # the weight comes from per-side column sums; it must equal the graph's
    rng = np.random.default_rng(106)
    for n_per_side in (1, 2, 3, 5, 8):
        for _ in range(6):
            _, ds = random_instance(rng, n_per_side)
            if np.all(ds.bits == ds.bits[0]):
                continue
            for metric in Metric:
                res = solve_spectral(ds, metric)
                assert res.best_weight == cut_weight(build_graph(ds, metric), res.best_cut)


def test_spectral_balanced_output_and_recorded_rate():
    model = constant_gap_mixture(300, 0.04)
    hits = 0
    for s in range(30):
        ds = sample(model, 50, derive_seed(13, 50, 300, s))
        res = solve_spectral(ds)
        assert len(res.best_cut.side_s) == 50
        hits += evaluate(res, ds)
    rate = hits / 30  # recorded, not asserted: heuristic behavior is unpinned
    assert 0.0 <= rate <= 1.0


def test_spectral_rejects_degenerate_instance():
    model = MixtureModel(p1=np.ones(4), p2=np.ones(4))
    ds = sample(model, 3, 0)
    with pytest.raises(DegenerateInstanceError):
        solve_spectral(ds)


def test_evaluate_unordered_comparison():
    ds = deterministic_dataset()
    graph = build_graph(ds, Metric.HAMMING)
    res = solve_exact(graph)
    assert evaluate(res, ds) is True
    flipped = type(res)(
        best_cut=BalancedCut(side_s=res.best_cut.side_sbar, side_sbar=res.best_cut.side_s),
        best_weight=res.best_weight,
        method=res.method,
        evaluations=res.evaluations,
        tie=res.tie,
    )
    assert evaluate(flipped, ds) is True
    misplaced = type(res)(
        best_cut=BalancedCut.from_side([0, 2], 4),
        best_weight=res.best_weight,
        method=res.method,
        evaluations=res.evaluations,
        tie=res.tie,
    )
    assert evaluate(misplaced, ds) is False


def test_judge_refuses_a_truth_that_ties_and_solve_refuses_unknown_methods():
    ds = sample(MixtureModel(p1=np.zeros(3), p2=np.zeros(3)), 3, 1)
    graph = build_graph(ds, Metric.HAMMING)  # all-zero: every cut ties the truth
    settings = dict(restarts=8, seed=0, first_improvement=False, cap_nodes=24)
    res = solve(graph, ds, "exact", **settings)
    assert res.best_cut == true_partition(ds) and res.tie
    assert judge(graph, ds, res) == (0, 0, True, False)
    with pytest.raises(ValueError, match="anneal"):
        solve(graph, ds, "anneal", **settings)


@pytest.mark.parametrize("method, first_improvement", [
    ("exact", False), ("hillclimb", False), ("hillclimb", True),
])
def test_score_metric_solves_the_minimum_score_cut_as_hamming_solves_the_maximum(method, first_improvement):
    rng = np.random.default_rng(404)
    settings = dict(restarts=4, seed=17, first_improvement=first_improvement, cap_nodes=24)
    ties = 0
    for n_per_side in (2, 3, 4, 5, 6):
        for k in (3, 12, 40):
            _, ds = random_instance(rng, n_per_side, k_lo=k, k_hi=k)
            g_score, g_ham = build_graph(ds, Metric.SCORE), build_graph(ds, Metric.HAMMING)
            rs = solve(g_score, ds, method, **settings)
            rh = solve(g_ham, ds, method, **settings)
            assert (rs.best_cut, rs.tie, rs.evaluations) == (rh.best_cut, rh.tie, rh.evaluations)
            assert judge(g_score, ds, rs)[1] == judge(g_ham, ds, rh)[1]
            pop = int(ds.bits.sum())
            assert rh.best_weight == n_per_side * pop - 2 * rs.best_weight
            assert rs.best_weight == cut_weight(g_score, rs.best_cut)
            if method == "exact":
                w, side, tie = naive_extreme_balanced_cut(g_score.weights, maximize=False)
                assert (rs.best_weight, rs.tie) == (w, tie)
                assert tie or rs.best_cut.side_s == side
                ties += tie
    if method == "exact":
        assert ties >= 1  # the tie flag is compared, not only the cut
