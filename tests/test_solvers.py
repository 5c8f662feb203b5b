import math
from itertools import combinations

import numpy as np
import pytest

import mixcut.kernels as kernels
from mixcut.graph import (
    BalancedCut,
    CutGraph,
    Metric,
    build_graph,
    cut_weight,
    true_partition,
)
from mixcut.model import MixtureModel, constant_gap_mixture, derive_seed, sample
from mixcut.solvers import (
    DegenerateInstanceError,
    EnumerationCapError,
    _random_balanced_membership,
    judge,
    solve,
    solve_exact,
    solve_hillclimb,
    solve_spectral,
)

from oracles import (
    all_balanced_cuts,
    full_scan_hillclimb,
    naive_extreme_balanced_cut,
    naive_hillclimb,
    random_instance,
    svd_split,
)


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


@pytest.mark.parametrize("n_nodes", (8, 10))
def test_exact_is_exact_at_the_float64_guard_and_refuses_one_step_over(n_nodes):
    # the largest max|w| the guard admits, 4 n^2 max|w| < 2**53; the oracle
    # sums Python ints, so any rounding in the float64 scores would show
    top = (2**53 - 1) // (4 * n_nodes * n_nodes)
    assert 4 * n_nodes * n_nodes * (top + 1) >= 2**53
    rng = np.random.default_rng(120 + n_nodes)
    ties = 0
    for trial in range(12):
        if trial % 2:
            upper = rng.integers(-1, 2, size=(n_nodes, n_nodes)) * top  # {-top, 0, top}: ties
        else:
            upper = rng.integers(-top, top + 1, size=(n_nodes, n_nodes))
        upper = np.triu(upper, 1)
        upper[0, 1 + trial % (n_nodes - 1)] = top if trial % 4 < 2 else -top
        weights = upper + upper.T
        assert int(np.abs(weights).max()) == top
        best_w, m, tie, evals = kernels.exact_max_balanced_cut(weights)
        want = naive_extreme_balanced_cut(weights.tolist(), maximize=True)
        assert (best_w, tuple(np.flatnonzero(m).tolist()), tie) == want
        assert evals == math.comb(n_nodes - 1, n_nodes // 2 - 1)
        ties += tie
        over = weights.copy()
        over[0, 1] = over[1, 0] = -(top + 1)
        with pytest.raises(ValueError, match="too large"):
            kernels.exact_max_balanced_cut(over)
    assert ties >= 1


def test_exact_tables_keep_combination_order_and_are_read_only():
    for half in range(1, 8):
        m_a, m_b, classes = kernels._tables(half)
        assert [len(classes), m_a.shape[0], m_b.shape[0]] == [half, half, half]
        for s, (cols_a, cols_b) in enumerate(classes, start=1):
            want_a = [c for c in combinations(range(half), s) if c[0] == 0]
            want_b = list(combinations(range(half), half - s))
            assert [tuple(np.flatnonzero(col).tolist()) for col in m_a[:, cols_a].T] == want_a
            assert [tuple(np.flatnonzero(col).tolist()) for col in m_b[:, cols_b].T] == want_b
        # the classes tile both tables in order
        assert [c[0].start for c in classes] == [0] + [c[0].stop for c in classes[:-1]]
        assert [c[1].start for c in classes] == [0] + [c[1].stop for c in classes[:-1]]
        assert (classes[-1][0].stop, classes[-1][1].stop) == (m_a.shape[1], m_b.shape[1])
        assert set(np.unique(m_a)) | set(np.unique(m_b)) <= {0.0, 1.0}
        for table in (m_a, m_b):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        assert kernels._tables(half) is kernels._tables(half)


def test_exact_recovers_partition_at_high_dimension():
    model = constant_gap_mixture(200, 0.25)
    hits = 0
    for s in range(100):
        ds = sample(model, 6, derive_seed(7, 6, 200, s))
        graph = build_graph(ds, Metric.HAMMING)
        hits += judge(graph, ds, solve_exact(graph))[3]
    assert hits >= 95


def test_hillclimb_reaches_global_optimum_from_every_start():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    for start in all_balanced_cuts(4):
        weight, m, _evals, trace = kernels.hillclimb_sweep(graph.weights, start.membership())
        assert weight == 12
        assert set(BalancedCut.from_membership(m).side_s) == {0, 1}
        assert all(b > a for a, b in zip([cut_weight(graph, start)] + trace, trace))


def _assert_sweep_matches_naive(weights, start):
    for first_improvement in (False, True):
        weight, m, evals, trace = kernels.hillclimb_sweep(weights, start, first_improvement)
        want = naive_hillclimb(weights, start, first_improvement)
        assert (weight, m.tolist(), evals, trace) == want


def test_hillclimb_sweep_matches_naive_climber_on_tie_heavy_weights():
    # weights in {0, 1, 2} make equal gains common, so the scan order and
    # the first-maximum rule decide which swap is taken
    rng = np.random.default_rng(107)
    for n_nodes in range(2, 13, 2):
        for _ in range(8):
            graph = _random_graph(rng, n_nodes, high=2)
            start = np.zeros(n_nodes, dtype=np.uint8)
            start[rng.permutation(n_nodes)[: n_nodes // 2]] = 1
            _assert_sweep_matches_naive(graph.weights, start)


def test_hillclimb_sweep_matches_naive_climber_on_sampled_graphs():
    # Hamming graphs, and the negated score graphs that `solve` climbs on
    rng = np.random.default_rng(108)
    for n_per_side in (2, 3, 4, 6):
        for _ in range(4):
            _, ds = random_instance(rng, n_per_side)
            start = _random_balanced_membership(2 * n_per_side, rng)
            _assert_sweep_matches_naive(build_graph(ds, Metric.HAMMING).weights, start)
            _assert_sweep_matches_naive(-build_graph(ds, Metric.SCORE).weights, start)


def _assert_sweep_matches_full_scan(weights, starts):
    for start in starts:
        for first_improvement in (False, True):
            weight, m, evals, trace = kernels.hillclimb_sweep(weights, start, first_improvement)
            want_weight, want_m, want_evals, want_trace = full_scan_hillclimb(weights, start, first_improvement)
            assert (weight, m.tolist(), evals, trace) == (want_weight, want_m.tolist(), want_evals, want_trace)


@pytest.mark.parametrize("gamma", (0.05, 0.25))
@pytest.mark.parametrize("k", (10, 100, 2000))
@pytest.mark.parametrize("n_per_side", (4, 16, 64, 128))
def test_hillclimb_sweep_matches_full_scan_on_sampled_graphs(n_per_side, k, gamma):
    # Hamming graphs and the negated score graphs that `solve` climbs on,
    # three restarts each, in both modes
    ds = sample(constant_gap_mixture(k, gamma), n_per_side, derive_seed(113, n_per_side, k, int(100 * gamma)))
    rng = np.random.default_rng(derive_seed(114, n_per_side, k))
    starts = [_random_balanced_membership(2 * n_per_side, rng) for _ in range(3)]
    _assert_sweep_matches_full_scan(build_graph(ds, Metric.HAMMING).weights, starts)
    _assert_sweep_matches_full_scan(-build_graph(ds, Metric.SCORE).weights, starts)


def test_hillclimb_sweep_matches_full_scan_when_every_swap_ties():
    rng = np.random.default_rng(115)
    for n_nodes in (2, 4, 16, 64):
        starts = [_random_balanced_membership(n_nodes, rng) for _ in range(3)]
        # equal off-diagonal weights: every swap gains 0, so no step is taken
        flat = np.full((n_nodes, n_nodes), 3, dtype=np.int64)
        np.fill_diagonal(flat, 0)
        _assert_sweep_matches_full_scan(flat, starts)
        # weight 5 within the start's sides and 2 across: every first-step
        # swap gains 6 (N - 1), and the bound keeps every row and column
        for start in starts:
            same = start[:, None] == start[None, :]
            two_level = np.where(same, 5, 2).astype(np.int64)
            np.fill_diagonal(two_level, 0)
            _assert_sweep_matches_full_scan(two_level, [start])


def test_hillclimb_sweep_matches_full_scan_on_two_nodes():
    for weights in ([[0, 0], [0, 0]], [[0, 7], [7, 0]], [[0, -7], [-7, 0]]):
        weights = np.array(weights, dtype=np.int64)
        _assert_sweep_matches_full_scan(weights, [np.array([1, 0], np.uint8), np.array([0, 1], np.uint8)])
        assert kernels.hillclimb_sweep(weights, np.array([1, 0], np.uint8))[2:] == (1, [])


@pytest.mark.parametrize("first_improvement", (False, True))
def test_solve_hillclimb_matches_full_scan_restarts(first_improvement):
    # every restart shares one graph's terms; each must still climb as the
    # full scan does from the same start
    for n_per_side, k in ((4, 10), (16, 100), (64, 2000)):
        ds = sample(constant_gap_mixture(k, 0.05), n_per_side, derive_seed(116, n_per_side, k))
        for weights in (build_graph(ds, Metric.HAMMING).weights, -build_graph(ds, Metric.SCORE).weights):
            graph = CutGraph(weights=weights, metric=Metric.HAMMING, n_nodes=2 * n_per_side)
            res = solve_hillclimb(graph, restarts=5, seed=3, first_improvement=first_improvement)
            ends, evals = [], 0
            for r in range(5):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=3, spawn_key=(r,))))
                w, m, e, _trace = full_scan_hillclimb(weights, _random_balanced_membership(2 * n_per_side, rng),
                                                      first_improvement)
                ends.append((w, tuple(m.tolist()) if m[0] else tuple((1 - m).tolist())))
                evals += e + 1
            best = max(w for w, _ in ends)
            winners = [m for w, m in ends if w == best]
            assert res.best_weight == best
            assert res.best_cut == BalancedCut.from_membership(np.array(winners[0], np.uint8))
            assert res.tie == (len(set(winners)) > 1)
            assert res.evaluations == evals


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
    assert judge(build_graph(ds, Metric.HAMMING), ds, res)[3]
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


@pytest.mark.parametrize("n_per_side,k_values", [(8, (5, 10, 40)), (32, (10, 40, 200))])
def test_spectral_matches_svd_split_where_the_split_has_a_margin(n_per_side, k_values):
    # K below and above 2N; where the N-th and (N+1)-th entries of the
    # leading vector agree to 1e-8 (duplicate rows across the split), both
    # orders are valid splits and the instance is not compared
    compared = 0
    for k in k_values:
        for gamma in (0.05, 0.25):
            model = constant_gap_mixture(k, gamma)
            for trial in range(10):
                ds = sample(model, n_per_side, derive_seed(17, n_per_side, k, trial))
                side_s, margin = svd_split(ds.bits)
                if margin <= 1e-8:
                    continue
                assert solve_spectral(ds).best_cut == BalancedCut.from_side(side_s, ds.n_nodes)
                compared += 1
    assert compared >= 50


def test_spectral_balanced_output_and_recorded_rate():
    model = constant_gap_mixture(300, 0.04)
    hits = 0
    for s in range(30):
        ds = sample(model, 50, derive_seed(13, 50, 300, s))
        res = solve_spectral(ds)
        assert len(res.best_cut.side_s) == 50
        hits += judge(build_graph(ds, Metric.HAMMING), ds, res)[3]
    rate = hits / 30  # recorded, not asserted: heuristic behavior is unpinned
    assert 0.0 <= rate <= 1.0


def test_spectral_rejects_degenerate_instance():
    model = MixtureModel(p1=np.ones(4), p2=np.ones(4))
    ds = sample(model, 3, 0)
    with pytest.raises(DegenerateInstanceError):
        solve_spectral(ds)


def test_judge_unordered_comparison():
    ds = deterministic_dataset()
    graph = build_graph(ds, Metric.HAMMING)
    res = solve_exact(graph)
    assert judge(graph, ds, res)[1:] == (0, False, True)
    flipped = type(res)(
        best_cut=BalancedCut(side_s=res.best_cut.side_sbar, side_sbar=res.best_cut.side_s),
        best_weight=res.best_weight,
        method=res.method,
        evaluations=res.evaluations,
        tie=res.tie,
    )
    assert judge(graph, ds, flipped)[1:] == (0, False, True)
    misplaced = type(res)(
        best_cut=BalancedCut.from_side([0, 2], 4),
        best_weight=res.best_weight,
        method=res.method,
        evaluations=res.evaluations,
        tie=res.tie,
    )
    assert judge(graph, ds, misplaced)[1:] == (1, False, False)


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
