import math
import tracemalloc
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest

import mixcut.kernels as kernels
import mixcut.solvers as solvers
from mixcut.graph import (
    BalancedCut,
    CutGraph,
    Metric,
    build_graph,
    cut_weight,
    true_partition,
)
from mixcut.model import Dataset, MixtureModel, constant_gap_mixture, derive_seed, sample
from mixcut.solvers import (
    DegenerateInstanceError,
    EnumerationCapError,
    _centred_gram,
    _lanczos_start,
    _lanczos_top,
    _random_balanced_membership,
    _spectral_lead,
    judge,
    solve,
    solve_exact,
    solve_hillclimb,
    solve_spectral,
)

from oracles import (
    all_balanced_cuts,
    eigh_top,
    full_scan_hillclimb,
    naive_extreme_balanced_cut,
    naive_hillclimb,
    random_instance,
    score_graph,
    svd_split,
)


def deterministic_dataset(k=3, n=2):
    model = MixtureModel(p1=np.ones(k), p2=np.zeros(k))
    return sample(model, n, 0)


def test_exact_on_deterministic_instance():
    graph = build_graph(deterministic_dataset())
    res = solve_exact(graph)
    assert res.best_weight == 12
    assert set(res.best_cut.side_s) == {0, 1}
    assert res.tie is False
    assert res.evaluations == 3


def test_exact_zero_weight_graph_ties_on_first_canonical_cut():
    ds = deterministic_dataset(n=3)
    graph = score_graph(ds)  # ones vs zeros: every score crossing is 0
    assert np.all(graph.weights[np.ix_(range(3), range(3, 6))] == 0)
    res = solve_exact(graph)
    assert res.tie is True
    # interesting zero case: a literally all-zero graph
    zero = build_graph(sample(MixtureModel(p1=np.zeros(3), p2=np.zeros(3)), 3, 1))
    res = solve_exact(zero)
    assert res.best_weight == 0
    assert res.best_cut.side_s == (0, 1, 2)
    assert res.tie is True


def test_exact_matches_naive_enumerator():
    rng = np.random.default_rng(100)
    for n_per_side in (2, 3, 4, 5):
        for _ in range(5):
            _, ds = random_instance(rng, n_per_side)
            for graph in (build_graph(ds), score_graph(ds)):
                res = solve_exact(graph)
                w, side, tie = naive_extreme_balanced_cut(graph.weights, maximize=True)
                assert res.best_weight == w
                assert res.tie == tie
                if not tie:
                    assert res.best_cut.side_s == side


def _random_graph(rng, n_nodes, high):
    upper = np.triu(rng.integers(0, high + 1, size=(n_nodes, n_nodes)), 1)
    return CutGraph(weights=upper + upper.T)


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
        graph = CutGraph(weights=zeros)
        res = solve_exact(graph)
        assert res.best_weight == 0
        assert res.best_cut.side_s == tuple(range(n))
        assert res.tie is (n > 1)
        assert res.evaluations == math.comb(2 * n - 1, n - 1)


def test_exact_two_nodes_has_no_side_s_node_in_second_half():
    graph = CutGraph(weights=np.array([[0, 5], [5, 0]]))
    res = solve_exact(graph)
    assert (res.best_weight, res.best_cut.side_s, res.tie, res.evaluations) == (5, (0,), False, 1)


def test_exact_result_weight_is_exact_and_dominates_all_cuts():
    rng = np.random.default_rng(101)
    _, ds = random_instance(rng, 4)
    graph = build_graph(ds)
    res = solve_exact(graph)
    assert res.best_weight == cut_weight(graph, res.best_cut)
    assert all(cut_weight(graph, c) <= res.best_weight for c in all_balanced_cuts(8))


def test_exact_cap_refusal_names_the_cap():
    model = constant_gap_mixture(4, 0.25)
    ds = sample(model, 13, 0)
    graph = build_graph(ds)
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
        graph = build_graph(ds)
        hits += judge(ds, solve_exact(graph), Metric.HAMMING)[3]
    assert hits >= 95


def test_hillclimb_reaches_global_optimum_from_every_start():
    graph = build_graph(deterministic_dataset())
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
    # Hamming graphs, and negated score graphs, whose maximum cut is the minimum-score cut
    rng = np.random.default_rng(108)
    for n_per_side in (2, 3, 4, 6):
        for _ in range(4):
            _, ds = random_instance(rng, n_per_side)
            start = _random_balanced_membership(2 * n_per_side, rng)
            _assert_sweep_matches_naive(build_graph(ds).weights, start)
            _assert_sweep_matches_naive(-score_graph(ds).weights, start)


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
    # Hamming graphs and negated score graphs (a second weight family),
    # three restarts each, in both modes
    ds = sample(constant_gap_mixture(k, gamma), n_per_side, derive_seed(113, n_per_side, k, int(100 * gamma)))
    rng = np.random.default_rng(derive_seed(114, n_per_side, k))
    starts = [_random_balanced_membership(2 * n_per_side, rng) for _ in range(3)]
    _assert_sweep_matches_full_scan(build_graph(ds).weights, starts)
    _assert_sweep_matches_full_scan(-score_graph(ds).weights, starts)


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
        for weights in (build_graph(ds).weights, -score_graph(ds).weights):
            graph = CutGraph(weights=weights)
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


def _assert_stack_matches_full_scan(weights, starts, first_improvement):
    """Climb `starts` as one stack and compare each restart with the full
    scan from its start; returns each restart's number of swaps."""
    ends = kernels.hillclimb_stack(weights, starts, first_improvement)
    assert len(ends) == len(starts)
    for start, (weight, m, evals, trace) in zip(starts, ends):
        want_weight, want_m, want_evals, want_trace = full_scan_hillclimb(weights, start, first_improvement)
        assert (weight, m.tolist(), evals, trace) == (want_weight, want_m.tolist(), want_evals, want_trace)
    return [len(trace) for *_, trace in ends]


@pytest.mark.parametrize("first_improvement", (False, True))
def test_hillclimb_stack_matches_full_scan_restart_by_restart(first_improvement):
    # stacks of 8 starts: tie-heavy weights in {0, 1, 2}, then Hamming
    # graphs and negated score graphs from 2N = 2 to N = 128
    rng = np.random.default_rng(117)
    swaps = []
    for n_nodes in (2, 4, 10, 32):
        graph = _random_graph(rng, n_nodes, high=2)
        starts = [_random_balanced_membership(n_nodes, rng) for _ in range(8)]
        swaps.append(_assert_stack_matches_full_scan(graph.weights, starts, first_improvement))
    for n_per_side, k in ((1, 10), (16, 100), (128, 400)):
        ds = sample(constant_gap_mixture(k, 0.05), n_per_side, derive_seed(118, n_per_side, k))
        starts = [_random_balanced_membership(2 * n_per_side, rng) for _ in range(8)]
        for weights in (build_graph(ds).weights, -score_graph(ds).weights):
            swaps.append(_assert_stack_matches_full_scan(weights, starts, first_improvement))
    # restarts of one stack that stop at different steps leave it one by one
    assert any(len(set(counts)) > 1 for counts in swaps)


def test_hillclimb_stack_goes_on_when_one_restart_keeps_no_row():
    # weight 3 across {0, 1} | {2, 3}: from that cut no row of side_s
    # reaches the first-improvement floor, while the other start climbs to it
    weights = np.zeros((4, 4), dtype=np.int64)
    weights[:2, 2:] = 3
    weights[2:, :2] = 3
    stuck, climbing = np.array([1, 1, 0, 0], np.uint8), np.array([1, 0, 1, 0], np.uint8)
    in_s = stuck.astype(bool)
    c = 2 * weights[:, in_s].sum(axis=1) - weights.sum(axis=1)
    assert (c + 2 * weights.max(axis=1))[in_s].max() < 1 + c[~in_s].min()
    assert _assert_stack_matches_full_scan(weights, [stuck, climbing, stuck], True) == [0, 1, 0]
    assert kernels.hillclimb_stack(weights, [stuck, climbing], True)[1][3] == [12]


@pytest.mark.parametrize("sign", (1, -1))
def test_hillclimb_stack_is_exact_at_its_guard_and_refuses_past_it(sign):
    # n^2 max|w| < 2**53: at 2N = 4 the largest weight allowed is 2**49 - 1
    rng = np.random.default_rng(119)
    largest = 2**49 - 1
    upper = np.triu(rng.integers(-largest, largest + 1, size=(4, 4)), 1)
    upper[0, 1] = sign * largest
    weights = upper + upper.T
    starts = [cut.membership() for cut in all_balanced_cuts(4)]
    for first_improvement in (False, True):
        ends = kernels.hillclimb_stack(weights, starts, first_improvement)
        for start, (weight, m, evals, trace) in zip(starts, ends):
            # the naive climber sums Python integers, which never overflow
            assert (weight, m.tolist(), evals, trace) == naive_hillclimb(weights, start, first_improvement)
    weights[0, 1] = weights[1, 0] = sign * (largest + 1)
    with pytest.raises(ValueError, match="too large"):
        kernels.hillclimb_stack(weights, starts)


@pytest.mark.parametrize("start", ([1, 1, 1, 0], [1, 0, 0, 0], [2, 0, 1, 0], [1, 0, 1]))
def test_hillclimb_stack_refuses_a_start_that_is_not_balanced(start):
    weights = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    with pytest.raises(ValueError, match="balanced"):
        kernels.hillclimb_sweep(weights, np.array(start))


def test_hillclimb_never_beats_exact_and_is_deterministic():
    rng = np.random.default_rng(102)
    for _ in range(10):
        _, ds = random_instance(rng, 4)
        graph = build_graph(ds)
        exact = solve_exact(graph)
        hc1 = solve_hillclimb(graph, restarts=4, seed=9)
        hc2 = solve_hillclimb(graph, restarts=4, seed=9)
        assert hc1.best_weight <= exact.best_weight
        assert hc1.best_weight == cut_weight(graph, hc1.best_cut)
        assert hc1.best_cut == hc2.best_cut
        assert hc1.best_weight == hc2.best_weight
        assert len(hc1.best_cut.side_s) == 4 and 0 in hc1.best_cut.side_s


def test_hillclimb_mirror_image_ends_are_not_a_tie():
    graph = build_graph(deterministic_dataset())
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
    graph = build_graph(ds)
    exact = solve_exact(graph)
    res = solve_hillclimb(graph, restarts=4, seed=2, first_improvement=True)
    assert res.best_weight <= exact.best_weight
    assert res.best_weight == cut_weight(graph, res.best_cut)
    with pytest.raises(ValueError):
        solve_hillclimb(graph, restarts=0, seed=2)


def test_spectral_on_deterministic_instance():
    ds = deterministic_dataset(n=3)
    res = solve_spectral(ds)
    assert judge(ds, res, Metric.HAMMING)[3]
    assert res.best_weight == cut_weight(build_graph(ds), res.best_cut)
    # the weight comes from per-side column sums; it must equal the graph's
    rng = np.random.default_rng(106)
    for n_per_side in (1, 2, 3, 5, 8):
        for _ in range(6):
            _, ds = random_instance(rng, n_per_side)
            if np.all(ds.bits == ds.bits[0]):
                continue
            for metric, graph in ((Metric.HAMMING, build_graph(ds)), (Metric.SCORE, score_graph(ds))):
                res = solve_spectral(ds, metric)
                assert res.best_weight == cut_weight(graph, res.best_cut)


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


def _symmetric_duplicates():
    # three rows of each of two mirror-image kinds and two copies of a row
    # that the mirror fixes, so those copies lie exactly between the kinds
    # and must straddle the split
    a, b, mid = [1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 1, 1, 1, 1, 1]
    bits = np.array([a, a, a, b, b, b, mid, mid], dtype=np.uint8)
    return Dataset(bits=bits, labels=np.repeat([1, 2], 4), n_per_side=4, seed=0)


# the symmetric rows, and two sampled K = 5 instances whose cut changed when
# identical rows stopped being ordered by the rounding of eigh's vector
@pytest.mark.parametrize("gamma,n,trial", [(None, 4, None), (0.05, 24, 6), (0.25, 64, 6)])
def test_spectral_gives_identical_rows_equal_values_and_splits_them_by_node_index(gamma, n, trial):
    if gamma is None:
        base = _symmetric_duplicates()
    else:
        base = sample(constant_gap_mixture(5, gamma), n, derive_seed(2009, n, 5, trial))
    rng = np.random.default_rng(7)
    for _ in range(8):
        perm = rng.permutation(base.n_nodes)
        ds = Dataset(bits=base.bits[perm], labels=base.labels[perm], n_per_side=base.n_per_side, seed=0)
        lead = _spectral_lead(ds.bits)
        top = np.argsort(-lead, kind="stable")[: ds.n_per_side]
        assert solve_spectral(ds).best_cut == BalancedCut.from_side(top.tolist(), ds.n_nodes)
        copies = defaultdict(list)
        for node, row in enumerate(ds.bits):
            copies[row.tobytes()].append(node)
        straddled = 0
        for nodes in copies.values():
            values = lead[nodes].view(np.uint64)
            assert np.all(values == values[0]), nodes
            # the copies on the larger-value side are the lowest-indexed ones
            taken = np.isin(nodes, top)
            assert np.array_equal(taken, np.sort(taken)[::-1]), nodes
            straddled += 0 < taken.sum() < len(nodes)
        assert straddled == 1


def _one_hot_rows(counts, k=None):
    # counts[i] copies of the i-th unit row of width k (default len(counts))
    return np.repeat(np.eye(len(counts), k or len(counts), dtype=np.uint8), counts, axis=0)


def _lanczos_cases():
    rng = np.random.default_rng(1950)
    # sampled bits with the Gram on either side: K < 2N and K > 2N
    for n, k in ((8, 5), (8, 40), (32, 10), (32, 200), (64, 100)):
        for gamma in (0.0, 0.02, 0.3):
            yield f"sampled N={n} K={k} gamma={gamma}", sample(constant_gap_mixture(k, gamma), n, derive_seed(31, n, k)).bits
    # 2N rows drawn from five distinct ones: duplicates, centred rank <= 4
    for n, k in ((8, 12), (16, 60), (32, 20)):
        distinct = rng.integers(0, 2, (5, k), dtype=np.uint8)
        yield f"duplicates N={n} K={k}", distinct[rng.integers(0, 5, 2 * n)]
    # equal counts of unit rows: the top eigenvalue is repeated exactly, on
    # the column side and on the row side; unequal counts part it slightly
    yield "degenerate, column side", _one_hot_rows([4, 4, 4, 4])
    yield "degenerate, row side", _one_hot_rows([3, 3, 3, 3], k=16)
    yield "near-degenerate 40/40/41/39", _one_hot_rows([40, 40, 41, 39])
    yield "near-degenerate 300/301/299/300", _one_hot_rows([300, 301, 299, 300])


def test_lanczos_top_matches_the_dense_eigh_of_the_same_gram():
    gaps = []
    for name, bits in _lanczos_cases():
        gram = _centred_gram(bits)
        theta, x, steps = _lanczos_top(gram)
        values = np.linalg.eigvalsh(gram)
        assert abs(theta - values[-1]) <= 1e-12 * values[-1], name
        assert abs(np.linalg.norm(x) - 1) <= 1e-12 and x @ _lanczos_start(len(gram)) > 0, name
        assert 1 <= steps <= len(gram), name
        gap = (values[-1] - values[-2]) / values[-1]
        gaps.append(gap)
        if gap > 1e-6:  # below it the top eigenvector is not well defined
            assert abs(x @ eigh_top(gram)[1]) >= 1 - 1e-10, (name, gap)
    assert sum(gap <= 1e-6 for gap in gaps) == 2 and min(gap for gap in gaps if gap > 1e-6) < 1e-2


def _oracle_top(gram):
    # the dense vector, oriented by the same rule as the Lanczos vector
    value, vector = eigh_top(gram)
    return value, (vector if vector @ _lanczos_start(len(gram)) > 0 else -vector), len(gram)


def test_spectral_cut_equals_the_cut_of_the_dense_vector(monkeypatch):
    # the same projection and stable split, fed the dense eigh vector; at
    # K = 5 distinct rows tie to rounding and the two cuts can part, so
    # that K is left out
    compared = 0
    for n in (4, 6, 8, 12, 16, 24, 32):
        for k in (10, 20, 40, 160):
            for g, gamma in enumerate((0.02, 0.1, 0.3)):
                model = constant_gap_mixture(k, gamma)
                for trial in range(10):
                    ds = sample(model, n, derive_seed(1950, n, k, g, trial))
                    cut = solve_spectral(ds).best_cut
                    with monkeypatch.context() as patch:
                        patch.setattr(solvers, "_lanczos_top", _oracle_top)
                        assert cut == solve_spectral(ds).best_cut, (n, k, gamma, trial)
                    compared += 1
    assert compared == 840


def test_two_row_kinds_split_exactly_at_a_breakdown(monkeypatch):
    # N copies each of two distinct rows, in the node order a b b a a b b a
    # ...: the centred Gram (row side, K >= 2N) has rank one, so the
    # iteration breaks down at its second step, with the answer.  A start
    # of 1 would fail here: the row-side Gram maps 1 to 0.  So would an
    # alternating +-1 start: in this order it is orthogonal to the answer,
    # +1 on one kind and -1 on the other.  Either start is mapped to 0 and
    # gives every node the value 0, and the split by node index is wrong.
    n, k = 8, 24
    rng = np.random.default_rng(25)
    kinds = rng.integers(0, 2, (2, k), dtype=np.uint8)
    kinds[0, 0], kinds[1, 0] = 1, 0  # distinct
    labels = np.array([1, 2, 2, 1] * (n // 2))
    ds = Dataset(bits=kinds[labels - 1], labels=labels, n_per_side=n, seed=0)
    truth = true_partition(ds)
    gram = _centred_gram(ds.bits)
    assert np.linalg.matrix_rank(gram) == 1
    assert _lanczos_top(gram)[2] == 2
    assert solve_spectral(ds).best_cut == truth
    answer = np.where(labels == 1, 1.0, -1.0)
    alternating = np.resize([1.0, -1.0], 2 * n)
    assert not (gram @ np.ones(2 * n)).any() and answer @ alternating == 0
    for start in (np.ones(2 * n), alternating):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_lanczos_start", lambda m, start=start: start)
            assert solve_spectral(ds).best_cut != truth


@pytest.mark.parametrize("layer", ["sample", "build_graph", "solve_spectral"])
def test_trial_layers_stay_within_3_mib_at_n128_k2000(layer):
    # whole 8-byte copies of the bits (the raw words, float64 Gram inputs)
    # put the traced peaks at 4.5, 5.4 and 8.8 MiB; blockwise draws and
    # Gram products keep them near 2
    model = constant_gap_mixture(2000, 0.05)
    ds = sample(model, 128, 5)
    call = {
        "sample": lambda: sample(model, 128, 5),
        "build_graph": lambda: build_graph(ds),
        "solve_spectral": lambda: solve_spectral(ds),
    }[layer]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"


def test_spectral_solve_stays_within_5_82_mib_at_n1024_k554():
    # a dense eigh of the 554 x 554 Gram put the traced peak at 5.82 MiB; a
    # Lanczos basis of a few dozen rows keeps it near 4.8
    ds = sample(constant_gap_mixture(554, 0.01), 1024, 5)
    tracemalloc.start()
    try:
        solve_spectral(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.82 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("shape", [(4, 2**47), (2**17, 1)])
def test_spectral_refuses_bits_whose_gram_could_round(shape):
    # 4 n^2 max(n, K) = 2**53 on either side of the Gram; the bits are a
    # zero-stride view, so nothing of that size is allocated
    bits = np.broadcast_to(np.zeros(1, dtype=np.uint8), shape)
    with pytest.raises(ValueError, match="too large"):
        _spectral_lead(bits)


def test_spectral_balanced_output_and_recorded_rate():
    model = constant_gap_mixture(300, 0.04)
    hits = 0
    for s in range(30):
        ds = sample(model, 50, derive_seed(13, 50, 300, s))
        res = solve_spectral(ds)
        assert len(res.best_cut.side_s) == 50
        hits += judge(ds, res, Metric.HAMMING)[3]
    rate = hits / 30  # recorded, not asserted: heuristic behavior is unpinned
    assert 0.0 <= rate <= 1.0


def test_spectral_rejects_degenerate_instance():
    model = MixtureModel(p1=np.ones(4), p2=np.ones(4))
    ds = sample(model, 3, 0)
    with pytest.raises(DegenerateInstanceError):
        solve_spectral(ds)


def test_judge_unordered_comparison():
    ds = deterministic_dataset()
    graph = build_graph(ds)
    res = solve_exact(graph)
    assert judge(ds, res, Metric.HAMMING)[1:] == (0, False, True)
    flipped = type(res)(
        best_cut=BalancedCut(side_s=res.best_cut.side_sbar, side_sbar=res.best_cut.side_s),
        best_weight=res.best_weight,
        method=res.method,
        evaluations=res.evaluations,
        tie=res.tie,
    )
    assert judge(ds, flipped, Metric.HAMMING)[1:] == (0, False, True)
    misplaced = type(res)(
        best_cut=BalancedCut.from_side([0, 2], 4),
        best_weight=res.best_weight,
        method=res.method,
        evaluations=res.evaluations,
        tie=res.tie,
    )
    assert judge(ds, misplaced, Metric.HAMMING)[1:] == (1, False, False)


def test_judge_refuses_a_truth_that_ties_and_solve_refuses_unknown_methods():
    ds = sample(MixtureModel(p1=np.zeros(3), p2=np.zeros(3)), 3, 1)
    settings = dict(restarts=8, seed=0, first_improvement=False, cap_nodes=24)
    # all-zero: every cut ties the truth
    res = solve(ds, "exact", Metric.HAMMING, **settings)
    assert res.best_cut == true_partition(ds) and res.tie
    assert judge(ds, res, Metric.HAMMING) == (0, 0, True, False)
    with pytest.raises(ValueError, match="anneal"):
        solve(ds, "anneal", Metric.HAMMING, **settings)


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
            g_score = score_graph(ds)
            rs = solve(ds, method, Metric.SCORE, **settings)
            rh = solve(ds, method, Metric.HAMMING, **settings)
            assert (rs.best_cut, rs.tie, rs.evaluations) == (rh.best_cut, rh.tie, rh.evaluations)
            assert judge(ds, rs, Metric.SCORE)[1] == judge(ds, rh, Metric.HAMMING)[1]
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
