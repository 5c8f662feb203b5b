import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcut.graph import (
    BalancedCut,
    Metric,
    all_balanced_cuts,
    build_graph,
    cut_weight,
    diff_cut,
    diff_node,
    hamming,
    score,
    swap_count,
    swap_imbalance,
    true_partition,
)
from mixcut.model import Dataset, MixtureModel, constant_gap_mixture, divergence, sample

from oracles import cut_weight_brute, four_term_diff, hamming_brute, random_instance, score_brute

bit_vectors = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=32)


def deterministic_dataset(k=3):
    model = MixtureModel(p1=np.ones(k), p2=np.zeros(k))
    return sample(model, 2, 0)


def test_score_examples():
    assert score([1, 0, 1], [1, 1, 0]) == 1
    assert score([0, 0, 0], [1, 1, 0]) == 0
    assert score([1] * 7, [1] * 7) == 7
    with pytest.raises(ValueError):
        score([1, 0], [1, 0, 1])


def test_hamming_examples():
    assert hamming([1, 0, 1], [1, 1, 0]) == 2
    assert hamming([1, 0, 1], [1, 0, 1]) == 0
    # popcount identity on the worked example
    assert 2 + 2 - 2 * score([1, 0, 1], [1, 1, 0]) == hamming([1, 0, 1], [1, 1, 0])
    with pytest.raises(ValueError):
        hamming([1], [1, 0])


@given(bit_vectors, st.randoms(use_true_random=False))
def test_hamming_score_popcount_identity(x, rnd):
    y = [rnd.randint(0, 1) for _ in x]
    assert hamming(x, y) == sum(x) + sum(y) - 2 * score(x, y)
    assert score(x, y) == score_brute(x, y)
    assert hamming(x, y) == hamming_brute(x, y)


def test_build_graph_deterministic_instance():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    w = graph.weights
    assert w[0, 1] == 0 and w[2, 3] == 0
    assert w[0, 2] == w[0, 3] == w[1, 2] == w[1, 3] == 3


def test_build_graph_symmetric_zero_diagonal():
    rng = np.random.default_rng(5)
    _, ds = random_instance(rng, 4)
    for metric in Metric:
        w = build_graph(ds, metric).weights
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)
        assert w.min() >= 0 and w.max() <= ds.k


def test_build_graph_entries_match_bit_recomputation():
    rng = np.random.default_rng(6)
    _, ds = random_instance(rng, 3)
    ws = build_graph(ds, Metric.SCORE).weights
    wh = build_graph(ds, Metric.HAMMING).weights
    for i in range(ds.n_nodes):
        for j in range(ds.n_nodes):
            if i == j:
                continue
            assert ws[i, j] == score_brute(ds.bits[i], ds.bits[j])
            assert wh[i, j] == int(ds.bits[i].sum()) + int(ds.bits[j].sum()) - 2 * ws[i, j]


def _dataset_from_bits(bits):
    n = bits.shape[0] // 2
    return Dataset(bits=bits, labels=np.repeat([1, 2], n), n_per_side=n, seed=0)


def _int64_reference_weights(bits, metric):
    b = bits.astype(np.int64)
    scores = b @ b.T
    pop = b.sum(axis=1)
    w = scores if metric is Metric.SCORE else pop[:, None] + pop[None, :] - 2 * scores
    np.fill_diagonal(w, 0)
    return w


@pytest.mark.parametrize("metric", list(Metric))
def test_build_graph_is_exact_at_benchmark_size(metric):
    bits = np.random.default_rng(8).integers(0, 2, size=(256, 2000), dtype=np.uint8)
    graph = build_graph(_dataset_from_bits(bits), metric)
    assert graph.weights.dtype == np.int64 and not graph.weights.flags.writeable
    assert np.array_equal(graph.weights, _int64_reference_weights(bits, metric))


def test_build_graph_is_exact_on_all_ones_rows_at_large_k():
    k = 100_000
    ds = _dataset_from_bits(np.ones((8, k), dtype=np.uint8))
    ws = build_graph(ds, Metric.SCORE).weights
    wh = build_graph(ds, Metric.HAMMING).weights
    assert ws.dtype == wh.dtype == np.int64
    assert not ws.flags.writeable and not wh.flags.writeable
    off = ~np.eye(8, dtype=bool)
    assert np.all(ws[off] == k) and np.all(np.diag(ws) == 0)
    assert np.all(wh == 0)
    for metric, w in ((Metric.SCORE, ws), (Metric.HAMMING, wh)):
        assert np.array_equal(w, _int64_reference_weights(ds.bits, metric))


def test_cut_weight_examples():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    truth = BalancedCut.from_side([0, 1], 4)
    assert cut_weight(graph, truth) == 12
    assert cut_weight(graph, BalancedCut.from_side([0, 2], 4)) == 6
    zero = build_graph(deterministic_dataset(), Metric.SCORE)  # all-ones vs zeros: scores 0 across
    for cut in all_balanced_cuts(4):
        assert cut_weight(zero, cut) == cut_weight_brute(zero.weights, cut.side_s)


def test_cut_weight_matches_brute_force_and_side_exchange():
    rng = np.random.default_rng(7)
    _, ds = random_instance(rng, 3)
    graph = build_graph(ds, Metric.HAMMING)
    for cut in all_balanced_cuts(6):
        w = cut_weight(graph, cut)
        assert w == cut_weight_brute(graph.weights, cut.side_s)
        mirrored = BalancedCut.from_side(cut.side_sbar, 6)
        assert cut_weight(graph, mirrored) == w


def test_cut_weight_rejects_node_set_mismatch():
    graph = build_graph(deterministic_dataset(), Metric.HAMMING)
    with pytest.raises(ValueError):
        cut_weight(graph, BalancedCut.from_side([0, 1, 2], 6))


def test_balanced_cut_canonicalization():
    cut = BalancedCut(side_s=(3, 2), side_sbar=(0, 1))
    assert cut.side_s == (0, 1)
    assert cut.side_sbar == (2, 3)
    with pytest.raises(ValueError):
        BalancedCut(side_s=(0, 1), side_sbar=(1, 2))
    with pytest.raises(ValueError):
        BalancedCut(side_s=(0,), side_sbar=(1, 2))


def test_diff_node_examples():
    model = MixtureModel(p1=[0.9, 0.9], p2=[0.1, 0.1])
    assert diff_node([1, 1], model, origin=1) == pytest.approx(1.6)
    same = MixtureModel(p1=[0.4, 0.7], p2=[0.4, 0.7])
    assert diff_node([1, 0], same, origin=1) == 0.0
    assert diff_node([1, 0], same, origin=2) == 0.0
    with pytest.raises(ValueError):
        diff_node([1, 0, 1], model, origin=1)
    with pytest.raises(ValueError):
        diff_node([1, 1], model, origin=3)


def test_diff_node_pair_mean_matches_k_gamma():
    # E[diff(X)] + E[diff(Y)] equals K gamma; Monte Carlo at 3 SEs
    model = constant_gap_mixture(30, 0.2)
    rng = np.random.Generator(np.random.Philox(17))
    m = 20_000
    gaps = model.p1 - model.p2
    dx = ((rng.random((m, model.k)) < model.p1) @ gaps)
    dy = ((rng.random((m, model.k)) < model.p2) @ (-gaps))
    s = dx + dy
    target = model.k * divergence(model)
    assert abs(float(s.mean()) - target) <= 3 * float(s.std(ddof=1)) / math.sqrt(m)


def test_diff_cut_zero_for_identical_cuts():
    rng = np.random.default_rng(8)
    _, ds = random_instance(rng, 3)
    graph = build_graph(ds, Metric.SCORE)
    truth = true_partition(ds)
    assert diff_cut(graph, truth, truth) == 0


def test_diff_cut_requires_score_metric():
    rng = np.random.default_rng(9)
    _, ds = random_instance(rng, 2)
    graph = build_graph(ds, Metric.HAMMING)
    truth = true_partition(ds)
    with pytest.raises(ValueError):
        diff_cut(graph, truth, truth)


def test_diff_cut_equals_four_term_sum():
    rng = np.random.default_rng(10)
    for _ in range(25):
        _, ds = random_instance(rng, 3)
        graph = build_graph(ds, Metric.SCORE)
        truth = true_partition(ds)
        for other in all_balanced_cuts(6):
            expected = four_term_diff(graph.weights, truth.side_s, other.side_s, 6)
            assert diff_cut(graph, truth, other) == expected


def test_swap_count_examples():
    truth = BalancedCut.from_side([0, 1, 2], 6)
    assert swap_count(truth, truth) == 0
    assert swap_count(truth, BalancedCut.from_side([0, 1, 3], 6)) == 1
    counts = [swap_count(truth, cut) for cut in all_balanced_cuts(6)]
    assert set(counts) == {0, 1}
    assert counts.count(1) == 9
    assert counts.count(0) == 1
    with pytest.raises(ValueError):
        swap_count(truth, BalancedCut.from_side([0, 1], 4))


def test_swap_count_mirror_invariance():
    truth = BalancedCut.from_side([0, 1, 2, 3], 8)
    other = BalancedCut.from_side([0, 1, 2, 4], 8)
    mirrored = BalancedCut.from_side(other.side_sbar, 8)
    assert swap_count(truth, other) == swap_count(truth, mirrored) == 1
    assert 0 <= max(swap_count(truth, c) for c in all_balanced_cuts(8)) <= 2


def test_swap_imbalance_examples():
    model = MixtureModel(p1=np.ones(2), p2=np.zeros(2))
    ds = sample(model, 2, 0)  # rows 0,1 all ones; rows 2,3 all zeros
    assert swap_imbalance(ds, [0], [2], k=0) == 1
    assert swap_imbalance(ds, [0], [1], k=1) == 0
    with pytest.raises(IndexError):
        swap_imbalance(ds, [0], [2], k=5)
    with pytest.raises(ValueError):
        swap_imbalance(ds, [0, 1], [2], k=0)


def test_swap_imbalance_monte_carlo_mean():
    # mean of the per-dimension group gap is L (p1^k - p2^k)
    model = MixtureModel(p1=np.array([0.8]), p2=np.array([0.2]))
    rng = np.random.Generator(np.random.Philox(19))
    m, l = 20_000, 4
    u = (rng.random((m, l)) < 0.8).sum(axis=1)
    v = (rng.random((m, l)) < 0.2).sum(axis=1)
    f2 = (u - v).astype(np.float64)
    se = float(f2.std(ddof=1)) / math.sqrt(m)
    assert abs(float(f2.mean()) - 2.4) <= 3 * se
    del model


def test_hamming_score_cut_duality_exhaustive():
    rng = np.random.default_rng(11)
    for n_per_side in (2, 3):
        _, ds = random_instance(rng, n_per_side)
        gs = build_graph(ds, Metric.SCORE)
        gh = build_graph(ds, Metric.HAMMING)
        total_pop = int(ds.bits.sum())
        for cut in all_balanced_cuts(2 * n_per_side):
            assert cut_weight(gh, cut) == n_per_side * total_pop - 2 * cut_weight(gs, cut)


def test_conditional_expectation_identity_of_swapped_groups():
    # (N-L) sum_j [diff(U_j) + diff(V_j)] equals the coordinate-wise form
    # (N-L) sum_j sum_k (p1^k - p2^k)(u_j^k - v_j^k)
    rng = np.random.default_rng(12)
    model, ds = random_instance(rng, 4)
    n, l = 4, 2
    u_nodes = [2, 3]  # origin-1 rows acting as swapped-out nodes
    v_nodes = [6, 7]  # origin-2 rows acting as swapped-in nodes
    lhs = (n - l) * sum(
        diff_node(ds.bits[u], model, 1) + diff_node(ds.bits[v], model, 2)
        for u, v in zip(u_nodes, v_nodes)
    )
    gaps = model.p1 - model.p2
    rhs = (n - l) * float(
        sum((ds.bits[u].astype(float) - ds.bits[v].astype(float)) @ gaps
            for u, v in zip(u_nodes, v_nodes))
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
