import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcut.graph import (
    BalancedCut,
    Metric,
    build_graph,
    cut_weight,
    cut_weight_from_rows,
    diff_node,
    exact_gram,
    score_cut_weight,
    swap_count,
    true_partition,
)
from mixcut.model import BLOCK_VALUES, Dataset, MixtureModel, constant_gap_mixture, divergence, philox, sample

from oracles import all_balanced_cuts, cut_weight_brute, four_term_diff, random_instance, score_brute, score_graph


def deterministic_dataset(k=3):
    model = MixtureModel(p1=np.ones(k), p2=np.zeros(k))
    return sample(model, 2, 0)


def test_build_graph_deterministic_instance():
    graph = build_graph(deterministic_dataset())
    w = graph.weights
    assert w[0, 1] == 0 and w[2, 3] == 0
    assert w[0, 2] == w[0, 3] == w[1, 2] == w[1, 3] == 3


def test_build_graph_symmetric_zero_diagonal():
    rng = np.random.default_rng(5)
    _, ds = random_instance(rng, 4)
    for graph in (build_graph(ds), score_graph(ds)):
        w = graph.weights
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)
        assert w.min() >= 0 and w.max() <= ds.k


def test_build_graph_entries_match_bit_recomputation():
    rng = np.random.default_rng(6)
    _, ds = random_instance(rng, 3)
    ws = score_graph(ds).weights
    wh = build_graph(ds).weights
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


@pytest.mark.parametrize("metric", [Metric.HAMMING])  # the form the layered benchmark calls
def test_build_graph_is_exact_at_benchmark_size(metric):
    bits = np.random.default_rng(8).integers(0, 2, size=(256, 2000), dtype=np.uint8)
    graph = build_graph(_dataset_from_bits(bits), metric)
    assert graph.weights.dtype == np.int64 and not graph.weights.flags.writeable
    assert np.array_equal(graph.weights, _int64_reference_weights(bits, metric))


# the summed axis is cut into blocks of max(m, BLOCK_VALUES // m) for a Gram
# of side m: one block for the first four shapes, several with a short last
# one for the others
@pytest.mark.parametrize("shape,rows", [
    ((2, 5), True), ((2, 5), False), ((40, 3), True), ((40, 3), False),
    ((2, BLOCK_VALUES // 2 + 7), True),
    ((256, 2000), True),
    ((3 * (BLOCK_VALUES // 100) - 7, 100), False),
    ((BLOCK_VALUES // 7 + 9, 7), False),
])
def test_exact_gram_equals_an_int64_product(shape, rows):
    bits = np.random.default_rng(shape[0]).integers(0, 2, size=shape, dtype=np.uint8)
    b = bits.astype(np.int64)
    want = b @ b.T if rows else b.T @ b
    gram = exact_gram(bits, rows)
    assert gram.dtype == np.float64
    assert np.array_equal(gram, want)


def test_exact_gram_is_exact_past_float32_integers():
    # every entry is 2**24 + 3, which float32 rounds; the float32 blocks
    # are exact and sum into float64.  The rows are a zero-stride view, so
    # nothing of their length is allocated
    length = 2**24 + 3
    bits = np.broadcast_to(np.ones(1, dtype=np.uint8), (2, length))
    gram = exact_gram(bits, rows=True)
    assert gram.dtype == np.float64
    assert np.all(gram == length)
    assert np.all(exact_gram(bits.T, rows=False) == length)


def test_exact_gram_refuses_blocks_float32_could_round():
    # a Gram side of 2**24 makes blocks of that width
    bits = np.broadcast_to(np.ones(1, dtype=np.uint8), (2**24, 1))
    with pytest.raises(ValueError, match="too large"):
        exact_gram(bits, rows=True)


def test_build_graph_is_exact_on_all_ones_rows_at_large_k():
    k = 100_000
    ds = _dataset_from_bits(np.ones((8, k), dtype=np.uint8))
    ws = score_graph(ds).weights
    wh = build_graph(ds).weights
    assert ws.dtype == wh.dtype == np.int64
    assert not ws.flags.writeable and not wh.flags.writeable
    off = ~np.eye(8, dtype=bool)
    assert np.all(ws[off] == k) and np.all(np.diag(ws) == 0)
    assert np.all(wh == 0)
    for metric, w in ((Metric.SCORE, ws), (Metric.HAMMING, wh)):
        assert np.array_equal(w, _int64_reference_weights(ds.bits, metric))


def test_build_graph_refuses_the_score_metric():
    with pytest.raises(ValueError, match="Hamming"):
        build_graph(deterministic_dataset(), Metric.SCORE)


def test_cut_weight_examples():
    graph = build_graph(deterministic_dataset())
    truth = BalancedCut.from_side([0, 1], 4)
    assert cut_weight(graph, truth) == 12
    assert cut_weight(graph, BalancedCut.from_side([0, 2], 4)) == 6
    zero = score_graph(deterministic_dataset())  # all-ones vs zeros: scores 0 across
    for cut in all_balanced_cuts(4):
        assert cut_weight(zero, cut) == cut_weight_brute(zero.weights, cut.side_s)


def test_cut_weight_matches_brute_force_and_side_exchange():
    rng = np.random.default_rng(7)
    _, ds = random_instance(rng, 3)
    graph = build_graph(ds)
    for cut in all_balanced_cuts(6):
        w = cut_weight(graph, cut)
        assert w == cut_weight_brute(graph.weights, cut.side_s)
        mirrored = BalancedCut.from_side(cut.side_sbar, 6)
        assert cut_weight(graph, mirrored) == w


def test_cut_weight_rejects_node_set_mismatch():
    graph = build_graph(deterministic_dataset())
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


def test_diff_node_on_a_stack_equals_row_by_row():
    # dyadic centers keep every partial sum exact, in any summation order
    model = MixtureModel(p1=[0.75, 0.5, 0.875, 0.25], p2=[0.25, 0.5, 0.125, 0.75])
    stack = np.random.default_rng(31).random((3, 5, 4)) < 0.5
    for origin in (1, 2):
        got = diff_node(stack, model, origin)
        assert got.shape == (3, 5)
        assert got.tolist() == [[diff_node(row.astype(int).tolist(), model, origin) for row in rows] for rows in stack]
    with pytest.raises(ValueError):
        diff_node(np.zeros((2, 3)), model, origin=1)


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


def test_diff_node_gaps_do_not_depend_on_how_the_rows_are_blocked():
    # the rows of the pair check's X draw at pairs=1237, seed 5; a BLAS
    # matrix-vector product gave some of their gaps a different last bit
    # in 64-row blocks than in one product over all rows
    model = constant_gap_mixture(1500, 0.1)
    z = philox(5, 1).random((1237, model.k)) < model.p1
    for origin, w in ((1, model.p1 - model.p2), (2, model.p2 - model.p1)):
        gaps = diff_node(z, model, origin)
        assert gaps.tobytes() == np.add.reduce(z * w, axis=-1).tobytes()
        for rows in (1, 64, 655):
            blocked = np.concatenate([diff_node(z[i:i + rows], model, origin) for i in range(0, len(z), rows)])
            assert gaps.tobytes() == blocked.tobytes()


def test_diff_cut_equals_four_term_sum():
    rng = np.random.default_rng(10)
    for _ in range(25):
        _, ds = random_instance(rng, 3)
        weights = score_graph(ds).weights
        truth = true_partition(ds)
        truth_weight = cut_weight_from_rows(ds.bits, truth, Metric.SCORE)
        for other in all_balanced_cuts(6):
            expected = four_term_diff(weights, truth.side_s, other.side_s, 6)
            assert cut_weight_from_rows(ds.bits, other, Metric.SCORE) - truth_weight == expected


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
        gs = score_graph(ds)
        gh = build_graph(ds)
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


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=12),
       st.sampled_from(list(Metric)), st.randoms(use_true_random=False))
def test_score_cut_weight_equals_cut_weight_on_the_score_graph(n, k, metric, rnd):
    bits = np.array([[rnd.randint(0, 1) for _ in range(k)] for _ in range(2 * n)], dtype=np.uint8)
    cut = BalancedCut.from_side(rnd.sample(range(2 * n), n), 2 * n)
    stack = np.stack([bits, 1 - bits])
    want = [cut_weight(score_graph(_dataset_from_bits(b)), cut) for b in stack]
    assert score_cut_weight(bits, list(cut.side_s), list(cut.side_sbar)) == want[0]
    # a stack of datasets, as bool bits, gives each dataset's weight
    assert score_cut_weight(stack.astype(bool), list(cut.side_s), list(cut.side_sbar)).tolist() == want
    # the owner of the Hamming/score identity weighs the cut under either metric
    graph = (build_graph if metric is Metric.HAMMING else score_graph)(_dataset_from_bits(bits))
    assert cut_weight_from_rows(bits, cut, metric) == cut_weight(graph, cut)
