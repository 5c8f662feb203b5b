import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcut import model as model_module
from mixcut.model import (
    Dataset,
    MixtureModel,
    bernoulli_bits,
    bernoulli_thresholds,
    constant_gap_mixture,
    derive_seed,
    divergence,
    figure1_mixture,
    load_model,
    philox,
    sample,
    save_model,
)
from oracles import oneshot_bernoulli

prob_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)


def test_divergence_figure1_mixture():
    model = figure1_mixture(10)
    assert abs(divergence(model) - 0.0016) <= 1e-6


def test_divergence_identical_centers_is_zero():
    p = np.linspace(0.1, 0.9, 7)
    assert divergence(MixtureModel(p1=p, p2=p)) == 0.0


def test_divergence_maximal_separation():
    model = MixtureModel(p1=[1.0, 1.0], p2=[0.0, 0.0])
    assert divergence(model) == 1.0


@given(prob_vectors, st.randoms(use_true_random=False))
def test_divergence_symmetric_and_permutation_invariant(p1, rnd):
    p2 = [rnd.random() for _ in p1]
    a = divergence(MixtureModel(p1=p1, p2=p2))
    b = divergence(MixtureModel(p1=p2, p2=p1))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
    perm = list(range(len(p1)))
    rnd.shuffle(perm)
    c = divergence(MixtureModel(p1=[p1[i] for i in perm], p2=[p2[i] for i in perm]))
    assert a == pytest.approx(c, rel=1e-12, abs=1e-15)


@given(prob_vectors, st.randoms(use_true_random=False))
def test_divergence_invariant_under_coordinate_duplication(p1, rnd):
    p2 = [rnd.random() for _ in p1]
    single = divergence(MixtureModel(p1=p1, p2=p2))
    doubled = divergence(MixtureModel(p1=p1 + p1, p2=p2 + p2))
    assert doubled == pytest.approx(single, rel=1e-12, abs=1e-15)


def test_model_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        MixtureModel(p1=[0.5, 1.2], p2=[0.5, 0.5])
    with pytest.raises(ValueError):
        MixtureModel(p1=[0.5], p2=[0.5, 0.5])
    with pytest.raises(ValueError):
        MixtureModel(p1=[], p2=[])


def test_sample_is_deterministic():
    model = constant_gap_mixture(20, 0.04)
    a = sample(model, 5, 12345)
    b = sample(model, 5, 12345)
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.labels, b.labels)
    c = sample(model, 5, 12346)
    assert not np.array_equal(a.bits, c.bits)


def test_sample_degenerate_bernoulli():
    model = MixtureModel(p1=np.ones(4), p2=np.zeros(4))
    ds = sample(model, 3, 99)
    assert np.all(ds.bits[:3] == 1)
    assert np.all(ds.bits[3:] == 0)


def test_sample_labels_balanced_and_shaped():
    model = constant_gap_mixture(8, 0.1)
    ds = sample(model, 7, 1)
    assert ds.bits.shape == (14, 8)
    assert list(ds.labels) == [1] * 7 + [2] * 7
    assert ds.seed == 1


def test_sample_mean_matches_binomial_oracle():
    # fair-coin model: overall bit mean within 3 binomial SEs of 0.5
    model = MixtureModel(p1=np.full(100, 0.5), p2=np.full(100, 0.5))
    ds = sample(model, 1000, 777)
    tol = 3 * math.sqrt(0.25 / (2 * 1000 * 100))
    assert abs(float(ds.bits.mean()) - 0.5) <= tol


def test_empirical_center_deterministic_component():
    model = MixtureModel(p1=np.ones(5), p2=np.zeros(5))
    ds = sample(model, 4, 3)
    assert np.array_equal(ds.bits[ds.labels == 1].mean(axis=0), np.ones(5))
    assert np.array_equal(ds.bits[ds.labels == 2].mean(axis=0), np.zeros(5))


def test_empirical_center_single_row():
    model = constant_gap_mixture(6, 0.09)
    ds = sample(model, 1, 5)
    assert np.array_equal(ds.bits[ds.labels == 1].mean(axis=0), ds.bits[0].astype(float))


def test_empirical_center_binomial_bound():
    model = MixtureModel(p1=np.array([0.3]), p2=np.array([0.3]))
    ds = sample(model, 10_000, 21)
    assert abs(float(ds.bits[ds.labels == 1].mean(axis=0)[0]) - 0.3) <= 0.014


def test_empirical_center_error_halves_when_n_quadruples():
    model = constant_gap_mixture(50, 0.04)

    def mean_max_err(n):
        errs = []
        for s in range(20):
            ds = sample(model, n, derive_seed(3, n, 50, s))
            errs.append(float(np.abs(ds.bits[ds.labels == 1].mean(axis=0) - model.p1).max()))
        return float(np.mean(errs))

    ratio = mean_max_err(2000) / mean_max_err(500)
    assert 0.4 <= ratio <= 0.65


def test_dataset_rejects_unbalanced_labels():
    with pytest.raises(ValueError):
        Dataset(bits=np.zeros((4, 3), dtype=np.uint8),
                labels=np.array([1, 1, 1, 2]), n_per_side=2, seed=0)


def test_model_json_roundtrip(tmp_path):
    model = figure1_mixture(10)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.p1, model.p1)
    assert np.array_equal(loaded.p2, model.p2)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 6, 640, 3) == derive_seed(7, 6, 640, 3)
    assert derive_seed(7, 6, 640, 3) != derive_seed(7, 6, 640, 4)
    assert derive_seed(7, 6, 640, 3) != derive_seed(8, 6, 640, 3)
    # pinned so a numpy SeedSequence behavior change cannot pass silently
    assert derive_seed(0, 1, 2, 3) == 16671662351209319379


# the probabilities at the ends of the threshold identity: 0 and 1, the
# least subnormal, the least uniform step, a middle value and 1 - 2**-53
EDGE_PROBS = (0.0, 2.0**-1074, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)


def test_uniform_is_the_top_53_bits_of_a_raw_word():
    rng, ref = philox(5, 2), philox(5, 2)
    words = rng.bit_generator.random_raw(1001)
    assert ((words >> 11) * 2.0**-53).tolist() == ref.random(1001).tolist()


def test_bernoulli_thresholds_at_the_edge_probabilities():
    got = bernoulli_thresholds(EDGE_PROBS)
    assert got.dtype == np.uint64
    assert got.tolist() == [0, 1, 1, 2**52, 2**53 - 1, 2**53]


def test_bernoulli_bits_equal_the_float_comparison_at_the_threshold_words():
    # every word whose top 53 bits sit at, or one step beside, a threshold,
    # with low bits 0 and all ones; the uniforms are numpy's, checked above
    p = np.array(EDGE_PROBS)
    tops = np.unique(np.clip(np.concatenate(
        [bernoulli_thresholds(p).astype(np.int64) + d for d in (-1, 0, 1)]), 0, 2**53 - 1))
    words = np.concatenate([tops.astype(np.uint64) << np.uint64(11),
                            (tops.astype(np.uint64) << np.uint64(11)) | np.uint64(2**11 - 1)])
    uniforms = (words >> 11) * 2.0**-53
    bits = bernoulli_bits(words[:, None].copy(), bernoulli_thresholds(p), out=np.empty((words.size, p.size), bool))
    np.testing.assert_array_equal(bits, uniforms[:, None] < p)


@pytest.mark.parametrize("shape", [(6,), (4, 6)])
def test_bernoulli_bits_of_raw_words_equal_the_oneshot_draw(shape):
    # the (L, K) case is a broadcast of the edge probabilities, as the
    # imbalance draws pass their centers
    p = np.broadcast_to(np.array(EDGE_PROBS), shape)
    for lead in ((), (1,), (500,)):
        rng, ref = philox(8, 1), philox(8, 1)
        words = rng.bit_generator.random_raw(int(np.prod(lead + shape))).reshape(lead + shape)
        bits = bernoulli_bits(words, bernoulli_thresholds(p), out=np.empty(lead + shape, bool))
        np.testing.assert_array_equal(bits, oneshot_bernoulli(ref, lead, p))
        assert rng.random(7).tolist() == ref.random(7).tolist()


def test_sample_equals_the_oneshot_draw_and_leaves_its_generator_alike(monkeypatch):
    # a made generator is recorded, so the state sample leaves can be read
    made = []

    def recorded(seed, *key):
        made.append(philox(seed, *key))
        return made[-1]

    monkeypatch.setattr(model_module, "philox", recorded)
    rnd = np.random.default_rng(4)
    k = 37
    p1 = np.resize(np.array(EDGE_PROBS), k)
    model = MixtureModel(p1=p1, p2=rnd.random(k))
    for n in (1, 3, 64):
        ds = sample(model, n, seed=21)
        ref = philox(21)
        stack = np.concatenate([np.tile(model.p1, n), np.tile(model.p2, n)]).reshape(2 * n, k)
        want = oneshot_bernoulli(ref, (), stack)
        assert ds.bits.dtype == np.uint8
        np.testing.assert_array_equal(ds.bits, want)
        assert made[-1].random(7).tolist() == ref.random(7).tolist()


def test_model_thresholds_are_those_of_its_centers_and_read_only():
    model = constant_gap_mixture(9, 0.3)
    np.testing.assert_array_equal(model.thresholds, bernoulli_thresholds(np.stack([model.p1, model.p2])))
    assert model.thresholds.shape == (2, 9) and not model.thresholds.flags.writeable

