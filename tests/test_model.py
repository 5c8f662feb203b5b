import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcut.model import (
    Dataset,
    MixtureModel,
    constant_gap_mixture,
    derive_seed,
    divergence,
    figure1_mixture,
    load_model,
    sample,
    save_model,
)

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
