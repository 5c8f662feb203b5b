import itertools
import math

import numpy as np
import pytest

from mixcut.model import MixtureModel, constant_gap_mixture, divergence
from mixcut.theory import (
    LOG_CONVENTION,
    bad_node_threshold_k,
    delta,
    expected_gaps,
    failure_budget,
    is_bad_node,
    required_k,
    rho2_standin,
    rho3_exponent_check,
    sigma_sq_bound,
)

# hand-evaluated under the stated log conventions (ln natural, log log base 2)
DELTA_4_10 = 32 * math.log(2) + 40 * math.log(2) * 2 + 1.5 * math.log(4)
DELTA_4_1 = 32 * math.log(2) + 4 * math.log(2) * 2 + 1.5 * math.log(4)


def test_delta_hand_values():
    assert delta(4, 10) == pytest.approx(79.71192576439371, rel=1e-12)
    assert delta(4, 10) == pytest.approx(DELTA_4_10, rel=1e-12)
    assert delta(4, 1) == pytest.approx(29.805328764077647, rel=1e-12)
    assert delta(4, 1) == pytest.approx(DELTA_4_1, rel=1e-12)


def test_delta_domain_and_monotonicity():
    with pytest.raises(ValueError):
        delta(3, 10)
    with pytest.raises(ValueError):
        delta(4, 0)
    grid = [4, 5, 8, 16, 100]
    assert all(delta(b, 10) > delta(a, 10) for a, b in zip(grid, grid[1:]))
    assert all(delta(10, b) > delta(10, a) for a, b in zip(grid, grid[1:]))


def test_sigma_sq_bound_hand_value():
    value = sigma_sq_bound(4, 1, 10, 0.1, delta(4, 10))
    assert value == pytest.approx(968.5431091727246, rel=1e-12)
    assert value == pytest.approx(12.0 + 12.0 * DELTA_4_10, rel=1e-12)


def test_sigma_sq_bound_domain_and_monotonicity():
    with pytest.raises(ValueError):
        sigma_sq_bound(4, 0, 10, 0.1, 80.0)
    with pytest.raises(ValueError):
        sigma_sq_bound(4, 3, 10, 0.1, 80.0)
    assert sigma_sq_bound(4, 1, 10, 0.1, 90.0) > sigma_sq_bound(4, 1, 10, 0.1, 80.0)


def test_required_k_case3_hand_value():
    rk = required_k(100, 0.1)
    assert rk.case3_k == pytest.approx(8657.719949657612, rel=1e-12)
    assert rk.rho1_k == pytest.approx(256 * math.log(100) / 0.1, rel=1e-12)


def test_required_k_scales_inversely_with_gamma():
    a = required_k(100, 0.1)
    b = required_k(100, 0.2)
    assert a.case2_k == pytest.approx(2 * b.case2_k, rel=1e-12)
    assert a.case3_k == pytest.approx(2 * b.case3_k, rel=1e-12)


def test_required_k_case1_boundary():
    rk = required_k(4, 0.2)
    assert rk.case1_ceiling == pytest.approx(2.5, rel=1e-12)
    assert rk.active_case != "case1"  # N=4 exceeds the case-1 ceiling
    big = required_k(10_000, 0.05)
    assert big.active_case == "case3"
    mid = required_k(100, 0.1)
    assert mid.active_case == "case2"


def test_required_k_rejects_degenerate_gamma():
    with pytest.raises(ValueError):
        required_k(100, 0.0)
    with pytest.raises(ValueError):
        required_k(3, 0.1)


def test_failure_budget_rho_values():
    report = failure_budget(10, 500, 0.1)
    assert report.rho3 == tuple(2.0 / 10 ** (4 * l) for l in (1, 2, 3, 4, 5))
    term_l1 = math.comb(10, 1) ** 2 * report.rho3[0]
    assert term_l1 == pytest.approx(0.02, rel=1e-12)
    # the 1/(1 - 2(N-L)/N^32) correction is negligible at this scale
    assert report.union_bound_total >= term_l1
    assert report.union_bound_total <= term_l1 * 1.000001 + report.rho1 + 2 * report.rho2_standin * 2**20 + 1e-3

    at4 = failure_budget(4, 100, 0.1)
    assert at4.rho1 == 8.0 / 4**32
    assert at4.rho2_order == "O(1/(2^(2N) poly(N)))"
    assert at4.rho2_standin == pytest.approx(1.0 / (2**8 * 8.0), rel=1e-12)
    assert at4.log_convention == LOG_CONVENTION


def test_failure_budget_l_sum_dominated_by_first_term():
    for n in (4, 6, 10, 20):
        report = failure_budget(n, 50, 0.2)
        terms = [
            math.comb(n, l + 1) ** 2 * rho for l, rho in enumerate(report.rho3)
        ]
        assert all(b < a for a, b in zip(terms, terms[1:]))


def test_failure_budget_flags_and_k_monotonicity():
    sat_low = failure_budget(100, 8000, 0.1).satisfied
    sat_high = failure_budget(100, 9000, 0.1).satisfied
    assert sat_low["case3_k"] is False
    assert sat_high["case3_k"] is True
    # rho terms do not grow with K: total is non-increasing in K
    t1 = failure_budget(100, 8000, 0.1).union_bound_total
    t2 = failure_budget(100, 30000, 0.1).union_bound_total
    assert t2 <= t1


def test_failure_budget_refuses_nonpositive_gamma():
    for gamma in (0.0, -0.1):
        with pytest.raises(ValueError, match="gamma > 0"):
            failure_budget(6, 50, gamma)


def test_is_bad_node_edge_cases():
    same = MixtureModel(p1=[0.3, 0.6], p2=[0.3, 0.6])
    assert is_bad_node([1, 1], same, origin=1) is False
    assert is_bad_node([0, 0], same, origin=2) is False
    model = MixtureModel(p1=[0.9, 0.2], p2=[0.1, 0.8])
    maximizer = [1, 0]  # sets exactly the coordinates where p1 > p2
    assert is_bad_node(maximizer, model, origin=1) is False


def test_is_bad_node_on_a_stack_equals_row_by_row():
    # dyadic centers keep every gap exact; all 16 rows of {0,1}^4, as 2 x 8
    model = MixtureModel(p1=[0.75, 0.5, 0.875, 0.25], p2=[0.25, 0.5, 0.125, 0.75])
    stack = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.int8).reshape(2, 8, 4)
    for origin in (1, 2):
        got = is_bad_node(stack, model, origin)
        assert got.shape == (2, 8) and got.any() and not got.all()
        assert got.tolist() == [[is_bad_node(row, model, origin) for row in rows] for rows in stack]


def test_expected_gaps_are_the_per_origin_mean_gaps():
    model = MixtureModel(p1=[0.1, 0.2, 0.7], p2=[0.9, 0.8, 0.4])
    eta1, eta2 = expected_gaps(model)
    assert eta1 == pytest.approx(float(model.p1 @ (model.p1 - model.p2)), rel=1e-12)
    assert eta2 == pytest.approx(float(model.p2 @ (model.p2 - model.p1)), rel=1e-12)
    assert eta1 + eta2 == pytest.approx(model.k * divergence(model), rel=1e-12)


def test_rho2_standin_values():
    for n in (4, 10, 50):
        assert rho2_standin(n) == pytest.approx(1.0 / (4.0**n * n**1.5), rel=1e-12)
        assert failure_budget(n, 100, 0.1).rho2_standin == rho2_standin(n)


def test_is_bad_node_tail_at_threshold_dimension():
    tau, gamma = 0.05, 0.2
    k = bad_node_threshold_k(tau, gamma)
    model = constant_gap_mixture(k, gamma)
    rng = np.random.Generator(np.random.Philox(23))
    m = 20_000
    gaps = model.p1 - model.p2
    eta1 = float(model.p1 @ gaps)
    kg = k * divergence(model)
    draws = (rng.random((m, k)) < model.p1) @ gaps
    freq = float((draws < eta1 - kg / 4.0).mean())
    assert freq <= tau + 3 * math.sqrt(tau * (1 - tau) / m)


def test_rho3_exponent_inequality_on_satisfied_grid():
    grid = [
        (100, 26000, 0.1),    # case 2 territory
        (200, 16000, 0.25),
        (10_000, 48000, 0.05),  # case 3 territory (rho1 prerequisite binds)
        (2_000, 11000, 0.2),
    ]
    for n, k, gamma in grid:
        report = failure_budget(n, k, gamma)
        assert report.satisfied["active"], (n, k, gamma, report.required_k.active_case)
        for l, lhs, rhs in rho3_exponent_check(n, k, gamma):
            assert lhs >= rhs, (n, k, gamma, l)


def test_azuma_deviation_bound_on_fixed_history():
    # fixed good 2KL-history, resampled futures: empirical deviation tail of
    # the cut-score difference stays under 2 exp(-t^2 / (2 sigma^2))
    n, l, k, gamma = 4, 1, 40, 0.1
    model = constant_gap_mixture(k, gamma)
    rng = np.random.Generator(np.random.Philox(29))
    kg = k * divergence(model)
    eta1 = float(model.p1 @ (model.p1 - model.p2))
    while True:  # draw swapped nodes until both are good (fast: most are)
        u = (rng.random(k) < model.p1).astype(np.int64)
        v = (rng.random(k) < model.p2).astype(np.int64)
        du = float(u @ (model.p1 - model.p2))
        dv = float(v @ (model.p2 - model.p1))
        if du >= eta1 - kg / 4 and dv >= (kg - eta1) - kg / 4:
            break
    expected = (n - l) * (du + dv)
    m = 4000
    x = (rng.random((m, n - l, k)) < model.p1).astype(np.int64)
    y = (rng.random((m, n - l, k)) < model.p2).astype(np.int64)
    # edges between swapped pair (u, v) and the 2(N-L) unswapped nodes
    d = (y @ v).sum(axis=1) - (x @ v).sum(axis=1) + (x @ u).sum(axis=1) - (y @ u).sum(axis=1)
    dev = np.abs(d - expected)
    s2 = sigma_sq_bound(n, l, k, gamma, delta(n, k))
    for t in (50.0, 100.0, 200.0):
        bound = 2.0 * math.exp(-t * t / (2.0 * s2))
        assert float((dev >= t).mean()) <= bound
