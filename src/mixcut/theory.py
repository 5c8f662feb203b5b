"""Closed-form bounds and event predicates for the balanced max-cut analysis.

Quantities evaluated here, for samples-per-side N, dimension count K,
divergence gamma and swap count L:

* deviation budget      Delta = 8N ln2 + 4K ln2 (loglog N + 1) + (3/2) ln N
* variance proxy        sigma^2 <= 4 (N-L) L^2 K gamma + 4 (N-L) L Delta
* bad-node probability  rho1 = 2N / N^32, under K >= 256 ln N / gamma
* per-cut score bound   rho3_L = 2 / N^(4L)
* simultaneous-deviation bound rho2: only an order bound exists,
  O(1 / (2^(2N) poly(N))); the concrete stand-in 1 / (2^(2N) N^(3/2)) is
  reported alongside, labeled as such (`rho2_standin`).
* expected node gaps    eta1 = p1 . (p1 - p2) and eta2 = K gamma - eta1; a
  node is bad when its score gap falls K gamma / 4 below its origin's eta,
  and the bad-node tail stays under tau once K >= 8 ln(1/tau) / gamma.
  `is_bad_node` takes one row or a stack of rows.
* required-K thresholds with the three regime cases and their constants
  (1488 / 512+2000 / 188), plus the global prerequisite 256 ln N / gamma.

Log conventions: ``ln`` is natural; bare ``log`` and ``log log`` are base 2.
N^32-scale denominators are evaluated in log space so they neither overflow
nor flush the surrounding ratio to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import diff_node
from .model import MixtureModel, divergence

__all__ = [
    "LOG_CONVENTION",
    "CASE1_KN_COEFF",
    "CASE1_K_COEFF",
    "CASE2_K_COEFF",
    "CASE2_KN_COEFF",
    "CASE3_K_COEFF",
    "RHO1_K_COEFF",
    "BAD_NODE_K_COEFF",
    "CASE_NEEDS",
    "RequiredK",
    "BoundReport",
    "delta",
    "sigma_sq_bound",
    "required_k",
    "failure_budget",
    "rho2_standin",
    "expected_gaps",
    "is_bad_node",
    "bad_node_threshold_k",
    "rho3_exponent_check",
]

LOG_CONVENTION = "ln natural; log and log log base 2"

CASE1_KN_COEFF = 1488
CASE1_K_COEFF = 2976  # implied by the case-1 KN bound on its N range
CASE2_K_COEFF = 512
CASE2_KN_COEFF = 2000
CASE3_K_COEFF = 188
RHO1_K_COEFF = 256
BAD_NODE_K_COEFF = 8

# What each regime case requires besides the rho1 prerequisite rho1_k: the
# RequiredK thresholds it must meet, in order.  A name ending in "_kn" bounds
# K N, any other bounds K.  A pair no case covers ("none") meets no case.
CASE_NEEDS = {
    "case1": ("case1_kn",),
    "case2": ("case2_k", "case2_kn"),
    "case3": ("case3_k",),
}

_LN2 = math.log(2.0)


def _loglog2(n: float) -> float:
    return math.log2(math.log2(n))


def delta(n: int, k: int) -> float:
    """Deviation budget 8N ln2 + 4K ln2 (loglog N + 1) + (3/2) ln N."""
    if n < 4:
        raise ValueError("delta requires N >= 4")
    if k < 1:
        raise ValueError("delta requires K >= 1")
    return 8.0 * n * _LN2 + 4.0 * k * _LN2 * (_loglog2(n) + 1.0) + 1.5 * math.log(n)


def sigma_sq_bound(n: int, l: int, k: int, gamma: float, delta_value: float) -> float:
    """Azuma variance proxy 4 (N-L) L^2 K gamma + 4 (N-L) L Delta."""
    if l < 1 or 2 * l > n:
        raise ValueError("L must satisfy 1 <= L <= N/2")
    return 4.0 * (n - l) * l * l * k * gamma + 4.0 * (n - l) * l * delta_value


@dataclass(frozen=True)
class RequiredK:
    """Per-case K / KN thresholds and which regime (N, gamma) falls into.

    active_case is "case1" when 16 <= N <= loglog N / (2 gamma), "case3"
    when N is large enough that its own K = 188 ln N / gamma satisfies
    N >= K loglog N / 20, "case2" for the band in between, and "none" when
    the summary cases do not cover (N, gamma) (possible for 4 <= N < 16 at
    small gamma).  `CASE_NEEDS` says which thresholds each case requires;
    `active_k_threshold` and `failure_budget`'s flags both read it.
    """

    n: int
    gamma: float
    case1_kn: float
    case1_k: float
    case2_k: float
    case2_kn: float
    case3_k: float
    rho1_k: float
    case1_ceiling: float
    active_case: str

    def active_k_threshold(self) -> float:
        """Effective minimum K of the active case: the largest K its
        `CASE_NEEDS` thresholds ask for, a KN threshold divided by N (the
        rho1 prerequisite when no case covers the pair)."""
        if self.active_case not in CASE_NEEDS:
            return self.rho1_k
        return max(getattr(self, name) / (self.n if name.endswith("_kn") else 1)
                   for name in CASE_NEEDS[self.active_case])


def required_k(n: int, gamma: float) -> RequiredK:
    """Threshold table for the three regime cases at a given (N, gamma)."""
    if n < 4:
        raise ValueError("required_k needs N >= 4")
    if gamma <= 0.0:
        raise ValueError("required_k needs gamma > 0 (no separation otherwise)")
    ln_n = math.log(n)
    llog = _loglog2(n)
    case1_kn = CASE1_KN_COEFF * ln_n * llog / (gamma * gamma)
    case2_kn = CASE2_KN_COEFF * ln_n * llog / (gamma * gamma)
    case1_k = CASE1_K_COEFF * ln_n / gamma
    case2_k = CASE2_K_COEFF * ln_n / gamma
    case3_k = CASE3_K_COEFF * ln_n / gamma
    rho1_k = RHO1_K_COEFF * ln_n / gamma
    ceiling = llog / (2.0 * gamma)
    if 16 <= n <= ceiling:
        active = "case1"
    elif n > ceiling:
        # case 3 is self-consistent when its own minimal K stays below the
        # boundary K loglog N / 20 <= N; otherwise the middle band applies
        active = "case3" if n >= case3_k * llog / 20.0 else "case2"
    else:
        active = "none"
    return RequiredK(
        n=n,
        gamma=gamma,
        case1_kn=case1_kn,
        case1_k=case1_k,
        case2_k=case2_k,
        case2_kn=case2_kn,
        case3_k=case3_k,
        rho1_k=rho1_k,
        case1_ceiling=ceiling,
        active_case=active,
    )


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    gamma: float
    log_convention: str
    delta: float
    sigma_sq: tuple
    rho1: float
    rho2_order: str
    rho2_standin: float
    rho3: tuple
    required_k: RequiredK
    satisfied: dict
    union_bound_total: float


def rho2_standin(n: int) -> float:
    """Concrete stand-in 1 / (2^(2N) N^(3/2)) for the order-only rho2 bound."""
    return math.exp(-2.0 * n * _LN2 - 1.5 * math.log(n))


def failure_budget(n: int, k: int, gamma: float) -> BoundReport:
    """Union-bound failure budget rho1 + rho2 term + binomial-weighted rho3
    sum, with per-condition hypothesis flags.

    rho1 = 2N/N^32 and rho3_L = 2/N^(4L) are exact; the rho2 term uses the
    order-bound stand-in 1/(2^(2N) N^(3/2)) with the worst-case L = N/2
    correction factor, and each rho3 term carries its 1/(1 - 2(N-L)/N^32)
    correction.
    """
    if n < 4:
        raise ValueError("failure_budget needs N >= 4")
    ln_n = math.log(n)
    rk = required_k(n, gamma)
    dlt = delta(n, k)
    half = n // 2

    def _power_ratio(numerator: float, exponent: int) -> float:
        # numerator / n^exponent, exact while the power fits a float;
        # log-space (graceful underflow) beyond that
        if exponent * ln_n < 700.0:
            return numerator / n**exponent
        return math.exp(math.log(numerator) - exponent * ln_n)

    sigma_sq = tuple(sigma_sq_bound(n, l, k, gamma, dlt) for l in range(1, half + 1))
    rho1 = _power_ratio(2.0 * n, 32)
    rho3 = tuple(_power_ratio(2.0, 4 * l) for l in range(1, half + 1))

    corr2 = math.exp(math.log(2.0 * half) - 32.0 * ln_n)
    # 2^(2N) cancels against the stand-in inside the log, leaving N^(-3/2)
    rho2_term = math.exp(-1.5 * ln_n - math.log1p(-corr2))
    rho3_sum = 0.0
    for l in range(1, half + 1):
        corr = math.exp(math.log(2.0 * (n - l)) - 32.0 * ln_n)
        log_term = (
            2.0 * (math.lgamma(n + 1) - math.lgamma(l + 1) - math.lgamma(n - l + 1))
            + _LN2
            - 4.0 * l * ln_n
            - math.log1p(-corr)
        )
        rho3_sum += math.exp(log_term)
    total = rho1 + rho2_term + rho3_sum

    satisfied = {
        name: (k * n if name.endswith("_kn") else k) >= getattr(rk, name)
        for name in ("rho1_k",) + sum(CASE_NEEDS.values(), ())
    }
    needs = CASE_NEEDS.get(rk.active_case)
    satisfied["active"] = needs is not None and satisfied["rho1_k"] and all(satisfied[name] for name in needs)

    return BoundReport(
        n=n,
        k=k,
        gamma=gamma,
        log_convention=LOG_CONVENTION,
        delta=dlt,
        sigma_sq=sigma_sq,
        rho1=rho1,
        rho2_order="O(1/(2^(2N) poly(N)))",
        rho2_standin=rho2_standin(n),
        rho3=rho3,
        required_k=rk,
        satisfied=satisfied,
        union_bound_total=total,
    )


def expected_gaps(model: MixtureModel) -> tuple:
    """(eta1, eta2): the expected score gap `diff_node` of a node of origin
    1 and of origin 2.  eta1 = p1 . (p1 - p2), and eta2 = K gamma - eta1,
    since the two sum to sum_k (p1^k - p2^k)^2 = K gamma."""
    eta1 = float(model.p1 @ (model.p1 - model.p2))
    return eta1, model.k * divergence(model) - eta1


def is_bad_node(z, model: MixtureModel, origin: int):
    """True iff the node's score gap falls more than K gamma / 4 below its
    origin's expectation (strict inequality, so identical centers never
    produce bad nodes).  `z` is one row of shape (K,), giving a bool, or a
    stack of rows of shape (..., K), giving a bool array of shape (...)."""
    gap = diff_node(z, model, origin)
    kg = model.k * divergence(model)
    return gap < expected_gaps(model)[origin - 1] - kg / 4.0


def bad_node_threshold_k(tau: float, gamma: float) -> int:
    """Smallest integer K meeting the bad-node tail hypothesis
    K >= 8 ln(1/tau) / gamma."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return int(math.ceil(BAD_NODE_K_COEFF * math.log(1.0 / tau) / gamma))


def rho3_exponent_check(n: int, k: int, gamma: float):
    """Numeric re-check of the per-cut exponent inequality: with advantage
    t = K L (N-L) gamma / 2 and the sigma^2 proxy, t^2 / (2 sigma^2) must
    reach 4 L ln N for every L.  Returns (L, lhs, rhs) triples."""
    dlt = delta(n, k)
    out = []
    for l in range(1, n // 2 + 1):
        t = k * l * (n - l) * gamma / 2.0
        s2 = sigma_sq_bound(n, l, k, gamma, dlt)
        out.append((l, t * t / (2.0 * s2), 4.0 * l * math.log(n)))
    return out
