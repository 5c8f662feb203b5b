"""Checks of the program's outputs, computed apart from the program.

Every function here returns a list of problems (empty when the output is
right).  None of them calls into ``mixcut``'s graph, solver or kernel code:
Hamming distances, cut weights, the balanced-cut enumeration, the swap
gains, the spectral split and the concentration targets are all recomputed
from the raw bits and model centres with plain numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

PHASE_CSV_HEADER = (
    "N,K,gamma,method,metric,trials,successes,success_rate,mean_L,"
    "required_K_case,required_K_value,seed"
)


# ---------------------------------------------------------------------------
# graphs and cuts
# ---------------------------------------------------------------------------


def hamming_matrix(bits: np.ndarray) -> np.ndarray:
    """All pairwise Hamming distances as sum_k x_k (1 - y_k) + (1 - x_k) y_k."""
    x = np.asarray(bits, dtype=np.float64)
    d = x @ (1.0 - x).T
    return np.rint(d + d.T).astype(np.int64)


def membership_of(side_s, n_nodes: int) -> np.ndarray:
    m = np.zeros(n_nodes, dtype=np.int64)
    m[list(side_s)] = 1
    return m


def canonical_side(membership) -> tuple:
    """The side holding node 0, as a sorted tuple."""
    m = np.asarray(membership).astype(bool)
    if not m[0]:
        m = ~m
    return tuple(int(i) for i in np.flatnonzero(m))


def cut_weight_of(weights: np.ndarray, side_s) -> int:
    m = membership_of(side_s, weights.shape[0])
    return int(m @ weights @ (1 - m))


def swap_distance(side_a, side_b, n_per_side: int) -> int:
    """Fewest cross-swaps between two bipartitions, mirror-invariant."""
    overlap = len(set(side_a) & set(side_b))
    return min(n_per_side - overlap, overlap)


def check_graph(bits: np.ndarray, weights: np.ndarray) -> list:
    if not np.array_equal(np.asarray(weights), hamming_matrix(bits)):
        return ["graph weights differ from Hamming distances recomputed from the bits"]
    return []


def check_cut(weights: np.ndarray, side_s, reported_weight: int, label: str) -> list:
    """The cut is balanced and its reported weight is its recounted weight."""
    n_nodes = weights.shape[0]
    side = tuple(side_s)
    if len(side) != n_nodes // 2 or len(set(side)) != len(side) or 0 not in side:
        return [f"{label}: cut {side} is not a canonical balanced cut of {n_nodes} nodes"]
    recount = cut_weight_of(weights, side)
    if recount != reported_weight:
        return [f"{label}: reported weight {reported_weight} but the cut weighs {recount}"]
    return []


@lru_cache(maxsize=None)
def balanced_cuts(n_nodes: int) -> np.ndarray:
    """Memberships of every canonical balanced cut, in lexicographic order
    of side_s (node 0 plus an (N-1)-subset of the rest)."""
    half = n_nodes // 2
    rest = np.array(list(combinations(range(1, n_nodes), half - 1)), dtype=np.int64)
    m = np.zeros((len(rest), n_nodes), dtype=np.float64)
    m[:, 0] = 1.0
    np.put_along_axis(m, rest.reshape(len(rest), half - 1), 1.0, axis=1)
    m.flags.writeable = False
    return m


def check_exact(weights: np.ndarray, side_s, best_weight: int, tie: bool, evaluations: int) -> list:
    """Against a full enumeration: the cut is a maximiser, the lex-least one,
    the tie flag is set iff there are several, and every cut was counted."""
    problems = check_cut(weights, side_s, best_weight, "exact")
    n_nodes = weights.shape[0]
    cuts = balanced_cuts(n_nodes)
    w = np.asarray(weights, dtype=np.float64)
    all_weights = np.rint(((cuts @ w) * (1.0 - cuts)).sum(axis=1)).astype(np.int64)
    top = int(all_weights.max())
    winners = np.flatnonzero(all_weights == top)
    if best_weight != top:
        problems.append(f"exact: weight {best_weight} is not the maximum {top}")
    lex_least = tuple(int(i) for i in np.flatnonzero(cuts[winners[0]]))
    if tuple(side_s) != lex_least:
        problems.append(f"exact: cut {tuple(side_s)} is not the lex-least maximiser {lex_least}")
    if tie != (len(winners) > 1):
        problems.append(f"exact: tie={tie} but {len(winners)} cuts reach the maximum")
    expected = math.comb(n_nodes - 1, n_nodes // 2 - 1)
    if evaluations != expected:
        problems.append(f"exact: {evaluations} evaluations, expected C(2N-1, N-1) = {expected}")
    return problems


def swap_gains(weights: np.ndarray, side_s) -> np.ndarray:
    """Gain in cut weight of swapping u in side_s with v outside, for all
    (u, v): -b_u + a_u - a_v + b_v + 2 w_uv, where a_x and b_x sum x's
    edges into side_s and into its complement."""
    w = np.asarray(weights, dtype=np.int64)
    m = membership_of(side_s, w.shape[0]).astype(bool)
    a = w[:, m].sum(axis=1)
    b = w[:, ~m].sum(axis=1)
    u, v = np.flatnonzero(m), np.flatnonzero(~m)
    return (a[u] - b[u])[:, None] + (b[v] - a[v])[None, :] + 2 * w[np.ix_(u, v)]


def check_hillclimb(weights: np.ndarray, side_s, best_weight: int) -> list:
    """The cut is balanced, weighs what it reports, and is 1-swap optimal."""
    problems = check_cut(weights, side_s, best_weight, "hillclimb")
    if not problems:
        gain = int(swap_gains(weights, side_s).max())
        if gain > 0:
            problems.append(f"hillclimb: a 1-swap gains {gain}; the cut is not a local optimum")
    return problems


def restart_start(seed: int, restart: int, n_nodes: int) -> np.ndarray:
    """The documented start of one hill-climb restart: node 0 plus the first
    N-1 of a Philox(seed, restart) permutation of the other nodes."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(restart,))
    rng = np.random.Generator(np.random.Philox(ss))
    m = np.zeros(n_nodes, dtype=np.uint8)
    m[0] = 1
    m[rng.permutation(np.arange(1, n_nodes))[: n_nodes // 2 - 1]] = 1
    return m


def check_tie(reported_tie: bool, best_weight: int, endpoints) -> list:
    """A tie must mean that two restarts ended on different bipartitions of
    the best weight.  `endpoints` is a list of (weight, membership)."""
    top = max(w for w, _ in endpoints)
    if top != best_weight:
        return [f"hillclimb: best restart weighs {top}, reported {best_weight}"]
    sides = {canonical_side(m) for w, m in endpoints if w == top}
    if reported_tie and len(sides) == 1:
        mirrored = len({tuple(np.asarray(m).tolist()) for w, m in endpoints if w == top})
        return [
            "hillclimb: tie reported but every best restart ends on the same "
            f"bipartition ({mirrored} mirror images)"
        ]
    if not reported_tie and len(sides) > 1:
        return [f"hillclimb: {len(sides)} different best bipartitions but no tie reported"]
    return []


def leading_gram_vector(bits: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the Gram matrix of the column-centred bits."""
    x = np.asarray(bits, dtype=np.float64)
    c = x - x.mean(axis=0)
    _vals, vecs = np.linalg.eigh(c @ c.T)
    return vecs[:, -1]


def check_spectral(bits: np.ndarray, side_s, rel_tol: float = 1e-8) -> list:
    """side_s holds the N nodes of largest leading-vector value, up to a
    global sign; values within rel_tol of the split count as ties."""
    v = leading_gram_vector(bits)
    m = membership_of(side_s, v.size).astype(bool)
    if m.sum() != v.size // 2:
        return [f"spectral: side of size {int(m.sum())} is not balanced"]
    tol = rel_tol * float(np.abs(v).max())
    if v[m].min() >= v[~m].max() - tol or v[~m].min() >= v[m].max() - tol:
        return []
    return ["spectral: side is not the top N of the leading eigenvector of the centred Gram matrix"]


def judge(truth_side, side_s, n_per_side: int, tie: bool, true_weight: int, best_weight: int):
    """(L, success, tie-with-truth) under the harness's strict success rule:
    the cut equals the truth and no other cut ties the truth's weight."""
    l = swap_distance(truth_side, side_s, n_per_side)
    tie_with_truth = bool(tie and true_weight == best_weight)
    return l, (l == 0 and not tie_with_truth), tie_with_truth


# ---------------------------------------------------------------------------
# phase CSV
# ---------------------------------------------------------------------------


def check_constant_gap(p1, p2, gamma: float, base: float = 0.5) -> list:
    """Centres of a constant-gap model: base +- sqrt(gamma)/2 everywhere."""
    half_gap = math.sqrt(gamma) / 2.0
    if not (np.allclose(p1, base + half_gap, rtol=0, atol=1e-15)
            and np.allclose(p2, base - half_gap, rtol=0, atol=1e-15)):
        return [f"model: centres are not {base} +- sqrt({gamma})/2"]
    return []


def _g6(x: float) -> str:
    return f"{x:.6g}"


def check_phase_csv(text: str, config: dict, gammas: dict, trials) -> list:
    """Recount every cell of a phase CSV from the checked trials.

    `trials` maps (N, K) to a list of (success, L) pairs; `gammas` maps K to
    the model divergence recomputed from the centres.
    """
    lines = text.split("\n")
    if lines[0] != PHASE_CSV_HEADER:
        return [f"csv header is {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:] if line]
    cells = [(n, k) for n in config["n_values"] for k in config["k_values"]]
    if len(rows) != len(cells) or not text.endswith("\n"):
        return [f"csv has {len(rows)} rows for {len(cells)} cells"]
    problems = []
    for row, (n, k) in zip(rows, cells):
        cell = trials[(n, k)]
        successes = sum(ok for ok, _ in cell)
        mean_l = sum(l for _, l in cell) / len(cell)
        expected = {
            "N": str(n), "K": str(k), "gamma": _g6(gammas[k]),
            "method": config["method"], "metric": config["metric"],
            "trials": str(len(cell)), "successes": str(successes),
            "success_rate": _g6(successes / len(cell)), "mean_L": _g6(mean_l),
            "seed": str(config["seed"]),
        }
        got = dict(zip(PHASE_CSV_HEADER.split(","), row))
        for key, want in expected.items():
            if got.get(key) != want:
                problems.append(f"csv cell N={n} K={k}: {key}={got.get(key)!r}, recount {want!r}")
    return problems


# ---------------------------------------------------------------------------
# concentration checks
# ---------------------------------------------------------------------------


def verify_targets(p1, p2, n: int, tau: float, l_grid, t_grid) -> dict:
    """Closed-form target of every check, from the model centres."""
    gaps = np.asarray(p1, dtype=np.float64) - np.asarray(p2, dtype=np.float64)
    k_gamma = float(np.sum(gaps * gaps))
    targets = {"pair_gap_mean": k_gamma}
    for l in l_grid:
        targets[f"cut_gap_mean_L{l}"] = (n - l) * l * k_gamma
    targets["bad_node_rate"] = tau
    for t in t_grid:
        targets[f"imbalance_tail_t{t:g}"] = 2.0 * math.exp(-t * t)
    targets["delta_event_rate"] = 1.0 / (4.0 ** n * n ** 1.5)
    return targets


def _stated_number(tolerance: str) -> float:
    return float(tolerance.rsplit("=", 1)[1])


def _verdict_matches(check, cfg, targets) -> bool | None:
    """The verdict each check must carry given its own empirical value, or
    None when the stated tolerance is too rounded to decide."""
    name, emp = check.name, check.empirical
    if name == "bad_node_rate":
        m = 2 * (cfg.node_draws // 2)
        return emp <= cfg.tau + 3.0 * math.sqrt(cfg.tau * (1 - cfg.tau) / m)
    if name.startswith("imbalance_tail_t"):
        bound = targets[name]
        if bound >= 1.0:
            return True
        m = cfg.imbalance_draws
        return emp <= bound + 4.0 * math.sqrt(bound * (1.0 - bound) / m) + 1.0 / m
    if name == "delta_event_rate":
        return emp <= targets[name] * 10.0
    # mean checks state 3 SE to four significant digits
    limit = _stated_number(check.tolerance)
    dev = abs(emp - targets[name])
    if abs(dev - limit) <= 1e-3 * limit:
        return None
    return dev <= limit


def check_verify(report, cfg) -> list:
    """Targets equal their closed forms, every verdict agrees with its own
    empirical value and tolerance, and every gated check passes."""
    targets = verify_targets(cfg.model.p1, cfg.model.p2, cfg.n, cfg.tau, cfg.l_grid, cfg.t_grid)
    names = [c.name for c in report.checks]
    if names != list(targets):
        return [f"verify: checks {names}, expected {list(targets)}"]
    problems = []
    gamma = targets["pair_gap_mean"] / cfg.model.k
    gated = cfg.model.k >= 8.0 * math.log(1.0 / cfg.tau) / gamma
    for c in report.checks:
        target = targets[c.name]
        if not math.isclose(c.target, target, rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"verify {c.name}: target {c.target!r}, closed form {target!r}")
            continue
        if c.name == "bad_node_rate" and c.passed is None and gated:
            problems.append("verify bad_node_rate: skipped although K meets its threshold")
            continue
        if c.passed is None:
            continue
        want = _verdict_matches(c, cfg, targets)
        if want is not None and want != c.passed:
            problems.append(f"verify {c.name}: verdict {c.passed} disagrees with its own tolerance")
        elif not c.passed:
            problems.append(f"verify {c.name}: FAIL, empirical {c.empirical:.6g} vs target {target:.6g}")
    return problems
