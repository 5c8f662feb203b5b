"""Balanced max-cut clustering of two-component Bernoulli product mixtures.

Sample balanced datasets from a mixture over {0,1}^K, build score or
Hamming graphs over the 2N points, recover the hidden partition as a
maximum-weight balanced cut (exact, hill-climbing, or spectral), evaluate
the theory's bound calculators, and run reproducible Monte Carlo sweeps.
"""

from .graph import (
    BalancedCut,
    CutGraph,
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
from .harness import (
    ExperimentConfig,
    TrialRecord,
    VerifyConfig,
    phase_diagram,
    read_phase_csv,
    run_cell,
    verify_concentration,
)
from .model import (
    Dataset,
    MixtureModel,
    constant_gap_mixture,
    derive_seed,
    divergence,
    empirical_center,
    figure1_mixture,
    load_model,
    sample,
    save_model,
)
from .solvers import (
    DegenerateInstanceError,
    EnumerationCapError,
    SolveResult,
    solve_exact,
    solve_hillclimb,
    solve_spectral,
)
from .theory import (
    BoundReport,
    RequiredK,
    TheoryContext,
    delta,
    failure_budget,
    hoeffding_tail,
    hoeffding_tail_two_sample,
    is_bad_node,
    required_k,
    sigma_sq_bound,
)

__version__ = "0.1.0"
