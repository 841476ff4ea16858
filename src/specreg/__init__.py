"""Adaptive spectral regularization with data-driven parameter selection.

Estimates a coefficient vector from noisy linear observations by damping
the eigencomponents of the least-squares solution with an ordered smoother
family, and picks the smoothing parameter by penalized empirical risk
minimization.  The penalty carries an adaptive term calibrated so that the
selector tracks the penalized oracle even when the noise level is unknown;
a seeded Monte Carlo harness validates that behavior.
"""

from .core import (
    DecomposedDesign,
    SpectralData,
    SpectralModel,
    Spectrum,
    decompose_design,
    exponential_spectrum,
    model_from_json,
    orthogonal_residual2,
    polynomial_spectrum,
    reconstruct_estimate,
    replication_stream,
    simulate_observation,
    to_spectral,
)
from .smoothers import (
    AlphaGrid,
    OrderingReport,
    SmootherFamily,
    check_ordered,
    default_floor_rule,
    default_grid,
    h_values,
)
from .penalty import (
    ConditionsReport,
    PenaltyInequalityReport,
    PenaltyTable,
    build_penalty_table,
    check_conditions,
    cramer_term,
    noise_scale,
    pen_cv,
    pen_u,
    q_plus,
    solve_mu,
    total_penalty,
    variance_span,
    verify_penalty_inequalities,
)
from .selection import (
    SelectionResult,
    contrast_known_sigma,
    contrast_unknown_sigma,
    select_alpha,
    sigma_hat2,
)
from .bench import (
    BenchReport,
    RiskProfile,
    exact_risk,
    excess_sup_stat,
    growth_term,
    mc_run,
    oracle_risk,
    penalized_risk,
    risk_bound,
    risk_profile,
)

__version__ = "0.1.0"
