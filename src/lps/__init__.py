"""Solvers and experiment harness for p-norm based optimization problems.

Five convex families for p > 1 (basis pursuit, two denoising forms, ridge
regression, elastic net) solved from their KKT characterizations, plus
p = 1 and 0 < p < 1 comparison solvers, Gaussian instance ensembles, and a
Monte-Carlo harness measuring solution supports.
"""

__version__ = "0.1.0"

from .analysis import (
    ExperimentConfig,
    ExperimentStats,
    SupportReport,
    certified_full_support,
    certify_nonzero,
    check_dual_jacobian_spd,
    check_lower_bound,
    perturbation_robustness,
    run_genericity_experiment,
    run_recovery_comparison,
    support,
)
from .ensembles import (
    EnsembleSpec,
    gen_gaussian_instance,
    gen_sparse_measured,
    is_in_set_S,
    min_pnorm_over_affine,
    rip_constant,
)
from .errors import (
    CapacityError,
    InvalidIndexError,
    InvalidInputError,
    LpsError,
    NotPositiveDefiniteError,
    RankDeficientError,
    SingularPointError,
    UndefinedDerivativeError,
    UnsupportedExponentError,
)
from .linalg import affine_project, is_invertible, least_norm_solution, solve_spd, submatrix_cols
from .pnorm import g_prime, g_scalar, h_prime, h_scalar, pnorm_grad, pnorm_pow, pnorm_r_hessian
from .solvers import (
    ProblemInstance,
    SolveResult,
    SolverConfig,
    kkt_residual,
    solve_bp,
    solve_bp_l1,
    solve_bpdn_eps,
    solve_bpdn_eta,
    solve_en,
    solve_instance,
    solve_rr,
    solve_rr_irls,
    solve_stack,
)

__all__ = [
    "__version__",
    "ExperimentConfig", "ExperimentStats", "SupportReport",
    "certified_full_support", "certify_nonzero",
    "check_dual_jacobian_spd", "check_lower_bound", "perturbation_robustness",
    "run_genericity_experiment", "run_recovery_comparison", "support",
    "EnsembleSpec", "gen_gaussian_instance", "gen_sparse_measured",
    "is_in_set_S", "min_pnorm_over_affine", "rip_constant",
    "CapacityError", "InvalidIndexError", "InvalidInputError", "LpsError",
    "NotPositiveDefiniteError", "RankDeficientError", "SingularPointError",
    "UndefinedDerivativeError", "UnsupportedExponentError",
    "affine_project", "is_invertible", "least_norm_solution", "solve_spd",
    "submatrix_cols",
    "g_prime", "g_scalar", "h_prime", "h_scalar", "pnorm_grad",
    "pnorm_pow", "pnorm_r_hessian",
    "ProblemInstance", "SolveResult", "SolverConfig", "kkt_residual",
    "solve_bp", "solve_bp_l1", "solve_bpdn_eps", "solve_bpdn_eta", "solve_en",
    "solve_instance", "solve_rr", "solve_rr_irls", "solve_stack",
]
