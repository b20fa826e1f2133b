"""Dual solvers for quadratically regularized discrete optimal transport.

The package bundles four low-cost-per-iteration dual algorithms (cyclic
projection, dual gradient descent, a preconditioned fixed-point iteration,
and Nesterov-accelerated gradient descent), an entropic Sinkhorn baseline,
an exact oracle for small instances (a proposed support certified by its
optimality checks), convex-regularizer and Luxemburg-norm utilities, and
reproducible 1D benchmark problems.
"""

from .core import (
    Algorithm,
    ConvergenceReport,
    DiscreteMeasure,
    DualPotentials,
    Grid1D,
    HistoryEntry,
    SolverConfig,
    marginals,
    max_violation,
    primal_objective,
)
from .dual import (
    build_hessian,
    dual_gradients,
    dual_objective,
    duality_gap,
    preconditioner_apply,
    recover_plan,
    support_mask,
)
from .oracle import exact_solve
from .problems import (
    BENCHMARK_GAMMAS,
    MixtureComponent,
    MixtureSpec,
    cost_matrix,
    mixture_marginal,
)
from .regularizers import (
    Entropy,
    GridFunction,
    PPower,
    Quadratic,
    YoungFunction,
    luxemburg_norm,
    marginal_contraction_check,
)
from .solvers import (
    DivergenceError,
    NesterovState,
    cyclic_projection_step,
    fixed_point_step,
    gradient_step,
    nesterov_step,
    sinkhorn_plan,
    sinkhorn_step,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "BENCHMARK_GAMMAS",
    "ConvergenceReport",
    "DiscreteMeasure",
    "DivergenceError",
    "DualPotentials",
    "Entropy",
    "Grid1D",
    "GridFunction",
    "HistoryEntry",
    "MixtureComponent",
    "MixtureSpec",
    "NesterovState",
    "PPower",
    "Quadratic",
    "SolverConfig",
    "YoungFunction",
    "build_hessian",
    "cost_matrix",
    "cyclic_projection_step",
    "dual_gradients",
    "dual_objective",
    "duality_gap",
    "exact_solve",
    "fixed_point_step",
    "gradient_step",
    "luxemburg_norm",
    "marginal_contraction_check",
    "marginals",
    "max_violation",
    "mixture_marginal",
    "nesterov_step",
    "preconditioner_apply",
    "primal_objective",
    "recover_plan",
    "sinkhorn_plan",
    "sinkhorn_step",
    "solve",
    "support_mask",
]
