"""Exact ground-truth solver for small instances, certified by its own checks.

The quadratically regularized problem is strictly convex, so a support
pattern whose optimality system has a solution passing all sign conditions
gives the unique optimum, whatever proposed that pattern.  The oracle takes
the support of a tight Nesterov solve as its one proposal, solves the
optimality system on it exactly, and accepts the result only if the residual
and sign checks pass; a wrong proposal raises an error, it is never accepted.
Intended for tests and validation only; capped at N + M <= 200, the size
:func:`~qrot.dual.build_hessian` materializes.
"""

from __future__ import annotations

import numpy as np

from .core import Algorithm, DualPotentials, SolverConfig, as_weights
from .dual import HESSIAN_SIZE_LIMIT, build_hessian
from .solvers import solve

__all__ = ["exact_solve"]

# Acceptance tolerances, one order below the test tolerances built on top.
_SIGN_TOL = 1e-12
_RESIDUAL_RTOL = 1e-10


def _solve_on_support(sigma, mu, nu, c, gamma, x0):
    """Solve the marginal equations restricted to a support pattern.

    Unknowns are (alpha, beta); the plan is eliminated via stationarity
    ``gamma pi = alpha (+) beta - c`` on the support, which leaves the
    Hessian of F on that support (:func:`~qrot.dual.build_hessian`) as the
    system matrix.  One extra row pins ``mean(beta) = 0`` since the system
    is rank-deficient along the constant-shift direction.  The solution is
    taken as the least-squares correction from the potentials ``x0``, so
    along any further null direction (a support that splits into parts of
    balanced mass) it keeps the shift of ``x0``.  Returns None when the
    pattern's system is inconsistent.
    """
    n, m = c.shape
    a = np.vstack([build_hessian(sigma), np.r_[np.zeros(n), np.ones(m)]])
    sc = sigma * c
    b = np.concatenate([gamma * mu + sc.sum(axis=1), gamma * nu + sc.sum(axis=0), [0.0]])
    x = x0 + np.linalg.lstsq(a, b - a @ x0, rcond=None)[0]
    if np.abs(a @ x - b).max() > _RESIDUAL_RTOL * max(1.0, np.abs(b).max()):
        return None
    return DualPotentials(x[:n], x[n:])


def exact_solve(mu, nu, c, gamma: float):
    """Exact optimal plan and multipliers, certified on a proposed support.

    The support is proposed by :func:`~qrot.solvers.solve` with Nesterov
    to tol 1e-12, shifted to ``mean(beta) = 0``: the cells where
    ``alpha (+) beta - c > 0``.  The optimality system on that support is
    then solved exactly, and its solution is returned only if it passes the
    residual test and both sign checks, which make it the unique optimum.
    The returned plan comes from that solve, not from Nesterov's plan.

    Parameters
    ----------
    mu, nu : array-like
        Finite, strictly positive, mass-balanced marginals.
    c : array-like, shape (N, M)
        Cost matrix with N + M <= 200.
    gamma : float
        Regularization weight, > 0.

    Returns
    -------
    (plan, potentials)
        The unique optimal plan and a dual pair normalized to
        ``mean(beta) = 0``.

    Raises
    ------
    ValueError
        On inputs above the size cap, invalid marginals or an invalid cost.
    RuntimeError
        If the proposed support does not pass the optimality checks
        (numerically degenerate instance).
    """
    mu, nu = as_weights(mu), as_weights(nu)
    c = np.asarray(c, dtype=float)
    n, m = mu.size, nu.size
    if n + m > HESSIAN_SIZE_LIMIT:
        raise ValueError(f"instance has N + M = {n + m}; the oracle is capped at {HESSIAN_SIZE_LIMIT}")
    if (mu <= 0).any() or (nu <= 0).any():
        raise ValueError("marginals must be strictly positive")

    # SolverConfig refuses a gamma that is not a finite positive real, and
    # solve refuses marginals that are not finite or balanced and a cost
    # that is not finite or not N x M
    proposer = SolverConfig(gamma, Algorithm.NESTEROV, tol=1e-12, max_iters=1_000_000, record_history=False)
    alpha, beta = solve(mu, nu, c, proposer).final_potentials
    shift = beta.mean()
    x0 = np.concatenate([alpha + shift, beta - shift])
    sigma = x0[:n, None] + x0[None, n:] - c > 0
    pot = _solve_on_support(sigma, mu, nu, c, gamma, x0)
    if pot is not None:
        slack = pot.alpha[:, None] + pot.beta[None, :] - c
        plan = np.where(sigma, slack / gamma, 0.0)
        if not (slack[~sigma] > _SIGN_TOL).any() and not (plan[sigma] < -_SIGN_TOL).any():
            return np.maximum(plan, 0.0), pot
    raise RuntimeError("the proposed support does not satisfy the optimality system (degenerate instance)")
