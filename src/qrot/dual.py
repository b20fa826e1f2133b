"""Dual objective of the quadratically regularized problem, its gradients,
plan recovery, duality gap, and the preconditioner / Hessian algebra used
by the fixed-point iteration.

The dual pair (alpha, beta) determines a candidate plan through
``pi = max(alpha (+) beta - c, 0) / gamma`` where ``(+)`` is the outer sum.
Minimizing

    F(alpha, beta) = 0.5 ||max(alpha (+) beta - c, 0)||_F^2
                     - gamma <alpha, mu> - gamma <beta, nu>

over all potentials is equivalent to the primal problem; at a minimizer the
recovered plan has the prescribed marginals.
"""

from __future__ import annotations

import numpy as np

from .core import DualPotentials, as_weights, marginal_residuals, primal_objective, vdot

__all__ = [
    "build_hessian",
    "dual_gradients",
    "dual_objective",
    "duality_gap",
    "preconditioner_apply",
    "recover_plan",
    "support_mask",
]

# Materializing the Hessian is a test/diagnostic utility only.
HESSIAN_SIZE_LIMIT = 200


def recover_plan(pot, c, gamma: float, out=None) -> np.ndarray:
    """Plan induced by potentials: ``max(alpha[i] + beta[j] - c[i, j], 0) / gamma``.

    ``out`` may pass a float ``(N, M)`` array to hold the plan; it is
    overwritten and returned, and no other ``N x M`` array is allocated.
    The result is bit for bit the same with or without ``out``.
    """
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    c = np.asarray(c, dtype=float)
    alpha, beta = (np.asarray(x, dtype=float) for x in pot)
    if out is None:
        out = np.empty((alpha.size, beta.size))
    # beta[j] + alpha[i] is alpha[i] + beta[j] bit for bit, and this order
    # runs faster than np.add.outer
    np.copyto(out, beta)
    np.add(out, alpha[:, None], out=out)
    np.subtract(out, c, out=out)
    np.maximum(out, 0.0, out=out)
    return np.divide(out, gamma, out=out)


def dual_objective(pot, c, gamma: float, mu, nu, norm2=None) -> float:
    """Value of F at the given potentials (the function the solvers descend).

    ``F = (gamma^2 / 2) ||pi||^2 - gamma <alpha, mu> - gamma <beta, nu>`` with
    ``pi = recover_plan(pot, c, gamma)``; ``norm2`` may pass in its
    ``||pi||^2`` as :func:`qrot.core.vdot` gives it.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    if norm2 is None:
        plan = recover_plan(pot, c, gamma)
        norm2 = vdot(plan, plan)
    return _dual_objective(pot, gamma, mu, nu, norm2)


def _dual_objective(pot, gamma: float, mu, nu, norm2) -> float:
    """:func:`dual_objective` without its checks: ``mu`` and ``nu`` are
    float arrays and ``norm2`` is given."""
    alpha, beta = pot
    return float(0.5 * gamma * gamma * norm2 - gamma * vdot(alpha, mu) - gamma * vdot(beta, nu))


def dual_gradients(pot, c, gamma: float, mu, nu):
    """Gradients of F: ``(gamma (pi 1 - mu), gamma (pi.T 1 - nu))``."""
    f, g = marginal_residuals(recover_plan(pot, c, gamma), mu, nu)
    return gamma * f, gamma * g


def dual_value(pot, c, gamma: float, mu, nu, norm2=None) -> float:
    """Dual lower bound ``-F / gamma = <alpha, mu> + <beta, nu> - (gamma / 2) ||pi||^2``."""
    return -dual_objective(pot, c, gamma, mu, nu, norm2) / gamma


def _dual_value(pot, gamma: float, mu, nu, norm2) -> float:
    """:func:`dual_value` without its checks, as :func:`_dual_objective`."""
    return -_dual_objective(pot, gamma, mu, nu, norm2) / gamma


def duality_gap(pot, pi, c, gamma: float, mu, nu) -> float:
    """Primal objective of ``pi`` minus the dual lower bound of ``pot``.

    Nonnegative up to floating-point error whenever ``pi`` is feasible, and
    zero exactly at a primal-dual optimal pair.
    """
    return primal_objective(pi, c, gamma) - dual_value(pot, c, gamma, mu, nu)


def preconditioner_apply(f, g):
    """Apply the closed-form inverse of the block preconditioner.

    Returns ``da = (f - sum(f) / (2 N)) / M`` and
    ``db = (g - sum(g) / (2 M)) / N`` where ``N = len(f)``, ``M = len(g)``.
    This is the exact inverse of ``blockdiag(M (I + J/N), N (I + J/M))``
    with ``J`` the all-ones matrix, since ``J^2 = N J``.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n, m = f.size, g.size
    da = (f - f.sum() / (2.0 * n)) / m
    db = (g - g.sum() / (2.0 * m)) / n
    return da, db


def support_mask(pot, c) -> np.ndarray:
    """Boolean mask ``alpha[i] + beta[j] - c[i, j] >= 0`` (kink counted in)."""
    alpha, beta = (np.asarray(x, dtype=float) for x in pot)
    return alpha[:, None] + beta[None, :] - np.asarray(c, dtype=float) >= 0.0


def build_hessian(sigma) -> np.ndarray:
    """Materialize the (N+M) x (N+M) Hessian of F for a support mask.

    Blocks are ``[[diag(sigma 1), sigma], [sigma.T, diag(sigma.T 1)]]``.
    Guarded to small sizes; intended for tests and diagnostics.
    """
    sigma = np.asarray(sigma, dtype=float)
    n, m = sigma.shape
    if n + m > HESSIAN_SIZE_LIMIT:
        raise ValueError(f"refusing to materialize Hessian with N+M = {n + m} > {HESSIAN_SIZE_LIMIT}")
    out = np.zeros((n + m, n + m))
    out[:n, :n] = np.diag(sigma.sum(axis=1))
    out[:n, n:] = sigma
    out[n:, :n] = sigma.T
    out[n:, n:] = np.diag(sigma.sum(axis=0))
    return out
