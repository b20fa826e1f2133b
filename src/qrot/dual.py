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
# cells per block of recover_plan's sweep: a block is finished while it sits
# in cache, and a selection tests one block at a time
_BLOCK_CELLS = 1 << 16


def recover_plan(pot, c, gamma: float, out=None, *, reach=None, limit=None, sums=None):
    """Plan induced by potentials: ``max(alpha[i] + beta[j] - c[i, j], 0) / gamma``.

    ``out`` may pass a float ``(N, M)`` array to hold the plan; it is
    overwritten and returned, and no other ``N x M`` array is allocated.
    The result is bit for bit the same with or without ``out``.

    The plan is recovered in one sweep over blocks of rows of about 2**16
    cells (one row where ``M`` is larger), each finished before the next
    is read.  With ``reach=theta`` the sweep also selects cells and returns
    ``(plan, cells)``: ``cells`` holds the flat row-major indices, in
    increasing order, of the cells whose value before the clip,
    ``alpha[i] + beta[j] - c[i, j]`` as the plan rounds it, exceeds
    ``-theta``.  With ``limit`` as well the sweep stops selecting in the
    block where the cells it has gathered first number more than
    ``limit``; ``cells`` then holds those of the blocks up to that one,
    more than ``limit`` of them, and the plan is finished all the same.

    With ``sums=(row, col)``, two float arrays of ``N`` and ``M`` values,
    the sweep also writes the plan's row and column sums into them, bit for
    bit those of :func:`qrot.core.marginals`, while each block sits in
    cache.  A row sum reduces its row alone, as ``plan.sum(axis=1)`` does.
    ``plan.sum(axis=0)`` adds the rows of the C-contiguous plan one after
    another, so each block's column sums continue the running ones: the
    block's first row is added to ``col`` through the finished row above
    it, which holds ``col`` for the one reduction and is then restored.
    """
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    c = np.asarray(c, dtype=float)
    alpha, beta = (np.asarray(x, dtype=float) for x in pot)
    n, m = alpha.size, beta.size
    if c.shape != (n, m):  # the blocks slice rows of c, so broadcast it first; raises where it does not fit
        c = np.broadcast_to(c, (n, m))
    if out is None:
        out = np.empty((n, m))
    rows = max(1, _BLOCK_CELLS // max(m, 1))
    if sums is not None:
        row, col = sums
        carried = np.empty(m) if n > rows else None  # the row above a block, while it holds col
    parts, size = [], 0
    for r0 in range(0, n, rows):
        r1 = r0 + rows
        block = out[r0:r1]
        # beta[j] + alpha[i] is alpha[i] + beta[j] bit for bit, and this order
        # runs faster than np.add.outer
        np.copyto(block, beta)
        np.add(block, alpha[r0:r1, None], out=block)
        np.subtract(block, c[r0:r1], out=block)
        if reach is not None and (limit is None or size <= limit):
            cells = np.flatnonzero(block > -reach)
            cells += r0 * m
            parts.append(cells)
            size += cells.size
        np.maximum(block, 0.0, out=block)
        np.divide(block, gamma, out=block)
        if sums is not None:
            np.add.reduce(block, axis=1, out=row[r0:r1])
            if r0:
                above = out[r0 - 1]
                np.copyto(carried, above)
                np.copyto(above, col)
                np.add.reduce(out[r0 - 1 : r1], axis=0, out=col)
                np.copyto(above, carried)
            else:
                np.add.reduce(block, axis=0, out=col)
    if reach is None:
        return out
    return out, np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def dual_objective(pot, c, gamma: float, mu, nu) -> float:
    """Value of F at the given potentials (the function the solvers descend).

    ``F = (gamma^2 / 2) ||pi||^2 - gamma <alpha, mu> - gamma <beta, nu>`` with
    ``pi = recover_plan(pot, c, gamma)``.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    plan = recover_plan(pot, c, gamma)
    return _dual_objective(pot, gamma, mu, nu, vdot(plan, plan))


def _dual_objective(pot, gamma: float, mu, nu, norm2) -> float:
    """:func:`dual_objective` without its checks: ``mu`` and ``nu`` are
    float arrays and ``norm2`` is ``||pi||^2`` as :func:`qrot.core.vdot`
    gives it."""
    alpha, beta = pot
    return float(0.5 * gamma * gamma * norm2 - gamma * vdot(alpha, mu) - gamma * vdot(beta, nu))


def dual_gradients(pot, c, gamma: float, mu, nu):
    """Gradients of F: ``(gamma (pi 1 - mu), gamma (pi.T 1 - nu))``."""
    f, g = marginal_residuals(recover_plan(pot, c, gamma), mu, nu)
    return gamma * f, gamma * g


def dual_value(pot, c, gamma: float, mu, nu) -> float:
    """Dual lower bound ``-F / gamma = <alpha, mu> + <beta, nu> - (gamma / 2) ||pi||^2``."""
    return -dual_objective(pot, c, gamma, mu, nu) / gamma


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
