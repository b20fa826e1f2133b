"""Exact ground-truth solver for tiny instances.

Enumerates support patterns of the plan and solves the optimality system
restricted to each pattern.  Any pattern whose solution satisfies all sign
conditions is a global optimum of the strictly convex problem, so the first
accepted candidate is returned.  Intended for tests and validation only;
the enumeration is capped at 16 cells.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DualPotentials, as_weights, check_mass_balance
from .dual import build_hessian

__all__ = ["exact_solve"]

ENUMERATION_LIMIT = 16

# Acceptance tolerances, one order below the test tolerances built on top.
_SIGN_TOL = 1e-12
_RESIDUAL_RTOL = 1e-10


@lru_cache(maxsize=32)
def _covering_patterns(n: int, m: int) -> tuple[int, ...]:
    """Bitmasks (bit k = cell (k // m, k % m)) whose support touches every
    row and column, ordered densest first, ties broken by ascending mask."""
    nm = n * m
    row_bits = [((1 << m) - 1) << (i * m) for i in range(n)]
    col_bits = [sum(1 << (i * m + j) for i in range(n)) for j in range(m)]
    masks = [
        mask
        for mask in range(1, 1 << nm)
        if all(mask & rb for rb in row_bits) and all(mask & cb for cb in col_bits)
    ]
    masks.sort(key=lambda mask: (-mask.bit_count(), mask))
    return tuple(masks)


def _solve_on_support(sigma, mu, nu, c, gamma):
    """Solve the marginal equations restricted to a support pattern.

    Unknowns are (alpha, beta); the plan is eliminated via stationarity
    ``gamma pi = alpha (+) beta - c`` on the support, which leaves the
    Hessian of F on that support (:func:`~qrot.dual.build_hessian`) as the
    system matrix.  One extra row pins ``mean(beta) = 0`` since the system
    is rank-deficient along the constant-shift direction.  Returns None
    when the pattern's system is inconsistent.
    """
    n, m = c.shape
    a = np.vstack([build_hessian(sigma), np.r_[np.zeros(n), np.ones(m)]])
    sc = sigma * c
    b = np.concatenate([gamma * mu + sc.sum(axis=1), gamma * nu + sc.sum(axis=0), [0.0]])
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.abs(a @ x - b).max() > _RESIDUAL_RTOL * max(1.0, np.abs(b).max()):
        return None
    return DualPotentials(x[:n], x[n:])


def exact_solve(mu, nu, c, gamma: float):
    """Exact optimal plan and multipliers by active-set enumeration.

    Parameters
    ----------
    mu, nu : array-like
        Strictly positive, mass-balanced marginals.
    c : array-like, shape (N, M)
        Cost matrix with N * M <= 16.
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
        On inputs outside the enumeration bound or invalid marginals.
    RuntimeError
        If no support pattern passes the optimality checks (numerically
        degenerate instance).
    """
    mu, nu = as_weights(mu), as_weights(nu)
    c = np.asarray(c, dtype=float)
    n, m = mu.size, nu.size
    if c.shape != (n, m):
        raise ValueError(f"cost shape {c.shape} does not match marginals ({n}, {m})")
    if n * m > ENUMERATION_LIMIT:
        raise ValueError(f"instance has {n * m} cells; enumeration is capped at {ENUMERATION_LIMIT}")
    if (mu <= 0).any() or (nu <= 0).any():
        raise ValueError("marginals must be strictly positive")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    check_mass_balance(mu, nu)

    cell = np.arange(n * m)
    for mask in _covering_patterns(n, m):
        sigma = ((mask >> cell) & 1).astype(bool).reshape(n, m)
        pot = _solve_on_support(sigma, mu, nu, c, gamma)
        if pot is None:
            continue
        slack = pot.alpha[:, None] + pot.beta[None, :] - c
        if (slack[~sigma] > _SIGN_TOL).any():
            continue
        plan = np.where(sigma, slack / gamma, 0.0)
        if (plan[sigma] < -_SIGN_TOL).any():
            continue
        return np.maximum(plan, 0.0), pot
    raise RuntimeError("no support pattern satisfies the optimality system (degenerate instance)")
