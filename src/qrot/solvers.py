"""Iterative solvers for quadratically regularized discrete optimal
transport, plus an entropic Sinkhorn baseline.

The four dual iterations are first-order steps on the smooth dual F of
:mod:`qrot.dual`: each is ``pot - P grad F(pot)``, with the gradient from
:func:`~qrot.dual.dual_gradients`, and only the linear map P differs:

* dual gradient descent: ``P = tau I``, default ``tau = 1/(M+N)``;
* fixed point: P = :func:`~qrot.dual.preconditioner_apply`, the inverse of
  ``blockdiag(M (I + J/N), N (I + J/M))`` with ``J`` all ones;
* cyclic projection: ``P (ga, gb) = (ga / M, gb / N - sum(ga) / (N M))``,
  i.e. the fixed-point update followed by the gauge shift
  ``(alpha - t, beta + t)``, ``t = sum(ga) / (2 N M)``, which keeps the plan;
* Nesterov: ``P = tau I`` at ``current + n/(n+3) (current - previous)``.

:func:`solve` wraps any of them (or Sinkhorn) with the common stopping rule
"maximal marginal violation <= tol" and optional per-iteration history.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .core import (
    Algorithm,
    ConvergenceReport,
    DualPotentials,
    HistoryEntry,
    SolverConfig,
    as_weights,
    check_mass_balance,
    max_violation,
    primal_objective,
)
from .dual import dual_gradients, dual_value, preconditioner_apply, recover_plan
from .regularizers import Entropy

__all__ = [
    "CyclicProjectionState",
    "DivergenceError",
    "NesterovState",
    "cyclic_projection_step",
    "fixed_point_step",
    "gradient_step",
    "nesterov_step",
    "sinkhorn_plan",
    "sinkhorn_step",
    "solve",
]


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""

    def __init__(self, algorithm: Algorithm, iteration: int):
        self.algorithm = algorithm
        self.iteration = iteration
        super().__init__(
            f"{algorithm.value} produced a non-finite iterate at iteration {iteration}; "
            "try a smaller stepsize or larger gamma"
        )


class CyclicProjectionState(NamedTuple):
    """Slack matrix rho >= 0 and the current potentials."""

    rho: np.ndarray
    potentials: DualPotentials


class NesterovState(NamedTuple):
    """Current and previous potentials plus the momentum counter n."""

    current: DualPotentials
    previous: DualPotentials
    n: int


def _descend(pot, c, gamma, mu, nu, plan, precondition) -> DualPotentials:
    """``pot - P grad F(pot)`` with ``P`` applied by ``precondition(ga, gb)``."""
    if plan is None:
        plan = recover_plan(pot, c, gamma)
    da, db = precondition(*dual_gradients(pot, c, gamma, mu, nu, plan=plan))
    alpha, beta = pot
    return DualPotentials(alpha - da, beta - db)


def cyclic_projection_step(
    state: CyclicProjectionState, c, gamma, mu, nu, plan=None
) -> CyclicProjectionState:
    """One sweep of the cyclic block updates: ``pot - P grad F`` with
    ``P (ga, gb) = (ga / M, gb / N - sum(ga) / (N M))``.

    The sweep sets ``rho = max(c - alpha (+) beta, 0)``, then alpha from the
    row equations, then beta from the column equations with the new alpha.
    As ``rho + alpha (+) beta - c = gamma pi``, that is ``alpha += f / M``,
    ``beta += g / N - sum(f) / (N M)`` with residuals ``(f, g) = -grad F``.
    When ``sum(f) = sum(g)`` (equal masses) this is :func:`fixed_point_step`
    followed by the plan-preserving gauge shift ``(alpha + s, beta - s)``,
    ``s = sum(f) / (2 N M)``.  Returns ``rho`` at the old potentials
    (``state.rho`` is not read) and the new potentials.
    """
    n, m = np.shape(c)
    alpha, beta = state.potentials
    rho = np.maximum(c - alpha[:, None] - beta[None, :], 0.0)
    pot = _descend(
        state.potentials, c, gamma, mu, nu, plan, lambda ga, gb: (ga / m, gb / n - ga.sum() / (n * m))
    )
    return CyclicProjectionState(rho, pot)


def gradient_step(pot: DualPotentials, c, gamma, mu, nu, tau=None, plan=None) -> DualPotentials:
    """One step of gradient descent on F: ``pot - P grad F`` with ``P = tau I``.

    That is ``alpha' = alpha - tau gamma (pi 1 - mu)`` and likewise for
    beta, with the plan recovered once from the old potentials (pass
    ``plan`` to reuse a cached recovery).  Default stepsize is ``1 / (M + N)``.
    """
    if tau is None:
        tau = 1.0 / sum(np.shape(c))
    return _descend(pot, c, gamma, mu, nu, plan, lambda ga, gb: (tau * ga, tau * gb))


def fixed_point_step(pot: DualPotentials, c, gamma, mu, nu, plan=None) -> DualPotentials:
    """One preconditioned fixed-point update: ``pot - P grad F`` with
    ``P = preconditioner_apply``.

    With the residuals ``(f, g) = -grad F`` at the old potentials this is
    ``alpha += (f - sum(f)/(2N)) / M``, ``beta += (g - sum(g)/(2M)) / N``.
    Fixed points have zero residuals, i.e. the recovered plan is feasible
    and hence optimal.
    """
    return _descend(pot, c, gamma, mu, nu, plan, preconditioner_apply)


def nesterov_step(state: NesterovState, c, gamma, mu, nu, tau=None) -> NesterovState:
    """One accelerated gradient step with momentum ``sigma_n = n / (n + 3)``.

    Extrapolates ``bar = current + sigma_n (current - previous)`` and takes
    :func:`gradient_step` from there, ``bar - tau grad F(bar)``, with the
    plan recovered at the extrapolated potentials.  At ``n = 0`` this
    reduces to plain gradient descent.
    """
    cur, prev, n = state
    sigma = n / (n + 3.0)
    bar = DualPotentials(
        cur.alpha + sigma * (cur.alpha - prev.alpha),
        cur.beta + sigma * (cur.beta - prev.beta),
    )
    return NesterovState(gradient_step(bar, c, gamma, mu, nu, tau), cur, n + 1)


def sinkhorn_step(u, v, K, mu, nu):
    """One Sinkhorn scaling sweep: ``u' = mu / (K v)``, ``v' = nu / (K.T u')``.

    ``K`` must be the positive kernel ``exp(-c / gamma)``.  The plan after a
    sweep is ``diag(u') K diag(v')`` and has exact column sums.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    Kv = K @ v
    if not np.all(Kv > 0):
        raise ZeroDivisionError("Sinkhorn denominator underflowed to zero; use a larger gamma")
    u = mu / Kv
    Ktu = K.T @ u
    if not np.all(Ktu > 0):
        raise ZeroDivisionError("Sinkhorn denominator underflowed to zero; use a larger gamma")
    v = nu / Ktu
    return u, v


def sinkhorn_plan(u, v, K) -> np.ndarray:
    """Plan induced by scaling vectors: ``diag(u) K diag(v)``."""
    return u[:, None] * K * v[None, :]


def _sinkhorn_potentials(u, v, gamma) -> DualPotentials:
    # Shift log u, log v so the plan is exp((alpha (+) beta - c)/gamma - 1),
    # the maximizer form of the entropic conjugate.
    return DualPotentials(gamma * (np.log(u) + 0.5), gamma * (np.log(v) + 0.5))


_ENTROPY = Entropy()


def _diagnostics(algorithm, plan, pot, c, gamma, mu, nu):
    """(dual bound, primal objective, gap) of the loop's plan, for one history row."""
    if algorithm is Algorithm.SINKHORN:
        alpha, beta = pot
        primal = float((c * plan).sum() + gamma * _ENTROPY.value(plan).sum())
        dual = float(alpha @ mu + beta @ nu - gamma * plan.sum())
    else:
        primal = primal_objective(plan, c, gamma)
        dual = dual_value(pot, c, gamma, mu, nu, plan=plan)
    return dual, primal, primal - dual


def _dual_update(alg, start, c, gamma, mu, nu, tau):
    """The update ``(pot, plan at pot) -> next pot`` of a quadratic method
    started at ``start``.  Steps are looked up at call time, so wrappers
    installed on this module see every call."""
    if alg is Algorithm.NESTEROV:  # carries its previous iterate and counter
        state = NesterovState(start, start, 0)

        def nesterov(pot, plan):
            nonlocal state
            state = nesterov_step(state, c, gamma, mu, nu, tau)
            return state.current

        return nesterov
    if alg is Algorithm.CYCLIC_PROJECTION:
        return lambda pot, plan: cyclic_projection_step(
            CyclicProjectionState(None, pot), c, gamma, mu, nu, plan=plan
        ).potentials
    if alg is Algorithm.DUAL_GRADIENT:
        return lambda pot, plan: gradient_step(pot, c, gamma, mu, nu, tau, plan=plan)
    return lambda pot, plan: fixed_point_step(pot, c, gamma, mu, nu, plan=plan)


def solve(mu, nu, c, config: SolverConfig) -> ConvergenceReport:
    """Run the configured algorithm from zero potentials until the maximal
    marginal violation of the recovered plan drops to ``config.tol`` or the
    iteration cap is reached.

    Parameters
    ----------
    mu, nu : DiscreteMeasure or array-like
        Marginals with equal total mass (and strictly positive weights for
        the Sinkhorn baseline).
    c : array-like, shape (N, M)
        Cost matrix, finite entries.
    config : SolverConfig
        Algorithm, gamma, tolerances, stepsize and history options.

    Returns
    -------
    ConvergenceReport
        Final plan (the clipped recovery ``max(alpha (+) beta - c, 0)/gamma``
        for the dual methods, the scaled kernel for Sinkhorn), final
        potentials, iteration count, convergence flag and recorded history.

    Raises
    ------
    DivergenceError
        If an iterate stops being finite.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape != (mu.size, nu.size):
        raise ValueError(f"cost shape {c.shape} does not match marginals ({mu.size}, {nu.size})")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix must be finite")
    check_mass_balance(mu, nu)

    n, m = c.shape
    gamma = config.gamma
    alg = config.algorithm

    sinkhorn = alg is Algorithm.SINKHORN
    if sinkhorn:
        if (mu <= 0).any() or (nu <= 0).any():
            raise ValueError("Sinkhorn requires strictly positive marginals")
        K = np.exp(-c / gamma)
        u, v = np.ones(n), np.ones(m)
        pot = _sinkhorn_potentials(u, v, gamma)
        plan = sinkhorn_plan(u, v, K)
    else:
        pot = DualPotentials(np.zeros(n), np.zeros(m))
        plan = recover_plan(pot, c, gamma)
        update = _dual_update(alg, pot, c, gamma, mu, nu, config.tau)

    history: list[HistoryEntry] = []
    t0 = time.perf_counter()
    converged = False
    iterations = 0

    # overflow on a diverging run is reported via DivergenceError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.max_iters + 1):
            if sinkhorn:
                u, v = sinkhorn_step(u, v, K, mu, nu)
                pot = _sinkhorn_potentials(u, v, gamma)
                plan = sinkhorn_plan(u, v, K)
            else:
                pot = update(pot, plan)
                plan = recover_plan(pot, c, gamma)
            viol = max_violation(plan, mu, nu)
            if not (np.isfinite(viol) and np.isfinite(pot.alpha).all() and np.isfinite(pot.beta).all()):
                raise DivergenceError(alg, it)

            iterations = it
            converged = viol <= config.tol
            if config.record_history and (
                converged or it == config.max_iters or it % config.history_stride == 0
            ):
                dual, primal, gap = _diagnostics(alg, plan, pot, c, gamma, mu, nu)
                history.append(
                    HistoryEntry(it, viol, dual, primal, gap, time.perf_counter() - t0)
                )
            if converged:
                break

    return ConvergenceReport(
        algorithm=alg,
        iterations=iterations,
        converged=converged,
        final_plan=plan,
        final_potentials=pot,
        history=tuple(history),
    )
