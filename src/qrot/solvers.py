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
Each method builds its own run, ``(advance, bounds)``: ``advance(plan_due)``
takes one iteration and returns ``(potentials, plan, violation)``, and
``bounds(pot, plan)`` gives the ``(dual, primal)`` pair of a history row.
The run's state and buffers live in the builder, so the loop of
:func:`solve` never asks which method it drives.
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
    marginal_residuals,
    marginals,
    max_violation,
    primal_objective,
    residual_violation,
)
from .dual import dual_value, preconditioner_apply, recover_plan

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


class CyclicProjectionState:
    """Slack matrix rho >= 0 and the current potentials.

    A state returned by :func:`cyclic_projection_step` forms its ``rho`` on
    first read, from the step's old potentials and cost, so a loop that
    follows only the potentials never builds the ``N x M`` slack.
    """

    __slots__ = ("_rho", "_slack_of", "potentials")

    def __init__(self, rho, potentials: DualPotentials):
        self._rho = rho
        self._slack_of = None
        self.potentials = potentials

    @classmethod
    def _deferred(cls, old: DualPotentials, c, potentials: DualPotentials):
        """State whose ``rho`` is ``max(c - old.alpha (+) old.beta, 0)``, formed on first read."""
        state = cls(None, potentials)
        state._slack_of = (old, c)
        return state

    @property
    def rho(self) -> np.ndarray:
        if self._slack_of is not None:
            (alpha, beta), c = self._slack_of
            self._rho = np.maximum(c - alpha[:, None] - beta[None, :], 0.0)
            self._slack_of = None
        return self._rho


class NesterovState(NamedTuple):
    """Current and previous potentials plus the momentum counter n."""

    current: DualPotentials
    previous: DualPotentials
    n: int


def _descend(pot, c, gamma, mu, nu, residuals, precondition) -> DualPotentials:
    """``pot - P grad F(pot)`` with ``P`` applied by ``precondition(ga, gb)``.

    ``grad F = gamma (f, g)`` with the marginal residuals ``(f, g)`` of the
    plan at ``pot``, as in :func:`~qrot.dual.dual_gradients`; they are
    computed here unless ``residuals`` passes them in.
    """
    if residuals is None:
        residuals = marginal_residuals(recover_plan(pot, c, gamma), mu, nu)
    f, g = residuals
    da, db = precondition(gamma * f, gamma * g)
    alpha, beta = pot
    return DualPotentials(alpha - da, beta - db)


def cyclic_projection_step(
    state: CyclicProjectionState, c, gamma, mu, nu, residuals=None
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
    (``state.rho`` is not read; the returned one is formed when first read)
    and the new potentials.  ``residuals`` may pass in ``(f, g)``.
    """
    n, m = np.shape(c)
    pot = _descend(
        state.potentials, c, gamma, mu, nu, residuals,
        lambda ga, gb: (ga / m, gb / n - ga.sum() / (n * m)),
    )
    return CyclicProjectionState._deferred(state.potentials, c, pot)


def gradient_step(
    pot: DualPotentials, c, gamma, mu, nu, tau=None, residuals=None
) -> DualPotentials:
    """One step of gradient descent on F: ``pot - P grad F`` with ``P = tau I``.

    That is ``alpha' = alpha - tau gamma (pi 1 - mu)`` and likewise for
    beta, with the plan recovered once from the old potentials (or pass its
    marginal residuals ``(pi 1 - mu, pi.T 1 - nu)`` as ``residuals``).
    Default stepsize is ``1 / (M + N)``.
    """
    if tau is None:
        tau = 1.0 / sum(np.shape(c))
    return _descend(pot, c, gamma, mu, nu, residuals, lambda ga, gb: (tau * ga, tau * gb))


def fixed_point_step(
    pot: DualPotentials, c, gamma, mu, nu, residuals=None
) -> DualPotentials:
    """One preconditioned fixed-point update: ``pot - P grad F`` with
    ``P = preconditioner_apply``.

    With the residuals ``(f, g) = -grad F`` at the old potentials this is
    ``alpha += (f - sum(f)/(2N)) / M``, ``beta += (g - sum(g)/(2M)) / N``.
    Fixed points have zero residuals, i.e. the recovered plan is feasible
    and hence optimal.  ``residuals`` is as in :func:`gradient_step`.
    """
    return _descend(pot, c, gamma, mu, nu, residuals, preconditioner_apply)


def nesterov_step(state: NesterovState, c, gamma, mu, nu, tau=None, work=None) -> NesterovState:
    """One accelerated gradient step with momentum ``sigma_n = n / (n + 3)``.

    Extrapolates ``bar = current + sigma_n (current - previous)`` and takes
    :func:`gradient_step` from there, ``bar - tau grad F(bar)``, with the
    plan recovered at the extrapolated potentials (into ``work``, an
    ``(N, M)`` float array, when given).  At ``n = 0`` this reduces to plain
    gradient descent.
    """
    cur, prev, n = state
    sigma = n / (n + 3.0)
    bar = DualPotentials(
        cur.alpha + sigma * (cur.alpha - prev.alpha),
        cur.beta + sigma * (cur.beta - prev.beta),
    )
    residuals = marginal_residuals(recover_plan(bar, c, gamma, out=work), mu, nu)
    return NesterovState(gradient_step(bar, c, gamma, mu, nu, tau, residuals=residuals), cur, n + 1)


def sinkhorn_step(u, v, K, mu, nu, Kv=None):
    """One Sinkhorn scaling sweep: ``u' = mu / (K v)``, ``v' = nu / (K.T u')``.

    ``K`` must be the positive kernel ``exp(-c / gamma)``.  The plan after a
    sweep is ``diag(u') K diag(v')`` and has exact column sums.  ``Kv`` may
    pass in ``K @ v`` (say, from a stopping test at ``v``); it is computed
    here otherwise, and either way it must be positive.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    if Kv is None:
        Kv = K @ v
    if not np.all(Kv > 0):
        raise ZeroDivisionError("Sinkhorn denominator underflowed to zero; use a larger gamma")
    u = mu / Kv
    Ktu = K.T @ u
    if not np.all(Ktu > 0):
        raise ZeroDivisionError("Sinkhorn denominator underflowed to zero; use a larger gamma")
    v = nu / Ktu
    return u, v


def sinkhorn_plan(u, v, K, out=None) -> np.ndarray:
    """Plan induced by scaling vectors: ``diag(u) K diag(v)``.

    Written into ``out`` (an ``(N, M)`` float array) when given, else into a
    new array, and returned; either way it is bitwise ``u[:, None] * K * v``.
    """
    out = np.multiply(K, u[:, None], out=out)
    return np.multiply(out, v[None, :], out=out)


def _quadratic_run(alg, c, gamma, mu, nu, tau):
    """``(advance, bounds)`` of a quadratic dual method started from zero
    potentials.

    ``advance(plan_due)`` takes one step on the dual, recovers the plan in
    place into the run's one plan buffer and takes its marginal residuals
    once; the violation it returns and the next step both read them.  It
    returns ``(potentials, plan, violation)`` and ignores ``plan_due``, as
    the plan is recovered every iteration anyway.  ``bounds(pot, plan)`` is
    ``(dual_value, primal_objective)`` for a history row.  Steps and kernels
    are looked up in this module at call time, so wrappers installed on the
    module see every call.
    """
    pot = DualPotentials(np.zeros(c.shape[0]), np.zeros(c.shape[1]))
    plan = recover_plan(pot, c, gamma)  # the run's plan buffer from here on
    residuals = marginal_residuals(plan, mu, nu)

    if alg is Algorithm.NESTEROV:  # carries its previous iterate and counter
        state = NesterovState(pot, pot, 0)
        work = np.empty(c.shape)  # the extrapolated plan, recovered in place

        def step():
            nonlocal state
            state = nesterov_step(state, c, gamma, mu, nu, tau, work=work)
            return state.current
    elif alg is Algorithm.CYCLIC_PROJECTION:
        def step():
            state = CyclicProjectionState(None, pot)
            return cyclic_projection_step(state, c, gamma, mu, nu, residuals=residuals).potentials
    elif alg is Algorithm.DUAL_GRADIENT:
        def step():
            return gradient_step(pot, c, gamma, mu, nu, tau, residuals=residuals)
    else:
        def step():
            return fixed_point_step(pot, c, gamma, mu, nu, residuals=residuals)

    def advance(plan_due):
        nonlocal pot, plan, residuals
        pot = step()
        plan = recover_plan(pot, c, gamma, out=plan)
        residuals = marginal_residuals(plan, mu, nu)
        return pot, plan, residual_violation(*residuals)

    def bounds(pot, plan):
        return dual_value(pot, c, gamma, mu, nu, plan=plan), primal_objective(plan, c, gamma)

    return advance, bounds


def _sinkhorn_run(c, gamma, mu, nu, tol):
    """``(advance, bounds)`` of Sinkhorn started from unit scalings.

    ``advance(plan_due)`` takes one scaling sweep and returns
    ``(potentials, plan, violation)``.  It tests the scaling vectors rather
    than the plan: the row marginal ``u * (K v)`` comes from one
    matrix-vector product, whose ``K v`` the next sweep then reuses, so a
    sweep costs two products.  The column marginal is left out: the sweep
    has just divided ``nu`` by ``K.T u``, so it is ``nu`` up to rounding,
    and a row violation above ``tol`` is all the test needs to prove.  The
    estimate differs from the row violation of :func:`sinkhorn_plan` by
    rounding alone: each row sum carries a relative error of at most
    ``(k + 1) eps`` for ``k = max(N, M)`` terms, so the two differ by less
    than ``margin = 4 (k + 2) eps`` times the largest row, with room to
    spare.  An estimate above ``tol + margin`` thus proves the plan's
    violation above ``tol``; otherwise, and whenever ``plan_due`` is set,
    the plan is built and :func:`max_violation` decides.  So iteration
    counts are those of testing the plan every iteration.  Plans are built
    in place into the run's one plan buffer; between builds the returned
    plan is the last one built (None before the first), and a converged or
    final iteration always builds it.

    ``bounds(pot, plan)`` is the entropic ``(dual, primal)`` pair of a
    history row.
    """
    if (mu <= 0).any() or (nu <= 0).any():
        raise ValueError("Sinkhorn requires strictly positive marginals")
    K = np.divide(c, -gamma)  # exp(-c / gamma), formed in one array
    np.exp(K, out=K)
    u, v = np.ones(c.shape[0]), np.ones(c.shape[1])
    Kv = None  # K @ v at the current v, when the stopping test formed it
    plan = None  # the run's plan buffer once the first plan is built

    def advance(plan_due):
        nonlocal u, v, Kv, plan
        u, v = sinkhorn_step(u, v, K, mu, nu, Kv=Kv)
        Kv = None
        # Shift log u, log v so the plan is exp((alpha (+) beta - c)/gamma - 1),
        # the maximizer form of the entropic conjugate.
        pot = DualPotentials(gamma * (np.log(u) + 0.5), gamma * (np.log(v) + 0.5))
        if not plan_due:
            Kv = K @ v
            row = u * Kv
            estimate = float(np.abs(row - mu).max())
            margin = 4.0 * (max(K.shape) + 2) * np.finfo(float).eps * row.max()
            if not (estimate <= tol + margin):
                return pot, plan, estimate
        plan = sinkhorn_plan(u, v, K, out=plan)
        return pot, plan, max_violation(plan, mu, nu)

    def bounds(pot, plan):
        # pi = exp((alpha (+) beta - c) / gamma - 1), so the primal value
        # <c, pi> + gamma sum pi log pi equals <alpha, pi 1> + <beta, pi.T 1> - gamma sum pi
        alpha, beta = pot
        row, col = marginals(plan)
        mass = gamma * plan.sum()
        return float(alpha @ mu + beta @ nu - mass), float(alpha @ row + beta @ col - mass)

    return advance, bounds


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
        The final plan is the array the run recovered its plans into; no
        other ``N x M`` array of the run outlives the call.

    Notes
    -----
    The algorithm is looked at once, to pick the builder of the run
    (``_quadratic_run`` or ``_sinkhorn_run``); the loop then calls its
    ``advance(plan_due)`` every iteration and its ``bounds`` for each
    history row.  ``plan_due`` is set at the last iteration and at each
    history stride, where the returned plan must be the current one.  A dual
    iteration recovers the plan in place (``recover_plan(..., out=)``) and
    takes its marginal residuals once; the stopping test and the next step
    both read them.  Sinkhorn tests its scaling vectors instead of the plan,
    and the ``K v`` of that test feeds the next sweep, so a sweep costs two
    matrix-vector products.  It builds the plan, in place into one buffer,
    only when due and to confirm convergence, so iteration counts are those
    of testing the plan every iteration.

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

    gamma = config.gamma
    alg = config.algorithm
    if alg is Algorithm.SINKHORN:
        advance, bounds = _sinkhorn_run(c, gamma, mu, nu, config.tol)
    else:
        advance, bounds = _quadratic_run(alg, c, gamma, mu, nu, config.tau)

    history: list[HistoryEntry] = []
    t0 = time.perf_counter()
    converged = False
    iterations = 0

    # overflow on a diverging run is reported via DivergenceError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.max_iters + 1):
            # the plan of the last iteration and of each history row is reported
            plan_due = it == config.max_iters or (
                config.record_history and it % config.history_stride == 0
            )
            pot, plan, viol = advance(plan_due)
            if not (np.isfinite(viol) and np.isfinite(pot.alpha).all() and np.isfinite(pot.beta).all()):
                raise DivergenceError(alg, it)

            iterations = it
            converged = viol <= config.tol
            if config.record_history and (converged or plan_due):
                dual, primal = bounds(pot, plan)
                history.append(
                    HistoryEntry(it, viol, dual, primal, primal - dual, time.perf_counter() - t0)
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
