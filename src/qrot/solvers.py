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

The three plain steps map potentials to potentials,
``step(pot, c, gamma, mu, nu, residuals=None) -> DualPotentials`` (gradient
descent also takes ``tau``); only Nesterov carries a state.  Each step also
takes the potentials end to end, one array of ``N + M`` values with alpha
first (and its residuals in the same form), and then returns a new such
array; the two forms run one body, bit for bit.

:func:`solve` wraps any of them (or Sinkhorn) with the common stopping rule
"maximal marginal violation <= tol" and optional per-iteration history.
Each method builds its own run, ``(advance, bounds, result)``:
``advance(plan_due)`` takes one iteration and returns its violation,
``bounds()`` gives the ``(dual, primal)`` pair of a history row at the
current iterate, and ``result()`` the final plan and potentials.
``plan_due`` is set for a history row and the last iteration, where
Sinkhorn builds its plan and Nesterov recovers its current point; between
them both may instead return a certified lower bound on a violation above
``tol``.  The run's state and buffers live in the builder, so the loop of
:func:`solve` never asks which method it drives, nor sees its potentials.

A dual run keeps its potentials end to end, so that each operation of an
iteration is one numpy call on that array or on the residuals, which its
:class:`_SupportBand` keeps end to end as well; only the fixed-point step
hands the two halves to :func:`~qrot.dual.preconditioner_apply`.
Quadratic regularization makes the plan sparse, and the band recovers it
touching only a certified band of cells that can be positive; its
docstring states the band's contract, the one record that holds a live
band and the rules that keep the run bit for bit that of dense recovery.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    Algorithm,
    ConvergenceReport,
    DOT_CHUNK,
    DualPotentials,
    HistoryEntry,
    SolverConfig,
    _check_weights,
    as_weights,
    check_mass_balance,
    marginals,
    max_violation,
    vdot,
)
from .dual import _tile_minima, dual_gradients, preconditioner_apply, recover_plan

__all__ = [
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
    """Raised when an iterate stops being finite.

    The message suggests a smaller stepsize only to the methods that take
    one, gradient descent and Nesterov."""

    def __init__(self, algorithm: Algorithm, iteration: int):
        self.algorithm = algorithm
        self.iteration = iteration
        has_tau = algorithm in (Algorithm.DUAL_GRADIENT, Algorithm.NESTEROV)
        super().__init__(
            f"{algorithm.value} produced a non-finite iterate at iteration {iteration}; "
            f"try {'a smaller stepsize or ' if has_tau else 'a '}larger gamma"
        )

    def __reduce__(self):
        # rebuilt from its two fields, so it survives a trip between processes
        return type(self), (self.algorithm, self.iteration)


class NesterovState(NamedTuple):
    """Current and previous potentials plus the momentum counter n: two
    :class:`DualPotentials`, or two arrays of the potentials end to end."""

    current: DualPotentials
    previous: DualPotentials
    n: int


def _end_to_end(pot, other, mu):
    """``(x, y, n, pair)``: ``pot`` and ``other`` (a step's residuals or
    Nesterov's previous point, or None) end to end as ``x`` and ``y``, the
    length ``n`` of alpha, and whether ``pot`` is a pair.  Arrays pass as
    they are, split at the length of ``mu``; pairs are joined into new
    arrays, split where they were.  The steps take ``N = n`` and ``M =
    x.size - n`` from here, never from the shape of ``c``, so in either
    form a cost that broadcasts to ``(N, M)`` serves."""
    if isinstance(pot, np.ndarray):
        return pot, other, len(as_weights(mu)), False
    return np.concatenate(pot), (None if other is None else np.concatenate(other)), len(pot[0]), True


def _gradient(x, n, c, gamma, mu, nu, residuals):
    """``grad F(x) = gamma res`` end to end, a new array, with the marginal
    residuals ``res`` of the plan at ``x``: :func:`~qrot.dual.dual_gradients`
    computes it unless ``residuals`` passes ``res`` in."""
    if residuals is None:
        return np.concatenate(dual_gradients((x[:n], x[n:]), c, gamma, mu, nu))
    return np.multiply(residuals, gamma)


@lru_cache(maxsize=8)
def _divisors(n, a, m, b):
    """``a`` repeated ``n`` times, then ``b`` repeated ``m`` times, as one
    read-only float array: a division by it divides the first ``n`` values
    of an end-to-end pair by ``a`` and the last ``m`` by ``b``, bit for bit
    those two divisions."""
    divisors = np.repeat([float(a), float(b)], [n, m])
    divisors.flags.writeable = False
    return divisors


def _descended(x, p, n, pair):
    """``x - p`` for ``p = P grad F(x)``, written into ``p``: the new
    potentials, as a pair where the step was given one."""
    y = np.subtract(x, p, out=p)
    return DualPotentials(y[:n], y[n:]) if pair else y


def cyclic_projection_step(
    pot: DualPotentials, c, gamma, mu, nu, residuals=None
) -> DualPotentials:
    """One sweep of the cyclic block updates: ``pot - P grad F`` with
    ``P (ga, gb) = (ga / M, gb / N - sum(ga) / (N M))``.

    The textbook sweep sets the slack ``rho = max(c - alpha (+) beta, 0)``
    of the input potentials, then alpha from the row equations, then beta
    from the column equations with the new alpha.  As
    ``rho + alpha (+) beta - c = gamma pi``, that is ``alpha += f / M``,
    ``beta += g / N - sum(f) / (N M)`` with residuals ``(f, g) = -grad F``,
    so the step never forms ``rho``.  When ``sum(f) = sum(g)`` (equal
    masses) this is :func:`fixed_point_step` followed by the plan-preserving
    gauge shift ``(alpha + s, beta - s)``, ``s = sum(f) / (2 N M)``.
    ``pot`` and ``residuals`` are as in :func:`gradient_step`.
    """
    x, residuals, n, pair = _end_to_end(pot, residuals, mu)
    m = x.size - n
    p = _gradient(x, n, c, gamma, mu, nu, residuals)
    shift = p[:n].sum() / (n * m)
    np.divide(p, _divisors(n, m, m, n), out=p)
    np.subtract(p[n:], shift, out=p[n:])
    return _descended(x, p, n, pair)


def gradient_step(
    pot: DualPotentials, c, gamma, mu, nu, tau=None, residuals=None
) -> DualPotentials:
    """One step of gradient descent on F: ``pot - P grad F`` with ``P = tau I``.

    That is ``alpha' = alpha - tau gamma (pi 1 - mu)`` and likewise for
    beta, with the plan recovered once from the old potentials (or pass its
    marginal residuals ``(pi 1 - mu, pi.T 1 - nu)`` as ``residuals``).
    Default stepsize is ``1 / (M + N)``.

    ``pot`` is a :class:`DualPotentials` pair, and so is the result; or the
    potentials end to end, one array of ``N + M`` values with ``alpha``
    first, with ``residuals`` (if given) end to end as well, and the result
    is a new such array.  Both forms take the same floating-point
    operations in the same order, bit for bit, and neither writes ``pot``.
    """
    x, residuals, n, pair = _end_to_end(pot, residuals, mu)
    if tau is None:
        tau = 1.0 / x.size  # 1 / (N + M)
    p = _gradient(x, n, c, gamma, mu, nu, residuals)
    np.multiply(p, tau, out=p)
    return _descended(x, p, n, pair)


def fixed_point_step(
    pot: DualPotentials, c, gamma, mu, nu, residuals=None
) -> DualPotentials:
    """One preconditioned fixed-point update: ``pot - P grad F`` with
    ``P = preconditioner_apply``.

    With the residuals ``(f, g) = -grad F`` at the old potentials this is
    ``alpha += (f - sum(f)/(2N)) / M``, ``beta += (g - sum(g)/(2M)) / N``.
    Fixed points have zero residuals, i.e. the recovered plan is feasible
    and hence optimal.  ``pot`` and ``residuals`` are as in
    :func:`gradient_step`.
    """
    x, residuals, n, pair = _end_to_end(pot, residuals, mu)
    p = _gradient(x, n, c, gamma, mu, nu, residuals)
    p[:n], p[n:] = preconditioner_apply(p[:n], p[n:])
    return _descended(x, p, n, pair)


def nesterov_step(state: NesterovState, c, gamma, mu, nu, tau=None, recover=None) -> NesterovState:
    """One accelerated gradient step with momentum ``sigma_n = n / (n + 3)``.

    Extrapolates ``bar = current + sigma_n (current - previous)`` and takes
    :func:`gradient_step` from there, ``bar - tau grad F(bar)``, with the
    plan recovered at the extrapolated potentials.  At ``n = 0`` this
    reduces to plain gradient descent.

    ``recover(bar)`` may take over that recovery: it must return the
    marginal residuals ``(pi 1 - mu, pi.T 1 - nu)`` of
    ``pi = recover_plan(bar, c, gamma)``.  By default the plan is recovered
    densely into a new array.  The state's potentials are pairs or end to
    end as in :func:`gradient_step`, and ``bar`` and the residuals that
    ``recover`` returns take the same form; the new state keeps it.
    """
    cur, prev, k = state
    x, before, n, pair = _end_to_end(cur, prev, mu)
    if tau is None:
        tau = 1.0 / x.size  # 1 / (N + M)
    # a new array for sigma (x - before), as float as sigma even for
    # integer potentials
    bar = np.multiply(np.subtract(x, before), k / (k + 3.0))
    np.add(x, bar, out=bar)
    residuals = None
    if recover is not None:
        residuals = recover(DualPotentials(bar[:n], bar[n:]) if pair else bar)
        if pair:
            residuals = np.concatenate(residuals)
    p = _gradient(bar, n, c, gamma, mu, nu, residuals)
    np.multiply(p, tau, out=p)
    return NesterovState(_descended(bar, p, n, pair), cur, k + 1)


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


# The support band of _SupportBand: its reach is this many times the
# potentials' last move, and a band over more than this share of the cells
# is not kept.
_BAND_REACH = 32.0
_BAND_MAX_SHARE = 0.25
_EPS = float(np.finfo(float).eps)

# a live band of _SupportBand, as one read-only record (its docstring gives the fields)
_Cells = namedtuple("_Cells", "base budget slack width cols counts cost rows starts")


class _SupportBand:
    """Plan recovery for the run's one plan buffer, touching only the cells
    that can be positive.

    The band takes potentials end to end, as one array ``x`` of ``N + M``
    values with ``alpha = x[:N]`` and ``beta = x[N:]``, and keeps references
    to the arrays it is given (``last``, the band's ``base``), which the run
    never writes.  ``recover(x)`` recovers ``pi = recover_plan((alpha, beta), c,
    gamma)`` and returns the residuals of ``marginal_residuals(pi, mu, nu)``
    end to end, as the buffer ``res``, with the two halves ``f`` and ``g``.
    A dense recovery writes ``pi`` into ``plan``, the band's C-contiguous
    ``(N, M)`` buffer.  A banded one leaves ``plan`` as it is and keeps the
    band's values; ``write()`` scatters them into ``plan``, and a run calls
    it once, where it returns its plan.  So ``plan`` is ``pi`` after a dense
    call, and after ``write()`` following any call; in between, its band
    cells are stale.  ``values`` and ``values_cost`` are the last call's
    values and their costs: the band's after a banded call, the whole of
    ``plan`` and ``c`` after a dense one, and empty after a call whose plan
    is zero (below).  Each time they hold every nonzero of ``pi``.  ``g``
    and the written ``plan`` are bit for bit those of the dense calls,
    whichever path a call takes, and so is ``f`` after a dense recovery; a
    banded ``f`` is within the bound below.  A dense recovery takes the
    plan's row and column sums in its own sweep (``recover_plan(...,
    sums=)``), bit for bit ``core.marginals``, straight into the residual
    buffer ``res``, which the next call overwrites; ``violation()`` takes
    their largest magnitude in one pass.  The drift test and every move are
    ``_move``: one subtraction of the two points end to end, into the
    scratch buffer ``drift``, its magnitudes, and the largest of each half
    (``np.maximum.reduceat`` at ``ends``).

    The live band is one read-only :class:`_Cells` record, ``cells``, which
    is None while no band is live.  ``_keep`` builds it in one expression
    and ``recover`` drops it in one assignment, so its fields always belong
    to one band, and once a call has dropped it the band holds none of its
    arrays.  The band is the cells with ``alpha (+) beta - c > -theta`` at
    its ``base`` potentials, as the dense recovery rounds them, in row-major
    order.  The record holds ``base``; the drift ``budget = theta - slack``
    it stays valid for, and its ``slack`` (below); ``width``, the most band
    cells in any row or column; the column of each cell, ``cols`` (native
    ``np.intp`` integers, which ``take`` and ``bincount`` use without
    converting them); the number of cells in each row, ``counts``; each
    cell's ``cost``; and the ``rows`` with a band cell, with where each
    ``starts`` in the band.  ``write()`` rebuilds the cells' rows from the
    counts.  While a band is live, the off-band cells of ``plan`` are zero:
    the band is selected from the dense recovery at its base, which ``plan``
    holds, and until the next dense recovery only ``write()`` touches the
    buffer, at band cells.  A cell off the band stays at zero while the
    potentials' drift from the base, ``max|d alpha| + max|d beta|``, is at
    most ``theta - slack`` with ``slack = 8 eps (max|alpha0| + max|beta0| +
    max|c| + theta)``: the drift lifts the exact value by at most the drift,
    and the slack covers the rounding of the selection, of the drift and of
    the recovery, so the rounded value stays negative and its clip is
    ``+0.0``.

    Within that budget two rules keep ``plan`` and ``g`` bit for bit those
    of dense recovery.  Band cells follow the dense op order, ``beta[cols] +
    alpha[rows]``, then ``- c``, ``max 0`` and ``/ gamma``, and ``write()``
    scatters them into ``plan``.  Column sums are ``np.bincount`` over the
    band in row-major order: numpy sums axis 0 of a C-contiguous array one row
    after another, and the off-band terms it adds are ``+0.0``, which leaves
    every partial sum unchanged (no recovered cell is ``-0.0``).  Row sums
    are ``np.add.reduceat`` over the band's values, one run per row with a
    band cell, and exactly ``0.0`` in a row without one.  They add the same
    nonnegative terms as ``plan.sum(axis=1)`` in another order, so a row sum
    differs from the dense one by at most ``(M - 1) eps`` times the row sum,
    and ``f`` from the dense row residual by as much.

    Past the budget, or with non-finite potentials (a NaN or infinite drift
    fails the test), ``recover`` drops the band, and one dense recovery,
    one call of the module's ``recover_plan`` with ``reach=theta``, rebuilds
    it by one rule: ``theta`` is ``_BAND_REACH`` times the move of the
    potentials from the last call's, which before the first call are the
    run's ``start``.  The call selects the band in the same sweep over the
    plan, gathering its flat indices block by block as it forms each
    block's ``beta + alpha - c``; the band is built from those indices
    alone.  It is kept only where a band is due, ``theta -
    slack > 0``, and it holds at most ``_BAND_MAX_SHARE`` of the cells.  So
    none is kept where that move is zero, below the slack or not finite
    (none at a first call at ``start``), nor at non-finite potentials
    (their slack is not finite); the indices such a call gathers go unused.
    Past the share the sweep stops gathering indices in the block where
    they first number more than it, and only finishes the plan.  So a band
    that is live after a call proves that call's potentials finite.

    A dense recovery skips the tiles of its sweep whose plan is provably
    zero.  The caller takes the least cost of each tile once, as ``least``
    (:func:`~qrot.dual._tile_minima`, whose least is ``min c``), and each
    recovery passes it with ``spans``, the columns of each block that
    ``plan`` may hold nonzero, as ``recover_plan(..., tiles=)``.  A tile is
    skipped where ``max beta`` over its columns plus ``max alpha`` over its
    rows, less its least cost, is at most ``-theta`` and at most 0.
    Rounding is monotone, so each rounded ``beta[j] + alpha[i] - c[i, j]``
    in it is at most that: no cell is selected, and each clips to ``+0.0``
    (``np.maximum(x, 0.0)`` is ``+0.0`` also at ``x = -0.0``).  Plans,
    cells and sums are bit for bit those of the whole sweep.  Band cells
    lie in live tiles, so ``write()`` keeps ``spans`` true.

    A call with no band due recovers nothing where ``max alpha + max
    beta <= min c`` as floats, the same test over all tiles at once: its
    plan is ``+0.0`` in every cell.  The call's residuals are those of zero
    row and column sums, ``0.0 - mu`` and ``0.0 - nu``, and ``values`` and
    ``values_cost`` are empty; ``write()`` zeroes ``plan`` if such a call is
    the last.  That is the call at a run's start on a cost of no negative
    entry, which is a zero move and keeps no band.  The test reads ``alpha``
    and ``beta`` once more, and only in a call with no band due.  A NaN
    in the potentials fails it.  It stays apart from the sweep: a sweep
    whose tiles are all dead would still count as a dense recovery, would
    write ``+0.0`` over ``plan``'s old spans (all of a new buffer), and on a
    sweep of one block, which has no tiles, would recover every cell.

    ``certify(x, tol)`` stands in for ``recover(x)`` where the residuals
    of the last call, a recovery at ``q``, prove the violation at ``x``
    above ``tol``.  It returns that proof, a lower bound, and makes ``x``
    the last call's potentials, as a banded ``recover(x)`` would; the
    band, ``values`` and ``res`` stay as they are, so a second ``certify``
    returns None until the next ``recover``.  Otherwise it returns None and
    changes nothing.  It needs a live band and ``x`` within its budget, so
    both plans vanish off the band.  With ``V`` the largest residual
    magnitude at ``q``, ``d = _move(x, q)`` and ``K = width``, the most
    band cells in any row or column: the clip is 1-Lipschitz, so each exact
    value moves by at most ``d / gamma`` and each row or column sum by at
    most ``K d / gamma``, and the violation at ``x`` is at least ``V - K d
    / gamma``.  The margin covers the rounding.  Within the budget
    ``max|alpha| + max|beta| + max|c|`` is at most ``slack / (8 eps)``, so a
    recovered value is within ``2 eps`` times that over gamma, ``slack / (4
    gamma)``, of its exact value, and the at most ``K`` of them in a sum,
    at both points, move it by at most ``K slack / gamma``.  ``S = V +
    max(mu, nu) + K d / gamma`` bounds every row and column sum at both
    points; a sum of at most ``k = max(N, M)`` nonnegative terms and its
    residual are within ``(k + 1) eps / 2`` times ``S`` of their exact
    values, and ``d`` and the bound round by a few ``eps S`` more.  So
    ``margin = K slack / gamma + 2 (k + 4) eps S`` covers both recoveries
    and both sums with room to spare, and a bound above ``tol`` proves the
    violation ``recover(x)`` would compute above ``tol``.  The bound also
    needs ``2 S`` finite, so no value or sum at ``x`` overflows and that
    violation is finite too.  Non-finite potentials fail the drift test,
    and non-finite residuals the bound.
    """

    def __init__(self, c, gamma, mu, nu, start, least, cmax):
        self.c, self.gamma, self.mu, self.nu = c, gamma, mu, nu
        self.cmin = float(least.min())  # min c and max|c|; the caller reads c for least and cmax
        self.cmax = max(cmax, -self.cmin)
        n, m = c.shape
        # the least cost of each tile of the dense sweep, and the columns of
        # each of its blocks outside which plan is +0.0: one attribute, as the
        # live band is one (cells), since CPython 3.11 reads every attribute
        # of an instance with 30 or more about 10% more slowly (a band has 20)
        self.tiles = least, [(0, m)] * len(least)
        self.wmax = float(max(mu.max(), nu.max()))  # the largest marginal weight
        # the small buffers go before the plan buffer: allocated after it, they
        # left the heap one plan larger after a few runs (peak RSS 136 -> 144 MB
        # on kernel-n1000 with perfbench's allocator settings); that peak also
        # flips between 136 and 143 MB with edits that only move code by a line
        self.res = np.empty(n + m)  # the residuals (f, g) of the last call, end to end
        self.f, self.g = self.res[:n], self.res[n:]
        self.drift = np.empty(n + m)  # scratch for the drift test and the violation
        self.row = np.zeros(n)  # the band's row sums, zero in rows without a band cell
        self.plan = np.empty(c.shape)  # the run's one plan buffer
        # the plan's values at the last call and their costs: the band's after
        # a banded call, the whole plan buffer and c after a dense one
        self.values, self.values_cost = self.plan, c
        self.last = start  # potentials of the last call, the run's start before the first
        self.bounded = False  # the last call was a certify, so res is the call's before
        self.ends = np.array([0, n])  # where alpha and beta start in the potentials
        self.cells = None  # the live band, a _Cells record, or None

    def recover(self, x):
        last, self.last = self.last, x
        self.bounded = False
        cells = self.cells
        if cells is not None and self._move(x, cells.base) <= cells.budget:
            return self._banded(x, cells)
        self.cells = None  # no band is live unless the dense recovery keeps one
        return self._dense(x, _BAND_REACH * self._move(x, last))

    def certify(self, x, tol):
        """A lower bound above ``tol`` on the violation ``recover(x)`` would
        return, proved from the last call's residuals, or None."""
        cells = self.cells
        if self.bounded or cells is None or not self._move(x, cells.base) <= cells.budget:
            return None
        shift = cells.width * self._move(x, self.last) / self.gamma
        worst = self.violation()
        sums = worst + self.wmax + shift  # bounds every row and column sum at both points
        terms = max(self.plan.shape)  # the most terms in a row or column sum
        margin = cells.width * cells.slack / self.gamma + 2.0 * (terms + 4) * _EPS * sums
        bound = worst - shift - margin
        if not (bound > tol and math.isfinite(2.0 * sums)):  # NaN fails both
            return None
        self.last, self.bounded = x, True
        return bound

    def violation(self):
        """The largest magnitude of the last call's residuals, NaN if any is."""
        return float(np.maximum.reduce(np.abs(self.res, out=self.drift)))

    def _move(self, p, q):
        """``max|alpha_p - alpha_q| + max|beta_p - beta_q|`` of two points
        end to end, NaN where either is not finite; the drift test is
        ``_move(x, base)``."""
        d = np.subtract(p, q, out=self.drift)
        da, db = np.maximum.reduceat(np.abs(d, out=d), self.ends).tolist()
        return da + db

    def write(self):
        """Make ``plan`` the plan of the last call: scatter the band's values
        into it if that call was banded, or zero it if that call's plan was
        zero."""
        if self.values is self.plan:
            return
        if self.cells is None:
            self.plan.fill(0.0)
        else:
            self.plan[np.arange(self.plan.shape[0]).repeat(self.cells.counts), self.cells.cols] = self.values

    def _dense(self, x, theta):
        """Recover ``x`` densely into ``plan``, selecting the cells of reach
        ``theta`` at ``x`` in the same sweep, and keep them as the band if
        one is due; where none is and the plan is provably zero, recover
        nothing."""
        n = self.f.size
        pot = alpha, beta = x[:n], x[n:]
        slack = 8.0 * _EPS * (np.abs(alpha).max() + np.abs(beta).max() + self.cmax + theta)
        due = theta - slack > 0.0  # also refuses a zero or non-finite reach
        sums = self.f, self.g  # the plan's row and column sums, made residuals below
        if not due and alpha.max() + beta.max() <= self.cmin:  # False at a NaN
            # every value before the clip rounds to at most 0, so the plan is
            # +0.0 throughout, with no value to keep, and its sums are 0.0;
            # plan is left as it is
            self.res.fill(0.0)
            self.values = self.values_cost = self.res[:0]
            return self._residuals(*sums)
        limit = int(_BAND_MAX_SHARE * self.plan.size)
        picked = recover_plan(pot, self.c, self.gamma, out=self.plan, reach=theta, limit=limit, sums=sums, tiles=self.tiles)[1]
        if due and picked.size <= limit:
            self._keep(x, picked, theta, slack)
        self.values, self.values_cost = self.plan, self.c
        return self._residuals(*sums)

    def _residuals(self, row, col):
        """``(row - mu, col - nu)``, written into ``res`` end to end, and ``res``."""
        np.subtract(row, self.mu, out=self.f)
        np.subtract(col, self.nu, out=self.g)
        return self.res

    def _banded(self, x, cells):
        n = self.f.size
        vals = x[n:].take(cells.cols)
        np.add(vals, x[:n].repeat(cells.counts), out=vals)
        np.subtract(vals, cells.cost, out=vals)
        np.maximum(vals, 0.0, out=vals)
        np.divide(vals, self.gamma, out=vals)
        self.values, self.values_cost = vals, cells.cost
        if cells.rows.size:  # with no band cell there is no run to sum, and every row sum stays 0.0
            self.row[cells.rows] = np.add.reduceat(vals, cells.starts)
        col = np.bincount(cells.cols, weights=vals, minlength=self.plan.shape[1])
        return self._residuals(self.row, col)

    def _keep(self, x, picked, theta, slack):
        """Make the band the cells ``picked`` (flat indices, in increasing
        order) of reach ``theta`` at ``x``."""
        n, m = self.plan.shape
        row_of, cols = np.divmod(picked, m)
        counts = np.bincount(row_of, minlength=n)
        rows = np.flatnonzero(counts)
        width = max(counts.max(), np.bincount(cols, minlength=m).max())
        self.row.fill(0.0)
        self.cells = _Cells(x, theta - slack, slack, float(width), cols, counts, self.c.take(picked),
                            rows, (np.cumsum(counts) - counts)[rows])


def _quadratic_run(alg, c, gamma, mu, nu, tau, tol, least, cmax):
    """``(advance, bounds, result)`` of a quadratic dual method started
    from zero potentials; ``least`` is :func:`~qrot.dual._tile_minima` of
    ``c`` and ``cmax`` its greatest entry.

    The run keeps its potentials end to end, as one array ``x`` of ``N + M``
    values (alpha first), and calls the step functions in that form, so each
    operation of a step is one numpy call on ``x`` or on the band's residual
    buffer.  A step returns a new array and never writes ``x``: the band
    and Nesterov's state hold references to earlier ones.
    ``advance(plan_due)`` takes one step on the dual, recovers the plan and
    takes its marginal residuals once; the violation it returns (their
    largest magnitude, taken in one pass over the band's residual buffer)
    and the next step both read them.  It writes no plan.
    ``bounds()`` is ``(dual_value, primal_objective)`` for a history row at
    ``x``, taken over the values of the last recovery and their costs (the
    band's, or the whole plan and ``c``) in the arithmetic of those two
    functions, on Python floats, with their four dot products by
    :func:`_dot`, bit for bit
    :func:`~qrot.core.vdot`, whose fixed chunks keep the sums independent
    of the BLAS thread count; the two share one ``||pi||^2``.
    ``result()`` writes the last recovery into the run's one plan buffer
    and returns it with the potentials, as a pair of views of ``x``;
    :func:`solve` calls it once, after its loop.  The three plain methods
    share one ``step``, calling their step function with positional
    arguments (gradient descent's with its ``tau``, whose default
    ``1 / (M + N)`` is taken once here), and recover the start for their
    first step (on a nonnegative cost its plan is zero and costs no dense
    recovery).  Steps are looked up in this module when the run is built
    and kernels at call time, so wrappers installed on the module before
    :func:`solve` see every call, one step call per iteration.

    Every recovery goes through one :class:`_SupportBand`, which owns the
    plan buffer and whose docstring states the band's contract; each step
    reads the residuals of the last recovery from its buffer ``res``.
    Nesterov's step recovers at its extrapolated point, the first one being
    its start, so its recovery at the current point feeds only the stopping
    test.  Without ``plan_due`` it first asks :meth:`_SupportBand.certify`
    for a lower bound above ``tol`` on the current violation, and returns
    it in place of the recovery, as Sinkhorn returns its estimate.  Such an
    iteration neither converges nor records a history row, and ``certify``
    leaves the band as the recovery would, so iteration counts, plans and
    potentials are those of recovering every current point.  A history row,
    the cap and a violation near ``tol`` take the recovery, so the values
    of the last recovery, and the plan ``result()`` writes, are those of the
    current point; the extrapolated plan is never written.  The potentials
    are tested for finiteness only where no band is live after the last
    recovery, as a live one proves them finite; non-finite potentials make
    the violation NaN, which :func:`solve` reports as divergence.
    """
    n, m = c.shape
    if tau is None:
        tau = 1.0 / (m + n)
    mu, nu = np.ascontiguousarray(mu), np.ascontiguousarray(nu)  # as vdot reads them, for _dot
    x = np.zeros(n + m)  # the potentials end to end
    band = _SupportBand(c, gamma, mu, nu, x, least, cmax)

    certifies = alg is Algorithm.NESTEROV  # recovers at its extrapolated points, its start the first
    if certifies:  # carries its previous iterate and counter
        state = NesterovState(x, x, 0)

        def step():
            nonlocal state
            state = nesterov_step(state, c, gamma, mu, nu, tau, band.recover)
            return state.current
    else:
        plain, args = {
            Algorithm.CYCLIC_PROJECTION: (cyclic_projection_step, ()),
            Algorithm.DUAL_GRADIENT: (gradient_step, (tau,)),
            Algorithm.FIXED_POINT: (fixed_point_step, ()),
        }[alg]
        band.recover(x)  # the first step reads the start's residuals, as every step reads band.res

        def step():
            return plain(x, c, gamma, mu, nu, *args, band.res)

    def advance(plan_due):
        nonlocal x
        x = step()
        if certifies and not plan_due:
            bound = band.certify(x, tol)
            if bound is not None:
                return bound
        band.recover(x)
        if band.cells is None and not np.isfinite(x).all():
            return math.nan
        return band.violation()  # NaN if any residual is

    def bounds():
        # over the values of the last recovery, which hold the plan's nonzeros
        values, cost = band.values, band.values_cost
        norm2 = _dot(values, values)
        alpha_mu, beta_nu = _dot(x[:n], mu), _dot(x[n:], nu)
        dual = -(0.5 * gamma * gamma * norm2 - gamma * alpha_mu - gamma * beta_nu) / gamma  # dual_value's
        return dual, _dot(cost, values) + 0.5 * gamma * norm2  # and primal_objective's

    def result():
        band.write()
        return band.plan, DualPotentials(x[:n], x[n:])

    return advance, bounds, result


def _dot(a, b) -> float:
    """:func:`~qrot.core.vdot` of two C-contiguous float64 arrays of one
    shape, as a Python float, bit for bit: one ``ndarray.dot`` (the same
    BLAS ``ddot`` over the same memory) where they are one-dimensional and
    at most ``DOT_CHUNK`` long, which skips ``vdot``'s dispatch; ``vdot``
    otherwise."""
    if a.ndim == 1 and a.size <= DOT_CHUNK:
        return float(a.dot(b))
    return float(vdot(a, b))


def _sinkhorn_run(c, gamma, mu, nu, tol):
    """``(advance, bounds, result)`` of Sinkhorn started from unit scalings.

    ``advance(plan_due)`` takes one scaling sweep and returns its
    violation.  It tests the scaling vectors rather
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
    in place into the run's one plan buffer; ``result()`` returns the last
    one built with the potentials, and a converged or final iteration
    always builds it.

    Potentials that are not finite make the violation NaN.
    ``bounds()`` is the entropic ``(dual, primal)`` pair of a history
    row, over the potentials and the plan built at that row.
    """
    if (mu <= 0).any() or (nu <= 0).any():
        raise ValueError("Sinkhorn requires strictly positive marginals")
    with np.errstate(over="ignore"):
        K = np.divide(c, -gamma)  # exp(-c / gamma), formed in one array
        np.exp(K, out=K)
    if not np.isfinite(K).all():
        raise ValueError("Sinkhorn kernel exp(-c / gamma) overflows; use a larger gamma")
    u, v = np.ones(c.shape[0]), np.ones(c.shape[1])
    Kv = None  # K @ v at the current v, when the stopping test formed it
    built = None  # the run's plan buffer once the first plan is built
    pot = None

    def advance(plan_due):
        nonlocal u, v, Kv, built, pot
        u, v = sinkhorn_step(u, v, K, mu, nu, Kv=Kv)
        Kv = None
        # Shift log u, log v so the plan is exp((alpha (+) beta - c)/gamma - 1),
        # the maximizer form of the entropic conjugate.
        pot = DualPotentials(gamma * (np.log(u) + 0.5), gamma * (np.log(v) + 0.5))
        if not (np.isfinite(pot.alpha).all() and np.isfinite(pot.beta).all()):
            return math.nan
        if not plan_due:
            Kv = K @ v
            row = u * Kv
            estimate = float(np.abs(row - mu).max())
            margin = 4.0 * (max(K.shape) + 2) * _EPS * row.max()
            if not (estimate <= tol + margin):
                return estimate
        built = sinkhorn_plan(u, v, K, out=built)
        return max_violation(built, mu, nu)

    def bounds():
        # pi = exp((alpha (+) beta - c) / gamma - 1), so the primal value
        # <c, pi> + gamma sum pi log pi equals <alpha, pi 1> + <beta, pi.T 1> - gamma sum pi
        alpha, beta = pot
        row, col = marginals(built)
        mass = gamma * built.sum()
        return float(vdot(alpha, mu) + vdot(beta, nu) - mass), float(vdot(alpha, row) + vdot(beta, col) - mass)

    def result():
        return built, pot

    return advance, bounds, result


def solve(mu, nu, c, config: SolverConfig) -> ConvergenceReport:
    """Run the configured algorithm from zero potentials until the maximal
    marginal violation of the recovered plan drops to ``config.tol`` or the
    iteration cap is reached.

    Parameters
    ----------
    mu, nu : DiscreteMeasure or array-like
        Marginals: one-dimensional, nonempty, finite and nonnegative weights
        with equal total mass (strictly positive for the Sinkhorn baseline).
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
    ``advance(plan_due)`` every iteration, its ``bounds()`` for each
    history row and, once after the loop, its ``result()`` for the final
    plan and potentials.
    ``plan_due`` is set at the last iteration and at each history stride.
    The violation ``advance`` returns is not finite whenever the iterate is
    not, so the loop tests that one number for divergence.  A dual
    iteration recovers the plan in place and takes its marginal residuals
    once; the stopping test and the next step both read them.  Once the
    plan is sparse the recovery touches only a certified band of cells,
    and without ``plan_due`` Nesterov may skip the recovery at its current
    point where a bound proves its violation above ``tol``;
    :class:`_SupportBand` states the band's contract, which keeps the run
    bit for bit that of dense recovery but for the order of a row sum, and
    so the last digits of a history row's objectives.  Sinkhorn tests its
    scaling vectors instead of the plan, and the ``K v`` of that test feeds
    the next sweep, so a sweep costs two matrix-vector products.  It builds
    the plan, in place into one buffer, only when ``plan_due`` is set and
    to confirm convergence.  So for both, iteration counts are those of
    testing the plan every iteration.

    Every run checks the cost by the least cost of each tile of the dense
    recovery's sweep and by its greatest entry, which propagate a NaN; a
    dual run's support band reuses both.

    Every dual method starts from zero potentials, whose plan is zero
    wherever the cost is positive.  Where all costs lie far from 0 the
    three plain methods (cyclic projection, gradient descent and fixed
    point) can stall there.  On the stock two-bump problem on 4 x 5 cells
    (squared cost, ``gamma = 1``) with the second grid and its mixture
    moved by 30, to [30, 31], all three stop at a 2,000-iteration cap with
    a maximal violation of 0.498, while Nesterov is at 0.0036 by then.

    Raises
    ------
    ValueError
        If the marginals or the cost are not as above, or Sinkhorn's kernel
        ``exp(-c / gamma)`` overflows.
    DivergenceError
        If an iterate stops being finite.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    for name, w in (("mu", mu), ("nu", nu)):
        if w.ndim != 1:
            raise ValueError(f"marginal {name} must be one-dimensional, got shape {w.shape}")
        if not w.size:
            raise ValueError(f"marginal {name} must not be empty")
        _check_weights(w, f"marginal {name}")
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape != (mu.size, nu.size):
        raise ValueError(f"cost shape {c.shape} does not match marginals ({mu.size}, {nu.size})")
    # the least cost of each tile of the dense sweep, whose least is c.min();
    # a dual run's band reads them, Sinkhorn only this check
    least = _tile_minima(c)
    cmin, cmax = float(least.min()), float(c.max())  # NaN if any entry is
    if not (math.isfinite(cmin) and math.isfinite(cmax)):
        raise ValueError("cost matrix must be finite")
    check_mass_balance(mu, nu)

    alg, gamma = config.algorithm, config.gamma
    if alg is Algorithm.SINKHORN:
        advance, bounds, result = _sinkhorn_run(c, gamma, mu, nu, config.tol)
    else:
        advance, bounds, result = _quadratic_run(alg, c, gamma, mu, nu, config.tau, config.tol, least, cmax)

    history: list[HistoryEntry] = []
    tol, max_iters, record, stride = config.tol, config.max_iters, config.record_history, config.history_stride
    t0 = time.perf_counter()
    converged = False
    iterations = 0

    # overflow on a diverging run is reported via DivergenceError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            # the last iteration and each history row test the plan itself
            plan_due = it == max_iters or (record and it % stride == 0)
            viol = advance(plan_due)
            if not math.isfinite(viol):  # also when the potentials are not finite
                raise DivergenceError(alg, it)

            iterations = it
            converged = viol <= tol
            if record and (converged or plan_due):
                dual, primal = bounds()
                history.append(
                    HistoryEntry(it, viol, dual, primal, primal - dual, time.perf_counter() - t0)
                )
            if converged:
                break

    plan, pot = result()
    return ConvergenceReport(
        algorithm=alg,
        iterations=iterations,
        converged=converged,
        final_plan=plan,
        final_potentials=pot,
        history=tuple(history),
    )
