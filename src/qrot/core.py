"""Core types and elementary operations for discrete transport problems.

Transport plans and cost matrices are plain ``(N, M)`` float arrays.  The
classes below wrap the structured pieces shared across the package: uniform
1D grids, measures as cell-mass vectors, solver configuration, and run
reports.  All values are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Algorithm",
    "ConvergenceReport",
    "DiscreteMeasure",
    "DualPotentials",
    "Grid1D",
    "History",
    "HistoryEntry",
    "SolverConfig",
    "as_weights",
    "check_mass_balance",
    "marginal_residuals",
    "marginals",
    "max_violation",
    "primal_objective",
    "residual_violation",
    "vdot",
]

# Relative tolerance for the equal-mass requirement on the two marginals.
MASS_BALANCE_RTOL = 1e-12

# OpenBLAS spreads a dot product of more than 10,000 elements over its
# threads, and how it splits the sum changes the last bits; a call on at most
# this many elements is not split.
DOT_CHUNK = 10_000


def _finite_real(value, what: str) -> float:
    """``value`` as a float; booleans, non-real and non-finite values are refused,
    and so are integers and fractions too large for a float."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # too large to convert to a float
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _positive_int(value) -> bool:
    """Whether ``value`` is an integer >= 1 and not a boolean."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class Grid1D:
    """Uniform, cell-centered grid with ``n`` cells on ``[a, b]``."""

    n: int
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not _positive_int(self.n):
            raise ValueError("grid size n must be a positive integer")
        a, b = _finite_real(self.a, "grid endpoint a"), _finite_real(self.b, "grid endpoint b")
        if not a < b:
            raise ValueError(f"grid endpoints must have a < b, got a={a!r}, b={b!r}")
        # held as the int and floats that a problem file stores
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def h(self) -> float:
        """Cell width ``(b - a) / n``."""
        return (self.b - self.a) / self.n

    @property
    def points(self) -> np.ndarray:
        """Cell centers ``a + (i + 1/2) h``, strictly increasing."""
        return self.a + (np.arange(self.n) + 0.5) * self.h

    @property
    def length(self) -> float:
        """Domain length ``b - a``."""
        return self.b - self.a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative cell masses on a 1D grid.

    Weights are masses per cell (already integrated against cell width), so
    marginal constraints reduce to plain vector sums.
    """

    grid: Grid1D
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} weights, got shape {w.shape}")
        _check_weights(w, "measure weights")
        object.__setattr__(self, "w", w)

    @property
    def mass(self) -> float:
        return float(self.w.sum())


class DualPotentials(NamedTuple):
    """Dual vector pair (alpha, beta) of lengths N and M.

    A plan is recovered from potentials as
    ``pi[i, j] = max(alpha[i] + beta[j] - c[i, j], 0) / gamma``.
    """

    alpha: np.ndarray
    beta: np.ndarray


class Algorithm(Enum):
    """Iterative methods understood by :func:`qrot.solvers.solve`."""

    CYCLIC_PROJECTION = "cyclic_projection"
    DUAL_GRADIENT = "dual_gradient"
    FIXED_POINT = "fixed_point"
    NESTEROV = "nesterov"
    SINKHORN = "sinkhorn"


@dataclass(frozen=True)
class SolverConfig:
    """Options for a solver run.

    Parameters
    ----------
    gamma : float
        Regularization weight, > 0.
    algorithm : Algorithm
        Which iteration to run.
    tol : float
        Stop once the maximal marginal violation drops to this level.
    max_iters : int
        Iteration cap, >= 1.
    tau : float or None
        Stepsize for the gradient-type methods; defaults to ``1 / (N + M)``.
    record_history : bool
        Keep per-iteration diagnostics in the report.
    history_stride : int
        Thin the recorded history to every k-th iteration (the final
        iteration is always kept).
    """

    gamma: float
    algorithm: Algorithm
    tol: float = 1e-6
    max_iters: int = 100_000
    tau: float | None = None
    record_history: bool = True
    history_stride: int = 1

    def __post_init__(self):
        if not (_finite_real(self.gamma, "gamma") > 0):
            raise ValueError("gamma must be positive")
        if not (_finite_real(self.tol, "tol") > 0):
            raise ValueError("tol must be positive")
        if not _positive_int(self.max_iters):
            raise ValueError("max_iters must be an integer >= 1")
        if self.tau is not None and not (_finite_real(self.tau, "tau") > 0):
            raise ValueError("tau must be positive when given")
        if not _positive_int(self.history_stride):
            raise ValueError("history_stride must be an integer >= 1")
        if not isinstance(self.algorithm, Algorithm):
            raise ValueError("algorithm must be an Algorithm member")
        # held as floats: a Fraction would turn the float kernels into object arrays
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "tol", float(self.tol))
        if self.tau is not None:
            object.__setattr__(self, "tau", float(self.tau))


class HistoryEntry(NamedTuple):
    """One recorded iteration of a solver run."""

    iteration: int
    max_violation: float
    dual_objective: float
    primal_objective: float
    duality_gap: float
    elapsed_s: float


class History(Sequence):
    """The recorded iterations of a solver run: a read-only sequence of
    :class:`HistoryEntry` rows over one C-contiguous ``(rows, 6)`` float64
    ``table``, whose columns are the fields of :class:`HistoryEntry` in order
    (the ``HISTORY_COLUMNS`` of :mod:`qrot.fileio`, elapsed time in seconds).
    A row takes 48 bytes.

    ``h[i]`` is a :class:`HistoryEntry` of an ``int`` iteration and Python
    floats, exact for iterations below 2**53; a slice is a ``History``, and
    iterating yields the rows.  ``==`` compares the rows with those of any
    sequence, so a run without history equals ``()``.  ``np.asarray(h)`` is
    the table, which is not writeable, and a ``History`` pickles as its table.
    """

    __slots__ = ("table",)

    def __init__(self, table=()):
        table = np.ascontiguousarray(table, dtype=np.float64).reshape(-1, len(HistoryEntry._fields)).view()
        table.flags.writeable = False  # the view only: the caller's array is left as it is
        self.table = table

    def __len__(self):
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return History(self.table[index])
        iteration, *values = self.table[operator.index(index)].tolist()
        return HistoryEntry(int(iteration), *values)

    def __iter__(self):
        for iteration, *values in self.table.tolist():
            yield HistoryEntry(int(iteration), *values)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __array__(self, dtype=None, copy=None):
        # numpy casts to a dtype asked for
        return self.table.copy() if copy else self.table

    def __reduce__(self):
        return History, (self.table,)

    def __repr__(self):
        return f"History({len(self)} rows)"


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a solver run.

    ``history`` is a :class:`History`: one row per recorded iteration,
    (iteration, max_violation, dual_objective, primal_objective,
    duality_gap, elapsed_s), where ``dual_objective`` is the dual lower
    bound matching ``duality_gap = primal - dual`` row-wise, all in one
    float64 table of 48 bytes a row.  It equals the tuple of its
    :class:`HistoryEntry` rows, and ``()`` when history is off.
    """

    algorithm: Algorithm
    iterations: int
    converged: bool
    final_plan: np.ndarray
    final_potentials: DualPotentials
    history: History


def as_weights(m) -> np.ndarray:
    """Return the weight vector of a measure, passing arrays through."""
    if isinstance(m, DiscreteMeasure):
        return m.w
    return np.asarray(m, dtype=float)


def _check_weights(w, what: str) -> None:
    """Reject weights ``w`` that are not all finite and nonnegative."""
    if not np.isfinite(w).all():
        raise ValueError(f"{what} must be finite")
    if (w < 0).any():
        raise ValueError(f"{what} must be nonnegative")


def check_mass_balance(mu, nu) -> None:
    """Reject marginal pairs whose total masses differ beyond rounding."""
    mu = as_weights(mu)
    nu = as_weights(nu)
    sm, sn = float(mu.sum()), float(nu.sum())
    if abs(sm - sn) > MASS_BALANCE_RTOL * max(sm, sn):
        raise ValueError(f"marginals must carry equal total mass (got {sm!r} vs {sn!r})")


def marginals(pi, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a plan: ``(pi @ 1, pi.T @ 1)``, written into
    the pair of float arrays ``out`` when it is given, bit for bit the same
    sums."""
    pi = np.asarray(pi, dtype=float)
    if out is None:
        return pi.sum(axis=1), pi.sum(axis=0)
    return pi.sum(axis=1, out=out[0]), pi.sum(axis=0, out=out[1])


def max_violation(pi, mu, nu, out=None) -> float:
    """Maximal marginal constraint violation of a plan.

    Returns ``max(||pi 1 - mu||_inf, ||pi.T 1 - nu||_inf)``, the quantity
    all stopping rules and convergence curves are based on.  ``out``, a
    pair of float arrays of lengths N and M, receives the row and column
    sums of :func:`marginals`, for a caller that reads them too.
    """
    pi = np.asarray(pi, dtype=float)
    mu = as_weights(mu)
    nu = as_weights(nu)
    if pi.shape != (mu.size, nu.size):
        raise ValueError(f"plan shape {pi.shape} does not match marginals ({mu.size}, {nu.size})")
    row, col = marginals(pi, out)
    return residual_violation(row - mu, col - nu)


def marginal_residuals(pi, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """Marginal residuals of a plan: ``(pi 1 - mu, pi.T 1 - nu)``."""
    row, col = marginals(pi)
    return row - as_weights(mu), col - as_weights(nu)


def residual_violation(f, g) -> float:
    """``max(||f||_inf, ||g||_inf)``: :func:`max_violation` from the residuals.

    A NaN in either residual makes the result NaN.
    """
    a, b = float(np.abs(f).max()), float(np.abs(g).max())
    return b if b > a or b != b else a


def vdot(a, b):
    """``np.vdot(a, b)`` over consecutive chunks of at most ``DOT_CHUNK``
    elements of the flattened arrays, added in order: a result that does not
    depend on the number of BLAS threads.  Up to ``DOT_CHUNK`` elements it is
    the one ``np.vdot`` call.

    OpenBLAS's ``ddot`` orders its sum by the count alone, with unaligned
    loads, so a half of the potentials end to end (a contiguous view, as
    the dual runs of :mod:`qrot.solvers` keep them) gives the bits of a
    separate array of the same values.  For one-dimensional C-contiguous
    float64 arrays of at most ``DOT_CHUNK`` values, ``a.dot(b)`` calls the
    same BLAS ``ddot`` on the same memory, bit for bit this, with less
    dispatch; a dual run's history row takes its dots that way."""
    # an array's own size skips np.size's dispatch, a fifth of a short call
    if (a.size if isinstance(a, np.ndarray) else np.size(a)) <= DOT_CHUNK:
        return np.vdot(a, b)
    a, b = np.ravel(a), np.ravel(b)
    total = np.vdot(a[:DOT_CHUNK], b[:DOT_CHUNK])
    for start in range(DOT_CHUNK, a.size, DOT_CHUNK):
        total += np.vdot(a[start:start + DOT_CHUNK], b[start:start + DOT_CHUNK])
    return total


def primal_objective(pi, c, gamma: float) -> float:
    """Transport cost plus quadratic penalty: ``<c, pi> + (gamma/2) ||pi||_F^2``."""
    pi = np.asarray(pi, dtype=float)
    c = np.asarray(c, dtype=float)
    if pi.shape != c.shape:
        raise ValueError(f"plan shape {pi.shape} does not match cost shape {c.shape}")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    return float(vdot(c, pi) + 0.5 * gamma * vdot(pi, pi))
