"""Correctness checks on qrot's outputs, computed with plain numpy.

Nothing here calls into qrot or compares against a stored copy of earlier
output: every expected value is recomputed from the inputs, the returned
potentials, or a property every correct answer has.  Each check raises
CheckError with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import math
from xml.etree import ElementTree as ET

import numpy as np

# Round-off allowance for sums over up to 10^6 cells of values of order 1.
ROUNDING = 1e-12


class CheckError(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _max_rel_diff(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    _require(a.shape == b.shape, f"shape {a.shape} differs from {b.shape}")
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


def violation(plan, mu, nu) -> float:
    """max(||plan 1 - mu||_inf, ||plan^T 1 - nu||_inf)."""
    return float(max(np.abs(plan.sum(axis=1) - mu).max(), np.abs(plan.sum(axis=0) - nu).max()))


def inputs(grid, comps1, comps2, mu, nu, c):
    """Marginals and squared cost recomputed from the problem description.

    ``grid`` is (n, a, b); each ``comps`` is a sequence of (weight, mean,
    std).  Cells are centred; mixtures are floored at 1e-12 of their peak
    and normalised to unit mass.
    """
    n, a, b = grid
    x = a + (np.arange(n) + 0.5) * ((b - a) / n)

    def mixture(comps):
        w = sum(wt * np.exp(-((x - m) ** 2) / (2.0 * s * s)) for wt, m, s in comps)
        w = np.maximum(w, 1e-12 * w.max())
        return w / w.sum()

    _require(_max_rel_diff(mu, mixture(comps1)) <= ROUNDING, "mu differs from its mixture")
    _require(_max_rel_diff(nu, mixture(comps2)) <= ROUNDING, "nu differs from its mixture")
    _require(_max_rel_diff(c, (x[:, None] - x[None, :]) ** 2) <= ROUNDING, "cost is not (x - y)^2")


def dual_plan(alpha, beta, plan, c, gamma):
    """The plan is max(alpha (+) beta - c, 0) / gamma and nonnegative."""
    expected = np.maximum(alpha[:, None] + beta[None, :] - c, 0.0) / gamma
    _require(_max_rel_diff(plan, expected) <= ROUNDING, "plan differs from its potentials' recovery")
    _require(bool((plan >= 0).all()), "plan has negative entries")


def marginals_within(plan, mu, nu, tol):
    v = violation(plan, mu, nu)
    _require(v <= tol, f"marginal violation {v:.3e} exceeds tol {tol:.1e}")


def primal_value(plan, c, gamma) -> float:
    """<c, plan> + gamma/2 ||plan||^2."""
    return float((c * plan).sum()) + 0.5 * gamma * float((plan * plan).sum())


def dual_bound(alpha, beta, c, gamma, mu, nu) -> float:
    """<alpha, mu> + <beta, nu> - ||(alpha (+) beta - c)_+||^2 / (2 gamma)."""
    pos = np.maximum(alpha[:, None] + beta[None, :] - c, 0.0)
    return float(alpha @ mu + beta @ nu) - 0.5 * float((pos * pos).sum()) / gamma


def certificate(alpha, beta, plan, c, gamma, mu, nu, viol_bound):
    """Primal value minus dual bound is at most viol_bound (|alpha|_1 + |beta|_1).

    With pi = (alpha (+) beta - c)_+ / gamma the gap equals
    <alpha, pi 1 - mu> + <beta, pi^T 1 - nu>, hence the bound.
    """
    primal, dual = primal_value(plan, c, gamma), dual_bound(alpha, beta, c, gamma, mu, nu)
    scale = float(np.abs(alpha).sum() + np.abs(beta).sum())
    slack = ROUNDING * (abs(primal) + abs(dual) + scale)
    _require(
        primal - dual <= viol_bound * scale + slack,
        f"duality gap {primal - dual:.3e} exceeds {viol_bound:.1e} * {scale:.3e}",
    )


def progress(plan, start_plan, mu, nu):
    """The violation after the budget is below the violation at the start."""
    v, v0 = violation(plan, mu, nu), violation(start_plan, mu, nu)
    _require(v < v0, f"violation {v:.3e} after the budget is not below {v0:.3e} at the start")


def weak_duality(alpha, beta, c, gamma, mu, nu):
    """The dual bound is at most the primal value of the feasible plan mu nu^T."""
    dual = dual_bound(alpha, beta, c, gamma, mu, nu)
    primal = primal_value(np.outer(mu, nu), c, gamma)
    _require(
        dual <= primal + ROUNDING * (abs(primal) + abs(dual)),
        f"dual bound {dual:.6e} is not at most the primal value {primal:.6e} of mu nu^T",
    )


def gauge_pair(iters_a, plan_a, iters_b, plan_b):
    """Cyclic projection and fixed point: equal counts, plans within 1e-10."""
    _require(iters_a == iters_b, f"iteration counts differ: {iters_a} vs {iters_b}")
    d = float(np.abs(plan_a - plan_b).max())
    _require(d <= 1e-10, f"plans differ by {d:.3e}")


def repeat(iters_a, arrays_a, iters_b, arrays_b):
    """A repeated solve returns bit for bit what the first call returned."""
    _require(iters_a == iters_b, f"repeat took {iters_b} iterations, first call {iters_a}")
    _require(all(np.array_equal(a, b) for a, b in zip(arrays_a, arrays_b)), "repeat returned other arrays")


def entropic(alpha, beta, plan, c, gamma):
    """Sinkhorn: the plan is positive, log(plan) + c/gamma is an outer sum,
    and the plan is exp((alpha (+) beta - c)/gamma - 1)."""
    _require(bool((plan > 0).all()), "Sinkhorn plan is not positive")
    g = np.log(plan) + c / gamma
    outer = g[:, :1] + g[:1, :] - g[0, 0]
    scale = max(1.0, float(np.abs(g).max()))
    d = float(np.abs(g - outer).max()) / scale
    _require(d <= 1e-9, f"log(plan) + c/gamma is not an outer sum (off by {d:.3e})")
    expected = np.exp((alpha[:, None] + beta[None, :] - c) / gamma - 1.0)
    d = float(np.abs(plan / expected - 1.0).max())
    _require(d <= 1e-9, f"plan differs from exp((alpha (+) beta - c)/gamma - 1) by {d:.3e}")


def text_array(path, expected):
    """A plan or potential file written by the CLI, read back with np.loadtxt."""
    got = np.loadtxt(path, comments="#", ndmin=expected.ndim)
    _require(_max_rel_diff(got, expected) <= ROUNDING, f"{path.name} differs from the library result")


def history_csv(path, iterations, final_violation, tol, budget, objectives=None):
    """Footer count and converged flag match the library run; the last row's
    violation matches the library plan's and, to tolerance, is within tol.
    ``objectives`` (dual bound, primal value), when given, must match the
    last row's dual and primal columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    footer = {r[0][2:]: r[1] for r in rows[1:] if r[0].startswith("#")}
    data = [r for r in rows[1:] if not r[0].startswith("#")]
    _require(int(footer["iterations"]) == iterations,
             f"{path.name}: {footer['iterations']} iterations, library took {iterations}")
    _require(footer["converged"] == ("false" if budget else "true"), f"{path.name}: converged={footer['converged']}")
    _require(bool(data) and int(data[-1][0]) == iterations, f"{path.name}: last row is not the final iteration")
    last = [float(x) for x in data[-1][1:4]]
    _require(math.isclose(last[0], final_violation, rel_tol=1e-9, abs_tol=1e-18),
             f"{path.name}: last violation {last[0]:.6e}, library plan has {final_violation:.6e}")
    _require(budget or last[0] <= tol, f"{path.name}: last violation {last[0]:.3e} exceeds tol {tol:.1e}")
    if objectives is not None:
        for got, want, what in zip(last[1:], objectives, ("dual bound", "primal value")):
            _require(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12),
                     f"{path.name}: last {what} {got!r}, recomputed {want!r}")


def svg_polylines(path, count):
    root = ET.parse(path).getroot()
    found = len(root.findall("{http://www.w3.org/2000/svg}polyline"))
    _require(found == count, f"{path.name}: {found} polylines, expected {count}")


def exit_code(code, budget):
    expected = 2 if budget else 0
    _require(code == expected, f"exit code {code}, expected {expected}")
