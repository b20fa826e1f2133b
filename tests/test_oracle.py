import itertools

import numpy as np
import pytest

from conftest import count_dense_recoveries, random_instance
from qrot import Algorithm, SolverConfig, duality_gap, exact_solve, max_violation, recover_plan, solve
from qrot.fileio import default_problem, realize_problem

C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
DUAL_METHODS = (Algorithm.CYCLIC_PROJECTION, Algorithm.DUAL_GRADIENT, Algorithm.FIXED_POINT, Algorithm.NESTEROV)


def test_one_cell_instance():
    plan, pot = exact_solve([1.0], [1.0], [[0.0]], 1.0)
    assert np.allclose(plan, [[1.0]])
    assert pot.alpha[0] + pot.beta[0] == pytest.approx(1.0)
    assert pot.beta[0] == pytest.approx(0.0)  # gauge pins mean(beta)


def test_symmetric_instance_plan_and_optimality():
    mu = nu = np.array([0.5, 0.5])
    plan, pot = exact_solve(mu, nu, C2, 1.0)
    assert np.abs(plan - 0.5 * np.eye(2)).max() < 1e-12
    assert pot.beta.mean() == pytest.approx(0.0, abs=1e-12)
    # returned multipliers certify the plan
    assert np.abs(recover_plan(pot, C2, 1.0) - plan).max() < 1e-12
    assert duality_gap(pot, plan, C2, 1.0, mu, nu) <= 1e-10


def test_pinned_regression_asymmetric_marginals():
    plan, pot = exact_solve([0.7, 0.3], [0.5, 0.5], C2, 1.0)
    assert np.allclose(plan, [[0.5, 0.2], [0.0, 0.3]], atol=1e-12)
    assert np.allclose(pot.alpha, [0.85, -0.05], atol=1e-12)
    assert np.allclose(pot.beta, [-0.35, 0.35], atol=1e-12)


def test_oracle_solutions_are_feasible_and_tight(rng):
    instances = []
    for k in range(15):
        mu, nu, c = random_instance(rng)
        instances.append((mu, nu, c, [0.5, 1.0, 5.0][k % 3]))
    # 100 cells, beyond any pattern enumeration
    instances.append((*realize_problem(default_problem("squared", 10.0, 10)), 10.0))
    # supports that split into parts of balanced mass, whose relative shift
    # the optimality system leaves free
    uniform = np.full(4, 0.25)
    for c, gamma in (
        ([[1, 1, 2, 0], [1, 1, 0, 0], [0, 2, 1, 0], [2, 0, 0, 0]], 2.0),
        ([[0, 0, 0, 0], [0, 2, 2, 0], [0, 2, 2, 0], [1, 2, 0, 2]], 1.0),
    ):
        instances.append((uniform, uniform, np.array(c, dtype=float), gamma))
    for mu, nu, c, gamma in instances:
        plan, pot = exact_solve(mu, nu, c, gamma)
        assert (plan >= 0).all()
        assert max_violation(plan, mu, nu) < 1e-12
        assert duality_gap(pot, plan, c, gamma, mu, nu) <= 1e-10
        assert abs(pot.beta.mean()) < 1e-12


def test_oracle_invariances_and_dual_methods_where_the_band_is_live(monkeypatch):
    # on the stock 20 x 20 problem the support band carries most recoveries
    # of every dual method (at 10 x 10 the plain methods recover densely
    # throughout).  The optimum ignores a constant added to the cost and
    # transposes with the problem, and each method to tol 1e-9 lands on it,
    # on the problem as given, with the cost shifted and transposed.  The
    # methods run on c - 0.5: on c + 0.5 every cell starts off the support,
    # and the three plain methods take over 100,000 iterations to tol 1e-9
    mu, nu, c = realize_problem(default_problem("squared", 10.0, 20))
    mu, nu = mu.w, nu.w
    plan, _ = exact_solve(mu, nu, c, 10.0)
    for shift in (0.5, -0.5):
        assert np.abs(exact_solve(mu, nu, c + shift, 10.0)[0] - plan).max() <= 1e-12, shift
    assert np.abs(exact_solve(nu, mu, c.T, 10.0)[0] - plan.T).max() <= 1e-12
    dense = count_dense_recoveries(monkeypatch)
    problems = {"as given": (mu, nu, c, plan), "c - 0.5": (mu, nu, c - 0.5, plan), "transposed": (nu, mu, c.T, plan.T)}
    for (name, (a, b, cost, optimum)), alg in itertools.product(problems.items(), DUAL_METHODS):
        dense[0] = 0
        rep = solve(a, b, cost, SolverConfig(10.0, alg, tol=1e-9, max_iters=100_000, record_history=False))
        assert rep.converged and dense[0] < rep.iterations, (name, alg, dense[0], rep.iterations)
        assert np.abs(rep.final_plan - optimum).max() <= 1e-6, (name, alg)


def test_large_gamma_approaches_min_norm_feasible_plan():
    mu = np.array([0.7, 0.3])
    nu = np.array([0.5, 0.5])
    # zero cost and gamma 1 minimizes the plain Frobenius norm over the polytope
    limit, _ = exact_solve(mu, nu, np.zeros((2, 2)), 1.0)
    assert np.allclose(limit, [[0.35, 0.35], [0.15, 0.15]], atol=1e-12)
    dists = [
        np.linalg.norm(exact_solve(mu, nu, C2, g)[0] - limit) for g in (1e2, 1e3, 1e4)
    ]
    assert dists[0] > dists[1] > dists[2]


def test_input_guards():
    with pytest.raises(ValueError, match="N \\+ M = 201"):
        exact_solve(np.full(101, 1 / 101), np.full(100, 0.01), np.zeros((101, 100)), 1.0)
    with pytest.raises(ValueError, match="marginal mu must be finite"):
        exact_solve([np.nan, 1.0], [0.5, 0.5], C2, 1.0)
    with pytest.raises(ValueError, match="marginal nu must be finite"):
        exact_solve([0.5, 0.5], [np.inf, 1.0], C2, 1.0)
    with pytest.raises(ValueError):
        exact_solve([0.5, 0.5], [1.0, 0.0], C2, 1.0)  # zero mass cell
    with pytest.raises(ValueError):
        exact_solve([0.5, 0.5], [0.3, 0.3], C2, 1.0)  # unbalanced
    with pytest.raises(ValueError):
        exact_solve([0.5, 0.5], [0.5, 0.5], C2, 0.0)  # bad gamma
    with pytest.raises(ValueError):
        exact_solve([0.5, 0.5], [0.5, 0.5], C2, np.inf)
    with pytest.raises(ValueError):
        exact_solve([0.5, 0.5], [0.5, 0.5], np.zeros((3, 2)), 1.0)  # shape
