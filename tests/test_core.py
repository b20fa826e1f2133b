import numpy as np
import pytest

from qrot import (
    Algorithm,
    DiscreteMeasure,
    Grid1D,
    SolverConfig,
    marginals,
    max_violation,
    primal_objective,
)
from qrot.core import check_mass_balance, residual_violation


def test_grid_points_are_uniform_cell_centers():
    g = Grid1D(5, 0.0, 1.0)
    assert g.h == pytest.approx(0.2)
    assert np.allclose(g.points, [0.1, 0.3, 0.5, 0.7, 0.9])
    assert np.all(np.diff(g.points) > 0)
    assert np.allclose(np.diff(g.points), g.h)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid1D(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Grid1D(4, 1.0, 0.0)
    with pytest.raises(ValueError):
        Grid1D(4, 0.0, np.inf)


def test_measure_validation():
    g = Grid1D(3)
    m = DiscreteMeasure(g, [0.1, 0.2, 0.3])
    assert m.mass == pytest.approx(0.6)
    with pytest.raises(ValueError):
        DiscreteMeasure(g, [0.1, 0.2])
    with pytest.raises(ValueError):
        DiscreteMeasure(g, [0.1, -0.2, 0.3])
    with pytest.raises(ValueError):
        DiscreteMeasure(g, [0.1, np.nan, 0.3])


def test_marginals_examples():
    row, col = marginals(0.5 * np.eye(2))
    assert np.allclose(row, [0.5, 0.5]) and np.allclose(col, [0.5, 0.5])

    row, col = marginals(np.zeros((2, 2)))
    assert np.all(row == 0) and np.all(col == 0)

    row, col = marginals([[0.2, 0.3], [0.1, 0.4]])
    assert np.allclose(row, [0.5, 0.5])
    assert np.allclose(col, [0.3, 0.7])


def test_marginals_of_nonnegative_plan_are_nonnegative(rng):
    for _ in range(20):
        pi = rng.uniform(0, 1, (rng.integers(1, 6), rng.integers(1, 6)))
        row, col = marginals(pi)
        assert (row >= 0).all() and (col >= 0).all()


def test_max_violation_examples():
    mu = nu = np.array([0.5, 0.5])
    assert max_violation(0.25 * np.eye(2), mu, nu) == pytest.approx(0.25)
    assert max_violation(0.5 * np.eye(2), mu, nu) == 0.0

    # product coupling of mass-matched marginals is feasible
    mu2 = np.array([0.3, 0.7])
    pi = np.outer(mu2, nu) / nu.sum()
    assert max_violation(pi, mu2, nu) < 1e-15


def test_max_violation_out_receives_the_marginals(rng):
    # Sinkhorn's history rows read the sums its stopping test took
    for shape in ((1, 1), (7, 9), (100, 100), (333, 1200)):
        pi = rng.lognormal(0.0, 3.0, shape)
        mu, nu = rng.random(shape[0]), rng.random(shape[1])
        out = (np.empty(shape[0]), np.empty(shape[1]))
        viol = max_violation(pi, mu, nu, out=out)
        assert viol == max_violation(pi, mu, nu)
        for got, want in zip(out, marginals(pi)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert all(a is b for a, b in zip(marginals(pi, out), out))


def test_max_violation_zero_iff_exact(rng):
    for _ in range(20):
        n, m = rng.integers(2, 5, size=2)
        pi = rng.uniform(0, 1, (n, m))
        row, col = marginals(pi)
        assert max_violation(pi, row, col) == 0.0
        bumped = col.copy()
        bumped[0] += 1e-9
        assert max_violation(pi, row, bumped) > 0


def test_residual_violation_propagates_nan_from_either_side():
    nan, inf = float("nan"), float("inf")
    assert residual_violation([1.0, -3.0], [2.0]) == 3.0
    assert residual_violation([1.0], [-5.0]) == 5.0
    for f, g in (([1.0], [nan]), ([nan], [1.0]), ([2.0, nan], [-7.0]), ([-7.0], [2.0, nan]), ([nan], [nan])):
        assert np.isnan(residual_violation(f, g)), (f, g)
        assert np.isnan(residual_violation(np.array(f), np.array(g))), (f, g)
    assert residual_violation([1.0], [-inf]) == inf and residual_violation([-inf], [1.0]) == inf
    # max_violation reads the residuals the same way
    assert np.isnan(max_violation([[0.5, 0.5]], [1.0], [nan, 0.5]))


def test_max_violation_dimension_mismatch():
    with pytest.raises(ValueError):
        max_violation(np.eye(2), np.ones(3), np.ones(2))


def test_primal_objective_examples():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert primal_objective(np.zeros((2, 2)), c, 1.0) == 0.0
    assert primal_objective(0.5 * np.eye(2), c, 1.0) == pytest.approx(0.25)
    assert primal_objective([[1.0]], [[0.0]], 1.0) == pytest.approx(0.5)


def test_primal_objective_is_convex(rng):
    c = rng.uniform(0, 1, (4, 5))
    for _ in range(30):
        p1 = rng.uniform(0, 1, (4, 5))
        p2 = rng.uniform(0, 1, (4, 5))
        t = rng.uniform()
        lhs = primal_objective(t * p1 + (1 - t) * p2, c, 2.0)
        rhs = t * primal_objective(p1, c, 2.0) + (1 - t) * primal_objective(p2, c, 2.0)
        assert lhs <= rhs + 1e-12


def test_mass_balance_check():
    check_mass_balance([0.5, 0.5], [0.2, 0.8])
    with pytest.raises(ValueError):
        check_mass_balance([0.5, 0.5], [0.5, 0.6])


def test_solver_config_validation():
    ok = SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT)
    assert ok.tol == 1e-6 and ok.max_iters == 100_000
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0, algorithm=Algorithm.FIXED_POINT)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT, tau=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, algorithm="fixed_point")
    # booleans and non-finite values are refused too
    for bad in ({"gamma": True}, {"gamma": np.inf}, {"tol": np.inf}, {"tau": np.inf}, {"tau": True},
                {"max_iters": True}, {"history_stride": True}):
        with pytest.raises(ValueError):
            SolverConfig(**{"gamma": 1.0, "algorithm": Algorithm.FIXED_POINT, **bad})
