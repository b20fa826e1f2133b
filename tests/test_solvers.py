import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import count_dense_recoveries, random_instance
from qrot import (
    Algorithm,
    DivergenceError,
    DualPotentials,
    Entropy,
    Grid1D,
    MixtureSpec,
    NesterovState,
    SolverConfig,
    cyclic_projection_step,
    exact_solve,
    fixed_point_step,
    gradient_step,
    max_violation,
    nesterov_step,
    primal_objective,
    recover_plan,
    sinkhorn_plan,
    sinkhorn_step,
    solve,
)
from qrot.core import DOT_CHUNK, marginal_residuals, vdot
from qrot.dual import _tile_minima, dual_value
from qrot.fileio import ProblemFile, default_problem, realize_problem
from qrot.solvers import _dot, _SupportBand

C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
HALF = np.array([0.5, 0.5])

DUAL_ALGORITHMS = (
    Algorithm.CYCLIC_PROJECTION,
    Algorithm.DUAL_GRADIENT,
    Algorithm.FIXED_POINT,
    Algorithm.NESTEROV,
)


TAU_ALGORITHMS = (Algorithm.DUAL_GRADIENT, Algorithm.NESTEROV)


def zeros(n, m):
    return DualPotentials(np.zeros(n), np.zeros(m))


def test_cyclic_projection_hand_iteration():
    p = cyclic_projection_step(zeros(2, 2), C2, 1.0, HALF, HALF)
    assert np.allclose(p.alpha, [0.25, 0.25])
    assert np.allclose(p.beta, [0.0, 0.0])

    p = cyclic_projection_step(p, C2, 1.0, HALF, HALF)
    assert np.allclose(p.alpha, [0.375, 0.375])
    assert np.allclose(p.beta, [0.0, 0.0])


def test_cyclic_projection_fixed_at_optimum_any_gauge():
    for shift in (0.0, 0.25):
        p = DualPotentials(np.array([0.25 + shift] * 2), np.array([0.25 - shift] * 2))
        q = cyclic_projection_step(p, C2, 1.0, HALF, HALF)
        assert np.abs(q.alpha - p.alpha).max() < 1e-12
        assert np.abs(q.beta - p.beta).max() < 1e-12


def test_cyclic_projection_one_cell():
    p = cyclic_projection_step(zeros(1, 1), np.zeros((1, 1)), 1.0, [1.0], [1.0])
    assert np.allclose(p.alpha, [1.0])
    assert np.allclose(p.beta, [0.0])
    assert max_violation(recover_plan(p, np.zeros((1, 1)), 1.0), [1.0], [1.0]) == 0.0


def textbook_sweep(alpha, beta, c, gamma, mu, nu):
    """The three-block cyclic projection sweep, written out block by block."""
    n, m = c.shape
    rho = np.maximum(c - alpha[:, None] - beta[None, :], 0.0)
    rho_minus_c = rho - c
    alpha = (gamma / m) * (mu - (rho_minus_c.sum(axis=1) + beta.sum()) / gamma)
    beta = (gamma / n) * (nu - (rho_minus_c.sum(axis=0) + alpha.sum()) / gamma)
    return rho, alpha, beta


def test_cyclic_projection_matches_textbook_sweep(rng):
    for k in range(6):
        mu, nu, c = random_instance(rng)
        gamma = [0.5, 1.0, 5.0][k % 3]
        n, m = c.shape
        alpha, beta = np.zeros(n), np.zeros(m)
        cp = fp = zeros(n, m)
        for _ in range(2000):
            _, alpha, beta = textbook_sweep(alpha, beta, c, gamma, mu, nu)
            cp = cyclic_projection_step(cp, c, gamma, mu, nu)
            fp = fixed_point_step(fp, c, gamma, mu, nu)
            plan = recover_plan(DualPotentials(alpha, beta), c, gamma)
            assert np.abs(recover_plan(cp, c, gamma) - plan).max() <= 1e-12
            # the fixed-point iterates differ only by a gauge shift
            assert np.abs(recover_plan(fp, c, gamma) - plan).max() <= 1e-12


def test_gradient_step_examples():
    p = gradient_step(DualPotentials(np.zeros(2), np.zeros(2)), C2, 1.0, HALF, HALF, tau=0.25)
    assert np.allclose(p.alpha, [0.125, 0.125]) and np.allclose(p.beta, [0.125, 0.125])

    opt = DualPotentials(np.array([0.25, 0.25]), np.array([0.25, 0.25]))
    stepped = gradient_step(opt, C2, 1.0, HALF, HALF)
    assert np.abs(stepped.alpha - opt.alpha).max() < 1e-12

    p = gradient_step(DualPotentials(np.zeros(1), np.zeros(1)), [[0.0]], 1.0, [1.0], [1.0], tau=0.5)
    assert np.allclose(p.alpha, [0.5]) and np.allclose(p.beta, [0.5])


def test_fixed_point_step_examples():
    p = fixed_point_step(DualPotentials(np.zeros(2), np.zeros(2)), C2, 1.0, HALF, HALF)
    assert np.allclose(p.alpha, [0.125, 0.125]) and np.allclose(p.beta, [0.125, 0.125])

    # both residuals use the plan of the old potentials
    p = fixed_point_step(DualPotentials(np.zeros(1), np.zeros(1)), [[0.0]], 1.0, [1.0], [1.0])
    assert np.allclose(p.alpha, [0.5]) and np.allclose(p.beta, [0.5])


def test_nesterov_momentum_schedule():
    zero = DualPotentials(np.zeros(2), np.zeros(2))
    st0 = NesterovState(zero, zero, 0)
    st1 = nesterov_step(st0, C2, 1.0, HALF, HALF, tau=0.25)
    grad = gradient_step(zero, C2, 1.0, HALF, HALF, tau=0.25)
    assert np.allclose(st1.current.alpha, grad.alpha)  # n=0 has zero momentum
    assert st1.n == 1

    # n=1 extrapolates with sigma = 0.25
    st2 = nesterov_step(st1, C2, 1.0, HALF, HALF, tau=0.25)
    a_bar = st1.current.alpha + 0.25 * (st1.current.alpha - st1.previous.alpha)
    b_bar = st1.current.beta + 0.25 * (st1.current.beta - st1.previous.beta)
    bar = DualPotentials(a_bar, b_bar)
    expected = gradient_step(bar, C2, 1.0, HALF, HALF, tau=0.25)
    assert np.allclose(st2.current.alpha, expected.alpha)
    assert np.allclose(st2.current.beta, expected.beta)


def assert_same_potentials(pair, flat, n):
    """``pair`` is the pair form of the end-to-end ``flat``, bit for bit."""
    assert isinstance(pair, DualPotentials) and isinstance(flat, np.ndarray) and flat.ndim == 1
    assert pair.alpha.tobytes() == flat[:n].tobytes() and pair.beta.tobytes() == flat[n:].tobytes()


def assert_same_pairs(p, q):
    """Two :class:`DualPotentials` pairs are equal bit for bit."""
    assert p.alpha.tobytes() == q.alpha.tobytes() and p.beta.tobytes() == q.beta.tobytes()


@pytest.mark.parametrize("n, m", [(5, 8), (13, 4), (41, 70)])
def test_end_to_end_steps_are_the_pair_steps_bit_for_bit(rng, n, m):
    # each public step run on the potentials end to end (and its residuals
    # so) gives the pair form's result, bit for bit, with and without
    # residuals and tau, and Nesterov at counters 0, 1 and 7 with and
    # without a recovery of its own; no step writes the array it is given.
    # The pair form also takes a cost that broadcasts, and Nesterov integer
    # potentials
    mu, nu, c = random_instance(rng, n, m)
    gamma = float(rng.uniform(0.1, 2.0))
    pot = DualPotentials(0.3 * rng.standard_normal(n), 0.3 * rng.standard_normal(m))
    prev = DualPotentials(pot.alpha + 0.01 * rng.standard_normal(n), pot.beta + 0.01 * rng.standard_normal(m))
    x, before = np.concatenate(pot), np.concatenate(prev)
    kept = x.copy()
    res = (rng.standard_normal(n), rng.standard_normal(m))  # residuals as a step reads them, any values
    for pair_res, flat_res in ((None, None), (res, np.concatenate(res))):
        assert_same_potentials(cyclic_projection_step(pot, c, gamma, mu, nu, pair_res),
                               cyclic_projection_step(x, c, gamma, mu, nu, flat_res), n)
        assert_same_potentials(fixed_point_step(pot, c, gamma, mu, nu, pair_res),
                               fixed_point_step(x, c, gamma, mu, nu, flat_res), n)
        for tau in (None, 0.07):
            assert_same_potentials(gradient_step(pot, c, gamma, mu, nu, tau, pair_res),
                                   gradient_step(x, c, gamma, mu, nu, tau, flat_res), n)
    bars = []

    def pair_recover(bar):
        bars.append(np.concatenate(bar))
        return marginal_residuals(recover_plan(bar, c, gamma), mu, nu)

    def flat_recover(bar):
        bars.append(bar.copy())
        return np.concatenate(marginal_residuals(recover_plan((bar[:n], bar[n:]), c, gamma), mu, nu))

    for k in (0, 1, 7):
        for tau in (None, 0.07):
            for pair_rec, flat_rec in ((None, None), (pair_recover, flat_recover)):
                bars.clear()
                got = nesterov_step(NesterovState(pot, prev, k), c, gamma, mu, nu, tau, pair_rec)
                flat = nesterov_step(NesterovState(x, before, k), c, gamma, mu, nu, tau, flat_rec)
                assert_same_potentials(got.current, flat.current, n)
                assert got.previous is pot and flat.previous is x and got.n == flat.n == k + 1
                assert len(bars) == (2 if pair_rec else 0) and all(b.tobytes() == bars[0].tobytes() for b in bars)
    assert x.tobytes() == kept.tobytes()

    # a cost that broadcasts to (N, M) serves as it does in recover_plan:
    # every step, as pairs or end to end, reads N from the pair or from mu
    # and M from the potentials, never from the cost, and gives the full
    # cost's step, bit for bit, with and without residuals (for Nesterov, a
    # recovery of its own) and at the default tau too
    for cost in (c[:1], c[0], c[0, 0]):
        full = np.broadcast_to(cost, (n, m))
        for pair_res, flat_res in ((None, None), (res, np.concatenate(res))):
            want = cyclic_projection_step(pot, full, gamma, mu, nu, pair_res)
            assert_same_pairs(cyclic_projection_step(pot, cost, gamma, mu, nu, pair_res), want)
            assert_same_potentials(want, cyclic_projection_step(x, cost, gamma, mu, nu, flat_res), n)
            want = fixed_point_step(pot, full, gamma, mu, nu, pair_res)
            assert_same_pairs(fixed_point_step(pot, cost, gamma, mu, nu, pair_res), want)
            assert_same_potentials(want, fixed_point_step(x, cost, gamma, mu, nu, flat_res), n)
            for tau in (None, 0.07):
                want = gradient_step(pot, full, gamma, mu, nu, tau, pair_res)
                assert_same_pairs(gradient_step(pot, cost, gamma, mu, nu, tau, pair_res), want)
                assert_same_potentials(want, gradient_step(x, cost, gamma, mu, nu, tau, flat_res), n)

        def pair_full(bar):
            return marginal_residuals(recover_plan(bar, full, gamma), mu, nu)

        def flat_full(bar):
            return np.concatenate(pair_full((bar[:n], bar[n:])))

        for tau in (None, 0.07):
            for pair_rec, flat_rec in ((None, None), (pair_full, flat_full)):
                want = nesterov_step(NesterovState(pot, prev, 7), full, gamma, mu, nu, tau, pair_rec).current
                got = nesterov_step(NesterovState(pot, prev, 7), cost, gamma, mu, nu, tau, pair_rec).current
                assert_same_pairs(got, want)
                flat = nesterov_step(NesterovState(x, before, 7), cost, gamma, mu, nu, tau, flat_rec).current
                assert_same_potentials(want, flat, n)

    # integer potentials, as pairs or end to end, extrapolate in floats: the
    # step is the one from the same values as floats
    ints = DualPotentials(rng.integers(-2, 3, n), rng.integers(-2, 3, m))
    prev_ints = DualPotentials(np.zeros(n, int), np.ones(m, int))
    floats, prev_floats = (DualPotentials(p.alpha.astype(float), p.beta.astype(float)) for p in (ints, prev_ints))
    for k in (0, 1, 7):
        want = nesterov_step(NesterovState(floats, prev_floats, k), c, gamma, mu, nu).current
        assert_same_pairs(nesterov_step(NesterovState(ints, prev_ints, k), c, gamma, mu, nu).current, want)
        flat = nesterov_step(NesterovState(np.concatenate(ints), np.concatenate(prev_ints), k), c, gamma, mu, nu)
        assert_same_potentials(want, flat.current, n)


STEP_NAMES = {
    Algorithm.CYCLIC_PROJECTION: "cyclic_projection_step",
    Algorithm.DUAL_GRADIENT: "gradient_step",
    Algorithm.FIXED_POINT: "fixed_point_step",
    Algorithm.NESTEROV: "nesterov_step",
}


@pytest.mark.parametrize("alg", DUAL_ALGORITHMS)
def test_solve_calls_the_module_step_once_per_iteration(alg, monkeypatch):
    # the run calls its method's step as the module attribute, once an
    # iteration and no other step, so a wrapper installed there (as a
    # tracer's) sees one call per iteration, with history at every
    # iteration, at a stride and off, to tolerance and at the cap
    from qrot import solvers

    calls = dict.fromkeys(STEP_NAMES.values(), 0)
    for name in calls:
        def counted(*args, _name=name, _step=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    mu, nu, c = realize_problem(default_problem("squared", 10.0, 100))
    for tol, max_iters in ((1e-3, 100_000), (1e-300, 40)):
        for history in (1, 7, None):
            calls.update(dict.fromkeys(calls, 0))
            rep = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=alg, tol=tol, max_iters=max_iters,
                                                record_history=history is not None, history_stride=history or 1))
            assert rep.converged == (tol > 1e-300), (alg, tol)
            assert calls[STEP_NAMES[alg]] == sum(calls.values()) == rep.iterations, (alg, tol, history, calls)


def test_nesterov_fixed_at_optimum_for_all_counters():
    opt = DualPotentials(np.array([0.25, 0.25]), np.array([0.25, 0.25]))
    for n in (0, 1, 7, 100):
        st = nesterov_step(NesterovState(opt, opt, n), C2, 1.0, HALF, HALF)
        assert np.abs(st.current.alpha - opt.alpha).max() < 1e-12
        assert np.abs(st.current.beta - opt.beta).max() < 1e-12


def test_one_step_fixes_oracle_potentials(rng):
    for k in range(8):
        mu, nu, c = random_instance(rng)
        gamma = [0.5, 1.0, 5.0][k % 3]
        _, pot = exact_solve(mu, nu, c, gamma)
        moved = []
        for p in (
            cyclic_projection_step(pot, c, gamma, mu, nu),
            gradient_step(pot, c, gamma, mu, nu),
            fixed_point_step(pot, c, gamma, mu, nu),
            nesterov_step(NesterovState(pot, pot, 5), c, gamma, mu, nu).current,
        ):
            moved.append((p.alpha - pot.alpha, p.beta - pot.beta))
        for da, db in moved:
            assert max(np.abs(da).max(), np.abs(db).max()) < 1e-10


def test_gauge_equivariance_of_plan_sequences(rng):
    mu, nu, c = random_instance(rng, 4, 5)
    n, m = 4, 5
    shift = 1.7
    for alg in DUAL_ALGORITHMS:
        plain = DualPotentials(np.zeros(n), np.zeros(m))
        shifted = DualPotentials(np.zeros(n) + shift, np.zeros(m) - shift)
        states = [plain, shifted]
        if alg is Algorithm.NESTEROV:
            states = [NesterovState(p, p, 0) for p in states]
        for _ in range(25):
            for idx in range(2):
                if alg is Algorithm.CYCLIC_PROJECTION:
                    states[idx] = cyclic_projection_step(states[idx], c, 1.0, mu, nu)
                elif alg is Algorithm.DUAL_GRADIENT:
                    states[idx] = gradient_step(states[idx], c, 1.0, mu, nu)
                elif alg is Algorithm.FIXED_POINT:
                    states[idx] = fixed_point_step(states[idx], c, 1.0, mu, nu)
                else:
                    states[idx] = nesterov_step(states[idx], c, 1.0, mu, nu)
            pots = [s.current if alg is Algorithm.NESTEROV else s for s in states]
            plans = [recover_plan(p, c, 1.0) for p in pots]
            assert np.abs(plans[0] - plans[1]).max() < 1e-10


def test_sinkhorn_step_examples():
    u, v = sinkhorn_step(np.ones(1), np.ones(1), np.exp(-np.zeros((1, 1))), [1.0], [1.0])
    assert np.allclose(u, [1.0]) and np.allclose(v, [1.0])
    assert np.allclose(sinkhorn_plan(u, v, np.ones((1, 1))), [[1.0]])


def test_sinkhorn_constant_cost_gives_product_coupling(rng):
    mu, nu, _ = random_instance(rng, 3, 4)
    c = np.full((3, 4), 0.7)
    rep = solve(mu, nu, c, SolverConfig(gamma=1.0, algorithm=Algorithm.SINKHORN, tol=1e-12, max_iters=10_000))
    assert np.abs(rep.final_plan - np.outer(mu, nu) / nu.sum()).max() < 1e-10


def test_sinkhorn_column_sums_exact_after_sweep(rng):
    mu, nu, c = random_instance(rng)
    K = np.exp(-c / 2.0)
    u, v = np.ones(mu.size), np.ones(nu.size)
    for _ in range(3):
        u, v = sinkhorn_step(u, v, K, mu, nu)
        col = sinkhorn_plan(u, v, K).sum(axis=0)
        assert np.abs(col - nu).max() < 1e-12


def test_sinkhorn_step_with_given_Kv_is_bitwise_the_same(rng):
    mu, nu, c = random_instance(rng, 30, 40)
    K = np.exp(-c / 0.05)
    u, v = np.ones(mu.size), np.ones(nu.size)
    for _ in range(5):
        fresh = sinkhorn_step(u, v, K, mu, nu)
        given = sinkhorn_step(u, v, K, mu, nu, Kv=K @ v)
        assert np.array_equal(fresh[0], given[0]) and np.array_equal(fresh[1], given[1])
        u, v = fresh


def test_sinkhorn_underflow_raises():
    c = np.array([[1e4, 1e4], [0.0, 0.0]])
    K = np.exp(-c / 1.0)
    with pytest.raises(ZeroDivisionError):
        sinkhorn_step(np.ones(2), np.ones(2), K, HALF, HALF)
    # a passed-in K v is checked as well
    with pytest.raises(ZeroDivisionError):
        sinkhorn_step(np.ones(2), np.ones(2), np.ones((2, 2)), HALF, HALF, Kv=K @ np.ones(2))


def test_sinkhorn_plan_in_place(rng):
    mu, nu, c = random_instance(rng, 5, 7)
    K = np.exp(-c / 0.1)
    u, v = sinkhorn_step(np.ones(5), np.ones(7), K, mu, nu)
    buf = np.full((5, 7), np.nan)
    assert sinkhorn_plan(u, v, K, out=buf) is buf
    assert np.array_equal(buf, sinkhorn_plan(u, v, K))
    assert np.array_equal(buf, u[:, None] * K * v[None, :])


def test_solve_one_cell_all_algorithms():
    for alg in Algorithm:
        rep = solve([1.0], [1.0], [[0.0]], SolverConfig(gamma=1.0, algorithm=alg, tol=1e-10, max_iters=10))
        assert rep.converged and rep.iterations <= 3
        assert np.allclose(rep.final_plan, [[1.0]], atol=1e-9)


def test_solve_symmetric_instance_cyclic():
    rep = solve(HALF, HALF, C2, SolverConfig(gamma=1.0, algorithm=Algorithm.CYCLIC_PROJECTION, tol=1e-8))
    assert rep.converged
    assert np.abs(rep.final_plan - 0.5 * np.eye(2)).max() < 1e-7


def test_solve_single_iteration_does_not_converge(rng):
    mu, nu, c = random_instance(rng, 4, 4)
    rep = solve(mu, nu, c, SolverConfig(gamma=1.0, algorithm=Algorithm.DUAL_GRADIENT, tol=1e-9, max_iters=1))
    assert not rep.converged and rep.iterations == 1


def test_solve_rejects_unbalanced_or_mismatched_inputs():
    with pytest.raises(ValueError):
        solve([0.5, 0.5], [0.4, 0.4], C2, SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT))
    with pytest.raises(ValueError):
        solve([0.5, 0.5, 0.1], HALF, C2, SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT))
    with pytest.raises(ValueError):
        solve(HALF, HALF, [[np.inf, 0.0], [0.0, 0.0]], SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT))
    # a zero weight is fine for the dual methods but not for Sinkhorn's scalings
    solve([1.0, 0.0], HALF, C2, SolverConfig(gamma=1.0, algorithm=Algorithm.FIXED_POINT, max_iters=5))
    with pytest.raises(ValueError, match="strictly positive"):
        solve([1.0, 0.0], HALF, C2, SolverConfig(gamma=1.0, algorithm=Algorithm.SINKHORN))


@pytest.mark.parametrize("alg", [Algorithm.NESTEROV, Algorithm.SINKHORN])
@pytest.mark.parametrize("mu, nu, match", [
    ([np.nan, 1.0], HALF, "marginal mu must be finite"),
    (HALF, [0.5, np.inf], "marginal nu must be finite"),
    ([1.5, -0.5], HALF, "marginal mu must be nonnegative"),
    (HALF, [[0.5, 0.5]], r"marginal nu must be one-dimensional, got shape \(1, 2\)"),
])
def test_solve_rejects_bad_marginal_arrays(alg, mu, nu, match):
    # plain arrays get the checks a DiscreteMeasure's weights get, before any
    # iteration could diverge, run to the cap or fail to broadcast
    with pytest.raises(ValueError, match=match):
        solve(mu, nu, C2, SolverConfig(gamma=1.0, algorithm=alg, max_iters=50))


@pytest.mark.parametrize("alg", list(Algorithm))
def test_solve_rejects_empty_marginals(alg):
    # an empty marginal is named before any step divides by N + M or
    # reduces an empty kernel; the oracle inherits the check
    config = SolverConfig(gamma=1.0, algorithm=alg)
    with pytest.raises(ValueError, match="marginal mu must not be empty"):
        solve([], [], np.zeros((0, 0)), config)
    with pytest.raises(ValueError, match="marginal nu must not be empty"):
        solve([1.0], [], np.zeros((1, 0)), config)
    with pytest.raises(ValueError, match="marginal mu must not be empty"):
        exact_solve([], [], np.zeros((0, 0)), 1.0)


def test_sinkhorn_kernel_overflow_is_a_value_error():
    # exp(10 / 0.01) overflows; the error names it, and no warning escapes
    with pytest.raises(ValueError, match="overflows"):
        solve(HALF, HALF, [[-10.0, 0.0], [0.0, -10.0]], SolverConfig(gamma=0.01, algorithm=Algorithm.SINKHORN))


def test_solve_divergence_detection():
    with pytest.raises(DivergenceError) as err:
        solve(HALF, HALF, C2, SolverConfig(gamma=1.0, algorithm=Algorithm.DUAL_GRADIENT, tau=1e200, max_iters=10))
    assert "dual_gradient" in str(err.value)
    assert err.value.iteration >= 1


@pytest.mark.parametrize("alg", list(Algorithm))
def test_divergence_message_suggests_a_stepsize_only_where_there_is_one(alg):
    # only gradient descent and Nesterov take tau; the message survives the
    # trip between processes
    err = DivergenceError(alg, 73)
    hint = "a smaller stepsize or larger gamma" if alg in TAU_ALGORITHMS else "a larger gamma"
    assert str(err) == f"{alg.value} produced a non-finite iterate at iteration 73; try {hint}"
    assert str(pickle.loads(pickle.dumps(err))) == str(err)


def test_divergence_error_survives_pickling():
    # a helper process of `qrot compare` sends it back to the CLI process
    err = DivergenceError(Algorithm.NESTEROV, 7)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DivergenceError and isinstance(back, RuntimeError)
    assert (back.algorithm, back.iteration, str(back), back.args) == (Algorithm.NESTEROV, 7, str(err), err.args)


def test_solve_takes_fraction_parameters_as_floats():
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=20))
    for algorithm in Algorithm:
        with_tau = algorithm in TAU_ALGORITHMS
        exact = SolverConfig(gamma=Fraction(10), algorithm=algorithm, tol=Fraction(1, 10_000),
                             tau=Fraction(1, 40) if with_tau else None)
        rounded = SolverConfig(gamma=10.0, algorithm=algorithm, tol=1e-4, tau=0.025 if with_tau else None)
        a, b = solve(mu, nu, c, exact), solve(mu, nu, c, rounded)
        assert a.iterations == b.iterations
        assert np.array_equal(a.final_plan, b.final_plan)


def test_all_algorithms_agree_on_tiny_instances(rng):
    for k in range(6):
        mu, nu, c = random_instance(rng)
        gamma = [0.5, 1.0, 5.0][k % 3]
        plans = [
            solve(mu, nu, c, SolverConfig(gamma=gamma, algorithm=alg, tol=1e-9, max_iters=500_000,
                                          record_history=False)).final_plan
            for alg in DUAL_ALGORITHMS
        ]
        for p in plans[1:]:
            assert np.abs(p - plans[0]).max() < 1e-6


def test_history_records_and_stride():
    mu, nu, c = HALF, HALF, C2
    rep = solve(mu, nu, c, SolverConfig(gamma=1.0, algorithm=Algorithm.DUAL_GRADIENT, tol=1e-10, max_iters=200))
    iters = [row.iteration for row in rep.history]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    assert all(row.max_violation >= 0 for row in rep.history)
    assert len(rep.history) <= 200
    assert rep.history[-1].iteration == rep.iterations
    # duality gap shrinks to zero as the iterates become feasible
    assert abs(rep.history[-1].duality_gap) < 1e-9

    thin = solve(mu, nu, c, SolverConfig(gamma=1.0, algorithm=Algorithm.DUAL_GRADIENT, tol=1e-10,
                                         max_iters=200, history_stride=25))
    assert [row.iteration for row in thin.history][:-1] == [25, 50, 75, 100, 125, 150, 175, 200][: len(thin.history) - 1]
    assert thin.history[-1].iteration == thin.iterations

    off = solve(mu, nu, c, SolverConfig(gamma=1.0, algorithm=Algorithm.DUAL_GRADIENT, tol=1e-10,
                                        max_iters=200, record_history=False))
    assert off.history == ()


def test_violation_trend_on_benchmark():
    # violation at iteration 10k sits below its value at iteration k
    for cost, gamma in (("squared", 10.0), ("absolute", 50.0)):
        mu, nu, c = realize_problem(default_problem(cost, gamma))
        for alg in (Algorithm.CYCLIC_PROJECTION, Algorithm.FIXED_POINT):
            rep = solve(mu, nu, c, SolverConfig(gamma=gamma, algorithm=alg, tol=1e-300, max_iters=1000))
            viol = {row.iteration: row.max_violation for row in rep.history}
            assert viol[100] < viol[10]
            assert viol[1000] < viol[100]


def reference_dual_solve(mu, nu, c, config):
    """The dual solve loop written out plainly: a fresh plan recovery, the
    public step and ``max_violation`` every iteration, and history rows from
    ``primal_objective`` and ``dual_value``.  Returns (iterations,
    converged, plan, potentials, rows) with rows (iteration, violation,
    dual, primal)."""
    n, m = c.shape
    gamma, alg, tau = config.gamma, config.algorithm, config.tau
    pot = DualPotentials(np.zeros(n), np.zeros(m))
    state = NesterovState(pot, pot, 0)
    rows = []
    for it in range(1, config.max_iters + 1):
        if alg is Algorithm.CYCLIC_PROJECTION:
            pot = cyclic_projection_step(pot, c, gamma, mu, nu)
        elif alg is Algorithm.DUAL_GRADIENT:
            pot = gradient_step(pot, c, gamma, mu, nu, tau)
        elif alg is Algorithm.FIXED_POINT:
            pot = fixed_point_step(pot, c, gamma, mu, nu)
        else:
            state = nesterov_step(state, c, gamma, mu, nu, tau)
            pot = state.current
        plan = recover_plan(pot, c, gamma)
        viol = max_violation(plan, mu, nu)
        converged = viol <= config.tol
        if config.record_history and (converged or it == config.max_iters or it % config.history_stride == 0):
            rows.append((it, viol, dual_value(pot, c, gamma, mu, nu), primal_objective(plan, c, gamma)))
        if converged:
            return it, True, plan, pot, rows
    return config.max_iters, False, plan, pot, rows


def test_solve_is_bit_identical_to_reference_dual_loop(rng):
    instances = [random_instance(rng) for _ in range(3)] + [random_instance(rng, 7, 9)]
    for k, (mu, nu, c) in enumerate(instances):
        gamma = [0.5, 1.0, 5.0][k % 3]
        for alg in DUAL_ALGORITHMS:
            for tol, max_iters in ((1e-9, 200_000), (1e-300, 37)):  # to tolerance, and at the cap
                for history in (None, 1, 5):
                    config = SolverConfig(gamma=gamma, algorithm=alg, tol=tol, max_iters=max_iters,
                                          record_history=history is not None, history_stride=history or 1)
                    rep = solve(mu, nu, c, config)
                    iters, converged, plan, pot, rows = reference_dual_solve(mu, nu, c, config)
                    assert (rep.iterations, rep.converged) == (iters, converged), (alg, tol, history)
                    assert converged or iters == max_iters
                    assert np.array_equal(rep.final_plan, plan)
                    assert np.array_equal(rep.final_potentials.alpha, pot.alpha)
                    assert np.array_equal(rep.final_potentials.beta, pot.beta)
                    assert [tuple(r)[:2] + (r.dual_objective, r.primal_objective) for r in rep.history] == rows


def support_band(c, gamma, mu, nu, start):
    """The band :func:`solve` builds for ``c``, which passes it the least
    cost of each tile of the dense sweep and the greatest entry; ``start``
    is a pair, which the band takes end to end."""
    return _SupportBand(c, gamma, mu, nu, np.concatenate(start), _tile_minima(c), float(c.max()))


def recovered(band, pot):
    """``band.recover`` of the pair ``pot``, end to end, with its residuals
    split into ``(f, g)``."""
    return np.split(band.recover(np.concatenate(pot)), [len(pot[0])])


def row_sum_bound(plan):
    """How far a row sum of ``plan`` taken in another order may be from
    ``plan.sum(axis=1)``: ``(M - 1) eps`` times the row sum."""
    return (plan.shape[1] - 1) * np.finfo(float).eps * plan.sum(axis=1)


def test_support_band_matches_dense_recovery_on_random_walks(rng, monkeypatch):
    # small moves keep the band; jumps past its reach and a NaN force dense
    # recoveries; after every call the band writes its plan into its one
    # buffer.  The plan and the column residuals are the dense ones bit for
    # bit, and the row residuals are too or lie within the bound of a
    # reordered row sum
    dense = count_dense_recoveries(monkeypatch)
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=60))
    mu, nu = mu.w, nu.w
    start = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-3,
                                          record_history=False)).final_potentials
    for walk in range(3):
        band = support_band(c, 10.0, mu, nu, start)
        alpha, beta = start.alpha.copy(), start.beta.copy()
        dense[0] = 0
        calls = 0
        for k in range(150):
            scale = 1e-6 * (1 + walk)
            if k % 50 == 49:
                scale *= 300  # well past the reach of 32 moves
            alpha = alpha + scale * rng.standard_normal(alpha.size)
            beta = beta + scale * rng.standard_normal(beta.size)
            pot = DualPotentials(alpha, beta)
            if k == 120:
                pot = DualPotentials(np.where(np.arange(alpha.size) == 7, np.nan, alpha), beta)
            with np.errstate(invalid="ignore"):
                f, g = recovered(band, pot)
                plan = recover_plan(pot, c, 10.0)
                rf, rg = marginal_residuals(plan, mu, nu)
            calls += 1
            band.write()
            assert np.array_equal(band.plan, plan, equal_nan=True), (walk, k)
            assert np.array_equal(g, rg, equal_nan=True), (walk, k)
            assert np.array_equal(f, rf, equal_nan=True) or (np.abs(f - rf) <= row_sum_bound(plan)).all(), (walk, k)
        # the band carried most recoveries; each jump and the NaN forced a dense one
        assert 5 <= dense[0] < calls / 3, (walk, dense[0])


def test_nesterov_rebuilds_the_band_from_its_last_move(monkeypatch):
    # every dense recovery selects a band of reach 32 times the move from
    # the last call's potentials, the start's at the first call (a zero
    # move, so no band; the start's plan is zero and needs no recovery), so
    # on the stock n=100 problem Nesterov recovers densely 154 times.  An
    # iteration that certifies its violation instead of recovering its
    # current point still makes that point the last call's, so history off,
    # where most iterations do, rebuilds exactly as history at every
    # iteration, where none does
    mu, nu, c = realize_problem(default_problem("squared", 10.0, 100))
    dense = count_dense_recoveries(monkeypatch)
    counts = []
    for record in (False, True):
        dense[0] = 0
        rep = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-5,
                                            record_history=record, history_stride=1))
        assert (rep.iterations, rep.converged) == (1165, True)
        counts.append(dense[0])
    assert counts == [154, 154], counts


def test_nesterov_recovers_its_zero_start_once(monkeypatch):
    # the run does not recover Nesterov's start before its first step, which
    # recovers its first extrapolated point, the start.  Its plan is zero on
    # this nonnegative cost, so that call makes no dense recovery, and one
    # iteration recovers densely at the new point only.
    # The run is bit for bit the plain loop's
    mu, nu, c = realize_problem(default_problem("squared", 10.0, 100))
    dense = count_dense_recoveries(monkeypatch)
    config = SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-300, max_iters=1, history_stride=1)
    rep = solve(mu, nu, c, config)
    assert dense[0] == 1 and rep.iterations == 1
    monkeypatch.undo()
    iters, converged, plan, pot, rows = reference_dual_solve(mu, nu, c, config)
    assert np.array_equal(rep.final_plan, plan)
    assert np.array_equal(rep.final_potentials.alpha, pot.alpha)
    assert np.array_equal(rep.final_potentials.beta, pot.beta)
    assert [tuple(r)[:2] + (r.dual_objective, r.primal_objective) for r in rep.history] == rows


def count_band_calls(monkeypatch):
    """Route ``_SupportBand._dense``, the band's calls that keep no band
    live from before, through a counter; returns the one-element list that
    holds the count."""
    dense = _SupportBand._dense
    count = [0]

    def counted(self, pot, theta):
        count[0] += 1
        return dense(self, pot, theta)

    monkeypatch.setattr(_SupportBand, "_dense", counted)
    return count


@pytest.mark.parametrize("alg", DUAL_ALGORITHMS)
@pytest.mark.parametrize("shift, skipped", [(0.0, 1), (-0.5, 0)])
def test_a_zero_start_makes_no_dense_recovery(alg, shift, skipped, monkeypatch):
    # at zero potentials the plan is max(-c, 0) / gamma: zero on the stock
    # cost, which is nonnegative, so the start's call makes no dense
    # recovery and every other call without a live band makes one.  On
    # c - 0.5 the start's plan is not zero, and it is recovered densely.
    # Either way the run is bit for bit the plain loop's over these 20
    # iterations, before a band's row sum in another order tells them apart
    mu, nu, c = realize_problem(default_problem("squared", 10.0, 100))
    c = c + shift
    config = SolverConfig(gamma=10.0, algorithm=alg, tol=1e-300, max_iters=20, history_stride=3)
    calls, dense = count_band_calls(monkeypatch), count_dense_recoveries(monkeypatch)
    rep = solve(mu, nu, c, config)
    assert dense[0] == calls[0] - skipped and calls[0] > 1, (alg, shift, dense[0], calls[0])
    monkeypatch.undo()
    iters, converged, plan, pot, rows = reference_dual_solve(mu, nu, c, config)
    assert (rep.iterations, rep.converged) == (iters, converged), alg
    assert np.array_equal(rep.final_plan, plan), alg
    assert np.array_equal(rep.final_potentials.alpha, pot.alpha), alg
    assert np.array_equal(rep.final_potentials.beta, pot.beta), alg
    assert [tuple(r)[:2] + (r.dual_objective, r.primal_objective) for r in rep.history] == rows, alg


@pytest.mark.parametrize("alg", DUAL_ALGORITHMS)
def test_zero_marginals_converge_at_once_to_a_zero_plan(alg, monkeypatch):
    # with mu = nu = 0 every residual at zero potentials is 0.0, so no step
    # moves them: each call's plan is zero, none recovers densely, and the
    # run converges at its first iteration with a plan of +0.0 throughout,
    # written into a buffer that no recovery filled
    _, _, c = realize_problem(default_problem("squared", 10.0, 30))
    mu, nu = np.zeros(30), np.zeros(30)
    dense = count_dense_recoveries(monkeypatch)
    config = SolverConfig(gamma=10.0, algorithm=alg, history_stride=1)
    rep = solve(mu, nu, c, config)
    assert (rep.iterations, rep.converged, dense[0]) == (1, True, 0), alg
    plan = rep.final_plan
    assert plan.shape == c.shape and not plan.any() and not np.signbit(plan).any(), alg
    monkeypatch.undo()
    iters, converged, ref_plan, pot, rows = reference_dual_solve(mu, nu, c, config)
    assert (iters, converged) == (1, True) and np.array_equal(plan, ref_plan), alg
    assert not rep.final_potentials.alpha.any() and not rep.final_potentials.beta.any(), alg
    assert [tuple(r)[:2] + (r.dual_objective, r.primal_objective) for r in rep.history] == rows, alg


def test_a_zero_plan_call_zeroes_a_stale_plan_buffer(rng, monkeypatch):
    # a call at non-finite potentials fills the buffer densely with NaN;
    # its move to the next call is not finite, so that call keeps no band,
    # and at potentials whose every value before the clip is at most 0 it
    # takes the plan as zero without a recovery.  Its residuals are those
    # of zero sums, not of any earlier call, and write() zeroes the buffer
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=20))
    mu, nu = mu.w, nu.w
    start = zeros(20, 20)
    band = support_band(c, 10.0, mu, nu, start)
    dense = count_dense_recoveries(monkeypatch)
    with np.errstate(invalid="ignore"):
        recovered(band, DualPotentials(np.full(20, np.nan), start.beta))
    band.write()
    assert dense[0] == 1 and np.isnan(band.plan).all()
    low = DualPotentials(-rng.uniform(0.0, 1.0, 20), -rng.uniform(0.0, 1.0, 20))
    f, g = recovered(band, low)
    assert dense[0] == 1 and band.cells is None and band.values.size == 0
    assert np.array_equal(f, 0.0 - mu) and np.array_equal(g, 0.0 - nu)
    band.write()
    assert not band.plan.any() and not np.signbit(band.plan).any()
    assert np.array_equal(band.plan, recover_plan(low, c, 10.0))


@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_cost_that_is_not_finite(alg, bad):
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    c[1, 0] = bad
    with pytest.raises(ValueError, match="^cost matrix must be finite$"):
        solve(HALF, HALF, c, SolverConfig(gamma=1.0, algorithm=alg))


def test_a_first_call_rebuilds_by_the_one_rule_from_the_start(rng, monkeypatch):
    # a band's first call rebuilds as every later one does, from the move
    # away from the band's start, in one dense recovery: one recover_plan
    # call that selects the cells within theta = _BAND_REACH times the
    # move, as the dense recovery rounds them.  It keeps them as the band
    # exactly when theta passes the slack and they fit _BAND_MAX_SHARE of
    # the cells: not past the share, at a zero move (also on a cost with
    # negative entries, whose plan at zero potentials is not zero), at a
    # move below the slack, nor at NaN potentials.  Either way the plan and
    # residuals are those of recover_plan without a reach, bit for bit.
    # The move is max|d alpha| + max|d beta|
    from qrot import solvers

    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=60))
    mu, nu = mu.w, nu.w
    solved = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-3,
                                           record_history=False)).final_potentials
    calls = []

    def recorded(*args, reach=None, **kwargs):
        result = recover_plan(*args, reach=reach, **kwargs)
        calls.append((reach, None if reach is None else result[1]))
        return result

    monkeypatch.setattr(solvers, "recover_plan", recorded)

    def moved(p, step):
        return DualPotentials(p.alpha + step * rng.standard_normal(60), p.beta + step * rng.standard_normal(60))

    low = DualPotentials(np.where(np.arange(60) == 0, 0.0, solved.alpha), solved.beta)  # alpha[0] = 0
    tiny = DualPotentials(np.where(np.arange(60) == 0, 1e-20, solved.alpha), solved.beta)  # a move of 1e-20 from low
    nan = DualPotentials(np.where(np.arange(60) == 7, np.nan, solved.alpha), solved.beta)
    cases = [  # (cost, start, potentials, theta past the slack, band kept)
        (c, solved, solved, False, False),  # a zero move
        (c, solved, moved(solved, 1e-6), True, True),
        (c, solved, moved(solved, 1.0), True, False),  # past the share
        (c - 0.5, zeros(60, 60), zeros(60, 60), False, False),  # a zero move, negative costs
        (c, low, tiny, False, False),  # a move below the slack
        (c, solved, nan, False, False),
    ]
    for k, (cost, start, p, due, kept) in enumerate(cases):
        x = np.concatenate(p)
        band = support_band(cost, 10.0, mu, nu, start)
        calls.clear()
        with np.errstate(invalid="ignore"):
            f, g = np.split(band.recover(x), [60])
            move = np.abs(p.alpha - start.alpha).max() + np.abs(p.beta - start.beta).max()
            theta = solvers._BAND_REACH * move
            cells = np.flatnonzero(p.beta + p.alpha[:, None] - cost > -theta)
        [(reach, got)] = calls  # one dense recovery, at reach theta
        assert np.array_equal(reach, theta, equal_nan=True), k
        slack = 8.0 * np.finfo(float).eps * (np.abs(p.alpha).max() + np.abs(p.beta).max()
                                             + max(cost.max(), -cost.min()) + theta)
        fits = got.size <= solvers._BAND_MAX_SHARE * cost.size
        live = band.cells is not None and band.cells.base is x
        assert (theta - slack > 0.0) == due and live == (due and fits) == kept, k
        assert band.last is x and fits == (cells.size <= solvers._BAND_MAX_SHARE * cost.size), k
        if fits:
            assert np.array_equal(got, cells), k
        if kept:
            assert np.array_equal(np.arange(60).repeat(band.cells.counts) * 60 + band.cells.cols, cells)
        band.write()
        with np.errstate(invalid="ignore"):
            plan = recover_plan(p, cost, 10.0)
            rf, rg = marginal_residuals(plan, mu, nu)
        for a, b in ((band.plan, plan), (f, rf), (g, rg)):
            assert a.tobytes() == b.tobytes(), k
    assert np.count_nonzero(np.isnan(plan)) == 60  # the NaN row's


def test_band_past_its_share_is_not_kept(rng, monkeypatch):
    # a move whose reach takes in every cell of rows 100 on: the selection
    # passes _BAND_MAX_SHARE in the sweep's second block, so no band is
    # kept, the sweep gathers no cell of the third, and the plan and the
    # residuals are the dense ones bit for bit
    from qrot import dual, solvers

    m = 400
    rows = dual._BLOCK_CELLS // m  # rows per block
    n = 3 * rows
    mu, nu = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    c = rng.uniform(0.0, 0.1, (n, m))
    far = DualPotentials(np.where(np.arange(n) < 100, -100.0, 0.0), np.zeros(m))
    band = support_band(c, 1.0, mu, nu, far)
    recovered(band, far)
    gathered = []

    def recorded(*args, **kwargs):
        result = recover_plan(*args, **kwargs)
        gathered.append(result[1].size)
        return result

    monkeypatch.setattr(solvers, "recover_plan", recorded)
    p = DualPotentials(far.alpha + 0.01, far.beta)  # a reach of 0.32: all of rows 100 on, none before
    f, g = recovered(band, p)
    assert band.cells is None and band.values is band.plan
    assert gathered == [(2 * rows - 100) * m]  # the first two blocks' cells, none of the third
    assert (rows - 100) * m <= solvers._BAND_MAX_SHARE * n * m < gathered[0]
    plan = recover_plan(p, c, 1.0)
    rf, rg = marginal_residuals(plan, mu, nu)
    assert np.array_equal(band.plan, plan) and np.array_equal(f, rf) and np.array_equal(g, rg)


def count_band_recoveries(monkeypatch):
    """Route ``_SupportBand.recover`` through a counter; returns the
    one-element list that holds the count."""
    count = [0]
    recover = _SupportBand.recover

    def counted(band, pot):
        count[0] += 1
        return recover(band, pot)

    monkeypatch.setattr(_SupportBand, "recover", counted)
    return count


@pytest.mark.parametrize("gamma, n, tol, max_iters", [
    (1.0, 150, 1e-3, 100_000),  # to tolerance
    (1.0, 150, 1e-300, 60),  # at the cap
    (2.0, 300, 1e-3, 100_000),  # the band live on most iterations
    (10.0, 100, 1e-5, 100_000),  # the stock problem, 1,165 iterations
])
def test_nesterov_certified_iterations_change_nothing(gamma, n, tol, max_iters, monkeypatch):
    # history at every iteration recovers every current point; with history
    # off most iterations certify their violation instead, and the solve
    # must stop at the same iteration with the same plan and potentials
    mu, nu, c = realize_problem(default_problem("squared", gamma, n))
    recoveries = count_band_recoveries(monkeypatch)
    reps, counts = [], []
    for record in (False, True):
        recoveries[0] = 0
        reps.append(solve(mu, nu, c, SolverConfig(gamma=gamma, algorithm=Algorithm.NESTEROV, tol=tol,
                                                  max_iters=max_iters, record_history=record, history_stride=1)))
        counts.append(recoveries[0])
    off, every = reps
    assert (off.iterations, off.converged) == (every.iterations, every.converged)
    assert off.converged == (tol > 1e-300) and len(every.history) == every.iterations
    assert np.array_equal(off.final_plan, every.final_plan)
    assert np.array_equal(off.final_potentials.alpha, every.final_potentials.alpha)
    assert np.array_equal(off.final_potentials.beta, every.final_potentials.beta)
    # where every point is recovered, two recoveries per iteration: the
    # extrapolated point (the start at the first) and the current one
    assert counts[1] == 2 * every.iterations, counts


def test_nesterov_recovers_its_current_point_only_where_needed(monkeypatch):
    # with history off, the recovery at the current point is left out
    # wherever the extrapolated point's residuals certify a violation above
    # tol: on the stock n=100 problem about 1.1 recoveries an iteration
    # remain, against 2 when every current point is recovered
    mu, nu, c = realize_problem(default_problem("squared", 10.0, 100))
    recoveries = count_band_recoveries(monkeypatch)
    rep = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-5,
                                        record_history=False))
    assert rep.iterations == 1165
    assert recoveries[0] <= 1.15 * rep.iterations, recoveries[0]


def test_certified_violation_bounds_the_recovered_one(rng):
    # random walks on a live band: recover at q, then certify a nearby p
    # against tolerances around the violation at p.  Any bound returned
    # must be at most the violation the recovery at p computes and above
    # tol, so the dense violation at p is above tol too; and moves of
    # every size, the zero move included, must each leave some tol that
    # the bound proves
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=60))
    mu, nu = mu.w, nu.w
    start = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-3,
                                          record_history=False)).final_potentials
    steps = (0.0, 1e-12, 1e-9, 1e-7, 1e-6)
    shifts = (-0.5, -1e-2, -1e-4, -1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6, 1e-3)
    proved = dict.fromkeys(steps, 0)
    for walk in range(3):
        band = support_band(c, 10.0, mu, nu, start)
        q = start
        for k in range(60):
            q = DualPotentials(q.alpha + 1e-6 * rng.standard_normal(q.alpha.size),
                               q.beta + 1e-6 * rng.standard_normal(q.beta.size))
            xq = np.concatenate(q)
            band.recover(xq)
            if band.cells is None:
                continue
            step = steps[k % len(steps)]
            p = DualPotentials(q.alpha + step * rng.standard_normal(q.alpha.size),
                               q.beta + step * rng.standard_normal(q.beta.size))
            xp = np.concatenate(p)
            dense = max_violation(recover_plan(p, c, 10.0), mu, nu)
            cells, bounds = band.cells, []
            for shift in shifts:
                tol = dense * (1.0 + shift)
                bound = band.certify(xp, tol)
                if bound is not None:
                    assert bound > tol and dense > tol, (walk, k, shift)
                    assert band.last is xp and band.certify(xp, 0.0) is None, (walk, k)  # res is q's
                    bounds.append(bound)
                    proved[step] += 1
                    band.recover(xq)
                assert band.cells is cells, (walk, k)
            band.recover(xp)  # banded: certify held p within the budget
            if bounds:
                assert band.cells is cells and max(bounds) <= np.abs(band.res).max(), (walk, k)
    assert all(proved.values()), proved

    # potentials that are not finite never certify, nor change the band
    band = support_band(c, 10.0, mu, nu, start)
    recovered(band, start)
    recovered(band, DualPotentials(start.alpha + 1e-7, start.beta))
    assert band.cells is not None
    last = band.last
    for bad in (np.nan, np.inf, -np.inf):
        alpha = start.alpha.copy()
        alpha[3] = bad
        with np.errstate(invalid="ignore"):
            assert band.certify(np.concatenate((alpha, start.beta)), 0.0) is None, bad
        assert band.last is last, bad


def test_certified_violation_is_tight_where_every_cell_moves_by_the_full_drift():
    # the band is the four 2 x 2 diagonal blocks of an 8 x 8 cost, so each
    # row and column holds K = 2 band cells, all positive.  Lowering every
    # alpha by d lowers each band cell by d / gamma and each row and column
    # sum by K d / gamma, the most the bound allows: a bound half as wide
    # would certify a tol that the violation at p stays below
    n, gamma, d = 8, 1.0, 0.1
    block = np.arange(n) // 2
    c = np.where(block[:, None] == block[None, :], 0.0, 100.0)
    mu = nu = np.ones(n)
    start = DualPotentials(np.full(n, 0.49), np.full(n, 0.5))
    band = support_band(c, gamma, mu, nu, start)
    recovered(band, start)
    recovered(band, DualPotentials(np.full(n, 0.5), np.full(n, 0.5)))  # selects the band, of reach 0.32
    assert band.cells is not None and band.cells.cols.size == 16 and band.cells.width == 2.0
    assert np.abs(band.res).max() == 1.0  # rows and columns sum to 2
    # past the drift budget a recovery would rebuild the band, so no bound
    # stands in for it, sound as it would be
    assert band.certify(np.r_[np.full(n, 0.1), np.full(n, 0.5)], 0.1) is None
    p = DualPotentials(np.full(n, 0.5 - d), np.full(n, 0.5))
    x = np.concatenate(p)
    violation = 1.0 - 2.0 * d  # rows and columns sum to 2 (1 - d)
    assert band.certify(x, violation * (1.0 + 1e-12)) is None
    bound = band.certify(x, violation * (1.0 - 1e-12))
    assert bound is not None and violation * (1.0 - 1e-12) < bound <= violation
    band.recover(x)
    assert np.abs(band.res).max() == pytest.approx(violation, rel=1e-15)
    assert np.array_equal(recover_plan(p, c, gamma), np.where(c == 0.0, 1.0 - d, 0.0))



def test_nesterov_peak_memory_is_one_plan_buffer():
    # Nesterov recovers its extrapolated and its current point into the one
    # buffer the band owns, so its traced peak is that of fixed point
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=300))
    peaks = {}
    for alg in (Algorithm.FIXED_POINT, Algorithm.NESTEROV):
        config = SolverConfig(gamma=10.0, algorithm=alg, tol=1e-300, max_iters=60, record_history=False)
        tracemalloc.start()
        try:
            solve(mu, nu, c, config)
            peaks[alg] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[Algorithm.NESTEROV] - peaks[Algorithm.FIXED_POINT] < c.nbytes / 2, (peaks, c.nbytes)


def assert_matches_reference(rep, reference, what, rel=1e-12):
    """``rep`` stops where the plain loop ``reference`` stops, and its plan,
    potentials and history columns are within ``rel`` of the loop's."""
    iters, converged, plan, pot, rows = reference
    assert (rep.iterations, rep.converged) == (iters, converged), what

    def close(a, b):
        return np.abs(np.subtract(a, b)).max() <= rel * np.abs(b).max()

    assert close(rep.final_plan, plan), what
    assert close(rep.final_potentials.alpha, pot.alpha) and close(rep.final_potentials.beta, pot.beta), what
    assert [r.iteration for r in rep.history] == [row[0] for row in rows], what
    for r, row in zip(rep.history, rows):
        assert all(close(x, y) for x, y in zip((r.max_violation, r.dual_objective, r.primal_objective), row[1:])), what


def test_solve_with_support_band_matches_reference(monkeypatch):
    # at n=150 and gamma 1 the plan is sparse and the band engages: far
    # fewer dense recoveries than iterations, the plain loop's iteration
    # count, and its plans, potentials and history within 1e-12
    mu, nu, c = realize_problem(default_problem("squared", 1.0, n=150))
    dense = count_dense_recoveries(monkeypatch)
    for alg in DUAL_ALGORITHMS:
        for tol, max_iters, history in ((1e-300, 60, 1), (1e-3, 100_000, None)):
            config = SolverConfig(gamma=1.0, algorithm=alg, tol=tol, max_iters=max_iters,
                                  record_history=history is not None, history_stride=history or 1)
            dense[0] = 0
            rep = solve(mu, nu, c, config)
            assert dense[0] < rep.iterations / 2, (alg, tol, dense[0], rep.iterations)
            assert rep.converged == (tol > 1e-300)
            assert_matches_reference(rep, reference_dual_solve(mu, nu, c, config), (alg, tol))


def test_band_writes_the_plan_where_a_run_returns_it(monkeypatch):
    # a banded recovery leaves the plan buffer stale until the run returns it, so
    # a run that converges between history rows, or with history off, must
    # still write its last plan; so must a run that stops at the cap.  None
    # of these runs ends on a history row of stride 7
    mu, nu, c = realize_problem(default_problem("squared", 1.0, n=150))
    dense = count_dense_recoveries(monkeypatch)
    for alg in DUAL_ALGORITHMS:
        for tol, max_iters, history in ((1e-3, 100_000, None), (1e-3, 100_000, 7), (1e-300, 60, None)):
            config = SolverConfig(gamma=1.0, algorithm=alg, tol=tol, max_iters=max_iters,
                                  record_history=history is not None, history_stride=history or 1)
            dense[0] = 0
            rep = solve(mu, nu, c, config)
            assert dense[0] < rep.iterations / 2, (alg, tol, dense[0], rep.iterations)
            assert rep.converged == (tol > 1e-300) and rep.iterations % 7, (alg, rep.iterations)
            assert np.array_equal(rep.final_plan, recover_plan(rep.final_potentials, c, 1.0)), (alg, tol, history)


def test_history_rows_scatter_nothing(monkeypatch):
    # a history row reads the band's values, not the plan buffer, so a run
    # with a row at every iteration scatters the band into the buffer at most
    # once, where it returns the plan, and that plan is still the recovery at
    # the final potentials
    mu, nu, c = realize_problem(default_problem("squared", 1.0, n=150))
    dense = count_dense_recoveries(monkeypatch)
    writes = [0]
    write = _SupportBand.write

    def counted(band):
        writes[0] += 1
        return write(band)

    monkeypatch.setattr(_SupportBand, "write", counted)
    for alg in DUAL_ALGORITHMS:
        for tol, max_iters in ((1e-3, 100_000), (1e-300, 60)):  # to tolerance, and at the cap
            config = SolverConfig(gamma=1.0, algorithm=alg, tol=tol, max_iters=max_iters, history_stride=1)
            dense[0] = writes[0] = 0
            rep = solve(mu, nu, c, config)
            assert rep.converged == (tol > 1e-300) and len(rep.history) == rep.iterations, (alg, tol)
            assert dense[0] < rep.iterations / 2, (alg, tol, dense[0], rep.iterations)
            assert writes[0] <= 1, (alg, tol, writes[0])
            assert np.array_equal(rep.final_plan, recover_plan(rep.final_potentials, c, 1.0)), (alg, tol)


def test_unchecked_objectives_are_the_public_ones_bit_for_bit(rng):
    # a history row takes dual_value and primal_objective in unchecked
    # arithmetic of its own, over the values of the last recovery.  The row
    # of a first iteration comes from a dense recovery (a first call keeps
    # no band, so that iteration's is dense), and on a cost with negative
    # entries its plan is not zero; its objectives must be the public
    # functions' of the run's plan and potentials, bit for bit.  The row's
    # dot products, by _dot, must be vdot's: on the halves of the potentials
    # end to end, on a band's values at and around DOT_CHUNK, and on a dense
    # call's 2-D plan
    for n, m in ((3, 4), (41, 25), (120, 100)):  # the last plan has more than DOT_CHUNK cells
        mu, nu, c = random_instance(rng, n, m)
        c -= 0.5
        gamma = float(rng.uniform(0.1, 10.0))
        for alg in DUAL_ALGORITHMS:
            config = SolverConfig(gamma=gamma, algorithm=alg, tol=1e-300, max_iters=1, history_stride=1)
            rep = solve(mu, nu, c, config)
            [row], plan, pot = rep.history, rep.final_plan, rep.final_potentials
            assert plan.any(), (n, alg)
            assert row.dual_objective == dual_value(pot, c, gamma, mu, nu), (n, alg)
            assert row.primal_objective == primal_objective(plan, c, gamma), (n, alg)
        pot = DualPotentials(rng.standard_normal(n), rng.standard_normal(m))
        plan = recover_plan(pot, c, gamma)
        x = np.concatenate(pot)
        assert _dot(x[:n], mu) == vdot(pot.alpha, mu) and _dot(x[n:], nu) == vdot(pot.beta, nu)
        assert _dot(plan, plan) == vdot(plan, plan) and _dot(c, plan) == vdot(c, plan)
    for size in (DOT_CHUNK - 1, DOT_CHUNK, DOT_CHUNK + 1):
        values, cost = rng.lognormal(0.0, 2.0, size), rng.uniform(0.0, 1.0, size)
        for a, b in ((values, values), (cost, values)):
            assert type(_dot(a, b)) is float and _dot(a, b) == vdot(a, b), size


def test_support_band_keeps_fewer_than_30_attributes(rng):
    # CPython 3.11 shares one key table among a class's instances for at
    # most 30 keys; an instance with more reads every attribute through a
    # slower path (a three-attribute method went from 36 to 39 ns at 30
    # attributes, CHANGES.md), and the band is read many times an iteration
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=60))
    mu, nu = mu.w, nu.w
    start = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-3,
                                          record_history=False)).final_potentials
    band = support_band(c, 10.0, mu, nu, start)
    recovered(band, DualPotentials(start.alpha + 1e-6 * rng.standard_normal(60), start.beta))
    recovered(band, DualPotentials(start.alpha, start.beta + 1e-8))
    assert band.cells is not None and band.values is not band.plan  # a live band, and a banded call
    assert len(vars(band)) < 30, sorted(vars(band))


def test_a_dropped_band_leaves_none_of_its_arrays_referenced():
    # the live band is one record, which recover drops in one assignment: a
    # move that makes every cell positive selects them all, too many to
    # keep, and once that call returns the band holds no array of the old
    # band, nor the values of its last banded call
    mu, nu, c = realize_problem(default_problem("squared", 10.0, n=60))
    mu, nu = mu.w, nu.w
    start = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-3,
                                          record_history=False)).final_potentials
    band = support_band(c, 10.0, mu, nu, start)
    recovered(band, start)
    recovered(band, DualPotentials(start.alpha + 1e-7, start.beta))  # selects a band
    recovered(band, DualPotentials(start.alpha + 2e-7, start.beta))  # a banded call
    assert band.cells is not None and band.values is not band.plan and band.values_cost is band.cells.cost
    refs = [weakref.ref(a) for a in (*band.cells, band.values) if isinstance(a, np.ndarray)]
    assert len(refs) == 7  # base, cols, counts, cost, rows, starts and the values
    lift = 1.0 - (start.alpha[:, None] + start.beta - c).min()
    wide = DualPotentials(start.alpha + lift, start.beta)
    assert (recover_plan(wide, c, 10.0) > 0.0).all()
    recovered(band, wide)
    assert band.cells is None and band.values is band.plan and band.values_cost is c
    assert [ref() for ref in refs] == [None] * 7


def test_history_rows_over_a_live_band_do_not_depend_on_the_blas_thread_count():
    # at n=1000 the band holds tens of thousands of cells, which OpenBLAS
    # would split over its threads in one np.vdot; the history rows taken
    # over the band's values must have the same bits on any CPU count
    script = (
        "from qrot import Algorithm, SolverConfig, recover_plan, solve, solvers\n"
        "from qrot.fileio import default_problem, realize_problem\n"
        "dense = [0]\n"
        "def counted(*args, **kwargs):\n"
        "    dense[0] += 1\n"
        "    return recover_plan(*args, **kwargs)\n"
        "solvers.recover_plan = counted\n"
        "mu, nu, c = realize_problem(default_problem('squared', 10.0, n=1000))\n"
        "config = SolverConfig(gamma=10.0, algorithm=Algorithm.NESTEROV, tol=1e-12, max_iters=50, history_stride=1)\n"
        "rep = solve(mu, nu, c, config)\n"
        "print(dense[0])\n"
        "for r in rep.history:\n"
        "    print(r.dual_objective.hex(), r.primal_objective.hex())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    dense, rows = int(outputs[0][0]), outputs[0][1:]
    assert len(rows) == 50 and dense <= 10, (len(rows), dense)  # most of the 101 recoveries are banded
    assert outputs[0] == outputs[1]


def test_bincount_column_sums_are_numpy_axis0_sums(rng):
    # the band's column sums rest on this: bincount over the nonzero entries
    # of a C-contiguous plan, in row-major order, is numpy's axis-0 sum bit
    # for bit.  A numpy that sums axis 0 in another order fails here.
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(50, 400, 2))
        plan = np.where(rng.random((n, m)) < 0.1, rng.lognormal(0.0, 4.0, (n, m)), 0.0)
        idx = np.flatnonzero(plan)
        cols, vals = (idx % m).astype(np.intp, copy=False), plan.reshape(-1)[idx]  # as the band keeps them
        assert np.array_equal(np.bincount(cols, weights=vals, minlength=m), plan.sum(axis=0))
    # the check has power: the same terms added bottom-up round differently
    assert not np.array_equal(np.bincount(cols[::-1], weights=vals[::-1], minlength=m), plan.sum(axis=0))


def banded_plan(rng, n, m):
    """A random plan whose nonzeros lie on a band: each row has a window of
    columns, drifting along the row index, in which some cells are positive.
    Returns the plan, the band's column indices in row-major order, and its
    per-row counts; some band cells are zero, and some rows have no band."""
    width = max(1, int(rng.integers(1, max(2, m // 3))))
    starts = (np.linspace(0, m - width, n) + rng.integers(-width, width + 1, n)).clip(0, m - width).astype(int)
    band = np.zeros((n, m), bool)
    for i, j0 in enumerate(starts):
        if rng.random() > 0.1:
            band[i, j0 : j0 + int(rng.integers(1, width + 1))] = True
    plan = np.where(band & (rng.random((n, m)) < 0.8), rng.lognormal(0.0, 4.0, (n, m)), 0.0)
    idx = np.flatnonzero(band)
    return plan, (idx % m).astype(np.intp, copy=False), band.sum(axis=1)  # columns as the band keeps them


def test_reduceat_row_sums_of_banded_plans_are_within_the_bound(rng):
    # the band's row sums rest on this: np.add.reduceat over the band's
    # values in row-major order, one run per row with a band cell, is
    # plan.sum(axis=1) within (M - 1) eps of the row sum, and a row without
    # a band cell sums to exactly 0.0
    for m in [1, 3, 7, 8, 100, 127, 128, 129, 255, 300, 1003, 4097] + [int(w) for w in rng.integers(2, 2000, 8)]:
        for n in (1, 9, 40):
            plan, cols, counts = banded_plan(rng, n, m)
            vals = plan[np.repeat(np.arange(n), counts), cols]
            rows = np.flatnonzero(counts)
            row = np.zeros(n)
            if rows.size:
                row[rows] = np.add.reduceat(vals, (np.cumsum(counts) - counts)[rows])
            assert (np.abs(row - plan.sum(axis=1)) <= row_sum_bound(plan)).all(), (m, n)
            assert not row[counts == 0].any(), (m, n)


def test_solve_with_band_live_on_most_iterations_matches_reference(monkeypatch):
    # at n=300 and gamma 2 the band is live on most iterations
    mu, nu, c = realize_problem(default_problem("squared", 2.0, n=300))
    dense = count_dense_recoveries(monkeypatch)
    for alg in DUAL_ALGORITHMS:
        config = SolverConfig(gamma=2.0, algorithm=alg, tol=1e-300, max_iters=100, history_stride=1)
        dense[0] = 0
        rep = solve(mu, nu, c, config)
        assert dense[0] < rep.iterations / 2, (alg, dense[0])
        assert rep.iterations == 100 and not rep.converged, alg
        assert_matches_reference(rep, reference_dual_solve(mu, nu, c, config), alg)


def test_empty_support_band_gives_a_zero_plan(rng, monkeypatch):
    # costs near 900 leave no cell within reach of small moves from zero
    # potentials, so the band that goes live holds no cell at all: the plan
    # is all zero and the residuals are exactly (-mu, -nu), as dense.  The
    # first call, at zero, knows its plan zero from min c and recovers none
    problem = ProblemFile(
        grid1=Grid1D(4, 0.0, 1.0),
        grid2=Grid1D(5, 30.0, 31.0),
        marginal1=MixtureSpec(((0.5, 0.3, 0.12), (0.5, 0.7, 0.12))),
        marginal2=MixtureSpec(((1.0, 30.5, 0.2),)),
        cost="squared",
        gamma=1.0,
    )
    mu, nu, c = realize_problem(problem)
    mu, nu = mu.w, nu.w
    dense = count_dense_recoveries(monkeypatch)
    pot = zeros(4, 5)
    band = support_band(c, 1.0, mu, nu, pot)
    for k in range(6):
        f, g = recovered(band, pot)
        plan = recover_plan(pot, c, 1.0)
        rf, rg = marginal_residuals(plan, mu, nu)
        band.write()
        assert np.array_equal(band.plan, plan) and not plan.any(), k
        assert np.array_equal(f, rf) and np.array_equal(g, rg), k
        assert np.array_equal(f, -mu) and np.array_equal(g, -nu), k
        assert (band.cells is not None) == (k > 0) and (k == 0 or band.cells.cols.size == 0), k
        pot = DualPotentials(pot.alpha + 1e-3 * rng.standard_normal(4), pot.beta + 1e-3 * rng.standard_normal(5))
    assert dense[0] == 1  # the second call, which selected the band


@pytest.mark.parametrize("gamma", [0.003, 10.0])
def test_dual_runs_are_the_same_with_tiles_on_and_off(gamma, monkeypatch):
    # at n=800 the dense sweep has ten blocks, and every dense recovery of
    # these runs skips tiles whose least cost proves them zero; taking the
    # tiles away changes no plan, potentials, history row, iteration count
    # or number of dense recoveries
    mu, nu, c = realize_problem(default_problem(cost="squared", gamma=gamma, n=800))
    runs = {}
    for on in (True, False):
        dense, skipping = [0], [0]

        def counted(pot, c, gamma, out=None, tiles=None, **kwargs):
            dense[0] += 1
            got = recover_plan(pot, c, gamma, out=out, tiles=tiles if on else None, **kwargs)
            skipping[0] += on and any(span != (0, c.shape[1]) for span in tiles[1])
            return got

        monkeypatch.setattr("qrot.solvers.recover_plan", counted)
        for alg in DUAL_ALGORITHMS:
            dense[0] = skipping[0] = 0
            config = SolverConfig(gamma=gamma, algorithm=alg, tol=3e-4, max_iters=700, history_stride=100)
            rep = solve(mu, nu, c, config)
            runs[on, alg] = (
                rep.iterations, rep.converged, rep.final_plan.tobytes(), rep.final_potentials.alpha.tobytes(),
                rep.final_potentials.beta.tobytes(), [tuple(r)[:5] for r in rep.history], dense[0],
            )
            assert skipping[0] == (dense[0] if on else 0) and dense[0] > 10, (alg, dense, skipping)
    for alg in DUAL_ALGORITHMS:
        assert runs[True, alg] == runs[False, alg], alg


def test_divergence_with_support_band_live_matches_reference(monkeypatch):
    # all the mass sits on a 10 x 10 block of negative cost in a 40 x 40
    # problem scaled near the float range.  A tau above the block's
    # stability limit 2 / 20 makes the potentials oscillate with growing
    # amplitude until they overflow, while the band carries most recoveries.
    # Where an overflow lands depends on the order of a sum, so the band's
    # run and the plain loop may diverge an iteration apart; the run is
    # finite up to the iteration it reports, and the plain loop diverges too
    scale, n, b = 1e308, 40, 10
    c = np.full((n, n), 1.5 * scale)
    c[:b, :b] = -scale
    mu, nu = np.zeros(n), np.zeros(n)
    mu[:b] = 10.0 + 1e-3 * (np.arange(b) - 4.5)  # 100 in all, as the block's plan at zero
    nu[:b] = mu[b - 1 :: -1]
    dense = count_dense_recoveries(monkeypatch)
    for alg, tau in ((Algorithm.DUAL_GRADIENT, 0.12), (Algorithm.NESTEROV, 0.1)):
        def config(max_iters, record=False):
            return SolverConfig(gamma=scale, algorithm=alg, tol=1e-300, max_iters=max_iters, tau=tau,
                                record_history=record)

        dense[0] = 0
        with pytest.raises(DivergenceError) as err:
            solve(mu, nu, c, config(1000))
        it = err.value.iteration
        assert 10 < it < 1000 and dense[0] < it / 2, (alg, it, dense[0])
        # with history at every iteration, where Nesterov recovers every
        # current point, each method diverges at the same iteration
        with pytest.raises(DivergenceError) as err:
            solve(mu, nu, c, config(1000, record=True))
        assert err.value.iteration == it, (alg, err.value.iteration, it)

        rep = solve(mu, nu, c, config(it - 1))  # no non-finite iterate masked, none reported early
        pot = rep.final_potentials
        with np.errstate(all="ignore"):
            viol = max_violation(rep.final_plan, mu, nu)
        assert rep.iterations == it - 1 and np.isfinite(viol), alg
        assert np.isfinite(pot.alpha).all() and np.isfinite(pot.beta).all(), alg

        with np.errstate(all="ignore"):
            *_, plan, pot, _ = reference_dual_solve(mu, nu, c, config(1000))
            viol = max_violation(plan, mu, nu)
        assert not (np.isfinite(viol) and np.isfinite(pot.alpha).all() and np.isfinite(pot.beta).all()), alg


def reference_sinkhorn(mu, nu, c, gamma, tol, max_iters, history_stride=None):
    """Sinkhorn with the plan built and tested every iteration.  Returns
    (iterations, converged, plan, violation per iteration, potentials, rows)
    with potentials ``gamma (log u + 1/2)`` and, when ``history_stride`` is
    given, rows (iteration, violation, dual, primal) from the entropic
    identity: with ``mass = gamma sum pi``, the dual is
    ``<alpha, mu> + <beta, nu> - mass`` and the primal
    ``<alpha, pi 1> + <beta, pi.T 1> - mass``."""
    K = np.exp(-c / gamma)
    u, v = np.ones(mu.size), np.ones(nu.size)
    viols, rows = [], []
    for it in range(1, max_iters + 1):
        u, v = sinkhorn_step(u, v, K, mu, nu)
        alpha, beta = gamma * (np.log(u) + 0.5), gamma * (np.log(v) + 0.5)
        plan = sinkhorn_plan(u, v, K)
        viols.append(max_violation(plan, mu, nu))
        converged = viols[-1] <= tol
        if history_stride and (converged or it == max_iters or it % history_stride == 0):
            mass = gamma * plan.sum()
            rows.append((it, viols[-1], float(alpha @ mu + beta @ nu - mass),
                         float(alpha @ plan.sum(axis=1) + beta @ plan.sum(axis=0) - mass)))
        if converged:
            return it, True, plan, viols, DualPotentials(alpha, beta), rows
    return max_iters, False, plan, viols, DualPotentials(alpha, beta), rows


def test_sinkhorn_stopping_matches_plan_every_iteration(rng, monkeypatch):
    built = []

    def counted(u, v, K, out=None):
        built.append(1)
        return sinkhorn_plan(u, v, K, out=out)

    monkeypatch.setattr("qrot.solvers.sinkhorn_plan", counted)
    cases = (  # (tol, max_iters, history stride or None)
        (1e-9, 20_000, None),
        (1e-9, 20_000, 7),
        (1e-9, 60, None),  # cap reached before tol
        (1e-300, 300, None),  # tol out of reach
    )
    for k in range(3):
        mu, nu, c = random_instance(rng, 30, 40)
        c = 5.0 * c
        # just below the violation of iteration 50: the estimate lands within
        # its rounding margin of tol there, and the plan must overrule it
        edge = np.nextafter(reference_sinkhorn(mu, nu, c, 0.05, 0.0, 50)[3][-1], 0.0)
        for tol, max_iters, stride in cases + ((edge, 20_000, None),):
            built.clear()
            config = SolverConfig(gamma=0.05, algorithm=Algorithm.SINKHORN, tol=tol, max_iters=max_iters,
                                  record_history=stride is not None, history_stride=stride or 1)
            rep = solve(mu, nu, c, config)
            iters, converged, plan, _, pot, rows = reference_sinkhorn(mu, nu, c, 0.05, tol, max_iters, stride)
            assert (rep.iterations, rep.converged) == (iters, converged), (k, tol, max_iters, stride)
            assert np.array_equal(rep.final_plan, plan)
            assert np.array_equal(rep.final_potentials.alpha, pot.alpha)
            assert np.array_equal(rep.final_potentials.beta, pot.beta)
            assert [tuple(r)[:2] + (r.dual_objective, r.primal_objective) for r in rep.history] == rows
            if rep.converged:
                assert max_violation(rep.final_plan, mu, nu) <= tol
            if stride is None:  # the plan is built near the end only, not every iteration
                assert 1 <= len(built) <= 3
            if tol == edge:
                assert iters > 50 and len(built) >= 2


def test_sinkhorn_stopping_test_feeds_next_sweep(rng, monkeypatch):
    # each sweep is handed the K v of the previous iteration's stopping test,
    # except the first and those after a due plan, where there is no test
    fed = []  # per sweep: None if no K v was given, else whether it is K @ v

    def step(u, v, K, mu, nu, Kv=None):
        fed.append(None if Kv is None else np.array_equal(Kv, K @ v))
        return sinkhorn_step(u, v, K, mu, nu, Kv=Kv)

    monkeypatch.setattr("qrot.solvers.sinkhorn_step", step)
    mu, nu, c = random_instance(rng, 30, 40)
    for stride in (None, 7):
        fed.clear()
        config = SolverConfig(gamma=0.05, algorithm=Algorithm.SINKHORN, tol=1e-9, max_iters=20_000,
                              record_history=stride is not None, history_stride=stride or 1)
        rep = solve(mu, nu, 5.0 * c, config)
        assert rep.converged and len(fed) == rep.iterations > 50
        after_due = [it + 1 for it in range(stride, rep.iterations, stride)] if stride else []
        assert [k for k, f in enumerate(fed, 1) if f is None] == [1] + after_due
        assert False not in fed


def test_sinkhorn_history_primal_matches_direct_formula(rng):
    # pi log pi summed directly, with underflowed (zero) plan entries present
    for k in range(4):
        n, m = 8 + k, 10 - k
        x = np.r_[0.0, np.sort(rng.uniform(0, 1, n - 2)), 1.0]
        y = np.r_[0.0, np.sort(rng.uniform(0, 1, m - 2)), 1.0]
        c = (x[:, None] - y[None, :]) ** 2  # exp(-1 / gamma) underflows for gamma < 1/745
        mu, nu, _ = random_instance(rng, n, m)
        gamma = [1e-3, 1.2e-3, 0.05, 0.5][k]
        for max_iters in (1, 5, 50):
            rep = solve(mu, nu, c, SolverConfig(gamma=gamma, algorithm=Algorithm.SINKHORN, tol=1e-300,
                                                max_iters=max_iters))
            plan = rep.final_plan
            direct = float((c * plan).sum() + gamma * Entropy().value(plan).sum())
            assert abs(rep.history[-1].primal_objective - direct) <= 1e-12 * abs(direct)
        if gamma < 0.01:
            assert (plan == 0).any()
