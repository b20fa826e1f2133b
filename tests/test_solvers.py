import numpy as np
import pytest

from conftest import random_instance
from qrot import (
    Algorithm,
    CyclicProjectionState,
    DivergenceError,
    DualPotentials,
    Entropy,
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
from qrot.dual import dual_value
from qrot.fileio import default_problem, realize_problem

C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
HALF = np.array([0.5, 0.5])

DUAL_ALGORITHMS = (
    Algorithm.CYCLIC_PROJECTION,
    Algorithm.DUAL_GRADIENT,
    Algorithm.FIXED_POINT,
    Algorithm.NESTEROV,
)


def zeros_state(n, m):
    return CyclicProjectionState(np.zeros((n, m)), DualPotentials(np.zeros(n), np.zeros(m)))


def test_cyclic_projection_hand_iteration():
    st = cyclic_projection_step(zeros_state(2, 2), C2, 1.0, HALF, HALF)
    assert np.allclose(st.rho, C2)
    assert np.allclose(st.potentials.alpha, [0.25, 0.25])
    assert np.allclose(st.potentials.beta, [0.0, 0.0])

    st = cyclic_projection_step(st, C2, 1.0, HALF, HALF)
    assert np.allclose(st.potentials.alpha, [0.375, 0.375])
    assert np.allclose(st.potentials.beta, [0.0, 0.0])


def test_cyclic_projection_fixed_at_optimum_any_gauge():
    for shift in (0.0, 0.25):
        p = DualPotentials(np.array([0.25 + shift] * 2), np.array([0.25 - shift] * 2))
        st = cyclic_projection_step(CyclicProjectionState(np.zeros((2, 2)), p), C2, 1.0, HALF, HALF)
        assert np.abs(st.potentials.alpha - p.alpha).max() < 1e-12
        assert np.abs(st.potentials.beta - p.beta).max() < 1e-12


def test_cyclic_projection_one_cell():
    st = cyclic_projection_step(zeros_state(1, 1), np.zeros((1, 1)), 1.0, [1.0], [1.0])
    assert np.allclose(st.potentials.alpha, [1.0])
    assert np.allclose(st.potentials.beta, [0.0])
    assert max_violation(recover_plan(st.potentials, np.zeros((1, 1)), 1.0), [1.0], [1.0]) == 0.0


def test_cyclic_projection_slack_stays_nonnegative(rng):
    mu, nu, c = random_instance(rng)
    st = zeros_state(mu.size, nu.size)
    for _ in range(30):
        st = cyclic_projection_step(st, c, 1.0, mu, nu)
        assert (st.rho >= 0).all()


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
        st = zeros_state(n, m)
        fp = st.potentials
        for _ in range(2000):
            rho, alpha, beta = textbook_sweep(alpha, beta, c, gamma, mu, nu)
            st = cyclic_projection_step(st, c, gamma, mu, nu)
            fp = fixed_point_step(fp, c, gamma, mu, nu)
            assert np.abs(st.rho - rho).max() <= 1e-12
            plan = recover_plan(DualPotentials(alpha, beta), c, gamma)
            assert np.abs(recover_plan(st.potentials, c, gamma) - plan).max() <= 1e-12
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
        n, m = mu.size, nu.size
        moved = []
        st = cyclic_projection_step(CyclicProjectionState(np.zeros((n, m)), pot), c, gamma, mu, nu)
        moved.append((st.potentials.alpha - pot.alpha, st.potentials.beta - pot.beta))
        for p in (
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
        if alg is Algorithm.CYCLIC_PROJECTION:
            states = [CyclicProjectionState(np.zeros((n, m)), p) for p in states]
        elif alg is Algorithm.NESTEROV:
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
            pots = [
                s.potentials if alg is Algorithm.CYCLIC_PROJECTION else (s.current if alg is Algorithm.NESTEROV else s)
                for s in states
            ]
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


def test_solve_divergence_detection():
    with pytest.raises(DivergenceError) as err:
        solve(HALF, HALF, C2, SolverConfig(gamma=1.0, algorithm=Algorithm.DUAL_GRADIENT, tau=1e200, max_iters=10))
    assert "dual_gradient" in str(err.value)
    assert err.value.iteration >= 1


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
            pot = cyclic_projection_step(CyclicProjectionState(np.zeros((n, m)), pot), c, gamma, mu, nu).potentials
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


def test_cyclic_projection_rho_formed_when_read(rng):
    mu, nu, c = random_instance(rng, 5, 6)
    old = DualPotentials(rng.normal(size=5), rng.normal(size=6))
    st = cyclic_projection_step(CyclicProjectionState(None, old), c, 1.0, mu, nu)
    expected = np.maximum(c - old.alpha[:, None] - old.beta[None, :], 0.0)
    assert np.array_equal(st.rho, expected)
