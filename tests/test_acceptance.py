"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv

import numpy as np
import pytest

from conftest import random_instance
from qrot import (
    Algorithm,
    Entropy,
    Grid1D,
    GridFunction,
    NesterovState,
    PPower,
    Quadratic,
    SolverConfig,
    cyclic_projection_step,
    dual_gradients,
    dual_objective,
    duality_gap,
    exact_solve,
    fixed_point_step,
    gradient_step,
    luxemburg_norm,
    marginal_contraction_check,
    max_violation,
    nesterov_step,
    preconditioner_apply,
    primal_objective,
    solve,
)
from qrot.cli import main
from qrot.fileio import ProblemFile, default_problem, realize_problem, save_problem
from qrot.problems import MixtureSpec

DUAL_ALGORITHMS = (
    Algorithm.CYCLIC_PROJECTION,
    Algorithm.DUAL_GRADIENT,
    Algorithm.FIXED_POINT,
    Algorithm.NESTEROV,
)

GAMMAS = (0.5, 1.0, 5.0)


def report(number, ok, detail=""):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def batch():
    """50 random tiny instances with the oracle solution and all four dual
    solvers run to tol 1e-9 (shared by criteria 1, 2, 3, 9)."""
    rng = np.random.default_rng(731)
    out = []
    for k in range(50):
        mu, nu, c = random_instance(rng)
        gamma = GAMMAS[k % 3]
        plan_star, pot_star = exact_solve(mu, nu, c, gamma)
        runs = {
            alg: solve(
                mu, nu, c,
                SolverConfig(gamma=gamma, algorithm=alg, tol=1e-9, max_iters=500_000,
                             record_history=False),
            )
            for alg in DUAL_ALGORITHMS
        }
        out.append((mu, nu, c, gamma, plan_star, pot_star, runs))
    return out


def test_criterion_1_oracle_equivalence(batch):
    worst = 0.0
    for mu, nu, c, gamma, plan_star, _, runs in batch:
        for alg, rep in runs.items():
            assert rep.converged, f"{alg} did not reach tol 1e-9"
            worst = max(worst, float(np.abs(rep.final_plan - plan_star).max()))
    report(1, worst <= 1e-6, f"worst plan discrepancy {worst:.3e} over {len(batch) * 4} runs")


def test_criterion_2_duality_gap_at_solutions(batch):
    worst = -np.inf
    for mu, nu, c, gamma, _, _, runs in batch:
        for rep in runs.values():
            gap = duality_gap(rep.final_potentials, rep.final_plan, c, gamma, mu, nu)
            bound = 1e-8 * (1.0 + abs(primal_objective(rep.final_plan, c, gamma)))
            worst = max(worst, gap - bound)
    report(2, worst <= 0.0, f"max excess over 1e-8*(1+|primal|): {worst:.3e}")


def test_criterion_3_fixed_point_lemma(batch):
    worst = 0.0
    for mu, nu, c, gamma, _, pot_star, _ in batch:
        stepped = [
            cyclic_projection_step(pot_star, c, gamma, mu, nu),
            gradient_step(pot_star, c, gamma, mu, nu),
            fixed_point_step(pot_star, c, gamma, mu, nu),
            nesterov_step(NesterovState(pot_star, pot_star, 4), c, gamma, mu, nu).current,
        ]
        for new in stepped:
            move = max(np.abs(new.alpha - pot_star.alpha).max(), np.abs(new.beta - pot_star.beta).max())
            worst = max(worst, float(move))
    report(3, worst < 1e-10, f"largest one-step movement of oracle potentials {worst:.3e}")


def test_criterion_4_gradient_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    checked = 0
    worst = 0.0
    while checked < 100:
        mu, nu, c = random_instance(rng)
        a = rng.normal(scale=0.5, size=mu.size)
        b = rng.normal(scale=0.5, size=nu.size)
        if np.abs(a[:, None] + b[None, :] - c).min() < 1e-4:
            continue  # keep clear of the kink
        checked += 1
        ga, gb = dual_gradients((a, b), c, 1.0, mu, nu)
        for i in range(a.size):
            ap, am = a.copy(), a.copy()
            ap[i] += h
            am[i] -= h
            fd = (dual_objective((ap, b), c, 1.0, mu, nu) - dual_objective((am, b), c, 1.0, mu, nu)) / (2 * h)
            worst = max(worst, abs(ga[i] - fd) / max(abs(fd), 1e-8))
        for j in range(b.size):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            fd = (dual_objective((a, bp), c, 1.0, mu, nu) - dual_objective((a, bm), c, 1.0, mu, nu)) / (2 * h)
            worst = max(worst, abs(gb[j] - fd) / max(abs(fd), 1e-8))
    report(4, worst <= 1e-5, f"worst relative gradient error {worst:.3e} on {checked} off-kink points")


def test_criterion_5_preconditioner_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        n, m = rng.integers(1, 21, size=2)
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        da, db = preconditioner_apply(f, g)
        top = m * (np.eye(n) + np.ones((n, n)) / n)
        bottom = n * (np.eye(m) + np.ones((m, m)) / m)
        back = np.concatenate([top @ da, bottom @ db])
        worst = max(worst, float(np.abs(back - np.concatenate([f, g])).max()))
    report(5, worst < 1e-12, f"worst M @ M^-1 deviation from identity {worst:.3e}")


def test_criterion_6_benchmark_qualitative_ordering():
    mu, nu, c = realize_problem(default_problem("squared", 10.0))

    def iters_to(alg):
        rep = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=alg, tol=1e-5,
                                            max_iters=100_000, record_history=False))
        assert rep.converged, f"{alg} never reached 1e-5"
        return rep.iterations

    it_cp = iters_to(Algorithm.CYCLIC_PROJECTION)
    it_gd = iters_to(Algorithm.DUAL_GRADIENT)
    it_fp = iters_to(Algorithm.FIXED_POINT)

    def violation_at_10k(alg):
        rep = solve(mu, nu, c, SolverConfig(gamma=10.0, algorithm=alg, tol=1e-300,
                                            max_iters=10_000, record_history=False))
        return max_violation(rep.final_plan, mu, nu)

    v_gd = violation_at_10k(Algorithm.DUAL_GRADIENT)
    v_ng = violation_at_10k(Algorithm.NESTEROV)

    ok = it_fp <= it_cp < it_gd and v_ng < v_gd
    report(
        6, ok,
        f"iters to 1e-5: fixed_point {it_fp} <= cyclic {it_cp} < gradient {it_gd}; "
        f"violation at 1e4: nesterov {v_ng:.3e} < gradient {v_gd:.3e}",
    )


def test_criterion_7_luxemburg_norms():
    f = GridFunction(Grid1D(128, 0.0, 1.0), np.ones(128))
    errs = [abs(luxemburg_norm(f, Quadratic()) - 1 / np.sqrt(2)) / (1 / np.sqrt(2))]
    for p in (1.5, 3.0):
        exact = p ** (-1 / p)
        errs.append(abs(luxemburg_norm(f, PPower(p)) - exact) / exact)
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.0, 2.0, 40)
    g = GridFunction(Grid1D(40, 0.0, 1.0), vals)
    base = luxemburg_norm(g, Quadratic())
    for k in (0.25, 3.0):
        scaled = luxemburg_norm(GridFunction(Grid1D(40, 0.0, 1.0), k * vals), Quadratic())
        errs.append(abs(scaled - k * base) / (k * base))
    worst = max(errs)
    report(7, worst <= 1e-8, f"worst relative error vs closed forms / homogeneity {worst:.3e}")


def test_criterion_8_marginal_contraction():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        n1, n2 = rng.integers(3, 16, size=2)
        grids = (Grid1D(int(n1), 0.0, 1.0), Grid1D(int(n2), 0.0, 1.0))
        vals = rng.uniform(0.0, 4.0, (n1, n2)) * (rng.random((n1, n2)) > 0.2)
        pi = GridFunction(grids, vals)
        ok = ok and marginal_contraction_check(pi, Quadratic())
        ok = ok and marginal_contraction_check(pi, Entropy())
    report(8, ok, "norm bound held for 100 random plans, quadratic and entropic")


def test_criterion_9_sinkhorn_baseline(batch):
    max_iters_used = 0
    best_gap = 0.0
    for mu, nu, c, gamma, plan_star, _, _ in batch:
        if gamma < 1.0:
            continue
        rep = solve(mu, nu, c, SolverConfig(gamma=gamma, algorithm=Algorithm.SINKHORN,
                                            tol=1e-6, max_iters=10_000, record_history=False))
        assert rep.converged, "Sinkhorn missed tol 1e-6 within 1e4 iterations"
        max_iters_used = max(max_iters_used, rep.iterations)
        best_gap = max(best_gap, float(np.abs(rep.final_plan - plan_star).max()))
    ok = max_iters_used <= 10_000 and best_gap > 0.0
    report(9, ok, f"converged within {max_iters_used} iterations; "
                  f"largest entropic-vs-quadratic plan gap {best_gap:.3e}")


def test_criterion_10_cli_determinism(tmp_path):
    problem = ProblemFile(
        grid1=Grid1D(12, 0.0, 1.0),
        grid2=Grid1D(12, 0.0, 1.0),
        marginal1=MixtureSpec(((0.5, 0.3, 0.1), (0.5, 0.7, 0.1))),
        marginal2=MixtureSpec(((1.0, 0.5, 0.2),)),
        cost="squared",
        gamma=5.0,
    )
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    contents = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["compare", str(path), "--tol", "1e-7", "--max-iters", "50000", "--out", str(out)]) == 0
        per_run = {}
        for name in ("cyclic_projection", "dual_gradient", "fixed_point", "nesterov"):
            with open(out / f"history_{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            k = rows[0].index("elapsed_ms")
            per_run[name] = [tuple(v for i, v in enumerate(r) if i != k) for r in rows]
        contents.append(per_run)
    report(10, contents[0] == contents[1], "cmd_compare CSVs identical across runs (elapsed_ms excluded)")
