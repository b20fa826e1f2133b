"""Command-line interface.

Subcommands: ``generate`` (emit a stock benchmark problem file), ``solve``
(one algorithm, artifacts to a directory), ``compare`` (all four dual
algorithms plus a combined convergence plot), ``oracle-check`` (small
instances, N + M <= 200, against the exact solver).

``compare`` solves in up to ``min(4, usable CPUs)`` processes: this one, and
helper interpreters started as it starts solving, each of which is sent the
problem once it is ready and a method is left (see :mod:`qrot.pool`).  Its
artifacts, output and exit code are those of solving the four one after
another, apart from the ``elapsed_ms`` column.
``compare`` on one CPU uses this process alone.  ``solve`` solves and writes
its artifacts in this process alone; each value of a plan or potential file
is written as its ``repr``, by a formatter that takes whole runs of values at
once (see :mod:`qrot.rowtext`).

Exit codes: 0 success / converged, 2 iteration cap or failed check,
1 input or I/O error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .core import Algorithm, SolverConfig, max_violation
from .dual import duality_gap
from .fileio import (
    default_problem,
    load_problem,
    realize_problem,
    render_convergence_svg,
    save_problem,
    write_history_csv,
    write_matrix,
    write_vector,
)
from .oracle import exact_solve
from .pool import solve_in_order, usable_cpus
from .problems import BENCHMARK_GAMMAS, COST_KINDS
from .solvers import solve

_CLI_ALGORITHMS = {
    "cyclic-projection": Algorithm.CYCLIC_PROJECTION,
    "gradient": Algorithm.DUAL_GRADIENT,
    "fixed-point": Algorithm.FIXED_POINT,
    "nesterov": Algorithm.NESTEROV,
    "sinkhorn": Algorithm.SINKHORN,
}

_COMPARED = (
    Algorithm.CYCLIC_PROJECTION,
    Algorithm.DUAL_GRADIENT,
    Algorithm.FIXED_POINT,
    Algorithm.NESTEROV,
)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Reported by main as exit 1 with an error line: ZeroDivisionError is Sinkhorn
# underflow, RuntimeError a diverging solver or an oracle proposal that fails its checks.
_RUN_ERRORS = (ValueError, OSError, RuntimeError, ZeroDivisionError, MemoryError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _make_config(args, gamma, algorithm, **options) -> SolverConfig:
    return SolverConfig(gamma, algorithm, tol=args.tol, max_iters=args.max_iters, tau=args.tau, **options)


def cmd_generate(args) -> int:
    gamma = BENCHMARK_GAMMAS[args.cost][1] if args.gamma is None else args.gamma
    save_problem(default_problem(cost=args.cost, gamma=gamma, n=args.n), args.out)
    print(f"wrote {args.out}")
    return 0


def _run(args, algorithms):
    """Solve ``args.problem`` with each algorithm and write that run's history
    CSV to ``args.out``, which is created only once a solve has returned.
    The solves are shared out as :func:`qrot.pool.solve_in_order` says.

    Returns the marginals, the output directory and the reports.
    """
    problem = load_problem(args.problem)
    mu, nu, c = realize_problem(problem)
    configs = [_make_config(args, problem.gamma, a, history_stride=args.history_stride) for a in algorithms]
    out = Path(args.out)
    if out.exists() and not out.is_dir():  # refused before any solve starts
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))
    reports = []

    def write_history(report):
        out.mkdir(parents=True, exist_ok=True)
        write_history_csv(out / f"history_{report.algorithm.value}.csv", report, problem.gamma, args.tol)
        reports.append(report)

    solve_in_order(solve, mu, nu, c, configs, usable_cpus(), write_history)
    return mu, nu, out, reports


def cmd_solve(args) -> int:
    mu, nu, out, (report,) = _run(args, [_CLI_ALGORITHMS[args.algorithm]])
    tag = report.algorithm.value
    write_matrix(out / f"plan_{tag}.txt", report.final_plan)
    write_vector(out / f"alpha_{tag}.txt", report.final_potentials.alpha)
    write_vector(out / f"beta_{tag}.txt", report.final_potentials.beta)
    status = "converged" if report.converged else "hit the iteration cap"
    viol = max_violation(report.final_plan, mu, nu)
    print(f"{tag}: {status} after {report.iterations} iterations (max violation {viol:.3e})")
    return 0 if report.converged else 2


def cmd_compare(args) -> int:
    _, _, out, reports = _run(args, _COMPARED)
    render_convergence_svg([(r.algorithm.value, r.history) for r in reports], out / "compare.svg")
    for report in reports:
        status = "converged" if report.converged else "capped"
        print(f"{report.algorithm.value}: {status} in {report.iterations} iterations")
    print(f"plot: {out / 'compare.svg'}")
    return 0 if all(r.converged for r in reports) else 2


def cmd_oracle_check(args) -> int:
    problem = load_problem(args.problem)
    mu, nu, c = realize_problem(problem)
    plan_star, pot_star = exact_solve(mu, nu, c, problem.gamma)
    print(f"oracle duality gap: {duality_gap(pot_star, plan_star, c, problem.gamma, mu, nu):.3e}")
    worst = 0.0
    for algorithm in _COMPARED:
        report = solve(mu, nu, c, _make_config(args, problem.gamma, algorithm, record_history=False))
        gap = duality_gap(report.final_potentials, report.final_plan, c, problem.gamma, mu, nu)
        diff = float(np.abs(report.final_plan - plan_star).max())
        worst = max(worst, diff)
        print(f"{algorithm.value}: plan discrepancy {diff:.3e}, duality gap {gap:.3e}")
    if worst <= 1e-6:
        print("all plans within 1e-06 of the exact solution")
        return 0
    print("discrepancy above 1e-06", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrot", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a stock benchmark problem file")
    gen.add_argument("--out", default="problem.json", help="output path (default problem.json)")
    gen.add_argument("--cost", choices=COST_KINDS, default="squared")
    gen.add_argument("--gamma", type=float, default=None, help="regularization weight (default per cost kind)")
    gen.add_argument("--n", type=int, default=100, help="cells per grid (default 100)")
    gen.set_defaults(func=cmd_generate)

    def run_flags(p, with_algorithm=False):
        p.add_argument("problem", help="problem file (JSON)")
        if with_algorithm:
            p.add_argument("--algorithm", choices=sorted(_CLI_ALGORITHMS), required=True)
        p.add_argument("--tol", type=float, default=1e-6, help="max-violation stopping threshold")
        p.add_argument("--max-iters", type=int, default=100_000, dest="max_iters")
        p.add_argument("--tau", type=float, default=None, help="stepsize override for the gradient methods")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--history-stride", type=int, default=1, dest="history_stride")

    slv = sub.add_parser(
        "solve",
        help="run one algorithm on a problem file and write its plan, potentials and history",
    )
    run_flags(slv, with_algorithm=True)
    slv.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser(
        "compare",
        help="run the four dual algorithms, in up to min(4, usable CPUs) processes, and plot convergence",
    )
    run_flags(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    orc = sub.add_parser("oracle-check", help="validate the solvers against the exact oracle")
    orc.add_argument("problem", help="small problem file (N + M <= 200)")
    orc.add_argument("--tol", type=float, default=1e-9)
    orc.add_argument("--max-iters", type=int, default=200_000, dest="max_iters")
    orc.add_argument("--tau", type=float, default=None)
    orc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _RUN_ERRORS as exc:
        return _fail(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
