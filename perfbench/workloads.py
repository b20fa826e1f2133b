"""The benchmark's workloads and the seeded problems they run on.

A workload is one problem file plus five library solves (the four dual
methods and the Sinkhorn baseline) and two CLI commands (`qrot solve` for
one method and `qrot compare` for the four dual methods).  Every workload
runs every method and both commands, so every run reports every metric;
what differs between workloads is the size, gamma, tolerance and whether
a solve runs to tolerance or for a fixed iteration budget.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from qrot.fileio import ProblemFile, default_problem
from qrot.problems import MixtureComponent, MixtureSpec

DUAL_METHODS = ("cyclic_projection", "dual_gradient", "fixed_point", "nesterov")
METHODS = DUAL_METHODS + ("sinkhorn",)

# Names `qrot solve --algorithm` accepts, keyed by Algorithm value.
CLI_NAMES = {
    "cyclic_projection": "cyclic-projection",
    "dual_gradient": "gradient",
    "fixed_point": "fixed-point",
    "nesterov": "nesterov",
    "sinkhorn": "sinkhorn",
}

# Seed jitter of the mixture means (absolute) and widths (relative).  It is
# kept this small on purpose: Nesterov's iteration count to tolerance on the
# n=100 problem moves by up to 25% under a 2e-5 shift of the means, which
# would swamp any change in the code.  At 2e-6 every count moves by < 0.1%.
MEAN_JITTER = 2e-6
STD_JITTER = 1e-5


@dataclass(frozen=True)
class Solve:
    """One library `solve()` call: method, gamma and stopping rule.

    ``history_stride`` None turns the history off.  ``budget`` True means
    the tolerance is out of reach and the run must end at ``max_iters``.
    """

    method: str
    gamma: float
    tol: float
    max_iters: int
    history_stride: int | None
    budget: bool
    repeats: int = 1  # back-to-back calls per round, for solves too short to sample once a round


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    gamma: float  # the problem file's gamma, which the CLI commands use
    solves: tuple  # one Solve per method, in METHODS order
    cli_method: str  # the method `qrot solve` runs
    round_s: float  # nominal seconds per round, checks included; sets the round count

    def solve_for(self, method: str) -> Solve:
        return self.solves[METHODS.index(method)]

    def cli_solve_args(self) -> list:
        spec = self.solve_for(self.cli_method)
        return ["solve", "--algorithm", CLI_NAMES[self.cli_method]] + _stop_args(spec)

    def cli_compare_args(self) -> list:
        return ["compare"] + _stop_args(self.solve_for(DUAL_METHODS[0]))


def _stop_args(spec: Solve) -> list:
    stride = spec.history_stride if spec.history_stride is not None else spec.max_iters
    return [
        "--tol", repr(spec.tol),
        "--max-iters", str(spec.max_iters),
        "--history-stride", str(stride),
    ]


def _duals(gamma, tol, max_iters, history_stride, budget, repeats=1):
    return tuple(Solve(m, gamma, tol, max_iters, history_stride, budget, repeats) for m in DUAL_METHODS)


def _check(w: Workload) -> Workload:
    # The CLI takes gamma from the problem file, and compare shares one
    # stopping rule across the dual methods; the library solves it is
    # checked against must match both.
    assert tuple(s.method for s in w.solves) == METHODS
    assert w.solve_for(w.cli_method).gamma == w.gamma
    assert len({(s.gamma, s.tol, s.max_iters, s.history_stride) for s in w.solves[:4]}) == 1
    assert w.solves[0].gamma == w.gamma
    return w


WORKLOADS = {
    w.name: _check(w)
    for w in (
        # Stock problem at tol 1e-5, history at every iteration: about 86k
        # iterations on 80 KB arrays, so interpreter overhead, the stopping
        # test, the diagnostics and the CSV/SVG writers dominate.  The two
        # short solves (0.1-0.2 s) run three times a round.
        Workload(
            "paper-n100",
            n=100,
            gamma=10.0,
            solves=_duals(10.0, 1e-5, 100_000, 1, False)[:3]
            + (Solve("nesterov", 10.0, 1e-5, 100_000, 1, False, repeats=3),
               Solve("sinkhorn", 0.002, 1e-6, 100_000, 1, False, repeats=3)),
            cli_method="nesterov",
            round_s=23.0,
        ),
        # Stock problem at n=1000 with history off and a fixed budget: 8 MB
        # N x M arrays, so the dense kernels dominate and the iteration
        # count cannot move.
        Workload(
            "kernel-n1000",
            n=1000,
            gamma=10.0,
            solves=_duals(10.0, 1e-12, 50, None, True)
            + (Solve("sinkhorn", 0.003, 1e-12, 80, None, True),),
            cli_method="nesterov",
            round_s=6.5,
        ),
        # Sinkhorn at gamma 0.003 to tol 1e-6 in the library and through
        # `qrot solve`, which writes a 22 MB plan file; history every 100th
        # iteration.  The dual methods run a short budget on the same file,
        # twice a round so that a run has six samples of each.
        Workload(
            "sinkhorn-cli-n1000",
            n=1000,
            gamma=0.003,
            solves=_duals(0.003, 1e-6, 20, None, True, repeats=2)
            + (Solve("sinkhorn", 0.003, 1e-6, 100_000, 100, False),),
            cli_method="sinkhorn",
            round_s=9.0,
        ),
    )
}


def _jitter(spec: MixtureSpec, rng: random.Random) -> MixtureSpec:
    return MixtureSpec(
        tuple(
            MixtureComponent(
                c.weight,
                c.mean + rng.uniform(-MEAN_JITTER, MEAN_JITTER),
                c.std * (1.0 + rng.uniform(-STD_JITTER, STD_JITTER)),
            )
            for c in spec.components
        )
    )


def make_problem(n: int, gamma: float, seed: int) -> ProblemFile:
    """The stock two-bump problem with squared cost on an n-cell grid.

    Seed 0 gives the stock problem exactly; any other seed jitters the
    mixture means and widths.
    """
    problem = default_problem(cost="squared", gamma=gamma, n=n)
    if seed == 0:
        return problem
    rng = random.Random(seed)
    return dataclasses.replace(
        problem,
        marginal1=_jitter(problem.marginal1, rng),
        marginal2=_jitter(problem.marginal2, rng),
    )


def shrink(workload: Workload, n: int = 12, budget: int = 4) -> Workload:
    """A tiny copy of a workload for the self-test: same methods, stopping
    rules and commands, on an n-cell grid with budgets cut to ``budget``."""
    solves = tuple(
        dataclasses.replace(s, max_iters=budget) if s.budget else s for s in workload.solves
    )
    return dataclasses.replace(workload, n=n, solves=solves, round_s=1.0)
