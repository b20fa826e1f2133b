"""Timed rounds over one workload, the checks on their outputs, and the
metrics the rounds yield.

A round runs the workload's operations in a fixed order: the five library
solves (short ones repeated back to back), then `qrot solve` and `qrot
compare`.  Rounds repeat back to back, so a slow spell of the host hits
every metric alike, and each end-to-end time is reported as the median of
its repeats.  Checks run after each operation, outside its timed region.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import qrot.cli
from qrot.core import Algorithm, SolverConfig
from qrot.fileio import load_problem, realize_problem, save_problem
from qrot.solvers import solve

import checks
from setup_probe import digest
from tracing import Tracer, solve_span
from workloads import DUAL_METHODS, METHODS, make_problem

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # timed set-ups per run; setup_s is their median
MIN_ROUNDS = 2
DEADLINE_S = 150.0  # no round starts that would end past this, from process start

# End-to-end metric -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {**{f"solve_s.{m}": "s" for m in METHODS}, "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# glibc allocator settings for this process and every child: buffers up to
# 32 MB come from the heap, and freed heap memory is kept rather than given
# back.  With the defaults every 8 MB N x M temporary is a fresh mapping, and
# the page faults on it cost up to a quarter of a cyclic-projection step at
# n=1000, varying with how many huge pages the host hands out.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def pin_allocator():
    """Apply the allocator settings to this process (glibc only)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
    mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


def child_env(src: Path) -> dict:
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD),
        MALLOC_TRIM_THRESHOLD_=str(TRIM_THRESHOLD),
    )
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _arrays(report):
    return (report.final_plan, *report.final_potentials)


class Run:
    """One benchmark run of one workload under one seed."""

    def __init__(self, workload, seed, workdir: Path, src: Path, t_start: float):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.env = child_env(src)
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.samples = defaultdict(list)
        self.tracer: Tracer | None = None  # set while a traced round runs
        self.cli_in_process = False
        self.problem = make_problem(workload.n, workload.gamma, seed)
        self.problem_path = workdir / "problem.json"
        self._start_plans = {}
        self.mu = self.nu = self.c = None  # set by a set-up whose inputs pass their check

    # -- operations ---------------------------------------------------------

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def attempt(self, label, body):
        """Run one operation; an exception or a failed check counts it failed."""
        self.attempted += 1
        try:
            return body()
        except checks.CheckError as exc:
            self.correct = False
            self._fail(label, exc)
        except Exception as exc:  # an operation that raises is counted, and the run goes on
            self._fail(label, exc)
        return None

    def _fail(self, label, exc):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def setup(self):
        """Write, read back and realize the problem file in this process."""
        self._call("fileio.save_problem", save_problem, self.problem, self.problem_path)
        loaded = self._call("fileio.load_problem", load_problem, self.problem_path)
        mu, nu, c = self._call("fileio.realize_problem", realize_problem, loaded)
        p = self.problem
        checks.inputs(
            (p.grid1.n, p.grid1.a, p.grid1.b),
            [(k.weight, k.mean, k.std) for k in p.marginal1.components],
            [(k.weight, k.mean, k.std) for k in p.marginal2.components],
            mu.w, nu.w, c,
        )
        self.digest = digest(mu, nu, c)
        self.mu, self.nu, self.c = mu.w, nu.w, c

    def probe(self):
        """One set-up in a fresh interpreter, timed from spawn to exit."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.w.n), repr(self.w.gamma),
               str(self.seed), str(self.dir / "probe.json")]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if proc.stdout.strip() != self.digest:
            raise checks.CheckError("set-up in a fresh process realized different arrays")
        return dt

    def config(self, spec, max_iters=None):
        return SolverConfig(
            gamma=spec.gamma,
            algorithm=Algorithm(spec.method),
            tol=spec.tol,
            max_iters=max_iters or spec.max_iters,
            record_history=spec.history_stride is not None,
            history_stride=spec.history_stride or 1,
        )

    def lib_solve(self, spec, reports, first=None):
        """One library solve.  A repeat within a round is checked against
        the round's ``first`` report of the same solve instead of afresh."""
        config = self.config(spec)
        t0 = perf_counter()
        report = self._call(solve_span(spec.method), solve, self.mu, self.nu, self.c, config)
        dt = perf_counter() - t0
        if first is not None:
            checks.repeat(first.iterations, _arrays(first), report.iterations, _arrays(report))
            return dt, report
        self.check_solve(spec, report)
        if spec.method == "fixed_point" and "cyclic_projection" in reports:
            other = reports["cyclic_projection"]
            checks.gauge_pair(other.iterations, other.final_plan, report.iterations, report.final_plan)
        return dt, report

    def start_plan(self, spec):
        """The plan every run starts from: zero potentials, or u = v = 1."""
        key = (spec.method == "sinkhorn", spec.gamma)
        if key not in self._start_plans:
            if spec.method == "sinkhorn":
                self._start_plans[key] = np.exp(-self.c / spec.gamma)
            else:
                self._start_plans[key] = np.maximum(-self.c, 0.0) / spec.gamma
        return self._start_plans[key]

    def check_solve(self, spec, report):
        mu, nu, c, gamma = self.mu, self.nu, self.c, spec.gamma
        plan = report.final_plan
        alpha, beta = report.final_potentials
        if spec.budget:
            if report.iterations != spec.max_iters or report.converged:
                raise checks.CheckError(f"budget run ended after {report.iterations} of {spec.max_iters}")
            checks.progress(plan, self.start_plan(spec), mu, nu)
        else:
            if not report.converged:
                raise checks.CheckError(f"no convergence within {spec.max_iters} iterations")
            checks.marginals_within(plan, mu, nu, spec.tol)
        if spec.method == "sinkhorn":
            checks.entropic(alpha, beta, plan, c, gamma)
            return
        checks.dual_plan(alpha, beta, plan, c, gamma)
        viol_bound = checks.violation(plan, mu, nu) if spec.budget else spec.tol
        checks.certificate(alpha, beta, plan, c, gamma, mu, nu, viol_bound)
        if spec.budget:
            checks.weak_duality(alpha, beta, c, gamma, mu, nu)

    def cli(self, args, out: Path):
        """One CLI command, timed from start until its artifacts are written."""
        shutil.rmtree(out, ignore_errors=True)
        argv = [args[0], str(self.problem_path)] + args[1:] + ["--out", str(out)]
        t0 = perf_counter()
        if self.cli_in_process:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = self._call("cli.main", qrot.cli.main, argv)
            err = ""
        else:
            proc = subprocess.run([sys.executable, "-m", "qrot"] + argv, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            code, err = proc.returncode, proc.stderr
        dt = perf_counter() - t0
        if code not in (0, 2):
            raise RuntimeError(f"qrot {args[0]} exited {code}: {err.strip()[-300:]}")
        return dt, code

    def cli_solve(self, reports, out):
        spec = self.w.solve_for(self.w.cli_method)
        dt, code = self.cli(self.w.cli_solve_args(), out)
        checks.exit_code(code, spec.budget)
        ref = reports.get(spec.method)
        if ref is None:
            raise checks.CheckError("no library result for the CLI solve to match")
        checks.text_array(out / f"plan_{spec.method}.txt", ref.final_plan)
        checks.text_array(out / f"alpha_{spec.method}.txt", ref.final_potentials.alpha)
        checks.text_array(out / f"beta_{spec.method}.txt", ref.final_potentials.beta)
        self.check_history(spec, ref, out / f"history_{spec.method}.csv")
        return dt

    def cli_compare(self, reports, out):
        spec = self.w.solve_for(DUAL_METHODS[0])
        dt, code = self.cli(self.w.cli_compare_args(), out)
        checks.exit_code(code, spec.budget)
        for method in DUAL_METHODS:
            ref = reports.get(method)
            if ref is None:
                raise checks.CheckError(f"no library result for compare's {method} to match")
            self.check_history(self.w.solve_for(method), ref, out / f"history_{method}.csv")
        checks.svg_polylines(out / "compare.svg", len(DUAL_METHODS))
        return dt

    def check_history(self, spec, ref, path):
        mu, nu, c, plan = self.mu, self.nu, self.c, ref.final_plan
        objectives = None
        if spec.method != "sinkhorn":
            alpha, beta = ref.final_potentials
            objectives = (checks.dual_bound(alpha, beta, c, spec.gamma, mu, nu),
                          checks.primal_value(plan, c, spec.gamma))
        checks.history_csv(path, ref.iterations, checks.violation(plan, mu, nu), spec.tol, spec.budget, objectives)

    # -- rounds -------------------------------------------------------------

    def round(self, index):
        """All operations once; returns (times, library reports, bytes written)."""
        times, reports = defaultdict(list), {}
        for spec in self.w.solves:
            for _ in range(spec.repeats):
                first = reports.get(spec.method)
                done = self.attempt(spec.method, lambda spec=spec, first=first: self.lib_solve(spec, reports, first))
                if done is not None:
                    times[f"solve_s.{spec.method}"].append(done[0])
                    reports.setdefault(spec.method, done[1])
        written = 0
        cli_times = []
        for kind, fn in (("solve", self.cli_solve), ("compare", self.cli_compare)):
            out = self.dir / f"round{index}-{kind}"
            dt = self.attempt(f"qrot {kind}", lambda fn=fn, out=out: fn(reports, out))
            if out.is_dir():
                written += sum(f.stat().st_size for f in out.iterdir())
                shutil.rmtree(out)
            if dt is not None:
                cli_times.append(dt)
        if len(cli_times) == 2:
            times["cli_s"].append(sum(cli_times))
        return times, reports, written

    def warm_up(self):
        """Untimed, uncounted: every solver path once, for two iterations."""
        for spec in self.w.solves:
            solve(self.mu, self.nu, self.c, self.config(spec, max_iters=2))

    def rounds(self, seconds, min_rounds, body, per_body=1):
        """Call body(index) as often as ``per_body`` rounds of the workload's
        typical round time fill ``seconds``, at least ``min_rounds`` times.

        The count depends on ``seconds`` alone, so every run does the same
        work.  Only on a host far slower than usual is it cut short: past
        ``min_rounds``, a body that would end after 1.5 x ``seconds``, or
        after DEADLINE_S from process start, is not started.
        """
        count = max(min_rounds, int(seconds // (per_body * self.w.round_s)))
        t0 = perf_counter()
        longest = 0.0
        for index in range(count):
            now = perf_counter()
            late = now - t0 + longest > 1.5 * seconds or now - self.t_start + longest > DEADLINE_S
            if index >= min_rounds and late:
                return index
            body(index)
            longest = max(longest, perf_counter() - now)
        return count

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self, seconds, min_rounds=MIN_ROUNDS):
        self.attempt("setup", self.setup)
        if self.mu is None:
            return None
        # The first probe warms the file cache and is not timed into setup_s.
        probes = [self.attempt("setup probe", self.probe) for _ in range(SETUP_PROBES + 1)]
        self.samples["setup_s"] = [s for s in probes[1:] if s is not None]
        self.warm_up()

        def body(index):
            times, _, _ = self.round(index)
            for name, values in times.items():
                self.samples[name] += values

        self.rounds(seconds, min_rounds, body)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        self.samples["peak_rss_mb"] = [rss_kb / 1024.0]
        metrics = {}
        for name in END_TO_END:
            values = self.samples.get(name)
            if values:
                metrics[name] = (statistics.median(values), min(values), len(values))
        return metrics

    def traced(self, seconds, trace_path, min_rounds=1):
        tracer = Tracer()
        self.tracer = tracer
        with tracer.installed():
            for _ in range(SETUP_PROBES):
                self.attempt("setup", self.setup)
        self.tracer = None
        if self.mu is None:
            return None
        self.warm_up()
        self.cli_in_process = True
        walls = {"plain": 0.0, "traced": 0.0}
        written, last_reports = [], {}

        def body(index):
            nonlocal last_reports
            for mode in ("plain", "traced"):
                t = perf_counter()
                if mode == "traced":
                    self.tracer = tracer
                    with tracer.installed():
                        _, last_reports, nbytes = self.round(2 * index + 1)
                    self.tracer = None
                    written.append(nbytes)
                else:
                    self.round(2 * index)
                walls[mode] += perf_counter() - t

        traced_rounds = self.rounds(seconds, min_rounds, body, per_body=2)
        peak_alloc = {}
        for spec in self.w.solves:
            tracemalloc.start()
            try:
                solve(self.mu, self.nu, self.c, self.config(spec))
                peak_alloc[spec.method] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        tracer.write(trace_path)
        return layer_metrics(
            tracer, self.w, traced_rounds, last_reports, peak_alloc, written,
            walls["traced"] / walls["plain"], self.mu, self.nu,
        )


def layer_metrics(tracer, workload, traced_rounds, reports, peak_alloc, written, time_ratio, mu, nu):
    """Per-layer figures from the spans of the traced rounds and set-ups."""
    tab = tracer.table()
    ids = {n: i for i, n in enumerate(tracer.names)}
    name, root, dur, self_t, parent = tab["name"], tab["root"], tab["dur"], tab["self"], tab["parent"]
    root_name = name[root]

    def is_(span, under=None):
        mask = name == ids.get(span, -1)
        if under is not None:
            mask &= np.isin(root_name, [ids.get(u, -1) for u in under])
        return mask

    lib_roots = [solve_span(m) for m in METHODS]
    cells = workload.n * workload.n
    out = {}
    for m in METHODS:
        if m not in reports:
            continue
        sname = solve_span(m)
        solves = is_(sname, [sname])
        iters = reports[m].iterations * int(solves.sum())
        out[f"solvers.iterations.{m}"] = (reports[m].iterations, "count")
        out[f"solvers.step_us.{m}"] = (dur[is_(f"solvers.step:{m}", [sname])].mean() * 1e6, "us")
        out[f"solvers.loop_self_us.{m}"] = (self_t[solves].sum() / iters * 1e6, "us")
        out[f"solvers.ns_per_cell.{m}"] = (dur[solves].sum() / iters / cells * 1e9, "ns")
        out[f"solvers.violation_at_budget.{m}"] = (checks.violation(reports[m].final_plan, mu, nu), "mass")
        out[f"solvers.peak_alloc_mb.{m}"] = (peak_alloc[m], "MB")
        if m != "sinkhorn":
            out[f"dual.recover_plan_per_iter.{m}"] = (int(is_("dual.recover_plan", [sname]).sum()) / iters, "count")
    for span, key in (
        ("solvers.sinkhorn_plan", "solvers.sinkhorn_plan_us"),
        ("dual.recover_plan", "dual.recover_plan_us"),
        ("dual.preconditioner_apply", "dual.preconditioner_apply_us"),
        ("core.max_violation", "core.max_violation_us"),
    ):
        mask = is_(span, lib_roots)
        if mask.any():
            out[key] = (dur[mask].mean() * 1e6, "us")
    for span in ("write_matrix", "write_vector", "write_history_csv", "render_convergence_svg"):
        mask = is_(f"fileio.{span}", ["cli.main"])
        out[f"fileio.{span}_s"] = (dur[mask].sum() / traced_rounds, "s")
    top = parent < 0
    for span in ("save_problem", "load_problem", "realize_problem"):
        mask = is_(f"fileio.{span}") & top
        out[f"fileio.{span}_s"] = (float(np.median(dur[mask])), "s")
    setups = np.flatnonzero(is_("fileio.realize_problem") & top)
    for span in ("cost_matrix", "mixture_marginal"):
        mask = is_(f"problems.{span}", ["fileio.realize_problem"])
        per_setup = np.bincount(root[mask], weights=dur[mask], minlength=root.size)[setups]
        out[f"problems.{span}_s"] = (float(np.median(per_setup)), "s")
    out["fileio.bytes_written"] = (statistics.median(written), "bytes")
    out["cli.self_s"] = (self_t[is_("cli.main")].sum() / traced_rounds, "s")
    out["trace.time_ratio"] = (time_ratio, "ratio")
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
