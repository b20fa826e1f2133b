"""Fast self-test of the benchmark: every workload's code path at tiny
sizes, then every check shown to reject a deliberately corrupted plan,
potential or artifact.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil

import numpy as np
from qrot.cli import main as qrot_main

import bench
import checks
from workloads import DUAL_METHODS, WORKLOADS, shrink


def _rejects(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckError:
        return None
    return f"{label}: corrupted input was accepted"


def _accepts(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckError as exc:
        return f"{label}: valid input was rejected: {exc}"
    return None


def workload_paths(src, out, t_start, expected):
    """One round of every tiny workload, end to end and traced."""
    problems = []
    for workload in WORKLOADS.values():
        tiny = shrink(workload)
        for trace in (False, True):
            workdir = out / f"selftest-{tiny.name}-{int(trace)}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                run = bench.Run(tiny, 7, workdir, src, t_start)
                if trace:
                    found = run.traced(0, out / f"selftest-trace-{tiny.name}.npz")
                else:
                    found = run.end_to_end(0, min_rounds=1)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            kind = "per_layer" if trace else "end_to_end"
            missing = sorted(expected[kind] - set(found or ()))
            extra = sorted(set(found or ()) - expected[kind])
            problems += [f"{tiny.name} trace={int(trace)}: {e}" for e in run.errors]
            if run.failed or not run.correct:
                problems.append(f"{tiny.name} trace={int(trace)}: {run.failed} of {run.attempted} failed")
            if missing or extra:
                problems.append(f"{tiny.name} trace={int(trace)}: missing {missing}, unexpected {extra}")
            print(f"self-test: {tiny.name} trace={int(trace)}: {run.attempted} operations, "
                  f"{run.failed} failed, {len(found or ())} metrics")
    return problems


def corruptions(src, out):
    """Each check accepts the real output and rejects a corrupted copy."""
    tiny = shrink(WORKLOADS["paper-n100"])
    workdir = out / "selftest-corrupt"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _corruptions(tiny, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _corruptions(tiny, src, workdir):
    run = bench.Run(tiny, 0, workdir, src, 0.0)
    run.setup()
    mu, nu, c = run.mu, run.nu, run.c
    p = run.problem
    grid = (p.grid1.n, p.grid1.a, p.grid1.b)
    comps = [[(k.weight, k.mean, k.std) for k in m.components] for m in (p.marginal1, p.marginal2)]
    reports = {s.method: run.lib_solve(s, {})[1] for s in tiny.solves}
    budget_spec = dataclasses.replace(tiny.solve_for("fixed_point"), tol=1e-12, max_iters=3, budget=True)
    budget = run.lib_solve(budget_spec, {})[1]

    fp = tiny.solve_for("fixed_point")
    sk = tiny.solve_for("sinkhorn")
    rep, sk_rep = reports["fixed_point"], reports["sinkhorn"]
    plan, (alpha, beta) = rep.final_plan, rep.final_potentials
    sk_plan, (sk_alpha, sk_beta) = sk_rep.final_plan, sk_rep.final_potentials
    b_plan, (b_alpha, b_beta) = budget.final_plan, budget.final_potentials
    start = run.start_plan(budget_spec)

    def bumped(a, i=0, by=1e-6):
        a = a.copy()
        a.flat[i] += by
        return a

    def scaled(a, i, by):
        a = a.copy()
        a.flat[i] *= by
        return a

    # CLI artifacts to corrupt: one solve, one compare.
    solve_out, compare_out = workdir / "solve", workdir / "compare"
    for args, dest in ((tiny.cli_solve_args(), solve_out), (tiny.cli_compare_args(), compare_out)):
        with contextlib.redirect_stdout(io.StringIO()):
            code = qrot_main([args[0], str(run.problem_path)] + args[1:] + ["--out", str(dest)])
        if code != 0:
            return [f"qrot {args[0]} exited {code} on the tiny problem"]
    nest = reports["nesterov"]
    plan_file = solve_out / "plan_nesterov.txt"
    bad_plan_file = workdir / "plan_bad.txt"
    lines = plan_file.read_text().splitlines()
    row = lines[1].split()
    row[0] = repr(float(row[0]) + 1e-6)
    bad_plan_file.write_text("\n".join([lines[0], " ".join(row)] + lines[2:]) + "\n")
    hist_file = compare_out / "history_fixed_point.csv"
    bad_hist_file = workdir / "history_bad.csv"
    bad_hist_file.write_text(hist_file.read_text().replace(
        f"# iterations,{rep.iterations}", f"# iterations,{rep.iterations + 1}"))
    svg_file = compare_out / "compare.svg"
    bad_svg_file = workdir / "bad.svg"
    text = svg_file.read_text()
    cut = text.index("<polyline")
    bad_svg_file.write_text(text[:cut] + text[text.index("/>", cut) + 2:])
    viol = checks.violation(plan, mu, nu)
    objectives = (checks.dual_bound(alpha, beta, c, fp.gamma, mu, nu), checks.primal_value(plan, c, fp.gamma))

    cases = [
        ("inputs", checks.inputs, (grid, *comps, mu, nu, c), (grid, *comps, bumped(mu), nu, c)),
        ("dual_plan/plan", checks.dual_plan, (alpha, beta, plan, c, fp.gamma),
         (alpha, beta, bumped(plan, int(np.argmax(plan))), c, fp.gamma)),
        ("dual_plan/potential", checks.dual_plan, (alpha, beta, plan, c, fp.gamma),
         (bumped(alpha), beta, plan, c, fp.gamma)),
        ("marginals_within", checks.marginals_within, (plan, mu, nu, fp.tol), (plan * 1.001, mu, nu, fp.tol)),
        ("certificate", checks.certificate, (alpha, beta, plan, c, fp.gamma, mu, nu, fp.tol),
         (alpha - 0.01, beta, plan, c, fp.gamma, mu, nu, fp.tol)),
        ("progress", checks.progress, (b_plan, start, mu, nu), (start, start, mu, nu)),
        ("weak_duality", checks.weak_duality, (b_alpha, b_beta, c, fp.gamma, mu, nu),
         (bumped(b_alpha, by=np.nan), b_beta, c, fp.gamma, mu, nu)),
        ("gauge_pair", checks.gauge_pair,
         (rep.iterations, plan, reports["cyclic_projection"].iterations, reports["cyclic_projection"].final_plan),
         (rep.iterations, plan, rep.iterations, bumped(plan, int(np.argmax(plan)), 1e-9))),
        ("repeat", checks.repeat, (rep.iterations, (plan, alpha, beta), rep.iterations, (plan.copy(), alpha, beta)),
         (rep.iterations, (plan, alpha, beta), rep.iterations, (plan, bumped(alpha, by=1e-15), beta))),
        ("entropic/plan", checks.entropic, (sk_alpha, sk_beta, sk_plan, c, sk.gamma),
         (sk_alpha, sk_beta, scaled(sk_plan, 5, 1.001), c, sk.gamma)),
        ("entropic/potential", checks.entropic, (sk_alpha, sk_beta, sk_plan, c, sk.gamma),
         (bumped(sk_alpha, by=1e-6), sk_beta, sk_plan, c, sk.gamma)),
        ("text_array", checks.text_array, (plan_file, nest.final_plan), (bad_plan_file, nest.final_plan)),
        ("history_csv/footer", checks.history_csv, (hist_file, rep.iterations, viol, fp.tol, False, objectives),
         (bad_hist_file, rep.iterations, viol, fp.tol, False, objectives)),
        ("history_csv/objectives", checks.history_csv, (hist_file, rep.iterations, viol, fp.tol, False, objectives),
         (hist_file, rep.iterations, viol, fp.tol, False, (objectives[0] * 1.001, objectives[1]))),
        ("svg_polylines", checks.svg_polylines, (svg_file, len(DUAL_METHODS)), (bad_svg_file, len(DUAL_METHODS))),
        ("exit_code", checks.exit_code, (0, False), (2, False)),
    ]
    problems = []
    for label, fn, good, bad in cases:
        problems += [p for p in (_accepts(label, fn, *good), _rejects(label, fn, *bad)) if p]
    print(f"self-test: {len(cases)} checks each accepted real output and rejected a corrupted copy"
          if not problems else f"self-test: {len(problems)} check problems")
    return problems


def main(src, out, t_start):
    spec = json.loads((src.parent / "BENCHMARK.json").read_text())
    expected = {kind: {m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    out.mkdir(exist_ok=True)
    problems = workload_paths(src, out, t_start, expected) + corruptions(src, out)
    for p in problems:
        print(f"self-test: FAIL {p}")
    print("self-test: ok" if not problems else "self-test: failed")
    return 0 if not problems else 1
