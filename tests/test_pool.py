import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from qrot import Algorithm, SolverConfig, solve
from qrot.fileio import default_problem, realize_problem
from qrot.pool import solve_in_order

from conftest import record_processes, running

SRC = Path(__file__).resolve().parent.parent / "src"


def test_many_configurations_over_more_workers_than_cores(monkeypatch):
    # five workers (this process and four helpers) share sixteen configurations
    # under a tiny switch interval: each report arrives once, in order and bit
    # for bit the plain loop's, the helpers take part and none is left
    started = record_processes(monkeypatch)
    mu, nu, c = realize_problem(default_problem("squared", 2.0, n=12))
    algorithms = (Algorithm.CYCLIC_PROJECTION, Algorithm.DUAL_GRADIENT, Algorithm.FIXED_POINT, Algorithm.NESTEROV)
    configs = [SolverConfig(gamma=2.0, algorithm=algorithms[k % 4], tol=1e-300, max_iters=2000 + 50 * k,
                            record_history=False) for k in range(16)]
    expected = [solve(mu, nu, c, config) for config in configs]
    solved_here, seen = [], []

    def solve_here(mu, nu, c, config):
        solved_here.append(config.max_iters)
        return solve(mu, nu, c, config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=solve_in_order, args=(solve_here, mu, nu, c, configs, 5, seen.append))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert len(started) == 4 and running(started) == []
    for report, ref in zip(seen, expected, strict=True):
        assert report.algorithm is ref.algorithm and report.iterations == ref.iterations
        assert np.array_equal(report.final_plan, ref.final_plan)
        assert np.array_equal(report.final_potentials.alpha, ref.final_potentials.alpha)
        assert np.array_equal(report.final_potentials.beta, ref.final_potentials.beta)
    assert len(set(solved_here)) == len(solved_here) < 16


def test_helpers_end_with_a_killed_parent(tmp_path):
    # a parent killed mid-run cannot stop its helpers; they end by themselves.
    # They share the parent's stderr, so it reads to its end only once they do.
    script = tmp_path / "parent.py"
    script.write_text(
        "import subprocess, time\n"
        "import qrot.pool as pool\n"
        "from qrot import Algorithm, SolverConfig\n"
        "from qrot.fileio import default_problem, realize_problem\n"
        "started = []\n"
        "real_popen = subprocess.Popen\n"
        "def popen(*args, **kwargs):\n"
        "    started.append(real_popen(*args, **kwargs))\n"
        "    return started[-1]\n"
        "def hang(*args):\n"
        "    time.sleep(1.0)  # the helper is solving by now\n"
        "    print(*(p.pid for p in started), flush=True)\n"
        "    time.sleep(3600)\n"
        "if __name__ == '__main__':\n"
        "    subprocess.Popen = popen\n"
        "    mu, nu, c = realize_problem(default_problem('squared', 2.0, n=12))\n"
        "    configs = [SolverConfig(gamma=2.0, algorithm=a, tol=1e-300, max_iters=10**9, record_history=False)\n"
        "               for a in (Algorithm.FIXED_POINT, Algorithm.NESTEROV)]\n"
        "    pool.solve_in_order(hang, mu, nu, c, configs, 2, print)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    helpers = [int(pid) for pid in parent.stdout.readline().split()]
    assert len(helpers) == 1
    parent.kill()
    parent.wait()
    try:
        assert parent.communicate(timeout=60) == ("", "")
    except subprocess.TimeoutExpired:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)
        raise
