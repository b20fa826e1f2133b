"""Several solves of one problem, spread over the CPUs this process may use.

``solve_in_order`` calls ``done(solve(mu, nu, c, config))`` for each
configuration, in order.  With one configuration, one usable CPU or no
``sys.executable``, that is a plain loop in this process.  Otherwise this
process starts ``min(len(configs), cpus) - 1`` helper processes and solves:

- a helper is a plain ``python -c`` interpreter, never a fork of this process
  (which may hold BLAS threads), that imports numpy and qrot from this
  process's ``sys.path`` and then says it is ready with one byte;
- whichever worker is free first takes the next configuration, in order; a
  helper ready while one is left gets ``(mu, nu, c, configs)`` on stdin,
  then one index at a time, solves with :func:`qrot.solvers.solve` and
  sends back each outcome, all as pickles;
- ``done`` sees the reports in order, each as soon as it and all before it
  are in, and bit for bit the plain loop's;
- an exception from a solve is raised at its configuration's turn, after
  ``done`` has seen every report before it, and no configuration is started
  once a failure is known;
- every helper is killed and reaped before ``solve_in_order`` returns or
  raises, and a helper whose parent dies ends by itself, even mid-solve.

An unused helper is sent no problem, but its start is not free: while it
imports numpy and qrot it holds a CPU the solves in this process could use.
On the ``kernel-n1000`` compare (2 vCPUs, numpy 2.4.6), all solved before its
helper is ready, ``solve_in_order`` took 0.148 s with no process beside it,
0.293 s beside its unused helper, 0.302 s beside a plain
``python -c 'from qrot.pool import _helper'`` and 0.198 s beside
``python -c pass``; the whole command took 0.353 s without a helper against
0.479 s with it (shorter without in 16 of 16 pairs), though in one later measuring
window the two read 0.325 and 0.308 s.
"""

from __future__ import annotations

import os
import sys

from . import solvers

# What a helper runs.  Ctrl-C is left to the CLI process, which stops its
# helpers; the path is the CLI process's own, filled in at each start.
_HELPER = ("import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); sys.path[:] = {!r}; "
           "from qrot.pool import _helper; _helper()")
_READY = b"R"


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def solve_in_order(solve, mu, nu, c, configs, cpus, done) -> None:
    """Call ``done(solve(mu, nu, c, config))`` for each of ``configs`` in order,
    with up to ``min(len(configs), cpus) - 1`` helper processes (see the
    module docstring).  ``solve`` is called in this process only."""
    helpers = min(len(configs), cpus) - 1
    if helpers < 1 or not sys.executable:
        for config in configs:
            done(solve(mu, nu, c, config))
        return
    _solve_with_helpers(solve, mu, nu, c, configs, helpers, done)


def _attempt(solve, mu, nu, c, config):
    """The report of one solve, or the exception it raised."""
    try:
        return solve(mu, nu, c, config)
    except Exception as exc:
        return exc


def _helper() -> None:
    """A helper process: say it is ready, then solve each configuration index
    that follows the problem on stdin and send back the outcome.  One thread alone
    reads stdin; at its end (the CLI process closed it or died) it ends the helper."""
    import pickle
    import queue
    import threading

    requests = queue.SimpleQueue()

    def read():
        try:
            while True:
                requests.put(pickle.load(sys.stdin.buffer))
        finally:
            os._exit(1)

    threading.Thread(target=read, daemon=True).start()
    out = sys.stdout.buffer
    try:
        out.write(_READY)
        out.flush()
        mu, nu, c, configs = requests.get()
        while True:
            outcome = _attempt(solvers.solve, mu, nu, c, configs[requests.get()])
            out.write(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
            out.flush()
    except OSError:  # the CLI process died
        os._exit(1)


def _solve_with_helpers(solve, mu, nu, c, configs, helpers, done) -> None:
    import contextlib
    import pickle
    import queue
    import subprocess
    import threading

    untaken = list(range(len(configs)))
    lock = threading.Lock()
    results = queue.SimpleQueue()  # (index, report or exception), from every worker
    procs, threads = [], []

    def take():
        """The next configuration index, or None once none is left."""
        with lock:
            return untaken.pop(0) if untaken else None

    def finish(index, outcome):
        if isinstance(outcome, BaseException):
            with lock:
                untaken.clear()  # no configuration starts once one has failed
        results.put((index, outcome))

    def serve(proc):
        # One thread per helper: once the helper is ready, and only if a configuration
        # is left, it sends the problem, then a configuration each time the helper is free.
        index = None
        try:
            if proc.stdout.read(1) == _READY and (index := take()) is not None:
                pickle.dump((mu, nu, c, configs), proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            while index is not None:
                proc.stdin.write(pickle.dumps(index))
                proc.stdin.flush()
                finish(index, pickle.load(proc.stdout))
                index = take()
        except Exception as exc:  # the helper was stopped or died, or sent what cannot be read
            if index is not None:
                name = configs[index].algorithm.value
                finish(index, RuntimeError(f"the helper process solving {name} failed: {exc!r}"))
        finally:
            with contextlib.suppress(OSError):  # bytes a dead helper never read
                proc.stdin.close()  # the end of its stdin ends the helper

    try:
        for _ in range(helpers):
            procs.append(subprocess.Popen([sys.executable, "-c", _HELPER.format(sys.path)],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            threads.append(threading.Thread(target=serve, args=(procs[-1],), daemon=True))
            threads[-1].start()
        outcomes = {}
        for index in range(len(configs)):
            while index not in outcomes:
                if results.empty() and (task := take()) is not None:
                    finish(task, _attempt(solve, mu, nu, c, configs[task]))
                key, outcome = results.get()
                outcomes[key] = outcome
            outcome = outcomes.pop(index)
            if isinstance(outcome, BaseException):
                raise outcome
            done(outcome)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
        for thread in threads:
            thread.join()
        for proc in procs:
            proc.stdout.close()
