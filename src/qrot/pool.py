"""Several solves of one problem, spread over the CPUs this process may use.

``solve_in_order`` calls ``done(solve(mu, nu, c, config))`` for each
configuration, in order.  With one configuration, or one usable CPU, that is
a plain loop in this process.  Otherwise this process starts solving at
once, and if it is still solving ``START_AFTER_S`` seconds later it is joined
by up to ``min(len(configs), cpus) - 1`` helper processes, one per
configuration nobody has taken yet:

- whichever is free first takes the next configuration, in order, and
  ``done`` sees the reports in that order, each as soon as it and all
  before it are in;
- a helper is started with ``spawn``, never by forking this process, which
  may hold BLAS threads; it receives ``(mu, nu, c)`` once and then one
  configuration index at a time, and it solves with :func:`qrot.solvers.solve`;
- each solve runs the same numpy operations on the same values as the plain
  loop, so each report is bit for bit the plain loop's;
- an exception from a solve is raised at its configuration's turn, after
  ``done`` has seen every report before it, and no configuration is started
  once a failure is known;
- every helper is stopped and joined before ``solve_in_order`` returns or
  raises, and a helper whose parent dies without stopping it ends by itself.

``multiprocessing`` is imported only when helpers are started.
"""

from __future__ import annotations

import os

from . import solvers

# A helper takes about 0.2 s to start (an interpreter plus numpy), and while it
# starts the solves here run slower, by up to 2x at n=1000 on a 2-vCPU host.
# A run whose solves are all done within this many seconds starts none.
START_AFTER_S = 0.5


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
    if helpers < 1:
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


def _helper(conn) -> None:
    """Receive the problem, say it is ready, then solve each configuration
    index handed over ``conn`` and send back the outcome, until handed None."""
    mu, nu, c, configs = conn.recv()
    conn.send(None)
    while (index := conn.recv()) is not None:
        conn.send(_attempt(solvers.solve, mu, nu, c, configs[index]))


def _helper_process(conn) -> None:
    """A helper process.  Ctrl-C is left to the CLI process, which stops its
    helpers; should the CLI process die without stopping them (SIGKILL,
    SIGTERM), a watcher thread ends the helper at once, even mid-solve."""
    import signal
    import threading
    from multiprocessing import connection, parent_process

    def exit_with_parent():
        connection.wait([parent_process().sentinel])
        os._exit(1)

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=exit_with_parent, daemon=True).start()
    _helper(conn)


def _solve_with_helpers(solve, mu, nu, c, configs, helpers, done) -> None:
    import queue
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

    def serve(conn):
        # One thread per helper: it sends the problem, then hands the helper a
        # configuration each time the helper is free.
        index = None
        try:
            conn.send((mu, nu, c, configs))
            conn.recv()
            while (index := take()) is not None:
                conn.send(index)
                finish(index, conn.recv())
            conn.send(None)
        except Exception as exc:  # the helper was stopped or died, or sent what cannot be read
            if index is not None:
                name = configs[index].algorithm.value
                finish(index, RuntimeError(f"the helper process solving {name} failed: {exc!r}"))
        finally:
            conn.close()

    def start_helpers():
        if not untaken:  # this process has taken the last configuration
            return
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        for _ in range(min(helpers, len(untaken))):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_helper_process, args=(child_conn,), daemon=True)
            proc.start()
            child_conn.close()
            procs.append(proc)
            threads.append(threading.Thread(target=serve, args=(conn,), daemon=True))
            threads[-1].start()

    timer = threading.Timer(START_AFTER_S, start_helpers)
    timer.start()
    try:
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
        timer.cancel()
        timer.join()  # a start already under way completes, so its helpers are stopped below
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for thread in threads:
            thread.join()
