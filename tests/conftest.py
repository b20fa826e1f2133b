import subprocess

import numpy as np
import pytest


def random_instance(rng, n=None, m=None, lo=0.2):
    """Strictly positive unit-mass marginals and a cost matrix in [0, 1]."""
    if n is None:
        n = int(rng.integers(2, 5))
    if m is None:
        m = int(rng.integers(2, 5))
    mu = rng.uniform(lo, 1.0, n)
    mu /= mu.sum()
    nu = rng.uniform(lo, 1.0, m)
    nu /= nu.sum()
    c = rng.uniform(0.0, 1.0, (n, m))
    return mu, nu, c


def count_dense_recoveries(monkeypatch):
    """Route ``qrot.solvers.recover_plan`` through a counter; returns the
    one-element list that holds the count."""
    from qrot import recover_plan

    count = [0]

    def counted(pot, c, gamma, out=None, **kwargs):
        count[0] += 1
        return recover_plan(pot, c, gamma, out=out, **kwargs)

    monkeypatch.setattr("qrot.solvers.recover_plan", counted)
    return count


def record_processes(monkeypatch):
    """The processes started through subprocess.Popen from now on, as a list.
    ``qrot.pool`` and ``qrot.fileio`` start their helper processes through it."""
    started = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


def running(started):
    """The processes of ``started`` that have not exited."""
    return [proc for proc in started if proc.poll() is None]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
