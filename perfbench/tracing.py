"""Spans around qrot's public functions, recorded from outside the package.

The tracer wraps functions at the module attributes through which qrot
calls them, so a span opens and closes around every call the solve loop,
the CLI and the file layer make.  Spans (name, start, end, parent) are
kept in flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Step functions get one name per method.
PATCHES = (
    ("qrot.solvers", "recover_plan", "dual.recover_plan"),
    ("qrot.solvers", "max_violation", "core.max_violation"),
    ("qrot.solvers", "preconditioner_apply", "dual.preconditioner_apply"),
    ("qrot.solvers", "sinkhorn_plan", "solvers.sinkhorn_plan"),
    ("qrot.solvers", "cyclic_projection_step", "solvers.step:cyclic_projection"),
    ("qrot.solvers", "gradient_step", "solvers.step:dual_gradient"),
    ("qrot.solvers", "fixed_point_step", "solvers.step:fixed_point"),
    ("qrot.solvers", "nesterov_step", "solvers.step:nesterov"),
    ("qrot.solvers", "sinkhorn_step", "solvers.step:sinkhorn"),
    ("qrot.cli", "write_matrix", "fileio.write_matrix"),
    ("qrot.cli", "write_vector", "fileio.write_vector"),
    ("qrot.cli", "write_history_csv", "fileio.write_history_csv"),
    ("qrot.cli", "render_convergence_svg", "fileio.render_convergence_svg"),
    ("qrot.cli", "save_problem", "fileio.save_problem"),
    ("qrot.cli", "load_problem", "fileio.load_problem"),
    ("qrot.cli", "realize_problem", "fileio.realize_problem"),
    ("qrot.fileio", "cost_matrix", "problems.cost_matrix"),
    ("qrot.fileio", "mixture_marginal", "problems.mixture_marginal"),
)


def solve_span(method: str) -> str:
    return f"solvers.solve:{method}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def traced(mu, nu, c, config):
            return self.call(solve_span(config.algorithm.value), fn, mu, nu, c, config)

        return traced

    @contextmanager
    def installed(self):
        """Patch qrot's module attributes for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            cli = importlib.import_module("qrot.cli")
            saved.append((cli, "solve", cli.solve))
            cli.solve = self._wrap_solve(cli.solve)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def table(self):
        """Spans as numpy arrays: name id, parent, duration, self time, root span."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        root = np.where(has_parent, parent, np.arange(parent.size))
        while True:  # pointer jumping; spans nest a handful of levels deep
            up = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(up, root):
                break
            root = up
        return {"name": name_id, "parent": parent, "dur": dur, "self": dur - covered, "root": root}

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
