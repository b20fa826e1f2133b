"""The run history as one float64 table: :class:`qrot.core.History`, the rows
``solve`` records into it, and the CSV and SVG written from it."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from qrot import Algorithm, ConvergenceReport, DualPotentials, History, HistoryEntry, SolverConfig, solve
from qrot.core import marginals, max_violation, vdot
from qrot.dual import _tile_minima
from qrot.fileio import (
    HISTORY_COLUMNS,
    _MAX_POINTS,
    _thin,
    default_problem,
    realize_problem,
    render_convergence_svg,
    write_history_csv,
)
from qrot.solvers import _quadratic_run, _sinkhorn_run

ROWS = (
    HistoryEntry(1, 0.5, -1.25, 2.0, 3.25, 0.001),
    HistoryEntry(2, -0.0, 5e-324, 1e300, np.float64(2.0 / 3.0), 0.0025),
    HistoryEntry(9, 1e-06, -3.5e-09, 0.1, float("inf"), 1.5),
)

# the stock problem (n=100, squared cost, gamma 10): the four dual methods
# and Sinkhorn there, and Sinkhorn at the benchmark's gamma 0.002 too, whose
# history has hundreds of rows
METHODS = [(alg, 10.0, 1e-5) for alg in Algorithm] + [(Algorithm.SINKHORN, 0.002, 1e-6)]
STRIDES = (1, 7, None)  # None: history off
MAX_ITERS = 2000  # Nesterov and Sinkhorn converge before it, the plain methods stop there


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_history_is_a_sequence_of_rows():
    h = History(ROWS)
    assert len(h) == 3 and h.table.shape == (3, 6) and h.table.flags.c_contiguous
    assert h[0] == ROWS[0] and h[-1] == ROWS[2] and h[np.int64(1)] == ROWS[1]
    assert type(h[-1]) is HistoryEntry and type(h[-1].iteration) is int and type(h[-1].elapsed_s) is float
    for got, want in zip(h, ROWS):
        assert type(got) is HistoryEntry and type(got.iteration) is int
        assert all(type(v) is float for v in got[1:])
        assert np.array_equal(bits(got), bits(want))
    assert math.copysign(1.0, h[1].max_violation) == -1.0 and h[1].dual_objective == 5e-324
    assert list(h) == list(ROWS)
    tail = h[1:]
    assert type(tail) is History and tail == ROWS[1:] and h[::-2] == ROWS[::-2] and h[5:] == ()
    with pytest.raises(IndexError):
        h[3]
    assert ROWS[2] in h and h.index(ROWS[1]) == 1


def test_history_equals_the_tuple_of_its_rows():
    h = History(ROWS)
    assert h == tuple(h) == ROWS and tuple(h) == h and h == list(ROWS)
    assert h != ROWS[:2] and h != () and h != "abc"
    assert History() == () and () == History() and History([]) == History(np.empty((0, 6)))
    assert History(ROWS) == History(h.table)


def test_history_table_is_read_only():
    source = np.array(ROWS, dtype=float)
    h = History(source)
    assert np.asarray(h) is h.table and np.asarray(h, dtype=float) is h.table
    assert not h.table.flags.writeable
    with pytest.raises(ValueError):
        np.asarray(h)[0, 0] = 7.0
    assert source.flags.writeable  # the caller's array keeps its own flag
    copy = np.array(h)
    copy[0, 0] = 7.0
    assert h[0].iteration == 1


def test_history_pickles_every_bit():
    h = History(np.concatenate([np.array(ROWS), [[2.0**53, math.nan, -math.inf, -0.0, 5e-324, 1e-310]]]))
    back = pickle.loads(pickle.dumps(h, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is History and not back.table.flags.writeable
    assert np.array_equal(bits(back.table), bits(h.table))
    assert back[-1].iteration == 2**53
    report = ConvergenceReport(Algorithm.NESTEROV, 9, True, np.zeros((1, 1)),
                               DualPotentials(np.zeros(1), np.zeros(1)), h)
    assert np.array_equal(bits(pickle.loads(pickle.dumps(report)).history.table), bits(h.table))
    # the report pickles its table, not one object per row
    assert len(pickle.dumps(History(np.zeros((1000, 6))))) < 48 * 1000 + 200


def reference_rows(mu, nu, c, config):
    """The rows ``solve`` records, as its loop appended them one
    :class:`HistoryEntry` at a time, driving the same run builders.  A
    Sinkhorn row takes its violation and bounds from the sums of its plan
    afresh.  ``elapsed_s`` is left 0.0."""
    gamma, alg = config.gamma, config.algorithm
    if alg is Algorithm.SINKHORN:
        advance, _, result = _sinkhorn_run(c, gamma, mu, nu, config.tol)

        def row_of(it, viol):
            plan, (alpha, beta) = result()
            row, col = marginals(plan)
            mass = gamma * plan.sum()
            dual = float(vdot(alpha, mu) + vdot(beta, nu) - mass)
            primal = float(vdot(alpha, row) + vdot(beta, col) - mass)
            return HistoryEntry(it, max_violation(plan, mu, nu), dual, primal, primal - dual, 0.0)
    else:
        advance, bounds, _ = _quadratic_run(alg, c, gamma, mu, nu, config.tau, config.tol,
                                            _tile_minima(c), float(c.max()))

        def row_of(it, viol):
            dual, primal = bounds()
            return HistoryEntry(it, viol, dual, primal, primal - dual, 0.0)
    rows = []
    for it in range(1, config.max_iters + 1):
        plan_due = it == config.max_iters or (config.record_history and it % config.history_stride == 0)
        viol = advance(plan_due)
        converged = viol <= config.tol
        if config.record_history and (converged or plan_due):
            rows.append(row_of(it, viol))
        if converged:
            break
    return rows


@pytest.fixture(scope="module")
def runs():
    """``(config, report)`` of each method of ``METHODS`` at each of ``STRIDES``."""
    mu, nu, c = realize_problem(default_problem())
    mu, nu = mu.w, nu.w
    out = []
    for alg, gamma, tol in METHODS:
        for stride in STRIDES:
            config = SolverConfig(gamma, alg, tol=tol, max_iters=MAX_ITERS,
                                  record_history=stride is not None, history_stride=stride or 1)
            out.append((config, solve(mu, nu, c, config), (mu, nu, c)))
    return out


def test_solve_records_the_rows_of_the_reference_loop(runs):
    for config, report, (mu, nu, c) in runs:
        what = (config.algorithm, config.gamma, config.history_stride, config.record_history)
        rows = reference_rows(mu, nu, c, config)
        history = report.history
        assert type(history) is History and history.table.dtype == np.float64, what
        assert not history.table.flags.writeable and history.table.flags.c_contiguous, what
        assert len(history) == len(rows), what
        assert np.array_equal(bits(history.table[:, :5]), bits(np.reshape(rows, (-1, 6))[:, :5])), what
        assert [row[:5] for row in history] == [row[:5] for row in rows], what
        assert all(type(row.iteration) is int and all(type(v) is float for v in row[1:]) for row in history), what
        elapsed = history.table[:, 5]
        assert (elapsed >= 0).all() and (np.diff(elapsed) >= 0).all(), what
        if config.record_history:
            assert history[-1].iteration == report.iterations, what
            assert history == tuple(history), what
        else:
            assert history == () and history.table.shape == (0, 6), what
    lengths = {(config.algorithm, config.gamma, config.history_stride): len(report.history)
               for config, report, _ in runs if config.record_history}
    assert lengths[Algorithm.DUAL_GRADIENT, 10.0, 1] == MAX_ITERS
    assert lengths[Algorithm.SINKHORN, 0.002, 1] > 100


def plain_history_csv(report, gamma, tol):
    """The run record as its writer formatted it one row at a time."""
    rows = "".join(
        f"{row.iteration},{float(row.max_violation)!r},{float(row.dual_objective)!r},"
        f"{float(row.primal_objective)!r},{float(row.duality_gap)!r},{float(row.elapsed_s * 1000.0)!r}\n"
        for row in report.history
    )
    footer = "".join(f"# {key},{value},,,,\n" for key, value in (
        ("algorithm", report.algorithm.value),
        ("converged", str(report.converged).lower()),
        ("iterations", str(report.iterations)),
        ("gamma", repr(float(gamma))),
        ("tol", repr(float(tol))),
    ))
    return (",".join(HISTORY_COLUMNS) + "\n" + rows + footer).encode("utf-8")


def test_history_csv_is_byte_identical_to_plain_rows(runs, tmp_path):
    for config, report, _ in runs:
        write_history_csv(tmp_path / "h.csv", report, config.gamma, config.tol)
        assert (tmp_path / "h.csv").read_bytes() == plain_history_csv(report, config.gamma, config.tol)
        # the same bytes from the tuple of its rows
        rows = dataclasses.replace(report, history=tuple(report.history))
        write_history_csv(tmp_path / "t.csv", rows, config.gamma, config.tol)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "h.csv").read_bytes()


def test_convergence_svg_of_a_history_is_that_of_its_rows(runs, tmp_path):
    series = [(f"{config.algorithm.value}-{k}", report.history)
              for k, (config, report, _) in enumerate(runs) if config.record_history]
    render_convergence_svg(series, tmp_path / "h.svg")
    render_convergence_svg([(label, tuple(h)) for label, h in series], tmp_path / "t.svg")
    assert (tmp_path / "h.svg").read_bytes() == (tmp_path / "t.svg").read_bytes()


def plain_thin(pairs):
    """The points a curve kept when it was thinned as a list of pairs."""
    if len(pairs) <= _MAX_POINTS:
        return pairs
    stride = -(-len(pairs) // _MAX_POINTS)
    kept = pairs[::stride]
    if kept[-1] != pairs[-1]:
        kept.append(pairs[-1])
    return kept


def thin_cases(n, rng):
    """``(iterations, violations)`` of ``n`` points: increasing iterations
    with random violations, violations all clamped, a NaN last, and a last
    point that repeats the last one a thinned curve keeps."""
    iterations = np.arange(1.0, n + 1)
    violations = rng.lognormal(-10.0, 3.0, n)
    yield iterations, violations
    yield iterations, np.full(n, 1e-20)
    yield iterations, np.where(iterations == n, math.nan, violations)
    last_kept = (n - 1) // -(-n // _MAX_POINTS) * -(-n // _MAX_POINTS)
    repeated = np.arange(n) >= last_kept
    yield np.where(repeated, iterations[last_kept], iterations), np.where(repeated, violations[last_kept], violations)


@pytest.mark.parametrize("n", [1, _MAX_POINTS, _MAX_POINTS + 1, 2 * _MAX_POINTS + 1, 43_651, 86_000])
def test_thin_keeps_the_points_of_the_pair_list(n, rng):
    for iterations, violations in thin_cases(n, rng):
        points = np.stack((iterations, np.maximum(violations, 1e-16)))
        want = plain_thin(list(zip(*points.tolist())))
        assert np.array_equal(bits(list(zip(*_thin(points).tolist()))), bits(want)), n
