import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance
from qrot import (
    DualPotentials,
    build_hessian,
    dual_gradients,
    dual_objective,
    duality_gap,
    exact_solve,
    preconditioner_apply,
    recover_plan,
    support_mask,
)
from qrot.core import DOT_CHUNK, marginal_residuals, marginals, vdot
from qrot.dual import _BLOCK_CELLS, _TILE_COLS, _block_rows, _tile_minima

C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
HALF = np.array([0.5, 0.5])


def pot(a, b):
    return DualPotentials(np.asarray(a, float), np.asarray(b, float))


def test_recover_plan_examples():
    assert np.allclose(recover_plan(pot([1.0], [0.0]), [[0.0]], 1.0), [[1.0]])
    # diagonal 1/2 - 0 survives, off-diagonal 1/2 - 1 is clipped
    assert np.allclose(recover_plan(pot([0.25, 0.25], [0.25, 0.25]), C2, 1.0), 0.5 * np.eye(2))
    assert np.all(recover_plan(pot([-1.0, -1.0], [-1.0, -1.0]), C2, 1.0) == 0.0)
    # a cost that broadcasts to (N, M) is taken as its broadcast, and one that does not is refused
    assert np.array_equal(recover_plan(pot([1.0, 2.0], [0.0]), 0.5, 1.0), [[0.5], [1.5]])
    with pytest.raises(ValueError):
        recover_plan(pot([0.0, 0.0], [0.0, 0.0]), np.zeros((3, 2)), 1.0)


def test_recover_plan_into_buffer(rng):
    _, _, c = random_instance(rng, 6, 7)
    p = pot(rng.normal(size=6), rng.normal(size=7))
    buf = np.full((6, 7), np.nan)
    assert recover_plan(p, c, 0.7, out=buf) is buf
    assert np.array_equal(buf, recover_plan(p, c, 0.7))
    assert np.array_equal(buf, np.maximum(p.alpha[:, None] + p.beta[None, :] - c, 0.0) / 0.7)


@pytest.mark.parametrize("n, m, theta", [
    (2 * (_BLOCK_CELLS // 700) + 5, 700, 0.3),  # a last block of 5 rows, shorter than the others
    (1, 900, 0.3),  # a single row
    (3, _BLOCK_CELLS + 7, 0.3),  # a row longer than a block: one row per block
    (40, 50, -2.0),  # every value is at most 1, so no cell passes -theta = 2
])
def test_recover_plan_selects_the_cells_within_reach(rng, n, m, theta):
    # the sweep that selects cells leaves the plan bit for bit as it is, and
    # gathers every cell whose value before the clip, rounded as the plan
    # rounds it, exceeds -theta, in row-major order
    c = rng.uniform(0.0, 1.0, (n, m))
    p = pot(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, m))
    plan = recover_plan(p, c, 0.7)
    buf = np.full((n, m), np.nan)
    got, cells = recover_plan(p, c, 0.7, out=buf, reach=theta)
    assert got is buf and np.array_equal(buf, plan)
    expected = np.flatnonzero((p.beta + p.alpha[:, None]) - c > -theta)
    assert cells.dtype == np.intp and np.array_equal(cells, expected)
    assert (cells.size == 0) == (theta < 0)
    # a limit the cells stay within changes nothing
    got, within = recover_plan(p, c, 0.7, reach=theta, limit=expected.size)
    assert np.array_equal(got, plan) and np.array_equal(within, expected)


def test_recover_plan_stops_selecting_past_its_limit(rng):
    # rows 0-9 hold no cell within reach and every later row is all within
    # it, so the selection passes the limit in the second block.  The sweep
    # keeps the cells of the blocks up to that one, more than the limit,
    # gathers none of the third, and still finishes the whole plan
    m = 1000
    rows = _BLOCK_CELLS // m  # rows per block
    n = 3 * rows
    c = rng.uniform(0.0, 0.1, (n, m))
    p = pot(np.where(np.arange(n) < 10, -5.0, 0.0), np.zeros(m))
    limit = rows * m
    plan, cells = recover_plan(p, c, 0.5, reach=1.0, limit=limit)
    assert np.array_equal(plan, recover_plan(p, c, 0.5))
    assert cells.size == (2 * rows - 10) * m > limit
    assert np.array_equal(cells, np.arange(10 * m, 2 * rows * m))


@pytest.mark.parametrize("n, m", [
    (40, 50),  # one block
    (2 * (_BLOCK_CELLS // 700) + 5, 700),  # several blocks, the last of 5 rows
    (3, _BLOCK_CELLS + 7),  # a row longer than a block: one row per block
    (1, 900),  # a single row
])
@pytest.mark.parametrize("select", [None, "reach", "limit"])
def test_recover_plan_sums_are_the_marginals_bit_for_bit(rng, n, m, select):
    # the sweep's row sums reduce each row alone, and its column sums carry
    # the running sums through the row above each block, so both are
    # core.marginals of the plan bit for bit, whether the sweep selects
    # cells or not, and the carried row is restored
    c = rng.uniform(0.0, 1.0, (n, m))
    p = pot(rng.uniform(-0.5, 0.5, n), rng.lognormal(-1.0, 2.0, m) - 0.4)  # terms of many magnitudes
    plan = recover_plan(p, c, 0.7)
    assert 0 < np.count_nonzero(plan) < plan.size
    kwargs = {"reach": 0.2, "limit": None if select == "reach" else n * m // 10} if select else {}
    row, col = np.full(n, np.nan), np.full(m, np.nan)
    got = recover_plan(p, c, 0.7, out=np.full((n, m), np.nan), sums=(row, col), **kwargs)
    assert np.array_equal(got[0] if select else got, plan)
    want_row, want_col = marginals(plan)
    assert np.array_equal(row, want_row) and np.array_equal(col, want_col), (n, m, select)


def banded_case(n, m, width=1e-4):
    """Squared distances between two grids on [0, 1] and constant
    potentials that make the plan a band around the diagonal, of cells
    with ``(x - y)**2 < 2 width``."""
    x, y = np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, m)
    return pot(np.full(n, width), np.full(m, width)), np.square(x[:, None] - y[None, :])


def tile_case(name):
    """``(potentials, cost, the (N, M) cost its tile minima are taken of,
    reach, limit)`` of one case of the tiled sweep."""
    many = 8 * (_BLOCK_CELLS // 700) + 5  # nine blocks, the last of 5 rows
    if name == "short last block":
        p, c = banded_case(many, 700)
        return p, c, c, 0.01, None
    if name == "one row per block":  # M > 2**16
        p, c = banded_case(3, _BLOCK_CELLS + 7)
        return p, c, c, 0.01, None
    if name == "one row":
        p, c = banded_case(1, 900)
        return p, c, c, 0.01, None
    if name == "dead blocks":  # a block-diagonal cost, and no cell of the middle blocks within reach
        blocks = np.arange(many) * 4 // many
        c = np.where(blocks[:, None] == np.arange(700) * 4 // 700, 0.0, 1.0)
        alpha = np.where((blocks == 1) | (blocks == 2), -1.0, 0.25)
        return pot(alpha, np.full(700, 0.25)), c, c, 0.5, None
    if name == "negative costs":
        p, c = banded_case(many, 700)
        return pot(p.alpha - 0.5, p.beta), c - 0.5, c - 0.5, 0.01, None
    if name == "broadcast cost":  # one cost row for every row, and potentials that rise down the rows
        y = np.linspace(0.0, 1.0, 700)
        row = np.square(y - 0.5)[None, :]
        return pot(np.linspace(-0.3, 0.01, many), np.zeros(700)), row, np.broadcast_to(row, (many, 700)), 0.01, None
    if name == "not finite":
        p, c = banded_case(many, 700)
        alpha, beta = p.alpha.copy(), p.beta.copy()
        alpha[3], alpha[5], alpha[500], beta[650] = np.nan, np.inf, -np.inf, -np.inf
        return pot(alpha, beta), c, c, 0.01, None
    if name == "wide band":  # each block skips tiles, but the sweep less than half its cells
        p, c = banded_case(many, 700, 0.008)
        return p, c, c, 0.01, None
    if name == "no reach":
        p, c = banded_case(many, 700)
        return p, c, c, None, None
    if name == "limit trips":  # the selection passes the limit in a middle block
        p, c = banded_case(many, 700)
        cells = np.flatnonzero((p.beta + p.alpha[:, None]) - c > -0.01)
        return p, c, c, 0.01, int(cells.size * 0.4)
    raise AssertionError(name)


def sweep(p, c, gamma, out, reach, limit, tiles=None):
    """``(plan, cells, row, col)`` of one sweep into ``out``."""
    n, m = out.shape
    row, col = np.full(n, np.nan), np.full(m, np.nan)
    got = recover_plan(p, c, gamma, out=out, reach=reach, limit=limit, sums=(row, col), tiles=tiles)
    plan, cells = got if reach is not None else (got, None)
    assert plan is out
    return plan, cells, row, col


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


TILE_CASES = ["short last block", "one row per block", "one row", "dead blocks", "negative costs",
              "broadcast cost", "not finite", "wide band", "no reach", "limit trips"]


@pytest.mark.parametrize("name", TILE_CASES)
def test_tiled_sweep_is_the_untiled_one_bit_for_bit(name):
    # tiles whose least cost proves their plan zero are skipped, yet the
    # plan (into a buffer of NaNs), the cells in order and both sums are
    # those of the sweep without tiles, bit for bit
    p, c, full, reach, limit = tile_case(name)
    n, m = full.shape
    with np.errstate(invalid="ignore"):
        want = sweep(p, c, 0.7, np.full((n, m), np.nan), reach, limit)
        blocks = -(-n // _block_rows(m))
        spans = [(0, m)] * blocks
        got = sweep(p, c, 0.7, np.full((n, m), np.nan), reach, limit, tiles=(_tile_minima(full), spans))
    assert_same_bits(got, want)
    assert 0 < np.count_nonzero(want[0]) < n * m
    if limit is not None:
        assert limit < want[1].size < np.count_nonzero((p.beta + p.alpha[:, None]) - c > -reach)
    # each block records the span it wrote, and most skip some tile, but
    # not where the sweep has one block or would skip less than half its
    # cells
    assert len(spans) == blocks
    skipped = sum(a > 0 or z < m for a, z in spans)
    assert skipped == 0 if name in ("one row", "wide band") else skipped > blocks // 2, spans
    if name == "dead blocks":
        assert (0, 0) in spans


@pytest.mark.parametrize("shift", [0.3, -0.15])
def test_tiled_sweep_zeroes_the_cells_a_moved_span_leaves(shift):
    # the second sweep into the same buffer, on a cost whose band lies
    # shift off the diagonal, writes +0.0 over the columns the first one's
    # spans left nonzero and its own leave out, also over whole blocks the
    # band has left
    n, m = 8 * (_BLOCK_CELLS // 700) + 5, 700
    p, c = banded_case(n, m)
    spans = [(0, m)] * -(-n // _block_rows(m))
    buf = np.full((n, m), np.nan)
    first = sweep(p, c, 0.7, buf, 0.01, None, tiles=(_tile_minima(c), spans))
    assert_same_bits(first, sweep(p, c, 0.7, np.empty((n, m)), 0.01, None))
    x, y = np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, m)
    moved = np.square(x[:, None] - y[None, :] - shift)
    old = list(spans)
    got = sweep(p, moved, 0.7, buf, 0.01, None, tiles=(_tile_minima(moved), spans))
    assert all(new != was for new, was in zip(spans, old)) and (0, 0) in spans, (old, spans)
    assert_same_bits(got, sweep(p, moved, 0.7, np.full((n, m), np.nan), 0.01, None))


@pytest.mark.parametrize("name", ["short last block", "one row", "dead blocks", "no reach", "limit trips"])
def test_a_sweep_into_a_new_buffer_rewrites_stale_spans(name, monkeypatch):
    # out=None: the sweep knows nothing of the new buffer, so it takes the
    # stale spans it is given (here, every block dead) as whole and
    # rewrites them to the spans of a sweep into a fresh buffer.  The
    # buffer starts as NaN, so a cell left unwritten would show, yet plan,
    # cells and sums are the untiled sweep's bit for bit
    p, c, full, reach, limit = tile_case(name)
    n, m = full.shape
    blocks = -(-n // _block_rows(m))
    with np.errstate(invalid="ignore"):
        want = sweep(p, c, 0.7, np.full((n, m), np.nan), reach, limit)
        fresh = [(0, m)] * blocks
        sweep(p, c, 0.7, np.full((n, m), np.nan), reach, limit, tiles=(_tile_minima(full), fresh))
        empty = np.empty

        def nans(shape, dtype=float, **kwargs):
            out = empty(shape, dtype, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nans)
        spans = [(0, 0)] * blocks
        row, col = np.full(n, np.nan), np.full(m, np.nan)
        got = recover_plan(p, c, 0.7, reach=reach, limit=limit, sums=(row, col), tiles=(_tile_minima(full), spans))
    monkeypatch.undo()
    assert_same_bits((got if reach is not None else (got, None)) + (row, col), want)
    assert spans == fresh and (blocks == 1 or fresh != [(0, m)] * blocks), (spans, fresh)


def test_a_sweep_of_one_block_leaves_the_spans_as_given():
    # a sweep of one block has no tile to skip: it recovers every cell of
    # out, and the spans, which no sweep of out reads, stay as they are
    p, c, full, reach, limit = tile_case("one row")
    m = full.shape[1]
    assert _block_rows(m) >= full.shape[0]
    for spans in ([(0, m)], [(0, 0)], [(64, 128)]):
        given = list(spans)
        got = sweep(p, c, 0.7, np.full(full.shape, np.nan), reach, limit, tiles=(_tile_minima(full), spans))
        assert_same_bits(got, sweep(p, c, 0.7, np.full(full.shape, np.nan), reach, limit))
        assert spans == given


def test_tile_minima_are_the_least_cost_of_each_tile(rng):
    n, m = 2 * (_BLOCK_CELLS // 700) + 5, 700
    c = rng.normal(size=(n, m))
    rows = _block_rows(m)
    least = _tile_minima(c)
    assert least.shape == (-(-n // rows), -(-m // _TILE_COLS))
    for b, t in np.ndindex(least.shape):
        assert least[b, t] == c[b * rows : (b + 1) * rows, t * _TILE_COLS : (t + 1) * _TILE_COLS].min()
    assert least.min() == c.min()
    c[5, 600] = np.nan
    assert np.isnan(_tile_minima(c)[0, 600 // _TILE_COLS]) and np.isnan(_tile_minima(c).min())


def test_recover_plan_scales_with_gamma(rng):
    mu, nu, c = random_instance(rng)
    a = rng.normal(size=mu.size)
    b = rng.normal(size=nu.size)
    p1 = recover_plan(pot(a, b), c, 1.0)
    p4 = recover_plan(pot(a, b), c, 4.0)
    assert np.allclose(p1, 4.0 * p4)
    assert (p4 >= 0).all()


def test_dual_objective_examples():
    assert dual_objective(pot([0.0, 0.0], [0.0, 0.0]), C2, 1.0, HALF, HALF) == 0.0
    assert dual_objective(pot([0.25, 0.25], [0.25, 0.25]), C2, 1.0, HALF, HALF) == pytest.approx(-0.25)
    assert dual_objective(pot([1.0], [0.0]), [[0.0]], 1.0, [1.0], [1.0]) == pytest.approx(-0.5)


def test_dual_gradients_examples():
    ga, gb = dual_gradients(pot([0.0, 0.0], [0.0, 0.0]), C2, 1.0, HALF, HALF)
    assert np.allclose(ga, [-0.5, -0.5]) and np.allclose(gb, [-0.5, -0.5])

    ga, gb = dual_gradients(pot([1.0], [0.0]), [[0.0]], 1.0, [1.0], [1.0])
    assert np.allclose(ga, [0.0]) and np.allclose(gb, [0.0])


def test_dual_gradients_are_the_scaled_marginal_residuals_bit_for_bit(rng):
    # the sums come from the recovery's sweep, one block and several
    for n, m in ((6, 7), (2 * (_BLOCK_CELLS // 700) + 5, 700)):
        mu, nu, c = random_instance(rng, n, m)
        p = pot(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, m))
        ga, gb = dual_gradients(p, c, 0.7, list(mu), nu)
        f, g = marginal_residuals(recover_plan(p, c, 0.7), mu, nu)
        assert ga.tobytes() == (0.7 * f).tobytes() and gb.tobytes() == (0.7 * g).tobytes()


def test_dual_gradients_vanish_at_oracle_potentials(rng):
    for _ in range(5):
        mu, nu, c = random_instance(rng)
        _, pot_star = exact_solve(mu, nu, c, 1.0)
        ga, gb = dual_gradients(pot_star, c, 1.0, mu, nu)
        assert np.abs(ga).max() < 1e-10 and np.abs(gb).max() < 1e-10


def test_gradients_match_finite_differences(rng):
    h = 1e-6
    checked = 0
    while checked < 25:
        mu, nu, c = random_instance(rng)
        a = rng.normal(scale=0.5, size=mu.size)
        b = rng.normal(scale=0.5, size=nu.size)
        edge = a[:, None] + b[None, :] - c
        if np.abs(edge).min() < 1e-4:  # stay off the kink
            continue
        checked += 1
        ga, gb = dual_gradients(pot(a, b), c, 1.0, mu, nu)
        for i in range(a.size):
            ap, am = a.copy(), a.copy()
            ap[i] += h
            am[i] -= h
            fd = (dual_objective(pot(ap, b), c, 1.0, mu, nu) - dual_objective(pot(am, b), c, 1.0, mu, nu)) / (2 * h)
            assert ga[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        for j in range(b.size):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            fd = (dual_objective(pot(a, bp), c, 1.0, mu, nu) - dual_objective(pot(a, bm), c, 1.0, mu, nu)) / (2 * h)
            assert gb[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_dual_objective_is_convex(rng):
    mu, nu, c = random_instance(rng, 3, 4)
    for _ in range(30):
        a1, a2 = rng.normal(size=(2, 3))
        b1, b2 = rng.normal(size=(2, 4))
        t = rng.uniform()
        lhs = dual_objective(pot(t * a1 + (1 - t) * a2, t * b1 + (1 - t) * b2), c, 1.0, mu, nu)
        rhs = t * dual_objective(pot(a1, b1), c, 1.0, mu, nu) + (1 - t) * dual_objective(
            pot(a2, b2), c, 1.0, mu, nu
        )
        assert lhs <= rhs + 1e-10


def test_constant_shift_gauge_invariance(rng):
    mu, nu, c = random_instance(rng, 3, 3)
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    base = dual_objective(pot(a, b), c, 2.0, mu, nu)
    plan = recover_plan(pot(a, b), c, 2.0)
    for s in (-3.0, 0.5, 10.0):
        shifted = pot(a + s, b - s)
        assert dual_objective(shifted, c, 2.0, mu, nu) == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert np.allclose(recover_plan(shifted, c, 2.0), plan)


def test_duality_gap_examples():
    opt = pot([0.25, 0.25], [0.25, 0.25])
    assert duality_gap(opt, 0.5 * np.eye(2), C2, 1.0, HALF, HALF) == pytest.approx(0.0, abs=1e-12)

    product = np.outer(HALF, HALF)
    assert duality_gap(pot([0.0, 0.0], [0.0, 0.0]), product, C2, 1.0, HALF, HALF) > 0.1

    assert duality_gap(pot([1.0], [0.0]), [[1.0]], [[0.0]], 1.0, [1.0], [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_duality_gap_nonnegative_for_feasible_plans(rng):
    for _ in range(20):
        mu, nu, c = random_instance(rng)
        product = np.outer(mu, nu) / nu.sum()
        a = rng.normal(size=mu.size)
        b = rng.normal(size=nu.size)
        assert duality_gap(pot(a, b), product, c, 1.0, mu, nu) >= -1e-10


def test_preconditioner_examples():
    da, db = preconditioner_apply(np.zeros(3), np.zeros(2))
    assert np.all(da == 0) and np.all(db == 0)

    da, _ = preconditioner_apply(np.ones(2), np.zeros(2))
    assert np.allclose(da, [0.25, 0.25])

    da, db = preconditioner_apply(HALF, HALF)
    assert np.allclose(da, [0.125, 0.125]) and np.allclose(db, [0.125, 0.125])


def explicit_preconditioner(n, m):
    top = m * (np.eye(n) + np.ones((n, n)) / n)
    bottom = n * (np.eye(m) + np.ones((m, m)) / m)
    out = np.zeros((n + m, n + m))
    out[:n, :n] = top
    out[n:, n:] = bottom
    return out


def test_preconditioner_is_exact_inverse(rng):
    for _ in range(20):
        n, m = rng.integers(1, 21, size=2)
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        da, db = preconditioner_apply(f, g)
        back = explicit_preconditioner(n, m) @ np.concatenate([da, db])
        assert np.abs(back - np.concatenate([f, g])).max() < 1e-12


def test_support_mask_includes_the_kink():
    mask = support_mask(pot([0.0, 1.0], [0.0, 0.0]), np.zeros((2, 2)))
    assert mask.all()  # alpha+beta-c == 0 counts as support


def test_build_hessian_examples():
    assert np.array_equal(build_hessian(np.ones((1, 1), bool)), np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.all(build_hessian(np.zeros((2, 3), bool)) == 0.0)

    h = build_hessian(np.eye(2, dtype=bool))
    assert np.array_equal(h[:2, :2], np.eye(2))
    assert np.array_equal(h[2:, 2:], np.eye(2))
    assert np.array_equal(h[:2, 2:], np.eye(2))


def test_build_hessian_size_guard():
    with pytest.raises(ValueError):
        build_hessian(np.ones((150, 51), bool))


def test_hessian_is_second_difference_of_gradient_off_kink(rng):
    # directional check: G @ d approximates the gradient change for small d
    mu, nu, c = random_instance(rng, 3, 3)
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    if np.abs(a[:, None] + b[None, :] - c).min() < 1e-3:
        a = a + 2e-3
    sigma = support_mask(pot(a, b), c)
    G = build_hessian(sigma)
    d = rng.normal(size=6) * 1e-7
    ga0, gb0 = dual_gradients(pot(a, b), c, 1.0, mu, nu)
    ga1, gb1 = dual_gradients(pot(a + d[:3], b + d[3:]), c, 1.0, mu, nu)
    change = np.concatenate([ga1 - ga0, gb1 - gb0])
    assert np.allclose(G @ d, change, atol=1e-12)


def test_vdot_adds_chunks_in_order(rng):
    a, b = rng.normal(size=(2, 4 * DOT_CHUNK + 17))
    assert vdot(a[:DOT_CHUNK], b[:DOT_CHUNK]) == np.vdot(a[:DOT_CHUNK], b[:DOT_CHUNK])
    total = 0.0
    for start in range(0, a.size, DOT_CHUNK):
        total += np.vdot(a[start:start + DOT_CHUNK], b[start:start + DOT_CHUNK])
    assert vdot(a, b) == total
    plan = a[:40000].reshape(200, 200)
    assert vdot(plan.T, plan.T) == vdot(plan.T.copy(), plan.T.copy())  # flattened in C order, as np.vdot does


def test_history_objectives_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits np.vdot over its threads above 10,000 elements; the
    # objectives of a history row must have the same bits on any CPU count
    script = (
        "import numpy as np\n"
        "from qrot import DualPotentials, primal_objective\n"
        "from qrot.dual import dual_value, recover_plan\n"
        "rng = np.random.default_rng(7)\n"
        "c = rng.random((200, 200))\n"
        "mu, nu = np.full(200, 1 / 200), np.full(200, 1 / 200)\n"
        "pot = DualPotentials(rng.random(200), rng.random(200))\n"
        "plan = recover_plan(pot, c, 0.5)\n"
        "print(primal_objective(plan, c, 0.5).hex(), dual_value(pot, c, 0.5, mu, nu).hex())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
