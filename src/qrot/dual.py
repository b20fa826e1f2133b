"""Dual objective of the quadratically regularized problem, its gradients,
plan recovery, duality gap, and the preconditioner / Hessian algebra used
by the fixed-point iteration.

The dual pair (alpha, beta) determines a candidate plan through
``pi = max(alpha (+) beta - c, 0) / gamma`` where ``(+)`` is the outer sum.
Minimizing

    F(alpha, beta) = 0.5 ||max(alpha (+) beta - c, 0)||_F^2
                     - gamma <alpha, mu> - gamma <beta, nu>

over all potentials is equivalent to the primal problem; at a minimizer the
recovered plan has the prescribed marginals.
"""

from __future__ import annotations

import numpy as np

from .core import as_weights, primal_objective, vdot

__all__ = [
    "build_hessian",
    "dual_gradients",
    "dual_objective",
    "duality_gap",
    "preconditioner_apply",
    "recover_plan",
    "support_mask",
]

# Materializing the Hessian is a test/diagnostic utility only.
HESSIAN_SIZE_LIMIT = 200
# cells per block of recover_plan's sweep: a block is finished while it sits
# in cache, and a selection tests one block at a time
_BLOCK_CELLS = 1 << 16
# columns per tile of the sweep, whose least cost may prove its plan zero
_TILE_COLS = 64


def _block_rows(m):
    """Rows per block of :func:`recover_plan`'s sweep over ``M`` columns."""
    return max(1, _BLOCK_CELLS // max(m, 1))


def _tile_minima(c):
    """The least cost of each tile of :func:`recover_plan`'s sweep over the
    ``(N, M)`` cost ``c``: its blocks of rows by ``_TILE_COLS`` columns, as
    a ``(blocks, tiles)`` array, NaN where a tile holds a NaN.  The least
    of them all is ``c.min()``."""
    c = np.asarray(c, dtype=float)
    n, m = c.shape
    rows = _block_rows(m)
    starts = range(0, n, rows)
    blocks = np.empty((len(starts), m))
    for k, r0 in enumerate(starts):  # a block at a time runs faster than reduceat over rows
        np.minimum.reduce(c[r0 : r0 + rows], axis=0, out=blocks[k])
    return np.minimum.reduceat(blocks, np.arange(0, m, _TILE_COLS), axis=1)


def recover_plan(pot, c, gamma: float, out=None, *, reach=None, limit=None, sums=None, tiles=None):
    """Plan induced by potentials: ``max(alpha[i] + beta[j] - c[i, j], 0) / gamma``.

    ``out`` may pass a float ``(N, M)`` array to hold the plan; it is
    overwritten and returned, and no other ``N x M`` array is allocated.
    The result is bit for bit the same with or without ``out``.

    The plan is recovered in one sweep over blocks of rows of about 2**16
    cells (one row where ``M`` is larger), each finished before the next
    is read.  With ``reach=theta`` the sweep also selects cells and returns
    ``(plan, cells)``: ``cells`` holds the flat row-major indices, in
    increasing order, of the cells whose value before the clip,
    ``alpha[i] + beta[j] - c[i, j]`` as the plan rounds it, exceeds
    ``-theta``.  With ``limit`` as well the sweep stops selecting in the
    block where the cells it has gathered first number more than
    ``limit``; ``cells`` then holds those of the blocks up to that one,
    more than ``limit`` of them, and the plan is finished all the same.

    With ``sums=(row, col)``, two float arrays of ``N`` and ``M`` values,
    the sweep also writes the plan's row and column sums into them, bit for
    bit those of :func:`qrot.core.marginals`, while each block sits in
    cache.  A row sum reduces its row alone, as ``plan.sum(axis=1)`` does.
    ``plan.sum(axis=0)`` adds the rows of the C-contiguous plan one after
    another, so each block's column sums continue the running ones: the
    block's first row is added to ``col`` through the finished row above
    it, which holds ``col`` for the one reduction and is then restored.

    With ``tiles=(least, spans)`` a sweep of more than one block skips the
    tiles, ``_TILE_COLS`` columns of a block, whose plan is provably zero.
    ``least`` is :func:`_tile_minima` of ``c``, and ``spans`` a list of one
    ``(lo, hi)`` per block: outside columns ``lo:hi`` of its block, ``out``
    holds ``+0.0``, so ``(0, M)`` where its content is not known, as for a
    new buffer (``out=None``), where the sweep first sets every span so.
    The sweep keeps ``spans`` so for the next call on ``out``; a sweep of
    one block leaves them as they are, as no sweep of ``out`` reads them.
    A sweep without ``tiles``, or of one block, runs the same loop body
    over whole spans, ``(0, M)`` for every block.  A tile is
    dead where ``top = (max beta over the tile + max alpha over the block) -
    least`` is at most ``-theta`` and at most 0 (at most 0 without a reach).
    Rounding is monotone, so each rounded ``beta[j] + alpha[i] - c[i, j]``
    of the tile is at most ``top``: none is selected, and each clips to
    ``+0.0``, also at ``-0.0``.  A NaN anywhere in ``top`` keeps the tile
    live.  A block's live span runs from the first column of its first live
    tile to the last of its last.  A block whose span leaves out at least
    half its columns is recovered over that span alone, dead tiles inside it
    included, provided the spans leave out at least half the sweep's cells;
    every other block is recovered whole, since strided passes over a span
    cost more per cell.  A block recovered over its span writes ``+0.0``
    over the rest of its old span and takes its row sums as above, over
    whole rows; its column sums continue over the span alone, as the rows
    add ``+0.0`` elsewhere, which leaves every partial sum as it is (no
    recovered cell is ``-0.0``).  A block with no live tile writes ``0.0``
    row sums without reading ``out``.  So plan, cells and sums are bit for
    bit those of the sweep without tiles.
    """
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    c = np.asarray(c, dtype=float)
    alpha, beta = (np.asarray(x, dtype=float) for x in pot)
    n, m = alpha.size, beta.size
    if c.shape != (n, m):  # the blocks slice rows of c, so broadcast it first; raises where it does not fit
        c = np.broadcast_to(c, (n, m))
    rows = _block_rows(m)
    starts = range(0, n, rows)
    if out is None:
        out = np.empty((n, m))
        if tiles is not None:
            tiles[1][:] = [(0, m)] * len(starts)
    if tiles is None or n <= rows:  # whole spans; one block has no tile to skip, and the caller's spans stay
        live = spans = [(0, m)] * len(starts)
    else:
        spans = tiles[1]
        live = _live_spans(alpha, beta, tiles[0], rows, reach)
    if sums is not None:
        row, col = sums
        carried = np.empty(m) if n > rows else None  # the row above a block, while it holds col
    parts, size = [], 0
    for b, r0 in enumerate(starts):
        r1 = r0 + rows
        block = out[r0:r1]
        a, z = live[b]
        lo, hi = spans[b]  # +0.0 over the old span's columns the live span leaves out
        if lo < min(hi, a):
            block[:, lo : min(hi, a)] = 0.0
        if max(lo, z) < hi:
            block[:, max(lo, z) : hi] = 0.0
        spans[b] = a, z
        span = block[:, a:z]
        if z > a:
            # beta[j] + alpha[i] is alpha[i] + beta[j] bit for bit, and this
            # order runs faster than np.add.outer
            np.copyto(span, beta[a:z])
            np.add(span, alpha[r0:r1, None], out=span)
            np.subtract(span, c[r0:r1, a:z], out=span)
            if reach is not None and (limit is None or size <= limit):
                cells = np.flatnonzero(span > -reach)
                if z - a < m:  # from the span's flat indices to the plan's
                    cells += (cells // (z - a)) * (m - z + a)
                cells += r0 * m + a
                parts.append(cells)
                size += cells.size
            np.maximum(span, 0.0, out=span)
            np.divide(span, gamma, out=span)
        if sums is None:
            continue
        if z > a:
            np.add.reduce(block, axis=1, out=row[r0:r1])
        else:
            row[r0:r1] = 0.0
        if not r0:
            if z - a < m:
                col.fill(0.0)
            np.add.reduce(span, axis=0, out=col[a:z])
        elif z > a:
            above = out[r0 - 1, a:z]
            held = carried[: z - a]
            np.copyto(held, above)
            np.copyto(above, col[a:z])
            np.add.reduce(out[r0 - 1 : r1, a:z], axis=0, out=col[a:z])
            np.copyto(above, held)
    if reach is None:
        return out
    return out, np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _live_spans(alpha, beta, least, rows, reach):
    """Each block's live span ``(a, z)`` for :func:`recover_plan`'s tiles:
    ``(0, 0)`` where no tile is live, and ``(0, M)`` where the span leaves
    out less than half the columns, or every block's where the spans leave
    out less than half the sweep's cells."""
    n, m = alpha.size, beta.size
    top = np.add.outer(np.maximum.reduceat(alpha, np.arange(0, n, rows)), np.maximum.reduceat(beta, np.arange(0, m, _TILE_COLS)))
    np.subtract(top, least, out=top)
    dead = top <= (0.0 if reach is None else min(-reach, 0.0))  # False at a NaN
    spans, swept = [], 0
    for r0, flags in zip(range(0, n, rows), dead.tolist()):
        if False not in flags:
            spans.append((0, 0))
            continue
        a = flags.index(False) * _TILE_COLS
        z = min((len(flags) - flags[::-1].index(False)) * _TILE_COLS, m)
        if 2 * (z - a) > m:
            a, z = 0, m
        spans.append((a, z))
        swept += (z - a) * min(rows, n - r0)
    return spans if 2 * swept <= n * m else [(0, m)] * len(spans)


def dual_objective(pot, c, gamma: float, mu, nu) -> float:
    """Value of F at the given potentials (the function the solvers descend).

    ``F = (gamma^2 / 2) ||pi||^2 - gamma <alpha, mu> - gamma <beta, nu>`` with
    ``pi = recover_plan(pot, c, gamma)``.
    """
    mu, nu = as_weights(mu), as_weights(nu)
    plan = recover_plan(pot, c, gamma)
    alpha, beta = pot
    return float(0.5 * gamma * gamma * vdot(plan, plan) - gamma * vdot(alpha, mu) - gamma * vdot(beta, nu))


def dual_gradients(pot, c, gamma: float, mu, nu):
    """Gradients of F: ``(gamma (pi 1 - mu), gamma (pi.T 1 - nu))``.

    The plan's sums are taken in its recovery's sweep, bit for bit those of
    :func:`qrot.core.marginal_residuals`."""
    alpha, beta = (np.asarray(x, dtype=float) for x in pot)
    row, col = np.empty(alpha.size), np.empty(beta.size)
    recover_plan((alpha, beta), c, gamma, sums=(row, col))
    return gamma * (row - as_weights(mu)), gamma * (col - as_weights(nu))


def dual_value(pot, c, gamma: float, mu, nu) -> float:
    """Dual lower bound ``-F / gamma = <alpha, mu> + <beta, nu> - (gamma / 2) ||pi||^2``."""
    return -dual_objective(pot, c, gamma, mu, nu) / gamma


def duality_gap(pot, pi, c, gamma: float, mu, nu) -> float:
    """Primal objective of ``pi`` minus the dual lower bound of ``pot``.

    Nonnegative up to floating-point error whenever ``pi`` is feasible, and
    zero exactly at a primal-dual optimal pair.
    """
    return primal_objective(pi, c, gamma) - dual_value(pot, c, gamma, mu, nu)


def preconditioner_apply(f, g):
    """Apply the closed-form inverse of the block preconditioner.

    Returns ``da = (f - sum(f) / (2 N)) / M`` and
    ``db = (g - sum(g) / (2 M)) / N`` where ``N = len(f)``, ``M = len(g)``.
    This is the exact inverse of ``blockdiag(M (I + J/N), N (I + J/M))``
    with ``J`` the all-ones matrix, since ``J^2 = N J``.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n, m = f.size, g.size
    da = (f - f.sum() / (2.0 * n)) / m
    db = (g - g.sum() / (2.0 * m)) / n
    return da, db


def support_mask(pot, c) -> np.ndarray:
    """Boolean mask ``alpha[i] + beta[j] - c[i, j] >= 0`` (kink counted in)."""
    alpha, beta = (np.asarray(x, dtype=float) for x in pot)
    return alpha[:, None] + beta[None, :] - np.asarray(c, dtype=float) >= 0.0


def build_hessian(sigma) -> np.ndarray:
    """Materialize the (N+M) x (N+M) Hessian of F for a support mask.

    Blocks are ``[[diag(sigma 1), sigma], [sigma.T, diag(sigma.T 1)]]``.
    Guarded to small sizes; intended for tests and diagnostics.
    """
    sigma = np.asarray(sigma, dtype=float)
    n, m = sigma.shape
    if n + m > HESSIAN_SIZE_LIMIT:
        raise ValueError(f"refusing to materialize Hessian with N+M = {n + m} > {HESSIAN_SIZE_LIMIT}")
    out = np.zeros((n + m, n + m))
    out[:n, :n] = np.diag(sigma.sum(axis=1))
    out[:n, n:] = sigma
    out[n:, :n] = sigma.T
    out[n:, n:] = np.diag(sigma.sum(axis=0))
    return out
