"""Problem-file serialization, run-record CSVs, plain-text matrices, and
the self-contained SVG convergence plot.

A problem file is one JSON document, written with indent 2 and a final
newline: the fields of :class:`ProblemFile` (``grid1``, ``grid2``,
``marginal1``, ``marginal2``, ``cost``, ``gamma``), each grid as its
``n``, ``a`` and ``b`` and each mixture as its list of components, each
with its ``weight``, ``mean`` and ``std``.  Matrices and vectors go to
diff-able text with a leading dimension header, each value as its ``repr``,
formatted in this process by :mod:`qrot.rowtext`; run records are
RFC-4180-style CSV with a key/value footer.  All formatting is deterministic
so repeated runs produce byte-identical artifacts (apart from wall-clock
columns).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from xml.etree import ElementTree as ET

import numpy as np

from .core import ConvergenceReport, DiscreteMeasure, Grid1D, _finite_real
from .problems import (
    BENCHMARK_GAMMAS,
    COST_KINDS,
    DEFAULT_MARGINAL1,
    DEFAULT_MARGINAL2,
    MixtureComponent,
    MixtureSpec,
    cost_matrix,
    mixture_marginal,
)

__all__ = [
    "HISTORY_COLUMNS",
    "ProblemFile",
    "default_problem",
    "load_problem",
    "read_matrix",
    "realize_problem",
    "render_convergence_svg",
    "save_problem",
    "write_history_csv",
    "write_matrix",
    "write_vector",
]

HISTORY_COLUMNS = (
    "iteration",
    "max_violation",
    "dual_objective",
    "primal_objective",
    "duality_gap",
    "elapsed_ms",
)


class ProblemFileError(ValueError):
    """Malformed problem file; the message names the offending field."""


@dataclass(frozen=True)
class ProblemFile:
    """Self-describing benchmark problem: grids, mixtures, cost kind, gamma."""

    grid1: Grid1D
    grid2: Grid1D
    marginal1: MixtureSpec
    marginal2: MixtureSpec
    cost: str
    gamma: float

    def __post_init__(self):
        if self.cost not in COST_KINDS:
            raise ProblemFileError(f"field 'cost' must be one of {COST_KINDS}, got {self.cost!r}")
        try:
            gamma = _finite_real(self.gamma, "gamma")
        except ValueError:
            gamma = math.nan
        if not gamma > 0:
            raise ProblemFileError(f"field 'gamma' must be positive and finite, got {self.gamma!r}")
        object.__setattr__(self, "gamma", gamma)  # as the file stores it


def default_problem(cost: str = "squared", gamma: float = 10.0, n: int = 100) -> ProblemFile:
    """The stock benchmark: two-bump mixtures on n-cell grids over [0, 1]."""
    grid = Grid1D(n, 0.0, 1.0)
    return ProblemFile(grid, grid, DEFAULT_MARGINAL1, DEFAULT_MARGINAL2, cost, float(gamma))


def save_problem(problem: ProblemFile, path) -> None:
    """Write ``problem`` as JSON with indent 2 and a final newline: the
    fields of :class:`ProblemFile` by ``dataclasses.asdict``, each mixture
    as its list of components."""
    doc = asdict(problem)
    for field in ("marginal1", "marginal2"):
        doc[field] = doc[field]["components"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _number(value, field) -> float:
    """A JSON number as a float; booleans, strings and the like are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"field '{field}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ProblemFileError(f"field '{field}' is out of the floating-point range") from None


def _integer(value, field) -> int:
    """A JSON integer; booleans and numbers with a fraction part are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _grid(node, field) -> Grid1D:
    return Grid1D(
        _integer(node["n"], f"{field}.n"), _number(node["a"], f"{field}.a"), _number(node["b"], f"{field}.b")
    )


def _mixture(node, field) -> MixtureSpec:
    keys = ("weight", "mean", "std")
    return MixtureSpec(tuple(MixtureComponent(*(_number(c[k], f"{field}.{k}") for k in keys)) for c in node))


def _parse(doc, field, build, kind):
    """``build(doc[field], field)``.  A KeyError, TypeError or ValueError it
    raises becomes ``field '<field>' is not a valid <kind>: ...``; a
    ProblemFileError passes as it is."""
    try:
        return build(doc[field], field)
    except ProblemFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"field '{field}' is not a valid {kind}: {exc}") from exc


def load_problem(path) -> ProblemFile:
    """Parse a problem file, raising ProblemFileError with a field or line
    diagnostic on malformed input.  Numeric fields must be JSON numbers (not
    booleans or strings) and a grid's ``n`` a JSON integer."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("top-level document must be an object")
    for field in ("grid1", "grid2", "marginal1", "marginal2", "cost", "gamma"):
        if field not in doc:
            raise ProblemFileError(f"missing field '{field}'")
    return ProblemFile(
        grid1=_parse(doc, "grid1", _grid, "grid"),
        grid2=_parse(doc, "grid2", _grid, "grid"),
        marginal1=_parse(doc, "marginal1", _mixture, "mixture"),
        marginal2=_parse(doc, "marginal2", _mixture, "mixture"),
        cost=doc["cost"],
        gamma=_number(doc["gamma"], "gamma"),
    )


def realize_problem(problem: ProblemFile):
    """Build (mu, nu, c) arrays from a problem file."""
    mu = mixture_marginal(problem.grid1, problem.marginal1)
    nu = mixture_marginal(problem.grid2, problem.marginal2)
    c = cost_matrix(problem.grid1, problem.grid2, problem.cost)
    return mu, nu, c


def write_matrix(path, arr) -> None:
    """Plain-text matrix: '# N M' header, one whitespace-joined row per line,
    each value as its ``repr``, by :func:`qrot.rowtext.lines`."""
    from . import rowtext  # its tables are built on first use, not at import

    arr = np.ascontiguousarray(arr, dtype=float)
    with open(path, "wb") as fh:
        fh.write(f"# {arr.shape[0]} {arr.shape[1]}\n".encode("ascii"))
        fh.writelines(rowtext.lines(arr))


def write_vector(path, vec) -> None:
    """Plain-text vector: '# N' header, one value per line, each as its ``repr``."""
    from . import rowtext

    vec = np.asarray(vec, dtype=float)
    with open(path, "wb") as fh:
        fh.write(f"# {vec.size}\n".encode("ascii"))
        fh.write(rowtext.reprs(vec, ord("\n")))


def read_matrix(path) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def write_history_csv(path, report: ConvergenceReport, gamma: float, tol: float) -> None:
    """Run record: header, one row per recorded iteration, key/value footer
    rows (prefixed '#', padded to the full column count)."""
    footer = (
        ("algorithm", report.algorithm.value),
        ("converged", str(report.converged).lower()),
        ("iterations", str(report.iterations)),
        ("gamma", repr(float(gamma))),
        ("tol", repr(float(tol))),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        # one f-string per row: float reprs never need CSV quoting, and
        # float() keeps a numpy scalar's repr plain
        fh.writelines(
            f"{row.iteration},{float(row.max_violation)!r},{float(row.dual_objective)!r},"
            f"{float(row.primal_objective)!r},{float(row.duality_gap)!r},{float(row.elapsed_s * 1000.0)!r}\n"
            for row in report.history
        )
        fh.writelines(f"# {key},{value},,,,\n" for key, value in footer)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_MAX_POINTS = 2000


def _thin(pairs):
    if len(pairs) <= _MAX_POINTS:
        return pairs
    stride = -(-len(pairs) // _MAX_POINTS)
    kept = pairs[::stride]
    if kept[-1] != pairs[-1]:
        kept.append(pairs[-1])
    return kept


def render_convergence_svg(series, path) -> None:
    """Write a log-y line plot of violation curves as a standalone SVG.

    ``series`` is a list of (label, history) pairs where each history is a
    sequence with ``iteration`` and ``max_violation`` fields.  Violations
    are clamped below at 1e-16 for display.
    """
    width, height = 880, 540
    ml, mr, mt, mb = 80, 170, 50, 60
    pw, ph = width - ml - mr, height - mt - mb

    curves = []
    for label, history in series:
        pairs = [(row.iteration, max(row.max_violation, 1e-16)) for row in history]
        if pairs:
            curves.append((label, _thin(pairs)))
    if not curves:
        raise ValueError("nothing to plot: all histories are empty")

    x_max = max(p[0] for _, pairs in curves for p in pairs)
    x_min = 0.0
    ys = [p[1] for _, pairs in curves for p in pairs]
    lo_dec = math.floor(math.log10(min(ys)))
    hi_dec = math.ceil(math.log10(max(ys)))
    if hi_dec == lo_dec:
        hi_dec += 1

    def sx(it):
        return ml + (it - x_min) / max(x_max - x_min, 1.0) * pw

    def sy(v):
        return mt + (hi_dec - math.log10(v)) / (hi_dec - lo_dec) * ph

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
        },
    )

    def line(x1, y1, x2, y2, stroke="black", stroke_width="1"):
        ET.SubElement(
            svg, "line",
            {"x1": str(x1), "y1": str(y1), "x2": str(x2), "y2": str(y2), "stroke": stroke, "stroke-width": stroke_width},
        )

    def text(x, y, label, anchor=None, size="12"):
        attrs = {"x": str(x), "y": str(y)}
        if anchor is not None:
            attrs["text-anchor"] = anchor
        ET.SubElement(svg, "text", {**attrs, "font-size": size, "font-family": "sans-serif"}).text = label

    ET.SubElement(svg, "rect", {"x": "0", "y": "0", "width": str(width), "height": str(height), "fill": "white"})
    text(width // 2, 28, "Maximal constraint violation per iteration", "middle", "16")

    # decade gridlines and y tick labels
    for dec in range(lo_dec, hi_dec + 1):
        y = sy(10.0**dec)
        line(ml, f"{y:.2f}", ml + pw, f"{y:.2f}", stroke="#dddddd")
        text(ml - 8, f"{y + 4:.2f}", f"1e{dec:+03d}", "end")

    # x ticks at five round positions
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        it = x_min + frac * (x_max - x_min)
        x = sx(it)
        line(f"{x:.2f}", mt + ph, f"{x:.2f}", mt + ph + 5)
        text(f"{x:.2f}", mt + ph + 20, str(int(round(it))), "middle")

    # axes
    line(ml, mt, ml, mt + ph)
    line(ml, mt + ph, ml + pw, mt + ph)
    text(ml + pw // 2, height - 15, "iteration", "middle", "13")

    for k, (label, pairs) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(it):.2f},{sy(v):.2f}" for it, v in pairs)
        ET.SubElement(
            svg, "polyline", {"points": points, "fill": "none", "stroke": color, "stroke-width": "1.5"}
        )
        ly = mt + 18 + 20 * k
        line(ml + pw + 12, ly - 4, ml + pw + 36, ly - 4, stroke=color, stroke_width="2")
        text(ml + pw + 42, ly, label)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ET.tostring(svg, encoding="unicode", xml_declaration=True) + "\n")
