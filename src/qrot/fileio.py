"""Problem-file serialization, run-record CSVs, plain-text matrices, and
the self-contained SVG convergence plot.

Problem files are a single JSON document; matrices go to diff-able text
with a leading dimension header; run records are RFC-4180-style CSV with a
key/value footer.  All formatting is deterministic so repeated runs produce
byte-identical artifacts (apart from wall-clock columns).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from xml.etree import ElementTree as ET

import numpy as np

from .core import ConvergenceReport, DiscreteMeasure, Grid1D
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
        if not (isinstance(self.gamma, (int, float)) and self.gamma > 0 and math.isfinite(self.gamma)):
            raise ProblemFileError(f"field 'gamma' must be positive and finite, got {self.gamma!r}")


def default_problem(cost: str = "squared", gamma: float = 10.0, n: int = 100) -> ProblemFile:
    """The stock benchmark: two-bump mixtures on n-cell grids over [0, 1]."""
    grid = Grid1D(n, 0.0, 1.0)
    return ProblemFile(grid, grid, DEFAULT_MARGINAL1, DEFAULT_MARGINAL2, cost, float(gamma))


def _grid_to_json(g: Grid1D) -> dict:
    return {"n": g.n, "a": g.a, "b": g.b}


def _mixture_to_json(spec: MixtureSpec) -> list:
    return [{"weight": c.weight, "mean": c.mean, "std": c.std} for c in spec.components]


def save_problem(problem: ProblemFile, path) -> None:
    doc = {
        "grid1": _grid_to_json(problem.grid1),
        "grid2": _grid_to_json(problem.grid2),
        "marginal1": _mixture_to_json(problem.marginal1),
        "marginal2": _mixture_to_json(problem.marginal2),
        "cost": problem.cost,
        "gamma": problem.gamma,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _number(value, field) -> float:
    """A JSON number as a float; booleans, strings and the like are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"field '{field}' must be a number, got {value!r}")
    return float(value)


def _integer(value, field) -> int:
    """A JSON integer; booleans and numbers with a fraction part are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _parse_grid(doc, field) -> Grid1D:
    try:
        node = doc[field]
        return Grid1D(
            _integer(node["n"], f"{field}.n"), _number(node["a"], f"{field}.a"), _number(node["b"], f"{field}.b")
        )
    except ProblemFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"field '{field}' is not a valid grid: {exc}") from exc


def _parse_mixture(doc, field) -> MixtureSpec:
    try:
        node = doc[field]
        comps = tuple(
            MixtureComponent(*(_number(c[key], f"{field}.{key}") for key in ("weight", "mean", "std")))
            for c in node
        )
        return MixtureSpec(comps)
    except ProblemFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"field '{field}' is not a valid mixture: {exc}") from exc


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
        grid1=_parse_grid(doc, "grid1"),
        grid2=_parse_grid(doc, "grid2"),
        marginal1=_parse_mixture(doc, "marginal1"),
        marginal2=_parse_mixture(doc, "marginal2"),
        cost=doc["cost"],
        gamma=_number(doc["gamma"], "gamma"),
    )


def realize_problem(problem: ProblemFile):
    """Build (mu, nu, c) arrays from a problem file."""
    mu = mixture_marginal(problem.grid1, problem.marginal1)
    nu = mixture_marginal(problem.grid2, problem.marginal2)
    c = cost_matrix(problem.grid1, problem.grid2, problem.cost)
    return mu, nu, c


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix(path, arr) -> None:
    """Plain-text matrix: '# N M' header, one whitespace-joined row per line."""
    arr = np.asarray(arr, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {arr.shape[0]} {arr.shape[1]}\n")
        for row in arr.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def write_vector(path, vec) -> None:
    """Plain-text vector: '# N' header, one value per line."""
    vec = np.asarray(vec, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {vec.size}\n")
        for x in vec.tolist():
            fh.write(repr(x) + "\n")


def read_matrix(path) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def write_history_csv(path, report: ConvergenceReport, gamma: float, tol: float) -> None:
    """Run record: header, one row per recorded iteration, key/value footer
    rows (prefixed '#', padded to the full column count)."""
    footer = (
        ("algorithm", report.algorithm.value),
        ("converged", str(report.converged).lower()),
        ("iterations", str(report.iterations)),
        ("gamma", _fmt(gamma)),
        ("tol", _fmt(tol)),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_COLUMNS)
        # one f-string per row: float reprs never need CSV quoting, and
        # float() keeps a numpy scalar's repr plain
        fh.writelines(
            f"{row.iteration},{float(row.max_violation)!r},{float(row.dual_objective)!r},"
            f"{float(row.primal_objective)!r},{float(row.duality_gap)!r},{float(row.elapsed_s * 1000.0)!r}\n"
            for row in report.history
        )
        for key, value in footer:
            writer.writerow([f"# {key}", value, "", "", "", ""])


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


def render_convergence_svg(series, path, title="Maximal constraint violation per iteration") -> None:
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
    ET.SubElement(svg, "rect", {"x": "0", "y": "0", "width": str(width), "height": str(height), "fill": "white"})
    ET.SubElement(
        svg, "text", {"x": str(width // 2), "y": "28", "text-anchor": "middle", "font-size": "16", "font-family": "sans-serif"}
    ).text = title

    # decade gridlines and y tick labels
    for dec in range(lo_dec, hi_dec + 1):
        y = sy(10.0**dec)
        ET.SubElement(
            svg, "line",
            {"x1": str(ml), "y1": f"{y:.2f}", "x2": str(ml + pw), "y2": f"{y:.2f}", "stroke": "#dddddd", "stroke-width": "1"},
        )
        ET.SubElement(
            svg, "text",
            {"x": str(ml - 8), "y": f"{y + 4:.2f}", "text-anchor": "end", "font-size": "12", "font-family": "sans-serif"},
        ).text = f"1e{dec:+03d}"

    # x ticks at five round positions
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        it = x_min + frac * (x_max - x_min)
        x = sx(it)
        ET.SubElement(
            svg, "line",
            {"x1": f"{x:.2f}", "y1": str(mt + ph), "x2": f"{x:.2f}", "y2": str(mt + ph + 5), "stroke": "black", "stroke-width": "1"},
        )
        ET.SubElement(
            svg, "text",
            {"x": f"{x:.2f}", "y": str(mt + ph + 20), "text-anchor": "middle", "font-size": "12", "font-family": "sans-serif"},
        ).text = str(int(round(it)))

    # axes
    ET.SubElement(
        svg, "line", {"x1": str(ml), "y1": str(mt), "x2": str(ml), "y2": str(mt + ph), "stroke": "black", "stroke-width": "1"}
    )
    ET.SubElement(
        svg, "line",
        {"x1": str(ml), "y1": str(mt + ph), "x2": str(ml + pw), "y2": str(mt + ph), "stroke": "black", "stroke-width": "1"},
    )
    ET.SubElement(
        svg, "text",
        {"x": str(ml + pw // 2), "y": str(height - 15), "text-anchor": "middle", "font-size": "13", "font-family": "sans-serif"},
    ).text = "iteration"

    for k, (label, pairs) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(it):.2f},{sy(v):.2f}" for it, v in pairs)
        ET.SubElement(
            svg, "polyline", {"points": points, "fill": "none", "stroke": color, "stroke-width": "1.5"}
        )
        ly = mt + 18 + 20 * k
        ET.SubElement(
            svg, "line",
            {"x1": str(ml + pw + 12), "y1": str(ly - 4), "x2": str(ml + pw + 36), "y2": str(ly - 4), "stroke": color, "stroke-width": "2"},
        )
        ET.SubElement(
            svg, "text",
            {"x": str(ml + pw + 42), "y": str(ly), "font-size": "12", "font-family": "sans-serif"},
        ).text = label

    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
