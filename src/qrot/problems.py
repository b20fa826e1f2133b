"""Reproducible 1D benchmark problems: Gaussian-mixture marginals on
uniform grids and distance-based cost matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, Grid1D, _finite_real

__all__ = [
    "BENCHMARK_GAMMAS",
    "COST_KINDS",
    "DEFAULT_MARGINAL1",
    "DEFAULT_MARGINAL2",
    "MixtureComponent",
    "MixtureSpec",
    "cost_matrix",
    "mixture_marginal",
]

COST_KINDS = ("squared", "absolute")

# Regularization weights used for the stock convergence experiments.
BENCHMARK_GAMMAS = {"squared": (50.0, 10.0, 4.0), "absolute": (100.0, 50.0, 15.0)}

# Positivity floor, relative to the peak, applied before normalization.
_FLOOR = 1e-12


@dataclass(frozen=True)
class MixtureComponent:
    """One Gaussian bump: weight * exp(-(x - mean)^2 / (2 std^2))."""

    weight: float
    mean: float
    std: float

    def __post_init__(self):
        for field in ("weight", "mean", "std"):
            object.__setattr__(self, field, _finite_real(getattr(self, field), f"component {field}"))
        if not (self.weight > 0):
            raise ValueError("component weight must be positive")
        if not (self.std > 0):
            raise ValueError("component std must be positive")


@dataclass(frozen=True)
class MixtureSpec:
    """Convex combination of Gaussian bumps; weights must sum to 1."""

    components: tuple[MixtureComponent, ...]

    def __post_init__(self):
        components = tuple(
            comp if isinstance(comp, MixtureComponent) else MixtureComponent(*comp)
            for comp in self.components
        )
        if not components:
            raise ValueError("mixture needs at least one component")
        total = sum(comp.weight for comp in components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "components", components)


# Stock two-bump marginals for the default 100-cell benchmark on [0, 1].
DEFAULT_MARGINAL1 = MixtureSpec(((0.5, 0.25, 0.05), (0.5, 0.75, 0.05)))
DEFAULT_MARGINAL2 = MixtureSpec(((0.4, 0.35, 0.08), (0.6, 0.65, 0.06)))


def mixture_marginal(grid: Grid1D, spec: MixtureSpec) -> DiscreteMeasure:
    """Evaluate the mixture at cell centers and normalize to unit mass.

    A floor of 1e-12 times the peak value is applied before normalization,
    so every cell carries strictly positive mass.
    """
    x = grid.points
    w = np.zeros(grid.n)
    for comp in spec.components:
        w += comp.weight * np.exp(-((x - comp.mean) ** 2) / (2.0 * comp.std**2))
    peak = w.max()
    if not (peak > 0):
        raise ValueError("mixture underflowed to zero on the whole grid")
    w = np.maximum(w, _FLOOR * peak)
    return DiscreteMeasure(grid, w / w.sum())


def cost_matrix(g1: Grid1D, g2: Grid1D, kind: str = "squared") -> np.ndarray:
    """Pairwise cost between cell centers: ``(x - y)^2`` or ``|x - y|``."""
    if kind not in COST_KINDS:
        raise ValueError(f"cost kind must be one of {COST_KINDS}, got {kind!r}")
    diff = g1.points[:, None] - g2.points[None, :]
    return np.square(diff, out=diff) if kind == "squared" else np.abs(diff, out=diff)  # one N x M array
