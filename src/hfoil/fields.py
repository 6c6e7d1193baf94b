"""The radial grid.

Every run is spherically symmetric: the fields u and v live on the
radial grid r_j = j dx and are even in r through the axis.  The solvers
stream their levels to observers, and slice derivatives come from the
QueryPool lattices in :mod:`hfoil.analysis`; no level history is stored
or differenced.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadialGrid:
    """Radial grid r_j = j*dx, j = 0..n-1, for spherically symmetric fields."""
    dx: float
    n: int

    mode = "radial"
    ndim = 1

    def r(self, lo: int = 0, size: int | None = None) -> np.ndarray:
        size = self.n - lo if size is None else size
        return self.dx * (lo + np.arange(size))

    @property
    def r_max(self) -> float:
        return self.dx * (self.n - 1)

    @classmethod
    def for_extent(cls, dx: float, r_max: float) -> "RadialGrid":
        return cls(dx=dx, n=int(round(r_max / dx)) + 1)
