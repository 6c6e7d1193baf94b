"""Uniform grids and multi-level field histories.

A :class:`FieldHistory` stores one scalar field on several consecutive,
uniformly spaced time levels over a spatial grid, together with the
bookkeeping needed to compose centered stencils: each derivative trims
the window it consumed, so any value you can still read came from a
fully interior stencil.  One-sided stencils are never used.

Spatial stencils act on box histories only.  A radial history is a
container of levels with a declared parity (even or odd in r), and
only the tests' reference slice route builds one: the radial solvers
stream their levels to observers, and radial runs take their slice
derivatives from the QueryPool lattices in :mod:`hfoil.analysis`,
never by differencing a history.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import StencilRangeError, central_offsets, central_weights

EVEN, ODD = 1, -1


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


@dataclass(frozen=True)
class BoxGrid:
    """Cubic grid covering [-half, half]^3 with spacing dx."""
    dx: float
    half: float

    mode = "box"
    ndim = 3

    @property
    def n(self) -> int:
        return 2 * int(round(self.half / self.dx)) + 1

    def axis(self, a: int, lo: int = 0, size: int | None = None) -> np.ndarray:
        size = self.n - lo if size is None else size
        return -self.dx * (self.n // 2) + self.dx * (lo + np.arange(size))


class FieldHistory:
    """Samples of one field on consecutive time levels of one grid.

    Parameters
    ----------
    values : ndarray, shape (L, n) radial or (L, nx, ny, nz) box
    times : ndarray, shape (L,), uniformly spaced
    grid : RadialGrid or BoxGrid
    lo : spatial index offsets of values[..., 0, ...] inside the grid
    parity : EVEN or ODD for radial histories (the symmetry of the field
        through r=0, declared by whoever records it), None for box ones
    """

    def __init__(self, values, times, grid, lo=None, parity=None):
        self.values = np.asarray(values, dtype=float)
        self.times = np.asarray(times, dtype=float)
        self.grid = grid
        self.lo = tuple(lo) if lo is not None else (0,) * grid.ndim
        self.parity = parity
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("level count mismatch between values and times")
        if grid.mode == "radial" and parity is None:
            raise ValueError("radial histories must declare a parity")

    # --- basic geometry of the stored window ---

    @property
    def nlevels(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        if self.nlevels < 2:
            raise StencilRangeError("history has fewer than two levels")
        return float(self.times[1] - self.times[0])

    @property
    def shape(self):
        return self.values.shape[1:]

    def t_col(self) -> np.ndarray:
        """Times broadcastable against values."""
        return self.times.reshape((-1,) + (1,) * self.grid.ndim)

    def _box_only(self, op: str) -> None:
        if self.grid.mode != "box":
            raise StencilRangeError(
                f"{op} needs a box history; radial histories only store "
                "levels")

    def coord(self, axis: int) -> np.ndarray:
        """Spatial coordinate along `axis`, broadcastable against values."""
        if self.grid.mode == "radial":
            c = self.grid.r(self.lo[0], self.shape[0])
            return c.reshape((1, -1))
        c = self.grid.axis(axis, self.lo[axis], self.shape[axis])
        shp = [1] * (1 + self.grid.ndim)
        shp[1 + axis] = -1
        return c.reshape(shp)

    def copy_meta(self, values, times=None, lo=None):
        return FieldHistory(values,
                            self.times if times is None else times,
                            self.grid,
                            self.lo if lo is None else lo,
                            self.parity)

    # --- stencils ---

    def tderiv(self, order: int = 1) -> "FieldHistory":
        """Centered time derivative of the given order (second-order accurate)."""
        offs = central_offsets(order)
        w = central_weights(order) / self.dt ** order
        q = -offs[0]
        if self.nlevels < 2 * q + 1:
            raise StencilRangeError(
                f"time stencil of order {order} needs {2*q+1} levels, "
                f"history holds {self.nlevels}")
        L = self.nlevels - 2 * q
        out = np.zeros((L,) + self.shape)
        for k, o in enumerate(offs):
            out += w[k] * self.values[q + o: q + o + L]
        return self.copy_meta(out, times=self.times[q:q + L])

    def sderiv(self, axis: int = 0, order: int = 1) -> "FieldHistory":
        """Centered spatial derivative along `axis` of a box history;
        both ends of the axis are trimmed."""
        self._box_only("sderiv")
        offs = central_offsets(order)
        w = central_weights(order) / self.grid.dx ** order
        q = -offs[0]
        v = self.values
        n = v.shape[1 + axis]
        if n < 2 * q + 1:
            raise StencilRangeError("spatial stencil leaves the grid")
        n_out = n - 2 * q
        out = np.zeros(v.shape[:1 + axis] + (n_out,) + v.shape[2 + axis:])
        for k, o in enumerate(offs):
            sl = [slice(None)] * v.ndim
            sl[1 + axis] = slice(q + o, q + o + n_out)
            out += w[k] * v[tuple(sl)]
        lo = list(self.lo)
        lo[axis] += q
        return self.copy_meta(out, lo=tuple(lo))

    # --- coordinate multiplication / division ---

    def mul_coord(self, axis: int = 0) -> "FieldHistory":
        self._box_only("mul_coord")
        return self.copy_meta(self.values * self.coord(axis))

    def div_t(self) -> "FieldHistory":
        return self.copy_meta(self.values / self.t_col())

    # --- arithmetic ---

    def _aligned(self, other: "FieldHistory"):
        a, b = self, other
        if a.grid is not b.grid and a.grid != b.grid:
            raise ValueError("histories live on different grids")
        if abs(a.dt - b.dt) > 1e-12 * a.dt:
            raise ValueError("histories have different time steps")
        # common time window, matched by value
        t0 = max(a.times[0], b.times[0])
        t1 = min(a.times[-1], b.times[-1])
        if t1 < t0 - 1e-12:
            raise StencilRangeError("histories share no time levels")
        ia = int(round((t0 - a.times[0]) / a.dt))
        ib = int(round((t0 - b.times[0]) / b.dt))
        L = int(round((t1 - t0) / a.dt)) + 1
        lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
        hi = tuple(min(x + s, y + u) for x, y, s, u
                   in zip(a.lo, b.lo, a.shape, b.shape))
        if any(h <= l for l, h in zip(lo, hi)):
            raise StencilRangeError("histories share no spatial window")
        def cut(h, i0):
            sl = [slice(i0, i0 + L)]
            for ax in range(h.grid.ndim):
                sl.append(slice(lo[ax] - h.lo[ax], hi[ax] - h.lo[ax]))
            return h.values[tuple(sl)]
        return cut(a, ia), cut(b, ib), a.times[ia:ia + L], lo

    def __add__(self, other):
        if np.isscalar(other):
            return self.copy_meta(self.values + other)
        va, vb, times, lo = self._aligned(other)
        if self.parity is not None and self.parity != other.parity:
            raise ValueError("adding radial fields of opposite parity")
        return self.copy_meta(va + vb, times=times, lo=lo)

    def __sub__(self, other):
        if np.isscalar(other):
            return self.copy_meta(self.values - other)
        return self.__add__(other * -1.0)

    def __mul__(self, c):
        if not np.isscalar(c):
            raise TypeError("use mul_coord/div_t for coordinate factors")
        return self.copy_meta(self.values * c)

    __rmul__ = __mul__


def sample_history(fn, grid: BoxGrid, times) -> FieldHistory:
    """Sample fn(t, x1, x2, x3) over the box grid at the given times;
    the arguments broadcast."""
    times = np.asarray(times, dtype=float)
    ax = [grid.axis(a) for a in range(3)]
    X = np.meshgrid(*ax, indexing="ij", sparse=True)
    vals = np.stack([np.broadcast_to(fn(t, *X), (grid.n,) * 3).astype(float)
                     for t in times])
    return FieldHistory(vals, times, grid)
