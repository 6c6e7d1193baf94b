"""Reference slice route: sample a stored field history on a hyperboloid
H_s by direct interpolation of its grid levels.

hfoil's scenarios measure slices through the QueryPool lattices and the
chain-rule expansions of :mod:`hfoil.analysis`.  This module is the
independent second route the tests compare them with:

* :class:`FieldHistory` stores one field on consecutive time levels of
  a radial grid or of a 3D box grid (:class:`BoxGrid`), with centered
  stencils for box histories;
* the dual-route energy tests sample radial histories
  (:func:`sample_radial_history`) with :func:`interpolate_to_slice`
  and integrate :meth:`SliceSample.energy_density` against
  ``SliceEnergySuite.energies``;
* the Sobolev test measures :func:`sobolev_ratio_history` on a box
  history (:func:`sample_history`) against the angular reduction
  ``sobolev_ratio_profile``;
* the solvers hand out their levels to observers only; the tests
  that compare a run's levels, or build a radial history from them,
  keep copies with :class:`LevelCopies`;
* the linear solvers bind their profiles to each run; the package's
  profiles are tables on the run's null lattice, and
  :class:`CallableSource` and :class:`CallableMetric` bind plain
  callables instead, evaluated at (t_k, r) at every step;
  :func:`wave_source_formula` and :func:`pull_formula` are the closed
  forms of a ``wave_source`` and of ``metric_pull``'s h in the table
  route's operation order, :func:`full_grid_wave_source` and
  :func:`full_grid_metric` the textbook forms at (t, r) on every
  point, and :func:`lattice_wave_source` and :func:`lattice_pull` the
  closed forms at the lattice's t - r and t + r, which the tables match
  bit for bit;
* :func:`eval_combo` contracts one expansion with a derivative table,
  one key at a time, and :func:`reference_rows` applies it to a key
  list: the per-combo route the blocked ``combo_evaluator`` must match
  bit for bit; :func:`reference_energies` and
  :func:`reference_stage_sups` are ``SliceEnergySuite``'s energies and
  stage sups by that route, one combo at a time.

Not a test module (pytest collects ``test_*.py`` only); the test
modules import it by name from this directory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hfoil.analysis import (combo_expansion, hierarchy_combos,
                            is_low_order, slice_cone_margin)
from hfoil.bounds import SWITCH_ON, MetricPerturb
from hfoil.util import (SliceCoverageError, StencilRangeError, _basis_coeffs,
                        fd_weights, smoothstep, smoothstep_d,
                        trapezoid_weights)

DEFAULT_CHI_STEP = 0.005

# the parity of a radial history through the axis: hfoil's fields u and v
# are even, and odd fields (r times an even one) test the fold
EVEN, ODD = 1, -1


# === levels of solver runs ===

class LevelCopies:
    """Observer that keeps a copy of every level it is shown."""

    def __init__(self):
        self.levels = []

    def on_level(self, t, step, u, v):
        assert step == len(self.levels)
        self.levels.append((t, None if u is None else u.copy(),
                            None if v is None else v.copy()))


# === profiles of the linear solvers' runs ===

class _CallableSourceRun:
    """A CallableSource bound to a run on the grid r."""

    def __init__(self, fs, r):
        self.fs, self.r = fs, r

    def support(self, k):
        return len(self.r)

    def fill(self, k, t_k, weight, out):
        for row, f in zip(out, self.fs):
            row[:] = f(t_k, self.r) * weight
        return out


class _CallableRow:
    """A CallableMetric bound to a run on the grid r."""
    steady = False

    def __init__(self, h00, r):
        self.h00, self.r = h00, r

    def fill(self, k, t_k, out):
        out[:] = self.h00(t_k, self.r)
        return out


class CallableSource:
    """Plain callables f_i(t, r) as the rows of a source stack for
    solve_linear_wave_sourced, at any Courant number: bound to a run,
    row i gets f_i(t_k, r) times the weight on the whole grid at every
    step.  tags (None by default) label the rows in guard reports."""

    def __init__(self, fs, tags=None):
        self.fs = list(fs)
        self.tags = tuple(tags) if tags is not None else (None,) * len(self.fs)

    def on_run(self, grid, t0, dt, steps):
        return _CallableSourceRun(self.fs, grid.r(0, grid.n))


class CallableMetric(MetricPerturb):
    """A plain callable h00(t, r) as a metric row of
    solve_linear_kg_curved, at any Courant number: bound to a run, it is
    evaluated at (t_k, r) on the whole grid at every step, never steady.
    dt and dr are its derivatives for the envelopes, if any; calling it
    evaluates h00."""

    def __init__(self, value, dt=None, dr=None):
        super().__init__(lambda grid, t0, dt_, steps: _CallableRow(
            value, grid.r(0, grid.n)), dt=dt, dr=dr)
        self.value = value

    def __call__(self, t, r):
        return self.value(t, r)


_LO, _WID = SWITCH_ON[0], SWITCH_ON[1] - SWITCH_ON[0]


def wave_source_formula(mu, nu, amp=1.0):
    """wave_source(mu, nu, amp) as f(t, q, weight=1.0) of t and q = t -
    r, in the operation order of the table route: (amp t^-(2+nu)) (cut(q)
    q^(mu-1)) weight on the support q > SWITCH_ON[0], +0.0 off it."""
    def f(t, q, weight=1.0):
        t = np.asarray(t, dtype=float)
        q = np.ascontiguousarray(q, dtype=float)
        cut = smoothstep((q - _LO) / _WID)
        on = cut > 0.0
        qq = np.where(on, q, 1.0)
        return np.where(
            on, amp * t ** (-(2.0 + nu)) * (cut * qq ** (mu - 1.0)) * weight,
            0.0)

    return f


def pull_formula(amp=0.1):
    """metric_pull(amp)'s h as h(t, q, p) of t, q = t - r and p = t + r,
    in the operation order of the table route: (amp/t) (cut(q) sqrt(q))
    sqrt(p) on the support q > SWITCH_ON[0], +0.0 off it."""
    def h(t, q, p):
        q = np.asarray(q, dtype=float)
        cut = smoothstep((q - _LO) / _WID)
        on = cut > 0.0
        return np.where(on, (amp / np.asarray(t, dtype=float))
                        * (cut * np.sqrt(np.where(on, q, 1.0)))
                        * np.sqrt(p), 0.0)

    return h


def full_grid_wave_source(mu, nu, amp=1.0):
    """wave_source(mu, nu, amp) as a callable f(t, r, weight=1.0) in its
    textbook form: wave_source_formula at q = t - r on every point."""
    f = wave_source_formula(mu, nu, amp)
    return lambda t, r, weight=1.0: f(
        t, np.asarray(t, dtype=float) - np.asarray(r, dtype=float), weight)


def full_grid_metric(amp=0.1):
    """(value, dt, dr) of metric_pull(amp) in their textbook form on
    every point: h = amp sqrt(1 - (r/t)^2) cut(t - r) and its analytic
    derivatives."""
    def parts(t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        cut = smoothstep((t - r - _LO) / _WID)
        with np.errstate(invalid="ignore"):
            g = np.sqrt(np.maximum(1.0 - (r / t) ** 2, 0.0))
        return t, r, g, cut

    def value(t, r):
        t, r, g, cut = parts(t, r)
        return amp * g * cut

    def dt(t, r):
        t, r, g, cut = parts(t, r)
        dcut = smoothstep_d((t - r - _LO) / _WID) / _WID
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = np.where(g > 0, r * r / (np.maximum(g, 1e-300) * t ** 3), 0.0)
        return amp * np.where(cut > 0, dg * cut + g * dcut, 0.0)

    def dr(t, r):
        t, r, g, cut = parts(t, r)
        dcut = -smoothstep_d((t - r - _LO) / _WID) / _WID
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = np.where(g > 0, -r / (np.maximum(g, 1e-300) * t ** 2), 0.0)
        return amp * np.where(cut > 0, dg * cut + g * dcut, 0.0)

    return value, dt, dr


def lattice_sides(grid, t0, dt):
    """(t, r) -> (t - r, t + r) on the null lattice of a run on grid from
    t0 at step dt = dx/M: t0 + (k -/+ M j) dt, with k = (t - t0)/dt and j
    = r/dx rounded, the values the package's tables hold bit for bit."""
    M = round(grid.dx / dt)

    def sides(t, r):
        k = np.rint((np.asarray(t, dtype=float) - t0) / dt).astype(np.int64)
        j = np.rint(np.asarray(r, dtype=float) / grid.dx).astype(np.int64)
        return t0 + (k - M * j) * dt, t0 + (k + M * j) * dt

    return sides


def lattice_wave_source(mu, nu, amp, grid, t0, dt):
    """wave_source(mu, nu, amp) as f(t, r, weight=1.0) at the lattice's t
    - r (lattice_sides): WaveSourceStack's run fill, bit for bit, at the
    grid points and step times of that run."""
    f, sides = wave_source_formula(mu, nu, amp), lattice_sides(grid, t0, dt)
    return lambda t, r, weight=1.0: f(t, sides(t, r)[0], weight)


def lattice_pull(amp, grid, t0, dt):
    """metric_pull(amp)'s h as h(t, r) at the lattice's t - r and t + r
    (lattice_sides): its run row's fill, bit for bit, at the grid points
    and step times of that run."""
    h, sides = pull_formula(amp), lattice_sides(grid, t0, dt)
    return lambda t, r: h(t, *sides(t, r))


# === per-combo contraction of the chain-rule expansions ===

def eval_combo(comp, tables, CH, SH, ZI):
    """Contract an expansion with (d_s, d_chi) tables.

    comp is (idx, coef): the expansion's keys as rows P, Q, A, B, K and
    its coefficients.  tables has shape (nodes, K+1, K+1); CH/SH are
    power tables of cosh/sinh over nodes, ZI the power vector of 1/s.
    """
    (P, Q, A, B, K), coef = comp
    sel = tables[:, P, Q]                                  # (nodes, M)
    w = (coef * ZI[K])[None, :] * CH[A].T * SH[B].T
    return (sel * w).sum(axis=1)


def reference_rows(keys, s, chi, tables) -> np.ndarray:
    """(len(keys), nodes): eval_combo of every key's expansion
    (combo_expansion(*key)) with tables on the chart nodes chi of slice
    s, one key at a time."""
    comps = []
    for key in keys:
        exp = combo_expansion(*key)
        comps.append((np.array(list(exp)).T,
                      np.fromiter(exp.values(), float)))
    amax, bmax, kmax = np.max([idx.max(axis=1) for idx, _ in comps],
                              axis=0)[2:]
    ch, sh = np.cosh(chi), np.sinh(chi)
    CH = ch[None, :] ** np.arange(amax + 1)[:, None]
    SH = sh[None, :] ** np.arange(bmax + 1)[:, None]
    ZI = (1.0 / s) ** np.arange(kmax + 1)
    return np.stack([eval_combo(comp, tables, CH, SH, ZI) for comp in comps])


def _reference_values(suite):
    """({(field, s, it, ir, j): W}, energy rows) of a SliceEnergySuite
    whose run is done, one combo at a time."""
    values, rows = {}, []
    for s in suite.s_values:
        chi = suite._charts[s]
        ch, sh = np.cosh(chi), np.sinh(chi)
        dmu = 4.0 * math.pi * s ** 3 * trapezoid_weights(chi) * sh * sh * ch
        for field in suite.fields:
            D = suite._tables[(field, s)].tables()
            for (it, ir, j) in hierarchy_combos(suite.order):
                W, Wt, Wl = reference_rows(
                    [(it, ir, j, outer) for outer in ("", "t", "chi")],
                    s, chi, D)
                dens = (Wt / ch) ** 2 + (Wl / (s * ch)) ** 2
                if field == "v":
                    dens = dens + (suite.mass * W) ** 2
                values[(field, s, it, ir, j)] = W
                rows.append({"field": field, "it": it, "ir": ir, "j": j,
                             "s": s, "value": float(np.sum(dmu * dens))})
    return values, rows


def reference_energies(suite) -> list:
    """suite.energies(), one combo at a time."""
    return _reference_values(suite)[1]


def reference_stage_sups(suite, delta: float) -> list:
    """suite.stage_sups(delta), one combo at a time."""
    values = _reference_values(suite)[0]
    pv = 0.5 - 7.0 * delta
    rows = []
    for label, field, p, q, low in (("u:low", "u", 0.0, 1.0, True),
                                    ("v:low", "v", pv, 1.5, True),
                                    ("u:high", "u", 0.0, 1.0, False),
                                    ("v:high", "v", pv, 1.5, False)):
        if field not in suite.fields:
            continue
        for s in suite.s_values:
            t = s * np.cosh(suite._charts[s])
            weight = (t / s) ** p * t ** q
            best = 0.0
            for (it, ir, j) in hierarchy_combos(suite.order):
                if is_low_order(it + ir + j, suite.order) == low:
                    W = values[(field, s, it, ir, j)]
                    best = max(best, float(np.max(weight * np.abs(W))))
            rows.append({"field": label, "p": p, "q": q, "s": s,
                         "value": best})
    return rows


# === box grids and field histories ===

def central_offsets(order: int) -> tuple:
    """Symmetric offsets giving second-order accuracy for `order`."""
    if order == 0:
        return (0,)
    q = (order + 1) // 2
    return tuple(range(-q, q + 1))


def central_weights(order: int) -> np.ndarray:
    return fd_weights(order, central_offsets(order))


def window_weights(frac, offsets: tuple, deriv: int = 0) -> np.ndarray:
    """Lagrange interpolation (or interpolant-derivative) weights on the
    uniform nodes `offsets` for query offsets `frac` relative to node 0,
    shape (len(frac), len(offsets)); multiply by h**-deriv for spacing
    h.  hfoil.util.lagrange_weights is the case of its INTERP_OFFSETS
    and deriv 0."""
    npts = len(offsets)
    C = _basis_coeffs(tuple(offsets))
    if deriv:
        D = np.zeros_like(C)
        for d in range(deriv, npts):
            fall = 1.0
            for j in range(deriv):
                fall *= d - j
            D[:, d - deriv] = C[:, d] * fall
        C = D
    frac = np.asarray(frac, dtype=float)
    powers = frac[..., None] ** np.arange(npts)
    return powers @ C.T


# the 4-point window of the reference slice route
WINDOW4 = (-1, 0, 1, 2)


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

    # --- coordinate multiplication ---

    def mul_coord(self, axis: int = 0) -> "FieldHistory":
        self._box_only("mul_coord")
        return self.copy_meta(self.values * self.coord(axis))

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
            raise TypeError("use mul_coord for coordinate factors")
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


# === slice charts ===

@dataclass(frozen=True)
class RadialSliceChart:
    """Uniform-in-chi sampling of H_s inside the cone (r = s sinh chi)."""
    s: float
    chi: np.ndarray = field(repr=False)
    cone_margin: float

    @property
    def r(self) -> np.ndarray:
        return self.s * np.sinh(self.chi)

    @property
    def t(self) -> np.ndarray:
        return self.s * np.cosh(self.chi)

    def quad_weights(self) -> np.ndarray:
        """Weights for int_{H_s} (.) dx = 4 pi int (.) r^2 t dchi."""
        return 4.0 * np.pi * self.r ** 2 * self.t * trapezoid_weights(self.chi)


@dataclass(frozen=True)
class BoxSliceChart:
    """Grid columns of a box grid that meet H_s inside the cone."""
    s: float
    idx: tuple          # arrays of column indices, one per axis
    x: np.ndarray = field(repr=False)
    cone_margin: float
    cell_volume: float

    @property
    def t(self) -> np.ndarray:
        return np.sqrt(self.s ** 2 + np.sum(self.x ** 2, axis=-1))

    def quad_weights(self) -> np.ndarray:
        return np.full(self.x.shape[0], self.cell_volume)


def slice_radius_cap(s: float, cone_margin: float) -> float:
    """Largest |x| on H_s with |x| <= t - 1 - margin."""
    c = 1.0 + cone_margin
    if s <= c:
        return 0.0
    return (s * s - c * c) / (2.0 * c)


def make_chart(grid, s: float, cone_margin: float | None = None,
               chi_step: float = DEFAULT_CHI_STEP):
    """Build the chart of H_s for a grid, truncated slice_cone_margin(dx)
    (by default) inside the cone boundary."""
    m = slice_cone_margin(grid.dx) if cone_margin is None else cone_margin
    r_cap = slice_radius_cap(s, m)
    if grid.mode == "radial":
        r_cap = min(r_cap, grid.r_max - 2 * grid.dx)
        chi_max = float(np.arcsinh(r_cap / s)) if r_cap > 0 else 0.0
        n = max(2, int(np.ceil(chi_max / chi_step)) + 1)
        n = min(n, 20001)
        return RadialSliceChart(s=s, chi=np.linspace(0.0, chi_max, n),
                                cone_margin=m)
    ax = grid.axis(0)
    # one-cell margin so first spatial derivatives stay interior
    keep = slice(1, grid.n - 1)
    xs = ax[keep]
    X1, X2, X3 = np.meshgrid(xs, xs, xs, indexing="ij")
    r2 = X1 ** 2 + X2 ** 2 + X3 ** 2
    mask = r2 <= r_cap ** 2
    ii, jj, kk = np.nonzero(mask)
    x = np.stack([X1[mask], X2[mask], X3[mask]], axis=-1)
    return BoxSliceChart(s=s, idx=(ii + 1, jj + 1, kk + 1), x=x,
                         cone_margin=m, cell_volume=grid.dx ** 3)


# === sampling ===

def sample_radial_history(fn, grid, times, parity=EVEN) -> FieldHistory:
    """Sample fn(t, r) over the radial grid at the given times; the
    arguments broadcast.  (:func:`sample_history` samples box grids.)"""
    times = np.asarray(times, dtype=float)
    r = grid.r()
    vals = np.stack([np.broadcast_to(fn(t, r), r.shape).astype(float)
                     for t in times])
    return FieldHistory(vals, times, grid, parity=parity)


class SliceSample:
    """Field values and first derivatives sampled on a slice chart.

    Arrays are aligned with the chart's sample points.  `grad` holds
    d_r (radial) or the three d_a (box).
    """

    def __init__(self, chart, value, dt, grad, mode):
        self.chart = chart
        self.s = chart.s
        self.value = value
        self.dt = dt
        self.grad = grad
        self.mode = mode
        self.t = chart.t
        if mode == "radial":
            self.r = chart.r
        else:
            self.r = np.sqrt(np.sum(chart.x ** 2, axis=-1))

    def frame_tangent(self) -> np.ndarray:
        """The ray profile (r/t) d_t w + d_r w of L_a w / t (radial)."""
        return (self.r / self.t) * self.dt + self.grad

    def energy_density(self, mass: float = 0.0) -> np.ndarray:
        """((s/t) d_t w)^2 + sum_a (frame_a w)^2 + mass^2 w^2 on a radial
        chart."""
        out = ((self.s / self.t) * self.dt) ** 2 + mass ** 2 * self.value ** 2
        return out + self.frame_tangent() ** 2


def _time_window_check(times, t_query, npts):
    need_lo, need_hi = float(np.min(t_query)), float(np.max(t_query))
    lo_ok = times[npts // 2 - 1]
    hi_ok = times[len(times) - npts // 2 - (npts % 2)]
    if need_lo < lo_ok - 1e-12 or need_hi > hi_ok + 1e-12:
        raise SliceCoverageError(
            f"slice needs t in [{need_lo:.6g}, {need_hi:.6g}] but stored "
            f"levels only cover [{lo_ok:.6g}, {hi_ok:.6g}]",
            needed=(need_lo, need_hi), available=(float(lo_ok), float(hi_ok)))


def interpolate_to_slice(h: FieldHistory, s: float,
                         cone_margin: float | None = None,
                         chi_step: float = DEFAULT_CHI_STEP,
                         chart=None) -> SliceSample:
    """Sample a field history on H_s.

    Cubic (4-level) interpolation in t, one order above the scheme; the
    time derivative is the interpolant's derivative.  Radial charts also
    interpolate in r (cubic), box charts sample grid columns directly.
    Raises SliceCoverageError listing the missing time range if the
    stored levels do not bracket the slice.
    """
    if chart is None:
        chart = make_chart(h.grid, s, cone_margin, chi_step)
    times = h.times
    dt = h.dt
    if h.grid.mode == "radial":
        tq = chart.t
        rq = chart.r
        _time_window_check(times, tq, 4)
        # even/odd ghost columns so r-interpolation can cross the axis
        if h.lo[0] != 0:
            raise SliceCoverageError("radial slice sampling needs the full grid")
        par = 1.0 if h.parity == EVEN else -1.0
        ext = np.concatenate([par * h.values[:, 3:0:-1], h.values], axis=1)
        ib = np.floor((tq - times[0]) / dt).astype(int)
        ib = np.clip(ib, 1, len(times) - 3)
        ft = (tq - times[ib]) / dt
        jb = np.floor(rq / h.grid.dx).astype(int)
        jb = np.clip(jb, -2, h.grid.n - 4 + 1)      # ext has 3 ghost cols
        fr = rq / h.grid.dx - jb
        wt = window_weights(ft, WINDOW4)             # (n, 4)
        wtd = window_weights(ft, WINDOW4, deriv=1) / dt
        wr = window_weights(fr, WINDOW4)
        wrd = window_weights(fr, WINDOW4, deriv=1) / h.grid.dx
        lev = ib[:, None] + np.arange(-1, 3)[None, :]
        col = (jb + 3)[:, None] + np.arange(-1, 3)[None, :]
        cube = ext[lev[:, :, None], col[:, None, :]]  # (n, 4t, 4r)
        value = np.einsum("nij,ni,nj->n", cube, wt, wr)
        dval = np.einsum("nij,ni,nj->n", cube, wtd, wr)
        grad = np.einsum("nij,ni,nj->n", cube, wt, wrd)
        return SliceSample(chart, value, dval, grad, "radial")
    # box mode
    tq = chart.t
    _time_window_check(times, tq, 4)
    ib = np.floor((tq - times[0]) / dt).astype(int)
    ib = np.clip(ib, 1, len(times) - 3)
    ft = (tq - times[ib]) / dt
    wt = window_weights(ft, WINDOW4)
    wtd = window_weights(ft, WINDOW4, deriv=1) / dt
    ii, jj, kk = chart.idx
    cols = h.values[:, ii - h.lo[0], jj - h.lo[1], kk - h.lo[2]]  # (L, n)
    lev = ib[:, None] + np.arange(-1, 3)[None, :]
    quad = cols[lev, np.arange(len(tq))[:, None]]    # (n, 4)
    value = np.einsum("ni,ni->n", quad, wt)
    dval = np.einsum("ni,ni->n", quad, wtd)
    grad = np.empty((len(tq), 3))
    for a in range(3):
        da = h.sderiv(a)
        colsa = da.values[:, ii - da.lo[0], jj - da.lo[1], kk - da.lo[2]]
        quada = colsa[lev, np.arange(len(tq))[:, None]]
        grad[:, a] = np.einsum("ni,ni->n", quada, wt)
    return SliceSample(chart, value, dval, grad, "box")


# === boosts and the Sobolev ratio on box histories ===

def apply_boost(h: FieldHistory, a: int = 0) -> FieldHistory:
    """L_a = x_a d_t + t d_a on a box history (a = 0, 1, 2)."""
    d = h.sderiv(a)
    return h.tderiv().mul_coord(a) + d.copy_meta(d.values * d.t_col())


def sobolev_ratio_history(h, s: float, cone_margin=None) -> float:
    """The ratio of ``sobolev_ratio_profile`` measured directly on a 3D
    field history.

    Boosts come from the history operators, norms from box slice
    quadrature; used to cross-check the angular reduction.
    """
    chart = make_chart(h.grid, s, cone_margin)
    t = np.sqrt(s * s + np.sum(chart.x ** 2, axis=1))

    def norm(hist):
        smp = interpolate_to_slice(hist, s, cone_margin, chart=chart)
        return math.sqrt(float(np.sum(smp.value ** 2)) * chart.cell_volume)

    base = interpolate_to_slice(h, s, cone_margin, chart=chart)
    num = float(np.max(t ** 1.5 * np.abs(base.value)))
    denom = norm(h)
    boosts = [apply_boost(h, a) for a in range(3)]
    for b in boosts:
        denom += norm(b)
    for b in boosts:
        for a in range(3):
            denom += norm(apply_boost(b, a))
    return num / denom
