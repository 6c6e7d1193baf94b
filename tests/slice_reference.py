"""Reference slice route: sample a stored field history on a hyperboloid
H_s by direct interpolation of its grid levels.

hfoil's scenarios measure slices through the QueryPool lattices and the
chain-rule expansions of :mod:`hfoil.analysis`.  This module is the
independent second route the tests compare them with:

* the dual-route energy tests sample radial histories with
  :func:`interpolate_to_slice` and integrate
  :meth:`SliceSample.energy_density` against
  ``SliceEnergySuite.energies``;
* the Sobolev test measures :func:`sobolev_ratio_history` on a box
  history against the angular reduction ``sobolev_ratio_profile``.

Not a test module (pytest collects ``test_*.py`` only); the test
modules import it by name from this directory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hfoil.fields import EVEN, FieldHistory
from hfoil.geometry import slice_cone_margin
from hfoil.util import SliceCoverageError, lagrange_weights, trapezoid_weights

DEFAULT_CHI_STEP = 0.005


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
        wt = lagrange_weights(ft, 4)                 # (n, 4)
        wtd = lagrange_weights(ft, 4, deriv=1) / dt
        wr = lagrange_weights(fr, 4)
        wrd = lagrange_weights(fr, 4, deriv=1) / h.grid.dx
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
    wt = lagrange_weights(ft, 4)
    wtd = lagrange_weights(ft, 4, deriv=1) / dt
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
