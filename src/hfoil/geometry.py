"""Foliation geometry: hyperboloidal slices inside the light cone, the
boost frame adapted to them, and slice sampling of evolved fields.

Conventions used throughout the package:

* slices H_s = {t^2 - |x|^2 = s^2, t > 0}, labelled by the hyperbolic
  radius s;
* working region K = {|x| <= t - 1}, the interior of a shifted light
  cone, inside which s <= t <= s^2;
* boosts L_a = x_a d_t + t d_a; frame tangents are L_a / t; the
  transverse derivative is perp = d_t + (x^a/t) d_a;
* d'Alembertian with the -d_t^2 + Laplacian sign.

Spherically symmetric (radial) histories represent 3D fields u(t, |x|);
boost and frame operators then reduce along a representative ray, e.g.
L_a u = (x_a/r) (r d_t + t d_r) u, and the functions here return the
scalar ray profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import EVEN, ODD, FieldHistory
from .util import SliceCoverageError, lagrange_weights, trapezoid_weights

DEFAULT_CHI_STEP = 0.005


# === pointwise geometry ===

def hyperbolic_radius(t, x):
    """s = sqrt(t^2 - |x|^2); requires t > |x|."""
    t = np.asarray(t, dtype=float)
    r2 = _radius_sq(x)
    s2 = t * t - r2
    if np.any(s2 <= 0) or np.any(t <= 0):
        raise ValueError("hyperbolic radius needs t > |x| > -t")
    return np.sqrt(s2)


def _radius_sq(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return x * x
    return np.sum(x * x, axis=-1)


def in_cone(t, x) -> bool:
    """Membership in K = {|x| <= t - 1} (exact, closed)."""
    return bool(np.sqrt(_radius_sq(x)) <= np.asarray(t, dtype=float) - 1.0)


def cone_entry_radius(t, r):
    """sqrt((t+r)/(t-r)): the hyperbolic radius at which the straight ray
    through (t, r) crosses the cone boundary t - |x| = 1.

    Satisfies S * sqrt(t-r) = sqrt(t+r) and S = s/(t-r).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= t):
        raise ValueError("entry radius needs 0 <= r < t")
    return np.sqrt((t + r) / (t - r))


def chi_of(t, r):
    """Hyperbolic angle artanh(r/t); equals log of the entry radius."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return 0.5 * np.log((t + r) / (t - r))


# === frame operators on field histories ===

def _scale(h: FieldHistory, fn, parity_factor: int = 1) -> FieldHistory:
    """Multiply by a coefficient built from the window coordinates."""
    if h.grid.mode == "radial":
        arr = fn(h.t_col(), h.coord(0))
        parity = None if h.parity is None else h.parity * parity_factor
        return h.copy_meta(h.values * arr, parity=parity)
    arr = fn(h.t_col(), h.coord(0), h.coord(1), h.coord(2))
    return h.copy_meta(h.values * arr)


def apply_boost(h: FieldHistory, a: int = 0) -> FieldHistory:
    """L_a = x_a d_t + t d_a (box mode, a = 0,1,2); the ray reduction
    r d_t + t d_r in radial mode (a ignored)."""
    if h.grid.mode == "radial":
        return h.tderiv().mul_coord(0) + h.sderiv(0).mul_t()
    return h.tderiv().mul_coord(a) + h.sderiv(a).mul_t()


def apply_frame_tangent(h: FieldHistory, a: int = 0) -> FieldHistory:
    """The slice-tangent frame derivative L_a / t = d_a + (x_a/t) d_t."""
    if h.grid.mode == "radial":
        return h.sderiv(0) + h.tderiv().mul_coord(0).div_t()
    return h.sderiv(a) + h.tderiv().mul_coord(a).div_t()


def apply_perp(h: FieldHistory) -> FieldHistory:
    """perp = d_t + (x^a/t) d_a, transverse to the slices."""
    out = h.tderiv()
    if h.grid.mode == "radial":
        return out + h.sderiv(0).mul_coord(0).div_t()
    for a in range(3):
        out = out + h.sderiv(a).mul_coord(a).div_t()
    return out


def dalembertian_cartesian(h: FieldHistory) -> FieldHistory:
    """-d_t^2 + Laplacian, centered second differences."""
    if h.grid.mode == "radial":
        # radial Laplacian d_r^2 + (2/r) d_r with the axis closed by parity
        lap = h.sderiv(0, order=2) + 2.0 * h.sderiv(0).div_r()
        return lap - h.tderiv(order=2)
    out = h.tderiv(order=2) * -1.0
    for a in range(3):
        out = out + h.sderiv(a, order=2)
    return out


def dalembertian_frame(h: FieldHistory) -> FieldHistory:
    """The d'Alembertian assembled in the boost frame.

    Composes discrete frame derivatives according to

        box u = -(s^2/t^2) d_t d_t u - (x^a/t) d_t (L_a u / t)
                - (x^a/t) (L_a/t)(d_t u) + sum_a (L_a/t)(L_a/t) u
                - (3/t) d_t u

    and must agree with :func:`dalembertian_cartesian` up to stencil
    truncation error (exactly, on quadratics).
    """
    dtw = h.tderiv()
    if h.grid.mode == "radial":
        g = apply_frame_tangent(h)                       # odd for even h
        out = _scale(h.tderiv(order=2), lambda t, r: r * r / (t * t) - 1.0)
        out = out - _scale(g.tderiv(), lambda t, r: r / t, parity_factor=-1)
        out = out - _scale(apply_frame_tangent(dtw), lambda t, r: r / t,
                           parity_factor=-1)
        out = out + 2.0 * g.div_r() + apply_frame_tangent(g)
        return out - _scale(dtw, lambda t, r: 3.0 / t)
    def s2_over_t2(t, x1, x2, x3):
        return (t * t - x1 * x1 - x2 * x2 - x3 * x3) / (t * t)
    out = _scale(h.tderiv(order=2), lambda t, *x: -s2_over_t2(t, *x))
    for a in range(3):
        fa = apply_frame_tangent(h, a)
        coeff = lambda t, *x, _a=a: x[_a] / t
        out = out - _scale(fa.tderiv(), coeff)
        out = out - _scale(apply_frame_tangent(dtw, a), coeff)
        out = out + apply_frame_tangent(fa, a)
    return out - _scale(dtw, lambda t, *x: 3.0 / t)


# === slice charts and sampling ===

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


def slice_cone_margin(dx: float) -> float:
    """How far inside the shifted cone |x| = t - 1 the slice charts of a
    run with radial step dx stop: 2 dx.  Grid plans, run lengths, the
    suite's tabulated charts and make_chart all take it from here."""
    return 2.0 * dx


def slice_radius_cap(s: float, cone_margin: float) -> float:
    """Largest |x| on H_s with |x| <= t - 1 - margin."""
    c = 1.0 + cone_margin
    if s <= c:
        return 0.0
    return (s * s - c * c) / (2.0 * c)


def make_chart(grid, s: float, cone_margin: float | None = None,
               chi_step: float = DEFAULT_CHI_STEP):
    """Build the diagnostic chart of H_s for a grid, truncated
    slice_cone_margin(dx) (by default) inside the cone boundary."""
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

    # -- frame combinations (pointwise, exact coefficients) --

    def boost(self, a: int = 0) -> np.ndarray:
        if self.mode == "radial":
            return self.r * self.dt + self.t * self.grad
        return self.chart.x[:, a] * self.dt + self.t * self.grad[:, a]

    def frame_tangent(self, a: int = 0) -> np.ndarray:
        if self.mode == "radial":
            return (self.r / self.t) * self.dt + self.grad
        return self.grad[:, a] + (self.chart.x[:, a] / self.t) * self.dt

    def perp(self) -> np.ndarray:
        if self.mode == "radial":
            return self.dt + (self.r / self.t) * self.grad
        out = self.dt.copy()
        for a in range(3):
            out += (self.chart.x[:, a] / self.t) * self.grad[:, a]
        return out

    def energy_density(self, mass: float = 0.0) -> np.ndarray:
        """((s/t) d_t w)^2 + sum_a (frame_a w)^2 + mass^2 w^2 on the chart."""
        out = ((self.s / self.t) * self.dt) ** 2 + mass ** 2 * self.value ** 2
        if self.mode == "radial":
            out += self.frame_tangent() ** 2
        else:
            for a in range(3):
                out += self.frame_tangent(a) ** 2
        return out


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
