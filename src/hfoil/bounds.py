"""Explicit pointwise envelopes for the linear problems and margin checks.

Two closed-form majorants are evaluated here: a Klein-Gordon envelope V
built from integrals of the metric perturbation along rays through the
origin, and a piecewise power-law bound for the sourced wave equation.
Margin checks run the matching linear solver and report the measured
ratio field/envelope over a lattice of cone-interior sample points.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .util import smoothstep, smoothstep_d
from .solver import (InitialData, grid_for_run, solve_linear_kg_curved,
                     solve_linear_wave_sourced)
from .analysis import QueryPool


# === parameters and ray geometry ===

@dataclass
class BoundParams:
    """Knobs of the envelope evaluation.

    C scales the exponential weights, mass is the Klein-Gordon mass,
    dlam the ray quadrature step, s0 the first hyperboloid (it also
    fixes the far/near threshold r/t = (s0^2-1)/(s0^2+1)).
    """
    C: float = 10.0
    mass: float = 1.0
    dlam: float = 0.01
    s0: float = 2.0
    C_sweep: tuple = (1.0, 10.0, 100.0)

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError("C must be positive")
        if not self.dlam > 0:
            raise ValueError("dlam must be positive")
        if not self.s0 > 1:
            raise ValueError("s0 must exceed 1")

    @property
    def far_threshold(self) -> float:
        # always < 1: every interior direction gets exactly one regime
        return (self.s0 ** 2 - 1.0) / (self.s0 ** 2 + 1.0)


class RayCoords:
    """The ray lam -> (lam*t/s, lam*r/s) through a base point (t, r).

    Every ray point sits on H_lam exactly.  lam runs from lam_min to s,
    where lam_min is s0 in the far regime and the cone-entry value
    S = sqrt((1+r/t)/(1-r/t)) in the near regime; ties go near.
    """

    def __init__(self, t: float, r: float, params: BoundParams):
        if not t > r or r < 0:
            raise ValueError("ray base must satisfy t > r >= 0")
        self.t = float(t)
        self.r = float(r)
        self.s = math.sqrt(t * t - r * r)
        self.rho = self.r / self.t
        self.S = math.sqrt((1.0 + self.rho) / (1.0 - self.rho))
        self.far = self.rho < params.far_threshold - 1e-12
        self.lam_min = params.s0 if self.far else self.S
        if self.s < self.lam_min - 1e-9:
            raise ValueError(
                f"base point lies before the ray start: s={self.s:.6g} "
                f"< lam_min={self.lam_min:.6g}")

    def points(self, lam):
        lam = np.asarray(lam, dtype=float)
        return lam * (self.t / self.s), lam * (self.r / self.s)

    def lam_nodes(self, dlam: float) -> np.ndarray:
        return lam_grid(self.lam_min, self.s, dlam)[0][0]


def lam_count(lam_min, s, dlam: float) -> np.ndarray:
    """Quadrature node counts of rays from lam_min to s with step at
    most dlam: max(2, ceil((s - lam_min) / dlam) + 1) per ray."""
    lo = np.atleast_1d(np.asarray(lam_min, dtype=float))
    hi = np.atleast_1d(np.asarray(s, dtype=float))
    return np.maximum(2, np.ceil((hi - lo) / dlam).astype(int) + 1)


def lam_grid(lam_min, s, dlam: float):
    """(nodes, n): quadrature nodes of rays from lam_min to s, one row
    per ray, and each row's node count n = lam_count(lam_min, s, dlam).

    Row i is np.linspace(lam_min[i], s[i], n[i]) bit for bit: k*step +
    lam_min[i] with step = (s[i] - lam_min[i]) / (n[i] - 1) and the last
    node pinned to s[i] (lam_min >= s0 > 1, so step is never a
    subnormal that rounds to 0).  Past its own n[i] nodes a row repeats
    s[i], so the padding adds nothing to a cumulative trapezoid sum.
    """
    n = lam_count(lam_min, s, dlam)
    lo = np.atleast_1d(np.asarray(lam_min, dtype=float))[:, None]
    hi = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
    last = (n - 1)[:, None]
    k = np.arange(int(n.max()), dtype=float)
    lam = k * ((hi - lo) / last) + lo
    np.copyto(lam, hi, where=k >= last)
    return lam, n


class MetricPerturb:
    """A scalar perturbation profile h(t, r), optionally with analytic
    t- and r-derivatives (used exactly when present, else the ray
    derivative falls back to centered differences)."""

    def __init__(self, value: Callable, dt: Optional[Callable] = None,
                 dr: Optional[Callable] = None):
        self.value = value
        self.dt = dt
        self.dr = dr

    def __call__(self, t, r):
        return self.value(t, r)

    @property
    def analytic(self) -> bool:
        return self.dt is not None and self.dr is not None


ZERO_METRIC = MetricPerturb(lambda t, r: np.zeros_like(np.asarray(r, float)),
                            dt=lambda t, r: np.zeros_like(np.asarray(r, float)),
                            dr=lambda t, r: np.zeros_like(np.asarray(r, float)))


def _on_support(t, r, lo):
    """(t, r, q, on): t and r as float arrays (a scalar t stays 0-d),
    q = t - r, and the mask on = q > lo outside which a profile switched
    on over a band starting at lo vanishes."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    q = t - r
    return t, r, q, q > lo


def _restrict(a, on):
    """a on the support mask, leaving a 0-d a as it is."""
    if a.ndim == 0:
        return a
    if a.shape != on.shape:
        a = np.broadcast_to(a, on.shape)
    return a[on]


def metric_pull(amp: float = 0.1, band=(1.0, 1.5)) -> MetricPerturb:
    """h = amp*(s/t) switched on over the band in t-r.

    s/t is constant along rays, so the ray derivative comes entirely
    from the switch; the ramp is C^2 so perp h exists classically.
    The value is evaluated only on its support t - r > band[0] and is
    zero elsewhere.
    """
    lo, wid = float(band[0]), float(band[1]) - float(band[0])

    def parts(t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        cut = smoothstep((t - r - lo) / wid)
        with np.errstate(invalid="ignore"):
            g = np.sqrt(np.maximum(1.0 - (r / t) ** 2, 0.0))
        return t, r, g, cut

    def value(t, r):
        t, r, q, on = _on_support(t, r, lo)
        out = np.zeros(on.shape)
        tt, rr = _restrict(t, on), _restrict(r, on)
        cut = smoothstep((q[on] - lo) / wid)
        with np.errstate(invalid="ignore"):
            g = np.sqrt(np.maximum(1.0 - (rr / tt) ** 2, 0.0))
        out[on] = amp * g * cut
        return out

    def dt(t, r):
        t, r, g, cut = parts(t, r)
        dcut = smoothstep_d((t - r - lo) / wid) / wid
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = np.where(g > 0, r * r / (np.maximum(g, 1e-300) * t ** 3), 0.0)
        return amp * np.where(cut > 0, dg * cut + g * dcut, 0.0)

    def dr(t, r):
        t, r, g, cut = parts(t, r)
        dcut = -smoothstep_d((t - r - lo) / wid) / wid
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = np.where(g > 0, -r / (np.maximum(g, 1e-300) * t ** 2), 0.0)
        return amp * np.where(cut > 0, dg * cut + g * dcut, 0.0)

    return MetricPerturb(value, dt=dt, dr=dr)


def wave_source(mu: float, nu: float, amp: float = 1.0,
                band=(1.0, 1.5)) -> Callable:
    """f = amp * t^-(2+nu) * (t-r)^(mu-1), switched on over the band.

    The switch keeps the support inside the cone and regularizes the
    (t-r) power at the tip; past the band the profile is exact.  f is
    evaluated only on its support t - r > band[0] and is zero elsewhere.
    """
    lo, wid = float(band[0]), float(band[1]) - float(band[0])

    def f(t, r):
        t, r, q, on = _on_support(t, r, lo)
        out = np.zeros(on.shape)
        qs = q[on]
        cut = smoothstep((qs - lo) / wid)
        out[on] = amp * cut * _restrict(t, on) ** (-(2.0 + nu)) \
            * qs ** (mu - 1.0)
        return out

    return f


# === ray integrals ===

# cap on points x nodes of one envelope block, so the 2D quadrature
# arrays stay small the way QueryPool's cap keeps one flush small; at
# 2048 linear-kg-bound peaks at the RSS of the per-point route, at 4096
# it peaked 0.3 MB higher
ENVELOPE_BLOCK = 2048


def h_ray_derivative(h, rays, lam):
    """d/dlam of h along each ray, at the nodes in the matching row of
    the 2D lam (one row per RayCoords in rays): (t/s) d_t h + (r/s) d_r h
    at the ray point, which is (t/s) times the perp derivative there.
    Every node must lie in its own ray's [lam_min, s]."""
    lam = np.asarray(lam, dtype=float)
    lo = np.array([[ray.lam_min] for ray in rays])
    hi = np.array([[ray.s] for ray in rays])
    if np.any(lam < lo - 1e-9) or np.any(lam > hi + 1e-9):
        raise ValueError("lambda outside the ray range")
    a = np.array([[ray.t / ray.s] for ray in rays])
    b = np.array([[ray.r / ray.s] for ray in rays])
    if isinstance(h, MetricPerturb) and h.analytic:
        tp, rp = lam * a, lam * b
        return a * h.dt(tp, rp) + b * h.dr(tp, rp)
    fn = h
    dl = 1e-5 * np.maximum(lam, 1.0)
    up, dn = lam + dl, lam - dl
    return (np.asarray(fn(up * a, up * b), float)
            - np.asarray(fn(dn * a, dn * b), float)) / (2 * dl)


class RayIntegral:
    """Cumulative integral of lam^{3/2} |f| along one ray, evaluable at
    any s-bar in [lam_min, s] by linear interpolation of the nodes."""

    def __init__(self, lam: np.ndarray, cum: np.ndarray):
        self.lam = lam
        self.cum = cum
        self.lam_min = float(lam[0])
        self.s = float(lam[-1])

    def __call__(self, sbar):
        return np.interp(sbar, self.lam, self.cum)

    @property
    def total(self) -> float:
        return float(self.cum[-1])


def accumulate_F(f: Optional[Callable], ray: RayCoords,
                 params: BoundParams) -> RayIntegral:
    lam = ray.lam_nodes(params.dlam)
    if f is None:
        return RayIntegral(lam, np.zeros_like(lam))
    tp, rp = ray.points(lam)
    g = lam ** 1.5 * np.abs(np.asarray(f(tp, rp), dtype=float))
    cum = np.concatenate([[0.0],
                          np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(lam))])
    return RayIntegral(lam, cum)


def envelope_V(rays, data_norms, F: RayIntegral, h, params: BoundParams,
               Cs=None) -> np.ndarray:
    """The Klein-Gordon majorant at the base points of one ray.

    far:  (|v0|+|v1|)(1 + int |h'| e^{C int_tail |h'|})
          + F(s) + int F |h'| e^{C int_tail |h'|}
    near: F(s) + int F |h'| e^{C int_tail |h'|}
    with all integrals along the ray from lam_min to s.

    rays are the RayCoords of base points on one lattice ray, which
    share the source integral F (accumulated to the farthest of them);
    each point reads F at its own s.  Cs are the weights C (default:
    params.C).  Returns V with shape (len(Cs), len(rays)).

    Block contract: consecutive base points go in blocks whose rows x
    longest row stays within ENVELOPE_BLOCK node values (one point at
    least); a block is one (points x nodes) array on lam_grid rows, and
    one h_ray_derivative call serves it for every C.  Each entry is bit
    for bit the one-point, one-C quadrature on RayCoords.lam_nodes: the
    cumulative sum runs along each row, and each total is np.sum over
    the row's own nodes, never over its padding (a pairwise sum depends
    on the length).
    """
    Cs = (params.C,) if Cs is None else tuple(float(c) for c in Cs)
    norm = float(data_norms[0]) + float(data_norms[1])
    n = lam_count([ray.lam_min for ray in rays], [ray.s for ray in rays],
                  params.dlam)
    V = np.empty((len(Cs), len(rays)))
    for lo, hi in _blocks(n):
        block = rays[lo:hi]
        lam, nb = lam_grid([ray.lam_min for ray in block],
                           [ray.s for ray in block], params.dlam)
        hp = np.abs(h_ray_derivative(h, block, lam))
        dl = np.diff(lam, axis=1)
        cum = np.zeros(lam.shape)
        np.cumsum(0.5 * (hp[:, 1:] + hp[:, :-1]) * dl, axis=1,
                  out=cum[:, 1:])
        # int_{lam}^{s} |h'|, taken from each row's own last node
        tail = cum[np.arange(hi - lo), nb - 1][:, None] - cum
        Fv = F(lam)
        far = any(ray.far for ray in block)
        for ci, C in enumerate(Cs):
            kern = hp * np.exp(C * tail)
            kF = kern * Fv
            grow = 0.5 * (kF[:, 1:] + kF[:, :-1]) * dl
            if far:
                boost = 0.5 * (kern[:, 1:] + kern[:, :-1]) * dl
            for i, (ray, m) in enumerate(zip(block, nb - 1)):
                v = float(F(ray.s)) + float(np.sum(grow[i, :m]))
                if ray.far:
                    v += norm * (1.0 + float(np.sum(boost[i, :m])))
                V[ci, lo + i] = v
    return V


def _blocks(n):
    """(lo, hi) ranges of consecutive rays with node counts n whose
    rows x longest row stays within ENVELOPE_BLOCK (one ray at least)."""
    lo, width = 0, 0
    for i, m in enumerate(n):
        width = max(width, int(m))
        if i > lo and (i + 1 - lo) * width > ENVELOPE_BLOCK:
            yield lo, i
            lo, width = i, int(m)
    if len(n):
        yield lo, len(n)


# === wave envelope ===

def wave_bound_value(mu: float, nu: float, t, r):
    """Piecewise sup-norm bound for the sourced wave solution.

    (1/(nu*mu)) (t-r)^{-(nu-mu)} / t          for 0 < nu <= 1/2,
    (1/(|nu|*mu)) (t-r)^{mu} / t^{1+nu}       for -1/2 <= nu < 0;
    requires 0 < mu <= 1/2, 0 < |nu| <= 1/2, t > r >= 0, t >= 2.
    """
    if nu == 0:
        raise ValueError("nu = 0 is excluded")
    if not (0 < mu <= 0.5):
        raise ValueError("mu must lie in (0, 1/2]")
    if not (0 < abs(nu) <= 0.5):
        raise ValueError("|nu| must lie in (0, 1/2]")
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t < 2.0) or np.any(t <= r) or np.any(r < 0):
        raise ValueError("points must satisfy t >= 2, t > r >= 0")
    q = t - r
    if nu > 0:
        out = (1.0 / (nu * mu)) * q ** (mu - nu) / t
    else:
        out = (1.0 / (abs(nu) * mu)) * q ** mu / t ** (1.0 + nu)
    return out if out.ndim else float(out)


# === sample lattices and margin reports ===

def _ray_fan(n_rays: int, chi_cap: float) -> np.ndarray:
    # uniform in hyperbolic angle: clusters toward the cone in r/t
    return np.linspace(0.0, chi_cap, n_rays)


class _CrossProbe:
    """Pool queries for values and a centered first-derivative cross."""

    def __init__(self, pool: QueryPool, field: str, t, r, delta: float):
        self.delta = delta
        self.h = [pool.add(field, t, r),
                  pool.add(field, t + delta, r),
                  pool.add(field, t - delta, r),
                  pool.add(field, t, r + delta),
                  pool.add(field, t, r - delta)]

    def read(self, pool: QueryPool):
        c, tp, tm, rp, rm = (pool.result(h) for h in self.h)
        return c, (tp - tm) / (2 * self.delta), (rp - rm) / (2 * self.delta)


def kg_bound_margin(h, data: InitialData, params: BoundParams,
                    f: Optional[Callable] = None, dx: float = 0.05,
                    s_max: float = 8.0, n_rays: int = 16, n_s: int = 20,
                    t0: float = 2.0, cfl: float = 0.5,
                    tr_min: float = 1.25, delta: float = 0.08) -> dict:
    """Run the curved linear Klein-Gordon problem and measure
    [s^{3/2}|v| + (t/s) s^{3/2} |perp v|] / V over a ray lattice.

    Ratios are taken where V > 0; lattice points with V = 0 (near
    regime with no source) are counted apart with their largest
    weighted field value.  Points the grid or run cannot cover are
    skipped with a count.  delta is the physical step of the centered
    cross estimating perp v; it is deliberately not tied to dx so the
    same quantity is measured at every resolution.

    Envelopes are taken per lattice ray, not per point: one envelope_V
    call per ray for every distinct C of (params.C, *params.C_sweep) at
    dlam and one at dlam/2 (quad_refinement_delta), each evaluated in
    blocks of ENVELOPE_BLOCK node values.  Every V is bit for bit the
    one-point, one-C quadrature, so the report does not depend on the
    blocking.
    """
    if not isinstance(h, MetricPerturb):
        h = MetricPerturb(h)
    chi = _ray_fan(n_rays, math.log(s_max / tr_min))
    s_vals = np.geomspace(1.1 * params.s0, s_max, n_s)
    SS, CC = np.meshgrid(s_vals, np.cosh(chi), indexing="ij")
    _, HH = np.meshgrid(s_vals, np.sinh(chi), indexing="ij")
    T = SS * CC
    R = SS * HH
    inside = SS >= np.exp(chi)[None, :] * tr_min    # t - r >= tr_min

    t_max = float(np.max(T[inside])) if inside.any() else t0
    dt = cfl * dx
    t_end = t_max + delta + 12 * dt
    grid = grid_for_run(dx, t0, t_end)
    # the pool's 10-pt window must stay on the grid
    covered = inside & (T - delta >= t0) & \
        (R + delta <= grid.r_max - 16 * dx)
    skipped = int(inside.sum() - covered.sum())

    pool = QueryPool(grid)
    probe = _CrossProbe(pool, "v", T[covered], R[covered], delta)
    solve_linear_kg_curved(grid, h, params.mass, data, t0=t0, t_end=t_end,
                           cfl=cfl, observers=(pool,), source=f)
    pool.assert_resolved()
    v, v_t, v_r = probe.read(pool)

    _, ci = np.nonzero(covered)          # ray index, aligned with ts/rs
    ts, rs = T[covered], R[covered]
    ss = np.sqrt(ts * ts - rs * rs)
    perp = v_t + (rs / ts) * v_r
    weighted = ss ** 1.5 * np.abs(v) + (ts / ss) * ss ** 1.5 * np.abs(perp)

    rr = grid.r(0, grid.n)
    n0 = float(np.max(np.abs(np.asarray(data.v0(rr), dtype=float))))
    n1 = float(np.max(np.abs(np.asarray(data.v1(rr), dtype=float))))

    V, V_half, Vs, regimes = _lattice_envelopes(h, f, params, ts, rs, ci,
                                                (n0, n1))
    pos = V > 0
    ratio = np.zeros(ts.size)
    ratio[pos] = weighted[pos] / V[pos]

    per_s = []
    for s in s_vals:
        m = np.abs(ss - s) < 1e-9 * s
        if not (m & pos).any():
            continue
        per_s.append({"s": float(s),
                      "max_ratio": float(np.max(ratio[m & pos]))})
    quad = float(np.max(np.abs(V_half[pos] - V[pos]) / V[pos])) \
        if pos.any() else 0.0
    rep = {
        "proposition": "kg-envelope",
        "params": {"C": params.C, "mass": params.mass, "dlam": params.dlam,
                   "s0": params.s0, "dx": dx, "s_max": s_max,
                   "tr_min": tr_min, "delta": delta,
                   "data_norms": [n0, n1], "sourced": f is not None},
        "per_s_max_ratio": per_s,
        "max_ratio": float(np.max(ratio[pos])) if pos.any() else 0.0,
        "regime_counts": {"far": int(regimes.sum()),
                          "near": int((~regimes).sum())},
        "quadrature_step": params.dlam,
        "quad_refinement_delta": quad,
        "C_sensitivity": {format_c(c): float(np.max(
            weighted[pos & (Vs[c] > 0)] / Vs[c][pos & (Vs[c] > 0)]))
            if (pos & (Vs[c] > 0)).any() else 0.0
            for c in params.C_sweep},
        "skipped": skipped,
        "zero_envelope": {
            "count": int((~pos).sum()),
            "max_weighted_value": float(np.max(weighted[~pos]))
            if (~pos).any() else 0.0},
        "refinement_deltas": None,
    }
    return rep


def _lattice_envelopes(h, f, params: BoundParams, ts, rs, ci, data_norms):
    """(V, V_half, Vs, far) at the base points (ts, rs) of lattice rays ci.

    One envelope_V call per lattice ray and quadrature step: at dlam for
    every distinct C of (params.C, *params.C_sweep), and at dlam/2 for
    params.C.  Each ray's source integral is accumulated once per step,
    to its farthest base point.  Vs maps each C of the sweep to its V.
    """
    half = BoundParams(C=params.C, mass=params.mass, dlam=params.dlam / 2,
                       s0=params.s0, C_sweep=params.C_sweep)
    Cs = list(dict.fromkeys(float(c) for c in (params.C, *params.C_sweep)))
    V = np.empty(ts.size)
    V_half = np.empty(ts.size)
    Vs = {c: np.empty(ts.size) for c in params.C_sweep}
    far = np.empty(ts.size, dtype=bool)
    for j in np.unique(ci):
        idx = np.nonzero(ci == j)[0]
        rays = [RayCoords(ts[i], rs[i], params) for i in idx]
        top = rays[int(np.argmax(ts[idx]))]
        far[idx] = [ray.far for ray in rays]
        env = envelope_V(rays, data_norms, accumulate_F(f, top, params), h,
                         params, Cs)
        V_half[idx] = envelope_V(rays, data_norms,
                                 accumulate_F(f, top, half), h, half)[0]
        V[idx] = env[0]
        for c in params.C_sweep:
            Vs[c][idx] = env[Cs.index(float(c))]
    return V, V_half, Vs, far


def format_c(c: float) -> str:
    return str(int(c)) if float(c).is_integer() else repr(float(c))


def wave_bound_margin(mu: float, nu: float, amp: float = 1.0,
                      dx: float = 0.04, t_lo: float = 10.0,
                      t_end: float = 100.0, n_rays: int = 16,
                      n_t: int = 20, t0: float = 2.0, cfl: float = 0.5,
                      tr_min: float = 2.0) -> dict:
    """Run the sourced wave problem and measure |u| / wave_bound_value
    over a ray lattice, grouped by decade of t."""
    dt = cfl * dx
    t_hi = t_end - 12 * dt
    t_vals = np.geomspace(t_lo, t_hi, n_t)
    chi = _ray_fan(n_rays, 0.5 * math.log(2.0 * t_hi / tr_min))
    rho = np.tanh(chi)
    T, P = np.meshgrid(t_vals, rho, indexing="ij")
    R = T * P
    inside = T - R >= tr_min
    grid = grid_for_run(dx, t0, t_end)
    covered = inside & (R <= grid.r_max - 16 * dx)
    skipped = int(inside.sum() - covered.sum())

    pool = QueryPool(grid)
    handle = pool.add("u", T[covered], R[covered])
    solve_linear_wave_sourced(grid, wave_source(mu, nu, amp), t0=t0,
                              t_end=t_end, cfl=cfl, observers=(pool,))
    pool.assert_resolved()
    u = pool.result(handle)

    ts, rs = T[covered], R[covered]
    bound = wave_bound_value(mu, nu, ts, rs)
    ratio = np.abs(u) / bound

    per_decade = {}
    for dec in np.unique(np.floor(np.log10(ts)).astype(int)):
        m = np.floor(np.log10(ts)).astype(int) == dec
        per_decade[f"1e{dec}"] = float(np.max(ratio[m]))
    per_t = [{"t": float(t), "max_ratio": float(np.max(ratio[np.abs(ts - t)
                                                            < 1e-9 * t]))}
             for t in t_vals if (np.abs(ts - t) < 1e-9 * t).any()]
    return {
        "proposition": "wave-envelope",
        "params": {"mu": mu, "nu": nu, "amp": amp, "dx": dx,
                   "t_range": [t_lo, t_end], "tr_min": tr_min},
        "per_t_max_ratio": per_t,
        "per_decade_max_ratio": per_decade,
        "max_ratio": float(np.max(ratio)) if ratio.size else 0.0,
        "regime_counts": {"inside_cone": int(covered.sum())},
        "quadrature_step": None,
        "skipped": skipped,
        "refinement_deltas": None,
    }


def refinement_delta(coarse: dict, fine: dict) -> float:
    """Relative change of the overall max ratio between two margin
    reports of the same scenario (coarse vs fine grid)."""
    a, b = coarse.get("max_ratio", 0.0), fine.get("max_ratio", 0.0)
    if b == 0.0:
        return 0.0 if a == 0.0 else math.inf
    return abs(a - b) / abs(b)


def attach_refinement(fine: dict, coarse: dict) -> dict:
    fine = dict(fine)
    fine["refinement_deltas"] = {
        "coarse_dx": coarse["params"]["dx"],
        "fine_dx": fine["params"]["dx"],
        "max_ratio_rel_change": refinement_delta(coarse, fine),
    }
    return fine
