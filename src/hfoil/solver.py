"""Finite difference evolution of the coupled wave / Klein-Gordon model

    -box u = P^{ab} d_a v d_b v + R v^2
    -box v + u H^{ab} d_a d_b v + c^2 v = 0          (a, b = t, x1, x2, x3)

on uniform Cartesian time levels.  Spherically symmetric runs evolve
W = r * field on a radial grid (odd in r, so the axis column is pinned
at zero and u = W/r stays regular); box runs evolve the fields directly
on a cube.

The scheme is leapfrog with the mass term averaged over the t-stencil
ends, the quasilinear coefficient frozen at the center level, and the
Klein-Gordon field updated first so the wave source can use a centered
time derivative of v.  Everything is second order; starts are built
from a Taylor step using the equations at the initial time.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import EVEN, ODD, BoxGrid, FieldHistory, RadialGrid
from .util import StabilityError, worker_count

COEFF_GUARD = 0.5        # evolution aborts when |u| * |H| reaches this
BLOWUP_GUARD = 1.0e6
BOUNDARY_GUARD = 1.0e-7  # outer-cell amplitude relative to the run scale

SNAPSHOT_MAGIC = b"HFOL"
SNAPSHOT_VERSION = 1


# === model description ===

@dataclass(frozen=True)
class ModelParams:
    """Coupling data: P and H are symmetric 4x4 arrays indexed (t, x1, x2, x3),
    rcoef multiplies v^2 in the wave source, mass is the Klein-Gordon mass."""
    P: np.ndarray
    H: np.ndarray
    rcoef: float
    mass: float = 1.0

    @classmethod
    def isotropic(cls, p00: float = 1.0, ps: float = 1.0, rcoef: float = 1.0,
                  h00: float = 1.0, hs: float = 1.0, mass: float = 1.0):
        """Rotationally invariant couplings: P = diag(p00, ps, ps, ps) and
        H = diag(h00, hs, hs, hs)."""
        P = np.diag([p00, ps, ps, ps]).astype(float)
        H = np.diag([h00, hs, hs, hs]).astype(float)
        return cls(P=P, H=H, rcoef=rcoef, mass=mass)

    @classmethod
    def free(cls, mass: float = 1.0):
        return cls.isotropic(0.0, 0.0, 0.0, 0.0, 0.0, mass)

    def radial_iso(self):
        """(p00, ps, rcoef, h00, hs) when the couplings are rotationally
        invariant; raises otherwise."""
        P, H = self.P, self.H
        for M, name in ((P, "P"), (H, "H")):
            off = M - np.diag(np.diag(M))
            if np.any(off != 0.0):
                raise ValueError(f"{name} must be diagonal for a radial run")
            if not (M[1, 1] == M[2, 2] == M[3, 3]):
                raise ValueError(f"{name} spatial block must be isotropic "
                                 "for a radial run")
        return (float(P[0, 0]), float(P[1, 1]), self.rcoef,
                float(H[0, 0]), float(H[1, 1]))

    def h_norm(self) -> float:
        """Spectral norm of H, used by the coefficient guard."""
        return float(np.linalg.norm(self.H, 2))


@dataclass(frozen=True)
class InitialData:
    """Cauchy data at the start time: values and time derivatives of both
    fields, as callables of r (radial) or of (x1, x2, x3) (box)."""
    u0: Callable
    u1: Callable
    v0: Callable
    v1: Callable
    support_radius: float = 1.0

    @classmethod
    def bump(cls, eps_u: float, eps_v: float, radius: float = 1.0):
        """Smooth compactly supported bumps eps * exp(1 - 1/(1 - (r/R)^2)),
        zero time derivatives."""
        def shape(r):
            r = np.asarray(r, dtype=float)
            q = (r / radius) ** 2
            out = np.zeros_like(q)
            inside = q < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - q[inside]))
            return out
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return cls(u0=lambda r: eps_u * shape(r), u1=zero,
                   v0=lambda r: eps_v * shape(r), v1=zero,
                   support_radius=radius)

    @classmethod
    def zero(cls):
        z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return cls(u0=z, u1=z, v0=z, v1=z, support_radius=0.0)


@dataclass
class RunResult:
    grid: object
    t0: float
    dt: float
    steps: int
    t_final: float
    u_hist: Optional[FieldHistory] = None
    v_hist: Optional[FieldHistory] = None
    max_abs_u: float = 0.0
    max_abs_v: float = 0.0


def grid_for_run(dx: float, t0: float, t_end: float,
                 support_radius: float = 1.0, pad_cells: int = 60) -> RadialGrid:
    """A radial grid wide enough that nothing reaches the outer boundary:
    light speed is 1 and the discrete domain of dependence leaks less than
    a cell per step beyond it."""
    r_max = support_radius + (t_end - t0) + 1.0 + pad_cells * dx
    return RadialGrid.for_extent(dx, r_max)


# === radial helpers ===
#
# Each helper writes into a caller-owned `out` (never aliasing its input),
# so the radial loops step in preallocated buffers.  The ufunc sequences
# here and in the loops follow the evaluation order of the plain array
# expressions they stand for, so the results match those bit for bit.

def _over_r(W: np.ndarray, r: np.ndarray, dx: float,
            out: np.ndarray) -> np.ndarray:
    """W/r for odd W, with the centered limit at the axis."""
    np.divide(W[1:], r[1:], out=out[1:])
    out[0] = W[1] / dx
    return out


def _ddr_even(a: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Centered d_r of an even array; zero at the axis by symmetry."""
    mid = out[1:-1]
    np.subtract(a[2:], a[:-2], out=mid)
    np.divide(mid, 2.0 * dx, out=mid)
    out[0] = 0.0
    out[-1] = (a[-1] - a[-2]) / dx
    return out


def _d2_odd(W: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Second difference of an odd array pinned to zero at both ends."""
    mid = out[1:-1]
    np.multiply(W[1:-1], 2.0, out=mid)
    np.subtract(W[2:], mid, out=mid)
    np.add(mid, W[:-2], out=mid)
    np.divide(mid, dx * dx, out=mid)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _wave_update(W_prev, W_cur, S, r, dx, dt2, out, lap, work):
    """out = 2 W_cur - W_prev + dt2 (d2 W_cur + r S), pinned at both ends.
    lap and work are scratch; S is only read."""
    np.multiply(W_cur, 2.0, out=out)
    np.subtract(out, W_prev, out=out)
    _d2_odd(W_cur, dx, lap)
    np.multiply(r, S, out=work)
    np.add(lap, work, out=lap)
    np.multiply(lap, dt2, out=lap)
    np.add(out, lap, out=out)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _guard_level(t, step, r, levels, scratch, scale):
    """Blow-up and boundary guards on a freshly stepped level.

    levels are the new W arrays; each gets one |W| pass into `scratch`,
    which yields both its peak and its outer-three-cell leak.  The leak
    is compared with the running scale, the largest |W| of the run so
    far, this level included; the updated scale is returned.
    """
    peaks, edges = [], []
    for W in levels:
        a = np.abs(W, out=scratch)
        peak = a.max()
        if not peak <= BLOWUP_GUARD:            # NaN fails this too
            i = int(np.argmax(np.where(np.isfinite(a), a, np.inf)))
            raise StabilityError(
                "field amplitude blew up",
                report={"kind": "blowup", "t": t, "step": step,
                        "location": float(r[i]), "value": float(peak)})
        peaks.append(peak)
        edges.append(a[-3:].max())
    scale = max(scale, *peaks)
    edge = max(edges)
    if edge > BOUNDARY_GUARD * scale:
        W = levels[edges.index(edge)]
        i = len(r) - 3 + int(np.argmax(np.abs(W[-3:])))
        raise StabilityError(
            "signal reached the outer boundary",
            report={"kind": "boundary", "t": t, "step": step,
                    "location": float(r[i]), "value": float(edge)})
    return scale


class _Recorder:
    def __init__(self, spec, grid, parity):
        self.t_lo, self.t_hi, self.every = spec
        self.grid = grid
        self.parity = parity
        self.values = []
        self.times = []

    def offer(self, t, step, arr):
        if self.t_lo - 1e-12 <= t <= self.t_hi + 1e-12 and step % self.every == 0:
            self.values.append(arr.copy())
            self.times.append(t)

    def history(self):
        if len(self.values) < 2:
            return None
        if self.grid.mode == "radial":
            return FieldHistory(np.stack(self.values), np.array(self.times),
                                self.grid, parity=self.parity)
        return FieldHistory(np.stack(self.values), np.array(self.times),
                            self.grid)


def _notify(observers, t, step, u, v):
    for obs in observers:
        obs.on_level(t, step, u, v)


# === the coupled model, radial mode ===

def evolve_model(params: ModelParams, grid: RadialGrid, data: InitialData,
                 t0: float = 2.0, t_end: float = 10.0, cfl: float = 0.5,
                 observers: Sequence = (), record=None,
                 sources: Optional[tuple] = None,
                 snapshot_at: Optional[float] = None,
                 snapshot_path: Optional[str] = None) -> RunResult:
    """March the coupled system from t0 to t_end on a radial grid.

    observers : objects with on_level(t, step, u, v); called at every time
        level including the two start levels.  u and v are reused
        buffers, valid only during the call: copy them to keep them.
    record : (t_lo, t_hi, every) to collect FieldHistories of u and v.
    sources : optional (fu(t, r), fv(t, r)) added to the two equations,
        used for manufactured solutions.
    """
    p00, ps, rcoef, h00, hs = params.radial_iso()
    c2 = params.mass ** 2
    hn = params.h_norm()
    dx = grid.dx
    n = grid.n
    r = grid.r(0, n)

    u0 = np.asarray(data.u0(r), dtype=float)
    guard0 = np.max(np.abs(u0)) * hn
    if guard0 >= COEFF_GUARD:
        i = int(np.argmax(np.abs(u0)))
        raise StabilityError("initial data already violates the coefficient "
                             "guard", report={"kind": "coefficient", "t": t0,
                                              "step": 0,
                                              "location": float(r[i]),
                                              "value": float(guard0)})
    # quasilinear signal speed at start; dt is then held fixed and guarded
    denom = 1.0 + u0 * h00
    speed2 = np.max((1.0 - u0 * hs) / denom)
    c_start = max(1.0, float(np.sqrt(max(speed2, 0.0))))
    dt = cfl * dx / c_start

    fu = sources[0] if sources else None
    fv = sources[1] if sources else None

    Wu = r * u0
    Wv = r * np.asarray(data.v0(r), dtype=float)
    dWu = r * np.asarray(data.u1(r), dtype=float)
    dWv = r * np.asarray(data.v1(r), dtype=float)

    # second time derivatives at t0 from the equations, for the Taylor start
    buf = lambda: np.empty(n)
    v0 = _over_r(Wv, r, dx, buf())
    dtv0 = _over_r(dWv, r, dx, buf())
    drv0 = _ddr_even(v0, dx, buf())
    Nu0 = p00 * dtv0 ** 2 + ps * drv0 ** 2 + rcoef * v0 ** 2
    if fu is not None:
        Nu0 = Nu0 + fu(t0, r)
    ddWu = _d2_odd(Wu, dx, buf()) + r * Nu0
    rhs_v = (1.0 - u0 * hs) * _d2_odd(Wv, dx, buf()) - c2 * Wv
    if fv is not None:
        rhs_v = rhs_v + r * fv(t0, r)
    ddWv = rhs_v / (1.0 + u0 * h00)

    Wu_prev, Wu_cur = Wu, Wu + dt * dWu + 0.5 * dt * dt * ddWu
    Wv_prev, Wv_cur = Wv, Wv + dt * dWv + 0.5 * dt * dt * ddWv
    Wu_next, Wv_next = buf(), buf()
    # the emitted levels, and per-step scratch
    u_lvl, v_lvl = buf(), buf()
    denom, cs, A, dtv, drv, N, lap, work = (buf() for _ in range(8))

    rec_u = _Recorder(record, grid, EVEN) if record else None
    rec_v = _Recorder(record, grid, EVEN) if record else None
    result = RunResult(grid=grid, t0=t0, dt=dt, steps=0, t_final=t0)

    scale = max(np.max(np.abs(Wu)), np.max(np.abs(Wv)), 1e-300)

    def emit(t, step, Wu_l, Wv_l):
        """u, v of a level into u_lvl, v_lvl; returns max |u|."""
        _over_r(Wu_l, r, dx, u_lvl)
        _over_r(Wv_l, r, dx, v_lvl)
        peak_u = np.abs(u_lvl, out=work).max()
        result.max_abs_u = max(result.max_abs_u, float(peak_u))
        result.max_abs_v = max(result.max_abs_v,
                               float(np.abs(v_lvl, out=work).max()))
        if rec_u is not None:
            rec_u.offer(t, step, u_lvl)
            rec_v.offer(t, step, v_lvl)
        _notify(observers, t, step, u_lvl, v_lvl)
        return peak_u

    emit(t0, 0, Wu_prev, Wv_prev)
    peak_u = emit(t0 + dt, 1, Wu_cur, Wv_cur)

    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    snap_step = None
    if snapshot_at is not None:
        snap_step = max(1, int(np.ceil((snapshot_at - t0) / dt - 1e-9)))

    inv_dt2 = 1.0 / (dt * dt)
    dt2 = dt * dt
    half_c2 = 0.5 * c2
    for k in range(1, n_steps):
        # u_lvl, v_lvl hold level k
        t_k = t0 + k * dt
        guard = peak_u * hn
        if guard >= COEFF_GUARD:
            i = int(np.argmax(np.abs(u_lvl)))
            raise StabilityError(
                "quasilinear coefficient guard tripped",
                report={"kind": "coefficient", "t": t_k, "step": k,
                        "location": float(r[i]), "value": float(guard)})
        np.multiply(u_lvl, h00, out=denom)
        np.add(denom, 1.0, out=denom)
        np.multiply(u_lvl, hs, out=cs)
        np.subtract(1.0, cs, out=cs)
        np.divide(cs, denom, out=work)
        sp2 = work.max()
        # leapfrog is stable for Courant numbers below one
        if np.sqrt(max(sp2, 0.0)) * dt / dx >= 1.0:
            i = int(np.argmax(work))
            raise StabilityError(
                "quasilinear signal speed exceeded the step budget",
                report={"kind": "cfl", "t": t_k, "step": k,
                        "location": float(r[i]), "value": float(np.sqrt(sp2))})

        # Klein-Gordon first, mass term averaged over the stencil ends
        np.multiply(denom, inv_dt2, out=A)
        np.add(A, half_c2, out=A)
        np.multiply(Wv_cur, 2.0, out=Wv_next)
        np.subtract(Wv_next, Wv_prev, out=Wv_next)
        np.multiply(denom, Wv_next, out=Wv_next)
        np.multiply(Wv_next, inv_dt2, out=Wv_next)
        np.multiply(cs, _d2_odd(Wv_cur, dx, lap), out=lap)
        np.add(Wv_next, lap, out=Wv_next)
        np.multiply(Wv_prev, half_c2, out=lap)
        np.subtract(Wv_next, lap, out=Wv_next)
        if fv is not None:
            np.multiply(r, fv(t_k, r), out=lap)
            np.add(Wv_next, lap, out=Wv_next)
        np.divide(Wv_next, A, out=Wv_next)
        Wv_next[0] = 0.0
        Wv_next[-1] = 0.0

        # wave source at level k with a centered time derivative of v
        np.subtract(Wv_next, Wv_prev, out=work)
        np.divide(work, 2.0 * dt, out=work)
        _over_r(work, r, dx, dtv)
        _ddr_even(v_lvl, dx, drv)
        np.multiply(np.square(dtv, out=N), p00, out=N)
        np.multiply(np.square(drv, out=work), ps, out=work)
        np.add(N, work, out=N)
        np.multiply(np.square(v_lvl, out=work), rcoef, out=work)
        np.add(N, work, out=N)
        if fu is not None:
            np.add(N, fu(t_k, r), out=N)
        _wave_update(Wu_prev, Wu_cur, N, r, dx, dt2, Wu_next, lap, work)

        scale = _guard_level(t_k + dt, k + 1, r, (Wu_next, Wv_next), work,
                             scale)

        Wu_prev, Wu_cur, Wu_next = Wu_cur, Wu_next, Wu_prev
        Wv_prev, Wv_cur, Wv_next = Wv_cur, Wv_next, Wv_prev
        peak_u = emit(t0 + (k + 1) * dt, k + 1, Wu_cur, Wv_cur)

        if snap_step is not None and k + 1 == snap_step and snapshot_path:
            save_snapshot(snapshot_path, {
                "mode": "radial", "n": n, "dx": dx, "dt": dt,
                "t_prev": t0 + k * dt, "t_curr": t0 + (k + 1) * dt,
                "step": k + 1,
                "Wu_prev": Wu_prev, "Wu_curr": Wu_cur,
                "Wv_prev": Wv_prev, "Wv_curr": Wv_cur})

    result.steps = n_steps
    result.t_final = t0 + n_steps * dt
    if rec_u is not None:
        result.u_hist = rec_u.history()
        result.v_hist = rec_v.history()
    return result


# === the coupled model, box mode ===

def _laplacian_box(a: np.ndarray, dx: float, threads: int) -> np.ndarray:
    """7-point Laplacian on the interior, zero on the boundary shell.
    Slabs along the first axis are processed by a small worker pool."""
    out = np.zeros_like(a)

    def work(lo, hi):
        c = a[lo:hi, 1:-1, 1:-1]
        out[lo:hi, 1:-1, 1:-1] = (
            a[lo - 1:hi - 1, 1:-1, 1:-1] + a[lo + 1:hi + 1, 1:-1, 1:-1]
            + a[lo:hi, :-2, 1:-1] + a[lo:hi, 2:, 1:-1]
            + a[lo:hi, 1:-1, :-2] + a[lo:hi, 1:-1, 2:]
            - 6.0 * c) / (dx * dx)

    n = a.shape[0]
    if threads <= 1 or n < 16:
        work(1, n - 1)
        return out
    import concurrent.futures
    cuts = np.linspace(1, n - 1, threads + 1).astype(int)
    with concurrent.futures.ThreadPoolExecutor(threads) as ex:
        list(ex.map(lambda ab: work(*ab), zip(cuts[:-1], cuts[1:])))
    return out


def _grad_box(a: np.ndarray, axis: int, dx: float) -> np.ndarray:
    out = np.zeros_like(a)
    sl_p = [slice(1, -1)] * 3
    sl_m = [slice(1, -1)] * 3
    sl_c = [slice(1, -1)] * 3
    sl_p[axis] = slice(2, None)
    sl_m[axis] = slice(None, -2)
    out[tuple(sl_c)] = (a[tuple(sl_p)] - a[tuple(sl_m)]) / (2.0 * dx)
    return out


def _second_cross_box(a: np.ndarray, ax1: int, ax2: int, dx: float) -> np.ndarray:
    if ax1 == ax2:
        out = np.zeros_like(a)
        sl_p = [slice(1, -1)] * 3
        sl_m = [slice(1, -1)] * 3
        sl_c = [slice(1, -1)] * 3
        sl_p[ax1] = slice(2, None)
        sl_m[ax1] = slice(None, -2)
        out[tuple(sl_c)] = (a[tuple(sl_p)] - 2.0 * a[tuple(sl_c)]
                            + a[tuple(sl_m)]) / (dx * dx)
        return out
    return _grad_box(_grad_box(a, ax1, dx), ax2, dx)


def _box_location(ax, bad: np.ndarray) -> dict:
    """Report fields for the cell where `bad` peaks: its distance from
    the origin (the radial runs' location) and the point itself."""
    idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    point = [float(ax[a][i]) for a, i in enumerate(idx)]
    return {"location": float(np.sqrt(sum(x * x for x in point))),
            "point": point}


def evolve_model_box(params: ModelParams, grid: BoxGrid, data: InitialData,
                     t0: float = 2.0, t_end: float = 4.0, cfl: float = 0.4,
                     observers: Sequence = (), record=None,
                     sources: Optional[tuple] = None) -> RunResult:
    """Box-mode companion of :func:`evolve_model`; full anisotropic P and H
    are honoured, with one fixed-point correction for the d_t d_a v terms.
    Initial data callables take (x1, x2, x3)."""
    P, H = params.P, params.H
    c2 = params.mass ** 2
    hn = params.h_norm()
    dx = grid.dx
    threads = worker_count()
    ax = [grid.axis(a) for a in range(3)]
    X = np.meshgrid(ax[0], ax[1], ax[2], indexing="ij", sparse=True)

    u_cur = np.asarray(data.u0(*X), dtype=float)
    v_cur = np.asarray(data.v0(*X), dtype=float)
    du = np.asarray(data.u1(*X), dtype=float)
    dv = np.asarray(data.v1(*X), dtype=float)
    for arr in (u_cur, v_cur, du, dv):
        if arr.shape != (grid.n,) * 3:
            raise ValueError("initial data must evaluate on the full box")

    dt = cfl * dx / np.sqrt(3.0)
    fu = sources[0] if sources else None
    fv = sources[1] if sources else None

    def wave_source(v, dtv, t):
        grads = [_grad_box(v, a, dx) for a in range(3)]
        N = P[0, 0] * dtv ** 2
        for a in range(3):
            N = N + 2.0 * P[0, a + 1] * dtv * grads[a]
            for b in range(3):
                N = N + P[a + 1, b + 1] * grads[a] * grads[b]
        N = N + params.rcoef * v ** 2
        if fu is not None:
            N = N + fu(t, *X)
        return N

    def kg_spatial(v, u, t):
        """Everything except the d_t^2 and d_t d_a pieces of the v equation."""
        out = _laplacian_box(v, dx, threads)
        for a in range(3):
            for b in range(3):
                if H[a + 1, b + 1] != 0.0:
                    out = out - u * H[a + 1, b + 1] * _second_cross_box(v, a, b, dx)
        if fv is not None:
            out = out + fv(t, *X)
        return out

    # Taylor start
    ddv = (kg_spatial(v_cur, u_cur, t0) - c2 * v_cur) / (1.0 + u_cur * H[0, 0])
    ddu = _laplacian_box(u_cur, dx, threads) + wave_source(v_cur, dv, t0)
    u_prev, u_cur = u_cur, u_cur + dt * du + 0.5 * dt * dt * ddu
    v_prev, v_cur = v_cur, v_cur + dt * dv + 0.5 * dt * dt * ddv

    result = RunResult(grid=grid, t0=t0, dt=dt, steps=0, t_final=t0)
    rec_u = _Recorder(record, grid, None) if record else None
    rec_v = _Recorder(record, grid, None) if record else None

    def emit(t, step, u_l, v_l):
        result.max_abs_u = max(result.max_abs_u, float(np.max(np.abs(u_l))))
        result.max_abs_v = max(result.max_abs_v, float(np.max(np.abs(v_l))))
        if rec_u is not None:
            rec_u.offer(t, step, u_l)
            rec_v.offer(t, step, v_l)
        _notify(observers, t, step, u_l, v_l)

    emit(t0, 0, u_prev, v_prev)
    emit(t0 + dt, 1, u_cur, v_cur)

    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    inv_dt2 = 1.0 / (dt * dt)
    mixed = [a for a in range(3) if H[0, a + 1] != 0.0]

    for k in range(1, n_steps):
        t_k = t0 + k * dt
        guard = np.max(np.abs(u_cur)) * hn
        if guard >= COEFF_GUARD:
            raise StabilityError(
                "quasilinear coefficient guard tripped",
                report={"kind": "coefficient", "t": t_k, "step": k,
                        **_box_location(ax, np.abs(u_cur)),
                        "value": float(guard)})
        denom = 1.0 + u_cur * H[0, 0]
        A = denom * inv_dt2 + 0.5 * c2
        base = (denom * (2.0 * v_cur - v_prev) * inv_dt2
                + kg_spatial(v_cur, u_cur, t_k) - 0.5 * c2 * v_prev)
        v_next = base / A
        for _ in range(1 if mixed else 0):
            # one correction pass: d_t d_a v centered through the guess
            extra = np.zeros_like(base)
            for a in mixed:
                dtd = _grad_box((v_next - v_prev) / (2.0 * dt), a, dx)
                extra = extra - 2.0 * u_cur * H[0, a + 1] * dtd
            v_next = (base + extra) / A
        v_next[0, :, :] = v_next[-1, :, :] = 0.0
        v_next[:, 0, :] = v_next[:, -1, :] = 0.0
        v_next[:, :, 0] = v_next[:, :, -1] = 0.0

        dtv = (v_next - v_prev) / (2.0 * dt)
        u_next = (2.0 * u_cur - u_prev + dt * dt *
                  (_laplacian_box(u_cur, dx, threads)
                   + wave_source(v_cur, dtv, t_k)))
        u_next[0, :, :] = u_next[-1, :, :] = 0.0
        u_next[:, 0, :] = u_next[:, -1, :] = 0.0
        u_next[:, :, 0] = u_next[:, :, -1] = 0.0

        worst = max(np.max(np.abs(u_next)), np.max(np.abs(v_next)))
        if not np.isfinite(worst) or worst > BLOWUP_GUARD:
            bad = np.maximum(np.abs(u_next), np.abs(v_next))
            bad = np.where(np.isfinite(bad), bad, np.inf)
            raise StabilityError(
                "field amplitude blew up",
                report={"kind": "blowup", "t": t_k + dt, "step": k + 1,
                        **_box_location(ax, bad), "value": float(worst)})

        u_prev, u_cur = u_cur, u_next
        v_prev, v_cur = v_cur, v_next
        emit(t0 + (k + 1) * dt, k + 1, u_cur, v_cur)

    result.steps = n_steps
    result.t_final = t0 + n_steps * dt
    if rec_u is not None:
        result.u_hist = rec_u.history()
        result.v_hist = rec_v.history()
    return result


# === linear solvers for the envelope scenarios (radial) ===

def solve_linear_wave_sourced(grid: RadialGrid, source: Callable,
                              t0: float = 2.0, t_end: float = 10.0,
                              cfl: float = 0.5, observers: Sequence = (),
                              record=None,
                              data: Optional[InitialData] = None) -> RunResult:
    """-box u = f(t, r) with compactly supported data (zero by default).

    Observers get on_level(t, step, u, None); u is a reused buffer, valid
    only during the call.  The blow-up and boundary guards of
    :func:`evolve_model` apply.
    """
    dx = grid.dx
    n = grid.n
    r = grid.r(0, n)
    dt = cfl * dx
    if data is None:
        data = InitialData.zero()
    W = r * np.asarray(data.u0(r), dtype=float)
    dW = r * np.asarray(data.u1(r), dtype=float)
    ddW = _d2_odd(W, dx, np.empty(n)) + r * source(t0, r)
    W_prev, W_cur = W, W + dt * dW + 0.5 * dt * dt * ddW
    W_next, u_lvl, lap, work = (np.empty(n) for _ in range(4))

    rec = _Recorder(record, grid, EVEN) if record else None
    result = RunResult(grid=grid, t0=t0, dt=dt, steps=0, t_final=t0)
    scale = max(np.max(np.abs(W)), 1e-300)

    def emit(t, step, W_l):
        _over_r(W_l, r, dx, u_lvl)
        result.max_abs_u = max(result.max_abs_u,
                               float(np.abs(u_lvl, out=work).max()))
        if rec is not None:
            rec.offer(t, step, u_lvl)
        _notify(observers, t, step, u_lvl, None)

    emit(t0, 0, W_prev)
    emit(t0 + dt, 1, W_cur)
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    dt2 = dt * dt
    for k in range(1, n_steps):
        t_k = t0 + k * dt
        _wave_update(W_prev, W_cur, source(t_k, r), r, dx, dt2, W_next,
                     lap, work)
        scale = _guard_level(t_k + dt, k + 1, r, (W_next,), work, scale)
        W_prev, W_cur, W_next = W_cur, W_next, W_prev
        emit(t0 + (k + 1) * dt, k + 1, W_cur)
    result.steps = n_steps
    result.t_final = t0 + n_steps * dt
    if rec is not None:
        result.u_hist = rec.history()
    return result


def solve_linear_kg_curved(grid: RadialGrid, h00: Callable, mass: float,
                           data: InitialData, t0: float = 2.0,
                           t_end: float = 10.0, cfl: float = 0.5,
                           observers: Sequence = (), record=None,
                           source: Optional[Callable] = None) -> RunResult:
    """(1 + h00(t, r)) d_t^2 v = Lap v - mass^2 v + f on a radial grid;
    h00 is a prescribed metric perturbation profile (array or scalar).

    Observers get on_level(t, step, None, v); v is a reused buffer, valid
    only during the call.  Besides the metric floor, the blow-up and
    boundary guards of :func:`evolve_model` apply.
    """
    dx = grid.dx
    n = grid.n
    r = grid.r(0, n)
    dt = cfl * dx
    c2 = mass ** 2
    W = r * np.asarray(data.v0(r), dtype=float)
    dW = r * np.asarray(data.v1(r), dtype=float)
    h0 = np.asarray(h00(t0, r), dtype=float)
    if np.min(1.0 + h0) <= 0.1:
        i = int(np.argmin(np.broadcast_to(h0, r.shape)))
        raise StabilityError("metric perturbation too large",
                             report={"kind": "coefficient", "t": t0, "step": 0,
                                     "location": float(r[i]),
                                     "value": float(np.min(1.0 + h0))})
    rhs0 = _d2_odd(W, dx, np.empty(n)) - c2 * W
    if source is not None:
        rhs0 = rhs0 + r * source(t0, r)
    W_prev, W_cur = W, W + dt * dW + 0.5 * dt * dt * rhs0 / (1.0 + h0)
    W_next, v_lvl, denom, A, lap, work = (np.empty(n) for _ in range(6))

    rec = _Recorder(record, grid, EVEN) if record else None
    result = RunResult(grid=grid, t0=t0, dt=dt, steps=0, t_final=t0)
    scale = max(np.max(np.abs(W)), 1e-300)

    def emit(t, step, W_l):
        _over_r(W_l, r, dx, v_lvl)
        result.max_abs_v = max(result.max_abs_v,
                               float(np.abs(v_lvl, out=work).max()))
        if rec is not None:
            rec.offer(t, step, v_lvl)
        _notify(observers, t, step, None, v_lvl)

    emit(t0, 0, W_prev)
    emit(t0 + dt, 1, W_cur)
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    inv_dt2 = 1.0 / (dt * dt)
    half_c2 = 0.5 * c2
    for k in range(1, n_steps):
        t_k = t0 + k * dt
        np.add(np.asarray(h00(t_k, r), dtype=float), 1.0, out=denom)
        if denom.min() <= 0.1:
            i = int(np.argmin(denom))
            raise StabilityError("metric perturbation too large",
                                 report={"kind": "coefficient", "t": t_k,
                                         "step": k, "location": float(r[i]),
                                         "value": float(denom[i])})
        np.multiply(denom, inv_dt2, out=A)
        np.add(A, half_c2, out=A)
        np.multiply(W_cur, 2.0, out=W_next)
        np.subtract(W_next, W_prev, out=W_next)
        np.multiply(denom, W_next, out=W_next)
        np.multiply(W_next, inv_dt2, out=W_next)
        np.add(W_next, _d2_odd(W_cur, dx, lap), out=W_next)
        np.multiply(W_prev, half_c2, out=lap)
        np.subtract(W_next, lap, out=W_next)
        if source is not None:
            np.multiply(r, source(t_k, r), out=lap)
            np.add(W_next, lap, out=W_next)
        np.divide(W_next, A, out=W_next)
        W_next[0] = 0.0
        W_next[-1] = 0.0
        scale = _guard_level(t_k + dt, k + 1, r, (W_next,), work, scale)
        W_prev, W_cur, W_next = W_cur, W_next, W_prev
        emit(t0 + (k + 1) * dt, k + 1, W_cur)
    result.steps = n_steps
    result.t_final = t0 + n_steps * dt
    if rec is not None:
        result.v_hist = rec.history()
    return result


# === snapshot files ===

_HEAD = struct.Struct("<4sIBBHQddddQ")


def save_snapshot(path: str, state: dict) -> None:
    """Binary run snapshot: fixed little-endian header, then the four
    leapfrog arrays as raw float64."""
    mode = 0 if state["mode"] == "radial" else 1
    head = _HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, mode, 0, 0,
                      int(state["n"]), float(state["dx"]), float(state["dt"]),
                      float(state["t_prev"]), float(state["t_curr"]),
                      int(state["step"]))
    with open(path, "wb") as fh:
        fh.write(head)
        for key in ("Wu_prev", "Wu_curr", "Wv_prev", "Wv_curr"):
            arr = np.ascontiguousarray(state[key], dtype="<f8")
            fh.write(arr.tobytes())


def load_snapshot(path: str) -> dict:
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise ValueError("snapshot file truncated")
        magic, version, mode, _, _, n, dx, dt, t_prev, t_curr, step = \
            _HEAD.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError("not a snapshot file")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        count = n if mode == 0 else n ** 3
        out = {"mode": "radial" if mode == 0 else "box", "n": n, "dx": dx,
               "dt": dt, "t_prev": t_prev, "t_curr": t_curr, "step": step}
        shape = (n,) if mode == 0 else (n, n, n)
        for key in ("Wu_prev", "Wu_curr", "Wv_prev", "Wv_curr"):
            buf = fh.read(8 * count)
            if len(buf) < 8 * count:
                raise ValueError("snapshot file truncated")
            out[key] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return out
