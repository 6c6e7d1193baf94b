"""Finite difference evolution of the coupled wave / Klein-Gordon model

    -box u = P^{ab} d_a v d_b v + R v^2
    -box v + u H^{ab} d_a d_b v + c^2 v = 0          (a, b = t, x1, x2, x3)

on uniform Cartesian time levels.  Spherically symmetric runs evolve
W = r * field on a radial grid (odd in r, so the axis column is pinned
at zero and u = W/r stays regular).  A radial run takes P and H diagonal
and isotropic, P = diag(p00, ps, ps, ps) and H = diag(h00, hs, hs, hs),
so the couplings are the five scalars p00, ps, R = rcoef, h00 and hs
(:class:`ModelParams`).

The scheme is leapfrog with the mass term averaged over the t-stencil
ends, the quasilinear coefficient frozen at the center level, and the
Klein-Gordon field updated first so the wave source can use a centered
time derivative of v.  Each step kernel is its update multiplied
through by dt^2, with the run's constants folded into scalars once
(lam2 = dt^2/dx^2, c0 = 2 - 2 lam2, hc = mass^2 dt^2 / 2) and the
source weighted by dt^2 r; the Klein-Gordon step reads per-cell
weights, which the coupled model builds from u and the curved linear
solver from its metric, and the coupled model folds its wave source
into per-cell weights too, so every step takes fewer array passes than
the textbook form.  The two forms agree algebraically and differ only
in rounding (see `# === radial helpers ===`).  Everything is second
order; starts are built from a Taylor step using the equations at the
initial time.  The coupled model and the two linear solvers share one
leapfrog loop, `_march`, which steps each run only out to the front of
its nonzero cells (the live window: a cell that is +0.0 with its
stencil and source stays +0.0), and they hand out their levels only by
streaming them to observers; `_march` states the window and which
levels an observer gets.

Every run is a stack: a field's levels are (R, n) arrays whose R rows
share the grid, dt and step count, each row bit for bit its own run,
with its own guards, tag and observers.  The sourced wave solver stacks
its sources, the Klein-Gordon solver its metrics (one set of data on R
backgrounds), and the coupled model is a one-row stack.  Sources and
metrics bind to their run once, before the first step (``on_run``), and
are then filled at each step k.  The radial helpers work on the last
axis, and observers get (n,) row views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import RadialGrid
from .util import StabilityError

COEFF_GUARD = 0.5        # evolution aborts when |u| * |H| reaches this
BLOWUP_GUARD = 1.0e6
BOUNDARY_GUARD = 1.0e-7  # outer-cell amplitude relative to the run scale


# === model description ===

@dataclass(frozen=True)
class ModelParams:
    """The five radial couplings and the Klein-Gordon mass: P =
    diag(p00, ps, ps, ps) and H = diag(h00, hs, hs, hs) in (t, x1, x2, x3),
    rcoef multiplies v^2 in the wave source."""
    p00: float = 1.0
    ps: float = 1.0
    rcoef: float = 1.0
    h00: float = 1.0
    hs: float = 1.0
    mass: float = 1.0

    @classmethod
    def free(cls, mass: float = 1.0):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, mass)

    def h_norm(self) -> float:
        """Spectral norm of H, used by the coefficient guard."""
        return max(abs(self.h00), abs(self.hs))


@dataclass(frozen=True)
class InitialData:
    """Cauchy data at the start time: values and time derivatives of both
    fields, as callables of r."""
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


@dataclass
class RunResult:
    """What a run reports besides the levels its observers saw."""
    grid: object
    t0: float
    dt: float
    steps: int
    t_final: float


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
# so the radial loops step in preallocated buffers.  They act on the last
# axis, so an (R, n) stack steps every row at once; the step kernels run
# over flat views of the whole stack and pin every row's ends after.
# Every flat view is built once per run (`_flat`): `_march` rotates the
# level buffers' views with the buffers, and each solver views its own
# scratch buffers once.
#
# The step kernels are the leapfrog updates multiplied through by dt^2,
# with each run's constants folded into scalars once: lam2 = dt^2/dx^2
# (exactly 0.25 at Courant number 0.5, and 1 at 1, where c0 = 0), c0 =
# 2 - 2 lam2 and hc = c^2 dt^2 / 2 (`_folded`).  Sources arrive already
# weighted by w = dt^2 r, one (n,) weight each run builds once.  Passes
# over the stack per step:
#
# * the wave step (`_wave_update`): six;
# * the Klein-Gordon step (`_kg_update`, one kernel for both solvers
#   that step v): six, seven with a source;
# * the curved linear solver (`solve_linear_kg_curved`): the six of
#   `_kg_update` plus three per non-steady row, whose weights g = 2 (1 +
#   h00 - lam2) and A = 1 + h00 + hc it rebuilds beside each refill of
#   1 + h00 (e = lam2 is a zero-stride constant); a steady row builds
#   its weights once per run;
# * the coupled model (`evolve_model`): twelve for its Klein-Gordon step
#   (the weights e, g and A from u, then `_kg_update`), ten for its
#   wave source S = a (Wv+ - Wv-)^2 + b (v[j+1] - v[j-1])^2 + c Wv^2 on
#   per-run weights a, b and c that are 0 at the axis, and six for the
#   wave step, 28 in all (36 before the fold), one more per callable
#   source.  Its CFL guard bounds the squared speed by (1 + q) / (1 - q),
#   q = |H| max|u| from the coefficient guard, and takes its five-pass
#   exact check only where that bound does not clear the step, which at
#   Courant number 0.5 it always does.
#
# Every pass but the metric rows' runs on the live window of `_march`
# only: the cells [0, L) of every row, L = min(n, front + 3), where
# front is the last cell of any row of the two levels a step reads, or
# of its source, that may be other than +0.0 (the flat prefix of an (R,
# n) stack ends at (R - 1) n + L, so the other rows' tails are stepped
# and stay +0.0).  So do the level guards' peaks, emit's W/r and the
# coefficient guard; the boundary guard's three outer cells read 0
# until L reaches them.
# tests/test_solver.py pins the kernels' expressions, in their operation
# order, bit for bit with allocating reference loops over the whole
# grid, and keeps the textbook updates as a second reference that every
# solver stays within a stated relative bound of.

def _over_r(W: np.ndarray, r: np.ndarray, dx: float,
            out: np.ndarray, end: Optional[int] = None) -> np.ndarray:
    """W/r for odd W, with the centered limit at the axis, on the cells
    [0, end) (all of them by default)."""
    np.divide(W[..., 1:end], r[1:end], out=out[..., 1:end])
    np.divide(W[..., 1], dx, out=out[..., 0])
    return out


def _ddr_even(a: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Centered d_r of an even array; zero at the axis by symmetry."""
    mid = out[..., 1:-1]
    np.subtract(a[..., 2:], a[..., :-2], out=mid)
    np.divide(mid, 2.0 * dx, out=mid)
    out[..., 0] = 0.0
    np.subtract(a[..., -1], a[..., -2], out=out[..., -1])
    np.divide(out[..., -1], dx, out=out[..., -1])
    return out


def _d2_odd(W: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Second difference of an odd array pinned to zero at both ends."""
    mid = out[..., 1:-1]
    np.multiply(W[..., 1:-1], 2.0, out=mid)
    np.subtract(W[..., 2:], mid, out=mid)
    np.add(mid, W[..., :-2], out=mid)
    np.divide(mid, dx * dx, out=mid)
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


def _folded(dt: float, dx: float, r: np.ndarray, c2: float = 0.0):
    """A run's step constants (lam2, c0, hc, w): lam2 = dt^2/dx^2, c0 = 2
    - 2 lam2, hc = c2 dt^2 / 2 for the squared mass c2, and the source
    weight w = dt^2 r."""
    lam2 = (dt / dx) * (dt / dx)
    return lam2, 2.0 - 2.0 * lam2, 0.5 * c2 * dt * dt, dt * dt * r


def _flat(*arrays):
    """One-axis views of C-contiguous (R, n) arrays (never copies).  The
    cells that sit between two rows' interiors are row ends, so a
    stencil step over a flat view is every row's step, plus garbage in
    the row ends that the kernels then pin to zero.  Called once per run
    for each buffer, never per step."""
    views = []
    for a in arrays:
        v = a.view()
        v.shape = (a.size,)           # raises where a reshape would copy
        views.append(v)
    return views


def _pin_ends(o, n):
    """Zero both ends of every row of the flat view o of rows of n."""
    o[::n] = 0.0
    o[n - 1::n] = 0.0
    return o


def _wave_update(Wp, Wc, S, c0, lam2, o, tmp, n, end):
    """o = c0 Wc + lam2 (Wc[j+1] + Wc[j-1]) - Wp + S on the interior of
    the flat prefix [0, end), with every row's ends pinned to zero; S is
    the weighted source dt^2 r f, only read.  All are flat views
    (`_flat`) of (R, n) stacks with rows of n, and tmp is scratch."""
    mid, tmp = o[1:end - 1], tmp[1:end - 1]
    np.add(Wc[2:end], Wc[:end - 2], out=mid)
    np.multiply(mid, lam2, out=mid)
    np.multiply(Wc[1:end - 1], c0, out=tmp)
    np.add(tmp, mid, out=mid)
    np.subtract(mid, Wp[1:end - 1], out=mid)
    np.add(mid, S[1:end - 1], out=mid)
    return _pin_ends(o, n)


def _kg_update(Wp, Wc, e, g, A, S, o, tmp, n, end):
    """The Klein-Gordon step, o = (e (Wc[j+1] + Wc[j-1]) + g Wc + S) / A
    - Wp on the interior of the flat prefix [0, end), with every row's
    ends pinned to zero: e, g and A are the step's per-cell weights
    (`evolve_model` builds them from u, `solve_linear_kg_curved` from
    its metric), S the weighted source dt^2 r f or None, all only read;
    tmp is scratch."""
    mid, tmp = o[1:end - 1], tmp[1:end - 1]
    np.add(Wc[2:end], Wc[:end - 2], out=mid)
    np.multiply(mid, e[1:end - 1], out=mid)
    np.multiply(g[1:end - 1], Wc[1:end - 1], out=tmp)
    np.add(mid, tmp, out=mid)
    if S is not None:
        np.add(mid, S[1:end - 1], out=mid)
    np.divide(mid, A[1:end - 1], out=mid)
    np.subtract(mid, Wp[1:end - 1], out=mid)
    return _pin_ends(o, n)


def _coefficient_guard(detail, t, step, r, u, peak, hn):
    """Trips when max|u| (peak) times the norm of H reaches COEFF_GUARD."""
    guard = peak * hn
    if guard >= COEFF_GUARD:
        _trip(detail, "coefficient", t, step, r[int(np.argmax(np.abs(u)))],
              guard)


def _guard_level(t, step, r, levels, scratch, scale, tags, live):
    """Blow-up and boundary guards on a freshly stepped level.

    levels are the new (R, n) W arrays of a stack of R runs; tags label
    the runs, and a report carries its run's tag under "row" unless that
    is None.  Every cell from live on is +0.0 (`_march`'s window), so
    each array gets one |W| pass over its cells [0, live) into the (R,
    n) `scratch`, which yields every run's peak, and the outer three
    cells, once live reaches them, every run's leak.  A run's leak is
    compared with its running scale, the largest |W| of that run so
    far, this level included; scale holds one value per run and is
    updated in place.
    """
    n = len(r)
    if live > n - 3:
        live = n
    leaks = None
    for W in levels:
        a = np.abs(W[:, :live], out=scratch[:, :live])
        for j, peak in enumerate(a.max(axis=1).tolist()):
            if not peak <= BLOWUP_GUARD:        # NaN fails this too
                i = int(np.argmax(np.where(np.isfinite(a[j]), a[j], np.inf)))
                _trip("field amplitude blew up", "blowup", t, step, r[i],
                      peak, tags[j])
            if peak > scale[j]:
                scale[j] = peak
        if live == n:
            edge = a[:, -3:].max(axis=1).tolist()
            leaks = edge if leaks is None else list(map(max, leaks, edge))
    for j, leak in enumerate(leaks or ()):
        if leak > BOUNDARY_GUARD * scale[j]:
            for W in levels:
                w = np.abs(W[j, -3:])
                if w.max() == leak:
                    break
            _trip("signal reached the outer boundary", "boundary", t, step,
                  r[n - 3 + int(np.argmax(w))], leak, tags[j])


def _trip(detail, kind, t, step, location, value, tag=None):
    """Raise StabilityError with the report every solver guard gives:
    kind, t, step, location and value, plus the run's tag under "row"
    when it has one."""
    report = {"kind": kind, "t": t, "step": step,
              "location": float(location), "value": float(value)}
    if tag is not None:
        report["row"] = tag
    raise StabilityError(detail, report=report)


def _step_count(t0: float, t_end: float, dt: float) -> int:
    """The number of steps of a run from t0 to t_end at step dt: its
    levels are t0 + k dt for k in [0, steps], and step k (in [0,
    steps)) reads the level at t0 + k dt."""
    return int(np.ceil((t_end - t0) / dt - 1e-9))


def _live_end(levels) -> int:
    """One past the last cell of any row of the (R, n) levels that is not
    +0.0 (a -0.0 counts as live), or 0 when every cell is +0.0."""
    live = np.zeros(levels[0].shape[-1], dtype=bool)
    for W in levels:
        live |= np.any(W.view(np.uint64) != 0, axis=0)
    cells = np.flatnonzero(live)
    return int(cells[-1]) + 1 if cells.size else 0


def _column_live(levels, j) -> bool:
    """Whether column j of any row of the (R, n) levels holds anything
    but +0.0."""
    return any(x != 0.0 or math.copysign(1.0, x) < 0.0
               for W in levels for x in W[:, j].tolist())


def _march(grid, fields, starts, t0, t_end, dt, advance, tags, observers,
           check=None, reach=None) -> RunResult:
    """The leapfrog loop shared by the radial solvers.

    fields names the stepped fields, ("u",), ("v",) or ("u", "v"), and
    starts gives each its W at t0 and at t0 + dt; only those fields get
    buffers.  Every W is (R, n), a stack of R runs that share the grid,
    dt and step count; tags label the runs and observers holds one
    sequence of observers per run (ValueError if the counts differ).
    Step k calls advance(k, t_k, prev, cur, nxt, lvl, end), which writes
    level k + 1 of every field into nxt from levels k - 1 and k (prev,
    cur), each a flat view (`_flat`) of a field's (R, n) level, built
    once per run and rotated with the levels, on the flat prefix [0,
    end); lvl holds the (R, n) u or v of level k only when check is
    given, so an advance that reads it needs one.  The loop then trips
    the blow-up and boundary guards of each run (the first run to trip
    stops them all, its report tagged), rotates the buffers and emits
    the new level.

    The live window.  A leapfrog cell stays +0.0 while its three stencil
    neighbours, its previous value and its source are +0.0, so the loop
    keeps front, the last cell of any row of any field, at level k - 1
    or k, that may be other than +0.0: one scan of the start levels
    sets it (a -0.0 counts as live), reach(k), if given, lifts it to
    cover the cells [0, reach(k)) where step k's source may be nonzero,
    and after each step it moves on by one cell when that column of the
    new level is live.  Every row is stepped, guarded and emitted on
    the cells [0, L), L = min(n, front + 3) (the flat prefix ends at (R
    - 1) n + L), and every cell past L is +0.0 on every level, as a
    step over the whole row would leave it.

    Observers are the only way levels leave the loop, and this is the
    one statement of what they see.  An observer of run i gets
    on_level(t, step, u, v), with u and v the (n,) row i of the level
    (None for a field that is not stepped; reused buffers, valid only
    during the call), at a level when:

    * it has no next_level method: it sees every level, the two start
      levels included;
    * it has one, and the level is the one it last asked for: it is
      asked next_level(0) before the first level, and again right after
      each on_level(t, step, ...) but the last level's, for
      next_level(step + 1); next_level(k) is the first step at or after
      k whose level it takes;
    * the level is the run's last, which every observer gets.

    So no observer is asked anything at a level that none of them takes.

    u = W/r is formed only for a level that some observer takes or that
    check(t, step, lvl, L), if given, reads; check sees every level, the
    last one included, before the observers do.
    """
    if len(observers) != len(tags):
        raise ValueError(f"{len(observers)} observer sequences for a "
                         f"stack of {len(tags)} rows")
    n, dx = grid.n, grid.dx
    r = grid.r(0, n)
    prev = [W0 for W0, _ in starts]
    cur = [W1 for _, W1 in starts]
    nxt = [np.zeros(W.shape) for W in prev]
    fprev, fcur, fnxt = _flat(*prev), _flat(*cur), _flat(*nxt)
    lvl = [np.zeros(W.shape) for W in prev]
    work = np.empty((len(tags), n))
    base = (len(tags) - 1) * n          # the flat start of the last row

    def per_run(name):
        if name not in fields:
            return [None] * len(tags)
        return list(lvl[fields.index(name)])

    # (on_level, next_level or None, u, v) of every observer of every
    # run, and the step of the next level each takes
    sinks = [(obs.on_level, getattr(obs, "next_level", None), u, v)
             for u, v, run in zip(per_run("u"), per_run("v"), observers)
             for obs in run]
    due = [0 if next_level is None else next_level(0)
           for _, next_level, _, _ in sinks]
    soonest = min(due, default=None)
    scale = [1e-300] * len(tags)
    for W in prev:
        for j, peak in enumerate(np.abs(W, out=work).max(axis=1).tolist()):
            scale[j] = max(scale[j], peak)

    def emit(t, step, levels, last, live):
        nonlocal soonest
        taken = last or step == soonest
        if taken or check is not None:
            for W, out in zip(levels, lvl):
                _over_r(W, r, dx, out, live)
        if check is not None:
            check(t, step, lvl, live)
        if not taken:
            return
        for i, (on_level, next_level, u, v) in enumerate(sinks):
            if due[i] == step or last:
                on_level(t, step, u, v)
                if not last:
                    due[i] = step + 1 if next_level is None else \
                        next_level(step + 1)
        soonest = min(due, default=None)

    n_steps = _step_count(t0, t_end, dt)
    front = _live_end(prev + cur) - 1
    live = min(n, front + 3)
    emit(t0, 0, prev, False, live)
    emit(t0 + dt, 1, cur, n_steps <= 1, live)
    for k in range(1, n_steps):
        t_k = t0 + k * dt
        if reach is not None:
            front = max(front, reach(k) - 1)
        live = min(n, front + 3)
        advance(k, t_k, fprev, fcur, fnxt, lvl, base + live)
        if live < n and _column_live(nxt, front + 1):
            front += 1
        _guard_level(t_k + dt, k + 1, r, nxt, work, scale, tags, live)
        prev, cur, nxt = cur, nxt, prev
        fprev, fcur, fnxt = fcur, fnxt, fprev
        emit(t0 + (k + 1) * dt, k + 1, cur, k + 1 == n_steps, live)

    return RunResult(grid=grid, t0=t0, dt=dt, steps=n_steps,
                     t_final=t0 + n_steps * dt)


# === the coupled model ===

def evolve_model(params: ModelParams, grid: RadialGrid, data: InitialData,
                 t0: float = 2.0, t_end: float = 10.0, cfl: float = 0.5,
                 observers: Sequence = (),
                 sources: Optional[tuple] = None) -> RunResult:
    """March the coupled system from t0 to t_end on a radial grid, as a
    one-row stack.

    observers : objects with on_level(t, step, u, v) and optionally
        next_level(step); `_march` states which levels each gets.  u and v
        are reused buffers, valid only during the call: copy them to
        keep them.  The run hands out its levels this way only, and only
        once the coefficient guard (max|u| times the norm of H below
        COEFF_GUARD) has passed them, the last level included.
    sources : optional (fu(t, r), fv(t, r)) added to the two equations,
        used for manufactured solutions.
    """
    p00, ps, rcoef = params.p00, params.ps, params.rcoef
    h00, hs = params.h00, params.hs
    c2 = params.mass ** 2
    hn = params.h_norm()
    dx = grid.dx
    n = grid.n
    r = grid.r(0, n)

    u0 = np.asarray(data.u0(r), dtype=float)
    _coefficient_guard("initial data already violates the coefficient "
                       "guard", t0, 0, r, u0, np.max(np.abs(u0)), hn)
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

    starts = ((Wu[None], (Wu + dt * dWu + 0.5 * dt * dt * ddWu)[None]),
              (Wv[None], (Wv + dt * dWv + 0.5 * dt * dt * ddWv)[None]))
    e, g, A, S, tmp = _flat(*(buf()[None] for _ in range(5)))
    lam2, c0, hc, w = _folded(dt, dx, r, c2)
    # the step's weights are e = lam2 - (hs lam2) u, g = c0 + 2 (h00 + hs
    # lam2) u and A = (1 + hc) + h00 u, and the wave source is S = a (Wv+
    # - Wv-)^2 + b (v[j+1] - v[j-1])^2 + c Wv^2, its weights 0 at the axis
    e1, g1, a0 = hs * lam2, 2.0 * (h00 + hs * lam2), 1.0 + hc
    a, b, c = (np.zeros(n) for _ in range(3))
    np.divide(p00, 4.0 * r[1:], out=a[1:])
    np.multiply(ps * dt * dt / (4.0 * dx * dx), r, out=b)
    np.divide(rcoef * dt * dt, r[1:], out=c[1:])
    peak = 0.0                    # max|u| of the level check saw last

    def check(t, step, lvl, live):
        nonlocal peak
        u = lvl[0][0, :live]
        peak = np.abs(u, out=tmp[:live]).max()
        _coefficient_guard("quasilinear coefficient guard tripped", t, step,
                           r, u, peak, hn)

    def cfl_guard(t_k, k, u, end):
        """Leapfrog is stable for Courant numbers below one.  The squared
        speed (1 - hs u) / (1 + h00 u) is at most (1 + q) / (1 - q), q =
        hn max|u| < 1, so the exact check runs only where that bound
        (with a margin far above rounding) does not clear the step."""
        q = hn * peak
        if q < 1.0 and (1.0 + q) / (1.0 - q) * lam2 < 1.0 - 1e-9:
            return
        denom, cs = A[:end], tmp[:end]
        np.multiply(u, h00, out=denom)
        np.add(denom, 1.0, out=denom)
        np.multiply(u, hs, out=cs)
        np.subtract(1.0, cs, out=cs)
        np.divide(cs, denom, out=cs)
        sp2 = cs.max()
        if np.sqrt(max(sp2, 0.0)) * dt / dx >= 1.0:
            _trip("quasilinear signal speed exceeded the step budget",
                  "cfl", t_k, k, r[int(np.argmax(cs))], np.sqrt(sp2))

    def advance(k, t_k, prev, cur, nxt, lvl, end):
        (Wu_prev, Wv_prev), (Wu_cur, Wv_cur) = prev, cur
        (Wu_next, Wv_next), u, v = nxt, lvl[0][0, :end], lvl[1][0]
        cfl_guard(t_k, k, u, end)

        # Klein-Gordon first, mass term averaged over the stencil ends
        ee, gg, AA = e[:end], g[:end], A[:end]
        np.multiply(u, e1, out=ee)
        np.subtract(lam2, ee, out=ee)
        np.multiply(u, g1, out=gg)
        np.add(gg, c0, out=gg)
        np.multiply(u, h00, out=AA)
        np.add(AA, a0, out=AA)
        _kg_update(Wv_prev, Wv_cur, e, g, A,
                   None if fv is None else fv(t_k, r) * w, Wv_next, tmp, n,
                   end)

        # wave source at level k with a centered time derivative of v
        i = slice(1, end - 1)
        mid, sq = S[i], tmp[i]
        np.subtract(Wv_next[i], Wv_prev[i], out=sq)
        np.square(sq, out=sq)
        np.multiply(sq, a[i], out=mid)
        np.subtract(v[2:end], v[:end - 2], out=sq)
        np.square(sq, out=sq)
        np.multiply(sq, b[i], out=sq)
        np.add(mid, sq, out=mid)
        np.square(Wv_cur[i], out=sq)
        np.multiply(sq, c[i], out=sq)
        np.add(mid, sq, out=mid)
        if fu is not None:
            np.add(mid, (fu(t_k, r) * w)[i], out=mid)
        _wave_update(Wu_prev, Wu_cur, S, c0, lam2, Wu_next, tmp, n, end)

    return _march(grid, ("u", "v"), starts, t0, t_end, dt, advance,
                  (None,), (observers,), check,
                  None if sources is None else lambda k: n)


# === linear solvers for the envelope scenarios ===

def solve_linear_wave_sourced(grid: RadialGrid, source, observers: Sequence,
                              t0: float = 2.0, t_end: float = 10.0,
                              cfl: float = 0.5) -> RunResult:
    """-box u = f_i(t, r) from rest, for a stack of R sources stepped
    together.

    source labels its rows in ``tags`` and binds to the run once, before
    the first step: ``source.on_run(grid, t0, dt, steps)`` returns the
    run's source, whose ``fill(k, t_k, weight, out)`` writes row i's
    f_i(t_k, r) * weight into out[i] of an (R, n) buffer at step k, time
    t_k = t0 + k dt, for k in [0, steps), with a per-cell weight on the
    grid r.  The run asks for the weight r at the start and dt^2 r at
    every step.  :class:`hfoil.bounds.WaveSourceStack` tabulates its
    profiles when it binds, and raises ValueError there unless dx/dt is
    an integer; this solver checks no ratio.
    cfl may be 1 exactly (the wave envelope check runs there): the step
    is then the characteristic update W(k+1, j) = W(k, j+1) + W(k, j-1)
    - W(k-1, j) + dt^2 r f, exact for the source-free part, so only the
    sourced part errs, at O(dx^2), in half the steps of cfl 1/2.
    observers holds one sequence of observers per row.  The rows step as
    one (R, n) level, and every row gets the levels of its own one-row
    run bit for bit.

    Row i's observers get on_level(t, step, u_i, None), the run's only
    output of levels, at the levels `_march` hands them; u_i is a
    reused buffer, valid only during the call.  The blow-up and boundary
    guards of :func:`evolve_model` apply to each row with its own running
    scale.  The first row to trip stops the stack, and its report names
    the row's label under "row".
    """
    dx = grid.dx
    n = grid.n
    r = grid.r(0, n)
    dt = cfl * dx
    run = source.on_run(grid, t0, dt, _step_count(t0, t_end, dt))
    shape = (len(source.tags), n)
    S = np.zeros(shape)

    # from rest: the Taylor start is W1 = dt^2 r f(t0) / 2
    starts = ((np.zeros(shape), 0.5 * dt * dt * run.fill(0, t0, r, S)),)
    work = np.empty(shape)
    fS, fwork = _flat(S, work)
    lam2, c0, _, w = _folded(dt, dx, r)

    def advance(k, t_k, prev, cur, nxt, lvl, end):
        run.fill(k, t_k, w, S)
        _wave_update(prev[0], cur[0], fS, c0, lam2, nxt[0], fwork, n, end)

    return _march(grid, ("u",), starts, t0, t_end, dt, advance,
                  source.tags, observers, reach=run.support)


def solve_linear_kg_curved(grid: RadialGrid, metrics: Sequence, mass: float,
                           data: InitialData, observers: Sequence,
                           t0: float = 2.0, t_end: float = 10.0,
                           cfl: float = 0.5,
                           source: Optional[Callable] = None) -> RunResult:
    """(1 + h00_i(t, r)) d_t^2 v = Lap v - mass^2 v + f on a radial grid,
    for a stack of R metrics stepped together from one set of data and
    one source f(t, r).  This is the coupled model's Klein-Gordon
    equation with u H^00 replaced by the prescribed h00 and H^ss = 0,
    and it steps on the same kernel, `_kg_update`, with the weights e =
    lam2, g = 2 (1 + h00 - lam2) and A = 1 + h00 + hc.

    metrics holds one (tag, h00) pair per row, h00 a prescribed profile
    that binds to the run once, before the first step:
    ``h00.on_run(grid, t0, dt, steps)`` returns the run's row, whose
    ``fill(k, t_k, out)`` writes h00 at step k, time t_k = t0 + k dt, on
    the grid into the (n,) out, for k in [0, steps), and whose
    ``steady`` is true when h00 does not depend on t; a steady row is
    filled, its floor checked and its weights built once per run
    (:class:`hfoil.bounds.MetricPerturb`; ``metric_pull`` raises
    ValueError when it binds unless dx/dt is an integer, and this solver
    checks no ratio).  Tags, observers (one sequence per row), guards
    and reports work as in :func:`solve_linear_wave_sourced`, and row
    i's observers get on_level(t, step, None, v_i), bit for bit the
    levels of its own one-row run.  Each row's 1 + h00 is also held
    above the floor 0.1.
    """
    dx = grid.dx
    n = grid.n
    r = grid.r(0, n)
    dt = cfl * dx
    c2 = mass ** 2
    steps = _step_count(t0, t_end, dt)
    rows = [h00.on_run(grid, t0, dt, steps) for _, h00 in metrics]
    shape = (len(metrics), n)
    g, A, tmp = (np.empty(shape) for _ in range(3))
    fg, fA, ftmp = _flat(g, A, tmp)
    S = None if source is None else np.empty(shape)
    fS = None if source is None else _flat(S)[0]
    lam2, _, hc, w = _folded(dt, dx, r, c2)
    e = np.broadcast_to(lam2, (g.size,))    # one constant, no memory

    def metric(t, step):
        """Each row's 1 + h00 at step's time t into its row of tmp, held
        above the floor 0.1, and the step's weights g = 2 (1 + h00 -
        lam2) and A = 1 + h00 + hc from it; a steady row only at step 0.
        Returns tmp, valid until the step overwrites it."""
        for (tag, _), row, out, gr, ar in zip(metrics, rows, tmp, g, A):
            if step and row.steady:
                continue
            np.add(row.fill(step, t, out), 1.0, out=out)
            if out.min() <= 0.1:
                i = int(np.argmin(out))
                _trip("metric perturbation too large", "coefficient", t,
                      step, r[i], out[i], tag)
            np.subtract(out, lam2, out=gr)
            np.multiply(gr, 2.0, out=gr)
            np.add(out, hc, out=ar)
        return tmp

    W = r * np.asarray(data.v0(r), dtype=float)
    dW = r * np.asarray(data.v1(r), dtype=float)
    rhs0 = _d2_odd(W, dx, np.empty(n)) - c2 * W
    if source is not None:
        rhs0 = rhs0 + r * source(t0, r)
    starts = ((np.repeat(W[None], len(metrics), axis=0),
               W + dt * dW + 0.5 * dt * dt * rhs0 / metric(t0, 0)),)

    def advance(k, t_k, prev, cur, nxt, lvl, end):
        metric(t_k, k)
        if source is not None:        # one row of f for the whole stack
            np.multiply(source(t_k, r), w, out=S)
        _kg_update(prev[0], cur[0], e, fg, fA, fS, nxt[0], ftmp, n, end)

    return _march(grid, ("v",), starts, t0, t_end, dt, advance,
                  [tag for tag, _ in metrics], observers,
                  reach=None if source is None else lambda k: n)
