"""Explicit pointwise envelopes for the linear problems and margin checks.

Two closed-form majorants are evaluated here: a Klein-Gordon envelope V
built from integrals of the metric perturbation along rays through the
origin, and a piecewise power-law bound for the sourced wave equation.
The base points of one lattice ray share one quadrature: one node set
(the farthest point's nodes merged with every point's own s), one
evaluation of |h'| and its cumulative integral H, read at each point's
own node; the far regime's Gronwall boost int |h'| e^{C int_lam^s |h'|}
is taken in its closed form (e^{C H(s)} - 1) / C.
Margin checks run the matching linear solver and report the measured
ratio field/envelope over a RayLattice: rays crossed with slices s
(kg_lattice) or times t (wave_lattice), cut by one coverage rule to the
cone-interior points the run can measure.  A lattice is built, with its
grid and run length, before any solve, and each level's points are its
rows.  The wave check steps all its (mu, nu) pairs as one stack of
sources, the Klein-Gordon check all its metrics as one stack of
backgrounds.

The wave sources (wave_source records, evaluated only as the rows of a
WaveSourceStack) and the metric pull both switch on over one band of
t - r, SWITCH_ON.  Both are functions of t - r and t + r times a scalar
of t, and both solvers step at Courant number 1/M for an integer M (M =
1 for the wave check, _WAVE_CFL, and M = 2 for the Klein-Gordon check,
_KG_CFL), so every grid point of a run has t_k -/+ r_j = t0 + (k -/+ M
j) dt: each profile binds to a run as tables on that lattice, built
once per run on the support t - r > SWITCH_ON[0] and read at every step
as stride-M views (_NullLattice).
"""
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .util import EmptyLatticeError, smoothstep, smoothstep_d
from .fields import RadialGrid
from .solver import (InitialData, grid_for_run, solve_linear_kg_curved,
                     solve_linear_wave_sourced)
from .analysis import QueryPool


# === parameters and ray geometry ===

C_SWEEP = (1.0, 10.0, 100.0)     # the C of kg_bound_margin's C_sensitivity


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
        """Quadrature nodes from lam_min to s with step at most dlam:
        max(2, ceil((s - lam_min) / dlam) + 1) of them."""
        n = max(2, math.ceil((self.s - self.lam_min) / dlam) + 1)
        return np.linspace(self.lam_min, self.s, n)


class MetricPerturb:
    """A scalar perturbation profile h00(t, r) as the curved Klein-Gordon
    solver and the envelopes read it.

    on_run(grid, t0, dt, steps) binds its values to a run on grid from
    t0 at step dt: it returns the run's row, whose fill(k, t_k, out)
    writes h00 at the step's time t_k = t0 + k dt on the grid into the
    (n,) out, for k in [0, steps), and whose steady is true when h00
    does not depend on t, so that the solver fills it and builds its
    step weights from it once per run.  dt
    and dr are the analytic t- and r-derivatives, from which the
    envelopes assemble the ray derivative exactly.
    """

    def __init__(self, on_run: Callable, dt: Callable, dr: Callable):
        self.on_run = on_run
        self.dt = dt
        self.dr = dr


class _FlatRow:
    """The run row of h00 = 0: steady, so its solver fills it and builds
    its step weights once."""
    steady = True

    def fill(self, k, t_k, out):
        out[:] = 0.0
        return out


def _zeros(t, r):
    return np.zeros_like(np.asarray(r, float))


ZERO_METRIC = MetricPerturb(lambda grid, t0, dt, steps: _FlatRow(),
                            dt=_zeros, dr=_zeros)


# the band of t - r over which wave_source and metric_pull switch on:
# zero up to its start, the C^2 smoothstep ramp across it, one past it
SWITCH_ON = (1.0, 1.5)
_LO, _WID = SWITCH_ON[0], SWITCH_ON[1] - SWITCH_ON[0]

# the Courant numbers of the envelope checks' runs; each inverse, the M
# of _NullLattice, is an integer.  The wave check runs at exactly 1:
# there the leapfrog of W = r u is the characteristic update W(k+1, j) =
# W(k, j+1) + W(k, j-1) - W(k-1, j) (lam2 = 1, c0 = 0), which carries
# the source-free part exactly (every amplification factor has |g| =
# 1), so only the sourced part errs, at O(dx^2).  The Klein-Gordon
# check keeps 1/2: at 1 its ratios move by percents, to be judged
# against an exact oracle first
_WAVE_CFL = 1.0
_KG_CFL = 0.5


class _NullLattice:
    """t - r and t + r of a run's grid points as indices of one lattice.

    A run on grid (r_j = j dx) from t0 at step dt = dx/M, M an integer,
    has t_k -/+ r_j = t0 + (k -/+ M j) dt at step k, for the steps k in
    [0, steps).  So a profile of t - r or t + r is one table per run,
    over lattice indices from lo on, read at step k as a stride-M view:
    minus at t_k - r_j, plus at t_k + r_j.  lo is the first index whose
    t0 + lo dt exceeds SWITCH_ON[0]: the support of both profiles, which
    at step k is the prefix of the support(k) points j with k - M j >=
    lo.  A run whose dx/dt is not an integer is a ValueError.
    """

    def __init__(self, grid, t0: float, dt: float, steps: int):
        ratio = grid.dx / dt
        M = round(ratio)
        if M < 1 or abs(ratio - M) > 1e-9 * M:
            raise ValueError(f"a profile table needs an integer dx/dt, "
                             f"got {ratio:.9g}")
        # a run's start fills step 0 even when it takes no step
        steps = max(steps, 1)
        self.M, self.n, self.t0, self.dt, self.steps = M, grid.n, t0, dt, steps
        first = math.floor((_LO - t0) / dt) - 1   # before the support
        self.lo = first + int(np.searchsorted(self._values(first, steps),
                                              _LO, side="right"))

    def _values(self, a: int, b: int) -> np.ndarray:
        """t0 + i dt for the lattice indices i in [a, b)."""
        return self.t0 + np.arange(a, b) * self.dt

    def support(self, k: int) -> int:
        """The length of step k's support prefix."""
        return 0 if k < self.lo else min(self.n, (k - self.lo) // self.M + 1)

    def differences(self) -> np.ndarray:
        """The lattice's t - r at every support point of the run, from
        index lo on."""
        return self._values(self.lo, self.steps)

    def sums(self) -> np.ndarray:
        """The lattice's t + r at every support point of the run, from
        index lo on."""
        last = self.steps - 1
        return self._values(self.lo,
                            last + self.M * (self.support(last) - 1) + 1)

    def minus(self, table, k: int, m: int):
        """table, indexed from lo, at t_k - r_j for j < m."""
        return table[k - self.lo::-self.M][:m]

    def plus(self, table, k: int, m: int):
        """table, indexed from lo, at t_k + r_j for j < m."""
        return table[k - self.lo::self.M][:m]


def _restrict(a, on):
    """a on the support mask, leaving a 0-d a as it is."""
    if a.ndim == 0:
        return a
    return (a if a.shape == on.shape else np.broadcast_to(a, on.shape))[on]


class _PullRow:
    """metric_pull(amp)'s row on a run: h00 = (amp/t_k) A[k - M j]
    B[k + M j], with the tables A = cut(t - r) sqrt(t - r) on the support
    and B = sqrt(t + r), since s/t = sqrt((t - r)(t + r))/t; +0.0 off the
    support."""
    steady = False

    def __init__(self, amp: float, lattice: _NullLattice):
        q = lattice.differences()
        self.amp, self.lattice = amp, lattice
        self.A = smoothstep((q - _LO) / _WID) * np.sqrt(q)
        self.B = np.sqrt(lattice.sums())

    def fill(self, k, t_k, out):
        lat = self.lattice
        m = lat.support(k)
        np.multiply(self.amp / t_k, lat.minus(self.A, k, m), out=out[:m])
        np.multiply(out[:m], lat.plus(self.B, k, m), out=out[:m])
        out[m:] = 0.0
        return out


def metric_pull(amp: float = 0.1) -> MetricPerturb:
    """h = amp*(s/t) switched on over SWITCH_ON in t-r.

    s/t is constant along rays, so the ray derivative comes entirely
    from the switch; the ramp is C^2 so perp h exists classically.  A
    run reads h from its tables (_PullRow), and the envelopes read d_t h
    and d_r h in closed form, evaluated only on the support t - r >
    SWITCH_ON[0], where s/t and the switch are positive, and zero
    elsewhere.
    """
    def on_support(profile):
        # profile(t, r, g, x) on the support, with g = s/t and x the
        # switch's argument; a 0-d t or r stays 0-d
        def evaluate(t, r):
            t = np.asarray(t, dtype=float)
            r = np.asarray(r, dtype=float)
            q = t - r
            on = q > _LO
            t, r = _restrict(t, on), _restrict(r, on)
            g = np.sqrt(np.maximum(1.0 - (r / t) ** 2, 0.0))
            out = np.zeros(on.shape)
            out[on] = profile(t, r, g, (q[on] - _LO) / _WID)
            return out
        return evaluate

    def h_t(t, r, g, x):
        return amp * (r * r / (g * t ** 3) * smoothstep(x)
                      + g * (smoothstep_d(x) / _WID))

    def h_r(t, r, g, x):
        return amp * (-r / (g * t ** 2) * smoothstep(x)
                      + g * (-smoothstep_d(x) / _WID))

    return MetricPerturb(
        lambda grid, t0, dt, steps: _PullRow(
            amp, _NullLattice(grid, t0, dt, steps)),
        dt=on_support(h_t), dr=on_support(h_r))


def pair_tag(mu: float, nu: float) -> str:
    """The label of a (mu, nu) pair in file names and guard reports:
    mup05_num025 for (0.5, -0.25)."""
    def one(x):
        return ("m" if x < 0 else "p") + ("%g" % abs(x)).replace(".", "")
    return f"mu{one(mu)}_nu{one(nu)}"


@dataclass(frozen=True)
class wave_source:
    """The source f = amp * t^-(2+nu) * (t-r)^(mu-1), switched on over
    SWITCH_ON in t-r, as the record a :class:`WaveSourceStack` row reads.

    The switch keeps the support inside the cone and regularizes the
    (t-r) power at the tip; past the band the profile is exact.  tag
    labels the row in guard reports.
    """
    mu: float
    nu: float
    amp: float = 1.0

    @property
    def tag(self) -> str:
        return pair_tag(self.mu, self.nu)


class WaveSourceStack:
    """wave_source profiles as the rows of one (R, n) source buffer.

    The sourced wave solver steps the rows as one stack, bound to its
    run by :meth:`on_run`; tags label them in guard reports.  The rows
    are grouped by mu, which fixes the profile of t - r, G = cut(t - r)
    (t - r)^(mu-1); a group's runs of adjacent rows are filled as one
    block each.
    """

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.tags = tuple(f.tag for f in self.rows)
        powers = {}                   # (t-r) power -> runs of row indices
        for i, f in enumerate(self.rows):
            runs = powers.setdefault(f.mu - 1.0, [])
            if runs and runs[-1][-1] == i - 1:
                runs[-1].append(i)
            else:
                runs.append([i])
        # each run as (its rows, their amps as a column, their t powers)
        self._powers = [
            (e, [(slice(run[0], run[-1] + 1),
                  np.array([[self.rows[i].amp] for i in run]),
                  np.array([-(2.0 + self.rows[i].nu) for i in run]))
                 for run in runs])
            for e, runs in powers.items()]

    def on_run(self, grid, t0: float, dt: float,
               steps: int) -> "_SourceRun":
        """The stack bound to a run on grid from t0 at step dt, for the
        steps k in [0, steps): one table G per mu group on the run's
        _NullLattice (ValueError unless dx/dt is an integer)."""
        lattice = _NullLattice(grid, t0, dt, steps)
        q = lattice.differences()
        cut = smoothstep((q - _LO) / _WID)
        return _SourceRun(lattice, [(cut * q ** e, runs)
                                    for e, runs in self._powers])


class _SourceRun:
    """A WaveSourceStack bound to one run (WaveSourceStack.on_run)."""

    def __init__(self, lattice: _NullLattice, tables):
        self.lattice = lattice
        self.tables = tables

    def support(self, k: int) -> int:
        """The length of the prefix [0, m) of the grid outside which step
        k's fill writes +0.0."""
        return self.lattice.support(k)

    def fill(self, k: int, t_k: float, weight: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        """Row i of the (R, n) buffer out gets rows[i]'s f * weight at
        step k, time t_k, for a per-cell weight (the solver's dt^2 r),
        and +0.0 off the support t - r > SWITCH_ON[0].

        f is amp t_k^-(2+nu) G(t - r), and the support is a prefix [0,
        m) of the grid, so a row is (amp * t_k^-(2+nu)) * G[k - M j] on
        it, times the weight last.
        """
        # t's powers through the array ufunc, as an array t takes them:
        # scalar float64 ** uses libm pow, which can differ by one ulp
        t_arr = np.asarray(t_k, dtype=float)
        lattice = self.lattice
        m = lattice.support(k)
        out[:, m:] = 0.0
        for table, runs in self.tables:
            G = lattice.minus(table, k, m)
            for rows, amp, pw in runs:
                np.multiply(amp * (t_arr ** pw)[:, None], G,
                            out=out[rows, :m])
        np.multiply(out[:, :m], weight[:m], out=out[:, :m])
        return out


# === ray integrals ===

def h_ray_derivative(h: MetricPerturb, ray: RayCoords, lam):
    """d/dlam of h along the ray at the nodes lam: (t/s) d_t h + (r/s)
    d_r h at the ray point, which is (t/s) times the perp derivative
    there.  Every node must lie in [lam_min, s]."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < ray.lam_min - 1e-9) or np.any(lam > ray.s + 1e-9):
        raise ValueError("lambda outside the ray range")
    tp, rp = ray.points(lam)
    return (ray.t / ray.s) * h.dt(tp, rp) + (ray.r / ray.s) * h.dr(tp, rp)


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid sums of y over the nodes x, 0 at x[0]."""
    return np.concatenate([[0.0],
                           np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


class RayIntegral:
    """Cumulative integral of lam^{3/2} |f| along one ray, evaluable at
    any s-bar in [lam_min, s] by linear interpolation of the nodes."""

    def __init__(self, lam: np.ndarray, cum: np.ndarray):
        self.lam = lam
        self.cum = cum

    def __call__(self, sbar):
        return np.interp(sbar, self.lam, self.cum)


def accumulate_F(f: Optional[Callable], ray: RayCoords,
                 params: BoundParams) -> RayIntegral:
    lam = ray.lam_nodes(params.dlam)
    if f is None:
        return RayIntegral(lam, np.zeros_like(lam))
    tp, rp = ray.points(lam)
    g = lam ** 1.5 * np.abs(np.asarray(f(tp, rp), dtype=float))
    return RayIntegral(lam, _cumtrapz(g, lam))


def envelope_V(rays, data_norms, F: RayIntegral, h, params: BoundParams,
               Cs=None) -> np.ndarray:
    """The Klein-Gordon majorant at the base points of one lattice ray.

    far:  (|v0|+|v1|)(1 + int |h'| e^{C int_lam^s |h'|})
          + F(s) + int F |h'| e^{C int_lam^s |h'|}
    near: F(s) + int F |h'| e^{C int_lam^s |h'|}
    with the outer integrals over lam from lam_min to s.  With H the
    cumulative int |h'| from lam_min, the far boost is exactly
    (e^{C H(s)} - 1)/C and the source term e^{C H(s)} int F |h'| e^{-C H}.

    rays are the RayCoords of base points of one direction, hence of one
    lam_min and regime (ValueError otherwise).  They share F, accumulated
    to the farthest of them, and one node set: that point's
    lam_nodes(dlam) merged with every point's own s.  |h'| is evaluated
    once on it, and each point reads F, H and the source sum at its own
    node.  Cs are the weights C (default: params.C); V has shape
    (len(Cs), len(rays)).
    """
    Cs = (params.C,) if Cs is None else tuple(float(c) for c in Cs)
    top = max(rays, key=lambda ray: ray.s)
    if any(abs(ray.rho - top.rho) > 1e-12 or ray.far != top.far
           for ray in rays):
        raise ValueError("envelope_V takes base points of one lattice ray")
    s = np.array([ray.s for ray in rays])
    lam = np.union1d(top.lam_nodes(params.dlam), s)
    at = np.searchsorted(lam, s)
    hp = np.abs(h_ray_derivative(h, top, lam))
    H = _cumtrapz(hp, lam)
    Fh, Fs = F(lam) * hp, F(s)
    norm = float(data_norms[0]) + float(data_norms[1])
    V = np.empty((len(Cs), len(rays)))
    for ci, C in enumerate(Cs):
        grow = np.exp(C * H[at]) * _cumtrapz(Fh * np.exp(-C * H), lam)[at]
        V[ci] = Fs + grow
        if top.far:
            V[ci] += norm * (1.0 + np.expm1(C * H[at]) / C)
    return V


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

# the size of both ray lattices: rays uniform in hyperbolic angle, which
# clusters them toward the cone in r/t, crossed with geometric levels
_N_RAYS = 16
_N_LEVELS = 20

# both checks run from t0 = 2, the wave envelope's first admissible time
_T0 = 2.0

# the Klein-Gordon lattice keeps t - r >= _KG_TR_MIN, and _KG_DELTA is
# the physical step of the centered cross estimating perp v; it is
# deliberately not tied to dx so the same quantity is measured at every
# resolution.  The wave lattice keeps t - r >= _WAVE_TR_MIN.
_KG_TR_MIN = 1.25
_KG_DELTA = 0.08
_WAVE_TR_MIN = 2.0

# QueryPool coverage margins of the lattices: a query's 10-point window
# of radial columns and levels must lie on the run, so lattice points
# stay _POOL_EDGE_CELLS cells inside the outer edge and the run goes on
# _POOL_TAIL_CELLS dx past the last query time: 12 steps at Courant
# number 1/2, and 6 at 1, of which a window needs 5
_POOL_EDGE_CELLS = 16
_POOL_TAIL_CELLS = 6

# kg_lattice starts on the slice KG_LATTICE_LEAD * s0, a tenth past the
# first hyperboloid of the envelopes
KG_LATTICE_LEAD = 1.1


@dataclass(frozen=True, eq=False)
class RayLattice:
    """The sample points of an envelope check, and the run that covers
    them; two lattices compare equal only when they are one object.

    The run goes from _T0 to t_end on grid at its check's Courant
    number (_KG_CFL or _WAVE_CFL).
    levels are the lattice's slices s or times t, one row each; ts and
    rs are the covered points in row-major order, and row and ray give
    each point's level and ray.  skipped counts the points inside the
    cone that the run cannot cover; geometry holds the lattice's entries
    of a report's params, the run's Courant number ("cfl") among them.
    """
    grid: RadialGrid
    t_end: float
    levels: np.ndarray
    ts: np.ndarray
    rs: np.ndarray
    row: np.ndarray
    ray: np.ndarray
    skipped: int
    geometry: dict

    def level_max(self, values, keep=None) -> list:
        """(level, max of values over the level's kept points) for every
        level that keeps a point, in order; keep (a mask over the
        points) defaults to all of them."""
        keep = np.ones(self.row.size, dtype=bool) if keep is None else keep
        return [(float(self.levels[i]),
                 float(np.max(values[(self.row == i) & keep])))
                for i in np.unique(self.row[keep])]


def _ray_lattice(levels, T, R, inside, *, dx: float, t_end: float,
                 reach: float, geometry: dict, span: str) -> RayLattice:
    """The points (T, R) of rays crossed with levels that lie inside the
    cone (t - r >= geometry["tr_min"]) and on the run from _T0 to t_end
    at step dx.  A point's queries reach reach past it in t and r, so
    T - reach must not precede _T0 and R + reach must stay
    _POOL_EDGE_CELLS cells inside the grid's edge.  A lattice that keeps
    no point is an EmptyLatticeError; span names its levels' range."""
    grid = grid_for_run(dx, _T0, t_end)
    covered = inside & (T - reach >= _T0) & \
        (R + reach <= grid.r_max - _POOL_EDGE_CELLS * dx)
    if not covered.any():
        raise EmptyLatticeError(
            f"no lattice point {span} lies in the run: each needs t - r >= "
            f"{geometry['tr_min']:g}, t >= {_T0 + reach:g} and room on the "
            f"grid")
    return RayLattice(grid, t_end, levels, T[covered], R[covered],
                      *np.nonzero(covered), int(inside.sum() - covered.sum()),
                      geometry)


def kg_lattice(params: BoundParams, *, dx: float,
               s_max: float) -> RayLattice:
    """The lattice of kg_bound_margin at step dx: _N_LEVELS slices s from
    KG_LATTICE_LEAD s0 to s_max, each crossed with _N_RAYS rays from
    the axis to the ray through t - r = _KG_TR_MIN on the last slice,
    kept where t - r >= _KG_TR_MIN.  The run ends _POOL_TAIL_CELLS dx
    past the cross of the latest point.  A first slice at or past s_max
    is a ValueError."""
    s_first = KG_LATTICE_LEAD * params.s0
    if not s_first < s_max:
        raise ValueError(f"the lattice's first slice {KG_LATTICE_LEAD:g} s0 "
                         f"= {s_first:g} must lie before s_max = {s_max:g}")
    chi = np.linspace(0.0, math.log(s_max / _KG_TR_MIN), _N_RAYS)
    s = np.geomspace(s_first, s_max, _N_LEVELS)
    T, R = np.outer(s, np.cosh(chi)), np.outer(s, np.sinh(chi))
    inside = s[:, None] >= np.exp(chi) * _KG_TR_MIN  # t - r >= _KG_TR_MIN
    # the fan ends on the last slice's t - r = _KG_TR_MIN, so that slice
    # keeps every ray, the outermost too whatever exp(log) rounds to
    inside[-1] = True
    t_max = float(np.max(T[inside])) if inside.any() else _T0
    return _ray_lattice(
        s, T, R, inside, dx=dx, reach=_KG_DELTA,
        t_end=t_max + _KG_DELTA + _POOL_TAIL_CELLS * dx,
        geometry={"dx": dx, "cfl": _KG_CFL, "s_max": s_max,
                  "tr_min": _KG_TR_MIN, "delta": _KG_DELTA},
        span=f"up to s_max = {s_max:g}")


def kg_bound_margin(lattice: RayLattice, metrics, data: InitialData,
                    params: BoundParams,
                    f: Optional[Callable] = None) -> list:
    """Run the curved linear Klein-Gordon problem for every (tag, h) of
    metrics on the run of lattice (a kg_lattice), as one stack with a
    QueryPool per row, and measure [s^{3/2}|v| + (t/s) s^{3/2} |perp v|]
    / V at its points: one report per metric, in order, each bit for bit
    that of its metric alone.

    perp v is read from a centered cross of half-width _KG_DELTA about
    each point.  Ratios are taken where V > 0; lattice points with V = 0
    (near regime with no source) are counted apart with their largest
    weighted field value.

    Envelopes are taken per lattice ray, not per point: one envelope_V
    call per ray for every distinct C of (params.C, *C_SWEEP) at dlam
    and one at dlam/2 (quad_refinement_delta), each on the ray's one
    shared node set, with the far boost in closed form.
    c_dependent_points counts the lattice points whose V differs across
    C_SWEEP; only points with H(s) > 0 that are far or sourced can.
    """
    ts, rs, grid, d = lattice.ts, lattice.rs, lattice.grid, _KG_DELTA
    pools = [QueryPool(grid) for _ in metrics]
    # the values and their centered cross
    probes = [(ts, rs), (ts + d, rs), (ts - d, rs), (ts, rs + d), (ts, rs - d)]
    crosses = [[pool.add("v", t, r) for t, r in probes] for pool in pools]
    solve_linear_kg_curved(grid, metrics, params.mass, data,
                           [(pool,) for pool in pools], t0=_T0,
                           t_end=lattice.t_end, cfl=_KG_CFL, source=f)

    ss = np.sqrt(ts * ts - rs * rs)
    rr = grid.r(0, grid.n)
    n0 = float(np.max(np.abs(np.asarray(data.v0(rr), dtype=float))))
    n1 = float(np.max(np.abs(np.asarray(data.v1(rr), dtype=float))))

    reports = []
    for (_, h), pool, cross in zip(metrics, pools, crosses):
        pool.assert_resolved()
        v, tp, tm, rp, rm = (pool.result(q) for q in cross)
        perp = (tp - tm) / (2 * d) + (rs / ts) * ((rp - rm) / (2 * d))
        weighted = (ss ** 1.5 * np.abs(v)
                    + (ts / ss) * ss ** 1.5 * np.abs(perp))
        V, V_half, Vs, regimes = _lattice_envelopes(h, f, params, ts, rs,
                                                    lattice.ray, (n0, n1))
        pos = V > 0
        ratio = np.zeros(ts.size)
        ratio[pos] = weighted[pos] / V[pos]

        quad = float(np.max(np.abs(V_half[pos] - V[pos]) / V[pos])) \
            if pos.any() else 0.0
        reports.append({
            "proposition": "kg-envelope",
            "params": {"C": params.C, "mass": params.mass,
                       "dlam": params.dlam, "s0": params.s0,
                       **lattice.geometry,
                       "data_norms": [n0, n1], "sourced": f is not None},
            "per_s_max_ratio": [{"s": s, "max_ratio": m} for s, m
                                in lattice.level_max(ratio, pos)],
            "max_ratio": float(np.max(ratio[pos])) if pos.any() else 0.0,
            "regime_counts": {"far": int(regimes.sum()),
                              "near": int((~regimes).sum())},
            "quadrature_step": params.dlam,
            "quad_refinement_delta": quad,
            "c_dependent_points": int(np.sum(np.ptp(
                [Vs[c] for c in C_SWEEP], axis=0) > 0)),
            "C_sensitivity": {format_c(c): float(np.max(
                weighted[pos & (Vs[c] > 0)] / Vs[c][pos & (Vs[c] > 0)]))
                if (pos & (Vs[c] > 0)).any() else 0.0
                for c in C_SWEEP},
            "skipped": lattice.skipped,
            "zero_envelope": {
                "count": int((~pos).sum()),
                "max_weighted_value": float(np.max(weighted[~pos]))
                if (~pos).any() else 0.0},
        })
    return reports


def _lattice_envelopes(h, f, params: BoundParams, ts, rs, ci, data_norms):
    """(V, V_half, Vs, far) at the base points (ts, rs) of lattice rays ci.

    One envelope_V call per lattice ray and quadrature step: at dlam for
    every distinct C of (params.C, *C_SWEEP), and at dlam/2 for
    params.C.  Each ray's source integral is accumulated once per step,
    to its farthest base point, and envelope_V takes the ray's points on
    one shared node set.  Vs maps each C of the sweep to its V.
    """
    half = replace(params, dlam=params.dlam / 2)
    Cs = list(dict.fromkeys(float(c) for c in (params.C, *C_SWEEP)))
    V = np.empty(ts.size)
    V_half = np.empty(ts.size)
    Vs = {c: np.empty(ts.size) for c in C_SWEEP}
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
        for c in C_SWEEP:
            Vs[c][idx] = env[Cs.index(float(c))]
    return V, V_half, Vs, far


def format_c(c: float) -> str:
    return str(int(c)) if float(c).is_integer() else repr(float(c))


def wave_lattice(*, dx: float, t_lo: float, t_end: float) -> RayLattice:
    """The lattice of wave_bound_margin on the run from _T0 to t_end on
    the grid of step dx, stepped at Courant number _WAVE_CFL (dt = dx):
    _N_LEVELS times t from t_lo up to t_end less _POOL_TAIL_CELLS dx,
    each crossed with _N_RAYS rays, kept where t - r >= _WAVE_TR_MIN.  A
    t_end that leaves no lattice time past t_lo is an
    EmptyLatticeError."""
    tail = _POOL_TAIL_CELLS * dx
    t_hi = t_end - tail
    if t_hi < t_lo:
        raise EmptyLatticeError(
            f"no lattice time lies in the run: the lattice would run from "
            f"t_lo = {t_lo:g} to {t_hi:g}, t_end = {t_end:g} less "
            f"{_POOL_TAIL_CELLS} dx = {tail:g}")
    t_vals = np.geomspace(t_lo, t_hi, _N_LEVELS)
    chi = np.linspace(0.0, 0.5 * math.log(2.0 * t_hi / _WAVE_TR_MIN),
                      _N_RAYS)
    T = np.repeat(t_vals[:, None], _N_RAYS, axis=1)
    R = T * np.tanh(chi)
    return _ray_lattice(
        t_vals, T, R, T - R >= _WAVE_TR_MIN, dx=dx, t_end=t_end,
        reach=0.0,
        geometry={"dx": dx, "cfl": _WAVE_CFL, "t_range": [t_lo, t_end],
                  "tr_min": _WAVE_TR_MIN},
        span=f"from t = {t_lo:g} to {t_hi:g}")


def wave_bound_margin(lattice: RayLattice, pairs, *, amp: float) -> list:
    """Run the sourced wave problem for every (mu, nu) of pairs on the run
    of lattice (a wave_lattice) and measure |u| / wave_bound_value at
    its points, also grouped by decade of t: one report per pair, in
    order.

    The pairs share the run and the lattice, so they are solved as one
    stack (WaveSourceStack), each row with its own QueryPool.  Every row
    is bit for bit its own one-pair run, so a report does not depend on
    which other pairs ran beside it; one pair is a one-row stack.
    """
    ts, rs = lattice.ts, lattice.rs
    stack = WaveSourceStack(wave_source(mu, nu, amp) for mu, nu in pairs)
    pools = [QueryPool(lattice.grid) for _ in stack.rows]
    handles = [pool.add("u", ts, rs) for pool in pools]
    solve_linear_wave_sourced(lattice.grid, stack, t0=_T0,
                              t_end=lattice.t_end, cfl=_WAVE_CFL,
                              observers=[(pool,) for pool in pools])
    decade = np.floor(np.log10(ts)).astype(int)
    reports = []
    for (mu, nu), pool, handle in zip(pairs, pools, handles):
        pool.assert_resolved()
        ratio = np.abs(pool.result(handle)) / wave_bound_value(mu, nu, ts, rs)
        reports.append({
            "proposition": "wave-envelope",
            "params": {"mu": mu, "nu": nu, "amp": amp, **lattice.geometry},
            "per_t_max_ratio": [{"t": t, "max_ratio": m}
                                for t, m in lattice.level_max(ratio)],
            "per_decade_max_ratio": {
                f"1e{dec}": float(np.max(ratio[decade == dec]))
                for dec in np.unique(decade)},
            "max_ratio": float(np.max(ratio)),
            "regime_counts": {"inside_cone": int(ts.size)},
            "quadrature_step": None,
            "skipped": lattice.skipped,
        })
    return reports
