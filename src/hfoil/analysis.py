"""Slice diagnostics for hyperboloidal runs.

Everything here reduces to one trick: on the hyperbola chart
(s, chi) with t = s cosh(chi), r = s sinh(chi), both model fields stay
smooth on O(1) scales (the Klein-Gordon phase advances in s at the mass
frequency, the wave front is self-similar in chi), while in (t, r) the
same fields oscillate with frequency growing like t/s near the cone.
High derivative ladders are therefore tabulated as mixed
(d/ds)^p (d/dchi)^q values on per-node lattices and converted to
Cartesian d_t^i d_r^k and boost combinations by exact chain-rule
expansions whose coefficients are polynomials in
(cosh chi, sinh chi, 1/s).

Lattice values are point samples of the evolving fields, collected by a
QueryPool that watches the solver's level stream and answers each point
by tensor-product Lagrange interpolation, so no field history is ever
stored beyond a sliding window of levels.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import EVEN
from .geometry import slice_cone_margin
from .util import (FoliationError, SliceCoverageError, fd_weights,
                   lagrange_weights, reduce_sum, trapezoid_weights)


# === chain-rule expansions on the hyperbola chart ===

# An expansion {(p, q, a, b, k): c} is the sum of the terms
# c cosh^a(chi) sinh^b(chi) s^-k d_s^p d_chi^q.  Their ring is closed
# under d_s and d_chi, so expansions are exact, with integer c.

# first-order operators as terms (a, b, k, c, along_chi): c cosh^a sinh^b
# s^-k times d_chi (along_chi) or d_s.  d_t = cosh d_s - (sinh/s) d_chi,
# d_r = -sinh d_s + (cosh/s) d_chi, and the radial boost r d_t + t d_r
# collapses to d_chi at fixed s
_OPS = {
    "t": ((1, 0, 0, 1, False), (0, 1, 1, -1, True)),
    "r": ((0, 1, 0, -1, False), (1, 0, 1, 1, True)),
    "chi": ((0, 0, 0, 1, True),),
}


def _apply(exp, op: str):
    """The expansion of op (a key of _OPS) applied to exp, by the
    product rule."""
    out = {}

    def put(key, c):
        out[key] = out.get(key, 0) + c

    for (p, q, a, b, k), c in exp.items():
        for da, db, dk, f, along_chi in _OPS[op]:
            fc, A, B, K = f * c, a + da, b + db, k + dk
            if along_chi:
                put((p, q + 1, A, B, K), fc)
                if a:
                    put((p, q, A - 1, B + 1, K), a * fc)
                if b:
                    put((p, q, A + 1, B - 1, K), b * fc)
            else:
                put((p + 1, q, A, B, K), fc)
                if k:
                    put((p, q, A, B, K + 1), -k * fc)
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def combo_expansion(it: int, ir: int, j: int, outer: str = ""):
    """Expansion of d_t^it d_r^ir L^j (optionally with one more outer
    d_t or L) over the (d_s^p d_chi^q) derivative table; treat as
    immutable."""
    if outer in ("t", "chi"):
        return _apply(combo_expansion(it, ir, j), outer)
    if outer:
        raise ValueError(f"unknown outer derivative {outer!r}")
    if it:
        return _apply(combo_expansion(it - 1, ir, j), "t")
    if ir:
        return _apply(combo_expansion(it, ir - 1, j), "r")
    if j:
        return _apply(combo_expansion(0, 0, j - 1), "chi")
    return {(0, 0, 0, 0, 0): 1}


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


def hierarchy_combos(order: int):
    """All (it, ir, j) with it + ir + j <= order."""
    out = []
    for total in range(order + 1):
        for j in range(total + 1):
            for it in range(total - j + 1):
                out.append((it, total - j - it, j))
    return out


def combo_label(field: str, it: int, ir: int, j: int) -> str:
    istr = "t" * it + "r" * ir
    return f"{field}.{istr or '-'}.L{j}"


# === grid-noise suppression ===
#
# Second order schemes shed short dispersive wavetrains (wavelength a
# few dx, group velocity near zero, never damped).  Harmless to the
# solution, fatal to high derivative estimates: each d/ds amplifies an
# additive ripple of amplitude rho by another 1/h.  The cure is a
# symmetric FIR kernel that reproduces polynomials up to `degree`
# exactly (so interpolation stencils keep their order) while minimizing
# the response energy on [cutoff, pi] where the ripple lives.

@lru_cache(maxsize=None)
def design_lowpass(halfwidth: int = 20, degree: int = 9,
                   cutoff: float = 1.4) -> np.ndarray:
    """Symmetric 2*halfwidth+1 tap kernel, least-squares stopband.

    Constrained minimum of int_cutoff^pi W(k)^2 dk with W the discrete
    transfer function, subject to sum w = 1 and vanishing even moments
    through `degree`.  Returned array runs j = -halfwidth..halfwidth.
    """
    M = int(halfwidth)
    kc = float(cutoff)
    if not 0.0 < kc < math.pi:
        raise ValueError("cutoff must lie in (0, pi)")
    npar = M + 1                      # one-sided coefficients w_0..w_M
    nmom = degree // 2                # even moments 2..2*nmom vanish

    def cosint(m: int) -> float:
        # int_kc^pi cos(m k) dk
        if m == 0:
            return math.pi - kc
        return -math.sin(m * kc) / m

    Q = np.empty((npar, npar))
    Q[0, 0] = cosint(0)
    for j in range(1, npar):
        Q[0, j] = Q[j, 0] = 2.0 * cosint(j)
        for l in range(1, j + 1):
            Q[j, l] = Q[l, j] = 2.0 * (cosint(j - l) + cosint(j + l))
    A = np.zeros((nmom + 1, npar))
    A[0, 0] = 1.0
    A[0, 1:] = 2.0
    scale = np.arange(1, npar, dtype=float) / M
    for p in range(1, nmom + 1):
        A[p, 1:] = 2.0 * scale ** (2 * p)   # rows scaled by M^2p
    b = np.zeros(nmom + 1)
    b[0] = 1.0
    kkt = np.block([[2.0 * Q, A.T],
                    [A, np.zeros((nmom + 1, nmom + 1))]])
    rhs = np.concatenate([np.zeros(npar), b])
    x = np.linalg.solve(kkt, rhs)[:npar]
    kern = np.concatenate([x[:0:-1], x])
    kern.setflags(write=False)
    return kern


def kernel_response(kern: np.ndarray, k) -> np.ndarray:
    """Transfer function of a symmetric kernel at wavenumber k (rad per
    sample)."""
    M = (len(kern) - 1) // 2
    j = np.arange(-M, M + 1)
    return np.cos(np.multiply.outer(np.asarray(k, dtype=float), j)) @ kern


def filter_level(values: np.ndarray, kern: np.ndarray,
                 parity: int = EVEN, lo: int = 0, hi=None) -> np.ndarray:
    """Convolve one radial level with a symmetric kernel.

    The origin side folds with the field parity, the far side pads with
    zeros (fields are compactly supported inside the grid).  Only the
    outputs at cells lo..hi-1 are computed (default: the whole level);
    each is the same 2M+1 tap dot product as on the whole level, so a
    range is a bit-identical slice of the full result.
    """
    M = (len(kern) - 1) // 2
    n = len(values)
    hi = n if hi is None else hi
    ext = values[max(lo - M, 0):hi + M]
    if lo < M or hi + M > n:
        ext = np.concatenate([float(parity) * values[max(M - lo, 0):0:-1],
                              ext, np.zeros(max(hi + M - n, 0))])
    return np.convolve(ext, kern, mode="valid")


# === streaming point queries against a running evolution ===

class QueryPool:
    """Collects (t, r) point samples of the evolving fields.

    Register queries with add() before the run, attach on_level to the
    solver's observers, read answers afterwards.  Each point is
    answered by npts x npts Lagrange interpolation over consecutive
    levels and radial columns; the window goes one-sided at the first
    levels, and negative radii fold back with the field parity.

    level_filter folds the design_lowpass grid-noise filter into the
    radial weights: answers are then samples of the filtered field, at
    the same polynomial order.

    Wanted levels are written in place into a ring of 2*npts rows per
    queried field.  Every npts steps one flush answers all queries whose
    window has closed since the last flush; a query can wait up to
    npts - 1 levels past its window, hence two windows of rows.
    result(), unresolved() and assert_resolved() flush whatever is
    still pending up to the last streamed level.
    """

    # gathered window values per contraction (1 MiB of float64): a cap
    # on the transient memory of one flush
    _CHUNK_VALUES = 1 << 17

    def __init__(self, grid, parity=None, npts: int = 10,
                 level_filter: bool = False):
        self.grid = grid
        self.npts = int(npts)
        self.kernel = design_lowpass() if level_filter else None
        self.halo = 0
        self._shift = None
        if level_filter:
            M = self.halo = (len(self.kernel) - 1) // 2
            # the lowpass acts on the radial weights: filtered weights
            # are Wr @ shift, row i of shift being the kernel at column i
            self._shift = np.zeros((self.npts, self.npts + 2 * M))
            for i in range(self.npts):
                self._shift[i, i:i + 2 * M + 1] = self.kernel
        self.parity = {"u": EVEN, "v": EVEN}
        if parity:
            self.parity.update(parity)
        self._pts = {"u": [], "v": []}
        self._count = {"u": 0, "v": 0}
        self.results = {}
        self._ring = None
        self._missing = set()       # (step, field) absent before the plan
        self._plan = None
        self._targets = None
        self._t0 = None
        self._dt = None
        self._last_step = None
        self.last_t = None

    def add(self, field: str, t, r):
        if self._ring is not None:
            raise FoliationError("query pool already streaming, cannot add")
        t = np.ravel(np.asarray(t, dtype=float)).copy()
        r = np.ravel(np.asarray(r, dtype=float)).copy()
        if t.shape != r.shape:
            raise ValueError("query t and r must have matching shapes")
        start = self._count[field]
        self._pts[field].append((t, r))
        self._count[field] += t.size
        return (field, start, t.size)

    def result(self, handle) -> np.ndarray:
        field, start, size = handle
        if field not in self.results:
            raise FoliationError("no levels streamed through the pool yet")
        self._flush(self._last_step)
        return self.results[field][start:start + size]

    def unresolved(self) -> int:
        if not self.results:
            return sum(self._count.values())
        self._flush(self._last_step)
        return int(sum(np.isnan(res).sum() for res in self.results.values()))

    def assert_resolved(self):
        bad = self.unresolved()
        if bad:
            needed = max((pts[0].max() for f in self._pts
                          for pts in self._pts[f] if pts[0].size), default=None)
            raise SliceCoverageError(
                f"{bad} point queries were never covered by the run",
                needed=needed, available=self.last_t)

    # -- streaming side --

    def on_level(self, t, step, u, v):
        self.last_t = t
        self._last_step = step
        if self._ring is None:
            self._ring = {f: np.zeros((2 * self.npts, self.grid.n))
                          for f in ("u", "v") if self._count[f]}
        if self._t0 is None:
            self._t0 = t
        elif self._dt is None and step == 1:
            self._dt = t - self._t0
            self._start()
        fields = {"u": u, "v": v}
        if self._plan is None:
            # dt unknown until the second level; keep everything so far
            for f, ring in self._ring.items():
                if fields[f] is None:
                    self._missing.add((step, f))
                else:
                    ring[step % len(ring)] = fields[f]
            return
        if self._want_level(step):
            for f, ring in self._ring.items():
                if fields[f] is None:
                    raise FoliationError(
                        f"queries registered for field {f!r} but the run "
                        "does not produce it")
                ring[step % len(ring)] = fields[f]
        if (step + 1) % self.npts == 0:
            self._flush(step)

    def _want_level(self, step: int) -> bool:
        i = np.searchsorted(self._targets, step)
        return (i < len(self._targets)
                and self._targets[i] <= step + self.npts - 1)

    def _start(self):
        npts, dx, n, M = self.npts, self.grid.dx, self.grid.n, self.halo
        lead = npts // 2 - 1
        self._plan = {}
        targets = []
        for field in self._ring:
            t = np.concatenate([p[0] for p in self._pts[field]])
            r = np.concatenate([p[1] for p in self._pts[field]])
            t_idx = (t - self._t0) / self._dt
            if t_idx.min() < -1e-9:
                raise SliceCoverageError(
                    "query before the first level",
                    needed=float(t.min()), available=self._t0)
            t_idx = np.maximum(t_idx, 0.0)
            base = np.maximum(np.floor(t_idx).astype(np.int64) - lead, 0)
            r_idx = r / dx
            j0 = np.floor(r_idx).astype(np.int64) - lead
            top = int(np.max(np.maximum(j0 + npts - 1 + M, M - j0),
                             initial=0))
            if top > n - 1:
                raise SliceCoverageError(
                    "query columns leave the grid",
                    needed=top * dx, available=self.grid.r_max)
            target = base + npts - 1
            order = np.argsort(target, kind="stable")
            # everything a flush reads, in target order; frac_* are the
            # query offsets inside the time and radial windows
            self._plan[field] = {
                "order": order,
                "target": target[order],
                "base": base[order],
                "frac_t": t_idx[order] - (base[order] + lead),
                "frac_r": r_idx[order] - (j0[order] + lead),
                "col0": j0[order] - M,
                "done": 0}
            self.results[field] = np.full(t.size, np.nan)
            targets.append(target)
        if targets:
            self._targets = np.unique(np.concatenate(targets))
        else:
            self._targets = np.zeros(0, dtype=np.int64)
        for step, f in sorted(self._missing):
            if self._want_level(step):
                raise FoliationError(
                    f"queries registered for field {f!r} but the run "
                    "does not produce it")

    def _flush(self, step):
        """Answer every pending query whose target level is <= step."""
        if self._plan is None:
            return
        chunk = max(self._CHUNK_VALUES
                    // (self.npts * (self.npts + 2 * self.halo)), 1)
        for field, plan in self._plan.items():
            lo = plan["done"]
            hi = int(np.searchsorted(plan["target"], step, side="right"))
            for a in range(lo, hi, chunk):
                self._eval(field, plan, a, min(a + chunk, hi))
            plan["done"] = max(lo, hi)

    def _eval(self, field, plan, lo, hi):
        npts, M = self.npts, self.halo
        ring = self._ring[field]
        width = npts + 2 * M
        Wt = lagrange_weights(plan["frac_t"][lo:hi], npts)
        Wr = lagrange_weights(plan["frac_r"][lo:hi], npts)
        if M:
            # convolving the weights == filtering the (extended) level
            # before sampling it
            Wr = Wr @ self._shift
        cols = plan["col0"][lo:hi, None] + np.arange(width)
        parity = float(self.parity[field])
        folds = plan["col0"][lo:hi] < 0
        if parity != 1.0 and folds.any():
            Wr[folds] *= np.where(cols[folds] < 0, parity, 1.0)
        rows = (plan["base"][lo:hi, None] + np.arange(npts)) % len(ring)
        G = ring[rows[:, :, None], np.abs(cols)[:, None, :]]  # (b, npts, width)
        self.results[field][plan["order"][lo:hi]] = np.einsum(
            "bi,bi->b", np.einsum("bij,bj->bi", G, Wr), Wt)


# === derivative tables on one slice ===

class SliceDerivativeTable:
    """Mixed (d/ds)^p (d/dchi)^q derivatives of one field on the chi
    chart of a truncated hyperboloid.

    Every chart node gets its own (s, chi) lattice registered in the
    pool; tables() later applies Fornberg weights.  h_chi may vary per
    node so the caller can shrink it where the field develops short
    chi scales, and windows shift off-center instead of leaving the
    covered strip (s_floor below, chi_limit above).
    """

    def __init__(self, pool: QueryPool, field: str, s: float, chi,
                 max_order: int, h_s: float = 0.08, h_chi=0.1,
                 s_floor=None, chi_limit=None):
        chi = np.asarray(chi, dtype=float)
        self.field = field
        self.s = float(s)
        self.chi = chi
        self.order = int(max_order)
        K = self.order
        half, _ = lattice_reach(K)
        m = 2 * half + 1
        h_chi = np.broadcast_to(np.asarray(h_chi, dtype=float), chi.shape)

        off_s = np.arange(m) - half
        if s_floor is not None and half:
            room = int(math.floor((s - s_floor) / h_s + 1e-12))
            if room < 0:
                raise SliceCoverageError(
                    f"slice s={s} sits below the covered strip",
                    needed=s, available=s_floor)
            off_s = off_s + max(half - room, 0)

        shift = np.zeros(chi.shape, dtype=np.int64)
        if chi_limit is not None and half:
            over = chi + half * h_chi - chi_limit
            shift = np.maximum(np.ceil(over / h_chi - 1e-12), 0).astype(
                np.int64)
        off_c = (np.arange(m) - half)[None, :] - shift[:, None]

        s_nodes = s + off_s * h_s
        chi_nodes = chi[:, None] + off_c * h_chi[:, None]
        t = s_nodes[None, :, None] * np.cosh(chi_nodes)[:, None, :]
        r = s_nodes[None, :, None] * np.sinh(chi_nodes)[:, None, :]
        self.t_peak = float(t.max())
        self.r_peak = float(np.abs(r).max())
        self._shape = (chi.size, m, m)
        self._handle = pool.add(field, t, r)
        self._pool = pool

        self._Ws = np.stack([fd_weights(p, tuple(off_s)) / h_s ** p
                             for p in range(K + 1)])
        # nodes share a few chi stencils: one weight lookup per stencil
        by_shift = {}
        Wc = np.empty((chi.size, K + 1, m))
        for i in range(chi.size):
            sh = int(shift[i])
            if sh not in by_shift:
                offs = tuple(int(o) for o in off_c[i])
                by_shift[sh] = np.stack([fd_weights(q, offs)
                                         for q in range(K + 1)])
            scale = np.array([h_chi[i] ** q for q in range(K + 1)])
            Wc[i] = by_shift[sh] / scale[:, None]
        self._Wc = Wc

    def tables(self) -> np.ndarray:
        """(nodes, K+1, K+1) array of d_s^p d_chi^q values.

        Only entries with p + q <= max_order carry the design accuracy.
        """
        vals = self._pool.result(self._handle)
        if np.isnan(vals).any():
            raise SliceCoverageError(
                f"slice s={self.s} lattice not fully resolved",
                needed=self.t_peak, available=self._pool.last_t)
        Q = vals.reshape(self._shape)
        return np.einsum("nab,pa,nqb->npq", Q, self._Ws, self._Wc,
                         optimize=True)


def lattice_reach(max_order: int, s: float = 0.0, h_s: float = 0.0,
                  chi_max: float = 0.0):
    """(half, t_reach) of a SliceDerivativeTable lattice.

    half is the stencil half-width in s and chi that derivatives up to
    max_order use; t_reach is the latest t that the lattice of slice s,
    with s step h_s, samples at chi = chi_max.  Tables, grid plans and
    run lengths all take their reach from here.
    """
    half = max((max_order + 2) // 2, 2) if max_order else 0
    return half, (s + half * h_s) * math.cosh(chi_max)


def chart_nodes(s: float, cone_margin: float, chi_step: float):
    """Uniform chi nodes [0, chi_max] for the truncated slice."""
    c = 1.0 + cone_margin
    if s <= c:
        raise FoliationError(
            f"slice s={s} lies entirely inside the cone margin")
    t_wall = (s * s + c * c) / (2.0 * c)
    chi_max = math.acosh(t_wall / s)
    count = max(int(math.ceil(chi_max / chi_step)) + 1, 2)
    return np.linspace(0.0, chi_max, count), chi_max


# === the energy / sup-norm ladder ===

class SliceEnergySuite:
    """Ladder of slice energies E(s, d^I L^J w) streamed from one run.

    I runs over (d_t, d_r) pairs, L is the radial boost, and all
    combinations with |I| + |J| <= order are tabulated on every listed
    slice.  Attach on_level to the solver observers, then read
    energies() / stage_sups() once the run is past the last slice.
    """

    def __init__(self, grid, s_values, order: int = 0, mass: float = 1.0,
                 fields=("u", "v"), chi_step: float = 0.04,
                 h_s: float = 0.08, h_chi_u: float = 0.1, t_floor=None,
                 level_filter: bool = False):
        margin = slice_cone_margin(grid.dx)
        self.order = int(order)
        self.mass = float(mass)
        self.fields = tuple(fields)
        self.s_values = [float(s) for s in s_values]
        self.pool = QueryPool(grid, level_filter=level_filter)
        self._tables = {}
        self._charts = {}
        self.t_max = 0.0
        for s in self.s_values:
            chi, chi_max = chart_nodes(s, margin, chi_step)
            self._charts[s] = chi
            for field in self.fields:
                if field == "v":
                    h_chi = np.minimum(0.1, 0.35 / np.cosh(chi))
                else:
                    # wave data with a sharp retarded profile compresses
                    # in chi; callers shrink this to match their data
                    h_chi = np.full(chi.shape, h_chi_u)
                tab = SliceDerivativeTable(
                    self.pool, field, s, chi, self.order + 1, h_s=h_s,
                    h_chi=h_chi, s_floor=t_floor, chi_limit=chi_max)
                self._tables[(field, s)] = tab
                self.t_max = max(self.t_max, tab.t_peak)
                room = (grid.n - self.pool.npts - self.pool.halo) * grid.dx
                if tab.r_peak > room:
                    raise SliceCoverageError(
                        f"slice s={s} lattice leaves the grid",
                        needed=tab.r_peak, available=room)
        self._values = None

    @classmethod
    def plan(cls, dx: float, s_values, order: int = 0, t0: float = 2.0,
             support_radius: float = 1.0, pad: float = 0.25,
             h_s: float = 0.08, **kw):
        """Build the grid wide enough for the slices, then the suite.

        Returns (suite, grid, t_end) ready for evolve_model.
        """
        from .solver import grid_for_run
        s_top = max(float(s) for s in s_values)
        _, chi_max = chart_nodes(s_top, slice_cone_margin(dx), 1.0)
        t_need = lattice_reach(order + 1, s_top, h_s, chi_max)[1] + pad
        grid = grid_for_run(dx, t0, t_need, support_radius=support_radius)
        suite = cls(grid, s_values, order=order, h_s=h_s, t_floor=t0, **kw)
        return suite, grid, t_need

    def on_level(self, t, step, u, v):
        self.pool.on_level(t, step, u, v)

    # -- consumers --

    def _ensure_values(self):
        if self._values is not None:
            return
        self.pool.assert_resolved()
        combos = hierarchy_combos(self.order)
        comps = {}
        for combo in combos:
            for outer in ("", "t", "chi"):
                exp = combo_expansion(*combo, outer)
                comps[combo + (outer,)] = (np.array(list(exp)).T,
                                           np.fromiter(exp.values(), float))
        amax, bmax, kmax = np.max([idx.max(axis=1) for idx, _ in
                                   comps.values()], axis=0)[2:]
        self._values = {}
        self._energies = []
        for s in self.s_values:
            chi = self._charts[s]
            ch, sh = np.cosh(chi), np.sinh(chi)
            CH = ch[None, :] ** np.arange(amax + 1)[:, None]
            SH = sh[None, :] ** np.arange(bmax + 1)[:, None]
            ZI = (1.0 / s) ** np.arange(kmax + 1)
            dmu = 4.0 * math.pi * s ** 3 * trapezoid_weights(chi) * sh * sh * ch
            for field in self.fields:
                D = self._tables[(field, s)].tables()
                for (it, ir, j) in combos:
                    W = eval_combo(comps[(it, ir, j, "")], D, CH, SH, ZI)
                    Wt = eval_combo(comps[(it, ir, j, "t")], D, CH, SH, ZI)
                    Wl = eval_combo(comps[(it, ir, j, "chi")], D, CH, SH, ZI)
                    dens = (Wt / ch) ** 2 + (Wl / (s * ch)) ** 2
                    if field == "v":
                        dens = dens + (self.mass * W) ** 2
                    E = reduce_sum(dmu * dens)
                    self._values[(field, s, it, ir, j)] = W
                    self._energies.append(
                        {"field": field, "it": it, "ir": ir, "j": j,
                         "s": s, "value": float(E)})

    def energies(self):
        """Rows {field, it, ir, j, s, value} for every combo and slice."""
        self._ensure_values()
        return list(self._energies)

    def stage_sups(self, delta: float):
        """Weighted sup norms per bootstrap stage, one row per slice.

        Stages split each field into low and high order (is_low_order);
        wave stages weigh by t, Klein-Gordon stages by
        (t/s)^(1/2-7 delta) t^(3/2).
        """
        self._ensure_values()
        pv = 0.5 - 7.0 * delta
        stages = [("u:low", "u", 0.0, 1.0, True),
                  ("v:low", "v", pv, 1.5, True),
                  ("u:high", "u", 0.0, 1.0, False),
                  ("v:high", "v", pv, 1.5, False)]
        rows = []
        for label, field, p, q, low in stages:
            if field not in self.fields:
                continue
            for s in self.s_values:
                chi = self._charts[s]
                t = s * np.cosh(chi)
                weight = (t / s) ** p * t ** q
                best = 0.0
                for (it, ir, j) in hierarchy_combos(self.order):
                    if is_low_order(it + ir + j, self.order) != low:
                        continue
                    W = self._values[(field, s, it, ir, j)]
                    best = max(best, float(np.max(weight * np.abs(W))))
                rows.append({"field": label, "p": p, "q": q, "s": s,
                             "value": best})
        return rows


# === decay tracking and power-law fits ===

class SupTracker:
    """Running sup |w| per level, for pointwise decay fits.

    Pointwise sups at late times drown in undamped grid ripple long
    before the signal does, so with level_filter the default
    design_lowpass kernel is applied before taking the max.

    The filtered max is exact, index and value bit for bit those of
    filtering the whole level, yet only a window is convolved.  For a
    2M+1 tap kernel k, |(k*w)(i)| <= |k|_1 max_{|j-i| <= M} |w_j|; with
    best the filtered value at the largest |w|, only outputs within M
    cells of a cell with |k|_1 |w_j| >= best can reach the max.  |k|_1
    carries a 1e-12 margin for rounding (a 41-term dot product errs by
    about 1e-14).  Cells are kept by not(|k|_1 |w_j| < best), so a NaN
    best or a zero one (an all-zero level) keeps every cell and an inf
    cell is always kept: no level needs a second code path.
    """

    def __init__(self, field: str = "v", stride: int = 1, grid=None,
                 level_filter: bool = False):
        self.field = field
        self.stride = max(int(stride), 1)
        self.grid = grid
        self.kernel = design_lowpass() if level_filter else None
        if level_filter:
            self._reach = (len(self.kernel) - 1) // 2
            self._l1 = float(np.abs(self.kernel).sum()) * (1.0 + 1e-12)
        self.t = []
        self.sup = []
        self.r_at = []

    def on_level(self, t, step, u, v):
        if step % self.stride:
            return
        w = u if self.field == "u" else v
        if w is None:
            raise FoliationError(
                f"sup tracker for field {self.field!r} got no data")
        a = np.abs(w)
        i = int(np.argmax(a))
        lo = 0
        if self.kernel is not None:
            best = abs(filter_level(w, self.kernel, lo=i, hi=i + 1)[0])
            hot = np.flatnonzero(~(a * self._l1 < best))
            lo = max(int(hot[0]) - self._reach, 0)
            hi = min(int(hot[-1]) + self._reach + 1, len(w))
            a = np.abs(filter_level(w, self.kernel, lo=lo, hi=hi))
            i = int(np.argmax(a))
        self.t.append(float(t))
        self.sup.append(float(a[i]))
        self.r_at.append((lo + i) * self.grid.dx if self.grid is not None
                         else float(lo + i))

    def series(self):
        return np.asarray(self.t), np.asarray(self.sup)


@dataclass
class PowerFit:
    exponent: float
    amplitude: float
    rms: float
    count: int
    span: float


def fit_power_law(x, y, tail: float | None = 10.0, min_points: int = 8,
                  min_span: float = 4.0) -> PowerFit:
    """Least-squares exponent of y ~ A x^p.

    tail=10 keeps only the last decade of x; the fit refuses to run on
    fewer than min_points samples or a span under min_span.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if tail is not None and x.size:
        keep = x >= x.max() / tail
        x, y = x[keep], y[keep]
    if x.size < min_points:
        raise FoliationError(
            f"power-law fit needs at least {min_points} points, "
            f"got {x.size}")
    span = float(x.max() / x.min())
    if span < min_span:
        raise FoliationError(
            f"power-law fit span {span:.3g} is under {min_span:.3g}")
    lx, ly = np.log(x), np.log(y)
    M = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(M, ly, rcond=None)
    resid = ly - M @ coef
    return PowerFit(exponent=float(coef[0]),
                    amplitude=float(math.exp(coef[1])),
                    rms=float(np.sqrt(np.mean(resid ** 2))),
                    count=int(x.size), span=span)


def is_low_order(k: int, order: int) -> bool:
    """Whether combo order k is in the low band of a ladder of the given
    order (k <= order - 4), which the hierarchy targets and the stage
    sup norms both split on."""
    return k <= order - 4


def hierarchy_target(field: str, k: int, delta: float, order: int) -> float:
    """Allowed growth exponent of E(s, combo)^(1/2) at combo order k.

    Low orders (is_low_order) stay flat for the wave field and grow
    like k*delta for Klein-Gordon; the top orders pick up the extra
    half power on the Klein-Gordon side.
    """
    low = is_low_order(k, order)
    if field == "u":
        return 0.0 if low else k * delta
    return k * delta if low else 0.5 + k * delta


# an energy or sup at or below TINY counts as identically zero
TINY = 1e-300


def hierarchy_check(energy_rows, delta: float, order: int):
    """Fit every combo's E^(1/2) growth and compare with its target; a
    line passes when its fitted exponent is at most target + 0.05.

    A combo that stays at zero (at most TINY) all along the ladder
    satisfies any growth target, which the fitter cannot see (log of
    zero): it passes with a zero rate and width.  A live combo with too
    few slices to fit fails with a NaN rate: it gets no free pass.

    Returns a list of line dicts (line, k, target, fitted, width, pass)
    sorted by line label.
    """
    groups = {}
    for row in energy_rows:
        key = (row["field"], row["it"], row["ir"], row["j"])
        groups.setdefault(key, []).append((row["s"], row["value"]))
    lines = []
    for (field, it, ir, j), pts in groups.items():
        pts.sort()
        e_arr = np.array([p[1] for p in pts])
        k = it + ir + j
        target = hierarchy_target(field, k, delta, order)
        if float(np.max(e_arr)) <= TINY:
            fitted, width, ok = 0.0, 0.0, True
        else:
            try:
                fit = fit_power_law(np.array([p[0] for p in pts]),
                                    np.sqrt(e_arr))
            except FoliationError:
                fitted, width, ok = float("nan"), 0.0, False
            else:
                fitted, width = fit.exponent, fit.rms
                ok = bool(fitted <= target + 0.05)
        lines.append({"line": combo_label(field, it, ir, j), "k": k,
                      "target": target, "fitted": fitted, "width": width,
                      "pass": ok})
    lines.sort(key=lambda ln: ln["line"])
    return lines


# === Sobolev constant on truncated slices ===

@dataclass
class ChiProfile:
    """Radial slice profile psi(chi) with two derivatives in hand."""
    psi: object
    dpsi: object
    ddpsi: object
    label: str = ""


def gaussian_profile(width: float, amp: float = 1.0,
                     label: str = "") -> ChiProfile:
    w2 = float(width) ** 2

    def psi(chi):
        return amp * np.exp(-np.square(chi) / w2)

    def dpsi(chi):
        return -2.0 * chi / w2 * psi(chi)

    def ddpsi(chi):
        return (4.0 * np.square(chi) / (w2 * w2) - 2.0 / w2) * psi(chi)

    return ChiProfile(psi, dpsi, ddpsi, label or f"w={width:.4g}")


def profile_family(count: int = 10, base: float = 0.45,
                   spread: float = 0.2):
    """Shape-stable family: one Gaussian bell at several widths."""
    widths = base * (1.0 + spread * np.linspace(-1.0, 1.0, count))
    return [gaussian_profile(float(w)) for w in widths]


def shrinking_profile(s: float, base: float = 0.45,
                      s_ref: float = 2.0) -> ChiProfile:
    # concentrating width ~ s^(-1/2); breaks the uniform ratio on purpose
    return gaussian_profile(base * math.sqrt(s_ref / s),
                            label=f"shrink@s={s:.3g}")


def sobolev_ratio_profile(prof: ChiProfile, s: float,
                          cone_margin: float = 0.0,
                          n_quad: int = 4000) -> float:
    """sup t^(3/2)|u| over the truncated slice divided by the summed
    L^2 norms of u and its boosts up to second order, for the radial
    field u = psi(chi) on H_s.

    Works entirely from the angular reduction: L_a u = omega_a psi',
    L_b L_a u = omega_a omega_b A + delta_ab B with
    A = psi'' - coth(chi) psi' and B = coth(chi) psi'.
    """
    c = 1.0 + cone_margin
    if s <= c:
        raise FoliationError(f"slice s={s} inside the cone margin")
    chi_max = math.acosh((s * s + c * c) / (2.0 * c * s))
    # midpoint nodes dodge the coth singularity at the axis
    h = chi_max / n_quad
    chi = (np.arange(n_quad) + 0.5) * h
    ps = prof.psi(chi)
    dp = prof.dpsi(chi)
    ct = 1.0 / np.tanh(chi)
    A = prof.ddpsi(chi) - ct * dp
    B = ct * dp
    sh, ch = np.sinh(chi), np.cosh(chi)
    w = h * sh * sh * ch
    I2 = float(np.sum(ps * ps * w))
    I1 = float(np.sum(dp * dp * w))
    IA = float(np.sum(A * A * w))
    IAB = float(np.sum(A * B * w))
    IB = float(np.sum(B * B * w))
    s3 = s ** 3
    pi = math.pi
    denom = (math.sqrt(4.0 * pi * s3 * I2)
             + 3.0 * math.sqrt(4.0 * pi / 3.0 * s3 * I1)
             + 6.0 * math.sqrt(4.0 * pi / 15.0 * s3 * IA)
             + 3.0 * math.sqrt(s3 * (4.0 * pi / 5.0 * IA
                                     + 8.0 * pi / 3.0 * IAB
                                     + 4.0 * pi * IB)))
    peak = max(float(np.max(ch ** 1.5 * np.abs(ps))),
               float(abs(prof.psi(np.zeros(1))[0])))
    return s ** 1.5 * peak / denom


# === deterministic table output ===

def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def write_csv(path, header, rows):
    """Comma-separated table with LF endings and %.17g floats."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            text = cell if isinstance(cell, str) else format_number(cell)
            if "," in text or "\n" in text:
                raise ValueError(f"cell {text!r} would corrupt the table")
            cells.append(text)
        lines.append(",".join(cells))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def write_json(path, obj):
    with open(path, "w", newline="") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def energy_csv_rows(rows):
    out = []
    for row in rows:
        istr = "t" * row["it"] + "r" * row["ir"]
        out.append((row["field"], istr or "-", row["j"], row["s"],
                    row["value"]))
    return out


def supnorm_csv_rows(rows):
    return [(r["field"], r["p"], r["q"], r["s"], r["value"]) for r in rows]


def hierarchy_csv_rows(lines):
    return [(ln["line"], ln["target"], ln["fitted"], ln["width"],
             ln["pass"]) for ln in lines]
