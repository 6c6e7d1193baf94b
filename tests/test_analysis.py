import math

import numpy as np
import pytest

from hfoil.fields import RadialGrid
from hfoil.analysis import (PROFILE_WIDTH, QueryPool, SliceDerivativeTable,
                            SliceEnergySuite, SupTracker,
                            _apply, chart_nodes, combo_evaluator,
                            combo_expansion, combo_label, design_lowpass,
                            fit_power_law, gaussian_profile,
                            hierarchy_check, hierarchy_combos,
                            hierarchy_target, profile_family,
                            sobolev_ratio_profile)
from hfoil.cli import _BOX_TERMS, emit_series
from hfoil.util import ConfigError
from hfoil.bounds import WaveSourceStack, wave_source
from hfoil.solver import (InitialData, ModelParams, evolve_model,
                          grid_for_run, solve_linear_wave_sourced)
from hfoil.util import FoliationError, SliceCoverageError, lagrange_weights
from slice_reference import (EVEN, BoxGrid, FieldHistory, LevelCopies,
                             RadialSliceChart, full_grid_wave_source,
                             interpolate_to_slice, reference_energies,
                             reference_rows, reference_stage_sups,
                             sample_history, sample_radial_history,
                             sobolev_ratio_history, window_weights)

sympy = pytest.importorskip("sympy")


def stream_levels(pool, fn, t0, dt, steps, grid):
    r = grid.r(0, grid.n)
    for k in range(steps):
        t = t0 + k * dt
        w = fn(t, r)
        pool.on_level(t, k, w, w.copy())


# === chain-rule expansions ===

def test_first_order_expansions():
    # keys (p, q, a, b, k): cosh^a sinh^b s^-k d_s^p d_chi^q
    assert combo_expansion(1, 0, 0) == {(1, 0, 1, 0, 0): 1,
                                        (0, 1, 0, 1, 1): -1}
    assert combo_expansion(0, 1, 0) == {(1, 0, 0, 1, 0): -1,
                                        (0, 1, 1, 0, 1): 1}
    # the radial boost r d_t + t d_r is exactly d_chi on the chart
    assert combo_expansion(0, 0, 1) == {(0, 1, 0, 0, 0): 1}
    assert combo_expansion(0, 0, 0, "chi") == combo_expansion(0, 0, 1)
    assert combo_expansion(0, 0, 0, "t") == combo_expansion(1, 0, 0)
    # an outer d_t is the cached expansion one d_t up, the same object
    # whichever way the arguments are passed
    for it, ir, j in hierarchy_combos(7):
        up = combo_expansion(it + 1, ir, j)
        assert combo_expansion(it, ir, j, "t") is up
        assert combo_expansion(it + 1, ir, j, "") is up
        assert combo_expansion(it, ir, j, outer="t") is up
    with pytest.raises(ValueError):
        combo_expansion(0, 0, 0, "r")


def test_flat_derivatives_commute():
    # integer coefficients, so the two orders agree exactly
    boosted = combo_expansion(0, 0, 2)
    a = _apply(_apply(boosted, "r"), "t")
    b = _apply(_apply(boosted, "t"), "r")
    assert a == b
    assert a == combo_expansion(1, 1, 2)
    assert all(isinstance(c, int) for c in a.values())


def test_expansion_matches_symbolic_derivatives():
    t, r, s, chi = sympy.symbols("t r s chi", positive=True)
    w = sympy.sin(sympy.Rational(37, 100) * t + sympy.Rational(1, 5)) \
        * sympy.exp(-r ** 2 / 3) * (1 + r ** 2 / 10)
    onchart = w.subs({t: s * sympy.cosh(chi), r: s * sympy.sinh(chi)})
    s0, chi0 = sympy.Rational(7, 2), sympy.Rational(3, 5)
    t0 = float(s0 * sympy.cosh(chi0))
    r0 = float(s0 * sympy.sinh(chi0))

    # the chart table by 40-digit numerical differentiation of w on the
    # chart (symbolic d_s^p d_chi^q swell past order 5)
    mpmath = pytest.importorskip("mpmath")
    K = 6
    D = np.zeros((K + 1, K + 1))
    on_chart = sympy.lambdify((s, chi), onchart, "mpmath")
    with mpmath.workdps(40):
        at = (mpmath.mpf(s0.p) / s0.q, mpmath.mpf(chi0.p) / chi0.q)
        for p in range(K + 1):
            for q in range(K + 1 - p):
                D[p, q] = float(mpmath.diff(on_chart, at, (p, q)))

    ch = float(sympy.cosh(chi0))
    sh = float(sympy.sinh(chi0))
    zi = float(1 / s0)
    # the outer derivatives the energy densities use: d_t and L
    outer_ops = {"": lambda e: e,
                 "t": lambda e: sympy.diff(e, t),
                 "chi": lambda e: r * sympy.diff(e, t) + t * sympy.diff(e, r)}
    for (it, ir, j) in [(0, 0, 3), (2, 1, 1), (3, 2, 0), (1, 1, 2),
                        (0, 2, 2), (5, 0, 0)]:
        inner = w
        for _ in range(j):
            inner = r * sympy.diff(inner, t) + t * sympy.diff(inner, r)
        inner = sympy.diff(inner, r, ir, t, it)
        for outer, op in outer_ops.items():
            want = float(op(inner).subs({t: t0, r: r0}).evalf(30))
            got = 0.0
            for (p, q, a, b, k), c in combo_expansion(it, ir, j,
                                                      outer).items():
                got += c * ch ** a * sh ** b * zi ** k * D[p, q]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), outer


def test_hierarchy_combo_count():
    assert len(hierarchy_combos(8)) == 165
    assert len(hierarchy_combos(0)) == 1
    assert combo_label("v", 2, 1, 3) == "v.ttr.L3"
    assert combo_label("u", 0, 0, 0) == "u.-.L0"


def _random_tables(rng, nodes: int, width: int, count: int = 2):
    """count random (nodes, width, width) tables spanning eight decades."""
    shape = (nodes, width, width)
    return [rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
            for _ in range(count)]


# slices and chart nodes: a node on the axis (where order 8 splits its
# larger size groups over several contraction blocks), one node, one
# node on the axis, unordered nodes, and a chart on which the largest
# order-8 expansion alone exceeds a block
_CHARTS = ((3.0, np.linspace(0.0, 1.7, 43)), (7.5, np.array([0.9])),
           (2.2, np.array([0.0])), (12.0, np.array([2.1, 0.4, 1.3, 2.7])),
           (20.0, np.linspace(0.0, 3.0, 160)))


@pytest.mark.parametrize("order", [0, 1, 2, 8])
def test_blocked_contraction_matches_per_combo_reference(order):
    # every combo under each outer, in the suite's row order; the rows
    # must be the per-combo contraction's, bit for bit
    keys = [combo + (outer,) for outer in ("", "t", "chi")
            for combo in hierarchy_combos(order)]
    on_chart = combo_evaluator(keys)
    rng = np.random.default_rng(order)
    for s, chi in _CHARTS:
        tables = _random_tables(rng, chi.size, order + 2)
        got = on_chart(s, chi)(tables)
        assert got.shape == (2, len(keys), chi.size)
        for rows, D in zip(got, tables):
            assert rows.tobytes() == reference_rows(keys, s, chi, D).tobytes()


def test_box_term_contraction_matches_per_combo_reference():
    on_chart = combo_evaluator(_BOX_TERMS)
    rng = np.random.default_rng(5)
    for s, chi in _CHARTS:
        [D] = _random_tables(rng, chi.size, 3, count=1)
        [got] = on_chart(s, chi)([D])
        assert got.tobytes() == reference_rows(_BOX_TERMS, s, chi,
                                               D).tobytes()


# === the query pool ===

def test_pool_exact_on_polynomials():
    grid = RadialGrid(dx=0.05, n=240)

    def fn(t, r):
        return (0.3 + 0.2 * t + 0.01 * t ** 3) * (1 + r ** 2 - 0.05 * r ** 4)

    pool = QueryPool(grid)
    rng = np.random.default_rng(7)
    tq = 3.0 + rng.uniform(0.1, 0.9, 40)
    rq = rng.uniform(0.0, 9.0, 40)
    h = pool.add("u", tq, rq)
    # one-sided window right at the start of the run
    h_edge = pool.add("v", [3.001], [4.0])
    # negative radius folds back with even parity
    h_fold = pool.add("u", [3.5], [-0.12])
    stream_levels(pool, fn, 3.0, 0.03, 60, grid)
    pool.assert_resolved()
    assert pool.result(h) == pytest.approx(fn(tq, rq), rel=1e-11)
    assert pool.result(h_edge)[0] == pytest.approx(fn(3.001, 4.0), rel=1e-10)
    assert pool.result(h_fold)[0] == pytest.approx(fn(3.5, 0.12), rel=1e-11)


def test_pool_unresolved_and_guards():
    grid = RadialGrid(dx=0.05, n=200)
    pool = QueryPool(grid)
    pool.add("u", [9.0], [1.0])
    stream_levels(pool, lambda t, r: r * 0 + t, 3.0, 0.05, 20, grid)
    assert pool.unresolved() == 1
    with pytest.raises(SliceCoverageError) as err:
        pool.assert_resolved()
    assert err.value.needed == pytest.approx(9.0)
    assert err.value.available == pytest.approx(3.95)
    with pytest.raises(FoliationError):
        pool.add("u", [4.0], [1.0])  # already streaming


def test_pool_missing_field_rejected():
    grid = RadialGrid(dx=0.05, n=100)
    pool = QueryPool(grid)
    pool.add("u", [3.2], [1.0])
    pool.on_level(3.0, 0, None, np.zeros(grid.n))
    with pytest.raises(FoliationError):
        pool.on_level(3.05, 1, None, np.zeros(grid.n))


def test_pool_query_leaving_grid_rejected():
    grid = RadialGrid(dx=0.05, n=100)
    for r in (4.9, -6.0):       # past the last column, or its mirror
        pool = QueryPool(grid)
        pool.add("u", [3.2], [r])
        pool.on_level(3.0, 0, np.zeros(grid.n), None)
        with pytest.raises(SliceCoverageError):
            pool.on_level(3.05, 1, np.zeros(grid.n), None)


@pytest.mark.parametrize("t, r", [(math.nan, 1.0), (3.2, math.nan),
                                  (math.inf, 1.0), (3.2, -math.inf)])
def test_pool_non_finite_query_rejected(t, r):
    pool = QueryPool(RadialGrid(dx=0.05, n=100))
    with pytest.raises(ValueError, match="finite"):
        pool.add("u", [3.2, t], [1.0, r])
    assert pool.unresolved() == 0       # nothing was registered


# === grid-noise lowpass ===

def kernel_response(kern: np.ndarray, k) -> np.ndarray:
    """Transfer function of a symmetric kernel at wavenumber k (rad per
    sample)."""
    M = (len(kern) - 1) // 2
    j = np.arange(-M, M + 1)
    return np.cos(np.multiply.outer(np.asarray(k, dtype=float), j)) @ kern


def test_lowpass_kernel_properties():
    kern = design_lowpass()
    assert len(kern) == 41
    assert kern == pytest.approx(kern[::-1])
    assert kern.sum() == pytest.approx(1.0, abs=1e-12)
    j = np.arange(-20, 21, dtype=float)
    for p in (2, 4, 6, 8):
        assert abs((kern * j ** p).sum()) < 1e-9
    ks = np.linspace(1.4, math.pi, 300)
    assert np.abs(kernel_response(kern, ks)).max() < 1e-6
    assert kernel_response(kern, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_pool_filter_polynomial_exact():
    grid = RadialGrid(dx=0.05, n=240)

    def fn(t, r):
        return (1.0 + 0.5 * t) * (1.0 - 0.03 * r ** 2) + 0.001 * r ** 4

    pool = QueryPool(grid, level_filter=True)
    h = pool.add("u", [3.4, 3.77], [0.03, 6.0])   # origin fold + interior
    stream_levels(pool, fn, 3.0, 0.03, 60, grid)
    want = np.array([fn(3.4, 0.03), fn(3.77, 6.0)])
    assert pool.result(h) == pytest.approx(want, rel=1e-10)


def test_pool_filter_rejects_grid_ripple():
    grid = RadialGrid(dx=0.05, n=240)

    def smooth(t, r):
        return np.sin(0.6 * t) * np.exp(-r ** 2 / 9.0)

    def noisy(t, r):
        ripple = 5e-3 * np.cos(1.8 * r / grid.dx) * np.cos(41.0 * t + 0.3)
        return smooth(t, r) + ripple

    tq = np.array([3.4, 3.6, 3.83])
    rq = np.array([1.0, 2.37, 4.1])
    raw = QueryPool(grid)
    h_raw = raw.add("u", tq, rq)
    stream_levels(raw, noisy, 3.0, 0.03, 60, grid)
    filt = QueryPool(grid, level_filter=True)
    h_f = filt.add("u", tq, rq)
    stream_levels(filt, noisy, 3.0, 0.03, 60, grid)
    err_raw = np.abs(raw.result(h_raw) - smooth(tq, rq)).max()
    err_f = np.abs(filt.result(h_f) - smooth(tq, rq)).max()
    assert err_raw > 5e-4
    assert err_f < 1e-6


def reference_pool_values(levels, t0, dt, dx, tq, rq, npts, kernel):
    """The pool's formula, one query at a time, over the full list of
    streamed levels: npts x npts Lagrange weights (window one-sided at
    the first levels), radial weights convolved with the lowpass
    kernel, columns below r = 0 folded evenly."""
    lead = npts // 2 - 1
    window = tuple(range(-lead, npts - lead))
    M = 0 if kernel is None else (len(kernel) - 1) // 2
    out = np.full(len(tq), np.nan)
    for q, (t, r) in enumerate(zip(tq, rq)):
        t_idx = max((t - t0) / dt, 0.0)
        base = max(int(math.floor(t_idx)) - lead, 0)
        if base + npts > len(levels):
            continue
        j0 = int(math.floor(r / dx)) - lead
        Wt = window_weights(np.array([t_idx - (base + lead)]), window)[0]
        Wr = window_weights(np.array([r / dx - (j0 + lead)]), window)[0]
        if M:
            Wr = np.convolve(Wr, kernel)
        cols = j0 - M + np.arange(npts + 2 * M)
        A = np.stack([levels[base + i][np.abs(cols)] for i in range(npts)])
        out[q] = Wt @ (A @ Wr)
    return out


class FoldPool(QueryPool):
    """The pool with its former window read: every streamed level kept
    whole, each window gathered cell by cell with np.abs(cols) folding
    the columns below r = 0, then the same weights and contractions."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.levels = {}

    def on_level(self, t, step, u, v):
        self.levels[step] = {"u": None if u is None else u.copy(),
                             "v": None if v is None else v.copy()}
        super().on_level(t, step, u, v)

    def _eval(self, field, plan, lo, hi):
        npts, M = self.npts, self.halo
        width = npts + 2 * M
        Wt = lagrange_weights(plan["frac_t"][lo:hi])
        Wr = lagrange_weights(plan["frac_r"][lo:hi])
        if M:
            Wr = Wr @ self._shift
        cols = plan["col0"][lo:hi, None] + np.arange(width)
        rows = plan["base"][lo:hi, None] + np.arange(npts)
        hist = np.stack([self.levels[k][field]
                         for k in range(rows.max() + 1)])
        G = hist[rows[:, :, None], np.abs(cols)[:, None, :]]
        self.results[field][plan["order"][lo:hi]] = np.einsum(
            "bi,bi->b", np.einsum("bij,bj->bi", G, Wr), Wt)


@pytest.mark.parametrize("level_filter", [False, True])
def test_pool_window_read_matches_fold_gather(level_filter):
    # the strided read of the mirror-padded ring gives the fold gather's
    # answers byte for byte: windows reaching ~40 cells across the axis,
    # one-sided windows at the first levels, a window ending on the
    # grid's last column
    grid = RadialGrid(dx=0.05, n=240)
    t0, dt, steps = 3.0, 0.03, 57
    npts, lead = QueryPool.npts, QueryPool.npts // 2 - 1
    M = (len(design_lowpass()) - 1) // 2 if level_filter else 0

    def fn(t, r):
        smooth = np.sin(0.6 * t + 0.2) * np.exp(-r ** 2 / 9.0)
        ripple = 5e-3 * np.cos(1.8 * r / grid.dx) * np.cos(41.0 * t + 0.3)
        return smooth + ripple

    r_edge = (grid.n - npts - M + lead + 0.5) * grid.dx
    assert math.floor(r_edge / grid.dx) - lead + npts - 1 + M == grid.n - 1
    rng = np.random.default_rng(19)
    t_last = t0 + (steps - 1) * dt
    tq = np.concatenate([rng.uniform(t0, t_last - npts * dt, 300),
                         [t0, t0, t0 + 0.3 * dt, t0 + 2.5 * dt, 3.9]])
    rq = np.concatenate([rng.uniform(-2.0, 9.0, 300),
                         [-2.0, 0.0, -1.3, 0.7, r_edge]])
    tv, rv = rng.uniform(t0, t_last - npts * dt, 50), rng.uniform(0, 9, 50)
    pool = QueryPool(grid, level_filter=level_filter)
    fold = FoldPool(grid, level_filter=level_filter)
    hu = [p.add("u", tq, rq) for p in (pool, fold)]
    hv = [p.add("v", tv, rv) for p in (pool, fold)]
    for p in (pool, fold):
        stream_levels(p, fn, t0, dt, steps, grid)
    for got, want in ((pool.result(hu[0]), fold.result(hu[1])),
                      (pool.result(hv[0]), fold.result(hv[1]))):
        assert not np.isnan(got).any()
        assert got.tobytes() == want.tobytes()


# the ids read parity-level_filter-npts: the pool's fields are even
# (parity 1) and its windows 10 wide
@pytest.mark.parametrize("level_filter", [None, True],
                         ids=["1-None-10", "1-True-10"])
def test_pool_matches_per_query_reference(level_filter):
    grid = RadialGrid(dx=0.05, n=240)
    t0, dt, steps = 3.0, 0.03, 57      # last level is off the flush cadence
    npts = QueryPool.npts

    def fn(t, r):
        smooth = np.sin(0.6 * t + 0.2) * np.exp(-r ** 2 / 9.0)
        ripple = 5e-3 * np.cos(1.8 * r / grid.dx) * np.cos(41.0 * t + 0.3)
        return smooth + ripple

    rng = np.random.default_rng(npts)
    t_last = t0 + (steps - 1) * dt
    lead = npts // 2 - 1
    # targets spread over the whole run, level-0 queries, queries whose
    # target is the final level (answered by the flush on read), points
    # folding through the origin, and one point the run never covers
    tq = np.concatenate([rng.uniform(t0, t_last - (npts - lead) * dt, 300),
                         [t0, t0, t0 + 0.4 * dt],
                         t_last - (npts - lead - 1) * dt
                         + rng.uniform(0.05, 0.95, 4) * dt,
                         [3.4, 3.7], [t_last + dt]])
    rq = np.concatenate([rng.uniform(0.0, 9.0, 300), [0.0, 4.3, 7.7],
                         rng.uniform(0.0, 9.0, 4), [-0.12, 0.37], [2.0]])
    pool = QueryPool(grid, level_filter=level_filter)
    h = pool.add("u", tq[:150], rq[:150])
    h2 = pool.add("u", tq[150:], rq[150:])
    levels = []
    r = grid.r(0, grid.n)
    for k in range(steps):
        levels.append(fn(t0 + k * dt, r))
        pool.on_level(t0 + k * dt, k, levels[-1], None)
        if k == steps // 2:
            pool.unresolved()           # a read mid-run flushes early
    with pytest.raises(FoliationError):
        pool.add("u", [4.0], [1.0])     # already streaming
    got = np.concatenate([pool.result(h), pool.result(h2)])
    kernel = pool.kernel if level_filter else None
    want = reference_pool_values(levels, t0, dt, grid.dx, tq, rq, npts,
                                 kernel)
    assert np.isnan(got[-1]) and np.isnan(want[-1])
    assert pool.unresolved() == 1
    with pytest.raises(SliceCoverageError):
        pool.assert_resolved()
    scale = np.abs(want[:-1]).max()
    assert np.abs(got[:-1] - want[:-1]).max() <= 1e-12 * scale


def _pool_queries(kind, t0, t_end, rng):
    """(t, r) query sets of the pool-skipping tests."""
    if kind == "sparse":
        # a lattice of few t values, many radii each (the wave lattice)
        t = np.repeat([3.1, 5.537, 5.55, 9.0], 30)
        return t, rng.uniform(0.0, 9.0, t.size)
    if kind == "dense":
        return (rng.uniform(t0, t_end - 0.2, 300),
                rng.uniform(0.0, 9.0, 300))
    # at and next to the first level: one-sided windows
    return (np.array([t0, t0, t0 + 0.01, t0 + 0.2]),
            np.array([0.0, 4.3, -0.12, 7.7]))


class _CountedPool(QueryPool):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.steps = []

    def on_level(self, t, step, u, v):
        self.steps.append(step)
        super().on_level(t, step, u, v)


@pytest.mark.parametrize("level_filter", [False, True])
@pytest.mark.parametrize("kind", ["sparse", "dense", "t0"])
def test_pool_skipping_levels_answers_bit_for_bit(kind, level_filter):
    # a pool streamed through the solver takes only the levels it wants;
    # a pool shown every level (copies of the same run) must give the
    # same answers, byte for byte
    g = grid_for_run(0.05, 2.0, 12.0)
    tq, rq = _pool_queries(kind, 2.0, 12.0, np.random.default_rng(5))
    lean = _CountedPool(g, level_filter=level_filter)
    full = QueryPool(g, level_filter=level_filter)
    h = [pool.add("u", tq, rq) for pool in (lean, full)]
    copies = LevelCopies()
    # the free model from bump data, so the one-sided windows at t0 read
    # a field of order one
    res = evolve_model(ModelParams.free(), g, InitialData.bump(0.1, 0.0),
                       t0=2.0, t_end=12.0, observers=[lean, copies],
                       sources=(full_grid_wave_source(0.5, 0.5), None))
    for k, (t, u, _) in enumerate(copies.levels):
        full.on_level(t, k, u, None)
    got = lean.result(h[0])
    assert got.tobytes() == full.result(h[1]).tobytes()
    want = reference_pool_values([u for _, u, _ in copies.levels], 2.0,
                                 res.dt, g.dx, tq, rq, lean.npts,
                                 lean.kernel)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert lean.unresolved() == full.unresolved() == 0
    assert lean.last_t == full.last_t == res.t_final
    assert lean.steps[:2] == [0, 1] and lean.steps[-1] == res.steps
    if kind == "sparse":
        assert len(lean.steps) < len(copies.levels) // 4
        # every level the pool is shown is a start level, lies in a query
        # window, is a flush step that answers a query, or is the last
        npts, lead = lean.npts, lean.npts // 2 - 1
        dt = (2.0 + res.dt) - 2.0       # the pool's dt: t_1 - t_0
        T = np.maximum(np.floor((tq - 2.0) / dt).astype(int) - lead,
                       0) + npts - 1
        # the pool is shown exactly the start levels, the levels in a
        # query window, the flush steps that answer a query, and the last
        want = []
        for k in range(res.steps + 1):
            in_window = ((T - npts < k) & (k <= T)).any()
            answers = (k + 1) % npts == 0 and (
                (k - npts < T) & (T <= k)).any()
            if k < 2 or in_window or answers or k == res.steps:
                want.append(k)
        assert lean.steps == want


def test_pool_skipping_levels_reports_the_last_level():
    # the run's last level is off the flush cadence and in no window, yet
    # the pool is shown it, so a coverage error names the run's end
    g = grid_for_run(0.05, 2.0, 3.0)
    pool = _CountedPool(g)
    pool.add("u", [2.3, 9.0], [1.0, 1.0])
    res = solve_linear_wave_sourced(
        g, WaveSourceStack([wave_source(0.5, 0.5)]), t0=2.0, t_end=3.0,
        observers=[(pool,)])
    assert (res.steps + 1) % pool.npts and \
        pool.next_level(res.steps) > res.steps
    assert pool.steps[-1] == res.steps and len(pool.steps) < res.steps
    assert pool.unresolved() == 1
    with pytest.raises(SliceCoverageError) as err:
        pool.assert_resolved()
    assert err.value.needed == 9.0
    assert err.value.available == res.t_final


# === derivative tables on a slice ===

def test_table_matches_symbolic_derivatives():
    t, r, s, chi = sympy.symbols("t r s chi", positive=True)
    w = sympy.cos(sympy.Rational(2, 5) * t + sympy.Rational(3, 10)) \
        * sympy.exp(-r ** 2 / 8)
    onchart = w.subs({t: s * sympy.cosh(chi), r: s * sympy.sinh(chi)})
    wfn = sympy.lambdify((t, r), w, "numpy")

    grid = RadialGrid(dx=0.04, n=220)
    pool = QueryPool(grid)
    s0 = 3.0
    chi_nodes = np.array([0.0, 0.21, 0.55])
    K = 4
    tab = SliceDerivativeTable(pool, "u", s0, chi_nodes, K,
                               h_s=0.06, h_chi=0.05, s_floor=2.6)
    for k in range(140):
        tl = 2.6 + k * 0.02
        arr = wfn(tl, grid.r(0, grid.n))
        pool.on_level(tl, k, arr, None)
    D = tab.tables()

    for i, c0 in enumerate(chi_nodes):
        for p in range(K + 1):
            for q in range(K + 1 - p):
                want = float(sympy.diff(onchart, s, p, chi, q).subs(
                    {s: s0, chi: sympy.Float(c0)}).evalf(25))
                if p + q <= 1:
                    assert D[i, p, q] == pytest.approx(want, rel=1e-5,
                                                       abs=1e-6)
                else:
                    assert D[i, p, q] == pytest.approx(want, rel=2e-2,
                                                       abs=2e-2)


def test_value_probe_and_chart_nodes():
    grid = RadialGrid(dx=0.05, n=300)
    pool = QueryPool(grid)
    chi, chi_max = chart_nodes(4.0, 0.1, 0.05)
    t, r = 4.0 * np.cosh(chi), 4.0 * np.sinh(chi)
    handle = pool.add("u", t, r)

    def fn(t, r):
        # even in r, low degree: interpolation exact under the origin fold
        return t * (1.0 + r * r / 10.0)

    stream_levels(pool, fn, 3.8, 0.02, 300, grid)
    vals = pool.result(handle)
    assert vals == pytest.approx(t * (1.0 + r ** 2 / 10.0), rel=1e-11)
    # wall node sits where t - r equals the margin offset 1 + m
    assert t[-1] - r[-1] == pytest.approx(1.1, rel=1e-9)
    assert chi[-1] == pytest.approx(chi_max)
    assert math.cosh(chi_max) * 4.0 == pytest.approx(
        (16.0 + 1.1 ** 2) / 2.2)


# === energies, dual route ===

def _dual_route_field(t, r):
    # smooth, even in r, O(1) scales, decayed well before the grid edge;
    # kept slow in t so chi stencils resolve the induced phase at the wall
    return (np.sin(0.35 * t + 0.1) * np.exp(-r ** 2 / 5.0)
            * (1.0 + 0.1 * r ** 2)
            + 0.3 * np.cos(0.2 * t) * np.exp(-r ** 2 / 3.0))


def test_suite_energy_matches_slice_sample_route():
    grid = RadialGrid(dx=0.04, n=400)
    s0 = 4.0
    suite = SliceEnergySuite(grid, [s0], order=0, mass=1.0, t_floor=2.0,
                             chi_step=0.01)
    times = 3.5 + 0.02 * np.arange(300)
    stream_levels(suite.pool, _dual_route_field, 3.5, 0.02, 300, grid)
    got = {row["field"]: row["value"] for row in suite.energies()}

    hist = sample_radial_history(_dual_route_field, grid, times)
    chart = RadialSliceChart(s=s0, chi=suite._charts[s0],
                             cone_margin=2 * grid.dx)
    smp = interpolate_to_slice(hist, s0, chart=chart)
    for field, mass in (("u", 0.0), ("v", 1.0)):
        want = float(np.sum(smp.energy_density(mass) * chart.quad_weights()))
        assert got[field] == pytest.approx(want, rel=5e-4)
        assert got[field] > 0


def test_suite_energy_solver_route_close():
    # real runs carry undamped grid ripple whose time derivative the two
    # routes sample differently, so this is a coarse consistency check
    dx = 0.04
    grid = grid_for_run(dx, 2.0, 11.0)
    data = InitialData.bump(0.5, 0.4)
    s0 = 4.0
    suite = SliceEnergySuite(grid, [s0], order=0, mass=1.0, t_floor=2.0,
                             chi_step=0.01)
    levels = LevelCopies()
    evolve_model(ModelParams.free(), grid, data, t0=2.0, t_end=11.0,
                 observers=(suite, levels))
    got = {row["field"]: row["value"] for row in suite.energies()}
    kept = [lv for lv in levels.levels if 3.5 - 1e-12 <= lv[0] <= 9.2 + 1e-12]
    times = [lv[0] for lv in kept]
    for field, i, mass in (("u", 1, 0.0), ("v", 2, 1.0)):
        hist = FieldHistory(np.stack([lv[i] for lv in kept]), times, grid,
                            parity=EVEN)
        smp = interpolate_to_slice(hist, s0)
        want = float(np.sum(smp.energy_density(mass)
                            * smp.chart.quad_weights()))
        assert got[field] == pytest.approx(want, rel=0.15)
        assert got[field] > 0


def test_suite_plan_covers_run():
    # coarse time steps: a pool window reads 5 levels past its query,
    # 0.375 at (0.15, 0.5) and 0.45 at (0.1, 0.9)
    for dx, cfl in ((0.1, 0.5), (0.15, 0.5), (0.1, 0.9)):
        suite, grid, t_end = SliceEnergySuite.plan(dx, [3.0, 4.0], order=1,
                                                   t0=2.0, cfl=cfl)
        assert t_end > suite.t_max
        data = InitialData.bump(0.3, 0.3)
        evolve_model(ModelParams.free(), grid, data, t0=2.0, t_end=t_end,
                     cfl=cfl, observers=(suite,))
        rows = suite.energies()
        assert len(rows) == 2 * 2 * len(hierarchy_combos(1))
        for row in rows:
            assert math.isfinite(row["value"]) and row["value"] >= 0


def test_suite_plan_runs_until_t_min():
    _, _, t_reach = SliceEnergySuite.plan(0.1, [3.0, 4.0], order=1)
    for t_min, t_want in ((t_reach - 1.0, t_reach), (t_reach + 5.0,
                                                     t_reach + 5.0)):
        _, grid, t_end = SliceEnergySuite.plan(0.1, [3.0, 4.0], order=1,
                                               pad_cells=10, t_min=t_min)
        assert t_end == t_want
        assert grid == grid_for_run(0.1, 2.0, t_want, pad_cells=10)


def test_suite_stage_sups_smoke():
    suite, grid, t_end = SliceEnergySuite.plan(0.1, [3.0, 4.5], order=4,
                                               t0=2.0)
    data = InitialData.bump(0.01, 0.01)
    evolve_model(ModelParams(), grid, data, t0=2.0, t_end=t_end,
                 observers=(suite,))
    rows = suite.stage_sups(delta=0.02)
    labels = {row["field"] for row in rows}
    assert labels == {"u:low", "v:low", "u:high", "v:high"}
    assert all(math.isfinite(row["value"]) for row in rows)
    assert all(row["value"] > 0 for row in rows if row["field"] == "v:high")


def test_suite_matches_the_per_combo_route_bit_for_bit():
    order, delta = 4, 0.02
    suite, grid, t_end = SliceEnergySuite.plan(0.1, [3.0, 4.5], order=order,
                                               t0=2.0)
    evolve_model(ModelParams(), grid, InitialData.bump(0.01, 0.01), t0=2.0,
                 t_end=t_end, observers=(suite,))
    for got, want in ((suite.energies(), reference_energies(suite)),
                      (suite.stage_sups(delta),
                       reference_stage_sups(suite, delta))):
        assert got == want
        assert np.array([row["value"] for row in got]).tobytes() == \
            np.array([row["value"] for row in want]).tobytes()
    # the suite keeps only the bare rows, one owned (combos, nodes)
    # array per field and slice
    assert sorted(suite._values) == sorted(
        (field, s) for field in suite.fields for s in suite.s_values)
    for (_, s), W in suite._values.items():
        assert W.shape == (len(hierarchy_combos(order)), suite._charts[s].size)
        assert W.flags.c_contiguous and W.base is None


def test_suite_unresolved_slice_raises():
    grid = grid_for_run(0.1, 2.0, 4.0)
    suite = SliceEnergySuite(grid, [3.5], order=0, t_floor=2.0)
    data = InitialData.bump(0.3, 0.3)
    evolve_model(ModelParams.free(), grid, data, t0=2.0, t_end=4.0,
                 observers=(suite,))
    with pytest.raises(SliceCoverageError):
        suite.energies()


# === fits and the hierarchy report ===

def test_fit_power_law_recovers_exponent():
    s = np.geomspace(2.0, 40.0, 14)
    fit = fit_power_law(s, 3.0 * s ** -1.5, tail=None)
    assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
    assert fit.rms < 1e-13

    fit = fit_power_law(s, 2.0 * s ** 0.25, tail=4.0, min_points=5,
                        min_span=3.5)
    assert fit.exponent == pytest.approx(0.25, abs=1e-12)
    assert fit.span >= 3.9

    with pytest.raises(FoliationError):
        fit_power_law([1, 2, 3], [1, 2, 3])
    with pytest.raises(FoliationError):
        fit_power_law(np.linspace(10, 12, 20), np.ones(20))


def test_hierarchy_targets_and_check():
    assert hierarchy_target("u", 2, 0.02, 8) == 0.0
    assert hierarchy_target("u", 7, 0.02, 8) == pytest.approx(0.14)
    assert hierarchy_target("v", 3, 0.02, 8) == pytest.approx(0.06)
    assert hierarchy_target("v", 8, 0.02, 8) == pytest.approx(0.66)

    s_vals = np.geomspace(5.0, 50.0, 9)
    rows = []
    for s in s_vals:
        rows.append({"field": "u", "it": 0, "ir": 0, "j": 0, "s": float(s),
                     "value": float(2.0 * s ** 0.04)})   # exponent 0.02
        rows.append({"field": "v", "it": 5, "ir": 0, "j": 0, "s": float(s),
                     "value": float(s ** 2.0)})          # exponent 1.0 > 0.65
    lines = hierarchy_check(rows, delta=0.02, order=8)
    by = {ln["line"]: ln for ln in lines}
    assert by["u.-.L0"]["pass"] and by["u.-.L0"]["fitted"] < 0.05
    assert not by["v.ttttt.L0"]["pass"]
    assert by["v.ttttt.L0"]["target"] == pytest.approx(0.6)


# === decay tracker ===

def test_sup_tracker_records_running_sup():
    grid = RadialGrid(dx=0.1, n=50)
    trk = SupTracker("v")
    r = grid.r(0, grid.n)
    for k, t in enumerate([2.0, 2.1, 2.2, 2.3]):
        v = np.exp(-(r - t / 2) ** 2) / t
        trk.on_level(t, k, None, v)
    ts, sups = trk.series()
    assert list(ts) == [2.0, 2.1, 2.2, 2.3]
    assert sups == pytest.approx([1.0 / t for t in ts], rel=1e-2)


def test_sup_tracker_is_the_raw_max_of_every_level():
    grid = grid_for_run(0.05, 2.0, 6.0, support_radius=1.0)
    trackers = [SupTracker(f) for f in ("u", "v")]
    copies = LevelCopies()
    evolve_model(ModelParams(), grid, InitialData.bump(0.05, 0.05),
                 t0=2.0, t_end=6.0, observers=[*trackers, copies])
    assert len(copies.levels) > 50
    for col, trk in enumerate(trackers, start=1):
        ts, sups = trk.series()
        assert ts.tolist() == [float(lv[0]) for lv in copies.levels]
        want = [np.abs(lv[col]).max() for lv in copies.levels]
        assert sups.tobytes() == np.array(want).tobytes()
        assert sups[-1] == want[-1] > 0.0


def test_sup_tracker_propagates_non_finite_and_rejects_a_missing_field():
    w = np.sin(np.arange(300) * 0.05)
    for bad in (math.nan, math.inf, -math.inf):
        trk = SupTracker("u")
        level = w.copy()
        level[150] = bad
        trk.on_level(0.0, 0, level, None)
        assert np.array_equal(trk.sup, [abs(bad)], equal_nan=True)
    trk = SupTracker("u")
    trk.on_level(0.0, 0, np.zeros(300), None)
    assert trk.sup == [0.0]
    with pytest.raises(FoliationError):
        SupTracker("v").on_level(0.0, 0, w, None)


# === Sobolev ratios ===

def test_sobolev_profile_matches_history_route():
    width = 0.3
    prof = gaussian_profile(width)
    s0 = 2.2
    dx = 0.1
    grid = BoxGrid(dx=dx, half=2.0)
    m = 2 * dx

    def fn(t, x1, x2, x3):
        rr = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        tt = np.maximum(t, 1e-12)
        chi = np.arctanh(np.minimum(rr / tt, 0.999999))
        return prof.psi(chi)

    times = 2.02 + 0.02 * np.arange(46)
    h = sample_history(fn, grid, times)
    got = sobolev_ratio_history(h, s0, cone_margin=m)
    want = sobolev_ratio_profile(prof, s0, cone_margin=m)
    # routes converge at 2nd order: rel err 3.2e-2 at dx=0.1, 7.9e-3 at 0.05
    assert got == pytest.approx(want, rel=5e-2)


def shrinking_profile(s: float, base: float = PROFILE_WIDTH,
                      s_ref: float = 2.0):
    # concentrating width ~ s^(-1/2); breaks the uniform ratio on purpose
    return gaussian_profile(base * math.sqrt(s_ref / s))


def test_sobolev_family_uniform_but_shrinking_fails():
    fam = profile_family()
    assert len(fam) == 10
    s_vals = np.geomspace(2.0, 20.0, 8)
    ratios = [sobolev_ratio_profile(p, s) for p in fam for s in s_vals]
    assert max(ratios) / min(ratios) < 1.5

    shrink = [sobolev_ratio_profile(shrinking_profile(s), s) for s in s_vals]
    worst = max(shrink) / min(shrink)
    assert worst > 1.5


# === output formats ===

def test_csv_writer_golden(tmp_path):
    path = tmp_path / "table.csv"
    emit_series([("u", "ttr", 2, 5.0, 0.125), ("v", "-", 0, 12.5, 1e-17)],
                "energy/v1", path)
    assert path.read_bytes() == (b"field,deriv,j,s,value\n"
                                 b"u,ttr,2,5,0.125\n"
                                 b"v,-,0,12.5,1.0000000000000001e-17\n")
    emit_series([("u.t.L0", 0.0, 0.01, 0.001, True),
                 ("v.t.L1", 0.5, np.float64(0.25), 0.0, np.bool_(False))],
                "hierarchy/v1", path)
    assert path.read_bytes() == (b"line,target,fitted,width,pass\n"
                                 b"u.t.L0,0,0.01,0.001,1\n"
                                 b"v.t.L1,0.5,0.25,0,0\n")
    for cell in ("x,y", "x\ny"):
        with pytest.raises(ConfigError):
            emit_series([(cell, 0.0)], "series/v1", tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()
