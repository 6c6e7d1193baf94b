import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfoil.fields import EVEN, ODD, BoxGrid, RadialGrid, sample_history
from hfoil.analysis import (QueryPool, SliceDerivativeTable,
                            SliceEnergySuite, SupTracker,
                            _apply, chart_nodes, combo_expansion,
                            combo_label, design_lowpass, energy_csv_rows,
                            filter_level, fit_power_law, gaussian_profile,
                            hierarchy_check, hierarchy_combos,
                            hierarchy_csv_rows, hierarchy_target,
                            kernel_response, profile_family,
                            shrinking_profile, sobolev_ratio_profile,
                            write_csv)
from hfoil.solver import (InitialData, ModelParams, evolve_model,
                          grid_for_run)
from hfoil.util import FoliationError, SliceCoverageError, lagrange_weights
from slice_reference import (RadialSliceChart, interpolate_to_slice,
                             sobolev_ratio_history)

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


def test_pool_odd_parity_fold():
    grid = RadialGrid(dx=0.05, n=200)

    def fn(t, r):
        return r * (1.0 + 0.1 * t) + 0.2 * r ** 3

    pool = QueryPool(grid, parity={"u": ODD})
    h = pool.add("u", [4.0], [-0.31])
    stream_levels(pool, fn, 3.5, 0.05, 30, grid)
    assert pool.result(h)[0] == pytest.approx(-fn(4.0, 0.31), rel=1e-11)


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
    pool = QueryPool(grid)
    pool.add("u", [3.2], [4.9])
    pool.on_level(3.0, 0, np.zeros(grid.n), None)
    with pytest.raises(SliceCoverageError):
        pool.on_level(3.05, 1, np.zeros(grid.n), None)


# === grid-noise lowpass ===

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


def test_filter_level_polynomial_and_parity():
    kern = design_lowpass()
    x = np.arange(300) * 0.1
    vals = 2.0 - 0.4 * x ** 2 + 0.003 * x ** 4
    out = filter_level(vals, kern)
    # interior nodes exact (even fold at the origin, zero pad far out)
    assert out[:250] == pytest.approx(vals[:250], rel=1e-11, abs=1e-9)
    odd_vals = x - 0.01 * x ** 3
    out_odd = filter_level(odd_vals, kern, ODD)
    assert out_odd[:250] == pytest.approx(odd_vals[:250], rel=1e-9, abs=1e-9)


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


def reference_pool_values(levels, t0, dt, dx, tq, rq, npts, kernel,
                          parity):
    """The pool's formula, one query at a time, over the full list of
    streamed levels: npts x npts Lagrange weights (window one-sided at
    the first levels), radial weights convolved with the lowpass
    kernel, columns below r = 0 folded with the parity."""
    lead = npts // 2 - 1
    M = 0 if kernel is None else (len(kernel) - 1) // 2
    out = np.full(len(tq), np.nan)
    for q, (t, r) in enumerate(zip(tq, rq)):
        t_idx = max((t - t0) / dt, 0.0)
        base = max(int(math.floor(t_idx)) - lead, 0)
        if base + npts > len(levels):
            continue
        j0 = int(math.floor(r / dx)) - lead
        Wt = lagrange_weights(np.array([t_idx - (base + lead)]), npts)[0]
        Wr = lagrange_weights(np.array([r / dx - (j0 + lead)]), npts)[0]
        if M:
            Wr = np.convolve(Wr, kernel)
        cols = j0 - M + np.arange(npts + 2 * M)
        Wr = Wr * np.where(cols < 0, float(parity), 1.0)
        A = np.stack([levels[base + i][np.abs(cols)] for i in range(npts)])
        out[q] = Wt @ (A @ Wr)
    return out


@pytest.mark.parametrize("npts", [6, 10])
@pytest.mark.parametrize("level_filter", [None, True])
@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_pool_matches_per_query_reference(npts, level_filter, parity):
    grid = RadialGrid(dx=0.05, n=240)
    t0, dt, steps = 3.0, 0.03, 57      # last level is off the flush cadence

    def fn(t, r):
        smooth = (np.sin(0.6 * t + 0.2) * np.exp(-r ** 2 / 9.0)
                  * (r if parity == ODD else 1.0))
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
    pool = QueryPool(grid, parity={"u": parity}, npts=npts,
                     level_filter=level_filter)
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
                                 kernel, parity)
    assert np.isnan(got[-1]) and np.isnan(want[-1])
    assert pool.unresolved() == 1
    with pytest.raises(SliceCoverageError):
        pool.assert_resolved()
    scale = np.abs(want[:-1]).max()
    assert np.abs(got[:-1] - want[:-1]).max() <= 1e-12 * scale


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

    hist = sample_history(_dual_route_field, grid, times)
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
    res = evolve_model(ModelParams.free(), grid, data, t0=2.0, t_end=11.0,
                       observers=(suite,), record=(3.5, 9.2, 1))
    got = {row["field"]: row["value"] for row in suite.energies()}
    for field, hist, mass in (("u", res.u_hist, 0.0), ("v", res.v_hist, 1.0)):
        smp = interpolate_to_slice(hist, s0)
        want = float(np.sum(smp.energy_density(mass)
                            * smp.chart.quad_weights()))
        assert got[field] == pytest.approx(want, rel=0.15)
        assert got[field] > 0


def test_suite_plan_covers_run():
    suite, grid, t_end = SliceEnergySuite.plan(0.1, [3.0, 4.0], order=1,
                                               t0=2.0)
    assert t_end > suite.t_max
    data = InitialData.bump(0.3, 0.3)
    evolve_model(ModelParams.free(), grid, data, t0=2.0, t_end=t_end,
                 observers=(suite,))
    rows = suite.energies()
    assert len(rows) == 2 * 2 * len(hierarchy_combos(1))
    for row in rows:
        assert math.isfinite(row["value"]) and row["value"] >= 0


def test_suite_stage_sups_smoke():
    suite, grid, t_end = SliceEnergySuite.plan(0.1, [3.0, 4.5], order=4,
                                               t0=2.0)
    data = InitialData.bump(0.01, 0.01)
    evolve_model(ModelParams.isotropic(), grid, data, t0=2.0, t_end=t_end,
                 observers=(suite,))
    rows = suite.stage_sups(delta=0.02)
    labels = {row["field"] for row in rows}
    assert labels == {"u:low", "v:low", "u:high", "v:high"}
    assert all(math.isfinite(row["value"]) for row in rows)
    assert all(row["value"] > 0 for row in rows if row["field"] == "v:high")


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
    trk = SupTracker(field="v", stride=2, grid=grid)
    r = grid.r(0, grid.n)
    for k, t in enumerate([2.0, 2.1, 2.2, 2.3]):
        v = np.exp(-(r - t / 2) ** 2) / t
        trk.on_level(t, k, None, v)
    ts, sups = trk.series()
    assert list(ts) == [2.0, 2.2]
    assert sups[0] == pytest.approx(1.0 / 2.0, rel=1e-2)
    assert trk.r_at[0] == pytest.approx(1.0, abs=grid.dx)


def test_sup_tracker_filter_sees_through_ripple():
    grid = RadialGrid(dx=0.05, n=400)
    r = grid.r(0, grid.n)
    smooth = 1e-4 * np.exp(-(r - 4.0) ** 2)
    ripple = 3e-3 * np.cos(1.8 * r / grid.dx) * np.exp(-(r - 1.0) ** 2)
    raw = SupTracker(field="u", grid=grid)
    filt = SupTracker(field="u", grid=grid, level_filter=True)
    for trk in (raw, filt):
        trk.on_level(2.0, 0, smooth + ripple, None)
    assert raw.sup[0] == pytest.approx(3e-3, rel=0.2)      # ripple wins
    assert filt.sup[0] == pytest.approx(1e-4, rel=1e-3)    # signal wins
    assert filt.r_at[0] == pytest.approx(4.0, abs=grid.dx)


# --- bounded filtered sup against the whole-level route ---

def _full_route_sup(w):
    """The filtered sup by the plain route: filter the whole level
    (even fold at the origin, zero pad past the edge), then take the
    first argmax of |.|."""
    kern = design_lowpass()
    M = (len(kern) - 1) // 2
    ext = np.concatenate([w[M:0:-1], w, np.zeros(M)])
    out = np.abs(np.convolve(ext, kern, mode="valid"))
    i = int(np.argmax(out))
    return i, float(out[i])


class _FullRouteTracker:
    def __init__(self, field, grid):
        self.field, self.grid = field, grid
        self.t, self.sup, self.r_at = [], [], []

    def on_level(self, t, step, u, v):
        i, sup = _full_route_sup(u if self.field == "u" else v)
        self.t.append(float(t))
        self.sup.append(sup)
        self.r_at.append(i * self.grid.dx)


def _assert_matches_full_route(w):
    trk = SupTracker(field="u", level_filter=True)
    trk.on_level(0.0, 0, w, None)
    i, sup = _full_route_sup(w)
    assert trk.r_at == [float(i)]
    if math.isnan(sup):
        assert math.isnan(trk.sup[0])
    else:
        assert trk.sup == [sup]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-8.0, 8.0).map(lambda x: round(x, 1)),
                min_size=41, max_size=600),
       st.sampled_from([1.0, 1e-7, 3e5]))
def test_bounded_sup_equals_full_route(vals, scale):
    # one-decimal values force ties, in |w| and in the filtered output
    _assert_matches_full_route(scale * np.array(vals))


def test_bounded_sup_edge_cases():
    n = 300
    bump = np.exp(-np.linspace(-2.0, 2.0, 21) ** 2)
    # two equal bumps: equal filtered peaks, the first index wins
    w = np.zeros(n)
    w[90:111] = bump
    w[190:211] = bump
    trk = SupTracker(field="u", level_filter=True)
    trk.on_level(0.0, 0, w, None)
    assert trk.r_at == [100.0]
    _assert_matches_full_route(w)
    # peak inside the origin fold, peak at the last cell, ramp to the edge
    w = np.zeros(n)
    w[:8] = bump[10:18]
    _assert_matches_full_route(w)
    w = np.zeros(n)
    w[-1] = 1.0
    _assert_matches_full_route(w)
    _assert_matches_full_route(np.linspace(0.0, 1.0, n))
    _assert_matches_full_route(np.zeros(n))
    # the bound is tight: the kernel's sign pattern filters to |k|_1
    # times its height, above a taller smooth bump
    kern = design_lowpass()
    w = 1.2 * np.exp(-((np.arange(n) - 220.0) / 15.0) ** 2)
    w[80:121] = np.sign(kern)
    trk = SupTracker(field="u", level_filter=True)
    trk.on_level(0.0, 0, w, None)
    assert trk.r_at == [100.0]
    assert trk.sup[0] == pytest.approx(np.abs(kern).sum(), rel=1e-12)
    _assert_matches_full_route(w)
    # NaN and infinities anywhere, alone or with a second bad cell
    base = np.sin(np.arange(n) * 0.05)
    for bad in (math.nan, math.inf, -math.inf):
        for pos in (0, 3, 20, 150, n - 21, n - 1):
            w = base.copy()
            w[pos] = bad
            _assert_matches_full_route(w)
            w[(pos + 7) % n] = -bad
            _assert_matches_full_route(w)


def test_filter_level_range_is_a_slice():
    rng = np.random.default_rng(5)
    kern = design_lowpass()
    for parity in (EVEN, ODD):
        for n in (41, 57, 400):
            w = rng.standard_normal(n)
            full = filter_level(w, kern, parity)
            for lo in (0, 1, 19, 20, 21, n // 2, n - 21, n - 1):
                for hi in (lo + 1, min(lo + 40, n), n):
                    part = filter_level(w, kern, parity, lo=lo, hi=hi)
                    assert np.array_equal(part, full[lo:hi])


def test_bounded_sup_tracks_evolution_like_full_route():
    grid = grid_for_run(0.05, 2.0, 6.0, support_radius=1.0)
    trackers = [(SupTracker(f, grid=grid, level_filter=True),
                 _FullRouteTracker(f, grid)) for f in ("u", "v")]
    evolve_model(ModelParams.isotropic(), grid, InitialData.bump(0.05, 0.05),
                 t0=2.0, t_end=6.0,
                 observers=[trk for pair in trackers for trk in pair])
    for trk, ref in trackers:
        assert len(trk.t) > 50
        assert trk.t == ref.t
        assert trk.sup == ref.sup
        assert trk.r_at == ref.r_at


def test_bounded_sup_convolves_a_narrow_window(monkeypatch):
    n = 4000
    r = np.arange(n) * 0.05
    shell = 1e-3 * np.exp(-(r - 60.0) ** 2)
    cells = []
    convolve = np.convolve

    def spy(a, v, mode="full"):
        out = convolve(a, v, mode=mode)
        cells.append(out.size)
        return out

    monkeypatch.setattr(np, "convolve", spy)
    trk = SupTracker(field="u", level_filter=True)
    trk.on_level(0.0, 0, shell, None)
    assert trk.r_at == [1200.0]
    assert 0 < sum(cells) <= 0.05 * n


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
    write_csv(path, ("field", "I", "J", "s", "value"),
              [("u", "ttr", 2, 5.0, 0.125), ("v", "-", 0, 12.5, 1e-17)])
    data = path.read_bytes()
    assert data == (b"field,I,J,s,value\n"
                    b"u,ttr,2,5,0.125\n"
                    b"v,-,0,12.5,1.0000000000000001e-17\n")
    rows = energy_csv_rows([{"field": "u", "it": 2, "ir": 1, "j": 2,
                             "s": 5.0, "value": 0.125}])
    assert rows == [("u", "ttr", 2, 5.0, 0.125)]
    lines = hierarchy_csv_rows([{"line": "u.t.L0", "target": 0.0,
                                 "fitted": 0.01, "width": 0.001,
                                 "pass": True, "k": 1}])
    assert lines == [("u.t.L0", 0.0, 0.01, 0.001, True)]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a",), [("x,y",)])
