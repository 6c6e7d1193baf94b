import sys

import numpy as np
import pytest

from hfoil import solver
from hfoil.analysis import QueryPool
from hfoil.bounds import (ZERO_METRIC, MetricPerturb, WaveSourceStack,
                          metric_pull, wave_source)
from hfoil.fields import RadialGrid
from hfoil.solver import (BLOWUP_GUARD, COEFF_GUARD, InitialData,
                          ModelParams, evolve_model, grid_for_run,
                          solve_linear_kg_curved, solve_linear_wave_sourced)
from hfoil.util import StabilityError
from slice_reference import (CallableMetric, CallableSource, LevelCopies,
                             full_grid_metric, full_grid_wave_source,
                             lattice_wave_source)


# a metric h00 that depends on t alone, bound through CallableMetric, and
# h00 = 0 as a callable, evaluated at every step
SCALAR_H00 = lambda t, r: 0.05 * np.sin(t)       # noqa: E731
ZERO_H00 = CallableMetric(lambda t, r: 0.0 * r)


def smooth_data(amp_u, amp_v, width=4.0):
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return InitialData(u0=lambda r: amp_u * np.exp(-width * r * r), u1=zero,
                       v0=lambda r: amp_v * np.exp(-width * r * r), v1=zero,
                       support_radius=8.0)


def dalembert_W(u0, t0, t, r):
    tau = t - t0
    W0_odd = lambda x: np.sign(x) * np.abs(x) * u0(np.abs(x))
    return 0.5 * (W0_odd(r - tau) + W0_odd(r + tau))


# --- free wave against d'Alembert ---

def test_free_wave_matches_dalembert_and_converges():
    u0 = lambda r: 0.5 * np.exp(-4 * r * r)
    errs = []
    for dx in (0.04, 0.02, 0.01):
        g = grid_for_run(dx, 2.0, 6.0, support_radius=8.0)
        obs = LevelCopies()
        evolve_model(ModelParams.free(), g, smooth_data(0.5, 0.0),
                     t0=2.0, t_end=6.0, observers=[obs])
        t_last, u_last, _ = obs.levels[-1]
        r = g.r(0, g.n)
        Wex = dalembert_W(u0, 2.0, t_last, r)
        errs.append(np.max(np.abs(u_last * r - Wex)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9
    assert errs[-1] < 1e-4


# --- sourced linear wave against the retarded integral ---

def test_sourced_wave_matches_retarded_integral():
    integrate = pytest.importorskip("scipy.integrate")
    f = lambda t, r: np.exp(-((t - 3.0) ** 2) / 0.5) * np.exp(-r * r)
    t0 = 2.0
    g = grid_for_run(0.025, t0, 8.0, support_radius=6.0)
    obs = LevelCopies()
    res = solve_linear_wave_sourced(g, CallableSource([f]), t0=t0,
                                    t_end=8.0, observers=[(obs,)])

    def oracle(t, r):
        # u = W/r with W the 1D Duhamel integral of the odd extension of rho*f
        g_odd = lambda tau, rho: np.sign(rho) * np.abs(rho) * f(tau, np.abs(rho))
        val, err = integrate.dblquad(
            lambda rho, tau: g_odd(tau, rho),
            t0, t, lambda tau: r - (t - tau), lambda tau: r + (t - tau),
            epsabs=1e-10)
        return 0.5 * val / r

    for (tq, rq) in ((6.0, 1.0), (7.0, 2.5), (7.5, 0.5)):
        t_k, u_k, _ = obs.levels[int(round((tq - t0) / res.dt))]
        j = int(round(rq / g.dx))
        got = u_k[j]
        want = oracle(t_k, j * g.dx)
        assert got == pytest.approx(want, rel=0.01)


# --- manufactured solution for the full coupled model ---

def manufactured_sources():
    sympy = pytest.importorskip("sympy")
    t, q = sympy.symbols("t q", positive=True)   # q = r^2
    p00, ps, rc, h00, hs, c = 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    u = 0.05 * sympy.sin(t) * sympy.exp(-q)
    v = 0.04 * sympy.cos(sympy.Rational(13, 10) * t) * sympy.exp(-2 * q)

    def lap(w):
        return 4 * q * sympy.diff(w, q, 2) + 6 * sympy.diff(w, q)

    def dr_sq(w):
        # (d_r w)^2 = 4 q (d_q w)^2
        return 4 * q * sympy.diff(w, q) ** 2

    fu = (sympy.diff(u, t, 2) - lap(u)
          - (p00 * sympy.diff(v, t) ** 2 + ps * dr_sq(v) + rc * v ** 2))
    fv = ((1 + u * h00) * sympy.diff(v, t, 2) - (1 - u * hs) * lap(v)
          + c ** 2 * v)
    fu_n = sympy.lambdify((t, q), fu, "numpy")
    fv_n = sympy.lambdify((t, q), fv, "numpy")
    u_n = sympy.lambdify((t, q), u, "numpy")
    v_n = sympy.lambdify((t, q), v, "numpy")
    ut_n = sympy.lambdify((t, q), sympy.diff(u, t), "numpy")
    vt_n = sympy.lambdify((t, q), sympy.diff(v, t), "numpy")
    return fu_n, fv_n, u_n, v_n, ut_n, vt_n


def test_coupled_model_manufactured_convergence():
    fu, fv, u_ex, v_ex, ut_ex, vt_ex = manufactured_sources()
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    t0, t1 = 2.0, 4.0
    errs = []
    for dx in (0.08, 0.04, 0.02):
        g = grid_for_run(dx, t0, t1, support_radius=8.0)
        data = InitialData(
            u0=lambda r: u_ex(t0, r * r), u1=lambda r: ut_ex(t0, r * r),
            v0=lambda r: v_ex(t0, r * r), v1=lambda r: vt_ex(t0, r * r),
            support_radius=8.0)
        obs = LevelCopies()
        evolve_model(params, g, data, t0=t0, t_end=t1, observers=[obs],
                     sources=(lambda t, r: fu(t, r * r),
                              lambda t, r: fv(t, r * r)))
        tl, u_last, v_last = obs.levels[-1]
        r = g.r(0, g.n)
        err = max(np.max(np.abs(u_last - u_ex(tl, r * r))),
                  np.max(np.abs(v_last - v_ex(tl, r * r))))
        errs.append(err)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


# --- flat Klein-Gordon energy conservation ---

def test_kg_energy_drift_is_small():
    g = grid_for_run(0.02, 2.0, 12.0, support_radius=8.0)
    r = g.r(0, g.n)
    want = {199, 200, 201, 899, 900, 901}
    collected = {}

    class LevelProbe:
        def on_level(self, t, step, u, v):
            if step in want:
                collected[step] = v.copy()

    res = solve_linear_kg_curved(g, [(None, ZERO_H00)], 1.0,
                                 smooth_data(0.0, 0.3), [[LevelProbe()]],
                                 t0=2.0, t_end=12.0)

    def energy(center):
        v = collected[center]
        dtv = (collected[center + 1] - collected[center - 1]) / (2 * res.dt)
        drv = np.zeros_like(v)
        drv[1:-1] = (v[2:] - v[:-2]) / (2 * g.dx)
        dens = (dtv ** 2 + drv ** 2 + v ** 2) * r * r
        return np.trapezoid(dens, dx=g.dx)

    e1, e2 = energy(200), energy(900)
    assert e2 == pytest.approx(e1, rel=0.01)


def field_levels(obs, field):
    """The observed levels of one field (1 u, 2 v), stacked."""
    return np.stack([lv[field] for lv in obs.levels])


def test_linear_kg_matches_free_model_evolution():
    g = grid_for_run(0.05, 2.0, 6.0)
    data = InitialData.bump(0.0, 0.2)
    a, b = LevelCopies(), LevelCopies()
    solve_linear_kg_curved(g, [(None, ZERO_H00)], 1.0, data,
                           [[a]], t0=2.0, t_end=6.0)
    evolve_model(ModelParams.free(), g, data, t0=2.0, t_end=6.0,
                 observers=[b])
    assert np.array_equal(field_levels(a, 2), field_levels(b, 2))


def test_linear_wave_matches_free_model_evolution():
    # both from rest; the free model takes the profile's formula at the
    # stack's lattice points
    g = grid_for_run(0.05, 2.0, 12.0)
    a, b = LevelCopies(), LevelCopies()
    solve_linear_wave_sourced(g, WaveSourceStack([wave_source(0.5, -0.25)]),
                              t0=2.0, t_end=12.0, observers=[(a,)])
    evolve_model(ModelParams.free(), g, InitialData.bump(0.0, 0.0), t0=2.0,
                 t_end=12.0, observers=[b],
                 sources=(formula(wave_source(0.5, -0.25), g), None))
    assert np.array_equal(field_levels(a, 1), field_levels(b, 1))


# --- determinism ---

def test_identical_runs_produce_identical_snapshots():
    # every level a run hands its observers repeats bit for bit
    params = ModelParams()
    g = grid_for_run(0.05, 2.0, 8.0)
    a, b = LevelCopies(), LevelCopies()
    for obs in (a, b):
        evolve_model(params, g, InitialData.bump(0.01, 0.01), t0=2.0,
                     t_end=8.0, observers=[obs])
    assert_levels_equal(a.levels, b.levels)


# --- guards ---

def test_coefficient_guard_on_initial_data():
    g = RadialGrid(dx=0.05, n=100)
    with pytest.raises(StabilityError) as ei:
        evolve_model(ModelParams(), g, InitialData.bump(0.9, 0.0),
                     t0=2.0, t_end=3.0)
    assert ei.value.report["kind"] == "coefficient"


def _guard_run(t_end, observers=()):
    # the source drives u up until max|u| * |H| reaches the guard
    return evolve_model(ModelParams(), grid_for_run(0.05, 2.0, 6.0),
                        InitialData.bump(0.1, 0.0), t0=2.0, t_end=t_end,
                        observers=observers,
                        sources=(lambda t, r: 2.0 * np.exp(-(r - 1.0) ** 2),
                                 None))


def test_coefficient_guard_trips_mid_run(monkeypatch):
    # the report names the first level k >= 1 that reaches the guard,
    # and the observers never see that level: a run without the guard
    # gives the levels to compare with
    with monkeypatch.context() as m:
        m.setattr(solver, "COEFF_GUARD", np.inf)
        ref = LevelCopies()
        _guard_run(6.0, [ref])
    hn = ModelParams().h_norm()
    peaks = [np.max(np.abs(u)) * hn for _, u, _ in ref.levels]
    k = next(k for k in range(1, len(peaks)) if peaks[k] >= COEFF_GUARD)
    obs = LevelCopies()
    with pytest.raises(StabilityError) as ei:
        _guard_run(6.0, [obs])
    t_k, u_k, _ = ref.levels[k]
    rep = ei.value.report
    assert rep["kind"] == "coefficient"
    assert len(obs.levels) == k > 1       # the run stops before level k
    assert (rep["step"], rep["t"]) == (k, t_k)
    assert rep["location"] == grid_for_run(0.05, 2.0, 6.0).r()[
        np.argmax(np.abs(u_k))]
    assert rep["value"] == peaks[k]


def test_coefficient_guard_checks_the_last_level():
    # a run that ends at t = 2.75 has its last level, step 30, at
    # max|u| * |H| = 0.5287 >= COEFF_GUARD; the guard must see it before
    # the observers do
    obs = LevelCopies()
    with pytest.raises(StabilityError) as ei:
        _guard_run(2.75, [obs])
    rep = ei.value.report
    assert rep["kind"] == "coefficient"
    assert rep["step"] == 30 and rep["t"] == pytest.approx(2.75)
    assert rep["value"] == pytest.approx(0.5287, abs=1e-4)
    assert len(obs.levels) == 30


def test_cfl_guard_rejects_oversized_step():
    g = grid_for_run(0.05, 2.0, 40.0)
    with pytest.raises(StabilityError) as ei:
        evolve_model(ModelParams.free(), g, InitialData.bump(0.5, 0.5),
                     t0=2.0, t_end=40.0, cfl=1.15)
    assert ei.value.report["kind"] == "cfl"


# a short source pulse at the axis, for runs from rest
PULSE = lambda t, r: 0.1 * np.exp(-4.0 * r * r - 20.0 * (t - 2.3) ** 2)
# a finite spike at r = 2.5 from t = 2.2 on, far above the blow-up guard
SPIKE = lambda t, r: np.where((t > 2.2) & (np.abs(r - 2.5) < 0.01), 1e12,
                              0.0)


def test_blowup_guard_reports_location():
    # the linear path has no step-size guard, so an unstable run grows
    # until the amplitude guard trips, long before finiteness is lost
    g = grid_for_run(0.05, 2.0, 90.0)
    with pytest.raises(StabilityError) as ei:
        solve_linear_wave_sourced(g, CallableSource([PULSE]), t0=2.0,
                                  t_end=90.0, cfl=1.15, observers=[()])
    rep = ei.value.report
    assert rep["kind"] == "blowup"
    assert BLOWUP_GUARD < rep["value"] < 10.0 * BLOWUP_GUARD
    assert 0.0 < rep["location"] < g.r_max


def test_boundary_guard_catches_undersized_grid():
    g = RadialGrid(dx=0.05, n=60)   # r_max = 3, too small for t_end
    with pytest.raises(StabilityError) as ei:
        evolve_model(ModelParams.free(), g, InitialData.bump(0.1, 0.0),
                     t0=2.0, t_end=12.0)
    assert ei.value.report["kind"] == "boundary"


# --- guard reports carry the offending location ---

def shifted_data(amp_u, center, width=0.1):
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    bump = lambda r: amp_u * np.exp(-(np.asarray(r) - center) ** 2 / width)
    return InitialData(u0=bump, u1=zero, v0=zero, v1=zero,
                       support_radius=center + 1.0)


def test_coefficient_guard_on_initial_data_reports_location():
    g = RadialGrid(dx=0.05, n=100)
    with pytest.raises(StabilityError) as ei:
        evolve_model(ModelParams(), g, shifted_data(0.9, 2.0),
                     t0=2.0, t_end=3.0)
    rep = ei.value.report
    assert rep["kind"] == "coefficient" and rep["step"] == 0
    assert rep["location"] == pytest.approx(2.0, abs=0.05)


def test_cfl_guard_reports_location():
    # a negative wave bump speeds the Klein-Gordon characteristics up
    # locally; the fastest cell sits on the bump
    g = grid_for_run(0.05, 2.0, 6.0, support_radius=4.0)
    with pytest.raises(StabilityError) as ei:
        evolve_model(ModelParams(), g, shifted_data(-0.3, 3.0),
                     t0=2.0, t_end=6.0, cfl=1.15)
    rep = ei.value.report
    assert rep["kind"] == "cfl"
    assert rep["location"] == pytest.approx(3.0, abs=0.1)


def test_linear_wave_finiteness_guard_reports_location():
    g = grid_for_run(0.05, 2.0, 4.0)
    hot = lambda t, r: np.where((t > 2.2) & (np.abs(r - 2.5) < 0.01),
                                np.inf, 0.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(StabilityError) as ei:
            solve_linear_wave_sourced(g, CallableSource([hot]), t0=2.0,
                                      t_end=4.0, observers=[()])
    rep = ei.value.report
    assert rep["kind"] == "blowup"
    assert rep["location"] == pytest.approx(2.5, abs=0.01)
    assert rep["t"] > 2.2


def run_radial(solver, grid, t_end, source):
    """A free radial run of one of the three solvers from rest, with
    source driving the evolved field (v for the Klein-Gordon solver)."""
    rest = InitialData.bump(0.0, 0.0)
    if solver == "model":
        return evolve_model(ModelParams.free(), grid, rest, t0=2.0,
                            t_end=t_end, sources=(source, None))
    if solver == "wave":
        return solve_linear_wave_sourced(grid, CallableSource([source]),
                                         t0=2.0, t_end=t_end,
                                         observers=[()])
    return solve_linear_kg_curved(grid, [(None, ZERO_H00)], 1.0,
                                  rest, [()], t0=2.0, t_end=t_end,
                                  source=source)


@pytest.mark.parametrize("solver", ["model", "wave", "kg"])
def test_radial_blowup_guard_reports_location(solver):
    # a finite spike far above the guard, so the amplitude guard (not
    # finiteness) trips
    g = grid_for_run(0.05, 2.0, 4.0)
    with pytest.raises(StabilityError) as ei:
        run_radial(solver, g, 4.0, source=SPIKE)
    rep = ei.value.report
    assert rep["kind"] == "blowup"
    assert BLOWUP_GUARD < rep["value"] < np.inf
    assert rep["location"] == pytest.approx(2.5, abs=0.01)
    assert rep["t"] > 2.2


@pytest.mark.parametrize("solver", ["model", "wave", "kg"])
def test_radial_boundary_guard_reports_location(solver):
    g = RadialGrid(dx=0.05, n=60)   # r_max = 2.95, too small for t_end
    with pytest.raises(StabilityError) as ei:
        run_radial(solver, g, 12.0, PULSE)
    rep = ei.value.report
    assert rep["kind"] == "boundary"
    # the last cell is pinned, so the leak sits in one of the two before it
    assert rep["location"] in (pytest.approx(2.85), pytest.approx(2.9))
    assert rep["t"] < 12.0


def _metric_dip(t_on):
    """An h00 whose dip breaks the metric floor at r = 2, from the start
    (t_on None) or from t_on on."""
    def h00(t, r):
        dip = -0.95 * np.exp(-(r - 2.0) ** 2 / 0.05)
        return dip if t_on is None or t > t_on else 0.0 * r
    return CallableMetric(h00)


@pytest.mark.parametrize("t_on", [None, 2.3])
def test_kg_metric_floor_guards_report_location(t_on):
    # t_on None: the floor is violated by the initial metric; else the
    # dip switches on mid-run and the step guard catches it
    g = grid_for_run(0.05, 2.0, 3.0)
    with pytest.raises(StabilityError) as ei:
        solve_linear_kg_curved(g, [(None, _metric_dip(t_on))], 1.0,
                               InitialData.bump(0.0, 0.01), [()], t0=2.0,
                               t_end=3.0)
    rep = ei.value.report
    assert rep["kind"] == "coefficient"
    assert (rep["step"] == 0) == (t_on is None)
    assert rep["location"] == pytest.approx(2.0, abs=0.05)


def test_kg_pull_row_floor_guard_reports_location():
    # a table-backed row trips the floor at the step, place and value of
    # the closed form: with amp = -0.95, 1 + h00 = 0.05 on the axis from
    # the start at t0 = 2; from t0 = 1.2 the switch turns on at the axis
    # and trips step 9
    data = InitialData.bump(0.0, 0.01)
    for t0, t, step, value in ((2.0, 2.0, 0, 0.050000000000000044),
                               (1.2, 1.425, 9, 0.07528128124999933)):
        with pytest.raises(StabilityError) as ei:
            solve_linear_kg_curved(grid_for_run(0.05, t0, 3.0),
                                   [("pull", metric_pull(-0.95))], 1.0, data,
                                   [()], t0=t0, t_end=3.0)
        rep = ei.value.report
        assert (rep["kind"], rep["step"], rep["location"], rep["row"]) == \
            ("coefficient", step, 0.0, "pull")
        assert rep["t"] == pytest.approx(t, abs=1e-12)
        assert rep["value"] == pytest.approx(value, rel=1e-12)


def spied_rows(h, fills):
    """h with the step k of every fill of its run rows appended to
    fills."""
    def on_run(*args):
        row = h.on_run(*args)
        inner = row.fill

        def fill(k, t_k, out):
            fills.append(k)
            return inner(k, t_k, out)
        row.fill = fill
        return row
    return MetricPerturb(on_run, dt=h.dt, dr=h.dr)


def test_steady_metric_row_is_filled_once_per_run():
    # the flat row's 1 + h00 does not depend on t: one fill (and one
    # floor check) per run, at step 0; the pull row fills every step
    flat, pull = [], []
    rows = [("flat", spied_rows(ZERO_METRIC, flat)),
            ("pull", spied_rows(metric_pull(0.1), pull))]
    g = grid_for_run(0.05, 2.0, 8.0)
    obs = [LevelCopies(), LevelCopies()]
    for runs in (1, 2):
        res = solve_linear_kg_curved(g, rows, 1.3, InitialData.bump(0.0, 0.2),
                                     [(o,) for o in obs] if runs == 1
                                     else [(), ()], t0=2.0, t_end=8.0)
        assert flat == [0] * runs
        assert pull == list(range(res.steps)) * runs
    for h00, o in zip([ZERO_METRIC, metric_pull(0.1)], obs):
        assert_levels_equal(o.levels, _ref_solve_linear_kg_curved(
            g, h00, 1.3, InitialData.bump(0.0, 0.2), 2.0, 8.0))


@pytest.mark.parametrize("profile", ["wave", "pull"])
def test_one_row_run_of_each_profile_equals_its_row_of_two(profile):
    # the profile alone, and as the second row beside another profile
    g = grid_for_run(0.05, 2.0, 8.0)
    if profile == "wave":
        f, other = wave_source(0.5, -0.25, 0.7), wave_source(0.3, 0.2, 1.3)

        def run(rows, obs):
            solve_linear_wave_sourced(g, WaveSourceStack(rows), obs,
                                      t0=2.0, t_end=8.0)
    else:
        f, other = ("pull", metric_pull(0.1)), ("flat", ZERO_METRIC)

        def run(rows, obs):
            solve_linear_kg_curved(g, rows, 1.3, InitialData.bump(0.0, 0.2),
                                   obs, t0=2.0, t_end=8.0)
    solo, pair = LevelCopies(), [LevelCopies(), LevelCopies()]
    run([f], [(solo,)])
    run([other, f], [(o,) for o in pair])
    assert_levels_equal(pair[1].levels, solo.levels)


@pytest.mark.parametrize("profile", ["wave", "pull"])
def test_solvers_leave_the_integer_dx_over_dt_check_to_the_profile(
        profile):
    # dx/dt = 2.5 at cfl 0.4: the table-backed profiles refuse to bind,
    # the callable adapters bind and run
    g = grid_for_run(0.05, 2.0, 3.0)
    data = InitialData.bump(0.0, 0.01)
    if profile == "wave":
        def run(source):
            return solve_linear_wave_sourced(g, source, [()], t0=2.0,
                                             t_end=3.0, cfl=0.4)
        table, adapter = (WaveSourceStack([wave_source(0.5, 0.5)]),
                          CallableSource([full_grid_wave_source(0.5, 0.5)]))
    else:
        def run(h00):
            return solve_linear_kg_curved(g, [(None, h00)], 1.0, data, [()],
                                          t0=2.0, t_end=3.0, cfl=0.4)
        table, adapter = metric_pull(0.1), CallableMetric(
            full_grid_metric(0.1)[0])
    with pytest.raises(ValueError, match="integer dx/dt"):
        run(table)
    assert run(adapter).dt == 0.4 * 0.05


# the rows "calm" (flat) and "hot" of a Klein-Gordon stack from one set of
# data; per guard kind, the hot row's metric that trips it, with the grid
# and end time.  1 + h00 = 0.15 lifts the Courant number to 0.5 /
# sqrt(0.15) = 1.29, so that row blows up; 1 + h00 = 0.5 speeds its
# signal to sqrt(2), so it reaches the outer boundary first
KG_DATA = InitialData.bump(0.0, 0.01)
KG_HOT = {
    "coefficient": (_metric_dip(2.3), lambda: grid_for_run(0.05, 2.0, 3.0),
                    3.0),
    "blowup": (CallableMetric(lambda t, r: -0.85),
               lambda: grid_for_run(0.05, 2.0, 12.0), 12.0),
    "boundary": (CallableMetric(lambda t, r: -0.5),
                 lambda: RadialGrid(dx=0.05, n=60), 12.0),
}


def kg_stack(kind, observers=((), ())):
    hot, grid, t_end = KG_HOT[kind]
    return solve_linear_kg_curved(grid(), [("calm", ZERO_METRIC),
                                           ("hot", hot)], 1.0, KG_DATA,
                                  observers, t0=2.0, t_end=t_end)


# one run per guard of every solver: (kind, stacked, run)
GUARD_TRIPS = {
    "coefficient-initial": ("coefficient", False, lambda: evolve_model(
        ModelParams(), RadialGrid(dx=0.05, n=100),
        InitialData.bump(0.9, 0.0), t0=2.0, t_end=3.0)),
    "coefficient-step": ("coefficient", False, lambda: _guard_run(6.0)),
    "cfl": ("cfl", False, lambda: evolve_model(
        ModelParams.free(), grid_for_run(0.05, 2.0, 40.0),
        InitialData.bump(0.5, 0.5), t0=2.0, t_end=40.0, cfl=1.15)),
    **{f"metric-floor-{when}": ("coefficient", False, (
        lambda t_on=t_on: solve_linear_kg_curved(
            grid_for_run(0.05, 2.0, 3.0), [(None, _metric_dip(t_on))], 1.0,
            InitialData.bump(0.0, 0.01), [()], t0=2.0, t_end=3.0)))
       for when, t_on in (("initial", None), ("step", 2.3))},
    **{f"blowup-{name}": ("blowup", False, (
        lambda name=name: run_radial(name, grid_for_run(0.05, 2.0, 4.0),
                                     4.0, SPIKE)))
       for name in ("model", "wave", "kg")},
    **{f"boundary-{name}": ("boundary", False, (
        lambda name=name: run_radial(name, RadialGrid(dx=0.05, n=60), 12.0,
                                     PULSE)))
       for name in ("model", "wave", "kg")},
    "blowup-stack": ("blowup", True, lambda: solve_linear_wave_sourced(
        grid_for_run(0.05, 2.0, 4.0),
        CallableSource([PULSE, SPIKE], tags=["calm", "hot"]), t0=2.0,
        t_end=4.0, observers=[(), ()])),
    "boundary-stack": ("boundary", True, lambda: solve_linear_wave_sourced(
        RadialGrid(dx=0.05, n=60),
        CallableSource([PULSE, lambda t, r: 2.0 * PULSE(t, r)],
                       tags=["calm", "hot"]), t0=2.0, t_end=12.0,
        observers=[(), ()])),
    **{f"{kind}-kg-stack": (kind, True, lambda kind=kind: kg_stack(kind))
       for kind in KG_HOT},
}


@pytest.mark.parametrize("name", list(GUARD_TRIPS))
def test_every_guard_reports_the_same_keys(name):
    # kind, t, step, location and value, in that order, plus the row's
    # tag under "row" for a stack
    kind, stacked, run = GUARD_TRIPS[name]
    with pytest.raises(StabilityError) as ei:
        run()
    rep = ei.value.report
    want = ["kind", "t", "step", "location", "value"] + (
        ["row"] if stacked else [])
    assert list(rep) == want
    assert rep["kind"] == kind
    assert type(rep["location"]) is float and type(rep["value"]) is float
    assert int(rep["step"]) == rep["step"] >= 0
    if stacked:
        assert rep["row"] in ("calm", "hot")


# --- observers ---

def test_observers_see_every_level_with_exact_times():
    g = grid_for_run(0.1, 2.0, 3.0)
    seen = []

    class Probe:
        def on_level(self, t, step, u, v):
            seen.append((t, step))

    res = evolve_model(ModelParams.free(), g, InitialData.bump(0.01, 0.01),
                       t0=2.0, t_end=3.0, observers=[Probe()])
    assert len(seen) == res.steps + 1
    for t, step in seen:
        assert t == 2.0 + step * res.dt   # exact float reproduction


class _Picky:
    """Observer that takes the levels its rule picks, and records which
    steps it was asked about and shown (with copies of u and v)."""

    def __init__(self, rule):
        self.rule = rule
        self.asked = []
        self.levels = {}

    def next_level(self, step):
        # asked forward only, and never about a level it was shown
        assert step > max(self.levels, default=-1)
        self.asked.append(step)
        return next((k for k in range(step, step + 1000) if self.rule(k)),
                    sys.maxsize)

    def on_level(self, t, step, u, v):
        self.levels[step] = (t, None if u is None else u.copy(),
                             None if v is None else v.copy())


def _run(kind, t_end, observers):
    g = grid_for_run(0.05, 2.0, 3.0)
    if kind == "model":
        return evolve_model(ModelParams(1.0, 0.8, 1.2, 0.7, 0.9),
                            g, InitialData.bump(0.05, 0.08), t0=2.0,
                            t_end=t_end, observers=observers)
    if kind == "wave":
        return solve_linear_wave_sourced(
            g, WaveSourceStack([wave_source(0.5, 0.5)]), t0=2.0,
            t_end=t_end, observers=[observers])
    return solve_linear_kg_curved(g, [(None, CallableMetric(SCALAR_H00))],
                                  1.3, InitialData.bump(0.0, 0.2),
                                  [observers], t0=2.0, t_end=t_end)


@pytest.mark.parametrize("kind", ["model", "wave", "kg"])
@pytest.mark.parametrize("t_end", [3.0, 2.02])     # 2.02: one step
def test_observer_declining_every_level_sees_the_last(kind, t_end):
    never, some = _Picky(lambda step: False), _Picky(lambda k: k % 7 == 3)
    every = LevelCopies()
    res = _run(kind, t_end, [never, some, every])
    # an observer is asked before the first level and after each level
    # it is shown but the last, so one that declines them all is asked
    # once
    assert never.asked == [0]
    assert list(never.levels) == [res.steps]
    shown = sorted(some.levels)
    assert shown == sorted(
        {k for k in range(res.steps + 1) if k % 7 == 3} | {res.steps})
    assert some.asked == [0] + [k + 1 for k in shown[:-1]]
    assert_levels_equal([never.levels[res.steps]], every.levels[-1:])
    assert_levels_equal([some.levels[k] for k in sorted(some.levels)],
                        [every.levels[k] for k in sorted(some.levels)])
    alone = _Picky(lambda step: False)
    _run(kind, t_end, [alone])
    assert_levels_equal([alone.levels[res.steps]], every.levels[-1:])


@pytest.mark.parametrize("other", ["every", "some"])
def test_stack_row_skipping_levels_leaves_the_other_row_exact(other):
    # row 0 streams into a query pool that skips most levels; row 1's
    # observer must still get its solo reference levels bit for bit
    g = grid_for_run(0.05, 2.0, 12.0)
    rows = [wave_source(0.5, 0.5, 1.0), wave_source(0.5, -0.25, 0.7)]
    pool = QueryPool(g)
    pool.add("u", np.repeat([4.0, 9.0], 5), np.linspace(0.0, 6.0, 10))
    obs = LevelCopies() if other == "every" else _Picky(lambda k: k % 5 == 0)
    solve_linear_wave_sourced(g, WaveSourceStack(rows), t0=2.0, t_end=12.0,
                              observers=[(pool,), (obs,)])
    want = _ref_solve_linear_wave_sourced(g, formula(rows[1], g), 2.0, 12.0)
    if other == "some":
        steps = sorted(obs.levels)
        assert steps[-1] == len(want) - 1 and len(steps) < len(want) // 4
        got, want = [obs.levels[k] for k in steps], [want[k] for k in steps]
    else:
        got = obs.levels
    assert_levels_equal(got, want)
    assert pool.unresolved() == 0


def test_model_params_compare_and_hash_by_value():
    a, b = ModelParams(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), \
        ModelParams(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert a == b and hash(a) == hash(b)
    assert a != ModelParams(1.0, 2.0, 3.0, 4.0, 5.0, 7.0)
    assert ModelParams.free(2.0) == ModelParams(0.0, 0.0, 0.0, 0.0, 0.0, 2.0)
    assert len({ModelParams(), ModelParams(), ModelParams.free()}) == 2


# signs, zeros, unequal magnitudes; (1, 1) is every scenario's [model]
# default and (0, 0) the free model, (0.7, 0.9) the solver tests' H
_H_SAMPLE = [(1.0, 1.0), (0.0, 0.0), (0.7, 0.9), (0.9, 0.7), (-0.7, 0.9),
             (0.7, -0.9), (-2.5, -0.25), (0.0, -3.0), (-0.0, 0.0),
             (1e-3, -4.5e2), (0.1, 0.1 + 2 ** -52), (-0.3, 0.3)]


@pytest.mark.parametrize("h00, hs", _H_SAMPLE)
def test_h_norm_is_the_spectral_norm_of_diag_h(h00, hs):
    # the coefficient guard reads h_norm; it must equal the spectral norm
    # of H = diag(h00, hs, hs, hs) bit for bit
    want = float(np.linalg.norm(np.diag([h00, hs, hs, hs]), 2))
    got = ModelParams(0.5, 0.5, 0.5, h00, hs).h_norm()
    assert got == want and np.signbit(got) == np.signbit(want)


# --- buffered radial loops against the allocating reference loops ---
#
# The reference loops below allocate every level.  Each solver's step
# kernel is the leapfrog update multiplied through by dt^2, with the
# run's constants folded into lam2 = dt^2/dx^2, c0 = 2 - 2 lam2 and hc =
# c^2 dt^2 / 2, and the source weighted by dt^2 r.  With textbook=False
# the loops take that folded form in the kernels' operation order, so
# every level an observer sees must match bit for bit.  With
# textbook=True they take the unfolded updates, 2 W - W_prev + dt^2 (d2
# W + r N) for the wave and the mass-averaged quotient with 1/dt^2 for
# Klein-Gordon; the folded form rounds differently, so the solvers must
# stay within TEXTBOOK_REL of those.

def _ref_over_r(W, r, dx):
    out = np.empty_like(W)
    out[1:] = W[1:] / r[1:]
    out[0] = W[1] / dx
    return out


def _ref_ddr_even(a, dx):
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * dx)
    out[0] = 0.0
    out[-1] = (a[-1] - a[-2]) / dx
    return out


def _ref_d2_odd(W, dx):
    out = np.zeros_like(W)
    out[1:-1] = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / (dx * dx)
    return out


def _ref_wave_step(W_prev, W_cur, N, r, dx, dt, textbook):
    """The next level of W_tt = d2 W + r N, pinned at both ends."""
    if textbook:
        out = 2.0 * W_cur - W_prev + dt * dt * (_ref_d2_odd(W_cur, dx)
                                                + r * N)
    else:
        lam2 = (dt / dx) * (dt / dx)
        out = np.zeros_like(W_cur)
        out[1:-1] = ((2.0 - 2.0 * lam2) * W_cur[1:-1]
                     + lam2 * (W_cur[2:] + W_cur[:-2])
                     - W_prev[1:-1] + (N * (dt * dt * r))[1:-1])
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _ref_kg_step(W_prev, W_cur, denom, cs, S, c2, r, dx, dt, textbook):
    """The next level of denom W_tt = cs d2 W - c2 W + r S with the mass
    term averaged over the stencil ends, pinned at both ends; cs None is
    cs = 1 and S None no source."""
    if textbook:
        inv_dt2 = 1.0 / (dt * dt)
        d2 = _ref_d2_odd(W_cur, dx)
        rhs = (denom * (2.0 * W_cur - W_prev) * inv_dt2
               + (d2 if cs is None else cs * d2) - 0.5 * c2 * W_prev)
        if S is not None:
            rhs = rhs + r * S
        out = rhs / (denom * inv_dt2 + 0.5 * c2)
    else:
        lam2 = (dt / dx) * (dt / dx)
        csl = lam2 if cs is None else cs * lam2
        num = (denom - csl) * W_cur * 2.0
        num[1:-1] += (csl if cs is None else csl[1:-1]) * (W_cur[2:]
                                                           + W_cur[:-2])
        if S is not None:
            num = num + S * (dt * dt * r)
        out = num / (denom + 0.5 * c2 * dt * dt) - W_prev
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _ref_model_step(params, Wu_prev, Wu_cur, Wv_prev, Wv_cur, u, v, fu, fv,
                    r, dx, dt):
    """The coupled model's folded step, (Wv_next, Wu_next): Klein-Gordon
    o = (e (Wc[j+1] + Wc[j-1]) + g Wc + dt^2 r fv) / A - Wp with e = lam2
    - (hs lam2) u, g = u 2 (h00 + hs lam2) + c0 and A = u h00 + (1 + hc),
    then the wave step with the source S = a (Wv_next - Wv_prev)^2 + b
    (v[j+1] - v[j-1])^2 + c Wv_cur^2 + dt^2 r fu, a = p00 / (4 r), b =
    ps dt^2 r / (4 dx^2) and c = rcoef dt^2 / r; fu and fv are None for
    no source."""
    p = params
    lam2 = (dt / dx) * (dt / dx)
    c0, hc, w = 2.0 - 2.0 * lam2, 0.5 * p.mass ** 2 * dt * dt, dt * dt * r
    e = lam2 - (p.hs * lam2) * u
    g = u * (2.0 * (p.h00 + p.hs * lam2)) + c0
    A = u * p.h00 + (1.0 + hc)
    Wv_next = np.zeros_like(Wv_cur)
    num = (Wv_cur[2:] + Wv_cur[:-2]) * e[1:-1] + g[1:-1] * Wv_cur[1:-1]
    if fv is not None:
        num = num + (fv * w)[1:-1]
    Wv_next[1:-1] = num / A[1:-1] - Wv_prev[1:-1]
    S = (p.p00 / (4.0 * r[1:-1]) * (Wv_next - Wv_prev)[1:-1] ** 2
         + p.ps * dt * dt / (4.0 * dx * dx) * r[1:-1] * (v[2:] - v[:-2]) ** 2
         + p.rcoef * dt * dt / r[1:-1] * Wv_cur[1:-1] ** 2)
    if fu is not None:
        S = S + (fu * w)[1:-1]
    Wu_next = np.zeros_like(Wu_cur)
    Wu_next[1:-1] = (c0 * Wu_cur[1:-1] + lam2 * (Wu_cur[2:] + Wu_cur[:-2])
                     - Wu_prev[1:-1] + S)
    return Wv_next, Wu_next


def _ref_evolve_model(params, grid, data, t0, t_end, cfl=0.5, sources=None,
                      textbook=False):
    p00, ps, rcoef = params.p00, params.ps, params.rcoef
    h00, hs = params.h00, params.hs
    c2 = params.mass ** 2
    dx, r = grid.dx, grid.r(0, grid.n)
    u0 = np.asarray(data.u0(r), dtype=float)
    denom = 1.0 + u0 * h00
    speed2 = np.max((1.0 - u0 * hs) / denom)
    dt = cfl * dx / max(1.0, float(np.sqrt(max(speed2, 0.0))))
    fu = sources[0] if sources else None
    fv = sources[1] if sources else None
    Wu = r * u0
    Wv = r * np.asarray(data.v0(r), dtype=float)
    dWu = r * np.asarray(data.u1(r), dtype=float)
    dWv = r * np.asarray(data.v1(r), dtype=float)
    v0 = _ref_over_r(Wv, r, dx)
    dtv0 = _ref_over_r(dWv, r, dx)
    drv0 = _ref_ddr_even(v0, dx)
    Nu0 = p00 * dtv0 ** 2 + ps * drv0 ** 2 + rcoef * v0 ** 2
    if fu is not None:
        Nu0 = Nu0 + fu(t0, r)
    ddWu = _ref_d2_odd(Wu, dx) + r * Nu0
    rhs_v = (1.0 - u0 * hs) * _ref_d2_odd(Wv, dx) - c2 * Wv
    if fv is not None:
        rhs_v = rhs_v + r * fv(t0, r)
    ddWv = rhs_v / (1.0 + u0 * h00)
    Wu_prev, Wu_cur = Wu, Wu + dt * dWu + 0.5 * dt * dt * ddWu
    Wv_prev, Wv_cur = Wv, Wv + dt * dWv + 0.5 * dt * dt * ddWv
    levels = [(t0, _ref_over_r(Wu_prev, r, dx), _ref_over_r(Wv_prev, r, dx)),
              (t0 + dt, _ref_over_r(Wu_cur, r, dx),
               _ref_over_r(Wv_cur, r, dx))]
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    for k in range(1, n_steps):
        t_k = t0 + k * dt
        _, u_cur, v_cur = levels[-1]
        if textbook:
            Wv_next = _ref_kg_step(Wv_prev, Wv_cur, 1.0 + u_cur * h00,
                                   1.0 - u_cur * hs,
                                   None if fv is None else fv(t_k, r), c2,
                                   r, dx, dt, textbook)
            dtv = _ref_over_r((Wv_next - Wv_prev) / (2.0 * dt), r, dx)
            drv = _ref_ddr_even(v_cur, dx)
            N = p00 * dtv ** 2 + ps * drv ** 2 + rcoef * v_cur ** 2
            if fu is not None:
                N = N + fu(t_k, r)
            Wu_next = _ref_wave_step(Wu_prev, Wu_cur, N, r, dx, dt, textbook)
        else:
            Wv_next, Wu_next = _ref_model_step(
                params, Wu_prev, Wu_cur, Wv_prev, Wv_cur, u_cur, v_cur,
                None if fu is None else fu(t_k, r),
                None if fv is None else fv(t_k, r), r, dx, dt)
        Wu_prev, Wu_cur = Wu_cur, Wu_next
        Wv_prev, Wv_cur = Wv_cur, Wv_next
        levels.append((t0 + (k + 1) * dt, _ref_over_r(Wu_cur, r, dx),
                       _ref_over_r(Wv_cur, r, dx)))
    return levels


def formula(f, grid, t0=2.0, cfl=0.5):
    """The wave_source record f at the lattice points of a run on grid
    from t0 at Courant number cfl: WaveSourceStack's fill there, bit for
    bit."""
    return lattice_wave_source(f.mu, f.nu, f.amp, grid, t0, cfl * grid.dx)


def _ref_solve_linear_wave_sourced(grid, source, t0, t_end, cfl=0.5,
                                   textbook=False):
    """Levels of -box u = source(t, r) from rest."""
    dx, r = grid.dx, grid.r(0, grid.n)
    dt = cfl * dx
    W = np.zeros(grid.n)
    ddW = _ref_d2_odd(W, dx) + r * source(t0, r)
    W_prev, W_cur = W, W + 0.5 * dt * dt * ddW
    levels = [(t0, _ref_over_r(W_prev, r, dx), None),
              (t0 + dt, _ref_over_r(W_cur, r, dx), None)]
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    for k in range(1, n_steps):
        t_k = t0 + k * dt
        W_next = _ref_wave_step(W_prev, W_cur, source(t_k, r), r, dx, dt,
                                textbook)
        W_prev, W_cur = W_cur, W_next
        levels.append((t0 + (k + 1) * dt, _ref_over_r(W_cur, r, dx), None))
    return levels


def _ref_solve_linear_kg_curved(grid, h00, mass, data, t0, t_end, cfl=0.5,
                                source=None, textbook=False):
    """Levels of the curved Klein-Gordon run on the metric h00, bound to
    the run as the solver binds it but read at every step."""
    dx, r = grid.dx, grid.r(0, grid.n)
    dt = cfl * dx
    c2 = mass ** 2
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-9))
    row = h00.on_run(grid, t0, dt, n_steps)
    W = r * np.asarray(data.v0(r), dtype=float)
    dW = r * np.asarray(data.v1(r), dtype=float)
    h0 = row.fill(0, t0, np.empty(grid.n))
    rhs0 = _ref_d2_odd(W, dx) - c2 * W
    if source is not None:
        rhs0 = rhs0 + r * source(t0, r)
    W_prev, W_cur = W, W + dt * dW + 0.5 * dt * dt * rhs0 / (1.0 + h0)
    levels = [(t0, None, _ref_over_r(W_prev, r, dx)),
              (t0 + dt, None, _ref_over_r(W_cur, r, dx))]
    for k in range(1, n_steps):
        t_k = t0 + k * dt
        W_next = _ref_kg_step(
            W_prev, W_cur, 1.0 + row.fill(k, t_k, np.empty(grid.n)), None,
            None if source is None else source(t_k, r), c2, r, dx, dt,
            textbook)
        W_prev, W_cur = W_cur, W_next
        levels.append((t0 + (k + 1) * dt, None, _ref_over_r(W_cur, r, dx)))
    return levels


def assert_levels_equal(got, want):
    # bit for bit, the sign of every zero included
    assert len(got) == len(want)
    for (tg, ug, vg), (tw, uw, vw) in zip(got, want):
        assert tg == tw
        for a, b in ((ug, uw), (vg, vw)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("sourced", [False, True])
def test_evolve_model_matches_allocating_reference(sourced):
    params = ModelParams(1.0, 0.8, 1.2, 0.7, 0.9, 1.1)
    g = grid_for_run(0.05, 2.0, 5.0)
    data = InitialData.bump(0.05, 0.08)
    sources = None
    if sourced:
        sources = (lambda t, r: 0.02 * np.sin(3 * t) * np.exp(-(r - 1) ** 2),
                   lambda t, r: 0.03 * np.cos(2 * t) * np.exp(-2 * r * r))
    obs = LevelCopies()
    evolve_model(params, g, data, t0=2.0, t_end=5.0, observers=[obs],
                 sources=sources)
    want = _ref_evolve_model(params, g, data, 2.0, 5.0, sources=sources)
    assert_levels_equal(obs.levels, want)


def _spy_ends(monkeypatch, *kernels):
    """The flat prefix end of every call of the named step kernels."""
    ends = []
    for name in kernels:
        def spy(*args, kernel=getattr(solver, name)):
            ends.append(args[-1])
            return kernel(*args)
        monkeypatch.setattr(solver, name, spy)
    return ends


@pytest.mark.parametrize("eps", [(0.05, 0.08), (-0.05, -0.08), (0.05, -0.08)])
def test_evolve_model_window_keeps_every_bit(monkeypatch, eps):
    # the live window against the full-width reference, the sign of every
    # zero included: bump data are +0.0 past their support, and a negative
    # amplitude makes that -0.0, which counts as live, so such a run steps
    # the whole grid
    params = ModelParams(1.0, 0.8, 1.2, 0.7, 0.9, 1.1)
    g = grid_for_run(0.05, 2.0, 5.0)
    data = InitialData.bump(*eps)
    ends = _spy_ends(monkeypatch, "_model_kg_update", "_wave_update")
    obs = LevelCopies()
    evolve_model(params, g, data, t0=2.0, t_end=5.0, observers=[obs])
    assert_levels_equal(obs.levels, _ref_evolve_model(params, g, data, 2.0,
                                                      5.0))
    if min(eps) > 0:
        # the window starts just past the bump and grows with the signal
        assert ends[0] == 23 and ends[-1] < g.n
        assert ends == sorted(ends)
    else:
        assert set(ends) == {g.n}
    zero = obs.levels[-1][1][-1]
    assert zero == 0.0 and not np.signbit(zero)


@pytest.mark.parametrize("kind", ["model", "wave", "kg"])
def test_window_reaching_the_grid_end_trips_as_the_full_width(monkeypatch,
                                                              kind):
    # runs without a callable source, so the window starts short and
    # grows to the whole grid; the boundary guard must trip at the step,
    # place and value of a run that steps the whole grid from the start
    g = RadialGrid(dx=0.05, n=60)

    def run(observers):
        if kind == "model":
            return evolve_model(ModelParams.free(), g,
                                InitialData.bump(0.1, 0.0), t0=2.0,
                                t_end=12.0, observers=observers)
        if kind == "wave":
            return solve_linear_wave_sourced(
                g, WaveSourceStack([wave_source(0.5, 0.5)]), [observers],
                t0=2.0, t_end=12.0)
        return solve_linear_kg_curved(g, [(None, ZERO_METRIC)], 1.0,
                                      InitialData.bump(0.0, 0.1),
                                      [observers], t0=2.0, t_end=12.0)

    reports, seen = [], []
    for whole in (False, True):
        with monkeypatch.context() as m:
            if whole:
                m.setattr(solver, "_live_end", lambda levels: g.n)
            ends = _spy_ends(m, "_model_kg_update", "_wave_update",
                             "_kg_update")
            obs = LevelCopies()
            with pytest.raises(StabilityError) as ei:
                run([obs])
        if whole:
            assert set(ends) == {g.n}
        else:
            assert ends[0] < g.n // 2 and ends[-1] == g.n
        reports.append(ei.value.report)
        seen.append(obs.levels)
    assert reports[0] == reports[1] and reports[0]["kind"] == "boundary"
    assert_levels_equal(seen[0], seen[1])


def test_cfl_bound_that_does_not_clear_runs_the_exact_check():
    # at cfl 0.8, lam2 = 0.64, and the scalar bound (1 + q) / (1 - q) lam2,
    # q = |H| max|u|, clears the step only for q below 0.22; u starts
    # at q = 0.27 and decays past that, so the early steps take the
    # exact check and the later ones skip it.  hs = -h00 holds the
    # squared speed (1 - hs u) / (1 + h00 u) at exactly 1, so the exact
    # check passes at every step
    params = ModelParams(1.0, 0.8, 1.2, 0.9, -0.9, 1.1)
    g = grid_for_run(0.05, 2.0, 5.0)
    data = InitialData.bump(0.3, 0.08)
    obs = LevelCopies()
    res = evolve_model(params, g, data, t0=2.0, t_end=5.0, cfl=0.8,
                       observers=[obs])
    assert_levels_equal(obs.levels, _ref_evolve_model(params, g, data, 2.0,
                                                      5.0, cfl=0.8))
    lam2 = (res.dt / g.dx) ** 2
    q = [params.h_norm() * np.abs(u).max() for _, u, _ in obs.levels[1:-1]]
    clears = [(1.0 + x) / (1.0 - x) * lam2 < 1.0 for x in q]
    assert not clears[0] and clears[-1]


def test_linear_wave_matches_allocating_reference():
    # the profile as a one-row WaveSourceStack must give the levels of the
    # reference run on its full-grid formula bit for bit
    g = grid_for_run(0.05, 2.0, 12.0)
    f = wave_source(0.5, -0.25, 1.0)
    want = _ref_solve_linear_wave_sourced(g, formula(f, g), 2.0, 12.0)
    obs = LevelCopies()
    solve_linear_wave_sourced(g, WaveSourceStack((f,)), t0=2.0, t_end=12.0,
                              observers=[(obs,)])
    assert_levels_equal(obs.levels, want)


def test_stacked_wave_rows_match_their_solo_references():
    # two rows share mu (one power table), the third has another mu; amp
    # and nu differ in every row
    g = grid_for_run(0.05, 2.0, 12.0)
    rows = [wave_source(0.5, 0.5, 1.0), wave_source(0.5, -0.25, 0.7),
            wave_source(0.3, 0.2, 1.3)]
    obs = [LevelCopies() for _ in rows]
    res = solve_linear_wave_sourced(g, WaveSourceStack(rows), t0=2.0,
                                    t_end=12.0, observers=[(o,) for o in obs])
    for f, o in zip(rows, obs):
        assert_levels_equal(o.levels, _ref_solve_linear_wave_sourced(
            g, formula(f, g), 2.0, 12.0))
    solo = solve_linear_wave_sourced(g, WaveSourceStack(rows[:1]), t0=2.0,
                                     t_end=12.0, observers=[()])
    assert (res.grid, res.t0, res.dt, res.steps, res.t_final) == \
        (solo.grid, solo.t0, solo.dt, solo.steps, solo.t_final)
    with pytest.raises(ValueError):
        solve_linear_wave_sourced(g, WaveSourceStack(rows), t0=2.0,
                                  t_end=3.0, observers=[(), ()])


def everywhere(amp=1.0):
    """amp * t^-2.5 on the whole grid, outer cells included: the
    wave_source(1.0, 0.5, amp) profile without its switch."""
    return lambda t, r: amp * np.asarray(t, dtype=float) ** -2.5 + 0.0 * r


# calm and hot are (tag, f) rows of a CallableSource
@pytest.mark.parametrize("kind, calm, hot", [
    ("blowup", ("calm", full_grid_wave_source(0.5, 0.5)),
     ("hot", full_grid_wave_source(0.5, -0.25, 1e7))),
    ("boundary", ("calm", full_grid_wave_source(0.5, 0.5)),
     ("hot", everywhere())),
    # each row has its own running scale: a faint leak trips its row even
    # beside a row a billion times stronger
    ("boundary", ("calm", full_grid_wave_source(0.5, 0.5, 1e3)),
     ("hot", everywhere(1e-6))),
])
def test_stack_guard_report_names_its_row(kind, calm, hot):
    g = grid_for_run(0.05, 2.0, 12.0)
    a, b = LevelCopies(), LevelCopies()
    stack = CallableSource([calm[1], hot[1]], tags=[calm[0], hot[0]])
    with pytest.raises(StabilityError) as ei:
        solve_linear_wave_sourced(g, stack, t0=2.0, t_end=12.0,
                                  observers=[(a,), (b,)])
    rep = ei.value.report
    assert rep["kind"] == kind and rep["row"] == "hot"
    # the tripping level reaches no observer; the calm row's observers saw
    # exactly the first levels of its solo run, which does not trip
    solo = LevelCopies()
    solve_linear_wave_sourced(g, CallableSource([calm[1]], tags=["calm"]),
                              t0=2.0, t_end=12.0, observers=[(solo,)])
    assert len(a.levels) == len(b.levels) == rep["step"]
    assert_levels_equal(a.levels, solo.levels[:rep["step"]])
    # the hot row alone, a one-row stack, trips at the same level, with the
    # same report
    with pytest.raises(StabilityError) as alone:
        solve_linear_wave_sourced(g, CallableSource([hot[1]], tags=["hot"]),
                                  t0=2.0, t_end=12.0, observers=[()])
    assert alone.value.report == rep


@pytest.mark.parametrize("case", ["scalar-h00", "sourced"])
def test_linear_kg_matches_allocating_reference(case):
    g = grid_for_run(0.05, 2.0, 8.0)
    data = InitialData.bump(0.0, 0.2)
    if case == "scalar-h00":
        h00, source = CallableMetric(SCALAR_H00), None
    else:
        h00 = metric_pull(0.1)
        source = lambda t, r: 0.1 * np.exp(-(t - 4.0) ** 2 - r * r)
    obs = LevelCopies()
    solve_linear_kg_curved(g, [(None, h00)], 1.3, data, [[obs]], t0=2.0,
                           t_end=8.0, source=source)
    want = _ref_solve_linear_kg_curved(g, h00, 1.3, data, 2.0, 8.0,
                                       source=source)
    assert_levels_equal(obs.levels, want)


# scalar, pull and flat rows of one Klein-Gordon stack, and each row's
# h00 in its textbook form at (t, r)
KG_ROWS = [("scalar", CallableMetric(SCALAR_H00)),
           ("pull", metric_pull(0.1)), ("flat", ZERO_METRIC)]
KG_TEXTBOOK = [CallableMetric(SCALAR_H00),
               CallableMetric(full_grid_metric(0.1)[0]), ZERO_H00]


@pytest.mark.parametrize("sourced", [False, True])
def test_stacked_kg_rows_match_their_solo_references(sourced):
    # every row, with the source shared across the stack, gets the levels
    # of the allocating reference run on its metric bit for bit
    g = grid_for_run(0.05, 2.0, 8.0)
    data = InitialData.bump(0.0, 0.2)
    source = None
    if sourced:
        source = lambda t, r: 0.1 * np.exp(-(t - 4.0) ** 2 - r * r)
    obs = [LevelCopies() for _ in KG_ROWS]
    res = solve_linear_kg_curved(g, KG_ROWS, 1.3, data,
                                 [(o,) for o in obs], t0=2.0, t_end=8.0,
                                 source=source)
    for (_, h00), o in zip(KG_ROWS, obs):
        assert_levels_equal(o.levels, _ref_solve_linear_kg_curved(
            g, h00, 1.3, data, 2.0, 8.0, source=source))
    solo = solve_linear_kg_curved(g, KG_ROWS[:1], 1.3, data, [()], t0=2.0,
                                  t_end=8.0, source=source)
    assert (res.grid, res.t0, res.dt, res.steps, res.t_final) == \
        (solo.grid, solo.t0, solo.dt, solo.steps, solo.t_final)


@pytest.mark.parametrize("kind", list(KG_HOT))
def test_kg_stack_guard_report_names_its_row(kind):
    a, b = LevelCopies(), LevelCopies()
    with pytest.raises(StabilityError) as ei:
        kg_stack(kind, [(a,), (b,)])
    rep = ei.value.report
    assert rep["kind"] == kind and rep["row"] == "hot"
    # a metric floor trip stops the step that would make level step + 1,
    # a blow-up or a leak keeps level step itself from the observers; the
    # calm row's observers saw exactly the first levels of its solo run
    seen = rep["step"] + (kind == "coefficient")
    assert len(a.levels) == len(b.levels) == seen > 1
    hot, grid, _ = KG_HOT[kind]
    solo = LevelCopies()
    solve_linear_kg_curved(grid(), [("calm", ZERO_METRIC)], 1.0, KG_DATA,
                           [(solo,)], t0=2.0, t_end=rep["t"])
    assert_levels_equal(a.levels, solo.levels[:seen])
    # the hot row alone, a one-row stack, trips at the same level, with
    # the same report
    with pytest.raises(StabilityError) as alone:
        solve_linear_kg_curved(grid(), [("hot", hot)], 1.0, KG_DATA, [()],
                               t0=2.0, t_end=KG_HOT[kind][2])
    assert alone.value.report == rep


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("solver", ["wave", "kg"])
def test_stacked_solvers_take_one_observer_sequence_per_row(solver, count):
    g = grid_for_run(0.05, 2.0, 3.0)
    observers = [()] * count
    with pytest.raises(ValueError, match="observer sequences"):
        if solver == "wave":
            solve_linear_wave_sourced(
                g, WaveSourceStack([wave_source(0.5, 0.5)] * 2), observers,
                t0=2.0, t_end=3.0)
        else:
            solve_linear_kg_curved(g, KG_ROWS[1:], 1.0, KG_DATA, observers,
                                   t0=2.0, t_end=3.0)


# --- the folded kernels against the textbook updates ---
#
# TEXTBOOK_REL bounds, on every level a run hands out, each field's
# largest difference from the textbook loop relative to that field's
# largest |value| on the level.  The folded form rounds each step
# differently by a few ulps; over these runs of 100 to 400 steps that
# measured at most 3.7e-13 on the stacks and the bump-data model and
# 4.5e-12 on the manufactured solution, whose sources are large beside
# its fields.  The bound is the 1e-10 the report's margins and sup
# series are held to.
TEXTBOOK_REL = 1e-10


def assert_levels_close(got, want, rel=TEXTBOOK_REL):
    assert len(got) == len(want)
    for (tg, ug, vg), (tw, uw, vw) in zip(got, want):
        assert tg == tw
        for a, b in ((ug, uw), (vg, vw)):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def _wave_stack_runs():
    g = grid_for_run(0.05, 2.0, 12.0)
    rows = [wave_source(0.5, 0.5, 1.0), wave_source(0.5, -0.25, 0.7),
            wave_source(0.3, 0.2, 1.3)]
    obs = [LevelCopies() for _ in rows]
    solve_linear_wave_sourced(g, WaveSourceStack(rows), t0=2.0, t_end=12.0,
                              observers=[(o,) for o in obs])
    return [(o.levels, _ref_solve_linear_wave_sourced(
        g, full_grid_wave_source(f.mu, f.nu, f.amp), 2.0, 12.0,
        textbook=True)) for f, o in zip(rows, obs)]


def _kg_stack_runs(sourced):
    g = grid_for_run(0.05, 2.0, 8.0)
    data = InitialData.bump(0.0, 0.2)
    source = None
    if sourced:
        source = lambda t, r: 0.1 * np.exp(-(t - 4.0) ** 2 - r * r)
    obs = [LevelCopies() for _ in KG_ROWS]
    solve_linear_kg_curved(g, KG_ROWS, 1.3, data, [(o,) for o in obs],
                           t0=2.0, t_end=8.0, source=source)
    return [(o.levels, _ref_solve_linear_kg_curved(
        g, h00, 1.3, data, 2.0, 8.0, source=source, textbook=True))
        for h00, o in zip(KG_TEXTBOOK, obs)]


def _model_runs(mms):
    if mms:
        fu, fv, u_ex, v_ex, ut_ex, vt_ex = manufactured_sources()
        params, t0 = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), 2.0
        g = grid_for_run(0.04, t0, 4.0, support_radius=8.0)
        data = InitialData(
            u0=lambda r: u_ex(t0, r * r), u1=lambda r: ut_ex(t0, r * r),
            v0=lambda r: v_ex(t0, r * r), v1=lambda r: vt_ex(t0, r * r),
            support_radius=8.0)
        sources = (lambda t, r: fu(t, r * r), lambda t, r: fv(t, r * r))
        t_end = 4.0
    else:
        params = ModelParams(1.0, 0.8, 1.2, 0.7, 0.9, 1.1)
        g = grid_for_run(0.05, 2.0, 5.0)
        data, sources, t_end = InitialData.bump(0.05, 0.08), None, 5.0
    obs = LevelCopies()
    evolve_model(params, g, data, t0=2.0, t_end=t_end, observers=[obs],
                 sources=sources)
    return [(obs.levels, _ref_evolve_model(params, g, data, 2.0, t_end,
                                           sources=sources, textbook=True))]


@pytest.mark.parametrize("runs", [
    _wave_stack_runs, lambda: _kg_stack_runs(False),
    lambda: _kg_stack_runs(True), lambda: _model_runs(False),
    lambda: _model_runs(True)],
    ids=["wave-stack", "kg-stack", "kg-stack-sourced", "model",
         "model-mms"])
def test_solvers_stay_within_a_bound_of_the_textbook_update(runs):
    # every row of a stack, and the coupled model with and without
    # manufactured-solution sources; the folded form must round apart
    # from the textbook one somewhere, or the bound tests nothing
    moved = False
    for got, want in runs():
        assert_levels_close(got, want)
        moved |= any(not np.array_equal(a, b) for g, w in zip(got, want)
                     for a, b in zip(g[1:], w[1:]) if a is not None)
    assert moved
