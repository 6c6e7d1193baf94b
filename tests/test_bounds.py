import functools
import json
import math

import numpy as np
import pytest

import hfoil.bounds as bounds
from hfoil.bounds import (SWITCH_ON, BoundParams, MetricPerturb, RayCoords,
                          ZERO_METRIC, RayIntegral, accumulate_F, envelope_V,
                          h_ray_derivative, kg_bound_margin, kg_lattice,
                          WaveSourceStack, metric_pull, wave_bound_margin,
                          wave_bound_value, wave_lattice, wave_source)
from hfoil.cli import _refined, parse_config, relative_change
from hfoil.fields import RadialGrid
from hfoil.util import ConfigError, EmptyLatticeError
from hfoil.analysis import QueryPool
from hfoil.solver import (InitialData, grid_for_run,
                          solve_linear_wave_sourced)
from slice_reference import (CallableMetric, full_grid_metric,
                             full_grid_wave_source, lattice_pull,
                             lattice_wave_source)


P = BoundParams(C=10.0, mass=1.0, dlam=0.01, s0=2.0)

# metric_pull(0.1)'s h in closed form at any (t, r)
PULL_VALUE = full_grid_metric(0.1)[0]


# === ray geometry and regimes ===

def test_ray_points_stay_on_hyperboloids():
    ray = RayCoords(6.0, 3.0, P)
    lam = np.linspace(ray.lam_min, ray.s, 37)
    tp, rp = ray.points(lam)
    assert tp * tp - rp * rp == pytest.approx(lam * lam, rel=1e-13)


def test_regime_partition_and_tie():
    assert 0.0 < P.far_threshold < 1.0
    for s0 in (1.2, 2.0, 5.0, 40.0):
        assert BoundParams(s0=s0).far_threshold < 1.0
    # rho = 0 is always far (origin ray)
    assert RayCoords(5.0, 0.0, P).far
    # exactly at the threshold: assigned to the near formula
    rho = P.far_threshold
    t = 10.0
    tie = RayCoords(t, rho * t, P)
    assert not tie.far
    assert tie.lam_min == pytest.approx(tie.S) == pytest.approx(P.s0)
    # beyond the threshold: near, ray starts at the cone entry
    near = RayCoords(10.0, 8.0, P)
    assert not near.far
    assert near.lam_min == pytest.approx(3.0)  # sqrt(1.8/0.2)


def test_ray_rejects_bad_base():
    with pytest.raises(ValueError):
        RayCoords(3.0, 3.5, P)
    with pytest.raises(ValueError):
        RayCoords(2.0, 1.9, P)  # s = 0.62 < s0 on a far ray


# === ray derivative of the metric ===

def test_h_ray_derivative_zero_metric():
    ray = RayCoords(6.0, 3.0, P)
    lam = np.linspace(ray.lam_min, ray.s, 11)
    assert np.all(h_ray_derivative(ZERO_METRIC, ray, lam) == 0.0)


def test_h_ray_derivative_quadratic_oracle():
    # h = t^2 - r^2 restricted to the ray is lam^2, so h' = 2 lam
    h = CallableMetric(lambda t, r: t * t - r * r,
                       dt=lambda t, r: 2.0 * t,
                       dr=lambda t, r: -2.0 * r)
    ray = RayCoords(7.0, 4.0, P)
    lam = np.linspace(ray.lam_min, ray.s, 23)
    assert h_ray_derivative(h, ray, lam) == pytest.approx(2 * lam, rel=1e-13)


def test_h_ray_derivative_formula_matches_numeric():
    # the analytic derivatives against a centered difference of h itself,
    # in closed form
    h, value = metric_pull(0.1), PULL_VALUE
    for (t, r) in ((6.0, 3.0), (12.0, 9.0), (9.0, 7.4)):
        ray = RayCoords(t, r, P)
        lam = np.linspace(ray.lam_min + 0.01, ray.s - 0.01, 29)
        exact = h_ray_derivative(h, ray, lam)
        dl = 1e-5 * np.maximum(lam, 1.0)
        nume = (value(*ray.points(lam + dl))
                - value(*ray.points(lam - dl))) / (2 * dl)
        assert np.max(np.abs(exact - nume)) < 1e-6


def test_metric_pull_derivatives_against_sympy():
    sympy = pytest.importorskip("sympy")
    t, r = sympy.symbols("t r", positive=True)
    y = (t - r - 1) / sympy.Rational(1, 2)
    cut = y ** 3 * (6 * y ** 2 - 15 * y + 10)
    expr = sympy.Rational(1, 10) * sympy.sqrt(1 - (r / t) ** 2) * cut
    h = metric_pull(0.1)
    pts = [(4.0, 2.7), (6.0, 4.8), (10.0, 8.9)]
    for tv, rv in pts:
        assert 0 < tv - rv - 1 < 0.5     # inside the ramp band
        want_t = float(sympy.diff(expr, t).subs({t: tv, r: rv}))
        want_r = float(sympy.diff(expr, r).subs({t: tv, r: rv}))
        assert h.dt(tv, rv) == pytest.approx(want_t, rel=1e-12)
        assert h.dr(tv, rv) == pytest.approx(want_r, rel=1e-12)


def test_h_ray_derivative_range_check():
    ray = RayCoords(6.0, 3.0, P)
    for h in (ZERO_METRIC, metric_pull(0.1)):
        with pytest.raises(ValueError):
            h_ray_derivative(h, ray, [ray.lam_min - 0.5])
        with pytest.raises(ValueError):
            h_ray_derivative(h, ray, [ray.lam_min, ray.s + 0.5])
    # the range ends at the ray's own s, not at a longer ray's
    short, long_ = RayCoords(3.0, 1.0, P), RayCoords(8.0, 2.0, P)
    assert short.lam_min == long_.lam_min
    assert h_ray_derivative(ZERO_METRIC, long_, [short.lam_min, long_.s]) \
        .shape == (2,)
    with pytest.raises(ValueError):
        h_ray_derivative(ZERO_METRIC, short, [short.lam_min, long_.s])


# === source accumulation ===

def test_accumulate_F_zero_and_unit():
    ray = RayCoords(8.0, 3.0, P)
    F0 = accumulate_F(None, ray, P)
    assert F0.cum[-1] == 0.0
    assert np.all(F0(np.linspace(ray.lam_min, ray.s, 9)) == 0.0)

    # lam^{3/2} |f| == 1 along the ray
    unit = lambda t, r: (t * t - r * r) ** -0.75
    F1 = accumulate_F(unit, ray, P)
    sbar = np.linspace(ray.lam_min, ray.s, 9)
    assert F1(sbar) == pytest.approx(sbar - ray.lam_min, rel=1e-12)


def test_quadrature_convergence_order():
    # smooth integrand: halving dlam should cut the F error ~4x
    ray = RayCoords(9.0, 4.0, P)
    f = lambda t, r: np.sin(t - r) ** 2 / (1.0 + t * t - r * r)
    totals = {}
    for dlam in (0.08, 0.04, 0.02):
        q = BoundParams(C=P.C, mass=P.mass, dlam=dlam, s0=P.s0)
        totals[dlam] = accumulate_F(f, ray, q).cum[-1]
    e1 = abs(totals[0.08] - totals[0.02])
    e2 = abs(totals[0.04] - totals[0.02])
    assert e2 < e1 / 3.0
    assert abs(totals[0.04] - totals[0.08]) / totals[0.02] < 5e-3


# === the Klein-Gordon envelope ===

def test_envelope_flat_metric_collapse():
    far = RayCoords(8.0, 2.0, P)
    F = accumulate_F(None, far, P)
    assert envelope_V([far], (0.3, 0.4), F, ZERO_METRIC, P)[0, 0] == \
        pytest.approx(0.7, rel=1e-14)
    fsrc = lambda t, r: 1.0 / (1.0 + (t - r) ** 2)
    Fs = accumulate_F(fsrc, far, P)
    assert envelope_V([far], (0.3, 0.4), Fs, ZERO_METRIC, P)[0, 0] == \
        pytest.approx(0.7 + Fs.cum[-1], rel=1e-14)

    near = RayCoords(10.0, 8.0, P)
    Fn = accumulate_F(fsrc, near, P)
    assert envelope_V([near], (0.3, 0.4), Fn, ZERO_METRIC, P)[0, 0] == \
        pytest.approx(Fn.cum[-1], rel=1e-14)


def test_envelope_reads_F_at_each_points_own_s():
    # base points of one lattice ray share F, accumulated to the top
    # point; each must read F(s) at its own s, not the top's total.  The
    # shared and the own trapezoid sums use steps of at most dlam, so
    # they agree to O(dlam^2) = 1e-4 relative
    f = full_grid_wave_source(0.5, 0.5, amp=0.1)
    chi = 0.3
    rays = [RayCoords(s * math.cosh(chi), s * math.sinh(chi), P)
            for s in (2.5, 5.0, 7.3)]
    F = accumulate_F(f, rays[-1], P)
    V = envelope_V(rays, (0.0, 0.0), F, ZERO_METRIC, P)[0]
    for ray, v in zip(rays, V):
        own = accumulate_F(f, ray, P).cum[-1]
        assert v == pytest.approx(own, rel=1e-4)
    assert V[-1] == F.cum[-1]
    # the point at s = 2.5 sees about a fifth of the top point's F
    assert V[0] < 0.25 * F.cum[-1]


def test_envelope_monotone_in_inputs():
    h = metric_pull(0.1)
    ray = RayCoords(8.0, 2.0, P)
    fsrc = lambda t, r: 1.0 / (1.0 + (t - r) ** 2)
    F = accumulate_F(fsrc, ray, P)
    base = envelope_V([ray], (0.3, 0.4), F, h, P)[0, 0]
    assert envelope_V([ray], (0.5, 0.4), F, h, P)[0, 0] > base
    assert envelope_V([ray], (0.3, 0.6), F, h, P)[0, 0] > base
    bigger = accumulate_F(lambda t, r: 1.2 * fsrc(t, r), ray, P)
    assert envelope_V([ray], (0.3, 0.4), bigger, h, P)[0, 0] > base
    # grows with C on a ray that crosses the ramp band (h' != 0 there)
    near = RayCoords(10.0, 8.0, P)
    Fn = accumulate_F(fsrc, near, P)
    lo, hi = envelope_V([near], (0.3, 0.4), Fn, h, P, (1.0, 100.0))[:, 0]
    assert hi > lo > 0.0


def test_envelope_quadrature_stability():
    h = metric_pull(0.1)
    fsrc = lambda t, r: 1.0 / (1.0 + (t - r) ** 2)
    for (t, r) in ((8.0, 2.0), (10.0, 8.0)):
        ray = RayCoords(t, r, P)
        halfp = BoundParams(C=P.C, mass=P.mass, dlam=P.dlam / 2, s0=P.s0)
        a = envelope_V([ray], (0.3, 0.4), accumulate_F(fsrc, ray, P), h,
                       P)[0, 0]
        b = envelope_V([ray], (0.3, 0.4), accumulate_F(fsrc, ray, halfp),
                       h, halfp)[0, 0]
        assert abs(a - b) / b < 0.01


# === the shared-node envelope against the per-point reference ===
#
# The reference is the per-point route: one quadrature per base point
# and C, on the point's own np.linspace nodes, with the far boost summed
# as a trapezoid.  envelope_V reads every point of a lattice ray off one
# node set and takes the far boost in closed form, so the two agree to
# the quadrature error, not bit for bit: within ENVELOPE_REL_TOL
# relative (measured at most 1.4e-5, on WAVY), and exactly on the zero
# metric, where H = 0.

ENVELOPE_REL_TOL = 2e-5


def ref_lam_nodes(ray, dlam):
    n = max(2, int(math.ceil((ray.s - ray.lam_min) / dlam)) + 1)
    return np.linspace(ray.lam_min, ray.s, n)


def ref_h_ray_derivative(h, ray, lam):
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < ray.lam_min - 1e-9) or np.any(lam > ray.s + 1e-9):
        raise ValueError("lambda outside the ray range")
    tp, rp = ray.points(lam)
    return (ray.t / ray.s) * h.dt(tp, rp) + (ray.r / ray.s) * h.dr(tp, rp)


def ref_accumulate_F(f, ray, params):
    lam = ref_lam_nodes(ray, params.dlam)
    if f is None:
        return RayIntegral(lam, np.zeros_like(lam))
    tp, rp = ray.points(lam)
    g = lam ** 1.5 * np.abs(np.asarray(f(tp, rp), dtype=float))
    cum = np.concatenate([[0.0],
                          np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(lam))])
    return RayIntegral(lam, cum)


def ref_envelope_V(ray, data_norms, F, h, params, C=None):
    C = params.C if C is None else float(C)
    lam = ref_lam_nodes(ray, params.dlam)
    hp = np.abs(ref_h_ray_derivative(h, ray, lam))
    dl = np.diff(lam)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (hp[1:] + hp[:-1]) * dl)])
    tail = cum[-1] - cum
    kern = hp * np.exp(C * tail)
    Fv = F(lam)
    grow = float(np.sum(0.5 * (kern[1:] * Fv[1:] + kern[:-1] * Fv[:-1]) * dl))
    V = float(F(ray.s)) + grow
    if ray.far:
        n0, n1 = float(data_norms[0]), float(data_norms[1])
        boost = float(np.sum(0.5 * (kern[1:] + kern[:-1]) * dl))
        V += (n0 + n1) * (1.0 + boost)
    return V


def ref_lattice_envelopes(h, f, params, ts, rs, ci, data_norms):
    """The per-point loop kg_bound_margin ran before the envelope was
    batched per ray."""
    half = BoundParams(C=params.C, mass=params.mass, dlam=params.dlam / 2,
                       s0=params.s0)
    Fs = {}
    for j in np.unique(ci):
        k = np.nonzero(ci == j)[0][np.argmax(ts[ci == j])]
        top = RayCoords(ts[k], rs[k], params)
        Fs[j] = (ref_accumulate_F(f, top, params),
                 ref_accumulate_F(f, top, half))
    V = np.empty(ts.size)
    V_half = np.empty(ts.size)
    Vs = {c: np.empty(ts.size) for c in bounds.C_SWEEP}
    regimes = np.empty(ts.size, dtype=bool)
    for i in range(ts.size):
        ray = RayCoords(ts[i], rs[i], params)
        regimes[i] = ray.far
        F, F2 = Fs[ci[i]]
        V[i] = ref_envelope_V(ray, data_norms, F, h, params)
        V_half[i] = ref_envelope_V(ray, data_norms, F2, h, half)
        for c in bounds.C_SWEEP:
            Vs[c][i] = ref_envelope_V(ray, data_norms, F, h, params, C=c)
    return V, V_half, Vs, regimes


def lattice_ray(chi, s_vals, params=P):
    """Base points of one lattice ray at hyperbolic angle chi."""
    return [RayCoords(s * math.cosh(chi), s * math.sinh(chi), params)
            for s in s_vals]


FSRC = lambda t, r: 1.0 / (1.0 + (t - r) ** 2)       # noqa: E731

# h' != 0 along the whole ray, so every quadrature term is nonzero and a
# sum taken in another order or over another length moves its last bits
WAVY = CallableMetric(lambda t, r: 0.02 * np.sin(t - 0.5 * r),
                      dt=lambda t, r: 0.02 * np.cos(t - 0.5 * r),
                      dr=lambda t, r: -0.01 * np.cos(t - 0.5 * r))


def kg_lattice_rays(params, s_max=8.0):
    """The base points of kg_lattice at dx 0.1, one list per lattice ray,
    each in rising s."""
    lat = kg_lattice(params, dx=0.1, s_max=s_max)
    return [[RayCoords(t, r, params) for t, r in
             zip(lat.ts[lat.ray == j], lat.rs[lat.ray == j])]
            for j in np.unique(lat.ray)]


def test_lam_nodes_and_envelope_rows_share_one_rule(monkeypatch):
    # lam_nodes is the reference's linspace, and envelope_V evaluates h'
    # once per call: on the farthest point's lam_nodes merged with every
    # point's own s, whatever order the points come in
    seen = []
    inner = bounds.h_ray_derivative

    def spy(h, ray, lam):
        seen.append((ray, lam))
        return inner(h, ray, lam)

    monkeypatch.setattr(bounds, "h_ray_derivative", spy)
    for rays in (lattice_ray(0.3, (2.2, 3.7, 8.0)),
                 lattice_ray(1.0, (3.0, 7.5))):
        for dlam in (0.01, 0.005):
            for ray in rays:
                assert np.array_equal(ray.lam_nodes(dlam),
                                      ref_lam_nodes(ray, dlam))
            params = BoundParams(dlam=dlam)
            seen.clear()
            envelope_V(rays[::-1], (0.3, 0.4),
                       accumulate_F(FSRC, rays[-1], params), WAVY, params,
                       (1.0, 10.0))
            [(top, lam)] = seen
            assert top is rays[-1]
            assert np.array_equal(lam, np.union1d(
                ref_lam_nodes(rays[-1], dlam), [ray.s for ray in rays]))


@pytest.mark.parametrize("h", [ZERO_METRIC, metric_pull(0.1), WAVY],
                         ids=["zero", "pull", "wavy"])
@pytest.mark.parametrize("f", [None, FSRC], ids=["unsourced", "sourced"])
# default-cap: every base point of the ray in one call, as
# kg_bound_margin makes it; split: the points in two calls, so the lower
# half reads a node set of its own
@pytest.mark.parametrize("split", [False, True], ids=["default-cap", "split"])
def test_envelope_blocks_match_per_point_reference(h, f, split):
    Cs = (1.0, 10.0, 100.0, 3.0)                    # 3.0 is off the sweep
    s_vals = np.geomspace(2.2, 8.0, 9)
    for chi, want_far in ((0.3, True), (1.0, False)):
        rays = lattice_ray(chi, s_vals[s_vals > math.exp(chi)])
        assert [ray.far for ray in rays] == [want_far] * len(rays)
        top = rays[-1]
        parts = [rays[:len(rays) // 2], rays[len(rays) // 2:]] if split \
            else [rays]
        for params in (P, BoundParams(C=P.C, dlam=P.dlam / 2, s0=P.s0)):
            F = accumulate_F(f, top, params)
            ref_F = ref_accumulate_F(f, top, params)
            assert np.array_equal(F.lam, ref_F.lam)
            assert np.array_equal(F.cum, ref_F.cum)
            got = np.concatenate([envelope_V(part, (0.3, 0.4), F, h, params,
                                             Cs) for part in parts], axis=1)
            want = np.array([[ref_envelope_V(ray, (0.3, 0.4), ref_F, h,
                                             params, C) for ray in rays]
                             for C in Cs])
            if h is ZERO_METRIC:
                assert np.array_equal(got, want)
            else:
                assert got == pytest.approx(want, rel=ENVELOPE_REL_TOL, abs=0)
            whole = envelope_V(rays, (0.3, 0.4), F, h, params, Cs)
            default = envelope_V(rays, (0.3, 0.4), F, h, params)
            assert np.array_equal(default[0], whole[Cs.index(params.C)])


def test_far_envelope_matches_closed_form_oracle():
    # unsourced metric_pull: h = amp (s/t) cut never falls along a ray,
    # so H(s) = h(s) - h(lam_min) and the far V is exactly
    # (|v0|+|v1|)(1 + expm1(C H)/C).  Over the far lattice points, for
    # each C and dlam, the worst error of envelope_V is no larger than the
    # per-point route's, and it falls at second order in dlam.  Pointwise
    # the per-point route is sometimes closer (by up to 7e-6 relative at
    # dlam 0.01), where the errors of its two trapezoid sums cancel.
    h = metric_pull(0.1)
    worst = {}
    for dlam in (0.01, 0.005):
        params = BoundParams(dlam=dlam)
        far_rays = [rays for rays in kg_lattice_rays(params) if rays[0].far]
        assert far_rays
        for rays in far_rays:
            got = envelope_V(rays, (0.3, 0.4),
                             accumulate_F(None, rays[-1], params), h, params,
                             bounds.C_SWEEP)
            for k, C in enumerate(bounds.C_SWEEP):
                for ray, v in zip(rays, got[k]):
                    H = float(PULL_VALUE(*ray.points(ray.s))
                              - PULL_VALUE(*ray.points(ray.lam_min)))
                    exact = 0.7 * (1.0 + math.expm1(C * H) / C)
                    if H == 0.0:
                        assert v == exact
                    old = ref_envelope_V(ray, (0.3, 0.4),
                                         ref_accumulate_F(None, ray, params),
                                         h, params, C)
                    w = worst.setdefault((dlam, C), [0.0, 0.0])
                    w[0] = max(w[0], abs(v - exact) / exact)
                    w[1] = max(w[1], abs(old - exact) / exact)
    for C in bounds.C_SWEEP:
        (new, old), (fine, _) = worst[0.01, C], worst[0.005, C]
        assert 0.0 < new <= old, C
        assert worst[0.005, C][0] <= worst[0.005, C][1], C
        assert fine < new / 3.5, C


def test_envelope_V_rejects_rays_of_two_directions():
    F = accumulate_F(None, RayCoords(8.0, 2.0, P), P)
    one = lattice_ray(0.3, (2.5, 5.0))
    assert envelope_V(one, (0.3, 0.4), F, ZERO_METRIC, P).shape == (1, 2)
    with pytest.raises(ValueError):
        envelope_V(one + lattice_ray(0.31, (6.0,)), (0.3, 0.4), F,
                   ZERO_METRIC, P)
    # directions 2e-13 apart on either side of the far threshold's tie
    # band: one far ray start, one near, so no shared lam_min
    edge = P.far_threshold - 1e-12
    far, near = (RayCoords(10.0, 10.0 * (edge + d), P)
                 for d in (-1e-13, 1e-13))
    assert far.far and not near.far
    with pytest.raises(ValueError):
        envelope_V([far, near], (0.3, 0.4), F, ZERO_METRIC, P)


def spied_metric(h, calls):
    def spy(name, fn):
        def wrapped(t, r):
            calls[name] += 1
            return fn(t, r)
        return wrapped
    return MetricPerturb(h.on_run, dt=spy("dt", h.dt), dr=spy("dr", h.dr))


@pytest.mark.parametrize("chunk,per_ray", [(10 ** 9, True), (1, False)])
def test_envelope_work_count(chunk, per_ray, monkeypatch):
    # one h' evaluation per envelope_V call, for every C; chunk is the
    # most base points one call is handed
    inner = bounds.envelope_V

    def chunked(rays, *args):
        return np.concatenate([inner(rays[i:i + chunk], *args)
                               for i in range(0, len(rays), chunk)], axis=1)

    monkeypatch.setattr(bounds, "envelope_V", chunked)
    calls = {"dt": 0, "dr": 0}
    h = spied_metric(metric_pull(0.1), calls)
    rays = lattice_ray(0.3, np.geomspace(2.2, 8.0, 7))
    F = accumulate_F(FSRC, rays[-1], P)
    bounds.envelope_V(rays, (0.3, 0.4), F, h, P, (1.0, 10.0, 100.0, 3.0))
    want = 1 if per_ray else len(rays)
    assert calls == {"dt": want, "dr": want}

    # a margin run: one call per lattice ray and quadrature step, not one
    # per lattice point and C
    calls.update(dt=0, dr=0)
    [rep] = kg_bound_margin(kg_lattice(P, dx=0.1, s_max=4.0),
                            [("pull", h)], InitialData.bump(0.0, 0.1), P)
    counts = rep["regime_counts"]
    points = counts["far"] + counts["near"]
    if per_ray:
        assert calls["dt"] == calls["dr"] <= 2 * bounds._N_RAYS < points
    else:
        assert calls == {"dt": 2 * points, "dr": 2 * points}


# a source inside the cone, so the run never reaches the outer boundary
CONE_SRC = full_grid_wave_source(0.5, 0.5, amp=0.1)

MARGIN_CASES = [
    ("zero", None, P),
    ("pull", None, P),
    ("pull", CONE_SRC, P),
    ("wavy", CONE_SRC, P),
    # C and dlam off their defaults
    ("bare", CONE_SRC, BoundParams(C=3.0, dlam=0.02, s0=2.0)),
]


def margin_metric(name):
    return {"zero": ZERO_METRIC, "pull": metric_pull(0.1), "wavy": WAVY,
            "bare": metric_pull(0.1)}[name]


@pytest.mark.parametrize("name,f,params", MARGIN_CASES,
                         ids=[f"{c[0]}-{'src' if c[1] else 'nosrc'}-C{c[2].C:g}"
                              for c in MARGIN_CASES])
def test_kg_margin_report_matches_per_point_route(name, f, params,
                                                  monkeypatch):
    # every ratio within ENVELOPE_REL_TOL, the refinement delta (a
    # difference of two envelopes) within twice it, the rest exact; the
    # zero metric's report is exact throughout
    args = (kg_lattice(params, dx=0.1, s_max=5.0),
            [(name, margin_metric(name))], InitialData.bump(0.0, 0.1),
            params, f)
    [got] = kg_bound_margin(*args)
    monkeypatch.setattr(bounds, "_lattice_envelopes", ref_lattice_envelopes)
    [want] = kg_bound_margin(*args)
    assert got["regime_counts"]["far"] > 0 and got["regime_counts"]["near"] > 0
    if name == "wavy":                  # the sweep tells C apart here
        assert len(set(got["C_sensitivity"].values())) == 3
    if name == "zero":
        assert json.dumps(got) == json.dumps(want)

    def ratios(rep):
        return [rep["max_ratio"], *rep["C_sensitivity"].values(),
                *(row["max_ratio"] for row in rep["per_s_max_ratio"])]

    def rest(rep):
        out = {k: v for k, v in rep.items() if k not in (
            "max_ratio", "C_sensitivity", "quad_refinement_delta")}
        out["per_s_max_ratio"] = [row["s"] for row in rep["per_s_max_ratio"]]
        return out

    assert rest(got) == rest(want)
    assert ratios(got) == pytest.approx(ratios(want), rel=ENVELOPE_REL_TOL,
                                        abs=0)
    assert abs(got["quad_refinement_delta"]
               - want["quad_refinement_delta"]) <= 2 * ENVELOPE_REL_TOL


def test_kg_margin_counts_c_dependent_points(monkeypatch):
    # unsourced, V moves with C exactly at the far points with H(s) > 0;
    # metric_pull is monotone along rays, so H(s) = h(s) - h(lam_min)
    lat = kg_lattice(P, dx=0.1, s_max=5.0)
    data = InitialData.bump(0.0, 0.1)
    [flat] = kg_bound_margin(lat, [("flat", ZERO_METRIC)], data, P)
    assert flat["c_dependent_points"] == 0
    seen = {}
    inner = bounds._lattice_envelopes

    def spy(h, f, params, ts, rs, ci, norms):
        seen.update(ts=ts, rs=rs)
        return inner(h, f, params, ts, rs, ci, norms)

    monkeypatch.setattr(bounds, "_lattice_envelopes", spy)
    [rep] = kg_bound_margin(lat, [("pull", metric_pull(0.1))], data, P)
    rays = [RayCoords(t, r, P) for t, r in zip(seen["ts"], seen["rs"])]
    want = sum(ray.far and float(PULL_VALUE(*ray.points(ray.s))
                                 - PULL_VALUE(*ray.points(ray.lam_min))) > 0
               for ray in rays)
    assert 0 < rep["c_dependent_points"] == want < len(rays)


def test_margin_looks_up_envelope_V_on_the_module(monkeypatch):
    """A tracer that wraps hfoil.bounds.envelope_V by name sees every
    envelope evaluation of a margin run, and changes nothing."""
    args = (kg_lattice(P, dx=0.1, s_max=4.0),
            [("pull", metric_pull(0.1))], InitialData.bump(0.0, 0.1), P)
    [plain] = kg_bound_margin(*args)
    seen = []
    inner = bounds.envelope_V

    def span(*a, **k):
        out = inner(*a, **k)
        seen.append(out.shape)
        return out

    monkeypatch.setattr(bounds, "envelope_V", span)
    [traced] = kg_bound_margin(*args)
    assert seen and sum(shape[1] for shape in seen) == 2 * (
        traced["regime_counts"]["far"] + traced["regime_counts"]["near"])
    assert traced == plain


# === wave bound values ===

def test_wave_bound_value_frozen_points():
    assert wave_bound_value(0.5, 0.5, 10.0, 0.0) == pytest.approx(0.4)
    assert wave_bound_value(0.5, -0.5, 10.0, 6.0) == \
        pytest.approx(8.0 / math.sqrt(10.0))


def test_wave_bound_value_domain():
    with pytest.raises(ValueError):
        wave_bound_value(0.5, 0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        wave_bound_value(0.6, 0.5, 10.0, 0.0)
    with pytest.raises(ValueError):
        wave_bound_value(0.0, 0.5, 10.0, 0.0)
    with pytest.raises(ValueError):
        wave_bound_value(0.5, 0.7, 10.0, 0.0)
    with pytest.raises(ValueError):
        wave_bound_value(0.5, 0.5, 10.0, 11.0)
    with pytest.raises(ValueError):
        wave_bound_value(0.5, 0.5, 1.5, 0.0)


def test_wave_bound_value_continuity_and_blowup():
    # continuous in (t, r) on a branch
    t = np.linspace(5.0, 50.0, 200)
    vals = wave_bound_value(0.5, 0.25, t, 0.4 * t)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(np.diff(vals))) < 0.1
    # grows like 1/(nu*mu) toward the excluded corner
    grow = [wave_bound_value(mu, nu, 10.0, 5.0) * (mu * abs(nu))
            for mu, nu in ((0.5, 0.5), (0.1, 0.1), (0.01, 0.01))]
    assert np.allclose(grow, grow[0], rtol=0.7)
    assert wave_bound_value(0.01, 0.01, 10.0, 5.0) > \
        50 * wave_bound_value(0.5, 0.5, 10.0, 5.0)


def test_wave_source_profile():
    # at t = 10 (step 32 of a run from t0 = 2 at dt = 0.25), weight one
    f = wave_source(0.5, 0.5, amp=2.0)
    assert f.tag == "mup05_nup05"
    g = RadialGrid(dx=0.5, n=21)
    run = WaveSourceStack((f,)).on_run(g, 2.0, 0.25, 40)
    one = np.ones(g.n)
    out = run.fill(32, 2.0 + 32 * 0.25, one, np.empty((1, g.n)))[0]
    r = g.r(0, g.n)
    assert out[r == 9.5] == 0.0                 # outside the cone band
    assert out[r == 5.0] == pytest.approx(2.0 * 10.0 ** -2.5 * 5.0 ** -0.5)
    assert out[0] == pytest.approx(2.0 * 10.0 ** -2.5 * 10.0 ** -0.5)
    assert np.all(run.fill(0, 2.0, one, np.empty((1, g.n))) >= 0.0)


# === the profiles' run tables against their closed forms ===
#
# A profile bound to a run reads tables on the run's null lattice,
# where t_k -/+ r_j = t0 + (k -/+ M j) dt.  Bit for bit, every fill
# equals the closed form evaluated at those lattice values
# (lattice_wave_source, lattice_pull in slice_reference.py, in the
# tables' operation order); within PROFILE_REL it equals the textbook
# form at t_k - r_j and t_k + r_j themselves (full_grid_wave_source,
# full_grid_metric).  PROFILE_REL is stated before measuring: the two
# round t - r apart by an ulp of t, about 1e-14 at t = 60, which moves a
# value by at most a few times that relative to the row's largest one.
PROFILE_REL = 1e-12


def support_probe_points(band):
    """(t, r) pairs with t - r below, at and above band[0], through the
    interior of band and past it, for scalar and array t.  The profiles
    switch on over SWITCH_ON; a wider band probes the same profile off
    its support and on its plateau."""
    lo, hi = band
    rng = np.random.default_rng(5)
    r = np.concatenate([np.linspace(0.0, 40.0, 4001),
                        rng.uniform(0.0, 40.0, 500)])
    cases = [(t, r) for t in (2.0, lo + 1e-9, 7.25, 23.0, 41.5)]
    # points exactly at, just below and just above t - r = band[0]
    t = 9.0
    edge = np.array([t - lo, np.nextafter(t - lo, 0.0),
                     np.nextafter(t - lo, 1e3), t - lo - 1e-12,
                     t - 0.5 * (lo + hi), t - hi, t - hi - 1e-3])
    cases.append((t, edge))
    tt = rng.uniform(1.0, 45.0, r.size)
    cases.append((tt, r))                           # array t
    cases.append((tt[:, None], r[None, :50]))      # broadcast t and r
    cases.append((5.0, 3.8))                       # both scalar, on support
    cases.append((5.0, 4.2))                       # both scalar, off
    return cases


def support_probe_runs(band):
    """(grid, t0, dt, steps) of runs whose lattice's t - r sweeps from
    below band[0] through band and past it, at Courant numbers 1, 1/2
    and 1/3: runs that start below, at, inside and past band, one with
    band[0] on a lattice node and one whose support switches on at the
    axis mid-run."""
    lo, hi = band
    g = RadialGrid(dx=0.04, n=61)              # r up to 2.4
    return [(g, t0, dt, int(np.ceil(3.0 / dt)))
            for dt in (g.dx, g.dx / 2, g.dx / 3)
            for t0 in (0.7 * lo, lo, 0.5 * (lo + hi), hi, hi + 0.7,
                       lo + 7 * dt)]


# the probe bands: the switch-on band itself and a wider one around it
PROBE_BANDS = [SWITCH_ON, (0.25, 2.0)]


def run_times(t0, dt, steps):
    """Each step k's time t_k, as the solvers take it: t0 + k dt."""
    return [t0] + [t0 + k * dt for k in range(1, steps)]


def bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("band", PROBE_BANDS)
@pytest.mark.parametrize("mu,nu,amp", [(0.5, 0.5, 1.0), (0.5, -0.25, 0.97),
                                       (0.3, 0.2, 2.5)])
def test_wave_source_matches_full_grid_formula(band, mu, nu, amp):
    stack = WaveSourceStack((wave_source(mu, nu, amp),))
    for g, t0, dt, steps in support_probe_runs(band):
        run = stack.on_run(g, t0, dt, steps)
        want_f = lattice_wave_source(mu, nu, amp, g, t0, dt)
        r = g.r(0, g.n)
        out = np.empty((1, g.n))
        for k, t in enumerate(run_times(t0, dt, steps)):
            # a weight of one leaves the formula's bits, and the weight
            # 0.5 + r moves them as the formula times that weight does
            assert bits_equal(run.fill(k, t, np.ones(g.n), out)[0],
                              want_f(t, r)), (t0, dt, k)
            w = 0.5 + r
            assert bits_equal(run.fill(k, t, w, out)[0], want_f(t, r, w))


@pytest.mark.parametrize("band", PROBE_BANDS)
@pytest.mark.parametrize("amp", [0.1, 0.45])
def test_metric_pull_value_matches_full_grid_formula(band, amp):
    for g, t0, dt, steps in support_probe_runs(band):
        row = metric_pull(amp).on_run(g, t0, dt, steps)
        want_h = lattice_pull(amp, g, t0, dt)
        r = g.r(0, g.n)
        out = np.empty(g.n)
        assert not row.steady
        for k, t in enumerate(run_times(t0, dt, steps)):
            assert row.fill(k, t, out) is out
            assert bits_equal(out, want_h(t, r)), (t0, dt, k)


@pytest.mark.parametrize("band", PROBE_BANDS)
@pytest.mark.parametrize("amp", [0.1, 0.45])
def test_metric_pull_derivatives_match_full_grid_formula(band, amp):
    got_h = metric_pull(amp)
    _, want_dt, want_dr = full_grid_metric(amp)
    for t, r in support_probe_points(band):
        assert bits_equal(got_h.dt(t, r), want_dt(t, r))
        assert bits_equal(got_h.dr(t, r), want_dr(t, r))


# === the run route of the wave source ===
#
# WaveSourceStack's run fill is the route solve_linear_wave_sourced
# takes; every row must equal its closed form at the lattice points
# times the same weight, bit for bit on every cell of the buffer.

# each case's second row of the stack: the same mu (one table), another
# mu, and the same pair with another amp
STACK_CASES = {"same-mu": (0.5, 0.5, wave_source(0.5, -0.25, 0.9)),
               "other-mu": (0.5, -0.25, wave_source(0.3, 0.2, 1.1)),
               "same-pair": (0.5, 0.5, wave_source(0.5, 0.5, 0.8))}


def wave_march_run(dx, cfl):
    """(grid, t0, dt, steps) of the wave-march runs: t0 = 2, t_end = 60,
    at Courant number cfl."""
    g = grid_for_run(dx, 2.0, 60.0)
    dt = cfl * dx
    return g, 2.0, dt, int(np.ceil((60.0 - 2.0) / dt - 1e-9))


# the wave-march grids, and the coarse one at Courant number 1/2, whose
# tables are read as stride-2 views
WAVE_MARCH_RUNS = dict(argvalues=[(0.01, bounds._WAVE_CFL),
                                  (0.02, bounds._WAVE_CFL), (0.02, 0.5)],
                       ids=["0.01", "0.02", "0.02-courant-half"])


@pytest.mark.parametrize("dx, cfl", **WAVE_MARCH_RUNS)
@pytest.mark.parametrize("case", list(STACK_CASES))
def test_wave_source_fill_matches_full_grid_formula_at_every_step(dx, cfl,
                                                                   case):
    # the step times and the weight dt^2 r of each run; a one-row stack
    # and every row of a two-row stack
    mu, nu, partner = STACK_CASES[case]
    f = wave_source(mu, nu, 1.03)
    g, t0, dt, steps = wave_march_run(dx, cfl)
    solo = WaveSourceStack((f,)).on_run(g, t0, dt, steps)
    stack = WaveSourceStack([f, partner]).on_run(g, t0, dt, steps)
    want_f = lattice_wave_source(mu, nu, 1.03, g, t0, dt)
    want_p = lattice_wave_source(partner.mu, partner.nu, partner.amp, g, t0,
                                 dt)
    r = g.r(0, g.n)
    w = dt * dt * r
    times = run_times(t0, dt, steps)
    out = np.full((1, g.n), np.nan)
    rows = np.full((2, g.n), np.nan)
    block = 128
    got, want = np.empty((3, block, g.n)), np.empty((3, block, g.n))
    for b in range(0, len(times), block):
        ts = times[b:b + block]
        for i, t in enumerate(ts):
            got[:1, i] = solo.fill(b + i, t, w, out)
            got[1:, i] = stack.fill(b + i, t, w, rows)
            want[0, i] = want[1, i] = want_f(t, r, w)
            want[2, i] = want_p(t, r, w)
        assert bits_equal(got[:, :len(ts)], want[:, :len(ts)]), ts[0]


def assert_within_textbook(got, want, rel=PROFILE_REL):
    """Each row of got within rel of its largest |want|; True when some
    value is not want's bit for bit."""
    for a, b in zip(np.atleast_2d(got), np.atleast_2d(want)):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))
    return not bits_equal(got, want)


@pytest.mark.parametrize("dx, cfl", **WAVE_MARCH_RUNS)
def test_wave_source_run_stays_within_a_bound_of_the_textbook_form(dx, cfl):
    # linear-wave-bound's two pairs at every step of each run
    pairs = [(0.5, 0.5), (0.5, -0.25)]
    g, t0, dt, steps = wave_march_run(dx, cfl)
    run = WaveSourceStack(wave_source(mu, nu) for mu, nu in pairs).on_run(
        g, t0, dt, steps)
    textbook = [full_grid_wave_source(mu, nu) for mu, nu in pairs]
    r = g.r(0, g.n)
    one = np.ones(g.n)
    out = np.empty((2, g.n))
    moved = False
    for k, t in enumerate(run_times(t0, dt, steps)):
        moved |= assert_within_textbook(run.fill(k, t, one, out),
                                        [f(t, r) for f in textbook])
    assert moved


def kg_envelope_run(dx):
    """(grid, t0, dt, steps) of the kg-envelope runs: linear-kg-bound's
    lattice at its default s_max = 8."""
    lat = kg_lattice(BoundParams(), dx=dx, s_max=8.0)
    dt = 0.5 * dx
    return lat.grid, 2.0, dt, int(np.ceil((lat.t_end - 2.0) / dt - 1e-9))


@pytest.mark.parametrize("dx", [0.01, 0.02])
def test_metric_pull_run_stays_within_a_bound_of_the_textbook_form(dx):
    g, t0, dt, steps = kg_envelope_run(dx)
    row = metric_pull(0.1).on_run(g, t0, dt, steps)
    r = g.r(0, g.n)
    out = np.empty(g.n)
    moved = False
    for k, t in enumerate(run_times(t0, dt, steps)):
        moved |= assert_within_textbook(row.fill(k, t, out),
                                        PULL_VALUE(t, r))
    assert moved


def fill_cases():
    """(name, grid, t0, dt, k): runs and steps at the edges of the
    support prefix and the ramp."""
    g = RadialGrid(dx=0.01, n=300)
    lo, hi = SWITCH_ON
    return [
        ("empty support", g, 0.5, 0.01, 10),
        ("support edge at t = lo", g, 1.0, 0.01, 0),
        ("support r = 0 only", g, 1.0, 0.005, 1),
        ("support past grid end", g, 2.0, 0.005, 6000),
        ("ramp starts at r = 0", g, 1.2, 0.005, 0),
        # t - r = lo + wid at the grid's last point
        ("ramp ends at grid end", g, hi + 2.99, 0.01, 0),
        ("ramp longer than grid", RadialGrid(dx=0.01, n=49), 1.495, 0.01,
         0),
        ("t - r hits lo on a node", g, 2.5, 0.005, 0),
        ("t - r hits lo + wid on a node", g, 2.0, 0.005, 100),
        ("Courant number 1/3", g, 1.7, 0.01 / 3, 40),
        # t0 + i dt an ulp below lo (i = -13) and an ulp above it (i =
        # -103): the lattice's first support index is decided by rounding
        ("ulps of the edges", g, lo + 13 * 0.01, 0.01, 3),
        ("ulps of the edges, far", g, lo + 103 * 0.01, 0.01, 210),
    ]


@pytest.mark.parametrize("case", fill_cases(), ids=lambda c: c[0])
def test_wave_source_fill_edges_and_garbage_buffer(case):
    # a negative amp gives -0.0, not the +0.0 of the formula, on any cell
    # the route takes past the support edge; the weight r is zero on the
    # axis, where a negative row must read -0.0 as its formula does
    _, g, t0, dt, k = case
    steps = k + 1
    t = t0 + k * dt if k else t0
    r = g.r(0, g.n)
    garbage = np.array([np.nan, -0.0, 1e300, -np.inf, 5e-324])
    for amp in (2.0, -2.0):
        f = wave_source(0.5, 0.5, amp)
        out = np.resize(garbage, (1, r.size))
        run = WaveSourceStack((f,)).on_run(g, t0, dt, steps)
        assert run.fill(k, t, r, out) is out
        assert bits_equal(out[0], lattice_wave_source(0.5, 0.5, amp, g, t0,
                                                      dt)(t, r, r))
    # a stack with rows of both signs, two powers and a repeated pair
    fs = [wave_source(0.5, 0.5, 2.0), wave_source(0.5, -0.25, -2.0),
          wave_source(0.3, 0.2, -2.0), wave_source(0.5, 0.5, 0.5)]
    out = np.resize(garbage, (len(fs), r.size))
    assert WaveSourceStack(fs).on_run(g, t0, dt, steps).fill(
        k, t, r, out) is out
    for f, row in zip(fs, out):
        assert bits_equal(row, lattice_wave_source(f.mu, f.nu, f.amp, g, t0,
                                                   dt)(t, r, r))


def test_wave_source_fill_cases_reach_their_edges():
    # each edge case's support prefix is what its name says
    for name, g, t0, dt, k in fill_cases():
        m = bounds._NullLattice(g, t0, dt, k + 1).support(k)
        q = t0 + k * dt - g.r(0, g.n)
        want = {"empty support": 0, "support edge at t = lo": 0,
                "support r = 0 only": 1, "support past grid end": g.n,
                "ramp longer than grid": g.n}.get(name)
        if want is not None:
            assert m == want, name
        lo = {"ulps of the edges": -12,
              "ulps of the edges, far": -103}.get(name)
        if lo is not None:
            assert bounds._NullLattice(g, t0, dt, k + 1).lo == lo, name
        assert 0 <= m <= g.n and np.all(q[:m] > 1.0 - 1e-9), name


def test_wave_source_fill_does_not_rely_on_rising_t():
    # one buffer, steps out of order: every call writes every cell
    f = wave_source(0.5, -0.25)
    g = grid_for_run(0.02, 2.0, 20.0)
    steps = 1800
    run = WaveSourceStack((f,)).on_run(g, 2.0, 0.01, steps)
    want_f = lattice_wave_source(0.5, -0.25, 1.0, g, 2.0, 0.01)
    r = g.r(0, g.n)
    w = 0.01 * 0.01 * r
    out = np.zeros((1, g.n))
    ks = np.random.default_rng(4).permutation(steps)
    for k in np.concatenate([ks, [0, steps - 1, 1, 100]]).tolist():
        t = 2.0 + k * 0.01 if k else 2.0
        assert bits_equal(run.fill(k, t, w, out)[0], want_f(t, r, w))


@pytest.mark.parametrize("profile", ["wave", "pull"])
def test_profiles_bind_only_to_an_integer_dx_over_dt(profile):
    # the table needs t -/+ r on one lattice, so dx/dt must be an
    # integer: 2.5 is refused when the profile binds; 1, 2 and 3 bind
    g = RadialGrid(dx=0.04, n=50)
    bind = (WaveSourceStack([wave_source(0.5, 0.5)]).on_run
            if profile == "wave" else metric_pull(0.1).on_run)
    with pytest.raises(ValueError, match="integer dx/dt"):
        bind(g, 2.0, 0.4 * g.dx, 10)
    for M in (1, 2, 3):
        assert bounds._NullLattice(g, 2.0, g.dx / M, 10).M == M
        bind(g, 2.0, g.dx / M, 10)


# === ray lattices ===

LATTICES = {
    "kg": lambda: kg_lattice(P, dx=0.1, s_max=5.0),
    "wave": lambda: wave_lattice(dx=0.1, t_lo=6.0, t_end=20.0),
}


@pytest.mark.parametrize("kind", sorted(LATTICES))
def test_lattice_points_lie_on_their_levels_and_rays(kind):
    # a kg level is a slice s, on which t = s cosh(chi) and r = s sinh(chi)
    # of the point's ray; a wave level is the time t itself.  Rays rise in
    # angle from the axis ray, which is always kept
    lat = LATTICES[kind]()
    level = lat.levels[lat.row]
    rays = np.unique(lat.ray)
    if kind == "kg":
        ch, sh = lat.ts / level, lat.rs / level
        assert ch * ch - sh * sh == pytest.approx(1.0, rel=1e-12)
        chi = np.arccosh(ch)
        assert lat.geometry == {"dx": 0.1, "cfl": 0.5, "s_max": 5.0,
                                "tr_min": 1.25, "delta": 0.08}
        reach, tr_min = 0.08, 1.25
    else:
        assert np.array_equal(lat.ts, level)
        chi = np.arctanh(lat.rs / lat.ts)
        assert lat.geometry == {"dx": 0.1, "cfl": 1.0,
                                "t_range": [6.0, 20.0], "tr_min": 2.0}
        reach, tr_min = 0.0, 2.0
    angle = [chi[lat.ray == j] for j in rays]
    for a in angle:
        assert a == pytest.approx(a[0], abs=1e-12)
    assert rays[0] == 0 and np.all(angle[0] == 0.0)
    assert np.all(np.diff([a[0] for a in angle]) > 0)
    assert np.all(np.diff(lat.row) >= 0)            # row-major
    # the coverage rule
    assert np.all(lat.ts - lat.rs >= tr_min)
    assert np.all(lat.ts - reach >= 2.0)
    assert np.all(lat.rs + reach <= lat.grid.r_max - 16 * lat.grid.dx)
    assert lat.t_end > lat.ts.max() + reach and lat.skipped >= 0


def test_kg_lattice_keeps_the_outermost_ray_on_the_last_slice():
    # the ray fan ends on the last slice's t - r = tr_min, so that point
    # is kept by construction; rounding in exp(log(s_max / tr_min)) once
    # dropped it for 1,028 of these 3,770 s_max, 2.53 among them
    for s_max in np.arange(230, 4000) / 100:
        lat = kg_lattice(P, dx=0.05, s_max=float(s_max))
        last = (lat.row == len(lat.levels) - 1) & \
            (lat.ray == bounds._N_RAYS - 1)
        assert last.sum() == 1, s_max
        assert lat.ts[last] - lat.rs[last] == pytest.approx(1.25, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(LATTICES))
def test_level_max_reads_each_level_row(kind):
    # the levels that keep a point, in order, each with the max over its
    # row's kept points
    lat = LATTICES[kind]()
    rng = np.random.default_rng(11)
    values = rng.standard_normal(lat.ts.size)
    keep = rng.random(lat.ts.size) < 0.5
    keep[lat.row == lat.row[0]] = False              # a level left empty
    for mask in (None, keep):
        kept = np.ones(lat.ts.size, bool) if mask is None else mask
        want = []
        for i, level in enumerate(lat.levels):
            row = [v for v, j, k in zip(values, lat.row, kept) if j == i and k]
            if row:
                want.append((float(level), max(row)))
        assert lat.level_max(values, mask) == want
    assert len(lat.level_max(values, keep)) < len(lat.level_max(values))


def test_wave_lattice_before_the_run_start_is_empty():
    # every lattice time precedes the run's start t0 = 2
    with pytest.raises(EmptyLatticeError, match="no lattice point"):
        wave_lattice(dx=0.1, t_lo=0.5, t_end=1.9)


# === margin checks on tiny runs ===

def test_kg_margin_zero_field_and_report_shape():
    [rep] = kg_bound_margin(kg_lattice(P, dx=0.1, s_max=3.0),
                            [("flat", ZERO_METRIC)],
                            InitialData.bump(0.0, 0.0), P)
    assert rep["proposition"] == "kg-envelope"
    assert rep["max_ratio"] == 0.0
    assert rep["zero_envelope"]["max_weighted_value"] == 0.0
    assert rep["regime_counts"]["far"] + rep["regime_counts"]["near"] > 0
    json.dumps(rep)                             # fully serializable


def test_kg_margin_lattice_starts_before_s_max():
    # the lattice starts on KG_LATTICE_LEAD s0; an s_max at or before
    # that slice would run it backwards, and is refused before any solve
    for s_max in (2.0, bounds.KG_LATTICE_LEAD * P.s0):
        with pytest.raises(ValueError, match="first slice"):
            kg_lattice(P, dx=0.1, s_max=s_max)


def test_kg_margin_flat_bump():
    [rep] = kg_bound_margin(kg_lattice(P, dx=0.05, s_max=4.0),
                            [("flat", ZERO_METRIC)],
                            InitialData.bump(0.0, 0.1), P)
    assert 0.0 < rep["max_ratio"] < 50.0
    # near-regime samples carry a zero envelope when f = 0
    assert rep["zero_envelope"]["count"] > 0
    assert np.isfinite(rep["zero_envelope"]["max_weighted_value"])
    assert set(rep["C_sensitivity"]) == {"1", "10", "100"}
    # larger C only weakens the bound
    assert rep["C_sensitivity"]["100"] <= rep["C_sensitivity"]["1"] + 1e-12
    assert rep["quad_refinement_delta"] < 0.005
    for row in rep["per_s_max_ratio"]:
        assert row["max_ratio"] >= 0.0


def test_kg_margin_curved_metric_runs():
    [rep] = kg_bound_margin(kg_lattice(P, dx=0.05, s_max=4.0),
                            [("pull", metric_pull(0.1))],
                            InitialData.bump(0.0, 0.1), P)
    assert np.isfinite(rep["max_ratio"])
    assert rep["params"]["sourced"] is False
    json.dumps(rep)


@pytest.mark.parametrize("f", [None, CONE_SRC], ids=["unsourced", "sourced"])
def test_kg_margin_stacked_metrics_match_their_solo_reports(f):
    # a metric's report does not depend on the metrics stacked beside it
    metrics = [("flat", ZERO_METRIC), ("pull", metric_pull(0.1)),
               ("wavy", WAVY)]
    lat = kg_lattice(P, dx=0.1, s_max=4.0)
    args = (InitialData.bump(0.0, 0.1), P, f)
    stacked = kg_bound_margin(lat, metrics, *args)
    assert len(stacked) == len(metrics)
    for metric, rep in zip(metrics, stacked):
        [solo] = kg_bound_margin(lat, [metric], *args)
        assert json.dumps(rep) == json.dumps(solo)


def test_wave_margin_zero_source():
    [rep] = wave_bound_margin(
        wave_lattice(dx=0.1, t_lo=6.0, t_end=16.0), [(0.5, 0.5)],
        amp=0.0)
    assert rep["max_ratio"] == 0.0
    json.dumps(rep)


def test_wave_margin_small_run_both_branches():
    lat = wave_lattice(dx=0.1, t_lo=6.0, t_end=20.0)
    stacked = wave_bound_margin(lat, [(0.5, 0.5), (0.5, -0.25)], amp=1.0)
    for nu, both in zip((0.5, -0.25), stacked):
        [rep] = wave_bound_margin(lat, [(0.5, nu)], amp=1.0)
        assert 0.0 < rep["max_ratio"] < 10.0
        assert rep["skipped"] >= 0
        assert rep["per_decade_max_ratio"]
        json.dumps(rep)
        # a pair's report does not depend on the pairs stacked beside it
        assert json.dumps(both) == json.dumps(rep)


# === the wave check at Courant number 1 ===

# (points, grid cells, last level, sum of t, sum of r) of the default
# lattices, as they were when the wave check stepped at Courant number
# 1/2 with a tail of 12 steps: the tail is now 6 dx, the same length
@pytest.mark.parametrize("dx, n, last, t_sum, r_sum", [
    (0.04, 1561, 59.76, 7376.4733598037665, 4370.218928797611),
    (0.01, 6061, 59.94, 7391.899417073709, 4381.2960917029),
])
def test_wave_lattice_keeps_its_points(dx, n, last, t_sum, r_sum):
    lat = wave_lattice(dx=dx, t_lo=10.0, t_end=60.0)
    assert np.array_equal(lat.levels,
                          np.geomspace(10.0, 60.0 - 12 * (0.5 * dx), 20))
    assert lat.levels[-1] == last and lat.t_end == 60.0
    assert (lat.ts.size, lat.skipped, lat.grid.n) == (241, 0, n)
    assert math.fsum(lat.ts) == pytest.approx(t_sum, rel=1e-14)
    assert math.fsum(lat.rs) == pytest.approx(r_sum, rel=1e-14)


def test_kg_lattice_keeps_its_points():
    # the run still ends 12 steps of Courant number 1/2 past the latest
    # cross, and the lattice is the one of every earlier dx
    for dx, n in ((0.01, 2697), (0.04, 725)):
        lat = kg_lattice(BoundParams(), dx=dx, s_max=8.0)
        assert lat.t_end == lat.ts.max() + 0.08 + 12 * (0.5 * dx)
        assert (lat.ts.size, lat.skipped, lat.grid.n) == (206, 0, n)
        assert math.fsum(lat.ts) == pytest.approx(1472.940910009601,
                                                  rel=1e-14)
        assert math.fsum(lat.rs) == pytest.approx(897.1307562529796,
                                                  rel=1e-14)
    assert bounds._KG_CFL == 0.5


def test_wave_pool_answers_the_last_lattice_time_at_courant_1():
    # the run steps dt = dx and goes 6 steps past the last lattice time;
    # a query's 10-level window needs 5 of them, so a point 3.5 steps
    # before the end is not answered
    lat = wave_lattice(dx=0.1, t_lo=6.0, t_end=20.0)
    last = lat.row == len(lat.levels) - 1
    pool, late = QueryPool(lat.grid), QueryPool(lat.grid)
    pool.add("u", lat.ts[last], lat.rs[last])
    late.add("u", [lat.t_end - 0.35], [0.0])
    res = solve_linear_wave_sourced(
        lat.grid, WaveSourceStack([wave_source(0.5, 0.5)]),
        [(pool, late)], t0=2.0, t_end=lat.t_end, cfl=bounds._WAVE_CFL)
    assert bounds._WAVE_CFL == 1.0 and res.dt == lat.grid.dx
    assert res.steps == 180
    assert (res.t_final - lat.levels[-1]) / res.dt == pytest.approx(6.0)
    pool.assert_resolved()
    assert late.unresolved() == 1


def test_wave_lattice_error_names_its_tail_in_dx():
    # the coarse lattice of until_t = 10.3 at resolution 0.04
    with pytest.raises(EmptyLatticeError) as ei:
        wave_lattice(dx=0.08, t_lo=10.0, t_end=10.3)
    assert str(ei.value) == (
        "no lattice time lies in the run: the lattice would run from "
        "t_lo = 10 to 9.82, t_end = 10.3 less 6 dx = 0.48")


# the axis route: u(t, 0) = int_t0^t (t - tau) f(tau, t - tau) dtau
AXIS_TS = (5.0, 10.0, 20.0, 40.0, 58.0)
AXIS_PAIRS = ((0.5, 0.5), (0.5, -0.25))


@functools.lru_cache(maxsize=None)
def axis_duhamel(mu, nu, t):
    """u(t, 0) of the sourced wave from rest at t0 = 2 by quadrature of
    the closed-form source, which is zero until 2 tau - t passes
    SWITCH_ON[0]."""
    integrate = pytest.importorskip("scipy.integrate")
    f = full_grid_wave_source(mu, nu)
    lo = max(2.0, 0.5 * (t + SWITCH_ON[0]))
    val, _ = integrate.quad(lambda tau: (t - tau) * f(tau, t - tau).item(),
                            lo, t, points=[0.5 * (t + SWITCH_ON[1])],
                            epsabs=0.0, epsrel=1e-12, limit=200)
    return val


@pytest.mark.parametrize("dx", [0.04, 0.02, 0.01])
def test_wave_axis_matches_the_duhamel_integral(dx):
    """The solver's r = 0 value through a QueryPool against the axis
    Duhamel integral, for both default pairs at t = 5, 10, 20, 40 and
    58, at Courant number 1 (the wave check's) and 1/2.

    The gate, stated before the run: per pair, the largest relative
    error over the five times is at most 0.025 dx^2 at Courant number 1,
    and no larger than at 1/2.  Measured, Courant 1 against 1/2: 1.97e-5
    against 2.26e-5 (0.5, 0.5) and 1.89e-5 against 3.02e-5 (0.5, -0.25)
    at dx 0.04; 2.13e-6 against 5.80e-6 and 4.11e-6 against 7.64e-6 at
    0.02; 1.34e-6 against 1.45e-6 and 1.76e-6 against 1.91e-6 at 0.01.
    The largest errors sit at early times.  Late errors at coarse dx are
    larger at Courant number 1: at t = 58 and dx 0.04 they read 4.75e-6
    for (0.5, 0.5), against 9.5e-8 at 1/2.
    """
    ts = np.array(AXIS_TS)
    exact = {p: np.array([axis_duhamel(*p, t) for t in AXIS_TS])
             for p in AXIS_PAIRS}
    worst = {}
    for cfl in (1.0, 0.5):
        grid = grid_for_run(dx, 2.0, 59.0)
        pools = [QueryPool(grid) for _ in AXIS_PAIRS]
        handles = [pool.add("u", ts, np.zeros_like(ts)) for pool in pools]
        solve_linear_wave_sourced(
            grid, WaveSourceStack(wave_source(*p) for p in AXIS_PAIRS),
            [(pool,) for pool in pools], t0=2.0, t_end=59.0, cfl=cfl)
        for p, pool, handle in zip(AXIS_PAIRS, pools, handles):
            worst[p, cfl] = float(np.max(np.abs(
                pool.result(handle) / exact[p] - 1.0)))
    for p in AXIS_PAIRS:
        assert worst[p, 1.0] <= 0.025 * dx * dx, (p, worst)
        assert worst[p, 1.0] <= worst[p, 0.5], (p, worst)


def test_refinement_helpers():
    # a margin report of the ratio 1 + dx: both lattices first, then one
    # run at dx and one at 2 dx
    calls = []
    cfg = parse_config("[grid]\nresolution = 0.05\n\n[run]\nuntil_t = 20\n")

    def lattice(h):
        calls.append(("lattice", h))
        return h

    def margin(dx, name, scale=1.0):
        calls.append((name, dx, scale))
        return {"max_ratio": scale * (1.0 + dx), "params": {"dx": dx}}

    [fine], [coarse] = _refined(cfg, "until_t", lattice,
                                lambda *a, **k: [margin(*a, **k)], "m",
                                scale=2.0)
    assert calls == [("lattice", 0.05), ("lattice", 0.1), ("m", 0.05, 2.0),
                     ("m", 0.1, 2.0)]
    assert coarse == {"max_ratio": 2.2, "params": {"dx": 0.1}}
    assert "refinement_deltas" not in coarse
    assert fine["refinement_deltas"] == {
        "coarse_dx": 0.1, "fine_dx": 0.05,
        "max_ratio_rel_change": relative_change(2.2, 2.1)}
    # a stack of rows: the reports are matched by position
    fines, coarses = _refined(
        cfg, "until_t", lattice,
        lambda dx: [margin(dx, "a"), margin(dx, "b", 3.0)])
    assert [c["max_ratio"] for c in coarses] == [1.1, 3.3000000000000003]
    for fine, coarse in zip(fines, coarses):
        assert "refinement_deltas" not in coarse
        assert fine["refinement_deltas"] == {
            "coarse_dx": 0.1, "fine_dx": 0.05,
            "max_ratio_rel_change": relative_change(coarse["max_ratio"],
                                                    fine["max_ratio"])}
    assert fine["refinement_deltas"]["max_ratio_rel_change"] == \
        pytest.approx(0.1 / 2.1)
    # a lattice with no point at either step is a ConfigError at the
    # key's line, and no margin runs
    for bad in (0.05, 0.1):
        def empty_at(h):
            calls.append(("lattice", h))
            if h == bad:
                raise EmptyLatticeError("no point")
            return h

        calls.clear()
        with pytest.raises(ConfigError, match="^line 5: until_t: no point$"):
            _refined(cfg, "until_t", empty_at, lambda dx: [margin(dx, "m")])
        assert calls == [("lattice", h) for h in (0.05, 0.1) if h <= bad]
    # the scalar rule behind it, which the per-C sweep of linear-kg-bound
    # also takes: coarse a against fine b
    assert relative_change(0.0, 0.0) == 0.0
    assert relative_change(1.0, 0.0) == math.inf
    assert relative_change(0.0, 2.0) == 1.0
    assert relative_change(3.0, 2.0) == 0.5
    assert relative_change(-3.0, -2.0) == 0.5
