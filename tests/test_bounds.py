import json
import math

import numpy as np
import pytest

import hfoil.bounds as bounds
from hfoil.bounds import (BoundParams, MetricPerturb, RayCoords, ZERO_METRIC,
                          RayIntegral, accumulate_F, attach_refinement,
                          envelope_V, h_ray_derivative, kg_bound_margin,
                          lam_grid, metric_pull, refinement_delta,
                          wave_bound_margin, wave_bound_value, wave_source)
from hfoil.solver import InitialData, grid_for_run
from hfoil.util import smoothstep
from hypothesis import given, settings
from hypothesis import strategies as st


P = BoundParams(C=10.0, mass=1.0, dlam=0.01, s0=2.0)


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
    assert np.all(h_ray_derivative(ZERO_METRIC, [ray], lam[None]) == 0.0)


def test_h_ray_derivative_quadratic_oracle():
    # h = t^2 - r^2 restricted to the ray is lam^2, so h' = 2 lam
    h = MetricPerturb(lambda t, r: t * t - r * r,
                      dt=lambda t, r: 2.0 * t,
                      dr=lambda t, r: -2.0 * r)
    ray = RayCoords(7.0, 4.0, P)
    lam = np.linspace(ray.lam_min, ray.s, 23)
    assert h_ray_derivative(h, [ray], lam[None])[0] == \
        pytest.approx(2 * lam, rel=1e-13)


def test_h_ray_derivative_formula_matches_numeric():
    h = metric_pull(0.1)
    bare = h.value                       # callable route: centered diff
    for (t, r) in ((6.0, 3.0), (12.0, 9.0), (9.0, 7.4)):
        ray = RayCoords(t, r, P)
        lam = np.linspace(ray.lam_min + 0.01, ray.s - 0.01, 29)
        exact = h_ray_derivative(h, [ray], lam[None])
        nume = h_ray_derivative(bare, [ray], lam[None])
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
    with pytest.raises(ValueError):
        h_ray_derivative(ZERO_METRIC, [ray], [[ray.lam_min - 0.5]])
    with pytest.raises(ValueError):
        h_ray_derivative(ZERO_METRIC, [ray], [[ray.s + 0.5]])
    # the range is each row's own: a node inside the longer ray's range
    # but past the shorter ray's end is rejected
    short, long_ = RayCoords(3.0, 1.0, P), RayCoords(8.0, 2.0, P)
    assert short.lam_min == long_.lam_min
    ok = [[short.lam_min, short.s], [long_.lam_min, long_.s]]
    assert h_ray_derivative(ZERO_METRIC, [short, long_], ok).shape == (2, 2)
    for h in (ZERO_METRIC, metric_pull(0.1).value):
        with pytest.raises(ValueError):
            h_ray_derivative(h, [short, long_],
                             [[short.lam_min, long_.s],
                              [long_.lam_min, long_.s]])


# === source accumulation ===

def test_accumulate_F_zero_and_unit():
    ray = RayCoords(8.0, 3.0, P)
    F0 = accumulate_F(None, ray, P)
    assert F0.total == 0.0
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
        totals[dlam] = accumulate_F(f, ray, q).total
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
        pytest.approx(0.7 + Fs.total, rel=1e-14)

    near = RayCoords(10.0, 8.0, P)
    Fn = accumulate_F(fsrc, near, P)
    assert envelope_V([near], (0.3, 0.4), Fn, ZERO_METRIC, P)[0, 0] == \
        pytest.approx(Fn.total, rel=1e-14)


def test_envelope_reads_F_at_each_points_own_s():
    # base points of one lattice ray share F, accumulated to the top
    # point; each must read F(s) at its own s, not the top's total.  The
    # shared and the own trapezoid sums use steps of at most dlam, so
    # they agree to O(dlam^2) = 1e-4 relative
    f = wave_source(0.5, 0.5, amp=0.1)
    chi = 0.3
    rays = [RayCoords(s * math.cosh(chi), s * math.sinh(chi), P)
            for s in (2.5, 5.0, 7.3)]
    F = accumulate_F(f, rays[-1], P)
    V = envelope_V(rays, (0.0, 0.0), F, ZERO_METRIC, P)[0]
    for ray, v in zip(rays, V):
        own = accumulate_F(f, ray, P).total
        assert v == pytest.approx(own, rel=1e-4)
    assert V[-1] == F.total
    # the point at s = 2.5 sees about a fifth of the top point's F
    assert V[0] < 0.25 * F.total


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


# === blocked envelope against the per-point reference ===
#
# The reference is the per-point route envelope_V replaced: one
# quadrature per base point and C, on np.linspace nodes.


def ref_lam_nodes(ray, dlam):
    n = max(2, int(math.ceil((ray.s - ray.lam_min) / dlam)) + 1)
    return np.linspace(ray.lam_min, ray.s, n)


def ref_h_ray_derivative(h, ray, lam):
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < ray.lam_min - 1e-9) or np.any(lam > ray.s + 1e-9):
        raise ValueError("lambda outside the ray range")
    tp, rp = ray.points(lam)
    if isinstance(h, MetricPerturb) and h.analytic:
        return (ray.t / ray.s) * h.dt(tp, rp) + (ray.r / ray.s) * h.dr(tp, rp)
    fn = h
    dl = 1e-5 * np.maximum(lam, 1.0)
    up = ray.points(lam + dl)
    dn = ray.points(lam - dl)
    return (np.asarray(fn(*up), float) - np.asarray(fn(*dn), float)) / (2 * dl)


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
                       s0=params.s0, C_sweep=params.C_sweep)
    Fs = {}
    for j in np.unique(ci):
        k = np.nonzero(ci == j)[0][np.argmax(ts[ci == j])]
        top = RayCoords(ts[k], rs[k], params)
        Fs[j] = (ref_accumulate_F(f, top, params),
                 ref_accumulate_F(f, top, half))
    V = np.empty(ts.size)
    V_half = np.empty(ts.size)
    Vs = {c: np.empty(ts.size) for c in params.C_sweep}
    regimes = np.empty(ts.size, dtype=bool)
    for i in range(ts.size):
        ray = RayCoords(ts[i], rs[i], params)
        regimes[i] = ray.far
        F, F2 = Fs[ci[i]]
        V[i] = ref_envelope_V(ray, data_norms, F, h, params)
        V_half[i] = ref_envelope_V(ray, data_norms, F2, h, half)
        for c in params.C_sweep:
            Vs[c][i] = ref_envelope_V(ray, data_norms, F, h, params, C=c)
    return V, V_half, Vs, regimes


def lattice_ray(chi, s_vals, params=P):
    """Base points of one lattice ray at hyperbolic angle chi."""
    return [RayCoords(s * math.cosh(chi), s * math.sinh(chi), params)
            for s in s_vals]


FSRC = lambda t, r: 1.0 / (1.0 + (t - r) ** 2)       # noqa: E731

# h' != 0 along the whole ray, so every quadrature term is nonzero and a
# sum taken in another order or over another length moves its last bits
WAVY = MetricPerturb(lambda t, r: 0.02 * np.sin(t - 0.5 * r),
                     dt=lambda t, r: 0.02 * np.cos(t - 0.5 * r),
                     dr=lambda t, r: -0.01 * np.cos(t - 0.5 * r))


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(1.01, 20.0), span=st.floats(0.0, 30.0),
       dlam=st.sampled_from([0.01, 0.005, 0.037, 0.5]))
def test_lam_grid_rows_are_linspace(lo, span, dlam):
    hi = lo + span
    lam, n = lam_grid([lo, hi - 1e-10, lo], [hi, hi, lo + 0.5 * span], dlam)
    for row, m, a, b in zip(lam, n, (lo, hi - 1e-10, lo),
                            (hi, hi, lo + 0.5 * span)):
        assert m == max(2, int(math.ceil((b - a) / dlam)) + 1)
        assert np.array_equal(row[:m], np.linspace(a, b, m))
        assert np.all(row[m:] == b)


def test_lam_nodes_and_envelope_rows_share_one_rule():
    for ray in lattice_ray(0.3, (2.2, 3.7, 8.0)) + lattice_ray(1.0, (3.0, 7.5)):
        for dlam in (0.01, 0.005):
            want = ref_lam_nodes(ray, dlam)
            assert np.array_equal(ray.lam_nodes(dlam), want)
            row, n = lam_grid([ray.lam_min], [ray.s], dlam)
            assert n[0] == want.size and np.array_equal(row[0], want)


@pytest.mark.parametrize("h", [ZERO_METRIC, metric_pull(0.1),
                               metric_pull(0.1).value, WAVY, WAVY.value],
                         ids=["zero", "pull", "bare-callable", "wavy",
                              "wavy-bare"])
@pytest.mark.parametrize("f", [None, FSRC], ids=["unsourced", "sourced"])
@pytest.mark.parametrize("block", [None, 900], ids=["default-cap", "split"])
def test_envelope_blocks_match_per_point_reference(h, f, block,
                                                   monkeypatch):
    if block is not None:
        monkeypatch.setattr(bounds, "ENVELOPE_BLOCK", block)
    Cs = (1.0, 10.0, 100.0, 3.0)                    # 3.0 is off the sweep
    s_vals = np.geomspace(2.2, 8.0, 9)
    for chi, want_far in ((0.3, True), (1.0, False)):
        rays = lattice_ray(chi, s_vals[s_vals > math.exp(chi)])
        assert [ray.far for ray in rays] == [want_far] * len(rays)
        top = rays[-1]
        for params in (P, BoundParams(C=P.C, dlam=P.dlam / 2, s0=P.s0)):
            n = bounds.lam_count([r.lam_min for r in rays],
                                 [r.s for r in rays], params.dlam)
            assert len(set(n)) == len(rays)         # every row its own length
            if block is not None:
                assert len(list(bounds._blocks(n))) >= 2
            F = accumulate_F(f, top, params)
            ref_F = ref_accumulate_F(f, top, params)
            assert np.array_equal(F.lam, ref_F.lam)
            assert np.array_equal(F.cum, ref_F.cum)
            got = envelope_V(rays, (0.3, 0.4), F, h, params, Cs)
            assert got.shape == (len(Cs), len(rays))
            for k, C in enumerate(Cs):
                for i, ray in enumerate(rays):
                    want = ref_envelope_V(ray, (0.3, 0.4), ref_F, h, params,
                                          C)
                    assert got[k, i] == want, (chi, C, i)
            default = envelope_V(rays, (0.3, 0.4), F, h, params)
            assert np.array_equal(default[0], got[Cs.index(params.C)])


@pytest.mark.parametrize("n,want", [
    ([300, 310, 320, 330, 5000, 10, 10], [(0, 4), (4, 5), (5, 7)]),
    ([1024] * 9, [(0, 4), (4, 8), (8, 9)]),       # exactly at the cap
    ([10, 2000, 10, 10], [(0, 2), (2, 4)]),
    ([], []),
])
def test_envelope_blocks_respect_the_cap(n, want, monkeypatch):
    monkeypatch.setattr(bounds, "ENVELOPE_BLOCK", 4096)
    n = np.array(n, dtype=int)
    blocks = list(bounds._blocks(n))
    assert blocks == want
    for lo, hi in blocks:
        assert hi - lo == 1 or \
            (hi - lo) * n[lo:hi].max() <= bounds.ENVELOPE_BLOCK


def spied_metric(h, calls):
    def spy(name, fn):
        def wrapped(t, r):
            calls[name] += 1
            return fn(t, r)
        return wrapped
    return MetricPerturb(h.value, dt=spy("dt", h.dt), dr=spy("dr", h.dr))


@pytest.mark.parametrize("block,per_ray", [(10 ** 9, True), (1, False)])
def test_envelope_work_count(block, per_ray, monkeypatch):
    monkeypatch.setattr(bounds, "ENVELOPE_BLOCK", block)
    calls = {"dt": 0, "dr": 0}
    h = spied_metric(metric_pull(0.1), calls)
    rays = lattice_ray(0.3, np.geomspace(2.2, 8.0, 7))
    F = accumulate_F(FSRC, rays[-1], P)
    envelope_V(rays, (0.3, 0.4), F, h, P, (1.0, 10.0, 100.0, 3.0))
    want = 1 if per_ray else len(rays)              # one per block, any C
    assert calls == {"dt": want, "dr": want}

    # a margin run: one call per block and quadrature step, not one per
    # lattice point and C
    calls.update(dt=0, dr=0)
    rep = kg_bound_margin(h, InitialData.bump(0.0, 0.1), P, dx=0.1,
                          s_max=4.0, n_rays=6, n_s=5)
    counts = rep["regime_counts"]
    points = counts["far"] + counts["near"]
    if per_ray:
        assert calls["dt"] == calls["dr"] <= 2 * 6 < points
    else:
        assert calls == {"dt": 2 * points, "dr": 2 * points}


# a source inside the cone, so the run never reaches the outer boundary
CONE_SRC = wave_source(0.5, 0.5, amp=0.1)

MARGIN_CASES = [
    ("zero", None, P),
    ("pull", None, P),
    ("pull", CONE_SRC, P),
    ("wavy", CONE_SRC, P),
    ("bare", CONE_SRC, BoundParams(C=3.0, dlam=0.02, s0=2.0)),
]


def margin_metric(name):
    return {"zero": ZERO_METRIC, "pull": metric_pull(0.1), "wavy": WAVY,
            "bare": metric_pull(0.1).value}[name]


@pytest.mark.parametrize("name,f,params", MARGIN_CASES,
                         ids=[f"{c[0]}-{'src' if c[1] else 'nosrc'}-C{c[2].C:g}"
                              for c in MARGIN_CASES])
def test_kg_margin_report_matches_per_point_route(name, f, params,
                                                  monkeypatch):
    args = (margin_metric(name), InitialData.bump(0.0, 0.1), params)
    kw = dict(f=f, dx=0.1, s_max=5.0, n_rays=6, n_s=6)
    monkeypatch.setattr(bounds, "ENVELOPE_BLOCK", 1500)  # rays split
    got = kg_bound_margin(*args, **kw)
    monkeypatch.setattr(bounds, "_lattice_envelopes", ref_lattice_envelopes)
    want = kg_bound_margin(*args, **kw)
    assert got["regime_counts"]["far"] > 0 and got["regime_counts"]["near"] > 0
    if name == "wavy":                  # the sweep tells C apart here
        assert len(set(got["C_sensitivity"].values())) == 3
    assert json.dumps(got) == json.dumps(want)
    assert got == want


def test_margin_looks_up_envelope_V_on_the_module(monkeypatch):
    """A tracer that wraps hfoil.bounds.envelope_V by name sees every
    envelope evaluation of a margin run, and changes nothing."""
    args = (metric_pull(0.1), InitialData.bump(0.0, 0.1), P)
    kw = dict(dx=0.1, s_max=4.0, n_rays=5, n_s=4)
    plain = kg_bound_margin(*args, **kw)
    seen = []
    inner = bounds.envelope_V

    def span(*a, **k):
        out = inner(*a, **k)
        seen.append(out.shape)
        return out

    monkeypatch.setattr(bounds, "envelope_V", span)
    traced = kg_bound_margin(*args, **kw)
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
    f = wave_source(0.5, 0.5, amp=2.0)
    r = np.array([0.0, 9.5, 5.0])
    t = 10.0
    out = f(t, r)
    assert out[1] == 0.0                       # outside the cone band
    assert out[2] == pytest.approx(2.0 * 10.0 ** -2.5 * 5.0 ** -0.5)
    assert out[0] == pytest.approx(2.0 * 10.0 ** -2.5 * 10.0 ** -0.5)
    assert np.all(f(2.0, np.linspace(0.0, 3.0, 7)) >= 0.0)


# === support-limited profiles against the full-grid formulas ===
#
# The profiles evaluate only where t - r > band[0]; the reference
# formulas below evaluate everywhere, in the same operation order.


def full_grid_wave_source(mu, nu, amp=1.0, band=(1.0, 1.5)):
    lo, wid = float(band[0]), float(band[1]) - float(band[0])

    def f(t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        q = t - r
        cut = smoothstep((q - lo) / wid)
        on = cut > 0.0
        qq = np.where(on, q, 1.0)
        return np.where(on, amp * cut * t ** (-(2.0 + nu)) * qq ** (mu - 1.0),
                        0.0)

    return f


def full_grid_metric_value(amp=0.1, band=(1.0, 1.5)):
    lo, wid = float(band[0]), float(band[1]) - float(band[0])

    def value(t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        cut = smoothstep((t - r - lo) / wid)
        with np.errstate(invalid="ignore"):
            g = np.sqrt(np.maximum(1.0 - (r / t) ** 2, 0.0))
        return amp * g * cut

    return value


def support_probe_points(band):
    """(t, r) pairs with t - r below, at and above band[0], through the
    smoothstep interior and past the band, for scalar and array t."""
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


@pytest.mark.parametrize("band", [(1.0, 1.5), (0.25, 2.0)])
@pytest.mark.parametrize("mu,nu,amp", [(0.5, 0.5, 1.0), (0.5, -0.25, 0.97),
                                       (0.3, 0.2, 2.5)])
def test_wave_source_matches_full_grid_formula(band, mu, nu, amp):
    got_f = wave_source(mu, nu, amp, band=band)
    want_f = full_grid_wave_source(mu, nu, amp, band=band)
    for t, r in support_probe_points(band):
        got, want = got_f(t, r), want_f(t, r)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("band", [(1.0, 1.5), (0.25, 2.0)])
@pytest.mark.parametrize("amp", [0.1, 0.45])
def test_metric_pull_value_matches_full_grid_formula(band, amp):
    got_h = metric_pull(amp, band=band)
    want_h = full_grid_metric_value(amp, band=band)
    for t, r in support_probe_points(band):
        got, want = got_h(t, r), want_h(t, r)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(got_h.value(t, r), want)


# === margin checks on tiny runs ===

def test_kg_margin_zero_field_and_report_shape():
    rep = kg_bound_margin(ZERO_METRIC, InitialData.zero(), P, dx=0.1,
                          s_max=3.0, n_rays=5, n_s=4)
    assert rep["proposition"] == "kg-envelope"
    assert rep["max_ratio"] == 0.0
    assert rep["zero_envelope"]["max_weighted_value"] == 0.0
    assert rep["regime_counts"]["far"] + rep["regime_counts"]["near"] > 0
    json.dumps(rep)                             # fully serializable


def test_kg_margin_flat_bump():
    rep = kg_bound_margin(ZERO_METRIC, InitialData.bump(0.0, 0.1), P,
                          dx=0.05, s_max=4.0, n_rays=8, n_s=8)
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
    rep = kg_bound_margin(metric_pull(0.1), InitialData.bump(0.0, 0.1), P,
                          dx=0.05, s_max=4.0, n_rays=6, n_s=6)
    assert np.isfinite(rep["max_ratio"])
    assert rep["params"]["sourced"] is False
    json.dumps(rep)


def test_wave_margin_zero_source():
    rep = wave_bound_margin(0.5, 0.5, amp=0.0, dx=0.1, t_lo=6.0,
                            t_end=16.0, n_rays=5, n_t=4)
    assert rep["max_ratio"] == 0.0
    json.dumps(rep)


def test_wave_margin_small_run_both_branches():
    for nu in (0.5, -0.25):
        rep = wave_bound_margin(0.5, nu, dx=0.1, t_lo=6.0, t_end=20.0,
                                n_rays=6, n_t=5)
        assert 0.0 < rep["max_ratio"] < 10.0
        assert rep["skipped"] >= 0
        assert rep["per_decade_max_ratio"]
        json.dumps(rep)


def test_refinement_helpers():
    a = {"max_ratio": 1.0, "params": {"dx": 0.1}}
    b = {"max_ratio": 1.05, "params": {"dx": 0.05}}
    assert refinement_delta(a, b) == pytest.approx(0.05 / 1.05)
    merged = attach_refinement(b, a)
    assert merged["refinement_deltas"]["coarse_dx"] == 0.1
    assert merged["refinement_deltas"]["max_ratio_rel_change"] == \
        pytest.approx(0.05 / 1.05)
    assert refinement_delta({"max_ratio": 0.0}, {"max_ratio": 0.0}) == 0.0
