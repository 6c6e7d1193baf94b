import numpy as np
import pytest

from hfoil import (EVEN, BoxGrid, RadialGrid, SliceCoverageError,
                   apply_boost, apply_frame_tangent, apply_perp, chi_of,
                   cone_entry_radius, dalembertian_cartesian,
                   dalembertian_frame, hyperbolic_radius, in_cone,
                   interpolate_to_slice, make_chart, sample_history,
                   slice_radius_cap)
from hfoil.geometry import slice_cone_margin


# --- symbolic oracle for the frame decomposition of the d'Alembertian ---

def test_frame_decomposition_identity_symbolic():
    sympy = pytest.importorskip("sympy")
    t, x1, x2, x3 = sympy.symbols("t x1 x2 x3", positive=True)
    w = sympy.Function("w")(t, x1, x2, x3)
    xs = (x1, x2, x3)
    s2 = t ** 2 - x1 ** 2 - x2 ** 2 - x3 ** 2

    def frame(expr, a):
        return sympy.diff(expr, xs[a]) + xs[a] / t * sympy.diff(expr, t)

    assembled = -(s2 / t ** 2) * sympy.diff(w, t, 2)
    for a in range(3):
        assembled += -xs[a] / t * sympy.diff(frame(w, a), t)
        assembled += -xs[a] / t * frame(sympy.diff(w, t), a)
        assembled += frame(frame(w, a), a)
    assembled += -3 / t * sympy.diff(w, t)
    box = -sympy.diff(w, t, 2) + sum(sympy.diff(w, x, 2) for x in xs)
    assert sympy.simplify(assembled - box) == 0


# --- pointwise geometry, frozen values ---

def test_hyperbolic_radius_values():
    assert hyperbolic_radius(5.0, (3.0, 0.0, 0.0)) == pytest.approx(4.0)
    assert hyperbolic_radius(2.0, 0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hyperbolic_radius(1.0, (2.0, 0.0, 0.0))


def test_cone_membership():
    assert in_cone(5.0, (3.0, 0.0, 0.0))
    assert in_cone(5.0, (4.0, 0.0, 0.0))          # boundary included
    assert not in_cone(5.0, (4.1, 0.0, 0.0))


def test_cone_entry_radius_values():
    # (t+r)/(t-r) = 8/2 at t=5, r=3
    assert cone_entry_radius(5.0, 3.0) == pytest.approx(2.0)
    assert cone_entry_radius(7.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cone_entry_radius(3.0, 3.0)
    # chi is its logarithm
    assert chi_of(5.0, 3.0) == pytest.approx(np.log(2.0))


def test_cone_entry_is_slice_label_of_ray_entry():
    # the straight ray through (t, r) meets |x| = t - 1 at radius S
    rng = np.random.default_rng(5)
    for _ in range(25):
        t = rng.uniform(3.0, 50.0)
        r = rng.uniform(0.0, t - 1.5)
        S = cone_entry_radius(t, r)
        lam = S / np.sqrt(t * t - r * r)
        te, re = lam * t, lam * r
        assert te - re == pytest.approx(1.0, rel=1e-12)
        assert np.sqrt(te * te - re * re) == pytest.approx(S)


def test_slice_radius_cap_hits_the_shifted_cone():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = rng.uniform(1.5, 40.0)
        m = rng.uniform(0.0, 0.3)
        rc = slice_radius_cap(s, m)
        if rc == 0.0:
            assert s <= 1.0 + m
            continue
        t = np.sqrt(s * s + rc * rc)
        assert t - rc == pytest.approx(1.0 + m, rel=1e-12)


# --- discrete operators: frozen spot values and exactness on quadratics ---

def quadratic_history(mode, dx=0.05, levels=9):
    times = 5.0 + dx * np.arange(levels)
    if mode == "radial":
        g = RadialGrid(dx=dx, n=120)
        return sample_history(lambda t, r: t * t - r * r, g, times, parity=EVEN)
    g = BoxGrid(dx=0.25, half=1.5)
    return sample_history(lambda t, x1, x2, x3: t * t - x1 * x1 - x2 * x2 - x3 * x3,
                          g, times)


@pytest.mark.parametrize("mode", ["radial", "box"])
def test_dalembertian_exact_on_interval_quadratic(mode):
    h = quadratic_history(mode)
    assert np.allclose(dalembertian_cartesian(h).values, -8.0, atol=1e-9)
    assert np.allclose(dalembertian_frame(h).values, -8.0, atol=1e-9)


def test_boost_frozen_values():
    # L_a t = x_a and L_1 x1 = t
    g = BoxGrid(dx=0.25, half=1.5)
    times = 5.0 + 0.25 * np.arange(5)
    ht = sample_history(lambda t, x1, x2, x3: t + 0 * x1, g, times)
    hx = sample_history(lambda t, x1, x2, x3: x1 + 0 * t, g, times)
    for a in range(3):
        b = apply_boost(ht, a)
        assert np.allclose(b.values, np.broadcast_to(b.coord(a), b.values.shape),
                           atol=1e-9)
    b = apply_boost(hx, 0)
    assert np.allclose(b.values, np.broadcast_to(b.t_col(), b.values.shape),
                       atol=1e-9)
    # boosts annihilate t^2 - |x|^2
    hq = quadratic_history("box")
    for a in range(3):
        assert np.allclose(apply_boost(hq, a).values, 0.0, atol=1e-9)


def test_perp_frozen_value():
    # perp(t^2 - r^2) = 2 s^2 / t; at t=5, r=3 this is 6.4
    h = quadratic_history("radial")
    p = apply_perp(h)
    t0 = h.times[4]
    assert t0 == pytest.approx(5.2)
    hp = sample_history(lambda t, r: t * t - r * r,
                        RadialGrid(dx=0.05, n=120), 5.0 + 0.05 * np.arange(9),
                        parity=EVEN)
    val = apply_perp(hp).value_at(5.2, (3.0,))
    assert val == pytest.approx(2 * (5.2 ** 2 - 9.0) / 5.2, abs=1e-9)
    # frozen reference point (t=5, r=3) via a window centered there
    h2 = sample_history(lambda t, r: t * t - r * r,
                        RadialGrid(dx=0.05, n=120), 4.9 + 0.05 * np.arange(5),
                        parity=EVEN)
    assert apply_perp(h2).value_at(5.0, (3.0,)) == pytest.approx(6.4, abs=1e-9)


def test_frame_tangent_matches_analytic():
    g = RadialGrid(dx=0.02, n=300)
    times = 6.0 + 0.02 * np.arange(9)
    h = sample_history(lambda t, r: np.sin(r) / np.maximum(r, 1e-300) if False else np.cos(r) * t,
                       g, times, parity=EVEN)
    f = apply_frame_tangent(h)
    t = f.t_col()
    r = f.coord(0)
    exact = (r / t) * np.cos(r) - t * np.sin(r)
    assert np.max(np.abs(f.values - exact)) < 5e-4


def test_dalembertian_routes_agree_on_smooth_field():
    g = RadialGrid(dx=0.02, n=400)
    times = 6.0 + 0.02 * np.arange(11)
    h = sample_history(lambda t, r: np.exp(-0.5 * r * r) * np.cos(0.7 * t),
                       g, times, parity=EVEN)
    a = dalembertian_cartesian(h)
    b = dalembertian_frame(h)
    d = a - b
    assert np.max(np.abs(d.values)) < 2e-3


def test_exactness_on_random_even_quadratics():
    rng = np.random.default_rng(31)
    g = RadialGrid(dx=0.04, n=150)
    times = 4.0 + 0.04 * np.arange(9)
    for _ in range(10):
        a, b, c, d = rng.standard_normal(4)
        h = sample_history(lambda t, r: a * t * t + b * r * r + c * t + d,
                           g, times, parity=EVEN)
        box = dalembertian_frame(h)
        assert np.allclose(box.values, -2 * a + 6 * b, atol=1e-8)


# --- slice charts and interpolation ---

def test_chart_quadrature_matches_flat_volume():
    g = RadialGrid(dx=0.05, n=420)
    chart = make_chart(g, 4.3, cone_margin=0.1)
    w = chart.quad_weights()
    vol = np.sum(w)
    rc = chart.r.max()
    assert vol == pytest.approx(4.0 / 3.0 * np.pi * rc ** 3, rel=1e-4)


def test_chart_default_margin_is_the_slice_cone_margin():
    for g in (RadialGrid(dx=0.05, n=420), BoxGrid(dx=0.1, half=2.0)):
        chart = make_chart(g, 3.1)
        assert chart.cone_margin == slice_cone_margin(g.dx) == 2.0 * g.dx
        same = make_chart(g, 3.1, cone_margin=slice_cone_margin(g.dx))
        if g.mode == "radial":
            assert np.array_equal(chart.chi, same.chi)
        else:
            assert np.array_equal(chart.x, same.x)


def test_interpolate_to_slice_radial_accuracy():
    g = RadialGrid(dx=0.05, n=420)
    times = 4.0 + 0.05 * np.arange(110)
    h = sample_history(lambda t, r: np.exp(-r * r) * np.cos(t), g, times,
                       parity=EVEN)
    sm = interpolate_to_slice(h, 4.3)
    ex = np.exp(-sm.r ** 2) * np.cos(sm.t)
    assert np.max(np.abs(sm.value - ex)) < 1e-5
    assert np.max(np.abs(sm.dt + np.exp(-sm.r ** 2) * np.sin(sm.t))) < 1e-4
    assert np.max(np.abs(sm.grad + 2 * sm.r * np.exp(-sm.r ** 2) * np.cos(sm.t))) < 5e-4


def test_interpolate_reports_missing_coverage():
    g = RadialGrid(dx=0.05, n=420)
    times = 4.0 + 0.05 * np.arange(10)
    h = sample_history(lambda t, r: 0 * r + t, g, times, parity=EVEN)
    with pytest.raises(SliceCoverageError) as ei:
        interpolate_to_slice(h, 4.3)
    assert ei.value.needed[1] > ei.value.available[1]


def test_slice_energy_of_linear_time_field_is_volume():
    # w = t has (s/t) d_t w = s/t, frame_a w = x_a/t, so the density is 1
    g = RadialGrid(dx=0.05, n=420)
    times = 4.0 + 0.05 * np.arange(110)
    h = sample_history(lambda t, r: t * np.ones_like(r), g, times, parity=EVEN)
    sm = interpolate_to_slice(h, 4.3)
    E = np.sum(sm.chart.quad_weights() * sm.energy_density())
    rc = sm.r.max()
    assert E == pytest.approx(4.0 / 3.0 * np.pi * rc ** 3, rel=1e-4)


def test_box_slice_sampling():
    g = BoxGrid(dx=0.25, half=3.2)
    times = 2.0 + 0.1 * np.arange(22)
    h = sample_history(lambda t, x1, x2, x3: t + x1 * x1, g, times)
    sm = interpolate_to_slice(h, 2.4)
    assert np.max(np.abs(sm.value - (sm.t + sm.chart.x[:, 0] ** 2))) < 1e-8
    assert np.max(np.abs(sm.dt - 1.0)) < 1e-8
    assert np.max(np.abs(sm.grad[:, 0] - 2 * sm.chart.x[:, 0])) < 1e-8
    assert np.max(np.abs(sm.grad[:, 1])) < 1e-8
    # all chart points lie strictly inside the truncated cone
    assert np.all(sm.r <= sm.t - 1.0 - sm.chart.cone_margin + 1e-12)


def test_boost_on_slice_sample_matches_history_operator():
    g = RadialGrid(dx=0.02, n=500)
    times = 3.0 + 0.02 * np.arange(120)
    h = sample_history(lambda t, r: np.exp(-r * r / 4) * np.sin(0.5 * t), g,
                       times, parity=EVEN)
    hb = apply_boost(h)
    sm = interpolate_to_slice(h, 3.2, cone_margin=1.2)
    vals = sm.boost()
    for i in range(0, len(sm.t), 37):
        t, r = sm.t[i], sm.r[i]
        j = int(round((t - hb.times[0]) / hb.dt))
        if 0 <= j < hb.nlevels and abs(hb.times[j] - t) < 1e-9:
            k = int(round(r / g.dx))
            if abs(k * g.dx - r) < 1e-9:
                assert vals[i] == pytest.approx(hb.values[j, k], abs=1e-5)
