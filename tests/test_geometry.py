import numpy as np
import pytest

from hfoil import (EVEN, BoundParams, BoxGrid, RadialGrid, RayCoords,
                   SliceCoverageError, apply_frame_tangent,
                   dalembertian_cartesian, dalembertian_frame,
                   sample_history, slice_cone_margin)
from slice_reference import (apply_boost, interpolate_to_slice, make_chart,
                             slice_radius_cap)


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


# --- cone geometry ---

def test_cone_entry_is_slice_label_of_ray_entry():
    # the straight ray through (t, r) meets |x| = t - 1 at radius S, the
    # start of the envelope's near-regime rays
    rng = np.random.default_rng(5)
    for _ in range(25):
        t = rng.uniform(3.0, 50.0)
        r = rng.uniform(0.0, t - 1.5)
        S = RayCoords(t, r, BoundParams()).S
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

def quadratic_history(dx=0.05, levels=9):
    times = 5.0 + dx * np.arange(levels)
    g = BoxGrid(dx=0.25, half=1.5)
    return sample_history(lambda t, x1, x2, x3: t * t - x1 * x1 - x2 * x2 - x3 * x3,
                          g, times)


@pytest.mark.parametrize("mode", ["box"])
def test_dalembertian_exact_on_interval_quadratic(mode):
    h = quadratic_history()
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
    hq = quadratic_history()
    for a in range(3):
        assert np.allclose(apply_boost(hq, a).values, 0.0, atol=1e-9)


def test_frame_tangent_matches_analytic():
    # w = t cos(x1 + x2/2): d_t w is exact on three levels, so the error
    # is the centered d_a defect, at most dx^2 t / 6 <= 2.25e-3 here
    dx = 0.05
    g = BoxGrid(dx=dx, half=0.6)
    times = 5.0 + dx * np.arange(9)
    h = sample_history(lambda t, x1, x2, x3: t * np.cos(x1 + 0.5 * x2 + 0 * x3),
                       g, times)
    for a, da in ((0, 1.0), (1, 0.5), (2, 0.0)):
        f = apply_frame_tangent(h, a)
        t = f.t_col()
        x = [f.coord(b) for b in range(3)]
        phase = x[0] + 0.5 * x[1]
        exact = -da * t * np.sin(phase) + (x[a] / t) * np.cos(phase)
        err = np.max(np.abs(f.values - exact))
        assert err < dx * dx * float(times[-1]) / 6.0


def test_exactness_on_random_even_quadratics():
    rng = np.random.default_rng(31)
    g = BoxGrid(dx=0.25, half=1.5)
    times = 4.0 + 0.25 * np.arange(9)
    for _ in range(10):
        a, b, c, d = rng.standard_normal(4)
        h = sample_history(lambda t, x1, x2, x3: a * t * t + c * t + d
                           + b * (x1 * x1 + x2 * x2 + x3 * x3), g, times)
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
