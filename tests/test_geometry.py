import numpy as np
import pytest

from hfoil import (BoundParams, RadialGrid, RayCoords, SliceCoverageError,
                   slice_cone_margin)
from slice_reference import (EVEN, BoxGrid, apply_boost,
                             interpolate_to_slice, make_chart,
                             sample_history, sample_radial_history,
                             slice_radius_cap)


# --- symbolic oracles for the frame forms of the d'Alembertian ---

def test_radial_box_hyperboloidal_form_symbolic():
    # the form the frame-identity suite reads off its derivative tables:
    # under t = s cosh(chi), r = s sinh(chi),
    # -d_t^2 + d_r^2 + (2/r) d_r
    #   = -d_s^2 - (3/s) d_s + s^-2 (d_chi^2 + 2 coth(chi) d_chi).
    # Checked on exp(a t + b r) for symbolic a and b: its Taylor
    # coefficients in (a, b) are every monomial t^i r^j, so the two
    # linear operators agree on all polynomials
    sympy = pytest.importorskip("sympy")
    s, chi = sympy.symbols("s chi", positive=True)
    t, r = sympy.symbols("t r", positive=True)
    a, b = sympy.symbols("a b")
    f = sympy.exp(a * t + b * r)
    on_chart = {t: s * sympy.cosh(chi), r: s * sympy.sinh(chi)}
    cartesian = (-sympy.diff(f, t, 2) + sympy.diff(f, r, 2)
                 + 2 / r * sympy.diff(f, r)).subs(on_chart)
    w = f.subs(on_chart)
    hyperboloidal = (-sympy.diff(w, s, 2) - 3 / s * sympy.diff(w, s)
                     + (sympy.diff(w, chi, 2)
                        + 2 * sympy.coth(chi) * sympy.diff(w, chi)) / s ** 2)
    gap = sympy.Poly(sympy.expand((cartesian - hyperboloidal) / w), a, b)
    assert all(sympy.simplify(c.rewrite(sympy.exp)) == 0
               for c in gap.coeffs())


def test_frame_decomposition_identity_symbolic():
    # the paper's boost-frame form in 3D, whose radial reduction is the
    # hyperboloidal form above
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


# --- boosts on box histories: frozen spot values ---

def quadratic_history(dx=0.05, levels=9):
    times = 5.0 + dx * np.arange(levels)
    g = BoxGrid(dx=0.25, half=1.5)
    return sample_history(lambda t, x1, x2, x3: t * t - x1 * x1 - x2 * x2 - x3 * x3,
                          g, times)


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
    h = sample_radial_history(lambda t, r: np.exp(-r * r) * np.cos(t), g,
                              times, parity=EVEN)
    sm = interpolate_to_slice(h, 4.3)
    ex = np.exp(-sm.r ** 2) * np.cos(sm.t)
    assert np.max(np.abs(sm.value - ex)) < 1e-5
    assert np.max(np.abs(sm.dt + np.exp(-sm.r ** 2) * np.sin(sm.t))) < 1e-4
    assert np.max(np.abs(sm.grad + 2 * sm.r * np.exp(-sm.r ** 2) * np.cos(sm.t))) < 5e-4


def test_interpolate_reports_missing_coverage():
    g = RadialGrid(dx=0.05, n=420)
    times = 4.0 + 0.05 * np.arange(10)
    h = sample_radial_history(lambda t, r: 0 * r + t, g, times, parity=EVEN)
    with pytest.raises(SliceCoverageError) as ei:
        interpolate_to_slice(h, 4.3)
    assert ei.value.needed[1] > ei.value.available[1]


def test_slice_energy_of_linear_time_field_is_volume():
    # w = t has (s/t) d_t w = s/t, frame_a w = x_a/t, so the density is 1
    g = RadialGrid(dx=0.05, n=420)
    times = 4.0 + 0.05 * np.arange(110)
    h = sample_radial_history(lambda t, r: t * np.ones_like(r), g, times,
                              parity=EVEN)
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
