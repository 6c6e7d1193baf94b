import numpy as np
import pytest

from hfoil.fields import (EVEN, ODD, BoxGrid, FieldHistory, RadialGrid,
                          sample_history)
from hfoil.util import StencilRangeError


def radial_history(fn, dx=0.02, n=150, t0=2.0, dt=0.01, levels=9, parity=EVEN):
    g = RadialGrid(dx=dx, n=n)
    times = t0 + dt * np.arange(levels)
    return sample_history(fn, g, times, parity=parity)


def test_grid_axes():
    g = RadialGrid(dx=0.1, n=5)
    assert np.allclose(g.r(0, 5), [0, 0.1, 0.2, 0.3, 0.4])
    b = BoxGrid(dx=0.5, half=1.0)
    assert b.n == 5
    assert np.allclose(b.axis(0), [-1, -0.5, 0, 0.5, 1.0])


def test_radial_requires_parity():
    g = RadialGrid(dx=0.1, n=4)
    with pytest.raises(ValueError):
        FieldHistory(np.zeros((3, 4)), np.arange(3.0), g)


def test_tderiv_on_polynomial_in_t():
    h = radial_history(lambda t, r: t ** 2 + 0 * r)
    d1 = h.tderiv()
    assert np.allclose(d1.values, 2 * d1.t_col(), atol=1e-9)
    d2 = h.tderiv(order=2)
    assert np.allclose(d2.values, 2.0, atol=1e-7)
    # window shrinks by one level each side per radius
    assert d1.nlevels == h.nlevels - 2


def test_tderiv_insufficient_levels():
    h = radial_history(lambda t, r: t + 0 * r, levels=2)
    with pytest.raises(StencilRangeError):
        h.tderiv()


def test_radial_history_is_a_container():
    # radial histories store levels; no spatial stencil or coordinate
    # factor acts on them, so none can hand back a stale parity
    h = radial_history(lambda t, r: r ** 2 + 0 * t)
    for op in (lambda: h.sderiv(0), lambda: h.sderiv(0, order=2),
               lambda: h.mul_coord(0)):
        with pytest.raises(StencilRangeError):
            op()
    d = h.tderiv()
    assert d.parity == EVEN
    assert np.allclose(d.values, 0.0, atol=1e-9)


def test_alignment_intersects_windows():
    g = BoxGrid(dx=0.025, half=0.5)
    times = 2.0 + 0.01 * np.arange(9)
    h = sample_history(lambda t, x1, x2, x3: t * np.exp(
        -(x1 * x1 + x2 * x2 + x3 * x3)), g, times)
    a = h.tderiv()                      # loses one level each side
    b = h.sderiv(0).mul_coord(0)        # keeps levels, trims both x1 ends
    c = a + b
    assert c.nlevels == a.nlevels
    assert c.shape == b.shape
    x1 = c.coord(0)
    bump = np.exp(-(x1 * x1 + c.coord(1) ** 2 + c.coord(2) ** 2))
    exact = bump - 2 * x1 * x1 * c.t_col() * bump
    assert np.max(np.abs(c.values - exact)) < 1e-3


def test_add_rejects_parity_mismatch():
    even = radial_history(lambda t, r: r ** 2 + 0 * t)
    odd = radial_history(lambda t, r: r ** 3 + 0 * t, parity=ODD)
    with pytest.raises(ValueError):
        even + odd


def test_scalar_arithmetic():
    h = radial_history(lambda t, r: r ** 2 + 0 * t)
    assert np.allclose((h * 2.0).values, 2 * h.values)
    assert np.allclose((h + 1.0).values, h.values + 1)
    assert np.allclose((h - 1.0).values, h.values - 1)
    assert np.allclose((h - h).values, 0.0)


def test_box_sderiv_and_alignment():
    g = BoxGrid(dx=0.2, half=2.0)
    times = 3.0 + 0.05 * np.arange(7)
    h = sample_history(lambda t, x1, x2, x3: x1 * x2 + t * x3, g, times)
    d1 = h.sderiv(0)
    assert d1.lo == (1, 0, 0)
    x2 = d1.coord(1)
    assert np.allclose(d1.values, np.broadcast_to(x2, d1.values.shape), atol=1e-9)
    d3 = h.sderiv(2)
    tcol = d3.t_col()
    assert np.allclose(d3.values, np.broadcast_to(tcol, d3.values.shape), atol=1e-9)
    tot = d1 + d3
    assert tot.values.shape[1] == h.grid.n - 2


def test_time_window_intersection_uses_common_times():
    g = RadialGrid(dx=0.1, n=20)
    t1 = 1.0 + 0.1 * np.arange(8)
    t2 = 1.2 + 0.1 * np.arange(8)
    h1 = sample_history(lambda t, r: t + 0 * r, g, t1)
    h2 = sample_history(lambda t, r: 2 * t + 0 * r, g, t2)
    c = h1 + h2
    assert c.times[0] == pytest.approx(1.2)
    assert c.times[-1] == pytest.approx(1.7)
    assert np.allclose(c.values, 3 * c.t_col())
