import math
from fractions import Fraction

import numpy as np
import pytest

from hfoil.util import (INTERP_OFFSETS, StencilRangeError, _basis_coeffs,
                        fd_weights, lagrange_weights, smoothstep,
                        smoothstep_d, trapezoid_weights)
from slice_reference import central_offsets, central_weights, window_weights


def _exact_solve(A, b):
    # Gaussian elimination over Fractions; stencil systems are tiny.
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1, 1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def vandermonde_weights(order, offsets):
    """Reference weights: the exact moment system sum_i w_i x_i^j =
    order! [j == order], solved in rational arithmetic."""
    n = len(offsets)
    A = [[Fraction(p) ** j for p in offsets] for j in range(n)]
    b = [Fraction(0)] * n
    b[order] = Fraction(math.factorial(order))
    return np.array([float(x) for x in _exact_solve(A, b)])


def test_central_second_derivative_is_three_point():
    assert central_offsets(2) == (-1, 0, 1)
    w = central_weights(2)
    assert np.allclose(w, [1.0, -2.0, 1.0])


def test_central_first_derivative():
    assert central_offsets(1) == (-1, 0, 1)
    assert np.allclose(central_weights(1), [-0.5, 0.0, 0.5])


def test_fd_weights_match_known_fourth_order_table():
    # five point first derivative: (1, -8, 0, 8, -1)/12
    w = fd_weights(1, (-2, -1, 0, 1, 2))
    assert np.allclose(w, np.array([1, -8, 0, 8, -1]) / 12.0)


def test_fd_weights_one_sided():
    # forward first derivative, three point: (-3, 4, -1)/2
    w = fd_weights(1, (0, 1, 2))
    assert np.allclose(w, np.array([-3, 4, -1]) / 2.0)


def test_fd_weights_exactness_on_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        order = rng.integers(1, 4)
        npts = order + 1 + rng.integers(0, 3)
        offs = tuple(range(-(npts // 2), npts - npts // 2))
        w = fd_weights(int(order), offs)
        # derivative of x^k at 0 must come out exactly for k < npts
        for k in range(npts):
            exact = float(math.factorial(k)) if k == order else 0.0
            got = sum(wi * (o ** k) for wi, o in zip(w, offs))
            assert got == pytest.approx(exact, abs=1e-9)


def test_fd_weights_fornberg_matches_vandermonde_reference():
    # every shift of the 11-point window the slice tables use, from
    # fully one-sided on the left to fully one-sided on the right
    for shift in range(-5, 6):
        offs = tuple(range(-5 + shift, 6 + shift))
        for order in range(11):
            assert np.array_equal(fd_weights(order, offs),
                                  vandermonde_weights(order, offs))
    offs = (-3, 0, 1, 4, 9)
    for order in range(5):
        assert np.array_equal(fd_weights(order, offs),
                              vandermonde_weights(order, offs))
    with pytest.raises(StencilRangeError):
        fd_weights(5, offs)
    with pytest.raises(ValueError):
        fd_weights(1, (0, 1, 1))


WINDOW6 = (-2, -1, 0, 1, 2, 3)


@pytest.mark.parametrize("offsets", [INTERP_OFFSETS, (-1, 0, 1, 2), WINDOW6,
                                     tuple(range(-2, 5))],
                         ids=["10-point", "4-point", "6-point", "7-point"])
def test_basis_coeffs_match_sympy_lagrange_basis(offsets):
    # the ascending coefficients of sympy's exact Lagrange basis, each
    # rounded to float once, bit for bit
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    want = np.zeros((len(offsets), len(offsets)))
    for k, ok in enumerate(offsets):
        basis = sympy.Integer(1)
        for oj in offsets:
            if oj != ok:
                basis *= sympy.Rational(1, ok - oj) * (x - oj)
        poly = sympy.Poly(sympy.expand(basis), x)
        for (d,), c in poly.terms():
            c = sympy.Rational(c)
            want[k, d] = float(Fraction(int(c.p), int(c.q)))
    assert np.array_equal(_basis_coeffs(tuple(offsets)).view(np.uint64),
                          want.view(np.uint64))


def test_lagrange_weights_reproduce_nodes():
    w = window_weights(np.array([0.0]), WINDOW6)
    # frac 0 sits on the third node of the 6 point window (-2..3)
    assert np.allclose(w[0], [0, 0, 1, 0, 0, 0], atol=1e-12)
    # the pool's 10-point window (-4..5): frac 0 is its fifth node
    w = lagrange_weights(np.array([0.0, 1.0]))
    assert w.shape == (2, 10)
    assert np.allclose(w, np.eye(10)[[4, 5]], atol=1e-12)


def test_lagrange_weights_interpolate_quintic_exactly():
    rng = np.random.default_rng(3)
    coef = rng.standard_normal(6)
    poly = np.polynomial.Polynomial(coef)
    offs = np.arange(-2, 4, dtype=float)
    vals = poly(offs)
    for frac in (0.13, 0.5, 0.92):
        w = window_weights(np.array([frac]), WINDOW6)
        assert w[0] @ vals == pytest.approx(poly(frac), rel=1e-12)
        wd = window_weights(np.array([frac]), WINDOW6, deriv=1)
        assert wd[0] @ vals == pytest.approx(poly.deriv()(frac), rel=1e-10)
    # the pool's weights reproduce the same quintic on their 10 nodes, and
    # are the test helper's deriv-0 weights bit for bit
    fracs = np.array([0.13, 0.5, 0.92, -3.5, 4.75])
    w = lagrange_weights(fracs)
    assert np.allclose(w @ poly(np.array(INTERP_OFFSETS, dtype=float)),
                       poly(fracs), rtol=1e-10)
    assert w.tobytes() == window_weights(fracs, INTERP_OFFSETS).tobytes()


def test_smoothstep_clamps_and_is_smooth():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(2.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    # derivative vanishes at the ends
    assert smoothstep_d(0.0) == pytest.approx(0.0, abs=1e-14)
    assert smoothstep_d(1.0) == pytest.approx(0.0, abs=1e-14)
    h = 1e-6
    mid = (smoothstep(0.3 + h) - smoothstep(0.3 - h)) / (2 * h)
    assert smoothstep_d(0.3) == pytest.approx(mid, rel=1e-5)


def clip_smoothstep(x):
    """The np.clip formula smoothstep must match bit for bit."""
    y = np.clip(x, 0.0, 1.0)
    return y * y * y * (y * (6.0 * y - 15.0) + 10.0)


def clip_smoothstep_d(x):
    y = np.clip(x, 0.0, 1.0)
    return 30.0 * y * y * (y - 1.0) * (y - 1.0)


CLAMP_EDGES = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
               -5e-324, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
               0.5, -2.0, 2.0]


@pytest.mark.parametrize("fn,ref", [(smoothstep, clip_smoothstep),
                                    (smoothstep_d, clip_smoothstep_d)])
def test_smoothstep_matches_clip_formula_bitwise(fn, ref):
    def same(got, want):
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))

    for v in CLAMP_EDGES:
        for x in (v, np.float64(v), np.array(v)):
            same(fn(x), ref(x))
    # arrays: every edge at every offset of short, SIMD-width and long
    # runs, unaligned views and a 2-D block
    rng = np.random.default_rng(2)
    big = np.concatenate([np.tile(CLAMP_EDGES, 20),
                          rng.uniform(-0.5, 1.5, 3000)])
    rng.shuffle(big)
    for off in range(9):
        for size in (1, 3, 7, 8, 15, 16, 17, 100, big.size - off):
            x = big[off:off + size]
            same(fn(x), ref(x))
    same(fn(big[:3000].reshape(30, 100)), ref(big[:3000].reshape(30, 100)))


def test_trapezoid_weights_integrate_linear_exactly():
    x = np.array([0.0, 0.5, 1.3, 2.0])
    w = trapezoid_weights(x)
    f = 3.0 * x + 1.0
    assert w @ f == pytest.approx(np.trapezoid(f, x), rel=1e-14)
