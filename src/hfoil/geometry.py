"""Foliation geometry: the boost frame adapted to the hyperboloidal
slices, and the cone margin of the slice charts.

Conventions used throughout the package:

* slices H_s = {t^2 - |x|^2 = s^2, t > 0}, labelled by the hyperbolic
  radius s;
* working region K = {|x| <= t - 1}, the interior of a shifted light
  cone, inside which s <= t <= s^2;
* boosts L_a = x_a d_t + t d_a; frame tangents are L_a / t;
* d'Alembertian with the -d_t^2 + Laplacian sign.

The frame operators act on box histories (3D Cartesian grids), where
the frame-identity suite checks the d'Alembertian assembled in the
boost frame against the Cartesian one.  Radial runs never difference a
history: their slice derivatives come from the QueryPool lattices and
chain-rule expansions in :mod:`hfoil.analysis`.
"""
from __future__ import annotations

from .fields import FieldHistory


# === frame operators on box histories ===

def _scale(h: FieldHistory, fn) -> FieldHistory:
    """Multiply by a coefficient built from the window coordinates."""
    arr = fn(h.t_col(), h.coord(0), h.coord(1), h.coord(2))
    return h.copy_meta(h.values * arr)


def apply_frame_tangent(h: FieldHistory, a: int = 0) -> FieldHistory:
    """The slice-tangent frame derivative L_a / t = d_a + (x_a/t) d_t."""
    return h.sderiv(a) + h.tderiv().mul_coord(a).div_t()


def dalembertian_cartesian(h: FieldHistory) -> FieldHistory:
    """-d_t^2 + Laplacian, centered second differences."""
    out = h.tderiv(order=2) * -1.0
    for a in range(3):
        out = out + h.sderiv(a, order=2)
    return out


def dalembertian_frame(h: FieldHistory) -> FieldHistory:
    """The d'Alembertian assembled in the boost frame.

    Composes discrete frame derivatives according to

        box u = -(s^2/t^2) d_t d_t u - (x^a/t) d_t (L_a u / t)
                - (x^a/t) (L_a/t)(d_t u) + sum_a (L_a/t)(L_a/t) u
                - (3/t) d_t u

    and must agree with :func:`dalembertian_cartesian` up to stencil
    truncation error (exactly, on quadratics).
    """
    dtw = h.tderiv()
    def s2_over_t2(t, x1, x2, x3):
        return (t * t - x1 * x1 - x2 * x2 - x3 * x3) / (t * t)
    out = _scale(h.tderiv(order=2), lambda t, *x: -s2_over_t2(t, *x))
    for a in range(3):
        fa = apply_frame_tangent(h, a)
        coeff = lambda t, *x, _a=a: x[_a] / t
        out = out - _scale(fa.tderiv(), coeff)
        out = out - _scale(apply_frame_tangent(dtw, a), coeff)
        out = out + apply_frame_tangent(fa, a)
    return out - _scale(dtw, lambda t, *x: 3.0 / t)


# === slice charts ===

def slice_cone_margin(dx: float) -> float:
    """How far inside the shifted cone |x| = t - 1 the slice charts of a
    run with radial step dx stop: 2 dx.  Grid plans, run lengths and the
    suite's tabulated charts all take it from here."""
    return 2.0 * dx
