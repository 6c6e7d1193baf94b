"""Shared numerical plumbing: finite-difference weights, Lagrange
interpolation, smooth cutoffs, quadrature weights, errors."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


# === errors ===

class FoliationError(Exception):
    """Base class for structured errors raised by this package."""


class StencilRangeError(FoliationError):
    """A centered stencil would leave the stored history or grid."""


class SliceCoverageError(FoliationError):
    """A hyperboloidal slice is not fully covered by the stored levels."""

    def __init__(self, msg, needed=None, available=None):
        super().__init__(msg)
        self.needed = needed
        self.available = available


class EmptyLatticeError(FoliationError):
    """A margin check's sample lattice holds no point its run can measure."""


class StabilityError(FoliationError):
    """Blow-up, CFL violation or hyperbolicity loss during evolution.

    Carries a structured report (kind, t, step, location, value).
    """

    def __init__(self, detail, report=None):
        report = dict(report or {})
        bits = [detail]
        if report:
            bits.append("(" + ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                                        else f"{k}={v}"
                                        for k, v in report.items()) + ")")
        super().__init__(" ".join(bits))
        self.report = report


class ConfigError(FoliationError):
    """Config parse/validation failure with line and field context."""

    def __init__(self, msg, line=None, field=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + msg)
        self.line = line
        self.field = field


# === finite-difference weights ===

@lru_cache(maxsize=None)
def _fornberg_table(offsets: tuple) -> tuple:
    """Exact weights of every derivative order 0..n-1 at x = 0 on the
    integer `offsets`, as rows of Fractions.

    One pass of Fornberg's recursion (Math. Comp. 51 (1988) 699): node i
    is added to the stencil of nodes 0..i-1 by updating the weights of
    all orders at once.
    """
    x = [Fraction(o) for o in offsets]
    n = len(x)
    if len(set(x)) != n:
        raise ValueError(f"stencil offsets {offsets} are not distinct")
    c = [[Fraction(0)] * n for _ in range(n)]   # c[order][node]
    c[0][0] = Fraction(1)
    c1 = Fraction(1)
    for i in range(1, n):
        c2 = Fraction(1)
        for j in range(i):
            c2 *= x[i] - x[j]
        # the new node first, from node i-1 as it stood on nodes 0..i-1
        for k in range(i, 0, -1):
            c[k][i] = c1 * (k * c[k - 1][i - 1] - x[i - 1] * c[k][i - 1]) / c2
        c[0][i] = -c1 * x[i - 1] * c[0][i - 1] / c2
        for j in range(i):
            c3 = x[i] - x[j]
            for k in range(i, 0, -1):
                c[k][j] = (x[i] * c[k][j] - k * c[k - 1][j]) / c3
            c[0][j] = x[i] * c[0][j] / c3
        c1 = c2
    return tuple(tuple(row) for row in c)


@lru_cache(maxsize=None)
def fd_weights(order: int, offsets: tuple) -> np.ndarray:
    """Exact finite-difference weights for d^order/dx^order on integer
    `offsets` at unit spacing.  Divide by h**order for spacing h.

    The weights of all orders on one stencil come from a single exact
    rational Fornberg pass, so the returned float weights are correctly
    rounded.
    """
    n = len(offsets)
    if order >= n:
        raise StencilRangeError(
            f"{n}-point stencil cannot produce derivative order {order}")
    return np.array([float(w) for w in _fornberg_table(offsets)[order]])


# === Lagrange interpolation on uniform nodes ===

@lru_cache(maxsize=None)
def _basis_coeffs(offsets: tuple) -> np.ndarray:
    """Polynomial coefficients (ascending) of each Lagrange basis
    function on the given nodes, exact rationals rounded to float.

    The d-th derivative at x = 0 of basis function k is its weight in
    the order-d row of the Fornberg table, so its x^d coefficient is
    that weight over d!.
    """
    table = _fornberg_table(offsets)
    n = len(offsets)
    return np.array([[float(table[d][k] / math.factorial(d))
                      for d in range(n)] for k in range(n)])


# the 10 nodes of QueryPool's window relative to its base index; a
# centered query offset lies in [0, 1)
INTERP_OFFSETS = tuple(range(-4, 6))


def lagrange_weights(frac) -> np.ndarray:
    """Interpolation weights on the uniform nodes INTERP_OFFSETS for
    query offsets `frac` relative to the base node; any position the
    window covers is valid.  Returns shape (len(frac), 10)."""
    C = _basis_coeffs(INTERP_OFFSETS)
    frac = np.asarray(frac, dtype=float)
    powers = frac[..., None] ** np.arange(len(INTERP_OFFSETS))
    return powers @ C.T


# === smooth cutoffs ===

def _unit_clamp(x):
    """np.clip(x, 0.0, 1.0) bit for bit, NaN and -0.0 included, without
    np.clip's Python wrapper: on a tie numpy's maximum and minimum return
    their second operand, so x is kept at x = -0.0."""
    return np.minimum(1.0, np.maximum(0.0, x))


def smoothstep(x):
    """C^2 ramp: 0 for x<=0, 1 for x>=1, quintic in between."""
    y = _unit_clamp(x)
    return y * y * y * (y * (6.0 * y - 15.0) + 10.0)


def smoothstep_d(x):
    """Derivative of :func:`smoothstep` with respect to x."""
    y = _unit_clamp(x)
    return 30.0 * y * y * (y - 1.0) * (y - 1.0)


# === quadrature ===

def trapezoid_weights(x) -> np.ndarray:
    """Trapezoid quadrature weights for (possibly nonuniform) nodes."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return np.zeros_like(x)
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w
