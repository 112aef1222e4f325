"""Radial C-infinity bump, its Fourier transforms, and derived integral tables.

Every explicit construction downstream (tube families, collision densities,
sharpness integrands) reduces to a single scalar profile chi together with a
handful of transforms, marginals, and moments.  This module builds those
tables once, with quadrature accuracy far beyond the tolerances any consumer
asserts, and exposes them through two small table-backed objects:

  * BumpProfile -- chi(r) = exp(1 - 1/(1 - r^2)) on r < 1, its 1D/2D/3D
    radial Fourier transforms on a logarithmic frequency grid, plane/line
    marginals, and scalar moments.  The sharpness integral reads its
    profiles in frequency: the chord profile line_marginal through its 1-D
    transform, which is hat(., 2), and the squared slice profile
    plane_marginal(squared=True) through a cosine transform of its table.
  * TimeCutoff  -- the even plateau window (1 on |t| <= plateau, smooth ramp
    to 0 at plateau + ramp) and its cosine transform.

Both transform tables are read by `_UniformSpline`, the not-a-knot cubic
spline on their uniform grid (in log frequency for BumpProfile).

The ramp is `smoothstep`, the one C-infinity step of the package; the
norms' plateau windows and dyadic projectors are built from it too.

Fourier convention: f_hat(eta) = integral f(x) exp(-2 pi i x.eta) dx, the same
unitary convention the spectral grids use, so tables and grid transforms can
be mixed freely.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import j0

from .grids import blocks, uniform_read

__all__ = [
    "BumpProfile",
    "TimeCutoff",
    "chi",
    "chi_prime",
    "default_bump",
    "default_cutoff",
    "gauss_on",
    "smoothstep",
]


# ---------------------------------------------------------------------------
# The profile and elementary quadrature helpers
# ---------------------------------------------------------------------------

def chi(r) -> np.ndarray:
    """The radial bump exp(1 - 1/(1 - r^2)) for |r| < 1, zero outside.

    chi(0) = 1, chi is even, nonnegative, nonincreasing in |r|, and vanishes
    with all derivatives at |r| = 1 (it underflows to an exact 0.0 well before
    the edge, so support tests hold in floating point, not just in analysis).
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    if np.any(inside):
        q = 1.0 - r[inside] ** 2
        out[inside] = np.exp(1.0 - 1.0 / q)
    return out


def smoothstep(t) -> np.ndarray:
    """C-infinity monotone step: 0 for t<=0, 1 for t>=1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    if np.any(mid):
        tm = t[mid]
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
        out[mid] = a / (a + b)
    return out


def chi_prime(r) -> np.ndarray:
    """d chi / dr (odd; equals -2r/(1-r^2)^2 * chi inside the support)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    if np.any(inside):
        ri = r[inside]
        q = 1.0 - ri**2
        out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * ri) / q**2
    return out


@lru_cache(maxsize=32)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b].

    Above 128 nodes the rule is assembled from 64-node panels (node finding
    is quadratic in the order, and a composite rule of the same total count
    is just as accurate for the smooth/oscillatory integrands used here).
    """
    if not b > a:
        raise ValueError("gauss_on needs b > a")
    n = int(n)
    if n <= 128:
        x, w = _legendre(n)
        half = 0.5 * (b - a)
        return a + half * (x + 1.0), half * w
    panels = -(-n // 64)
    edges = np.linspace(a, b, panels + 1)
    x, w = _legendre(64)
    half = 0.5 * (edges[1] - edges[0])
    nodes = (edges[:-1, None] + half * (x + 1.0)[None, :]).ravel()
    weights = np.broadcast_to(half * w, (panels, 64)).ravel().copy()
    return nodes, weights


# ---------------------------------------------------------------------------
# BumpProfile
# ---------------------------------------------------------------------------

class BumpProfile:
    """Tables for chi: radial transforms, marginals, and scalar moments.

    Attributes
    ----------
    r_grid, chi_table : the profile sampled at 512 uniform points of [0, 1]
    rho_grid          : n_rho log-spaced frequencies on [rho_min, rho_max],
                        fixed at [0.02, 64]
    hat_tables        : dict dim -> transform values on rho_grid (dim=1,2,3)
    integral_1d/2d/3d : integrals of chi over R^d (chi extended radially)
    l2sq_1d/2d/3d     : squared L^2 masses over R^d
    grad_l2sq_3d      : squared L^2 mass of the radial gradient over R^3
    sup_abs_grad      : max_r |chi'(r)|, attained at r = 3^(-1/4)
    roundtrip_rel_error : sup-norm error of inverse-transforming the 3D table
                          (a diagnostic, computed on first read)

    The transform pairs used (radial profiles, unitary e^{-2 pi i x.eta}):
        dim 1:  2  int chi(r) cos(2 pi rho r) dr
        dim 2:  2 pi int chi(r) J0(2 pi rho r) r dr
        dim 3:  4 pi int chi(r) sinc(2 rho r) r^2 dr      (numpy sinc)
    Below rho_min the transforms are evaluated by their even Taylor expansion
    about 0; beyond rho_max they are 0 (the tail is below 1e-12 there).

    The moments and transforms use a Gauss rule of quad_nodes nodes on
    [0, 1], by default 512: 8 panels of 64 nodes, so the highest table
    frequency rho_max = 64 gets 8 nodes per period.  That rule has converged:
    every transform table is within 2.6e-15 (absolute) of the 2048-node
    rule's and the moments within 4.4e-16.  rho_max is fixed: that rule
    under-resolves higher frequencies (1.6e-7 off at rho_max = 256).

    The transform tables and the round-trip check are built in row blocks of
    the `grids.blocks` budget, not as whole (n_rho x quad_nodes) outer
    products.  At power-of-two sizes every block holds a power-of-two number
    of rows, and the tables equal the whole-matrix products bit for bit.
    The marginals are read with `grids.uniform_read`.
    """

    rho_min, rho_max = 0.02, 64.0

    def __init__(self, n_rho: int = 4096, quad_nodes: int = 512):
        self.r_grid = np.linspace(0.0, 1.0, 512)
        self.chi_table = chi(self.r_grid)

        rq, wq = gauss_on(0.0, 1.0, int(quad_nodes))
        cq = chi(rq)

        # moments ----------------------------------------------------------
        self.integral_1d = 2.0 * float(wq @ cq)
        self.integral_2d = 2.0 * np.pi * float(wq @ (cq * rq))
        self.integral_3d = 4.0 * np.pi * float(wq @ (cq * rq**2))
        self.l2sq_1d = 2.0 * float(wq @ cq**2)
        self.l2sq_2d = 2.0 * np.pi * float(wq @ (cq**2 * rq))
        self.l2sq_3d = 4.0 * np.pi * float(wq @ (cq**2 * rq**2))
        dq = chi_prime(rq)
        self.grad_l2sq_1d = 2.0 * float(wq @ dq**2)
        self.grad_l2sq_2d = 2.0 * np.pi * float(wq @ (dq**2 * rq))
        self.grad_l2sq_3d = 4.0 * np.pi * float(wq @ (dq**2 * rq**2))
        # |chi'| peaks where 1 - r^2 = 1 - 1/sqrt(3), i.e. at r = 3^(-1/4)
        self.sup_abs_grad = float(np.abs(chi_prime(3.0 ** -0.25)))

        # transform tables ---------------------------------------------------
        log_lo = np.log(self.rho_min)
        log_step = (np.log(self.rho_max) - log_lo) / (int(n_rho) - 1)
        self.rho_grid = np.exp(
            np.linspace(log_lo, np.log(self.rho_max), int(n_rho)))
        self.hat_tables = {d: np.empty(self.rho_grid.size) for d in (1, 2, 3)}
        for sl in blocks(self.rho_grid.size, rq.size):
            arg = np.outer(self.rho_grid[sl], rq)  # (rows, quad)
            self.hat_tables[1][sl] = 2.0 * (np.cos(2.0 * np.pi * arg) * cq) @ wq
            self.hat_tables[2][sl] = (2.0 * np.pi
                                      * (j0(2.0 * np.pi * arg) * (cq * rq)) @ wq)
            self.hat_tables[3][sl] = (4.0 * np.pi
                                      * (np.sinc(2.0 * arg) * (cq * rq**2)) @ wq)
        # Even Taylor data for rho < rho_min:  hat_d(rho) ~ zero_d - curv_d rho^2.
        four_pi2 = (2.0 * np.pi) ** 2
        self._hat_zero = {1: self.integral_1d, 2: self.integral_2d,
                          3: self.integral_3d}
        self._hat_curv = {
            1: four_pi2 * float(wq @ (cq * rq**2)),
            2: (four_pi2 / 4.0) * 2.0 * np.pi * float(wq @ (cq * rq**3)),
            3: (four_pi2 / 6.0) * 4.0 * np.pi * float(wq @ (cq * rq**4)),
        }
        self._hat_splines = {d: _UniformSpline(self.hat_tables[d], log_lo, log_step)
                             for d in (1, 2, 3)}

        # marginal tables ----------------------------------------------------
        # plane marginal of a radial 3D profile g: 2 pi int_{|s|}^1 g(w) w dw,
        # held as a right-cumulative table; line marginal by direct quadrature.
        rc = np.linspace(0.0, 1.0, 8192)
        gc = chi(rc)
        self._plane_grid = rc
        self._plane_cum = {
            False: 2.0 * np.pi * _right_cumtrapz(gc * rc, rc),
            True: 2.0 * np.pi * _right_cumtrapz(gc**2 * rc, rc),
        }

    # -- evaluation -------------------------------------------------------

    def chi(self, r) -> np.ndarray:
        return chi(r)

    def hat(self, rho, dim: int = 3) -> np.ndarray:
        """Radial Fourier transform of chi over R^dim, interpolated."""
        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")
        rho = np.abs(np.asarray(rho, dtype=float))
        out = np.zeros(rho.shape)
        small = rho < self.rho_min
        mid = (~small) & (rho <= self.rho_max)
        if np.any(small):
            out[small] = (self._hat_zero[dim]
                          - self._hat_curv[dim] * rho[small] ** 2)
        if np.any(mid):
            out[mid] = self._hat_splines[dim](np.log(rho[mid]))
        return out

    def plane_marginal(self, s, squared: bool = False) -> np.ndarray:
        """Integral of chi(|(s, u)|) (or chi^2) over u in R^2, as a function of s.

        The squared table is the slice profile of the sharpness integral.
        """
        s = np.abs(np.asarray(s, dtype=float))
        table = self._plane_cum[bool(squared)]
        return uniform_read(s, table, self._plane_grid[1])

    def line_marginal(self, s, squared: bool = False) -> np.ndarray:
        """Integral of chi(|(s, u)|) (or chi^2) over u in R^1: the chord
        profile, whose 1-D transform is hat(., 2)."""
        s = np.abs(np.asarray(s, dtype=float))
        table = self._line_tables[bool(squared)]
        return uniform_read(s, table, 1.0 / (table.size - 1))

    @cached_property
    def _line_tables(self) -> dict[bool, np.ndarray]:
        """The line marginals of chi and chi^2 on 1024 points of [0, 1], by
        direct quadrature, built on first use: only line_marginal reads them."""
        s_grid = np.linspace(0.0, 1.0, 1024)
        out = {sq: np.zeros_like(s_grid) for sq in (False, True)}
        for i, s in enumerate(s_grid[:-1]):  # the chord at s = 1 is empty
            u, w = gauss_on(0.0, np.sqrt(1.0 - s * s), 96)
            g = chi(np.sqrt(s * s + u * u))
            out[False][i] = 2.0 * float(w @ g)
            out[True][i] = 2.0 * float(w @ (g * g))
        return out

    @cached_property
    def roundtrip_rel_error(self) -> float:
        """Sup-norm error of the inverse 3D transform of the table vs chi."""
        rho, w = gauss_on(0.0, self.rho_max, 4096)
        hat = self.hat(rho, dim=3)
        err = 0.0
        for sl in blocks(self.r_grid.size, rho.size):
            # inverse transform has the identical radial kernel
            kernel = np.sinc(2.0 * np.outer(self.r_grid[sl], rho))
            rec = 4.0 * np.pi * (kernel * (hat * rho**2)) @ w
            err = max(err, float(np.max(np.abs(rec - self.chi_table[sl]))))
        return err


class _UniformSpline:
    """The not-a-knot cubic spline (scipy's default end condition) through
    the samples y[k] at x0 + k * step, k = 0 .. n-1 (n >= 4).  The knot slopes
    solve one tridiagonal system; reads find their interval by index
    arithmetic and extrapolate the end pieces."""

    def __init__(self, y: np.ndarray, x0: float, step: float):
        self.x0, self.step = float(x0), float(step)
        n = y.size
        d = np.diff(y)  # secant slopes per unit index
        # rows 1..n-2: m[k-1] + 4 m[k] + m[k+1] = 3 (d[k-1] + d[k]); rows 0
        # and n-1 make the third derivative continuous at knots 1 and n-2
        bands = np.ones((3, n))
        bands[1, 1:-1] = 4.0
        bands[0, 1] = bands[2, -2] = 2.0
        rhs = np.empty(n)
        rhs[1:-1] = 3.0 * (d[:-1] + d[1:])
        rhs[0] = 0.5 * (5.0 * d[0] + d[1])
        rhs[-1] = 0.5 * (d[-2] + 5.0 * d[-1])
        m = solve_banded((1, 1), bands, rhs, check_finite=False)
        # Horner rows, highest power first, of each piece in its unit offset
        self._coef = np.stack([m[:-1] + m[1:] - 2.0 * d,
                               3.0 * d - 2.0 * m[:-1] - m[1:], m[:-1], y[:-1]])

    def __call__(self, x) -> np.ndarray:
        s = (np.asarray(x, dtype=float) - self.x0) * (1.0 / self.step)
        k = np.clip(s, 0, self._coef.shape[1] - 1).astype(np.intp)
        s -= k
        out = self._coef[0, k]
        for row in self._coef[1:]:
            out *= s
            out += row[k]
        return out


def _right_cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid-rule table of int_{x_i}^{x_end} y dx."""
    total = np.concatenate([[0.0], np.cumsum(
        0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    return total[-1] - total


@lru_cache(maxsize=1)
def default_bump() -> BumpProfile:
    """The shared default profile (built once per process)."""
    return BumpProfile()


# ---------------------------------------------------------------------------
# TimeCutoff
# ---------------------------------------------------------------------------

class TimeCutoff:
    """Even plateau window: 1 on |t| <= plateau, C-infinity ramp to 0.

    The ramp is `smoothstep` run backwards, the step the smooth dyadic
    projectors use, so theta is identically 1 on the plateau and identically
    0 beyond plateau + ramp.  hat(a) reads the cosine transform
        2 int_0^inf theta(t) cos(2 pi a t) dt
    tabulated at 2048 points of [0, a_max], a_max = 24, on first use (theta
    is even, so this is the full Fourier transform).
    """

    a_max = 24.0

    def __init__(self, plateau: float = 1.0, ramp: float = 1.0):
        for name, val in (("plateau", plateau), ("ramp", ramp)):
            if not 0.0 < val < np.inf:
                raise ValueError(f"TimeCutoff {name} must be positive and finite, got {val}")
        self.plateau = float(plateau)
        self.ramp = float(ramp)
        self.a_grid = np.linspace(0.0, self.a_max, 2048)

    @cached_property
    def hat_table(self) -> np.ndarray:
        """The transform on a_grid by a 256-node Gauss rule in t."""
        t, w = gauss_on(0.0, self.plateau + self.ramp, 256)
        th = self(t)
        table = np.empty(self.a_grid.size)
        for sl in blocks(self.a_grid.size, t.size):
            kernel = np.cos(2.0 * np.pi * np.outer(self.a_grid[sl], t))
            table[sl] = 2.0 * (kernel * (th * w)).sum(axis=1)
        return table

    @cached_property
    def _hat_spline(self) -> _UniformSpline:
        return _UniformSpline(self.hat_table, 0.0, self.a_grid[1])

    def __call__(self, t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=float))
        return smoothstep(1.0 - (t - self.plateau) / self.ramp)

    def hat(self, a) -> np.ndarray:
        a = np.abs(np.asarray(a, dtype=float))
        out = np.zeros(a.shape)
        m = a <= self.a_max
        if np.any(m):
            out[m] = self._hat_spline(a[m])
        return out


@lru_cache(maxsize=1)
def default_cutoff() -> TimeCutoff:
    """The shared plateau window matching the sharpness integrand's cutoff."""
    return TimeCutoff()
