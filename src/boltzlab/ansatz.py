"""Explicit tube/cavity constructions and their semi-analytic norms.

The objects built here are closed-form fields on R^3 x R^3:

  * a family of J ~ (M N2)^2 thin tubes f_b riding a quasi-uniform direction
    grid at speed ~ N2 (an exact free-transport solution),
  * its velocity average rho_b (the density the tubes deposit),
  * the accumulated attenuation exponent beta(t,x) = int_0^t rho_b dt0
    (negative for t < 0, so exp(-beta) amplifies backward in time),
  * the cavity field f_r = amp * exp(-beta) chi(M|x|) chi(|v|/N), which
    solves d_t f_r = -f_r rho_b exactly,
  * their sum f_a and the five-term residual it leaves in the full equation.

Everything is evaluated from the radial bump tables in `bump`: low-dimensional
quadratures and table lookups, cheap even with 65536 tubes.  f_b, its grid
sampler and the sharpness probe's psi_hat share one candidate search,
`TubeFamily.candidates` (a dense pass over all J directions in `grids.blocks`
of the package's 2 MiB budget, each block's live pairs read off its flat
mask), and one support factor, `TubeFamily.support`, taken only at the live
(point, tube) pairs.  rho_b's blocked dense sum over every tube reuses one
set of work buffers per call and reads the smear tables into them with
`grids.uniform_read`.

On a grid, f_r and its transport leak live on the v columns where
chi(|v|/N) > 0, f_b on those where a tube is live (1 and 24 of 512 on the
residual benchmark's grid): one builder per piece forms it there, and each
gridded field is expanded once from its pieces.  The cavity norms sample the
cavity's x-sheet on one padded box.

Norms of the construction (weighted Sobolev and the Z norm) are computed
semi-analytically: the tube velocity supports are pairwise disjoint on the
Fibonacci grid, so cross terms vanish and per-tube closed forms add exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .bump import chi, default_bump, gauss_on
from .collision import FOUR_PI, fibonacci_sphere, gain_term_spectral
from .grids import (GridSpec, PhaseField, Storage, _ft, _is_dyadic, axis_sum,
                    blocks, lattice_read, lattice_stencil, uniform_pairs,
                    uniform_read, x_derivatives)

__all__ = [
    "AnsatzParams",
    "BetaCache",
    "TubeFamily",
    "beta_eval",
    "bilinear_factors",
    "converged_beta_cache",
    "f_a_eval",
    "f_a_sobolev_norm",
    "f_a_to_grid",
    "f_a_z_norm",
    "f_b_eval",
    "f_b_sobolev_norm",
    "f_b_to_grid",
    "f_b_z_norm",
    "f_err_terms",
    "f_r_eval",
    "f_r_sobolev_norm",
    "f_r_to_grid",
    "f_r_z_norm",
    "rho_b_eval",
    "rho_b_radial",
    "rho_r_eval",
    "sphere_grid",
]

# ---------------------------------------------------------------------------
# direction grid and parameter bundles
# ---------------------------------------------------------------------------

def _count(J) -> int:
    """The direction count J as an int; a non-integer J is refused, not
    truncated (an int, a numpy int or an integral float passes)."""
    n = int(J) if math.isfinite(J) else None
    if n != J:
        raise ValueError(f"direction count J must be an integer, got {J}")
    return n


def sphere_grid(J: int) -> np.ndarray:
    """J quasi-uniform unit vectors (Fibonacci lattice), shape (J, 3)."""
    J = _count(J)
    if J < 12:
        raise ValueError("direction grid needs J >= 12")
    nodes, _ = fibonacci_sphere(J)
    return nodes


@dataclass(frozen=True, eq=False)
class TubeFamily:
    """Direction grid and scales for the tube construction.

    The grid is fixed by the scales M and N2 alone; the regularity s enters
    only the amplitudes and the attenuation window (`AnsatzParams`).  J
    defaults to exactly (M*N2)^2; the nearest-neighbor angular spacing of
    the Fibonacci grid sits at ~0.87x the equal-area value sqrt(4 pi / J),
    comfortably inside the contractual [0.5, 2] band (checked at build).
    """

    M: int
    N2: int
    J: int
    directions: np.ndarray
    min_spacing: float
    equal_area_spacing: float

    @classmethod
    def make(cls, M: int, N2: int, J: int | None = None) -> "TubeFamily":
        if not (_is_dyadic(M) and M >= 2):
            raise ValueError("M must be a dyadic integer >= 2")
        if not (_is_dyadic(N2) and N2 >= 2):
            raise ValueError("N2 must be a dyadic integer >= 2")
        if J is None:
            J = (int(M) * int(N2)) ** 2
        J = _count(J)
        if not (M * N2) ** 2 / 2 <= J <= 2 * (M * N2) ** 2:
            raise ValueError("tube count J must lie within a factor 2 of (M*N2)^2")
        if J > 1 << 24:
            raise ValueError("tube count too large to tabulate")
        dirs = sphere_grid(J)
        tree = cKDTree(dirs)
        chord, _ = tree.query(dirs, k=2)
        min_chord = float(chord[:, 1].min())
        min_angle = 2.0 * math.asin(min(1.0, 0.5 * min_chord))
        equal_area = math.sqrt(FOUR_PI / J)
        if not 0.5 * equal_area <= min_angle <= 2.0 * equal_area:
            raise ValueError("direction grid spacing left the equal-area band")
        return cls(int(M), int(N2), J, dirs, min_angle, equal_area)

    def candidates(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live (row, tube, velocity factor) triples of the (n, 3) velocities.

        Rows off the annulus 0.9 N2 <= |v| <= hypot(1.1 N2, 1/M) meet no tube.
        One dense pass over all J directions in `grids.blocks` keeps the
        pairs whose v.e clears the lower edge of both velocity factors,
        read as (row, column) off each block's flat mask; `support` takes
        chi(M |v_perp|) chi(10 (v.e - N2) / N2) there and the zeros are
        dropped.  Each row's tubes come in ascending order, whatever the
        block size.
        """
        speed = np.linalg.norm(v, axis=1)
        rows = np.nonzero((speed >= 0.9 * self.N2)
                          & (speed <= math.hypot(1.1 * self.N2, 1.0 / self.M)))[0]
        V = v[rows]
        # |v_perp| < 1/M needs v.e > sqrt(|v|^2 - 1/M^2), the parallel factor
        # v.e > 0.9 N2
        lo = np.sqrt(np.maximum(speed[rows] ** 2 - 1.0 / self.M**2,
                                (0.9 * self.N2) ** 2))
        i, j = [], []
        for sl in blocks(self.J, rows.size):
            # the block's (row, column) pairs in C order, read off its flat
            # mask: 2-D np.nonzero costs over 10x more on these sparse masks
            hit = np.flatnonzero(V @ self.directions[sl].T > lo[:, None])
            r, c = np.divmod(hit, sl.stop - sl.start)
            i.append(r)
            j.append(c + sl.start)
        i, j = np.concatenate(i), np.concatenate(j)
        vfac = self.support(V[i] - self.N2 * self.directions[j], j, self.M,
                            10.0 / self.N2)
        live = vfac > 0.0
        return rows[i[live]], j[live], vfac[live]

    def support(self, y: np.ndarray, tubes, a: float, b: float) -> np.ndarray:
        """chi(a |y_perp|) chi(b y.e) of the (..., 3) rows y against the
        directions e of `tubes`, with |y_perp| the norm of the rejection
        y - (y.e) e, which does not cancel far along a tube.  Velocity:
        y = v - N2 e, (a, b) = (M, 10/N2); space: y = x - t v, (M, 1/N2); the
        sharpness tubes: y = eta2, (1/M, N2).
        """
        e = self.directions[tubes]
        par = np.sum(y * e, axis=-1)
        perp = np.linalg.norm(y - par[..., None] * e, axis=-1)
        return chi(a * perp) * chi(b * par)


@lru_cache(maxsize=16)
def _tube_family(M: int, N2: int) -> TubeFamily:
    return TubeFamily.make(M, N2)


@dataclass(frozen=True, eq=False)
class AnsatzParams:
    """All scales of the tube/cavity construction, with derived quantities.

    Invariants enforced at build: N <= 1/M, delta in (0, 1/4) with
    delta <= 2(s - 1/2), mu = log N2 / log M >= delta (N2 defaults to M), and
    the attenuation window condition N2^(1-s) >= M^delta.  Derived: s0 =
    s - ln ln M / ln M and t_star = -delta (M N2)^(s-1) ln M.
    """

    tube: TubeFamily
    s: float
    N: float
    delta: float
    mu: float

    @classmethod
    def make(cls, M: int = 8, s: float = 0.75, delta: float = 0.2,
             N: float | None = None, N2: int | None = None) -> "AnsatzParams":
        if not (_is_dyadic(M) and M >= 4):
            raise ValueError("M must be a dyadic integer >= 4")
        if not 0.5 < s < 1.0:
            raise ValueError("regularity s must lie in (1/2, 1)")
        if N2 is None:
            N2 = M
        mu = math.log2(N2) / math.log2(M)
        tube = _tube_family(int(M), int(N2))
        if N is None:
            N = 1.0 / M
        if not 0.0 < N <= 1.0 / M + 1e-12:
            raise ValueError("velocity width N must lie in (0, 1/M]")
        if not 0.0 < delta < 0.25:
            raise ValueError("delta must lie in (0, 1/4)")
        if delta > 2.0 * (s - 0.5) + 1e-12:
            raise ValueError("delta must not exceed 2(s - 1/2)")
        if mu < delta - 1e-12:
            raise ValueError("mu must be at least delta")
        if N2 ** (1.0 - s) + 1e-9 < M**delta:
            raise ValueError("attenuation window requires N2^(1-s) >= M^delta")
        return cls(tube, float(s), float(N), float(delta), float(mu))

    # -- delegated scales ---------------------------------------------------
    @property
    def M(self) -> int:
        return self.tube.M

    @property
    def N2(self) -> int:
        return self.tube.N2

    @property
    def J(self) -> int:
        return self.tube.J

    @property
    def directions(self) -> np.ndarray:
        return self.tube.directions

    # -- derived quantities ---------------------------------------------------
    @property
    def s0(self) -> float:
        return self.s - math.log(math.log(self.M)) / math.log(self.M)

    @property
    def t_star(self) -> float:
        return -self.delta * (self.M * self.N2) ** (self.s - 1.0) * math.log(self.M)

    @property
    def density_norm(self) -> float:
        """Normalization making the tube density at the origin come out to
        exactly (M N2)^(1-s) at t = 0.

        Every tube passes through the origin, so rho_b(0,0) equals
        J * amp_b * (per-tube velocity mass) = amp_b (M N2)^2 N2/(10 M^2)
        * Phi_1 Phi_2 with Phi_d the bump masses.  The growth-rate criteria
        (attenuation exponent ~ delta ln M over [t_star, 0]) are stated for
        unit density constant, so the bump masses are divided back out here.
        """
        bump = default_bump()
        return 10.0 / (bump.integral_1d * bump.integral_2d)

    @property
    def amp_b(self) -> float:
        return (self.density_norm
                * self.M ** (1.0 - self.s) * self.N2 ** (-2.0 - self.s))

    @property
    def amp_r(self) -> float:
        return self.M ** (1.5 - self.s) / self.N**1.5

    @property
    def rho_r_scale(self) -> float:  # rho_r over the cavity profile
        return self.amp_r * self.N**3 * default_bump().integral_3d


# ---------------------------------------------------------------------------
# smear tables: the per-tube velocity integrals of the transported profile
# ---------------------------------------------------------------------------

class _TubeSmear:
    """Tables of the two per-tube velocity integrals behind rho_b.

    In the frame of a tube direction e, integrating the four bump factors of
    one tube over v factorizes into

        (N2 / (10 M^2)) * Psi2(M |xperp|; t) * Psi1((xpar - t N2)/N2; t/10)

    where (correlations of the profile with a t-dilated copy of itself)

        Psi2(c; tau) = int_{R^2} chi(|c e1 - tau w|) chi(|w|) d^2 w
        Psi1(c; tau) = int_R    chi(c - tau u)       chi(|u|)  du

    Both are computed through the transform tables (Hankel / cosine form):
    one builder makes each (c, tau) table as one GEMM of its kernel over
    the c grid with the transform profiles over the tau grid.  Both are
    even in c and tau; at tau = 0 they collapse exactly to chi(c) * (2D
    resp. 1D mass).  `at` reads both at one time.
    """

    PSI2, PSI1 = (1.35, 241, 0.3, 97), (1.1, 221, 0.032, 17)  # c max, n_c, tau max, n_tau

    def __init__(self):
        from scipy.special import j0

        bump = default_bump()
        k, wk = gauss_on(0.0, bump.rho_max, 1024)

        def build(c_max, n_c, tau_max, n_tau, kernel, dim, measure):
            c, tau = np.linspace(0.0, c_max, n_c), np.linspace(0.0, tau_max, n_tau)
            prof = bump.hat(k, dim) * bump.hat(np.outer(tau, k), dim) * measure
            return c, tau, kernel(2.0 * np.pi * np.outer(c, k)) @ prof.T

        self.tables = (build(*self.PSI2, lambda u: 2.0 * np.pi * j0(u), 2, k * wk),
                       build(*self.PSI1, lambda u: 2.0 * np.cos(u), 1, wk))

    def at(self, t: float) -> tuple[np.ndarray, ...]:
        """(c2 grid, Psi2(.; t), c1 grid, Psi1(.; t/10)): each table's tau
        columns blended linearly at |tau|, for |t| <= 1/4."""
        if not abs(t) <= 0.25 + 1e-12:
            raise ValueError(f"standing time window requires |t| <= 1/4, got time t={t}")
        out = ()
        for (c, tau_grid, table), tau in zip(self.tables, (abs(t), abs(t) / 10.0)):
            stencil = lattice_stencil(np.array([[tau]]), 0.0, tau_grid[1], tau_grid.shape)
            out += (c, lattice_read(table, stencil)[:, 0])
        return out


@lru_cache(maxsize=1)
def _smear() -> _TubeSmear:
    return _TubeSmear()


# ---------------------------------------------------------------------------
# pointwise evaluators
# ---------------------------------------------------------------------------

def _as_points(x) -> tuple[np.ndarray, tuple[int, ...]]:
    """(n, 3) rows of the (..., 3) points x and their leading shape."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("points must have a trailing axis of length 3")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    lead = x.shape[:-1]
    return x.reshape(-1, 3), lead


def _as_pairs(x, v) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """_as_points of x and v broadcast against each other."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(v))
    X, lead = _as_points(np.broadcast_to(x, shape))
    V, _ = _as_points(np.broadcast_to(v, shape))
    return X, V, lead


def f_b_eval(p: AnsatzParams, t: float, x, v) -> np.ndarray:
    """The tube-family field at (t, x, v); x and v broadcast as (..., 3)."""
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t}")
    X, V, lead = _as_pairs(x, v)
    rows, tubes, vfac = p.tube.candidates(V)
    space = p.tube.support(X[rows] - t * V[rows], tubes, p.M, 1.0 / p.N2)
    out = np.bincount(rows, vfac * space, minlength=X.shape[0])
    return (p.amp_b * out).reshape(lead)


def rho_b_eval(p: AnsatzParams, t: float, x) -> np.ndarray:
    """Velocity average of the tube field at (t, x); x broadcast as (..., 3).

    Exact per-tube closed form through the smear tables; the sum runs over
    all J tubes (no equidistribution shortcut), so the discreteness of the
    direction grid is faithfully present in the result.  The directions go
    in `grids.blocks` sized so that the call's five (directions x points)
    work buffers -- dots, the two reads of `grids.uniform_read` (np.interp(
    ..., right=0) on the tables) and its scratch pair -- fit within the
    block budget together; every block reuses them.  The block sums are added
    with Kahan compensation: plain sums over the 631 blocks of a 500-point
    M=16 call drift by 1.2e-14 relative at the origin.
    """
    c2g, t2, c1g, t1 = _smear().at(t)
    t2, t1 = uniform_pairs(t2), uniform_pairs(t1)  # built once per call
    X, lead = _as_points(x)
    out = np.zeros(X.shape[0])

    r = np.linalg.norm(X, axis=1)
    cut = p.N2 * (1.0 + 1.1 * abs(t)) + (1.0 + abs(t)) / p.M
    rows = np.nonzero(r <= cut)[0]
    if rows.size:
        Xa = X[rows]
        r2 = np.einsum("ij,ij->i", Xa, Xa)
        n = rows.size
        sub, comp = np.zeros(n), np.zeros(n)
        spans = list(blocks(p.J, 5 * n))
        size = n * (spans[0].stop - spans[0].start)
        work, index = np.empty((4, size)), np.empty(size, np.intp)
        for sl in spans:
            m = sl.stop - sl.start
            dots, v2, v1, tmp = work[:, : n * m].reshape(4, m, n)
            scratch = (tmp, index[: n * m].reshape(m, n))
            np.matmul(p.directions[sl], Xa.T, out=dots)
            # Psi2 at M |x_perp| and Psi1 at |x_par - t N2| / N2, the scales
            # folded into the table steps
            np.subtract(r2, np.multiply(dots, dots, out=v1), out=v1)
            np.sqrt(np.maximum(v1, 0.0, out=v1), out=v1)
            uniform_read(v1, t2, c2g[1] / p.M, out=v2, work=scratch)
            np.abs(np.subtract(dots, t * p.N2, out=dots), out=dots)
            uniform_read(dots, t1, c1g[1] * p.N2, out=v1, work=scratch)
            y = np.einsum("ij,ij->j", v2, v1) - comp
            total = sub + y
            comp, sub = (total - sub) - y, total
        out[rows] = sub
    scale = p.amp_b * p.N2 / (10.0 * p.M**2)
    return (scale * out).reshape(lead)


_ANGLE_NODES = 96  # Gauss nodes per polar band of rho_b_radial


def rho_b_radial(p: AnsatzParams, t: float, r) -> np.ndarray:
    """Angular-averaged tube density at the radii r (finite, >= 0) on the
    standing window |t| <= 1/4 of rho_b_eval.

    Replaces the direction sum by (J/2) int_{-1}^{1} dc of the same per-tube
    product -- the equidistribution limit of the Fibonacci grid -- with one
    Gauss rule on each band of c = cos(angle) where the integrand lives,
    all radii at once.  This is the density the attenuation cache integrates
    in time, so the cached beta is a function of (t, |x|).  The cavity radius
    is far inside the first angular zero, so the average is close to the
    direct tube sum that uncached `beta_eval` integrates.
    """
    c2g, t2, c1g, t1 = _smear().at(t)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((r >= 0.0) & (r < math.inf)):
        raise ValueError("radii r must be finite and >= 0")
    rr = r.reshape(-1, 1)
    # the perpendicular cut M r sin(theta) <= c2_max confines the integrand
    # to polar caps |c| >= c_star; put a full rule on each cap so large radii
    # stay resolved, and one rule on [-1, 1] (an empty lower cap) otherwise
    mr = p.M * rr
    split = mr > c2g[-1]
    lo = np.where(split, np.sqrt(1.0 - (c2g[-1] / np.maximum(mr, c2g[-1])) ** 2),
                  -1.0)
    u, wu = gauss_on(0.0, 1.0, _ANGLE_NODES)
    c = lo + (1.0 - lo) * u  # upper cap (c_star, 1), or all of [-1, 1]
    w = (1.0 - lo) * wu
    c = np.concatenate((-c, c), axis=1)  # the lower cap mirrors the upper
    w = np.concatenate((w * split, w), axis=1)
    v2 = uniform_read(rr * np.sqrt(np.clip(1.0 - c**2, 0.0, None)), t2,
                      c2g[1] / p.M)
    v1 = uniform_read(np.abs(rr * c - t * p.N2), t1, c1g[1] * p.N2)
    out = np.einsum("ij,ij,ij->i", v2, v1, w).reshape(r.shape)
    return p.amp_b * p.N2 / (10.0 * p.M**2) * (p.J / 2.0) * out


def rho_r_eval(p: AnsatzParams, t: float, x, beta=None) -> np.ndarray:
    """Velocity average of the cavity field: closed form, no grid."""
    X, lead = _as_points(x)
    return (p.rho_r_scale * _cavity_profile(p, t, X, beta)).reshape(lead)


# ---------------------------------------------------------------------------
# attenuation exponent beta
# ---------------------------------------------------------------------------

def _check_attenuation_time(p: AnsatzParams, t: float) -> None:
    if not p.t_star - 1e-12 <= t <= 1e-12:
        raise ValueError("attenuation time must lie in [t_star, 0]")


def beta_eval(p: AnsatzParams, t: float, x, rtol: float = 1e-5) -> np.ndarray:
    """beta(t, x) = int_0^t rho_b(t0, x) dt0, <= 0 at t in [t_star, 0].

    Integrates the direct tube sum rho_b_eval with a nested Gauss rule in
    time and verifies convergence.  The cached reading of the same exponent
    is `cache(t, x)` on a BetaCache.
    """
    _check_attenuation_time(p, t)
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol}")
    X, lead = _as_points(x)
    if t == 0.0:
        return np.zeros(lead)
    coarse = _time_integral(p, t, X, 8)
    fine = _time_integral(p, t, X, 16)
    scale = np.max(np.abs(fine)) + 1e-300
    err = float(np.max(np.abs(fine - coarse))) / scale
    if err > rtol:
        raise RuntimeError(
            f"attenuation quadrature did not converge: rel change {err:.3e} "
            f"between 8- and 16-node rules at t={t:.6g} (|beta| ~ {scale:.3e})")
    return (-fine).reshape(lead)


def _time_integral(p: AnsatzParams, t: float, X: np.ndarray, n: int) -> np.ndarray:
    """int_t^0 rho_b(t0, X) dt0 for t < 0 (a positive quantity)."""
    tq, wq = gauss_on(t, 0.0, n)
    acc = np.zeros(X.shape[0])
    for t0, w0 in zip(tq, wq):
        acc += w0 * rho_b_eval(p, float(t0), X)
    return acc


def _cavity_profile(p: AnsatzParams, t: float, X: np.ndarray, beta) -> np.ndarray:
    """exp(-beta(t, x)) chi(M|x|) at the (n, 3) points X; beta is evaluated
    only where the cavity is nonzero."""
    cav = chi(p.M * np.linalg.norm(X, axis=1))
    out = np.zeros(X.shape[0])
    mask = cav > 0.0
    if np.any(mask):
        b = beta_eval(p, t, X[mask]) if beta is None else beta(t, X[mask])
        out[mask] = np.exp(-b) * cav[mask]
    return out


class BetaCache:
    """Attenuation exponent as a radial (t, |x|) table, read bilinearly.

    beta is integrated from the angular-averaged density rho_b_radial, so it
    depends on x only through |x|.  The table holds nt times evenly over
    [t_star, 0] by 4 nx + 1 radii evenly over [0, R sqrt(3)], with R = 1.05/M
    a small margin past the cavity support radius 1/M (beta is only ever
    needed where the cavity profile is nonzero).  Each time interval is
    integrated with a 2-node Gauss rule and accumulated backward from
    beta(0) = 0.

    Reads clamp: each coordinate of x is clipped to [-R, R] on its own (the
    box, not the ball |x| <= R), and the table is read at the radius of that
    box point, which the radial axis reaches up to the corner R sqrt(3).  So
    a point outside the box reads the box point nearest to it.  Every
    consumer multiplies by the cavity profile, which vanishes there, but
    diagnostics read the cache past the box.  converged_beta_cache() doubles
    nt and nx until the reads stop changing.
    """

    def __init__(self, p: AnsatzParams, nt: int = 64, nx: int = 32):
        if nt < 2 or nx < 2:
            raise ValueError("cache needs at least 2 nodes per axis")
        self.params = p
        self.nt, self.nx = int(nt), int(nx)
        self.radius = 1.05 / p.M
        self.t_nodes = np.linspace(p.t_star, 0.0, self.nt)
        self.r_axis = np.linspace(0.0, self.radius * math.sqrt(3.0), 4 * self.nx + 1)

        # accumulate int_{t_k}^{0} rho dt backward across the table times
        acc = np.zeros((self.nt, self.r_axis.size))
        for k in range(self.nt - 2, -1, -1):
            tq, wq = gauss_on(self.t_nodes[k], self.t_nodes[k + 1], 2)
            acc[k] = acc[k + 1] + sum(w0 * rho_b_radial(p, float(t0), self.r_axis)
                                      for t0, w0 in zip(tq, wq))
        self.table = -acc  # beta(t) = -int_t^0 rho

    def __call__(self, t: float, x) -> np.ndarray:
        p = self.params
        _check_attenuation_time(p, t)
        X, lead = _as_points(x)
        # clamp each coordinate to the box, then one bilinear read in
        # (t, |x|); time goes in cell units, so t = 0 lands exactly on the
        # last node (beta = 0)
        r = np.linalg.norm(np.clip(X, -self.radius, self.radius), axis=1)
        k = (np.clip(t, p.t_star, 0.0) - p.t_star) / -p.t_star * (self.nt - 1)
        stencil = lattice_stencil(np.column_stack((np.full(r.size, k), r)),
                                  0.0, (1.0, self.r_axis[1]), self.table.shape)
        return lattice_read(self.table.reshape(-1), stencil).reshape(lead)

    def refine(self) -> "BetaCache":
        return BetaCache(self.params, 2 * self.nt, 2 * self.nx)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.table)))


_FIRST_NT, _FIRST_NX = 16, 8  # the first table of converged_beta_cache


def converged_beta_cache(p: AnsatzParams, tol: float = 0.005,
                         max_rounds: int = 4) -> BetaCache:
    """Double the cache table, from (_FIRST_NT, _FIRST_NX), until the cavity
    attenuation factor exp(-beta) changes by less than `tol` relative, and
    return that cache."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    cache = BetaCache(p, _FIRST_NT, _FIRST_NX)
    rng_pts = _probe_points(p)
    prev = np.exp(-cache(p.t_star, rng_pts))
    for _ in range(max_rounds):
        nxt = cache.refine()
        cur = np.exp(-nxt(p.t_star, rng_pts))
        change = float(np.max(np.abs(cur - prev) / np.abs(cur)))
        if change < tol:
            return nxt
        cache, prev = nxt, cur
    raise RuntimeError(
        f"attenuation cache did not stabilize: last relative change "
        f"{change:.3e} > {tol} after {max_rounds} doublings")


def _probe_points(p: AnsatzParams) -> np.ndarray:
    """Fixed probe set inside the cavity support (deterministic)."""
    rng = np.random.default_rng(2718)
    pts = rng.uniform(-1.0, 1.0, (64, 3))
    pts = pts[np.linalg.norm(pts, axis=1) < 0.98]
    return pts * (0.999 / p.M)


# ---------------------------------------------------------------------------
# cavity field and combined ansatz
# ---------------------------------------------------------------------------

def f_r_eval(p: AnsatzParams, t: float, x, v, beta=None) -> np.ndarray:
    """Cavity field amp * exp(-beta(t,x)) chi(M|x|) chi(|v|/N)."""
    X, V, lead = _as_pairs(x, v)
    vel = chi(np.linalg.norm(V, axis=1) / p.N)
    return (p.amp_r * _cavity_profile(p, t, X, beta) * vel).reshape(lead)


def f_a_eval(p: AnsatzParams, t: float, x, v, beta=None) -> np.ndarray:
    """f_r + f_b at (t, x, v)."""
    return f_r_eval(p, t, x, v, beta=beta) + f_b_eval(p, t, x, v)


# ---------------------------------------------------------------------------
# grid samplers and the residual in the full equation, each piece on its own
# live v columns (Full-storage samples on a grid of either storage)
# ---------------------------------------------------------------------------

def _cavity_columns(p: AnsatzParams, t: float, grid: GridSpec, beta) -> tuple:
    """(rho_r, (cav, fr), (cav, leak)) of the cavity on the grid.  The profile
    exp(-beta) chi(M|x|) is evaluated once at the x points, for rho_r and
    f_r's x-sheet amp_r times it.  cav: the v columns where chi(|v|/N) > 0;
    fr: f_r there, (Nx, cav); leak: v . grad_x f_r there, the sheet's
    `grids.x_derivatives` times v."""
    X, V = grid.x_points(), grid.v_points()
    profile = _cavity_profile(p, t, X, beta)
    vfac = chi(np.linalg.norm(V, axis=1) / p.N)
    cav = np.flatnonzero(vfac > 0.0)
    sheet = p.amp_r * profile
    grad = np.stack([d.real.ravel() for d in x_derivatives(sheet.reshape(grid.nx), grid)])
    return (p.rho_r_scale * profile, (cav, np.multiply.outer(sheet, vfac[cav])),
            (cav, grad.T @ (V[cav].T * vfac[cav])))


def _tube_columns(p: AnsatzParams, t: float, grid: GridSpec) -> tuple:
    """(cols, fb) of the tube family on the grid: cols, the v columns where
    `TubeFamily.candidates` finds a live tube; fb: f_b there, (Nx, cols),
    each live pair adding its x-sheet in candidate order."""
    X, V = grid.x_points(), grid.v_points()
    rows, tubes, w = p.tube.candidates(V)
    cols, at = np.unique(rows, return_inverse=True)
    fb = np.zeros((len(X), cols.size))
    for k, iv, j, wk in zip(at, rows, tubes, w):
        fb[:, k] += (p.amp_b * wk) * p.tube.support(X - t * V[iv], j, p.M, 1.0 / p.N2)
    return cols, fb


def _expand(grid: GridSpec, *parts: tuple[np.ndarray, np.ndarray]) -> PhaseField:
    """The Full-storage field that is each (cols, block) part on its v
    columns, else 0; each is assigned, as no two parts share a column: the
    cavity has |v| < N <= 1/M <= 1/4, the tube annulus |v| >= 0.9 N2 >= 1.8."""
    grid = replace(grid, storage=Storage.Full)
    data = np.zeros((math.prod(grid.nx), math.prod(grid.nv)))
    for cols, block in parts:
        data[:, cols] = block
    return PhaseField(grid, data.reshape(grid.shape))


def f_r_to_grid(p: AnsatzParams, t: float, grid: GridSpec,
                beta=None) -> PhaseField:
    """Pointwise sample of the cavity field."""
    return _expand(grid, _cavity_columns(p, t, grid, beta)[1])


def f_b_to_grid(p: AnsatzParams, t: float, grid: GridSpec) -> PhaseField:
    """Pointwise sample of the tube family."""
    return _expand(grid, _tube_columns(p, t, grid))


def f_a_to_grid(p: AnsatzParams, t: float, grid: GridSpec,
                beta=None) -> PhaseField:
    """Pointwise sample of f_r + f_b on the grid."""
    return _expand(grid, _cavity_columns(p, t, grid, beta)[1], _tube_columns(p, t, grid))


def transport_term(p: AnsatzParams, t: float, grid: GridSpec,
                   beta=None) -> PhaseField:
    """The cavity transport leak v . grad_x f_r on the grid."""
    return _expand(grid, _cavity_columns(p, t, grid, beta)[2])


def f_err_terms(p: AnsatzParams, t: float, grid: GridSpec, cfg,
                beta=None) -> list[tuple[str, PhaseField]]:
    """The five signed residual fields of the combined ansatz.

    With F_err their sum (transport leak and three loss couplings positive,
    full gain negated), d_t f_a + v.grad_x f_a - Q(f_a, f_a) = F_err +
    (4 pi - 1) f_r rho_b: tube transport vanishes, and the cavity decays at
    rate rho_b (beta = int rho_b dt) while `loss_term` puts its loss against
    the tubes, not returned, at 4 pi f_r rho_b (an open question of
    convention: ROADMAP.md, "One loss convention").
    Each piece's builder runs once, forming its closed-form terms on its own
    live v columns; f_a (for the gain) and each output are expanded once.
    """
    if grid.storage is not Storage.Full:
        raise ValueError("f_err_terms requires Full storage: every term is a "
                         "PhaseField on the caller's grid")
    if float(np.max(grid.dx)) > 1.0 / (4.0 * p.M) + 1e-12:
        raise ValueError(
            "grid does not resolve the tube cross-section: need >= 4 cells "
            f"across 1/M (cell {float(np.max(grid.dx)):.4g} vs {1.0 / p.M:.4g})")

    rho_r, (cav, fr), leak = _cavity_columns(p, t, grid, beta)
    cols, fb = _tube_columns(p, t, grid)
    loss_r = FOUR_PI * rho_r[:, None]
    loss_b = FOUR_PI * rho_b_eval(p, t, grid.x_points())[:, None]
    fa = _expand(grid, (cav, fr), (cols, fb))
    gain = gain_term_spectral(fa, fa, cfg)  # a fresh field: negate in place
    del fa
    np.negative(gain.data, out=gain.data)
    return [
        ("transport_cavity", _expand(grid, leak)),
        ("loss_tubes_cavity", _expand(grid, (cols, fb * loss_r))),
        ("loss_cavity_cavity", _expand(grid, (cav, fr * loss_r))),
        ("loss_tubes_tubes", _expand(grid, (cols, fb * loss_b))),
        ("gain_full", gain),
    ]


# ---------------------------------------------------------------------------
# semi-analytic norms of the construction
# ---------------------------------------------------------------------------

def _tube_v_weight(p: AnsatzParams, q: float) -> float:
    """int <v>^{2q} (tube v-factors)^2 dv for one tube (exact quadrature)."""
    rho, wr = gauss_on(0.0, 1.0, 64)
    u, wu = gauss_on(-1.0, 1.0, 64)
    c = default_bump().chi
    par = p.N2 * (1.0 + u / 10.0)
    wt = (1.0 + par**2)[None, :] + (rho**2 / p.M**2)[:, None]
    integ = (c(rho) ** 2 * rho)[:, None] * (c(u) ** 2)[None, :] * wt**q
    return float(2.0 * np.pi / p.M**2 * (p.N2 / 10.0)
                 * np.einsum("i,j,ij->", wr, wu, integ))


def _tube_x_weight(p: AnsatzParams, q: float) -> float:
    """|| <grad>^q [chi(M|xperp|) chi(xpar/N2)] ||_{L^2_x}^2 via the hats."""
    bump = default_bump()
    sig, ws = gauss_on(0.0, 24.0, 256)
    tau, wt = gauss_on(0.0, 24.0, 256)
    h2 = bump.hat(sig, 2) ** 2 * sig
    h1 = bump.hat(tau, 1) ** 2
    wgt = (1.0 + (p.M * sig) ** 2)[:, None] + (tau**2 / p.N2**2)[None, :]
    integ = h2[:, None] * h1[None, :] * wgt**q
    return float(4.0 * np.pi * p.N2 / p.M**2
                 * np.einsum("i,j,ij->", ws, wt, integ))


def f_b_sobolev_norm(p: AnsatzParams, q: float) -> float:
    """|| f_b ||_{L_v^{2,q} H_x^q}: time-independent, exact per-tube sums."""
    return p.amp_b * math.sqrt(p.J * _tube_v_weight(p, q) * _tube_x_weight(p, q))


def _cavity_on_box(p: AnsatzParams, q: float, t: float, beta
                   ) -> tuple[GridSpec, np.ndarray, float]:
    """The cavity's parts for its norms: the sheet on the padded box
    [-2/M, 2/M)^3 at 64^3 points (16 cells across the support radius 1/M)
    and int <v>^{2q} chi(|v|/N)^2 dv by a radial Gauss rule."""
    box = GridSpec((64,) * 3, (1,) * 3, Lx=2.0 / p.M, Lv=p.N)
    r, wr = gauss_on(0.0, 1.0, 96)
    vsq = 4.0 * np.pi * p.N**3 * float(
        wr @ (chi(r) ** 2 * (1.0 + (p.N * r) ** 2) ** q * r**2))
    return box, p.amp_r * _cavity_profile(p, t, box.x_points(), beta).reshape(box.nx), vsq


def f_r_sobolev_norm(p: AnsatzParams, q: float, t: float = 0.0,
                     beta=None) -> float:
    """|| f_r(t) ||_{L_v^{2,q} H_x^q}: v-part by quadrature, x-part by FFT."""
    box, sheet, vsq = _cavity_on_box(p, q, t, beta)
    ghat = _ft(sheet, (0, 1, 2), box.cell_x)
    k2 = axis_sum(lambda a: box.eta_axis(a) ** 2)
    xsq = float(np.sum((1.0 + k2) ** q * np.abs(ghat) ** 2)) * box.cell_eta
    return math.sqrt(vsq * xsq)


def f_a_sobolev_norm(p: AnsatzParams, q: float, t: float = 0.0,
                     beta=None) -> float:
    """Disjoint v-supports make the squares add exactly."""
    return math.sqrt(f_b_sobolev_norm(p, q) ** 2
                     + f_r_sobolev_norm(p, q, t, beta=beta) ** 2)


def f_b_z_norm(p: AnsatzParams) -> tuple[float, tuple[float, float, float, float]]:
    """Z norm of the tube family (exact pieces; the sup-gradient piece uses
    the tight upper envelope M sup|chi'|).  Returns (total, pieces)."""
    bump = default_bump()
    wv1 = _tube_v_weight(p, 1.0)
    x_l2 = bump.l2sq_2d / p.M**2 * p.N2 * bump.l2sq_1d
    x_grad = (bump.grad_l2sq_2d * p.N2 * bump.l2sq_1d
              + bump.l2sq_2d * bump.grad_l2sq_1d / (p.M**2 * p.N2))
    a = p.M * p.amp_b * math.sqrt(p.J * wv1 * x_l2)
    b = p.amp_b * math.sqrt(p.J * wv1 * x_grad)
    v_l1 = bump.integral_2d / p.M**2 * (p.N2 / 10.0) * bump.integral_1d
    c = p.J * p.amp_b * v_l1
    d = (1.0 / p.M) * p.J * p.amp_b * (p.M * bump.sup_abs_grad) * v_l1
    return a + b + c + d, (a, b, c, d)


def f_r_z_norm(p: AnsatzParams, t: float = 0.0,
               beta=None) -> tuple[float, tuple[float, float, float, float]]:
    """Z norm of the cavity field (x-parts on a padded FFT box)."""
    box, g, wv2 = _cavity_on_box(p, 1.0, t, beta)
    v_l1 = p.N**3 * default_bump().integral_3d
    mag2 = sum(d.real ** 2 for d in x_derivatives(g, box))  # |grad g|^2

    a_ = p.M * math.sqrt(wv2 * float(np.sum(g**2)) * box.cell_x)
    b_ = math.sqrt(wv2 * float(np.sum(mag2)) * box.cell_x)
    c_ = v_l1 * float(np.max(g))
    d_ = v_l1 * math.sqrt(float(np.max(mag2))) / p.M
    return a_ + b_ + c_ + d_, (a_, b_, c_, d_)


def f_a_z_norm(p: AnsatzParams, t: float = 0.0, beta=None) -> float:
    """Z norm of f_a: quadratic pieces add in quadrature across the disjoint
    v-supports, L^1/L^inf pieces add directly."""
    _, (ab, bb, cb, db) = f_b_z_norm(p)
    _, (ar, br, cr, dr) = f_r_z_norm(p, t, beta=beta)
    return (math.hypot(ab, ar) + math.hypot(bb, br) + (cb + cr) + (db + dr))


# ---------------------------------------------------------------------------
# the one-sided bilinear gain factors
# ---------------------------------------------------------------------------

def bilinear_factors(M1: float, M2: float, N: float, N2: float
                     ) -> tuple[float, float]:
    """The two one-sided gain factors (B_{M1,M2}, B_{N,N2}).

    N below 1 is clamped to 1 (the dyadic statement starts at 1; the
    constructions use N << 1 and the clamp keeps the factor well-defined).
    """
    if min(M1, M2, N2) < 1.0:
        raise ValueError("dyadic scales M1, M2, N2 must be >= 1")
    Nc = max(float(N), 1.0)
    b_m = math.sqrt(M1 / M2) if M1 <= M2 else 1.0
    b_n = math.sqrt(N2 / Nc) if N2 <= Nc else 1.0
    return b_m, b_n
