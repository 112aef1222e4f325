"""Loss-interaction sharpness probe: paired test functions and their
quadruple interaction integral.

The probe pairs a low-frequency ball profile against a sum of frequency
tubes spread over the sphere and measures the time-windowed loss
interaction between them:

    I = int theta_hat(-eta2.(v - v2)) phi_hat(eta - eta2, v)
            psi_hat(eta2, v2) zeta_hat(eta, v)  dv2 dv deta2 deta

The expected size of I is min(M1, M2) * N2 * B_{M1,M2} times the product of
the three L^2 norms, with B the one-sided bilinear gain factor.

Every term of psi_hat's direction sum contributes the same amount: the
remaining factors are radial in eta and eta2, so a rotation taking e_j to
e_k maps the j-th integrand onto the k-th exactly.  The integral therefore
reduces to J times a single tube-frame integral over four bounded
coordinates (eta2 parallel/perpendicular split and v2 parallel/in-plane
components), with the ball-ball correlation and the window-smeared slice
profile tabulated once.  The chord profile is the bump's line marginal and
the slice profile its squared plane marginal, both read from the
BumpProfile tables.  The same reduction backs both the product Gauss rule
and the stratified Monte-Carlo fallback (tube strata being identical,
stratification happens in the reduced coordinates).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import TubeFamily, _as_pairs, _is_dyadic
from .bump import BumpProfile, default_bump, default_cutoff, gauss_on
from .grids import blocks, uniform_read

__all__ = [
    "QuadratureBudgetError",
    "SharpnessFunctions",
    "sharpness_functions",
    "sharpness_integral",
]

#: refinement ladder of per-axis Gauss orders for the reduced integral
_LEVELS = (12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128)


class QuadratureBudgetError(RuntimeError):
    """Budget ran out before the requested accuracy; carries the partial value."""

    def __init__(self, message: str, partial: float, rel_change: float):
        super().__init__(message)
        self.partial = partial
        self.rel_change = rel_change


def _validate(M1: float, M2: float, N: float | None, N2: float):
    if not (_is_dyadic(M1) and M1 >= 1):
        raise ValueError("M1 must be a dyadic scale >= 1")
    if not (_is_dyadic(M2) and M2 >= 2):
        raise ValueError("M2 must be a dyadic integer >= 2 (direction grid)")
    if not (_is_dyadic(N2) and N2 >= 4):
        raise ValueError("N2 must be a dyadic integer >= 4")
    mx = max(M1, M2)
    if N is None:
        N = 1.0 / mx
    if not 0.0 < N <= 1.0 / mx + 1e-12:
        raise ValueError("velocity scale N must lie in (0, 1/max(M1, M2)]")
    return float(M1), float(M2), float(N), float(N2)


@dataclass(frozen=True)
class SharpnessFunctions:
    """The three spectral test profiles (phi_hat, psi_hat, zeta_hat).

    phi_hat lives on a ball of radius M1 x ball of radius N; zeta_hat on the
    dual ball of radius max(M1, M2) x the same velocity ball; psi_hat sums
    J = (M2 N2)^2 frequency tubes (perpendicular width M2, parallel width
    1/N2) paired with velocity tubes on the |v2| ~ N2 annulus (perpendicular
    width 1/M2, parallel width N2/10 about the tube direction).
    """

    M1: float
    M2: float
    N: float
    N2: float
    family: TubeFamily
    bump: BumpProfile

    @classmethod
    def make(cls, M1, M2, N=None, N2=8) -> "SharpnessFunctions":
        M1, M2, N, N2 = _validate(M1, M2, N, N2)
        fam = TubeFamily.make(int(M2), int(N2), 0.75)
        return cls(M1, M2, N, N2, fam, default_bump())

    @property
    def J(self) -> int:
        return self.family.J

    def phi_hat(self, eta1, v) -> np.ndarray:
        eta1 = np.asarray(eta1, dtype=float)
        v = np.asarray(v, dtype=float)
        amp = self.M1 ** -1.5 * self.N ** -1.5
        return amp * (self.bump.chi(np.linalg.norm(eta1, axis=-1) / self.M1)
                      * self.bump.chi(np.linalg.norm(v, axis=-1) / self.N))

    def zeta_hat(self, eta, v) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        v = np.asarray(v, dtype=float)
        mx = max(self.M1, self.M2)
        amp = mx ** -1.5 * self.N ** -1.5
        return amp * (self.bump.chi(np.linalg.norm(eta, axis=-1) / mx)
                      * self.bump.chi(np.linalg.norm(v, axis=-1) / self.N))

    def psi_hat(self, eta2, v2) -> np.ndarray:
        e2, w2, batch = _as_pairs(eta2, v2)
        rows, tubes, vfac = self.family.candidates(w2)
        freq = self.family.support(e2[rows], tubes, 1.0 / self.M2, self.N2)
        out = np.bincount(rows, vfac * freq, minlength=e2.shape[0])
        return (out / (self.M2 * self.N2)).reshape(batch)

    def l2_norms(self) -> tuple[float, float, float]:
        """Exact L^2 norms of the three profiles (scale-independent).

        phi and zeta factor into two balls; psi's tubes have pairwise
        disjoint velocity supports so cross terms vanish and the sum
        contributes exactly J single-tube masses.
        """
        b = self.bump
        ball = b.l2sq_3d
        tube = b.l2sq_2d**2 * b.l2sq_1d**2 / 10.0
        psi = math.sqrt(self.J / (self.M2 * self.N2) ** 2 * tube)
        return ball, psi, ball


def sharpness_functions(M1, M2, N=None, N2=8) -> SharpnessFunctions:
    """Build the three paired spectral evaluators at the given scales."""
    return SharpnessFunctions.make(M1, M2, N, N2)


# ---------------------------------------------------------------------------
# profile tables for the reduced tube-frame integral
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _ball_correlation(M1: float, Mx: float, n_r: int = 385):
    """C(r) = int chi(|y|/M1) chi(|y + r e|/Mx) dy on r in [0, M1+Mx]."""
    b = default_bump()
    r = np.linspace(0.0, M1 + Mx, n_r)
    u, wu = gauss_on(-M1, M1, 96)          # coordinate along e
    rho, wrho = gauss_on(0.0, M1, 96)      # cylindrical radius
    cyl = b.chi(np.sqrt(u[:, None] ** 2 + rho[None, :] ** 2) / M1)
    vals = np.empty(n_r)
    for sl in blocks(n_r, u.size * rho.size):
        dist = np.sqrt((u[None, :, None] + r[sl, None, None]) ** 2
                       + rho[None, None, :] ** 2)
        vals[sl] = 2.0 * np.pi * np.einsum(
            "i,j,ij,rij->r", wu, wrho * rho, cyl, b.chi(dist / Mx))
    return r, vals


@lru_cache(maxsize=8)
def _window_table(q_max: float, c_max: float, n_q: int = 1153, n_c: int = 65):
    """V(q, c) = int_{-1}^{1} S(tau) theta_hat(q - c tau) dtau, with S the
    squared plane marginal of the bump (its plane slices) and theta the
    default time cutoff."""
    cutoff = default_cutoff()
    tau, wt = gauss_on(-1.0, 1.0, 96)
    s_vals = default_bump().plane_marginal(tau, squared=True)
    q = np.linspace(-q_max, q_max, n_q)
    c = np.linspace(0.0, max(c_max, 1e-9), n_c)
    table = np.empty((n_q, n_c))
    for sl in blocks(n_q, n_c * tau.size):
        args = q[sl, None, None] - c[None, :, None] * tau[None, None, :]
        table[sl] = cutoff.hat(args) @ (s_vals * wt)
    return q, c, table


def _bilinear(table: np.ndarray, q0: float, dq: float, dc: float, Q, C):
    iq = np.clip(((Q - q0) / dq).astype(np.int64), 0, table.shape[0] - 2)
    fq = np.clip((Q - q0) / dq - iq, 0.0, 1.0)
    ic = np.clip((C / dc).astype(np.int64), 0, table.shape[1] - 2)
    fc = np.clip(C / dc - ic, 0.0, 1.0)
    return ((1 - fq) * (1 - fc) * table[iq, ic]
            + fq * (1 - fc) * table[iq + 1, ic]
            + (1 - fq) * fc * table[iq, ic + 1]
            + fq * fc * table[iq + 1, ic + 1])


class _ReducedIntegrand:
    """The single-tube integrand over (u, b, w, z) in [-1,1]x[0,1]x[-1,1]^2.

    u  = N2 * (eta2 component along the tube direction)
    b  = (perpendicular eta2 radius) / M2
    w  = 10 * (v2 parallel component - N2) / N2
    z  = M2 * (v2 perpendicular component along the eta2 cross-plane axis)

    Value: chi(u) chi(b) b chi(w) L(z) C(|eta2|) V(q, |eta2| N) with
    q = u (1 + w/10) + b z and L the line marginal (chord) of the bump.  The full integral is
        I = (pi/5) (M2 N2) (M1 Mx)^(-3/2) * G,  G = int of the above,
    after the exact J-fold tube reduction and the closed-form eliminations
    of the v ball (slice profile), the second v2 perpendicular coordinate
    (chord profile), and the eta/eta1 pair (ball correlation).
    """

    def __init__(self, M1, M2, N, N2):
        self.M1, self.M2, self.N, self.N2 = M1, M2, N, N2
        self.bump = default_bump()
        mx = max(M1, M2)
        self.prefactor = math.pi / 5.0 * (M2 * N2) * (M1 * mx) ** -1.5
        self.corr_r, self.corr_v = _ball_correlation(M1, mx)
        c_max = N * min(math.hypot(1.0 / N2, M2), M1 + mx) * 1.0001
        self.q_grid, self.c_grid, self.table = _window_table(2.3, c_max)
        self.q0 = self.q_grid[0]
        self.dq = self.q_grid[1] - self.q_grid[0]
        self.dc = self.c_grid[1] - self.c_grid[0]

    def gauss(self, n: int) -> float:
        u, wu = gauss_on(-1.0, 1.0, n)
        b, wb = gauss_on(0.0, 1.0, n)
        w, ww = gauss_on(-1.0, 1.0, n)
        z, wz = gauss_on(-1.0, 1.0, n)
        fac_ub, c_ub = self._eta2_factor_points(u[:, None], b[None, :])
        fac_ub = fac_ub * wu[:, None] * wb[None, :]
        fw = self.bump.chi(np.abs(w)) * ww
        fz = self.bump.line_marginal(z) * wz
        total = 0.0
        for sl in blocks(n, n**3):
            q = (u[sl, None, None, None] * (1.0 + w[None, None, :, None] / 10.0)
                 + (b[:, None] * z[None, :])[None, :, None, :])
            vq = _bilinear(self.table, self.q0, self.dq, self.dc, q,
                           c_ub[sl, :, None, None])
            total += float(np.einsum("ub,w,z,ubwz->", fac_ub[sl], fw, fz, vq))
        return self.prefactor * total

    def _point_values(self, u, b, w, z):
        fac_ub, c = self._eta2_factor_points(u, b)
        fw = self.bump.chi(np.abs(w))
        fz = self.bump.line_marginal(z)
        q = u * (1.0 + w / 10.0) + b * z
        return fac_ub * fw * fz * _bilinear(self.table, self.q0, self.dq,
                                            self.dc, q, c)

    def _eta2_factor_points(self, u, b):
        """chi(u) chi(b) b C(r) and the table ordinate c = r N, with u and b
        broadcast against each other."""
        r = np.sqrt((u / self.N2) ** 2 + (self.M2 * b) ** 2)
        corr = uniform_read(r, self.corr_v, self.corr_r[1])
        fac = self.bump.chi(np.abs(u)) * self.bump.chi(b) * b * corr
        return fac, r * self.N

    def stratified_mc(self, n_samples: int, rng: np.random.Generator) -> float:
        """Jittered-grid estimate: one uniform draw per cell of an m^4 grid.

        The stream is consumed one u-slab at a time in slab order (each
        slab's u, b, w, z jitters in turn) and each slab is summed on its own,
        so the estimate does not depend on how slabs are grouped into blocks.
        """
        m = max(4, int(n_samples ** 0.25))
        vol = 8.0 / m**4
        slab_sums = []
        cell = np.indices((m, m, m))  # the (b, w, z) cell indices of a slab
        for sl in blocks(m, 4 * m**3):
            iu = np.arange(m)[sl, None, None, None]
            jit = rng.random((iu.shape[0], 4, m, m, m))
            u = -1.0 + 2.0 * (iu + jit[:, 0]) / m
            b = (cell[0] + jit[:, 1]) / m
            w = -1.0 + 2.0 * (cell[1] + jit[:, 2]) / m
            z = -1.0 + 2.0 * (cell[2] + jit[:, 3]) / m
            vals = self._point_values(u, b, w, z)
            slab_sums.extend(vals.reshape(iu.shape[0], -1).sum(axis=1))
        return self.prefactor * vol * math.fsum(slab_sums)


def sharpness_integral(M1, M2, N=None, N2=8, budget: int = 1 << 24,
                       method: str = "gauss", rtol: float = 0.05,
                       seed: int = 0, normalized: bool = True) -> float:
    """Evaluate the quadruple interaction integral I at the given scales.

    budget caps the number of integrand evaluations.  The Gauss path takes
    the rungs of the refinement ladder whose cumulative cost n^4 fits the
    budget, evaluates only the last two of them and certifies that they
    agree to rtol (at the default budget those are n = 40 and 48); the
    Monte-Carlo path splits the budget into two independent stratified
    replicates and certifies their spread.
    Failure to certify raises QuadratureBudgetError carrying the partial
    value.  With normalized=True (default) the value is divided by the
    product of the three L^2 norms, matching the estimate's right-hand side.
    """
    M1, M2, N, N2 = _validate(M1, M2, N, N2)
    funcs = SharpnessFunctions.make(M1, M2, N, N2)
    scale = math.prod(funcs.l2_norms()) if normalized else 1.0
    red = _ReducedIntegrand(M1, M2, N, N2)

    if method == "gauss":
        spent = itertools.accumulate(n**4 for n in _LEVELS)
        rungs = [n for n, c in zip(_LEVELS, spent) if c <= budget]
        if len(rungs) < 2:
            raise QuadratureBudgetError(
                "quadrature budget too small for two refinement levels "
                f"(need at least {_LEVELS[0]**4 + _LEVELS[1]**4} evaluations)",
                partial=(red.gauss(rungs[0]) / scale if rungs else math.nan),
                rel_change=math.inf)
        values = [red.gauss(n) for n in rungs[-2:]]
        rel = abs(values[-1] - values[-2]) / max(abs(values[-1]), 1e-300)
        if rel > rtol:
            raise QuadratureBudgetError(
                f"quadrature budget exhausted at relative change {rel:.3g} "
                f"(> {rtol:.3g}); partial value I = {values[-1] / scale:.6g}",
                partial=values[-1] / scale, rel_change=rel)
        return values[-1] / scale

    if method == "mc":
        rng = np.random.default_rng(seed)
        half = max(budget // 2, 256)
        a = red.stratified_mc(half, rng)
        b = red.stratified_mc(half, rng)
        mid = 0.5 * (a + b)
        rel = abs(a - b) / max(abs(mid), 1e-300)
        if rel > rtol:
            raise QuadratureBudgetError(
                f"stratified sampling budget exhausted at replicate spread "
                f"{rel:.3g} (> {rtol:.3g}); partial value I = {mid / scale:.6g}",
                partial=mid / scale, rel_change=rel)
        return mid / scale

    raise ValueError("method must be 'gauss' or 'mc'")
