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
reduces to J times a single tube-frame integral over the eta2
parallel/perpendicular split, the v2 parallel/in-plane components and the
v-ball slice.  Writing theta_hat as the transform of theta collapses the
v2 and slice averages into one integral over the time frequency s, of the
bump's 1-D and 2-D transforms (the 2-D one is the chord profile's) and a
cosine transform of the squared slice profile, leaving a 3-D integral over
(eta2 split, s).  The product Gauss rule and the stratified Monte-Carlo
fallback (jittered in the eta2 split, tube strata being identical) share
this reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import TubeFamily, _as_pairs, _tube_family
from .bump import BumpProfile, default_bump, default_cutoff, gauss_on
from .grids import _is_dyadic, blocks, uniform_read

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
        fam = _tube_family(int(M2), int(N2))
        return cls(M1, M2, N, N2, fam, default_bump())

    @property
    def J(self) -> int:
        return self.family.J

    def _balls(self, eta, v, radius: float) -> np.ndarray:
        """The frequency ball of `radius` times the velocity ball, L^2-scaled."""
        amp = radius ** -1.5 * self.N ** -1.5
        return amp * (self.bump.chi(np.linalg.norm(eta, axis=-1) / radius)
                      * self.bump.chi(np.linalg.norm(v, axis=-1) / self.N))

    def phi_hat(self, eta1, v) -> np.ndarray:
        return self._balls(eta1, v, self.M1)

    def zeta_hat(self, eta, v) -> np.ndarray:
        return self._balls(eta, v, max(self.M1, self.M2))

    def psi_hat(self, eta2, v2) -> np.ndarray:
        e2, w2, batch = _as_pairs(eta2, v2)
        rows, tubes, vfac = self.family.candidates(w2)
        freq = self.family.support(e2[rows], tubes, 1.0 / self.M2, self.N2)
        out = np.bincount(rows, vfac * freq, minlength=e2.shape[0])
        return (out / (self.M2 * self.N2)).reshape(batch)

    def l2_norms(self) -> tuple[float, float, float]:
        """Exact L^2 norms of the three profiles (see `_l2_norms`)."""
        return _l2_norms(self.bump, self.J, self.M2, self.N2)


def _l2_norms(b: BumpProfile, J: int, M2: float, N2: float
              ) -> tuple[float, float, float]:
    """Exact L^2 norms of (phi_hat, psi_hat, zeta_hat) with J tubes in
    psi_hat, from the bump tables alone (scale-independent).

    phi and zeta factor into two balls; psi's tubes have pairwise disjoint
    velocity supports so cross terms vanish and the sum contributes exactly
    J single-tube masses.
    """
    ball = b.l2sq_3d
    tube = b.l2sq_2d**2 * b.l2sq_1d**2 / 10.0
    return ball, math.sqrt(J / (M2 * N2) ** 2 * tube), ball


def sharpness_functions(M1, M2, N=None, N2=8) -> SharpnessFunctions:
    """Build the three paired spectral evaluators at the given scales."""
    return SharpnessFunctions.make(M1, M2, N, N2)


# ---------------------------------------------------------------------------
# profile tables for the reduced tube-frame integral
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _ball_correlation(M1: float, Mx: float):
    """C(r) = int chi(|y|/M1) chi(|y + r e|/Mx) dy on 385 r in [0, M1+Mx]."""
    b = default_bump()
    r = np.linspace(0.0, M1 + Mx, 385)
    u, wu = gauss_on(-M1, M1, 96)          # coordinate along e
    rho, wrho = gauss_on(0.0, M1, 96)      # cylindrical radius
    cyl = b.chi(np.sqrt(u[:, None] ** 2 + rho[None, :] ** 2) / M1)
    vals = np.empty(r.size)
    for sl in blocks(r.size, u.size * rho.size):
        dist = np.sqrt((u[None, :, None] + r[sl, None, None]) ** 2
                       + rho[None, None, :] ** 2)
        vals[sl] = 2.0 * np.pi * np.einsum(
            "i,j,ij,rij->r", wu, wrho * rho, cyl, b.chi(dist / Mx))
    return r, vals


@lru_cache(maxsize=8)
def _slice_transform(k_max: float):
    """S_hat(k) = int_{-1}^{1} S(tau) cos(2 pi k tau) dtau at 2049 k in
    [0, k_max], S the squared plane marginal of the bump (its plane slices)."""
    tau, wt = gauss_on(0.0, 1.0, 96)
    s_vals = 2.0 * default_bump().plane_marginal(tau, squared=True) * wt
    k = np.linspace(0.0, max(k_max, 1e-9), 2049)
    return k, np.cos(2.0 * np.pi * np.outer(k, tau)) @ s_vals


class _ReducedIntegrand:
    """The single-tube integrand over (u, b) in [-1, 1] x [0, 1].

    u  = N2 * (eta2 component along the tube direction)
    b  = (perpendicular eta2 radius) / M2

    Value: chi(u) chi(b) b C(|eta2|) H(u, b), with C the ball correlation and
    H the average of theta_hat(u (1 + w/10) + b z - c tau), c = N |eta2|,
    against chi(w), the chord profile L(z) and the slice profile S(tau) over
    w = 10 (v2 parallel - N2) / N2, z = M2 (v2 perpendicular along the eta2
    cross-plane axis) and tau.  As theta_hat is the transform of theta,

        H = 2 int_0^T theta(s) cos(2 pi s u) h1(s u/10) h2(s b) S_hat(s c) ds

    with T = plateau + ramp, h1, h2 the bump's 1-D and 2-D transforms (h2 is
    L's 1-D transform) and S_hat the cosine transform of S.  The full
    integral is
        I = (pi/5) (M2 N2) (M1 Mx)^(-3/2) * G,  G = int of the above,
    after the exact J-fold tube reduction and the closed-form eliminations
    of the v ball (slice profile), the second v2 perpendicular coordinate
    (chord profile), and the eta/eta1 pair (ball correlation).
    """

    #: s nodes of each Monte-Carlo sample, charged as that many evaluations
    MC_S_NODES = 48

    def __init__(self, M1, M2, N, N2):
        self.M2, self.N, self.N2 = M2, N, N2
        self.bump = default_bump()
        self.cutoff = default_cutoff()
        self.s_max = self.cutoff.plateau + self.cutoff.ramp
        mx = max(M1, M2)
        self.prefactor = math.pi / 5.0 * (M2 * N2) * (M1 * mx) ** -1.5
        self.corr_r, self.corr_v = _ball_correlation(M1, mx)
        c_max = N * min(math.hypot(1.0 / N2, M2), M1 + mx) * 1.0001
        self.k_grid, self.slice_hat = _slice_transform(self.s_max * c_max)

    def _values(self, u, b, n_s: int):
        """chi(u) chi(b) b C(r) H(u, b) with u and b broadcast against each
        other and H by the n_s-node s rule."""
        r = np.sqrt((u / self.N2) ** 2 + (self.M2 * b) ** 2)
        corr = uniform_read(r, self.corr_v, self.corr_r[1])
        fac = self.bump.chi(np.abs(u)) * self.bump.chi(b) * b * corr
        return fac * self.window_average(u, b, r * self.N, n_s)

    def window_average(self, u, b, c, n_s: int):
        """H(u, b) at the ordinate c (all three broadcast) by an n_s-node
        Gauss rule in s, each point's s sum taken on its own."""
        s, ws = gauss_on(0.0, self.s_max, n_s)
        us, bs, cs = (np.asarray(a, dtype=float)[..., None] * s
                      for a in (u, b, c))
        kernel = (2.0 * self.cutoff(s) * ws * np.cos(2.0 * np.pi * us)
                  * self.bump.hat(us / 10.0, 1) * self.bump.hat(bs, 2)
                  * uniform_read(cs, self.slice_hat, self.k_grid[1]))
        return kernel.sum(axis=-1)

    def gauss(self, n: int) -> float:
        """Rung n: n Gauss nodes in each of u, b and s (n^3 evaluations)."""
        u, wu = gauss_on(-1.0, 1.0, n)
        b, wb = gauss_on(0.0, 1.0, n)
        total = 0.0
        for sl in blocks(n, n * n):
            vals = self._values(u[sl, None], b[None, :], n)
            total += float(wu[sl] @ vals @ wb)
        return self.prefactor * total

    def stratified_mc(self, n_evals: int, rng: np.random.Generator) -> float:
        """Jittered-grid estimate: one uniform (u, b) draw per cell of an m^2
        grid, m^2 MC_S_NODES <= n_evals.

        The stream is consumed one u-slab at a time in slab order (each
        slab's u, b jitters in turn) and each slab is summed on its own, so
        the estimate does not depend on how slabs are grouped into blocks.
        """
        m = max(4, math.isqrt(n_evals // self.MC_S_NODES))
        vol = 2.0 / m**2
        slab_sums = []
        for sl in blocks(m, m * self.MC_S_NODES):
            iu = np.arange(m)[sl, None]
            jit = rng.random((iu.shape[0], 2, m))
            u = -1.0 + 2.0 * (iu + jit[:, 0]) / m
            b = (np.arange(m) + jit[:, 1]) / m
            slab_sums.extend(self._values(u, b, self.MC_S_NODES).sum(axis=1))
        return self.prefactor * vol * math.fsum(slab_sums)


def sharpness_integral(M1, M2, N=None, N2=8, budget: int = 1 << 18,
                       method: str = "gauss", rtol: float = 0.05,
                       seed: int = 0, normalized: bool = True) -> float:
    """Evaluate the quadruple interaction integral I at the given scales.

    budget caps the number of (u, b, s) evaluations of the reduced
    integrand.  The Gauss path takes the rungs n of the refinement ladder
    (n nodes on each axis) whose cumulative cost n^3 fits the budget,
    evaluates only the last two of them and certifies that they agree to
    rtol (the default budget fits the rungs up to n = 48 and compares 40
    with 48); the Monte-Carlo path splits the budget into two stratified
    replicates over (u, b), 48 s nodes a sample, and certifies their spread.
    Failure to certify raises QuadratureBudgetError carrying the partial
    value.  With normalized=True (default) the value is divided by the
    product of the three L^2 norms, matching the estimate's right-hand side.
    """
    M1, M2, N, N2 = _validate(M1, M2, N, N2)
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol}")
    # J = (M2 N2)^2 tubes, as in SharpnessFunctions.make
    scale = (math.prod(_l2_norms(default_bump(), (M2 * N2) ** 2, M2, N2))
             if normalized else 1.0)
    red = _ReducedIntegrand(M1, M2, N, N2)

    if method == "gauss":
        spent = itertools.accumulate(n**3 for n in _LEVELS)
        rungs = [n for n, c in zip(_LEVELS, spent) if c <= budget]
        if len(rungs) < 2:
            raise QuadratureBudgetError(
                "quadrature budget too small for two refinement levels "
                f"(need at least {_LEVELS[0]**3 + _LEVELS[1]**3} evaluations)",
                partial=(red.gauss(rungs[0]) / scale if rungs else math.nan),
                rel_change=math.inf)
        a, b = (red.gauss(n) for n in rungs[-2:])
        value, what = b, "quadrature budget exhausted at relative change"
    elif method == "mc":
        rng = np.random.default_rng(seed)
        half = max(budget // 2, 256)
        a, b = (red.stratified_mc(half, rng) for _ in range(2))
        value = 0.5 * (a + b)
        what = "stratified sampling budget exhausted at replicate spread"
    else:
        raise ValueError("method must be 'gauss' or 'mc'")
    rel = abs(a - b) / max(abs(value), 1e-300)
    if rel > rtol:
        raise QuadratureBudgetError(
            f"{what} {rel:.3g} (> {rtol:.3g}); partial value I = "
            f"{value / scale:.6g}", partial=value / scale, rel_change=rel)
    return value / scale
