"""The benchmark's four workloads: seeded inputs, one op, and its oracle check.

Constructing a workload is its set-up: it builds everything an op needs,
including a pool of seeded inputs, so an op only computes.  `op(i)` runs the
i-th op on the i-th pooled input.  `check(i, out)` returns the list of
failed oracle checks for that op (empty when it passes); the benchmark calls
it outside the timed region.  Every tolerance below is the one the
repository's own tests assert for the same identity.

Lab functions are looked up on their modules at call time, so the tracing
wrappers of `spans.Tracer` see every call.  See WORKLOADS.md for why each
workload exists and what it should and should not move.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

A = importlib.import_module("boltzlab.ansatz")
B = importlib.import_module("boltzlab.bump")
C = importlib.import_module("boltzlab.collision")
G = importlib.import_module("boltzlab.grids")
S = importlib.import_module("boltzlab.sharpness")

FOUR_PI = 4.0 * math.pi
POOL = 64  # pooled inputs per run; ops past the pool reuse it cyclically


def lab_params(M: int):
    """The set-up every workload shares: the default bump profile and the
    tube/cavity parameters (which build the tube family)."""
    B.default_bump()
    return A.AnsatzParams.make(M=M)


def _rel_excess(got, want, rtol: float, what: str) -> list[str]:
    """[] when |got - want| <= rtol |want| pointwise, else one message."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want)
    if not np.any(bad):
        return []
    worst = float(np.max(err / np.maximum(np.abs(want), 1e-300)))
    return [f"{what}: relative error {worst:.3e} > {rtol:g}"]


def _split(E: np.ndarray, y: np.ndarray):
    """Components of y along each row of E and the length of the rest, the
    latter taken as the norm of the rejection rather than sqrt(|y|^2 -
    (e.y)^2), which cancels when y lies close to e."""
    par = E @ y
    return par, np.linalg.norm(y - par[:, None] * E, axis=1)


def _frame(e: np.ndarray):
    """Two unit vectors completing each row of e to an orthonormal frame."""
    a = np.where(np.abs(e[:, :1]) < 0.9, [[1.0, 0, 0]], [[0, 1.0, 0]])
    b1 = np.cross(e, a)
    b1 /= np.linalg.norm(b1, axis=1)[:, None]
    return b1, np.cross(e, b1)


# ---------------------------------------------------------------------------
# residual: the five-term residual of the tube/cavity ansatz
# ---------------------------------------------------------------------------

class Residual:
    """One op is `f_err_terms` at a seeded time in [t_star, 0]."""

    name = "residual"
    heavy = ("collision.gain_term_spectral",)
    LABELS = ["transport_cavity", "loss_tubes_cavity", "loss_cavity_cavity",
              "loss_tubes_tubes", "gain_full"]

    def __init__(self, seed: int):
        self.p = lab_params(4)
        self.cache = A.converged_beta_cache(self.p)
        self.grid = G.GridSpec((16,) * 3, (8,) * 3, Lx=1.9 / self.p.M,
                               Lv=1.25 * self.p.N2, full_cap=24**6)
        self.cfg = C.CollisionConfig(quadrature=C.SphereQuadrature.fibonacci(8))
        rng = np.random.default_rng(seed)
        self.times = rng.uniform(self.p.t_star, 0.0, POOL)

    def op(self, i: int):
        t = float(self.times[i % POOL])
        return A.f_err_terms(self.p, t, self.grid, self.cfg, beta=self.cache)

    def check(self, i: int, terms) -> list[str]:
        p, grid, cache = self.p, self.grid, self.cache
        t = float(self.times[i % POOL])
        labels = [name for name, _ in terms]
        if labels != self.LABELS:
            return [f"labels {labels} != {self.LABELS}"]
        fields = dict(terms)
        fails = []

        # zero mode: int Q+(f,f) dv = 4 pi rho_f^2 at every x
        rho = C.spatial_density(A.f_a_to_grid(p, t, grid, beta=cache)).real
        want = -FOUR_PI * rho**2
        got = C.spatial_density(fields["gain_full"]).real
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not err <= 1e-8:
            fails.append(f"gain mass: relative error {err:.3e} > 1e-08")

        # cavity-cavity loss: 4 pi amp_r^2 N^3 (int chi) exp(-2 beta) chi_x^2 chi_v
        bump = B.default_bump()
        X = grid.x_points()
        chi_x = bump.chi(p.M * np.linalg.norm(X, axis=1)).reshape(grid.nx)
        chi_v = bump.chi(np.linalg.norm(grid.v_points(), axis=1) / p.N
                         ).reshape(grid.nv)
        b = cache(t, X).reshape(grid.nx)
        sheet = (FOUR_PI * p.amp_r**2 * p.N**3 * bump.integral_3d
                 * np.exp(-2.0 * b) * chi_x**2)
        pred = sheet[:, :, :, None, None, None] * chi_v[None, None, None]
        mask = ((chi_x**2 > 1e-8)[:, :, :, None, None, None]
                & (chi_v > 1e-8)[None, None, None])
        lcc = fields["loss_cavity_cavity"].data.real
        fails += _rel_excess(lcc[mask], pred[mask], 1e-6, "cavity-cavity loss")
        return fails


# ---------------------------------------------------------------------------
# relax: homogeneous relaxation, f <- f + dt Q(f, f)
# ---------------------------------------------------------------------------

class Relax:
    """One op is a block of explicit steps from a seeded pair of displaced
    Maxwellians on a single x-cell."""

    name = "relax"
    heavy = ("collision.gain_term_spectral",)

    STEPS, DT = 16, 0.01

    def __init__(self, seed: int):
        lab_params(4)
        self.grid = G.GridSpec((1, 1, 1), (16,) * 3, Lx=1.0, Lv=6.0)
        self.cfg = C.CollisionConfig(quadrature=C.SphereQuadrature.fibonacci(64))
        rng = np.random.default_rng(seed)
        self.starts = []
        for _ in range(POOL):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            shift = rng.uniform(0.8, 1.6)
            temps = rng.uniform(0.7, 1.0, 2)
            self.starts.append(
                C.maxwellian(self.grid, 0.5, temps[0], shift * e)
                + C.maxwellian(self.grid, 0.5, temps[1], -shift * e))

    def op(self, i: int):
        f = self.starts[i % POOL]
        path = []
        for _ in range(self.STEPS):
            q = C.collision(f, f, self.cfg)
            path.append((f, q))
            f = f + q * self.DT
        return path

    def check(self, i: int, path) -> list[str]:
        fails = []
        worst = 0.0
        for f, q in path:
            gain_mass = C.moments(q + C.loss_term(f, f))[0]
            worst = max(worst, abs(C.moments(q)[0]) / abs(gain_mass))
        if not worst < 1e-6:
            fails.append(f"mass of Q(f,f) / gain mass {worst:.3e} >= 1e-06")
        if i == 0:
            fails += self.check_equilibrium()
        return fails

    def check_equilibrium(self) -> list[str]:
        """Q(M, M) vanishes for a Maxwellian up to the quadrature error."""
        m = C.maxwellian(self.grid)
        gain = C.gain_term_spectral(m, m, self.cfg)
        q = gain - C.loss_term(m, m)
        ratio = float(np.linalg.norm(q.data) / np.linalg.norm(gain.data))
        return [] if ratio < 5e-2 else [f"|Q(M,M)|/|Q+(M,M)| {ratio:.3e} >= 5e-2"]


# ---------------------------------------------------------------------------
# tubes: pointwise tube-family evaluators at M = 16 (J = 65536)
# ---------------------------------------------------------------------------

class Tubes:
    """One op evaluates `f_b_eval` and `SharpnessFunctions.psi_hat` on one
    seeded batch of points drawn inside tube supports."""

    name = "tubes"
    heavy = ("ansatz.f_b_eval", "sharpness.SharpnessFunctions.psi_hat")
    # The evaluators take the perpendicular distance as sqrt(|y|^2 - (e.y)^2),
    # which loses digits at points far along a tube; against the exact
    # rejection their relative error reaches 1e-10 on these samples, so the
    # tests' 1e-12 (asserted at x = 0, where nothing cancels) cannot hold here.
    RTOL = 1e-9

    POINTS, BATCHES, SAMPLED = 256, 16, 8

    def __init__(self, seed: int):
        self.p = lab_params(16)
        self.sf = S.SharpnessFunctions.make(4, 16, None, self.p.N2)
        rng = np.random.default_rng(seed)
        self.batches = [self._batch(rng, self.POINTS) for _ in range(self.BATCHES)]
        self.counts: list[float] = []

    def _batch(self, rng, n: int) -> dict:
        p, M, N2 = self.p, self.p.M, self.p.N2
        # f_b: v inside tube j's velocity support, x on its advected axis
        e = p.directions[rng.integers(0, p.J, n)]
        b1, b2 = _frame(e)
        w = rng.uniform(-0.5, 0.5, (n, 2))
        u = rng.uniform(-0.5, 0.5, (n, 1))
        v = N2 * (1 + u / 10.0) * e + (w[:, :1] * b1 + w[:, 1:] * b2) / M
        t = float(rng.uniform(-0.25, 0.0))
        r = rng.uniform(-0.5, 0.5, (n, 1)) * N2
        wx = rng.uniform(-0.5, 0.5, (n, 2))
        x = t * v + r * e + (wx[:, :1] * b1 + wx[:, 1:] * b2) / M
        # psi_hat: (eta2, v2) inside a sharpness tube's support
        fam = self.sf.family.directions
        e = fam[rng.integers(0, fam.shape[0], n)]
        b1, b2 = _frame(e)
        we = rng.uniform(-0.5, 0.5, (n, 2))
        eta2 = (rng.uniform(-0.5, 0.5, (n, 1)) / N2 * e
                + M * (we[:, :1] * b1 + we[:, 1:] * b2))
        wv = rng.uniform(-0.5, 0.5, (n, 2))
        v2 = (N2 * (1 + rng.uniform(-0.5, 0.5, (n, 1)) / 10.0) * e
              + (wv[:, :1] * b1 + wv[:, 1:] * b2) / M)
        return {"t": t, "x": x, "v": v, "eta2": eta2, "v2": v2}

    def op(self, i: int):
        bt = self.batches[i % self.BATCHES]
        return (A.f_b_eval(self.p, bt["t"], bt["x"], bt["v"]),
                self.sf.psi_hat(bt["eta2"], bt["v2"]))

    def check(self, i: int, out) -> list[str]:
        fb, psi = out
        bt = self.batches[i % self.BATCHES]
        k = slice(0, self.SAMPLED)
        want_fb, n_fb = self.brute_f_b(bt["t"], bt["x"][k], bt["v"][k])
        want_psi, n_psi = self.brute_psi(bt["eta2"][k], bt["v2"][k])
        self.counts.append(float(np.mean(np.concatenate([n_fb, n_psi]))))
        return (_rel_excess(fb[k], want_fb, self.RTOL, "f_b_eval")
                + _rel_excess(psi[k], want_psi, self.RTOL, "psi_hat"))

    def brute_f_b(self, t, x, v):
        """f_b by the full sum over all J tubes, point by point; also the
        number of tubes contributing at each point."""
        p, chi = self.p, B.default_bump().chi
        vals, counts = [], []
        for xk, vk in zip(x, v):
            dx, px = _split(p.directions, xk - t * vk)
            dv, pv = _split(p.directions, vk)
            terms = (chi(p.M * px) * chi(dx / p.N2) * chi(p.M * pv)
                     * chi(10.0 * (dv - p.N2) / p.N2))
            vals.append(p.amp_b * float(np.sum(terms)))
            counts.append(np.count_nonzero(terms))
        return np.array(vals), np.array(counts)

    def brute_psi(self, eta2, v2):
        """psi_hat by the full sum over all J tubes, point by point."""
        sf, chi = self.sf, B.default_bump().chi
        vals, counts = [], []
        for ek, vk in zip(eta2, v2):
            de, pe = _split(sf.family.directions, ek)
            dv, pv = _split(sf.family.directions, vk)
            terms = (chi(pe / sf.M2) * chi(sf.N2 * np.abs(de)) * chi(sf.M2 * pv)
                     * chi(10.0 * (dv - sf.N2) / sf.N2))
            vals.append(float(np.sum(terms)) / (sf.M2 * sf.N2))
            counts.append(np.count_nonzero(terms))
        return np.array(vals), np.array(counts)

    def evidence(self) -> dict:
        return {"contributing_tubes_per_point": float(np.mean(self.counts)),
                "tubes": self.p.J}


# ---------------------------------------------------------------------------
# scalars: attenuation cache, cavity density and the sharpness integral
# ---------------------------------------------------------------------------

class Scalars:
    """Set-up builds the converged attenuation cache; one op is `rho_b_eval`
    at t = 0 on a seeded batch of cavity points (the origin first) and
    `sharpness_integral` at the scales with a reference value."""

    name = "scalars"
    heavy = ("ansatz.rho_b_eval", "sharpness.sharpness_integral")
    SHARPNESS = ((4, 4, None, 8), 14.1713)
    # The cache build is interpreter-bound: on a shared 2-CPU virtual machine
    # its time followed the host's speed steps by up to 1.65x, against 1.35x
    # for the dense tube sums, so it runs once per process, in set-up, where
    # setup_s and the set-up layer metrics report it.
    POINTS, BATCHES, PROBES, COUNTED = 500, 16, 4, 64

    def __init__(self, seed: int):
        self.p = lab_params(16)
        self.cache = A.converged_beta_cache(self.p)
        M = self.p.M
        rng = np.random.default_rng(seed)
        self.batches = []
        for _ in range(self.BATCHES):
            x = rng.uniform(-1.0, 1.0, (4 * self.POINTS, 3))
            x = x[np.linalg.norm(x, axis=1) < 1.0][: self.POINTS - 1] / M
            self.batches.append(np.vstack([np.zeros((1, 3)), x]))
        self.probes = rng.uniform(-0.9 / M, 0.9 / M, (self.PROBES, 3))
        self.counts: list[float] = []

    def op(self, i: int):
        rho = A.rho_b_eval(self.p, 0.0, self.batches[i % self.BATCHES])
        scales, _ = self.SHARPNESS
        return rho, S.sharpness_integral(*scales)

    def check(self, i: int, out) -> list[str]:
        rho, sharp = out
        p = self.p
        fails = []
        centre = float(rho[0]) / (p.M * p.N2) ** (1.0 - p.s)
        if not abs(centre - 1.0) <= 0.02:
            fails.append(f"rho_b(0,0)/(M N2)^(1-s) = {centre:.6f}, not 1 +- 0.02")
        _, ref = self.SHARPNESS
        fails += _rel_excess(sharp, ref, 2e-3, "sharpness integral")
        if i == 0:
            fails += self.check_cache(self.cache)
        batch = self.batches[i % self.BATCHES]
        self.counts.append(self.tubes_through(batch[: self.COUNTED]))
        return fails

    def check_cache(self, cache) -> list[str]:
        """The set-up's cache matches `beta_eval` without a cache."""
        p = self.p
        direct = A.beta_eval(p, p.t_star, self.probes)
        return _rel_excess(cache(p.t_star, self.probes), direct, 1e-2,
                           "beta cache vs direct")

    def tubes_through(self, x) -> float:
        """Mean number of tubes whose t = 0 support M|x_perp| < 1,
        |x_par| < N2 contains each point."""
        p = self.p
        dots = x @ p.directions.T
        perp = np.sqrt(np.maximum(np.sum(x**2, axis=1)[:, None] - dots**2, 0.0))
        inside = (p.M * perp < 1.0) & (np.abs(dots) < p.N2)
        return float(np.mean(np.sum(inside, axis=1)))

    evidence = Tubes.evidence


WORKLOADS = {w.name: w for w in (Residual, Relax, Tubes, Scalars)}
