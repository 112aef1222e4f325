"""Tube/cavity construction: direction grid, densities, attenuation, norms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import SphericalVoronoi

from boltzlab import ansatz, grids
from boltzlab.ansatz import (
    AnsatzParams,
    BetaCache,
    TubeFamily,
    beta_eval,
    bilinear_factors,
    converged_beta_cache,
    f_a_eval,
    f_a_to_grid,
    f_b_eval,
    f_b_sobolev_norm,
    f_b_to_grid,
    f_b_z_norm,
    f_err_terms,
    f_r_eval,
    f_r_sobolev_norm,
    f_r_to_grid,
    f_r_z_norm,
    f_a_sobolev_norm,
    f_a_z_norm,
    rho_b_eval,
    rho_b_radial,
    rho_r_eval,
    sphere_grid,
    transport_term,
    _smear,
)
from boltzlab.bump import default_bump, gauss_on
from boltzlab.collision import CollisionConfig, SphereQuadrature, gain_term_spectral
from boltzlab.grids import GridSpec, uniform_read
from boltzlab.norms import z_norm
from boltzlab.sharpness import sharpness_functions


@pytest.fixture(scope="module")
def p8():
    return AnsatzParams.make(M=8)


@pytest.fixture(scope="module")
def p16():
    return AnsatzParams.make(M=16)


@pytest.fixture(scope="module")
def p4():
    return AnsatzParams.make(M=4)


@pytest.fixture(scope="module")
def caches():
    """Converged attenuation caches, shared across the module."""
    out = {}
    for M in (4, 8, 16):
        p = AnsatzParams.make(M=M)
        out[M] = (p, converged_beta_cache(p))
    return out


# ---------------------------------------------------------------------------
# direction grid
# ---------------------------------------------------------------------------

class TestSphereGrid:
    def test_minimum_count(self):
        with pytest.raises(ValueError, match="J >= 12"):
            sphere_grid(11)

    def test_unit_vectors(self):
        dirs = sphere_grid(500)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-14

    def test_min_angle_at_twelve(self):
        dirs = sphere_grid(12)
        dots = dirs @ dirs.T
        np.fill_diagonal(dots, -1.0)
        min_angle = math.acos(float(dots.max()))
        assert min_angle > 0.5 * math.sqrt(4.0 * math.pi / 12)

    @pytest.mark.parametrize("J", [12.5, 256.7, math.inf, math.nan])
    def test_rejects_non_integer_count(self, J):
        with pytest.raises(ValueError, match="must be an integer"):
            sphere_grid(J)

    @pytest.mark.parametrize("J", [12, np.int64(12), 12.0])
    def test_integral_counts_accepted(self, J):
        assert sphere_grid(J).shape == (12, 3)

    def test_doubling_halves_voronoi_area(self):
        areas = {}
        for J in (256, 512):
            sv = SphericalVoronoi(sphere_grid(J))
            areas[J] = float(np.median(sv.calculate_areas()))
        ratio = areas[512] / areas[256]
        assert 0.5 * 0.8 < ratio < 0.5 * 1.2


class TestTubeFamily:
    def test_default_build(self):
        fam = TubeFamily.make(8, 8)
        assert fam.J == 64**2
        assert fam.directions.shape == (fam.J, 3)
        eq = fam.equal_area_spacing
        assert 0.5 * eq <= fam.min_spacing <= 2.0 * eq

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="dyadic"):
            TubeFamily.make(6, 8)
        with pytest.raises(ValueError, match="dyadic"):
            TubeFamily.make(8, 3)
        with pytest.raises(ValueError, match="factor 2"):
            TubeFamily.make(4, 4, J=3 * 256)

    def test_rejects_non_integer_count(self):
        with pytest.raises(ValueError, match="must be an integer"):
            TubeFamily.make(4, 4, 256.7)
        for J in (256, np.int64(256), 256.0):
            fam = TubeFamily.make(4, 4, J)
            assert fam.J == 256 and type(fam.J) is int

    def test_tube_v_supports_disjoint_by_spacing(self):
        # any two tubes' velocity supports are disjoint when the angular
        # spacing exceeds 2 asin(1/(0.9 M N2)); the Fibonacci grid clears
        # that with ~1.39x margin at every size
        for M in (4, 8, 16):
            p = AnsatzParams.make(M=M)
            need = 2.0 * math.asin(1.0 / (0.9 * p.M * p.N2))
            assert p.tube.min_spacing > 1.2 * need


class TestAnsatzParams:
    def test_defaults(self, p8):
        assert p8.M == 8 and p8.N2 == 8 and p8.J == 4096
        assert p8.N == pytest.approx(1.0 / 8)
        assert p8.mu == pytest.approx(1.0)
        assert p8.s0 == pytest.approx(0.75 - math.log(math.log(8)) / math.log(8))
        assert p8.t_star == pytest.approx(-0.2 * 64 ** (-0.25) * math.log(8))
        assert p8.amp_b == pytest.approx(
            p8.density_norm * 8 ** 0.25 * 8 ** -2.75)
        assert p8.amp_r == pytest.approx(8 ** 2.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="dyadic integer >= 4"):
            AnsatzParams.make(M=2)
        with pytest.raises(ValueError, match="regularity"):
            AnsatzParams.make(M=8, s=0.4)
        with pytest.raises(ValueError, match="delta must lie"):
            AnsatzParams.make(M=8, delta=0.3)
        with pytest.raises(ValueError, match="delta must not exceed"):
            AnsatzParams.make(M=8, s=0.6, delta=0.22)
        with pytest.raises(ValueError, match="mu must be at least delta"):
            AnsatzParams.make(M=256, N2=2, delta=0.2)
        with pytest.raises(ValueError, match="velocity width"):
            AnsatzParams.make(M=8, N=0.2)
        with pytest.raises(ValueError, match="attenuation window"):
            AnsatzParams.make(M=16, N2=2, delta=0.2)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            AnsatzParams.make(M=4, mu=mu)

    def test_s0_increases_toward_s(self):
        rows = [AnsatzParams.make(M=16),
                AnsatzParams.make(M=64, N2=8, delta=0.1),
                AnsatzParams.make(M=256, N2=2, delta=0.03)]
        s0s = [p.s0 for p in rows]
        assert s0s == sorted(s0s)
        assert all(s0 < p.s for s0, p in zip(s0s, rows))


# ---------------------------------------------------------------------------
# the tube field
# ---------------------------------------------------------------------------

def _inside_tubes(fam, rng, n):
    """n velocities inside the supports of random tubes e of the family, with
    unit-scale offsets r along and perp across each chosen tube."""
    e = fam.directions[rng.integers(0, fam.J, n)]
    a = np.where(np.abs(e[:, :1]) < 0.9, [[1.0, 0, 0]], [[0, 1.0, 0]])
    b1 = np.cross(e, a)
    b1 /= np.linalg.norm(b1, axis=1)[:, None]
    b2 = np.cross(e, b1)
    w = rng.uniform(-0.5, 0.5, (n, 2))
    u = rng.uniform(-0.5, 0.5, n)
    v = (fam.N2 * (1 + u[:, None] / 10.0) * e
         + (w[:, :1] * b1 + w[:, 1:] * b2) / fam.M)
    r = rng.uniform(-0.5, 0.5, n)[:, None]
    wx = rng.uniform(-0.5, 0.5, (n, 2))
    return v, e, r, wx[:, :1] * b1 + wx[:, 1:] * b2


def _exact_support(y, E, a, b):
    """chi(a |y_perp|) chi(b y.e) over every direction e of E, with y_perp
    the rejection y - (y.e) e; y is one point or one row per direction."""
    par = np.sum(y * E, axis=1)
    perp = np.linalg.norm(y - par[:, None] * E, axis=1)
    return default_bump().chi(a * perp) * default_bump().chi(b * par)


class TestTubeField:
    def test_amplitude_on_tube_axis(self, p8):
        # at x=0, v = N2 e_j the j-th tube contributes chi(0)^4 = 1 and the
        # disjoint v-supports silence every other tube
        for j in (0, 1371, p8.J - 1):
            v = p8.N2 * p8.directions[j]
            val = float(f_b_eval(p8, 0.0, np.zeros(3), v))
            assert val == pytest.approx(p8.amp_b, rel=1e-12)

    def test_sum_assembly_against_direct(self, p8):
        # brute-force the j-sum at (0, 0, N2 e1) independently
        bump = default_bump()
        v = np.array([p8.N2, 0.0, 0.0])
        E = p8.directions
        dv = E @ v
        perp = np.sqrt(np.clip(float(v @ v) - dv**2, 0.0, None))
        total = p8.amp_b * float(np.sum(
            bump.chi(p8.M * perp) * bump.chi(10.0 * (dv - p8.N2) / p8.N2)))
        assert float(f_b_eval(p8, 0.0, np.zeros(3), v)) == pytest.approx(
            total, rel=1e-12, abs=1e-15)

    def test_annulus_support(self, p8):
        rng = np.random.default_rng(41)
        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        xs = rng.uniform(-1, 1, (40, 3))
        inner = f_b_eval(p8, 0.1, xs, 0.89 * p8.N2 * dirs)
        outer = f_b_eval(p8, 0.1, xs, 1.12 * p8.N2 * dirs)
        assert np.all(inner == 0.0) and np.all(outer == 0.0)

    def test_transport_identity(self, p8):
        # sample inside tube supports so the identity is exercised nontrivially
        t = -0.13
        v, e, r, perp = _inside_tubes(p8.tube, np.random.default_rng(42), 60)
        # land x on the advected tube axis so the left side is not trivially 0
        x = t * v + (r * p8.N2) * e + perp / p8.M
        lhs = f_b_eval(p8, t, x, v)
        rhs = f_b_eval(p8, 0.0, x - t * v, v)
        assert np.sum(lhs > 0) > 20
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_exact_rejection_far_along_tubes(self, p8):
        # far along a tube sqrt(|y|^2 - (y.e)^2) loses digits; both
        # evaluators must match the sum over all J tubes taken with the
        # rejection y - (y.e) e
        t = -0.13
        v, e, r, perp = _inside_tubes(p8.tube, np.random.default_rng(42), 60)
        x = t * v + (r * p8.N2) * e + perp / p8.M
        E = p8.directions
        want = [p8.amp_b * float(np.sum(
            _exact_support(vk - p8.N2 * E, E, p8.M, 10.0 / p8.N2)
            * _exact_support(xk - t * vk, E, p8.M, 1.0 / p8.N2)))
            for xk, vk in zip(x, v)]
        got = f_b_eval(p8, t, x, v)
        assert np.sum(got > 0) > 20
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

        sf = sharpness_functions(4, 4, None, 8)
        v2, e, r, perp = _inside_tubes(sf.family, np.random.default_rng(43), 60)
        eta2 = (r / sf.N2) * e + perp * sf.M2
        E = sf.family.directions
        want = [float(np.sum(
            _exact_support(vk - sf.N2 * E, E, sf.M2, 10.0 / sf.N2)
            * _exact_support(ek, E, 1.0 / sf.M2, sf.N2))) / (sf.M2 * sf.N2)
            for ek, vk in zip(eta2, v2)]
        got = sf.psi_hat(eta2, v2)
        assert np.sum(got > 0) > 20
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_disjoint_supports_pointwise(self, p8):
        # on the j-th axis only tube j is live: removing it leaves zero
        bump = default_bump()
        rng = np.random.default_rng(43)
        for j in rng.integers(0, p8.J, 8):
            v = p8.N2 * p8.directions[j]
            x = rng.uniform(-0.5, 0.5, 3)
            dx = float(x @ p8.directions[j])
            perp = math.sqrt(max(float(x @ x) - dx**2, 0.0))
            single = p8.amp_b * float(
                bump.chi(p8.M * perp) * bump.chi(dx / p8.N2))
            assert float(f_b_eval(p8, 0.0, x, v)) == pytest.approx(
                single, rel=1e-12, abs=1e-15)

    def test_fr_fb_product_vanishes(self, p8):
        rng = np.random.default_rng(44)
        xs = rng.uniform(-1, 1, (300, 3))
        vs = rng.normal(size=(300, 3)) * p8.N2
        prod = f_r_eval(p8, 0.0, xs, vs) * f_b_eval(p8, 0.0, xs, vs)
        assert np.all(prod == 0.0)


# ---------------------------------------------------------------------------
# the deposited density
# ---------------------------------------------------------------------------

class TestBlockBudget:
    def test_evaluators_do_not_depend_on_it(self, p8, monkeypatch):
        rng = np.random.default_rng(44)
        x = rng.uniform(-0.5, 0.5, (30, 3)) / p8.M
        v = p8.N2 * p8.directions[rng.integers(0, p8.J, 30)]
        sf = sharpness_functions(4, 4, None, 8)
        eta2 = rng.uniform(-0.05, 0.05, (30, 3))
        v2 = 8.0 * sf.family.directions[rng.integers(0, sf.J, 30)]
        runs = []
        for budget in (1 << 10, 1 << 18):
            monkeypatch.setattr(grids, "_BLOCK", budget)
            runs.append((f_b_eval(p8, -0.1, x, v),
                         rho_b_eval(p8, 0.5 * p8.t_star, x),
                         sf.psi_hat(eta2, v2)))
        for small, large in zip(*runs):
            assert np.all(large != 0.0)
            np.testing.assert_allclose(small, large, rtol=1e-14)


def _annulus_rows(fam, v):
    speed = np.linalg.norm(v, axis=1)
    return np.nonzero((speed >= 0.9 * fam.N2)
                      & (speed <= math.hypot(1.1 * fam.N2, 1.0 / fam.M)))[0]


def _dense_candidates(fam, v):
    """`TubeFamily.candidates` on one whole (rows x J) mask read by 2-D
    np.nonzero, with the same annulus, threshold and support."""
    rows = _annulus_rows(fam, v)
    speed = np.linalg.norm(v[rows], axis=1)
    lo = np.sqrt(np.maximum(speed ** 2 - 1.0 / fam.M**2, (0.9 * fam.N2) ** 2))
    r, c = np.nonzero(v[rows] @ fam.directions.T > lo[:, None])
    vfac = fam.support(v[rows][r] - fam.N2 * fam.directions[c], c, fam.M,
                       10.0 / fam.N2)
    live = vfac > 0.0
    return rows[r[live]], c[live], vfac[live]


def _tube_velocities(fam, rng, n, spread):
    """n velocities near random tubes' support centres N2 e: along e inside
    the parallel factor, across it up to spread/M per axis."""
    e = fam.directions[rng.integers(0, fam.J, n)]
    return (fam.N2 * (1.0 + rng.uniform(-0.05, 0.05, (n, 1))) * e
            + rng.uniform(-spread, spread, (n, 3)) / fam.M)


class TestCandidates:
    # block widths: the default budget, one that leaves a short last block,
    # and one direction per block
    @pytest.mark.parametrize("width", [None, 1000, 1],
                             ids=["default", "short_last_block", "one_direction"])
    def test_matches_one_dense_mask(self, p8, width, monkeypatch):
        fam, rng = p8.tube, np.random.default_rng(45)
        off = np.array([[0.0, 0.0, 0.0], [0.5 * fam.N2, 0.0, 0.0],
                        [0.0, 2.0 * fam.N2, 0.0], [0.0, 0.0, -0.89 * fam.N2]])
        # spread 0.8/M reaches past the 1/M support radius, so some pairs
        # pass the threshold and are then dropped by the support factor
        v = np.concatenate([_tube_velocities(fam, rng, 40, 0.8), off])
        v = v[rng.permutation(v.shape[0])]
        on = _annulus_rows(fam, v)
        if width is not None:
            # blocks() divides the budget by the annulus row count
            monkeypatch.setattr(grids, "_BLOCK", width * on.size)
            assert width == 1 or fam.J % width != 0
        rows, tubes, vfac = fam.candidates(v)
        assert np.unique(rows).size > 30 and np.isin(rows, on).all()
        for row in np.unique(rows):
            assert np.all(np.diff(tubes[rows == row]) > 0)
        order = np.argsort(rows, kind="stable")
        for got, ref in zip((rows[order], tubes[order], vfac[order]),
                            _dense_candidates(fam, v)):
            assert np.array_equal(got, ref)

    def test_every_row_off_the_annulus(self, p8):
        fam = p8.tube
        v = np.array([[0.0, 0.0, 0.0], [0.5 * fam.N2, 0.0, 0.0],
                      [0.0, 0.0, 1.2 * fam.N2]])
        rows, tubes, vfac = fam.candidates(v)
        assert rows.size == tubes.size == vfac.size == 0
        for got, ref in zip((rows, tubes, vfac), _dense_candidates(fam, v)):
            assert np.array_equal(got, ref) and got.dtype == ref.dtype

    def test_traced_peak_within_one_block_and_its_mask(self, p16):
        # one (rows x block) float64 product and its boolean mask: 2.25 MiB
        fam = p16.tube
        v = _tube_velocities(fam, np.random.default_rng(46), 256, 0.3)
        tracemalloc.start()
        try:
            rows, _, _ = fam.candidates(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size == 256
        assert peak <= 1.25 * (grids._BLOCK * 8 + grids._BLOCK)


class TestTubeDensity:
    def test_center_normalization(self):
        # every tube passes through x=0, so the t=0 center value is exactly
        # J * amp_b * (per-tube velocity mass) = (M N2)^(1-s)
        for M in (4, 8, 16):
            p = AnsatzParams.make(M=M)
            val = float(rho_b_eval(p, 0.0, np.zeros(3)))
            assert val / (p.M * p.N2) ** (1 - p.s) == pytest.approx(1.0, abs=0.02)

    def test_center_exponent(self):
        vals = []
        for M in (4, 8, 16):
            p = AnsatzParams.make(M=M)
            vals.append(float(rho_b_eval(p, 0.0, np.zeros(3))))
        slope = np.polyfit(np.log([4, 8, 16]), np.log(vals), 1)[0]
        assert abs(slope - (1 - 0.75) * (1 + 1.0)) < 0.2

    def test_against_velocity_quadrature(self, p4):
        # defining identity rho_b = int f_b dv, with the v-integral done by
        # per-tube tensor Gauss in each tube frame (independent of the
        # correlation tables used by rho_b_eval)
        def direct(t, x):
            r1, w1 = gauss_on(-1.0, 1.0, 20)
            tot = 0.0
            for j in range(p4.J):
                e = p4.directions[j]
                a = np.array([1.0, 0, 0]) if abs(e[0]) < 0.9 else np.array([0, 1.0, 0])
                b1 = np.cross(e, a)
                b1 /= np.linalg.norm(b1)
                b2 = np.cross(e, b1)
                W1, W2, U = np.meshgrid(r1, r1, r1, indexing="ij")
                V = (W1[..., None] * b1 / p4.M + W2[..., None] * b2 / p4.M
                     + (p4.N2 * (1 + U[..., None] / 10.0)) * e)
                F = f_b_eval(p4, t, x, V.reshape(-1, 3))
                wt = (w1[:, None, None] * w1[None, :, None]
                      * w1[None, None, :]).ravel()
                tot += float(F @ wt) / p4.M**2 * (p4.N2 / 10.0)
            return tot

        for t, x in [(0.0, np.array([0.07, -0.11, 0.06])),
                     (-0.12, np.array([0.4, 0.1, -0.3]))]:
            table = float(rho_b_eval(p4, t, x))
            assert table == pytest.approx(direct(t, x), rel=2e-3)

    def test_support_and_time_window(self, p8):
        far = np.array([[p8.N2 * 1.4, 0, 0], [0, -p8.N2 * 1.5, 1.0]])
        assert np.all(rho_b_eval(p8, 0.2, far) == 0.0)
        with pytest.raises(ValueError, match="time window"):
            rho_b_eval(p8, 0.3, np.zeros(3))

    def test_radial_density_keeps_the_time_window(self, p8):
        # the smear tables reach |t| = 0.3, past the window rho_b_eval keeps
        with pytest.raises(ValueError, match="standing time window"):
            rho_b_radial(p8, 0.27, [0.0, 0.1])

    @pytest.mark.parametrize("frac", [0.0, 0.5])
    def test_table_read_matches_interp_reference(self, p8, frac):
        # the whole tube sum with np.interp's binary-search reads
        t = frac * p8.t_star
        rng = np.random.default_rng(43)
        x = np.vstack([np.zeros((1, 3)), rng.uniform(-1.5, 1.5, (40, 3)) / p8.M])
        sm = _smear()
        c2, tab2, c1, tab1 = sm.at(t)
        dots = x @ p8.directions.T
        perp = np.sqrt(np.clip(np.sum(x**2, axis=1)[:, None] - dots**2, 0.0, None))
        terms = (np.interp(p8.M * perp, c2, tab2, right=0.0)
                 * np.interp(np.abs(dots - t * p8.N2) / p8.N2, c1, tab1, right=0.0))
        want = p8.amp_b * p8.N2 / (10.0 * p8.M**2) * terms.sum(axis=1)
        np.testing.assert_allclose(rho_b_eval(p8, t, x), want, rtol=1e-13)

    @pytest.mark.parametrize("frac", [0.0, 0.5])
    def test_m16_matches_interp_reference(self, p16, frac):
        # the M=16 (J=65536) sum of the scalars workload, one point at a time
        # with np.interp's binary-search reads: cavity points, points where
        # some reads pass the table ends, and points beyond every tube
        t = frac * p16.t_star
        rng = np.random.default_rng(45)
        x = np.vstack([np.zeros((1, 3)), rng.uniform(-1.0, 1.0, (19, 3)) / p16.M,
                       rng.uniform(-0.5, 0.5, (4, 3)) * p16.N2,
                       [[2.0 * p16.N2, 0.0, 0.0], [0.0, -1.5 * p16.N2, 3.0]]])
        sm = _smear()
        c2, tab2, c1, tab1 = sm.at(t)
        want = []
        for xi in x:
            dots = p16.directions @ xi
            perp = np.sqrt(np.clip(xi @ xi - dots**2, 0.0, None))
            want.append(np.sum(np.interp(p16.M * perp, c2, tab2, right=0.0)
                               * np.interp(np.abs(dots - t * p16.N2) / p16.N2,
                                           c1, tab1, right=0.0)))
        want = p16.amp_b * p16.N2 / (10.0 * p16.M**2) * np.array(want)
        got = rho_b_eval(p16, t, x)
        assert np.all(got[:-2] > 0.0) and np.all(got[-2:] == 0.0)
        np.testing.assert_allclose(got[:20], want[:20], rtol=1e-13)
        # off the cavity a point meets a few tubes at their edges, where the
        # reads fall on steep table tails: the two reads' rounding differs
        # by about 1e-12 of such a sum, 4e-17 of the centre value
        np.testing.assert_allclose(got[20:], want[20:], rtol=0,
                                   atol=1e-15 * want[0])

    def test_inputs_left_unchanged(self, p8):
        x = np.random.default_rng(46).uniform(-1.0, 1.0, (30, 3)) / p8.M
        keep = x.copy()
        rho_b_eval(p8, 0.5 * p8.t_star, x)
        assert np.array_equal(x, keep)
        table = np.cos(np.linspace(0.0, 3.0, 17))
        u = np.random.default_rng(47).uniform(0.0, 2.0, (6, 7))
        table0, u0 = table.copy(), u.copy()
        given = (np.empty(u.shape), (np.empty(u.shape), np.empty(u.shape, np.intp)))
        for out, work in ((None, None), given):
            uniform_read(u, table, 0.1, out=out, work=work)
            assert np.array_equal(u, u0) and np.array_equal(table, table0)

    def test_traced_peak_within_the_block_budget(self, p16):
        # the five work buffers of one call share the budget of a single
        # dense temporary (the peak is 1.08 budgets); before they existed,
        # each temporary filled the budget alone and the peak was 9.1
        x = np.random.default_rng(48).uniform(-1.0, 1.0, (500, 3)) / p16.M
        rho_b_eval(p16, 0.0, x[:2])  # the smear tables are built once per process
        tracemalloc.start()
        try:
            rho_b_eval(p16, 0.0, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * grids._BLOCK * 8

    def test_read_pairs_built_once_per_call(self, p16, monkeypatch):
        # one (A, B) pair per smear table and call, not two per block: the
        # 500 points below take hundreds of blocks of the M=16 directions
        built, pairs = [], grids.uniform_pairs

        def counted(table):
            built.append(table.size)
            return pairs(table)

        monkeypatch.setattr(grids, "uniform_pairs", counted)
        monkeypatch.setattr(ansatz, "uniform_pairs", counted)
        x = np.random.default_rng(49).uniform(-1.0, 1.0, (500, 3)) / p16.M
        rho_b_eval(p16, 0.5 * p16.t_star, x)
        c2, _, c1, _ = _smear().at(0.0)
        assert built == [c2.size, c1.size]

    def test_smear_tables_factorize_at_t0(self):
        # at tau=0 the transported correlations collapse onto the profile:
        # Psi2(c;0) = Phi2 chi(c), Psi1(c;0) = Phi1 chi(c)
        bump = default_bump()
        sm = _smear()
        c2, tab2, c1, tab1 = sm.at(0.0)
        np.testing.assert_allclose(tab2, bump.integral_2d * bump.chi(c2),
                                   atol=2e-6)
        np.testing.assert_allclose(tab1, bump.integral_1d * bump.chi(c1),
                                   atol=2e-6)

    def test_two_sided_overlap_law(self):
        # angular-averaged profile against (N2/(|x|+1/M))^2, constants recorded
        for M in (4, 8, 16):
            p = AnsatzParams.make(M=M)
            radii = np.geomspace(0.25 / p.M, p.N2 / 2.0, 12)
            prof = rho_b_radial(p, 0.0, radii)
            law = (p.M ** (-1 - p.s) * p.N2 ** (-1 - p.s)
                   * (p.N2 / (radii + 1.0 / p.M)) ** 2)
            ratio = prof / law
            assert ratio.max() / ratio.min() < 30.0
            assert 0.05 < ratio.min() and ratio.max() < 3.0

    def test_radial_law_within_factor_three(self, p8):
        # one fitted constant over the crossover-to-tail band [1/M, N2/2]
        radii = np.geomspace(1.0 / p8.M, p8.N2 / 2.0, 9)
        prof = rho_b_radial(p8, 0.0, radii)
        center = float(rho_b_eval(p8, 0.0, np.zeros(3)))
        law = center * (1.0 / p8.M / (radii + 1.0 / p8.M)) ** 2
        logr = np.log(prof / law)
        dev = math.exp(0.5 * (logr.max() - logr.min()))
        assert dev < 3.0

    @pytest.mark.parametrize("r", [-0.05, -2.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_radii(self, p4, r):
        # a negative radius would read the smear tables from their end
        with pytest.raises(ValueError, match="radii"):
            rho_b_radial(p4, 0.0, [0.1, r])


# ---------------------------------------------------------------------------
# attenuation exponent
# ---------------------------------------------------------------------------

class TestBeta:
    def test_zero_at_t0(self, p8):
        assert float(beta_eval(p8, 0.0, np.array([0.01, 0.02, 0.0]))) == 0.0

    def test_small_time_taylor(self, p8):
        x = np.array([0.02, -0.03, 0.01])
        t = 0.01 * p8.t_star
        b = float(beta_eval(p8, t, x))
        taylor = t * float(rho_b_eval(p8, 0.0, x))
        assert abs(b - taylor) / abs(taylor) < 0.05

    def test_sign_and_growth_backward(self, p8, caches):
        _, cache = caches[8]
        x = np.array([0.03, 0.0, -0.02])
        ts = np.linspace(p8.t_star, 0.0, 9)
        bs = np.array([float(cache(t, x)) for t in ts])
        assert np.all(bs <= 1e-12)
        assert np.all(np.diff(bs) >= -1e-12)  # increasing toward 0

    def test_linf_bound_constant(self, caches):
        consts = []
        for M in (4, 8, 16):
            p, cache = caches[M]
            consts.append(cache.max_abs()
                          / (abs(p.t_star) * (p.M * p.N2) ** (1 - p.s)))
        assert all(0.8 < c < 1.1 for c in consts)
        assert max(consts) / min(consts) < 1.3

    def test_radial_table_matches_direct(self, p4):
        # the coarse radial cache against the direct tube sum, at 40 seeded
        # points of the 9^3 box lattice and at lattice and off-lattice times
        cache = BetaCache(p4, nt=16, nx=8)
        ax = np.linspace(-cache.radius, cache.radius, 9)
        lattice = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        pts = lattice[np.random.default_rng(5).choice(len(lattice), 40,
                                                      replace=False)]
        for t in (p4.t_star, cache.t_nodes[5], 0.37 * p4.t_star):
            diff = np.abs(np.exp(-cache(t, pts))
                          - np.exp(-beta_eval(p4, float(t), pts)))
            assert np.max(diff) < 2e-3

    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_converged_cache_matches_direct(self, caches, M):
        p, cache = caches[M]
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.9 / p.M, 0.9 / p.M, (25, 3))
        direct = beta_eval(p, p.t_star, pts)
        interp = cache(p.t_star, pts)
        assert np.max(np.abs(interp - direct) / np.abs(direct)) < 4e-3

    def test_unconverged_cache_refused(self, p4):
        with pytest.raises(RuntimeError, match="did not stabilize"):
            converged_beta_cache(p4, tol=1e-12, max_rounds=1)
        with pytest.raises(ValueError, match="max_rounds"):
            converged_beta_cache(p4, max_rounds=0)

    def test_clamps_each_coordinate_to_the_box(self, caches):
        # outside [-R, R]^3 a read returns the read at the box point nearest
        # to x (each coordinate clipped), not at x scaled back to radius R
        p, cache = caches[8]
        R = cache.radius
        far = np.array([[2 * R, 0.3 * R, 0.0], [-5 * R, -2 * R, 0.3 * R]])
        near = np.array([[R, 0.3 * R, 0.0], [-R, -R, 0.3 * R]])
        for t in (p.t_star, 0.37 * p.t_star):
            np.testing.assert_array_equal(cache(t, far), cache(t, near))
        radial = far[0] * R / np.linalg.norm(far[0])
        assert cache(p.t_star, far[0]) != cache(p.t_star, radial)

    def test_refine_doubles(self, p4):
        c = BetaCache(p4, nt=8, nx=4)
        c2 = c.refine()
        assert (c2.nt, c2.nx) == (16, 8)

    def test_quadrature_nonconvergence_error(self, p8):
        with pytest.raises(RuntimeError, match="did not converge"):
            beta_eval(p8, p8.t_star, np.zeros(3), rtol=1e-16)

    @pytest.mark.parametrize("tol", [math.nan, -0.1, math.inf])
    def test_rejects_bad_tolerance(self, p4, tol):
        # a NaN tolerance would pass every `err > tol` check
        with pytest.raises(ValueError, match="rtol must be finite"):
            beta_eval(p4, p4.t_star, np.zeros((2, 3)), rtol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            converged_beta_cache(p4, tol=tol)

    def test_time_range(self, p8, caches):
        _, cache = caches[8]
        with pytest.raises(ValueError, match="t_star"):
            beta_eval(p8, 0.1, np.zeros(3))
        with pytest.raises(ValueError, match="t_star"):
            cache(2 * p8.t_star, np.zeros(3))
        # the same window with and without a cache
        with pytest.raises(ValueError, match="t_star"):
            beta_eval(p8, 1e-10, np.zeros(3))
        with pytest.raises(ValueError, match="t_star"):
            cache(1e-10, np.zeros(3))


# ---------------------------------------------------------------------------
# cavity field
# ---------------------------------------------------------------------------

class TestCavityField:
    def test_pure_product_at_t0(self, p8):
        bump = default_bump()
        rng = np.random.default_rng(12)
        xs = rng.uniform(-0.2, 0.2, (50, 3))
        vs = rng.uniform(-0.15, 0.15, (50, 3))
        want = (p8.amp_r * bump.chi(p8.M * np.linalg.norm(xs, axis=1))
                * bump.chi(np.linalg.norm(vs, axis=1) / p8.N))
        np.testing.assert_allclose(f_r_eval(p8, 0.0, xs, vs), want,
                                   rtol=1e-12, atol=1e-300)

    def test_velocity_support(self, p8):
        rng = np.random.default_rng(13)
        dirs = rng.normal(size=(30, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        vals = f_r_eval(p8, 0.0, np.zeros(3), p8.N * 1.0001 * dirs)
        assert np.all(vals == 0.0)

    def test_defining_ode_residual(self, p8):
        # d/dt f_r = -rho_b f_r, via centered finite differences and the
        # direct (cache-free) attenuation quadrature
        t, x, v = -0.07, np.array([0.04, 0.02, -0.06]), np.array([0.03, -0.05, 0.04])
        h = 1e-5
        fp = float(f_r_eval(p8, t + h, x, v))
        fm = float(f_r_eval(p8, t - h, x, v))
        fc = float(f_r_eval(p8, t, x, v))
        dfdt = (fp - fm) / (2 * h)
        resid = dfdt + float(rho_b_eval(p8, t, x)) * fc
        assert abs(resid) / abs(dfdt) < 1e-4

    def test_nonincreasing_forward_in_time(self, p8, caches):
        _, cache = caches[8]
        x, v = np.array([0.05, 0.0, 0.02]), np.array([0.02, 0.03, -0.01])
        vals = [float(f_r_eval(p8, t, x, v, beta=cache))
                for t in np.linspace(p8.t_star, 0.0, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1] * 1.2  # genuine deflation, not flatness

    def test_density_closed_form(self, p8):
        # rho_r = int f_r dv against direct radial quadrature at t=0
        bump = default_bump()
        x0 = np.array([0.05, 0.01, -0.03])
        r, wr = gauss_on(0.0, 1.0, 64)
        vmass = 4 * np.pi * p8.N ** 3 * float(wr @ (bump.chi(r) * r**2))
        want = vmass * p8.amp_r * bump.chi(p8.M * float(np.linalg.norm(x0)))
        assert float(rho_r_eval(p8, 0.0, x0)) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# grid samplers
# ---------------------------------------------------------------------------

class TestGridSamplers:
    def test_pointwise_equality(self, p4, caches):
        _, cache = caches[4]
        grid = GridSpec((8,) * 3, (8,) * 3, Lx=0.5, Lv=1.25 * p4.N2,
                        full_cap=24**6)
        t = -0.04
        fa = f_a_to_grid(p4, t, grid, beta=cache)
        rng = np.random.default_rng(17)
        idx = rng.integers(0, 8, (60, 6))
        xs = np.stack([grid.x_axis(a)[idx[:, a]] for a in range(3)], axis=-1)
        vs = np.stack([grid.v_axis(a)[idx[:, 3 + a]] for a in range(3)], axis=-1)
        direct = f_a_eval(p4, t, xs, vs, beta=cache)
        sampled = fa.data[tuple(idx.T)].real
        np.testing.assert_allclose(sampled, direct, rtol=1e-12, atol=1e-300)

    def test_cavity_annulus_split(self, p4, caches):
        # f_r lands at small |v| only, f_b on the annulus only
        _, cache = caches[4]
        grid = GridSpec((8,) * 3, (8,) * 3, Lx=0.5, Lv=1.25 * p4.N2,
                        full_cap=24**6)
        fb = f_b_to_grid(p4, 0.0, grid)
        fr = f_r_to_grid(p4, 0.0, grid, beta=cache)
        overlap = np.abs(fb.data) * np.abs(fr.data)
        assert float(np.max(overlap)) == 0.0


# ---------------------------------------------------------------------------
# semi-analytic norms
# ---------------------------------------------------------------------------

class TestNorms:
    def test_tube_norm_scaling(self):
        # || f_b ||_{L_v^{2,q} H_x^q} tracks (M N2)^(q-s) across sizes
        for q in (0.3, 0.6):
            scaled = []
            for M in (4, 8, 16):
                p = AnsatzParams.make(M=M)
                scaled.append(f_b_sobolev_norm(p, q)
                              / (p.M * p.N2) ** (q - p.s))
            assert max(scaled) / min(scaled) < 1.3

    def test_cavity_norm_against_radial_form(self, p8):
        # at t=0 the x-part is radial; the padded-FFT route must agree with
        # a 1D Hankel quadrature
        bump = default_bump()
        for q in (0.0, p8.s0, 1.0):
            fft_val = f_r_sobolev_norm(p8, q, 0.0)
            r, wr = gauss_on(0.0, 1.0, 96)
            vsq = 4 * np.pi * p8.N ** 3 * float(
                wr @ (bump.chi(r) ** 2 * (1 + (p8.N * r) ** 2) ** q * r**2))
            rho, wrho = gauss_on(0.0, 48.0, 512)
            h3 = bump.hat(rho, 3)
            xsq = 4 * np.pi / p8.M ** 3 * float(
                wrho @ ((1 + (p8.M * rho) ** 2) ** q * h3**2 * rho**2))
            want = p8.amp_r * math.sqrt(vsq * xsq)
            assert fft_val == pytest.approx(want, rel=1e-3)

    def test_combined_norm_adds_in_quadrature(self, p8, caches):
        _, cache = caches[8]
        fb = f_b_sobolev_norm(p8, p8.s0)
        fr = f_r_sobolev_norm(p8, p8.s0, p8.t_star, beta=cache)
        fa = f_a_sobolev_norm(p8, p8.s0, p8.t_star, beta=cache)
        assert fa == pytest.approx(math.hypot(fb, fr), rel=1e-12)

    def test_size_at_t0(self, caches):
        # || f_a(0) ||_{L_v^{2,s0} H^{s0}} ~ 1/ln M, ratio stable +-50%
        ratios = []
        for M in (4, 8, 16):
            p, cache = caches[M]
            ratios.append(f_a_sobolev_norm(p, p.s0, 0.0, beta=cache)
                          * math.log(M))
        mid = np.mean(ratios)
        assert all(0.5 * mid < r < 1.5 * mid for r in ratios)

    def test_deflation_slope(self, caches):
        # backward growth || f_a(t_star) || / || f_a(0) || ~ M^delta
        logs = []
        for M in (4, 8, 16):
            p, cache = caches[M]
            r0 = f_a_sobolev_norm(p, p.s0, 0.0, beta=cache)
            rT = f_a_sobolev_norm(p, p.s0, p.t_star, beta=cache)
            logs.append(math.log(rT / r0))
        slope = np.polyfit(np.log([4, 8, 16]), logs, 1)[0]
        assert abs(slope - 0.2) < 0.2 * 0.3

    def test_z_norm_pieces(self, p8, caches):
        _, cache = caches[8]
        zb, pb = f_b_z_norm(p8)
        zr, pr = f_r_z_norm(p8, p8.t_star, beta=cache)
        assert zb == pytest.approx(sum(pb)) and zr == pytest.approx(sum(pr))
        assert all(x > 0 for x in pb + pr)
        za = f_a_z_norm(p8, p8.t_star, beta=cache)
        assert max(zb, zr) < za < zb + zr + 1e-12

    def test_cavity_z_norm_matches_grid(self, p8, caches):
        # gridded Z norm on a cavity-resolving box agrees with the
        # semi-analytic assembly
        _, cache = caches[8]
        grid = GridSpec((16,) * 3, (8,) * 3, Lx=2.0 / p8.M, Lv=2.0 * p8.N,
                        full_cap=24**6)
        fr = f_r_to_grid(p8, p8.t_star, grid, beta=cache)
        zg = z_norm(fr, p8.M)
        zs, _ = f_r_z_norm(p8, p8.t_star, beta=cache)
        assert zg / zs == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# residual terms
# ---------------------------------------------------------------------------

class TestResidualTerms:
    def test_resolution_guard(self, p8):
        coarse = GridSpec((8,) * 3, (8,) * 3, Lx=1.0, Lv=10.0, full_cap=24**6)
        with pytest.raises(ValueError, match="resolve the tube cross-section"):
            f_err_terms(p8, 0.0, coarse, CollisionConfig())

    def test_sliced_grid_rejected_before_any_work(self, p4, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("called before the storage check")

        for name in ("gain_term_spectral", "f_r_to_grid", "f_b_to_grid",
                     "_live_columns"):
            monkeypatch.setattr(ansatz, name, never)
        # fine enough for the resolution guard, which runs after this check
        grid = GridSpec((8,) * 3, (4,) * 3, Lx=0.9 / p4.M, Lv=1.25 * p4.N2,
                        storage=grids.Storage.VSliced)
        with pytest.raises(ValueError, match="requires Full storage"):
            f_err_terms(p4, 0.0, grid, CollisionConfig())

    def test_five_labeled_terms(self, p4, caches):
        _, cache = caches[4]
        grid = GridSpec((16,) * 3, (8,) * 3, Lx=1.9 / p4.M, Lv=1.25 * p4.N2,
                        full_cap=24**6)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(32))
        terms = f_err_terms(p4, -0.05, grid, cfg, beta=cache)
        assert len(terms) == 5
        labels = [name for name, _ in terms]
        assert labels == ["transport_cavity", "loss_tubes_cavity",
                          "loss_cavity_cavity", "loss_tubes_tubes",
                          "gain_full"]
        # tube transport is absorbed exactly by construction: not in the list
        assert not any("tubes" in l and "transport" in l for l in labels)

        # the cavity-cavity loss factors as exp(-2 beta) times bump profiles
        bump = default_bump()
        lcc = dict(terms)["loss_cavity_cavity"]
        sheet = lcc.data[:, :, :, 4, 4, 4].real  # the v=0 node
        X = grid.x_points()
        chi2 = bump.chi(p4.M * np.linalg.norm(X, axis=1)).reshape(grid.nx) ** 2
        b = cache(-0.05, X).reshape(grid.nx)
        pred = (4 * np.pi * p4.amp_r ** 2 * p4.N ** 3 * bump.integral_3d
                * np.exp(-2 * b) * chi2)
        mask = chi2 > 1e-8
        rel = np.max(np.abs(sheet[mask] - pred[mask]) / np.abs(pred[mask]))
        assert rel < 1e-6

    def test_transport_matches_six_d_spectral_form(self, p4, caches):
        # v . grad_x f_r through the 6-D x-transform of the sampled cavity,
        # each axis's Nyquist frequency given symbol 0; Lv = 0.3 puts several
        # v nodes inside the cavity's velocity ball |v| < N
        _, cache = caches[4]
        grid = GridSpec((16,) * 3, (8,) * 3, Lx=1.9 / p4.M, Lv=0.3)
        t = 0.5 * p4.t_star
        sym = grids.eta_dot_v(grid)
        for a in range(3):
            nyq = grid.eta_axis(a) * (np.arange(grid.nx[a]) == grid.nx[a] // 2)
            sym = sym - grids.on_axes(np.outer(nyq, grid.v_axis(a)), (a, 3 + a), 6)
        spec = grids.transform(f_r_to_grid(p4, t, grid, beta=cache), "x", "forward")
        want = grids.transform(
            grids.PhaseField(grid, 2j * np.pi * sym * spec.data, spec.tag),
            "x", "inverse").data
        got = transport_term(p4, t, grid, cache).data
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        # the cavity is real, and so is its transport leak
        assert np.max(np.abs(got.imag)) <= 1e-14 * scale

    def test_traced_peak_within_eight_real_fields(self, p4):
        # f_r, f_b and the loss products are (Nx, live v columns) blocks and
        # f_a is freed once the gain has read it, so the peak is the five
        # float64 outputs and little more: 5.3 fields (7.2 when f_r and f_b
        # were full fields, under a bound of 8)
        grid = GridSpec((16,) * 3, (4,) * 3, Lx=1.9 / p4.M, Lv=1.25 * p4.N2)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        f_err_terms(p4, -0.05, grid, cfg)  # caches the gain operators
        tracemalloc.start()
        try:
            terms = f_err_terms(p4, -0.05, grid, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f.data.dtype for _, f in terms] == [np.float64] * 5
        assert peak <= 5.5 * grid.total_points * 8

    def test_uncached_terms_run_beta_once(self, p4, monkeypatch):
        # one cavity profile serves f_r, the transport leak and rho_r
        calls, beta_eval = [], ansatz.beta_eval

        def counted(p, t, x, *args, **kwargs):
            calls.append(t)
            return beta_eval(p, t, x, *args, **kwargs)

        monkeypatch.setattr(ansatz, "beta_eval", counted)
        grid = GridSpec((16,) * 3, (4,) * 3, Lx=1.9 / p4.M, Lv=1.25 * p4.N2)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        f_err_terms(p4, -0.05, grid, cfg)
        assert calls == [-0.05]

    @pytest.mark.parametrize("Lv", [5.0, 0.3])
    def test_five_fields_match_a_dense_reference(self, p4, caches, Lv):
        # f_r and f_b by the pointwise evaluators on the whole (Nx, Nv)
        # arrays, the closed-form densities, the spectral gain of their sum
        # and v . grad_x f_r by the 6-D x-transform of the dense f_r (each
        # axis's Nyquist frequency given symbol 0).  Lv = 5 = 1.25 N2 is the
        # residual's v-grid, where f_b has many columns; at Lv = 0.3 several
        # v nodes lie in the cavity ball and the transport leak is not zero
        _, cache = caches[4]
        grid = GridSpec((8,) * 3, (8,) * 3, Lx=0.95 / p4.M, Lv=Lv)
        t = 0.5 * p4.t_star
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        X, V = grid.x_points(), grid.v_points()
        fr = f_r_eval(p4, t, X[:, None], V[None], beta=cache).reshape(grid.shape)
        fb = f_b_eval(p4, t, X[:, None], V[None]).reshape(grid.shape)
        lead = grid.nx + (1, 1, 1)
        loss_r = 4 * np.pi * rho_r_eval(p4, t, X, beta=cache).reshape(lead)
        loss_b = 4 * np.pi * rho_b_eval(p4, t, X).reshape(lead)
        fa = grids.PhaseField(grid, fr + fb)
        sym = grids.eta_dot_v(grid)
        for a in range(3):
            nyq = grid.eta_axis(a) * (np.arange(grid.nx[a]) == grid.nx[a] // 2)
            sym = sym - grids.on_axes(np.outer(nyq, grid.v_axis(a)), (a, 3 + a), 6)
        spec = grids.transform(grids.PhaseField(grid, fr), "x", "forward")
        leak = grids.transform(
            grids.PhaseField(grid, 2j * np.pi * sym * spec.data, spec.tag),
            "x", "inverse").data.real
        want = {"transport_cavity": leak, "loss_tubes_cavity": fb * loss_r,
                "loss_cavity_cavity": fr * loss_r, "loss_tubes_tubes": fb * loss_b,
                "gain_full": -gain_term_spectral(fa, fa, cfg).data}
        terms = f_err_terms(p4, t, grid, cfg, beta=cache)
        assert [name for name, _ in terms] == list(want)
        for name, field in terms:
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(field.data - want[name])) <= 1e-12 * scale, name
        columns = np.count_nonzero(np.any(fb != 0.0, axis=(0, 1, 2)))
        moving = np.max(np.abs(leak))
        if Lv == 5.0:
            assert columns >= 20 and moving == 0.0
        else:
            assert columns == 0 and moving > 0.0

    def test_transport_zero_on_residual_grid(self, p4, caches):
        # chi(|v|/N) vanishes at every v node but v = 0, where v . grad_x f = 0
        _, cache = caches[4]
        grid = GridSpec((16,) * 3, (8,) * 3, Lx=1.9 / p4.M, Lv=1.25 * p4.N2,
                        full_cap=24**6)
        assert not np.any(transport_term(p4, 0.5 * p4.t_star, grid, cache).data)

    def test_tube_loss_scaling(self):
        # || Q-(f_b, f_b) ||_{L^2} tracks (M N2)^(1/2 - 2s)
        t = -0.02
        vals = []
        for M in (4, 8):
            p = AnsatzParams.make(M=M)
            grid = GridSpec((16,) * 3, (16,) * 3, Lx=1.9 / p.M,
                            Lv=1.25 * p.N2, full_cap=24**6)
            fb = f_b_to_grid(p, t, grid)
            rb = rho_b_eval(p, t, grid.x_points()).reshape(grid.nx + (1, 1, 1))
            l2 = math.sqrt(float(np.sum((4 * np.pi * np.abs(fb.data) * rb) ** 2))
                           * grid.cell_x * grid.cell_v)
            vals.append(l2)
        slope = (math.log(vals[1]) - math.log(vals[0])) / math.log(2)
        want = (0.5 - 2 * 0.75) * (1 + 1.0)
        assert abs(slope - want) < 0.2


# ---------------------------------------------------------------------------
# bilinear gain factors
# ---------------------------------------------------------------------------

class TestBilinearFactors:
    def test_displayed_cases(self):
        assert bilinear_factors(2, 8, 1, 4)[0] == pytest.approx(0.5)
        assert bilinear_factors(8, 2, 1, 4)[0] == pytest.approx(1.0)
        assert bilinear_factors(4, 4, 4, 2)[1] == pytest.approx(math.sqrt(0.5))

    def test_small_velocity_clamp(self):
        # N below the first dyad acts as 1
        assert bilinear_factors(4, 4, 0.125, 2)[1] == pytest.approx(1.0)
        assert bilinear_factors(4, 4, 1.0, 2)[1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="dyadic scales"):
            bilinear_factors(0.5, 4, 1, 4)

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_factors_are_gains(self, a, b):
        bm, bn = bilinear_factors(2.0**a, 2.0**b, 1.0, 2.0**b)
        assert 0 < bm <= 1 and 0 < bn <= 1
        if a <= b:
            assert bm == pytest.approx(math.sqrt(2.0 ** (a - b)))


# ---------------------------------------------------------------------------
# input validation shared by every pointwise evaluator
# ---------------------------------------------------------------------------

_NAN_POINT = [np.nan, 0.0, 0.0]


@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda p: rho_b_eval(p, 0.0, _NAN_POINT), id="rho_b_eval"),
    pytest.param(lambda p: f_b_eval(p, 0.0, _NAN_POINT, [p.N2, 0.0, 0.0]),
                 id="f_b_eval-x"),
    pytest.param(lambda p: f_b_eval(p, 0.0, np.zeros(3), _NAN_POINT),
                 id="f_b_eval-v"),
    pytest.param(lambda p: rho_r_eval(p, 0.0, _NAN_POINT), id="rho_r_eval"),
    pytest.param(lambda p: f_r_eval(p, 0.0, _NAN_POINT, np.zeros(3)),
                 id="f_r_eval"),
    pytest.param(lambda p: BetaCache(p, nt=2, nx=2)(p.t_star, _NAN_POINT),
                 id="BetaCache"),
    pytest.param(lambda p: sharpness_functions(4, 4, None, 8).psi_hat(
        _NAN_POINT, [8.0, 0.0, 0.0]), id="psi_hat"),
])
def test_non_finite_points_rejected(p4, evaluate):
    with pytest.raises(ValueError, match="finite"):
        evaluate(p4)


@pytest.mark.parametrize("t", [np.nan, np.inf])
@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda p, t: rho_b_eval(p, t, np.zeros(3)), id="rho_b_eval"),
    pytest.param(lambda p, t: f_b_eval(p, t, np.zeros(3), [p.N2, 0.0, 0.0]),
                 id="f_b_eval"),
    pytest.param(lambda p, t: rho_b_radial(p, t, [0.0, 0.1]), id="rho_b_radial"),
])
def test_non_finite_time_rejected(p4, evaluate, t):
    with pytest.raises(ValueError, match="time t"):
        evaluate(p4, t)
