"""Paired loss-interaction test functions and their interaction integral."""

import math

import numpy as np
import pytest

from boltzlab import grids
from boltzlab.ansatz import AnsatzParams, TubeFamily
from boltzlab.bump import chi, default_bump, default_cutoff, gauss_on
from boltzlab.sharpness import (
    QuadratureBudgetError,
    SharpnessFunctions,
    _ball_correlation,
    _ReducedIntegrand,
    sharpness_functions,
    sharpness_integral,
)


@pytest.fixture(scope="module")
def f448():
    return sharpness_functions(4, 4, None, 8)


def _tensor_l2(evaluator, scale_a, scale_b, n=48):
    """|| F ||_L2 for F(a, b) = prod of two radial 3D profiles, by tensor
    Gauss on each ball."""
    total = 1.0
    for scale, pick in ((scale_a, 0), (scale_b, 1)):
        g, w = gauss_on(-scale, scale, n)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
        zeros = np.zeros_like(pts)
        args = (pts, zeros) if pick == 0 else (zeros, pts)
        vals = evaluator(*args)
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        total *= float(W @ vals**2)
    # the evaluator is a product F = A(a) B(b); the two sweeps above compute
    # ||A||^2 B(0)^2 and A(0)^2 ||B||^2, so combine with the center value
    center = float(evaluator(np.zeros(3), np.zeros(3)))
    return math.sqrt(total) / center


class TestFunctions:
    def test_phi_norm_constant_across_scales(self):
        vals = []
        for M1, N in ((2, 0.125), (4, 0.0625), (8, 0.03125)):
            f = sharpness_functions(M1, 8, N, 8)
            vals.append(_tensor_l2(f.phi_hat, M1, N))
        ref = f.bump.l2sq_3d
        assert np.allclose(vals, ref, rtol=1e-3)
        assert f.l2_norms()[0] == pytest.approx(ref, rel=1e-12)

    def test_zeta_rotation_invariance(self, f448):
        rng = np.random.default_rng(7)
        v = np.array([0.05, -0.03, 0.04])
        for _ in range(5):
            A = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            eta = rng.uniform(-3, 3, 3)
            a = float(f448.zeta_hat(eta, v))
            b = float(f448.zeta_hat(A @ eta, v))
            assert a == pytest.approx(b, abs=1e-10 * max(abs(a), 1.0))

    def test_psi_support_annulus(self, f448):
        rng = np.random.default_rng(8)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        etas = rng.uniform(-4, 4, (50, 3))
        lo = f448.psi_hat(etas, 0.89 * 8 * dirs)
        hi = f448.psi_hat(etas, 1.14 * 8 * dirs)
        assert np.all(lo == 0.0) and np.all(hi == 0.0)
        # and the tube axes themselves are populated
        js = rng.integers(0, f448.J, 20)
        on = f448.psi_hat(np.zeros((20, 3)), 8.0 * f448.family.directions[js])
        np.testing.assert_allclose(on, 1.0 / 32.0, rtol=1e-12)

    def test_psi_assembly_against_direct(self, f448):
        bump = default_bump()
        rng = np.random.default_rng(9)
        eta2 = rng.uniform(-2, 2, 3)
        j = 137
        v2 = 8.0 * f448.family.directions[j]
        E = f448.family.directions
        de = E @ eta2
        pe = np.sqrt(np.maximum(float(eta2 @ eta2) - de**2, 0.0))
        dv = E @ v2
        pv = np.sqrt(np.maximum(float(v2 @ v2) - dv**2, 0.0))
        want = float(np.sum(
            bump.chi(pe / 4.0) * bump.chi(8.0 * np.abs(de))
            * bump.chi(4.0 * pv) * bump.chi(10.0 * (dv - 8.0) / 8.0))) / 32.0
        assert float(f448.psi_hat(eta2, v2)) == pytest.approx(want, rel=1e-12)

    def test_psi_norm_uses_family_size(self, f448):
        b = default_bump()
        tube = b.l2sq_2d**2 * b.l2sq_1d**2 / 10.0
        want = math.sqrt(f448.J / (4.0 * 8.0) ** 2 * tube)
        assert f448.l2_norms()[1] == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="M1"):
            sharpness_functions(3, 4, None, 8)
        with pytest.raises(ValueError, match="M2"):
            sharpness_functions(4, 1, None, 8)
        with pytest.raises(ValueError, match="N2"):
            sharpness_functions(4, 4, None, 2)
        with pytest.raises(ValueError, match="velocity scale"):
            sharpness_functions(4, 4, 0.5, 8)

    @pytest.mark.parametrize("scales, name", [
        ((math.inf, 4, None, 8), "M1"),
        ((math.nan, 4, None, 8), "M1"),
        ((4, math.inf, None, 8), "M2"),
        ((4, 4, None, math.inf), "N2"),
        ((4, 4, math.nan, 8), "velocity scale"),
    ])
    def test_rejects_non_finite_scales(self, scales, name):
        with pytest.raises(ValueError, match=name):
            sharpness_integral(*scales)

    def test_shares_the_ansatz_tube_family(self):
        # one cached J = 65536 family for both, not two builds: the direction
        # grid is fixed by (M, N2), whatever the regularity s
        fam = sharpness_functions(4, 16, None, 16).family
        assert fam is AnsatzParams.make(M=16).tube
        assert fam is AnsatzParams.make(M=16, s=0.8).tube


class TestBallCorrelation:
    def test_matches_radial_quadrature(self):
        bump = default_bump()
        r_tab, v_tab = _ball_correlation(2.0, 4.0)
        for idx in (0, 96, 237):  # compare at table nodes
            r0 = float(r_tab[idx])
            u, wu = gauss_on(-2.0, 2.0, 200)
            rho, wr = gauss_on(0.0, 2.0, 200)
            inner = bump.chi(np.sqrt(u[:, None] ** 2 + rho[None, :] ** 2) / 2.0)
            outer = bump.chi(np.sqrt((u[:, None] + r0) ** 2
                                     + rho[None, :] ** 2) / 4.0)
            want = 2 * np.pi * float(
                np.einsum("i,j,ij,ij->", wu, wr * rho, inner, outer))
            assert float(v_tab[idx]) == pytest.approx(want, rel=1e-6)

    def test_zero_offset_is_mutual_mass(self):
        bump = default_bump()
        r_tab, v_tab = _ball_correlation(4.0, 4.0)
        assert v_tab[0] == pytest.approx(64.0 * bump.l2sq_3d, rel=1e-9)
        assert v_tab[-1] == pytest.approx(0.0, abs=1e-12)


class TestIntegral:
    def test_reference_value_and_window(self):
        val = sharpness_integral(4, 4, None, 8)
        assert val == pytest.approx(14.1713, rel=2e-3)
        assert 0.2 < val / 32.0 < 5.0

    def test_pinned_to_table_accuracy(self):
        # 14.171269 comes from direct chord and slice quadratures; the bump's
        # line/plane marginal tables agree with those to 8e-7 and 2e-8, so
        # reading them moves the value only at table accuracy
        assert sharpness_integral(4, 4, None, 8) == pytest.approx(14.171269, rel=1e-5)

    def test_normalization_factor_exact(self, f448):
        raw = sharpness_integral(4, 4, None, 8, normalized=False)
        norm = sharpness_integral(4, 4, None, 8)
        assert raw / norm == pytest.approx(math.prod(f448.l2_norms()),
                                           rel=1e-12)

    def test_normalization_builds_no_tube_family(self, monkeypatch):
        # the three L^2 norms come from the bump tables alone
        def refuse(cls, *args, **kwargs):
            raise AssertionError("sharpness_integral built a TubeFamily")

        monkeypatch.setattr(TubeFamily, "make", classmethod(refuse))
        assert sharpness_integral(4, 4, None, 8) == pytest.approx(14.171269, rel=1e-5)

    def test_scaling_in_tube_count(self):
        vals = [sharpness_integral(4, 4, None, n2) for n2 in (4, 8, 16)]
        slope = np.polyfit(np.log([4, 8, 16]), np.log(vals), 1)[0]
        assert abs(slope - 1.0) < 0.15

    def test_scaling_in_second_frequency(self):
        vals = [sharpness_integral(2, m2, None, 8) for m2 in (4, 8, 16)]
        slope = np.polyfit(np.log([4, 8, 16]), np.log(vals), 1)[0]
        assert abs(slope + 0.5) < 0.15

    def test_budget_doubling_stable(self):
        a = sharpness_integral(4, 4, None, 8, budget=1 << 24)
        b = sharpness_integral(4, 4, None, 8, budget=1 << 25)
        assert abs(a - b) / a < 0.10

    def test_monte_carlo_agrees(self):
        g = sharpness_integral(4, 4, None, 8)
        m = sharpness_integral(4, 4, None, 8, method="mc",
                               budget=1 << 22, seed=3)
        assert abs(g - m) / g < 1e-3

    def test_monte_carlo_independent_of_block_budget(self, monkeypatch):
        vals = []
        for budget in (1 << 12, 1 << 22):
            monkeypatch.setattr(grids, "_BLOCK", budget)
            vals.append(sharpness_integral(4, 4, None, 8, method="mc",
                                           budget=1 << 18, seed=3))
        assert vals[0] == vals[1]

    def test_gauss_evaluates_only_the_compared_rungs(self, monkeypatch):
        rungs = []
        gauss = _ReducedIntegrand.gauss

        def spy(self, n):
            rungs.append(n)
            return gauss(self, n)

        monkeypatch.setattr(_ReducedIntegrand, "gauss", spy)
        sharpness_integral(4, 4, None, 8)
        assert rungs == [40, 48]

    def test_budget_too_small(self):
        with pytest.raises(QuadratureBudgetError, match="too small") as excinfo:
            sharpness_integral(4, 4, None, 8, budget=1000)
        assert math.isnan(excinfo.value.partial)
        # one rung fits: its value is the partial
        with pytest.raises(QuadratureBudgetError, match="too small") as excinfo:
            sharpness_integral(4, 4, None, 8, budget=12**3)
        assert excinfo.value.partial == pytest.approx(14.1713, rel=5e-2)

    def test_budget_exhausted_carries_partial(self):
        with pytest.raises(QuadratureBudgetError,
                           match="exhausted") as excinfo:
            sharpness_integral(4, 4, None, 8, budget=90000, rtol=1e-9)
        err = excinfo.value
        assert err.partial == pytest.approx(14.1713, rel=1e-2)
        assert err.rel_change > 1e-9

    @pytest.mark.parametrize("method", ["gauss", "mc"])
    @pytest.mark.parametrize("rtol", [math.nan, -0.1, math.inf])
    def test_rejects_bad_rtol(self, method, rtol):
        with pytest.raises(ValueError, match="rtol"):
            sharpness_integral(4, 4, None, 8, method=method, budget=4096,
                               rtol=rtol)

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method"):
            sharpness_integral(4, 4, None, 8, method="trapezoid")


# ---------------------------------------------------------------------------
# independent oracles for the frequency-integral reduction
# ---------------------------------------------------------------------------

def _chord(z):
    """Line marginal of chi by direct quadrature at each z."""
    out = np.zeros_like(z)
    for i, zi in enumerate(z):
        y, wy = gauss_on(0.0, math.sqrt(1.0 - zi * zi), 128)
        out[i] = 2.0 * wy @ chi(np.sqrt(zi * zi + y * y))
    return out


def _slice(tau):
    """Squared plane marginal of chi by direct quadrature at each tau."""
    out = np.zeros_like(tau)
    for i, ti in enumerate(tau):
        w, ww = gauss_on(abs(ti), 1.0, 128)
        out[i] = 2.0 * np.pi * ww @ (chi(w) ** 2 * w)
    return out


def _window_table(q_max, c_max, n_q, n_c):
    """V(q, c) = int_{-1}^{1} S(tau) theta_hat(q - c tau) dtau on a uniform
    (q, c) lattice, S the squared plane marginal."""
    tau, wt = gauss_on(-1.0, 1.0, 96)
    s_vals = default_bump().plane_marginal(tau, squared=True) * wt
    q = np.linspace(-q_max, q_max, n_q)
    c = np.linspace(0.0, c_max, n_c)
    table = np.empty((n_q, n_c))
    for sl in grids.blocks(n_q, n_c * tau.size):
        args = q[sl, None, None] - c[None, :, None] * tau
        table[sl] = default_cutoff().hat(args) @ s_vals
    return q, c, table


def _four_d_rule(M1, M2, N, N2, n=48, n_q=4609, n_c=257):
    """The (u, b, w, z) product Gauss rule with bilinear reads of the
    window table V: the raw reduced integral G times its prefactor."""
    bump = default_bump()
    red = _ReducedIntegrand(M1, M2, N, N2)
    c_max = N * min(math.hypot(1.0 / N2, M2), M1 + max(M1, M2)) * 1.0001
    q_grid, c_grid, table = _window_table(2.3, c_max, n_q, n_c)
    dq, dc = q_grid[1] - q_grid[0], c_grid[1] - c_grid[0]
    u, wu = gauss_on(-1.0, 1.0, n)
    b, wb = gauss_on(0.0, 1.0, n)
    w, ww = gauss_on(-1.0, 1.0, n)
    z, wz = gauss_on(-1.0, 1.0, n)
    r = np.sqrt((u[:, None] / N2) ** 2 + (M2 * b[None, :]) ** 2)
    corr = np.interp(r, red.corr_r, red.corr_v, right=0.0)
    fac = (bump.chi(np.abs(u))[:, None] * bump.chi(b) * b * corr
           * wu[:, None] * wb)
    fw = bump.chi(np.abs(w)) * ww
    fz = bump.line_marginal(z) * wz
    total = 0.0
    for i in range(n):
        fq = (u[i] * (1.0 + w[None, :, None] / 10.0)
              + (b[:, None] * z)[:, None, :] + 2.3) / dq
        iq = fq.astype(np.int64)
        fq -= iq
        fc = (r[i] * N / dc)[:, None, None]
        ic = fc.astype(np.int64)
        fc -= ic
        v = ((1 - fq) * (1 - fc) * table[iq, ic]
             + fq * (1 - fc) * table[iq + 1, ic]
             + (1 - fq) * fc * table[iq, ic + 1]
             + fq * fc * table[iq + 1, ic + 1])
        total += float(np.einsum("b,w,z,bwz->", fac[i], fw, fz, v))
    return red.prefactor * total


class TestFrequencyReduction:
    def test_window_average_against_direct_quadrature(self):
        # H(u, b) is the (w, z, tau) average of theta_hat(u (1 + w/10) + b z
        # - c tau) against chi(w), the chord and the slice profile
        red = _ReducedIntegrand(4.0, 4.0, 0.25, 8.0)
        x, wx = gauss_on(-1.0, 1.0, 96)
        fw, fz, ft = chi(x) * wx, _chord(x) * wx, _slice(x) * wx
        got, want = [], []
        for u, b in ((0.0, 0.1), (0.3, 0.5), (-0.7, 0.2), (0.5, 0.9)):
            c = 0.25 * math.hypot(u / 8.0, 4.0 * b)
            q = (u * (1.0 + x[:, None, None] / 10.0) + b * x[None, :, None]
                 - c * x[None, None, :])
            want.append(np.einsum("i,j,k,ijk->", fw, fz, ft,
                                  default_cutoff().hat(q)))
            got.append(float(red.window_average(u, b, c, 48)))
        scale = max(abs(v) for v in want)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-6 * scale

    def test_matches_refined_four_dimensional_rule(self, f448):
        # the former 4-D rule over a window table 4x finer in both axes
        want = _four_d_rule(4.0, 4.0, 0.25, 8.0) / math.prod(f448.l2_norms())
        assert sharpness_integral(4, 4, None, 8) == pytest.approx(want, rel=1e-6)
