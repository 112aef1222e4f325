"""Bump profile: closed form, transform tables, marginals, time cutoff."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import j0

from boltzlab.bump import (
    BumpProfile,
    TimeCutoff,
    chi,
    chi_prime,
    default_bump,
    default_cutoff,
    gauss_on,
)


@pytest.fixture(scope="module")
def bump():
    return default_bump()


def chi_scalar(r: float) -> float:
    return float(chi(np.array(r)))


class TestChi:
    def test_normalized_at_origin(self):
        assert chi_scalar(0.0) == 1.0

    def test_supported_in_unit_ball(self):
        for r in (1.0, 1.0 + 1e-12, 1.5, -2.0):
            assert chi_scalar(r) == 0.0

    def test_even(self):
        r = np.linspace(0.0, 1.2, 77)
        assert np.array_equal(chi(r), chi(-r))

    def test_monotone_on_unit_interval(self):
        vals = chi(np.linspace(0.0, 1.0, 513))
        assert np.all(np.diff(vals) <= 0.0)

    @given(st.floats(-2.0, 2.0, allow_nan=False))
    def test_nonnegative_and_bounded(self, r):
        v = chi_scalar(r)
        assert 0.0 <= v <= 1.0

    def test_derivative_matches_finite_difference(self):
        r = np.linspace(0.05, 0.85, 9)
        h = 1e-6
        fd = (chi(r + h) - chi(r - h)) / (2.0 * h)
        assert np.max(np.abs(chi_prime(r) - fd)) < 1e-6

    def test_derivative_odd_and_zero_outside(self):
        assert float(chi_prime(np.array(0.0))) == 0.0
        assert float(chi_prime(np.array(1.3))) == 0.0
        r = np.linspace(0.1, 0.9, 9)
        assert np.allclose(chi_prime(-r), -chi_prime(r), atol=0.0)


class TestGauss:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="b > a"):
            gauss_on(1.0, 1.0, 8)

    def test_low_order_polynomial_exact(self):
        # n-point Gauss is exact through degree 2n-1
        x, w = gauss_on(-1.0, 3.0, 4)
        val = float(w @ x**7)
        exact = (3.0**8 - 1.0) / 8.0
        assert abs(val - exact) < 1e-10 * abs(exact)

    def test_composite_path_handles_oscillation(self):
        x, w = gauss_on(0.0, 1.0, 1024)
        val = float(w @ np.cos(40.0 * np.pi * x))
        assert abs(val) < 1e-12


class TestBumpProfile:
    def test_moments_match_adaptive_quadrature(self, bump):
        phi1 = 2.0 * quad(chi_scalar, 0.0, 1.0)[0]
        phi2 = 2.0 * np.pi * quad(lambda r: chi_scalar(r) * r, 0.0, 1.0)[0]
        phi3 = 4.0 * np.pi * quad(lambda r: chi_scalar(r) * r**2, 0.0, 1.0)[0]
        assert abs(bump.integral_1d - phi1) < 1e-9
        assert abs(bump.integral_2d - phi2) < 1e-9
        assert abs(bump.integral_3d - phi3) < 1e-9

    def test_l2_masses_match_adaptive_quadrature(self, bump):
        l2_3 = 4.0 * np.pi * quad(lambda r: chi_scalar(r) ** 2 * r**2, 0, 1)[0]
        assert abs(bump.l2sq_3d - l2_3) < 1e-9
        g2 = 2.0 * float(quad(lambda r: float(chi_prime(np.array(r))) ** 2,
                              0, 1)[0])
        assert abs(bump.grad_l2sq_1d - g2) < 1e-8

    def test_transform_at_zero_frequency_is_total_mass(self, bump):
        for dim, mass in ((1, bump.integral_1d), (2, bump.integral_2d),
                          (3, bump.integral_3d)):
            assert abs(float(bump.hat(0.0, dim)) - mass) < 1e-12

    def test_table_roundtrip_below_tolerance(self, bump):
        assert bump.roundtrip_rel_error < 1e-6

    def test_plancherel(self, bump):
        rho, w = gauss_on(0.0, bump.rho_max, 4096)
        h = bump.hat(rho, 3)
        lhs = 4.0 * np.pi * float(w @ (h**2 * rho**2))
        assert abs(lhs - bump.l2sq_3d) < 1e-8 * bump.l2sq_3d

    def test_transform_seam_is_continuous(self, bump):
        lo = float(bump.hat(bump.rho_min * (1.0 - 1e-9), 3))
        hi = float(bump.hat(bump.rho_min * (1.0 + 1e-9), 3))
        assert abs(lo - hi) < 1e-6

    def test_transform_against_direct_quadrature(self, bump):
        # independent check of the 1D cosine transform off the table nodes
        for rho in (0.517, 3.03, 9.71):
            direct = 2.0 * quad(
                lambda r: chi_scalar(r) * np.cos(2 * np.pi * rho * r),
                0.0, 1.0, limit=200)[0]
            assert abs(float(bump.hat(rho, 1)) - direct) < 1e-7

    def test_transform_vanishes_beyond_table(self, bump):
        assert float(bump.hat(bump.rho_max * 1.5, 3)) == 0.0

    def test_transform_rejects_bad_dimension(self, bump):
        with pytest.raises(ValueError, match="dim"):
            bump.hat(1.0, dim=4)

    def test_plane_marginal_identities(self, bump):
        assert abs(float(bump.plane_marginal(0.0)) - bump.integral_2d) < 1e-7
        # marginalizing the remaining axis recovers the 3D mass
        s, w = gauss_on(-1.0, 1.0, 512)
        total = float(w @ bump.plane_marginal(s))
        assert abs(total - bump.integral_3d) < 1e-7
        assert float(bump.plane_marginal(1.0)) == 0.0

    def test_plane_marginal_against_direct(self, bump):
        for s in (0.3, 0.7):
            span = np.sqrt(1.0 - s * s)
            u, w = gauss_on(0.0, span, 128)
            direct = 2.0 * np.pi * float(w @ (chi(np.hypot(s, u)) * u))
            assert abs(float(bump.plane_marginal(s)) - direct) < 1e-7

    def test_line_marginal_identities(self, bump):
        assert abs(float(bump.line_marginal(0.0)) - bump.integral_1d) < 1e-9
        # marginalizing the remaining axis recovers the 2D mass
        s, w = gauss_on(-1.0, 1.0, 512)
        total = float(w @ bump.line_marginal(s))
        assert abs(total - bump.integral_2d) < 1e-6

    def test_line_marginal_against_direct(self, bump):
        for s, squared in ((0.25, False), (0.6, True)):
            span = np.sqrt(1.0 - s * s)
            u, w = gauss_on(0.0, span, 128)
            g = chi(np.hypot(s, u))
            if squared:
                g = g * g
            direct = 2.0 * float(w @ g)
            got = float(bump.line_marginal(s, squared=squared))
            assert abs(got - direct) < 1e-6

    def test_marginals_monotone(self, bump):
        s = np.linspace(0.0, 1.0, 257)
        assert np.all(np.diff(bump.plane_marginal(s)) <= 1e-15)
        assert np.all(np.diff(bump.line_marginal(s)) <= 1e-15)

    def test_row_blocks_leave_tables_unchanged(self):
        # 256 quadrature rows per block, four blocks: the blocked build must
        # equal the whole-matrix products bit for bit
        b = BumpProfile(n_rho=1024, quad_nodes=1024)
        rq, wq = gauss_on(0.0, 1.0, 1024)
        cq = chi(rq)
        arg = np.outer(b.rho_grid, rq)
        want = {1: 2.0 * (np.cos(2.0 * np.pi * arg) * cq) @ wq,
                2: 2.0 * np.pi * (j0(2.0 * np.pi * arg) * (cq * rq)) @ wq,
                3: 4.0 * np.pi * (np.sinc(2.0 * arg) * (cq * rq**2)) @ wq}
        for d in (1, 2, 3):
            assert np.array_equal(b.hat_tables[d], want[d])
        rho, w = gauss_on(0.0, b.rho_max, 4096)
        kernel = np.sinc(2.0 * np.outer(b.r_grid, rho))
        rec = 4.0 * np.pi * (kernel * (b.hat(rho, dim=3) * rho**2)) @ w
        assert b.roundtrip_rel_error == float(np.max(np.abs(rec - b.chi_table)))

    def test_default_is_shared(self):
        assert default_bump() is default_bump()

    def test_roundtrip_error_computed_on_first_read(self):
        b = BumpProfile()
        assert "roundtrip_rel_error" not in b.__dict__
        err = b.roundtrip_rel_error
        assert b.__dict__["roundtrip_rel_error"] == err

    def test_sup_abs_grad_is_the_closed_form_peak(self, bump):
        assert bump.sup_abs_grad == abs(float(chi_prime(3.0 ** -0.25)))
        r = np.linspace(0.0, 1.0, 10**6)
        assert bump.sup_abs_grad >= float(np.max(np.abs(chi_prime(r))))

    def test_default_rule_has_converged(self, bump):
        fine = BumpProfile(quad_nodes=2048)
        for d in (1, 2, 3):
            assert np.max(np.abs(bump.hat_tables[d] - fine.hat_tables[d])) < 1e-14
        for name in ("integral_1d", "integral_2d", "integral_3d", "l2sq_1d",
                     "l2sq_2d", "l2sq_3d", "grad_l2sq_1d", "grad_l2sq_2d",
                     "grad_l2sq_3d"):
            assert abs(getattr(bump, name) - getattr(fine, name)) < 1e-15, name

    def test_hat_reads_match_scipy_cubic_spline(self, bump):
        # scipy's spline through the table at the integer knots 0 .. n-1 is
        # the same not-a-knot spline in the exactly uniform index variable
        n = bump.rho_grid.size
        lo, hi = np.log(bump.rho_min), np.log(bump.rho_max)
        rho = np.concatenate([[bump.rho_min, bump.rho_max], bump.rho_grid[1:-1],
                              np.sqrt(bump.rho_grid[:-1] * bump.rho_grid[1:])])
        index = (np.log(rho) - lo) / ((hi - lo) / (n - 1))
        for d in (1, 2, 3):
            table = bump.hat_tables[d]
            want = CubicSpline(np.arange(n, dtype=float), table)(index)
            err = np.max(np.abs(bump.hat(rho, d) - want))
            assert err <= 1e-15 * np.max(np.abs(table)), (d, err)


class TestTimeCutoff:
    def test_plateau_and_support(self):
        tc = default_cutoff()
        assert float(tc(0.0)) == 1.0
        assert float(tc(1.0)) == 1.0
        assert float(tc(-0.73)) == 1.0
        assert float(tc(2.0)) == 0.0
        assert float(tc(5.0)) == 0.0
        mid = float(tc(1.5))
        assert abs(mid - 0.5) < 1e-12  # the ramp step is symmetric

    def test_even(self):
        tc = default_cutoff()
        t = np.linspace(0.0, 2.5, 101)
        assert np.array_equal(tc(t), tc(-t))

    def test_hat_at_zero_is_total_integral(self):
        tc = default_cutoff()
        # plateau contributes 2*plateau, each ramp exactly ramp/2
        exact = 2.0 * (tc.plateau + 0.5 * tc.ramp)
        assert abs(float(tc.hat(0.0)) - exact) < 1e-9

    def test_hat_against_direct_quadrature(self):
        tc = default_cutoff()
        t, w = gauss_on(0.0, tc.plateau + tc.ramp, 2048)
        th = tc(t)
        for a in (0.37, 1.9, 4.3):
            direct = 2.0 * float(w @ (th * np.cos(2.0 * np.pi * a * t)))
            assert abs(float(tc.hat(a)) - direct) < 1e-6

    def test_row_blocks_leave_table_unchanged(self):
        tc = default_cutoff()
        t, w = gauss_on(0.0, tc.plateau + tc.ramp, 256)
        kernel = np.cos(2.0 * np.pi * np.outer(tc.a_grid, t))
        assert np.array_equal(tc.hat_table, 2.0 * (kernel * (tc(t) * w)).sum(axis=1))

    def test_default_rule_has_converged(self):
        tc = default_cutoff()
        t, w = gauss_on(0.0, tc.plateau + tc.ramp, 2048)
        kernel = np.cos(2.0 * np.pi * np.outer(tc.a_grid, t))
        fine = 2.0 * (kernel * (tc(t) * w)).sum(axis=1)
        assert np.max(np.abs(tc.hat_table - fine)) < 1e-14

    def test_hat_reads_match_scipy_cubic_spline(self):
        tc = default_cutoff()
        a = np.concatenate([tc.a_grid, 0.5 * (tc.a_grid[:-1] + tc.a_grid[1:])])
        index = a / tc.a_grid[1]
        want = CubicSpline(np.arange(tc.a_grid.size, dtype=float), tc.hat_table)(index)
        err = np.max(np.abs(tc.hat(a) - want))
        assert err <= 1e-15 * np.max(np.abs(tc.hat_table))

    def test_hat_even_and_compact(self):
        tc = default_cutoff()
        assert float(tc.hat(-0.4)) == float(tc.hat(0.4))
        assert float(tc.hat(tc.a_max + 1.0)) == 0.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="positive"):
            TimeCutoff(plateau=0.0)
        with pytest.raises(ValueError, match="positive"):
            TimeCutoff(ramp=-1.0)

    @pytest.mark.parametrize("name", ["plateau", "ramp"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_geometry(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            TimeCutoff(**{name: bad})

    def test_hat_table_built_on_first_use(self):
        tc = TimeCutoff()
        assert "hat_table" not in tc.__dict__
        tc.hat(0.4)
        assert "hat_table" in tc.__dict__


@pytest.mark.parametrize("hat, name", [
    pytest.param(lambda a: default_bump().hat(a, 2), "rho", id="BumpProfile"),
    pytest.param(lambda a: default_cutoff().hat(a), "a", id="TimeCutoff"),
])
def test_hat_refuses_nan_frequency(hat, name):
    # a NaN frequency is an error, not 0; infinity reads the limit 0
    with pytest.raises(ValueError, match=f"frequency {name} must not be NaN"):
        hat(np.array([0.4, np.nan]))
    assert np.array_equal(hat(np.array([np.inf, -np.inf])), [0.0, 0.0])
