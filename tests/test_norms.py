"""Norm machinery: weighted Sobolev, mixed, Z, LP projectors, space-time, Xsb."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzlab.grids import (
    FieldTag,
    GridSpec,
    PhaseField,
    ScalingTransform,
    Trajectory,
    VSlicedField,
    Storage,
    axis_sum,
    free_transport,
    gaussian_oracle,
    rescale,
)
from boltzlab.norms import (
    apply_bracket_weights,
    homogeneous_norm,
    lp_dyads,
    lp_project,
    mixed_norm,
    plateau_window,
    sobolev_norm,
    spacetime_norm,
    xsb_norm,
    z_norm,
)


def small_grid():
    return GridSpec((8, 8, 8), (8, 8, 8), Lx=4.0, Lv=4.0)


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    data = scale * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return PhaseField(grid, data, FieldTag.Physical_xv)


class TestSobolev:
    def test_zero_orders_is_l2(self):
        f = random_field(small_grid())
        assert abs(sobolev_norm(f, 0, 0) - f.l2()) < 1e-12 * f.l2()

    def test_monotone_in_s(self):
        f = random_field(small_grid(), seed=2)
        assert sobolev_norm(f, 1, 0) >= sobolev_norm(f, 0, 0)

    def test_composition_with_mixed(self):
        f = random_field(small_grid(), seed=3)
        w = apply_bracket_weights(f, 0.7, 1.3)
        a = sobolev_norm(f, 0.7, 1.3)
        b = mixed_norm(w, "Lv2_Lx2")
        assert abs(a - b) < 1e-10 * a

    def test_gaussian_closed_form(self):
        # || <eta> <v> f ||_L2 for an isotropic Gaussian, against the
        # analytic 1D integrals (A,B spectral side; C,D physical side).
        # nx=32 kills x-aliasing; L=5 keeps the v-Riemann error of the
        # weighted integrand ~e^{-pi^2 (w/dv)^2} below 1e-9 at nv=16.
        # The field streams as VSliced slices built from axis profiles.
        wx = wv = 1.0
        g = GridSpec((32, 32, 32), (16, 16, 16), Lx=5.0, Lv=5.0,
                     storage=Storage.VSliced)
        xprof = [np.exp(-0.5 * (g.x_axis(a) / wx) ** 2) for a in range(3)]
        vprof = [np.exp(-0.5 * (g.v_axis(a) / wv) ** 2) for a in range(3)]
        xcube = (xprof[0][:, None, None] * xprof[1][None, :, None]
                 * xprof[2][None, None, :]).astype(complex)

        def slice_fn(iv):
            return xcube * (vprof[0][iv[0]] * vprof[1][iv[1]] * vprof[2][iv[2]])

        f = VSlicedField(g, slice_fn)
        A = wx * math.sqrt(math.pi)
        B = math.sqrt(math.pi) / (8 * math.pi**2 * wx)
        C = wv * math.sqrt(math.pi)
        D = wv**3 * math.sqrt(math.pi) / 2
        expect = math.sqrt(A**2 * (A + 3 * B) * C**2 * (C + 3 * D))
        got = sobolev_norm(f, 1.0, 1.0)
        assert abs(got - expect) / expect < 1e-6

    def test_vsliced_matches_full(self):
        g = small_grid()
        f = random_field(g, seed=5)
        gs = GridSpec(g.nx, g.nv, g.Lx, g.Lv, storage=Storage.VSliced)
        fs = VSlicedField(gs, lambda iv: f.data[:, :, :, iv[0], iv[1], iv[2]])
        a = sobolev_norm(f, 0.8, 1.1)
        b = sobolev_norm(fs, 0.8, 1.1)
        assert abs(a - b) < 1e-10 * a

    def test_rejects_nonfinite_orders(self):
        f = random_field(small_grid())
        with pytest.raises(ValueError):
            sobolev_norm(f, np.inf, 0.0)


class TestMixed:
    def test_separable_product(self):
        g = small_grid()
        rng = np.random.default_rng(11)
        a = rng.standard_normal(g.nx)
        b = rng.standard_normal(g.nv)
        f = PhaseField(g, (a[:, :, :, None, None, None]
                           * b[None, None, None, :, :, :]).astype(complex),
                       FieldTag.Physical_xv)
        val = mixed_norm(f, "Lv1_LxInf")
        ref = np.sum(np.abs(b)) * g.cell_v * np.max(np.abs(a))
        assert abs(val - ref) < 1e-10 * ref

    def test_weighted_outer(self):
        g = small_grid()
        f = random_field(g, seed=12)
        # Lv2,1 applies the <v> weight before the outer L2
        plain = mixed_norm(f, "Lv2_Lx2")
        weighted = mixed_norm(f, "Lv2,1_Lx2")
        assert weighted >= plain

    def test_bad_orders_rejected(self):
        f = random_field(small_grid())
        for bad in ("Lx2_Lv2", "Lv0.5_Lx2", "Lv2-Lx2", "Lv2_Lx", "L2L2"):
            with pytest.raises(ValueError, match="unsupported mixed norm order"):
                mixed_norm(f, bad)

    def test_vsliced_matches_full(self):
        g = small_grid()
        f = random_field(g, seed=13)
        gs = GridSpec(g.nx, g.nv, g.Lx, g.Lv, storage=Storage.VSliced)
        fs = VSlicedField(gs, lambda iv: f.data[:, :, :, iv[0], iv[1], iv[2]])
        for order in ("Lv1_LxInf", "Lv2,1_Lx2"):
            a = mixed_norm(f, order)
            b = mixed_norm(fs, order)
            assert abs(a - b) < 1e-10 * a

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=-16.0, max_value=16.0,
                       allow_nan=False, allow_infinity=False))
    def test_absolute_homogeneity(self, c):
        g = GridSpec((4, 4, 4), (4, 4, 4), Lx=2.0, Lv=2.0)
        f = random_field(g, seed=14)
        base = mixed_norm(f, "Lv2,1_Lx2")
        scaled = mixed_norm(c * f, "Lv2,1_Lx2")
        assert abs(scaled - abs(c) * base) <= 1e-10 * max(base, 1.0) * (1 + abs(c))


class TestZNorm:
    def test_zero_field(self):
        g = small_grid()
        z = z_norm(PhaseField(g, np.zeros(g.shape, dtype=complex),
                              FieldTag.Physical_xv), 4.0)
        assert z == 0.0

    def test_homogeneity(self):
        f = random_field(small_grid(), seed=21)
        a = z_norm(f, 2.0)
        b = z_norm(3.5 * f, 2.0)
        assert abs(b - 3.5 * a) < 1e-10 * a

    def test_requires_M_at_least_one(self):
        f = random_field(small_grid())
        with pytest.raises(ValueError, match="M >= 1"):
            z_norm(f, 0.5)


class TestTriangle:
    """All norms are absolutely homogeneous and subadditive (1e-10 slack)."""

    def test_field_norms(self):
        g = small_grid()
        f = random_field(g, seed=31)
        h = random_field(g, seed=32)
        evals = [
            lambda u: sobolev_norm(u, 0.9, 1.2),
            lambda u: mixed_norm(u, "Lv1_LxInf"),
            lambda u: mixed_norm(u, "Lv2,1_Lx2"),
            lambda u: z_norm(u, 3.0),
        ]
        for ev in evals:
            a, b, ab = ev(f), ev(h), ev(f + h)
            assert ab <= a + b + 1e-10 * (a + b)

    def test_trajectory_norms(self):
        g = small_grid()
        times = np.linspace(0.0, 1.0, 16)
        fa = [free_transport(random_field(g, seed=33), t) for t in times]
        fb = [free_transport(random_field(g, seed=34), t) for t in times]
        ta = Trajectory(times, tuple(fa))
        tb = Trajectory(times, tuple(fb))
        tsum = Trajectory(times, tuple(x + y for x, y in zip(fa, fb)))
        for ev in [lambda tr: spacetime_norm(tr, 2.0, 3.0),
                   lambda tr: xsb_norm(tr, 0.5, 0.6)]:
            a, b, ab = ev(ta), ev(tb), ev(tsum)
            assert ab <= a + b + 1e-10 * (a + b)


class TestLittlewoodPaley:
    def fine_grid(self):
        # small box => frequencies up to ~13 cycles => dyads 1..16
        return GridSpec((16, 16, 16), (8, 8, 8), Lx=0.5, Lv=0.5)

    def test_partition_of_unity(self):
        g = self.fine_grid()
        f = random_field(g, seed=41)
        total = None
        for N in lp_dyads(g, "x"):
            p = lp_project(f, "x", N)
            total = p if total is None else total + p
        err = np.max(np.abs(total.data - f.data)) / np.max(np.abs(f.data))
        assert err < 1e-10

    def test_partition_of_unity_xi(self):
        g = self.fine_grid()
        f = random_field(g, seed=42)
        total = None
        for N in lp_dyads(g, "xi"):
            p = lp_project(f, "xi", N)
            total = p if total is None else total + p
        err = np.max(np.abs(total.data - f.data)) / np.max(np.abs(f.data))
        assert err < 1e-10

    def test_single_annulus_concentrates(self):
        g = self.fine_grid()
        f = random_field(g, seed=43)
        spec = f.to(FieldTag.Spectral_eta_v)
        r = np.sqrt(axis_sum(lambda a: g.eta_axis(a) ** 2))
        mask = ((r >= 3.4) & (r <= 4.6)).astype(float)
        conc = PhaseField(g, spec.data * mask[:, :, :, None, None, None],
                          FieldTag.Spectral_eta_v)
        size = sobolev_norm(conc, 0, 0)
        for N in lp_dyads(g, "x"):
            frac = sobolev_norm(lp_project(conc, "x", N), 0, 0) / size
            if N == 4:
                assert frac > 0.9
            elif N in (2, 8):  # adjacent dyads may hold transition mass
                assert frac < 0.5
            else:
                assert frac < 1e-8

    def test_sobolev_equivalence(self):
        g = self.fine_grid()
        s = 1.0
        for seed in (44, 45, 46):
            f = random_field(g, seed=seed)
            hs2 = sobolev_norm(f, s, 0.0) ** 2
            lp2 = sum((1 + N**2) ** s * sobolev_norm(lp_project(f, "x", N), 0, 0) ** 2
                      for N in lp_dyads(g, "x"))
            assert 0.25 < hs2 / lp2 < 4.0

    def test_dyad_out_of_range(self):
        g = small_grid()  # eta_max ~ 0.87
        f = random_field(g, seed=47)
        with pytest.raises(ValueError, match="outside resolved range"):
            lp_project(f, "x", 4)

    def test_non_dyadic_rejected(self):
        f = random_field(self.fine_grid(), seed=48)
        with pytest.raises(ValueError, match="power of two"):
            lp_project(f, "x", 3)

    def test_numpy_and_float_dyads_match_int(self):
        f = random_field(self.fine_grid(), seed=49)
        want = lp_project(f, "x", 4).data
        for dyad in (np.int64(4), 4.0, np.float64(4.0)):
            np.testing.assert_array_equal(lp_project(f, "x", dyad).data, want)


class TestSpacetime:
    def test_single_snapshot_qinf(self):
        f = random_field(small_grid(), seed=51)
        tr = Trajectory(np.array([0.0]), (f,))
        a = spacetime_norm(tr, np.inf, 2.0)
        b = f.to(FieldTag.Spectral_x_xi).l2()
        assert abs(a - b) < 1e-12 * b

    def test_constant_trajectory_scaling(self):
        f = random_field(small_grid(), seed=52)
        T = 0.8
        times = np.linspace(0.0, T, 9)
        tr = Trajectory(times, tuple(f.copy() for _ in times))
        snap = spacetime_norm(Trajectory(np.array([0.0]), (f,)), np.inf, 3.0)
        got = spacetime_norm(tr, 2.0, 3.0)
        assert abs(got - T ** (1 / 2.0) * snap) < 1e-10 * snap

    @pytest.mark.parametrize("p, r", [(3.0, 1.5), (2.0, np.inf), (np.inf, 2.0),
                                      (1.0, 4.0)])
    def test_single_snapshot_with_r_is_the_nested_sum(self, p, r):
        # the L^r over xi of the L^p over x, one xi point at a time
        f = random_field(small_grid(), seed=54)
        grid = f.grid
        m = np.abs(f.to(FieldTag.Spectral_x_xi).data)
        inner = []
        for i, j, k in np.ndindex(grid.nv):
            mx = m[:, :, :, i, j, k]
            inner.append(mx.max() if p == np.inf
                         else (np.sum(mx**p) * grid.cell_x) ** (1.0 / p))
        inner = np.array(inner)
        want = (inner.max() if r == np.inf
                else (np.sum(inner**r) * grid.cell_xi) ** (1.0 / r))
        got = spacetime_norm(Trajectory(np.array([0.0]), (f,)), 2.0, p, r=r)
        assert got == pytest.approx(want, rel=1e-13)

    def test_exponents_below_one_rejected(self):
        f = random_field(small_grid(), seed=53)
        tr = Trajectory(np.array([0.0]), (f,))
        with pytest.raises(ValueError, match=r"\[1, inf\]"):
            spacetime_norm(tr, 0.5, 2.0)


def _free_gaussian_trajectory(grid, cx, cv, wx, wv, T=0.4, nt=9):
    times = np.linspace(0.0, T, nt)
    f0 = gaussian_oracle(grid, (cx, cv), (wx, wv))
    return Trajectory(times, tuple(free_transport(f0, t) for t in times)), f0


class TestStrichartz:
    def _corpus(self):
        rng = np.random.default_rng(61)
        grid = GridSpec((8, 8, 8), (8, 8, 8), Lx=4.0, Lv=4.0)
        items = []
        for _ in range(20):
            wx = rng.uniform(0.35, 0.55, size=3)
            wv = rng.uniform(0.25, 0.45, size=3)
            cx = rng.uniform(-0.3, 0.3, size=3)
            cv = rng.uniform(-0.3, 0.3, size=3)
            items.append(_free_gaussian_trajectory(grid, cx, cv, wx, wv))
        return items

    def test_admissible_pairs_bounded(self):
        items = self._corpus()
        for (q, p) in ((np.inf, 2.0), (2.0, 3.0)):
            ratios = []
            for tr, f0 in items:
                ratios.append(spacetime_norm(tr, q, p) / f0.l2())
            spread = max(ratios) / min(ratios)
            assert spread < 10.0, f"(q,p)=({q},{p}): spread {spread}"

    def test_p_neq_r_fails_by_scaling(self):
        # the dilation g(t, lam*x, xi/lam) commutes with free streaming at
        # the SAME t and preserves L2, so grids/widths shrink like 1/lam
        # with the time window held fixed; the (q,p,r)=(2,6,2) variant
        # must grow ~lambda while p=r stays flat
        lams = [1, 2, 4, 8, 16]
        grow, flat = [], []
        for lam in lams:
            grid = GridSpec((8, 8, 8), (8, 8, 8), Lx=4.0 / lam, Lv=4.0 / lam)
            wx = 0.45 / lam * np.ones(3)
            wv = 0.3 / lam * np.ones(3)
            tr, f0 = _free_gaussian_trajectory(grid, np.zeros(3), np.zeros(3),
                                               wx, wv, T=0.3, nt=5)
            l2 = f0.l2()
            grow.append(spacetime_norm(tr, 2.0, 6.0, r=2.0) / l2)
            flat.append(spacetime_norm(tr, 2.0, 2.0) / l2)
        grow = np.array(grow)
        flat = np.array(flat)
        assert np.all(np.diff(grow) > 0), f"not monotone: {grow}"
        assert grow[-1] / grow[0] >= 10.0
        assert max(flat) / min(flat) < 1.5


class TestXsb:
    def _traj(self, seed=71, nt=16):
        g = small_grid()
        f = random_field(g, seed=seed, scale=0.5)
        times = np.linspace(0.0, 1.0, nt)
        return Trajectory(times, tuple(free_transport(f, t) for t in times))

    def test_b0_s0_equals_weighted_l2t(self):
        tr = self._traj()
        times = tr.times
        theta = plateau_window((times - times[0]) / (times[-1] - times[0]), 0.25)
        dt = times[1] - times[0]
        ref = math.sqrt(sum(theta[i] ** 2 * tr.fields[i].l2() ** 2 * dt
                            for i in range(len(tr))))
        got = xsb_norm(tr, 0.0, 0.0, 0.25)
        assert abs(got - ref) < 1e-8 * ref

    def test_zero_trajectory(self):
        g = small_grid()
        z = PhaseField(g, np.zeros(g.shape, dtype=complex), FieldTag.Physical_xv)
        times = np.linspace(0.0, 1.0, 16)
        tr = Trajectory(times, tuple(z.copy() for _ in times))
        assert xsb_norm(tr, 0.5, 0.6) == 0.0

    def test_free_solution_mild_b_growth(self):
        # free solutions concentrate near zero modulation: raising b from 0
        # to 0.6 grows the norm only mildly
        tr = self._traj(seed=72)
        r = xsb_norm(tr, 0.0, 0.6) / xsb_norm(tr, 0.0, 0.0)
        assert 1.0 <= r < 3.0

    def test_window_too_short(self):
        tr = self._traj(nt=8)
        with pytest.raises(ValueError, match="window too short"):
            xsb_norm(tr, 0.0, 0.6, cutoff_width=0.25)  # 2 taper samples < 4

    def test_cutoff_width_above_half_rejected(self):
        tr = self._traj(nt=8)
        with pytest.raises(ValueError, match=r"\(0, 1/2\]"):
            xsb_norm(tr, 0.5, 0.6, cutoff_width=0.8)


# ---------------------------------------------------------------------------
# scaling laws through rescale(), measured with the homogeneous norm
# ---------------------------------------------------------------------------

def _windowed_trig_x(grid, rng):
    """Random trig polynomial (band <= 2) under a compact C-inf plateau
    window in x; support kept inside |x| <= 0.8 Lx so a 2x shrink stays
    readable.  Returns an array of shape grid.nx."""
    X = np.ones(grid.nx, dtype=complex)
    for a in range(3):
        x = grid.x_axis(a)
        sh = [1, 1, 1]
        sh[a] = x.size
        axis_poly = np.zeros_like(x, dtype=complex)
        for k in range(-2, 3):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            axis_poly += c * np.exp(2j * np.pi * k * x / (2 * grid.Lx))
        # C-inf window supported in |x| <= 0.8 Lx (a hard cutoff would leave
        # an algebraic spectral tail that aliases under stride-2 subsampling)
        win = plateau_window((x / (0.8 * grid.Lx) + 1) / 2, 0.3)
        X = X * (axis_poly * win).reshape(sh)
    return X


def _xdilation_field(grid, seed, v_sigma=0.8):
    """Fixture for x-only dilations: banded compact profile in x times a
    narrow Gaussian on the first v axis and grid deltas on the other two.
    The v factor is untouched when beta = 0, so it cancels in norm ratios."""
    rng = np.random.default_rng(seed)
    X = _windowed_trig_x(grid, rng)
    data = np.zeros(grid.shape, dtype=complex)
    v1 = grid.v_axis(0)
    gauss = np.exp(-0.5 * (v1 / v_sigma) ** 2)
    j2 = grid.nv[1] // 2
    j3 = grid.nv[2] // 2
    data[:, :, :, :, j2, j3] = X[:, :, :, None] * gauss[None, None, None, :]
    return PhaseField(grid, data, FieldTag.Physical_xv)


def _vdilation_field(grid, seed, v_sigma=2.0):
    """Fixture for v-only dilations: banded compact profile in x (untouched
    when alpha = 0) times an honest 3D Gaussian in v.  Grid deltas would not
    dilate -- a sampled delta carries no measure factor -- so every v axis
    must resolve the shrunk width, hence nv = 32 per axis.  sigma = 2.0
    balances the origin-kink quadrature error of the |v|^{2s} weight at
    shrink factor 4 (too narrow) against box truncation (too wide)."""
    rng = np.random.default_rng(seed)
    X = _windowed_trig_x(grid, rng)
    G = np.exp(-0.5 * axis_sum(lambda a: grid.v_axis(a) ** 2) / v_sigma**2)
    data = X[:, :, :, None, None, None] * G[None, None, None, :, :, :]
    return PhaseField(grid, data, FieldTag.Physical_xv)


class TestScalingLaws:
    # x-dilation fixture: 32^3 in x (stride wall needs the full budget),
    # v collapsed to one resolved axis plus deltas
    X_GRID = GridSpec((32, 32, 32), (32, 2, 2), Lx=6.0, Lv=6.0)
    # v-dilation fixture: 32^3 in v, small static x block
    V_GRID = GridSpec((8, 8, 8), (32, 32, 32), Lx=6.0, Lv=6.0)

    def _ratio(self, f, lam, alpha, beta, s):
        fl = rescale(f, ScalingTransform(lam, alpha, beta))
        return homogeneous_norm(fl, s, s) / homogeneous_norm(f, s, s)

    def test_law_in_grid_small_factors(self):
        # in-grid stride factors: x capped at 2 by the uncertainty wall at
        # 32^3 (support <= L/m and spectral tail <= Nyquist/m clash beyond),
        # v capped at 4 (sampled pointwise, no FFT wall)
        s = 0.75
        fx = _xdilation_field(self.X_GRID, seed=91)
        fv = _vdilation_field(self.V_GRID, seed=94)
        cases = [(fx, 2.0, 1.0, 0.0), (fv, 2.0, 0.0, 1.0), (fv, 4.0, 0.0, 1.0)]
        for f, lam, a, b in cases:
            want = lam ** ((s - 0.5) * (a - b))
            got = self._ratio(f, lam, a, b, s)
            assert abs(got / want - 1) < 0.05, (lam, a, b, got, want)

    def test_critical_index_single_axis(self):
        # s = r = 1/2 is scaling-critical: the ratio is 1 for every transform
        fx = _xdilation_field(self.X_GRID, seed=92)
        fv = _vdilation_field(self.V_GRID, seed=95)
        for f, lam, a, b in [(fx, 2.0, 1.0, 0.0), (fv, 2.0, 0.0, 1.0),
                             (fv, 4.0, 0.0, 1.0)]:
            got = self._ratio(f, lam, a, b, 0.5)
            assert abs(got - 1) < 0.02, (lam, a, b, got)

    def test_critical_index_simultaneous(self):
        # alpha = beta = 1, lambda in {2, 4}: a 6D in-grid stride at the
        # accuracy the |v|^{2s} origin kink demands needs 32 points per axis
        # on all six axes (16 GB), so the simultaneous case is realized on
        # the lambda-adapted grid (amplitude lambda^3, same samples), where
        # invariance of the norm machinery is exact; the in-grid striding
        # path is covered per axis by test_critical_index_single_axis
        for seed, fixture_grid, make in ((96, self.X_GRID, _xdilation_field),
                                         (97, self.V_GRID, _vdilation_field)):
            f = make(fixture_grid, seed=seed)
            base = homogeneous_norm(f, 0.5, 0.5)
            for lam in (2.0, 4.0):
                g2 = GridSpec(fixture_grid.nx, fixture_grid.nv,
                              fixture_grid.Lx / lam, fixture_grid.Lv / lam)
                fl = PhaseField(g2, lam**3 * f.data, FieldTag.Physical_xv)
                got = homogeneous_norm(fl, 0.5, 0.5) / base
                assert abs(got - 1) < 1e-10, (seed, lam, got)

    def test_law_adapted_grid_large_factors(self):
        # factors beyond the stride wall: the dilated field lives on the
        # lambda-adapted grid with identical samples; the law is then exact
        s = 0.75
        f = _xdilation_field(self.X_GRID, seed=93)
        for lam, a, b in [(4.0, 1.0, 0.0), (2.0, 2.0, 1.0), (4.0, 2.0, 1.0)]:
            g2 = GridSpec(self.X_GRID.nx, self.X_GRID.nv,
                          self.X_GRID.Lx / lam**a, self.X_GRID.Lv / lam**b)
            amp = lam ** (a + 2 * b)
            fl = PhaseField(g2, amp * f.data, FieldTag.Physical_xv)
            got = homogeneous_norm(fl, s, s) / homogeneous_norm(f, s, s)
            want = lam ** ((s - 0.5) * (a - b))
            assert abs(got / want - 1) < 1e-10, (lam, a, b, got, want)
