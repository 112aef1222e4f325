"""Collision operators: geometry, loss/gain terms, invariants, oracle."""

import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from boltzlab import (
    CollisionConfig,
    FieldTag,
    GridSpec,
    Interpolation,
    PhaseField,
    SphereQuadrature,
    Storage,
    VSlicedField,
    collision,
    gain_term_direct,
    gain_term_spectral,
    loss_term,
    maxwellian,
    moments,
    post_collision,
    spatial_density,
)
from boltzlab import grids
from boltzlab.grids import lattice_read, lattice_stencil

# the module itself: the package binds the name `collision` to the operator
C = importlib.import_module("boltzlab.collision")

FOUR_PI = 4.0 * np.pi


def oracle_grid():
    """8^3 v-grid used for spectral/direct cross-checks."""
    return GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0)


def smooth_blob(grid, rng):
    """Anisotropic tilted Gaussian contained in both boxes (physical tails
    and spectral tails both ~3 sigma out at 8^3, Lv=4)."""
    sig = rng.uniform(1.05, 1.20, 3)
    c = rng.uniform(-0.4, 0.4, 3)
    amp = rng.uniform(0.5, 1.5)
    tilt = rng.uniform(-0.3, 0.3, 3)
    V = grid.v_mesh()
    g = np.ones(grid.nv)
    for a in range(3):
        g = g * np.exp(-((V[a] - c[a]) ** 2) / (2 * sig[a] ** 2))
    poly = 1.0 + sum(tilt[a] * (V[a] - c[a]) / sig[a] for a in range(3))
    body = (amp * g * poly).astype(np.complex128)
    return PhaseField(grid, np.broadcast_to(body, grid.shape).copy(),
                      FieldTag.Physical_xv)


def x_varying(f, rng):
    """f scaled by a seeded positive factor per x-cell."""
    amp = rng.uniform(0.5, 1.5, f.grid.nx)[:, :, :, None, None, None]
    return PhaseField(f.grid, f.data * amp, FieldTag.Physical_xv)


def reference_spectrum(f, g, cfg):
    """The trilinear spectral gain's spectrum on the whole output lattice
    (FFT order), shape (Nx, Nv): sum_q w_q (read of F at xi+) (read of G at
    xi-), F, G the padded spectra as explicit sums on the centred (shifted)
    lattice with the dealias ball applied, each read a lattice_stencil with
    the ball at the read point."""
    grid = f.grid
    nv = grid.nv
    step = 1.0 / (4.0 * grid.Lv)
    radius = (1.0 - cfg.dealias_margin) * min(nv) / (4.0 * grid.Lv)
    axes = [(np.arange(2 * n) - n) * step for n in nv]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    ball = np.sum(mesh**2, axis=-1) <= radius**2
    fwd = [np.exp(-2j * np.pi * np.outer(axes[a], grid.v_axis(a)))
           for a in range(3)]
    spectra = [(ball * grid.cell_v * np.einsum(
        "xijk,pi,qj,rk->xpqr", h.data.reshape((-1,) + nv), *fwd,
        optimize=True)).reshape(-1, ball.size) for h in (f, g)]
    xi_axes = [grid.xi_axis(a) for a in range(3)]
    xi = np.stack(np.meshgrid(*xi_axes, indexing="ij"), axis=-1).reshape(-1, 3)
    acc = np.zeros((spectra[0].shape[0], xi.shape[0]), dtype=complex)
    for w_q, omega in zip(cfg.quadrature.weights, cfg.quadrature.nodes):
        xim = np.outer(xi @ omega, omega)
        vals = []
        for spec, pts in zip(spectra, (xi - xim, xim)):
            idx, w = lattice_stencil(pts, -np.array(nv) * step, step,
                                     ball.shape)
            w = w * (np.sum(pts**2, axis=1) <= radius**2)
            vals.append(lattice_read(spec, (idx, w)))
        acc += w_q * vals[0] * vals[1]
    return acc


def box_operators(grid, margin, quad=SphereQuadrature.fibonacci(1)):
    """(factors, R, conj, gather, inverse) of the spectral gain at a dealias
    margin."""
    return C._gain_operators(grid, quad.nodes.tobytes(), quad.weights.tobytes(),
                             C._dealias_radius(grid, margin))


def reference_inverse(acc, grid):
    """The real part of the inverse v-transform of (Nx, Nv) spectra in FFT
    order, as an explicit sum; shape grid.shape."""
    xi_axes = [grid.xi_axis(a) for a in range(3)]
    inv = [np.exp(2j * np.pi * np.outer(grid.v_axis(a), xi_axes[a]))
           for a in range(3)]
    out = grid.cell_xi * np.einsum("xpqr,ip,jq,kr->xijk",
                                   acc.reshape((-1,) + grid.nv), *inv,
                                   optimize=True)
    return out.real.reshape(grid.shape)


def half_row_inverse(acc, grid):
    """`reference_inverse` of the rows k3 <= n3/2 of (Nx, Nv) spectra alone,
    as irfft weighs them: the DC and Nyquist rows once, the others twice."""
    n3 = grid.nv[2]
    rows = np.zeros(n3)
    rows[:n3 // 2 + 1] = 2.0
    rows[[0, n3 // 2]] = 1.0
    return reference_inverse(acc.reshape((-1,) + grid.nv) * rows, grid)


def reference_gain(f, g, cfg):
    """The trilinear spectral gain: the real part of the explicit inverse of
    `reference_spectrum`."""
    return reference_inverse(reference_spectrum(f, g, cfg), f.grid)


def rel_l2(a, b):
    return float(np.linalg.norm((a.data - b.data).ravel())
                 / np.linalg.norm(b.data.ravel()))


class TestSphereQuadrature:
    def test_fibonacci_nodes_unit_and_weights_sum(self):
        q = SphereQuadrature.fibonacci(64)
        assert len(q) == 64
        assert np.allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-12)
        assert np.isclose(q.weights.sum(), FOUR_PI, rtol=1e-12)

    def test_octahedral_integrates_low_degree_exactly(self):
        # exact for polynomials of degree <= 3: odd monomials vanish,
        # second moments equal (4 pi / 3) I
        q = SphereQuadrature.octahedral()
        first = q.weights @ q.nodes
        assert np.max(np.abs(first)) < 1e-14
        second = (q.weights[:, None, None]
                  * q.nodes[:, :, None] * q.nodes[:, None, :]).sum(0)
        assert np.allclose(second, FOUR_PI / 3.0 * np.eye(3), atol=1e-14)

    def test_random_rule_is_seeded(self):
        a = SphereQuadrature.random(32, seed=5)
        b = SphereQuadrature.random(32, seed=5)
        c = SphereQuadrature.random(32, seed=6)
        assert np.array_equal(a.nodes, b.nodes)
        assert not np.array_equal(a.nodes, c.nodes)

    def test_rules_reject_empty_node_sets(self):
        for make in (SphereQuadrature.fibonacci,
                     lambda n: SphereQuadrature.random(n, seed=0)):
            with pytest.raises(ValueError, match="at least one quadrature node"):
                make(0)

    def test_rejects_non_unit_nodes(self):
        with pytest.raises(ValueError, match="unit"):
            SphereQuadrature(np.array([[1.0, 1.0, 0.0]]), np.array([FOUR_PI]))

    def test_rejects_negative_weights(self):
        nodes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        with pytest.raises(ValueError, match="positive"):
            SphereQuadrature(nodes, np.array([FOUR_PI + 1.0, -1.0]))

    def test_rejects_nan_nodes_and_weights(self):
        q = SphereQuadrature.octahedral()
        nodes = q.nodes.copy()
        nodes[2, 0] = np.nan
        with pytest.raises(ValueError, match="nodes must be unit"):
            SphereQuadrature(nodes, q.weights)
        weights = q.weights.copy()
        weights[1] = np.nan
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            SphereQuadrature(q.nodes, weights)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="4\\*pi"):
            SphereQuadrature(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            SphereQuadrature(np.eye(3), np.array([FOUR_PI]))


class TestPostCollision:
    def test_perpendicular_omega_is_identity(self):
        u = np.array([0.0, 1.0, 0.0])
        v = np.array([0.0, -1.0, 0.0])
        us, vs = post_collision(u, v, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(us, u) and np.allclose(vs, v)

    def test_parallel_omega_swaps(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([-1.0, 0.0, 5.0])
        d = v - u
        omega = d / np.linalg.norm(d)
        us, vs = post_collision(u, v, omega)
        assert np.allclose(us, v, atol=1e-12)
        assert np.allclose(vs, u, atol=1e-12)

    def test_axis_case(self):
        us, vs = post_collision(np.zeros(3), np.array([2.0, 0.0, 0.0]),
                                np.array([1.0, 0.0, 0.0]))
        assert np.allclose(us, [2.0, 0.0, 0.0])
        assert np.allclose(vs, [0.0, 0.0, 0.0])

    def test_rejects_non_unit_omega(self):
        with pytest.raises(ValueError, match="unit"):
            post_collision(np.zeros(3), np.ones(3), np.array([1.0, 1.0, 0.0]))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6),
           st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
    def test_momentum_and_energy_conserved(self, uv, theta, phi):
        u = np.array(uv[:3])
        v = np.array(uv[3:])
        omega = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi), np.cos(theta)])
        omega /= np.linalg.norm(omega)
        us, vs = post_collision(u, v, omega)
        assert np.max(np.abs((us + vs) - (u + v))) < 1e-12
        scale = 1.0 + u @ u + v @ v
        assert abs((us @ us + vs @ vs) - (u @ u + v @ v)) < 1e-12 * scale

    def test_broadcasts_over_point_batches(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(5, 7, 3))
        v = rng.normal(size=(5, 7, 3))
        us, vs = post_collision(u, v, np.array([0.0, 1.0, 0.0]))
        assert us.shape == (5, 7, 3)
        assert np.allclose(us + vs, u + v, atol=1e-12)


class TestLossTerm:
    def test_unit_factor_returns_f(self):
        # rho_g = 1/(4 pi) pointwise -> loss == f
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(3))
        const = 1.0 / (FOUR_PI * (2 * grid.Lv) ** 3)
        g = PhaseField(grid, np.full(grid.shape, const, dtype=np.complex128),
                       FieldTag.Physical_xv)
        out = loss_term(f, g)
        assert rel_l2(out, f) < 1e-13

    def test_zero_g_gives_zero(self):
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(4))
        g = PhaseField(grid, np.zeros(grid.shape, dtype=np.complex128),
                       FieldTag.Physical_xv)
        assert np.all(loss_term(f, g).data == 0)

    def test_spectral_form_matches(self):
        # v-transform of the loss must equal 4 pi fhat(xi) * ghat(0),
        # both sides computed independently
        grid = oracle_grid()
        rng = np.random.default_rng(5)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        lhs = loss_term(f, g).to(FieldTag.Spectral_x_xi)
        fhat = f.to(FieldTag.Spectral_x_xi)
        ghat0 = g.to(FieldTag.Spectral_x_xi).data[:, :, :, 0, 0, 0]
        rhs = FOUR_PI * fhat.data * ghat0[:, :, :, None, None, None]
        num = np.linalg.norm((lhs.data - rhs).ravel())
        den = np.linalg.norm(rhs.ravel())
        assert num / den < 1e-10

    def test_streams_vsliced(self):
        grid = GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0,
                        storage=Storage.VSliced)
        full = oracle_grid()
        f = smooth_blob(full, np.random.default_rng(6))
        g = smooth_blob(full, np.random.default_rng(7))

        def slicer(of):
            def fn(iv):
                return of.data[:, :, :, iv[0], iv[1], iv[2]]
            return fn

        fs = VSlicedField(grid, slicer(f))
        gs = VSlicedField(grid, slicer(g))
        streamed = loss_term(fs, gs).materialize()
        dense = loss_term(f, g)
        num = np.linalg.norm((streamed.data - dense.data).ravel())
        den = np.linalg.norm(dense.data.ravel())
        assert num / den < 1e-13

    def test_grid_mismatch_rejected(self):
        f = smooth_blob(oracle_grid(), np.random.default_rng(1))
        other = GridSpec((1, 1, 1), (8, 8, 8), Lx=2.0, Lv=4.0)
        g = smooth_blob(other, np.random.default_rng(2))
        with pytest.raises(ValueError, match="grid mismatch"):
            loss_term(f, g)


class TestSpectralGain:
    def test_equilibrium_gain_equals_loss(self):
        # Maxwellian: f(u*)f(v*) = f(u)f(v), so Q+ = Q- = 4 pi rho M.
        # Box/resolution chosen so the padded-lattice trilinear reads of
        # the xi-Gaussian are accurate (Lv=6 resolves the spectral blob).
        grid = GridSpec((1, 1, 1), (16, 16, 16), Lx=1.0, Lv=6.0)
        M = maxwellian(grid, rho=1.0, temperature=1.0)
        gain = gain_term_spectral(M, M, CollisionConfig())
        target = loss_term(M, M)
        assert rel_l2(gain, target) < 5e-2

    def test_zero_mode_identity(self):
        # integral of Q+ dv = 4 pi (integral f)(integral g)
        grid = oracle_grid()
        rng = np.random.default_rng(11)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        gain = gain_term_spectral(f, g, CollisionConfig())
        mass_gain = moments(gain)[0]
        mf = moments(f)[0]
        mg = moments(g)[0]
        cell_x = grid.cell_x
        # mass integrates over x too; both f,g x-uniform on one cell
        expect = FOUR_PI * mf * mg / cell_x
        assert abs(mass_gain - expect) < 1e-8 * abs(expect)

    def test_vsliced_storage_rejected(self):
        grid = GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0,
                        storage=Storage.VSliced)
        fs = VSlicedField(grid, lambda iv: np.zeros((1, 1, 1), complex))
        with pytest.raises(ValueError, match="gain requires full field"):
            gain_term_spectral(fs, fs, CollisionConfig())

    def test_margin_validated(self):
        with pytest.raises(ValueError, match="dealias_margin"):
            CollisionConfig(dealias_margin=0.7)

    def test_real_input_real_output(self):
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(12))
        gain = gain_term_spectral(f, f, CollisionConfig())
        assert gain.data.dtype == np.float64

    @pytest.mark.parametrize("interp", [Interpolation.Trilinear,
                                        Interpolation.Trig])
    def test_rejects_nonzero_imaginary_part(self, interp):
        # the half lattice would read a complex field half-wrong
        # whether its partner is stored complex or float64
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(21))
        g = PhaseField(grid, f.data * (1.0 + 1e-12j), FieldTag.Physical_xv)
        r = PhaseField(grid, f.data.real, FieldTag.Physical_xv)
        assert r.data.dtype == np.float64
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(4),
                              interpolation=interp)
        for args in ((f, g), (g, f), (g, g), (r, g), (g, r)):
            with pytest.raises(ValueError, match="real fields"):
                gain_term_spectral(*args, cfg)

    def test_overflowing_gain_still_raises(self):
        # finite inputs whose gain overflows: the output's finiteness scan
        # raises
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(22))
        huge = PhaseField(grid, 1e160 * f.data, FieldTag.Physical_xv)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                gain_term_spectral(huge, huge, CollisionConfig())

    def test_trilinear_reads_match_regular_grid_interpolator(self):
        # the same sphere quadrature with every off-lattice read done by
        # scipy's linear interpolator on the padded, ball-projected spectrum
        # (zero outside the lattice), and both transforms as explicit sums
        grid = oracle_grid()
        rng = np.random.default_rng(31)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        cfg = CollisionConfig()
        radius = (1.0 - cfg.dealias_margin) * min(grid.nv) / (4.0 * grid.Lv)
        axes = [(np.arange(2 * n) - n) / (4.0 * grid.Lv) for n in grid.nv]
        fwd = [np.exp(-2j * np.pi * np.outer(axes[a], grid.v_axis(a)))
               for a in range(3)]
        ball = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        ball = np.sum(ball**2, axis=-1) <= radius**2
        reads = [RegularGridInterpolator(
            axes, ball * grid.cell_v * np.einsum(
                "ijk,pi,qj,rk->pqr", h.data.reshape(grid.nv), *fwd),
            method="linear", bounds_error=False, fill_value=0.0) for h in (f, g)]
        xi_axes = [grid.xi_axis(a) for a in range(3)]
        xi = np.stack(np.meshgrid(*xi_axes, indexing="ij"), axis=-1).reshape(-1, 3)
        acc = np.zeros(xi.shape[0], dtype=complex)
        for w, omega in zip(cfg.quadrature.weights, cfg.quadrature.nodes):
            xim = np.outer(xi @ omega, omega)
            vals = [read(p) * (np.sum(p**2, axis=1) <= radius**2)
                    for read, p in zip(reads, (xi - xim, xim))]
            acc += w * vals[0] * vals[1]
        inv = [np.exp(2j * np.pi * np.outer(grid.v_axis(a), xi_axes[a]))
               for a in range(3)]
        want = grid.cell_xi * np.einsum("pqr,ip,jq,kr->ijk",
                                        acc.reshape(grid.nv), *inv).real
        got = gain_term_spectral(f, g, cfg).data.real.reshape(grid.nv)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestGainOperators:
    """The cached per-node read operators of the Trilinear spectral gain."""

    def test_matches_reference_gain_relax_shape(self):
        grid = GridSpec((1, 1, 1), (16, 16, 16), Lx=1.0, Lv=6.0)
        rng = np.random.default_rng(41)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(16))
        want = reference_gain(f, g, cfg)
        got = gain_term_spectral(f, g, cfg).data.real
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_reference_gain_over_x_chunks(self):
        # 1024 x-cells at 8^3 span 32 row blocks of the gain (32 rows each)
        grid = GridSpec((16, 8, 8), (8, 8, 8), Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(42)
        f = x_varying(smooth_blob(grid, rng), rng)
        g = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        want = reference_gain(f, g, cfg)
        got = gain_term_spectral(f, g, cfg).data.real
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("nv, margin", [((8, 4, 2), 0.30),
                                            ((4, 8, 1), 1.0 / 3.0),
                                            ((1, 4, 8), 0.30)])
    def test_matches_reference_gain_on_unequal_grids(self, nv, margin):
        # unequal axes, a one-point (odd) axis and a margin just above
        # 1 - 1/sqrt(2), where the output Nyquist planes still vanish
        grid = GridSpec((2, 1, 1), nv, Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(50)
        f = x_varying(smooth_blob(grid, rng), rng)
        g = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8),
                              dealias_margin=margin)
        want = reference_gain(f, g, cfg)
        got = gain_term_spectral(f, g, cfg).data.real
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("margin, lo, hi", [(0.0, 5e-5, 1e-3),
                                                (0.25, 5e-7, 5e-5),
                                                (0.30, 0.0, 1e-13)])
    def test_margin_below_threshold_inverts_the_half_rows(self, margin, lo, hi):
        # below m = 1 - 1/sqrt(2) the spectrum is not Hermitian on the output
        # Nyquist planes: the gain is the Hermitian extension of its rows
        # k3 <= n3/2, which moves it off the real part of the full inverse
        # by the documented amount; above the threshold not at all
        grid = oracle_grid()
        rng = np.random.default_rng(51)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(16),
                              dealias_margin=margin)
        acc = reference_spectrum(f, g, cfg)
        half = half_row_inverse(acc, grid)
        full = reference_inverse(acc, grid)
        got = gain_term_spectral(f, g, cfg).data.real
        scale = np.max(np.abs(full))
        assert np.max(np.abs(got - half)) <= 1e-13 * scale
        assert lo <= np.max(np.abs(got - full)) / scale <= hi

    @pytest.mark.parametrize("margin", [0.0, 0.25, 0.30])
    @pytest.mark.parametrize("nv", [(8, 4, 2), (4, 2, 8), (2, 8, 4)])
    def test_two_point_axis_inverts_the_half_rows(self, nv, margin):
        # unequal axes with a 2-point one: where it is the last axis its DC
        # and Nyquist rows are the whole half, so every half row weighs 1,
        # while a 4- or 8-point last axis weighs its inner rows 2
        grid = GridSpec((2, 1, 1), nv, Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(52)
        f = x_varying(smooth_blob(grid, rng), rng)
        g = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(16),
                              dealias_margin=margin)
        acc = reference_spectrum(f, g, cfg)
        got = gain_term_spectral(f, g, cfg).data.real
        scale = np.max(np.abs(reference_inverse(acc, grid)))
        assert np.max(np.abs(got - half_row_inverse(acc, grid))) <= 1e-13 * scale

    def test_second_call_hits_the_cache(self):
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(43))
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(16))
        C._gain_operators.cache_clear()
        first = gain_term_spectral(f, f, cfg).data
        hits = C._gain_operators.cache_info().hits
        second = gain_term_spectral(f, f, cfg).data
        assert C._gain_operators.cache_info().hits == hits + 1
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("change", ["margin", "weights", "nodes", "Lv"])
    def test_changed_key_builds_fresh_operators(self, change):
        # after a cached call, a call that differs in one key part must give
        # what it gives on an empty cache, and differ from the cached call
        rng = np.random.default_rng(44)
        f = smooth_blob(oracle_grid(), rng)
        g = smooth_blob(oracle_grid(), rng)
        base = CollisionConfig(quadrature=SphereQuadrature.fibonacci(16))
        C._gain_operators.cache_clear()
        before = gain_term_spectral(f, g, base).data
        quad = base.quadrature
        cfg = base
        if change == "margin":
            cfg = replace(base, dealias_margin=0.25)
        elif change == "weights":
            tilt = 1.0 + 0.5 * (-1.0) ** np.arange(len(quad))
            cfg = replace(base, quadrature=SphereQuadrature(
                quad.nodes, quad.weights * tilt))
        elif change == "nodes":
            other = SphereQuadrature.random(len(quad), seed=3)
            assert np.array_equal(other.weights, quad.weights)
            cfg = replace(base, quadrature=other)
        else:
            grid = GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.5)
            f, g = (PhaseField(grid, h.data, FieldTag.Physical_xv)
                    for h in (f, g))
        cached = gain_term_spectral(f, g, cfg).data
        C._gain_operators.cache_clear()
        fresh = gain_term_spectral(f, g, cfg).data
        assert np.array_equal(cached, fresh)
        assert not np.array_equal(cached, before)

    def test_cached_operators_are_read_only(self):
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(45))
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(4))
        gain_term_spectral(f, f, cfg)
        factors, R, _, gather, inverse = C._gain_operators(
            grid, cfg.quadrature.nodes.tobytes(), cfg.quadrature.weights.tobytes(),
            C._dealias_radius(grid, cfg.dealias_margin))
        assert not any(e.flags.writeable for e in factors)
        assert not any(e.flags.writeable for e in inverse)
        # the live rows of the 4 nodes on the half output lattice k3 <= 4,
        # read from the half box [-5, 5]^2 x [0, 5] that holds the k3 >= 0
        # half of the dealias ball of the 16^3 padded lattice, S+ rows then
        # S- rows, and added into the output box |k1|, |k2| <= 3, k3 <= 3
        live = gather.shape[1]
        assert live <= 4 * 8 * 8 * 5
        assert R.shape == (2 * live, 11 * 11 * 6)
        assert gather.shape == (7 * 7 * 4, live)
        assert [e.shape for e in inverse] == [(8, 7), (8, 7), (2 * 4, 8)]
        for op in (R, gather):
            for arr in (op.data, op.indices, op.indptr):
                assert not arr.flags.writeable

    def test_cache_is_small_and_bounded(self):
        maxsize = C._gain_operators.cache_parameters()["maxsize"]
        assert maxsize is not None and 1 <= maxsize <= 8

    @pytest.mark.parametrize("nx, nv, Lv, n, nnz", [
        ((16, 16, 16), (8, 8, 8), 5.0, 8, 8561),  # the residual grid
        ((1, 1, 1), (16, 16, 16), 6.0, 64, 527263)])  # the relax grid
    def test_sides_share_their_live_rows(self, nx, nv, Lv, n, nnz):
        # a row is built only where both xi+ and xi- lie in the dealias ball,
        # so every row of S+ and S- reads something, and the gather adds
        # each live row once into the xi it came from, on the box of the
        # half-lattice positions the live rows take per axis
        grid = GridSpec(nx, nv, Lx=1.0, Lv=Lv, full_cap=24**6)
        quad = SphereQuadrature.fibonacci(n)
        radius = C._dealias_radius(grid, 1.0 / 3.0)
        _, R, conj, gather, _ = box_operators(grid, 1.0 / 3.0, quad)
        rows = gather.shape[1]
        sp, sm = R[:rows], R[rows:]
        assert np.all(np.diff(sp.indptr) > 0) and np.all(np.diff(sm.indptr) > 0)
        assert sp.nnz + sm.nnz == nnz
        cols = gather.tocsc()
        assert np.all(np.diff(cols.indptr) == 1) and np.all(cols.data == 1.0)
        axes = (grid.xi_axis(0), grid.xi_axis(1), grid.xi_axis(2)[:nv[2] // 2 + 1])
        xi = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        live = np.zeros(xi.shape[0])
        for omega in quad.nodes:
            xim = np.outer(xi @ omega, omega)
            live += ((np.sum((xi - xim) ** 2, axis=1) <= radius**2)
                     & (np.sum(xim**2, axis=1) <= radius**2))
        live = live.reshape([a.size for a in axes])
        used = [np.flatnonzero(live.sum(axis=tuple({0, 1, 2} - {a})))
                for a in range(3)]
        assert np.array_equal(np.ravel(gather.sum(axis=1)), live[np.ix_(*used)].ravel())
        # the conjugated rows are exactly those whose read point was mirrored,
        # and each row's two reads add up to the xi the gather takes it to
        _, points, flip, conj_reads, _, _ = C._live_reads(grid, quad, radius)
        assert conj_reads == conj
        mirrored = np.zeros(2 * rows, bool)
        mirrored[conj[0]] = mirrored[rows:][conj[1]] = True
        assert np.array_equal(flip, mirrored)
        assert np.array_equal(flip, points[:, 2] < 0)
        box = np.unravel_index(cols.indices, [u.size for u in used])
        to = np.stack([a[u[i]] for a, u, i in zip(axes, used, box)], axis=-1)
        assert np.max(np.abs(points[:rows] + points[rows:] - to)) <= 1e-15 * np.max(np.abs(to))

    @pytest.mark.parametrize("nx, nv, Lv", [((16, 8, 8), (8, 8, 8), 4.0),
                                            ((1, 1, 1), (16, 16, 16), 6.0)])
    def test_same_field_equals_its_copy(self, nx, nv, Lv):
        # g is f transforms once; per x-chunk it must equal a distinct copy
        grid = GridSpec(nx, nv, Lx=1.0, Lv=Lv)
        rng = np.random.default_rng(46)
        f = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        other = PhaseField(grid, f.data.copy(), FieldTag.Physical_xv)
        assert np.array_equal(gain_term_spectral(f, f, cfg).data,
                              gain_term_spectral(f, other, cfg).data)


    @pytest.mark.parametrize("interp", [Interpolation.Trilinear,
                                        Interpolation.Trig])
    def test_blocks_leave_output_unchanged(self, interp, monkeypatch):
        grid = GridSpec((4, 4, 4), (8, 8, 8), Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(48)
        f = x_varying(smooth_blob(grid, rng), rng)
        g = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8),
                              interpolation=interp)
        whole = gain_term_spectral(f, g, cfg).data
        # at this budget the trilinear reads of f and g take two x rows per
        # block (32 blocks), the Trig path seven (10 blocks), whose reads
        # then take 27 points per block
        monkeypatch.setattr(grids, "_BLOCK", 3 * 16 * 512)
        blocked = gain_term_spectral(f, g, cfg).data
        assert np.array_equal(blocked, whole)

    def test_traced_peak_within_twice_the_output(self):
        # the x blocks keep the padded spectra near the block budget, so one
        # call's traced peak is the output plus little more
        grid = GridSpec((16, 16, 16), (8, 8, 8), Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(49)
        f = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        tracemalloc.start()
        try:
            out = gain_term_spectral(f, f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.data.nbytes

    def test_traced_peak_counts_the_reads(self):
        # on a 16^3 v-grid with 64 nodes the stacked reads of one x row are
        # 33 Nv float64: a block sized by its box spectrum alone held four
        # rows of them (traced peak 9.6 MB); counted, the second call stays
        # within one block budget plus the input and output fields
        grid = GridSpec((2, 2, 2), (16, 16, 16), Lx=1.0, Lv=6.0)
        rng = np.random.default_rng(50)
        f = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(64))
        gain_term_spectral(f, f, cfg)  # caches the operators
        tracemalloc.start()
        try:
            out = gain_term_spectral(f, f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grids._BLOCK + f.data.nbytes + out.data.nbytes


class TestBoxSpectrum:
    """The three-factor box spectrum against a long-double direct DFT at the
    box frequencies, and the box against the dealias ball it must hold."""

    CASES = [((8, 8, 8), 732), ((16, 16, 16), 1), ((8, 4, 2), 5),
             ((8, 8, 8), 32), ((4, 2, 1), 3)]

    @staticmethod
    def direct_dft(chunk, grid, K):
        """sum_v f(v) exp(-2 pi i k.v / (4Lv)) in long double, (c, box)."""
        k = np.arange(-K, K + 1)
        out = chunk.astype(np.clongdouble)
        for n in grid.nv:
            # k v_i / (4 Lv) = k (2i - n) / (4n): exact integer phases
            ang = (2 * np.pi * np.outer(k, 2 * np.arange(n) - n).astype(np.longdouble)
                   / np.longdouble(4 * n))
            out = np.tensordot(out, np.cos(ang) - 1j * np.sin(ang), axes=([1], [1]))
        return out

    # at margin 0 the 16^3 box reaches K = 16: phase arguments k v / (4Lv)
    # up to 1.6x those at the default K = 10 round coarser, 9.5e-16 of the
    # maximum measured there against at most 5.2e-16 at the default margin
    @pytest.mark.parametrize("margin, tol", [(1.0 / 3.0, 1e-15), (0.0, 2e-15)])
    @pytest.mark.parametrize("nv, c", CASES)
    def test_matches_long_double_dft(self, nv, c, margin, tol):
        grid = GridSpec((1, 1, 1), nv, Lx=1.0, Lv=4.0)
        factors = box_operators(grid, margin)[0]
        K = (factors[0].shape[0] - 1) // 2
        chunk = np.random.default_rng(47).standard_normal((c,) + nv)
        # the gain passes the real part of complex rows: a strided view
        got = C._box_spectrum(chunk.astype(complex).real, factors)
        assert got.dtype == np.float64 and got.shape == ((2 * K + 1) ** 2 * (K + 1), 2 * c)
        # the half k3 >= 0 of the direct DFT; f is real, so it holds the max
        want = np.moveaxis(self.direct_dft(chunk, grid, K)[..., K:], 0, -1).reshape(-1, c)
        got = got.view(np.complex128)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("margin", [1.0 / 3.0, 0.25, 0.0])
    @pytest.mark.parametrize("nv", [(8, 8, 8), (16, 16, 16), (8, 4, 2)])
    def test_box_is_the_smallest_that_holds_the_ball(self, nv, margin):
        grid = GridSpec((1, 1, 1), nv, Lx=1.0, Lv=4.0)
        factors, R, _, gather, inverse = box_operators(grid, margin,
                                                       SphereQuadrature.fibonacci(8))
        K = (factors[0].shape[0] - 1) // 2
        assert [e.shape for e in factors] == [(2 * K + 1, nv[0]), (2 * K + 1, nv[1]),
                                              (K + 1, nv[2])]
        assert not any(e.flags.writeable for e in factors)  # cached, shared
        # every lattice point k in [-n, n)^3 of the ball, by its own sum
        step = 1.0 / (4.0 * grid.Lv)
        radius = C._dealias_radius(grid, margin)
        k = np.stack(np.meshgrid(*(np.arange(-n, n) for n in nv),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
        inside = k[np.sum((k * step) ** 2, axis=1) <= radius**2]
        assert K == np.max(np.abs(inside))
        if margin == 0.0:
            assert K == min(nv)  # k = -n on the shortest axis
        half = (2 * K + 1, 2 * K + 1, K + 1)
        assert R.shape[1] == math.prod(half)
        read = np.stack(np.unravel_index(R.indices, half), axis=-1) - [K, K, 0]
        # each column of S+ and S- is a half-box point k3 >= 0 of the ball
        assert np.all(read[:, 2] >= 0)
        assert np.all(np.sum((read * step) ** 2, axis=1) <= radius**2)
        # the output box is the smallest that holds every live row: each of
        # its positions on each axis holds some live row
        box = tuple(e.shape[1] for e in inverse[:2]) + (inverse[2].shape[0] // 2,)
        rows = np.ravel(gather.sum(axis=1)).reshape(box)
        for a in range(3):
            assert np.all(rows.sum(axis=tuple({0, 1, 2} - {a})) > 0)


class TestDirectGain:
    def test_zero_input_gives_zero(self):
        grid = oracle_grid()
        z = PhaseField(grid, np.zeros(grid.shape, dtype=np.complex128),
                       FieldTag.Physical_xv)
        f = smooth_blob(grid, np.random.default_rng(13))
        out = gain_term_direct(f, z, CollisionConfig(
            quadrature=SphereQuadrature.octahedral()))
        assert np.all(out.data == 0)

    @pytest.mark.parametrize("interp", [Interpolation.Trig,
                                        Interpolation.Trilinear])
    def test_octahedral_conservation_is_machine_exact(self, interp):
        # over the axis-direction nodes the collision map permutes the
        # velocity lattice, so the invariants are forced analytically
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(14))
        cfg = CollisionConfig(quadrature=SphereQuadrature.octahedral(),
                              interpolation=interp)
        gain = gain_term_direct(f, f, cfg)
        q = gain - loss_term(f, f)
        m, p, e = moments(q)
        mg, _, eg = moments(gain)
        # contract asks < 1e-6; lattice reads make it exact in practice
        assert abs(m) / mg < 1e-12
        assert np.linalg.norm(p) / mg < 1e-12
        assert abs(e) / eg < 1e-12

    @pytest.mark.parametrize("interp", [Interpolation.Trilinear,
                                        Interpolation.Trig])
    def test_x_blocks_leave_output_unchanged(self, interp, monkeypatch):
        grid = GridSpec((2, 2, 2), (4, 4, 4), Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(46)
        f = x_varying(smooth_blob(grid, rng), rng)
        g = x_varying(smooth_blob(grid, rng), rng)
        cfg = CollisionConfig(quadrature=SphereQuadrature.octahedral(),
                              interpolation=interp)
        whole = gain_term_direct(f, g, cfg).data
        # three rows of the (Nx, Nv^2) complex pair tensors per block: 3 blocks
        monkeypatch.setattr(grids, "_BLOCK", 3 * 2 * 64**2)
        blocked = gain_term_direct(f, g, cfg).data
        assert np.array_equal(blocked, whole)

    def test_trilinear_gain_of_real_fields_is_real(self):
        # trilinear reads of real f and g are real, so the gain is stored as
        # float64; it equals, bit for bit, the real part of the same
        # quadrature summed into a complex128 output, one x row at a time
        grid = GridSpec((2, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0)
        rng = np.random.default_rng(47)
        f, g = (PhaseField(grid, x_varying(smooth_blob(grid, rng), rng).data.real)
                for _ in range(2))
        cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(8))
        got = gain_term_direct(f, g, cfg).data
        assert got.dtype == np.float64
        V = grid.v_points()
        fd, gd = f.data.reshape(2, -1), g.data.reshape(2, -1)
        want = np.zeros(fd.shape, dtype=np.complex128)
        for w_i, omega in zip(cfg.quadrature.weights, cfg.quadrature.nodes):
            k = (V[:, None, :] - V[None, :, :]) @ omega
            vstar = (V[:, None, :] - k[:, :, None] * omega).reshape(-1, 3)
            ustar = (V[None, :, :] + k[:, :, None] * omega).reshape(-1, 3)
            sv, su = (lattice_stencil(pts, -grid.Lv, grid.dv, grid.nv)
                      for pts in (vstar, ustar))
            for row in range(2):
                prod = lattice_read(fd[row], sv) * lattice_read(gd[row], su)
                want[row] += w_i * prod.reshape(V.shape[0], -1).sum(axis=1)
        want *= grid.cell_v
        assert np.array_equal(got.reshape(2, -1), want.real)

    def test_resolution_guard(self):
        grid = GridSpec((1, 1, 1), (16, 16, 16), Lx=1.0, Lv=4.0)
        f = maxwellian(grid)
        with pytest.raises(ValueError, match="direct-quadrature guard"):
            gain_term_direct(f, f, CollisionConfig())


class TestOracleEquivalence:
    def test_spectral_matches_direct_and_refines(self):
        # direct reference at a modest fixed budget; the spectral side
        # sweeps its node count: error < 5e-2 and decreasing
        grid = oracle_grid()
        rng = np.random.default_rng(1234)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        ref_cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(16),
                                  interpolation=Interpolation.Trig,
                                  dealias_margin=0.0)
        ref = gain_term_direct(f, g, ref_cfg)
        errs = []
        for n in (4, 16):
            cfg = CollisionConfig(quadrature=SphereQuadrature.fibonacci(n),
                                  interpolation=Interpolation.Trig,
                                  dealias_margin=0.0)
            errs.append(rel_l2(gain_term_spectral(f, g, cfg), ref))
        assert errs[0] < 9e-2
        assert errs[1] < 5e-2
        assert errs[1] < 0.6 * errs[0]

    def test_trilinear_default_close_to_trig(self):
        # production interpolation vs oracle interpolation, same nodes
        grid = oracle_grid()
        rng = np.random.default_rng(77)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        tri = gain_term_spectral(f, g, CollisionConfig())
        trig = gain_term_spectral(f, g, CollisionConfig(
            interpolation=Interpolation.Trig))
        assert rel_l2(tri, trig) < 8e-2


class TestCollisionOperator:
    def test_maxwellian_annihilates(self):
        grid = GridSpec((1, 1, 1), (16, 16, 16), Lx=1.0, Lv=6.0)
        M = maxwellian(grid)
        q = collision(M, M, CollisionConfig())
        gain = gain_term_spectral(M, M, CollisionConfig())
        assert (np.linalg.norm(q.data.ravel())
                / np.linalg.norm(gain.data.ravel())) < 5e-2

    def test_relaxation_step_stays_float64(self):
        # the relaxation step f + dt Q(f, f) of two displaced Maxwellians
        grid = GridSpec((1, 1, 1), (16, 16, 16), Lx=1.0, Lv=6.0)
        f = (maxwellian(grid, 0.5, 0.8, (1.0, 0.0, 0.0))
             + maxwellian(grid, 0.5, 0.9, (-1.0, 0.0, 0.0)))
        q = collision(f, f, CollisionConfig(
            quadrature=SphereQuadrature.fibonacci(8)))
        assert [h.data.dtype for h in (f, q, f + q * 0.01)] == [np.float64] * 3

    def test_bilinear_in_each_slot(self):
        grid = oracle_grid()
        rng = np.random.default_rng(15)
        f = smooth_blob(grid, rng)
        g = smooth_blob(grid, rng)
        cfg = CollisionConfig()
        base = collision(f, g, cfg)
        af = PhaseField(grid, 2.5 * f.data, FieldTag.Physical_xv)
        left = collision(af, g, cfg)
        assert rel_l2(left, PhaseField(grid, 2.5 * base.data,
                                       FieldTag.Physical_xv)) < 1e-12
        bg = PhaseField(grid, -1.25 * g.data, FieldTag.Physical_xv)
        right = collision(f, bg, cfg)
        assert rel_l2(right, PhaseField(grid, -1.25 * base.data,
                                        FieldTag.Physical_xv)) < 1e-12

    def test_quadratic_scaling(self):
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(16))
        cfg = CollisionConfig()
        q1 = collision(f, f, cfg)
        cf = PhaseField(grid, 3.0 * f.data, FieldTag.Physical_xv)
        q9 = collision(cf, cf, cfg)
        assert rel_l2(q9, PhaseField(grid, 9.0 * q1.data,
                                     FieldTag.Physical_xv)) < 1e-12

    def test_mass_moment_vanishes(self):
        grid = oracle_grid()
        f = smooth_blob(grid, np.random.default_rng(17))
        q = collision(f, f, CollisionConfig())
        mass = moments(q)[0]
        mass_gain = moments(gain_term_spectral(f, f, CollisionConfig()))[0]
        assert abs(mass) / mass_gain < 1e-6

    def test_spectral_conservation_at_default_quadrature(self):
        # momentum/energy need the oracle-grade reads; quadrature and
        # dealias margin stay at their defaults
        grid = oracle_grid()
        cfg = CollisionConfig(interpolation=Interpolation.Trig)
        for seed in (18, 19):
            f = smooth_blob(grid, np.random.default_rng(seed))
            q = collision(f, f, cfg)
            m, p, e = moments(q)
            mg, _, eg = moments(gain_term_spectral(f, f, cfg))
            cv = (eg / mg) ** 0.5
            assert abs(m) / mg < 1e-6
            assert np.linalg.norm(p) / (mg * cv) < 5e-2
            assert abs(e) / eg < 5e-2


class TestMoments:
    def test_unit_gaussian_mass(self):
        grid = GridSpec((1, 1, 1), (32, 32, 32), Lx=0.5, Lv=4.0)
        M = maxwellian(grid, rho=1.0, temperature=0.25)
        mass, mom, energy = moments(M)
        assert abs(mass - 1.0) < 1e-10
        # energy of a centered Maxwellian = 3 T rho
        assert abs(energy - 0.75) < 1e-8

    def test_centered_even_field_zero_momentum(self):
        grid = GridSpec((1, 1, 1), (16, 16, 16), Lx=0.5, Lv=4.0)
        V = grid.v_mesh()
        body = np.exp(-(V[0] ** 2 + V[1] ** 2 + V[2] ** 2)).astype(complex)
        # the j=0 planes sit at -Lv with no mirror partner; zero them so
        # the sampled field is genuinely even on the lattice
        body[0, :, :] = 0
        body[:, 0, :] = 0
        body[:, :, 0] = 0
        f = PhaseField(grid, np.broadcast_to(body, grid.shape).copy(),
                       FieldTag.Physical_xv)
        mass, mom, _ = moments(f)
        assert np.max(np.abs(mom)) < 1e-12 * mass

    def test_vsliced_matches_full(self):
        full = oracle_grid()
        f = smooth_blob(full, np.random.default_rng(20))
        grid = GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0,
                        storage=Storage.VSliced)
        fs = VSlicedField(grid,
                          lambda iv: f.data[:, :, :, iv[0], iv[1], iv[2]])
        dense = moments(f)
        streamed = moments(fs)
        assert np.isclose(dense[0], streamed[0], rtol=1e-12)
        assert np.allclose(dense[1], streamed[1], atol=1e-12 * dense[0])
        assert np.isclose(dense[2], streamed[2], rtol=1e-12)

    def test_spatial_density_streams(self):
        full = oracle_grid()
        f = smooth_blob(full, np.random.default_rng(21))
        grid = GridSpec((1, 1, 1), (8, 8, 8), Lx=1.0, Lv=4.0,
                        storage=Storage.VSliced)
        fs = VSlicedField(grid,
                          lambda iv: f.data[:, :, :, iv[0], iv[1], iv[2]])
        assert np.allclose(spatial_density(fs), spatial_density(f),
                           rtol=1e-12)


class TestMaxwellian:
    def test_density_normalization(self):
        grid = GridSpec((1, 1, 1), (32, 32, 32), Lx=1.0, Lv=4.0)
        M = maxwellian(grid, rho=2.0, temperature=0.3, mean=(0.2, 0.0, -0.1))
        rho = spatial_density(M)
        assert np.allclose(rho.real, 2.0, atol=1e-8)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            maxwellian(oracle_grid(), temperature=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"temperature": np.inf}, {"temperature": np.nan},
        {"rho": np.inf}, {"rho": np.nan},
        {"mean": (np.inf, 0.0, 0.0)}, {"mean": (0.0, np.nan, 0.0)}])
    def test_rejects_non_finite_parameters(self, kwargs):
        # an infinite temperature or mean gave an all-zero field, and NaN
        # failed later as "non-finite samples"
        with pytest.raises(ValueError, match="positive finite temperature"):
            maxwellian(oracle_grid(), **kwargs)
