"""Spectral core: transforms, Plancherel, free transport, rescaling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from boltzlab import (
    FieldTag,
    GridSpec,
    PhaseField,
    ScalingTransform,
    Storage,
    Trajectory,
    VSlicedField,
    free_transport,
    gaussian_oracle,
    moments,
    rescale,
    transform,
)
from boltzlab import grids
from boltzlab.grids import (axis_sum, blocks, eta_dot_v, lattice_read,
                            lattice_stencil, on_axes, uniform_pairs,
                            uniform_read)
from boltzlab.norms import mixed_norm, xsb_norm


def small_grid():
    return GridSpec((8, 8, 8), (8, 8, 8), Lx=4.0, Lv=4.0)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return PhaseField(grid, data, FieldTag.Physical_xv)


class TestGridSpec:
    def test_axes_start_at_left_edge(self):
        g = small_grid()
        assert g.x_axis(0)[0] == -4.0
        assert g.v_axis(2)[0] == -4.0
        assert np.allclose(np.diff(g.x_axis(0)), 1.0)

    def test_dual_spacing(self):
        g = small_grid()
        # d_eta = 1/(2 Lx)
        assert np.allclose(g.d_eta, 0.125)
        e = g.eta_axis(0)
        assert e[0] == 0.0 and np.isclose(e[1], 0.125)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            GridSpec((6, 8, 8), (8, 8, 8), 1.0, 1.0)

    @pytest.mark.parametrize("name", ["Lx", "Lv"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0])
    def test_rejects_non_finite_box(self, name, bad):
        kw = {"Lx": 1.0, "Lv": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"half-width {name} must be positive and finite"):
            GridSpec((8, 8, 8), (8, 8, 8), **kw)

    def test_full_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            GridSpec((64, 64, 64), (64, 64, 64), 1.0, 1.0)
        # VSliced storage is exempt
        GridSpec((64, 64, 64), (64, 64, 64), 1.0, 1.0, storage=Storage.VSliced)


class TestAxisSymbols:
    # nx != nv and no two axis lengths equal, so an axis-order slip shows
    GRID = GridSpec((2, 4, 8), (16, 32, 1), Lx=1.5, Lv=3.0)

    def test_abs2_matches_meshgrid(self):
        g = self.GRID
        for axis, shape in ((g.eta_axis, g.nx), (g.xi_axis, g.nv), (g.v_axis, g.nv)):
            mesh = np.meshgrid(*[axis(a) for a in range(3)], indexing="ij")
            got = axis_sum(lambda a: axis(a) ** 2)
            assert got.shape == shape
            np.testing.assert_array_equal(got, mesh[0]**2 + mesh[1]**2 + mesh[2]**2)

    def test_eta_dot_v_matches_meshgrid(self):
        g = self.GRID
        mesh = np.meshgrid(*[g.eta_axis(a) for a in range(3)],
                           *[g.v_axis(a) for a in range(3)], indexing="ij")
        got = eta_dot_v(g)
        assert got.shape == g.shape
        np.testing.assert_array_equal(
            got, mesh[0] * mesh[3] + mesh[1] * mesh[4] + mesh[2] * mesh[5])

    def test_on_axes_broadcasts_one_axis(self):
        g = self.GRID
        v = g.v_axis(1)
        assert on_axes(v, (4,), 6).shape == (1, 1, 1, 1, 32, 1)
        block = np.ones(g.shape) * on_axes(v, (4,), 6)
        np.testing.assert_array_equal(block[1, 3, 7, 15, :, 0], v)


def multilinear(coef, x):
    """sum over e in {0,1}^d of coef[e] * prod_a x_a^e_a at the rows of x."""
    return sum(coef[e] * np.prod(x ** np.array(e), axis=1)
               for e in itertools.product((0, 1), repeat=coef.ndim))


class TestLatticeStencil:
    @pytest.mark.parametrize("shape", [(7,), (5, 4, 6), (3, 4, 5, 3)])
    def test_reads_multilinear_polynomials_exactly(self, shape):
        rng = np.random.default_rng(len(shape))
        d = len(shape)
        lo = rng.uniform(-2.0, 2.0, d)
        step = rng.uniform(0.3, 1.7, d)
        coef = rng.standard_normal((2,) * d)
        axes = [lo[a] + step[a] * np.arange(n) for a, n in enumerate(shape)]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        flat = multilinear(coef, nodes)
        pts = lo + step * rng.uniform(0.0, np.array(shape) - 1.0, (200, d))
        got = lattice_read(np.stack((flat, -2.0 * flat)),
                           lattice_stencil(pts, lo, step, shape))
        want = multilinear(coef, pts)
        assert got.shape == (2, 200)
        np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[1], -2.0 * want, rtol=1e-12, atol=1e-12)

    def test_lattice_points_return_their_samples(self):
        # dyadic origin and spacing: the lattice coordinates are exact
        shape = (4, 3, 5)
        flat = np.random.default_rng(3).standard_normal(60)
        k = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"),
                     axis=-1).reshape(-1, 3)
        idx, w = lattice_stencil(-1.5 + 0.25 * k, -1.5, 0.25, shape)
        assert idx.shape == w.shape == (8, 60)
        np.testing.assert_array_equal(lattice_read(flat, (idx, w)), flat)

    def test_zero_extension_past_the_edges(self):
        samples = np.array([2.0, -1.0, 3.0, 5.0])
        lo, step, t = -1.0, 0.5, 0.25
        pts = np.array([[lo + (3 + t) * step],   # past the last sample
                        [lo - t * step],         # before the first
                        [lo + 4.5 * step],       # more than a cell out
                        [1e300], [-1e300]])      # far off: no overflowing cast
        got = lattice_read(samples, lattice_stencil(pts, lo, step, (4,)))
        np.testing.assert_array_equal(
            got, [(1 - t) * samples[-1], (1 - t) * samples[0], 0.0, 0.0, 0.0])
        far = lattice_stencil(np.array([[1e300, 0.0, 0.0]]), 0.0, 1.0, (2, 2, 2))
        assert lattice_read(np.ones(8), far) == 0.0


class TestBlocks:
    @pytest.mark.parametrize("per_item", [1, 3, 1000, grids._BLOCK,
                                          grids._BLOCK + 1, 10 * grids._BLOCK])
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_cover_the_range_within_the_budget(self, n, per_item):
        sl = list(blocks(n, per_item))
        assert [i for s in sl for i in range(n)[s]] == list(range(n))
        for s in sl:
            size = s.stop - s.start
            assert size >= 1
            # one item per block once a single item exceeds the budget
            assert size * per_item <= grids._BLOCK or size == 1
        if per_item <= grids._BLOCK and n:
            # full blocks: as many items as fit, except the last
            assert all((s.stop - s.start) * per_item > grids._BLOCK - per_item
                       for s in sl[:-1])


class TestUniformRead:
    def test_exact_on_linear_tables(self):
        step = 0.3
        table = 2.0 - 1.5 * step * np.arange(11)
        u = np.random.default_rng(4).uniform(0.0, 10 * step, 500)
        np.testing.assert_allclose(uniform_read(u, table, step), 2.0 - 1.5 * u,
                                   rtol=0, atol=1e-14)

    def test_nodes_return_their_samples(self):
        # dyadic spacing: the node coordinates are exact
        table = np.random.default_rng(5).standard_normal(9)
        np.testing.assert_array_equal(
            uniform_read(0.25 * np.arange(9), table, 0.25), table)

    def test_zero_past_the_last_sample(self):
        table = np.array([1.0, 2.0, 3.0])
        got = uniform_read(np.array([1.0, 1.0 + 1e-12, 1.25, 7.0, 1e300]),
                           table, 0.5)
        np.testing.assert_array_equal(got, [3.0, 0.0, 0.0, 0.0, 0.0])
        assert uniform_read(2.0, table, 0.5) == 0.0

    def test_matches_np_interp_right_zero(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0.0, 1.35, 241)
        table = np.cos(3.0 * grid) * np.exp(-grid)
        u = rng.uniform(0.0, 2.0, (40, 50))
        got = uniform_read(u, table, grid[1])
        assert got.shape == u.shape
        np.testing.assert_allclose(
            got, np.interp(u, grid, table, right=0.0), rtol=0, atol=1e-15)


    def test_pairs_read_like_their_table(self):
        # the (A, B) pair built once reads bit for bit what the table reads
        rng = np.random.default_rng(7)
        table = rng.standard_normal(57)
        u = rng.uniform(0.0, 1.2, (30, 20))
        pairs = uniform_pairs(table)
        assert pairs.shape == (2, 58)
        np.testing.assert_array_equal(uniform_read(u, pairs, 0.02),
                                      uniform_read(u, table, 0.02))


class TestFiniteness:
    """Every PhaseField, computed ones included, goes through the public
    constructor: its checks and its scan of every sample."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_public_constructor_rejects_non_finite(self, bad):
        g = GridSpec((2, 2, 2), (2, 2, 2), Lx=1.0, Lv=1.0)
        for part in ("real", "imag"):
            data = np.ones(g.shape, dtype=complex)
            getattr(data, part)[1, 0, 1, 0, 1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                PhaseField(g, data, FieldTag.Physical_xv)

    def test_overflowing_product_still_raises(self):
        # finite factors whose product overflows, as in the residual's loss
        # products
        g = GridSpec((2, 2, 2), (2, 2, 2), Lx=1.0, Lv=1.0)
        f = PhaseField(g, np.full(g.shape, 1e200, dtype=complex))
        rho = np.full(g.nx + (1, 1, 1), -1e200)
        with np.errstate(over="ignore"):
            data = f.data * rho
        with pytest.raises(ValueError, match="non-finite"):
            PhaseField(g, data, FieldTag.Physical_xv)

    def test_constructor_converts_and_checks_shape(self):
        g = GridSpec((2, 2, 2), (2, 2, 2), Lx=1.0, Lv=1.0)
        f = PhaseField(g, np.ones(g.shape), FieldTag.Spectral_eta_v)
        assert f.data.dtype == np.complex128 and f.tag is FieldTag.Spectral_eta_v
        with pytest.raises(ValueError, match="grid shape"):
            PhaseField(g, np.ones(g.nx), FieldTag.Physical_xv)

    @pytest.mark.parametrize("dtype, tag, want", [
        (np.float64, FieldTag.Physical_xv, np.float64),
        (np.float32, FieldTag.Physical_xv, np.float64),
        (np.int64, FieldTag.Physical_xv, np.float64),
        (np.complex64, FieldTag.Physical_xv, np.complex128),
        (np.complex128, FieldTag.Physical_xv, np.complex128),
        (np.float64, FieldTag.Spectral_x_xi, np.complex128),
        (np.float64, FieldTag.Spectral_eta_xi, np.complex128),
    ])
    def test_storage_dtype_rule(self, dtype, tag, want):
        # a physical field of real data stores float64; complex data and
        # every spectral tag store complex128
        g = GridSpec((2, 2, 2), (2, 2, 2), Lx=1.0, Lv=1.0)
        f = PhaseField(g, np.ones(g.shape, dtype), tag)
        assert f.data.dtype == want and f.data.flags.c_contiguous
        assert np.all(f.data == 1)


class TestDyadic:
    """The one power-of-two test behind grids, rescale, norms and ansatz."""

    @pytest.mark.parametrize("n, ok", [(1, True), (2, True), (64, True),
                                       (4.0, True), (0, False), (-2, False),
                                       (6, False), (2.5, False),
                                       (np.inf, False), (np.nan, False)])
    def test_is_dyadic(self, n, ok):
        assert grids._is_dyadic(n) is ok

    def test_resample_denominator(self):
        assert grids._resample_axis_factor(0.75) == (3, 4)
        assert grids._resample_axis_factor(2.0) == (2, 1)
        with pytest.raises(ValueError, match="scale denominator 3 not a power of two"):
            grids._resample_axis_factor(2.0 / 3.0)


class TestTransforms:
    def test_round_trip_identity(self):
        f = random_field(small_grid())
        g = f.to(FieldTag.Spectral_eta_xi).to(FieldTag.Physical_xv)
        assert np.max(np.abs(g.data - f.data)) < 1e-12

    def test_plancherel_exact(self):
        f = random_field(small_grid(), seed=3)
        for tag in (FieldTag.Spectral_eta_v, FieldTag.Spectral_x_xi,
                    FieldTag.Spectral_eta_xi):
            assert abs(f.to(tag).l2() - f.l2()) < 1e-12 * f.l2()

    def test_constant_hits_dc_mode(self):
        g = small_grid()
        f = PhaseField(g, np.ones(g.shape, dtype=complex), FieldTag.Physical_xv)
        fx = transform(f, "x", "forward")
        # integral of 1 over the x-box = (2 Lx)^3, concentrated at eta=0
        dc = fx.data[0, 0, 0]
        assert np.allclose(dc, (2 * g.Lx) ** 3)
        off = fx.data.copy()
        off[0, 0, 0] = 0
        assert np.max(np.abs(off)) < 1e-9

    @pytest.mark.parametrize("n", [4, 5])
    def test_ft_is_the_sum_from_the_left_edge(self, n):
        # the (-1)^k edge sign follows the signed frequency k, so it also
        # holds at odd lengths
        L, cell = 1.5, 3.0 / n
        x = -L + cell * np.arange(n)
        eta = np.fft.fftfreq(n, d=cell)
        data = np.random.default_rng(n).standard_normal((2, n, 3))
        want = np.einsum("kj,ijb->ikb", np.exp(-2j * np.pi * np.outer(eta, x)), data) * cell
        got = grids._ft(data, (1,), cell)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(grids._ift(got, (1,), cell) - data)) < 1e-14

    def test_redundant_transform_rejected(self):
        f = random_field(small_grid())
        fx = transform(f, "x", "forward")
        with pytest.raises(ValueError, match="redundant transform"):
            transform(fx, "x", "forward")
        with pytest.raises(ValueError, match="redundant transform"):
            transform(f, "v", "inverse")

    def test_gaussian_matches_analytic_transform(self):
        # resolution chosen so aliasing sits below 5e-9 of peak
        g = GridSpec((32, 32, 32), (4, 4, 4), Lx=24.0, Lv=2.5)
        cx = np.array([0.3, -0.2, 0.1])
        cv = np.array([0.2, -0.1, 0.0])
        wx = np.array([3.1, 3.0, 3.05])
        wv = np.array([0.3, 0.28, 0.32])
        f = gaussian_oracle(g, (cx, cv), (wx, wv))
        fx = f.to(FieldTag.Spectral_eta_v)
        pred = np.ones(g.shape, dtype=complex)
        for a in range(3):
            eta = g.eta_axis(a)
            v = g.v_axis(a)
            fe = (wx[a] * np.sqrt(2 * np.pi)
                  * np.exp(-2 * np.pi**2 * wx[a] ** 2 * eta**2)
                  * np.exp(-2j * np.pi * cx[a] * eta))
            fv = np.exp(-0.5 * ((v - cv[a]) / wv[a]) ** 2)
            sh = [1] * 6
            sh[a] = eta.size
            pred = pred * fe.reshape(sh)
            sh = [1] * 6
            sh[3 + a] = v.size
            pred = pred * fv.reshape(sh)
        rel = np.max(np.abs(fx.data - pred)) / np.max(np.abs(pred))
        assert rel < 5e-8

    def test_gaussian_v_transform_reciprocal_width(self):
        # Gaussian in v maps to a Gaussian in xi of reciprocal width
        g = GridSpec((4, 4, 4), (32, 32, 32), Lx=2.0, Lv=6.0)
        wv = np.array([0.8, 0.75, 0.85])
        cv = np.array([0.2, -0.3, 0.0])
        prof = np.ones(g.nv, dtype=complex)
        pred = np.ones(g.nv, dtype=complex)
        for a in range(3):
            v = g.v_axis(a)
            xi = g.xi_axis(a)
            sh = [1, 1, 1]
            sh[a] = v.size
            prof = prof * np.exp(-0.5 * ((v - cv[a]) / wv[a]) ** 2).reshape(sh)
            fe = (wv[a] * np.sqrt(2 * np.pi)
                  * np.exp(-2 * np.pi**2 * wv[a] ** 2 * xi**2)
                  * np.exp(-2j * np.pi * cv[a] * xi))
            pred = pred * fe.reshape(sh)
        data = np.broadcast_to(prof, g.shape).copy()
        f = PhaseField(g, data, FieldTag.Physical_xv)
        ft = transform(f, axes="v", direction="forward")
        assert ft.tag is FieldTag.Spectral_x_xi
        rel = np.max(np.abs(ft.data - pred)) / np.max(np.abs(pred))
        assert rel < 5e-8


class TestTransformBuffers:
    """The transforms scale and transform buffers in place, never the input."""

    def test_inputs_stay_bit_identical(self):
        g = small_grid()
        f = random_field(g, seed=21)
        fields = [f, f.to(FieldTag.Spectral_eta_v), f.to(FieldTag.Spectral_x_xi)]
        kept = [h.data.copy() for h in fields]
        transform(fields[0], "x", "forward")
        transform(fields[0], "v", "forward")
        transform(fields[1], "x", "inverse")
        transform(fields[2], "v", "inverse")
        list(grids.x_derivatives(fields[0].data, g))
        free_transport(fields[1], 0.3)
        for h, want in zip(fields, kept):
            assert np.array_equal(h.data, want)

        times = np.linspace(0.0, 1.0, 16)
        snaps = tuple(random_field(g, seed=k).to(tag) for k, tag in enumerate(
            [FieldTag.Physical_xv, FieldTag.Spectral_eta_v] * 8))
        kept = [h.data.copy() for h in snaps]
        xsb_norm(Trajectory(times, snaps), 0.5, 0.6)
        for h, want in zip(snaps, kept):
            assert np.array_equal(h.data, want)

    @pytest.mark.parametrize("axes, tag", [
        ("x", FieldTag.Physical_xv), ("x", FieldTag.Spectral_eta_v),
        ("v", FieldTag.Physical_xv), ("v", FieldTag.Spectral_x_xi)])
    def test_traced_peak_near_one_field(self, axes, tag):
        # one transform output plus the finiteness scan of the new field
        g = GridSpec((16, 16, 16), (8, 8, 8), Lx=4.0, Lv=4.0)
        f = random_field(g, seed=23).to(tag)
        direction = "forward" if tag is FieldTag.Physical_xv else "inverse"
        tracemalloc.start()
        try:
            transform(f, axes, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * f.data.nbytes


class TestXDerivatives:
    def test_gaussian_gradient(self):
        # a Gaussian well inside the box, times a trailing axis that broadcasts
        g = GridSpec((64, 64, 64), (1, 1, 1), Lx=10.0, Lv=1.0)
        X = g.x_mesh()
        c, w = np.array([0.3, -0.2, 0.1]), np.array([1.0, 1.1, 1.2])
        prof = np.exp(-0.5 * sum(((X[a] - c[a]) / w[a]) ** 2 for a in range(3)))
        tail = np.array([1.0, -2.0])
        for a, d in enumerate(grids.x_derivatives(prof[..., None] * tail, g)):
            want = (-(X[a] - c[a]) / w[a] ** 2 * prof)[..., None] * tail
            assert np.max(np.abs(d - want)) < 1e-10 * np.max(np.abs(want))

    def test_real_field_has_real_gradient(self):
        # with symbol 2 pi i eta at the Nyquist frequency the gradient of a
        # rough real field would carry an imaginary part of its own size
        g = small_grid()
        data = np.random.default_rng(5).standard_normal(g.nx + (3,))
        for d in grids.x_derivatives(data, g):
            assert np.max(np.abs(d.imag)) <= 1e-14 * np.max(np.abs(d.real))

    def test_traced_peak_three_times_the_input(self):
        # the spectrum, the output the caller holds and one signed copy that
        # carries the symbol: no separate spectrum-times-symbol temporary
        g = GridSpec((16, 16, 16), (4, 4, 4), Lx=4.0, Lv=4.0)
        data = random_field(g, seed=24).data
        tracemalloc.start()
        try:
            held = None
            for d in grids.x_derivatives(data, g):
                held = d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held.shape == data.shape
        assert peak <= 3.5 * data.nbytes


class TestFreeTransport:
    def test_matches_oracle_to_1e8(self):
        g = GridSpec((32, 32, 32), (4, 4, 4), Lx=24.0, Lv=2.5)
        cx = np.array([0.3, -0.2, 0.1])
        cv = np.array([0.2, -0.1, 0.0])
        wx = np.array([3.1, 3.0, 3.05])
        wv = np.array([0.3, 0.28, 0.32])
        f0 = gaussian_oracle(g, (cx, cv), (wx, wv))
        for t in (0.25, 0.6, 1.0):
            ft = free_transport(f0, t)
            fo = gaussian_oracle(g, (cx, cv), (wx, wv), t=t)
            rel = np.max(np.abs(ft.data - fo.data)) / np.max(np.abs(fo.data))
            assert rel < 1e-8, f"t={t}: rel={rel}"

    def test_ten_random_gaussians_match_oracle(self):
        # draw bounds keep every 6.8-sigma reach inside the box at t=0.7
        g = GridSpec((32, 32, 32), (4, 4, 4), Lx=24.0, Lv=2.5)
        rng = np.random.default_rng(17)
        t = 0.7
        for _ in range(10):
            cx = rng.uniform(-0.3, 0.3, size=3)
            cv = rng.uniform(-0.1, 0.1, size=3)
            wx = rng.uniform(2.9, 3.2, size=3)
            wv = rng.uniform(0.26, 0.33, size=3)
            f0 = gaussian_oracle(g, (cx, cv), (wx, wv))
            ft = free_transport(f0, t)
            fo = gaussian_oracle(g, (cx, cv), (wx, wv), t=t)
            rel = (ft - fo).l2() / fo.l2()
            assert rel < 1e-8, rel

    def test_group_law(self):
        f = random_field(small_grid(), seed=7)
        a = free_transport(free_transport(f, 0.3), 0.45)
        b = free_transport(f, 0.75)
        assert np.max(np.abs(a.data - b.data)) < 1e-10 * np.max(np.abs(f.data))

    def test_inverse(self):
        f = random_field(small_grid(), seed=9)
        g = free_transport(free_transport(f, 0.4), -0.4)
        assert np.max(np.abs(g.data - f.data)) < 1e-12

    def test_unitary_per_v_slice(self):
        f = random_field(small_grid(), seed=11)
        ft = free_transport(f, 0.7)
        n0 = np.sum(np.abs(f.data) ** 2, axis=(0, 1, 2))
        n1 = np.sum(np.abs(ft.data) ** 2, axis=(0, 1, 2))
        assert np.max(np.abs(n0 - n1)) < 1e-10 * np.max(n0)

    def test_spectral_tag_round_trip(self):
        f = random_field(small_grid(), seed=13)
        spec = f.to(FieldTag.Spectral_eta_v)
        out = free_transport(spec, 0.2)
        assert out.tag is FieldTag.Spectral_eta_v
        back = free_transport(f, 0.2).to(FieldTag.Spectral_eta_v)
        assert np.max(np.abs(out.data - back.data)) < 1e-12

    def test_constant_is_fixed_point(self):
        g = small_grid()
        c = PhaseField(g, np.full(g.shape, 0.7 + 0.1j), FieldTag.Physical_xv)
        ct = free_transport(c, 0.9)
        assert np.max(np.abs(ct.data - c.data)) < 1e-14

    def test_wide_gaussian_approaches_constant(self):
        # with the v-profile held fixed, the relative change under transport
        # scales like (typical velocity) * t / x-width, halving per doubling;
        # each width gets its own box so the 6.8-sigma reach stays inside
        # while dx/w stays constant
        t = 0.5
        changes = []
        for w in (4.0, 8.0, 16.0):
            g = GridSpec((16, 16, 16), (8, 8, 8), Lx=7.2 * w + 3.5, Lv=7.0)
            f0 = gaussian_oracle(g, (np.zeros(3), np.zeros(3)),
                                 (w * np.ones(3), np.ones(3)))
            ft = free_transport(f0, t)
            changes.append((ft - f0).l2() / f0.l2())
        assert changes[0] > changes[1] > changes[2]
        assert changes[2] <= 0.3 * changes[0]


class TestGaussianOracle:
    def test_box_too_small_raises(self):
        g = small_grid()
        with pytest.raises(ValueError, match="box too small"):
            gaussian_oracle(g, ([0, 0, 0], [0, 0, 0]), ([1.0, 1.0, 1.0], [0.3, 0.3, 0.3]))

    def test_transport_displacement_counted(self):
        g = GridSpec((16, 16, 16), (8, 8, 8), Lx=6.0, Lv=4.0)
        c = ([0, 0, 0], [0, 0, 0])
        w = ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        gaussian_oracle(g, c, w, t=0.0)  # fits at rest
        with pytest.raises(ValueError, match="box too small"):
            gaussian_oracle(g, c, w, t=1.0)  # tail-bearing velocities escape

    def test_mass_conserved_under_transport(self):
        g = GridSpec((32, 32, 32), (2, 2, 2), Lx=8.0, Lv=0.25)
        w = (1.13 * np.ones(3), 0.03 * np.ones(3))
        c = (np.zeros(3), np.zeros(3))
        cell = g.cell_x * g.cell_v
        m0 = np.sum(gaussian_oracle(g, c, w, t=0.0).data) * cell
        m1 = np.sum(gaussian_oracle(g, c, w, t=1.0).data) * cell
        assert abs(m1 - m0) / abs(m0) < 1e-10


class TestRescale:
    def setup_method(self):
        # widths small enough that the Gaussian value at the box edge (the
        # part a 2x shrink cannot represent) sits below 1e-15 of peak
        self.gx = GridSpec((32, 32, 32), (4, 4, 4), Lx=6.0, Lv=6.0)
        self.wx = np.array([0.70, 0.72, 0.70])
        self.wv = np.array([0.70, 0.70, 0.72])
        self.f = gaussian_oracle(self.gx, (np.zeros(3), np.zeros(3)),
                                 (self.wx, self.wv))

    def test_x_shrink_pointwise_exact(self):
        s = ScalingTransform(2.0, 1.0, 0.0)
        fl = rescale(self.f, s)
        # f(2x, v) * 2: exact samples of the analytic formula
        expect = np.ones(self.gx.shape, dtype=complex) * 2.0
        for a in range(3):
            x = self.gx.x_axis(a)
            v = self.gx.v_axis(a)
            sh = [1] * 6
            sh[a] = x.size
            expect = expect * np.exp(-0.5 * (2 * x / self.wx[a]) ** 2).reshape(sh)
            sh = [1] * 6
            sh[3 + a] = v.size
            expect = expect * np.exp(-0.5 * (v / self.wv[a]) ** 2).reshape(sh)
        assert np.max(np.abs(fl.data - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_mass_scaling_x(self):
        s = ScalingTransform(2.0, 1.0, 0.0)
        fl = rescale(self.f, s)
        m0 = np.sum(self.f.data).real
        m1 = np.sum(fl.data).real
        # mass scales by lam^(-2 alpha - beta) = 1/4
        assert abs(m1 / (m0 * 2.0 ** (-2.0)) - 1) < 1e-2

    def test_mass_scaling_v(self):
        # v-resolved grid: the shrunk Gaussian still needs w/dv ~ 1 for its
        # sampled mass to track the integral; the x factors cancel in the ratio
        g = GridSpec((4, 4, 4), (32, 32, 32), Lx=6.0, Lv=6.0)
        f = gaussian_oracle(g, (np.zeros(3), np.zeros(3)),
                            ([0.6, 0.6, 0.6], [0.8, 0.82, 0.8]))
        fl = rescale(f, ScalingTransform(2.0, 0.0, 1.0))
        m0 = np.sum(f.data).real
        m1 = np.sum(fl.data).real
        assert abs(m1 / (m0 * 2.0 ** (-1.0)) - 1) < 1e-2

    def test_refinement_path_expands(self):
        # lam^alpha = 1/2: trigonometric refinement + stride.  The width must
        # simultaneously keep the doubled support inside the box (w <= 0.44
        # at L=6) and stay resolved (needs nx=64).
        g = GridSpec((64, 64, 64), (2, 2, 2), Lx=6.0, Lv=6.0)
        wx = np.array([0.40, 0.40, 0.40])
        wv = np.array([0.70, 0.70, 0.70])
        f = gaussian_oracle(g, (np.zeros(3), np.zeros(3)), (wx, wv))
        fl = rescale(f, ScalingTransform(2.0, -1.0, 0.0))
        expect = np.ones(g.shape, dtype=complex) * 0.5
        for a in range(3):
            x = g.x_axis(a)
            v = g.v_axis(a)
            sh = [1] * 6
            sh[a] = x.size
            expect = expect * np.exp(-0.5 * (0.5 * x / wx[a]) ** 2).reshape(sh)
            sh = [1] * 6
            sh[3 + a] = v.size
            expect = expect * np.exp(-0.5 * (v / wv[a]) ** 2).reshape(sh)
        rel = np.max(np.abs(fl.data - expect)) / np.max(np.abs(expect))
        assert rel < 1e-5

    def test_integer_stretch_keeps_real_data(self):
        # a stride-only rescale of a float64 field is float64 and equals the
        # real part of the same rescale of its complex copy bit for bit; a
        # refined axis has a nonzero imaginary part and stays complex
        s = ScalingTransform(2.0, 1.0, 0.0)
        fl = rescale(self.f, s)
        assert self.f.data.dtype == fl.data.dtype == np.float64
        cplx = PhaseField(self.gx, self.f.data.astype(np.complex128))
        assert np.array_equal(fl.data, rescale(cplx, s).data.real)
        g = GridSpec((16, 16, 16), (2, 2, 2), Lx=6.0, Lv=6.0)
        f = gaussian_oracle(g, (np.zeros(3), np.zeros(3)), ([0.4] * 3, [0.7] * 3))
        refined = rescale(f, ScalingTransform(2.0, -1.0, 0.0)).data
        assert refined.dtype == np.complex128 and np.any(refined.imag != 0)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, 0.0, -2.0])
    def test_rejects_lambda_not_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            ScalingTransform(lam, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["alpha", "beta_exp"])
    def test_rejects_non_finite_exponent(self, field, value):
        args = {"lam": 2.0, "alpha": 1.0, "beta_exp": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScalingTransform(**args)

    def test_support_escape_raises(self):
        g = GridSpec((16, 16, 16), (8, 8, 8), Lx=6.0, Lv=6.0)
        wide = gaussian_oracle(g, (np.zeros(3), np.zeros(3)),
                               ([0.8, 0.8, 0.8], [0.8, 0.8, 0.8]))
        with pytest.raises(ValueError, match="support escapes"):
            rescale(wide, ScalingTransform(4.0, -1.0, 0.0))

    def test_requires_physical_tag(self):
        spec = self.f.to(FieldTag.Spectral_eta_v)
        with pytest.raises(ValueError, match="physical"):
            rescale(spec, ScalingTransform(2.0, 1.0, 0.0))


class TestVSliced:
    def test_matches_materialized(self):
        g = GridSpec((8, 8, 8), (4, 4, 4), Lx=4.0, Lv=2.0,
                     storage=Storage.VSliced)
        rng = np.random.default_rng(5)
        ref = rng.standard_normal((8, 8, 8, 4, 4, 4)) * 1.0

        fld = VSlicedField(g, lambda iv: ref[:, :, :, iv[0], iv[1], iv[2]])
        full = fld.materialize()
        assert np.max(np.abs(full.data - ref)) == 0.0

    def test_slices_follow_the_dtype_rule(self):
        g = GridSpec((2, 2, 2), (2, 2, 2), Lx=1.0, Lv=1.0,
                     storage=Storage.VSliced)
        real = VSlicedField(g, lambda iv: np.ones(g.nx, np.int64))
        assert real.v_slice((0, 0, 0)).dtype == np.float64
        assert real.materialize().data.dtype == np.float64
        # the last slice in file order is complex: the whole field becomes
        # complex, the real slices before it kept
        mixed = VSlicedField(
            g, lambda iv: np.full(g.nx, 1j if iv == (1, 1, 1) else 2.0))
        full = mixed.materialize().data
        assert full.dtype == np.complex128
        assert full[0, 0, 0, 1, 1, 1] == 1j and full[0, 0, 0, 0, 1, 1] == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_slice_raises_in_every_consumer(self, bad):
        # a streamed field gets the scan of the public constructor
        g = GridSpec((2, 2, 2), (2, 2, 2), Lx=1.0, Lv=1.0,
                     storage=Storage.VSliced)

        def slice_fn(iv):
            out = np.ones(g.nx)
            if iv == (1, 0, 1):
                out[0, 1, 0] = bad
            return out

        fld = VSlicedField(g, slice_fn)
        for read in (lambda: mixed_norm(fld, "Lv2_Lx2"), lambda: moments(fld),
                     fld.materialize):
            with pytest.raises(ValueError, match="non-finite"):
                read()


class TestVBlocks:
    def setup_method(self):
        self.g = GridSpec((4, 4, 4), (2, 4, 2), Lx=4.0, Lv=2.0,
                          storage=Storage.VSliced)
        rng = np.random.default_rng(11)
        shape = self.g.nx + self.g.nv
        self.ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.calls = []

        def slice_fn(iv):
            self.calls.append(iv)
            return self.ref[:, :, :, iv[0], iv[1], iv[2]]

        self.fld = VSlicedField(self.g, slice_fn)

    def test_vsliced_blocks_cover_v_once_in_f_order(self):
        seen = []
        for iv, block in self.fld.v_blocks():
            assert block.shape == self.g.nx + (1, 1, 1)
            assert all(s.stop - s.start == 1 for s in iv)
            seen.append(tuple(s.start for s in iv))
            assert np.array_equal(block, self.ref[(slice(None),) * 3 + iv])
        n1, n2, n3 = self.g.nv
        f_order = [(i, j, k) for k in range(n3) for j in range(n2) for i in range(n1)]
        assert seen == f_order
        assert self.calls == f_order

    def test_x_spectral_blocks_match_transform(self):
        spec = transform(self.fld.materialize(), "x", "forward")
        blocks_seen = 0
        for iv, block in self.fld.v_blocks(FieldTag.Spectral_eta_v):
            want = spec.data[(slice(None),) * 3 + iv]
            assert np.max(np.abs(block - want)) <= 1e-14 * np.max(np.abs(want))
            blocks_seen += 1
        assert blocks_seen == int(np.prod(self.g.nv))

    def test_phase_field_yields_one_block(self):
        f = random_field(small_grid(), seed=4)
        out = list(f.v_blocks(FieldTag.Spectral_eta_v))
        assert len(out) == 1
        iv, block = out[0]
        assert iv == (slice(None),) * 3
        assert np.array_equal(block, f.to(FieldTag.Spectral_eta_v).data)

    @pytest.mark.parametrize("tag", [FieldTag.Spectral_x_xi, FieldTag.Spectral_eta_xi])
    def test_vsliced_rejects_v_spectral_tag(self, tag):
        with pytest.raises(ValueError, match="physical in v"):
            next(self.fld.v_blocks(tag))
