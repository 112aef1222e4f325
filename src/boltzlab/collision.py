"""Constant-kernel Boltzmann collision operators.

The loss term is exact: Q-(f,g) = 4*pi * f(x,v) * rho_g(x).  The gain term
is computed in the spectral representation

    Qhat+(xi) = integral_{S^2} fv(xi - (xi.w) w) gv((xi.w) w) dw,

(fv, gv the continuum v-spectra) by sphere quadrature over deflection
directions w, with the off-grid evaluation points read either trilinearly
on the lattice k/(4Lv) of the 2x zero-padded box (default) or by exact
trigonometric sums (oracle runs).  f and g are real, so a read at a point
with k3 < 0 is the conjugate of the read at its mirror, and only the half
lattice k3 <= n3/2 of Qhat+ is formed.  Both interpolations form the
product only on the live rows of every node, where both points lie in the
dealias ball (`_live_reads`); one 0/1 CSR gather adds them into the
smallest output box that holds them, and three GEMMs invert it.  The
trilinear reads of both sides are one cached real CSR operator
(`_gain_operators`) on the spectra over the half box [-K, K]^2 x [0, K]
that holds the ball (`_box_spectrum`).  x rows and trigonometric read
points run in `grids.blocks`.  A direct physical-space quadrature (f and g
read at the outgoing pair of every collision partner on the lattice)
cross-checks small v-grids.  Both trilinear paths read through the one
zero-extended stencil `grids.lattice_stencil`.  Input supports are confined
to the ball of radius (1 - dealias_margin) * Nyquist so that no evaluation
wraps around.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import sparse

from .grids import (
    FieldTag,
    GridSpec,
    PhaseField,
    Storage,
    VSlicedField,
    _ft,
    axis_sum,
    blocks,
    lattice_read,
    lattice_stencil,
    on_axes,
)

FOUR_PI = 4.0 * math.pi

DIRECT_CAP = 8  # v-points per axis of the direct gain; 16 needs over 4 GB of stencils


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------

def fibonacci_sphere(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-uniform unit-sphere nodes on the Fibonacci lattice with equal
    weights 4*pi/n.  Deterministic, so runs are reproducible."""
    if n < 1:
        raise ValueError("need at least one quadrature node")
    i = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    golden = (1.0 + 5.0**0.5) / 2.0
    phi = 2.0 * np.pi * i / golden
    st = np.sin(theta)
    nodes = np.column_stack((st * np.cos(phi), st * np.sin(phi), z))
    # renormalize rows: arccos/sin round-trip leaves ~1e-16 defects
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = np.full(n, FOUR_PI / n)
    return nodes, weights


@dataclass(frozen=True)
class SphereQuadrature:
    """Unit-sphere nodes and positive weights summing to 4*pi."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or weights.shape != (nodes.shape[0],):
            raise ValueError("nodes must be (n,3) with matching weights")
        # negated checks, so NaN entries fail them too
        if not np.all(np.abs(np.linalg.norm(nodes, axis=1) - 1.0) <= 1e-12):
            raise ValueError("quadrature nodes must be unit vectors")
        if not np.all((weights > 0) & (weights < math.inf)):
            raise ValueError("quadrature weights must be positive and finite")
        total = float(np.sum(weights))
        if abs(total - FOUR_PI) > 1e-6 * FOUR_PI:
            raise ValueError(f"weights sum to {total}, expected 4*pi")

    @classmethod
    def fibonacci(cls, n: int = 64) -> "SphereQuadrature":
        nodes, weights = fibonacci_sphere(n)
        return cls(nodes, weights)

    @classmethod
    def octahedral(cls) -> "SphereQuadrature":
        """The six axis directions with equal weights: the smallest fully
        symmetric rule (exact for degree <= 3).  Collision geometry over
        these nodes maps the velocity lattice onto itself, so the direct
        gain evaluates f, g at exact lattice points and the collision
        invariants hold to machine precision."""
        nodes = np.concatenate([np.eye(3), -np.eye(3)])
        return cls(nodes, np.full(6, FOUR_PI / 6.0))

    @classmethod
    def random(cls, n: int, seed: int) -> "SphereQuadrature":
        """Seeded uniform random directions: a Monte-Carlo rule whose
        moment defects shrink like n^{-1/2} (useful for refinement-law
        checks; the Fibonacci rule converges faster but irregularly)."""
        if n < 1:
            raise ValueError("need at least one quadrature node")
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal((n, 3))
        vec /= np.linalg.norm(vec, axis=1)[:, None]
        return cls(vec, np.full(n, FOUR_PI / n))

    def __len__(self) -> int:
        return self.nodes.shape[0]


class Interpolation(enum.Enum):
    Trilinear = 0
    Trig = 1


@dataclass(frozen=True)
class CollisionConfig:
    """Knobs for the collision operators.

    interpolation selects how off-lattice points are read: Trilinear
    (grids.lattice_stencil reads, zero-extended, of the padded spectral
    lattice for the spectral gain and of the physical v-lattice for the
    direct one) or Trig (exact trigonometric sums, oracle-grade).  The
    Trilinear gain misses energy and momentum at 16-256 nodes: for two
    displaced Maxwellians (1 x 16^3, Lv = 6) E(Q)/E(Q+) is 0.22-0.25 and
    |momentum of Q| / mass of Q+ 2.0-3.4e-2, against |E(Q)/E(Q+)| 5e-4 to
    1.1e-3 and 3-8e-3 with Trig reads (64 nodes).  dealias_margin m is the
    fraction of the spectral radius zeroed before the gain quadrature;
    reads outside that ball weigh zero, so any m > 0 keeps them off the
    padded Nyquist cell.  For m >= 1 - 1/sqrt(2) (about 0.293; the default
    1/3) one of xi+- leaves the ball wherever |xi| >= Nyquist, so the gain
    spectrum vanishes on the output Nyquist planes and the half-lattice
    inverse equals the real part of the full one to rounding.  Below that
    those planes are read once, at -Nyquist: for smooth blobs on 8^3
    v-grids the output moves by 0.8-2.5e-4 (m = 0) and 3-9e-6 (m = 0.25)
    of its maximum.  DIRECT_CAP guards the oracle's cost.
    """

    quadrature: SphereQuadrature = dataclass_field(
        default_factory=SphereQuadrature.fibonacci)
    interpolation: Interpolation = Interpolation.Trilinear
    dealias_margin: float = 1.0 / 3.0

    def __post_init__(self):
        if not 0.0 <= self.dealias_margin <= 0.5:
            raise ValueError("dealias_margin must lie in [0, 1/2]")


# ---------------------------------------------------------------------------
# pointwise collision geometry
# ---------------------------------------------------------------------------

def post_collision(u, v, omega) -> tuple[np.ndarray, np.ndarray]:
    """Outgoing pair u* = u + [w.(v-u)]w, v* = v - [w.(v-u)]w.

    Conserves momentum and energy identically.  Accepts broadcastable
    (..., 3) arrays; omega must have unit rows."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    omega = np.asarray(omega, dtype=float)
    norms = np.sqrt(np.sum(omega**2, axis=-1))
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError("omega must be a unit vector")
    k = np.sum(omega * (v - u), axis=-1)[..., None]
    return u + k * omega, v - k * omega


# ---------------------------------------------------------------------------
# loss term
# ---------------------------------------------------------------------------

def spatial_density(g) -> np.ndarray:
    """rho_g(x) = sum_v g(x,v) * v-cell, shape grid.nx.  Streams VSliced."""
    if g.tag is not FieldTag.Physical_xv:
        raise ValueError("spatial_density expects the physical representation")
    return sum(np.sum(b, axis=(3, 4, 5)) for _, b in g.v_blocks()) * g.grid.cell_v


def loss_term(f, g):
    """Q-(f,g) = 4*pi f(x,v) rho_g(x).  Exact; streams when f is VSliced."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if f.tag is not FieldTag.Physical_xv or g.tag is not FieldTag.Physical_xv:
        raise ValueError("loss_term expects physical representations")
    rho = spatial_density(g)
    if isinstance(f, VSlicedField):
        def slice_fn(iv, _f=f, _rho=rho):
            return FOUR_PI * _f.v_slice(iv) * _rho

        return VSlicedField(f.grid, slice_fn)
    return PhaseField(f.grid, FOUR_PI * f.data * on_axes(rho, (0, 1, 2), 6),
                      FieldTag.Physical_xv)


# ---------------------------------------------------------------------------
# spectral gain term
# ---------------------------------------------------------------------------

def _dealias_radius(grid: GridSpec, margin: float) -> float:
    nyq = min(grid.nv[a] / (4.0 * grid.Lv) for a in range(3))
    return (1.0 - margin) * nyq


def _box_spectrum(chunk: np.ndarray, factors) -> np.ndarray:
    """Continuum spectra sum_v f(v) exp(-2 pi i xi.v) of the (c, nv) real
    chunk at xi = k/(4Lv), k in the half box [-K, K]^2 x [0, K]: three GEMMs
    with the phase factors of `_gain_operators`, the last axis contracted
    first through a float64 view of its factor.  The float64 view (P, 2c) of
    the (P, c) complex result, box points in C order, is what the operators
    read; the cell volume is left to them."""
    e0, e1, e2 = factors
    c, n1, n2, n3 = chunk.shape
    k1, k2 = e1.shape[0], e2.shape[0]
    t = chunk.reshape(-1, n3) @ np.ascontiguousarray(e2.T).view(np.float64)
    t = t.view(np.complex128).reshape(c, n1, n2, k2).transpose(2, 0, 1, 3)
    t = (e1 @ t.reshape(n2, -1)).reshape(k1, c, n1, k2).transpose(2, 0, 3, 1)
    return (e0 @ t.reshape(n1, -1)).reshape(-1, c).view(np.float64)


def _live_reads(grid: GridSpec, quad: SphereQuadrature, radius: float):
    """(w, points, flip, conj, gather, inverse) of the live rows xi of the
    half lattice k3 <= n3/2 (FFT order) whose reads xi+ = xi - (xi.w)w and
    xi- = (xi.w)w at a node w both lie in the dealias ball; w returns each
    row's node weight.  points holds the reads, xi+ then xi-; flip marks
    those p with p3 < 0, read at -p.  The rows run in four groups by (xi+,
    xi- flipped): (no, no), (no, yes), (yes, yes), (yes, no), node after
    node; conj holds each side's flipped slice.  The 0/1 CSR gather adds
    the rows, group after group, into their xi on the box of the positions
    they take per axis; inverse holds its factors exp(2 pi i v xi), the
    last as real and minus imaginary rows times cell_xi and the irfft
    weights (1 on the DC and Nyquist rows, else 2)."""
    n3 = grid.nv[2]
    axes = [grid.xi_axis(0), grid.xi_axis(1), grid.xi_axis(2)[:n3 // 2 + 1]]
    half = (grid.nv[0], grid.nv[1], n3 // 2 + 1)
    xi = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    reads = []
    for omega in quad.nodes:
        xim = omega[:, None] * (xi @ omega)  # (3, rows) columns
        xip = xi.T - xim
        live = ((np.sum(xip**2, axis=0) <= radius**2)
                & (np.sum(xim**2, axis=0) <= radius**2))
        reads.append((np.flatnonzero(live), xip[:, live], xim[:, live]))
    rows, xip, xim = (np.concatenate(r, axis=-1) for r in zip(*reads))
    flip = xip[2] < 0, xim[2] < 0
    group = (flip[0] ^ flip[1]).view(np.int8) + 2 * flip[0].view(np.int8)  # 0-3 as above
    order = np.argsort(group, kind="stable")
    b1, b2, b3 = np.searchsorted(group[order], [1, 2, 3])
    both = np.concatenate((order, order + rows.size))
    points = np.concatenate((xip, xim), axis=1)[:, both].T
    at = np.unravel_index(rows[order], half)
    used = [np.flatnonzero(np.bincount(i, minlength=n)) for i, n in zip(at, half)]
    box = tuple(u.size for u in used)
    gather = sparse.csr_array((np.ones(rows.size), (np.ravel_multi_index(
        [np.searchsorted(u, i) for u, i in zip(used, at)], box), np.arange(rows.size))),
        shape=(math.prod(box), rows.size))
    e = [np.exp(2j * np.pi * np.outer(grid.v_axis(a), axes[a][u])) for a, u in enumerate(used)]
    e[2] *= np.where((used[2] == 0) | (2 * used[2] == n3), 1.0, 2.0) * grid.cell_xi
    e[2] = np.stack((e[2].real.T, -e[2].imag.T), axis=1).reshape(-1, n3)
    w = np.repeat(quad.weights, [r[0].size for r in reads])[order]
    return (w, points, np.concatenate(flip)[both], (slice(b2, rows.size), slice(b1, b3)),
            gather, tuple(e))


@functools.lru_cache(maxsize=4)
def _gain_operators(grid: GridSpec, nodes: bytes, weights: bytes,
                    radius: float) -> tuple:
    """(factors, R, conj, gather, inverse), read-only: the factors of
    `_box_spectrum`; the real CSR R whose product with the float64 view of
    a box spectrum reads it at the points of `_live_reads`, rows S+ then
    S-; and conj, gather and inverse of `_live_reads`.  The stencils run on
    k/(4Lv), k in [-n, n), weigh only corners in the ball (|k_a| <= K), and
    read column (k1 + K, k2 + K, k3) of the half box, or that of -k where
    the point is flipped.  S+ folds in the node weights and cell_v**2.  A
    time loop pays the build once per (grid, nodes, weights, radius); the
    four latest sets stay cached."""
    quad = SphereQuadrature(np.frombuffer(nodes).reshape(-1, 3),
                            np.frombuffer(weights))
    nv = grid.nv
    pshape = tuple(2 * n for n in nv)
    step = 1.0 / (4.0 * grid.Lv)
    k = np.indices(pshape).reshape(3, -1) - np.array(nv)[:, None]
    ball = np.sum((k * step) ** 2, axis=0) <= radius**2
    K = int(np.max(np.abs(k[:, ball])))
    shape = (2 * K + 1, 2 * K + 1, K + 1)
    # the columns of k, then of -k; a clipped one is off the ball or at k3 < 0
    column = np.concatenate([np.ravel_multi_index(s * k + np.array([[K], [K], [0]]),
                                                  shape, mode="clip") for s in (1, -1)])
    box = np.arange(-K, K + 1) * step
    factors = tuple(np.exp(-2j * np.pi * np.outer(b, grid.v_axis(a)))
                    for a, b in enumerate((box, box, box[K:])))
    w, points, flip, conj, gather, inverse = _live_reads(grid, quad, radius)
    scale = np.concatenate((w * grid.cell_v**2, np.ones(w.size)))
    # row i holds point i's non-zero corner weights in stencil order
    idx, wts = np.empty((len(points), 8), np.int32), np.empty((len(points), 8))
    for sl in blocks(len(points), 8 * 8):
        i, wq = lattice_stencil(points[sl], -np.array(nv) * step, step, pshape)
        idx[sl] = column[i + k.shape[1] * flip[sl]].T
        wts[sl] = (wq * ball[i] * scale[sl]).T
    R = sparse.csr_array((wts.ravel(), idx.ravel(),
                          np.arange(0, wts.size + 1, 8, dtype=np.int32)),
                         shape=(len(points), math.prod(shape)))
    R.eliminate_zeros()
    for arr in (*factors, *inverse, *(a for op in (R, gather)
                                      for a in (op.data, op.indices, op.indptr))):
        arr.flags.writeable = False
    return factors, R, conj, gather, inverse


def _trig_read(data: np.ndarray, axes: list[np.ndarray], points: np.ndarray,
               sign: float, cell: float) -> np.ndarray:
    """cell * sum_k data[..., k1,k2,k3] exp(sign 2 pi i p.(a1[k1],a2[k2],a3[k3]))
    at the (npts, 3) points p: (c, npts) for (c, n1, n2, n3) data.  The
    exponential is factored over the product lattice (three small phase
    matrices per block instead of one huge one); points run in
    `grids.blocks`, each one complex (c, n1, n2) slab."""
    c, n1, n2, n3 = data.shape
    sums = np.empty((c, points.shape[0]), dtype=np.complex128)
    flat12 = data.reshape(c * n1 * n2, n3)
    phase = sign * 2j * np.pi
    for sl in blocks(points.shape[0], 2 * c * n1 * n2):
        E1, E2, E3 = (np.exp(phase * np.outer(points[sl, a], axes[a]))
                      for a in range(3))
        T1 = (flat12 @ E3.T).reshape(c, n1, n2, sl.stop - sl.start)
        T2 = np.einsum("xijb,bj->xib", T1, E2)
        sums[:, sl] = np.einsum("xib,bi->xb", T2, E1)
    sums *= cell
    return sums


def _require_full_physical(f, name: str) -> None:
    if isinstance(f, VSlicedField) or f.grid.storage is not Storage.Full:
        raise ValueError(f"{name} requires full field storage")
    if f.tag is not FieldTag.Physical_xv:
        raise ValueError(f"{name} expects the physical representation")


def gain_term_spectral(f: PhaseField, g: PhaseField,
                       cfg: CollisionConfig) -> PhaseField:
    """Q+(f,g) of real f and g via the spectral sphere-quadrature form: the
    half spectrum k3 <= n3/2 on the output box of the live rows, inverted by
    three GEMMs into a float64 field.  Raises ValueError if f or g is
    complex with a nonzero imaginary part."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    same = g is f or g.data is f.data
    for h in (f,) if same else (f, g):
        _require_full_physical(h, "gain")
        if np.iscomplexobj(h.data) and np.count_nonzero(h.data.imag):
            raise ValueError("the spectral gain takes real fields only")
    grid = f.grid
    quad = cfg.quadrature
    radius = _dealias_radius(grid, cfg.dealias_margin)
    nxtot, nvtot = math.prod(grid.nx), math.prod(grid.nv)
    trilinear = cfg.interpolation is Interpolation.Trilinear
    if trilinear:
        factors, R, conj, gather, (e0, e1, e2) = _gain_operators(
            grid, quad.nodes.tobytes(), quad.weights.tobytes(), radius)
    else:  # exact samples cell * sum_v f(v) exp(-2 pi i xi.v) at the reads
        vaxes = [grid.v_axis(a) for a in range(3)]
        w, points, flip, conj, gather, (e0, e1, e2) = _live_reads(grid, quad, radius)
        points = np.where(flip[:, None], -points, points)
    live = gather.shape[1]
    fd, gd = (h.data.real.reshape((nxtot,) + grid.nv) for h in (f, g))
    out = np.empty((nxtot, nvtot))

    # per x row, float64: box spectrum and reads of f (and of g), gather box, output
    reads = (2 * R.shape[1] + 4 * live) * (1 if same else 2) if trilinear else 4 * live
    for sl in blocks(nxtot, reads + 2 * gather.shape[0] + nvtot):
        rows = sl.stop - sl.start
        if trilinear:
            # one real read of the float64 view of the box spectra, f's
            # beside g's when g is not f: S+ reads f, S- reads g
            F = _box_spectrum(fd[sl], factors)
            if not same:
                F = np.hstack((F, _box_spectrum(gd[sl], factors)))
            a = (R @ F).view(np.complex128)
            a, b = a[:live, :rows], a[live:, -rows:]
        else:
            a = (w * _trig_read(fd[sl], vaxes, points[:live], -1.0, grid.cell_v)).T
            b = _trig_read(gd[sl], vaxes, points[live:], -1.0, grid.cell_v).T
        for side, at in zip((a, b), conj):  # conj(read at -p) = read at p
            np.conjugate(side[at], out=side[at])
        a *= b
        # the live rows into their xi on the output box, then its inverse:
        # two complex GEMMs and a real one on the float64 view
        acc = (gather @ np.ascontiguousarray(a).view(np.float64)).view(np.complex128)
        t = (e0 @ acc.reshape(e0.shape[1], -1)).reshape(e0.shape[0], e1.shape[1], -1)
        t = (e1 @ t).reshape(e0.shape[0], e1.shape[0], -1, rows).transpose(3, 0, 1, 2)
        np.matmul(np.ascontiguousarray(t).view(np.float64).reshape(-1, e2.shape[0]), e2,
                  out=out[sl].reshape(-1, e2.shape[1]))
        del a, b, side  # free this block's reads before the next block reads

    return PhaseField(grid, out.reshape(grid.shape), FieldTag.Physical_xv)


# ---------------------------------------------------------------------------
# direct gain term (brute-force oracle)
# ---------------------------------------------------------------------------

def gain_term_direct(f: PhaseField, g: PhaseField,
                     cfg: CollisionConfig) -> PhaseField:
    """Q+(f,g) by direct tensor quadrature over (u, omega); oracle only.

    For every output lattice v and node w, f and g are read at the outgoing
    pair (v*, u*) over the whole u-lattice — trigonometric reads of the
    band-limited interpolant or trilinear reads, per cfg.interpolation,
    both truncated to zero outside the box (the stored field is compactly
    supported; periodic wrap-around reads would poison the quadrature with
    edge tails).  Over the octahedral node set the outgoing pair lies on
    the lattice itself, every read is exact, and p<->q swap symmetry forces
    the moments of Q(f,f) to vanish to machine precision.  The v-resolution
    guard keeps the Nv^2 pair tensor affordable, and x runs in blocks of it
    sized by `grids.blocks` (one x row at a time once a row exceeds the
    budget)."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    _require_full_physical(f, "gain")
    _require_full_physical(g, "gain")
    grid = f.grid
    if max(grid.nv) > DIRECT_CAP:
        raise ValueError(
            f"v-resolution {grid.nv} exceeds the direct-quadrature guard "
            f"({DIRECT_CAP} per axis)")

    V = grid.v_points()  # (Nv, 3)
    nvtot = V.shape[0]
    nxtot = int(np.prod(grid.nx))
    fd, gd = (h.data.reshape(nxtot, nvtot) for h in (f, g))
    trig = cfg.interpolation is Interpolation.Trig
    if trig:
        xiaxes = [grid.xi_axis(a) for a in range(3)]
        spec_f = _ft(f.data.reshape((nxtot,) + grid.nv), (1, 2, 3), grid.cell_v)
        spec_g = _ft(g.data.reshape((nxtot,) + grid.nv), (1, 2, 3), grid.cell_v)

    # x-blocks keep each (rows, Nv^2) complex pair tensor near the budget;
    # rows are independent, so the blocking leaves every output bit unchanged.
    # Trilinear reads of real f and g are real
    out = np.zeros((nxtot, nvtot),
                   dtype=np.complex128 if trig else np.result_type(fd, gd))
    for w_i, omega in zip(cfg.quadrature.weights, cfg.quadrature.nodes):
        k = (V[:, None, :] - V[None, :, :]) @ omega  # (Nv_v, Nv_u)
        vstar = (V[:, None, :] - k[:, :, None] * omega).reshape(-1, 3)
        ustar = (V[None, :, :] + k[:, :, None] * omega).reshape(-1, 3)
        if trig:
            inv = np.all((vstar >= -grid.Lv) & (vstar < grid.Lv), axis=1)
            inu = np.all((ustar >= -grid.Lv) & (ustar < grid.Lv), axis=1)
        else:
            sv = lattice_stencil(vstar, -grid.Lv, grid.dv, grid.nv)
            su = lattice_stencil(ustar, -grid.Lv, grid.dv, grid.nv)
        for sl in blocks(nxtot, 2 * nvtot**2):  # complex: two float64 each
            if trig:
                fv, gu = np.zeros((2, sl.stop - sl.start, nvtot**2), np.complex128)
                fv[:, inv] = _trig_read(spec_f[sl], xiaxes, vstar[inv], +1.0, grid.cell_xi)
                gu[:, inu] = _trig_read(spec_g[sl], xiaxes, ustar[inu], +1.0, grid.cell_xi)
            else:
                fv = lattice_read(fd[sl], sv)
                gu = lattice_read(gd[sl], su)
            prod = (fv * gu).reshape(-1, nvtot, nvtot)
            out[sl] += w_i * prod.sum(axis=2)
    out *= grid.cell_v
    return PhaseField(grid, out.reshape(grid.shape), FieldTag.Physical_xv)


def collision(f: PhaseField, g: PhaseField, cfg: CollisionConfig) -> PhaseField:
    """Q(f,g) = Q+(f,g) - Q-(f,g)."""
    gain = gain_term_spectral(f, g, cfg)
    loss = loss_term(f, g)
    return gain - loss


# ---------------------------------------------------------------------------
# invariants and equilibria
# ---------------------------------------------------------------------------

def moments(f) -> tuple[float, np.ndarray, float]:
    """(mass, momentum, energy): cell-weighted sums of f * {1, v, |v|^2}
    over the full grid.  Streams VSliced fields."""
    grid = f.grid
    cell = grid.cell_x * grid.cell_v
    if f.tag is not FieldTag.Physical_xv:
        raise ValueError("moments expects the physical representation")
    per_v = np.empty(grid.nv)
    for iv, block in f.v_blocks():
        per_v[iv] = np.real(np.sum(block, axis=(0, 1, 2)))
    mass = float(np.sum(per_v))
    mom = np.array([float(np.sum(per_v * on_axes(grid.v_axis(a), (a,), 3)))
                    for a in range(3)])
    energy = float(np.sum(per_v * axis_sum(lambda a: grid.v_axis(a) ** 2)))
    return mass * cell, mom * cell, energy * cell


def maxwellian(grid: GridSpec, rho: float = 1.0, temperature: float = 1.0,
               mean=(0.0, 0.0, 0.0)) -> PhaseField:
    """Spatially uniform Maxwellian rho (2 pi T)^{-3/2} exp(-|v-u|^2 / 2T)."""
    mean = np.asarray(mean, dtype=float)
    if not (0 < temperature < math.inf and math.isfinite(rho) and np.all(np.isfinite(mean))):
        raise ValueError("need finite rho and mean and a positive finite temperature, "
                         f"got rho={rho}, temperature={temperature}, mean={mean}")
    amp = rho * (2.0 * np.pi * temperature) ** -1.5
    data = np.full(grid.shape, amp)
    for a in range(3):
        prof = np.exp(-((grid.v_axis(a) - mean[a]) ** 2) / (2.0 * temperature))
        data *= on_axes(prof, (3 + a,), 6)
    return PhaseField(grid, data, FieldTag.Physical_xv)
