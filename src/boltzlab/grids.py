"""Phase-space grids, fields, spectral transforms, free transport, rescaling.

Conventions
-----------
Physical boxes are periodic: x in [-Lx, Lx)^3, v in [-Lv, Lv)^3, with uniform
grids starting at the left edge.  The forward Fourier transform carries the
2*pi in the exponent,

    fhat(eta) = integral f(x) exp(-2*pi*i x.eta) dx,

discretized so that spectral samples equal the continuum transform of the
periodized field: a `scipy.fft` transform and one pass with the cached
product of the (-1)^k edge sign and the cell volume (`_edge_sign`).  With
dual spacing  d_eta = 1/(2L)  the weighted Plancherel identity

    sum |fhat|^2 d_eta^3 = sum |f|^2 dx^3

holds exactly, which is what "unitary" means throughout this package.

Free transport f0(x - v t, v) is the exact multiplier exp(-2*pi*i t eta.v) on
the (eta, v) representation; the same multiplier realizes the hyperbolic
Schrodinger group exp(i t grad_xi . grad_x) on the (x, xi) side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.fft as sfft

DEFAULT_FULL_CAP = 24**6  # max total sample count for in-RAM Full storage


class FieldTag(enum.Enum):
    """Which axis groups of a PhaseField are in Fourier space: bit 1 of the
    value for x, bit 2 for v (the KLB1 tag byte)."""

    Physical_xv = 0
    Spectral_eta_v = 1   # x -> eta
    Spectral_x_xi = 2    # v -> xi
    Spectral_eta_xi = 3  # both

    @property
    def x_spectral(self) -> bool:
        return bool(self.value & 1)

    @property
    def v_spectral(self) -> bool:
        return bool(self.value & 2)


class Storage(enum.Enum):
    Full = 0
    VSliced = 1


def _is_dyadic(n: float) -> bool:
    """Whether n is a power of two 1, 2, 4, ... (an int or an integral float)."""
    m = int(n) if math.isfinite(n) else 0
    return m == n and m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic phase-space box [-Lx,Lx)^3 x [-Lv,Lv)^3."""

    nx: tuple[int, int, int]
    nv: tuple[int, int, int]
    Lx: float
    Lv: float
    storage: Storage = Storage.Full
    full_cap: int = DEFAULT_FULL_CAP

    def __post_init__(self):
        nx = tuple(int(n) for n in self.nx)
        nv = tuple(int(n) for n in self.nv)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nv", nv)
        if len(nx) != 3 or len(nv) != 3:
            raise ValueError("nx and nv must be triples")
        for n in nx + nv:
            if not _is_dyadic(n):
                raise ValueError(f"grid resolutions must be powers of two, got {n}")
        for name, L in (("Lx", self.Lx), ("Lv", self.Lv)):
            if not 0 < L < math.inf:
                raise ValueError(f"box half-width {name} must be positive and finite, got {L}")
        if self.storage is Storage.Full and self.total_points > self.full_cap:
            raise ValueError(
                f"Full storage needs {self.total_points} points > cap {self.full_cap}; "
                "use VSliced storage or raise full_cap"
            )

    # -- sizes ---------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.nx + self.nv

    @property
    def total_points(self) -> int:
        return int(np.prod(self.nx, dtype=np.int64) * np.prod(self.nv, dtype=np.int64))

    @property
    def dx(self) -> np.ndarray:
        return np.array([2 * self.Lx / n for n in self.nx])

    @property
    def dv(self) -> np.ndarray:
        return np.array([2 * self.Lv / n for n in self.nv])

    @property
    def cell_x(self) -> float:
        """x-cell volume."""
        return float(np.prod(self.dx))

    @property
    def cell_v(self) -> float:
        return float(np.prod(self.dv))

    @property
    def d_eta(self) -> np.ndarray:
        return np.array([1.0 / (2 * self.Lx)] * 3)

    @property
    def cell_eta(self) -> float:
        return float(np.prod(self.d_eta))

    @property
    def cell_xi(self) -> float:
        d = 1.0 / (2 * self.Lv)
        return d * d * d

    # -- axes ----------------------------------------------------------------
    def x_axis(self, a: int) -> np.ndarray:
        n = self.nx[a]
        return -self.Lx + (2 * self.Lx / n) * np.arange(n)

    def v_axis(self, a: int) -> np.ndarray:
        n = self.nv[a]
        return -self.Lv + (2 * self.Lv / n) * np.arange(n)

    def eta_axis(self, a: int) -> np.ndarray:
        """Dual-to-x frequencies in FFT order (cycles per unit length)."""
        n = self.nx[a]
        return np.fft.fftfreq(n, d=2 * self.Lx / n)

    def xi_axis(self, a: int) -> np.ndarray:
        n = self.nv[a]
        return np.fft.fftfreq(n, d=2 * self.Lv / n)

    def x_mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.x_axis(a) for a in range(3)], indexing="ij")

    def v_mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.v_axis(a) for a in range(3)], indexing="ij")

    def v_points(self) -> np.ndarray:
        """All v grid points as an (Nv, 3) array (C order over the v axes)."""
        V = self.v_mesh()
        return np.stack([c.ravel() for c in V], axis=-1)

    def x_points(self) -> np.ndarray:
        X = self.x_mesh()
        return np.stack([c.ravel() for c in X], axis=-1)


def _samples(data, tag: FieldTag, shape: tuple[int, ...]) -> np.ndarray:
    """A field's stored samples, C-contiguous: float64 for real data under
    Physical_xv, else complex128.  Raises unless they are finite and of the
    grid's `shape`."""
    real = tag is FieldTag.Physical_xv and not np.iscomplexobj(data)
    data = np.ascontiguousarray(data, np.float64 if real else np.complex128)
    if data.shape != shape:
        raise ValueError(f"data shape {data.shape} != grid shape {shape}")
    if not np.all(np.isfinite(data.view(np.float64))):  # 1.4x faster on complex
        raise ValueError("field contains non-finite samples")
    return data


@dataclass
class PhaseField:
    """Samples over the 6D grid, indexed (x triple, v triple): float64 for a
    physical field of real data, else complex128.  `to()` and `transform`
    return complex fields; arithmetic promotes as numpy does."""

    grid: GridSpec
    data: np.ndarray
    tag: FieldTag = FieldTag.Physical_xv

    def __post_init__(self):
        if self.grid.storage is not Storage.Full:
            raise ValueError("PhaseField requires Full storage (see VSlicedField)")
        self.data = _samples(self.data, self.tag, self.grid.shape)

    def copy(self) -> "PhaseField":
        return PhaseField(self.grid, self.data.copy(), self.tag)

    def to(self, tag: FieldTag) -> "PhaseField":
        """Return this field re-represented under `tag` (no-op if already there)."""
        out = self
        for axes, bit in (("x", 1), ("v", 2)):
            if (tag.value ^ out.tag.value) & bit:
                out = transform(out, axes, "forward" if tag.value & bit else "inverse")
        return out

    def v_blocks(self, tag: FieldTag = FieldTag.Physical_xv
                 ) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
        """The whole field under `tag` as one (v-index slices, 6-D block) pair."""
        yield (slice(None),) * 3, self.to(tag).data

    def l2(self) -> float:
        """Physically weighted L2 norm in the current representation."""
        g, tag = self.grid, self.tag
        w = ((g.cell_eta if tag.x_spectral else g.cell_x)
             * (g.cell_xi if tag.v_spectral else g.cell_v))
        return math.sqrt(w * float(np.sum(np.abs(self.data) ** 2)))

    def __add__(self, other: "PhaseField") -> "PhaseField":
        _check_compatible(self, other)
        return PhaseField(self.grid, self.data + other.data, self.tag)

    def __sub__(self, other: "PhaseField") -> "PhaseField":
        _check_compatible(self, other)
        return PhaseField(self.grid, self.data - other.data, self.tag)

    def __mul__(self, c) -> "PhaseField":
        return PhaseField(self.grid, self.data * c, self.tag)

    __rmul__ = __mul__


class VSlicedField:
    """Streaming stand-in for PhaseField: one x-grid per v point, produced on demand.

    `slice_fn(iv)` receives a v-axis index triple and must return the finite
    x-grid (shape grid.nx) of the field at that v point, stored by PhaseField's
    dtype rule (`materialize` is complex when any slice is).  The field is
    always physical (the class attribute tag is Physical_xv); spectral
    collision work requires Full storage.  Consumers read either storage
    through `v_blocks`, which here yields one nx + (1, 1, 1) block per v point.
    """

    tag = FieldTag.Physical_xv

    def __init__(self, grid: GridSpec, slice_fn: Callable[[tuple[int, int, int]], np.ndarray]):
        self.grid = grid
        self._slice_fn = slice_fn

    def v_slice(self, iv: tuple[int, int, int]) -> np.ndarray:
        return _samples(self._slice_fn(tuple(iv)), self.tag, self.grid.nx)

    def v_blocks(self, tag: FieldTag = FieldTag.Physical_xv
                 ) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
        """(v-index slices, nx + (1, 1, 1) block) per v point, v1 fastest
        (the KLB1 file order); x axes transformed when tag.x_spectral."""
        if tag.v_spectral:
            raise ValueError("VSlicedField blocks are physical in v")
        n1, n2, n3 = self.grid.nv
        for k, j, i in np.ndindex(n3, n2, n1):
            sl = self.v_slice((i, j, k))
            if tag.x_spectral:
                sl = _ft(sl, (0, 1, 2), self.grid.cell_x)
            yield (slice(i, i + 1), slice(j, j + 1), slice(k, k + 1)), sl[..., None, None, None]

    def materialize(self) -> PhaseField:
        grid = replace(self.grid, storage=Storage.Full)
        data = np.empty(grid.shape)
        for iv, block in self.v_blocks():
            if np.iscomplexobj(block) and not np.iscomplexobj(data):
                data = data.astype(np.complex128)
            data[(slice(None),) * 3 + iv] = block
        return PhaseField(grid, data, self.tag)


def _check_compatible(a: PhaseField, b: PhaseField) -> None:
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    if a.tag != b.tag:
        raise ValueError(f"tag mismatch: {a.tag} vs {b.tag}")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots sharing one grid."""

    times: np.ndarray
    fields: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fields", tuple(self.fields))
        if len(self.fields) != t.size or t.size < 1:
            raise ValueError("times and fields must have equal length >= 1")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        g0 = self.fields[0].grid
        if any(f.grid != g0 for f in self.fields):
            raise ValueError("all snapshots must share one GridSpec")

    def __len__(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class ScalingTransform:
    """f -> lam^(alpha+2*beta) f(lam^alpha x, lam^beta v)."""

    lam: float
    alpha: float
    beta_exp: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        for name in ("alpha", "beta_exp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# axis-separable symbols
# ---------------------------------------------------------------------------

def on_axes(arr: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """`arr` reshaped so its dimensions lie on `axes` of an ndim-D block
    (length 1 on every other axis), ready to broadcast."""
    shape = [1] * ndim
    for ax, n in zip(axes, np.shape(arr)):
        shape[ax] = n
    return np.reshape(arr, shape)


def axis_sum(term: Callable[[int], np.ndarray], ndim: int = 3) -> np.ndarray:
    """Sum over a = 0, 1, 2 of the per-axis array term(a), broadcast to the
    3-D (ndim=3) or 6-D (ndim=6) block.

    A 1-D term(a) lies on axis a; a 2-D one (x or eta by v or xi) lies on
    axes (a, 3 + a).  So axis_sum(lambda a: grid.eta_axis(a) ** 2) is
    |eta|^2 on the x-frequency block, and eta_dot_v is the 2-D case.
    """
    return sum(on_axes(term(a), (a, 3 + a), ndim) for a in range(3))


def eta_dot_v(grid: GridSpec) -> np.ndarray:
    """The transport symbol eta.v on the (eta, v) block, shape grid.shape."""
    return axis_sum(lambda a: np.outer(grid.eta_axis(a), grid.v_axis(a)), 6)


# ---------------------------------------------------------------------------
# block budget
# ---------------------------------------------------------------------------

#: float64 elements per dense temporary (2 MiB), the one budget of every
#: dense loop in the package (through `blocks`): small enough to stay in
#: cache, large enough that numpy's per-call overhead is amortised
_BLOCK = 1 << 18


def blocks(n: int, per_item: int) -> Iterator[slice]:
    """Consecutive slices covering range(n), each holding as many items as
    fit the block budget at per_item elements per item (at least one)."""
    step = max(1, _BLOCK // max(per_item, 1))
    for a in range(0, n, step):
        yield slice(a, min(a + step, n))


# ---------------------------------------------------------------------------
# lattice reads
# ---------------------------------------------------------------------------

def uniform_pairs(table: np.ndarray) -> np.ndarray:
    """`uniform_read`'s (A, B) pair of table, to pass in its place."""
    return np.stack((np.append(table, 0.0), np.pad(np.diff(table), 1)))


def uniform_read(u, table: np.ndarray, step: float, out=None,
                 work=None) -> np.ndarray:
    """Linear read of the samples table[k] at k * step (k = 0, 1, ...) at
    u >= 0, zero past the last sample: np.interp(u, step * arange(n), table,
    right=0) as A[c] + B[c] (s - c) at s = min(u / step, n) and c = ceil(s),
    with A = (table, 0) and B = (0, diff(table), 0), or its `uniform_pairs`.
    A read at a sample returns it, and every read past the last one lands on
    the zero slot c = n, so np.take needs no bounds check.  The read goes
    into out, with work = (float64, intp) as scratch, all of u's shape and
    allocated when not given; u is not written.  Unchecked: u must be
    finite and >= 0; any other u reads wrong samples."""
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape) if out is None else out
    s, c = work or (np.empty(u.shape), np.empty(u.shape, np.intp))
    ab = table if table.ndim == 2 else uniform_pairs(table)
    np.minimum(np.multiply(u, 1.0 / step, out=s), ab.shape[1] - 1, out=s)
    np.copyto(c, np.ceil(s, out=out), casting="unsafe")
    s -= out
    np.take(ab[1], c, out=out, mode="clip")
    out *= s
    out += np.take(ab[0], c, out=s, mode="clip")
    return out


def lattice_stencil(points: np.ndarray, lo, step,
                    shape: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear read stencil of the lattice lo + k * step (k < shape) at
    the (npts, d) points: flat C-order sample indices and their weights,
    both of shape (2^d, npts).  lo and step are scalars or per-axis.

    Zero extension: corners off the lattice weigh zero, so reads at lattice
    points (edges included) return the stored samples, a read a fraction t
    of a cell past an edge sample returns (1 - t) times it, and reads a full
    cell or more off the lattice return zero.
    """
    npts, d = points.shape
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,))
    step = np.broadcast_to(np.asarray(step, dtype=float), (d,))
    idx = np.zeros((1, npts), dtype=np.int64)
    w = np.ones((1, npts))
    for a, n in enumerate(shape):
        # clip first: the integer cast of a far-off coordinate must not overflow
        u = np.clip((points[:, a] - lo[a]) / step[a], -1.0, n)
        base = np.floor(u)
        frac = u - base
        k = base.astype(np.int64) + np.arange(2)[:, None]
        wa = np.stack((1.0 - frac, frac)) * ((k >= 0) & (k < n))
        idx = (idx[:, None] * n + np.clip(k, 0, n - 1)).reshape(-1, npts)
        w = (w[:, None] * wa).reshape(-1, npts)
    return idx, w


def lattice_read(flat: np.ndarray,
                 stencil: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Read (..., N) flattened lattice samples through a lattice_stencil:
    the sum over corners of flat[..., idx] * w, shape (..., npts)."""
    idx, w = stencil
    out = flat[..., idx[0]] * w[0]
    for k in range(1, idx.shape[0]):
        out += flat[..., idx[k]] * w[k]
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _edge_sign(shape: tuple[int, ...], axes: tuple[int, ...],
               scale: float = 1.0) -> np.ndarray:
    """scale times the product over `axes` of the per-axis signs (-1)^k, k
    the signed frequency of FFT order, shaped to broadcast over an array of
    `shape` (length 1 off `axes`); read-only.  A grid that starts at the
    box's left edge -L has continuum-FT samples (-1)^k times its DFT."""
    out = np.full((1,) * len(shape), scale)
    for ax in axes:
        k = np.fft.fftfreq(shape[ax], d=1.0 / shape[ax])
        out = out * on_axes(np.where(k % 2 == 0, 1.0, -1.0), (ax,), len(shape))
    out.flags.writeable = False
    return out


def _ft(data: np.ndarray, axes: tuple[int, ...], cell: float) -> np.ndarray:
    """Continuum-FT samples over `axes` of data sampled from the box's left
    edge: the DFT times the (-1)^k edge sign and the cell volume, one
    multiply on the transform's own output."""
    out = sfft.fftn(data, axes=axes)
    out *= _edge_sign(data.shape, axes, cell)
    return out


def _ift(data: np.ndarray, axes: tuple[int, ...], cell: float,
         symbol=1.0) -> np.ndarray:
    """The inverse of _ft over the same axes and cell of data times a
    broadcast spectral symbol: one signed, scaled copy of data (the symbol
    folded into the small sign array), transformed in place."""
    return sfft.ifftn(data * (_edge_sign(data.shape, axes, 1.0 / cell) * symbol),
                      axes=axes, overwrite_x=True)


def transform(field: PhaseField, axes: str, direction: str) -> PhaseField:
    """Forward/inverse FT on the x axes or the v axes.

    Forward on x maps Physical -> Spectral_eta (samples of the continuum FT);
    inverse undoes it exactly.  Raises "redundant transform" if the requested
    axis group is already in the requested representation.
    """
    if axes not in ("x", "v"):
        raise ValueError("axes must be 'x' or 'v'")
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")

    grid = field.grid
    bit = 1 if axes == "x" else 2  # the axis group's FieldTag bit
    want_spec = direction == "forward"
    have_spec = bool(field.tag.value & bit)
    if want_spec == have_spec:
        raise ValueError(f"redundant transform: {axes} axes already "
                         f"{'spectral' if have_spec else 'physical'}")

    ax_ids, cell = ((0, 1, 2), grid.cell_x) if axes == "x" else ((3, 4, 5), grid.cell_v)
    out = (_ft if want_spec else _ift)(field.data, ax_ids, cell)
    return PhaseField(grid, out, FieldTag(field.tag.value ^ bit))


def x_derivatives(data: np.ndarray, grid: GridSpec) -> Iterator[np.ndarray]:
    """Spectral d/dx_a, a = 0, 1, 2, of samples on the x axes of `grid`
    (axes 0-2 of data; trailing axes broadcast): one forward transform, then
    per axis one inverse whose signed copy carries the symbol 2 pi i eta_a
    (the caller holding one output, 3x the input at peak).  Each axis's
    Nyquist frequency gets symbol 0, the usual rule for odd-order spectral
    derivatives: its sample stands for both +eta and -eta, whose symbols
    cancel, so a real field keeps a real gradient."""
    spec = _ft(data, (0, 1, 2), grid.cell_x)
    for a in range(3):
        eta = grid.eta_axis(a)
        eta[grid.nx[a] // 2] = 0.0  # the Nyquist entry (eta = 0 when n = 1)
        yield _ift(spec, (0, 1, 2), grid.cell_x,
                   on_axes(2j * np.pi * eta, (a,), data.ndim))


# ---------------------------------------------------------------------------
# free transport / hyperbolic Schrodinger propagator
# ---------------------------------------------------------------------------

def free_transport(field: PhaseField, t: float) -> PhaseField:
    """Exact propagator f(t, x, v) = f0(x - v t, v) (periodic wrap).

    Implemented as the unimodular multiplier exp(-2*pi*i t eta.v) in the
    (eta, v) representation; preserves every v-slice L2 norm to rounding.
    """
    if field.tag not in (FieldTag.Physical_xv, FieldTag.Spectral_eta_v):
        raise ValueError("free_transport expects Physical_xv or Spectral_eta_v input")
    if t == 0.0:
        return field.copy()
    g = field.grid
    ph = [on_axes(np.exp(-2j * np.pi * t * np.outer(g.eta_axis(a), g.v_axis(a))),
                  (a, 3 + a), 6) for a in range(3)]
    # one copy (to() returns a Spectral_eta_v field itself), two in place
    data = field.to(FieldTag.Spectral_eta_v).data * ph[0]
    data *= ph[1]
    data *= ph[2]
    out = PhaseField(field.grid, data, FieldTag.Spectral_eta_v)
    return out.to(field.tag)


def gaussian_oracle(grid: GridSpec,
                    centers: tuple[Sequence[float], Sequence[float]],
                    widths: tuple[Sequence[float], Sequence[float]],
                    t: float = 0.0) -> PhaseField:
    """Closed-form transported Gaussian: the separable unit-height profile

        f0(x,v) = prod_a exp(-(x_a-cx_a)^2/(2 wx_a^2)) exp(-(v_a-cv_a)^2/(2 wv_a^2))

    sampled exactly along characteristics as f(t,x,v) = f0(x - v t, v).
    Raises "box too small" unless all tails carry relative mass < 1e-10
    inside the box for the requested time.
    """
    cx, cv = (np.asarray(c, dtype=float) for c in centers)
    wx, wv = (np.asarray(w, dtype=float) for w in widths)
    if np.any(wx <= 0) or np.any(wv <= 0):
        raise ValueError("widths must be positive")
    # 6.8 sigma leaves ~5e-12 of 1D mass outside; demand it for x (including the
    # transport displacement of the moving support) and for v.
    k = 6.8
    reach_v = np.abs(cv) + k * wv
    reach_x = np.abs(cx) + k * wx + abs(t) * reach_v
    if np.any(reach_x >= grid.Lx) or np.any(reach_v >= grid.Lv):
        raise ValueError("box too small for Gaussian support (tail mass > 1e-10)")

    data = np.ones(grid.shape)
    for a in range(3):
        x = grid.x_axis(a)
        v = grid.v_axis(a)
        arg_x = (x[:, None] - v[None, :] * t - cx[a]) / wx[a]
        prof = np.exp(-0.5 * arg_x**2) * np.exp(-0.5 * ((v[None, :] - cv[a]) / wv[a]) ** 2)
        data *= on_axes(prof, (a, 3 + a), 6)
    return PhaseField(grid, data, FieldTag.Physical_xv)


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------

def _resample_axis_factor(m: float) -> tuple[int, int]:
    """Express a sampling stretch f(m*x) as (stride p, refine q): m = p/q with
    integer p, q and small q; raises if m is not a dyadic rational."""
    from fractions import Fraction

    fr = Fraction(m).limit_denominator(64)
    if abs(fr - m) > 1e-12:
        raise ValueError(f"scale factor {m} is not a small rational; unsupported")
    if not _is_dyadic(fr.denominator):
        raise ValueError(f"scale denominator {fr.denominator} not a power of two")
    return fr.numerator, fr.denominator


def _mass_outside(data: np.ndarray, grid: GridSpec, shrink_x: float, shrink_v: float) -> float:
    """Relative |f| mass the stretch would push past the box edge.

    The output at coordinate x reads the input at m*x, so for m < 1 the input
    region |s| >= m*L never lands inside the output box: mass there is lost.
    For m >= 1 nothing is lost (the check region lies outside the grid).
    """
    tot = float(np.sum(np.abs(data)))
    if tot == 0.0:
        return 0.0
    # number of each sample's coordinates that lie in the lost region
    far = axis_sum(lambda a: np.add.outer(
        np.abs(grid.x_axis(a)) >= grid.Lx * shrink_x,
        np.abs(grid.v_axis(a)) >= grid.Lv * shrink_v, dtype=np.int8), 6)
    return float(np.sum(np.abs(data)[far > 0])) / tot


def _refine_axes(data: np.ndarray, axes: Sequence[int], q: int) -> np.ndarray:
    """Trigonometric refinement by factor q along the given axes (zero-padding)."""
    if q == 1:
        return data
    out = data
    for ax in axes:
        n = out.shape[ax]
        spec = np.moveaxis(sfft.fft(out, axis=ax), ax, 0)
        padded = np.zeros((n * q,) + spec.shape[1:], dtype=np.complex128)
        padded[:n // 2] = spec[:n // 2]
        padded[-(n // 2):] = spec[-(n // 2):]
        out = np.moveaxis(sfft.ifft(padded, axis=0, overwrite_x=True), 0, ax)
        out *= q
    return out


def rescale(field: PhaseField, s: ScalingTransform) -> PhaseField:
    """lam^(alpha+2*beta) f(lam^alpha x, lam^beta v), exactly when the axis
    stretches are dyadic rationals (spectral refinement + integer stride);
    the support must fit the box after stretching."""
    if field.tag is not FieldTag.Physical_xv:
        raise ValueError("rescale expects the physical representation")
    mx = s.lam**s.alpha
    mv = s.lam**s.beta_exp
    if _mass_outside(field.data, field.grid, mx, mv) > 1e-10:
        raise ValueError("support escapes box under rescale")
    px, qx = _resample_axis_factor(mx)
    pv, qv = _resample_axis_factor(mv)

    data = field.data
    data = _refine_axes(data, (0, 1, 2), qx)
    data = _refine_axes(data, (3, 4, 5), qv)

    # real data stays real unless an axis was refined
    out = np.zeros(field.grid.shape, dtype=data.dtype)
    # index map on the refined grid: point m*x_j has refined index p*j - (p-q)*n_ref/2...
    # refined axis i <-> coordinate -L + i*(2L/(n*q)); target m*x_j = -L*m + j*m*2L/n.
    # i(j) = (m*x_j + L) * n*q/(2L) = p*j + (q - p) * n/2   (integer since n even).
    def axis_index(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        j = np.arange(n)
        i = p * j + ((q - p) * n) // 2
        ok = (i >= 0) & (i < n * q)
        return j[ok], i[ok]

    jx, ix = zip(*[axis_index(field.grid.nx[a], px, qx) for a in range(3)])
    jv, iv = zip(*[axis_index(field.grid.nv[a], pv, qv) for a in range(3)])
    amp = s.lam ** (s.alpha + 2 * s.beta_exp)
    sub = data[np.ix_(ix[0], ix[1], ix[2], iv[0], iv[1], iv[2])]
    out[np.ix_(jx[0], jx[1], jx[2], jv[0], jv[1], jv[2])] = amp * sub
    return PhaseField(field.grid, out, FieldTag.Physical_xv)
