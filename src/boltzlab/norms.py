"""Weighted Sobolev, mixed Lebesgue, Z, Littlewood-Paley, space-time, and
cutoff modulation norms.

Weight conventions (fixed once, used consistently package-wide):

* Japanese brackets of spectral variables use the frequency in cycles:
  <eta> = sqrt(1 + |eta|^2), likewise <v>, and the modulation bracket
  <tau + eta.v> with tau in cycles.
* The spatial gradient grad_x is the honest derivative, symbol 2*pi*i*eta,
  with symbol 0 at each axis's Nyquist frequency (`grids.x_derivatives`).
* Mixed Lebesgue norms are v-outer / x-inner, written "Lv{p}[,{r}]_Lx{q}"
  (e.g. "Lv2,1_Lx2" for the <v>-weighted L2_v of the L2_x norm, "Lv1_LxInf").
  The mixed norms and each space-time snapshot are one reduction, `_mixed`:
  the inner L^q over x, then the outer L^p over v (or xi), by `_lebesgue`.
"""

from __future__ import annotations

import math
import re
from typing import Union

import numpy as np
import scipy.fft as sfft

from boltzlab.bump import smoothstep
from boltzlab.grids import (
    FieldTag,
    GridSpec,
    PhaseField,
    Trajectory,
    VSlicedField,
    _is_dyadic,
    axis_sum,
    eta_dot_v,
    on_axes,
    x_derivatives,
)

# either storage: consumers read both through field.v_blocks(tag)
Field = Union[PhaseField, VSlicedField]


# ---------------------------------------------------------------------------
# smooth windows
# ---------------------------------------------------------------------------

def plateau_window(u: np.ndarray, width: float) -> np.ndarray:
    """C-infinity window on [0,1]: 0 at the ends, 1 on [width, 1-width]."""
    if not 0.0 < width <= 0.5:
        raise ValueError("window width must lie in (0, 1/2]")
    u = np.asarray(u, dtype=float)
    return smoothstep(u / width) * smoothstep((1.0 - u) / width)


# ---------------------------------------------------------------------------
# Sobolev / homogeneous weighted norms
# ---------------------------------------------------------------------------

def _bracket(k, e: float) -> np.ndarray:
    """The Japanese bracket <k>^e = (1 + |k|^2)^(e/2) of an array k, or on the
    3-D block of a per-axis function k (k(a) on axis a)."""
    k2 = axis_sum(lambda a: k(a) ** 2) if callable(k) else k**2
    return (1.0 + k2) ** (e / 2.0)


def _weighted_l2(field: Field, x_weight2: np.ndarray, v_weight2: np.ndarray) -> float:
    """sqrt( sum |fhat(eta,v)|^2 xw2(eta) vw2(v) d_eta^3 dv^3 )."""
    grid = field.grid
    acc = 0.0
    for iv, spec in field.v_blocks(FieldTag.Spectral_eta_v):
        # the contraction-order search pays only on blocks of many v points
        acc += np.einsum("abcijk,abc,ijk->", np.abs(spec) ** 2, x_weight2,
                         v_weight2[iv], optimize=spec.size > x_weight2.size)
    return math.sqrt(float(acc) * grid.cell_eta * grid.cell_v)


def sobolev_norm(field: Field, s: float, r: float) -> float:
    """|| <eta>^s <v>^r fhat(eta, v) ||_{L2}  (spectral in x, physical in v)."""
    if not (np.isfinite(s) and np.isfinite(r)):
        raise ValueError("s and r must be finite")
    grid = field.grid
    xw2 = _bracket(grid.eta_axis, 2.0 * s)
    vw2 = _bracket(grid.v_axis, 2.0 * r)
    return _weighted_l2(field, xw2, vw2)


def homogeneous_norm(field: Field, s: float, r: float) -> float:
    """|| |eta|^s |v|^r fhat ||_{L2}: the scale-covariant counterpart.

    The zero mode carries zero weight for s > 0 (and weight one at s = 0).
    """
    if not (np.isfinite(s) and np.isfinite(r)):
        raise ValueError("s and r must be finite")
    grid = field.grid
    with np.errstate(divide="ignore"):
        xw2 = axis_sum(lambda a: grid.eta_axis(a) ** 2) ** s
        vw2 = axis_sum(lambda a: grid.v_axis(a) ** 2) ** r
    if s > 0:
        xw2[np.isnan(xw2)] = 0.0
        xw2[0, 0, 0] = 0.0
    if r > 0:
        vw2[np.isnan(vw2)] = 0.0
    return _weighted_l2(field, xw2, vw2)


def apply_bracket_weights(field: PhaseField, s: float, r: float) -> PhaseField:
    """The operator <grad_x>^s <v>^r (bracket symbol in cycles), physical output."""
    spec = field.to(FieldTag.Spectral_eta_v)
    grid = field.grid
    xw = on_axes(_bracket(grid.eta_axis, s), (0, 1, 2), 6)
    vw = on_axes(_bracket(grid.v_axis, r), (3, 4, 5), 6)
    data = spec.data * xw * vw
    out = PhaseField(grid, data, FieldTag.Spectral_eta_v)
    return out.to(field.tag)


def grad_x_magnitude(field: PhaseField) -> PhaseField:
    """|grad_x f| pointwise (Euclidean length over the three x-derivatives)."""
    data = field.to(FieldTag.Physical_xv).data
    acc = sum(np.abs(d) ** 2 for d in x_derivatives(data, field.grid))
    return PhaseField(field.grid, np.sqrt(acc), FieldTag.Physical_xv)


# ---------------------------------------------------------------------------
# mixed Lebesgue norms, v-outer / x-inner
# ---------------------------------------------------------------------------

_MIXED_RE = re.compile(
    r"^Lv(?P<p>Inf|\d+(?:\.\d+)?)(?:,(?P<r>-?\d+(?:\.\d+)?))?"
    r"_Lx(?P<q>Inf|\d+(?:\.\d+)?)$")


def parse_mixed_order(order: str) -> tuple[float, float, float]:
    """-> (p, r, q) with inf for 'Inf'; raises on anything else."""
    m = _MIXED_RE.match(order)
    if not m:
        raise ValueError(f"unsupported mixed norm order {order!r}; "
                         "expected 'Lv{p}[,{r}]_Lx{q}' like 'Lv2,1_Lx2'")
    p = np.inf if m["p"] == "Inf" else float(m["p"])
    q = np.inf if m["q"] == "Inf" else float(m["q"])
    r = float(m["r"]) if m["r"] else 0.0
    if p < 1 or q < 1:
        raise ValueError(f"unsupported mixed norm order {order!r}: exponents must be >= 1")
    return p, r, q


def _lebesgue(m: np.ndarray, p: float, axis, cell: float) -> np.ndarray:
    """The cell-weighted L^p norm of m >= 0 over `axis`, the max at p = inf."""
    if p == np.inf:
        return m.max(axis=axis)
    return (np.sum(m**p, axis=axis) * cell) ** (1.0 / p)


def _mixed(field: Field, tag: FieldTag, p: float, q: float, weight=1.0) -> float:
    """|| weight || f ||_{Lx^q} ||_{L^p} of the blocks field.v_blocks(tag):
    the outer norm over v, or over xi when `tag` is v-spectral."""
    grid = field.grid
    inner = np.empty(grid.nv)
    for iv, block in field.v_blocks(tag):
        inner[iv] = _lebesgue(np.abs(block), q, (0, 1, 2), grid.cell_x)
    cell = grid.cell_xi if tag.v_spectral else grid.cell_v
    return float(_lebesgue(weight * inner, p, None, cell))


def mixed_norm(field: Field, order: str) -> float:
    """Discrete  || <v>^r  || f(x, v) ||_{Lx^q}  ||_{Lv^p}  with cell weights."""
    p, r, q = parse_mixed_order(order)
    return _mixed(field, FieldTag.Physical_xv, p, q, _bracket(field.grid.v_axis, r))


def z_norm(field: PhaseField, M: float) -> float:
    """M ||f||_{Lv^{2,1}Lx^2} + ||grad_x f||_{Lv^{2,1}Lx^2}
       + ||f||_{Lv^1Lx^inf} + M^{-1} ||grad_x f||_{Lv^1Lx^inf}."""
    if not M >= 1:
        raise ValueError("Z norm requires M >= 1")
    g = grad_x_magnitude(field)
    return (M * mixed_norm(field, "Lv2,1_Lx2")
            + mixed_norm(g, "Lv2,1_Lx2")
            + mixed_norm(field, "Lv1_LxInf")
            + mixed_norm(g, "Lv1_LxInf") / M)


# ---------------------------------------------------------------------------
# Littlewood-Paley projectors
# ---------------------------------------------------------------------------

def _cumulative_step(u: np.ndarray, k: int) -> np.ndarray:
    """S_k: C-inf step rising across the half-octave [k - 3/4, k - 1/4] in log2."""
    return smoothstep((u - (k - 0.75)) * 2.0)


def _lp_multiplier(abs2: np.ndarray, dyad: int, label: str) -> np.ndarray:
    if not _is_dyadic(dyad):
        raise ValueError(f"dyad must be a power of two, got {dyad}")
    fmax = math.sqrt(float(abs2.max()))
    k = int(dyad).bit_length() - 1  # dyad = 2^k
    if k >= 1 and 2.0 ** (k - 0.75) >= fmax:
        raise ValueError(
            f"dyad {dyad} outside resolved range of the {label} axis "
            f"(annulus starts above the grid's max frequency {fmax:.3g})")
    with np.errstate(divide="ignore"):
        u = 0.5 * np.log2(np.where(abs2 > 0, abs2, 1.0))
    u = np.where(abs2 > 0, u, -np.inf)
    if k == 0:
        return 1.0 - _cumulative_step(u, 1)
    return _cumulative_step(u, k) - _cumulative_step(u, k + 1)


def lp_dyads(grid: GridSpec, axis: str) -> list[int]:
    """The dyadic labels {1, 2, 4, ...} forming an exact partition on this grid.

    Only dyads whose annulus reaches into the resolved frequency range are
    listed; the first excluded step function vanishes identically on the grid,
    so the listed projections still telescope exactly to the identity.
    """
    axis_of = grid.eta_axis if axis == "x" else grid.xi_axis
    abs2 = axis_sum(lambda a: axis_of(a) ** 2)
    fmax = math.sqrt(float(abs2.max()))
    out = [1]
    k = 1
    while 2.0 ** (k - 0.75) < fmax:
        out.append(2**k)
        k += 1
    return out


def lp_project(field: PhaseField, axis: str, dyad: int) -> PhaseField:
    """Smooth dyadic frequency projector on the x (axis='x') or v-dual
    (axis='xi') frequencies; dyad=1 is the low block.  Projections over
    lp_dyads() sum exactly to the identity (telescoping steps)."""
    if axis not in ("x", "xi"):
        raise ValueError("axis must be 'x' or 'xi'")
    grid = field.grid
    on_x = axis == "x"
    axis_of = grid.eta_axis if on_x else grid.xi_axis
    mult = _lp_multiplier(axis_sum(lambda a: axis_of(a) ** 2), dyad, axis)
    spec = field.to(FieldTag(field.tag.value | (1 if on_x else 2)))
    data = spec.data * on_axes(mult, (0, 1, 2) if on_x else (3, 4, 5), 6)
    return PhaseField(grid, data, spec.tag).to(field.tag)


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------

def _check_uniform(traj: Trajectory) -> float:
    t = traj.times
    if len(t) < 2:
        return 0.0
    dts = np.diff(t)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(abs(dts[0]), 1e-300):
        raise ValueError("trajectory must be uniformly sampled in time")
    return float(dts[0])


def spacetime_norm(traj: Trajectory, q: float, p: float, r: float | None = None) -> float:
    """L^q in t of the L^p norm over (x, xi).

    With r given, the xi exponent differs from the x exponent (the
    scaling-degenerate variant used to demonstrate failure of p != r).
    Each snapshot's norm is taken in the (x, xi) representation as the
    mixed norm of `_mixed`: the inner L^p over x, the outer L^r (L^p when r
    is None) over xi.  Time uses the composite trapezoid rule (q=inf takes
    the max over snapshots).
    """
    if not (q >= 1 and p >= 1 and (r is None or r >= 1)):
        raise ValueError("exponents must lie in [1, inf]")
    vals = np.array([_mixed(f, FieldTag.Spectral_x_xi, p if r is None else r, p)
                     for f in traj.fields])
    if q == np.inf or len(traj) == 1:
        return float(vals.max())
    return float(np.trapezoid(vals**q, traj.times)) ** (1.0 / q)


def xsb_norm(traj: Trajectory, s: float, b: float, cutoff_width: float = 0.25) -> float:
    """Cutoff modulation norm || <tau + eta.v>^b <eta>^s <v>^s (theta f)^ ||_{L2}.

    The trajectory is multiplied by the plateau window theta((t-t0)/T), FFT'd
    in time per (eta, v) mode, and weighted.  This is the computable proxy for
    the restricted-infimum definition (an upper bound).
    """
    dt = _check_uniform(traj)
    nt = len(traj)
    if nt < 2:
        raise ValueError("modulation norm needs at least 2 snapshots")
    T = traj.times[-1] - traj.times[0] + dt  # window period for the DFT
    if cutoff_width * nt < 4:
        raise ValueError(
            "window too short for cutoff: fewer than 4 samples in the taper")

    grid = traj.fields[0].grid
    u = (traj.times - traj.times[0]) / (traj.times[-1] - traj.times[0])
    theta = plateau_window(u, cutoff_width)

    stack = np.stack([f.to(FieldTag.Spectral_eta_v).data for f in traj.fields])
    stack *= (theta * dt).reshape((-1,) + (1,) * 6)
    fhat = sfft.fft(stack, axis=0, overwrite_x=True)
    tau = np.fft.fftfreq(nt, d=dt)

    etav = eta_dot_v(grid)
    xw2 = on_axes(_bracket(grid.eta_axis, 2.0 * s), (0, 1, 2), 6)
    vw2 = on_axes(_bracket(grid.v_axis, 2.0 * s), (3, 4, 5), 6)
    acc = 0.0
    for k in range(nt):  # stream over tau to bound memory
        w2 = _bracket(tau[k] + etav, 2.0 * b) * xw2 * vw2
        acc += float(np.sum(np.abs(fhat[k]) ** 2 * w2))
    dtau = 1.0 / T
    return math.sqrt(acc * dtau * grid.cell_eta * grid.cell_v)

