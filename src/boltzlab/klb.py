"""KLB1 binary field files.

Layout (all little-endian):

    offset  size  content
    0       4     magic b"KLB1"
    4       24    six uint32 axis sizes: nx1 nx2 nx3 nv1 nv2 nv3
    28      16    two float64 box half-widths: Lx Lv
    44      1     representation tag byte (FieldTag value)
    45      ...   complex128 samples, re/im interleaved, x-axes fastest
                  (Fortran order over the (nx1,nx2,nx3,nv1,nv2,nv3) array)

Round-trips are bit-exact.  A float64 field is written with imaginary part
+0.0: the bytes of the same data held as complex128, Full or VSliced; the
loader returns complex128.  The loader validates the header before touching
the payload: a byte-swapped header produces implausible axis sizes and is
reported as an endianness problem rather than a memory error.
"""

from __future__ import annotations

import os
import struct
from typing import Union

import numpy as np

from boltzlab.grids import FieldTag, GridSpec, PhaseField, Storage, VSlicedField

MAGIC = b"KLB1"
HEADER = struct.Struct("<4s6I2dB")  # 4 + 24 + 16 + 1 = 45 bytes
_MAX_AXIS = 1 << 24  # any larger size means the header bytes are garbage


class KLBFormatError(ValueError):
    pass


def _parse_header(raw: bytes, path: str) -> tuple[tuple[int, ...], tuple[int, ...], float, float, FieldTag]:
    if len(raw) < HEADER.size:
        raise KLBFormatError(f"{path}: truncated file (header needs {HEADER.size} bytes)")
    magic, n1, n2, n3, m1, m2, m3, Lx, Lv, tagb = HEADER.unpack(raw[: HEADER.size])
    if magic != MAGIC:
        raise KLBFormatError(f"{path}: bad magic {magic!r}, not a KLB1 field file")
    sizes = (n1, n2, n3, m1, m2, m3)
    if any(s == 0 or s > _MAX_AXIS for s in sizes):
        raise KLBFormatError(
            f"{path}: implausible axis sizes {sizes}; header bytes look "
            "byte-swapped (wrong endianness) or corrupt"
        )
    if not (np.isfinite(Lx) and np.isfinite(Lv) and Lx > 0 and Lv > 0):
        raise KLBFormatError(f"{path}: implausible box sizes Lx={Lx} Lv={Lv}; "
                             "wrong endianness or corrupt header")
    try:
        tag = FieldTag(tagb)
    except ValueError:
        raise KLBFormatError(f"{path}: unknown representation tag byte {tagb}") from None
    return sizes[:3], sizes[3:], Lx, Lv, tag


def dump_field(field: Union[PhaseField, VSlicedField], path: str) -> None:
    """Write a field to a KLB1 file (streams VSliced fields one x-grid at a time)."""
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, *grid.nx, *grid.nv, grid.Lx, grid.Lv,
                             field.tag.value))
        for _, block in field.v_blocks(field.tag):
            fh.write(block.ravel(order="F").astype("<c16").tobytes())


def field_info(path: str) -> dict:
    """Header metadata without loading the payload."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        raw = fh.read(HEADER.size)
    nx, nv, Lx, Lv, tag = _parse_header(raw, path)
    expected = int(np.prod(nx, dtype=np.int64) * np.prod(nv, dtype=np.int64)) * 16
    actual = size - HEADER.size
    if actual < expected:
        raise KLBFormatError(
            f"{path}: truncated file ({actual} payload bytes, header promises {expected})")
    if actual > expected:
        raise KLBFormatError(
            f"{path}: {actual - expected} trailing bytes after payload; "
            "corrupt file or wrong endianness in header")
    return {
        "nx": tuple(nx),
        "nv": tuple(nv),
        "Lx": Lx,
        "Lv": Lv,
        "tag": tag.name,
        "samples": expected // 16,
        "bytes": size,
    }


def load_field(path: str) -> PhaseField:
    """Read a KLB1 file into memory; header is validated before the payload."""
    info = field_info(path)  # raises on magic/size/endianness problems
    nx, nv = info["nx"], info["nv"]
    grid = GridSpec(nx, nv, info["Lx"], info["Lv"], storage=Storage.Full)
    with open(path, "rb") as fh:
        fh.seek(HEADER.size)
        flat = np.fromfile(fh, dtype="<c16", count=info["samples"])
    if flat.size != info["samples"]:
        raise KLBFormatError(f"{path}: payload shorter than header promises")
    return PhaseField(grid, flat.reshape(nx + nv, order="F"), FieldTag[info["tag"]])
