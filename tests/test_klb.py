"""KLB1 field file round-trips and header validation."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from boltzlab import FieldTag, GridSpec, PhaseField, Storage, VSlicedField
from boltzlab.klb import KLBFormatError, dump_field, field_info, load_field


@pytest.fixture
def field():
    g = GridSpec((8, 4, 8), (4, 8, 4), Lx=3.0, Lv=2.0)
    rng = np.random.default_rng(42)
    data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return PhaseField(g, data, FieldTag.Spectral_eta_v)


def test_round_trip_bit_exact(field, tmp_path):
    p = str(tmp_path / "f.klb")
    dump_field(field, p)
    back = load_field(p)
    assert back.grid == field.grid
    assert back.tag is field.tag
    # bit-exact: compare raw float views, not approximately
    assert np.array_equal(back.data.view(np.float64), field.data.view(np.float64))


def test_double_round_trip_identical_bytes(field, tmp_path):
    p1 = str(tmp_path / "a.klb")
    p2 = str(tmp_path / "b.klb")
    dump_field(field, p1)
    dump_field(load_field(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_x_axes_fastest_on_disk(field, tmp_path):
    p = str(tmp_path / "f.klb")
    dump_field(field, p)
    raw = np.frombuffer(open(p, "rb").read()[45:], dtype="<c16")
    # consecutive samples walk the first x axis
    assert raw[1] == field.data[1, 0, 0, 0, 0, 0]
    nx1 = field.grid.nx[0]
    assert raw[nx1] == field.data[0, 1, 0, 0, 0, 0]


def test_info_reads_header_only(field, tmp_path):
    p = str(tmp_path / "f.klb")
    dump_field(field, p)
    meta = field_info(p)
    assert meta["nx"] == (8, 4, 8)
    assert meta["nv"] == (4, 8, 4)
    assert meta["Lx"] == 3.0 and meta["Lv"] == 2.0
    assert meta["tag"] == "Spectral_eta_v"
    assert meta["samples"] == 8 * 4 * 8 * 4 * 8 * 4


def test_bad_magic(field, tmp_path):
    p = str(tmp_path / "f.klb")
    dump_field(field, p)
    raw = bytearray(open(p, "rb").read())
    raw[:4] = b"KLB2"
    open(p, "wb").write(raw)
    with pytest.raises(KLBFormatError, match="bad magic"):
        field_info(p)


def test_truncated_payload(field, tmp_path):
    p = str(tmp_path / "f.klb")
    dump_field(field, p)
    raw = open(p, "rb").read()
    open(p, "wb").write(raw[: len(raw) // 2])
    with pytest.raises(KLBFormatError, match="truncated"):
        field_info(p)
    with pytest.raises(KLBFormatError, match="truncated"):
        load_field(p)


def test_truncated_header(tmp_path):
    p = str(tmp_path / "f.klb")
    open(p, "wb").write(b"KLB1\x08\x00")
    with pytest.raises(KLBFormatError, match="truncated"):
        field_info(p)


def test_byte_swapped_header_reports_endianness(field, tmp_path):
    p = str(tmp_path / "f.klb")
    dump_field(field, p)
    raw = bytearray(open(p, "rb").read())
    # rewrite the axis sizes big-endian: 8 -> 0x08000000 etc.
    sizes = struct.unpack("<6I", bytes(raw[4:28]))
    raw[4:28] = struct.pack(">6I", *sizes)
    open(p, "wb").write(raw)
    with pytest.raises(KLBFormatError, match="endian"):
        field_info(p)


def test_vsliced_dump_streams(tmp_path):
    g = GridSpec((4, 4, 4), (4, 2, 2), Lx=2.0, Lv=1.0, storage=Storage.VSliced)
    rng = np.random.default_rng(7)
    ref = rng.standard_normal((4, 4, 4, 4, 2, 2)) + 0j
    fld = VSlicedField(g, lambda iv: ref[:, :, :, iv[0], iv[1], iv[2]])
    p = str(tmp_path / "s.klb")
    dump_field(fld, p)
    back = load_field(p)
    assert np.array_equal(back.data, ref)


def test_real_field_bytes_match_complex_and_vsliced(tmp_path):
    # a float64 field is written with imaginary part +0.0: the bytes of the
    # same data held as complex128, and of its VSliced twin
    g = GridSpec((4, 4, 4), (4, 2, 2), Lx=2.0, Lv=1.0)
    ref = np.random.default_rng(8).standard_normal(g.shape)
    real = PhaseField(g, ref)
    assert real.data.dtype == np.float64
    twin = VSlicedField(replace(g, storage=Storage.VSliced),
                        lambda iv: ref[:, :, :, iv[0], iv[1], iv[2]])
    dumps = []
    for i, fld in enumerate((real, PhaseField(g, ref + 0j), twin)):
        p = str(tmp_path / f"{i}.klb")
        dump_field(fld, p)
        dumps.append(open(p, "rb").read())
    assert dumps[0] == dumps[1] == dumps[2]
    assert np.array_equal(load_field(str(tmp_path / "0.klb")).data, ref)
