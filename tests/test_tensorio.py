import struct

import numpy as np
import pytest

from bwaq import FormatError, read_tensor, write_tensor


def test_round_trip_f64(tmp_path, rng):
    arr = rng.normal(size=(7, 5))
    path = tmp_path / "t.bwat"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_round_trip_f32(tmp_path, rng):
    arr = rng.normal(size=(3, 4, 2)).astype(np.float32)
    path = tmp_path / "t.bwat"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bwat"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="bad magic"):
        read_tensor(path)


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "t.bwat"
    write_tensor(path, rng.normal(size=(4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="unexpected end"):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "t.bwat"
    write_tensor(path, rng.normal(size=(4, 4)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        read_tensor(path)


def test_dims_whose_product_overflows_int64_rejected(tmp_path):
    # 2^32 x 2^32 elements: a wrapped int64 product would read 0 elements
    header = b"BWAT" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2**32, 2**32)
    path = tmp_path / "huge.bwat"
    path.write_bytes(header + struct.pack("<B", 1))
    with pytest.raises(FormatError, match="unexpected end of file"):
        read_tensor(path)
