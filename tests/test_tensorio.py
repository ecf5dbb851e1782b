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


def test_read_returns_writeable_array_of_its_own(tmp_path, rng):
    path = tmp_path / "t.bwat"
    write_tensor(path, rng.normal(size=(300, 8)))
    back = read_tensor(path)
    assert back.flags.writeable and back.flags.owndata and back.flags.c_contiguous


def test_empty_tensor_round_trip(tmp_path):
    path = tmp_path / "t.bwat"
    write_tensor(path, np.zeros((0, 3)))
    assert read_tensor(path).shape == (0, 3)


def test_zero_dim_beside_a_huge_one_rejected(tmp_path):
    # 0 elements, so the size check passes; numpy cannot shape the array
    header = b"BWAT" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 0, 2**63)
    path = tmp_path / "huge.bwat"
    path.write_bytes(header + struct.pack("<B", 1))
    with pytest.raises(FormatError, match="exceed"):
        read_tensor(path)


def test_directory_raises_os_error(tmp_path):
    with pytest.raises(IsADirectoryError):
        read_tensor(tmp_path)


def test_failed_write_keeps_old_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "t.bwat"
    write_tensor(path, rng.normal(size=(4, 3)))
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("bwaq.modelio.os.replace", broken_replace)
    with pytest.raises(OSError, match="No space left on device"):
        write_tensor(path, rng.normal(size=(5, 3)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.bwat"]
