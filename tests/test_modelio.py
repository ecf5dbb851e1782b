import numpy as np
import pytest

from bwaq import (
    DataError,
    FormatError,
    forward,
    layer_nbytes,
    model_nbytes,
    read_model,
    write_model,
)
from bwaq.bitkernel import random_activations, random_layer
from bwaq.modelio import inspect_model


def test_empty_model_is_header_only(tmp_path):
    path = tmp_path / "m.bwaq"
    write_model([], path)
    assert path.stat().st_size == 12
    assert read_model(path) == []


def test_layer_size_formula_matches_file(tmp_path, rng):
    for rows, cols, b, k in [(8, 64, 16, 16), (5, 70, 70, 0), (3, 200, 64, 8)]:
        layer = random_layer(rng, rows, cols, b, k)
        path = tmp_path / "m.bwaq"
        write_model([layer], path)
        assert path.stat().st_size == 12 + layer_nbytes(rows, cols, b, k)
        assert model_nbytes([layer]) == path.stat().st_size


def test_large_layer_size_formula():
    # 4096x4096, B=128, K=128: 31 groups of 2 words
    expect = (
        16
        + 4 * 4096
        + 2 * 8 * 4096 * 31 * 2
        + 16 * 4096 * 31
        + 4096 * 128
        + 8 * 4096
        + 16 * 31
    )
    assert layer_nbytes(4096, 4096, 128, 128) == expect == 6_668_800


def test_round_trip_bytes_and_forward(tmp_path, rng):
    for trial in range(10):
        group = int(rng.choice([16, 64, 128]))
        outliers = int(rng.choice([0, 16]))
        cols = outliers + group * int(rng.integers(1, 4))
        layer = random_layer(rng, int(rng.integers(1, 40)), cols, group, outliers)
        path = tmp_path / f"m{trial}.bwaq"
        write_model([layer], path)
        first = path.read_bytes()
        (back,) = read_model(path)
        write_model([back], path)
        assert path.read_bytes() == first

        act = random_activations(rng, 3, layer)
        assert np.array_equal(forward(layer, act), forward(back, act))


def test_serialization_is_canonical(tmp_path, rng):
    layer = random_layer(rng, 6, 96, 32, 0)
    p1, p2 = tmp_path / "a.bwaq", tmp_path / "b.bwaq"
    write_model([layer], p1)
    write_model([read_model(p1)[0]], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bwaq"
    path.write_bytes(b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="bad magic"):
        read_model(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.bwaq"
    path.write_bytes(b"BWAQ\x09\x00\x00\x00\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="version"):
        read_model(path)


def test_truncation_reports_offset(tmp_path, rng):
    layer = random_layer(rng, 4, 32, 16, 0)
    path = tmp_path / "m.bwaq"
    write_model([layer], path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(FormatError, match="unexpected end of file at byte"):
        read_model(path)


def test_invalid_grouping_reports_layer_index(tmp_path, rng):
    layer = random_layer(rng, 4, 32, 16, 0)
    path = tmp_path / "m.bwaq"
    write_model([layer], path)
    data = bytearray(path.read_bytes())
    # corrupt the group_size field of layer 0 (offset 12 + 8)
    data[20:24] = (5).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="layer 0"):
        read_model(path)


def test_trailing_garbage_rejected(tmp_path, rng):
    layer = random_layer(rng, 4, 32, 16, 0)
    path = tmp_path / "m.bwaq"
    write_model([layer], path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_model(path)


@pytest.mark.parametrize("failure", ["invalid_second_layer", "rename"])
def test_failed_write_keeps_old_file(tmp_path, rng, monkeypatch, failure):
    path = tmp_path / "m.bwaq"
    good = random_layer(rng, 8, 64, 16, 16)
    write_model([good, good], path)
    before = path.read_bytes()
    bad = random_layer(rng, 8, 64, 16, 16)
    if failure == "invalid_second_layer":
        bad.affine[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite affine"):
            write_model([good, bad], path)
    else:

        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("bwaq.modelio.os.replace", broken_replace)
        with pytest.raises(FormatError, match="No space left on device"):
            write_model([bad], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.bwaq"]


def test_inspect_reports_bits_per_weight(tmp_path, rng):
    layer = random_layer(rng, 8, 64, 16, 16)
    path = tmp_path / "m.bwaq"
    write_model([layer, layer], path)
    info = inspect_model(path)
    assert info["layer_count"] == 2
    nbytes = layer_nbytes(8, 64, 16, 16)
    assert info["layers"][0]["bytes"] == nbytes
    assert info["bits_per_weight"] == pytest.approx(
        (12 + 2 * nbytes) * 8 / (2 * 8 * 64)
    )


def test_non_finite_plane_correction_rejected(tmp_path, rng):
    layer = random_layer(rng, 4, 32, 16, 0)
    path = tmp_path / "m.bwaq"
    write_model([layer], path)
    data = bytearray(path.read_bytes())
    # plane_corr is the layer's last field; overwrite its last float32
    data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="layer 0: non-finite plane corrections"):
        read_model(path)
