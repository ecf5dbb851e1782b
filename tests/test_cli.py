import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from bwaq import (
    QuantConfig,
    calibrate,
    plane_corrections,
    quantize_linear,
    read_model,
    read_tensor,
    write_model,
    write_tensor,
)
from bwaq.actquant import PLANE_CORR_TOKENS
from bwaq.cli import main


@pytest.fixture
def toy_stack(tmp_path, rng):
    """Two-layer MLP tensors plus calibration and eval inputs."""
    c0, c1, c2 = 64, 48, 32
    w0 = rng.normal(size=(c1, c0))
    w1 = rng.normal(size=(c2, c1))
    calib = rng.normal(size=(96, c0))
    inputs = rng.normal(size=(40, c0))
    paths = {
        "w0": tmp_path / "w0.bwat",
        "w1": tmp_path / "w1.bwat",
        "calib": tmp_path / "calib.bwat",
        "inputs": tmp_path / "inputs.bwat",
        "model": tmp_path / "model.bwaq",
    }
    write_tensor(paths["w0"], w0)
    write_tensor(paths["w1"], w1)
    write_tensor(paths["calib"], calib)
    write_tensor(paths["inputs"], inputs)
    return paths


def _quantize_args(paths, extra=()):
    return [
        "quantize",
        "--weights",
        str(paths["w0"]),
        str(paths["w1"]),
        "--calib",
        str(paths["calib"]),
        "--group-size",
        "16",
        "--outliers",
        "16",
        "--em-iters",
        "4",
        "--out",
        str(paths["model"]),
        *extra,
    ]


def test_quantize_smoke(toy_stack, capsys):
    assert main(_quantize_args(toy_stack)) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert toy_stack["model"].exists()
    assert (toy_stack["model"].parent / "model.bwaq.report.json").exists()
    layers = read_model(toy_stack["model"])
    assert len(layers) == 2
    assert layers[0].rows == 48 and layers[0].cols == 64


def test_quantize_nan_past_first_block_exits_3(toy_stack, rng, capsys):
    calib = rng.normal(size=(PLANE_CORR_TOKENS + 44, 64))
    calib[-1, -1] = np.nan
    write_tensor(toy_stack["calib"], calib)
    assert main(_quantize_args(toy_stack)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"tokens {PLANE_CORR_TOKENS}-{PLANE_CORR_TOKENS + 43}" in err
    assert "non-finite" in err
    assert not toy_stack["model"].exists()
    assert not (toy_stack["model"].parent / "model.bwaq.report.json").exists()


def _square_relu_stack(tmp_path, rng, tokens, width=256, layers=2):
    weights = [tmp_path / f"w{i}.bwat" for i in range(layers)]
    for path in weights:
        write_tensor(path, rng.normal(size=(width, width)) / np.sqrt(width))
    write_tensor(tmp_path / "calib.bwat", rng.normal(size=(tokens, width)))
    return [
        "quantize", "--weights", *map(str, weights), "--calib", str(tmp_path / "calib.bwat"),
        "--nl", "relu", "--out", str(tmp_path / "model.bwaq"),
    ]


def test_quantize_walks_the_documented_block_pipeline(tmp_path, rng):
    # square layers overwrite each calibration block with its output in place;
    # the stack must still be what the library calls give on fresh blocks
    argv = _square_relu_stack(tmp_path, rng, 600, width=64, layers=3)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--group-size", "16", "--outliers", "16"]) == 0
    x = read_tensor(tmp_path / "calib.bwat")
    acts = [x[i : i + PLANE_CORR_TOKENS] for i in range(0, 600, PLANE_CORR_TOKENS)]
    cfg = QuantConfig(group_size=16, outliers=16)
    expected = []
    for i in range(3):
        w = read_tensor(tmp_path / f"w{i}.bwat")
        layer, _ = quantize_linear(w, calibrate(acts, cfg), cfg)
        layer.plane_corr = plane_corrections(acts, layer)
        expected.append(layer)
        acts = [np.maximum(a @ w.T, 0.0) for a in acts]
    write_model(expected, tmp_path / "expected.bwaq")
    assert (tmp_path / "model.bwaq").read_bytes() == (tmp_path / "expected.bwaq").read_bytes()


def test_quantize_peak_memory_grows_by_at_most_two_activation_copies(tmp_path):
    peaks = {}
    for tokens in (1024, 8192):
        argv = _square_relu_stack(tmp_path, np.random.default_rng(0), tokens)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peaks[tokens] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    copy = (8192 - 1024) * 256 * 8  # one float64 copy of the added tokens
    assert peaks[8192] - peaks[1024] <= 2.0 * copy, (peaks[8192] - peaks[1024]) / copy


def test_quantize_missing_file(toy_stack, capsys):
    args = _quantize_args(toy_stack)
    args[args.index(str(toy_stack["w0"]))] = str(toy_stack["w0"]) + ".nope"
    assert main(args) == 2
    assert "file not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quantize", "eval"])
def test_zero_channel_matrix_exits_3(toy_stack, capsys, command):
    if command == "quantize":
        write_tensor(toy_stack["calib"], np.zeros((3, 0)))
        args = _quantize_args(toy_stack)
        path = toy_stack["calib"]
    else:
        assert main(_quantize_args(toy_stack)) == 0
        capsys.readouterr()
        write_tensor(toy_stack["inputs"], np.zeros((3, 0)))
        path = toy_stack["inputs"]
        args = [
            "eval",
            "--model",
            str(toy_stack["model"]),
            "--inputs",
            str(path),
            "--reference",
            str(toy_stack["w0"]),
            str(toy_stack["w1"]),
        ]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err and "zero channels" in err


@pytest.mark.parametrize("command", ["quantize", "eval"])
def test_zero_token_matrix_exits_3(toy_stack, capsys, command):
    if command == "quantize":
        path = toy_stack["calib"]
        args = _quantize_args(toy_stack)
    else:
        assert main(_quantize_args(toy_stack)) == 0
        capsys.readouterr()
        path = toy_stack["inputs"]
        args = [
            "eval",
            "--model",
            str(toy_stack["model"]),
            "--inputs",
            str(path),
            "--reference",
            str(toy_stack["w0"]),
            str(toy_stack["w1"]),
        ]
    write_tensor(path, np.zeros((0, 64)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 3
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err and "zero tokens" in err


def test_inspect_directory_as_model_exits_2(tmp_path, capsys):
    assert main(["inspect", "--model", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path) in err


def test_inspect_more_outliers_than_columns_exits_3(tmp_path, capsys):
    # rows 1, cols 4, B 1, K 8: (4 - 8) % 1 == 0 passes the grouping check
    path = tmp_path / "m.bwaq"
    path.write_bytes(b"BWAQ" + np.array([1, 1, 1, 4, 1, 8], dtype="<u4").tobytes())
    assert main(["inspect", "--model", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "8 outlier columns exceed its 4 columns" in err


def test_failed_sidecar_write_keeps_old_sidecar(toy_stack, monkeypatch):
    sidecar = toy_stack["model"].parent / "model.bwaq.report.json"
    assert main(_quantize_args(toy_stack)) == 0
    before = sidecar.read_bytes()
    listing = sorted(p.name for p in sidecar.parent.iterdir())

    def broken_dump(obj, fh, **kwargs):
        fh.write("[")
        raise ValueError("serialization failed")

    monkeypatch.setattr("bwaq.cli.json.dump", broken_dump)
    with pytest.raises(ValueError, match="serialization failed"):
        main(_quantize_args(toy_stack))
    assert sidecar.read_bytes() == before
    assert sorted(p.name for p in sidecar.parent.iterdir()) == listing


def test_quantize_bad_grouping(toy_stack, capsys):
    args = _quantize_args(toy_stack)
    args[args.index("--group-size") + 1] = "40"
    assert main(args) == 2
    assert "group_size" in capsys.readouterr().err or "multiple" in capsys.readouterr().err


def test_quantize_deterministic(toy_stack):
    assert main(_quantize_args(toy_stack)) == 0
    first = toy_stack["model"].read_bytes()
    first_report = json.loads(
        (toy_stack["model"].parent / "model.bwaq.report.json").read_text()
    )
    assert main(_quantize_args(toy_stack)) == 0
    assert toy_stack["model"].read_bytes() == first
    second_report = json.loads(
        (toy_stack["model"].parent / "model.bwaq.report.json").read_text()
    )
    assert first_report == second_report


def test_eval_reports_finite_metrics(toy_stack, capsys):
    assert main(_quantize_args(toy_stack)) == 0
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--model",
            str(toy_stack["model"]),
            "--inputs",
            str(toy_stack["inputs"]),
            "--reference",
            str(toy_stack["w0"]),
            str(toy_stack["w1"]),
            "--nl",
            "relu",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["per_layer_mse"]) == 2
    assert all(np.isfinite(v) and v >= 0 for v in report["per_layer_mse"])
    assert np.isfinite(report["end_to_end_mse"])
    assert report["bits_per_weight"] > 0
    assert set(report["timings"]) == {"float_stack", "quant_stack", "weight_error"}


def test_eval_self_consistency_on_dequantized_reference(toy_stack, tmp_path, capsys):
    # evaluating the model against its own dequantized weights: the weight
    # error term vanishes and the output error reduces to activation noise
    assert main(_quantize_args(toy_stack)) == 0
    from bwaq import dequant_weights

    layers = read_model(toy_stack["model"])
    refs = []
    for i, layer in enumerate(layers):
        p = tmp_path / f"deq{i}.bwat"
        write_tensor(p, dequant_weights(layer))
        refs.append(str(p))
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--model",
            str(toy_stack["model"]),
            "--inputs",
            str(toy_stack["inputs"]),
            "--reference",
            *refs,
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(v <= 1e-12 for v in report["weighted_weight_error"])


def test_eval_compare_rtn2_direction(toy_stack, capsys):
    assert main(_quantize_args(toy_stack)) == 0
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--model",
            str(toy_stack["model"]),
            "--inputs",
            str(toy_stack["inputs"]),
            "--reference",
            str(toy_stack["w0"]),
            str(toy_stack["w1"]),
            "--compare-rtn2",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for ours, rtn in zip(
        report["weighted_weight_error"], report["rtn2_weighted_weight_error"]
    ):
        assert ours < rtn


def test_eval_shape_mismatch_exit_2(toy_stack, capsys):
    assert main(_quantize_args(toy_stack)) == 0
    code = main(
        [
            "eval",
            "--model",
            str(toy_stack["model"]),
            "--inputs",
            str(toy_stack["inputs"]),
            "--reference",
            str(toy_stack["w1"]),
            str(toy_stack["w0"]),
        ]
    )
    assert code == 2


def test_bench_smoke(capsys):
    assert main(["bench", "--shapes", "1x128x128", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "kernel" in out


def test_bench_csv(capsys):
    assert main(["bench", "--shapes", "1x128x128", "--iters", "2", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tokens,c_in,c_out,kernel_ms,gemm_ms,ratio"
    assert len(lines) == 2


def test_inspect_prints_layers(toy_stack, capsys):
    assert main(_quantize_args(toy_stack)) == 0
    capsys.readouterr()
    assert main(["inspect", "--model", str(toy_stack["model"])]) == 0
    out = capsys.readouterr().out
    assert "2 layers" in out
    assert "bits/weight" in out
    assert "quantization" in out  # sidecar report was found


def test_inspect_json(toy_stack, capsys):
    assert main(_quantize_args(toy_stack)) == 0
    capsys.readouterr()
    assert main(["inspect", "--model", str(toy_stack["model"]), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["layer_count"] == 2
    assert "report" in info
