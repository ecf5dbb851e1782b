import contextlib
import io
import json
import threading
import time
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
from bwaq import calibration, tensorio, weightquant
from bwaq.actquant import PLANE_CORR_TOKENS
from bwaq.cli import main
from oracles import eval_three_pass


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


def _serial_quantize(weights, calib, cfg, nl):
    """Model and sidecar bytes of the serial walk: calibrate, quantize_linear,
    plane_corrections, propagate, one layer after the other."""
    x = read_tensor(calib)
    acts = [x[i : i + PLANE_CORR_TOKENS] for i in range(0, len(x), PLANE_CORR_TOKENS)]
    layers, reports = [], []
    for path in weights:
        w = read_tensor(path)
        layer, report = quantize_linear(w, calibrate(acts, cfg), cfg)
        layer.plane_corr = plane_corrections(acts, layer)
        layers.append(layer)
        reports.append(report.to_dict())
        acts = [nl(a @ w.T) for a in acts]
    out = io.StringIO()
    json.dump(reports, out, indent=2, sort_keys=True)
    return layers, out.getvalue().encode()


@pytest.mark.parametrize("widths", [(64, 64, 64, 64), (64, 48, 80, 32)], ids=["square", "reshaping"])
@pytest.mark.parametrize("nl", ["none", "relu"])
def test_quantize_matches_the_serial_walk_byte_for_byte(tmp_path, rng, widths, nl):
    weights = [tmp_path / f"w{i}.bwat" for i in range(len(widths) - 1)]
    for path, c_in, c_out in zip(weights, widths, widths[1:]):
        write_tensor(path, rng.normal(size=(c_out, c_in)) / np.sqrt(c_in))
    write_tensor(tmp_path / "calib.bwat", rng.normal(size=(600, widths[0])))
    model = tmp_path / "model.bwaq"
    argv = [
        "quantize", "--weights", *map(str, weights), "--calib", str(tmp_path / "calib.bwat"),
        "--group-size", "16", "--outliers", "16", "--nl", nl, "--out", str(model),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    cfg = QuantConfig(group_size=16, outliers=16)
    act = (lambda y: y) if nl == "none" else (lambda y: np.maximum(y, 0.0))
    layers, sidecar = _serial_quantize(weights, tmp_path / "calib.bwat", cfg, act)
    write_model(layers, tmp_path / "expected.bwaq")
    assert model.read_bytes() == (tmp_path / "expected.bwaq").read_bytes()
    assert (tmp_path / "model.bwaq.report.json").read_bytes() == sidecar


def test_quantize_overlaps_at_most_one_layer(tmp_path, rng, monkeypatch):
    # layer i's quantize_linear holds until layer i + 1 is calibrated, which
    # a serial walk never reaches, and then lingers: the main thread must
    # still wait for it before it calibrates layer i + 2
    argv = _square_relu_stack(tmp_path, rng, 300, width=64, layers=4)
    real_calibrate, real_quantize = calibration.calibrate, weightquant.quantize_linear
    calibrated = [threading.Event() for _ in range(4)]
    lock = threading.Lock()
    running, most, done, overlapped, done_at_calibrate = [0], [0], [], [], []

    def counting_calibrate(*args, **kwargs):
        done_at_calibrate.append(len(done))
        stats = real_calibrate(*args, **kwargs)
        calibrated[len(done_at_calibrate) - 1].set()
        return stats

    def counting_quantize(*args, **kwargs):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            layer = len(done) + running[0] - 1
        if layer < 3:
            overlapped.append(calibrated[layer + 1].wait(timeout=30))
            time.sleep(0.05)
        try:
            return real_quantize(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1
                done.append(layer)

    monkeypatch.setattr(calibration, "calibrate", counting_calibrate)
    monkeypatch.setattr(weightquant, "quantize_linear", counting_quantize)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--group-size", "16", "--outliers", "16"]) == 0
    assert most[0] == 1 and done == [0, 1, 2, 3]
    assert overlapped == [True, True, True]
    assert done_at_calibrate == [0, 0, 1, 2]


def test_quantize_worker_error_exits_like_a_serial_walk(tmp_path, rng, capsys):
    # layer 1 of 3 has a NaN weight: its quantization fails on the worker,
    # while the main thread has already propagated NaN into layer 2's inputs
    argv = _square_relu_stack(tmp_path, rng, 300, width=64, layers=3)
    w = read_tensor(tmp_path / "w1.bwat")
    w[5, 7] = np.nan
    write_tensor(tmp_path / "w1.bwat", w)
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--group-size", "16", "--outliers", "16"]) == 3
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == "error: non-finite weights\n"
    assert not (tmp_path / "model.bwaq").exists()
    assert not (tmp_path / "model.bwaq.report.json").exists()
    assert threading.active_count() == threads


def test_quantize_main_thread_error_while_worker_busy(tmp_path, rng, capsys, monkeypatch):
    # layer 2's weight file is rank 3; layer 1's quantization is held on the
    # worker until the main thread has read that file
    argv = _square_relu_stack(tmp_path, rng, 300, width=64, layers=3)
    write_tensor(tmp_path / "w2.bwat", rng.normal(size=(2, 64, 64)))
    real_read, real_quantize = tensorio.read_tensor, weightquant.quantize_linear
    bad_read = threading.Event()
    finished = []

    def read(path, *args, **kwargs):
        if str(path).endswith("w2.bwat"):
            bad_read.set()
        return real_read(path, *args, **kwargs)

    def held_quantize(*args, **kwargs):
        if len(finished) == 1:
            assert bad_read.wait(timeout=30)
        result = real_quantize(*args, **kwargs)
        finished.append(True)
        return result

    monkeypatch.setattr(tensorio, "read_tensor", read)
    monkeypatch.setattr(weightquant, "quantize_linear", held_quantize)
    threads = threading.active_count()
    assert main([*argv, "--group-size", "16", "--outliers", "16"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "w2.bwat: weight tensor must be rank 2, got 3" in err
    assert len(finished) == 2  # the worker's layer ran to its end first
    assert not (tmp_path / "model.bwaq").exists()
    assert not (tmp_path / "model.bwaq.report.json").exists()
    assert threading.active_count() == threads


def test_quantize_tiny_clip_exits_3_with_one_line(tmp_path, rng, capsys):
    write_tensor(tmp_path / "w.bwat", rng.normal(size=(16, 48)))
    write_tensor(tmp_path / "calib.bwat", rng.normal(size=(96, 48)))
    argv = [
        "quantize", "--weights", str(tmp_path / "w.bwat"), "--calib",
        str(tmp_path / "calib.bwat"), "--group-size", "16", "--outliers", "16",
        "--clip", "1e-310", "--out", str(tmp_path / "model.bwaq"),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: clip 1e-310 ")
    assert not (tmp_path / "model.bwaq").exists()


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


def test_eval_peak_memory_grows_by_at_most_two_activation_copies(tmp_path):
    rng = np.random.default_rng(0)
    quantize = _square_relu_stack(tmp_path, rng, 1024, layers=3)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(quantize) == 0
    peaks = {}
    for tokens in (1024, 8192):
        write_tensor(tmp_path / "inputs.bwat", rng.normal(size=(tokens, 256)))
        argv = [
            "eval", "--model", str(tmp_path / "model.bwaq"), "--inputs",
            str(tmp_path / "inputs.bwat"), "--reference",
            *(str(tmp_path / f"w{i}.bwat") for i in range(3)), "--nl", "relu",
        ]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peaks[tokens] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    copy = (8192 - 1024) * 256 * 8  # one float64 copy of the added tokens
    assert peaks[8192] - peaks[1024] <= 2.25 * copy, (peaks[8192] - peaks[1024]) / copy


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


@pytest.mark.parametrize("widths", [(64, 64, 64, 64), (64, 48, 80, 32)], ids=["square", "reshaping"])
@pytest.mark.parametrize("nl", ["none", "relu"])
@pytest.mark.parametrize("rtn2", [False, True], ids=["plain", "rtn2"])
def test_eval_matches_the_three_pass_walk(tmp_path, rng, widths, nl, rtn2):
    weights = [tmp_path / f"w{i}.bwat" for i in range(len(widths) - 1)]
    for path, c_in, c_out in zip(weights, widths, widths[1:]):
        write_tensor(path, rng.normal(size=(c_out, c_in)) / np.sqrt(c_in))
    write_tensor(tmp_path / "calib.bwat", rng.normal(size=(300, widths[0])))
    x = rng.normal(size=(600, widths[0]))
    write_tensor(tmp_path / "inputs.bwat", x)
    model = tmp_path / "model.bwaq"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "quantize", "--weights", *map(str, weights), "--calib",
            str(tmp_path / "calib.bwat"), "--group-size", "16", "--outliers", "16",
            "--nl", nl, "--out", str(model),
        ]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([
            "eval", "--model", str(model), "--inputs", str(tmp_path / "inputs.bwat"),
            "--reference", *map(str, weights), "--nl", nl, "--json",
            *(["--compare-rtn2"] if rtn2 else []),
        ]) == 0
    report = json.loads(out.getvalue())
    refs = [read_tensor(p) for p in weights]
    expected = eval_three_pass(read_model(model), refs, x, nl == "relu", 0.01, rtn2)
    assert set(report) == set(expected) | {"timings"}
    assert set(report["timings"]) == {"float_stack", "quant_stack", "weight_error"}
    for key, value in expected.items():
        np.testing.assert_allclose(report[key], value, rtol=1e-12, atol=0, err_msg=key)


@pytest.mark.parametrize(
    "value, message",
    [(1e160, "error: hessian contains non-finite values\n"),
     (np.nan, "error: sample 1 (tokens 256-511) contains non-finite values\n")],
    ids=["huge", "nan"],
)
def test_eval_non_finite_activations_exit_3_with_one_line(toy_stack, rng, capsys, value, message):
    assert main(_quantize_args(toy_stack)) == 0
    x = rng.normal(size=(600, 64))
    x[300, 5] = value
    write_tensor(toy_stack["inputs"], x)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([
            "eval", "--model", str(toy_stack["model"]), "--inputs", str(toy_stack["inputs"]),
            "--reference", str(toy_stack["w0"]), str(toy_stack["w1"]),
        ]) == 3
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == message


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
