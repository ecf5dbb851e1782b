import json

import numpy as np
import pytest

from bwaq import read_model, write_tensor
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


def test_quantize_missing_file(toy_stack, capsys):
    args = _quantize_args(toy_stack)
    args[args.index(str(toy_stack["w0"]))] = str(toy_stack["w0"]) + ".nope"
    assert main(args) == 2
    assert "file not found" in capsys.readouterr().err


def test_inspect_directory_as_model_exits_2(tmp_path, capsys):
    assert main(["inspect", "--model", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path) in err


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
