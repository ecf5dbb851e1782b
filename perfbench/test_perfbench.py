"""Tests of the benchmark itself, at tiny shapes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import worker  # noqa: E402
from bwaq import bitkernel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["quantize", "decode", "prefill"])
def test_workload_runs_end_to_end(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--shape", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    entries = SPEC["per_layer" if trace else "end_to_end"]
    assert {e["name"]: e["unit"] for e in entries} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_perturbed_forward_output_counts_as_failed(tmp_path, monkeypatch):
    shape = synth.SHAPES["tiny"]
    run.prepare("decode", 3, "tiny", tmp_path, run.child_env(), time.monotonic() + 60)
    original = bitkernel.forward
    calls = []
    # one timed step's second layer, after the set-up and warm-up passes
    layers = shape.served.layers
    untimed = worker.SETUP_REPEATS + worker.warmup_steps(shape.min_decode)
    perturb_at = (untimed + 2) * layers + 1

    def perturbed(layer, act):
        out = original(layer, act)
        calls.append(None)
        return out * (1 + 1e-6) if len(calls) - 1 == perturb_at else out

    monkeypatch.setattr(bitkernel, "forward", perturbed)
    cfg = {"workload": "decode", "seed": 3, "seconds": 0, "trace": 0,
           "shape": "tiny", "work": str(tmp_path)}
    result = worker.run_serve(cfg)
    assert result["ops"] == shape.min_decode
    assert result["failed"] == 1


def test_tracer_self_time_and_missing_target():
    mod = types.ModuleType("fake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    package = types.SimpleNamespace(fake=mod)
    tracer = spans.Tracer(
        package, targets=(("fake", "outer"), ("fake", "inner"), ("fake", "gone"))
    )
    tracer.install()
    try:
        tracer.request = 0
        mod.outer()
        mod.outer()
    finally:
        tracer.remove()
    assert mod.outer is outer and mod.inner is inner
    m = tracer.metrics()
    assert "fake.gone.s" not in m
    assert m["fake.outer.calls"] == m["fake.inner.calls"] == 2
    assert m["fake.outer.self_s"] == pytest.approx(m["fake.outer.s"] - m["fake.inner.s"])
    assert 0.015 < m["fake.outer.self_s"] < m["fake.inner.s"]
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner"] * 2
    assert parents == [-1, 0, -1, 2]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "decode", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
