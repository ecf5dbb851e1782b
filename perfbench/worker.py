"""Timed phase of one benchmark run, in a process of its own.

``run.py`` prepares the inputs (and, for decode and prefill, the quantized
model) and then starts this module with one JSON argument. Running the timed
phase apart keeps the preparation out of ``peak_rss_mb``. The last line of
standard output is the result as JSON.

Every operation's output is checked after its timer has stopped; an
operation whose output is wrong counts as failed.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import bwaq
from bwaq import actquant, bitkernel, cli, modelio, tensorio, weightquant

import spans
import synth

SETUP_REPEATS = 21
# untimed steps before the timed loop of decode and prefill, as a share of
# the run's minimum: 50 decode tokens (about 1 s), one prefill batch
WARMUP_SHARE = 20
# functions whose peak allocation a traced run measures, in a separate call
PEAK_ALLOC = ("actquant.plane_corrections", "bitkernel.forward")
# kernel vs dequantize oracle, as max |out - ref| / max |ref| per token; the
# two agree to ~1e-15 in float64, so this leaves room only for reordered sums
ORACLE_RTOL = 1e-9


def relu(x):
    return np.maximum(x, 0.0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    memory at fork time, which holds the untimed preparation.
    """
    with contextlib.suppress(OSError), open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(cfg) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": cfg["seed"],
    }


def alloc_peak_mb(fn, *args) -> float:
    """Peak of the numpy and Python allocations made by one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def latency_stats(op_s, tokens_per_op: int) -> dict:
    ms = np.asarray(op_s) * 1e3
    return {
        "op_ms_min": float(ms.min()),
        "op_ms_p50": float(np.percentile(ms, 50)),
        # gated in place of the p99: on a shared host a decode run's slowest
        # tokens sit in 100-200 ms stalls whose number varies from run to
        # run, and over ten seeds its p99 spread up to 87% (see README.md)
        "op_ms_p90": float(np.percentile(ms, 90)),
        "op_ms_p99": float(np.percentile(ms, 99)),
        "tokens_per_s": tokens_per_op * len(op_s) / float(np.sum(op_s)),
        "ops": len(op_s),
        "op_s": list(op_s),
    }


# --- quantize ---------------------------------------------------------------


def check_quantize(rc: int, out: Path, scratch: Path):
    """(ok, summed weighted_error) for one finished quantize call."""
    if rc != 0:
        return False, None
    data = out.read_bytes()
    layers = modelio.read_model(out)
    modelio.write_model(layers, scratch)
    ok = len(data) == modelio.model_nbytes(layers) and scratch.read_bytes() == data
    report = json.loads(Path(str(out) + ".report.json").read_text())
    return ok, sum(layer["weighted_error"] for layer in report)


def run_quantize(cfg, tracer=None) -> dict:
    work = Path(cfg["work"])
    shape = synth.SHAPES[cfg["shape"]]
    stack = shape.quantized
    inputs = [work / "calib.bwat"] + [work / f"w{i}.bwat" for i in range(stack.layers)]
    out = work / "quantized.bwaq"
    argv = ["quantize", "--weights", *map(str, inputs[1:]), "--calib", str(inputs[0]),
            "--nl", "relu", "--json", "--out", str(out)]

    # set-up: load every tensor the quantizer reads
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for path in inputs:
            tensorio.read_tensor(path)
        setup.append(time.perf_counter() - t0)

    def phase(min_calls, seconds, tracer=None):
        call_s, failed, werr = [], 0, []
        begin = time.perf_counter()
        while len(call_s) < min_calls or time.perf_counter() - begin < seconds:
            if tracer:
                tracer.request = len(call_s)
                tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    call_s.append(time.perf_counter() - t0)
            finally:
                if tracer:
                    tracer.remove()
            ok, err = check_quantize(rc, out, work / "rewritten.bwaq")
            failed += not ok
            werr.append(err)
        return call_s, failed, werr

    result = {"setup_s": float(np.median(setup))}
    if tracer is None:
        call_s, failed, werr = phase(shape.min_quantize, cfg["seconds"])
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        plain_s, _, _ = phase(shape.min_quantize, 0)
        by_path = {str(p): i for i, p in enumerate(inputs[1:])}
        tracer.before["tensorio.read_tensor"] = lambda t, a: setattr(
            t, "layer", by_path.get(str(a[0]), t.layer))
        tracer.before["modelio.write_model"] = lambda t, a: setattr(t, "layer", None)
        call_s, failed, werr = phase(shape.min_quantize, 0, tracer)
        result["overhead_pct"] = 100.0 * (sum(call_s) / sum(plain_s) - 1.0)
        # untimed: tracemalloc slows every allocation while it runs
        result["actquant.plane_corrections.peak_alloc_mb"] = alloc_peak_mb(
            actquant.plane_corrections,
            tensorio.read_tensor(inputs[0]),
            modelio.read_model(out)[0],
        )
    result.update(latency_stats(call_s, stack.calib_tokens))
    result["failed"] = failed
    result["quality_err"] = float(np.median([e for e in werr if e is not None] or [np.nan]))
    return result


# --- decode / prefill -------------------------------------------------------


def quantize_input(layer, x):
    return actquant.quantize_activations(
        x, layer.group_size, layer.outliers, perm=layer.perm, plane_corr=layer.plane_corr
    )


def stack_forward(layers, x, tracer=None):
    """Quantize activations -> bit kernel -> ReLU, for every layer.

    Returns every layer's output; the last one is left without ReLU, as in
    ``bwaq eval``.
    """
    outs = []
    cur = x
    for i, layer in enumerate(layers):
        if tracer:
            tracer.layer = i
        out = bitkernel.forward(layer, quantize_input(layer, cur))
        outs.append(out)
        cur = relu(out) if i + 1 < len(layers) else out
    if tracer:
        tracer.layer = None
    return outs


def warmup_steps(min_steps: int) -> int:
    return max(1, min_steps // WARMUP_SHARE)


def load(model, source, repeats, tracer=None):
    """read_model plus one warm-up pass; returns (layers, seconds per load)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        layers = modelio.read_model(model)
        stack_forward(layers, source.next(1), tracer)
        times.append(time.perf_counter() - t0)
    return layers, times


def serve_loop(layers, source, batch, min_steps, seconds, record, tracer=None):
    """Closed loop with one caller: each step starts when the last returns.

    Each step's input and per-layer outputs go to ``record`` once its timer
    has stopped, so memory does not grow with the number of steps.
    """
    step_s = []
    begin = time.perf_counter()
    while len(step_s) < min_steps or time.perf_counter() - begin < seconds:
        x = source.next(batch)
        if tracer:
            tracer.request = len(step_s)
        t0 = time.perf_counter()
        outs = stack_forward(layers, x, tracer)
        step_s.append(time.perf_counter() - t0)
        record.write(np.stack([x, *outs]).tobytes())
    return step_s


def check_outputs(layers, weights, path, batch):
    """Compare every recorded output with the dequantize oracle.

    Layer i's recorded input is the ReLU of layer i-1's recorded output, so
    each layer is checked on exactly what it was given. The stack is square.
    Returns (failed steps, relative MSE of the last layer against the float
    stack).
    """
    width = layers[0].cols
    rec = np.fromfile(path, dtype=np.float64).reshape(-1, len(layers) + 1, batch, width)
    steps = rec.shape[0]
    bad = np.zeros(steps, dtype=bool)
    cur = rec[:, 0].reshape(-1, width)
    ref_f = cur
    for i, layer in enumerate(layers):
        out = rec[:, i + 1].reshape(-1, width)
        act = quantize_input(layer, cur)
        a_deq = np.concatenate(
            [actquant.reconstruct(act), actquant.reconstruct_outliers(act)], axis=1
        )
        ref = a_deq @ weightquant.dequant_weights(layer, original_order=False).T
        scale = np.maximum(np.abs(ref).max(axis=1), np.finfo(np.float64).tiny)
        err = np.abs(out - ref).max(axis=1) / scale
        bad |= ~(err <= ORACLE_RTOL).reshape(steps, batch).all(axis=1)
        last = i + 1 == len(layers)
        cur = out if last else relu(out)
        ref_f = ref_f @ weights[i].T
        ref_f = ref_f if last else relu(ref_f)
    rel_mse = float(((cur - ref_f) ** 2).mean() / (ref_f**2).mean())
    return int(bad.sum()), rel_mse


def run_serve(cfg, tracer=None) -> dict:
    work = Path(cfg["work"])
    shape = synth.SHAPES[cfg["shape"]]
    decode = cfg["workload"] == "decode"
    batch = 1 if decode else shape.batch
    model = work / "model.bwaq"
    record_path = work / "outputs.f64"

    if tracer is None:
        min_steps = shape.min_decode if decode else shape.min_prefill
        source = synth.TokenSource(cfg["seed"], shape.served)
        layers, setup = load(model, source, SETUP_REPEATS)
        with open(os.devnull, "wb") as sink:
            serve_loop(layers, source, batch, warmup_steps(min_steps), 0, sink)
        with open(record_path, "wb") as record:
            step_s = serve_loop(layers, source, batch, min_steps, cfg["seconds"], record)
        result = {"setup_s": float(np.median(setup)), "peak_rss_mb": peak_rss_mb()}
    else:
        # the same steps twice, on the same tokens: plain, then traced
        steps = shape.trace_decode if decode else shape.trace_prefill
        source = synth.TokenSource(cfg["seed"], shape.served)
        layers, setup = load(model, source, 1)
        with open(os.devnull, "wb") as sink:
            plain_s = serve_loop(layers, source, batch, steps, 0, sink)
        source = synth.TokenSource(cfg["seed"], shape.served)
        tracer.install()
        try:
            tracer.request = "setup"
            layers, setup = load(model, source, 1, tracer)
            with open(record_path, "wb") as record:
                step_s = serve_loop(layers, source, batch, steps, 0, record, tracer)
        finally:
            tracer.remove()
        result = {"setup_s": float(np.median(setup)),
                  "overhead_pct": 100.0 * (sum(step_s) / sum(plain_s) - 1.0)}
        # untimed: tracemalloc slows every allocation while it runs; the
        # layers are all the same shape, so the first one stands for all
        result["bitkernel.forward.peak_alloc_mb"] = alloc_peak_mb(
            bitkernel.forward, layers[0], quantize_input(layers[0], source.next(batch))
        )

    weights = [tensorio.read_tensor(work / f"w{i}.bwat") for i in range(len(layers))]
    failed, rel_mse = check_outputs(layers, weights, record_path, batch)
    result.update(latency_stats(step_s, batch))
    result["failed"] = failed
    result["quality_err"] = rel_mse
    return result


def run(cfg) -> dict:
    tracer = None
    if cfg["trace"]:
        tracer = spans.Tracer(bwaq)
        tracer.after["weightquant.em_binarize"] = spans.em_useful_iterations
        tracer.after["bitkernel.forward"] = spans.forward_work
    body = run_quantize if cfg["workload"] == "quantize" else run_serve
    result = body(cfg, tracer)
    result["machine"] = machine_facts(cfg)
    if tracer is not None:
        per_layer = spans.derived(tracer.metrics())
        per_layer["trace.overhead_pct"] = result.pop("overhead_pct")
        for name in PEAK_ALLOC:
            if f"{name}.calls" in per_layer:
                per_layer[f"{name}.peak_alloc_mb"] = result.pop(f"{name}.peak_alloc_mb", 0.0)
        result["per_layer"] = per_layer
        spans_path = Path(cfg["work"]) / "spans.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    print(json.dumps(run(cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
