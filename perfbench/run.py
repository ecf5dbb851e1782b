#!/usr/bin/env python3
"""bwaq benchmark: the quantize, decode and prefill workloads.

    python3 perfbench/run.py --workload decode --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the repository root. A run draws a synthetic stack from the seed
(see synth.py), prepares it untimed, then starts worker.py for the timed
phase. decode and prefill first quantize the stack with ``bwaq quantize`` in
a child process, so they serve what the code under test produces.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, taken from spans around the ``bwaq`` module functions.
The lines before it give the machine facts and the workload's figures under
their own names. Run files go to .perfbench_work/.

BLAS gets one thread in the timed phase (see README.md). ``--workload all`` runs the three
workloads one after the other and prints one row per workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quantize", "decode", "prefill")
# a run must end within 180 s; children still running at this point are killed
RUN_DEADLINE_S = 170

# each workload's figures under the names a user of that path knows them by,
# mapped from the benchmark's workload-neutral metrics
NAMED = {
    "quantize": [
        ("setup_s", "setup_s", 1.0, "s"),
        ("quantize_s", "op_ms_p50", 1e-3, "s"),
        ("quantize_s_min", "op_ms_min", 1e-3, "s"),
        ("quantize_s_p90", "op_ms_p90", 1e-3, "s"),
        ("weighted_error", "quality_err", 1.0, "1"),
        ("peak_rss_mb", "peak_rss_mb", 1.0, "MB"),
    ],
    "decode": [
        ("setup_s", "setup_s", 1.0, "s"),
        ("decode_token_ms_p50", "op_ms_p50", 1.0, "ms"),
        ("decode_token_ms_min", "op_ms_min", 1.0, "ms"),
        ("decode_token_ms_p90", "op_ms_p90", 1.0, "ms"),
        ("decode_token_ms_p99", "op_ms_p99", 1.0, "ms"),
        ("output_rel_mse", "quality_err", 1.0, "1"),
        ("peak_rss_mb", "peak_rss_mb", 1.0, "MB"),
    ],
    "prefill": [
        ("setup_s", "setup_s", 1.0, "s"),
        ("prefill_tokens_per_s", "tokens_per_s", 1.0, "1/s"),
        ("prefill_batch_ms_min", "op_ms_min", 1.0, "ms"),
        ("prefill_batch_ms_p90", "op_ms_p90", 1.0, "ms"),
        ("output_rel_mse", "quality_err", 1.0, "1"),
        ("peak_rss_mb", "peak_rss_mb", 1.0, "MB"),
    ],
}


def child_env(threads: int = 1) -> dict:
    env = dict(os.environ)
    # on the shared 2-core host, quantize with two BLAS threads was no faster
    # than with one, and its slowest calls spread far more
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def flush(work: Path) -> None:
    """Write the prepared files to disk, so that their write-back does not
    land in the timed phase."""
    for path in work.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())


def prepare(workload, seed, shape_name, work: Path, env, deadline: float) -> None:
    """Write the seed's stack as BWAT files; quantize it for serving."""
    import synth
    from bwaq import tensorio

    shape = synth.SHAPES[shape_name]
    stack = shape.quantized if workload == "quantize" else shape.served
    weights, calib = synth.make_stack(seed, stack)
    wpaths = [work / f"w{i}.bwat" for i in range(len(weights))]
    for path, w in zip(wpaths, weights):
        tensorio.write_tensor(path, w)
    tensorio.write_tensor(work / "calib.bwat", calib)
    del weights, calib
    if workload == "quantize":
        flush(work)
        return
    cmd = [sys.executable, "-m", "bwaq.cli", "quantize", "--weights", *map(str, wpaths),
           "--calib", str(work / "calib.bwat"), "--nl", "relu", "--json",
           "--out", str(work / "model.bwaq")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"model preparation failed ({proc.returncode}): {proc.stderr.strip()}")
    flush(work)


def run_workload(workload, seed, seconds, trace, shape_name) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{workload}-{shape_name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # the untimed preparation uses every core, to keep runs short
    prepare(workload, seed, shape_name, work, child_env(len(os.sched_getaffinity(0))), deadline)
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "shape": shape_name, "work": str(work)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed ({proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for path in work.iterdir():
        if path.suffix in (".bwat", ".bwaq", ".f64"):
            path.unlink()
    (work / "result.json").write_text(json.dumps({"config": cfg, **result}, indent=1))
    return result


def contract_line(result, spec, trace) -> dict:
    entries = spec["per_layer" if trace else "end_to_end"]
    source = result["per_layer"] if trace else result
    metrics = {
        e["name"]: {"value": source[e["name"]], "unit": e["unit"]}
        for e in entries
        if e["name"] in source
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def named_row(workload, result) -> str:
    cells = [f"{workload:<9}"]
    for name, key, factor, unit in NAMED[workload]:
        if key in result:
            cells.append(f"{name}={result[key] * factor:.6g} {unit}")
    cells.append(f"ops={result['ops']} ops_failed={result['failed']}")
    return "  ".join(cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bwaq" / "__init__.py").is_file():
        print(f"error: no bwaq sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for workload in workloads:
        t0 = time.perf_counter()
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.shape)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
        print(named_row(workload, result) + f"  (run {time.perf_counter() - t0:.1f} s)")
        if args.trace:
            print(f"# spans {result['spans']}")
        lines.append(json.dumps(contract_line(result, spec, args.trace)))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
