#!/usr/bin/env python3
"""End-to-end demo: synthesize a stack, quantize it, inspect, evaluate, bench.

Equivalent to running the bwaq CLI by hand; see README for the commands.
"""

import argparse
import subprocess
import sys
from pathlib import Path


def run(cmd) -> None:
    print(f"$ {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work-dir", default="synthetic")
    ap.add_argument("--layers", type=int, default=3)
    ap.add_argument("--width", type=int, default=512)
    args = ap.parse_args()

    work = Path(args.work_dir)
    py = sys.executable
    run(
        [
            py,
            str(Path(__file__).with_name("make_synthetic.py")),
            "--out-dir",
            str(work),
            "--layers",
            str(args.layers),
            "--width",
            str(args.width),
        ]
    )
    weights = [str(work / f"w{i}.bwat") for i in range(args.layers)]
    model = str(work / "model.bwaq")
    run(
        [py, "-m", "bwaq.cli", "quantize", "--weights", *weights,
         "--calib", str(work / "calib.bwat"), "--group-size", "128",
         "--outliers", "128", "--damp", "0.01",
         "--nl", "relu", "--out", model]
    )
    run([py, "-m", "bwaq.cli", "inspect", "--model", model])
    run(
        [py, "-m", "bwaq.cli", "eval", "--model", model,
         "--inputs", str(work / "inputs.bwat"), "--reference", *weights,
         "--nl", "relu", "--compare-rtn2"]
    )
    run([py, "-m", "bwaq.cli", "bench", "--shapes", "1x512x512,16x512x512", "--iters", "10"])


if __name__ == "__main__":
    main()
