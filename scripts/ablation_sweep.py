#!/usr/bin/env python3
"""Sweep the weight-quantizer ablations on synthetic data.

Prints two errors for: equally spaced 2-bit RTN, clustered centers without
the fine-grained split, the full pipeline, and the full pipeline without
block compensation. weighted_error is the squared weight change weighted by
1/diag(H^-1); output_error is trace(dW H dW^T), the layer-output error that
block compensation minimises. Lower is better for both.
"""

import argparse
from dataclasses import replace

import numpy as np

from bwaq import QuantConfig, calibrate, quantize_linear


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--cols", type=int, default=512)
    ap.add_argument("--group-size", type=int, default=128)
    ap.add_argument("--outliers", type=int, default=128)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    base = QuantConfig(group_size=args.group_size, outliers=args.outliers, em_iters=8)
    variants = {
        "rtn 2-bit (equally spaced)": replace(base, weight_mode="rtn"),
        "clustered, no fine group": replace(base, fine_grained=False),
        "full (clustered + fine group)": base,
        "full, no compensation": replace(base, compensate=False),
    }
    totals = {name: ([], []) for name in variants}
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(args.rows, args.cols))
        x = rng.normal(size=(4 * args.cols, args.cols))
        stats = calibrate([x], base)
        for name, cfg in variants.items():
            _, report = quantize_linear(w, stats, cfg)
            totals[name][0].append(report.weighted_error)
            totals[name][1].append(report.output_error)

    print(f"means over {args.seeds} seeds")
    print(f"{'variant':32s} {'weighted_error':>18s} {'output_error':>18s}")
    for name, (weighted, out) in totals.items():
        print(f"{name:32s} {np.mean(weighted):>18.2f} {np.mean(out):>18.2f}")


if __name__ == "__main__":
    main()
