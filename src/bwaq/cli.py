"""Command-line front end: quantize, eval, bench, inspect.

Exit codes: 0 success, 2 usage/config error or an unreadable path, 3 data
error, 4 internal invariant failure. All output goes to stdout; pass --json
for a machine-readable report.

quantize and eval walk the stack over blocks of actquant.PLANE_CORR_TOKENS
tokens: row views of the arrays read from the tensor files. A layer that
keeps the width writes its outputs over the blocks (_store), so a stack of
such layers never holds a second copy; one that changes the width replaces
them block by block. quantize holds its calibration set once; every
per-layer stage (Hessian, plane corrections, propagation) consumes its
blocks. eval holds its inputs twice, the float chain (views of the inputs)
and the quantized chain (one copy): per layer it calibrates the float
blocks for the weight error, then runs each block through the reference
and the quantized layer. Its timings are per-stage sums over blocks.

The float chain never reads quantized weights, so while one worker thread
runs quantize_linear on layer i, the main thread propagates layer i's
outputs, then reads, calibrates and learns the plane corrections (from the
calibration's perm) of layer i+1; it also writes the model. It waits for
layer i before it hands over layer i+1, so at most one layer is in flight
and one more layer's weights and stats are alive: 3 C^2 float64 (6 MB at
C=512, 384 MB at C=4096). An error ends the call as in a serial walk: the
earlier layer's error wins, and the worker has stopped before it returns.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import actquant, bitkernel, calibration, modelio, tensorio, weightquant
from .config import QuantConfig
from .errors import ConfigError, DataError, InternalError


def _load_matrix(path) -> np.ndarray:
    """A tensor file as a float64 token-major matrix; no copy if it is float64."""
    arr = tensorio.read_tensor(path)
    if arr.ndim < 2:
        raise DataError(f"{path}: expected a matrix, got rank {arr.ndim}")
    if arr.shape[-1] == 0:
        raise DataError(f"{path}: tensor has zero channels, shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{path}: tensor has zero tokens, shape {arr.shape}")
    return np.asarray(arr.reshape(-1, arr.shape[-1]), dtype=np.float64)


def _token_blocks(x) -> list:
    """Row views of x, PLANE_CORR_TOKENS tokens each."""
    step = actquant.PLANE_CORR_TOKENS
    return [x[i : i + step] for i in range(0, len(x), step)]


def _store(blocks, k, out) -> None:
    """Put a layer's output in place of block k: written over the block when
    the layer keeps the width, so a stack of such layers never holds a second
    copy; swapped in for the block when it changes the width."""
    if out.shape == blocks[k].shape:
        blocks[k][...] = out
    else:
        blocks[k] = out


def _nonlinearity(name: str):
    """The activation function; it overwrites its argument."""
    if name == "none":
        return lambda x: x
    if name == "relu":
        return lambda x: np.maximum(x, 0.0, out=x)
    raise ConfigError(f"unknown nonlinearity {name!r}")


def cmd_quantize(args) -> int:
    cfg = QuantConfig(
        group_size=args.group_size,
        outliers=args.outliers,
        em_iters=args.em_iters,
        damp=args.damp,
        clip_ratio=args.clip,
    )
    cfg.validate()
    nl = _nonlinearity(args.nl)
    acts = [blk for p in args.calib for blk in _token_blocks(_load_matrix(p))]
    futures, corrs = [], []
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for i, wpath in enumerate(args.weights):
                w = tensorio.read_tensor(wpath)
                if w.ndim != 2:
                    raise DataError(f"{wpath}: weight tensor must be rank 2, got {w.ndim}")
                if w.shape[1] != acts[0].shape[1]:
                    raise ConfigError(
                        f"{wpath}: weight has {w.shape[1]} input channels but calibration "
                        f"activations have {acts[0].shape[1]}"
                    )
                cfg.validate(n_cols=w.shape[1])
                stats = calibration.calibrate(acts, cfg)
                corrs.append(actquant.plane_corrections(acts, cfg, stats.perm))
                if futures:
                    futures[-1].result()  # at most one layer in flight
                futures.append(worker.submit(weightquant.quantize_linear, w, stats, cfg))
                if i + 1 < len(args.weights):
                    for k, blk in enumerate(acts):
                        _store(acts, k, nl(blk @ w.T))
        except Exception:
            # a serial walk would have met the earlier layer's error first
            if futures and futures[-1].exception() is not None:
                raise futures[-1].exception() from None
            raise
    done = [f.result() for f in futures]
    layers = [replace(layer, plane_corr=c) for (layer, _), c in zip(done, corrs)]
    reports = [report.to_dict() for _, report in done]
    modelio.write_model(layers, args.out)
    elapsed = time.perf_counter() - t0

    sidecar = str(args.out) + ".report.json"
    with modelio.atomic_output(sidecar, "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)

    summary = {
        "model": str(args.out),
        "report": sidecar,
        "layers": reports,
        "total_bytes": modelio.model_nbytes(layers),
        "seconds": elapsed,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"wrote {args.out} ({summary['total_bytes']} bytes, {len(layers)} layers)")
        for i, rep in enumerate(reports):
            print(
                f"  layer {i}: {rep['rows']}x{rep['cols']} "
                f"em_loss={rep['em_loss']:.6g} weighted_error={rep['weighted_error']:.6g} "
                f"bits/weight={rep['bits_per_weight']:.3f}"
            )
        print(f"report written to {sidecar}")
    return 0


def cmd_eval(args) -> int:
    """The quantized stack against the float reference, in one walk.

    per_layer_mse[i] is the relative MSE of quantized layer i's output
    against the float stack's layer-i output (the plain MSE if that is all
    zero). Layer i runs on the quantized stack's input, so the value is the
    error accumulated up to that depth, not layer i's own error;
    end_to_end_mse is the last layer's. weighted_weight_error[i] (and, with
    --compare-rtn2, rtn2_weighted_weight_error[i]) is layer i's
    Hessian-weighted weight error. timings holds each stage's seconds.
    """
    layers = modelio.read_model(args.model)
    refs = [tensorio.read_tensor(p) for p in args.reference]
    if len(refs) != len(layers):
        raise ConfigError(
            f"model has {len(layers)} layers but {len(refs)} reference tensors given"
        )
    x = _load_matrix(args.inputs)
    nl = _nonlinearity(args.nl)
    cfg = QuantConfig(damp=args.damp)

    for i, (layer, ref) in enumerate(zip(layers, refs)):
        if ref.shape != (layer.rows, layer.cols):
            raise ConfigError(
                f"layer {i}: reference shape {ref.shape} does not match "
                f"model layer {(layer.rows, layer.cols)}"
            )
    if x.shape[1] != layers[0].cols:
        raise ConfigError(
            f"inputs have {x.shape[1]} channels, model expects {layers[0].cols}"
        )

    timings = dict.fromkeys(["float_stack", "quant_stack", "weight_error"], 0.0)
    fblocks, qblocks = _token_blocks(x), _token_blocks(x.copy())
    per_layer_mse, werr = [], []
    rtn2_err = [] if args.compare_rtn2 else None
    for i, (layer, ref) in enumerate(zip(layers, refs)):
        t0 = time.perf_counter()
        stats = calibration.calibrate(fblocks, cfg)
        inv_diag = weightquant.inverse_diag_from_factor(stats.chol_inv)
        deq = weightquant.dequant_weights(layer)[:, stats.perm]
        ref_p = np.asarray(ref, dtype=np.float64)[:, stats.perm]
        werr.append(weightquant.diag_weighted_error(ref_p - deq, inv_diag))
        if args.compare_rtn2:
            cfg_rtn = replace(
                cfg,
                weight_mode="rtn",
                group_size=layer.group_size,
                outliers=layer.outliers,
            )
            rtn_layer, _ = weightquant.quantize_linear(ref, stats, cfg_rtn)
            rtn_deq = weightquant.dequant_weights(rtn_layer)[:, stats.perm]
            rtn2_err.append(weightquant.diag_weighted_error(ref_p - rtn_deq, inv_diag))
        timings["weight_error"] += time.perf_counter() - t0

        sq_err = sq_ref = 0.0
        last = i + 1 == len(layers)
        for k in range(len(fblocks)):
            t0 = time.perf_counter()
            f = fblocks[k] @ ref.T
            t1 = time.perf_counter()
            act = actquant.quantize_activations(
                qblocks[k], layer.group_size, layer.outliers, perm=layer.perm,
                plane_corr=layer.plane_corr,
            )
            q = bitkernel.forward(layer, act)
            sq_err += float(np.square(q - f).sum())
            sq_ref += float(np.square(f).sum())
            if not last:
                _store(qblocks, k, nl(q))
            t2 = time.perf_counter()
            if not last:
                _store(fblocks, k, nl(f))
            timings["float_stack"] += t1 - t0 + time.perf_counter() - t2
            timings["quant_stack"] += t2 - t1
        n = len(x) * layer.rows
        per_layer_mse.append(sq_err / sq_ref if sq_ref > 0 else sq_err / n)

    report = {
        "per_layer_mse": per_layer_mse,
        "end_to_end_mse": per_layer_mse[-1],
        "weighted_weight_error": werr,
        "bits_per_weight": modelio.model_nbytes(layers)
        * 8.0
        / sum(l.rows * l.cols for l in layers),
        "timings": timings,
    }
    if rtn2_err is not None:
        report["rtn2_weighted_weight_error"] = rtn2_err
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for i, mse in enumerate(per_layer_mse):
            line = f"layer {i}: rel output MSE {mse:.6g}, weighted weight error {werr[i]:.6g}"
            if rtn2_err is not None:
                line += f" (2-bit RTN: {rtn2_err[i]:.6g})"
            print(line)
        print(f"end-to-end rel MSE: {report['end_to_end_mse']:.6g}")
        print(f"bits/weight: {report['bits_per_weight']:.3f}")
    return 0


def cmd_bench(args) -> int:
    shapes = []
    for shape_str in args.shapes.split(","):
        parts = shape_str.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(f"bad shape {shape_str!r}, expected TxCINxCOUT")
        shapes.append(tuple(int(p) for p in parts))
    rows = bitkernel.bench_forward(shapes, iters=args.iters, seed=args.seed)
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    elif args.csv:
        print("tokens,c_in,c_out,kernel_ms,gemm_ms,ratio")
        for r in rows:
            print(
                f"{r['tokens']},{r['c_in']},{r['c_out']},"
                f"{r['kernel_ms']:.3f},{r['gemm_ms']:.3f},{r['ratio']:.3f}"
            )
    else:
        print(f"{'shape':>20} {'kernel ms':>12} {'gemm ms':>12} {'ratio':>8}")
        for r in rows:
            shape = f"{r['tokens']}x{r['c_in']}x{r['c_out']}"
            print(
                f"{shape:>20} {r['kernel_ms']:>12.3f} {r['gemm_ms']:>12.3f} "
                f"{r['ratio']:>8.3f}"
            )
    return 0


def cmd_inspect(args) -> int:
    info = modelio.inspect_model(args.model)
    sidecar = str(args.model) + ".report.json"
    try:
        with open(sidecar) as fh:
            info["report"] = json.load(fh)
    except FileNotFoundError:
        pass
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"{info['path']}: version {info['version']}, {info['layer_count']} layers")
        for i, layer in enumerate(info["layers"]):
            print(
                f"  layer {i}: {layer['rows']}x{layer['cols']} B={layer['group_size']} "
                f"K={layer['outliers']} {layer['bytes']} bytes "
                f"({layer['bits_per_weight']:.3f} bits/weight)"
            )
        print(f"total: {info['total_bytes']} bytes, {info['bits_per_weight']:.3f} bits/weight")
        if "report" in info:
            for i, rep in enumerate(info["report"]):
                print(
                    f"  layer {i} quantization: em_loss={rep['em_loss']:.6g} "
                    f"weighted_error={rep['weighted_error']:.6g}"
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bwaq")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a stack of weight tensors")
    q.add_argument("--weights", nargs="+", required=True)
    q.add_argument("--calib", nargs="+", required=True)
    q.add_argument("--group-size", type=int, default=128)
    q.add_argument("--outliers", type=int, default=128)
    q.add_argument(
        "--em-iters", type=int, default=8, help="checked to be >= 1; has no effect"
    )
    q.add_argument("--damp", type=float, default=0.01)
    q.add_argument("--clip", type=float, default=1.0)
    q.add_argument("--nl", choices=["none", "relu"], default="none")
    q.add_argument("--out", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_quantize)

    e = sub.add_parser("eval", help="compare quantized stack against float reference")
    e.add_argument("--model", required=True)
    e.add_argument("--inputs", required=True)
    e.add_argument("--reference", nargs="+", required=True)
    e.add_argument("--nl", choices=["none", "relu"], default="none")
    e.add_argument("--damp", type=float, default=0.01)
    e.add_argument("--compare-rtn2", action="store_true")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="time the bit kernel against a float GEMM")
    b.add_argument("--shapes", default="1x4096x4096,128x4096x4096")
    b.add_argument("--iters", type=int, default=20)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", action="store_true")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_bench)

    i = sub.add_parser("inspect", help="print model header and size accounting")
    i.add_argument("--model", required=True)
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
