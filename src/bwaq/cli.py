"""Command-line front end: quantize, eval, bench, inspect.

Exit codes: 0 success, 2 usage/config error or an unreadable path, 3 data
error, 4 internal invariant failure. All output goes to stdout; pass --json
for a machine-readable report.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import actquant, bitkernel, calibration, modelio, tensorio, weightquant
from .config import QuantConfig
from .errors import ConfigError, DataError, InternalError


def _load_matrix(path) -> np.ndarray:
    arr = tensorio.read_tensor(path)
    if arr.ndim < 2:
        raise DataError(f"{path}: expected a matrix, got rank {arr.ndim}")
    return arr.reshape(-1, arr.shape[-1]).astype(np.float64)


def _nonlinearity(name: str):
    if name == "none":
        return lambda x: x
    if name == "relu":
        return lambda x: np.maximum(x, 0.0)
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
    acts = [_load_matrix(p) for p in args.calib]
    layers = []
    reports = []
    t0 = time.perf_counter()
    for wpath in args.weights:
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
        layer, report = weightquant.quantize_linear(w, stats, cfg)
        layer = replace(
            layer, plane_corr=actquant.plane_corrections(np.vstack(acts), layer)
        )
        layers.append(layer)
        reports.append(report.to_dict())
        acts = [nl(a @ w.T) for a in acts]
    modelio.write_model(layers, args.out)
    elapsed = time.perf_counter() - t0

    sidecar = str(args.out) + ".report.json"
    with open(sidecar, "w") as fh:
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


@dataclass
class EvalReport:
    """What `bwaq eval` reports.

    per_layer_mse[i] is the relative MSE of quantized layer i's output
    against the float stack's layer-i output. Layer i runs on the quantized
    stack's input, so the value is the error accumulated up to that depth,
    not layer i's own error; end_to_end_mse is the last layer's.
    weighted_weight_error[i] is layer i's Hessian-weighted weight error.
    """

    per_layer_mse: list
    end_to_end_mse: float
    weighted_weight_error: list
    bits_per_weight: float
    timings: dict = field(default_factory=dict)
    rtn2_weighted_weight_error: list | None = None

    def to_dict(self) -> dict:
        out = {
            "per_layer_mse": self.per_layer_mse,
            "end_to_end_mse": self.end_to_end_mse,
            "weighted_weight_error": self.weighted_weight_error,
            "bits_per_weight": self.bits_per_weight,
            "timings": self.timings,
        }
        if self.rtn2_weighted_weight_error is not None:
            out["rtn2_weighted_weight_error"] = self.rtn2_weighted_weight_error
        return out


def _rel_mse(approx, exact) -> float:
    num = float(((approx - exact) ** 2).mean())
    den = float((exact**2).mean())
    return num / den if den > 0 else num


def cmd_eval(args) -> int:
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

    timings = {}
    t0 = time.perf_counter()
    cur_f = x
    float_outs = []
    for i, ref in enumerate(refs):
        out = cur_f @ ref.T
        float_outs.append(out)
        cur_f = nl(out) if i + 1 < len(refs) else out
    timings["float_stack"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cur_q = x
    per_layer_mse = []
    for i, layer in enumerate(layers):
        act = actquant.quantize_activations(
            cur_q, layer.group_size, layer.outliers, perm=layer.perm,
            plane_corr=layer.plane_corr,
        )
        out = bitkernel.forward(layer, act)
        per_layer_mse.append(_rel_mse(out, float_outs[i]))
        cur_q = nl(out) if i + 1 < len(layers) else out
    timings["quant_stack"] = time.perf_counter() - t0
    end_to_end = _rel_mse(cur_q, float_outs[-1])

    t0 = time.perf_counter()
    werr = []
    rtn2_err = [] if args.compare_rtn2 else None
    cur_f = x
    for i, (layer, ref) in enumerate(zip(layers, refs)):
        stats = calibration.calibrate([cur_f], cfg)
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
        out = cur_f @ ref.T
        cur_f = nl(out) if i + 1 < len(refs) else out
    timings["weight_error"] = time.perf_counter() - t0

    report = EvalReport(
        per_layer_mse=per_layer_mse,
        end_to_end_mse=end_to_end,
        weighted_weight_error=werr,
        bits_per_weight=modelio.model_nbytes(layers)
        * 8.0
        / sum(l.rows * l.cols for l in layers),
        timings=timings,
        rtn2_weighted_weight_error=rtn2_err,
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        for i, mse in enumerate(report.per_layer_mse):
            line = f"layer {i}: rel output MSE {mse:.6g}, weighted weight error {werr[i]:.6g}"
            if rtn2_err is not None:
                line += f" (2-bit RTN: {rtn2_err[i]:.6g})"
            print(line)
        print(f"end-to-end rel MSE: {report.end_to_end_mse:.6g}")
        print(f"bits/weight: {report.bits_per_weight:.3f}")
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
    q.add_argument("--em-iters", type=int, default=8)
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
