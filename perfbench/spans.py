"""Spans recorded from outside the program.

The tracer replaces public functions of the ``bwaq`` modules with wrappers
that record a span per call. This works without touching ``src/`` because
the modules look their callees up as module attributes at call time:
``cli.cmd_quantize`` calls ``calibration.calibrate``, ``calibrate`` calls
its module's ``damped_inverse_cholesky``, and ``bitkernel.forward`` calls
``bitkernel.popcount``. A target that no longer exists is skipped, and its
metrics are then absent from the result rather than an error.

A span is (name, start, end, parent index, stack-layer index, request id).
Spans are held in memory and written out once, at the end of a run.
"""

import functools
import json
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run
TARGETS = (
    ("cli", "cmd_quantize"),
    ("tensorio", "read_tensor"),
    ("calibration", "calibrate"),
    ("calibration", "accumulate_hessian"),
    ("calibration", "damped_inverse_cholesky"),
    ("weightquant", "quantize_linear"),
    ("weightquant", "em_binarize"),
    ("weightquant", "gptq_compensate"),
    ("actquant", "plane_corrections"),
    ("actquant", "balance_scales"),
    ("actquant", "quantize_activations"),
    ("bitkernel", "forward"),
    ("bitkernel", "popcount"),
    ("modelio", "read_model"),
    ("modelio", "write_model"),
)

class Tracer:
    """Installs wrappers, records spans and turns them into per-layer metrics.

    ``layer`` and ``request`` are stamped on every span started while they
    are set. ``before[name](tracer, args)`` runs before a call is timed and
    ``after[name](tracer, args, result)`` after it, for counts taken where
    the work happens.
    """

    def __init__(self, package, targets=TARGETS):
        self.package = package
        self.targets = targets
        self.spans = []
        self.counts = defaultdict(int)
        self.before = {}
        self.after = {}
        self.layer = None
        self.request = None
        self.installed = []
        self._stack = []
        self._saved = []

    def install(self) -> None:
        self.installed = []
        for mod_name, fn_name in self.targets:
            module = getattr(self.package, mod_name, None)
            fn = getattr(module, fn_name, None)
            if fn is None:
                continue
            self._saved.append((module, fn_name, fn))
            self.installed.append(f"{mod_name}.{fn_name}")
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))

    def remove(self) -> None:
        while self._saved:
            module, fn_name, fn = self._saved.pop()
            setattr(module, fn_name, fn)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.before:
                self.before[name](self, args)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            layer, request = self.layer, self.request
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, layer, request)
            if name in self.after:
                self.after[name](self, args, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """``<module>.<function>.<stat>`` for every installed target.

        ``s`` is total time, ``self_s`` excludes time in wrapped callees and
        ``calls`` counts calls. Targets that were installed but not called
        report zeros. ``counts`` are added as recorded.
        """
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for name in self.installed:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = total[name] - child[name]
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# name start end parent layer request\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def em_useful_iterations(tracer, args, result) -> None:
    """Share of EM iterations, per row, whose loss went down."""
    history = result.history
    for before, after in zip(history, history[1:]):
        tracer.counts["weightquant.em_binarize.useful_iters"] += int((after < before).sum())
        tracer.counts["weightquant.em_binarize.iters"] += after.size


def forward_work(tracer, args, result) -> None:
    """Work of one forward call, computed from shapes (not measured)."""
    layer, act = args[0], args[1]
    rows, tokens = layer.rows, act.tokens
    binarized = layer.cols - layer.outliers
    c = tracer.counts
    c["bitkernel.forward.bit_ops"] += rows * binarized * tokens * 4
    c["bitkernel.forward.int8_macs"] += rows * layer.outliers * tokens
    c["bitkernel.forward.bytes"] += (
        layer.signs.nbytes
        + layer.mask.nbytes
        + layer.affine.nbytes
        + layer.out_codes.nbytes
        + act.planes.nbytes
        + act.plane_scales.nbytes
        + act.shift.nbytes
        + act.out_codes.nbytes
        + result.nbytes
    )


def derived(metrics: dict) -> dict:
    """Ratios over the recorded totals, added beside them."""
    out = dict(metrics)
    iters = out.pop("weightquant.em_binarize.iters", 0)
    useful = out.pop("weightquant.em_binarize.useful_iters", 0)
    if "weightquant.em_binarize.calls" in out:
        out["weightquant.em_binarize.useful_iter_ratio"] = useful / iters if iters else 0.0
    if "bitkernel.forward.calls" in out:
        for stat in ("bit_ops", "int8_macs", "bytes"):
            out.setdefault(f"bitkernel.forward.{stat}", 0)
        seconds = out["bitkernel.forward.s"]
        bit_ops = out.get("bitkernel.forward.bit_ops", 0)
        out["bitkernel.forward.gbitops_per_s"] = bit_ops / seconds / 1e9 if seconds else 0.0
    return out
