"""Binarized forward pass: exact bit counts, one float64 combination and
the INT8 outlier tail.

Per output row j, group l, plane a and subgroup s the kernel accumulates
mu[l,a] * (alpha[j,l,s] * (2*v - r) + beta[j,l,s] * r) where v counts set
bits of sign&plane within the subgroup and r counts set plane bits; (2v - r)
realizes the +/-1 sign mapping. Plane a = -1 is the constant-ones plane with
coefficient shift = -mu*z; its counts are activation-independent and are
computed from the sign/mask words directly.

`counts` is the seam between integer and float work. It returns, in blocks
of groups and tokens, v = popc(q&b), v1 = popc(q&b&m) and r1 = popc(b&m) for
every (row, token, group, plane); the subgroup-0 counts follow as v - v1 and
r - r1. Two backends produce these integers and agree on every one:

- few tokens: popcount on the packed words, all groups in one broadcast;
- token batches: per group, a float32 GEMM of the unpacked weight bits
  [q; q&m; m] against the unpacked plane bits. Every partial sum is an
  integer of at most group_size < 2^24, so float32 holds it exactly.

One float64 step combines the counts of either backend. The INT8 tail is a
float64 product whose partial sums are integers below 2^53. forward is a
pure function over immutable layer data; nothing here mutates the layer.
"""

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .actquant import ActBitplanes, quantize_activations, reconstruct, reconstruct_outliers
from .bits import pack_bits, popcount, unpack_bits, words_for
from .errors import DataError
from .weightquant import QuantizedLinear, dequant_weights

# Calls with at least this many tokens count with GEMMs, smaller ones with
# popcount. The measured crossover lies at 8-16 tokens for layer widths 1024
# and 4096, where 12 keeps either choice within about 1.4x of the other,
# and near 32 tokens for width 256 (table in CHANGES.md).
GEMM_MIN_TOKENS = 12
# Tokens per GEMM block: bounds the count and combination temporaries, so
# peak memory does not grow with the batch.
GEMM_TOKENS = 128
# float32 represents every integer up to 2^24; a count can reach group_size.
GEMM_MAX_GROUP = 2**24


@dataclass
class Counts:
    """Exact integer counts of one forward call.

    ones:   (3, rows, groups) popc(q), popc(q&m), popc(m): the counts of
            the constant-ones plane.
    planes: (tokens, groups, 4) popc(b) per activation plane.
    blocks: (tokens slice, groups slice, counts) triples covering every
            (token, group) once; counts has shape (3, rows, groups, 4,
            tokens) and holds popc(q&b), popc(q&b&m), popc(b&m) along its
            first axis. Both backends yield them lazily; the GEMM backend
            one group and at most GEMM_TOKENS tokens at a time.
    """

    ones: np.ndarray
    planes: np.ndarray
    blocks: Iterator[tuple[slice, slice, np.ndarray]]


def _check_compatible(layer: QuantizedLinear, act: ActBitplanes) -> None:
    if act.group_size != layer.group_size:
        raise DataError(
            f"group size mismatch: act {act.group_size} vs layer {layer.group_size}"
        )
    if act.outliers != layer.outliers:
        raise DataError(
            f"outlier count mismatch: act {act.outliers} vs layer {layer.outliers}"
        )
    if act.n_groups != layer.n_groups:
        raise DataError(
            f"group count mismatch: act {act.n_groups} vs layer {layer.n_groups}"
        )
    if not np.array_equal(act.perm, layer.perm):
        raise DataError("activation permutation does not match the layer")
    if not (np.isfinite(act.plane_scales).all() and np.isfinite(act.shift).all()):
        raise DataError("non-finite plane scales")


def _token_steps(tokens: int, step: int):
    for start in range(0, tokens, step):
        yield slice(start, min(start + step, tokens))


def _weight_words(layer: QuantizedLinear) -> np.ndarray:
    """q, q&m and m words as (3, groups, words, rows), rows innermost."""
    q = layer.signs.transpose(1, 2, 0)
    m = layer.mask.transpose(1, 2, 0)
    words = np.empty((3,) + q.shape, dtype=np.uint64)
    words[0] = q
    np.bitwise_and(q, m, out=words[1])
    words[2] = m
    return words


def _popcount_blocks(words: np.ndarray, act: ActBitplanes):
    """Counts by popcount on the packed words, every group in one broadcast.

    A call below the GEMM threshold is a single block; steps of
    GEMM_MIN_TOKENS tokens bound a large call that the float32 guard routes
    here.
    """
    _, groups, n_words, rows = words.shape
    for tok in _token_steps(act.tokens, GEMM_MIN_TOKENS):
        planes = act.planes[tok].transpose(1, 2, 0, 3)[..., None]
        # (3, groups, 4, tokens, rows): rows innermost keeps the broadcast in
        # long runs, and one weight plane and word at a time keeps the
        # temporaries small; the block is a transposed view
        hits = np.zeros((3, groups, 4, planes.shape[2], rows), dtype=np.int32)
        for k in range(3):
            for w in range(n_words):
                hits[k] += popcount(words[k, :, None, None, w] & planes[..., w, :])
        yield tok, slice(None), hits.transpose(0, 4, 1, 2, 3)


def _gemm_blocks(layer: QuantizedLinear, act: ActBitplanes):
    """Counts by float32 GEMM over unpacked bits, one group at a time.

    Each group's weight bits [q; q&m; m] are unpacked once per call and
    multiplied by its plane bits in steps of GEMM_TOKENS tokens.
    """
    b = layer.group_size
    rows = layer.rows
    q = unpack_bits(layer.signs, b)
    m = unpack_bits(layer.mask, b)
    bits = np.empty((3, rows, b), dtype=np.float32)
    for g in range(layer.n_groups):
        bits[0] = q[:, g]
        bits[2] = m[:, g]
        np.multiply(bits[0], bits[2], out=bits[1])
        for tok in _token_steps(act.tokens, GEMM_TOKENS):
            planes = unpack_bits(act.planes[tok, g], b).transpose(1, 0, 2)
            planes = planes.astype(np.float32).reshape(-1, b)
            hits = bits.reshape(3 * rows, b) @ planes.T
            yield tok, slice(g, g + 1), hits.reshape(3, rows, 1, 4, -1)


def counts(layer: QuantizedLinear, act: ActBitplanes) -> Counts:
    """Exact integer counts of one call.

    The backend depends on the call's token count alone, except that a
    group of GEMM_MAX_GROUP bits or more always goes to popcount.
    """
    words = _weight_words(layer)
    if act.tokens >= GEMM_MIN_TOKENS and layer.group_size < GEMM_MAX_GROUP:
        blocks = _gemm_blocks(layer, act)
    else:
        blocks = _popcount_blocks(words, act)
    return Counts(
        ones=popcount(words).sum(axis=2, dtype=np.int32).transpose(0, 2, 1),
        planes=popcount(act.planes).sum(axis=-1, dtype=np.int32),
        blocks=blocks,
    )


def _outlier_tail(layer: QuantizedLinear, act: ActBitplanes) -> np.ndarray:
    """INT8 outlier channels' contribution, shape (tokens, rows).

    The sum over outlier channels of (a - za)(w - zw) is one float64
    product [a, za, sum a, K za] @ [w, -sum w, -zw, zw]^T. With the integer
    zero points the quantizers produce, every partial sum is an integer
    below 2^53 (the code part at most K * 255^2), so the product is exact.
    """
    k = layer.outliers
    a_side = np.empty((act.tokens, k + 3))
    a_side[:, :k] = act.out_codes
    a_side[:, k:] = np.column_stack([act.out_zero, a_side[:, :k].sum(axis=1), k * act.out_zero])
    w_side = np.empty((layer.rows, k + 3))
    w_side[:, :k] = layer.out_codes
    w_zero = np.asarray(layer.out_zero, dtype=np.float64)
    w_side[:, k:] = np.column_stack([-w_side[:, :k].sum(axis=1), -w_zero, w_zero])
    tail = a_side @ w_side.T
    tail *= np.asarray(layer.out_scale, dtype=np.float64)
    tail *= act.out_scale[:, None]
    return tail


def _coefficients(layer: QuantizedLinear):
    """float64 coefficients of (v, v1, r1), shape (3, rows, groups) with
    rows innermost in memory like the popcount blocks, and of r, shape
    (groups, rows).

    With v0 = v - v1 and r0 = r - r1 the per-subgroup sum
    a0(2v0 - r0) + b0 r0 + a1(2v1 - r1) + b1 r1 equals
    2a0 v + 2(a1 - a0) v1 + (a0 - a1 + b1 - b0) r1 + (b0 - a0) r.
    """
    (a0, b0), (a1, b1) = np.asarray(layer.affine, dtype=np.float64).transpose(2, 3, 1, 0)
    coef = np.stack([2 * a0, 2 * (a1 - a0), a0 - a1 + b1 - b0], axis=1).transpose(1, 2, 0)
    return coef, b0 - a0


def forward(layer: QuantizedLinear, act: ActBitplanes) -> np.ndarray:
    """Bit-count forward pass, output shape (tokens, rows)."""
    _check_compatible(layer, act)
    # the tail and the coefficients first: their temporaries are gone
    # before the counts' arrive
    out = _outlier_tail(layer, act)
    coef, coef_r = _coefficients(layer)
    c = counts(layer, act)

    const = np.einsum("krg,krg->gr", coef, c.ones) + layer.group_size * coef_r
    out += act.shift @ const
    out += np.einsum("tga,tga->tg", act.plane_scales, c.planes) @ coef_r
    scales = np.ascontiguousarray(act.plane_scales.transpose(1, 2, 0))  # (groups, 4, tokens)
    for tok, grp, block in c.blocks:
        scaled = np.einsum("krgat,gat->krgt", block, scales[grp, :, tok])
        out[tok] += np.einsum("krg,krgt->tr", coef[:, :, grp], scaled)
    return out


def forward_reference(layer: QuantizedLinear, act: ActBitplanes) -> np.ndarray:
    """Dequantize-then-multiply oracle for forward."""
    _check_compatible(layer, act)
    w_deq = dequant_weights(layer, original_order=False)
    a_deq = np.concatenate([reconstruct(act), reconstruct_outliers(act)], axis=1)
    return a_deq @ w_deq.T


def random_layer(rng, rows, cols, group_size, outliers) -> QuantizedLinear:
    """Random packed layer for kernel tests and benchmarks."""
    n_bin = cols - outliers
    if n_bin < 0 or n_bin % group_size:
        raise DataError("invalid layer shape for the requested grouping")
    n_groups = n_bin // group_size
    wpg = words_for(group_size)
    signs = pack_bits(rng.integers(0, 2, size=(rows, n_groups, group_size), dtype=np.uint8))
    mask = pack_bits(rng.integers(0, 2, size=(rows, n_groups, group_size), dtype=np.uint8))
    return QuantizedLinear(
        rows=rows,
        cols=cols,
        group_size=group_size,
        outliers=outliers,
        signs=signs.reshape(rows, n_groups, wpg),
        mask=mask.reshape(rows, n_groups, wpg),
        affine=rng.normal(scale=0.05, size=(rows, n_groups, 2, 2)).astype(np.float32),
        perm=rng.permutation(cols),
        out_codes=rng.integers(0, 256, size=(rows, outliers), dtype=np.uint8).reshape(rows, outliers),
        out_scale=(0.01 + rng.random(rows)).astype(np.float32),
        out_zero=rng.integers(0, 256, size=rows).astype(np.float32),
        plane_corr=np.ones((n_groups, 4), dtype=np.float32),
    )


def random_activations(rng, tokens, layer, corrections=False) -> ActBitplanes:
    x = rng.normal(size=(tokens, layer.cols))
    return quantize_activations(
        x,
        layer.group_size,
        layer.outliers,
        perm=layer.perm,
        plane_corr=layer.plane_corr if corrections else None,
    )


def _bench_config(c_in: int):
    if c_in % 128 == 0:
        group = 128
    elif c_in % 64 == 0:
        group = 64
    else:
        raise DataError(f"bench width {c_in} must be a multiple of 64")
    outliers = 128 if c_in >= 512 and (c_in - 128) % group == 0 else 0
    return group, outliers


def bench_forward(shapes, iters: int = 20, seed: int = 0):
    """Median wall-clock of forward vs a dense float32 GEMM per shape.

    Returns a list of row dicts. Two warm-up runs precede the timed ones.
    """
    if iters < 1:
        raise DataError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    rows_out = []
    for tokens, c_in, c_out in shapes:
        if min(tokens, c_in, c_out) < 1:
            raise DataError(f"shape ({tokens}, {c_in}, {c_out}) must be positive")
        group, outliers = _bench_config(c_in)
        layer = random_layer(rng, c_out, c_in, group, outliers)
        act = random_activations(rng, tokens, layer)
        w_dense = dequant_weights(layer).astype(np.float32)
        x_dense = rng.normal(size=(tokens, c_in)).astype(np.float32)

        def run_kernel():
            forward(layer, act)

        def run_gemm():
            x_dense @ w_dense.T

        kernel_ms = _median_ms(run_kernel, iters)
        gemm_ms = _median_ms(run_gemm, iters)
        rows_out.append(
            {
                "tokens": tokens,
                "c_in": c_in,
                "c_out": c_out,
                "kernel_ms": kernel_ms,
                "gemm_ms": gemm_ms,
                "ratio": kernel_ms / gemm_ms if gemm_ms > 0 else float("inf"),
            }
        )
    return rows_out


def _median_ms(fn, iters: int) -> float:
    fn()
    fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))
