"""Binarized forward pass: exact bit counts, one float64 combination and
the INT8 outlier tail.

Per output row j, group l, plane a and subgroup s the kernel accumulates
mu[l,a] * (alpha[j,l,s] * (2*v - r) + beta[j,l,s] * r) where v counts set
bits of sign&plane within the subgroup and r counts set plane bits; (2v - r)
realizes the +/-1 sign mapping. Plane a = -1 is the constant-ones plane with
coefficient shift = -mu*z; its counts are activation-independent and are
computed from the sign/mask words directly.

The four planes are folded before the float work. When every plane scale of
a call is ldexp(mu, a) * k[l,a] / CORR_GRID bit for bit, with one integer k
per (group, plane) for all tokens (what quantize_activations makes from
corrections on the grid), each element has the integer level
c = sum_a 2^a * k[l,a] * b_a, and the plane sum of a count is the count of
that level times mu / CORR_GRID. Other plane scales are folded per plane in
float64.

`counts` is the seam between integer and float work. It returns, in blocks
of groups and tokens, the folded v = q.c, v1 = (q&m).c and r1 = m.c for
every (row, group, token); the subgroup-0 parts follow as v - v1 and
r - r1. Two backends produce them:

- few tokens, or scales off the grid: popcount on the packed words, all
  groups in one broadcast, folded over the planes in int32 (grid_levels
  keeps every folded count below 2^31), or with the float64 plane scales
  off the grid;
- token batches on the grid: per group, one float32 GEMM of the unpacked
  weight bits [q; q&m; m] against the levels c. Every partial sum is an
  integer of at most group_size * max c, and the call takes this path only
  while that stays below 2^24, so float32 holds it exactly.

Both give the same integers on the grid. One float64 step combines them.
The INT8 tail's code part is float32 products over chunks of outlier
channels, each exact below 2^24; its zero-point terms are float64.

A layer is prepared once. `prepare` computes what depends on the layer
alone: the (3, groups, words, rows) weight words, the float64 coefficients,
the combined constant-ones plane term (groups, rows) and the tail's
per-row weight vectors. It stores them on the layer the first time
`forward` or `counts` sees it, about 1.34x the layer's serialized bytes at
1024x1024, B=128, K=128; every later call does only token work. Unpacked
weight bits and the tail's float32 weight codes are rebuilt per call, as
caching them would cost 12 bytes per weight and 4 bytes per outlier code.
The prepared state is never serialized or compared, and
dataclasses.replace gives a layer without it. A layer is immutable once
served: preparing makes the arrays it was built from read-only, so an
in-place edit raises, and a layer whose arrays were replaced by assignment
is prepared again. Concurrent first calls may each build the state; the
results are identical.
"""

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .actquant import (
    CORR_GRID,
    ActBitplanes,
    quantize_activations,
    reconstruct,
    reconstruct_outliers,
)
from .bits import pack_bits, popcount, unpack_bits, words_for
from .errors import DataError
from .weightquant import QuantizedLinear, dequant_weights

# Calls with at least this many tokens count with GEMMs, smaller ones with
# popcount. With four plane products per group the measured crossover lay
# at 8-16 tokens for layer widths 1024 and 4096 and near 32 for width 256
# (table in CHANGES.md); with one folded product it is 5-6 tokens on a
# 4x1024 stack, where GEMMs are 1.2x faster at 12 tokens.
GEMM_MIN_TOKENS = 12
# Tokens per GEMM block: bounds the count and combination temporaries, so
# peak memory does not grow with the batch.
GEMM_TOKENS = 128
# float32 represents every integer up to 2^24; a GEMM sum can reach
# group_size times the largest level of its group.
GEMM_MAX_DOT = 2**24
# Outlier channels per float32 product of the INT8 tail: each partial sum is
# an integer of at most TAIL_CHANNELS * 255^2 < 2^24, so float32 holds it.
TAIL_CHANNELS = 258


@dataclass(frozen=True)
class Prepared:
    """Constants of one layer that every call reads; see prepare.

    words:     (3, groups, words, rows) uint64 words of q, q&m and m.
    coef:      (3, rows, groups) float64 coefficients of (v, v1, r1).
    coef_r:    (groups, rows) float64 coefficient of r.
    const:     (groups, rows) the constant-ones plane's counts times their
               coefficients, plus B * coef_r; a call adds shift @ const.
    zero_tail: (2, rows) float64 -sum of the INT8 weight codes and the INT8
               weight zero points.
    out_scale: (rows,) float64 INT8 weight scales.
    sources:   the layer arrays these were computed from.
    """

    words: np.ndarray
    coef: np.ndarray
    coef_r: np.ndarray
    const: np.ndarray
    zero_tail: np.ndarray
    out_scale: np.ndarray
    sources: tuple


@dataclass
class Counts:
    """Exact integer counts of one forward call, folded over the planes.

    ones:   (3, rows, groups) popc(q), popc(q&m), popc(m): the counts of
            the constant-ones plane, computed from words when read (forward
            reads the prepared constant instead).
    words:  the layer's prepared weight words.
    planes: (tokens, groups, 4) popc(b) per activation plane.
    scale:  (groups, tokens) float64 factor of the blocks: mu / CORR_GRID
            on the grid, 1 off it.
    blocks: (tokens slice, groups slice, counts) triples covering every
            (token, group) once; counts has shape (3, rows, groups, tokens)
            and holds q.c, (q&m).c, m.c along its first axis. On the grid c
            is the integer level sum_a 2^a k[g,a] b_a and the counts are
            exact integers; off it the planes are weighted by their float64
            scales. The GEMM backend yields one group and at most
            GEMM_TOKENS tokens at a time.
    """

    words: np.ndarray
    planes: np.ndarray
    scale: np.ndarray
    blocks: Iterator[tuple[slice, slice, np.ndarray]]

    @property
    def ones(self) -> np.ndarray:
        return _ones_counts(self.words)


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


def _steps(n: int, step: int):
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _weight_words(layer: QuantizedLinear) -> np.ndarray:
    """q, q&m and m words as (3, groups, words, rows), rows innermost."""
    q = layer.signs.transpose(1, 2, 0)
    m = layer.mask.transpose(1, 2, 0)
    words = np.empty((3,) + q.shape, dtype=np.uint64)
    words[0] = q
    np.bitwise_and(q, m, out=words[1])
    words[2] = m
    return words


def _ones_counts(words: np.ndarray) -> np.ndarray:
    """popc(q), popc(q&m), popc(m) per (row, group): (3, rows, groups)."""
    return popcount(words).sum(axis=2, dtype=np.int32).transpose(0, 2, 1)


def _coefficients(layer: QuantizedLinear):
    """float64 coefficients of (v, v1, r1), shape (3, rows, groups), and
    of r, shape (groups, rows).

    With v0 = v - v1 and r0 = r - r1 the per-subgroup sum
    a0(2v0 - r0) + b0 r0 + a1(2v1 - r1) + b1 r1 equals
    2a0 v + 2(a1 - a0) v1 + (a0 - a1 + b1 - b0) r1 + (b0 - a0) r.
    """
    (a0, b0), (a1, b1) = np.asarray(layer.affine, dtype=np.float64).transpose(2, 3, 1, 0)
    coef = np.stack([2 * a0, 2 * (a1 - a0), a0 - a1 + b1 - b0]).transpose(0, 2, 1)
    return coef, b0 - a0


def prepare(layer: QuantizedLinear) -> Prepared:
    """The layer's kernel constants, computed on the first call and stored
    on the layer; later calls return the stored ones.

    Makes the arrays they come from read-only, so that the layer cannot
    change under them in place.
    """
    sources = (
        layer.signs,
        layer.mask,
        layer.affine,
        layer.out_codes,
        layer.out_scale,
        layer.out_zero,
    )
    prep = layer._kernel
    if prep is not None and all(a is b for a, b in zip(prep.sources, sources)):
        return prep
    words = _weight_words(layer)
    coef, coef_r = _coefficients(layer)
    const = np.einsum("krg,krg->gr", coef, _ones_counts(words)) + layer.group_size * coef_r
    prep = Prepared(
        words=words,
        coef=coef,
        coef_r=coef_r,
        const=const,
        zero_tail=np.array(
            [-layer.out_codes.sum(axis=1, dtype=np.uint32).astype(np.float64), layer.out_zero]
        ),
        out_scale=np.asarray(layer.out_scale, dtype=np.float64),
        sources=sources,
    )
    for array in sources:
        array.flags.writeable = False
    layer._kernel = prep
    return prep


def grid_levels(act: ActBitplanes):
    """Integer plane weights 2^a * k[g, a], int32 of shape (groups, 4).

    Returned when every plane scale is ldexp(mu, a) * (k[g, a] / CORR_GRID)
    bit for bit, with one integer k >= 0 per (group, plane) for every
    token, and every folded count (at most group_size * sum_a 2^a k[g, a])
    stays below 2^31; None otherwise.
    """
    if act.tokens == 0:
        return None
    base = np.ldexp(act.mu[..., None], np.arange(4))
    with np.errstate(all="ignore"):
        k = np.rint(act.plane_scales[0] / base[0] * CORR_GRID)
        levels = np.ldexp(k, np.arange(4))
    if not (np.isfinite(k).all() and (k >= 0).all()):
        return None
    if act.group_size * levels.sum(axis=1).max(initial=0) >= 2**31:
        return None
    if not np.array_equal(act.plane_scales, base * (k / CORR_GRID)):
        return None
    return levels.astype(np.int32)


def _popcount_blocks(words: np.ndarray, act: ActBitplanes, weights: np.ndarray):
    """Counts by popcount on the packed words, every group in one broadcast,
    folded over the planes with weights (tokens, groups, 4).

    A call below the GEMM threshold is a single block; steps of
    GEMM_MIN_TOKENS tokens bound a large call routed here.
    """
    _, groups, n_words, rows = words.shape
    for tok in _steps(act.tokens, GEMM_MIN_TOKENS):
        planes = act.planes[tok].transpose(1, 2, 0, 3)[..., None]
        # (3, groups, 4, tokens, rows): rows innermost keeps the broadcast in
        # long runs, and one weight plane and word at a time keeps the
        # temporaries small; the block is a transposed view
        hits = np.empty((3, groups, 4, planes.shape[2], rows), dtype=np.int32)
        for k in range(3):
            popcount(words[k, :, None, None, 0] & planes[..., 0, :], out=hits[k])
            for w in range(1, n_words):
                hits[k] += popcount(words[k, :, None, None, w] & planes[..., w, :])
        folded = np.einsum("kgatr,tga->kgtr", hits, weights[tok])
        yield tok, slice(None), folded.transpose(0, 3, 1, 2)


def _gemm_blocks(layer: QuantizedLinear, act: ActBitplanes, levels: np.ndarray):
    """Counts by float32 GEMM of the weight bits against the integer
    levels, one group at a time.

    Each group's weight bits [q; q&m; m] are unpacked once per call; its
    levels come from the 4-bit codes through a 16-entry table and are
    multiplied in steps of GEMM_TOKENS tokens.
    """
    b = layer.group_size
    rows = layer.rows
    q = unpack_bits(layer.signs, b)
    m = unpack_bits(layer.mask, b)
    # table[g, c] = sum_a levels[g, a] * bit a of code c
    table = (levels @ ((np.arange(16) >> np.arange(4)[:, None]) & 1)).astype(np.float32)
    bits = np.empty((3, rows, b), dtype=np.float32)
    for g in range(layer.n_groups):
        bits[0] = q[:, g]
        bits[2] = m[:, g]
        np.multiply(bits[0], bits[2], out=bits[1])
        for tok in _steps(act.tokens, GEMM_TOKENS):
            p = unpack_bits(act.planes[tok, g], b)
            codes = p[:, 0] | p[:, 1] << 1 | p[:, 2] << 2 | p[:, 3] << 3
            hits = bits.reshape(3 * rows, b) @ table[g].take(codes).T
            yield tok, slice(g, g + 1), hits.reshape(3, rows, 1, -1)


def counts(layer: QuantizedLinear, act: ActBitplanes) -> Counts:
    """Exact integer counts of one call, folded over the planes.

    Calls of GEMM_MIN_TOKENS tokens or more whose scales lie on the grid
    and whose sums stay below GEMM_MAX_DOT go to the GEMM backend, every
    other call to popcount.
    """
    words = prepare(layer).words
    levels = grid_levels(act)
    if levels is None:
        weights, scale = act.plane_scales, np.ones((act.n_groups, act.tokens))
    else:
        weights, scale = np.broadcast_to(levels, act.plane_scales.shape), act.mu.T / CORR_GRID
    if (
        act.tokens >= GEMM_MIN_TOKENS
        and levels is not None
        and layer.group_size * int(levels.sum(axis=1).max(initial=0)) < GEMM_MAX_DOT
    ):
        blocks = _gemm_blocks(layer, act, levels)
    else:
        blocks = _popcount_blocks(words, act, weights)
    return Counts(
        words=words,
        planes=popcount(act.planes).sum(axis=-1, dtype=np.int32),
        scale=scale,
        blocks=blocks,
    )


def _outlier_tail(layer: QuantizedLinear, act: ActBitplanes, prep: Prepared) -> np.ndarray:
    """INT8 outlier channels' contribution, shape (tokens, rows).

    The sum over the K outlier channels of (a - za)(w - zw) is
    sum a*w - za sum w + zw (K za - sum a). sum a*w is one float32 product
    per TAIL_CHANNELS channels, added up in float64; the zero-point terms
    are one float64 product [za, K za - sum a] @ [-sum w, zw]. The zero
    points are integers, so while the sums stay below 2^53 every step is
    exact and the result does not depend on their order.
    """
    k = layer.outliers
    za = act.out_zero
    tail = np.array([za, k * za - act.out_codes.sum(axis=1)]).T @ prep.zero_tail
    for c in _steps(k, TAIL_CHANNELS):
        tail += act.out_codes[:, c].astype(np.float32) @ layer.out_codes[:, c].astype(np.float32).T
    tail *= prep.out_scale
    tail *= act.out_scale[:, None]
    return tail


def forward(layer: QuantizedLinear, act: ActBitplanes) -> np.ndarray:
    """Bit-count forward pass, output shape (tokens, rows)."""
    _check_compatible(layer, act)
    prep = prepare(layer)
    # the tail first: its temporaries are gone before the counts' arrive
    out = _outlier_tail(layer, act, prep)
    c = counts(layer, act)

    out += act.shift @ prep.const
    out += np.einsum("tga,tga->tg", act.plane_scales, c.planes) @ prep.coef_r
    for tok, grp, block in c.blocks:
        part = np.einsum("krg,krgt->gtr", prep.coef[:, :, grp], block)
        out[tok] += np.einsum("gt,gtr->tr", c.scale[grp, tok], part)
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
