"""Activation quantization: per-token per-group RTN to INT4, decomposition
into four 1-bit planes with plane scales 2^a * mu, and residual-driven
balancing of the plane scales.

Dequantization is mu * (code - z). z is defined as -round(min/mu), so the
group minimum maps to code 0 and is reproduced by the shift term -mu*z.
Reconstruction rebuilds the integer level from the planes first and applies
the base scale in a single multiply, which keeps the decomposition identity
exact before any balancing. All operations are pure per token: quantizing
tokens in any order yields identical output.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .bits import pack_bits, unpack_bits, words_for
from .errors import DataError

log = logging.getLogger(__name__)


def rtn_quantize(x, bits: int, clip: float = 1.0):
    """Asymmetric round-to-nearest over the last axis.

    mu = clip * (max - min) / (2^bits - 1), z = -round(min/mu),
    codes = clamp(round(x/mu) + z, 0, 2^bits - 1). A zero range degenerates
    to mu = 1 with the same formulas, so constant inputs round-trip to
    round(value). Returns (codes, mu, z); mu and z drop the last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("non-finite activation values")
    if bits not in (2, 4, 8):
        raise DataError(f"unsupported bit width {bits}")
    if not 0 < clip <= 1:
        raise DataError(f"clip must be in (0, 1], got {clip}")
    lo = x.min(axis=-1)
    hi = x.max(axis=-1)
    qmax = float(2**bits - 1)
    mu = clip * (hi - lo) / qmax
    mu = np.where(mu > 0, mu, 1.0)
    z = -np.rint(lo / mu)
    codes = np.clip(np.rint(x / mu[..., None]) + z[..., None], 0, qmax)
    return codes.astype(np.int64), mu, z


def rtn_dequantize(codes, mu, z) -> np.ndarray:
    """mu * (code - z), the inverse map of rtn_quantize."""
    codes = np.asarray(codes, dtype=np.float64)
    return np.asarray(mu)[..., None] * (codes - np.asarray(z)[..., None])


def decompose_bitplanes(codes, mu, z):
    """Split INT4 codes into four bit planes.

    Returns (planes, plane_scales, shift): planes holds bit a of each code in
    a new axis before the element axis, plane_scales[a] = 2^a * mu (exact,
    power-of-two scaling), shift = -mu * z.
    """
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > 15):
        raise DataError("codes out of INT4 range")
    codes = codes.astype(np.uint8)
    mu = np.asarray(mu, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    planes = np.stack([(codes >> a) & 1 for a in range(4)], axis=-2)
    plane_scales = np.stack([np.ldexp(mu, a) for a in range(4)], axis=-1)
    shift = -mu * z
    return planes, plane_scales, shift


@dataclass
class ActBitplanes:
    """Quantized activations for one layer input.

    planes: uint64 words (tokens, n_groups, 4, words_per_group) in permuted
    channel order; mu/zero/shift per (token, group); plane_scales per
    (token, group, plane). The outlier tail holds per-token 8-bit codes.
    """

    tokens: int
    group_size: int
    outliers: int
    perm: np.ndarray
    planes: np.ndarray
    mu: np.ndarray
    zero: np.ndarray
    plane_scales: np.ndarray
    shift: np.ndarray
    out_codes: np.ndarray
    out_scale: np.ndarray
    out_zero: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.planes.shape[1]

    def codes(self) -> np.ndarray:
        """Reassembled integer codes, shape (tokens, n_groups, group_size)."""
        bits = unpack_bits(self.planes, self.group_size)
        weights = np.array([1, 2, 4, 8], dtype=np.uint8)
        return (bits * weights[:, None]).sum(axis=-2, dtype=np.uint8)


def quantize_activations(
    x, group_size: int, outliers: int, perm=None, plane_corr=None, clip: float = 1.0
) -> ActBitplanes:
    """Permute channels, RTN-quantize each (token, group) to INT4 planes, and
    quantize the trailing outlier channels to per-token INT8."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"activations must be 2-D, got shape {x.shape}")
    tokens, c_in = x.shape
    if perm is None:
        perm = np.arange(c_in, dtype=np.int64)
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (c_in,):
        raise DataError(f"perm length {perm.shape} does not match {c_in} channels")
    n_bin = c_in - outliers
    if n_bin < 0 or n_bin % group_size != 0:
        raise DataError(
            f"cannot split {c_in} channels into groups of {group_size} "
            f"with {outliers} outliers"
        )
    xp = x[:, perm]
    n_groups = n_bin // group_size
    grouped = xp[:, :n_bin].reshape(tokens, n_groups, group_size)
    codes, mu, z = rtn_quantize(grouped, 4, clip)
    planes, plane_scales, shift = decompose_bitplanes(codes, mu, z)
    if plane_corr is not None:
        plane_scales = plane_scales * np.asarray(plane_corr, dtype=np.float64)[None, :, :]
    packed = pack_bits(planes).reshape(tokens, n_groups, 4, words_for(group_size))
    if outliers:
        out_codes, out_scale, out_zero = rtn_quantize(xp[:, n_bin:], 8, clip)
        out_codes = out_codes.astype(np.uint8)
    else:
        out_codes = np.zeros((tokens, 0), dtype=np.uint8)
        out_scale = np.ones(tokens, dtype=np.float64)
        out_zero = np.zeros(tokens, dtype=np.float64)
    return ActBitplanes(
        tokens=tokens,
        group_size=group_size,
        outliers=outliers,
        perm=perm,
        planes=packed,
        mu=mu,
        zero=z,
        plane_scales=plane_scales,
        shift=shift,
        out_codes=out_codes,
        out_scale=out_scale,
        out_zero=out_zero,
    )


def reconstruct(bp: ActBitplanes) -> np.ndarray:
    """Dequantized binarized channels, shape (tokens, n_groups * group_size).

    Evaluated as mu * (sum_a (mu_a/mu) * b_a - z). With unbalanced scales the
    inner sum is the exact integer code, so the result is bit-identical to
    rtn_dequantize of the codes. The planes are unpacked one at a time, so
    the temporaries stay at two float64 values per element.
    """
    ratios = bp.plane_scales / bp.mu[..., None]
    level = np.zeros((bp.tokens, bp.n_groups, bp.group_size))
    term = np.empty_like(level)
    for a in range(4):
        bits = unpack_bits(bp.planes[:, :, a], bp.group_size)
        level += np.multiply(bits, ratios[..., a, None], out=term)
    level -= bp.zero[..., None]
    level *= bp.mu[..., None]
    return level.reshape(bp.tokens, -1)


def reconstruct_outliers(bp: ActBitplanes) -> np.ndarray:
    codes = bp.out_codes.astype(np.float64)
    return bp.out_scale[:, None] * (codes - bp.out_zero[:, None])


def _scale_deltas(err, codes, mu, plane_scales) -> np.ndarray:
    """Balancing moves of the plane scales, shape (tokens, groups, 4).

    err is the residual x - mu * (code - z) and codes the INT4 codes, both
    (tokens, groups, B). Each element's ratio E / (mu * code) is summed per
    plane over the elements whose code has bit a set, straight from the
    codes; the move is plane_scale * sum / count, and 0 for an empty plane.
    """
    core = mu[..., None] * codes.astype(np.float64)
    ratio = np.divide(err, core, out=np.zeros_like(err), where=codes > 0)
    codes = codes.astype(np.uint8)
    member_sum = np.empty(plane_scales.shape)
    member_cnt = np.empty(plane_scales.shape)
    for a in range(4):
        bit = ((codes >> a) & 1).astype(np.float64)
        member_sum[..., a] = np.einsum("tgb,tgb->tg", bit, ratio)
        member_cnt[..., a] = bit.sum(axis=-1)
    return np.where(
        member_cnt > 0, plane_scales * member_sum / np.maximum(member_cnt, 1.0), 0.0
    )


def balance_scales(x_fp, bp: ActBitplanes) -> ActBitplanes:
    """Distribute the residual quantization error over the plane scales.

    For each (token, group) and plane a, the scale moves by the mean of
    mu_a * E / (mu * code) over the elements whose bit a is set. This zeroes
    the first-order (mean) residual of the nonzero-code elements. Groups
    whose codes are all zero are left untouched. The per-plane sums come
    from the uint8 codes, one plane at a time (shared with
    plane_corrections); the residual is taken against reconstruct(bp), so
    any plane scales are honoured.
    """
    x_fp = np.asarray(x_fp, dtype=np.float64)
    recon = reconstruct(bp)
    if x_fp.shape != recon.shape:
        raise DataError(f"shape mismatch: {x_fp.shape} vs reconstruction {recon.shape}")
    codes = bp.codes()
    err = (x_fp - recon).reshape(codes.shape)
    delta = _scale_deltas(err, codes, bp.mu, bp.plane_scales)
    skipped = int(np.sum(~codes.any(axis=-1)))
    if skipped:
        log.debug("balance_scales: %d all-zero groups skipped", skipped)
    return replace(bp, plane_scales=bp.plane_scales + delta)


# Calibration tokens per block in plane_corrections: bounds its temporaries,
# so peak memory does not grow with the calibration set.
PLANE_CORR_TOKENS = 256
# Plane corrections are multiples of 1/CORR_GRID. Such values are exact in
# float32, and on this grid a group's four corrected plane scales are
# mu/CORR_GRID times integers, so the kernel can fold the planes into one
# integer level per element. Learned corrections lie within 0.5% of 1; on
# the benchmark's 4x1024 stack the rounding moved the output error by ~0.02%.
CORR_GRID = 4096


def plane_corrections(x, layer) -> np.ndarray:
    """Per-(group, plane) multiplicative corrections learned from calibration
    data: the token-averaged ratio of balanced to unbalanced plane scales.

    The tokens are walked in blocks of PLANE_CORR_TOKENS. Each block's
    binarized channels are RTN-quantized once, and the balancing of
    balance_scales runs on the INT4 codes directly: with unit scales the
    reconstruction is exactly mu * (code - z), so no bit planes are packed
    or unpacked. The per-token ratios land in one (tokens, groups, 4) array
    whose mean is taken once, so the result does not depend on the block
    size. The float64 mean is rounded to the nearest multiple of
    1/CORR_GRID. The outlier channels only have to be finite.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise DataError(f"activations must be 2-D, got shape {x.shape}")
    tokens, c_in = x.shape
    perm = np.asarray(layer.perm, dtype=np.int64)
    if perm.shape != (c_in,):
        raise DataError(f"perm length {perm.shape} does not match {c_in} channels")
    b = layer.group_size
    n_bin = c_in - layer.outliers
    if n_bin < 0 or n_bin % b != 0:
        raise DataError(
            f"cannot split {c_in} channels into groups of {b} "
            f"with {layer.outliers} outliers"
        )
    n_groups = n_bin // b
    binarized = perm[:n_bin]
    ratio = np.empty((tokens, n_groups, 4))
    skipped = 0
    for start in range(0, tokens, PLANE_CORR_TOKENS):
        blk = slice(start, start + PLANE_CORR_TOKENS)
        xb = np.asarray(x[blk], dtype=np.float64)
        if not np.isfinite(xb).all():
            raise DataError("non-finite activation values")
        grouped = xb[:, binarized].reshape(-1, n_groups, b)
        codes, mu, z = rtn_quantize(grouped, 4)
        recon = mu[..., None] * (codes - z[..., None])
        scales = np.ldexp(mu[..., None], np.arange(4))
        delta = _scale_deltas(grouped - recon, codes, mu, scales)
        ratio[blk] = (scales + delta) / scales
        skipped += int(np.sum(~codes.any(axis=-1)))
    if skipped:
        log.debug("plane_corrections: %d all-zero groups skipped", skipped)
    return (np.rint(ratio.mean(axis=0) * CORR_GRID) / CORR_GRID).astype(np.float32)
