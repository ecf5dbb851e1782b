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

from .bits import pack_bits, unpack_bits
from .errors import DataError

log = logging.getLogger(__name__)


def rtn_quantize(x, bits: int, clip: float = 1.0):
    """Asymmetric round-to-nearest over the last axis.

    mu = clip * (max - min) / (2^bits - 1), z = -round(min/mu),
    codes = clamp(round(x/mu) + z, 0, 2^bits - 1). A zero range degenerates
    to mu = 1 with the same formulas, so constant inputs round-trip to
    round(value). Returns (codes, mu, z); mu and z drop the last axis. An
    overflow (a clip so small that z or x/mu is not finite) is a DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("non-finite activation values")
    if bits not in (2, 4, 8):
        raise DataError(f"unsupported bit width {bits}")
    codes, mu, z = _rtn_checked(x, bits, clip)
    return codes.astype(np.int64), mu, z


def _rtn_checked(x, bits: int, clip: float):
    """_rtn on finite input, with an overflow as a DataError: a clip so small
    that z or x/mu is not finite, or a range beyond the float64 maximum."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _rtn(x, float(2**bits - 1), clip)
    except FloatingPointError as exc:
        raise DataError(f"clip {clip} leaves no finite {bits}-bit scale: {exc}") from None


def _rtn(x, qmax: float, clip: float):
    """rtn_quantize on finite input; the codes stay float64."""
    if not 0 < clip <= 1:
        raise DataError(f"clip must be in (0, 1], got {clip}")
    lo = x.min(axis=-1)
    hi = x.max(axis=-1)
    mu = clip * (hi - lo) / qmax
    mu = np.where(mu > 0, mu, 1.0)
    z = -np.rint(lo / mu)
    codes = np.rint(x / mu[..., None])
    codes += z[..., None]
    np.clip(codes, 0, qmax, out=codes)
    return codes, mu, z


def rtn_dequantize(codes, mu, z) -> np.ndarray:
    """mu * (code - z), the inverse map of rtn_quantize."""
    codes = np.asarray(codes, dtype=np.float64)
    return np.asarray(mu)[..., None] * (codes - np.asarray(z)[..., None])


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
    quantize the trailing outlier channels to per-token INT8.

    The permuted copy is checked for finiteness once. The INT4 codes are
    computed once as uint8, and plane a is packed straight from them as
    (code >> a) & 1, zero-padded to whole words. The plane scales are
    ldexp(mu, a), times plane_corr when given. The result equals packing
    the planes of rtn_quantize's codes bit for bit.
    """
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
    xp = x.take(perm, axis=1)
    if not np.isfinite(xp).all():
        raise DataError("non-finite activation values")
    grouped = xp[:, :n_bin].reshape(tokens, n_bin // group_size, group_size)
    codes, mu, z = _rtn(grouped, 15.0, clip)
    codes = codes.astype(np.uint8)[:, :, None]
    planes = pack_bits((codes >> np.arange(4, dtype=np.uint8)[:, None]) & 1)
    plane_scales = np.ldexp(mu[..., None], np.arange(4))
    if plane_corr is not None:
        plane_scales *= np.asarray(plane_corr, dtype=np.float64)[None, :, :]
    if outliers:
        out_codes, out_scale, out_zero = _rtn(xp[:, n_bin:], 255.0, clip)
    else:
        out_codes, out_scale, out_zero = np.zeros((tokens, 0)), np.ones(tokens), np.zeros(tokens)
    return ActBitplanes(
        tokens=tokens,
        group_size=group_size,
        outliers=outliers,
        perm=perm,
        planes=planes,
        mu=mu,
        zero=z,
        plane_scales=plane_scales,
        shift=-mu * z,
        out_codes=out_codes.astype(np.uint8),
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


def _scale_deltas(err, core, codes, plane_scales) -> np.ndarray:
    """Balancing moves of the plane scales, shape (tokens, groups, 4).

    err is the residual x - mu * (code - z), core = mu * code and codes the
    uint8 INT4 codes, all (tokens, groups, B). Each element's ratio
    E / core is summed per plane over the elements whose code has bit a
    set, straight from the codes; the move is plane_scale * sum / count,
    and 0 for an empty plane. err is overwritten with the ratios (0 where
    the code is 0).
    """
    nonzero = codes > 0
    np.divide(err, core, out=err, where=nonzero)
    np.copyto(err, 0.0, where=~nonzero)
    member_sum = np.empty(plane_scales.shape)
    member_cnt = np.empty(plane_scales.shape)
    plane = np.empty_like(codes)
    bit = np.empty_like(err)
    for a in range(4):
        np.bitwise_and(np.right_shift(codes, a, out=plane), 1, out=plane)
        np.copyto(bit, plane)
        member_sum[..., a] = np.einsum("tgb,tgb->tg", bit, err)
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
    delta = _scale_deltas(err, bp.mu[..., None] * codes, codes, bp.plane_scales)
    skipped = int(np.sum(~codes.any(axis=-1)))
    if skipped:
        log.debug("balance_scales: %d all-zero groups skipped", skipped)
    return replace(bp, plane_scales=bp.plane_scales + delta)


# Calibration tokens per block of `bwaq quantize`'s calibration set and of
# plane_corrections: bounds the temporaries of every per-layer stage, so
# peak memory does not grow with the calibration set beyond the set itself.
PLANE_CORR_TOKENS = 256
# Plane corrections are multiples of 1/CORR_GRID. Such values are exact in
# float32, and on this grid a group's four corrected plane scales are
# mu/CORR_GRID times integers, so the kernel can fold the planes into one
# integer level per element. Learned corrections lie within 0.5% of 1; on
# the benchmark's 4x1024 stack the rounding moved the output error by ~0.02%.
CORR_GRID = 4096


def plane_corrections(x, layer, perm=None) -> np.ndarray:
    """Per-(group, plane) multiplicative corrections learned from calibration
    data: the token-averaged ratio of balanced to unbalanced plane scales.

    Only the channel layout is read: group_size and outliers of layer (a
    QuantizedLinear or the QuantConfig it is quantized with), and perm,
    layer.perm when None, so this can run before the weights are quantized.

    x is one token-major matrix or a sequence of them (token blocks of one
    calibration set), each cut again into blocks of at most
    PLANE_CORR_TOKENS tokens, which bounds the temporaries. `bwaq quantize`
    runs this on its main thread beside a worker thread's clustering, and
    every numpy call has to take the GIL back from that thread: whole
    calibration blocks keep the calls few. Each block's binarized channels are
    RTN-quantized once, and the balancing of balance_scales runs on the INT4
    codes directly: with unit scales the reconstruction is exactly
    mu * (code - z), so no bit planes are packed or unpacked. The per-token
    ratios are added up one token after the other, as numpy's mean over the
    token axis of all of them adds them: a running sum carried from block to
    block, so neither the result nor the memory depends on how the tokens
    are split into blocks, or on how many there are. The float64 mean is
    rounded to the nearest multiple of 1/CORR_GRID. The outlier channels
    only have to be finite.
    """
    blocks = [x] if isinstance(x, np.ndarray) else list(x)
    perm = np.asarray(layer.perm if perm is None else perm, dtype=np.int64)
    for shape in map(np.shape, blocks):
        if len(shape) != 2:
            raise DataError(f"activations must be 2-D, got shape {shape}")
        if perm.shape != (shape[1],):
            raise DataError(f"perm length {perm.shape} does not match {shape[1]} channels")
    c_in = perm.shape[0]
    b = layer.group_size
    n_bin = c_in - layer.outliers
    if n_bin < 0 or n_bin % b != 0:
        raise DataError(
            f"cannot split {c_in} channels into groups of {b} "
            f"with {layer.outliers} outliers"
        )
    n_groups = n_bin // b
    binarized = perm[:n_bin]
    total = np.zeros((n_groups, 4))
    tokens = 0
    step = PLANE_CORR_TOKENS
    skipped = 0
    for blk in blocks:
        for start in range(0, len(blk), step):
            xb = np.asarray(blk[start : start + step], dtype=np.float64)
            if not np.isfinite(xb).all():
                raise DataError("non-finite activation values")
            grouped = xb.take(binarized, axis=1).reshape(-1, n_groups, b)
            codes, mu, z = _rtn_checked(grouped, 4, 1.0)
            c8 = codes.astype(np.uint8)
            # the residual x - mu * (code - z) over the gathered copy, and the
            # core mu * code over the codes
            recon = np.subtract(codes, z[..., None])
            recon *= mu[..., None]
            err = np.subtract(grouped, recon, out=grouped)
            del recon
            core = np.multiply(codes, mu[..., None], out=codes)
            scales = np.ldexp(mu[..., None], np.arange(4))
            delta = _scale_deltas(err, core, c8, scales)
            # the running sum ahead of the block's ratios, accumulated in order
            run = np.empty((len(xb) + 1, n_groups, 4))
            run[0] = total
            np.divide(scales + delta, scales, out=run[1:])
            total = run.cumsum(axis=0)[-1]
            tokens += len(xb)
            skipped += int(np.sum(~c8.any(axis=-1)))
    if not tokens:
        raise DataError("no activation tokens")
    if skipped:
        log.debug("plane_corrections: %d all-zero groups skipped", skipped)
    return (np.rint(total / tokens * CORR_GRID) / CORR_GRID).astype(np.float32)
