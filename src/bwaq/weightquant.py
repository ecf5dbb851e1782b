"""Weight binarization: per-group 4-center clustering with Hessian weights,
two-subgroup fine structure, block error compensation, INT8 outlier block.

Every (output row, channel group) pair is clustered independently into at
most four center values: an exact interval DP over the sorted values finds
the optimal partition, and e/m steps run from it until the assignment stops
changing. The centers are encoded as a sign bit, a subgroup bit, and one
(alpha, beta) affine pair per subgroup. Centers are canonically ordered so
the sign bit always selects the upper center of its subgroup. The sign bit
maps to +/-1 at dequantization: dequant(q) = alpha*(2q - 1) + beta.

Row groups within a block are independent and processed as one vectorized
batch; blocks are strictly sequential because compensation mutates the
remaining columns. The produced QuantizedLinear is immutable in spirit and
safe to share across threads.
"""

from dataclasses import dataclass, field

import numpy as np

from .actquant import rtn_quantize
from .bits import pack_bits, unpack_bits, words_for
from .calibration import CalibrationStats
from .config import QuantConfig
from .errors import ConfigError, DataError

_QUANTILES_2 = (0.25, 0.75)


@dataclass
class QuantizedLinear:
    """Packed 1+1-bit layer plus affine parameters and the INT8 outlier block.

    signs/mask are uint64 word arrays of shape (rows, n_groups, words) in the
    permuted channel order; affine is float32 (rows, n_groups, 2, 2) indexed
    [subgroup][alpha, beta]; plane_corr holds per-(group, plane) activation
    scale corrections applied at inference. _kernel holds the constants
    bitkernel.prepare derives on the first forward call; it is never
    serialized or compared, and dataclasses.replace leaves it behind.
    """

    rows: int
    cols: int
    group_size: int
    outliers: int
    signs: np.ndarray
    mask: np.ndarray
    affine: np.ndarray
    perm: np.ndarray
    out_codes: np.ndarray
    out_scale: np.ndarray
    out_zero: np.ndarray
    plane_corr: np.ndarray
    _kernel: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_groups(self) -> int:
        return (self.cols - self.outliers) // self.group_size

    @property
    def words_per_group(self) -> int:
        return words_for(self.group_size)

    def validate(self) -> None:
        if (self.cols - self.outliers) % self.group_size != 0:
            raise DataError("binarized width is not a multiple of group_size")
        if sorted(self.perm.tolist()) != list(range(self.cols)):
            raise DataError("perm is not a bijection on the column indices")
        if not np.isfinite(self.affine).all():
            raise DataError("non-finite affine parameters")
        if not (np.isfinite(self.out_scale).all() and np.isfinite(self.out_zero).all()):
            raise DataError("non-finite outlier scale/zero")
        if not np.isfinite(self.plane_corr).all():
            raise DataError("non-finite plane corrections")


@dataclass
class QuantReport:
    """Sidecar quantization report for one layer."""

    rows: int
    cols: int
    group_size: int
    outliers: int
    em_loss: float
    group_loss: list
    weighted_error: float
    output_error: float
    bits_per_weight: float

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "group_size": self.group_size,
            "outliers": self.outliers,
            "em_loss": self.em_loss,
            "group_loss": self.group_loss,
            "weighted_error": self.weighted_error,
            "output_error": self.output_error,
            "bits_per_weight": self.bits_per_weight,
        }


@dataclass
class EmResult:
    s_bits: np.ndarray
    q_bits: np.ndarray
    centers: np.ndarray
    loss: np.ndarray
    history: list = field(default_factory=list)


def _check_group_inputs(w, hw):
    w = np.asarray(w, dtype=np.float64)
    hw = np.asarray(hw, dtype=np.float64)
    if hw.ndim != 1 or w.shape[-1] != hw.shape[0]:
        raise DataError(f"weight shape {w.shape} incompatible with hw shape {hw.shape}")
    if not np.isfinite(w).all():
        raise DataError("non-finite weight values")
    if not np.isfinite(hw).all() or (hw <= 0).any():
        raise DataError("hessian weights must be finite and strictly positive")
    return w, hw


def _weighted_quantiles(w, hw, probs):
    """Inverse empirical CDF: smallest value whose cumulative weight reaches
    p * total. Reduces to the classic nearest-rank rule for unit weights and
    always returns actual data values, which keeps initial centers inside
    populated regions."""
    order = np.argsort(w, axis=-1, kind="stable")
    w_sorted = np.take_along_axis(w, order, axis=-1)
    hw_sorted = np.broadcast_to(hw, w.shape)
    hw_sorted = np.take_along_axis(hw_sorted, order, axis=-1)
    cumw = np.cumsum(hw_sorted, axis=-1)
    total = cumw[..., -1:]
    out = []
    for p in probs:
        target = p * total
        idx = np.sum(cumw < target, axis=-1, keepdims=True)
        idx = np.minimum(idx, w.shape[-1] - 1)
        out.append(np.take_along_axis(w_sorted, idx, axis=-1)[..., 0])
    return out


def e_step(w, hw, centers):
    """Assign each element to the nearest center under hw-weighted squared
    distance; exact ties go to the smaller (s, q) pair."""
    w, hw = _check_group_inputs(w, hw)
    centers = np.asarray(centers, dtype=np.float64)
    if not np.isfinite(centers).all():
        raise DataError("non-finite centers")
    flat = centers.reshape(centers.shape[:-2] + (4,))
    dist = hw[:, None] * (w[..., :, None] - flat[..., None, :]) ** 2
    # argmin returns the first minimum, i.e. the lexicographically
    # smallest (s, q) on ties
    idx = np.argmin(dist, axis=-1)
    return (idx >> 1).astype(np.uint8), (idx & 1).astype(np.uint8)


def m_step(w, hw, s_bits, q_bits, prev_centers) -> np.ndarray:
    """Weighted mean per cluster; empty clusters keep their previous center.
    Centers are re-sorted within each subgroup so that c(s,1) >= c(s,0)."""
    w, hw = _check_group_inputs(w, hw)
    idx = (np.asarray(s_bits, dtype=np.int64) << 1) | np.asarray(q_bits, dtype=np.int64)
    onehot = idx[..., :, None] == np.arange(4)
    den = (hw[:, None] * onehot).sum(axis=-2)
    if not den.any():
        raise DataError("all clusters empty")
    # mean anchored at the cluster's first member: exact for constant
    # clusters, which keeps already-representable groups at zero loss
    first = np.argmax(onehot, axis=-2)
    anchor = np.take_along_axis(w, first, axis=-1)
    num = ((hw[:, None] * (w[..., :, None] - anchor[..., None, :])) * onehot).sum(axis=-2)
    prev = np.asarray(prev_centers, dtype=np.float64).reshape(num.shape)
    with np.errstate(invalid="ignore"):
        centers = np.where(den > 0, anchor + num / np.where(den > 0, den, 1.0), prev)
    centers = centers.reshape(centers.shape[:-1] + (2, 2))
    return np.sort(centers, axis=-1)


def clustering_loss(w, hw, centers, s_bits, q_bits) -> np.ndarray:
    """Hessian-weighted squared-error objective of an assignment."""
    w = np.asarray(w, dtype=np.float64)
    hw = np.asarray(hw, dtype=np.float64)
    flat = np.asarray(centers, dtype=np.float64).reshape(centers.shape[:-2] + (4,))
    idx = (np.asarray(s_bits, dtype=np.int64) << 1) | np.asarray(q_bits, dtype=np.int64)
    assigned = np.take_along_axis(flat, idx, axis=-1)
    return (hw * (w - assigned) ** 2).sum(axis=-1)


def optimal_partition(w, hw):
    """Globally optimal hw-weighted partition of each row into 4 clusters.

    Optimal clusters of the 1-D weighted squared-error objective are
    contiguous in sorted order, so an interval DP over each row's sorted
    values is exact (Wang & Song, Ckmeans.1d.dp, R Journal 3(2), 2011).
    Rows are centered at their weighted mean before the prefix sums, which
    keeps the S2 - S1^2/S0 interval costs free of cancellation under large
    common offsets. The four ascending clusters map onto the (subgroup, q)
    center layout: the outer pair is subgroup 1, the inner pair subgroup 0,
    and q selects the upper cluster of its pair. Returns (s_bits, q_bits) in
    input order.
    """
    w, hw = _check_group_inputs(w, hw)
    n = w.shape[-1]
    if n < 4:
        raise DataError(f"need at least 4 elements per group, got {n}")
    flat = w.reshape(-1, n)
    order = np.argsort(flat, axis=-1, kind="stable")
    v = np.take_along_axis(flat, order, axis=-1)
    h = hw[order]
    v = v - (h * v).sum(axis=-1, keepdims=True) / h.sum(axis=-1, keepdims=True)
    # prefix sums with rows on the inner axis, so each slab is contiguous
    p0 = np.zeros((n + 1, flat.shape[0]))
    p1 = np.zeros_like(p0)
    np.cumsum(h.T, axis=0, out=p0[1:])
    np.cumsum((h * v).T, axis=0, out=p1[1:])

    # cost(i, j) = S2 - S1^2/S0 over sorted [i, j). The S2 prefix terms
    # telescope out of every minimum, so level m carries only
    # e[m-1, j] = D_m[j] - P2[j], and one S1^2/S0 slab per right end j
    # serves both levels 2 and 3.
    e = np.full((3,) + p0.shape, np.inf)
    e[0, 1:] = -p1[1:] ** 2 / p0[1:]
    for j in range(2, n):
        slab = (p1[j] - p1[:j]) ** 2 / (p0[j] - p0[:j])
        e[1, j] = (e[0, 1:j] - slab[1:]).min(axis=0)
        if j >= 3:
            e[2, j] = (e[1, 2:j] - slab[2:]).min(axis=0)

    rows = np.arange(flat.shape[0])
    idx = np.arange(n + 1)[:, None]

    def last_boundary(m, right):
        # start of the last of m + 1 clusters ending at `right`, per row
        with np.errstate(divide="ignore", invalid="ignore"):
            slab = (p1[right, rows] - p1) ** 2 / (p0[right, rows] - p0)
            cand = np.where((idx >= m) & (idx < right), e[m - 1] - slab, np.inf)
        return np.argmin(cand, axis=0)

    b3 = last_boundary(3, np.full(rows.size, n))
    b2 = last_boundary(2, b3)
    b1 = last_boundary(1, b2)
    pos = np.arange(n)
    cluster = (
        (pos >= b1[:, None]).astype(np.int64)
        + (pos >= b2[:, None])
        + (pos >= b3[:, None])
    )
    labels = np.empty_like(cluster)
    np.put_along_axis(labels, order, cluster, axis=-1)
    s_bits = ((labels == 0) | (labels == 3)).astype(np.uint8).reshape(w.shape)
    q_bits = (labels >= 2).astype(np.uint8).reshape(w.shape)
    return s_bits, q_bits


def em_binarize(w, hw, iters: int) -> EmResult:
    """Exact 4-center clustering of each group, refined by e/m steps.

    The seed is the globally optimal partition from optimal_partition, with
    centers from m_step so that constant clusters stay exact. At most
    `iters` e/m steps follow; the loop stops at the first assignment step
    that gives back the previous assignment, because from a fixed point no
    further step changes bits, centers or loss. The recorded loss history is
    evaluated after each assignment step and is non-increasing; the emitted
    bits are always those of an assignment step on the returned centers.
    """
    if iters < 1:
        raise DataError(f"iters must be >= 1, got {iters}")
    w, hw = _check_group_inputs(w, hw)
    s_bits, q_bits = optimal_partition(w, hw)
    centers = m_step(w, hw, s_bits, q_bits, np.zeros(w.shape[:-1] + (2, 2)))
    history = []
    for _ in range(iters):
        s_new, q_new = e_step(w, hw, centers)
        history.append(clustering_loss(w, hw, centers, s_new, q_new))
        if np.array_equal(s_new, s_bits) and np.array_equal(q_new, q_bits):
            break
        s_bits, q_bits = s_new, q_new
        centers = m_step(w, hw, s_bits, q_bits, centers)
    else:
        s_bits, q_bits = e_step(w, hw, centers)
        history.append(clustering_loss(w, hw, centers, s_bits, q_bits))
    return EmResult(
        s_bits=s_bits, q_bits=q_bits, centers=centers, loss=history[-1], history=history
    )


def em_binarize_plain(w, hw, iters: int) -> EmResult:
    """Single-subgroup variant: two free centers, subgroup bit forced to 0."""
    if iters < 1:
        raise DataError(f"iters must be >= 1, got {iters}")
    w, hw = _check_group_inputs(w, hw)
    lo, hi = _weighted_quantiles(w, hw, _QUANTILES_2)
    centers2 = np.stack([lo, hi], axis=-1)
    for _ in range(iters):
        dist = hw[:, None] * (w[..., :, None] - centers2[..., None, :]) ** 2
        q_bits = np.argmin(dist, axis=-1)
        onehot = q_bits[..., :, None] == np.arange(2)
        den = (hw[:, None] * onehot).sum(axis=-2)
        first = np.argmax(onehot, axis=-2)
        anchor = np.take_along_axis(w, first, axis=-1)
        num = ((hw[:, None] * (w[..., :, None] - anchor[..., None, :])) * onehot).sum(axis=-2)
        new = np.where(den > 0, anchor + num / np.where(den > 0, den, 1.0), centers2)
        centers2 = np.sort(new, axis=-1)
    dist = hw[:, None] * (w[..., :, None] - centers2[..., None, :]) ** 2
    q_bits = np.argmin(dist, axis=-1).astype(np.uint8)
    assigned = np.take_along_axis(centers2, q_bits.astype(np.int64), axis=-1)
    loss = (hw * (w - assigned) ** 2).sum(axis=-1)
    centers = np.zeros(centers2.shape[:-1] + (2, 2), dtype=np.float64)
    centers[..., 0, :] = centers2
    return EmResult(
        s_bits=np.zeros_like(q_bits),
        q_bits=q_bits,
        centers=centers,
        loss=loss,
    )


def rtn_binarize(w, clip: float = 1.0) -> EmResult:
    """Equally spaced 2-bit RTN levels expressed in the (s, q) encoding.

    Code c in 0..3 maps to s = c >> 1, q = c & 1 with centers mu*(c - z),
    so the packed layer format represents plain RTN exactly."""
    w = np.asarray(w, dtype=np.float64)
    codes, mu, z = rtn_quantize(w, 2, clip)
    levels = mu[..., None] * (np.arange(4) - z[..., None])
    s_bits = (codes >> 1).astype(np.uint8)
    q_bits = (codes & 1).astype(np.uint8)
    return EmResult(
        s_bits=s_bits,
        q_bits=q_bits,
        centers=levels.reshape(levels.shape[:-1] + (2, 2)),
        loss=((w - np.take_along_axis(levels, codes.astype(np.int64), axis=-1)) ** 2).sum(-1),
    )


def recover_affine(centers) -> np.ndarray:
    """Per subgroup: alpha = (c1 - c0)/2, beta = (c1 + c0)/2, so that
    alpha*(2q - 1) + beta reproduces both centers. Shape (..., 2, 2) with the
    last axis holding (alpha, beta)."""
    centers = np.asarray(centers, dtype=np.float64)
    c0 = centers[..., 0]
    c1 = centers[..., 1]
    return np.stack([(c1 - c0) / 2.0, (c1 + c0) / 2.0], axis=-1)


def effective_centers(affine) -> np.ndarray:
    """Centers actually representable by stored affine parameters:
    c(s, q) = beta + (2q - 1) * alpha evaluated in float64."""
    alpha = np.asarray(affine[..., 0], dtype=np.float64)
    beta = np.asarray(affine[..., 1], dtype=np.float64)
    return np.stack([beta - alpha, beta + alpha], axis=-1)


def gptq_compensate(w_remaining, err_block, chol_slice) -> np.ndarray:
    """Update not-yet-quantized columns by subtracting err_block @ chol_slice."""
    w_remaining = np.asarray(w_remaining, dtype=np.float64)
    err_block = np.asarray(err_block, dtype=np.float64)
    chol_slice = np.asarray(chol_slice, dtype=np.float64)
    if err_block.shape[0] != w_remaining.shape[0]:
        raise DataError(
            f"row mismatch: error block {err_block.shape} vs remaining {w_remaining.shape}"
        )
    if chol_slice.shape != (err_block.shape[1], w_remaining.shape[1]):
        raise DataError(
            f"factor slice shape {chol_slice.shape} incompatible with "
            f"error {err_block.shape} and remaining {w_remaining.shape}"
        )
    return w_remaining - err_block @ chol_slice


def quant_outliers_int8(w_out, clip: float = 1.0):
    """Per-row asymmetric 8-bit RTN. Returns (codes, scale, zero)."""
    w_out = np.asarray(w_out, dtype=np.float64)
    if w_out.size and not np.isfinite(w_out).all():
        raise DataError("non-finite outlier weights")
    if w_out.shape[-1] == 0:
        rows = w_out.shape[0]
        return (
            np.zeros((rows, 0), dtype=np.uint8),
            np.ones(rows, dtype=np.float64),
            np.zeros(rows, dtype=np.float64),
        )
    codes, mu, z = rtn_quantize(w_out, 8, clip)
    return codes.astype(np.uint8), mu, z


def dequant_outliers(codes, scale, zero) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    return np.asarray(scale, dtype=np.float64)[:, None] * (
        codes - np.asarray(zero, dtype=np.float64)[:, None]
    )


def inverse_diag_from_factor(chol_inv) -> np.ndarray:
    """diag((H + lambda*I)^-1) recovered from its upper Cholesky factor."""
    return (np.asarray(chol_inv, dtype=np.float64) ** 2).sum(axis=0)


def diag_weighted_error(delta, inv_diag) -> float:
    """Per-column weighted squared error, weights 1/diag(H^-1)."""
    delta = np.asarray(delta, dtype=np.float64)
    return float(((delta**2).sum(axis=0) / np.asarray(inv_diag)).sum())


def output_error(delta, hessian) -> float:
    """Quadratic-form error trace(delta H delta^T): the activation-space
    reconstruction error the compensation step targets."""
    delta = np.asarray(delta, dtype=np.float64)
    return float(((delta @ np.asarray(hessian, dtype=np.float64)) * delta).sum())


def _bits_per_weight(rows, cols, group_size, outliers) -> float:
    from .modelio import layer_nbytes

    return layer_nbytes(rows, cols, group_size, outliers) * 8.0 / (rows * cols)


def quantize_linear(w, stats: CalibrationStats, cfg: QuantConfig):
    """Run the full per-layer pipeline; returns (QuantizedLinear, QuantReport).

    Columns are processed in permuted order, one group-width block at a time:
    cluster each (row, group), pack bits and affine, then propagate the
    scaled quantization error into the remaining binarized columns. The
    trailing outlier columns are quantized to INT8 at the end.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ConfigError(f"weight matrix must be 2-D, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise DataError("non-finite weights")
    rows, cols = w.shape
    cfg.validate(n_cols=cols)
    if cfg.weight_mode == "em" and cfg.group_size < 4:
        raise ConfigError("EM mode needs group_size >= 4")
    if stats.perm is None or stats.chol_inv is None:
        raise ConfigError("calibration stats are missing perm/chol_inv")
    if stats.chol_inv.shape != (cols, cols):
        raise ConfigError(
            f"chol_inv shape {stats.chol_inv.shape} does not match {cols} columns"
        )
    if np.shape(stats.perm) != (cols,):
        raise ConfigError(
            f"perm length {np.shape(stats.perm)} does not match {cols} columns"
        )

    perm = np.asarray(stats.perm, dtype=np.int64)
    chol = np.asarray(stats.chol_inv, dtype=np.float64)
    n_bin = cols - cfg.outliers
    n_groups = n_bin // cfg.group_size
    wpg = words_for(cfg.group_size)

    w_perm = w[:, perm]
    work = w_perm.copy()
    udiag = np.diag(chol)

    signs = np.zeros((rows, n_groups, wpg), dtype=np.uint64)
    mask = np.zeros((rows, n_groups, wpg), dtype=np.uint64)
    affine = np.zeros((rows, n_groups, 2, 2), dtype=np.float32)
    deq_bin = np.zeros((rows, n_bin), dtype=np.float64)
    group_loss = np.zeros((rows, n_groups), dtype=np.float64)

    for g in range(n_groups):
        i0 = g * cfg.group_size
        i1 = i0 + cfg.group_size
        blk = work[:, i0:i1]
        d = udiag[i0:i1]
        hw = 1.0 / (d * d)

        if cfg.weight_mode == "rtn":
            res = rtn_binarize(blk, cfg.clip_ratio)
        elif cfg.fine_grained:
            res = em_binarize(blk, hw, cfg.em_iters)
        else:
            res = em_binarize_plain(blk, hw, cfg.em_iters)

        aff = recover_affine(res.centers).astype(np.float32)
        if not cfg.fine_grained and cfg.weight_mode == "em":
            aff[..., 1, :] = 0.0
        affine[:, g] = aff

        centers_eff = effective_centers(affine[:, g])
        deq = centers_eff[
            np.arange(rows)[:, None],
            res.s_bits.astype(np.int64),
            res.q_bits.astype(np.int64),
        ]
        deq_bin[:, i0:i1] = deq
        signs[:, g] = pack_bits(res.q_bits).reshape(rows, wpg)
        mask[:, g] = pack_bits(res.s_bits).reshape(rows, wpg)
        group_loss[:, g] = (hw * (blk - deq) ** 2).sum(axis=-1)

        if cfg.compensate and i1 < n_bin:
            err = (blk - deq) / d
            work[:, i1:n_bin] = gptq_compensate(work[:, i1:n_bin], err, chol[i0:i1, i1:n_bin])

    out_codes, out_scale, out_zero = quant_outliers_int8(w_perm[:, n_bin:], cfg.clip_ratio)

    layer = QuantizedLinear(
        rows=rows,
        cols=cols,
        group_size=cfg.group_size,
        outliers=cfg.outliers,
        signs=signs,
        mask=mask,
        affine=affine,
        perm=perm,
        out_codes=out_codes,
        out_scale=out_scale.astype(np.float32),
        out_zero=out_zero.astype(np.float32),
        plane_corr=np.ones((n_groups, 4), dtype=np.float32),
    )
    layer.validate()

    h_perm = np.asarray(stats.hessian, dtype=np.float64)[np.ix_(perm, perm)]
    inv_diag = inverse_diag_from_factor(chol)
    delta_bin = w_perm[:, :n_bin] - deq_bin
    delta_full = np.concatenate(
        [delta_bin, w_perm[:, n_bin:] - dequant_outliers(out_codes, out_scale, out_zero)],
        axis=1,
    )
    report = QuantReport(
        rows=rows,
        cols=cols,
        group_size=cfg.group_size,
        outliers=cfg.outliers,
        em_loss=float(group_loss.sum()),
        group_loss=group_loss.sum(axis=0).tolist(),
        weighted_error=diag_weighted_error(delta_bin, inv_diag[:n_bin]),
        output_error=output_error(delta_full, h_perm),
        bits_per_weight=_bits_per_weight(rows, cols, cfg.group_size, cfg.outliers),
    )
    return layer, report


def dequant_weights(layer: QuantizedLinear, original_order: bool = True) -> np.ndarray:
    """Fully dequantized weight matrix, float64."""
    rows = layer.rows
    b = layer.group_size
    n_bin = layer.cols - layer.outliers
    out = np.empty((rows, layer.cols), dtype=np.float64)
    centers = effective_centers(np.asarray(layer.affine, dtype=np.float64))
    for g in range(layer.n_groups):
        q = unpack_bits(layer.signs[:, g], b).astype(np.int64)
        s = unpack_bits(layer.mask[:, g], b).astype(np.int64)
        out[:, g * b : (g + 1) * b] = centers[np.arange(rows)[:, None], g, s, q]
    out[:, n_bin:] = dequant_outliers(layer.out_codes, layer.out_scale, layer.out_zero)
    if original_order:
        inv = np.empty_like(layer.perm)
        inv[layer.perm] = np.arange(layer.cols)
        return out[:, inv]
    return out
