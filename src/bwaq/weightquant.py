"""Weight binarization: per-group 4-center clustering with Hessian weights,
two-subgroup fine structure, block error compensation, INT8 outlier block.

Every (output row, channel group) pair is clustered independently into at
most four center values (two without the fine-grained split): an exact
interval DP over the sorted values finds the optimal partition, and the
centers are its clusters' weighted means. That optimum is already a fixed
point of e/m steps, so no e/m loop follows it. The centers are encoded as
a sign bit, a subgroup bit, and one (alpha, beta) affine pair per subgroup.
Centers are canonically ordered so the sign bit always selects the upper
center of its subgroup. The sign bit maps to +/-1 at dequantization:
dequant(q) = alpha*(2q - 1) + beta.

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


def optimal_partition(w, hw, k: int = 4):
    """Globally optimal hw-weighted partition of each row into k clusters,
    k in {2, 4}.

    Optimal clusters of the 1-D weighted squared-error objective are
    contiguous in sorted order, so an interval DP over each row's sorted
    values is exact (Wang & Song, Ckmeans.1d.dp, R Journal 3(2), 2011).
    Rows are centered at their weighted mean before the prefix sums, which
    keeps the S2 - S1^2/S0 interval costs free of cancellation under large
    common offsets. The k ascending clusters map onto the (subgroup, q)
    center layout, q selecting the upper cluster of its pair: with k=4 the
    outer pair is subgroup 1 and the inner pair subgroup 0; with k=2 both
    clusters are in subgroup 0. Returns (s_bits, q_bits) in input order.
    """
    if k not in (2, 4):
        raise ConfigError(f"k must be 2 or 4, got {k}")
    w, hw = _check_group_inputs(w, hw)
    n = w.shape[-1]
    if n < k:
        raise DataError(f"need at least {k} elements per group, got {n}")
    flat = w.reshape(-1, n)
    order = np.argsort(flat, axis=-1, kind="stable")
    v = np.take_along_axis(flat, order, axis=-1)
    h = hw[order]
    v -= (h * v).sum(axis=-1, keepdims=True) / h.sum(axis=-1, keepdims=True)
    # prefix sums with rows on the inner axis, so each slab is contiguous;
    # the temporaries work in place, as this runs beside calibration
    p0 = np.zeros((n + 1, flat.shape[0]))
    p1 = np.zeros_like(p0)
    np.cumsum(h.T, axis=0, out=p0[1:])
    np.cumsum(np.multiply(h, v, out=h).T, axis=0, out=p1[1:])
    del h, v

    # cost(i, j) = S2 - S1^2/S0 over sorted [i, j). The S2 prefix terms
    # telescope out of every minimum, so level m carries only
    # e[m, j] = D_{m+1}[j] - P2[j], and one S1^2/S0 slab per right end j
    # serves every level below the last, which the backtrack solves.
    e = np.full((k - 1,) + p0.shape, np.inf)
    e[0, 1:] = -p1[1:] ** 2 / p0[1:]
    for j in range(2, n) if k > 2 else ():
        slab = p1[j] - p1[:j]
        slab **= 2
        slab /= p0[j] - p0[:j]
        for m in range(1, min(k - 1, j)):
            e[m, j] = (e[m - 1, m:j] - slab[m:]).min(axis=0)

    rows = np.arange(flat.shape[0])
    idx = np.arange(n + 1)[:, None]
    pos = np.arange(n)
    right = np.full(rows.size, n)
    cluster = np.zeros((rows.size, n), dtype=np.int64)
    for m in range(k - 1, 0, -1):
        # start of the last of m + 1 clusters ending at `right`, per row
        with np.errstate(divide="ignore", invalid="ignore"):
            slab = p1[right, rows] - p1
            slab **= 2
            slab /= p0[right, rows] - p0
            np.subtract(e[m - 1], slab, out=slab)
        slab[(idx < m) | (idx >= right)] = np.inf
        right = np.argmin(slab, axis=0)
        cluster += pos >= right[:, None]
    labels = np.empty_like(cluster)
    np.put_along_axis(labels, order, cluster, axis=-1)
    s_bits = ((k == 4) & ((labels == 0) | (labels == 3))).astype(np.uint8).reshape(w.shape)
    q_bits = (labels >= k // 2).astype(np.uint8).reshape(w.shape)
    return s_bits, q_bits


def _sum_over_b(a) -> np.ndarray:
    """Column sums of a C-ordered (B, rows) array, adding b = 0, 1, ... in
    order. numpy reduces axis 0 that way for two or more columns, but sums
    a lone column pairwise; its running sum keeps the order."""
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def em_binarize(w, hw, iters: int, k: int = 4) -> EmResult:
    """Exact k-center clustering of each group, k in {2, 4}.

    The bits are the globally optimal partition from optimal_partition and
    the centers its clusters' weighted means, each anchored at its cluster's
    first member, so constant clusters stay exact; an empty cluster's center
    is 0, so with k=2 subgroup 1's centers are 0. The centers are sorted
    within each subgroup. With k=4 each element is then reassigned to its
    nearest center under hw-weighted squared distance, exact ties going to
    the smaller (s, q) pair. The optimum is a fixed point of e/m steps, so
    none follow: `iters` is validated (>= 1) but has no effect, and
    `history` holds the one loss.

    The work after the partition runs one center at a time on a C-ordered
    (B, rows) copy of the group: every cluster sum adds its members in the
    order of b, as a sum over axis -2 of (rows, B, 4) one-hot tensors does.
    """
    if iters < 1:
        raise DataError(f"iters must be >= 1, got {iters}")
    w, hw = _check_group_inputs(w, hw)
    s_bits, q_bits = optimal_partition(w, hw, k)
    b = w.shape[-1]
    wt = np.ascontiguousarray(w.reshape(-1, b).T)
    slot = np.ascontiguousarray(((s_bits << 1) | q_bits).reshape(-1, b).T)
    hwc = hw[:, None]
    cols = np.arange(wt.shape[1])
    flat = np.zeros((wt.shape[1], 4))
    for c in range(4):
        member = slot == c
        den = _sum_over_b(hwc * member)
        anchor = wt[member.argmax(axis=0), cols]
        num = _sum_over_b(np.multiply(hwc * (wt - anchor), member))
        with np.errstate(invalid="ignore"):
            flat[:, c] = np.where(den > 0, anchor + num / np.where(den > 0, den, 1.0), 0.0)
    if not np.isfinite(flat).all():
        raise DataError("non-finite centers")
    centers = np.sort(flat.reshape(-1, 2, 2), axis=-1)
    flat = centers.reshape(-1, 4)

    # each element's weighted squared distance to its center; with k=4 the
    # nearest center's, the first one on ties
    best = np.full(wt.shape, np.inf)
    for c in range(4 if k == 4 else 2):
        dist = wt - flat[:, c]
        np.square(dist, out=dist)
        dist *= hwc
        if k == 4:
            slot[dist < best] = c
            np.minimum(best, dist, out=best)
        else:
            np.copyto(best, dist, where=slot == c)
    s_bits = np.ascontiguousarray((slot >> 1).T).reshape(w.shape)
    q_bits = np.ascontiguousarray((slot & 1).T).reshape(w.shape)
    # each row's loss is summed along its contiguous axis (pairwise), as a
    # sum over the last axis of the (rows, B) distances is
    loss = np.ascontiguousarray(best.T).reshape(w.shape).sum(axis=-1)
    return EmResult(
        s_bits=s_bits,
        q_bits=q_bits,
        centers=centers.reshape(w.shape[:-1] + (2, 2)),
        loss=loss,
        history=[loss],
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
    prod = delta @ np.asarray(hessian, dtype=np.float64)
    return float(np.multiply(prod, delta, out=prod).sum())


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

    # one C-ordered buffer (the order fixes the report's float sums): weights
    # ahead of the current block, compensated; their error behind it
    work = w.take(perm, axis=1)
    udiag = np.diag(chol)

    signs = np.zeros((rows, n_groups, wpg), dtype=np.uint64)
    mask = np.zeros((rows, n_groups, wpg), dtype=np.uint64)
    affine = np.zeros((rows, n_groups, 2, 2), dtype=np.float32)
    group_loss = np.zeros((rows, n_groups), dtype=np.float64)

    for g in range(n_groups):
        i0 = g * cfg.group_size
        i1 = i0 + cfg.group_size
        blk = work[:, i0:i1]
        d = udiag[i0:i1]
        hw = 1.0 / (d * d)

        if cfg.weight_mode == "rtn":
            res = rtn_binarize(blk, cfg.clip_ratio)
        else:
            res = em_binarize(blk, hw, cfg.em_iters, 4 if cfg.fine_grained else 2)

        affine[:, g] = recover_affine(res.centers).astype(np.float32)

        centers_eff = effective_centers(affine[:, g])
        deq = centers_eff[
            np.arange(rows)[:, None],
            res.s_bits.astype(np.int64),
            res.q_bits.astype(np.int64),
        ]
        signs[:, g] = pack_bits(res.q_bits).reshape(rows, wpg)
        mask[:, g] = pack_bits(res.s_bits).reshape(rows, wpg)
        group_loss[:, g] = (hw * (blk - deq) ** 2).sum(axis=-1)

        if cfg.compensate and i1 < n_bin:
            err = (blk - deq) / d
            work[:, i1:n_bin] = gptq_compensate(work[:, i1:n_bin], err, chol[i0:i1, i1:n_bin])
        np.subtract(w[:, perm[i0:i1]], deq, out=blk)

    # compensation never reaches the outlier columns
    out_codes, out_scale, out_zero = quant_outliers_int8(work[:, n_bin:], cfg.clip_ratio)
    work[:, n_bin:] -= dequant_outliers(out_codes, out_scale, out_zero)

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
    report = QuantReport(
        rows=rows,
        cols=cols,
        group_size=cfg.group_size,
        outliers=cfg.outliers,
        em_loss=float(group_loss.sum()),
        group_loss=group_loss.sum(axis=0).tolist(),
        weighted_error=diag_weighted_error(work[:, :n_bin], inv_diag[:n_bin]),
        output_error=output_error(work, h_perm),
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
