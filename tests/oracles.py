"""Independent brute-force references for the test suite.

These deliberately share no code with the package under test: plain loops,
an interval dynamic program, numpy's own bit packing and scipy's BLAS and
Cholesky routines only. The imports from bwaq are its DataError, which the
scalar bit blocks and the retired activation decomposition raise as they did
when they lived in the package, and the library calls that two references
compose: eval_three_pass is a reference for how `bwaq eval` walks the stack,
and em_binarize_reference for how em_binarize follows optimal_partition,
not for the calls.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from bwaq import actquant, bitkernel, calibration, modelio, weightquant
from bwaq.config import QuantConfig
from bwaq.errors import DataError


@dataclass
class ClusteringResult:
    partition: np.ndarray  # cluster id per input element, in input order
    centers: np.ndarray  # k centers for the sorted-interval clusters
    loss: float


def dp_optimal_clusters(values, weights, k: int) -> ClusteringResult:
    """Globally optimal weighted k-means in 1-D by interval dynamic
    programming over the sorted values.

    Optimal clusters of a 1-D weighted squared-error objective are contiguous
    in sorted order, so DP over interval boundaries is exact.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = values.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if (weights <= 0).any():
        raise ValueError("weights must be strictly positive")

    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    # prefix sums for O(1) weighted interval cost
    pw = np.concatenate([[0.0], np.cumsum(w)])
    pwv = np.concatenate([[0.0], np.cumsum(w * v)])
    pwv2 = np.concatenate([[0.0], np.cumsum(w * v * v)])

    def interval_cost(i, j):
        # cost of sorted slice [i, j) with its weighted mean as center
        sw = pw[j] - pw[i]
        swv = pwv[j] - pwv[i]
        swv2 = pwv2[j] - pwv2[i]
        return swv2 - swv * swv / sw

    INF = float("inf")
    cost = np.full((k + 1, n + 1), INF)
    split = np.zeros((k + 1, n + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for m in range(1, k + 1):
        for j in range(m, n + 1):
            best, best_i = INF, m - 1
            for i in range(m - 1, j):
                if cost[m - 1, i] == INF:
                    continue
                c = cost[m - 1, i] + interval_cost(i, j)
                if c < best:
                    best, best_i = c, i
            cost[m, j] = best
            split[m, j] = best_i

    # allow unused clusters: best over m <= k
    best_m = int(np.argmin(cost[1 : k + 1, n])) + 1
    total = float(cost[best_m, n])

    bounds = [n]
    j = n
    for m in range(best_m, 0, -1):
        j = int(split[m, j])
        bounds.append(j)
    bounds = bounds[::-1]

    centers = np.zeros(k, dtype=np.float64)
    part_sorted = np.zeros(n, dtype=np.int64)
    for c in range(best_m):
        i, j = bounds[c], bounds[c + 1]
        sw = pw[j] - pw[i]
        centers[c] = (pwv[j] - pwv[i]) / sw
        part_sorted[i:j] = c
    for c in range(best_m, k):
        centers[c] = centers[best_m - 1]

    partition = np.zeros(n, dtype=np.int64)
    partition[order] = part_sorted
    return ClusteringResult(partition=partition, centers=centers, loss=total)


def clustering_loss_of(values, weights, partition, centers) -> float:
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    total = 0.0
    for x, w, c in zip(values, weights, partition):
        total += w * (x - centers[c]) ** 2
    return total


def enumerate_contiguous_optimum(values, weights, k: int) -> float:
    """Exhaustive minimum over all contiguous partitions of the sorted values
    into at most k clusters. Exponential; for n <= 12 only."""
    from itertools import combinations

    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    n = v.size

    def interval_cost(i, j):
        ww = w[i:j]
        vv = v[i:j]
        mean = (ww * vv).sum() / ww.sum()
        return float((ww * (vv - mean) ** 2).sum())

    best = float("inf")
    for m in range(1, k + 1):
        for cuts in combinations(range(1, n), m - 1):
            bounds = (0,) + cuts + (n,)
            total = sum(interval_cost(bounds[c], bounds[c + 1]) for c in range(m))
            best = min(best, total)
    return best


def e_step(w, hw, centers):
    """Assign each element to the nearest center under hw-weighted squared
    distance; exact ties go to the smaller (s, q) pair."""
    w = np.asarray(w, dtype=np.float64)
    hw = np.asarray(hw, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    flat = centers.reshape(centers.shape[:-2] + (4,))
    dist = hw[:, None] * (w[..., :, None] - flat[..., None, :]) ** 2
    # argmin returns the first minimum, i.e. the lexicographically
    # smallest (s, q) on ties
    idx = np.argmin(dist, axis=-1)
    return (idx >> 1).astype(np.uint8), (idx & 1).astype(np.uint8)


def m_step(w, hw, s_bits, q_bits, prev_centers) -> np.ndarray:
    """Weighted mean per cluster, anchored at the cluster's first member (so
    constant clusters are exact); empty clusters keep their previous center.
    Centers are re-sorted within each subgroup so that c(s,1) >= c(s,0).
    The cluster sums run over axis -2 of (..., B, 4) one-hot tensors."""
    w = np.asarray(w, dtype=np.float64)
    hw = np.asarray(hw, dtype=np.float64)
    idx = (np.asarray(s_bits, dtype=np.int64) << 1) | np.asarray(q_bits, dtype=np.int64)
    onehot = idx[..., :, None] == np.arange(4)
    den = (hw[:, None] * onehot).sum(axis=-2)
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


def em_binarize_reference(w, hw, k: int = 4) -> weightquant.EmResult:
    """em_binarize composed from its steps: optimal_partition, one m_step
    from zero centers, with k=4 one e_step, and the clustering_loss of the
    result."""
    w = np.asarray(w, dtype=np.float64)
    s_bits, q_bits = weightquant.optimal_partition(w, hw, k)
    centers = m_step(w, hw, s_bits, q_bits, np.zeros(w.shape[:-1] + (2, 2)))
    if k == 4:
        s_bits, q_bits = e_step(w, hw, centers)
    loss = clustering_loss(w, hw, centers, s_bits, q_bits)
    return weightquant.EmResult(s_bits, q_bits, centers, loss, history=[loss])


def naive_counts(q_bits, b_bits, m_bits):
    """Plain per-index subgroup counts: (v0, v1, r0, r1)."""
    if not (len(q_bits) == len(b_bits) == len(m_bits)):
        raise ValueError("length mismatch")
    v0 = v1 = r0 = r1 = 0
    for qi, bi, mi in zip(q_bits, b_bits, m_bits):
        e = qi & bi
        if mi:
            v1 += e
            r1 += bi
        else:
            v0 += e
            r0 += bi
    return v0, v1, r0, r1


def naive_folded_counts(q_bits, plane_bits, m_bits, levels):
    """Counts of one (row, group, token) folded over the four activation
    planes: sum_a levels[a] * (v0 + v1, v1, r1) of plane a."""
    folded = [0, 0, 0]
    for bits, level in zip(plane_bits, levels):
        v0, v1, _, r1 = naive_counts(q_bits, bits, m_bits)
        for i, count in enumerate((v0 + v1, v1, r1)):
            folded[i] += int(level) * count
    return folded


def grid_corrections(rng, n_groups):
    """Random plane corrections k / 4096 on the quantizer's 2^-12 grid, with
    k within 1% of 4096, shape (n_groups, 4)."""
    k = rng.integers(4096 - 40, 4096 + 41, size=(n_groups, 4))
    return (k / 4096).astype(np.float32)


def grid_levels_of(corrections):
    """Integer plane weights 2^a * k[g, a] of corrections k / 4096."""
    k = np.rint(np.asarray(corrections, dtype=np.float64) * 4096).astype(np.int64)
    return k << np.arange(4)


@dataclass
class BitBlock:
    """One group of channel bits: ceil(B/64) uint64 words, B valid bits,
    LSB-first, padding bits zero."""

    words: np.ndarray
    valid_bits: int

    @classmethod
    def from_bits(cls, bits) -> "BitBlock":
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        nbytes = 8 * ((bits.size + 63) // 64)
        packed = np.zeros(nbytes, dtype=np.uint8)
        packed[: (bits.size + 7) // 8] = np.packbits(bits, bitorder="little")
        return cls(words=packed.view(np.uint64), valid_bits=bits.size)

    def to_bits(self) -> np.ndarray:
        as_bytes = np.ascontiguousarray(self.words, dtype=np.uint64).view(np.uint8)
        return np.unpackbits(as_bytes, bitorder="little")[: self.valid_bits]

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def _check_compatible(self, other: "BitBlock") -> None:
        if self.valid_bits != other.valid_bits:
            raise DataError(
                f"bit length mismatch: {self.valid_bits} vs {other.valid_bits}"
            )

    def __and__(self, other: "BitBlock") -> "BitBlock":
        self._check_compatible(other)
        return BitBlock(self.words & other.words, self.valid_bits)

    def __xor__(self, other: "BitBlock") -> "BitBlock":
        self._check_compatible(other)
        return BitBlock(self.words ^ other.words, self.valid_bits)

    def __invert__(self) -> "BitBlock":
        # padding must stay zero after complement
        inv = ~self.words
        return BitBlock(_mask_padding(inv, self.valid_bits), self.valid_bits)


def _mask_padding(words: np.ndarray, valid_bits: int) -> np.ndarray:
    words = words.copy()
    tail = valid_bits % 64
    if tail:
        keep = np.uint64((1 << tail) - 1)
        words[..., -1] &= keep
    return words


def popc_and(x: BitBlock, y: BitBlock) -> int:
    """Number of positions where both blocks have a 1 bit."""
    return (x & y).popcount()


def group_counts(q: BitBlock, b: BitBlock, m: BitBlock):
    """Subgroup bit counts for one (row, group, plane) triple.

    Convention: mask bit 1 means the channel belongs to subgroup 1.
    Returns (v0, v1, r0, r1) with e = q & b:
        v1 = popc(e & m), v0 = popc(e & ~m),
        r1 = popc(b & m), r0 = popc(b & ~m).
    """
    e = q & b
    v1 = popc_and(e, m)
    v0 = popc_and(e, ~m)
    r1 = popc_and(b, m)
    r0 = popc_and(b, ~m)
    return v0, v1, r0, r1

def naive_rtn(x, bits: int, clip: float = 1.0):
    """Scalar-loop asymmetric RTN over a 1-D vector; returns (codes, mu, z).

    Rounding is half-to-even to match IEEE default rounding.
    """
    x = [float(v) for v in x]
    lo, hi = min(x), max(x)
    qmax = 2**bits - 1
    mu = clip * (hi - lo) / qmax
    if mu <= 0:
        mu = 1.0
    z = -_round_half_even(lo / mu)
    codes = []
    for v in x:
        c = _round_half_even(v / mu) + z
        codes.append(int(min(max(c, 0), qmax)))
    return codes, mu, z


def _round_half_even(x: float) -> float:
    f = np.floor(x)
    d = x - f
    if d > 0.5:
        return f + 1
    if d < 0.5:
        return f
    return f if f % 2 == 0 else f + 1


def plane_corrections_reference(x, layer) -> np.ndarray:
    """The retired plane-correction path, written out in full: quantize the
    permuted binarized channels to INT4, unpack all four bit planes to one
    float64 (tokens, groups, 4, B) tensor, reconstruct through it, balance
    the plane scales on the residual, and average the balanced/unbalanced
    ratio over tokens, rounded to the nearest multiple of 2^-12 in float64
    (the quantizer's correction grid). The outlier tail only has to be
    finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"activations must be 2-D, got shape {x.shape}")
    tokens, c_in = x.shape
    perm = np.asarray(layer.perm, dtype=np.int64)
    if perm.shape != (c_in,):
        raise DataError("perm length does not match the channels")
    b = layer.group_size
    n_bin = c_in - layer.outliers
    if n_bin < 0 or n_bin % b != 0:
        raise DataError("channels do not split into groups")
    if not np.isfinite(x).all():
        raise DataError("non-finite activation values")
    grouped = x[:, perm][:, :n_bin].reshape(tokens, n_bin // b, b)
    lo = grouped.min(axis=-1)
    hi = grouped.max(axis=-1)
    mu = (hi - lo) / 15.0
    mu = np.where(mu > 0, mu, 1.0)
    z = -np.rint(lo / mu)
    codes = np.clip(np.rint(grouped / mu[..., None]) + z[..., None], 0, 15)
    c8 = codes.astype(np.uint8)
    bits = np.stack([(c8 >> a) & 1 for a in range(4)], axis=-2).astype(np.float64)
    scales = np.stack([np.ldexp(mu, a) for a in range(4)], axis=-1)
    level = np.einsum("tgab,tga->tgb", bits, scales / mu[..., None])
    err = grouped - mu[..., None] * (level - z[..., None])
    nonzero = codes > 0
    core = mu[..., None] * codes
    ratio = np.where(nonzero, err / np.where(nonzero, core, 1.0), 0.0)
    member_sum = np.einsum("tgab,tgb->tga", bits, ratio)
    member_cnt = bits.sum(axis=-1)
    delta = np.where(
        member_cnt > 0, scales * member_sum / np.maximum(member_cnt, 1.0), 0.0
    )
    mean = ((scales + delta) / scales).mean(axis=0)
    return (np.rint(mean * 4096) / 4096).astype(np.float32)


def damped_inverse_cholesky_reference(hessian, damp_frac: float) -> np.ndarray:
    """The retired inverse-factor path: factor H + lambda*I, solve it against
    the identity, symmetrize the inverse by averaging it with its transpose,
    and factor that again. lambda = damp_frac * mean(diag(H)), or damp_frac
    for a zero diagonal."""
    h = np.asarray(hessian, dtype=np.float64)
    n = h.shape[0]
    mean_diag = float(np.mean(np.diag(h)))
    lam = damp_frac * mean_diag if mean_diag > 0 else damp_frac
    chol = scipy.linalg.cholesky(h + lam * np.eye(n), lower=False)
    inv = scipy.linalg.cho_solve((chol, False), np.eye(n))
    return scipy.linalg.cholesky((inv + inv.T) / 2.0, lower=False)


def accumulate_hessian_dsyrk(samples) -> np.ndarray:
    """The retired Hessian accumulation: scipy's dsyrk adds each sample's
    X^T X into one Fortran-ordered upper triangle (beta = 1), the lower
    triangle is mirrored once at the end, and the sum is doubled."""
    c_in = np.shape(samples[0])[1]
    gram = np.zeros((c_in, c_in), order="F")
    for x in samples:
        x = np.asarray(x, dtype=np.float64)
        gram = scipy.linalg.blas.dsyrk(1.0, x.T, beta=1.0, c=gram, overwrite_c=1)
    lower = np.tril_indices(c_in, -1)
    gram[lower] = gram.T[lower]
    return 2.0 * gram


def damped_inverse_cholesky_mirrored(hessian, damp_frac: float) -> np.ndarray:
    """The retired LAPACK path: dpotrf of H + lambda*I, dpotri, the upper
    triangle of the inverse mirrored onto its lower one, and dpotrf of the
    full inverse. lambda = damp_frac * mean(diag(H)), or damp_frac for a
    zero diagonal."""
    h = np.asarray(hessian, dtype=np.float64)
    mean_diag = float(np.mean(np.diag(h)))
    lam = damp_frac * mean_diag if mean_diag > 0 else damp_frac
    work = np.array(h, order="F")
    work[np.diag_indices_from(work)] += lam
    work, info = scipy.linalg.lapack.dpotrf(work, lower=0, overwrite_a=1)
    assert info == 0
    work, info = scipy.linalg.lapack.dpotri(work, lower=0, overwrite_c=1)
    assert info == 0
    lower = np.tril_indices_from(work, -1)
    work[lower] = work.T[lower]
    work, info = scipy.linalg.lapack.dpotrf(work, lower=0, overwrite_a=1)
    assert info == 0
    return work


def _rtn_reference(x, qmax: float, clip: float):
    """Asymmetric RTN over the last axis with the quantizer's formulas, as
    float64 arrays: (codes, mu, z)."""
    lo = x.min(axis=-1)
    hi = x.max(axis=-1)
    mu = clip * (hi - lo) / qmax
    mu = np.where(mu > 0, mu, 1.0)
    z = -np.rint(lo / mu)
    codes = np.clip(np.rint(x / mu[..., None]) + z[..., None], 0, qmax)
    return codes, mu, z


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


def quantize_activations_reference(
    x, group_size: int, outliers: int, perm=None, plane_corr=None, clip: float = 1.0
) -> dict:
    """The retired activation path, composed step by step: RTN the permuted
    binarized channels to int64 INT4 codes, split them into four plane
    arrays with decompose_bitplanes, scale the planes by plane_corr, pack
    each plane with numpy's packbits into zero-padded 64-bit words, and RTN
    the outlier channels to INT8. Returns the quantizer's fields by name.
    """
    x = np.asarray(x, dtype=np.float64)
    tokens, c_in = x.shape
    perm = np.arange(c_in) if perm is None else np.asarray(perm, dtype=np.int64)
    n_bin = c_in - outliers
    xp = x[:, perm]
    if not np.isfinite(xp).all():
        raise DataError("non-finite activation values")
    n_groups = n_bin // group_size
    codes, mu, z = _rtn_reference(xp[:, :n_bin].reshape(tokens, n_groups, group_size), 15.0, clip)
    planes, plane_scales, shift = decompose_bitplanes(codes.astype(np.int64), mu, z)
    if plane_corr is not None:
        plane_scales = plane_scales * np.asarray(plane_corr, dtype=np.float64)[None, :, :]
    nbytes = 8 * ((group_size + 63) // 64)
    packed = np.zeros(planes.shape[:-1] + (nbytes,), dtype=np.uint8)
    packed[..., : (group_size + 7) // 8] = np.packbits(planes, axis=-1, bitorder="little")
    if outliers:
        out_codes, out_scale, out_zero = _rtn_reference(xp[:, n_bin:], 255.0, clip)
    else:
        out_codes, out_scale, out_zero = np.zeros((tokens, 0)), np.ones(tokens), np.zeros(tokens)
    return {
        "tokens": tokens,
        "group_size": group_size,
        "outliers": outliers,
        "perm": perm,
        "planes": packed.view(np.uint64),
        "mu": mu,
        "zero": z,
        "plane_scales": plane_scales,
        "shift": shift,
        "out_codes": out_codes.astype(np.uint8),
        "out_scale": out_scale,
        "out_zero": out_zero,
    }


def outlier_tail_reference(a_codes, a_scale, a_zero, w_codes, w_scale, w_zero):
    """The INT8 tail as one float64 product, (tokens, rows): the sum over
    the K outlier channels of (a - za)(w - zw) is
    [a, za, sum a, K za] @ [w, -sum w, -zw, zw]^T, then scaled by the weight
    scales and the token scales in that order."""
    a = np.asarray(a_codes, dtype=np.float64)
    w = np.asarray(w_codes, dtype=np.float64)
    za = np.asarray(a_zero, dtype=np.float64)
    zw = np.asarray(w_zero, dtype=np.float64)
    k = a.shape[1]
    a_side = np.column_stack([a, za, a.sum(axis=1), k * za])
    w_side = np.column_stack([w, -w.sum(axis=1), -zw, zw])
    tail = a_side @ w_side.T
    tail *= np.asarray(w_scale, dtype=np.float64)
    tail *= np.asarray(a_scale, dtype=np.float64)[:, None]
    return tail


def eval_three_pass(layers, refs, x, relu: bool, damp: float, compare_rtn2: bool) -> dict:
    """`bwaq eval`'s report without timings, from three whole-stack passes:
    the float stack (every layer's output kept), the quantized stack, and
    the float stack again, calibrating each layer on all its inputs at once
    for the weight error."""
    nl = (lambda y: np.maximum(y, 0.0)) if relu else (lambda y: y)

    def rel_mse(approx, exact):
        num = float(((approx - exact) ** 2).mean())
        den = float((exact**2).mean())
        return num / den if den > 0 else num

    float_outs, cur = [], x
    for ref in refs:
        float_outs.append(cur @ ref.T)
        cur = nl(float_outs[-1])

    per_layer_mse, cur = [], x
    for layer, exact in zip(layers, float_outs):
        act = actquant.quantize_activations(
            cur, layer.group_size, layer.outliers, perm=layer.perm,
            plane_corr=layer.plane_corr,
        )
        out = bitkernel.forward(layer, act)
        per_layer_mse.append(rel_mse(out, exact))
        cur = nl(out)
    end_to_end = rel_mse(out, float_outs[-1])

    cfg = QuantConfig(damp=damp)
    werr, rtn2_err, cur = [], [], x
    for layer, ref in zip(layers, refs):
        stats = calibration.calibrate([cur], cfg)
        inv_diag = weightquant.inverse_diag_from_factor(stats.chol_inv)
        ref_p = np.asarray(ref, dtype=np.float64)[:, stats.perm]
        deq = weightquant.dequant_weights(layer)[:, stats.perm]
        werr.append(weightquant.diag_weighted_error(ref_p - deq, inv_diag))
        if compare_rtn2:
            rtn_cfg = replace(cfg, weight_mode="rtn", group_size=layer.group_size,
                              outliers=layer.outliers)
            rtn_layer, _ = weightquant.quantize_linear(ref, stats, rtn_cfg)
            rtn_deq = weightquant.dequant_weights(rtn_layer)[:, stats.perm]
            rtn2_err.append(weightquant.diag_weighted_error(ref_p - rtn_deq, inv_diag))
        cur = nl(cur @ ref.T)

    report = {
        "per_layer_mse": per_layer_mse,
        "end_to_end_mse": end_to_end,
        "weighted_weight_error": werr,
        "bits_per_weight": modelio.model_nbytes(layers) * 8.0
        / sum(layer.rows * layer.cols for layer in layers),
    }
    if compare_rtn2:
        report["rtn2_weighted_weight_error"] = rtn2_err
    return report
