"""Independent brute-force references for the test suite.

These deliberately share no code with the package under test: plain loops,
an interval dynamic program and numpy's own bit packing only. The one import
from bwaq is its DataError, which the scalar bit blocks raise on a length
mismatch as they did when they lived in the package.
"""

from dataclasses import dataclass

import numpy as np

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
