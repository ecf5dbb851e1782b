"""Activation statistics: Hessian accumulation, channel ordering, damped inverse.

The channel permutation sorts input channels by their mean squared activation
so that channels with similar scale share a group and the largest-activation
channels land in the trailing outlier group. The damped inverse Cholesky
factor drives both the per-column clustering weights and the block error
compensation. Accumulation may be sharded across samples and reduced; every
other operation here is a pure function, so results are safe to share
read-only across threads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import QuantConfig
from .errors import DataError


@dataclass
class CalibrationStats:
    """Per-layer activation statistics.

    hessian and act_scale are in the original channel order. chol_inv is the
    upper Cholesky factor of (H_perm + lambda*I)^-1 where H_perm is the
    Hessian with rows/columns permuted by perm, i.e. it lives in the channel
    order the quantizer operates in.
    """

    hessian: np.ndarray
    act_scale: np.ndarray
    perm: np.ndarray | None = None
    chol_inv: np.ndarray | None = None


def accumulate_hessian(samples) -> CalibrationStats:
    """Accumulate H = 2 * sum(X^T X) over token-major sample matrices.

    act_scale is the diagonal of the unscaled accumulation sum(X^T X).
    Accumulation runs in float64 regardless of input precision. Each
    sample's X^T X is computed by numpy's matmul into one reused (C, C)
    buffer and added to the sum. The product goes through numpy, not
    scipy's dsyrk, for the GIL: numpy releases it for the BLAS call, which
    scipy's f2py wrapper holds. `bwaq quantize` calibrates on its main
    thread while a worker thread clusters the previous layer in many small
    numpy calls, each of which has to take the GIL back. numpy runs the
    product as a syrk and mirrors its upper triangle, so each product and
    the sum are exactly symmetric.
    """
    samples = list(samples)
    if not samples:
        raise DataError("no calibration samples")
    first = np.asarray(samples[0], dtype=np.float64)
    if first.ndim != 2:
        raise DataError(f"calibration sample must be 2-D, got shape {first.shape}")
    c_in = first.shape[1]
    total_tokens = 0
    gram = np.zeros((c_in, c_in), dtype=np.float64)
    product = np.empty_like(gram)
    for k, sample in enumerate(samples):
        x = np.asarray(sample, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != c_in:
            raise DataError(
                f"sample {k} has shape {np.asarray(sample).shape}, expected (*, {c_in})"
            )
        if not np.isfinite(x).all():
            span = f"tokens {total_tokens}-{total_tokens + x.shape[0] - 1}"
            raise DataError(f"sample {k} ({span}) contains non-finite values")
        if x.shape[0]:
            # an overflow leaves a non-finite Hessian, which the factorization
            # reports as a DataError
            with np.errstate(over="ignore", invalid="ignore"):
                gram += np.matmul(x.T, x, out=product)
        total_tokens += x.shape[0]
    if total_tokens < 1:
        raise DataError("calibration samples contain no tokens")
    act_scale = np.diag(gram).copy()
    gram *= 2.0
    return CalibrationStats(hessian=gram, act_scale=act_scale)


def channel_permutation(act_scale) -> np.ndarray:
    """Stable ascending sort permutation of channels by activation scale."""
    act_scale = np.asarray(act_scale, dtype=np.float64)
    if np.isnan(act_scale).any():
        raise DataError("act_scale contains NaN")
    return np.argsort(act_scale, kind="stable")


def damped_inverse_cholesky(hessian, damp_frac: float, overwrite: bool = False) -> np.ndarray:
    """Upper Cholesky factor U with U^T U = (H + lambda*I)^-1.

    lambda = damp_frac * mean(diag(H)). Raises DataError with the failing
    pivot index if the damped matrix is not positive definite. overwrite
    factors a Fortran-ordered float64 hessian in its own buffer. scipy's
    f2py LAPACK wrappers hold the GIL for each of the three calls.
    """
    h = np.asarray(hessian, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DataError(f"hessian must be square, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise DataError("hessian contains non-finite values")
    if damp_frac < 0:
        raise DataError(f"damping fraction must be >= 0, got {damp_frac}")
    n = h.shape[0]
    mean_diag = float(np.mean(np.diag(h)))
    # zero-diagonal Hessians have nothing to scale the damping by; fall back
    # to absolute damping so pure-damping factorization still works
    lam = damp_frac * mean_diag if mean_diag > 0 else damp_frac
    # one Fortran-ordered buffer carries the damped matrix, its factor, the
    # inverse and the inverse's factor: LAPACK overwrites it at each step
    work = np.asarray(h, order="F") if overwrite else np.array(h, order="F")
    diag = np.arange(n)
    work[diag, diag] += lam
    # dpotrf reports the failing leading minor directly
    work, info = scipy.linalg.lapack.dpotrf(work, lower=0, overwrite_a=1)
    if info != 0:
        raise DataError(
            f"Cholesky factorization failed at pivot {info} even after damping"
        )
    # dpotri turns the factor into the upper triangle of the inverse, which
    # is all that the upper factorization below reads
    work, info = scipy.linalg.lapack.dpotri(work, lower=0, overwrite_c=1)
    if info != 0:
        raise DataError(f"inversion of the Cholesky factor failed at pivot {info}")
    # clean=1 (the default) zeroes the lower triangle of the factor
    work, info = scipy.linalg.lapack.dpotrf(work, lower=0, overwrite_a=1)
    if info != 0:
        raise DataError(f"Cholesky factorization of the inverse failed at pivot {info}")
    return work


def calibrate(samples, cfg: QuantConfig) -> CalibrationStats:
    """Full calibration: accumulate, order channels, factor the permuted inverse."""
    stats = accumulate_hessian(samples)
    stats.perm = channel_permutation(stats.act_scale)
    h_perm = stats.hessian[np.ix_(stats.perm, stats.perm)]
    # exactly symmetric: its C-ordered copy's .T is the Fortran buffer LAPACK needs
    stats.chol_inv = damped_inverse_cholesky(h_perm.T, cfg.damp, overwrite=True)
    return stats
