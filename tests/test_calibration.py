import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwaq import (
    DataError,
    QuantConfig,
    accumulate_hessian,
    calibrate,
    channel_permutation,
    damped_inverse_cholesky,
)
from bwaq.actquant import PLANE_CORR_TOKENS

from oracles import (
    accumulate_hessian_dsyrk,
    damped_inverse_cholesky_mirrored,
    damped_inverse_cholesky_reference,
)


def test_identity_sample():
    stats = accumulate_hessian([np.eye(2)])
    assert np.allclose(stats.hessian, 2 * np.eye(2))
    assert np.allclose(stats.act_scale, [1.0, 1.0])


def test_single_token_hand_product():
    stats = accumulate_hessian([np.array([[1.0, 2.0]])])
    assert np.allclose(stats.hessian, [[2.0, 4.0], [4.0, 8.0]])
    assert np.allclose(stats.act_scale, [1.0, 4.0])


def test_accumulation_is_additive():
    stats = accumulate_hessian([np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])])
    assert np.allclose(stats.hessian, [[4.0, 0.0], [0.0, 0.0]])


def test_rejects_dimension_mismatch():
    with pytest.raises(DataError, match="shape"):
        accumulate_hessian([np.ones((2, 3)), np.ones((2, 4))])


def test_rejects_empty_input():
    with pytest.raises(DataError):
        accumulate_hessian([])


def test_order_independence(rng):
    samples = [rng.normal(size=(rng.integers(1, 20), 16)) for _ in range(6)]
    a = accumulate_hessian(samples).hessian
    b = accumulate_hessian(samples[::-1]).hessian
    assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()


def test_token_blocks_match_one_sample(rng):
    x = rng.normal(size=(1000, 48)) * rng.uniform(0.1, 10, size=48)
    blocks = [x[i : i + PLANE_CORR_TOKENS] for i in range(0, len(x), PLANE_CORR_TOKENS)]
    whole = accumulate_hessian([x])
    blocked = accumulate_hessian(blocks)
    scale = np.abs(whole.hessian).max()
    assert np.abs(blocked.hessian - whole.hessian).max() <= 1e-12 * scale
    assert np.abs(blocked.hessian - 2.0 * x.T @ x).max() <= 1e-12 * scale
    assert np.array_equal(blocked.hessian, blocked.hessian.T)
    assert np.array_equal(blocked.act_scale, np.diag(blocked.hessian) / 2.0)


@pytest.mark.parametrize("block", [1, PLANE_CORR_TOKENS])
@pytest.mark.parametrize("width", range(64, 1025, 64))
def test_accumulation_equals_the_dsyrk_accumulation(width, block):
    # bit for bit, at widths where numpy's and scipy's OpenBLAS builds agree;
    # the product goes through numpy because numpy releases the GIL for it
    rng = np.random.default_rng([width, block])
    tokens = 5 if block == 1 else 2 * block + 37
    x = rng.normal(size=(tokens, width)) * rng.uniform(0.1, 10, size=width)
    blocks = [x[i : i + block] for i in range(0, tokens, block)]
    stats = accumulate_hessian(blocks)
    assert np.array_equal(stats.hessian, stats.hessian.T)
    assert np.array_equal(stats.hessian, accumulate_hessian_dsyrk(blocks))
    assert np.array_equal(stats.act_scale, np.diag(stats.hessian) / 2.0)


def test_accumulation_overflow_is_reported_without_warnings():
    x = np.ones((4, 8))
    x[1, 2] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = accumulate_hessian([x])
        with pytest.raises(DataError, match="hessian contains non-finite values"):
            damped_inverse_cholesky(stats.hessian, 0.01)


def test_empty_blocks_are_skipped(rng):
    x = rng.normal(size=(5, 4))
    stats = accumulate_hessian([np.empty((0, 4)), x, np.empty((0, 4))])
    assert np.allclose(stats.hessian, 2.0 * x.T @ x, rtol=1e-14, atol=0)


def test_rejects_blocks_without_tokens():
    with pytest.raises(DataError, match="no tokens"):
        accumulate_hessian([np.empty((0, 4)), np.empty((0, 4))])


def test_permutation_ascending():
    assert channel_permutation([3.0, 1.0, 2.0]).tolist() == [1, 2, 0]


def test_permutation_stable_under_ties():
    assert channel_permutation([5.0, 5.0, 5.0]).tolist() == [0, 1, 2]


def test_outlier_set_is_largest_scales():
    perm = channel_permutation([0.1, 9.0, 0.2, 8.0])
    assert set(perm[-2:].tolist()) == {1, 3}


def test_permutation_rejects_nan():
    with pytest.raises(DataError, match="NaN"):
        channel_permutation([1.0, float("nan")])


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
def test_permutation_involution(n, seed):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0, 10, size=n)
    perm = channel_permutation(scale)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    vec = rng.normal(size=n)
    assert np.array_equal(vec[perm][inv], vec)
    assert np.all(np.diff(scale[perm]) >= 0)


def test_damped_scaled_identity():
    factor = damped_inverse_cholesky(2 * np.eye(2), 0.01)
    assert np.allclose(np.diag(factor), 1 / np.sqrt(2.02), atol=1e-12)
    inv = factor.T @ factor
    assert np.allclose(inv, np.eye(2) / 2.02, atol=1e-12)


def test_pure_damping_of_zero_matrix():
    factor = damped_inverse_cholesky(np.zeros((3, 3)), 1.0)
    assert np.allclose(factor, np.eye(3), atol=1e-12)


def test_undamped_spd_inverse():
    h = np.array([[4.0, 2.0], [2.0, 3.0]])
    factor = damped_inverse_cholesky(h, 0.0)
    assert np.abs(factor.T @ factor @ h - np.eye(2)).max() < 1e-8


def test_factor_is_upper_triangular_positive_diag(rng):
    h = rng.normal(size=(8, 8))
    h = h @ h.T
    factor = damped_inverse_cholesky(h, 0.01)
    assert np.allclose(factor, np.triu(factor))
    assert (np.diag(factor) > 0).all()


def test_rejects_non_finite():
    h = np.eye(2)
    h[0, 1] = np.inf
    with pytest.raises(DataError, match="finite"):
        damped_inverse_cholesky(h, 0.01)


def test_reports_failing_pivot():
    h = np.diag([1.0, -5.0, 1.0])
    with pytest.raises(DataError, match="pivot 2"):
        damped_inverse_cholesky(h, 0.0)


def test_random_spd_reconstruction(rng):
    for _ in range(5):
        a = rng.normal(size=(64, 64))
        h = a @ a.T + 64 * np.eye(64)
        lam = 0.01 * np.mean(np.diag(h))
        factor = damped_inverse_cholesky(h, 0.01)
        resid = factor.T @ factor @ (h + lam * np.eye(64)) - np.eye(64)
        assert np.linalg.norm(resid) < 1e-6


@pytest.mark.parametrize("n", [8, 64, 256])
def test_factor_matches_cho_solve_formula(rng, n):
    a = rng.normal(size=(n, n))
    h = a @ a.T
    for damp in (0.01, 1e-4):
        ref = damped_inverse_cholesky_reference(h, damp)
        got = damped_inverse_cholesky(h, damp)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("damp", [0.01, 1e-6])
def test_factor_matches_cho_solve_formula_near_singular(rng, damp):
    # rank 8 of 64: only the damping keeps the matrix positive definite
    a = rng.normal(size=(64, 8)) * rng.uniform(0.1, 10, size=8)
    h = a @ a.T
    ref = damped_inverse_cholesky_reference(h, damp)
    got = damped_inverse_cholesky(h, damp)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("n", [8, 64, 256, 512])
def test_factor_equals_the_path_that_mirrored_the_inverse(rng, n):
    # the upper factorization reads only the upper triangle of dpotri's
    # inverse, so mirroring it onto the lower one changed no bit
    x = rng.normal(size=(2 * n, n)) * rng.uniform(0.1, 10, size=n)
    h = accumulate_hessian([x]).hessian
    for damp in (0.01, 1e-6):
        assert np.array_equal(
            damped_inverse_cholesky(h, damp), damped_inverse_cholesky_mirrored(h, damp)
        )


def test_calibrate_assembles_permuted_factor(rng):
    cfg = QuantConfig(group_size=4, outliers=0)
    samples = [rng.normal(size=(40, 8))]
    stats = calibrate(samples, cfg)
    h_perm = stats.hessian[np.ix_(stats.perm, stats.perm)]
    lam = cfg.damp * np.mean(np.diag(h_perm))
    resid = stats.chol_inv.T @ stats.chol_inv @ (h_perm + lam * np.eye(8)) - np.eye(8)
    assert np.linalg.norm(resid) < 1e-8
    assert np.all(np.diff(stats.act_scale[stats.perm]) >= 0)
