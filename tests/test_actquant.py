import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwaq import DataError, balance_scales, decompose_bitplanes, rtn_dequantize, rtn_quantize
from bwaq.actquant import (
    CORR_GRID,
    PLANE_CORR_TOKENS,
    ActBitplanes,
    plane_corrections,
    quantize_activations,
    reconstruct,
)
from bwaq.bitkernel import random_layer
from bwaq.bits import pack_bits

from oracles import naive_rtn, plane_corrections_reference


class TestRtnQuantize:
    def test_hand_case(self):
        codes, mu, z = rtn_quantize(np.array([-1.0, 0.0, 2.0]), 4)
        assert codes.tolist() == [0, 5, 15]
        assert mu == pytest.approx(0.2)
        assert z == 5

    def test_lattice_fixed_point(self):
        x = np.arange(16.0)
        codes, mu, z = rtn_quantize(x, 4)
        assert mu == 1.0 and z == 0
        assert np.array_equal(codes, np.arange(16))

    def test_matches_naive_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 24))
            x = rng.normal(size=n) * rng.uniform(0.01, 100)
            for bits in (4, 8):
                codes, mu, z = rtn_quantize(x, bits)
                ref_codes, ref_mu, ref_z = naive_rtn(x, bits)
                assert codes.tolist() == ref_codes
                assert mu == pytest.approx(ref_mu, rel=1e-15)
                assert z == ref_z

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=64),
        st.sampled_from([4, 8]),
    )
    def test_round_trip_error_bound(self, values, bits):
        x = np.asarray(values)
        codes, mu, z = rtn_quantize(x, bits)
        err = np.abs(x - mu * (codes - z))
        assert np.all(err <= mu / 2 * (1 + 1e-9))

    def test_degenerate_constant_vector(self):
        codes, mu, z = rtn_quantize(np.full(5, 3.2), 4)
        assert mu == 1.0
        assert np.all(codes == 0)
        assert np.all(mu * (codes - z) == 3.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            rtn_quantize(np.array([1.0, np.nan]), 4)


class TestDecompose:
    def test_binary_expansion_of_13(self):
        planes, scales, shift = decompose_bitplanes(np.array([13]), np.array(0.2), np.array(5.0))
        # plane axis comes before the element axis
        assert planes[:, 0].tolist() == [1, 0, 1, 1]

    def test_plane_scales_are_doubling(self):
        _, scales, _ = decompose_bitplanes(np.array([7]), np.array(0.2), np.array(0.0))
        assert scales.reshape(4).tolist() == [0.2, 0.4, 0.8, 1.6]

    def test_all_zero_codes_reconstruct_group_minimum(self):
        codes = np.zeros(6, dtype=np.int64)
        assert np.all(rtn_dequantize(codes, 0.2, 5.0) == -1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            decompose_bitplanes(np.array([16]), np.array(1.0), np.array(0.0))

    def test_reconstruction_identity_bitwise(self, rng):
        # 10^4 random groups here; the acceptance suite runs 10^5
        b = 16
        x = rng.normal(size=(10_000, b)) * rng.uniform(0.01, 50, size=(10_000, 1))
        bp = quantize_activations(x, group_size=b, outliers=0)
        direct = rtn_dequantize(bp.codes().reshape(-1, b), bp.mu.ravel(), bp.zero.ravel())
        assert np.array_equal(reconstruct(bp), direct.reshape(10_000, b))

    def test_codes_round_trip_through_planes(self, rng):
        x = rng.normal(size=(64, 32))
        bp = quantize_activations(x, group_size=32, outliers=0)
        codes, _, _ = rtn_quantize(x.reshape(64, 1, 32), 4)
        assert np.array_equal(bp.codes(), codes.astype(np.uint8))

    def test_plane_flip_changes_reconstruction_by_plane_scale(self, rng):
        x = rng.normal(size=(8, 16))
        bp = quantize_activations(x, group_size=16, outliers=0)
        base = reconstruct(bp)
        for a in range(4):
            flipped = bp.planes.copy()
            flipped[3, 0, a, 0] ^= np.uint64(1)  # element 0 of token 3
            bp2 = ActBitplanes(**{**bp.__dict__, "planes": flipped})
            delta = reconstruct(bp2)[3, 0] - base[3, 0]
            assert abs(abs(delta) - bp.plane_scales[3, 0, a]) <= 1e-12 * bp.plane_scales[3, 0, a]


def _single_group_bp(codes, mu, z, b):
    codes = np.asarray(codes, dtype=np.int64).reshape(1, 1, b)
    planes, scales, shift = decompose_bitplanes(codes, np.full((1, 1), mu), np.full((1, 1), z))
    return ActBitplanes(
        tokens=1,
        group_size=b,
        outliers=0,
        perm=np.arange(b),
        planes=pack_bits(planes).reshape(1, 1, 4, -1),
        mu=np.full((1, 1), mu),
        zero=np.full((1, 1), float(z)),
        plane_scales=scales,
        shift=shift,
        out_codes=np.zeros((1, 0), np.uint8),
        out_scale=np.ones(1),
        out_zero=np.zeros(1),
    )


class TestBalanceScales:
    def test_zero_error_leaves_scales_unchanged(self, rng):
        x = rng.normal(size=(4, 32))
        bp = quantize_activations(x, group_size=32, outliers=0)
        balanced = balance_scales(reconstruct(bp), bp)
        assert np.array_equal(balanced.plane_scales, bp.plane_scales)

    def test_single_member_plane_moves_by_ratio_one(self):
        bp = _single_group_bp([0, 0, 0, 8], mu=0.25, z=0.0, b=4)
        x_fp = reconstruct(bp).copy()
        x_fp[0, 3] += 0.1
        balanced = balance_scales(x_fp, bp)
        delta = balanced.plane_scales - bp.plane_scales
        assert delta.reshape(4)[:3].tolist() == [0.0, 0.0, 0.0]
        assert delta.reshape(4)[3] == pytest.approx(0.1, rel=1e-12)

    def test_all_zero_group_is_noop(self):
        bp = _single_group_bp([0, 0, 0, 0], mu=0.5, z=0.0, b=4)
        x_fp = np.full((1, 4), 0.3)
        balanced = balance_scales(x_fp, bp)
        assert np.array_equal(balanced.plane_scales, bp.plane_scales)

    def test_mean_residual_of_included_elements_vanishes(self, rng):
        x = rng.normal(size=(16, 128)) * rng.uniform(0.1, 10, size=(16, 1))
        bp = quantize_activations(x, group_size=128, outliers=0)
        balanced = balance_scales(x, bp)
        codes = bp.codes()
        included = codes.reshape(16, 128) > 0
        pre = (x - reconstruct(bp))[included].mean()
        post = (x - reconstruct(balanced))[included].mean()
        assert abs(post) <= 1e-6 * abs(pre)

    def test_l1_error_usually_improves(self, rng):
        # token vectors spanning four channel groups, as in the pipeline
        better = 0
        for _ in range(100):
            x = rng.normal(size=(1, 512)) * rng.uniform(0.1, 10)
            bp = quantize_activations(x, group_size=128, outliers=0)
            balanced = balance_scales(x, bp)
            l1_before = np.abs(x - reconstruct(bp)).sum()
            l1_after = np.abs(x - reconstruct(balanced)).sum()
            better += l1_after <= l1_before + 1e-12
        assert better >= 95

    def test_shape_mismatch_rejected(self, rng):
        x = rng.normal(size=(4, 32))
        bp = quantize_activations(x, group_size=32, outliers=0)
        with pytest.raises(DataError):
            balance_scales(x[:, :16], bp)


class TestQuantizeActivations:
    def test_token_order_independence(self, rng):
        x = rng.normal(size=(10, 64))
        order = rng.permutation(10)
        a = quantize_activations(x, group_size=16, outliers=16)
        b = quantize_activations(x[order], group_size=16, outliers=16)
        assert np.array_equal(a.planes[order], b.planes)
        assert np.array_equal(a.mu[order], b.mu)
        assert np.array_equal(a.out_codes[order], b.out_codes)

    def test_outlier_tail_quantized_per_token(self, rng):
        x = rng.normal(size=(6, 64))
        bp = quantize_activations(x, group_size=16, outliers=16)
        assert bp.out_codes.shape == (6, 16)
        deq = bp.out_scale[:, None] * (bp.out_codes.astype(float) - bp.out_zero[:, None])
        err = np.abs(x[:, bp.perm][:, 48:] - deq)
        assert np.all(err <= bp.out_scale[:, None] / 2 * (1 + 1e-9))

    def test_plane_corrections_applied_multiplicatively(self, rng):
        x = rng.normal(size=(4, 32))
        corr = np.full((2, 4), 1.5, dtype=np.float32)
        plain = quantize_activations(x, group_size=16, outliers=0)
        scaled = quantize_activations(x, group_size=16, outliers=0, plane_corr=corr)
        assert np.allclose(scaled.plane_scales, 1.5 * plain.plane_scales)
        assert np.array_equal(scaled.planes, plain.planes)


def _degenerate_rows(x, layer, kind):
    """Overwrite every even token with a degenerate case."""
    rows = x[::2]
    binarized = layer.perm[: layer.cols - layer.outliers]
    if kind == "constant":  # every group quantizes to all-zero codes
        rows[:] = 0.37
    elif kind == "single":  # one nonzero code per group
        rows[:, binarized] = 0.0
        rows[:, binarized[:: layer.group_size]] = 1.0
    elif kind == "offset":
        rows += 1e6


class TestPlaneCorrections:
    @pytest.mark.parametrize("kind", ["normal", "constant", "single", "offset"])
    @pytest.mark.parametrize("outliers", [0, 128])
    @pytest.mark.parametrize("group", [16, 70, 128])
    @pytest.mark.parametrize(
        "tokens", [1, PLANE_CORR_TOKENS - 1, PLANE_CORR_TOKENS, PLANE_CORR_TOKENS + 1, 1000]
    )
    def test_matches_reference(self, tokens, group, outliers, kind):
        rng = np.random.default_rng([tokens, group, outliers])
        layer = random_layer(rng, 1, outliers + 3 * group, group, outliers)
        x = rng.normal(size=(tokens, layer.cols)) * rng.uniform(0.1, 10, size=layer.cols)
        _degenerate_rows(x, layer, kind)
        got = plane_corrections(x, layer)
        assert got.dtype == np.float32 and got.shape == (3, 4)
        assert np.array_equal(got, plane_corrections_reference(x, layer))

    def test_corrections_lie_on_the_grid(self, rng):
        layer = random_layer(rng, 1, 128 + 4 * 64, 64, 128)
        x = rng.normal(size=(300, layer.cols)) * rng.uniform(0.1, 10, size=layer.cols)
        steps = plane_corrections(x, layer).astype(np.float64) * CORR_GRID
        assert np.array_equal(steps, np.rint(steps))
        assert not np.all(steps == CORR_GRID)

    def test_nan_in_outlier_channel_rejected(self, rng):
        layer = random_layer(rng, 1, 128 + 2 * 64, 64, 128)
        x = rng.normal(size=(PLANE_CORR_TOKENS + 5, layer.cols))
        x[PLANE_CORR_TOKENS + 2, layer.perm[-1]] = np.nan
        with pytest.raises(DataError):
            plane_corrections(x, layer)

    def test_inf_in_binarized_channel_rejected(self, rng):
        layer = random_layer(rng, 1, 128 + 2 * 64, 64, 128)
        x = rng.normal(size=(8, layer.cols))
        x[3, layer.perm[0]] = np.inf
        with pytest.raises(DataError):
            plane_corrections(x, layer)

    def test_wrong_perm_length_rejected(self, rng):
        layer = random_layer(rng, 1, 2 * 64, 64, 0)
        with pytest.raises(DataError):
            plane_corrections(rng.normal(size=(8, 2 * 64 + 1)), layer)

    def test_one_dimensional_input_rejected(self, rng):
        layer = random_layer(rng, 1, 2 * 64, 64, 0)
        with pytest.raises(DataError):
            plane_corrections(rng.normal(size=2 * 64), layer)

    def test_peak_memory_does_not_grow_with_tokens(self):
        rng = np.random.default_rng(11)
        layer = random_layer(rng, 1, 1024, 128, 128)
        x = rng.normal(size=(8192, 1024))
        peaks = []
        for tokens in (1024, 8192):
            tracemalloc.start()
            try:
                plane_corrections(x[:tokens], layer)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], [p / 2**20 for p in peaks]
