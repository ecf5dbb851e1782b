import tracemalloc

import numpy as np
import pytest

from bwaq import DataError, QuantizedLinear, bitkernel, forward, forward_reference
from bwaq.actquant import ActBitplanes, decompose_bitplanes, quantize_activations
from bwaq.bitkernel import bench_forward, counts, random_activations, random_layer
from bwaq.bits import pack_bits, unpack_bits

from oracles import BitBlock, group_counts, naive_counts, popc_and


def _block(bits):
    return BitBlock.from_bits(np.array(bits, dtype=np.uint8))


class TestPopcAnd:
    def test_hand_count(self):
        # 1010 and 1100 overlap in one position
        assert popc_and(_block([1, 0, 1, 0]), _block([1, 1, 0, 0])) == 1

    def test_all_ones_mask_gives_popcount(self, rng):
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        assert popc_and(_block(bits), _block(np.ones(100, np.uint8))) == bits.sum()

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            popc_and(_block([1, 0]), _block([1, 0, 1]))

    def test_matches_bit_loop(self, rng):
        for _ in range(2000):
            x = rng.integers(0, 2, size=128, dtype=np.uint8)
            y = rng.integers(0, 2, size=128, dtype=np.uint8)
            assert popc_and(_block(x), _block(y)) == int((x & y).sum())


class TestGroupCounts:
    def test_hand_evaluation(self):
        q = _block([0, 1, 0, 1])  # MSB-first written 1010 in the contract example
        b = _block([0, 0, 1, 1])
        m = _block([0, 0, 1, 1])
        v0, v1, r0, r1 = group_counts(q, b, m)
        assert (v0, v1, r0, r1) == (0, 1, 0, 2)

    def test_all_ones_mask_empties_subgroup_zero(self, rng):
        q = _block(rng.integers(0, 2, size=64, dtype=np.uint8))
        b = _block(rng.integers(0, 2, size=64, dtype=np.uint8))
        m = _block(np.ones(64, np.uint8))
        v0, v1, r0, r1 = group_counts(q, b, m)
        assert v0 == 0 and r0 == 0

    def test_zero_plane_gives_zero_counts(self, rng):
        q = _block(rng.integers(0, 2, size=64, dtype=np.uint8))
        m = _block(rng.integers(0, 2, size=64, dtype=np.uint8))
        assert group_counts(q, _block(np.zeros(64, np.uint8)), m) == (0, 0, 0, 0)

    def test_matches_naive_counts(self, rng):
        for _ in range(10_000):
            q = rng.integers(0, 2, size=128, dtype=np.uint8)
            b = rng.integers(0, 2, size=128, dtype=np.uint8)
            m = rng.integers(0, 2, size=128, dtype=np.uint8)
            got = group_counts(_block(q), _block(b), _block(m))
            want0, want1, wr0, wr1 = naive_counts(q.tolist(), b.tolist(), m.tolist())
            assert got == (want0, want1, wr0, wr1)

    def test_padding_bits_never_leak(self, rng):
        # a 70-bit block leaves 58 padding bits in the second word
        q = rng.integers(0, 2, size=70, dtype=np.uint8)
        b = rng.integers(0, 2, size=70, dtype=np.uint8)
        m = rng.integers(0, 2, size=70, dtype=np.uint8)
        got = group_counts(_block(q), _block(b), _block(m))
        assert got == naive_counts(q.tolist(), b.tolist(), m.tolist())


class TestForward:
    def test_zero_affine_zero_outliers_gives_zero(self, rng):
        layer = random_layer(rng, 8, 128, 64, 0)
        layer.affine[:] = 0
        act = random_activations(rng, 4, layer)
        assert np.all(forward(layer, act) == 0.0)

    def test_hand_dot_product(self):
        # weights dequantize to [0.3, -0.1, 0.3, -0.1]; codes [1,2,3,4], mu=.5, z=0
        affine = np.zeros((1, 1, 2, 2), dtype=np.float32)
        affine[0, 0, 0] = [0.0, -0.1]  # subgroup 0: alpha 0, beta -0.1
        affine[0, 0, 1] = [0.0, 0.3]  # subgroup 1: alpha 0, beta 0.3
        layer = QuantizedLinear(
            rows=1,
            cols=4,
            group_size=4,
            outliers=0,
            signs=pack_bits(np.zeros((1, 1, 4), np.uint8)),
            mask=pack_bits(np.array([[[1, 0, 1, 0]]], np.uint8)),
            affine=affine,
            perm=np.arange(4),
            out_codes=np.zeros((1, 0), np.uint8),
            out_scale=np.ones(1, np.float32),
            out_zero=np.zeros(1, np.float32),
            plane_corr=np.ones((1, 4), np.float32),
        )
        codes = np.array([[[1, 2, 3, 4]]])
        planes, scales, shift = decompose_bitplanes(
            codes, np.full((1, 1), 0.5), np.zeros((1, 1))
        )
        act = ActBitplanes(
            tokens=1,
            group_size=4,
            outliers=0,
            perm=np.arange(4),
            planes=pack_bits(planes).reshape(1, 1, 4, 1),
            mu=np.full((1, 1), 0.5),
            zero=np.zeros((1, 1)),
            plane_scales=scales,
            shift=shift,
            out_codes=np.zeros((1, 0), np.uint8),
            out_scale=np.ones(1),
            out_zero=np.zeros(1),
        )
        # affine parameters are stored as float32, so 0.3 is only f32-exact
        assert forward(layer, act)[0, 0] == pytest.approx(0.3, rel=1e-6)
        assert forward_reference(layer, act)[0, 0] == pytest.approx(0.3, rel=1e-6)

    def test_matches_reference_on_random_layers(self, rng):
        for _ in range(25):
            group = int(rng.choice([64, 128]))
            outliers = int(rng.choice([0, 128]))
            n_groups = int(rng.integers(1, 4))
            cols = outliers + group * n_groups
            rows = int(rng.integers(1, 64))
            tokens = int(rng.integers(1, 9))
            layer = random_layer(rng, rows, cols, group, outliers)
            act = random_activations(rng, tokens, layer)
            got = forward(layer, act)
            want = forward_reference(layer, act)
            scale = np.abs(want).max() + 1e-12
            assert np.abs(got - want).max() <= 1e-9 * scale

    def test_counts_match_naive_on_sampled_blocks(self, rng):
        layer = random_layer(rng, 16, 256, 128, 0)
        act = random_activations(rng, 4, layer)
        _, planes, blocks = _dense_counts(layer, act)
        for _ in range(50):
            row = int(rng.integers(16))
            token = int(rng.integers(4))
            group = int(rng.integers(2))
            plane = int(rng.integers(4))
            v0, v1, r0, r1 = naive_counts(
                unpack_bits(layer.signs[row, group], 128).tolist(),
                unpack_bits(act.planes[token, group, plane], 128).tolist(),
                unpack_bits(layer.mask[row, group], 128).tolist(),
            )
            assert blocks[:, row, group, plane, token].tolist() == [v0 + v1, v1, r1]
            assert planes[token, group, plane] == r0 + r1

    def test_linearity_in_plane_scales(self, rng):
        # same codes, scales split across two calls: forwards must add up
        layer = random_layer(rng, 8, 128, 64, 0)
        act = random_activations(rng, 3, layer)
        frac = rng.uniform(0.1, 0.9, size=act.plane_scales.shape)
        sfrac = rng.uniform(0.1, 0.9, size=act.shift.shape)
        part_a = ActBitplanes(
            **{
                **act.__dict__,
                "plane_scales": frac * act.plane_scales,
                "shift": sfrac * act.shift,
            }
        )
        part_b = ActBitplanes(
            **{
                **act.__dict__,
                "plane_scales": (1 - frac) * act.plane_scales,
                "shift": (1 - sfrac) * act.shift,
            }
        )
        total = forward(layer, part_a) + forward(layer, part_b)
        assert np.allclose(total, forward(layer, act), rtol=1e-9, atol=1e-12)

    def test_incompatible_activation_rejected(self, rng):
        layer = random_layer(rng, 8, 128, 64, 0)
        other = random_layer(rng, 8, 128, 64, 0)
        act = random_activations(rng, 3, other)
        with pytest.raises(DataError):
            forward(layer, act)

    def test_identity_like_layer_returns_activations(self, rng):
        # 4x4 layer whose dequantized weights are the identity
        affine = np.zeros((4, 1, 2, 2), dtype=np.float32)
        affine[..., 0, :] = [0.5, 0.5]  # subgroup 0: alpha=.5 beta=.5 -> {0, 1}
        signs = np.eye(4, dtype=np.uint8).reshape(4, 1, 4)
        layer = QuantizedLinear(
            rows=4,
            cols=4,
            group_size=4,
            outliers=0,
            signs=pack_bits(signs),
            mask=pack_bits(np.zeros((4, 1, 4), np.uint8)),
            affine=affine,
            perm=np.arange(4),
            out_codes=np.zeros((4, 0), np.uint8),
            out_scale=np.ones(4, np.float32),
            out_zero=np.zeros(4, np.float32),
            plane_corr=np.ones((1, 4), np.float32),
        )
        x = rng.normal(size=(5, 4))
        act = quantize_activations(x, 4, 0)
        from bwaq.actquant import reconstruct

        assert np.allclose(forward_reference(layer, act), reconstruct(act), rtol=1e-12)


def _naive_layer_counts(layer, act):
    """Plane, constant-ones and per-plane counts from oracles.naive_counts,
    laid out as counts() lays them out."""
    b = layer.group_size
    q = unpack_bits(layer.signs, b).tolist()
    m = unpack_bits(layer.mask, b).tolist()
    p = unpack_bits(act.planes, b).tolist()
    ones = [1] * b
    blocks = np.zeros((3, layer.rows, layer.n_groups, 4, act.tokens))
    const = np.zeros((3, layer.rows, layer.n_groups))
    planes = np.zeros((act.tokens, layer.n_groups, 4))
    for r in range(layer.rows):
        for g in range(layer.n_groups):
            v0, v1, _, r1 = naive_counts(q[r][g], ones, m[r][g])
            const[:, r, g] = v0 + v1, v1, r1
            for t in range(act.tokens):
                for a in range(4):
                    v0, v1, r0, r1 = naive_counts(q[r][g], p[t][g][a], m[r][g])
                    blocks[:, r, g, a, t] = v0 + v1, v1, r1
                    planes[t, g, a] = r0 + r1
    return const, planes, blocks


def _dense_counts(layer, act):
    """counts() with its blocks assembled; checks that the blocks cover every
    (token, group) exactly once."""
    c = counts(layer, act)
    dense = np.zeros((3, layer.rows, layer.n_groups, 4, act.tokens))
    cover = np.zeros((layer.n_groups, act.tokens), dtype=np.int64)
    for tok, grp, block in c.blocks:
        dense[:, :, grp, :, tok] = block
        cover[grp, tok] += 1
    assert np.all(cover == 1)
    return c.ones, c.planes, dense


def _spy(monkeypatch, name, calls):
    original = getattr(bitkernel, name)

    def spy(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(bitkernel, name, spy)


class TestCounts:
    """Both count backends against each other and the scalar oracle."""

    @pytest.mark.parametrize("outliers", [0, 128])
    @pytest.mark.parametrize("group", [64, 128, 70])
    @pytest.mark.parametrize("tokens", [1, 2, 3, 4, 5, 17, bitkernel.GEMM_TOKENS + 5])
    def test_backends_match_each_other_and_naive(self, monkeypatch, tokens, group, outliers):
        rng = np.random.default_rng([tokens, group, outliers])
        layer = random_layer(rng, 3, outliers + 2 * group, group, outliers)
        act = random_activations(rng, tokens, layer, corrections=True)
        want = _naive_layer_counts(layer, act)
        reference = forward_reference(layer, act)
        scale = np.abs(reference).max() + 1e-12
        for name, threshold in (("_popcount_blocks", 10**9), ("_gemm_blocks", 1)):
            calls = []
            _spy(monkeypatch, name, calls)
            monkeypatch.setattr(bitkernel, "GEMM_MIN_TOKENS", threshold)
            got = _dense_counts(layer, act)
            assert calls == [name]
            for g, w in zip(got, want):
                assert np.array_equal(g, w), name
            assert np.abs(forward(layer, act) - reference).max() <= 1e-9 * scale

    def test_default_backend_by_token_count(self, monkeypatch, rng):
        layer = random_layer(rng, 4, 256, 128, 0)
        for tokens in (1, bitkernel.GEMM_MIN_TOKENS - 1, bitkernel.GEMM_MIN_TOKENS, 40):
            calls = []
            _spy(monkeypatch, "_gemm_blocks", calls)
            _spy(monkeypatch, "_popcount_blocks", calls)
            counts(layer, random_activations(rng, tokens, layer))
            gemm = tokens >= bitkernel.GEMM_MIN_TOKENS
            assert calls == ["_gemm_blocks" if gemm else "_popcount_blocks"]

    def test_group_beyond_float32_bound_never_uses_gemm(self, monkeypatch, rng):
        # the guard compares the group size with 2^24; lowering the bound
        # to the group size exercises it without a 2^24-bit layer
        layer = random_layer(rng, 5, 128 + 2 * 64, 64, 128)
        act = random_activations(rng, 2 * bitkernel.GEMM_MIN_TOKENS + 1, layer)
        monkeypatch.setattr(bitkernel, "GEMM_MAX_GROUP", 64)
        calls = []
        _spy(monkeypatch, "_gemm_blocks", calls)
        got = _dense_counts(layer, act)
        assert calls == []
        for g, w in zip(got, _naive_layer_counts(layer, act)):
            assert np.array_equal(g, w)
        want = forward_reference(layer, act)
        assert np.abs(forward(layer, act) - want).max() <= 1e-9 * np.abs(want).max()

    def test_peak_memory_does_not_grow_with_batch(self):
        rng = np.random.default_rng(7)
        layer = random_layer(rng, 1024, 1024, 128, 128)
        act = random_activations(rng, 1024, layer)
        tracemalloc.start()
        try:
            out = forward(layer, act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1024, 1024)
        # the 8 MB float64 output is part of the peak
        assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestBench:
    def test_degenerate_shape_completes(self):
        rows = bench_forward([(1, 128, 128)], iters=2, seed=1)
        assert len(rows) == 1
        assert rows[0]["kernel_ms"] > 0
        assert rows[0]["gemm_ms"] > 0

    def test_rejects_non_positive_shape(self):
        with pytest.raises(DataError):
            bench_forward([(0, 128, 128)], iters=1)
