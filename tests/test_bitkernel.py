import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from bwaq import (
    DataError,
    QuantizedLinear,
    bitkernel,
    forward,
    forward_reference,
    layer_nbytes,
    read_model,
    write_model,
)
from bwaq.actquant import CORR_GRID, ActBitplanes, quantize_activations
from bwaq.bitkernel import bench_forward, counts, grid_levels, random_activations, random_layer
from bwaq.bits import pack_bits, unpack_bits

from oracles import (
    BitBlock,
    decompose_bitplanes,
    grid_corrections,
    grid_levels_of,
    group_counts,
    naive_counts,
    naive_folded_counts,
    outlier_tail_reference,
    popc_and,
)


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
        layer = replace(layer, plane_corr=grid_corrections(rng, 2))
        act = random_activations(rng, 4, layer, corrections=True)
        levels = grid_levels_of(layer.plane_corr)
        _, planes, blocks = _dense_counts(layer, act)
        for _ in range(50):
            row = int(rng.integers(16))
            token = int(rng.integers(4))
            group = int(rng.integers(2))
            plane_bits = unpack_bits(act.planes[token, group], 128).tolist()
            q_bits = unpack_bits(layer.signs[row, group], 128).tolist()
            m_bits = unpack_bits(layer.mask[row, group], 128).tolist()
            want = naive_folded_counts(q_bits, plane_bits, m_bits, levels[group])
            assert blocks[:, row, group, token].tolist() == want
            for plane in range(4):
                v0, v1, r0, r1 = naive_counts(q_bits, plane_bits[plane], m_bits)
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


def _naive_layer_counts(layer, act, corrections):
    """Constant-ones, plane and folded counts from oracles.naive_counts,
    laid out as counts() lays them out; the planes are folded with the
    integer levels of the corrections act was quantized with."""
    b = layer.group_size
    levels = grid_levels_of(corrections)
    q = unpack_bits(layer.signs, b).tolist()
    m = unpack_bits(layer.mask, b).tolist()
    p = unpack_bits(act.planes, b).tolist()
    ones = [1] * b
    blocks = np.zeros((3, layer.rows, layer.n_groups, act.tokens), dtype=np.int64)
    const = np.zeros((3, layer.rows, layer.n_groups))
    planes = np.zeros((act.tokens, layer.n_groups, 4))
    for r in range(layer.rows):
        for g in range(layer.n_groups):
            v0, v1, _, r1 = naive_counts(q[r][g], ones, m[r][g])
            const[:, r, g] = v0 + v1, v1, r1
            for t in range(act.tokens):
                blocks[:, r, g, t] = naive_folded_counts(q[r][g], p[t][g], m[r][g], levels[g])
                for a in range(4):
                    v0, v1, r0, r1 = naive_counts(q[r][g], p[t][g][a], m[r][g])
                    planes[t, g, a] = r0 + r1
    return const, planes, blocks


def _dense_counts(layer, act):
    """counts() with its blocks assembled; checks that the blocks cover every
    (token, group) exactly once."""
    c = counts(layer, act)
    dense = np.zeros((3, layer.rows, layer.n_groups, act.tokens))
    cover = np.zeros((layer.n_groups, act.tokens), dtype=np.int64)
    for tok, grp, block in c.blocks:
        dense[:, :, grp, tok] = block
        cover[grp, tok] += 1
    assert np.all(cover == 1)
    return c.ones, c.planes, dense


def _grid_layer(rng, rows, group, outliers, n_groups=2):
    layer = random_layer(rng, rows, outliers + n_groups * group, group, outliers)
    return replace(layer, plane_corr=grid_corrections(rng, layer.n_groups))


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
        layer = _grid_layer(rng, 3, group, outliers)
        act = random_activations(rng, tokens, layer, corrections=True)
        want = _naive_layer_counts(layer, act, layer.plane_corr)
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
            assert np.array_equal(counts(layer, act).scale, act.mu.T / CORR_GRID)
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
        # the guard compares group_size * the largest level sum of a group
        # with 2^24; moving the bound onto that product exercises it without
        # a group of 2^24 / 61,440 channels
        layer = _grid_layer(rng, 5, 64, 128)
        act = random_activations(rng, 2 * bitkernel.GEMM_MIN_TOKENS + 1, layer, corrections=True)
        top = 64 * int(grid_levels_of(layer.plane_corr).sum(axis=1).max())
        calls = []
        _spy(monkeypatch, "_gemm_blocks", calls)
        _spy(monkeypatch, "_popcount_blocks", calls)
        want = forward_reference(layer, act)
        for bound, backend in ((top, "_popcount_blocks"), (top + 1, "_gemm_blocks")):
            monkeypatch.setattr(bitkernel, "GEMM_MAX_DOT", bound)
            calls.clear()
            got = _dense_counts(layer, act)
            assert calls == [backend]
            for g, w in zip(got, _naive_layer_counts(layer, act, layer.plane_corr)):
                assert np.array_equal(g, w)
            assert np.abs(forward(layer, act) - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["file_off_grid", "per_token_scales"])
    def test_off_grid_scales_use_popcount(self, monkeypatch, rng, kind):
        layer = random_layer(rng, 6, 128 + 2 * 64, 64, 128)
        tokens = bitkernel.GEMM_MIN_TOKENS + 5
        if kind == "file_off_grid":
            # corrections as written before they were put on the grid
            corr = rng.uniform(0.99, 1.01, size=(layer.n_groups, 4)).astype(np.float32)
            layer = replace(layer, plane_corr=corr)
            act = random_activations(rng, tokens, layer, corrections=True)
        else:
            act = random_activations(rng, tokens, layer)
            frac = rng.uniform(0.5, 1.5, size=act.plane_scales.shape)
            act = replace(act, plane_scales=frac * act.plane_scales)
        calls = []
        _spy(monkeypatch, "_gemm_blocks", calls)
        _spy(monkeypatch, "_popcount_blocks", calls)
        got = forward(layer, act)
        assert calls == ["_popcount_blocks"]
        want = forward_reference(layer, act)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

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


class TestOutlierTail:
    """The INT8 tail in float32 chunks against its one-product float64 form."""

    @pytest.mark.parametrize("codes", ["random", "max"])
    @pytest.mark.parametrize("outliers", [0, 1, 128, 258, 259, 300])
    def test_matches_reference(self, outliers, codes):
        rng = np.random.default_rng([outliers, codes == "max"])
        layer = random_layer(rng, 40, outliers + 64, 64, outliers)
        if codes == "max":
            layer = replace(layer, out_codes=np.full_like(layer.out_codes, 255))
        for tokens in (1, 3, 130):
            act = random_activations(rng, tokens, layer)
            if codes == "max":
                act = replace(act, out_codes=np.full_like(act.out_codes, 255))
            got = bitkernel._outlier_tail(layer, act, bitkernel.prepare(layer))
            want = outlier_tail_reference(
                act.out_codes, act.out_scale, act.out_zero, layer.out_codes, layer.out_scale, layer.out_zero
            )
            assert np.array_equal(got, want), tokens

    @pytest.mark.parametrize("outliers", [0, 1, 128, 258, 259, 300])
    def test_forward_matches_reference(self, rng, outliers):
        layer = random_layer(rng, 40, outliers + 128, 64, outliers)
        for tokens in (1, 3, 130):
            act = random_activations(rng, tokens, layer)
            want = forward_reference(layer, act)
            assert np.abs(forward(layer, act) - want).max() <= 1e-9 * np.abs(want).max()


class TestGridLevels:
    def test_levels_of_grid_corrections(self, rng):
        layer = _grid_layer(rng, 2, 64, 0, n_groups=3)
        act = random_activations(rng, 7, layer, corrections=True)
        assert np.array_equal(grid_levels(act), grid_levels_of(layer.plane_corr))

    def test_unit_scales_give_grid_levels(self, rng):
        layer = random_layer(rng, 2, 128, 64, 0)
        act = random_activations(rng, 3, layer)
        assert np.array_equal(grid_levels(act), np.tile(CORR_GRID << np.arange(4), (2, 1)))

    def test_one_scale_one_ulp_off_rejects_the_call(self, rng):
        layer = _grid_layer(rng, 2, 64, 0)
        act = random_activations(rng, 5, layer, corrections=True)
        scales = act.plane_scales.copy()
        scales[4, 1, 2] = np.nextafter(scales[4, 1, 2], np.inf)
        assert grid_levels(replace(act, plane_scales=scales)) is None

    def test_levels_that_could_overflow_the_fold_are_rejected(self, rng):
        layer = random_layer(rng, 2, 128, 64, 0)
        layer = replace(layer, plane_corr=np.full((2, 4), 2.0**20, dtype=np.float32))
        act = random_activations(rng, 3, layer, corrections=True)
        assert grid_levels(act) is None
        want = forward_reference(layer, act)
        assert np.abs(forward(layer, act) - want).max() <= 1e-9 * np.abs(want).max()


class TestPrepared:
    """The layer constants computed on the first call and read by later ones."""

    def test_cached_call_matches_first_and_reference(self, rng):
        layer = random_layer(rng, 24, 128 + 3 * 64, 64, 128)
        act = random_activations(rng, 3, layer)
        first = forward(layer, act)
        prepared = layer._kernel
        second = forward(layer, act)
        assert prepared is not None and layer._kernel is prepared
        assert np.array_equal(first, second)
        want = forward_reference(layer, act)
        assert np.abs(first - want).max() <= 1e-9 * np.abs(want).max()

    def test_replaced_layer_is_prepared_afresh(self, rng):
        layer = random_layer(rng, 16, 128 + 2 * 64, 64, 128)
        act = random_activations(rng, 2, layer)
        forward(layer, act)
        changed = replace(layer, affine=rng.normal(scale=0.05, size=layer.affine.shape))
        want = forward_reference(changed, act)
        assert np.abs(forward(changed, act) - want).max() <= 1e-9 * np.abs(want).max()
        # an array assigned to the served layer is picked up too
        layer.affine = changed.affine
        assert np.abs(forward(layer, act) - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize(
        "name", ["signs", "mask", "affine", "out_codes", "out_scale", "out_zero"]
    )
    def test_in_place_edit_after_forward_raises(self, rng, name):
        layer = random_layer(rng, 4, 128 + 64, 64, 128)
        forward(layer, random_activations(rng, 1, layer))
        with pytest.raises(ValueError, match="read-only"):
            getattr(layer, name)[0] = 0

    def test_served_layer_writes_identical_bytes(self, tmp_path, rng):
        layer = random_layer(rng, 8, 16 + 2 * 64, 64, 16)
        fresh, served = tmp_path / "fresh.bwaq", tmp_path / "served.bwaq"
        write_model([layer], fresh)
        forward(layer, random_activations(rng, 2, layer))
        write_model([layer], served)
        assert served.read_bytes() == fresh.read_bytes()
        (back,) = read_model(served)
        for f in fields(layer):
            if f.compare:
                assert np.array_equal(getattr(back, f.name), getattr(layer, f.name)), f.name
        assert layer._kernel is not None and back._kernel is None

    def test_prepared_size_against_serialized(self):
        rng = np.random.default_rng(3)
        layer = random_layer(rng, 1024, 1024, 128, 128)
        forward(layer, random_activations(rng, 1, layer))
        prep = bitkernel.prepare(layer)
        # what the layer holds beyond its own arrays
        prepared = sum(getattr(prep, f.name).nbytes for f in fields(prep) if f.name != "sources")
        assert prepared <= 1.5 * layer_nbytes(1024, 1024, 128, 128), prepared


class TestBench:
    def test_degenerate_shape_completes(self):
        rows = bench_forward([(1, 128, 128)], iters=2, seed=1)
        assert len(rows) == 1
        assert rows[0]["kernel_ms"] > 0
        assert rows[0]["gemm_ms"] > 0

    def test_rejects_non_positive_shape(self):
        with pytest.raises(DataError):
            bench_forward([(0, 128, 128)], iters=1)
