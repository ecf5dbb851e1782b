"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every criterion line.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import bwaq
from bwaq import (
    QuantConfig,
    balance_scales,
    calibrate,
    em_binarize,
    forward,
    forward_reference,
    layer_nbytes,
    model_nbytes,
    quantize_linear,
    read_model,
    rtn_quantize,
    write_model,
)
from bwaq.actquant import quantize_activations, reconstruct
from bwaq.bitkernel import bench_forward, counts, random_activations, random_layer
from bwaq.bits import unpack_bits

from oracles import (
    dp_optimal_clusters,
    grid_corrections,
    grid_levels_of,
    naive_counts,
    naive_folded_counts,
)


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    n_pairs = 1000
    worst_rel = 0.0
    for i in range(n_pairs):
        group = int(rng.choice([64, 128]))
        outliers = int(rng.choice([0, 128]))
        max_groups = (512 - outliers) // group
        n_groups = int(rng.integers(1, max_groups + 1))
        cols = outliers + group * n_groups
        rows = int(rng.integers(1, 513)) if i % 10 == 0 else int(rng.integers(1, 129))
        tokens = int(rng.integers(1, 9))
        layer = random_layer(rng, rows, cols, group, outliers)
        # non-unit grid corrections from a stream of their own, so the
        # pairs drawn from rng stay the same
        corr = grid_corrections(np.random.default_rng([101, i]), n_groups)
        layer = replace(layer, plane_corr=corr)
        act = random_activations(rng, tokens, layer, corrections=True)

        got = forward(layer, act)
        want = forward_reference(layer, act)
        scale = max(float(np.abs(want).max()), 1e-6)
        rel = float(np.abs(got - want).max()) / scale
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4, f"pair {i}: relative error {rel}"

        kernel_counts = counts(layer, act)
        kernel = np.zeros((3, rows, n_groups, tokens))
        for tok, grp, block in kernel_counts.blocks:
            kernel[:, :, grp, tok] = block
        levels = grid_levels_of(corr)
        for _ in range(2):
            r = int(rng.integers(rows))
            g = int(rng.integers(n_groups))
            t = int(rng.integers(tokens))
            a = int(rng.integers(4))
            q_bits = unpack_bits(layer.signs[r, g], group).tolist()
            m_bits = unpack_bits(layer.mask[r, g], group).tolist()
            plane_bits = unpack_bits(act.planes[t, g], group).tolist()
            _, _, r0, r1 = naive_counts(q_bits, plane_bits[a], m_bits)
            want = naive_folded_counts(q_bits, plane_bits, m_bits, levels[g]) + [r0 + r1]
            got_counts = kernel[:, r, g, t].tolist() + [kernel_counts.planes[t, g, a]]
            assert got_counts == want, f"pair {i}: count mismatch"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: forward == reference within 1e-4 on {n_pairs} pairs "
        f"(worst rel {worst_rel:.2e}), counts exact, {elapsed:.1f}s"
    )


def test_criterion_2_em_soundness():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()

    # loss non-increasing per iteration on 1000 random groups
    violations = 0
    for b in (8, 16, 128):
        w = rng.normal(size=(334, b))
        hw = rng.uniform(0.2, 3.0, size=b)
        res = em_binarize(w, hw, 8)
        hist = np.stack([np.atleast_1d(h) for h in res.history])
        diffs = np.diff(hist, axis=0)
        violations += int((diffs > 1e-9 * np.maximum(hist[:-1], 1e-30)).sum())
    assert violations == 0

    # EM loss bounded below by the DP optimum on small groups
    bound_violations = 0
    for i in range(300):
        b = (8, 16, 24)[i % 3]
        w = rng.normal(size=b)
        hw = rng.uniform(0.5, 2.0, size=b)
        em = float(em_binarize(w, hw, 8).loss)
        opt = dp_optimal_clusters(w, hw, 4).loss
        if em < opt - 1e-9 * max(1.0, opt):
            bound_violations += 1
    assert bound_violations == 0

    # mean EM/optimal ratio at the kernel's group sizes
    ratios = []
    for i in range(200):
        b = (64, 128)[i % 2]
        w = rng.normal(size=b)
        hw = rng.uniform(0.5, 2.0, size=b)
        em = float(em_binarize(w, hw, 8).loss)
        opt = dp_optimal_clusters(w, hw, 4).loss
        ratios.append(em / opt)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 1.1, f"mean EM/DP ratio {mean_ratio:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"PASS criterion 2: loss monotone on 1000 groups, EM >= DP on 300 small "
        f"groups, mean EM/DP ratio {mean_ratio:.4f} <= 1.1, {elapsed:.1f}s"
    )


def test_criterion_3_pipeline_superiority():
    wins_rtn = wins_plain = 0
    n_seeds = 50
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(32, 256))
        x = rng.normal(size=(1024, 256))
        cfg = QuantConfig(group_size=64, outliers=64, em_iters=8)
        stats = calibrate([x], cfg)
        _, full = quantize_linear(w, stats, cfg)
        _, rtn = quantize_linear(w, stats, replace(cfg, weight_mode="rtn"))
        _, plain = quantize_linear(w, stats, replace(cfg, fine_grained=False))
        wins_rtn += (
            full.weighted_error < rtn.weighted_error
            and full.output_error < rtn.output_error
        )
        wins_plain += (
            full.weighted_error < plain.weighted_error
            and full.output_error < plain.output_error
        )
    assert wins_rtn == n_seeds, f"beat 2-bit RTN on {wins_rtn}/{n_seeds} seeds"
    assert wins_plain == n_seeds, f"beat plain EM on {wins_plain}/{n_seeds} seeds"
    print(
        f"PASS criterion 3: full pipeline strictly below 2-bit RTN and "
        f"ungrouped EM on {n_seeds}/{n_seeds} seeds (both error metrics)"
    )


def test_criterion_4_activation_exactness():
    rng = np.random.default_rng(404)

    # bit-for-bit reconstruction identity on 1e5 random groups
    n, b = 100_000, 16
    x = rng.normal(size=(n, b)) * rng.uniform(0.01, 100, size=(n, 1))
    bp = quantize_activations(x, group_size=b, outliers=0)
    direct = bwaq.rtn_dequantize(bp.codes().reshape(n, b), bp.mu.ravel(), bp.zero.ravel())
    assert np.array_equal(reconstruct(bp), direct.reshape(n, b))

    # RTN round-trip bound
    codes, mu, z = rtn_quantize(x, 4)
    err = np.abs(x - mu[..., None] * (codes - z[..., None]))
    assert np.all(err <= mu[..., None] / 2 * (1 + 1e-9))

    # balancing: L1 non-increase on >= 95% of 1000 token vectors, and the
    # mean residual of nonzero-code elements is driven to ~0
    xv = rng.normal(size=(1000, 512)) * rng.uniform(0.1, 10, size=(1000, 1))
    bpv = quantize_activations(xv, group_size=128, outliers=0)
    balanced = balance_scales(xv, bpv)
    l1_before = np.abs(xv - reconstruct(bpv)).sum(axis=1)
    l1_after = np.abs(xv - reconstruct(balanced)).sum(axis=1)
    frac = float((l1_after <= l1_before + 1e-12).mean())
    assert frac >= 0.95, f"L1 non-increase on {frac:.1%} of vectors"

    included = bpv.codes().reshape(1000, 512) > 0
    pre = float((xv - reconstruct(bpv))[included].mean())
    post = float((xv - reconstruct(balanced))[included].mean())
    assert abs(post) <= 1e-6 * abs(pre), f"residual mean {post} vs {pre}"

    print(
        f"PASS criterion 4: exact decomposition on 1e5 groups, RTN error <= mu/2, "
        f"L1 non-increase on {frac:.1%} of vectors, residual mean ratio "
        f"{abs(post/pre):.2e}"
    )


def test_criterion_5a_bits_per_weight(tmp_path):
    rng = np.random.default_rng(505)
    layer = random_layer(rng, 4096, 4096, 128, 128)
    path = tmp_path / "single.bwaq"
    write_model([layer], path)
    bits_per_weight = path.stat().st_size * 8 / (4096 * 4096)
    line = (
        f"criterion 5a: 4096x4096 B=128 K=128 layer serializes at "
        f"{bits_per_weight:.3f} bits/weight (bound: <= 2.5)"
    )
    # The format mandated for this artifact (float32 affine pair per
    # (row, group, subgroup) = 1.0 bits/weight of affine alone, plus the
    # 2-bit planes and the INT8 outlier block) cannot reach 2.5 bits/weight;
    # see the 5b ratio check, which does hold. Asserted as stated.
    print(("PASS " if bits_per_weight <= 2.5 else "FAIL ") + line)
    assert bits_per_weight <= 2.5, line


def test_criterion_5bc_compression_ratio_and_formula(tmp_path):
    rng = np.random.default_rng(506)
    layer = random_layer(rng, 4096, 4096, 128, 128)
    path = tmp_path / "stack.bwaq"
    layers = [layer] * 32
    write_model(layers, path)
    size = path.stat().st_size

    # exact closed-form byte count
    expect = 12 + 32 * layer_nbytes(4096, 4096, 128, 128)
    assert size == expect == model_nbytes(layers)

    dense16 = 32 * 4096 * 4096 * 2
    assert size <= dense16 / 5, f"{size} vs dense/5 {dense16 / 5}"
    print(
        f"PASS criterion 5b/5c: 32-layer stack {size} bytes = "
        f"{dense16 / size:.2f}x below 16-bit dense (>= 5x), byte count matches "
        f"the closed-form formula exactly"
    )


def test_criterion_6_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(606)
    for trial in range(10):
        group = int(rng.choice([16, 64, 128]))
        outliers = int(rng.choice([0, 32]))
        cols = outliers + group * int(rng.integers(1, 4))
        rows = int(rng.integers(1, 48))
        layer = random_layer(rng, rows, cols, group, outliers)
        path = tmp_path / f"m{trial}.bwaq"
        write_model([layer], path)
        original = path.read_bytes()
        (back,) = read_model(path)
        write_model([back], path)
        assert path.read_bytes() == original

        act = random_activations(rng, 4, layer)
        assert np.array_equal(forward(layer, act), forward(back, act))
    print("PASS criterion 6: byte-identical and forward-equivalent round trip, 10 models")


def test_criterion_7_bench_reports_non_gated_timings(capsys):
    rows = bench_forward([(1, 128, 128), (4, 256, 256)], iters=3, seed=7)
    assert len(rows) == 2 and all(r["kernel_ms"] > 0 for r in rows)
    print(
        "PASS criterion 7: paper-scale perplexity/zero-shot/MMLU results and GPU "
        "speedups are out of scope by design; CPU kernel timings (not gated): "
        + ", ".join(
            f"{r['tokens']}x{r['c_in']}x{r['c_out']}: kernel {r['kernel_ms']:.2f}ms "
            f"vs gemm {r['gemm_ms']:.2f}ms"
            for r in rows
        )
    )
