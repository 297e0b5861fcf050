"""Quantization, tail seminorms, splits and their verification."""

import numpy as np
import pytest

from balk1.balanced import REL1_NAMES, REL2_NAMES
from balk1.errors import ShapeError, SpectralGapError, UndersampledError
from balk1.loops import (LoopPair, MatrixLoop, SymbolPair, standard_symbol_pair,
                         subbundle_projection_loop)
from balk1.numkern import opnorm
from balk1.opmodel import (ModeSplit, SmoothStep, TailCutoff, TruncOp,
                           bandwidth_estimate, clip_to_contraction,
                           kbalance_report, quantize, quantize_symbol,
                           splitting_projection, symbol_roundtrip_error,
                           tail_seminorm, verify_block_estimates,
                           verify_split_blocks)


def scalar_loop(fn, grid):
    return MatrixLoop.from_function(lambda t: np.array([[fn(t)]]), grid, dim=1)


def identity_loop(dim, grid):
    return MatrixLoop.constant(np.eye(dim), grid)


def test_quantize_constant_identity():
    op = quantize_symbol(identity_loop(2, 128), identity_loop(2, 128), 16)
    assert np.allclose(op.matrix, np.eye(op.size))


def test_quantize_one_turn_is_forward_shift():
    plus = scalar_loop(lambda t: np.exp(4j * t), 256)
    minus = scalar_loop(lambda t: 1.0, 256)
    op = quantize_symbol(plus, minus, 16)
    n = 16
    block = op.matrix[n:, n:]
    expected = np.zeros_like(block)
    for k in range(n):
        expected[k + 1, k] = 1.0
    assert np.abs(block - expected).max() < 1e-12
    assert np.allclose(op.matrix[:n, :n], np.eye(n))


def test_quantize_zero_symbol_kills_half():
    plus = scalar_loop(lambda t: 0.0, 128)
    minus = scalar_loop(lambda t: 1.0, 128)
    op = quantize_symbol(plus, minus, 8)
    assert opnorm(op.matrix[8:, 8:]) == 0.0
    assert np.allclose(op.matrix[:8, :8], np.eye(8))


def test_quantize_star_compatible():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    adj = quantize_symbol(sp.plus.sigma1.adjoint(), sp.minus.sigma1.adjoint(), 64)
    assert opnorm(adj.matrix - d1.matrix.conj().T) < 1e-12


def test_quantize_requires_fine_grid():
    with pytest.raises(UndersampledError):
        quantize_symbol(identity_loop(1, 32), identity_loop(1, 32), 32)


def test_quantize_bandwidth_guard():
    rough = scalar_loop(lambda t: np.exp(40j * t), 4096)
    with pytest.raises(UndersampledError):
        quantize_symbol(rough, scalar_loop(lambda t: 1.0, 4096), 16)


def test_bandwidth_estimate():
    assert bandwidth_estimate(scalar_loop(lambda t: np.exp(8j * t), 512)) == 2
    assert bandwidth_estimate(identity_loop(2, 128)) == 0


def test_symbol_roundtrip():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    err = symbol_roundtrip_error(d1, sp.plus.sigma1, sp.minus.sigma1)
    assert err <= 0.05


def test_clip_leaves_contractions():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    assert clip_to_contraction(d1) is d1


def test_clip_scalar_two():
    op = TruncOp(0, 1, np.array([[2.0 + 0j]]))
    clipped = clip_to_contraction(op)
    assert np.allclose(clipped.matrix, [[1.0]])


def test_clip_random_overshoot():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m *= 1.3 / opnorm(m)
    clipped = clip_to_contraction(TruncOp(1, 3, m))
    top = opnorm(clipped.matrix)
    assert abs(top - 1.0) < 1e-10
    assert opnorm(clipped.matrix - m) <= 0.3 + 1e-9


def test_tail_seminorm_band():
    op = quantize_symbol(identity_loop(1, 128), identity_loop(1, 128), 16)
    cut = TailCutoff(8)
    assert tail_seminorm(op, cut) == pytest.approx(1.0)
    empty = TailCutoff(8).band_mask(16, 1, m=15)
    assert empty.sum() == 0


def test_kbalance_matches_naive_small_case():
    plus1 = scalar_loop(lambda t: np.exp(4j * t), 256)
    plus2 = scalar_loop(lambda t: 1.0, 256)
    lp = LoopPair(plus1, plus2)
    sp = SymbolPair(lp, LoopPair(identity_loop(1, 256), identity_loop(1, 256)))
    d1, d2 = quantize(sp, 16)
    cut = TailCutoff(4, collar=2)
    report = kbalance_report(d1, d2, cut)
    am, bm = d1.matrix, d2.matrix
    eye = np.eye(d1.size)
    ah, bh = am.conj().T, bm.conj().T
    qa, qb = eye - ah @ am, eye - bh @ bm
    pa, pb = eye - am @ ah, eye - bm @ bh
    diff, diff_star = am - bm, ah - bh
    dense = {
        "a*a-b*b": ah @ am - bh @ bm,
        "aa*-bb*": am @ ah - bm @ bh,
        "a(1-a*a)-b(1-b*b)": am @ qa - bm @ qb,
        "(1-aa*)a-(1-bb*)b": pa @ am - pb @ bm,
        "(a-b)(1-a*a)": diff @ qa,
        "(a-b)(1-b*b)": diff @ qb,
        "(a*-b*)(1-aa*)": diff_star @ pa,
        "(a*-b*)(1-bb*)": diff_star @ pb,
        "(1-aa*)(a-b)": pa @ diff,
        "(1-bb*)(a-b)": pb @ diff,
        "(1-a*a)(a*-b*)": qa @ diff_star,
        "(1-b*b)(a*-b*)": qb @ diff_star,
    }
    names = REL1_NAMES + REL2_NAMES
    assert set(names) == set(dense) == set(report.residuals)
    for m in report.cutoffs:
        mask = cut.band_mask(16, 1, m)
        assert mask.any()
        for name in names:
            naive = opnorm(dense[name][np.ix_(mask, mask)])
            assert report.residuals[name][m] == pytest.approx(naive, abs=1e-12), \
                (name, m)


def test_kbalance_balanced_symbols_small():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, d2 = quantize(sp, 64)
    report = kbalance_report(d1, d2, TailCutoff(32))
    assert report.verdict
    assert all(v[32] <= 0.05 for v in report.residuals.values())


def test_kbalance_equal_operators():
    sp = standard_symbol_pair(1, 1, 1024)
    d1, d2 = quantize(sp, 64)
    report = kbalance_report(d1, d1, TailCutoff(32))
    for name, vals in report.residuals.items():
        if "(a" in name or "a-b" in name or "a*-b*" in name:
            continue
        assert max(vals.values()) < 1e-12


def test_kbalance_unbalanced_symbols_persist():
    grid = 512
    plus1 = MatrixLoop.constant(0.5 * np.eye(1), grid)
    plus2 = MatrixLoop.constant(np.eye(1), grid)
    lp = LoopPair(plus1, plus2, tol=10.0)  # deliberately not balanced
    sp = SymbolPair(lp, LoopPair(identity_loop(1, grid), identity_loop(1, grid)))
    d1, d2 = quantize(sp, 32)
    r1 = kbalance_report(d1, d2, TailCutoff(8))
    r2 = kbalance_report(d1, d2, TailCutoff(12))
    floor = 0.3
    assert r1.residuals["a*a-b*b"][8] > floor
    assert r2.residuals["a*a-b*b"][12] > floor


def test_kbalance_tail_monotone():
    sp = standard_symbol_pair(2, -1, 1024)
    d1, d2 = quantize(sp, 128)
    report = kbalance_report(d1, d2, TailCutoff(32))
    for vals in report.residuals.values():
        assert vals[64] <= vals[32] + 0.02


def test_hardy_isometry_modulo_tail():
    grid = 1024
    plus = scalar_loop(lambda t: np.exp(4j * t), grid)
    minus = scalar_loop(lambda t: 1.0, grid)
    for modes in (32, 64):
        op = quantize_symbol(plus, minus, modes)
        defect = np.eye(op.size) - op.matrix.conj().T @ op.matrix
        cut = TailCutoff(modes // 2)
        mask = cut.band_mask(modes, 1)
        assert opnorm(defect[np.ix_(mask, mask)]) < 1e-10


def test_splitting_projection_trivial_difference():
    sp = standard_symbol_pair(1, 1, 1024)
    split = splitting_projection(sp, 64)
    assert split.rank == 0


def test_splitting_projection_full_difference():
    grid = 512
    lp = LoopPair(MatrixLoop.constant(-np.eye(1), grid),
                  MatrixLoop.constant(np.eye(1), grid))
    sp = SymbolPair(lp, LoopPair(identity_loop(1, grid), identity_loop(1, grid)))
    split = splitting_projection(sp, 16)
    assert split.rank == 17  # every nonnegative mode


def test_splitting_projection_gap_failure_and_override():
    sp = standard_symbol_pair(1, 0, 1024)
    with pytest.raises(SpectralGapError):
        splitting_projection(sp, 64)
    explicit = (subbundle_projection_loop(1024),
                MatrixLoop.constant(np.zeros((2, 2)), 1024))
    split = splitting_projection(sp, 64, explicit_symbol=explicit)
    p = split.projector
    assert opnorm(p @ p - p) < 1e-10
    assert opnorm(p - p.conj().T) < 1e-10


def test_smooth_step_profile():
    step = SmoothStep(eta=0.1)
    assert step(np.array([0.0]))[0] == 0.0
    assert step(np.array([0.005]))[0] == 0.0
    assert step(np.array([0.04]))[0] == 1.0
    mid = step(np.array([0.02]))[0]
    assert 0.0 < mid < 1.0


def test_verify_split_blocks_equal_operators():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    explicit = (subbundle_projection_loop(1024),
                MatrixLoop.constant(np.zeros((2, 2)), 1024))
    split = splitting_projection(sp, 64, explicit_symbol=explicit)
    report = verify_split_blocks(d1, d1, split, TailCutoff(32), eps=0.05)
    assert max(report.diff_blocks.values()) == 0.0


def test_verify_split_blocks_degenerate_identity_split():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, d2 = quantize(sp, 64)
    split = ModeSplit(np.eye(d1.size), "identity")
    report = verify_split_blocks(d1, d2, split, TailCutoff(32), eps=0.1)
    assert report.degenerate
    # the difference blocks vanish with H2 = 0, but the defects are then
    # confined to nothing: the decomposition genuinely fails
    assert max(report.diff_blocks.values()) == 0.0
    assert not report.passed


def test_verify_block_estimates_equal_operators():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    explicit = (subbundle_projection_loop(1024),
                MatrixLoop.constant(np.zeros((2, 2)), 1024))
    split = splitting_projection(sp, 64, explicit_symbol=explicit)
    report = verify_block_estimates(d1, d1, split, TailCutoff(32), eps=0.05)
    assert report.estimates["A11*A11-B11*B11"] == 0.0
    assert report.passed


def test_trunc_op_shape_check():
    with pytest.raises(ShapeError):
        TruncOp(4, 2, np.eye(5))


def test_cutoff_bounds():
    plus = scalar_loop(lambda t: np.exp(4j * t), 256)
    minus = scalar_loop(lambda t: 1.0, 256)
    op = quantize_symbol(plus, minus, 16)
    with pytest.raises(ValueError):
        kbalance_report(op, op, TailCutoff(16))
