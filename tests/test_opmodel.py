"""Quantization, tail seminorms, splits and their verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balk1 import opmodel
from balk1.balanced import REL1_NAMES, REL2_NAMES
from balk1.errors import ShapeError, SpectralGapError, UndersampledError
from balk1.loops import (LoopPair, MatrixLoop, SymbolPair, default_gamma,
                         rotating_diagonal_pair, sample_times,
                         standard_split_symbol, standard_symbol_pair,
                         subbundle_projection_loop, turn)
from balk1.numkern import opnorm, random_unitary
from balk1.opmodel import (ModeSplit, TailCutoff, TruncOp, bandwidth_estimate,
                           clip_to_contraction, fourier_coefficients,
                           kbalance_report, quantize, quantize_symbol,
                           splitting_projection, verify_block_estimates,
                           verify_split_blocks)
from balk1.relindex import engine_values
from dense_reference import reference_engine


def scalar_loop(fn, grid):
    """The 1x1 loop of fn called once on the grid times; a constant
    result is broadcast."""
    values = np.broadcast_to(fn(sample_times(grid)), (grid,))
    return MatrixLoop(values[:, np.newaxis, np.newaxis])


def identity_loop(dim, grid):
    return MatrixLoop.constant(np.eye(dim), grid)


def test_quantize_constant_identity():
    op = quantize_symbol(identity_loop(2, 128), identity_loop(2, 128), 16)
    assert np.allclose(op.matrix, np.eye(sum(op.sizes)))


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
    adj = quantize_symbol(
        *(MatrixLoop(lp.sigma1.samples.conj().transpose(0, 2, 1))
          for lp in (sp.plus, sp.minus)), 64)
    assert opnorm(adj.matrix - d1.matrix.conj().T) < 1e-12


def test_quantize_requires_fine_grid():
    with pytest.raises(UndersampledError):
        quantize_symbol(identity_loop(1, 32), identity_loop(1, 32), 32)


def test_quantize_bandwidth_guard():
    rough = scalar_loop(lambda t: np.exp(40j * t), 4096)
    with pytest.raises(UndersampledError):
        quantize_symbol(rough, scalar_loop(lambda t: 1.0, 4096), 16)


def test_quantize_at_the_exact_grid_floor():
    """The sections at N modes read lags -N..N only, so grid 2N + 2 suffices:
    each block is (sigma_hat(r - c)) entry by entry from the DFT of its
    loop's samples.  One sample less raises, naming the mode count."""
    modes, dim = 16, 2
    rng = np.random.default_rng(5)
    grid = 2 * modes + 2
    plus, minus = (_random_loop(rng, dim, grid, 2, 0.9) for _ in range(2))
    op = quantize_symbol(plus, minus, modes)
    for block, loop in zip(op.blocks, (minus, plus)):
        coeffs = np.fft.fft(loop.samples, axis=0) / grid
        count = block.shape[0] // dim
        expected = np.empty_like(block)
        for r in range(count):
            for c in range(count):
                expected[r * dim:(r + 1) * dim, c * dim:(c + 1) * dim] = \
                    coeffs[(r - c) % grid]
        assert np.array_equal(block, expected)
    assert op.blocks[1].shape == (dim * (modes + 1),) * 2
    short = [MatrixLoop(loop.samples[:-1]) for loop in (plus, minus)]
    with pytest.raises(UndersampledError, match=f"{modes} modes .* need at "
                                                f"least {grid} samples"):
        quantize_symbol(*short, modes)


def test_bandwidth_estimate():
    loops = (scalar_loop(lambda t: np.exp(8j * t), 512), identity_loop(2, 128))
    assert [bandwidth_estimate(fourier_coefficients(loop, 0))
            for loop in loops] == [2, 0]


def _random_loop(rng, dim, grid, lags, norm):
    """A loop with random coefficients at lags -lags..lags and noise at 1e-4
    on every lag, scaled to the largest sample norm ``norm``."""
    ts = np.arange(grid) / grid
    coeffs = rng.standard_normal((2 * lags + 1, dim, dim, 2)) @ [1, 1j]
    waves = np.exp(2j * np.pi * np.outer(ts, np.arange(-lags, lags + 1)))
    samples = np.einsum("tk,kij->tij", waves, coeffs)
    samples += 1e-4 * (rng.standard_normal((grid, dim, dim, 2)) @ [1, 1j])
    top = np.linalg.svd(samples, compute_uv=False)[:, 0].max()
    return MatrixLoop(samples * (norm / top))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       grid=st.sampled_from([64, 128, 256]), modes=st.sampled_from([8, 12, 15]),
       lags=st.integers(0, 2), norm=st.floats(0.1, 1.0))
def test_quantized_blocks_are_bounded_by_their_samples(seed, dim, grid, modes,
                                                       lags, norm):
    """Each quantized block is a compression of the block circulant whose
    DFT is the block diagonal of the samples, so its norm is at most the
    recorded bound, the largest sample norm.  Scaled to sample norm 1.3 the
    bound exceeds 1 and clipping brings the block to norm at most 1."""
    rng = np.random.default_rng(seed)
    plus, minus = (_random_loop(rng, dim, grid, lags, norm) for _ in range(2))
    op = quantize_symbol(plus, minus, modes)
    for block, bound in zip(op.blocks, op.bounds):
        assert bound == pytest.approx(norm, rel=1e-12)
        assert opnorm(block) <= bound + 1e-12
    (clipped,) = clip_to_contraction(op)
    assert clipped is op
    big = [MatrixLoop(lp.samples * (1.3 / norm)) for lp in (plus, minus)]
    op = quantize_symbol(*big, modes)
    assert min(op.bounds) > 1
    (clipped,) = clip_to_contraction(op)
    for block in clipped.blocks:
        assert opnorm(block) <= 1 + 1e-12


def test_clip_leaves_contractions():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, d2 = quantize(sp, 64)
    clipped = clip_to_contraction(d1, d2)
    assert clipped[0] is d1 and clipped[1] is d2


def test_clip_scalar_two():
    op = TruncOp(0, 1, (np.zeros((0, 0)), [[2.0 + 0j]]))
    (clipped,) = clip_to_contraction(op)
    assert np.allclose(clipped.matrix, [[1.0]])


def test_clip_random_overshoot():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m[:3, 3:] = m[3:, :3] = 0  # no coupling between the half-lines
    m *= 1.3 / opnorm(m)
    (clipped,) = clip_to_contraction(TruncOp(1, 3, (m[:3, :3], m[3:, 3:])))
    top = opnorm(clipped.matrix)
    assert abs(top - 1.0) < 1e-10
    assert opnorm(clipped.matrix - m) <= 0.3 + 1e-9


@pytest.mark.parametrize("pq, shared", [((1, 0), [True, False]),
                                        ((2, 2), [True, True])],
                         ids=["standard-1-0", "standard-2-2"])
def test_equal_loops_share_their_blocks(pq, shared, monkeypatch):
    """A loop of the second member equal to the first member's is quantized
    once: the - block of every standard pair, and both blocks when p = q.
    Each shared block is bitwise the quantization of its loop alone, with
    its bound, and clipping by the bounds keeps it shared."""
    sp = standard_symbol_pair(*pq, 2048)
    d1, d2 = quantize(sp, 128)
    assert [x is y for x, y in zip(d1.blocks, d2.blocks)] == shared
    for k, lp in enumerate((sp.minus, sp.plus)):
        alone = quantize_symbol(lp.sigma2, lp.sigma2, 128)
        assert d2.blocks[k].tobytes() == alone.blocks[k].tobytes()
        assert d2.bounds[k] == alone.bounds[k]
    screened = []
    clipped = opmodel._clipped
    monkeypatch.setattr(opmodel, "_clipped",
                        lambda m: screened.append(m) or clipped(m))
    assert clip_to_contraction(d1, d2) == (d1, d2)
    assert screened == []  # every block is certified by its bound
    # without bounds every block of every operator is decomposed
    unbounded = [TruncOp(d.modes, d.dim, d.blocks) for d in (d1, d2)]
    c1, c2 = clip_to_contraction(*unbounded)
    assert len(screened) == 4
    assert c1 is unbounded[0] and c2 is unbounded[1]


@pytest.mark.usefixtures("forbid_decomposition")
def test_clip_decomposes_no_block_of_the_sweep():
    """Every block of the 25 pairs (p, q), |p|, |q| <= 2, that the index sweep
    quantizes at N = 128 and 256 (grid 2048) is certified by its bound."""
    for p in range(-2, 3):
        for q in range(-2, 3):
            sp = standard_symbol_pair(p, q, 2048)
            for n in (128, 256):
                d1, d2 = quantize(sp, n)
                assert clip_to_contraction(d1, d2) == (d1, d2)


@pytest.mark.usefixtures("forbid_decomposition")
def test_clip_keeps_the_identity_block_by_its_bound():
    """The identity - block of a standard pair records bound 1, so it comes
    back as the same object and is not decomposed."""
    d1, d2 = quantize(standard_symbol_pair(1, 0, 1024), 64)
    minus = d1.blocks[0]
    assert np.array_equal(minus, np.eye(minus.shape[0]))
    assert d1.bounds[0] == 1.0
    c1, c2 = clip_to_contraction(d1, d2)
    assert c1.blocks[0] is minus and c2.blocks[0] is minus


def test_clip_diagonal_overshoot():
    block = np.diag([0.5, -1.5j, 1.0]).astype(np.complex128)
    kept = block.copy()
    out = opmodel._clipped(block)
    assert opnorm(out) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, np.diag([0.5, -1j, 1.0]))
    assert np.array_equal(block, kept)


@pytest.mark.parametrize("block", [np.zeros((0, 0), np.complex128),
                                   np.array([[0.25j]]), np.array([[3.0 + 4j]])],
                         ids=["0x0", "1x1-inside", "1x1-outside"])
def test_clip_empty_and_scalar_diagonal_blocks(block):
    out = opmodel._clipped(block)
    if block.size == 0 or abs(block[0, 0]) <= 1:
        assert out is block
    else:
        assert np.allclose(out, [[0.6 + 0.8j]])


def test_clip_certificate_catches_a_norm_just_above_one(monkeypatch):
    """A dense block of norm 1 + 1e-7 fails the certificate and is clipped; a
    dense unitary passes it and comes back as the same object, screened by
    SVD when its bound is unknown and undecomposed when its bound is 1."""
    u = random_unitary(514, 0)
    assert opmodel._clipped(u) is u
    block = (u * np.r_[1 + 1e-7, np.ones(513)]) @ u.conj().T
    assert opnorm(block) > 1 + 5e-8
    decomposed = []
    clipped = opmodel._clipped
    monkeypatch.setattr(opmodel, "_clipped",
                        lambda m: decomposed.append(m) or clipped(m))
    v = random_unitary(512, 1)
    op = TruncOp(256, 2, (v, block), (opnorm(v), opnorm(block)))
    (c,) = clip_to_contraction(op)
    assert c.blocks[0] is v
    assert len(decomposed) == 1 and decomposed[0] is op.blocks[1]
    assert opnorm(c.blocks[1]) <= 1 + 1e-12


def test_clip_shares_a_clipped_block_without_writing_into_it():
    """A block object that two operators share and that needs clipping is
    clipped for each of them, to equal results, and is not written into."""
    rng = np.random.default_rng(3)
    big = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    big *= 1.5 / opnorm(big)
    kept = big.copy()
    ops = [TruncOp(1, 3, (big, np.eye(6) * s)) for s in (1.0, 0.5)]
    c1, c2 = clip_to_contraction(*ops)
    assert np.array_equal(c1.blocks[0], c2.blocks[0])
    assert opnorm(c1.blocks[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(big, kept)
    assert c1.blocks[1] is ops[0].blocks[1] and c2.blocks[1] is ops[1].blocks[1]


def test_tail_seminorm_band():
    op = quantize_symbol(identity_loop(1, 128), identity_loop(1, 128), 16)
    mask = np.concatenate(TailCutoff(8).band_masks(16, 1))
    assert opnorm(op.matrix[np.ix_(mask, mask)]) == pytest.approx(1.0)
    # the band M < |n| <= N - N // 4 is empty from M = 12 up
    assert np.concatenate(TailCutoff(11).band_masks(16, 1)).sum() == 2
    assert np.concatenate(TailCutoff(12).band_masks(16, 1)).sum() == 0
    with pytest.raises(ValueError, match="below the mode count"):
        TailCutoff(16).band_masks(16, 1)


def test_a_negative_cutoff_is_rejected_by_every_stage_that_reads_it():
    """A cutoff below 0 has an empty interior window; the band masks, the
    k-balance report and the split records refuse it."""
    sp = standard_symbol_pair(1, 0, 1024)
    d1, d2 = quantize(sp, 64)
    split = splitting_projection(sp, 64, standard_split_symbol(1024))
    cut = TailCutoff(-1)
    with pytest.raises(ValueError, match="cutoff -1 must be at least 0"):
        cut.band_masks(64, 2)
    with pytest.raises(ValueError, match="at least 0"):
        kbalance_report(d1, d2, cut)
    with pytest.raises(ValueError, match="at least 0"):
        opmodel.split_blocks(d1, d2, split, cut)


def dense_relations(am, bm):
    """The twelve relation residuals of a dense pair, written out."""
    eye = np.eye(len(am))
    ah, bh = am.conj().T, bm.conj().T
    qa, qb = eye - ah @ am, eye - bh @ bm
    pa, pb = eye - am @ ah, eye - bm @ bh
    diff, diff_star = am - bm, ah - bh
    return {
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


def test_kbalance_matches_naive_small_case():
    plus1 = scalar_loop(lambda t: np.exp(4j * t), 256)
    plus2 = scalar_loop(lambda t: 1.0, 256)
    lp = LoopPair(plus1, plus2)
    sp = SymbolPair(lp, LoopPair(identity_loop(1, 256), identity_loop(1, 256)))
    d1, d2 = quantize(sp, 16)
    dense = dense_relations(d1.matrix, d2.matrix)
    names = REL1_NAMES + REL2_NAMES
    for m in (4, 8):
        cut = TailCutoff(m)
        report = kbalance_report(d1, d2, cut)
        assert set(names) == set(dense) == set(report.residuals)
        mask = np.concatenate(cut.band_masks(16, 1))
        assert report.cutoff == m and report.populated and mask.any()
        for name in names:
            naive = opnorm(dense[name][np.ix_(mask, mask)])
            assert report.residuals[name] == pytest.approx(naive, abs=1e-12), \
                (name, m)


def test_kbalance_verdict_fails_on_an_empty_band():
    # an unbalanced pair fails on a populated band, and a balanced one
    # fails where the band M < |n| <= N - N // 4 holds no mode (M >= 48 at
    # N = 64)
    grid = 512
    lp = LoopPair(MatrixLoop.constant(0.5 * np.eye(1), grid),
                  MatrixLoop.constant(np.eye(1), grid))
    sp = SymbolPair(lp, LoopPair(identity_loop(1, grid), identity_loop(1, grid)))
    d1, d2 = quantize(sp, 32)
    report = kbalance_report(d1, d2, TailCutoff(16))
    assert report.cutoff == 16 and report.populated
    assert report.residuals["a*a-b*b"] == pytest.approx(0.75)
    assert not report.verdict
    d1, d2 = quantize(standard_symbol_pair(1, 0, 1024), 64)
    assert kbalance_report(d1, d2, TailCutoff(47)).verdict
    empty = kbalance_report(d1, d2, TailCutoff(48))
    assert not empty.populated and not empty.verdict
    assert empty.worst() == 0.0


def test_kbalance_balanced_symbols_small():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, d2 = quantize(sp, 64)
    report = kbalance_report(d1, d2, TailCutoff(32))
    assert report.verdict
    assert all(v <= 0.05 for v in report.residuals.values())


def test_kbalance_equal_operators():
    sp = standard_symbol_pair(1, 1, 1024)
    d1, d2 = quantize(sp, 64)
    report = kbalance_report(d1, d1, TailCutoff(32))
    for name, value in report.residuals.items():
        if "(a" in name or "a-b" in name or "a*-b*" in name:
            continue
        assert value < 1e-12


def test_kbalance_unbalanced_symbols_persist():
    grid = 512
    plus1 = MatrixLoop.constant(0.5 * np.eye(1), grid)
    plus2 = MatrixLoop.constant(np.eye(1), grid)
    lp = LoopPair(plus1, plus2)  # deliberately not balanced
    sp = SymbolPair(lp, LoopPair(identity_loop(1, grid), identity_loop(1, grid)))
    d1, d2 = quantize(sp, 32)
    r1 = kbalance_report(d1, d2, TailCutoff(8))
    r2 = kbalance_report(d1, d2, TailCutoff(12))
    floor = 0.3
    assert r1.residuals["a*a-b*b"] > floor
    assert r2.residuals["a*a-b*b"] > floor


def test_kbalance_tail_monotone():
    sp = standard_symbol_pair(2, -1, 1024)
    d1, d2 = quantize(sp, 128)
    low, high = (kbalance_report(d1, d2, TailCutoff(m)) for m in (32, 64))
    assert low.populated and high.populated
    for name, value in high.residuals.items():
        assert value <= low.residuals[name] + 0.02


def test_hardy_isometry_modulo_tail():
    grid = 1024
    plus = scalar_loop(lambda t: np.exp(4j * t), grid)
    minus = scalar_loop(lambda t: 1.0, grid)
    for modes in (32, 64):
        op = quantize_symbol(plus, minus, modes)
        defect = np.eye(sum(op.sizes)) - op.matrix.conj().T @ op.matrix
        cut = TailCutoff(modes // 2)
        mask = np.concatenate(cut.band_masks(modes, 1))
        assert opnorm(defect[np.ix_(mask, mask)]) < 1e-10


def test_splitting_projection_trivial_difference():
    sp = standard_symbol_pair(1, 1, 1024)
    zero = MatrixLoop.constant(np.zeros((2, 2)), 1024)
    split = splitting_projection(sp, 64, (zero, zero))
    assert split.rank == 0
    # no range anywhere: H1 = 0, and every defect block reads 0 unformed
    assert all(w is None for _, w in split.blocks)
    d1, d2 = quantize(sp, 64)
    report = verify_split_blocks(d1, d2, split, TailCutoff(32), eps=0.1)
    assert report.degenerate
    assert len(report.defect_blocks) == 12
    assert set(report.defect_blocks.values()) == {0.0}


def test_splitting_projection_full_difference():
    grid = 512
    lp = LoopPair(MatrixLoop.constant(-np.eye(1), grid),
                  MatrixLoop.constant(np.eye(1), grid))
    sp = SymbolPair(lp, LoopPair(identity_loop(1, grid), identity_loop(1, grid)))
    split = splitting_projection(sp, 16, (identity_loop(1, grid),
                                          MatrixLoop.constant(np.zeros((1, 1)), grid)))
    assert split.rank == 17  # every nonnegative mode


def test_splitting_projection_gap_failure_and_override():
    sp = standard_symbol_pair(1, 0, 1024)
    quarter = MatrixLoop.constant(np.eye(2) / 4, 1024)
    with pytest.raises(SpectralGapError) as err:  # every eigenvalue at the cut
        splitting_projection(sp, 64, (quarter, quarter))
    assert abs(err.value.eigenvalue - 0.25) <= 0.05
    split = splitting_projection(sp, 64, explicit_symbol=standard_split_symbol(1024))
    p = split.projector
    assert opnorm(p @ p - p) < 1e-10
    assert opnorm(p - p.conj().T) < 1e-10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_splitting_projection_rejects_a_non_finite_symbol(bad):
    samples = standard_split_symbol(256)[0].samples.copy()
    samples[3, 0, 0] = bad
    loop = MatrixLoop(samples)
    with pytest.raises(SpectralGapError) as err:
        splitting_projection(standard_symbol_pair(1, 0, 256), 32, (loop, loop))
    assert np.isnan(err.value.eigenvalue)


@pytest.mark.parametrize("modes", [128, 256])
def test_splitting_projection_frames_are_those_of_eigh(modes):
    split_sym = standard_split_symbol(2048)
    split = splitting_projection(standard_symbol_pair(1, 0, 2048), modes, split_sym)
    plus, minus = split_sym
    raw = [opmodel._half_line_block(minus, modes, 0),
           opmodel._half_line_block(plus, modes, 1)]
    assert not raw[0].any()  # the zero - block takes the diagonal path
    for block, (v, w) in zip(raw, split.blocks):
        vals, vecs = np.linalg.eigh((block + block.conj().T) / 2)
        assert np.array_equal(v, vecs[:, vals > opmodel.SPLIT_THRESHOLD])
        if w is not None:
            assert np.array_equal(w, vecs[:, vals <= opmodel.SPLIT_THRESHOLD])
    # the zero - block has no range, and its kernel is the whole block
    assert split.blocks[0][0].shape == (2 * modes, 0)
    assert split.blocks[0][1] is None
    assert split.blocks[1][1] is not None


def test_splitting_projection_reads_a_diagonal_block_off_its_diagonal():
    grid = 512
    diag = np.diag([0.9, 0.0, 0.6, -0.1])
    loop = MatrixLoop.constant(diag, grid)
    sp = SymbolPair(LoopPair(loop, loop), LoopPair(loop, loop))
    split = splitting_projection(sp, 3, (loop, loop))
    raw = [opmodel._half_line_block(loop, 3, k) for k in (0, 1)]
    for block, (v, w) in zip(raw, split.blocks):
        vals, vecs = np.linalg.eigh((block + block.conj().T) / 2)
        assert np.abs(np.sort(np.diag(block).real) - vals).max() <= 1e-15
        ref = vecs[:, vals > opmodel.SPLIT_THRESHOLD]
        assert opnorm(v @ v.conj().T - ref @ ref.conj().T) <= 1e-15
        assert v.shape[1] + w.shape[1] == block.shape[0]
    assert split.rank == 2 * 7


def test_splitting_projection_one_by_one_blocks():
    grid = 256
    one = identity_loop(1, grid)
    zero = MatrixLoop.constant(np.zeros((1, 1)), grid)
    sp = SymbolPair(LoopPair(one, one), LoopPair(one, one))
    split = splitting_projection(sp, 0, (one, zero))
    assert split.sizes == (0, 1) and split.rank == 1
    split = splitting_projection(sp, 1, (one, zero))
    assert split.sizes == (1, 2) and split.rank == 2
    v, w = split.blocks[0]  # no range: the kernel is the whole block
    assert v.shape == (1, 0) and w is None


def _buffer(x):
    """The array that owns the memory of an array or of a view of one."""
    while x.base is not None:
        x = x.base
    return x


@pytest.mark.parametrize("modes", [128, 256])
def test_shared_splits_hold_one_frame_buffer_per_ranged_block(modes):
    """The splits the sweep shares hold one n x n eigenvector buffer on the
    + half-line, viewed by both frames, and nothing n x n on the - one."""
    split = splitting_projection(standard_symbol_pair(0, 0, 2048), modes,
                                 standard_split_symbol(2048))
    (v_minus, w_minus), (v_plus, w_plus) = split.blocks
    assert w_minus is None and _buffer(v_minus).nbytes == 0
    n = 2 * (modes + 1)
    buffer = _buffer(v_plus)
    assert _buffer(w_plus) is buffer and buffer.nbytes == 16 * n * n
    assert np.shares_memory(v_plus, buffer) and np.shares_memory(w_plus, buffer)


def test_a_diagonal_block_with_a_range_shares_one_frame_buffer():
    loop = MatrixLoop.constant(np.diag([0.9, 0.0]), 256)
    sp = SymbolPair(LoopPair(loop, loop), LoopPair(loop, loop))
    for v, w in splitting_projection(sp, 3, (loop, loop)).blocks:
        assert _buffer(v) is _buffer(w) and _buffer(v).shape == (v.shape[0],) * 2
        assert v.shape[1] == w.shape[1] == v.shape[0] // 2


def test_splitting_projection_rejects_a_split_of_another_dimension():
    sp = standard_symbol_pair(1, 0, 1024)
    one = identity_loop(1, 1024)
    with pytest.raises(ShapeError):
        splitting_projection(sp, 64, (one, one))


def test_verify_split_blocks_equal_operators():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    split = splitting_projection(sp, 64, explicit_symbol=standard_split_symbol(1024))
    report = verify_split_blocks(d1, d1, split, TailCutoff(32), eps=0.05)
    assert max(report.diff_blocks.values()) == 0.0


def test_verify_split_blocks_degenerate_identity_split():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, d2 = quantize(sp, 64)
    split = ModeSplit([(np.eye(k), np.eye(k)[:, :0]) for k in d1.sizes])
    report = verify_split_blocks(d1, d2, split, TailCutoff(32), eps=0.1)
    assert report.degenerate
    # the difference blocks vanish with H2 = 0, but the defects are then
    # confined to nothing: the decomposition genuinely fails
    assert max(report.diff_blocks.values()) == 0.0
    assert not report.passed


def test_verify_block_estimates_equal_operators():
    sp = standard_symbol_pair(1, 0, 1024)
    d1, _ = quantize(sp, 64)
    split = splitting_projection(sp, 64, explicit_symbol=standard_split_symbol(1024))
    report = verify_block_estimates(d1, d1, split, TailCutoff(32), eps=0.05)
    assert set(report.estimates.values()) == {0.0}
    assert report.passed


def test_a_nan_norm_fails_both_split_checks(standard_pairs, monkeypatch):
    """The running maxima keep a NaN norm, so a check that reads one fails,
    whatever finite norms come after it."""
    d1, d2, split, cut = standard_pairs[(1, 0)]
    checks = (verify_split_blocks, verify_block_estimates)
    assert all(check(d1, d2, split, cut, eps=0.1).passed for check in checks)
    for check in checks:
        norms = []
        monkeypatch.setattr(opmodel, "opnorm", lambda x: norms.append(x)
                            or (np.nan if len(norms) == 1 else opnorm(x)))
        assert not check(d1, d2, split, cut, eps=0.1).passed


def test_trunc_op_shape_check():
    with pytest.raises(ShapeError):
        TruncOp(4, 2, (np.eye(5), np.eye(5)))


def test_cutoff_bounds():
    plus = scalar_loop(lambda t: np.exp(4j * t), 256)
    minus = scalar_loop(lambda t: 1.0, 256)
    op = quantize_symbol(plus, minus, 16)
    with pytest.raises(ValueError):
        kbalance_report(op, op, TailCutoff(16))


# -- the block path against dense formulas ----------------------------------------


def dense_split_blocks(am, bm, projector, mask):
    """verify_split_blocks written out on dense matrices."""
    vals, vecs = np.linalg.eigh(projector)
    frames = {"1": vecs[:, vals > 0.5], "2": vecs[:, vals <= 0.5]}
    v, w = frames["1"], frames["2"]
    diff = am - bm
    diff_blocks = {"12": opnorm(v.conj().T @ diff @ w),
                   "21": opnorm(w.conj().T @ diff @ v),
                   "22": opnorm(w.conj().T @ diff @ w)}
    eye = np.eye(len(am))
    defects = {"1-a*a": eye - am.conj().T @ am, "1-aa*": eye - am @ am.conj().T,
               "1-b*b": eye - bm.conj().T @ bm, "1-bb*": eye - bm @ bm.conj().T}
    defect_blocks = {}
    for name, q in defects.items():
        for left, right in ("11", "12", "21"):
            fl, fr = frames[left], frames[right]
            embedded = fl @ (fl.conj().T @ q @ fr) @ fr.conj().T
            defect_blocks[f"{name}:{left}{right}"] = opnorm(
                embedded[np.ix_(mask, mask)])
    return diff_blocks, defect_blocks


@pytest.fixture(scope="module")
def two_way_winding():
    """Both half-lines wind, so both blocks carry part of the index."""
    grid, modes = 1024, 64
    plus = rotating_diagonal_pair(turn(1), turn(0), default_gamma, grid)
    minus = rotating_diagonal_pair(turn(0), turn(1), default_gamma, grid)
    sp = SymbolPair(plus, minus)
    split_loop = subbundle_projection_loop(grid)
    split = splitting_projection(sp, modes, explicit_symbol=(split_loop, split_loop))
    d1, d2 = clip_to_contraction(*quantize(sp, modes))
    return d1, d2, split, TailCutoff(modes // 2)


@pytest.fixture(scope="module")
def standard_pairs():
    """standard_symbol_pair(1, 0), whose a - b vanishes on the - block, and
    (1, 1), whose a - b vanishes on both blocks."""
    grid, modes = 1024, 64
    split = splitting_projection(standard_symbol_pair(0, 0, grid), modes,
                                 standard_split_symbol(grid))
    out = {}
    for pq in ((1, 0), (1, 1)):
        d1, d2 = clip_to_contraction(
            *quantize(standard_symbol_pair(*pq, grid), modes))
        out[pq] = (d1, d2, split, TailCutoff(modes // 2))
    return out


@pytest.mark.parametrize("case", [(1, 0), (1, 1)],
                         ids=["standard-1-0", "standard-1-1"])
def test_split_blocks_with_zero_differences_match_dense_reference(case, standard_pairs):
    # test_block_path_matches_dense_reference covers a pair with no zero
    # difference block
    d1, d2, split, cut = standard_pairs[case]
    zero_blocks = [np.array_equal(x, y) for x, y in zip(d1.blocks, d2.blocks)]
    assert zero_blocks == {(1, 0): [True, False], (1, 1): [True, True]}[case]
    mask = np.concatenate(cut.band_masks(d1.modes, d1.dim))
    report = verify_split_blocks(d1, d2, split, cut, eps=0.1)
    diff_blocks, defect_blocks = dense_split_blocks(d1.matrix, d2.matrix,
                                                    split.projector, mask)
    assert list(report.diff_blocks) == list(diff_blocks)
    assert list(report.defect_blocks) == list(defect_blocks)
    assert report.diff_blocks == pytest.approx(diff_blocks, abs=1e-12)
    assert report.defect_blocks == pytest.approx(defect_blocks, abs=1e-12)
    if all(zero_blocks):
        assert set(report.diff_blocks.values()) == {0.0}


def test_a_block_with_no_range_matches_dense_reference(two_way_winding):
    """a - b on a half-line where the split has no range: (a - b) is its
    own (2,2) block there, and the other blocks are empty."""
    d1, d2, _, cut = two_way_winding
    split = splitting_projection(standard_symbol_pair(0, 0, 1024), d1.modes,
                                 standard_split_symbol(1024))
    assert split.blocks[0][1] is None
    mask = np.concatenate(cut.band_masks(d1.modes, d1.dim))
    report = verify_split_blocks(d1, d2, split, cut, eps=0.1)
    diff_blocks, defect_blocks = dense_split_blocks(d1.matrix, d2.matrix,
                                                    split.projector, mask)
    assert report.diff_blocks["22"] >= opnorm(d1.blocks[0] - d2.blocks[0]) > 0.1
    assert report.diff_blocks == pytest.approx(diff_blocks, abs=1e-12)
    assert report.defect_blocks == pytest.approx(defect_blocks, abs=1e-12)
    assert list(report.defect_blocks) == list(defect_blocks)
    assert not report.degenerate and not report.passed


def test_block_path_matches_dense_reference(two_way_winding):
    d1, d2, split, cut = two_way_winding
    am, bm = d1.matrix, d2.matrix
    mask = np.concatenate(cut.band_masks(d1.modes, d1.dim))

    report = verify_split_blocks(d1, d2, split, cut, eps=0.1)
    diff_blocks, defect_blocks = dense_split_blocks(am, bm, split.projector, mask)
    assert report.diff_blocks == pytest.approx(diff_blocks, abs=1e-12)
    assert report.defect_blocks == pytest.approx(defect_blocks, abs=1e-12)

    # the six corner estimates, the comparison conditions under C = A|H1
    # and C = B|H1, are relation rows of (P A P, P B P): on H1 the identity
    # in a defect acts as P, since (x - y)(1 - P) = 0
    projector = split.projector
    corners = dense_relations(projector @ am @ projector,
                              projector @ bm @ projector)
    estimates = verify_block_estimates(d1, d2, split, cut, eps=0.1).estimates
    assert list(estimates) == ["a*a-b*b", "aa*-bb*", "(a-b)(1-a*a)",
                               "(a-b)(1-b*b)", "(a*-b*)(1-aa*)",
                               "(a*-b*)(1-bb*)"]
    for name, value in estimates.items():
        assert value == pytest.approx(
            opnorm(corners[name][np.ix_(mask, mask)]), abs=1e-12), name

    kb = kbalance_report(d1, d2, cut)
    dense = dense_relations(am, bm)
    assert kb.populated
    for name, mat in dense.items():
        assert kb.residuals[name] == pytest.approx(
            opnorm(mat[np.ix_(mask, mask)]), abs=1e-12), name

    # the global candidate 1 + B*(A - B), block by block and dense
    weights = list(cut.interior_weights(d1.modes, d1.dim))
    interior = np.concatenate(weights)
    blocks = [np.eye(len(x)) + y.conj().T @ (x - y)
              for x, y in zip(d1.blocks, d2.blocks)]
    values = engine_values(blocks, domain_weights=weights, codomain_weights=weights)
    index, below, above, total = reference_engine(
        np.eye(len(am)) + bm.conj().T @ (am - bm), interior, interior)
    assert values.svd == index == values.fedosov == round(total) == -2
    assert values.residue == pytest.approx(abs(total - round(total)), abs=1e-12)
    assert values.below == pytest.approx(below, abs=1e-12)
    assert values.above == pytest.approx(above, abs=1e-12)
