"""Index engine oracles and the relative-index formulas."""

import numpy as np
import pytest

from balk1.errors import (CChoiceError, FedosovResidueError, PipelineStageError,
                          SingularGapError)
from balk1.loops import (MatrixLoop, standard_symbol_pair,
                         subbundle_projection_loop)
from balk1.numkern import random_unitary
from balk1.opmodel import (TailCutoff, clip_to_contraction, kbalance_report,
                           quantize, splitting_projection)
from balk1.relindex import (CChoice, engine_values, rel_index, rel_index_corner,
                            rel_index_global, verify_index_theorem)


def hardy_shift(n):
    """Honest rectangular compression of multiplication by one loop turn:
    modes 0..n-1 map into modes 0..n, the kernel is empty and the cokernel
    is the lowest basis vector."""
    m = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        m[k + 1, k] = 1.0
    return m


@pytest.mark.parametrize("n", [64, 128])
def test_shift_oracle_both_engines(n):
    f = hardy_shift(n)
    values = engine_values(f, threshold=1e-6, p=1)
    assert values.svd == values.fedosov == -1 and values.residue < 1e-12
    assert engine_values(f, threshold=1e-6, p=2).fedosov == -1


def test_unitary_instance_is_zero():
    values = engine_values(random_unitary(24, 5), threshold=1e-6)
    assert values.svd == values.fedosov == 0 and values.residue <= 1e-10


def test_self_adjoint_examples():
    assert engine_values(np.diag([0.0, 1.0, 1.0]), threshold=1e-6).svd == 0
    assert engine_values(np.diag([0.0, 1.0]), p=1).fedosov == 0
    assert engine_values(np.eye(5), threshold=1e-6).svd == 0


def test_explicit_threshold_gap_error():
    f = np.diag([5e-6, 1.0]).astype(complex) + np.diag([1e-8], k=1)
    with pytest.raises(SingularGapError):
        engine_values(f, threshold=1e-6, gap_factor=10.0)


def test_fedosov_residue_error():
    f = hardy_shift(16)
    weights = np.ones(17)
    weights[0] = 0.5  # half-weighted cokernel direction
    with pytest.raises(FedosovResidueError):
        engine_values(f, p=1, codomain_weights=weights,
                      domain_weights=np.ones(16))


def test_fedosov_rejects_far_from_isometry():
    # non-Hermitian, so the defect guard is reached: singular values 2 give
    # defects 1 - 4 = -3
    with pytest.raises(ValueError):
        engine_values(2.0 * hardy_shift(3))


def test_hermitian_shortcut():
    values = engine_values(np.diag([1e-7, 0.5, 1.0]).astype(complex))
    assert values.svd == values.fedosov == 0


def test_interior_weights_discard_edge_artifacts():
    # square truncated shift: raw counts cancel, weighted counts see only
    # the genuine cokernel at the bottom mode
    n = 32
    square = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n):
        square[k + 1, k] = 1.0
    interior = (np.arange(n + 1) <= n // 2).astype(float)
    values = engine_values(square, threshold=1e-6, p=2,
                           domain_weights=interior, codomain_weights=interior)
    assert values.svd == values.fedosov == -1
    gram = np.diag(interior)  # the same window as a Gram matrix
    from_gram = engine_values(square, threshold=1e-6, p=2,
                              domain_weights=gram, codomain_weights=gram)
    assert from_gram.svd == from_gram.fedosov == -1
    assert from_gram.residue == pytest.approx(values.residue, abs=1e-12)


@pytest.fixture(scope="module")
def flagship():
    grid = 1024
    sp = standard_symbol_pair(1, 0, grid)
    split_sym = (subbundle_projection_loop(grid),
                 MatrixLoop.constant(np.zeros((2, 2)), grid))
    d1, d2 = quantize(sp, 64)
    d1, d2 = clip_to_contraction(d1), clip_to_contraction(d2)
    split = splitting_projection(sp, 64, explicit_symbol=split_sym)
    return sp, d1, d2, split, TailCutoff(32), split_sym


def test_rel_index_formulas_agree(flagship):
    _, d1, d2, split, cut, _ = flagship
    assert rel_index(d1, d2, split, "A", cut) == -1
    assert rel_index(d1, d2, split, "B", cut) == -1
    assert rel_index_corner(d1, d2, split, cut) == -1
    assert rel_index_global(d1, d2, cut) == -1


def test_rel_index_equal_pair(flagship):
    _, d1, _, split, cut, _ = flagship
    assert rel_index(d1, d1, split, "A", cut) == 0
    assert rel_index_global(d1, d1, cut) == 0


def test_rel_index_antisymmetric(flagship):
    _, d1, d2, split, cut, _ = flagship
    assert rel_index(d2, d1, split, "A", cut) == 1
    assert rel_index_global(d2, d1, cut) == 1


def test_restricted_choices_pass_validation(flagship):
    _, d1, d2, split, cut, _ = flagship
    assert rel_index(d1, d2, split, CChoice("A-restricted"), cut, eps=0.1) == -1
    assert rel_index(d1, d2, split, CChoice("B-restricted"), cut, eps=0.1) == -1


def test_custom_choice_validation_rejects_junk(flagship):
    _, d1, d2, split, cut, _ = flagship
    rng = np.random.default_rng(0)
    rank = split.rank
    junk = rng.standard_normal((d1.size, rank)) + \
        1j * rng.standard_normal((d1.size, rank))
    with pytest.raises(CChoiceError):
        rel_index(d1, d2, split, CChoice("custom", junk), cut, eps=0.1)


def test_verify_index_theorem_flagship():
    grid = 1024
    sp = standard_symbol_pair(1, 0, grid)
    split_sym = (subbundle_projection_loop(grid),
                 MatrixLoop.constant(np.zeros((2, 2)), grid))
    report = verify_index_theorem(sp, 64, split_symbol=split_sym)
    assert report.verdict
    assert report.analytic_svd == report.analytic_fedosov == -1
    assert report.topological == -1
    for formula, engines in report.details.items():
        for engine, series in engines.items():
            assert set(series.values()) == {-1}, (formula, engine)
    # the k-balance diagnostic is read at the populated cutoff N/2
    for n in (64, 128):
        d1, d2 = (clip_to_contraction(d) for d in quantize(sp, n))
        cut = TailCutoff(n // 2)
        worst = kbalance_report(d1, d2, cut).worst(cut.m)
        assert report.residuals[f"kbalance_worst_N{n}"] == worst > 0


def test_verify_index_theorem_equal_symbols():
    grid = 1024
    sp = standard_symbol_pair(1, 1, grid)
    report = verify_index_theorem(sp, 64)
    assert report.verdict
    assert report.analytic_svd == report.topological == 0


def test_pipeline_attributes_stage_failures():
    coarse_grid = 128  # cannot supply the lags needed at 64 doubled modes
    sp = standard_symbol_pair(1, 0, coarse_grid)
    with pytest.raises(PipelineStageError) as err:
        verify_index_theorem(sp, 64)
    assert err.value.stage == "quantize"
