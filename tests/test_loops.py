"""Loop, winding and topological index tests."""

import numpy as np
import pytest

from balk1.errors import (ConstraintError, NotUnitaryError, ShapeError,
                          WindingError)
from balk1.loops import (HALF_PI, RAMP_HALF_WIDTH, LoopPair, MatrixLoop,
                         SymbolPair, canonical_unitary_loop,
                         default_gamma, rotating_diagonal_pair, sample_times,
                         standard_symbol_pair, subbundle_projection_loop,
                         topo_index, turn, vanishing_point_pair, winding)


def samples(fn, grid):
    return fn(sample_times(grid))


def test_winding_one_turn():
    assert winding(samples(lambda t: np.exp(4j * t), 64)) == 1


def test_winding_constant():
    assert winding(np.ones(64)) == 0


def test_winding_two_reverse_turns():
    assert winding(samples(lambda t: np.exp(-8j * t), 128)) == -2


def test_winding_grid_stability():
    for p in (-2, -1, 1, 2):
        coarse = winding(samples(lambda t: np.exp(4j * p * t), 64))
        fine = winding(samples(lambda t: np.exp(4j * p * t), 128))
        assert coarse == fine == p


def test_winding_rejects_small_modulus():
    for floor_breach in (0.01, np.nan):
        with pytest.raises(WindingError):
            winding(np.array([1.0, floor_breach, 1.0, 1.0]))


def test_winding_rejects_coarse_grid():
    with pytest.raises(WindingError):
        winding(samples(lambda t: np.exp(16j * t), 8))


def test_rotating_diagonal_pair_balanced():
    lp = rotating_diagonal_pair(turn(1), turn(0), default_gamma, 256)
    assert lp.max_pointwise_residual() <= 1e-10


def test_rotating_pair_equal_entries():
    lp = rotating_diagonal_pair(turn(2), turn(2), default_gamma, 128)
    assert np.allclose(lp.sigma1.samples, lp.sigma2.samples)


def test_rotating_pair_rejects_unimodular_violation():
    with pytest.raises(ConstraintError):
        rotating_diagonal_pair(lambda t: 0.9 * np.exp(4j * t), turn(0),
                               default_gamma, 64)


def test_rotating_pair_rejects_interior_unit_gamma():
    with pytest.raises(ConstraintError):
        rotating_diagonal_pair(turn(1), turn(0), lambda t: 1.0 + 0j, 64)


def test_rotating_pair_rejects_bad_endpoint():
    with pytest.raises(ConstraintError):
        rotating_diagonal_pair(lambda t: np.exp(1j * t), turn(0),
                               default_gamma, 64)


def test_det_of_canonical_loop_is_phase_ratio():
    lp = rotating_diagonal_pair(turn(1), turn(0), default_gamma, 256)
    dets = np.linalg.det(canonical_unitary_loop(lp).samples)
    expected = samples(lambda t: np.exp(4j * t), 256)  # conj(beta) * alpha
    assert np.abs(dets - expected).max() < 1e-12


def test_topo_index_flagship():
    sp = standard_symbol_pair(1, 0, 256)
    assert topo_index(sp) == -1


def test_topo_index_equal_pair():
    sp = standard_symbol_pair(2, 2, 128)
    assert topo_index(sp) == 0


def test_topo_index_sweep_matches_turn_difference():
    for p in (-2, 0, 2):
        for q in (-1, 1):
            sp = standard_symbol_pair(p, q, 512)
            assert topo_index(sp) == q - p


def test_topo_index_swap_negates():
    sp = standard_symbol_pair(1, 0, 256)
    swapped = SymbolPair(LoopPair(sp.plus.sigma2, sp.plus.sigma1), sp.minus)
    assert topo_index(swapped) == -topo_index(sp)


def test_topo_index_additive_under_direct_sum():
    sp1 = standard_symbol_pair(1, 0, 256)
    sp2 = standard_symbol_pair(-1, 1, 256)

    def block(x, y):
        grid, d = x.shape[0], x.shape[1]
        out = np.zeros((grid, 2 * d, 2 * d), dtype=complex)
        out[:, :d, :d] = x
        out[:, d:, d:] = y
        return out

    def dsum(lp1, lp2):
        return LoopPair(MatrixLoop(block(lp1.sigma1.samples, lp2.sigma1.samples)),
                        MatrixLoop(block(lp1.sigma2.samples, lp2.sigma2.samples)))

    combined = SymbolPair(dsum(sp1.plus, sp2.plus), dsum(sp1.minus, sp2.minus))
    assert topo_index(combined) == topo_index(sp1) + topo_index(sp2)


def test_vanishing_point_pair():
    lp = vanishing_point_pair(128)
    assert lp.max_pointwise_residual() <= 1e-12
    assert abs(lp.sigma1.samples[0][0, 0]) == 0.0
    assert abs(lp.sigma2.samples[0][0, 0]) == 0.0


def one_time_at_a_time(fn, grid):
    """The loop of fn called on each grid time as a Python float: the scalar
    reference that the builders, which evaluate on the whole grid at once,
    match bit for bit."""
    return np.array([np.atleast_2d(fn(float(t))) for t in sample_times(grid)],
                    dtype=np.complex128)


def reference_projection(t):
    window = RAMP_HALF_WIDTH
    lo = HALF_PI - window
    if not window <= t <= lo:
        x = (t - lo) / (2 * window) if t > lo else (t + window) / (2 * window)
        h00 = 3 * x * x - 2 * x ** 3
        h10 = x ** 3 - 2 * x * x + x
        h11 = x ** 3 - x * x
        t = lo + (np.pi + window - lo) * h00 + 2 * window * (h10 + h11)
    vec = np.array([np.cos(t), -np.sin(t)], dtype=np.complex128)
    return np.outer(vec, vec.conj())


def reference_vanishing_modulus(t):
    ramp = lambda z: z * z * (3 - 2 * z)
    return float(ramp(np.clip(t / (np.pi / 8), 0.0, 1.0))
                 * ramp(np.clip((HALF_PI - t) / (np.pi / 8), 0.0, 1.0)))


def reference_vanishing_phase(t):
    x = np.clip((t - np.pi / 8) / (3 * np.pi / 8 - np.pi / 8), 0.0, 1.0)
    return float(2 * np.pi * x * x * (3 - 2 * x))


@pytest.mark.parametrize("grid", [64, 1024, 4098])
def test_builders_match_their_scalar_reference_bit_for_bit(grid):
    split = subbundle_projection_loop(grid).samples
    vanishing = vanishing_point_pair(grid)
    references = (
        (split, reference_projection),
        (vanishing.sigma1.samples, lambda t: reference_vanishing_modulus(t)
         * np.exp(1j * reference_vanishing_phase(t))),
        (vanishing.sigma2.samples, lambda t: reference_vanishing_modulus(t) + 0j))
    for samples, fn in references:
        assert samples.tobytes() == one_time_at_a_time(fn, grid).tobytes()


def test_subbundle_projection_loop():
    loop = subbundle_projection_loop(512)
    for k in range(0, 512, 37):
        s = loop.samples[k]
        assert np.linalg.norm(s @ s - s, 2) < 1e-12
        assert np.linalg.norm(s - s.conj().T, 2) < 1e-12
    # continuity across the glued endpoint: every step, the one from the
    # last sample back to sample 0 included, is small
    steps = np.roll(loop.samples, -1, axis=0) - loop.samples
    assert max(np.linalg.norm(step, 2) for step in steps) < 0.2


def test_nan_samples_fail_the_balance_and_unitarity_gates():
    lp = standard_symbol_pair(1, 0, 64).plus
    nan = MatrixLoop(np.full_like(lp.sigma1.samples, np.nan))
    for pair in (LoopPair(nan, nan), LoopPair(lp.sigma1, nan)):
        with pytest.raises(ValueError, match="not pointwise balanced"):
            pair.validate(1e-10)
    with pytest.raises(NotUnitaryError):
        topo_index(SymbolPair(LoopPair(lp.sigma1, nan), lp))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_topo_index_rejects_one_non_finite_loop_object(bad):
    """A pair whose two members are one loop object has c = 1 without a
    product; a non-finite sample must still fail the unitarity gate."""
    lp = standard_symbol_pair(1, 0, 64).plus
    samples = lp.sigma1.samples.copy()
    samples[5, 0, 0] = bad
    loop = MatrixLoop(samples)
    for sp in (SymbolPair(LoopPair(loop, loop), LoopPair(loop, loop)),
               SymbolPair(lp, LoopPair(loop, loop))):
        with pytest.raises(NotUnitaryError, match="non-finite"):
            topo_index(sp)


def test_topo_index_rejects_a_finite_unbalanced_pair():
    """(1/2, 1) is finite but not balanced: its canonical loop c = 1/2 has
    unitarity defect |c*c - 1| = 3/4."""
    half, eye = (MatrixLoop.constant(x * np.eye(2), 64) for x in (0.5, 1.0))
    sp = SymbolPair(LoopPair(half, eye), LoopPair(eye, eye))
    with pytest.raises(NotUnitaryError, match="unitarity defect 7.500e-01"):
        topo_index(sp)


def test_loop_pair_shape_check():
    with pytest.raises(ShapeError):
        LoopPair(MatrixLoop.constant(np.eye(2), 16),
                 MatrixLoop.constant(np.eye(3), 16))
