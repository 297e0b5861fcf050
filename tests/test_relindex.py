"""Index engine oracles and the relative-index formulas."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balk1 import relindex
from balk1.errors import (FedosovResidueError, NotUnitaryError,
                          PipelineStageError, ShapeError)
from balk1.loops import (LoopPair, MatrixLoop, SymbolPair, default_gamma,
                         rotating_diagonal_pair, sample_times,
                         standard_split_symbol, standard_symbol_pair,
                         subbundle_projection_loop, turn)
from balk1.numkern import block_diag, random_unitary
from balk1.opmodel import (TailCutoff, TruncOp, clip_to_contraction,
                           kbalance_report, quantize, split_blocks,
                           splitting_projection, verify_block_estimates,
                           verify_split_blocks)
from balk1.relindex import engine_values, rel_index, verify_index_theorem
from dense_reference import reference_engine


def hardy_shift(n):
    """Honest rectangular compression of multiplication by one loop turn:
    modes 0..n-1 map into modes 0..n, the kernel is empty and the cokernel
    is the lowest basis vector."""
    m = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        m[k + 1, k] = 1.0
    return m


def one_block(f, w_dom=None, w_cod=None):
    """Both engines of the single block f, weighted by all ones on a side
    where no weights are given."""
    w_dom = np.ones(f.shape[1]) if w_dom is None else w_dom
    w_cod = np.ones(f.shape[0]) if w_cod is None else w_cod
    return engine_values([f], [w_dom], [w_cod])


@pytest.mark.parametrize("n", [64, 128])
def test_shift_oracle_both_engines(n):
    values = one_block(hardy_shift(n))
    assert values.svd == values.fedosov == -1 and values.residue < 1e-12


def test_unitary_instance_is_zero():
    values = one_block(random_unitary(24, 5))
    assert values.svd == values.fedosov == 0 and values.residue <= 1e-10


def test_self_adjoint_examples():
    # a Hermitian block has equal kernel and cokernel and equal defects, so
    # both engines read 0 with no shortcut
    assert one_block(np.diag([0.0, 1.0, 1.0])).svd == 0
    assert one_block(np.diag([0.0, 1.0])).fedosov == 0
    assert one_block(np.eye(5)).svd == 0
    values = one_block(np.zeros((0, 0), dtype=complex))
    assert values.svd == values.fedosov == 0


def test_hermitian_shortcut():
    # no engine screens Hermitian blocks any more: a nearly singular
    # Hermitian block must still read 0 from both engines on its own
    values = one_block(np.diag([1e-7, 0.5, 1.0]).astype(complex))
    assert values.svd == values.fedosov == 0


def test_fedosov_residue_error():
    f = hardy_shift(16)
    weights = np.ones(17)
    weights[0] = 0.5  # half-weighted cokernel direction
    with pytest.raises(FedosovResidueError) as err:
        one_block(f, w_cod=weights)
    assert err.value.residue == pytest.approx(0.5)


def test_fedosov_rejects_far_from_isometry():
    # non-Hermitian, so the defect guard is reached: singular values 2 give
    # defects 1 - 4 = -3
    with pytest.raises(ValueError):
        one_block(2.0 * hardy_shift(3))


def test_blocks_and_weights_must_pair_up():
    f = hardy_shift(4)
    with pytest.raises(ValueError):
        engine_values([f, f], [np.ones(4)], [np.ones(5)])


def test_index_rejects_a_negative_tail_cutoff_before_any_stage(monkeypatch):
    """A cutoff below 0 leaves the interior window empty, where every
    analytic integer reads 0; it is refused before anything is quantized."""
    def no_quantize(*args, **kwargs):
        raise AssertionError("quantized before rejecting the cutoff")

    monkeypatch.setattr(relindex, "quantize", no_quantize)
    with pytest.raises(ValueError, match="tail cutoff -5 must be at least 0"):
        verify_index_theorem(standard_symbol_pair(1, 0, 1024), 64,
                             split_symbol=standard_split_symbol(1024),
                             tail_cutoff=-5)


def test_count_gap_reports_the_cut_margin():
    f = random_unitary(3, 7) @ np.diag([1.0, 0.5, 1e-6])
    values = one_block(f)
    assert values.svd == values.fedosov == 0
    assert values.below == pytest.approx(1e-6, rel=1e-6)
    assert values.above == pytest.approx(0.5)
    assert values.count_gap == pytest.approx(5e5, rel=1e-6)
    # a Hermitian block is skipped and leaves no margin
    ones = [np.ones(2), np.ones(3)]
    assert engine_values([np.eye(2), f], ones, ones).count_gap == values.count_gap
    assert one_block(np.eye(2)).count_gap == np.inf


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(8, 40), st.integers(-3, 3), st.integers(0, 2 ** 32 - 1))
def test_adjoint_negates_the_index(n, shift, seed):
    """ind X* = -ind X from the same singular values: both engines flip
    sign, and the residue and the count gap stay, up to LAPACK rounding.
    X is a square truncated shift by ``shift`` modes plus a non-Hermitian
    perturbation of size 1e-6, in a random orthonormal basis, weighted by
    the Gram matrix of the lower half of the modes in that basis."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    basis = random_unitary(n, seed)
    x = basis @ (np.eye(n, k=-shift) + 1e-6 * noise) @ basis.conj().T
    gram = (basis * (np.arange(n) < n // 2)) @ basis.conj().T
    forward = one_block(x, gram, gram)
    adjoint = one_block(x.conj().T, gram, gram)
    assert forward.svd == forward.fedosov == -shift
    assert (adjoint.svd, adjoint.fedosov) == (shift, shift)
    assert adjoint.residue == pytest.approx(forward.residue, rel=0, abs=1e-12)
    assert adjoint.count_gap == pytest.approx(forward.count_gap, rel=1e-7)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(8, 32), st.integers(0, 3), st.integers(-3, 3),
       st.sampled_from([1e-6, 1e-3, 1e-2]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_trace_total_by_products_matches_the_svd_engine(n, extra, shift, noise,
                                                        gram, seed):
    """The trace engine's total is the product formula, formed here on its
    own: with D = 1 - F*F and E = 1 - FF*, sum_i w_i |D_i|^2 -
    sum_i w_i |E_i|^2 for mode weights, and Re tr(W D^2) - Re tr(W E^2)
    (two dense products) for Gram weights.  F is an (n + extra) x n
    truncated shift by ``shift`` modes plus a perturbation of size noise,
    weighted on the lower half of the modes; with Gram weights F and the
    windows are turned by random unitaries on either side."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f = np.eye(m, n, k=-shift) + noise * (rng.standard_normal((m, n))
                                          + 1j * rng.standard_normal((m, n)))
    w_dom = (np.arange(n) < n // 2).astype(float)
    w_cod = (np.arange(m) < n // 2).astype(float)
    d = np.eye(n) - f.conj().T @ f
    e = np.eye(m) - f @ f.conj().T
    if gram:
        u, v = random_unitary(m, seed), random_unitary(n, seed + 1)
        f, d, e = u @ f @ v.conj().T, v @ d @ v.conj().T, u @ e @ u.conj().T
        w_dom, w_cod = (v * w_dom) @ v.conj().T, (u * w_cod) @ u.conj().T
        total = np.trace(w_dom @ d @ d).real - np.trace(w_cod @ e @ e).real
    else:
        total = (w_dom @ np.sum(np.abs(d) ** 2, axis=1)
                 - w_cod @ np.sum(np.abs(e) ** 2, axis=1))
    ev = one_block(f, w_dom, w_cod)
    assert abs(abs(total - ev.fedosov) - ev.residue) <= 1e-9


def low_rank_defect_block(n, m, values, seed):
    """An m x n shift e_j -> e_(j+1), m <= n, whose columns are scaled by the
    values, at random positions taken in turn inside and outside the
    lower-half window, and turned by unitaries that are block diagonal at
    the window edge h = n // 2, so every singular vector lies on one side
    of it.  Its codomain defect has rank len(values) + 1 (e_0 is not hit),
    and its domain defect n - m more (the columns from m - 1 on are zero).
    With the lower-half window the index is -1: e_0 lies inside the window,
    the zero columns outside, and every scaled column inside the window
    adds one to both counts."""
    h = n // 2
    rng = np.random.default_rng(seed)
    shift = np.eye(m, n, k=-1, dtype=complex)
    inside, outside = rng.permutation(h - 1), rng.permutation(np.arange(h, m - 1))
    columns = np.ravel(np.column_stack([inside[:len(outside)], outside]))
    shift[:, columns[:len(values)]] *= values
    turn_dom = np.zeros((n, n), complex)
    turn_cod = np.zeros((m, m), complex)
    for turn, size in ((turn_dom, n), (turn_cod, m)):
        turn[:h, :h] = random_unitary(h, seed + 1)
        turn[h:, h:] = random_unitary(size - h, seed + 2)
    return (turn_cod @ shift @ turn_dom.conj().T,
            (np.arange(n) < h).astype(float), (np.arange(m) < h).astype(float))


@pytest.mark.parametrize("n, m, middle, width", [
    (300, 300, 12, 64),    # defect rank 16: the first sketch passes
    (520, 520, 100, 128),  # defect rank 104: the sketch is widened once
    (300, 297, 12, 64),    # non-square: the domain defect has 3 more
])
def test_sketch_path_matches_a_full_svd(n, m, middle, width, monkeypatch):
    """At n >= 256 the counting engine reads the block off the sketched
    defect ranges; its index, ``below`` and ``above`` match one full SVD
    to rel 1e-9, and the trace total matches the product formula."""
    values = [1e-4, 2e-4, 3e-4, *np.linspace(0.2, 0.9, middle)]
    f, w_dom, w_cod = low_rank_defect_block(n, m, values, seed=n + m)
    widths = []

    def recorded(defect):
        q = real_range(defect)
        widths.append(None if q is None else q.shape[1])
        return q

    real_range = relindex._defect_range
    monkeypatch.setattr(relindex, "_defect_range", recorded)
    ev = one_block(f, w_dom, w_cod)
    index, below, above, total = reference_engine(f, w_dom, w_cod)
    assert widths == [width, width]
    assert ev.svd == ev.fedosov == index == -1
    assert ev.below == pytest.approx(below, rel=1e-9) and below == pytest.approx(3e-4)
    assert ev.above == pytest.approx(above, rel=1e-9) and above == pytest.approx(0.2)
    assert abs(abs(total - ev.fedosov) - ev.residue) <= 1e-9


def test_a_range_the_sketch_cannot_hold_falls_back_to_one_full_svd(
        monkeypatch):
    """At n = 260 the sketch starts at width 64, which a domain defect of
    rank 151 fails; width 128 is more than a quarter of the size, so the
    range finder gives up, the codomain side is not sketched, and one full
    SVD of the block gives the counts, as in the dense reference."""
    values = [1e-4, 2e-4, 3e-4, *np.linspace(0.2, 0.9, 147)]
    f, w_dom, w_cod = low_rank_defect_block(260, 260, values, seed=11)
    ranges, svds = [], []
    real_range, real_svd = relindex._defect_range, relindex._counting_svd

    def recorded_range(defect):
        ranges.append(real_range(defect))
        return ranges[-1]

    def recorded_svd(x, full):
        svds.append((x.shape, full))
        return real_svd(x, full)

    monkeypatch.setattr(relindex, "_defect_range", recorded_range)
    monkeypatch.setattr(relindex, "_counting_svd", recorded_svd)
    ev = one_block(f, w_dom, w_cod)
    index, below, above, total = reference_engine(f, w_dom, w_cod)
    assert ranges == [None] and svds == [((260, 260), True)]
    assert ev.svd == ev.fedosov == index == round(total) == -1
    assert (ev.below, ev.above) == (below, above)
    assert abs(abs(total - ev.fedosov) - ev.residue) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_count_does_not_depend_on_the_null_basis(seed):
    """The 303 x 300 shift e_j -> e_(j+1), turned by unitaries that are
    block diagonal at the window edge 150, has a three-dimensional
    cokernel: one direction inside the lower-half window and two outside.
    The SVD returns some basis of that null space, whose vectors each carry
    less than half their mass inside the window on seeds 0, 3 and 4; the
    weight compressed to the null space still has one eigenvalue 1, so the
    count is -1 on every seed, as the trace engine's and the dense
    reference's."""
    turn_cod = block_diag(random_unitary(150, seed), random_unitary(153, seed + 100))
    turn_dom = block_diag(random_unitary(150, seed + 200),
                          random_unitary(150, seed + 300))
    f = turn_cod @ np.eye(303, 300, k=-1) @ turn_dom
    w_dom = (np.arange(300) < 150).astype(float)
    w_cod = (np.arange(303) < 150).astype(float)
    ev = one_block(f, w_dom, w_cod)
    index, below, _, total = reference_engine(f, w_dom, w_cod)
    assert (ev.svd, ev.fedosov) == (index, round(total)) == (-1, -1)
    assert ev.below == pytest.approx(below, abs=1e-12)


def test_engines_share_no_decomposition(flagship, monkeypatch):
    """Exchanging the most contracted right singular vector with the first
    in the counting engine's SVD changes its count but not the trace
    engine's total, so the two engines of ``rel_index`` disagree.  On the
    sketch path the first vector (singular value 1.2) lies inside the
    window and the last (the zero column) outside, so the count moves by
    one."""
    _, d1, d2, split, cut, _ = flagship
    real_svd = relindex._counting_svd

    def permuted(x, full):
        u, s, vh = real_svd(x, full)
        return u, s, vh[np.r_[len(vh) - 1, 1:len(vh) - 1, 0]]

    records = split_blocks(d1, d2, split, cut)
    ev = rel_index(d1, d2, cut, "definition-A", records)
    assert ev.svd == ev.fedosov
    monkeypatch.setattr(relindex, "_counting_svd", permuted)
    ev = rel_index(d1, d2, cut, "definition-A", records)
    assert ev.svd != ev.fedosov and ev.fedosov == -1
    f, w_dom, w_cod = low_rank_defect_block(300, 300, [1.2, 1e-4], seed=3)
    ev = one_block(f, w_dom, w_cod)
    assert (ev.svd, ev.fedosov) == (0, -1)


def test_interior_weights_discard_edge_artifacts():
    # square truncated shift: raw counts cancel, weighted counts see only
    # the genuine cokernel at the bottom mode
    n = 32
    square = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n):
        square[k + 1, k] = 1.0
    interior = (np.arange(n + 1) <= n // 2).astype(float)
    values = one_block(square, interior, interior)
    assert values.svd == values.fedosov == -1
    gram = np.diag(interior)  # the same window as a Gram matrix
    from_gram = one_block(square, gram, gram)
    assert from_gram.svd == from_gram.fedosov == -1
    assert from_gram.residue == pytest.approx(values.residue, abs=1e-12)


@pytest.fixture(scope="module")
def flagship():
    grid = 1024
    sp = standard_symbol_pair(1, 0, grid)
    split_sym = standard_split_symbol(grid)
    d1, d2 = clip_to_contraction(*quantize(sp, 64))
    split = splitting_projection(sp, 64, explicit_symbol=split_sym)
    return sp, d1, d2, split, TailCutoff(32), split_sym


def signed_indices(d1, d2, split, cut):
    """Each formula's index from ``rel_index``, once both engines agree on it."""
    records = split_blocks(d1, d2, split, cut)
    values = {f: rel_index(d1, d2, cut, f, records) for f in relindex._FORMULAS}
    assert all(ev.svd == ev.fedosov for ev in values.values()), values
    return {f: ev.svd for f, ev in values.items()}


def test_rel_index_formulas_agree(flagship):
    _, d1, d2, split, cut, _ = flagship
    assert set(signed_indices(d1, d2, split, cut).values()) == {-1}


def test_rel_index_equal_pair(flagship):
    _, d1, _, split, cut, _ = flagship
    assert set(signed_indices(d1, d1, split, cut).values()) == {0}


def test_rel_index_antisymmetric(flagship):
    _, d1, d2, split, cut, _ = flagship
    assert set(signed_indices(d2, d1, split, cut).values()) == {1}


def test_rel_index_global_rejects_operators_of_two_sizes(flagship):
    sp, d1, _, _, cut, _ = flagship
    _, wide = quantize(sp, 128)
    with pytest.raises(ShapeError, match="share modes and dimension"):
        rel_index(d1, wide, cut, "global")


def test_rel_index_rejects_an_unknown_formula_or_missing_records(flagship):
    _, d1, d2, split, cut, _ = flagship
    records = split_blocks(d1, d2, split, cut)
    for name in ("A", "definition-C", None):
        with pytest.raises(ValueError, match="unknown formula"):
            rel_index(d1, d2, cut, name, records)
    for formula in ("definition-A", "definition-B", "corner"):
        with pytest.raises(ValueError, match="reads the split records"):
            rel_index(d1, d2, cut, formula)


@pytest.mark.parametrize("gamma", [
    default_gamma,
    lambda t: 1.0 - np.sin(2.0 * t),  # vanishes at t = pi/4
    lambda t: np.cos(2.0 * t) ** 2,   # vanishes at t = pi/4
], ids=["default_gamma", "one_minus_sin_2t", "cos_squared_2t"])
def test_verify_index_theorem_flagship(gamma):
    """The index holds for non-elliptic symbols too: where gamma vanishes
    the pair is not invertible."""
    grid = 1024
    sp = standard_symbol_pair(1, 0, grid, gamma)
    report = verify_index_theorem(sp, 64, split_symbol=standard_split_symbol(grid))
    assert report.verdict
    assert report.analytic_svd == report.analytic_fedosov == -1
    assert report.topological == -1
    for formula, engines in report.details.items():
        for engine, series in engines.items():
            assert set(series.values()) == {-1}, (formula, engine)
    # the k-balance diagnostic is read at the pipeline's cutoff N/2
    for n in (64, 128):
        d1, d2 = clip_to_contraction(*quantize(sp, n))
        kb = kbalance_report(d1, d2, TailCutoff(n // 2))
        assert kb.populated
        assert report.residuals[f"kbalance_worst_N{n}"] == kb.worst() > 0
        assert report.residuals[f"count_gap_N{n}"] > 100
        assert report.residuals[f"measured_eps_N{n}"] < 0.1


def winding_direction(turns, grid):
    """A rotating diagonal pair and its splitting symbol, or the identity
    pair with the zero splitting symbol when ``turns`` is None."""
    if turns is None:
        eye = MatrixLoop.constant(np.eye(2), grid)
        return LoopPair(eye, eye), MatrixLoop.constant(np.zeros((2, 2)), grid)
    return (rotating_diagonal_pair(turn(turns[0]), turn(turns[1]),
                                   default_gamma, grid),
            subbundle_projection_loop(grid))


@pytest.mark.parametrize("plus, minus, expected", [
    (None, (1, 0), 1),      # only the minus direction winds
    ((1, 0), (0, 1), -2),   # both directions wind
])
def test_verify_index_theorem_winding_families(plus, minus, expected):
    grid, modes = 1024, 64
    (plus_pair, plus_split), (minus_pair, minus_split) = (
        winding_direction(plus, grid), winding_direction(minus, grid))
    report = verify_index_theorem(SymbolPair(plus_pair, minus_pair), modes,
                                  split_symbol=(plus_split, minus_split))
    values = [report.details[f][e][n] for f in report.details
              for e in ("svd", "fedosov") for n in (modes, 2 * modes)]
    assert report.verdict and report.topological == expected
    assert len(values) == 16 and set(values) == {expected}


def conjugated_pair(p, q, gamma, grid=1024):
    """A trigonometric-polynomial family whose split is exact, from samples:
    with z = e^{4it} and the rotation R = R(4t), a loop that closes up, the
    + direction carries (R* diag(z^p, gamma) R, R* diag(z^q, gamma) R) and
    the - direction the identity.  Its split symbol is (R* e1 e1* R, 0): the
    difference lies in the range of R* e1 e1* R and every defect in its
    complement, pointwise and exactly."""
    t = sample_times(grid)
    z, c, s = np.exp(4j * t), np.cos(4 * t), np.sin(4 * t)
    r = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    rh = r.conj().transpose(0, 2, 1)
    g = gamma(4 * t)

    def conjugated(alpha):
        diag = np.zeros((grid, 2, 2), dtype=np.complex128)
        diag[:, 0, 0], diag[:, 1, 1] = alpha, g
        return MatrixLoop(rh @ diag @ r)

    eye = MatrixLoop.constant(np.eye(2), grid)
    sp = SymbolPair(LoopPair(conjugated(z ** p), conjugated(z ** q)),
                    LoopPair(eye, eye))
    split = (MatrixLoop(rh[:, :, :1] @ r[:, :1, :]),
             MatrixLoop.constant(np.zeros((2, 2)), grid))
    return sp, split


@pytest.mark.parametrize("gamma", [lambda tau: (3 + np.cos(tau)) / 4,
                                   lambda tau: (1 + np.cos(tau)) / 2],
                         ids=["elliptic", "vanishing-at-pi-over-4"])
@pytest.mark.parametrize("pq", [(1, 0), (2, 1), (1, -1), (2, -2), (0, 2),
                                (-2, 1)], ids=lambda pq: "%d,%d" % pq)
@pytest.mark.usefixtures("forbid_decomposition")
def test_verify_index_theorem_conjugated_family(pq, gamma):
    """On a second family, whose split is exact, every integer is q - p,
    the split and corner checks pass with a measured eps at rounding level,
    the pair is balanced modulo tails, and clipping certifies every block
    by its bound without decomposing it."""
    modes = 64
    sp, split_symbol = conjugated_pair(*pq, gamma)
    expected = pq[1] - pq[0]
    report = verify_index_theorem(sp, modes, split_symbol=split_symbol)
    values = [report.details[f][e][n] for f in report.details
              for e in ("svd", "fedosov") for n in (modes, 2 * modes)]
    assert report.verdict and report.topological == expected
    assert len(values) == 16 and set(values) == {expected}
    for n in (modes, 2 * modes):
        assert report.residuals[f"measured_eps_N{n}"] < 1e-12
        d1, d2 = quantize(sp, n)
        assert clip_to_contraction(d1, d2) == (d1, d2)
        split = splitting_projection(sp, n, split_symbol)
        cut = TailCutoff(n // 2)
        assert verify_split_blocks(d1, d2, split, cut, relindex.SPLIT_EPS).passed
        assert verify_block_estimates(d1, d2, split, cut,
                                      relindex.SPLIT_EPS).passed
        assert kbalance_report(d1, d2, cut).verdict


def test_verify_index_theorem_equal_symbols():
    grid = 1024
    sp = standard_symbol_pair(1, 1, grid)
    report = verify_index_theorem(sp, 64, split_symbol=standard_split_symbol(grid))
    assert report.verdict
    assert report.analytic_svd == report.topological == 0


@pytest.mark.parametrize("pq", [(1, 0), (1, 1)], ids=["p-ne-q", "p-eq-q"])
def test_global_candidate_leaves_out_shared_blocks(pq, monkeypatch):
    """A half-line where both operators hold one block object adds the
    identity to the global candidate, so it is left out; with every block
    copied apart, the 16 integers and the global unitarity defects are the
    same."""
    grid, modes = 1024, 64
    sp = standard_symbol_pair(*pq, grid)
    split_sym = standard_split_symbol(grid)

    def unshared(sp, n):
        a, b = quantize(sp, n)
        return a, TruncOp(n, b.dim, tuple(blk.copy() for blk in b.blocks))

    cut = TailCutoff(modes // 2)
    kept = 1 if pq[0] != pq[1] else 0
    _, blocks, weights = relindex._candidate(*quantize(sp, modes), cut, "global")
    assert len(blocks) == len(weights) == kept
    _, blocks, _ = relindex._candidate(*unshared(sp, modes), cut, "global")
    assert len(blocks) == 2
    report = verify_index_theorem(sp, modes, split_symbol=split_sym)
    monkeypatch.setattr(relindex, "quantize", unshared)
    full = verify_index_theorem(sp, modes, split_symbol=split_sym)
    assert report.verdict and full.details == report.details
    for n in (modes, 2 * modes):
        key = f"global_unitarity_defect_N{n}"
        assert full.residuals[key] == report.residuals[key]


@pytest.mark.parametrize("pq", [(1, 1), (1, 0)], ids=["p-eq-q", "p-ne-q"])
def test_no_coinciding_block_reaches_an_engine(pq, monkeypatch):
    """Where a and b hold one block object, every formula leaves that
    half-line out: for (1, 1) no call of ``engine_values`` gets a block, and
    for (1, 0) every call gets only the + half-line block, of the split's
    rank there for definition-A and the corner formula and of the full
    half-line for the global formula."""
    grid, modes = 1024, 64
    sp = standard_symbol_pair(*pq, grid)
    split_sym = standard_split_symbol(grid)
    seen = []
    real = relindex.engine_values

    def recorder(blocks, domain_weights, codomain_weights):
        seen.append([np.shape(b) for b in blocks])
        return real(blocks, domain_weights, codomain_weights)

    monkeypatch.setattr(relindex, "engine_values", recorder)
    report = verify_index_theorem(sp, modes, split_symbol=split_sym)
    assert report.verdict
    expected = []
    for n in (modes, 2 * modes):
        rank = splitting_projection(sp, n, split_sym).blocks[1][0].shape[1]
        size = 2 * (n + 1)  # the + half-line: modes 0..n of C^2
        if pq == (1, 1):
            expected += [[], [], []]
        else:  # definition-A, corner, global
            expected += [[(rank, rank)], [(rank, rank)], [(size, size)]]
    assert seen == expected


def test_index_item_keeps_few_blocks_alive():
    """One mode count and one Fredholm candidate are alive at a time: the
    traced peak of an item with shared splits is measured in 2N + half-line
    blocks (258 x 258 complex at N = 64).  It reads 6.8 blocks, reached in
    the split check at 2N; keeping both mode counts, every candidate and the
    identity candidate of the shared - block alive read 11.0."""
    grid, modes = 1024, 64
    sp = standard_symbol_pair(1, 0, grid)
    split_sym = standard_split_symbol(grid)
    splits = {n: splitting_projection(sp, n, explicit_symbol=split_sym)
              for n in (modes, 2 * modes)}
    verify_index_theorem(sp, modes, splits=splits)  # first-call allocations
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        report = verify_index_theorem(sp, modes, splits=splits)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    block = 16 * (2 * (2 * modes + 1)) ** 2
    assert report.verdict
    assert peak <= 8.5 * block, peak / block


def test_verify_index_theorem_needs_a_split():
    grid = 1024
    sp = standard_symbol_pair(1, 1, grid)
    with pytest.raises(PipelineStageError) as err:
        verify_index_theorem(sp, 64)
    assert err.value.stage == "splitting_projection"
    assert "splits[64]" in str(err.value) and "split_symbol" in str(err.value)


def test_split_at_another_mode_count_fails_at_its_stage():
    grid = 1024
    sp = standard_symbol_pair(1, 0, grid)
    split_sym = standard_split_symbol(grid)
    coarse = splitting_projection(sp, 32, explicit_symbol=split_sym)
    splits = {64: coarse,
              128: splitting_projection(sp, 128, explicit_symbol=split_sym)}
    with pytest.raises(PipelineStageError) as err:
        verify_index_theorem(sp, 64, splits=splits)
    assert err.value.stage == "verify_split_blocks"
    assert isinstance(err.value.cause, ShapeError)
    assert str(coarse.sizes) in str(err.value) and "(128, 130)" in str(err.value)


def test_an_unbalanced_pair_fails_at_topo_index():
    """The winding index is the first stage: a finite pair whose canonical
    loop is not unitary fails there, before anything is quantized."""
    grid = 1024
    half, eye = (MatrixLoop.constant(x * np.eye(2), grid) for x in (0.5, 1.0))
    sp = SymbolPair(LoopPair(half, eye), LoopPair(eye, eye))
    with pytest.raises(PipelineStageError) as err:
        verify_index_theorem(sp, 64, split_symbol=standard_split_symbol(grid))
    assert err.value.stage == "topo_index"
    assert isinstance(err.value.cause, NotUnitaryError)


def test_pipeline_attributes_stage_failures():
    coarse_grid = 128  # cannot supply the lags needed at 64 doubled modes
    sp = standard_symbol_pair(1, 0, coarse_grid)
    with pytest.raises(PipelineStageError) as err:
        verify_index_theorem(sp, 64)
    assert err.value.stage == "quantize"
