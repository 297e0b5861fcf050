"""Fredholm index engines and the relative index of operator pairs.

``engine_values`` reads the index of a near-isometric Fredholm candidate F,
given by its diagonal blocks, in two ways that share no decomposition, both
weighted by the interior window:

* the counting engine compares the numbers of near-null directions of F and
  of F* (singular value below ``INCLUSIVE_THRESHOLD``); on a square
  truncation the raw counts always agree, so only directions carried by the
  interior modes count (truncation-edge artifacts localize at the cut and
  are discarded).  It finds them by thin SVDs of F and F* on the ranges of
  the defects 1 - F*F and 1 - FF*, which a fixed-seed randomized sketch
  captures to a certified residual ``SKETCH_TOLERANCE`` (one full SVD of a
  block too small for the sketch);
* the trace engine evaluates tr (1-F*F)^2 - tr (1-FF*)^2 over the same
  interior window straight from the two defect products, and rounds to the
  nearest integer, reporting the distance as a residue.

The relative index of a pair (A, B) against a splitting projection follows
the three equivalent recipes: the defining difference
ind(C* A|H1) - ind(C* B|H1) for the comparison operator C = A|H1 or
C = B|H1, the corner formula ind(1 + B1*(A1 - B1)) on H1, and the global
formula ind(1 + B*(A - B)) on the whole truncated space.  ``rel_index``
reads both engines' signed values for any one of them; one builder forms
the candidate operators of every recipe, block by block over the half-lines
of the operator model (the index of a block-diagonal candidate is the sum
of its block indices), from the split records of ``opmodel.split_blocks``.
For C = A|H1 or C = B|H1 the term C*C is Hermitian, so its index is 0, and
the two terms left, (AV)*(BV) and (BV)*(AV), are adjoints of each other:
since ind X* = -ind X from the same singular values, the pipeline reads
definition-B off definition-A's engine values, and only
``rel_index(..., "definition-B", records)`` forms (BV)*(AV).  Both choices
of C are admissible when the split meets the six corner estimates of
``opmodel.verify_block_estimates``.  ``verify_index_theorem`` runs the full
pipeline at a mode count and its double and checks every formula and engine
against the winding-number index of the symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .balanced import canonical_unitary
from .errors import FedosovResidueError, PipelineStageError
from .loops import SplitSymbol, SymbolPair, topo_index
from .numkern import Array, opnorm
from .opmodel import (ModeSplit, SplitBlock, TailCutoff, TruncOp,
                      check_same_shape, clip_to_contraction, kbalance_report,
                      quantize, splitting_projection, verify_split_blocks)

Weights = np.ndarray  # 1-d mode weights or PSD Gram matrix


INCLUSIVE_THRESHOLD = 1e-3  # the counting cut: near-null below it
RESIDUE_CEILING = 0.2  # largest trace-formula distance from an integer
SKETCH_WIDTH = 64  # first width of the defect range finder
SKETCH_TOLERANCE = 1e-10  # delta: the Frobenius norm a defect range may leave out
SKETCH_SEED = 2011  # the range finder's test matrices are the same in every run
SPLIT_EPS = 0.1  # eps of the split decomposition the pipeline verifies


def _interior_count(vectors: Array, weights: Weights) -> int:
    """The number of eigenvalues >= 1/2 of X*WX, the interior weight
    compressed to the span of the orthonormal columns X: how many
    directions of that span the interior window carries at least half of.
    It depends on the span only, not on the basis an SVD returns for it."""
    image = weights[:, None] * vectors if weights.ndim == 1 else weights @ vectors
    return int(np.sum(np.linalg.eigvalsh(vectors.conj().T @ image) >= 0.5))


def _defect(f: Array, adjoint: Array, domain: bool) -> Array:
    """1 - F*F (on the domain) or 1 - FF* (on the codomain), formed in the
    product's own storage."""
    defect = adjoint @ f if domain else f @ adjoint
    np.negative(defect, out=defect)
    defect.reshape(-1)[::defect.shape[0] + 1] += 1.0
    return defect


def _weighted_trace(x: Array, weights: Weights) -> float:
    """Re tr(W X^2) of a Hermitian X, without forming X^2:
    tr(WXX) = sum_ij (WX)_ij conj(X_ij).  W is mode weights or a Gram
    matrix."""
    if weights.ndim == 1:
        return float(weights @ (np.einsum("ij,ij->i", x.real, x.real)
                                + np.einsum("ij,ij->i", x.imag, x.imag)))
    return float(np.vdot(x, weights @ x).real)


def _left_out(x: Array, q: Array) -> float:
    """|(1 - QQ*) X|_F, formed a block of columns at a time."""
    qh, width = q.conj().T, q.shape[1]
    square = 0.0
    for start in range(0, x.shape[1], width):
        cols = x[:, start:start + width]
        rest = cols - q @ (qh @ cols)
        square += float(np.vdot(rest, rest).real)
    return math.sqrt(square)


def _defect_range(defect: Array) -> Optional[Array]:
    """An orthonormal basis Q of the numerical range of a Hermitian defect
    X, with |(1 - QQ*) X|_F <= ``SKETCH_TOLERANCE``: the range of X times a
    fixed-seed complex Gaussian test matrix (Halko, Martinsson & Tropp,
    SIAM Review 53, 2011), starting at ``SKETCH_WIDTH`` columns and doubled
    until the residual passes.  None once 4 * width exceeds the size."""
    n = defect.shape[0]
    rng = np.random.default_rng(SKETCH_SEED)
    width = SKETCH_WIDTH
    while 4 * width <= n:
        test = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
        q = np.linalg.qr(defect @ test)[0]
        if _left_out(defect, q) <= SKETCH_TOLERANCE:
            return q
        width *= 2
    return None


def _counting_svd(x: Array, full: bool) -> Tuple[Array, np.ndarray, Array]:
    """The counting engine's decompositions; the trace engine takes none."""
    return np.linalg.svd(x, full_matrices=full)


def _near_null(f: Array, adjoint: Array, ranges: Optional[Tuple[Array, Array]]
               ) -> Tuple[np.ndarray, Array, Array, float]:
    """The counting engine's view of one block: the singular values of F read
    on the domain side, the near-null domain and codomain singular vectors
    (singular value below ``INCLUSIVE_THRESHOLD``) as columns, and the value
    ``above`` takes when no singular value at or above the cut is read.

    With the defect ranges (Q_R, Q_L), the values and vectors come from
    thin SVDs of F Q_R and F* Q_L; every singular value left out has
    |1 - s^2| <= 2 ``SKETCH_TOLERANCE`` (see ``engine_values``), so 1 bounds
    ``above``.  Without them one full SVD of F gives both sides."""
    if ranges is not None:
        q_dom, q_cod = ranges
        _, s, zh = _counting_svd(f @ q_dom, False)
        _, s_cod, yh = _counting_svd(adjoint @ q_cod, False)
        rank = int(np.sum(s >= INCLUSIVE_THRESHOLD))
        rank_cod = int(np.sum(s_cod >= INCLUSIVE_THRESHOLD))
        return (s, q_dom @ zh[rank:].conj().T, q_cod @ yh[rank_cod:].conj().T,
                1.0)
    u, s, vh = _counting_svd(f, True)
    rank = int(np.sum(s >= INCLUSIVE_THRESHOLD))
    return s, vh[rank:].conj().T, u[:, rank:], math.inf


@dataclass
class EngineValues:
    """Both engines' indices, the trace residue, and the singular values
    nearest the counting cut: the largest below it (0 when none) and the
    smallest at or above it (infinite when none)."""

    svd: int
    fedosov: int
    residue: float
    below: float
    above: float

    @property
    def count_gap(self) -> float:
        """Ratio of the singular values on either side of the counting cut;
        infinite when either side is empty."""
        return self.above / self.below if self.below > 0 else math.inf


def engine_values(blocks: Sequence[Array], domain_weights: Sequence[Weights],
                  codomain_weights: Sequence[Weights]) -> EngineValues:
    """Both index engines, reading no decomposition in common.

    F is given by the diagonal blocks of a block-diagonal operator, each
    with its interior weights on the domain and on the codomain side.  The
    index of a block-diagonal operator is the sum of the block indices, so
    counts and trace totals are summed over the blocks before the trace
    total is rounded.  Each block's defects D = 1 - F*F and E = 1 - FF*
    are formed by two products.

    The trace engine evaluates Re tr(W_dom D^2) - Re tr(W_cod E^2) straight
    off D and E, W being the interior weights, and rounds it to the nearest
    integer; the distance is the residue, which must stay below
    ``RESIDUE_CEILING``.

    The counting engine takes dim ker - dim coker over the singular
    directions below ``INCLUSIVE_THRESHOLD``, counting on each side the
    eigenvalues >= 1/2 of the interior weight compressed to their span
    (``_interior_count``), so a degenerate near-null space that straddles
    the window counts alike in every basis.  The cut is inclusive and
    loose: every strongly contracted direction joins both counts, which is
    harmless for index differences as long as its left and right vectors
    classify alike; the pipeline cross-checks every such count against the
    trace engine, the other index formulas and the doubled truncation, so a
    misclassification cannot pass silently, and it records the singular
    values on either side of the cut (``count_gap``).  The counting engine
    reads the near-null directions off the ranges of D and E, not off a
    full SVD:

    * Q_R and Q_L are orthonormal ranges of D and E found by a fixed-seed
      sketch (``_defect_range``): width ``SKETCH_WIDTH``, doubled until
      |(1 - QQ*)X|_F <= delta = ``SKETCH_TOLERANCE``.  The near-isometric
      candidates of the pipeline are unitary plus low rank (30-52 values
      of |1 - s^2| above 1e-12 at sizes 258 and 514), so width 64 passes.
    * Thin SVDs of F Q_R and F* Q_L give the singular values and the
      near-null domain and codomain vectors.
    * Once 4 * width exceeds the smaller side of F, one full SVD of F gives
      both.

    Why nothing the engine reads is lost: write P = QQ* for the domain side
    (the codomain side is the same with E).  D - PDP = (1 - P)D + PD(1 - P)
    has norm at most 2 delta, so by Weyl's inequality the eigenvalues
    1 - s^2 of D are within 2 delta of those of PDP, which are 0 on the
    range of 1 - P and 1 - rho^2 for the singular values rho of FQ.  So
    every singular value left out has |1 - s^2| <= 2 delta: it is at least
    sqrt(1 - 2 delta), far above the cut, is not near-null, and moves
    ``above`` by at most about delta.  A near-null direction x has
    Dx = (1 - s^2)x with 1 - s^2 >= 1 - t^2 at the cut t, so
    |(1 - P)x| <= delta / (1 - t^2): every near-null vector lies within
    about delta of the captured range, its Ritz vector within about delta
    of it, and the compressed weight within about delta of its own.  By
    Cauchy interlacing each near-null Ritz value is at least the true
    value and at most about delta above it.  The check is a posteriori: a
    sketch that misses part of a range fails its residual and is widened.

    Every block given is decomposed: the relative-index candidates leave
    out beforehand the half-lines where a block's index is 0 by
    construction (``_kept``).
    """
    kernel = cokernel = 0
    total, below, above = 0.0, 0.0, math.inf
    for block, dom_w, cod_w in zip(blocks, domain_weights, codomain_weights,
                                   strict=True):
        block = np.asarray(block, dtype=np.complex128)
        adjoint = block.conj().T
        ranges = []
        use_sketch = 4 * SKETCH_WIDTH <= min(block.shape)
        for domain, weights, sign in ((True, dom_w, 1.0), (False, cod_w, -1.0)):
            defect = _defect(block, adjoint, domain)
            total += sign * _weighted_trace(defect, weights)
            if use_sketch:
                ranges.append(_defect_range(defect))
                use_sketch = ranges[-1] is not None
            del defect  # freed before the next product is formed
        s, kernel_vectors, cokernel_vectors, ceiling = _near_null(
            block, adjoint, tuple(ranges) if use_sketch else None)
        max_defect = float(np.max(np.abs(1.0 - s ** 2), initial=0.0))
        if max_defect > 1.2:
            raise ValueError(
                f"defect norm {max_defect:.3f} exceeds 1.2: candidate is too "
                "far from an isometry for the trace formula")
        kernel += _interior_count(kernel_vectors, dom_w)
        cokernel += _interior_count(cokernel_vectors, cod_w)
        near_null = s < INCLUSIVE_THRESHOLD
        below = max(below, float(s[near_null].max(initial=0.0)))
        above = min(above, float(s[~near_null].min(initial=ceiling)))
    nearest = int(np.rint(total))
    residue = abs(total - nearest)
    if residue >= RESIDUE_CEILING:
        raise FedosovResidueError(
            f"trace formula output {total:.4f} has residue {residue:.3f} "
            f">= {RESIDUE_CEILING}", residue)
    return EngineValues(kernel - cokernel, nearest, residue, below, above)


# -- relative index ------------------------------------------------------------


_FORMULAS = ("definition-A", "definition-B", "corner", "global")

# sign, the half-line blocks of a Fredholm candidate, and their weights
Candidate = Tuple[int, Tuple[Array, ...], Tuple[Weights, ...]]


def _kept(a: TruncOp, b: TruncOp) -> List[int]:
    """The half-lines where a and b hold different block objects.  Where
    they hold one (see ``opmodel.quantize``), a - b is exactly zero, so
    every formula's candidate there is the identity or, for the two
    definitions, Hermitian, and adds 0 to both engines."""
    check_same_shape(a, b)
    return [k for k, (am, bm) in enumerate(zip(a.blocks, b.blocks))
            if am is not bm]


def _candidate(a: TruncOp, b: TruncOp, cut: TailCutoff, formula: str,
               records: Optional[List[SplitBlock]] = None) -> Candidate:
    """The signed Fredholm candidate of one relative-index formula, one
    block per kept half-line (``_kept``), with the interior weights its
    engines count against.

    The formula's index is the sign times the candidate's index.
    ``definition-A`` and ``definition-B`` compare through C = A|H1 and
    C = B|H1.  Their C*C term is Hermitian, so its index is 0 and it is not
    formed: definition-A is -ind((AV)*(BV)) and definition-B is
    ind((BV)*(AV)).  Every formula but ``global`` reads the split records.
    Every formula leaves out the half-lines where a and b hold one block
    object, so no engine decomposes a block of index 0 known in advance.
    """
    kept = _kept(a, b)
    if formula == "global":
        interior = cut.interior_weights(a.modes, a.dim)
        return (1, tuple(canonical_unitary(a.blocks[k], b.blocks[k])
                         for k in kept),
                tuple(interior[k] for k in kept))
    records = [records[k] for k in kept]
    grams = tuple(d.h1_gram for d in records)
    if formula == "corner":
        return 1, tuple(canonical_unitary(d.a1, d.b1) for d in records), grams
    if formula == "definition-A":
        return -1, tuple(d.av.conj().T @ d.bv for d in records), grams
    return 1, tuple(d.bv.conj().T @ d.av for d in records), grams


def _signed_values(candidate: Candidate) -> EngineValues:
    """Both engines' values of one formula's candidate, the indices signed
    by the formula."""
    sign, blocks, weights = candidate
    ev = engine_values(blocks, weights, weights)
    return replace(ev, svd=sign * ev.svd, fedosov=sign * ev.fedosov)


def rel_index(a: TruncOp, b: TruncOp, cut: TailCutoff, formula: str,
              records: Optional[List[SplitBlock]] = None) -> EngineValues:
    """Both engines' signed values of one relative-index formula, a name in
    ``_FORMULAS``, counted against the interior window of ``cut``.  Every
    formula but ``global`` reads the split records of a, b and the split
    (``opmodel.split_blocks``)."""
    if formula not in _FORMULAS:
        raise ValueError(f"unknown formula {formula!r}: expected one of "
                         f"{', '.join(_FORMULAS)}")
    if records is None and formula != "global":
        raise ValueError(f"formula {formula!r} reads the split records")
    return _signed_values(_candidate(a, b, cut, formula, records))


# -- the index-theorem pipeline ---------------------------------------------------


@dataclass
class IndexReport:
    """Analytic and topological indices with the supporting diagnostics."""

    analytic_svd: int
    analytic_fedosov: int
    topological: int
    residuals: Dict[str, float]
    verdict: bool
    details: Dict[str, Dict[str, Dict[int, int]]]


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _mode_count(sp: SymbolPair, n: int, cut: TailCutoff,
                split_symbol: Optional[SplitSymbol],
                splits: Optional[Dict[int, ModeSplit]],
                residuals: Dict[str, float]) -> Dict[str, EngineValues]:
    """The pipeline at one mode count: its residuals go into ``residuals``
    in report order, and every formula's signed engine values are returned.

    Everything dense is a local of this call, and one Fredholm candidate is
    alive at a time: corner and definition-A read the split records, so
    they run first; then the records and both operators are dropped, and
    only the global candidate is alive when its engines run.
    """
    d1, d2 = _stage("quantize", quantize, sp, n)
    d1, d2 = _stage("clip_to_contraction", clip_to_contraction, d1, d2)
    kb = _stage("kbalance", kbalance_report, d1, d2, cut)
    if splits is not None and n in splits:
        split = splits[n]
    elif split_symbol is None:
        raise PipelineStageError("splitting_projection", ValueError(
            f"no split at N = {n}: pass splits[{n}] or split_symbol"))
    else:
        split = _stage("splitting_projection", splitting_projection,
                       sp, n, split_symbol)
    blocks = _stage("verify_split_blocks", verify_split_blocks,
                    d1, d2, split, cut, SPLIT_EPS)
    evs = {f: _stage(f"fredholm_index[{f}]", rel_index, d1, d2, cut, f,
                     blocks.records)
           for f in ("definition-A", "corner")}
    measured = blocks.max_measured
    del blocks
    global_ = _candidate(d1, d2, cut, "global")
    masks = cut.band_masks(n, d1.dim)
    bands = [masks[k] for k in _kept(d1, d2)]
    del d1, d2
    _, f_global, _ = global_
    defect = 0.0
    for f, in_band in zip(f_global, bands):
        cols = f[:, in_band]  # 1 - F*F on the band is 1 - cols* cols
        defect = max(defect, opnorm(np.eye(cols.shape[1])
                                    - cols.conj().T @ cols))
    evs["global"] = _stage("fredholm_index[global]", _signed_values, global_)
    # definition-B's candidate (BV)*(AV) is the adjoint of definition-A's
    # (AV)*(BV) and enters with the opposite sign: ind(X*) = -ind(X) from
    # the same singular values, so its signed values are definition-A's
    evs["definition-B"] = evs["definition-A"]
    residuals[f"kbalance_worst_N{n}"] = kb.worst()
    residuals[f"measured_eps_N{n}"] = measured
    residuals[f"global_unitarity_defect_N{n}"] = defect
    for formula in _FORMULAS:
        residuals[f"fedosov_residue_{formula}_N{n}"] = evs[formula].residue
    gap = min(ev.count_gap for ev in evs.values())
    if math.isfinite(gap):
        residuals[f"count_gap_N{n}"] = gap
    return evs


def verify_index_theorem(sp: SymbolPair, modes: int,
                         split_symbol: Optional[SplitSymbol] = None,
                         splits: Optional[Dict[int, ModeSplit]] = None,
                         tail_cutoff: Optional[int] = None) -> IndexReport:
    """Quantize, verify the split, and compare every analytic index with the
    winding index at the requested mode count and its double.

    The split at mode count N is ``splits[N]`` when given (splits depend
    only on the splitting symbol, so sweeps over symbol families share
    them), else the quantized ``split_symbol``; with neither the pipeline
    fails at stage ``splitting_projection``.  ``tail_cutoff`` overrides the
    default mode cutoff N/2 at the base size and is doubled along with it;
    it must be below ``modes``, else ``ValueError`` is raised before any
    stage runs.  Each mode count runs in its own call (``_mode_count``), so
    nothing dense from the first is alive during the second.
    """
    if tail_cutoff is not None and tail_cutoff >= modes:
        raise ValueError(f"tail cutoff {tail_cutoff} must be below the mode "
                         f"count {modes}")
    topological = _stage("topo_index", topo_index, sp)
    values: Dict[str, Dict[str, Dict[int, int]]] = \
        {f: {"svd": {}, "fedosov": {}} for f in _FORMULAS}
    residuals: Dict[str, float] = {}
    for n in (modes, 2 * modes):
        cut = TailCutoff(n // 2 if tail_cutoff is None
                         else (n // modes) * tail_cutoff)
        evs = _mode_count(sp, n, cut, split_symbol, splits, residuals)
        for formula in _FORMULAS:
            values[formula]["svd"][n] = evs[formula].svd
            values[formula]["fedosov"][n] = evs[formula].fedosov

    deltas = {}
    for formula in _FORMULAS:
        for engine in ("svd", "fedosov"):
            series = values[formula][engine]
            deltas[f"delta_{formula}_{engine}"] = \
                abs(series[modes] - series[2 * modes])
    residuals.update({k: float(v) for k, v in deltas.items()})

    top_n = 2 * modes
    analytic_svd = values["global"]["svd"][top_n]
    analytic_fedosov = values["global"]["fedosov"][top_n]
    all_values = [values[f][e][n] for f in _FORMULAS
                  for e in ("svd", "fedosov") for n in (modes, top_n)]
    verdict = all(v == topological for v in all_values)
    return IndexReport(analytic_svd, analytic_fedosov, topological,
                       residuals, verdict, values)
