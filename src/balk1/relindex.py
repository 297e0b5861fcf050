"""Fredholm index engines and the relative index of operator pairs.

``engine_values`` reads the index of a near-isometric Fredholm candidate F
in two ways that share no decomposition, both weighted by the interior
window:

* the counting engine compares the numbers of near-null directions of F and
  of F*; on a square truncation the raw counts always agree, so callers pass
  interior weights and only directions carried by the interior modes count
  (truncation-edge artifacts localize at the cut and are discarded).  It
  finds them by thin SVDs of F and F* on the ranges of the defects
  1 - F*F and 1 - FF*, which a fixed-seed randomized sketch captures to a
  certified residual ``SKETCH_TOLERANCE`` (one full SVD of a block too
  small for the sketch);
* the trace engine evaluates tr (1-F*F)^p - tr (1-FF*)^p over the same
  interior window straight from the two defect products, and rounds to the
  nearest integer, reporting the distance as a residue.

The relative index of a pair (A, B) against a splitting projection follows
the three equivalent recipes: the defining difference
ind(C* A|H1) - ind(C* B|H1) for the comparison operator C = A|H1 or
C = B|H1, the corner formula ind(1 + B1*(A1 - B1)) on H1, and the global
formula ind(1 + B*(A - B)) on the whole truncated space; one builder forms
the candidate operators of every recipe, block by block over the half-lines
of the operator model (the index of a block-diagonal candidate is the sum
of its block indices), from the split records of ``opmodel.split_blocks``.
For C = A|H1 or C = B|H1 the term C*C is Hermitian, so its index is 0, and
the two terms left, (AV)*(BV) and (BV)*(AV), are adjoints of each other:
since ind X* = -ind X from the same singular values, the pipeline reads
definition-B off definition-A's engine values, and only ``rel_index`` with
choice "B" forms (BV)*(AV).  A comparison operator is admissible when it
meets the corner estimates of the split decomposition, so
``validate_choice`` reads the same ``opmodel.corner_estimates`` table.
``verify_index_theorem`` runs the full pipeline at a mode count and its
double and checks every formula and engine against the winding-number
index of the symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .balanced import canonical_unitary
from .errors import (CChoiceError, EngineDisagreementError, FedosovResidueError,
                     PipelineStageError, SingularGapError)
from .loops import SplitSymbol, SymbolPair, topo_index
from .numkern import Array, opnorm
from .opmodel import (ModeSplit, SplitBlock, TailCutoff, TruncOp, block_slices,
                      check_same_shape, clip_to_contraction, corner_estimates,
                      kbalance_report, quantize, split_blocks,
                      splitting_projection, verify_split_blocks)

Weights = Union[np.ndarray, None]  # 1-d mode weights or PSD Gram matrix


INCLUSIVE_THRESHOLD = 1e-3
GAP_FACTOR = 10.0  # an explicit threshold needs no singular value in [t, 10 t)
RESIDUE_CEILING = 0.2  # largest trace-formula distance from an integer
SKETCH_WIDTH = 64  # first width of the defect range finder
SKETCH_TOLERANCE = 1e-10  # delta: the Frobenius norm a defect range may leave out
SKETCH_SEED = 2011  # the range finder's test matrices are the same in every run


def _interior_masses(vectors: Array, weights: Weights) -> np.ndarray:
    """Weighted squared norm Re x*Wx of every column x: the share of each
    singular vector carried by the interior window.

    Re x*Wx is summed as the real and imaginary parts of x times those of
    Wx, so no conjugate copy of the vectors is formed."""
    if weights is None:
        return np.ones(vectors.shape[1])
    if weights.ndim == 1:
        squares = np.abs(vectors)
        return weights @ np.square(squares, out=squares)
    image = weights @ vectors
    return (np.einsum("ij,ij->j", vectors.real, image.real)
            + np.einsum("ij,ij->j", vectors.imag, image.imag))


def _defect(f: Array, adjoint: Array, domain: bool) -> Array:
    """1 - F*F (on the domain) or 1 - FF* (on the codomain), formed in the
    product's own storage."""
    defect = adjoint @ f if domain else f @ adjoint
    np.negative(defect, out=defect)
    defect.reshape(-1)[::defect.shape[0] + 1] += 1.0
    return defect


def _weighted_trace(x: Array, weights: Weights, p: int) -> float:
    """Re tr(W X^p) of a Hermitian X, without decomposing it: with
    L = X^(p//2) and R = X^(p - p//2), tr(WLR) = sum_ij (WL)_ij conj(R_ij).
    W is None (the identity), mode weights or a Gram matrix."""
    low = np.linalg.matrix_power(x, p // 2)
    high = np.linalg.matrix_power(x, p - p // 2)
    if weights is None:
        return float(np.vdot(high, low).real)
    if weights.ndim == 1:
        return float(weights @ (np.einsum("ij,ij->i", low.real, high.real)
                                + np.einsum("ij,ij->i", low.imag, high.imag)))
    return float(np.vdot(high, weights @ low).real)


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


def _near_null(f: Array, adjoint: Array, ranges: Optional[Tuple[Array, Array]],
               threshold: float
               ) -> Tuple[np.ndarray, np.ndarray, Array, Array, float]:
    """The counting engine's view of one block: the singular values of F read
    on the domain and on the codomain side, the near-null domain and
    codomain singular vectors (singular value below the threshold) as
    columns, and the value ``above`` takes when no singular value at or
    above the threshold is read.

    With the defect ranges (Q_R, Q_L), the values and vectors come from
    thin SVDs of F Q_R and F* Q_L; every singular value left out has
    |1 - s^2| <= 2 ``SKETCH_TOLERANCE`` (see ``engine_values``), so 1 bounds
    ``above``.  Without them one full SVD of F gives both sides."""
    if ranges is not None:
        q_dom, q_cod = ranges
        _, s, zh = _counting_svd(f @ q_dom, False)
        _, s_cod, yh = _counting_svd(adjoint @ q_cod, False)
        rank = int(np.sum(s >= threshold))
        rank_cod = int(np.sum(s_cod >= threshold))
        return (s, s_cod, q_dom @ zh[rank:].conj().T,
                q_cod @ yh[rank_cod:].conj().T, 1.0)
    u, s, vh = _counting_svd(f, True)
    rank = int(np.sum(s >= threshold))
    return s, s, vh[rank:].conj().T, u[:, rank:], math.inf


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
    def agree(self) -> bool:
        return self.svd == self.fedosov

    @property
    def count_gap(self) -> float:
        """Ratio of the singular values on either side of the counting cut;
        infinite when either side is empty."""
        return self.above / self.below if self.below > 0 else math.inf


def _is_hermitian(f: Array) -> bool:
    """Whether f - f* is within 1e-10 (1 + |f|) in Frobenius norm.  One row
    is compared with its column first, so a block that is far from
    Hermitian is rejected without forming f - f*."""
    if f.shape[0] != f.shape[1]:
        return False
    scale = 1.0 + float(np.linalg.norm(f))
    if f.size and np.linalg.norm(f[0] - f[:, 0].conj()) > 1e-10 * scale:
        return False
    return float(np.linalg.norm(f - f.conj().T)) <= 1e-10 * scale


Blocks = Union[Array, Sequence[Array]]


def engine_values(f: Blocks, threshold: Optional[float] = None,
                  p: int = 2, domain_weights: Union[Weights, Sequence[Weights]] = None,
                  codomain_weights: Union[Weights, Sequence[Weights]] = None
                  ) -> EngineValues:
    """Both index engines, reading no decomposition in common.

    F is one matrix, or a sequence of the diagonal blocks of a
    block-diagonal operator with the weights then given per block (or
    None).  The index of a block-diagonal operator is the sum of the block
    indices, so counts and trace totals are summed over the blocks before
    the trace total is rounded.  Each block's defects D = 1 - F*F and
    E = 1 - FF* are formed by two products.

    The trace engine evaluates Re tr(W_dom D^p) - Re tr(W_cod E^p) straight
    off D and E, W being the interior weights, and rounds it to the nearest
    integer; the distance is the residue, which must stay below
    ``RESIDUE_CEILING``.

    The counting engine takes dim ker - dim coker over the singular
    directions below the threshold, counting only those with at least half
    their interior mass inside the window.  With an explicit threshold the
    singular spectrum must avoid the band [threshold, GAP_FACTOR *
    threshold).  Without one, the count is taken inclusively at a fixed
    loose cut: every strongly contracted direction joins both counts, which
    is harmless for index differences as long as its left and right vectors
    classify alike; the pipeline cross-checks every such count against the
    trace engine, the other index formulas and the doubled truncation, so a
    misclassification cannot pass silently.  The counting engine reads the
    near-null directions off the ranges of D and E, not off a full SVD:

    * Q_R and Q_L are orthonormal ranges of D and E found by a fixed-seed
      sketch (``_defect_range``): width ``SKETCH_WIDTH``, doubled until
      |(1 - QQ*)X|_F <= delta = ``SKETCH_TOLERANCE``.  The near-isometric
      candidates of the pipeline are unitary plus low rank (30-52 values
      of |1 - s^2| above 1e-12 at sizes 258 and 514), so width 64 passes.
    * Thin SVDs of F Q_R and F* Q_L give the singular values and the
      near-null domain and codomain vectors.
    * Once 4 * width exceeds the smaller side of F, or when the gap band
      reaches past sqrt(1 - 2 delta), one full SVD of F gives both.

    Why nothing the engine reads is lost: write P = QQ* for the domain side
    (the codomain side is the same with E).  D - PDP = (1 - P)D + PD(1 - P)
    has norm at most 2 delta, so by Weyl's inequality the eigenvalues
    1 - s^2 of D are within 2 delta of those of PDP, which are 0 on the
    range of 1 - P and 1 - rho^2 for the singular values rho of FQ.  So
    every singular value left out has |1 - s^2| <= 2 delta: it lies above
    the gap band and the counting cut (the sketch is used only when
    (GAP_FACTOR * threshold)^2 < 1 - 2 delta), is not near-null, and moves
    ``above`` by at most about delta.  A near-null direction x has
    Dx = (1 - s^2)x with 1 - s^2 >= 1 - threshold^2, so
    |(1 - P)x| <= delta / (1 - threshold^2): every near-null vector lies
    within about delta of the captured range, its Ritz vector within about
    delta of it, and its mass within about delta of its own.  By Cauchy
    interlacing each near-null Ritz value is at least the true value and at
    most about delta above it.  The check is a posteriori: a sketch that
    misses part of a range fails its residual and is widened.

    A square Hermitian block has equal kernel and cokernel whatever the
    threshold, and its two defect operators coincide, so it adds exactly 0
    to both engines, its spectral-gap precondition is moot, and it is not
    decomposed.
    """
    if isinstance(f, (list, tuple)):
        none = [None] * len(f)
        parts = zip(f, domain_weights or none, codomain_weights or none)
    else:
        parts = [(f, domain_weights, codomain_weights)]
    explicit = threshold is not None
    threshold = threshold if explicit else INCLUSIVE_THRESHOLD
    sketch = (GAP_FACTOR * threshold) ** 2 < 1.0 - 2.0 * SKETCH_TOLERANCE
    kernel = cokernel = 0
    total, below, above = 0.0, 0.0, math.inf
    for block, dom_w, cod_w in parts:
        block = np.asarray(block, dtype=np.complex128)
        if _is_hermitian(block):
            continue
        adjoint = block.conj().T
        ranges = []
        use_sketch = sketch and 4 * SKETCH_WIDTH <= min(block.shape)
        for domain, weights, sign in ((True, dom_w, 1.0), (False, cod_w, -1.0)):
            defect = _defect(block, adjoint, domain)
            total += sign * _weighted_trace(defect, weights, p)
            if use_sketch:
                ranges.append(_defect_range(defect))
                use_sketch = ranges[-1] is not None
            del defect  # freed before the next product is formed
        s, s_cod, kernel_vectors, cokernel_vectors, ceiling = _near_null(
            block, adjoint, tuple(ranges) if use_sketch else None, threshold)
        if explicit:
            for values in (s, s_cod):
                in_gap = (values >= threshold) & (values < GAP_FACTOR * threshold)
                if np.any(in_gap):
                    raise SingularGapError(
                        f"singular value {float(values[in_gap][0]):.3e} inside "
                        f"the gap [{threshold:.1e}, {GAP_FACTOR * threshold:.1e})",
                        float(values[in_gap][0]))
        max_defect = float(np.max(np.abs(1.0 - s ** 2), initial=0.0))
        if max_defect > 1.2:
            raise ValueError(
                f"defect norm {max_defect:.3f} exceeds 1.2: candidate is too "
                "far from an isometry for the trace formula")
        kernel += int(np.sum(_interior_masses(kernel_vectors, dom_w) >= 0.5))
        cokernel += int(np.sum(_interior_masses(cokernel_vectors, cod_w) >= 0.5))
        below = max(below, float(s[s < threshold].max(initial=0.0)))
        above = min(above, float(s[s >= threshold].min(initial=ceiling)))
    nearest = int(np.rint(total))
    residue = abs(total - nearest)
    if residue >= RESIDUE_CEILING:
        raise FedosovResidueError(
            f"trace formula output {total:.4f} has residue {residue:.3f} "
            f">= {RESIDUE_CEILING}", residue)
    return EngineValues(kernel - cokernel, nearest, residue, below, above)


# -- relative index ------------------------------------------------------------


def _resolve_choice(data: List[SplitBlock], choice: str) -> Tuple[Array, ...]:
    """The half-line blocks of the comparison operator C = A|H1 ("A") or
    C = B|H1 ("B")."""
    if choice == "A":
        return tuple(d.av for d in data)
    if choice == "B":
        return tuple(d.bv for d in data)
    raise CChoiceError(f"unknown comparison choice {choice!r}: "
                       "expected 'A' or 'B'")


def validate_choice(c_blocks: Sequence[Array], data: List[SplitBlock],
                    eps: float) -> Dict[str, float]:
    """Residuals of the three closeness conditions against both restrictions,
    each the largest over the half-line blocks.

    The first condition compares the lower blocks in plain norm; the other
    two are the corner expressions of (X1, C1) for X = A, B, in the tail
    seminorm of H1 (low modes carry the compact parts, the truncation collar
    its edge junk, and both discount).
    """
    out: Dict[str, float] = {}
    bounds: Dict[str, float] = {}
    for c_matrix, blk in zip(c_blocks, data):
        c1, c2 = blk.v.conj().T @ c_matrix, blk.w.conj().T @ c_matrix
        for x, xv, x1 in (("A", blk.av, blk.a1), ("B", blk.bv, blk.b1)):
            keys = (f"C2-{x}2", f"C1*C1-{x}1*{x}1", f"C1C1*-{x}1{x}1*",
                    f"(C1-{x}1)(1-{x}1*{x}1)", f"(C1-{x}1)*(1-{x}1{x}1*)")
            table = [(opnorm(c2 - blk.w.conj().T @ xv), eps)]
            table += corner_estimates(x1, c1, blk.v[blk.band], eps)
            for key, (value, bound) in zip(keys, table):
                out[key] = max(out.get(key, 0.0), value)
                bounds[key] = bound
    for key, value in out.items():
        if value >= bounds[key]:
            raise CChoiceError(
                f"comparison condition {key} = {value:.4f} exceeds {bounds[key]:.4f}")
    return out


_FORMULAS = ("definition-A", "definition-B", "corner", "global")

# sign, the half-line blocks of a Fredholm candidate, and their weights
Candidate = Tuple[int, Tuple[Array, ...], Tuple[Weights, ...]]


def _candidate(a: TruncOp, b: TruncOp, cut: TailCutoff, formula: str,
               data: Optional[List[SplitBlock]] = None) -> Candidate:
    """The signed Fredholm candidate of one relative-index formula, one
    block per half-line, with the interior weights its engines count
    against.

    The formula's index is the sign times the candidate's index.
    ``definition-A`` and ``definition-B`` compare through C = A|H1 and
    C = B|H1.  Their C*C term is Hermitian, so its index is 0 and it is not
    formed: definition-A is -ind((AV)*(BV)) and definition-B is
    ind((BV)*(AV)).  Every formula but ``global`` reads the split data.
    The global candidate leaves out every half-line where a and b hold one
    block object (see ``opmodel.quantize``): there 1 + b*(a - b) is exactly
    the identity, which adds 0 to both engines.
    """
    if formula == "global":
        check_same_shape(a, b)
        interior = cut.interior_mask(a.modes, a.dim).astype(float)
        kept = [(am, bm, s) for am, bm, s in
                zip(a.blocks, b.blocks, block_slices(a.sizes)) if am is not bm]
        return (1, tuple(canonical_unitary(am, bm) for am, bm, _ in kept),
                tuple(interior[s] for _, _, s in kept))
    grams = tuple(d.h1_gram for d in data)
    if formula == "corner":
        return 1, tuple(canonical_unitary(d.a1, d.b1) for d in data), grams
    if formula == "definition-A":
        return -1, tuple(d.av.conj().T @ d.bv for d in data), grams
    return 1, tuple(d.bv.conj().T @ d.av for d in data), grams


def _formula_index(candidate: Candidate, strict: bool) -> EngineValues:
    """Both engines' values of one formula's candidate, the indices signed
    by the formula; when strict, both engines must agree."""
    sign, blocks, weights = candidate
    ev = engine_values(blocks, domain_weights=weights, codomain_weights=weights)
    if strict and not ev.agree:
        raise EngineDisagreementError(
            f"counting engine gave {ev.svd}, trace engine {ev.fedosov}")
    return replace(ev, svd=sign * ev.svd, fedosov=sign * ev.fedosov)


def rel_index(a: TruncOp, b: TruncOp, split: ModeSplit, choice: str = "A",
              cut: Optional[TailCutoff] = None, eps: Optional[float] = None
              ) -> int:
    """ind(C* A|H1) - ind(C* B|H1) for C = A|H1 ("A") or C = B|H1 ("B");
    with ``eps`` the choice must first pass ``validate_choice``."""
    cut = TailCutoff(a.modes // 2) if cut is None else cut
    data = split_blocks(a, b, split, cut)
    c_blocks = _resolve_choice(data, choice)
    if eps is not None:
        validate_choice(c_blocks, data, eps)
    candidate = _candidate(a, b, cut, f"definition-{choice}", data)
    return _formula_index(candidate, strict=True).svd


def rel_index_global(a: TruncOp, b: TruncOp,
                     cut: Optional[TailCutoff] = None) -> int:
    """ind(1 + B*(A - B)) on the whole truncated space; no split needed."""
    cut = TailCutoff(a.modes // 2) if cut is None else cut
    return _formula_index(_candidate(a, b, cut, "global"), strict=True).svd


# -- the index-theorem pipeline ---------------------------------------------------


@dataclass
class IndexReport:
    """Analytic and topological indices with the supporting diagnostics."""

    analytic_svd: int
    analytic_fedosov: int
    topological: int
    residuals: Dict[str, float]
    verdict: bool
    details: Dict[str, Dict[str, Dict[int, int]]] = field(default_factory=dict)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _mode_count(sp: SymbolPair, n: int, cut: TailCutoff,
                split_symbol: Optional[SplitSymbol],
                splits: Optional[Dict[int, ModeSplit]], eps: float,
                kbalance_tol: float, residuals: Dict[str, float]
                ) -> Dict[str, EngineValues]:
    """The pipeline at one mode count: its residuals go into ``residuals``
    in report order, and every formula's signed engine values are returned.

    Everything dense is a local of this call, and one Fredholm candidate is
    alive at a time: corner and definition-A read the split records, so
    they run first; then the records and both operators are dropped, and
    only the global candidate is alive when its engines run.
    """
    d1, d2 = _stage("quantize", quantize, sp, n)
    d1, d2 = _stage("clip_to_contraction", clip_to_contraction, d1, d2)
    kb = _stage("kbalance", kbalance_report, d1, d2, cut, kbalance_tol)
    if splits is not None and n in splits:
        split = splits[n]
    elif split_symbol is None:
        raise PipelineStageError("splitting_projection", ValueError(
            f"no split at N = {n}: pass splits[{n}] or split_symbol"))
    else:
        split = _stage("splitting_projection", splitting_projection,
                       sp, n, split_symbol)
    blocks = _stage("verify_split_blocks", verify_split_blocks,
                    d1, d2, split, cut, eps)
    evs = {f: _stage(f"fredholm_index[{f}]", _formula_index,
                     _candidate(d1, d2, cut, f, blocks.records), strict=False)
           for f in ("definition-A", "corner")}
    measured = blocks.max_measured
    del blocks
    global_ = _candidate(d1, d2, cut, "global")
    band = cut.band_mask(n, d1.dim)
    bands = [band[s] for s, am, bm in
             zip(block_slices(d1.sizes), d1.blocks, d2.blocks) if am is not bm]
    del d1, d2
    _, f_global, _ = global_
    defect = 0.0
    for f, in_band in zip(f_global, bands):
        cols = f[:, in_band]  # 1 - F*F on the band is 1 - cols* cols
        defect = max(defect, opnorm(np.eye(cols.shape[1])
                                    - cols.conj().T @ cols))
    evs["global"] = _stage("fredholm_index[global]", _formula_index, global_,
                           strict=False)
    # definition-B's candidate (BV)*(AV) is the adjoint of definition-A's
    # (AV)*(BV) and enters with the opposite sign: ind(X*) = -ind(X) from
    # the same singular values, so its signed values are definition-A's
    evs["definition-B"] = evs["definition-A"]
    residuals[f"kbalance_worst_N{n}"] = kb.worst(cut.m)
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
                         eps: float = 0.1, kbalance_tol: float = 0.05,
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
        evs = _mode_count(sp, n, cut, split_symbol, splits, eps, kbalance_tol,
                          residuals)
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
    verdict = (all(v == topological for v in all_values)
               and all(d == 0 for d in deltas.values()))
    return IndexReport(analytic_svd, analytic_fedosov, topological,
                       residuals, verdict, values)
