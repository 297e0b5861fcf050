"""Fredholm index engines and the relative index of operator pairs.

``engine_values`` reads the index of a near-isometric Fredholm candidate off
one singular value decomposition in two independent ways, both weighting
every singular vector by its interior mass:

* the counting engine compares the numbers of near-null directions of F and
  of F*; on a square truncation the raw counts always agree, so callers pass
  interior weights and only directions carried by the interior modes count
  (truncation-edge artifacts localize at the cut and are discarded);
* the trace engine evaluates tr (1-F*F)^p - tr (1-FF*)^p over the same
  interior window and rounds to the nearest integer, reporting the distance
  as a residue.

The relative index of a pair (A, B) against a splitting projection follows
the three equivalent recipes: the defining difference
ind(C* A|H1) - ind(C* B|H1) for a comparison operator C, the corner formula
ind(1 + B1*(A1 - B1)) on H1, and the global formula ind(1 + B*(A - B)) on
the whole truncated space; one builder forms the candidate operators of
every recipe.  ``verify_index_theorem`` runs the full pipeline
at a mode count and its double and checks every formula and engine against
the winding-number index of the symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Tuple, Union

import numpy as np

from .errors import (CChoiceError, EngineDisagreementError, FedosovResidueError,
                     PipelineStageError, ShapeError, SingularGapError)
from .loops import MatrixLoop, SymbolPair, topo_index
from .numkern import Array, opnorm
from .opmodel import (ModeSplit, TailCutoff, TruncOp, band_norm,
                      clip_to_contraction, kbalance_report, quantize,
                      splitting_projection, verify_split_blocks)

Weights = Union[np.ndarray, None]  # 1-d mode weights or PSD Gram matrix


INCLUSIVE_THRESHOLD = 1e-3


def _interior_masses(vectors: Array, weights: Weights) -> np.ndarray:
    """Weighted squared norm of every column: the share of each singular
    vector carried by the interior window."""
    if weights is None:
        return np.ones(vectors.shape[1])
    if weights.ndim == 1:
        return weights @ (np.abs(vectors) ** 2)
    return np.real(np.einsum("ij,ij->j", vectors.conj(), weights @ vectors))


@dataclass
class EngineValues:
    svd: int
    fedosov: int
    residue: float

    @property
    def agree(self) -> bool:
        return self.svd == self.fedosov


def _is_hermitian(f: Array) -> bool:
    if f.shape[0] != f.shape[1]:
        return False
    scale = 1.0 + float(np.linalg.norm(f))
    return float(np.linalg.norm(f - f.conj().T)) <= 1e-10 * scale


def engine_values(f: Array, threshold: Optional[float] = None,
                  gap_factor: float = 10.0,
                  p: int = 2, domain_weights: Weights = None,
                  codomain_weights: Weights = None,
                  residue_ceiling: float = 0.2) -> EngineValues:
    """Both index engines from one singular value decomposition of F.

    The counting engine takes dim ker - dim coker over the singular
    directions below the threshold, counting only those with at least half
    their interior mass inside the window.  With an explicit threshold the
    singular spectrum must avoid the band [threshold, gap_factor *
    threshold).  Without one, the count is taken inclusively at a fixed
    loose cut: every strongly contracted direction joins both counts, which
    is harmless for index differences as long as its left and right vectors
    classify alike; the pipeline cross-checks every such count against the
    trace engine, the other index formulas and the doubled truncation, so a
    misclassification cannot pass silently.

    The trace engine evaluates tr_w (1-F*F)^p - tr_w (1-FF*)^p with the same
    interior masses and rounds it to the nearest integer; the distance is
    the residue, which must stay below the ceiling.

    A square Hermitian candidate has equal kernel and cokernel whatever the
    threshold, and its two defect operators coincide, so both engines return
    0 exactly and the spectral-gap precondition is moot.
    """
    f = np.asarray(f, dtype=np.complex128)
    if _is_hermitian(f):
        return EngineValues(0, 0, 0.0)
    u, s, vh = np.linalg.svd(f, full_matrices=True)
    if threshold is None:
        threshold = INCLUSIVE_THRESHOLD
    else:
        in_gap = (s >= threshold) & (s < gap_factor * threshold)
        if np.any(in_gap):
            raise SingularGapError(
                f"singular value {float(s[in_gap][0]):.3e} inside the gap "
                f"[{threshold:.1e}, {gap_factor * threshold:.1e})",
                float(s[in_gap][0]))
    defect = 1.0 - s ** 2
    max_defect = float(np.max(np.abs(defect), initial=0.0))
    if max_defect > 1.2:
        raise ValueError(
            f"defect norm {max_defect:.3f} exceeds 1.2: candidate is too far "
            "from an isometry for the trace formula")
    domain_mass = _interior_masses(vh.conj().T, domain_weights)
    codomain_mass = _interior_masses(u, codomain_weights)
    rank = int(np.sum(s >= threshold))
    kernel = int(np.sum(domain_mass[rank:] >= 0.5))
    cokernel = int(np.sum(codomain_mass[rank:] >= 0.5))

    # directions beyond the singular values are null: their defect is 1
    def defect_power(count: int) -> np.ndarray:
        return np.concatenate([defect, np.ones(count - len(s))]) ** p

    total = float(defect_power(f.shape[1]) @ domain_mass
                  - defect_power(f.shape[0]) @ codomain_mass)
    nearest = int(np.rint(total))
    residue = abs(total - nearest)
    if residue >= residue_ceiling:
        raise FedosovResidueError(
            f"trace formula output {total:.4f} has residue {residue:.3f} "
            f">= {residue_ceiling}", residue)
    return EngineValues(kernel - cokernel, nearest, residue)


# -- relative index ------------------------------------------------------------

ChoiceTag = Literal["A-restricted", "B-restricted", "custom"]


@dataclass(frozen=True)
class CChoice:
    """Comparison operator C: H1 -> H as a full-height matrix block."""

    tag: ChoiceTag
    operator: Optional[Array] = None  # (size, rank), required for custom


@dataclass
class _SplitData:
    """Shared frames, restrictions, the interior Gram and the tail band of
    one split."""

    v: Array
    w: Array
    av: Array
    bv: Array
    a1: Array
    b1: Array
    h1_gram: Array
    band: np.ndarray

    @staticmethod
    def build(a: TruncOp, b: TruncOp, split: ModeSplit,
              cut: TailCutoff) -> "_SplitData":
        v, w = split.frames()
        av, bv = a.matrix @ v, b.matrix @ v
        mode_weights = cut.interior_mask(a.modes, a.dim).astype(float)
        h1_gram = v.conj().T @ (mode_weights[:, None] * v)
        return _SplitData(v, w, av, bv, v.conj().T @ av, v.conj().T @ bv,
                          h1_gram, cut.band_mask(a.modes, a.dim))


def _resolve_choice(data: _SplitData, choice: Union[str, CChoice]) -> Array:
    if isinstance(choice, CChoice):
        if choice.tag == "A-restricted":
            return data.av
        if choice.tag == "B-restricted":
            return data.bv
        if choice.operator is None:
            raise CChoiceError("custom comparison operator requires a matrix")
        if choice.operator.shape != data.av.shape:
            raise ShapeError(
                f"comparison operator shape {choice.operator.shape} "
                f"does not match {data.av.shape}")
        return choice.operator
    if choice in ("A", "A-restricted"):
        return data.av
    if choice in ("B", "B-restricted"):
        return data.bv
    raise CChoiceError(f"unknown comparison choice {choice!r}")


def validate_choice(c_matrix: Array, data: _SplitData,
                    eps: float) -> Dict[str, float]:
    """Residuals of the three closeness conditions against both restrictions.

    The first condition compares the lower blocks in plain norm; the other
    two are Calkin-style and use the tail band of H1 (low modes carry the
    compact parts, the truncation collar its edge junk, and both discount).
    """
    v, w = data.v, data.w
    band_gram = v.conj().T @ (data.band.astype(float)[:, None] * v)
    band = (band_gram + band_gram.conj().T) / 2
    tw, tvec = np.linalg.eigh(band)
    band_half = (tvec * np.sqrt(np.clip(tw, 0.0, None))[np.newaxis, :]) @ tvec.conj().T

    def h1_seminorm(x: Array) -> float:
        return opnorm(band_half @ x @ band_half)

    c1 = v.conj().T @ c_matrix
    c2 = w.conj().T @ c_matrix
    out: Dict[str, float] = {}
    for name, xv in (("A", data.av), ("B", data.bv)):
        x1, x2 = v.conj().T @ xv, w.conj().T @ xv
        out[f"C2-{name}2"] = opnorm(c2 - x2)
        out[f"C1*C1-{name}1*{name}1"] = h1_seminorm(
            c1.conj().T @ c1 - x1.conj().T @ x1)
        out[f"C1C1*-{name}1{name}1*"] = h1_seminorm(
            c1 @ c1.conj().T - x1 @ x1.conj().T)
        eye = np.eye(x1.shape[1])
        out[f"(C1-{name}1)(1-{name}1*{name}1)"] = h1_seminorm(
            (c1 - x1) @ (eye - x1.conj().T @ x1))
        out[f"(C1-{name}1)*(1-{name}1{name}1*)"] = h1_seminorm(
            (c1 - x1).conj().T @ (eye - x1 @ x1.conj().T))
    bounds = {"C2": eps, "C1*C1": 2 * eps, "C1C1*": 2 * eps, "(C1-": 4 * eps}
    for key, value in out.items():
        bound = next(b for prefix, b in bounds.items() if key.startswith(prefix))
        if value >= bound:
            raise CChoiceError(
                f"comparison condition {key} = {value:.4f} exceeds {bound:.4f}")
    return out


_FORMULAS = ("definition-A", "definition-B", "corner", "global")

Candidate = Tuple[int, Array, Weights]  # sign, Fredholm candidate, weights


def _candidates(a: TruncOp, b: TruncOp, cut: TailCutoff, formula: str,
                data: Optional[_SplitData] = None,
                comparison: Optional[Array] = None) -> List[Candidate]:
    """The signed Fredholm candidates of one relative-index formula, with the
    interior weights their engines count against.

    The formula's index is the signed sum of its candidates' indices.
    ``definition-A`` and ``definition-B`` compare through C = A|H1 and
    C = B|H1, ``definition-C`` through the given comparison operator; every
    formula but ``global`` reads the split data.
    """
    if formula == "global":
        weights = cut.interior_mask(a.modes, a.dim).astype(float)
        return [(1, np.eye(a.size) + b.matrix.conj().T @ (a.matrix - b.matrix),
                 weights)]
    if formula == "corner":
        return [(1, np.eye(data.a1.shape[0])
                 + data.b1.conj().T @ (data.a1 - data.b1), data.h1_gram)]
    c = {"definition-A": data.av, "definition-B": data.bv,
         "definition-C": comparison}[formula]
    return [(1, c.conj().T @ data.av, data.h1_gram),
            (-1, c.conj().T @ data.bv, data.h1_gram)]


def _checked_index(parts: List[Candidate], threshold: Optional[float],
                   p: int) -> int:
    """Signed sum of the candidates' indices; both engines must agree on
    every candidate."""
    total = 0
    for sign, f, weights in parts:
        values = engine_values(f, threshold=threshold, p=p,
                               domain_weights=weights, codomain_weights=weights)
        if not values.agree:
            raise EngineDisagreementError(
                f"counting engine gave {values.svd}, trace engine {values.fedosov}")
        total += sign * values.svd
    return total


def rel_index(a: TruncOp, b: TruncOp, split: ModeSplit,
              choice: Union[str, CChoice] = "A",
              cut: Optional[TailCutoff] = None, eps: Optional[float] = None,
              threshold: Optional[float] = None, p: int = 2) -> int:
    """ind(C* A|H1) - ind(C* B|H1); independent of the admissible choice C."""
    cut = TailCutoff(a.modes // 2) if cut is None else cut
    data = _SplitData.build(a, b, split, cut)
    c_matrix = _resolve_choice(data, choice)
    if eps is not None:
        validate_choice(c_matrix, data, eps)
    return _checked_index(
        _candidates(a, b, cut, "definition-C", data, c_matrix), threshold, p)


def rel_index_corner(a: TruncOp, b: TruncOp, split: ModeSplit,
                        cut: Optional[TailCutoff] = None,
                        threshold: Optional[float] = None, p: int = 2) -> int:
    """ind(1 + B1*(A1 - B1)) on H1."""
    cut = TailCutoff(a.modes // 2) if cut is None else cut
    data = _SplitData.build(a, b, split, cut)
    return _checked_index(_candidates(a, b, cut, "corner", data), threshold, p)


def rel_index_global(a: TruncOp, b: TruncOp,
                     cut: Optional[TailCutoff] = None,
                     threshold: Optional[float] = None, p: int = 2) -> int:
    """ind(1 + B*(A - B)) on the whole truncated space; no split needed."""
    cut = TailCutoff(a.modes // 2) if cut is None else cut
    return _checked_index(_candidates(a, b, cut, "global"), threshold, p)


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


def verify_index_theorem(sp: SymbolPair, modes: int,
                         split_symbol: Optional[Tuple[MatrixLoop, MatrixLoop]] = None,
                         eps: float = 0.1, kbalance_tol: float = 0.05,
                         threshold: Optional[float] = None, p: int = 2,
                         splits: Optional[Dict[int, ModeSplit]] = None,
                         tail_cutoff: Optional[int] = None) -> IndexReport:
    """Quantize, verify the split, and compare every analytic index with the
    winding index at the requested mode count and its double.

    ``splits`` may carry precomputed splitting projections keyed by mode
    count (they depend only on the splitting symbol, so sweeps over symbol
    families can share them).  ``tail_cutoff`` overrides the default mode
    cutoff N/2 at the base size and is doubled along with it.
    """

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    topological = stage("topo_index", topo_index, sp)
    values: Dict[str, Dict[str, Dict[int, int]]] = \
        {f: {"svd": {}, "fedosov": {}} for f in _FORMULAS}
    residuals: Dict[str, float] = {}

    for n in (modes, 2 * modes):
        d1, d2 = stage("quantize", quantize, sp, n)
        d1 = stage("clip_to_contraction", clip_to_contraction, d1)
        d2 = stage("clip_to_contraction", clip_to_contraction, d2)
        cut = TailCutoff(n // 2 if tail_cutoff is None
                         else (n // modes) * tail_cutoff)
        kb = stage("kbalance", kbalance_report, d1, d2, cut, kbalance_tol)
        residuals[f"kbalance_worst_N{n}"] = kb.worst(cut.m)
        if splits is not None and n in splits:
            split = splits[n]
        else:
            split = stage("splitting_projection", splitting_projection,
                          sp, n, explicit_symbol=split_symbol)
        blocks = stage("verify_split_blocks", verify_split_blocks,
                       d1, d2, split, cut, eps)
        residuals[f"measured_eps_N{n}"] = blocks.max_measured

        data = _SplitData.build(d1, d2, split, cut)
        candidates = {f: _candidates(d1, d2, cut, f, data) for f in _FORMULAS}
        f_global = candidates["global"][0][1]
        residuals[f"global_unitarity_defect_N{n}"] = band_norm(
            np.eye(d1.size) - f_global.conj().T @ f_global,
            cut.band_mask(n, d1.dim))
        for formula, parts in candidates.items():
            svd_total, fed_total = 0, 0
            for sign, f, weights in parts:
                ev = stage(f"fredholm_index[{formula}]", engine_values, f,
                           threshold=threshold, p=p, domain_weights=weights,
                           codomain_weights=weights)
                svd_total += sign * ev.svd
                fed_total += sign * ev.fedosov
                key = f"fedosov_residue_{formula}_N{n}"
                residuals[key] = max(residuals.get(key, 0.0), ev.residue)
            values[formula]["svd"][n] = svd_total
            values[formula]["fedosov"][n] = fed_total

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

