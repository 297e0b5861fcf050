"""Truncated order-zero operators on the circle from balanced symbol pairs.

A symbol pair quantizes to a block matrix on Fourier modes n = -N..N tensor
C^d: the nonnegative modes carry the Toeplitz compression of multiplication
by the + symbol, the negative modes the compression of the - symbol.  Loops
sampled on the glued interval [0, pi/2) are read in the circle coordinate
tau = 4t, so one loop turn is one Fourier harmonic.

Compactness has no exact finite stand-in: "small modulo compacts" is
measured by the tail seminorm, the operator norm of the compression to a
band of modes that excludes both the low modes (where genuine compact parts
live) and a collar at the truncation edge (where the compression itself
manufactures defects, e.g. the lost column of a shift).  Claims are asserted
as two-point convergence between a cutoff and its double.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .balanced import relation_residuals
from .errors import ShapeError, SpectralGapError, UndersampledError
from .loops import LoopPair, MatrixLoop, SymbolPair
from .numkern import Array, opnorm
from .relations import RELATIONS

DEFAULT_COLLAR_FRACTION = 4  # edge collar is modes // DEFAULT_COLLAR_FRACTION


@dataclass(frozen=True)
class TruncOp:
    """Matrix on Fourier modes -N..N tensor C^dim, row (n+N)*dim + j."""

    modes: int
    dim: int
    matrix: Array

    def __post_init__(self):
        size = self.dim * (2 * self.modes + 1)
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (size, size):
            raise ShapeError(f"matrix shape {m.shape} does not match "
                             f"(modes={self.modes}, dim={self.dim})")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.dim * (2 * self.modes + 1)

    def mode_values(self) -> np.ndarray:
        """The Fourier mode of every row/column coordinate."""
        return np.repeat(np.arange(-self.modes, self.modes + 1), self.dim)

    def adjoint(self) -> "TruncOp":
        return TruncOp(self.modes, self.dim, self.matrix.conj().T)


@dataclass(frozen=True)
class TailCutoff:
    """Cutoff M < N: the tail band is M < |n| <= N - collar."""

    m: int
    collar: Optional[int] = None

    def band_mask(self, op_modes: int, op_dim: int,
                  m: Optional[int] = None) -> np.ndarray:
        m = self.m if m is None else m
        if m >= op_modes:
            raise ValueError(f"cutoff {m} must be below the mode count {op_modes}")
        collar = (op_modes // DEFAULT_COLLAR_FRACTION if self.collar is None
                  else self.collar)
        modes = np.repeat(np.arange(-op_modes, op_modes + 1), op_dim)
        return (np.abs(modes) > m) & (np.abs(modes) <= op_modes - collar)

    def interior_mask(self, op_modes: int, op_dim: int) -> np.ndarray:
        modes = np.repeat(np.arange(-op_modes, op_modes + 1), op_dim)
        return np.abs(modes) <= self.m


def band_norm(matrix: Array, mask: np.ndarray) -> float:
    """Operator norm of the compression to the masked rows and columns."""
    return opnorm(matrix[np.ix_(mask, mask)])


def tail_seminorm(op: TruncOp, cut: TailCutoff, m: Optional[int] = None) -> float:
    return band_norm(op.matrix, cut.band_mask(op.modes, op.dim, m))


# -- quantization -------------------------------------------------------------


def fourier_coefficients(loop: MatrixLoop, max_lag: int) -> Array:
    """Coefficients sigma_hat(k), k = -max_lag..max_lag, in tau = 4t.

    The loop grid must resolve every requested lag without aliasing.
    """
    grid = loop.grid
    if grid < 2 * max_lag + 2:
        raise UndersampledError(
            f"loop grid {grid} cannot supply lags up to {max_lag}; "
            f"need at least {2 * max_lag + 2} samples")
    coeffs = np.fft.fft(loop.samples, axis=0) / grid
    lags = np.arange(-max_lag, max_lag + 1)
    return coeffs[lags % grid]


def bandwidth_estimate(loop: MatrixLoop, rel_threshold: float = 1e-3) -> int:
    """Largest lag whose coefficient norm exceeds the relative threshold."""
    half = loop.grid // 2
    coeffs = fourier_coefficients(loop, max(half - 1, 0))
    norms = np.linalg.norm(coeffs.reshape(coeffs.shape[0], -1), axis=1)
    floor = rel_threshold * norms.max()
    lags = np.arange(-(half - 1), half)
    active = lags[norms > floor]
    return int(np.abs(active).max()) if active.size else 0


def _toeplitz_block(coeffs: Array, row_modes: np.ndarray,
                    col_modes: np.ndarray, max_lag: int) -> Array:
    lag_index = row_modes[:, None] - col_modes[None, :] + max_lag
    d = coeffs.shape[1]
    block = coeffs[lag_index]          # (rows, cols, d, d)
    block = block.transpose(0, 2, 1, 3)
    return block.reshape(len(row_modes) * d, len(col_modes) * d)


def quantize_symbol(plus: MatrixLoop, minus: MatrixLoop, modes: int,
                    enforce_bandwidth: bool = True) -> TruncOp:
    """Compression of multiplication operators to the two mode half-lines.

    The bandwidth gate rejects loops whose spectral content the mode window
    cannot resolve; auxiliary symbols (splitting projections) may skip it
    since their quality is certified downstream rather than assumed.
    """
    if plus.dim != minus.dim:
        raise ShapeError("both symbol components must share the dimension")
    if enforce_bandwidth:
        for name, loop in (("plus", plus), ("minus", minus)):
            bw = bandwidth_estimate(loop)
            if modes < 4 * bw:
                raise UndersampledError(
                    f"{name} symbol bandwidth ~{bw} needs at least {4 * bw} "
                    f"modes, got {modes}")
    max_lag = 2 * modes
    d = plus.dim
    size = d * (2 * modes + 1)
    matrix = np.zeros((size, size), dtype=np.complex128)
    pos = np.arange(0, modes + 1)
    neg = np.arange(-modes, 0)
    cp = fourier_coefficients(plus, max_lag)
    cm = fourier_coefficients(minus, max_lag)
    pos_rows = d * (pos[0] + modes)
    matrix[pos_rows:, pos_rows:] = _toeplitz_block(cp, pos, pos, max_lag)
    matrix[:pos_rows, :pos_rows] = _toeplitz_block(cm, neg, neg, max_lag)
    return TruncOp(modes, d, matrix)


def quantize(sp: SymbolPair, modes: int) -> Tuple[TruncOp, TruncOp]:
    """Quantize both members of a symbol pair."""
    d1 = quantize_symbol(sp.plus.sigma1, sp.minus.sigma1, modes)
    d2 = quantize_symbol(sp.plus.sigma2, sp.minus.sigma2, modes)
    return d1, d2


def symbol_roundtrip_error(op: TruncOp, plus: MatrixLoop, minus: MatrixLoop) -> float:
    """Read the principal symbol back off the inner mode window |n| <= N/2
    and compare with the inputs in the pointwise operator norm."""
    worst = 0.0
    for loop, lo in ((plus, op.modes), (minus, 0)):
        half = op.modes // 2
        if lo == op.modes:
            window = np.arange(op.modes // 4, op.modes // 4 + half)  # inside n >= 0
        else:
            window = np.arange(-op.modes + op.modes // 4,
                               -op.modes + op.modes // 4 + half)     # inside n < 0
        d = op.dim
        recovered = np.zeros((2 * half + 1, d, d), dtype=np.complex128)
        for lag in range(-half, half + 1):
            blocks = []
            for n in window:
                m = n - lag
                if abs(m) > op.modes or m not in window:
                    continue
                r = (n + op.modes) * d
                c = (m + op.modes) * d
                blocks.append(op.matrix[r:r + d, c:c + d])
            if blocks:
                recovered[lag + half] = np.mean(blocks, axis=0)
        taus = 4.0 * loop.ts
        lags = np.arange(-half, half + 1)
        phases = np.exp(1j * np.outer(taus, lags))  # (grid, lags)
        rebuilt = np.tensordot(phases, recovered, axes=(1, 0))
        worst = max(worst, max(opnorm(rebuilt[k] - loop.samples[k])
                               for k in range(loop.grid)))
    return worst


# -- contraction clipping ------------------------------------------------------


def _top_singular_estimate(matrix: Array, iters: int = 80, seed: int = 0) -> float:
    """Power iteration on M*M; converges to the top singular value from below."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matrix.conj().T @ (matrix @ v)
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def clip_to_contraction(op: TruncOp) -> TruncOp:
    """Clip all singular values to at most 1; inputs already below stay put.

    Compressions of contraction-valued multiplication operators are exact
    contractions, so the common case is certified by a power-iteration norm
    estimate at tolerance 1e-9 and returned untouched; anything estimated
    above that is decomposed and clipped exactly.
    """
    est = _top_singular_estimate(op.matrix)
    if est <= 1.0 + 1e-9:
        return op
    u, s, vh = np.linalg.svd(op.matrix)
    if s.size == 0 or s[0] <= 1.0 + 1e-12:
        return op
    clipped = np.minimum(s, 1.0)
    return TruncOp(op.modes, op.dim, (u * clipped[np.newaxis, :]) @ vh)


# -- balanced modulo tails -------------------------------------------------------


@dataclass
class KBalanceReport:
    """Relation residuals in the tail seminorm at a cutoff and its double."""

    cutoffs: Tuple[int, int]
    residuals: Dict[str, Dict[int, float]]
    contraction: Dict[str, Dict[int, float]]
    tol: float

    @property
    def verdict(self) -> bool:
        top = max(self.cutoffs)
        return (all(v[top] <= self.tol for v in self.residuals.values())
                and all(v[top] <= 1 + self.tol
                        for v in self.contraction.values()))

    def worst(self, cutoff: int) -> float:
        return max(v[cutoff] for v in self.residuals.values())


def kbalance_report(a: TruncOp, b: TruncOp, cut: TailCutoff,
                    tol: float = 0.05) -> KBalanceReport:
    """The twelve balanced-pair residuals in the tail seminorm at cutoffs
    {M, 2M} (a cutoff at or beyond the band end yields an empty band).

    Only the band columns and rows of every residual are formed: each entry
    costs a thin slice of the full matrix products, which keeps the report
    usable inside the index pipeline at its largest truncations.
    """
    if a.modes != b.modes or a.dim != b.dim:
        raise ShapeError("operators must share modes and dimension")
    if cut.m >= a.modes:
        raise ValueError(f"cutoff {cut.m} must be below the mode count {a.modes}")
    am, bm = a.matrix, b.matrix
    cutoffs = (cut.m, min(2 * cut.m, a.modes))
    residuals: Dict[str, Dict[int, float]] = {}
    contraction: Dict[str, Dict[int, float]] = {}
    for m in cutoffs:
        if m >= a.modes:
            mask = np.zeros(a.size, dtype=bool)
        else:
            mask = cut.band_mask(a.modes, a.dim, m)
        values = relation_residuals(am, bm, mask)
        for (name, _, _), value in zip(RELATIONS, values.tolist()):
            residuals.setdefault(name, {})[m] = value
        contraction.setdefault("|a|", {})[m] = band_norm(am, mask)
        contraction.setdefault("|b|", {})[m] = band_norm(bm, mask)
    return KBalanceReport(cutoffs, residuals, contraction, tol)


# -- splitting projection ---------------------------------------------------------


@dataclass(frozen=True)
class SmoothStep:
    """0 below eta^2, smooth rise, 1 beyond 4 eta^2."""

    eta: float = 0.1

    def __call__(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self.eta ** 2, 4 * self.eta ** 2
        y = np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
        return y * y * (3 - 2 * y)


@dataclass(frozen=True)
class ModeSplit:
    """A projection on the truncated space, with orthonormal frames."""

    projector: Array
    label: str = ""
    _frames: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.projector, dtype=np.complex128)
        object.__setattr__(self, "projector", p)
        w, v = np.linalg.eigh((p + p.conj().T) / 2)
        inside = v[:, w > 0.5]
        outside = v[:, w <= 0.5]
        object.__setattr__(self, "_frames", (inside, outside))

    @property
    def rank(self) -> int:
        return self._frames[0].shape[1]

    def frames(self) -> Tuple[Array, Array]:
        """Orthonormal bases (V of the range, W of the kernel)."""
        return self._frames


def _split_symbol_from_step(sp: SymbolPair, step: SmoothStep,
                            flatness: float = 0.1) -> Tuple[MatrixLoop, MatrixLoop]:
    worst = 0.0

    def build(lp: LoopPair) -> MatrixLoop:
        nonlocal worst
        s1, s2 = lp.sigma1.samples, lp.sigma2.samples
        d = s1 - s2
        dd = d @ d.conj().transpose(0, 2, 1) + d.conj().transpose(0, 2, 1) @ d
        out = np.empty_like(s1)
        for k in range(s1.shape[0]):
            w, v = np.linalg.eigh((dd[k] + dd[k].conj().T) / 2)
            values = step(w)
            mid = np.minimum(values, 1 - values)
            worst = max(worst, float(mid.max(initial=0.0)))
            out[k] = (v * values[np.newaxis, :]) @ v.conj().T
        return MatrixLoop(out)

    loops = build(sp.plus), build(sp.minus)
    if worst > flatness:
        raise SpectralGapError(
            "difference-support symbol is not projection-valued: its spectrum "
            f"reaches {worst:.3f} away from {{0, 1}}; supply an explicit "
            "splitting symbol", 0.5)
    return loops


def splitting_projection(sp: SymbolPair, modes: int,
                         step: SmoothStep = SmoothStep(),
                         explicit_symbol: Optional[Tuple[MatrixLoop, MatrixLoop]] = None,
                         threshold: float = 0.25, gap: float = 0.05) -> ModeSplit:
    """Quantize a splitting symbol and round it inclusively to a projection.

    By default the symbol is the smoothed support of the pointwise difference,
    step(dd* + d*d) with d = sigma1 - sigma2 per component.  Where that field
    is not projection-valued (difference vanishing on part of the circle) the
    construction reports a spectral-gap failure; callers may then supply an
    explicit projection-valued splitting symbol such as
    :func:`balk1.loops.subbundle_projection_loop`.

    The compression of a projection symbol carries a handful of boundary
    states with eigenvalues strictly inside (0, 1), paired symmetrically by
    mode-edge tunneling; slicing them at 1/2 would spread half a state across
    the split.  The rounding is therefore inclusive: every eigenvector with
    eigenvalue above the low threshold joins the range, so the complement
    keeps only cleanly-absent states.  A populated band around the threshold
    is reported as a spectral-gap failure.  The returned split is guaranteed
    only to be a projection; its quality is established by
    :func:`verify_split_blocks`.
    """
    symbol = explicit_symbol if explicit_symbol is not None \
        else _split_symbol_from_step(sp, step)
    raw = quantize_symbol(symbol[0], symbol[1], modes, enforce_bandwidth=False)
    label = "explicit" if explicit_symbol is not None else "difference-support"
    herm = (raw.matrix + raw.matrix.conj().T) / 2
    w, v = np.linalg.eigh(herm)
    inside = np.abs(w - threshold) <= gap
    if np.any(inside):
        bad = float(w[inside][0])
        raise SpectralGapError(
            f"eigenvalue {bad:.6f} inside the rounding band "
            f"[{threshold - gap:.3f}, {threshold + gap:.3f}]", bad)
    keep = v[:, w > threshold]
    projector = keep @ keep.conj().T
    return ModeSplit((projector + projector.conj().T) / 2, label)


# -- split verification ------------------------------------------------------------


@dataclass
class SplitBlockReport:
    """Block norms of the difference and tail norms of the defect blocks."""

    eps: float
    diff_blocks: Dict[str, float]        # plain norms, blocks != (1,1)
    defect_blocks: Dict[str, float]      # tail seminorms, blocks != (2,2)
    degenerate: bool

    @property
    def passed(self) -> bool:
        return (all(v < self.eps for v in self.diff_blocks.values())
                and all(v < self.eps for v in self.defect_blocks.values()))

    @property
    def max_measured(self) -> float:
        values = list(self.diff_blocks.values()) + list(self.defect_blocks.values())
        return max(values) if values else 0.0


def verify_split_blocks(a: TruncOp, b: TruncOp, split: ModeSplit,
                        cut: TailCutoff, eps: float) -> SplitBlockReport:
    """Check the decomposition conclusions at tolerance eps.

    The difference a - b must be small outside the (1,1) block in plain
    operator norm; each unitarity defect must be small outside the (2,2)
    block in the tail seminorm (its compact part is discounted).
    """
    if a.modes != b.modes or a.dim != b.dim:
        raise ShapeError("operators must share modes and dimension")
    v, w = split.frames()
    degenerate = w.shape[1] == 0 or v.shape[1] == 0
    am, bm = a.matrix, b.matrix
    eye = np.eye(am.shape[0])
    diff = am - bm

    dv, dw = diff @ v, diff @ w
    diff_blocks = {
        "12": opnorm(v.conj().T @ dw),
        "21": opnorm(w.conj().T @ dv),
        "22": opnorm(w.conj().T @ dw),
    }

    mask = cut.band_mask(a.modes, a.dim)
    defects = {
        "1-a*a": eye - am.conj().T @ am,
        "1-aa*": eye - am @ am.conj().T,
        "1-b*b": eye - bm.conj().T @ bm,
        "1-bb*": eye - bm @ bm.conj().T,
    }
    frames = {"1": v, "2": w}
    defect_blocks: Dict[str, float] = {}
    for name, mat in defects.items():
        cols = {side: mat @ frame for side, frame in frames.items()}
        for left in ("1", "2"):
            for right in ("1", "2"):
                if left == right == "2":
                    continue
                fl, fr = frames[left], frames[right]
                middle = fl.conj().T @ cols[right]
                # band compression of the embedded block fl middle fr*
                compressed = fl[mask, :] @ middle @ fr[mask, :].conj().T
                defect_blocks[f"{name}:{left}{right}"] = opnorm(compressed)
    return SplitBlockReport(eps, diff_blocks, defect_blocks, degenerate)


@dataclass
class BlockEstimateReport:
    """The corner-block consequences at multiples 2 eps and 4 eps."""

    eps: float
    estimates: Dict[str, float]
    bounds: Dict[str, float]

    @property
    def passed(self) -> bool:
        return all(self.estimates[k] < self.bounds[k] for k in self.estimates)


def verify_block_estimates(a: TruncOp, b: TruncOp, split: ModeSplit,
                           cut: TailCutoff, eps: float) -> BlockEstimateReport:
    """Tail-seminorm estimates on the (1,1) corner:

    |A11*A11 - B11*B11| and |A11A11* - B11B11*| below 2 eps,
    |(B11-A11)(1-A11*A11)| and |(B11-A11)*(1-A11A11*)| below 4 eps.
    """
    p = split.projector
    a11 = p @ a.matrix @ p
    b11 = p @ b.matrix @ p
    mask = cut.band_mask(a.modes, a.dim)
    exprs = {
        "A11*A11-B11*B11": a11.conj().T @ a11 - b11.conj().T @ b11,
        "A11A11*-B11B11*": a11 @ a11.conj().T - b11 @ b11.conj().T,
        "(B11-A11)(1-A11*A11)": (b11 - a11) @ (p - a11.conj().T @ a11),
        "(B11-A11)*(1-A11A11*)": (b11 - a11).conj().T @ (p - a11 @ a11.conj().T),
    }
    bounds = {
        "A11*A11-B11*B11": 2 * eps,
        "A11A11*-B11B11*": 2 * eps,
        "(B11-A11)(1-A11*A11)": 4 * eps,
        "(B11-A11)*(1-A11A11*)": 4 * eps,
    }
    estimates = {k: band_norm(mat, mask) for k, mat in exprs.items()}
    return BlockEstimateReport(eps, estimates, bounds)
