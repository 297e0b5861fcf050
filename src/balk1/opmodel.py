"""Truncated order-zero operators on the circle from balanced symbol pairs.

A symbol pair quantizes to a block matrix on Fourier modes n = -N..N tensor
C^d: the nonnegative modes carry the Toeplitz compression of multiplication
by the + symbol, the negative modes the compression of the - symbol.  Loops
sampled on the glued interval [0, pi/2) are read in the circle coordinate
tau = 4t, so one loop turn is one Fourier harmonic.

Operators are kept as their two half-line blocks n < 0 and n >= 0, each a
finite Toeplitz section, as quantization builds them.  Clipping, spectral
splitting and the defect products preserve the half-line structure, so
every stage works block by block and takes the maximum of the block norms.
``TruncOp.matrix`` is a dense view for tests.

The split H = H1 + H2 is part of the input, as in the paper: the difference
of a pair lives on H1 and its unitarity defects on H2.  The caller names it
by a splitting symbol, one projection-valued loop per cosphere direction
(``loops.standard_split_symbol`` for the rotating-diagonal family), and
``splitting_projection`` quantizes and rounds that symbol; nothing here
derives a split from the pair.

Everything that reads a pair against a split (the split verification, the
corner estimates, and in ``relindex`` the comparison check and the index
candidates) reads one record per half-line block, ``SplitBlock``, from one
builder, ``split_blocks``.  The four corner expressions, rows of the relation
table, are read with their 2 eps and 4 eps bounds in ``corner_estimates``.

Compactness has no exact finite stand-in: "small modulo compacts" is
measured by the tail seminorm, the operator norm of the compression to a
band of modes that excludes both the low modes (where genuine compact parts
live) and a collar at the truncation edge (where the compression itself
manufactures defects, e.g. the lost column of a shift).  Claims are asserted
as two-point convergence between a cutoff and its double.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .balanced import relation_matrices, relation_residuals
from .errors import ShapeError, SpectralGapError, UndersampledError
from .loops import MatrixLoop, SplitSymbol, SymbolPair
from .numkern import Array, adjoint_matmul, opnorm
from .relations import RELATIONS

DEFAULT_COLLAR_FRACTION = 4  # edge collar is modes // DEFAULT_COLLAR_FRACTION
BANDWIDTH_FLOOR = 1e-3  # bandwidth: lags above this share of the top norm
SPLIT_THRESHOLD, SPLIT_GAP = 0.25, 0.05  # split rounding cut, its empty band

Frames = Tuple[Array, Array]  # orthonormal bases of a range and its complement


def _h(x: Array) -> Array:
    return x.conj().T


def half_lines(modes: int, dim: int) -> Tuple[int, int]:
    """Sizes of the half-line blocks n < 0 and n >= 0."""
    return dim * modes, dim * (modes + 1)


def block_slices(sizes: Sequence[int]) -> List[slice]:
    """Consecutive coordinate ranges of blocks with the given sizes."""
    bounds = np.cumsum((0,) + tuple(sizes)).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def block_band_norm(blocks: Sequence[Array], mask: np.ndarray) -> float:
    """Band norm of a block-diagonal matrix: the largest block band norm."""
    slices = block_slices([blk.shape[0] for blk in blocks])
    return max(band_norm(blk, mask[s]) for blk, s in zip(blocks, slices))


class TruncOp:
    """Operator on Fourier modes -N..N tensor C^dim, row (n+N)*dim + j, kept
    as its two half-line blocks n < 0 and n >= 0."""

    def __init__(self, modes: int, dim: int, blocks: Sequence[Array]):
        blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        if [b.shape for b in blocks] != [(k, k) for k in half_lines(modes, dim)]:
            raise ShapeError(f"block shapes {[b.shape for b in blocks]} do not "
                             f"match (modes={modes}, dim={dim})")
        self.modes, self.dim, self.blocks = modes, dim, blocks

    @property
    def size(self) -> int:
        return self.dim * (2 * self.modes + 1)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def matrix(self) -> Array:
        """Dense view; built on every access."""
        import scipy.linalg as sla

        return sla.block_diag(*self.blocks)


def check_same_shape(a: TruncOp, b: TruncOp) -> None:
    """Raise ``ShapeError`` unless a and b share modes and dimension."""
    if a.modes != b.modes or a.dim != b.dim:
        raise ShapeError(f"operators must share modes and dimension, got "
                         f"(modes={a.modes}, dim={a.dim}) and "
                         f"(modes={b.modes}, dim={b.dim})")


@dataclass(frozen=True)
class TailCutoff:
    """Cutoff M < N: the tail band is M < |n| <= N - collar, with the collar
    N // ``DEFAULT_COLLAR_FRACTION``."""

    m: int

    def band_mask(self, op_modes: int, op_dim: int,
                  m: Optional[int] = None) -> np.ndarray:
        m = self.m if m is None else m
        if m >= op_modes:
            raise ValueError(f"cutoff {m} must be below the mode count {op_modes}")
        collar = op_modes // DEFAULT_COLLAR_FRACTION
        modes = np.repeat(np.arange(-op_modes, op_modes + 1), op_dim)
        return (np.abs(modes) > m) & (np.abs(modes) <= op_modes - collar)

    def interior_mask(self, op_modes: int, op_dim: int) -> np.ndarray:
        modes = np.repeat(np.arange(-op_modes, op_modes + 1), op_dim)
        return np.abs(modes) <= self.m


def band_norm(matrix: Array, mask: np.ndarray) -> float:
    """Operator norm of the compression to the masked rows and columns."""
    return opnorm(matrix[np.ix_(mask, mask)])


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


def bandwidth_estimate(loop: MatrixLoop) -> int:
    """Largest lag whose coefficient norm exceeds ``BANDWIDTH_FLOOR`` times
    the largest."""
    half = loop.grid // 2
    coeffs = fourier_coefficients(loop, max(half - 1, 0))
    norms = np.linalg.norm(coeffs.reshape(coeffs.shape[0], -1), axis=1)
    floor = BANDWIDTH_FLOOR * norms.max()
    lags = np.arange(-(half - 1), half)
    active = lags[norms > floor]
    return int(np.abs(active).max()) if active.size else 0


def _toeplitz_block(coeffs: Array, count: int, max_lag: int) -> Array:
    """The count x count Toeplitz section (sigma_hat(r - c)) of coefficients
    at lags -max_lag..max_lag, as a (count d) x (count d) matrix.

    Row r holds the lags r - c, c = 0..count-1: the window of the reversed
    coefficients that starts at max_lag - r.  The windows are views, so the
    block is the only array allocated."""
    d = coeffs.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(coeffs[::-1], count,
                                                       axis=0)
    rows = windows[max_lag - count + 1:max_lag + 1][::-1]  # (r, i, j, c)
    block = np.empty((count, d, count, d), dtype=coeffs.dtype)
    block[...] = rows.transpose(0, 1, 3, 2)
    return block.reshape(count * d, count * d)


def _check_bandwidth(name: str, loop: MatrixLoop, modes: int) -> None:
    bw = bandwidth_estimate(loop)
    if modes < 4 * bw:
        raise UndersampledError(
            f"{name} symbol bandwidth ~{bw} needs at least {4 * bw} "
            f"modes, got {modes}")


def _half_line_block(loop: MatrixLoop, modes: int, k: int) -> Array:
    """Toeplitz section of multiplication by the loop on half-line block k:
    n < 0 for k = 0, n >= 0 for k = 1."""
    max_lag = 2 * modes
    return _toeplitz_block(fourier_coefficients(loop, max_lag),
                           half_lines(modes, 1)[k], max_lag)


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
            _check_bandwidth(name, loop, modes)
    return TruncOp(modes, plus.dim, (_half_line_block(minus, modes, 0),
                                     _half_line_block(plus, modes, 1)))


def quantize(sp: SymbolPair, modes: int) -> Tuple[TruncOp, TruncOp]:
    """Quantize both members of a symbol pair, each distinct component loop
    once: where a loop of the second member has the samples of the first
    member's, the second operator holds the first one's block object (the
    identity - direction of every ``standard_symbol_pair``, and both
    directions when its two members coincide).  No stage writes into a
    block, so shared blocks stay equal."""
    d1 = quantize_symbol(sp.plus.sigma1, sp.minus.sigma1, modes)
    blocks = list(d1.blocks)
    for name, lp, k in (("plus", sp.plus, 1), ("minus", sp.minus, 0)):
        if not np.array_equal(lp.sigma2.samples, lp.sigma1.samples):
            _check_bandwidth(name, lp.sigma2, modes)
            blocks[k] = _half_line_block(lp.sigma2, modes, k)
    return d1, TruncOp(modes, sp.dim, blocks)


# -- contraction clipping ------------------------------------------------------


CONTRACTION_SLACK = 1e-9  # a block is kept when its norm is at most 1 + this


def _certified_contraction(block: Array) -> bool:
    """Whether (1 + ``CONTRACTION_SLACK``)^2 - M*M has a Cholesky factor,
    which certifies |M| <= 1 + ``CONTRACTION_SLACK``.

    The Gram is formed as M^T conj(M), the conjugate of M*M with the same
    eigenvalues, and negated and shifted in place, so the test holds one
    n x n array beside the factorization's.  Forming it rounds each entry
    by about n 2.2e-16 (1e-13 at n = 514), far below the 2e-9 headroom."""
    gram = block.T @ block.conj()
    np.negative(gram, out=gram)
    diagonal = np.arange(gram.shape[0])
    gram[diagonal, diagonal] += (1.0 + CONTRACTION_SLACK) ** 2
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _clipped(block: Array) -> Array:
    if _is_diagonal(block):
        top = np.abs(block.diagonal()).max(initial=0.0)
        kept = top <= 1.0 + CONTRACTION_SLACK
    else:
        kept = _certified_contraction(block)
    if kept:
        return block
    u, s, vh = np.linalg.svd(block)
    if s.size == 0 or s[0] <= 1.0 + 1e-12:
        return block
    return (u * np.minimum(s, 1.0)[np.newaxis, :]) @ vh


def clip_to_contraction(*ops: TruncOp) -> Tuple[TruncOp, ...]:
    """Clip the singular values of every operator to at most 1; an operator
    whose blocks all stay put is returned itself.

    Compressions of contraction-valued multiplication operators are exact
    contractions, so a block whose norm is certified at most 1 + 1e-9 is
    returned untouched, and any other block is decomposed and clipped
    exactly.  An exactly diagonal block (the identity - block of every
    ``standard_symbol_pair``) is certified by its largest diagonal modulus,
    which is its norm; any other block by a Cholesky factorization
    (``_certified_contraction``).  A block object shared by several
    operators (see ``quantize``) is screened once, and the clipped
    operators share the result.
    """
    clipped: Dict[int, Array] = {}  # by the id of the input block
    out = []
    for op in ops:
        for b in op.blocks:
            if id(b) not in clipped:
                clipped[id(b)] = _clipped(b)
        blocks = tuple(clipped[id(b)] for b in op.blocks)
        same = all(new is old for new, old in zip(blocks, op.blocks))
        out.append(op if same else TruncOp(op.modes, op.dim, blocks))
    return tuple(out)


# -- balanced modulo tails -------------------------------------------------------


@dataclass
class KBalanceReport:
    """Relation residuals in the tail seminorm at a cutoff and its double.

    ``populated`` lists the cutoffs whose tail band holds at least one mode;
    an empty band measures nothing and reports zeros.
    """

    cutoffs: Tuple[int, int]
    residuals: Dict[str, Dict[int, float]]
    contraction: Dict[str, Dict[int, float]]
    tol: float
    populated: Tuple[int, ...]

    @property
    def verdict(self) -> bool:
        """Read at the largest populated cutoff; fails when none is."""
        if not self.populated:
            return False
        top = max(self.populated)
        return (all(v[top] <= self.tol for v in self.residuals.values())
                and all(v[top] <= 1 + self.tol
                        for v in self.contraction.values()))

    def worst(self, cutoff: int) -> float:
        return max(v[cutoff] for v in self.residuals.values())


def kbalance_report(a: TruncOp, b: TruncOp, cut: TailCutoff,
                    tol: float = 0.05) -> KBalanceReport:
    """The twelve balanced-pair residuals in the tail seminorm at cutoffs
    {M, 2M} (a cutoff at or beyond the band end yields an empty band).

    Every residual of block-diagonal operators is block-diagonal, so each is
    the largest of its block residuals.  Only the band columns and rows of
    every residual are formed: each entry costs a thin slice of the block
    products, which keeps the report usable inside the index pipeline at
    its largest truncations.
    """
    check_same_shape(a, b)
    if cut.m >= a.modes:
        raise ValueError(f"cutoff {cut.m} must be below the mode count {a.modes}")
    slices = block_slices(a.sizes)
    cutoffs = (cut.m, min(2 * cut.m, a.modes))
    residuals: Dict[str, Dict[int, float]] = {}
    contraction: Dict[str, Dict[int, float]] = {}
    populated = []
    for m in cutoffs:
        if m >= a.modes:
            mask = np.zeros(a.size, dtype=bool)
        else:
            mask = cut.band_mask(a.modes, a.dim, m)
        if mask.any():
            populated.append(m)
        values = np.max([relation_residuals(ab, bb, RELATIONS, mask[s])
                         for ab, bb, s in zip(a.blocks, b.blocks, slices)], axis=0)
        for (name, _, _), value in zip(RELATIONS, values.tolist()):
            residuals.setdefault(name, {})[m] = value
        contraction.setdefault("|a|", {})[m] = block_band_norm(a.blocks, mask)
        contraction.setdefault("|b|", {})[m] = block_band_norm(b.blocks, mask)
    return KBalanceReport(cutoffs, residuals, contraction, tol, tuple(populated))


# -- splitting projection ---------------------------------------------------------


class ModeSplit:
    """A projection on the truncated space, kept as orthonormal frames
    (V of the range, W of the kernel) on each half-line block."""

    def __init__(self, blocks: Sequence[Frames]):
        self.blocks: Tuple[Frames, ...] = tuple(blocks)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(v.shape[0] for v, _ in self.blocks)

    @property
    def rank(self) -> int:
        return sum(v.shape[1] for v, _ in self.blocks)

    @property
    def projector(self) -> Array:
        """Dense view; built on every access."""
        import scipy.linalg as sla

        return sla.block_diag(*(v @ _h(v) for v, _ in self.blocks))


def _is_diagonal(square: Array) -> bool:
    """Whether every off-diagonal entry of a C-contiguous square matrix is
    0, read through a view: after the first entry, the flat array falls
    into rows of n + 1 that each end on the next diagonal entry."""
    n = square.shape[0]
    return not square.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].any()


def _unit_frame(size: int, rows: np.ndarray) -> Array:
    """The unit vectors e_r of C^size for r in ``rows``, as the columns of a
    Fortran-ordered frame (the layout a column selection has)."""
    frame = np.zeros((size, len(rows)), dtype=np.complex128, order="F")
    frame[rows, np.arange(len(rows))] = 1.0
    return frame


def splitting_projection(sp: SymbolPair, modes: int,
                         explicit_symbol: SplitSymbol) -> ModeSplit:
    """Quantize the caller's splitting symbol, one projection-valued loop per
    cosphere direction of the pair ``sp``, and round it inclusively to a
    projection.  The symbol must act on the pair's dimension.

    The compression of a projection symbol carries a handful of boundary
    states with eigenvalues strictly inside (0, 1), paired symmetrically by
    mode-edge tunneling; slicing them at 1/2 would spread half a state across
    the split.  The rounding is therefore inclusive: every eigenvector with
    eigenvalue above ``SPLIT_THRESHOLD`` joins the range, so the complement
    keeps only cleanly-absent states.  A populated band of half-width
    ``SPLIT_GAP`` around the threshold is reported as a spectral-gap
    failure.  The eigenvectors of each half-line block are the frames of the
    split on that block; a block whose Hermitian part is exactly diagonal
    (the zero - direction of ``standard_split_symbol``, constant symbols) is
    read off its diagonal, with unit-vector frames in ascending order, and
    not decomposed.  The returned split is guaranteed only to be a
    projection; its quality is established by :func:`verify_split_blocks`.
    """
    dims = [loop.dim for loop in explicit_symbol]
    if dims != [sp.dim, sp.dim]:
        raise ShapeError(f"split symbol dimensions {dims} do not match the "
                         f"symbol pair dimension {sp.dim}")
    plus, minus = explicit_symbol
    frames, inside = [], []
    for k, loop in ((0, minus), (1, plus)):
        # one raw block at a time, dropped once its Hermitian part is formed
        block = _half_line_block(loop, modes, k)
        herm = np.conjugate(block.T, order="C")
        herm += block
        herm *= 0.5
        del block
        if _is_diagonal(herm):
            d = herm.diagonal().real
            order = np.argsort(d, kind="stable")
            w = d[order]
            frames.append((_unit_frame(len(d), order[w > SPLIT_THRESHOLD]),
                           _unit_frame(len(d), order[w <= SPLIT_THRESHOLD])))
        else:
            w, v = np.linalg.eigh(herm)
            frames.append((v[:, w > SPLIT_THRESHOLD], v[:, w <= SPLIT_THRESHOLD]))
        inside.extend(w[np.abs(w - SPLIT_THRESHOLD) <= SPLIT_GAP].tolist())
    if inside:
        bad = min(inside)
        raise SpectralGapError(
            f"eigenvalue {bad:.6f} inside the rounding band "
            f"[{SPLIT_THRESHOLD - SPLIT_GAP:.3f}, "
            f"{SPLIT_THRESHOLD + SPLIT_GAP:.3f}]", bad)
    return ModeSplit(frames)


# -- split verification ------------------------------------------------------------


@dataclass
class SplitBlock:
    """One half-line block shared by a pair a, b and a split: the operator
    blocks, the range and kernel frames V and W, AV and BV, the (1,1)
    corners A1 = V*AV and B1 = V*BV, the tail-band rows of the block and
    the interior Gram V* diag(interior) V."""

    a: Array
    b: Array
    v: Array
    w: Array
    av: Array
    bv: Array
    a1: Array
    b1: Array
    band: np.ndarray
    h1_gram: Array


def split_blocks(a: TruncOp, b: TruncOp, split: ModeSplit,
                 cut: TailCutoff) -> List[SplitBlock]:
    """The split records of the two half-line blocks shared by a, b and the
    split, which must be quantized at the same mode count."""
    check_same_shape(a, b)
    if split.sizes != a.sizes:
        raise ShapeError(f"split block sizes {split.sizes} do not match the "
                         f"operator block sizes {a.sizes}")
    band = cut.band_mask(a.modes, a.dim)
    interior = cut.interior_mask(a.modes, a.dim).astype(float)
    records = []
    for am, bm, (v, w), s in zip(a.blocks, b.blocks, split.blocks,
                                 block_slices(a.sizes)):
        vh = _h(v)
        av = am @ v
        # where a - b is exactly zero, B's products are A's
        bv = av if am is bm or np.array_equal(am, bm) else bm @ v
        a1 = vh @ av
        b1 = a1 if bv is av else vh @ bv
        records.append(SplitBlock(am, bm, v, w, av, bv, a1, b1,
                                  band[s], vh @ (interior[s][:, None] * v)))
    return records


_CORNER_ROWS = tuple(RELATIONS[i] for i in (0, 1, 4, 6))


def corner_estimates(x: Array, y: Array, band_v: Array,
                     eps: float) -> List[Tuple[float, float]]:
    """The four corner expressions of a pair (x, y) of operators on H1 as
    (tail seminorm, bound): |x*x - y*y| and |xx* - yy*| below 2 eps,
    |(x - y)(1 - x*x)| and |(x* - y*)(1 - xx*)| below 4 eps.

    An expression X on H1 is the operator V X V* on the block; its tail
    seminorm is the norm of V[band] X V[band]*, with band_v = V[band].
    """
    return [(opnorm(band_v @ e @ _h(band_v)), k * eps) for e, k in
            zip(relation_matrices(x, y, _CORNER_ROWS, None), (2, 2, 4, 4))]


@dataclass
class SplitBlockReport:
    """Block norms of the difference and tail norms of the defect blocks,
    with the split records they were read from."""

    eps: float
    diff_blocks: Dict[str, float]        # plain norms, blocks != (1,1)
    defect_blocks: Dict[str, float]      # tail seminorms, blocks != (2,2)
    degenerate: bool
    records: List[SplitBlock] = field(repr=False)

    @property
    def passed(self) -> bool:
        return (all(v < self.eps for v in self.diff_blocks.values())
                and all(v < self.eps for v in self.defect_blocks.values()))

    @property
    def max_measured(self) -> float:
        values = list(self.diff_blocks.values()) + list(self.defect_blocks.values())
        return max(values) if values else 0.0


def _raise_to(values: Dict[str, float], key: str, value: float) -> None:
    values[key] = max(values.get(key, 0.0), value)


def _defect_blocks(x: Array, xv: Array, v: Array, band: np.ndarray,
                   name: str) -> Dict[str, Tuple[float, float]]:
    """Tail seminorms of the (1,1) and (2,1) blocks of the defects 1 - x*x
    and 1 - xx* on one half-line block, keyed by their names for x = name,
    from xv = xV and complete frames.

    For Q = 1 - x*x the (1,1) block is the Gram V*QV = 1 - (xV)*(xV), and
    the band rows of QV are V[band] - x[:, band]*(xV); for Q = 1 - xx* the
    same holds with x*V and x[band, :] (x*V).  Since WW* = 1 - VV*, the band
    rows of the embedded (2,1) block W (W*QV) V* are
    ((QV)[band] - V[band] V*QV) V[band]*, so no n x n defect and no W*(QV)
    product is formed.
    """
    band_v = v[band]
    xhv = adjoint_matmul(x, v)
    out = {}
    for key, thin, qv_band in (
            (f"1-{name}*{name}", xv, band_v - _h(x[:, band]) @ xv),
            (f"1-{name}{name}*", xhv, band_v - x[band] @ xhv)):
        gram = np.eye(v.shape[1]) - _h(thin) @ thin
        out[key] = (opnorm(band_v @ gram @ _h(band_v)),
                     opnorm((qv_band - band_v @ gram) @ _h(band_v)))
    return out


def _difference_blocks(blk: SplitBlock) -> Dict[str, float]:
    """Plain norms of the (1,2), (2,1) and (2,2) blocks of a - b on one
    half-line block, from (a - b)V = AV - BV and (a - b)W."""
    dv, dw = blk.av - blk.bv, (blk.a - blk.b) @ blk.w
    return {"12": opnorm(_h(blk.v) @ dw), "21": opnorm(_h(blk.w) @ dv),
            "22": opnorm(_h(blk.w) @ dw)}


def verify_split_blocks(a: TruncOp, b: TruncOp, split: ModeSplit,
                        cut: TailCutoff, eps: float) -> SplitBlockReport:
    """Check the decomposition conclusions at tolerance eps.

    The difference a - b must be small outside the (1,1) block in plain
    operator norm; each unitarity defect must be small outside the (2,2)
    block in the tail seminorm (its compact part is discounted).

    Every norm is the largest over the half-line blocks.  The split's frames
    must be complete, VV* + WW* = 1 on each block, as the eigenvector frames
    of ``splitting_projection`` are: a defect Q is then read from thin
    products with the range frame only (see ``_defect_blocks``), and since
    Q is self-adjoint its (1,2) block is the adjoint of its (2,1) block.
    Where a - b is exactly zero on a block, its difference blocks there are
    0 and not formed, and b's defects are a's.
    """
    diff_blocks: Dict[str, float] = {}
    defect_blocks: Dict[str, float] = {}
    records = split_blocks(a, b, split, cut)
    for blk in records:
        same = blk.bv is blk.av  # split_blocks found a - b exactly zero
        if same:
            diffs = dict.fromkeys(("12", "21", "22"), 0.0)
        else:
            diffs = _difference_blocks(blk)
        for key, value in diffs.items():
            _raise_to(diff_blocks, key, value)
        defects = _defect_blocks(blk.a, blk.av, blk.v, blk.band, "a")
        if same:
            defects.update({name.replace("a", "b"): value
                            for name, value in defects.items()})
        else:
            defects.update(_defect_blocks(blk.b, blk.bv, blk.v, blk.band, "b"))
        for name, (within, across) in defects.items():
            _raise_to(defect_blocks, f"{name}:11", within)
            _raise_to(defect_blocks, f"{name}:12", across)
            _raise_to(defect_blocks, f"{name}:21", across)
    degenerate = split.rank == 0 or all(w.shape[1] == 0 for _, w in split.blocks)
    return SplitBlockReport(eps, diff_blocks, defect_blocks, degenerate, records)


@dataclass
class BlockEstimateReport:
    """The corner-block consequences at multiples 2 eps and 4 eps."""

    eps: float
    estimates: Dict[str, float]
    bounds: Dict[str, float]

    @property
    def passed(self) -> bool:
        return all(self.estimates[k] < self.bounds[k] for k in self.estimates)


_BLOCK_ESTIMATES = ("A11*A11-B11*B11", "A11A11*-B11B11*",
                    "(B11-A11)(1-A11*A11)", "(B11-A11)*(1-A11A11*)")


def verify_block_estimates(a: TruncOp, b: TruncOp, split: ModeSplit,
                           cut: TailCutoff, eps: float) -> BlockEstimateReport:
    """Tail-seminorm estimates on the (1,1) corner: the corner expressions
    of (A11, B11) = (V*AV, V*BV) on each half-line block (see
    ``corner_estimates``), each the largest over the blocks."""
    estimates: Dict[str, float] = {}
    bounds: Dict[str, float] = {}
    for blk in split_blocks(a, b, split, cut):
        table = corner_estimates(blk.a1, blk.b1, blk.v[blk.band], eps)
        for key, (value, bound) in zip(_BLOCK_ESTIMATES, table):
            _raise_to(estimates, key, value)
            bounds[key] = bound
    return BlockEstimateReport(eps, estimates, bounds)
