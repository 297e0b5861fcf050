"""Truncated order-zero operators on the circle from balanced symbol pairs.

A symbol pair quantizes to a block matrix on Fourier modes n = -N..N tensor
C^d: the nonnegative modes carry the Toeplitz compression of multiplication
by the + symbol, the negative modes the compression of the - symbol.  Loops
sampled on the glued interval [0, pi/2) are read in the circle coordinate
tau = 4t, so one loop turn is one Fourier harmonic.

Operators are kept as their two half-line blocks n < 0 and n >= 0, each a
finite Toeplitz section, as quantization builds them.  A section of count
rows reads only the lags |r - c| < count, so one FFT of each loop feeds its
block and the bandwidth gate, and a grid of 2N + 2 samples suffices at N
modes (4N + 2 for a pipeline that also runs 2N).  Cutoffs give their tail
band and interior window per half-line block too.  Clipping, spectral
splitting and the defect products preserve the half-line structure, so
every stage works block by block and takes the maximum of the block norms.
Quantization records with each block a norm bound read off its symbol, the
largest norm over the loop's samples, and clipping keeps every block whose
bound certifies a contraction without decomposing it.
``TruncOp.matrix`` and ``ModeSplit.projector`` are dense views for tests,
assembled by ``numkern.block_diag``.

The split H = H1 + H2 is part of the input, as in the paper: the difference
of a pair lives on H1 and its unitarity defects on H2.  The caller names it
by a splitting symbol, one projection-valued loop per cosphere direction
(``loops.standard_split_symbol`` for the rotating-diagonal family), and
``splitting_projection`` quantizes and rounds that symbol; nothing here
derives a split from the pair.

Everything that reads a pair against a split (the split verification, the
corner estimates, and in ``relindex`` the index candidates) reads one record
per half-line block, ``SplitBlock``, from one builder, ``split_blocks``.  The
six corner expressions, rows of the relation table, are read with their
2 eps and 4 eps bounds in ``verify_block_estimates``.

Compactness has no exact finite stand-in: "small modulo compacts" is
measured by the tail seminorm, the operator norm of the compression to a
band of modes that excludes both the low modes (where genuine compact parts
live) and a collar at the truncation edge (where the compression itself
manufactures defects, e.g. the lost column of a shift).  A report reads
one cutoff; claims are asserted as two-point convergence between the
pipeline's mode count and cutoff (N, M) and their doubles (2N, 2M).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .balanced import relation_matrices, relation_residuals
from .errors import ShapeError, SpectralGapError, UndersampledError
from .loops import MatrixLoop, SplitSymbol, SymbolPair
from .numkern import Array, adjoint_matmul, block_diag, opnorm, stack_opnorm
from .relations import RELATIONS

DEFAULT_COLLAR_FRACTION = 4  # edge collar is modes // DEFAULT_COLLAR_FRACTION
BANDWIDTH_FLOOR = 1e-3  # bandwidth: lags above this share of the top norm
SPLIT_THRESHOLD, SPLIT_GAP = 0.25, 0.05  # split rounding cut, its empty band
KBALANCE_TOL = 0.05  # largest tail residual of a pair balanced modulo tails

Frames = Tuple[Array, Array]  # orthonormal bases of a range and its complement


def _h(x: Array) -> Array:
    return x.conj().T


def half_lines(modes: int, dim: int) -> Tuple[int, int]:
    """Sizes of the half-line blocks n < 0 and n >= 0."""
    return dim * modes, dim * (modes + 1)


def _half_line_moduli(modes: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """|n| at every row of the half-line blocks n < 0 and n >= 0."""
    return (np.repeat(np.arange(modes, 0, -1), dim),
            np.repeat(np.arange(modes + 1), dim))


class TruncOp:
    """Operator on Fourier modes -N..N tensor C^dim, row (n+N)*dim + j, kept
    as its two half-line blocks n < 0 and n >= 0, with an upper bound on the
    norm of each block (inf, unknown, unless given)."""

    def __init__(self, modes: int, dim: int, blocks: Sequence[Array],
                 bounds: Optional[Sequence[float]] = None):
        blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        if [b.shape for b in blocks] != [(k, k) for k in half_lines(modes, dim)]:
            raise ShapeError(f"block shapes {[b.shape for b in blocks]} do not "
                             f"match (modes={modes}, dim={dim})")
        self.modes, self.dim, self.blocks = modes, dim, blocks
        self.bounds = (np.inf, np.inf) if bounds is None else tuple(bounds)

    @property
    def size(self) -> int:
        return self.dim * (2 * self.modes + 1)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def matrix(self) -> Array:
        """Dense block-diagonal view; built on every access."""
        return block_diag(*self.blocks)


def check_same_shape(a: TruncOp, b: TruncOp) -> None:
    """Raise ``ShapeError`` unless a and b share modes and dimension."""
    if a.modes != b.modes or a.dim != b.dim:
        raise ShapeError(f"operators must share modes and dimension, got "
                         f"(modes={a.modes}, dim={a.dim}) and "
                         f"(modes={b.modes}, dim={b.dim})")


@dataclass(frozen=True)
class TailCutoff:
    """Cutoff M < N: the tail band is M < |n| <= N - collar, with the collar
    N // ``DEFAULT_COLLAR_FRACTION``, and the interior window is |n| <= M.
    Both are given per half-line block, n < 0 and n >= 0."""

    m: int

    def band_masks(self, op_modes: int, op_dim: int) -> Tuple[np.ndarray, ...]:
        if self.m >= op_modes:
            raise ValueError(f"cutoff {self.m} must be below the mode count "
                             f"{op_modes}")
        top = op_modes - op_modes // DEFAULT_COLLAR_FRACTION
        return tuple((n > self.m) & (n <= top)
                     for n in _half_line_moduli(op_modes, op_dim))

    def interior_weights(self, op_modes: int, op_dim: int
                         ) -> Tuple[np.ndarray, ...]:
        """1.0 on the interior window and 0.0 elsewhere."""
        return tuple((n <= self.m).astype(float)
                     for n in _half_line_moduli(op_modes, op_dim))


# -- quantization -------------------------------------------------------------


def fourier_coefficients(loop: MatrixLoop, modes: int) -> Array:
    """Coefficients sigma_hat(k) in tau = 4t at index k mod grid: the DFT of
    the samples over the grid, which must resolve the lags -modes..modes
    that the half-line sections at ``modes`` read (2 modes + 2 samples)."""
    grid = loop.grid
    if grid < 2 * modes + 2:
        raise UndersampledError(
            f"{modes} modes read lags up to {modes}, which loop grid {grid} "
            f"cannot supply; need at least {2 * modes + 2} samples")
    return np.fft.fft(loop.samples, axis=0) / grid


def bandwidth_estimate(coeffs: Array) -> int:
    """Largest lag |k| < grid/2 whose coefficient norm exceeds
    ``BANDWIDTH_FLOOR`` times the largest, from a loop's
    ``fourier_coefficients``."""
    grid = coeffs.shape[0]
    lags = np.arange(1 - grid // 2, grid // 2)
    norms = np.linalg.norm(coeffs[lags % grid].reshape(lags.size, -1), axis=1)
    active = lags[norms > BANDWIDTH_FLOOR * norms.max()]
    return int(np.abs(active).max()) if active.size else 0


def _toeplitz_block(coeffs: Array, count: int) -> Array:
    """The count x count Toeplitz section (sigma_hat(r - c)) of
    ``fourier_coefficients``, as a (count d) x (count d) matrix.

    It reads only the lags r - c = -(count - 1)..count - 1 (Boettcher &
    Silbermann, Introduction to Large Truncated Toeplitz Matrices, 1999).
    Row r is the window of those lags in descending order that starts at
    count - 1 - r; the windows are views."""
    d = coeffs.shape[1]
    descending = coeffs[np.arange(count - 1, -count, -1) % coeffs.shape[0]]
    windows = np.lib.stride_tricks.sliding_window_view(descending, count,
                                                       axis=0)
    block = np.empty((count, d, count, d), dtype=coeffs.dtype)
    block[...] = windows[::-1].transpose(0, 1, 3, 2)  # (r, i, j, c)
    return block.reshape(count * d, count * d)


def _half_line_block(loop: MatrixLoop, modes: int, k: int) -> Array:
    """Toeplitz section of multiplication by the loop on half-line block k:
    n < 0 for k = 0, n >= 0 for k = 1."""
    return _toeplitz_block(fourier_coefficients(loop, modes),
                           half_lines(modes, 1)[k])


def _gated_block(name: str, loop: MatrixLoop, modes: int, k: int
                 ) -> Tuple[Array, float]:
    """The loop's half-line block k with its sample bound, from one FFT
    that also feeds the bandwidth gate: a loop whose spectral content the
    mode window cannot resolve is rejected."""
    coeffs = fourier_coefficients(loop, modes)
    bw = bandwidth_estimate(coeffs)
    if modes < 4 * bw:
        raise UndersampledError(
            f"{name} symbol bandwidth ~{bw} needs at least {4 * bw} "
            f"modes, got {modes}")
    return _toeplitz_block(coeffs, half_lines(modes, 1)[k]), _sample_bound(loop)


def _sample_bound(loop: MatrixLoop) -> float:
    """The largest norm over the loop's samples, which bounds the norm of
    each of its half-line blocks.

    A block has entries sigma_hat(r - c) with |r - c| < grid, so it is a
    principal compression of the block circulant of the grid's DFT
    coefficients; the DFT turns that circulant into the block diagonal of
    the samples, whose norm is this maximum.  The FFT rounds the entries by
    about count d log2(grid) 2.2e-16 (6e-13 for 514 x 514 at grid 2048),
    far inside ``CONTRACTION_SLACK``."""
    return float(stack_opnorm(loop.samples).max())


def quantize_symbol(plus: MatrixLoop, minus: MatrixLoop, modes: int) -> TruncOp:
    """Compression of multiplication operators to the two mode half-lines.

    Each loop is transformed once, and the transform feeds both the
    bandwidth gate, which rejects loops whose spectral content the mode
    window cannot resolve, and the loop's section (``_gated_block``).
    ``splitting_projection`` reads the raw half-line blocks of its symbol
    and skips the gate: the quality of a split is certified downstream
    (``verify_split_blocks``) rather than assumed.
    """
    if plus.dim != minus.dim:
        raise ShapeError("both symbol components must share the dimension")
    plus_block, plus_bound = _gated_block("plus", plus, modes, 1)
    minus_block, minus_bound = _gated_block("minus", minus, modes, 0)
    return TruncOp(modes, plus.dim, (minus_block, plus_block),
                   (minus_bound, plus_bound))


def quantize(sp: SymbolPair, modes: int) -> Tuple[TruncOp, TruncOp]:
    """Quantize both members of a symbol pair, with the sample bound of
    each block (``_sample_bound``), each distinct component loop once, by
    one FFT: where a loop of the second member has the samples of the
    first member's, the second operator holds the first one's block object
    (the identity - direction of every ``standard_symbol_pair``, and both
    directions when its two members coincide).  No stage writes into a
    block, so shared blocks stay equal."""
    d1 = quantize_symbol(sp.plus.sigma1, sp.minus.sigma1, modes)
    blocks, bounds = list(d1.blocks), list(d1.bounds)
    for name, lp, k in (("plus", sp.plus, 1), ("minus", sp.minus, 0)):
        if not np.array_equal(lp.sigma2.samples, lp.sigma1.samples):
            blocks[k], bounds[k] = _gated_block(name, lp.sigma2, modes, k)
    return d1, TruncOp(modes, sp.dim, blocks, bounds)


# -- contraction clipping ------------------------------------------------------


CONTRACTION_SLACK = 1e-9  # a block is kept when its norm is at most 1 + this


def _clipped(block: Array) -> Array:
    """The block with its singular values clipped to at most 1, or the block
    itself when its top singular value is at most 1 + ``CONTRACTION_SLACK``."""
    u, s, vh = np.linalg.svd(block)
    if s.size == 0 or s[0] <= 1.0 + CONTRACTION_SLACK:
        return block
    return (u * np.minimum(s, 1.0)[np.newaxis, :]) @ vh


def clip_to_contraction(*ops: TruncOp) -> Tuple[TruncOp, ...]:
    """Clip the singular values of every operator to at most 1; an operator
    whose blocks all stay put is returned itself.

    Compressions of contraction-valued multiplication operators are
    contractions, so a block whose recorded bound (``TruncOp.bounds``; for a
    quantized block the largest norm over its symbol's samples) is at most
    1 + ``CONTRACTION_SLACK`` is returned untouched, with no decomposition.
    Any other block, one with an unknown bound included, is decomposed by
    SVD and kept if its norm is at most 1 + ``CONTRACTION_SLACK``, else
    clipped exactly; a clipped operator's bounds are unknown.  A block
    object shared by several operators (see ``quantize``) is screened once,
    and the clipped operators share the result.
    """
    clipped: Dict[int, Array] = {}  # by the id of the input block
    out = []
    for op in ops:
        for b, bound in zip(op.blocks, op.bounds, strict=True):
            if id(b) not in clipped:
                clipped[id(b)] = (b if bound <= 1.0 + CONTRACTION_SLACK
                                  else _clipped(b))
        blocks = tuple(clipped[id(b)] for b in op.blocks)
        same = all(new is old for new, old in zip(blocks, op.blocks))
        out.append(op if same else TruncOp(op.modes, op.dim, blocks))
    return tuple(out)


# -- balanced modulo tails -------------------------------------------------------


@dataclass
class KBalanceReport:
    """Relation residuals in the tail seminorm at one cutoff.

    ``populated`` says whether the tail band holds at least one mode; an
    empty band measures nothing, reports zeros and fails the verdict.
    """

    cutoff: int
    residuals: Dict[str, float]
    populated: bool

    @property
    def verdict(self) -> bool:
        """Every residual within ``KBALANCE_TOL``, on a populated band."""
        return (self.populated
                and all(v <= KBALANCE_TOL for v in self.residuals.values()))

    def worst(self) -> float:
        return max(self.residuals.values())


def kbalance_report(a: TruncOp, b: TruncOp, cut: TailCutoff) -> KBalanceReport:
    """The twelve balanced-pair residuals in the tail seminorm at the cutoff
    M (``TailCutoff.band_masks`` raises ``ValueError`` unless M is below the
    mode count; a cutoff at or beyond the band end yields an empty band).

    Every residual of block-diagonal operators is block-diagonal, so each is
    the largest of its block residuals.  Only the band columns and rows of
    every residual are formed: each entry costs a thin slice of the block
    products, which keeps the report usable inside the index pipeline at
    its largest truncations.
    """
    check_same_shape(a, b)
    bands = cut.band_masks(a.modes, a.dim)
    values = np.max([relation_residuals(ab, bb, RELATIONS, band)
                     for ab, bb, band in zip(a.blocks, b.blocks, bands)],
                    axis=0)
    residuals = {name: value
                 for (name, _, _), value in zip(RELATIONS, values.tolist())}
    return KBalanceReport(cut.m, residuals, any(band.any() for band in bands))


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
        """Dense block-diagonal view; built on every access."""
        return block_diag(*(v @ _h(v) for v, _ in self.blocks))


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
    records = []
    for am, bm, (v, w), band, interior in zip(
            a.blocks, b.blocks, split.blocks, cut.band_masks(a.modes, a.dim),
            cut.interior_weights(a.modes, a.dim)):
        vh = _h(v)
        av = am @ v
        # where a and b hold one block object (see ``quantize``), a - b is
        # exactly zero there and B's products are A's
        bv = av if am is bm else bm @ v
        a1 = vh @ av
        b1 = a1 if bv is av else vh @ bv
        records.append(SplitBlock(am, bm, v, w, av, bv, a1, b1,
                                  band, vh @ (interior[:, None] * v)))
    return records


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
    values[key] = float(np.maximum(values.get(key, 0.0), value))  # keeps NaN


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
    Where a and b hold one block object (``quantize``), a - b is exactly
    zero: its difference blocks there are 0 and not formed, and b's defects
    are a's.
    """
    diff_blocks: Dict[str, float] = {}
    defect_blocks: Dict[str, float] = {}
    records = split_blocks(a, b, split, cut)
    for blk in records:
        same = blk.bv is blk.av  # a and b hold one block object
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


# the corner rows of the relation table with their bounds in multiples of eps
_CORNER_ROWS = tuple(RELATIONS[i] for i in (0, 1, 4, 5, 6, 7))
_CORNER_BOUNDS = (2, 2, 4, 4, 4, 4)


def verify_block_estimates(a: TruncOp, b: TruncOp, split: ModeSplit,
                           cut: TailCutoff, eps: float) -> BlockEstimateReport:
    """Tail-seminorm estimates on the (1,1) corner: rows 0, 1, 4, 5, 6 and 7
    of ``RELATIONS`` at (A1, B1) = (V*AV, V*BV) on each half-line block,
    keyed by the row names, each the largest over the blocks.  |a*a - b*b|
    and |aa* - bb*| are bounded by 2 eps, the four (a - b)-rows by 4 eps.

    These six rows are the closeness conditions of both comparison
    operators: rows 5 and 7 compare C = A|H1 with B, rows 4 and 6 compare
    C = B|H1 with A, and rows 0 and 1 serve both.  An expression X on H1 is
    the operator V X V* on the block; its tail seminorm is the norm of
    V[band] X V[band]*.
    """
    estimates: Dict[str, float] = {}
    for blk in split_blocks(a, b, split, cut):
        band_v = blk.v[blk.band]
        for (name, _, _), e in zip(_CORNER_ROWS, relation_matrices(
                blk.a1, blk.b1, _CORNER_ROWS, None)):
            _raise_to(estimates, name, opnorm(band_v @ e @ _h(band_v)))
    bounds = {name: k * eps
              for (name, _, _), k in zip(_CORNER_ROWS, _CORNER_BOUNDS)}
    return BlockEstimateReport(eps, estimates, bounds)
