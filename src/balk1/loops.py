"""Matrix-valued loops on the circle and the topological index of symbol pairs.

Loops are sampled on the glued parameter interval [0, pi/2) at N uniform
points; sample 0 represents both endpoints.  A LoopPair is a pair of loops,
which the constructions here validate as pointwise balanced to ``PAIR_TOL``;
a SymbolPair carries one LoopPair per cosphere direction (+1 for
nonnegative Fourier modes, -1 for negative ones).

The orientation convention lives in exactly one place: ``topo_index``
returns  wind(det c_minus) - wind(det c_plus)  where c = 1 + sigma2*(sigma1
- sigma2) is the pointwise canonical unitary.  With the Hardy half chosen as
modes n >= 0 this matches the analytic index of the quantized pair (the
compression of multiplication by one forward loop turn has index -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .balanced import BalancedPair, canonical_unitary, relation_residuals
from .errors import ConstraintError, NotUnitaryError, ShapeError, WindingError
from .numkern import Array, stack_opnorm
from .relations import REL1

HALF_PI = np.pi / 2
RAMP_HALF_WIDTH = 0.1  # of the split line's turn at the glued endpoint
MIN_MODULUS = 0.5  # a loop whose winding is read stays this far from zero
PAIR_TOL = 1e-10  # pointwise residual bound of the constructed pairs
# unitarity gate of the canonical loops that topo_index reads, fixed so
# that no stored pair can widen it: c*c - 1 stays within a small multiple
# of a pair's balance residual
UNITARITY_TOL = 50 * PAIR_TOL


@dataclass(frozen=True)
class MatrixLoop:
    """Uniform samples of a matrix function on the glued interval [0, pi/2)."""

    samples: Array  # shape (grid, dim, dim)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ShapeError(f"loop samples must be (grid, d, d), got {arr.shape}")
        object.__setattr__(self, "samples", arr)

    @property
    def grid(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @staticmethod
    def from_function(fn: Callable[[float], Array], grid: int) -> "MatrixLoop":
        ts = HALF_PI * np.arange(grid) / grid
        first = np.atleast_2d(np.asarray(fn(float(ts[0])), dtype=np.complex128))
        out = np.empty((grid, *first.shape), dtype=np.complex128)
        out[0] = first
        for k in range(1, grid):
            out[k] = np.atleast_2d(np.asarray(fn(float(ts[k])), dtype=np.complex128))
        return MatrixLoop(out)

    @staticmethod
    def constant(matrix: Array, grid: int) -> "MatrixLoop":
        m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
        return MatrixLoop(np.broadcast_to(m, (grid, *m.shape)).copy())


# a splitting symbol: projection-valued loops on the + and - directions
SplitSymbol = Tuple[MatrixLoop, MatrixLoop]


@dataclass(frozen=True)
class LoopPair:
    """Two loops of one grid and dimension; balanced pointwise when
    ``validate(tol)`` accepts them.  The pair holds no tolerance: each
    check states its own."""

    sigma1: MatrixLoop
    sigma2: MatrixLoop

    def __post_init__(self):
        if (self.sigma1.grid != self.sigma2.grid
                or self.sigma1.dim != self.sigma2.dim):
            raise ShapeError("loop pair entries must share grid and dimension")

    @property
    def grid(self) -> int:
        return self.sigma1.grid

    @property
    def dim(self) -> int:
        return self.sigma1.dim

    def max_pointwise_residual(self) -> float:
        a, b = self.sigma1.samples, self.sigma2.samples
        worst = float(relation_residuals(a, b, REL1).max(initial=0.0))
        norms = float(np.max(stack_opnorm(np.stack((a, b))), initial=0.0))
        return float(np.max([worst, norms - 1.0, 0.0]))  # keeps a NaN

    def validate(self, tol: float) -> "LoopPair":
        worst = self.max_pointwise_residual()
        if not worst <= tol:  # a NaN residual fails too
            raise ValueError(f"loop pair is not pointwise balanced: "
                             f"worst residual {worst:.3e} > {tol:.1e}")
        return self

    def pair_at(self, k: int) -> BalancedPair:
        return BalancedPair(self.sigma1.samples[k], self.sigma2.samples[k])


@dataclass(frozen=True)
class SymbolPair:
    """One balanced loop pair per cosphere direction of the circle."""

    plus: LoopPair
    minus: LoopPair

    def __post_init__(self):
        if self.plus.dim != self.minus.dim:
            raise ShapeError("both components of a symbol pair must share dim")

    @property
    def dim(self) -> int:
        return self.plus.dim


# -- constructions ----------------------------------------------------------------


def rotation_2x2(t: float) -> Array:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rotating_diagonal_pair(alpha: Callable[[float], complex],
                           beta: Callable[[float], complex],
                           gamma: Callable[[float], complex],
                           grid: int) -> LoopPair:
    """The 2x2 pair (U* diag(alpha, gamma) U, U* diag(beta, gamma) U).

    alpha and beta must be unimodular, gamma strictly contractive on the
    open interval, and all three equal to 1 at both glued endpoints.  The
    pair is balanced pointwise because the unimodular entries contribute no
    defect and the shared gamma entry cancels in every relation; it is
    validated to ``PAIR_TOL``.
    """
    ts = HALF_PI * np.arange(grid) / grid
    values = {}
    for name, fn, unimodular in (("alpha", alpha, True), ("beta", beta, True),
                                 ("gamma", gamma, False)):
        # the grid points, then the far glued endpoint
        at = np.array([complex(fn(float(t))) for t in ts] + [complex(fn(HALF_PI))])
        for endpoint, value in ((0.0, at[0]), (HALF_PI, at[-1])):
            if abs(value - 1.0) > 1e-9:
                raise ConstraintError(
                    f"{name}({endpoint:.4f}) = {value:.6f} must equal 1")
        moduli = np.abs(at[1:-1])
        bad = np.abs(moduli - 1.0) > 1e-9 if unimodular else moduli >= 1.0 - 1e-12
        if bad.any():
            k = int(np.argmax(bad)) + 1
            rule = ("must be 1 on the grid" if unimodular
                    else "must stay below 1 on the open interval")
            raise ConstraintError(f"|{name}(t)| {rule}; got {abs(at[k]):.6f} "
                                  f"at t = {float(ts[k]):.4f}")
        values[name] = at[:-1]

    # U(t)* diag(x, gamma) U(t) at every grid point at once
    u = np.moveaxis(rotation_2x2(ts), -1, 0)
    uh = u.conj().transpose(0, 2, 1)
    s1, s2 = (MatrixLoop((uh * np.stack((values[x], values["gamma"]), axis=-1)
                          [:, np.newaxis, :]) @ u) for x in ("alpha", "beta"))
    return LoopPair(s1, s2).validate(PAIR_TOL)


def default_gamma(t: float) -> complex:
    return 1.0 - np.sin(2.0 * t) / 2.0


def turn(p: int) -> Callable[[float], complex]:
    """t -> exp(4 i p t): p full loop turns over the glued interval."""
    return lambda t: np.exp(4j * p * t)


def standard_symbol_pair(p: int, q: int, grid: int,
                         gamma: Optional[Callable[[float], complex]] = None
                         ) -> SymbolPair:
    """Symbol pair carried entirely on the + direction: the rotating diagonal
    pair with alpha, beta turning p and q times, identity on the - direction."""
    gamma = default_gamma if gamma is None else gamma
    plus = rotating_diagonal_pair(turn(p), turn(q), gamma, grid)
    eye_loop = MatrixLoop.constant(np.eye(2), grid)
    minus = LoopPair(eye_loop, eye_loop)
    return SymbolPair(plus, minus)


def standard_split_symbol(grid: int) -> SplitSymbol:
    """Splitting symbol of every ``standard_symbol_pair``: the rotating line
    on the + direction, where the difference lives, and zero on the identity
    - direction."""
    return (subbundle_projection_loop(grid),
            MatrixLoop.constant(np.zeros((2, 2)), grid))


def vanishing_point_pair(grid: int,
                         h: Optional[Callable[[float], float]] = None,
                         tol: float = 1e-12) -> LoopPair:
    """Scalar balanced pair (h e^{i chi}, h) whose entries vanish at sample 0.

    The default modulus h ramps smoothly 0 -> 1 -> 0 over the glued interval
    and the phase chi makes one full turn supported where h is exactly 1, so
    the pair is balanced to machine precision at every sample.
    """
    if h is None:
        def h(t: float) -> float:
            x = np.clip(t / (np.pi / 8), 0.0, 1.0)
            y = np.clip((HALF_PI - t) / (np.pi / 8), 0.0, 1.0)
            ramp = lambda z: z * z * (3 - 2 * z)
            return float(ramp(x) * ramp(y))

    def chi(t: float) -> float:
        lo, hi = np.pi / 8, 3 * np.pi / 8
        x = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
        return float(2 * np.pi * x * x * (3 - 2 * x))

    def a_fn(t: float) -> Array:
        return np.array([[h(t) * np.exp(1j * chi(t))]])

    def b_fn(t: float) -> Array:
        return np.array([[h(t) + 0j]])

    s1 = MatrixLoop.from_function(a_fn, grid)
    s2 = MatrixLoop.from_function(b_fn, grid)
    return LoopPair(s1, s2).validate(tol)


def subbundle_projection_loop(grid: int) -> MatrixLoop:
    """Projection-valued loop onto the rotating line span(cos t, -sin t).

    The raw line field jumps by a quarter turn across the glued endpoint, so
    within ``RAMP_HALF_WIDTH`` of it the angle is carried by a C^1 ramp
    completing the extra half turn, which makes the loop a genuinely
    continuous projection field on the circle.
    """
    window = RAMP_HALF_WIDTH
    lo = HALF_PI - window

    def angle(t: float) -> float:
        if window <= t <= lo:
            return t
        # wrapped coordinate through the glued endpoint, x in [0, 1]
        x = (t - lo) / (2 * window) if t > lo else (t + window) / (2 * window)
        psi0, psi1 = lo, np.pi + window
        m = 2 * window  # endpoint slope matching d(psi)/dx = slope * dt/dx
        h00 = 3 * x * x - 2 * x ** 3
        h10 = x ** 3 - 2 * x * x + x
        h11 = x ** 3 - x * x
        return psi0 + (psi1 - psi0) * h00 + m * (h10 + h11)

    def proj(t: float) -> Array:
        psi = angle(t)
        vec = np.array([np.cos(psi), -np.sin(psi)], dtype=np.complex128)
        return np.outer(vec, vec.conj())

    return MatrixLoop.from_function(proj, grid)


# -- winding and the topological index ----------------------------------------------


def winding(values: np.ndarray) -> int:
    """Winding number of a sampled scalar loop by phase-increment summation.

    Requires every sample to stay at least ``MIN_MODULUS`` away from zero and
    successive phase jumps strictly below pi; the accumulated phase must land
    within 0.1 turns of an integer.
    """
    values = np.asarray(values, dtype=np.complex128).ravel()
    moduli = np.abs(values)
    if not moduli.min() >= MIN_MODULUS:  # a NaN sample fails too
        raise WindingError(
            f"loop modulus {moduli.min():.3e} below the floor {MIN_MODULUS:.3e}")
    jumps = np.angle(np.roll(values, -1) / values)
    if np.abs(jumps).max() >= np.pi * (1 - 1e-9):
        raise WindingError("phase jump of at least pi: grid too coarse")
    total = jumps.sum() / (2 * np.pi)
    nearest = int(np.rint(total))
    residue = abs(total - nearest)
    if residue >= 0.1:
        raise WindingError(f"winding residue {residue:.3f} exceeds 0.1")
    return nearest


def canonical_unitary_loop(lp: LoopPair) -> MatrixLoop:
    """Pointwise c = 1 + sigma2*(sigma1 - sigma2)."""
    return MatrixLoop(canonical_unitary(lp.sigma1.samples, lp.sigma2.samples))


def _certified_unitary_dets(lp: LoopPair) -> np.ndarray:
    # c is the identity wherever sigma1 - sigma2 is exactly zero, without
    # reading the samples, so a non-finite sample is rejected here
    for loop in (lp.sigma1, lp.sigma2):
        if not np.isfinite(loop.samples).all():
            raise NotUnitaryError("canonical loop of non-finite samples")
    c = canonical_unitary_loop(lp)
    eye = np.eye(lp.dim)[np.newaxis]
    defect = float(np.max(stack_opnorm(
        c.samples.conj().transpose(0, 2, 1) @ c.samples - eye), initial=0.0))
    if not defect <= UNITARITY_TOL:
        raise NotUnitaryError(f"canonical loop unitarity defect {defect:.3e} "
                              f"exceeds {UNITARITY_TOL:.1e}")
    return np.linalg.det(c.samples)


def topo_index(sp: SymbolPair) -> int:
    """wind(det c_minus) - wind(det c_plus); the sign convention of record."""
    det_plus = _certified_unitary_dets(sp.plus)
    det_minus = _certified_unitary_dets(sp.minus)
    return winding(det_minus) - winding(det_plus)
