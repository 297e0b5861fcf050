"""Numerical balanced pairs of contraction matrices.

A pair (a, b) of square contractions is balanced when the four equal-defect
relations hold: a*a = b*b, aa* = bb*, a(1-a*a) = b(1-b*b) and
(1-aa*)a = (1-bb*)b.  The derived annihilation residuals are reported in the
orientation that actually follows from the relations: the difference a - b
kills the domain defects 1-a*a, 1-b*b on the right and the range defects
1-aa*, 1-bb* on the left, and adjointly for a* - b*; every residual is a row
of ``relations.RELATIONS``.

The module also provides the canonical unitary c = 1 + b*(a - b) attached to
a balanced pair, an evaluator of the exact *-polynomials of ``starpoly`` at
a pair of matrices, the doubled homotopy paths used to show that swaps,
adjoints and canonical embeddings do not change the class of a pair, and
the construction that turns a unitary u into a balanced pair
(f(u)g(u), g(u)) with g vanishing at 1.

The swap, adjoint and canonical paths are written once, as the 2x2 matrices
over *-polynomials that the identity suite certifies
(``starpoly.suites.path_pair``); ``homotopy_eval`` evaluates them at
s = sin t, c = cos t for a whole array of parameters at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Literal, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError
from .numkern import (Array, adjoint_matmul, as_matrix, block_diag, eig_unitary,
                      opnorm, random_unitary, stack_opnorm)
from .relations import REL1, REL1_NAMES, REL2_NAMES, RELATIONS, TWINS


def _adj(x: Array) -> Array:
    return x.conj().swapaxes(-1, -2)


def relation_matrices(a: Array, b: Array, rows: Sequence[tuple],
                      mask: Optional[np.ndarray]) -> Iterator[Array]:
    """The residual matrix of each given row of ``RELATIONS`` for every pair
    in (..., n, n) stacks, one row at a time.

    With a boolean mask over the n coordinates every residual is compressed
    to the masked rows and columns, and only the masked columns of the
    defects are formed (a product compresses as X[mask, :] Y[:, mask]).
    """
    sel = slice(None) if mask is None else np.flatnonzero(mask)
    eye = np.eye(a.shape[-1])[:, sel]
    by_row = {"a": a[..., sel, :], "b": b[..., sel, :]}
    by_col = {"a": a[..., sel], "b": b[..., sel]}
    by_row["d"], by_col["d"] = by_row["a"] - by_row["b"], by_col["a"] - by_col["b"]
    by_row["d*"], by_col["d*"] = _adj(by_col["d"]), _adj(by_row["d"])
    by_col.update(qa=eye - adjoint_matmul(a, by_col["a"]),
                  qb=eye - adjoint_matmul(b, by_col["b"]),
                  pa=eye - a @ _adj(by_row["a"]), pb=eye - b @ _adj(by_row["b"]))

    def product(left: str, right: str) -> Array:
        if left == "1":
            return by_col[right][..., sel, :]
        if left in by_row:
            return by_row[left] @ by_col[right]
        # a defect is self-adjoint: its masked rows are the adjoint of its
        # masked columns, and without a mask it is whole
        return (by_col[left] if mask is None else _adj(by_col[left])) @ by_col[right]

    for _, first, second in rows:
        yield (product(*first) if second is None
               else product(*first) - product(*second))


def relation_residuals(a: Array, b: Array, rows: Sequence[tuple],
                       mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Operator norms of ``relation_matrices`` for the given rows (``RELATIONS``,
    or the defining four as ``REL1``), of shape (..., len(rows)); an empty
    mask gives zeros, with nothing evaluated.

    A row whose twin (``relations.TWINS``) is also given is not evaluated: it
    takes its twin's norm.  Where a - b is exactly zero every residual is,
    and nothing is evaluated.
    """
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-2] + (len(rows),))
    if mask is not None and not mask.any():
        return out
    if a is b or np.array_equal(a, b):
        return out
    names = [name for name, _, _ in rows]
    own = [i for i, name in enumerate(names) if TWINS.get(name) not in names]
    for i, matrix in zip(own, relation_matrices(a, b, [rows[i] for i in own], mask)):
        out[..., i] = stack_opnorm(matrix)
    for i, name in enumerate(names):
        if i not in own:
            out[..., i] = out[..., names.index(TWINS[name])]
    return out


@dataclass
class BalanceReport:
    """The twelve named relation residuals plus contraction norms."""

    norm_a: float
    norm_b: float
    rel1: Dict[str, float]
    rel2: Dict[str, float]
    tol: float
    balanced: bool

    @property
    def max_rel1(self) -> float:
        return max(self.rel1.values())


def check_tolerance(tol: float) -> None:
    """Raise ``ValueError`` unless the residual tolerance is at least 0 (a
    NaN tolerance fails too)."""
    if not tol >= 0:
        raise ValueError(f"tolerance tol must be at least 0, got {tol}")


def check_balanced(a: Array, b: Array, tol: float) -> BalanceReport:
    """Evaluate all relation residuals; the verdict uses the contraction
    bounds and the four defining relations only."""
    check_tolerance(tol)
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"need equal square shapes, got {a.shape} and {b.shape}")
    values = relation_residuals(a, b, RELATIONS).tolist()
    rel1 = dict(zip(REL1_NAMES, values[:4]))
    rel2 = dict(zip(REL2_NAMES, values[4:]))
    norm_a, norm_b = opnorm(a), opnorm(b)
    balanced = (norm_a <= 1 + tol and norm_b <= 1 + tol
                and max(rel1.values()) <= tol)
    return BalanceReport(norm_a, norm_b, rel1, rel2, tol, balanced)


@dataclass(frozen=True)
class BalancedPair:
    """A pair of same-shape square contractions.  ``tol`` records the
    tolerance the pair was built to; no check in the package reads it."""

    a: Array
    b: Array
    tol: float = 1e-10

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def random_balanced_pair(dim: int, seed: int) -> BalancedPair:
    """An exactly balanced pair: unitarily mixed unitary block plus a shared
    strict-contraction block (every finite balanced pair splits this way up
    to the crossed-defect degeneracies).  The seed also draws the size of the
    unitary block, anywhere from 0 to dim."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, dim + 1))
    blocks_a, blocks_b = [], []
    if k:
        blocks_a.append(random_unitary(k, seed * 7 + 1))
        blocks_b.append(random_unitary(k, seed * 7 + 2))
    if dim - k:
        m = dim - k
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        u, s, vh = np.linalg.svd(z)
        shared = (u * (0.9 * s / (s.max() + 1e-12))) @ vh
        blocks_a.append(shared)
        blocks_b.append(shared)
    q = random_unitary(dim, seed * 7 + 3)
    a = q @ block_diag(*blocks_a) @ q.conj().T
    b = q @ block_diag(*blocks_b) @ q.conj().T
    return BalancedPair(a, b)


# -- the canonical unitary -----------------------------------------------------


def canonical_unitary(a: Array, b: Array) -> Array:
    """c = 1 + b*(a - b) for every pair in (..., n, n) stacks; unitary for
    balanced pairs, and bc = a.  Where a - b is exactly zero, c is the
    identity and no product is formed."""
    diff = None if a is b else a - b
    if diff is None or not diff.any():
        eye = np.eye(a.shape[-1])
        return np.broadcast_to(eye.astype(np.result_type(eye, a, b)),
                               np.broadcast_shapes(a.shape, b.shape)).copy()
    # b*(a - b) is the conjugate of b^T conj(a - b); the difference is
    # conjugated in place, so no copy of b* is formed, and 1 is added on
    # the diagonal in place
    c = np.swapaxes(b, -1, -2) @ np.conjugate(diff, out=diff)
    np.conjugate(c, out=c)
    diagonal = np.arange(c.shape[-1])
    c[..., diagonal, diagonal] += 1
    return c


def make_c(pair: BalancedPair) -> Array:
    """The canonical unitary of a pair."""
    return canonical_unitary(pair.a, pair.b)


# -- evaluating *-polynomials ----------------------------------------------------


def evaluator(a: Array, b: Array):
    """The evaluation of *-polynomials at the letters a, b, as a function
    ``value(poly, s, c)``: the matrix of a *-polynomial at a, b and the
    central symbols s, c, the sum of q s^e c^f W over its terms, W the word
    in a, a*, b, b*.  s and c broadcast against each other and against
    stacks of a, b; for n x n letters the shape is broadcast(s, c) + (n, n).
    Each word product is formed once, on first use."""
    # keyed by the letter codes of a word: a, a*, b, b* are 0, 1, 2, 3
    letters = {(0,): a, (1,): _adj(a), (2,): b, (3,): _adj(b)}
    words = {(): np.eye(a.shape[-1]), **letters}

    def product(word):
        if word not in words:
            words[word] = product(word[:-1]) @ letters[word[-1:]]
        return words[word]

    def value(poly, s, c) -> Array:
        s, c = np.asarray(s, dtype=float), np.asarray(c, dtype=float)
        shape = np.broadcast_shapes(s.shape + (1, 1), c.shape + (1, 1), a.shape)
        out = np.zeros(shape, dtype=np.complex128)
        for m, q in poly.items():
            # complex(q) rounds each part once, as float(Fraction) does
            scale = complex(q)
            if not scale.imag:
                scale = scale.real
            for _ in range(m.s_exp):
                scale = scale * s
            for _ in range(m.c_exp):
                scale = scale * c
            out += np.asarray(scale)[..., None, None] * product(m.word)
        return out

    return value


# -- homotopy paths -------------------------------------------------------------

PathKind = Literal["linear-trivial", "swap", "adjoint", "canonical"]

PATH_KINDS: Tuple[str, ...] = ("linear-trivial", "swap", "adjoint", "canonical")


@dataclass(frozen=True)
class HomotopyPath:
    """A parametrized family of balanced pairs over t in [0, pi/2].

    Kinds:

    * ``linear-trivial``: (t a, t a) scaled linearly, contracting the pair
      (a, a) to (0, 0);
    * ``swap``: (a ⊕ b, U_t*(a ⊕ b)U_t), joining (a ⊕ b, a ⊕ b) to
      (a ⊕ b, b ⊕ a);
    * ``adjoint``: (U_t*(1 ⊕ x*)U_t (x ⊕ 1)) for x = a and x = b, joining
      (a ⊕ a*, b ⊕ b*) to the equal endpoints (a*a ⊕ 1, b*b ⊕ 1);
    * ``canonical``: (c ⊕ b, (1 ⊕ b)U_t*(1 ⊕ c)U_t) with c = 1 + b*(a-b),
      joining the right entry from 1 ⊕ a to c ⊕ b.
    """

    kind: PathKind
    base: BalancedPair

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}; "
                             f"expected one of {PATH_KINDS}")


def homotopy_eval(path: HomotopyPath, t) -> Tuple[Array, Array]:
    """The pair at a parameter t in [0, pi/2], or the stacks of pairs, of
    shape t.shape + (2n, 2n), at an array of parameters.

    The swap, adjoint and canonical pairs are the certified 2x2 matrices of
    ``starpoly.suites.path_pair`` evaluated at s = sin t, c = cos t.
    """
    t = np.asarray(t, dtype=float)
    outside = t[(t < -1e-12) | (t > np.pi / 2 + 1e-12)]
    if outside.size:
        raise ValueError(f"parameter {outside[0]} outside [0, pi/2]")
    a, b = path.base.a, path.base.b
    if path.kind == "linear-trivial":
        factor = np.asarray(t / (np.pi / 2))[..., None, None]
        return factor * a, factor * a
    # the symbolic engine is imported on first use: workloads that never
    # evaluate a path do not pay for it
    from .starpoly.suites import path_pair
    value, s, c = evaluator(a, b), np.sin(t), np.cos(t)
    return tuple(np.block([[value(x, s, c) for x in row] for row in mat])
                 for mat in path_pair(path.kind))


@dataclass
class PathReport:
    kind: str
    grid: int
    max_residual: float
    worst_t: float
    ok: bool


def validate_path(path: HomotopyPath, grid: int, tol: float) -> PathReport:
    """Check balancedness at ``grid`` >= 2 uniformly spaced parameters: the
    path passes when every defining residual is at most ``tol``."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    check_tolerance(tol)
    ts = np.linspace(0.0, np.pi / 2, grid)
    left, right = homotopy_eval(path, ts)
    rel1 = relation_residuals(left, right, REL1).max(axis=1)
    k = int(np.argmax(rel1))
    worst = float(rel1[k])
    return PathReport(path.kind, grid, worst, float(ts[k]), worst <= tol)


# -- unitalization construction ---------------------------------------------------


def _arc_angle(delta: float) -> float:
    # chord length delta around z = 1 corresponds to this arc half-angle
    return 2.0 * np.arcsin(delta / 2.0)


def flat_circle_map(theta: np.ndarray, delta: float) -> np.ndarray:
    """Unit-modulus map flattening the delta-arc at 1.

    Returns phase angles phi with phi = 0 on |theta| <= arc(delta), a linear
    catch-up on the next arc, and phi = theta beyond; |phi - theta| never
    exceeds arc(delta), so |f(z) - z| <= delta on the whole circle.
    """
    th = _arc_angle(delta)
    mag = np.abs(theta)
    phi = np.where(mag <= th, 0.0,
                   np.where(mag <= 2 * th, 2.0 * (mag - th), mag))
    return np.sign(theta) * phi


def bump_from_one(theta: np.ndarray, delta: float) -> np.ndarray:
    """Smooth ramp vanishing at angle 0 and equal to 1 off the delta-arc."""
    th = _arc_angle(delta)
    x = np.clip(np.abs(theta) / th, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def unitalization_pair(u: Array, delta: float, tol: float = 1e-8) -> BalancedPair:
    """Balanced pair (f(u)g(u), g(u)) built by functional calculus.

    f is unit-modulus, equals 1 on the delta-arc around 1 and stays within
    delta of the identity map; g is a real bump vanishing at 1, below 1 in
    modulus, and equal to 1 off the arc.  Wherever f differs from 1 the
    modulus of g is exactly 1, so the scalar pair (fg, g) is balanced at
    every point of the spectrum.
    """
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError(f"delta must lie in (0, 1/3), got {delta}")
    eigs, q = eig_unitary(u, tol=tol)
    theta = np.angle(eigs)
    f_vals = np.exp(1j * flat_circle_map(theta, delta))
    g_vals = bump_from_one(theta, delta).astype(np.complex128)
    a = (q * (f_vals * g_vals)[np.newaxis, :]) @ q.conj().T
    b = (q * g_vals[np.newaxis, :]) @ q.conj().T
    return BalancedPair(a, b, tol=tol)
