"""Numerical balanced pairs of contraction matrices.

A pair (a, b) of square contractions is balanced when the four equal-defect
relations hold: a*a = b*b, aa* = bb*, a(1-a*a) = b(1-b*b) and
(1-aa*)a = (1-bb*)b.  The derived annihilation residuals are reported in the
orientation that actually follows from the relations: the difference a - b
kills the domain defects 1-a*a, 1-b*b on the right and the range defects
1-aa*, 1-bb* on the left, and adjointly for a* - b*.

The module also provides the canonical unitary c = 1 + b*(a - b) attached to
a balanced pair, the doubled homotopy paths used to show that swaps,
adjoints and canonical embeddings do not change the class of a pair, the
finite-dimensional defect/difference split, and the construction that turns
a unitary u into a balanced pair (f(u)g(u), g(u)) with g vanishing at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple

import numpy as np

from .errors import ShapeError
from .numkern import (Array, as_matrix, eig_unitary, nearest_projection, opnorm,
                      random_unitary, stack_opnorm)
from .relations import REL1_NAMES, REL2_NAMES, RELATIONS


def _adj(x: Array) -> Array:
    return x.conj().swapaxes(-1, -2)


def relation_residuals(a: Array, b: Array,
                       mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Operator norms of the twelve residuals of ``RELATIONS`` for every pair
    in (..., n, n) stacks; the result has shape (..., 12).

    With a boolean mask over the n coordinates every residual is compressed
    to the masked rows and columns, and only the masked columns of the
    defects are formed (a product compresses as X[mask, :] Y[:, mask]); an
    empty mask gives zeros.
    """
    sel = slice(None) if mask is None else np.flatnonzero(mask)
    eye = np.eye(a.shape[-1])[:, sel]
    rows = {"a": a[..., sel, :], "b": b[..., sel, :]}
    cols = {"a": a[..., sel], "b": b[..., sel]}
    rows["d"], cols["d"] = rows["a"] - rows["b"], cols["a"] - cols["b"]
    rows["d*"], cols["d*"] = _adj(cols["d"]), _adj(rows["d"])
    cols.update(qa=eye - _adj(a) @ cols["a"], qb=eye - _adj(b) @ cols["b"],
                pa=eye - a @ _adj(rows["a"]), pb=eye - b @ _adj(rows["b"]))

    def product(left: str, right: str) -> Array:
        if left == "1":
            return cols[right][..., sel, :]
        if left in rows:
            return rows[left] @ cols[right]
        # a defect is self-adjoint: its masked rows are the adjoint of its
        # masked columns, and without a mask it is whole
        return (cols[left] if mask is None else _adj(cols[left])) @ cols[right]

    norms = [stack_opnorm(product(*first) if second is None
                          else product(*first) - product(*second))
             for _, first, second in RELATIONS]
    return np.stack(norms, axis=-1)


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

    @property
    def max_residual(self) -> float:
        return max(self.max_rel1, max(self.rel2.values()))


def check_balanced(a: Array, b: Array, tol: float = 1e-10) -> BalanceReport:
    """Evaluate all relation residuals; the verdict uses the contraction
    bounds and the four defining relations only."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"need equal square shapes, got {a.shape} and {b.shape}")
    values = relation_residuals(a, b).tolist()
    rel1 = dict(zip(REL1_NAMES, values[:4]))
    rel2 = dict(zip(REL2_NAMES, values[4:]))
    norm_a, norm_b = opnorm(a), opnorm(b)
    balanced = (norm_a <= 1 + tol and norm_b <= 1 + tol
                and max(rel1.values()) <= tol)
    return BalanceReport(norm_a, norm_b, rel1, rel2, tol, balanced)


@dataclass(frozen=True)
class BalancedPair:
    """A pair of same-shape square contractions with a residual tolerance."""

    a: Array
    b: Array
    tol: float = 1e-10

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def report(self) -> BalanceReport:
        return check_balanced(self.a, self.b, self.tol)

    def validate(self) -> "BalancedPair":
        rep = self.report()
        if not rep.balanced:
            raise ValueError(
                f"pair is not balanced within {self.tol:.1e}: "
                f"max relation residual {rep.max_rel1:.3e}, "
                f"norms ({rep.norm_a:.6f}, {rep.norm_b:.6f})")
        return self


def random_balanced_pair(dim: int, seed: int,
                         unitary_dim: Optional[int] = None) -> BalancedPair:
    """An exactly balanced pair: unitarily mixed unitary block plus a shared
    strict-contraction block (every finite balanced pair splits this way up
    to the crossed-defect degeneracies)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, dim + 1)) if unitary_dim is None else unitary_dim
    if not 0 <= k <= dim:
        raise ValueError(f"unitary_dim must lie in [0, {dim}]")
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
    a = q @ _block_diag(*blocks_a) @ q.conj().T
    b = q @ _block_diag(*blocks_b) @ q.conj().T
    return BalancedPair(a, b, tol=1e-10)


def _block_diag(*blocks: Array) -> Array:
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


# -- the canonical unitary -----------------------------------------------------


def make_c(pair: BalancedPair) -> Array:
    """c = 1 + b*(a - b); unitary for balanced pairs and satisfies bc = a."""
    a, b = pair.a, pair.b
    return np.eye(pair.dim) + b.conj().T @ (a - b)


def verify_c_properties(pair: BalancedPair) -> Dict[str, float]:
    """Residuals of the canonical-unitary identities.

    Keys: unitarity of c and of the flipped 1 + (a-b)b*, the carrying
    identity bc = a, the commutator [b*b, c], and the two annihilations
    (1-b*b)(c-1) and (c-1)(1-b*b).
    """
    a, b = pair.a, pair.b
    eye = np.eye(pair.dim)
    c = make_c(pair)
    c_flip = eye + (a - b) @ b.conj().T
    btb = b.conj().T @ b
    qb = eye - btb
    return {
        "c*c-1": opnorm(c.conj().T @ c - eye),
        "cc*-1": opnorm(c @ c.conj().T - eye),
        "flip*flip-1": opnorm(c_flip.conj().T @ c_flip - eye),
        "flipflip*-1": opnorm(c_flip @ c_flip.conj().T - eye),
        "bc-a": opnorm(b @ c - a),
        "[b*b,c]": opnorm(btb @ c - c @ btb),
        "(1-b*b)(c-1)": opnorm(qb @ (c - eye)),
        "(c-1)(1-b*b)": opnorm((c - eye) @ qb),
    }


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
    samples: int = 101

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}; "
                             f"expected one of {PATH_KINDS}")


def rotation_block(t: float, dim: int) -> Array:
    """The 2x2 rotation [[cos, -sin], [sin, cos]] acting blockwise on C^dim."""
    c, s = np.cos(t), np.sin(t)
    eye = np.eye(dim)
    return np.block([[c * eye, -s * eye], [s * eye, c * eye]])


def homotopy_eval(path: HomotopyPath, t: float) -> Tuple[Array, Array]:
    """The pair of matrices at parameter t in [0, pi/2]."""
    if not -1e-12 <= t <= np.pi / 2 + 1e-12:
        raise ValueError(f"parameter {t} outside [0, pi/2]")
    a, b = path.base.a, path.base.b
    dim = path.base.dim
    eye = np.eye(dim)
    if path.kind == "linear-trivial":
        factor = t / (np.pi / 2)
        return factor * a, factor * a
    u = rotation_block(t, dim)
    if path.kind == "swap":
        inner = _block_diag(a, b)
        return inner, u.conj().T @ inner @ u
    if path.kind == "adjoint":
        def side(x: Array) -> Array:
            return u.conj().T @ _block_diag(eye, x.conj().T) @ u @ _block_diag(x, eye)
        return side(a), side(b)
    # canonical
    c = make_c(path.base)
    left = _block_diag(c, b)
    right = _block_diag(eye, b) @ u.conj().T @ _block_diag(eye, c) @ u
    return left, right


@dataclass
class PathReport:
    kind: str
    grid: int
    max_residual: float
    worst_t: float
    ok: bool


def validate_path(path: HomotopyPath, grid: int = 101,
                  tol: Optional[float] = None) -> PathReport:
    """Check balancedness at uniformly spaced parameters; grid >= 2."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    tol = path.base.tol if tol is None else tol
    ts = np.linspace(0.0, np.pi / 2, grid)
    left, right = zip(*(homotopy_eval(path, float(t)) for t in ts))
    rel1 = relation_residuals(np.stack(left), np.stack(right))[:, :4].max(axis=1)
    k = int(np.argmax(rel1))
    worst = float(rel1[k])
    return PathReport(path.kind, grid, worst, float(ts[k]), worst <= tol)


# -- finite split ----------------------------------------------------------------


@dataclass
class FiniteSplit:
    """Projection onto the defect support with the block residuals."""

    p1: Array
    residual_defect_offblock: float
    residual_diff_onblock: float


def finite_split(pair: BalancedPair, threshold: float = 1e-8) -> FiniteSplit:
    """Split C^n into defect support and its complement.

    P1 projects onto the eigenvalues of (1-a*a) + (1-aa*) above the
    threshold.  For pairs whose difference is supported away from both kinds
    of defect (all pairs produced by :func:`random_balanced_pair`), the two
    residuals vanish up to roundoff; crossed-defect pairs such as
    ([[0,0],[1,0]], -[[0,0],[1,0]]) genuinely fail the second residual, and
    the report is the honest answer.
    """
    a, b = pair.a, pair.b
    eye = np.eye(pair.dim)
    qa = eye - a.conj().T @ a
    pa = eye - a @ a.conj().T
    w, v = np.linalg.eigh((qa + pa + (qa + pa).conj().T) / 2)
    keep = v[:, w > threshold]
    support = keep @ keep.conj().T
    p1 = nearest_projection(support, tol=1e-8)
    comp = eye - p1
    defect_off = max(
        opnorm(comp @ qa @ comp) + opnorm(p1 @ qa @ comp) + opnorm(comp @ qa @ p1),
        opnorm(comp @ pa @ comp) + opnorm(p1 @ pa @ comp) + opnorm(comp @ pa @ p1),
    )
    diff = a - b
    diff_on = opnorm(p1 @ diff) + opnorm(diff @ p1)
    return FiniteSplit(p1, defect_off, diff_on)


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
