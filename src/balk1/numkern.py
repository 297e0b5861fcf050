"""Dense complex matrix kernel.

Explicitly-toleranced helpers over LAPACK via numpy: operator norms of
single matrices and of (..., m, n) stacks (one kernel, from the top
eigenvalue of a scaled Gram matrix, in closed form when it is 1 x 1 or
2 x 2), block-diagonal assembly, Haar-random unitaries and the spectral
decomposition of unitaries through a Cayley transform to a Hermitian
matrix.  Matrices are complex128 arrays; numpy is
the only dependency.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import NotUnitaryError, ShapeError

Array = np.ndarray


def as_matrix(x) -> Array:
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
    return m


def opnorm(x: Array) -> float:
    """Largest singular value through ``stack_opnorm``; 0 for empty and
    all-zero matrices, which are not decomposed."""
    x = as_matrix(x)
    if not x.any():
        return 0.0
    return float(stack_opnorm(x))


def adjoint_matmul(x: Array, y: Array) -> Array:
    """x* y for (..., n, m) stacks x and (..., n, k) stacks y, formed as the
    conjugate of x^T conj(y), so no copy of x* is made."""
    out = x.swapaxes(-1, -2) @ y.conj()
    np.conjugate(out, out=out)
    return out


def stack_opnorm(x: Array) -> np.ndarray:
    """Largest singular value of every matrix in a (..., m, n) stack, with
    the stack's leading shape; 0 for empty and all-zero matrices.

    Each matrix X is scaled to Y = X/s by its largest entry modulus s, so
    the Gram matrix cannot overflow or underflow, and the norm is
    s sqrt(lambda_max(Y*Y)), with the Gram formed on the smaller side.  A
    1 x 1 or 2 x 2 Gram [[a, b], [b*, d]] is not formed: a, d and b are
    elementwise column sums, and its top eigenvalue is
    (a + d)/2 + hypot((a - d)/2, |b|), a sum of nonnegative terms (the
    squared column or row norm a when 1 x 1).  A larger Gram's top
    eigenvalue is read by ``eigvalsh``.  The relative error is a few units
    of roundoff times the smaller dimension, against the values-only SVD;
    only the top singular value is accurate this way, so a caller that
    needs singular vectors or small singular values decomposes.
    """
    x = np.asarray(x, dtype=np.complex128)
    m, n = x.shape[-2:]
    if m == 0 or n == 0:
        return np.zeros(x.shape[:-2])
    scale = np.abs(x).max(axis=(-2, -1))
    y = x / np.where(scale > 0, scale, 1.0)[..., None, None]
    if min(m, n) <= 2:  # Gram [[a, b], [b*, d]]; d = a and b = 0 when 1 x 1
        cols = y if m >= n else y.swapaxes(-1, -2)
        sq = (cols.real ** 2 + cols.imag ** 2).sum(axis=-2)
        a, d = sq[..., 0], sq[..., -1]
        b = (cols[..., :1].conj() * cols[..., 1:]).sum(axis=(-2, -1))
        top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(b))
    else:
        yh = y.conj().swapaxes(-1, -2)
        top = np.linalg.eigvalsh(yh @ y if m >= n else y @ yh)[..., -1]
    return scale * np.sqrt(np.maximum(top, 0.0))


def block_diag(*blocks: Array) -> Array:
    """The block-diagonal matrix of 2-d blocks, of their common result
    dtype, zero off the blocks (``scipy.linalg.block_diag``'s output)."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def random_unitary(dim: int, seed: int) -> Array:
    """Haar-distributed unitary, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def eig_unitary(u: Array, tol: float = 1e-8) -> Tuple[Array, Array]:
    """Spectral decomposition of a unitary: unit-modulus eigenvalues and a
    unitary eigenvector matrix q, with u = q diag(eigs) q*.

    u is turned by the phase that puts the midpoint of the widest gap of
    its spectrum at -1, where the Cayley transform is singular; the gap is
    at least 2 pi / n wide, so h = i(1 - v)(1 + v)^-1 of the turned v has
    norm at most cot(pi / 2n).  h is Hermitian and has u's eigenvectors,
    so ``eigh`` of its Hermitian part gives an orthonormal q, and each
    eigenvalue is the Rayleigh quotient q_j* u q_j over its modulus.  A
    cluster of eigenvalues mixes its eigenvectors by roundoff over the
    cluster's width, so q diag(eigs) q* stays within roundoff of u.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if n != u.shape[1]:
        raise ShapeError("unitary input must be square")
    defect = opnorm(u.conj().T @ u - np.eye(n))
    if not defect <= tol:
        raise NotUnitaryError(f"input is not unitary: defect {defect:.3e} > {tol:.1e}")
    if n == 0:
        return np.zeros(0, dtype=np.complex128), u
    angles = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(angles, append=angles[:1] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    v = u * np.exp(1j * (np.pi - angles[widest] - 0.5 * gaps[widest]))
    eye = np.eye(n)
    h = 1j * np.linalg.solve(eye + v, eye - v)
    q = np.linalg.eigh(0.5 * (h + h.conj().T))[1]
    eigs = np.einsum("ij,ij->j", q.conj(), u @ q)
    eigs /= np.abs(eigs)
    return eigs, q
