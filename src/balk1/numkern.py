"""Dense complex matrix kernel.

Explicitly-toleranced helpers over LAPACK via numpy/scipy: operator norms of
single matrices and of (..., m, n) stacks, Haar-random unitaries and the
spectral decomposition of unitaries through the complex Schur form.
Matrices are complex128 arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg as sla

from .errors import NotUnitaryError, ShapeError

Array = np.ndarray


def as_matrix(x) -> Array:
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
    return m


def opnorm(x: Array) -> float:
    """Largest singular value; 0 for empty and all-zero matrices, which are
    not decomposed."""
    x = as_matrix(x)
    if not x.any():
        return 0.0
    return float(np.linalg.norm(x, 2))


def stack_opnorm(x: Array) -> np.ndarray:
    """Largest singular value of every matrix in a (..., m, n) stack, with
    the stack's leading shape; 0 for empty matrices."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-2] == 0 or x.shape[-1] == 0:
        return np.zeros(x.shape[:-2])
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def random_unitary(dim: int, seed: int) -> Array:
    """Haar-distributed unitary, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def eig_unitary(u: Array, tol: float = 1e-8) -> Tuple[Array, Array]:
    """Spectral decomposition of a unitary via the complex Schur form.

    Returns unit-modulus eigenvalues and a unitary eigenvector matrix; for a
    normal input the Schur factor is diagonal up to roundoff, so discarding
    its strict upper triangle is exact to the stated tolerance.
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError("unitary input must be square")
    defect = opnorm(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > tol:
        raise NotUnitaryError(f"input is not unitary: defect {defect:.3e} > {tol:.1e}")
    t, q = sla.schur(u, output="complex")
    eigs = np.diag(t).copy()
    eigs /= np.abs(eigs)
    return eigs, q
