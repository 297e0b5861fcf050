"""Dense reference for both Fredholm index engines, shared by the tests."""

import numpy as np

from balk1.relindex import INCLUSIVE_THRESHOLD


def interior_count(vectors, weights):
    """The number of eigenvalues >= 1/2 of X*WX, for the orthonormal
    columns X and the mode weights W."""
    compressed = vectors.conj().T @ (weights[:, None] * vectors)
    return int(np.sum(np.linalg.eigvalsh(compressed) >= 0.5))


def reference_engine(f, w_dom, w_cod):
    """Both engines from one full SVD of f and two dense products, at the
    inclusive threshold: the counting index (kernel minus
    cokernel, each counted by ``interior_count`` on the near-null singular
    vectors), the largest singular value below the cut and the smallest at
    or above it, and the trace total sum_i w_i |D_i|^2 - sum_i w_i |E_i|^2
    of D = 1 - f*f and E = 1 - ff*."""
    u, s, vh = np.linalg.svd(f)
    rank = int(np.sum(s >= INCLUSIVE_THRESHOLD))
    index = (interior_count(vh[rank:].conj().T, w_dom)
             - interior_count(u[:, rank:], w_cod))
    d = np.eye(f.shape[1]) - f.conj().T @ f
    e = np.eye(f.shape[0]) - f @ f.conj().T
    total = (w_dom @ np.sum(np.abs(d) ** 2, axis=1)
             - w_cod @ np.sum(np.abs(e) ** 2, axis=1))
    return (index, float(s[rank:].max(initial=0.0)),
            float(s[:rank].min(initial=np.inf)), float(total))
