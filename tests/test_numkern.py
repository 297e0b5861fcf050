"""Matrix kernel tests."""

import numpy as np
import pytest

from balk1.errors import NotUnitaryError, ShapeError
from balk1.numkern import (block_diag, eig_unitary, opnorm, random_unitary,
                           stack_opnorm)


def test_opnorm_examples(monkeypatch):
    assert opnorm(np.eye(3)) == pytest.approx(1.0)
    assert opnorm(np.zeros((4, 4))) == 0.0
    assert opnorm(np.diag([2.0, 0.5])) == pytest.approx(2.0)
    assert opnorm(np.zeros((0, 5))) == 0.0
    with pytest.raises(ShapeError):
        opnorm(np.zeros((2, 2, 2)))
    # an all-zero matrix is not decomposed
    monkeypatch.setattr(np.linalg, "norm", None)
    assert opnorm(np.zeros((64, 48), dtype=complex)) == 0.0


def test_random_unitary_deterministic_and_unitary():
    u1 = random_unitary(4, 7)
    u2 = random_unitary(4, 7)
    assert np.array_equal(u1, u2)
    assert opnorm(u1.conj().T @ u1 - np.eye(4)) < 1e-12
    assert abs(opnorm(u1) - 1.0) < 1e-12


def test_opnorm_matches_max_singular_value():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = np.linalg.svd(x, compute_uv=False)
        assert abs(opnorm(x) - s[0]) < 1e-10
    stack = rng.standard_normal((3, 2, 4, 5))
    expected = [[opnorm(m) for m in row] for row in stack]
    assert np.allclose(stack_opnorm(stack), expected, rtol=0, atol=1e-12)
    assert np.array_equal(stack_opnorm(np.zeros((3, 0, 4))), np.zeros(3))


def _stacks(rng):
    """Square, tall, wide, 1x1, rank-one and zero stacks, and stacks whose
    smaller side is 1 or 2 (the closed-form Grams), some with zero members."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rank_one = cplx(3, 6, 1) @ cplx(3, 1, 4)
    zero_mixed = cplx(3, 5, 5)
    zero_mixed[1] = 0.0
    thin = [cplx(4, 7, 1), cplx(2, 3, 1, 6), cplx(4, 9, 2), cplx(3, 2, 5),
            cplx(5, 2, 2), cplx(3, 2, 1) @ cplx(3, 1, 2)]
    thin[2][1] = 0.0
    return [cplx(4, 6, 6), cplx(2, 3, 9, 4), cplx(3, 4, 9), cplx(5, 1, 1),
            rank_one, zero_mixed, np.zeros((2, 3, 3), dtype=complex)] + thin


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150, 1e160])
def test_stack_opnorm_matches_svd_at_extreme_scales(scale):
    # entries scaled to 1e-200 would underflow in an unscaled Gram matrix,
    # and to 1e160 would overflow
    for x in _stacks(np.random.default_rng(3)):
        x = scale * x
        expected = np.linalg.svd(x, compute_uv=False)[..., 0]
        got = stack_opnorm(x)
        assert got.shape == x.shape[:-2]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
        for m, e in zip(x.reshape((-1,) + x.shape[-2:]), expected.ravel()):
            assert opnorm(m) == pytest.approx(e, rel=1e-13, abs=0)
    for shape in ((3, 0, 4), (2, 4, 0), (0, 3, 3)):
        assert np.array_equal(stack_opnorm(np.zeros(shape)), np.zeros(shape[:-2]))
    assert stack_opnorm(np.ones((1, 1))) == 1.0
    assert stack_opnorm(np.zeros((1, 1))) == 0.0


@pytest.mark.parametrize("unit", [1e-310, 5e-324])
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (5, 2), (2, 4),
                                   (4, 6)])
def test_stack_opnorm_matches_svd_on_subnormal_stacks(unit, shape):
    """Subnormal largest moduli (1 x 1, 2 x 2 closed forms, thin Grams and
    eigvalsh Grams) against the SVD, which LAPACK scales internally; a
    stack mixing them with normal and zero members leaves the others'
    norms bitwise as they are alone."""
    rng = np.random.default_rng(7)
    ints = rng.integers(-3, 4, (3,) + shape) + 1j * rng.integers(-3, 4, (3,) + shape)
    ints[:, 0, 0] = 3  # no zero member
    x = unit * ints  # multiples of 5e-324 are exact
    expected = np.linalg.svd(x, compute_uv=False)[..., 0]
    got = stack_opnorm(x)
    assert np.isfinite(got).all() and (got > 0).all()
    # one unit of the subnormal spacing per rounding of either side
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=2 * 5e-324)
    for m, e in zip(x, expected):
        assert opnorm(m) == pytest.approx(e, rel=1e-13, abs=2 * 5e-324)
    normal = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mixed = np.stack([x[0], np.zeros(shape), normal])
    assert np.array_equal(stack_opnorm(mixed),
                          [got[0], 0.0, stack_opnorm(normal)])


def test_func_calc_identity_function():
    # the identity function through the spectral decomposition rebuilds u
    u = random_unitary(5, 11)
    eigs, q = eig_unitary(u, tol=1e-8)
    assert np.allclose(np.abs(eigs), 1.0)
    assert opnorm(q.conj().T @ q - np.eye(5)) < 1e-12
    assert opnorm((q * eigs) @ q.conj().T - u) < 1e-10


def test_func_calc_square_on_diag():
    eigs, q = eig_unitary(np.diag([1.0, -1.0]).astype(complex), tol=1e-8)
    assert np.allclose((q * eigs ** 2) @ q.conj().T, np.eye(2))


def _conjugated(angles, seed):
    """A Haar unitary conjugate of diag(exp(i angles))."""
    w = random_unitary(len(angles), seed)
    return (w * np.exp(1j * np.asarray(angles))) @ w.conj().T


EIG_CASES = {
    "1x1": np.array([[np.exp(0.3j)]]),
    "identity": np.eye(4, dtype=complex),
    "minus identity": -np.eye(3, dtype=complex),
    "diag(1, -1)": np.diag([1.0, -1.0]).astype(complex),
    "degenerate": _conjugated([0.4, 0.4, -2.0, -2.0, 3.0, 3.0], 5),
    "1e-9 cluster": _conjugated([0.4, 0.4 + 1e-9, 0.4 + 2e-9, -2.0, 1.0, 2.0], 6),
    "1e-12 about -1": _conjugated([np.pi - 1e-12, -np.pi + 1e-12, 0.1, 1.0], 7),
}


def assert_decomposes(u):
    """q is unitary, q diag(eigs) q* rebuilds u and |eigs| = 1."""
    n = u.shape[0]
    eigs, q = eig_unitary(u, tol=1e-8)
    assert eigs.shape == (n,) and q.shape == (n, n)
    assert opnorm(q.conj().T @ q - np.eye(n)) < 1e-12
    assert opnorm((q * eigs) @ q.conj().T - u) < 1e-10
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-12


@pytest.mark.parametrize("name", EIG_CASES)
def test_eig_unitary_decomposes_special_spectra(name):
    """The 1 x 1 case, +-I, diag(1, -1) (where the Cayley transform of the
    unturned input is singular), a doubly degenerate spectrum, a cluster
    1e-9 wide and eigenvalues 1e-12 either side of -1."""
    assert_decomposes(EIG_CASES[name])


def test_eig_unitary_decomposes_haar_unitaries():
    for n in range(1, 65):
        assert_decomposes(random_unitary(n, n))
    eigs, q = eig_unitary(np.zeros((0, 0)), tol=1e-8)
    assert eigs.shape == (0,) and q.shape == (0, 0)


def test_block_diag_places_the_blocks():
    rng = np.random.default_rng(1)
    real = rng.standard_normal((2, 3))
    cplx = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    out = block_diag(real, np.zeros((0, 2)), cplx)
    assert out.dtype == np.complex128 and out.shape == (5, 6)
    assert np.array_equal(out[:2, :3], real) and np.array_equal(out[2:, 5:], cplx)
    out[:2, :3] = 0.0
    out[2:, 5:] = 0.0
    assert not out.any()
    assert block_diag(np.eye(2, dtype=np.float32)).dtype == np.float32


def test_func_calc_flattened_circle_map():
    from balk1.balanced import flat_circle_map
    delta = 0.2
    u = np.diag([np.exp(1j * np.pi / 4)])
    eigs, q = eig_unitary(u, tol=1e-8)
    f = (q * np.exp(1j * flat_circle_map(np.angle(eigs), delta))) @ q.conj().T
    assert opnorm(f - u) < delta
    assert opnorm(f.conj().T @ f - np.eye(1)) < 1e-8


def test_func_calc_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        eig_unitary(np.diag([2.0, 1.0]).astype(complex), tol=1e-8)
    with pytest.raises(NotUnitaryError):
        eig_unitary(np.full((2, 2), np.nan + 0j), tol=1e-8)
    with pytest.raises(ShapeError):
        eig_unitary(np.ones((2, 3)), tol=1e-8)
