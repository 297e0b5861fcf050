"""Matrix kernel tests."""

import numpy as np
import pytest

from balk1.errors import NotSelfAdjointError, NotUnitaryError, ShapeError, SpectralGapError
from balk1.numkern import (eig_unitary, nearest_projection, opnorm,
                           random_unitary, stack_opnorm)


def test_opnorm_examples():
    assert opnorm(np.eye(3)) == pytest.approx(1.0)
    assert opnorm(np.zeros((4, 4))) == 0.0
    assert opnorm(np.diag([2.0, 0.5])) == pytest.approx(2.0)
    assert opnorm(np.zeros((0, 5))) == 0.0
    with pytest.raises(ShapeError):
        opnorm(np.zeros((2, 2, 2)))


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


def test_func_calc_identity_function():
    # the identity function through the spectral decomposition rebuilds u
    u = random_unitary(5, 11)
    eigs, q = eig_unitary(u)
    assert np.allclose(np.abs(eigs), 1.0)
    assert opnorm(q.conj().T @ q - np.eye(5)) < 1e-12
    assert opnorm((q * eigs) @ q.conj().T - u) < 1e-10


def test_func_calc_square_on_diag():
    eigs, q = eig_unitary(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose((q * eigs ** 2) @ q.conj().T, np.eye(2))


def test_func_calc_flattened_circle_map():
    from balk1.balanced import flat_circle_map
    delta = 0.2
    u = np.diag([np.exp(1j * np.pi / 4)])
    eigs, q = eig_unitary(u)
    f = (q * np.exp(1j * flat_circle_map(np.angle(eigs), delta))) @ q.conj().T
    assert opnorm(f - u) < delta
    assert opnorm(f.conj().T @ f - np.eye(1)) < 1e-8


def test_func_calc_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        eig_unitary(np.diag([2.0, 1.0]).astype(complex))
    with pytest.raises(ShapeError):
        eig_unitary(np.ones((2, 3)))


def test_nearest_projection_rounding():
    p = nearest_projection(np.diag([0.99, 0.01]))
    assert np.allclose(p, np.diag([1.0, 0.0]))
    assert p.shape == (2, 2)


def test_nearest_projection_fixed_point():
    q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert opnorm(nearest_projection(q) - q) < 1e-12


def test_nearest_projection_gap_error():
    with pytest.raises(SpectralGapError) as err:
        nearest_projection(np.diag([0.55, 0.45]))
    assert 0.4 <= err.value.eigenvalue <= 0.6


def test_nearest_projection_requires_self_adjoint():
    with pytest.raises(NotSelfAdjointError):
        nearest_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nearest_projection_properties_random():
    rng = np.random.default_rng(5)
    for seed in range(4):
        u = random_unitary(5, seed)
        raw = u @ np.diag(rng.choice([0.02, 0.97], size=5)) @ u.conj().T
        p = nearest_projection(raw)
        assert opnorm(p @ p - p) <= 1e-10
        assert opnorm(p - p.conj().T) <= 1e-10
