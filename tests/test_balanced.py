"""Balanced-pair tests: relations, canonical unitary, homotopies, splits."""

import numpy as np
import pytest

from balk1.balanced import (BalancedPair, HomotopyPath, PATH_KINDS, bump_from_one,
                            check_balanced, finite_split, flat_circle_map,
                            homotopy_eval, make_c, random_balanced_pair,
                            unitalization_pair, validate_path, verify_c_properties)
from balk1.errors import ShapeError
from balk1.numkern import opnorm, random_unitary


def diag_pair():
    a = np.diag([1.0, 0.5]).astype(complex)
    b = np.diag([-1.0, 0.5]).astype(complex)
    return BalancedPair(a, b, tol=1e-12)


def test_unitary_vs_one_is_balanced():
    u = random_unitary(4, 2)
    rep = check_balanced(u, np.eye(4), tol=1e-12)
    assert rep.balanced
    assert rep.max_residual <= 1e-12


def test_diagonal_pair_balanced():
    pair = diag_pair()
    rep = pair.report()
    assert rep.balanced
    # hand evaluation: a(1-a*a) = diag(0, 0.375) = b(1-b*b)
    assert rep.rel1["a(1-a*a)-b(1-b*b)"] == 0.0


def test_swapped_diagonal_not_balanced():
    a = np.diag([1.0, 0.5]).astype(complex)
    b = np.diag([0.5, 1.0]).astype(complex)
    rep = check_balanced(a, b, tol=1e-12)
    assert not rep.balanced
    assert rep.rel1["a*a-b*b"] == pytest.approx(0.75)


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        check_balanced(np.eye(2), np.eye(3))


def test_random_pairs_satisfy_derived_rel2_bound():
    for seed in range(8):
        pair = random_balanced_pair(4, seed)
        rep = pair.report()
        assert rep.balanced
        assert max(rep.rel2.values()) <= 6 * max(rep.max_rel1, 1e-15)


def test_crossed_defect_pair_is_balanced_but_two_sided_products_stay_large():
    # the pair ([[0,0],[1,0]], -[[0,0],[1,0]]) satisfies all four defining
    # relations exactly, yet (a-b)(1-aa*) = 2a; only the oriented residuals
    # are controlled by balancedness
    a = np.array([[0, 0], [1, 0]], dtype=complex)
    rep = check_balanced(a, -a, tol=1e-14)
    assert rep.balanced
    crossed = opnorm((a - (-a)) @ (np.eye(2) - a @ a.conj().T))
    assert crossed == pytest.approx(2.0)
    assert max(rep.rel2.values()) <= 1e-14


def test_make_c_unitary_input():
    u = random_unitary(5, 9)
    pair = BalancedPair(u, np.eye(5), tol=1e-12)
    assert np.abs(make_c(pair) - u).max() < 1e-15


def test_make_c_equal_pair():
    x = 0.5 * random_unitary(3, 1)
    pair = BalancedPair(x, x, tol=1e-12)
    assert np.allclose(make_c(pair), np.eye(3))


def test_make_c_diagonal_example():
    pair = diag_pair()
    c = make_c(pair)
    assert np.allclose(c, np.diag([-1.0, 1.0]))
    assert opnorm(pair.b @ c - pair.a) == 0.0


def test_c_properties_unitary_case():
    u = random_unitary(4, 21)
    pair = BalancedPair(u, np.eye(4), tol=1e-12)
    props = verify_c_properties(pair)
    assert max(props.values()) <= 1e-12


def test_c_properties_zero_pair():
    z = np.zeros((3, 3), dtype=complex)
    props = verify_c_properties(BalancedPair(z, z, tol=1e-14))
    assert max(props.values()) == 0.0


def test_c_properties_random_pairs():
    for seed in (3, 4):
        pair = random_balanced_pair(3, seed)
        props = verify_c_properties(pair)
        assert max(props.values()) <= 50 * pair.tol


def test_path_kinds_validate():
    pair = random_balanced_pair(3, 17)
    for kind in PATH_KINDS:
        report = validate_path(HomotopyPath(kind, pair), grid=51, tol=1e-10)
        assert report.ok, (kind, report.max_residual)


def test_path_report_is_the_worst_sample():
    # criterion-2 pair; the batched path check against one check_balanced
    # per sample
    pair = random_balanced_pair(4, 3)
    ts = np.linspace(0.0, np.pi / 2, 101)
    for kind in PATH_KINDS:
        path = HomotopyPath(kind, pair)
        worst = [check_balanced(*homotopy_eval(path, float(t)), 1e-9).max_rel1
                 for t in ts]
        report = validate_path(path, grid=101, tol=1e-9)
        assert report.max_residual == max(worst), kind
        assert report.worst_t == ts[int(np.argmax(worst))], kind
        assert report.ok == (max(worst) <= 1e-9)


def test_swap_endpoints():
    pair = random_balanced_pair(2, 23)
    a, b = pair.a, pair.b
    left0, right0 = homotopy_eval(HomotopyPath("swap", pair), 0.0)
    assert np.allclose(right0, left0)
    _, right1 = homotopy_eval(HomotopyPath("swap", pair), np.pi / 2)
    swapped = np.block([[b, np.zeros_like(b)], [np.zeros_like(a), a]])
    assert opnorm(right1 - swapped) < 1e-12


def test_adjoint_endpoints():
    pair = random_balanced_pair(3, 29)
    path = HomotopyPath("adjoint", pair)
    left, right = homotopy_eval(path, np.pi / 2)
    target = np.block([
        [pair.a.conj().T @ pair.a, np.zeros((3, 3))],
        [np.zeros((3, 3)), np.eye(3)]])
    assert opnorm(left - target) < 1e-10
    assert opnorm(right - target) < 1e-10


def test_canonical_endpoints():
    pair = random_balanced_pair(3, 31)
    path = HomotopyPath("canonical", pair)
    _, right0 = homotopy_eval(path, 0.0)
    embedded = np.block([[np.eye(3), np.zeros((3, 3))],
                         [np.zeros((3, 3)), pair.a]])
    assert opnorm(right0 - embedded) <= 20 * pair.tol + 1e-12
    left, right1 = homotopy_eval(path, np.pi / 2)
    assert opnorm(right1 - left) < 1e-12


def test_linear_trivial_path():
    pair = random_balanced_pair(2, 37)
    path = HomotopyPath("linear-trivial", pair)
    left0, right0 = homotopy_eval(path, 0.0)
    assert opnorm(left0) == 0.0 and opnorm(right0) == 0.0
    left1, right1 = homotopy_eval(path, np.pi / 2)
    assert np.allclose(left1, pair.a) and np.allclose(right1, pair.a)
    report = validate_path(path, grid=11, tol=1e-12)
    assert report.ok


def test_direct_sum_of_balanced_pairs():
    p1 = random_balanced_pair(2, 41)
    p2 = random_balanced_pair(3, 43)
    a = np.block([[p1.a, np.zeros((2, 3))], [np.zeros((3, 2)), p2.a]])
    b = np.block([[p1.b, np.zeros((2, 3))], [np.zeros((3, 2)), p2.b]])
    rep = check_balanced(a, b, tol=1e-10)
    assert rep.balanced
    expected = max(p1.report().max_rel1, p2.report().max_rel1)
    assert rep.max_rel1 <= expected + 1e-14


def test_strict_contraction_forces_equality():
    # quantitative uniqueness: on strict contractions the oriented residual
    # (a-b)(1-a*a) controls the difference itself
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.6 * z / opnorm(z)
        b = a + 1e-9 * rng.standard_normal((4, 4))
        qa = np.eye(4) - a.conj().T @ a
        smallest = np.linalg.svd(qa, compute_uv=False)[-1]
        residual = opnorm((a - b) @ qa)
        assert opnorm(a - b) <= residual / smallest + 1e-12


def test_relation_converse_square_root_sensitivity():
    # pairs satisfying the oriented annihilation residuals to ~1e-14 have
    # defining-relation residuals within 10 * sqrt(tol)
    rng = np.random.default_rng(8)
    for seed in range(5):
        base = random_balanced_pair(4, seed)
        noise = 1e-15
        a = base.a + noise * rng.standard_normal((4, 4))
        b = base.b + noise * rng.standard_normal((4, 4))
        a /= max(opnorm(a), 1.0)
        b /= max(opnorm(b), 1.0)
        rep = check_balanced(a, b, tol=1e-6)
        rel2_tol = max(max(rep.rel2.values()), 1e-16)
        assert rel2_tol <= 1e-13
        assert rep.max_rel1 <= 10 * np.sqrt(rel2_tol)
        assert rep.max_rel1 <= 1e-6


def test_finite_split_unitary_pair():
    u = random_unitary(3, 47)
    split = finite_split(BalancedPair(u, np.eye(3), tol=1e-12))
    assert opnorm(split.p1) == 0.0
    assert split.residual_diff_onblock == 0.0


def test_finite_split_diagonal_pair():
    split = finite_split(diag_pair())
    assert np.allclose(split.p1, np.diag([0.0, 1.0]))
    assert split.residual_defect_offblock < 1e-12
    assert split.residual_diff_onblock < 1e-12


def test_finite_split_zero_pair():
    z = np.zeros((2, 2), dtype=complex)
    split = finite_split(BalancedPair(z, z, tol=1e-14))
    assert np.allclose(split.p1, np.eye(2))
    assert split.residual_defect_offblock < 1e-12
    assert split.residual_diff_onblock == 0.0


def test_flat_circle_map_properties():
    delta = 0.25
    theta = np.linspace(-np.pi, np.pi, 20001)
    phi = flat_circle_map(theta, delta)
    z = np.exp(1j * theta)
    f = np.exp(1j * phi)
    arc = 2 * np.arcsin(delta / 2)
    assert np.all(phi[np.abs(theta) < arc] == 0.0)
    assert np.max(np.abs(f - z)) <= delta + 1e-9


def test_bump_properties():
    delta = 0.2
    theta = np.linspace(-np.pi, np.pi, 2001)
    g = bump_from_one(theta, delta)
    arc = 2 * np.arcsin(delta / 2)
    assert g[np.argmin(np.abs(theta))] == 0.0
    assert np.all(g[np.abs(theta) > arc] == 1.0)
    assert np.all((0.0 <= g) & (g <= 1.0))


def test_unitalization_balanced():
    for seed in (1, 2):
        u = random_unitary(3, seed)
        for delta in (0.1, 0.2, 0.3):
            pair = unitalization_pair(u, delta)
            assert pair.report().balanced


def test_unitalization_trivial_at_identity():
    pair = unitalization_pair(np.eye(3, dtype=complex), 0.2)
    assert opnorm(pair.a) < 1e-12 and opnorm(pair.b) < 1e-12


def test_unitalization_at_minus_one():
    pair = unitalization_pair(np.array([[-1.0 + 0j]]), 0.2)
    assert abs(pair.a[0, 0] + 1.0) < 0.2
    assert pair.b[0, 0] == pytest.approx(1.0)


def test_unitalization_rejects_bad_delta():
    with pytest.raises(ValueError):
        unitalization_pair(np.eye(2, dtype=complex), 0.5)
