"""Balanced-pair tests: relations, canonical unitary, homotopies, splits."""

import hashlib
import itertools
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from balk1.balanced import (BalancedPair, HomotopyPath, PATH_KINDS, bump_from_one,
                            canonical_unitary, check_balanced, evaluate,
                            flat_circle_map, homotopy_eval,
                            make_c, random_balanced_pair, relation_matrices,
                            relation_residuals, unitalization_pair,
                            validate_path)
from balk1.errors import ShapeError
from balk1.loops import default_gamma, rotating_diagonal_pair, turn
from balk1.numkern import opnorm, random_unitary, stack_opnorm
from balk1.relations import REL1, RELATIONS, TWINS
from balk1.starpoly import (CertTerm, MembershipCertificate, default_suite, parse,
                            replay_certificate)
from balk1.starpoly.suites import path_pair


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
    rep = check_balanced(pair.a, pair.b, 1e-12)
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
        rep = check_balanced(pair.a, pair.b, 1e-10)
        assert rep.balanced
        assert max(rep.rel2.values()) <= 6 * max(rep.max_rel1, 1e-15)


def _random_stack(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("mask", [None, np.array([True, False, True, True, False])])
def test_defining_rows_are_the_first_four_columns(mask):
    a, b = _random_stack((3, 2, 5, 5), 1), _random_stack((3, 2, 5, 5), 2)
    rel1 = relation_residuals(a, b, REL1, mask)
    full = relation_residuals(a, b, RELATIONS, mask)
    assert rel1.shape == (3, 2, 4) and full.shape == (3, 2, 12)
    assert np.array_equal(rel1, full[..., :4])


def test_twin_rows_agree_off_balanced_pairs():
    # a(1 - a*a) = (1 - aa*)a, so rows 2 and 3 agree on any matrices; rows
    # 8-11 are the adjoints of rows 6, 7, 4 and 5
    a, b = _random_stack((4, 3, 3), 3), _random_stack((4, 3, 3), 4)
    rows = list(relation_matrices(a, b, RELATIONS, None))
    assert np.abs(rows[2] - rows[3]).max() <= 1e-12
    for twin, row in zip((8, 9, 10, 11), (6, 7, 4, 5)):
        adjoint = rows[row].conj().swapaxes(-1, -2)
        assert np.abs(rows[twin] - adjoint).max() <= 1e-12, twin
    assert TWINS == {RELATIONS[t][0]: RELATIONS[r][0]
                     for t, r in ((3, 2), (8, 6), (9, 7), (10, 4), (11, 5))}


@pytest.mark.parametrize("mask", [None, np.array([True, False, True, True, False])])
def test_residuals_are_the_norms_of_the_relation_matrices(mask):
    a, b = _random_stack((3, 5, 5), 5), _random_stack((3, 5, 5), 6)
    norms = relation_residuals(a, b, RELATIONS, mask)
    for k, matrix in enumerate(relation_matrices(a, b, RELATIONS, mask)):
        expected = np.linalg.svd(matrix, compute_uv=False)[..., 0]
        np.testing.assert_allclose(norms[:, k], expected, rtol=1e-13, atol=0)


def test_equal_operators_give_exact_zero_residuals():
    a = _random_stack((2, 4, 4), 7)
    mask = np.array([True, True, False, True])
    for m in (None, mask):
        assert np.array_equal(relation_residuals(a, a.copy(), RELATIONS, m),
                              np.zeros((2, 12)))
    c = canonical_unitary(a, a.copy())
    assert np.array_equal(c, np.eye(4) + a.conj().swapaxes(-1, -2) @ (a - a))


def test_canonical_unitary_of_stacks_is_pointwise():
    pairs = [random_balanced_pair(3, seed) for seed in range(4)]
    stacked = canonical_unitary(np.stack([p.a for p in pairs]),
                                np.stack([p.b for p in pairs]))
    for c, pair in zip(stacked, pairs):
        assert np.array_equal(c, make_c(pair))


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


# -- the identity suite evaluated at matrices --------------------------------------

THETAS = np.linspace(0.0, 2 * np.pi, 25)


def suite_norms(suite, pair):
    """The norm of every suite target at the pair, the largest over a grid of
    theta for the central symbols (s, c) = (sin theta, cos theta)."""
    return {e.name: float(stack_opnorm(evaluate(e.target, pair.a, pair.b,
                                                np.sin(THETAS),
                                                np.cos(THETAS))).max())
            for e in suite}


def test_suite_targets_vanish_at_balanced_pairs():
    # every certified identity is a matrix identity on every balanced pair:
    # the rel2 products, the canonical unitary's identities and the doubled
    # path relations at every point of the circle
    suite = default_suite()
    assert len(suite) == 65
    pairs = [random_balanced_pair(dim, seed) for dim in (1, 2, 4)
             for seed in (5, 6)]
    pairs += [unitalization_pair(random_unitary(3, seed), 0.2) for seed in (1, 2)]
    lp = rotating_diagonal_pair(turn(1), turn(-1), default_gamma, 256)
    pairs += [lp.pair_at(113), lp.pair_at(40)]
    for pair in pairs:
        assert_suite_vanishes(suite, pair)


PINNED = Path(__file__).parent / "data" / "default_suite_certificates.json"


def test_pinned_certificates_evaluate_to_their_targets():
    # the certificate sum of q·u·g·v equals its target as a matrix at pairs
    # that are not balanced, where neither side vanishes: a numeric check
    # that does not rest on the exact replay's own comparison
    rng = np.random.default_rng(11)
    pairs = [tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in "ab") for _ in range(2)]
    assert not any(check_balanced(a, b).balanced for a, b in pairs)
    rows = json.loads(PINNED.read_text(encoding="utf-8"))
    assert len(rows) == 65
    for row in rows:
        c = row["certificate"]
        cert = MembershipCertificate(c["target"], c["ideal"], c["degree_bound"],
                                     tuple(c["generators"]),
                                     tuple(CertTerm(*t) for t in c["terms"]))
        for a, b in pairs:
            got, want = (evaluate(poly, a, b, np.sin(THETAS), np.cos(THETAS))
                         for poly in (replay_certificate(cert), parse(c["target"])))
            error = stack_opnorm(got - want).max() / stack_opnorm(want).max()
            assert error <= 1e-9, (row["name"], error)


def assert_suite_vanishes(suite, pair, tol=1e-12):
    norms = suite_norms(suite, pair)
    worst = max(norms, key=norms.get)
    assert norms[worst] <= tol, (worst, norms[worst])


# the canonical unitary c's eight identities (unitary:, carry:, commute:,
# annihilate:) are suite targets; these pairs check them with the rest

def test_c_properties_unitary_case():
    pair = BalancedPair(random_unitary(4, 21), np.eye(4), tol=1e-12)
    assert_suite_vanishes(default_suite(), pair)


def test_c_properties_zero_pair():
    z = np.zeros((3, 3), dtype=complex)
    norms = suite_norms(default_suite(), BalancedPair(z, z, tol=1e-14))
    assert set(norms.values()) == {0.0}


def test_c_properties_random_pairs():
    suite = default_suite()
    for seed in (3, 4):
        assert_suite_vanishes(suite, random_balanced_pair(3, seed))


def test_evaluate_reads_words_centrals_and_coefficients():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    b = np.array([[1.0, 0.0], [1j, 1.0]])
    s, c = np.array([0.0, 0.6]), np.array([1.0, 0.8])
    value = evaluate(parse("(1/2 + i)·s·c^2·a·b* - b + 3"), a, b, s, c)
    expected = [(0.5 + 1j) * si * ci ** 2 * a @ b.conj().T - b + 3 * np.eye(2)
                for si, ci in zip(s, c)]
    assert value.shape == (2, 2, 2)
    assert np.abs(value - np.array(expected)).max() <= 1e-15
    assert np.array_equal(evaluate(parse("0"), a, b), np.zeros((2, 2)))


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


def reference_path(kind, pair, t):
    """The swap, adjoint and canonical paths written out in numpy:
    (a⊕b, U_t*(a⊕b)U_t), U_t*(1⊕x*)U_t (x⊕1) for x = a, b, and
    (c⊕b, (1⊕b)U_t*(1⊕c)U_t)."""
    a, b, n = pair.a, pair.b, pair.dim
    eye, zero = np.eye(n), np.zeros((n, n))
    cos, sin = np.cos(t), np.sin(t)
    u = np.block([[cos * eye, -sin * eye], [sin * eye, cos * eye]])

    def diag(x, y):
        return np.block([[x, zero], [zero, y]])

    def conj(x):
        return u.conj().T @ x @ u

    if kind == "swap":
        return diag(a, b), conj(diag(a, b))
    if kind == "adjoint":
        return tuple(conj(diag(eye, x.conj().T)) @ diag(x, eye) for x in (a, b))
    c = make_c(pair)
    return diag(c, b), diag(eye, b) @ conj(diag(eye, c))


@pytest.mark.parametrize("kind", ["swap", "adjoint", "canonical"])
def test_paths_match_the_numpy_formulas_mid_path(kind):
    ts = np.array([np.pi / 7, np.pi / 4, 3 * np.pi / 8])
    for pair in (random_balanced_pair(3, 17), random_balanced_pair(4, 3),
                 unitalization_pair(random_unitary(2, 5), 0.2)):
        path = HomotopyPath(kind, pair)
        stacked = homotopy_eval(path, ts)
        for k, t in enumerate(ts):
            single = homotopy_eval(path, t)
            for got, ref, stack in zip(single, reference_path(kind, pair, t),
                                       stacked):
                assert got.shape == (2 * pair.dim, 2 * pair.dim)
                assert np.array_equal(got, stack[k])
                assert opnorm(got - ref) <= 1e-13, (kind, t)


def test_homotopy_eval_rejects_parameters_outside_the_interval():
    path = HomotopyPath("swap", random_balanced_pair(2, 1))
    with pytest.raises(ValueError):
        homotopy_eval(path, np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        homotopy_eval(path, -0.1)


def test_linear_trivial_path():
    pair = random_balanced_pair(2, 37)
    path = HomotopyPath("linear-trivial", pair)
    left0, right0 = homotopy_eval(path, 0.0)
    assert opnorm(left0) == 0.0 and opnorm(right0) == 0.0
    left1, right1 = homotopy_eval(path, np.pi / 2)
    assert np.allclose(left1, pair.a) and np.allclose(right1, pair.a)
    report = validate_path(path, grid=11, tol=1e-12)
    assert report.ok


# sha256 prefixes of the criterion-2 path checks: per kind, the packed
# (max_residual, worst_t) of validate_path at 101 samples over the 21 pairs,
# and the bytes of evaluate on every entry of the certified path matrices at
# s = sin t, c = cos t over the same samples; recorded with coefficients read
# as complex(float(q.re), float(q.im)), with residual norms of 2 x 2 path
# matrices read off the closed-form 2 x 2 Gram of ``stack_opnorm``, with
# numpy's bundled OpenBLAS on x86-64 (a different BLAS may round the word
# products differently)
_PATH_DIGESTS = {
    "linear-trivial": ("52a3e0804d93dc52", None),
    "swap": ("df18ebd66f282803", "4bc6aee05efeb5ff"),
    "adjoint": ("b3d8edb04df477b8", "706cb237c6765c7b"),
    "canonical": ("924bc29b71ba1626", "1331a91b0ae934e2"),
}


@pytest.mark.parametrize("kind", PATH_KINDS)
def test_path_checks_are_bitwise_the_recorded_ones(kind):
    pairs = [random_balanced_pair(1 + seed % 4, seed) for seed in range(20)]
    pairs.append(rotating_diagonal_pair(turn(1), turn(0), default_gamma,
                                        256).pair_at(113))
    ts = np.linspace(0.0, np.pi / 2, 101)
    reports = hashlib.sha256()
    for pair in pairs:
        rep = validate_path(HomotopyPath(kind, pair), grid=101, tol=1e-9)
        reports.update(struct.pack("<dd", rep.max_residual, rep.worst_t))
    want_reports, want_values = _PATH_DIGESTS[kind]
    assert reports.hexdigest()[:16] == want_reports
    if want_values is None:
        return
    values = hashlib.sha256()
    for pair in pairs:
        for row in itertools.chain(*path_pair(kind)):
            for x in row:
                values.update(evaluate(x, pair.a, pair.b, np.sin(ts),
                                       np.cos(ts)).tobytes())
    assert values.hexdigest()[:16] == want_values


def test_a_subnormal_difference_reads_finite_residuals():
    """b - a = 1e-310 everywhere: every residual is subnormal and finite."""
    a = 0.5 * np.eye(2)
    rep = check_balanced(a, a + 1e-310, tol=1e-10)
    values = list(rep.rel1.values()) + list(rep.rel2.values())
    assert all(0.0 < v < 1e-308 for v in values)
    assert rep.balanced


def test_direct_sum_of_balanced_pairs():
    p1 = random_balanced_pair(2, 41)
    p2 = random_balanced_pair(3, 43)
    a = np.block([[p1.a, np.zeros((2, 3))], [np.zeros((3, 2)), p2.a]])
    b = np.block([[p1.b, np.zeros((2, 3))], [np.zeros((3, 2)), p2.b]])
    rep = check_balanced(a, b, tol=1e-10)
    assert rep.balanced
    expected = max(check_balanced(p.a, p.b).max_rel1 for p in (p1, p2))
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
            assert check_balanced(pair.a, pair.b, 1e-8).balanced


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
