"""Symbolic engine tests: parsing, involution, certificates, suites."""

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balk1.balanced import check_balanced, evaluator
from balk1.errors import DegreeBoundError, ParseError
from balk1.numkern import opnorm, random_unitary
from balk1.starpoly import (GaussianRational, StarPoly, certificate_is_valid,
                            default_suite, format_poly,
                            ideal_by_name, ideal_member, parse, parse_suite,
                            rel1_ideal, rel2_ideal, replay_certificate,
                            verify_identity_suite)
from balk1.starpoly import membership
from balk1.starpoly.suites import (A, B, ONE, REL2_PRODUCTS, Mat2,
                                   canonical_unitary_poly, pair_relation_entries,
                                   path_pair)

PINNED_CERTIFICATES = Path(__file__).parent / "data" / "default_suite_certificates.json"


def random_poly(rng, degree=3, terms=4, centrals=True):
    out = StarPoly.zero()
    atoms = [A, B, A.star, B.star]
    for _ in range(terms):
        factor = StarPoly.scalar(GaussianRational(rng.randint(-3, 3),
                                                  rng.randint(-2, 2)))
        for _ in range(rng.randint(0, degree)):
            factor = factor * rng.choice(atoms)
        if centrals and rng.random() < 0.4:
            factor = factor * StarPoly.central(rng.choice("sc"))
        out = out + factor
    return out


def test_parse_canonical_element():
    assert parse("1 + b*·(a − b)") == ONE + B.star * (A - B)
    assert parse("1") == StarPoly.one()
    assert parse("(a·b)*") == B.star * A.star


def test_parse_ascii_and_rationals():
    from fractions import Fraction
    assert parse("3/2 a b* - 2") == \
        StarPoly.scalar(Fraction(3, 2)) * A * B.star - 2
    assert parse("i·a") == StarPoly.scalar(GaussianRational(0, 1)) * A
    assert parse("a^3") == A * A * A


# one text per error kind: (text, position, same message from the
# recursive parser the one-pass reader replaced)
_PARSE_ERRORS = [
    ("a + x", 4, True),      # unknown symbol
    ("a + $", 4, True),      # unexpected character
    ("a^b", 2, True),        # expected NUM after '^'
    ("1/a", 2, True),        # expected NUM after '/'
    ("a + (b", 6, True),     # expected RP, at the end of the input
    ("2/0 a", 2, True),      # zero denominator
    ("a + ·b", 4, True),     # expected a value
    ("a - ", 4, True),       # expected a value, at the end of the input
    ("a )", 2, True),        # unexpected trailing token
    ("a²", 1, False),        # a non-ASCII digit is no number
    ("2·٣", 2, False),
    ("b + 1.5·a", 5, False),  # decimal point
]


def test_parse_errors_carry_position():
    for text, position, as_reference in _PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text
        if as_reference:
            with pytest.raises(ParseError) as ref:
                reference_parse(text)
            assert str(ref.value) == str(err.value)


def test_decimal_point_names_the_fraction_and_other_dots_multiply():
    with pytest.raises(ParseError, match="3/2"):
        parse("1.5·a")
    assert parse("a.b") == parse("a·b") == A * B
    assert parse("2. 5") == parse("2 .5") == StarPoly.scalar(10)
    assert parse("2.a") == 2 * A


@pytest.mark.parametrize("text, position, what", [
    ("(a + b)^40", 7, "terms"),             # 2^40 words
    ("a^100000000", 0, "letters in a word"),
    ("b·a^60000·a^60000", 10, "letters in a word"),
    ("s^1000000", 0, "terms"),              # s^2k = (1 - c^2)^k
    ("3^100000000", 0, "bits in a number"),
    ("(a + b)^9·(a - b)^9", 10, "terms"),   # 512 x 512 products
])
def test_expansion_past_the_ceiling_is_rejected_before_it_is_made(
        text, position, what):
    """A power or product whose expansion would pass ``EXPANSION_CEILING``
    is rejected at its factor, and nothing large is allocated on the way."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ParseError, match=f"more than 100000 {what}") as err:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert err.value.position == position
    assert peak < 1_000_000, peak


# -- the one-pass parser against the recursive one it replaced ---------------


@dataclasses.dataclass
class _RefToken:
    kind: str  # NUM SYM PLUS MINUS DOT STAR CARET SLASH LP RP END
    text: str
    pos: int


def _reference_tokenize(text):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_RefToken("NUM", text[k:j], k))
            k = j
            continue
        if ch in "absci":
            tokens.append(_RefToken("SYM", ch, k))
        elif ch.isalpha():
            raise ParseError(f"unknown symbol {ch!r}", k)
        else:
            kind = {"+": "PLUS", "-": "MINUS", "−": "MINUS", "–": "MINUS",
                    "·": "DOT", "⋅": "DOT", ".": "DOT", "*": "STAR", "^": "CARET",
                    "/": "SLASH", "(": "LP", ")": "RP"}.get(ch)
            if kind is None:
                raise ParseError(f"unexpected character {ch!r}", k)
            tokens.append(_RefToken(kind, ch, k))
        k += 1
    tokens.append(_RefToken("END", "", len(text)))
    return tokens


class _ReferenceParser:
    """The recursive-descent parser that multiplied and added StarPolys one
    factor and one term at a time."""

    def __init__(self, text):
        self.tokens = _reference_tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                             tok.pos)
        return self.advance()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return value

    def expr(self):
        sign = 1
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1 if self.advance().kind == "MINUS" else 1
        value = self.term() * sign
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "PLUS" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "DOT":
                self.advance()
                value = value * self.factor()
            elif tok.kind in ("NUM", "SYM", "LP"):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.advance()
                value = value.star
            elif tok.kind == "CARET":
                self.advance()
                value = value ** int(self.expect("NUM").text)
            else:
                return value

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "SLASH":
                self.advance()
                den_tok = self.expect("NUM")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return StarPoly.scalar(Fraction(num, den))
            return StarPoly.scalar(num)
        if tok.kind == "SYM":
            self.advance()
            if tok.text in ("a", "b"):
                return StarPoly.letter(tok.text)
            if tok.text in ("s", "c"):
                return StarPoly.central(tok.text)
            return StarPoly.scalar(GaussianRational(0, 1))
        if tok.kind == "LP":
            self.advance()
            value = self.expr()
            self.expect("RP")
            return value
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos)


def reference_parse(text):
    return _ReferenceParser(text).parse()


def _joined(first, rest):
    """first, then each (separator, piece) of rest; an empty separator
    between two digits becomes a space, so that no number grows."""
    out = first
    for sep, piece in rest:
        if not sep and out[-1].isdigit() and piece[0].isdigit():
            sep = " "
        out += sep + piece
    return out


_ATOMS = ["0", "1", "2", "7", "12", "1/2", "3/4", "0/5", "12/9",
          "a", "b", "s", "c", "i"]
_POSTFIXES = ["", "", "*", "**", "^0", "^1", "^2", "^3", "*^2", "^2*", "^3^2"]
_GROUP_POSTFIXES = ["", "*", "^0", "^2", "*^2"]
# a '.' is always followed by a space, so it never stands between two digits
_SEPARATORS = ["·", "⋅", ". ", " ", "", " · "]
_SIGNS = ["+", "-", "−", "–", " + ", " - ", " − "]
_LEADS = ["", "-", "+", "−", " "]


@st.composite
def _expression_texts(draw, depth=2):
    """Texts over the whole grammar: numbers and fractions, the five
    symbols, parenthesised sums nested up to depth, postfix '*' and '^n'
    (s^k included), juxtaposition, and every minus and dot form."""
    def pick(options):
        return options[draw(st.integers(0, len(options) - 1))]

    def factor(depth):
        if depth and draw(st.integers(0, 3)) == 0:
            return f"({expr(depth - 1)}){pick(_GROUP_POSTFIXES)}"
        return pick(_ATOMS) + pick(_POSTFIXES)

    def term(depth):
        return _joined(factor(depth), [(pick(_SEPARATORS), factor(depth))
                                       for _ in range(draw(st.integers(0, 2)))])

    def expr(depth):
        return pick(_LEADS) + _joined(term(depth), [
            (pick(_SIGNS), term(depth)) for _ in range(draw(st.integers(0, 3)))])

    return expr(depth)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_expression_texts())
def test_parse_matches_the_reference_parser_term_for_term(text):
    assert list(parse(text).items()) == list(reference_parse(text).items())


def _pinned_certificate_texts():
    texts = []
    for row in json.loads(PINNED_CERTIFICATES.read_text(encoding="utf-8")):
        cert = row["certificate"]
        texts += [cert["target"], *cert["generators"]]
        for coefficient, left, _, right in cert["terms"]:
            texts += [coefficient, left, right]
    return texts


def test_parse_matches_the_reference_parser_on_the_suite_and_certificates():
    suite = resources.files("balk1").joinpath("data/default_suite.txt").read_text()
    targets = [line[len("target:"):] for line in suite.splitlines()
               if line.startswith("target:")]
    texts = targets + _pinned_certificate_texts()
    assert len(targets) == 65 and len(texts) > 3000
    for text in texts:
        assert list(parse(text).items()) == list(reference_parse(text).items()), text


def test_print_parse_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng)
        assert parse(format_poly(p)) == p


def test_involution_properties():
    rng = random.Random(3)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        assert (p + q).star == p.star + q.star
        assert (p * q).star == q.star * p.star
        assert p.star.star == p


def test_central_reduction():
    s, c = StarPoly.central("s"), StarPoly.central("c")
    assert s * s == 1 - c * c
    assert s * s * s == s - s * (c * c)
    assert (s * s + c * c) == StarPoly.one()


def test_rel_ideals_have_spec_sizes():
    assert len(rel1_ideal().generators) == 4
    assert len(rel2_ideal().generators) == 8


# the defining relations as they were written by hand before the relation
# table produced them, kept as a reference
REFERENCE_REL1 = (
    A.star * A - B.star * B,
    A * A.star - B * B.star,
    A * (ONE - A.star * A) - B * (ONE - B.star * B),
    (ONE - A * A.star) * A - (ONE - B * B.star) * B,
)


def test_rel1_generators_are_the_defining_relations():
    generators = rel1_ideal().generators
    assert generators == REFERENCE_REL1
    # a(1 - a*a) = (1 - aa*)a: the third and fourth generators coincide
    assert len(set(generators)) == 3


@pytest.mark.parametrize("kind", ["swap", "adjoint", "canonical"])
def test_doubled_entries_are_the_defining_relations_of_the_pair(kind):
    left, right = path_pair(kind)
    one = Mat2.diag(ONE, ONE)
    expected = {
        "staradj": left.star * left - right.star * right,
        "adjstar": left * left.star - right * right.star,
        "defect-right": (left - left * (left.star * left))
        - (right - right * (right.star * right)),
        "defect-left": (one - left * left.star) * left
        - (one - right * right.star) * right,
    }
    entries = pair_relation_entries(left, right, kind)
    assert len(entries) == 16
    for name, target in entries:
        _, relation, ij = name.split(":")
        assert target == expected[relation][int(ij[0]) - 1][int(ij[1]) - 1], name


def test_certificate_canonical_unitary():
    c = canonical_unitary_poly()
    cert = ideal_member(c.star * c - 1, rel1_ideal(), 6)
    assert cert is not None
    assert certificate_is_valid(cert)
    assert cert.max_term_degree() <= 6


def test_certificate_carrying_identity():
    c = canonical_unitary_poly()
    cert = ideal_member(B * c - A, rel1_ideal(), 5)
    assert cert is not None
    assert certificate_is_valid(cert)


def test_membership_not_found_for_difference():
    # balanced pairs with a != b exist, so a - b is not in the ideal; the
    # bounded search must come back empty-handed
    assert ideal_member(A - B, rel1_ideal(), 8) is None
    # the witness for every degree bound: (u, 1), u unitary, is balanced
    u, one = random_unitary(3, 1), np.eye(3)
    assert check_balanced(u, one, 1e-10).balanced
    assert opnorm(evaluator(u, one)(A - B, 0.0, 1.0)) > 1


def test_crossed_defect_products_are_not_members():
    crossed = (A - B) * (ONE - A * A.star)
    assert ideal_member(crossed, rel1_ideal(), 7) is None
    # a witness for every degree bound: the exact pair a = [[0,0],[1,0]],
    # b = -a is balanced, yet the crossed product is 2a there
    a = np.array([[0, 0], [1, 0]], dtype=complex)
    assert check_balanced(a, -a, tol=1e-14).balanced
    assert opnorm(evaluator(a, -a)(crossed, 0.0, 1.0)) == pytest.approx(2.0)


def test_target_with_modulus_in_denominator_falls_back_to_exact(monkeypatch):
    # 1/p has no image mod p, so the modular search must not even start
    target = StarPoly.scalar(Fraction(1, membership.P)) * \
        (B * canonical_unitary_poly() - A)

    def no_modular_search(self, target_mod):
        raise AssertionError("modular search ran on an unreducible target")

    monkeypatch.setattr(membership._Search, "support", no_modular_search)
    cert = ideal_member(target, rel1_ideal(), 5)
    assert cert is not None and certificate_is_valid(cert)
    assert parse(cert.target) == target


def test_modular_miss_falls_back_to_exact(monkeypatch):
    monkeypatch.setattr(membership._Search, "support",
                        lambda self, target_mod: None)
    cert = ideal_member(B * canonical_unitary_poly() - A, rel1_ideal(), 5)
    assert cert is not None and certificate_is_valid(cert)
    assert cert.max_term_degree() <= 5


def test_modular_hit_without_exact_solution_is_rejected(monkeypatch):
    # congruent mod p to the member b·c - a, yet not a member itself: the
    # exact solve on the support leaves a residue, and so does the exact
    # solve over every product
    target = B * canonical_unitary_poly() - A + membership.P * (A - B)
    exact_solve = membership._Search._exact_solve
    calls = []

    def counted(self, target_row, products):
        calls.append(target_row)
        return exact_solve(self, target_row, products)

    monkeypatch.setattr(membership._Search, "_exact_solve", counted)
    assert ideal_member(target, rel1_ideal(), 5) is None
    assert len(calls) == 2
    # the witness: at the balanced pair (u, 1) the member b·c - a vanishes,
    # so the target is P (u - 1) there
    u, one = random_unitary(3, 1), np.eye(3)
    assert check_balanced(u, one, 1e-10).balanced
    value = evaluator(u, one)
    member = value(B * canonical_unitary_poly() - A, 0.0, 1.0)
    assert opnorm(member) < 1e-12 and opnorm(u - one) > 1
    assert opnorm(value(target, 0.0, 1.0) - membership.P * (u - one)) \
        < 1e-12 * membership.P


def test_central_generator_member_and_non_member():
    [entry] = parse_suite("name: central-member\nideal: custom: s·a - b\n"
                          "bound: 4\ntarget: c·(s·a - b)·b* + 2/3i·a*·(s·a* - b*)")
    report = verify_identity_suite([entry])
    assert report.ok and report.results[0].n_terms > 0
    # at s = 0 the ideal kills only b, so a - b survives
    assert ideal_member(A - B, entry.ideal, 3) is None
    # the witness: at s = 0, c = 1, a = 1, b = 0 every generator vanishes
    # and a - b does not
    a, b = np.eye(1), np.zeros((1, 1))
    for g in entry.ideal.effective_generators():
        assert not evaluator(a, b)(g, 0.0, 1.0).any()
    assert opnorm(evaluator(a, b)(A - B, 0.0, 1.0)) == 1.0


_REL1_GENERATORS = rel1_ideal().effective_generators()
_LETTERS = (A, A.star, B, B.star)
_words = st.lists(st.sampled_from(range(4)), max_size=2).map(
    lambda w: [_LETTERS[x] for x in w])
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))
_ideal_terms = st.lists(st.tuples(_fractions, _fractions, _words,
                                  st.sampled_from(_REL1_GENERATORS), _words),
                        min_size=1, max_size=3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_ideal_terms)
def test_random_rel1_members_certify(terms):
    bound = 6
    target = StarPoly.zero()
    for re, im, left, gen, right in terms:
        right = right[:bound - gen.degree - len(left)]
        piece = StarPoly.scalar(GaussianRational(re, im)) * gen
        for x in reversed(left):
            piece = x * piece
        for x in right:
            piece = piece * x
        target = target + piece
    cert = ideal_member(target, rel1_ideal(), bound)
    assert cert is not None
    assert replay_certificate(cert) == target
    assert cert.max_term_degree() <= bound


class _CombinationModEchelon:
    """Reference: the modular echelon that carries combinations.  Every
    pivot row is scaled to a leading 1 and carries the combination of
    products it was built from, so reducing the target yields its support
    directly."""

    def __init__(self):
        self.pivots = {}

    def insert(self, row, combo):
        while row:
            lead = max(row)
            hit = self.pivots.get(lead)
            if hit is None:
                inv = pow(row[lead], -1, membership.P)
                self.pivots[lead] = (
                    {k: v * inv % membership.P for k, v in row.items()},
                    {k: v * inv % membership.P for k, v in combo.items()})
                return
            self._eliminate(lead, row, combo, hit)

    def support(self, target):
        row, combo = dict(target), {}
        while True:
            hit = max((m for m in row if m in self.pivots), default=None)
            if hit is None:
                return None if row else sorted(combo)
            self._eliminate(hit, row, combo, self.pivots[hit])

    @staticmethod
    def _eliminate(lead, row, combo, pivot):
        factor = membership.P - row[lead]
        _axpy_mod(row, pivot[0], factor)
        _axpy_mod(combo, pivot[1], factor)


def _axpy_mod(dst, src, factor):
    """dst += factor × src mod P, both dict rows."""
    for key, val in src.items():
        acc = (dst.get(key, 0) + val * factor) % membership.P
        if acc:
            dst[key] = acc
        else:
            dst.pop(key, None)


def _combination(rows, coeffs):
    out = {}
    for row, c in zip(rows, coeffs):
        _axpy_mod(out, row, c)
    return out


@st.composite
def _mod_rows_and_targets(draw):
    """Sparse int-keyed rows mod P over a few keys, so that rows collide.
    Some rows are combinations of earlier ones (they reduce to zero), some
    are an earlier row plus a term below its lead (reduced by that row's
    pivot before they become pivots themselves).  Targets are combinations
    of a subset of the rows, so that pivots outside their support are
    reached, or random rows."""
    keys = st.integers(0, 11)
    values = st.one_of(st.integers(1, 3), st.just(membership.P - 1),
                       st.integers(1, membership.P - 1))
    rows = []
    for kind in draw(st.lists(st.sampled_from("rrcs"), min_size=1, max_size=24)):
        if kind == "r" or not rows:
            rows.append(draw(st.dictionaries(keys, values, min_size=1,
                                             max_size=4)))
        elif kind == "c":
            picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            rows.append(_combination(picked, draw(st.lists(
                values, min_size=len(picked), max_size=len(picked)))))
        else:
            earlier = dict(draw(st.sampled_from(rows)))
            below = draw(st.integers(0, max(earlier)))
            _axpy_mod(earlier, {below: 1}, draw(values))
            rows.append(earlier)
    targets = []
    for _ in range(3):
        if draw(st.booleans()):
            picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
            targets.append(_combination(picked, draw(st.lists(
                values, min_size=len(picked), max_size=len(picked)))))
        else:
            targets.append(draw(st.dictionaries(keys, values, max_size=4)))
    return rows, targets, draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mod_rows_and_targets())
def test_mod_support_matches_the_combination_echelon(case):
    """After every chunk of rows, the support unwound from the factors of a
    carried-over reduction equals that of a reduction from scratch in the
    combination-carrying echelon, or both are None."""
    rows, targets, chunk = case
    reference, echelon = _CombinationModEchelon(), membership._ModEchelon()
    carried = [(dict(t), {}) for t in targets]
    for start in range(0, len(rows), chunk):
        for j in range(start, min(start + chunk, len(rows))):
            if rows[j]:
                reference.insert(dict(rows[j]), {j: 1})
                echelon.insert(dict(rows[j]), j)
        for target, (residue, factors) in zip(targets, carried):
            echelon.reduce(residue, factors)
            got = None if residue else echelon.support(factors)
            assert got == reference.support(target)


def test_mod_support_follows_the_elimination_steps():
    """Product 1's row is reduced by pivot 3 (product 0) into pivot 2, so
    product 0 is reached only through pivot 2's steps.  In the second
    target the coefficient pivot 2 passes on cancels pivot 3's own."""
    P = membership.P
    rows = [{3: 1, 1: 1}, {3: 1, 2: 1}]
    echelon, reference = membership._ModEchelon(), _CombinationModEchelon()
    for j, row in enumerate(rows):
        echelon.insert(dict(row), j)
        reference.insert(dict(row), {j: 1})
    assert echelon.pivots[2][4] == [3, P - 1]
    for target, support in (({2: 1, 1: P - 1}, [0, 1]), ({3: 1, 2: 1}, [1])):
        residue, factors = dict(target), {}
        echelon.reduce(residue, factors)
        assert not residue
        assert echelon.support(factors) == support == reference.support(target)


def test_bound_below_target_degree_rejected():
    target = A * A * A
    with pytest.raises(DegreeBoundError):
        ideal_member(target, rel1_ideal(), 2)


def test_determinism():
    c = canonical_unitary_poly()
    first = ideal_member(c.star * c - 1, rel1_ideal(), 6)
    second = ideal_member(c.star * c - 1, rel1_ideal(), 6)
    assert first == second


@pytest.fixture
def cold_searches(monkeypatch):
    """An empty map of word-problem searches for the test's duration.  With
    the echelons that earlier tests left, a test of the attempt schedule or
    of the rows a search inserts would insert none and pass untested."""
    monkeypatch.setattr(membership, "_SEARCHES", {})


def _assert_pinned(entries):
    pinned = {r["name"]: r for r in
              json.loads(PINNED_CERTIFICATES.read_text(encoding="utf-8"))}
    got = json.loads(verify_identity_suite(entries).to_json())["entries"]
    assert len(got) == len(entries)
    for entry in got:
        del entry["seconds"]
        assert entry == pinned[entry["name"]], entry["name"]


def _counted_inserts(monkeypatch):
    """The products of the rows ``_ModEchelon.insert`` gets from now on."""
    insert = membership._ModEchelon.insert
    inserted = []

    def counted(self, row, product):
        inserted.append(product)
        return insert(self, row, product)

    monkeypatch.setattr(membership._ModEchelon, "insert", counted)
    return inserted


@pytest.mark.parametrize("chunk", [1, 4096])
def test_certificates_do_not_depend_on_where_the_target_is_tried(
        cold_searches, monkeypatch, chunk):
    # pivots have distinct leads, so the target's combination over them is
    # unique once it exists: any attempt schedule gives the pinned records
    monkeypatch.setattr(membership, "CHUNK", chunk)
    inserted = _counted_inserts(monkeypatch)
    entries = [e for e in default_suite() if e.effective_bound() < 11]
    assert len(entries) == 61
    _assert_pinned(entries)
    assert inserted


def test_certificates_do_not_depend_on_earlier_calls(cold_searches,
                                                     monkeypatch):
    # the forward pass leaves each echelon extended as far as the most
    # demanding entry of its key; the reversed pass reuses them, reaching
    # some echelons before and some past the prefix its entry needs
    entries = [e for e in default_suite() if e.effective_bound() < 11]
    _assert_pinned(entries)
    inserted = _counted_inserts(monkeypatch)
    _assert_pinned(entries[::-1])
    assert inserted == []


def test_a_search_that_raises_is_dropped(cold_searches, monkeypatch):
    entry, = [e for e in default_suite() if e.name == "double-canonical:staradj:11"]
    bound = entry.effective_bound()
    key = (tuple(entry.ideal.effective_generators()), bound, 0)
    ceiling = membership.PRODUCT_CEILING
    monkeypatch.setattr(membership, "PRODUCT_CEILING", 16)
    with pytest.raises(DegreeBoundError):
        ideal_member(entry.target, entry.ideal, bound)
    assert key not in membership._SEARCHES
    # warm: a generator of the key spans its target after one product
    assert ideal_member(A.star * A - B.star * B, entry.ideal, bound) is not None
    assert key in membership._SEARCHES
    with pytest.raises(DegreeBoundError):
        ideal_member(entry.target, entry.ideal, bound)
    assert key not in membership._SEARCHES
    monkeypatch.setattr(membership, "PRODUCT_CEILING", ceiling)
    _assert_pinned([entry])


@pytest.mark.parametrize("name, most", [("double-swap:adjstar:12", 4),
                                        ("unitary:flipflip*", 48)])
def test_search_stops_at_the_first_prefix_that_spans_the_target(
        cold_searches, monkeypatch, name, most):
    # the first needs 2 products and the second 24; a whole first chunk
    # would insert 58 and 256 rows
    inserted = _counted_inserts(monkeypatch)
    entry, = [e for e in default_suite() if e.name == name]
    cert = ideal_member(entry.target, entry.ideal, entry.effective_bound())
    assert cert is not None and certificate_is_valid(cert)
    assert 0 < len(inserted) <= most


def test_zero_target_over_empty_ideal():
    cert = ideal_member(StarPoly.zero(), ideal_by_name("none"), 0)
    assert cert is not None and cert.terms == ()
    assert replay_certificate(cert).is_zero


def test_replay_rejects_tampering():
    cert = ideal_member(B * canonical_unitary_poly() - A, rel1_ideal(), 5)
    tampered = type(cert)(target=format_poly(A - B), ideal=cert.ideal,
                          degree_bound=cert.degree_bound,
                          generators=cert.generators, terms=cert.terms)
    assert not certificate_is_valid(tampered)
    # one term's coefficient changed: its text parses to another polynomial
    # while the other terms reuse the texts they share with it
    first = cert.terms[0]
    doubled = dataclasses.replace(first, coefficient=f"2·({first.coefficient})")
    tampered = dataclasses.replace(cert, terms=(doubled,) + cert.terms[1:])
    assert certificate_is_valid(cert) and not certificate_is_valid(tampered)


def test_rel2_products_all_certify():
    rel1 = rel1_ideal()
    for name, product in REL2_PRODUCTS.items():
        cert = ideal_member(product, rel1, 5)
        assert cert is not None and certificate_is_valid(cert), name


def test_intermediate_identity_over_rel2():
    qa = ONE - A.star * A
    qb = ONE - B.star * B
    cert = ideal_member(qa * qb - qa * qa, rel2_ideal(), 6)
    assert cert is not None and certificate_is_valid(cert)


def test_suite_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        parse_suite("name: incomplete\nideal: rel1\n")


def test_custom_ideal_stanza():
    entries = parse_suite(
        "name: trivial\nideal: custom: a·b ; b·a\nbound: 4\ntarget: a·b·a")
    assert entries[0].ideal.name == "custom"
    report = verify_identity_suite(entries)
    assert report.ok


def test_small_suite_runs():
    entries = [e for e in default_suite()
               if e.name.startswith(("unitary", "carry", "commute",
                                     "annihilate"))]
    report = verify_identity_suite(entries)
    assert report.ok
    assert all(r.replay_ok and r.grading_ok for r in report.results)
