"""The exact engine on machine integers: coefficients, row keys, certificates.

``GaussianRational`` is checked against a pair-of-Fractions reference kept
here, the integer row keys of ``membership`` against the (len(w), w) tuples
they replace, and the certificates of the built-in suite against the ones
pinned in ``data/default_suite_certificates.json``.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from balk1.starpoly import (GaussianRational, Monomial, default_suite,
                            verify_identity_suite)
from balk1.starpoly import membership

PINNED = Path(__file__).parent / "data" / "default_suite_certificates.json"


class Reference:
    """Gaussian rational as a pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Reference(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Reference(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Reference(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError
        return Reference((self.re * o.re + self.im * o.im) / den,
                         (self.im * o.re - self.re * o.im) / den)

    def __neg__(self):
        return Reference(-self.re, -self.im)

    def conjugate(self):
        return Reference(self.re, -self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def assert_agrees(got: GaussianRational, ref: Reference) -> None:
    assert isinstance(got, GaussianRational)
    assert (got.re, got.im) == (ref.re, ref.im)
    assert got.d > 0 and math.gcd(got.x, got.y, got.d) == 1
    assert type(got.re) is Fraction and type(got.im) is Fraction
    z, w = complex(got), complex(ref)
    assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())
    if ref.im == 0:
        assert hash(got) == hash(ref.re) == hash(ref)


_parts = st.one_of(st.integers(-50, 50),
                   st.fractions(max_denominator=60),
                   st.fractions(min_value=-10**30, max_value=10**30,
                                max_denominator=10**25))
_pairs = st.tuples(_parts, _parts | st.just(0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pairs, _pairs, st.integers(-20, 20), st.fractions(max_denominator=40))
def test_gaussian_rational_agrees_with_the_fraction_pair_reference(p, q, n, f):
    a, b = GaussianRational(*p), GaussianRational(*q)
    ra, rb = Reference(*p), Reference(*q)
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(a * b, ra * rb)
    assert_agrees(-a, -ra)
    assert_agrees(a.conjugate(), ra.conjugate())
    for scalar in (n, f):
        rs = Reference(scalar)
        assert_agrees(a + scalar, ra + rs)
        assert_agrees(scalar + a, rs + ra)
        assert_agrees(a - scalar, ra - rs)
        assert_agrees(a * scalar, ra * rs)
        assert_agrees(scalar * a, rs * ra)
        assert (a == scalar) == (ra == rs)
        if scalar:
            assert_agrees(a / scalar, ra / rs)
        else:
            with pytest.raises(ZeroDivisionError):
                a / scalar
    if rb.re or rb.im:
        assert_agrees(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert (a == b) == (ra == rb)
    assert bool(a) == bool(ra.re or ra.im)
    if a == b:
        assert hash(a) == hash(b)


def test_gaussian_rational_parts_are_read_only():
    q = GaussianRational(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        q.re = Fraction(1)
    with pytest.raises(AttributeError):
        q.im = Fraction(1)
    assert (q.x, q.y, q.d) == (1, 6, 2)


def test_real_coefficients_hash_like_their_int_and_fraction():
    two = GaussianRational(2)
    half = GaussianRational(Fraction(1, 2))
    assert two == 2 and hash(two) == hash(2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {2: "x"}[two] == "x"
    assert len({two, 2, Fraction(2)}) == 1
    assert len({half, Fraction(2, 4)}) == 1
    assert GaussianRational(2, 1) != 2


# -- integer row keys ---------------------------------------------------------

_WORDS = [w for n in range(7) for w in itertools.product(range(4), repeat=n)]


def test_word_keys_order_like_length_then_word():
    keys = [membership._word_key(w) for w in _WORDS]
    assert len(set(keys)) == len(_WORDS)
    assert (sorted(_WORDS, key=membership._word_key)
            == sorted(_WORDS, key=lambda w: (len(w), w)))


def test_word_keys_decode_and_count_up_by_charge():
    for n in range(6):
        words = [w for w in _WORDS if len(w) == n]
        assert [membership._key_word(membership._word_key(w))
                for w in words] == words
        for q, keys in membership._keys_by_charge(n).items():
            assert keys == [membership._word_key(w) for w in words
                            if sum(1 if x in (0, 2) else -1 for x in w) == q]


def test_shifted_product_key_is_the_key_of_the_product_word():
    index = {w: k for k, w in enumerate(_WORDS)}
    one = GaussianRational(1)
    row = membership._word_rows({k: [(Monomial(w), one)]
                                 for k, w in enumerate(_WORDS)})
    for word in _WORDS:
        for i in range(len(word) + 1):
            for j in range(i, len(word) + 1):
                u, w, v = word[:i], word[i:j], word[j:]
                keys = membership._word_key(u), membership._word_key(v)
                assert row((index[w],) + keys) == \
                    {membership._word_key(word): one}, (u, w, v)


# -- the built-in suite's certificates ------------------------------------------


def test_suite_certificates_equal_the_pinned_ones():
    report = verify_identity_suite(default_suite())
    got = json.loads(report.to_json())["entries"]
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert [r["name"] for r in got] == [r["name"] for r in pinned]
    for entry, expected in zip(got, pinned):
        del entry["seconds"]
        assert entry["found"] and entry["replay_ok"] and entry["grading_ok"]
        assert entry == expected, entry["name"]
