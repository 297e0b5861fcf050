"""Exact arithmetic in the free *-algebra on two letters with circle centrals.

Elements are finite linear combinations, over Gaussian rationals, of words in
the four letters a, a*, b, b* multiplied by central monomials s^e c^f in two
commuting self-adjoint symbols.  The centrals obey the single relation
s^2 + c^2 = 1; every stored monomial is kept in reduced form with s-exponent
0 or 1 (s^2 is rewritten as 1 - c^2 on construction).

A coefficient (``GaussianRational``) is one normalized integer triple
(x, y, d) standing for (x + y·i)/d, with d > 0 and gcd(x, y, d) = 1, so equal
coefficients have equal triples and the arithmetic runs on plain ints.  Its
``re`` and ``im`` are read-only Fraction views, ``complex(q)`` rounds each
part once, and a real coefficient hashes like its Fraction (like its int when
d = 1), so that it stays interchangeable with them as a dict key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Dict, Iterator, NamedTuple, Tuple, Union

LETTERS = ("a", "a*", "b", "b*")
_STAR_OF = (1, 0, 3, 2)
_CHARGE_OF = (1, -1, 1, -1)
_LETTER_CODE = {"a": 0, "a*": 1, "b": 2, "b*": 3}

Word = Tuple[int, ...]


class GaussianRational:
    """Exact complex number (x + y·i)/d with rational real and imaginary parts.

    Stored as one normalized integer triple: d > 0 and gcd(x, y, d) = 1, so
    equal numbers have equal triples.  ``re`` and ``im`` are read-only
    Fraction views; the arithmetic itself runs on the ints.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        re, im = Fraction(re), Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self.x = re.numerator * (d // re.denominator)
        self.y = im.numerator * (d // im.denominator)
        self.d = d

    @staticmethod
    def coerce(value: "CoeffLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _triple(value, 0, 1)
        if isinstance(value, Fraction):
            return _triple(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    def __add__(self, other: "CoeffLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _reduced(self.x + o.x, self.y + o.y, d1)
        return _reduced(self.x * d2 + o.x * d1, self.y * d2 + o.y * d1, d1 * d2)

    def __sub__(self, other: "CoeffLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _reduced(self.x - o.x, self.y - o.y, d1)
        return _reduced(self.x * d2 - o.x * d1, self.y * d2 - o.y * d1, d1 * d2)

    def __mul__(self, other: "CoeffLike") -> "GaussianRational":
        if type(other) is int:
            return _reduced(self.x * other, self.y * other, self.d)
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        x1, y1, x2, y2 = self.x, self.y, o.x, o.y
        return _reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self.d * o.d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other: "CoeffLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        # (x1 + y1 i)/d1 · d2 (x2 - y2 i)/(x2^2 + y2^2)
        x1, y1, x2, y2 = self.x, self.y, o.x, o.y
        norm = x2 * x2 + y2 * y2
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        d2 = o.d
        return _reduced((x1 * x2 + y1 * y2) * d2, (y1 * x2 - x1 * y2) * d2,
                        self.d * norm)

    def __neg__(self) -> "GaussianRational":
        return _triple(-self.x, -self.y, self.d)

    def conjugate(self) -> "GaussianRational":
        return _triple(self.x, -self.y, self.d)

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def __complex__(self) -> complex:
        return complex(self.x / self.d, self.y / self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.x == other.x and self.y == other.y and self.d == other.d
        if isinstance(other, int):
            return self.y == 0 and self.d == 1 and self.x == other
        if isinstance(other, Fraction):
            return (self.y == 0 and self.x == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # a real coefficient hashes as its Fraction (as its int when d = 1),
        # so that hash agrees with == across the three types
        if self.y == 0:
            return hash(self.x) if self.d == 1 else hash(Fraction(self.x, self.d))
        return hash((self.x, self.y, self.d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_coefficient(self, bare=True)


def _triple(x: int, y: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple already normalized."""
    q = object.__new__(GaussianRational)
    q.x, q.y, q.d = x, y, d
    return q


def _reduced(x: int, y: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple with d > 0, divided by gcd(x, y, d)."""
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    q = object.__new__(GaussianRational)
    q.x, q.y, q.d = x, y, d
    return q


CoeffLike = Union[int, Fraction, GaussianRational]

ZERO = GaussianRational(0)
ONE_C = GaussianRational(1)


class Monomial(NamedTuple):
    """A word in the letters times a reduced central monomial s^s_exp c^c_exp."""

    word: Word
    s_exp: int = 0
    c_exp: int = 0

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def central_degree(self) -> int:
        return self.s_exp + self.c_exp

    @property
    def charge(self) -> int:
        return sum(_CHARGE_OF[x] for x in self.word)

    def star(self) -> "Monomial":
        return Monomial(tuple(_STAR_OF[x] for x in reversed(self.word)),
                        self.s_exp, self.c_exp)


UNIT_MONOMIAL = Monomial(())


def mono_key(m: Monomial) -> Tuple[int, Word, int, int]:
    """Degree-lex order key; any fixed total order works for elimination."""
    return (len(m.word), m.word, m.s_exp, m.c_exp)


@lru_cache(maxsize=None)
def _reduce_central(s_exp: int, c_exp: int) -> Tuple[Tuple[int, int, int], ...]:
    # s^(2k+r) c^f  ->  s^r (1-c^2)^k c^f, expanded binomially
    k, r = divmod(s_exp, 2)
    return tuple((r, c_exp + 2 * j, (-1) ** j * comb(k, j)) for j in range(k + 1))


class StarPoly:
    """Immutable polynomial: finite map Monomial -> nonzero GaussianRational."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Monomial, GaussianRational] | None = None,
                 _normalized: bool = False):
        if terms is None:
            self._terms: Dict[Monomial, GaussianRational] = {}
        elif _normalized:
            self._terms = terms
        else:
            self._terms = _normalize(terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "StarPoly":
        return StarPoly({}, _normalized=True)

    @staticmethod
    def one() -> "StarPoly":
        return StarPoly({UNIT_MONOMIAL: ONE_C}, _normalized=True)

    @staticmethod
    def scalar(value: CoeffLike) -> "StarPoly":
        q = GaussianRational.coerce(value)
        if not q:
            return StarPoly.zero()
        return StarPoly({UNIT_MONOMIAL: q}, _normalized=True)

    @staticmethod
    def letter(name: str) -> "StarPoly":
        code = _LETTER_CODE.get(name)
        if code is None:
            raise ValueError(f"unknown letter {name!r}")
        return StarPoly({Monomial((code,)): ONE_C}, _normalized=True)

    @staticmethod
    def central(name: str) -> "StarPoly":
        if name == "s":
            return StarPoly({Monomial((), 1, 0): ONE_C}, _normalized=True)
        if name == "c":
            return StarPoly({Monomial((), 0, 1): ONE_C}, _normalized=True)
        raise ValueError(f"unknown central symbol {name!r}")

    @staticmethod
    def monomial(m: Monomial) -> "StarPoly":
        return StarPoly({m: ONE_C})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[Tuple[Monomial, GaussianRational]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Maximal word length over stored terms (0 for the zero polynomial)."""
        return max((len(m.word) for m in self._terms), default=0)

    @property
    def central_degree(self) -> int:
        return max((m.central_degree for m in self._terms), default=0)

    @property
    def is_central_free(self) -> bool:
        return all(m.s_exp == 0 and m.c_exp == 0 for m in self._terms)

    def charges(self) -> set:
        return {m.charge for m in self._terms}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyLike") -> "StarPoly":
        o = _coerce_poly(other)
        out = dict(self._terms)
        for m, q in o._terms.items():
            acc = out.get(m, ZERO) + q
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
        return StarPoly(out, _normalized=True)

    def __sub__(self, other: "PolyLike") -> "StarPoly":
        return self + (-_coerce_poly(other))

    def __neg__(self) -> "StarPoly":
        return StarPoly({m: -q for m, q in self._terms.items()}, _normalized=True)

    def __mul__(self, other: "PolyLike") -> "StarPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            q = GaussianRational.coerce(other)
            if not q:
                return StarPoly.zero()
            return StarPoly({m: c * q for m, c in self._terms.items()},
                            _normalized=True)
        o = _coerce_poly(other)
        out: Dict[Monomial, GaussianRational] = {}
        for m1, q1 in self._terms.items():
            for m2, q2 in o._terms.items():
                q = q1 * q2
                for s_exp, c_exp, sign in _reduce_central(m1.s_exp + m2.s_exp,
                                                          m1.c_exp + m2.c_exp):
                    m = Monomial(m1.word + m2.word, s_exp, c_exp)
                    acc = out.get(m, ZERO) + q * sign
                    if acc:
                        out[m] = acc
                    else:
                        out.pop(m, None)
        return StarPoly(out, _normalized=True)

    def __rmul__(self, other: "PolyLike") -> "StarPoly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return _coerce_poly(other) * self

    def __radd__(self, other: "PolyLike") -> "StarPoly":
        return self + other

    def __rsub__(self, other: "PolyLike") -> "StarPoly":
        return _coerce_poly(other) - self

    def __pow__(self, n: int) -> "StarPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = StarPoly.one()
        for _ in range(n):
            out = out * self
        return out

    @property
    def star(self) -> "StarPoly":
        """Involution: reverse words, star letters, conjugate coefficients."""
        return StarPoly({m.star(): q.conjugate() for m, q in self._terms.items()},
                        _normalized=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = StarPoly.scalar(other)
        if not isinstance(other, StarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"StarPoly({format_poly(self)!r})"


PolyLike = Union[StarPoly, int, Fraction, GaussianRational]


def _coerce_poly(value: PolyLike) -> StarPoly:
    if isinstance(value, StarPoly):
        return value
    return StarPoly.scalar(value)


def _normalize(terms: Dict[Monomial, GaussianRational]) -> Dict[Monomial, GaussianRational]:
    out: Dict[Monomial, GaussianRational] = {}
    for m, q in terms.items():
        q = GaussianRational.coerce(q)
        if not q:
            continue
        for s_exp, c_exp, sign in _reduce_central(m.s_exp, m.c_exp):
            mm = Monomial(m.word, s_exp, c_exp)
            acc = out.get(mm, ZERO) + q * sign
            if acc:
                out[mm] = acc
            else:
                out.pop(mm, None)
    return out


# -- printing ---------------------------------------------------------------


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_coefficient(q: GaussianRational, bare: bool = False) -> str:
    """Render a coefficient so that the expression parser reads it back."""
    if q.im == 0:
        return _format_fraction(q.re)
    if q.re == 0:
        if q.im == 1:
            return "i"
        if q.im == -1:
            return "-i"
        return f"{_format_fraction(q.im)}i"
    body = f"{_format_fraction(q.re)} + {_format_fraction(q.im)}i" if q.im > 0 \
        else f"{_format_fraction(q.re)} - {_format_fraction(-q.im)}i"
    return body if bare else f"({body})"


def _format_monomial(m: Monomial) -> str:
    parts = []
    if m.s_exp:
        parts.append("s" if m.s_exp == 1 else f"s^{m.s_exp}")
    if m.c_exp:
        parts.append("c" if m.c_exp == 1 else f"c^{m.c_exp}")
    run_letter, run_len = None, 0
    for x in m.word + (None,):
        if x == run_letter:
            run_len += 1
            continue
        if run_letter is not None:
            parts.append(LETTERS[run_letter] if run_len == 1
                         else f"{LETTERS[run_letter]}^{run_len}")
        run_letter, run_len = x, 1
    return "·".join(parts)


def format_poly(p: StarPoly) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for m in sorted(p._terms, key=mono_key):
        q = p._terms[m]
        # sign-fold only pure real or pure imaginary coefficients; a genuinely
        # complex one keeps its parentheses so the leading minus stays inside
        foldable = q.re == 0 or q.im == 0
        negative = foldable and (q.re < 0 or q.im < 0)
        if negative:
            q = -q
        mono = _format_monomial(m)
        if not mono:
            body = format_coefficient(q, bare=foldable)
        elif q == ONE_C:
            body = mono
        else:
            body = f"{format_coefficient(q)}·{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
