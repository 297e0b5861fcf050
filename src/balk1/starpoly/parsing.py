"""Expression parser for *-polynomials.

Grammar (whitespace-insensitive)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (['·'] factor)*          # juxtaposition multiplies
    factor := atom ('*' | '^' NUMBER)*        # postfix adjoint and power
    atom   := NUMBER ['/' NUMBER] | SYMBOL | '(' expr ')'
    SYMBOL := 'a' | 'b' | 's' | 'c' | 'i' | '1'

Unicode minus and middle-dot variants are accepted.  A NUMBER is a run of
ASCII digits; a '.' between two digits is rejected as a decimal point, and
anywhere else it is a multiplication dot.  The printer in
``algebra.format_poly`` emits text that this parser reads back exactly.

The text is read in one pass.  A term without parentheses is read straight
into one coefficient, one word and one pair of central exponents, which are
reduced once; only from a parenthesised group on are a term's factors
multiplied as polynomials.  The terms are added in place into one dict.

Order guarantee: the stored terms come in text order, each where it first
appears; a term that cancels is dropped (and goes to the end if a later term
brings it back).  A product with a parenthesised group keeps the order of the
nested products, taken left to right.  This is the order of adding and
multiplying the pieces one at a time with ``StarPoly``, and certificates
depend on it: ``ideal_member`` solves a target's components in the order of
its terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from ..errors import ParseError
from .algebra import (_LETTER_CODE, GaussianRational, Monomial, StarPoly,
                      _reduce_central, _reduced)

# One token per match after optional whitespace: a number or one character.
_TOKEN = re.compile(r"\s*([0-9]+(?:\.[0-9]+)?|\S)")
_KIND = {**dict.fromkeys("0123456789", "NUM"), **dict.fromkeys("absci", "SYM"),
         **dict.fromkeys("-−–", "MINUS"), **dict.fromkeys("·⋅.", "DOT"),
         "+": "PLUS", "*": "STAR", "^": "CARET", "/": "SLASH", "(": "LP", ")": "RP"}
_FACTOR_START = ("NUM", "SYM", "LP")

_Terms = Dict[Monomial, GaussianRational]


def _monomial(num: int, den: int, ipow: int, word: List[int], s_exp: int,
              c_exp: int) -> _Terms:
    """(num/den)·i^ipow · word · s^s_exp c^c_exp, with its centrals reduced."""
    if not num:
        return {}
    x, y = ((num, 0), (0, num), (-num, 0), (0, -num))[ipow % 4]
    q = _reduced(x, y, den)
    word = tuple(word)
    return {Monomial(word, s, c): q * sign if sign != 1 else q
            for s, c, sign in _reduce_central(s_exp, c_exp)}


class _Reader:
    """The tokens of one text as two lists, ``kinds[k]`` and ``texts[k]``,
    ending in an END token; positions are found again only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.texts = _TOKEN.findall(text)
        self.kinds = [_KIND.get(tok[0], "BAD") for tok in self.texts]
        if "BAD" in self.kinds or "." in text:
            for k, (kind, tok) in enumerate(zip(self.kinds, self.texts)):
                if "." in tok and kind == "NUM":
                    raise ParseError(f"decimal point in {tok!r}; write the number "
                                     f"as {Fraction(tok)}",
                                     self.position(k) + tok.index("."))
                if kind == "BAD":
                    raise ParseError(f"unknown symbol {tok!r}" if tok.isalpha()
                                     else f"unexpected character {tok!r}",
                                     self.position(k))
        self.kinds.append("END")
        self.texts.append("")

    def position(self, k: int) -> int:
        """Where token k starts in the text."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return starts[k]

    def expect(self, kind: str, k: int) -> str:
        if self.kinds[k] != kind:
            raise ParseError(f"expected {kind}, found "
                             f"{self.texts[k] or 'end of input'!r}",
                             self.position(k))
        return self.texts[k]

    def group(self, k: int) -> Tuple[StarPoly, int]:
        """The parenthesised factor whose '(' is token k, with its postfix
        '*' and '^n' applied in turn, and the index after it."""
        value, k = self.expr(k + 1)
        self.expect("RP", k)
        factor = StarPoly(value, _normalized=True)
        k += 1
        while self.kinds[k] in ("STAR", "CARET"):
            if self.kinds[k] == "STAR":
                factor, k = factor.star, k + 1
            else:
                factor, k = factor ** int(self.expect("NUM", k + 1)), k + 2
        return factor, k

    def term(self, k: int, sign: int) -> Tuple[Iterable, int]:
        """The term at token k times sign, as (monomial, coefficient) pairs,
        and the index after it."""
        kinds, texts = self.kinds, self.texts
        # the factors read so far: (num/den)·i^ipow · word · s^s_exp c^c_exp
        num, den, ipow, word, s_exp, c_exp = sign, 1, 0, [], 0, 0
        product = None  # the polynomial product, from a '(' on
        while True:
            kind, text = kinds[k], texts[k]
            group = None
            if kind == "LP":
                group, k = self.group(k)
            else:
                k += 1
                if kind == "NUM":
                    n, d = int(text), 1
                    if kinds[k] == "SLASH":
                        d = int(self.expect("NUM", k + 1))
                        if not d:
                            raise ParseError("zero denominator", self.position(k + 1))
                        k += 2
                elif kind != "SYM":
                    raise ParseError(f"expected a value, found "
                                     f"{text or 'end of input'!r}",
                                     self.position(k - 1))
                # a postfix chain on one symbol or number is x^power, starred
                # when it holds an odd number of '*'
                power, starred = 1, 0
                while True:
                    if kinds[k] == "STAR":
                        starred, k = starred ^ 1, k + 1
                    elif kinds[k] == "CARET":
                        power, k = power * int(self.expect("NUM", k + 1)), k + 2
                    else:
                        break
                if kind == "NUM":
                    num, den = num * n ** power, den * d ** power
                elif text == "s":
                    s_exp += power
                elif text == "c":
                    c_exp += power
                elif text == "i":
                    ipow += -power if starred else power
                else:
                    word += [_LETTER_CODE[text] ^ starred] * power
            if group is not None or product is not None:
                # from the first '(' on, the factors are multiplied as
                # polynomials one at a time, as written
                head = StarPoly(_monomial(num, den, ipow, word, s_exp, c_exp),
                                _normalized=True)
                num, den, ipow, word, s_exp, c_exp = 1, 1, 0, [], 0, 0
                product = head if product is None else product * head
                if group is not None:
                    product = product * group
            kind = kinds[k]
            if kind == "DOT":
                k += 1
            elif kind not in _FACTOR_START:
                break
        if product is None:
            return _monomial(num, den, ipow, word, s_exp, c_exp).items(), k
        return product.items(), k

    def expr(self, k: int) -> Tuple[_Terms, int]:
        """The sum at token k, added term by term into one dict, and the
        index after it."""
        total: _Terms = {}
        sign = 1
        if self.kinds[k] in ("PLUS", "MINUS"):
            sign = -1 if self.kinds[k] == "MINUS" else 1
            k += 1
        while True:
            terms, k = self.term(k, sign)
            for m, q in terms:
                acc = total.get(m)
                if acc is None:
                    total[m] = q
                else:
                    acc = acc + q
                    if acc:
                        total[m] = acc
                    else:
                        del total[m]
            kind = self.kinds[k]
            if kind not in ("PLUS", "MINUS"):
                return total, k
            sign = -1 if kind == "MINUS" else 1
            k += 1


def parse(text: str) -> StarPoly:
    """Parse an expression into an exact *-polynomial."""
    reader = _Reader(text)
    total, k = reader.expr(0)
    if reader.kinds[k] != "END":
        raise ParseError(f"unexpected trailing {reader.texts[k]!r}",
                         reader.position(k))
    return StarPoly(total, _normalized=True)
