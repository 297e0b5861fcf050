"""Relation ideals, the built-in identity suite, and suite files.

The two working ideals are rows of the relation table
``balk1.relations.RELATIONS``, evaluated at the letters a, b by one factor
map (``_factors``):

* ``rel1``: the four defining rows, the equal-defect relations
  a*a = b*b, aa* = bb*, a(1-a*a) = b(1-b*b), (1-aa*)a = (1-bb*)b;
* ``rel2``: the eight annihilation rows: the difference annihilates the
  domain-side defects and its adjoint the range-side ones, together with
  the adjoint statements: (a-b)d = 0 = d'(a-b) and (a*-b*)d' = 0 = d(a*-b*)
  for d among 1-a*a, 1-b*b and d' among 1-aa*, 1-bb*.

Only this orientation of the annihilation relations follows from rel1: the
exact pair a = [[0,0],[1,0]], b = -a satisfies rel1 yet (a-b)(1-aa*) = 2a,
so the crossed products are not consequences and are deliberately omitted.

The built-in suite certifies, as exact ideal memberships, the algebraic
facts the rest of the package relies on numerically: rel1 implies rel2;
the element c = 1 + b*(a-b) is unitary, carries b to a, commutes with b*b
and differs from 1 only on the defect (``c_identities``); and the doubled
2x2 identities behind the swap, adjoint and canonical-embedding homotopies,
expanded over the central circle symbols: the same factor map evaluates the
four defining rows at 2x2 matrices of polynomials (``Mat2``).  The doubled
pairs are written once, in ``path_pair``: the suite certifies them and
``balk1.balanced.homotopy_eval`` evaluates the same matrices at
s = sin t, c = cos t.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParseError
from ..relations import REL1, REL2_NAMES, RELATIONS
from .algebra import StarPoly, format_poly
from .membership import (MembershipCertificate, RelationIdeal, ideal_member,
                         certificate_is_valid)
from .parsing import parse

A = StarPoly.letter("a")
B = StarPoly.letter("b")
S = StarPoly.central("s")
C = StarPoly.central("c")
ONE = StarPoly.one()


# -- the relation table over StarPoly and 2x2 matrices -------------------------


class Mat2(tuple):
    """A 2x2 matrix over StarPoly as its rows, with *, - and the adjoint."""

    def __new__(cls, x11, x12, x21, x22) -> "Mat2":
        return super().__new__(cls, ((x11, x12), (x21, x22)))

    @staticmethod
    def diag(x: StarPoly, y: StarPoly) -> "Mat2":
        return Mat2(x, StarPoly.zero(), StarPoly.zero(), y)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*(sum((self[i][k] * other[k][j] for k in range(2)),
                          StarPoly.zero())
                      for i in range(2) for j in range(2)))

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(*(self[i][j] - other[i][j] for i in range(2) for j in range(2)))

    @property
    def star(self) -> "Mat2":
        return Mat2(*(self[j][i].star for i in range(2) for j in range(2)))


def _factors(x, y, one):
    """The factors named in ``RELATIONS`` at the letters (x, y), over StarPoly
    or over Mat2, with one the unit."""
    return {"1": one, "a": x, "b": y, "d": x - y, "d*": x.star - y.star,
            "qa": one - x.star * x, "qb": one - y.star * y,
            "pa": one - x * x.star, "pb": one - y * y.star}


def _residuals(rows, x, y, one) -> list:
    """The residual of each given row of ``RELATIONS`` at the letters (x, y)."""
    f = _factors(x, y, one)
    out = []
    for _, (left, right), second in rows:
        value = f[left] * f[right]
        out.append(value if second is None else value - f[second[0]] * f[second[1]])
    return out


_REL1_GENERATORS = tuple(_residuals(REL1, A, B, ONE))


def rel1_ideal() -> RelationIdeal:
    return RelationIdeal("rel1", _REL1_GENERATORS)


REL2_PRODUCTS = dict(zip(REL2_NAMES, _residuals(RELATIONS[4:], A, B, ONE)))


def rel2_ideal() -> RelationIdeal:
    return RelationIdeal("rel2", tuple(REL2_PRODUCTS.values()))


def canonical_unitary_poly() -> StarPoly:
    """c = 1 + b*(a - b)."""
    return ONE + B.star * (A - B)


def ideal_by_name(name: str) -> RelationIdeal:
    if name == "rel1":
        return rel1_ideal()
    if name == "rel2":
        return rel2_ideal()
    if name == "none":
        return RelationIdeal(name="none", generators=())
    raise ValueError(f"unknown ideal name {name!r}")


_DOUBLED_NAMES = ("staradj", "adjstar", "defect-right", "defect-left")


def pair_relation_entries(left: Mat2, right: Mat2, prefix: str
                          ) -> List[Tuple[str, StarPoly]]:
    """The 16 entry identities stating that (left, right) satisfies rel1."""
    return [(f"{prefix}:{name}:{i + 1}{j + 1}", mat[i][j])
            for name, mat in zip(_DOUBLED_NAMES,
                                 _residuals(REL1, left, right,
                                            Mat2.diag(ONE, ONE)))
            for i in range(2) for j in range(2)]


PATH_KINDS = ("swap", "adjoint", "canonical")


@lru_cache(maxsize=None)
def path_pair(kind: str) -> Tuple[Mat2, Mat2]:
    """The doubled pair (left, right) of a homotopy kind, over the rotation
    U = ((c, -s), (s, c)) in the central symbols; built once per process.

    * swap, behind [(a,b)] + [(b,a)] = 0: (a⊕b, U*(a⊕b)U);
    * adjoint, behind [(a,b)] + [(a*,b*)] = 0: U*(1⊕x*)U · (x⊕1) for
      x = a, b, whose endpoints are x⊕x* and x*x⊕1;
    * canonical, behind [(c,b)] with c = 1 + b*(a-b): (c⊕b, (1⊕b)U*(1⊕c)U).
    """
    u = Mat2(C, -S, S, C)

    def conjugated(inner: Mat2) -> Mat2:
        return u.star * (inner * u)

    if kind == "swap":
        return Mat2.diag(A, B), conjugated(Mat2.diag(A, B))
    if kind == "adjoint":
        return tuple(conjugated(Mat2.diag(ONE, x.star)) * Mat2.diag(x, ONE)
                     for x in (A, B))
    if kind == "canonical":
        c = canonical_unitary_poly()
        return Mat2.diag(c, B), Mat2.diag(ONE, B) * conjugated(Mat2.diag(ONE, c))
    raise ValueError(f"unknown path kind {kind!r}; expected one of {PATH_KINDS}")


def c_identities() -> Dict[str, StarPoly]:
    """The identities of c = 1 + b*(a-b) and of its flip 1 + (a-b)b*: both
    unitary, bc = a, [b*b, c] = 0 and c - 1 killed by 1 - b*b on each side."""
    c = canonical_unitary_poly()
    flip = ONE + (A - B) * B.star
    qb = ONE - B.star * B
    return {"unitary:c*c": c.star * c - 1,
            "unitary:cc*": c * c.star - 1,
            "unitary:flip*flip": flip.star * flip - 1,
            "unitary:flipflip*": flip * flip.star - 1,
            "carry:bc-a": B * c - A,
            "commute:[b*b,c]": B.star * B * c - c * (B.star * B),
            "annihilate:(1-b*b)(c-1)": qb * (c - 1),
            "annihilate:(c-1)(1-b*b)": (c - 1) * qb}


# -- suite entries ------------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    target: StarPoly
    ideal: RelationIdeal
    bound: Optional[int] = None  # None: 2 + degree of the target

    def effective_bound(self) -> int:
        return self.bound if self.bound is not None else self.target.degree + 2


@dataclass
class EntryResult:
    name: str
    found: bool
    bound: int
    replay_ok: bool
    grading_ok: bool
    n_terms: int
    seconds: float
    certificate: Optional[MembershipCertificate] = None

    @property
    def ok(self) -> bool:
        return self.found and self.replay_ok and self.grading_ok


@dataclass
class SuiteReport:
    results: List[EntryResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> str:
        payload = []
        for r in self.results:
            row = {"name": r.name, "certified": r.ok, "found": r.found,
                   "bound": r.bound, "replay_ok": r.replay_ok,
                   "grading_ok": r.grading_ok, "terms": r.n_terms,
                   "seconds": round(r.seconds, 4)}
            if r.certificate is not None:
                row["certificate"] = {
                    "target": r.certificate.target,
                    "ideal": r.certificate.ideal,
                    "degree_bound": r.certificate.degree_bound,
                    "generators": list(r.certificate.generators),
                    "terms": [[t.coefficient, t.left, t.generator, t.right]
                              for t in r.certificate.terms],
                }
            payload.append(row)
        return json.dumps({"ok": self.ok, "entries": payload}, indent=2)


def verify_identity_suite(entries: Sequence[SuiteEntry]) -> SuiteReport:
    """Run every entry; an entry passes only with a replay-validated certificate."""
    report = SuiteReport()
    for entry in entries:
        bound = entry.effective_bound()
        started = time.perf_counter()
        cert = ideal_member(entry.target, entry.ideal, bound)
        elapsed = time.perf_counter() - started
        if cert is None:
            report.results.append(EntryResult(entry.name, False, bound,
                                              False, False, 0, elapsed))
            continue
        replay_ok = certificate_is_valid(cert)
        grading_ok = cert.max_term_degree() <= bound
        report.results.append(EntryResult(entry.name, True, bound, replay_ok,
                                          grading_ok, len(cert.terms), elapsed,
                                          cert))
    return report


def default_suite() -> List[SuiteEntry]:
    """The built-in identity suite."""
    rel1 = rel1_ideal()
    entries = [SuiteEntry(f"rel1-implies-rel2:{label}", g, rel1)
               for label, g in REL2_PRODUCTS.items()]
    entries.append(SuiteEntry(
        "defect-product-collapse",
        (ONE - A.star * A) * (ONE - B.star * B) - (ONE - A.star * A) ** 2,
        rel2_ideal()))
    entries += [SuiteEntry(name, target, rel1)
                for name, target in c_identities().items()]
    for kind in PATH_KINDS:
        for name, target in pair_relation_entries(*path_pair(kind),
                                                  prefix=f"double-{kind}"):
            if target.is_zero:
                entries.append(SuiteEntry(name, target,
                                          ideal_by_name("none"), bound=0))
            else:
                entries.append(SuiteEntry(name, target, rel1))
    return entries


# -- suite files ---------------------------------------------------------------


def format_suite(entries: Sequence[SuiteEntry]) -> str:
    """Render entries in the stanza text format (one blank line between)."""
    blocks = []
    for e in entries:
        if e.ideal.name in ("rel1", "rel2", "none"):
            ideal_line = e.ideal.name
        else:
            ideal_line = "custom: " + " ; ".join(format_poly(g)
                                                 for g in e.ideal.generators)
        lines = [f"name: {e.name}", f"ideal: {ideal_line}"]
        if e.bound is not None:
            lines.append(f"bound: {e.bound}")
        lines.append(f"target: {format_poly(e.target)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _field(stanza: str, read, text: str):
    """``read(text)``, with its ``ValueError`` raised as a ``ParseError``
    that names the stanza."""
    try:
        return read(text)
    except ValueError as exc:
        raise ParseError(f"stanza {stanza!r}: {exc}", 0) from None


def parse_suite(text: str) -> List[SuiteEntry]:
    entries: List[SuiteEntry] = []
    for block in [b for b in text.split("\n\n") if b.strip()]:
        fields: Dict[str, str] = {}
        for line in block.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ParseError(f"suite line without a key: {line!r}", 0)
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
        missing = {"name", "ideal", "target"} - set(fields)
        if missing:
            raise ParseError(f"suite stanza missing {sorted(missing)}", 0)
        name, ideal_text = fields["name"], fields["ideal"]
        if ideal_text.startswith("custom:"):
            gens = tuple(parse(g) for g in ideal_text[len("custom:"):].split(";")
                         if g.strip())
            ideal = RelationIdeal(name="custom", generators=gens)
        else:
            ideal = _field(name, ideal_by_name, ideal_text)
        bound = _field(name, int, fields["bound"]) if "bound" in fields else None
        entries.append(SuiteEntry(name, parse(fields["target"]),
                                  ideal, bound))
    return entries
