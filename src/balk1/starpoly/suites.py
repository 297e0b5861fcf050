"""Relation ideals, the built-in identity suite, and suite files.

The two working ideals:

* ``rel1``: equal-defect relations for a pair of letters,
  a*a = b*b, aa* = bb*, a(1-a*a) = b(1-b*b), (1-aa*)a = (1-bb*)b;
* ``rel2``: the difference annihilates the domain-side defects and its
  adjoint the range-side ones, together with the adjoint statements:
  (a-b)d = 0 = d'(a-b) and (a*-b*)d' = 0 = d(a*-b*) for d among
  1-a*a, 1-b*b and d' among 1-aa*, 1-bb*.

Only this orientation of the annihilation relations follows from rel1: the
exact pair a = [[0,0],[1,0]], b = -a satisfies rel1 yet (a-b)(1-aa*) = 2a,
so the crossed products are not consequences and are deliberately omitted.

The built-in suite certifies, as exact ideal memberships, the algebraic
facts the rest of the package relies on numerically: rel1 implies rel2;
the element c = 1 + b*(a-b) is unitary, carries b to a, commutes with b*b
and differs from 1 only on the defect; and the doubled 2x2 identities
behind the swap, adjoint and canonical-embedding homotopies, expanded over
the central circle symbols.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParseError
from ..relations import RELATIONS
from .algebra import StarPoly, format_poly
from .membership import (MembershipCertificate, RelationIdeal, ideal_member,
                         certificate_is_valid)
from .parsing import parse

A = StarPoly.letter("a")
B = StarPoly.letter("b")
S = StarPoly.central("s")
C = StarPoly.central("c")
ONE = StarPoly.one()

CENTRAL_RELATION = S * S + C * C - 1

_DEFECTS = (ONE - A.star * A, ONE - A * A.star,
            ONE - B.star * B, ONE - B * B.star)


def rel1_ideal() -> RelationIdeal:
    return RelationIdeal(
        name="rel1",
        generators=(
            A.star * A - B.star * B,
            A * A.star - B * B.star,
            A * (ONE - A.star * A) - B * (ONE - B.star * B),
            (ONE - A * A.star) * A - (ONE - B * B.star) * B,
        ),
        central_relations=(CENTRAL_RELATION,),
    )


_FACTORS = {"a": A, "b": B, "d": A - B, "d*": A.star - B.star,
            "qa": ONE - A.star * A, "qb": ONE - B.star * B,
            "pa": ONE - A * A.star, "pb": ONE - B * B.star}

REL2_PRODUCTS = {name: _FACTORS[left] * _FACTORS[right]
                 for name, (left, right), _ in RELATIONS[4:]}


def rel2_ideal() -> RelationIdeal:
    return RelationIdeal(name="rel2", generators=tuple(REL2_PRODUCTS.values()),
                         central_relations=(CENTRAL_RELATION,))


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


# -- 2x2 matrices over StarPoly ----------------------------------------------

Mat2 = Tuple[Tuple[StarPoly, StarPoly], Tuple[StarPoly, StarPoly]]


def m2(a11, a12, a21, a22) -> Mat2:
    return ((a11, a12), (a21, a22))


def m2_diag(x: StarPoly, y: StarPoly) -> Mat2:
    return m2(x, StarPoly.zero(), StarPoly.zero(), y)


def m2_mul(x: Mat2, y: Mat2) -> Mat2:
    return tuple(tuple(sum((x[i][k] * y[k][j] for k in range(2)), StarPoly.zero())
                       for j in range(2)) for i in range(2))


def m2_sub(x: Mat2, y: Mat2) -> Mat2:
    return tuple(tuple(x[i][j] - y[i][j] for j in range(2)) for i in range(2))


def m2_star(x: Mat2) -> Mat2:
    return tuple(tuple(x[j][i].star for j in range(2)) for i in range(2))


M2_ONE: Mat2 = m2_diag(ONE, ONE)


def rotation_mat2() -> Mat2:
    """The rotation with central entries: ((c, -s), (s, c))."""
    return m2(C, -S, S, C)


def pair_relation_entries(left: Mat2, right: Mat2, prefix: str
                          ) -> List[Tuple[str, StarPoly]]:
    """The 16 entry identities stating that (left, right) satisfies rel1."""
    ls, rs = m2_star(left), m2_star(right)
    relations = {
        "staradj": m2_sub(m2_mul(ls, left), m2_mul(rs, right)),
        "adjstar": m2_sub(m2_mul(left, ls), m2_mul(right, rs)),
        "defect-right": m2_sub(
            m2_sub(left, m2_mul(left, m2_mul(ls, left))),
            m2_sub(right, m2_mul(right, m2_mul(rs, right)))),
        "defect-left": m2_sub(
            m2_sub(left, m2_mul(m2_mul(left, ls), left)),
            m2_sub(right, m2_mul(m2_mul(right, rs), right))),
    }
    out = []
    for rel_name, mat in relations.items():
        for i in range(2):
            for j in range(2):
                out.append((f"{prefix}:{rel_name}:{i + 1}{j + 1}", mat[i][j]))
    return out


def _conjugated(inner: Mat2) -> Mat2:
    u = rotation_mat2()
    return m2_mul(m2_star(u), m2_mul(inner, u))


def swap_pair_mats() -> Tuple[Mat2, Mat2]:
    """Doubled pair behind [(a,b)] + [(b,a)] = 0: (a⊕b, U* (a⊕b) U)."""
    inner = m2_diag(A, B)
    return inner, _conjugated(inner)


def adjoint_pair_mats() -> Tuple[Mat2, Mat2]:
    """Doubled pair behind [(a,b)] + [(a*,b*)] = 0.

    Uses the order U*(1⊕x*)U · (x⊕1), whose endpoints are x⊕x* and x*x⊕1.
    """
    def side(x: StarPoly) -> Mat2:
        return m2_mul(_conjugated(m2_diag(ONE, x.star)), m2_diag(x, ONE))
    return side(A), side(B)


def canonical_pair_mats() -> Tuple[Mat2, Mat2]:
    """Doubled pair behind [(c,b)] with c = 1 + b*(a-b): (c⊕b, (1⊕b)U*(1⊕c)U)."""
    c = canonical_unitary_poly()
    left = m2_diag(c, B)
    right = m2_mul(m2_diag(ONE, B), _conjugated(m2_diag(ONE, c)))
    return left, right


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

    def to_json(self, include_certificates: bool = True) -> str:
        payload = []
        for r in self.results:
            row = {"name": r.name, "certified": r.ok, "found": r.found,
                   "bound": r.bound, "replay_ok": r.replay_ok,
                   "grading_ok": r.grading_ok, "terms": r.n_terms,
                   "seconds": round(r.seconds, 4)}
            if include_certificates and r.certificate is not None:
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
    rel2 = rel2_ideal()
    c = canonical_unitary_poly()
    c_flip = ONE + (A - B) * B.star
    entries: List[SuiteEntry] = []

    for label, g in REL2_PRODUCTS.items():
        entries.append(SuiteEntry(f"rel1-implies-rel2:{label}", g, rel1))

    entries.append(SuiteEntry(
        "defect-product-collapse",
        (ONE - A.star * A) * (ONE - B.star * B) - (ONE - A.star * A) ** 2,
        rel2))

    entries.append(SuiteEntry("unitary:c*c", c.star * c - 1, rel1))
    entries.append(SuiteEntry("unitary:cc*", c * c.star - 1, rel1))
    entries.append(SuiteEntry("unitary:flip*flip", c_flip.star * c_flip - 1, rel1))
    entries.append(SuiteEntry("unitary:flipflip*", c_flip * c_flip.star - 1, rel1))
    entries.append(SuiteEntry("carry:bc-a", B * c - A, rel1))
    entries.append(SuiteEntry("commute:[b*b,c]",
                              B.star * B * c - c * (B.star * B), rel1))
    entries.append(SuiteEntry("annihilate:(1-b*b)(c-1)",
                              (ONE - B.star * B) * (c - 1), rel1))
    entries.append(SuiteEntry("annihilate:(c-1)(1-b*b)",
                              (c - 1) * (ONE - B.star * B), rel1))

    for mats, prefix in ((swap_pair_mats(), "double-swap"),
                         (adjoint_pair_mats(), "double-adjoint"),
                         (canonical_pair_mats(), "double-canonical")):
        for name, target in pair_relation_entries(*mats, prefix=prefix):
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
        ideal_text = fields["ideal"]
        if ideal_text.startswith("custom:"):
            gens = tuple(parse(g) for g in ideal_text[len("custom:"):].split(";")
                         if g.strip())
            ideal = RelationIdeal(name="custom", generators=gens,
                                  central_relations=(CENTRAL_RELATION,))
        else:
            ideal = ideal_by_name(ideal_text)
        bound = int(fields["bound"]) if "bound" in fields else None
        entries.append(SuiteEntry(fields["name"], parse(fields["target"]),
                                  ideal, bound))
    return entries
