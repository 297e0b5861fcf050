"""Bounded-degree two-sided ideal membership with replayable certificates.

Membership of a target in the two-sided ideal generated by a list of
polynomials is decided by linear algebra on the span of products
left · generator · right  whose word degree stays within a caller-supplied
bound.  Success yields a decomposition that an independent replay routine
can re-multiply and compare against the target; failure only states that no
decomposition exists up to the bound.

The products are enumerated in a fixed order, shortest multipliers first, and
the search runs in two stages:

* **modular search**: the products are eliminated in an incremental row
  echelon over the prime field F_p, p = 998244353, and the target is tried
  after 1, 2, 4, ... products, then after every CHUNK of them.  Since
  p ≡ 1 (mod 4), the imaginary unit maps to a square root of -1 mod p.  Each
  pivot records the product it came from and the eliminations that reduced
  that product's row into it; no pivot carries a combination of products.
  Once the target reduces to zero mod p, the factors applied to the target
  are unwound through those records, newest pivot first, into the products
  the combination uses (the support);
* **exact recovery**: the target is solved again over the Gaussian
  rationals, on the rows of the support only.  Those rows are independent
  mod p, hence over Q(i), so the multipliers are unique.

Reduction mod p can lose a certificate whose multipliers need p in a
denominator, and a combination mod p need not hold exactly.  So whenever a
coefficient of the target or of a generator has a denominator divisible by
p, the modular search finds nothing, or the exact solve on the support
leaves a residue, the same exact solve runs over every product up to the
bound, trying the target on the same schedule.  Completeness up to the
bound is that of exact elimination.

Where the attempts fall does not change a certificate.  A product's row
becomes a pivot exactly when it is independent of the rows of the products
before it, whatever the attempts, and the pivots have distinct leads.  So
the target's combination over the pivots is unique once it exists, and the
pivots that later products add get factor 0 in it: the support, the exact
solve on it and the certificate are the same whichever prefix spanning the
target is tried first.  The search may therefore stop at the first one.

Two structural reductions keep the search small without losing completeness:

* when every generator is free of the central symbols, a target splits over
  the central monomial basis (the centrals span a free module), so each
  component is solved as a pure word problem and the central monomial is
  attached to the left multiplier of the certificate;
* when every generator is homogeneous for the letter charge (+1 for a, b,
  -1 for their adjoints), the ideal is charge-graded, so only products
  matching the charge of each target component can contribute.

A word-problem search, with its modular echelon, serves the whole process
for its key (effective generators, degree bound, charge or None when the
ideal is not graded): every target component with that key, in any call,
extends it only as far as it needs, its batches going on from where the
last one left them.  (Generators with central symbols get a search per call.)
A kept echelon cannot change a certificate: its products enter in the same
order as in a fresh search, so by the argument above its pivots are those a
fresh search makes, and the pivots past the prefix a target needs get
factor 0.  A repeated target costs one reduction, the exact solve on its
support and the replay.  A search whose extension raises (the product
ceiling, an interrupt) is dropped from the map: its echelon may hold part of
a batch, and its enumeration cannot go on.  The price is memory: after the
bundled suite 14 echelons with 39,180 pivots stay resident, about 17 MB
(tracemalloc), below the 21 MB traced peak of a suite run in which every
call built its echelons afresh from dict rows; pivot rows are packed tuples
for that reason.

Relation ideals are *-closed: the adjoint of every listed generator is
adjoined to the working set, matching the semantics of relations that hold
in a *-algebra together with their adjoints.  The central relation
s^2 + c^2 = 1 needs no generator, since the algebra rewrites s^2 as 1 - c^2.

A row is a sparse dict from monomials to coefficients; a modular pivot keeps
its row packed (see ``_ModEchelon``).  In the central-free word problems the
key of a word w is an int: the base-4 digits of w (a, a*, b, b* are 0..3)
after a leading 1.  These keys order exactly like the tuples (len(w), w), so
pivots, supports and certificates are those of a tuple-keyed echelon.  The
row of a product u·g·v is built by shifts from the key of u, the stored
(length, digits) of each word of g and the digits of v.  A coefficient
(x + y·i)/d maps to (x + y·_I)·d⁻¹ mod p.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..errors import DegreeBoundError
from .algebra import (ONE_C, GaussianRational, Monomial, StarPoly, Word,
                      _CHARGE_OF, mono_key, format_coefficient, format_poly,
                      _format_monomial)
from .parsing import parse

PRODUCT_CEILING = 400_000  # a search that would enumerate more products fails
CHUNK = 256  # most products eliminated between two attempts at the target

# the modular search runs over F_P; P = 119·2^23 + 1 ≡ 1 (mod 4) and 3
# generates its multiplicative group, so _I below squares to -1 mod P
P = 998_244_353
_I = pow(3, (P - 1) // 4, P)


@dataclass(frozen=True)
class RelationIdeal:
    """A named two-sided relation ideal of the free *-algebra."""

    name: str
    generators: Tuple[StarPoly, ...]

    def effective_generators(self) -> List[StarPoly]:
        """Working generators: the distinct nonzero ones, then their new
        adjoints."""
        gens: List[StarPoly] = []
        for g in self.generators:
            if not g.is_zero and g not in gens:
                gens.append(g)
        for g in list(gens):
            gs = g.star
            if not gs.is_zero and gs not in gens:
                gens.append(gs)
        return gens


@dataclass(frozen=True)
class CertTerm:
    coefficient: str
    left: str
    generator: int
    right: str


@dataclass(frozen=True)
class MembershipCertificate:
    """Replayable decomposition target = sum coeff · left · generator · right."""

    target: str
    ideal: str
    degree_bound: int
    generators: Tuple[str, ...]
    terms: Tuple[CertTerm, ...]

    def max_term_degree(self) -> int:
        """Largest degree of left · generator · right over the terms; each
        distinct generator or word text is parsed once."""
        degrees: Dict[str, int] = {}

        def degree(text: str) -> int:
            if text not in degrees:
                degrees[text] = parse(text).degree
            return degrees[text]

        return max((degree(t.left) + degree(self.generators[t.generator])
                    + degree(t.right) for t in self.terms), default=0)


def replay_certificate(cert: MembershipCertificate) -> StarPoly:
    """Re-multiply a certificate from its stored text; independent of the
    solver.  Each distinct text is parsed once and the terms are summed into
    one dict."""
    parsed: Dict[str, StarPoly] = {}

    def poly(text: str) -> StarPoly:
        got = parsed.get(text)
        if got is None:
            got = parsed[text] = parse(text)
        return got

    gens = [parse(g) for g in cert.generators]
    total: Dict[Monomial, GaussianRational] = {}
    for t in cert.terms:
        piece = poly(t.coefficient) * poly(t.left) * gens[t.generator] * poly(t.right)
        for m, q in piece.items():
            acc = total.get(m)
            acc = q if acc is None else acc + q
            if acc:
                total[m] = acc
            else:
                del total[m]
    return StarPoly(total, _normalized=True)


def certificate_is_valid(cert: MembershipCertificate) -> bool:
    return replay_certificate(cert) == parse(cert.target)


# -- word enumeration ---------------------------------------------------------


_KEY_CACHE: Dict[int, Dict[int, List[int]]] = {}


def _keys_by_charge(length: int) -> Dict[int, List[int]]:
    """The ``_word_key`` of every word of one length, by charge, each list in
    lexicographic order of the words."""
    got = _KEY_CACHE.get(length)
    if got is None:
        got = {}
        words = itertools.product(range(4), repeat=length)
        for key, w in enumerate(words, 1 << 2 * length):
            got.setdefault(sum(_CHARGE_OF[x] for x in w), []).append(key)
        _KEY_CACHE[length] = got
    return got


# -- elimination over Q(i) and over F_P ---------------------------------------
#
# Rows are sparse dicts whose keys order themselves: ints (``_word_key``) for
# word rows, tuples (``mono_key``) for rows with central symbols; the leading
# term of a row is its largest key.


class _Echelon:
    """Incremental row echelon over Gaussian rationals with combination traces."""

    def __init__(self):
        self.pivots: Dict[object, Tuple[dict, dict]] = {}

    def insert(self, row: dict, combo: dict) -> None:
        while row:
            lead = max(row)
            hit = self.pivots.get(lead)
            if hit is None:
                self.pivots[lead] = (row, combo)
                return
            self._eliminate(lead, row, combo, hit)

    def reduce_fully(self, row: dict) -> Tuple[dict, dict]:
        row = dict(row)
        combo: dict = {}
        pivots = self.pivots
        while True:
            hit = max((m for m in row if m in pivots), default=None)
            if hit is None:
                return row, combo
            self._eliminate(hit, row, combo, pivots[hit])

    def _eliminate(self, lead, row: dict, combo: dict,
                   pivot: Tuple[dict, dict]) -> None:
        prow, pcombo = pivot
        factor = -(row[lead] / prow[lead])
        _axpy(row, prow, factor)
        _axpy(combo, pcombo, factor)


def _axpy(dst: dict, src: dict, factor: GaussianRational) -> None:
    for key, val in src.items():
        acc = dst.get(key)
        acc = val * factor if acc is None else acc + val * factor
        if acc:
            dst[key] = acc
        else:
            dst.pop(key, None)


class _ModEchelon:
    """Incremental row echelon over F_P that keeps no combinations.

    A pivot is stored under its leading key as (row, inverse, order,
    product, steps): its row as reduced at insertion, not normalised, and
    packed as (key, value, key, value, ...); the inverse of the row's
    leading coefficient; its creation order; the product it came from; and
    the eliminations that reduced that product's row into it, as a flat
    list [pivot lead, factor, ...], None when there were none.  A row is
    reduced by adding factor × pivot row, factor = -row[lead] × inverse,
    which cancels its entry at the pivot's lead.  A packed row takes less
    memory than a dict, which counts since echelons are kept (see the
    module docstring).
    """

    def __init__(self):
        self.pivots: Dict[object, tuple] = {}

    def insert(self, row: Dict[object, int], product: object) -> None:
        """Reduce the row of a product in place and keep it as a pivot, or
        drop it when it reduces to zero."""
        pivots = self.pivots
        steps = None
        while row:
            lead = max(row)
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (tuple(itertools.chain.from_iterable(row.items())),
                                pow(row[lead], -1, P), len(pivots), product,
                                steps)
                return
            factor = (P - row[lead]) * hit[1] % P
            _axpy_mod(row, hit[0], factor)
            if steps is None:
                steps = []
            steps += (lead, factor)

    def reduce(self, row: Dict[object, int], factors: Dict[object, int]) -> None:
        """Eliminate every pivot lead from the row in place, adding the
        factor applied to each pivot into ``factors`` (by pivot lead)."""
        pivots = self.pivots
        while True:
            lead = max((m for m in row if m in pivots), default=None)
            if lead is None:
                return
            prow, inv = pivots[lead][:2]
            factor = (P - row[lead]) * inv % P
            _axpy_mod(row, prow, factor)
            factors[lead] = (factors.get(lead, 0) + factor) % P

    def support(self, factors: Dict[object, int]) -> List[object]:
        """The products of the combination  sum over pivots of factor ×
        pivot row, in the order they were inserted.

        A pivot row is its product's row plus the factor-weighted rows of
        the pivots in its steps, all created before it.  Walking the reached
        pivots in reverse creation order therefore finds each pivot's
        coefficient complete when it is taken: the pivot adds it to its own
        product and passes coefficient × factor on to its steps.
        """
        pivots = self.pivots
        coeff = dict(factors)
        heap = [(-pivots[lead][2], lead) for lead in coeff]
        heapq.heapify(heap)
        products = []
        while heap:
            lead = heapq.heappop(heap)[1]
            c = coeff[lead]
            if not c:
                continue
            _, _, _, product, steps = pivots[lead]
            products.append(product)
            it = iter(steps or ())
            for step, factor in zip(it, it):
                if step in coeff:
                    coeff[step] = (coeff[step] + c * factor) % P
                else:
                    coeff[step] = c * factor % P
                    heapq.heappush(heap, (-pivots[step][2], step))
        products.reverse()
        return products


def _axpy_mod(dst: dict, src: tuple, factor: int) -> None:
    """dst += factor × src, src a packed row."""
    it = iter(src)
    for key, val in zip(it, it):
        acc = (dst.get(key, 0) + val * factor) % P
        if acc:
            dst[key] = acc
        else:
            dst.pop(key, None)


def _mod(q: GaussianRational) -> Optional[int]:
    """The image (x + y·_I)·d⁻¹ of q = (x + y·i)/d in F_P; None when P | d."""
    if q.d % P == 0:
        return None
    return (q.x + q.y * _I) * pow(q.d, -1, P) % P


def _mod_row(row: dict) -> Optional[Dict[object, int]]:
    out: Dict[object, int] = {}
    for key, q in row.items():
        r = _mod(q)
        if r is None:
            return None
        if r:
            out[key] = r
    return out


# -- the search ---------------------------------------------------------------


# (generator index, left multiplier, right word); the word-row search gives
# both multiplier words by their ``_word_key``
Product = tuple
Solution = List[Tuple[GaussianRational, Product]]


class _Search:
    """Certificate search over one enumeration of products.

    ``products()`` enumerates the products afresh, always in the same order;
    ``exact_row`` expands one over Q(i) and ``mod_row`` over F_P (None when
    some generator coefficient has no image mod P).  Targets solved in turn
    share one modular echelon, which each extends only as far as it needs.
    """

    def __init__(self, products: Callable[[], Iterator[Product]],
                 exact_row: Callable[[Product], dict],
                 mod_row: Optional[Callable[[Product], Dict[object, int]]]):
        self._products = products
        self._exact_row = exact_row
        self._mod_row = mod_row
        self._pending = _batches(products())
        self._echelon = _ModEchelon()

    def solve(self, target: dict) -> Optional[Solution]:
        """Multipliers and products whose rows sum to the target row."""
        target_mod = None if self._mod_row is None else _mod_row(target)
        support = None if target_mod is None else self.support(target_mod)
        if support is not None:
            found = self._exact_solve(target, [support])
            if found is not None:
                return found
        return self._exact_solve(target, _batches(self._products()))

    def support(self, target_mod: Dict[object, int]) -> Optional[List[Product]]:
        """The products of a combination equal to the target mod P, in
        enumeration order; None when no product up to the bound gives one.

        The echelon is extended a batch at a time (see ``_batches``) until
        the target reduces to zero.  The reduced target and its factors
        carry over from one batch to the next: the fully reduced residue,
        and the factors that reach it, do not depend on the order of the
        eliminations."""
        residue: Dict[object, int] = dict(target_mod)
        factors: Dict[object, int] = {}
        while True:
            self._echelon.reduce(residue, factors)
            if not residue:
                return self._echelon.support(factors)
            if not self._extend():
                return None

    def _extend(self) -> bool:
        """Eliminate the next batch of products mod P into the shared
        echelon; False when every product is in it already."""
        batch = next(self._pending, None)
        if batch is None:
            return False
        for item in batch:
            row = self._mod_row(item)
            if row:
                self._echelon.insert(row, item)
        return True

    def _exact_solve(self, target: dict, batches: Iterable[List[Product]]
                     ) -> Optional[Solution]:
        """Exact elimination of the products' rows in order, trying the
        target after each batch: the support comes as one batch, every
        product up to the bound in the batches of ``_batches``."""
        echelon = _Echelon()
        used: List[Product] = []
        for batch in batches:
            for item in batch:
                used.append(item)
                row = self._exact_row(item)
                if row:
                    echelon.insert(row, {len(used) - 1: ONE_C})
            residue, combo = echelon.reduce_fully(target)
            if not residue:
                return [(-combo[j], used[j]) for j in sorted(combo)]
        return None


# the word-problem searches of the process, by (effective generators, degree
# bound, charge or None); see the module docstring
_SEARCHES: Dict[tuple, _Search] = {}


def _batches(products: Iterable[Product]) -> Iterator[List[Product]]:
    """The products in runs that end where the target is tried: after 1, 2,
    4, ... products, then after every CHUNK."""
    products = iter(products)
    done = 0
    while True:
        batch = list(itertools.islice(products, min(CHUNK, max(1, done))))
        if not batch:
            return
        done += len(batch)
        yield batch


def _capped(products: Iterable[Product], bound: int) -> Iterator[Product]:
    for count, item in enumerate(products, 1):
        if count > PRODUCT_CEILING:
            raise DegreeBoundError(
                f"degree bound {bound} would enumerate more than "
                f"{PRODUCT_CEILING} products")
        yield item


# -- the solver ---------------------------------------------------------------


@dataclass
class _GenMeta:
    index: int  # position in the effective generator list
    poly: StarPoly
    degree: int
    charge: Optional[int]  # None when not homogeneous
    terms: List[Tuple[Monomial, GaussianRational]] = field(init=False)

    def __post_init__(self):
        self.terms = list(self.poly.items())


def ideal_member(target: StarPoly, ideal: RelationIdeal,
                 degree_bound: int) -> Optional[MembershipCertificate]:
    """Search for a certificate of  target ∈ ideal  up to the degree bound.

    Returns the certificate on success and None when membership was not
    demonstrated within the bound (which is not a proof of non-membership).
    """
    if degree_bound < target.degree:
        raise DegreeBoundError(
            f"degree bound {degree_bound} is below the target degree {target.degree}")

    gens = [_GenMeta(i, g, g.degree, _charge_of_poly(g))
            for i, g in enumerate(ideal.effective_generators())]

    if target.is_zero:
        return MembershipCertificate(
            target=format_poly(target), ideal=ideal.name, degree_bound=degree_bound,
            generators=tuple(format_poly(g.poly) for g in gens), terms=())
    if not gens:
        return None

    central_free = all(g.poly.is_central_free for g in gens)
    graded = all(g.charge is not None for g in gens)
    gen_mod = {g.index: [(m, _mod(q)) for m, q in g.terms] for g in gens}
    reducible = all(r is not None for terms in gen_mod.values() for _, r in terms)

    if not central_free:
        return _solve_general(target, gens, ideal, degree_bound, reducible)

    exact_row = _word_rows({g.index: g.terms for g in gens})
    mod_row = _word_rows({i: [(m, r) for m, r in terms if r]
                          for i, terms in gen_mod.items()}) if reducible else None

    polys = tuple(g.poly for g in gens)
    all_terms: List[CertTerm] = []
    for (s_exp, c_exp, charge), word_row in _split_components(target).items():
        want = charge if graded else None
        key = (polys, degree_bound, want)
        search = _SEARCHES.get(key)
        if search is None:
            search = _SEARCHES[key] = _Search(
                lambda want=want: _capped(_iter_products(gens, degree_bound, want),
                                          degree_bound),
                exact_row, mod_row)
        try:
            found = search.solve(word_row)
        except BaseException:
            # its echelon may hold part of a batch, or its products may
            # have run out mid-enumeration: never reuse it
            del _SEARCHES[key]
            raise
        if found is None:
            return None
        for coeff, (gen_idx, ku, kv) in found:
            all_terms.append(CertTerm(
                coefficient=format_coefficient(coeff),
                left=_format_monomial(Monomial(_key_word(ku), s_exp, c_exp)) or "1",
                generator=gen_idx,
                right=_format_monomial(Monomial(_key_word(kv))) or "1"))
    return MembershipCertificate(
        target=format_poly(target), ideal=ideal.name, degree_bound=degree_bound,
        generators=tuple(format_poly(g.poly) for g in gens),
        terms=tuple(all_terms))


def _charge_of_poly(p: StarPoly) -> Optional[int]:
    qs = p.charges()
    return qs.pop() if len(qs) == 1 else None


def _word_key(w: Word) -> int:
    """The word as base-4 digits after a leading 1.  Longer words get larger
    keys and words of one length order lexicographically, exactly like the
    tuples (len(w), w)."""
    key = 1
    for x in w:
        key = (key << 2) | x
    return key


def _key_word(key: int) -> Word:
    """The word whose ``_word_key`` is key."""
    return tuple((key >> s) & 3 for s in range(key.bit_length() - 3, -1, -2))


def _word_rows(gen_terms: Dict[int, List[Tuple[Monomial, object]]]
               ) -> Callable[[Product], dict]:
    """Row builder for central-free generators, whose terms have distinct words.

    The key of u·w·v is that of u shifted past w and v, with the digits of w
    and of v or'ed in; each generator word is stored as (2·len, digits), and
    the product carries the keys of u and v (see ``_iter_products``)."""
    words = {i: [(2 * len(m.word), _word_key(m.word) ^ (1 << 2 * len(m.word)), q)
                 for m, q in terms]
             for i, terms in gen_terms.items()}

    def row(item: Product) -> dict:
        gen_idx, ku, kv = item
        shift = kv.bit_length() - 1
        vd = kv ^ (1 << shift)
        return {(((ku << s) | wd) << shift) | vd: q for s, wd, q in words[gen_idx]}
    return row


def _split_components(target: StarPoly) -> Dict[Tuple[int, int, int], dict]:
    """Word rows of the target, one per (s_exp, c_exp, charge) component."""
    components: Dict[Tuple[int, int, int], dict] = {}
    for m, q in target.items():
        key = (m.s_exp, m.c_exp, m.charge)
        components.setdefault(key, {})[_word_key(m.word)] = q
    return components


def _iter_products(gens: Sequence[_GenMeta], bound: int, charge: Optional[int]):
    """Yield (gen_index, left_key, right_key) by increasing multiplier
    length, the multiplier words given by their ``_word_key``."""
    max_total = max((bound - g.degree for g in gens), default=-1)
    for total in range(max_total + 1):
        for g in gens:
            if total > bound - g.degree:
                continue
            for left_len in range(total + 1):
                right_len = total - left_len
                if charge is None:
                    # in lexicographic order the keys of one length count up
                    for ku in range(1 << 2 * left_len, 2 << 2 * left_len):
                        for kv in range(1 << 2 * right_len, 2 << 2 * right_len):
                            yield (g.index, ku, kv)
                else:
                    need = charge - (g.charge or 0)
                    left_buckets = _keys_by_charge(left_len)
                    right_buckets = _keys_by_charge(right_len)
                    for qu in sorted(left_buckets):
                        kvs = right_buckets.get(need - qu)
                        if not kvs:
                            continue
                        for ku in left_buckets[qu]:
                            for kv in kvs:
                                yield (g.index, ku, kv)


def _solve_general(target: StarPoly, gens: Sequence[_GenMeta], ideal: RelationIdeal,
                   bound: int, reducible: bool) -> Optional[MembershipCertificate]:
    """Generators carrying central symbols: enumerate central multipliers
    explicitly (complete up to the stated central degree cap)."""
    central_cap = target.central_degree + max(g.poly.central_degree for g in gens) + 2
    centrals = [(e, f) for e in (0, 1) for f in range(central_cap + 1)
                if e + f <= central_cap]
    gen_by_index = {g.index: g for g in gens}

    def products() -> Iterator[Product]:
        words = ((gen_idx, _key_word(ku), _key_word(kv))
                 for gen_idx, ku, kv in _iter_products(gens, bound, None))
        return _capped(((gen_idx, Monomial(u, e, f), v)
                        for gen_idx, u, v in words for e, f in centrals), bound)

    def exact_row(item: Product) -> dict:
        gen_idx, left, v = item
        p = StarPoly.monomial(left) * gen_by_index[gen_idx].poly * \
            StarPoly.monomial(Monomial(v))
        return {mono_key(m): q for m, q in p.items()}

    def mod_row(item: Product) -> Dict[object, int]:
        return _mod_row(exact_row(item))

    found = _Search(products, exact_row, mod_row if reducible else None).solve(
        {mono_key(m): q for m, q in target.items()})
    if found is None:
        return None
    terms = tuple(CertTerm(coefficient=format_coefficient(coeff),
                           left=_format_monomial(left) or "1",
                           generator=gen_idx,
                           right=_format_monomial(Monomial(v)) or "1")
                  for coeff, (gen_idx, left, v) in found)
    return MembershipCertificate(
        target=format_poly(target), ideal=ideal.name, degree_bound=bound,
        generators=tuple(format_poly(g.poly) for g in gens), terms=terms)
