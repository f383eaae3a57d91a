"""The *-algebra of canonical monomials of the 2-adic ring algebra Q2.

A monomial is the tuple (l, a, b, c) standing for U^l S2^a S2*^b U^c with
0 <= l < 2^a, where U is the generating unitary and S2 the generating
isometry (S2 U = U^2 S2, S2 S2* + U S2 S2* U* = 1).  Every word S_mu S_nu* U^k
in the generators has this form, the product of two monomials is again a
single monomial or zero, and at a fixed depth b = B distinct tuples are
linearly independent, which makes operator equality decidable.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .scalars import DyadicCyclotomic, ONE as SC_ONE, ZERO as SC_ZERO, _exact, _power, _sum_terms

__all__ = [
    "Monomial",
    "Element",
    "DepthTooSmall",
    "BudgetExceeded",
    "from_generator",
    "equals",
    "normalize_depth",
    "membership",
    "gauge_component",
    "proj_Pn",
    "proj_Qn",
    "multiindex_label",
    "multiindex_of_label",
    "monomial_of_pair",
    "pair_of_monomial",
    "GEN_U",
    "GEN_U_STAR",
    "GEN_S1",
    "GEN_S2",
    "GEN_S1_STAR",
    "GEN_S2_STAR",
    "ZERO",
    "ONE",
]


class DepthTooSmall(ValueError):
    """Requested normalization depth is below the element's depth."""


class BudgetExceeded(Exception):
    """The input asks for more than a stated size bound allows; raised before
    anything is built.  Not a ValueError: the input is well formed, so the CLI
    reports it as an engine error (exit 3), not as a parse error."""


class Monomial(NamedTuple):
    """Canonical tuple (l, a, b, c) for U^l S2^a (S2*)^b U^c, 0 <= l < 2^a."""

    l: int
    a: int
    b: int
    c: int

    def validate(self) -> "Monomial":
        if self.a < 0 or self.b < 0 or not 0 <= self.l < (1 << self.a):
            raise ValueError(f"not a canonical monomial: {self}")
        return self

    def adjoint(self) -> "Monomial":
        # (U^l S2^a S2*^b U^c)* = U^-c S2^b S2*^a U^-l; renormalizing the
        # leading power with -c = 2^b q + r gives (r, b, a, 2^a q - l)
        q, r = divmod(-self.c, 1 << self.b)
        return Monomial(r, self.b, self.a, (q << self.a) - self.l)

    def degree(self) -> int:
        """Gauge degree a - b."""
        return self.a - self.b


def mono_mul(x: Monomial, y: Monomial) -> Monomial | None:
    """Product of two canonical monomials: a single monomial, or None for zero.

    The middle word (S2*)^b1 U^(c1+l2) S2^a2 is resolved through the push rule
    U^m S2^a = U^(m mod 2^a) S2^a U^(m div 2^a).
    """
    m = x.c + y.l
    if y.a >= x.b:
        # (S2*)^b1 U^m S2^a2 = [2^b1 | m] U^r S2^(a2-b1) U^q
        if m & ((1 << x.b) - 1):
            return None
        m >>= x.b
        gap = y.a - x.b
        q, r = divmod(m, 1 << gap)
        return Monomial(x.l + (r << x.a), x.a + gap, y.b, (q << y.b) + y.c)
    # (S2*)^b1 U^m S2^a2 = [2^a2 | m] (S2*)^(b1-a2) U^(m div 2^a2)
    if m & ((1 << y.a) - 1):
        return None
    m >>= y.a
    return Monomial(x.l, x.a, x.b - y.a + y.b, (m << y.b) + y.c)


_GENERATOR_TUPLES = {
    "U": Monomial(0, 0, 0, 1),
    "U*": Monomial(0, 0, 0, -1),
    "S2": Monomial(0, 1, 0, 0),
    "S1": Monomial(1, 1, 0, 0),
    "S2*": Monomial(0, 0, 1, 0),
    "S1*": Monomial(0, 0, 1, -1),
}


class Element:
    """Finite linear combination of canonical monomials with exact coefficients.

    Elements are immutable values.  Term maps are not unique below the common
    depth (the Cuntz relation refines monomials), so ``==`` is semantic: it
    decides equality of the induced operators on l2(Z).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Monomial, DyadicCyclotomic]] | dict = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        object.__setattr__(self, "_terms", _sum_terms(_checked_term(m, c) for m, c in items))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, DyadicCyclotomic]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, DyadicCyclotomic]]:
        """Terms in the canonical (b, a, l, c) order used for serialization."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0].b, kv[0].a, kv[0].l, kv[0].c))

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def depth(self) -> int:
        """Maximal S2* power over the stored terms (0 for the zero element)."""
        return max((m.b for m in self._terms), default=0)

    def coefficient(self, mono: Monomial) -> DyadicCyclotomic:
        return self._terms.get(mono, SC_ZERO)

    def scalar_part(self) -> DyadicCyclotomic | None:
        """The constant c with self == c*1, or None if self is not scalar.

        Read off the canonical form, where c*1 is the single root term c U^0.
        """
        form = _canonical(self._terms)
        value = form.pop(Monomial(0, 0, 0, 0), SC_ZERO)
        return None if form else value

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return _element(_sum_terms(other._terms.items(), dict(self._terms)))

    def __neg__(self):
        return _element({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "Element":
        s = _exact(s)
        if s.is_zero():
            return ZERO
        return _element({m: s * c for m, c in self._terms.items()})

    def __rmul__(self, s):
        return self.scale(s)

    # -- ring structure ---------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        return _element(_sum_terms(
            (prod, c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
            if (prod := mono_mul(m1, m2)) is not None
        ))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on the span")
        return _power(self, n, ONE)

    def adjoint(self) -> "Element":
        # the monomial adjoint is an involution, so no two terms collide
        return _element({m.adjoint(): c.conj() for m, c in self._terms.items()})

    # -- equality ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return equals(self, other)

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return "Element(0)"
        body = " + ".join(f"({c})*{tuple(m)}" for m, c in self.sorted_terms())
        return f"Element({body})"

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"l": m.l, "a": m.a, "b": m.b, "c": m.c, "coef": coef.to_json()}
                for m, coef in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "Element":
        return cls(
            (Monomial(t["l"], t["a"], t["b"], t["c"]), DyadicCyclotomic.from_json(t["coef"]))
            for t in data["terms"]
        )


def _checked_term(mono, coef) -> tuple[Monomial, DyadicCyclotomic]:
    if not isinstance(mono, Monomial):
        mono = Monomial(*mono)
    return mono.validate(), _exact(coef)


def _element(terms: dict) -> Element:
    """An Element owning a term map that is already valid and zero-free."""
    out = Element.__new__(Element)
    object.__setattr__(out, "_terms", terms)
    return out


def monomial(l: int, a: int, b: int, c: int, coef=1) -> Element:
    return Element([(Monomial(l, a, b, c), coef)])


def scalar(s) -> Element:
    return ONE.scale(s)


ZERO = Element()
ONE = Element([(Monomial(0, 0, 0, 0), SC_ONE)])


def from_generator(symbol: str) -> Element:
    """One of U, U*, S1, S2, S1*, S2* as an Element."""
    try:
        return Element([(_GENERATOR_TUPLES[symbol], SC_ONE)])
    except KeyError:
        raise ValueError(f"unknown generator {symbol!r}") from None


GEN_U = from_generator("U")
GEN_U_STAR = from_generator("U*")
GEN_S1 = from_generator("S1")
GEN_S2 = from_generator("S2")
GEN_S1_STAR = from_generator("S1*")
GEN_S2_STAR = from_generator("S2*")


def _refined(mono: Monomial, coef: DyadicCyclotomic, B: int):
    """Yield the depth-B refinement of a single term.

    Inserting 1 = sum_t U^t S2^d (S2*)^d U^-t (d = B - b) before the S2* block
    turns (l, a, b, c) into the 2^d terms (l + 2^a t, a + d, B, c - 2^b t).
    """
    d = B - mono.b
    if d == 0:
        yield mono, coef
        return
    for t in range(1 << d):
        yield Monomial(mono.l + (t << mono.a), mono.a + d, B, mono.c - (t << mono.b)), coef


def _parent(m: Monomial) -> Monomial:
    """The node that refines into m in one step (needs a, b >= 1)."""
    a, b = m.a - 1, m.b - 1
    return Monomial(m.l & ((1 << a) - 1), a, b, m.c + ((m.l >> a) << b))


def _canonical(terms: dict) -> dict:
    """The unique form of a term map: disjoint leaves, no equal sibling pair.

    One refinement step splits (l, a, b, c) into two children, so the
    monomials form a binary trie over residue classes whose roots have a = 0
    or b = 0; the parent of (l, a, b, c) is
    (l mod 2^(a-1), a-1, b-1, c + 2^(b-1) (l >> (a-1))).  Pushing each
    coefficient that has a deeper term below it onto the node's children
    leaves disjoint leaves, and merging every pair of sibling leaves with one
    coefficient, deepest level first, makes each leaf a largest subtree on
    which the operator is constant.  Distinct leaves are linearly independent,
    so two term maps are the same operator iff their forms are equal, and the
    zero operator has the empty form.  Cost O(terms * depth).
    """
    inner = set()  # proper ancestors of some term, closed upwards
    for m in terms:
        while m.a and m.b:
            m = _parent(m)
            if m in inner:
                break
            inner.add(m)
    form = dict(terms)
    for node in sorted(inner, key=lambda m: m.b):  # shallow first
        coef = form.pop(node, None)
        if coef is not None:
            _sum_terms(_refined(node, coef, node.b + 1), form)
    levels: dict[int, list[Monomial]] = {}
    for m in form:
        levels.setdefault(m.b, []).append(m)
    while levels:
        b = max(levels)
        for m in levels.pop(b):
            coef = form.get(m)
            if coef is None or not (m.a and m.b):
                continue
            parent = _parent(m)
            pair = [child for child, _ in _refined(parent, coef, b)]
            if all(form.get(child) == coef for child in pair):
                for child in pair:
                    del form[child]
                form[parent] = coef
                levels.setdefault(b - 1, []).append(parent)
    return form


def normalize_depth(x: Element, B: int) -> Element:
    """The unique representation of x with every term at depth b = B.

    It refines the canonical leaves to depth B; they are disjoint, so their
    refinements never share a tuple.
    """
    if B < x.depth:
        raise DepthTooSmall(f"depth {B} < element depth {x.depth}")
    return _element(dict(
        ref for mono, coef in _canonical(x._terms).items() for ref in _refined(mono, coef, B)
    ))


def coarsen(x: Element) -> Element:
    """The canonical form of x: refinement undone as far as the operator allows.

    No term lies below another and no two sibling terms share a coefficient,
    which makes the term map unique: equal operators give equal term maps.
    """
    return _element(_canonical(x._terms))


def equals(x: Element, y: Element) -> bool:
    """Decide whether x and y act as the same operator on l2(Z).

    The difference is the zero operator iff its canonical form is empty.
    """
    return not _canonical((x - y)._terms)


def _is_unitary(u: Element) -> bool:
    ustar = u.adjoint()
    return equals(ustar * u, ONE) and equals(u * ustar, ONE)


# -- gauge grading and membership ----------------------------------------------------


def gauge_component(x: Element, d: int) -> Element:
    """The part of x of gauge degree d (terms with a - b = d)."""
    return _element({m: c for m, c in x._terms.items() if m.degree() == d})


_MEMBER_TESTS = {
    "QT": lambda m: m.a == m.b,
    "D2": lambda m: m.a == m.b and m.c == -m.l,
    "CU": lambda m: m.a == m.b == 0,
    "O2": lambda m: 0 <= -m.c < (1 << m.b),
    "F2": lambda m: 0 <= -m.c < (1 << m.b) and m.a == m.b,
}


def membership(x: Element, sub: str) -> bool:
    """Exact membership of x in the algebraic span of a named subalgebra.

    Every canonical leaf of x must pass the subalgebra's test.  CU is spanned
    by the roots U^n (a = b = 0), D2 by the trie below 1 (a = b, c = -l) and
    QT by the tries below all U^n (a = b).  O2 and F2 ask that the depth-B
    form be made of tuples S_alpha S_beta* with no trailing U power, with
    |alpha| = B for F2; a leaf passes 0 <= -c < 2^b (and a = b for F2) iff
    all its depth-B refinements do.
    """
    try:
        inside = _MEMBER_TESTS[sub]
    except KeyError:
        raise ValueError(f"unknown subalgebra {sub!r}") from None
    return all(inside(m) for m in _canonical(x._terms))


# -- projection families ----------------------------------------------------------


def proj_Pn(n: int) -> Element:
    """P_n = S1^n S2 S2* (S1*)^n, the projection onto {i = 2^n - 1 mod 2^(n+1)}.

    S1^n = U^(2^n - 1) S2^n, so P_n is the single monomial
    U^(2^n - 1) S2^(n+1) S2*^(n+1) U^(1 - 2^n).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return monomial((1 << n) - 1, n + 1, n + 1, 1 - (1 << n))


def proj_Qn(n: int) -> Element:
    """Q_n = P_0 + ... + P_n."""
    out = ZERO
    for k in range(n + 1):
        out = out + proj_Pn(k)
    return out


# -- multi-index conversions --------------------------------------------------------


def multiindex_label(digits: Iterable[int]) -> int:
    """The integer l(alpha) = sum_j d_j 2^(j-1) with d(1) = 1, d(2) = 0."""
    label = 0
    for pos, digit in enumerate(digits):
        if digit == 1:
            label |= 1 << pos
        elif digit != 2:
            raise ValueError("multi-index digits must be 1 or 2")
    return label


def multiindex_of_label(j: int, k: int) -> tuple[int, ...]:
    """The length-k multi-index alpha with l(alpha) = j, 0 <= j < 2^k.

    It is the j-th length-k multi-index in the lexicographic order with
    2 < 1, read right to left, and S_alpha S_alpha* is the projection onto
    {i = j mod 2^k}.
    """
    if not 0 <= j < (1 << k):
        raise ValueError(f"label {j} out of range for length {k}")
    return tuple(1 if (j >> pos) & 1 else 2 for pos in range(k))


def monomial_of_pair(mu: Iterable[int], nu: Iterable[int], h: int = 0) -> Monomial:
    """The canonical tuple of S_mu S_nu* U^h."""
    mu = tuple(mu)
    nu = tuple(nu)
    return Monomial(multiindex_label(mu), len(mu), len(nu), h - multiindex_label(nu))


def pair_of_monomial(m: Monomial) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A multi-index pair (mu, nu, h) with S_mu S_nu* U^h equal to m.

    When 0 <= -c < 2^b the O2 form with h = 0 is returned, otherwise nu is the
    all-2 index and h = c.
    """
    mu = multiindex_of_label(m.l, m.a)
    if 0 <= -m.c < (1 << m.b):
        return mu, multiindex_of_label(-m.c, m.b), 0
    return mu, multiindex_of_label(0, m.b), m.c


def s_mu(mu: Iterable[int]) -> Element:
    """The isometry S_mu as an Element."""
    mu = tuple(mu)
    return Element([(Monomial(multiindex_label(mu), len(mu), 0, 0), SC_ONE)])
