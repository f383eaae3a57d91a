"""Endomorphisms of Q2 as validated generator-image pairs.

An endomorphism is determined by where U and S2 go; the images must satisfy
the defining relations (img_U unitary, img_S2 an isometry, the commutation
rule and the range partition), which is checked at construction through the
exact equality oracle.  On top of that sit the named morphisms (gauge,
flip-flop, shift, chi, beta, inner), the (V, W) extension calculus for
endomorphisms of the Cuntz subalgebra, the Bogoljubov extensibility
classifier, and the f(U) S2 structure decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .algebra import (
    Element,
    GEN_S1,
    GEN_S1_STAR,
    GEN_S2,
    GEN_S2_STAR,
    GEN_U,
    GEN_U_STAR,
    ONE,
    _element,
    _is_unitary,
    coarsen,
    equals,
    membership,
    monomial,
    monomial_of_pair,
)
from .expectations import _laurent_of
from .scalars import DyadicCyclotomic, _as_scalar, _exact, _sum_terms

__all__ = [
    "Endomorphism",
    "RelationViolated",
    "NotOdd",
    "NotUnitary",
    "ExtensionConditionFailed",
    "NotInS2",
    "compose",
    "gauge",
    "flipflop",
    "shift",
    "chi",
    "beta_monomial",
    "ad_unitary",
    "u_of",
    "W_of",
    "is_beta",
    "ExtensionData",
    "check_extension",
    "compose_extension_data",
    "flip_theta",
    "BogoljubovMatrix",
    "Gauge",
    "FlipFlopGauge",
    "NotExtensible",
    "bogoljubov_classify",
    "decompose_S2_image",
]


class RelationViolated(ValueError):
    """Proposed generator images break a defining relation of Q2."""


class NotOdd(ValueError):
    """chi requires an odd integer."""


class NotUnitary(ValueError):
    """A unitary was required."""


class ExtensionConditionFailed(ValueError):
    """(V, W) extension data violates one of its two equations."""


class NotInS2(ValueError):
    """The element does not satisfy the S2-image relations."""


class Endomorphism:
    """Unital *-endomorphism of Q2, stored by the images of U and S2.

    Applying it substitutes image powers into U^l S2^a (S2*)^b U^c.  The terms
    of one argument repeat these powers (all 2^m terms of a depth-m form need
    img_S2*^m), so `_image_power` remembers each one instead of recomputing it
    per term.
    """

    __slots__ = ("img_U", "img_S2", "_image_power")

    def __init__(self, img_U: Element, img_S2: Element):
        # keep images in merged form so that iterated composition stays small
        img_U = coarsen(img_U)
        img_S2 = coarsen(img_S2)
        if not _is_unitary(img_U):
            raise RelationViolated("image of U is not unitary")
        img_U_star = img_U.adjoint()
        img_S2_star = img_S2.adjoint()
        if not equals(img_S2_star * img_S2, ONE):
            raise RelationViolated("image of S2 is not an isometry")
        if not equals(img_S2 * img_U, img_U * img_U * img_S2):
            raise RelationViolated("images break S2 U = U^2 S2")
        range_proj = img_S2 * img_S2_star
        if not equals(range_proj + img_U * range_proj * img_U_star, ONE):
            raise RelationViolated("images break S2 S2* + U S2 S2* U* = 1")
        images = {"U": img_U, "S2": img_S2, "S2*": img_S2_star}
        object.__setattr__(self, "img_U", img_U)
        object.__setattr__(self, "img_S2", img_S2)
        # (name, n) -> image of name^n; only U takes n < 0, through img_U*
        object.__setattr__(self, "_image_power", cache(
            lambda name, n: images[name] ** n if n >= 0 else img_U_star ** -n))

    def __setattr__(self, name, value):
        raise AttributeError("Endomorphism is immutable")

    def __call__(self, x: Element) -> Element:
        """Homomorphic extension: substitute images in U^l S2^a (S2*)^b U^c."""
        power = self._image_power
        terms = {}
        for mono, coef in x._terms.items():
            word = power("U", mono.l)
            if mono.a:
                word = word * power("S2", mono.a)
            if mono.b:
                word = word * power("S2*", mono.b)
            if mono.c:
                word = word * power("U", mono.c)
            _sum_terms(((m, coef * c) for m, c in word._terms.items()), terms)
        return _element(terms)

    def fixes_generators(self) -> bool:
        return equals(self.img_U, GEN_U) and equals(self.img_S2, GEN_S2)

    def __repr__(self):
        return f"Endomorphism({self.img_U!r}, {self.img_S2!r})"


def compose(e1: Endomorphism, e2: Endomorphism) -> Endomorphism:
    """e1 after e2, validated again on construction."""
    return Endomorphism(e1(e2.img_U), e1(e2.img_S2))


def agree_on_generators(e1: Endomorphism, e2: Endomorphism) -> bool:
    return equals(e1.img_U, e2.img_U) and equals(e1.img_S2, e2.img_S2)


# -- named morphisms ---------------------------------------------------------


def gauge(z: DyadicCyclotomic) -> Endomorphism:
    """The gauge automorphism U -> U, S2 -> z S2 for an exact unimodular z."""
    z = _exact(z)
    if not z.is_unimodular():
        raise NotUnitary(f"gauge parameter {z} is not unimodular")
    return Endomorphism(GEN_U, GEN_S2.scale(z))


def flipflop() -> Endomorphism:
    """The order-two automorphism with U -> U*, S2 -> U S2 (swaps S1 and S2)."""
    return Endomorphism(GEN_U_STAR, GEN_S1)


def _phi(x: Element) -> Element:
    return GEN_U * GEN_S2 * x * GEN_S2_STAR * GEN_U_STAR + GEN_S2 * x * GEN_S2_STAR


def shift() -> Endomorphism:
    """The canonical shift x -> U S2 x S2* U* + S2 x S2*; sends U to U^2."""
    return Endomorphism(_phi(GEN_U), _phi(GEN_S2))


def chi(odd: int) -> Endomorphism:
    """The endomorphism fixing S2 with U -> U^odd, for odd integers only."""
    if odd % 2 == 0:
        raise NotOdd(f"chi needs an odd integer, got {odd}")
    return Endomorphism(monomial(0, 0, 0, odd), GEN_S2)


def beta_monomial(w: DyadicCyclotomic, n: int) -> Endomorphism:
    """beta^f for the circle monomial f(z) = w z^n: U -> U, S2 -> w U^n S2."""
    w = _exact(w)
    if not w.is_unimodular():
        raise NotUnitary(f"beta coefficient {w} is not unimodular")
    return Endomorphism(GEN_U, monomial(0, 0, 0, n, w) * GEN_S2)


def ad_unitary(u: Element) -> Endomorphism:
    """The inner automorphism x -> u x u*."""
    if not _is_unitary(u):
        raise NotUnitary("ad requires a unitary element")
    ustar = u.adjoint()
    return Endomorphism(u * GEN_U * ustar, u * GEN_S2 * ustar)


# -- generalized Cuntz-Takesaki data -------------------------------------------


def u_of(e: Endomorphism) -> Element:
    """The unitary u = e(S1) S1* + e(S2) S2* with e(S_i) = u S_i."""
    return e(GEN_S1) * GEN_S1_STAR + e.img_S2 * GEN_S2_STAR


def W_of(e: Endomorphism) -> Element:
    """W = U* u* e(U) u; the endomorphism is a beta^f exactly when W = 1."""
    u = u_of(e)
    return GEN_U_STAR * u.adjoint() * e.img_U * u


def is_beta(e: Endomorphism) -> bool:
    return equals(W_of(e), ONE)


# -- the (V, W) extension calculus ----------------------------------------------


@dataclass(frozen=True)
class ExtensionData:
    """Unitaries certifying that lambda_V on the Cuntz subalgebra extends:
    W S2 = S2 and S2 V U W V* = U W U S2."""

    V: Element
    W: Element


def check_extension(data: ExtensionData) -> Endomorphism:
    """Validate extension data and build the extension (U -> V U W V*, S2 -> V S2)."""
    V, W = data.V, data.W
    if not _is_unitary(V):
        raise NotUnitary("V is not unitary")
    if not membership(V, "O2"):
        raise ExtensionConditionFailed("V is not in the O2 span")
    if not _is_unitary(W):
        raise NotUnitary("W is not unitary")
    if not equals(W * GEN_S2, GEN_S2):
        raise ExtensionConditionFailed("W S2 = S2 fails")
    lhs = GEN_S2 * V * GEN_U * W * V.adjoint()
    rhs = GEN_U * W * GEN_U * GEN_S2
    if not equals(lhs, rhs):
        raise ExtensionConditionFailed("S2 V U W V* = U W U S2 fails")
    return Endomorphism(V * GEN_U * W * V.adjoint(), V * GEN_S2)


def compose_extension_data(d1: ExtensionData, d2: ExtensionData) -> ExtensionData:
    """Extension data of the composite, (lambda_V(V') V, W V* ext1(W') V)."""
    ext1 = check_extension(d1)
    check_extension(d2)
    V = ext1(d2.V) * d1.V
    W = d1.W * d1.V.adjoint() * ext1(d2.W) * d1.V
    return ExtensionData(V, W)


def flip_theta() -> Element:
    """The self-adjoint unitary flip theta = sum_{i,j} S_i S_j S_i* S_j*,
    whose terms are S_mu S_nu* with nu the reverse of mu."""
    return Element((monomial_of_pair(mu, mu[::-1]), 1) for mu in product((1, 2), repeat=2))


# -- Bogoljubov classification -----------------------------------------------------


@dataclass(frozen=True)
class Gauge:
    z: object


@dataclass(frozen=True)
class FlipFlopGauge:
    z: object


@dataclass(frozen=True)
class NotExtensible:
    pass


@dataclass(frozen=True)
class BogoljubovMatrix:
    """2x2 unitary (a b; c d) acting on the span of S1, S2: the induced Cuntz
    automorphism sends S1 -> a S1 + c S2 and S2 -> b S1 + d S2.

    Entries may be exact scalars or floating complex numbers."""

    a: object
    b: object
    c: object
    d: object

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def is_exact(self) -> bool:
        return all(_as_scalar(v) is not None for v in self.entries())


_TOL = 1e-12


def _entry_eq(v, w, exact: bool) -> bool:
    if exact:
        return _as_scalar(v) == w
    return abs(complex(v) - complex(w)) <= _TOL


def bogoljubov_classify(A: BogoljubovMatrix) -> Gauge | FlipFlopGauge | NotExtensible:
    """Which Bogoljubov automorphisms of the Cuntz subalgebra extend to Q2.

    Only the gauge automorphisms (diagonal with equal entries), the flip-flop
    composed with a gauge (antidiagonal with equal entries) and nothing else.
    """
    exact = A.is_exact()
    if exact:
        a, b, c, d = (_as_scalar(v) for v in A.entries())
        conj = DyadicCyclotomic.conj
    else:
        a, b, c, d = (complex(v) for v in A.entries())
        conj = complex.conjugate
    # orthonormal rows: decided exactly for exact entries, within 1e-12 for floats
    defects = (a * conj(a) + b * conj(b) - 1, c * conj(c) + d * conj(d) - 1,
               a * conj(c) + b * conj(d))
    if not all(_entry_eq(v, 0, exact) for v in defects):
        raise NotUnitary("matrix is not unitary" + ("" if exact else " within 1e-12"))
    if _entry_eq(A.b, 0, exact) and _entry_eq(A.c, 0, exact):
        if _entry_eq(A.a, A.d, exact):
            return Gauge(A.a)
        return NotExtensible()
    if _entry_eq(A.a, 0, exact) and _entry_eq(A.d, 0, exact):
        if _entry_eq(A.b, A.c, exact):
            return FlipFlopGauge(A.b)
        return NotExtensible()
    return NotExtensible()


# -- structure of S2 images --------------------------------------------------------


def decompose_S2_image(s: Element) -> Element:
    """Recover f with s = f(U) S2 from an isometry satisfying the S2 relations.

    s must be a valid image of S2 under an endomorphism fixing U; the
    Endomorphism relations decide this.  f(U) is reconstructed as
    g = s S2* + U s S2* U* and returned as the unitary f(U) in its U-power
    form (terms U^k only); g S2 = s holds for every s, because
    S2* U* S2 = S1* S2 = 0.  That identity and its adjoint also leave
    g g* = s s* + U s s* U* = 1 (the range relation), so f is unitary
    whenever it exists.
    """
    try:
        Endomorphism(GEN_U, s)
    except RelationViolated as exc:
        raise NotInS2(str(exc)) from exc
    f = _laurent_of(s * GEN_S2_STAR + GEN_U * s * GEN_S2_STAR * GEN_U_STAR)
    if f is None:
        raise NotInS2("reconstruction is not a function of U")
    return f
