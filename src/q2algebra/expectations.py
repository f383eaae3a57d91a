"""Conditional expectations onto the gauge-invariant part, C*(U) and the
diagonal, the windowed l-infinity diagonal, the gauge-Fourier coefficient
maps, and the S1-compression limit.  The monomial rules for the
gauge-invariant part and the diagonal are algebra's; none is copied here."""

from __future__ import annotations

from fractions import Fraction

from .algebra import (Element, GEN_S1, GEN_S1_STAR, Monomial, _MEMBER_TESTS,
                      _element, equals, gauge_component)
from .canonical import _check_window, fixed_points
from .scalars import ZERO, DyadicCyclotomic, _sum_terms

__all__ = [
    "E_gauge",
    "E_CU",
    "E_D2",
    "E_diag_window",
    "F_map",
    "s1_limit",
    "NotGaugeInvariant",
]


class NotGaugeInvariant(ValueError):
    """Input has a term of nonzero gauge degree where invariance is required."""


def E_gauge(x: Element) -> Element:
    """Gauge averaging: keeps exactly the terms of gauge degree a - b = 0."""
    return gauge_component(x, 0)


def E_CU(x: Element) -> Element:
    """The unique expectation onto C*(U): (l,a,b,c) -> delta_{a,b} 2^-a U^(l+c)."""
    return Element(
        (Monomial(0, 0, 0, m.l + m.c), coef * Fraction(1, 1 << m.a))
        for m, coef in E_gauge(x)._terms.items()
    )


def _laurent_of(x: Element) -> Element | None:
    """x = f(U) in its U-power form E_CU(x), whose terms are the roots U^k,
    or None if x is not in C*(U)."""
    cu = E_CU(x)
    return cu if equals(cu, x) else None


def E_D2(x: Element) -> Element:
    """The diagonal expectation: keeps (l,a,b,c) iff a = b and c = -l."""
    return _element({m: c for m, c in x._terms.items() if _MEMBER_TESTS["D2"](m)})


def E_diag_window(x: Element, lo: int, hi: int) -> dict[int, DyadicCyclotomic]:
    """Exact diagonal entries (e_i, x e_i) for i in [lo, hi].

    For a monomial these are the fixed points of its affine map: a full
    residue class when a = b and c = -l, at most one isolated index otherwise
    (the rank-one contributions that fall outside the exact algebra).

    The window holds at most MAX_WINDOW = 2^20 indices, checked before
    anything is built (BudgetExceeded): a full residue class gives one entry
    per index.  At the bound, x = 1 takes 0.4 s and 100 MB, and
    `q2 expect diag 1` prints 12 MB in 1.9 s with a 180 MB peak (2-core
    x86-64 host).
    """
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    _check_window(lo, hi, "diagonal window")
    return _sum_terms(
        (i, coef) for mono, coef in x.terms.items() for i in fixed_points(mono, lo, hi)
    )


def F_map(x: Element, i: int) -> Element:
    """Gauge-Fourier coefficient maps F_i.

    F_i(x) = E_gauge(x (S1*)^i) for i >= 0 and F_-i(x) = E_gauge(S1^i x); they
    satisfy F_i(x) = F_i(x) S1^i (S1*)^i and F_-i(x) = S1^i (S1*)^i F_-i(x).
    """
    if i >= 0:
        return E_gauge(x * GEN_S1_STAR**i)
    return E_gauge(GEN_S1 ** (-i) * x)


def s1_limit(x: Element) -> DyadicCyclotomic:
    """The scalar that the sequence (S1*)^m x S1^m stabilizes to.

    Defined for gauge-invariant x only.  S1 e_-1 = e_-1, so the limit is the
    diagonal entry (e_-1, x e_-1): once m >= a and 2^m > |c + l|, the term
    U^l S2^a S2*^a U^c survives m compressions iff c = -l and l = 2^a - 1,
    which is exactly when it fixes e_-1.
    """
    for mono in x.terms:
        if not _MEMBER_TESTS["QT"](mono):
            raise NotGaugeInvariant(f"term {tuple(mono)} has gauge degree {mono.degree()}")
    return E_diag_window(x, -1, -1).get(-1, ZERO)
