"""Diagonal unitaries U_z and isometries S'_z at dyadic roots of unity, and
the 2-adic continuity probe for diagonal operators.

For z = zeta_{2^n} the operator U_z e_k = z^k e_k is the exact diagonal sum
over the depth-n residue projections, so it lives in the algebra; for any
other root of unity it provably does not, and the API only offers it through
floating windows.  The continuity probe measures the oscillation of a
diagonal sequence along 2-adic neighborhoods: it extends to the 2-adic
integers iff values at indices congruent mod 2^m approach each other.
Only the probe uses numpy, and it imports numpy itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    Element,
    GEN_S2,
    GEN_U,
    Monomial,
    equals,
)
from .scalars import cyclo

__all__ = [
    "RootOfUnity",
    "RelationViolatedUz",
    "build_Uz",
    "build_Sz",
    "check_Uz_relations",
    "membership_Uz",
    "Continuous",
    "Obstructed",
    "two_adic_continuity",
]


class RelationViolatedUz(RuntimeError):
    """A U_z defining relation failed (must not happen)."""


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_order^exponent, gcd-reduced so that order is the exact order."""

    order: int
    exponent: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        e = self.exponent % self.order
        g = math.gcd(e, self.order)  # gcd(0, m) = m collapses to the trivial root
        object.__setattr__(self, "order", self.order // g)
        object.__setattr__(self, "exponent", e // g)

    @property
    def is_dyadic(self) -> bool:
        return self.order & (self.order - 1) == 0


def build_Uz(n: int) -> Element:
    """U_z for z = zeta_{2^n}, as the exact sum over residue projections.

    sum_l z^l U^l S2^n (S2*)^n U^-l acts as e_k -> z^(k mod 2^n) e_k = z^k e_k.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return Element(
        (Monomial(l, n, n, -l), cyclo(n, l)) for l in range(1 << n)
    )


def build_Sz(n: int) -> Element:
    """S'_z = S2 U_z, acting as e_k -> z^k e_2k for z = zeta_{2^n}."""
    return GEN_S2 * build_Uz(n)


def check_Uz_relations(n: int) -> bool:
    """Verify U_z U = z U U_z and U_z S2 = S'_z U_z exactly."""
    uz = build_Uz(n)
    lhs = uz * GEN_U
    rhs = (GEN_U * uz).scale(cyclo(n, 1))
    if not equals(lhs, rhs):
        raise RelationViolatedUz("U_z U = z U U_z fails")
    if not equals(uz * GEN_S2, build_Sz(n) * uz):
        raise RelationViolatedUz("U_z S2 = S'_z U_z fails")
    return True


def membership_Uz(z: RootOfUnity) -> bool:
    """Whether U_z lies in the diagonal subalgebra: exactly the dyadic orders.

    For order 2^n, U_z is a power of `build_Uz(n)`, a sum of diagonal terms
    U^l S2^n (S2*)^n U^-l; for any other order it is not in the algebra.
    """
    return z.is_dyadic


# -- 2-adic continuity ---------------------------------------------------------------


@dataclass(frozen=True)
class Continuous:
    """Finite-depth evidence of a continuous 2-adic extension."""

    depth: int
    oscillations: tuple[float, ...]


@dataclass(frozen=True)
class Obstructed:
    """A witness pair j = k (mod 2^m) whose values stay far apart."""

    depth: int
    oscillations: tuple[float, ...]
    witness: tuple[int, int, int, float]


_CONTINUITY_TOL = 1e-6
_CONTINUITY_ROWS = 256  # rows of the gap matrix per block


def two_adic_continuity(sampler, depth: int) -> Continuous | Obstructed:
    """Classify whether k -> sampler(k) extends continuously to the 2-adic integers.

    For each m <= depth, osc_m is the largest |f(j) - f(k)| over sampled pairs
    with j = k (mod 2^m) and |j|, |k| <= 2^(depth+2).  Continuity at this depth
    means osc_depth < 1e-6 with a non-increasing profile; this is a finite-depth
    witness, not a proof, and the classification carries the depth used.

    The witness of each level is the first row-major maximum of a class's
    symmetric gap matrix, which lies in its upper triangle, so only that
    triangle is scanned, in blocks of _CONTINUITY_ROWS rows: at depth 9 a
    call peaks at 21 MB of traced numpy memory, where the full matrices took
    134 MB.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    import numpy as np

    radius = 1 << (depth + 2)
    indices = np.arange(-radius, radius + 1)
    values = np.array([complex(sampler(int(k))) for k in indices])
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"sampler is not finite at k = {indices[np.argmin(finite)]}")
    oscs = []
    witnesses = []
    for m in range(1, depth + 1):
        mod = 1 << m
        worst = 0.0
        worst_pair = (0, 0)
        for r in range(mod):
            # the radius is a multiple of mod, so slice r is the class k = r
            # (mod 2^m), in ascending order and with at least 8 points
            vals = values[r::mod]
            idxs = indices[r::mod]
            for lo in range(0, vals.size, _CONTINUITY_ROWS):
                gaps = np.abs(vals[None, lo:] - vals[lo:lo + _CONTINUITY_ROWS, None])
                i, k = np.unravel_index(np.argmax(gaps), gaps.shape)
                if gaps[i, k] > worst:
                    worst = float(gaps[i, k])
                    worst_pair = (int(idxs[lo + i]), int(idxs[lo + k]))
        oscs.append(worst)
        witnesses.append(worst_pair)
    rises = [i for i in range(1, depth) if oscs[i] > oscs[i - 1] + 1e-12]
    if oscs[-1] < _CONTINUITY_TOL and not rises:
        return Continuous(depth=depth, oscillations=tuple(oscs))
    bad = depth - 1 if oscs[-1] >= _CONTINUITY_TOL else rises[0]
    j, k = witnesses[bad]
    return Obstructed(
        depth=depth,
        oscillations=tuple(oscs),
        witness=(j, k, bad + 1, oscs[bad]),
    )
