"""Functions on the unit circle: circle functions as elements f(U) of C*(U),
dyadic-grid samples, the doubling functional equations, and the obstruction
detectors.

The central tool is the cascade: on the grid of 2^N-th roots of unity the
equation h(z^2) = h(z) Psi(z) with h(1) = 1 is solved exactly by the product
formula h(z) = 1 / prod_{k < n} Psi(z^(2^k)) for z of order 2^n.  Whether the
solved h extends continuously is probed through dyadic approach sequences:
z_m = p * exp(2*pi*i*j / 2^m) for a fixed odd j accumulates at p, and the
diameter of the stabilized limits over all such sequences is the oscillation
of h at p.  Oscillation >= 1 certifies that no continuous solution exists at
this resolution.  The grid code imports numpy where it uses it, so the
exact power equation loads no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import BudgetExceeded, Element
from .expectations import _laurent_of
from .scalars import ONE as SC_ONE, _exact

__all__ = [
    "DyadicGridFunction",
    "NotASolution",
    "NotUnimodular",
    "NotNormalized",
    "Undersampled",
    "solve_square_equation",
    "winding_number",
    "cascade_solve",
    "OscillationReport",
    "oscillation_report",
    "gauge_equiv_obstruction",
    "flipflop_commute_obstruction",
    "step_preset",
    "bump_preset",
    "char_preset",
    "preset",
    "parse_angle",
]


class NotASolution(ValueError):
    """The function violates the functional equation it was tested against."""


class NotUnimodular(ValueError):
    """A T-valued function was required."""


class NotNormalized(ValueError):
    """The cascade needs Psi(1) = 1."""


class Undersampled(ValueError):
    """Grid too coarse for a stable winding number."""


@dataclass(frozen=True)
class DyadicGridFunction:
    """Samples value[j] ~ f(exp(2*pi*i*j / 2^level)) on the dyadic grid."""

    level: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        import numpy as np

        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (1 << self.level,):
            raise ValueError(f"level {self.level} grid needs {1 << self.level} samples")
        finite = np.isfinite(values)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ValueError(f"sample {j} is not finite: {values[j]}")
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return 1 << self.level

    def max_modulus_defect(self) -> float:
        import numpy as np

        return float(np.abs(np.abs(self.values) - 1.0).max())

    def require_unimodular(self):
        defect = self.max_modulus_defect()
        if defect > 1e-9:
            raise NotUnimodular(f"samples leave the circle by {defect:.3g}")

    def conj_reflected(self) -> "DyadicGridFunction":
        """Samples of z -> conj(f(conj z)): index j -> conj(value[-j])."""
        import numpy as np

        idx = (-np.arange(self.size)) % self.size
        return DyadicGridFunction(self.level, np.conj(self.values[idx]))

    def to_json(self) -> str:
        return json.dumps(
            {"level": self.level, "values": [[v.real, v.imag] for v in self.values]}
        )

    @classmethod
    def from_json(cls, text: str) -> "DyadicGridFunction":
        import numpy as np

        data = json.loads(text)
        values = np.array([complex(re, im) for re, im in data["values"]])
        return cls(int(data["level"]), values)


# -- appendix functional equations ------------------------------------------------


def solve_square_equation(f: Element) -> int:
    """Solve f(z^n) = f(z)^n (every n >= 2) for a T-valued f(U) in C*(U), given
    as any Element; return the exponent k with f = z^k.

    A T-valued Laurent polynomial is a unit of the Laurent ring, so it is one
    term w z^k with |w| = 1, and f(z^n) = f(z)^n reads w z^nk = w^n z^nk:
    it holds iff w^(n-1) = 1, for every n iff w = 1.
    """
    f = _laurent_of(f)
    terms = list(f._terms.items()) if f is not None else []
    if len(terms) != 1 or not terms[0][1].is_unimodular():
        raise NotUnimodular("f is not a T-valued function of U")
    ((root, w),) = terms
    if not w.is_one():
        raise NotASolution("f(z^2) != f(z)^2")
    return root.c


def winding_number(f: DyadicGridFunction) -> int:
    """Total phase increment around the grid divided by 2 pi.

    Requires level >= 3 and every single-step phase jump below pi - 0.1, else
    the sampling cannot separate the winding from aliasing.
    """
    if f.level < 3:
        raise Undersampled("winding number needs grid level >= 3")
    import numpy as np

    f.require_unimodular()
    ratios = np.roll(f.values, -1) / f.values
    steps = np.angle(ratios)
    if np.abs(steps).max() >= math.pi - 0.1:
        raise Undersampled("phase step >= pi - 0.1 between adjacent samples")
    total = steps.sum() / (2.0 * math.pi)
    return int(round(total))


# -- the cascade ---------------------------------------------------------------------


def cascade_solve(psi: DyadicGridFunction) -> DyadicGridFunction:
    """Solve h(z^2) = h(z) Psi(z), h(1) = 1, exactly on the dyadic grid.

    Index doubling realizes z -> z^2; walking indices by decreasing 2-adic
    valuation gives h[j] = h[2j] / Psi[j], which reproduces the product
    formula h(z) = 1 / prod_k Psi(z^(2^k)).
    """
    import numpy as np

    psi.require_unimodular()
    values = psi.values
    if abs(values[0] - 1.0) > 1e-9:
        raise NotNormalized(f"Psi(1) = {values[0]:.6g} != 1")
    size = psi.size
    h = np.ones(size, dtype=np.complex128)
    for v in range(psi.level - 1, -1, -1):
        idx = np.arange(1 << v, size, 1 << (v + 1))  # indices of valuation exactly v
        h[idx] = h[(2 * idx) % size] / values[idx]
    return DyadicGridFunction(psi.level, h)


# -- oscillation of a grid function at its grid points ------------------------------


@dataclass(frozen=True)
class OscillationReport:
    """Diameter of the stabilized dyadic-approach limits of h at each grid point.

    For each odd |j| <= max_odd = min(63, 2^(level-3) - 1), the approach
    sequence h(p e^(2 pi i j / 2^m)) contributes its deepest sample when its
    last three samples agree within stab_tol = 1e-7; osc[p] is the maximal
    pairwise distance between contributions.
    A drifting sequence (h continuous but not constant nearby) contributes
    nothing, so characters report oscillation 0.
    """

    level: int
    osc: np.ndarray = field(repr=False)
    max_odd: int
    stab_tol: float

    @property
    def max_oscillation(self) -> float:
        return float(self.osc.max())

    @property
    def at_one(self) -> float:
        """Oscillation at the grid point z = 1."""
        return float(self.osc[0])

    @property
    def obstructed(self) -> bool:
        return self.max_oscillation >= 1.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "level": self.level,
                "max_odd": self.max_odd,
                "stab_tol": self.stab_tol,
                "max_oscillation": self.max_oscillation,
                "oscillation_at_one": self.at_one,
                "obstructed": self.obstructed,
            }
        )


_OSC_BLOCK = 2048  # grid points per column block of an oscillation report


def oscillation_report(h: DyadicGridFunction) -> OscillationReport:
    """The OscillationReport of h, in blocks of _OSC_BLOCK grid points.

    A block holds the deepest sample of each approach sequence at each of its
    points, NaN where the sequence is unstable.  A point with fewer than two
    stable values, or with all of them equal, has osc 0 and is skipped.  At
    the others the stable values move to the top rows, the points are ordered
    by their stable count, and only distances between stable values are
    taken.  |a - b| = |b - a| exactly and a max does not depend on order, so
    osc is bit for bit the all-pairs maximum.  Temporaries stay at a few MB:
    `q2 cascade step:pi/4 --level 18 --check gauge` runs in 0.7 s with a
    50 MB peak (2-core x86-64 host).
    """
    if h.level < 5:
        raise ValueError("oscillation needs grid level >= 5")
    import numpy as np

    max_odd = min(63, (1 << (h.level - 3)) - 1)
    stab_tol = 1e-7
    size = h.size
    pad = 4 * max_odd
    width = min(_OSC_BLOCK, size)
    # h at p * zeta^k for |k| <= pad is wrap[pad + p + k], and windows[t] is
    # wrap[t:t + width]; the rows j = -max_odd, ..., max_odd (step 2) of
    # v0, v1, v2 are strided views of it, sampled at m = N, N - 1, N - 2
    wrap = np.concatenate((h.values[-pad:], h.values, h.values[:pad]))
    windows = np.lib.stride_tricks.sliding_window_view(wrap, width)
    osc = np.zeros(size)
    for start in range(0, size, width):
        at = pad + start
        v0 = windows[at - max_odd:at + max_odd + 1:2]
        v1 = windows[at - 2 * max_odd:at + 2 * max_odd + 1:4]
        v2 = windows[at - 4 * max_odd:at + 4 * max_odd + 1:8]
        stable = (np.abs(v0 - v1) <= stab_tol) & (np.abs(v1 - v2) <= stab_tol)
        vals = np.where(stable, v0, complex(np.nan, np.nan))
        count = stable.sum(axis=0)
        spread = (np.fmax.reduce(vals.real, axis=0) != np.fmin.reduce(vals.real, axis=0)) | (
            np.fmax.reduce(vals.imag, axis=0) != np.fmin.reduce(vals.imag, axis=0))
        cols = np.flatnonzero((count >= 2) & spread)
        if cols.size == 0:
            continue
        cols = cols[np.argsort(-count[cols], kind="stable")]
        count = count[cols]
        # stable rows first (in their order), then the NaN rows of each column
        rows = np.argsort(~stable.T[cols], axis=1, kind="stable")[:, :count[0]].T
        top = vals.ravel().take(rows * width + cols)
        best = np.zeros(cols.size)
        a = 0
        while a < cols.size:  # column groups [a, b) with counts in (n / 2, n]
            n = count[a]
            b = a + np.count_nonzero(count[a:] > n // 2)
            for d in range(1, n):
                k = a + np.count_nonzero(count[a:b] > d)  # two stable rows d apart
                diff = np.abs(top[d:n, a:k] - top[:n - d, a:k])
                np.fmax(best[a:k], np.fmax.reduce(diff, axis=0), out=best[a:k])
            a = b
        osc[start + cols] = best
    return OscillationReport(level=h.level, osc=osc, max_odd=max_odd, stab_tol=stab_tol)


def _obstruction(f: DyadicGridFunction, factor) -> OscillationReport:
    """The oscillation report of the cascade solution for Psi = f * factor."""
    f.require_unimodular()
    return oscillation_report(cascade_solve(DyadicGridFunction(f.level, f.values * factor)))


def gauge_equiv_obstruction(f: DyadicGridFunction) -> OscillationReport:
    """Obstruction to beta^f being equivalent to a gauge automorphism.

    Equivalence needs a continuous solution of conj(h(z)) h(z^2) = f(z) conj(f(1));
    the cascade solves it on the grid and the report measures how far the
    solution is from having limits along dyadic approaches.
    """
    return _obstruction(f, f.values[0].conjugate())


def flipflop_commute_obstruction(f: DyadicGridFunction) -> OscillationReport:
    """Obstruction to beta^f commuting with the flip-flop modulo inners.

    Commutation needs a continuous h with h(z) conj(h(z^2)) = f(conj z) conj(f(z)),
    i.e. h(z^2) = h(z) Psi(z) with Psi(z) = f(z) conj(f(conj z)).
    """
    return _obstruction(f, f.conj_reflected().values)


# -- presets --------------------------------------------------------------------------


def step_preset(level: int, eps: float = math.pi / 4) -> DyadicGridFunction:
    """The two-arc step function: 1 on [0, pi], -1 on [pi + eps, 2 pi - eps],
    with T-valued interpolation through +i on the closing arcs.

    Grid points on an arc endpoint take the closed-arc value, matching the
    closed intervals in the definition; 0 < eps <= pi/4.
    """
    if not 0 < eps <= math.pi / 4:
        raise ValueError("eps must be in (0, pi/4]")
    import numpy as np

    size = 1 << level
    theta = 2.0 * math.pi * np.arange(size) / size
    values = np.ones(size, dtype=np.complex128)
    minus = (theta >= math.pi + eps) & (theta <= 2.0 * math.pi - eps)
    values[minus] = -1.0
    rise = (theta > math.pi) & (theta < math.pi + eps)
    values[rise] = np.exp(1j * math.pi * (theta[rise] - math.pi) / eps)
    fall = theta > 2.0 * math.pi - eps
    values[fall] = np.exp(1j * math.pi * (2.0 * math.pi - theta[fall]) / eps)
    return DyadicGridFunction(level, values)


def bump_preset(level: int) -> DyadicGridFunction:
    """A bump equal to i at exp(9 pi i / 8) and 1 outside a small arc.

    The phase interpolates linearly (a tent through the arc from 1 up to i and
    back); the arc [9pi/8 - pi/16, 9pi/8 + pi/16] keeps all the dyadic
    points 5pi/4, pi, 3pi/2 strictly outside.
    """
    import numpy as np

    size = 1 << level
    theta = 2.0 * math.pi * np.arange(size) / size
    center = 9.0 * math.pi / 8.0
    tent = np.maximum(0.0, 1.0 - np.abs(theta - center) / (math.pi / 16))
    return DyadicGridFunction(level, np.exp(1j * (math.pi / 2.0) * tent))


def char_preset(level: int, n: int, w=SC_ONE) -> DyadicGridFunction:
    """Samples of the character w z^n."""
    import numpy as np

    size = 1 << level
    angles = 2.0 * math.pi * np.arange(size) / size
    return DyadicGridFunction(level, _exact(w).to_complex() * np.exp(1j * n * angles))


MAX_PRESET_LEVEL = 18


def preset(name: str, level: int) -> DyadicGridFunction:
    """Named presets: "step:<eps>", "bump:i@9pi/8", "char:<n>".

    level <= MAX_PRESET_LEVEL = 18, checked before any sample is allocated
    (BudgetExceeded).  The grid is 4 MB at level 18, and an oscillation report
    on it takes 0.7-1.2 s with a 50-57 MB process peak (`q2 cascade <preset>
    --level 18 --check gauge|flipflop`, one process, 2-core x86-64 host); the
    time doubles per level.
    """
    if level > MAX_PRESET_LEVEL:
        raise BudgetExceeded(f"grid level {level} is over the bound of {MAX_PRESET_LEVEL}")
    head, _, arg = name.partition(":")
    if head == "step":
        return step_preset(level, parse_angle(arg) if arg else math.pi / 4)
    if head == "bump":
        if arg not in ("", "i@9pi/8"):
            raise ValueError(f"unknown bump preset {name!r}")
        return bump_preset(level)
    if head == "char":
        return char_preset(level, int(arg) if arg else 0)
    raise ValueError(f"unknown preset {name!r}")


def parse_angle(text: str) -> float:
    """Angles like "pi/4", "3pi/8", or a plain float."""
    text = text.strip()
    if "pi" in text:
        head, _, tail = text.partition("pi")
        try:
            num = Fraction(head) if head else Fraction(1)
            den = Fraction(tail.lstrip("/")) if tail else Fraction(1)
            return float(num / den) * math.pi
        except ZeroDivisionError:
            raise ValueError(f"angle {text!r} divides by zero") from None
    return float(text)
