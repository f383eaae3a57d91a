"""Exact arithmetic in the dyadic cyclotomic fields Q(zeta_{2^N}).

A value of level N >= 1 is stored by its coordinates over the power basis
1, z, z^2, ..., z^(2^(N-1) - 1) where z = zeta_{2^N} = exp(2*pi*i / 2^N) and
z^(2^(N-1)) = -1.  Level 0 means the rationals.  Every value is kept at its
minimal level, so equality is plain coordinate comparison and multiplication
is a negacyclic convolution.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

__all__ = [
    "Rational",
    "DyadicCyclotomic",
    "cyclo",
    "rational",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "IMAG",
]

Rational = Fraction

_ZERO_FRAC = Fraction(0)
_ONE_FRAC = Fraction(1)


def _dim(level: int) -> int:
    return 1 if level == 0 else 1 << (level - 1)


class DyadicCyclotomic:
    """Immutable element of Q(zeta_{2^N}), canonically level-minimized."""

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords):
        if level < 0:
            raise ValueError("level must be non-negative")
        coords = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coords)
        if len(coords) != _dim(level):
            raise ValueError(f"level {level} needs {_dim(level)} coordinates, got {len(coords)}")
        # minimize the level: level 1 is Q itself, and a value of level N >= 2
        # lies in the sublevel iff every odd coordinate vanishes
        while level >= 1:
            if level == 1:
                level = 0
                break
            if any(coords[j] for j in range(1, len(coords), 2)):
                break
            level -= 1
            coords = coords[0::2]
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicCyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "DyadicCyclotomic":
        return cls(0, (Fraction(q),))

    @staticmethod
    def _coerce(other) -> "DyadicCyclotomic | None":
        if isinstance(other, DyadicCyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return DyadicCyclotomic(0, (Fraction(other),))
        return None

    # -- structure ---------------------------------------------------------

    def _promoted(self, level: int) -> tuple:
        """Coordinates of self embedded at the given level >= self.level."""
        if level == self.level:
            return self.coords
        if self.level == 0:
            out = [_ZERO_FRAC] * _dim(level)
            out[0] = self.coords[0]
            return tuple(out)
        factor = 1 << (level - self.level)
        out = [_ZERO_FRAC] * _dim(level)
        for j, c in enumerate(self.coords):
            out[j * factor] = c
        return tuple(out)

    def is_zero(self) -> bool:
        return self.level == 0 and not self.coords[0]

    def is_one(self) -> bool:
        return self.level == 0 and self.coords[0] == 1

    def is_rational(self) -> bool:
        return self.level == 0

    def as_rational(self) -> Fraction:
        if self.level != 0:
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def is_unimodular(self) -> bool:
        """Exact |x| = 1 test via x * conj(x) == 1."""
        return (self * self.conj()).is_one()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        level = max(self.level, other.level)
        a = self._promoted(level)
        b = other._promoted(level)
        return DyadicCyclotomic(level, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return DyadicCyclotomic(self.level, tuple(-c for c in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.level == 0:
            q = self.coords[0]
            return DyadicCyclotomic(other.level, tuple(q * c for c in other.coords))
        if other.level == 0:
            q = other.coords[0]
            return DyadicCyclotomic(self.level, tuple(q * c for c in self.coords))
        level = max(self.level, other.level)
        a = self._promoted(level)
        b = other._promoted(level)
        n = len(a)
        out = [_ZERO_FRAC] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                k = i + j
                if k >= n:
                    out[k - n] -= ai * bj
                else:
                    out[k] += ai * bj
        return DyadicCyclotomic(level, tuple(out))

    __rmul__ = __mul__

    def conj(self) -> "DyadicCyclotomic":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.level == 0:
            return self
        n = len(self.coords)
        out = [_ZERO_FRAC] * n
        out[0] = self.coords[0]
        for j in range(1, n):
            # zeta^(-j) = -zeta^(n - j) because zeta^n = -1
            out[n - j] -= self.coords[j]
        return DyadicCyclotomic(self.level, tuple(out))

    def _galois_flip(self) -> "DyadicCyclotomic":
        """The automorphism zeta -> -zeta (level >= 2 only)."""
        return DyadicCyclotomic(
            self.level,
            tuple(-c if j % 2 else c for j, c in enumerate(self.coords)),
        )

    def inv(self) -> "DyadicCyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.level == 0:
            return DyadicCyclotomic(0, (1 / self.coords[0],))
        # x * flip(x) kills the odd coordinates, so it lives at a lower level;
        # recurse down to the rationals
        flip = self._galois_flip()
        norm = self * flip
        assert norm.level < self.level
        return flip * norm.inv()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        return _power(self.inv(), -n, ONE) if n < 0 else _power(self, n, ONE)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.level == other.level and self.coords == other.coords

    def __hash__(self):
        return hash((self.level, self.coords))

    def __bool__(self):
        return not self.is_zero()

    # -- embeddings and formats ---------------------------------------------

    def to_complex(self) -> complex:
        if self.level == 0:
            return complex(self.coords[0])
        order = 1 << self.level
        total = 0j
        for j, c in enumerate(self.coords):
            if c:
                total += float(c) * cmath.exp(2j * cmath.pi * j / order)
        return total

    def __str__(self):
        if self.level == 0:
            return _frac_str(self.coords[0])
        order = 1 << self.level
        parts = []
        for j, c in enumerate(self.coords):
            if not c:
                continue
            root = "i" if (self.level == 2 and j == 1) else _zeta_str(order, j)
            if j == 0:
                parts.append((c < 0, _frac_str(abs(c))))
            elif abs(c) == 1:
                parts.append((c < 0, root))
            else:
                parts.append((c < 0, f"{_frac_str(abs(c))} {root}"))
        if not parts:
            return "0"
        neg0, text = parts[0]
        out = ("-" if neg0 else "") + text
        for neg, text in parts[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __repr__(self):
        return f"DyadicCyclotomic({self.level}, {self.coords})"

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "coords": [[str(c.numerator), str(c.denominator)] for c in self.coords],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DyadicCyclotomic":
        coords = [Fraction(int(p), int(q)) for p, q in data["coords"]]
        return cls(int(data["level"]), coords)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _zeta_str(order: int, exponent: int) -> str:
    base = f"zeta({order})"
    return base if exponent == 1 else f"{base}^{exponent}"


def cyclo(level: int, exponent: int) -> DyadicCyclotomic:
    """The root of unity zeta_{2^level}^exponent, level-minimized."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if level == 0:
        return ONE
    e = exponent % (1 << level)
    n = _dim(level)
    sign = _ONE_FRAC
    if e >= n:
        e -= n
        sign = -_ONE_FRAC
    coords = [_ZERO_FRAC] * n
    coords[e] = sign
    return DyadicCyclotomic(level, coords)


def rational(p, q=1) -> DyadicCyclotomic:
    return DyadicCyclotomic.from_rational(Fraction(p, q))


def _sum_terms(pairs, into: dict | None = None) -> dict:
    """Add (key, scalar) pairs into a dict by key; keys summing to zero are dropped."""
    data = {} if into is None else into
    for key, value in pairs:
        if key in data:
            value = data[key] + value
        if value.is_zero():
            data.pop(key, None)
        else:
            data[key] = value
    return data


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, `one` for n = 0.

    The package's one powering loop (scalars, elements, circle functions,
    endomorphism images); no squaring is done after the highest bit.
    """
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


ZERO = DyadicCyclotomic(0, (_ZERO_FRAC,))
ONE = DyadicCyclotomic(0, (_ONE_FRAC,))
MINUS_ONE = DyadicCyclotomic(0, (-_ONE_FRAC,))
IMAG = cyclo(2, 1)
