"""Exact arithmetic in the dyadic cyclotomic fields Q(zeta_{2^N}).

A value of level N >= 1 is a combination of the power basis 1, z, z^2, ...,
z^(2^(N-1) - 1) where z = zeta_{2^N} = exp(2*pi*i / 2^N) and
z^(2^(N-1)) = -1.  Level 0 means the rationals.  A value stores only its
level and a zero-free sparse map {j: Fraction} from exponents to
coordinates, so a root of unity is one entry at any level; the dense
coordinate tuple is built only on request (``coords``, ``to_json``).
Every value is kept at its minimal level by the one constructor
``_scalar``, so equality is plain map comparison; multiplication is a
negacyclic convolution accumulated through ``_sum_terms``.

A Python value is an exact scalar if and only if it is a DyadicCyclotomic
or a numbers.Rational (int, bool, Fraction, numpy integers); ``_as_scalar``
alone decides this and converts.  Arithmetic and ``==`` return
NotImplemented for anything else, and every site that takes a coefficient
raises TypeError: floats, complex numbers and strings are never converted.
Equal scalars hash equal, so a rational value hashes as its Fraction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Rational

__all__ = [
    "DyadicCyclotomic",
    "cyclo",
    "rational",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "IMAG",
]

_ZERO_FRAC = Fraction(0)
_ONE_FRAC = Fraction(1)


def _dim(level: int) -> int:
    return 1 if level == 0 else 1 << (level - 1)


class DyadicCyclotomic:
    """Immutable element of Q(zeta_{2^N}), canonically level-minimized."""

    __slots__ = ("level", "_terms")

    def __init__(self, level: int, coords):
        if level < 0:
            raise ValueError("level must be non-negative")
        coords = [_exact(c).as_rational() for c in coords]
        if len(coords) != _dim(level):
            raise ValueError(f"level {level} needs {_dim(level)} coordinates, got {len(coords)}")
        value = _scalar(level, {j: c for j, c in enumerate(coords) if c})
        object.__setattr__(self, "level", value.level)
        object.__setattr__(self, "_terms", value._terms)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicCyclotomic is immutable")

    @property
    def coords(self) -> tuple:
        """The dense coordinate tuple over the power basis, built on request."""
        out = [_ZERO_FRAC] * _dim(self.level)
        for j, c in self._terms.items():
            out[j] = c
        return tuple(out)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "DyadicCyclotomic":
        """q as a scalar; TypeError unless q is exact (see ``_as_scalar``)."""
        return _exact(q)

    # -- structure ---------------------------------------------------------

    def _promoted(self, level: int) -> dict:
        """The term map of self embedded at the given level >= self.level."""
        shift = level - self.level
        return {j << shift: c for j, c in self._terms.items()} if shift else self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self.level == 0 and self._terms.get(0) == 1

    def is_rational(self) -> bool:
        return self.level == 0

    def as_rational(self) -> Fraction:
        if self.level != 0:
            raise ValueError(f"{self} is not rational")
        return self._terms.get(0, _ZERO_FRAC)

    def is_unimodular(self) -> bool:
        """Exact |x| = 1 test via x * conj(x) == 1."""
        return (self * self.conj()).is_one()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        level = max(self.level, other.level)
        terms = dict(self._promoted(level))
        return _scalar(level, _sum_terms(other._promoted(level).items(), terms))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.level, {j: -c for j, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if self.level == 0 or other.level == 0:
            x, q = (other, self._terms.get(0)) if self.level == 0 else (self, other._terms.get(0))
            return _scalar(x.level, {j: q * c for j, c in x._terms.items()}) if q else ZERO
        level = max(self.level, other.level)
        n = _dim(level)
        b = other._promoted(level)
        # z^k = -z^(k - n) for n <= k < 2n, because z^n = -1
        products = ((i + j, ai * bj) for i, ai in self._promoted(level).items() for j, bj in b.items())
        return _scalar(level, _sum_terms((k - n, -p) if k >= n else (k, p) for k, p in products))

    __rmul__ = __mul__

    def conj(self) -> "DyadicCyclotomic":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.level == 0:
            return self
        n = _dim(self.level)
        # zeta^(-j) = -zeta^(n - j) because zeta^n = -1
        return _scalar(self.level, {(n - j if j else 0): (-c if j else c) for j, c in self._terms.items()})

    def _galois_flip(self) -> "DyadicCyclotomic":
        """The automorphism zeta -> -zeta (level >= 2 only)."""
        return _scalar(self.level, {j: -c if j & 1 else c for j, c in self._terms.items()})

    def inv(self) -> "DyadicCyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.level == 0:
            return _rational(1 / self._terms[0])
        # x * flip(x) kills the odd coordinates, so it lives at a lower level;
        # recurse down to the rationals
        flip = self._galois_flip()
        norm = self * flip
        assert norm.level < self.level
        return flip * norm.inv()

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        return _power(self.inv(), -n, ONE) if n < 0 else _power(self, n, ONE)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self.level == other.level and self._terms == other._terms

    def __hash__(self):
        # a rational value equals its Fraction (and int), so it hashes as one
        if self.level == 0:
            return hash(self._terms.get(0, _ZERO_FRAC))
        return hash((self.level, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- embeddings and formats ---------------------------------------------

    def to_complex(self) -> complex:
        if self.level == 0:
            return complex(self._terms.get(0, _ZERO_FRAC))
        order = 1 << self.level
        total = 0j
        for j, c in sorted(self._terms.items()):
            total += float(c) * cmath.exp(2j * cmath.pi * j / order)
        return total

    __complex__ = to_complex

    def __str__(self):
        if self.level == 0:
            return _frac_str(self.as_rational())
        order = 1 << self.level
        parts = []
        for j, c in sorted(self._terms.items()):
            root = "i" if (self.level == 2 and j == 1) else _zeta_str(order, j)
            if j == 0:
                parts.append((c < 0, _frac_str(abs(c))))
            elif abs(c) == 1:
                parts.append((c < 0, root))
            else:
                parts.append((c < 0, f"{_frac_str(abs(c))} {root}"))
        return _signed_sum(parts)

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


def _scalar(level: int, terms: dict) -> DyadicCyclotomic:
    """The value owning a zero-free {j: Fraction} map at `level`, level-minimized.

    If every exponent is divisible by 2^k the value lies at level - k; level 1
    is Q itself (zeta_2 = -1), so it drops to level 0.
    """
    if level:
        low = 0
        for j in terms:
            low |= j
        shift = (low & -low).bit_length() - 1 if low else level - 1
        if shift:
            terms = {j >> shift: c for j, c in terms.items()}
        level = 0 if level - shift == 1 else level - shift
    out = DyadicCyclotomic.__new__(DyadicCyclotomic)
    object.__setattr__(out, "level", level)
    object.__setattr__(out, "_terms", terms)
    return out


def _rational(q: Fraction) -> DyadicCyclotomic:
    return _scalar(0, {0: q} if q else {})


def _as_scalar(x) -> DyadicCyclotomic | None:
    """x as a DyadicCyclotomic if it is an exact scalar, else None.

    The package's one rule for exact scalars: a DyadicCyclotomic or a
    numbers.Rational.  Floats, complex numbers and strings are not exact.
    """
    if isinstance(x, DyadicCyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return _rational(Fraction(x))
    if isinstance(x, Rational):
        # numpy integers: their numerator is fixed-width, so make it a Python int
        return _rational(Fraction(int(x.numerator), int(x.denominator)))
    return None


def _exact(x) -> DyadicCyclotomic:
    """x as a DyadicCyclotomic; TypeError naming x if it is not an exact scalar."""
    value = _as_scalar(x)
    if value is None:
        raise TypeError(f"{x!r} is not an exact scalar (DyadicCyclotomic, int or Fraction)")
    return value


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _signed_sum(parts: list) -> str:
    """Join (is_negative, text) parts as "a + b - c", a negative first part as "-a"."""
    (neg, text), *rest = parts
    return ("-" if neg else "") + text + "".join((" - " if n else " + ") + t for n, t in rest)


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
    return _scalar(level, {e - n: -_ONE_FRAC} if e >= n else {e: _ONE_FRAC})


def rational(p, q=1) -> DyadicCyclotomic:
    return _exact(p) / _exact(q)


def _sum_terms(pairs, into: dict | None = None) -> dict:
    """Add (key, value) pairs into a dict by key; keys summing to zero are dropped.

    The one accumulator for term maps: Element and circle-function terms
    (scalar values) and scalar coordinates (Fraction values).
    """
    data = {} if into is None else into
    for key, value in pairs:
        if key in data:
            value = data[key] + value
        if not value:
            data.pop(key, None)
        else:
            data[key] = value
    return data


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, `one` for n = 0.

    The package's one powering loop (scalars, elements, endomorphism
    images); no squaring is done after the highest bit.
    """
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


ZERO = _rational(_ZERO_FRAC)
ONE = _rational(_ONE_FRAC)
MINUS_ONE = _rational(-_ONE_FRAC)
IMAG = cyclo(2, 1)
