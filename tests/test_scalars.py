import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from q2algebra.algebra import GEN_S2, Element, Monomial, monomial
from q2algebra.morphisms import beta_monomial, gauge
from q2algebra.scalars import DyadicCyclotomic, IMAG, MINUS_ONE, ONE, ZERO, cyclo, rational
from q2algebra.torusfunc import char_preset

from conftest import make_rng, rand_scalar, rand_unimodular


def test_cyclo_base_cases():
    assert cyclo(0, 0) == ONE
    assert cyclo(1, 1) == MINUS_ONE
    # zeta_8^2 is i and must minimize to level 2
    z = cyclo(3, 2)
    assert z == IMAG
    assert z.level == 2
    assert abs(z.to_complex() - cmath.exp(2j * cmath.pi * 2 / 8)) < 1e-12


def test_exponent_reduction():
    assert cyclo(3, 9) == cyclo(3, 1)
    assert cyclo(3, -1) == cyclo(3, 7)
    assert cyclo(2, 2) == MINUS_ONE


def test_field_ops_examples():
    assert IMAG * IMAG == MINUS_ONE
    assert cyclo(3, 1).conj() == cyclo(3, 7)
    inv = IMAG.inv()
    assert inv == cyclo(2, 3)
    assert IMAG * inv == ONE


def test_to_complex_examples():
    assert ONE.to_complex() == 1.0 + 0.0j
    assert complex(cyclo(3, 1)) == cyclo(3, 1).to_complex()
    assert abs(IMAG.to_complex() - 1j) < 1e-15
    val = cyclo(3, 1).to_complex()
    assert abs(val.real - 2**0.5 / 2) < 1e-12
    assert abs(val.imag - 2**0.5 / 2) < 1e-12


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_level_promotion_and_minimization():
    x = cyclo(3, 1) + cyclo(2, 1)
    assert x.level == 3
    y = x - cyclo(3, 1)
    assert y == IMAG and y.level == 2
    assert (x - x) == ZERO and (x - x).level == 0


def test_inverse_on_random_samples():
    rng = make_rng(1)
    for _ in range(40):
        x = rand_scalar(rng, max_level=4)
        assert x * x.inv() == ONE


def test_conj_is_involutive_and_multiplicative():
    rng = make_rng(2)
    for _ in range(40):
        x = rand_scalar(rng, max_level=4)
        y = rand_scalar(rng, max_level=4)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert abs(x.conj().to_complex() - x.to_complex().conjugate()) < 1e-10


def test_to_complex_is_a_ring_homomorphism():
    rng = make_rng(3)
    for _ in range(60):
        x = rand_scalar(rng, max_level=6)
        y = rand_scalar(rng, max_level=6)
        assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-10
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-10


def test_unimodular_closed_under_mul():
    rng = make_rng(4)
    for _ in range(40):
        x = rand_unimodular(rng)
        y = rand_unimodular(rng)
        assert x.is_unimodular() and y.is_unimodular()
        assert (x * y).is_unimodular()


@given(st.integers(0, 24), st.integers(-40, 40), st.integers(0, 24), st.integers(-40, 40))
@settings(max_examples=80, deadline=None)
def test_roots_multiply_by_exponent_addition(l1, e1, l2, e2):
    lhs = cyclo(l1, e1) * cyclo(l2, e2)
    level = max(l1, l2)
    rhs = cyclo(level, (e1 << (level - l1)) + (e2 << (level - l2)))
    assert lhs == rhs


def test_high_level_roots_stay_small():
    # a dense store would allocate 2^23 coordinates per level-24 value
    tracemalloc.start()
    try:
        assert cyclo(24, 1) * cyclo(24, 3) == cyclo(24, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Dense reference arithmetic: coordinate tuples over the power basis,
# multiplied by the negacyclic convolution z^n = -1 and level-minimized.

def _ref_minimized(level, coords):
    while level >= 1:
        if level == 1:
            return 0, coords
        if any(coords[1::2]):
            break
        level, coords = level - 1, coords[0::2]
    return level, coords


def _ref_promoted(x, level):
    n = 1 if level == 0 else 1 << (level - 1)
    out = [Fraction(0)] * n
    step = n // len(x[1]) if x[0] else n
    for j, c in enumerate(x[1]):
        out[j * step] = c
    return out


def _ref_add(x, y):
    level = max(x[0], y[0])
    a, b = _ref_promoted(x, level), _ref_promoted(y, level)
    return _ref_minimized(level, tuple(p + q for p, q in zip(a, b)))


def _ref_mul(x, y):
    level = max(x[0], y[0])
    a, b = _ref_promoted(x, level), _ref_promoted(y, level)
    n = len(a)
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j >= n:
                out[i + j - n] -= ai * bj
            else:
                out[i + j] += ai * bj
    return _ref_minimized(level, tuple(out))


def _ref_conj(x):
    level, coords = x
    if level == 0:
        return x
    n = len(coords)
    return _ref_minimized(level, (coords[0],) + tuple(-coords[n - j] for j in range(1, n)))


def _ref_inv(x):
    level, coords = x
    if level == 0:
        return 0, (1 / coords[0],)
    flip = (level, tuple(-c if j % 2 else c for j, c in enumerate(coords)))
    return _ref_mul(flip, _ref_inv(_ref_mul(x, flip)))


def test_sparse_arithmetic_matches_dense_reference(rng):
    for level in range(7):
        for _ in range(6):
            x, y = rand_scalar(rng, max_level=level), rand_scalar(rng, max_level=level)
            rx, ry = (x.level, x.coords), (y.level, y.coords)
            assert ((x * y).level, (x * y).coords) == _ref_mul(rx, ry)
            assert ((x + y).level, (x + y).coords) == _ref_add(rx, ry)
            assert (x.conj().level, x.conj().coords) == _ref_conj(rx)
            assert (x.inv().level, x.inv().coords) == _ref_inv(rx)


def test_equal_values_have_equal_hashes(rng):
    assert cyclo(3, 2) == IMAG and hash(cyclo(3, 2)) == hash(IMAG)
    assert hash(DyadicCyclotomic(3, (0, 0, 1, 0))) == hash(IMAG)
    assert hash(cyclo(5, 16)) == hash(MINUS_ONE) == hash(-ONE)
    # a rational value equals its int and Fraction, so it hashes as they do
    assert len({rational(2), 2}) == 1
    assert hash(rational(1, 3)) == hash(Fraction(1, 3))
    assert {2: "x"}[rational(2)] == "x"
    for _ in range(30):
        x, y = rand_scalar(rng, max_level=5), rand_scalar(rng, max_level=5)
        assert (x + y) - y == x and hash((x + y) - y) == hash(x)
        assert x * y * y.inv() == x and hash(x * y * y.inv()) == hash(x)


def test_only_exact_numbers_are_scalars():
    m = Monomial(0, 1, 0, 0)
    inexact = [
        lambda: Element([(m, 0.1)]),
        lambda: Element([(m, "1/3")]),
        lambda: GEN_S2.scale(0.5),
        lambda: gauge(1.0),
        lambda: beta_monomial(1.0, 0),
        lambda: monomial(0, 0, 0, 1, 0.1),  # the circle function 0.1 z as 0.1 U
        lambda: char_preset(4, 1, 0.1),
        lambda: DyadicCyclotomic.from_rational(0.5),
        lambda: rational(1) + 0.5,
        lambda: DyadicCyclotomic(0, [0.1]),
        lambda: DyadicCyclotomic(0, ["1/3"]),
    ]
    for build in inexact:
        with pytest.raises(TypeError):
            build()
    for exact in (np.int64(2), Fraction(2)):
        assert rational(2) == exact and rational(1) + exact == 3
        assert DyadicCyclotomic.from_rational(exact) == rational(2)
        assert Element([(m, exact)]).coefficient(m) == rational(2)
        assert GEN_S2 * exact == GEN_S2.scale(rational(2))
    assert type(DyadicCyclotomic.from_rational(np.int64(2)).as_rational().numerator) is int
    assert DyadicCyclotomic(1, [Fraction(1, 2)]) == rational(1, 2)


def test_rational_of_numpy_integers_is_exact():
    # a fixed-width numerator would wrap 2^64 to zero
    assert rational(np.int64(2**62), 3) * 4 == rational(2**64, 3)
    assert rational(np.int64(6), np.int64(4)) == rational(3, 2)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_text_and_json_round_trip():
    rng = make_rng(5)
    for _ in range(25):
        x = rand_scalar(rng, max_level=4)
        assert DyadicCyclotomic.from_json(x.to_json()) == x
    assert str(rational(1, 2)) == "1/2"
    assert str(IMAG) == "i"
    assert str(cyclo(3, 1)) == "zeta(8)"
    blob = cyclo(3, 3).to_json()
    assert blob["level"] == 3 and len(blob["coords"]) == 4


def test_power_matches_repeated_product(rng):
    for _ in range(20):
        z = rand_scalar(rng, max_level=4)
        for n in range(-5, 9):
            step = z if n >= 0 else z.inv()
            expected = ONE
            for _ in range(abs(n)):
                expected = expected * step
            assert z**n == expected
    assert ZERO**0 == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_circle_function_power_matches_repeated_product(rng):
    # f(U) in C*(U): products of roots U^k stay roots, so term maps compare exactly
    for _ in range(10):
        f = Element((Monomial(0, 0, 0, rng.randint(-3, 3)), rand_scalar(rng)) for _ in range(3))
        expected = Element({Monomial(0, 0, 0, 0): 1})
        for n in range(7):
            assert (f**n).terms == expected.terms
            expected = expected * f
