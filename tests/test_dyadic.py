import cmath
import random

import numpy as np
import pytest

from q2algebra import dyadic
from q2algebra.algebra import (
    GEN_S2,
    GEN_U,
    Monomial,
    ONE,
    equals,
    membership,
    multiindex_label,
    multiindex_of_label,
    s_mu,
)
from q2algebra.canonical import apply_basis
from q2algebra.dyadic import (
    Continuous,
    Obstructed,
    RootOfUnity,
    build_Sz,
    build_Uz,
    check_Uz_relations,
    membership_Uz,
    two_adic_continuity,
)
from q2algebra.morphisms import ad_unitary, compose
from q2algebra.scalars import cyclo, rational

U, S2 = GEN_U, GEN_S2


def test_build_Uz_base_cases():
    assert equals(build_Uz(0), ONE)
    uz1 = build_Uz(1)
    assert uz1.terms == {
        Monomial(0, 1, 1, 0): rational(1),
        Monomial(1, 1, 1, -1): rational(-1),
    }
    for k in range(-8, 9):
        assert apply_basis(uz1, k) == {k: rational(1 if k % 2 == 0 else -1)}


def test_build_Uz_window_diagonal_exact():
    for n in range(5):
        uz = build_Uz(n)
        for k in range(-64, 65):
            assert apply_basis(uz, k) == {k: cyclo(n, k)}


def test_Uz_is_projection_sum_in_lex_order():
    for n in range(1, 5):
        uz = build_Uz(n)
        total = None
        for j in range(1 << n):
            alpha = multiindex_of_label(j, n)
            p = s_mu(alpha) * s_mu(alpha).adjoint()
            term = p.scale(cyclo(n, j))
            total = term if total is None else total + term
        assert equals(uz, total)


def test_build_Sz():
    assert equals(build_Sz(0), S2)
    sz1 = build_Sz(1)
    for k in range(-8, 9):
        assert apply_basis(sz1, k) == {2 * k: rational((-1) ** (k % 2))}
    for n in range(5):
        assert equals(S2.adjoint() * build_Sz(n), build_Uz(n))


def test_check_Uz_relations():
    for n in range(5):
        assert check_Uz_relations(n)


def test_Uz_is_unitary_with_dyadic_order():
    for n in range(4):
        uz = build_Uz(n)
        assert equals(uz * uz.adjoint(), ONE)
        assert equals(uz.adjoint() * uz, ONE)
        power = ONE
        for _ in range(1 << n):
            power = power * uz
        assert equals(power, ONE)
        if n:
            half = ONE
            for _ in range(1 << (n - 1)):
                half = half * uz
            assert not equals(half, ONE)


def test_ad_Uz_order():
    for n in range(4):
        endo = ad_unitary(build_Uz(n))
        power = endo
        for _ in range((1 << n) - 1):
            power = compose(endo, power)
        assert power.fixes_generators()


def test_membership_Uz(monkeypatch):
    for order in (1, 2, 4, 8, 16):
        assert membership_Uz(RootOfUnity(order))
    for order in (3, 6, 12):
        assert not membership_Uz(RootOfUnity(order))
    assert membership_Uz(RootOfUnity(1, 0))
    # the explicit U_z at a dyadic order is diagonal, a diagonal times U is not
    for n in range(7):
        assert membership(build_Uz(n), "D2")
    assert not membership(build_Uz(2) * U, "D2")

    # the verdict needs no element: at order 2^64 U_z would have 2^64 terms
    def refuse(n):
        raise AssertionError(f"build_Uz({n}) called")

    monkeypatch.setattr(dyadic, "build_Uz", refuse)
    assert membership_Uz(RootOfUnity(2**64, 3)) is True


def test_root_of_unity_reduction():
    z = RootOfUnity(8, 2)
    assert (z.order, z.exponent) == (4, 1)
    assert RootOfUnity(6, 3).order == 2
    assert RootOfUnity(5, 0).order == 1
    assert RootOfUnity(12, 5).is_dyadic is False
    assert RootOfUnity(16, 3).is_dyadic is True


def test_two_adic_continuity_on_roots():
    # z^k extends to Z_2 continuously iff z is a dyadic root; all orders <= 16
    for order in range(1, 17):
        z = cmath.exp(2j * cmath.pi / order)
        res = two_adic_continuity(lambda k, z=z: z**k, depth=5)
        if order & (order - 1) == 0:
            assert isinstance(res, Continuous), order
        else:
            assert isinstance(res, Obstructed), order
            j, k, m, gap = res.witness
            assert j % (1 << m) == k % (1 << m)
            assert abs(z**j - z**k) == pytest.approx(gap)


def test_two_adic_continuity_edges():
    assert isinstance(two_adic_continuity(lambda k: 1.0, 3), Continuous)
    res = two_adic_continuity(lambda k: cmath.exp(2j * cmath.pi * k / 3), 4)
    assert isinstance(res, Obstructed)
    assert res.oscillations[-1] == pytest.approx(abs(1 - cmath.exp(2j * cmath.pi / 3)))
    with pytest.raises(ValueError):
        two_adic_continuity(lambda k: 1.0, 1)


def _full_matrix_continuity(sampler, depth):
    """Reference: the whole gap matrix of each residue class and its first
    row-major maximum, as (oscillations, witness pairs)."""
    radius = 1 << (depth + 2)
    indices = np.arange(-radius, radius + 1)
    values = np.array([complex(sampler(int(k))) for k in indices])
    oscs, pairs = [], []
    for m in range(1, depth + 1):
        worst, pair = 0.0, (0, 0)
        for r in range(1 << m):
            vals, idxs = values[r::1 << m], indices[r::1 << m]
            gaps = np.abs(vals[None, :] - vals[:, None])
            i, k = np.unravel_index(np.argmax(gaps), gaps.shape)
            if gaps[i, k] > worst:
                worst, pair = float(gaps[i, k]), (int(idxs[i]), int(idxs[k]))
        oscs.append(worst)
        pairs.append(pair)
    return tuple(oscs), pairs


def test_two_adic_continuity_matches_full_gap_matrices():
    rnd = random.Random(7)
    table = [complex(rnd.choice((0, 1, 2)), rnd.choice((0, 1))) for _ in range(48)]
    samplers = [
        lambda k: 1.0,
        lambda k: (0.0, 1.0, 2.0)[k % 3],  # every class repeats its maximum
        lambda k: float(k % 5 == 0),
        lambda k: 1.0 if k >= 0 else -1.0,
        lambda k: cmath.exp(2j * cmath.pi * (k % 16) / 16),
        lambda k: table[k % 48],
    ]
    for depth in range(2, 8):  # from depth 6 on a class has more than one block of rows
        for sampler in samplers:
            oscs, pairs = _full_matrix_continuity(sampler, depth)
            res = two_adic_continuity(sampler, depth)
            assert res.oscillations == oscs
            if isinstance(res, Obstructed):
                j, k, m, gap = res.witness
                assert (j, k) == pairs[m - 1] and gap == oscs[m - 1]


def test_two_adic_continuity_rejects_non_finite_samples():
    # a NaN gap never beats the running maximum, so the classes holding NaN
    # would drop out and the sampler would read as continuous
    nan_near_zero = lambda k: float("nan") if abs(k) < 64 else 1.0
    with pytest.raises(ValueError, match=r"not finite at k = -63$"):
        two_adic_continuity(nan_near_zero, 4)
    with pytest.raises(ValueError, match=r"not finite at k = 5$"):
        two_adic_continuity(lambda k: complex("inf") if k == 5 else 1.0, 3)


def test_lex_multiindex():
    assert multiindex_of_label(0, 2) == (2, 2)
    assert multiindex_of_label(1, 1) == (1,)
    assert multiindex_of_label(3, 2) == (1, 1)
    for k in range(7):
        for j in range(1 << k):
            assert multiindex_label(multiindex_of_label(j, k)) == j
    # the enumeration is genuinely lexicographic for 2 < 1 read right to left
    order = [multiindex_of_label(j, 3) for j in range(8)]
    key = lambda alpha: tuple(0 if d == 2 else 1 for d in reversed(alpha))
    assert order == sorted(order, key=key)
    with pytest.raises(ValueError):
        multiindex_of_label(4, 2)
