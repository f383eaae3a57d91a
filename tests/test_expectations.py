import numpy as np
import pytest

from q2algebra import expectations
from q2algebra.algebra import (
    BudgetExceeded,
    Element,
    GEN_S1,
    GEN_S1_STAR,
    GEN_S2,
    GEN_S2_STAR,
    GEN_U,
    GEN_U_STAR,
    Monomial,
    ONE,
    ZERO,
    equals,
    membership,
    s_mu,
    scalar,
)
from q2algebra.canonical import MAX_WINDOW, window_matrix
from q2algebra.expectations import (
    E_CU,
    E_D2,
    E_diag_window,
    E_gauge,
    F_map,
    NotGaugeInvariant,
    s1_limit,
)
from q2algebra.morphisms import shift
from q2algebra.dyadic import build_Uz
from q2algebra.scalars import cyclo, rational

from conftest import rand_element, rand_monomial, rand_scalar

U, Us = GEN_U, GEN_U_STAR
S1, S2 = GEN_S1, GEN_S2
S1s, S2s = GEN_S1_STAR, GEN_S2_STAR


def test_E_gauge_examples():
    assert E_gauge(S2).is_zero()
    for k in range(-4, 5):
        uk = U**k if k >= 0 else Us ** (-k)
        assert E_gauge(uk).terms == uk.terms
    y = S1 * S2s * U**3
    assert E_gauge(y).terms == y.terms


def test_E_CU_examples():
    for k in range(1, 9):
        out = E_CU(S2**k * S2s**k)
        assert out.terms == {Monomial(0, 0, 0, 0): rational(1, 1 << k)}
    assert E_CU(S2).is_zero()
    assert E_CU(S1 * S2s).terms == {Monomial(0, 0, 0, 1): rational(1, 2)}
    for k in range(1, 6):
        for m in range(1, 6):
            if k != m:
                assert E_CU(S2**k * S2s**m).is_zero()


def test_E_D2_examples():
    for alpha in [(1,), (2,), (1, 2), (2, 2, 1)]:
        p = s_mu(alpha) * s_mu(alpha).adjoint()
        assert E_D2(p).terms == p.terms
    assert E_D2(ONE).terms == ONE.terms
    for k in range(-5, 6):
        uk = U**k if k >= 0 else Us ** (-k)
        expected = ONE if k == 0 else ZERO
        assert E_D2(uk).terms == expected.terms
    assert E_D2(S1 * S2s).is_zero()


def test_E_diag_window_examples():
    assert E_diag_window(S2, -4, 4) == {0: rational(1)}
    assert E_diag_window(U, -4, 4) == {}
    assert E_diag_window(S2 * S2s, -4, 4) == {i: rational(1) for i in (-4, -2, 0, 2, 4)}
    # S2 U acts by i -> 2(i+1), whose only fixed point is the isolated i = -2;
    # S2^2 U acts by i -> 4(i+1) with no integer fixed point at all
    assert E_diag_window(S2 * U, -8, 8) == {-2: rational(1)}
    assert E_diag_window(S2 * S2 * U, -8, 8) == {}


def test_diag_window_is_bounded_before_anything_is_built(monkeypatch):
    assert MAX_WINDOW == 1 << 20
    assert not issubclass(BudgetExceeded, ValueError)  # the CLI keeps it at exit 3
    lo = -(MAX_WINDOW // 2)
    hi = lo + MAX_WINDOW - 1
    x = S2**12 * S2s**12  # fixes the class 0 mod 2^12, so 256 entries at the bound
    assert E_diag_window(x, lo, hi) == {i: rational(1) for i in range(lo, hi + 1, 1 << 12)}
    with pytest.raises(BudgetExceeded, match="1048577 indices is over the bound of 1048576"):
        E_diag_window(x, lo, hi + 1)

    def no_fixed_points(*args):
        raise AssertionError("a window over the bound must not be filled")

    monkeypatch.setattr(expectations, "fixed_points", no_fixed_points)
    with pytest.raises(BudgetExceeded):
        E_diag_window(ONE, -10**8, 10**8)


def test_diag_window_matches_window_matrix(rng):
    for _ in range(25):
        x = rand_element(rng)
        exact = E_diag_window(x, -40, 40)
        dense = window_matrix(x, -40, 40).to_dense()
        diag = np.diag(dense)
        for offset, i in enumerate(range(-40, 41)):
            want = exact.get(i)
            got = diag[offset]
            assert abs(got - (want.to_complex() if want else 0.0)) < 1e-12


def test_idempotence_and_module_property(rng):
    for _ in range(50):
        x = rand_element(rng)
        for emap in (E_gauge, E_CU, E_D2):
            assert equals(emap(emap(x)), emap(x))

    # module property E(r1 x r2) = r1 E(x) r2 over each range span
    def rand_laurent():
        out = ZERO
        for _ in range(2):
            k = rng.randint(-3, 3)
            out = out + (U**k if k >= 0 else Us ** (-k)).scale(rational(rng.randint(1, 3)))
        return out

    def rand_gauge_inv():
        m = rand_monomial(rng)
        k = min(m.a, m.b)
        return Element([(Monomial(m.l % (1 << k), k, k, m.c), rational(1))]) + rand_laurent()

    def rand_diag():
        m = rand_monomial(rng)
        k = min(m.a, m.b)
        return Element([(Monomial(m.l % (1 << k), k, k, -(m.l % (1 << k))), rational(1))])

    for maker, emap in ((rand_laurent, E_CU), (rand_gauge_inv, E_gauge), (rand_diag, E_D2)):
        for _ in range(50):
            r1, r2 = maker(), maker()
            x = rand_element(rng)
            assert equals(emap(r1 * x * r2), r1 * emap(x) * r2)


def test_expectation_ranges_match_membership(rng):
    for _ in range(30):
        x = rand_element(rng)
        assert membership(x, "QT") == equals(x, E_gauge(x))
        assert membership(x, "CU") == equals(x, E_CU(x))
        assert membership(x, "D2") == equals(x, E_D2(x))
        assert equals(E_D2(E_gauge(x)), E_D2(x))


def test_positivity_spot_check(rng):
    for _ in range(50):
        x = rand_element(rng, nterms=3)
        pos = E_CU(x.adjoint() * x)
        dense = window_matrix(pos, -48, 48).to_dense()
        eigvals = np.linalg.eigvalsh((dense + dense.conj().T) / 2)
        assert eigvals.min() > -1e-9


def test_F_map_examples():
    x = S2 + U
    assert equals(F_map(x, 0), E_gauge(x))
    assert F_map(S1, 1).terms == (S1 * S1s).terms
    for i in range(-3, 4):
        expected = U if i == 0 else ZERO
        assert equals(F_map(U, i), expected)


def test_F_map_range_identities(rng):
    for _ in range(20):
        x = rand_element(rng)
        for i in range(0, 4):
            lhs = F_map(x, i)
            proj = S1**i * S1s**i
            assert equals(lhs, lhs * proj)
            rhs = F_map(x, -i)
            assert equals(rhs, proj * rhs)


def test_F_map_detects_nonzero(rng):
    # desk-scale echo of the Cuntz lemma: some F_i is nonzero for nonzero x
    for _ in range(25):
        x = rand_element(rng, max_a=None)
        x = Element((Monomial(m.l % (1 << min(m.a, m.b + 2)), min(m.a, m.b + 2), m.b, m.c), c)
                    for m, c in x.terms.items())
        if x.is_zero():
            continue
        bound = x.depth + 2
        assert any(not F_map(x, i).is_zero() for i in range(-bound, bound + 1))


def test_s1_limit_examples():
    assert s1_limit(ONE) == rational(1)
    assert s1_limit(S1 * S1s) == rational(1)
    assert s1_limit(S2 * S2s) == rational(0)
    got = s1_limit(scalar(rational(3, 4)) + (S1 * S1 * S1s * S1s).scale(rational(1, 2)))
    assert got == rational(3, 4) + rational(1, 2)


def test_s1_limit_requires_gauge_invariance():
    with pytest.raises(NotGaugeInvariant):
        s1_limit(S2)


def _compressed(x):
    """(S1*)^m x S1^m by hand, for m past the stabilization bound."""
    m = x.depth + max((abs(t.c) for t in x.terms), default=0) + 2
    for _ in range(m):
        x = S1s * x * S1
    return x


def test_s1_limit_on_random_gauge_invariant(rng):
    for _ in range(15):
        x = E_gauge(rand_element(rng))
        # the limit is reproduced by compressing far enough by hand
        assert equals(_compressed(x), scalar(s1_limit(x)))


def test_s1_limit_on_the_minus_one_class(rng):
    # U^l S2^a S2*^a U^-l with l = 2^a - 1 is the projection onto i = -1 mod 2^a,
    # the only terms whose compressions survive
    hits = 0
    for _ in range(40):
        depth = rng.randint(0, 6)
        x = E_gauge(rand_element(rng, nterms=3, max_depth=depth))
        for a in rng.sample(range(depth + 1), rng.randint(1, depth + 1)):
            l = (1 << a) - 1
            x = x + Element([(Monomial(l, a, a, -l), rand_scalar(rng))])
        value = s1_limit(x)
        hits += not value.is_zero()
        assert equals(_compressed(x), scalar(value))
    assert hits > 30
    for n in range(9):
        uz = build_Uz(n)  # z^k at e_k, so z^-1 at e_-1
        assert s1_limit(uz) == cyclo(n, -1)
        assert equals(_compressed(uz), scalar(cyclo(n, -1)))


def test_shift_images_commute_with_length_k_f2(rng):
    # phi^k(x) commutes with every S_gamma S_delta* of length k
    sh = shift()
    for k in (1, 2, 3, 4):
        for _ in range(3):
            x = rand_element(rng, nterms=2, max_depth=2, max_shift=2, max_level=2)
            y = x
            for _ in range(k):
                y = sh(y)
            for g_label in range(1 << k):
                for d_label in range(1 << k):
                    w = Element([(Monomial(g_label, k, k, -d_label), rational(1))])
                    assert equals(y * w, w * y)
