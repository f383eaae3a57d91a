import pytest
from hypothesis import given, settings, strategies as st

from q2algebra.algebra import (
    DepthTooSmall,
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
    coarsen,
    equals,
    from_generator,
    gauge_component,
    membership,
    mono_mul,
    monomial_of_pair,
    multiindex_label,
    multiindex_of_label,
    normalize_depth,
    pair_of_monomial,
    proj_Pn,
    proj_Qn,
    s_mu,
)
from q2algebra.canonical import _image, apply_basis
from q2algebra.cli import main
from q2algebra.expectations import E_CU, E_D2, E_gauge
from q2algebra.scalars import rational

from conftest import basis_action_agrees, make_rng, rand_element

U, Us = GEN_U, GEN_U_STAR
S1, S2 = GEN_S1, GEN_S2
S1s, S2s = GEN_S1_STAR, GEN_S2_STAR


def test_generator_tuples():
    assert from_generator("U").terms == {Monomial(0, 0, 0, 1): rational(1)}
    assert from_generator("U*").terms == {Monomial(0, 0, 0, -1): rational(1)}
    assert from_generator("S2").terms == {Monomial(0, 1, 0, 0): rational(1)}
    assert from_generator("S1").terms == {Monomial(1, 1, 0, 0): rational(1)}
    assert from_generator("S2*").terms == {Monomial(0, 0, 1, 0): rational(1)}
    # S1* must match the adjoint computed through the basis-action oracle
    assert from_generator("S1*").terms == S1.adjoint().terms
    for i in range(-8, 8):
        img = apply_basis(S1, i)
        back = apply_basis(from_generator("S1*"), 2 * i + 1)
        assert img == {2 * i + 1: rational(1)} and back == {i: rational(1)}


def test_defining_relations():
    assert equals(S2 * U, U * U * S2)
    assert equals(S2 * S2s + U * S2 * S2s * Us, ONE)
    assert equals(S2s * S2, ONE)


def test_mul_examples():
    assert equals(S2s * S2, ONE)
    assert equals(S2 * U, (U * U) * S2)
    assert (S2s * (U * S2)).is_zero()


def test_add_scale_examples():
    x = rand_element(make_rng(11))
    assert (x + x.scale(-1)).is_zero()
    assert equals(S2 * S2s + S1 * S1s, ONE)
    assert equals(ONE.scale(rational(1, 2)) + ONE.scale(rational(1, 2)), ONE)


def test_adjoint_examples():
    assert S2.adjoint().terms == S2s.terms
    assert S1.adjoint().terms == {Monomial(0, 0, 1, -1): rational(1)}
    rng = make_rng(12)
    for _ in range(20):
        x = rand_element(rng)
        assert x.adjoint().adjoint().terms == x.terms


def test_normalize_depth_examples():
    refined = normalize_depth(ONE, 1)
    assert sorted(refined.terms) == [Monomial(0, 1, 1, 0), Monomial(1, 1, 1, -1)]
    assert equals(refined, ONE)

    p = S2 * S2s
    assert normalize_depth(p, 1).terms == {Monomial(0, 1, 1, 0): rational(1)}

    # U at depth 2: four terms acting as i -> i+1, verified against the oracle
    u2 = normalize_depth(U, 2)
    assert len(u2.terms) == 4
    assert all(m.b == 2 for m in u2.terms)
    for i in range(-16, 16):
        assert apply_basis(u2, i) == {i + 1: rational(1)}

    with pytest.raises(DepthTooSmall):
        normalize_depth(S2 * S2s, 0)


def test_normalize_depth_preserves_action():
    rng = make_rng(13)
    for _ in range(15):
        x = rand_element(rng)
        B = x.depth + rng.randint(0, 2)
        y = normalize_depth(x, B)
        assert all(m.b == B for m in y.terms)
        bound = 1 << (B + 4)
        assert basis_action_agrees(x, y, -bound, bound)


def test_equals_examples():
    assert equals(S1, U * S2)
    assert equals(S2 * S2s + S1 * S1s, ONE)
    assert not equals(S2, S1)  # actions differ at e_0
    assert apply_basis(S2, 0) != apply_basis(S1, 0)


def test_equals_is_not_term_map_identity():
    x = S2 * S2s + U * S2 * S2s * Us
    assert x.terms != ONE.terms
    assert equals(x, ONE)


def test_fixed_depth_form_is_unique():
    rng = make_rng(14)
    for _ in range(15):
        x = rand_element(rng)
        B = x.depth + 1
        y = x + (U * S1 - S2 * U) * rand_element(rng, nterms=1)  # plus zero
        assert equals(x, y)
        assert normalize_depth(x, B).terms == normalize_depth(y, B).terms


def _zero_in_disguise(rng):
    """A nonzero term map of the zero operator."""
    return (S2 * S2s + S1 * S1s - ONE) * rand_element(rng, nterms=2)


def test_canonical_form_is_unique():
    rng = make_rng(18)
    for _ in range(40):
        x = rand_element(rng, nterms=5)
        # a term below another one: the two overlap on the child's class
        mono = rng.choice(list(x.terms))
        child = rng.choice(list(normalize_depth(Element([(mono, 1)]), mono.b + 1).terms))
        x = x + Element([(child, rng.choice([1, -1, rational(1, 2)]))])
        form = coarsen(x).terms
        for k in range(4):
            assert coarsen(normalize_depth(x, x.depth + k)).terms == form
        assert coarsen(x + _zero_in_disguise(rng)).terms == form
        assert equals(coarsen(x), x)
    assert coarsen(S2 * S2s + U * S2 * S2s * Us).terms == ONE.terms
    assert coarsen(_zero_in_disguise(rng)).is_zero()


def _refinement_chain(mono, coef, B, rng):
    """Terms summing to coef * mono: one child split further at every level."""
    terms = []
    while mono.b < B:
        kids = list(normalize_depth(Element([(mono, coef)]), mono.b + 1).terms)
        rng.shuffle(kids)
        terms.append((kids[0], coef))
        mono = kids[1]
    return terms + [(mono, coef)]


def test_deep_equality_against_basis_action():
    rng = make_rng(19)
    for B in (20, 21, 22, 23, 24):
        a = rng.randint(0, 3)
        deep = Monomial(rng.randrange(1 << a), a, 2, rng.randint(-4, 4))
        x = rand_element(rng) + Element([(deep, rational(3, 2))])
        chain = _refinement_chain(deep, x.coefficient(deep), B, rng)
        y = x - Element([(deep, x.coefficient(deep))]) + Element(chain)
        changed = dict(y.terms)
        bottom = chain[-1][0]
        assert bottom.b == B
        changed[bottom] = changed[bottom] + rational(1, 4)
        for other, same in ((y, True), (Element(changed), False)):
            assert equals(x, other) is same
            indices = {(-m.c) % (1 << m.b) for m in (*x.terms, *other.terms)}
            agree = all(apply_basis(x, i) == apply_basis(other, i) for i in indices)
            assert agree is same


def _member_candidate(rng):
    """A random element drawn from one subalgebra's spanning terms, written
    at mixed depths, sometimes with one arbitrary term added."""
    family = rng.choice(("CU", "D2", "QT", "O2", "F2"))
    terms = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if family == "CU":
            mono = Monomial(0, 0, 0, rng.randint(-3, 3))
        elif family == "D2":
            l = rng.randrange(1 << a)
            mono = Monomial(l, a, a, -l)
        elif family == "QT":
            mono = Monomial(rng.randrange(1 << a), a, a, rng.randint(-4, 4))
        else:
            a = b if family == "F2" else a
            mono = Monomial(rng.randrange(1 << a), a, b, -rng.randrange(1 << b))
        terms.append((mono, rng.choice([1, 2, -1, rational(1, 2)])))
    x = Element(terms)
    if rng.random() < 0.5:
        x = normalize_depth(x, x.depth + rng.randint(0, 2))
    if rng.random() < 0.5:
        x = x + _zero_in_disguise(rng)
    if rng.random() < 0.3:
        x = x + rand_element(rng, nterms=1)
    return x


def _membership_by_definition(x, sub):
    """Range of the expectation for QT/CU/D2; depth-B read-off for O2/F2."""
    if sub in ("QT", "CU", "D2"):
        expectation = {"QT": E_gauge, "CU": E_CU, "D2": E_D2}[sub]
        return equals(x, expectation(x))
    B = x.depth
    return all(
        0 <= -m.c < (1 << B) and (sub == "O2" or m.a == B)
        for m in normalize_depth(x, B).terms
    )


def test_membership_matches_definition():
    rng = make_rng(20)
    seen = set()
    for _ in range(300):
        x = _member_candidate(rng)
        for sub in ("QT", "CU", "D2", "O2", "F2"):
            verdict = membership(x, sub)
            assert verdict == _membership_by_definition(x, sub), (x, sub)
            seen.add((sub, verdict))
    assert len(seen) == 10  # every subalgebra saw members and non-members


def test_scalar_part_without_constant_term():
    assert (S2 * S2s + U * S2 * S2s * Us).scalar_part() == rational(1)
    assert (ONE.scale(2) + S2 * S2s + U * S2 * S2s * Us).scalar_part() == rational(3)
    assert normalize_depth(ONE.scale(rational(1, 3)), 3).scalar_part() == rational(1, 3)
    assert ZERO.scalar_part() == rational(0)
    assert (S2 * S2s).scalar_part() is None


def test_cli_eq_at_depth_22(capsys):
    assert main(["eq", "S2^22 S2*^22", "1"]) == 1
    assert capsys.readouterr().out.strip() == "DIFFERENT"


def test_membership_examples():
    ad_u_s2 = U * S2 * Us
    assert equals(ad_u_s2, S1 * Us)
    assert not membership(ad_u_s2, "O2")
    assert membership(S1 * S2s, "F2")
    assert membership(U, "CU")
    assert not membership(U, "O2")
    assert membership(S1 * S2s * U**3, "QT")
    assert not membership(S2, "QT")
    assert membership(S2 * S2s, "D2")
    assert not membership(S1 * S2s, "D2")
    assert membership(S2 * U, "O2") is False
    assert membership(S1 * S2s + S2 * S1s, "F2")
    with pytest.raises(ValueError):
        membership(U, "XX")


def test_gauge_component():
    x = S2 + U
    assert gauge_component(x, 1).terms == S2.terms
    assert gauge_component(x, 0).terms == U.terms
    y = S1 * S2s * U**3
    assert gauge_component(y, 0).terms == y.terms
    rng = make_rng(15)
    for _ in range(10):
        z = rand_element(rng)
        total = ZERO
        for d in range(-4, 5):
            total = total + gauge_component(z, d)
        assert total.terms == z.terms


def test_projection_family():
    assert proj_Pn(0).terms == {Monomial(0, 1, 1, 0): rational(1)}
    # the closed-form monomial is the product S1^n S2 S2* (S1*)^n term for term
    for n in range(11):
        s1n = S1**n
        assert proj_Pn(n).terms == (s1n * S2 * S2s * s1n.adjoint()).terms
    assert (proj_Pn(1) * proj_Pn(2)).is_zero()
    for n in range(4):
        p = proj_Pn(n)
        assert equals(p, p.adjoint())
        assert equals(p, p * p)
    # P_n fixes exactly the residues 2^n - 1 mod 2^(n+1)
    for n in range(7):
        p = proj_Pn(n)
        mod = 1 << (n + 1)
        for i in range(-mod, 2 * mod):
            expected = {i: rational(1)} if i % mod == (1 << n) - 1 else {}
            assert apply_basis(p, i) == expected


def test_qn_projection_and_coverage():
    for n in range(5):
        q = proj_Qn(n)
        assert equals(q, q.adjoint()) and equals(q, q * q)
        mod = 1 << (n + 1)
        fixed = sum(1 for i in range(mod) if apply_basis(q, i) == {i: rational(1)})
        assert fixed == mod - 1  # everything except -1 mod 2^(n+1)


def test_multiindex_conversions():
    assert multiindex_label((1,)) == 1
    assert multiindex_label((2, 2)) == 0
    assert multiindex_label((1, 1)) == 3
    for k in range(7):
        for j in range(1 << k):
            assert multiindex_label(multiindex_of_label(j, k)) == j
    # S_mu S_nu* U^h rebuilt from a pair matches the generator product
    rng = make_rng(16)
    for _ in range(20):
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        mu = tuple(rng.choice([1, 2]) for _ in range(k1))
        nu = tuple(rng.choice([1, 2]) for _ in range(k2))
        h = rng.randint(-3, 3)
        mono = monomial_of_pair(mu, nu, h)
        direct = s_mu(mu) * s_mu(nu).adjoint() * (U**h if h >= 0 else Us ** (-h))
        assert direct.terms == {mono: rational(1)}
        mu2, nu2, h2 = pair_of_monomial(mono)
        assert monomial_of_pair(mu2, nu2, h2) == mono


_mono_st = st.builds(
    lambda a, b, lseed, c: Monomial(lseed % (1 << a), a, b, c),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 63),
    st.integers(-4, 4),
)


@given(_mono_st, _mono_st)
@settings(max_examples=120, deadline=None)
def test_monomial_product_matches_map_composition(m1, m2):
    prod = mono_mul(m1, m2)
    for i in range(-(1 << 8), 1 << 8):
        j = _image(m2, i)
        composed = _image(m1, j) if j is not None else None
        if prod is None:
            assert composed is None
        else:
            assert _image(prod, i) == composed


@given(_mono_st, _mono_st, _mono_st)
@settings(max_examples=60, deadline=None)
def test_mul_associative_and_adjoint_antimultiplicative(m1, m2, m3):
    x = Element([(m1, rational(1, 2))])
    y = Element([(m2, rational(3))])
    z = Element([(m3, rational(-1, 4))])
    assert equals((x * y) * z, x * (y * z))
    assert equals((x * y).adjoint(), y.adjoint() * x.adjoint())


def test_element_json_round_trip():
    rng = make_rng(17)
    for _ in range(15):
        x = rand_element(rng)
        assert Element.from_json(x.to_json()).terms == x.terms


def test_power_matches_repeated_product(rng):
    for _ in range(8):
        x = rand_element(rng, nterms=3, max_depth=2, max_shift=3, max_level=2)
        product = ONE
        for n in range(7):
            assert (x**n).terms == product.terms
            product = product * x
        with pytest.raises(ValueError):
            x ** -1


def test_power_takes_logarithmically_many_products(monkeypatch):
    calls = 0
    mul = Element.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counting_mul)
    n = 2_000_000
    assert (U**n).terms == {Monomial(0, 0, 0, n): 1}
    assert calls <= 2 * n.bit_length()
