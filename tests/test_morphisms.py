from fractions import Fraction

import pytest

from q2algebra.algebra import (
    Element,
    GEN_S1,
    GEN_S1_STAR,
    GEN_S2,
    GEN_S2_STAR,
    GEN_U,
    GEN_U_STAR,
    Monomial,
    ONE,
    _is_unitary,
    equals,
    membership,
    scalar,
)
from q2algebra.morphisms import (
    BogoljubovMatrix,
    Endomorphism,
    ExtensionConditionFailed,
    ExtensionData,
    FlipFlopGauge,
    Gauge,
    NotExtensible,
    NotInS2,
    NotOdd,
    NotUnitary,
    RelationViolated,
    W_of,
    ad_unitary,
    agree_on_generators,
    beta_monomial,
    bogoljubov_classify,
    check_extension,
    chi,
    compose,
    compose_extension_data,
    decompose_S2_image,
    flip_theta,
    flipflop,
    gauge,
    is_beta,
    shift,
    u_of,
)
from q2algebra.scalars import IMAG, cyclo, rational

from conftest import rand_element

U, Us = GEN_U, GEN_U_STAR
S1, S2 = GEN_S1, GEN_S2
S1s, S2s = GEN_S1_STAR, GEN_S2_STAR


def test_make_endo_identity_and_flipflop():
    ident = Endomorphism(U, S2)
    assert ident.fixes_generators()
    assert repr(ident) == f"Endomorphism({U!r}, {S2!r})"
    ff = Endomorphism(Us, U * S2)
    assert equals(ff(S1), S2)
    assert equals(ff(S2), S1)


def test_make_endo_accepts_beta_with_f_z():
    # U -> U, S2 -> US2 = S1 satisfies all four relations: it is beta^f for
    # f(z) = z, one of the automorphisms fixing U
    endo = Endomorphism(U, S1)
    assert is_beta(endo)
    assert agree_on_generators(endo, beta_monomial(1, 1))


def test_make_endo_rejects_bad_images():
    with pytest.raises(RelationViolated):
        Endomorphism(U * U, S2)  # range condition fails: only even residues covered
    with pytest.raises(RelationViolated):
        Endomorphism(S2, S2)  # image of U not unitary
    with pytest.raises(RelationViolated):
        Endomorphism(U, S2s)  # image of S2 not an isometry
    with pytest.raises(RelationViolated):
        Endomorphism(U, S2 * S2)  # S2^2 U = U^4 S2^2 breaks the commutation rule


def test_apply_examples():
    assert equals(flipflop()(S1), S2)
    z = cyclo(3, 1)
    assert equals(gauge(z)(S1), S1.scale(z))
    assert equals(shift()(U), U * U)


def test_apply_is_homomorphic(rng):
    endos = [flipflop(), shift(), chi(3), gauge(IMAG), beta_monomial(IMAG, 2)]
    for endo in endos:
        for _ in range(6):
            x = rand_element(rng, nterms=2)
            y = rand_element(rng, nterms=2)
            assert equals(endo(x * y), endo(x) * endo(y))
            assert equals(endo(x.adjoint()), endo(x).adjoint())


def test_builtin_examples():
    assert equals(chi(3)(S1), U**3 * S2)
    adu = ad_unitary(U)
    assert equals(adu(S1), S2)
    assert equals(adu(S2), S1 * Us)
    assert agree_on_generators(beta_monomial(1, 0), Endomorphism(U, S2))
    with pytest.raises(NotOdd):
        chi(4)
    with pytest.raises(NotUnitary):
        beta_monomial(rational(2), 1)
    with pytest.raises(NotUnitary):
        ad_unitary(S2)


def test_compose_examples():
    ff = flipflop()
    assert compose(ff, ff).fixes_generators()
    assert agree_on_generators(compose(chi(3), chi(5)), chi(15))
    z = cyclo(3, 3)
    a = compose(gauge(z), ff)
    b = compose(ff, gauge(z))
    assert agree_on_generators(a, b)


def test_shift_intertwining(rng):
    sh = shift()
    for _ in range(50):
        x = rand_element(rng, nterms=2, max_depth=2)
        phi_x = sh(x)
        for s in (S1, S2):
            assert equals(s * x, phi_x * s)


def test_u_of_and_W_of():
    ff = flipflop()
    assert equals(u_of(ff), S2 * S2s * Us + U * S2 * S2s)
    for endo in (flipflop(), shift(), chi(3), gauge(IMAG)):
        u = u_of(endo)
        assert equals(endo(S2), u * S2)
        assert equals(endo(S1), u * S1)
    assert is_beta(gauge(IMAG))
    assert is_beta(beta_monomial(cyclo(3, 1), -2))
    assert not is_beta(flipflop())
    assert not is_beta(chi(3))
    assert equals(W_of(gauge(IMAG)), ONE)


def test_beta_group_law(rng):
    for _ in range(10):
        w1 = cyclo(rng.randint(0, 3), rng.randrange(8))
        w2 = cyclo(rng.randint(0, 3), rng.randrange(8))
        n1, n2 = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = compose(beta_monomial(w1, n1), beta_monomial(w2, n2))
        rhs = beta_monomial(w1 * w2, n1 + n2)
        assert agree_on_generators(lhs, rhs)


def test_u_fixing_builtins_commute(rng):
    fixers = [gauge(IMAG), gauge(cyclo(3, 5)), beta_monomial(IMAG, 1),
              beta_monomial(1, -2), beta_monomial(cyclo(3, 1), 3)]
    for e1 in fixers:
        assert equals(e1.img_U, U)
        for e2 in fixers:
            assert agree_on_generators(compose(e1, e2), compose(e2, e1))


def test_rigidity_echo_over_builtin_matrix():
    matrix = [
        Endomorphism(U, S2),
        gauge(cyclo(0, 0)),
        chi(1),
        beta_monomial(1, 0),
        compose(flipflop(), flipflop()),
        compose(chi(-1), chi(-1)),
        compose(gauge(IMAG), gauge(IMAG.conj())),
        compose(beta_monomial(IMAG, 1), beta_monomial(IMAG.conj(), -1)),
    ]
    for endo in matrix:
        if equals(endo(S1), S1) and equals(endo(S2), S2):
            assert equals(endo(U), U)


def test_chi_preserves_cu_and_misses_u():
    for m in (3, 5, 15, -3):
        cm = chi(m)
        image_exponents = set()
        for j in range(-8, 9):
            uj = U**j if j >= 0 else Us ** (-j)
            out = cm(uj)
            assert membership(out, "CU")
            ((mono, _),) = out.terms.items()
            image_exponents.add(mono.c)
        assert 1 not in image_exponents  # U has no Laurent preimage of degree <= 8


def test_ad_u_on_subalgebras():
    adu = ad_unitary(U)
    assert not membership(adu(S2), "O2")  # S1 U* is not in the O2 span
    assert not membership(adu(S1 * S2s), "O2")
    for k in range(4):
        for l in range(1 << k):
            p = Element([(Monomial(l, k, k, -l), rational(1))])
            assert membership(adu(p), "D2")


def test_check_extension_examples():
    z = cyclo(3, 1)
    ext = check_extension(ExtensionData(scalar(z), ONE))
    assert agree_on_generators(ext, gauge(z))

    ident = check_extension(ExtensionData(ONE, ONE))
    assert ident.fixes_generators()

    theta = flip_theta()
    # the closed form is sum_{i,j} S_i S_j S_i* S_j* term for term
    gens = (S1, S2)
    terms = [si * sj * si.adjoint() * sj.adjoint() for si in gens for sj in gens]
    assert theta.terms == sum(terms[1:], terms[0]).terms
    assert equals(theta, theta.adjoint())
    assert equals(theta * theta, ONE)
    assert membership(theta, "F2")
    ext = check_extension(ExtensionData(theta, Us * theta * U * U * theta))
    assert agree_on_generators(ext, shift())


def test_check_extension_errors():
    with pytest.raises(ExtensionConditionFailed):
        check_extension(ExtensionData(ONE, Us))  # W S2 = S2 fails for W = U*
    with pytest.raises(NotUnitary):
        check_extension(ExtensionData(S2, ONE))
    with pytest.raises(ExtensionConditionFailed):
        check_extension(ExtensionData(U, ONE))  # unitary but not in the O2 span


def test_compose_extension_data():
    d_id = ExtensionData(ONE, ONE)
    out = compose_extension_data(d_id, d_id)
    assert equals(out.V, ONE) and equals(out.W, ONE)

    z, w = cyclo(3, 1), cyclo(2, 1)
    dz, dw = ExtensionData(scalar(z), ONE), ExtensionData(scalar(w), ONE)
    dzw = compose_extension_data(dz, dw)
    assert equals(dzw.V, scalar(z * w)) and equals(dzw.W, ONE)
    assert agree_on_generators(check_extension(dzw), gauge(z * w))

    theta = flip_theta()
    d_shift = ExtensionData(theta, Us * theta * U * U * theta)
    d_sq = compose_extension_data(d_shift, d_shift)
    sh2 = compose(shift(), shift())
    assert agree_on_generators(check_extension(d_sq), sh2)


def test_bogoljubov_case_table():
    z = cyclo(3, 1)
    assert bogoljubov_classify(BogoljubovMatrix(z, 0, 0, z)) == Gauge(z)
    assert isinstance(bogoljubov_classify(BogoljubovMatrix(1, 0, 0, IMAG)), NotExtensible)
    assert bogoljubov_classify(BogoljubovMatrix(0, z, z, 0)) == FlipFlopGauge(z)
    assert isinstance(bogoljubov_classify(BogoljubovMatrix(0, 1, IMAG, 0)), NotExtensible)
    assert isinstance(bogoljubov_classify(BogoljubovMatrix(Fraction(1), 0, 0, rational(1))), Gauge)
    assert isinstance(bogoljubov_classify(BogoljubovMatrix(Fraction(-1), 0, 0, 1)), NotExtensible)
    r = 2**-0.5
    assert isinstance(bogoljubov_classify(BogoljubovMatrix(r, r, r, -r)), NotExtensible)
    # floating entries equal within 1e-12 classify as a gauge automorphism
    got = bogoljubov_classify(BogoljubovMatrix(1j, 0.0, 0.0, 1j * (1 + 1e-14)))
    assert isinstance(got, Gauge)
    with pytest.raises(NotUnitary):
        bogoljubov_classify(BogoljubovMatrix(1, 1, 0, 1))


def test_bogoljubov_decides_exact_entries_exactly():
    # 1 + 2^-50 is within 1e-12 of the circle but not on it, as gauge() knows
    z = 1 + Fraction(1, 1 << 50)
    with pytest.raises(NotUnitary):
        gauge(z)
    for entries in ((z, 0, 0, z), (0, z, z, 0), (1, Fraction(1, 1 << 50), 0, 1)):
        with pytest.raises(NotUnitary, match=r"^matrix is not unitary$"):
            bogoljubov_classify(BogoljubovMatrix(*entries))
    # exact unitary rows with nonzero cross terms: (3/5 4/5; -4/5 3/5)
    r = (Fraction(3, 5), Fraction(4, 5), Fraction(-4, 5), Fraction(3, 5))
    assert isinstance(bogoljubov_classify(BogoljubovMatrix(*r)), NotExtensible)


def _decomposed_terms(s):
    """decompose_S2_image(s) as exponent -> coefficient of its U-power form,
    checked to be a unitary f(U)."""
    f = decompose_S2_image(s)
    assert all(m.l == m.a == m.b == 0 for m in f.terms)
    assert _is_unitary(f)
    return {m.c: coef for m, coef in f.terms.items()}


def test_decompose_S2_image():
    assert _decomposed_terms(S2) == {0: 1}
    w = cyclo(3, 3)
    s = (U**2 * S2).scale(w)
    assert _decomposed_terms(s) == {2: w}
    assert _decomposed_terms(U * S2) == {1: 1}
    endo = beta_monomial(IMAG, -1)
    assert _decomposed_terms(endo(S2)) == {-1: IMAG}
    # s written with non-root terms: U S2 = S2 S2* U S2 + U S2 S2* U* U S2
    s = S2 * S2s * U * S2 + U * S2 * S2s * Us * U * S2
    assert _decomposed_terms(s) == {1: 1}
    for n in range(-3, 4):
        w = cyclo(2, n % 4)
        assert _decomposed_terms(beta_monomial(w, n).img_S2) == {n: w}
    with pytest.raises(NotInS2):
        decompose_S2_image(S1 * S1s)  # not an isometry
    with pytest.raises(NotInS2):
        decompose_S2_image(S2 * S2)  # S2^2 U = U^4 S2^2 breaks s U = U^2 s
    # an isometry with s U = U^2 s whose ranges overlap: s s* + U s s* U* = |f|^2(U)
    s = (ONE.scale(rational(3, 5)) + U.scale(rational(4, 5))) * S2
    assert equals(s.adjoint() * s, ONE) and equals(s * U, U * U * s)
    with pytest.raises(NotInS2, match=r"S2 S2\* \+ U S2 S2\* U\* = 1"):
        decompose_S2_image(s)


def test_random_extensions_respect_rigidity(rng):
    # (V, W) pairs built from gauge scalars and theta; any that fix S1 and S2
    # must fix U
    theta = flip_theta()
    datas = [
        ExtensionData(ONE, ONE),
        ExtensionData(scalar(IMAG), ONE),
        ExtensionData(theta, Us * theta * U * U * theta),
    ]
    for d1 in datas:
        for d2 in datas:
            endo = check_extension(compose_extension_data(d1, d2))
            if equals(endo(S1), S1) and equals(endo(S2), S2):
                assert equals(endo(U), U)
