"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every tolerance is pinned here, nothing is deferred.
"""

import random
import time

import numpy as np

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
    equals,
    membership,
    monomial,
    normalize_depth,
    proj_Pn,
    proj_Qn,
    scalar,
)
from q2algebra.canonical import apply_basis, window_matrix
from q2algebra.cli import main
from q2algebra.expectations import E_CU, E_D2, E_gauge
from q2algebra.morphisms import (
    BogoljubovMatrix,
    Endomorphism,
    ExtensionData,
    FlipFlopGauge,
    Gauge,
    NotExtensible,
    agree_on_generators,
    beta_monomial,
    bogoljubov_classify,
    check_extension,
    chi,
    compose,
    flip_theta,
    flipflop,
    gauge,
    shift,
)
from q2algebra.dyadic import RootOfUnity, build_Uz, check_Uz_relations, membership_Uz
from q2algebra.parser import ParseError, parse_element, print_element
from q2algebra.scalars import IMAG, cyclo, rational
from q2algebra.torusfunc import (
    NotASolution,
    bump_preset,
    cascade_solve,
    char_preset,
    flipflop_commute_obstruction,
    gauge_equiv_obstruction,
    solve_square_equation,
    step_preset,
    winding_number,
)

from conftest import make_rng, rand_element, rand_monomial

U, Us = GEN_U, GEN_U_STAR
S1, S2 = GEN_S1, GEN_S2
S1s, S2s = GEN_S1_STAR, GEN_S2_STAR


def _report(num, passed, text, t0):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {text} ({time.perf_counter() - t0:.2f}s)"
    print(line)
    assert passed, line


def test_criterion_01_relation_suite():
    t0 = time.perf_counter()
    ok = equals(S2 * U, U * U * S2)
    ok &= equals(S2 * S2s + U * S2 * S2s * Us, ONE)
    push_rules = [
        (U * S1, S2 * U),
        (U * S2, S1),
        (U * S1s, S2s * U),
        (U * S2s, S2s * U * U),
        (Us * S1, S2),
        (Us * S2, S1 * Us),
        (Us * S1s, S1s * Us * Us),
        (Us * S2s, S1s * Us),
    ]
    ok &= all(equals(lhs, rhs) for lhs, rhs in push_rules)
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, "defining relations and the eight push rules", t0)


def test_criterion_02_oracle_agreement():
    t0 = time.perf_counter()
    rng = make_rng(2024)
    lo, hi, tol = -(1 << 10), 1 << 10, 1e-9
    agree = 0
    for trial in range(200):
        x = rand_element(rng)  # depth <= 3, |c| <= 4, scalar level <= 3
        if trial % 2 == 0:
            refine = Element((Monomial(t, 2, 2, -t), 1) for t in range(4))
            y = x * refine if trial % 4 == 0 else normalize_depth(x, x.depth + 1)
        else:
            y = rand_element(rng)
        exact = equals(x, y)
        floating = window_matrix(x, lo, hi).max_abs_diff(window_matrix(y, lo, hi)) <= tol
        agree += exact == floating
    elapsed = time.perf_counter() - t0
    _report(2, agree == 200 and elapsed < 10.0, f"equals vs window oracle on {agree}/200 pairs", t0)


def test_criterion_03_expectation_values():
    t0 = time.perf_counter()
    ok = all(
        E_CU(S2**k * S2s**k).terms == {Monomial(0, 0, 0, 0): rational(1, 1 << k)}
        for k in range(1, 9)
    )
    ok &= all(
        E_CU(S2**k * S2s**m).is_zero()
        for k in range(6)
        for m in range(6)
        if k != m
    )
    for k in range(-5, 6):
        uk = U**k if k >= 0 else Us ** (-k)
        ok &= E_D2(uk).terms == (ONE.terms if k == 0 else {})
    rng = make_rng(3)
    for _ in range(100):
        m = rand_monomial(rng)
        killed = E_gauge(Element([(m, 1)]))
        ok &= killed.is_zero() if m.a != m.b else killed.terms == {m: rational(1)}
    _report(3, ok, "E_CU / E_D2 / E_gauge values, exact", t0)


def test_criterion_04_idempotence_and_module_property():
    t0 = time.perf_counter()
    rng = make_rng(4)
    ok = True
    for _ in range(50):
        x = rand_element(rng)
        for emap in (E_gauge, E_CU, E_D2):
            ok &= equals(emap(emap(x)), emap(x))

    def rand_laurent():
        k = rng.randint(-3, 3)
        base = U**k if k >= 0 else Us ** (-k)
        return base.scale(rational(rng.randint(1, 3))) + ONE.scale(rational(rng.randint(0, 2)))

    def rand_gauge_inv():
        m = rand_monomial(rng)
        k = min(m.a, m.b)
        return Element([(Monomial(m.l % (1 << k), k, k, m.c), rational(1))])

    def rand_diag():
        m = rand_monomial(rng)
        k = min(m.a, m.b)
        l = m.l % (1 << k)
        return Element([(Monomial(l, k, k, -l), rational(1))])

    for maker, emap in ((rand_laurent, E_CU), (rand_gauge_inv, E_gauge), (rand_diag, E_D2)):
        for _ in range(50):
            r1, r2, x = maker(), maker(), rand_element(rng)
            ok &= equals(emap(r1 * x * r2), r1 * emap(x) * r2)
    _report(4, ok, "idempotence and module property on 50 random triples each", t0)


def test_criterion_05_morphism_suite():
    t0 = time.perf_counter()
    rng = make_rng(5)
    ff = flipflop()
    ok = compose(ff, ff).fixes_generators()
    for z in (cyclo(2, 1), cyclo(3, 3)):
        ok &= agree_on_generators(compose(gauge(z), ff), compose(ff, gauge(z)))
    ok &= agree_on_generators(compose(chi(3), chi(5)), chi(15))
    sh = shift()
    for _ in range(50):
        x = rand_element(rng, nterms=2, max_depth=2)
        phi_x = sh(x)
        ok &= equals(S1 * x, phi_x * S1) and equals(S2 * x, phi_x * S2)
    ok &= equals(sh(U), U * U)
    theta = flip_theta()
    ext = check_extension(ExtensionData(theta, Us * theta * U * U * theta))
    ok &= agree_on_generators(ext, sh)
    _report(5, ok, "flip-flop, gauge, chi, shift intertwining, theta extension", t0)


def test_criterion_06_rigidity_echo():
    t0 = time.perf_counter()
    theta = flip_theta()
    matrix = [
        Endomorphism(U, S2),
        gauge(cyclo(0, 0)),
        chi(1),
        chi(-1),
        beta_monomial(1, 0),
        flipflop(),
        shift(),
        compose(flipflop(), flipflop()),
        compose(chi(-1), chi(-1)),
        compose(gauge(IMAG), gauge(IMAG.conj())),
        compose(beta_monomial(IMAG, 2), beta_monomial(IMAG.conj(), -2)),
        check_extension(ExtensionData(theta, Us * theta * U * U * theta)),
        check_extension(ExtensionData(scalar(IMAG), ONE)),
    ]
    checked = 0
    ok = True
    for endo in matrix:
        if equals(endo(S1), S1) and equals(endo(S2), S2):
            checked += 1
            ok &= equals(endo(U), U)
    _report(6, ok and checked >= 6, f"{checked} generator-fixing endomorphisms also fix U", t0)


def test_criterion_07_bogoljubov_classifier():
    t0 = time.perf_counter()
    z = cyclo(3, 1)
    w = cyclo(2, 1)
    r = 2**-0.5
    ok = bogoljubov_classify(BogoljubovMatrix(z, 0, 0, z)) == Gauge(z)
    ok &= isinstance(bogoljubov_classify(BogoljubovMatrix(1, 0, 0, w)), NotExtensible)
    ok &= bogoljubov_classify(BogoljubovMatrix(0, w, w, 0)) == FlipFlopGauge(w)
    ok &= isinstance(bogoljubov_classify(BogoljubovMatrix(0, z, w, 0)), NotExtensible)
    ok &= isinstance(bogoljubov_classify(BogoljubovMatrix(r, r, r, -r)), NotExtensible)
    _report(7, ok, "full extensibility case table (diag / antidiag / Hadamard)", t0)


def test_criterion_08_uz_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(5):
        uz = build_Uz(n)
        for k in range(-64, 65):
            ok &= apply_basis(uz, k) == {k: cyclo(n, k)}
        ok &= check_Uz_relations(n)
    for order in (1, 2, 4, 8, 16):
        ok &= membership_Uz(RootOfUnity(order)) is True
    for order in (3, 6, 12):
        ok &= membership_Uz(RootOfUnity(order)) is False
    _report(8, ok, "U_z diagonals exact, both relations, dyadic-order criterion", t0)


def test_criterion_09_cascade_obstruction():
    t0 = time.perf_counter()
    level = 12
    step = step_preset(level)  # eps = pi/4
    h = cascade_solve(step)  # Psi(z) = f(z) conj(f(1)) = f(z)
    ok = all(h.values[1 << (level - 1 - n)] == 1.0 for n in range(0, 10))
    ok &= all(
        abs(h.values[5 * (1 << (level - 3 - n))] + 1.0) < 1e-9 for n in range(0, 10)
    )
    rep = gauge_equiv_obstruction(step)
    ok &= abs(rep.at_one - 2.0) <= 1e-6
    rep2 = flipflop_commute_obstruction(bump_preset(level))
    ok &= abs(rep2.at_one - 2.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(9, ok and elapsed < 1.0, "step/bump cascade values and oscillation 2.0 at z=1", t0)


def test_criterion_10_appendix_solver():
    t0 = time.perf_counter()
    # the circle function w z^n is the element w U^n of C*(U)
    ok = all(solve_square_equation(monomial(0, 0, 0, n)) == n for n in range(-8, 9))
    for bad in (monomial(0, 0, 0, 1, -1), monomial(0, 0, 0, 1, cyclo(3, 1))):
        try:
            solve_square_equation(bad)
            ok = False
        except NotASolution:
            pass
    for n in range(-6, 7):
        ok &= winding_number(char_preset(8, n)) == n
    _report(10, ok, "square equation solves/rejects; winding numbers match", t0)


def test_criterion_11_projection_family():
    t0 = time.perf_counter()
    ok = True
    projections = [proj_Pn(n) for n in range(6)]
    for i, p in enumerate(projections):
        for q in projections[i + 1:]:
            ok &= (p * q).is_zero() and (q * p).is_zero()
    for n in range(6):
        qn = proj_Qn(n)
        span = 1 << (n + 3)
        fixed = sum(1 for i in range(span) if apply_basis(qn, i) == {i: rational(1)})
        ok &= fixed / span == 1 - 2.0 ** -(n + 1)
    _report(11, ok, "P_n pairwise orthogonal; Q_n residue coverage census", t0)


def test_criterion_12_membership_suite():
    t0 = time.perf_counter()
    ad_u = lambda x: U * x * Us
    ok = not membership(ad_u(S2), "O2")
    ok &= equals(ad_u(S2), S1 * Us)
    ok &= not membership(ad_u(S1 * S2s), "O2")
    ok &= not membership(U, "O2")
    ok &= membership(S1 * S2s, "F2")
    for k in range(4):
        for l in range(1 << k):
            p = Element([(Monomial(l, k, k, -l), rational(1))])
            ok &= membership(ad_u(p), "D2")
    _report(12, ok, "O2/F2/D2 membership under ad(U)", t0)


def test_criterion_13_cli_round_trip_and_fuzz(capsys):
    t0 = time.perf_counter()
    rng = make_rng(13)
    ok = True
    for _ in range(200):
        x = rand_element(rng)
        ok &= parse_element(print_element(x)).terms == x.terms
    fuzz = random.Random(1313)
    alphabet = "US12*^+-()/ zetai.,:0349"
    for _ in range(10_000):
        text = "".join(fuzz.choice(alphabet) for _ in range(fuzz.randint(0, 20)))
        try:
            parse_element(text)
        except ParseError:
            pass
        except (OverflowError, MemoryError):
            pass
    ok &= main(["eq", "S1", "U S2"]) == 0
    ok &= capsys.readouterr().out.strip() == "EQUAL"
    ok &= main(["expect", "CU", "S2^3 S2*^3"]) == 0
    ok &= capsys.readouterr().out.strip() == "1/8"
    ok &= main(["apply", "flipflop", "S1"]) == 0
    ok &= capsys.readouterr().out.strip() == "S2"
    with capsys.disabled():
        _report(13, ok, "parse/print identity, 10^4 fuzz inputs, exact CLI outputs", t0)
