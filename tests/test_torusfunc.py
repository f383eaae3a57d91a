import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import q2algebra
from q2algebra.algebra import (GEN_S2, GEN_S2_STAR, GEN_U, GEN_U_STAR, ZERO, BudgetExceeded, Element,
                               Monomial, _is_unitary, equals, monomial, normalize_depth)
from q2algebra.expectations import E_CU
from q2algebra.scalars import IMAG, ONE as SC_ONE, cyclo, rational
from q2algebra.torusfunc import (
    MAX_PRESET_LEVEL,
    DyadicGridFunction,
    NotASolution,
    NotNormalized,
    NotUnimodular,
    Undersampled,
    bump_preset,
    cascade_solve,
    char_preset,
    flipflop_commute_obstruction,
    gauge_equiv_obstruction,
    oscillation_report,
    preset,
    solve_square_equation,
    step_preset,
    winding_number,
)

from conftest import rand_element, rand_scalar, rand_unimodular

U, Us = GEN_U, GEN_U_STAR
S2, S2s = GEN_S2, GEN_S2_STAR


def _char(n, w=SC_ONE):
    """w U^n, the circle function w z^n as an element of C*(U)."""
    return monomial(0, 0, 0, n, w)


ONE_PLUS_U = _char(0) + U  # 1 + z leaves the circle


def test_solve_square_equation():
    for n in range(-8, 9):
        assert solve_square_equation(_char(n)) == n
    with pytest.raises(NotASolution):
        solve_square_equation(_char(1, rational(-1)))  # f = -z
    with pytest.raises(NotASolution):
        solve_square_equation(_char(1, cyclo(3, 1)))  # f = w z, w != 1
    with pytest.raises(NotASolution, match=r"^f\(z\^2\) != f\(z\)\^2$"):
        solve_square_equation(_char(1, IMAG))
    with pytest.raises(NotUnimodular):
        solve_square_equation(ONE_PLUS_U)
    with pytest.raises(NotUnimodular):
        solve_square_equation(_char(2, rational(1, 2)))


def test_power_equation_reads_any_term_map_of_f_of_U():
    # U^3 written as S2 S2* U^3 + U S2 S2* U* U^3: no stored term is a root
    f = S2 * S2s * U**3 + U * S2 * S2s * Us * U**3
    assert all(m.a for m in f.terms)
    assert solve_square_equation(f) == 3
    # outside C*(U) fails like a function of U that is not T-valued
    for outside in (U + S2, S2, S2 * S2s):
        with pytest.raises(NotUnimodular, match=r"^f is not a T-valued function of U$"):
            solve_square_equation(outside)


def test_check_power_equation():
    # the root k read off at n = 2 solves f(z^n) = f(z)^n at the larger n too
    for k, n in ((-2, 5), (0, 4)):
        f = _char(k)
        assert solve_square_equation(f) == k
        assert equals(_char(n * k), f**n)
    # a T-valued w z^k with w != 1 fails already at n = 2
    with pytest.raises(NotASolution, match=r"^f\(z\^2\) != f\(z\)\^2$"):
        solve_square_equation(_char(1, IMAG))


def test_power_equation_is_decided_at_n_2(monkeypatch):
    # f(z^n) = f(z)^n for w z^k holds iff w^(n-1) = 1, so w = 1 decides every n,
    # read off the one term of f without multiplying
    calls = []
    power = Element.__pow__
    monkeypatch.setattr(Element, "__pow__", lambda f, n: calls.append(n) or power(f, n))
    assert solve_square_equation(_char(3)) == 3
    with pytest.raises(NotASolution, match=r"^f\(z\^2\) != f\(z\)\^2$"):
        solve_square_equation(_char(1, IMAG))
    assert calls == []


def _power_equation_reference(f):
    """The definitional check: f in C*(U) unitary, then f(z^2) == f(z)^2 by
    Element arithmetic; returns k with f = z^k."""
    cu = E_CU(f)
    if not equals(cu, f) or not _is_unitary(cu):
        raise NotUnimodular("f is not a T-valued function of U")
    f_of_square = Element((Monomial(0, 0, 0, 2 * m.c), w) for m, w in cu.terms.items())
    if not equals(f_of_square, cu**2):
        raise NotASolution("f(z^2) != f(z)^2")
    ((root, _),) = cu.terms.items()
    return root.c


def _outcome(solve, f):
    try:
        return solve(f)
    except (NotUnimodular, NotASolution) as exc:
        return type(exc), str(exc)


def test_power_equation_matches_definition(rng):
    roots = [_char(k, rand_unimodular(rng)) for k in range(-6, 7) for _ in range(3)]
    roots += [_char(k) for k in range(-6, 7)]
    # the same functions of U through term maps with no root term
    refined = [normalize_depth(f, rng.randint(1, 3)) for f in roots[::4]]
    not_t_valued = [ONE_PLUS_U, _char(2, rational(1, 2)), U - Us, ZERO,
                    _char(1) + _char(1, rational(1, 1 << 40))]
    not_t_valued += [Element((Monomial(0, 0, 0, c), rand_scalar(rng)) for c in (-1, 2))
                     for _ in range(10)]
    outside = [rand_element(rng) for _ in range(30)] + [U + S2, S2 * S2s, U * S2s]
    cases = roots + refined + not_t_valued + outside
    outcomes = [_outcome(solve_square_equation, f) for f in cases]
    assert outcomes == [_outcome(_power_equation_reference, f) for f in cases]
    assert {type(o) for o in outcomes} == {int, tuple}  # both verdicts occur
    assert any(o == (NotASolution, "f(z^2) != f(z)^2") for o in outcomes)


def test_winding_number():
    assert winding_number(char_preset(5, 4)) == 4
    assert winding_number(char_preset(4, 0)) == 0
    assert winding_number(char_preset(6, -3)) == -3
    with pytest.raises(Undersampled):
        winding_number(char_preset(3, 4))  # phase step is exactly pi
    with pytest.raises(Undersampled):
        winding_number(char_preset(2, 1))


def test_winding_number_additive(rng):
    for _ in range(10):
        n1, n2 = rng.randint(-4, 4), rng.randint(-4, 4)
        f = DyadicGridFunction(8, char_preset(8, n1).values * char_preset(8, n2).values)
        assert winding_number(f) == n1 + n2
        assert winding_number(char_preset(8, n1)) + winding_number(char_preset(8, n2)) == n1 + n2


def test_solve_square_agrees_with_winding(rng):
    for n in range(-6, 7):
        assert solve_square_equation(_char(n)) == winding_number(char_preset(8, n))


def test_cascade_trivial_and_character():
    level = 8
    size = 1 << level
    ones = DyadicGridFunction(level, np.ones(size, dtype=complex))
    h = cascade_solve(ones)
    assert np.allclose(h.values, 1.0)

    # Psi(z) = z: the cascade reproduces the character h(z) = z
    psi = char_preset(level, 1)
    h = cascade_solve(psi)
    expected = np.exp(2j * math.pi * np.arange(size) / size)
    assert np.abs(h.values - expected).max() < 1e-9
    # closed form at a primitive root: h(zeta_{2^n}) = 1 / prod zeta^(2^k)
    n = 5
    zeta = np.exp(2j * math.pi / (1 << n))
    prod = np.prod([zeta ** (1 << k) for k in range(n)])
    assert abs(h.values[1 << (level - n)] - 1 / prod) < 1e-12
    assert abs(1 / prod - zeta ** (-((1 << n) - 1))) < 1e-12


def test_cascade_functional_equation_residual(rng):
    for f in (step_preset(10), bump_preset(10), char_preset(10, 3)):
        psi = DyadicGridFunction(10, f.values * np.conj(f.values[0]))
        h = cascade_solve(psi)
        size = 1 << 10
        idx = np.arange(size)
        residual = np.abs(h.values[(2 * idx) % size] - h.values * psi.values).max()
        assert residual < 1e-9
        assert h.max_modulus_defect() < 1e-12
        assert h.values[0] == 1.0


def test_cascade_requires_normalization():
    level = 6
    values = np.exp(1j * 0.3) * np.ones(1 << level, dtype=complex)
    with pytest.raises(NotNormalized):
        cascade_solve(DyadicGridFunction(level, values))
    with pytest.raises(NotUnimodular):
        cascade_solve(DyadicGridFunction(level, 2.0 * np.ones(1 << level, dtype=complex)))


def test_step_cascade_hits_paper_values():
    level = 12
    step = step_preset(level)
    h = cascade_solve(step)  # Psi = f since f(1) = 1
    for n in range(0, 12):
        assert h.values[1 << (level - 1 - n)] == 1.0  # h(e^(i pi / 2^n)) = 1
    for n in range(0, 10):
        idx = 5 * (1 << (level - 3 - n))
        assert abs(h.values[idx] - (-1.0)) < 1e-12  # h(e^(5 i pi / 2^(n+2))) = -1


def test_step_oscillation_is_two():
    rep = gauge_equiv_obstruction(step_preset(12))
    assert abs(rep.at_one - 2.0) < 1e-6
    assert rep.obstructed
    assert rep.max_oscillation <= 2.0 + 1e-12


def test_bump_flipflop_oscillation_is_two():
    rep = flipflop_commute_obstruction(bump_preset(12))
    assert abs(rep.at_one - 2.0) < 1e-6
    assert rep.obstructed


def test_bump_family_values():
    # the solved h is exactly -i along e^(9 pi i / 2^(n+3)) and +i along the
    # conjugate family e^(7 pi i / 2^(n+3)); their gap realizes oscillation 2
    level = 12
    bump = bump_preset(level)
    psi = DyadicGridFunction(level, bump.values * bump.conj_reflected().values)
    h = cascade_solve(psi)
    for n in range(0, 6):
        assert abs(h.values[9 * (1 << (level - 4 - n))] - (-1j)) < 1e-12
        assert abs(h.values[7 * (1 << (level - 4 - n))] - 1j) < 1e-12
        assert h.values[1 << (level - 1 - n)] == 1.0


def test_characters_have_no_obstruction():
    for level in range(5, 11):
        for n in (-2, 1, 3):
            rep = gauge_equiv_obstruction(char_preset(level, n))
            assert rep.max_oscillation < 1e-6
            rep = flipflop_commute_obstruction(char_preset(level, n))
            assert rep.max_oscillation < 1e-6
    rep = gauge_equiv_obstruction(char_preset(8, 0, cyclo(3, 1)))
    assert rep.max_oscillation < 1e-6


def test_constant_function_oscillation_zero():
    rep = flipflop_commute_obstruction(char_preset(8, 0))
    assert rep.max_oscillation == 0.0
    assert not rep.obstructed


def _dense_osc(h):
    """Reference oscillation: every row pair over the whole grid, masked by
    stability (the all-pairs form oscillation_report must equal bit for bit)."""
    max_odd = min(63, (1 << (h.level - 3)) - 1)
    seqs = [j * sign for j in range(1, max_odd + 1, 2) for sign in (1, -1)]
    vals = np.empty((len(seqs), h.size), dtype=complex)
    stable = np.empty((len(seqs), h.size), dtype=bool)
    for row, j in enumerate(seqs):
        v0, v1, v2 = (np.roll(h.values, -j * s) for s in (1, 2, 4))
        stable[row] = (np.abs(v0 - v1) <= 1e-7) & (np.abs(v1 - v2) <= 1e-7)
        vals[row] = v0
    osc = np.zeros(h.size)
    for row in range(len(seqs) - 1):
        diff = np.abs(vals[row + 1:] - vals[row][None, :])
        diff *= stable[row + 1:] & stable[row][None, :]
        np.maximum(osc, diff.max(axis=0), out=osc)
    return osc


def _report_grids(level, rng):
    size = 1 << level
    theta = 2 * math.pi * np.arange(size) / size
    yield step_preset(level)
    yield bump_preset(level)
    yield char_preset(level, 3)
    yield char_preset(level, 0)  # constant: every sample stable and equal
    # piecewise constant on seeded arcs: many ties between stable values
    cuts = np.sort(rng.integers(0, size, 6))
    yield DyadicGridFunction(level, 1j ** np.searchsorted(cuts, np.arange(size)))
    # random phases: no approach sequence is stable
    yield DyadicGridFunction(level, np.exp(2j * math.pi * rng.random(size)))
    # f(conj z) = f(z): the flip-flop Psi is 1 up to rounding, so every
    # sample is stable and the stable values differ in the last bits
    phase = sum(a * np.cos((k + 1) * theta) for k, a in enumerate(rng.uniform(-0.5, 0.5, 3)))
    yield DyadicGridFunction(level, np.exp(1j * phase))


def test_oscillation_report_is_bit_identical_to_all_pairs():
    rng = np.random.default_rng(23)
    for level in range(5, 14):  # max_odd < 63 below level 9; several blocks from level 12
        for f in _report_grids(level, rng):
            for check, factor in ((gauge_equiv_obstruction, f.values[0].conjugate()),
                                  (flipflop_commute_obstruction, f.conj_reflected().values)):
                h = cascade_solve(DyadicGridFunction(level, f.values * factor))
                osc = check(f).osc
                assert np.array_equal(osc, _dense_osc(h)), (level, check.__name__)
                assert np.array_equal(osc, oscillation_report(h).osc)


def test_reports_stay_small_in_memory():
    # a level-16 report and a depth-9 continuity probe in a fresh process;
    # the all-pairs forms grew its peak to about 229 MB.  The child reads its
    # own VmHWM: Linux carries the spawning process's peak into a child's
    # ru_maxrss, and this test process may be large
    code = (
        "from q2algebra.dyadic import two_adic_continuity\n"
        "from q2algebra.torusfunc import gauge_equiv_obstruction, step_preset\n"
        "assert gauge_equiv_obstruction(step_preset(16)).obstructed\n"
        "two_adic_continuity(lambda k: [0.0, 1.0, 2.0][k % 3], 9)\n"
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
    )
    src = str(Path(q2algebra.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert int(out) < 120 * 1024  # KB


def test_presets_by_name():
    assert preset("step:pi/4", 8).values.shape == (256,)
    assert preset("bump:i@9pi/8", 8).values.shape == (256,)
    assert np.allclose(preset("char:3", 6).values, char_preset(6, 3).values)
    with pytest.raises(ValueError):
        preset("wiggle", 8)


def test_preset_level_is_bounded_before_allocating(monkeypatch):
    assert MAX_PRESET_LEVEL == 18
    at_bound = preset("step:pi/4", MAX_PRESET_LEVEL)
    assert np.array_equal(at_bound.values, step_preset(MAX_PRESET_LEVEL).values)
    for name in ("step:pi/4", "bump", "char:1"):
        with pytest.raises(BudgetExceeded, match="grid level 19 is over the bound of 18"):
            preset(name, MAX_PRESET_LEVEL + 1)

    def no_grid(*args):
        raise AssertionError("a level over the bound must not be sampled")

    # level 62 would need 2^62 samples: the bound is checked before any of them
    monkeypatch.setattr(np, "arange", no_grid)
    with pytest.raises(BudgetExceeded):
        preset("step:pi/4", 62)


def test_grid_json_round_trip():
    f = bump_preset(6)
    g = DyadicGridFunction.from_json(f.to_json())
    assert g.level == 6
    assert np.allclose(g.values, f.values)


def test_laurent_unimodular_check():
    assert _is_unitary(_char(5, cyclo(4, 3)))
    assert not _is_unitary(ONE_PLUS_U)
    mixed = Element({Monomial(0, 0, 0, 0): rational(3, 5), Monomial(0, 0, 0, 1): 0})
    assert _is_unitary(mixed * _char(0, rational(5, 3)))


def test_laurent_negative_power_raises():
    with pytest.raises(ValueError):
        (U + U**2) ** -1


def test_char_preset_samples_w_z_n():
    theta = 2.0 * math.pi * np.arange(64) / 64
    for n, w in ((3, SC_ONE), (-2, IMAG), (0, cyclo(3, 1))):
        expected = w.to_complex() * np.exp(1j * n * theta)
        assert np.abs(char_preset(6, n, w).values - expected).max() < 1e-12


def test_grid_rejects_non_finite_samples():
    values = char_preset(8, 1).values.copy()
    values[37] = np.nan
    values[90] = np.inf
    with pytest.raises(ValueError, match=r"^sample 37 is not finite"):
        DyadicGridFunction(8, values)
    # json writes and reads NaN, so a grid file can hold one
    text = json.dumps({"level": 8, "values": [[v.real, v.imag] for v in values]})
    with pytest.raises(ValueError, match=r"^sample 37 is not finite"):
        DyadicGridFunction.from_json(text)
