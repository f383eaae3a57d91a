import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import q2algebra
from q2algebra import canonical
from q2algebra.algebra import (
    BudgetExceeded,
    Element,
    GEN_S1,
    GEN_S2,
    GEN_S2_STAR,
    GEN_U,
    Monomial,
    ONE,
    equals,
)
from q2algebra.canonical import (
    MAX_WINDOW,
    _image,
    apply_basis,
    conjugate_by_V,
    displacement_bound,
    window_matrix,
)
from q2algebra.dyadic import build_Uz
from q2algebra.scalars import rational

from conftest import rand_element, rand_monomial, window_verdict

U, S1, S2, S2s = GEN_U, GEN_S1, GEN_S2, GEN_S2_STAR


def test_image_examples():
    s2 = Monomial(0, 1, 0, 0)
    u = Monomial(0, 0, 0, 1)
    s1_s2s = Monomial(1, 1, 1, 0)  # S1 S2*: evens, i -> i+1
    for i in range(-10, 10):
        assert _image(s2, i) == 2 * i
        assert _image(u, i) == i + 1
        assert _image(s1_s2s, i) == (i + 1 if i % 2 == 0 else None)


def test_apply_basis_examples():
    assert apply_basis(S2, 3) == {6: rational(1)}
    assert apply_basis(S2s, 3) == {}
    for i in range(-5, 5):
        assert apply_basis(ONE, i) == {i: rational(1)}


def test_apply_basis_respects_image(rng):
    # the exact basis action, the index map and the float window fill agree
    lo, hi = -300, 300
    for _ in range(40):
        m = rand_monomial(rng)
        x = Element([(m, 1)])
        dense = window_matrix(x, lo, hi).to_dense()
        for _ in range(100):
            i = rng.randint(lo, hi)
            vec = apply_basis(x, i)
            j = _image(m, i)
            assert vec == ({j: rational(1)} if j is not None else {})
            column = np.zeros(hi - lo + 1, dtype=np.complex128)
            for k, coef in vec.items():
                if lo <= k <= hi:
                    column[k - lo] = coef.to_complex()
            assert np.array_equal(dense[:, i - lo], column)


def test_window_matrix_named_operators():
    w = window_matrix(U, -2, 2)
    dense = w.to_dense()
    assert np.allclose(dense, np.eye(5, k=-1))  # subdiagonal of ones

    p = window_matrix("P", -2, 2)
    assert np.allclose(p.to_dense(), np.fliplr(np.eye(5)))
    assert p.entry(0, 0) == 1

    v = window_matrix("V", -3, 2)
    assert v.entry(-1, 0) == 1 and v.entry(0, -1) == 1

    phi = 0.7
    uz = window_matrix("Uz", -4, 4, phi=phi)
    ks = np.arange(-4, 5)
    assert np.allclose(uz.to_dense().diagonal(), np.exp(1j * phi * ks))

    with pytest.raises(ValueError):
        window_matrix("Q", 0, 1)
    with pytest.raises(ValueError):
        window_matrix("Uz", 0, 1)


def test_conjugate_by_V():
    assert conjugate_by_V(S1, -8, 8).max_abs_diff(window_matrix(S2, -8, 8)) == 0.0
    assert conjugate_by_V(S2, -8, 8).max_abs_diff(window_matrix(S1, -8, 8)) == 0.0
    assert conjugate_by_V(ONE, -8, 8).max_abs_diff(window_matrix(ONE, -8, 8)) == 0.0


def test_window_products_agree_on_interior(rng):
    lo, hi = -128, 128
    for _ in range(20):
        x = rand_element(rng, nterms=3)
        y = rand_element(rng, nterms=3)
        margin = displacement_bound(x, lo, hi) + displacement_bound(y, lo, hi)
        direct = window_matrix(x * y, lo, hi)
        prod = window_matrix(x, lo, hi).matmul(window_matrix(y, lo, hi))
        assert prod.max_abs_diff(direct, margin=margin) < 1e-9


def test_window_width_is_bounded_before_anything_is_built(monkeypatch):
    assert MAX_WINDOW == 1 << 20
    lo = -(MAX_WINDOW // 2)
    hi = lo + MAX_WINDOW - 1
    for op in (build_Uz(3), "P", "V", "Uz"):
        assert window_matrix(op, lo, hi, phi=0.5).size == MAX_WINDOW
    assert conjugate_by_V(S2, lo, hi).size == MAX_WINDOW
    over = "window of 1048577 indices is over the bound of 1048576"
    for op in (build_Uz(3), "P", "V", "Uz"):
        with pytest.raises(BudgetExceeded, match=over):
            window_matrix(op, lo, hi + 1, phi=0.5)
    with pytest.raises(BudgetExceeded, match=over):
        conjugate_by_V(S2, lo - 1, hi)

    def no_fill(*args):
        raise AssertionError("a window over the bound must not be filled")

    monkeypatch.setattr(canonical, "_element_window", no_fill)
    # 2 * 10^12 + 1 indices could not even be allocated: the bound comes first
    for op in (S2, "P", "V", "Uz"):
        with pytest.raises(BudgetExceeded, match="2000000000001 indices"):
            window_matrix(op, -10**12, 10**12, phi=0.5)
    with pytest.raises(BudgetExceeded, match="2000000000001 indices"):
        conjugate_by_V(S2, -10**12, 10**12)


def test_power_iteration_finds_e0_for_S2():
    lo, hi = -32, 32
    mat = window_matrix(S2, lo, hi).to_dense()
    rng = np.random.default_rng(5)
    v = rng.normal(size=hi - lo + 1)
    v /= np.linalg.norm(v)
    for _ in range(60):
        v = mat @ v
        norm = np.linalg.norm(v)
        assert norm > 0
        v /= norm
    e0 = np.zeros(hi - lo + 1)
    e0[-lo] = 1.0
    overlap = abs(np.dot(v, e0))
    assert overlap > 1 - 1e-9
    assert np.linalg.norm(mat @ e0 - e0) == 0.0  # eigenvalue exactly 1


def test_equals_agrees_with_window_comparison(rng):
    lo, hi = -(1 << 10), 1 << 10
    for trial in range(60):
        x = rand_element(rng)
        if trial % 2 == 0:
            y = x * __import__("q2algebra.algebra", fromlist=["Element"]).Element(
                (Monomial(t, 2, 2, -t), 1) for t in range(4)
            )
        else:
            y = rand_element(rng)
        assert equals(x, y) == window_verdict(x, y, lo, hi)


def test_window_serialization():
    w = window_matrix(S2, -2, 2)
    csv = w.to_csv()
    assert csv.splitlines()[0] == "row,col,re,im"
    assert "np." not in csv
    import json

    data = json.loads(w.to_json())
    assert data["lo"] == -2 and data["hi"] == 2
    assert [0, 0, 1.0, 0.0] in data["entries"]


def test_displacement_bound_is_exact_beyond_float_precision():
    # U^-(2^55 + 3) moves e_0 to e_-(2^55 + 3); a float quotient loses the +3
    n = (1 << 55) + 3
    x = Element([(Monomial(0, 0, 0, -n), 1)])
    assert displacement_bound(x, 0, 0) == n + 1


def test_import_does_not_load_scipy():
    # scipy is imported on the first window conversion, not with the package
    code = "import sys, q2algebra; assert 'scipy' not in sys.modules, 'scipy loaded'"
    src = str(Path(q2algebra.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
