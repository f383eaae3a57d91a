"""The canonical representation on l2(Z): S2 e_k = e_2k, U e_k = e_(k+1).

Every canonical monomial acts as a partial affine dyadic map on the basis
indices, which gives an exact basis-action oracle.  The same representation
truncated to a finite index window gives a floating-point laboratory, which
also hosts the reflection operators P (e_k -> e_-k) and V (e_k -> e_-k-1)
and the diagonal unitaries U_z for arbitrary phases; none of those live in
the exact algebra.  numpy and scipy are imported by the window code that
uses them, so the exact index maps load neither.
"""

from __future__ import annotations

import json

from .algebra import BudgetExceeded, Element, Monomial
from .scalars import DyadicCyclotomic, _sum_terms

__all__ = [
    "apply_basis",
    "WindowMatrix",
    "window_matrix",
    "conjugate_by_V",
    "displacement_bound",
]


MAX_WINDOW = 1 << 20


def _check_window(lo: int, hi: int, what: str = "window") -> None:
    """Refuse a window of more than MAX_WINDOW indices before it is built."""
    if hi - lo + 1 > MAX_WINDOW:
        raise BudgetExceeded(f"{what} of {hi - lo + 1} indices is over the bound of {MAX_WINDOW}")


def _image(m: Monomial, i: int) -> int | None:
    """j with m e_i = e_j: U^l S2^a (S2*)^b U^c sends i to 2^a (i + c) / 2^b + l
    on the class i = -c (mod 2^b), and e_i to 0 (None) off it."""
    if (i + m.c) % (1 << m.b):
        return None
    return (((i + m.c) >> m.b) << m.a) + m.l


def apply_basis(x: Element, i: int) -> dict[int, DyadicCyclotomic]:
    """The vector x e_i as an exact index -> coefficient map."""
    return _sum_terms(
        (j, coef) for mono, coef in x._terms.items() if (j := _image(mono, i)) is not None
    )


def fixed_points(m: Monomial, lo: int, hi: int) -> list[int]:
    """Indices i in [lo, hi] with (m e_i, e_i) nonzero.

    For a = b, c = -l the whole residue class is fixed; for a = b, c != -l
    nothing is; otherwise the affine map has at most one integer fixed point.
    """
    if m.a == m.b:
        if m.c != -m.l:
            return []
        mod = 1 << m.b
        first = lo + ((-m.c - lo) % mod)
        return list(range(first, hi + 1, mod))
    num = -((m.c << m.a) + (m.l << m.b))
    den = (1 << m.a) - (1 << m.b)
    if num % den:
        return []
    i = num // den
    return [i] if lo <= i <= hi and _image(m, i) is not None else []


def displacement_bound(x: Element, lo: int, hi: int) -> int:
    """Max |j - i| over basis actions of x inside the window (0 for zero)."""
    bound = 0
    for m in x._terms:
        for i in (lo, hi):
            # affine in i, so extremes occur at the window endpoints; j - i is
            # ((i + c) 2^a + (l - i) 2^b) / 2^b, floored exactly in integers
            num = ((i + m.c) << m.a) + ((m.l - i) << m.b)
            bound = max(bound, (abs(num) >> m.b) + 1)
    return bound


class WindowMatrix:
    """Sparse finite block (e_j, x e_i) for lo <= i, j <= hi."""

    __slots__ = ("lo", "hi", "rows", "cols", "vals")

    def __init__(self, lo: int, hi: int, rows, cols, vals):
        if lo > hi:
            raise ValueError("window requires lo <= hi")
        import numpy as np

        self.lo = lo
        self.hi = hi
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.complex128)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def to_csr(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse  # on demand: window conversion is the only scipy use

        n = self.size
        return scipy.sparse.coo_matrix(
            (self.vals, (self.rows - self.lo, self.cols - self.lo)), shape=(n, n)
        ).tocsr()

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def entry(self, row: int, col: int) -> complex:
        mask = (self.rows == row) & (self.cols == col)
        return complex(self.vals[mask].sum())

    def max_abs_diff(self, other: "WindowMatrix", margin: int = 0) -> float:
        """Max entrywise |self - other| over the interior window shrunk by margin."""
        if (self.lo, self.hi) != (other.lo, other.hi):
            raise ValueError("windows differ")
        diff = (self.to_csr() - other.to_csr()).tocoo()
        if diff.nnz == 0:
            return 0.0
        import numpy as np

        if margin:
            keep = (
                (diff.row >= margin)
                & (diff.row < self.size - margin)
                & (diff.col >= margin)
                & (diff.col < self.size - margin)
            )
            if not keep.any():
                return 0.0
            return float(np.abs(diff.data[keep]).max())
        return float(np.abs(diff.data).max())

    def matmul(self, other: "WindowMatrix") -> "WindowMatrix":
        if (self.lo, self.hi) != (other.lo, other.hi):
            raise ValueError("windows differ")
        prod = (self.to_csr() @ other.to_csr()).tocoo()
        return WindowMatrix(self.lo, self.hi, prod.row + self.lo, prod.col + self.lo, prod.data)

    def to_csv(self) -> str:
        import numpy as np

        order = np.lexsort((self.cols, self.rows))
        lines = ["row,col,re,im"]
        for k in order:
            v = self.vals[k]
            lines.append(f"{self.rows[k]},{self.cols[k]},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import numpy as np

        order = np.lexsort((self.cols, self.rows))
        entries = [
            [int(self.rows[k]), int(self.cols[k]), float(self.vals[k].real), float(self.vals[k].imag)]
            for k in order
        ]
        return json.dumps({"lo": self.lo, "hi": self.hi, "entries": entries})


def _element_window(x: Element, lo: int, hi: int) -> WindowMatrix:
    import numpy as np

    rows_all = []
    cols_all = []
    vals_all = []
    for m, coef in x._terms.items():
        mod = 1 << m.b
        first = lo + ((-m.c - lo) % mod)
        cols = np.arange(first, hi + 1, mod, dtype=np.int64)
        if cols.size == 0:
            continue
        # int64 fill is safe only while the affine images stay well under 2^62
        extreme = max(abs(((bound + m.c) >> m.b) << m.a) + abs(m.l) for bound in (lo, hi))
        if extreme >= 1 << 62:
            raise OverflowError("window indices exceed the int64 fill range")
        rows = (((cols + m.c) >> m.b) << m.a) + m.l
        keep = (rows >= lo) & (rows <= hi)
        if not keep.any():
            continue
        rows_all.append(rows[keep])
        cols_all.append(cols[keep])
        vals_all.append(np.full(int(keep.sum()), coef.to_complex(), dtype=np.complex128))
    if not rows_all:
        return WindowMatrix(lo, hi, [], [], [])
    return WindowMatrix(
        lo, hi, np.concatenate(rows_all), np.concatenate(cols_all), np.concatenate(vals_all)
    )


def window_matrix(op, lo: int, hi: int, phi: float | None = None) -> WindowMatrix:
    """Window of an Element, or of the named operators "P", "V", "Uz".

    P and V are the reflections e_k -> e_-k and e_k -> e_-k-1; "Uz" is the
    diagonal unitary e_k -> e^(i phi k) e_k for an arbitrary float phase phi.
    They exist only at window level: none of them belongs to the exact span.

    The window holds at most MAX_WINDOW = 2^20 indices, checked before any
    array is filled (BudgetExceeded).
    """
    _check_window(lo, hi)
    if isinstance(op, Element):
        return _element_window(op, lo, hi)
    import numpy as np

    cols = np.arange(lo, hi + 1, dtype=np.int64)
    if op == "P":
        rows = -cols
    elif op == "V":
        rows = -cols - 1
    elif op == "Uz":
        if phi is None:
            raise ValueError("named operator Uz needs a phase phi")
        vals = np.exp(1j * phi * cols)
        return WindowMatrix(lo, hi, cols, cols, vals)
    else:
        raise ValueError(f"unknown named operator {op!r}")
    keep = (rows >= lo) & (rows <= hi)
    return WindowMatrix(lo, hi, rows[keep], cols[keep], np.ones(int(keep.sum()), dtype=np.complex128))


def conjugate_by_V(x: Element, lo: int, hi: int) -> WindowMatrix:
    """The window of V x V* computed exactly through index reflection.

    V e_k = e_-k-1 is a self-adjoint unitary, so (V x V*)[p, q] = x[-p-1, -q-1];
    the reflected block of x is filled exactly, no truncation artifacts enter.
    At most MAX_WINDOW indices, as for window_matrix.
    """
    _check_window(lo, hi)
    inner = _element_window(x, -hi - 1, -lo - 1)
    return WindowMatrix(lo, hi, -inner.rows - 1, -inner.cols - 1, inner.vals)
