"""Independent reference model of Q2 on l2(Z), owned by the benchmark.

S2 e_k = e_2k and U e_k = e_(k+1), so the canonical monomial U^l S2^a S2*^b U^c
sends e_k to e_(2^a (k + c) / 2^b + l) when 2^b divides k + c, and to 0
otherwise.  Coefficients are complex numbers compared within TOL.  Nothing
here imports or calls the engine: results are read as plain data (term
tuples, scalar coordinates, printed text) and checked against this model.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction

TOL = 1e-9


def scalar_complex(level: int, coords) -> complex:
    """Value of sum_j coords[j] zeta_(2^level)^j; level 0 is a rational."""
    if level == 0:
        return complex(float(coords[0]))
    order = 1 << level
    return sum(float(c) * cmath.exp(2j * cmath.pi * j / order) for j, c in enumerate(coords) if c)


def root(order: int, exponent: int) -> complex:
    return cmath.exp(2j * cmath.pi * exponent / order)


def terms_of(element) -> list[tuple[int, int, int, int, complex]]:
    """Plain (l, a, b, c, coefficient) tuples read off an engine element."""
    return [(m[0], m[1], m[2], m[3], scalar_complex(s.level, s.coords))
            for m, s in element.terms.items()]


def act(terms, k: int) -> dict[int, complex]:
    """The vector x e_k for x given as term tuples."""
    out: dict[int, complex] = {}
    for l, a, b, c, coef in terms:
        m = k + c
        if m & ((1 << b) - 1):
            continue
        j = ((m >> b) << a) + l
        out[j] = out.get(j, 0) + coef
    return out


def vectors_close(u: dict, v: dict, tol: float = TOL) -> bool:
    return all(abs(u.get(j, 0) - v.get(j, 0)) <= tol for j in set(u) | set(v))


def same_action(x_terms, y_terms, ks) -> bool:
    return all(vectors_close(act(x_terms, k), act(y_terms, k)) for k in ks)


def class_probes(depth: int, rng) -> list[int]:
    """One basis index in every residue class mod 2^depth.  Every term of
    depth at most `depth` acts on a union of these classes, so comparing
    actions on them notices any missing or extra term."""
    return [r + (rng.randrange(-8, 8) << depth) for r in range(1 << depth)]


def refine(terms, B: int) -> dict[tuple[int, int, int, int], complex]:
    """The depth-B form of x: every term (l, a, b, c) split into its 2^(B-b)
    children (l + 2^a r, a + B - b, B, c - 2^b r) for 0 <= r < 2^(B-b)
    (the k with (k + c) / 2^b = r mod 2^(B-b)), summed, cancelled entries
    dropped.  The depth-B form is unique, so it is compared term for term."""
    out: dict[tuple[int, int, int, int], complex] = {}
    for l, a, b, c, coef in terms:
        d = B - b
        if d < 0:
            raise ValueError(f"term depth {b} > {B}")
        for r in range(1 << d):
            key = (l + (r << a), a + d, B, c - (r << b))
            out[key] = out.get(key, 0) + coef
    return {key: v for key, v in out.items() if abs(v) > TOL}


def maps_close(u: dict, v: dict) -> bool:
    """Two term maps with the same terms and coefficients within TOL."""
    return u.keys() == v.keys() and all(abs(u[key] - value) <= TOL for key, value in v.items())


def same_terms(got, want: dict) -> bool:
    """Term tuples `got` hold exactly the terms of the map `want`."""
    have = {(l, a, b, c): coef for l, a, b, c, coef in got}
    return len(have) == len(got) and maps_close(have, want)


def mergeable(terms) -> bool:
    """Whether two sibling terms with equal coefficients remain: the children
    (l, a, b, c) and (l + 2^(a-1), a, b, c - 2^(b-1)) of (l, a-1, b-1, c),
    which a complete coarsening merges into their parent."""
    have = {(l, a, b, c): coef for l, a, b, c, coef in terms}
    for (l, a, b, c), coef in have.items():
        if a < 1 or b < 1 or l >= 1 << (a - 1):
            continue
        sibling = have.get((l + (1 << (a - 1)), a, b, c - (1 << (b - 1))))
        if sibling is not None and abs(sibling - coef) <= TOL:
            return True
    return False


# -- generator images of the named endomorphisms -------------------------------


def act_beta(terms, w: complex, n: int, k: int) -> dict[int, complex]:
    """beta(w, n) x e_k, with U -> U and S2 -> w U^n S2 (gauge is n = 0)."""
    out: dict[int, complex] = {}
    wc = w.conjugate()
    for l, a, b, c, coef in terms:
        j = k + c
        for _ in range(b):  # S2* U^-n conj(w)
            j -= n
            if j & 1:
                break
            j >>= 1
            coef *= wc
        else:
            for _ in range(a):  # w U^n S2
                j = 2 * j + n
                coef *= w
            out[j + l] = out.get(j + l, 0) + coef
    return out


def act_chi(terms, odd: int, k: int) -> dict[int, complex]:
    """chi(odd) x e_k: U -> U^odd, S2 -> S2."""
    return act([(odd * l, a, b, odd * c, coef) for l, a, b, c, coef in terms], k)


def act_shift(terms, k: int) -> dict[int, complex]:
    """shift(x) = S1 x S1* + S2 x S2*: e_(2k'+e) -> sum x_j e_(2j+e)."""
    eps = k & 1
    return {2 * j + eps: v for j, v in act(terms, (k - eps) >> 1).items()}


# -- the CLI's printed forms -----------------------------------------------------

_SCALAR_PART = re.compile(r"^(?:(\d+)(?:/(\d+))?)?\s*(i|zeta\((\d+)\)(?:\^(\d+))?)?$")


def parse_scalar_text(text: str) -> complex:
    """A printed scalar: sums of [q] [i | zeta(N)^k] parts, optionally in parens."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    total = 0j
    for sign, part in _signed_parts(text):
        m = _SCALAR_PART.match(part)
        if not m or not part:
            raise ValueError(f"bad scalar {part!r}")
        num, den, unit, order, exp = m.groups()
        value = complex(Fraction(int(num or 1), int(den or 1)))
        if unit == "i":
            value *= 1j
        elif unit:
            value *= root(int(order), int(exp or 1))
        total += sign * value
    return total


def _signed_parts(text: str):
    """Split 'a + b - c' at top-level binary signs into (sign, part) pairs."""
    parts, depth, start, sign = [], 0, 0, 1
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith((" + ", " - "), i):
            parts.append((sign, text[start:i].strip()))
            sign = -1 if text[i + 1] == "-" else 1
            start = i + 3
            i += 3
            continue
        i += 1
    parts.append((sign, text[start:].strip()))
    return parts


_UPOW = re.compile(r"^U(\*)?(?:\^(\d+))?$")
_SPOW = re.compile(r"^S2(\*)?(?:\^(\d+))?$")


def parse_element_text(text: str) -> list[tuple[int, int, int, int, complex]]:
    """Term tuples of a printed canonical element (or printed scalar)."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for sign, part in _signed_parts(text):
        tokens = _term_tokens(part)
        l = a = b = c = 0
        coef_tokens, seen_s2, upow = [], False, None
        for tok in tokens:
            mu, ms = _UPOW.match(tok), _SPOW.match(tok)
            if ms:
                if upow is not None:
                    l, upow = upow, None
                seen_s2 = True
                if ms.group(1):
                    b = int(ms.group(2) or 1)
                else:
                    a = int(ms.group(2) or 1)
            elif mu:
                upow = (-1 if mu.group(1) else 1) * int(mu.group(2) or 1)
            elif not seen_s2 and upow is None:
                coef_tokens.append(tok)
            else:
                raise ValueError(f"bad term {part!r}")
        if upow is not None:
            c = upow
        coef = parse_scalar_text(" ".join(coef_tokens)) if coef_tokens else 1
        out.append((l, a, b, c, sign * coef))
    return out


def _term_tokens(part: str) -> list[str]:
    if part.startswith("("):
        close = part.index(")")
        return [part[: close + 1]] + part[close + 1:].split()
    return part.split()


def json_element_terms(data: dict) -> list[tuple[int, int, int, int, complex]]:
    out = []
    for t in data["terms"]:
        coords = [Fraction(int(p), int(q)) for p, q in t["coef"]["coords"]]
        out.append((t["l"], t["a"], t["b"], t["c"], scalar_complex(t["coef"]["level"], coords)))
    return out


class ActionIndex:
    """Terms grouped by (depth, residue class), so x e_k touches only the
    terms that act on e_k; for elements with many terms."""

    def __init__(self, terms):
        self.by_class: dict[tuple[int, int], list] = {}
        for t in terms:
            b = t[2]
            self.by_class.setdefault((b, (-t[3]) % (1 << b)), []).append(t)
        self.depths = sorted({b for b, _ in self.by_class})

    def act(self, k: int) -> dict[int, complex]:
        out: dict[int, complex] = {}
        for b in self.depths:
            for l, a, _, c, coef in self.by_class.get((b, k % (1 << b)), ()):
                j = (((k + c) >> b) << a) + l
                out[j] = out.get(j, 0) + coef
        return out
