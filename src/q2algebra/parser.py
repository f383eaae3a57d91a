"""Expression grammar for elements of the algebra, shared with the CLI.

    element := '-'? term (('+'|'-') term)*
    term    := atom+                      (juxtaposition is multiplication)
    atom    := factor | scalar
    factor  := ('U'|'S1'|'S2') '*'? ('^' int)?  |  '(' element ')' ('^' int)?
    scalar  := number ('/' number)? | 'i' | 'zeta' '(' order ')' ('^' int)?
    order   := number ('^' number)?       (an explicit power of two)

Whitespace between tokens is ignored; '^' binds tighter than juxtaposition;
'*' is the adjoint, never multiplication.  A negative exponent is accepted on
U and U* (where adjoint and inverse coincide) and on scalars, nowhere else.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, Monomial, from_generator, scalar as scalar_element
from .scalars import DyadicCyclotomic, _frac_str, _signed_sum, cyclo

__all__ = ["ParseError", "parse_element", "print_element"]


class ParseError(ValueError):
    """Syntax error with a 1-based character position and the expected tokens."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position + 1
        self.expected = expected
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(f"parse error at position {self.position}: expected {expected}{what}")


_PUNCT = set("*^+-()/")
_DIGITS = set("0123456789")  # str.isdigit also accepts "²" and "٣"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, position); kinds: NUM, NAME, or the symbol itself."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            out.append(("NUM", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            out.append(("NAME", text[start:pos], start))
            continue
        if ch in _PUNCT:
            out.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(pos, "a token", ch)
    out.append(("END", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.toks[self.idx]

    def next(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(tok[2], what, tok[1] or "end of input")
        return tok

    # element := '-'? term (('+'|'-') term)*
    def element(self) -> Element:
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            nxt = self.term()
            out = out + (-nxt if op == "-" else nxt)
        return out

    # term := atom+
    def term(self) -> Element:
        out = None
        while True:
            kind, text, pos = self.peek()
            if kind == "NUM" or (kind == "NAME" and text in ("i", "zeta")):
                factor = scalar_element(self.scalar())
            elif kind == "NAME" and text in ("U", "S1", "S2"):
                factor = self.generator_factor()
            elif kind == "(":
                factor = self.paren_factor()
            else:
                break
            out = factor if out is None else out * factor
        if out is None:
            kind, text, pos = self.peek()
            raise ParseError(pos, "a term", text or "end of input")
        return out

    def exponent(self) -> int:
        self.next()  # the '^'
        sign = 1
        if self.peek()[0] in ("-", "+"):
            sign = -1 if self.next()[0] == "-" else 1
        tok = self.expect("NUM", "an integer exponent")
        return sign * int(tok[1])

    def generator_factor(self) -> Element:
        kind, name, pos = self.next()
        starred = False
        if self.peek()[0] == "*":
            self.next()
            starred = True
        base = from_generator(name + ("*" if starred else ""))
        if self.peek()[0] != "^":
            return base
        exp_pos = self.peek()[2]
        exp = self.exponent()
        if exp >= 0:
            return base**exp
        if name != "U":
            raise ParseError(exp_pos, "a non-negative exponent (only U is invertible)")
        return base.adjoint() ** (-exp)

    def paren_factor(self) -> Element:
        self.next()  # '('
        inner = self.element()
        self.expect(")", "')'")
        if self.peek()[0] != "^":
            return inner
        exp_pos = self.peek()[2]
        exp = self.exponent()
        if exp < 0:
            raise ParseError(exp_pos, "a non-negative exponent on a parenthesized element")
        return inner**exp

    def scalar(self) -> DyadicCyclotomic:
        kind, text, pos = self.next()
        if kind == "NUM":
            num = int(text)
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("NUM", "a denominator")
                if int(den[1]) == 0:
                    raise ParseError(den[2], "a nonzero denominator")
                return DyadicCyclotomic.from_rational(Fraction(num, int(den[1])))
            return DyadicCyclotomic.from_rational(num)
        if text == "i":
            return cyclo(2, 1)
        if text == "zeta":
            self.expect("(", "'('")
            base = self.expect("NUM", "a root order")
            order = int(base[1])
            if self.peek()[0] == "^":
                exp = self.exponent()
                if exp < 0:
                    raise ParseError(base[2], "a non-negative order")
                order = order**exp
            self.expect(")", "')'")
            if order < 1 or order & (order - 1):
                raise ParseError(base[2], "a power-of-two root order")
            level = order.bit_length() - 1
            exponent = 1
            if self.peek()[0] == "^":
                exponent = self.exponent()
            return cyclo(level, exponent)
        raise ParseError(pos, "a scalar", text)


def parse_element(text: str) -> Element:
    parser = _Parser(text)
    out = parser.element()
    kind, found, pos = parser.peek()
    if kind != "END":
        raise ParseError(pos, "'+', '-' or end of input", found)
    return out


# -- canonical printing -------------------------------------------------------------


def _upower(exp: int) -> str:
    if exp == 1:
        return "U"
    if exp == -1:
        return "U*"
    if exp < 0:
        return f"U*^{-exp}"
    return f"U^{exp}"


def _mono_text(m: Monomial) -> str:
    parts = []
    if m.l:
        parts.append(_upower(m.l))
    if m.a:
        parts.append("S2" if m.a == 1 else f"S2^{m.a}")
    if m.b:
        parts.append("S2*" if m.b == 1 else f"S2*^{m.b}")
    if m.c:
        parts.append(_upower(m.c))
    return " ".join(parts)


def _coef_text(c: DyadicCyclotomic, standalone: bool) -> tuple[bool, str]:
    """(is_negative, text); text is "" for a suppressed unit coefficient."""
    if c.is_rational():
        q = c.as_rational()
        neg = q < 0
        q = abs(q)
        if q == 1 and not standalone:
            return neg, ""
        return neg, _frac_str(q)
    if len(c._terms) == 1:
        [q] = c._terms.values()
        return q < 0, str(-c if q < 0 else c)
    return False, f"({c})"


def print_element(x: Element) -> str:
    """Deterministic text form in the canonical (b, a, l, c) term order."""
    terms = x.sorted_terms()
    if not terms:
        return "0"
    chunks = []
    for mono, coef in terms:
        body = _mono_text(mono)
        neg, ctext = _coef_text(coef, standalone=not body)
        text = f"{ctext} {body}".strip() if ctext else body
        chunks.append((neg, text))
    return _signed_sum(chunks)
