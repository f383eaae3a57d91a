"""Command-line front end.

    q2 normalize EXPR [--depth B]       canonical fixed-depth form
    q2 eq X Y                           EQUAL / DIFFERENT (exit 0 / 1)
    q2 apply MORPH X                    named morphism applied to X
    q2 expect {gauge,CU,D2,diag} X      conditional expectations
    q2 eval X --basis I                 the vector X e_I
    q2 window OP --window LO:HI         CSV/JSON dump of a window matrix
    q2 classify-bogoljubov A B C D      extensibility of a 2x2 unitary
    q2 uz N [--window LO:HI]            the diagonal unitary at zeta_{2^N}
    q2 cascade PRESET --level N ...     functional-equation solver / obstructions
    q2 solve-feq EXPR [--power N]       k with f = z^k solving f(z^n) = f(z)^n for
                                        n = 2..N; N >= 2, and n = 2 decides every N
    q2 member {CU,D2,F2,O2,QT} X        span membership (exit 0 / 1)

Exit codes: 0 success/EQUAL, 1 DIFFERENT/obstructed/non-member, 2 parse
error, 3 engine error.  With --format=json, errors go to stderr as JSON.
Window bounds with a leading minus need the equals form (--window=-8:8), and
expressions starting with '-' go after a '--' separator, as usual.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import GEN_U, Element, Monomial, equals, membership, normalize_depth
from .canonical import apply_basis, window_matrix
from .expectations import E_CU, E_D2, E_diag_window, E_gauge
from .morphisms import (
    BogoljubovMatrix,
    Endomorphism,
    FlipFlopGauge,
    Gauge,
    NotExtensible,
    ad_unitary,
    beta_monomial,
    bogoljubov_classify,
    chi,
    flipflop,
    gauge,
    shift,
)
from .dyadic import build_Uz, check_Uz_relations
from .parser import ParseError, parse_element, print_element
from .scalars import DyadicCyclotomic
from .torusfunc import (
    DyadicGridFunction,
    cascade_solve,
    parse_angle,
    flipflop_commute_obstruction,
    gauge_equiv_obstruction,
    preset,
    solve_square_equation,
)

__all__ = ["main"]


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _from_text(convert, text: str, *args):
    """convert(text, *args), with a ValueError from the conversion reported as
    a parse error (exit 2): the argument text is malformed."""
    try:
        return convert(text, *args)
    except ValueError as exc:
        raise _CliError(str(exc), 2) from None


def _parse_window(spec: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = spec.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _CliError(f"bad window {spec!r}, expected LO:HI", 2) from None
    if lo > hi:
        raise _CliError(f"bad window {spec!r}: LO > HI", 2)
    return lo, hi


def _parse_morphism(label: str) -> Endomorphism:
    """Labels: gauge:SCALAR, flipflop, shift, chi:ODD, beta:SCALAR,N, adU."""
    name, _, arg = label.partition(":")
    if name == "gauge":
        return gauge(_parse_scalar(arg or "1"))
    if name == "chi":
        return chi(_from_text(int, arg))
    if name == "beta":
        w_text, _, n_text = arg.rpartition(",")
        return beta_monomial(_parse_scalar(w_text or "1"), _from_text(int, n_text))
    nullary = {"flipflop": flipflop, "shift": shift, "adU": lambda: ad_unitary(GEN_U)}
    if name not in nullary:
        raise _CliError(f"unknown morphism {label!r}", 2)
    if arg:
        raise _CliError(f"morphism {name} takes no parameter, got {label!r}", 2)
    return nullary[name]()


def _parse_scalar(text: str) -> DyadicCyclotomic:
    value = parse_element(text).scalar_part()
    if value is None:
        raise _CliError(f"{text!r} is not a scalar", 2)
    return value


def _parse_bogoljubov_entry(text: str):
    if "," in text:
        re_text, im_text = text.split(",", 1)
        return complex(_from_text(float, re_text), _from_text(float, im_text))
    try:
        return _parse_scalar(text)
    except (_CliError, ParseError):
        try:
            return complex(text)
        except ValueError:
            raise _CliError(f"bad matrix entry {text!r}", 2) from None


def _element_output(x: Element, fmt: str, as_stored: bool = False) -> str:
    """Text or JSON form; a scalar prints as a scalar, except that with
    as_stored only a term map holding nothing but the constant term does."""
    if fmt == "json":
        return json.dumps(x.to_json())
    value = None if as_stored and x.terms.keys() - {Monomial(0, 0, 0, 0)} else x.scalar_part()
    return print_element(x) if value is None else str(value)


def _cmd_normalize(args) -> int:
    x = parse_element(args.expr)
    depth = args.depth if args.depth is not None else x.depth
    print(_element_output(normalize_depth(x, depth), args.format, as_stored=True))
    return 0


def _cmd_eq(args) -> int:
    same = equals(parse_element(args.lhs), parse_element(args.rhs))
    if args.format == "json":
        print(json.dumps({"equal": same}))
    else:
        print("EQUAL" if same else "DIFFERENT")
    return 0 if same else 1


def _cmd_apply(args) -> int:
    endo = _parse_morphism(args.morphism)
    print(_element_output(endo(parse_element(args.expr)), args.format))
    return 0


def _cmd_expect(args) -> int:
    x = parse_element(args.expr)
    if args.which == "diag":
        if not args.window:
            raise _CliError("expect diag needs --window LO:HI", 2)
        lo, hi = _parse_window(args.window)
        diag = E_diag_window(x, lo, hi)
        if args.format == "json":
            print(json.dumps({str(i): diag[i].to_json() for i in sorted(diag)}))
        else:
            print(", ".join(f"{i}: {diag[i]}" for i in sorted(diag)) or "0")
        return 0
    emap = {"gauge": E_gauge, "CU": E_CU, "D2": E_D2}[args.which]
    print(_element_output(emap(x), args.format))
    return 0


def _cmd_eval(args) -> int:
    vec = apply_basis(parse_element(args.expr), args.basis)
    if args.format == "json":
        print(json.dumps({str(i): vec[i].to_json() for i in sorted(vec)}))
    else:
        print(", ".join(f"e_{i}: {vec[i]}" for i in sorted(vec)) or "0")
    return 0


def _cmd_window(args) -> int:
    lo, hi = _parse_window(args.window)
    op = args.op
    if op in ("P", "V"):
        win = window_matrix(op, lo, hi)
    elif op.startswith("Uz:"):
        win = window_matrix("Uz", lo, hi, phi=_from_text(parse_angle, op[3:]))
    else:
        win = window_matrix(parse_element(op), lo, hi)
    _print_window(win, args.format)
    return 0


def _print_window(win, fmt: str) -> None:
    """CSV or JSON dump of a window matrix, ending in exactly one newline."""
    print((win.to_json() if fmt == "json" else win.to_csv()).rstrip("\n"))


def _cmd_classify_bogoljubov(args) -> int:
    entries = [_parse_bogoljubov_entry(t) for t in (args.a, args.b, args.c, args.d)]
    result = bogoljubov_classify(BogoljubovMatrix(*entries))
    if isinstance(result, Gauge):
        text, payload = f"Gauge({result.z})", {"class": "Gauge", "z": str(result.z)}
    elif isinstance(result, FlipFlopGauge):
        text, payload = f"FlipFlopGauge({result.z})", {"class": "FlipFlopGauge", "z": str(result.z)}
    else:
        text, payload = "NotExtensible", {"class": "NotExtensible"}
    print(json.dumps(payload) if args.format == "json" else text)
    return 0 if not isinstance(result, NotExtensible) else 1


def _cmd_uz(args) -> int:
    uz = build_Uz(args.n)
    check_Uz_relations(args.n)
    if args.window:
        lo, hi = _parse_window(args.window)
        _print_window(window_matrix(uz, lo, hi), args.format)
        return 0
    print(_element_output(uz, args.format))
    return 0


def _load_grid(source: str, level: int) -> DyadicGridFunction:
    if source.startswith("@"):
        with open(source[1:], "r", encoding="utf-8") as handle:
            return DyadicGridFunction.from_json(handle.read())
    return _from_text(preset, source, level)


def _cmd_cascade(args) -> int:
    grid = _load_grid(args.source, args.level)
    if args.check == "gauge":
        report = gauge_equiv_obstruction(grid)
    elif args.check == "flipflop":
        report = flipflop_commute_obstruction(grid)
    else:
        h = cascade_solve(grid)
        print(h.to_json() if args.format == "json" else
              f"solved cascade at level {h.level}; h(1) = {h.values[0]:.6g}")
        return 0
    if args.format == "json":
        print(report.to_json())
    else:
        print(
            f"oscillation at z=1: {report.at_one:.9g}; max: {report.max_oscillation:.9g}; "
            + ("OBSTRUCTED" if report.obstructed else "no obstruction at this level")
        )
    return 1 if report.obstructed else 0


def _cmd_solve_feq(args) -> int:
    # n = 2 decides f(z^n) = f(z)^n for every n, so N is only range-checked
    if args.power < 2:
        raise _CliError(f"--power needs N >= 2, got {args.power}", 2)
    n = solve_square_equation(parse_element(args.expr))
    print(json.dumps({"exponent": n}) if args.format == "json" else str(n))
    return 0


def _cmd_member(args) -> int:
    inside = membership(parse_element(args.expr), args.sub)
    if args.format == "json":
        print(json.dumps({"member": inside}))
    else:
        print("MEMBER" if inside else "NOT-MEMBER")
    return 0 if inside else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="q2", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("normalize", _cmd_normalize, help="canonical fixed-depth form")
    p.add_argument("expr")
    p.add_argument("--depth", type=int, default=None)

    p = add("eq", _cmd_eq, help="decide operator equality")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = add("apply", _cmd_apply, help="apply a named morphism")
    p.add_argument("morphism")
    p.add_argument("expr")

    p = add("expect", _cmd_expect, help="conditional expectations")
    p.add_argument("which", choices=("gauge", "CU", "D2", "diag"))
    p.add_argument("expr")
    p.add_argument("--window", default=None)

    p = add("eval", _cmd_eval, help="basis action x e_i")
    p.add_argument("expr")
    p.add_argument("--basis", type=int, required=True)

    p = add("window", _cmd_window, help="window matrix dump (expr, P, V, Uz:PHI)")
    p.add_argument("op")
    p.add_argument("--window", required=True)

    p = add("classify-bogoljubov", _cmd_classify_bogoljubov,
            help="extensibility class of a 2x2 unitary")
    for entry in "abcd":
        p.add_argument(entry)

    p = add("uz", _cmd_uz, help="diagonal unitary U_z at z = zeta_{2^n}")
    p.add_argument("n", type=int)
    p.add_argument("--window", default=None)

    p = add("cascade", _cmd_cascade, help="cascade solver and obstruction reports")
    p.add_argument("source", help="preset (step:eps, bump:i@9pi/8, char:n) or @grid.json")
    p.add_argument("--level", type=int, default=12)
    p.add_argument("--check", choices=("gauge", "flipflop"), default=None)

    p = add("solve-feq", _cmd_solve_feq, help="appendix functional equations")
    p.add_argument("expr")
    p.add_argument("--power", type=int, default=2)

    p = add("member", _cmd_member, help="span membership")
    p.add_argument("sub", choices=("CU", "D2", "F2", "O2", "QT"))
    p.add_argument("expr")

    return top


def _emit_error(message: str, code: int, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    fmt = getattr(args, "format", "text")
    try:
        return args.func(args)
    except ParseError as exc:
        return _emit_error(str(exc), 2, fmt)
    except _CliError as exc:
        return _emit_error(str(exc), exc.code, fmt)
    except Exception as exc:  # engine errors: surfaced, never a traceback
        return _emit_error(f"{type(exc).__name__}: {exc}", 3, fmt)


if __name__ == "__main__":
    sys.exit(main())
