import json
import os
import random
import subprocess
import sys

import pytest

import q2algebra
from q2algebra import cli

from q2algebra.algebra import GEN_S2, GEN_U, ONE, equals
from q2algebra.cli import _parse_morphism, main
from q2algebra.morphisms import (
    ad_unitary,
    agree_on_generators,
    beta_monomial,
    chi,
    flipflop,
    gauge,
    shift,
)
from q2algebra.parser import ParseError, parse_element, print_element
from q2algebra.scalars import IMAG, cyclo

from conftest import rand_element


def test_parse_examples():
    assert equals(parse_element("S2 U"), GEN_U**2 * GEN_S2)
    assert equals(parse_element("U^-1 S1"), GEN_S2)
    with pytest.raises(ParseError) as err:
        parse_element("S2 +")
    assert err.value.position == 5


def test_parse_scalars_and_precedence():
    assert equals(parse_element("1"), ONE)
    assert parse_element("-1/2 U + 1/2 U").is_zero()
    assert equals(parse_element("i i"), -ONE)
    assert equals(parse_element("zeta(4)"), parse_element("i"))
    assert equals(parse_element("zeta(2^3)^2"), parse_element("i"))
    assert equals(parse_element("U^2 S2"), parse_element("U U S2"))
    assert equals(parse_element("(S2 S2* + U S2 S2* U*)^3"), ONE)
    assert equals(parse_element("S2*^2 S2^2"), ONE)
    assert equals(parse_element("U*^2"), parse_element("U^-2"))


def test_parse_errors():
    for bad in ("", "S2 ^", "zeta(3)", "zeta()", "1/0", "Q", "(S2", "S2^-1", "2/)", "^2", "zeta(8", "S12"):
        with pytest.raises(ParseError):
            parse_element(bad)


@pytest.mark.parametrize("text", ["U^\u00b2", "U^\u0663", "\u0663 U"])
def test_only_ascii_digits_are_numbers(capsys, text):
    # "²" and Arabic-Indic digits pass str.isdigit; neither is a number here
    with pytest.raises(ParseError):
        parse_element(text)
    assert main(["normalize", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error") and "ValueError" not in err


def test_print_parse_round_trip(rng):
    for _ in range(200):
        x = rand_element(rng)
        text = print_element(x)
        y = parse_element(text)
        assert y.terms == x.terms, text


def test_print_canonical_order_deterministic(rng):
    x = rand_element(rng, nterms=4)
    assert print_element(x) == print_element(x + GEN_S2 - GEN_S2)


def test_fuzz_parser_never_crashes():
    rng = random.Random(99)
    alphabet = "US12*^+-()/ zetai().034"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_element(text)
        except ParseError:
            pass
        except (OverflowError, MemoryError):
            pass  # astronomically large exponents are legitimate engine limits


def test_cli_spec_examples(capsys):
    assert main(["eq", "S1", "U S2"]) == 0
    assert capsys.readouterr().out.strip() == "EQUAL"

    assert main(["expect", "CU", "S2^3 S2*^3"]) == 0
    assert capsys.readouterr().out.strip() == "1/8"

    assert main(["apply", "flipflop", "S1"]) == 0
    assert capsys.readouterr().out.strip() == "S2"


def test_cli_eq_different_and_exit_codes(capsys):
    assert main(["eq", "S2", "S1"]) == 1
    assert capsys.readouterr().out.strip() == "DIFFERENT"
    assert main(["eq", "S2", "S2 +"]) == 2
    assert "parse error" in capsys.readouterr().err
    assert main(["normalize", "S2 S2*", "--depth", "0"]) == 3  # DepthTooSmall
    err = capsys.readouterr().err
    assert "DepthTooSmall" in err


def test_cli_normalize_and_member(capsys):
    assert main(["normalize", "U", "--depth", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "S2^2 S2*^2 U + U S2^2 S2*^2 + U^2 S2^2 S2*^2 U* + U^3 S2^2 S2*^2 U*^2"
    assert main(["member", "O2", "U"]) == 1
    assert capsys.readouterr().out.strip() == "NOT-MEMBER"
    assert main(["member", "F2", "S1 S2*"]) == 0
    assert capsys.readouterr().out.strip() == "MEMBER"


def test_cli_apply_labels(capsys):
    assert main(["apply", "gauge:zeta(8)^3", "S2"]) == 0
    assert capsys.readouterr().out.strip() == "zeta(8)^3 S2"
    assert main(["apply", "chi:5", "U"]) == 0
    assert capsys.readouterr().out.strip() == "U^5"
    assert main(["apply", "beta:i,1", "S2"]) == 0
    assert capsys.readouterr().out.strip() == "i U S2"
    assert main(["apply", "shift", "U"]) == 0
    assert capsys.readouterr().out.strip() == "U^2"
    assert main(["apply", "adU", "S1"]) == 0
    assert capsys.readouterr().out.strip() == "S2"
    # each CLI name is its constructor; bare gauge is gauge(1), beta:N is beta(1, N)
    for label, endo in [
        ("gauge", gauge(1)),
        ("gauge:zeta(8)^3", gauge(cyclo(3, 3))),
        ("chi:5", chi(5)),
        ("beta:i,1", beta_monomial(IMAG, 1)),
        ("beta:3", beta_monomial(1, 3)),
        ("flipflop", flipflop()),
        ("shift", shift()),
        ("adU", ad_unitary(GEN_U)),
    ]:
        assert agree_on_generators(_parse_morphism(label), endo), label
    # spellings that were never CLI names
    for label in ("ad", "extension", "builtin"):
        assert main(["apply", label, "S2"]) == 2
        assert f"unknown morphism {label!r}" in capsys.readouterr().err


def test_cli_window_and_eval(capsys):
    assert main(["window", "S2", "--window=-2:2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "row,col,re,im"
    assert "-2,-1,1.0,0.0" in out
    assert main(["window", "P", "--window=-1:1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [0, 0, 1.0, 0.0] in data["entries"]
    assert main(["eval", "S2", "--basis", "3"]) == 0
    assert capsys.readouterr().out.strip() == "e_6: 1"


def test_cli_window_output_ends_in_one_newline(capsys):
    for argv in (["window", "S2", "--window=-2:2"], ["uz", "2", "--window=-2:2"]):
        for fmt in ("text", "json"):
            assert main([*argv, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert out.endswith("\n") and not out.endswith("\n\n"), (argv, fmt)
            if fmt == "json":
                assert json.loads(out)["lo"] == -2


def test_cli_classify_and_uz(capsys):
    assert main(["classify-bogoljubov", "zeta(8)", "0", "0", "zeta(8)"]) == 0
    assert capsys.readouterr().out.strip() == "Gauge(zeta(8))"
    assert main(["classify-bogoljubov", "--", "0.7071067811865476,0", "0.7071067811865476,0",
                 "0.7071067811865476,0", "-0.7071067811865476,0"]) == 1
    assert capsys.readouterr().out.strip() == "NotExtensible"
    # 1 + 2^-50 is within 1e-12 of the circle, but exact entries are decided exactly
    z = "1 + 1/1125899906842624"
    assert main(["classify-bogoljubov", z, "0", "0", z]) == 3
    assert capsys.readouterr().err == "error: NotUnitary: matrix is not unitary\n"
    assert main(["uz", "1"]) == 0
    assert capsys.readouterr().out.strip() == "S2 S2* - U S2 S2* U*"


def test_cli_window_uz_phase(capsys):
    assert main(["window", "Uz:pi/2", "--window=0:3"]) == 0
    out = capsys.readouterr().out
    assert "1,1,6.123233995736766e-17,1.0" in out  # e^(i pi/2) on the diagonal


def test_cli_cascade_and_solve_feq(capsys):
    assert main(["cascade", "step:pi/4", "--level", "10", "--check", "gauge"]) == 1
    out = capsys.readouterr().out
    assert "OBSTRUCTED" in out
    assert main(["cascade", "char:1", "--level", "8"]) == 0
    assert "solved cascade at level 8" in capsys.readouterr().out
    assert main(["cascade", "step:pi/4", "--level", "10", "--check", "gauge",
                 "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert abs(data["oscillation_at_one"] - 2.0) < 1e-6
    assert main(["cascade", "char:2", "--level", "8", "--check", "flipflop"]) == 0
    capsys.readouterr()
    assert main(["solve-feq", "U^3"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["solve-feq", "--", "-U"]) == 3
    capsys.readouterr()
    assert main(["solve-feq", "U^-2", "--power", "5"]) == 0
    assert capsys.readouterr().out.strip() == "-2"
    assert main(["solve-feq", "S2 S2* U^3 + U S2 S2* U* U^3"]) == 0  # U^3, no root term
    assert capsys.readouterr().out == "3\n"
    assert main(["solve-feq", "U + S2"]) == 3
    assert capsys.readouterr().err == "error: NotUnimodular: f is not a T-valued function of U\n"


@pytest.mark.parametrize("power", [None, "2", "3", "4", "5", "6", "100000000"])
def test_cli_solve_feq_power_at_least_2_is_accepted(capsys, power):
    # n = 2 decides every power equation, so N changes no answer
    extra = [] if power is None else ["--power", power]
    assert main(["solve-feq", "U^-7", *extra]) == 0
    assert capsys.readouterr().out == "-7\n"
    assert main(["solve-feq", "i U", *extra]) == 3
    assert capsys.readouterr().err == "error: NotASolution: f(z^2) != f(z)^2\n"


@pytest.mark.parametrize("power", ["1", "0", "-3"])
def test_cli_solve_feq_power_below_2_is_a_parse_error(capsys, power):
    # N is checked before the expression is read
    for expr in ("U^3", "U + S2", "S2 ^"):
        assert main(["solve-feq", expr, "--power", power]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --power needs N >= 2, got {power}\n"
    assert main(["solve-feq", "U^3", "--power", power, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == 2


def test_cli_expect_diag_and_json(capsys):
    assert main(["expect", "diag", "S2 S2*", "--window=-4:4"]) == 0
    assert capsys.readouterr().out.strip() == "-4: 1, -2: 1, 0: 1, 2: 1, 4: 1"
    assert main(["eq", "S1", "U S2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"equal": True}
    assert main(["normalize", "S2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"][0]["a"] == 1


def test_cli_fuzz_never_crashes(capsys):
    rng = random.Random(123)
    alphabet = "US12*^+-()/zetai .,:049"
    for _ in range(500):
        expr = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        code = main(["eq", "--", expr, "S2"])
        assert code in (0, 1, 2, 3)
        capsys.readouterr()


def test_cli_scalar_output(capsys):
    # a result equal to a scalar prints as one; normalize keeps its depth-B terms
    assert main(["apply", "flipflop", "S2 S2* + U S2 S2* U*"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["expect", "gauge", "2 + S2 S2* + U S2 S2* U*"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["normalize", "1", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "S2 S2* + U S2 S2* U*"
    assert main(["normalize", "1 + i", "--depth", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1 + i"


def test_cli_large_powers(capsys):
    # ^n is computed by repeated squaring, so these take a few dozen products
    assert main(["eq", "U^2000000", "U^1999999 U"]) == 0
    assert capsys.readouterr().out.strip() == "EQUAL"
    assert main(["apply", "chi:3", "U^1000000 S2"]) == 0
    assert capsys.readouterr().out.strip() == "S2 U^1500000"
    # a level-24 gauge parameter is a single stored coordinate
    assert main(["apply", "gauge:zeta(2^24)^3", "S2"]) == 0
    assert capsys.readouterr().out.strip() == "zeta(16777216)^3 S2"


@pytest.mark.parametrize("argv", [
    ["apply", "chi:x", "S2"],
    ["apply", "beta:i", "S2"],
    ["apply", "flipflop:junk", "S2"],
    ["window", "Uz:1/7", "--window=0:3"],
    ["cascade", "step:abc"],
    ["cascade", "char:q"],
    ["cascade", "nope"],
    ["classify-bogoljubov", "1,x", "0", "0", "1"],
    ["cascade", "step:pi/0", "--level", "8"],
    ["cascade", "step:1/0pi", "--level", "8"],
    ["window", "Uz:pi/0", "--window=0:3"],
])
def test_cli_malformed_argument_text_is_a_parse_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ValueError" not in err


def test_cli_engine_errors_on_labels_keep_exit_3(capsys):
    assert main(["apply", "chi:4", "S2"]) == 3
    assert "NotOdd" in capsys.readouterr().err
    assert main(["apply", "gauge:2", "S2"]) == 3
    assert "NotUnitary" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["cascade", "step:pi/4", "--level", "30"], "grid level 30 is over the bound of 18"),
    (["cascade", "bump:i@9pi/8", "--level", "19", "--check", "flipflop"],
     "grid level 19 is over the bound of 18"),
    (["expect", "diag", "1", "--window=-524288:524288"],
     "diagonal window of 1048577 indices is over the bound of 1048576"),
    (["window", "P", "--window=-524288:524288"],
     "window of 1048577 indices is over the bound of 1048576"),
    (["window", "S2", "--window=-1000000000:1000000000"],
     "window of 2000000001 indices is over the bound of 1048576"),
    (["uz", "3", "--window=-524288:524288"],
     "window of 1048577 indices is over the bound of 1048576"),
])
def test_cli_over_a_size_bound_exits_3(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: BudgetExceeded: {message}\n"  # one line, no traceback


def test_cli_at_a_size_bound_keeps_its_output(capsys, monkeypatch):
    assert main(["cascade", "char:1", "--level", "18"]) == 0
    assert capsys.readouterr().out == "solved cascade at level 18; h(1) = 1+0j\n"
    assert main(["expect", "diag", "S2^12 S2*^12", "--window=-524288:524287"]) == 0
    expected = ", ".join(f"{i}: 1" for i in range(-524288, 524288, 1 << 12))
    assert capsys.readouterr().out == expected + "\n"
    assert main(["window", "S2^12 S2*^12", "--window=-524288:524287"]) == 0
    rows = ["row,col,re,im"] + [f"{i},{i},1.0,0.0" for i in range(-524288, 524288, 1 << 12)]
    assert capsys.readouterr().out == "\n".join(rows) + "\n"
    # U_z at zeta_8 fills all 2^20 diagonal entries; the dump itself is not needed
    printed = []
    monkeypatch.setattr(cli, "_print_window", lambda win, fmt: printed.append(win))
    assert main(["uz", "3", "--window=-524288:524287"]) == 0
    assert [(w.lo, w.hi, w.vals.size) for w in printed] == [(-524288, 524287, 1 << 20)]


_IN_FRESH_INTERPRETER = """
import contextlib, io, json, sys
import q2algebra, q2algebra.cli
loaded = ["numpy" in sys.modules]
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append([q2algebra.cli.main(argv), out.getvalue()])
    loaded.append("numpy" in sys.modules)
print(json.dumps({"runs": runs, "numpy_loaded": loaded}))
"""


def _run_fresh(argvs):
    """Run each argv through cli.main in one new interpreter, which (unlike this
    test session) has not imported numpy yet."""
    src = os.path.dirname(os.path.dirname(q2algebra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _IN_FRESH_INTERPRETER, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_exact_subcommands_load_no_numpy():
    argvs = [
        ["eq", "S1", "U S2"],
        ["normalize", "U", "--depth", "2"],
        ["apply", "flipflop", "S1"],
        ["expect", "gauge", "2 + S2 S2*"],
        ["expect", "CU", "S2^3 S2*^3"],
        ["expect", "D2", "S2 S2* + S2"],
        ["expect", "diag", "S2 S2*", "--window=-4:4"],
        ["member", "O2", "U"],
        ["eval", "S2", "--basis", "3"],
        ["uz", "3"],
        ["classify-bogoljubov", "zeta(8)", "0", "0", "zeta(8)"],
        ["solve-feq", "U^3"],
    ]
    result = _run_fresh(argvs)
    assert result["numpy_loaded"] == [False] * (len(argvs) + 1)
    assert [code for code, _ in result["runs"]] == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert result["runs"][0][1] == "EQUAL\n"
    assert result["runs"][-1][1] == "3\n"


def test_numpy_subcommands_load_it_on_demand(capsys):
    argvs = [
        ["window", "S2", "--window=-2:2"],
        ["uz", "2", "--window=-2:2"],
        ["cascade", "step:pi/4", "--level", "8", "--check", "gauge"],
    ]
    result = _run_fresh(argvs)
    assert result["numpy_loaded"] == [False, True, True, True]
    assert [code for code, _ in result["runs"]] == [0, 0, 1]
    assert result["runs"][2][1] == "oscillation at z=1: 2; max: 2; OBSTRUCTED\n"
    for argv, (code, out) in zip(argvs, result["runs"]):
        assert main(argv) == code
        assert capsys.readouterr().out == out  # the same as with numpy loaded up front
