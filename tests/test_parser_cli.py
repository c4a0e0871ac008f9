import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

from ratprime import (ParseError, Poly, PreconditionError, PrimeField, QQ, RatFun,
                      format_poly, format_ratfun, parse_expression)
import ratprime
from ratprime import resultants
from ratprime import cli
from ratprime.cli import main
from ratprime import _intpoly
from ratprime.parser import MAX_POWER_DEGREE, _positions, _scan
from conftest import field_of, qpoly, random_poly, random_ratfun, untimed


# ---------------------------------------------------------------------------
# parsing

def test_parse_worked_example():
    f = parse_expression("(x+1)^4/x^3", QQ)
    assert f == RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))


def test_parse_identity():
    assert parse_expression("x", QQ) == RatFun(Poly.x(QQ))


def test_parse_degree_16_example():
    f = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", QQ)
    assert f.degree == 16 and f.ord_infinity == -8


def test_parse_literals_reduce_mod_p():
    f = parse_expression("7*x+10", PrimeField(5))
    assert f == RatFun(Poly(PrimeField(5), (0, 2)))


def test_parse_precedence():
    assert parse_expression("1+2*x^2", QQ) == RatFun(qpoly(1, 0, 2))
    # '/' and '*' associate left to right
    assert parse_expression("4/2*x", QQ) == RatFun(qpoly(0, 2))


def test_parse_zero_exponent():
    assert parse_expression("x^0+1", QQ) == RatFun.constant(QQ, 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("x+", QQ)
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_expression("x$1", QQ)
    assert err.value.position == 1


def test_parse_rejects_implicit_multiplication():
    for bad in ("2x", "x(x+1)", "(x+1)(x-1)"):
        with pytest.raises(ParseError):
            parse_expression(bad, QQ)


def test_parse_rejects_chained_exponent():
    with pytest.raises(ParseError):
        parse_expression("x^2^3", QQ)


def test_parse_rejects_leading_minus():
    # the grammar has no unary minus; subtraction must be binary
    with pytest.raises(ParseError):
        parse_expression("-x", QQ)


def test_parse_division_by_zero_polynomial():
    with pytest.raises(ParseError):
        parse_expression("x/(x-x)", QQ)


def test_parse_power_degree_cap():
    # at the bound a power is built; one past it nothing is
    assert parse_expression(f"x^{MAX_POWER_DEGREE}", QQ).degree == MAX_POWER_DEGREE
    for source in (f"x^{MAX_POWER_DEGREE + 1}", f"(x^2+1)^{MAX_POWER_DEGREE // 2 + 1}",
                   f"(1/x)^{MAX_POWER_DEGREE + 1}", f"2*(x+1)^{MAX_POWER_DEGREE + 1}+1"):
        with pytest.raises(PreconditionError, match=str(MAX_POWER_DEGREE)):
            parse_expression(source, QQ)
    # constants carry no degree, whatever the exponent
    assert parse_expression(f"3^{MAX_POWER_DEGREE + 1}", PrimeField(7)) == \
        RatFun.constant(PrimeField(7), pow(3, MAX_POWER_DEGREE + 1, 7))


def test_power_cap_reads_the_reduced_degree():
    # over F_5 the base's x^3 terms cancel, so the power has degree 10 000;
    # a degree read off the unreduced sum would be 15 000, past the cap
    source = "(3*x^3+2*x^3+x^2)^5000"
    f = parse_expression(source, PrimeField(5))
    assert f.degree == MAX_POWER_DEGREE
    assert f == RatFun(Poly(PrimeField(5), [0] * MAX_POWER_DEGREE + [1]))
    with pytest.raises(PreconditionError, match="degree 15000"):
        parse_expression(source, QQ)


def test_parse_polynomial_literal_takes_no_products(monkeypatch, rng):
    # the corpus form 6*x^28-2*x^27+...: scalings, monomial powers and sums
    # only, and one RatFun at the end
    f = random_poly(rng, QQ, 28, lc_choices=(1, 2, 6))
    source = format_poly(f)
    assert source.startswith(("x^28", "2*x^28", "6*x^28"))
    expected = RatFun(f)
    products, kernel_products, built = [], [], []
    mul, int_mul, init = Poly.__mul__, _intpoly.int_mul, RatFun.__init__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(_intpoly, "int_mul",
                        lambda a, b: kernel_products.append(1) or int_mul(a, b))
    monkeypatch.setattr(RatFun, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert parse_expression(source, QQ) == expected
    assert products == [] and kernel_products == [] and len(built) == 1


class _RatFunParser:
    """The reference evaluator: every sub-expression is a `RatFun`, on the
    tokens of `_reference_tokenize`.  A power is a product of n factors, so
    the reference shares no code with the parser's powers either."""

    def __init__(self, tokens, field):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def natural(tok):
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"literal of {len(tok[1])} digits is too long", tok[2]) from None

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])
            rhs = self.term()
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])
            rhs = self.factor()
            if op[0] == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    raise ParseError("division by the zero polynomial", op[2])
                value = value / rhs
        return value

    def factor(self):
        value = self.base()
        if self.peek()[0] == "^":
            self.take("^")
            power = RatFun.constant(self.field, 1)
            for _ in range(self.natural(self.take("int"))):
                power = power * value
            value = power
        return value

    def base(self):
        tok = self.peek()
        if tok[0] == "x":
            self.take("x")
            return RatFun(Poly.x(self.field))
        if tok[0] == "int":
            return RatFun.constant(self.field, self.natural(self.take("int")))
        if tok[0] == "(":
            self.take("(")
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"expected 'x', an integer or '(', found "
                         f"{tok[1] or 'end of input'!r}", tok[2])


def _reference_parse(source, field):
    parser = _RatFunParser(_reference_tokenize(source), field)
    value = parser.expr()
    parser.take("end")
    return value


# leaves include fractional constants and literals that vanish mod 2 or 5;
# a tree joins subtrees with bare operators, so precedence is exercised
_LEAF = st.one_of(st.just("x"), st.integers(0, 12).map(str),
                  st.tuples(st.integers(0, 12), st.integers(1, 12)).map("{0[0]}/{0[1]}".format))
_EXPR = st.recursive(_LEAF, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from("+-*/"), sub).map("".join),
    sub.map("({})".format),
    st.tuples(st.sampled_from(["x", "0", "2", "5"]), st.integers(0, 5)).map("{0[0]}^{0[1]}".format),
    st.tuples(sub, st.integers(0, 3)).map("({0[0]})^{0[1]}".format)), max_leaves=10)


@st.composite
def _source(draw):
    """An expression, sometimes with one character inserted that may break it."""
    text = draw(_EXPR)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("+-*/^()x $")) + text[i:]
    return text


def _outcome(source, field, parse):
    try:
        f = parse(source, field)
    except ParseError as exc:
        return "error", exc.position, str(exc)
    return f.numerator.coeffs, f.denominator.coeffs


@untimed
@pytest.mark.parametrize("p", [0, 2, 5, 2**31 - 1])
@given(source=_source())
def test_parse_matches_ratfun_reference(p, source):
    field = field_of(p)
    got = _outcome(source, field, parse_expression)
    assert got == _outcome(source, field, _reference_parse)
    if got[0] != "error":
        for c in got[0] + got[1]:
            assert (type(c) is int and 0 <= c < p) if p else type(c) is Fraction


@pytest.mark.parametrize("p", [0, 5])
@pytest.mark.parametrize("source", [
    "(x+1)/x*(x-1)/(x^2+1)", "x/(x+1)/(x+2)", "(1/(x+1))^3*(x+1)^2", "(1/x)/3",
    "(1/x)/(1/x)", "0*(1/x)", "1/x-(x+1)/(x-1)+x"])
def test_parse_ratfun_operands_match_reference(p, source):
    # products, quotients, sums and powers with a fraction operand
    field = field_of(p)
    assert _outcome(source, field, parse_expression) == _outcome(source, field, _reference_parse)


@pytest.mark.parametrize("p", [0, 5, 2**31 - 1])
@pytest.mark.parametrize("source", [
    "x^3+2*x^3-3*x^3+1", "x^5-x^5", "x^2+x-x^2-x+4", "3*x^4+x^2-3*x^4", "x^2+5*x+x^2",
    "7*x^3-2*x^3-5*x^3", "(x^2+1)-x^2-1", "1+x^3-x^3+x^3", "x-x+x^2"])
def test_parse_repeated_and_cancelling_powers_match_reference(p, source):
    # a monomial right operand no longer than the sum so far updates one entry
    # in place, and a cancelled top entry is trimmed (5*x vanishes over F_5)
    field = field_of(p)
    assert _outcome(source, field, parse_expression) == _outcome(source, field, _reference_parse)


@pytest.mark.parametrize("p, source, position", [
    (5, "x/5", 1), (2, "x^2+1/(x-x)", 5), (0, "(x+1)/(2-2)*x", 5), (7, "3/14", 1)])
def test_parse_error_positions_match_reference(p, source, position):
    field = field_of(p)
    assert _outcome(source, field, parse_expression) == \
        _outcome(source, field, _reference_parse)
    assert _outcome(source, field, parse_expression)[1] == position


def _reference_tokenize(source):
    """The character-walking tokenizer the compiled regex replaced."""
    tokens = []
    i = 0
    while i < len(source):
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < len(source) and source[j].isdecimal():
                j += 1
            tokens.append(("int", source[i:j], i))
            i = j
            continue
        if c in "x+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(source)))
    return tokens


def _tokenize(source):
    """(kind, text, position) of each token of the parser's `_scan` and
    `_positions`, with the reference's kinds: the end is "end", a literal
    is "int", and a symbol or 'x' is its own kind."""
    return [("end" if not text else "int" if text.isdecimal() else text, text, pos)
            for text, pos in zip(_scan(source), _positions(source))]


def _tokens(source, tokenize):
    try:
        return tokenize(source)
    except ParseError as exc:
        return "error", exc.position, str(exc)


# Arabic-Indic and Devanagari digits are decimal; superscript two and circled
# one are digits but not decimal; NBSP, ideographic space, em space, line
# separator and the file separator \x1c are whitespace
@pytest.mark.parametrize("source", [
    "x^\u0663", "\u0663\u0664*x+\u0967", "x\u00a0+\u30001", "\x1cx", "x\x1c",
    "x\u2003-\u20282", "x^\u00b2", "x+\u2460", "1 2", "x$", " \t\n", ""])
def test_tokenize_matches_reference_on_unicode(source):
    assert _tokens(source, _tokenize) == _tokens(source, _reference_tokenize)


@given(source=st.text(st.characters(categories=("Nd", "No", "Zs", "Zl", "Cc"))
                      | st.sampled_from("x+-*/^()$"), max_size=12))
def test_tokenize_matches_reference(source):
    assert _tokens(source, _tokenize) == _tokens(source, _reference_tokenize)


def test_parse_reads_unicode_digits_and_spaces():
    assert (parse_expression("x^\u0663\u00a0+\x1c\u0661\u0662", QQ)
            == parse_expression("x^3+12", QQ))


# ---------------------------------------------------------------------------
# printing and round trips

def test_format_poly_basic():
    assert format_poly(qpoly(0, 2, 1)) == "x^2+2*x"
    assert format_poly(qpoly(Fraction(3, 2))) == "3/2"
    assert format_poly(Poly.zero(QQ)) == "0"
    assert format_poly(qpoly(1, -2, -3)) == "0-3*x^2-2*x+1"


def test_format_ratfun_parenthesization():
    f = RatFun(qpoly(1, 0, 1), qpoly(0, 0, 0, 1))
    assert format_ratfun(f) == "(x^2+1)/x^3"
    g = RatFun(qpoly(0, 1), qpoly(1, 1))
    assert format_ratfun(g) == "x/(x+1)"


def test_round_trip_examples():
    for source in ("(x+1)^4/x^3", "x", "(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4",
                   "x^4+x", "1/2*x^2+3"):
        f = parse_expression(source, QQ)
        assert parse_expression(format_ratfun(f), QQ) == f


def test_round_trip_random(rng):
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            f = random_ratfun(rng, field, rng.randint(0, 4), rng.randint(0, 4))
            if f.is_zero:
                continue
            assert parse_expression(format_ratfun(f), field) == f


# ---------------------------------------------------------------------------
# CLI

def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, *argv):
    code, out, _ = _run(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("ratprime").joinpath("report_schema.json").read_text()
    return json.loads(text)


def test_cli_field_above_the_primality_bound_is_a_precondition_error(capsys, schema):
    code, report = _run_json(capsys, "analyze", "--field", "F" + "7" * 5000, "x^4+x")
    assert code == 3
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "precondition-violation"
    assert "3317044064679887385961981" in report["error"]["message"]


@pytest.mark.parametrize("expr", ["x^4+" + "7" * 5000, "x^" + "7" * 5000],
                         ids=["literal", "exponent"])
def test_cli_literal_past_the_int_digit_limit_is_a_parse_error(capsys, schema, expr):
    code, report = _run_json(capsys, "analyze", expr)
    assert code == 2
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "parse-error"
    assert report["error"]["message"].endswith(f"(at position {expr.index('7')})")


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str digit limit, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("expr", ["x^2+3^5000*x", "3^100000*x^2+x"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_coefficient_past_the_int_digit_limit_is_a_precondition_error(
        capsys, schema, default_digit_limit, expr, as_json):
    # a coefficient of D[f - t] has more digits than str(int) may print
    limit = str(default_digit_limit)
    if as_json:
        code, report = _run_json(capsys, "analyze", "--field", "Q", expr)
        jsonschema.validate(report, schema)
        assert report["error"]["kind"] == "precondition-violation"
        assert limit in report["error"]["message"]
    else:
        code, out, err = _run(capsys, "analyze", "--field", "Q", expr)
        assert out == "" and limit in err
    assert code == 3


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_coefficient_below_the_int_digit_limit_prints(capsys, default_digit_limit, as_json):
    # the coefficient 3^8000 of D[f - t] has about 3817 digits
    argv = ["analyze", "--field", "Q", "x^2+3^4000*x"] + ["--json"] * as_json
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert str(3 ** 8000) in out


def test_cli_analyze_worked_example(capsys, schema):
    code, report = _run_json(capsys, "analyze", "--field", "Q", "(x+1)^4/x^3")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["degree"] == 4
    assert report["ord_infinity"] == -1
    cv = report["critical_values"]
    assert cv["zero_multiplicity"] == 3
    assert cv["simple_count"] == 1 and cv["nonzero_simple_count"] == 1
    assert cv["disc_coefficients"] == ["0", "0", "0", "256", "-27"]
    assert report["verdict"]["kind"] == "Unknown"
    assert report["oracle"]["status"] == "unused"


def test_cli_analyze_prime_by_simple_critical(capsys, schema):
    code, report = _run_json(capsys, "analyze", "--field", "Q", "x^4+x")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["verdict"]["kind"] == "PrimeBySimpleCriticalValues"
    assert report["verdict"]["details"]["count"] == 3
    assert report["verdict"]["details"]["d"] == 2
    assert report["verdict"]["scope"] == "base-field"


def test_cli_analyze_with_oracle(capsys, schema):
    code, report = _run_json(capsys, "analyze", "--oracle-budget", "1000", "x^4+x^2")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["verdict"]["kind"] == "CompositeWitness"
    assert report["verdict"]["witness_g"] == "x^2+x"
    assert report["verdict"]["witness_h"] == "x^2"
    assert report["oracle"]["status"] == "witness"
    assert report["oracle"]["exhaustive"] is True
    assert report["oracle"]["candidates"] >= 1


def test_cli_analyze_reports_budget_exhaustion(capsys, schema):
    # composite of degree 9 over F_3 that no certificate covers; its one
    # right-factor degree is wild (3 | 9/3), and a cap of 5 candidates is
    # too small for its 6
    code, report = _run_json(capsys, "analyze", "--field", "F3", "--oracle-budget", "5",
                             "(x^3+x^2)^3+(x^3+x^2)^2")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["verdict"]["kind"] == "Unknown"
    assert report["oracle"]["status"] == "exhausted"
    assert report["oracle"]["exhaustive"] is False


@pytest.fixture
def critical_calls(monkeypatch):
    """Count D[f - t] and Res_x(f - t, f') computations wherever a ratprime
    module binds the two functions."""
    calls = []
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ratprime"]
    for name in ("disc_in_t", "rat_resultant_in_t"):
        original = getattr(resultants, name)

        def counted(*args, _original=original):
            calls.append(_original)
            return _original(*args)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("expr", ["x^6+x^2+x", "(x+1)^4/x^3"])
def test_cli_analyze_computes_critical_resultant_once(capsys, critical_calls, expr):
    code, report = _run_json(capsys, "analyze", expr)
    assert code == 0
    assert report["critical_values"]["disc_coefficients"] is not None
    assert len(critical_calls) == 1


@pytest.mark.parametrize("field, expr", [("Q", "x^4+x^2"),
                                         ("F3", "(x^2+1)^2/x^2"),
                                         ("F7", "(x^4+x+3)^2+(x^4+x+3)")])
def test_cli_decompose_and_analyze_share_the_oracle(capsys, field, expr):
    argv = ("--field", field, "--oracle-budget", "5", expr)
    _, analyzed = _run_json(capsys, "analyze", *argv)
    _, decomposed = _run_json(capsys, "decompose", *argv)
    assert analyzed["oracle"] == decomposed["oracle"]
    for key in ("witness_g", "witness_h"):
        assert analyzed["verdict"][key] == decomposed["verdict"][key]


def test_cli_fq_zero_divisor(capsys, schema):
    code, report = _run_json(capsys, "fq", "--p", "3", "x^2")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["fq"]["classification"] == "zero-divisor"
    assert report["fq"]["witness"] == "x^2+2*x"
    assert report["fq"]["witness_composes_to_zero"] is True
    assert report["fq"]["table"] == [0, 1, 1]


def test_cli_fq_unit(capsys, schema):
    code, report = _run_json(capsys, "fq", "--field", "F3", "x^3")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["fq"]["classification"] == "unit"
    assert report["fq"]["reduced"] == "x"


def test_cli_resultant_command(capsys, schema):
    code, report = _run_json(capsys, "resultant", "--field", "Q", "x^4+x")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["critical_values"]["disc_coefficients"] == ["-27", "0", "0", "-256"]


def test_cli_resultant_degenerate_is_reported_not_fatal(capsys, schema):
    code, report = _run_json(capsys, "resultant", "--field", "F3", "x^3")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["critical_values"]["degenerate"] is True
    assert report["critical_values"]["disc_coefficients"] is None


def test_cli_decompose_command(capsys, schema):
    code, report = _run_json(capsys, "decompose", "x^4+x^2")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["verdict"]["witness_g"] == "x^2+x"
    assert report["oracle"]["status"] == "witness"
    assert report["oracle"]["exhaustive"] is True


def test_cli_decompose_rational_over_prime_field(capsys, schema):
    code, report = _run_json(capsys, "decompose", "--field", "F3",
                             "(x^2+1)^2/x^2")
    assert code == 0
    jsonschema.validate(report, schema)
    assert report["oracle"]["status"] == "witness"
    assert report["verdict"]["witness_g"] is not None


def test_cli_fq_rejects_conflicting_field_flags(capsys, schema):
    code, report = _run_json(capsys, "fq", "--p", "3", "--field", "F5", "x^2")
    assert code == 3
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "precondition-violation"
    assert "--field F5" in report["error"]["message"]
    assert "--p 3" in report["error"]["message"]
    # an explicit Q is a field too, not the absence of --field
    code, report = _run_json(capsys, "fq", "--p", "5", "--field", "Q", "x^2")
    assert code == 3
    assert report["error"]["kind"] == "precondition-violation"
    assert "--field Q" in report["error"]["message"]
    assert "--p 5" in report["error"]["message"]
    # flags that agree name one field
    code, report = _run_json(capsys, "fq", "--p", "3", "--field", "F3", "x^2")
    assert code == 0 and report["field"] == "F3"


@pytest.mark.parametrize("argv, message", [
    (["fq", "--p", "0", "--field", "F5", "x^2"], "0 is not prime"),
    (["fq", "x^2"], "fq needs a prime field"),
    (["resultant", "x^2/x"], "disc-in-t needs degree >= 2")])
def test_cli_precondition_messages(capsys, schema, argv, message):
    code, report = _run_json(capsys, *argv)
    assert code == 3
    jsonschema.validate(report, schema)
    assert message in report["error"]["message"]


def test_cli_fq_rejects_rational_functions(capsys, schema):
    code, report = _run_json(capsys, "fq", "--p", "3", "1/x")
    assert code == 3
    jsonschema.validate(report, schema)


def test_cli_parse_error_exit_code(capsys, schema):
    code, report = _run_json(capsys, "analyze", "x++1")
    assert code == 2
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "parse-error"
    assert report["error"]["exit_code"] == 2


def test_cli_precondition_exit_code(capsys, schema):
    code, report = _run_json(capsys, "analyze", "x+1")  # degree 1: a unit
    assert code == 3
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "precondition-violation"
    code, report = _run_json(capsys, "fq", "--p", "4", "x^2")
    assert code == 3
    code, report = _run_json(capsys, "analyze", "--oracle-budget", "-5", "x^4+x^2")
    assert code == 3
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "precondition-violation"
    assert "cap" in report["error"]["message"]


@pytest.mark.parametrize("command", ["analyze", "fq"])
def test_cli_power_past_the_degree_cap_is_a_precondition_error(capsys, schema, command):
    code, report = _run_json(capsys, command, "--field", "F5",
                             f"(x+1)^{MAX_POWER_DEGREE + 1}")
    assert code == 3
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "precondition-violation"
    assert str(MAX_POWER_DEGREE) in report["error"]["message"]


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_cli_oracle_budget_zero_is_rejected(capsys, schema, command):
    # 0 used to mean "no oracle" for analyze and the default cap for decompose
    code, report = _run_json(capsys, command, "--field", "F3", "--oracle-budget", "0",
                             "(x^12+x+2)/(x^11+2*x^3+1)")
    assert code == 3
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "precondition-violation"
    assert "cap" in report["error"]["message"]
    assert report["oracle"]["status"] == "unused"


def test_cli_text_mode(capsys):
    code, out, _ = _run(capsys, "fq", "--p", "3", "x^2")
    assert code == 0
    assert "zero-divisor" in out
    assert "x^2+2*x" in out


def test_cli_error_text_goes_to_stderr(capsys):
    code, out, err = _run(capsys, "analyze", "x++1")
    assert code == 2 and "error" in err


def test_cli_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert _run(capsys, "analyze", "x^3+x")[0] == 0
    assert built == []


def test_cli_reports_are_deterministic(capsys):
    _, first = _run_json(capsys, "analyze", "--field", "Q", "(x+1)^4/x^3")
    _, second = _run_json(capsys, "analyze", "--field", "Q", "(x+1)^4/x^3")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_cli_key_layout_is_input_independent(capsys):
    def keys(doc):
        return (list(doc), list(doc["critical_values"]), list(doc["verdict"]),
                list(doc["fq"]), list(doc["oracle"]))

    _, a = _run_json(capsys, "analyze", "x^4+x")
    _, b = _run_json(capsys, "analyze", "--field", "F5", "x^4+x^2+1")
    _, c = _run_json(capsys, "fq", "--p", "3", "x^2")
    assert keys(a) == keys(b) == keys(c)


@pytest.mark.parametrize("argv, code", [
    (["analyze", "(x+1)^4"], 0),
    (["analyze", "--json", "(x+1)^4"], 0),
    (["analyze", "--json", "x^"], 2),
    (["analyze", "--json", "--field", "F4", "x"], 3),
])
def test_closed_stdout_pipe_keeps_exit_code(argv, code):
    # like `ratprime analyze ... | head -1` once head has exited: stdout is a
    # pipe whose read end is already closed, so the first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(ratprime.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "ratprime.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# the report text and the argv dispatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _smoke_reports():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    for workload in corpus.WORKLOADS:
        for job in corpus.build(workload, 0, smoke=True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(job.argv)
            yield out.getvalue()


def test_report_text_is_that_of_json_dumps_on_the_smoke_corpus():
    # text == dumps(loads(text)) holds only for the very text json.dumps
    # writes; the digest test pins what the reports say
    texts = list(_smoke_reports())
    assert texts
    for text in texts:
        assert text == json.dumps(json.loads(text)) + "\n"


def test_cli_json_leaves_no_cyclic_garbage(capsys):
    # json.dumps with an indent would run the stdlib's Python encoder, whose
    # closures leave 33 objects of cyclic garbage per report
    _run(capsys, "analyze", "--json", "x^4+x")
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            assert _run(capsys, "analyze", "--json", "x^4+x")[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


_ARGVS = [
    ["analyze", "x^4+x"],
    ["analyze", "--field", "F5", "--json", "--oracle-budget", "7", "x^4+x"],
    ["decompose", "x^4", "--field=F5", "--oracle-b", "5", "--js"],
    ["decompose", "--oracle-budget=3", "x^4"],
    ["fq", "x^2", "--p", "3", "--field", "F3", "--json"],
    ["fq", "--p=7", "x"],
    ["resultant", "--json", "--field", "Q", "x^3+x"],
    ["-h"],
    ["analyze", "-h"],
    ["fq", "x", "--help"],
    [],
    ["bogus", "x"],
    ["analyze"],
    ["analyze", "x", "y"],
    ["analyze", "x", "y", "--zap", "z"],
    ["analyze", "x", "--p", "5"],
    ["resultant", "x", "--oracle-budget", "5"],
    ["fq", "x", "--p", "abc"],
    ["analyze", "x", "--oracle-budget"],
    ["analyze", "--field"],
    ["--", "analyze", "x"],
    ["analyze", "--", "-x"],
    ["analyze", "-x"],
    ["analyze", "x", "--", "--json"],
]


def _argv_outcome(parse, argv, capsys):
    try:
        args = parse(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return "exit", exc.code, out.out, out.err
    return "parsed", args, *capsys.readouterr()


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_argv_dispatch_matches_argparse(capsys, argv):
    assert (_argv_outcome(cli._parse_args, list(argv), capsys)
            == _argv_outcome(cli._PARSER.parse_args, list(argv), capsys))
