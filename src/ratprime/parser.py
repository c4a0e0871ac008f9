"""Recursive-descent parser and printer for rational-function expressions.

Grammar (no implicit multiplication, '^' takes a natural-number literal):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' natural)?
    base   := 'x' | integer | '(' expr ')'

Integer literals map into the coefficient field (mod p over prime fields).
Evaluation runs on `_intpoly` kernel lists (ascending coefficients): a value
is a list until a division by a nonconstant makes it a `RatFun`, and from
then on an operation with a `RatFun` operand lifts both sides to `RatFun`.
`parse_expression` builds one `RatFun` of a list result at the end.  Every
list value is reduced mod p and trimmed: a literal is reduced once, x is
[0, 1], a sum adds a monomial no longer than it to its one entry in place
and is otherwise `mod_add` or `mod_sub`, products are `mod_mul` and powers
`mod_pow` (a power of a monomial c*x^d is c^n*x^(d*n) there, without
products), and a constant factor or a constant divisor is a scaling by a
nonzero scalar (by the field inverse for '/').  So every degree the parser
reads (the power cap, the constant-operand tests, the division-by-zero
test) is read off a list as it is.  Over Q entries stay ints until a
division by a constant, a product of nonconstants or a power of a
nonmonomial makes them Fractions.  A power whose degree deg(base)*n exceeds
MAX_POWER_DEGREE is a precondition error, raised before the power is built.
Tokens are held as their texts; their positions are found again only for an
error message.  The printer emits strings inside the same grammar, so
print-then-parse is the identity.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from ._intpoly import mod_add, mod_mul, mod_pow, mod_sub, trim
from .errors import PreconditionError, RatPrimeError
from .fields import Field
from .poly import Poly
from .ratfun import RatFun


class ParseError(RatPrimeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# a token is a decimal literal or one non-space character; \d and \s accept
# exactly what str.isdecimal and str.isspace accept, so findall skips exactly
# the whitespace, and the first character that is neither whitespace, a digit
# nor a symbol is the first one _BAD finds
_TOKEN = re.compile(r"\d+|\S")
_BAD = re.compile(r"[^\s\dx+\-*/^()]")

# the largest degree a power in an expression may have; (x+1)^500, the
# largest power in use, stays far below it
MAX_POWER_DEGREE = 10_000


def _scan(source: str) -> list[str]:
    """The token texts, ending in "" for the end of input."""
    bad = _BAD.search(source)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    texts = _TOKEN.findall(source)
    texts.append("")
    return texts


def _positions(source: str) -> list[int]:
    """The position of each token `_scan` returns, the end's included."""
    positions = [m.start() for m in _TOKEN.finditer(source)]
    positions.append(len(source))
    return positions


class _Evaluator:
    """Recursive descent over the token texts, which are held reversed: the
    next token is toks[-1], and taking it is toks.pop()."""

    __slots__ = ("source", "toks", "field", "p")

    def __init__(self, source: str, field: Field):
        self.source = source
        self.toks = _scan(source)[::-1]
        self.field = field
        self.p = field.char

    def error(self, message: str, left: int = 0) -> ParseError:
        """A ParseError at the token that had `left` tokens from it to the
        end of input, by default the next token."""
        positions = _positions(self.source)
        return ParseError(message, positions[len(positions) - (left or len(self.toks))])

    def expect(self, text: str) -> None:
        """Take the next token, which must be `text` ("" for the end)."""
        tok = self.toks[-1]
        if tok != text:
            raise self.error(f"expected {text or 'end'!r}, found {tok or 'end of input'!r}")
        self.toks.pop()

    def natural(self) -> int:
        """The next token's value, taken; past int()'s digit limit, a parse error."""
        tok = self.toks[-1]
        try:
            value = int(tok)
        except ValueError:
            raise self.error(f"literal of {len(tok)} digits is too long") from None
        self.toks.pop()
        return value

    def lift(self, value) -> RatFun:
        return value if type(value) is not list else RatFun(self.poly(value))

    def poly(self, value: list) -> Poly:
        if not self.p:
            value = [c if type(c) is Fraction else Fraction(c) for c in value]
        return Poly._of(self.field, value)

    def scale(self, value: list, c) -> list:
        """c * value for a reduced, trimmed value and a nonzero scalar c."""
        p = self.p
        if value.count(0) == len(value) - 1:  # a monomial: one product, in place
            value[-1] = value[-1] * c % p if p else value[-1] * c
            return value
        return [a * c % p for a in value] if p else [a * c if a else a for a in value]

    def expr(self):
        toks, p = self.toks, self.p
        value = self.term()
        while toks[-1] == "+" or toks[-1] == "-":
            minus = toks.pop() == "-"
            rhs = self.term()
            if type(value) is not list or type(rhs) is not list:
                value, rhs = self.lift(value), self.lift(rhs)
                value = value - rhs if minus else value + rhs
            elif len(rhs) <= len(value) and rhs.count(0) == len(rhs) - 1:
                k = len(rhs) - 1  # rhs = c*x^k: one entry, in place
                c = value[k] - rhs[k] if minus else value[k] + rhs[k]
                value[k] = c % p if p else c
                trim(value)  # pops only a cancelled top entry
            else:
                value = mod_sub(value, rhs, p) if minus else mod_add(value, rhs, p)
        return value

    def term(self):
        toks, p = self.toks, self.p
        value = self.factor()
        while toks[-1] == "*" or toks[-1] == "/":
            left = len(toks)
            divide = toks.pop() == "/"
            rhs = self.factor()
            if divide and (not rhs if type(rhs) is list else rhs.is_zero):
                raise self.error("division by the zero polynomial", left)
            if type(value) is not list or type(rhs) is not list:
                value, rhs = self.lift(value), self.lift(rhs)
                value = value / rhs if divide else value * rhs
            elif divide:
                if len(rhs) > 1:
                    value = RatFun(self.poly(value), self.poly(rhs))
                elif value:
                    value = self.scale(value, pow(rhs[0], -1, p) if p else 1 / Fraction(rhs[0]))
            elif len(value) <= 1:
                value = self.scale(rhs, value[0]) if value else value
            elif len(rhs) <= 1:
                value = self.scale(value, rhs[0]) if rhs else rhs
            else:
                value = mod_mul(value, rhs, p)
        return value

    def factor(self):
        """A base and its power."""
        toks = self.toks
        tok = toks[-1]
        if tok == "x":
            toks.pop()
            value = [0, 1]
        elif tok == "(":
            toks.pop()
            value = self.expr()
            self.expect(")")
        elif tok.isdecimal():
            p = self.p
            value = self.natural() % p if p else self.natural()
            value = [value] if value else []
        else:
            raise self.error(f"expected 'x', an integer or '(', found "
                             f"{tok or 'end of input'!r}")
        if toks[-1] != "^":
            return value
        toks.pop()
        tok = toks[-1]
        if not tok.isdecimal():
            raise self.error(f"expected 'int', found {tok or 'end of input'!r}")
        n = self.natural()
        if type(value) is not list:
            degree = 0 if value.is_zero else value.degree
        else:
            degree = len(value) - 1 if value else 0
        if degree * n > MAX_POWER_DEGREE:
            raise PreconditionError(f"a power of degree {degree * n} exceeds the "
                                    f"bound {MAX_POWER_DEGREE} on a power's degree")
        if type(value) is not list:
            return value ** n
        return mod_pow(value, n, self.p)


def parse_expression(source: str, field: Field) -> RatFun:
    evaluator = _Evaluator(source, field)
    value = evaluator.expr()
    evaluator.expect("")
    return evaluator.lift(value)


# ---------------------------------------------------------------------------
# Printing (inverse of the parser, within the same grammar)


def _format_coeff(c) -> tuple[str, bool]:
    """Literal text for a coefficient's magnitude plus its sign flag.  A
    numerator or denominator past Python's int-to-str digit limit is a
    precondition error that names the limit."""
    negative = c < 0
    mag = -c if negative else c
    try:
        text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    except ValueError:  # the only ValueError of str(int)
        raise PreconditionError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, the "
            f"limit on int-to-str conversion (sys.get_int_max_str_digits())") from None
    return text, negative


def format_coeff(c) -> str:
    """Signed literal text of one coefficient: "-3/2", "256", a residue."""
    text, negative = _format_coeff(c)
    return f"-{text}" if negative else text


def format_poly(f: Poly) -> str:
    """Grammar-safe polynomial text.  A leading negative term is rendered as
    a subtraction from zero, since the grammar has no unary minus."""
    if f.is_zero:
        return "0"
    pieces: list[str] = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if not c:
            continue
        text, negative = _format_coeff(c)
        if i == 0:
            body = text
        else:
            power = "x" if i == 1 else f"x^{i}"
            body = power if text == "1" else f"{text}*{power}"
        if not pieces:
            pieces.append(f"0-{body}" if negative else body)
        else:
            pieces.append(f"-{body}" if negative else f"+{body}")
    return "".join(pieces)


def _needs_parens(text: str) -> bool:
    return any(op in text for op in "+-")


def format_ratfun(f: RatFun) -> str:
    num = format_poly(f.numerator)
    if f.denominator.degree == 0:
        return num
    den = format_poly(f.denominator)
    num_part = f"({num})" if _needs_parens(num) else num
    den_part = f"({den})" if (_needs_parens(den) or "*" in den) else den
    return f"{num_part}/{den_part}"
