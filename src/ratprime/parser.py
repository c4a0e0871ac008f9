"""Recursive-descent parser and printer for rational-function expressions.

Grammar (no implicit multiplication, '^' takes a natural-number literal):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' natural)?
    base   := 'x' | integer | '(' expr ')'

Integer literals map into the coefficient field (mod p over prime fields).
Every sub-expression without a division by a nonconstant is evaluated as a
`Poly`: '+', '-' and '*' are `Poly` operations, a constant factor or a
constant divisor is a `Poly.scale` (by the field inverse for '/'), and a
power of a monomial c*x^d is built as c^n*x^(d*n) without products.  Only a
division by a nonconstant builds a `RatFun`; from then on, an operation with
a `RatFun` operand lifts both sides to `RatFun`.  `parse_expression` makes
one `RatFun` of a polynomial result at the end.  A power whose degree
deg(base)*n exceeds MAX_POWER_DEGREE is a precondition error, raised before
the power is built.  The printer emits strings inside the same grammar, so
print-then-parse is the identity.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import PreconditionError, RatPrimeError
from .fields import Field
from .poly import Poly
from .ratfun import RatFun


class ParseError(RatPrimeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# the source splits into decimal literals, whitespace runs and single
# characters; \d and \s accept exactly what str.isdecimal and str.isspace
# accept, and a symbol or 'x' is its own token kind
_TOKEN = re.compile(r"\d+|\s+|\S")
_SYMBOLS = frozenset("+-*/^()x")

# the largest degree a power in an expression may have; (x+1)^500, the
# largest power in use, stays far below it
MAX_POWER_DEGREE = 10_000


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    for text in _TOKEN.findall(source):
        if text in _SYMBOLS:
            tokens.append((text, text, pos))
        elif text.isdecimal():
            tokens.append(("int", text, pos))
        elif not text.isspace():
            raise ParseError(f"unexpected character {text!r}", pos)
        pos += len(text)
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, field: Field):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def natural(tok) -> int:
        """An integer token's value; past int()'s digit limit, a parse error."""
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"literal of {len(tok[1])} digits is too long", tok[2]) from None

    def expr(self) -> Poly | RatFun:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])
            rhs = self.term()
            if isinstance(value, RatFun) or isinstance(rhs, RatFun):
                value, rhs = _lift(value), _lift(rhs)
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self) -> Poly | RatFun:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])
            rhs = self.factor()
            divide = op[0] == "/"
            if divide and rhs.is_zero:
                raise ParseError("division by the zero polynomial", op[2])
            if isinstance(value, RatFun) or isinstance(rhs, RatFun):
                value, rhs = _lift(value), _lift(rhs)
                value = value / rhs if divide else value * rhs
            elif divide:
                value = (RatFun(value, rhs) if rhs.degree > 0 else
                         value.scale(self.field.div(self.field.one, rhs.coeffs[0])))
            elif value.degree <= 0:
                value = rhs.scale(value.coeff(0))
            elif rhs.degree <= 0:
                value = value.scale(rhs.coeff(0))
            else:
                value = value * rhs
        return value

    def factor(self) -> Poly | RatFun:
        value = self.base()
        if self.peek()[0] == "^":
            self.take("^")
            n = self.natural(self.take("int"))
            degree = 0 if value.is_zero else value.degree
            if degree * n > MAX_POWER_DEGREE:
                raise PreconditionError(f"a power of degree {degree * n} exceeds the "
                                        f"bound {MAX_POWER_DEGREE} on a power's degree")
            value = value ** n
        return value

    def base(self) -> Poly | RatFun:
        tok = self.peek()
        if tok[0] == "x":
            self.take("x")
            return Poly.x(self.field)
        if tok[0] == "int":
            return Poly.constant(self.field, self.natural(self.take("int")))
        if tok[0] == "(":
            self.take("(")
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"expected 'x', an integer or '(', found "
                         f"{tok[1] or 'end of input'!r}", tok[2])


def _lift(value: Poly | RatFun) -> RatFun:
    return value if isinstance(value, RatFun) else RatFun(value)


def parse_expression(source: str, field: Field) -> RatFun:
    parser = _Parser(_tokenize(source), field)
    value = parser.expr()
    parser.take("end")
    return _lift(value)


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
