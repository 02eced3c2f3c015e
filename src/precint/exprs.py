"""Surface syntax: parsing and canonical printing of operators, elements,
polynomials, rational functions, and points.

The grammar accepts integers, `x`, the shift symbol `S`, `+ - * / ^` and
parentheses.  Multiplication is the noncommutative operator product, so
`S*x` parses to `(x+1)*S`.  Division is only allowed by shift-free
(order-zero) expressions, which keeps `S` out of denominators.  Printing is
canonical: coefficients are coprime with monic denominator, terms ascend in
powers of `S`, and polynomials ascend in powers of the variable, so printed
output reparses to an equal value (unless it holds an integer longer than
the 4300 digits the tokenizer accepts).

A point is a constant expression or `root(<poly>)` with an optional
integer offset, read on the same token stream as an operator, so an error
names its position in the whole text.  An orbit is named by `Z`, by a
nonconstant irreducible polynomial (the orbit of its roots) or by any of
its points, so `0`, `x+7` and `root(x-3)-3` all name `Z`, and
`root(x^2-2*x-1)` names the orbit of `x^2-2`: `parse_orbit` reads every
name to the orbit point that `AlgebraicPoint`'s normalization gives.  The
name does not set the order in which a global run processes orbits, which
is by descending degree (`valuation.detect_orbits`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .fields import (
    MAX_FIELD_DEGREE,
    AlgebraicPoint,
    NFElem,
    Poly,
    RationalFunction,
    is_irreducible,
)
from .ore import OreOperator, QuotientElement

# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


# Digits per chunk when an integer is longer than the interpreter's limit on
# str(int) (4300 digits by default, never below 640 when set).
_DIGIT_CHUNK = 600


def _int_str(n: int) -> str:
    """str(n), also past the interpreter's limit on int-to-str conversion,
    which coefficients of far right bounds exceed (`x*(x-99) + S + S^2`
    at `Z=99`)."""
    try:
        return str(n)
    except ValueError:
        chunks, rest = [], abs(n)
        while rest:
            rest, low = divmod(rest, 10 ** _DIGIT_CHUNK)
            chunks.append(str(low).zfill(_DIGIT_CHUNK))
        return ("-" if n < 0 else "") + "".join(reversed(chunks)).lstrip("0")


def _coeff_str(c, compact: bool) -> tuple:
    """Render a constant; returns (text, is_atomic).

    Rationals are atomic: `-3/4*x` reparses to the same value because `^`,
    `*` and `/` bind tighter than addition and unary minus distributes.
    Genuine number-field constants need parentheses.
    """
    if isinstance(c, NFElem):
        p = c.poly
        if p.degree < 1:
            return _coeff_str(p[0], compact)
        return poly_str(p, "t", compact=compact), False
    c = Fraction(c)
    if c.denominator == 1:
        return _int_str(c.numerator), True
    return f"{_int_str(c.numerator)}/{_int_str(c.denominator)}", True


def poly_str(p: Poly, var: str, compact: bool = False) -> str:
    """Ascending-power canonical form, e.g. ``-2 + 3*x + x^2``."""
    terms = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        ctext, atomic = _coeff_str(c, compact)
        if k == 0:
            terms.append(ctext if atomic else f"({ctext})")
            continue
        vpart = var if k == 1 else f"{var}^{k}"
        if c == 1:
            terms.append(vpart)
        elif c == -1:
            terms.append(f"-{vpart}")
        elif atomic:
            terms.append(f"{ctext}*{vpart}")
        else:
            terms.append(f"({ctext})*{vpart}")
    return _join_terms(terms, compact)


def _join_terms(terms, compact: bool) -> str:
    """Join printed terms with plus signs, folding a leading minus of a
    later term into the sign between; "0" for no terms."""
    if not terms:
        return "0"
    plus = "+" if compact else " + "
    minus = "-" if compact else " - "
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += minus + t[1:]
        else:
            out += plus + t
    return out


def _term_count(p: Poly) -> int:
    return sum(1 for c in p.coeffs if c != 0)


def rf_str(f: RationalFunction, var: str, compact: bool = False) -> str:
    """Canonical string of a rational function, parseable by this module."""
    num = poly_str(f.num, var, compact)
    if f.den == Poly.one():
        return num
    den = poly_str(f.den, var, compact)
    if _term_count(f.num) > 1:
        num = f"({num})"
    if _term_count(f.den) > 1:
        den = f"({den})"
    return f"{num}/{den}"


def _rf_is_atomic(f: RationalFunction) -> bool:
    # safe to prefix "*S^k" without parentheses: `*` and `/` are
    # left-associative at one precedence level, so "a/b*S" is (a/b)*S and
    # only a bare multi-term numerator needs wrapping
    if f.den != Poly.one():
        return True
    if _term_count(f.num) != 1:
        return False
    return not isinstance(f.num.leading, NFElem)


def element_str(coords, compact: bool = False) -> str:
    """Print coordinates against the standard basis 1, S, S^2, ..."""
    terms = []
    for k, c in enumerate(coords):
        if c.is_zero:
            continue
        if k == 0:
            terms.append(rf_str(c, "x", compact))
            continue
        spart = "S" if k == 1 else f"S^{k}"
        if c == RationalFunction.one():
            terms.append(spart)
        elif _rf_is_atomic(c):
            terms.append(f"{rf_str(c, 'x', compact)}*{spart}")
        else:
            terms.append(f"({rf_str(c, 'x', compact)})*{spart}")
    return _join_terms(terms, compact)


def operator_str(op: OreOperator, compact: bool = False) -> str:
    return element_str(op.coeffs, compact)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()=]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped)
                raise ParseError("unexpected character", text, bad_at)
            if m.group(1) is not None:
                try:
                    value = int(m.group(1))
                except ValueError:  # past the interpreter's digit limit
                    raise ParseError("integer literal is too long", text,
                                     m.start(1)) from None
                self.items.append(("int", value, m.start(1)))
            elif m.group(2) is not None:
                self.items.append(("name", m.group(2), m.start(2)))
            else:
                self.items.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.items):
            return self.items[self.index]
        return ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.next()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", self.text, pos)

    def error(self, message: str) -> ParseError:
        _, _, pos = self.peek()
        return ParseError(message, self.text, pos)


# ---------------------------------------------------------------------------
# Operator expression parser
# ---------------------------------------------------------------------------


# The largest degree in x, order in S and exponent a power may have.  A
# power is built by repeated squaring, so without a bound `x^99999999+S`
# would exhaust memory before the parser returns (`x^3000` alone took
# 2.8 s); the corpus and the tests use exponents below 10.
MAX_POWER = 100


def _check_power(base: OreOperator, exponent: int, text: str, position: int) -> None:
    """Refuse base^exponent before it is built when its degree in x, its
    order in S or the exponent itself exceeds MAX_POWER."""
    degree = max((max(c.num.degree, c.den.degree) for c in base.coeffs), default=0)
    size = exponent * max(1, degree, base.order)
    if size > MAX_POWER:
        raise ParseError(
            f"power too large: exponent {exponent} of a base of degree {degree} "
            f"in x and order {max(0, base.order)} in S exceeds the limit of "
            f"{MAX_POWER} on the degree, the order and the exponent of a power",
            text, position)


class _OperatorParser:
    """Recursive descent over OreOperator values; `*` is the skew product."""

    def __init__(self, text: str, allow_shift: bool = True):
        self.tokens = _Tokens(text)
        self.allow_shift = allow_shift

    def parse(self) -> OreOperator:
        value = self._expr()
        kind, _, pos = self.tokens.peek()
        if kind != "end":
            raise ParseError("trailing input", self.tokens.text, pos)
        return value

    def _expr(self) -> OreOperator:
        value = self._term()
        while True:
            kind, sym, _ = self.tokens.peek()
            if kind == "op" and sym in "+-":
                self.tokens.next()
                rhs = self._term()
                value = value + rhs if sym == "+" else value - rhs
            else:
                return value

    def _term(self) -> OreOperator:
        value = self._unary()
        while True:
            kind, sym, pos = self.tokens.peek()
            if kind == "op" and sym == "*":
                self.tokens.next()
                value = value * self._unary()
            elif kind == "op" and sym == "/":
                self.tokens.next()
                divisor = self._unary()
                if divisor.order > 0:
                    raise ParseError(
                        "division by an expression containing S", self.tokens.text, pos
                    )
                if divisor.is_zero:
                    raise ParseError("division by zero", self.tokens.text, pos)
                value = value.scaled_left(divisor.coeffs[0].reciprocal())
            else:
                return value

    def _unary(self) -> OreOperator:
        kind, sym, _ = self.tokens.peek()
        if kind == "op" and sym == "-":
            self.tokens.next()
            return -self._unary()
        if kind == "op" and sym == "+":
            self.tokens.next()
            return self._unary()
        return self._power()

    def _power(self) -> OreOperator:
        base = self._atom()
        while True:
            kind, sym, pos = self.tokens.peek()
            if kind == "op" and sym == "^":
                self.tokens.next()
                kind2, value, pos2 = self.tokens.next()
                if kind2 != "int":
                    raise ParseError("exponent must be a nonnegative integer",
                                     self.tokens.text, pos2)
                _check_power(base, value, self.tokens.text, pos2)
                base = base ** value
            else:
                return base

    def _atom(self) -> OreOperator:
        kind, value, pos = self.tokens.next()
        if kind == "int":
            return OreOperator.constant(Fraction(value))
        if kind == "op" and value == "(":
            inner = self._expr()
            self.tokens.expect_op(")")
            return inner
        if kind == "name":
            if value == "x":
                return OreOperator.constant(RationalFunction.x())
            if value == "S":
                if not self.allow_shift:
                    raise ParseError("S is not allowed here", self.tokens.text, pos)
                return OreOperator.shift()
            raise ParseError(f"unknown symbol {value!r}", self.tokens.text, pos)
        raise ParseError("expected a value", self.tokens.text, pos)


def parse_operator(text: str) -> OreOperator:
    """Parse an operator expression such as ``(x+2)^2 + x*S^2 + (x+2)*S^3``."""
    return _OperatorParser(text).parse()


def parse_element(text: str, order: int) -> QuotientElement:
    """Parse a shift-free-denominator expression as a residue-class element of
    order < `order`."""
    op = parse_operator(text)
    if op.order >= order:
        raise ParseError(
            f"element has order {op.order} but must have order < {order}; "
            "reduce it modulo the operator first",
            text,
            0,
        )
    coords = list(op.coeffs) + [RationalFunction.zero()] * (order - len(op.coeffs))
    return QuotientElement(tuple(coords))


def parse_point(text: str) -> AlgebraicPoint:
    """Parse a point: ``root(<poly>)`` plus an optional integer offset, or a
    constant expression such as ``-3/4`` or ``(1+1)/3``.  Both are read on
    one token stream, so an error names its position in the whole text.
    A polynomial above `MAX_FIELD_DEGREE` is refused by its degree alone,
    reducible or not, before any factoring."""
    parser = _OperatorParser(text, allow_shift=False)
    tokens = parser.tokens
    kind, value, pos = tokens.peek()
    if not (kind == "name" and value == "root"):
        op = parser.parse()
        c = op.coeffs[0] if op.coeffs else RationalFunction.zero()
        if c.den != Poly.one() or c.num.degree > 0:
            raise ParseError("expected a rational point or root(...)", text, 0)
        return AlgebraicPoint.from_rational(c.num[0])
    tokens.next()
    tokens.expect_op("(")
    inner_at = tokens.peek()[2]
    f = parser._expr()
    tokens.expect_op(")")
    f = f.coeffs[0] if f.coeffs else RationalFunction.zero()
    if f.den != Poly.one():
        raise ParseError("expected a polynomial, not a quotient", text, inner_at)
    poly = f.num.monic()
    if poly.degree <= MAX_FIELD_DEGREE and not is_irreducible(poly):
        raise ParseError("root() requires an irreducible polynomial", text, pos)
    offset = 0
    kind, sym, _ = tokens.peek()
    if kind == "op" and sym in "+-":
        tokens.next()
        kind, n, pos = tokens.next()
        if kind != "int":
            raise ParseError("expected an integer offset", text, pos)
        offset = n if sym == "+" else -n
    kind, _, pos = tokens.peek()
    if kind != "end":
        raise ParseError("trailing input after point", text, pos)
    return AlgebraicPoint(poly, offset)


def parse_orbit(text: str) -> AlgebraicPoint:
    """Parse the name of an orbit rho + Z and return the orbit, its point
    of offset 0.  The name is ``Z``, a nonconstant irreducible polynomial
    (the orbit of its roots) or a point of the orbit as `parse_point`
    reads it; `AlgebraicPoint` normalizes each, so every name of one orbit
    gives the same point.  A polynomial above `MAX_FIELD_DEGREE` is refused
    by its degree alone, as in `parse_point`."""
    if text.strip() == "Z":
        return AlgebraicPoint.from_rational(0)
    parser = _OperatorParser(text, allow_shift=False)
    kind, value, _ = parser.tokens.peek()
    if not (kind == "name" and value == "root"):
        op = parser.parse()
        f = op.coeffs[0] if op.coeffs else RationalFunction.zero()
        if f.den != Poly.one():
            raise ParseError("expected a polynomial, not a quotient", text, 0)
        if f.num.degree > 0:
            poly = f.num.monic()
            if poly.degree <= MAX_FIELD_DEGREE and not is_irreducible(poly):
                raise ParseError("orbit key must be an irreducible polynomial", text, 0)
            return AlgebraicPoint(poly, 0).orbit()
    return parse_point(text).orbit()
