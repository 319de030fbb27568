"""Textual input: field specifications and Laurent-series expressions.

Field specs: ``Fp:3``, ``Fq:9:w^2+1`` (modulus over F_p), ``Fp(u):3``.
Series: signed sums of terms, each a product of coefficient literals
and powers of t, e.g. ``t^-4 + u*t^-2`` or ``(w+1)*t^2 + 2``.
Coefficient literals use +, -, *, /, integer powers and parentheses
over integers and the field variable.  Whitespace is ignored.
"""

from __future__ import annotations

import re

from .errors import FieldLiteralError, InvalidSpec, ParseError
from .fields import ORDER_LIMIT, FieldSpec, _is_prime
from .series import LaurentSeries

# the largest degree a power of an F_p(u) literal may reach
DEGREE_LIMIT = 4096
# the largest series precision an input may declare.  No report reads it (a
# report reads the exact principal part of f), so it only keeps the range of
# accepted inputs finite
PREC_LIMIT = 10_000
# the deepest nesting of parentheses a coefficient or modulus may have:
# the grammar recurses three calls per level
NESTING_LIMIT = 200

# one token per match; where no token starts after the whitespace, the
# empty lookahead matches and its end is the offset of the bad character
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([-+*/^()])|(?=\S))")
_TOKEN_KINDS = (None, "int", "name", "op")


def _tokenize(text):
    """The (kind, value, offset) tokens of ``text`` in one pass, closed by
    an end token; ParseError names the first character that starts no
    token, at its own offset."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        if i is None:
            pos = m.end()
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        value = m.group(i)
        tokens.append((_TOKEN_KINDS[i], int(value) if i == 1 else value, m.start(i)))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Evaluates the restricted grammar directly: coefficients are exact
    field elements and t-exponents are integers, so precision plays no
    role until the final assembly."""

    def __init__(self, text, field):
        self.tokens = _tokenize(text)
        self.i = 0
        self.field = field
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            return self.next()
        raise ParseError(f"expected {op!r}", pos)

    def fail(self, message):
        raise ParseError(message, self.peek()[2])

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def signed_int(self):
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        self.next()
        return sign * val

    def parse(self, prec):
        coeffs = {}
        if self.peek()[0] == "end":
            self.fail("empty series expression")
        negate = False
        if self.at_op("+", "-"):
            negate = self.next()[1] == "-"
        while True:
            exp, coef = self.term()
            if negate:
                coef = -coef
            cur = coeffs.get(exp)
            coeffs[exp] = coef if cur is None else cur + coef
            kind, val, pos = self.peek()
            if kind == "end":
                break
            if kind == "op" and val in "+-":
                self.next()
                negate = val == "-"
                continue
            raise ParseError("expected '+', '-' or end of expression", pos)
        return LaurentSeries(self.field, coeffs, prec)

    def term(self):
        """One product of t-powers and coefficient factors."""
        exp = 0
        coef = self.field.one()
        invert = False
        while True:
            kind, val, pos = self.peek()
            if kind == "name" and val == "t":
                self.next()
                e = 1
                if self.at_op("^"):
                    self.next()
                    e = self.signed_int()
                exp += -e if invert else e
            else:
                factor = self.coef_factor()
                coef = coef / factor if invert else coef * factor
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                invert = val == "/"
                continue
            return exp, coef

    def coef_factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(f"parentheses nested deeper than {NESTING_LIMIT}", pos)
            self.next()
            self.depth += 1
            out = self.coef_expr()
            self.expect_op(")")
            self.depth -= 1
        elif kind == "int":
            self.next()
            out = self.field.from_int(val)
        elif kind == "name":
            if val != self.field.var:
                raise FieldLiteralError(
                    f"unknown symbol {val!r}; this field uses {self.field.var!r}", pos
                )
            self.next()
            out = self.field.generator() if not self.field.is_finite else self._finite_gen(pos)
        else:
            raise ParseError("expected a coefficient or t-power", pos)
        if self.at_op("^"):
            self.next()
            n = self.signed_int()
            # a power in F_p(u) costs the square of its degree
            degree = max(len(out._a), len(out._b)) - 1 if not self.field.is_finite else 0
            if abs(n) * degree > DEGREE_LIMIT:
                raise ParseError(f"a power of degree above {DEGREE_LIMIT}", pos)
            out = out ** n
        return out

    def _finite_gen(self, pos):
        if self.field.degree < 2:
            raise FieldLiteralError(
                f"the prime field F_{self.field.p} has no symbol {self.field.var!r}", pos
            )
        return self.field.generator()

    def coef_expr(self):
        acc = self.coef_term()
        while self.at_op("+", "-"):
            op = self.next()[1]
            rhs = self.coef_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def coef_term(self):
        negate = False
        while self.at_op("-", "+"):
            negate ^= self.next()[1] == "-"
        acc = self.coef_factor()
        while self.at_op("*", "/"):
            op = self.next()[1]
            rhs = self.coef_factor()
            acc = acc * rhs if op == "*" else acc / rhs
        return -acc if negate else acc


def parse_series(text, field, prec):
    """Parse a series expression over the given field at the given
    precision; raises ParseError/FieldLiteralError with offsets."""
    if prec < 1:
        raise ParseError("precision must be at least 1")
    if prec > PREC_LIMIT:
        raise ParseError(f"precision above the limit {PREC_LIMIT}")
    return _Parser(text, field).parse(prec)


def _parse_modulus(text, p):
    """A polynomial literal like ``w^2+1`` into (coeffs, var), read by
    the coefficient grammar over F_p(var): ``var`` is the first name in
    the text, or w when there is none."""
    parser = _Parser(text, None)
    var = next((val for kind, val, _ in parser.tokens if kind == "name"), "w")
    parser.field = FieldSpec.rational(p, var)
    poly = parser.coef_expr()
    if parser.peek()[0] != "end":
        parser.fail("expected '+', '-' or end of modulus")
    if poly._b != (1,):
        raise ParseError("the modulus must be a polynomial")
    return list(poly._a), var


def _iroot(q, m):
    """The largest r with r^m <= q, for q >= 1."""
    lo, hi = 1, 1 << (q.bit_length() // m + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** m <= q:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factor_prime_power(q):
    """(p, m) with q = p^m and p prime; InvalidSpec otherwise, and for
    q >= 2^64, beyond which primality is not decided exactly."""
    if q >= ORDER_LIMIT:
        raise InvalidSpec(f"field order {q} is not below 2^64")
    # p >= 2 bounds m below the bit length of q
    for m in range(1, q.bit_length()):
        p = _iroot(q, m)
        if p ** m == q and _is_prime(p):
            return p, m
    raise InvalidSpec(f"{q} is not a prime power")


def parse_field_spec(text):
    """``Fp:3`` | ``Fq:9:w^2+1`` | ``Fp(u):3`` into a FieldSpec."""
    text = text.strip()
    m = re.fullmatch(r"Fp:(\d+)", text)
    if m:
        return FieldSpec.finite(int(m.group(1)))
    m = re.fullmatch(r"Fp\((\w+)\):(\d+)", text)
    if m:
        return FieldSpec.rational(int(m.group(2)), var=m.group(1))
    m = re.fullmatch(r"Fq:(\d+):(.+)", text)
    if m:
        p, deg = factor_prime_power(int(m.group(1)))
        coeffs, var = _parse_modulus(m.group(2), p)
        if len(coeffs) != deg + 1:
            raise InvalidSpec(f"the modulus of F_{p ** deg} must have degree {deg}")
        if deg == 1:
            return FieldSpec.finite(p)
        return FieldSpec.finite(p, deg, coeffs, var=var)
    m = re.fullmatch(r"Fq:(\d+)", text)
    if m:
        return FieldSpec.finite(*factor_prime_power(int(m.group(1))))
    raise ParseError(
        "field spec must look like Fp:3, Fq:9:w^2+1 or Fp(u):3"
    )
