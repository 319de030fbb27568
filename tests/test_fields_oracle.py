"""The integer-coded F_q core against coefficient-vector arithmetic.

The oracle keeps an element of F_p[w]/(modulus) as its coefficient
vector and multiplies with plain polynomial arithmetic; a prime field is
F_p[w]/(w).  Every operation of the table-driven core must agree with it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ramify.errors import DivisionByZero, InvalidSpec
from ramify.fields import (
    DEFAULT_MODULI,
    FieldSpec,
    _pdivmod,
    _pmul,
    artin_schreier_solvable,
    frobenius_root,
    trace_to_prime,
)
from ramify.parsing import parse_field_spec

FIELDS = (
    [FieldSpec.finite(p, m) for (p, m) in sorted(DEFAULT_MODULI)]
    + [parse_field_spec("Fq:27:a^3+2*a+2")]
    + [FieldSpec.finite(p) for p in (2, 3, 7, 1000000007)]
)


class Oracle:
    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.m = field.degree
        self.modulus = field.modulus or (0, 1)

    def vec(self, index):
        out = []
        for _ in range(self.m):
            index, digit = divmod(index, self.p)
            out.append(digit)
        return tuple(out)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        rem = _pdivmod(_pmul(_strip(a), _strip(b), self.p), self.modulus, self.p)[1]
        return tuple(rem) + (0,) * (self.m - len(rem))

    def pow(self, a, n):
        out = self.vec(1)
        for bit in bin(n)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inverse(self, a):
        return self.pow(a, self.field.order - 2)

    def render(self, a):
        var = self.field.var
        parts = []
        for e in range(self.m - 1, -1, -1):
            c = a[e]
            if c:
                mono = "" if e == 0 else var if e == 1 else f"{var}^{e}"
                parts.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
        return "+".join(parts) or "0"


def _strip(a):
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


@st.composite
def field_and_indices(draw, count=2):
    field = draw(st.sampled_from(FIELDS))
    indices = [draw(st.integers(0, field.order - 1)) for _ in range(count)]
    return field, indices


def _pair(field, oracle, index):
    vec = oracle.vec(index)
    return field.from_vector(vec), vec


def _agree(elem, vec, oracle):
    assert elem == oracle.field.from_vector(vec)
    assert str(elem) == oracle.render(vec)


@settings(max_examples=400, deadline=None)
@given(field_and_indices(), st.integers(-40, 40))
def test_arithmetic_matches_the_vector_oracle(case, n):
    field, (i, j) = case
    oracle = Oracle(field)
    x, a = _pair(field, oracle, i)
    y, b = _pair(field, oracle, j)
    _agree(x + y, oracle.add(a, b), oracle)
    _agree(x - y, oracle.add(a, oracle.neg(b)), oracle)
    _agree(-x, oracle.neg(a), oracle)
    _agree(x * y, oracle.mul(a, b), oracle)
    assert (x == y) == (a == b)
    assert (x + y == 0) == (oracle.add(a, b) == oracle.vec(0))
    q = field.order
    if any(a):
        _agree(x.inverse(), oracle.inverse(a), oracle)
        _agree(y / x, oracle.mul(b, oracle.inverse(a)), oracle)
        for k in (n, q - 1, 1 - q, q, -q):
            power = oracle.pow(a, k) if k >= 0 else oracle.pow(oracle.inverse(a), -k)
            _agree(x ** k, power, oracle)
    else:
        assert x.is_zero() and not x
        for k in (abs(n), q - 1, q):
            _agree(x ** k, oracle.pow(a, k), oracle)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_powers_of_zero(field):
    zero = field.zero()
    assert zero ** 0 == field.one() and zero ** 3 == zero
    with pytest.raises(DivisionByZero):
        zero ** -1


@settings(max_examples=200, deadline=None)
@given(field_and_indices(count=1))
def test_enumeration_and_vectors_round_trip(case):
    field, (i,) = case
    oracle = Oracle(field)
    vec = oracle.vec(i)
    elem = field.element_at(i)
    assert elem == field.from_vector(vec)
    assert field.element_at(i + field.order) == elem
    assert str(elem) == oracle.render(vec)
    assert hash(elem) == hash(field.from_vector(list(vec)))


@settings(max_examples=200, deadline=None)
@given(field_and_indices(count=1))
def test_frobenius_trace_and_artin_schreier(case):
    field, (i,) = case
    oracle = Oracle(field)
    c, vec = _pair(field, oracle, i)
    root = frobenius_root(c)
    _agree(root, oracle.pow(vec, field.order // field.p), oracle)
    assert root ** field.p == c
    acc, x = oracle.vec(0), vec
    for _ in range(field.degree):
        acc, x = oracle.add(acc, x), oracle.pow(x, field.p)
    assert acc[1:] == (0,) * (field.degree - 1)
    assert trace_to_prime(c) == acc[0]
    if field.order <= 125:
        solvable = any(
            oracle.add(oracle.pow(oracle.vec(k), field.p), oracle.neg(oracle.vec(k))) == vec
            for k in range(field.order)
        )
    else:  # a large prime field: x^p - x vanishes identically
        solvable = not any(vec)
    assert artin_schreier_solvable(c) == solvable


def test_every_finite_field_is_exhausted_against_the_oracle():
    """Multiplication and addition tables of the small fields, in full."""
    for field in FIELDS:
        if field.order > 27:
            continue
        oracle = Oracle(field)
        for i in range(field.order):
            x, a = _pair(field, oracle, i)
            for j in range(field.order):
                y, b = _pair(field, oracle, j)
                assert x * y == field.from_vector(oracle.mul(a, b))
                assert x + y == field.from_vector(oracle.add(a, b))


def test_field_specs_are_interned():
    assert parse_field_spec("Fq:9:w^2+1") is FieldSpec.finite(3, 2)
    assert parse_field_spec("Fp:7") is FieldSpec.finite(7)
    assert FieldSpec.rational(3) is FieldSpec.rational(3, var="u")
    assert FieldSpec.finite(3, 2) is not FieldSpec.finite(3, 2, (2, 1, 1))
    assert FieldSpec.finite(3, 2) is not FieldSpec.finite(3, 2, var="v")
    assert hash(FieldSpec.finite(3, 2)) == hash((3, "finite", 2, (1, 0, 1), "w"))
    with pytest.raises(InvalidSpec):
        FieldSpec.finite(2, 2, (1, 0, 1))  # w^2+1 = (w+1)^2 over F_2
    with pytest.raises(InvalidSpec):
        FieldSpec.finite(2, 2, (1, 0, 1))  # a failed spec is never interned


def test_table_fields_are_capped_at_two_to_the_sixteen():
    big = FieldSpec.finite(2, 16, (1, 1, 0, 1) + (0,) * 8 + (1,) + (0,) * 3 + (1,))
    w = big.generator()
    assert w ** (2 ** 16 - 1) == 1 and w.inverse() * w == 1
    with pytest.raises(InvalidSpec):
        FieldSpec.finite(2, 17, (1, 0, 0, 1) + (0,) * 13 + (1,))
    with pytest.raises(InvalidSpec):
        parse_field_spec("Fq:177147:w^11+2*w+1")  # 3^11
    with pytest.raises(InvalidSpec):
        FieldSpec.finite(2 ** 64 + 13)
