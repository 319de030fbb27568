"""F_p(u) reduction over the per-field coprime base, against Euclid.

``FieldSpec._rat``, element ``+`` and ``*`` and the F_p(u) kernel reduce
through ``_CoprimeBase.cancel``; the oracles are copies of the gcd-based
``_rat`` and Henrici ``+`` and ``*`` they replaced.  Canonical forms are
unique, so the (num, den) pairs must be identical.  Each test starts
from a field of its own, whose base is empty, so that the base holds
reducible elements that a later operand forces to split.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramify.fields import FieldSpec, _pdivmod, _pmul, _trim
from ramify.series import LaurentSeries, dot

from oracles import (
    assert_base_consistent,
    assert_canonical,
    cancelling_mul,
    euclid_rat,
    henrici_add,
    henrici_mul,
    long_divmod,
)

_fresh = itertools.count()


def fresh_field(p):
    """F_p(u) under a variable name no other test uses: an empty base."""
    return FieldSpec.rational(p, var=f"u{next(_fresh)}")


# Small monic factors per p: linear and irreducible ones, and reducible
# ones that a base may hold unsplit (u^2+2 = (u+1)(u+2) over F_3,
# u^2+u = u(u+1) over F_2, u^2+4 = (u+1)(u+4) over F_5).
FACTORS = {
    2: [(0, 1), (1, 1), (1, 1, 1), (1, 1, 0, 1), (0, 1, 1), (1, 0, 1, 1)],
    3: [(0, 1), (1, 1), (2, 1), (1, 0, 1), (2, 0, 1), (2, 2, 0, 1), (0, 2, 1)],
    5: [(0, 1), (1, 1), (4, 1), (2, 0, 1), (4, 0, 1), (1, 1, 1), (4, 0, 0, 1)],
}


# Squarefree reducible polynomials: a base primed with their products holds
# them unsplit until an operand shares a proper factor with one.
REDUCIBLE = {
    2: [(0, 1, 1), (0, 1, 1, 1), (1, 0, 0, 1)],
    3: [(2, 0, 1), (0, 2, 1)],
    5: [(4, 0, 1), (4, 0, 0, 1)],
}


@st.composite
def factored(draw, p, max_degree=40, factors=FACTORS):
    """A monic product of factors from factors[p], repeats included, of
    degree at most max_degree."""
    out = (1,)
    for _ in range(draw(st.integers(0, 8))):
        f = draw(st.sampled_from(factors[p]))
        for _ in range(draw(st.integers(1, 6))):
            if len(out) + len(f) - 2 > max_degree:
                break
            out = _pmul(out, f, p)
    return out


@st.composite
def fraction(draw, p):
    """(num, den), unreduced: a random polynomial times a product of
    factors over a product of factors scaled by a unit."""
    coeff = st.integers(0, p - 1)
    head = tuple(draw(st.lists(coeff, max_size=4)))
    num = _pmul(head, draw(factored(p, 20)), p)
    unit = draw(st.integers(1, p - 1))
    den = tuple(c * unit % p for c in draw(factored(p)))
    return num, den


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rat_add_mul_and_dot_match_euclid(p, data):
    """Over a base primed with products of reducible factors, ``_rat``,
    ``+``, ``*``, the inverse and a one-pair ``dot`` give the canonical
    pairs of the gcd-based code, and the base stays coprime."""
    field = fresh_field(p)
    for den in data.draw(st.lists(factored(p, 12, REDUCIBLE), max_size=2)):
        field.from_polys((1,), den)  # the base now holds den's pieces unsplit
    raw = [data.draw(fraction(p)) for _ in range(3)]
    elems = []
    for num, den in raw:
        x = field._rat(num, den)
        assert (x._a, x._b) == euclid_rat(p, num, den)
        assert_canonical(x)
        elems.append(x)
    pairs = [(x._a, x._b) for x in elems]
    for (x, px), (y, py) in itertools.permutations(zip(elems, pairs), 2):
        for result, expected in ((x + y, henrici_add(p, px, py)), (x * y, henrici_mul(p, px, py))):
            assert (result._a, result._b) == expected
            assert_canonical(result)
            elems.append(result)
        if x:
            inv = x.inverse()
            assert (inv._a, inv._b) == euclid_rat(p, x._b, x._a)
            assert_canonical(inv)
            elems.append(inv)
    # up to three products meet at one exponent of the kernel's sum
    a = LaurentSeries(field, {0: elems[0], 1: elems[1], 2: elems[3]}, 5)
    b = LaurentSeries(field, {0: elems[2], 1: elems[0], 2: elems[4]}, 5)
    result = dot([(a, b)])
    expected = {}
    for (e1, c1), (e2, c2) in itertools.product(a.coeffs.items(), b.coeffs.items()):
        term = henrici_mul(p, (c1._a, c1._b), (c2._a, c2._b))
        expected[e1 + e2] = henrici_add(p, expected.get(e1 + e2, ((), (1,))), term)
    assert {e: (c._a, c._b) for e, c in result.coeffs.items()} == {
        e: pair for e, pair in expected.items() if pair[0] and e < result.prec
    }
    for c in result.coeffs.values():
        assert_canonical(c)
        elems.append(c)
    field._base.vectors(elems)
    assert_base_consistent(field, elems)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_constant_of_f_p_scales_the_numerator_as_the_cancelling_product(p, data):
    """c * x and x * c, for c in {1, p - 1, random} of F_p and x in F_p(u),
    give the canonical pair of the product that cancelled c against x's
    denominator; x's denominator and cached vector carry over, and the
    vector stays valid, stamped or not."""
    field = fresh_field(p)
    for den in data.draw(st.lists(factored(p, 12, REDUCIBLE), max_size=2)):
        field.from_polys((1,), den)
    x = field._rat(*data.draw(fraction(p)))
    if data.draw(st.booleans(), label="stamped"):
        field._base.vector(x)
    c = field.from_int(data.draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1), label="c"))
    products = []
    for left, right in ((c, x), (x, c)):
        got, want = left * right, cancelling_mul(left, right)
        assert (got._a, got._b) == (want._a, want._b)
        assert_canonical(got)
        if x:
            assert got._b == x._b and got._v is x._v
        products.append(got)
    assert_base_consistent(field, [x, *products])


U2_PLUS_2 = (2, 0, 1)  # (u+1)(u+2) over F_3


def primed_f3():
    """A fresh F_3(u) whose base is exactly {u^2+2}, unsplit, and the
    element u/(u^2+2)."""
    field = fresh_field(3)
    x = field.from_polys((0, 1), U2_PLUS_2)
    assert field._base.polys == [U2_PLUS_2]
    assert (x._a, x._b) == ((0, 1), U2_PLUS_2)
    return field, x


@pytest.mark.parametrize("path", ["mul", "rat", "dot"])
def test_partial_split_of_a_reducible_base_element(path):
    """u/(u^2+2) * (u+1) = u/(u+2) over F_3: the numerator shares only
    the factor u+1 with the base element u^2+2, which must split."""
    field, x = primed_f3()
    base = field._base
    stamp = x._v
    one_plus_u = field.from_polys((1, 1))
    if path == "mul":
        result = x * one_plus_u
    elif path == "rat":
        result = field._rat((0, 1, 1), U2_PLUS_2)
    else:
        # the exponent that cancels first splits u^2+2; the other one's
        # group vectors, read before the split, are translated
        a = LaurentSeries(field, {0: x, 1: field.from_polys((1,), U2_PLUS_2)}, 3)
        b = LaurentSeries(field, {0: one_plus_u}, 3)
        product = dot([(a, b)])
        assert (product.coeff(1)._a, product.coeff(1)._b) == ((1,), (2, 1))
        result = product.coeff(0)
    assert (result._a, result._b) == ((0, 1), (2, 1))
    assert_canonical(result)
    assert sorted(base.polys) == [(1, 1), (2, 1)] and base.count == 1
    # x's vector was stamped before the split and is factored again
    assert stamp[0] == 0 and x._v is stamp
    assert base.vector(x) != stamp[1]
    assert_base_consistent(field, [x, result])


@pytest.mark.parametrize("path", ["add", "dot"])
def test_a_sum_cancels_a_proper_factor_of_a_base_element(path):
    """u/(u^2+2) + 1/(u^2+2) = 1/(u+2) over F_3: both denominators are
    the unsplit base element, and the sum shares only u+1 with it."""
    field, x = primed_f3()
    y = field.from_polys((1,), U2_PLUS_2)
    if path == "add":
        result = x + y
    else:
        one = LaurentSeries(field, {0: field.one()}, 3)
        pairs = [(LaurentSeries(field, {0: c}, 3), one) for c in (x, y)]
        result = dot(pairs).coeff(0)
    assert (result._a, result._b) == ((1,), (2, 1))
    assert sorted(field._base.polys) == [(1, 1), (2, 1)]
    field._base.vectors([x, y, result])
    assert_base_consistent(field, [x, y, result])


def test_a_sum_carries_the_rest_of_its_lcm_across_a_split():
    """1/(u^2+2) + 1/(u*(u^2+2)) = 1/(u*(u+2)) over F_3, with u after
    u^2+2 in the base: cancelling the common part splits u^2+2, and the
    part of the lcm that cannot cancel, u, moves to the finer base."""
    field, _ = primed_f3()
    y = field.from_polys((1,), (0, 2, 0, 1))  # u^3+2u = u*(u^2+2)
    assert field._base.polys == [U2_PLUS_2, (0, 1)]
    x = field.from_polys((1,), U2_PLUS_2)
    result = x + y
    assert (result._a, result._b) == ((1,), (0, 2, 1))
    field._base.vectors([x, y, result])
    assert_base_consistent(field, [x, y, result])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_division_by_a_monic_linear_polynomial_matches_long_division(p, data):
    """``_pdivmod`` divides by u - r synthetically; quotient and remainder
    are those of long division, trailing zeros of a included."""
    coeff = st.integers(0, p - 1)
    a = tuple(data.draw(st.lists(coeff, max_size=8)))
    b = (data.draw(coeff), 1)
    assert _pdivmod(a, b, p) == long_divmod(a, b, p)
    assert _pdivmod(_trim(a), b, p) == long_divmod(a, b, p)
