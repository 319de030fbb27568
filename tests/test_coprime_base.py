"""F_p(u) fractions in lowest terms, against Euclid.

``FieldSpec._rat``, element ``+`` and ``*`` and the F_p(u) kernel put a
fraction in lowest terms by gcds; the oracles are gcd-based copies of
``_rat`` and Henrici ``+`` and ``*`` with long division and no shortcut
for a constant of F_p.  Canonical forms are unique, so the (num, den)
pairs must be identical.  Denominators include reducible polynomials
(u^2+2 = (u+1)(u+2) over F_3) that an operand shares only a proper
factor with.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramify.fields import FieldSpec, _pdivmod, _pmul, _trim
from ramify.series import LaurentSeries, dot

from oracles import (
    assert_canonical,
    cancelling_mul,
    euclid_rat,
    henrici_add,
    henrici_mul,
    long_divmod,
)

FIELDS = {p: FieldSpec.rational(p) for p in (2, 3, 5)}


# Small monic factors per p: linear and irreducible ones, and reducible
# ones (u^2+2 = (u+1)(u+2) over F_3, u^2+u = u(u+1) over F_2,
# u^2+4 = (u+1)(u+4) over F_5).
FACTORS = {
    2: [(0, 1), (1, 1), (1, 1, 1), (1, 1, 0, 1), (0, 1, 1), (1, 0, 1, 1)],
    3: [(0, 1), (1, 1), (2, 1), (1, 0, 1), (2, 0, 1), (2, 2, 0, 1), (0, 2, 1)],
    5: [(0, 1), (1, 1), (4, 1), (2, 0, 1), (4, 0, 1), (1, 1, 1), (4, 0, 0, 1)],
}


@st.composite
def factored(draw, p, max_degree=40):
    """A monic product of factors from FACTORS[p], repeats included, of
    degree at most max_degree."""
    out = (1,)
    for _ in range(draw(st.integers(0, 8))):
        f = draw(st.sampled_from(FACTORS[p]))
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
    """``_rat``, ``+``, ``*``, the inverse and a one-pair ``dot`` give the
    canonical pairs of the gcd-based code."""
    field = FIELDS[p]
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


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_constant_of_f_p_scales_the_numerator_as_the_cancelling_product(p, data):
    """c * x and x * c, for c in {1, p - 1, random} of F_p and x in F_p(u),
    give the canonical pair of the product that cancelled c against x's
    denominator, and x's denominator carries over."""
    field = FIELDS[p]
    x = field._rat(*data.draw(fraction(p)))
    c = field.from_int(data.draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1), label="c"))
    for left, right in ((c, x), (x, c)):
        got, want = left * right, cancelling_mul(left, right)
        assert (got._a, got._b) == (want._a, want._b)
        assert_canonical(got)
        if x:
            assert got._b == x._b


F3u = FIELDS[3]
U2_PLUS_2 = (2, 0, 1)  # (u+1)(u+2) over F_3


def pair(x):
    return x._a, x._b


@pytest.mark.parametrize("path", ["mul", "rat", "dot"])
def test_partial_split_of_a_reducible_base_element(path):
    """u/(u^2+2) * (u+1) = u/(u+2) over F_3: the numerator shares only
    the factor u+1 with the reducible denominator u^2+2, which the gcd
    splits into the part that cancels and the part that stays."""
    x = F3u.from_polys((0, 1), U2_PLUS_2)
    one_plus_u = F3u.from_polys((1, 1))
    if path == "mul":
        result = x * one_plus_u
    elif path == "rat":
        result = F3u._rat((0, 1, 1), U2_PLUS_2)
    else:
        a = LaurentSeries(F3u, {0: x, 1: F3u.from_polys((1,), U2_PLUS_2)}, 3)
        product = dot([(a, LaurentSeries(F3u, {0: one_plus_u}, 3))])
        assert pair(product.coeff(1)) == ((1,), (2, 1))
        result = product.coeff(0)
    assert pair(result) == ((0, 1), (2, 1))
    assert_canonical(result)


@pytest.mark.parametrize("path", ["add", "dot"])
def test_a_sum_cancels_a_proper_factor_of_a_base_element(path):
    """u/(u^2+2) + 1/(u^2+2) = 1/(u+2) over F_3: both denominators are
    the reducible u^2+2, and the sum u+1 shares only one factor with it."""
    x, y = F3u.from_polys((0, 1), U2_PLUS_2), F3u.from_polys((1,), U2_PLUS_2)
    if path == "add":
        result = x + y
    else:
        one = LaurentSeries(F3u, {0: F3u.one()}, 3)
        result = dot([(LaurentSeries(F3u, {0: c}, 3), one) for c in (x, y)]).coeff(0)
    assert pair(result) == ((1,), (2, 1))
    assert_canonical(result)


def test_a_sum_carries_the_rest_of_its_lcm_across_a_split():
    """1/(u^2+2) + 1/(u*(u^2+2)) = 1/(u*(u+2)) over F_3: the sum over the
    lcm u*(u^2+2) shares u+1 with the common factor u^2+2, and the part
    of the lcm that cannot cancel, u, stays in the denominator."""
    x = F3u.from_polys((1,), U2_PLUS_2)
    y = F3u.from_polys((1,), (0, 2, 0, 1))  # u^3+2u = u*(u^2+2)
    for left, right in ((x, y), (y, x)):
        assert pair(left + right) == ((1,), (0, 2, 1))


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
