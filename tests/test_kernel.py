"""The multiply-accumulate kernel ``series.dot`` and the L-arithmetic on
it, against the plain operations they replace.

Each reference below is the schoolbook form: a chain of series
products and sums, an L-product as a sum of p scaled alpha-multiples,
and a determinant whose minors are sums of signed products.  Results
must agree on values and on ``prec``.  The inverse is compared with the
product of the other conjugates over the norm: values agree, and its
``prec`` may only be higher.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramify.errors import ExtensionMismatch, InvalidSpec
from ramify.extension import ASExtension, LElement
from ramify.fields import FieldSpec, _pmul
from ramify.series import LaurentSeries, dot

F2 = FieldSpec.finite(2)
F3 = FieldSpec.finite(3)
F5 = FieldSpec.finite(5)
F9 = FieldSpec.finite(3, 2)
F2u = FieldSpec.rational(2)
F3u = FieldSpec.rational(3)
F5u = FieldSpec.rational(5)
F_MERSENNE = FieldSpec.finite(2**61 - 1)
FIELDS = (F2, F3, F5, F9, F2u, F3u)


def schoolbook_mul(a, b):
    va, vb = a.low_bound(), b.low_bound()
    prec = min(a.prec + vb, b.prec + va)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e >= prec:
                continue
            c = c1 * c2
            out[e] = c if e not in out else out[e] + c
    return LaurentSeries(a.field, out, prec)


def chain_dot(pairs, prec=None):
    acc = None if prec is None else LaurentSeries.zero(pairs[0][0].field, prec)
    for a, b in pairs:
        term = schoolbook_mul(a, b)
        acc = term if acc is None else acc + term
    return acc


def coefficient(field, rng):
    """Any element of F_q; for F_p(u) also quotients, so that
    coefficients with nontrivial denominators occur."""
    c = field.sample_point(rng, max_degree=1)
    if not field.is_finite and rng.random() < 0.5:
        den = field.sample_point(rng, max_degree=1)
        if not den.is_zero():
            c = c / den
    return c


def random_series(field, rng, lo=-5, width=7, prec_range=(-7, 12), density=0.6):
    """Support in [lo, lo + width] (negative exponents included), a
    precision that may cut into or below the support, and sometimes no
    term at all."""
    if rng.random() < 0.1:
        density = 0.0
    coeffs = {}
    for e in range(lo, lo + width + 1):
        if rng.random() < density:
            coeffs[e] = coefficient(field, rng)
    return LaurentSeries(field, coeffs, rng.randint(*prec_range))


def ext_for(field, rng):
    """An extension with a pole of random order and a random precision
    for f, so that products meet f's bound at different places."""
    prec = rng.randint(4, 12)
    n = rng.choice([k for k in range(1, 5) if k % field.p or not field.is_finite])
    f = LaurentSeries(field, {-n: coefficient(field, rng) or field.one(),
                              1: coefficient(field, rng)}, prec)
    if f.is_zero_known():
        f = LaurentSeries.monomial(field, -n, 1, prec)
    return ASExtension(field, f)


def random_element(ext, rng):
    coeffs = tuple(
        random_series(ext.field, rng, lo=rng.randint(-4, 2), width=4, prec_range=(0, 14))
        for _ in range(ext.p)
    )
    return LElement(ext, coeffs)


def schoolbook_lmul(x, y):
    acc = x.ext.zero()
    power = x
    for i in range(x.ext.p):
        ci = y.coeffs[i]
        acc = LElement(x.ext, tuple(
            a + schoolbook_mul(b, ci) for a, b in zip(acc.coeffs, power.coeffs)
        ))
        if i < x.ext.p - 1:
            power = power.mul_alpha()
    return acc


def laplace_det(matrix):
    p = len(matrix)
    if p == 1:
        return matrix[0][0]
    memo = {}

    def minor(row, remaining):
        if row == p:
            return None
        key = (row, remaining)
        if key in memo:
            return memo[key]
        acc = None
        sign = 1
        for idx, j in enumerate(remaining):
            entry = matrix[row][j]
            sub = minor(row + 1, remaining[:idx] + remaining[idx + 1:])
            term = entry if sub is None else schoolbook_mul(entry, sub)
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, tuple(range(p)))


def conjugate_product_inverse(x):
    """1/x as the product of the other conjugates over N(x)."""
    acc = x.sigma(1)
    for i in range(2, x.ext.p):
        acc = acc * x.sigma(i)
    return acc * x.norm().inverse()


def same(a, b):
    return a == b and a.prec == b.prec


fields = st.sampled_from(FIELDS)
seeds = st.integers(0, 2**32)


@settings(max_examples=150, deadline=None)
@given(fields, seeds, st.integers(1, 4), st.one_of(st.none(), st.integers(-10, 14)))
def test_dot_matches_product_chain(field, seed, count, prec):
    rng = random.Random(seed)
    pairs = [(random_series(field, rng), random_series(field, rng)) for _ in range(count)]
    assert same(dot(pairs, prec), chain_dot(pairs, prec))
    a, b = pairs[0]
    assert same(a * b, schoolbook_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((F2u, F3u, F5u)), seeds, st.integers(3, 6))
def test_dot_over_many_denominators_at_one_exponent(field, seed, count):
    """Products at one exponent with at least three distinct product
    denominators, and pairs that share one factor's denominator but not
    the other's: the kernel must group by the product denominator."""
    rng = random.Random(seed)
    u = field.generator()
    dens = (field.one(), u, u + 1, u * u, u * (u + 1))

    def quotient():
        return (field.sample_point(rng, max_degree=2) or field.one()) / rng.choice(dens)

    pairs = []
    for _ in range(count):
        a, b = quotient(), quotient()
        pairs.append((LaurentSeries(field, {0: a, rng.randint(-2, 2): quotient()}, 6),
                      LaurentSeries(field, {0: b}, 6)))
    assume(len({_pmul(a.coeffs[0]._b, b.coeffs[0]._b, field.p) for a, b in pairs}) >= 3)
    assert same(dot(pairs), chain_dot(pairs))
    assert same(dot(pairs, -1), chain_dot(pairs, -1))


@settings(max_examples=80, deadline=None)
@given(fields, seeds)
def test_dot_drops_coefficients_that_cancel_and_keeps_prec(field, seed):
    """(a, b) and (-a, b) cancel at every exponent: the sum is zero on its
    known range with the products' precision.  A third pair then adds to
    coefficients that have passed through zero."""
    rng = random.Random(seed)
    a, b = random_series(field, rng), random_series(field, rng)
    assume(a.coeffs and b.coeffs)
    cancelled = dot([(a, b), (-a, b)])
    assert cancelled.is_zero_known()
    assert same(cancelled, chain_dot([(a, b), (-a, b)]))
    pairs = [(a, b), (-a, b), (random_series(field, rng), random_series(field, rng)), (a, b)]
    assert same(dot(pairs), chain_dot(pairs))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 4))
def test_dot_over_a_prime_near_2_to_the_61(seed, count):
    """Unreduced sums of products near 2^122 are reduced once per exponent."""
    rng = random.Random(seed)
    pairs = [(random_series(F_MERSENNE, rng), random_series(F_MERSENNE, rng))
             for _ in range(count)]
    assert same(dot(pairs), chain_dot(pairs))


@settings(max_examples=80, deadline=None)
@given(fields, seeds)
def test_lmul_matches_schoolbook_loop(field, seed):
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x, y = random_element(ext, rng), random_element(ext, rng)
    product = x * y
    reference = schoolbook_lmul(x, y)
    assert all(same(a, b) for a, b in zip(product.coeffs, reference.coeffs))


@settings(max_examples=60, deadline=None)
@given(fields, seeds)
def test_norm_matches_laplace_expansion(field, seed):
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x = random_element(ext, rng)
    assert same(x.norm(), laplace_det(x.multiplication_matrix()))


@settings(max_examples=60, deadline=None)
@given(fields, seeds)
def test_inverse_matches_conjugate_product_inverse(field, seed):
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x = random_element(ext, rng)
    assume(not x.norm().is_zero_known())
    inverse, reference = x.inverse(), conjugate_product_inverse(x)
    for a, b in zip(inverse.coeffs, reference.coeffs):
        assert a.agrees_with(b)
        assert a.prec >= b.prec
    assert (x * inverse).agrees_with(ext.one())


@settings(max_examples=80, deadline=None)
@given(fields, seeds)
def test_trace_of_product_matches_trace_of_full_product(field, seed):
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x = random_element(ext, rng)
    chain = x.alpha_chain()
    for _ in range(3):
        g = random_element(ext, rng)
        expected = (x * g).trace()
        assert same(x.trace_of_product(g), expected)
        assert same(x.trace_of_product(g, chain), expected)


@settings(max_examples=30, deadline=None)
@given(fields, seeds)
def test_alpha_power_matches_repeated_product(field, seed):
    ext = ext_for(field, random.Random(seed))
    alpha = ext.alpha()
    for i in reversed(range(ext.p + 2)):  # the memo must not depend on call order
        power, expected = ext.alpha_power(i), alpha ** i
        assert all(same(a, b) for a, b in zip(power.coeffs, expected.coeffs))
    with pytest.raises(InvalidSpec):
        ext.alpha_power(-1)


def test_equal_extensions_combine_and_others_do_not():
    f = LaurentSeries.monomial(F3, -2, 1, 12)
    ext, twin = ASExtension(F3, f), ASExtension(F3, f)
    assert twin is not ext
    x = ext.alpha()
    assert x * twin.alpha() == x * x
    assert x == twin.alpha()
    other = ASExtension(F3, LaurentSeries.monomial(F3, -1, 1, 12))
    assert x != other.alpha()
    with pytest.raises(ExtensionMismatch):
        x * other.alpha()
