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

from ramify.errors import ExtensionMismatch, InvalidSpec, NotRationalFunctionField, ZeroSeries
from ramify.extension import ASExtension, LElement, _laplace
from ramify.fields import FieldSpec, _padd, _pmul, derivative_u
from ramify.parsing import parse_field_spec, parse_series
from ramify.series import LaurentSeries, dot

from oracles import (
    assert_base_consistent,
    assert_canonical,
    capped_integral_sample,
    capped_lmul,
    capped_sigma,
    coprime_numerator,
    fpu_denominators,
    generator_traces,
    integral_sample,
    memoised_laplace,
    series_laplace,
    walked_traces,
)

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


def truncated(s, prec):
    """s cut at ``prec``, or s itself when ``prec`` is None."""
    return s if prec is None else s.truncate(prec)


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
    acc = None
    power = x
    for i in range(x.ext.p):
        products = [schoolbook_mul(b, y.coeffs[i]) for b in power.coeffs]
        acc = products if acc is None else [a + b for a, b in zip(acc, products)]
        if i < x.ext.p - 1:
            power = power.mul_alpha()
    return LElement(x.ext, tuple(acc))


def chain_integral_sample(ext, rng, span=2, terms=2):
    """``integral_sample`` as an L-sum: each generator times its drawn
    series, added one at a time.  Also says whether the result is the
    fallback generator."""
    ext = ext.with_best_f()
    field = ext.field
    prec = ext.f.prec
    gens = ext.integral_generators()
    acc = None
    for g in gens:
        picks = {}
        for _ in range(terms):
            e = rng.randrange(0, span + 1)
            c = field.sample_point(rng, max_degree=1)
            if not c.is_zero():
                picks[e] = c
        if picks:
            s = LaurentSeries(field, picks, prec)
            products = [schoolbook_mul(c, s) for c in g.coeffs]
            acc = products if acc is None else [a + b for a, b in zip(acc, products)]
    if acc is not None:
        x = LElement(ext, tuple(acc))
        if not x.is_zero_known():
            return x, False
    return gens[rng.randrange(len(gens))], True


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
    assert same(truncated(dot(pairs), prec), chain_dot(pairs, prec))
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
    assert same(dot(pairs).truncate(-1), chain_dot(pairs, -1))


def cross_multiplied_dot(pairs, prec):
    """(coefficients as {e: (num, den)}, prec) of ``dot`` over F_p(u),
    computed as the kernel did before it joined groups over their lcm:
    numerators summed per product denominator, groups cross-multiplied,
    one ``_rat`` per exponent.  No element ``+`` or ``*`` runs here."""
    field = pairs[0][0].field
    p = field.p
    bound = prec
    for a, b in pairs:
        pair_bound = min(a.prec + b.low_bound(), b.prec + a.low_bound())
        bound = pair_bound if bound is None else min(bound, pair_bound)
    acc = {}
    for a, b in pairs:
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                if e1 + e2 < bound:
                    groups = acc.setdefault(e1 + e2, {})
                    den = _pmul(c1._b, c2._b, p)
                    groups[den] = _padd(groups.get(den, ()), _pmul(c1._a, c2._a, p), p)
    out = {}
    for e, groups in acc.items():
        num, den = (), (1,)
        for d, n in groups.items():
            if n:
                if num:
                    num, den = _padd(_pmul(num, d, p), _pmul(n, den, p), p), _pmul(den, d, p)
                else:
                    num, den = n, d
        if num:
            c = field._rat(num, den)
            out[e] = (c._a, c._b)
    return out, bound


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((F2u, F3u, F5u)), st.data())
def test_dot_joins_denominator_groups_over_their_lcm(field, data):
    """Up to 18 pairs meet at exponent 0 (and scatter elsewhere), with
    coefficient denominators from a pool with shared and repeated factors
    (u, u+1, (u+1)^2, u^2(u+1), an irreducible quadratic), so that many
    product denominators share factors.  Values and ``prec`` must match
    the cross-multiplied kernel, and every coefficient must be canonical."""
    p = field.p
    pool = fpu_denominators(p)
    poly = st.lists(st.integers(0, p - 1), max_size=2)

    def coefficient():
        den, radical = data.draw(st.sampled_from(pool))
        num = coprime_numerator(data.draw(st.integers(1, p - 1)), radical, data.draw(poly), p)
        return field.from_polys(num, den)

    def operand():
        exps = data.draw(st.sets(st.integers(-3, 3), max_size=2)) | {0}
        return LaurentSeries(field, {e: coefficient() for e in exps}, data.draw(st.integers(2, 9)))

    count = data.draw(st.integers(1, 18))
    pairs = [(operand(), operand()) for _ in range(count)]
    prec = data.draw(st.one_of(st.none(), st.integers(-4, 10)))
    result = truncated(dot(pairs), prec)
    expected, bound = cross_multiplied_dot(pairs, prec)
    assert result.prec == bound
    assert {e: (c._a, c._b) for e, c in result.coeffs.items()} == expected
    for c in result.coeffs.values():
        assert_canonical(c)
    assert_base_consistent(field, list(result.coeffs.values()))


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


def with_empty_operands(field, rng, count):
    """Pairs whose operands are, in turn, both live, empty on the left,
    empty on the right and both empty, each empty one at a random
    precision."""
    pairs = []
    for i in range(count):
        a, b = random_series(field, rng), random_series(field, rng)
        if i % 4 in (1, 3):
            a = LaurentSeries.zero(field, rng.randint(-7, 12))
        if i % 4 in (2, 3):
            b = LaurentSeries.zero(field, rng.randint(-7, 12))
        pairs.append((a, b))
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=120, deadline=None)
@given(fields, seeds, st.integers(2, 6), st.one_of(st.none(), st.integers(-10, 14)))
def test_dot_mixing_empty_and_live_operands_matches_product_chain(field, seed, count, prec):
    rng = random.Random(seed)
    pairs = with_empty_operands(field, rng, count)
    assert same(truncated(dot(pairs), prec), chain_dot(pairs, prec))


@settings(max_examples=150, deadline=None)
@given(fields, seeds, st.integers(1, 6), st.integers(-10, 14))
def test_a_capped_dot_is_the_truncated_dot(field, seed, count, cap):
    """``dot(pairs, cap)`` is ``dot(pairs).truncate(cap)`` in value and
    ``prec``, with live and empty operands, a cap below, inside and
    above the product's known range."""
    rng = random.Random(seed)
    pairs = with_empty_operands(field, rng, count)
    assert same(dot(pairs, cap), dot(pairs).truncate(cap))


@settings(max_examples=80, deadline=None)
@given(fields, seeds, st.integers(1, 4), st.one_of(st.none(), st.integers(-10, 14)))
def test_dot_of_empty_pairs_only_keeps_their_bound(field, seed, count, prec):
    """No pair has a live product: the result is zero, known below the
    least of the pairs' bounds and ``prec``."""
    rng = random.Random(seed)
    pairs = [pair for pair in with_empty_operands(field, rng, 4 * count)
             if not (pair[0].coeffs and pair[1].coeffs)]
    result = truncated(dot(pairs), prec)
    assert result.is_zero_known()
    assert same(result, chain_dot(pairs, prec))


@settings(max_examples=80, deadline=None)
@given(fields, seeds, st.one_of(st.none(), st.integers(0, 14)))
def test_dot_bound_set_by_an_empty_operand(field, seed, prec):
    """An empty series far below every live pair's bound decides the
    precision of the sum although it contributes no term."""
    rng = random.Random(seed)
    a, b = random_series(field, rng), random_series(field, rng)
    c = random_series(field, rng)
    assume(a.coeffs and b.coeffs and c.coeffs)
    empty = LaurentSeries.zero(field, -20)
    pairs = [(a, b), (empty, c), (c, a)]
    expected_prec = min(-20 + min(c.coeffs), c.prec - 20)
    for order in (pairs, pairs[::-1], [(c, empty)] + pairs[:1]):
        result = truncated(dot(order), prec)
        assert result.prec == expected_prec
        assert same(result, chain_dot(order, prec))


@settings(max_examples=80, deadline=None)
@given(fields, seeds)
def test_add_drops_cancelled_terms_and_truncates_at_the_lower_prec(field, seed):
    """The sum builds its own clean dict; it must equal the validating
    constructor applied to the plain coefficientwise sum."""
    rng = random.Random(seed)
    a, b = random_series(field, rng), random_series(field, rng)
    assume(a.coeffs)
    e = rng.choice(sorted(a.coeffs))
    b = LaurentSeries(field, {**b.coeffs, e: -a.coeffs[e]}, max(b.prec, e + 1))
    raw = dict(a.coeffs)
    for k, c in b.coeffs.items():
        raw[k] = raw[k] + c if k in raw else c
    expected = LaurentSeries(field, raw, min(a.prec, b.prec))
    for total in (a + b, b + a):
        assert same(total, expected)
        assert e not in total.coeffs
        assert all(k < total.prec and not c.is_zero() for k, c in total.coeffs.items())
    assert same(-b + -a, LaurentSeries(field, {k: -c for k, c in raw.items()}, expected.prec))


SAMPLED_EXTENSIONS = [
    ("Fp:2", "t^-3 + t^-1 + t"), ("Fp:2", "1 + t"),
    ("Fp:3", "t^-2 + t"), ("Fp:3", "1 + t^2"),
    ("Fp:5", "t^-1 + 2*t"), ("Fp:5", "1"),
    ("Fq:9", "t^-1 + t"), ("Fq:9", "1 + t"),
    ("Fp(u):2", "u*t^-2 + t"), ("Fp(u):2", "t^-1 + u*t"), ("Fp(u):2", "u + t"),
]


def sampled_extension(spec, f, prec):
    field = parse_field_spec(spec)
    return ASExtension(field, parse_series(f, field, prec))


@pytest.mark.parametrize("spec,f", SAMPLED_EXTENSIONS)
@pytest.mark.parametrize("terms", [1, 2])
@pytest.mark.parametrize("prec", [2, 8])
def test_integral_sample_matches_the_chain_of_l_products(spec, f, terms, prec):
    """One ``dot`` per coordinate equals adding generator*series to zero
    one at a time, in value and ``prec``, and draws the same random
    numbers, so later samples agree too.  At prec 2 a pick at t^2 is
    dropped, so a generator can draw a series with no term."""
    ext = sampled_extension(spec, f, prec)
    for seed in range(25):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            x = integral_sample(ext, rng, terms=terms)
            y, _ = chain_integral_sample(ext, reference_rng, terms=terms)
            assert all(same(a, b) for a, b in zip(x.coeffs, y.coeffs))
            assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("spec,f", [("Fp:2", "t^-1"), ("Fp:2", "1 + t")])
@pytest.mark.parametrize("prec", [1, 8])
def test_integral_sample_falls_back_to_the_same_generator(spec, f, prec):
    """Over F_2 with one term per generator, every pick is zero (or, at
    prec 1, beyond the precision) often enough that the sum vanishes;
    the fallback must be the generator the chain form picks."""
    ext = sampled_extension(spec, f, prec)
    fallbacks = 0
    for seed in range(40):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        x = integral_sample(ext, rng, terms=1)
        y, fell_back = chain_integral_sample(ext, reference_rng, terms=1)
        fallbacks += fell_back
        assert all(same(a, b) for a, b in zip(x.coeffs, y.coeffs))
        assert rng.getstate() == reference_rng.getstate()
    assert fallbacks


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
    rows = [list(row) for row in zip(*x.columns())]
    assert same(x.norm(), laplace_det(rows))


def assert_same_expansion(x):
    """The level-by-level expansion of x's matrix gives the memoised
    one's determinant and cofactors, each with the same ``prec``."""
    det, cofactors = _laplace(x.columns())
    reference_det, reference_cofactors = memoised_laplace(x.columns())
    assert same(det, reference_det)
    assert len(cofactors) == len(reference_cofactors) == x.ext.p
    assert all(same(a, b) for a, b in zip(cofactors, reference_cofactors))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS + (FieldSpec.finite(7),)), seeds)
def test_level_by_level_expansion_matches_the_memoised_one(field, seed):
    rng = random.Random(seed)
    assert_same_expansion(random_element(ext_for(field, rng), rng))


def test_level_by_level_expansion_matches_the_memoised_one_at_p_11():
    rng = random.Random(11)
    x = random_element(ext_for(FieldSpec.finite(11), rng), rng)
    assert len({c.prec for c in x.coeffs}) > 1
    assert not x.norm().is_zero_known()
    assert_same_expansion(x)


LAPLACE_FIELDS = (F2, F3, F5, FieldSpec.finite(7), FieldSpec.finite(2, 2), F9,
                  FieldSpec.finite(5, 2), F2u, F3u)


def random_matrix(field, rng, n, empty_rows, empty_cols):
    """The columns of an n x n matrix of random series: negative
    valuations, uneven precisions, entries with no known term, and no
    known term at all in the rows and columns named empty."""
    cols = []
    for j in range(n):
        col = []
        for row in range(n):
            if row in empty_rows or j in empty_cols:
                col.append(LaurentSeries.zero(field, rng.randint(-3, 12)))
            else:
                col.append(random_series(field, rng, lo=rng.randint(-3, 1), width=3,
                                         prec_range=(2, 14)))
        cols.append(tuple(col))
    return cols


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LAPLACE_FIELDS), st.integers(2, 7), seeds, st.integers(0, 1),
       st.integers(0, 1))
def test_raw_kernel_matches_both_series_expansions(field, n, seed, empty_rows, empty_cols):
    """The raw-coefficient expansion of any square matrix, not only a
    multiplication matrix, gives the determinant and cofactors of the
    series-level expansion and of the memoised recursion, in value and
    ``prec``, and leaves every entry as it was: an entry's negation is a
    fresh dict.  A row or column with no known term sends some minors
    through the path with no pair left to multiply."""
    rng = random.Random(seed)
    cols = random_matrix(field, rng, n, set(rng.sample(range(n), empty_rows)),
                         set(rng.sample(range(n), empty_cols)))
    before = [[dict(entry._raw) for entry in col] for col in cols]
    det, cofactors = _laplace(cols)
    assert [[entry._raw for entry in col] for col in cols] == before
    assert len(cofactors) == n
    for oracle in (series_laplace, memoised_laplace):
        reference_det, reference_cofactors = oracle(cols)
        assert same(det, reference_det)
        assert all(same(a, b) for a, b in zip(cofactors, reference_cofactors))


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


@settings(max_examples=60, deadline=None)
@given(fields, seeds)
def test_generator_traces_match_traces_of_full_products(field, seed):
    """T[k][m] from g_k's mul_alpha chain equals the trace of the full
    product g_k * alpha^m for every m <= p - 1: the same value, known at
    least as far."""
    ext = ext_for(field, random.Random(seed)).with_best_f()
    table = generator_traces(ext)
    gens = ext.integral_generators()
    assert len(table) == len(gens)
    for g, row in zip(gens, table):
        assert len(row) == ext.p
        for m, tr in enumerate(row):
            expected = (g * ext.alpha_power(m)).trace()
            assert tr.prec >= expected.prec
            assert tr.truncate(expected.prec) == expected


@settings(max_examples=80, deadline=None)
@given(fields, seeds)
def test_generator_traces_match_the_mul_alpha_walk(field, seed):
    """Reading T off each generator's columns gives the walk's values
    with the walk's ``prec``, for any presentation."""
    ext = ext_for(field, random.Random(seed))
    table = generator_traces(ext)
    walked = walked_traces(ext, ext.p)
    assert len(table) == len(walked) == ext.p
    for row, ref in zip(table, walked):
        assert len(row) == len(ref) == ext.p
        assert all(same(a, b) for a, b in zip(row, ref))


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


@settings(max_examples=40, deadline=None)
@given(fields, seeds, st.integers(0, 4))
def test_powers_match_the_linear_product_chain(field, seed, n):
    """``powers(n)[k]`` and ``x ** k`` are x^(k-1) * x, in value and
    ``prec``, for every k <= n."""
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x = random_element(ext, rng)
    chain = [ext.one(), x]
    while len(chain) <= n:
        chain.append(schoolbook_lmul(chain[-1], x))
    powers = x.powers(n)
    assert len(powers) == n + 1
    for k, expected in enumerate(chain[:n + 1]):
        for power in (powers[k], x ** k):
            assert all(same(a, b) for a, b in zip(power.coeffs, expected.coeffs))


# -- no start bound: against the capped rules it replaces ------------------------


def assert_agrees_prec_not_lower(got, capped):
    """The same element of L on the range both know, each coordinate
    known at least as far as under the cap."""
    for a, b in zip(got.coeffs, capped.coeffs):
        assert a.prec >= b.prec
        assert a.truncate(b.prec) == b


@settings(max_examples=150, deadline=None)
@given(fields, seeds, st.integers(1, 2))
def test_l_arithmetic_without_a_start_bound_only_raises_prec(field, seed, terms):
    """Products, conjugates and integral samples equal their capped forms
    on the range both know, and no coordinate is known less far.  Samples
    are drawn at f's precision cut to anything from 1 up, and a draw the
    cap replaced by a generator is kept only when every known term lies
    at or above f's precision."""
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x, y = random_element(ext, rng), random_element(ext, rng)
    assert_agrees_prec_not_lower(x * y, capped_lmul(x, y))
    for k in range(1, ext.p):
        assert_agrees_prec_not_lower(x.sigma(k), capped_sigma(x, k))
    low = ASExtension(field, ext.f.truncate(rng.randint(1, ext.f.prec)))
    for draw in range(3):
        draw_rng, capped_rng = random.Random(seed + draw), random.Random(seed + draw)
        sample = integral_sample(low, draw_rng, terms=terms)
        capped, fell_back = capped_integral_sample(low, capped_rng, terms=terms)
        if draw_rng.getstate() == capped_rng.getstate():
            assert_agrees_prec_not_lower(sample, capped)
        else:
            # only the cap fell back, which draws one more number
            assert fell_back and not sample.is_zero_known()
            assert all(c.truncate(low.f.prec).is_zero_known() for c in sample.coeffs)


def test_a_product_coordinate_is_known_past_f_precision():
    # over F_2 with f = t^-1 + O(t^8), every pair of t^2 * t^2 is known
    # below t^10; the cap cut both coordinates at t^8
    ext = ASExtension(F2, LaurentSeries.monomial(F2, -1, 1, 8))
    x = ext.from_series(LaurentSeries.monomial(F2, 2, 1, 8))
    product, capped = x * x, capped_lmul(x, x)
    assert [c.prec for c in product.coeffs] == [10, 10]
    assert [c.prec for c in capped.coeffs] == [8, 8]
    assert_agrees_prec_not_lower(product, capped)


def test_a_conjugate_coordinate_reads_only_the_coordinates_above_it():
    # sigma(c0 + c1*alpha) = (c0 + c1) + c1*alpha: coordinate 1 reads c1
    # alone, known below t^9; the cap cut it at c0's t^2
    ext = ASExtension(F2, LaurentSeries.monomial(F2, -1, 1, 8))
    x = LElement(ext, (LaurentSeries.one(F2, 2), LaurentSeries.monomial(F2, 1, 1, 9)))
    image, capped = x.sigma(1), capped_sigma(x, 1)
    assert [c.prec for c in image.coeffs] == [2, 9]
    assert [c.prec for c in capped.coeffs] == [2, 2]
    assert_agrees_prec_not_lower(image, capped)


def test_an_integral_sample_is_known_past_f_precision():
    # over F_2 with f = t^-1, the draw of seed 1 is t^2*alpha, known
    # below t^9 where the cap cut it at t^8; at f's precision 1 the draw
    # of seed 0, t*alpha, lies wholly at or above it and is kept, where
    # the cap replaced it by a generator
    ext = sampled_extension("Fp:2", "t^-1", 8)
    sample = integral_sample(ext, random.Random(1))
    capped, fell_back = capped_integral_sample(ext, random.Random(1))
    assert not fell_back
    assert [c.prec for c in sample.coeffs] == [10, 9]
    assert [c.prec for c in capped.coeffs] == [8, 8]
    assert_agrees_prec_not_lower(sample, capped)
    low = sampled_extension("Fp:2", "t^-1", 1)
    sample = integral_sample(low, random.Random(0), terms=1)
    assert capped_integral_sample(low, random.Random(0), terms=1)[1]
    assert sample.coeffs[1] == LaurentSeries.monomial(F2, 1, 1, 2)
    assert sample.coeffs[0].is_zero_known() and sample.coeffs[0].prec == 1


@settings(max_examples=40, deadline=None)
@given(fields, seeds)
def test_columns_are_the_mul_alpha_chain_built_once(field, seed):
    rng = random.Random(seed)
    ext = ext_for(field, rng)
    x = random_element(ext, rng)
    expected, y = [x.coeffs], x
    for _ in range(ext.p - 1):
        y = y.mul_alpha()
        expected.append(y.coeffs)
    cols = x.columns()
    assert len(cols) == ext.p
    for col, want in zip(cols, expected):
        assert type(col) is tuple
        assert all(same(a, b) for a, b in zip(col, want))
    x * random_element(ext, rng)
    x.norm()
    assert x.columns() is cols


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


# -- raw coefficient storage against the element-level series ------------


class ElemSeries:
    """The element-level series arithmetic that raw coefficient storage
    replaced: ResidueElem coefficients throughout, each operation as the
    library computed it before, and ``dot`` as the chain of products it
    stands for."""

    def __init__(self, field, coeffs, prec):
        self.field, self.prec = field, prec
        self.coeffs = {e: c for e, c in coeffs.items() if e < prec and not c.is_zero()}

    @classmethod
    def of(cls, s):
        return cls(s.field, s.coeffs, s.prec)

    def low_bound(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e < prec:
                out[e] = out[e] + c if e in out else c
        return ElemSeries(self.field, out, prec)

    def __neg__(self):
        return ElemSeries(self.field, {e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return elem_dot([(self, other)])

    def scale(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        return ElemSeries(self.field, {e: x * c for e, x in self.coeffs.items()}, self.prec)

    def shift(self, k):
        return ElemSeries(self.field, {e + k: c for e, c in self.coeffs.items()}, self.prec + k)

    def truncate(self, prec):
        return self if prec >= self.prec else ElemSeries(self.field, self.coeffs, prec)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            prec = self.prec - 2 * min(0, self.low_bound())
            return ElemSeries(self.field, {0: self.field.one()}, prec)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def inverse(self):
        if not self.coeffs:
            raise ZeroSeries("no known nonzero coefficient")
        v = min(self.coeffs)
        unit_prec = self.prec - v
        lead_inv = self.coeffs[v].inverse()
        r = ElemSeries(
            self.field,
            {e - v: c * lead_inv for e, c in self.coeffs.items() if e != v},
            unit_prec,
        )
        one = ElemSeries(self.field, {0: self.field.one()}, unit_prec)
        inv_unit, term = one, one
        if r.coeffs:
            step = -r
            while True:
                term = (term * step).truncate(unit_prec)
                if not term.coeffs:
                    break
                inv_unit = inv_unit + term
        return inv_unit.scale(lead_inv).shift(-v)

    def euler_derivative(self):
        p = self.field.p
        return ElemSeries(self.field, {e: c * (e % p) for e, c in self.coeffs.items()}, self.prec)

    def u_derivative(self):
        return ElemSeries(
            self.field, {e: derivative_u(c) for e, c in self.coeffs.items()}, self.prec
        )


def elem_dot(pairs, prec=None):
    bound = prec
    for a, b in pairs:
        pair_bound = min(a.prec + b.low_bound(), b.prec + a.low_bound())
        if bound is None or pair_bound < bound:
            bound = pair_bound
    out = {}
    for a, b in pairs:
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e < bound:
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return ElemSeries(pairs[0][0].field, out, bound)


def matches(series, reference):
    return series.coeffs == reference.coeffs and series.prec == reference.prec


def both(op, series, reference):
    """op on the library series and on its element-level copy: equal
    results, or the same error from both."""
    try:
        expected = op(reference)
    except (ZeroSeries, NotRationalFunctionField) as exc:
        with pytest.raises(type(exc)):
            op(series)
        return
    assert matches(op(series), expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS + (F_MERSENNE,)), seeds, st.integers(-10, 14),
       st.integers(-3, 3), st.integers(-2, 3))
def test_raw_series_ops_match_the_element_level_series(field, seed, prec, k, n):
    rng = random.Random(seed)
    a, b, c = (random_series(field, rng) for _ in range(3))
    ea, eb, ec = (ElemSeries.of(s) for s in (a, b, c))
    scalar = coefficient(field, rng)
    for op in (
        lambda x: x[0] + x[1],
        lambda x: x[0] - x[1],
        lambda x: x[1] - x[0],
        lambda x: x[0] * x[1],
    ):
        assert matches(op((a, b)), op((ea, eb)))
    pairs, elem_pairs = [(a, b), (b, c), (c, a)], [(ea, eb), (eb, ec), (ec, ea)]
    count = rng.randint(1, 3)
    for bound in (None, prec):
        assert matches(truncated(dot(pairs[:count]), bound), elem_dot(elem_pairs[:count], bound))
    for op in (
        lambda x: -x,
        lambda x: x.scale(scalar),
        lambda x: x.scale(k),
        lambda x: x.shift(k),
        lambda x: x.truncate(prec),
        lambda x: x.inverse(),
        lambda x: x ** n,
        lambda x: x.euler_derivative(),
        lambda x: x.u_derivative(),
    ):
        both(op, a, ea)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_raw_to_element_to_raw_is_the_identity(field):
    rng = random.Random(11)
    if field.is_finite:
        raws = range(field.order)
    else:
        raws = [field._to_raw(coefficient(field, rng)) for _ in range(200)]
    for r in raws:
        c = field._from_raw(r)
        assert c.field is field
        assert field._to_raw(c) == r
        assert bool(r) == (not c.is_zero())
        assert field._from_raw(field._to_raw(c)) == c


@settings(max_examples=80, deadline=None)
@given(fields, seeds)
def test_coeffs_is_a_fresh_view_and_eq_hash_follow_it(field, seed):
    rng = random.Random(seed)
    a, b = random_series(field, rng), random_series(field, rng)
    before = (dict(a.coeffs), a.prec, hash(a), str(a))
    view = a.coeffs
    assert view is not a.coeffs
    view[a.prec - 1] = field.one()
    view.pop(min(view))
    view.clear()
    assert (dict(a.coeffs), a.prec, hash(a), str(a)) == before
    twin = LaurentSeries(field, a.coeffs, a.prec)
    assert twin == a and hash(twin) == hash(a)
    assert (a == b) == (a.coeffs == b.coeffs and a.prec == b.prec)
    if a == b:
        assert hash(a) == hash(b)
    shifted = LaurentSeries(field, a.coeffs, a.prec + 1)
    assert shifted != a
