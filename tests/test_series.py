from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramify.errors import (
    AmbientMismatch,
    FieldMismatch,
    InsufficientPrecision,
    ZeroSeries,
)
from ramify.fields import FieldSpec
from ramify.series import (
    Cut,
    LaurentSeries,
    ValueGroup,
    restrict_cut,
    series_in_cut,
)

from oracles import (
    OpenOnlyCut,
    element_text,
    floor_series_in_cut,
    fraction_cut,
    geometric_inverse,
    random_element,
    random_series,
    series_is_integral,
    termwise_series_text,
)

F2 = FieldSpec.finite(2)
F3 = FieldSpec.finite(3)
F2u = FieldSpec.rational(2)

Z = ValueGroup.discrete(1)
Z3 = ValueGroup.z_one_over_p(3)
DENSE = ValueGroup.dense()


def mono(field, e, c=1, prec=16):
    return LaurentSeries.monomial(field, e, c, prec)


# -- value groups and cuts -------------------------------------------------


def test_group_membership():
    assert Z.contains(Fraction(3))
    assert not Z.contains(Fraction(1, 2))
    assert Z3.contains(Fraction(5, 9))
    assert not Z3.contains(Fraction(1, 2))
    assert DENSE.contains(Fraction(22, 7))


def test_cut_mul_examples():
    assert Cut.at_least(Fraction(1, 2), DENSE) * Cut.at_least(Fraction(1, 2), DENSE) \
        == Cut.at_least(1, DENSE)
    assert Cut.above(Fraction(3, 4), DENSE) * Cut.at_least(Fraction(1, 4), DENSE) \
        == Cut.above(1, DENSE)
    # a discrete cut is stored closed at a group element
    assert Cut.above(2, Z) * Cut.at_least(0, Z) == Cut.at_least(3, Z)


def test_cut_pow_examples():
    assert Cut.at_least(Fraction(1, 2), DENSE) ** 2 == Cut.at_least(1, DENSE)
    assert Cut.above(Fraction(1, 2), DENSE) ** 3 == Cut.above(Fraction(3, 2), DENSE)
    assert Cut.at_least(1, Z) ** 1 == Cut.at_least(1, Z)
    d = Cut.at_least(2, Z)
    assert d * d.inverse() == Cut.at_least(0, Z)
    # open cuts keep their bound under negative powers
    j = Cut.above(Fraction(1, 2), Z3)
    assert j ** -2 == Cut.above(-1, Z3)
    assert j ** 0 == Cut.at_least(0, Z3)


def test_cut_is_principal():
    assert Cut.at_least(1, Z).is_principal()
    assert not Cut.above(Fraction(3, 2), Z3).is_principal()
    # {v >= 1/2} over Z is the ideal {v >= 1}
    assert Cut.at_least(Fraction(1, 2), Z).is_principal()
    assert Cut.at_least(Fraction(1, 2), Z) == Cut.at_least(1, Z)
    assert Cut.above(2, Z).is_principal()  # stored as closed(3)


def test_cut_is_canonical_and_restrict():
    c = Cut.at_least(Fraction(4, 3), Z)
    assert (c.value, c.closed) == (2, True)
    assert c == Cut.above(1, Z) == Cut.above(Fraction(3, 2), Z)
    assert hash(c) == hash(Cut.at_least(2, Z)) and repr(c) == "{v >= 2}"
    assert Cut(c.value, c.closed, c.group) == c
    third = ValueGroup.discrete(Fraction(1, 3))
    assert Cut.above(Fraction(1, 2), third) == Cut.at_least(Fraction(2, 3), third)
    fine = Cut.at_least(Fraction(2, 3), third)
    assert restrict_cut(fine, Z) == Cut.at_least(1, Z)
    # only discrete groups have a canonical closed form
    assert not Cut.above(1, DENSE).closed and not Cut.above(1, Z3).closed


# the three kinds of value group, discrete ones at assorted granularities
GROUPS = st.one_of(
    st.sampled_from([1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), 2,
                     Fraction(1, 5)]).map(ValueGroup.discrete),
    st.sampled_from([2, 3, 5]).map(ValueGroup.z_one_over_p),
    st.just(DENSE),
)
CUT_VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@given(CUT_VALUES, st.booleans(), GROUPS, st.lists(CUT_VALUES, max_size=20))
@settings(max_examples=300, deadline=None)
def test_canonical_cut_is_the_normalized_open_only_cut(value, closed, group, probes):
    cut = Cut(value, closed, group)
    old = OpenOnlyCut(value, closed, group)
    lifted = old.normalize()
    assert (cut.value, cut.closed) == (lifted.value, lifted.closed)
    assert repr(cut) == repr(lifted)
    assert cut.is_principal() == lifted.is_principal()
    assert Cut(cut.value, cut.closed, group) == cut
    if group.kind == ValueGroup.DISCRETE:
        # the same ideal: every group element of a window around the value
        probes = [k * group.granularity for k in range(-40, 41)]
    for x in probes:
        assert cut.contains(x) == old.contains(x) == lifted.contains(x)


@given(st.integers(0, 2**32), CUT_VALUES, st.booleans(), GROUPS, st.integers(-6, 6),
       st.integers(0, 6), st.integers(-8, 10), st.sampled_from((F2, F3)))
@settings(max_examples=300, deadline=None)
def test_series_in_cut_matches_the_floor_reading(seed, value, closed, group, lo, width, prec,
                                                 field):
    # the same verdict, or the same InsufficientPrecision with the same text
    import random as _r

    s = random_series(field, _r.Random(seed), lo, lo + width, prec, density=0.4)
    cut = Cut(value, closed, group)
    try:
        expected = floor_series_in_cut(s, OpenOnlyCut(value, closed, group).normalize())
    except InsufficientPrecision as err:
        with pytest.raises(InsufficientPrecision) as got:
            series_in_cut(s, cut)
        assert str(got.value) == str(err)
        return
    assert series_in_cut(s, cut) == expected


@given(
    st.sampled_from([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 3),
                     Fraction(3, 7)]).map(ValueGroup.discrete)
    | st.sampled_from([2, 3, 5]).map(ValueGroup.z_one_over_p) | st.just(DENSE),
    st.integers(-40, 40) | st.fractions(min_value=-20, max_value=20, max_denominator=60),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_the_integer_cut_constructor_matches_the_fraction_formula(group, value, closed):
    # ints, Fractions and negative values, open and closed, store the
    # value and closedness the Fraction formula gives, as a Fraction
    cut = Cut(value, closed, group)
    assert (cut.value, cut.closed) == fraction_cut(value, closed, group)
    assert type(cut.value) is Fraction and cut.group is group


def test_cut_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Cut.at_least(1, Z) * Cut.at_least(1, DENSE)


@given(st.fractions(min_value=-4, max_value=4), st.fractions(min_value=-4, max_value=4),
       st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_cut_mul_commutative_associative(v1, v2, c1, c2):
    a = Cut(v1, c1, DENSE)
    b = Cut(v2, c2, DENSE)
    ident = Cut.at_least(0, DENSE)
    assert a * b == b * a
    assert (a * b) * a == a * (b * a)
    assert a * ident == a


def test_cut_contains_and_subset():
    c = Cut.above(Fraction(3, 2), Z3)
    assert c.contains(Fraction(5, 3))
    assert not c.contains(Fraction(3, 2))
    assert Cut.at_least(2, Z).subset_of(Cut.at_least(1, Z))
    assert Cut.above(1, DENSE).subset_of(Cut.at_least(1, DENSE))
    assert not Cut.at_least(1, DENSE).subset_of(Cut.above(1, DENSE))


# -- series arithmetic -------------------------------------------------------


def test_series_mul_inverse_monomials():
    t_inv = mono(F2, -1)
    t = mono(F2, 1)
    prod = t_inv * t
    assert prod.coeffs == {0: F2.one()}


def test_series_add_cancels():
    a = LaurentSeries(F2, {-3: F2.one(), -1: F2.one()}, 16)
    b = mono(F2, -3, 1)
    assert (a + (-b)).coeffs == {-1: F2.one()}


def test_series_mul_hand_convolution():
    a = LaurentSeries(F3, {0: F3.one(), 1: F3.one()}, 8)
    b = LaurentSeries(F3, {0: F3.one(), 1: F3.from_int(2)}, 8)
    prod = a * b
    # (1+t)(1+2t) = 1 + 3t + 2t^2 = 1 + 2t^2 over F_3
    assert prod.coeffs == {0: F3.one(), 2: F3.from_int(2)}
    assert prod.prec == 8


def test_series_mul_precision_rule():
    a = LaurentSeries(F2, {0: F2.one(), 1: F2.one()}, 8)
    b = mono(F2, -3, 1, prec=8)
    assert (a * b).prec == 5  # min(8 + (-3), 8 + 0)


def test_series_inverse_examples():
    t = mono(F2, 1)
    assert t.inverse().truncate(4).coeffs == {-1: F2.one()}
    a = LaurentSeries(F2, {0: F2.one(), 1: F2.one()}, 16)
    inv = a.inverse().truncate(4)
    assert inv.coeffs == {0: F2.one(), 1: F2.one(), 2: F2.one(), 3: F2.one()}
    assert inv.prec == 4
    empty = LaurentSeries.zero(F2, 6)
    with pytest.raises(InsufficientPrecision):
        empty.inverse()


def test_valuation_examples():
    a = LaurentSeries(F2, {-3: F2.one(), -1: F2.one()}, 16)
    assert a.valuation() == -3
    b = mono(F2u, -2, F2u.generator())
    assert b.valuation() == -2
    with pytest.raises(InsufficientPrecision):
        LaurentSeries.zero(F2, 4).valuation()


def test_series_field_mismatch():
    with pytest.raises(FieldMismatch):
        mono(F2, 0) + mono(F3, 0)


@given(st.integers(1, 400), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_ultrametric_and_multiplicativity(i, j):
    import random as _r

    a = random_series(F3, _r.Random(i), -3, 3, 10)
    b = random_series(F3, _r.Random(j + 1000), -3, 3, 10)
    if a.is_zero_known() or b.is_zero_known():
        return
    va, vb = a.valuation(), b.valuation()
    assert (a * b).valuation() == va + vb
    s = a + b
    if not s.is_zero_known():
        assert s.valuation() >= min(va, vb)
        if va != vb:
            assert s.valuation() == min(va, vb)


@given(st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(i):
    import random as _r

    a = random_series(F3, _r.Random(i), -2, 2, 12)
    if a.is_zero_known():
        return
    inv = a.inverse().truncate(6)
    prod = a * inv
    one = LaurentSeries.one(F3, prod.prec)
    assert (prod - one).is_zero_known()


INVERSE_FIELDS = tuple(
    FieldSpec.finite(p, m)
    for p, m in ((2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (2**61 - 1, 1))
) + (FieldSpec.rational(2), FieldSpec.rational(3))


def nonzero_coefficient(field, rng):
    """A nonzero element; over F_p(u) sometimes a quotient."""
    while True:
        c = random_element(field, rng, max_degree=1)
        if not field.is_finite and rng.random() < 0.3:
            den = random_element(field, rng, max_degree=1)
            if not den.is_zero():
                c = c / den
        if not c.is_zero():
            return c


@pytest.mark.parametrize("field", INVERSE_FIELDS, ids=repr)
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(-8, 8),
       st.one_of(st.integers(-8, 64), st.integers(32, 64)),
       st.one_of(st.integers(0, 40), st.integers(20, 40)), st.sampled_from((0.1, 0.4, 1.0)))
def test_inverse_matches_the_geometric_series_at_workload_sizes(field, seed, v, prec, terms,
                                                                density):
    # up to 40 terms from valuation v, known below prec (no term when
    # prec <= v or terms == 0), drawn mostly at the sizes of the
    # benchmark's prec 24-36 runs: the same value, prec and error as
    # the sum 1 - r + r^2 - ...
    import random as _r

    rng = _r.Random(seed)
    exponents = [e for e in range(v + 1, prec) if rng.random() < density]
    rng.shuffle(exponents)
    support = ([v] + exponents[:terms - 1]) if terms else []
    s = LaurentSeries(field, {e: nonzero_coefficient(field, rng) for e in support}, prec)
    try:
        expected = geometric_inverse(s)
    except ZeroSeries:
        with pytest.raises(ZeroSeries):
            s.inverse()
        return
    inv = s.inverse()
    assert inv == expected
    assert inv.prec == expected.prec == prec - 2 * v


@pytest.mark.parametrize("field", (F2, FieldSpec.finite(3, 2), F2u), ids=repr)
def test_long_series_inverse_is_an_inverse(field):
    import random as _r

    rng = _r.Random(7)
    v, prec = -5, 200
    support = [v] + sorted(rng.sample(range(v + 1, prec), 6))
    x = LaurentSeries(field, {e: nonzero_coefficient(field, rng) for e in support}, prec)
    inv = x.inverse()
    assert inv.prec == prec - 2 * v
    assert inv.valuation() == -v
    prod = x * inv
    assert prod.prec == prec - v
    assert prod == LaurentSeries.one(field, prod.prec)


def test_series_in_cut_semantics():
    s = mono(F3, 2, 1, prec=8)
    assert series_in_cut(s, Cut.at_least(2, Z))
    assert not series_in_cut(s, Cut.above(2, DENSE))
    assert series_in_cut(s, Cut.at_least(Fraction(4, 3), DENSE))
    # a visible pole decides membership even at low precision
    assert not series_in_cut(mono(F3, 2, 1, prec=3), Cut.at_least(5, Z))
    # a clean but short known range cannot certify membership
    with pytest.raises(InsufficientPrecision):
        series_in_cut(LaurentSeries.zero(F3, 3), Cut.at_least(5, Z))
    assert series_is_integral(s)
    assert not series_is_integral(mono(F3, -1))


def test_euler_and_u_derivatives():
    f = LaurentSeries(F3, {-2: F3.one(), 1: F3.from_int(2)}, 8)
    d = f.euler_derivative()
    assert d.coeffs == {-2: F3.from_int(-2 % 3), 1: F3.from_int(2)}
    u = F2u.generator()
    g = LaurentSeries(F2u, {-2: u * u, 0: u}, 8)
    dg = g.u_derivative()
    assert dg.coeffs == {0: F2u.one()}  # d(u^2)/du = 0 in char 2


def test_rendering():
    s = LaurentSeries(F2u, {-4: F2u.one(), -2: F2u.generator()}, 8)
    assert str(s) == "t^-4 + u*t^-2"
    assert str(LaurentSeries.zero(F2, 4)) == "0"


# the fields of the acceptance grid, and F_8 for codes of three digits
TEXT_FIELDS = (
    F2, F3, FieldSpec.finite(5), FieldSpec.finite(2, 2), FieldSpec.finite(2, 3),
    FieldSpec.finite(3, 2), FieldSpec.finite(5, 2), F2u, FieldSpec.rational(3),
)


@st.composite
def text_coefficients(draw, field):
    """Any element of F_q, or a quotient of polynomials of degree <= 3
    over F_p(u)."""
    if field.is_finite:
        return field.element_at(draw(st.integers(0, field.order - 1)))
    poly = st.lists(st.integers(0, field.p - 1), max_size=4)
    return field.from_polys(draw(poly), draw(poly.filter(any)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rendering_matches_the_termwise_text(data):
    field = data.draw(st.sampled_from(TEXT_FIELDS))
    coeffs = data.draw(st.dictionaries(st.integers(-6, 6), text_coefficients(field), max_size=5))
    s = LaurentSeries(field, coeffs, 8)
    assert str(s) == termwise_series_text(s)
    for c in coeffs.values():
        assert str(c) == element_text(c)


def test_rendering_wraps_sums_and_fractions_only():
    u = F3u.generator()
    s = LaurentSeries(F3u, {-4: (u + 1) / u, -3: 1 / (u * u + 1), -2: u + 1, -1: 2 * u,
                            0: 1, 1: 1}, 8)
    assert str(s) == "((u+1)/u)*t^-4 + (1/(u^2+1))*t^-3 + (u+1)*t^-2 + 2*u*t^-1 + 1 + t"
    F8 = FieldSpec.finite(2, 3)
    g = LaurentSeries(F8, {-1: F8.element_at(7), 0: F8.element_at(3), 1: 1, 2: F8.element_at(4)}, 8)
    assert str(g) == "(w^2+w+1)*t^-1 + w+1 + t + w^2*t^2"
    assert str(LaurentSeries(F3, {-1: 2, 0: 1, 1: 2}, 8)) == "2*t^-1 + 1 + 2*t"
    for series in (s, g):
        assert str(series) == termwise_series_text(series)


F3u = FieldSpec.rational(3)
F5 = FieldSpec.finite(5)


@pytest.mark.parametrize("foreign", [F5.from_int(4), F3u.from_int(1), F2.one()])
def test_series_ops_reject_a_scalar_from_another_field(foreign):
    t = mono(F3, 1)
    ops = [
        lambda: t + foreign,
        lambda: t - foreign,
        lambda: t * foreign,
        lambda: t.__radd__(foreign),
        lambda: t.__rmul__(foreign),
        lambda: t.__rsub__(foreign),
        lambda: t.scale(foreign),
        lambda: LaurentSeries.zero(F3, 4).scale(foreign),
    ]
    for op in ops:
        with pytest.raises(FieldMismatch):
            op()


def test_series_ops_take_ints_and_own_field_scalars():
    t = mono(F3, 1, prec=6)
    four = F3.from_int(4)
    assert t + four == t + 1 == LaurentSeries(F3, {0: F3.one(), 1: F3.one()}, 6)
    assert t - four == LaurentSeries(F3, {0: F3.from_int(2), 1: F3.one()}, 6)
    assert t * four == t.scale(4) == t.scale(four) == t
    assert t.__radd__(four) == t + four
    assert t.__rmul__(2) == LaurentSeries(F3, {1: F3.from_int(2)}, 6)


def test_a_scalar_times_a_series_is_its_scale_on_either_side():
    # read as a constant known below t^10, the scalar would leave the
    # product known only below t^8
    s = LaurentSeries(F3, {-2: 1, 0: 2}, 10)
    one, two = F3.one(), F3.from_int(2)
    for product in (s * one, one * s, s * 1, 1 * s):
        assert product == s.scale(one) == s
        assert product.prec == 10
    assert s * two == two * s == s * 5 == 5 * s == s.scale(2)


def test_constructor_rejects_an_element_of_another_field():
    with pytest.raises(FieldMismatch):
        LaurentSeries(F3, {0: F5.from_int(4)}, 4)
    with pytest.raises(FieldMismatch):
        LaurentSeries(F3, {9: F5.from_int(4)}, 4)  # beyond prec, still checked
    with pytest.raises(FieldMismatch):
        LaurentSeries(F3u, {0: F3.one()}, 4)
    with pytest.raises(FieldMismatch):
        LaurentSeries(F3, {0: Fraction(1, 2)}, 4)


def test_constructor_reads_ints_through_from_int():
    assert LaurentSeries(F3, {0: 2}, 4) == LaurentSeries(F3, {0: F3.from_int(2)}, 4)
    assert LaurentSeries(F3, {0: 5, 1: 3, 2: -1}, 4).coeffs == {
        0: F3.from_int(2), 2: F3.from_int(2),
    }
    assert LaurentSeries(F3u, {-1: 4}, 4).coeffs == {-1: F3u.one()}
