import ast
import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ramify
from ramify.errors import (
    DegenerateGenerator,
    ExtensionMismatch,
    FieldMismatch,
    InsufficientPrecision,
    InvalidSpec,
    NotApplicable,
    TrivialExtension,
    ZeroElement,
)
from ramify.extension import (
    ASExtension,
    BestCase,
    DifferenceOperators,
    LElement,
    RamificationType,
    classify,
    integral_basis,
    reduce_to_best,
)
from ramify.fields import Expr, FieldSpec
from ramify.invariants import boundary_generator, refined_swan
from ramify.parsing import parse_field_spec
from ramify.series import Cut, LaurentSeries, ValueGroup, dot

from oracles import (
    difference_denominators,
    difference_loop,
    integral_sample,
    is_integral,
    random_element,
    random_series,
    sigma_loop,
    unit_sample,
)

F2 = FieldSpec.finite(2)
F3 = FieldSpec.finite(3)
F5 = FieldSpec.finite(5)
F4 = FieldSpec.finite(2, 2)
F9 = FieldSpec.finite(3, 2)
F2u = FieldSpec.rational(2)
F3u = FieldSpec.rational(3)

Z = ValueGroup.discrete(1)


def mono(field, e, c=1, prec=32):
    return LaurentSeries.monomial(field, e, c, prec)


def ext_of(field, e, c=1, prec=32):
    return ASExtension(field, mono(field, e, c, prec))


# -- reduction to the best representative -----------------------------------


def test_reduce_deep_pole_two_steps():
    best = reduce_to_best(mono(F2, -4, 1, 8))
    assert best.swan == 1
    assert best.case is BestCase.WILD_POLE
    assert best.f_best.coeffs == {-1: F2.one()}
    assert len(best.reduction_log) == 2  # t^-4 -> t^-2 -> t^-1


def test_reduce_ferocious_is_untouched():
    f = mono(F3u, -3, F3u.generator(), 8)
    best = reduce_to_best(f)
    assert best.case is BestCase.FEROCIOUS_POLE
    assert best.swan == 3
    assert best.reduction_log == ()
    assert best.f_best == f


def test_reduce_merges_coefficients():
    # t^-6 + t^-2 over F_3: the cube root of 1 lands on the existing t^-2
    f = LaurentSeries(F3, {-6: F3.one(), -2: F3.one()}, 8)
    best = reduce_to_best(f)
    assert best.swan == 2
    assert best.f_best.coeffs == {-2: F3.from_int(2)}


def test_reduce_brute_force_spot_check():
    # same case, against the full shift search over span t^-1..t^-3
    f = LaurentSeries(F3, {-6: F3.one(), -2: F3.one()}, 8)
    best = None
    elems = list(F3.elements())
    for c1 in elems:
        for c2 in elems:
            for c3 in elems:
                h = LaurentSeries(F3, {-1: c1, -2: c2, -3: c3}, 20)
                g = f + (h ** 3 - h)
                negs = [e for e in g.coeffs if e < 0]
                cand = -min(negs) if negs else 0
                best = cand if best is None else min(best, cand)
    assert best == reduce_to_best(f).swan == 2


def test_reduce_integral_case():
    best = reduce_to_best(LaurentSeries(F3, {0: F3.one(), 1: F3.one()}, 4))
    assert best.case is BestCase.INTEGRAL
    assert best.swan == 0


def test_reduce_normal_form_has_no_reducible_term():
    rng = random.Random(9)
    from ramify.fields import is_pth_power

    for _ in range(40):
        f = random_series(F2, rng, -8, 2, 8)
        if f.is_zero_known():
            continue
        best = reduce_to_best(f)
        for e, c in best.f_best.coeffs.items():
            assert not (e < 0 and e % 2 == 0 and is_pth_power(c))


def test_reduce_log_soundness_and_swan_invariance():
    rng = random.Random(4)
    for p, field in ((2, F2), (3, F3)):
        for _ in range(30):
            f = random_series(field, rng, -7, 1, 8)
            if f.is_zero_known():
                continue
            best = reduce_to_best(f)
            recon = f
            for h in best.reduction_log:
                recon = recon - (h ** p - h)
            assert recon.agrees_with(best.f_best)
            h = random_series(field, rng, -2, 2, 8)
            assert reduce_to_best(f + (h ** p - h)).swan == best.swan


def test_reduce_precision_precondition():
    with pytest.raises(InsufficientPrecision):
        reduce_to_best(mono(F2, -2, 1, prec=0))


def test_finite_fields_never_ferocious():
    # perfect residue fields reduce every p-divisible pole
    best = reduce_to_best(mono(F4, -2, F4.generator(), 8))
    assert best.case is not BestCase.FEROCIOUS_POLE
    assert best.swan == 1


# -- classification -----------------------------------------------------------


def test_classify_examples():
    assert classify(ext_of(F3, -1)) is RamificationType.WILD
    assert classify(ext_of(F2u, -2, F2u.generator())) is RamificationType.FEROCIOUS
    # x^2 + x = 1 has no root in F_2, so f = 1 gives the unramified extension
    one = ASExtension(F2, LaurentSeries.one(F2, 4))
    assert classify(one) is RamificationType.UNRAMIFIED
    trivial = ASExtension(F2, mono(F2, 1, 1, 4))
    assert classify(trivial) is RamificationType.TRIVIAL


def test_classify_rational_constant():
    u = F3u.generator()
    ext = ASExtension(F3u, LaurentSeries.constant(u, 4))
    assert classify(ext) is RamificationType.UNRAMIFIED
    solvable = ASExtension(F3u, LaurentSeries.constant(u ** 3 - u, 4) + mono(F3u, 1, 1, 4))
    assert classify(solvable) is RamificationType.TRIVIAL


def test_a_zero_best_form_raises_trivial_extension():
    # t^-3 + 2t^-1 = h^3 - h for h = t^-1 over F_3, so the best form is 0
    ext = ASExtension(F3, LaurentSeries(F3, {-3: 1, -1: 2}, 8))
    assert ext.best.f_best.is_zero_known()
    assert classify(ext) is RamificationType.TRIVIAL
    for method in (ext.with_best_f, ext.inverse_f_best, ext.norm_alpha,
                   ext.integral_generators):
        with pytest.raises(TrivialExtension):
            method()


# -- arithmetic in L ----------------------------------------------------------


def test_defining_relation():
    for ext in (ext_of(F3, -1), ext_of(F2, -1)):
        a = ext.alpha()
        lhs = a ** ext.p
        rhs = a + ext.f
        assert lhs.agrees_with(rhs)
        # alpha * alpha^(p-1) written as a coefficient vector: (f, 1, 0, ...)
        prod = a * (a ** (ext.p - 1))
        assert prod.coeffs[0].agrees_with(ext.f)
        assert prod.coeffs[1].agrees_with(LaurentSeries.one(ext.field, 32))


def test_additive_identity_and_mismatch():
    ext = ext_of(F3, -2)
    x = integral_sample(ext, random.Random(0))
    assert (x + ext.zero()).agrees_with(x)
    other = ext_of(F3, -1)
    with pytest.raises(ExtensionMismatch):
        x + other.alpha()


def test_sigma_action():
    ext = ext_of(F3, -2)
    a = ext.alpha()
    sa = a.sigma(1)
    assert sa.coeffs[0].agrees_with(LaurentSeries.one(F3, 32))
    assert sa.coeffs[1].agrees_with(LaurentSeries.one(F3, 32))
    # sigma(alpha^2) = alpha^2 + 2 alpha + 1
    sq = (a * a).sigma(1)
    expect = a * a + a * 2 + ext.one()
    assert sq.agrees_with(expect)
    rng = random.Random(3)
    for _ in range(10):
        x = integral_sample(ext, rng)
        assert x.sigma(1).sigma(1).sigma(1).agrees_with(x)


def test_norm_and_trace_values():
    ext3 = ext_of(F3, -1)
    a = ext3.alpha()
    assert a.norm().coeffs == {-1: F3.one()}
    assert a.trace().is_zero_known()
    assert (a * a).trace().coeffs == {0: F3.from_int(-1 % 3)}
    ext2 = ext_of(F2, -1)
    assert ext2.alpha().trace().coeffs == {0: F2.one()}


def test_trace_identities_exact():
    for field, n in ((F2, 1), (F3, 1), (F3, 2), (F5, 1), (F5, 2)):
        ext = ext_of(field, -n)
        a = ext.alpha()
        power = ext.one()
        for m in range(1, field.p):
            power = power * a
            tr = power.trace()
            if m == field.p - 1:
                assert tr.coeffs == {0: field.from_int(-1)}
            else:
                assert tr.is_zero_known()


TRACE_EXTS = (
    ext_of(F2, -3), ext_of(F3, -2), ext_of(F5, -2, prec=24),
    ext_of(F4, -3, F4.generator()), ext_of(F3u, -3, F3u.generator()),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TRACE_EXTS), st.integers(0, 2**32))
def test_trace_matches_multiplication_matrix_diagonal(ext, seed):
    # -c_{p-1} is exact, so it knows at least as much as the diagonal sum
    x = unit_sample(ext, random.Random(seed))
    cols = x.columns()
    diagonal = cols[0][0]
    for i in range(1, ext.p):
        diagonal = diagonal + cols[i][i]
    tr = x.trace()
    assert tr.prec >= diagonal.prec
    assert tr.truncate(diagonal.prec) == diagonal


def test_norm_multiplicative_trace_additive_sigma_invariant():
    ext = ext_of(F3, -2)
    rng = random.Random(7)
    for _ in range(8):
        x = integral_sample(ext, rng)
        y = integral_sample(ext, rng)
        assert (x * y).norm().agrees_with(x.norm() * y.norm())
        assert (x + y).trace().agrees_with(x.trace() + y.trace())
        sx = x.sigma(1)
        assert sx.norm().agrees_with(x.norm())
        assert sx.trace().agrees_with(x.trace())


def test_norm_trace_match_conjugate_product_and_sum():
    # two independent routes: multiplication-matrix determinant/trace
    # versus explicit products/sums over the Galois orbit
    for ext in (ext_of(F3, -2), ext_of(F5, -2, prec=24),
                ext_of(F2u, -2, F2u.generator())):
        rng = random.Random(1)
        for _ in range(6):
            x = unit_sample(ext, rng)
            orbit_sum = ext.zero()
            orbit_prod = None
            for i in range(ext.p):
                s = x.sigma(i)
                orbit_sum = orbit_sum + s
                orbit_prod = s if orbit_prod is None else orbit_prod * s
            assert orbit_sum.coeffs[0].agrees_with(x.trace())
            assert all(c.is_zero_known() for c in orbit_sum.coeffs[1:])
            assert orbit_prod.coeffs[0].agrees_with(x.norm())
            assert all(c.is_zero_known() for c in orbit_prod.coeffs[1:])


def test_sigma_difference_power_equals_trace():
    # (sigma - 1)^(p-1) acts as the trace
    for ext in (ext_of(F3, -2), ext_of(F2, -3)):
        rng = random.Random(11)
        for _ in range(8):
            x = integral_sample(ext, rng)
            acc = x
            for _ in range(ext.p - 1):
                acc = acc.sigma(1) - acc
            assert acc.coeffs[0].agrees_with(x.trace())
            for c in acc.coeffs[1:]:
                assert c.is_zero_known()


def test_valuation_examples():
    ext = ext_of(F3, -2)
    assert ext.alpha().valuation() == Fraction(-2, 3)
    assert ext.from_series(mono(F3, 1)).valuation() == 1
    rng = random.Random(5)
    for _ in range(8):
        x = unit_sample(ext, rng)
        y = unit_sample(ext, rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        assert x.valuation() == x.valuation_coeffwise()
    with pytest.raises(ZeroElement):
        ext.zero().valuation()


def test_a_short_zero_coordinate_leaves_the_coeffwise_valuation_open():
    # t^5 + O(t^0)*alpha + O(t^32)*alpha^2 over F_3, f = t^-2: the alpha
    # term could have any valuation from -2/3 up, below the 5 that the
    # one nonzero coordinate gives, so neither valuation is decided
    ext = ext_of(F3, -2)
    x = LElement(ext, [mono(F3, 5), LaurentSeries(F3, {}, 0), LaurentSeries(F3, {}, 32)])
    for valuation in (x.valuation, x.valuation_coeffwise):
        with pytest.raises(InsufficientPrecision):
            valuation()
    # known past t^6, the alpha term lies above v = 16/3 > 5
    x = LElement(ext, [mono(F3, 5), LaurentSeries(F3, {}, 6), LaurentSeries(F3, {}, 32)])
    assert x.valuation_coeffwise() == x.valuation() == 5
    # unramified, a bound equal to the minimum still decides it: the
    # residues of 1 and alpha are independent, so t^5 + O(t^5)*alpha
    # has valuation 5, which the norm, known only below t^15, misses
    ext = ASExtension(F3, LaurentSeries(F3, {0: F3.from_int(2), 1: F3.one()}, 16))
    x = LElement(ext, [mono(F3, 5, prec=16), LaurentSeries(F3, {}, 5), LaurentSeries(F3, {}, 16)])
    assert x.valuation_coeffwise() == 5


def test_integrality():
    ext = ext_of(F3, -2)
    assert not is_integral(ext.alpha())
    t_alpha = ext.alpha() * mono(F3, 1)
    assert is_integral(t_alpha)  # v = 1 - 2/3 > 0
    assert is_integral(ext.one())


def test_sigma_difference_valuation_independent_of_power():
    # v(sigma^i(b) - b) does not depend on i
    for ext in (ext_of(F3, -2), ext_of(F5, -2, prec=24)):
        rng = random.Random(13)
        for _ in range(6):
            b = integral_sample(ext, rng)
            diffs = []
            for i in range(1, ext.p):
                d = b.sigma(i) - b
                if d.is_zero_known():
                    diffs.append(None)
                else:
                    diffs.append(d.valuation_coeffwise())
            assert len(set(diffs)) == 1


# -- difference operators ------------------------------------------------------


def test_difference_operator_laws():
    ext = ext_of(F3, -2)
    basis = integral_basis(ext)
    b = ext.alpha() * mono(F3, 1)  # t*alpha, the boundary of A_1
    ops = DifferenceOperators(ext, b)
    one, zero = ext.one(), ext.zero()
    assert ops.apply(0, b).agrees_with(b)  # D_0 = id
    for i in range(ext.p):
        assert ops.apply(i, b ** i).agrees_with(one)
        for j in range(i):
            assert ops.apply(i, b ** j).agrees_with(zero)
    # D_1(b^2) = b + sigma(b)
    assert ops.apply(1, b * b).agrees_with(b + b.sigma(1))
    rng = random.Random(2)
    zero_cut = Cut.at_least(0, Z)
    for _ in range(10):
        x = integral_sample(ext, rng)
        for i in range(1, ext.p):
            lhs = ops.apply(i, x * b)
            rhs = b.sigma(i) * ops.apply(i, x) + ops.apply(i - 1, x)
            assert lhs.agrees_with(rhs)
            assert ops.apply(i, x).in_cut(zero_cut)


def test_difference_operator_degenerate():
    ext = ext_of(F3, -2)
    with pytest.raises(DegenerateGenerator):
        DifferenceOperators(ext, ext.one())  # sigma fixes 1


def test_difference_operator_index_out_of_range():
    ext = ext_of(F3, -2)
    ops = DifferenceOperators(ext, ext.alpha() * mono(F3, 1))
    x = ext.alpha()
    for i in (-2, -1, ext.p):
        with pytest.raises(InvalidSpec):
            ops.apply(i, x)
        with pytest.raises(InvalidSpec):
            ops.chain(x, i)


@pytest.mark.parametrize("spec, pole, prec", [
    ("Fp:2", 3, 24), ("Fp:3", 2, 24), ("Fp:5", 3, 16), ("Fq:9", 2, 16),
    ("Fp(u):2", 2, 16), ("Fp(u):2", 3, 16), ("Fp(u):3", 1, 16), ("Fp(u):3", 3, 16),
])
def test_difference_chain_matches_the_loop(spec, pole, prec):
    """chain(x)[i] and apply(i, x) equal D_i(x) rebuilt by its own loop,
    and so do the cached denominators.  LElement equality compares each
    coordinate's coefficients and prec."""
    field = parse_field_spec(spec)
    c = field.one() if field.is_finite and field.degree == 1 else field.generator()
    ext = ext_of(field, -pole, c, prec).with_best_f()
    b = boundary_generator(ext)
    ops = DifferenceOperators(ext, b)
    den_inv = difference_denominators(ext, b)
    assert ops._den_inv == den_inv
    rng = random.Random(5)
    for x in [b, *(integral_sample(ext, rng) for _ in range(3))]:
        chain = ops.chain(x)
        assert len(chain) == ext.p
        for i in range(ext.p):
            want = difference_loop(den_inv, i, x)
            assert chain[i] == want
            assert ops.apply(i, x) == want


@pytest.mark.parametrize("spec, pole, prec", [
    ("Fp:2", 3, 24), ("Fp:3", 2, 24), ("Fp:5", 3, 16), ("Fq:9", 2, 16),
    ("Fp(u):2", 2, 16), ("Fp(u):2", 3, 16), ("Fp(u):3", 1, 16), ("Fp(u):3", 3, 16),
])
def test_sigma_matches_the_chain_of_scaled_sums(spec, pole, prec):
    """sigma_k in one pass equals the chain of ``scale`` and ``+``, in
    value and prec, for every k = 1 .. p-1, on elements whose
    coordinates have uneven precision and cancelling terms."""
    field = parse_field_spec(spec)
    c = field.one() if field.is_finite and field.degree == 1 else field.generator()
    ext = ext_of(field, -pole, c, prec).with_best_f()
    rng = random.Random(11)
    xs = [ext.alpha_power(ext.p - 1), integral_sample(ext, rng), unit_sample(ext, rng)]
    xs += [
        LElement(ext, tuple(
            random_series(field, rng, rng.randint(-3, 1), 4, rng.randint(0, prec))
            for _ in range(ext.p)
        ))
        for _ in range(6)
    ]
    for x in xs:
        for k in range(1, ext.p):
            assert x.sigma(k) == sigma_loop(x, k)


# -- integral closure description ---------------------------------------------


def test_integral_basis_wild():
    basis = integral_basis(ext_of(F3, -2))
    assert basis.kind == "wild"
    assert basis.cuts[0] == Cut.at_least(0, Z)
    assert basis.cuts[1] == Cut.at_least(1, Z)  # {v > 2/3} is {v >= 1}
    assert basis.cuts[2] == Cut.at_least(2, Z)  # {v > 4/3} is {v >= 2}


def test_integral_basis_ferocious():
    basis = integral_basis(ext_of(F2u, -2, F2u.generator()))
    assert basis.kind == "ferocious"
    assert basis.cuts == (Cut.at_least(0, Z), Cut.at_least(1, Z))  # A_i = t^i A
    gens = basis.generators()
    assert gens[0] == basis.ext.one()
    unit = gens[1]  # alpha * t
    assert unit.coeffs[1].coeffs == {1: F2u.one()}
    assert unit.valuation() == 0


def test_a_series_combines_with_an_element_of_l_on_either_side():
    ext = ext_of(F3, -1, prec=12)
    x = LElement(ext, (mono(F3, -2, 2, 10), mono(F3, 0, 1, 9), mono(F3, 1, 1, 8)))
    t = mono(F3, 1, 1, 11)
    zero = LaurentSeries.zero(F3, 11)
    assert t * x == x * t == LElement(ext, tuple(c * t for c in x.coeffs))
    assert t + x == x + t == LElement(ext, (x.coeffs[0] + t,) + tuple(c + zero for c in x.coeffs[1:]))
    assert t - x == -(x - t) == LElement(ext, (t - x.coeffs[0],) + tuple(zero - c for c in x.coeffs[1:]))


@pytest.mark.parametrize("field, pole", [(F9, -2), (F2u, -1)])
def test_a_field_scalar_is_a_constant_of_k(field, pole):
    # a scalar on either side of an element of L is the constant series
    # known below f's precision; a product by it is the series layer's
    # scale, which equals the product by that constant when the scalar
    # is nonzero and each coordinate lies in k[[t]], known below f's
    # precision (a zero scale keeps each coordinate's precision, where
    # the zero constant knows the product further)
    ext = ext_of(field, pole, prec=10)
    rng = random.Random(7)
    for _ in range(6):
        c = random_element(field, rng, max_degree=1)
        const = LaurentSeries.constant(c, ext.f.prec)
        x = LElement(ext, tuple(random_series(field, rng, 0, 4, ext.f.prec) for _ in range(ext.p)))
        y = LElement(ext, tuple(random_series(field, rng, -3, 4, 8) for _ in range(ext.p)))
        for z in (x, y):
            assert z + c == c + z == z + const
            assert z - c == z - const and c - z == const - z
            assert z * c == c * z == LElement(ext, tuple(s.scale(c) for s in z.coeffs))
        if not c.is_zero():
            assert x * c == x * const
    alien = F3.one()
    x = ext.alpha()
    for op in (lambda: x + alien, lambda: alien + x, lambda: x - alien, lambda: alien - x,
               lambda: x * alien, lambda: alien * x):
        with pytest.raises(FieldMismatch):
            op()
    with pytest.raises(ExtensionMismatch):
        x + "1"
    with pytest.raises(ExtensionMismatch):
        x * "1"


def test_a_zero_scalar_keeps_the_precision_of_what_it_scales():
    # ``scale`` reads its scalar as exact and keeps the precision of the
    # series: t^3 + O(t^5) times 0 is O(t^5), where the constant series
    # 0 + O(t^5) would know the product below t^8.  An element of L by 0
    # keeps each coordinate's precision.
    zero = F3.zero()
    for s in (LaurentSeries(F3, {3: 1}, 5), LaurentSeries(F3, {-2: 1, 1: 2}, 5)):
        for product in (s * 0, 0 * s, s * zero, zero * s):
            assert product == LaurentSeries.zero(F3, 5)
    ext = ext_of(F3, -1, prec=8)
    x = LElement(ext, (LaurentSeries(F3, {3: 1}, 5), LaurentSeries(F3, {-2: 1}, 6),
                       LaurentSeries.zero(F3, 7)))
    for product in (x * 0, 0 * x, x * zero, zero * x):
        assert product.coeffs == tuple(LaurentSeries.zero(F3, prec) for prec in (5, 6, 7))


def test_integral_basis_not_applicable():
    with pytest.raises(NotApplicable):
        integral_basis(ASExtension(F2, mono(F2, 1, 1, 4)))  # f = t is trivial


def test_integral_generators_belong_to_the_reduced_presentation():
    ext = ext_of(F2, -4, prec=16)
    reduced = ext.with_best_f()
    assert reduced.f.coeffs == {-1: F2.one()}
    gens = ext.integral_generators()
    assert all(g.ext is reduced for g in gens)
    assert gens[1].valuation() == Fraction(1, 2)  # t*alpha with v(alpha) = -1/2
    assert gens == reduced.integral_generators()


def test_with_best_f_shares_invariants():
    ext = ext_of(F2, -4, prec=16)
    best = ext.with_best_f()
    assert best.f.coeffs == {-1: F2.one()}
    assert best.swan == ext.swan == 1


def test_with_best_f_of_a_reduced_presentation_compares_no_series(monkeypatch):
    """A presentation that reduces to itself is its own best form: f_best
    is f, so ``with_best_f`` returns it without comparing series."""
    reduced = ext_of(F2, -4, prec=16).with_best_f()

    def no_eq(self, other):
        raise AssertionError("with_best_f compared two series")

    monkeypatch.setattr(LaurentSeries, "__eq__", no_eq)
    assert reduced.best.f_best is reduced.f
    assert reduced.with_best_f() is reduced
    assert reduced.alpha().valuation_coeffwise() == Fraction(-1, 2)


SELFTEST_FIELDS = (F2, F3, F5, F2u, F3u)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SELFTEST_FIELDS), st.integers(0, 2**32), st.booleans(),
       st.integers(1, 16))
def test_f_best_is_f_exactly_when_nothing_is_absorbed(field, draw, shifted, prec):
    """For f = f_best + h^p - h, with f_best reduced and h supported on
    t^-3..t^1 or zero, reduction returns f itself exactly when it
    absorbs nothing, and otherwise a series that differs from f.  h
    carries 3p more terms, so h^p - h is known as far as f_best."""
    rng = random.Random(draw)
    p = field.p
    f_best = reduce_to_best(random_series(field, rng, -6, 2, prec)).f_best
    h = random_series(field, rng, -3, 1, prec + 3 * p)
    if not shifted:
        h = LaurentSeries.zero(field, prec)
    f = f_best + (h ** p - h)
    best = reduce_to_best(f)
    assert (best.f_best is f) == (best.f_best == f) == (not best.reduction_log)


def test_coeffwise_valuation_needs_reduced_presentation():
    # over the raw presentation alpha^p - alpha = t^-4 the valuation of
    # alpha is -2, inside the base group, so coordinatewise minima are
    # not available; the norm route still works
    ext = ext_of(F2, -4, prec=16)
    assert ext.alpha().valuation() == -2
    with pytest.raises(NotApplicable):
        ext.alpha().valuation_coeffwise()
    reduced = ext.with_best_f()
    assert reduced.alpha().valuation() == reduced.alpha().valuation_coeffwise()


def test_cached_elements_leave_no_reference_cycle():
    # an extension and its caches are freed by reference counting, not
    # left for a full garbage collection to find
    gc.collect()
    gc.disable()
    try:
        # an element holds the columns of its multiplication matrix once
        # a product or a norm has built them
        ext = ext_of(F3, -2, prec=12)
        x, y = ext.alpha() + ext.one(), ext.alpha()
        x * y
        x.norm()
        y.inverse()
        del ext, x, y
        assert gc.collect() == 0
        ext = ext_of(F3, -2, prec=12)
        ext.alpha_power(2)
        ext.integral_generators()
        ext.norm_alpha()
        ext.with_best_f()
        del ext
        assert gc.collect() == 0
        # 1/f_best is kept on the reduced presentation of an unreduced one
        ext = ext_of(F3, -6, prec=12)
        assert ext.f != ext.best.f_best
        ext.inverse_f_best()
        assert "inverse_f" in ext.with_best_f()._cache
        refined_swan(ext)
        assert "refined_swan" in ext.with_best_f()._cache
        assert integral_basis(ext).ext is ext.with_best_f()
        del ext
        assert gc.collect() == 0
        # an expression keeps nothing of its evaluations
        x = Expr.var("x")
        expr = (x + Expr.const(F3.one())) / (x * x - 2) ** 3
        assert expr.evaluate({"x": F3.from_int(1)}, F3) == F3.from_int(1)
        # (x^2 + 1)^3 = x^6 + 1 in characteristic 3
        assert expr.evaluate({}, F3) == ({(("x", 1),): 1, (): 1}, {(("x", 6),): 1, (): 1})
        del x, expr
        assert gc.collect() == 0
        # F_p(u) arithmetic and the kernel keep nothing of their operands
        u = F2u.generator()
        x = (u + 1) / (u ** 3 + u + 1) ** 2
        s = LaurentSeries(F2u, {0: x, 1: x * x + 1 / u}, 4)
        dot([(s, s)])
        del u, x, s
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_only_asextension_touches_its_memo():
    # one memo: outside class ASExtension no code reads or writes the
    # attribute _cache; everything else goes through ASExtension._memo
    outside = []
    for path in sorted(Path(ramify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "ASExtension"
            for node in ast.walk(cls)
        }
        outside += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in inside and (
                isinstance(node, ast.Attribute) and node.attr == "_cache"
                or isinstance(node, ast.Constant) and node.value == "_cache"
            )
        ]
    assert outside == []
