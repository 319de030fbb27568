"""The ideals of B read from the one shape record ``integral_basis``,
against the per-kind formulas they replace.

Each reference below decides between the wild and the ferocious shape
itself, as the ideal functions once did: the value group from the
classification, the ferocious difference ideal as J, the ferocious
different as J^(p-1), and the ferocious boundary generator as the unit
alpha*gamma.  Results must agree on cuts, and generators on values and
on ``prec``.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramify import extension, invariants
from ramify.extension import ASExtension, RamificationType, integral_basis
from ramify.fields import FieldSpec
from ramify.invariants import (
    boundary_generator,
    build_report,
    different_ideal,
    ideal_i_sigma,
    ideal_j,
    value_group_of_l,
)
from ramify.series import Cut, LaurentSeries, ValueGroup

from oracles import per_kind_generators

F2 = FieldSpec.finite(2)
F3 = FieldSpec.finite(3)
F4 = FieldSpec.finite(2, 2)
F5 = FieldSpec.finite(5)
F9 = FieldSpec.finite(3, 2)
F2u = FieldSpec.rational(2)
F3u = FieldSpec.rational(3)
Z = ValueGroup.discrete(1)


def ext_of(field, terms, prec=32):
    """The extension alpha^p - alpha = sum of c * t^e over ``terms``,
    where c is the generator (u or w) when given as "u", c times it when
    given as ("u", c), else an integer."""
    def coeff(c):
        if c == "u":
            return field.generator()
        if isinstance(c, tuple):
            return field.generator() * field.from_int(c[1])
        return field.from_int(c)

    coeffs = {e: coeff(c) for e, c in terms.items()}
    return ASExtension(field, LaurentSeries(field, coeffs, prec))


EXTENSIONS = [
    # the grid of tests/test_invariants.py
    ext_of(F2, {-1: 1}),
    ext_of(F2, {-3: 1}),
    ext_of(F3, {-1: 1}),
    ext_of(F3, {-2: 1}),
    ext_of(F2u, {-2: "u"}),
    ext_of(F3u, {-3: "u"}),
    ext_of(F5, {-2: 1}, prec=24),
    # ferocious poles 3 and 6 over F_3(u), a second F_5 pole 2
    ext_of(F3u, {-3: "u", 2: 1}, prec=24),
    ext_of(F3u, {-6: "u", -1: 1}, prec=24),
    ext_of(F5, {-2: 3, -1: 1, 3: 2}, prec=20),
    # presentations the reduction has to rewrite first
    ext_of(F2, {-4: 1}, prec=16),
    ext_of(F3, {-5: 2, -3: 1}, prec=24),
    ext_of(F2u, {-6: "u", -4: 1}, prec=24),
    ext_of(F4, {-3: 1}, prec=16),
    ext_of(F9, {-4: 1}, prec=16),
]


# -- the per-kind formulas -----------------------------------------------------


def _is_ferocious(ext):
    return ext.classification() is RamificationType.FEROCIOUS


def _wild_cuts(ext):
    """A_0 = A and A_i = {v > i*swan/p} over the value group of K."""
    n, p = ext.swan, ext.p
    return [Cut.at_least(0, Z)] + [Cut.above(Fraction(i) * n / p, Z) for i in range(1, p)]


def per_kind_value_group_of_l(ext):
    if ext.classification() is RamificationType.WILD:
        return ValueGroup.discrete(Fraction(1, ext.p))
    return ValueGroup.discrete(1)


def per_kind_ideal_j(ext):
    return Cut.at_least(ext.swan / ext.p, per_kind_value_group_of_l(ext))


def per_kind_ideal_i_sigma(ext):
    j = per_kind_ideal_j(ext)
    if _is_ferocious(ext):
        return j
    cuts = _wild_cuts(ext)
    v0 = ext.swan / ext.p
    best = min(cuts[i].value + (1 - i) * v0 for i in range(1, ext.p))
    return Cut.at_least(best, per_kind_value_group_of_l(ext))


def per_kind_different_ideal(ext):
    p = ext.p
    v0 = ext.swan / p
    if _is_ferocious(ext):
        return per_kind_ideal_j(ext) ** (p - 1)
    cuts = _wild_cuts(ext)
    candidates = [-(p - 1) * v0]
    for i in range(0, p - 1):
        candidates.append(-cuts[p - 1 - i].value - i * v0)
    return Cut.at_least(-min(candidates), per_kind_value_group_of_l(ext))


def per_kind_boundary_generator(ext):
    ext = ext.with_best_f()
    prec = ext.f.prec
    if _is_ferocious(ext):
        gamma = LaurentSeries.monomial(ext.field, int(ext.swan / ext.p), 1, prec)
        return ext.alpha() * gamma
    cuts = _wild_cuts(ext)
    v0 = ext.swan / ext.p
    i_star = min(range(1, ext.p), key=lambda i: cuts[i].value + (1 - i) * v0)
    g = LaurentSeries.monomial(ext.field, int(cuts[i_star].value), 1, prec)
    return ext.alpha_power(i_star) * g


# -- agreement ---------------------------------------------------------------------


@pytest.mark.parametrize("ext", EXTENSIONS, ids=repr)
def test_ideals_match_the_per_kind_formulas(ext):
    pairs = [
        (value_group_of_l(ext), per_kind_value_group_of_l(ext)),
        (ideal_j(ext), per_kind_ideal_j(ext)),
        (ideal_i_sigma(ext), per_kind_ideal_i_sigma(ext)),
        (different_ideal(ext), per_kind_different_ideal(ext)),
    ]
    for got, want in pairs:
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("ext", EXTENSIONS, ids=repr)
def test_boundary_generator_matches_values_and_prec(ext):
    got = boundary_generator(ext).coeffs
    want = per_kind_boundary_generator(ext).coeffs
    assert got == want  # LaurentSeries equality includes prec
    assert [c.prec for c in got] == [c.prec for c in want]


@pytest.mark.parametrize("ext", EXTENSIONS, ids=repr)
def test_record_cuts(ext):
    basis = integral_basis(ext)
    p, v0 = ext.p, ext.swan / ext.p
    if basis.kind == "wild":
        assert list(basis.cuts) == _wild_cuts(ext)
    else:
        # B = A[alpha*gamma] with gamma = t^(swan/p), so A_i = gamma^i A
        assert basis.kind == "ferocious" and _is_ferocious(ext)
        assert list(basis.cuts) == [Cut.at_least(i * v0, Z) for i in range(p)]
    # each generator is alpha^i times the monomial t^(A_i), an integer
    for i, (g, cut) in enumerate(zip(basis.generators(), basis.cuts)):
        assert cut.closed and cut.value.denominator == 1
        want = basis.ext.alpha_power(i).coeffs
        assert [c.coeffs for c in g.coeffs] == [
            {e + int(cut.value): x for e, x in c.coeffs.items()} for c in want
        ]
    assert basis.group == per_kind_value_group_of_l(ext)
    values = [basis.cuts[i].value + (1 - i) * v0 for i in range(1, p)]
    assert basis.i_star == 1 + values.index(min(values))


# -- generators against the per-kind chains ----------------------------------------


def assert_equal_values_prec_not_lower(got, want):
    """The same elements of L, each coordinate known at least as far."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g.coeffs, w.coeffs):
            assert a.prec >= b.prec
            assert a.truncate(b.prec) == b


@pytest.mark.parametrize("ext", EXTENSIONS, ids=repr)
def test_generators_match_the_per_kind_chains(ext):
    basis = integral_basis(ext)
    assert_equal_values_prec_not_lower(basis.generators(), per_kind_generators(basis))


# the ferocious and unramified cases, where the formula replaced the chain
# (alpha*gamma)^i; wild poles ride along, where nothing changed
F5u = FieldSpec.rational(5)
SHAPE_FIELDS = (F2, F3, F5, F4, F9, F2u, F3u, F5u)


@given(st.sampled_from(SHAPE_FIELDS), st.integers(1, 4), st.integers(0, 4),
       st.dictionaries(st.integers(-7, 4), st.integers(1, 4), max_size=3),
       st.one_of(st.integers(1, 8), st.integers(8, 32)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_generators_match_the_per_kind_chains_at_any_precision(field, k, c0, terms, prec, twist):
    # a pole of order k*p with residue u or w (ferocious over F_p(u)), or
    # a constant term c0 (unramified over F_p when nothing else has a
    # pole), plus up to three other terms; precisions from 1, below the
    # deepest A_i, where t^(A_i) at f's precision alone has no term
    p = field.p
    terms = {e: c % p for e, c in terms.items() if c % p}
    if not (field.is_finite and field.degree == 1):
        terms[-k * p] = ("u", 1 + twist) if p > 2 or not twist else "u"
    if c0 % p:
        terms[0] = c0 % p
    # an f with no term below its precision is zero there and defines
    # no extension
    assume(terms and min(terms) < prec)
    ext = ext_of(field, terms, prec)
    assume(ext.classification() is not RamificationType.TRIVIAL)
    basis = integral_basis(ext)
    assert_equal_values_prec_not_lower(basis.generators(), per_kind_generators(basis))


def test_the_formula_knows_a_ferocious_generator_further_than_the_chain():
    # over F_3(u), f = u*t^-3 + (u+1)*t: coordinates 0 and 1 of (alpha*t)^2
    # along the chain are known below t^31 and t^32, those of alpha^2 * t^2
    # below t^34, the zeros of the basis vector alpha^2 shifted by t^2
    u = F3u.generator()
    ext = ASExtension(F3u, LaurentSeries(F3u, {-3: u, 1: u + 1}, 32))
    basis = integral_basis(ext)
    got, want = basis.generators(), per_kind_generators(basis)
    assert_equal_values_prec_not_lower(got, want)
    assert [c.prec for c in want[2].coeffs] == [31, 32, 32]
    assert [c.prec for c in got[2].coeffs] == [34, 34, 32]


# the public cut functions, each derived from the shape on every call
CUTS = (
    "value_group_of_l", "ideal_h", "ideal_j", "ideal_i_sigma", "norm_of_j", "rsw_modulus",
    "different_ideal", "trace_dual_cut",
)


@pytest.mark.parametrize("field, terms, kind", [
    (F2, {-4: 1, -3: 1}, RamificationType.WILD),  # unreduced: t^-4 reduces to t^-1
    (F2u, {-2: "u"}, RamificationType.FEROCIOUS),
    (F3, {0: 1}, RamificationType.UNRAMIFIED),
])
def test_one_report_builds_the_shape_once(monkeypatch, field, terms, kind):
    # every reader of the shape shares one build per extension, and no
    # cut of the report is kept: each is derived again on every read
    builds = []
    shape = extension._shape

    def counted(*args):
        builds.append(args)
        return shape(*args)

    derived = []
    memo = ASExtension._memo

    def recorded(self, key, make):
        def make_and_record():
            derived.append(key)
            return make()

        return memo(self, key, make_and_record)

    reads = {name: 0 for name in CUTS}

    def read(name, cut_of):
        def wrapper(ext):
            reads[name] += 1
            return cut_of(ext)

        return wrapper

    monkeypatch.setattr(extension, "_shape", counted)
    monkeypatch.setattr(ASExtension, "_memo", recorded)
    for name in CUTS:
        monkeypatch.setattr(invariants, name, read(name, getattr(invariants, name)))
    ext = ext_of(field, terms, prec=16)
    report = build_report(ext)
    assert report.classification is kind and all(check.ok for check in report.checks.values())
    assert len(builds) == 1
    assert "integral_basis" in derived and not set(CUTS) & set(derived)
    assert reads["ideal_j"] > 1 and reads["ideal_i_sigma"] > 1 and reads["ideal_h"] > 1
