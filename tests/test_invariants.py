import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramify import extension, invariants, selftest
from ramify.errors import (
    InsufficientPrecision,
    InvalidSpec,
    NotApplicable,
    RamifyError,
    SwanZero,
    TrivialExtension,
)
from ramify.extension import (
    ASExtension,
    LElement,
    RamificationType,
    integral_basis,
)
from ramify.fields import FieldSpec, is_pth_power
from ramify.invariants import (
    CheckResult,
    boundary_generator,
    build_report,
    check_diagram_commutativity,
    check_difference_product_rules,
    check_norm_additivity,
    check_norm_ideal_identity,
    check_refined_swan_stability,
    different_ideal,
    ideal_h,
    ideal_i_sigma,
    ideal_j,
    norm_of_j,
    principality_chain,
    refined_swan,
    restrict_cut,
    rsw_modulus,
    trace_dual_cut,
    value_group_of_l,
)
from ramify.parsing import parse_field_spec, parse_series
from ramify.series import Cut, LaurentSeries, ValueGroup, random_series, series_in_cut

import oracles
from oracles import (
    candidate_traces,
    element_trace_dual_cut,
    gram_trace_dual_cut,
    hand_loop_refined_swan_stability,
    integral_sample,
    lefschetz_minimum,
    report_principality_chain,
    sampled_diagram_commutativity,
    sampled_norm_additivity,
    scan_traces,
    table_trace_dual_cut,
    tower_fields_principality_chain,
    trace_of_product,
)

F2 = FieldSpec.finite(2)
F3 = FieldSpec.finite(3)
F5 = FieldSpec.finite(5)
F2u = FieldSpec.rational(2)
F3u = FieldSpec.rational(3)

Z = ValueGroup.discrete(1)


def mono(field, e, c=1, prec=32):
    return LaurentSeries.monomial(field, e, c, prec)


def ext_of(field, e, c=1, prec=32):
    return ASExtension(field, mono(field, e, c, prec))


GRID = [
    ext_of(F2, -1),
    ext_of(F2, -3),
    ext_of(F3, -1),
    ext_of(F3, -2),
    ext_of(F2u, -2, F2u.generator()),
    ext_of(F3u, -3, F3u.generator()),
    ext_of(F5, -2, prec=24),
]


def test_ideal_values_wild():
    ext = ext_of(F3, -2)
    assert ideal_h(ext) == Cut.at_least(2, Z)
    assert ideal_j(ext) == Cut.at_least(Fraction(2, 3), value_group_of_l(ext))
    assert ideal_i_sigma(ext).value == 1
    assert norm_of_j(ext) == Cut.at_least(2, Z)


def test_ideal_values_ferocious():
    ext = ext_of(F2u, -2, F2u.generator())
    j = ideal_j(ext)
    assert j == Cut.at_least(1, value_group_of_l(ext))
    assert ideal_i_sigma(ext) == j


def test_ideal_h_trivial_extension():
    trivial = ASExtension(F2, mono(F2, 1, 1, 4))
    with pytest.raises(TrivialExtension):
        ideal_h(trivial)
    with pytest.raises(NotApplicable):
        ideal_j(trivial)


def test_checks_on_a_trivial_extension_raise_trivial_extension():
    trivial = ASExtension(F2, mono(F2, 1, 1, 4))  # f = t
    for check in (check_norm_ideal_identity, check_norm_additivity):
        with pytest.raises(TrivialExtension):
            check(trivial)
        with pytest.raises(NotApplicable):
            check(trivial)


def test_i_sigma_matches_sampling_oracle():
    for ext in (ext_of(F3, -2), ext_of(F3, -1), ext_of(F5, -2, prec=24),
                ext_of(F2u, -2, F2u.generator())):
        formula = ideal_i_sigma(ext).value
        sampled = lefschetz_minimum(ext, samples=60, seed=5)
        assert sampled == formula


def test_boundary_generator_attains_minimum():
    for ext in GRID:
        b = boundary_generator(ext)
        bext = ext.with_best_f()
        d = b.sigma(1) - b
        assert d.valuation_coeffwise() == ideal_i_sigma(bext).value


def test_norm_ideal_identity_grid():
    for ext in GRID:
        res = check_norm_ideal_identity(ext)
        assert res.ok, res.detail
        assert res.detail["generator_sign"] == 1


def test_norm_ideal_identity_unramified():
    ext = ASExtension(F2, LaurentSeries.one(F2, 8))
    assert check_norm_ideal_identity(ext).ok


@pytest.mark.parametrize("spec, text", [
    ("Fp:2", "1 + t"),
    ("Fp:3", "1 + t^2"),
    ("Fq:4", "w + t"),
    ("Fp(u):2", "u + t"),
    ("Fp:2", "t^-2 + t^-1 + 1 + t"),  # reduces to 1 + t
])
def test_unramified_extension_is_the_gamma_one_case(spec, text):
    field = parse_field_spec(spec)
    integers = Cut.at_least(0, Z)
    for prec in (2, 8, 16):
        ext = ASExtension(field, parse_series(text, field, prec))
        assert ext.classification() is RamificationType.UNRAMIFIED
        reduced = ext.with_best_f()
        basis = integral_basis(ext)
        assert basis.kind == "unramified"
        assert basis.ext is reduced
        assert basis.group == Z
        assert basis.cuts == (integers,) * field.p
        assert basis.i_star == 1
        # B = A[alpha]: the generators alpha^i * t^0 are the powers of
        # alpha, in value and prec
        alpha_powers = [reduced.alpha_power(i) for i in range(field.p)]
        assert basis.generators() == alpha_powers
        assert ext.integral_generators() == alpha_powers
    assert value_group_of_l(ext) == Z
    assert ideal_j(ext) == ideal_i_sigma(ext) == integers
    # the discriminant oracle agrees with the formula: B/A is unramified
    assert trace_dual_cut(ext) == different_ideal(ext) == integers
    assert boundary_generator(ext) == reduced.alpha()
    assert check_difference_product_rules(ext).ok
    assert all(principality_chain(ext).values())
    with pytest.raises(SwanZero):
        check_diagram_commutativity(ext)


def test_refined_swan_wild():
    form = refined_swan(ext_of(F3, -2))
    # t d(t^-2)/dt / t^-2 = -2 = 1 mod 3
    assert form.dlog_t.coeffs == {0: F3.one()}
    assert form.du is None
    assert form.modulus == Cut.at_least(2, Z)  # (p-1)/p * 2 = 4/3 lifted


def test_refined_swan_ferocious():
    form = refined_swan(ext_of(F2u, -2, F2u.generator()))
    u = F2u.generator()
    assert form.dlog_t.is_zero_known()  # -2 = 0 in characteristic 2
    assert form.du.coeffs == {0: 1 / u}
    assert form.modulus == Cut.at_least(1, Z)


def test_refined_swan_zero_raises():
    with pytest.raises(SwanZero):
        refined_swan(ASExtension(F2, LaurentSeries.one(F2, 8)))


def test_refined_swan_stability_grid():
    for ext in GRID:
        assert check_refined_swan_stability(ext, samples=25, seed=8).ok


STABILITY_FIELDS = [
    parse_field_spec(s) for s in ("Fp:2", "Fp:3", "Fp:5", "Fp:7", "Fq:9", "Fp(u):2", "Fp(u):3")
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STABILITY_FIELDS), st.data())
def test_a_stability_shift_never_moves_the_pole_order(field, data):
    """The stability trial draws a supported in [lo, lo + 3] with lo =
    -floor((n - 1)/p), so v(a^p - a) >= p*lo > -n, and f + a^p - a is
    known below at least 1 + (p - 1)*lo >= 2 - n since f.prec >= 1:
    it keeps valuation -n on every draw, for wild and ferocious poles
    of order n and every precision of f."""
    p = field.p
    n = data.draw(st.sampled_from(
        [n for n in range(1, 13) if n % p or not field.is_finite]), label="n")
    prec = data.draw(st.integers(1, n + 30), label="prec")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    c = field.zero()
    while c.is_zero() or (n % p == 0 and is_pth_power(c)):  # ferocious: c not in k^p
        c = field.sample_point(rng, max_degree=1)
    f = mono(field, -n, c, prec) + random_series(field, rng, 1 - n, prec - 1, prec, density=0.5)
    lo = -((n - 1) // p)
    for _ in range(20):
        a = random_series(field, rng, lo, lo + 3, f.prec, density=0.6)
        assert (f + (a ** p - a)).valuation() == -n


def test_refined_swan_comparison_is_at_the_common_generator():
    # f = t^-3, a = t^-1 + t^2 over F_2: the raw forms dlog f and
    # dlog g differ already at valuation 1, below the comparison ideal
    # at 2; the invariant maps still agree when both are evaluated
    # against 1/f.  This pins the comparison convention.
    f = mono(F2, -3, 1, prec=32)
    a = LaurentSeries(F2, {-1: F2.one(), 2: F2.one()}, 32)
    g = f + (a ** 2 - a)
    assert g.valuation() == -3
    ext = ASExtension(F2, f)
    modulus = rsw_modulus(ext)
    assert modulus == Cut.at_least(2, Z)
    raw_f = f.euler_derivative() * f.inverse()
    raw_g = g.euler_derivative() * g.inverse()
    assert (raw_f - raw_g).valuation() == 1  # naive comparison fails
    assert not series_in_cut(raw_f - raw_g, modulus)
    inv_f = f.inverse()
    at_generator_f = f.euler_derivative() * inv_f
    at_generator_g = g.euler_derivative() * inv_f
    assert series_in_cut(at_generator_f - at_generator_g, modulus)
    assert check_refined_swan_stability(ext, samples=40, seed=1).ok


def test_different_examples():
    fero = ext_of(F2u, -2, F2u.generator())
    d = different_ideal(fero)
    assert d == Cut.at_least(1, value_group_of_l(fero))
    assert d == ideal_j(fero) ** (fero.p - 1)
    wild = ext_of(F3, -2)
    dw = different_ideal(wild)
    assert dw.value == 2  # from the coefficient-ideal trace conditions
    assert dw * dw.inverse() == Cut.at_least(0, value_group_of_l(wild))


def test_different_matches_trace_dual():
    for ext in (ext_of(F2, -1), ext_of(F3, -2), ext_of(F2u, -2, F2u.generator())):
        assert different_ideal(ext) == trace_dual_cut(ext)


def test_different_matches_the_gram_determinant_at_p_17():
    # the largest Gram matrix of the suite: 2^17 - 18 minors, most of
    # them known zero, expanded on raw coefficients by the test oracle
    ext = ext_of(FieldSpec.finite(17), -1, prec=72)
    assert trace_dual_cut(ext) == different_ideal(ext) == gram_trace_dual_cut(ext)


SCAN_FIELDS = tuple(
    parse_field_spec(spec)
    for spec in ("Fp:2", "Fp:3", "Fp:5", "Fp:7", "Fq:4", "Fq:9", "Fp(u):2", "Fp(u):3")
)


def scan_extension(field, rng, prec):
    """f = c*t^-n plus random terms up to t^1.  n is prime to p over a
    finite field (wild); over F_p(u), p | n is allowed too, which is
    ferocious when c is not a p-th power."""
    poles = range(1, 3 if field.p == 7 else 5)
    n = rng.choice([n for n in poles if n % field.p or not field.is_finite])
    return pole_extension(field, rng, n, prec)


def pole_extension(field, rng, n, prec):
    """f = c*t^-n plus random terms from t^(1-n) up to t^1."""
    coeffs = {-n: field.sample_point(rng, max_degree=1) or field.one()}
    for e in range(1 - n, 2):
        if rng.random() < 0.4:
            coeffs[e] = field.sample_point(rng, max_degree=1)
    return ASExtension(field, LaurentSeries(field, coeffs, prec))


def scan_outcome(scan, ext, seed, *args):
    try:
        return scan(ext, seed, *args)
    except RamifyError as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SCAN_FIELDS), st.integers(0, 2**32), st.integers(4, 16), st.integers(0, 7))
def test_table_scan_matches_the_element_scan(field, seed, prec, scan_seed):
    """The test oracle's scan on the table of generator traces returns
    the cut the scan over built elements returns, or raises the same
    exception class, for the same seed.  Every trace it can read equals
    the one from the built element in value, known at least as far."""
    ext = scan_extension(field, random.Random(seed), prec)
    log = []
    want = scan_outcome(element_trace_dual_cut, ext, scan_seed, log)
    assert scan_outcome(table_trace_dual_cut, ext, scan_seed) == want
    if not log:
        return
    ext = ext.with_best_f()
    table = scan_traces(ext)
    gens = ext.integral_generators()
    for r, s, bump, x in log:
        traces = list(candidate_traces(table, r, s, bump))
        assert len(traces) == len(gens)
        for tr, g in zip(traces, gens):
            old = trace_of_product(x, g)
            assert tr.prec >= old.prec
            assert tr.truncate(old.prec) == old


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SCAN_FIELDS), st.integers(0, 2**32), st.integers(4, 16), st.integers(0, 7))
def test_discriminant_matches_the_scan_where_it_decides(field, seed, prec, scan_seed):
    """Wherever the scan over candidate valuations decides, the
    discriminant of the trace form decides too, on the same cut."""
    ext = scan_extension(field, random.Random(seed), prec)
    want = scan_outcome(table_trace_dual_cut, ext, scan_seed)
    if isinstance(want, Cut):
        assert trace_dual_cut(ext) == want


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SCAN_FIELDS), st.integers(0, 2**32), st.integers(4, 16))
def test_the_shape_matches_the_gram_determinant_where_it_decides(field, seed, prec):
    """For any presentation of a nontrivial extension, the cut read off
    the shape of B never raises, and wherever the Laplace expansion of
    the Gram matrix decides, it decides on the same cut.  A draw such as
    f = t^-2 + t^-1 over F_2(u) is trivial, and both raise
    TrivialExtension."""
    ext = scan_extension(field, random.Random(seed), prec)
    if ext.classification() is RamificationType.TRIVIAL:
        for oracle in (trace_dual_cut, gram_trace_dual_cut):
            with pytest.raises(TrivialExtension):
                oracle(ext)
        return
    cut = trace_dual_cut(ext)
    try:
        want = gram_trace_dual_cut(ext)
    except InsufficientPrecision:
        return
    assert cut == want


@pytest.mark.parametrize("ext", [
    ext_of(F5, -3),
    ext_of(FieldSpec.finite(3, 2), -2, FieldSpec.finite(3, 2).generator()),
    ext_of(F3u, -2, F3u.generator()),
    ext_of(F2u, -2, F2u.generator()),
    ext_of(F3u, -3, F3u.generator()),
    ASExtension(F3, parse_series("2 + t", F3, 16)),
], ids=["wild-Fp5", "wild-Fq9", "wild-Fp(u)3", "ferocious-Fp(u)2", "ferocious-Fp(u)3",
        "unramified-Fp3"])
def test_the_trace_form_is_anti_triangular(monkeypatch, ext):
    """Tr(alpha^m) is 0 for m < p - 1 and -1 at p - 1, so the Gram matrix
    Tr(g_k * g_j) of g_k = alpha^k * t^(e_k) vanishes above its
    anti-diagonal, reads -t^(e_k + e_j) on it, and has determinant
    +-t^(2 * sum e_k), all on the known range.  The test oracle expands
    that one determinant; ``trace_dual_cut`` reads the same cut off the
    shape of B, with no expansion and no sample."""
    calls = []

    def laplace(cols):
        calls.append(cols)
        return real_laplace(cols)

    def no_call(*args, **kwargs):
        raise AssertionError("trace_dual_cut expanded a determinant or drew a sample")

    real_laplace = extension._laplace
    monkeypatch.setattr(oracles, "_laplace", laplace)
    gram = gram_trace_dual_cut(ext)
    assert len(calls) == 1
    cols = calls[0]
    det = real_laplace(cols)[0]
    assert gram == Cut.at_least(det.valuation() / ext.p, value_group_of_l(ext))
    monkeypatch.setattr(extension, "_laplace", no_call)
    monkeypatch.setattr(oracles, "integral_sample", no_call)
    assert trace_dual_cut(ext) == gram
    p = ext.p
    field = ext.field
    exps = [int(cut.value) for cut in integral_basis(ext).cuts]
    for k in range(p):
        for j in range(p - k):
            entry = cols[j][k]
            if k + j < p - 1:
                assert entry.is_zero_known()
            else:
                e = exps[k] + exps[j]
                assert entry.prec > e
                assert (entry + mono(field, e, 1, entry.prec)).is_zero_known()
    e = 2 * sum(exps)
    assert det.prec > e
    assert any((det + mono(field, e, sign, det.prec)).is_zero_known() for sign in (1, -1))


def test_norm_additivity_grid():
    """Tr(B) = t^(A_(p-1)) * A, read off the top cut of the shape, lies in
    I_sigma & A on every grid extension; the engine's traces of the
    generators agree: Tr(g_(p-1)) has valuation A_(p-1), and every other
    Tr(g_k) is zero on its known range."""
    for ext in GRID:
        result = check_norm_additivity(ext)
        assert result.ok, result.detail
        e_top = int(integral_basis(ext).cuts[-1].value)
        assert result.detail == {
            "bound": restrict_cut(ideal_i_sigma(ext), Z), "trace": Cut.at_least(e_top, Z),
        }
        *low, top = (g.trace() for g in ext.integral_generators())
        assert top.valuation() == e_top
        assert all(tr.is_zero_known() for tr in low)


def test_diagram_unit_case():
    # b = 1 reduces the square to the generator identity
    ext = ext_of(F3, -2)
    f = ext.best.f_best
    one = ext.one()
    z = one * (ext.alpha().sigma(1) * ext.inverse_alpha() - one)
    prod = z.norm() * f
    target = LaurentSeries.one(F3, prod.prec)
    assert (prod - target).is_zero_known()


def test_diagram_grid():
    for ext in GRID:
        result = check_diagram_commutativity(ext)
        assert result.ok, result.detail
        assert result.detail == {
            "h_squared": Cut.at_least(2 * ext.swan, Z), "modulus": rsw_modulus(ext),
        }


@pytest.mark.parametrize("make", [
    lambda: ext_of(F3, -2),
    lambda: ext_of(F5, -2, prec=24),
    lambda: ext_of(F3u, -3, F3u.generator()),
], ids=["wild-Fp3", "wild-Fp5", "ferocious-Fp(u)3"])
@pytest.mark.parametrize("offset, ok", [(-1, False), (0, True)], ids=["below", "at"])
def test_a_moved_top_cut_fails_norm_additivity(monkeypatch, make, offset, ok):
    """A mutant shape of B with A_(p-1) at least(I_sigma & A) + offset,
    the other cuts and i_star kept, has Tr(B) = t^(A_(p-1)) * A: one
    below I_sigma & A fails the additivity check, at it passes.  i_star
    is not p - 1 here, so the mutant leaves I_sigma as it was.  The shape
    is memoised, so the mutant is read by a fresh extension."""
    real_shape = extension._shape

    def moved(kind, p, v0):
        group, cuts, i_star = real_shape(kind, p, v0)
        least = math.ceil(cuts[i_star].value + (1 - i_star) * v0)
        return group, cuts[:-1] + (Cut.at_least(least + offset, Z),), i_star

    monkeypatch.setattr(extension, "_shape", moved)
    ext = make()
    assert integral_basis(ext).i_star != ext.p - 1
    bound = restrict_cut(ideal_i_sigma(ext), Z)
    result = check_norm_additivity(ext)
    assert result.ok is ok
    assert result.detail == {"bound": bound, "trace": Cut.at_least(bound.value + offset, Z)}


@pytest.mark.parametrize("ext", GRID, ids=lambda ext: f"p{ext.p}-{ext.f}")
def test_a_perturbed_norm_of_one_over_alpha_fails_the_diagram(ext):
    """N(1/alpha) moved by t^(2n - 1) breaks the norm face of the square;
    moved by t^(2n), inside H^2, every face still holds.  The perturbed
    value is put into the memo of a fresh extension."""
    n = int(ext.swan)
    real = ext.norm_inverse_alpha()
    for e, ok in ((2 * n - 1, False), (2 * n, True)):
        fresh = ASExtension(ext.field, ext.f)
        assert real.prec > e
        fresh._cache["norm_inverse_alpha"] = real + mono(ext.field, e, 1, real.prec)
        result = check_diagram_commutativity(fresh)
        assert result.ok is ok
        assert result.detail.get("face") == (None if ok else "norm")


def test_difference_product_rules():
    ext = ext_of(F3, -2)
    group = value_group_of_l(ext)
    result = check_difference_product_rules(ext)
    assert result.ok
    # sigma(g_1) - g_1 = t (v = 1), sigma(g_2) - g_2 = t^2 (2*alpha + 1) (v = 4/3);
    # each g_k = alpha^k t^k has v(g_k) = k/3, so every ratio has v = 2/3
    assert result.detail == {
        "i_sigma": Cut.at_least(1, group), "i_sigma_generators": Cut.at_least(1, group),
        "j_sigma": Cut.at_least(Fraction(2, 3), group),
        "j_sigma_generators": Cut.at_least(Fraction(2, 3), group),
    }
    # elements of K are fixed: sigma(b) - b = 0 exactly
    b = ext.from_series(mono(F3, 2))
    assert (b.sigma(1) - b).is_zero_known()


def rule_outcome(check, ext, samples, seed):
    """The check's result, or the type and message of what it raised."""
    try:
        return check(ext, samples, seed)
    except RamifyError as exc:
        return type(exc), str(exc)


def analyze_configs(monkeypatch, workload, seed):
    """The analyze argv's of one pass of a benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses read the namespace of the module that defines them
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [c["argv"] for c in workloads.generate(workload, seed)]


@pytest.mark.parametrize("workload", ["wild_small_p", "wild_large_p", "ferocious_fpu"])
def test_the_generators_decide_every_benchmark_product_rule(monkeypatch, workload):
    """On every analyze configuration of seeds 1-3, the generators' cuts
    are the formulas' i_sigma and j."""
    for seed in (1, 2, 3):
        for argv in analyze_configs(monkeypatch, workload, seed):
            args = dict(zip(argv[1::2], argv[2::2]))
            field = parse_field_spec(args["--field"])
            ext = ASExtension(field, parse_series(args["--f"], field, int(args["--prec"])))
            result = check_difference_product_rules(ext)
            assert result.ok, (argv, result.detail)


# the selftest's DVR_GRID, which GRID repeats, and two more presentations
PRODUCT_RULE_EXTS = [selftest.grid_extension(*case) for case in selftest.DVR_GRID] + [
    ASExtension(F3, parse_series("t^-9 + 2*t^-3 + t^-2 + t", F3, 24)),  # f is not f_best
    ASExtension(F3, parse_series("2 + t", F3, 16)),  # unramified
]


@pytest.mark.parametrize("ext", PRODUCT_RULE_EXTS)
def test_the_generators_cut_out_i_sigma_and_j(ext):
    """min_k v(sigma(g_k) - g_k) and min_k (v(sigma(g_k) - g_k) - v(g_k))
    over the generators g_k, k >= 1, are the formulas' i_sigma and j; the
    valuations are read here through the norm, not coefficientwise."""
    diffs = [(g.sigma(1) - g, g) for g in ext.integral_generators()[1:]]
    group = value_group_of_l(ext)
    i_gen = Cut.at_least(min(d.valuation() for d, _ in diffs), group)
    j_gen = Cut.at_least(min(d.valuation() - g.valuation() for d, g in diffs), group)
    assert i_gen == ideal_i_sigma(ext)
    assert j_gen == ideal_j(ext)
    result = check_difference_product_rules(ext)
    assert result.ok
    assert result.detail["i_sigma_generators"] == i_gen
    assert result.detail["j_sigma_generators"] == j_gen


@pytest.mark.parametrize("make, index, step", [
    (lambda: ext_of(F3, -2), 1, 1),  # A_(i_star) up: the formula passes the generators' minimum
    (lambda: ext_of(F5, -2, prec=24), 2, 1),
    (lambda: ext_of(F3u, -3, F3u.generator()), 2, -1),  # ferocious: A_2 down, below the formula
    (lambda: ASExtension(F3, parse_series("2 + t", F3, 16)), 1, 1),  # unramified
], ids=["wild-Fp3", "wild-Fp5", "ferocious-Fp(u)3", "unramified-Fp3"])
def test_a_moved_coefficient_ideal_fails_the_product_rules(monkeypatch, make, index, step):
    """A mutant shape of B, with the cut A_index moved by one step of Z,
    gives generators whose cut is not the formula's: the check fails.
    The shape is memoised, so the mutant is read by a fresh extension."""
    real_shape = extension._shape

    def moved(kind, p, v0):
        group, cuts, i_star = real_shape(kind, p, v0)
        cuts = list(cuts)
        cuts[index] = Cut.at_least(cuts[index].value + step, Z)
        return group, tuple(cuts), i_star

    monkeypatch.setattr(extension, "_shape", moved)
    ext = make()
    assert integral_basis(ext).cuts != real_shape(
        ext.classification(), ext.p, ext.swan / ext.p)[1]
    assert not check_difference_product_rules(ext).ok


def test_a_generator_difference_known_only_as_zero_raises(monkeypatch):
    """The difference of g_2, known only below t^0, is zero on its known
    range, so it cannot be read: the check raises, it never passes."""
    ext = ext_of(F3, -2)
    gens = ext.integral_generators()
    short = gens[:2] + [gens[2].truncate(0)]
    assert (short[2].sigma(1) - short[2]).is_zero_known()
    monkeypatch.setattr(ASExtension, "integral_generators", lambda self: short)
    with pytest.raises(InsufficientPrecision):
        check_difference_product_rules(ext)


RING_FIELDS = sorted({(p, kind or "") for p, kind, _, _ in selftest.DVR_GRID})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RING_FIELDS), st.integers(1, 5), st.integers(1, 24), st.data())
def test_sigma_is_a_ring_homomorphism_on_l(case, n, prec, data):
    """On the fields of the selftest grid, sigma_k(xy) agrees with
    sigma_k(x) sigma_k(y), and sigma_k(x + y) with sigma_k(x) + sigma_k(y),
    on their common known range, for x and y with coordinates of uneven
    precision: the engine consistency the sampled product rules relied on."""
    p, kind = case
    field = FieldSpec.rational(p) if kind else FieldSpec.finite(p)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    ext = pole_extension(field, rng, n, prec)
    k = data.draw(st.integers(1, p - 1), label="k")

    def element():
        return LElement(ext, tuple(
            random_series(field, rng, rng.randint(-3, 1), 4, rng.randint(0, prec + 4))
            for _ in range(p)
        ))

    x, y = element(), element()
    assert (x * y).sigma(k).agrees_with(x.sigma(k) * y.sigma(k))
    assert (x + y).sigma(k).agrees_with(x.sigma(k) + y.sigma(k))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RING_FIELDS), st.integers(1, 5), st.integers(1, 24), st.integers(0, 2**32))
def test_the_norm_is_additive_modulo_the_trace_of_b(case, n, prec, seed):
    """On the fields of the selftest grid, for integral x and y,
    N(x + y) - N(x) - N(y) lies in Tr(B) = t^(A_(p-1)) * A on its known
    range, and N(b/alpha) agrees with N(b) * N(1/alpha): the engine
    consistency that the sampled norm checks exercised."""
    p, kind = case
    field = FieldSpec.rational(p) if kind else FieldSpec.finite(p)
    rng = random.Random(seed)
    ext = pole_extension(field, rng, n, prec)
    assume(ext.classification() is not RamificationType.TRIVIAL)
    basis = integral_basis(ext)
    ext = basis.ext
    x, y, b = (integral_sample(ext, rng) for _ in range(3))
    mixed = (x + y).norm() - x.norm() - y.norm()
    assert mixed.truncate(int(basis.cuts[-1].value)).is_zero_known()
    try:
        inverse_alpha = ext.inverse_alpha()
    except InsufficientPrecision:  # N(alpha) = f is known too short to invert
        return
    assert (b * inverse_alpha).norm().agrees_with(b.norm() * ext.norm_inverse_alpha())


NORM_FIELDS = tuple(
    parse_field_spec(spec)
    for spec in (
        "Fp:2", "Fq:4", "Fp:3", "Fq:9", "Fp:5", "Fq:25", "Fp:7", "Fp(u):2", "Fp(u):3",
    )
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(NORM_FIELDS), st.integers(0, 2**32), st.integers(1, 7),
    st.integers(4, 36), st.integers(1, 3), st.integers(0, 2**31),
)
def test_norm_checks_match_the_sampled_oracles(field, draw, n, prec, samples, seed):
    """Where the sampled oracle of a norm check decides, the exact check
    gives its verdict, or raises what the oracle raised; where the exact
    check cannot decide, neither could the oracle.  The stability check,
    its trials run by ``invariants._sampled``, matches its own old loop."""
    ext = pole_extension(field, random.Random(draw), n, prec)
    for check, oracle in (
        (check_norm_additivity, sampled_norm_additivity),
        (check_diagram_commutativity, sampled_diagram_commutativity),
    ):
        got = exact_outcome(check, ext)
        want = rule_outcome(oracle, ext, samples, seed)
        if isinstance(want, CheckResult):
            assert isinstance(got, CheckResult) and got.ok == want.ok
        elif want[0] is InsufficientPrecision:
            assert isinstance(got, CheckResult) or got[0] is InsufficientPrecision
        else:
            assert got == want
    assert rule_outcome(check_refined_swan_stability, ext, samples, seed) == rule_outcome(
        hand_loop_refined_swan_stability, ext, samples, seed)


def exact_outcome(check, ext):
    """The exact check's result, or the type and message of what it raised."""
    try:
        return check(ext)
    except RamifyError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("workload", ["wild_small_p", "wild_large_p", "ferocious_fpu"])
def test_the_benchmark_norm_checks_match_the_sampled_oracles(monkeypatch, workload):
    """On every analyze configuration of seeds 1-3, the sampled norm
    checks decide at the configuration's trials and seed, and the exact
    checks give their verdicts."""
    for seed in (1, 2, 3):
        for argv in analyze_configs(monkeypatch, workload, seed):
            args = dict(zip(argv[1::2], argv[2::2]))
            field = parse_field_spec(args["--field"])
            ext = ASExtension(field, parse_series(args["--f"], field, int(args["--prec"])))
            trials, verifier_seed = int(args["--trials"]), int(args["--seed"])
            for check, oracle in (
                (check_norm_additivity, sampled_norm_additivity),
                (check_diagram_commutativity, sampled_diagram_commutativity),
            ):
                assert check(ext).ok == oracle(ext, trials, verifier_seed).ok, argv


# the low_prec run of tools/output_digest.py in which the sampled diagram
# check could decide at neither rung (CI pinned its exit code 3)
DIAGRAM_RUNGS_RAISE = (
    "Fp:2",
    "(1)*t^-7 + (1)*t^-1 + (1)*t^1 + (1)*t^4 + (1)*t^9 + (1)^2*t^-4 - (1)*t^-2"
    " + (1)^2*t^-8 - (1)*t^-4",
    8, 4, 2140274442,
)


def test_the_exact_diagram_check_decides_where_the_sampled_one_raised():
    """The sampled check needed N(b/alpha) - N(b)/f below t^14 and knew
    it below t^8; at b = 1 the check needs N(1/alpha) below t^(2n) = t^14,
    which the engine knows below prec + n = 15."""
    spec, f, prec, samples, seed = DIAGRAM_RUNGS_RAISE
    field = parse_field_spec(spec)
    ext = ASExtension(field, parse_series(f, field, prec))
    assert rule_outcome(sampled_diagram_commutativity, ext, samples, seed) == (
        InsufficientPrecision,
        "membership in {v >= 14} needs knowledge below t^14, series known below t^8",
    )
    assert ext.norm_inverse_alpha().prec == prec + int(ext.swan) == 15
    assert check_diagram_commutativity(ext).ok


def verdicts(*values):
    """A stand-in that returns ``values`` on its calls in turn, then True."""
    it = iter(values)
    return lambda *args, **kwargs: next(it, True)


def stability_shift(ext, rng):
    """The shift a of f -> f + a^p - a one stability trial draws."""
    lo = -((int(ext.swan) - 1) // ext.p)
    return random_series(ext.field, rng, lo, lo + 3, ext.best.f_best.prec, density=0.6)


E3 = ext_of(F3, -2, prec=64)
E2U = ext_of(F2u, -2, F2u.generator())


@pytest.mark.parametrize(
    "check, ext, args, patch, draws, detail",
    [
        pytest.param(
            check_norm_additivity, E3, (),
            ("ideal_i_sigma", lambda ext: Cut.at_least(3, value_group_of_l(ext))), (),
            lambda: [("bound", Cut.at_least(3, Z)), ("trace", Cut.at_least(2, Z))],
            id="additivity",
        ),
        *(
            pytest.param(
                check_diagram_commutativity, E2U, (),
                ("series_in_cut", (True,) * k + (False,)), (),
                lambda face=face: [
                    ("h_squared", Cut.at_least(4, Z)), ("modulus", Cut.at_least(1, Z)),
                    ("face", face),
                ],
                id=f"diagram-{face}",
            )
            for k, face in enumerate(("norm", "dlog_t", "du"))
        ),
        pytest.param(
            check_refined_swan_stability, E3, (4, 5), ("series_in_cut", (True, False)),
            (stability_shift,), lambda a: [("witness", str(a)), ("trial", 1)],
            id="stability-trial",
        ),
    ],
)
def test_a_failing_trial_reports_its_witness(monkeypatch, check, ext, args, patch, draws, detail):
    """Each failure branch, forced by a stand-in in ``invariants``,
    reports today's keys in today's order: the additivity check its two
    cuts when I_sigma is raised past Tr(B), the diagram check its cuts
    and the first face whose ``series_in_cut`` verdict is False, and the
    sampled stability check, failing at trial 1, its shift replayed
    from the seed.  A tuple of verdicts stands in for a decision."""
    name, stand_in = patch
    if isinstance(stand_in, tuple):
        stand_in = verdicts(*stand_in)
    monkeypatch.setattr(invariants, name, stand_in)
    rng = random.Random(5)
    sample_ext = integral_basis(ext).ext
    for _ in range(2):
        drawn = [draw(sample_ext, rng) for draw in draws]
    result = check(ext, *args)
    assert not result.ok
    assert list(result.detail.items()) == detail(*drawn)


@pytest.mark.parametrize("samples", [0, -1])
def test_no_check_runs_on_fewer_than_one_sample(samples):
    """A sample count below one is refused before anything else is
    decided, even where the extension would raise SwanZero, and by
    ``build_report`` even for a trivial extension, so no verifier
    passes on zero samples."""
    unramified = ext_of(F2, 0)  # f = 1: swan 0
    trivial = ext_of(F2, 1)  # f = t
    for ext in (unramified, trivial):
        with pytest.raises(SwanZero):
            check_refined_swan_stability(ext, samples=1)
        with pytest.raises(InvalidSpec):
            check_refined_swan_stability(ext, samples=samples)
    with pytest.raises(InvalidSpec):
        build_report(trivial, samples)


def test_ideal_chain_h_in_iota_in_i_sigma():
    for ext in GRID:
        bext = ext.with_best_f()
        h = ideal_h(bext)
        iota = rsw_modulus(bext)
        i_in_a = restrict_cut(ideal_i_sigma(bext), Z)
        assert h.subset_of(iota)
        assert iota.subset_of(i_in_a)


def test_lefschetz_inequality():
    for ext in GRID:
        bext = ext.with_best_f()
        i_v = ideal_i_sigma(bext).value
        j_v = ideal_j(bext).value
        assert i_v >= j_v
        if bext.classification() is RamificationType.FEROCIOUS:
            assert i_v == j_v


def test_principality_chain_dvr():
    for ext in GRID:
        flags = principality_chain(ext)
        assert all(flags.values()), flags


def test_principality_chains_match_the_report_reading():
    """Each setting's chain gives the flags, in order, that one
    InvariantReport or the TowerReport's cuts give."""
    from ramify import selftest, tower

    exts = [selftest.grid_extension(*case) for case in selftest.DVR_GRID] + GRID + [
        ASExtension(F3, parse_series("t^-9 + 2*t^-3 + t^-2 + t", F3, 24)),
        ASExtension(F2, LaurentSeries.one(F2, 8)),
    ]
    assert exts[-2].f != exts[-2].best.f_best
    assert exts[-1].classification() is RamificationType.UNRAMIFIED
    for ext in exts:
        got = principality_chain(ext)
        assert list(got.items()) == list(report_principality_chain(ext).items())
    for p, n in selftest.TOWER_GRID:
        rep = tower.tower_report(tower.TowerSpec(FieldSpec.finite(p, 2), n, 4))
        got = tower.principality_chain(rep)
        assert list(got.items()) == list(tower_fields_principality_chain(rep).items())
    trivial = ASExtension(F2, mono(F2, 1, 1, 4))
    for chain in (principality_chain, report_principality_chain):
        with pytest.raises(TrivialExtension):
            chain(trivial)


def test_report_json_shape():
    rep = build_report(ext_of(F3, -2), samples=10, seed=1)
    data = rep.to_json()
    assert data["swan"] == "2/1"
    assert data["classification"] == "wild"
    assert data["e"] == 3 and data["f_inertia"] == 1 and data["defect"] == 1
    assert data["j_sigma"] == {"value": "2/3", "bound": "closed"}
    assert data["h"] == {"value": "2/1", "bound": "closed"}
    assert data["rsw"]["modulus"] == {"value": "2/1", "bound": "closed"}
    assert data["i_lefschetz"] == "1/1"
    assert set(data["checks"]) == {
        "norm_ideal_identity", "refined_swan_stability", "norm_additivity",
        "diagram_commutativity", "difference_product_rules",
        "different_vs_trace_dual",
    }
    assert rep.all_checks_pass()


def test_report_trivial_and_unramified():
    trivial = build_report(ASExtension(F2, mono(F2, 1, 1, 4)))
    assert trivial.classification is RamificationType.TRIVIAL
    assert trivial.h is None
    unram = build_report(ASExtension(F2, LaurentSeries.one(F2, 8)), samples=10, seed=1)
    assert unram.classification is RamificationType.UNRAMIFIED
    assert unram.h == Cut.at_least(0, Z)
    assert unram.e * unram.f_inertia * unram.defect == 2
    assert unram.all_checks_pass()


@pytest.mark.parametrize("field_spec, f", [
    ("Fp:3", "t^-9 + 2*t^-3 + t^-2 + t"),
    ("Fp(u):2", "u^2*t^-4 + u*t^-3 + t"),
])
def test_report_inverts_f_best_once(monkeypatch, field_spec, f):
    # an unreduced wild presentation: the form, the stability check and
    # the diagram check all read 1/f_best from one memoised inverse
    field = parse_field_spec(field_spec)
    ext = ASExtension(field, parse_series(f, field, 24))
    f_best = ext.best.f_best
    assert ext.f != f_best
    inverted = []
    inverse = LaurentSeries.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(LaurentSeries, "inverse", counted)
    rep = build_report(ext, samples=1)
    assert rep.all_checks_pass()
    assert sum(s == f_best for s in inverted) == 1
    assert ext.inverse_f_best() == ext.with_best_f().inverse_f_best() == inverse(f_best)
    assert sum(s == f_best for s in inverted) == 1


@pytest.mark.parametrize("field_spec, f", [
    ("Fp:3", "t^-6 + t^-2 + t"),
    ("Fp(u):2", "u^2*t^-4 + u*t^-3 + t"),
])
def test_report_builds_the_refined_form_once(monkeypatch, field_spec, f):
    # the report, the stability check and the diagram check share one
    # LogForm, kept on the reduced presentation of an unreduced one
    field = parse_field_spec(field_spec)
    ext = ASExtension(field, parse_series(f, field, 24))
    f_best = ext.best.f_best
    assert ext.f != f_best
    derived = []
    euler_derivative = LaurentSeries.euler_derivative

    def counted(self):
        derived.append(self)
        return euler_derivative(self)

    monkeypatch.setattr(LaurentSeries, "euler_derivative", counted)
    rep = build_report(ext, samples=1)
    assert rep.all_checks_pass()
    assert sum(s == f_best for s in derived) == 1
    assert refined_swan(ext) is refined_swan(ext.with_best_f()) is rep.rsw
    assert sum(s == f_best for s in derived) == 1


@pytest.mark.parametrize("field_spec, f", [
    ("Fp:3", "t^-9 + 2*t^-3 + t^-2 + t"),
    ("Fp(u):2", "u^2*t^-4 + u*t^-3 + t"),
    ("Fp:2", "1 + t"),
])
def test_a_report_expands_two_determinants(monkeypatch, field_spec, f):
    """A report runs two Laplace expansions, both on the reduced
    presentation: 1/alpha, and the norm of 1/alpha, which the norm-ideal
    identity and the diagram check read from one memo."""
    field = parse_field_spec(field_spec)
    ext = ASExtension(field, parse_series(f, field, 24))
    expanded = []
    laplace = extension._laplace

    def counted(cols):
        expanded.append(cols)
        return laplace(cols)

    monkeypatch.setattr(extension, "_laplace", counted)
    rep = build_report(ext, samples=3)
    assert rep.all_checks_pass()
    assert len(expanded) == 2
    reduced = ext.with_best_f()
    assert expanded[0] == reduced.alpha().columns()
    assert expanded[1] == reduced.inverse_alpha().columns()
    assert ext.norm_inverse_alpha() is reduced.norm_inverse_alpha()
    assert ext.norm_inverse_alpha_times_f() is reduced.norm_inverse_alpha_times_f()
    assert len(expanded) == 2


@pytest.mark.parametrize("field_spec, f", [
    ("Fp:3", "t^-9 + 2*t^-3 + t^-2 + t"),
    ("Fp(u):2", "u^2*t^-4 + u*t^-3 + t"),
])
def test_the_diagram_check_reuses_the_product_and_stops_at_the_modulus(
        monkeypatch, field_spec, f):
    """Once the norm-ideal identity has run, the diagram check multiplies
    no series: it reads N(1/alpha) * f from the memo, and each form face
    is one ``dot`` capped at the modulus."""
    field = parse_field_spec(field_spec)
    ext = ASExtension(field, parse_series(f, field, 24))
    assert check_norm_ideal_identity(ext).ok
    form = refined_swan(ext)
    products = []
    capped = []
    mul = LaurentSeries.__mul__
    real_dot = invariants.dot

    def counted_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def counted_dot(pairs, cap=None):
        capped.append(cap)
        return real_dot(pairs, cap)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted_mul)
    monkeypatch.setattr(invariants, "dot", counted_dot)
    assert check_diagram_commutativity(ext).ok
    assert products == []
    assert capped == [int(form.modulus.value)] * (1 if form.du is None else 2)


def test_e_f_defect_product():
    for ext in GRID:
        rep = build_report(ext, samples=1)
        assert rep.e * rep.f_inertia * rep.defect == ext.p


def _reduce_with_one_absorption():
    """reduce_to_best mutated to stop after its first absorption."""
    import inspect

    from ramify import extension

    source = inspect.getsource(extension.reduce_to_best)
    assert "    while True:\n" in source
    namespace = dict(vars(extension))
    exec(source.replace("    while True:\n", "    for _ in range(1):\n"), namespace)
    return namespace["reduce_to_best"]


def test_principality_flags_follow_the_reduction(monkeypatch):
    from ramify import extension, invariants
    from ramify.selftest import criterion_principality_chain

    f = mono(F2, -4)  # t^-4 -> t^-2 -> t^-1 takes two absorptions
    extensions = [("t^-4", ASExtension(F2, f))]
    assert invariants.principality_chain(extensions[0][1])["best_f_exists"]
    assert criterion_principality_chain(extensions).ok
    mutant = _reduce_with_one_absorption()
    monkeypatch.setattr(extension, "reduce_to_best", mutant)
    monkeypatch.setattr(invariants, "reduce_to_best", mutant)
    extensions = [("t^-4", ASExtension(F2, f))]
    assert extensions[0][1].best.f_best == mono(F2, -2)
    assert not invariants.principality_chain(extensions[0][1])["best_f_exists"]
    assert not criterion_principality_chain(extensions).ok

