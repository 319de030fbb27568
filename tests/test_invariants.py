import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ramify import extension, invariants
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
    integral_sample,
    unit_sample,
)
from ramify.fields import FieldSpec
from ramify.invariants import (
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

from oracles import (
    candidate_traces,
    element_trace_dual_cut,
    hand_loop_refined_swan_stability,
    lefschetz_minimum,
    scan_traces,
    single_rung_diagram_commutativity,
    single_rung_norm_additivity,
    single_rung_product_rules,
    table_trace_dual_cut,
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
    assert check_difference_product_rules(ext, samples=4, seed=1).ok
    assert all(principality_chain(ext).values())
    with pytest.raises(SwanZero):
        check_diagram_commutativity(ext, samples=1)


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
        assert check_refined_swan_stability(ext, shifts=25, seed=8).ok


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
    assert check_refined_swan_stability(ext, shifts=40, seed=1).ok


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
    # them known zero, expanded on raw coefficients
    ext = ext_of(FieldSpec.finite(17), -1, prec=72)
    assert trace_dual_cut(ext) == different_ideal(ext)


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
    +-t^(2 * sum e_k), all on the known range.  The oracle expands that
    one determinant and draws no sample."""
    calls = []

    def laplace(cols):
        calls.append(cols)
        return real_laplace(cols)

    def no_sample(*args, **kwargs):
        raise AssertionError("trace_dual_cut drew a sample")

    real_laplace = extension._laplace
    for module in (extension, invariants):
        monkeypatch.setattr(module, "_laplace", laplace)
        monkeypatch.setattr(module, "integral_sample", no_sample)
    oracle = trace_dual_cut(ext)
    assert len(calls) == 1
    cols = calls[0]
    det = real_laplace(cols)[0]
    assert oracle == Cut.at_least(det.valuation() / ext.p, value_group_of_l(ext))
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
    for ext in GRID[:4]:
        assert check_norm_additivity(ext, samples=40, seed=2).ok


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
    for ext in (ext_of(F3, -2), ext_of(F2u, -2, F2u.generator())):
        assert check_diagram_commutativity(ext, samples=50, seed=6).ok


def test_difference_product_rules():
    ext = ext_of(F3, -2)
    assert check_difference_product_rules(ext, samples=12, seed=4).ok
    # elements of K are fixed: sigma(b) - b = 0 exactly
    b = ext.from_series(mono(F3, 2))
    assert (b.sigma(1) - b).is_zero_known()


# Fp(u):7 is left out: one single-rung check there takes seconds
RULE_FIELDS = tuple(
    parse_field_spec(spec)
    for spec in ("Fp:2", "Fq:4", "Fp:3", "Fq:9", "Fp:5", "Fp:7", "Fp(u):2", "Fp(u):3", "Fp(u):5")
)


def rule_outcome(check, ext, samples, seed):
    """The check's result, or the type and message of what it raised."""
    try:
        return check(ext, samples, seed)
    except RamifyError as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(RULE_FIELDS), st.integers(0, 2**32), st.integers(1, 8),
    st.integers(4, 32), st.integers(1, 3), st.integers(0, 2**31),
)
def test_product_rules_match_the_single_rung_check(field, draw, n, prec, samples, seed):
    """Deciding the multiplicative rule at a lower truncation first gives
    the check's old result, or its old exception and message."""
    ext = pole_extension(field, random.Random(draw), n, prec)
    assert rule_outcome(check_difference_product_rules, ext, samples, seed) == rule_outcome(
        single_rung_product_rules, ext, samples, seed
    )


# the one run of tools/output_digest.py in which neither truncation
# decides the rule (CI pins its exit code 3)
BOTH_RUNGS_RAISE = (
    "Fp(u):2",
    "(u)*t^-4 + (1)*t^-1 + (1)*t^1 + (1)*t^4 + (1)*t^9 + (1)^2*t^-2 - (1)*t^-1"
    " + (1)^2*t^-8 - (1)*t^-4",
    4, 2, 464306981,
)


def forced_fallback(monkeypatch, ext):
    """Make the cheap rung of the multiplicative rule undecided; returns
    the list of the precisions it is called at."""
    ext = integral_basis(ext).ext
    full = (ext.p + 1) * int(ext.swan) // ext.p + 7
    rule = invariants._unit_rule
    calls = []

    def undecided_below_full(x, y, prec, j_sq):
        calls.append(prec)
        if prec < full:
            raise InsufficientPrecision("forced")
        return rule(x, y, prec, j_sq)

    monkeypatch.setattr(invariants, "_unit_rule", undecided_below_full)
    return full, calls


@pytest.mark.parametrize("ext", [ext_of(F3, -2), ext_of(F2u, -2, F2u.generator()), ext_of(F5, -3)])
def test_an_undecided_cheap_rung_falls_back_to_the_full_one(monkeypatch, ext):
    full, calls = forced_fallback(monkeypatch, ext)
    assert check_difference_product_rules(ext, 3, 7) == single_rung_product_rules(ext, 3, 7)
    assert calls == [full - 5, full] * 3


def test_both_rungs_raising_gives_the_full_rungs_error(monkeypatch):
    spec, f, prec, samples, seed = BOTH_RUNGS_RAISE
    field = parse_field_spec(spec)
    ext = ASExtension(field, parse_series(f, field, prec))
    want = rule_outcome(single_rung_product_rules, ext, samples, seed)
    assert want[0] is InsufficientPrecision
    assert rule_outcome(check_difference_product_rules, ext, samples, seed) == want
    full, calls = forced_fallback(monkeypatch, ext)
    assert rule_outcome(check_difference_product_rules, ext, samples, seed) == want
    assert calls == [full - 5, full]


def test_a_violation_at_the_cheap_rung_shows_the_units_at_the_full_one(monkeypatch):
    ext = ext_of(F3, -2)
    full = (3 + 1) * 2 // 3 + 7  # working_prec at p = 3, swan 2
    seen = []

    def violated(x, y, prec, j_sq):
        seen.append((x, y, prec))
        return False

    monkeypatch.setattr(invariants, "_unit_rule", violated)
    result = check_difference_product_rules(ext, 3, 7)
    [(x, y, prec)] = seen
    assert prec == full - 5
    assert result.detail == {
        "trial": 0, "rule": "multiplicative",
        "x": str(x.truncate(math.floor(x.valuation_coeffwise()) + full)),
        "y": str(y.truncate(math.floor(y.valuation_coeffwise()) + full)),
    }
    assert not result.ok


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
def test_the_cheap_rung_decides_every_benchmark_trial(monkeypatch, workload):
    rule = invariants._unit_rule
    calls = []

    def counted(x, y, prec, j_sq):
        calls.append(prec)
        return rule(x, y, prec, j_sq)

    monkeypatch.setattr(invariants, "_unit_rule", counted)
    for argv in analyze_configs(monkeypatch, workload, 1):
        args = dict(zip(argv[1::2], argv[2::2]))
        field = parse_field_spec(args["--field"])
        ext = ASExtension(field, parse_series(args["--f"], field, int(args["--prec"])))
        calls.clear()
        trials = int(args["--trials"])
        assert check_difference_product_rules(ext, trials, int(args["--seed"])).ok
        # one call per trial: no trial reached the full rung
        assert len(calls) == trials


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
def test_norm_checks_match_the_single_rung_checks(field, draw, n, prec, samples, seed):
    """Deciding each norm check on truncated samples first gives the
    check's old result, or its old exception and message; at a low
    ``prec`` the low rung of some draws raises.  The stability check,
    its trials run by ``invariants._sampled``, matches its own old loop."""
    ext = pole_extension(field, random.Random(draw), n, prec)
    for check, oracle in (
        (check_norm_additivity, single_rung_norm_additivity),
        (check_diagram_commutativity, single_rung_diagram_commutativity),
        (check_refined_swan_stability, hand_loop_refined_swan_stability),
    ):
        assert rule_outcome(check, ext, samples, seed) == rule_outcome(oracle, ext, samples, seed)


def norm_rungs(ext):
    """The low rungs of the additivity and the diagram check."""
    p, n = ext.p, int(ext.swan)
    least = int(restrict_cut(ideal_i_sigma(ext), Z).value)
    return least + (p - 1) * n // p + 2, 2 * n + 2


def undecided_low_rung(monkeypatch, name, arity):
    """Make every other call of the named decide function (the low rung
    of each trial) raise; returns the operand tuples of all its calls."""
    rule = getattr(invariants, name)
    calls = []

    def undecided_at_odd_calls(*args):
        calls.append(args[:arity])
        if len(calls) % 2:
            raise InsufficientPrecision("forced")
        return rule(*args)

    monkeypatch.setattr(invariants, name, undecided_at_odd_calls)
    return calls


@pytest.mark.parametrize("ext", [ext_of(F3, -2), ext_of(F2u, -2, F2u.generator()), ext_of(F5, -3)])
def test_an_undecided_low_rung_decides_each_norm_check_on_the_full_samples(monkeypatch, ext):
    add_rung, diagram_rung = norm_rungs(ext)
    rng = random.Random(7)
    samples = [integral_sample(ext, rng) for _ in range(6)]
    for check, oracle, name, rung, arity in (
        (check_norm_additivity, single_rung_norm_additivity, "_additivity_rule", add_rung, 2),
        (check_diagram_commutativity, single_rung_diagram_commutativity, "_diagram_face",
         diagram_rung, 1),
    ):
        calls = undecided_low_rung(monkeypatch, name, arity)
        assert check(ext, 3, 7) == oracle(ext, 3, 7)
        # per trial, the samples at the low rung, then the untruncated ones
        full = [tuple(samples[i:i + arity]) for i in range(0, 3 * arity, arity)]
        assert calls[1::2] == full
        assert calls[0::2] == [tuple(x.truncate(rung) for x in xs) for xs in full]
        assert calls[0::2] != full


# the low_prec run of tools/output_digest.py in which the diagram check
# cannot decide at either rung (CI pins its exit code 3 and its message)
DIAGRAM_RUNGS_RAISE = (
    "Fp:2",
    "(1)*t^-7 + (1)*t^-1 + (1)*t^1 + (1)*t^4 + (1)*t^9 + (1)^2*t^-4 - (1)*t^-2"
    " + (1)^2*t^-8 - (1)*t^-4",
    8, 4, 2140274442,
)


def test_an_undecided_diagram_check_raises_the_single_rung_error(monkeypatch):
    spec, f, prec, samples, seed = DIAGRAM_RUNGS_RAISE
    field = parse_field_spec(spec)
    ext = ASExtension(field, parse_series(f, field, prec))
    want = rule_outcome(single_rung_diagram_commutativity, ext, samples, seed)
    assert want == (
        InsufficientPrecision,
        "membership in {v >= 14} needs knowledge below t^14, series known below t^8",
    )
    face = invariants._diagram_face
    calls = []

    def counted(b, *args):
        calls.append(b)
        return face(b, *args)

    monkeypatch.setattr(invariants, "_diagram_face", counted)
    assert rule_outcome(check_diagram_commutativity, ext, samples, seed) == want
    # b is known below t^8, under the rung 2*7 + 2: truncation forgot
    # nothing, so the undecided trial is not decided again
    assert len(calls) == 1


@pytest.mark.parametrize("workload", ["wild_small_p", "wild_large_p", "ferocious_fpu"])
def test_the_low_rung_decides_every_benchmark_norm_trial(monkeypatch, workload):
    calls = []
    for name in ("_additivity_rule", "_diagram_face"):
        rule = getattr(invariants, name)

        def counted(*args, rule=rule, name=name):
            calls.append(name)
            return rule(*args)

        monkeypatch.setattr(invariants, name, counted)
    for argv in analyze_configs(monkeypatch, workload, 1):
        args = dict(zip(argv[1::2], argv[2::2]))
        field = parse_field_spec(args["--field"])
        ext = ASExtension(field, parse_series(args["--f"], field, int(args["--prec"])))
        trials, seed = int(args["--trials"]), int(args["--seed"])
        calls.clear()
        assert check_norm_additivity(ext, trials, seed).ok
        assert check_diagram_commutativity(ext, trials, seed).ok
        # one call per trial: no trial reached the untruncated samples
        assert calls == ["_additivity_rule"] * trials + ["_diagram_face"] * trials


def verdicts(*values):
    """A stand-in that returns ``values`` on its calls in turn, then True."""
    it = iter(values)
    return lambda *args, **kwargs: next(it, True)


def stability_shift(ext, rng):
    """The shift a of f -> f + a^p - a one stability trial draws."""
    lo = -((int(ext.swan) - 1) // ext.p)
    return random_series(ext.field, rng, lo, lo + 3, ext.best.f_best.prec, density=0.6)


def long_unit(ext, rng):
    """A unit sample plus t^20, a term past the working precision of
    the multiplicative rule, which its witness truncates away."""
    return unit_sample(ext, rng) + ext.from_series(mono(ext.field, 20, prec=64))


def working_unit(ext, rng):
    """``long_unit`` as the multiplicative witness prints it."""
    x = long_unit(ext, rng)
    full = (ext.p + 1) * int(ext.swan) // ext.p + 7
    return x.truncate(math.floor(x.valuation_coeffwise()) + full)


E3 = ext_of(F3, -2, prec=64)
E2U = ext_of(F2u, -2, F2u.generator())
PASS3 = (True,) * 3  # one passing diagram trial over F2(u) reads three faces


@pytest.mark.parametrize(
    "check, ext, patches, draws, detail",
    [
        pytest.param(
            check_norm_additivity, E3, [(invariants, "_additivity_rule", (True, False))],
            (integral_sample, integral_sample),
            lambda x, y: [("trial", 1), ("x", str(x)), ("y", str(y))],
            id="additivity",
        ),
        *(
            pytest.param(
                check_diagram_commutativity, E2U,
                [(invariants, "series_in_cut", PASS3 + (True,) * k + (False,))],
                (integral_sample,),
                lambda b, face=face: [("trial", 1), ("face", face), ("b", str(b))],
                id=f"diagram-{face}",
            )
            for k, face in enumerate(("norm", "dlog_t", "du"))
        ),
        pytest.param(
            check_difference_product_rules, E3, [(LElement, "in_cut", (True, True, False))],
            (integral_sample, integral_sample, unit_sample, unit_sample),
            lambda b, c, x, y: [("trial", 1), ("rule", "additive"), ("b", str(b)), ("c", str(c))],
            id="product-additive",
        ),
        pytest.param(
            check_difference_product_rules, E3,
            [(invariants, "_unit_rule", (True, False)), (invariants, "unit_sample", long_unit)],
            (integral_sample, integral_sample, working_unit, working_unit),
            lambda b, c, x, y: [
                ("trial", 1), ("rule", "multiplicative"), ("x", str(x)), ("y", str(y)),
            ],
            id="product-multiplicative",
        ),
        pytest.param(
            check_refined_swan_stability, E3, [(invariants, "series_in_cut", (True, False))],
            (stability_shift,), lambda a: [("witness", str(a)), ("trial", 1)],
            id="stability-trial",
        ),
        pytest.param(
            check_refined_swan_stability, E3,
            [(invariants, "random_series", lambda *args, **kwargs: mono(F3, -1))], (),
            lambda: [("witness", str(mono(F3, -1))), ("reason", "pole order moved")],
            id="stability-pole-order",
        ),
    ],
)
def test_a_failing_trial_reports_its_witness(monkeypatch, check, ext, patches, draws, detail):
    """Each failure branch of the four sampled checks, forced at trial 1
    (the pole-order branch at trial 0), reports today's keys in today's
    order, with the samples of that trial replayed from the seed.  A
    tuple of verdicts stands in for a decision, a function for a draw."""
    for owner, name, stand_in in patches:
        if isinstance(stand_in, tuple):
            stand_in = verdicts(*stand_in)
        monkeypatch.setattr(owner, name, stand_in)
    rng = random.Random(5)
    sample_ext = integral_basis(ext).ext
    for _ in range(2):
        drawn = [draw(sample_ext, rng) for draw in draws]
    result = check(ext, 4, 5)
    assert not result.ok
    assert list(result.detail.items()) == detail(*drawn)


@pytest.mark.parametrize("samples", [0, -1])
def test_no_check_runs_on_fewer_than_one_sample(samples):
    """A sample count below one is refused before anything else is
    decided, even where the extension would raise SwanZero or
    TrivialExtension, so no verifier passes on zero samples."""
    unramified = ext_of(F2, 0)  # f = 1: swan 0
    trivial = ext_of(F2, 1)  # f = t
    with pytest.raises(SwanZero):
        check_refined_swan_stability(unramified, shifts=1)
    with pytest.raises(TrivialExtension):
        check_norm_additivity(trivial, 1)
    with pytest.raises(InvalidSpec):
        check_refined_swan_stability(unramified, shifts=samples)
    for check in (
        check_norm_additivity, check_diagram_commutativity, check_difference_product_rules,
        build_report,
    ):
        with pytest.raises(InvalidSpec):
            check(trivial, samples)


def test_product_rule_alpha_expansion():
    # x = y = alpha: sigma(a^2)/a^2 - 1 against 2*(sigma(a)/a - 1) mod J^2
    ext = ext_of(F3, -2)
    a = ext.alpha()
    ia = ext.inverse_alpha()
    j_sq = ideal_j(ext) ** 2
    lhs = (a * a).sigma(1) * (ia * ia) - 1
    rhs = (a.sigma(1) * ia - 1) + (a.sigma(1) * ia - 1)
    assert (lhs - rhs).in_cut(j_sq)


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
    trivial = build_report(ASExtension(F2, mono(F2, 1, 1, 4)), run_checks=False)
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


def test_e_f_defect_product():
    for ext in GRID:
        rep = build_report(ext, run_checks=False)
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

