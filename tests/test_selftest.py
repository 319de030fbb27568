"""The failure details of the selftest criteria.

Each test patches a failure into the library call one criterion makes
and pins the detail it prints: which cases fail, in what order, and
how each failure reads.  Every criterion that fails more than three
times names the first three.  Criterion 8 is also compared with its
sampled reference, on the grid and on mutants of the operator laws.
"""

import random
from types import SimpleNamespace

import pytest

from ramify import invariants, selftest
from ramify.extension import DifferenceOperators, LElement, RamificationType
from ramify.invariants import CheckResult, boundary_generator
from ramify.selftest import DVR_GRID, DEFAULT_SEED, _grid_label, grid_extension
from ramify.series import Cut, LaurentSeries, ValueGroup, random_series

from oracles import integral_sample, sampled_difference_operator_failure

Z = ValueGroup.discrete(1)

REAL_CHAIN = DifferenceOperators.chain


@pytest.fixture(scope="module")
def extensions():
    return [(_grid_label(p, kind, n), grid_extension(p, kind, n, prec))
            for p, kind, n, prec in DVR_GRID]


def failing_check(name, fails):
    """A stand-in verifier that fails on the extensions ``fails`` picks
    and records the arguments it was given."""
    def check(ext, *args, **kwargs):
        return CheckResult(name, not fails(ext), {"args": args, **kwargs})
    return check


def test_norm_ideal_identity_names_each_failing_extension(monkeypatch, extensions):
    monkeypatch.setattr(selftest, "check_norm_ideal_identity",
                        failing_check("norm_ideal_identity", lambda ext: ext.p == 3))
    res = selftest.criterion_norm_ideal_defectless(extensions)
    assert not res.ok
    assert res.line() == (
        "criterion 03 norm_ideal_identity_defectless: FAIL  ["
        "(p=3, f=t^-1): {'args': ()}; (p=3, f=t^-2): {'args': ()}; "
        "(p=3, f=u*t^-3): {'args': ()}]"
    )


def test_norm_ideal_identity_names_the_first_three_failures(monkeypatch, extensions):
    monkeypatch.setattr(selftest, "check_norm_ideal_identity",
                        failing_check("norm_ideal_identity", lambda ext: ext.p < 5))
    res = selftest.criterion_norm_ideal_defectless(extensions)
    assert not res.ok
    assert res.detail == (
        "(p=2, f=t^-1): {'args': ()}; (p=2, f=t^-3): {'args': ()}; (p=3, f=t^-1): {'args': ()}"
    )


def test_difference_operator_failures(monkeypatch, extensions):
    monkeypatch.setattr(selftest, "_difference_operator_failure",
                        lambda ext: f"law broken, swan {ext.swan}" if ext.p == 3 else None)
    res = selftest.criterion_difference_operators(extensions)
    assert res.line() == (
        "criterion 08 difference_operator_laws: FAIL  ["
        "(p=3, f=t^-1): law broken, swan 1; (p=3, f=t^-2): law broken, swan 2; "
        "(p=3, f=u*t^-3): law broken, swan 3]"
    )


def sigma_squared_at_step_one(self, x, upto=None):
    """``DifferenceOperators.chain`` with sigma^2 in place of sigma at
    its first step, which breaks D_1(b) = 1."""
    upto = self.ext.p - 1 if upto is None else upto
    out = [x]
    for j in range(1, upto + 1):
        cur = out[-1]
        out.append((cur.sigma(2 if j == 1 else 1) - cur) * self._den_inv[j])
    return out


def d3_added_to_d1(self, x, upto=None):
    """``DifferenceOperators.chain`` with D_3(x) added to D_1(x) in its
    output.  The change is K-linear and D_3 vanishes on 1, b and b^2, so
    the laws on the powers of b still hold; only the product rule on B
    can see it, at p >= 5."""
    out = REAL_CHAIN(self, x, upto)
    if len(out) > 3:
        out[1] = out[1] + out[3]
    return out


def difference_verdicts(extensions):
    """(generator verdict, sampled verdict) of each grid extension."""
    return [(selftest._difference_operator_failure(ext),
             sampled_difference_operator_failure(ext, DEFAULT_SEED))
            for _, ext in extensions]


def test_the_generators_and_the_samples_agree_on_the_grid(extensions):
    assert difference_verdicts(extensions) == [(None, None)] * len(DVR_GRID)


@pytest.mark.parametrize("mutant, caught", [
    (sigma_squared_at_step_one, "D_1(b^1) != 1"),
    (d3_added_to_d1, "product rule failed at generator 1, i=1"),
], ids=["sigma-squared-at-step-one", "d3-added-to-d1"])
def test_the_generators_and_the_samples_fail_the_same_mutants(
        monkeypatch, extensions, mutant, caught):
    monkeypatch.setattr(DifferenceOperators, "chain", mutant)
    verdicts = difference_verdicts(extensions)
    assert [g is None for g, _ in verdicts] == [s is None for _, s in verdicts]
    assert caught in [g for g, _ in verdicts]


@pytest.mark.parametrize("case", DVR_GRID, ids=lambda case: str(case))
def test_each_difference_operator_is_k_linear(case):
    """D_i(a*x + y) = a*D_i(x) + D_i(y) for a in K and x, y in L: the
    argument that lets criterion 8 decide its laws on the generators."""
    ext = grid_extension(*case)
    b = boundary_generator(ext)
    bext = b.ext
    ops = DifferenceOperators(bext, b)
    rng = random.Random(3)
    for _ in range(3):
        a = bext.from_series(random_series(bext.field, rng, -2, 2, bext.f.prec))
        shift = bext.from_series(LaurentSeries.monomial(bext.field, -1, 1, bext.f.prec))
        x = integral_sample(bext, rng) * shift
        y = integral_sample(bext, rng)
        combined = ops.chain(a * x + y)
        for d_c, d_x, d_y in zip(combined, ops.chain(x), ops.chain(y)):
            assert d_c.agrees_with(a * d_x + d_y)


def test_refined_swan_stability_failures(monkeypatch, extensions):
    monkeypatch.setattr(selftest, "check_refined_swan_stability",
                        failing_check("refined_swan_stability", lambda ext: ext.p != 3))
    res = selftest.criterion_refined_swan_stability(extensions, seed=5)
    assert res.line() == (
        "criterion 09 refined_swan_stability: FAIL  ["
        "(p=2, f=t^-1): {'args': (), 'samples': 50, 'seed': 5}; "
        "(p=2, f=t^-3): {'args': (), 'samples': 50, 'seed': 5}; "
        "(p=2, f=u*t^-2): {'args': (), 'samples': 50, 'seed': 5}]"
    )


def test_norm_additivity_and_diagram_failures_interleave(monkeypatch, extensions):
    def pole_one(ext):
        return ext.swan == 1

    monkeypatch.setattr(selftest, "check_norm_additivity",
                        failing_check("norm_additivity", pole_one))
    monkeypatch.setattr(selftest, "check_diagram_commutativity",
                        failing_check("diagram_commutativity", pole_one))
    res = selftest.criterion_norm_additivity_diagram(extensions)
    assert res.line() == (
        "criterion 10 norm_additivity_and_diagram: FAIL  ["
        "(p=2, f=t^-1) additivity: {'args': ()}; "
        "(p=2, f=t^-1) diagram: {'args': ()}; "
        "(p=3, f=t^-1) additivity: {'args': ()}]"
    )


def test_different_cross_check_failures(monkeypatch, extensions):
    def ferocious(ext):
        return ext.classification() is RamificationType.FEROCIOUS

    wrong = Cut.at_least(100, Z)
    monkeypatch.setattr(selftest, "trace_dual_cut",
                        lambda ext: wrong if ferocious(ext) else selftest.different_ideal(ext))
    monkeypatch.setattr(selftest, "ideal_j", lambda ext: Cut.at_least(0, Z))
    res = selftest.criterion_different_cross_check(extensions)
    assert res.line() == (
        "criterion 11 different_vs_trace_dual: FAIL  ["
        "(p=2, f=u*t^-2): formula {v >= 1}, trace dual {v >= 100}; "
        "(p=2, f=u*t^-2): ferocious different is not J^(p-1); "
        "(p=3, f=u*t^-3): formula {v >= 2}, trace dual {v >= 100}]"
    )


def test_principality_chain_failures_list_extensions_then_towers(monkeypatch, extensions):
    reduce_to_best = invariants.reduce_to_best
    tower_report = selftest.tower_report
    monkeypatch.setattr(
        invariants, "reduce_to_best",
        lambda f: SimpleNamespace(f_best=None) if f.field.p == 5 else reduce_to_best(f),
    )
    monkeypatch.setattr(selftest, "tower_report",
                        lambda spec: tower_report(spec)._replace(best_f_exists=spec.p == 3))
    res = selftest.criterion_principality_chain(extensions)
    tower_flags = ("{'best_f_exists': True, 'h_principal': False, "
                   "'j_principal': False, 'defectless': False}")
    assert res.line() == (
        "criterion 12 principality_chain: FAIL  ["
        "(p=5, f=t^-2): {'best_f_exists': False, 'h_principal': True, "
        "'j_principal': True, 'defectless': True}; "
        f"tower (p=3,n=2): {tower_flags}; tower (p=3,n=4): {tower_flags}]"
    )


def test_swan_table_names_the_first_three_failures(monkeypatch):
    # reading the pole order off f unreduced fails every m >= 1 case
    monkeypatch.setattr(selftest, "reduce_to_best",
                        lambda f: SimpleNamespace(swan=-f.valuation()))
    res = selftest.criterion_swan_table()
    assert not res.ok
    assert res.line() == (
        "criterion 01 swan_conductor_table: FAIL  ["
        "p=2 n=1 m=1 -> 2; p=2 n=1 m=2 -> 4; p=2 n=3 m=1 -> 6]"
    )


def test_norm_ideal_tower_names_the_first_three_failures(monkeypatch):
    tower_report = selftest.tower_report
    monkeypatch.setattr(selftest, "tower_report",
                        lambda spec: tower_report(spec)._replace(h_cut=Cut.at_least(0, Z)))
    res = selftest.criterion_norm_ideal_tower()
    assert not res.ok
    assert res.line() == (
        "criterion 04 norm_ideal_identity_defect_tower: FAIL  ["
        "(p=2, n=3): H={v >= 0} N(J)={v > 2}; "
        "(p=2, n=5): H={v >= 0} N(J)={v > 4}; "
        "(p=3, n=2): H={v >= 0} N(J)={v > 3/2}]"
    )


def test_trace_identities_name_the_first_three_failures(monkeypatch):
    # Tr = 1 holds only for Tr(a^(p-1)) = -1 at p = 2
    monkeypatch.setattr(LElement, "trace", lambda x: LaurentSeries.one(x.ext.field, 24))
    res = selftest.criterion_trace_identities()
    assert not res.ok
    assert res.line() == (
        "criterion 07 trace_identities: FAIL  ["
        "p=3 f=t^-1: Tr(a^1) = 1; p=3 f=t^-1: Tr(a^2) = 1; p=3 f=t^-2: Tr(a^1) = 1]"
    )
