import contextlib
import io
import math
import random
import re
import time
from fractions import Fraction

import pytest

from ramify.cli import main
from ramify.errors import InvalidSpec
from ramify.fields import DEFAULT_MODULI, Expr, FieldSpec, check_identity, frobenius_root
from ramify.parsing import factor_prime_power
from ramify.series import Cut, ValueGroup
from ramify.tower import (
    TowerSpec,
    _printable,
    best_f_descent,
    check_step_identity,
    closed_form_n,
    closed_form_neg_v_f,
    principality_chain,
    step_identity_exprs,
    tower_levels,
    tower_report,
)

from oracles import exhaustive_identity, random_element, tree_evaluate

F4 = FieldSpec.finite(2, 2)
F9 = FieldSpec.finite(3, 2)
F25 = FieldSpec.finite(5, 2)


def test_level_recursion_p3_n2():
    spec = TowerSpec(F9, 2, 4)
    levels = tower_levels(spec)
    assert [lv.n_i for lv in levels[:3]] == [2, 5, 14]
    assert levels[1].neg_v_f == Fraction(5, 3)
    assert levels[1].neg_v_f == 2 - Fraction(1, 2) + Fraction(1, 2 * 3)
    assert levels[0].v_x == 1 and levels[0].v_y == Fraction(1, 3)


def test_level_recursion_p2_n3():
    spec = TowerSpec(F4, 3, 4)
    levels = tower_levels(spec)
    assert levels[1].n_i == 5
    assert levels[0].v_y == Fraction(1, 2)


def test_closed_forms_match_recursion():
    for field, n in ((F4, 3), (F4, 5), (F9, 2), (F9, 4), (F25, 2)):
        spec = TowerSpec(field, n, 8)
        for lv in tower_levels(spec):
            assert lv.n_i == closed_form_n(spec, lv.index)
            assert lv.neg_v_f == closed_form_neg_v_f(spec, lv.index)


def test_tower_report_values():
    rep = tower_report(TowerSpec(F9, 2, 4))
    g = ValueGroup.z_one_over_p(3)
    assert rep.v_0 == Fraction(1, 2)
    assert rep.j_cut == Cut.above(Fraction(1, 2), g)
    assert rep.h_cut == Cut.above(Fraction(3, 2), g)
    assert rep.h_cut == rep.n_of_j_cut
    assert rep.different_cut == Cut.above(1, g)
    assert rep.different_inv_cut == Cut.above(-1, g)
    # T at v_0 - mu = -1/6, T' at p*v_0 - mu = 5/6
    assert rep.t_cut == Cut.above(Fraction(-1, 6), g)
    assert rep.t_prime_cut == Cut.above(Fraction(5, 6), g)
    assert not rep.j_principal and not rep.best_f_exists


def test_tower_report_p2():
    rep = tower_report(TowerSpec(F4, 3, 4))
    assert rep.v_0 == 1
    assert rep.h_cut == Cut.above(2, ValueGroup.z_one_over_p(2))


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        TowerSpec(F4, 1, 4)  # n >= 3 needed for p = 2
    with pytest.raises(InvalidSpec):
        TowerSpec(F9, 3, 4)  # gcd(n, p) != 1
    with pytest.raises(InvalidSpec):
        TowerSpec(FieldSpec.finite(3), 2, 4)  # no constant outside F_p
    with pytest.raises(InvalidSpec):
        TowerSpec(F9, 2, -1)
    with pytest.raises(InvalidSpec):
        TowerSpec(F9, 2, 4, a=F9.one())


def tower_specs(q, depth):
    """A TowerSpec for every valid pole order n < 13 over the built-in F_q."""
    p, m = factor_prime_power(q)
    field = FieldSpec.finite(p, m)
    orders = [n for n in range(3 if p == 2 else 1, 13) if math.gcd(n, p) == 1]
    return [TowerSpec(field, n, depth) for n in orders]


BUILT_IN_ORDERS = sorted(p ** m for p, m in DEFAULT_MODULI if p ** m <= 125)


def grid_specs():
    """Every built-in F_q with q <= 125, every valid n <= 12, every
    depth <= 8."""
    for q in BUILT_IN_ORDERS:
        for depth in range(9):
            yield from tower_specs(q, depth)


def mutant_step_identity_exprs(spec, mutant):
    """``step_identity_exprs`` with one term of y_1 changed: "drop-root"
    drops a^(1/p) y^(n(p-1)-1), "exponent" raises that y^(n(p-1)-1) to
    y^(n(p-1))."""
    p, n = spec.p, spec.n
    a = Expr.const(spec.a)
    root_a = Expr.const(frobenius_root(spec.a))
    zp, y = Expr.var("z'"), Expr.var("y")
    lhs = (a + y) * (1 + zp * y) / (y ** (n * p))
    y1 = a * (zp - 1) + zp * y
    if mutant == "exponent":
        y1 = y1 + root_a * (y ** (n * (p - 1)))
    c = root_a / (y ** n)
    rhs = (a + 1 + y1) / (y ** (n * p - 1)) + (c ** p - c)
    return lhs, rhs


def test_step_identity_grid():
    assert BUILT_IN_ORDERS == [4, 8, 9, 16, 25, 27, 49, 64, 81, 125]
    for spec in grid_specs():
        assert check_step_identity(spec) == (True, None), spec


@pytest.mark.parametrize("mutant", ["drop-root", "exponent"])
def test_step_identity_mutants_fail_on_the_whole_grid(mutant):
    for spec in grid_specs():
        lhs, rhs = mutant_step_identity_exprs(spec, mutant)
        assert not check_identity(lhs, rhs, spec.field).ok, spec


def test_step_identity_exhaustive_over_f4():
    # q = 4 is small enough to test every point of the plane
    lhs, rhs = step_identity_exprs(TowerSpec(F4, 3, 2))
    assert exhaustive_identity(lhs, rhs, F4)


def test_step_identity_detects_corruption():
    spec = TowerSpec(F9, 2, 2)
    lhs, rhs = step_identity_exprs(spec)
    res = check_identity(lhs, rhs + 1, spec.field)
    assert not res.ok and res.witness is not None


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 64, 125])
def test_check_identity_matches_the_tree_walk_on_every_tower(q):
    """The exact verdict against the tree walk's element arithmetic at
    seeded points with y != 0, where both sides are defined: the
    identity agrees at every point, and the identity plus 1 at none."""
    rng = random.Random(q)
    for spec in tower_specs(q, 2):
        lhs, rhs = step_identity_exprs(spec)
        field = spec.field
        points = [{"z'": random_element(field, rng), "y": field.element_at(rng.randrange(1, q))}
                  for _ in range(8)]
        for right in (rhs, rhs + 1):
            agree = [tree_evaluate(lhs, env, field) == tree_evaluate(right, env, field)
                     for env in points]
            assert check_identity(lhs, right, field).ok == all(agree) == any(agree)
            assert all(agree) == (right is rhs)


def test_the_step_identity_of_a_huge_pole_order_takes_no_loop_over_its_digits():
    """A monomial's power is one product of exponents: the 4,298-digit
    n that the command line accepts at p = 2 takes about as long as a
    small one."""
    start = time.perf_counter()
    assert check_step_identity(TowerSpec(F4, 10 ** 4297 + 1, 0)).ok
    assert time.perf_counter() - start < 0.1


def test_best_f_descent():
    rep = best_f_descent(TowerSpec(F9, 2, 6))
    assert rep.values[:3] == [2, Fraction(5, 3), Fraction(14, 9)]
    assert rep.monotone
    assert rep.infimum == Fraction(3, 2)
    assert not rep.infimum_attained

    rep2 = best_f_descent(TowerSpec(F4, 3, 6))
    assert rep2.values[:3] == [3, Fraction(5, 2), Fraction(9, 4)]
    assert rep2.infimum == 2  # inside Z[1/2]; still never attained
    assert not rep2.infimum_attained

    with pytest.raises(InvalidSpec):
        best_f_descent(TowerSpec(F9, 2, 1))


def test_principality_chain_all_false():
    for field, n in ((F4, 3), (F9, 2), (F25, 2)):
        flags = principality_chain(tower_report(TowerSpec(field, n, 3)))
        assert not any(flags.values())


def test_report_json():
    data = tower_report(TowerSpec(F9, 2, 3)).to_json()
    assert data["v_0"] == "1/2"
    assert data["h_cut"] == {"value": "3/2", "bound": "open"}
    assert data["j_principal"] is False and data["best_f_exists"] is False


@pytest.mark.parametrize("p, n, depth", [
    (2, 3, 12), (3, 2, 10), (5, 2, 7), (7, 3, 4),
    (5, 10 ** 30 + 1, 0), (5, 10 ** 30 + 1, 1), (5, 10 ** 30 + 1, 3),  # T' widest at depth 0, 1
    (7, 3 * 10 ** 30 + 2, 0),  # T' numerator 36n - 7, a digit wider than 3np - 1
])
def test_printable_bounds_the_widest_printed_integer(p, n, depth):
    """``_printable`` knows the widest integer a tower run prints: with
    that many digits allowed it passes, with one fewer it fails."""
    widest = 0
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["tower", "--p", str(p), "--n", str(n), "--q", str(p * p),
                         "--depth", str(depth), "--trials", "2", "--format", fmt])
        assert code == 0
        widest = max(widest, *map(len, re.findall(r"\d+", out.getvalue())))
    assert _printable(p, n, depth, widest)
    assert not _printable(p, n, depth, widest - 1)


def test_a_tower_too_wide_to_print_is_rejected_before_any_work():
    TowerSpec(F25, 2, 6150)  # 5^6151 has 4300 digits
    for n, depth in ((2, 6151), (2, 10 ** 400), (int("1" * 4200), 200), (10 ** 4299 + 1, 0)):
        with pytest.raises(InvalidSpec, match="digits, Python's limit for printing an int"):
            TowerSpec(F25, n, depth)
