import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramify.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidSpec,
    NotAPthPower,
    NotRationalFunctionField,
    ZeroInput,
)
from ramify.fields import (
    Expr,
    FieldSpec,
    IdentityCheck,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _trim,
    artin_schreier_solvable,
    check_identity,
    derivative_u,
    frobenius_root,
    is_pth_power,
    trace_to_prime,
)
from ramify.series import LaurentSeries

from oracles import (
    _pirreducible,
    assert_canonical,
    coprime_numerator,
    cross_product_identity,
    exhaustive_identity,
    expr_variables,
    fpu_denominators,
    long_divmod,
    poly_times,
    quotient_evaluate,
    random_element,
    tree_evaluate,
)

F2 = FieldSpec.finite(2)
F3 = FieldSpec.finite(3)
F4 = FieldSpec.finite(2, 2)
F9 = FieldSpec.finite(3, 2)
F2u = FieldSpec.rational(2)
F3u = FieldSpec.rational(3)
F5u = FieldSpec.rational(5)


def test_f4_generator_square():
    w = F4.generator()
    # w^2 = w + 1 modulo w^2 + w + 1, by direct reduction
    assert w * w == w + 1


def test_additive_identity():
    for field in (F2, F4, F9, F3u):
        x = random_element(field, random.Random(1))
        assert x + field.zero() == x


def test_rational_inverse_pair():
    u = F3u.generator()
    assert (u / (u + 1)) * ((u + 1) / u) == F3u.one()


def test_inverse_of_zero():
    for field in (F4, F3u):
        with pytest.raises(DivisionByZero):
            field.zero().inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F2.one() + F3.one()


def test_is_pth_power():
    u2 = F2u.generator()
    assert not is_pth_power(u2)
    u3 = F3u.generator()
    assert is_pth_power(u3 ** 3)
    assert is_pth_power(F4.generator())  # finite fields are perfect
    with pytest.raises(ZeroInput):
        is_pth_power(F2u.zero())


def test_is_pth_power_rational_mixed():
    u = F3u.generator()
    assert is_pth_power(u ** 3 / (u + 1) ** 3)
    assert not is_pth_power(u ** 3 / (u + 1))
    assert not is_pth_power(u ** 2)


def test_frobenius_root_f4_table():
    # independent oracle: square all four elements and invert the table
    squares = {}
    for c in F4.elements():
        squares[c * c] = c
    for c in F4.elements():
        assert frobenius_root(c) == squares[c]
    w = F4.generator()
    assert frobenius_root(w) == w + 1


def test_frobenius_root_rational():
    u = F3u.generator()
    assert frobenius_root(u ** 3) == u
    assert frobenius_root(F3u.one()) == F3u.one()
    r = frobenius_root((u ** 3 + 1) / (u + 1) ** 3)
    assert r ** 3 == (u ** 3 + 1) / (u + 1) ** 3
    with pytest.raises(NotAPthPower):
        frobenius_root(u)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6),
                                 (3, 1), (3, 2), (3, 3), (3, 4),
                                 (5, 1), (5, 2), (7, 1), (7, 2)])
def test_frobenius_root_exhaustive(p, m):
    field = FieldSpec.finite(p, m)
    assert field.order <= 81
    for c in field.elements():
        assert frobenius_root(c ** p) == c
        if not c.is_zero():
            assert frobenius_root(c) ** p == c


@pytest.mark.parametrize("field", [F2u, F3u])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pth_root_laws_rational(field, data):
    # nonzero polynomials of degree below 4
    poly = st.lists(st.integers(0, field.p - 1), min_size=1, max_size=4).filter(any)
    r = field.from_polys(data.draw(poly), data.draw(poly))
    x = field.from_polys(data.draw(poly), data.draw(poly))
    s = field.from_polys(data.draw(poly))
    p = field.p
    assert frobenius_root(r ** p) == r
    assert is_pth_power(r ** p)
    assert artin_schreier_solvable(x ** p - x)
    # u divides the denominator u * s^p to an exponent prime to p
    assert not artin_schreier_solvable(1 / (field.generator() * s ** p))


@pytest.mark.parametrize("field", [F2u, F3u, F5u])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_add_with_one_polynomial_operand_is_in_lowest_terms(field, data):
    """n/d + c returns (n + c*d)/d without a gcd; it must equal the
    canonical form ``_rat`` gives the cross-multiplied sum."""
    p = field.p
    poly = st.lists(st.integers(0, p - 1), max_size=5)
    x = field.from_polys(data.draw(poly), data.draw(poly.filter(any)))
    c = field.from_polys(data.draw(poly))
    expected = field._rat(_padd(_pmul(x._a, c._b, p), _pmul(c._a, x._b, p), p),
                          _pmul(x._b, c._b, p))
    for total in (x + c, c + x):
        assert (total._a, total._b) == (expected._a, expected._b)


def cross_multiplied_sum(x, y):
    """x + y over F_p(u) as the element operator computed it before
    Henrici's rule: cross-multiply, then one ``_rat``."""
    p = x.field.p
    return x.field._rat(_padd(_pmul(x._a, y._b, p), _pmul(y._a, x._b, p), p),
                        _pmul(x._b, y._b, p))


def cross_multiplied_product(x, y):
    p = x.field.p
    return x.field._rat(_pmul(x._a, y._a, p), _pmul(x._b, y._b, p))


# Indices into ``fpu_denominators``: 0 is 1, 1 is u, 2 is u+1, 3 is (u+1)^2,
# 4 is u^2(u+1) and 5 an irreducible quadratic.
DENOMINATOR_PAIRS = {
    "coprime": [(1, 2), (1, 3), (1, 5), (2, 5), (4, 5), (0, 4)],
    "equal": [(1, 1), (3, 3), (4, 4), (5, 5)],
    "shared_factor": [(2, 3), (1, 4), (2, 4), (3, 4)],
}


@pytest.mark.parametrize("field", [F2u, F3u, F5u], ids=repr)
@pytest.mark.parametrize("shape", sorted(DENOMINATOR_PAIRS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_henrici_add_and_mul_match_cross_multiplication(field, shape, data):
    """``+`` and ``*`` cancel gcds before they multiply out; the result
    must be the canonical form of the cross-multiplied fraction, in both
    operand orders.  Denominators are coprime, equal or share a factor,
    and stay as drawn: each numerator is c + r*s for a unit c and the
    denominator's radical r.  Zero operands and sums that cancel occur."""
    p = field.p
    pool = fpu_denominators(p)
    i, j = data.draw(st.sampled_from(DENOMINATOR_PAIRS[shape]))
    poly = st.lists(st.integers(0, p - 1), max_size=3)

    def operand(k):
        den, radical = pool[k]
        if data.draw(st.integers(0, 7)) == 0:
            return field.zero()
        num = coprime_numerator(data.draw(st.integers(1, p - 1)), radical, data.draw(poly), p)
        x = field.from_polys(num, den)
        assert x._b == den
        return x

    x, y = operand(i), operand(j)
    if x and data.draw(st.booleans()):
        y = field.from_polys([-c for c in x._a], x._b)  # x + y cancels to zero
    for left, right in ((x, y), (y, x)):
        for result, expected in ((left + right, cross_multiplied_sum(left, right)),
                                 (left * right, cross_multiplied_product(left, right))):
            assert (result._a, result._b) == (expected._a, expected._b)
            assert_canonical(result)


@pytest.mark.parametrize("field", [F3, F9, F2u], ids=repr)
def test_element_and_series_combine_in_either_order(field):
    """An element on the left of a series defers to the series, like an
    int does; an element of another field still raises FieldMismatch."""
    t = LaurentSeries(field, {1: field.one()}, 6)
    c = field.generator() if field.p == 2 else field.from_int(2)
    assert c + t == t + c == LaurentSeries(field, {0: c, 1: field.one()}, 6)
    assert c - t == -(t - c)
    assert c * t == t * c == t.scale(c)
    foreign = FieldSpec.finite(5).one()
    for op in (lambda: foreign + t, lambda: foreign - t, lambda: foreign * t,
               lambda: t + foreign, lambda: t - foreign, lambda: t * foreign,
               lambda: foreign + c, lambda: c * foreign):
        with pytest.raises(FieldMismatch):
            op()


def two_block_rat(p, num, den):
    """(num, den) of ``FieldSpec._rat`` written with two normalisations
    of the denominator, one before the gcd and one after it."""
    num, den = _trim(num), _trim(den)
    if not num:
        return (), (1,)
    if len(den) == 1:
        if den[0] != 1:
            inv = pow(den[0], -1, p)
            num = tuple((c * inv) % p for c in num)
        return num, (1,)
    g = _pgcd(num, den, p)
    if len(g) > 1:
        num = _pdivmod(num, g, p)[0]
        den = _pdivmod(den, g, p)[0]
    if len(den) == 1:
        if den[0] != 1:
            inv = pow(den[0], -1, p)
            num = tuple((c * inv) % p for c in num)
        return num, (1,)
    inv = pow(den[-1], -1, p)
    return tuple((c * inv) % p for c in num), tuple((c * inv) % p for c in den)


@pytest.mark.parametrize("field", [F2u, F3u, F5u])
@pytest.mark.parametrize("shape", ["constant", "common_factor", "non_monic"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rat_matches_the_two_block_normalisation(field, shape, data):
    """One path (a gcd only for a nonconstant denominator, then one
    scaling by the inverse leading coefficient) gives the canonical
    (num, den) of the two-block form, trailing zeros included."""
    p = field.p
    coeff = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    num = data.draw(st.lists(coeff, max_size=5))
    if shape == "constant":
        den = [data.draw(unit)]
    else:
        den = data.draw(st.lists(coeff, min_size=1, max_size=4)) + [data.draw(unit)]
        if shape == "common_factor":
            g = tuple(data.draw(st.lists(coeff, max_size=2))) + (data.draw(unit),)
            num, den = _pmul(tuple(num), g, p), _pmul(tuple(den), g, p)
        else:
            den[-1] = data.draw(st.integers(2, p - 1)) if p > 2 else 1
    zeros = data.draw(st.integers(0, 2))
    num, den = tuple(num) + (0,) * zeros, tuple(den) + (0,) * zeros
    result = field._rat(num, den)
    assert (result._a, result._b) == two_block_rat(p, num, den)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("longer", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_remainder_matches_the_remainder_of_divmod(p, longer, data):
    """Euclid and modular powers read the remainder of ``_pdivmod``; the
    division must match the long division, whether a is shorter than b
    (a comes back trimmed) or longer (reduction steps run), for monic and
    non-monic b."""
    coeff = st.integers(0, p - 1)
    b = tuple(data.draw(st.lists(coeff, max_size=5))) + (data.draw(st.integers(1, p - 1)),)
    n = data.draw(st.integers(len(b), len(b) + 6) if longer else st.integers(0, len(b) - 1))
    a = tuple(data.draw(st.lists(coeff, min_size=n, max_size=n)))
    assert _pdivmod(a, b, p) == long_divmod(a, b, p)


def test_derivative_u_examples():
    u3 = F3u.generator()
    assert derivative_u(u3 * u3) == 2 * u3
    u2 = F2u.generator()
    assert derivative_u(u2 * u2) == F2u.zero()
    # quotient rule by hand: d(1/u) = -1/u^2
    assert derivative_u(1 / u3) == -(u3 ** -2)
    with pytest.raises(NotRationalFunctionField):
        derivative_u(F4.generator())


@given(st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1))
@settings(max_examples=60, deadline=None)
def test_derivative_u_leibniz(i, j):
    def poly(idx):
        coeffs = []
        for _ in range(4):
            idx, d = divmod(idx, 3)
            coeffs.append(d)
        return F3u.from_polys(coeffs)

    a, b = poly(i), poly(j)
    assert derivative_u(a * b) == a * derivative_u(b) + b * derivative_u(a)


def test_trace_to_prime():
    assert trace_to_prime(F2.one()) == 1
    w = F4.generator()
    # Tr(w) = w + w^2 = w + (w+1) = 1 in F_4
    assert trace_to_prime(w) == 1
    assert trace_to_prime(F4.one()) == 0  # 1 + 1 = 0 in characteristic 2


def test_artin_schreier_solvable_finite():
    # x^2 + x = 1 has no root in F_2 (exhaustive check)
    assert not any((x * x + x) == F2.one() for x in F2.elements())
    assert not artin_schreier_solvable(F2.one())
    assert artin_schreier_solvable(F2.zero())
    # over F_4 the trace of w+1 is 1+1+... compute exhaustively instead
    for c in F4.elements():
        expected = any((x * x - x) == c for x in F4.elements())
        assert artin_schreier_solvable(c) == expected


def test_artin_schreier_solvable_rational():
    u = F3u.generator()
    assert not artin_schreier_solvable(u)
    assert artin_schreier_solvable(u ** 3 - u)
    rng = random.Random(11)
    for _ in range(25):
        x = F3u.from_polys([rng.randrange(3) for _ in range(3)],
                           [rng.randrange(3) for _ in range(2)] + [1])
        assert artin_schreier_solvable(x ** 3 - x)
    # denominator not a cube: no solution
    assert not artin_schreier_solvable(1 / u)
    # (1/u)^3 - 1/u has a solution by construction
    assert artin_schreier_solvable((1 / u) ** 3 - 1 / u)


@pytest.mark.parametrize("p", [2, 3])
def test_artin_schreier_solvable_brute_force(p):
    # oracle: the image of x -> x^p - x on all polynomials of degree <= 2;
    # a solution for a degree <= 2 polynomial must itself be a constant
    # or land in that image, so non-image cases are exactly unsolvable
    import itertools

    field = FieldSpec.rational(p)
    polys = [field.from_polys(v) for v in itertools.product(range(p), repeat=3)]
    image = {x ** p - x for x in polys}
    for v in itertools.product(range(p), repeat=3):
        c = field.from_polys(v)
        assert artin_schreier_solvable(c) == (c in image)


def test_check_identity_true_and_false():
    x, y = Expr.var("x"), Expr.var("y")
    res = check_identity((x + y) ** 2, x ** 2 + 2 * x * y + y ** 2, F9)
    assert res.ok and res.witness is None
    res = check_identity(x, x + 1, F9)
    assert not res.ok and res.witness == {}  # the constant monomial differs


def test_division_by_the_zero_polynomial_raises():
    x = Expr.var("x")
    # x(x+1) vanishes on every point of F_2, but it is not the zero
    # polynomial, so the quotient is a rational function like any other
    expr = Expr.const(1) / (x * (x + 1))
    assert check_identity(expr, expr, F2).ok
    assert check_identity(expr * (x * x + x), Expr.const(1), F2).ok
    for zero in (x - x, x * 0, (x + 1) ** 3 - x ** 3 - 1):  # (x+1)^3 = x^3 + 1 over F_9
        with pytest.raises(DivisionByZero):
            check_identity(x / zero, x, F9)
        with pytest.raises(DivisionByZero):
            check_identity(x, x / zero, F9)
        with pytest.raises(DivisionByZero):
            (x / zero).evaluate({}, F9)


def test_check_identity_without_variables():
    assert check_identity(Expr.const(2) * 2, Expr.const(1), F9).ok
    res = check_identity(Expr.const(2), Expr.const(1), F9)
    assert not res.ok and res.witness == {}
    with pytest.raises(DivisionByZero):
        check_identity(Expr.const(1) / Expr.const(0), Expr.const(1), F9)


def test_check_identity_evaluates_lhs_then_rhs(monkeypatch):
    """Each side is evaluated on its own, lhs first, so the first side
    that raises names the error.  An identity whose divisors are single
    terms passes on the two values alone, with no walk of lhs - rhs."""
    x, y = Expr.var("x"), Expr.var("y")
    foreign = Expr.const(F4.element_at(2))
    with pytest.raises(DivisionByZero):
        check_identity(1 / (x - x), foreign, F9)
    with pytest.raises(FieldMismatch):
        check_identity(foreign, 1 / (x - x), F9)
    seen, evaluate = [], Expr.evaluate
    monkeypatch.setattr(Expr, "evaluate", lambda expr, *args: seen.append(expr) or evaluate(expr, *args))
    lhs, rhs = (x + y) / y ** 2, x / y ** 2 + 1 / y
    assert check_identity(lhs, rhs, F9).ok and seen == [lhs, rhs]


@pytest.mark.parametrize("field", [F4, F9, FieldSpec.finite(5, 2)])
def test_x_to_the_q_is_not_x(field):
    """x^q and x agree at every point of F_q, but they are different
    rational functions, and the check decides the latter."""
    x, y = Expr.var("x"), Expr.var("y")
    q = field.order
    assert exhaustive_identity(x ** q, x, field)
    res = check_identity(x ** q, x, field)
    assert not res.ok and res.witness == {"x": 1}
    res = check_identity(y * x ** q + y, y * x + y, field)
    assert not res.ok and res.witness == {"x": 1, "y": 1}
    assert check_identity((x + y) ** q, x ** q + y ** q, field).ok


def test_check_identity_over_rational_field():
    x = Expr.var("x")
    u = F3u.generator()
    lhs = (x + Expr.const(u)) ** 3
    rhs = x ** 3 + Expr.const(u ** 3)  # freshman's dream in char 3
    assert check_identity(lhs, rhs, F3u).ok
    assert not check_identity(lhs, x ** 3 + Expr.const(u), F3u).ok


def test_exhaustive_identity_oracle():
    x, y = Expr.var("x"), Expr.var("y")
    assert exhaustive_identity((x + y) ** 2, x ** 2 + 2 * x * y + y ** 2, F4)
    assert not exhaustive_identity(x, x + 1, F4)


def test_the_oracle_collects_variables_once_per_distinct_node():
    # 40 levels of x_k = x_(k-1) * x_(k-1) + y: about 2^40 paths, 81 nodes
    x, y = Expr.var("x"), Expr.var("y")
    node = x
    for _ in range(40):
        node = node * node + y
    assert expr_variables(node, y + Expr.const(1)) == {"x", "y"}


# -- Expr.evaluate and check_identity against the tree walk ----------------------

EXPR_FIELDS = [
    F2, F3, F4, FieldSpec.finite(2, 3), F9, FieldSpec.finite(5, 2), F2u, F3u,
]


def field_points(field):
    """Elements of ``field``, zero among them: any code of F_q, and
    fractions of small polynomials over F_p(u)."""
    if field.is_finite:
        return st.integers(0, field.order - 1).map(field.element_at)
    poly = st.lists(st.integers(0, field.p - 1), max_size=3)
    return st.one_of(
        st.just(field.zero()),
        st.tuples(poly, poly.filter(any)).map(lambda nd: field.from_polys(*nd)),
    )


def expr_trees(field, divide=True, max_power=7):
    """Expressions in x and y over ``field``; without ``divide``, the
    only divisors are constants of the field, zero among them."""
    constants = st.one_of(st.integers(-3, 3).map(Expr.const), field_points(field).map(Expr.const))
    leaves = st.one_of(constants, st.sampled_from(["x", "y"]).map(Expr.var))

    def nodes(kids):
        pairs = st.tuples(kids, kids if divide else constants)
        return st.one_of(
            st.tuples(kids, kids).map(lambda ab: ab[0] + ab[1]),
            st.tuples(kids, kids).map(lambda ab: ab[0] - ab[1]),
            st.tuples(kids, kids).map(lambda ab: ab[0] * ab[1]),
            pairs.map(lambda ab: ab[0] / ab[1]),
            kids.map(lambda a: -a),
            st.tuples(kids, st.integers(0, max_power)).map(lambda an: an[0] ** an[1]),
        )

    return st.recursive(leaves, nodes, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EXPR_FIELDS), st.data())
def test_evaluate_at_a_point_matches_the_tree_walk(field, data):
    expr = data.draw(expr_trees(field))
    for _ in range(3):
        env = {name: data.draw(field_points(field)) for name in ("x", "y")}
        try:
            want = tree_evaluate(expr, env, field)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                expr.evaluate(env, field)
            continue
        got = expr.evaluate(env, field)
        assert got == want and got.field is field


def degree(poly, name):
    """The degree in ``name`` of a polynomial ``Expr.evaluate`` returns."""
    return max((dict(m).get(name, 0) for m in poly), default=0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([F4, F9]), st.data())
def test_check_identity_matches_exhaustive_evaluation_below_degree_q(field, data):
    """Two polynomials whose degree in each variable is below q are
    equal exactly when they agree on every point of F_q^2, so there the
    exact check and the exhaustive one must agree.  The right side is
    drawn at random or as a rewrite of the left, so both verdicts
    occur."""
    q = field.order
    trees = expr_trees(field, divide=False, max_power=q - 1)
    lhs = data.draw(trees)
    other = data.draw(trees)
    rewrites = [other, lhs + other, (lhs + other) - other, lhs * (other - other + 1)]
    rhs = data.draw(st.sampled_from(rewrites))
    try:
        sides = [side.evaluate({}, field) for side in (lhs, rhs)]
    except DivisionByZero:  # a divisor that is the zero constant
        assume(False)
    for side in sides:
        if isinstance(side, tuple):
            assume(all(degree(side[0], name) < q for name in ("x", "y")))
    assert check_identity(lhs, rhs, field).ok == exhaustive_identity(lhs, rhs, field)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXPR_FIELDS), st.data())
def test_evaluate_and_check_identity_match_the_quotient_walk(field, data):
    """At the generic point ``Expr.evaluate`` gives the rational function
    of the quotient walk, n * d_ref == n_ref * d, with no negative
    exponent, and raises DivisionByZero exactly where the walk does;
    ``check_identity`` gives the verdict of the walk's cross products,
    and its witness too when no denominator holds a variable.  The right
    side is drawn at random or as a rewrite of the left, so both
    verdicts occur."""
    lhs = data.draw(expr_trees(field))
    other = data.draw(expr_trees(field))
    rhs = data.draw(st.sampled_from([other, (lhs + other) - other, lhs * other / other]))
    refs = []
    for expr in (lhs, rhs):
        try:
            want = quotient_evaluate(expr, {}, field)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                expr.evaluate({}, field)
            continue
        got = expr.evaluate({}, field)
        if isinstance(want, tuple):
            (n, d), (n_ref, d_ref) = got, want
            assert poly_times(n, d_ref, field) == poly_times(n_ref, d, field)
            assert d and all(e > 0 for m in (*n, *d) for _, e in m)
            refs.append(d_ref)
        else:
            assert got == want and got.field is field
    try:
        want = cross_product_identity(lhs, rhs, field)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            check_identity(lhs, rhs, field)
        return
    got = check_identity(lhs, rhs, field)
    assert got.ok == want.ok
    if all(d_ref.keys() == {()} for d_ref in refs):
        assert got == want


def test_the_witness_is_the_least_monomial_of_the_cleared_numerator():
    """A pair has its negative exponents cleared into den, and a failing
    identity names the least monomial of the numerator of lhs - rhs.
    Over a variable denominator that can differ from where the cross
    products differ first: 1/x - 2/x = -1/x and x/y - (x/y + 1) = -1
    both have the numerator -1, where n1 * d2 and n2 * d1 part at x and
    at y^2."""
    x, y = Expr.var("x"), Expr.var("y")
    assert ((x + 1) / x).evaluate({}, F9) == ({(("x", 1),): 1, (): 1}, {(("x", 1),): 1})
    assert (1 / (1 / x + 1)).evaluate({}, F9) == ({(("x", 1),): 1}, {(("x", 1),): 1, (): 1})
    assert check_identity(1 / x, 2 / x, F9) == IdentityCheck(False, {})
    assert cross_product_identity(1 / x, 2 / x, F9) == IdentityCheck(False, {"x": 1})
    assert check_identity(x / y, x / y + 1, F9) == IdentityCheck(False, {})
    assert cross_product_identity(x / y, x / y + 1, F9) == IdentityCheck(False, {"y": 2})


@pytest.mark.parametrize("field", [F4, FieldSpec.finite(2, 3), F9, FieldSpec.finite(5, 2)])
def test_every_element_matches_the_tree_walk_at_the_table_edges(field):
    """Point evaluation over every element of the field, zero among
    them, at the cases where the log tables meet zero: 0^0 = 1,
    exponents that are multiples of q - 1, negation (which does nothing
    at p = 2), sums that cancel, vanished denominators, and zero
    constants."""
    q = field.order
    x = Expr.var("x")
    zero = Expr.const(0)
    cases = [
        x ** 0, x ** (q - 1), x ** q, x ** (2 * (q - 1)), (x ** 0) ** 3,
        x ** (q - 1) + 1, x ** (2 * (q - 1)) * x - x,
        -x, -(-x), x - x, x + -x, (x - x) * x,
        x / (x + -x), (x + 1) / (x + 1), (x + 1) / (x - x + 1),
        zero, Expr.const(field.zero()), zero * x + x, x + zero, zero - x, zero / x,
    ]
    for expr in cases:
        for c in range(q):
            env = {"x": field.element_at(c)}
            try:
                want = tree_evaluate(expr, env, field)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    expr.evaluate(env, field)
                continue
            assert expr.evaluate(env, field) == want


@pytest.mark.parametrize("field", [F2, F3, F4, F9, FieldSpec.finite(2, 3)])
def test_power_matches_repeated_products(field):
    for x in field.elements():
        power = field.one()
        for n in range(field.order + 2):
            assert x ** n == power
            power = power * x
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x ** -1
        else:
            assert x ** -2 == (x * x).inverse()


def test_foreign_constant_raises_on_the_first_evaluate():
    x = Expr.var("x")
    expr = x + Expr.const(F4.generator())
    with pytest.raises(FieldMismatch):
        expr.evaluate({"x": F9.one()}, F9)
    with pytest.raises(FieldMismatch):
        expr.evaluate({"x": F9.one()}, F9)
    assert expr.evaluate({"x": F4.one()}, F4) == F4.generator() + 1


def test_one_expression_over_two_fields():
    x = Expr.var("x")
    expr = x * x + Expr.const(3)
    F5, F7 = FieldSpec.finite(5), FieldSpec.finite(7)
    for _ in range(2):
        assert expr.evaluate({"x": F5.from_int(2)}, F5) == F5.from_int(2)
        assert expr.evaluate({"x": F7.from_int(2)}, F7) == F7.from_int(0)
        assert expr.evaluate({"x": 2}, F3u) == F3u.from_int(1)


def test_modulus_validation():
    with pytest.raises(InvalidSpec):
        FieldSpec.finite(2, 2, (1, 0, 1))  # w^2+1 = (w+1)^2 over F_2
    with pytest.raises(InvalidSpec):
        FieldSpec(4, FieldSpec.FINITE)  # 4 is not prime


def test_the_tables_accept_exactly_the_moduli_rabin_calls_irreducible():
    """The power walk of the F_q tables is the irreducibility proof: it
    agrees with Rabin's test on every monic modulus of degree 2-4 over
    F_2 and F_3 and of degree 2 over F_5 and F_7, and a rejection says
    the same as Rabin's did."""
    irreducible = 0
    for p, degrees in ((2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2,)), (7, (2,))):
        for m in degrees:
            for low in itertools.product(range(p), repeat=m):
                f = low + (1,)
                if _pirreducible(f, p):
                    irreducible += 1
                    assert FieldSpec.finite(p, m, f).modulus == f
                else:
                    with pytest.raises(InvalidSpec, match=r"^modulus is reducible over F_p$"):
                        FieldSpec.finite(p, m, f)
    assert irreducible == 6 + 29 + 10 + 21  # the counts of monic irreducibles


def test_a_reducible_modulus_of_order_2_16_is_rejected_quickly():
    """Product of two irreducible octics over F_2: every unit of
    F_256 x F_256 fails the primitive-element test, so the search runs to
    the first zero divisor before the walk rejects."""
    f = _pmul((1, 1, 0, 1, 1, 0, 0, 0, 1), (1, 0, 1, 1, 1, 0, 0, 0, 1), 2)
    assert len(f) == 17 and not _pirreducible(f, 2)
    start = time.perf_counter()
    with pytest.raises(InvalidSpec, match="modulus is reducible over F_p"):
        FieldSpec.finite(2, 16, f)
    assert time.perf_counter() - start < 1.0


def test_element_rendering_roundtrip_forms():
    u = F3u.generator()
    assert str(u ** 2 / (u + 1)) == "u^2/(u+1)"
    assert str(F9.generator() + 1) == "w+1"
    assert str(F3.from_int(2)) == "2"
