"""The rank-1 defect family over the value group Z[1/p].

A tower of blow-up levels presents one Artin-Schreier extension whose
base valuation ring is the union of the level rings.  The quantitative
content is carried by the level recursion (pole orders, parameter
valuations) and by the limit cuts; the one-step rewriting of the
defining equation is decided exactly, as an identity in F_q(z', y).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidSpec
from .fields import Expr, check_identity, frobenius_root
from .records import encode
from .series import Cut, ValueGroup

# Python refuses to print an int of more digits than this limit
# (``sys.set_int_max_str_digits``); 3.10, which has none, takes the
# later versions' default, so that every version accepts the same towers.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)


def _printable(p, n, depth, limit):
    """Whether every integer a tower run prints has at most ``limit``
    digits.  The largest are n_depth, p^(depth + 1), the denominator of
    v(y_depth), and the numerator (p - 1)^2 n - p and denominator
    p(p - 1) of T'.  The numerator of every other cut is at most n_depth
    (at p = 2) or T''s (at p >= 3)."""
    if depth > 4 * limit or n.bit_length() > 4 * limit:  # over 10^limit: build no power
        return False
    top = p ** depth
    widest = max(top * n - (top - 1) // (p - 1), top * p, (p - 1) ** 2 * n - p, p * (p - 1))
    # 2^(3.32 limit) < 10^limit, so a short widest skips building 10^limit
    return widest.bit_length() <= 3.32 * limit or widest < 10 ** limit


class TowerSpec:
    """Parameters of the construction: the defining element is
    (a + y)/x^n over F_q with a outside the prime field, gcd(n, p) = 1,
    and n >= 3 when p = 2."""

    __slots__ = ("p", "n", "field", "a", "depth")

    def __init__(self, field, n, depth, a=None):
        p = field.p
        if not field.is_finite or field.degree < 2:
            raise InvalidSpec(
                "the residue field must be F_q with q > p, so that a can avoid F_p"
            )
        if n < 1 or math.gcd(n, p) != 1:
            raise InvalidSpec("the pole order n must be positive and coprime to p")
        if p == 2 and n < 3:
            raise InvalidSpec("n >= 3 is required when p = 2")
        if depth < 0:
            raise InvalidSpec("depth must be nonnegative")
        limit = _DIGIT_LIMIT()
        if limit and not _printable(p, n, depth, limit):
            raise InvalidSpec(
                f"the tower's output would hold integers of more than {limit} digits, "
                "Python's limit for printing an int"
            )
        if a is None:
            a = field.generator()
        if a._a < p:  # the codes below p are the prime field
            raise InvalidSpec("the shift constant a must lie outside F_p")
        self.p = p
        self.n = n
        self.field = field
        self.a = a
        self.depth = depth

    def __repr__(self):
        return f"TowerSpec(p={self.p}, n={self.n}, q={self.field.order}, depth={self.depth})"


class TowerLevel(NamedTuple):
    """One blow-up level: pole order, shifted constant, and the exact
    valuations of the level parameters."""

    index: int
    n_i: int
    shift: int
    v_x: Fraction
    v_y: Fraction
    neg_v_f: Fraction

    to_json = encode


def tower_levels(spec):
    """Levels 0..spec.depth via the recursion n_{i+1} = p*n_i - 1, with
    the parameter valuations v(x_i) = 1/p^i and v(y_i) = 1/p^(i+1) =
    v(x_(i+1)), and -v(f_i) = n_i/p^i."""
    p = spec.p
    levels = []
    n_i, top, v_x = spec.n, 1, Fraction(1)  # top = p^i
    for i in range(spec.depth + 1):
        v_y = Fraction(1, top * p)
        levels.append(TowerLevel(i, n_i, i % p, v_x, v_y, Fraction(n_i, top)))
        n_i, top, v_x = p * n_i - 1, top * p, v_y
    return levels


def closed_form_n(spec, i):
    """n_i = p^i n - (p^i - 1)/(p - 1), always an integer."""
    p = spec.p
    return p ** i * spec.n - (p ** i - 1) // (p - 1)


def closed_form_neg_v_f(spec, i):
    """-v(f_i) = n - 1/(p-1) + 1/(p^i (p-1))."""
    p = spec.p
    return spec.n - Fraction(1, p - 1) + Fraction(1, p ** i * (p - 1))


class TowerReport(NamedTuple):
    """Limit data of the tower: the logarithmic ideal bound, the norm
    image, the different, the two differential-module cuts, and the
    non-existence flags."""

    p: int
    n: int
    q: int
    v_0: Fraction
    mu: Fraction
    j_cut: Cut
    h_cut: Cut
    n_of_j_cut: Cut
    different_inv_cut: Cut
    different_cut: Cut
    t_cut: Cut
    t_prime_cut: Cut
    j_principal: bool
    best_f_exists: bool

    to_json = encode


def tower_report(spec):
    """The limit cuts over Z[1/p].

    All ideals here are open cuts: the 1/alpha_i have valuations
    strictly decreasing to v_0 = (n - 1/(p-1))/p without attaining it,
    so the logarithmic ideal is {v > v_0}, its norm image {v > p v_0},
    and the different is the (p-1) power.  A best representative would
    attain v_0, so it exists exactly when J is closed.
    """
    p = spec.p
    group = ValueGroup.z_one_over_p(p)
    v0 = Fraction(spec.n - Fraction(1, p - 1), p)
    mu = Fraction(spec.n, p)
    j_cut = Cut.above(v0, group)
    different_cut = j_cut ** (p - 1)
    return TowerReport(
        p=p, n=spec.n, q=spec.field.order, v_0=v0, mu=mu,
        j_cut=j_cut, h_cut=Cut.above(p * v0, group), n_of_j_cut=j_cut ** p,
        different_inv_cut=different_cut.inverse(), different_cut=different_cut,
        t_cut=Cut.above(v0 - mu, group), t_prime_cut=Cut.above(p * v0 - mu, group),
        j_principal=j_cut.is_principal(), best_f_exists=j_cut.closed,
    )


def principality_chain(report):
    """The four flags of the equivalence chain, read off the tower's
    report: a best f exists when J is closed, and as an Artin-Schreier
    extension has defect exactly when v(f) has no maximum over its
    presentations (Kuhlmann), the tower is defectless when H, which the
    1/f generate, is closed."""
    return {
        "best_f_exists": report.best_f_exists,
        "h_principal": report.h_cut.is_principal(),
        "j_principal": report.j_principal,
        "defectless": report.h_cut.closed,
    }


class DescentReport(NamedTuple):
    """Outcome of following -v(f_i) down the levels."""

    monotone: bool
    infimum: Fraction
    infimum_attained: bool
    values: list

    to_json = encode


def best_f_descent(spec):
    """Strictly decreasing pole magnitudes with an unattained infimum.

    The infimum n - 1/(p-1) may lie inside the value group when p = 2;
    non-existence of a minimizing representative is recorded through
    strict descent (no level attains the infimum), not through the
    infimum leaving the group.
    """
    if spec.depth < 2:
        raise InvalidSpec("descent needs at least two levels to compare")
    return _descent(spec, tower_levels(spec))


def _descent(spec, levels):
    """``best_f_descent`` of spec, read off its ``tower_levels``."""
    values = [lv.neg_v_f for lv in levels]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    infimum = spec.n - Fraction(1, spec.p - 1)
    attained = any(v == infimum for v in values)
    return DescentReport(monotone, infimum, attained, values)


def step_identity_exprs(spec):
    """Both sides of the one-step rewrite of the defining element, as
    expressions in the free variables z' and y.

    With x = x' y^p and (x')^(-n) = 1 + z'y, the level-0 element
    (a+y)/x^n becomes (a+y)(1+z'y)/y^(np); extracting the p-th power
    part c = a^(1/p) y^(-n) leaves the level-1 element with
    y_1 = a(z'-1) + z'y + a^(1/p) y^(n(p-1)-1) and x_1 = y.
    """
    p, n = spec.p, spec.n
    a = Expr.const(spec.a)
    root_a = Expr.const(frobenius_root(spec.a))
    zp = Expr.var("z'")
    y = Expr.var("y")
    lhs = (a + y) * (1 + zp * y) / (y ** (n * p))
    y1 = a * (zp - 1) + zp * y + root_a * (y ** (n * (p - 1) - 1))
    c = root_a / (y ** n)
    rhs = (a + 1 + y1) / (y ** (n * p - 1)) + (c ** p - c)
    return lhs, rhs


def check_step_identity(spec):
    """Exact verification of the one-step rewrite, as an identity in
    F_q(z', y)."""
    lhs, rhs = step_identity_exprs(spec)
    return check_identity(lhs, rhs, spec.field)
