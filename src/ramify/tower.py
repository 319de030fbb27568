"""The rank-1 defect family over the value group Z[1/p].

A tower of blow-up levels presents one Artin-Schreier extension whose
base valuation ring is the union of the level rings.  The quantitative
content is carried by the level recursion (pole orders, parameter
valuations) and by the limit cuts; the one-step rewriting of the
defining equation is checked symbolically by randomized identity
testing over F_q.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidSpec
from .fields import Expr, check_identity, frobenius_root
from .series import Cut, ValueGroup


def _frac(x):
    return f"{x.numerator}/{x.denominator}"


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


class TowerLevel:
    """One blow-up level: pole order, shifted constant, and the exact
    valuations of the level parameters."""

    __slots__ = ("index", "n_i", "shift", "v_x", "v_y", "neg_v_f")

    def __init__(self, index, n_i, shift, v_x, v_y, neg_v_f):
        self.index = index
        self.n_i = n_i
        self.shift = shift
        self.v_x = v_x
        self.v_y = v_y
        self.neg_v_f = neg_v_f

    def to_json(self):
        return {
            "index": self.index,
            "n_i": self.n_i,
            "shift": self.shift,
            "v_x": _frac(self.v_x),
            "v_y": _frac(self.v_y),
            "neg_v_f": _frac(self.neg_v_f),
        }


def tower_levels(spec, depth=None):
    """Levels 0..depth via the recursion n_{i+1} = p*n_i - 1, with the
    parameter valuations v(x_i) = 1/p^i and v(y_i) = 1/p^(i+1)."""
    if depth is None:
        depth = spec.depth
    p = spec.p
    levels = []
    n_i = spec.n
    for i in range(depth + 1):
        v_x = Fraction(1, p ** i)
        v_y = Fraction(1, p ** (i + 1))
        levels.append(TowerLevel(i, n_i, i % p, v_x, v_y, n_i * v_x))
        n_i = p * n_i - 1
    return levels


def closed_form_n(spec, i):
    """n_i = p^i n - (p^i - 1)/(p - 1), always an integer."""
    p = spec.p
    return p ** i * spec.n - (p ** i - 1) // (p - 1)


def closed_form_neg_v_f(spec, i):
    """-v(f_i) = n - 1/(p-1) + 1/(p^i (p-1))."""
    p = spec.p
    return spec.n - Fraction(1, p - 1) + Fraction(1, p ** i * (p - 1))


class TowerReport:
    """Limit data of the tower: the logarithmic ideal bound, the norm
    image, the different, the two differential-module cuts, and the
    non-existence flags."""

    __slots__ = (
        "spec", "v_0", "mu", "j_cut", "h_cut", "n_of_j_cut",
        "different_inv_cut", "different_cut", "t_cut", "t_prime_cut",
        "j_principal", "best_f_exists",
    )

    def to_json(self):
        return {
            "p": self.spec.p,
            "n": self.spec.n,
            "q": self.spec.field.order,
            "v_0": _frac(self.v_0),
            "mu": _frac(self.mu),
            "j_cut": self.j_cut.to_json(),
            "h_cut": self.h_cut.to_json(),
            "n_of_j_cut": self.n_of_j_cut.to_json(),
            "different_inv_cut": self.different_inv_cut.to_json(),
            "different_cut": self.different_cut.to_json(),
            "t_cut": self.t_cut.to_json(),
            "t_prime_cut": self.t_prime_cut.to_json(),
            "j_principal": self.j_principal,
            "best_f_exists": self.best_f_exists,
        }


def tower_report(spec):
    """The limit cuts over Z[1/p].

    All ideals here are open cuts: the 1/alpha_i have valuations
    strictly decreasing to v_0 = (n - 1/(p-1))/p without attaining it,
    so the logarithmic ideal is {v > v_0}, its norm image {v > p v_0},
    and the different is the (p-1) power.
    """
    group = ValueGroup.z_one_over_p(spec.p)
    v0 = Fraction(spec.n - Fraction(1, spec.p - 1), spec.p)
    mu = Fraction(spec.n, spec.p)
    report = TowerReport()
    report.spec = spec
    report.v_0 = v0
    report.mu = mu
    report.j_cut = Cut.above(v0, group)
    report.n_of_j_cut = report.j_cut ** spec.p
    report.h_cut = Cut.above(spec.p * v0, group)
    report.different_cut = report.j_cut ** (spec.p - 1)
    report.different_inv_cut = report.different_cut.inverse()
    report.t_cut = Cut.above(v0 - mu, group)
    report.t_prime_cut = Cut.above(spec.p * v0 - mu, group)
    report.j_principal = report.j_cut.is_principal()
    report.best_f_exists = False
    return report


class DescentReport:
    """Outcome of following -v(f_i) down the levels."""

    __slots__ = ("monotone", "infimum", "infimum_attained", "values")

    def __init__(self, monotone, infimum, infimum_attained, values):
        self.monotone = monotone
        self.infimum = infimum
        self.infimum_attained = infimum_attained
        self.values = values

    def to_json(self):
        return {
            "monotone": self.monotone,
            "infimum": _frac(self.infimum),
            "infimum_attained": self.infimum_attained,
            "values": [_frac(v) for v in self.values],
        }


def best_f_descent(spec, depth=None):
    """Strictly decreasing pole magnitudes with an unattained infimum.

    The infimum n - 1/(p-1) may lie inside the value group when p = 2;
    non-existence of a minimizing representative is recorded through
    strict descent (no level attains the infimum), not through the
    infimum leaving the group.
    """
    if depth is None:
        depth = spec.depth
    if depth < 2:
        raise InvalidSpec("descent needs at least two levels to compare")
    values = [lv.neg_v_f for lv in tower_levels(spec, depth)]
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


def check_step_identity(spec, trials=32, seed=0):
    """Randomized verification of the one-step rewrite over F_q."""
    lhs, rhs = step_identity_exprs(spec)
    return check_identity(lhs, rhs, spec.field, trials, seed)


def principality_chain(report):
    """The four flags of the equivalence chain; the tower always has
    defect, so every one of them is false."""
    return {
        "best_f_exists": report.best_f_exists,
        "h_principal": report.h_cut.is_principal(),
        "j_principal": report.j_principal,
        "defectless": False,
    }
