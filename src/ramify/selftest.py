"""The acceptance grid: every headline identity of the library, run at
fixed seeds and exact tolerances.

Each criterion returns a CriterionResult; ``run_all`` executes the full
grid.  The same functions back the command line ``selftest`` and the
acceptance test module, so the shipped binary can re-verify itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .extension import (
    ASExtension,
    DifferenceOperators,
    LaurentSeries,
    RamificationType,
    reduce_to_best,
)
from .fields import FieldSpec
from .invariants import (
    boundary_generator,
    check_diagram_commutativity,
    check_norm_additivity,
    check_norm_ideal_identity,
    check_refined_swan_stability,
    different_ideal,
    ideal_i_sigma,
    ideal_j,
    principality_chain,
    trace_dual_cut,
)
from .series import Cut, ValueGroup
from .tower import (
    TowerSpec,
    best_f_descent,
    check_step_identity,
    closed_form_n,
    closed_form_neg_v_f,
    principality_chain as tower_principality_chain,
    tower_levels,
    tower_report,
)

DEFAULT_SEED = 1729

#: (p, coefficient kind, pole order, precision) for the discretely
#: valued grid; "u" marks the imperfect-residue cases over F_p(u).
DVR_GRID = [
    (2, None, 1, 32),
    (2, None, 3, 32),
    (3, None, 1, 32),
    (3, None, 2, 32),
    (2, "u", 2, 32),
    (3, "u", 3, 32),
    (5, None, 2, 24),
]

TOWER_GRID = [(2, 3), (2, 5), (3, 2), (3, 4), (5, 2)]

STEP_IDENTITY_GRID = [(3, 2, 9), (2, 3, 4), (5, 2, 25)]


class CriterionResult(NamedTuple):
    """Verdict of one acceptance criterion."""

    ident: int
    name: str
    ok: bool
    detail: str = ""

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  [{self.detail}]" if self.detail else ""
        return f"criterion {self.ident:02d} {self.name}: {status}{suffix}"

    def to_json(self):
        return {"id": self.ident, "name": self.name, "ok": self.ok, "detail": self.detail}


def grid_extension(p, coeff_kind, n, prec):
    if coeff_kind == "u":
        field = FieldSpec.rational(p)
        c = field.generator()
    else:
        field = FieldSpec.finite(p)
        c = field.one()
    return ASExtension(field, LaurentSeries.monomial(field, -n, c, prec))


def _grid_label(p, coeff_kind, n):
    c = "u*" if coeff_kind == "u" else ""
    return f"(p={p}, f={c}t^-{n})"


def _verdict(ident, name, failures, summary=""):
    """Criterion ``ident`` from its failure lines: the detail names the
    first three failures, or on a pass the summary."""
    return CriterionResult(ident, name, not failures, "; ".join(failures[:3]) or summary)


def _over_grid(ident, name, extensions, problems):
    """Criterion ``ident``: ``problems(label, ext)`` gives the failure
    lines of one labelled grid case."""
    return _verdict(ident, name, [msg for label, ext in extensions for msg in problems(label, ext)])


def _failed(label, res):
    """The failure line of a CheckResult that failed, else none."""
    return [] if res.ok else [f"{label}: {res.detail}"]


def _towers(depth):
    """The TOWER_GRID towers over F_(p^2), built to ``depth``."""
    return [TowerSpec(FieldSpec.finite(p, 2), n, depth) for p, n in TOWER_GRID]


def criterion_swan_table():
    """Pole order n*p^m always reduces to Swan conductor n."""
    failures = []
    cases = 0
    for p in (2, 3, 5):
        field = FieldSpec.finite(p)
        for n in range(1, 8):
            if math.gcd(n, p) != 1:
                continue
            for m in range(3):
                cases += 1
                f = LaurentSeries.monomial(field, -n * p ** m, 1, 8)
                got = reduce_to_best(f).swan
                if got != n:
                    failures.append(f"p={p} n={n} m={m} -> {got}")
    return _verdict(1, "swan_conductor_table", failures, f"{cases} cases")


def _oracle_best_pole(f, field):
    """Brute force: minimize the pole order of f + h^p - h over all h
    supported on t^-1..t^-3.

    The shifts are exact polynomials, so they carry a generous
    precision; the sum inherits the (possibly minimal) precision of f,
    which still covers the whole negative range.
    """
    p = field.p
    elems = list(field.elements())
    best = None
    for c1 in elems:
        for c2 in elems:
            for c3 in elems:
                h = LaurentSeries(field, {-1: c1, -2: c2, -3: c3}, f.prec + 9)
                g = f + (h ** p - h)
                negs = [e for e in g.coeffs if e < 0]
                cand = Fraction(-min(negs)) if negs else Fraction(0)
                if best is None or cand < best:
                    best = cand
    return best


def criterion_best_f_oracle(seed=DEFAULT_SEED):
    """Reduction agrees with the brute-force minimum over shifts."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for p in (2, 3):
        field = FieldSpec.finite(p)
        elems = list(field.elements())
        all_vectors = []
        total = p ** 6
        for idx in range(1, total):
            vec = []
            k = idx
            for _ in range(6):
                k, d = divmod(k, p)
                vec.append(d)
            all_vectors.append(vec)
        if len(all_vectors) > 500:
            all_vectors = rng.sample(all_vectors, 500)
        for vec in all_vectors:
            coeffs = {-(i + 1): elems[d] for i, d in enumerate(vec) if d}
            if not coeffs:
                continue
            f = LaurentSeries(field, coeffs, 1)
            got = reduce_to_best(f).swan
            want = _oracle_best_pole(f, field)
            checked += 1
            if got != want:
                failures.append(f"p={p} f={f}: reduced {got}, oracle {want}")
    return _verdict(2, "best_f_oracle_agreement", failures, f"{checked} cases")


def criterion_norm_ideal_defectless(extensions):
    return _over_grid(3, "norm_ideal_identity_defectless", extensions,
                      lambda label, ext: _failed(label, check_norm_ideal_identity(ext)))


def criterion_norm_ideal_tower():
    failures = []
    group_checks = 0
    for spec in _towers(8):
        p, n = spec.p, spec.n
        rep = tower_report(spec)
        expect = Cut.above(n - Fraction(1, p - 1), ValueGroup.z_one_over_p(p))
        if not (rep.h_cut == rep.n_of_j_cut == expect):
            failures.append(f"(p={p}, n={n}): H={rep.h_cut!r} N(J)={rep.n_of_j_cut!r}")
        group_checks += 1
    return _verdict(4, "norm_ideal_identity_defect_tower", failures, f"{group_checks} towers")


def criterion_tower_recursions():
    failures = []
    for spec in _towers(8):
        p, n = spec.p, spec.n
        levels = tower_levels(spec)
        for lv in levels:
            if lv.n_i != closed_form_n(spec, lv.index):
                failures.append(f"(p={p},n={n}) level {lv.index}: n_i mismatch")
            if lv.neg_v_f != closed_form_neg_v_f(spec, lv.index):
                failures.append(f"(p={p},n={n}) level {lv.index}: pole magnitude mismatch")
        descent = best_f_descent(spec)
        if not descent.monotone or descent.infimum_attained:
            failures.append(f"(p={p},n={n}): descent not strict")
        if descent.infimum != n - Fraction(1, p - 1):
            failures.append(f"(p={p},n={n}): wrong infimum")
    return _verdict(5, "tower_recursion_closed_form", failures)


def criterion_step_identity(seed=DEFAULT_SEED):
    failures = []
    bounds = []
    for p, n, q in STEP_IDENTITY_GRID:
        spec = TowerSpec(FieldSpec.finite(p, 2), n, 4)
        if spec.field.order != q:
            failures.append(f"grid mismatch for (p={p}, n={n})")
            continue
        res = check_step_identity(spec, trials=32, seed=seed)
        bounds.append(f"q={q}: d/q={res.degree_bound}/{res.sample_space}")
        if not res.ok:
            failures.append(f"(p={p},n={n},q={q}) witness {res.witness}")
    return _verdict(6, "rewrite_step_identity", failures, "; ".join(bounds))


def criterion_trace_identities():
    failures = []
    cases = 0
    for p in (2, 3, 5):
        field = FieldSpec.finite(p)
        poles = [1] if p == 2 else [1, 2]
        for n in poles:
            ext = ASExtension(field, LaurentSeries.monomial(field, -n, 1, 24))
            for m in range(1, p):
                tr = ext.alpha_power(m).trace()
                want = LaurentSeries.constant(field.from_int(-1 if m == p - 1 else 0), tr.prec)
                cases += 1
                if not tr.agrees_with(want):
                    failures.append(f"p={p} f=t^-{n}: Tr(a^{m}) = {tr}")
    return _verdict(7, "trace_identities", failures, f"{cases} traces")


def _difference_operator_failure(ext):
    """First violated operator law for one extension, or None."""
    b = boundary_generator(ext)
    bext = b.ext
    i_value = ideal_i_sigma(ext).value
    if (b.sigma(1) - b).valuation_coeffwise() != i_value:
        return "chosen b does not generate the difference ideal"
    ops = DifferenceOperators(bext, b)
    one = bext.one()
    zero = bext.zero()
    p = bext.p
    chains = [ops.chain(power) for power in b.powers(p)]  # chains[j][i] = D_i(b^j)
    conjugates = [b.sigma(j) for j in range(p)]
    tele = zero
    for i in range(p):
        if not chains[i][i].agrees_with(one):
            return f"D_{i}(b^{i}) != 1"
        for j in range(i):
            if not chains[j][i].agrees_with(zero):
                return f"D_{i}(b^{j}) != 0"
        tele = tele + conjugates[i]
        lhs = chains[i + 1][i]
        if not lhs.agrees_with(tele):
            return f"D_{i}(b^{i + 1}) != sum of conjugates"
        if i <= p - 2:
            step = lhs.sigma(1) - lhs
            if not step.agrees_with(conjugates[i + 1] - b):
                return f"difference of D_{i}(b^{i + 1}) is off"
            if step.valuation_coeffwise() != i_value:
                return f"D_{i}(b^{i + 1}) difference is not a generator"
    zero_cut = Cut.at_least(0, ValueGroup.discrete(1))
    for k, g in enumerate(bext.integral_generators()):
        d_g, d_gb = ops.chain(g), ops.chain(g * b)
        for i in range(1, p):
            if not d_gb[i].agrees_with(conjugates[i] * d_g[i] + d_g[i - 1]):
                return f"product rule failed at generator {k}, i={i}"
            if not d_g[i].in_cut(zero_cut):
                return f"D_{i} left the integers at generator {k}"
    return None


def criterion_difference_operators(extensions):
    """The laws of the operators D_i on the powers of b, and on all of B
    the product rule D_i(x * b) = sigma^i(b) * D_i(x) + D_(i-1)(x) and
    integrality D_i(B) in B, decided on the generators g_k of B.

    sigma fixes K, so each D_i, a K-multiple of (sigma - 1) applied to
    D_(i-1), is K-linear, and both sides of the product rule are
    K-linear in x.  B is the direct sum of the A * g_k
    (``integral_basis``), so for x = sum_k a_k g_k with a_k in A the rule
    holds at x when it holds at every g_k, and D_i(x) = sum_k a_k D_i(g_k)
    lies in B when every D_i(g_k) does.  The laws hold on B exactly when
    they hold on the p generators, and no sample is drawn."""
    def problems(label, ext):
        problem = _difference_operator_failure(ext)
        return [] if problem is None else [f"{label}: {problem}"]

    return _over_grid(8, "difference_operator_laws", extensions, problems)


def criterion_refined_swan_stability(extensions, seed=DEFAULT_SEED):
    return _over_grid(9, "refined_swan_stability", extensions, lambda label, ext: _failed(
        label, check_refined_swan_stability(ext, samples=50, seed=seed)))


def criterion_norm_additivity_diagram(extensions):
    def problems(label, ext):
        additivity = check_norm_additivity(ext)
        diagram = check_diagram_commutativity(ext)
        return _failed(f"{label} additivity", additivity) + _failed(f"{label} diagram", diagram)

    return _over_grid(10, "norm_additivity_and_diagram", extensions, problems)


def criterion_different_cross_check(extensions):
    def problems(label, ext):
        d = different_ideal(ext)
        oracle = trace_dual_cut(ext)
        if d != oracle:
            yield f"{label}: formula {d!r}, trace dual {oracle!r}"
        if ext.classification() is RamificationType.FEROCIOUS:
            if d != ideal_j(ext) ** (ext.p - 1):
                yield f"{label}: ferocious different is not J^(p-1)"

    return _over_grid(11, "different_vs_trace_dual", extensions, problems)


def criterion_principality_chain(extensions):
    """Every grid extension sets all four flags, and no tower sets any."""
    cases = [(label, (principality_chain(ext), True)) for label, ext in extensions] + [
        (f"tower (p={s.p},n={s.n})", (tower_principality_chain(tower_report(s)), False))
        for s in _towers(4)
    ]

    def problems(label, case):
        flags, held = case
        return [f"{label}: {flags}"] if any(bool(v) != held for v in flags.values()) else []

    return _over_grid(12, "principality_chain", cases, problems)


def run_all(seed=DEFAULT_SEED):
    """Execute every criterion; the shared grid extensions are built once."""
    extensions = [
        (_grid_label(p, kind, n), grid_extension(p, kind, n, prec))
        for p, kind, n, prec in DVR_GRID
    ]
    results = [
        criterion_swan_table(),
        criterion_best_f_oracle(seed),
        criterion_norm_ideal_defectless(extensions),
        criterion_norm_ideal_tower(),
        criterion_tower_recursions(),
        criterion_step_identity(seed),
        criterion_trace_identities(),
        criterion_difference_operators(extensions),
        criterion_refined_swan_stability(extensions, seed),
        criterion_norm_additivity_diagram(extensions),
        criterion_different_cross_check(extensions),
        criterion_principality_chain(extensions),
    ]
    return results
