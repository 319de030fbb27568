"""Ideal-theoretic invariants of an Artin-Schreier extension of k((t)).

Cuts for ideals of B are expressed in v_K units throughout, so the
value group of L is (1/p)Z in the wild case and Z otherwise, and
taking norms scales cut values by p uniformly.  Every ideal of B is
read from one record of its shape, ``integral_basis``: the value
group, the Swan conductor n, the integer exponents e_i of
B = sum_i A * alpha^i * t^(e_i) and the decisive index i_star, so no
function here re-decides the shape, wild, ferocious or unramified (the
ferocious formula with n = 0).  Each cut is built from those integers
on every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    InsufficientPrecision,
    SwanZero,
    TrivialExtension,
)
from .extension import (
    ASExtension,
    BestCase,
    LaurentSeries,
    RamificationType,
    Z_GROUP,
    integral_basis,
    reduce_to_best,
)
from .records import encode
from .series import Cut, dot, restrict_cut, series_in_cut


def value_group_of_l(ext):
    """Value group of L in v_K units, for a nontrivial extension."""
    return integral_basis(ext).group


def ideal_h(ext):
    """The ideal of A generated by the inverses of the defining elements."""
    if ext.classification() is RamificationType.TRIVIAL:
        raise TrivialExtension("H is defined for nontrivial extensions")
    return Cut.at_least(ext.swan, Z_GROUP)


def ideal_j(ext):
    """The ideal of B generated by sigma(b)/b - 1; in the defectless
    case it is generated by 1/alpha, of valuation n/p."""
    basis = integral_basis(ext)
    return Cut.at_least(Fraction(basis.n, ext.p), basis.group)


def ideal_i_sigma(ext):
    """The ideal of B generated by sigma(b) - b.

    It is generated by the differences of the boundary elements
    alpha^i * t^(e_i), so its value is the least e_i + (1-i)*n/p,
    attained at ``i_star``.  Ferocious, every e_i = i*n/p gives n/p,
    and the ideal equals J.
    """
    basis = integral_basis(ext)
    p, i = ext.p, basis.i_star
    return Cut.at_least(Fraction(p * basis.e[i] + (1 - i) * basis.n, p), basis.group)


def norm_of_j(ext):
    """The ideal of A generated by norms from J; values scale by p."""
    return restrict_cut(ideal_j(ext) ** ext.p, Z_GROUP)


def rsw_modulus(ext):
    """The comparison ideal for the differential form: all x with
    v_K(x) >= ((p-1)/p) * n, in the value group of K, so the integer
    cut n - floor(n/p).  A trivial extension has n = 0, so its modulus
    is A."""
    n = int(ext.swan)
    return Cut.at_least(n - n // ext.p, Z_GROUP)


class LogForm(NamedTuple):
    """The class of a logarithmic differential form c_t * dlog t + c_u * du
    modulo a comparison ideal, held, printed and compared as its
    coefficients truncated at that ideal's integer cut."""

    dlog_t: LaurentSeries
    du: LaurentSeries | None
    modulus: Cut

    to_json = encode

    def __repr__(self):
        du = "" if self.du is None else f" + ({self.du})*du"
        return f"({self.dlog_t})*dlog t{du}  (mod {self.modulus!r})"


def refined_swan(ext):
    """The refined Swan conductor, the form
    dlog f = (t f'/f) dlog t + (f_u / f) du of the best representative
    f, whose pole order realises the Swan conductor, as its class modulo
    the comparison ideal: each coefficient truncated at the modulus, an
    integer cap <= swan, with no term at or above cap computed.  Both
    coefficients have valuation >= 0 and are known below prec + swan,
    past cap, as f's precision prec is at least 1.  Needs a positive
    Swan conductor.  Memoised on ``with_best_f()``, as ``inverse_f_best``
    is."""
    if ext.swan == 0:
        raise SwanZero("the refined invariant needs swan > 0")
    ext = ext.with_best_f()

    def make():
        f = ext.best.f_best
        inv_f = ext.inverse_f_best()
        modulus = rsw_modulus(ext)
        cap = int(modulus.value)
        du = None if f.field.is_finite else dot(((f.u_derivative(), inv_f),), cap)
        return LogForm(dot(((f.euler_derivative(), inv_f),), cap), du, modulus)

    return ext._memo("refined_swan", make)


def different_ideal(ext):
    """The different of B over A as a cut in v_K units.

    Under the trace the dual of alpha^i has valuation -(p-1-i)*n/p, so
    the inverse different is the sum of the t^(-e_i) times these duals,
    and the different is the cut at the largest e_i + (p-1-i)*n/p.
    Ferocious, every term is (p-1)*n/p, and the different is J^(p-1).
    """
    basis = integral_basis(ext)
    p, n = ext.p, basis.n
    return Cut.at_least(
        Fraction(max(p * e + (p - 1 - i) * n for i, e in enumerate(basis.e)), p), basis.group
    )


def trace_dual_cut(ext):
    """The different, measured as B inside its trace dual B*, read off
    the shape of B.

    The discriminant of B over A is the norm of the different (Serre,
    *Local Fields*, III §3); its valuation is the length of B*/B.  B is
    the direct sum of the A * alpha^k * t^(e_k), so disc(B/A) is
    t^(2 * sum e_k) times disc(A[alpha]/A) = +-N(F'(alpha)) for
    F = T^p - T - f, and F' = -1 makes that a unit (Serre, *Local
    Fields*, III §6, Cor. 2).  Taking norms scales cut values by p, so
    the different is the cut at 2 * sum e_k / p.
    """
    basis = integral_basis(ext)
    return Cut.at_least(Fraction(2 * sum(basis.e), ext.p), basis.group)


def boundary_generator(ext):
    """An integral b with sigma(b) - b of minimal valuation, so that its
    difference generates the difference ideal: the boundary generator of
    the coefficient ideal at ``i_star``, which is the unit
    alpha*t^(swan/p) when ferocious and alpha when unramified."""
    return ext.integral_generators()[integral_basis(ext).i_star]


class CheckResult(NamedTuple):
    """Verdict of an exact verifier, with its evidence."""

    name: str
    ok: bool
    detail: dict

    def __repr__(self):
        return f"CheckResult({self.name}: {'pass' if self.ok else 'FAIL'})"

    def to_json(self):
        return {"ok": self.ok, **encode(self.detail)}


def check_norm_ideal_identity(ext):
    """Exact comparison of the norm ideal of J with H, together with the
    generator identity: the norm of alpha is best f.

    alpha is a root of T^p - T - f, so N(alpha) = (-1)^(p+1) * f, which
    is f for every p (at p = 2, -1 = 1 in characteristic 2).  The check
    takes N(alpha) through the orbit chain (``ASExtension.norm_alpha``)
    and decides N(alpha) - f = 0 on its known range: ``generator_sign``
    is 1 when it is zero there and that range reaches t^0, else None.
    Called outside a report, on f known short of its principal part,
    N(alpha) may be known short of t^0, and the identity then fails
    with the sign None."""
    ext = ext.with_best_f()
    h = ideal_h(ext)
    nj = norm_of_j(ext)
    cuts_equal = h == nj
    gap = ext.norm_alpha() - ext.best.f_best
    sign = 1 if gap.is_zero_known() and gap.prec >= 1 else None
    ok = cuts_equal and sign is not None
    return CheckResult(
        "norm_ideal_identity",
        ok,
        {"h": h, "norm_of_j": nj, "generator_sign": sign},
    )


def check_refined_swan_stability(ext):
    """The form invariant is unchanged under f -> f + a^p - a for every
    a with v(a) >= lo = -floor((n - 1)/p), decided exactly on monomials.

    The invariant is the homomorphism h -> (h f) dlog f on H, so the
    two presentations are compared at the common test element 1/f: the
    candidate contributes (t dg/dt)/f dlog t + (dg/du)/f du, with the
    original f in the denominator on both sides.  Every such shift keeps
    the pole order n, as v(a^p - a) >= p*lo > -n.

    theta = t d/dt and d/du are additive and, in characteristic p, kill
    p-th powers, so the candidate differs from the base form by
    -theta(a)/f dlog t - d_u(a)/f du.  The modulus is an additive group,
    so every shift passes exactly when the parts a^p and -a of every
    monomial shift c*t^k, k >= lo, each give a difference in it (a
    monomial is itself a shift).  Membership in the modulus, a closed
    cut at the integer cap, reads only the exponents below cap, so the
    differences stop there, and the monomials run over lo <= k < cap:
    from k = cap on, a monomial's parts differ only at or above cap and
    are known at least as far as at cap - 1.  A nonzero constant of k
    does not move membership in a cut, so one monomial per face decides
    every c: theta(c*t^k) = c*theta(t^k) on dlog_t, and on du
    d_u(c*t^k) = c'*t^k, zero at c = 1, so t^k and u*t^k.  Their part -a
    is decided at every k.  The part a^p differs by zero, so it decides
    only how far the shift is known, below f's precision plus (p - 1)*k,
    and is decided at k = lo, where that is least; there it also fails
    if theta or d/du does not kill p-th powers.  The check reports the
    range [lo, cap] it decided, and on a failure the monomial, the part
    and the face (dlog_t or du) that broke.
    """
    if ext.swan == 0:
        raise SwanZero("stability concerns extensions with positive swan")
    p = ext.p
    n = int(ext.swan)
    field = ext.field
    prec = ext.best.f_best.prec
    base = refined_swan(ext)
    inv_f = ext.inverse_f_best()
    lo = -((n - 1) // p)  # least integer valuation with p*v > -n
    cap = int(base.modulus.value)
    faces = [("dlog_t", LaurentSeries.euler_derivative, 1)]
    if base.du is not None:
        faces.append(("du", LaurentSeries.u_derivative, field.generator()))
    decisions = [("a^p", lo, face) for face in faces]
    decisions += [("-a", k, face) for k in range(lo, cap) for face in faces]
    for part, k, (face, derivative, c) in decisions:
        a = LaurentSeries.monomial(field, k, c, prec)
        shift = a ** p if part == "a^p" else -a
        if not series_in_cut(dot(((derivative(shift), inv_f),), cap), base.modulus):
            return CheckResult(
                "refined_swan_stability", False, {"shift": str(a), "part": part, "face": face},
            )
    return CheckResult("refined_swan_stability", True, {"shifts": [lo, cap]})


def check_norm_additivity(ext):
    """The norm is additive on B modulo the contraction b = I_sigma & A
    of the difference ideal, decided exactly on the traces of the
    generators g_k = alpha^k * t^(e_k) of B.

    N(x + y) - N(x) - N(y) lies in b for all x, y in B exactly when
    Tr(B) does.  In N(x + y) = prod_g (g(x) + g(y)) over g in <sigma>,
    the mixed terms prod_(g in S) g(x) * prod_(g not in S) g(y), over
    the nonempty proper subsets S, fall into translation orbits of size
    p, and each orbit sums to Tr(z_S) with z_S in B.  Conversely, for
    y = c in F_p^x, N(x + c) - N(x) - c^p = sum_(0<k<p) c^(p-k) e_k(x)
    with e_k the elementary symmetric functions of the conjugates of x;
    over the p - 1 constants this Vandermonde system has a unit
    determinant, so e_1(x) = Tr(x) lies in b.  Tr(B) is the A-span of
    the Tr(g_k) (Serre, *Local Fields*, III §3), and Tr(alpha^k) is 0
    for k < p - 1 and -1 at p - 1 (``LElement.trace``), so Tr(B) is
    t^(e_(p-1)) * A, the top cut of the shape of B, and is read there.
    The check passes when Tr(B) lies in b, and reports b and Tr(B)."""
    bound = restrict_cut(ideal_i_sigma(ext), Z_GROUP)
    trace = integral_basis(ext).cuts[-1]
    return CheckResult("norm_additivity", trace.subset_of(bound), {"bound": bound, "trace": trace})


def check_diagram_commutativity(ext):
    """Both compositions around the square agree on every integral b:
    the normed logarithmic class of b matches the differential-form
    class of its norm, modulo the squared ideals.  Decided exactly at
    b = 1.

    The logarithmic generator is sigma(alpha)/alpha - 1 = 1/alpha
    (Serre, *Local Fields*, IV §1), so at b the norm face compares
    N(b/alpha) = N(b) * N(1/alpha) with N(b)/f modulo H^2, and the form
    faces read (N(b/alpha) * f - N(b)) = N(b) * (N(1/alpha) * f - 1)
    times dlog f, and times the du part, modulo the form's modulus.
    Each face is N(b) times its value at b = 1, and v(N(b)) >= 0 on B,
    so each holds for every b in B exactly when it holds at b = 1:
    N(1/alpha) - 1/f in H^2, and (N(1/alpha) * f - 1) * dlog f in the
    modulus.  The norm is multiplicative, N(alpha) * N(1/alpha) =
    N(1) = 1 (Serre, *Local Fields*, III §3), so N(1/alpha) is read as
    1/N(alpha), from the memo ``check_norm_ideal_identity`` reads, and
    N(1/alpha) * f - 1 as (f - N(alpha)) * N(1/alpha), a product by a
    series that is zero wherever the identity N(alpha) = f holds.
    N(alpha) known below t^1 makes 1/N(alpha) known below 2 * swan + 1
    and that product below swan + 1, past every point the faces read;
    known short of t^1, which only a presentation outside a report can
    give, the check raises InsufficientPrecision.  Membership in H^2 and
    in the modulus, closed cuts at integers, reads only the exponents
    below them, so the norm face subtracts below 2 * swan and the form
    faces stop at the modulus.  N(alpha) zero through t^0, where f has
    its pole, fails the norm face without inverting it.  The check
    reports H^2 and the modulus, and on a failure the first face that
    broke."""
    ext = integral_basis(ext).ext
    form = refined_swan(ext)
    norm = ext.norm_alpha()
    if norm.prec < 1:
        raise InsufficientPrecision(
            f"the diagram check needs N(alpha) known through t^0, known below t^{norm.prec}"
        )
    least = 2 * ext.swan
    h_squared = Cut.at_least(least, Z_GROUP)
    detail = {"h_squared": h_squared, "modulus": form.modulus}
    if norm.is_zero_known():
        detail["face"] = "norm"
        return CheckResult("diagram_commutativity", False, detail)
    inverse_norm = norm.inverse()
    norm_face = inverse_norm.truncate(least) - ext.inverse_f_best().truncate(least)
    if not series_in_cut(norm_face, h_squared):
        detail["face"] = "norm"
    else:
        scalar = (ext.best.f_best - norm) * inverse_norm
        cap = int(form.modulus.value)
        for face, part in (("dlog_t", form.dlog_t), ("du", form.du)):
            if part is not None and not series_in_cut(dot(((scalar, part),), cap), form.modulus):
                detail["face"] = face
                break
    return CheckResult("diagram_commutativity", "face" not in detail, detail)


def check_difference_product_rules(ext):
    """The two congruences behind the logarithmic comparison maps,
    decided exactly on the generators g_k of B.

    Both rules are ring identities up to one product:
    sigma(bc) - bc - c(sigma(b) - b) - b(sigma(c) - c) is
    (sigma(b) - b)(sigma(c) - c), and sigma(xy)/(xy) - 1 - (u - 1) - (w - 1)
    is (u - 1)(w - 1) with u = sigma(x)/x and w = sigma(y)/y.  So the
    additive rule holds modulo I_sigma^2 for every b, c in B exactly when
    min_k v(sigma(g_k) - g_k) >= i_sigma, and the multiplicative rule
    modulo J^2 for every x, y in L^x exactly when
    min_k (v(sigma(g_k) - g_k) - v(g_k)) >= j.  As sigma fixes K, for
    x = sum_k a_k g_k with a_k in K (in A when x is in B),
    v(sigma(x) - x) >= min_k (v(a_k) + v(sigma(g_k) - g_k)), and the
    minimum is attained at a generator; as v(x) = min_k v(a_k g_k) in
    the reduced presentation, v(sigma(x)/x - 1) is bounded alike by the
    least generator ratio (Serre, *Local Fields*, IV §1:
    i_G(sigma) = v_L(sigma(x) - x) for a generator x of B).

    The check passes when the generators' cuts equal ``ideal_i_sigma``
    and ``ideal_j``, which is two-sided.  Generator 0 lies in K, so
    sigma fixes it and it is skipped; a difference of any other
    generator that is zero on its known range cannot be read, which
    raises InsufficientPrecision."""
    gens = ext.integral_generators()
    group = value_group_of_l(ext)
    diffs = []
    for g in gens[1:]:
        d = g.difference()
        if d.is_zero_known():
            raise InsufficientPrecision(
                "a generator's difference sigma(g) - g is zero on its known range"
            )
        v = d.valuation_coeffwise()
        diffs.append((v, v - g.valuation_coeffwise()))
    i_cut = ideal_i_sigma(ext)
    j_cut = ideal_j(ext)
    i_gen = Cut.at_least(min(v for v, _ in diffs), group)
    j_gen = Cut.at_least(min(w for _, w in diffs), group)
    return CheckResult(
        "difference_product_rules",
        i_gen == i_cut and j_gen == j_cut,
        {
            "i_sigma": i_cut, "i_sigma_generators": i_gen,
            "j_sigma": j_cut, "j_sigma_generators": j_gen,
        },
    )


def principality_chain(ext):
    """The four flags of the equivalence chain for an extension of
    k((t)), each read off computed data: a best representative exists
    when reducing f_best again changes nothing, H and J are principal,
    and the extension is defectless when H is closed: v(f) attains its
    bound (Kuhlmann's criterion, the tower's too).  Over k((t)) the
    fundamental equality e * f = p makes every extension defectless.
    A trivial extension raises TrivialExtension from ``ideal_h``.  The
    defect tower has its own chain, ``tower.principality_chain``.
    """
    h = ideal_h(ext)
    f_best = ext.best.f_best
    return {
        "best_f_exists": reduce_to_best(f_best).f_best is f_best,
        "h_principal": h.is_principal(),
        "j_principal": ideal_j(ext).is_principal(),
        "defectless": h.closed,
    }


class InvariantReport(NamedTuple):
    """The full invariant bundle for one extension; the ideals, the
    form and the Lefschetz values are None where they are undefined."""

    swan: Fraction
    case: BestCase
    classification: RamificationType
    checks: dict
    e: int = 1
    f_inertia: int = 1
    defect: int = 1
    i_sigma: Cut | None = None
    j_sigma: Cut | None = None
    h: Cut | None = None
    n_of_j: Cut | None = None
    rsw: LogForm | None = None
    different: Cut | None = None
    i_lefschetz: Fraction | None = None
    j_lefschetz: Fraction | None = None

    to_json = encode

    def all_checks_pass(self):
        return all(c.ok for c in self.checks.values())


def working_precision(swan):
    """The precision W = swan + 1 of a report's ``principal_part``.  Its
    terms are exact, so W is set by the furthest point a report reads,
    not by the precision f is given to.  With n = swan:

    - the norm-ideal identity reads N(alpha) - f through t^0, and the
      diagram reads N(alpha) there too, as 1/N(alpha) below
      H^2 = {v >= 2n} and (f - N(alpha))/N(alpha) below the modulus.
      The orbit chain knows N(alpha) below W - n, so W >= n + 1
      suffices, and 1/N(alpha) is then known below W + n;
    - the refined form and the stability check stop at the modulus, an
      integer at most n: the form is known below W + n, and each shift's
      difference below more than W, as n + (p - 1) * lo > 0 for the
      least valuation lo = -floor((n - 1)/p) of a shift;
    - the product rules read v(sigma(g_i) - g_i) for the generators
      g_i = alpha^i * t^(e_i).  Its coordinate i is zero, known below
      max(W, e_i + 1), and must bound that valuation past its least
      term, e_i - (i - 1) * n/p: it must be known to e_i + n/p.  Wild,
      e_i = floor(i * n/p) + 1, and at i = p - 1 that point lies
      strictly between n and n + 1, past e_i + 1 when n > p; ferocious
      and unramified, e_i = i * n/p, and it is at most n.

    So W = n + 1 clears every reader.  The norm checks need all of it,
    and so does the product rule of a wild extension with swan > p.
    """
    return int(swan) + 1


def principal_part(ext):
    """The extension presented by the terms of exponent <= 0 of f_best,
    known below ``working_precision``: the one presentation every report
    of a nontrivial extension reads, memoised on ``ext``.

    Each term c*t^k with k > 0 lies in the image of x -> x^p - x on
    A = k[[t]]: h = -sum_(j >= 0) (c*t^k)^(p^j) converges in A, and
    h^p - h = c*t^k.  So the principal part presents the same extension
    as f, whatever f's tail and its precision (at least 1, which
    ``reduce_to_best`` needs to know every term below t^1).  It is
    already reduced, and nonzero: a ramified f_best has a pole, an
    unramified one a constant outside the image.
    """
    def make():
        w = working_precision(ext.swan)
        terms = {e: c for e, c in ext.best.f_best.coeffs.items() if e <= 0}
        return ASExtension(ext.field, LaurentSeries(ext.field, terms, w))

    return ext._memo("principal_part", make)


def build_report(ext):
    """Assemble the invariant bundle of the extension and run the
    verifiers on it, all on its ``principal_part``: a report depends on
    the extension, not on the precision f is given to."""
    kind = ext.classification()
    checks = {}
    report = InvariantReport(ext.best.swan, ext.best.case, kind, checks)
    if kind is RamificationType.TRIVIAL:
        return report
    ext = principal_part(ext)
    # e is the index of K's value group in L's, and f = p / e
    e = value_group_of_l(ext).granularity.denominator
    i_cut = ideal_i_sigma(ext)
    j_cut = ideal_j(ext)
    # an unramified extension has swan 0 and no refined form; it runs
    # the norm checks only
    ramified = ext.swan > 0
    report = report._replace(
        e=e, f_inertia=ext.p // e,
        i_sigma=i_cut, j_sigma=j_cut,
        h=ideal_h(ext), n_of_j=norm_of_j(ext),
        rsw=refined_swan(ext) if ramified else None, different=different_ideal(ext),
        i_lefschetz=i_cut.value, j_lefschetz=j_cut.value,
    )
    checks["norm_ideal_identity"] = check_norm_ideal_identity(ext)
    if ramified:
        checks["refined_swan_stability"] = check_refined_swan_stability(ext)
    checks["norm_additivity"] = check_norm_additivity(ext)
    if ramified:
        checks["diagram_commutativity"] = check_diagram_commutativity(ext)
        checks["difference_product_rules"] = check_difference_product_rules(ext)
        oracle = trace_dual_cut(ext)
        checks["different_vs_trace_dual"] = CheckResult(
            "different_vs_trace_dual",
            oracle == report.different,
            {"different": report.different, "oracle": oracle},
        )
    return report
