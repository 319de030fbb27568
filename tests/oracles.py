"""Test oracles: brute-force and sampling checks that the library does
not use, kept beside the tests that compare the library against them."""

import itertools
import math
import random
from fractions import Fraction

from ramify.errors import (
    DivisionByZero,
    FieldMismatch,
    InsufficientPrecision,
    InvalidSpec,
    RamifyError,
    SwanZero,
    ZeroSeries,
)
from ramify.extension import (
    DifferenceOperators,
    LElement,
    _laplace,
    integral_basis,
    reduce_to_best,
)
from ramify.fields import _padd, _pgcd, _pmul, _ppow_mod, _prime_divisors, _psub, _trim
from ramify.invariants import (
    Z_GROUP,
    CheckResult,
    _require_samples,
    _sampled,
    boundary_generator,
    build_report,
    ideal_i_sigma,
    refined_swan,
)
from ramify.series import (
    Cut,
    LaurentSeries,
    ValueGroup,
    dot,
    random_series,
    restrict_cut,
    series_in_cut,
)


def tree_evaluate(expr, env, field):
    """The value of an ``Expr`` by walking its tree with element
    arithmetic at every node, independent of the compiled evaluator."""
    if expr.op == "const":
        v = expr.payload
        if isinstance(v, int):
            return field.from_int(v)
        if v.field is not field:
            raise FieldMismatch("constant from a different field")
        return v
    if expr.op == "var":
        return env[expr.payload]
    vals = [tree_evaluate(a, env, field) for a in expr.args]
    if expr.op == "add":
        return vals[0] + vals[1]
    if expr.op == "sub":
        return vals[0] - vals[1]
    if expr.op == "mul":
        return vals[0] * vals[1]
    if expr.op == "div":
        if vals[1].is_zero():
            raise DivisionByZero("expression denominator vanished")
        return vals[0] / vals[1]
    if expr.op == "pow":
        return vals[0] ** expr.payload
    if expr.op == "neg":
        return -vals[0]
    raise InvalidSpec(f"unknown node {expr.op!r}")


def exhaustive_identity(lhs, rhs, field):
    """Check an identity on every point of a finite field."""
    names = sorted(lhs.variables() | rhs.variables())
    for point in itertools.product(field.elements(), repeat=len(names)):
        env = dict(zip(names, point))
        try:
            a = tree_evaluate(lhs, env, field)
            b = tree_evaluate(rhs, env, field)
        except DivisionByZero:
            continue
        if a != b:
            return False
    return True


def geometric_inverse(s):
    """1/s as the geometric sum 1 - r + r^2 - ... for
    s = lead*t^v*(1 + r), one truncated series product per term: the
    value and ``prec`` that ``LaurentSeries.inverse``'s one-pass
    recurrence must reproduce."""
    if s.is_zero_known():
        raise ZeroSeries(f"no known nonzero coefficient (prec {s.prec})")
    v, lead = s.leading()
    unit_prec = s.prec - v
    lead_inv = lead.inverse()
    r = s.scale(lead_inv).shift(-v) - 1
    inv_unit = term = LaurentSeries.one(s.field, unit_prec)
    while True:
        term = (term * -r).truncate(unit_prec)
        if term.is_zero_known():
            break
        inv_unit = inv_unit + term
    return inv_unit.scale(lead_inv).shift(-v)


def series_is_integral(s):
    """No pole on the known range; needs the full negative range known."""
    if any(e < 0 for e in s.coeffs):
        return False
    if s.prec < 0:
        raise InsufficientPrecision(
            f"integrality needs precision >= 0, series known below t^{s.prec}"
        )
    return True


def is_integral(x):
    """Whether the element x of L is integral: v_L(x) >= 0 through the
    norm, or coefficientwise when the norm lacks precision."""
    try:
        return x.valuation() >= 0
    except InsufficientPrecision:
        if x._coeffwise_valid():
            return x.valuation_coeffwise() >= 0
        raise


def difference_loop(den_inv, i, x):
    """D_i(x) by its own loop of i sigma-steps from x, independent of
    ``DifferenceOperators.chain``, with ``den_inv[j]`` the inverse of the
    j-th denominator."""
    cur = x
    for j in range(1, i + 1):
        diff = cur.sigma(1) - cur
        cur = diff * den_inv[j]
    return cur


def difference_denominators(ext, b):
    """The cached 1/(s-1)(D_{i-1}(b^i)) of ``DifferenceOperators(ext, b)``,
    built through ``difference_loop``."""
    den_inv = [None]
    powers = b.powers(ext.p - 1)
    for i in range(1, ext.p):
        num = difference_loop(den_inv, i - 1, powers[i])
        den_inv.append((num.sigma(1) - num).inverse())
    return den_inv


def sigma_loop(x, k=1):
    """sigma_k(x) as a chain of series ``scale`` and ``+``, one binomial
    term at a time."""
    ext = x.ext
    p, field = ext.p, ext.field
    k %= p
    if k == 0:
        return x
    out = [None] * p
    for i, ci in enumerate(x.coeffs):
        for j in range(i + 1):
            term = ci.scale(field.from_int(math.comb(i, j) * pow(k, i - j, p)))
            out[j] = term if out[j] is None else out[j] + term
    return LElement(ext, tuple(out))


def trace_of_product(x, g):
    """(x * g).trace() from the one coordinate it reads: the products of
    x's last column entries with g's coordinates, as coordinate p-1 of
    the product has them."""
    return -dot([(col[-1], c) for col, c in zip(x.columns(), g.coeffs)])


# -- the Gram determinant of the trace form ---------------------------------------
# ``invariants.trace_dual_cut`` as it was before it read the discriminant off
# the shape of B: one Laplace expansion of the Gram matrix Tr(g_k * g_j).


def generator_traces(ext):
    """T[k][m] = Tr(alpha^m * g_k) for 0 <= m <= p - 1 and the generators
    g_k of ``ext.integral_generators()``: Tr x is minus x's last
    coordinate, read off each column g_k * alpha^m of ``g_k.columns()``."""
    return [[-col[-1] for col in g.columns()] for g in ext.integral_generators()]


def gram_trace_dual_cut(ext):
    """The different, measured as B inside its trace dual B*.

    The discriminant of B over A is the norm of the different (Serre,
    *Local Fields*, III §3); its valuation is the length of B*/B.  It is
    the determinant of the Gram matrix Tr(g_k * g_j) of the generators
    g_k = alpha^k * t^(e_k) of B, whose entry (k, j) is T[k][j] of
    ``generator_traces`` shifted by e_j, and taking norms scales cut
    values by p.  Tr(alpha^m) is 0 for m < p - 1 and -1 at p - 1, so the
    matrix is anti-triangular and its determinant is +-t^(2 * sum e_k)
    on its known range; the one Laplace expansion still reads the
    ``mul_alpha`` chain and the table's zeros with their ``prec``.
    """
    basis = integral_basis(ext)
    table = generator_traces(basis.ext)
    cols = [
        [row[j].shift(e) for row in table]
        for j, e in enumerate(int(cut.value) for cut in basis.cuts)
    ]
    return Cut.at_least(_laplace(cols)[0].valuation() / ext.p, basis.group)


# perturbations per scanned valuation in the trace-dual scans
TRACE_DUAL_PERTURBATIONS = 2


def walked_traces(ext, length):
    """T[k][m] = Tr(alpha^m * g_k) for 0 <= m < ``length``, walked one
    ``mul_alpha`` step at a time from each generator g_k of
    ``ext.integral_generators()``.  At length p this is the walk
    ``generator_traces`` made before it read ``g_k.columns()``."""
    rows = []
    for g in ext.integral_generators():
        row = [g.trace()]
        for _ in range(length - 1):
            g = g.mul_alpha()
            row.append(g.trace())
        rows.append(row)
    return rows


def scan_traces(ext):
    """T[k][m] = Tr(alpha^m * g_k) for 0 <= m <= 2p - 2, the range a
    perturbed candidate reads."""
    return walked_traces(ext, 2 * ext.p - 1)


def candidate_traces(table, r, s, bump=None):
    """Tr(x * g_k) for each row k of ``scan_traces``, lazily, for
    x = t^s * alpha^r, times (1 + t * bump) when a ``bump`` in L is given."""
    for row in table:
        tr = row[r].shift(s)
        if bump is not None:
            tr = tr + dot([(row[r + i], c) for i, c in enumerate(bump.coeffs)]).shift(s + 1)
        yield tr


def table_trace_dual_cut(ext, seed=0):
    """Brute-force inverse different, inverted: the reference for the
    cut ``invariants.trace_dual_cut`` reads off the discriminant.

    The inverse different is the trace dual of B (Serre, *Local Fields*,
    III §3).  Scans candidate valuations on the value-group grid from
    below and returns the smallest w such that t^s * alpha^r of
    valuation w has integral traces against every boundary generator
    g_k of B.  Sampled perturbations double-check that the verdict
    depends on the valuation only.

    The trace is K-linear, so every trace read is a t-shift and a
    combination of the table T[k][m] = Tr(alpha^m * g_k), built once
    per call (``scan_traces``): T[k][r] shifted by s for the
    candidate, plus sum_i T[k][r+i] * bump_i shifted by s + 1 for a
    perturbation (``candidate_traces``); no element of L is built per
    candidate.
    """
    basis = integral_basis(ext)
    ext = basis.ext
    rng = random.Random(seed)
    p = ext.p
    n = int(ext.swan)
    v0 = ext.swan / p
    table = scan_traces(ext)
    integral = Cut.at_least(0, Z_GROUP)

    def admissible(traces):
        return all(series_in_cut(tr, integral) for tr in traces)

    step = basis.group.granularity
    lo = -Fraction(p - 1) * (n + p) / p - 1
    w = math.floor(lo / step) * step
    first_pass = None
    while w <= 1:
        # t^s * alpha^r with s - r*swan/p = w, for the least r making s integral
        r = next(r for r in range(p) if (w + r * v0).denominator == 1)
        s = int(w + r * v0)
        ok = admissible(candidate_traces(table, r, s))
        for _ in range(TRACE_DUAL_PERTURBATIONS):
            bump = integral_sample(ext, rng, span=1, terms=1)
            if admissible(candidate_traces(table, r, s, bump)) != ok:
                raise RamifyError(
                    "trace-dual verdict changed under a higher-valuation perturbation"
                )
        if ok and first_pass is None:
            first_pass = w
        if not ok and first_pass is not None:
            raise RamifyError("trace-dual membership was not monotone in valuation")
        w += step
    if first_pass is None:
        raise RamifyError("no admissible valuation found on the scanned grid")
    return Cut.at_least(first_pass, basis.group).inverse()


def element_trace_dual_cut(ext, seed=0, log=None):
    """``table_trace_dual_cut`` with every candidate and perturbation
    built as an element of L and multiplied out against each generator.
    With a ``log`` list, appends (r, s, bump, x) for every element x
    whose traces are read, bump None for the unperturbed candidate."""
    basis = integral_basis(ext)
    ext = basis.ext
    rng = random.Random(seed)
    p = ext.p
    n = int(ext.swan)
    v0 = ext.swan / p
    gens = ext.integral_generators()
    field = ext.field
    prec = ext.f.prec
    integral = Cut.at_least(0, Z_GROUP)

    def admissible(x):
        return all(series_in_cut(trace_of_product(x, g), integral) for g in gens)

    step = basis.group.granularity
    lo = -Fraction(p - 1) * (n + p) / p - 1
    w = math.floor(lo / step) * step
    first_pass = None
    while w <= 1:
        r = next(r for r in range(p) if (w + r * v0).denominator == 1)
        s = int(w + r * v0)
        base = ext.alpha_power(r) * LaurentSeries.monomial(field, s, 1, prec)
        if log is not None:
            log.append((r, s, None, base))
        ok = admissible(base)
        for _ in range(TRACE_DUAL_PERTURBATIONS):
            bump = integral_sample(ext, rng, span=1, terms=1)
            t1 = LaurentSeries.monomial(field, 1, 1, prec)
            perturbed = base + base * (bump * t1)
            if log is not None:
                log.append((r, s, bump, perturbed))
            if admissible(perturbed) != ok:
                raise RamifyError(
                    "trace-dual verdict changed under a higher-valuation perturbation"
                )
        if ok and first_pass is None:
            first_pass = w
        if not ok and first_pass is not None:
            raise RamifyError("trace-dual membership was not monotone in valuation")
        w += step
    if first_pass is None:
        raise RamifyError("no admissible valuation found on the scanned grid")
    return Cut.at_least(first_pass, basis.group).inverse()


def lefschetz_minimum(ext, samples=40, seed=0):
    """Sampling oracle for i_sigma: min of v_L(sigma(b) - b) over random
    integral b, seeded with the boundary generators themselves."""
    ext = integral_basis(ext).ext
    rng = random.Random(seed)
    best = None
    pool = list(ext.integral_generators())
    pool += [integral_sample(ext, rng) for _ in range(samples)]
    for b in pool:
        diff = b.sigma(1) - b
        if diff.is_zero_known():
            continue
        v = diff.valuation_coeffwise()
        if best is None or v < best:
            best = v
    return best


# -- integral samples --------------------------------------------------------------
# ``extension.integral_sample`` as it was when selftest criterion 8 drew
# its product-rule samples from it; the tests and oracles still draw from it.


def integral_sample(ext, rng, span=2, terms=2):
    """A random integral element of the reduced presentation, built
    from the shape of B: the extension is that of the generators
    ``ext.integral_generators()`` it draws from.

    Each generator draws up to ``terms`` monomials t^e (0 <= e <=
    ``span``) into a series s known below f's precision; coordinate j
    of the sample is one ``dot`` of the pairs (g_j, s), which is the
    chain ``g0*s0 + g1*s1 + ...`` in value and ``prec``.  A sample that
    is zero on its known range is replaced by one generator drawn at
    random.  A draw whose products all lie at or above f's precision
    is kept when its coordinates are known far enough to show one of
    them; a start bound at f's precision would have replaced it.  That
    happens only when f's precision is within reach of the drawn
    exponents, as at ``--prec`` 1 or 2."""
    gens = ext.integral_generators()
    ext = gens[0].ext
    field = ext.field
    prec = ext.f.prec
    drawn = []
    for g in gens:
        picks = {}
        for _ in range(terms):
            e = rng.randrange(0, span + 1)
            c = field.sample_point(rng, max_degree=1)
            if not c.is_zero():
                picks[e] = c
        if picks:
            drawn.append((g, LaurentSeries(field, picks, prec)))
    if drawn:
        x = LElement(ext, tuple(
            dot([(g.coeffs[j], s) for g, s in drawn]) for j in range(ext.p)
        ))
        if not x.is_zero_known():
            return x
    return gens[rng.randrange(len(gens))]


# -- unit samples ------------------------------------------------------------------
# ``extension.unit_sample`` as it was when the sampled product rules drew
# their units from it; the inverse and norm tests still draw from it.

# a unit sample is an integral sample of this span times t^s, |s| <= UNIT_SPAN
UNIT_SPAN = 2


def unit_sample(ext, rng):
    """A random element of L^x (nonzero on the known range), in the
    reduced presentation."""
    x = integral_sample(ext, rng, span=UNIT_SPAN)
    ext = x.ext
    shift = rng.randrange(-UNIT_SPAN, UNIT_SPAN + 1)
    g = LaurentSeries.monomial(ext.field, shift, 1, ext.f.prec)
    out = x * g
    if out.is_zero_known():
        return ext.alpha()
    return out

# -- cuts before their canonical form ------------------------------------------


def least_element_above(group, value):
    """Smallest element of the discrete group strictly greater than value."""
    g = group.granularity
    q = value / g
    n = q.numerator // q.denominator  # floor
    return g * (n + 1)


def least_element_at_least(group, value):
    if group.contains(value):
        return Fraction(value)
    return least_element_above(group, value)


class OpenOnlyCut:
    """A cut as it was stored before every discrete cut became canonical:
    an open cut over a discrete group is closed at the next group
    element, but a closed cut keeps a value outside the group until
    ``normalize`` lifts it."""

    def __init__(self, value, closed, group):
        value = Fraction(value)
        if group.kind == ValueGroup.DISCRETE and not closed:
            value = least_element_above(group, value)
            closed = True
        self.value = value
        self.closed = closed
        self.group = group

    def normalize(self):
        if self.group.kind == ValueGroup.DISCRETE and self.closed:
            lifted = least_element_at_least(self.group, self.value)
            if lifted != self.value:
                return OpenOnlyCut(lifted, True, self.group)
        return self

    def is_principal(self):
        return self.closed and self.group.contains(self.value)

    def contains(self, value):
        if self.closed:
            return value >= self.value
        return value > self.value

    def __repr__(self):
        op = ">=" if self.closed else ">"
        return f"{{v {op} {self.value}}}"


def floor_series_in_cut(s, cut):
    """``series.series_in_cut`` as it read the cut: every exponent tested
    with ``cut.contains``, then the top excluded exponent by floors."""
    for e in s.coeffs:
        if not cut.contains(e):
            return False
    v = cut.value
    if cut.closed:
        # excluded integer exponents are those < value
        top_excluded = v.numerator // v.denominator  # floor
        if top_excluded == v:
            top_excluded -= 1
    else:
        top_excluded = v.numerator // v.denominator
    if s.prec <= top_excluded:
        raise InsufficientPrecision(
            f"membership in {cut!r} needs knowledge below t^{top_excluded + 1}, "
            f"series known below t^{s.prec}"
        )
    return True


# -- L-arithmetic with f's precision as a start bound ----------------------------
# ``LElement.__mul__``, ``LElement.sigma`` and ``integral_sample`` above
# as they were when every product coordinate and every sample coordinate
# started at f's precision, and every coordinate of a conjugate was known
# below the least precision of all of x's coordinates.


def capped_lmul(x, y):
    """x * y with each coordinate cut at f's precision."""
    cols = x.columns()
    return LElement(x.ext, tuple(
        dot([(col[j], c) for col, c in zip(cols, y.coeffs)]).truncate(x.ext.f.prec)
        for j in range(x.ext.p)
    ))


def capped_sigma(x, k=1):
    """sigma_k(x) with every coordinate cut at the least precision of x's
    coordinates."""
    if k % x.ext.p == 0:
        return x
    prec = min(c.prec for c in x.coeffs)
    return LElement(x.ext, tuple(c.truncate(prec) for c in sigma_loop(x, k).coeffs))


def capped_integral_sample(ext, rng, span=2, terms=2):
    """``integral_sample`` with each coordinate cut at f's precision, so
    that a draw whose products all lie at or above it falls back to a
    generator.  Also says whether the result is that fallback."""
    gens = ext.integral_generators()
    ext = gens[0].ext
    field = ext.field
    prec = ext.f.prec
    drawn = []
    for g in gens:
        picks = {}
        for _ in range(terms):
            e = rng.randrange(0, span + 1)
            c = field.sample_point(rng, max_degree=1)
            if not c.is_zero():
                picks[e] = c
        if picks:
            drawn.append((g, LaurentSeries(field, picks, prec)))
    if drawn:
        x = LElement(ext, tuple(
            dot([(g.coeffs[j], s) for g, s in drawn]).truncate(prec) for j in range(ext.p)
        ))
        if not x.is_zero_known():
            return x, False
    return gens[rng.randrange(len(gens))], True


# -- generators of B before the one formula -------------------------------------


def per_kind_generators(basis):
    """The generators of B as they were built per shape: wild,
    alpha^i * t^(A_i); ferocious and unramified, the powers (alpha*gamma)^i
    of the unit alpha*gamma with gamma = t^(swan/p), along one chain of
    products cut at f's precision (``capped_lmul``).  Each monomial is
    known below f's precision, so it is zero when its exponent is not
    below that."""
    ext = basis.ext
    if basis.kind == "wild":
        return [
            ext.alpha_power(i) * LaurentSeries.monomial(ext.field, int(cut.value), 1, ext.f.prec)
            for i, cut in enumerate(basis.cuts)
        ]
    gamma = LaurentSeries.monomial(ext.field, int(ext.swan / ext.p), 1, ext.f.prec)
    chain = [ext.one(), ext.alpha() * gamma]
    while len(chain) < ext.p:
        chain.append(capped_lmul(chain[-1], chain[1]))
    return chain


# -- F_p(u) fractions, with polynomial arithmetic of their own ------------------
# Polynomials are tuples of ints mod p, lowest degree first, trimmed.


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(c % p for c in out)


def poly_gcd(a, b, p):
    """The monic gcd of a and b by Euclid; () when both are zero."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        r, inv = list(a), pow(b[-1], -1, p)
        while len(r) >= len(b):
            c, shift = r[-1] * inv % p, len(r) - len(b)
            for j, y in enumerate(b):
                r[shift + j] = (r[shift + j] - c * y) % p
            r = list(_trimmed(r))
        a, b = b, tuple(r)
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def fpu_denominators(p):
    """(den, radical) pairs of monic denominators with shared and repeated
    factors: 1, u, u+1, (u+1)^2, u^2(u+1) and an irreducible quadratic."""
    quad = {2: (1, 1, 1), 3: (1, 0, 1), 5: (2, 0, 1)}[p]
    u, u1 = (0, 1), (1, 1)
    return (
        ((1,), (1,)),
        (u, u),
        (u1, u1),
        ((1, 2 % p, 1), u1),
        ((0, 0, 1, 1), (0, 1, 1)),
        (quad, quad),
    )


def coprime_numerator(c, radical, s, p):
    """c + radical*s for a unit c: coprime to every denominator whose
    radical is ``radical``, since it is c modulo each prime factor."""
    out = list(poly_mul(radical, tuple(s), p)) or [0]
    out[0] = (out[0] + c) % p
    return _trimmed(out)


def assert_canonical(elem):
    """Lowest terms with a monic denominator, and zero as 0/1."""
    p, num, den = elem.field.p, elem._a, elem._b
    assert den == _trimmed(den) and den[-1] == 1
    assert num == _trimmed(num)
    if not num:
        assert den == (1,)
    else:
        assert poly_gcd(num, den, p) == (1,)


# -- F_p(u) reduction by Euclid, before the coprime base -------------------------
# ``FieldSpec._rat`` and the F_p(u) branches of ``ResidueElem.__add__`` and
# ``__mul__`` as they were, on (num, den) pairs, with the long division
# ``_pdivmod`` was before it divided by linear polynomials synthetically.

_ONE = (1,)


def long_divmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    if len(rem) < len(b):
        return (), _trim(rem)
    quot = [0] * (len(rem) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        c = (rem[i + len(b) - 1] * inv_lead) % p
        if c:
            quot[i] = c
            for j, cb in enumerate(b):
                rem[i + j] = (rem[i + j] - c * cb) % p
    return _trim(quot), _trim(rem)


def euclid_cancel(a, b, p):
    """(a/g, b/g) for the monic g = gcd(a, b); b is nonzero."""
    g = _pgcd(a, b, p)
    if len(g) > 1:
        return long_divmod(a, g, p)[0], long_divmod(b, g, p)[0]
    return a, b


def euclid_rat(p, num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return (), _ONE
    if len(den) > 1:
        num, den = euclid_cancel(num, den, p)
    if den[-1] != 1:
        inv = pow(den[-1], -1, p)
        num = tuple((c * inv) % p for c in num)
        den = tuple((c * inv) % p for c in den)
    return num, den if len(den) > 1 else _ONE


def henrici_add(p, x, y):
    (a, da), (b, db) = x, y
    if da == _ONE:
        if db == _ONE:
            return _padd(a, b, p), _ONE
        return _padd(_pmul(a, db, p), b, p), db
    if db == _ONE:
        return _padd(a, _pmul(b, da, p), p), da
    g = _pgcd(da, db, p)
    if len(g) == 1:
        return _padd(_pmul(a, db, p), _pmul(b, da, p), p), _pmul(da, db, p)
    da = long_divmod(da, g, p)[0]
    t = _padd(_pmul(a, long_divmod(db, g, p)[0], p), _pmul(b, da, p), p)
    if not t:
        return (), _ONE
    h = _pgcd(t, g, p)
    if len(h) > 1:
        t, db = long_divmod(t, h, p)[0], long_divmod(db, h, p)[0]
    return t, _pmul(da, db, p)


def henrici_mul(p, x, y):
    (a, da), (b, db) = x, y
    if not a or not b:
        return (), _ONE
    if db != _ONE:
        a, db = euclid_cancel(a, db, p)
    if da != _ONE:
        b, da = euclid_cancel(b, da, p)
    den = db if da == _ONE else da if db == _ONE else _pmul(da, db, p)
    return _pmul(a, b, p), den


def assert_base_consistent(field, elems=()):
    """The coprime base of ``field`` is monic, squarefree and pairwise
    coprime, and every element of ``elems`` whose cached vector is current
    multiplies back to its denominator."""
    p, base = field.p, field._base
    polys = base.polys
    for i, b in enumerate(polys):
        assert len(b) > 1 and b[-1] == 1 and b == _trimmed(b)
        deriv = _trimmed((k * c) % p for k, c in enumerate(b))[1:]
        assert deriv and poly_gcd(b, deriv, p) == (1,)
        for c in polys[i + 1:]:
            assert poly_gcd(b, c, p) == (1,)
    for x in elems:
        cached = x._v
        if cached is not None and cached[0] == base.count:
            den = (1,)
            for b, k in zip(polys, cached[1]):
                for _ in range(k):
                    den = poly_mul(den, b, p)
            assert den == x._b


# -- Rabin's irreducibility test, before the F_q tables certified their modulus --
# ``fields._pirreducible`` as it was; ``_prem`` was the remainder of the
# long division.


def _prem(a, b, p):
    return long_divmod(a, b, p)[1]


def _pirreducible(f, p):
    """Rabin test: f of degree m is irreducible over F_p."""
    m = len(f) - 1
    if m < 1:
        return False
    x = (0, 1)
    xq = x
    for _ in range(m):
        xq = _ppow_mod(xq, p, f, p)
    if _psub(xq, _prem(x, f, p), p):
        return False
    for d in _prime_divisors(m):
        xq = x
        for _ in range(m // d):
            xq = _ppow_mod(xq, p, f, p)
        if _pgcd(_psub(xq, x, p), f, p) != _ONE:
            return False
    return True


# -- the sampled norm checks --------------------------------------------------------
# ``invariants.check_norm_additivity`` and ``check_diagram_commutativity`` as
# they were when each drew integral samples and decided every trial at a low
# rung first, before both were decided exactly on the generators of B.


def _low_rung_first(decide, low, full):
    """``decide(*low)``, operands truncated at a low rung, else ``decide(*full)``.

    Truncation only forgets knowledge: every coefficient known from the
    truncated operands equals the one known from the full ones, so a
    verdict reached on ``low`` is the full verdict.  Only a decision
    that raises InsufficientPrecision on ``low``, when truncation forgot
    something (``low != full``), is taken again on ``full``, and that
    verdict or exception stands."""
    try:
        return decide(*low)
    except InsufficientPrecision:
        if low == full:
            raise
        return decide(*full)


def _additivity_rule(x, y, bound):
    """Whether N(x+y) - N(x) - N(y) lies in the cut ``bound`` of A."""
    return series_in_cut((x + y).norm() - x.norm() - y.norm(), bound)


def sampled_norm_additivity(ext, samples=100, seed=0):
    """The norm is additive on B modulo the contraction of the
    difference ideal to A, on random integral x and y.  Each trial is
    decided on x and y truncated at least(bound) + (p-1)*swan//p + 2
    before the untruncated ones."""
    _require_samples(samples)
    bound = restrict_cut(ideal_i_sigma(ext), Z_GROUP)
    rung = int(bound.value) + (ext.p - 1) * int(ext.swan) // ext.p + 2

    def trial(rng, i):
        x = integral_sample(ext, rng)
        y = integral_sample(ext, rng)
        ok = _low_rung_first(
            lambda x, y: _additivity_rule(x, y, bound),
            (x.truncate(rung), y.truncate(rung)), (x, y),
        )
        return None if ok else {"trial": i, "x": str(x), "y": str(y)}

    return _sampled("norm_additivity", samples, seed, trial, {"samples": samples, "bound": bound})


def _diagram_face(b, log_gen, f, inv_f, form):
    """The first face of the square that b breaks, or None: N(b*log_gen)
    = N(b)/f mod H^2, then the form of N(b)/f = N(b) dlog f mod its modulus."""
    nb = b.norm()
    nz = (b * log_gen).norm()
    if not series_in_cut(nz - nb * inv_f, Cut.at_least(2 * b.ext.swan, Z_GROUP)):
        return "norm"
    scalar = nz * f - nb
    if not series_in_cut(scalar * form.dlog_t, form.modulus):
        return "dlog_t"
    if form.du is not None and not series_in_cut(scalar * form.du, form.modulus):
        return "du"
    return None


def sampled_diagram_commutativity(ext, samples=100, seed=0):
    """Both compositions around the square agree on random integral b:
    the normed logarithmic class of b matches the differential-form
    class of its norm, modulo the squared ideals.  Each trial is decided
    on b truncated at 2*swan + 2 before the untruncated b."""
    _require_samples(samples)
    ext = integral_basis(ext).ext
    f = ext.best.f_best
    form = refined_swan(ext)
    inv_f = ext.inverse_f_best()
    alpha = ext.alpha()
    log_gen = alpha.sigma(1) * ext.inverse_alpha() - 1  # sigma(alpha)/alpha - 1
    rung = 2 * int(ext.swan) + 2

    def trial(rng, i):
        b = integral_sample(ext, rng)
        face = _low_rung_first(
            lambda b: _diagram_face(b, log_gen, f, inv_f, form), (b.truncate(rung),), (b,)
        )
        return None if face is None else {"trial": i, "face": face, "b": str(b)}

    return _sampled("diagram_commutativity", samples, seed, trial, {"samples": samples})



# -- the sampled difference-operator laws -------------------------------------------
# ``selftest._difference_operator_failure`` as it was when criterion 8 checked
# the product rule and integrality of the D_i on random integral samples,
# before both were decided on the generators of B.


def sampled_difference_operator_failure(ext, seed, samples=100):
    """First violated operator law for one extension, or None."""
    rng = random.Random(seed)
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
    for trial in range(samples):
        x = integral_sample(bext, rng)
        d_x, d_xb = ops.chain(x), ops.chain(x * b)
        for i in range(1, p):
            if not d_xb[i].agrees_with(conjugates[i] * d_x[i] + d_x[i - 1]):
                return f"product rule failed at trial {trial}, i={i}"
            if not d_x[i].in_cut(zero_cut):
                return f"D_{i} left the integers at trial {trial}"
    return None

# -- the stability check with its own loop ------------------------------------------
# ``invariants.check_refined_swan_stability`` as it was when it built its own
# ``random.Random(seed)`` and ``CheckResult``s instead of running its trials
# through ``invariants._sampled``.


def hand_loop_refined_swan_stability(ext, samples=50, seed=0):
    """The form invariant is unchanged under f -> f + a^p - a when the
    pole order is preserved.

    The invariant is the homomorphism h -> (h f) dlog f on H, so the
    two presentations are compared at the common test element 1/f: the
    candidate contributes (t dg/dt)/f dlog t + (dg/du)/f du, with the
    original f in the denominator on both sides.
    """
    _require_samples(samples)
    if ext.swan == 0:
        raise SwanZero("stability concerns extensions with positive swan")
    rng = random.Random(seed)
    p = ext.p
    n = int(ext.swan)
    field = ext.field
    f = ext.best.f_best
    base = refined_swan(ext)
    inv_f = ext.inverse_f_best()
    lo = -((n - 1) // p)  # least integer valuation with p*v > -n
    for trial in range(samples):
        a = random_series(field, rng, lo, lo + 3, f.prec, density=0.6)
        g = f + (a ** p - a)
        if g.valuation() != -n:
            return CheckResult(
                "refined_swan_stability", False,
                {"witness": str(a), "reason": "pole order moved"},
            )
        cand_t = g.euler_derivative() * inv_f
        ok = series_in_cut(base.dlog_t - cand_t, base.modulus)
        if ok and base.du is not None:
            cand_u = g.u_derivative() * inv_f
            ok = series_in_cut(base.du - cand_u, base.modulus)
        if not ok:
            return CheckResult(
                "refined_swan_stability", False, {"witness": str(a), "trial": trial}
            )
    return CheckResult("refined_swan_stability", True, {"samples": samples})


# -- the series-level Laplace expansion ------------------------------------------
# ``extension._laplace`` as it was before it ran on raw coefficients: every
# minor a ``LaurentSeries`` keyed by its column tuple, every signed entry a
# fresh negation, one ``series.dot`` per minor.


def series_laplace(cols):
    """(det, first-row cofactors) of the matrix with columns ``cols``
    (entry (row, j) is ``cols[j][row]``), with the minors built level by
    level from the bottom row up.  The minor on column set s of the last
    len(s) rows is one ``dot`` over its first row, the alternating sign
    folded into the entry, and reads only the level below, so two levels
    are alive at a time.  The level-p minor is the determinant; the
    cofactor of entry (0, j) is (-1)^j times the minor without column j."""
    p = len(cols)
    minors = {(j,): cols[j][p - 1] for j in range(p)}
    for row in range(p - 2, -1, -1):
        below, minors = minors, {}
        for s in itertools.combinations(range(p), p - row):
            minors[s] = dot([
                (-cols[j][row] if i % 2 else cols[j][row], below[s[:i] + s[i + 1:]])
                for i, j in enumerate(s)
            ])
    full = tuple(range(p))
    cofactors = [below[full[:j] + full[j + 1:]] for j in full]
    return minors[full], [-c if j % 2 else c for j, c in enumerate(cofactors)]


# -- the recursive, memoised Laplace expansion ------------------------------------
# ``extension._laplace`` and its helper as they were before the minors were
# built level by level: every minor of every size stays in one memo until
# the expansion returns.


def memoised_laplace(cols):
    """(det, first-row cofactors) of the matrix with columns ``cols``
    (entry (row, j) is ``cols[j][row]``) by expansion along the first
    row: the cofactor of entry (0, j) is (-1)^j times the minor without
    row 0 and column j, and all minors share one memo."""
    full = tuple(range(len(cols)))
    memo = {}
    cofactors = []
    for j in full:
        sub = _memoised_minor(cols, full[:j] + full[j + 1:], memo)
        cofactors.append(-sub if j % 2 else sub)
    return dot([(col[0], c) for col, c in zip(cols, cofactors)]), cofactors


def _memoised_minor(cols, remaining, memo):
    """The minor on the last len(remaining) rows and the columns in
    ``remaining``: one ``dot`` over its first row, the alternating sign
    folded into the entry.  A module function, not a closure: a closure
    that calls itself is a reference cycle, which would hold the memo
    until a full garbage collection."""
    row = len(cols) - len(remaining)
    if len(remaining) == 1:
        return cols[remaining[0]][row]
    if remaining not in memo:
        pairs = []
        for idx, j in enumerate(remaining):
            entry = cols[j][row]
            sub = _memoised_minor(cols, remaining[:idx] + remaining[idx + 1:], memo)
            pairs.append((-entry if idx % 2 else entry, sub))
        memo[remaining] = dot(pairs)
    return memo[remaining]


def report_principality_chain(ext):
    """The principality flags of an extension read off one
    ``build_report``: e * f = p and H and J from the report, and f_best
    best when reducing it again changes nothing.  ``integral_basis``
    raises TrivialExtension first, since a trivial report has no H."""
    integral_basis(ext)
    report = build_report(ext, samples=1)
    f_best = ext.best.f_best
    return {
        "best_f_exists": reduce_to_best(f_best).f_best == f_best,
        "h_principal": report.h.is_principal(),
        "j_principal": report.j_sigma.is_principal(),
        "defectless": report.e * report.f_inertia == ext.p,
    }


def tower_fields_principality_chain(report):
    """The principality flags of the defect tower read off the cuts of
    its TowerReport: best f exists when J is closed, defectless when H is."""
    return {
        "best_f_exists": report.best_f_exists,
        "h_principal": report.h_cut.is_principal(),
        "j_principal": report.j_cut.is_principal(),
        "defectless": report.h_cut.closed,
    }
