"""Degree-p Artin-Schreier extensions L = K[T]/(T^p - T - f) of K = k((t)).

Provides the reduction of f to its best representative modulo the map
x -> x^p - x, the Swan conductor, the ramification classification,
arithmetic in L with the Galois action, the norm and the inverse from
one Laplace expansion of the multiplication matrix (the inverse is the
adjugate column over the norm, and the minors are built level by
level, two levels alive at a time, on raw coefficients: each minor is
a raw triple keyed by the bitmask of its columns, each entry's bound is
read once), the trace from the power basis, valuations on L, the
inductive difference operators, and the shape of the integral closure
with its generators alpha^i * t^(A_i), one formula for every shape.

An extension computes what it derives once, in one memo
(``ASExtension._memo``), the shape of B included.  An element builds
the columns of its multiplication matrix once (``LElement.columns``);
its products, norm and inverse all read them.  ``LElement.powers`` is
the one product chain for powers in L.  An element of L takes any
operand of the series layer on either side: a series, or a scalar as
a constant known below f's precision.

One precision rule holds in L: a coordinate is known as far as the
series it reads determine it, with no start bound.  A product
coordinate is one ``series.dot``, known below the least of its
products' bounds; a minor of the Laplace expansion is one
``series._dot_raw``, the same rule on raw triples.  Coordinate j of a
conjugate reads only the coordinates i >= j and is known below the
least of their precisions.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import (
    DegenerateGenerator,
    ExtensionMismatch,
    FieldMismatch,
    InsufficientPrecision,
    InvalidSpec,
    NotApplicable,
    TrivialExtension,
    ZeroElement,
)
from .fields import ResidueElem, artin_schreier_solvable, frobenius_root, is_pth_power
from .series import (
    Cut,
    LaurentSeries,
    ValueGroup,
    _dot_raw,
    _series,
    dot,
    linear_combination,
    series_in_cut,
)


class BestCase(Enum):
    """Shape of the reduced (best) representative."""

    INTEGRAL = "integral"                  # no pole: f in k[[t]]
    WILD_POLE = "wild_pole"                # pole order coprime to p
    FEROCIOUS_POLE = "ferocious_pole"      # p | pole order, residue not a p-th power


class RamificationType(Enum):
    TRIVIAL = "trivial"
    UNRAMIFIED = "unramified"
    WILD = "wild"
    FEROCIOUS = "ferocious"


class BestForm(NamedTuple):
    """Result of the reduction: the normal form, its case, the Swan
    conductor, and the elements h used (f_best = f - sum(h^p - h))."""

    f_best: LaurentSeries
    case: BestCase
    swan: Fraction
    reduction_log: tuple

    def __repr__(self):
        return f"BestForm({self.f_best!r}, {self.case.value}, swan={self.swan})"


def reduce_to_best(f):
    """Reduce f modulo x^p - x until no negative term can be absorbed.

    A term c*t^(-m) with m > 0, p | m and c a p-th power is replaced by
    root(c)*t^(-m/p), which subtracts h^p - h for h = root(c)*t^(-m/p).
    Each step shrinks the multiset of negative exponents, so the loop
    terminates.  Precision must be at least 1 so the whole negative
    range and the constant term are known.
    """
    field = f.field
    p = field.p
    if f.prec < 1:
        raise InsufficientPrecision("best-form reduction needs precision >= 1")
    coeffs = dict(f.coeffs)
    log = []
    while True:
        target = None
        for e in sorted(coeffs):
            if e >= 0:
                break
            if e % p == 0 and is_pth_power(coeffs[e]):
                target = e
                break
        if target is None:
            break
        c = coeffs.pop(target)
        root = frobenius_root(c)
        log.append(LaurentSeries(field, {target // p: root}, f.prec))
        dest = target // p
        cur = coeffs.get(dest)
        new = root if cur is None else cur + root
        if new.is_zero():
            coeffs.pop(dest, None)
        else:
            coeffs[dest] = new
    f_best = LaurentSeries(field, coeffs, f.prec)
    negatives = [e for e in coeffs if e < 0]
    if not negatives:
        return BestForm(f_best, BestCase.INTEGRAL, Fraction(0), tuple(log))
    n = -min(negatives)
    case = BestCase.WILD_POLE if n % p else BestCase.FEROCIOUS_POLE
    return BestForm(f_best, case, Fraction(n), tuple(log))


# the largest p an extension accepts: the Laplace norm costs 2^p - p - 1 dots
P_LIMIT = 19


class ASExtension:
    """The extension defined by alpha^p - alpha = f, with its best form
    computed eagerly.  Immutable; safe to share."""

    __slots__ = ("field", "p", "f", "best", "_cache")

    def __init__(self, field, f):
        if field.p > P_LIMIT:
            raise InvalidSpec(f"characteristic {field.p} is above the limit {P_LIMIT}")
        if f.field is not field:
            raise FieldMismatch("defining series must live over the declared field")
        if f.is_zero_known():
            raise ZeroElement("the defining series is zero on its known range")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "p", field.p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "best", reduce_to_best(f))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("ASExtension is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ASExtension)
            and self.field is other.field
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.field, self.f))

    def __repr__(self):
        return f"AS({self.field!r}, f={self.f})"

    @property
    def swan(self):
        return self.best.swan

    def _memo(self, key, make):
        """``make()``, computed once per extension and kept under ``key``:
        the one store of what an extension derives.  A kept value never
        refers back to the extension, so elements are kept as coefficient
        tuples: a kept LElement would make a cycle that keeps the
        extension alive until a full garbage collection."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def with_best_f(self):
        """The same extension presented by its best representative."""
        if self.f == self.best.f_best:
            return self
        return self._memo("best_ext", lambda: ASExtension(self.field, self.best.f_best))

    def classification(self):
        return self._memo("classification", lambda: classify(self))

    # -- elements ---------------------------------------------------------

    def zero(self):
        z = LaurentSeries.zero(self.field, self.f.prec)
        return LElement(self, (z,) * self.p)

    def one(self):
        return self.from_series(LaurentSeries.one(self.field, self.f.prec))

    def alpha(self):
        def make():
            z = LaurentSeries.zero(self.field, self.f.prec)
            return (z, LaurentSeries.one(self.field, self.f.prec)) + (z,) * (self.p - 2)
        return LElement(self, self._memo("alpha", make))

    def from_series(self, s):
        if s.field is not self.field:
            raise FieldMismatch("series over a different coefficient field")
        z = LaurentSeries.zero(self.field, s.prec)
        return LElement(self, (s,) + (z,) * (self.p - 1))

    def alpha_power(self, i):
        """alpha ** i for i >= 0, memoised: the coefficient tuples of
        ``alpha().powers``, at least up to alpha^(p-1)."""
        if i < 0:
            raise InvalidSpec("alpha_power takes a nonnegative exponent")
        powers = self._cache.get("alpha_powers", ())
        if len(powers) <= i:
            chain = self.alpha().powers(max(i, self.p - 1))
            powers = self._cache["alpha_powers"] = [x.coeffs for x in chain]
        return LElement(self, powers[i])

    def integral_generators(self):
        """The generators g_k of B = sum_k A * g_k, as elements of the
        reduced presentation ``with_best_f()`` whatever presentation is
        asked: the ``generators()`` of the record
        ``integral_basis(self)``, memoised on the reduced extension."""
        basis = integral_basis(self)
        ext = basis.ext
        gens = ext._memo("integral_generators", lambda: [g.coeffs for g in basis.generators()])
        return [LElement(ext, c) for c in gens]

    def inverse_alpha(self):
        return LElement(self, self._memo("inverse_alpha", lambda: self.alpha().inverse().coeffs))

    def norm_inverse_alpha(self):
        """N(1/alpha) as a series, memoised on the reduced presentation
        ``with_best_f()`` whatever presentation is asked."""
        ext = self.with_best_f()
        return ext._memo("norm_inverse_alpha", lambda: ext.inverse_alpha().norm())

    def norm_inverse_alpha_times_f(self):
        """N(1/alpha) * f_best as a series, memoised on the reduced
        presentation ``with_best_f()`` whatever presentation is asked."""
        ext = self.with_best_f()
        return ext._memo(
            "norm_inverse_alpha_times_f", lambda: ext.norm_inverse_alpha() * ext.best.f_best
        )

    def inverse_f_best(self):
        """1/f_best as a series, memoised on the reduced presentation
        ``with_best_f()`` whatever presentation is asked."""
        ext = self.with_best_f()
        return ext._memo("inverse_f_best", ext.best.f_best.inverse)


class LElement:
    """An element of L as a coefficient vector over K in the basis
    1, alpha, ..., alpha^(p-1)."""

    __slots__ = ("ext", "coeffs", "_columns")

    def __init__(self, ext, coeffs):
        self.ext = ext
        self.coeffs = coeffs
        self._columns = None

    def _check(self, other):
        """other as an element of this extension.  Any operand the series
        layer takes lies in K: a series, or a scalar (an int or an element
        of the field) as a constant known below f's precision."""
        if isinstance(other, LElement):
            if other.ext is not self.ext and other.ext != self.ext:
                raise ExtensionMismatch("elements of different extensions")
            return other
        if isinstance(other, (int, ResidueElem)):
            other = LaurentSeries(self.ext.field, {0: other}, self.ext.f.prec)
        elif not isinstance(other, LaurentSeries):
            raise ExtensionMismatch(f"cannot combine LElement with {type(other).__name__}")
        return self.ext.from_series(other)

    def __add__(self, other):
        other = self._check(other)
        return LElement(self.ext, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return LElement(self.ext, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def mul_alpha(self):
        """Multiply by alpha using alpha^p = alpha + f."""
        p = self.ext.p
        f = self.ext.f
        top = self.coeffs[p - 1]
        out = [top * f]
        for i in range(1, p):
            c = self.coeffs[i - 1]
            if i == 1:
                c = c + top
            out.append(c)
        return LElement(self.ext, tuple(out))

    def columns(self):
        """The columns of the multiplication matrix, built once by
        ``mul_alpha``: column i is the coordinate tuple of self*alpha^i.
        Tuples, not elements: column 0 as an element would be self, a
        reference cycle."""
        if self._columns is None:
            x = self
            cols = [x.coeffs]
            for _ in range(self.ext.p - 1):
                x = x.mul_alpha()
                cols.append(x.coeffs)
            self._columns = cols
        return self._columns

    def __mul__(self, other):
        """Coordinate j of the product is sum_i (self*alpha^i)_j * other_i,
        one ``dot``, known below the least of its products' bounds.  By
        an operand in K it is the coordinatewise ``c * other``, where the
        series layer chooses between ``scale`` and ``dot``."""
        if isinstance(other, (int, ResidueElem, LaurentSeries)):
            return LElement(self.ext, tuple(c * other for c in self.coeffs))
        other = self._check(other)
        cols = self.columns()
        return LElement(self.ext, tuple(
            dot([(col[j], c) for col, c in zip(cols, other.coeffs)])
            for j in range(self.ext.p)
        ))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return self.powers(n)[n]

    def powers(self, n):
        """[1, x, x*x, (x*x)*x, ..., x^n]: x^k = x^(k-1) * x, the one
        product chain for powers in L, which fixes their ``prec``."""
        out = [self.ext.one(), self][:n + 1]
        while len(out) <= n:
            out.append(out[-1] * self)
        return out

    def sigma(self, k=1):
        """The Galois action determined by alpha -> alpha + k: expanding
        (alpha + k)^i binomially, coordinate j of the image is
        sum_{i >= j} C(i, j) * k^(i-j) * c_i, one ``linear_combination``
        known below the least precision of the c_i with i >= j."""
        p = self.ext.p
        k %= p
        if k == 0:
            return self
        return LElement(self.ext, tuple(
            linear_combination(
                [(math.comb(i, j) * pow(k, i - j, p) % p, self.coeffs[i]) for i in range(j, p)]
            )
            for j in range(p)
        ))

    def trace(self):
        # Tr 1 = p = 0, Tr alpha^i = 0 for 0 < i < p-1, Tr alpha^(p-1) = -1
        return -self.coeffs[-1]

    def norm(self):
        return _laplace(self.columns())[0]

    def inverse(self):
        """1/x by Cramer's rule: coordinate j is the cofactor of entry
        (0, j) of the multiplication matrix over N(x), both from one
        Laplace expansion."""
        norm, cofactors = _laplace(self.columns())
        inv_n = norm.inverse()
        return LElement(self.ext, tuple(c * inv_n for c in cofactors))

    def truncate(self, prec):
        """Forget knowledge above the given precision (cheapens inverses)."""
        return LElement(self.ext, tuple(c.truncate(prec) for c in self.coeffs))

    def is_zero_known(self):
        return all(c.is_zero_known() for c in self.coeffs)

    def agrees_with(self, other):
        return (self - other).is_zero_known()

    def valuation(self):
        """v_L in v_K units, computed through the norm."""
        if self.is_zero_known():
            raise ZeroElement("element is zero on its known range")
        return self.norm().valuation() / self.ext.p

    def _coeffwise_valid(self):
        """Coefficientwise valuations need the reduced presentation: the
        powers of alpha then have pairwise distinct valuations modulo
        the base group (wild) or independent residues (ferocious and
        unramified), so minima distribute over the coordinates."""
        ext = self.ext
        return (
            ext.f == ext.best.f_best
            and ext.classification() is not RamificationType.TRIVIAL
        )

    def valuation_coeffwise(self):
        """v_L via min over the basis coefficients:
        v_L(sum c_i alpha^i) = min_i (v(c_i) - i*swan/p).  A coordinate
        zero on its known range only bounds its term below by
        c_i.prec - i*swan/p; below the minimum that bound decides
        nothing, which raises InsufficientPrecision."""
        if self.is_zero_known():
            raise ZeroElement("element is zero on its known range")
        if not self._coeffwise_valid():
            raise NotApplicable(
                "coefficientwise valuation needs the reduced, nontrivial presentation"
            )
        shift = self.ext.swan / self.ext.p
        least = min(
            c.valuation() - i * shift for i, c in enumerate(self.coeffs) if not c.is_zero_known()
        )
        for i, c in enumerate(self.coeffs):
            bound = c.prec - i * shift
            if c.is_zero_known() and bound < least:
                raise InsufficientPrecision(
                    f"coordinate {i} is zero on its known range; only v >= {bound} is certain"
                )
        return least

    def in_cut(self, cut):
        """Membership of the element in a fractional ideal of L given as
        a cut in v_K units, decided coefficientwise."""
        if not self._coeffwise_valid():
            raise NotApplicable(
                "coefficientwise membership needs the reduced, nontrivial presentation"
            )
        shift = self.ext.swan / self.ext.p
        for i, c in enumerate(self.coeffs):
            shifted = Cut(cut.value + i * shift, cut.closed, ValueGroup.dense())
            if not series_in_cut(c, shifted):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, LElement)
            and (self.ext is other.ext or self.ext == other.ext)
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero_known():
                continue
            base = "1" if i == 0 else ("a" if i == 1 else f"a^{i}")
            parts.append(f"({c})*{base}" if i else f"({c})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<L| {self}>"


def _laplace(cols):
    """(det, first-row cofactors) of the matrix with columns ``cols``
    (entry (row, j) is ``cols[j][row]``), with the minors built level by
    level from the bottom row up.  The minor on column set s of the last
    len(s) rows is one ``series._dot_raw`` over its first row, the
    alternating sign folded into the entry, and reads only the level
    below, so two levels are alive at a time.  The level-p minor is the
    determinant; the cofactor of entry (0, j) is (-1)^j times the minor
    without column j.

    The expansion runs on raw coefficients.  A minor is a raw triple
    (raw, low, prec) keyed by the bitmask of its columns, so the minor
    without column j is ``mask ^ (1 << j)``.  Each level reads its row
    as triples once, plus one negated copy of that row: the entry at
    position k of a column set comes from copy ``k & 1``.  Only the
    determinant and the cofactors become series."""
    p = len(cols)
    field = cols[0][0].field
    neg = field._rneg
    bits = [1 << j for j in range(p)]
    minors = {b: _triple(col[p - 1]) for b, col in zip(bits, cols)}
    for row in range(p - 2, -1, -1):
        entries = {b: _triple(col[row]) for b, col in zip(bits, cols)}
        signed = (entries, {
            b: ({e: neg(c) for e, c in raw.items()}, low, prec)
            for b, (raw, low, prec) in entries.items()
        })
        below, minors = minors, {}
        for s in combinations(bits, p - row):
            mask = sum(s)
            minors[mask] = _dot_raw(
                field, [(signed[k & 1][b], below[mask ^ b]) for k, b in enumerate(s)]
            )
    full = (1 << p) - 1
    det_raw, _, det_prec = minors[full]
    cofactors = []
    for j, b in enumerate(bits):
        raw, _, prec = below[full ^ b]
        if j % 2:
            raw = {e: neg(c) for e, c in raw.items()}
        cofactors.append(_series(field, raw, prec))
    return _series(field, det_raw, det_prec), cofactors


def _triple(s):
    """The raw triple (raw, low, prec) of a series for ``_dot_raw``."""
    return s._raw, s.low_bound(), s.prec


def classify(ext):
    """Ramification type of the extension, from the best form.

    A pole of order coprime to p is wild; a p-divisible pole with a
    non-p-th-power residue is ferocious.  With no pole the extension is
    unramified or trivial according to whether the constant residue lies
    in the image of x -> x^p - x, which is decided exactly for both
    supported residue fields.
    """
    best = ext.best
    if best.case is BestCase.WILD_POLE:
        return RamificationType.WILD
    if best.case is BestCase.FEROCIOUS_POLE:
        return RamificationType.FEROCIOUS
    c0 = best.f_best.coeff(0)
    if artin_schreier_solvable(c0):
        return RamificationType.TRIVIAL
    return RamificationType.UNRAMIFIED


class BasisDescription(NamedTuple):
    """The shape of the integral closure B = sum_i A_i alpha^i over
    A = k[[t]]: the one record that every ideal of B, the different and
    the verifiers read.

    ``ext`` is the reduced presentation and ``group`` the value group of
    L in v_K units.  ``cuts`` holds the coefficient ideals A_i as cuts
    over the value group of K: wild, A_0 = A and A_i = {v > i*swan/p};
    otherwise A_i = {v >= i*swan/p}, because B = A[alpha*t^(swan/p)] for
    that unit.  Unramified, swan = 0 makes B = A[alpha] and every A_i is
    A.  ``i_star`` is the index i >= 1 whose boundary element
    alpha^i * t^(A_i) has the difference sigma(b) - b of least
    valuation, A_i + (1-i)*swan/p.
    """

    kind: str
    ext: ASExtension
    group: ValueGroup
    cuts: tuple
    i_star: int

    def generators(self):
        """The boundary generators alpha^i * t^(A_i), one formula for every
        shape; t^(A_i) is known below f's precision, or past its exponent
        when that is higher, so that it keeps its term."""
        ext = self.ext
        return [
            ext.alpha_power(i) * LaurentSeries.monomial(ext.field, e, 1, max(ext.f.prec, e + 1))
            for i, e in enumerate(int(cut.value) for cut in self.cuts)
        ]


def integral_basis(ext):
    """The one record of the shape of B, for every nontrivial extension:
    wild cuts A_i = {v > i*swan/p} with A_0 = A, otherwise
    A_i = {v >= i*swan/p}, which is A when unramified.  TrivialExtension
    for a trivial extension, so it is also the guard of every operation
    that needs a field extension.  The shape (``_shape``) is built once
    and kept on the reduced presentation; the record, which holds the
    extension, is rebuilt around it on each call."""
    kind = ext.classification()
    if kind is RamificationType.TRIVIAL:
        raise TrivialExtension("operation needs a nontrivial extension")
    ext = ext.with_best_f()
    shape = ext._memo("integral_basis", lambda: _shape(kind, ext.p, ext.swan / ext.p))
    return BasisDescription(kind.value, ext, *shape)


def _shape(kind, p, v0):
    """(group, cuts, i_star) of ``integral_basis``, with v0 = swan/p."""
    z = ValueGroup.discrete(1)
    if kind is RamificationType.WILD:
        group = ValueGroup.discrete(Fraction(1, p))
        cuts = (Cut.at_least(0, z),) + tuple(Cut.above(i * v0, z) for i in range(1, p))
    else:
        group = z
        cuts = tuple(Cut.at_least(i * v0, z) for i in range(p))
    i_star = min(range(1, p), key=lambda i: cuts[i].value + (1 - i) * v0)
    return group, cuts, i_star


class DifferenceOperators:
    """The inductive operators D_0 = id, D_i = (s-1)D_{i-1} scaled by the
    inverse of (s-1)(D_{i-1}(b^i)), for a fixed b whose difference
    generates the difference ideal.

    ``chain`` is the one D-chain: [D_0 x, ..., D_upto x] costs ``upto``
    sigma-steps, each reading the previous value.  The denominators
    depend only on b; their inverses are cached.
    """

    def __init__(self, ext, b):
        self.ext = ext
        self.b = b
        self._den_inv = [None]  # index i holds 1/(s-1)(D_{i-1}(b^i))
        powers = b.powers(ext.p - 1)
        for i in range(1, ext.p):
            num = self.apply(i - 1, powers[i])
            den = num.sigma(1) - num
            if den.is_zero_known():
                raise DegenerateGenerator(
                    f"(sigma-1)(D_{i-1}(b^{i})) vanishes; b does not qualify"
                )
            self._den_inv.append(den.inverse())

    def chain(self, x, upto=None):
        """[D_0 x, D_1 x, ..., D_upto x], with ``upto`` p - 1 by default."""
        if upto is None:
            upto = self.ext.p - 1
        if not 0 <= upto < self.ext.p:
            raise InvalidSpec("index must be in 0..p-1")
        out = [x]
        for j in range(1, upto + 1):
            cur = out[-1]
            out.append((cur.sigma(1) - cur) * self._den_inv[j])
        return out

    def apply(self, i, x):
        """D_i(x), the last entry of ``chain(x, i)``."""
        return self.chain(x, i)[i]

