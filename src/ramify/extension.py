"""Degree-p Artin-Schreier extensions L = K[T]/(T^p - T - f) of K = k((t)).

Provides the reduction of f to its best representative modulo the map
x -> x^p - x, the Swan conductor, the ramification classification,
arithmetic in L with the Galois action and sigma^k(x) - x in one pass,
the norm and the inverse from one chain of conjugate products (the
product P of x, sigma(x), ..., sigma^(p-2)(x) built by doubling; the
norm is coordinate 0 of x * sigma(P) and the inverse is sigma(P) over
the norm), the trace from the power basis, valuations on L, the
inductive difference operators, and the shape of the integral closure
with its generators alpha^i * t^(e_i), one formula for every shape.
alpha^i for i < p is the i-th basis vector; it and the generators are
built coordinate by coordinate, with no product in L, each with the
``prec`` the product rule gives its formula.  The inverse serves only
the difference operators, which invert their denominators with it.

An extension computes what it derives once, in one memo
(``ASExtension._memo``): its reduced presentation, its principal part,
its classification, 1/f, N(alpha), the generators of B, the refined
form and the shape of B.  A report so takes one norm, N(alpha), the
norm of a sparse element, and inverts two series: the f of its
principal part and N(alpha), which the diagram check reads as
N(1/alpha).  The cuts of a report are not kept: ``invariants`` derives
each from the shape on every read.  An element builds the columns of
its multiplication matrix once (``LElement.columns``); its products,
norm and inverse all read them.  ``LElement.powers`` is the one product
chain for powers in L.  An element of L takes any operand of the series
layer on either side: a series, or a scalar as a constant known below
f's precision.

One precision rule holds in L: a coordinate is known as far as the
series it reads determine it, with no start bound.  A product
coordinate is one ``series.dot``, known below the least of its
products' bounds, and so is the norm.  Coordinate j of a conjugate
reads only the coordinates i >= j and is known below the least of
their precisions.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
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
    terminates, and f_best differs from f whenever a term was absorbed;
    when none was, f_best is f itself.  Precision must be at least 1 so
    the whole negative range and the constant term are known.
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
    f_best = LaurentSeries(field, coeffs, f.prec) if log else f
    negatives = [e for e in coeffs if e < 0]
    if not negatives:
        return BestForm(f_best, BestCase.INTEGRAL, Fraction(0), tuple(log))
    n = -min(negatives)
    case = BestCase.WILD_POLE if n % p else BestCase.FEROCIOUS_POLE
    return BestForm(f_best, case, Fraction(n), tuple(log))


# the largest p an extension accepts.  No step is exponential in p (the
# norm is O(log p) products in L of p^2 dots each); the bound keeps a
# report small: `t^-7 + 3t^-5 + t^-2 + 5t --prec 60` and `t^-1 --prec 392`
# each take 0.24 s at p = 97, 0.15 s above a `t^-1` report at p = 2, in
# one `analyze` process on a 2-core VM, Python 3.11
P_LIMIT = 97

# the largest p * swan an extension accepts, checked on the reduced pole
# order.  An element of L is p series of up to about swan terms; sigma on
# the p generators of B forms p^2 linear combinations of them, and the
# norm of alpha O(log p) products in L of p^2 series products each.
# Worst accepted cases, one `analyze --prec 8` process each on a 2-core
# VM, Python 3.11: at p = 97, `t^-41 + t^-40` and random coefficients on
# every exponent from t^-41 to t^0 take 0.23 s.  Over F_p(u) coefficient
# degrees grow with swan, in 1/f and 1/N(alpha) above all:
# `u*t^-41 + t^-40` at p = 97 takes 0.27 s, `u*t^-799 + t^-798` at p = 5
# 0.81 s
SIZE_LIMIT = 4_000


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
        limit = SIZE_LIMIT // field.p
        if self.best.swan > limit:
            raise InvalidSpec(
                f"Swan conductor {self.best.swan} is above the limit {limit} at p = {field.p}"
            )
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
        """The same extension presented by its best representative.
        TrivialExtension when that is zero on its known range: it
        presents no extension."""
        f_best = self.best.f_best
        if f_best is self.f:
            return self
        if f_best.is_zero_known():
            raise TrivialExtension("operation needs a nontrivial extension: the best form is zero")
        return self._memo("best_ext", lambda: ASExtension(self.field, f_best))

    def classification(self):
        return self._memo("classification", lambda: classify(self))

    # -- elements ---------------------------------------------------------

    def zero(self):
        z = LaurentSeries.zero(self.field, self.f.prec)
        return LElement(self, (z,) * self.p)

    def one(self):
        return self.from_series(LaurentSeries.one(self.field, self.f.prec))

    def alpha(self):
        return self.alpha_power(1)

    def from_series(self, s):
        if s.field is not self.field:
            raise FieldMismatch("series over a different coefficient field")
        return self._basis_multiple(0, s, s.prec)

    def alpha_power(self, i):
        """alpha^i for 0 <= i < p: the i-th basis vector, every coordinate
        known below f's precision.  An exponent outside 0..p-1 raises
        InvalidSpec; ``alpha() ** i`` is the product chain for any i."""
        if not 0 <= i < self.p:
            raise InvalidSpec(f"alpha_power takes an exponent in 0..{self.p - 1}")
        return self._basis_multiple(i, LaurentSeries.one(self.field, self.f.prec), self.f.prec)

    def _basis_multiple(self, i, s, zero_prec):
        """s * alpha^i: coordinate i is the series s, every other one is
        zero known below ``zero_prec``."""
        z = LaurentSeries.zero(self.field, zero_prec)
        return LElement(self, (z,) * i + (s,) + (z,) * (self.p - 1 - i))

    def integral_generators(self):
        """The generators g_k of B = sum_k A * g_k, as elements of the
        reduced presentation ``with_best_f()`` whatever presentation is
        asked: the ``generators()`` of the record
        ``integral_basis(self)``, memoised on the reduced extension."""
        basis = integral_basis(self)
        ext = basis.ext
        gens = ext._memo("integral_generators", lambda: [g.coeffs for g in basis.generators()])
        return [LElement(ext, c) for c in gens]

    def norm_alpha(self):
        """N(alpha) as a series, memoised on the reduced presentation
        ``with_best_f()`` whatever presentation is asked: the orbit
        chain's norm of alpha, whose value is (-1)^(p+1) * f_best =
        f_best, known below a ``prec`` that loses at least the pole
        order of f_best."""
        ext = self.with_best_f()
        return ext._memo("norm_alpha", lambda: ext.alpha().norm())

    def inverse_f(self):
        """1/f as a series, memoised: the one series inverse of f in
        this presentation."""
        return self._memo("inverse_f", self.f.inverse)

    def inverse_f_best(self):
        """1/f_best as a series: ``inverse_f`` of the reduced
        presentation ``with_best_f()`` whatever presentation is asked."""
        return self.with_best_f().inverse_f()


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
        if k % self.ext.p == 0:
            return self
        return self._translate(k, 1)

    def difference(self, k=1):
        """sigma^k(x) - x in one pass: coordinate j is
        sum_{i > j} C(i, j) * k^(i-j) * c_i, with c_j at coefficient 0 so
        that it is known below the least precision of the c_i with
        i >= j, as the difference of ``sigma(k)`` and x is.  For k = 0
        (mod p) it is x - x, each coordinate known below its own c_j."""
        if k % self.ext.p == 0:
            return self - self
        return self._translate(k, 0)

    def _translate(self, k, own):
        """Coordinate j is own * c_j + sum_{i > j} C(i, j) * k^(i-j) * c_i,
        one ``linear_combination`` each over its row of
        ``_translation_rows``: ``sigma(k)`` at own = 1 and
        ``difference(k)`` at own = 0."""
        p = self.ext.p
        c = self.coeffs
        return LElement(self.ext, tuple(
            linear_combination([(n, c[i]) for n, i in row])
            for row in _translation_rows(p, k % p, own)
        ))

    def trace(self):
        # Tr 1 = p = 0, Tr alpha^i = 0 for 0 < i < p-1, Tr alpha^(p-1) = -1
        return -self.coeffs[-1]

    def _orbit(self):
        """(N(x), sigma(P)) for P = x * sigma(x) * ... * sigma^(p-2)(x),
        the one chain behind ``norm`` and ``inverse``.  P is built by
        doubling over the bits of p - 1, P_(a+b) = P_a * sigma^a(P_b)
        (the addition chain of Itoh and Tsujii, with sigma in place of
        Frobenius), from ``__mul__`` and ``sigma``: O(log p) products in
        L, where a Laplace expansion takes 2^p - p - 1 dots.
        x * sigma(P) is the whole orbit product N(x), which lies in K:
        its coordinate 0 is one ``dot`` over x's columns, and the others
        are not formed.
        On alpha of a principal part and on the difference operators'
        denominators this is the Laplace determinant and Cramer's rule in
        value and ``prec``; on coordinates known to uneven precisions it
        can know less, never more."""
        p = self.ext.p
        prod, k = self, 1
        for bit in bin(p - 1)[3:]:
            prod, k = prod * prod.sigma(k), 2 * k
            if bit == "1":
                prod, k = prod * self.sigma(k), k + 1
        q = prod.sigma()
        return dot([(col[0], c) for col, c in zip(self.columns(), q.coeffs)]), q

    def norm(self):
        """N(x), the product of the p conjugates of x (``_orbit``)."""
        return self._orbit()[0]

    def inverse(self):
        """1/x = sigma(P) / N(x), both from one ``_orbit``."""
        norm, q = self._orbit()
        return q * norm.inverse()

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
            ext.best.f_best is ext.f
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
        # swan is an integer n, so every term times p is an int
        n, p = int(self.ext.swan), self.ext.p
        least = min(
            c.low_bound() * p - i * n
            for i, c in enumerate(self.coeffs) if not c.is_zero_known()
        )
        for i, c in enumerate(self.coeffs):
            bound = c.prec * p - i * n
            if c.is_zero_known() and bound < least:
                raise InsufficientPrecision(
                    f"coordinate {i} is zero on its known range; "
                    f"only v >= {Fraction(bound, p)} is certain"
                )
        return Fraction(least, p)

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


@functools.cache
def _translation_rows(p, k, own):
    """The coefficients of ``LElement._translate`` for k in 0..p-1: row j
    lists (own, j) and then (C(i, j) * k^(i-j) mod p, i) for j < i < p."""
    return tuple(
        ((own, j),) + tuple((math.comb(i, j) * pow(k, i - j, p) % p, i) for i in range(j + 1, p))
        for j in range(p)
    )


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


# the value group of K
Z_GROUP = ValueGroup.discrete(1)


class BasisDescription(NamedTuple):
    """The shape of the integral closure B = sum_i A * alpha^i * t^(e_i)
    over A = k[[t]]: the one record that every ideal of B, the different
    and the verifiers read.

    ``ext`` is the reduced presentation, ``n`` its Swan conductor and
    ``group`` the value group of L in v_K units.  ``e`` holds the
    integer exponents of the coefficient ideals A_i = t^(e_i) * A: wild,
    e_0 = 0 and e_i = floor(i*n/p) + 1, the least integer above i*n/p;
    otherwise e_i = i*n/p, because B = A[alpha*t^(n/p)] for that unit.
    Unramified, n = 0 makes B = A[alpha] and every e_i zero.  ``i_star``
    is the index i >= 1 whose boundary element alpha^i * t^(e_i) has the
    difference sigma(b) - b of least valuation, e_i + (1-i)*n/p.
    """

    kind: str
    ext: ASExtension
    n: int
    group: ValueGroup
    e: tuple
    i_star: int

    @property
    def cuts(self):
        """The coefficient ideals A_i as cuts over the value group of K."""
        return tuple(Cut.at_least(e, Z_GROUP) for e in self.e)

    def generators(self):
        """The boundary generators g_i = alpha^i * t^(e_i), with t^(e_i)
        the generator of A_i, one formula for every shape.  No product is
        formed: coordinate i is t^(e_i), known below max(P, e_i + 1) for
        f's precision P so that it keeps its term, and the others are
        zero known below P + e_i, as ``dot`` gives them for
        ``alpha_power(i)`` times that monomial (P >= 1, e_i >= 0)."""
        ext = self.ext
        field, prec = ext.field, ext.f.prec
        return [
            ext._basis_multiple(i, LaurentSeries.monomial(field, e, 1, max(prec, e + 1)), prec + e)
            for i, e in enumerate(self.e)
        ]


def integral_basis(ext):
    """The one record of the shape of B, for every nontrivial extension.
    TrivialExtension for a trivial extension, so it is also the guard of
    every operation that needs a field extension.  The shape (``_shape``)
    is built once and kept on the reduced presentation; the record, which
    holds the extension, is rebuilt around it on each call."""
    kind = ext.classification()
    if kind is RamificationType.TRIVIAL:
        raise TrivialExtension("operation needs a nontrivial extension")
    ext = ext.with_best_f()
    n = int(ext.swan)
    shape = ext._memo("integral_basis", lambda: _shape(kind, ext.p, n))
    return BasisDescription(kind.value, ext, n, *shape)


def _shape(kind, p, n):
    """(group, e, i_star) of ``integral_basis`` for the Swan conductor n:
    i_star is the first index i >= 1 of least p*e_i + (1-i)*n, which is
    p times the valuation of its boundary difference."""
    if kind is RamificationType.WILD:
        group = ValueGroup.discrete(Fraction(1, p))
        e = (0,) + tuple(i * n // p + 1 for i in range(1, p))
    else:
        group = Z_GROUP
        e = tuple(i * (n // p) for i in range(p))
    i_star = min(range(1, p), key=lambda i: p * e[i] + (1 - i) * n)
    return group, e, i_star


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
            den = self.apply(i - 1, powers[i]).difference()
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
            out.append(out[-1].difference() * self._den_inv[j])
        return out

    def apply(self, i, x):
        """D_i(x), the last entry of ``chain(x, i)``."""
        return self.chain(x, i)[i]

