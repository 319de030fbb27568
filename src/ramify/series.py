"""Value groups, cuts, and truncated Laurent series over k((t)).

The precision model is half-open: a series with precision N has every
coefficient at exponents e < N determined (absent means zero), and
knows nothing at exponents >= N.  All values are exact rationals; a Cut
records a fractional ideal of a valued field as a (value, bound) pair
relative to a declared value group (canonical over a discrete group).

A series stores its coefficients raw: ints mod p over F_p, log/Zech
table codes over F_q with m >= 2, and the canonical ``ResidueElem``
itself over F_p(u) (see ``fields``).  ``+``, ``-``, ``scale``,
``shift``, ``truncate``, ``inverse``, ``euler_derivative``,
``linear_combination`` and the kernel ``dot`` work on those values
through the field's raw operations.  Elements are built only at the
boundary: the ``LaurentSeries`` constructor converts elements and ints
to raw values (and rejects an element of another field), and
``coeffs``, ``coeff`` and ``leading`` convert back on demand.
``__str__`` builds no element: the field's ``_text`` renders each raw
value once.

``inverse`` solves (c_0 + c_1*t + ...)(w_0 + w_1*t + ...) = 1 term by
term, w_k = -(1/c_0) * sum_(i>=1) c_i*w_(k-i), in one pass over raw
values: O(N * |support|) products for N known terms.  Its value and
``prec`` are those of the geometric sum 1 - r + r^2 - ... it replaces.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AmbientMismatch,
    FieldMismatch,
    InsufficientPrecision,
    InvalidSpec,
    ZeroSeries,
)
from .fields import ResidueElem, derivative_u, dot_coeffs


class ValueGroup:
    """The value group of a valued field.

    Three shapes are supported: g*Z for a positive rational granularity
    g, Z[1/p], and a dense group (any rational allowed).
    """

    __slots__ = ("kind", "granularity", "p")

    DISCRETE = "discrete"
    P_DIVISIBLE = "p_divisible"
    DENSE = "dense"

    def __init__(self, kind, granularity=None, p=None):
        self.kind = kind
        self.granularity = granularity
        self.p = p

    @classmethod
    def discrete(cls, granularity=1):
        g = Fraction(granularity)
        if g <= 0:
            raise InvalidSpec("granularity must be positive")
        return cls(cls.DISCRETE, granularity=g)

    @classmethod
    def z_one_over_p(cls, p):
        return cls(cls.P_DIVISIBLE, p=p)

    @classmethod
    def dense(cls):
        return cls(cls.DENSE)

    def contains(self, value):
        value = Fraction(value)
        if self.kind == self.DISCRETE:
            return (value / self.granularity).denominator == 1
        if self.kind == self.P_DIVISIBLE:
            den = value.denominator
            while den % self.p == 0:
                den //= self.p
            return den == 1
        return True

    def __eq__(self, other):
        return (
            isinstance(other, ValueGroup)
            and self.kind == other.kind
            and self.granularity == other.granularity
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.granularity, self.p))

    def __repr__(self):
        if self.kind == self.DISCRETE:
            return f"{self.granularity}*Z" if self.granularity != 1 else "Z"
        if self.kind == self.P_DIVISIBLE:
            return f"Z[1/{self.p}]"
        return "dense"


def _least_admitted(num, den, closed):
    """The least integer n >= num/den (closed) or n > num/den (open), for
    integers num and den > 0."""
    return -(-num // den) if closed else num // den + 1


class Cut:
    """A fractional ideal {v >= value} (closed) or {v > value} (open).

    Over a discrete group g*Z a cut is stored closed at the least group
    element it admits, g*(floor(v/g) + 1) if open and g*ceil(v/g) if
    closed, so one ideal has one value, hash and repr.  That multiple is
    found in integers: with v = num/den and g = gn/gd, v/g is
    (num*gd)/(den*gn), whose floor or ceiling k gives the value
    k*gn/gd.  Z[1/p] and dense groups keep the value as given, as a Fraction.
    """

    __slots__ = ("value", "closed", "group")

    def __init__(self, value, closed, group):
        if group.kind == ValueGroup.DISCRETE:
            if not isinstance(value, (int, Fraction)):
                value = Fraction(value)
            gn, gd = group.granularity.numerator, group.granularity.denominator
            k = _least_admitted(value.numerator * gd, value.denominator * gn, closed)
            value, closed = Fraction(k * gn, gd), True
        elif value.__class__ is not Fraction:
            value = Fraction(value)
        self.value = value
        self.closed = closed
        self.group = group

    @classmethod
    def at_least(cls, value, group):
        return cls(value, True, group)

    @classmethod
    def above(cls, value, group):
        return cls(value, False, group)

    def _check(self, other):
        if self.group != other.group:
            raise AmbientMismatch(f"{self.group!r} vs {other.group!r}")

    def __mul__(self, other):
        self._check(other)
        return Cut(self.value + other.value, self.closed and other.closed, self.group)

    def __pow__(self, n):
        if n == 0:
            return Cut(0, True, self.group)
        return Cut(self.value * n, self.closed, self.group)

    def inverse(self):
        return self ** (-1)

    def is_principal(self):
        return self.closed and self.group.contains(self.value)

    def contains(self, value):
        """Whether an element of valuation ``value`` lies in the ideal."""
        if self.closed:
            return value >= self.value
        return value > self.value

    def subset_of(self, other):
        """Ideal containment: every valuation this cut admits, other admits."""
        if self.value > other.value:
            return True
        if self.value < other.value:
            return False
        return other.closed or not self.closed

    def __eq__(self, other):
        return (
            isinstance(other, Cut)
            and self.value == other.value
            and self.closed == other.closed
            and self.group == other.group
        )

    def __hash__(self):
        return hash((self.value, self.closed, self.group))

    def __repr__(self):
        op = ">=" if self.closed else ">"
        return f"{{v {op} {self.value}}}"


def restrict_cut(cut, group):
    """The same valuation bound read in another value group.

    Used for intersections such as (ideal of B) with A: membership of a
    group element is preserved.
    """
    return Cut(cut.value, cut.closed, group)


class LaurentSeries:
    """A truncated element of k((t)).

    ``_raw`` maps exponents to the field's nonzero raw values (see the
    module docstring), and ``coeffs`` is its view as ResidueElems;
    ``prec`` is the half-open knowledge bound (exponents < prec are
    determined).  Instances are treated as immutable; operations return
    fresh objects.
    """

    __slots__ = ("field", "_raw", "prec")

    def __init__(self, field, coeffs, prec):
        """``coeffs`` maps exponents to elements of ``field`` or ints;
        zeros and exponents at or above ``prec`` are dropped."""
        to_raw = field._to_raw
        raw = {}
        for e, c in coeffs.items():
            r = to_raw(c)
            if r and e < prec:
                raw[e] = r
        self.field = field
        self._raw = raw
        self.prec = prec

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field, prec):
        return cls(field, {}, prec)

    @classmethod
    def one(cls, field, prec):
        return cls(field, {0: field.one()}, prec)

    @classmethod
    def monomial(cls, field, exponent, coeff=1, prec=None):
        if prec is None:
            raise InvalidSpec("monomial needs an explicit precision")
        return cls(field, {exponent: coeff}, prec)

    @classmethod
    def constant(cls, coeff, prec):
        return cls(coeff.field, {0: coeff}, prec)

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self):
        """A fresh dict from exponents to the nonzero coefficients as
        ResidueElems, built on every access: changing it leaves the
        series unchanged, and library code does not read it in a loop."""
        from_raw = self.field._from_raw
        return {e: from_raw(c) for e, c in self._raw.items()}

    def support(self):
        return sorted(self._raw)

    def coeff(self, e):
        if e >= self.prec:
            raise InsufficientPrecision(f"coefficient at t^{e} is beyond precision {self.prec}")
        r = self._raw.get(e)
        return self.field.zero() if r is None else self.field._from_raw(r)

    def is_zero_known(self):
        """Zero on the whole known range (says nothing beyond prec)."""
        return not self._raw

    def low_bound(self):
        """min(support), or prec when the known range is all zero."""
        return min(self._raw) if self._raw else self.prec

    def valuation(self):
        if not self._raw:
            raise InsufficientPrecision(
                f"all known coefficients vanish; only v >= {self.prec} is certain"
            )
        return Fraction(min(self._raw))

    def leading(self):
        v = min(self._raw)
        return v, self.field._from_raw(self._raw[v])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        """other as a series over this field: a scalar (an element of
        the field or an int) becomes a constant at this precision.  Any
        other operand gives NotImplemented, so that Python tries its
        reflected operator (an element of L takes a series on either
        side)."""
        if not isinstance(other, LaurentSeries):
            if not isinstance(other, (ResidueElem, int)):
                return NotImplemented
            return LaurentSeries(self.field, {0: other}, self.prec)
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        prec = min(self.prec, other.prec)
        if self.prec > prec:
            out = {e: c for e, c in self._raw.items() if e < prec}
        else:
            out = dict(self._raw)
        add = self.field._radd
        for e, c in other._raw.items():
            if e < prec:
                cur = out.get(e)
                if cur is None:
                    out[e] = c
                else:
                    total = add(cur, c)
                    if total:
                        out[e] = total
                    else:
                        del out[e]
        return _series(self.field, out, prec)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._rneg
        return _series(self.field, {e: neg(c) for e, c in self._raw.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """A scalar is a ``scale``, which keeps this precision."""
        if isinstance(other, (ResidueElem, int)):
            return self.scale(other)
        other = self._check(other)
        return other if other is NotImplemented else dot(((self, other),))

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by a field element or an int, read as exact: the
        product keeps this precision for every scalar, zero included.
        So t^3 + O(t^5) times 0 is O(t^5), where the product by the
        constant series 0 + O(t^5) would be O(t^8).  That bound comes
        from the constant's own precision, which an exact scalar does
        not have, so a zero scalar gets no rule of its own."""
        r = self.field._to_raw(c)
        if not r:
            return _series(self.field, {}, self.prec)
        mul = self.field._rmul
        return _series(self.field, {e: mul(x, r) for e, x in self._raw.items()}, self.prec)

    def shift(self, k):
        """Multiply by t^k."""
        return _series(self.field, {e + k: c for e, c in self._raw.items()}, self.prec + k)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return LaurentSeries.one(self.field, self.prec - 2 * min(0, self.low_bound()))
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def inverse(self):
        """Multiplicative inverse, known below prec - 2v where v is the
        valuation.

        With self = t^v * (c_0 + c_1*t + ...), known below t^N for
        N = prec - v, the inverse is t^-v * (w_0 + w_1*t + ...) with
        w_0 = 1/c_0 and w_k = -(1/c_0) * sum_(i>=1) c_i*w_(k-i) for
        0 < k < N: one pass over raw values, O(N * |support|) products.
        1/(c_0 + ...) mod t^N is unique and raw values are canonical, so
        the value and ``prec`` are those of the geometric sum
        1 - r + r^2 - ... (r = self/(c_0 t^v) - 1) truncated below t^N.
        """
        raw = self._raw
        if not raw:
            raise ZeroSeries(
                f"cannot invert a series with no known nonzero coefficient (prec {self.prec})"
            )
        field = self.field
        add, mul = field._radd, field._rmul
        v = min(raw)
        n = self.prec - v
        lead_inv = field._rinv(raw[v])
        neg_lead_inv = field._rneg(lead_inv)
        tail = sorted((e - v, c) for e, c in raw.items() if e != v)
        w = [lead_inv]
        for k in range(1, n):
            acc = None
            for i, c in tail:
                if i > k:
                    break
                x = w[k - i]
                if x:
                    x = mul(c, x)
                    acc = x if acc is None else add(acc, x)
            w.append(mul(acc, neg_lead_inv) if acc else None)
        return _series(field, {k - v: x for k, x in enumerate(w) if x}, n - v)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return _series(self.field, {e: c for e, c in self._raw.items() if e < prec}, prec)

    def euler_derivative(self):
        """t * d/dt, i.e. multiply each coefficient by its exponent."""
        field = self.field
        p, mul, to_raw = field.p, field._rmul, field._to_raw
        out = {e: mul(c, to_raw(e % p)) for e, c in self._raw.items() if e % p}
        return _series(field, out, self.prec)

    def u_derivative(self):
        """Coefficientwise d/du (rational function coefficients only;
        over F_q it raises once there is a coefficient to differentiate)."""
        from_raw = self.field._from_raw
        out = {}
        for e, c in self._raw.items():
            d = derivative_u(from_raw(c))
            if d:
                out[e] = d
        return _series(self.field, out, self.prec)

    # -- comparison and rendering -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.field is other.field
            and self._raw == other._raw
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.field, frozenset(self._raw.items()), self.prec))

    def agrees_with(self, other):
        """Equality on the overlapping known range."""
        return (self - other).is_zero_known()

    def __str__(self):
        raw = self._raw
        if not raw:
            return "0"
        text = self.field._text
        parts = []
        for e in sorted(raw):
            cs, wrap = text(raw[e])
            if e == 0:
                parts.append(cs)
                continue
            t = "t" if e == 1 else f"t^{e}"
            if cs == "1":
                parts.append(t)
            elif wrap:
                parts.append(f"({cs})*{t}")
            else:
                parts.append(f"{cs}*{t}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} + O(t^{self.prec})>"


_new_series = object.__new__
_set_series_field = LaurentSeries.field.__set__
_set_raw = LaurentSeries._raw.__set__
_set_prec = LaurentSeries.prec.__set__


def _series(field, raw, prec):
    """A LaurentSeries from a dict of raw values the caller has already
    cleaned (every exponent below ``prec``, every value nonzero), built
    through the slot descriptors without the constructor's conversion.
    The dict is taken over, not copied."""
    s = _new_series(LaurentSeries)
    _set_series_field(s, field)
    _set_raw(s, raw)
    _set_prec(s, prec)
    return s


def dot(pairs, cap=None):
    """The sum of a*b over a nonempty sequence of (a, b) pairs of series
    over one field; with ``cap``, that sum truncated at ``cap``, with no
    coefficient at or above ``cap`` computed.

    Value and precision equal those of the chain ``a0*b0 + a1*b1 + ...``.
    The chain is known below the least of its products' bounds
    min(a.prec + v(b), b.prec + v(a)), with v the lowest exponent, or
    ``prec`` for a series with no known term; it truncates at bounds no
    lower than that final one and drops zeros at the end, so skipping
    every term at or above the final bound gives the same series.  A
    pair with an empty operand contributes its bound and nothing else:
    it is not passed on, and when no pair is left no coefficient is
    computed.  The coefficients of the others come from
    ``fields.dot_coeffs``, which reads and returns raw values,
    accumulating ints, codes and unreduced F_p(u) fractions and
    canonicalising once per output exponent; canonical forms make that
    equal to the chain's element-by-element sums.  Its output is
    already clean, so the result is built by ``_series``.  A ``cap``
    below the final bound replaces it, which is ``truncate(cap)``.
    """
    bound = cap
    live = []
    for a, b in pairs:
        ac, bc = a._raw, b._raw
        if ac and bc:
            live.append((ac, bc))
        pair_bound = a.prec + (min(bc) if bc else b.prec)
        other_bound = b.prec + (min(ac) if ac else a.prec)
        if other_bound < pair_bound:
            pair_bound = other_bound
        if bound is None or pair_bound < bound:
            bound = pair_bound
    field = pairs[0][0].field
    return _series(field, dot_coeffs(field, live, bound) if live else {}, bound)


def linear_combination(terms):
    """The sum of n*s over a nonempty sequence of (n, s) pairs of an int
    and a series over one field: the value and precision of the chain
    ``s0.scale(n0) + s1.scale(n1) + ...``, in one pass over raw values.
    It is known below the least precision of the series it reads."""
    field = terms[0][1].field
    add, mul, to_raw = field._radd, field._rmul, field._to_raw
    prec = min(s.prec for _, s in terms)
    out = {}
    for n, s in terms:
        if s._raw and n % field.p:
            r = to_raw(n)
            for e, c in s._raw.items():
                if e < prec:
                    cur = out.get(e)
                    out[e] = mul(c, r) if cur is None else add(cur, mul(c, r))
    return _series(field, {e: c for e, c in out.items() if c}, prec)


def series_in_cut(s, cut):
    """Whether the series lies in the fractional ideal the cut denotes.

    Requires the known range to cover every exponent outside the cut;
    otherwise membership cannot be certified and InsufficientPrecision
    is raised (unless an offending coefficient is already visible).
    """
    least = _least_admitted(cut.value.numerator, cut.value.denominator, cut.closed)
    if s._raw and min(s._raw) < least:
        return False
    if s.prec < least:
        raise InsufficientPrecision(
            f"membership in {cut!r} needs knowledge below t^{least}, "
            f"series known below t^{s.prec}"
        )
    return True

