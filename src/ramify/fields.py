"""Exact arithmetic in the supported residue fields.

Two families are supported: the finite fields F_q, q = p^m, realised as
F_p[w] modulo a fixed irreducible polynomial, and the rational function
field F_p(u).  The distinction that matters downstream is perfectness:
every element of F_q is a p-th power, while F_p(u) has elements (such
as u) that are not.  Elements are immutable and written in a canonical
form, so equality of representations is equality in the field.

An element of F_q is one int, its *code*: the residue mod p in a prime
field, and the base-p number whose digits are the coefficients of
1, w, ..., w^(m-1) when m >= 2, so that ``element_at(i)`` has code i.
Fields with m >= 2 multiply, invert, add and take powers through
log/antilog and Zech tables built once per field, which bounds their
order by 2^16; building them also proves the modulus irreducible.
Field specs are interned, so two specs of one field are the same object.

Series keep their coefficients as *raw values* rather than elements:
the code itself over F_q (an int mod p over F_p, the table code when
m >= 2), and over F_p(u) the canonical ``ResidueElem``, whose (num,
den) pair is what the kernel reads.  Zero is the only falsy raw value.
Each field builds its raw add, negation, multiply, inverse and power
once, at construction (``_raw_ops``); ``FieldSpec._to_raw`` and
``FieldSpec._from_raw`` convert between raw values and elements, and
are the only places where series coefficients become elements or
elements become coefficients.  The F_q power of an element is the raw
one, a table lookup exp[log(a) * n mod (q - 1)] when m >= 2.

An ``Expr`` is a rational expression over a field.  ``evaluate`` walks
its tree once, over sparse Laurent polynomials in the variables its
``env`` leaves unbound, with raw coefficients, and keeps a polynomial
denominator only where a divisor has two or more terms; with every
variable bound the value is a constant and ``evaluate`` returns its
element.  ``check_identity`` decides two expressions equal in
F(x_1, ..., x_k) from their values at the generic point, so no verdict
depends on a sample or a seed.

Polynomials over F_p (the elements of F_p(u), and the field moduli) are
tuples of ints in [0, p), lowest degree first, with no trailing zeros;
() is the zero polynomial.

An F_p(u) fraction is put in lowest terms by one gcd: ``_cancel``
divides numerator and denominator by their monic ``_pgcd``.  ``_rat``
and ``dot_coeffs`` reduce through it, and element ``+`` and ``*``
follow Henrici's rules (Knuth, TAOCP vol. 2, 4.5.1), which run Euclid
on smaller polynomials: in a sum only a factor of the gcd g of the two
denominators can divide the numerator, so the gcd runs on that
numerator and g, and ``*`` cancels each numerator against the other
denominator.  Nothing is cached between operations: an element is its
canonical (num, den) pair.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import NamedTuple

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidSpec,
    NotAPthPower,
    NotRationalFunctionField,
    ZeroInput,
)

_ONE = (1,)

# Every field order lies below ORDER_LIMIT, where the Miller-Rabin test
# below is exact; fields of degree >= 2 keep tables of q entries, so their
# order is at most TABLE_LIMIT.
ORDER_LIMIT = 2 ** 64
TABLE_LIMIT = 2 ** 16

# With these bases Miller-Rabin is exact below 3.3 * 10^24 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for n < ORDER_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trim(cs):
    i = len(cs)
    while i and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _pneg(a, p):
    return tuple((-c) % p for c in a)


def _psub(a, b, p):
    return _padd(a, _pneg(b, p), p)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _pdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return (), _trim(a)
    if len(b) == 2 and b[1] == 1:  # by u - root: synthetic division
        root = -b[0] % p
        if not root:
            return _trim(a[1:]), _trim(a[:1])
        acc, out = 0, []
        for c in reversed(a):
            acc = (acc * root + c) % p
            out.append(acc)
        return _trim(out[-2::-1]), _trim(out[-1:])
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * (len(rem) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        c = (rem[i + len(b) - 1] * inv_lead) % p
        if c:
            quot[i] = c
            for j, cb in enumerate(b):
                rem[i + j] = (rem[i + j] - c * cb) % p
    return _trim(quot), _trim(rem)


def _pmonic(a, p):
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple((c * inv) % p for c in a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _cancel(a, b, p):
    """(a/g, b/g) for the monic g = gcd(a, b); b is nonzero."""
    g = _pgcd(a, b, p)
    if len(g) > 1:
        return _pdivmod(a, g, p)[0], _pdivmod(b, g, p)[0]
    return a, b


def _proot(a, p):
    """The r with r^p = a, or None when a is not a p-th power: over F_p,
    r(u)^p = r(u^p), so r exists when every term of a has an exponent
    divisible by p, and its coefficients are those of a at 0, p, 2p, ..."""
    if any(x and i % p for i, x in enumerate(a)):
        return None
    return a[::p]


def _pderiv(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _ppow_mod(base, e, mod, p):
    result = _ONE
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _ppoly_str(cs, var):
    if not cs:
        return "0"
    parts = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            tail = var if e == 1 else f"{var}^{e}"
            parts.append(head + tail)
    return "+".join(parts)


def _digits(code, p, m):
    """The coefficient vector of a code, without trailing zeros."""
    out = []
    for _ in range(m):
        code, digit = divmod(code, p)
        out.append(digit)
    return _trim(out)


def _field_tables(p, m, modulus):
    """(log, exp, zech, neg) for F_p[w]/(modulus), m >= 2, q = p^m.

    For a primitive element g and n = q - 1: ``exp[k]`` is the code of
    g^k, stored twice over (length 2n) so that a sum of two logs indexes
    it directly; ``log`` inverts it, with ``log[0]`` the float -inf,
    the log of zero.  ``zech[d]`` is log(1 + g^d), so -inf where
    1 + g^d = 0, and g^i + g^j = g^(i + zech[j - i]); a difference
    j - i in (-n, n) reads it through Python's negative indexing, which
    is the reduction mod n.  The operations test a Zech entry with
    ``z >= 0`` and never read ``log[0]``.  ``neg`` maps a code to the
    code of its negative.

    The powers of g are walked on digit lists: g has low degree, so one
    step costs O(m) integer operations.  The walk also proves the modulus
    irreducible: F_p[w]/(modulus) is a field exactly when some g has q - 1
    distinct nonzero powers (F_q* is cyclic; Lidl and Niederreiter,
    *Finite Fields*, Thm 2.8), so a power g^k, 0 < k < q - 1, that is 0,
    1 or a repeat raises InvalidSpec.
    """
    q = p ** m
    n = q - 1
    divisors = _prime_divisors(n)
    # Over a reducible modulus the search still ends: a nonconstant factor
    # of the modulus is a zero divisor among the candidates, and no power
    # of a zero divisor is 1.  The largest r goes first: its power is the
    # cheapest, and over a product of two octics over F_2 it fails every
    # unit at once (their orders divide 255 = n/257).
    g = next(
        g for g in (_digits(c, p, m) for c in range(p, q))
        if all(_ppow_mod(g, n // r, modulus, p) != _ONE for r in reversed(divisors))
    )
    red = [(-c) % p for c in modulus[:m]]  # w^m as a vector
    weights = [p ** i for i in range(m)]
    exp = [1] * (2 * n)  # g^0 at 0 and n; the walk fills in the rest
    log = [0] * q
    vec = [1] + [0] * (m - 1)
    for k in range(1, n):
        acc = [0] * m
        for gi in g:  # vec * g, one power of w at a time
            if gi:
                acc = [a + gi * v for a, v in zip(acc, vec)]
            top = vec[-1]
            vec = [0] + vec[:-1]
            if top:
                vec = [(v + top * r) % p for v, r in zip(vec, red)]
        vec = [a % p for a in acc]
        code = sum(d * wt for d, wt in zip(vec, weights))
        if code <= 1 or log[code]:
            raise InvalidSpec("modulus is reducible over F_p")
        exp[k] = exp[k + n] = code
        log[code] = k
    log[0] = float("-inf")
    zech = [0] * n
    for d in range(n):
        c = exp[d]
        zech[d] = log[c - c % p + (c + 1) % p]  # + 1 changes the lowest digit only
    minus_one = log[p - 1]  # the code of -1 is p - 1
    neg = [0] + [exp[log[c] + minus_one] for c in range(1, q)]
    return log, exp, zech, neg


# Fixed moduli used when a field is requested by its order alone (the
# CLI tower command).  These are constants of the artifact, not
# discovered at runtime.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),          # w^2+w+1
    (2, 3): (1, 1, 0, 1),       # w^3+w+1
    (2, 4): (1, 1, 0, 0, 1),    # w^4+w+1
    (2, 6): (1, 0, 0, 0, 0, 1, 1),  # w^6+w^5+1
    (3, 2): (1, 0, 1),          # w^2+1
    (3, 3): (1, 2, 0, 1),       # w^3+2w+1
    (3, 4): (1, 0, 1, 1, 1),    # w^4+w^3+w^2+1
    (5, 2): (1, 1, 1),          # w^2+w+1
    (5, 3): (1, 1, 0, 1),       # w^3+w+1
    (7, 2): (1, 0, 1),          # w^2+1
}

_INTERNED = {}  # (p, kind, degree, modulus, var) -> FieldSpec


class FieldSpec:
    """Description of a coefficient field: F_q or F_p(u).

    Finite fields are F_p[w]/(modulus) for a fixed monic irreducible
    modulus of degree m supplied at construction time.  Instances are
    immutable, hashable and interned: constructing the same field
    presentation twice returns the same object, so equality is identity.
    """

    __slots__ = (
        "p", "kind", "degree", "modulus", "var", "is_finite", "order",
        "_hash", "_log", "_exp", "_zech", "_neg", "_zero", "_one",
        "_radd", "_rneg", "_rmul", "_rinv", "_rpow",
    )

    FINITE = "finite"
    RATIONAL = "rational"

    def __new__(cls, p, kind, degree=1, modulus=None, var=None):
        if p >= ORDER_LIMIT:
            raise InvalidSpec(f"characteristic {p} is not below 2^64")
        if not _is_prime(p):
            raise InvalidSpec(f"characteristic {p} is not prime")
        if kind not in (cls.FINITE, cls.RATIONAL):
            raise InvalidSpec(f"unknown field kind {kind!r}")
        if kind == cls.FINITE:
            if degree < 1:
                raise InvalidSpec("extension degree must be at least 1")
            if degree == 1:
                modulus = None
            else:
                if modulus is None:
                    raise InvalidSpec("degree > 1 needs an explicit modulus")
                if degree > 16 or p ** degree > TABLE_LIMIT:
                    raise InvalidSpec("extension fields of degree >= 2 need q <= 2^16")
                modulus = _trim(tuple(c % p for c in modulus))
            var = var or "w"
        else:
            degree = 1
            modulus = None
            var = var or "u"
        key = (p, kind, degree, modulus, var)
        self = _INTERNED.get(key)
        if self is not None:
            return self
        tables = (None,) * 4
        if modulus is not None:
            if len(modulus) != degree + 1:
                raise InvalidSpec("modulus degree does not match field degree")
            if modulus[-1] != 1:
                raise InvalidSpec("modulus must be monic")
            tables = _field_tables(p, degree, modulus)
        self = object.__new__(cls)
        finite = kind == cls.FINITE
        log, exp, zech, neg = tables
        for name, value in (
            ("p", p), ("kind", kind), ("degree", degree), ("modulus", modulus),
            ("var", var), ("is_finite", finite), ("order", p ** degree if finite else None),
            ("_hash", hash(key)), ("_log", log), ("_exp", exp), ("_zech", zech), ("_neg", neg),
            ("_zero", _elem(self, 0) if finite else _elem(self, (), _ONE)),
            ("_one", _elem(self, 1) if finite else _elem(self, _ONE, _ONE)),
        ):
            object.__setattr__(self, name, value)
        for name, value in zip(("_radd", "_rneg", "_rmul", "_rinv", "_rpow"), _raw_ops(self)):
            object.__setattr__(self, name, value)
        _INTERNED[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    @classmethod
    def finite(cls, p, degree=1, modulus=None, var="w"):
        if degree > 1 and modulus is None:
            modulus = DEFAULT_MODULI.get((p, degree))
            if modulus is None:
                raise InvalidSpec(f"no built-in modulus for F_{p**degree}")
        return cls(p, cls.FINITE, degree, modulus, var)

    @classmethod
    def rational(cls, p, var="u"):
        return cls(p, cls.RATIONAL, var=var)

    # -- basic structure ------------------------------------------------

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_finite:
            return f"F{self.order}"
        return f"F{self.p}({self.var})"

    # -- raw values -------------------------------------------------------

    def _to_raw(self, c):
        """The raw value of c, an element of this field or an int (read
        through ``from_int``)."""
        if c.__class__ is not ResidueElem:
            if not isinstance(c, int):
                raise FieldMismatch(f"cannot use {type(c).__name__} as an element of {self!r}")
            return c % self.p if self.is_finite else self.from_int(c)
        elif c.field is not self:
            raise FieldMismatch(f"{c.field!r} vs {self!r}")
        return c._a if self.is_finite else c

    def _from_raw(self, r):
        """The element whose raw value is r."""
        return _elem(self, r) if self.is_finite else r

    def _text(self, r):
        """(text, wrap) of the raw value r: the text of its element, and
        whether it needs parentheses as a factor.  Coefficients are
        written as digits 0..p-1, so a text has no '-': it needs them
        for a top-level '+' or, over F_p(u), a '/'.  Over F_p it is one
        digit and never does."""
        if self.is_finite:
            if self.degree == 1:
                return str(r), False
            text = _ppoly_str(_digits(r, self.p, self.degree), self.var)
            return text, "+" in text
        num = _ppoly_str(r._a, self.var)
        if r._b == _ONE:
            return num, "+" in num
        den = _ppoly_str(r._b, self.var)
        if "+" in num:
            num = f"({num})"
        if "+" in den:
            den = f"({den})"
        return f"{num}/{den}", True

    # -- element constructors -------------------------------------------

    def _rat(self, num, den):
        num, den = _trim(num), _trim(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return self._zero
        if len(den) > 1:
            num, den = _cancel(num, den, self.p)
        if den[-1] != 1:
            inv = pow(den[-1], -1, self.p)
            num = tuple((c * inv) % self.p for c in num)
            den = tuple((c * inv) % self.p for c in den)
        return _elem(self, num, den if len(den) > 1 else _ONE)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        if self.is_finite:
            return _elem(self, n % self.p)
        return self._rat((n % self.p,), _ONE)

    def from_vector(self, vec):
        if not self.is_finite:
            raise FieldMismatch("coefficient vectors describe finite fields only")
        vec = [c % self.p for c in vec]
        if len(vec) > self.degree:
            raise InvalidSpec("vector longer than field degree")
        return _elem(self, sum(c * self.p ** i for i, c in enumerate(vec)))

    def from_polys(self, num, den=_ONE):
        if self.is_finite:
            raise FieldMismatch("numerator/denominator pairs describe F_p(u) only")
        return self._rat(tuple(c % self.p for c in num), tuple(c % self.p for c in den))

    def generator(self):
        """w for F_q with m >= 2, u for F_p(u)."""
        if self.is_finite:
            if self.degree < 2:
                raise InvalidSpec("prime fields have no distinguished generator")
            return self.from_vector((0, 1))
        return self.from_polys((0, 1))

    # -- enumeration ------------------------------------------------------

    def element_at(self, index):
        """The index-th element of F_q in base-p digit order."""
        if not self.is_finite:
            raise FieldMismatch("enumeration is for finite fields")
        return _elem(self, index % self.order)

    def elements(self):
        if not self.is_finite:
            raise FieldMismatch("enumeration is for finite fields")
        return (self.element_at(i) for i in range(self.order))


class ResidueElem:
    """An element of F_q (an int code) or F_p(u) (a num/den pair).

    ``_a`` is the code of an F_q element, with ``_b`` None, or the
    numerator of an F_p(u) element, with ``_b`` its denominator.
    Canonical form: F_p(u) elements are in lowest terms with a monic
    denominator, so ``==`` on representations decides field equality.
    Zero is the only element whose ``_a`` is falsy.  Elements are made
    by the field (``FieldSpec.from_int`` and friends), not directly.
    """

    __slots__ = ("field", "_a", "_b")

    def __setattr__(self, name, value):
        raise AttributeError("ResidueElem is immutable")

    # -- helpers ---------------------------------------------------------

    def _check(self, other):
        """other as an element of this field: an int is read through
        ``from_int`` and an element of another field raises
        FieldMismatch.  Any other operand gives NotImplemented, so that
        Python tries its reflected operator (a LaurentSeries takes a
        scalar on either side)."""
        if not isinstance(other, ResidueElem):
            if isinstance(other, int):
                return self.field.from_int(other)
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def is_zero(self):
        return not self._a

    def __bool__(self):
        return bool(self._a)

    # -- arithmetic -------------------------------------------------------
    # F_q elements (``_b`` None) use the field's raw ops; F_p(u) elements
    # combine their polynomial pairs here.

    def __add__(self, other):
        f = self.field
        if other.__class__ is not ResidueElem or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return other
        a, b = self._a, other._a
        da, db = self._b, other._b
        if da is None:
            return _elem(f, f._radd(a, b))
        # With one denominator 1, n/d + c = (n + c*d)/d is in lowest terms
        # already: gcd(n + c*d, d) = gcd(n, d) = 1, and d is monic.
        p = f.p
        if da == _ONE:
            if db == _ONE:
                return _elem(f, _padd(a, b, p), _ONE)
            return _elem(f, _padd(_pmul(a, db, p), b, p), db)
        if db == _ONE:
            return _elem(f, _padd(a, _pmul(b, da, p), p), da)
        # Henrici: with g = gcd(da, db), a/da + b/db = t / ((da/g) * db) for
        # t = a*(db/g) + b*(da/g), and only a factor of g can divide both
        # t and that denominator.  So coprime denominators give lowest terms
        # at once, and otherwise the gcd runs on t and g alone.
        g = _pgcd(da, db, p)
        if len(g) == 1:
            return _elem(f, _padd(_pmul(a, db, p), _pmul(b, da, p), p), _pmul(da, db, p))
        da = _pdivmod(da, g, p)[0]
        t = _padd(_pmul(a, _pdivmod(db, g, p)[0], p), _pmul(b, da, p), p)
        if not t:
            return f._zero
        h = _pgcd(t, g, p)
        if len(h) > 1:
            t, db = _pdivmod(t, h, p)[0], _pdivmod(db, h, p)[0]
        return _elem(f, t, _pmul(da, db, p))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if self._b is None:
            return _elem(f, f._rneg(self._a))
        return _elem(f, _pneg(self._a, f.p), self._b)

    def __sub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not ResidueElem or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return other
        a, b = self._a, other._a
        da, db = self._b, other._b
        if da is None:
            return _elem(f, f._rmul(a, b))
        if not a or not b:
            return f._zero
        # Henrici: cancel gcd(a, db) and gcd(b, da) first.  The factors
        # left are pairwise coprime, so the product is in lowest terms, and
        # its denominator is a product of monic polynomials.  A nonzero
        # constant c of F_p is a unit of F_p[u]: c*n/d keeps d and its
        # lowest terms, so it only scales n mod p.
        p = f.p
        if da == _ONE:
            if db == _ONE:
                return _elem(f, _pmul(a, b, p), _ONE)
            if len(a) == 1:
                c = a[0]
                return _elem(f, tuple(c * x % p for x in b), db)
        elif db == _ONE and len(b) == 1:
            c = b[0]
            return _elem(f, tuple(c * x % p for x in a), da)
        if db != _ONE:
            a, db = _cancel(a, db, p)
        if da != _ONE:
            b, da = _cancel(b, da, p)
        den = db if da == _ONE else da if db == _ONE else _pmul(da, db, p)
        return _elem(f, _pmul(a, b, p), den)

    __rmul__ = __mul__

    def inverse(self):
        a = self._a
        if not a:
            raise DivisionByZero("inverse of zero")
        f = self.field
        if self._b is None:
            return _elem(f, f._rinv(a))
        # b/a is in lowest terms already: only its denominator is scaled monic
        if a[-1] != 1:
            inv = pow(a[-1], -1, f.p)
            return _elem(f, tuple(c * inv % f.p for c in self._b), _pmonic(a, f.p))
        return _elem(f, self._b, a)

    def __truediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other * self.inverse()

    def __pow__(self, n):
        f = self.field
        if self._b is None:  # F_q: one table lookup or one modular power
            return _elem(f, f._rpow(self._a, n))
        if n < 0:
            return self.inverse() ** (-n)
        result = f._one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, ResidueElem)
            and self.field is other.field
            and self._a == other._a
            and self._b == other._b
        )

    def __hash__(self):
        return hash((self.field, self._a, self._b))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return self.field._text(self._a if self._b is None else self)[0]

    def __repr__(self):
        return f"{self.field!r}:{self}"


_new_elem = object.__new__
_set_field = ResidueElem.field.__set__
_set_a = ResidueElem._a.__set__
_set_b = ResidueElem._b.__set__


def _elem(field, a, b=None):
    """A ResidueElem from its representation: the code a of an F_q
    element, or the canonical (num, den) = (a, b) of an F_p(u) element.
    It bypasses the immutability guard through the slot descriptors."""
    e = _new_elem(ResidueElem)
    _set_field(e, field)
    _set_a(e, a)
    _set_b(e, b)
    return e


def _zero_pow(n):
    """0^n as a raw value of F_q, with 0^0 = 1."""
    if n < 0:
        raise DivisionByZero("inverse of zero")
    return 0 if n else 1


def _raw_ops(field):
    """(add, neg, mul, inv, pow) on raw values of ``field``; inv takes a
    nonzero value and pow an int exponent.  F_q with m >= 2 reads the
    tables, F_p reduces mod p, and F_p(u), whose raw values are
    elements, uses the element operators."""
    log, p = field._log, field.p
    if log is not None:
        exp, zech, n = field._exp, field._zech, field.order - 1

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return exp[la + z] if z >= 0 else 0

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            return exp[-log[a]]  # exp has period n: index -k is g^-k

        def pow_(a, k):
            return exp[log[a] * k % n] if a else _zero_pow(k)

        return add, field._neg.__getitem__, mul, inv, pow_
    if field.is_finite:
        return (
            lambda a, b: (a + b) % p,
            lambda a: -a % p,
            lambda a, b: a * b % p,
            lambda a: pow(a, -1, p),
            lambda a, k: pow(a, k % (p - 1), p) if a else _zero_pow(k),
        )
    return operator.add, operator.neg, operator.mul, lambda a: a.inverse(), operator.pow


def dot_coeffs(field, pairs, bound):
    """The coefficients below ``bound`` of the sum of a*b, for (a, b)
    pairs of dicts from exponents to nonzero raw values of ``field``,
    as one such dict.

    No element arithmetic runs in the loop: F_p sums plain ints and
    reduces mod p once per output exponent; F_q (m >= 2) multiplies
    codes through the log table and adds them through the Zech table,
    code 0 meaning "nothing yet".  F_p(u) keeps, per exponent and pair
    of factor denominators (d1, d2), one list of plain ints into which
    each numerator convolution is added unreduced, so no polynomial is
    multiplied to find a group; each list is reduced mod p and trimmed
    once.  The groups are then joined over the lcm: with g = gcd(D, d),
    N/D + n/d = (N*(d/g) + n*(D/g)) / (D*(d/g)), and one ``_rat`` per
    exponent puts the sum in lowest terms.  Zero sums are dropped.

    One live pair with a one-term operand {e1: c} is a shift and a scale:
    the result is {e1 + e: c*x} over the other operand's terms below the
    bound, a copy when c is one, with no accumulation and no gcd (a
    product of nonzero values is nonzero).
    """
    if len(pairs) == 1:
        a, b = sorted(pairs[0], key=len)
        if len(a) == 1:
            ((e1, c),) = a.items()
            lim, mul = bound - e1, field._rmul
            if c == (1 if field.is_finite else field._one):
                return {e1 + e: x for e, x in b.items() if e < lim}
            return {e1 + e: mul(c, x) for e, x in b.items() if e < lim}
    p = field.p
    acc = {}
    get = acc.get
    log = field._log
    if log is not None:
        exp, zech, n = field._exp, field._zech, field.order - 1
        for a, b in pairs:
            b_logs = [(e2, log[c]) for e2, c in b.items()]
            for e1, c1 in a.items():
                l1, lim = log[c1], bound - e1
                for e2, l2 in b_logs:
                    if e2 < lim:
                        e = e1 + e2
                        s = get(e, 0)
                        if s:
                            ls = log[s]
                            k = l1 + l2 - ls  # g^ls + g^(ls + k) = g^(ls + zech[k])
                            if k >= n:
                                k -= n
                            z = zech[k]
                            acc[e] = exp[ls + z] if z >= 0 else 0
                        else:
                            acc[e] = exp[l1 + l2]
        return {e: s for e, s in acc.items() if s}
    if field.is_finite:
        for a, b in pairs:
            for e1, x in a.items():
                lim = bound - e1
                for e2, y in b.items():
                    if e2 < lim:
                        e = e1 + e2
                        acc[e] = get(e, 0) + x * y
        return {e: r for e, s in acc.items() if (r := s % p)}
    for a, b in pairs:
        b_fracs = [(e2, c._a, c._b) for e2, c in b.items()]
        for e1, c1 in a.items():
            n1, d1, lim = c1._a, c1._b, bound - e1
            for e2, n2, d2 in b_fracs:
                if e2 < lim:
                    e = e1 + e2
                    groups = get(e)
                    if groups is None:
                        groups = acc[e] = {}
                    size = len(n1) + len(n2) - 1
                    cur = groups.get((d1, d2))
                    if cur is None:
                        cur = groups[d1, d2] = [0] * size
                    elif len(cur) < size:
                        cur += [0] * (size - len(cur))
                    for i, x in enumerate(n1):
                        if x:
                            for j, y in enumerate(n2, i):
                                cur[j] += x * y
    out = {}
    for e, groups in acc.items():
        num, den = (), _ONE
        for (d1, d2), cur in groups.items():
            n = _trim([c % p for c in cur])
            if not n:
                continue
            d = d2 if d1 == _ONE else d1 if d2 == _ONE else _pmul(d1, d2, p)
            if not num:
                num, den = n, d
                continue
            den_g, d_g = _cancel(den, d, p) if len(den) > 1 and len(d) > 1 else (den, d)
            num = _padd(_pmul(num, d_g, p), _pmul(n, den_g, p), p)
            den = _pmul(den, d_g, p)
        if num:
            out[e] = field._rat(num, den)
    return out


def is_pth_power(c):
    """Whether c lies in k^p; requires c != 0.

    Finite fields are perfect, so the answer is always True there.  In
    F_p(u) the element is a p-th power exactly when every exponent of
    the reduced numerator and denominator is divisible by p (the
    coefficients live in F_p, which is perfect).
    """
    if c.is_zero():
        raise ZeroInput("zero has no meaningful k^p membership here")
    if c.field.is_finite:
        return True
    p = c.field.p
    return _proot(c._a, p) is not None and _proot(c._b, p) is not None


def frobenius_root(c):
    """The unique r with r^p = c, for c in k^p."""
    f = c.field
    if f.is_finite:
        if c.is_zero():
            return c
        return c ** (f.order // f.p)
    if c.is_zero():
        return c
    num, den = _proot(c._a, f.p), _proot(c._b, f.p)
    if num is None or den is None:
        raise NotAPthPower(f"{c} is not a p-th power in {f!r}")
    return f.from_polys(num, den)


def derivative_u(c):
    """Formal d/du on F_p(u), by the quotient rule."""
    f = c.field
    if f.is_finite:
        raise NotRationalFunctionField("d/du needs the rational function field")
    p = f.p
    num = _psub(
        _pmul(_pderiv(c._a, p), c._b, p),
        _pmul(c._a, _pderiv(c._b, p), p),
        p,
    )
    return f.from_polys(num, _pmul(c._b, c._b, p))


def trace_to_prime(c):
    """Trace from F_q down to F_p, as an integer in [0, p)."""
    f = c.field
    if not f.is_finite:
        raise FieldMismatch("absolute trace is defined on finite fields")
    acc = f.zero()
    x = c
    for _ in range(f.degree):
        acc = acc + x
        x = x ** f.p
    return acc._a


def artin_schreier_solvable(c):
    """Whether x^p - x = c has a solution x in the coefficient field.

    For F_q this is the absolute-trace criterion.  For F_p(u) any
    solution P/Q in lowest terms satisfies (P/Q)^p - P/Q =
    (P^p - P Q^(p-1)) / Q^p in lowest terms, so the denominator of c
    must be a p-th power Q^p and P solves an F_p-linear system.
    """
    f = c.field
    p = f.p
    if f.is_finite:
        return trace_to_prime(c) == 0
    if c.is_zero():
        return True
    q_poly = _proot(c._b, p)
    if q_poly is None:
        return False
    g_poly = c._a
    deg_q = len(q_poly) - 1
    deg_g = len(g_poly) - 1
    bound = max(deg_q, -(-(deg_g) // p), 0)
    qp1 = _ONE
    for _ in range(p - 1):
        qp1 = _pmul(qp1, q_poly, p)
    rows = max(p * bound, bound + len(qp1) - 1, deg_g) + 1
    # unknowns: coefficients P_0..P_bound; equation P^p - P*Q^(p-1) = G
    matrix = [[0] * (bound + 1) for _ in range(rows)]
    for j in range(bound + 1):
        if p * j < rows:
            matrix[p * j][j] = (matrix[p * j][j] + 1) % p
        for i, qc in enumerate(qp1):
            if qc and i + j < rows:
                matrix[i + j][j] = (matrix[i + j][j] - qc) % p
    rhs = [g_poly[i] if i <= deg_g else 0 for i in range(rows)]
    # Gaussian elimination over F_p
    pivot_row = 0
    for col in range(bound + 1):
        sel = None
        for r in range(pivot_row, rows):
            if matrix[r][col]:
                sel = r
                break
        if sel is None:
            continue
        matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
        rhs[pivot_row], rhs[sel] = rhs[sel], rhs[pivot_row]
        inv = pow(matrix[pivot_row][col], -1, p)
        matrix[pivot_row] = [(x * inv) % p for x in matrix[pivot_row]]
        rhs[pivot_row] = (rhs[pivot_row] * inv) % p
        for r in range(rows):
            if r != pivot_row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [
                    (x - factor * y) % p for x, y in zip(matrix[r], matrix[pivot_row])
                ]
                rhs[r] = (rhs[r] - factor * rhs[pivot_row]) % p
        pivot_row += 1
    return not any(rhs[r] and not any(matrix[r]) for r in range(rows))


# ---------------------------------------------------------------------------
# Multivariate rational expressions and exact identity testing
# ---------------------------------------------------------------------------


class Expr:
    """Expression tree over a residue field: constants, variables,
    +, -, *, /, integer powers.

    ``evaluate`` computes each distinct node of the tree once per call
    and keeps nothing between calls.
    """

    __slots__ = ("op", "args", "payload")

    def __init__(self, op, args=(), payload=None):
        self.op = op
        self.args = args
        self.payload = payload

    @classmethod
    def const(cls, value):
        return cls("const", payload=value)

    @classmethod
    def var(cls, name):
        return cls("var", payload=name)

    def _lift(self, other):
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, ResidueElem)):
            return Expr.const(other)
        raise FieldMismatch(f"cannot use {type(other).__name__} in an Expr")

    def __add__(self, other):
        return Expr("add", (self, self._lift(other)))

    def __radd__(self, other):
        return self._lift(other) + self

    def __sub__(self, other):
        return Expr("sub", (self, self._lift(other)))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        return Expr("mul", (self, self._lift(other)))

    def __rmul__(self, other):
        return self._lift(other) * self

    def __truediv__(self, other):
        return Expr("div", (self, self._lift(other)))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise InvalidSpec("powers must be nonnegative integers")
        return Expr("pow", (self,), payload=n)

    def __neg__(self):
        return Expr("neg", (self,))

    def evaluate(self, env, field):
        """The value over ``field`` with the variables that ``env`` binds,
        a dict from names to elements of ``field`` or ints.

        With every variable bound it is an element of ``field``.  With
        some left unbound it is a quotient (num, den) of polynomials over
        ``field`` in those variables, den nonzero and the pair not
        reduced: each a dict from a monomial, the tuple of its (name,
        exponent) pairs sorted by name (() for 1), to a nonzero raw
        value.  A constant or bound value outside ``field`` raises
        FieldMismatch, and a division by the zero polynomial
        DivisionByZero.

        The tree is flattened to its distinct nodes in post-order, and one
        pass over them computes each node once, as a Laurent polynomial n
        over exponent vectors (one exponent per unbound variable, in name
        order), or as n/d once a divisor of two or more terms has left a
        polynomial d.  A divisor of one term divides out: its exponents
        subtract and its coefficient is inverted, so the sum of two
        quotients over one d merges their terms and never
        cross-multiplies.  The negative exponents of the result are
        cleared into den."""
        order, free, stack = {}, set(), [self]  # the distinct nodes, in post-order
        while stack:
            node = stack.pop()
            if node in order:
                continue
            if not all(map(order.__contains__, node.args)):  # the children come first
                stack.extend((node, *node.args))
                continue
            order[node] = None
            if node.op == "var" and node.payload not in env:
                free.add(node.payload)
        names = sorted(free)
        zero = (0,) * len(names)
        one, neg = field._to_raw(field._one), field._rneg
        known = {}  # node -> (n, d), d None for 1
        for node in order:
            op, args = node.op, node.args
            if op == "const" or op == "var" and node.payload in env:
                c = field._to_raw(node.payload if op == "const" else env[node.payload])
                value = ({zero: c} if c else {}), None
            elif op == "var":
                value = {tuple(map(int, map(node.payload.__eq__, names))): one}, None
            elif op == "neg":
                n, d = known[args[0]]
                value = dict(zip(n, map(neg, n.values()))), d
            elif op == "pow" and not node.payload:
                value = {zero: one}, None
            elif op == "pow":
                n, d = known[args[0]]
                value = _laurent_pow(n, node.payload, field), d and _laurent_pow(d, node.payload, field)
            elif op in ("add", "sub", "mul", "div"):
                (n1, d1), (n2, d2) = known[args[0]], known[args[1]]
                if op == "mul":
                    value = _laurent_mul(n1, n2, field), (d1 or d2) and _laurent_mul(d1, d2, field)
                elif op == "div" and not n2:
                    raise DivisionByZero("division by the zero polynomial")
                elif op == "div" and len(n2) == 1:
                    (m, c), = n2.items()
                    term = {tuple(map(operator.neg, m)): field._rinv(c)}
                    value = _laurent_mul(n1, _laurent_mul(term, d2, field) if d2 else term, field), d1
                elif op == "div":
                    value = _laurent_mul(n1, d2, field), _laurent_mul(d1, n2, field)
                else:
                    if op == "sub":
                        n2 = dict(zip(n2, map(neg, n2.values())))
                    if d1 != d2:
                        n1, n2 = _laurent_mul(n1, d2, field), _laurent_mul(n2, d1, field)
                        d1 = _laurent_mul(d1, d2, field)
                    value = _laurent_sum(n1, n2.items(), field._radd), d1
            else:
                raise InvalidSpec(f"unknown node {op!r}")
            known[node] = value
        num, den = known[self]
        if not names:  # each divisor was one constant term, so den is 1
            return field._from_raw(num[()]) if num else field._zero
        if not num:
            return {}, {(): one}
        low = list(map(min, zip(zero, *num, *(den or ()))))  # den None is 1

        def cleared(poly):  # (name, e - lo) for each e != lo, built without a Python call
            sub, ne = operator.sub, operator.ne
            return {tuple(compress(zip(names, map(sub, m, low)), map(ne, m, low))): c
                    for m, c in poly.items()}

        den = cleared(den) if den else {tuple(compress(zip(names, map(operator.neg, low)), low)): one}
        return cleared(num), den


def _laurent_sum(f, terms, add):
    """f plus ``terms``, pairs (monomial, nonzero raw value), as a
    Laurent polynomial of ``Expr.evaluate``: a new dict holding no zero."""
    out = dict(f)
    for m, c in terms:
        if m in out:
            c = add(out.pop(m), c)
            if not c:
                continue
        out[m] = c
    return out


def _laurent_mul(f, g, field):
    """f * g for Laurent polynomials of ``Expr.evaluate``, None for 1.
    A factor of one term shifts and scales the other: no two of the
    products meet and none vanishes."""
    if f is None or g is None:
        return g if f is None else f
    if len(f) > len(g):
        f, g = g, f
    mul, add = field._rmul, operator.add
    terms = [(tuple(map(add, m, e)), mul(c, b)) for m, c in f.items() for e, b in g.items()]
    return dict(terms) if len(f) == 1 else _laurent_sum({}, terms, field._radd)


def _laurent_pow(f, k, field):
    """f^k for a Laurent polynomial of ``Expr.evaluate`` and k >= 1.  A
    term's power is one product of its exponents, so a huge k costs no
    loop over its bits."""
    if len(f) <= 1:
        return {tuple(map(k.__mul__, m)): field._rpow(c, k) for m, c in f.items()}
    result = f
    for bit in bin(k)[3:]:
        result = _laurent_mul(result, result, field)
        if bit == "1":
            result = _laurent_mul(result, f, field)
    return result


class IdentityCheck(NamedTuple):
    """Outcome of an exact identity test.  ``witness`` is None on a
    pass, and otherwise the least monomial of the numerator of
    lhs - rhs, as a dict from variable names to exponents."""

    ok: bool
    witness: dict | None


def check_identity(lhs, rhs, field):
    """Decide lhs = rhs in F(x_1, ..., x_k), F = ``field`` and x_1..x_k
    the variables of either side.

    ``Expr.evaluate`` takes lhs and then rhs at the generic point, where
    no variable is bound, so DivisionByZero and FieldMismatch come from
    the first side that raises one.  Two equal values pass at once; that
    is how an identity holds whose divisors are single terms, as each
    side's value is then the one pair of its rational function.
    Otherwise lhs - rhs is walked once more: the identity holds exactly
    when the numerator it returns is the zero polynomial, and a
    failure's witness is that numerator's least monomial.  This is
    equality of rational functions, not agreement at the points of F^k:
    over F_q, x^q and x differ.
    """
    if lhs.evaluate({}, field) == rhs.evaluate({}, field):
        return IdentityCheck(True, None)
    value = (lhs - rhs).evaluate({}, field)
    if value.__class__ is not tuple:  # two unequal elements: neither side has a variable
        return IdentityCheck(False, {})
    return IdentityCheck(False, dict(min(value[0]))) if value[0] else IdentityCheck(True, None)
