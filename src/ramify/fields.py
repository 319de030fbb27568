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

An ``Expr`` is evaluated the same way: its first evaluation over a
field compiles the tree once into nested closures over that field's raw
operations, with every constant converted then, and keeps them on the
root.  Each later evaluation converts the point to raw values, runs the
closures and converts the result back, so no element is built inside
the tree.

Polynomials over F_p (the elements of F_p(u), and the field moduli) are
tuples of ints in [0, p), lowest degree first, with no trailing zeros;
() is the zero polynomial.

Each F_p(u) field keeps a coprime base (``_CoprimeBase``): monic
polynomials over F_p, pairwise coprime but not necessarily irreducible,
grown on demand (Bernstein, "Factoring into coprimes in essentially
linear time", J. Algorithms 54, 2005).  Every canonical denominator is
a product of powers of base elements, so it has an exponent *vector*
over the base; an element caches its vector, stamped with the base's
refinement count, so that a split of a base element invalidates it.
The lcm of two denominators is the elementwise max of their vectors and
the product their sum, with no gcd.  ``_CoprimeBase.cancel`` is the one
routine that reduces an F_p(u) fraction: it divides each base factor the
vector allows out of the numerator, and splits a base element that
shares only a proper factor with it.  ``_rat``, element ``+`` and ``*``
(Henrici's rules, Knuth, TAOCP vol. 2, 4.5.1: only a common factor of
the two denominators can cancel in a sum, and ``*`` cancels each
numerator against the other denominator) and ``dot_coeffs`` all reduce
through it.  The base is a cache: values, equality, hashing and printing
read the canonical (num, den) pair alone.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooSmall,
    InvalidSpec,
    NotAPthPower,
    NotRationalFunctionField,
    ZeroInput,
)
from .records import encode

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


# Exponent vectors over a coprime base are tuples of ints without trailing
# zeros, trimmed like polynomials by ``_trim``.


def _vadd(v, w):
    """The sum of two exponent vectors: the product's vector."""
    if len(v) < len(w):
        v, w = w, v
    return tuple(map(operator.add, v, w)) + v[len(w):]


def _vmax(v, w):
    """The elementwise max of two exponent vectors: the lcm's vector."""
    if len(v) < len(w):
        v, w = w, v
    return tuple(map(max, v, w)) + v[len(w):]


def _vsub(v, w):
    """v - w for w <= v elementwise."""
    return _trim(tuple(map(operator.sub, v, w)) + v[len(w):])


class _CoprimeBase:
    """The coprime base of one F_p(u) field: ``polys``, monic squarefree
    polynomials of positive degree over F_p, pairwise coprime.  A vector
    v (a tuple of ints, no trailing zeros) stands for B^v, the product of
    polys[i]^v[i].

    The base only grows finer.  A new factor is appended, which leaves
    every vector valid; a split replaces ``polys`` by a new list and adds
    one to ``count``, which invalidates every vector made before it.  A
    caller holding vectors across a call that may refine keeps the list
    it read them against and translates them with ``current``.
    """

    __slots__ = ("p", "polys", "count", "_powers")

    def __init__(self, p):
        self.p = p
        self.polys = []
        self.count = 0
        self._powers = {}  # (i, k) -> polys[i]^k

    def _refine(self, a):
        """Refine the base until the monic a is a product of powers of its
        elements.  A piece with a repeated factor is split by its
        derivative first (a p-th power by its p-th root), so elements
        stay squarefree; a piece that shares a factor g with an element b
        other than b itself splits b into g and b/g."""
        p = self.p
        n = len(self.polys)
        polys = list(self.polys)
        split = False
        pending = [a]
        while pending:
            x = pending.pop()
            if len(x) < 2:
                continue
            dx = _pderiv(x, p)
            if not dx:
                pending.append(_proot(x, p))
                continue
            g = _pgcd(x, dx, p)
            if len(g) > 1:
                pending += [g, _pdivmod(x, g, p)[0]]
                continue
            for i, b in enumerate(polys):
                g = _pgcd(x, b, p)
                if len(g) > 1:
                    if g != b:
                        del polys[i]
                        pending += [g, _pdivmod(b, g, p)[0]]
                        split = True
                    pending.append(_pdivmod(x, g, p)[0])
                    break
            else:
                polys.append(x)
        if split:
            self.polys = polys
            self.count += 1
            self._powers = {}
        else:
            self.polys += polys[n:]

    def factor(self, d):
        """The vector of the monic d, refining the base first when d has
        a factor outside it."""
        p = self.p
        while True:
            v, rest = [], d
            for b in self.polys:
                k = 0
                while len(rest) >= len(b):
                    q, r = _pdivmod(rest, b, p)
                    if r:
                        break
                    rest, k = q, k + 1
                v.append(k)
            if len(rest) == 1:
                return _trim(v)
            self._refine(rest)

    def vector(self, c):
        """The vector of the denominator of the F_p(u) element c, from
        its cache while no split has happened since it was stamped."""
        den = c._b
        if len(den) == 1:
            return ()
        cached = c._v
        if cached is not None and cached[0] == self.count:
            return cached[1]
        v = self.factor(den)
        _set_v(c, (self.count, v))
        return v

    def vectors(self, elems):
        """``vector`` of each of elems, all against one base: factoring
        one element may split an element another one's vector uses."""
        while True:
            count = self.count
            out = [self.vector(c) for c in elems]
            if count == self.count:
                return out

    def current(self, v, polys):
        """v, a vector over the earlier base list ``polys``, over this
        base.  Each earlier element is a product of powers of the
        current ones, so factoring it refines nothing."""
        if polys is self.polys:
            return v
        out = ()
        for b, k in zip(polys, v):
            if k:
                out = _vadd(out, tuple(k * x for x in self.factor(b)))
        return out

    def _power(self, i, k):
        q = self._powers.get((i, k))
        if q is None:
            h = k // 2
            q = self.polys[i] if k == 1 else _pmul(self._power(i, h), self._power(i, k - h), self.p)
            self._powers[(i, k)] = q
        return q

    def times(self, num, v):
        """num * B^v."""
        return _pmul(num, self.expand(v), self.p) if v else num

    def expand(self, v):
        """B^v as a polynomial."""
        out = _ONE
        for i, k in enumerate(v):
            if k:
                q = self._power(i, k)
                out = q if out is _ONE else _pmul(out, q, self.p)
        return out

    def cancel(self, num, v):
        """(num', v') with num'/B^v' = num/B^v in lowest terms, for a
        nonzero num.

        Each base element b with v_b > 0 is divided out of num while it
        divides, at most v_b times.  A base element is coprime, not
        irreducible: when the remainder r of the last division shares a
        proper factor g = gcd(r, b) with b, b is split and the strip
        starts again on the finer base.  (In F_3(u), u/(u^2+2) * (u+1)
        must give u/(u+2).)"""
        p = self.p
        out = list(v)
        i = 0
        while i < len(out):
            k = out[i]
            if k:
                b = self.polys[i]
                while k:
                    q, r = _pdivmod(num, b, p)
                    if r:
                        break
                    num, k = q, k - 1
                out[i] = k
                if k and len(b) > 2 and len(r) > 1:
                    g = _pgcd(b, r, p)
                    if len(g) > 1:
                        polys = self.polys
                        self._refine(g)
                        out = list(self.current(_trim(out), polys))
                        i = 0
                        continue
            i += 1
        return num, _trim(out)


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
    it directly; ``log`` inverts it on nonzero codes.  ``zech[d]`` is
    log(1 + g^d), or -1 where 1 + g^d = 0, so that g^i + g^j =
    g^(i + zech[j - i]); a difference j - i in (-n, n) reads it through
    Python's negative indexing, which is the reduction mod n.  ``neg``
    maps a code to the code of its negative.

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
    zech = [0] * n
    for d in range(n):
        c = exp[d]
        one_plus = c - c % p + (c + 1) % p  # + 1 changes the lowest digit only
        zech[d] = log[one_plus] if one_plus else -1
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
    The one mutable part is F_p(u)'s coprime base ``_base``, a cache that
    no value depends on.
    """

    __slots__ = (
        "p", "kind", "degree", "modulus", "var", "is_finite", "order",
        "_hash", "_log", "_exp", "_zech", "_neg", "_zero", "_one",
        "_radd", "_rneg", "_rmul", "_rinv", "_rpow", "_base",
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
            ("_base", None if finite else _CoprimeBase(p)),
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
            c = self.from_int(c)
        elif c.field is not self:
            raise FieldMismatch(f"{c.field!r} vs {self!r}")
        return c._a if self.is_finite else c

    def _from_raw(self, r):
        """The element whose raw value is r."""
        return _elem(self, r) if self.is_finite else r

    # -- element constructors -------------------------------------------

    def _rat(self, num, den):
        num, den = _trim(num), _trim(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return self._zero
        if den[-1] != 1:
            inv = pow(den[-1], -1, self.p)
            num = tuple((c * inv) % self.p for c in num)
            den = tuple((c * inv) % self.p for c in den)
        if len(den) == 1:
            return _elem(self, num, _ONE)
        base = self._base
        return _frac(self, *base.cancel(num, base.factor(den)))

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

    # -- enumeration and sampling ----------------------------------------

    def element_at(self, index):
        """The index-th element of F_q in base-p digit order."""
        if not self.is_finite:
            raise FieldMismatch("enumeration is for finite fields")
        return _elem(self, index % self.order)

    def elements(self):
        if not self.is_finite:
            raise FieldMismatch("enumeration is for finite fields")
        return (self.element_at(i) for i in range(self.order))

    def sample_point(self, rng, max_degree=3):
        """A random element for identity testing.

        Finite fields sample uniformly from all q elements; F_p(u)
        samples a uniform polynomial of degree <= max_degree, giving a
        sampling set of size p^(max_degree+1).
        """
        if self.is_finite:
            return self.element_at(rng.randrange(self.order))
        coeffs = [rng.randrange(self.p) for _ in range(max_degree + 1)]
        return self.from_polys(coeffs)

    def sample_space_size(self, max_degree=3):
        return self.order if self.is_finite else self.p ** (max_degree + 1)


class ResidueElem:
    """An element of F_q (an int code) or F_p(u) (a num/den pair).

    ``_a`` is the code of an F_q element, with ``_b`` None, or the
    numerator of an F_p(u) element, with ``_b`` its denominator.
    Canonical form: F_p(u) elements are in lowest terms with a monic
    denominator, so ``==`` on representations decides field equality.
    Zero is the only element whose ``_a`` is falsy.  Elements are made
    by the field (``FieldSpec.from_int`` and friends), not directly.
    An F_p(u) element's ``_v`` caches the vector of ``_b`` over the
    field's coprime base as (refinement count, vector), or is None until
    ``_CoprimeBase.vector`` first asks; it is None on F_q elements.
    """

    __slots__ = ("field", "_a", "_b", "_v")

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
            return _elem(f, _padd(_pmul(a, db, p), b, p), db, other._v)
        if db == _ONE:
            return _elem(f, _padd(a, _pmul(b, da, p), p), da, self._v)
        # Henrici: over the lcm B^L, a/da + b/db = t / B^L with
        # t = a*B^(L-va) + b*B^(L-vb).  A base factor can divide t only
        # where va and vb are equal: elsewhere one term is prime to it.
        base = f._base
        va, vb = base.vectors((self, other))
        lcm = _vmax(va, vb)
        t = _padd(base.times(a, _vsub(lcm, va)), base.times(b, _vsub(lcm, vb)), p)
        if not t:
            return f._zero
        common = _trim([x if x == y else 0 for x, y in zip(va, vb)])
        polys = base.polys
        t, kept = base.cancel(t, common)
        return _frac(f, t, _vadd(base.current(_vsub(lcm, common), polys), kept))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if self._b is None:
            return _elem(f, f._rneg(self._a))
        return _elem(f, _pneg(self._a, f.p), self._b, self._v)

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
        # Henrici: a polynomial operand is cancelled against the other
        # denominator before the product; two fractions, whose numerators
        # are prime to their own denominators, cancel once after it.
        p = f.p
        base = f._base
        if da == _ONE:
            if db == _ONE:
                return _elem(f, _pmul(a, b, p), _ONE)
            a, v = base.cancel(a, base.vector(other))
        elif db == _ONE:
            b, v = base.cancel(b, base.vector(self))
        else:
            return _frac(f, *base.cancel(_pmul(a, b, p), _vadd(*base.vectors((self, other)))))
        return _frac(f, _pmul(a, b, p), v)

    __rmul__ = __mul__

    def inverse(self):
        a = self._a
        if not a:
            raise DivisionByZero("inverse of zero")
        f = self.field
        if self._b is None:
            return _elem(f, f._rinv(a))
        # b/a is in lowest terms already: only its denominator is scaled
        # monic, and its vector is left for the first caller that needs it
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
        f = self.field
        if f.is_finite:
            return _ppoly_str(_digits(self._a, f.p, f.degree), f.var)
        num = _ppoly_str(self._a, f.var)
        if self._b == _ONE:
            return num
        den = _ppoly_str(self._b, f.var)
        if "+" in num or "-" in num:
            num = f"({num})"
        if "+" in den or "-" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"{self.field!r}:{self}"

    def needs_parens(self):
        """Whether the rendering must be wrapped when used as a factor."""
        s = str(self)
        depth = 0
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch in "+-/":
                return True
        return False


_new_elem = object.__new__
_set_field = ResidueElem.field.__set__
_set_a = ResidueElem._a.__set__
_set_b = ResidueElem._b.__set__
_set_v = ResidueElem._v.__set__


def _elem(field, a, b=None, v=None):
    """A ResidueElem from its representation: the code a of an F_q
    element, or the canonical (num, den) = (a, b) of an F_p(u) element
    and the cached ``_v`` of b.  It bypasses the immutability guard
    through the slot descriptors."""
    e = _new_elem(ResidueElem)
    _set_field(e, field)
    _set_a(e, a)
    _set_b(e, b)
    _set_v(e, v)
    return e


def _frac(field, num, v):
    """The element num / B^v of F_p(u), for num / B^v in lowest terms
    over the current base of ``field``."""
    if not num:
        return field._zero
    if not v:
        return _elem(field, num, _ONE)
    base = field._base
    return _elem(field, num, base.expand(v), (base.count, v))


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
    code 0 meaning "nothing yet".  F_p(u) keeps, per exponent and product
    denominator, one list of plain ints into which each numerator
    convolution is added unreduced; each list is reduced mod p and
    trimmed once.  A product denominator is keyed by its vector over the
    field's coprime base, the sum of its factors' vectors, so no
    polynomial is multiplied to find it.  The groups are then joined over
    the lcm, the elementwise max L of their vectors: a group of vector v
    is multiplied by B^(L - v), a product of base powers, and one
    ``_CoprimeBase.cancel`` per exponent reduces the sum.  Zero sums are
    dropped.
    """
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
    base = field._base
    vectors = iter(base.vectors([c for ab in pairs for d in ab for c in d.values()]))
    fracs = [[[(e, c._a, next(vectors)) for e, c in d.items()] for d in ab] for ab in pairs]
    for a_fracs, b_fracs in fracs:
        for e1, n1, v1 in a_fracs:
            lim = bound - e1
            for e2, n2, v2 in b_fracs:
                if e2 < lim:
                    e = e1 + e2
                    den = v2 if not v1 else v1 if not v2 else _vadd(v1, v2)
                    groups = get(e)
                    if groups is None:
                        groups = acc[e] = {}
                    size = len(n1) + len(n2) - 1
                    cur = groups.get(den)
                    if cur is None:
                        cur = groups[den] = [0] * size
                    elif len(cur) < size:
                        cur += [0] * (size - len(cur))
                    for i, x in enumerate(n1):
                        if x:
                            for j, y in enumerate(n2, i):
                                cur[j] += x * y
    polys = base.polys
    out = {}
    for e, groups in acc.items():
        terms = [(v, n) for v, cur in groups.items() if (n := _trim([c % p for c in cur]))]
        if not terms:
            continue
        if base.polys is not polys:  # a cancel below split a base element
            terms = [(base.current(v, polys), n) for v, n in terms]
        lcm, num = terms[0]
        if len(terms) > 1:
            for v, _ in terms:
                lcm = _vmax(lcm, v)
            num = ()
            for v, n in terms:
                num = _padd(num, base.times(n, _vsub(lcm, v)), p)
            if not num:
                continue
        out[e] = _frac(field, *base.cancel(num, lcm)) if lcm else _elem(field, num, _ONE)
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
# Multivariate expressions and randomized identity testing
# ---------------------------------------------------------------------------


class Expr:
    """Expression tree over a residue field: constants, variables,
    +, -, *, /, integer powers.

    Division nodes carry a nonzero-denominator obligation that is
    checked at evaluation time (DivisionByZero propagates and the
    identity checker resamples the point).

    An expression is compiled once per field over raw values: the first
    ``evaluate`` over a field turns the tree into nested closures on
    that field's raw operations and keeps them on the root, so treat an
    ``Expr`` as immutable once built.
    """

    __slots__ = ("op", "args", "payload", "_compiled")

    def __init__(self, op, args=(), payload=None):
        self.op = op
        self.args = args
        self.payload = payload
        self._compiled = None  # field -> closure, made by the first evaluate

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

    def variables(self):
        if self.op == "var":
            return {self.payload}
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def evaluate(self, env, field):
        """The value over ``field`` at ``env``, a dict from variable names
        to elements of ``field`` or ints."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = {}
        fn = compiled.get(field)
        if fn is None:
            fn = compiled[field] = self._compile(field)
        to_raw = field._to_raw
        return field._from_raw(fn({name: to_raw(v) for name, v in env.items()}))

    def _compile(self, field):
        """A function from a dict of raw variable values to the raw value
        of this expression over ``field``.  Constants are converted here,
        once; the closures hold no reference to the tree."""
        op = self.op
        if op == "const":
            c = field._to_raw(self.payload)
            return lambda env: c
        if op == "var":
            return operator.itemgetter(self.payload)
        kids = [a._compile(field) for a in self.args]
        if op == "neg":
            x, neg = kids[0], field._rneg
            return lambda env: neg(x(env))
        if op == "pow":
            x, n, pow_ = kids[0], self.payload, field._rpow
            return lambda env: pow_(x(env), n)
        x, y = kids
        add, mul = field._radd, field._rmul
        if op == "add":
            return lambda env: add(x(env), y(env))
        if op == "sub":
            neg = field._rneg
            return lambda env: add(x(env), neg(y(env)))
        if op == "mul":
            return lambda env: mul(x(env), y(env))
        if op == "div":
            inv = field._rinv

            def div(env):
                a, b = x(env), y(env)
                if not b:
                    raise DivisionByZero("expression denominator vanished")
                return mul(a, inv(b))

            return div
        raise InvalidSpec(f"unknown node {op!r}")

    def degree_pair(self):
        """(numerator degree, denominator degree) upper bounds."""
        if self.op == "const":
            return (0, 0)
        if self.op == "var":
            return (1, 0)
        if self.op in ("add", "sub"):
            (n1, d1), (n2, d2) = (a.degree_pair() for a in self.args)
            return (max(n1 + d2, n2 + d1), d1 + d2)
        if self.op == "mul":
            (n1, d1), (n2, d2) = (a.degree_pair() for a in self.args)
            return (n1 + n2, d1 + d2)
        if self.op == "div":
            (n1, d1), (n2, d2) = (a.degree_pair() for a in self.args)
            return (n1 + d2, d1 + n2)
        if self.op == "pow":
            n, d = self.args[0].degree_pair()
            return (n * self.payload, d * self.payload)
        return self.args[0].degree_pair()


class IdentityCheck(NamedTuple):
    """Outcome of a randomized identity test."""

    ok: bool
    witness: dict | None
    trials: int
    degree_bound: int
    sample_space: int

    to_json = encode

    @property
    def false_pass_bound(self):
        """Per-trial probability bound for accepting a false identity."""
        return min(Fraction(1), Fraction(self.degree_bound, self.sample_space))

    def __repr__(self):
        state = "pass" if self.ok else f"fail at {self.witness}"
        return f"IdentityCheck({state}, trials={self.trials})"


def check_identity(lhs, rhs, field, trials, seed, max_attempts=64):
    """Randomized equality test of two rational expressions.

    Points are sampled with rejection past denominator zeros; after
    ``max_attempts`` failed samples in a single trial the field is
    declared too small.  A pass after t trials is wrong with
    probability at most (degree_bound / sample_space)^t when the two
    sides differ.
    """
    if trials < 1:
        raise InvalidSpec("trials must be at least 1")
    rng = random.Random(seed)
    names = sorted(lhs.variables() | rhs.variables())
    n1, d1 = lhs.degree_pair()
    n2, d2 = rhs.degree_pair()
    degree_bound = max(n1 + d2, n2 + d1)
    space = field.sample_space_size()
    for _ in range(trials):
        for attempt in range(max_attempts):
            env = {name: field.sample_point(rng) for name in names}
            try:
                a = lhs.evaluate(env, field)
                b = rhs.evaluate(env, field)
            except DivisionByZero:
                continue
            if a != b:
                witness = {name: str(v) for name, v in env.items()}
                return IdentityCheck(False, witness, trials, degree_bound, space)
            break
        else:
            raise FieldTooSmall(
                f"no valid evaluation point in {max_attempts} attempts over {field!r}"
            )
    return IdentityCheck(True, None, trials, degree_bound, space)

