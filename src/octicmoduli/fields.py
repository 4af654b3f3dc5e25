"""Exact scalar arithmetic over Q, F_p (p >= 11) and F_{p^k}.

Elements are small immutable objects with operator overloading so that the
binary-form layer can be written generically.  Rationals are represented by
``fractions.Fraction`` directly; finite field elements carry a reference to
their field.  All operations are pure, hence safe to share between workers.

Characteristics 2, 3, 5 and 7 are rejected outright: the covariant formulae
of this package carry denominators divisible by those primes.

F_{p^k} = F_p[t]/(m) needs no polynomial toolkit of its own: a modulus
is checked by Rabin's test in the ring F_p[t]/(m), with that ring's own
product and unit test, and an inverse is extended Euclid on the
coefficient lists.
"""

import functools
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import (
    CompositeModulus, EmptyInput, ReducibleModulus, SmallCharacteristic,
    ZeroNorm,
)

_SMALL_PRIMES = (2, 3, 5, 7)


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond any modulus we accept
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _egcd(a, b):
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b)."""
    if b == 0:
        return (a, 1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def ext_gcd_multi(degrees):
    """gcd and Bezout coefficients of a sequence of positive integers.

    Folds the two-argument extended gcd left to right in index order, which
    makes the returned coefficients deterministic: ext_gcd_multi((5, 7))
    gives (1, [3, -2]).
    """
    degrees = list(degrees)
    if not degrees:
        raise EmptyInput("ext_gcd_multi needs at least one integer")
    g = degrees[0]
    coeffs = [1]
    for d in degrees[1:]:
        g2, x, y = _egcd(g, d)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs


# ---------------------------------------------------------------------------
# rationals


class Rationals:
    """The field Q; elements are fractions.Fraction values."""

    characteristic = 0

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError("cannot coerce %r into Q" % (value,))

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def sqrt(self, a):
        """Square root of a perfect square, the non-negative one; else None."""
        a = self(a)
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None

    def element_key(self, a):
        return (a.numerator, a.denominator)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = Rationals()


# ---------------------------------------------------------------------------
# field elements, and square roots in the finite fields


class _Element:
    """The operators every field element builds from its own _lift,
    __mul__, __sub__, inverse and field.one."""

    __slots__ = ()

    def __rsub__(self, other):
        other = self._lift(other)
        return other - self

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        return other / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


@functools.cache
def first_nonsquare(field):
    """The first element of field.elements() that is not a square in the
    finite field."""
    return next(c for c in field.elements()
                if c and c ** ((field.order - 1) // 2) != field.one)


def _finite_sqrt(field, a):
    """Square root in a finite field, or None; deterministic: the root
    with the smaller element_key.  Tonelli-Shanks with first_nonsquare."""
    a = field(a)
    if not a:
        return a
    q = field.order
    if a ** ((q - 1) // 2) != field.one:
        return None
    Q, s = q - 1, 0
    while Q % 2 == 0:
        Q //= 2
        s += 1
    if s == 1:
        r = a ** ((q + 1) // 4)
    else:
        m, c, t = s, first_nonsquare(field) ** Q, a ** Q
        r = a ** ((Q + 1) // 2)
        while t != field.one:
            t2, i = t, 0
            while t2 != field.one:
                t2 = t2 * t2
                i += 1
            b = c ** (1 << (m - i - 1))
            m, c = i, b * b
            t, r = t * c, r * b
    return min(r, -r, key=field.element_key)


def generates_units(g, p):
    """Whether g generates the cyclic group F_p^*."""
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1
                              for q in set(_prime_factors(p - 1)))


#: the most entries of a table of powers or discrete logarithms mod p
#: (8 bytes each) that the package builds
MAX_LOG_TABLE = 1 << 24


@functools.cache
def log_tables(p):
    """(g, POW, LOG) for the prime p: g the least primitive root mod p,
    POW[e] = g^e mod p for 0 <= e < p - 1 and LOG[x] the e with
    g^e = x for 0 < x < p (LOG[0] = 0), as int64 arrays.

    POW doubles in length a step, each new half the old one times one
    power of g, so the build makes about log2(p) array operations.
    ValueError, before anything is allocated, when p > MAX_LOG_TABLE.
    """
    if p > MAX_LOG_TABLE:
        raise ValueError("discrete-log tables mod %d would pass the bound "
                         "MAX_LOG_TABLE = %d entries" % (p, MAX_LOG_TABLE))
    g = next(g for g in range(1, p) if generates_units(g, p))
    pw = np.ones(1, np.int64)
    while pw.size < p - 1:
        pw = np.concatenate([pw, pw * pow(g, pw.size, p) % p])
    pw = pw[:p - 1]
    log = np.zeros(p, np.int64)
    log[pw] = np.arange(p - 1)
    pw.flags.writeable = log.flags.writeable = False    # shared by callers
    return g, pw, log


# ---------------------------------------------------------------------------
# prime fields


class FpElement(_Element):
    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value % field.p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.field is not self.field and other.field.p != self.field.p:
                raise TypeError("cannot combine elements of %r and %r"
                                % (self.field, other.field))
            return other
        if isinstance(other, int):
            return FpElement(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.value - other.value)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(self.field, pow(self.value, n, self.field.p))

    def __neg__(self):
        return FpElement(self.field, -self.value)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in %r" % (self.field,))
        return FpElement(self.field, pow(self.value, -1, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (isinstance(other, FpElement) and other.field.p == self.field.p
                and other.value == self.value)

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "%d" % self.value


class PrimeField:
    """F_p for a prime p; covariant arithmetic needs p >= 11.

    Small characteristics are rejected unless allow_small is set; the
    weighted-projective algorithms are characteristic-agnostic and accept
    them, while every covariant entry point re-checks the bound.
    """

    #: the degree over the prime field, as ExtField.k
    k = 1

    def __init__(self, p, allow_small=False):
        if p in _SMALL_PRIMES and not allow_small:
            raise SmallCharacteristic("characteristic %d not supported" % p)
        if not _is_prime(p):
            raise CompositeModulus("%d is not prime" % p)
        self.p = p
        self.characteristic = p
        self.order = p

    def __call__(self, value):
        if isinstance(value, FpElement) and value.field.p == self.p:
            return value
        if isinstance(value, int):
            return FpElement(self, value)
        if isinstance(value, Fraction):
            return FpElement(self, fraction_residue(value, self.p))
        raise TypeError("cannot coerce %r into F_%d" % (value, self.p))

    @property
    def zero(self):
        return FpElement(self, 0)

    @property
    def one(self):
        return FpElement(self, 1)

    def elements(self):
        for v in range(self.p):
            yield FpElement(self, v)

    sqrt = _finite_sqrt

    def frobenius(self, a, times=1):
        return a

    def element_key(self, a):
        return a.value

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F_%d" % self.p


def fraction_residue(c, p):
    """The Fraction c mod p, an int; ZeroDivisionError when p divides its
    denominator."""
    if not c.denominator % p:
        raise ZeroDivisionError("denominator divisible by %d" % p)
    return c.numerator * pow(c.denominator, -1, p) % p


def residue_dtype(p, terms=1):
    """The numpy dtype of arrays of residues mod p whose arithmetic sums
    up to terms products of two residues: int64 while such a sum fits in
    it, object (Python ints) above that."""
    return np.int64 if terms * (p - 1) ** 2 < 1 << 63 else object


# ---------------------------------------------------------------------------
# extension fields


def _is_irreducible(mod, p):
    """Rabin's irreducibility test of a monic modulus of degree k over F_p,
    in the ring F_p[t]/(mod): t^(p^k) = t, and t^(p^(k/q)) - t is a unit
    for every prime q dividing k.  Walks the chain t^(p^j) once."""
    k = len(mod) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    ring = ExtField._ring(p, mod)
    t = xp = ring.gen()
    crit = {k // q for q in _prime_factors(k)}
    for j in range(1, k + 1):
        xp = xp ** p
        if j in crit:
            try:
                (xp - t).inverse()
            except ZeroDivisionError:
                return False
    return xp == t


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@functools.cache
def _default_modulus(p, k):
    """Smallest monic irreducible t^k + c_{k-1} t^{k-1} + ... + c_0, the
    coefficient tuples ordered lexicographically with c_0 varying fastest
    (low-degree coefficients move first, so sparse moduli come early):
    candidate n has the base-p digits of n as (c_0, ..., c_{k-1}).  The
    first p candidates are the binomials t^k + c_0, skipped when none of
    them can be irreducible."""
    # an irreducible t^k - a needs every prime factor of k to divide
    # p - 1, and p = 1 mod 4 when 4 divides k (Lidl-Niederreiter 3.75)
    binomials = (all((p - 1) % q == 0 for q in _prime_factors(k))
                 and (k % 4 or p % 4 == 1))
    for n in range(0 if binomials else p, p ** k):
        mod = tuple(n // p ** i % p for i in range(k)) + (1,)
        if _is_irreducible(mod, p):
            return mod
    raise ReducibleModulus("no irreducible modulus found (impossible)")


class ExtElement(_Element):
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        k = field.k
        if len(coeffs) > k:
            raise ValueError("%d coordinates for an element of %r"
                             % (len(coeffs), field))
        c = [x % field.p for x in coeffs]
        c += [0] * (k - len(c))
        self.field = field
        self.coeffs = tuple(c)

    def _lift(self, other):
        if isinstance(other, ExtElement):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("cannot combine elements of %r and %r"
                                % (self.field, other.field))
            return other
        if isinstance(other, (int, FpElement, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _ext(self.field, tuple([(a + b) % self.field.p for a, b
                                       in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _ext(self.field, tuple([(a - b) % self.field.p for a, b
                                       in zip(self.coeffs, other.coeffs)]))

    def __mul__(self, other):
        """Convolution, t^(k+j) folded in by field.fold, one reduction."""
        field = self.field
        if type(other) is not ExtElement or other.field is not field:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        k = field.k
        out = [0] * (2 * k - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs, i):
                    out[j] += x * y
        for h, row in zip(out[k:], field.fold):
            if h:
                for i, r in enumerate(row):
                    out[i] += h * r
        p = field.p
        return _ext(field, tuple([c % p for c in out[:k]]))

    __rmul__ = __mul__

    def __neg__(self):
        p = self.field.p
        return _ext(self.field, tuple([-a % p for a in self.coeffs]))

    def inverse(self):
        """Extended Euclid on (modulus, a) over F_p, keeping s_i a = r_i
        mod modulus; ZeroDivisionError unless the gcd is a constant."""
        field, p = self.field, self.field.p
        r0, r1 = list(field.modulus), list(self.coeffs)
        s0, s1 = [], [1]
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("inverse of zero in %r" % (field,))
        while r1:
            # r0 -= c t^off r1 and s0 -= c t^off s1 until deg r0 < deg r1
            inv_lead = pow(r1[-1], -1, p)
            while len(r0) >= len(r1):
                c = r0[-1] * inv_lead % p
                off = len(r0) - len(r1)
                for i, x in enumerate(r1, off):
                    r0[i] = (r0[i] - c * x) % p
                s0 += [0] * (off + len(s1) - len(s0))
                for i, x in enumerate(s1, off):
                    s0[i] = (s0[i] - c * x) % p
                while r0 and not r0[-1]:
                    r0.pop()
                while s0 and not s0[-1]:
                    s0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        if len(r0) > 1:
            raise ZeroDivisionError("%r is not a unit in %r" % (self, field))
        inv_c = pow(r0[0], -1, p)
        return ExtElement(field, [c * inv_c for c in s0])

    def __eq__(self, other):
        if isinstance(other, (int, FpElement, Fraction)):
            other = self.field(other)
        return (isinstance(other, ExtElement) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return "ext(%s)" % ",".join(str(c) for c in self.coeffs)


def _ext(field, coeffs):
    """The element with a tuple of k coefficients already reduced mod p."""
    out = object.__new__(ExtElement)
    out.field, out.coeffs = field, coeffs
    return out


@functools.lru_cache(maxsize=256)
def _fold_rows(p, modulus):
    """Rows t^(k + j) mod the monic modulus, j < k, by shift and subtract;
    bounded, as the modulus search builds a ring for every candidate."""
    k = len(modulus) - 1
    row = [-c % p for c in modulus[:k]]
    rows = [tuple(row)]
    for _ in range(k - 1):
        top = row[-1]
        row = [(x - top * c) % p for x, c in zip([0] + row[:-1], modulus)]
        rows.append(tuple(row))
    return tuple(rows)


@functools.cache
def _frobenius_rows(p, modulus, s):
    """Row j is t^(j p^s) mod modulus: the matrix of the F_p-linear map
    a -> a^(p^s)."""
    ring = ExtField._ring(p, modulus)
    step, cur, rows = ring.gen() ** p ** s, ring.one, []
    for _ in range(ring.k):
        rows.append(cur.coeffs)
        cur = cur * step
    return tuple(rows)


class ExtField:
    """F_{p^k} = F_p[t] / (modulus), modulus monic irreducible of degree k."""

    def __init__(self, p, k, modulus=None, allow_small=False):
        if p in _SMALL_PRIMES and not allow_small:
            raise SmallCharacteristic("characteristic %d not supported" % p)
        if not _is_prime(p):
            raise CompositeModulus("%d is not prime" % p)
        if k < 1:
            raise ReducibleModulus("extension degree must be >= 1")
        if modulus is None:
            modulus = _default_modulus(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ReducibleModulus("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus("modulus is reducible over F_%d" % p)
        self._set(p, modulus)

    @classmethod
    def _ring(cls, p, modulus):
        """F_p[t]/(modulus) for any monic modulus, not checked."""
        ring = object.__new__(cls)
        ring._set(p, tuple(modulus))
        return ring

    def _set(self, p, modulus):
        self.p = p
        self.k = len(modulus) - 1
        self.modulus = modulus
        self.characteristic = p
        self.order = p ** self.k
        self.prime_field = PrimeField(p, allow_small=True)
        self.fold = _fold_rows(p, modulus)

    def __call__(self, value):
        if isinstance(value, ExtElement) and value.field == self:
            return value
        if isinstance(value, FpElement) and value.field.p == self.p:
            return ExtElement(self, [value.value])
        if isinstance(value, int):
            return ExtElement(self, [value])
        if isinstance(value, Fraction):
            return ExtElement(self, [self.prime_field(value).value])
        if isinstance(value, (list, tuple)):
            return ExtElement(self, list(value))
        raise TypeError("cannot coerce %r into %r" % (value, self))

    @property
    def zero(self):
        return ExtElement(self, [0])

    @property
    def one(self):
        return ExtElement(self, [1])

    def gen(self):
        """t, the class of the variable: -c_0 when the modulus is linear."""
        if self.k == 1:
            return ExtElement(self, [-self.modulus[0]])
        return ExtElement(self, [0, 1])

    def frobenius(self, a, times=1):
        """a^(p^times), through the table of the F_p-linear map
        t^j -> t^(j p^times)."""
        p, k = self.p, self.k
        out = [0] * k
        for c, row in zip(a.coeffs, _frobenius_rows(p, self.modulus,
                                                    times % k)):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return _ext(self, tuple([x % p for x in out]))

    def elements(self):
        """All elements, in canonical (lexicographic coefficient) order."""
        def rec(i, cur):
            if i == self.k:
                yield ExtElement(self, cur)
                return
            for c in range(self.p):
                yield from rec(i + 1, cur + [c])
        yield from rec(0, [])

    sqrt = _finite_sqrt

    def element_key(self, a):
        return a.coeffs

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("Fpk", self.p, self.k, self.modulus))

    def __repr__(self):
        return "F_%d^%d" % (self.p, self.k)


# ---------------------------------------------------------------------------
# quadratic extensions of Q (used by the reconstruction fallback)


class QuadElement(_Element):
    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _lift(self, other):
        if isinstance(other, QuadElement):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("cannot combine elements of %r and %r"
                                % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.field, other, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElement(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadElement(self.field, self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.d
        return QuadElement(self.field,
                           self.a * other.a + d * self.b * other.b,
                           self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadElement(self.field, -self.a, -self.b)

    def inverse(self):
        d = self.field.d
        nrm = self.a * self.a - d * self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in %r" % (self.field,))
        return QuadElement(self.field, self.a / nrm, -self.b / nrm)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (isinstance(other, QuadElement) and other.field == self.field
                and other.a == self.a and other.b == self.b)

    def __hash__(self):
        return hash((self.field.d, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return "(%s + %s*sqrt(%s))" % (self.a, self.b, self.field.d)


class QuadExtQ:
    """Q(sqrt(d)) for a non-square rational d; arithmetic only.

    This is internal plumbing for the conic parametrization fallback when no
    rational point is supplied; it deliberately stays out of field_make.
    """

    characteristic = 0

    def __init__(self, d):
        self.d = Fraction(d)
        if QQ.sqrt(self.d) is not None:
            raise ValueError("d is a perfect square; use Q instead")

    def __call__(self, value):
        if isinstance(value, QuadElement) and value.field == self:
            return value
        if isinstance(value, (int, Fraction)):
            return QuadElement(self, value, 0)
        raise TypeError("cannot coerce %r into %r" % (value, self))

    @property
    def zero(self):
        return QuadElement(self, 0, 0)

    @property
    def one(self):
        return QuadElement(self, 1, 0)

    def gen(self):
        return QuadElement(self, 0, 1)

    def sqrt(self, a):
        a = self(a)
        if a.b == 0:
            r = QQ.sqrt(a.a)
            if r is not None:
                return QuadElement(self, r, 0)
            if QQ.sqrt(a.a / self.d) is not None:
                return QuadElement(self, 0, QQ.sqrt(a.a / self.d))
        return None

    def element_key(self, a):
        return (a.a.numerator, a.a.denominator, a.b.numerator, a.b.denominator)

    def __eq__(self, other):
        return isinstance(other, QuadExtQ) and other.d == self.d

    def __hash__(self):
        return hash(("Qsqrt", self.d))

    def __repr__(self):
        return "Q(sqrt(%s))" % self.d


# ---------------------------------------------------------------------------
# public constructors and the extension-specific operations


def field_make(spec, allow_small=False):
    """Build a field from a spec string: "Q", "Fp:<p>" or
    "Fpk:<p>:<k>[:<c0,c1,...,ck>]".  allow_small admits characteristics
    below 11 for purely weighted-projective work.
    """
    parts = spec.split(":")
    if parts[0] == "Q" and len(parts) == 1:
        return QQ
    if parts[0] == "Fp" and len(parts) == 2:
        return PrimeField(int(parts[1]), allow_small=allow_small)
    if parts[0] == "Fpk" and len(parts) in (3, 4):
        p, k = int(parts[1]), int(parts[2])
        if len(parts) == 4:
            modulus = tuple(int(c) for c in parts[3].split(","))
            return ExtField(p, k, modulus, allow_small=allow_small)
        return ExtField(p, k, allow_small=allow_small)
    raise ValueError("unrecognized field spec %r" % spec)


def norm_solve(ext, lam):
    """Solve Norm_{F_{p^m}/F_p}(a) = lam, i.e. a^((p^m-1)/(p-1)) = lam.

    For small fields (p^m <= 4096) the answer is the smallest solution in
    canonical element order.  For larger fields, the first element (in
    canonical order) whose norm generates F_p^* is raised to the discrete
    log of lam with respect to that norm; deterministic, and no
    factorization of p^m - 1 is ever needed.  The scan of the elements
    runs once per field (_first_preimages, _norm_generator); over F_p the
    answer is lam.
    """
    if isinstance(ext, PrimeField):
        lam = ext(lam)
        if not lam:
            raise ZeroNorm("norm equation with zero target")
        return lam
    lam_val = ext.prime_field(lam) if not isinstance(lam, FpElement) else lam
    if lam_val.value == 0:
        raise ZeroNorm("norm equation with zero target")
    if ext.order <= 4096:
        return _first_preimages(ext)[lam_val.value]
    b, nb = _norm_generator(ext)
    # discrete log of lam base nb inside F_p^*
    acc = 1
    for x in range(ext.p - 1):
        if acc == lam_val.value:
            return b ** x
        acc = acc * nb % ext.p
    raise ZeroNorm("no norm preimage found (impossible)")


def _norm(ext, a):
    """The norm of a to the prime field, as a residue."""
    return (a ** ((ext.order - 1) // (ext.p - 1))).coeffs[0]


@functools.cache
def _first_preimages(ext):
    """The first nonzero element of ext.elements() of each norm: a dict
    residue -> element, from one scan that stops once every one of the
    p - 1 norms is found."""
    out = {}
    for a in ext.elements():
        if a:
            out.setdefault(_norm(ext, a), a)
            if len(out) == ext.p - 1:
                return out
    raise ZeroNorm("no norm preimage found (impossible)")


@functools.cache
def _norm_generator(ext):
    """(b, Norm(b)) for the first element b of ext.elements() whose norm
    generates F_p^*."""
    for b in ext.elements():
        if b:
            nb = _norm(ext, b)
            if generates_units(nb, ext.p):
                return b, nb
    raise ZeroNorm("no norm preimage found (impossible)")
