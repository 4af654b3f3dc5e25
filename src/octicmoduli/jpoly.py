"""Weighted-homogeneous polynomials in the nine generators J2..J10.

A JPolynomial maps exponent vectors (e2, ..., e10) to rational
coefficients; every monomial shares the declared weighted degree
sum(w * e_w).  These polynomials are what the interpolation layer produces
and what the stratum systems, syzygies and reconstruction caches are made
of.  They evaluate over any field of characteristic 0 or >= 11, one point
at a time (JPolynomial.evaluate, or PolySet.at for a list of them; at_mod
on residues), or mod p on arrays of points (PolySet.evaluate_mod).  At one
point of F_p, or of Q for a list, the evaluation runs on numpy arrays: the
monomials level by level, each the product of two halves, then each
polynomial as one sum of coefficients times monomial values (_Chain).
"""

from fractions import Fraction
from math import lcm

import numpy as np

from .fields import QQ, FpElement, PrimeField, fraction_residue, residue_dtype

WEIGHTS = (2, 3, 4, 5, 6, 7, 8, 9, 10)


def wdeg(expvec):
    return sum(w * e for w, e in zip(WEIGHTS, expvec))


def monomial_basis(d, num_vars=9):
    """All exponent vectors (e2, ..., e10) with weighted degree d.

    Only the first num_vars generators may appear (num_vars=6 restricts to
    J2..J7).  Sorted descending in graded reverse lexicographic order with
    J2 < J3 < ... < J10; since every vector shares the weighted degree, the
    comparison is the classical revlex tie-break.
    """
    out = []

    def rec(idx, rem, cur):
        if idx == num_vars:
            if rem == 0:
                out.append(tuple(cur) + (0,) * (9 - num_vars))
            return
        w = WEIGHTS[idx]
        top = rem // w
        for e in range(top + 1):
            rec(idx + 1, rem - e * w, cur + [e])

    rec(0, d, [])
    out.sort(key=grevlex_key, reverse=True)
    return out


def grevlex_key(expvec):
    """Sort key: larger key = larger monomial in grevlex (J2 < ... < J10)."""
    # among equal weighted degrees: a > b iff the last nonzero entry of
    # a - b is negative
    return tuple(-e for e in reversed(expvec))


class _Chain:
    """Every monomial a list of JPolynomials uses, and those on the way to
    it, evaluated at one point of F_p on numpy arrays, level by level; or,
    with p = 0, at one point of Z, each polynomial times the common
    denominator of its coefficients (dens).

    The monomials are built by halving (halving_chain): 4 levels for the
    class set of strata._class_set, each computed in one array step:
    vals[lo:hi] = vals[left] * vals[right].  The polynomials are then one
    product of their coefficient residues with the values of their
    monomials, summed per polynomial by np.add.reduceat.  The arrays are
    int64 while a product of two residues fits in it, and Python ints
    (dtype object) above that and over Z.  Levels and terms are reduced
    only where 2^63 could be passed.
    """

    __slots__ = ("p", "size", "levels", "coeffs", "monomials", "starts",
                 "dens", "wide")

    def __init__(self, polys, p):
        levels, at = halving_chain(
            [ev for poly in polys for ev in poly.terms], 9)
        # top bounds every value so far; a level is reduced where a
        # product of two of its values could pass 2^63
        self.p, self.size, self.levels, top = p, 10, [], p - 1
        for lo, hi, left, right in levels:
            bound = top * top
            reduce = bool(p) and bound * bound >= 1 << 63
            self.levels.append((lo, hi, left, right, reduce))
            self.size, top = hi, max(top, p - 1 if reduce else bound)
        kept, empty, coeffs, starts, self.dens = bytearray(), [], [], [], []
        for poly in polys:
            starts.append(len(coeffs))
            den = 1 if p else lcm(*(c.denominator
                                    for c in poly.terms.values()))
            self.dens.append(den)
            for c in poly.terms.values():
                r = (fraction_residue(c, p) if p
                     else c.numerator * (den // c.denominator))
                kept.append(r != 0)
                if r:
                    coeffs.append(r)
            if len(coeffs) == starts[-1]:
                # no term survives mod p: one zero term, since reduceat
                # gives the next element for an empty slice
                empty.append(len(coeffs) - len(empty))
                coeffs.append(0)
        self.coeffs = np.array(coeffs,
                               dtype=residue_dtype(p) if p else object)
        self.monomials = np.insert(at[np.frombuffer(kept, np.bool_)],
                                   empty, 0)
        self.starts = np.array(starts, np.intp)
        self.wide = bool(p) and len(coeffs) * (p - 1) * top >= 1 << 63

    def values(self, xs):
        """Each polynomial at the residues xs, reduced mod p, or at the
        integers xs when p is 0: a list of ints."""
        p, vals = self.p, np.empty(self.size, dtype=self.coeffs.dtype)
        vals[0] = 1
        vals[1:10] = [x % p for x in xs] if p else xs
        for lo, hi, left, right, reduce in self.levels:
            level = vals[left] * vals[right]
            vals[lo:hi] = level % p if reduce else level
        terms = self.coeffs * vals[self.monomials]
        sums = np.add.reduceat(terms % p if self.wide else terms,
                               self.starts)
        return (sums % p if p else sums).tolist()


def _halves(evs):
    """Two arrays of exponent vectors of total degrees ceil(d/2) and
    floor(d/2) whose sum is each row of evs (total degree d): its units,
    variable by variable, dealt alternately to the first and the second."""
    odd = evs & 1
    # the parity of the units dealt before each variable
    dealt = np.bitwise_xor.accumulate(odd, axis=1) ^ odd
    first = (evs + 1 - dealt) // 2
    return first, evs - first


def _unsplit(evs, code, known):
    """The rows of evs of total degree >= 2 whose codes are not in the
    sorted array known, one row per code, by code: (rows, codes,
    degrees)."""
    order = np.argsort(code, kind="stable")
    code = code[order]
    new = np.ones(len(code), bool)
    new[1:] = code[1:] != code[:-1]
    if len(known):
        new &= known[np.minimum(np.searchsorted(known, code),
                                len(known) - 1)] != code
    evs, code = evs[order[new]], code[new]
    degree = evs.sum(axis=1)
    return evs[degree > 1], code[degree > 1], degree[degree > 1]


def halving_chain(evs, v):
    """How to build the monomials evs, a list of exponent vectors in v
    variables, from the variables by halving: each monomial of total
    degree d >= 2 is the product of its two halves, and every monomial is
    split once (_halves).

    Returns (levels, at).  The values are laid out as 1, the v
    variables, then the monomials of degree >= 2 on the way, sorted by
    (degree, exponents).  levels holds (lo, hi, left, right) per
    ceil(log2 d): the monomials at lo..hi-1 are the products of the
    values at left and right.  at[i] is the position of evs[i].
    Monomials are compared as int64 codes, base one more than the largest
    exponent, the first variable most significant, so code order is
    exponent order; ValueError when that code does not fit in int64 (or
    an exponent in int16, the exponent arrays' dtype).
    """
    radix = max(2, 1 + max(map(max, evs), default=0))
    if radix ** v >= 1 << 63 or radix > 1 << 14:
        raise ValueError("exponents too large for an int64 monomial code")
    weights = radix ** np.arange(v - 1, -1, -1, dtype=np.int64)
    evs = np.array(evs, np.int16).reshape(-1, v)

    def encode(a):      # column by column, so a stays int16
        return sum(a[:, i] * w for i, w in enumerate(weights))

    at = encode(evs)
    codes, lefts, rights, degrees = ([np.zeros(0, np.int64)]
                                     for _ in range(4))
    known = codes[0]        # sorted
    while len(evs):
        evs, code, degree = _unsplit(evs, encode(evs), known)
        known = np.sort(np.concatenate([known, code]))
        codes.append(code)
        degrees.append(degree)
        evs = np.concatenate(_halves(evs))
        lefts.append(encode(evs[:len(code)]))
        rights.append(encode(evs[len(code):]))
    code, left, right, degree = (np.concatenate(x) for x in
                                 (codes, lefts, rights, degrees))
    order = np.lexsort((code, degree))
    code, left, right, degree = (x[order] for x in
                                 (code, left, right, degree))
    layout = np.concatenate([[0], weights, code])
    sorter = np.argsort(layout)
    ordered = layout[sorter]

    def position(c):
        return sorter[np.searchsorted(ordered, c)]

    # (d - 1).bit_length(), the level of a monomial of total degree d
    level = np.searchsorted(1 << np.arange(62, dtype=np.int64),
                            degree - 1, side="right")
    cuts = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist(), len(code)]
    return ([(1 + v + lo, 1 + v + hi, position(left[lo:hi]),
              position(right[lo:hi])) for lo, hi in zip(cuts, cuts[1:])
             if hi > lo], position(at))


class JPolynomial:
    __slots__ = ("degree", "terms", "_by_prime")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        # p -> the _Chain of this polynomial, built on the first
        # evaluation over F_p; terms is only ever set here, so an entry
        # cannot go stale
        self._by_prime = {}
        if terms:
            for ev, c in terms.items():
                c = Fraction(c)
                if c:
                    if wdeg(ev) != degree:
                        raise ValueError("monomial %r has degree %d, not %d"
                                         % (ev, wdeg(ev), degree))
                    self.terms[tuple(ev)] = c

    @classmethod
    def zero(cls, degree=0):
        return cls(degree, {})

    @classmethod
    def generator(cls, w):
        ev = [0] * 9
        ev[w - 2] = 1
        return cls(w, {tuple(ev): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, JPolynomial) and other.terms == self.terms)

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if other.degree != self.degree:
            raise ValueError("degree mismatch %d vs %d"
                             % (self.degree, other.degree))
        terms = dict(self.terms)
        for ev, c in other.terms.items():
            nc = terms.get(ev, Fraction(0)) + c
            if nc:
                terms[ev] = nc
            else:
                terms.pop(ev, None)
        return JPolynomial(self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, JPolynomial):
            if self.is_zero() or other.is_zero():
                return JPolynomial.zero(self.degree + other.degree)
            terms = {}
            for ev1, c1 in self.terms.items():
                for ev2, c2 in other.terms.items():
                    ev = tuple(a + b for a, b in zip(ev1, ev2))
                    nc = terms.get(ev, Fraction(0)) + c1 * c2
                    if nc:
                        terms[ev] = nc
                    else:
                        terms.pop(ev, None)
            return JPolynomial(self.degree + other.degree, terms)
        return self.scale(other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return JPolynomial.zero(self.degree)
        return JPolynomial(self.degree,
                           {ev: cc * c for ev, cc in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def at_mod(self, p, residues):
        """The value mod p, an int, at a 9-tuple of residues, through the
        polynomial's own level chain (_Chain)."""
        chain = (self._by_prime.get(p)
                 or self._by_prime.setdefault(p, _Chain([self], p)))
        return chain.values(residues)[0]

    def evaluate(self, field, jvals):
        """Evaluate at a 9-tuple of field elements (j2, ..., j10).

        Over a prime field on residues (at_mod); over any other field, one
        term at a time on field elements.
        """
        if isinstance(field, PrimeField):
            return field(self.at_mod(field.p, [field(v).value for v in jvals]))
        jvals = [field(v) for v in jvals]
        maxe = [0] * 9
        for ev in self.terms:
            for i, e in enumerate(ev):
                if e > maxe[i]:
                    maxe[i] = e
        pows = []
        for i in range(9):
            cur = [field.one]
            for _ in range(maxe[i]):
                cur.append(cur[-1] * jvals[i])
            pows.append(cur)
        acc = field.zero
        for ev, c in self.terms.items():
            t = field(c)
            for i, e in enumerate(ev):
                if e:
                    t = t * pows[i][e]
            acc = acc + t
        return acc

    def serialize(self):
        """Cache line: 'degree; e2,...,e10: num/den; ...' in grevlex order."""
        parts = ["%d" % self.degree]
        for ev in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[ev]
            parts.append("%s: %d/%d" % (",".join(str(e) for e in ev),
                                        c.numerator, c.denominator))
        return "; ".join(parts)

    @classmethod
    def deserialize(cls, line):
        chunks = line.strip().split("; ")
        degree = int(chunks[0])
        terms = {}
        for chunk in chunks[1:]:
            ev_str, c_str = chunk.split(": ")
            ev = tuple(int(e) for e in ev_str.split(","))
            num, den = c_str.split("/")
            terms[ev] = Fraction(int(num), int(den))
        return cls(degree, terms)

    def __repr__(self):
        if not self.terms:
            return "JPolynomial(0)"
        names = ["J%d" % w for w in WEIGHTS]
        bits = []
        for ev in sorted(self.terms, key=grevlex_key, reverse=True)[:6]:
            mono = "*".join("%s^%d" % (names[i], e) if e > 1 else names[i]
                            for i, e in enumerate(ev) if e) or "1"
            bits.append("%s*%s" % (self.terms[ev], mono))
        more = "" if len(self.terms) <= 6 else " + ... (%d terms)" % len(self.terms)
        return "JPolynomial(%s%s)" % (" + ".join(bits), more)


def monomial_matrix(rows, monomials, p):
    """Matrix whose (i, j) entry is monomials[j] at rows[i], mod p.

    rows is an int64 array of residues with one column per generator
    J2, J3, ... as far as the monomials reach.  Each monomial multiplies
    in, from per-variable power tables, only the variables it uses, and
    reduces mod p only where the next product could pass 2^63; so the
    result is exact for every p < 2^31.
    """
    n = rows.shape[0]
    tables = {}
    for v, top in enumerate(np.max(np.reshape(monomials, (-1, 9)), axis=0,
                                   initial=0)):
        if top:
            tbl = np.empty((top + 1, n), dtype=np.int64)
            tbl[0] = 1
            tbl[1] = rows[:, v] % p
            for e in range(2, top + 1):
                tbl[e] = tbl[e - 1] * tbl[1] % p
            tables[v] = tbl
    out = np.empty((len(monomials), n), dtype=np.int64)
    for j, ev in enumerate(monomials):
        factors = [tables[v][e] for v, e in enumerate(ev) if e]
        if not factors:
            out[j] = 1
            continue
        acc, bound = factors[0], p - 1
        for f in factors[1:]:
            if bound * (p - 1) >= 1 << 63:
                acc, bound = acc % p, p - 1
            acc, bound = acc * f, bound * (p - 1)
        out[j] = acc % p if len(factors) > 1 else acc
    return out.T


#: rows per chunk of a PolySet evaluation; the work arrays of one chunk
#: hold CHUNK_ROWS x (number of monomials) entries
CHUNK_ROWS = 4096


class PolySet:
    """A list of JPolynomials evaluated together: on arrays of residues
    (evaluate_mod), at one point of residues (at_mod), or at one point of
    a field (at).

    evaluate_mod evaluates the union of their monomials once per chunk of
    rows by monomial_matrix and combines it with the coefficients in one
    float64 matrix product.  Each entry of that product is a sum of
    n_monomials products of two residues, so it is exact while
    n_monomials * (p - 1)^2 < 2^53; evaluate_mod checks this first.
    at_mod, and at over F_p and over Q, run one level chain (_Chain) for
    the whole list.
    The monomial list, the coefficient matrix and the chain for a prime
    (or for Z) are built on the first evaluation that needs them.
    """

    def __init__(self, polys):
        self.polys = list(polys)
        self._monomials = None
        self._coeffs = {}             # p -> (n_polys, n_monomials) float64
        self._chains = {}             # p, or 0 for Z -> _Chain of the polys

    def _chain(self, p):
        return (self._chains.get(p)
                or self._chains.setdefault(p, _Chain(self.polys, p)))

    def at_mod(self, p, residues):
        """Every polynomial mod p at one 9-tuple of residues, through one
        level chain for the whole list: a list of ints."""
        return self._chain(p).values(residues)

    def at(self, field, jvals):
        """Every polynomial at the 9-tuple jvals of field elements: over a
        prime field on residues (at_mod), over Q through one chain on
        integers, over any other field by each polynomial's evaluate.

        Over Q, with L the common denominator of jvals, the J_w L^w are
        integers, and a polynomial of weighted degree d with coefficient
        denominator den is its integer value there over den L^d: every
        monomial has weighted degree d."""
        if isinstance(field, PrimeField):
            return [FpElement(field, v) for v in self.at_mod(
                field.p, [field(v).value for v in jvals])]
        if field == QQ:
            chain = self._chain(0)
            jvals = [QQ(v) for v in jvals]
            lcd = lcm(*(v.denominator for v in jvals))
            ints = chain.values([v.numerator * (lcd ** w // v.denominator)
                                 for v, w in zip(jvals, WEIGHTS)])
            return [Fraction(v, den * lcd ** poly.degree)
                    for v, den, poly in zip(ints, chain.dens, self.polys)]
        return [poly.evaluate(field, jvals) for poly in self.polys]

    def evaluate_mod(self, rows, p):
        """(N, len(polys)) int64: every polynomial at every row of the
        (N, m) residue array rows, mod p."""
        if self._monomials is None:
            self._monomials = sorted({ev for poly in self.polys
                                      for ev in poly.terms})
        monomials = self._monomials
        if len(monomials) * (p - 1) ** 2 >= 1 << 53:
            raise ValueError("%d monomials mod %d overflow the float64 "
                             "evaluation" % (len(monomials), p))
        coeffs = self._coeffs.get(p)
        if coeffs is None:
            column = {ev: j for j, ev in enumerate(monomials)}
            coeffs = np.zeros((len(self.polys), len(monomials)))
            for k, poly in enumerate(self.polys):
                for ev, c in poly.terms.items():
                    coeffs[k, column[ev]] = fraction_residue(c, p)
            self._coeffs[p] = coeffs
        out = np.empty((rows.shape[0], len(self.polys)), dtype=np.int64)
        for start in range(0, rows.shape[0], CHUNK_ROWS):
            mono = monomial_matrix(rows[start:start + CHUNK_ROWS],
                                   monomials, p).T.astype(np.float64)
            out[start:start + CHUNK_ROWS] = (coeffs @ mono % p).T
        return out

