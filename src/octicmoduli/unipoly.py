"""Generic dense univariate polynomials over a field object.

Coefficient lists are stored low-degree first.  The factorization routines
(squarefree / distinct-degree / equal-degree) and the root search are for
finite fields only; both split with one Cantor-Zassenhaus trace split,
whose random polynomials come from a fixed seed, not from the input, and
neither result depends on the draws.  Degrees here never exceed ~20, so
schoolbook arithmetic is plenty.
"""

import random
from fractions import Fraction
from math import gcd as igcd

from .fields import ExtField, PrimeField, QQ


def trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def degree(f):
    return len(f) - 1


def sub(field, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero
        b = g[i] if i < len(g) else field.zero
        out.append(a - b)
    return trim(out)


def mul(field, f, g):
    if not f or not g:
        return []
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = out[i + j] + fi * gj
    return trim(out)


def divmod_poly(field, f, g):
    f = trim(list(f))
    g = trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [field.zero] * max(0, len(f) - len(g) + 1)
    inv_lead = field.one / g[-1]
    while f and len(f) >= len(g):
        c = f[-1] * inv_lead
        off = len(f) - len(g)
        q[off] = c
        for i, gi in enumerate(g):
            f[off + i] = f[off + i] - c * gi
        trim(f)
    return trim(q), f


def rem(field, f, g):
    return divmod_poly(field, f, g)[1]


def monic(field, f):
    f = trim(list(f))
    if not f:
        return f
    inv = field.one / f[-1]
    return [c * inv for c in f]


def gcd(field, f, g):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, rem(field, f, g)
    return monic(field, f)


def resultant(field, f, g, m, n):
    """Res_{m,n}(f, g) for formal degrees m >= deg f and n >= deg g: the
    Sylvester determinant, top coefficients that vanish included.  By
    Euclid's algorithm (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 6): a formal degree of g above deg g gives a power of
    lc(f); f = q g + r gives Res_{m,n}(f, g) = (-1)^(m n) lc(g)^(m - deg r)
    Res_{n,deg r}(g, r) when deg g = n, which also covers deg f < m."""
    f, g = trim(list(f)), trim(list(g))
    acc = field.one
    while True:
        if not f or not g or (degree(f) < m and degree(g) < n):
            return field.zero
        if degree(g) < n:
            acc = acc * f[-1] ** (n - degree(g))
            n = degree(g)
        if n == 0:
            return acc * g[0] ** m
        r = rem(field, f, g)
        if not r:
            return field.zero
        if m * n % 2:
            acc = -acc
        acc = acc * g[-1] ** (m - degree(r))
        f, g, m, n = g, r, n, degree(r)


def powmod(field, f, n, modp):
    result = [field.one]
    f = rem(field, list(f), modp)
    while n:
        if n & 1:
            result = rem(field, mul(field, result, f), modp)
        f = rem(field, mul(field, f, f), modp)
        n >>= 1
    return result


def evaluate(field, f, x):
    acc = field.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def derivative(field, f):
    return trim([f[i] * i for i in range(1, len(f))])


#: seed of the random polynomials _split draws; the factors and roots found
#: do not depend on it
_SPLIT_SEED = 0x5B117


def random_element(field, rng):
    if isinstance(field, ExtField):
        return field([rng.randrange(field.p) for _ in range(field.k)])
    return field(rng.randrange(field.p))


def squarefree_part_factors(field, f):
    """Yun decomposition [(squarefree factor, multiplicity)].

    Valid when deg f < characteristic, which always holds here (octics,
    char >= 11).
    """
    f = monic(field, f)
    out = []
    g = gcd(field, f, derivative(field, f))
    w, _ = divmod_poly(field, f, g)
    i = 1
    while degree(w) > 0:
        y = gcd(field, w, g)
        fac, _ = divmod_poly(field, w, y)
        if degree(fac) > 0:
            out.append((monic(field, fac), i))
        w = y
        g, _ = divmod_poly(field, g, y)
        i += 1
    return out


def distinct_degree_factors(field, f):
    """[(product of irreducible factors of degree d, d)] for squarefree f."""
    q = field.order
    out = []
    x = [field.zero, field.one]
    h = list(x)
    d = 0
    f = monic(field, f)
    while degree(f) >= 2 * (d + 1):
        d += 1
        h = powmod(field, h, q, f)
        g = gcd(field, f, sub(field, h, x))
        if degree(g) > 0:
            out.append((g, d))
            f, _ = divmod_poly(field, f, g)
            h = rem(field, h, f)
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _split(field, f, s, rng):
    """A proper monic factor of a monic squarefree f of degree >= 2 whose
    roots all lie in F_{p^s}.  Cantor-Zassenhaus on the trace: for a
    random r with coefficients in F_{p^g}, g = gcd(k, s), the polynomial
    T = r + r^p + ... + r^(p^(s-1)) mod f is Tr(r(a)) in F_p at each root
    a, so gcd(f, T^((p-1)/2) - 1) splits f about half the time."""
    p, k, n = field.characteristic, field.k, degree(f)
    g = igcd(k, s)
    if s > 1:
        xps = [[field.one], powmod(field, [field.zero, field.one], p, f)]
        while len(xps) < n:
            xps.append(rem(field, mul(field, xps[-1], xps[1]), f))
    while True:
        r = [random_element(field, rng) for _ in range(n)]
        if g < k:
            r = [sum(field.frobenius(c, g * i) for i in range(k // g))
                 for c in r]
        t = r
        for _ in range(s - 1):
            r = _frobenius_poly(field, r, xps)
            t = [a + b for a, b in zip(t, r)]
        h = gcd(field, f, sub(field, powmod(field, t, (p - 1) // 2, f),
                              [field.one]))
        if 0 < degree(h) < n:
            return h


def factor(field, f):
    """Full factorization over a finite field F_{p^k}: [(monic
    irreducible, mult)], sorted by degree, then coefficients.  Each
    product of the degree-d factors is split with _split (roots in
    F_{p^(k d)}) until every piece has degree d; a factorization into
    monic irreducibles is unique, so the seed does not show."""
    f = trim(list(f))
    if degree(f) < 1:
        return []
    rng = random.Random(_SPLIT_SEED)
    out = []
    for sqf, mult in squarefree_part_factors(field, f):
        for prod, d in distinct_degree_factors(field, sqf):
            todo = [prod]
            while todo:
                g = todo.pop()
                if degree(g) == d:
                    out.append((g, mult))
                else:
                    h = _split(field, g, field.k * d, rng)
                    todo += [h, divmod_poly(field, g, h)[0]]
    out.sort(key=lambda fm: (degree(fm[0]),
                             [field.element_key(c) for c in fm[0]]))
    return out


def conjugate_roots(field, f, step):
    """The roots of an f irreducible over F_{p^step}, in a field that
    holds them, sorted by element_key: one root a, split off with _split
    (keeping the smaller factor until it is linear), and its images
    a^(p^(step i)), i < deg f."""
    n = degree(f)
    rng = random.Random(_SPLIT_SEED)
    g = monic(field, f)
    while degree(g) > 1:
        h = _split(field, g, step * n, rng)
        g = h if 2 * degree(h) <= degree(g) else divmod_poly(field, g, h)[0]
    root = -g[0]
    return sorted((field.frobenius(root, step * i) for i in range(n)),
                  key=field.element_key)


def _frobenius_poly(field, r, xps):
    """r^p mod f, from the powers xps[j] = x^(p j) mod f."""
    out = [field.zero] * len(xps)
    for c, xj in zip(r, xps):
        if c:
            c = field.frobenius(c)
            for i, y in enumerate(xj):
                out[i] = out[i] + c * y
    return out


def roots(field, f):
    """Roots in the field itself, as [(root, multiplicity)], sorted."""
    out = []
    for irr, mult in factor(field, f):
        if degree(irr) == 1:
            out.append((-irr[0], mult))
    out.sort(key=lambda rm: field.element_key(rm[0]))
    return out


def rational_roots(f):
    """Rational roots of a polynomial with Fraction coefficients, as
    [(root, multiplicity)] sorted.

    The coefficients here routinely have hundreds of digits, so instead of
    the divisor search the roots are found modulo one good word-size
    prime, Hensel-lifted, and recognized by rational reconstruction with
    an exact final check.
    """
    from .linsolve import PRIMES30, rational_reconstruct

    f = trim(list(f))
    if degree(f) < 1:
        return []
    den = 1
    for c in f:
        c = Fraction(c)
        den = den * c.denominator // igcd(den, c.denominator)
    ints = [int(Fraction(c) * den) for c in f]
    g = 0
    for c in ints:
        g = igcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    out = {}
    if shift:
        out[Fraction(0)] = shift
    if len(ints) <= 1:
        return sorted(out.items())

    poly = [Fraction(c) for c in ints]
    # detect roots on the squarefree part so repeated rational roots do
    # not block the good-prime search
    sqf = poly
    g_q = gcd(QQ, poly, derivative(QQ, poly))
    if len(g_q) > 1:
        sqf, _ = divmod_poly(QQ, poly, g_q)
    sq_den = 1
    for c in sqf:
        sq_den = sq_den * c.denominator // igcd(sq_den, c.denominator)
    sq_ints = [int(c * sq_den) for c in sqf]
    # a height bound loose enough for reconstruction to succeed
    height = max(max(abs(c) for c in ints), max(abs(c) for c in sq_ints))
    bound = 4 * height * height + 16
    candidates = set()
    for p in PRIMES30:
        if sq_ints[-1] % p == 0:
            continue
        field = PrimeField(p)
        fp = [field(c) for c in sq_ints]
        if degree(gcd(field, fp, derivative(field, fp))) > 0:
            continue        # repeated roots mod p; try another prime
        ints = sq_ints
        for r0, _ in roots(field, fp):
            r = r0.value
            modulus = p
            while modulus < bound:
                # quadratic Hensel step
                modulus *= modulus
                fr = _eval_int(ints, r, modulus)
                dfr = _eval_int([c * (i + 1) for i, c in
                                 enumerate(ints[1:])], r, modulus)
                r = (r - fr * pow(dfr, -1, modulus)) % modulus
            cand = rational_reconstruct(r, modulus)
            if cand is not None:
                candidates.add(cand)
        break
    for cand in candidates:
        if evaluate(QQ, poly, cand) == 0:
            mult = 0
            cur = poly
            while evaluate(QQ, cur, cand) == 0:
                cur, _ = divmod_poly(QQ, cur, [-cand, QQ.one])
                mult += 1
            out[cand] = mult
    return sorted(out.items())


def _eval_int(coeffs, x, modulus):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc
