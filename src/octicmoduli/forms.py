"""Binary forms with exact coefficients: GL2 action, transvectants, the
discriminant as the resultant of the two partials and projective roots.

A form of degree n is sum(a_i * X^i * Z^(n-i)), stored as the coefficient
tuple (a_0, ..., a_n).  The degree is a fixed attribute: a degree-7
polynomial embedded in degree 8 is a different value (it has picked up a
root at infinity).

Transvectants, products of forms and the GL2 action run as one
ResidueProgram each, over every field: residues over F_p and F_{p^k},
integer numerators over Q and Q(sqrt D).
"""

import functools
from fractions import Fraction
from math import comb, lcm

import numpy as np

from . import unipoly
from .errors import (
    DegreeTooSmall, OrderTooHigh, SingularMatrix, SmallCharacteristic,
    Unresolved, WrongDegree, ZeroForm,
)
from .fields import (
    QQ, ExtField, FpElement, PrimeField, QuadElement, QuadExtQ, Rationals,
    fraction_residue, residue_dtype,
)
from .jpoly import halving_chain


def _falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


class BinaryForm:
    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree, coeffs):
        coeffs = tuple(field(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise WrongDegree("degree %d form needs %d coefficients, got %d"
                              % (degree, degree + 1, len(coeffs)))
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and other.field == self.field
                and other.degree == self.degree and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if other.degree != self.degree:
            raise WrongDegree("cannot add forms of different degrees")
        return BinaryForm(self.field, self.degree,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if other.degree != self.degree:
            raise WrongDegree("cannot subtract forms of different degrees")
        return BinaryForm(self.field, self.degree,
                          [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm(self.field, self.degree, [-a for a in self.coeffs])

    def scale(self, c):
        c = self.field(c)
        return BinaryForm(self.field, self.degree,
                          [a * c for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return self.scale(other)
        return transvect(self, other, 0)

    __rmul__ = scale

    def evaluate(self, x, z):
        x, z = self.field(x), self.field(z)
        n = self.degree
        acc = self.field.zero
        xp = self.field.one
        zpows = [self.field.one]
        for _ in range(n):
            zpows.append(zpows[-1] * z)
        for i, a in enumerate(self.coeffs):
            if a:
                acc = acc + a * xp * zpows[n - i]
            xp = xp * x
        return acc

    def to_field(self, field, embed=None):
        """Move coefficients to another field; embed maps one element."""
        if embed is None:
            embed = field
        return BinaryForm(field, self.degree, [embed(c) for c in self.coeffs])

    def __repr__(self):
        return "BinaryForm(%r, deg=%d, %s)" % (self.field, self.degree,
                                               list(self.coeffs))


class Gl2Matrix:
    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        self.field = field
        self.a, self.b = field(a), field(b)
        self.c, self.d = field(c), field(d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, other):
        return Gl2Matrix(self.field,
                         self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def __add__(self, other):
        return Gl2Matrix(self.field, self.a + other.a, self.b + other.b,
                         self.c + other.c, self.d + other.d)

    def inverse(self):
        dt = self.det()
        if not dt:
            raise SingularMatrix("matrix is singular")
        inv = self.field.one / dt
        return Gl2Matrix(self.field, self.d * inv, -self.b * inv,
                         -self.c * inv, self.a * inv)

    def scale(self, c):
        return Gl2Matrix(self.field, self.a * c, self.b * c,
                         self.c * c, self.d * c)

    def __eq__(self, other):
        return (isinstance(other, Gl2Matrix) and (self.a, self.b, self.c,
                self.d) == (other.a, other.b, other.c, other.d))

    def __repr__(self):
        return "[[%r, %r], [%r, %r]]" % (self.a, self.b, self.c, self.d)


def transvect(f, g, h):
    """h-th transvectant (f, g)_h, including the factorial normalization.

    Computed through the closed coefficient formula
      (f,g)_h = 1/(ff(r1,h) ff(r2,h)) * sum_k (-1)^k C(h,k) F_k G_k
    with F_k the (h-k, k) mixed partial of f and G_k the (k, h-k) one,
    as one stage of a ResidueProgram on the coefficients of f and g
    (_transvect_program), over every field.  The product f g is (f, g)_0.
    Forms over different fields are refused with TypeError.
    """
    r1, r2 = f.degree, g.degree
    if h < 0 or h > min(r1, r2):
        raise OrderTooHigh("transvectant order %d exceeds degrees (%d, %d)"
                           % (h, r1, r2))
    field = _same_field(f, g)
    _check_characteristic(field.characteristic)
    return BinaryForm(field, r1 + r2 - 2 * h, _transvect_program(
        field, r1, r2, h).elements(field, f.coeffs + g.coeffs,
                                   slice(r1 + r2 + 2, None)))


def _same_field(a, b):
    """The field of a and b (forms or matrices); TypeError naming both
    fields when they differ."""
    if a.field != b.field:
        raise TypeError("operands over different fields: %r and %r"
                        % (a.field, b.field))
    return a.field


def _integral(coeffs):
    """Numerators over one common denominator of Fractions: (nums, den)
    with coeffs[i] = nums[i] / den, den the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _check_characteristic(char):
    if 0 < char < 11:
        raise SmallCharacteristic(
            "covariant formulas need characteristic 0 or >= 11")


def _transvectant_terms(r1, r2, h):
    """Per coefficient n of (f, g)_h for forms of degrees r1 and r2, its
    terms (c, u, v), c a nonzero Fraction and (u, v) in increasing order,
    on the inputs f_0, ..., f_r1, g_0, ..., g_r2 (f_u at u, g_v at
    r1 + 1 + v): the closed formula of transvect."""
    t = np.zeros((r1 + 1, r2 + 1), dtype=object)    # a_u b_v: n = u + v - h
    for k in range(h + 1):
        signed = -comb(h, k) if k % 2 else comb(h, k)
        for i, x in enumerate(_partial_weights(r1, h - k, k)):
            for j, y in enumerate(_partial_weights(r2, k, h - k)):
                t[i + h - k, j + k] += signed * x * y
    div = _falling(r1, h) * _falling(r2, h)
    out = [[] for _ in range(r1 + r2 - 2 * h + 1)]
    for u, v in zip(*np.nonzero(t)):
        out[u + v - h].append((Fraction(t[u, v], div), u, r1 + 1 + v))
    return out


def program_cache(build):
    """functools.cache of build(field, *args) for a ResidueProgram,
    keyed by the field over F_p and F_{p^k} and by Q over characteristic
    0: a program over Q serves Q and every Q(sqrt D), and reconstruction
    over Q makes a new Q(sqrt D) each time."""
    cached = functools.cache(build)

    def program(field, *args):
        return cached(field if field.characteristic else QQ, *args)

    program.cache_info = cached.cache_info
    return functools.update_wrapper(program, build)


@program_cache
def _transvect_program(field, r1, r2, h):
    """(f, g)_h as one stage (_transvectant_terms)."""
    return ResidueProgram(field, r1 + r2 + 2, [_transvectant_terms(r1, r2, h)])


class ResidueProgram:
    """Stages of sums of products on one array of values: the inputs,
    then each stage's outputs.  stages holds, per stage and output, its
    terms (c, u, v): c x_u x_v, c an int or a Fraction, u and v indices
    of inputs or earlier outputs.

    Over F_p a value is one residue, c is reduced mod p (terms with c = 0
    mod p are dropped), and a stage is one gather, one product and one
    np.add.reduceat.  Over F_{p^k} a value is its k coefficient residues
    (ExtElement.coeffs): a term's product is the k x k outer product of
    the two coefficient vectors, and the stage's sums, reduced mod p, are
    folded once by the modulus through one (k^2, k) table of t^(i + j)
    (field.fold).  The arrays are int64 while the longest sum of
    products of two residues fits (a stage's, or the fold's k^2), Python
    ints above (fields.residue_dtype); c x_u is reduced where c x_u x_v
    summed could pass 2^63.

    A program built for Q serves Q and every Q(sqrt D) (elements).  Its
    values are integer numerators in object arrays, never reduced: the
    inputs are numerators over one common denominator L, and an output
    is its numerator over den L^deg, with deg its degree in the inputs
    and den the lcm of its terms' denominators, both fixed here;
    ValueError when the terms of one output differ in degree.  Over
    Q(sqrt D), D = n/q in lowest terms, a + b sqrt(D) is the pair
    (a, b/q) in Z[s], s^2 = nq: k = 2 with the fold t^2 = nq
    (QuadExtQ.fold), taken from the field at run time."""

    def __init__(self, field, n_inputs, stages):
        p, k = field.characteristic, field.k
        self.p, self.stages = p, []
        scale = [(1, 1)] * n_inputs       # (den, deg) per value over Q
        staged = []
        for stage in stages:
            staged.append([])
            for terms in stage:
                if p:
                    terms = [(fraction_residue(Fraction(c), p), u, v)
                             for c, u, v in terms]
                    terms = [term for term in terms if term[0]]
                else:
                    terms, at = _integral_terms(terms, scale)
                    scale.append(at)
                staged[-1].append(terms or [(0, 0, 0)])
        most = [max(map(len, stage)) for stage in staged]
        self.dtype = residue_dtype(p, max(most + [k * k])) if p else object
        self.fold = _fold_table(field, self.dtype) if p and k > 1 else None
        self.den = np.array([at[0] if at else 1 for at in scale], object)
        self.deg = np.array([at[1] if at else 0 for at in scale])
        for stage, n in zip(staged, most):
            c, u, v = zip(*(term for terms in stage for term in terms))
            self.stages.append((
                n_inputs, n_inputs + len(stage), np.array(c, self.dtype),
                np.array(u), np.array(v), np.cumsum([0] + [
                    len(terms) for terms in stage[:-1]]),
                p > 0 and n * (p - 1) ** 3 >= 1 << 63))
            n_inputs += len(stage)

    def run(self, xs, fold=None):
        """The array for the input values xs (an (n, k) array over
        F_{p^k}): xs, then every stage's outputs, reduced mod p over a
        finite field.  Over F_p xs may also be an (n, rows) numpy array,
        one column per point: the array is then (values, rows), each stage
        one gather, product and np.add.reduceat on axis 0 for every point
        at once.  fold is the (k^2, k) table of pairs over Q(sqrt D) (the
        program's own over F_{p^k})."""
        p = self.p
        if fold is None:
            fold = self.fold
        if fold is None:
            rows = xs.shape[1:] if isinstance(xs, np.ndarray) else ()
            vals = np.empty((self.stages[-1][1],) + rows, self.dtype)
            vals[:len(xs)] = xs
            for lo, hi, c, u, v, starts, mid in self.stages:
                if rows:
                    c = c[:, None]
                terms = (c * vals[u] % p if mid else c * vals[u]) * vals[v]
                sums = np.add.reduceat(terms, starts)
                vals[lo:hi] = sums % p if p else sums
            return vals
        k = fold.shape[1]
        vals = np.empty((self.stages[-1][1], k), self.dtype)
        vals[:len(xs)] = xs
        for lo, hi, c, u, v, starts, mid in self.stages:
            left = c[:, None] * vals[u]
            if mid:
                left %= p
            terms = (left[:, :, None] * vals[v][:, None, :]).reshape(-1, k * k)
            sums = np.add.reduceat(terms, starts)
            vals[lo:hi] = sums % p @ fold % p if p else sums @ fold
        return vals

    def elements(self, field, xs, index):
        """The elements at index (of run's array) for the input elements
        xs of field: the program's field, or for a program built for Q,
        Q, any Q(sqrt D) or another ring over Q, whose elements it runs
        on as they are (the polynomials of the calibration test)."""
        if self.p:
            if self.fold is None:
                return [FpElement(field, v) for v in
                        self.run([x.value for x in xs])[index].tolist()]
            return [field(row) for row in
                    self.run([x.coeffs for x in xs])[index].tolist()]
        den, deg = self.den[index].tolist(), self.deg[index].tolist()
        if isinstance(field, Rationals):
            nums, L = _integral(xs)
            vals = self.run(np.array(nums, object))[index].tolist()
            return [Fraction(x, d * L ** e) for x, d, e in zip(vals, den, deg)]
        if not isinstance(field, QuadExtQ):
            vals = self.run(np.array(xs, object))[index].tolist()
            return [x * Fraction(1, d) for x, d in zip(vals, den)]
        q, n = field.d.denominator, len(xs)
        nums, L = _integral([x.a for x in xs] + [x.b / q for x in xs])
        vals = self.run(np.array([nums[:n], nums[n:]], object).T,
                        _fold_table(field, object))[index].tolist()
        return [QuadElement(field, Fraction(a, d * L ** e),
                            Fraction(b * q, d * L ** e))
                for (a, b), d, e in zip(vals, den, deg)]


def _integral_terms(terms, scale):
    """One output's terms with integer c over Q, and its (den, deg), from
    the (den, deg) of the values before it; None for a value that is zero
    by construction (no terms), whose products are dropped."""
    terms = [(Fraction(c), u, v) for c, u, v in terms
             if c and scale[u] and scale[v]]
    degs = {scale[u][1] + scale[v][1] for _, u, v in terms}
    if len(degs) > 1:
        raise ValueError("the terms of one output differ in degree")
    dens = [c.denominator * scale[u][0] * scale[v][0] for c, u, v in terms]
    den = lcm(*dens)
    return ([(c.numerator * (den // d), u, v)
             for (c, u, v), d in zip(terms, dens)],
            (den, degs.pop()) if terms else None)


def _fold_table(field, dtype):
    """The (k^2, k) table whose row i k + j is t^(i + j), reduced by the
    field's fold rows from k on."""
    k = field.k
    rows = [[int(i == n) for i in range(k)] for n in range(k)]
    rows += [list(row) for row in field.fold]
    return np.array([rows[i + j] for i in range(k) for j in range(k)], dtype)


@functools.cache
def _partial_weights(n, m, l):
    """w with d^m/dX^m d^l/dZ^l of sum a_i X^i Z^(n-i) equal to
    sum a_(i+m) w_i X^i Z^(n-m-l-i)."""
    return tuple(_falling(i + m, m) * _falling(n - m - i, l)
                 for i in range(n - m - l + 1))


def _partial(coeffs, m, l):
    """Coefficients of d^m/dX^m d^l/dZ^l of the form with coefficients
    coeffs (a_0, ..., a_n)."""
    return [a * w for a, w in
            zip(coeffs[m:], _partial_weights(len(coeffs) - 1, m, l))]


def gl2_act(mat, f):
    """Substitution action: (M.f)(X, Z) = f(aX + bZ, cX + dZ).

    Composition is contravariant: gl2_act(M, gl2_act(N, f)) equals
    gl2_act(N * M, f).  One ResidueProgram (_gl2_program) over every
    field.  A singular matrix is refused, and a matrix over another
    field than f's with TypeError.
    """
    field, n = _same_field(mat, f), f.degree
    if not mat.det():
        raise SingularMatrix("matrix is singular")
    inputs = list(f.coeffs) + [field.one, mat.a, mat.b, mat.c, mat.d]
    return BinaryForm(field, n, _gl2_program(field, n).elements(
        field, inputs, slice(-n - 1, None)))


@program_cache
def _gl2_program(field, n):
    """gl2_act on a degree-n form as one ResidueProgram on the inputs
    f_0, ..., f_n, 1, a, b, c, d.  The monomials of degree n in a, b, c,
    d are built by halving (jpoly.halving_chain), one stage per level;
    then output j is the sum over i and s of C(i, s) C(n - i, j - s) f_i
    a^s b^(i - s) c^(j - s) d^(n - i - j + s), the coefficient of X^j in
    f_i (aX + bZ)^i (cX + dZ)^(n - i)."""
    terms = [(comb(i, s) * comb(n - i, j - s), i, (s, i - s, j - s,
                                                   n - i - j + s))
             for j in range(n + 1) for i in range(n + 1)
             for s in range(max(0, j - n + i), min(i, j) + 1)]
    levels, at = halving_chain([ev for _, _, ev in terms], 4)
    at = (at + n + 1).tolist()
    stages = [[[(1, u + n + 1, v + n + 1)] for u, v in zip(left, right)]
              for _, _, left, right in levels]
    stages.append([[] for _ in range(n + 1)])
    for (c, i, ev), m in zip(terms, at):
        stages[-1][sum(ev[::2])].append((c, i, m))
    return ResidueProgram(field, n + 6, stages)


def disc_resultant(f):
    """The discriminant of a degree-n form up to a constant: the resultant
    of its partials in X and Z at formal degrees n - 1, Res_{n-1,n-1}
    (unipoly.resultant).

    Zero exactly when f has a multiple root in the algebraic closure, one
    at infinity included.  For a degree-n form this quantity has weight
    n(n-1) under substitution.
    """
    if f.degree < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    n = f.degree - 1
    return unipoly.resultant(f.field, _partial(f.coeffs, 1, 0),
                             _partial(f.coeffs, 0, 1), n, n)


# ---------------------------------------------------------------------------
# projective roots over a splitting field


def embed_field(small, big):
    """The embedding of a field into a finite field containing it.

    big itself, which coerces, when small is big, F_p or Q; otherwise
    F_{p^k} -> F_{p^K} (k | K) through the least root of small's modulus
    in big (by element_key), a deterministic choice.
    """
    if small == big or not isinstance(small, ExtField):
        return big
    return _ext_embedding(small, big)


@functools.cache
def _ext_embedding(small, big):
    if big.k % small.k:
        raise ValueError("no embedding F_%d^%d -> F_%d^%d"
                         % (small.p, small.k, big.p, big.k))
    root = unipoly.conjugate_roots(big, [big(c) for c in small.modulus],
                                   1)[0]
    # a = sum a_i t^i goes to sum a_i root^i: one F_p-linear map
    rows = [big.one]
    for _ in range(small.k - 1):
        rows.append(rows[-1] * root)
    rows = [row.coeffs for row in rows]

    def embed(a):
        out = [0] * big.k
        for c, row in zip(a.coeffs, rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return big(out)

    return embed


def splitting_extension(field, degrees):
    """Smallest extension of the base prime field containing all roots."""
    total = field.k * lcm(1, *degrees)
    if total == 1:
        return field
    return ExtField(field.characteristic, total)


def roots_in_splitting_field(f):
    """All projective roots (x : z) of f with multiplicity, over one
    deterministic extension containing the splitting field.

    The root at infinity (1 : 0) appears when the top coefficient vanishes.
    Returns (ext_field, [((x, z), multiplicity), ...]), the roots of each
    irreducible factor over f's field F_q sorted by element_key: one root
    and its conjugates under x -> x^q.  Unresolved over Q and Q(sqrt(D)).
    """
    if f.is_zero():
        raise ZeroForm("zero form has no root divisor")
    field = f.field
    if not isinstance(field, (PrimeField, ExtField)):
        raise Unresolved("splitting fields implemented for finite fields only")
    n = f.degree
    # affine part: u(x) = sum a_i x^i, top coefficient index d
    d = max(i for i, c in enumerate(f.coeffs) if c)
    uni = list(f.coeffs[:d + 1])
    facs = unipoly.factor(field, uni)
    ext = splitting_extension(field, [unipoly.degree(g) for g, _ in facs])
    emb = embed_field(field, ext)
    out = []
    if n - d > 0:
        out.append(((ext.one, ext.zero), n - d))
    for g, mult in facs:
        for r in unipoly.conjugate_roots(ext, [emb(c) for c in g], field.k):
            out.append(((r, ext.one), mult))
    return ext, out
