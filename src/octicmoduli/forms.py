"""Binary forms with exact coefficients: GL2 action, transvectants, the
discriminant as the resultant of the two partials and projective roots.

A form of degree n is sum(a_i * X^i * Z^(n-i)), stored as the coefficient
tuple (a_0, ..., a_n).  The degree is a fixed attribute: a degree-7
polynomial embedded in degree 8 is a different value (it has picked up a
root at infinity).
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
    ExtField, FpElement, PrimeField, Rationals, fraction_residue,
    residue_dtype,
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
        n = self.degree + other.degree
        if isinstance(self.field, Rationals):
            (a, da), (b, db) = _integral(self.coeffs), _integral(other.coeffs)
            return BinaryForm(self.field, n, [
                Fraction(c, da * db) for c in _convolve([0] * (n + 1), a, b)])
        return BinaryForm(self.field, n, _convolve(
            [0] * (n + 1), self.coeffs, other.coeffs))

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
    one loop on the coefficients (_transvectant_sum): the path of
    covariant_eval, and of shioda over Q and Q(sqrt(D)).  Over Q the loop
    runs on integers, each form's numerators over its common denominator
    (_integral), and each output coefficient is one Fraction; over every
    other field it runs on field elements.  shioda over F_p and F_{p^k}
    runs the same formula in a residue program (_transvectant_tensor),
    and the tests compare the two.
    """
    r1, r2 = f.degree, g.degree
    if h < 0 or h > min(r1, r2):
        raise OrderTooHigh("transvectant order %d exceeds degrees (%d, %d)"
                           % (h, r1, r2))
    field = f.field
    _check_characteristic(field.characteristic)
    div = _falling(r1, h) * _falling(r2, h)
    if isinstance(field, Rationals):
        (a, df), (b, dg) = _integral(f.coeffs), _integral(g.coeffs)
        den = df * dg * div
        return BinaryForm(field, r1 + r2 - 2 * h, [
            Fraction(c, den) for c in _transvectant_sum(a, b, h)])
    norm = field(Fraction(1, div))
    return BinaryForm(field, r1 + r2 - 2 * h, [
        c * norm for c in _transvectant_sum(f.coeffs, g.coeffs, h)])


def _transvectant_sum(a, b, h):
    """sum_k (-1)^k C(h,k) F_k G_k on the coefficients a and b (ints or
    field elements) of forms of degrees r1 and r2: r1 + r2 - 2h + 1
    values, not yet divided by ff(r1,h) ff(r2,h)."""
    out = [0] * (len(a) + len(b) - 2 * h - 1)
    for k in range(h + 1):
        signed = -comb(h, k) if k % 2 else comb(h, k)
        _convolve(out, _partial(a, h - k, k, signed), _partial(b, k, h - k))
    return out


def _convolve(out, xs, ys):
    """out with out[i + j] += x y for every nonzero x of xs and y of ys:
    the coefficient loop of products and transvectants."""
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                out[i + j] += x * y
    return out


def _integral(coeffs):
    """Numerators over one common denominator of Fractions: (nums, den)
    with coeffs[i] = nums[i] / den, den the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _check_characteristic(char):
    if 0 < char < 11:
        raise SmallCharacteristic(
            "covariant formulas need characteristic 0 or >= 11")


def _transvectant_tensor(r1, r2, h, p):
    """T with (f, g)_h = sum over (u, v) of T[n, u, v] a_u b_v over F_p,
    as residues (Python ints): the closed formula of transvect, one term
    at a time."""
    _check_characteristic(p)
    t = np.zeros((r1 + r2 - 2 * h + 1, r1 + 1, r2 + 1), dtype=object)
    for k in range(h + 1):
        signed = -comb(h, k) if k % 2 else comb(h, k)
        for i, x in enumerate(_partial_weights(r1, h - k, k)):
            for j, y in enumerate(_partial_weights(r2, k, h - k)):
                t[i + j, i + h - k, j + k] += signed * x * y
    norm = fraction_residue(Fraction(1, _falling(r1, h) * _falling(r2, h)), p)
    return t * norm % p


class ResidueProgram:
    """Stages of sums of products over a finite field F_q on one array of
    residues: the inputs, then each stage's outputs.  stages holds, per
    stage and output, its terms (c, u, v): c x_u x_v, c a residue mod p,
    u and v indices of inputs or earlier outputs.

    Over F_p a value is one residue, and a stage is one gather, one
    product and one np.add.reduceat.  Over F_{p^k} a value is its k
    coefficient residues (ExtElement.coeffs): a term's product is the
    k x k outer product of the two coefficient vectors, and the stage's
    sums, reduced mod p, are folded once by the modulus through one
    (k^2, k) table of t^(i + j) (field.fold).  The arrays are int64 while
    the longest sum of products of two residues fits (a stage's, or the
    fold's k^2), Python ints above (fields.residue_dtype); c x_u is
    reduced where c x_u x_v summed could pass 2^63."""

    def __init__(self, field, n_inputs, stages):
        stages = [[terms or [(0, 0, 0)] for terms in stage]
                  for stage in stages]
        most = [max(map(len, stage)) for stage in stages]
        p, k = field.characteristic, field.k
        self.field, self.p, self.stages = field, p, []
        self.dtype = residue_dtype(p, max(most + [k * k]))
        self.fold = None
        if isinstance(field, ExtField):
            # row i k + j: t^(i + j), reduced by the modulus from k on
            rows = [[int(i == n) for i in range(k)] for n in range(k)]
            rows += [list(row) for row in field.fold]
            self.fold = np.array([rows[i + j] for i in range(k)
                                  for j in range(k)], self.dtype)
        for stage, n in zip(stages, most):
            c, u, v = zip(*(term for terms in stage for term in terms))
            self.stages.append((
                n_inputs, n_inputs + len(stage), np.array(c, self.dtype),
                np.array(u), np.array(v), np.cumsum([0] + [
                    len(terms) for terms in stage[:-1]]),
                n * (p - 1) ** 3 >= 1 << 63))
            n_inputs += len(stage)

    def run(self, xs):
        """The array for the input residues xs (an (n, k) array over
        F_{p^k}): xs, then every stage's outputs, reduced mod p.  Over
        F_p xs may also be an (n, rows) numpy array, one column per
        point: the array is then (values, rows), each stage one gather,
        product and np.add.reduceat on axis 0 for every point at once."""
        p, fold = self.p, self.fold
        if fold is None:
            rows = xs.shape[1:] if isinstance(xs, np.ndarray) else ()
            vals = np.empty((self.stages[-1][1],) + rows, self.dtype)
            vals[:len(xs)] = xs
            for lo, hi, c, u, v, starts, mid in self.stages:
                if rows:
                    c = c[:, None]
                terms = (c * vals[u] % p if mid else c * vals[u]) * vals[v]
                vals[lo:hi] = np.add.reduceat(terms, starts) % p
            return vals
        k = fold.shape[1]
        vals = np.empty((self.stages[-1][1], k), self.dtype)
        vals[:len(xs)] = xs
        for lo, hi, c, u, v, starts, mid in self.stages:
            left = c[:, None] * vals[u]
            if mid:
                left %= p
            terms = (left[:, :, None] * vals[v][:, None, :]).reshape(-1, k * k)
            vals[lo:hi] = np.add.reduceat(terms, starts) % p @ fold % p
        return vals

    def elements(self, xs, index):
        """The field elements at index (of run's array) for the input
        elements xs, which are elements of the program's field."""
        field = self.field
        if self.fold is None:
            return [FpElement(field, v) for v in
                    self.run([x.value for x in xs])[index].tolist()]
        return [field(row) for row in
                self.run([x.coeffs for x in xs])[index].tolist()]


@functools.cache
def _partial_weights(n, m, l):
    """w with d^m/dX^m d^l/dZ^l of sum a_i X^i Z^(n-i) equal to
    sum a_(i+m) w_i X^i Z^(n-m-l-i)."""
    return tuple(_falling(i + m, m) * _falling(n - m - i, l)
                 for i in range(n - m - l + 1))


def _partial(coeffs, m, l, scale=1):
    """Coefficients of scale times d^m/dX^m d^l/dZ^l of the form with
    coefficients coeffs (a_0, ..., a_n)."""
    return [a * (w * scale) for a, w in
            zip(coeffs[m:], _partial_weights(len(coeffs) - 1, m, l))]


def omega_pair(f, g):
    """Unnormalized Omega^2 contraction of f against a quadratic g.

    Maps an order-r covariant to order r-2; equals 2*r*(r-1)*(f, g)_2,
    transvect's sum before its division (_transvectant_sum), over Q on
    integer numerators with one Fraction per coefficient.  The quartic
    construction applies this operator nest four times.
    """
    r1, r2 = f.degree, g.degree
    if r2 != 2 or r1 < 2:
        raise OrderTooHigh("omega_pair expects a quadratic second argument")
    field = f.field
    _check_characteristic(field.characteristic)
    if isinstance(field, Rationals):
        (a, df), (b, dg) = _integral(f.coeffs), _integral(g.coeffs)
        return BinaryForm(field, r1 - 2, [
            Fraction(c, df * dg) for c in _transvectant_sum(a, b, 2)])
    return BinaryForm(field, r1 - 2, _transvectant_sum(f.coeffs, g.coeffs, 2))


def gl2_act(mat, f):
    """Substitution action: (M.f)(X, Z) = f(aX + bZ, cX + dZ).

    Composition is contravariant: gl2_act(M, gl2_act(N, f)) equals
    gl2_act(N * M, f).  Over F_p and F_{p^k} this is one ResidueProgram
    (_gl2_program); over Q and Q(sqrt(D)) the powers of the two linear
    forms are multiplied out on field elements (_gl2_act_elements, which
    runs over every field).  A singular matrix is refused.
    """
    if not mat.det():
        raise SingularMatrix("matrix is singular")
    field, n = f.field, f.degree
    if not isinstance(field, (PrimeField, ExtField)):
        return _gl2_act_elements(mat, f)
    inputs = list(f.coeffs) + [field.one] + [
        field(x) for x in (mat.a, mat.b, mat.c, mat.d)]
    return BinaryForm(field, n, _gl2_program(field, n).elements(
        inputs, slice(-n - 1, None)))


def _gl2_act_elements(mat, f):
    """gl2_act on field elements."""
    field = f.field
    n = f.degree
    # powers of the two substituted linear forms
    lin1 = BinaryForm(field, 1, [mat.b, mat.a])   # aX + bZ
    lin2 = BinaryForm(field, 1, [mat.d, mat.c])   # cX + dZ
    pow1 = [BinaryForm(field, 0, [field.one])]
    pow2 = [BinaryForm(field, 0, [field.one])]
    for _ in range(n):
        pow1.append(pow1[-1] * lin1)
        pow2.append(pow2[-1] * lin2)
    out = BinaryForm(field, n, [field.zero] * (n + 1))
    for i, a in enumerate(f.coeffs):
        if a:
            out = out + (pow1[i] * pow2[n - i]).scale(a)
    return out


@functools.cache
def _gl2_program(field, n):
    """gl2_act on a degree-n form over a finite field as one
    ResidueProgram on the inputs f_0, ..., f_n, 1, a, b, c, d.  The
    monomials of degree n in a, b, c, d are built by halving
    (jpoly.halving_chain), one stage per level; then output j is the sum
    over i and s of C(i, s) C(n - i, j - s) f_i a^s b^(i - s) c^(j - s)
    d^(n - i - j + s), the coefficient of X^j in
    f_i (aX + bZ)^i (cX + dZ)^(n - i)."""
    p = field.characteristic
    terms = [(comb(i, s) * comb(n - i, j - s) % p, i, (s, i - s, j - s,
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
