"""The fundamental covariants of binary octics and everything built on
them: the nine generator invariants J2..J10, the catalogue of 69 covariant
generators, invariant-to-J-polynomial interpolation, the five syzygies
among J8, J9, J10, and the degree-14 discriminant in J-coordinates.

The catalogue lists, for each generator, a recipe over earlier entries:
either a transvectant of a previous generator (or product of two) against
the base form.  Orders never exceed 10 except for the two order-18
entries, which keeps every formula valid in characteristic 0 and >= 11.
"""

import functools
import random
from fractions import Fraction
from math import prod

import numpy as np

from . import forms, store
from .errors import (
    RankDeficiency, SingularForm, UnknownIdentifier, Unresolved, WrongDegree,
)
from .fields import ExtField, PrimeField, QQ, fraction_residue
from .forms import BinaryForm, transvect
from .jpoly import JPolynomial, PolySet, monomial_basis, monomial_matrix, wdeg
from .linsolve import solve_rational
from .unipoly import rational_roots, roots as field_roots
from .wps import SHIODA_WEIGHTS, as_point, residues_equal, wps_equal

# ---------------------------------------------------------------------------
# catalogue


def _build_catalogue():
    """(degree, order, recipe) per identifier; recipe is
    ("base",), ("tr", left, h) or ("trprod", left1, left2, h),
    the transvectant always being taken against the base form."""
    cat = {"f": (1, 8, ("base",))}

    def tr(name, left, h):
        d, r, _ = cat[left]
        cat[name] = (d + 1, r + 8 - 2 * h, ("tr", left, h))

    def trp(name, left1, left2, h):
        d1, r1, _ = cat[left1]
        d2, r2, _ = cat[left2]
        cat[name] = (d1 + d2 + 1, r1 + r2 + 8 - 2 * h,
                     ("trprod", left1, left2, h))

    tr("C2_0", "f", 8); tr("C2_4", "f", 6)
    tr("C2_8", "f", 4); tr("C2_12", "f", 2)

    tr("C3_0", "C2_8", 8); tr("C3_4", "C2_8", 6); tr("C3_6", "C2_8", 5)
    tr("C3_8", "C2_8", 4); tr("C3_10", "C2_8", 3); tr("C3_12", "C2_8", 2)
    tr("C3_14", "C2_8", 1); tr("C3_18", "C2_12", 1)

    tr("C4_0", "C3_8", 8); tr("C4_4", "C3_4", 4); tr("C4_4p", "C3_8", 6)
    tr("C4_6", "C3_4", 3); tr("C4_8", "C3_4", 2); tr("C4_10", "C3_4", 1)
    tr("C4_10p", "C3_8", 3); tr("C4_12", "C3_8", 2); tr("C4_14", "C3_8", 1)
    tr("C4_18", "C3_12", 1)

    tr("C5_0", "C4_8", 8); tr("C5_2", "C4_10", 8); tr("C5_4", "C4_10", 7)
    tr("C5_4p", "C4_8", 6); tr("C5_6", "C4_10", 6); tr("C5_6p", "C4_8", 5)
    tr("C5_8", "C4_10", 5); tr("C5_10", "C4_8", 3); tr("C5_10p", "C4_10", 4)
    tr("C5_10pp", "C4_10p", 4); tr("C5_14", "C4_10", 2)

    trp("C6_0", "C3_4", "C2_4", 8)
    tr("C6_2", "C5_8", 7); tr("C6_4", "C5_8", 6); tr("C6_4p", "C5_4p", 4)
    tr("C6_6", "C5_8", 5); tr("C6_6p", "C5_4p", 3); tr("C6_6pp", "C5_10p", 6)
    tr("C6_8", "C5_4p", 2); tr("C6_10", "C5_4p", 1)

    trp("C7_0", "C2_4", "C4_4p", 8)
    # the worked reconstruction example pins which of the two degree-7
    # order-2 generators is the unprimed one
    tr("C7_2", "C6_6pp", 6); trp("C7_2p", "C2_4", "C4_6", 8)
    trp("C7_4", "C2_4", "C4_6", 7); tr("C7_4p", "C6_6pp", 5)
    tr("C7_6", "C6_6pp", 4); tr("C7_6p", "C6_2", 2)
    trp("C7_6pp", "C2_4", "C4_6", 6)

    trp("C8_0", "C3_4", "C4_4", 8)
    trp("C8_2", "C2_8", "C5_2", 8); trp("C8_2p", "C3_6", "C4_4", 8)
    trp("C8_4", "C3_6", "C4_4", 7); trp("C8_4p", "C3_4", "C4_6", 7)
    trp("C8_6", "C3_6", "C4_4", 6); trp("C8_6p", "C3_4", "C4_6", 6)

    trp("C9_0", "C2_4", "C6_4", 8)
    # the exceptional-point fixtures pin the degree-9 naming: the primed
    # generator is the one built on the (6,6) covariant
    trp("C9_2", "C4_6", "C4_4p", 8); trp("C9_2p", "C2_4", "C6_6p", 8)
    trp("C9_2pp", "C2_4", "C6_4", 7); trp("C9_4", "C2_4", "C6_4", 6)

    trp("C10_0", "C4_4", "C5_4p", 8)
    trp("C10_2", "C7_2p", "C2_4", 6); trp("C10_2p", "C4_6", "C5_4", 8)

    trp("C11_2", "C8_4p", "C2_4", 7); trp("C11_2p", "C5_6p", "C5_4p", 8)

    trp("C12_2", "C6_6p", "C5_4p", 8)
    return cat


CATALOGUE = _build_catalogue()

#: the fourteen order-2 generators, by increasing degree then plainness
ORDER2_IDS = [name for name, (d, r, _) in sorted(
    CATALOGUE.items(), key=lambda kv: (kv[1][0], kv[0])) if r == 2]

#: the nine invariants of the catalogue
INVARIANT_IDS = [name for name, (d, r, _) in sorted(
    CATALOGUE.items(), key=lambda kv: (kv[1][0], kv[0])) if r == 0]


def catalogue_degree_order(identifier):
    if identifier not in CATALOGUE:
        raise UnknownIdentifier("no catalogue entry %r" % identifier)
    d, r, _ = CATALOGUE[identifier]
    return d, r


def covariant_eval(identifier, f, cache=None):
    """Evaluate one catalogue entry on an octic, bottom-up over the DAG.

    Passing a dict as cache shares intermediate covariants between calls
    on the same form.
    """
    if identifier not in CATALOGUE:
        raise UnknownIdentifier("no catalogue entry %r" % identifier)
    if f.degree != 8:
        raise WrongDegree("catalogue covariants take octics")
    if cache is None:
        cache = {}

    def ev(name):
        if name in cache:
            return cache[name]
        _, _, recipe = CATALOGUE[name]
        if recipe[0] == "base":
            val = f
        elif recipe[0] == "tr":
            _, left, h = recipe
            val = transvect(ev(left), f, h)
        else:
            _, left1, left2, h = recipe
            val = transvect(ev(left1) * ev(left2), f, h)
        cache[name] = val
        return val

    return ev(identifier)


# ---------------------------------------------------------------------------
# Shioda invariants


def shioda(f, residues=False):
    """The nine generator invariants (J2, ..., J10) of an octic.

    Built from the classical chain of auxiliary covariants; the
    coefficient expansions of J2, J3, J4 are pinned by the calibration
    test, which fixes every normalization here.  Over F_p and F_{p^k}
    the chain runs as one ResidueProgram (_shioda_program), and the nine
    results are field elements, or over F_p with residues=True ints mod
    p; over Q and Q(sqrt(D)) it runs on forms (transvect), over Q on
    integer numerators with one Fraction per output coefficient.
    """
    if f.degree != 8:
        raise WrongDegree("Shioda invariants take octics")
    field = f.field
    if isinstance(field, PrimeField) and residues:
        program, jindex = _shioda_program(field)
        return program.run([c.value for c in f.coeffs])[jindex].tolist()
    if isinstance(field, (PrimeField, ExtField)):
        program, jindex = _shioda_program(field)
        return tuple(program.elements(f.coeffs, jindex))
    return tuple(t.coeffs[0] for t in _shioda_chain(f, transvect))


@functools.cache
def _shioda_program(field):
    """_shioda_chain over a finite field as one ResidueProgram on the
    octic's nine coefficients, and the indices of J2..J10 in its array
    (_shioda_stages)."""
    stages, jindex = _shioda_stages(field.characteristic)
    return forms.ResidueProgram(field, 9, stages), jindex


@functools.cache
def _shioda_stages(p):
    """The stages of _shioda_chain in characteristic p, as ResidueProgram
    takes them, and the indices of J2..J10.  The chain, run once on node
    numbers (the octic is node 0), records its 16 transvectants; each is
    staged at its depth in the chain (stages of 3, 5, 6 and 2), its terms
    the nonzero entries of its tensor."""
    calls, degree, depth, offset = [None], [8], [0], {0: 0}

    def record(a, b, h):
        calls.append((a, b, h))
        degree.append(degree[a] + degree[b] - 2 * h)
        depth.append(1 + max(depth[a], depth[b]))
        return len(calls) - 1

    js = _shioda_chain(0, record)
    stages = [[] for _ in range(max(depth))]
    for node in sorted(range(1, len(calls)), key=depth.__getitem__):
        (a, b, h), d = calls[node], depth[node] - 1
        offset[node] = 9 + sum(map(len, stages[:d + 1]))
        t = forms._transvectant_tensor(degree[a], degree[b], h, p)
        stages[d] += [[(t[n, u, v], offset[a] + u, offset[b] + v)
                       for u, v in zip(*np.nonzero(t[n]))]
                      for n in range(t.shape[0])]
    return stages, [offset[j] for j in js]


def _shioda_chain(f, tv):
    """The nine order-0 transvectants whose one coefficient is J2, ...,
    J10, from the octic f and tv(a, b, h) = (a, b)_h on f's
    representation."""
    g = tv(f, f, 4)          # degree 2, order 8
    k = tv(f, f, 6)          # degree 2, order 4
    h = tv(k, k, 2)          # degree 4, order 4
    m = tv(f, k, 4)          # degree 3, order 4
    n = tv(f, h, 4)          # degree 5, order 4
    p = tv(g, k, 4)          # degree 4, order 4
    q = tv(g, h, 4)          # degree 6, order 4
    return (tv(f, f, 8), tv(f, g, 8), tv(k, k, 4), tv(m, k, 4),
            tv(k, h, 4), tv(m, h, 4), tv(p, h, 4), tv(n, h, 4),
            tv(q, h, 4))


@functools.cache
def discriminant_poly():
    """The discriminant as a weighted degree-14 JPolynomial in J2..J10.

    Vanishes exactly on the classes of octics with a multiple root; agrees
    with the resultant oracle up to one universal constant.
    """
    return store.read_data_polys("discriminant_j.jpoly")[0][1]


def has_invariants(f, jtuple):
    """Whether the invariants of f are the point jtuple (a WeightedPoint
    over f's field, or coordinates coercing into it).  shioda runs its
    residue program over F_p and F_{p^k}; over F_p the comparison is on
    residues too (residues_equal), elsewhere on field elements
    (wps_equal)."""
    point = as_point(f.field, SHIODA_WEIGHTS, jtuple)
    if isinstance(f.field, PrimeField):
        jv = shioda(f, residues=True)
        return any(jv) and residues_equal(f.field.p, SHIODA_WEIGHTS, jv,
                                          [c.value for c in point.coords])
    jv = shioda(f)
    return any(jv) and wps_equal(as_point(f.field, SHIODA_WEIGHTS, jv), point)


def discriminant_J(field, jtuple):
    """The discriminant (discriminant_poly) at one J-tuple."""
    return discriminant_poly().evaluate(field, jtuple)


def is_isomorphic(f, g):
    """Whether two simple-root octics over one field define isomorphic
    curves."""
    from .forms import disc_resultant
    if not disc_resultant(f):
        raise SingularForm("first form has a multiple root")
    if not disc_resultant(g):
        raise SingularForm("second form has a multiple root")
    return has_invariants(g, shioda(f))


# ---------------------------------------------------------------------------
# sampling and interpolation


def random_octic(rng, field=QQ, bound=20):
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(9)]
        if any(coeffs):
            return BinaryForm(field, 8, coeffs)


def _samples(count, seed):
    """count seeded random rational octics, and the function of p that
    gives their J-values mod p as a (count, 9) int64 array, reducing each
    octic once per prime.  It runs shioda on residues, which is exact: J
    over Q of an integer octic has only 2, 3, 5 and 7 in its
    denominators."""
    rng = random.Random(seed)
    forms = [random_octic(rng) for _ in range(count)]

    @functools.cache
    def jmatrix(p):
        field = PrimeField(p)
        return np.array([shioda(f.to_field(field), residues=True)
                         for f in forms], dtype=np.int64)

    return forms, jmatrix


class ExpressResult:
    """Canonical J-polynomial for an invariant plus solve diagnostics."""

    __slots__ = ("polynomial", "nullity")

    def __init__(self, polynomial, nullity):
        self.polynomial = polynomial
        self.nullity = nullity


MAX_EXPRESS_DEGREE = 44

_EXPRESS_SEED = 0x0C71C


def express_in_J(program, degree, seed=_EXPRESS_SEED):
    """Write an invariant, given as a program that evaluates it on an
    octic, as a polynomial in J2..J10 of the stated weighted degree:
    express_many with one target."""
    return express_many(lambda f: [program(f)], [degree], seed)[0]


def express_many(program, degrees, seed=_EXPRESS_SEED):
    """Write invariants as polynomials in J2..J10, one ExpressResult per
    entry of degrees, from one program that returns all their values on
    an octic, in that order.

    Evaluation-interpolation: on seeded random rational octics, the
    weighted monomial basis of each degree is evaluated on their J-values
    mod p and the program's values are reduced mod p; the linear system
    is solved exactly from those images (linsolve.solve_rational) and
    checked over Q on two further octics.  From degree 16 on the system
    is underdetermined modulo the syzygies; the canonical representative
    sets the coefficients of non-pivot monomials (grevlex order, J2 < ...
    < J10) to zero, and the nullity is reported.
    """
    if max(degrees) > MAX_EXPRESS_DEGREE:
        raise RankDeficiency("degree %d beyond configured interpolation "
                             "bound %d" % (max(degrees), MAX_EXPRESS_DEGREE))
    bases = {d: monomial_basis(d) for d in set(degrees)}
    forms, jmatrix = _samples(max(len(b) for b in bases.values()) + 10, seed)
    values = [program(f) for f in forms]

    results = [None] * len(degrees)
    for d, basis in sorted(bases.items()):
        nrows = len(basis) + 10
        idxs = [i for i, dd in enumerate(degrees) if dd == d]

        def build(p, _basis=basis, _n=nrows, _idxs=idxs):
            A = monomial_matrix(jmatrix(p)[:_n], _basis, p)
            B = np.array([[fraction_residue(Fraction(row[i]), p)
                           for i in _idxs] for row in values[:_n]],
                         dtype=np.int64)
            return A, B

        def verify(cols, _basis=basis, _idxs=idxs, _d=d):
            rng = random.Random((seed << 8) ^ (0xF00D + _d))
            for _ in range(2):
                f = random_octic(rng)
                jv, vals = shioda(f), program(f)
                for cj, i in zip(cols, _idxs):
                    poly = _poly_from_coeffs(_d, _basis, cj)
                    if poly.evaluate(QQ, jv) != Fraction(vals[i]):
                        return False
            return True

        outcome = solve_rational(build, len(basis), len(idxs), verify=verify)
        for cj, i in zip(outcome.solution, idxs):
            poly = _poly_from_coeffs(d, basis, cj)
            results[i] = ExpressResult(poly, outcome.nullity)
    return results


def _poly_from_coeffs(degree, basis, coeffs):
    terms = {ev: c for ev, c in zip(basis, coeffs) if c}
    return JPolynomial(degree, terms)


# ---------------------------------------------------------------------------
# the five syzygies


def _mono(*gens):
    """Exponent vector of a product of generators: _mono(8, 8) is J8^2."""
    ev = [0] * 9
    for w in gens:
        ev[w - 2] += 1
    return tuple(ev)


#: The five relations among J8, J9, J10, each as its leading monomial and
#: its (block, multiplier) terms:
#:
#:   R1: J8^2  + A6 J10 + A7 J9 + A8 J8 + A16 = 0
#:   R2: J8 J9 + B7 J10 + B8 J9 + B9 J8 + B17 = 0
#:   R3: J8 J10 + C0 J9^2 + C8 J10 + C9 J9 + C10 J8 + C18 = 0
#:   R4: J9 J10 + D9 J10 + D10 J9 + D11 J8 + D19 = 0
#:   R5: J10^2 + E0 J2 J9^2 + E10 J10 + E11 J9 + E12 J8 + E20 = 0
#:
#: Every block is a polynomial in J2..J7 alone, whose weighted degree
#: (its name's number) is the leading degree minus the multiplier's.
RELATIONS = (
    (_mono(8, 8), (("A6", _mono(10)), ("A7", _mono(9)), ("A8", _mono(8)),
                   ("A16", _mono()))),
    (_mono(8, 9), (("B7", _mono(10)), ("B8", _mono(9)), ("B9", _mono(8)),
                   ("B17", _mono()))),
    (_mono(8, 10), (("C0", _mono(9, 9)), ("C8", _mono(10)),
                    ("C9", _mono(9)), ("C10", _mono(8)), ("C18", _mono()))),
    (_mono(9, 10), (("D9", _mono(10)), ("D10", _mono(9)), ("D11", _mono(8)),
                    ("D19", _mono()))),
    (_mono(10, 10), (("E0", _mono(2, 9, 9)), ("E10", _mono(10)),
                     ("E11", _mono(9)), ("E12", _mono(8)),
                     ("E20", _mono()))),
)


def r1_r2_linear(v, j8):
    """R1 and R2 as linear forms in (J9, J10): ((q, A7, A6), (r, s, B7))
    with R1 = q + A7 J9 + A6 J10 and R2 = r + s J9 + B7 J10, once the
    prefix fixes the block values v (a name -> value mapping) and J8."""
    return ((j8 * (j8 + v["A8"]) + v["A16"], v["A7"], v["A6"]),
            (v["B9"] * j8 + v["B17"], j8 + v["B8"], v["B7"]))


def j9_j10_closed_form(v, j8):
    """(delta, n9, n10) with J9 = n9 / delta and J10 = n10 / delta.

    Cramer's rule on r1_r2_linear, valid where delta is nonzero.  Over
    field elements it is exact; on int64 arrays of residues below 2^20
    every intermediate stays below 2^63, so the caller reduces mod p once
    at the end.
    """
    (q, a7, a6), (r, s, b7) = r1_r2_linear(v, j8)
    return a6 * s - a7 * b7, b7 * q - a6 * r, a7 * r - q * s


def j8_determinant(v, x, reduce=lambda a: a):
    """The 4x4 determinant that vanishes where J8 = x extends the prefix
    with block values v (a name -> value mapping).

    Its rows are the coefficients on (1, J9, J9^2, J10) of R1, R2, R3 and
    (J9 - B9) R2 - B7 R4 (whose J9 J10 terms cancel).  The J9^2 entries
    of R1 and R2 are zero, so the expansion along their 2x2 minors,
    which are -n10, n9 and -delta of j9_j10_closed_form, has three
    terms.  It runs on field elements, on JPolynomials (the syzygy
    blocks and x = J8 give -1 times the j8_quintic polynomial) and on
    int64 residues below 2^20, with reduce = (mod p): it is applied to
    every entry, so each term of the expansion stays below 2^60.  On
    residues below 127 and x <= 5 no intermediate reaches 2^42 unreduced.
    """
    delta, n9, n10 = (reduce(t) for t in j9_j10_closed_form(v, x))
    a3, b3, c3, d3 = (reduce(t) for t in (
        v["C10"] * x + v["C18"], v["C9"], v["C0"], x + v["C8"]))
    a4, b4, c4, d4 = (reduce(t) for t in (
        -(v["B9"] * v["B9"] + v["B7"] * v["D11"]) * x
        - v["B9"] * v["B17"] - v["B7"] * v["D19"],
        v["B17"] - v["B9"] * v["B8"] - v["B7"] * v["D10"],
        x + v["B8"],
        -v["B7"] * (v["B9"] + v["D9"])))
    return reduce(delta * (a3 * c4 - c3 * a4) + n9 * (b3 * c4 - c3 * b4)
                  - n10 * (c3 * d4 - d3 * c4))


class SyzygyCoefficients:
    """The coefficient blocks of the five RELATIONS among J8, J9, J10."""

    BLOCK_NAMES = [(name, wdeg(lead) - wdeg(mult))
                   for lead, terms in RELATIONS for name, mult in terms]

    def __init__(self, blocks):
        self.blocks = dict(blocks)
        for name, d in self.BLOCK_NAMES:
            if name not in self.blocks:
                raise ValueError("missing syzygy block %s" % name)
            if self.blocks[name].degree != d and not self.blocks[name].is_zero():
                raise ValueError("block %s has degree %d, expected %d"
                                 % (name, self.blocks[name].degree, d))
        #: the blocks in BLOCK_NAMES order, evaluated together
        self.block_set = PolySet([self.blocks[name]
                                  for name, _ in self.BLOCK_NAMES])

    def __getitem__(self, name):
        return self.blocks[name]

    @classmethod
    def named(cls, values):
        """Block name -> value, for values in BLOCK_NAMES order: the blocks
        at one prefix, or the columns of an array of them (its .T)."""
        return dict(zip((name for name, _ in cls.BLOCK_NAMES), values))

    def evaluate_blocks(self, field, j27):
        """All blocks at a (j2...j7) prefix, through one PolySet.at call;
        returns a name -> value dict."""
        jt = tuple(j27) + (field.zero,) * 3
        return self.named(self.block_set.at(field, jt))

    def relations_residuals(self, field, jtuple):
        """The five relation values at a full 9-tuple (zero on real orbits)."""
        jt = [field(x) for x in jtuple]
        return _relation_values(jt, self.evaluate_blocks(field, jt[:6]))

    def to_named_list(self):
        return [(name, self.blocks[name]) for name, _ in self.BLOCK_NAMES]

    @classmethod
    def from_named_list(cls, named):
        return cls(dict(named))


def _relation_values(jt, v, reduce=lambda a: a):
    """The five relation values at jt, given the block values v (a name ->
    value mapping) of its prefix: jt is a 9-tuple of field elements, or
    the nine int64 columns of rows of residues below 2^20 with reduce =
    (mod p).  reduce is applied to every monomial and every value, so a
    monomial stays below 2^60 (J2 J9^2) and a block times a monomial
    below 2^40.  On residues below 127 a value stays below 2^31 unreduced.
    """
    def mono(ev):   # products, not powers: numpy's int power is slow
        return reduce(prod(x for x, e in zip(jt, ev) for _ in range(e)))

    return tuple(reduce(mono(lead) + sum((v[name] * mono(mult)
                                          for name, mult in terms), 0))
                 for lead, terms in RELATIONS)


_SYZYGY_ID = "syzygies-R1..R5"
_syzygies_cached = None


def derive_syzygies(force=False, seed=0x5E55):
    """Determine the five relation coefficient blocks by interpolation.

    Each relation is linear in its unknown block coefficients once the
    leading monomials are pinned (coefficient 1), so requiring it to
    vanish at the J-values of enough seeded random rational octics yields
    a system with a unique solution, solved exactly from its images mod p
    (linsolve.solve_rational).  The result is cached on disk.
    """
    global _syzygies_cached
    if _syzygies_cached is not None and not force:
        return _syzygies_cached
    if not force:
        stored = store.read_artifact(_SYZYGY_ID)
        if stored is not None:
            _syzygies_cached = SyzygyCoefficients.from_named_list(stored)
            return _syzygies_cached

    # each relation is linear in the coefficients of its blocks: one
    # column per basis monomial of a block times its multiplier, against
    # minus the leading monomial
    degree_of = dict(SyzygyCoefficients.BLOCK_NAMES)
    bases = {name: monomial_basis(d, num_vars=6)
             for name, d in degree_of.items()}
    ncols = [sum(len(bases[name]) for name, _ in terms)
             for _, terms in RELATIONS]
    _, jmatrix = _samples(max(ncols) + 12, seed)
    blocks = {}
    for (lead, terms), n in zip(RELATIONS, ncols):
        columns = [tuple(a + b for a, b in zip(m, mult))
                   for name, mult in terms for m in bases[name]]

        def build(p, _columns=columns, _lead=lead, _n=n + 12):
            jm = jmatrix(p)[:_n]
            return (monomial_matrix(jm, _columns, p),
                    -monomial_matrix(jm, [_lead], p) % p)

        outcome = solve_rational(build, n, 1)
        if outcome.nullity:
            raise RankDeficiency("syzygy block solve was not unique")
        sol = outcome.solution[0]
        off = 0
        for name, _ in terms:
            basis = bases[name]
            blocks[name] = _poly_from_coeffs(degree_of[name], basis,
                                             sol[off:off + len(basis)])
            off += len(basis)

    syz = SyzygyCoefficients(blocks)
    # exact spot check on a fresh octic before caching
    rng = random.Random(seed ^ 0xA5A5)
    for _ in range(3):
        jv = shioda(random_octic(rng))
        if any(r != 0 for r in syz.relations_residuals(QQ, jv)):
            raise RankDeficiency("derived syzygies fail on a random octic")
    store.write_artifact(_SYZYGY_ID, syz.to_named_list())
    _syzygies_cached = syz
    return syz


# ---------------------------------------------------------------------------
# solving for J8, J9, J10


@functools.cache
def j8_quintic():
    """The monic degree-5 polynomial in X = J8 with coefficients in
    J2..J7, as the list [c_0, ..., c_5] of JPolynomials (c_i of degree
    40 - 8i multiplies X^i, c_5 = 1): j8_determinant on the syzygy blocks
    with x = J8, one JPolynomial of degree 40, split by the exponent of
    J8 and normalized to leading coefficient 1.
    """
    det = j8_determinant(derive_syzygies().blocks, JPolynomial.generator(8))
    split = {}                          # exponent of J8 -> terms
    for ev, c in det.terms.items():
        split.setdefault(ev[6], {})[ev[:6] + (0,) + ev[7:]] = c
    if max(split, default=0) != 5:
        raise RankDeficiency("J8 elimination did not produce a quintic")
    lead = split[5][(0,) * 9]
    return [JPolynomial(40 - 8 * i, split.get(i)).scale(Fraction(1) / lead)
            for i in range(6)]


@functools.cache
def _j8_quintic_set():
    return PolySet(j8_quintic())


def j8_candidates(field, j27):
    """Values of J8 consistent with the prefix (j2, ..., j7): the roots in
    the base field of the quintic, its coefficients evaluated at the
    prefix through one PolySet.at call."""
    jt = tuple(field(v) for v in j27) + (field.zero,) * 3
    coeffs = _j8_quintic_set().at(field, jt)
    if field.characteristic == 0:
        rts = rational_roots(coeffs)
    else:
        rts = field_roots(field, coeffs)
    return [r for r, _ in rts]


def solve_j9_j10(field, j28):
    """All (J9, J10) pairs completing a (j2, ..., j8) prefix.

    Generic case: delta = A6 J8 + A6 B8 - A7 B7 is nonzero and the first
    two relations give the unique candidate, verified on all five.  When
    delta vanishes over a finite field, all q^2 pairs are scanned; over an
    infinite field that situation is reported as Unresolved.
    """
    s = derive_syzygies()
    j28 = tuple(field(v) for v in j28)
    v = s.evaluate_blocks(field, j28[:6])
    delta, n9, n10 = j9_j10_closed_form(v, j28[6])
    if delta:
        pairs = [(n9 / delta, n10 / delta)]
    elif not isinstance(field, (PrimeField, ExtField)):
        raise Unresolved("delta = 0 over an infinite field")
    elif field.order > 1 << 16:
        raise Unresolved("delta = 0 and the field is too large to scan")
    else:
        pairs = ((a, b) for a in field.elements() for b in field.elements())
    return [pair for pair in pairs
            if not any(_relation_values(j28 + pair, v))]
