"""Reconstruction of a binary octic from its invariants by the classical
conic-and-quartic construction.

Three order-2 covariants q1, q2, q3 of an octic f give a conic
sum A_ij x_i x_j (A_ij = (q_i, q_j)_2) through which (q1*, q2*, q3*) runs,
and a ternary quartic whose restriction to the conic cuts out the roots of
f.  Both coefficient families are invariants, so they can be written as
polynomials in J2..J10 once and for all (per covariant triple); evaluating
those polynomials at a target invariant tuple and parametrizing the conic
returns an octic with the requested invariants.
"""

import functools
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

from . import store
from .covariants import covariant_eval, express_many
from .errors import (
    AllDeterminantsVanish, InterpolationFailure, NoSuppliedRationalPoint,
    PointNotOnConic, SingularConic,
)
from .fields import QQ, QuadExtQ, sqrt_opt
from .forms import BinaryForm, _convolve, _operands, omega_pair, transvect
from .jpoly import PolySet

#: default walk order for the generic method: the nineteen determinants
#: whose simultaneous vanishing characterizes reduced automorphism groups
#: containing the Klein four-group
TRIPLES_19 = [
    ("C5_2", "C6_2", "C7_2"),
    ("C5_2", "C8_2", "C9_2"),
    ("C5_2", "C7_2", "C8_2p"),
    ("C5_2", "C6_2", "C9_2pp"),
    ("C5_2", "C7_2p", "C9_2p"),
    ("C5_2", "C6_2", "C7_2p"),
    ("C5_2", "C8_2p", "C11_2"),
    ("C5_2", "C7_2", "C11_2"),
    ("C5_2", "C7_2", "C11_2p"),
    ("C5_2", "C7_2p", "C10_2p"),
    ("C6_2", "C7_2p", "C9_2"),
    ("C5_2", "C7_2", "C10_2"),
    ("C5_2", "C7_2", "C9_2"),
    ("C5_2", "C6_2", "C10_2p"),
    ("C5_2", "C6_2", "C10_2"),
    ("C5_2", "C7_2p", "C8_2p"),
    ("C5_2", "C6_2", "C9_2p"),
    ("C5_2", "C6_2", "C8_2p"),
    ("C5_2", "C6_2", "C8_2"),
]

#: the five determinants that cover the C4 stratum
TRIPLES_C4 = [
    ("C5_2", "C6_2", "C7_2"),
    ("C5_2", "C6_2", "C7_2p"),
    ("C5_2", "C7_2", "C8_2p"),
    ("C5_2", "C8_2", "C9_2"),
    ("C5_2", "C6_2", "C9_2pp"),
]

CONIC_PAIRS = list(combinations_with_replacement((1, 2, 3), 2))
QUARTIC_MULTISETS = list(combinations_with_replacement((1, 2, 3), 4))


# ---------------------------------------------------------------------------
# Clebsch data on concrete quadratics


def clebsch_data(q1, q2, q3):
    """Adjoint quadratics, the 3x3 pairing matrix and the determinant R.

    q_i* are the pairwise first transvectants (q1* = (q2,q3)_1, cyclic),
    A_ij = (q_i, q_j)_2 and R is the determinant of the coefficient matrix
    of (q1, q2, q3) in the basis (x^2, xz, z^2).
    """
    field = q1.field
    qs = (q1, q2, q3)
    qstar = (transvect(q2, q3, 1), transvect(q3, q1, 1), transvect(q1, q2, 1))
    A = [[transvect(qs[i], qs[j], 2).coeffs[0] for j in range(3)]
         for i in range(3)]
    R = _det3([[q.coeffs[2], q.coeffs[1], q.coeffs[0]] for q in qs])
    return {"qstar": qstar, "A": A, "R": R, "field": field}


def _det3(m):
    """The determinant of a 3x3 matrix, by cofactors along the first
    row."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def quartic_coefficients_on_form(f, q1, q2, q3):
    """The 15 quartic coefficients h_M for a concrete octic and triple.

    h_M is 1/8! times the sum, over the orderings of the multiset M, of
    the nested Omega-contraction of f against the q's; it satisfies
    sum_M h_M q*_M = R^4 f.
    """
    field = f.field
    qs = {1: q1, 2: q2, 3: q3}
    inv_fact = field(Fraction(1, factorial(8)))
    nest_cache = {(): f}

    def nest(seq):
        if seq in nest_cache:
            return nest_cache[seq]
        prev = nest(seq[:-1])
        val = omega_pair(prev, qs[seq[-1]])
        nest_cache[seq] = val
        return val

    out = {}
    for mset in QUARTIC_MULTISETS:
        total = field.zero
        for perm in set(permutations(mset)):
            total = total + nest(perm).coeffs[0]
        out[mset] = total * inv_fact
    return out


# ---------------------------------------------------------------------------
# cached J-polynomial models per covariant triple


class TripleModels:
    """R, conic and quartic of one covariant triple, as J-polynomials."""

    def __init__(self, triple, r_poly, conic, quartic):
        self.triple = tuple(triple)
        self.r_poly = r_poly                  # JPolynomial
        self.conic = conic                    # dict (i, j) i<=j -> JPolynomial
        self.quartic = quartic                # dict multiset -> JPolynomial
        # the conic in CONIC_PAIRS order, then the quartic in
        # QUARTIC_MULTISETS order: evaluated at one tuple together
        self.polys = PolySet([conic[k] for k in CONIC_PAIRS]
                             + [quartic[m] for m in QUARTIC_MULTISETS])

    def to_named_list(self):
        out = [("R", self.r_poly)]
        for (i, j), poly in sorted(self.conic.items()):
            out.append(("A%d%d" % (i, j), poly))
        for mset, poly in sorted(self.quartic.items()):
            out.append(("H%s" % "".join(map(str, mset)), poly))
        return out

    @classmethod
    def from_named_list(cls, triple, named):
        r_poly = None
        conic = {}
        quartic = {}
        for name, poly in named:
            if name == "R":
                r_poly = poly
            elif name.startswith("A"):
                conic[(int(name[1]), int(name[2]))] = poly
            elif name.startswith("H"):
                quartic[tuple(int(c) for c in name[1:])] = poly
        if r_poly is None or len(conic) != 6 or len(quartic) != 15:
            raise InterpolationFailure("incomplete cached triple model")
        return cls(triple, r_poly, conic, quartic)


def _triple_identifier(triple):
    return "triple-models-%s" % "+".join(triple)


def _r_identifier(triple):
    return "triple-r-%s" % "+".join(triple)


def triple_degrees(triple):
    from .covariants import catalogue_degree_order
    return tuple(catalogue_degree_order(name)[0] for name in triple)


def conic_quartic_models(triple, derive_if_missing=True):
    """The cached (R, conic, quartic) J-polynomials of a covariant triple,
    derived by evaluation-interpolation on first use."""
    triple = tuple(triple)
    try:
        return _stored_models(triple)
    except InterpolationFailure:
        if not derive_if_missing:
            raise
    derive_triple_models(triple)
    return _stored_models(triple)


@functools.cache
def _stored_models(triple):
    """The models of a triple as its artifact stores them, read once;
    InterpolationFailure (not memoized) while there is none."""
    stored = store.read_artifact(_triple_identifier(triple))
    if stored is None:
        raise InterpolationFailure("no cached models for %s" % (triple,))
    return TripleModels.from_named_list(triple, stored)


def _all_triple_values(triple, f):
    """Every interpolated quantity of a triple on one octic, in one pass."""
    cache = {}
    q1 = covariant_eval(triple[0], f, cache)
    q2 = covariant_eval(triple[1], f, cache)
    q3 = covariant_eval(triple[2], f, cache)
    qs = (q1, q2, q3)
    out = {"R": clebsch_data(q1, q2, q3)["R"]}
    for i, j in combinations_with_replacement((1, 2, 3), 2):
        out["A%d%d" % (i, j)] = transvect(qs[i - 1], qs[j - 1], 2).coeffs[0]
    for mset, val in quartic_coefficients_on_form(f, q1, q2, q3).items():
        out["H%s" % "".join(map(str, mset))] = val
    return out


#: seed of the sample octics derive_triple_models interpolates on
_TRIPLE_SEED = 0xD0E


def derive_triple_models(triple):
    """Interpolate R, all A_ij and all h_M for a triple of order-2
    catalogue covariants; writes the disk cache.

    All 22 target programs share one covariant evaluation per sample.
    """
    d1, d2, d3 = triple_degrees(triple)
    table = {}

    def shared(f):
        key = tuple(f.coeffs)
        if key not in table:
            table[key] = _all_triple_values(triple, f)
        return table[key]

    def program_factory(name):
        return lambda f, _n=name: shared(f)[_n]

    jobs = [(program_factory("R"), d1 + d2 + d3)]
    names = ["R"]
    degs = {1: d1, 2: d2, 3: d3}
    for i, j in sorted(combinations_with_replacement((1, 2, 3), 2)):
        names.append("A%d%d" % (i, j))
        jobs.append((program_factory(names[-1]), degs[i] + degs[j]))
    for mset in QUARTIC_MULTISETS:
        names.append("H%s" % "".join(map(str, mset)))
        jobs.append((program_factory(names[-1]),
                     1 + sum(degs[i] for i in mset)))

    results = express_many(jobs, seed=_TRIPLE_SEED)
    named = list(zip(names, [r.polynomial for r in results]))
    store.write_artifact(_triple_identifier(triple), named)
    return TripleModels.from_named_list(triple, named)


@functools.cache
def r_polynomial(triple):
    """Just the determinant polynomial R of a triple (a tuple; cheap to
    derive), read or derived once per process."""
    ident = _r_identifier(triple)
    stored = store.read_artifact(ident)
    if stored is not None:
        return stored[0][1]
    try:
        return conic_quartic_models(triple, derive_if_missing=False).r_poly
    except InterpolationFailure:
        pass
    d1, d2, d3 = triple_degrees(triple)

    def run(f):
        cache = {}
        q1 = covariant_eval(triple[0], f, cache)
        q2 = covariant_eval(triple[1], f, cache)
        q3 = covariant_eval(triple[2], f, cache)
        return clebsch_data(q1, q2, q3)["R"]

    res = express_many([(run, d1 + d2 + d3)])
    store.write_artifact(ident, [("R", res[0].polynomial)])
    return res[0].polynomial


# ---------------------------------------------------------------------------
# conics: points and parametrization


class EvaluatedConic:
    """A conic sum_{i<=j} c_ij x_i x_j over a concrete field."""

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = dict(coeffs)          # (i, j) with i <= j, 1-based

    @classmethod
    def from_models(cls, models, field, jtuple):
        return cls.from_values(field, models.polys.at(field, jtuple))

    @classmethod
    def from_values(cls, field, values):
        """The conic whose A_ij (CONIC_PAIRS order) are the first 6 of
        values."""
        return cls(field, {(i, j): val if i == j else val + val
                           for (i, j), val in zip(CONIC_PAIRS, values)})

    def matrix(self):
        """Symmetric matrix of the associated bilinear form."""
        half = self.field(Fraction(1, 2))
        m = [[self.field.zero] * 3 for _ in range(3)]
        for (i, j), c in self.coeffs.items():
            if i == j:
                m[i - 1][j - 1] = c
            else:
                m[i - 1][j - 1] = c * half
                m[j - 1][i - 1] = c * half
        return m

    def value(self, point):
        acc = self.field.zero
        for (i, j), c in self.coeffs.items():
            acc = acc + c * point[i - 1] * point[j - 1]
        return acc

    def det(self):
        return _det3(self.matrix())

    def is_nonsingular(self):
        return bool(self.det())


def conic_point(conic, supplied=None):
    """A projective point on a nonsingular conic.

    Over a finite field a scan of x1 in the chart x3 = 1 always succeeds:
    a nonsingular conic over F_q has q + 1 points, at most 2 of them on
    x3 = 0, and the x1 of any other point solves for an x2.  Over
    Q the supplied point is validated and used; without one the caller
    must handle NoSuppliedRationalPoint (see conic_point_quadratic for the
    quadratic-extension fallback).
    """
    field = conic.field
    if not conic.is_nonsingular():
        raise SingularConic("conic is singular")
    if supplied is not None:
        pt = tuple(field(c) for c in supplied)
        if conic.value(pt):
            raise PointNotOnConic("supplied point is not on the conic")
        return pt
    if field.characteristic == 0:
        raise NoSuppliedRationalPoint(
            "over Q a rational conic point must be supplied")
    for x1 in field.elements():
        pt = _solve_conic_coordinate(conic, x1)
        if pt is not None:
            return pt
    raise SingularConic("no point found; conic must be singular")


def _solve_conic_coordinate(conic, x1):
    """Solve for x2 with (x1, x2, 1) on the conic, smallest root first."""
    field = conic.field
    c = conic.coeffs
    a = c[(2, 2)]
    b = c[(1, 2)] * x1 + c[(2, 3)]
    d = c[(1, 1)] * x1 * x1 + c[(1, 3)] * x1 + c[(3, 3)]
    if not a:
        if b:
            return (x1, -d / b, field.one)
        return None
    disc = b * b - field(4) * a * d
    r = sqrt_opt(field, disc)
    if r is None:
        return None
    inv2a = field.one / (a + a)
    return (x1, (-b + r) * inv2a, field.one)


def conic_parametrize(conic, point):
    """Quadratic parametrization of a nonsingular conic through a point.

    The line pencil through the point is indexed by a direction in the
    plane spanned by the two standard basis vectors off the point's pivot
    coordinate; (T, U) maps to the second intersection.  Substituting the
    result into the conic gives the zero quartic.
    """
    field = conic.field
    point = tuple(field(c) for c in point)
    if conic.value(point):
        raise PointNotOnConic("point is not on the conic")
    pivot = next(i for i, c in enumerate(point) if c)
    others = [i for i in range(3) if i != pivot]
    basis = [[field.zero] * 3 for _ in range(2)]
    basis[0][others[0]] = field.one
    basis[1][others[1]] = field.one
    e1, e2 = basis
    # direction D(T, U) = U * e1 - T * e2; chi = B(D, D) P - 2 B(P, D) D,
    # B the bilinear form of the matrix m: B(P, e_k) = sum_i P_i m_ik
    m = conic.matrix()
    bpp = [sum(point[i] * m[i][k] for i in range(3)) for k in others]
    bee = [[m[a][b] for b in others] for a in others]
    two = field.one + field.one

    # chi_i as quadratics in (T, U): coefficients of T^2, TU, U^2
    chis = []
    for i in range(3):
        d_t = [-e2[i], e1[i]]       # D_i = U e1_i - T e2_i -> (coef T, coef U)
        # B(D, D) = T^2 B(e2,e2) - 2TU B(e1,e2) + U^2 B(e1,e1)
        bdd = (bee[1][1], -(bee[0][1] + bee[0][1]), bee[0][0])
        # B(P, D) = -T B(P,e2) + U B(P,e1)
        bpd = (-bpp[1], bpp[0])
        # chi_i = bdd * P_i - 2 * bpd * D_i   (degree 2 in (T, U))
        t2 = bdd[0] * point[i] - two * bpd[0] * d_t[0]
        tu = (bdd[1] * point[i]
              - two * (bpd[0] * d_t[1] + bpd[1] * d_t[0]))
        u2 = bdd[2] * point[i] - two * bpd[1] * d_t[1]
        chis.append(BinaryForm(field, 2, [u2, tu, t2]))
    return tuple(chis)


def substitute_quartic(field, quartic_values, chis):
    """Plug three (T, U)-quadratics into a ternary quartic; degree-8 form.

    With P_ij = chi_i chi_j, the sum of h_ijkl chi_i chi_j chi_k chi_l
    over the multisets i <= j <= k <= l is the sum over i <= j of
    P_ij Q_ij, where Q_ij is the sum over j <= k <= l of h_ijkl P_kl.
    The 12 products run on coefficient lists: the residues over F_p, as
    forms._operands gives them, and the coefficients over any other field.
    """
    chi = _operands(*chis)
    h = quartic_values
    if chi[0] is not chis[0].coeffs:     # residues: the h values too
        h = {mset: field(v).value for mset, v in h.items()}
    prods = {(i, j): _convolve(chi[i - 1], chi[j - 1])
             for i, j in CONIC_PAIRS}
    out = [0] * 9
    for i, j in CONIC_PAIRS:
        q = [0] * 5
        for k, l in CONIC_PAIRS:
            c = h[(i, j, k, l)] if j <= k else 0
            if c:
                for n, x in enumerate(prods[(k, l)]):
                    q[n] += c * x
        for n, x in enumerate(_convolve(prods[(i, j)], q)):
            out[n] += x
    return BinaryForm(field, 8, out)


def reconstruct_generic(field, jtuple, triple_order=None,
                        conic_point_hint=None):
    """Reconstruct an octic with the given invariants by walking the triple
    list until a nonzero determinant gives a nonsingular conic.

    Raises AllDeterminantsVanish when every determinant in the list is
    zero at the tuple (reduced automorphism group contains the Klein
    four-group; the per-stratum formulas apply instead).  Over Q without a
    supplied point the result is built over Q(sqrt(D)) for the
    discriminant-driven D of the first usable chart.
    """
    jtuple = tuple(field(v) for v in jtuple)
    order = triple_order if triple_order is not None else TRIPLES_19
    chosen = None
    for triple in order:
        rp = r_polynomial(tuple(triple))
        if rp.evaluate(field, jtuple):
            chosen = tuple(triple)
            break
    if chosen is None:
        raise AllDeterminantsVanish(
            "all determinants vanish at this tuple")
    models = conic_quartic_models(chosen)
    values = models.polys.at(field, jtuple)
    conic = EvaluatedConic.from_values(field, values)
    work_field = field
    if field.characteristic == 0 and conic_point_hint is None:
        work_field, point = _quadratic_point(conic)
        conic = EvaluatedConic(work_field, {
            key: work_field(Fraction(c)) for key, c in conic.coeffs.items()})
    else:
        point = conic_point(conic, supplied=conic_point_hint)
    chis = conic_parametrize(conic, point)
    # the tuple is over field: evaluated there, the values are lifted
    quartic_values = {mset: work_field(v)
                      for mset, v in zip(QUARTIC_MULTISETS, values[6:])}
    octic = substitute_quartic(work_field, quartic_values, chis)
    if octic.is_zero():
        raise InterpolationFailure("reconstruction produced the zero form")
    return octic


def _quadratic_point(conic):
    """A point over Q(sqrt(D)), D read off the first non-degenerate chart."""
    if not conic.is_nonsingular():
        raise SingularConic("conic is singular")
    c = conic.coeffs
    # chart x1 = 1, x3 = 0: c22 x2^2 + c12 x2 + c11 = 0
    charts = [
        ((2, 2), (1, 2), (1, 1), lambda fld, t: (fld.one, t, fld.zero)),
        ((3, 3), (1, 3), (1, 1), lambda fld, t: (fld.one, fld.zero, t)),
        ((3, 3), (2, 3), (2, 2), lambda fld, t: (fld.zero, fld.one, t)),
    ]
    for qk, lk, ck, mk in charts:
        a, b, d = c[qk], c[lk], c[ck]
        if not a:
            if b:
                fld = QQ
                return fld, mk(fld, -d / b)
            continue
        disc = b * b - 4 * a * d
        r = QQ.sqrt(disc)
        if r is not None:
            return QQ, mk(QQ, (-b + r) / (2 * a))
        ext = QuadExtQ(disc)
        t = (ext(-b) + ext.gen()) / ext(2 * a)
        return ext, mk(ext, t)
    raise SingularConic("all charts degenerate")
