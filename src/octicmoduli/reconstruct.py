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
from itertools import combinations_with_replacement, permutations, product

from . import store
from .covariants import covariant_eval, express_in_J, express_many
from .errors import (
    AllDeterminantsVanish, InterpolationFailure, PointNotOnConic,
    SingularConic,
)
from .fields import PrimeField, QuadExtQ
from .forms import BinaryForm, ResidueProgram, program_cache, transvect
from .jpoly import PolySet
from .wps import SHIODA_WEIGHTS, as_point

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
    qs = (q1, q2, q3)
    qstar = (transvect(q2, q3, 1), transvect(q3, q1, 1), transvect(q1, q2, 1))
    A = conic_matrix([transvect(qs[i - 1], qs[j - 1], 2).coeffs[0]
                      for i, j in CONIC_PAIRS])
    R = _det3([[q.coeffs[2], q.coeffs[1], q.coeffs[0]] for q in qs])
    return {"qstar": qstar, "A": A, "R": R}


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
    sum_M h_M q*_M = R^4 f.  On an order-r form that contraction is
    2 r (r - 1) (., q)_2, and the product of 2 r (r - 1) over r = 8, 6,
    4, 2 is 645,120 = 16 * 8!: so h_M is 16 times the sum of the nested
    transvectants (transvect(., q, 2)), one per sequence of q's.
    """
    qs = {1: q1, 2: q2, 3: q3}
    nests = {(): f}
    for n in range(1, 5):
        for seq in product((1, 2, 3), repeat=n):
            nests[seq] = transvect(nests[seq[:-1]], qs[seq[-1]], 2)
    return {mset: sum((nests[perm].coeffs[0]
                       for perm in set(permutations(mset))), f.field.zero) * 16
            for mset in QUARTIC_MULTISETS}


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
    """R, the A_ij in CONIC_PAIRS order and the h_M in QUARTIC_MULTISETS
    order of a triple on one octic, in one pass."""
    cache = {}
    q1, q2, q3 = (covariant_eval(name, f, cache) for name in triple)
    data = clebsch_data(q1, q2, q3)
    h = quartic_coefficients_on_form(f, q1, q2, q3)
    return ([data["R"]] + [data["A"][i - 1][j - 1] for i, j in CONIC_PAIRS]
            + [h[mset] for mset in QUARTIC_MULTISETS])


#: seed of the sample octics derive_triple_models interpolates on
_TRIPLE_SEED = 0xD0E


def derive_triple_models(triple):
    """Interpolate R, all A_ij and all h_M for a triple of order-2
    catalogue covariants, from one covariant evaluation per sample octic
    (_all_triple_values); writes the disk cache."""
    degs = dict(zip((1, 2, 3), triple_degrees(triple)))
    degrees = ([sum(degs.values())]
               + [degs[i] + degs[j] for i, j in CONIC_PAIRS]
               + [1 + sum(degs[i] for i in mset)
                  for mset in QUARTIC_MULTISETS])
    polys = [r.polynomial for r in express_many(
        functools.partial(_all_triple_values, triple), degrees,
        seed=_TRIPLE_SEED)]
    models = TripleModels(triple, polys[0], dict(zip(CONIC_PAIRS, polys[1:7])),
                          dict(zip(QUARTIC_MULTISETS, polys[7:])))
    store.write_artifact(_triple_identifier(triple), models.to_named_list())
    return models


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

    def run(f):
        cache = {}
        return clebsch_data(*(covariant_eval(name, f, cache)
                              for name in triple))["R"]

    poly = express_in_J(run, sum(triple_degrees(triple))).polynomial
    store.write_artifact(ident, [("R", poly)])
    return poly


# ---------------------------------------------------------------------------
# conics: points and parametrization


def conic_matrix(values):
    """The symmetric matrix A of the conic sum A_ij x_i x_j from the first
    six of values, A_11, A_12, A_13, A_22, A_23, A_33 (CONIC_PAIRS)."""
    a11, a12, a13, a22, a23, a33 = values[:6]
    return [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]


def _pairing(A, u, k):
    """B(u, e_k) = sum_i u_i A_ik for B(u, v) = u^T A v, over the nonzero
    u_i; u is not zero."""
    acc = None
    for ui, row in zip(u, A):
        if ui:
            acc = ui * row[k] if acc is None else acc + ui * row[k]
    return acc


def _value(A, u):
    """B(u, u) = sum_k u_k B(u, e_k), over the nonzero u_k."""
    acc = None
    for k, uk in enumerate(u):
        if uk:
            x = _pairing(A, u, k) * uk
            acc = x if acc is None else acc + x
    return acc


def _on_conic(field, A, point):
    """The point with coordinates in field, or PointNotOnConic unless it
    is a nonzero vector of three coordinates on the conic."""
    point = tuple(field(c) for c in point)
    if len(point) != 3 or not any(point):
        raise PointNotOnConic("a point of the plane has three coordinates,"
                              " not all zero")
    if _value(A, point):
        raise PointNotOnConic("the point is not on the conic")
    return point


def _line_root(field, a, b, c):
    """(field of t, t) with a t^2 + b t + c = 0, the root -b + sqrt(disc)
    over 2a of a quadratic, over Q(sqrt(disc)) when disc is not a square
    in Q; None when there is none over a finite field or a = b = 0."""
    if not a:
        return (field, -c / b) if b else None
    disc = b * b - field(4) * a * c
    r = field.sqrt(disc)
    if r is not None:
        return field, (-b + r) / (a + a)
    if field.characteristic:
        return None
    ext = QuadExtQ(disc)
    return ext, (ext(-b) + ext.gen()) / ext(a + a)


def conic_point(field, A, supplied=None):
    """(field of the point, a projective point on the nonsingular conic
    with matrix A over field).

    A supplied point is checked and used.  Otherwise the conic is read on
    lines p0 + t e_k with p0_k = 0, where it is A_kk t^2 + 2 B(p0, e_k) t
    + B(p0, p0) for B(u, v) = u^T A v.  Over a finite field the lines
    (x1, t, 1) are scanned and one always meets the conic: it has q + 1
    points, at most 2 of them on x3 = 0.  Over Q the first of the lines
    (1, t, 0), (1, 0, t), (0, 1, t) on which the restriction is not a
    nonzero constant gives the point, over Q(sqrt(disc)) when the
    discriminant is not a square; two of them cannot both be constant on
    a nonsingular conic.
    """
    if not _det3(A):
        raise SingularConic("conic is singular")
    if supplied is not None:
        return field, _on_conic(field, A, supplied)
    zero, one = field.zero, field.one
    if field.characteristic:
        lines = (((x1, zero, one), 1) for x1 in field.elements())
    else:
        lines = [((one, zero, zero), 1), ((one, zero, zero), 2),
                 ((zero, one, zero), 2)]
    for p0, k in lines:
        h = _pairing(A, p0, k)
        root = _line_root(field, A[k][k], h + h, _value(A, p0))
        if root is not None:
            work, t = root
            return work, tuple(t if i == k else work(x)
                               for i, x in enumerate(p0))
    raise SingularConic("no point found; conic must be singular")


def conic_parametrize(field, A, point):
    """Quadratic parametrization of the nonsingular conic with matrix A
    through a point P over field (A is lifted there).

    The line pencil through P is indexed by the direction D(T, U) =
    U e1 - T e2, e1 and e2 the standard basis vectors off P's pivot
    coordinate; (T, U) maps to the second intersection chi = B(D, D) P -
    2 B(P, D) D, a triple of quadratics in (T, U).  Substituting it into
    the conic gives the zero quartic.
    """
    A = [[field(a) for a in row] for row in A]
    point = _on_conic(field, A, point)
    return tuple(BinaryForm(field, 2, chi) for chi in _chis(A, point))


def _chis(A, point):
    """The (U^2, TU, T^2) coefficients of chi_1, chi_2, chi_3 for the
    point P of the conic A (conic_parametrize), division-free: over field
    elements, or over residues whose zeros are reduced."""
    pivot = next(i for i, c in enumerate(point) if c)
    o1, o2 = [i for i in range(3) if i != pivot]
    # B(D, D) = T^2 A_22 - 2 T U A_12 + U^2 A_11 and B(P, D) = U b1 -
    # T b2, with b_k = B(P, e_k) and indices 1, 2 meaning o1, o2
    b1, b2 = _pairing(A, point, o1), _pairing(A, point, o2)
    a12 = A[o1][o2]
    chis = []
    for i, c in enumerate(point):
        u2, tu, t2 = A[o1][o1] * c, -(a12 + a12) * c, A[o2][o2] * c
        if i == o1:                     # D_i = U
            u2, tu = u2 - (b1 + b1), tu + (b2 + b2)
        elif i == o2:                   # D_i = -T
            tu, t2 = tu + (b1 + b1), t2 - (b2 + b2)
        chis.append([u2, tu, t2])
    return chis


def substitute_quartic(field, quartic_values, chis):
    """Plug three (T, U)-quadratics into a ternary quartic; degree-8 form
    over field, into which the coefficients and values are lifted.

    With P_ij = chi_i chi_j, the sum of h_ijkl chi_i chi_j chi_k chi_l
    over the multisets i <= j <= k <= l is the sum over i <= j of
    P_ij Q_ij, where Q_ij is the sum over j <= k <= l of h_ijkl P_kl:
    the three stages of _substitution_stages, run as one ResidueProgram
    over every field (_substitution_program), the program that
    _reconstruct_mod runs on residues.
    """
    inputs = [field(c) for chi in chis for c in chi.coeffs] + [
        field(quartic_values[mset]) for mset in QUARTIC_MULTISETS]
    return BinaryForm(field, 8, _substitution_program(field).elements(
        field, inputs, slice(-9, None)))


@functools.cache
def _substitution_stages():
    """The terms (c, u, v) of the products P_ij (54), Q_ij (75) and the
    octic (150), for (i, j) in CONIC_PAIRS, as ResidueProgram takes them:
    u and v index the chis' 9 coefficients, the 15 quartic values, then
    the P_ij and Q_ij, five coefficients each."""
    h = {mset: 9 + n for n, mset in enumerate(QUARTIC_MULTISETS)}
    P = {pair: 24 + 5 * n for n, pair in enumerate(CONIC_PAIRS)}
    Q = {pair: 54 + 5 * n for n, pair in enumerate(CONIC_PAIRS)}

    def times(a, b, n, k):      # of the k-coefficient forms at a and b
        return [(1, a + s, b + n - s) for s in range(k) if 0 <= n - s < k]

    return ([times(3 * i - 3, 3 * j - 3, n, 3)
             for i, j in CONIC_PAIRS for n in range(5)],
            [[(1, h[(i, j, k, l)], P[(k, l)] + n)
              for k, l in CONIC_PAIRS if j <= k]
             for i, j in CONIC_PAIRS for n in range(5)],
            [[term for pair in CONIC_PAIRS
              for term in times(P[pair], Q[pair], n, 5)]
             for n in range(9)])


@program_cache
def _substitution_program(field):
    return ResidueProgram(field, 24, _substitution_stages())


def _first_triple(order, r_value):
    """The models of the first triple of order whose R has a nonzero
    r_value(triple); AllDeterminantsVanish when there is none."""
    chosen = next((tuple(t) for t in order if r_value(tuple(t))), None)
    if chosen is None:
        raise AllDeterminantsVanish("all determinants vanish at this tuple")
    return conic_quartic_models(chosen)


@functools.cache
def walk_set():
    """Every R of TRIPLES_19, then the 21 models of its first triple."""
    return PolySet([r_polynomial(t) for t in TRIPLES_19]
                   + conic_quartic_models(TRIPLES_19[0]).polys.polys)


def _line_root_mod(field, a, b, c):
    """t with a t^2 + b t + c = 0 mod p, as _line_root takes it: -c / b
    when a = 0, else (-b + sqrt(disc)) / 2a with field.sqrt's root, taken
    only when Euler's criterion says disc is a square; None when there is
    no root."""
    p = field.p
    a, b, c = a % p, b % p, c % p
    if not a:
        return -c * pow(b, -1, p) % p if b else None
    disc = (b * b - 4 * a * c) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return None
    r = field.sqrt(field(disc)).value
    return (r - b) * pow(a + a, -1, p) % p


def _conic_point_mod(field, A, supplied=None):
    """conic_point over F_p on residues: the point's residues, for the
    conic whose matrix A holds residues."""
    p = field.p
    if not _det3(A) % p:
        raise SingularConic("conic is singular")
    if supplied is not None:
        return [c.value for c in _on_conic(field, A, supplied)]
    for x1 in range(p):
        p0 = (x1, 0, 1)
        t = _line_root_mod(field, A[1][1], 2 * _pairing(A, p0, 1),
                           _value(A, p0))
        if t is not None:
            return [x1, t, 1]
    raise SingularConic("no point found; conic must be singular")


def _reconstruct_mod(field, point, order, supplied):
    """reconstruct_generic's octic over F_p at a WeightedPoint whose
    jvalues, else one pass made here, are walk_set's values: every step
    runs on ints mod p, and only the octic is made of field elements."""
    p, jt = field.p, [c.value for c in point.coords]
    if point.jvalues is None:
        point.jvalues = walk_set().at_mod(p, jt)
    known = dict(zip(TRIPLES_19, point.jvalues))
    models = _first_triple(order, lambda t: known[t] if t in known
                           else r_polynomial(t).at_mod(p, jt))
    values = (point.jvalues[len(TRIPLES_19):] if models.triple == TRIPLES_19[0]
              else models.polys.at_mod(p, jt))
    A = conic_matrix(values)
    xyz = _conic_point_mod(field, A, supplied)
    chis = [c % p for chi in _chis(A, xyz) for c in chi]
    return BinaryForm(field, 8, _substitution_program(field).run(
        chis + values[6:])[-9:].tolist())


def reconstruct_generic(field, jtuple, triple_order=None,
                        conic_point_hint=None):
    """Reconstruct an octic with the given invariants by walking the triple
    list until a nonzero determinant gives a nonsingular conic.

    Raises AllDeterminantsVanish when every determinant in the list is
    zero at the tuple (reduced automorphism group contains the Klein
    four-group; the per-stratum formulas apply instead).  Over Q without a
    supplied point the result lies over Q(sqrt(D)) when the line on which
    conic_point finds its point has a non-square discriminant D.  Over a
    prime field every step runs on residues (_reconstruct_mod, at the
    tuple's WeightedPoint); over any other field the conic steps run on
    field elements (conic_point, conic_parametrize) and the substitution
    as a program (substitute_quartic).
    """
    point = as_point(field, SHIODA_WEIGHTS, jtuple)
    order = triple_order if triple_order is not None else TRIPLES_19
    if isinstance(field, PrimeField):
        octic = _reconstruct_mod(field, point, order, conic_point_hint)
    else:
        jtuple = point.coords
        models = _first_triple(order, lambda t: r_polynomial(t).evaluate(
            field, jtuple))
        values = models.polys.at(field, jtuple)
        A = conic_matrix(values)
        work_field, point = conic_point(field, A, supplied=conic_point_hint)
        chis = conic_parametrize(work_field, A, point)
        # the values over field, which substitute_quartic lifts
        octic = substitute_quartic(work_field, dict(zip(
            QUARTIC_MULTISETS, values[6:])), chis)
    if octic.is_zero():
        raise InterpolationFailure("reconstruction produced the zero form")
    return octic

