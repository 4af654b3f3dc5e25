"""Weighted projective spaces: equality, canonical representatives and
enumeration.  The genus-3 moduli enumeration over prime fields is
census_fast.moduli_rows.

A point is a tuple (u_1 : ... : u_m), not all zero, up to the rescaling
u_i -> lambda^{d_i} u_i.  Equality and normalization follow the support /
extended-gcd construction: classes are compared without ever leaving the
base field.
"""

import functools
from itertools import combinations, product
from math import prod

from .errors import WeightMismatch
from .fields import ext_gcd_multi

SHIODA_WEIGHTS = (2, 3, 4, 5, 6, 7, 8, 9, 10)


def _check_weights(weights):
    """The weights as a tuple of ints: at least two, all positive."""
    weights = tuple(int(w) for w in weights)
    if len(weights) < 2:
        raise WeightMismatch("a weighted projective space needs m >= 2")
    if min(weights) < 1:
        raise WeightMismatch("weights must be positive, got %s"
                             % ",".join(map(str, weights)))
    return weights


class WeightedPoint:
    # jvalues: J-polynomial values kept here by strata.detect_group
    __slots__ = ("field", "weights", "coords", "jvalues")

    def __init__(self, field, weights, coords):
        weights = _check_weights(weights)
        coords = tuple(field(c) for c in coords)
        if len(weights) != len(coords):
            raise WeightMismatch("%d weights for %d coordinates"
                                 % (len(weights), len(coords)))
        if not any(coords):
            raise WeightMismatch("the zero vector is not a point")
        self.field = field
        self.weights = weights
        self.coords = coords
        self.jvalues = None

    def support(self):
        return tuple(i for i, c in enumerate(self.coords) if c)

    def key(self):
        """Hashable exact canonical form (after wps_normalize)."""
        return tuple(self.field.element_key(c) if c else None
                     for c in self.coords)

    def __repr__(self):
        return "(" + " : ".join(repr(c) for c in self.coords) + ")"


def as_point(field, weights, coords):
    """coords if it is a WeightedPoint over field, else a new one."""
    if getattr(coords, "weights", None) == weights and coords.field == field:
        return coords
    return WeightedPoint(field, weights, getattr(coords, "coords", coords))


@functools.cache
def _bezout(weights):
    """The gcd and Bezout coefficients (ext_gcd_multi) of a support's
    weights, computed once per support."""
    d, cs = ext_gcd_multi(weights)
    return d, tuple(cs)


def wps_equal(u, v):
    """Equality test in the weighted projective space.

    Compares supports, then checks V_i/U_i = Lambda^{d_i/d} on the common
    support, where Lambda is the Bezout-weighted product of the ratios,
    on the coordinates over every field (residues_equal is the same test
    on residues mod p).  Points of different spaces or over different
    fields are refused.
    """
    if u.weights != v.weights:
        raise WeightMismatch("points live in different spaces")
    if u.field != v.field:
        raise WeightMismatch("points over %r and %r" % (u.field, v.field))
    su, sv = u.support(), v.support()
    if su != sv:
        return False
    d, cs = _bezout(tuple(u.weights[i] for i in su))
    ratios = [v.coords[i] / u.coords[i] for i in su]
    lam = u.field.one
    for r, c in zip(ratios, cs):
        lam = lam * r ** c
    return all(r == lam ** (u.weights[i] // d) for i, r in zip(su, ratios))


def residues_equal(p, weights, u, v):
    """wps_equal over F_p of two points given by their residues."""
    su = tuple(i for i, c in enumerate(u) if c)
    if su != tuple(i for i, c in enumerate(v) if c):
        return False
    d, cs = _bezout(tuple(weights[i] for i in su))
    ratios = [v[i] * pow(u[i], -1, p) % p for i in su]
    lam = prod(pow(r, c, p) for r, c in zip(ratios, cs)) % p
    return all(r == pow(lam, weights[i] // d, p) for i, r in zip(su, ratios))


def wps_normalize(u):
    """The unique representative with prod u_i^{c_i} = 1 on the support,
    the c_i being the deterministic Bezout coefficients of the support
    weights."""
    su = u.support()
    d, cs = _bezout(tuple(u.weights[i] for i in su))
    lam = u.field.one
    for i, c in zip(su, cs):
        lam = lam * u.coords[i] ** c
    coords = list(u.coords)
    for i in su:
        coords[i] = u.coords[i] / lam ** (u.weights[i] // d)
    return WeightedPoint(u.field, u.weights, coords)


def _support_subsets(m):
    """Nonempty subsets of range(m), by increasing cardinality then
    lexicographic order."""
    for size in range(1, m + 1):
        yield from combinations(range(m), size)


def wps_enumerate(field, weights):
    """All classes of the weighted projective space over a finite field,
    one canonical representative each.

    For each support, Bezout coefficients c_i are fixed once and all
    vectors with prod u_i^{c_i} = 1 are produced: the coordinates before
    the last run over the nonzero elements, and the last one over the
    solutions of x^{c_last} = 1 / prod, read off a table of the powers
    x^{c_last} built once per support.  Each class with that support
    appears exactly once.
    """
    weights = _check_weights(weights)
    if not hasattr(field, "order") or not hasattr(field, "elements"):
        raise WeightMismatch("enumeration needs a finite field")
    order = field.order - 1
    nonzero = [x for x in field.elements() if x]
    for supp in _support_subsets(len(weights)):
        _, cs = ext_gcd_multi([weights[i] for i in supp])
        preimages = {}
        for x in nonzero:
            preimages.setdefault(x ** (cs[-1] % order), []).append(x)
        for prefix in product(nonzero, repeat=len(supp) - 1):
            prod = field.one
            for val, c in zip(prefix, cs):
                prod = prod * val ** (c % order)
            for last in preimages.get(field.one / prod, ()):
                coords = [field.zero] * len(weights)
                for i, val in zip(supp, prefix + (last,)):
                    coords[i] = val
                yield WeightedPoint(field, weights, coords)

