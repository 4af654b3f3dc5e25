"""Automorphism strata of genus-3 hyperelliptic curves: detection from
invariants and per-stratum closed-form reconstruction.

Eleven possible automorphism groups stratify the moduli space.  Each
stratum away from the generic one carries a system of weighted-homogeneous
equations in J2..J10 (loaded from the packaged data files); detection
walks the systems from the smallest stratum up, and reconstruction inverts
the normal-model parametrizations, at worst over a bounded extension
(cubic for the three-involutions stratum, degree 8 for the Klein-four
one).
"""

import functools
from fractions import Fraction

from . import store, unipoly
from .covariants import has_invariants
from .errors import (
    ExhaustedCandidates, GuardInconsistency, SingularLocus, Unresolved,
)
from .fields import ExtField, PrimeField, QQ, QuadExtQ
from .forms import BinaryForm, embed_field
from .jpoly import PolySet
from .wps import SHIODA_WEIGHTS, as_point

#: detection order: dimension 0 strata first, then up the lattice; a tuple
#: is classified by the first system it satisfies
STRATA_ORDER = ("C2xS4", "V8", "U6", "C14", "C2xD8", "D12", "C2xC4",
                "C2p3", "C4", "D4")

ALL_STRATA = STRATA_ORDER + ("C2",)


@functools.cache
def stratum_systems():
    """name -> list of JPolynomial equations (empty for C2)."""
    by_name = {}
    for key, poly in store.read_data_polys("stratum_systems.txt"):
        name = key.split(".")[0]
        by_name.setdefault(name, []).append(poly)
    by_name["C2"] = []
    return by_name


@functools.cache
def _strata_set():
    """Every stratum equation, in STRATA_ORDER, as one PolySet; and each
    stratum's span (lo, hi) in it."""
    polys, spans = [], {}
    for name in STRATA_ORDER:
        eqs = stratum_systems()[name]
        spans[name] = (len(polys), len(polys) + len(eqs))
        polys += eqs
    return PolySet(polys), spans


@functools.cache
def _d4_equations():
    """The D4 model equations as one PolySet, and the (name, power of X)
    of each."""
    keys, polys = [], []
    for key, poly in store.read_data_polys("d4_model_equations.txt"):
        name, xpart = key.rsplit(".", 1)
        keys.append((name, int(xpart[1:])))
        polys.append(poly)
    return PolySet(polys), keys


@functools.cache
def _c2p3_cubic():
    """The coefficients of the C2p3 cubic, constant term first, as one
    PolySet."""
    cubic = {int(key.rsplit(".x", 1)[1]): poly for key, poly
             in store.read_data_polys("c2p3_cubic.txt")}
    return PolySet([cubic[e] for e in range(4)])


def stratum_residuals(field, jtuple):
    """Every stratum's equation system evaluated at the tuple, through
    one PolySet.at call."""
    polys, spans = _strata_set()
    values = polys.at(field, jtuple)
    return {name: tuple(values[lo:hi]) for name, (lo, hi) in spans.items()}


@functools.cache
def _class_set(strata):
    """strata, then reconstruct.walk_set: what a class over F_p reads."""
    from .reconstruct import walk_set
    return PolySet(strata.polys + walk_set().polys)


def detect_group(field, jtuple):
    """First stratum in the cascade whose system vanishes; C2 otherwise.
    Every system is evaluated in one pass, over F_p on residues with the
    generic method's walk (_class_set; kept as the point's jvalues), and
    the cascade tests zeros on each system's slice of the values.

    For singular tuples the answer is the label of the matched system; the
    actual automorphism group of a singular orbit may be larger.  A tuple
    that is not 9 coordinates, or is zero, is refused (WeightMismatch).
    """
    point = as_point(field, SHIODA_WEIGHTS, jtuple)
    polys, spans = _strata_set()
    if isinstance(field, PrimeField):
        values = _class_set(polys).at_mod(
            field.p, [c.value for c in point.coords])
        point.jvalues = values[len(polys.polys):]
    else:
        values = polys.at(field, point.coords)
    for name in STRATA_ORDER:
        lo, hi = spans[name]
        if not any(values[lo:hi]):
            return name
    return "C2"


# ---------------------------------------------------------------------------
# square roots with bounded field extensions


class FieldContext:
    """A working field that grows through bounded extensions.  ctx(x)
    lifts a value made over any field the context has held into the
    working field, one embedding at a time, so arithmetic can mix values
    created at different stages."""

    def __init__(self, field):
        self.field = field
        self._steps = []        # (a field held before, its embedding)

    def __call__(self, x):
        held = getattr(x, "field", QQ)
        start = next((i for i, (old, _) in enumerate(self._steps)
                      if old == held), len(self._steps))
        for _, emb in self._steps[start:]:
            x = emb(x)
        return x

    def _grow(self, new_field, embed_one):
        self._steps.append((self.field, embed_one))
        self.field = new_field
        return embed_one

    def _extend_degree(self, factor_degree):
        new = ExtField(self.field.p, self.field.k * factor_degree)
        return self._grow(new, embed_field(self.field, new))

    def sqrt(self, a):
        """A square root of a, extending the working field when a is not
        a square in it."""
        a = self(a)
        r = self.field.sqrt(a)
        if r is not None:
            return r
        if self.field is QQ:
            new = QuadExtQ(a)
            self._grow(new, lambda x: new(x))
            return new.gen()
        if isinstance(self.field, QuadExtQ):
            raise Unresolved("square root needs a degree-4 extension of Q")
        emb = self._extend_degree(2)
        r = self.field.sqrt(emb(a))
        if r is None:
            raise Unresolved("no square root after a quadratic extension")
        return r

    def roots(self, coeffs):
        """Roots of a univariate polynomial over the working field,
        extending by the first irreducible factor when it has none;
        base-field roots are preferred."""
        field = self.field
        if field.characteristic == 0:
            if field is QQ:
                return [r for r, _ in unipoly.rational_roots(coeffs)]
            raise Unresolved("root search over %r unsupported" % (field,))
        facs = unipoly.factor(field, coeffs)
        lin = [-g[0] for g, _ in facs if unipoly.degree(g) == 1]
        if lin:
            return lin
        if not facs:
            return []
        g = facs[0][0]
        emb = self._extend_degree(unipoly.degree(g))
        return unipoly.conjugate_roots(self.field, [emb(c) for c in g],
                                       field.k)


# ---------------------------------------------------------------------------
# per-stratum reconstruction


def _even8(field, a8, a6, a4, a2, a0):
    return BinaryForm(field, 8, [a0, field.zero, a2, field.zero, a4,
                                 field.zero, a6, field.zero, a8])


def reconstruct_stratum(stratum, field, jtuple):
    """A model octic whose invariants are WPS-equal to the tuple, using the
    closed form of the stratum's lemma; may move to a bounded extension.

    Degenerate branch guards re-dispatch to the larger group exactly as
    the lemmas direct.  A tuple that is not 9 coordinates, or is zero, is
    refused (WeightMismatch); a WeightedPoint is passed on as it is.
    """
    point = as_point(field, SHIODA_WEIGHTS, jtuple)
    jt, one, zero = point.coords, field.one, field.zero
    j2, j3, j4, j5, j6, j7 = jt[0], jt[1], jt[2], jt[3], jt[4], jt[5]

    if stratum == "C2xS4":
        return BinaryForm(field, 8, [1, 0, 0, 0, 14, 0, 0, 0, 1])
    if stratum == "V8":
        return BinaryForm(field, 8, [-1, 0, 0, 0, 0, 0, 0, 0, 1])
    if stratum == "U6":
        return BinaryForm(field, 8, [0, -1, 0, 0, 0, 0, 0, 1, 0])
    if stratum == "C14":
        return BinaryForm(field, 8, [-1, 0, 0, 0, 0, 0, 0, 1, 0])

    if stratum == "C2xD8":
        guard = j2 ** 3 - j3 * j3 * 30
        if guard:
            a4 = (j5 * j2 + j4 * j3 * 6) * 35 / (guard + guard)
        elif j4:
            a4 = j5 * 35 / (j4 * 3)
        else:
            return reconstruct_stratum("C2xS4", field, jtuple)
        a0 = -a4 * a4 / field(140) + j2 / field(2)
        return _even8(field, one, zero, a4, zero, a0)

    if stratum == "D12":
        guard = j2 ** 3 - j3 * j3 * 30
        if guard:
            a4 = (j4 * j3 * 4 - j5 * j2) * 280 / (-guard)
        elif j4:
            a4 = j5 * 35 / (j4 * 3)
        else:
            return reconstruct_stratum("C2xS4", field, jtuple)
        a1 = a4 * a4 * 2 / field(35) - j2 * 4
        return BinaryForm(field, 8, [0, a1, 0, 0, a4, 0, 0, 1, 0])

    if stratum == "C2xC4":
        g1 = j4 * 6 - j2 * j2
        g2 = j6 * 36 + j2 ** 3
        g3 = j4 * 96 - j2 * j2
        g4 = j4 * 147 - j2 * j2 * 2
        g5 = j6 * 3087 - j2 ** 3 * 2
        if not g1 and not g2:
            return reconstruct_stratum("V8", field, jtuple)
        if not g3:
            return reconstruct_stratum("U6", field, jtuple)
        if not g4 and not g5:
            raise SingularLocus("no smooth curve has these invariants")
        if not g1:
            a = field(Fraction(196, 3))
        elif not g4:
            a = field(-84)
        else:
            num = (j4 * j4 * 36288 - j4 * j2 * j2 * 3906 + j6 * j2 * 14400
                   + j2 ** 4 * 43) * 98
            a = num / (g3 * g4 * 9)
        a2_ = a * a
        return BinaryForm(field, 8,
                          [-16, 0, a * 8, 0, 0, 0, a2_ * 2, 0, a2_])

    if stratum == "C2p3":
        dd = (j6 * (-18) + j4 * j2 * 9 + j3 * j3 * 60 - j2 ** 3 * 2)
        if not dd:
            return reconstruct_stratum("C2xD8", field, jtuple)
        ctx = FieldContext(field)
        roots = ctx.roots(_c2p3_cubic().at(field, jt))
        wf = ctx.field
        lj2, lj3, lj4, lj5, lj6, lj7, dd = (ctx(v) for v in (*jt[:6], dd))
        last_err = None
        for a4 in roots:
            nu_num = (lj6 * 18 - lj4 * lj2 * 9 - lj3 * lj3 * 60
                      + lj2 ** 3 * 2) * a4 \
                - lj7 * 810 + lj5 * lj2 * 270 - lj4 * lj3 * 810
            nu = nu_num / (dd * 10)
            a6 = nu * nu * (-28) - a4 * a4 / wf(5) + lj2 * 14
            if not a6:
                last_err = SingularLocus("vanishing sextic coefficient")
                continue
            a8 = nu * a6
            lam = wf.one / a6
            return BinaryForm(wf, 8,
                              [lam * lam * a8, wf.zero, lam * a6, wf.zero,
                               a4, wf.zero, a6, wf.zero, a8])
        raise last_err or SingularLocus("no usable cubic root")

    if stratum == "C4":
        from .reconstruct import TRIPLES_C4, reconstruct_generic
        return reconstruct_generic(field, point, triple_order=TRIPLES_C4)

    if stratum == "D4":
        return _reconstruct_d4(field, jt)

    if stratum == "C2":
        from .reconstruct import reconstruct_generic
        return reconstruct_generic(field, point)

    raise GuardInconsistency("unknown stratum %r" % (stratum,))


@functools.cache
def _c4_r_polys():
    from .reconstruct import TRIPLES_C4, r_polynomial
    return PolySet([r_polynomial(t) for t in TRIPLES_C4])


def c4_determinants(field, jtuple):
    """The five conic determinants that cover the C4 stratum."""
    return tuple(_c4_r_polys().at(field, jtuple))


def _d4_values(field, jt):
    """Every D4 model equation at the tuple, through one PolySet.at call:
    (name, power of X) -> coefficient."""
    polys, keys = _d4_equations()
    return dict(zip(keys, polys.at(field, jt)))


def _linear_solution(field, eqs, names, power):
    """X^power from the first of the named equations
    c_power X^power + c_0 = 0 (their coefficients eqs, from _d4_values)
    whose c_power is nonzero, or None."""
    for name in names:
        c = eqs.get((name, power), field.zero)
        if c:
            return -eqs.get((name, 0), field.zero) / c
    return None


def _reconstruct_d4(field, jt):
    eqs = _d4_values(field, jt)
    a4 = _linear_solution(field, eqs, ["A4_1", "A4_2"], 1)
    # a0 from the first non-trivial pure quadratic c2 X^2 + c0 = 0
    a0sq = _linear_solution(field, eqs, ["A0_1", "A0_2"], 2)
    if a4 is None or a0sq is None:
        return _reconstruct_d4_singular(field, jt, eqs)

    ctx = FieldContext(field)
    a0 = ctx.sqrt(a0sq)
    a2 = ctx.field.one
    if a0:
        a4l, j2, j3, j4 = (ctx(v) for v in (a4, jt[0], jt[1], jt[2]))
        p4 = a0 * 15750
        p2 = (a0 * a0 * a4l * 105000 + a4l ** 3 * 510 - a4l * j2 * 23100
              - j3 * 686000)
        p0 = (a0 ** 3 * a4l * a4l * 705600 - a0 ** 3 * j2 * 10804500
              + a0 * a4l ** 4 * 3024 - a0 * a4l * a4l * j2 * 244755
              - a0 * a4l * j3 * 1440600 + a0 * j4 * 15126300
              + a0 * j2 * j2 * 2881200)
        rdisc = ctx.sqrt(p2 * p2 - p4 * p0 * 4)
        p2, p4 = ctx(p2), ctx(p4)
        a2 = ctx.sqrt((rdisc - p2) / (p4 + p4))

    # x -> 1/x swaps a2 and a6 and x -> ix negates both, so one candidate
    # serves: a2^2 the first root y, a6 from the product a2 a6, or a6 a
    # square root when a2 = 0
    lj, a0, a4 = [ctx(v) for v in jt], ctx(a0), ctx(a4)
    if a2:
        a6 = -(a0 * a0 * 140 + a4 * a4 - lj[0] * 70) / (a2 * 5)
    else:
        a6 = ctx.sqrt((a4 ** 3 * 24 - a4 * lj[0] * 2940 + lj[1] * 68600)
                      / (a0 * 1575))
        lj, a0, a4 = [ctx(v) for v in lj], ctx(a0), ctx(a4)
    model = _even8(ctx.field, a0, a6, a4, ctx(a2), a0)
    if has_invariants(model, lj):
        return model
    return _reconstruct_d4_singular(field, jt, eqs)


def _reconstruct_d4_singular(field, jt, eqs):
    """Fallback family a8 x^8 + a6 x^6 + a4 x^4 + a2 x^2 for tuples that
    defeat the even-model equations (multiple-root classes); raises
    ExhaustedCandidates unless its model has the tuple's invariants."""
    a4 = _linear_solution(field, eqs, ["A4S_1", "A4S_2", "A4S_3"], 1)
    if a4 is None:
        a4 = field.zero
    a2 = field.one
    a6 = -(a4 * a4 - jt[0] * 70) / (a2 * 5)
    a8 = (-a4 ** 3 * 17 / field(525) + a4 * jt[0] * 22 / field(15)
          + jt[1] * 392 / field(9))
    model = BinaryForm(field, 8, [field.zero, field.zero, a2, field.zero,
                                  a4, field.zero, a6, field.zero, a8])
    if not has_invariants(model, jt):
        raise ExhaustedCandidates("every D4 candidate model has other "
                                  "invariants")
    return model
