"""JPolynomial.evaluate and PolySet.at over F_p, where they run through
the halving chain on numpy arrays of residues, shioda and the quartic
substitution, which run as staged residue programs, and transvect and
BinaryForm products over F_p, checked against the same computation over
Q at the integer lifts, reduced mod p, on both sides of the int64/object
dtype switch; transvect, products and PolySet.at over F_{p^2}, where they
run on field elements, checked against F_p; the quartic substitution of
the conic method against the product per monomial; the conic method on
residues (line root, conic point, chis, octic, round trip and refusals)
against its field-element path; and properties that run through them.
"""

import random
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import normal_model

from octicmoduli import covariants, reconstruct, strata
from octicmoduli.census import class_model
from octicmoduli.census_fast import (
    _ModCtx, classify_rows, normalize_rows, strata_labels,
)
from octicmoduli.covariants import CATALOGUE, covariant_eval, shioda
from octicmoduli.errors import (
    CountMismatch, InterpolationFailure, PointNotOnConic, SingularConic,
    SmallCharacteristic,
)
from octicmoduli.fields import ExtField, PrimeField, QQ, QuadExtQ
from octicmoduli.forms import (
    BinaryForm, Gl2Matrix, ResidueProgram, disc_resultant, gl2_act,
    transvect,
)
from octicmoduli.jpoly import JPolynomial, PolySet
from octicmoduli.linsolve import PRIMES30
from octicmoduli.reconstruct import (
    QUARTIC_MULTISETS, TRIPLES_19, TRIPLES_C4, _chis, _conic_point_mod,
    _first_triple, _line_root, _line_root_mod, conic_matrix, conic_parametrize, conic_point,
    conic_quartic_models, r_polynomial, reconstruct_generic,
    substitute_quartic,
)
from octicmoduli.strata import detect_group, stratum_systems
from octicmoduli.wps import (
    SHIODA_WEIGHTS, WeightedPoint, wps_equal, wps_normalize,
)

PRIMES = (11, 13, 1048573)


#: the largest primes on either side of the int64/object switch of the
#: level chain: (p - 1)^2 fits in int64 at the first, not at the second;
#: the transvectant tensors are object at both
LARGE_PRIMES = (2 ** 31 - 1, 2 ** 61 - 1)


def _points(p, label):
    """The zero prefix (J2..J7 = 0), a sparse and a dense point."""
    seed = zlib.crc32(("int path %s %d" % (label, p)).encode())
    print(label, p, "seed", seed)
    rng = random.Random(seed)
    return [[0] * 6 + [rng.randrange(1, p) for _ in range(3)],
            [rng.randrange(p) if rng.random() < 0.4 else 0
             for _ in range(9)],
            [rng.randrange(1, p) for _ in range(9)]]


def _shipped_polynomials():
    polys = [eq for eqs in stratum_systems().values() for eq in eqs]
    polys.append(covariants.discriminant_poly())
    polys += [r_polynomial(t) for t in TRIPLES_19]
    for t in TRIPLES_C4:
        polys += [poly for _, poly in
                  conic_quartic_models(t, derive_if_missing=False)
                  .to_named_list()]
    return polys


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_evaluate_matches_the_rational_path(p):
    """Every polynomial of the five C4 triple models, the 19 R
    polynomials, the stratum systems and the discriminant, at three
    points: equal to the Q value reduced mod p.  The level chain runs on
    int64 up to 2^31 - 1 and on Python ints at 2^61 - 1, where an int64
    product of two residues would wrap."""
    F = PrimeField(p)
    polys = _shipped_polynomials()
    assert len(polys) == 233
    for pt in _points(p, "evaluate"):
        for poly in polys:
            want = F(poly.evaluate(QQ, pt))
            got = poly.evaluate(F, pt)
            assert got.field == F and got.value == want.value
    chain = polys[0]._by_prime[p]
    assert chain.coeffs.dtype == (object if p > 2 ** 32 else np.int64)


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_class_set_matches_each_polynomial(p):
    """strata._class_set, the 143 polynomials a class over F_p reads, in
    one halving chain (PolySet.at_mod) at three points: every value equals
    the polynomial's own evaluate over F_p and its Q value reduced mod p.
    Its levels are at most ceil(log2 d), d the largest total degree of a
    monomial (4 for d = 14)."""
    F = PrimeField(p)
    polys = strata._class_set(strata._strata_set()[0])
    assert len(polys.polys) == 143
    for pt in _points(p, "class set"):
        got = polys.at_mod(p, pt)
        assert got == [poly.evaluate(F, pt).value for poly in polys.polys]
        assert got == [F(poly.evaluate(QQ, pt)).value
                       for poly in polys.polys]
    d = max(sum(ev) for poly in polys.polys for ev in poly.terms)
    assert len(polys._chain(p).levels) <= (d - 1).bit_length()


def test_polynomials_vanishing_mod_p_evaluate_to_zero():
    """A polynomial whose coefficients are all 0 mod 11, and one with no
    terms, evaluate to 0 over F_11, alone and between and after other
    polynomials of one PolySet; the other polynomials keep their
    values."""
    F = PrimeField(11)
    vanishing = JPolynomial(4, {(2, 0, 0, 0, 0, 0, 0, 0, 0): 11,
                                (0, 0, 1, 0, 0, 0, 0, 0, 0): -22})
    empty = JPolynomial.zero(4)
    live = [JPolynomial(4, {(2, 0, 0, 0, 0, 0, 0, 0, 0): 3}),
            JPolynomial(6, {(1, 0, 1, 0, 0, 0, 0, 0, 0): 5,
                            (0, 0, 0, 0, 1, 0, 0, 0, 0): 1})]
    for pt in _points(11, "vanishing"):
        assert vanishing.evaluate(F, pt) == F.zero
        assert empty.evaluate(F, pt) == F.zero
        polys = [vanishing, live[0], empty, vanishing, live[1], empty]
        want = [F(poly.evaluate(QQ, pt)) for poly in polys]
        assert want[0] == want[2] == want[3] == want[5] == F.zero
        assert PolySet(polys).at(F, pt) == want


def test_polyset_at_over_q_matches_evaluate_on_fractions():
    """Over Q, PolySet.at evaluates on integers and divides once per
    polynomial; at non-integral points (one with a zero and a negative
    coordinate) every value equals the polynomial's evaluate on
    Fractions: the stratum systems, the discriminant, the generic walk's
    R and models (monomials up to total degree 14), a polynomial with
    denominators 3, 7 and 9, and one with no terms."""
    polys = [eq for eqs in stratum_systems().values() for eq in eqs]
    polys += reconstruct.walk_set().polys
    polys += [covariants.discriminant_poly(), JPolynomial.zero(6),
              JPolynomial(6, {(3, 0, 0, 0, 0, 0, 0, 0, 0): Fraction(2, 3),
                              (0, 2, 0, 0, 0, 0, 0, 0, 0): Fraction(-5, 7),
                              (0, 0, 0, 0, 1, 0, 0, 0, 0): Fraction(1, 9)})]
    seed = zlib.crc32(b"polyset at over Q")
    print("seed", seed)
    rng = random.Random(seed)
    points = [[Fraction(rng.randint(-40, 40), rng.randint(1, 12))
               for _ in range(9)] for _ in range(2)]
    points.append([Fraction(3, 4), 0, Fraction(-7, 6), 1, 2, Fraction(1, 5),
                   -3, Fraction(9, 2), Fraction(-1, 10)])
    pset = PolySet(polys)
    for pt in points:
        got = pset.at(QQ, pt)
        assert all(type(v) is Fraction for v in got)
        assert got == [poly.evaluate(QQ, pt) for poly in polys]


def test_evaluate_keeps_one_entry_per_prime():
    """A polynomial evaluated over F_11, then F_13, then F_11 again gives
    the Q value reduced mod each prime every time."""
    poly = r_polynomial(TRIPLES_19[0])
    pt = _points(13, "prime switch")[2]
    exact = poly.evaluate(QQ, pt)
    for p in (11, 13, 11):
        F = PrimeField(p)
        assert poly.evaluate(F, pt) == F(exact)


def _triple_sets():
    """The 22 polynomials (R, conic, quartic) of each shipped triple."""
    return [PolySet([poly for _, poly in
                     conic_quartic_models(t, derive_if_missing=False)
                     .to_named_list()]) for t in TRIPLES_C4]


@pytest.mark.parametrize("p", PRIMES)
def test_polyset_at_matches_the_rational_path(p):
    """One monomial chain for all 22 polynomials of a triple gives each
    polynomial's Q value reduced mod p, as field elements (at) and as
    residues (at_mod)."""
    F = PrimeField(p)
    sets = _triple_sets()
    assert [len(s.polys) for s in sets] == [22] * 5
    for pt in _points(p, "polyset at"):
        for polys in sets:
            want = [F(poly.evaluate(QQ, pt)) for poly in polys.polys]
            got = polys.at(F, pt)
            assert all(v.field == F for v in got)
            assert got == want
            assert polys.at_mod(p, [v % p for v in pt]) == [
                v.value for v in want]


def test_polyset_at_keeps_one_chain_per_prime():
    """A set evaluated over F_11, then F_13, then F_11 again gives the Q
    values reduced mod each prime every time."""
    polys = _triple_sets()[2]
    pt = _points(13, "polyset prime switch")[2]
    exact = [poly.evaluate(QQ, pt) for poly in polys.polys]
    for p in (11, 13, 11):
        F = PrimeField(p)
        assert polys.at(F, pt) == [F(v) for v in exact]


def test_polyset_at_over_an_extension_is_the_element_path():
    """Over F_{11^2}, PolySet.at gives each polynomial's evaluate: the
    F_11 values embedded at points of F_11, and the element values at a
    point with coordinates off F_11."""
    F, E = PrimeField(11), ExtField(11, 2)
    polys = _triple_sets()[0]
    for pt in _points(11, "polyset at extension"):
        got = polys.at(E, pt)
        assert all(v.field == E for v in got)
        assert got == [E(v) for v in polys.at(F, pt)]
    seed = zlib.crc32(b"polyset at extension point")
    print("seed", seed)
    rng = random.Random(seed)
    pt = [E([rng.randrange(11), rng.randrange(1, 11)]) for _ in range(9)]
    assert polys.at(E, pt) == [poly.evaluate(E, pt) for poly in polys.polys]


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_substitution_program_matches_the_product_per_monomial(p):
    """The substitution as _reconstruct_mod runs it, a ResidueProgram of
    54, 75 and 150 terms, on seeded residues with a zero chi, some zero
    quartic values and all of them zero: equal to the product per
    monomial over F_p; int64 up to 1048573, Python ints above."""
    F = PrimeField(p)
    stages = reconstruct._substitution_stages()
    assert [sum(len(terms) for terms in stage) for stage in stages] == [
        54, 75, 150]
    program = reconstruct._substitution_program(p)
    assert program.dtype == (object if p in LARGE_PRIMES else np.int64)
    seed = zlib.crc32(b"substitution program %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    for n in range(8):
        chis = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if n == 0:
            chis[1] = [0, 0, 0]
        values = [rng.randrange(p) if n != 1 and rng.random() < 0.8 else 0
                  for _ in QUARTIC_MULTISETS]
        want = _substitute_per_monomial(
            F, dict(zip(QUARTIC_MULTISETS, map(F, values))),
            [BinaryForm(F, 2, chi) for chi in chis])
        got = program.run([c for chi in chis for c in chi] + values)
        assert got[-9:].tolist() == [c.value for c in want.coeffs]


def _substitute_per_monomial(field, quartic_values, chis):
    """The quartic substitution as one form product per monomial: the
    oracle for substitute_quartic's shared products."""
    out = BinaryForm(field, 8, [field.zero] * 9)
    for mset, h in quartic_values.items():
        form = BinaryForm(field, 0, [field.one])
        for i in mset:
            form = form * chis[i - 1]
        out = out + form.scale(h)
    return out


@pytest.mark.parametrize("label", ["F11", "F13", "F11^2", "Q(sqrt 5)"])
def test_substitute_quartic_matches_the_product_per_monomial(label):
    """Seeded chis and quartic values, a fifth of the values zero, one
    zero chi, over F_11, F_13, F_{11^2} and Q(sqrt 5)."""
    field = {"F11": PrimeField(11), "F13": PrimeField(13),
             "F11^2": ExtField(11, 2), "Q(sqrt 5)": QuadExtQ(5)}[label]
    seed = zlib.crc32(("substitute quartic %s" % label).encode())
    print("seed", seed)
    rng = random.Random(seed)
    if label == "F11^2":
        elt = lambda: field([rng.randrange(11), rng.randrange(11)])
    elif label == "Q(sqrt 5)":
        gen = field.gen()
        elt = lambda: (field(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                       + field(rng.randint(-9, 9)) * gen)
    else:
        elt = lambda: field(rng.randrange(field.p))
    for n in range(12):
        chis = tuple(BinaryForm(field, 2, [elt() if n or i else field.zero
                                           for _ in range(3)])
                     for i in range(3))
        values = {mset: elt() if rng.random() < 0.8 else field.zero
                  for mset in QUARTIC_MULTISETS}
        got = substitute_quartic(field, values, chis)
        assert got.field == field and got.degree == 8
        assert got == _substitute_per_monomial(field, values, chis)


def _transvectant_shapes():
    """Every (r1, r2, h) with which shioda and covariant_eval call
    transvect, recorded on one octic."""
    seen = set()

    def recording(f, g, h):
        seen.add((f.degree, g.degree, h))
        return transvect(f, g, h)

    # over Q: over a prime field shioda runs on residue arrays, not
    # through transvect
    f = BinaryForm(QQ, 8, [3, 1, 4, 1, 5, 9, 2, 6, 5])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covariants, "transvect", recording)
        shioda(f)
        cache = {}
        for name in CATALOGUE:
            covariant_eval(name, f, cache)
    return sorted(seen)


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_transvect_and_products_match_the_rational_path(p):
    """transvect for every shape shioda and covariant_eval use, and the
    products covariant_eval forms, on seeded forms with and without a
    vanishing leading part: equal to the Q results reduced mod p."""
    F = PrimeField(p)
    shapes = _transvectant_shapes()
    assert len(shapes) == 26
    seed = zlib.crc32(b"int path transvect %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    for r1, r2, h in shapes:
        for zeros in (0, r1 // 2):
            a = [0] * zeros + [rng.randrange(p)
                               for _ in range(r1 + 1 - zeros)]
            b = [rng.randrange(p) for _ in range(r2 + 1)]
            fq, gq = BinaryForm(QQ, r1, a), BinaryForm(QQ, r2, b)
            fp, gp = BinaryForm(F, r1, a), BinaryForm(F, r2, b)
            want = transvect(fq, gq, h).to_field(F)
            assert transvect(fp, gp, h) == want
            assert fp * gp == (fq * gq).to_field(F)


def _shioda_chain_by_depth(f):
    """The 16 transvectants of shioda's chain on f by transvect, grouped
    by their depth in the chain (f at depth 0), in call order within a
    depth."""
    depth, staged = {id(f): 0}, {}

    def recording(a, b, h):
        t = transvect(a, b, h)
        depth[id(t)] = 1 + max(depth[id(a)], depth[id(b)])
        staged.setdefault(depth[id(t)], []).append(t)
        return t

    covariants._shioda_chain(f, recording)
    return [staged[d] for d in sorted(staged)]


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES + (PRIMES30[0],))
def test_shioda_program_matches_the_rational_chain(p):
    """shioda's residue program over F_p, on seeded octics with and
    without a vanishing leading part: its array holds the octic, then all
    16 intermediate covariants of the chain, stage by stage (3, 5, 6 and
    2 transvectants), each equal to transvect over Q reduced mod p; J2..J10
    are read at its jindex.  266 terms at p = 11.  At the first
    interpolation prime, about 2^29.9, a product of three residues passes
    2^63 and the program reduces c x_u first."""
    F = PrimeField(p)
    program, jindex = covariants._shioda_program(p)
    assert program.dtype == (object if p > 2 ** 31 - 2 else np.int64)
    if p == 11:
        assert sum(len(stage[2]) for stage in program.stages) == 266
    seed = zlib.crc32(b"int path shioda program %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    for zeros in (0, 0, 3, 5):
        coeffs = [0] * zeros + [rng.randrange(p) for _ in range(9 - zeros)]
        stages = _shioda_chain_by_depth(BinaryForm(QQ, 8, coeffs))
        assert [len(stage) for stage in stages] == [3, 5, 6, 2]
        got = program.run(coeffs).tolist()
        assert got[:9] == coeffs
        assert got[9:] == [F(c).value for stage in stages
                           for t in stage for c in t.coeffs]
        assert [got[j] for j in jindex] == shioda(
            BinaryForm(F, 8, coeffs), residues=True)


def test_residue_program_reads_an_output_without_terms_as_zero():
    """An output with no terms is zero, inside a stage and at its end
    (np.add.reduceat gives the next element for an empty slice)."""
    program = ResidueProgram(11, 2, [[[(3, 0, 1)], [], [(1, 0, 0), (1, 1, 1)]],
                                     [[(1, 2, 4)], []]])
    assert program.run([4, 5]).tolist() == [4, 5, 5, 0, 8, 7, 0]


def test_shioda_refuses_characteristic_7():
    """Over F_7 (allow_small) shioda's program is refused where its
    transvectant tensors are built."""
    f = BinaryForm(PrimeField(7, allow_small=True), 8,
                   [1, 0, 0, 0, 2, 0, 0, 0, 1])
    with pytest.raises(SmallCharacteristic):
        shioda(f)
    with pytest.raises(SmallCharacteristic):
        shioda(f, residues=True)


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_shioda_matches_the_rational_path(p):
    """shioda over F_p, on seeded octics with and without a vanishing
    leading part: the invariants over Q of the integer lifts, reduced
    mod p."""
    F = PrimeField(p)
    seed = zlib.crc32(b"int path shioda %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    for zeros in (0, 0, 0, 2, 4):
        coeffs = [0] * zeros + [rng.randrange(p) for _ in range(9 - zeros)]
        got = shioda(BinaryForm(F, 8, coeffs))
        assert all(v.field == F for v in got)
        assert got == tuple(F(v) for v in shioda(BinaryForm(QQ, 8, coeffs)))


def test_transvect_and_products_over_an_extension_match_the_prime_field():
    """The element path over F_{11^2}, on forms with F_11 coefficients,
    for every shape of the test above: the F_11 results embedded."""
    F, E = PrimeField(11), ExtField(11, 2)
    seed = zlib.crc32(b"element path transvect")
    print("seed", seed)
    rng = random.Random(seed)
    for r1, r2, h in _transvectant_shapes():
        fp = BinaryForm(F, r1, [rng.randrange(11) for _ in range(r1 + 1)])
        gp = BinaryForm(F, r2, [rng.randrange(11) for _ in range(r2 + 1)])
        fe, ge = fp.to_field(E), gp.to_field(E)
        assert transvect(fe, ge, h) == transvect(fp, gp, h).to_field(E)
        assert fe * ge == (fp * gp).to_field(E)


# ---------------------------------------------------------------------------
# properties over F_11 and F_13


def _octic(p, coeffs):
    return BinaryForm(PrimeField(p), 8, [c % p for c in coeffs])


_coeffs = st.lists(st.integers(0, 12), min_size=9, max_size=9)


@given(p=st.sampled_from([11, 13]), coeffs=_coeffs,
       entries=st.lists(st.integers(0, 12), min_size=4, max_size=4))
def test_shioda_is_gl2_invariant(p, coeffs, entries):
    F = PrimeField(p)
    m = Gl2Matrix(F, *entries)
    assume(m.det())
    f = _octic(p, coeffs)
    jf, jg = shioda(f), shioda(gl2_act(m, f))
    if not any(jf):
        assert not any(jg)
        return
    assert wps_equal(WeightedPoint(F, SHIODA_WEIGHTS, jf),
                     WeightedPoint(F, SHIODA_WEIGHTS, jg))


@given(p=st.sampled_from([11, 13]), coords=_coeffs)
def test_normalization_is_idempotent(p, coords):
    """wps_normalize is a representative of its class, normalizing it
    again changes nothing, and normalize_rows gives the same one."""
    assume(any(c % p for c in coords))
    F = PrimeField(p)
    u = WeightedPoint(F, SHIODA_WEIGHTS, coords)
    n = wps_normalize(u)
    assert wps_equal(u, n)
    assert wps_normalize(n).coords == n.coords
    fast = normalize_rows(_ModCtx(p), np.array([[c % p for c in coords]]))
    assert [c.value for c in n.coords] == fast[0].tolist()


def _walk_ends_shipped(F, jt):
    """Whether the triple walk stops at a triple whose models ship with
    the package (any other one would be derived, for minutes)."""
    for t in TRIPLES_19:
        if r_polynomial(t).evaluate(F, jt):
            try:
                conic_quartic_models(t, derive_if_missing=False)
            except InterpolationFailure:
                return False
            return True
    return False


@given(p=st.sampled_from([11, 13]), coeffs=_coeffs)
def test_class_model_round_trips_generic_classes(p, coeffs):
    F = PrimeField(p)
    f = _octic(p, coeffs)
    assume(disc_resultant(f))
    jt = shioda(f)
    row = np.array([[v.value for v in jt]], dtype=np.int64)
    assume(strata_labels()[classify_rows(F, row)[0]] == "C2")
    assume(_walk_ends_shipped(F, jt))
    model, extdeg = class_model(F, jt)
    assert model.field == F and extdeg == 1
    assert wps_equal(WeightedPoint(F, SHIODA_WEIGHTS, shioda(model)),
                     WeightedPoint(F, SHIODA_WEIGHTS, jt))


def _generic_classes(p, n):
    """n seeded C2 tuples (of random octics) and n C4 tuples (of normal
    models) at p, with the triple order of their stratum, each of a
    smooth octic whose walk ends at a shipped triple."""
    F = PrimeField(p)
    seed = zlib.crc32(b"residue reconstruction %d" % p)
    print(p, "seed", seed)
    rng = random.Random(seed)
    out = []
    for stratum, order in (("C2", TRIPLES_19), ("C4", TRIPLES_C4)):
        found = 0
        while found < n:
            if stratum == "C2":
                f = BinaryForm(F, 8, [rng.randrange(p) for _ in range(9)])
            else:
                f = normal_model("C4", F, rng, bound=p)
            if not disc_resultant(f):
                continue
            jt = shioda(f)
            if detect_group(F, jt) == stratum and _walk_ends_shipped(F, jt):
                out.append((jt, order))
                found += 1
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_residue_reconstruction_matches_the_reference(p):
    """The residue path's 21 values, conic point, chis and octic equal
    those of PolySet.at, conic_point, conic_parametrize and
    substitute_quartic on field elements; the octic also equals the
    substitution over F_{p^2}, which runs on field elements."""
    F, E = PrimeField(p), ExtField(p, 2)
    for jt, order in _generic_classes(p, 4):
        residues = [v.value for v in jt]
        models = _first_triple(
            order, lambda t: r_polynomial(t).at_mod(p, residues))
        values = models.polys.at_mod(p, residues)
        ref_values = models.polys.at(F, jt)
        assert values == [v.value for v in ref_values]
        A, ref_A = conic_matrix(values), conic_matrix(ref_values)
        point = _conic_point_mod(F, A)
        work, ref_point = conic_point(F, ref_A)
        assert work == F and point == [c.value for c in ref_point]
        chis = [[c % p for c in chi] for chi in _chis(A, point)]
        ref_chis = conic_parametrize(F, ref_A, ref_point)
        assert chis == [[c.value for c in chi.coeffs] for chi in ref_chis]
        octic = reconstruct_generic(F, jt, triple_order=order)
        quartic = dict(zip(QUARTIC_MULTISETS, ref_values[6:]))
        assert octic == substitute_quartic(F, quartic, ref_chis)
        assert octic.to_field(E) == substitute_quartic(
            E, {m: E(v) for m, v in quartic.items()},
            tuple(chi.to_field(E) for chi in ref_chis))


@pytest.mark.parametrize("p", PRIMES)
def test_class_model_round_trips_over_the_quadratic_extension(p):
    """class_model's F_p model of C2 and C4 classes has the tuple's
    invariants when shioda runs on its coefficients in F_{p^2}, that is
    on field elements, not residues."""
    F, E = PrimeField(p), ExtField(p, 2)
    for jt, order in _generic_classes(p, 3):
        model, extdeg = class_model(F, jt)
        assert model.field == F and extdeg == 1
        assert wps_equal(WeightedPoint(E, SHIODA_WEIGHTS,
                                       shioda(model.to_field(E))),
                         WeightedPoint(E, SHIODA_WEIGHTS,
                                       [E(v) for v in jt]))


@pytest.mark.parametrize("p", [11, 13])
def test_line_root_on_residues_is_the_element_root(p):
    """Every a t^2 + b t + c over F_p, its coefficients given reduced and
    as other integers of their class: the residue line root is
    _line_root's root on field elements, or None with it (a = b = 0, or
    a non-square discriminant)."""
    F = PrimeField(p)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                want = _line_root(F, F(a), F(b), F(c))
                want = None if want is None else want[1].value
                assert _line_root_mod(F, a, b, c) == want
                assert _line_root_mod(F, a - p, b + 3 * p, c * p + c) == want


def test_residue_conic_point_refuses_a_singular_conic(monkeypatch):
    """A conic whose determinant is 0 mod p, not only 0 as an integer,
    is singular; reconstruct_generic over F_p refuses one."""
    F = PrimeField(11)
    for A in ([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
              [[1, 0, 0], [0, 1, 0], [0, 0, 11]]):
        with pytest.raises(SingularConic):
            _conic_point_mod(F, A)
    jt, order = _generic_classes(11, 1)[0]
    monkeypatch.setattr(reconstruct, "conic_matrix",
                        lambda values: [[1, 2, 0], [2, 4, 0], [0, 0, 3]])
    with pytest.raises(SingularConic):
        reconstruct_generic(F, jt, triple_order=order)


#: the worked example of the paper, by the conic of its first triple,
#: and a point of its conic
WORKED = ([1, 0, 0, 0, 0, 0, 8, 2, 7], [("C5_2", "C6_2", "C7_2")], (1, 0, 1))


def test_residue_path_checks_a_supplied_point():
    """Over F_11 a supplied point on the conic, given by any integers
    that reduce to it, gives the worked example's octic; one off it, or
    not a point of the plane, is refused."""
    F = PrimeField(11)
    jt, order, point = WORKED
    for hint in (point, (12, 11, 1)):
        octic = reconstruct_generic(F, jt, triple_order=order,
                                    conic_point_hint=hint)
        assert [c.value for c in octic.coeffs] == [8, 4, 2, 3, 8, 9, 9, 7, 2]
    for bad in ((1, 1, 1), (0, 1, 0), (1, 0), (0, 0, 11)):
        with pytest.raises(PointNotOnConic):
            reconstruct_generic(F, jt, triple_order=order,
                                conic_point_hint=bad)


def test_class_model_refuses_a_model_that_does_not_round_trip(monkeypatch):
    """With one quartic value of TRIPLES_19[0] moved by 1 in the pass
    that evaluates it (strata._class_set through detect_group, or
    reconstruct.walk_set when the stratum is given), the octic of the
    residue path has other invariants, and class_model refuses it
    (CountMismatch) instead of returning it."""
    F = PrimeField(11)
    jt = next(jt for jt, order in _generic_classes(11, 4)
              if order == TRIPLES_19 and r_polynomial(TRIPLES_19[0]).at_mod(
                  11, [v.value for v in jt]))
    model, _ = class_model(F, jt)
    walk = reconstruct.walk_set()
    whole = strata._class_set(strata._strata_set()[0])
    quartic = len(TRIPLES_19) + 6       # the first quartic value

    def move(polys, k):
        true_values = polys.at_mod

        def moved(p, xs):
            values = true_values(p, xs)
            values[k] = (values[k] + 1) % p
            return values
        monkeypatch.setattr(polys, "at_mod", moved)

    move(walk, quartic)
    move(whole, len(whole.polys) - len(walk.polys) + quartic)
    assert reconstruct_generic(F, jt) != model
    for stratum in (None, "C2"):
        with pytest.raises(CountMismatch):
            class_model(F, jt, stratum)
