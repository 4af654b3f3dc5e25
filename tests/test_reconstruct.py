import random
from fractions import Fraction

import pytest

from octicmoduli import store
from octicmoduli.covariants import covariant_eval, random_octic, shioda
from octicmoduli.errors import (
    AllDeterminantsVanish, PointNotOnConic, SingularConic,
)
from octicmoduli.fields import QQ, QuadExtQ, field_make
from octicmoduli.forms import BinaryForm, disc_resultant, transvect
from octicmoduli.reconstruct import (
    CONIC_PAIRS, TRIPLES_19, TRIPLES_C4, _det3, clebsch_data, conic_matrix,
    conic_parametrize, conic_point, conic_quartic_models,
    quartic_coefficients_on_form, r_polynomial, reconstruct_generic,
)
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_equal

from conftest import smooth_normal_model


def rquad(field, rng):
    return BinaryForm(field, 2, [rng.randint(-9, 9) for _ in range(3)])


def conic_value(A, point):
    """sum over all i, j of A_ij P_i P_j."""
    return sum(A[i][j] * point[i] * point[j]
               for i in range(3) for j in range(3))


def conic_on_parametrization(A, chis):
    """sum over all i, j of A_ij chi_i chi_j, a quartic in (T, U)."""
    acc = None
    for i in range(3):
        for j in range(3):
            term = (chis[i] * chis[j]).scale(A[i][j])
            acc = term if acc is None else acc + term
    return acc


def diagonal(field, *entries):
    return [[field(entries[i]) if i == j else field.zero for j in range(3)]
            for i in range(3)]


@pytest.mark.parametrize("fieldname", ["Q", "F11"])
def test_clebsch_identity_suite(fieldname, F11):
    field = QQ if fieldname == "Q" else F11
    rng = random.Random(20 + len(fieldname))
    for _ in range(200):
        q1, q2, q3 = (rquad(field, rng) for _ in range(3))
        data = clebsch_data(q1, q2, q3)
        q1s, q2s, q3s = data["qstar"]
        A, R = data["A"], data["R"]
        # orthogonality
        assert (q1 * q1s + q2 * q2s + q3 * q3s).is_zero()
        # 2 det(A) = R^2
        detA = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
                - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
                + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
        assert detA + detA == R * R
        # decomposition identities for an arbitrary quadratic
        fq = rquad(field, rng)
        half_rf = (q1.scale(transvect(fq, q1s, 2).coeffs[0])
                   + q2.scale(transvect(fq, q2s, 2).coeffs[0])
                   + q3.scale(transvect(fq, q3s, 2).coeffs[0]))
        assert half_rf.scale(2) == fq.scale(R)
        dual = (q1s.scale(transvect(fq, q1, 2).coeffs[0])
                + q2s.scale(transvect(fq, q2, 2).coeffs[0])
                + q3s.scale(transvect(fq, q3, 2).coeffs[0]))
        assert dual.scale(2) == fq.scale(R)
        # the conic vanishes on the adjoint triple
        acc = None
        qs = (q1s, q2s, q3s)
        for i in range(3):
            for j in range(3):
                term = (qs[i] * qs[j]).scale(A[i][j])
                acc = term if acc is None else acc + term
        assert acc.is_zero()


def test_detform_example():
    # (x^2, xz, z^2) has coefficient-basis determinant 1 up to sign
    q1 = BinaryForm(QQ, 2, [0, 0, 1])
    q2 = BinaryForm(QQ, 2, [0, 1, 0])
    q3 = BinaryForm(QQ, 2, [1, 0, 0])
    data = clebsch_data(q1, q2, q3)
    assert data["R"] ** 2 == 1
    assert clebsch_data(q1, q1, q3)["R"] == 0


@pytest.mark.parametrize("fieldname", ["Q", "F11"])
def test_quartic_substitution_identity(fieldname, F11):
    field = QQ if fieldname == "Q" else F11
    rng = random.Random(21)
    for _ in range(3):
        f = random_octic(rng, field, 9)
        cache = {}
        q1 = covariant_eval("C5_2", f, cache)
        q2 = covariant_eval("C6_2", f, cache)
        q3 = covariant_eval("C7_2", f, cache)
        data = clebsch_data(q1, q2, q3)
        h = quartic_coefficients_on_form(f, q1, q2, q3)
        qs = data["qstar"]
        acc = BinaryForm(field, 8, [field.zero] * 9)
        for mset, hv in h.items():
            prod = BinaryForm(field, 0, [field.one])
            for i in mset:
                prod = prod * qs[i - 1]
            acc = acc + prod.scale(hv)
        assert acc == f.scale(data["R"] ** 4)


def test_cached_models_match_direct_computation(F11):
    """The J-polynomial caches evaluated at the invariants of a real octic
    reproduce the direct covariant computation."""
    models = conic_quartic_models(("C5_2", "C6_2", "C7_2"),
                                  derive_if_missing=False)
    rng = random.Random(22)
    f = random_octic(rng, QQ, 7)
    jt = shioda(f)
    cache = {}
    q1 = covariant_eval("C5_2", f, cache)
    q2 = covariant_eval("C6_2", f, cache)
    q3 = covariant_eval("C7_2", f, cache)
    data = clebsch_data(q1, q2, q3)
    assert models.r_poly.evaluate(QQ, jt) == data["R"]
    qs = (q1, q2, q3)
    for (i, j), poly in models.conic.items():
        assert poly.evaluate(QQ, jt) == \
            transvect(qs[i - 1], qs[j - 1], 2).coeffs[0]
    h = quartic_coefficients_on_form(f, q1, q2, q3)
    for mset, poly in models.quartic.items():
        assert poly.evaluate(QQ, jt) == h[mset]


def test_worked_example_conic_and_output(F11):
    t = [F11(v) for v in (1, 0, 0, 0, 0, 0, 8, 2, 7)]
    models = conic_quartic_models(("C5_2", "C6_2", "C7_2"),
                                  derive_if_missing=False)
    assert models.r_poly.evaluate(F11, t) != F11.zero
    A = conic_matrix(models.polys.at(F11, t))
    # the printed conic: the coefficients of x_i x_j, A_ii and 2 A_ij
    got = {(i, j): (A[i - 1][j - 1] * (1 if i == j else 2)).value
           for i, j in CONIC_PAIRS}
    assert got == {(1, 1): 0, (1, 2): 1, (1, 3): 3,
                   (2, 2): 6, (2, 3): 1, (3, 3): 8}
    field, point = conic_point(F11, A, supplied=(1, 0, 1))
    assert field is F11
    chis = conic_parametrize(F11, A, point)
    flat = [tuple(c.value for c in chi.coeffs) for chi in chis]
    # (u^2, tu, t^2) coefficient order
    assert flat == [(6, 10, 8), (9, 8, 0), (6, 1, 0)]
    octic = reconstruct_generic(F11, t, conic_point_hint=(1, 0, 1))
    assert [c.value for c in octic.coeffs] == [8, 4, 2, 3, 8, 9, 9, 7, 2]
    jv = shioda(octic)
    assert wps_equal(WeightedPoint(F11, SHIODA_WEIGHTS, jv),
                     WeightedPoint(F11, SHIODA_WEIGHTS, t))


def test_conic_point_and_parametrize_properties(F11):
    rng = random.Random(23)
    count = 0
    while count < 6:
        f = random_octic(rng, F11, 10)
        if not disc_resultant(f):
            continue
        jt = shioda(f)
        models = conic_quartic_models(("C5_2", "C6_2", "C7_2"),
                                      derive_if_missing=False)
        if not models.r_poly.evaluate(F11, jt):
            continue
        A = conic_matrix(models.polys.at(F11, jt))
        field, pt = conic_point(F11, A)
        assert field is F11 and conic_value(A, pt) == F11.zero
        chis = conic_parametrize(F11, A, pt)
        # substituting the parametrization into the conic gives zero
        assert conic_on_parametrization(A, chis).is_zero()
        count += 1
    # exhaustive-scan oracle: a sum-of-squares conic over F11 has a point
    A = diagonal(F11, 1, 1, 1)
    field, pt = conic_point(F11, A)
    assert conic_value(A, pt) == F11.zero
    with pytest.raises(PointNotOnConic):
        conic_parametrize(F11, A, (F11(1), F11(1), F11(1)))


@pytest.mark.parametrize("spec", ["Fp:11", "Fpk:11:2"])
def test_conic_point_lies_in_the_chart_x3_is_1(spec):
    """A nonsingular conic over F_q has q + 1 points, at most 2 of them on
    x3 = 0, so the scan of x1 with x3 = 1 finds a point on every one."""
    field = field_make(spec)
    elements = list(field.elements())
    half = field.one / field(2)
    rng = random.Random(27)
    done = linear = 0
    while done < 300:
        # the coefficient c_ij of x_i x_j is A_ii, resp. 2 A_ij
        coeffs = {pair: rng.choice(elements) for pair in CONIC_PAIRS}
        A = conic_matrix([c if i == j else c * half
                          for (i, j), c in coeffs.items()])
        if not _det3(A):
            continue
        got, pt = conic_point(field, A)
        assert got is field
        assert pt[2] == field.one and not conic_value(A, pt)
        linear += not A[1][1]
        done += 1
    assert linear          # some x2 came from the linear case


def test_singular_conic_rejected(F11):
    with pytest.raises(SingularConic):
        conic_point(F11, diagonal(F11, 1, 0, 0))


@pytest.mark.parametrize("A, field, point", [
    # (1, t, 0): A_22 = 0, so the restriction 2 t + 1 is linear
    ([[1, 1, 0], [1, 0, 0], [0, 0, 1]], QQ, (1, Fraction(-1, 2), 0)),
    # (1, t, 0) and (1, 0, t) restrict to the constant 1; (0, 1, t) to 2 t
    ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], QQ, (0, 1, 0)),
    # (1, t, 0): t^2 - 1, discriminant 4
    ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ, (1, 1, 0)),
    # (1, t, 0): t^2 + 1, discriminant -4: t = sqrt(-4) / 2
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QuadExtQ(-4),
     (1, Fraction(1, 2) * QuadExtQ(-4).gen(), 0)),
])
def test_conic_point_over_q_reads_the_first_usable_chart(A, field, point):
    """Over Q with no supplied point the charts (1, t, 0), (1, 0, t),
    (0, 1, t) are read in order: a linear restriction, charts skipped
    because the restriction is a nonzero constant, a square and a
    non-square discriminant.  The point lies on the conic over its field,
    and the parametrization through it too."""
    A = [[Fraction(a) for a in row] for row in A]
    got, pt = conic_point(QQ, A)
    assert got == field and pt == tuple(field(c) for c in point)
    lifted = [[field(a) for a in row] for row in A]
    assert conic_value(lifted, pt) == field.zero
    chis = conic_parametrize(field, A, pt)
    assert conic_on_parametrization(lifted, chis).is_zero()


@pytest.mark.parametrize("point", [(1, 0), (0, 0, 0), (1, 0, 1, 5),
                                   (1, 1, 1)])
def test_conic_point_refuses_a_bad_supplied_point(F11, point):
    """A supplied point needs three coordinates, not all zero, on the
    conic x^2 + y^2 + z^2."""
    with pytest.raises(PointNotOnConic):
        conic_point(F11, diagonal(F11, 1, 1, 1), supplied=point)


def test_roundtrip_random_f11(F11):
    rng = random.Random(24)
    done = 0
    while done < 20:
        f = random_octic(rng, F11, 10)
        if not disc_resultant(f):
            continue
        t = shioda(f)
        octic = reconstruct_generic(F11, t)
        jv = shioda(octic)
        assert wps_equal(WeightedPoint(F11, SHIODA_WEIGHTS, jv),
                         WeightedPoint(F11, SHIODA_WEIGHTS, t))
        done += 1


def test_roundtrip_q_with_supplied_point():
    rng = random.Random(25)
    done = 0
    while done < 5:
        f = random_octic(rng, QQ, 5)
        if not disc_resultant(f):
            continue
        t = shioda(f)
        # a rational conic point comes for free from the adjoint triple
        cache = {}
        q1 = covariant_eval("C5_2", f, cache)
        q2 = covariant_eval("C6_2", f, cache)
        q3 = covariant_eval("C7_2", f, cache)
        data = clebsch_data(q1, q2, q3)
        if not data["R"]:
            continue
        x0, z0 = Fraction(1), Fraction(2)
        hint = tuple(q.evaluate(x0, z0) for q in data["qstar"])
        if not any(hint):
            continue
        octic = reconstruct_generic(QQ, t, conic_point_hint=hint)
        jv = shioda(octic)
        assert wps_equal(WeightedPoint(QQ, SHIODA_WEIGHTS, jv),
                         WeightedPoint(QQ, SHIODA_WEIGHTS, t))
        done += 1


def test_q_without_point_goes_quadratic():
    rng = random.Random(26)
    while True:
        f = random_octic(rng, QQ, 4)
        if disc_resultant(f):
            break
    t = shioda(f)
    octic = reconstruct_generic(QQ, t)
    field = octic.field
    jv = shioda(octic)
    lifted = [field(v) for v in t]
    assert wps_equal(WeightedPoint(field, SHIODA_WEIGHTS, jv),
                     WeightedPoint(field, SHIODA_WEIGHTS, lifted))


def test_all_determinants_vanish_on_klein_four():
    rng = random.Random(27)
    f = smooth_normal_model("D4", QQ, rng)
    t = shioda(f)
    with pytest.raises(AllDeterminantsVanish):
        reconstruct_generic(QQ, t)


def test_printed_r_polynomial_matches_modulo_relations():
    """Acceptance: the derived determinant polynomial of the default
    triple equals the reference one up to one rational constant, modulo
    the degree-18 relation space."""
    import os
    from octicmoduli import store
    from octicmoduli.covariants import derive_syzygies
    from octicmoduli.jpoly import JPolynomial, monomial_basis

    ref = store.read_data_polys("printed_r_c52_c62_c72.jpoly")[0][1]
    mine = conic_quartic_models(("C5_2", "C6_2", "C7_2"),
                                derive_if_missing=False).r_poly
    syz = derive_syzygies()
    # the degree-18 relation space: J2 * R1 and R3
    J2 = JPolynomial.generator(2)
    r1 = _relation_poly(syz, 1)
    r3 = _relation_poly(syz, 3)
    span = [J2 * r1, r3]
    # solve ref = c*mine + s1*span0 + s2*span1 exactly
    basis = monomial_basis(18)
    idx = {ev: i for i, ev in enumerate(basis)}
    cols = [mine, span[0], span[1]]
    A = [[Fraction(0)] * 3 for _ in range(len(basis))]
    b = [Fraction(0)] * len(basis)
    for j, poly in enumerate(cols):
        for ev, c in poly.terms.items():
            A[idx[ev]][j] = c
    for ev, c in ref.terms.items():
        b[idx[ev]] = c
    sol = _solve_exact(A, b)
    assert sol is not None
    c = sol[0]
    assert c != 0
    check = mine.scale(c) + span[0].scale(sol[1]) + span[1].scale(sol[2])
    assert check == ref


def test_printed_conic_is_the_derived_conic_up_to_one_constant():
    """The packaged printed conic of (C5_2, C6_2, C7_2) holds the
    coefficients of x_i x_j: c A_ii on the diagonal and 2 c A_ij off it,
    with one constant c for all six."""
    printed = dict(store.read_data_polys("printed_conic_c52_c62_c72.jpoly"))
    conic = conic_quartic_models(("C5_2", "C6_2", "C7_2"),
                                 derive_if_missing=False).conic
    assert sorted(printed) == ["A%d%d" % pair for pair in CONIC_PAIRS]
    c = 57610828800000
    for i, j in CONIC_PAIRS:
        assert printed["A%d%d" % (i, j)] == conic[(i, j)].scale(
            c if i == j else 2 * c)


def _relation_poly(syz, i):
    from octicmoduli.jpoly import JPolynomial
    g = JPolynomial.generator
    if i == 1:
        return (g(8) * g(8) + syz["A6"] * g(10) + syz["A7"] * g(9)
                + syz["A8"] * g(8) + syz["A16"])
    if i == 3:
        return (g(8) * g(10) + syz["C0"] * g(9) * g(9) + syz["C8"] * g(10)
                + syz["C9"] * g(9) + syz["C10"] * g(8) + syz["C18"])
    raise KeyError(i)


def _solve_exact(A, b):
    """Tiny dense least-structure exact solver: returns x with A x = b."""
    rows = [list(r) + [bb] for r, bb in zip(A, b)]
    n = len(A[0])
    piv = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == n:
            break
    # consistency
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv):
        x[c] = rows[i][n]
    return x


def test_triple_polynomials_are_read_once(monkeypatch):
    """Once loaded, the models of the C4 triples and the R of every triple
    of TRIPLES_19 come back without reading an artifact, as the same
    objects."""
    for t in TRIPLES_C4:
        conic_quartic_models(t)
    first = [r_polynomial(t) for t in TRIPLES_19]
    reads = []
    read = store.read_artifact
    monkeypatch.setattr(store, "read_artifact",
                        lambda ident: reads.append(ident) or read(ident))
    for t in TRIPLES_C4:
        conic_quartic_models(t, derive_if_missing=False)
    assert all(r_polynomial(t) is r for t, r in zip(TRIPLES_19, first))
    assert reads == []


def test_r_polynomial_derives_the_packaged_r(monkeypatch, tmp_path):
    """With no packaged data and an empty cache, r_polynomial derives the
    R of (C5_2, C6_2, C7_2) by interpolation: the R of the packaged
    triple-models artifact.  It writes R alone to the cache."""
    import os
    from octicmoduli import reconstruct
    triple = ("C5_2", "C6_2", "C7_2")
    packaged = dict(store.read_artifact(
        reconstruct._triple_identifier(triple)))["R"]
    (tmp_path / "data").mkdir()
    monkeypatch.setattr(store, "data_dir", lambda: str(tmp_path / "data"))
    monkeypatch.setattr(store, "_override_dir", str(tmp_path / "cache"))
    caches = (r_polynomial, reconstruct._stored_models)
    for cached in caches:
        cached.cache_clear()
    try:
        assert r_polynomial(triple) == packaged
    finally:
        for cached in caches:
            cached.cache_clear()
    assert os.listdir(tmp_path / "cache") == [store.artifact_filename(
        reconstruct._r_identifier(triple))]


def test_packaged_r_polynomials_re_derive(monkeypatch, tmp_path):
    """Each of the 18 packaged triple-r artifacts is express_in_J of the
    R of clebsch_data on the triple's covariants, serialized byte for
    byte as packaged; the derivation writes nothing to any cache."""
    import os
    from octicmoduli import reconstruct
    from octicmoduli.covariants import express_in_J
    from octicmoduli.reconstruct import triple_degrees

    def refuse(identifier, named_polys):
        raise AssertionError("wrote %s" % identifier)

    monkeypatch.setattr(store, "_override_dir", str(tmp_path / "cache"))
    monkeypatch.setattr(store, "write_artifact", refuse)
    derived = 0
    for triple in TRIPLES_19:
        path = os.path.join(store.data_dir(), store.artifact_filename(
            reconstruct._r_identifier(triple)))
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            name, _, payload = fh.read().splitlines()[1].partition(" | ")
        assert name == "R"

        def run(f, triple=triple):
            cache = {}
            return clebsch_data(*(covariant_eval(n, f, cache)
                                  for n in triple))["R"]

        poly = express_in_J(run, sum(triple_degrees(triple))).polynomial
        assert poly.serialize() == payload, triple
        derived += 1
    assert derived == 18
    assert not (tmp_path / "cache").exists()
