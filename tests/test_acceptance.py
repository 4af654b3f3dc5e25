"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import zlib
from fractions import Fraction
from itertools import product

import pytest

from octicmoduli.census import expected_counts, run_census
from octicmoduli.covariants import (
    covariant_eval, derive_syzygies, discriminant_J, random_octic, shioda,
    solve_j9_j10,
)
from octicmoduli.fields import PrimeField, QQ, field_make
from octicmoduli.forms import BinaryForm, disc_resultant, transvect
from octicmoduli.reconstruct import (
    CONIC_PAIRS, clebsch_data, conic_matrix, conic_quartic_models,
    reconstruct_generic,
)
from octicmoduli.strata import (
    ALL_STRATA, detect_group, reconstruct_stratum, stratum_systems,
)
from octicmoduli.wps import (
    SHIODA_WEIGHTS, WeightedPoint, wps_enumerate, wps_equal, wps_normalize,
)

from conftest import lifted_jtuple, smooth_normal_model


def report(n, desc):
    print("ACCEPTANCE criterion %2d (%s): PASS" % (n, desc), flush=True)


def test_criterion_01_calibration():
    """J2, J3, J4 reproduce the reference coefficient expansions exactly."""
    import os
    from octicmoduli import store
    from symring import generic_octic
    f = generic_octic()
    j = shioda(f)
    expected = {}
    with open(os.path.join(store.data_dir(), "shioda_expansions.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, payload = line.partition(" | ")
            terms = {}
            for chunk in payload.split("; "):
                ev_str, c_str = chunk.split(": ")
                ev = tuple(int(e) for e in ev_str.split(","))
                num, den = c_str.split("/")
                terms[ev] = Fraction(int(num), int(den))
            expected[name.strip()] = terms
    assert j[0].terms == expected["J2"]
    assert j[1].terms == expected["J3"]
    assert j[2].terms == expected["J4"]
    report(1, "symbolic calibration of J2, J3, J4")


def test_criterion_02_worked_example():
    F11 = PrimeField(11)
    t = [F11(v) for v in (1, 0, 0, 0, 0, 0, 8, 2, 7)]
    models = conic_quartic_models(("C5_2", "C6_2", "C7_2"))
    A = conic_matrix(models.polys.at(F11, t))
    # the coefficients of x_i x_j: A_ii and 2 A_ij
    assert {(i, j): (A[i - 1][j - 1] * (1 if i == j else 2)).value
            for i, j in CONIC_PAIRS} == {
        (1, 1): 0, (1, 2): 1, (1, 3): 3, (2, 2): 6, (2, 3): 1, (3, 3): 8}
    octic = reconstruct_generic(F11, t, conic_point_hint=(1, 0, 1))
    printed = BinaryForm(F11, 8, [8, 4, 2, 3, 8, 9, 9, 7, 2])
    ratios = {(a / b).value for a, b in zip(octic.coeffs, printed.coeffs)
              if b}
    assert len(ratios) == 1 and all(
        bool(a) == bool(b) for a, b in zip(octic.coeffs, printed.coeffs))
    assert wps_equal(WeightedPoint(F11, SHIODA_WEIGHTS, shioda(octic)),
                     WeightedPoint(F11, SHIODA_WEIGHTS, t))
    report(2, "mod-11 worked reconstruction, conic and octic exact")


def test_criterion_03_wps_suite():
    F7 = field_make("Fp:7", allow_small=True)
    pts = list(wps_enumerate(F7, (5, 7)))
    got = sorted(tuple(c.value for c in pt.coords) for pt in pts)
    assert got == [(0, 1), (1, 0), (1, 1), (1, 6), (2, 1), (2, 6),
                   (4, 1), (4, 6)]
    # brute-force union-find over all of F_7^2 against wps_equal
    vectors = [v for v in product(range(7), repeat=2) if any(v)]
    points = {v: WeightedPoint(F7, (5, 7), v) for v in vectors}
    parent = {v: v for v in vectors}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, u in enumerate(vectors):
        for v in vectors[i + 1:]:
            if wps_equal(points[u], points[v]):
                parent[find(u)] = find(v)
    classes = {find(v) for v in vectors}
    assert len(classes) == len(pts) == 8
    # normalization agrees with the union-find classes
    for u in vectors:
        for v in vectors:
            same = find(u) == find(v)
            assert (wps_normalize(points[u]).key()
                    == wps_normalize(points[v]).key()) == same
    report(3, "weighted projective enumeration and equality over F_7")


def test_criterion_04_syzygy_behaviour():
    F11 = PrimeField(11)
    z = F11.zero
    none_prefix = [F11(1), z, z, z, F11(8), z, F11(7)]
    assert solve_j9_j10(F11, none_prefix) == []
    three_prefix = [F11(9), z, z, z, F11(2), z, z]
    got = sorted((a.value, b.value) for a, b in
                 solve_j9_j10(F11, three_prefix))
    assert got == [(0, 4), (2, 9), (9, 9)]
    report(4, "mod-11 relation solving: empty and three-solution prefixes")


@pytest.mark.slow
def test_criterion_05_census_p11():
    report_obj = run_census(11)
    assert report_obj.total == 11 ** 5
    assert report_obj.counts == expected_counts(11)
    assert not report_obj.flags
    report(5, "census at p = 11: stratum counts and total 161051")


@pytest.mark.slow
def test_criterion_06_stratum_roundtrips():
    per_stratum = 50
    F11 = PrimeField(11)
    for field_name, field, bound in (("Q", QQ, 4), ("F11", F11, 10)):
        for stratum in ALL_STRATA:
            seed = zlib.crc32(("%s:%s" % (stratum, field_name)).encode())
            print("seed", stratum, field_name, seed)
            rng = random.Random(seed)
            for _ in range(per_stratum):
                f = smooth_normal_model(stratum, field, rng, bound)
                jv = shioda(f)
                det = detect_group(field, jv)
                if det != stratum:
                    # degenerate parameters: a strictly larger group,
                    # i.e. earlier in the cascade
                    assert ALL_STRATA.index(det) < ALL_STRATA.index(stratum)
                model = reconstruct_stratum(det, field, jv)
                wf = model.field
                jm = shioda(model)
                lj = lifted_jtuple(wf, jv) if wf is not field else list(jv)
                assert wps_equal(
                    WeightedPoint(wf, SHIODA_WEIGHTS, jm),
                    WeightedPoint(wf, SHIODA_WEIGHTS, lj)), \
                    (field_name, stratum, list(f.coeffs))
    report(6, "50 normal-model round-trips per stratum over Q and F_11")


def test_criterion_07_clebsch_suite():
    F11 = PrimeField(11)
    for field in (QQ, F11):
        rng = random.Random(7 if field is QQ else 11)
        for _ in range(200):
            qs = [BinaryForm(field, 2, [rng.randint(-9, 9)
                                        for _ in range(3)])
                  for _ in range(3)]
            data = clebsch_data(*qs)
            q1s, q2s, q3s = data["qstar"]
            A, R = data["A"], data["R"]
            assert (qs[0] * q1s + qs[1] * q2s + qs[2] * q3s).is_zero()
            detA = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
                    - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
                    + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
            assert detA + detA == R * R
            fq = BinaryForm(field, 2, [rng.randint(-9, 9) for _ in range(3)])
            s1 = (qs[0].scale(transvect(fq, q1s, 2).coeffs[0])
                  + qs[1].scale(transvect(fq, q2s, 2).coeffs[0])
                  + qs[2].scale(transvect(fq, q3s, 2).coeffs[0]))
            assert s1.scale(2) == fq.scale(R)
            s2 = (q1s.scale(transvect(fq, qs[0], 2).coeffs[0])
                  + q2s.scale(transvect(fq, qs[1], 2).coeffs[0])
                  + q3s.scale(transvect(fq, qs[2], 2).coeffs[0]))
            assert s2.scale(2) == fq.scale(R)
            acc = None
            star = (q1s, q2s, q3s)
            for i in range(3):
                for j in range(3):
                    term = (star[i] * star[j]).scale(A[i][j])
                    acc = term if acc is None else acc + term
            assert acc.is_zero()
    report(7, "Clebsch identities on 200 random triples over Q and F_11")


@pytest.mark.slow
def test_criterion_08_generic_roundtrip():
    F11 = PrimeField(11)
    rng = random.Random(88)
    done = 0
    while done < 100:
        f = random_octic(rng, F11, 10)
        if not disc_resultant(f):
            continue
        t = shioda(f)
        octic = reconstruct_generic(F11, t)
        assert wps_equal(WeightedPoint(F11, SHIODA_WEIGHTS, shioda(octic)),
                         WeightedPoint(F11, SHIODA_WEIGHTS, t))
        done += 1
    done = 0
    while done < 25:
        f = random_octic(rng, QQ, 4)
        if not disc_resultant(f):
            continue
        t = shioda(f)
        cache = {}
        q1 = covariant_eval("C5_2", f, cache)
        q2 = covariant_eval("C6_2", f, cache)
        q3 = covariant_eval("C7_2", f, cache)
        data = clebsch_data(q1, q2, q3)
        if not data["R"]:
            continue
        hint = tuple(q.evaluate(Fraction(1), Fraction(2))
                     for q in data["qstar"])
        if not any(hint):
            continue
        octic = reconstruct_generic(QQ, t, conic_point_hint=hint)
        assert wps_equal(WeightedPoint(QQ, SHIODA_WEIGHTS, shioda(octic)),
                         WeightedPoint(QQ, SHIODA_WEIGHTS, t))
        done += 1
    report(8, "generic reconstruction round-trips: 100/F_11 and 25/Q")


def test_criterion_09_printed_r_match():
    from octicmoduli import store
    from octicmoduli.jpoly import JPolynomial, monomial_basis
    ref = store.read_data_polys("printed_r_c52_c62_c72.jpoly")[0][1]
    mine = conic_quartic_models(("C5_2", "C6_2", "C7_2")).r_poly
    syz = derive_syzygies()
    g = JPolynomial.generator
    r1 = (g(8) * g(8) + syz["A6"] * g(10) + syz["A7"] * g(9)
          + syz["A8"] * g(8) + syz["A16"])
    r3 = (g(8) * g(10) + syz["C0"] * g(9) * g(9) + syz["C8"] * g(10)
          + syz["C9"] * g(9) + syz["C10"] * g(8) + syz["C18"])
    span = [g(2) * r1, r3]
    basis = monomial_basis(18)
    idx = {ev: i for i, ev in enumerate(basis)}
    A = [[Fraction(0)] * 3 for _ in range(len(basis))]
    b = [Fraction(0)] * len(basis)
    for col, poly in enumerate([mine] + span):
        for ev, c in poly.terms.items():
            A[idx[ev]][col] = c
    for ev, c in ref.terms.items():
        b[idx[ev]] = c
    from test_reconstruct import _solve_exact
    sol = _solve_exact(A, b)
    assert sol is not None and sol[0] != 0
    rebuilt = mine.scale(sol[0]) + span[0].scale(sol[1]) \
        + span[1].scale(sol[2])
    assert rebuilt == ref
    report(9, "derived R matches the reference up to one constant "
              "modulo the weight-18 relations")


def test_criterion_10_discriminant_consistency():
    rng = random.Random(1010)
    kappa = None
    checked = 0
    while checked < 100:
        f = random_octic(rng)
        lhs = discriminant_J(QQ, shioda(f))
        rhs = disc_resultant(f)
        if not rhs:
            assert lhs == 0
            continue
        if kappa is None:
            kappa = lhs / rhs
        assert lhs == kappa * rhs
        checked += 1
    # constructed multiple-root octics
    built = 0
    while built < 20:
        a = rng.randint(-6, 6)
        rest = [rng.randint(-5, 5) for _ in range(7)]
        if not any(rest):
            continue
        sq = [a * a, -2 * a, 1]          # (x - a)^2
        coeffs = [0] * 9
        for i, ci in enumerate(sq):
            for j, cj in enumerate(rest):
                coeffs[i + j] += ci * cj
        f = BinaryForm(QQ, 8, coeffs)
        if f.is_zero():
            continue
        assert disc_resultant(f) == 0
        assert discriminant_J(QQ, shioda(f)) == 0
        built += 1
    report(10, "discriminant in J-coordinates: kappa-consistency and "
               "vanishing on multiple roots")


def test_criterion_11_d4_appendix_system():
    F11 = PrimeField(11)
    systems = stratum_systems()["D4"]
    assert len(systems) == 24
    for field, seed in ((QQ, 111), (F11, 112)):
        rng = random.Random(seed)
        for _ in range(100):
            f = smooth_normal_model("D4", field, rng)
            jv = shioda(f)
            assert all(not eq.evaluate(field, jv) for eq in systems)
    rng = random.Random(113)
    for _ in range(100):
        f = random_octic(rng)
        jv = shioda(f)
        assert any(eq.evaluate(QQ, jv) for eq in systems)
    report(11, "24-polynomial Klein-four system: 100 models satisfy, "
               "100 generic octics violate")


def test_every_exported_name_resolves():
    import octicmoduli
    for name in octicmoduli.__all__:
        assert getattr(octicmoduli, name) is not None, name
