import hashlib
import random
import zlib
from fractions import Fraction

import pytest

from octicmoduli.covariants import has_invariants, random_octic, shioda
from octicmoduli.reconstruct import reconstruct_generic
from octicmoduli.errors import (
    ExhaustedCandidates, SingularLocus, WeightMismatch,
)
from octicmoduli.fields import ExtField, PrimeField, QQ
from octicmoduli import strata
from octicmoduli.forms import BinaryForm, disc_resultant
from octicmoduli.jpoly import JPolynomial, PolySet
from octicmoduli.strata import (
    ALL_STRATA, STRATA_ORDER, c4_determinants, detect_group,
    reconstruct_stratum, stratum_residuals, stratum_systems,
)
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_equal

from conftest import lifted_jtuple, smooth_normal_model


def roundtrip_ok(field, jtuple, stratum):
    model = reconstruct_stratum(stratum, field, jtuple)
    wf = model.field
    jm = shioda(model)
    lj = lifted_jtuple(wf, jtuple) if wf is not field else list(jtuple)
    return wps_equal(WeightedPoint(wf, SHIODA_WEIGHTS, jm),
                     WeightedPoint(wf, SHIODA_WEIGHTS, lj))


def test_stratum_residual_examples(F11):
    f = BinaryForm(QQ, 8, [1, 0, 0, 0, 14, 0, 0, 0, 1])
    res = stratum_residuals(QQ, shioda(f))
    assert all(v == 0 for v in res["C2xS4"])

    v8 = BinaryForm(QQ, 8, [-1, 0, 0, 0, 0, 0, 0, 0, 1])
    jv = shioda(v8)
    assert all(v == 0 for v in res_for(jv, "V8"))
    assert jv[2] * 6 == jv[0] ** 2
    assert jv[4] * 36 == -jv[0] ** 3
    assert jv[6] * 420 == -jv[0] ** 4
    assert jv[8] * 2520 == jv[0] ** 5

    rng = random.Random(12)
    for _ in range(4):
        f = random_octic(rng)
        res = stratum_residuals(QQ, shioda(f))
        for name, vec in res.items():
            assert any(v != 0 for v in vec), name


def res_for(jtuple, name):
    return stratum_residuals(QQ, jtuple)[name]


def test_detect_group_examples():
    u6 = BinaryForm(QQ, 8, [0, -1, 0, 0, 0, 0, 0, 1, 0])   # x^7 - x
    assert detect_group(QQ, shioda(u6)) == "U6"
    c14 = BinaryForm(QQ, 8, [-1, 0, 0, 0, 0, 0, 0, 1, 0])  # x^7 - 1
    assert detect_group(QQ, shioda(c14)) == "C14"
    # parametrized family member with dihedral symmetry of order 12
    d12 = BinaryForm(QQ, 8, [0, Fraction(-48) - Fraction(8, 81), 0, 0,
                             Fraction(-7, 9), 0, 0, 1, 0])
    assert detect_group(QQ, shioda(d12)) == "D12"


def test_detect_group_tests_every_equation_of_a_system(monkeypatch):
    """With C4's system made J2 = J3 = J4 = 0 and every other one J10 = 0,
    a tuple with J10 = 1 is C4 only when all three vanish: on residues
    over F_11 and on field elements over Q and F_{11^2}."""
    gen = JPolynomial.generator
    polys, spans = [], {}
    for name in STRATA_ORDER:
        eqs = [gen(2), gen(3), gen(4)] if name == "C4" else [gen(10)]
        spans[name] = (len(polys), len(polys) + len(eqs))
        polys += eqs
    monkeypatch.setattr(strata, "_strata_set",
                        lambda: (PolySet(polys), spans))
    for field in (PrimeField(11), QQ, ExtField(11, 2)):
        for head, label in (((0, 0, 0), "C4"), ((5, 0, 0), "C2"),
                            ((0, 5, 0), "C2"), ((0, 0, 5), "C2"),
                            ((0, 0, 11), "C4" if field.characteristic
                             else "C2")):
            assert detect_group(field, head + (1,) * 6) == label


@pytest.mark.parametrize("coords", [[0] * 9, [1, 2], list(range(1, 11))],
                         ids=["zero", "two-coordinates", "ten-coordinates"])
def test_library_refuses_a_tuple_that_is_not_a_point(coords, F11):
    """The zero tuple and tuples of the wrong arity are refused, as the
    CLI refuses them, not classified, given a model or compared."""
    with pytest.raises(WeightMismatch):
        detect_group(F11, coords)
    for stratum in ("C2", "C2xS4"):
        with pytest.raises(WeightMismatch):
            reconstruct_stratum(stratum, F11, coords)
    for field in (F11, QQ):
        with pytest.raises(WeightMismatch):
            reconstruct_generic(field, coords)
        with pytest.raises(WeightMismatch):
            has_invariants(BinaryForm(field, 8, [1, 0, 0, 0, 14, 0, 0, 0, 1]),
                           coords)


def test_stratum_lattice_consistency():
    """Invariants of dimension-0 strata satisfy every ancestor system."""
    ancestors = {
        "C14": [],
        "U6": ["C2xC4", "D12", "C4", "D4"],
        "V8": ["C2xC4", "C2xD8", "C4", "D4"],
        "C2xS4": ["D12", "C2xD8", "C2p3", "D4"],
    }
    models = {
        "C14": [-1, 0, 0, 0, 0, 0, 0, 1, 0],
        "U6": [0, -1, 0, 0, 0, 0, 0, 1, 0],
        "V8": [-1, 0, 0, 0, 0, 0, 0, 0, 1],
        "C2xS4": [1, 0, 0, 0, 14, 0, 0, 0, 1],
    }
    for name, coeffs in models.items():
        jv = shioda(BinaryForm(QQ, 8, coeffs))
        res = stratum_residuals(QQ, jv)
        for up in ancestors[name]:
            assert all(v == 0 for v in res[up]), (name, up)


def test_scale_equivariance(F11):
    rng = random.Random(13)
    systems = stratum_systems()
    for _ in range(6):
        stratum = rng.choice(ALL_STRATA[:-1])
        f = smooth_normal_model(stratum, F11, rng)
        jv = list(shioda(f))
        lam = F11(rng.randrange(1, 11))
        scaled = [v * lam ** w for v, w in zip(jv, SHIODA_WEIGHTS)]
        for name in STRATA_ORDER:
            holds1 = all(not eq.evaluate(F11, jv) for eq in systems[name])
            holds2 = all(not eq.evaluate(F11, scaled)
                         for eq in systems[name])
            assert holds1 == holds2


@pytest.mark.parametrize("stratum", ALL_STRATA)
def test_roundtrip_per_stratum_f11(stratum, F11):
    seed = zlib.crc32(("%s:F11" % stratum).encode())
    print("seed", seed)
    rng = random.Random(seed)
    hits = 0
    attempts = 0
    while hits < 8 and attempts < 40:
        attempts += 1
        f = smooth_normal_model(stratum, F11, rng)
        jv = shioda(f)
        det = detect_group(F11, jv)
        if det != stratum:
            # degenerate parameters land in a larger group; it must sit
            # above in the lattice, i.e. be detected earlier
            assert ALL_STRATA.index(det) < ALL_STRATA.index(stratum)
            continue
        assert roundtrip_ok(F11, jv, det)
        hits += 1
    assert hits >= 3


@pytest.mark.parametrize("stratum", ALL_STRATA)
def test_roundtrip_per_stratum_q(stratum):
    seed = zlib.crc32(("%s:Q" % stratum).encode())
    print("seed", seed)
    rng = random.Random(seed)
    for _ in range(4):
        f = smooth_normal_model(stratum, QQ, rng, bound=5)
        jv = shioda(f)
        det = detect_group(QQ, jv)
        if det != stratum:
            assert ALL_STRATA.index(det) < ALL_STRATA.index(stratum)
            continue
        assert roundtrip_ok(QQ, jv, det)


def test_d4_nineteen_determinants():
    """All 19 determinants vanish exactly on Klein-four models; random
    octics keep at least one alive."""
    from octicmoduli.reconstruct import TRIPLES_19, r_polynomial
    rng = random.Random(14)
    for _ in range(10):
        f = smooth_normal_model("D4", QQ, rng)
        jv = shioda(f)
        for triple in TRIPLES_19:
            assert r_polynomial(triple).evaluate(QQ, jv) == 0
    for _ in range(10):
        f = random_octic(rng)
        jv = shioda(f)
        assert any(r_polynomial(t).evaluate(QQ, jv) != 0
                   for t in TRIPLES_19)


def test_c4_determinants_guarantee():
    rng = random.Random(15)
    hits = 0
    for _ in range(12):
        f = smooth_normal_model("C4", QQ, rng)
        jv = shioda(f)
        if detect_group(QQ, jv) != "C4":
            continue
        dets = c4_determinants(QQ, jv)
        assert any(v != 0 for v in dets)
        hits += 1
    assert hits >= 5


def test_c4_degenerate_table_row():
    # x (x^2 - 1)(x^4 + a x^2 + 1): the unit-constant row has a larger
    # automorphism group containing C2 x C4
    from conftest import octic_from_univariate, polymul
    rng = random.Random(16)
    for a in (2, 3, 5):
        f = octic_from_univariate(
            QQ, polymul(polymul([0, 1], [-1, 0, 1]), [1, 0, a, 0, 1]))
        if not disc_resultant(f):
            continue
        jv = shioda(f)
        det = detect_group(QQ, jv)
        assert det != "C4"
        assert all(v == 0 for v in stratum_residuals(QQ, jv)["C2xC4"])


def test_c4_mod47_exceptional_point():
    """At one special class in characteristic 47 exactly one of the five
    covering determinants survives."""
    F47 = PrimeField(47)
    t = [F47(v) for v in (1, 0, 1, 0, 3, 0, 43, 0, 18)]
    from octicmoduli.reconstruct import TRIPLES_C4, r_polynomial
    vals = [r_polynomial(tr).evaluate(F47, t) for tr in TRIPLES_C4]
    nonzero = [i for i, v in enumerate(vals) if v]
    assert nonzero == [1]       # only the primed degree-7 triple
    assert detect_group(F47, t) == "C4"


def test_c2xc4_singular_locus():
    # 147 j4 = 2 j2^2 and 3087 j6 = 2 j2^3 admits no smooth curve
    from conftest import octic_from_univariate, polymul
    f = octic_from_univariate(
        QQ, polymul(polymul(polymul([0, 1], [-1, 1]), [1, 1]),
                    polymul([1, 0, 1], [1, 0, 1])))
    assert disc_resultant(f) == 0
    jv = shioda(f)
    assert jv[2] * 147 == jv[0] ** 2 * 2
    assert jv[4] * 3087 == jv[0] ** 3 * 2
    with pytest.raises(SingularLocus):
        reconstruct_stratum("C2xC4", QQ, jv)


def test_d4_appendix_count_and_degrees():
    systems = stratum_systems()
    degs = sorted(eq.degree for eq in systems["D4"])
    assert len(degs) == 24
    assert degs[0] == 16 and degs[-1] == 24


def test_d4_returns_only_a_verified_model(F11, monkeypatch):
    """A singular D4 class whose even-model candidate has other
    invariants: the singular fallback is returned because its invariants
    are the class's; when no model checks out, none is returned."""
    jt = [F11(v) for v in (0, 7, 7, 6, 2, 2, 2, 8, 7)]
    assert detect_group(F11, jt) == "D4"
    assert roundtrip_ok(F11, jt, "D4")
    monkeypatch.setattr(strata, "has_invariants", lambda model, jt: False)
    with pytest.raises(ExhaustedCandidates):
        reconstruct_stratum("D4", F11, jt)


@pytest.mark.parametrize("row, singular", [
    ((0, 5, 5, 7, 8, 2, 8, 7, 9), False),
    ((0, 7, 7, 6, 2, 2, 2, 8, 7), True),
])
def test_d4_checks_one_even_candidate(F11, monkeypatch, row, singular):
    """x -> 1/x and x -> ix take the even model's other choices of a2 and
    a6 to the first, so _reconstruct_d4 checks one candidate: the model
    of a nonsingular class (here one split over F_{11^4}); a singular
    class goes to the fallback after that one check."""
    calls, at_fallback = [], []
    check, fallback = strata.has_invariants, strata._reconstruct_d4_singular

    def counted(model, jt):
        calls.append(model)
        return check(model, jt)

    def recorded(*args):
        at_fallback.append(len(calls))
        return fallback(*args)

    monkeypatch.setattr(strata, "has_invariants", counted)
    monkeypatch.setattr(strata, "_reconstruct_d4_singular", recorded)
    jt = [F11(v) for v in row]
    assert detect_group(F11, jt) == "D4"
    model = reconstruct_stratum("D4", F11, jt)
    assert at_fallback == ([1] if singular else [])
    assert len(calls) == 1 + singular
    assert (model.field == F11) is singular


def _closed_form_digests(p):
    """(rows, sha256 prefix) of the "repr(field);coefficients" lines (or
    the error's class name) of reconstruct_stratum on every C2p3 and D4
    row of moduli_rows(F_p, filter_singular=False), per stratum."""
    from octicmoduli.census_fast import (
        classify_rows, moduli_rows, strata_labels,
    )
    F = PrimeField(p)
    rows = moduli_rows(F, filter_singular=False)
    labels = classify_rows(F, rows)
    out = {}
    for name in ("C2p3", "D4"):
        digest, n = hashlib.sha256(), 0
        for row in rows[labels == strata_labels().index(name)]:
            try:
                m = reconstruct_stratum(name, F, [F(int(v)) for v in row])
                line = "%r;%s\n" % (m.field, ",".join(repr(c)
                                                      for c in m.coeffs))
            except (SingularLocus, ExhaustedCandidates) as exc:
                line = "%s\n" % type(exc).__name__
            digest.update(line.encode())
            n += 1
        out[name] = (n, digest.hexdigest()[:12])
    return out


@pytest.mark.slow
def test_closed_form_models_pin_p11():
    """The closed-form C2p3 and D4 models over F_11 and its extensions,
    singular rows included: this pins the cubic's roots, every square
    root and each embedding between the working fields."""
    assert _closed_form_digests(11) == {"C2p3": (120, "81fd506a703e"),
                                        "D4": (1312, "0b0854baa279")}


@pytest.mark.slow
def test_closed_form_models_pin_p13():
    """test_closed_form_models_pin_p11 over F_13."""
    assert _closed_form_digests(13) == {"C2p3": (168, "88686f01869b"),
                                        "D4": (2174, "957c1504a129")}


@pytest.mark.parametrize("field", [PrimeField(11), QQ], ids=["F11", "Q"])
@pytest.mark.parametrize("stratum, form, larger", [
    ("C2xD8", [1, 0, 0, 0, 14, 0, 0, 0, 1], "C2xS4"),
    ("D12", [1, 0, 0, 0, 14, 0, 0, 0, 1], "C2xS4"),
    ("C2xC4", [-1, 0, 0, 0, 0, 0, 0, 0, 1], "V8"),
    ("C2xC4", [0, -1, 0, 0, 0, 0, 0, 1, 0], "U6"),
    ("C2p3", [3, 0, 0, 0, 5, 0, 0, 0, 1], "C2xD8"),
])
def test_degenerate_guards_redispatch_to_the_larger_stratum(field, stratum,
                                                            form, larger):
    """At a point of a larger stratum the closed form's guard vanishes and
    reconstruct_stratum returns exactly the larger stratum's model."""
    t = shioda(BinaryForm(field, 8, form))
    assert detect_group(field, t) == larger
    assert (reconstruct_stratum(stratum, field, t)
            == reconstruct_stratum(larger, field, t))
