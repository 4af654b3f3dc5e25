import hashlib
import random
import zlib
from math import lcm

import pytest

from octicmoduli import census, census_fast
from octicmoduli.census import (
    CensusReport, _read_checkpoint, class_model, descend, expected_counts,
    find_isomorphism, run_census,
)
from octicmoduli.covariants import (
    has_invariants, is_isomorphic, random_octic, shioda,
)
from octicmoduli.errors import (
    CompositeModulus, CountMismatch, ExhaustedCandidates, MultipleRoot,
    NotRationalClass, Unresolved, WeightMismatch,
)
from octicmoduli.fields import ExtField, PrimeField, QQ, field_make
from octicmoduli.forms import BinaryForm, Gl2Matrix, disc_resultant, gl2_act
from octicmoduli.strata import detect_group
from octicmoduli.unipoly import degree, factor
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_equal

from conftest import smooth_normal_model


def _random_smooth(field, rng, bound=10):
    while True:
        f = random_octic(rng, field, bound)
        if disc_resultant(f):
            return f


def test_find_isomorphism_roundtrip(F11):
    rng = random.Random(30)
    f = _random_smooth(F11, rng)
    m0 = Gl2Matrix(F11, 2, 3, 1, 5)
    g = gl2_act(m0, f)
    got = find_isomorphism(f, g)
    assert got is not None
    mat, e = got
    big = mat.field
    emb = (lambda a: big(a.value)) if not isinstance(F11, ExtField) else None
    fb = f.to_field(big, lambda a: big(a.value))
    gb = g.to_field(big, lambda a: big(a.value))
    assert gl2_act(mat, fb) == gb.scale(e)


def test_find_isomorphism_identity_and_negative(F11):
    rng = random.Random(31)
    f = _random_smooth(F11, rng)
    got = find_isomorphism(f, f)
    assert got is not None
    g = _random_smooth(F11, rng)
    if not is_isomorphic(f, g):
        assert find_isomorphism(f, g) is None
    sing = BinaryForm(F11, 8, [0, 0, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(MultipleRoot):
        find_isomorphism(sing, f)


def _split_degree(f):
    d = max(i for i, c in enumerate(f.coeffs) if c)
    return lcm(1, *(degree(g) for g, _ in
                    factor(f.field, list(f.coeffs[:d + 1]))))


def test_find_isomorphism_pin(F11):
    """(M, e) of find_isomorphism(f, gl2_act(M0, f)) for crc32-seeded
    smooth C2 octics f whose splitting fields have degree 4, 7, 8, 12 and
    15 over F_11, and seeded invertible M0: this pins the root order and
    the order of root matching over those fields."""
    rng = random.Random(zlib.crc32(b"find_isomorphism pin"))
    want = [4, 7, 8, 12, 15]
    pairs = {}
    while len(pairs) < len(want):
        f = random_octic(rng, F11, 10)
        if not disc_resultant(f):
            continue
        k = _split_degree(f)
        if k not in want or k in pairs or \
                detect_group(F11, shioda(f)) != "C2":
            continue
        while True:
            m0 = Gl2Matrix(F11, *[rng.randrange(11) for _ in range(4)])
            if m0.det():
                break
        pairs[k] = (f, m0)
    digest = hashlib.sha256()
    for k in want:
        f, m0 = pairs[k]
        mat, e = find_isomorphism(f, gl2_act(m0, f))
        assert mat.field.k == k
        digest.update(("%r %r %r %r; %r\n" % (
            mat.a, mat.b, mat.c, mat.d, e)).encode())
    assert digest.hexdigest()[:12] == "171b4fc7fca5"


def test_find_isomorphism_over_q_is_unresolved():
    """Root matching needs a splitting field, which is built over finite
    fields only: over Q the search is refused, not a TypeError."""
    f = _random_smooth(QQ, random.Random(8))
    with pytest.raises(Unresolved, match="finite fields only"):
        find_isomorphism(f, f)


def test_descend_identity(F11):
    rng = random.Random(32)
    f = _random_smooth(F11, rng)
    assert descend(f, F11) is f


@pytest.mark.parametrize("spec", ["Fp:11", "Fpk:11:2"])
def test_descend_refuses_the_zero_form(spec):
    """The zero form has no invariant class, over F_11 as over F_{11^2}."""
    field = field_make(spec)
    with pytest.raises(WeightMismatch):
        descend(BinaryForm(field, 8, [0] * 9), PrimeField(11))


@pytest.mark.parametrize("coeffs, squarefree", [
    # 1 + x + t x^8, t the generator of F_{11^2}
    ([1, 1, 0, 0, 0, 0, 0, 0, (0, 1)], True),
    # x^2 ((1 + t) + x + x^6): a double root at x = 0
    ([0, 0, (1, 1), 1, 0, 0, 0, 0, 1], False),
])
def test_descend_refuses_a_class_that_is_not_rational(coeffs, squarefree):
    """An octic over F_{11^2} whose invariant class is not rational is
    refused, also when it has a double root: NotRationalClass comes
    before MultipleRoot."""
    E = field_make("Fpk:11:2")
    f = BinaryForm(E, 8, [E(c) for c in coeffs])
    assert bool(disc_resultant(f)) is squarefree
    with pytest.raises(NotRationalClass):
        descend(f, PrimeField(11))


def test_descend_twisted_form(F11):
    rng = random.Random(33)
    f = _random_smooth(F11, rng)
    E = ExtField(11, 2)
    femb = f.to_field(E, lambda a: E(a.value))
    t = E.gen()
    h = gl2_act(Gl2Matrix(E, t, E(3), E(1), t ** 7), femb)
    out = descend(h, F11)
    assert out.field == F11
    assert is_isomorphic(out, f)
    # over F_{11^2} the descended model is GL2-equivalent to the twist
    assert find_isomorphism(out.to_field(E, lambda a: E(a.value)), h)
    assert [c.value for c in out.coeffs] == \
        [c.value for c in descend(h, F11).coeffs]


@pytest.mark.parametrize("stratum", ["C2p3", "D4"])
def test_class_model_descends_extension_strata(stratum, F11):
    """Closed-form models on extension fields descend to F_11 models with
    the same invariant class."""
    rng = random.Random(34 + len(stratum))
    done = 0
    tries = 0
    while done < 3 and tries < 30:
        tries += 1
        f = smooth_normal_model(stratum, F11, rng)
        jt = shioda(f)
        if detect_group(F11, jt) != stratum:
            continue
        model, extdeg = class_model(F11, jt, stratum)
        assert model.field == F11
        jv = shioda(model)
        assert wps_equal(WeightedPoint(F11, SHIODA_WEIGHTS, jv),
                         WeightedPoint(F11, SHIODA_WEIGHTS, jt))
        done += 1
    assert done >= 2


def test_class_model_descends_through_a_scalar_norm_power(F11):
    """A Klein-four class whose closed-form model splits over F_{11^4},
    where every Frobenius twisting matrix has a twisted norm that is a
    nontrivial automorphism of the model; its square is scalar, so the
    model descends from F_{11^8}."""
    jt = [F11(v) for v in (0, 5, 5, 7, 8, 2, 8, 7, 9)]
    model, extdeg = class_model(F11, jt)
    assert extdeg == 4 and model.field == F11
    assert disc_resultant(model) and has_invariants(model, jt)


def test_expected_counts_sum_to_p5():
    for p in (11, 13, 17, 47):
        assert sum(expected_counts(p).values()) == p ** 5


@pytest.mark.parametrize("stratum", ["D4", "C4"])
def test_run_census_flags_only_an_unproven_count(stratum, monkeypatch):
    """A stratum count off its closed form is flagged when the formula is
    unproven (D4) and refused with CountMismatch when it is proven (C4)."""
    want = expected_counts(11)
    want[stratum] += 1
    monkeypatch.setattr(census, "expected_counts", lambda p: want)
    msg = "stratum %s count %d != expected %d" % (
        stratum, want[stratum] - 1, want[stratum])
    if stratum in census.UNPROVEN:
        assert run_census(11).flags == [msg]
    else:
        with pytest.raises(CountMismatch, match=msg):
            run_census(11)


def test_run_census_refuses_a_total_off_p5(monkeypatch):
    """A census that lost one class is refused on its total, before any
    stratum count is compared."""
    rows = census_fast.moduli_rows
    monkeypatch.setattr(census_fast, "moduli_rows",
                        lambda *args, **kw: rows(*args, **kw)[1:])
    with pytest.raises(CountMismatch, match="census total 161050 != 161051"):
        run_census(11)


def test_descend_refuses_when_every_candidate_fails(F11, monkeypatch):
    """ExhaustedCandidates when averaging through the cocycle gives no
    model for any twisting matrix."""
    rng = random.Random(33)
    E = ExtField(11, 2)
    f = _random_smooth(F11, rng).to_field(E, lambda a: E(a.value))
    h = gl2_act(Gl2Matrix(E, E.gen(), E(3), E(1), E.gen() ** 7), f)
    tried = []

    def fail(*args):
        tried.append(args)

    monkeypatch.setattr(census, "_average_descent", fail)
    with pytest.raises(ExhaustedCandidates, match="every candidate"):
        descend(h, F11)
    assert tried


def test_run_census_rejects_composite():
    with pytest.raises(CompositeModulus):
        run_census(10)


@pytest.mark.parametrize("limit", [0, -3])
def test_run_census_refuses_a_model_limit_below_one(limit):
    """Refused before the enumeration starts: 0 used to divide by zero,
    -3 to drop the last three classes and model all the others."""
    with pytest.raises(ValueError, match="below 1"):
        run_census(11, want_models=True, model_limit=limit)


def test_report_lines_hold_no_timing():
    report = CensusReport(11, expected_counts(11), 11 ** 5, [], 12.345)
    lines = report.lines()
    assert lines[0] == "p=11 total=161051"
    assert not any("elapsed" in line or "12.3" in line for line in lines)


def test_read_checkpoint_skips_a_torn_last_line(tmp_path):
    path = tmp_path / "report.txt"
    whole = "1,0,0,0,0,0,8,2,7; C2; 8,4,2,3,8,9,9,7,2; ext-degree 2\n"
    for torn in ("0,1,0,0,0,0,0,0,0; C2; 1,2,3,4,5,6,7,8,9; ext-deg",
                 "0,1,0,0,0,0,0,0,0; C2; 1,2,3,4,5,6,7,8,9; ext-degree ",
                 "0,1,0,0,0,0,0,0,0; C2; 1,2,3,4,5,6,7,8,9; "):
        path.write_text(whole + torn)
        assert _read_checkpoint(str(path)) == {
            "1,0,0,0,0,0,8,2,7": ("1,0,0,0,0,0,8,2,7", "C2",
                                  "8,4,2,3,8,9,9,7,2", 2)}


def test_run_census_models_from_a_pool_equal_the_serial_ones():
    """jobs = 2 builds the models in a process pool; they come back equal
    to the serial run's and in the same order."""
    serial = run_census(11, want_models=True, model_limit=6)
    pooled = run_census(11, want_models=True, model_limit=6, jobs=2)
    assert len(serial.models) == 6
    assert pooled.models == serial.models


@pytest.mark.slow
def test_run_census_p11_with_sampled_models():
    report = run_census(11, want_models=True, model_limit=24)
    assert report.total == 11 ** 5
    assert report.counts == expected_counts(11)
    assert not report.flags
    assert len(report.models) == 24
    field = PrimeField(11)
    for row, stratum, coeffs, extdeg in report.models:
        jt = [field(int(v)) for v in row.split(",")]
        model = BinaryForm(field, 8, [int(c) for c in coeffs.split(",")])
        assert wps_equal(
            WeightedPoint(field, SHIODA_WEIGHTS, shioda(model)),
            WeightedPoint(field, SHIODA_WEIGHTS, jt))
        assert detect_group(field, jt) == stratum
        assert 1 <= extdeg <= 8
