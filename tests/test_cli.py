import hashlib

import pytest

from octicmoduli.cli import dispatch
from octicmoduli.forms import BinaryForm


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shioda_verb(capsys):
    code, out, _ = run_cli(capsys, "shioda", "--field", "Fp:11",
                           "--form", "8,4,2,3,8,9,9,7,2")
    assert code == 0
    assert out.strip() == "4,0,0,0,0,0,2,10,7"


def test_wps_enum_f7(capsys):
    code, out, _ = run_cli(capsys, "wps-enum", "--field", "Fp:7",
                           "--weights", "5,7")
    assert code == 0
    assert sorted(out.split()) == sorted(
        ["1,0", "0,1", "1,1", "1,6", "2,1", "2,6", "4,1", "4,6"])


def test_wps_enum_over_an_extension_of_small_characteristic(capsys):
    """wps-enum admits F_{7^2} as it admits F_7: P(1, 2) has q + 1 = 50
    points over F_49.  The covariant verbs still refuse it."""
    code, out, _ = run_cli(capsys, "wps-enum", "--field", "Fpk:7:2",
                           "--weights", "1,2")
    assert code == 0 and len(set(out.split())) == len(out.split()) == 50
    code, _, err = run_cli(capsys, "shioda", "--field", "Fpk:7:2",
                           "--form", "1,0,0,0,0,0,0,0,1")
    assert code == 12 and "SmallCharacteristic" in err


def test_extension_element_with_too_many_coordinates(capsys):
    """1.2.3 has three coordinates, F_{11^2} elements two."""
    code, out, err = run_cli(capsys, "shioda", "--field", "Fpk:11:2",
                             "--form", "1.2.3,0,0,0,0,0,0,0,1")
    assert code == 2 and err.startswith("usage error: 3 coordinates")
    assert out == ""


def test_wps_eq_verb(capsys):
    code, out, _ = run_cli(capsys, "wps-eq", "--field", "Fp:7",
                           "--weights", "5,7", "--tuple", "1,1",
                           "--tuple", "5,3")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "wps-eq", "--field", "Fp:7",
                           "--weights", "5,7", "--tuple", "1,1",
                           "--tuple", "2,6")
    assert code == 0 and out.strip() == "false"


def test_autgroup_verb(capsys):
    code, out, _ = run_cli(capsys, "autgroup", "--field", "Q",
                           "--form", "1,0,0,0,14,0,0,0,1")
    assert code == 0 and out.strip() == "C2xS4"
    code, out, _ = run_cli(capsys, "autgroup", "--field", "Fp:11",
                           "--tuple", "1,0,0,0,0,0,8,2,7")
    assert code == 0 and out.strip() == "C2"


def test_disc_verbs(capsys):
    code, out, _ = run_cli(capsys, "disc", "--field", "Q",
                           "--form=-125,0,0,0,0,8,0,0,0")
    assert code == 0 and out.strip() == "0/1"
    code, out, _ = run_cli(capsys, "disc", "--field", "Fp:11",
                           "--tuple", "0,0,0,1,0,0,0,0,0")
    assert code == 0 and out.strip() == "0"


def test_isiso_verb(capsys):
    code, out, _ = run_cli(capsys, "isiso", "--field", "Fp:11",
                           "--form", "8,4,2,3,8,9,9,7,2",
                           "--form", "8,4,2,3,8,9,9,7,2")
    assert code == 0 and out.strip() == "true"


def test_reconstruct_verb(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--field", "Fp:11",
                           "--tuple", "1,0,0,0,0,0,8,2,7")
    assert code == 0
    coeffs = [int(c) for c in out.strip().split(",")]
    assert len(coeffs) == 9 and any(coeffs)


#: the worked example of the paper, by the conic of its first triple
WORKED = ("reconstruct", "--field", "Fp:11", "--tuple", "1,0,0,0,0,0,8,2,7",
          "--triple-order", "C5_2,C6_2,C7_2")


def test_reconstruct_through_a_supplied_conic_point(capsys):
    code, out, err = run_cli(capsys, *WORKED, "--point", "1,0,1")
    assert code == 0 and out == "8,4,2,3,8,9,9,7,2\n" and err == ""


@pytest.mark.parametrize("point", ["1,0", "0,0,0", "1,0,1,5"])
def test_reconstruct_refuses_a_point_that_is_no_point_of_the_plane(capsys,
                                                                   point):
    """Two coordinates, the zero vector and four coordinates."""
    code, out, err = run_cli(capsys, *WORKED, "--point", point)
    assert code == 28 and "PointNotOnConic" in err and out == ""


@pytest.mark.parametrize("point", ["1,1,1", "0,1,0"])
def test_reconstruct_refuses_a_point_off_the_conic(capsys, point):
    """Three coordinates, not all zero, off the worked example's conic."""
    code, out, err = run_cli(capsys, *WORKED, "--point", point)
    assert code == 28 and out == ""
    assert "PointNotOnConic" in err and "not on the conic" in err


def test_point_without_triple_order_is_a_usage_error(capsys):
    """Only the conic of a given triple order takes a supplied point."""
    code, out, err = run_cli(capsys, *WORKED[:5], "--point", "1,0,1")
    assert code == 2 and err == "usage error: --point needs --triple-order\n"
    assert out == ""


#: the two verbs that take a covariant triple, up to the triple
TRIPLE_ARGV = {"reconstruct": WORKED[:5] + ("--triple-order",),
               "derive-cache": ("derive-cache", "--triple")}


@pytest.mark.parametrize("verb, entry", [
    ("reconstruct", "C5_2,C6_2"),
    ("reconstruct", "C2_0,C6_2,C7_2"),
    ("reconstruct", "C5_2,C5_2,C7_2"),
    ("reconstruct", "C5_2,C6_2,C7_2;C5_2"),
    ("derive-cache", "C5_2,C6_2"),
    ("derive-cache", "C2_0,C6_2,C7_2"),
    ("derive-cache", "C5_2,C5_2,C7_2"),
])
def test_a_malformed_covariant_triple_is_a_usage_error(capsys, monkeypatch,
                                                       tmp_path, verb,
                                                       entry):
    """Two names, an invariant, a repeated name and a second entry of one
    name are refused before anything is derived or written."""
    from octicmoduli import store
    monkeypatch.setattr(store, "_override_dir", store._override_dir)
    code, out, err = run_cli(capsys, *TRIPLE_ARGV[verb], entry,
                             "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and err == (
        "usage error: %r is not three distinct covariants of order 2\n"
        % entry.split(";")[-1])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", sorted(TRIPLE_ARGV))
def test_an_unknown_covariant_keeps_its_error(capsys, monkeypatch, tmp_path,
                                              verb):
    from octicmoduli import store
    monkeypatch.setattr(store, "_override_dir", store._override_dir)
    code, out, err = run_cli(capsys, *TRIPLE_ARGV[verb], "C5_2,C6_2,C99_2",
                             "--cache-dir", str(tmp_path))
    assert code == 21 and "UnknownIdentifier" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "shioda", "--field", "Fp:10",
                           "--form", "1,0,0,0,0,0,0,0,1")
    assert code == 11 and "CompositeModulus" in err
    code, _, err = run_cli(capsys, "shioda", "--field", "Fp:7",
                           "--form", "1,0,0,0,0,0,0,0,1")
    assert code == 12 and "SmallCharacteristic" in err
    code, _, err = run_cli(capsys, "isiso", "--field", "Fp:11",
                           "--form", "1,0,0,0,0,0,0,0,1")
    assert code == 2


def test_express_verb(capsys):
    code, out, _ = run_cli(capsys, "express", "--invariant", "C4_0")
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("4; ")
    assert "1/30" in line and "-4/35" in line


def test_output_is_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "shioda", "--field", "Fp:11",
                               "--form", "8,4,2,3,8,9,9,7,2")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_census_model_lines_are_pinned(capsys):
    """census stdout with 12 model lines, byte for byte: the counts, and
    per class its invariants, stratum, F_11 model and extension degree."""
    code, out, _ = run_cli(capsys, "census", "--field", "Fp:11", "--models",
                           "--model-limit", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "69c31aa93694"


def test_census_counts_are_pinned(capsys):
    """census stdout with no models, byte for byte: the total and the
    count of every stratum over F_11."""
    code, out, _ = run_cli(capsys, "census", "--field", "Fp:11")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "954aeb9803c5"


def test_census_resumes_from_its_report(capsys, tmp_path):
    """A census rerun on a report that holds some of its model lines, not
    the first ones, and a torn last line prints the bytes of a fresh run
    (the pin above) and completes the report."""
    report = tmp_path / "report.txt"
    argv = ("census", "--field", "Fp:11", "--models", "--model-limit", "12",
            "--report", str(report))
    code, fresh, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(fresh.encode()).hexdigest()[:12] == "69c31aa93694"
    lines = report.read_text().splitlines(keepends=True)
    assert len(lines) == 12 and all(line in fresh for line in lines)
    report.write_text(lines[7] + lines[2] + lines[5][:30])
    code, resumed, _ = run_cli(capsys, *argv)
    assert code == 0 and resumed == fresh
    assert sorted(report.read_text().splitlines(keepends=True)) == \
        sorted(lines + [lines[5][:30] + "\n"])


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_census_refuses_a_model_limit_below_one(capsys, limit):
    code, out, err = run_cli(capsys, "census", "--field", "Fp:11",
                             "--models", "--model-limit", limit)
    assert code == 2 and err.startswith("usage error: model limit")
    assert out == ""


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_census_refuses_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "census", "--field", "Fp:11",
                             "--jobs", jobs)
    assert code == 2 and err == "usage error: jobs %s is below 1\n" % jobs
    assert out == ""


def test_descend_over_q_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "descend", "--field", "Q",
                             "--form", "1,0,0,0,0,0,0,0,1")
    assert code == 2 and err.startswith("usage error: descend runs over")
    assert out == ""


@pytest.mark.parametrize("spec", ["Fp:11", "Fpk:11:2"])
def test_descend_refuses_the_zero_form(capsys, spec):
    code, out, err = run_cli(capsys, "descend", "--field", spec,
                             "--form", "0,0,0,0,0,0,0,0,0")
    assert code == 26 and "WeightMismatch" in err and out == ""


@pytest.mark.parametrize("spec", ["Fp:11", "Fpk:11:2"])
@pytest.mark.parametrize("form, code, error", [
    ("1,0,0,0,0,0,0,0,0", 26, "WeightMismatch"),
    ("1,2,1,0,0,0,0,0,0", 26, "WeightMismatch"),
    ("0,0,1,0,0,0,0,0,1", 29, "MultipleRoot"),
])
def test_descend_refuses_alike_over_every_field(capsys, spec, form, code,
                                                error):
    """An eightfold or sixfold root leaves every invariant zero, and
    x^2 (x^6 + z^6) has a double root at 0: refused over F_11 as over
    F_{11^2}, where descent itself needs the simple roots."""
    got, out, err = run_cli(capsys, "descend", "--field", spec,
                            "--form", form)
    assert got == code and error in err and out == ""


def test_descend_refuses_an_even_octic_with_a_double_root(capsys,
                                                         monkeypatch):
    """(x^2 - 2)^2 (x^4 + 3 x^2 + 3) = x^8 - x^6 - 5 x^4 + 1 over F_11,
    moved by diag(z, 1) with z a primitive eighth root of unity: an even
    octic over F_{11^2} with c_0 = c_8, a rational invariant class and
    double roots.  Also an F_11 octic with c_7 = c_8 = 0, a double root at
    infinity that diag(z, 1) keeps.  disc_resultant on F_{11^2} refuses
    both, before any twisting matrix is sought or splitting field built."""
    from octicmoduli import census
    from octicmoduli.cli import _fmt
    from octicmoduli.fields import PrimeField, field_make
    from octicmoduli.forms import Gl2Matrix, gl2_act
    F, E = PrimeField(11), field_make("Fpk:11:2")
    z = next(z for z in census._eighth_roots(E) if z ** 4 != E.one)
    calls = []
    monkeypatch.setattr(census, "roots_in_splitting_field",
                        lambda h: calls.append(h))
    monkeypatch.setattr(census, "_normalizer_twists",
                        lambda h: calls.append(h))
    even, infinite = [
        gl2_act(Gl2Matrix(E, z, 0, 0, 1),
                BinaryForm(F, 8, c).to_field(E, lambda a: E(a.value)))
        for c in ([1, 0, 0, 0, -5, 0, -1, 0, 1], [1, 2, 0, 5, 1, 3, 1, 0, 0])]
    assert even.coeffs[0] == even.coeffs[8]
    assert infinite.coeffs[7] == infinite.coeffs[8] == E.zero
    for g in (even, infinite):
        assert any(c.coeffs[1] for c in g.coeffs)
        code, out, err = run_cli(capsys, "descend", "--field", "Fpk:11:2",
                                 "--form", ",".join(_fmt(c) for c in g.coeffs))
        assert code == 29 and "MultipleRoot" in err and out == ""
    assert not calls


def test_census_refuses_oversized_prime(capsys):
    """The census at p = 1000003 would need about 5e32 bytes; it is
    refused as a usage error before anything is allocated."""
    code, out, err = run_cli(capsys, "census", "--field", "Fp:1000003")
    assert code == 2
    assert err.startswith("usage error:") and "physical memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["wps-enum", "wps-eq"])
def test_wps_verbs_need_weights(capsys, verb):
    code, _, err = run_cli(capsys, verb, "--field", "Fp:11",
                           "--tuple", "1,1", "--tuple", "1,2")
    assert code == 2 and err.startswith("usage error:")
    assert "--weights" in err


@pytest.mark.parametrize("argv", [
    ("wps-enum", "--weights", "0,1"),
    ("wps-eq", "--weights=-2,3", "--tuple", "1,1", "--tuple", "1,1"),
    ("wps-eq", "--weights", "0,0", "--tuple", "1,1", "--tuple", "1,1"),
])
def test_wps_verbs_refuse_weights_that_are_not_positive(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--field", "Fp:7", *argv[1:])
    assert code == 26 and "WeightMismatch" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("shioda", "--field", "Q", "--form", "1/0,1"),
    ("disc", "--field", "Fp:11", "--form", "1/11,1"),
    ("reconstruct", "--field", "Fp:11", "--tuple", "1/11,0,0,0,0,0,0,0,1"),
    # the invariants of the octic 1,2,0,3,0,1,0,0,1: on the relations
    ("reconstruct", "--field", "Q", "--tuple", "53/28,-9/28,2626381/3687936,"
     "-62003/307328,-3496392647/17348050944,176243821/1445670912,"
     "-885176009623/26446139883520,-105866887249/3400217985024,"
     "686915715658559/124402642012078080",
     "--triple-order", "C5_2,C6_2,C7_2", "--point", "1/0,1,1"),
    WORKED + ("--point", "1/11,0,1"),
])
def test_coefficient_without_a_value_is_a_usage_error(capsys, argv):
    """A denominator that is 0, or divisible by p, names no element, in
    a form, a tuple or a conic point hint."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("usage error: coefficient 1/")
    assert out == ""


@pytest.mark.parametrize("verb", ["reconstruct", "disc", "autgroup"])
@pytest.mark.parametrize("tup", ["1,2", "1,0,0,0,0,0,8,2,7,0",
                                 "0,0,0,0,0,0,0,0,0"])
def test_tuple_verbs_refuse_a_non_point(capsys, verb, tup):
    """Two or ten coordinates, or the zero tuple, are not a point of the
    weighted projective space of J2..J10."""
    code, out, err = run_cli(capsys, verb, "--field", "Fp:11",
                             "--tuple", tup)
    assert code == 26 and "WeightMismatch" in err and out == ""


@pytest.mark.parametrize("form", ["0,0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0,0"])
def test_autgroup_refuses_a_form_with_zero_invariants(capsys, form):
    """The zero form and a form with an eightfold root have every
    invariant zero; the zero tuple is not a point, so no group is named."""
    code, out, err = run_cli(capsys, "autgroup", "--field", "Fp:11",
                             "--form", form)
    assert code == 26 and "WeightMismatch" in err and out == ""


@pytest.mark.parametrize("verb", ["reconstruct", "autgroup"])
def test_tuple_verbs_refuse_a_tuple_off_the_relations(capsys, verb):
    """The five relations take the values 8, 5, 10, 10, 4 here."""
    code, out, err = run_cli(capsys, verb, "--field", "Fp:11",
                             "--tuple", "1,2,3,4,5,6,7,8,9")
    assert code == 29 and "OffModuliVariety" in err and out == ""


def test_reconstruct_refuses_a_model_with_other_invariants(capsys,
                                                           monkeypatch):
    """A singular D4 class on all five relations: its model is the
    verified singular fallback and autgroup labels it.  A model with
    other invariants, here substituted for the closed form's, is refused
    rather than printed."""
    from octicmoduli import strata
    tup = "0,7,7,6,2,2,2,8,7"
    code, out, _ = run_cli(capsys, "reconstruct", "--field", "Fp:11",
                           "--tuple", tup)
    assert code == 0 and out.strip() == "0,0,1,0,7,0,10,0,7"
    code, out, _ = run_cli(capsys, "autgroup", "--field", "Fp:11",
                           "--tuple", tup)
    assert code == 0 and out.strip() == "D4"
    monkeypatch.setattr(strata, "reconstruct_stratum",
                        lambda stratum, field, t: BinaryForm(field, 8,
                                                             [1] * 9))
    code, out, err = run_cli(capsys, "reconstruct", "--field", "Fp:11",
                             "--tuple", tup)
    assert code == 29 and "other invariants" in err and out == ""


def test_descend_verb_prints_an_octic_over_the_prime_field(capsys):
    """g = M f over F_{11^2}, with f over F_11 and M over F_{11^2}: the
    printed F_11 octic has the invariants of f."""
    from octicmoduli.cli import _fmt
    from octicmoduli.covariants import has_invariants, shioda
    from octicmoduli.fields import PrimeField, field_make
    from octicmoduli.forms import Gl2Matrix, gl2_act
    F, E = PrimeField(11), field_make("Fpk:11:2")
    f = BinaryForm(F, 8, [8, 4, 2, 3, 8, 9, 9, 7, 2])
    t = E.gen()
    g = gl2_act(Gl2Matrix(E, t, E(3), E(1), t ** 7),
                f.to_field(E, lambda a: E(a.value)))
    assert any(c.coeffs[1] for c in g.coeffs)       # g is not over F_11
    code, out, err = run_cli(capsys, "descend", "--field", "Fpk:11:2",
                             "--form", ",".join(_fmt(c) for c in g.coeffs))
    assert code == 0 and err == ""
    model = BinaryForm(F, 8, [int(c) for c in out.strip().split(",")])
    assert has_invariants(model, shioda(f))


def test_moduli_enum_prints_the_moduli_rows(capsys):
    """One line per row of moduli_rows: the 11^5 classes over F_11."""
    from octicmoduli.census_fast import moduli_rows
    from octicmoduli.fields import PrimeField
    code, out, _ = run_cli(capsys, "moduli-enum", "--field", "Fp:11")
    rows = moduli_rows(PrimeField(11)).tolist()
    assert code == 0 and len(rows) == 11 ** 5
    assert out.splitlines() == ["11; " + ",".join(map(str, row))
                                for row in rows]
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "1ea18296b1f4"


def test_moduli_enum_over_an_extension_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "moduli-enum", "--field", "Fpk:11:2")
    assert code == 2 and out == ""
    assert err == "usage error: fast enumeration runs over prime fields\n"


def test_derive_cache_writes_the_packaged_syzygies(capsys, monkeypatch,
                                                   tmp_path):
    """derive-cache derives the five relation blocks again and writes
    them to --cache-dir, byte for byte as the packaged artifact."""
    import os
    from octicmoduli import covariants, store
    monkeypatch.setattr(store, "_override_dir", store._override_dir)
    monkeypatch.setattr(covariants, "_syzygies_cached",
                        covariants._syzygies_cached)
    code, out, _ = run_cli(capsys, "derive-cache", "--cache-dir",
                           str(tmp_path))
    assert code == 0 and out == "derived syzygies\n"
    name = "syzygies-R1..R5-7a76d3f7bf788f54.jpoly"
    assert os.listdir(tmp_path) == [name]
    with open(os.path.join(store.data_dir(), name), "rb") as fh:
        assert (tmp_path / name).read_bytes() == fh.read()
