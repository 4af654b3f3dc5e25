"""transvect, BinaryForm products, gl2_act, substitute_quartic and shioda
over Q and Q(sqrt D), where they run as residue programs on integer
numerators over one common denominator, against the reference bodies of
reference.py on Fractions and field elements; transvect and products over
F_{11^2}; forms over different fields refused; the program caches
unchanged by reconstructions over many Q(sqrt D); and sha256 pins of
shioda, covariant_eval and _all_triple_values over Q.
"""

import hashlib
import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octicmoduli import covariants, forms, reconstruct
from octicmoduli.covariants import CATALOGUE, covariant_eval, random_octic, shioda
from octicmoduli.fields import ExtField, PrimeField, QQ, QuadExtQ
from octicmoduli.forms import (
    BinaryForm, Gl2Matrix, ResidueProgram, gl2_act, transvect,
)
from octicmoduli.reconstruct import (
    QUARTIC_MULTISETS, TRIPLES_19, _all_triple_values, reconstruct_generic,
    substitute_quartic,
)

from reference import (
    reference_gl2_act, reference_product, reference_substitute_quartic,
    reference_transvect,
)


# ---------------------------------------------------------------------------
# properties over Q


#: small, large and mixed denominators, zero and negative numerators
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=12).map(lambda c: c.limit_denominator(12)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 25)),
)


@st.composite
def _form(draw, degree):
    kind = draw(st.sampled_from(["zero", "integral", "rational"]))
    if kind == "zero":
        return BinaryForm(QQ, degree, [0] * (degree + 1))
    if kind == "integral":
        coeffs = st.integers(-10 ** 12, 10 ** 12)
    else:
        coeffs = _rationals
    return BinaryForm(QQ, degree, draw(st.lists(
        coeffs, min_size=degree + 1, max_size=degree + 1)))


@st.composite
def _transvectant_case(draw):
    r1, r2 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    h = draw(st.integers(0, min(r1, r2)))
    return draw(_form(r1)), draw(_form(r2)), h


@given(_transvectant_case())
def test_transvect_over_q_matches_the_reference(case):
    f, g, h = case
    got = transvect(f, g, h)
    assert got == reference_transvect(f, g, h)
    assert all(type(c) is Fraction for c in got.coeffs)


@given(st.integers(0, 8).flatmap(_form), st.integers(0, 8).flatmap(_form))
def test_products_over_q_match_the_reference(f, g):
    got = f * g
    assert got == reference_product(f, g)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_every_order_on_every_degree_pair_over_q():
    """Every (r1, r2, h) with r1, r2 <= 8 and h <= min(r1, r2), on seeded
    forms with mixed denominators and a zero coefficient."""
    rng = random.Random(zlib.crc32(b"rational transvect orders"))

    def form(n):
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 60))
                  for _ in range(n + 1)]
        coeffs[rng.randrange(n + 1)] = 0
        return BinaryForm(QQ, n, coeffs)

    for r1 in range(9):
        for r2 in range(9):
            f, g = form(r1), form(r2)
            assert f * g == reference_product(f, g)
            for h in range(min(r1, r2) + 1):
                assert transvect(f, g, h) == reference_transvect(f, g, h)


# ---------------------------------------------------------------------------
# the programs over Q(sqrt D) and F_{11^2}


def test_element_path_over_q_sqrt5_and_f11_2():
    """transvect and products over Q(sqrt 5) and F_{11^2}, on seeded
    forms with vanishing coefficients: the reference formula on the same
    elements."""
    rng = random.Random(zlib.crc32(b"element path fields"))
    K, E = QuadExtQ(5), ExtField(11, 2)
    elements = {
        K: lambda: K.zero if rng.random() < 0.2 else K(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        + K.gen() * Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        E: lambda: E([rng.randrange(11), rng.randrange(11)]),
    }
    for field, element in elements.items():
        for r1, r2, h in ((8, 8, 4), (8, 2, 2), (6, 8, 5), (2, 2, 1),
                          (4, 3, 0), (0, 5, 0)):
            f = BinaryForm(field, r1, [element() for _ in range(r1 + 1)])
            g = BinaryForm(field, r2, [element() for _ in range(r2 + 1)])
            got = transvect(f, g, h)
            assert got == reference_transvect(f, g, h)
            assert all(c.field == field for c in got.coeffs)
            assert f * g == reference_product(f, g)


#: the D of the model that reconstruct_generic over Q builds from the
#: invariants of 3, -2, -3, 1, -1, 1, 0, -1, 2: an 89-bit numerator over a
#: 102-bit denominator
RECONSTRUCTED_D = Fraction(443079586370672208804039237,
                           2864735497169744851630450278400)

#: Q, and Q(sqrt D) for D = 5, -3, 7/12 and RECONSTRUCTED_D
CHAR0_FIELDS = [QQ] + [QuadExtQ(d) for d in (
    5, -3, Fraction(7, 12), RECONSTRUCTED_D)]


@st.composite
def _element(draw, field):
    if field == QQ:
        return draw(_rationals)
    return field(draw(_rationals)) + field(draw(_rationals)) * field.gen()


@st.composite
def _char0_form(draw, field, degree):
    """A form over field: zero, or each coefficient zero a fifth of the
    time, else a rational of _rationals (a + b sqrt D over Q(sqrt D))."""
    if draw(st.integers(0, 5)) == 0:
        return BinaryForm(field, degree, [0] * (degree + 1))
    return BinaryForm(field, degree, [
        draw(_element(field)) if draw(st.integers(0, 4)) else field.zero
        for _ in range(degree + 1)])


_char0_field = st.sampled_from(CHAR0_FIELDS)


@settings(max_examples=60)
@given(st.data())
def test_transvect_and_products_over_q_and_q_sqrt_d(data):
    """transvect and products over Q and Q(sqrt D), one program stage
    each, on zero forms and coefficients up to 10^30 over 10^25: the
    reference formula and product on Fractions and field elements."""
    field = data.draw(_char0_field)
    r1, r2 = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    h = data.draw(st.integers(0, min(r1, r2)))
    f = data.draw(_char0_form(field, r1))
    g = data.draw(_char0_form(field, r2))
    got = transvect(f, g, h)
    assert got == reference_transvect(f, g, h)
    assert all(field(c) == c for c in got.coeffs)
    assert f * g == reference_product(f, g)


@settings(max_examples=40)
@given(st.data())
def test_gl2_act_over_q_and_q_sqrt_d(data):
    """gl2_act over Q and Q(sqrt D), the halving program of _gl2_program,
    against reference_gl2_act, on forms of degree 0 to 8 and invertible
    matrices."""
    field = data.draw(_char0_field)
    f = data.draw(_char0_form(field, data.draw(st.integers(0, 8))))
    m = Gl2Matrix(field, *[data.draw(_element(field)) for _ in range(4)])
    if not m.det():
        m = m + Gl2Matrix(field, 1, 0, 0, 3)
    if m.det():
        assert gl2_act(m, f) == reference_gl2_act(m, f)


@settings(max_examples=30)
@given(st.data())
def test_substitute_quartic_over_q_and_q_sqrt_d(data):
    """substitute_quartic over Q and Q(sqrt D), the program that
    _reconstruct_mod runs on residues, against the walk on field
    elements, with zero chis and zero quartic values among them."""
    field = data.draw(_char0_field)
    chis = tuple(data.draw(_char0_form(field, 2)) for _ in range(3))
    values = {mset: data.draw(_element(field)) if data.draw(st.booleans())
              else field.zero for mset in QUARTIC_MULTISETS}
    got = substitute_quartic(field, values, chis)
    assert got == reference_substitute_quartic(field, values, chis)


@settings(max_examples=25)
@given(st.data())
def test_shioda_over_q_and_q_sqrt_d_matches_the_reference_chain(data):
    """shioda over Q and Q(sqrt D), one program, equals shioda's chain of
    reference transvectants."""
    field = data.draw(_char0_field)
    f = data.draw(_char0_form(field, 8))
    want = tuple(t.coeffs[0] for t in
                 covariants._shioda_chain(f, reference_transvect))
    assert shioda(f) == want


def test_a_program_over_q_refuses_terms_of_two_degrees():
    """Over Q an output is one numerator over den L^deg: terms of degrees
    3 and 2 in the inputs cannot share one."""
    with pytest.raises(ValueError):
        ResidueProgram(QQ, 2, [[[(1, 0, 1)]], [[(1, 2, 0), (1, 0, 1)]]])


def test_forms_over_different_fields_are_refused():
    """transvect, products and gl2_act on operands over two fields raise
    one TypeError naming both, for Q, F_11, F_13 and F_{11^2}."""
    Q, F11, F13, E = QQ, PrimeField(11), PrimeField(13), ExtField(11, 2)
    for a, b in ((Q, F11), (F11, E), (E, F11), (F11, Q), (F11, F13)):
        f = BinaryForm(a, 2, [1, 2, 3])
        g = BinaryForm(b, 2, [4, 5, 6])
        for op in (lambda: transvect(f, g, 1), lambda: f * g,
                   lambda: gl2_act(Gl2Matrix(b, 1, 2, 3, 5), f)):
            with pytest.raises(TypeError) as err:
                op()
            assert repr(a) in str(err.value) and repr(b) in str(err.value)


def _program_caches():
    return {name: fn.cache_info().currsize for name, fn in (
        ("transvect", forms._transvect_program),
        ("gl2", forms._gl2_program),
        ("shioda", covariants._shioda_program),
        ("substitution", reconstruct._substitution_program))}


def test_reconstructions_over_q_leave_the_program_caches_alone():
    """20 reconstructions over Q whose models lie over 20 different
    Q(sqrt D), and shioda of each model: every program cache keeps its
    size, as a program over Q serves every Q(sqrt D)."""
    rng = random.Random(zlib.crc32(b"program caches over Q(sqrt D)"))

    def reconstruction():
        f = BinaryForm(QQ, 8, [rng.randint(-3, 3) for _ in range(9)])
        octic = reconstruct_generic(QQ, shioda(f))
        shioda(octic)
        return octic.field

    reconstruction()
    before = _program_caches()
    fields = set()
    while len(fields) < 20:
        field = reconstruction()
        if field != QQ:
            fields.add(field)
    assert _program_caches() == before


# ---------------------------------------------------------------------------
# pins over Q


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _line(values):
    return ",".join(map(str, values))


def _seeded_octics(label, count):
    rng = random.Random(zlib.crc32(label))
    return [random_octic(rng) for _ in range(count)]


def _fraction_octics(count):
    rng = random.Random(zlib.crc32(b"fraction octics"))
    out = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-60, 60), rng.randint(1, 48))
                  for _ in range(9)]
        coeffs[rng.randrange(9)] = 0
        out.append(BinaryForm(QQ, 8, coeffs))
    return out


def _high_height_octic():
    """The model over Q that reconstruct_generic builds from the
    invariants of 1, 2, 0, 0, 3, 0, 0, 1, 1: coefficients of 110 to 200
    digits."""
    f = BinaryForm(QQ, 8, [1, 2, 0, 0, 3, 0, 0, 1, 1])
    octic = reconstruct_generic(QQ, shioda(f))
    assert octic.field == QQ
    return octic


def shioda_random_digest():
    return _digest(_line(shioda(f))
                   for f in _seeded_octics(b"pin shioda", 20))


def shioda_fraction_digest():
    return _digest(_line(shioda(f)) for f in _fraction_octics(20))


def shioda_high_height_digest():
    octic = _high_height_octic()
    return _digest([_line(octic.coeffs), _line(shioda(octic))])


def catalogue_digest():
    lines = []
    for f in _seeded_octics(b"pin catalogue", 5):
        cache = {}
        lines += ["%s:%s" % (name, _line(covariant_eval(name, f, cache).coeffs))
                  for name in CATALOGUE]
    return _digest(lines)


def triple_values_digest():
    return _digest(_line(_all_triple_values(TRIPLES_19[0], f))
                   for f in _seeded_octics(b"pin triple values", 8))


#: sha256 prefixes of the lines each digest function above hashes,
#: recorded with the Fraction loop the reference functions above keep
PINS = {
    "shioda_random": "95b5740aceebf04e",
    "shioda_fraction": "c2a757ef312a3fdb",
    "shioda_high_height": "5762a7b5205a3f49",
    "catalogue": "9dbae98fb722f313",
    "triple_values": "d24b695d35a7e753",
}


def test_shioda_over_q_pins():
    assert shioda_random_digest() == PINS["shioda_random"]
    assert shioda_fraction_digest() == PINS["shioda_fraction"]
    assert shioda_high_height_digest() == PINS["shioda_high_height"]


def test_catalogue_over_q_pin():
    assert catalogue_digest() == PINS["catalogue"]


def test_triple_values_over_q_pin():
    assert triple_values_digest() == PINS["triple_values"]
