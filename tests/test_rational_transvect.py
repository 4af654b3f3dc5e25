"""transvect and BinaryForm products over Q, which run on integer
numerators over one common denominator per form, against the reference
transvectant and product on Fractions below; the same loop on field
elements over Q(sqrt 5) and F_{11^2}; and sha256 pins of shioda,
covariant_eval and _all_triple_values over Q.
"""

import hashlib
import random
import zlib
from fractions import Fraction
from math import comb

from hypothesis import given, strategies as st

from octicmoduli.covariants import CATALOGUE, covariant_eval, random_octic, shioda
from octicmoduli.fields import ExtField, QQ, QuadExtQ
from octicmoduli.forms import BinaryForm, transvect
from octicmoduli.reconstruct import (
    TRIPLES_19, _all_triple_values, reconstruct_generic,
)


def _falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _partial(coeffs, m, l):
    """Coefficients of d^m/dX^m d^l/dZ^l of the form with coefficients
    coeffs (a_0, ..., a_n)."""
    n = len(coeffs) - 1
    return [coeffs[i + m] * _falling(i + m, m) * _falling(n - m - i, l)
            for i in range(n - m - l + 1)]


def reference_transvect(f, g, h):
    """(f, g)_h by the closed coefficient formula
      1/(ff(r1,h) ff(r2,h)) * sum_k (-1)^k C(h,k) F_k G_k
    with F_k the (h-k, k) mixed partial of f and G_k the (k, h-k) one,
    one field operation per term: over Q, one Fraction operation."""
    field, r1, r2 = f.field, f.degree, g.degree
    norm = field(Fraction(1, _falling(r1, h) * _falling(r2, h)))
    out = [field.zero] * (r1 + r2 - 2 * h + 1)
    for k in range(h + 1):
        signed = -comb(h, k) if k % 2 else comb(h, k)
        fk, gk = _partial(f.coeffs, h - k, k), _partial(g.coeffs, k, h - k)
        for i, x in enumerate(fk):
            for j, y in enumerate(gk):
                out[i + j] = out[i + j] + x * signed * y
    return BinaryForm(field, r1 + r2 - 2 * h, [c * norm for c in out])


def reference_product(f, g):
    field = f.field
    out = [field.zero] * (f.degree + g.degree + 1)
    for i, x in enumerate(f.coeffs):
        for j, y in enumerate(g.coeffs):
            out[i + j] = out[i + j] + x * y
    return BinaryForm(field, f.degree + g.degree, out)


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
# the element path over Q(sqrt 5) and F_{11^2}


def test_element_path_over_q_sqrt5_and_f11_2():
    """transvect and products on field elements over Q(sqrt 5) and
    F_{11^2}, on seeded forms with vanishing coefficients: the reference
    formula on the same elements."""
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
