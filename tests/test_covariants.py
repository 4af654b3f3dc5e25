import random
from fractions import Fraction

import pytest

from octicmoduli.covariants import (
    CATALOGUE, INVARIANT_IDS, ORDER2_IDS, covariant_eval, discriminant_J,
    is_isomorphic, random_octic, shioda,
)
from octicmoduli.errors import SingularForm, UnknownIdentifier, WrongDegree
from octicmoduli.fields import QQ, field_make
from octicmoduli.forms import (
    BinaryForm, Gl2Matrix, disc_resultant, gl2_act,
)
from octicmoduli.unipoly import mul, random_element
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_equal

from symring import generic_octic


def test_catalogue_shape():
    assert len(CATALOGUE) == 69
    assert len(ORDER2_IDS) == 14
    assert len(INVARIANT_IDS) == 9
    per_degree = {}
    for name, (d, r, _) in CATALOGUE.items():
        per_degree[d] = per_degree.get(d, 0) + 1
    assert per_degree == {1: 1, 2: 4, 3: 8, 4: 10, 5: 11, 6: 9, 7: 8,
                          8: 7, 9: 5, 10: 3, 11: 2, 12: 1}
    per_order = {}
    for name, (d, r, _) in CATALOGUE.items():
        per_order[r] = per_order.get(r, 0) + 1
    assert per_order == {0: 9, 2: 14, 4: 13, 6: 12, 8: 6, 10: 7, 12: 3,
                         14: 3, 18: 2}


def test_catalogue_bookkeeping():
    # recipes reproduce the declared (degree, order), and no recipe except
    # the two order-18 entries transvects anything of order > 10
    for name, (d, r, recipe) in CATALOGUE.items():
        if recipe[0] == "base":
            assert (d, r) == (1, 8)
            continue
        if recipe[0] == "tr":
            _, left, h = recipe
            dl, rl, _ = CATALOGUE[left]
            assert d == dl + 1 and r == rl + 8 - 2 * h
            if r != 18:
                assert rl <= 10
        else:
            _, l1, l2, h = recipe
            d1, r1, _ = CATALOGUE[l1]
            d2, r2, _ = CATALOGUE[l2]
            assert d == d1 + d2 + 1 and r == r1 + r2 + 8 - 2 * h
            assert r1 + r2 <= 10 or r == 18


def test_covariant_eval_basics(F11):
    rng = random.Random(0)
    f = random_octic(rng, F11, 9)
    assert covariant_eval("f", f) == f
    c20 = covariant_eval("C2_0", f)
    assert c20.degree == 0 and c20.coeffs[0] == shioda(f)[0]
    with pytest.raises(UnknownIdentifier):
        covariant_eval("C99_1", f)
    with pytest.raises(WrongDegree):
        covariant_eval("C2_0", BinaryForm(F11, 7, [1] * 8))


def test_order2_covariant_of_symmetric_form():
    # an even form with the x -> -x symmetry leaves only the xz term
    f = BinaryForm(QQ, 8, [1, 0, 0, 0, 0, 0, 0, 0, 1])
    q = covariant_eval("C5_2", f)
    assert q.degree == 2
    assert q.coeffs[0] == 0 and q.coeffs[2] == 0


def test_shioda_examples():
    f8 = BinaryForm(QQ, 8, [1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert shioda(f8)[0] == 2

    f = BinaryForm(QQ, 8, [1, 0, 0, 0, 14, 0, 0, 0, 1])
    j = shioda(f)
    assert j[0] == Fraction(24, 5)
    assert j[1] == Fraction(48, 25)
    assert j[1] ** 2 * 30 == j[0] ** 3
    assert all(v == 0 for v in j[2:])

    g = BinaryForm(QQ, 8, [-1, 0, 0, 0, 0, 0, 0, 1, 0])   # X^7 Z - Z^8
    jg = shioda(g)
    assert jg[5] != 0
    assert all(v == 0 for i, v in enumerate(jg) if i != 5)


def test_calibration_symbolic():
    """The implemented J2, J3, J4 agree with the reference coefficient
    expansions term by term on a fully generic octic."""
    import os
    from octicmoduli import store
    f = generic_octic()
    j = shioda(f)
    path = os.path.join(store.data_dir(), "shioda_expansions.txt")
    expected = {}
    with open(path) as fh:
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


def test_covariance_gl2(F11):
    rng = random.Random(6)
    weights = SHIODA_WEIGHTS
    for _ in range(8):
        f = random_octic(rng, F11, 9)
        if not disc_resultant(f):
            continue
        m = Gl2Matrix(F11, *[rng.randrange(11) for _ in range(4)])
        if not m.det():
            continue
        u = WeightedPoint(F11, weights, shioda(f))
        v = WeightedPoint(F11, weights, shioda(gl2_act(m, f)))
        assert wps_equal(u, v)


def test_discriminant_J(F11):
    rng = random.Random(7)
    kappa = None
    for _ in range(8):
        f = random_octic(rng)
        lhs = discriminant_J(QQ, shioda(f))
        rhs = disc_resultant(f)
        if not rhs:
            assert lhs == 0
            continue
        if kappa is None:
            kappa = lhs / rhs
        assert lhs == kappa * rhs
    assert kappa == Fraction(492075, 262144)
    # the class of a multiple-root form
    assert discriminant_J(F11, [0, 0, 0, 1, 0, 0, 0, 0, 0]) == F11.zero
    assert discriminant_J(QQ, [0] * 9) == 0


@pytest.mark.parametrize("spec", ["Q", "Fp:11", "Fp:13", "Fpk:11:2",
                                  "Fpk:11:4"])
def test_disc_resultant_against_discriminant_J(spec):
    """disc_resultant is 2^18 / (3^9 5^2) discriminant_J, the kappa of
    test_discriminant_J inverted, on seeded octics whose top or bottom
    coefficients vanish, the others nonzero: c_8 = 0 and c_7 = 0 drop the
    formal degree of one partial, c_7 = c_8 = 0 of both (a double root at
    infinity, so 0).  The other kinds are redrawn until the oracle finds
    them smooth.  A constructed affine double root gives 0 as well."""
    field = field_make(spec)
    rng = random.Random(16)

    def elt():
        while True:
            a = (QQ(rng.randint(-9, 9)) if field is QQ
                 else random_element(field, rng))
            if a:
                return a

    scale = field(Fraction(2 ** 18, 3 ** 9 * 5 ** 2))
    for zeros in ((8,), (7,), (7, 8), (0,), (0, 8)):
        while True:        # redraw a form the oracle finds singular
            c = [elt() for _ in range(9)]
            for i in zeros:
                c[i] = field.zero
            f = BinaryForm(field, 8, c)
            disc = discriminant_J(field, shioda(f))
            assert disc_resultant(f) == scale * disc
            if disc or zeros == (7, 8):
                break
        assert (disc == 0) == (zeros == (7, 8))
    a = elt()
    double = BinaryForm(field, 8, mul(field, [a * a, -2 * a, field.one],
                                      [elt() for _ in range(7)]))
    assert disc_resultant(double) == 0
    assert discriminant_J(field, shioda(double)) == 0


def test_is_isomorphic(F11):
    rng = random.Random(8)
    f = random_octic(rng, F11, 9)
    while not disc_resultant(f):
        f = random_octic(rng, F11, 9)
    assert is_isomorphic(f, f)
    m = Gl2Matrix(F11, 2, 5, 1, 4)
    assert is_isomorphic(f, gl2_act(m, f))
    v8 = BinaryForm(F11, 8, [-1, 0, 0, 0, 0, 0, 0, 0, 1])
    c14 = BinaryForm(F11, 8, [-1, 0, 0, 0, 0, 0, 0, 1, 0])
    assert not is_isomorphic(v8, c14)
    with pytest.raises(SingularForm):
        is_isomorphic(BinaryForm(F11, 8, [0, 0, 1, 0, 0, 0, 0, 0, 0]), f)
