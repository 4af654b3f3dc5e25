import hashlib
import random

import pytest

from octicmoduli.errors import WeightMismatch
from octicmoduli.fields import PrimeField, field_make
from octicmoduli.wps import (
    SHIODA_WEIGHTS, WeightedPoint, as_point, residues_equal, wps_enumerate,
    wps_equal, wps_normalize,
)


@pytest.fixture(scope="module")
def F7():
    return field_make("Fp:7", allow_small=True)


def test_wps_equal_examples(F7):
    W = (5, 7)
    assert wps_equal(WeightedPoint(F7, W, [1, 1]),
                     WeightedPoint(F7, W, [5, 3]))
    assert not wps_equal(WeightedPoint(F7, W, [1, 1]),
                         WeightedPoint(F7, W, [2, 6]))
    u = WeightedPoint(F7, W, [3, 4])
    assert wps_equal(u, u)


def test_wps_point_validation(F7):
    with pytest.raises(WeightMismatch):
        WeightedPoint(F7, (5, 7), [1, 2, 3])
    with pytest.raises(WeightMismatch):
        WeightedPoint(F7, (2,), [1])
    with pytest.raises(WeightMismatch):
        WeightedPoint(F7, (5, 7), [0, 0])
    with pytest.raises(WeightMismatch):
        wps_equal(WeightedPoint(F7, (5, 7), [1, 1]),
                  WeightedPoint(F7, (5, 6), [1, 1]))


def test_wps_equal_refuses_points_over_two_fields():
    """Points over F_11 and F_13 with equal residues, and over F_11 and
    F_{11^2}, are refused, not compared."""
    W = (2, 3)
    for field_b in (PrimeField(13), field_make("Fpk:11:2")):
        with pytest.raises(WeightMismatch):
            wps_equal(WeightedPoint(PrimeField(11), W, [1, 1]),
                      WeightedPoint(field_b, W, [1, 1]))
    assert wps_equal(WeightedPoint(PrimeField(11), W, [1, 1]),
                     WeightedPoint(PrimeField(11), W, [4, 8]))


def test_as_point_reuses_only_a_point_of_the_same_space():
    """A WeightedPoint over the field, in the space, is taken as it is;
    over another field or weights it is made again from its coordinates;
    a zero tuple or one of the wrong arity is refused as before."""
    F, E = PrimeField(11), field_make("Fpk:11:2")
    point = WeightedPoint(F, SHIODA_WEIGHTS, range(1, 10))
    assert as_point(F, SHIODA_WEIGHTS, point) is point
    lifted = as_point(E, SHIODA_WEIGHTS, point)
    assert lifted.field == E and lifted.coords == tuple(
        E(v) for v in range(1, 10))
    flat = as_point(F, (1,) * 9, point)
    assert flat is not point and flat.weights == (1,) * 9
    for coords in ([0] * 9, [1, 2]):
        with pytest.raises(WeightMismatch):
            as_point(F, SHIODA_WEIGHTS, coords)


@pytest.mark.parametrize("p", [11, 13])
def test_residues_equal_is_wps_equal_on_field_elements(p):
    """residues_equal, which wps_equal runs over F_p, against wps_equal
    over F_{p^2} on field elements: rescalings of seeded points, points
    with one coordinate moved, and points with another support."""
    F, E = PrimeField(p), field_make("Fpk:%d:2" % p)
    rng = random.Random(p)
    for _ in range(300):
        u = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(9)]
        if not any(u):
            continue
        lam = rng.randrange(1, p)
        v = [c * pow(lam, w, p) % p for c, w in zip(u, SHIODA_WEIGHTS)]
        if rng.random() < 0.5:
            i = rng.randrange(9)
            v[i] = rng.randrange(p)
        if not any(v):
            continue
        want = wps_equal(WeightedPoint(E, SHIODA_WEIGHTS, u),
                         WeightedPoint(E, SHIODA_WEIGHTS, v))
        assert residues_equal(p, SHIODA_WEIGHTS, u, v) == want, (u, v)
        assert wps_equal(WeightedPoint(F, SHIODA_WEIGHTS, u),
                         WeightedPoint(F, SHIODA_WEIGHTS, v)) == want


@pytest.mark.parametrize("weights", [(0, 1), (-2, 3), (0, 0)])
def test_weights_must_be_positive(F7, weights):
    with pytest.raises(WeightMismatch):
        WeightedPoint(F7, weights, [1, 1])
    with pytest.raises(WeightMismatch):
        next(wps_enumerate(F7, weights))


def test_wps_normalize_examples(F7):
    W = (5, 7)
    n = wps_normalize(WeightedPoint(F7, W, [5, 3]))
    assert [c.value for c in n.coords] == [1, 1]
    single = wps_normalize(WeightedPoint(F7, (2, 3, 4), [0, 4, 0]))
    assert [c.value for c in single.coords] == [0, 1, 0]


def test_wps_normalize_properties(F11):
    rng = random.Random(9)
    W = (2, 3, 4, 5, 6, 7, 8, 9, 10)
    for _ in range(40):
        coords = [rng.randrange(11) for _ in range(9)]
        if not any(coords):
            continue
        u = WeightedPoint(F11, W, coords)
        n = wps_normalize(u)
        assert wps_equal(u, n)
        n2 = wps_normalize(n)
        assert n2.key() == n.key()
        # rescale u by a weighted lambda and check the canonical form and
        # the equality test agree
        lam = rng.randrange(1, 11)
        scaled = WeightedPoint(
            F11, W, [c * F11(lam) ** w for c, w in zip(u.coords, W)])
        assert wps_equal(u, scaled)
        assert wps_normalize(scaled).key() == n.key()


def test_wps_equal_is_equivalence(F11):
    rng = random.Random(10)
    W = (2, 3, 5)
    pts = []
    for _ in range(12):
        coords = [rng.randrange(11) for _ in range(3)]
        if any(coords):
            pts.append(WeightedPoint(F11, W, coords))
    for a in pts:
        assert wps_equal(a, a)
        for b in pts:
            assert wps_equal(a, b) == wps_equal(b, a)
            for c in pts:
                if wps_equal(a, b) and wps_equal(b, c):
                    assert wps_equal(a, c)


def test_enumerate_f7_example(F7):
    pts = list(wps_enumerate(F7, (5, 7)))
    got = sorted(tuple(c.value for c in pt.coords) for pt in pts)
    assert got == [(0, 1), (1, 0), (1, 1), (1, 6), (2, 1), (2, 6),
                   (4, 1), (4, 6)]


def test_enumerate_projective_line_count():
    for p in (11, 13):
        field = PrimeField(p)
        assert len(list(wps_enumerate(field, (1, 1)))) == p + 1


def test_enumerate_matches_bruteforce(F11):
    """Class counts per support match a scan-all union by wps_equal."""
    from itertools import product
    for weights in [(2, 3), (2, 4), (4, 6), (2, 3, 4), (3, 5, 9)]:
        enum = list(wps_enumerate(F11, weights))
        # pairwise inequivalent
        for i, a in enumerate(enum):
            for b in enum[i + 1:]:
                assert not wps_equal(a, b)
        # brute force canonical count over all nonzero vectors
        seen = set()
        for coords in product(range(11), repeat=len(weights)):
            if not any(coords):
                continue
            key = wps_normalize(
                WeightedPoint(F11, weights, coords)).key()
            seen.add(key)
        assert len(seen) == len(enum)
        # every enumerated point is already canonical
        for pt in enum:
            assert wps_normalize(pt).key() == pt.key()


def test_moduli_enumerate_fixture_points(F11):
    """The two behaviours of equivalent prefix representatives."""
    from octicmoduli.covariants import j8_candidates, solve_j9_j10
    z = F11.zero
    # (-1, 0, ..., 0) gives only the trivial completion
    sols_neg = []
    for j8 in j8_candidates(F11, [F11(-1), z, z, z, z, z]):
        for j9, j10 in solve_j9_j10(F11, [F11(-1), z, z, z, z, z, j8]):
            sols_neg.append((j8.value, j9.value, j10.value))
    assert sols_neg == [(0, 0, 0)]
    # (1, 0, ..., 0) also yields the extra point (1:...:8:2:7)
    sols_pos = set()
    for j8 in j8_candidates(F11, [F11(1), z, z, z, z, z]):
        for j9, j10 in solve_j9_j10(F11, [F11(1), z, z, z, z, z, j8]):
            sols_pos.add((j8.value, j9.value, j10.value))
    assert (8, 2, 7) in sols_pos
    assert (0, 0, 0) in sols_pos


def test_fast_normalize_agrees_with_pure(F11):
    import numpy as np
    from octicmoduli.census_fast import _ModCtx, normalize_rows
    rng = random.Random(11)
    rows = []
    for _ in range(200):
        row = [rng.randrange(11) for _ in range(9)]
        if any(row):
            rows.append(row)
    arr = np.array(rows, dtype=np.int64)
    fast = normalize_rows(_ModCtx(11), arr)
    W = (2, 3, 4, 5, 6, 7, 8, 9, 10)
    for row, out in zip(rows, fast):
        pure = wps_normalize(WeightedPoint(F11, W, row))
        assert [c.value for c in pure.coords] == list(out)


@pytest.mark.slow
def test_fast_prefix_enumeration_agrees_with_pure(F11):
    """The census prefixes, normalized, and the pure-field enumeration
    cover the same classes of the weight-(2..7) space over F_11, and no
    prefix row repeats."""
    import numpy as np
    from octicmoduli.census_fast import _ModCtx, _prefixes, normalize_rows
    pure = set()
    for pt in wps_enumerate(F11, (2, 3, 4, 5, 6, 7)):
        pure.add(tuple(c.value for c in wps_normalize(pt).coords))
    ctx = _ModCtx(11)
    rows = np.concatenate(list(_prefixes(ctx)))
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    rows9 = np.zeros((rows.shape[0], 9), dtype=np.int64)
    rows9[:, :6] = rows
    fast = {tuple(int(v) for v in row[:6])
            for row in normalize_rows(ctx, rows9)}
    assert len(pure) == (11 ** 6 - 1) // 10
    assert pure == fast


#: sha256 prefixes of the ordered wps_enumerate output, one line per point
ENUM_SHA = {("Fp:11", (2, 3, 4)): "eba9bde6c390",
            ("Fpk:11:2", (1, 1)): "f08c3df87c43"}


@pytest.mark.parametrize("spec, weights", sorted(ENUM_SHA))
def test_enumerate_order_pin(spec, weights):
    field = field_make(spec)
    text = "\n".join(",".join(repr(c) for c in pt.coords)
                     for pt in wps_enumerate(field, weights))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest[:12] == ENUM_SHA[(spec, weights)]


def test_enumerate_extension_field():
    from octicmoduli.fields import ExtField
    E = ExtField(11, 2)
    pts = list(wps_enumerate(E, (1, 1)))
    assert len(pts) == 121 + 1
    for i, a in enumerate(pts[:20]):
        for b in pts[i + 1:20]:
            assert not wps_equal(a, b)
