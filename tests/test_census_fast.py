"""The vectorized census kernel: output pins at p = 11 and 13, a sampled
oracle built from the scalar solvers, and the batch J-polynomial
evaluator."""

import hashlib
import random
import zlib

import numpy as np
import pytest

from octicmoduli.census import expected_counts
from octicmoduli.census_fast import classify_rows, moduli_rows, strata_labels
from octicmoduli.covariants import (
    derive_syzygies, discriminant_J, discriminant_poly, j8_candidates,
    j9_j10_closed_form, solve_j9_j10,
)
from octicmoduli.fields import PrimeField
from octicmoduli.jpoly import JPolynomial, PolySet
from octicmoduli.strata import stratum_systems
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_normalize

#: sha256 prefixes of moduli_rows(PrimeField(p)).astype(int64).tobytes()
ROWS_SHA = {11: "423d80cbdd08", 13: "4c617579dd32"}


@pytest.fixture(scope="module")
def rows_p11():
    return moduli_rows(PrimeField(11))


def _check_pins(p, rows):
    digest = hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest()
    assert digest[:12] == ROWS_SHA[p]
    labels = classify_rows(PrimeField(p), rows)
    counts = {name: int((labels == k).sum())
              for k, name in enumerate(strata_labels())}
    assert counts == expected_counts(p)


def test_moduli_rows_pin_p11(rows_p11):
    _check_pins(11, rows_p11)


@pytest.mark.slow
def test_moduli_rows_pin_p13():
    _check_pins(13, moduli_rows(PrimeField(13)))


def test_moduli_rows_agree_with_scalar_solvers(rows_p11):
    """Sampled oracle: every completion the scalar solvers give for a
    random prefix is an output row, and every sampled output row is a
    canonical, nonsingular point on all five relations."""
    F = PrimeField(11)
    syz = derive_syzygies()
    seed = zlib.crc32(b"moduli_rows oracle")
    print("seed", seed)
    rng = random.Random(seed)
    out = {tuple(int(v) for v in row) for row in rows_p11}
    generic = degenerate = 0
    while generic < 30 or degenerate < 3:
        j27 = [F(rng.randrange(11)) for _ in range(6)]
        for j8 in j8_candidates(F, j27):
            delta, _, _ = j9_j10_closed_form(syz.evaluate_blocks(F, j27), j8)
            if delta:
                generic += 1
            else:
                degenerate += 1       # solve_j9_j10 scans all pairs
            for j9, j10 in solve_j9_j10(F, j27 + [j8]):
                jt = j27 + [j8, j9, j10]
                if any(jt) and discriminant_J(F, jt):
                    norm = wps_normalize(WeightedPoint(F, SHIODA_WEIGHTS, jt))
                    assert tuple(c.value for c in norm.coords) in out, jt
    for i in rng.sample(range(len(rows_p11)), 200):
        jt = [F(int(v)) for v in rows_p11[i]]
        pt = WeightedPoint(F, SHIODA_WEIGHTS, jt)
        assert wps_normalize(pt).key() == pt.key()
        assert not any(syz.relations_residuals(F, jt))
        assert discriminant_J(F, jt)


def test_polyset_matches_scalar_evaluation():
    polys = [discriminant_poly()] + stratum_systems()["D4"][:4]
    for p in (11, 1048573):           # the largest census prime is < 2^20
        F = PrimeField(p)
        seed = zlib.crc32(b"polyset %d" % p)
        print("seed", seed)
        rng = random.Random(seed)
        rows = np.array([[rng.randrange(p) for _ in range(9)]
                         for _ in range(50)], dtype=np.int64)
        want = [[poly.evaluate(F, [F(int(v)) for v in row]).value
                 for poly in polys] for row in rows]
        assert PolySet(polys).evaluate_mod(rows, p).tolist() == want
    with pytest.raises(ValueError):
        PolySet(polys).evaluate_mod(rows, (1 << 31) - 1)


def test_polyset_values_follow_their_polynomials():
    """Compiled coefficients belong to the PolySet: polynomials created at
    the addresses of freed ones get their own values."""
    row = np.arange(1, 10, dtype=np.int64).reshape(1, 9)
    for w in (2, 3, 2):
        sets = [PolySet([JPolynomial.generator(w)]) for _ in range(1000)]
        assert all(s.evaluate_mod(row, 11)[0, 0] == w - 1 for s in sets)
        del sets
