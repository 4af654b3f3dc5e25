import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from octicmoduli.covariants import (
    INVARIANT_IDS, catalogue_degree_order, covariant_eval, derive_syzygies,
    express_in_J, j8_candidates, j8_quintic, random_octic, shioda,
    solve_j9_j10,
)
from octicmoduli.fields import PrimeField, QQ
from octicmoduli.errors import InconsistentSystem
from octicmoduli.jpoly import JPolynomial, monomial_basis
from octicmoduli.linsolve import PRIMES30, solve_rational


def test_monomial_basis_counts():
    assert len(monomial_basis(4)) == 2          # J2^2 and J4
    assert len(monomial_basis(20)) == 107
    assert len(monomial_basis(20, num_vars=6)) == 64
    for ev in monomial_basis(14):
        assert sum(w * e for w, e in zip(range(2, 11), ev)) == 14


def test_jpolynomial_serialization_roundtrip():
    poly = JPolynomial(7, {(2, 1, 0, 0, 0, 0, 0, 0, 0): Fraction(3, 7),
                           (0, 0, 0, 0, 0, 1, 0, 0, 0): Fraction(-2)})
    back = JPolynomial.deserialize(poly.serialize())
    assert back == poly and back.degree == 7


def test_express_trivial_square():
    res = express_in_J(lambda f: shioda(f)[0] ** 2, 4)
    assert res.nullity == 0
    assert res.polynomial.terms == {(2,) + (0,) * 8: Fraction(1)}


def test_express_catalogue_invariant():
    res = express_in_J(lambda f: covariant_eval("C4_0", f).coeffs[0], 4)
    assert res.polynomial.terms == {
        (2, 0, 0, 0, 0, 0, 0, 0, 0): Fraction(1, 30),
        (0, 0, 1, 0, 0, 0, 0, 0, 0): Fraction(-4, 35),
    }


#: sha256 prefixes of serialize() of express_in_J of each catalogue
#: invariant at the default seed (the benchmark holds the same constants)
EXPRESS_SHA = {
    "C2_0": "5cca5acdf3c3e321", "C3_0": "756f7c2a6a718e55",
    "C4_0": "9a512f4f843ea8a4", "C5_0": "5b84be9edeacbb2d",
    "C6_0": "a68acc0354273d8b", "C7_0": "4ceb56a7305aa154",
    "C8_0": "42f1211c35f08d01", "C9_0": "0c2fd6b4d443418a",
    "C10_0": "6dc3ed94f0079942",
}


@pytest.mark.parametrize("ident", INVARIANT_IDS)
def test_express_catalogue_invariants_are_pinned(ident):
    res = express_in_J(lambda f: covariant_eval(ident, f).coeffs[0],
                       catalogue_degree_order(ident)[0])
    digest = hashlib.sha256(res.polynomial.serialize().encode()).hexdigest()
    assert res.nullity == 0 and digest[:16] == EXPRESS_SHA[ident]


def test_express_idempotent():
    first = express_in_J(lambda f: covariant_eval("C6_0", f).coeffs[0], 6)
    again = express_in_J(
        lambda f, _p=first.polynomial: _p.evaluate(QQ, shioda(f)), 6,
        seed=0xBEEF)
    assert again.polynomial == first.polynomial


def test_express_disc_matches_reference():
    from octicmoduli import store
    from octicmoduli.forms import disc_resultant
    res = express_in_J(disc_resultant, 14)
    ref = store.read_data_polys("discriminant_j.jpoly")[0][1]
    # proportional coefficient-wise, constant fixed by one monomial
    key = next(iter(ref.terms))
    c = res.polynomial.terms[key] / ref.terms[key]
    assert res.polynomial.terms == {ev: cc * c for ev, cc in ref.terms.items()}


def test_syzygies_on_random_octics():
    syz = derive_syzygies()
    rng = random.Random(100)
    F11 = PrimeField(11)
    for _ in range(30):
        f = random_octic(rng)
        jv = shioda(f)
        assert all(r == 0 for r in syz.relations_residuals(QQ, jv))
        fm = f.to_field(F11)
        jm = shioda(fm)
        assert not any(syz.relations_residuals(F11, jm))


def test_quintic_shape():
    q = j8_quintic()
    assert len(q) == 6
    assert q[5].terms == {(0,) * 9: Fraction(1)}
    syz = derive_syzygies()
    # the printed quartic coefficient: A8 + 2 B8 + C8
    expect = syz["A8"] + syz["B8"].scale(2) + syz["C8"]
    assert q[4] == expect
    for i, c in enumerate(q):
        if not c.is_zero():
            assert c.degree == 40 - 8 * i


def test_quintic_pin():
    """The six coefficients of the J8 quintic, serialized one a line."""
    lines = "\n".join(c.serialize() for c in j8_quintic())
    assert hashlib.sha256(lines.encode()).hexdigest()[:12] == "e787f12a30df"


def test_j8_candidates_examples(F11):
    zeros = [F11.zero] * 6
    cands = j8_candidates(F11, [F11(1)] + zeros[:5])
    assert F11(8) in cands
    over_q = j8_candidates(QQ, [QQ(0)] * 6)
    assert over_q == [Fraction(0)]


def test_j8_property_random():
    rng = random.Random(101)
    for _ in range(25):
        f = random_octic(rng)
        j = shioda(f)
        assert j[6] in j8_candidates(QQ, j[:6])


def test_solve_j9_j10_reference_points(F11):
    z = F11.zero
    sols = solve_j9_j10(F11, [F11(1), z, z, z, z, z, F11(8)])
    assert (F11(2), F11(7)) in sols
    assert solve_j9_j10(F11, [F11(1), z, z, z, F11(8), z, F11(7)]) == []
    sols3 = solve_j9_j10(F11, [F11(9), z, z, z, F11(2), z, z])
    got = sorted((a.value, b.value) for a, b in sols3)
    assert got == [(0, 4), (2, 9), (9, 9)]


def test_solve_j9_j10_random():
    rng = random.Random(102)
    for _ in range(25):
        f = random_octic(rng)
        j = shioda(f)
        sols = solve_j9_j10(QQ, j[:7])
        assert (j[7], j[8]) in sols


def test_degenerate_scan_evaluates_the_blocks_once(F11, monkeypatch):
    """delta = 0 at the prefix (1,0,0,0,0,0) with J8 = 8, so every pair
    of F_11^2 is tried: the blocks are evaluated once for the prefix, in
    one PolySet.at call, and the pairs kept are those relations_residuals
    zeroes."""
    syz = derive_syzygies()
    z = F11.zero
    j28 = [F11(1), z, z, z, z, z, F11(8)]
    calls = []
    at = type(syz.block_set).at
    monkeypatch.setattr(syz.block_set, "at",
                        lambda *a: calls.append(a) or at(syz.block_set, *a))
    sols = solve_j9_j10(F11, j28)
    assert len(calls) == 1
    monkeypatch.undo()
    want = [(a, b) for a in F11.elements() for b in F11.elements()
            if not any(syz.relations_residuals(F11, j28 + [a, b]))]
    assert sols == want == [(F11(2), F11(7)), (F11(9), F11(7))]


def _images(A, B):
    """image_builder of solve_rational for integer matrices A and B."""
    return lambda p: (np.array(A, dtype=np.int64) % p,
                      np.array(B, dtype=np.int64) % p)


@pytest.mark.parametrize("k", [0, 1])
def test_solve_rational_outlasts_a_bad_first_prime(k):
    """A = [[P + 1, 1], [1, 1]] has rank 1 modulo P, where the system
    reads inconsistent; over Q the solution is (1/P, -1/P).  With P the
    first prime the first image is bad, with P the second the second."""
    P = PRIMES30[k]
    out = solve_rational(_images([[P + 1, 1], [1, 1]], [[1], [0]]), 2, 1)
    assert out.solution == [[Fraction(1, P), Fraction(-1, P)]]
    assert out.nullity == 0


def test_solve_rational_refuses_a_system_inconsistent_over_q():
    with pytest.raises(InconsistentSystem):
        solve_rational(_images([[1], [1]], [[0], [1]]), 1, 1)
