import random
import zlib
from fractions import Fraction

import pytest

from octicmoduli.errors import (
    CompositeModulus, EmptyInput, ReducibleModulus, SmallCharacteristic,
    ZeroNorm,
)
from octicmoduli.fields import (
    ExtField, PrimeField, QQ, QuadExtQ, ext_gcd_multi, field_make,
    norm_solve, sqrt_opt,
)
from octicmoduli.unipoly import rational_roots


def test_field_make_specs():
    assert field_make("Q") is QQ
    assert field_make("Fp:11").p == 11
    F = field_make("Fpk:11:2")
    assert F.order == 121 and F.modulus == (1, 0, 1)
    G = field_make("Fpk:11:2:%s" % ",".join(str(c) for c in F.modulus))
    assert G == F
    assert field_make(F.serialize()) == F


def test_field_make_rejects():
    with pytest.raises(CompositeModulus):
        field_make("Fp:10")
    with pytest.raises(SmallCharacteristic):
        field_make("Fp:7")
    with pytest.raises(ReducibleModulus):
        ExtField(11, 2, (0, 0, 1))          # t^2 is reducible
    with pytest.raises(ReducibleModulus):
        ExtField(11, 2, (1, 0, 2))          # not monic


def test_prime_field_is_the_degree_one_field():
    assert PrimeField(11).k == 1
    assert ExtField(11, 3).k == 3


def test_small_characteristic_opt_in():
    F7 = field_make("Fp:7", allow_small=True)
    assert F7(9) == F7(2)


@pytest.mark.parametrize("spec", ["Q", "Fp:11", "Fpk:11:2"])
def test_field_axioms_random(spec):
    field = field_make(spec)
    seed = zlib.crc32(spec.encode())
    print("seed", seed)
    rng = random.Random(seed)

    def rand():
        if spec == "Q":
            return QQ(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
        if spec == "Fp:11":
            return field(rng.randrange(11))
        return field([rng.randrange(11), rng.randrange(11)])

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        if a:
            assert a * (field.one / a) == field.one


def test_sqrt_examples(F11):
    assert sqrt_opt(F11, F11(3)) == F11(5)
    assert sqrt_opt(F11, F11(2)) is None
    assert sqrt_opt(QQ, Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_opt(QQ, Fraction(2)) is None


def test_sqrt_properties():
    """Every square gets the root with the smaller element_key; 13, 17
    and 97 are 1 mod 4 (97 - 1 = 2^5 * 3), so Tonelli-Shanks runs its
    loop over the 2-power part."""
    for p in (11, 13, 17, 97):
        F = PrimeField(p)
        for a in range(p):
            r = sqrt_opt(F, F(a))
            if r is not None:
                assert r * r == F(a)
                assert F.element_key(r) <= F.element_key(-r)
            elif a:
                assert F(a) ** ((p - 1) // 2) != F.one   # Euler criterion
    E = ExtField(11, 2)
    hits = 0
    for a in E.elements():
        r = sqrt_opt(E, a)
        if r is not None:
            hits += 1
            assert r * r == a
            assert E.element_key(r) <= E.element_key(-r)
    assert hits == 1 + (121 - 1) // 2


def test_rational_roots_repeated_root_and_quadratic_factor():
    """(x - 2/3)^3 (x + 5) (x^2 + 7): the squarefree part is taken
    before the modular search, and x^2 + 7 has no rational root."""
    f = [Fraction(1)]
    for factor in ([Fraction(-2, 3), 1], [Fraction(-2, 3), 1],
                   [Fraction(-2, 3), 1], [5, 1], [7, 0, 1]):
        f = [sum(f[i] * factor[k - i] for i in range(len(f))
                 if 0 <= k - i < len(factor))
             for k in range(len(f) + len(factor) - 1)]
    f = [c * 6 for c in f]
    assert rational_roots(f) == [(Fraction(-5), 1), (Fraction(2, 3), 3)]


def test_ext_gcd_multi():
    assert ext_gcd_multi((5, 7)) == (1, [3, -2])
    assert ext_gcd_multi((4,)) == (4, [1])
    g, c = ext_gcd_multi((6, 10, 15))
    assert g == 1 and 6 * c[0] + 10 * c[1] + 15 * c[2] == 1
    with pytest.raises(EmptyInput):
        ext_gcd_multi(())


def test_ext_gcd_bezout_random():
    rng = random.Random(5)
    for _ in range(50):
        ds = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
        g, c = ext_gcd_multi(ds)
        assert sum(x * d for x, d in zip(c, ds)) == g
        assert all(d % g == 0 for d in ds)


def test_norm_solve(F11):
    assert norm_solve(F11, F11(7)) == F11(7)
    E = ExtField(11, 2)
    a = norm_solve(E, F11(1))
    assert a ** 12 == E.one
    b = norm_solve(E, F11(2))
    assert b ** 12 == E(2)
    with pytest.raises(ZeroNorm):
        norm_solve(E, F11(0))


def test_norm_solve_large_field():
    E = ExtField(11, 5)        # order > 4096, generator-based branch
    for lam in (2, 7, 10):
        a = norm_solve(E, PrimeField(11)(lam))
        assert a ** ((11 ** 5 - 1) // 10) == E(lam)


def test_frobenius_fixes_prime_field_exactly():
    E = ExtField(11, 2)
    fixed = [x for x in E.elements() if x ** 11 == x]
    assert len(fixed) == 11
    assert all(not any(x.coeffs[1:]) for x in fixed)
    # Frobenius is a field automorphism
    import random as _r
    rng = _r.Random(3)
    for _ in range(25):
        a = E([rng.randrange(11), rng.randrange(11)])
        b = E([rng.randrange(11), rng.randrange(11)])
        assert (a + b) ** 11 == a ** 11 + b ** 11
        assert (a * b) ** 11 == a ** 11 * b ** 11


def test_quadratic_extension_of_q():
    K = QuadExtQ(5)
    r = K.gen()
    assert r * r == K(5)
    a = K(Fraction(1, 2)) + r
    assert a * (K.one / a) == K.one
    assert K.sqrt(K(5)) == r
