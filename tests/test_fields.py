import functools
import hashlib
import random
import zlib
from fractions import Fraction

import pytest

from octicmoduli.errors import (
    CompositeModulus, EmptyInput, ReducibleModulus, SmallCharacteristic,
    Unresolved, ZeroNorm,
)
from octicmoduli.fields import (
    ExtField, PrimeField, QQ, QuadExtQ, _default_modulus, _is_irreducible,
    ext_gcd_multi, field_make, norm_solve,
)
from octicmoduli import fields, unipoly
from octicmoduli.forms import (
    BinaryForm, embed_field, roots_in_splitting_field, splitting_extension,
)
from octicmoduli.strata import FieldContext
from octicmoduli.unipoly import rational_roots

from conftest import polymul


def test_field_make_specs():
    assert field_make("Q") is QQ
    assert field_make("Fp:11").p == 11
    F = field_make("Fpk:11:2")
    assert F.order == 121 and F.modulus == (1, 0, 1)
    G = field_make("Fpk:11:2:%s" % ",".join(str(c) for c in F.modulus))
    assert G == F


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
    assert F11.sqrt(F11(3)) == F11(5)
    assert F11.sqrt(F11(2)) is None
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None


def test_sqrt_properties():
    """Every square gets the root with the smaller element_key; 13, 17
    and 97 are 1 mod 4 (97 - 1 = 2^5 * 3), so Tonelli-Shanks runs its
    loop over the 2-power part."""
    for p in (11, 13, 17, 97):
        F = PrimeField(p)
        for a in range(p):
            r = F.sqrt(F(a))
            if r is not None:
                assert r * r == F(a)
                assert F.element_key(r) <= F.element_key(-r)
            elif a:
                assert F(a) ** ((p - 1) // 2) != F.one   # Euler criterion
    E = ExtField(11, 2)
    hits = 0
    for a in E.elements():
        r = E.sqrt(a)
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


def _fresh_norm_solve(ext, lam):
    """norm_solve's answer by a scan of its own: the smallest preimage in
    canonical order on fields of order <= 4096, else the first element
    whose norm generates F_p^*, raised to the discrete log of lam."""
    p, e = ext.p, (ext.order - 1) // (ext.p - 1)
    if ext.order <= 4096:
        return next(a for a in ext.elements() if a and a ** e == ext(lam))
    for b in ext.elements():
        nb = (b ** e).coeffs[0]
        if b and nb and all(pow(nb, (p - 1) // q, p) != 1 for q in (2, 5)):
            return b ** next(x for x in range(p - 1)
                             if pow(nb, x, p) == lam)


def test_norm_solve_scans_each_field_once(monkeypatch):
    """norm_solve over F_{11^2}, F_{11^4} and F_{11^8}, twice for every
    lam, gives the answer of a fresh scan each time, and walks the
    elements of each field once."""
    F = PrimeField(11)
    exts = [ExtField(11, k) for k in (2, 4, 8)]
    want = {(E.k, lam): _fresh_norm_solve(E, lam)
            for E in exts for lam in range(1, 11)}
    scans = []
    elements = ExtField.elements

    def counted(self):
        scans.append(self.k)
        return elements(self)

    monkeypatch.setattr(ExtField, "elements", counted)
    fields._first_preimages.cache_clear()
    fields._norm_generator.cache_clear()
    for E in exts:
        for lam in list(range(1, 11)) * 2:
            got = norm_solve(E, F(lam))
            assert got == want[(E.k, lam)]
            assert got ** ((E.order - 1) // 10) == E(lam)
    assert scans == [2, 4, 8]


def test_default_modulus_at_a_large_prime_skips_the_binomials():
    """No t^5 + c is irreducible over F_1048573 (5 does not divide
    p - 1), so the search goes on to t^5 + t + c at once: the first
    irreducible one, below which every t^5 + t + c is reducible."""
    p = 1048573
    E = ExtField(p, 5)
    c0 = E.modulus[0]
    assert E.modulus == (c0, 1, 0, 0, 0, 1)
    assert _is_irreducible(list(E.modulus), p)
    assert not any(_is_irreducible([c, 1, 0, 0, 0, 1], p)
                   for c in range(c0))


#: sha256 prefix of the "p,k:c0,...,ck" lines of _default_modulus(p, k)
#: for p = 11, 13 and k = 1..24
DEFAULT_MODULI_SHA = "1a9a82330880"


def test_default_moduli_pin():
    text = "".join("%d,%d:%s\n" % (p, k, ",".join(
        str(c) for c in _default_modulus(p, k)))
        for p in (11, 13) for k in range(1, 25))
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == \
        DEFAULT_MODULI_SHA


def test_is_irreducible_matches_a_root_scan():
    """A monic quadratic or cubic over F_11 is irreducible exactly when
    it has no root in F_11: every one of them, Horner on plain ints."""
    p = 11
    for d in (2, 3):
        for n in range(p ** d):
            mod = [n // p ** i % p for i in range(d)] + [1]
            rootless = all(functools.reduce(lambda acc, c: acc * x + c,
                                            reversed(mod), 0) % p
                           for x in range(p))
            assert _is_irreducible(mod, p) == rootless, mod


def test_inverse_of_a_non_unit_raises():
    """In F_11[t]/(t^2), t is a nonzero non-unit, while 3 + 5t is a unit.
    gen() of a degree-1 field is -c_0."""
    R = ExtField._ring(11, (0, 0, 1))
    with pytest.raises(ZeroDivisionError):
        R.gen().inverse()
    assert R([3, 5]).inverse() * R([3, 5]) == R.one
    assert ExtField(11, 1, (3, 1)).gen() == 8


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


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_elements_of_two_fields_do_not_combine(op):
    """F_11 with F_13, and Q(sqrt 2) with Q(sqrt 3), under each operator
    and from either side: a TypeError that names both fields, as between
    two extensions F_{p^k}.  Elements of equal fields still combine."""
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
             "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op]
    pairs = [(PrimeField(11)(3), PrimeField(13)(5), "F_11", "F_13"),
             (QuadExtQ(2).gen(), QuadExtQ(3).gen(),
              "Q(sqrt(2))", "Q(sqrt(3))"),
             (ExtField(11, 2)([1, 2]), ExtField(11, 3)([1, 2, 3]),
              "F_11^2", "F_11^3")]
    for a, b, name_a, name_b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError) as info:
                apply(x, y)
            assert name_a in str(info.value) and name_b in str(info.value)
    assert apply(PrimeField(11)(3), PrimeField(11)(5)) == {
        "+": 8, "-": 9, "*": 4, "/": 5}[op]
    assert apply(QuadExtQ(2).gen(), QuadExtQ(2).gen()) == QuadExtQ(2)(
        {"+": QuadExtQ(2).gen() * 2, "-": 0, "*": 2, "/": 1}[op])


def _random_ext_field(p, k, rng):
    """F_{p^k} on a seeded random monic irreducible modulus (the default
    modulus search is slow for large p and some k)."""
    while True:
        try:
            return ExtField(p, k, [rng.randrange(p) for _ in range(k)] + [1])
        except ReducibleModulus:
            continue


@pytest.mark.parametrize("p", [11, 13, 1048573])
def test_product_matches_poly_mulmod(p):
    """The folded product against unipoly's schoolbook multiplication and
    reduction mod the modulus over F_p, for k = 1..16, on the default
    modulus and a random one."""
    seed = zlib.crc32(b"ext product %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    F = PrimeField(p)
    for k in range(1, 17):
        fields = [_random_ext_field(p, k, rng)]
        if p < 100:
            fields.append(ExtField(p, k))
        for E in fields:
            mod = [F(c) for c in E.modulus]
            for _ in range(8):
                a, b = ([rng.randrange(p) for _ in range(k)] for _ in "ab")
                want = [c.value for c in unipoly.rem(F, unipoly.mul(
                    F, [F(c) for c in a], [F(c) for c in b]), mod)]
                want += [0] * (k - len(want))
                assert (E(a) * E(b)).coeffs == tuple(want), (k, E.modulus)
            assert E(a) * E.zero == E.zero and E(a) * 1 == E(a)


@pytest.mark.parametrize("p", [11, 13, 1048573])
def test_frobenius_matches_powers(p):
    """The linear Frobenius against powering by p^t."""
    seed = zlib.crc32(b"ext frobenius %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    for k in range(1, 17):
        E = _random_ext_field(p, k, rng)
        for _ in range(3):
            a = E([rng.randrange(p) for _ in range(k)])
            for t in sorted({1, k - 1, k, k + 1}):
                assert E.frobenius(a, t) == a ** (p ** t), (k, t)


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
    for d in range(min(n, largest), 0, -1):
        for rest in _partitions(n - d, d):
            yield (d,) + rest


def _octic(field, degrees, rng, squared=(), infinity=0):
    """c * (product of distinct random monic irreducibles of the given
    degrees, those of degree in squared twice), with its top infinity
    coefficients zero: a root at infinity of that multiplicity."""
    poly, taken = [field(rng.randrange(1, field.characteristic))], []
    for d in degrees:
        while True:
            g = [unipoly.random_element(field, rng) for _ in range(d)]
            g.append(field.one)
            if g not in taken and unipoly.factor(field, g) == [(g, 1)]:
                break
        taken.append(g)
        for _ in range(2 if d in squared else 1):
            poly = unipoly.mul(field, poly, g)
    return BinaryForm(field, len(poly) - 1 + infinity,
                      poly + [field.zero] * infinity)


def _roots_by_factoring(f):
    """roots_in_splitting_field as it was: every root of each factor from
    a full factorization over the splitting field, which F_{p^k} enters
    through the least root of its modulus found the same way."""
    field = f.field
    d = max(i for i, c in enumerate(f.coeffs) if c)
    facs = unipoly.factor(field, list(f.coeffs[:d + 1]))
    ext = splitting_extension(field, [unipoly.degree(g) for g, _ in facs])
    emb = ext
    if isinstance(field, ExtField) and ext != field:
        root = unipoly.roots(ext, [ext(c) for c in field.modulus])[0][0]
        emb = lambda a: unipoly.evaluate(ext, a.coeffs, root)
    out = [((ext.one, ext.zero), f.degree - d)] if d < f.degree else []
    for g, mult in facs:
        out += [((r, ext.one), mult * m)
                for r, m in unipoly.roots(ext, [emb(c) for c in g])]
    return ext, out


ROOT_CASES = (
    [("Fp:11", pattern, (), 0) for pattern in _partitions(8)]
    + [("Fp:13", pattern, (), 0) for pattern in
       ((8,), (5, 3), (4, 3, 1), (6, 1, 1), (2, 2, 2, 2), (1,) * 8)]
    + [("Fpk:11:2", pattern, (), 0) for pattern in
       ((4, 4), (4, 2, 1, 1), (3, 3, 2), (2, 2, 2, 1, 1), (1,) * 8)]
    + [(spec, (3, 2), (), 3) for spec in ("Fp:11", "Fp:13", "Fpk:11:2")]
    + [(spec, (2, 3, 1), (2,), 0) for spec in ("Fp:11", "Fp:13", "Fpk:11:2")]
    + [("Fp:11", (1, 4), (1,), 2), ("Fp:13", (1,) * 7, (), 1)])


def test_roots_in_splitting_field_match_a_full_factorization():
    """One root per irreducible factor plus its conjugates, sorted, gives
    the ordered output of a full factorization over the splitting field:
    every factor-degree pattern of an octic over F_11, some over F_13 and
    F_{11^2}, roots at infinity and repeated roots."""
    for spec, degrees, squared, infinity in ROOT_CASES:
        field = field_make(spec)
        seed = zlib.crc32(("roots %s %s %s %d" % (
            spec, degrees, squared, infinity)).encode())
        f = _octic(field, degrees, random.Random(seed), squared, infinity)
        assert f.degree == 8
        ext, got = roots_in_splitting_field(f)
        want_ext, want = _roots_by_factoring(f)
        assert ext == want_ext and got == want, (spec, degrees, seed)


# ---------------------------------------------------------------------------
# oracles for the trace split that share no code with it: plain integer
# products, fields._is_irreducible and scans of whole fields


def _scan_roots(field, polys, elements):
    """For each polynomial (coefficients low first), its zeros among
    elements by Horner's rule, in element_key order."""
    out = [[] for _ in polys]
    for a in elements:
        for f, zeros in zip(polys, out):
            acc = field.zero
            for c in reversed(f):
                acc = acc * a + c
            if not acc:
                zeros.append(a)
    return [sorted(zeros, key=field.element_key) for zeros in out]


def _irreducible(field, rng, d):
    """A random monic irreducible of degree d over F_11 (checked on its
    residues) or over F_{11^2} (d <= 3: no root in a scan)."""
    while True:
        g = [unipoly.random_element(field, rng) for _ in range(d)]
        g.append(field.one)
        if field.k == 1:
            if _is_irreducible([c.value for c in g], field.p):
                return g
        elif not _scan_roots(field, [g], field.elements())[0]:
            return g


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


@pytest.mark.parametrize("spec, d", [("Fp:11", 1), ("Fp:11", 2),
                                     ("Fp:11", 3), ("Fpk:11:2", 2)])
def test_split_finds_a_factor_about_every_other_draw(spec, d):
    """_split of g1 g2, two distinct monic irreducibles of degree d over F
    = F_{11^k} (roots in F_{11^(k d)}), returns g1 or g2.  Its trace lies
    in F_11 and takes each value on all the roots of g1, and on all of g2,
    so a draw splits with probability 2 (5/11)(6/11), about 1/2: 15
    splits take fewer than 4 draws each on average."""
    field = field_make(spec)
    seed = zlib.crc32(("split %s %d" % (spec, d)).encode())
    rng = random.Random(seed)
    count = _CountingRandom(seed)
    for _ in range(15):
        g1 = _irreducible(field, rng, d)
        g2 = g1
        while g2 == g1:
            g2 = _irreducible(field, rng, d)
        f = unipoly.mul(field, g1, g2)
        assert unipoly._split(field, f, field.k * d, count) in (g1, g2)
    assert count.draws / (2 * d * field.k) < 4 * 15, (spec, d, seed)


@pytest.mark.parametrize("p", [11, 13])
def test_factor_multiplies_back_to_irreducibles(p):
    """Over F_p the factors of factor, raised to their multiplicities and
    multiplied as integer lists mod p, give the monic input, and each is
    a distinct monic polynomial that fields._is_irreducible accepts: for
    products of random pieces of degree <= 4 with multiplicities <= 3, of
    total degree below p."""
    F = PrimeField(p)
    seed = zlib.crc32(b"factor oracle %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    for _ in range(40):
        f = [rng.randrange(1, p)]
        while True:
            piece = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
            mult = rng.randint(1, 3)
            if len(f) - 1 + mult * (len(piece) - 1) >= p:
                break
            for _ in range(mult):
                f = [c % p for c in polymul(f, piece)]
        facs = unipoly.factor(F, [F(c) for c in f])
        prod = [1]
        for g, mult in facs:
            res = [c.value for c in g]
            assert res[-1] == 1 and _is_irreducible(res, p), f
            for _ in range(mult):
                prod = [c % p for c in polymul(prod, res)]
        assert prod == [c * pow(f[-1], -1, p) % p for c in f]
        assert len({tuple(g) for g, _ in facs}) == len(facs)


def test_linear_factors_over_f121_are_the_scanned_roots():
    """Over F_{11^2} the roots of the linear factors of factor are the
    zeros a scan of all 121 elements finds: for products of random
    linear factors (some repeated) and random pieces of degree 2 and 3."""
    E = ExtField(11, 2)
    seed = zlib.crc32(b"factor oracle F121")
    print("seed", seed)
    rng = random.Random(seed)
    polys = []
    for _ in range(12):
        f = [E.one]
        for d in [1] * rng.randint(0, 5) + rng.sample([1, 2, 3], 2):
            piece = [unipoly.random_element(E, rng) for _ in range(d)]
            f = unipoly.mul(E, f, piece + [E.one])
        polys.append(f)
    for f, zeros in zip(polys, _scan_roots(E, polys, E.elements())):
        got = sorted((-g[0] for g, _ in unipoly.factor(E, f)
                      if unipoly.degree(g) == 1), key=E.element_key)
        assert got == zeros, f


def test_conjugate_roots_are_the_scanned_roots():
    """conjugate_roots of an irreducible g over F_11 (cubics in F_{11^3},
    quadratics in F_{11^4}) and over F_{11^2} (quadratics in F_{11^4}),
    against a scan of the whole big field."""
    rng = random.Random(zlib.crc32(b"conjugate roots"))
    F, E2 = PrimeField(11), ExtField(11, 2)
    E3, E4 = ExtField(11, 3), ExtField(11, 4)
    cases = [(E3, F, _irreducible(F, rng, 3)) for _ in range(3)]
    cases += [(E4, F, _irreducible(F, rng, 2)) for _ in range(2)]
    cases += [(E4, E2, _irreducible(E2, rng, 2)) for _ in range(2)]
    for big in (E3, E4):
        todo = [(small, g) for b, small, g in cases if b == big]
        polys = [[embed_field(small, big)(c) for c in g] for small, g in todo]
        for (small, _), g, zeros in zip(
                todo, polys, _scan_roots(big, polys, big.elements())):
            assert len(zeros) == len(g) - 1
            assert unipoly.conjugate_roots(big, g, small.k) == zeros


def test_field_context_roots_of_an_irreducible_cubic():
    """FieldContext(F_11).roots of an irreducible cubic moves the working
    field to F_{11^3} and returns the cubic's three roots there in
    element_key order; with a root in F_11 it stays."""
    F = PrimeField(11)
    rng = random.Random(zlib.crc32(b"field context roots"))
    cubics = [_irreducible(F, rng, 3) for _ in range(3)]
    for g in cubics:
        ctx = FieldContext(F)
        got = ctx.roots(g)
        assert ctx.field == ExtField(11, 3)
        big = ctx.field
        assert got == _scan_roots(big, [[big(c) for c in g]],
                                  big.elements())[0]
    ctx = FieldContext(F)
    assert ctx.roots(unipoly.mul(F, [F(3), F.one], cubics[0])) == [F(8)]
    assert ctx.field == F


def test_field_context_lifts_one_embedding_at_a_time():
    """Two square roots of non-squares grow F_11 to F_{11^2} and then to
    F_{11^4}; ctx(x) lifts a value of either earlier field through each
    embedding in turn and leaves a working-field value alone."""
    F = PrimeField(11)
    ctx = FieldContext(F)
    r2 = ctx.sqrt(F(2))
    E2 = ctx.field
    assert E2 == ExtField(11, 2) and r2 * r2 == E2(2)
    x = E2([3, 7])
    y = next(a for a in E2.elements() if a and E2.sqrt(a) is None)
    r4 = ctx.sqrt(y)
    E4 = ctx.field
    assert E4 == ExtField(11, 4)
    lift = embed_field(E2, E4)
    assert r4 * r4 == lift(y)
    assert ctx(x) == lift(x) and ctx(F(5)) == E4(5)
    assert ctx(r4) is r4


def test_field_context_over_q_extends_once():
    """Over Q a square root of 2 moves the working field to Q(sqrt(2)); a
    square root of sqrt(2) would need a degree-4 extension of Q and is
    refused with Unresolved."""
    ctx = FieldContext(QQ)
    r = ctx.sqrt(2)
    assert isinstance(ctx.field, QuadExtQ) and r * r == ctx.field(2)
    assert ctx(Fraction(1, 3)) == ctx.field(Fraction(1, 3))
    with pytest.raises(Unresolved, match="degree-4 extension"):
        ctx.sqrt(r)


def test_ext_elements_of_two_fields_do_not_mix():
    """+, -, * and / between F_{11^2} and F_{11^3} are refused both ways,
    while two equal, separately built F_{11^2} objects still mix."""
    a = ExtField(11, 2)([1, 2])
    b = ExtField(11, 3)([1, 2, 3])
    for x, y in ((a, b), (b, a)):
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v, lambda u, v: u / v):
            with pytest.raises(TypeError):
                op(x, y)
    F, G = ExtField(11, 2), ExtField(11, 2)
    assert F is not G
    x, y = F([1, 2]), G([3, 4])
    assert x + y == F([4, 6]) and x - y == F([9, 9])
    assert x * y == F([1, 2]) * F([3, 4])
    assert (x / y) * y == x
