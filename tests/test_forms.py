import random
import zlib
from fractions import Fraction

import pytest

from octicmoduli.errors import (
    DegreeTooSmall, OrderTooHigh, SingularMatrix, ZeroForm,
)
from octicmoduli.fields import ExtField, QQ
from octicmoduli.forms import (
    BinaryForm, Gl2Matrix, disc_resultant, embed_field, gl2_act,
    roots_in_splitting_field, transvect,
)


def rform(field, n, rng, bound=9):
    return BinaryForm(field, n, [rng.randint(-bound, bound)
                                 for _ in range(n + 1)])


def test_transvectant_examples():
    x2 = BinaryForm(QQ, 2, [0, 0, 1])
    z2 = BinaryForm(QQ, 2, [1, 0, 0])
    assert transvect(x2, z2, 1) == BinaryForm(QQ, 2, [0, 1, 0])
    assert transvect(x2, x2, 2).is_zero()
    # (l1^4, l2^6)_2 = [l1,l2]^2 l1^2 l2^4 with l1 = x+z, l2 = x-z
    l1 = BinaryForm(QQ, 1, [1, 1])
    l2 = BinaryForm(QQ, 1, [-1, 1])
    lhs = transvect(l1 * l1 * l1 * l1, l2 * l2 * l2 * l2 * l2 * l2, 2)
    rhs = (l1 * l1 * (l2 * l2 * l2 * l2)).scale(4)
    assert lhs == rhs


def test_transvectant_order_bound():
    f = BinaryForm(QQ, 4, [1, 0, 0, 0, 1])
    with pytest.raises(OrderTooHigh):
        transvect(f, f, 5)


def test_linear_power_law_random():
    rng = random.Random(1)
    for _ in range(20):
        a1, b1, a2, b2 = (rng.randint(-5, 5) for _ in range(4))
        if a1 * b2 - a2 * b1 == 0:
            continue
        r1, r2 = rng.randint(1, 6), rng.randint(1, 6)
        l1 = BinaryForm(QQ, 1, [b1, a1])
        l2 = BinaryForm(QQ, 1, [b2, a2])
        p1 = BinaryForm(QQ, 0, [1])
        for _ in range(r1):
            p1 = p1 * l1
        p2 = BinaryForm(QQ, 0, [1])
        for _ in range(r2):
            p2 = p2 * l2
        for h in range(0, min(r1, r2) + 1):
            lhs = transvect(p1, p2, h)
            bracket = Fraction(a1 * b2 - a2 * b1) ** h
            rhs = BinaryForm(QQ, 0, [1])
            for _ in range(r1 - h):
                rhs = rhs * l1
            for _ in range(r2 - h):
                rhs = rhs * l2
            assert lhs == rhs.scale(bracket)


def test_transvectant_bilinear_and_symmetry(F11):
    rng = random.Random(2)
    for _ in range(10):
        f = rform(F11, 8, rng)
        g = rform(F11, 8, rng)
        h = rform(F11, 8, rng)
        alpha = F11(rng.randrange(1, 11))
        lhs = transvect(f.scale(alpha) + g, h, 3)
        rhs = transvect(f, h, 3).scale(alpha) + transvect(g, h, 3)
        assert lhs == rhs
        for k in (1, 2, 3, 4):
            sign = -1 if k % 2 else 1
            assert transvect(f, g, k) == transvect(g, f, k).scale(sign)


def test_gl2_action(F11):
    rng = random.Random(3)
    f = rform(F11, 8, rng)
    ident = Gl2Matrix(F11, 1, 0, 0, 1)
    assert gl2_act(ident, f) == f
    lam = F11(3)
    diag = Gl2Matrix(F11, lam, 0, 0, 1)
    acted = gl2_act(diag, f)
    assert acted.coeffs == tuple(c * lam ** i
                                 for i, c in enumerate(f.coeffs))
    for _ in range(10):
        m1 = Gl2Matrix(F11, *[rng.randrange(11) for _ in range(4)])
        m2 = Gl2Matrix(F11, *[rng.randrange(11) for _ in range(4)])
        if not m1.det() or not m2.det():
            continue
        assert gl2_act(m1, gl2_act(m2, f)) == gl2_act(m2 * m1, f)
    with pytest.raises(SingularMatrix):
        gl2_act(Gl2Matrix(F11, 1, 2, 2, 4), f)


def test_disc_examples():
    # eight distinct roots: x z (x^2 - z^2)(x^2 - 4z^2)(x^2 - 9z^2)
    f = BinaryForm(QQ, 8, [0, -36, 0, 49, 0, -14, 0, 1, 0])
    assert disc_resultant(f) != 0
    assert disc_resultant(BinaryForm(QQ, 8, [0, 0, 0, 0, 0, 0, 1, 0, 0])) == 0
    singular = BinaryForm(QQ, 8, [-125, 0, 0, 0, 0, 8, 0, 0, 0])
    assert disc_resultant(singular) == 0
    with pytest.raises(DegreeTooSmall):
        disc_resultant(BinaryForm(QQ, 1, [1, 1]))


def test_disc_weight_property(F11):
    rng = random.Random(4)
    for _ in range(6):
        f = rform(F11, 8, rng)
        m = Gl2Matrix(F11, *[rng.randrange(11) for _ in range(4)])
        if not m.det():
            continue
        assert disc_resultant(gl2_act(m, f)) == \
            disc_resultant(f) * m.det() ** (8 * 7)


def test_roots_in_splitting_field(F11):
    f = BinaryForm(F11, 8, [-1, 0, 0, 0, 0, 0, 0, 0, 1])   # X^8 - Z^8
    ext, roots = roots_in_splitting_field(f)
    assert sum(m for _, m in roots) == 8
    assert len(roots) == 8
    assert isinstance(ext, ExtField) and ext.k == 2
    for (x, z), _ in roots:
        assert x ** 8 == z ** 8

    g = BinaryForm(F11, 8, [0, 0, 0, 0, 0, 0, 0, 1, 0])    # X^7 Z
    ext2, roots2 = roots_in_splitting_field(g)
    mults = {(bool(x), bool(z)): m for (x, z), m in roots2}
    assert mults[(False, True)] == 7       # (0 : 1) seven times
    assert mults[(True, False)] == 1       # root at infinity once

    with pytest.raises(ZeroForm):
        roots_in_splitting_field(BinaryForm(F11, 8, [0] * 9))


def test_roots_vieta(F11):
    rng = random.Random(5)
    for _ in range(5):
        f = rform(F11, 8, rng)
        if f.is_zero():
            continue
        ext, roots = roots_in_splitting_field(f)
        # multiply the linear factors back together
        prod = BinaryForm(ext, 0, [ext.one])
        for (x, z), m in roots:
            # root (x : z) <-> factor (z X - x Z); at infinity: Z
            lin = BinaryForm(ext, 1, [-x, z]) if z else \
                BinaryForm(ext, 1, [ext.one, ext.zero])
            for _ in range(m):
                prod = prod * lin
        emb = lambda c: ext(c.value)
        fb = f.to_field(ext, emb)
        lead_f = next(c for c in reversed(fb.coeffs) if c)
        lead_p = next(c for c in reversed(prod.coeffs) if c)
        assert fb.scale(lead_p) == prod.scale(lead_f)


def test_embed_field(F11):
    """The identity on (F, F), coercion from F_11, and a ring map
    F_{11^2} -> F_{11^4} that is one-to-one."""
    E2, E3, E4 = ExtField(11, 2), ExtField(11, 3), ExtField(11, 4)
    for F in (F11, E2, QQ):
        assert embed_field(F, F) is F
    assert embed_field(F11, E3)(F11(7)) == E3(7)
    emb = embed_field(E2, E4)
    assert emb(E2.one) == E4.one and emb(E2.gen()) ** 2 == emb(E2(-1))
    seed = zlib.crc32(b"embed F_11^2 into F_11^4")
    print("seed", seed)
    rng = random.Random(seed)
    for _ in range(20):
        a, b = (E2([rng.randrange(11), rng.randrange(11)]) for _ in "ab")
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
        assert (emb(a) == emb(b)) == (a == b)
