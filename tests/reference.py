"""Reference bodies of the form arithmetic that the library runs as
residue programs: the transvectant by its closed formula, the product,
the GL2 action and the quartic substitution, one field operation per
term on the forms' own coefficients, over any field.  The tests compare
the programs with them.
"""

from fractions import Fraction
from math import comb

from octicmoduli.forms import BinaryForm
from octicmoduli.reconstruct import QUARTIC_MULTISETS, _substitution_stages


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


def reference_gl2_act(mat, f):
    """gl2_act on field elements: the sum of f_i (aX + bZ)^i
    (cX + dZ)^(n - i), the powers of the two linear forms multiplied out
    by reference_product."""
    field = f.field
    n = f.degree
    lin1 = BinaryForm(field, 1, [mat.b, mat.a])   # aX + bZ
    lin2 = BinaryForm(field, 1, [mat.d, mat.c])   # cX + dZ
    pow1 = [BinaryForm(field, 0, [field.one])]
    pow2 = [BinaryForm(field, 0, [field.one])]
    for _ in range(n):
        pow1.append(reference_product(pow1[-1], lin1))
        pow2.append(reference_product(pow2[-1], lin2))
    out = BinaryForm(field, n, [field.zero] * (n + 1))
    for i, a in enumerate(f.coeffs):
        if a:
            out = out + reference_product(pow1[i], pow2[n - i]).scale(a)
    return out


def reference_substitute_quartic(field, quartic_values, chis):
    """substitute_quartic walked on field elements: the terms of
    _substitution_stages, one product of elements each."""
    vals = ([c for chi in chis for c in chi.coeffs]
            + [quartic_values[mset] for mset in QUARTIC_MULTISETS])
    for stage in _substitution_stages():
        vals += [sum([c * vals[u] * vals[v] for c, u, v in terms],
                     field.zero) for terms in stage]
    return BinaryForm(field, 8, vals[-9:])
