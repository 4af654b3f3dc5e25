"""Vectorized moduli enumeration and stratum classification over F_p.

This is the engine behind the moduli-enum verb and the census.  It runs on
numpy int64 arrays of least residues; sampled tests compare it with the
scalar solvers j8_candidates, solve_j9_j10 and strata.detect_group.
Discrete logarithms to a fixed primitive root turn the
weighted-projective constraints into affine arithmetic modulo p - 1.

_prefixes lists the (J2..J7) prefixes in one array, from one Bezout
congruence on their exponents per support.  moduli_rows takes them
CHUNK_ROWS at a time and evaluates only the 22 syzygy blocks on them.
The J8 values of a prefix are the x in F_p where
covariants.j8_determinant, the determinant j8_quintic is built from,
vanishes on the block values mod p; its leading coefficient is the
constant -1, so it has the roots of the quintic at every p.  Where delta
of the (J9, J10) closed form is nonzero, the closed form gives the one
candidate; where it is zero, R1 and R2 are evaluated at all p^2 points
(J9, J10) and a row is built only where both vanish.  Every candidate is
then checked on all five relations by covariants._relation_values, the
evaluator the scalar solvers use, run on the columns of the candidate
rows.  classify_rows walks the strata in the order of
strata.detect_group and evaluates each stratum's equations one at a
time, fewest terms first, each only on the rows where the ones before it
vanished.

Primes are at most MAX_FAST_PRIME = 2^20, and a census that would not
fit in physical memory is refused before anything is allocated.
Residue arithmetic stays in int64: a product of two residues is below
2^40, and the (J9, J10) closed form stays below 2^63.
J-polynomials are evaluated by PolySet: monomials in int64, combined
with the coefficients in float64, which is exact while
n_monomials * (p - 1)^2 < 2^53, that is for up to 8192 monomials here.
"""

import functools
import os
from itertools import combinations
from math import gcd

import numpy as np

from .covariants import (
    SyzygyCoefficients, _relation_values, derive_syzygies, discriminant_poly,
    j8_determinant, j9_j10_closed_form, r1_r2_linear,
)
from .fields import PrimeField, ext_gcd_multi, generates_units
from .jpoly import CHUNK_ROWS, WEIGHTS, PolySet

MAX_FAST_PRIME = 1 << 20

#: peak RSS per class: run_census(17) peaked at 681 MB for its 17^5 classes
BYTES_PER_CLASS = 480


class _ModCtx:
    """Tables for F_p arithmetic on arrays."""

    def __init__(self, p):
        self.p = p
        self.g = next(g for g in range(1, p) if generates_units(g, p))
        pw = np.ones(p - 1, dtype=np.int64)
        for i in range(1, p - 1):
            pw[i] = pw[i - 1] * self.g % p
        self.POW = pw
        log = np.zeros(p, dtype=np.int64)
        log[pw] = np.arange(p - 1)
        self.LOG = log

    def inv(self, arr):
        """Vector inverse of nonzero residues."""
        return self.POW[(-self.LOG[arr]) % (self.p - 1)]


def _prefixes(ctx):
    """Every (J2..J7) prefix the completions start from: rows (N, 6) of
    residues, the rows of one support contiguous.

    In exponents e to the primitive root g, a support with weight gcd d
    and ext_gcd_multi coefficients c keeps the e with sum(c_i e_i) mod
    (p - 1) < gcd(d, p - 1).  Sum 0 gives the canonical representatives
    of P(2..7).  Sum t gives them rescaled by g^(t w_i / d), as
    sum(c_i (e_i + t w_i / d)) = t: the same classes of P(2..7), whose
    completions by J8, J9 and J10 reach other classes of P(2..10).
    """
    order = ctx.p - 1
    out = []
    for size in range(1, 7):
        for supp in combinations(range(6), size):
            d, cs = ext_gcd_multi([WEIGHTS[i] for i in supp])
            k = len(supp)
            c = np.array(cs, dtype=np.int64) % order
            free = np.indices((order,) * (k - 1)).reshape(
                k - 1, order ** (k - 1))
            partial = c[:-1] @ free % order
            for last in range(order):
                keep = (partial + c[-1] * last) % order < gcd(d, order)
                rows = np.zeros((int(keep.sum()), 6), dtype=np.int64)
                rows[:, list(supp[:-1])] = ctx.POW[free[:, keep]].T
                rows[:, supp[-1]] = ctx.POW[last]
                out.append(rows)
    return np.concatenate(out)


def _check_memory(p):
    """Refuse a census that cannot fit in physical memory.

    A census holds its p^5 classes at once (rows, sort permutations,
    labels); BYTES_PER_CLASS each also covers the prefix stage.
    """
    need = BYTES_PER_CLASS * p ** 5
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError("the census at p = %d needs about %.3g GiB; "
                         "physical memory is %.3g GiB"
                         % (p, need / 2 ** 30, have / 2 ** 30))


def moduli_rows(field, filter_singular=True):
    """The canonical representative rows (N, 9) of every moduli point."""
    if not isinstance(field, PrimeField):
        raise TypeError("fast enumeration runs over prime fields")
    p = field.p
    if p > MAX_FAST_PRIME:
        raise ValueError("prime too large for the census engine")
    _check_memory(p)
    ctx = _ModCtx(p)
    block_set = derive_syzygies().block_set

    prefixes = _prefixes(ctx)
    rows9 = np.concatenate([
        _completions(ctx, block_set, prefixes[start:start + CHUNK_ROWS])
        for start in range(0, prefixes.shape[0], CHUNK_ROWS)])
    rows9 = normalize_rows(ctx, rows9)
    # sorted lexicographically, each row once
    rows9 = rows9[np.lexsort(rows9.T[::-1])]
    keep = np.ones(rows9.shape[0], dtype=bool)
    keep[1:] = (rows9[1:] != rows9[:-1]).any(axis=1)
    rows9 = rows9[keep]
    if filter_singular:
        disc = PolySet([discriminant_poly()]).evaluate_mod(rows9, p)[:, 0]
        rows9 = rows9[disc != 0]
    return rows9


def _completions(ctx, block_set, prefixes):
    """The nonzero rows (N, 9) on all five relations that extend the
    (n, 6) prefix rows."""
    p = ctx.p

    def mod(a):
        return a % p

    bvals = block_set.evaluate_mod(prefixes, p)
    # (prefix, j8) pairs: the roots of the J8 quintic
    v = SyzygyCoefficients.named(bvals.T)
    hits = [np.nonzero(j8_determinant(v, x, mod) == 0)[0] for x in range(p)]
    idx = np.concatenate(hits)
    j8 = np.repeat(np.arange(p, dtype=np.int64), [h.size for h in hits])
    v = SyzygyCoefficients.named(bvals[idx].T)
    delta_v, n9, n10 = (a % p for a in j9_j10_closed_form(v, j8))

    # generic pairs: the closed form gives the one candidate
    gi = np.nonzero(delta_v)[0]
    dinv = ctx.inv(delta_v[gi])
    generic = np.column_stack([n9[gi] * dinv % p, n10[gi] * dinv % p])
    # degenerate pairs (delta = 0): every point where R1 and R2 vanish
    di = np.nonzero(delta_v == 0)[0]
    k, j9, j10 = _r1_r2_zeros({name: col[di] for name, col in v.items()},
                              j8[di], p)
    pair = np.concatenate([gi, di[k]])
    cand = np.column_stack([
        prefixes[idx[pair]], j8[pair],
        np.concatenate([generic, np.column_stack([j9, j10])])])
    values = _relation_values(
        cand.T, SyzygyCoefficients.named(bvals[idx[pair]].T), mod)
    cand = cand[~np.any(values, axis=0)]
    return cand[cand.any(axis=1)]


def _r1_r2_zeros(v, j8, p):
    """(k, j9, j10): every pair k, with block values v[name][k] and
    J8 = j8[k], and every point (j9, j10) of F_p^2 where R1 and R2 vanish.

    Where both linear forms are zero that is all p^2 points, where they
    have rank 1 a line, and where they are inconsistent nothing.
    """
    (q, a7, a6), (r, s, b7) = ((c % p for c in form)
                               for form in r1_r2_linear(v, j8))
    j10 = np.arange(p, dtype=np.int64)
    ks, j9s, j10s = [], [], []
    for j9 in range(p):
        ok = ((q + a7 * j9)[:, None] + a6[:, None] * j10) % p == 0
        ok &= ((r + s * j9)[:, None] + b7[:, None] * j10) % p == 0
        k, b = np.nonzero(ok)
        ks.append(k)
        j9s.append(np.full(k.size, j9, dtype=np.int64))
        j10s.append(b)
    return np.concatenate(ks), np.concatenate(j9s), np.concatenate(j10s)


def normalize_rows(ctx, rows):
    """Vectorized canonical representatives (same convention as
    wps_normalize) for rows of weight (2..10) tuples."""
    p = ctx.p
    order = p - 1
    n = rows.shape[0]
    out = rows.copy()
    nonzero = rows != 0
    patterns = nonzero.dot(1 << np.arange(9, dtype=np.int64))
    for pat in np.unique(patterns):
        supp = [i for i in range(9) if (int(pat) >> i) & 1]
        sel = np.nonzero(patterns == pat)[0]
        d, cs = ext_gcd_multi([WEIGHTS[i] for i in supp])
        lam_log = np.zeros(sel.size, dtype=np.int64)
        for i, c in zip(supp, cs):
            lam_log = (lam_log + (c % order) * ctx.LOG[rows[sel, i]]) % order
        for i in supp:
            e = WEIGHTS[i] // d
            new_log = (ctx.LOG[rows[sel, i]] - e * lam_log) % order
            out[sel, i] = ctx.POW[new_log]
    return out


@functools.cache
def _stratum_stages():
    """Stratum name -> one PolySet per equation of its system, fewest
    terms first."""
    from .strata import STRATA_ORDER, stratum_systems
    systems = stratum_systems()
    return {name: [PolySet([eq]) for eq in
                   sorted(systems[name], key=lambda eq: len(eq.terms))]
            for name in STRATA_ORDER}


def classify_rows(field, rows):
    """Stratum label per row, by the detection cascade, fully vectorized.

    Each stratum's equations are evaluated one at a time, each only on
    the rows where the ones before it vanished.  Returns an integer array
    indexing into strata_labels().
    """
    from .strata import STRATA_ORDER
    p = field.p
    generic = len(STRATA_ORDER)                 # the label of C2
    label = np.full(rows.shape[0], generic, dtype=np.int64)
    left = np.arange(rows.shape[0])             # rows not yet labelled
    for k, name in enumerate(STRATA_ORDER):
        hit = left
        for stage in _stratum_stages()[name]:
            if not hit.size:
                break
            hit = hit[stage.evaluate_mod(rows[hit], p)[:, 0] == 0]
        label[hit] = k
        left = left[label[left] == generic]
    return label


def strata_labels():
    from .strata import STRATA_ORDER
    return list(STRATA_ORDER) + ["C2"]
