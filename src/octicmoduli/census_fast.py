"""Vectorized moduli enumeration and stratum classification over F_p.

This is the engine behind the moduli-enum verb and the census.  It runs on
numpy int64 arrays of least residues; sampled tests compare it with the
scalar solvers j8_candidates, solve_j9_j10 and strata.detect_group.
Discrete logarithms to a fixed primitive root turn the
weighted-projective constraints into affine arithmetic modulo p - 1.

moduli_rows is one streaming pass.  _prefixes yields the (J2..J7)
prefixes, support by support, from one Bezout congruence on their
exponents; no grid it builds has more than (p - 1)^4 rows.  They are taken
CHUNK_ROWS at a time, and on each chunk only the 22 syzygy blocks are
evaluated.  The J8 values of a prefix are the x in F_p where
covariants.j8_determinant, the determinant j8_quintic is built from,
vanishes on the block values mod p; its leading coefficient is the
constant -1, so it has the roots of the quintic at every p.  It has
degree 5 in x, so one call evaluates it at x = 0..5 on (n, 1) block
columns and it is interpolated to the rest of F_p.  Where delta of the
(J9, J10) closed form is nonzero, the closed form gives the one
candidate; where it is zero, R1 and R2 have rank at most 1 and vanish
together on a line, on all of F_p^2 or nowhere.  Every candidate is then
checked on all five relations by covariants._relation_values, the
evaluator the scalar solvers use, run on the columns of the candidate
rows.  The chunk's rows are normalized with Bezout coefficients read from
tables by support pattern, and only one int64 key a row is kept, key =
sum r_i p^(8 - i): its order is the lexicographic order of the rows, as
0 <= r_i < p.  One np.unique on the keys of all chunks sorts and
deduplicates them, the discriminant filter runs on chunks of decoded
keys, and the survivors are decoded once into the (N, 9) rows.
classify_rows evaluates every stratum's first equation on a chunk of rows
in one pass, then walks the strata in the order of strata.detect_group,
each stratum's other equations one at a time, only on the unlabelled rows
where the ones before it vanished: fewest terms first, except that
equations which vanish at the invariants of a few random octics over F_p,
and so likely on every row, go last.

Primes are at most MAX_FAST_PRIME = 127, so that p^9 < 2^63 and keys fit
in int64, and a census that would not fit in physical memory is refused
before anything is allocated.  Residue arithmetic stays in int64 and a
formula is reduced mod p once, at its end: on residues below 127 a
product of two is below 2^14, every intermediate of the J8 determinant
at x <= 5 below 2^42, a relation value below 2^31 and the (J9, J10)
closed form far below 2^63.  J-polynomials are evaluated by
PolySet.evaluate_mod: each monomial is g to the sum of its variables'
discrete logarithms, read from the same tables of powers and logarithms
of a primitive root g (fields.log_tables) as the congruences above, and
the monomials are combined with the coefficients in float64, which is
exact while n_monomials * (p - 1)^2 < 2^53.
"""

import functools
import os
import random
from itertools import combinations
from math import gcd, prod

import numpy as np

from .covariants import (
    SyzygyCoefficients, _relation_values, derive_syzygies, discriminant_poly,
    j8_determinant, j9_j10_closed_form, r1_r2_linear, shioda,
)
from .fields import PrimeField, ext_gcd_multi, log_tables
from .forms import BinaryForm
from .jpoly import WEIGHTS, PolySet

#: the largest prime whose row keys fit in int64: 127^9 < 2^63 <= 131^9
MAX_FAST_PRIME = 127

#: the memory budget of a class: the census in a fresh process peaked at
#: 88 to 102 bytes a class at p = 23, 29 and 31, of which its int64 rows
#: and labels are 80 (at p = 17 the interpreter's 50 MB make it 135)
BYTES_PER_CLASS = 128

#: rows per chunk of prefixes in moduli_rows, and of keys in its
#: discriminant filter
CHUNK_ROWS = 4096

#: rows per chunk of classify_rows: a stage's evaluation plan is built
#: once per prime, so chunks of 16,384 rows classify p = 11 as fast as
#: chunks of 65,536, at a lower peak
CLASSIFY_ROWS = 1 << 14


class _ModCtx:
    """Tables for F_p arithmetic on arrays (fields.log_tables)."""

    def __init__(self, p):
        self.p = p
        self.g, self.POW, self.LOG = log_tables(p)

    def inv(self, arr):
        """Vector inverse of nonzero residues."""
        return self.POW[(-self.LOG[arr]) % (self.p - 1)]


def _prefixes(ctx):
    """Every (J2..J7) prefix the completions start from, as (n, 6) arrays
    of residues, the rows of one support together; no grid is larger
    than (p - 1)^4 rows.

    In exponents e to the primitive root g, a support with weight gcd d
    and ext_gcd_multi coefficients c keeps the e with sum(c_i e_i) mod
    (p - 1) < gcd(d, p - 1).  Sum 0 gives the canonical representatives
    of P(2..7).  Sum t gives them rescaled by g^(t w_i / d), as
    sum(c_i (e_i + t w_i / d)) = t: the same classes of P(2..7), whose
    completions by J8, J9 and J10 reach other classes of P(2..10).
    """
    order = ctx.p - 1
    for size in range(1, 7):
        for supp in combinations(range(6), size):
            d, cs = ext_gcd_multi([WEIGHTS[i] for i in supp])
            c = np.array(cs, dtype=np.int64) % order
            # the exponents of supp[:outer] and supp[-1] run in loops, the
            # others over one grid
            outer = max(size - 5, 0)
            k = size - 1 - outer
            free = np.indices((order,) * k).reshape(k, order ** k)
            grid = c[outer:-1] @ free
            for head in np.ndindex((order,) * outer):
                partial = grid + int(c[:outer] @ np.array(head, np.int64))
                for last in range(order):
                    keep = (partial + c[-1] * last) % order < gcd(d, order)
                    rows = np.zeros((int(keep.sum()), 6), dtype=np.int64)
                    rows[:, list(supp[:outer])] = ctx.POW[list(head)]
                    rows[:, list(supp[outer:-1])] = ctx.POW[free[:, keep]].T
                    rows[:, supp[-1]] = ctx.POW[last]
                    yield rows


def _chunks(parts, size):
    """The rows of the arrays parts, in order, as arrays of size rows (the
    last one shorter)."""
    held, n = [], 0
    for part in parts:
        held.append(part)
        n += part.shape[0]
        if n >= size:
            rows = np.concatenate(held)
            cut = n - n % size
            yield from np.split(rows[:cut], cut // size)
            held, n = [rows[cut:]], n - cut
    if n:
        yield np.concatenate(held)


def _check_memory(p):
    """Refuse a census that cannot fit in physical memory.

    A census holds one int64 key per candidate row, then its p^5 classes
    as nine int64 residues and a label each; BYTES_PER_CLASS, measured
    from peak RSS, covers that and the chunk work arrays.
    """
    need = BYTES_PER_CLASS * p ** 5
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError("the census at p = %d needs about %.3g GiB; "
                         "physical memory is %.3g GiB"
                         % (p, need / 2 ** 30, have / 2 ** 30))


def _decode(keys, p):
    """The (N, 9) rows of residues whose keys are keys, the digits of each
    key in base p; keys is consumed."""
    rows = np.empty((keys.size, 9), dtype=np.int64)
    for i in range(8, -1, -1):
        np.remainder(keys, p, out=rows[:, i])
        np.floor_divide(keys, p, out=keys)
    return rows


def moduli_rows(field, filter_singular=True):
    """The canonical representative rows (N, 9) of every moduli point,
    sorted lexicographically."""
    if not isinstance(field, PrimeField):
        raise TypeError("fast enumeration runs over prime fields")
    p = field.p
    _check_memory(p)
    if p > MAX_FAST_PRIME:
        raise ValueError("the census engine keys rows in int64, so p is at "
                         "most %d" % MAX_FAST_PRIME)
    ctx = _ModCtx(p)
    block_set = derive_syzygies().block_set

    # key = sum r_i p^(8 - i): key order is row order, and p^9 < 2^63
    place = p ** np.arange(8, -1, -1, dtype=np.int64)
    keys = np.unique(np.concatenate([
        normalize_rows(ctx, _completions(ctx, block_set, prefixes)) @ place
        for prefixes in _chunks(_prefixes(ctx), CHUNK_ROWS)]))
    if filter_singular:
        disc = PolySet([discriminant_poly()])
        keys = keys[np.concatenate([
            disc.evaluate_mod(
                _decode(keys[start:start + CHUNK_ROWS].copy(), p), p)[:, 0]
            != 0
            for start in range(0, keys.size, CHUNK_ROWS)])]
    return _decode(keys, p)


@functools.cache
def _j8_interpolation(p):
    """(6, p) float64: the Lagrange basis of the nodes x = 0..5 mod p at
    every x of F_p; census primes are above 7, so the nodes are distinct."""
    basis = np.zeros((6, p))
    for j in range(6):
        others = [m for m in range(6) if m != j]
        scale = pow(prod(j - m for m in others), -1, p)
        for x in range(p):
            basis[j, x] = prod(x - m for m in others) * scale % p
    return basis


def _j8_values(v, p):
    """(n, p): j8_determinant mod p at every x of F_p, for the block
    values v (name -> (n,) residues) of n prefixes.

    The determinant has degree 5 in x: one call on the (n, 1) block
    columns against x = 0..5, reduced mod p once, and the Lagrange basis
    give the rest in one float64 product, exact as each entry is a sum of
    6 products below p^2, reduced by _float_mod.
    """
    at_nodes = j8_determinant({name: col[:, None] for name, col in v.items()},
                              np.arange(6, dtype=np.int64)) % p
    return _float_mod(at_nodes.astype(np.float64) @ _j8_interpolation(p), p)


def _float_mod(y, p):
    """y mod p, in place, for a float64 array of integers 0 <= y < 6 p^2
    with p <= MAX_FAST_PRIME: y / p is correctly rounded and below 6 p,
    so it is never rounded across an integer and its floor is the exact
    quotient.  numpy's float % takes two to three times as long."""
    y -= p * np.floor(y / p)
    return y


def _completions(ctx, block_set, prefixes):
    """The nonzero rows (N, 9) on all five relations that extend the
    (n, 6) prefix rows."""
    p = ctx.p
    bvals = block_set.evaluate_mod(prefixes, p)
    # (prefix, j8) pairs, in order of j8: the roots of the J8 quintic
    j8, idx = np.nonzero(_j8_values(SyzygyCoefficients.named(bvals.T), p).T
                         == 0)
    v = SyzygyCoefficients.named(bvals[idx].T)
    delta_v, n9, n10 = (a % p for a in j9_j10_closed_form(v, j8))

    # generic pairs: the closed form gives the one candidate
    gi = np.nonzero(delta_v)[0]
    dinv = ctx.inv(delta_v[gi])
    generic = np.column_stack([n9[gi] * dinv % p, n10[gi] * dinv % p])
    # degenerate pairs (delta = 0): every point where R1 and R2 vanish
    di = np.nonzero(delta_v == 0)[0]
    k, j9, j10 = _r1_r2_zeros(ctx, {n: c[di] for n, c in v.items()}, j8[di])
    pair = np.concatenate([gi, di[k]])
    cand = np.column_stack([
        prefixes[idx[pair]], j8[pair],
        np.concatenate([generic, np.column_stack([j9, j10])])])
    values = np.array(_relation_values(
        cand.T, SyzygyCoefficients.named(bvals[idx[pair]].T))) % p
    cand = cand[~values.any(axis=0)]
    return cand[cand.any(axis=1)]


def _r1_r2_zeros(ctx, v, j8):
    """(k, j9, j10): every pair k, with block values v[name][k] and
    J8 = j8[k], and every point (j9, j10) of F_p^2 where R1 and R2 vanish,
    for pairs whose forms have rank at most 1 (delta = 0).

    Where both forms are constant that is all p^2 points or none; else
    the points of the line where R1 (or R2, if R1 is constant) vanishes
    at which the other form vanishes too: all p of them, or none.
    """
    p = ctx.p
    (q, a7, a6), (r, s, b7) = ((c % p for c in form)
                               for form in r1_r2_linear(v, j8))
    t = np.arange(p, dtype=np.int64)
    on_r1 = (a7 != 0) | (a6 != 0)
    flat = ~on_r1 & (s == 0) & (b7 == 0)
    line = np.nonzero(~flat)[0]
    c, a, b, c2, a2, b2 = (np.where(on_r1, x, y)[line, None] for x, y in (
        (q, r), (a7, s), (a6, b7), (r, q), (s, a7), (b7, a6)))
    # on c + a J9 + b J10 = 0, J10 is a function of J9 = t where b is
    # nonzero, else J9 = -c / a and J10 = t
    across = b != 0
    inv = ctx.inv(np.where(across, b, a))
    j9 = np.where(across, t, -c * inv % p)
    j10 = np.where(across, -(c + a * t) * inv % p, t)
    k, i = np.nonzero((c2 + a2 * j9 + b2 * j10) % p == 0)
    full = np.nonzero(flat & (q == 0) & (r == 0))[0]
    return (np.concatenate([line[k], np.repeat(full, p * p)]),
            np.concatenate([j9[k, i], np.tile(np.repeat(t, p), full.size)]),
            np.concatenate([j10[k, i], np.tile(t, p * full.size)]))


@functools.cache
def _normalizer_tables(p):
    """(2, 512, 9) int64: by support pattern (bit i set where coordinate
    i is nonzero), the ext_gcd_multi coefficients of the support's
    weights mod p - 1 and the weights over their gcd, 0 off the support."""
    tables = np.zeros((2, 512, 9), dtype=np.int64)
    for pat in range(1, 512):
        supp = [i for i in range(9) if pat >> i & 1]
        d, cs = ext_gcd_multi([WEIGHTS[i] for i in supp])
        tables[:, pat, supp] = (np.array(cs) % (p - 1),
                                np.array(WEIGHTS)[supp] // d)
    return tables


def normalize_rows(ctx, rows):
    """Vectorized canonical representatives (same convention as
    wps_normalize) for rows of weight (2..10) tuples: in logs, lambda is
    the Bezout sum of the support, and each coordinate loses its weight
    quotient times lambda, read from _normalizer_tables by pattern."""
    nonzero = rows != 0
    coef, quot = _normalizer_tables(ctx.p)[:, nonzero @ (1 << np.arange(9))]
    logs = ctx.LOG[rows]
    logs -= quot * (np.einsum("ij,ij->i", coef, logs) % (ctx.p - 1))[:, None]
    return np.where(nonzero, ctx.POW[logs % (ctx.p - 1)], 0)


@functools.cache
def _stratum_stages(p):
    """One PolySet of each stratum's first equation, in STRATA_ORDER, and
    per stratum one PolySet per other equation, in cascade order at p:
    fewest terms first, but last those that vanish at the invariants of a
    few seeded random octics over F_p, and so most likely on every row."""
    from .strata import STRATA_ORDER, stratum_systems
    F = PrimeField(p)
    rng = random.Random(p)
    points = np.array([[c.value for c in shioda(BinaryForm(
        F, 8, [rng.randrange(p) for _ in range(9)]))] for _ in range(4)],
        dtype=np.int64)
    firsts, rests = [], []
    for name in STRATA_ORDER:
        eqs = stratum_systems()[name]
        everywhere = ~PolySet(eqs).evaluate_mod(points, p).any(axis=0)
        order = sorted(range(len(eqs)),
                       key=lambda i: (everywhere[i], len(eqs[i].terms)))
        firsts.append(eqs[order[0]])
        rests.append([PolySet([eqs[i]]) for i in order[1:]])
    return PolySet(firsts), rests


def classify_rows(field, rows):
    """Stratum label per row, by the detection cascade, fully vectorized.

    On chunks of CLASSIFY_ROWS rows, every stratum's first equation is
    evaluated in one pass, then each stratum's others one at a time, only
    on the unlabelled rows where the ones before vanished.  Returns an
    integer array indexing into strata_labels().
    """
    p = field.p
    firsts, rests = _stratum_stages(p)
    generic = len(rests)                        # the label of C2
    label = np.full(rows.shape[0], generic, dtype=np.int64)
    for start in range(0, rows.shape[0], CLASSIFY_ROWS):
        chunk = rows[start:start + CLASSIFY_ROWS]
        out = label[start:start + CLASSIFY_ROWS]
        first = firsts.evaluate_mod(chunk, p) == 0
        for k, stages in enumerate(rests):
            hit = np.nonzero(first[:, k] & (out == generic))[0]
            for stage in stages:
                if not hit.size:
                    break
                hit = hit[stage.evaluate_mod(chunk[hit], p)[:, 0] == 0]
            out[hit] = k
    return label


def strata_labels():
    from .strata import STRATA_ORDER
    return list(STRATA_ORDER) + ["C2"]
