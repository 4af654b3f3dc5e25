"""Vectorized moduli enumeration and stratum classification over F_p.

This is the engine behind moduli_enumerate and the census.  It runs on
numpy int64 arrays of least residues; a sampled test compares its output
with the scalar solvers j8_candidates and solve_j9_j10.  Discrete
logarithms to a fixed primitive root turn the weighted-projective
constraints into affine arithmetic modulo p - 1.

Primes are at most MAX_FAST_PRIME = 2^20.  Residue arithmetic stays in
int64: a product of two residues is below 2^40, and the (J9, J10) closed
form stays below 2^63.  J-polynomials are evaluated by PolySet: monomials
in int64, combined with the coefficients in float64, which is exact while
n_monomials * (p - 1)^2 < 2^53, that is for up to 8192 monomials here.
"""

from itertools import combinations
from math import gcd

import numpy as np

from .covariants import (
    RELATIONS, SyzygyCoefficients, derive_syzygies, discriminant_poly,
    j8_quintic, j9_j10_closed_form,
)
from .fields import PrimeField, ext_gcd_multi
from .jpoly import WEIGHTS, PolySet, monomial_matrix

MAX_FAST_PRIME = 1 << 20


class _ModCtx:
    """Tables for F_p arithmetic on arrays."""

    def __init__(self, p):
        self.p = p
        self.g = _primitive_root(p)
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


def _primitive_root(p):
    from .fields import _prime_factors
    fac = sorted(set(_prime_factors(p - 1)))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError("no primitive root")


def _enumerate_prefix_reps(ctx):
    """Representatives of the weight (2..7) projective space: rows of
    residues (N, 6) plus the support gcd per row block."""
    p = ctx.p
    order = p - 1
    blocks = []
    for size in range(1, 7):
        for supp in combinations(range(6), size):
            ws = [WEIGHTS[i] for i in supp]
            d, cs = ext_gcd_multi(ws)
            k = len(supp)
            if k == 1:
                rows_e = np.zeros((1, 1), dtype=np.int64)
            else:
                free = np.indices((order,) * (k - 1)).reshape(k - 1, -1).T
                rhs = (-(free * np.array([c % order for c in cs[:-1]],
                                         dtype=np.int64)).sum(axis=1)) % order
                c_last = cs[-1] % order
                g0 = gcd(c_last, order) if c_last else order
                if c_last == 0:
                    keep = rhs % order == 0
                    free = free[keep]
                    rows_e = np.concatenate(
                        [np.repeat(free, order, axis=0),
                         np.tile(np.arange(order, dtype=np.int64),
                                 len(free)).reshape(-1, 1)], axis=1)
                else:
                    keep = rhs % g0 == 0
                    free = free[keep]
                    rhs = rhs[keep]
                    sub = order // g0
                    inv = pow(c_last // g0, -1, sub) if sub > 1 else 0
                    base = (rhs // g0 * inv) % sub if sub > 1 else \
                        np.zeros(len(rhs), dtype=np.int64)
                    parts = [np.concatenate(
                        [free, ((base + t * sub) % order).reshape(-1, 1)],
                        axis=1) for t in range(g0)]
                    rows_e = np.concatenate(parts, axis=0) if parts else \
                        np.zeros((0, k), dtype=np.int64)
            vals = ctx.POW[rows_e % order]
            rows = np.zeros((len(vals), 6), dtype=np.int64)
            for col, i in enumerate(supp):
                rows[:, i] = vals[:, col]
            blocks.append((rows, d))
    return blocks


def moduli_rows(field, filter_singular=True, on_progress=None):
    """The canonical representative rows (N, 9) of every moduli point."""
    if not isinstance(field, PrimeField):
        raise TypeError("fast enumeration runs over prime fields")
    p = field.p
    if p > MAX_FAST_PRIME:
        raise ValueError("prime too large for the census engine")
    ctx = _ModCtx(p)
    syz = derive_syzygies()
    # the six quintic coefficients, then the 22 blocks: all in J2..J7
    prefix_set = PolySet(j8_quintic().coeffs + [
        syz[name] for name, _ in SyzygyCoefficients.BLOCK_NAMES])

    out_rows = []
    blocks = _enumerate_prefix_reps(ctx)
    total_blocks = len(blocks)
    for b_idx, (rows6, delta) in enumerate(blocks):
        if on_progress:
            on_progress(b_idx, total_blocks)
        gamma = gcd(delta, p - 1)
        reps = []
        for t in range(gamma):
            pi = int(ctx.POW[t % (p - 1)])
            scaled = rows6.copy()
            for i in range(6):
                w = WEIGHTS[i]
                scaled[:, i] = scaled[:, i] * pow(pi, w // delta, p) % p
            reps.append(scaled)
        rows6x = np.concatenate(reps, axis=0)
        vals = prefix_set.evaluate_mod(rows6x, p)

        pairs_rows = []
        pairs_j8 = []
        for x in range(p):
            acc = vals[:, 5].copy()
            for i in range(4, -1, -1):
                acc = (acc * x + vals[:, i]) % p
            hit = np.nonzero(acc == 0)[0]
            if hit.size:
                pairs_rows.append(hit)
                pairs_j8.append(np.full(hit.size, x, dtype=np.int64))
        if not pairs_rows:
            continue
        idx = np.concatenate(pairs_rows)
        j8 = np.concatenate(pairs_j8)
        bvals = vals[idx, 6:]
        delta_v, n9, n10 = (a % p for a in j9_j10_closed_form(
            _block_columns(bvals), j8))

        # generic rows: the closed form gives the one candidate
        gi = np.nonzero(delta_v)[0]
        dinv = ctx.inv(delta_v[gi])
        full = np.zeros((gi.size, 9), dtype=np.int64)
        full[:, :6] = rows6x[idx[gi]]
        full[:, 6] = j8[gi]
        full[:, 7] = n9[gi] * dinv % p
        full[:, 8] = n10[gi] * dinv % p
        cand_rows = [full[_relations_vanish(bvals[gi], full, p)]]
        # degenerate rows (delta = 0): scan all p^2 values of (j9, j10)
        di = np.nonzero(delta_v == 0)[0]
        grid = np.zeros((di.size * p * p, 9), dtype=np.int64)
        grid[:, :6] = np.repeat(rows6x[idx[di]], p * p, axis=0)
        grid[:, 6] = np.repeat(j8[di], p * p)
        grid[:, 7:] = np.tile(np.indices((p, p)).reshape(2, -1).T,
                              (di.size, 1))
        grid_blocks = np.repeat(bvals[di], p * p, axis=0)
        cand_rows.append(grid[_relations_vanish(grid_blocks, grid, p)])
        allrows = np.concatenate(cand_rows, axis=0)
        out_rows.append(allrows[allrows.any(axis=1)])

    if not out_rows:
        return np.zeros((0, 9), dtype=np.int64)
    rows9 = np.concatenate(out_rows, axis=0)
    rows9 = normalize_rows(ctx, rows9)
    rows9 = np.unique(rows9, axis=0)
    if filter_singular:
        disc = PolySet([discriminant_poly()]).evaluate_mod(rows9, p)[:, 0]
        rows9 = rows9[disc != 0]
    return rows9


def _block_columns(bvals):
    """Block name -> column of an array of block values (BLOCK_NAMES
    order)."""
    return {name: bvals[:, k]
            for k, (name, _) in enumerate(SyzygyCoefficients.BLOCK_NAMES)}


#: the distinct leading monomials and multipliers of the relations
_RELATION_MONOMIALS = sorted({ev for lead, terms in RELATIONS
                              for ev in [lead] + [m for _, m in terms]})


def _relations_vanish(bvals, rows, p):
    """Mask of the rows on which all five RELATIONS vanish, given the
    block values per row."""
    mono = dict(zip(_RELATION_MONOMIALS,
                    monomial_matrix(rows, _RELATION_MONOMIALS, p).T))
    blocks = _block_columns(bvals)
    ok = np.ones(rows.shape[0], dtype=bool)
    for lead, terms in RELATIONS:
        acc = mono[lead]
        for name, mult in terms:
            acc = (acc + blocks[name] * mono[mult]) % p
        ok &= acc == 0
    return ok


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


def classify_rows(field, rows):
    """Stratum label per row, by the detection cascade, fully vectorized.

    Returns an integer array indexing into strata_labels().
    """
    from .strata import STRATA_ORDER, stratum_systems
    p = field.p
    systems = stratum_systems()
    label = np.full(rows.shape[0], len(STRATA_ORDER), dtype=np.int64)  # C2
    left = np.arange(rows.shape[0])         # rows not yet labelled
    for k, name in enumerate(STRATA_ORDER):
        if not left.size:
            break
        holds = ~PolySet(systems[name]).evaluate_mod(rows[left], p).any(
            axis=1)
        if name == "C14":
            holds &= rows[left, 5] != 0
        label[left[holds]] = k
        left = left[~holds]
    return label


def strata_labels():
    from .strata import STRATA_ORDER
    return list(STRATA_ORDER) + ["C2"]
