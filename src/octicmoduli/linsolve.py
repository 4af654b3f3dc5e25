"""Exact rational linear algebra through modular images.

Systems here have a few hundred unknowns with rational solutions of modest
height, so the effective strategy is: reduce the system modulo a batch of
30-bit primes, row-reduce each image with vectorized numpy arithmetic,
combine by CRT, lift entries by rational reconstruction, and finally let
the caller verify the candidate exactly.  Bad primes (rank drop or pivot
disagreement) are discarded: the image of higher rank is trusted, and a
system is refused as inconsistent only once two images agree on it.
"""

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import InconsistentSystem, RankDeficiency
from .fields import _is_prime


def _gen_primes(start, count):
    out = []
    n = start | 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 2
    return out


#: fixed deterministic worklist of 30-bit primes for modular images
PRIMES30 = _gen_primes(1 << 29, 64)

#: images combined before the first rational reconstruction is tried
_MIN_PRIMES = 4


def rref_mod(A, B, p):
    """Reduced row echelon form of [A | B] over F_p (in place on copies).

    Returns (pivot column list, solution matrix with free variables set to
    zero, consistent flag).  A is (m, n), B is (m, k).
    """
    A = np.array(A, dtype=np.int64) % p
    B = np.array(B, dtype=np.int64) % p
    m, n = A.shape
    k = B.shape[1]
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            B[[r, i]] = B[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = A[r] * inv % p
        B[r] = B[r] * inv % p
        col = A[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            A[rows] = (A[rows] - col[rows, None] * A[r][None, :]) % p
            B[rows] = (B[rows] - col[rows, None] * B[r][None, :]) % p
        pivots.append(c)
        r += 1
    consistent = not B[r:].any() if r < m else True
    sol = np.zeros((n, k), dtype=np.int64)
    for i, c in enumerate(pivots):
        sol[c] = B[i]
    return pivots, sol, consistent


def crt_pair(r1, m1, r2, m2):
    lift = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * lift) % (m1 * m2), m1 * m2


def rational_reconstruct(u, m):
    """num/den with num*1 = u*den mod m and |num|, den <= sqrt(m/2)."""
    u %= m
    if u == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if gcd(den, m) != 1 or gcd(num, den) != 1:
        return None
    if (num - u * den) % m != 0:
        return None
    return Fraction(num, den)


class SolveOutcome:
    __slots__ = ("solution", "nullity")

    def __init__(self, solution, nullity):
        self.solution = solution      # list of columns; each a list of Fractions
        self.nullity = nullity


def solve_rational(image_builder, n_cols, n_rhs, verify=None):
    """Solve M U = V exactly from modular images.

    image_builder(p) must return (A mod p, B mod p) as numpy int64 arrays
    for the same underlying rational system.  The canonical solution sets
    the non-pivot (free) coordinates to zero, columns being taken in the
    order given.  verify(solution_columns) may run an exact check; if it
    returns False more primes are used.
    """
    acc = None        # (n_cols, n_rhs) python ints mod modulus
    modulus = 1
    ref = None        # (pivots, consistent) of the trusted images
    used = 0          # images that agree with ref
    attempts_since = 0
    for p in PRIMES30:
        A, B = image_builder(p)
        pivots, sol, consistent = rref_mod(A, B, p)
        if (tuple(pivots), consistent) != ref:
            # one of the two reductions is bad; trust the higher rank of
            # [A | B]: more pivots, and on a tie the inconsistent image
            if ref is not None and (len(pivots), not consistent) <= (
                    len(ref[0]), not ref[1]):
                continue
            ref = (tuple(pivots), consistent)
            acc, modulus, used = None, 1, 0
        used += 1
        if not consistent:
            if used < 2:
                continue
            raise InconsistentSystem(
                "system inconsistent modulo %d (target is not a polynomial "
                "in the generators at this degree)" % p)
        if acc is None:
            acc = [[int(sol[i, j]) for j in range(n_rhs)]
                   for i in range(n_cols)]
            modulus = p
        else:
            for i in range(n_cols):
                row = acc[i]
                for j in range(n_rhs):
                    row[j], _ = crt_pair(row[j], modulus, int(sol[i, j]), p)
            modulus *= p
        attempts_since += 1
        if used >= _MIN_PRIMES and attempts_since >= 2:
            attempts_since = 0
            cand = _try_reconstruct(acc, modulus, n_cols, n_rhs)
            if cand is not None:
                if verify is None or verify(cand):
                    return SolveOutcome(cand, n_cols - len(ref[0]))
    raise RankDeficiency("modular solve failed to stabilize after %d primes"
                         % used)


def _try_reconstruct(acc, modulus, n_cols, n_rhs):
    cols = [[None] * n_cols for _ in range(n_rhs)]
    for i in range(n_cols):
        for j in range(n_rhs):
            f = rational_reconstruct(acc[i][j], modulus)
            if f is None:
                return None
            cols[j][i] = f
    return cols
