"""linsolve.rref_mod, forward elimination and back-substitution on one
array, against the reference below: full Gauss-Jordan steps over every row
and column, which reach the reduced row echelon form of [A | B].  Both
return (pivot columns, solution with free coordinates zero, consistent),
and they must agree on every system, consistent or not.
"""

import numpy as np
from hypothesis import given, strategies as st

from octicmoduli.linsolve import PRIMES30, rref_mod


def reference_rref(A, B, p):
    """rref_mod by Gauss-Jordan: for each pivot column, the first nonzero
    row at or below the current one is swapped up and scaled to 1, and the
    column is cleared in every other row, above and below.  The solution
    is the B part of the pivot rows, free coordinates zero."""
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


@st.composite
def _system(draw):
    """(A, B, p): A = L R of rank at most r with some columns zeroed, B =
    A X plus, sometimes, a perturbation that makes the system
    inconsistent; entries shifted by multiples of p, so that they lie
    outside 0..p-1, some negative."""
    p = draw(st.sampled_from([11, PRIMES30[0]]))
    m, n, k = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(
        st.integers(0, 3))
    r = draw(st.integers(0, min(m, n)))
    small = st.integers(-3, 3) | st.integers(0, p - 1)

    def matrix(rows, cols):
        return np.array(draw(st.lists(st.lists(small, min_size=cols,
                                               max_size=cols),
                                      min_size=rows, max_size=rows)),
                        dtype=object).reshape(rows, cols)

    A = matrix(m, r).dot(matrix(r, n)) % p if r else np.zeros((m, n), object)
    for c in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)):
        if n:
            A[:, c] = 0
    B = A.dot(matrix(n, k)) % p if n else np.zeros((m, k), object)
    if draw(st.booleans()):
        B = B + matrix(m, k)
    shift = matrix(m, n + k) % 5 - 2
    A = A + p * shift[:, :n]
    B = B + p * shift[:, n:]
    return A.astype(np.int64), B.astype(np.int64), p


def _assert_same(got, want):
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@given(_system())
def test_rref_mod_equals_gauss_jordan(system):
    A, B, p = system
    _assert_same(rref_mod(A, B, p), reference_rref(A, B, p))


def test_rref_mod_on_edge_shapes():
    """No rows, no unknowns, no right-hand sides, the zero matrix, a zero
    column between pivots and an inconsistent row, at p = 11 and at the
    first interpolation prime, given as int64 arrays, as arrays of Python
    ints (dtype object) and as lists."""
    for p in (11, PRIMES30[0]):
        cases = [
            (np.zeros((0, 3)), np.zeros((0, 2))),
            (np.zeros((2, 0)), np.ones((2, 1))),
            (np.zeros((2, 0)), np.zeros((2, 0))),
            (np.zeros((3, 3)), np.zeros((3, 1))),
            (np.zeros((3, 3)), np.ones((3, 1))),
            (np.zeros((3, 4)), np.zeros((3, 0))),
            ([[2, 0, 1], [4, 0, 3], [6, 0, 4]], [[1, 0], [2, 1], [3, 1]]),
            ([[1, 2], [2, 4], [0, 1]], [[1], [3], [0]]),
            ([[1, 1, 1], [1, 1, 1]], [[-1], [p - 1]]),
        ]
        for A, B in cases:
            want = reference_rref(np.array(A, np.int64),
                                  np.array(B, np.int64), p)
            for kind in (np.int64, object):
                _assert_same(rref_mod(np.array(A, kind), np.array(B, kind),
                                      p), want)
            if len(A) and len(A[0]):
                _assert_same(rref_mod([list(row) for row in A],
                                      [list(row) for row in B], p), want)


def test_rref_mod_pins_a_small_system():
    """[[1, 2], [3, 4]] x = (1, 1) over F_11: x = (-1, 1)."""
    pivots, sol, consistent = rref_mod([[1, 2], [3, 4]], [[1], [1]], 11)
    assert pivots == [0, 1] and consistent
    assert sol.tolist() == [[10], [1]]
