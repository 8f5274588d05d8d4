"""Fraction Gauss-Jordan elimination, kept as a test oracle.

``rref`` below is the elimination the package used before its exact
routines moved onto the integer Bareiss kernel (``linalg._eliminate``),
with ``solve``, ``nullspace``, ``inverse`` and ``primitive`` as they were
then.  It works on Fractions throughout, shares no code with the kernel,
and the reduced row echelon form is unique, so the kernel's results must
equal these exactly.
"""

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from comcat.errors import DimensionMismatch, SingularMatrix
from comcat.linalg import frac

Vector = tuple
Matrix = tuple


def rref(M: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    rows = [list(map(frac, r)) for r in M]
    if not rows:
        return [], []
    m, n = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot = None
        for i in range(r, m):
            if rows[i][c] != 0:
                if pivot is None or (abs(rows[i][c]) == 1 and abs(rows[pivot][c]) != 1):
                    pivot = i
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def solve(A, b) -> Optional[Vector]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(A[i]) + [b[i]] for i in range(m)]
    rows, pivots = rref(aug)
    for row in rows:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = rows[r][-1]
    return tuple(x)


def nullspace(A) -> list[Vector]:
    """Exact basis of the kernel of A."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def inverse(M) -> Matrix:
    n = len(M)
    if any(len(r) != n for r in M):
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [list(map(frac, M[i])) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def primitive(v) -> Vector:
    """Scale an exact vector to coprime integers; sign is preserved."""
    if all(type(x) is int for x in v):
        ints = v
    else:
        fr = [frac(x) for x in v]
        denom = 1
        for x in fr:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in fr]
    g = gcd(*ints)
    if g == 0:
        return tuple(0 for _ in ints)
    return tuple(x // g for x in ints)


def kernel_if_corank_one(rows, n: int):
    """Primitive kernel vector of an (n-1) x n matrix of rank n-1, with a
    positive entry on the free column; None when the rank is lower."""
    reduced, pivots = rref(rows)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for r, c in enumerate(pivots):
        v[c] = -reduced[r][free]
    return primitive(v)
