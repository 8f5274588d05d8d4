"""Small dense linear algebra over nested tuples.

Exact polyhedral data is int- or Fraction-valued (cone rays are primitive
int tuples); spectral data is float-valued.  The generic routines below
work for all of them because they only use +, -, *, / and comparisons.
The exact eliminations (rref, rank, solve, nullspace, inverse) scale each
row to primitive integers and run on integers through one fraction-free
Bareiss kernel, ``_eliminate``; only their results are Fractions.  The
characteristic polynomial is computed over Fractions.

Vectors are tuples, matrices are tuples of row tuples.  Integer entries
are acceptable everywhere, but int / int is a float: exact callers that
divide two ints go through Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch, SingularMatrix

Vector = tuple
Matrix = tuple


def frac(x) -> Fraction:
    """Coerce to Fraction.  Floats convert exactly (binary value)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def frac_vector(xs) -> Vector:
    return tuple(frac(x) for x in xs)


def frac_matrix(rows) -> Matrix:
    return tuple(frac_vector(r) for r in rows)


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def is_exact(obj) -> bool:
    """True if a scalar / vector / matrix contains only exact entries."""
    if isinstance(obj, (list, tuple)):
        return all(is_exact(x) for x in obj)
    return is_exact_scalar(obj)


def vector(xs) -> Vector:
    return tuple(xs)


def matrix(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def shape(M) -> tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def dot(x, y):
    if len(x) != len(y):
        raise DimensionMismatch(f"dot: {len(x)} vs {len(y)}")
    return sum(map(mul, x, y))


def matvec(M, x) -> Vector:
    return tuple(dot(row, x) for row in M)


def matmul(A, B) -> Matrix:
    if not B:
        return tuple(() for _ in A)
    cols = list(zip(*B))
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


def transpose(M) -> Matrix:
    return tuple(zip(*M)) if M else ()


def identity(n: int, one=1) -> Matrix:
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def scale_vector(c, x) -> Vector:
    return tuple(c * a for a in x)


def sub_vectors(x, y) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def scale_matrix(c, M) -> Matrix:
    return tuple(tuple(c * a for a in row) for row in M)


def add_matrices(A, B) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def sub_matrices(A, B) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def tensor_vector(x, y) -> Vector:
    """Row-major tensor: component i*len(y)+j equals x[i]*y[j]."""
    return tuple(a * b for a in x for b in y)


def kron(A, B) -> Matrix:
    """Kronecker product consistent with tensor_vector indexing."""
    ra, ca = shape(A)
    rb, cb = shape(B)
    return tuple(
        tuple(A[i][j] * B[k][l] for j in range(ca) for l in range(cb))
        for i in range(ra)
        for k in range(rb)
    )


def vec_to_matrix(v, rows: int, cols: int) -> Matrix:
    if len(v) != rows * cols:
        raise DimensionMismatch(f"cannot reshape length {len(v)} to {rows}x{cols}")
    return tuple(tuple(v[i * cols + j] for j in range(cols)) for i in range(rows))


def matrix_to_vec(M) -> Vector:
    return tuple(x for row in M for x in row)


def swap_matrix(n_a: int, n_b: int) -> Matrix:
    """Permutation sending basis index i*n_b+j to j*n_a+i (factor swap)."""
    n = n_a * n_b
    rows = [[0] * n for _ in range(n)]
    for i in range(n_a):
        for j in range(n_b):
            rows[j * n_a + i][i * n_b + j] = 1
    return matrix(rows)


def max_abs(obj) -> float:
    """Largest absolute entry of a scalar, vector or matrix."""
    if isinstance(obj, (list, tuple)):
        return max((max_abs(x) for x in obj), default=0)
    return abs(obj)


def fmt(obj) -> str:
    """Compact rendering: Fractions as p/q, nested sequences bracketed."""
    if isinstance(obj, (list, tuple)):
        return "(" + ", ".join(fmt(x) for x in obj) + ")"
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    return repr(obj)


# ---------------------------------------------------------------------------
# Exact elimination


def _eliminate(rows: list, reduce: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of a list of integer rows, in
    place: the list is reordered and changed rows are replaced by new lists.

    Pivot rows are swapped to the top; every division is exact.  Returns
    the pivot columns and d, the last pivot (1 when there is none).  With
    reduce=True the entries above each pivot are cleared too, every pivot
    ends equal to d, and rows / d is the reduced row echelon form."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    d = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        row_r = rows[r]
        p = row_r[c]
        for i in range(0 if reduce else r + 1, m):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // d for a, b in zip(rows[i], row_r)]
        pivots.append(c)
        d = p
    return pivots, d


def rref(M: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows of Fractions, pivot columns)."""
    rows = [primitive(r) for r in M]
    pivots, d = _eliminate(rows, reduce=True)
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def rank(M) -> int:
    return len(_eliminate([primitive(r) for r in M])[0])


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
    if not all(type(x) is int for x in v):
        v = [x if isinstance(x, (int, Fraction)) else frac(x) for x in v]
        den = lcm(*(x.denominator for x in v))
        v = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*v)
    if g == 0:
        return tuple(0 for _ in v)
    return tuple(x // g for x in v)


def canonical_rays(vs) -> tuple[Vector, ...]:
    """Deduplicated, sorted primitive representatives (positive scaling only)."""
    return tuple(sorted(set(primitive(v) for v in vs)))


def char_poly(A) -> list[Fraction]:
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(tI - A), exact."""
    n = len(A)
    Af = frac_matrix(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = identity(n, Fraction(1))
    for k in range(1, n + 1):
        AM = matmul(Af, M)
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        M = add_matrices(AM, scale_matrix(c, identity(n, Fraction(1))))
    return coeffs


def _sign_variations(coeffs) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def symmetric_inertia(A) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of an exact symmetric matrix.

    Uses Descartes' rule on the characteristic polynomial, which is exact
    because symmetric matrices have only real eigenvalues.
    """
    n = len(A)
    if transpose(frac_matrix(A)) != frac_matrix(A):
        raise ValueError("symmetric_inertia requires a symmetric matrix")
    coeffs = char_poly(A)
    zero = 0
    while zero <= n and coeffs[zero] == 0:
        zero += 1
    pos = _sign_variations(coeffs)
    neg_coeffs = [c if (k % 2 == 0) else -c for k, c in enumerate(coeffs)]
    neg = _sign_variations(neg_coeffs)
    return pos, zero if zero <= n else n, neg
