"""Small dense linear algebra over nested tuples.

Exact polyhedral data is int- or Fraction-valued (cone rays are primitive
int tuples); spectral data is float-valued.  The generic routines below
work for all of them because they only use +, -, *, / and comparisons.
The exact eliminations (rref, rank, solve, nullspace, inverse) scale each
row to primitive integers and run on integers through one fraction-free
Bareiss kernel, ``_eliminate``, whose ``row_step`` the simplex of ``lp``
shares, as it shares ``integer_scaling``; only their results are
Fractions.  ``symmetric_inertia`` runs on the same ``row_step``.  These
kernels read the entry types of a vector once (``set(map(type, ...))``):
all-int data skips the scaling, ``integer_scaling`` reads each
denominator once, and ``primitive`` returns a tuple of coprime ints as it
is.
``matmul`` and ``matvec`` on exact operands that hold a Fraction run on
integers too: each operand is scaled once to integers by
``integer_scaling`` (s A and t B, ``integer_rows``), the products are
Python ints, and each result entry is one Fraction(v, s * t).  All-int
operands keep the plain loop, whose results are ints.  So does
``deviation``, the one residual kernel (max-abs of a difference).

Vectors are tuples, matrices are tuples of row tuples.  Integer entries
are acceptable everywhere, but int / int is a float: exact callers that
divide two ints go through Fraction.

Float data takes numpy kernels in ``matmul`` and ``max_abs`` (whose one
caller is ``deviation``) once the result or the input has at least 64
entries (below that numpy's fixed cost per call exceeds the loop's); the
entry types decide, and any Fraction keeps the pure-Python path.  Float data means entries that are
Python floats or ``numpy.float64`` scalars (the entries of a float
ndarray's rows), both IEEE doubles with the same arithmetic; every other
numpy scalar type, ``float32`` and ``int64`` among them, keeps the loop,
since its arithmetic is not a double's.  ``matmul`` runs on numpy when
every entry of one factor is float data and every entry of the other
float data or an int, so that every product is a double (numpy converts
an int as ``float()`` does).  It adds the products in the order ``dot``
does, one k at a time from a zero array, so its result equals ``dot``'s
on CPython 3.11 to the bit, signed zeros included (no ``@``, BLAS or
einsum, whose summation orders differ).  ``max_abs`` runs on numpy when
every entry is float data, and refuses a NaN entry of data that is not
exact with InputError wherever it sits.  The kernels return Python
floats, also where the loop would return ``numpy.float64`` scalars of the
same value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import gcd, isfinite, lcm
from operator import mul, ne
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InputError, SingularMatrix

Vector = tuple
Matrix = tuple


def frac(x) -> Fraction:
    """Coerce to Fraction.  Floats convert exactly (binary value); a NaN or
    infinite float has no such value and raises InputError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise InputError(f"{x!r} is not a finite number, so it has no exact rational value")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def is_exact(obj) -> bool:
    """True if a scalar / vector / matrix holds only int and Fraction entries."""
    return _entry_types(obj) <= _EXACT


def matrix(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def shape(M) -> tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def dot(x, y):
    if len(x) != len(y):
        raise DimensionMismatch(f"dot: {len(x)} vs {len(y)}")
    return sum(map(mul, x, y))


def matvec(M, x) -> Vector:
    types = _entry_types((*M, x))
    if Fraction in types and types <= _EXACT:
        s, xs = integer_scaling(x)
        t, rows = integer_rows(M)
        st = s * t
        return tuple(Fraction(dot(row, xs), st) for row in rows)
    return tuple(dot(row, x) for row in M)


def matmul(A, B) -> Matrix:
    """A B.  When one factor is all float data (Python floats and
    ``numpy.float64`` entries), the other float data or ints, and the
    result has at least 64 entries, the bit-identical numpy kernel runs
    and yields Python floats.  Exact data that holds a Fraction runs on
    integers; the rest runs ``dot`` per entry."""
    if not B:
        return tuple(() for _ in A)
    types_a, types_b = _entry_types(A), _entry_types(B)
    types = types_a | types_b
    if Fraction in types and types <= _EXACT:
        s, rows = integer_rows(A)
        t, b_rows = integer_rows(B)
        st = s * t
        cols = list(zip(*b_rows))
        return tuple(tuple(Fraction(dot(row, col), st) for col in cols) for row in rows)
    if len(A) * len(B[0]) >= _NUMPY_MIN_ENTRIES and len(A[0]) == len(B) and types <= _NUMBER:
        if _FLOAT in (types_a, types_b) and len(set(map(len, A))) == len(set(map(len, B))) == 1:
            a = np.array(A, dtype=float)
            b = np.array(B, dtype=float)
            acc = np.zeros((a.shape[0], b.shape[1]))
            with np.errstate(over="ignore", invalid="ignore"):  # as Python's float arithmetic
                for k in range(a.shape[1]):
                    acc += a[:, k, None] * b[k]
            return tuple(map(tuple, acc.tolist()))
    cols = list(zip(*B))
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


_FLOAT, _NUMBER, _INT, _EXACT = {float}, {float, int}, {int}, {int, Fraction}
_FLOAT64 = np.float64  # bound here: exact data never reads the module ``np``
_NUMPY_MIN_ENTRIES = 64  # below this numpy's fixed cost per call exceeds the loop's


def _entry_types(obj) -> set:
    """The types of the entries of a scalar, a vector or a matrix (a
    sequence whose items are all tuples or lists), read in one pass;
    ``numpy.float64`` counts as ``float``."""
    if not isinstance(obj, (tuple, list)):
        types = {type(obj)}
    else:
        types = set(map(type, obj))
        if types and types <= {tuple, list}:
            types = set(map(type, chain.from_iterable(obj)))
    if _FLOAT64 in types:
        types.discard(_FLOAT64)
        types.add(float)
    return types


def finite_array(X, check: str, what: str = "coordinates") -> np.ndarray:
    """X as a float array; a NaN or infinite entry raises InputError."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise InputError(f"{check} needs finite {what}, got {X[~np.isfinite(X)][0]}")
    return X


def transpose(M) -> Matrix:
    return tuple(zip(*M)) if M else ()


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def scale_vector(c, x) -> Vector:
    return tuple(c * a for a in x)


def scale_matrix(c, M) -> Matrix:
    return tuple(tuple(c * a for a in row) for row in M)


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


def swap_vector(v, n_a: int, n_b: int) -> Vector:
    """``swap_matrix(n_a, n_b)`` applied to v: vec of the transposed form."""
    return matrix_to_vec(transpose(vec_to_matrix(v, n_a, n_b)))


def max_abs(obj) -> float:
    """Largest absolute entry of a scalar, vector or matrix.  A NaN entry
    raises InputError: Python's ``max`` skips a NaN that follows a number,
    and a NaN residual would pass every ``> tol`` screen.  Exact data skips
    that test.  Float data (Python floats and ``numpy.float64`` entries) of
    at least 64 entries runs on numpy and yields a Python float."""
    types = _entry_types(obj)
    if not isinstance(obj, (list, tuple)):
        obj = (obj,)
    rows = obj if obj and isinstance(obj[0], (list, tuple)) else (obj,)
    if types == _FLOAT and len(rows) * len(rows[0]) >= _NUMPY_MIN_ENTRIES:
        if len(set(map(len, rows))) == 1:  # a ragged matrix keeps the loop
            m = np.abs(np.array(rows, dtype=float)).max()
            if m == m:  # a NaN goes on to the test below
                return float(m)
    if not types <= _EXACT:
        entries = list(chain.from_iterable(rows))
        if any(map(ne, entries, entries)):
            raise InputError("a residual with a NaN entry cannot be compared with a tolerance")
    return max((max(map(abs, row), default=0) for row in rows), default=0)


def deviation(X, Y):
    """Largest absolute entry of X - Y, two vectors or two matrices paired
    by position (row by row; the shorter operand ends a pairing).  Unless
    X starts with a float, the entry types of X and Y are read once:
    all-int data gives an int, other exact data is scaled once per operand
    to integers (s X, t Y), compared in ints and divided once by s t into
    one Fraction.  Other data is ``max_abs`` of the differences, which
    refuses a NaN."""
    matrices = bool(X) and isinstance(X[0], (list, tuple))
    rows_x, rows_y = (X, Y) if matrices else ((X,), (Y,))
    if not isinstance(next(chain.from_iterable(rows_x), None), float):
        types = _entry_types((*rows_x, *rows_y))
        if types <= _INT:
            return max((abs(a - b) for rx, ry in zip(rows_x, rows_y) for a, b in zip(rx, ry)), default=0)
        if types <= _EXACT:
            if matrices:
                (s, xs), (t, ys) = integer_rows(X), integer_rows(Y)
            else:
                (s, x), (t, y) = integer_scaling(X), integer_scaling(Y)
                xs, ys = (x,), (y,)
            num = max((abs(a * t - b * s) for rx, ry in zip(xs, ys) for a, b in zip(rx, ry)), default=0)
            return Fraction(num, s * t)
    if matrices:
        return max_abs(tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(X, Y)))
    return max_abs(tuple(a - b for a, b in zip(X, Y)))


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
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        row_r = rows[r]
        p = row_r[c]
        for i in range(0 if reduce else r + 1, m):
            if i != r:
                rows[i] = row_step(rows[i], row_r, c, p, d)
        pivots.append(c)
        d = p
    return pivots, d


def row_step(row, pivot_row, c, p, d):
    """Edmonds' exact step (p * row - row[c] * pivot_row) / d, p the pivot
    in column c and d the one before; a row with row[c] == 0 is rescaled."""
    f = row[c]
    if f:
        return [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
    if p == d:
        return row
    return [p * x // d for x in row]


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
    aug = [[*M[i], *(int(i == j) for j in range(n))] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def integer_scaling(values) -> tuple[int, list[int]]:
    """(s, ints): the least s > 0 with every s * value an integer, and those."""
    types = set(map(type, values))
    if types <= _INT:
        return 1, list(values)
    if not types <= _EXACT:
        values = [v if isinstance(v, (int, Fraction)) else frac(v) for v in values]
    dens = [v.denominator for v in values]
    s = lcm(*dens)
    return s, [v.numerator * (s // d) for v, d in zip(values, dens)]


def integer_rows(M) -> tuple[int, list[list[int]]]:
    """(s, rows): ``integer_scaling`` of the exact matrix M as a whole, s
    the least s > 0 with s * M integral, and s * M row by row."""
    s, flat = integer_scaling([x for row in M for x in row])
    it = iter(flat)
    return s, [list(islice(it, len(row))) for row in M]


def primitive(v) -> Vector:
    """Scale an exact vector to coprime integers; sign is preserved.  A
    tuple of coprime ints is returned as it is."""
    if not set(map(type, v)) <= _INT:
        v = integer_scaling(v)[1]
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        return (0,) * len(v)
    return tuple(x // g for x in v)


def canonical_rays(vs) -> tuple[Vector, ...]:
    """Deduplicated, sorted primitive representatives (positive scaling only)."""
    return tuple(sorted(set(primitive(v) for v in vs)))


def symmetric_inertia(A) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of an exact symmetric
    matrix, by Sylvester's law of inertia on the fraction-free kernel.

    The matrix is scaled once to integers and eliminated with ``row_step``
    on diagonal pivots, which keeps the live block symmetric; a pivot p
    after the pivot d is a negative diagonal entry p / d of a congruent
    matrix when p and d differ in sign.  When every live diagonal entry is
    zero, the congruence e_k -> e_k + e_j makes M[k][k] = 2 M[k][j] != 0
    and keeps the divisions exact.  A zero live block counts as zeros."""
    n = len(A)
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("symmetric_inertia requires a symmetric matrix")
    _, flat = integer_scaling([x for row in A for x in row])
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    live = list(range(n))
    neg, d = 0, 1
    while live:
        k = next((i for i in live if rows[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i in live for j in live if rows[i][j]), (None, None))
            if k is None:
                break
            rows[k] = [x + y for x, y in zip(rows[k], rows[j])]
            for i in live:
                rows[i][k] += rows[i][j]
        live.remove(k)
        p = rows[k][k]
        for i in live:
            rows[i] = row_step(rows[i], rows[k], k, p, d)
        neg += (p > 0) != (d > 0)
        d = p
    return n - len(live) - neg, len(live), neg
