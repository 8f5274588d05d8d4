"""The integer Bareiss kernel against the Fraction Gauss-Jordan oracle.

The reduced row echelon form of a matrix is unique, so every routine
built on the kernel must return exactly what the oracle returns: the
same Fractions, the same pivots, the same kernel basis.  The inertia of a
symmetric matrix is unique too: the kernel's Sylvester count must equal
Descartes' rule on the oracle's characteristic polynomial.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import linalg as la

INTEGERS = st.integers(-4, 4)
RATIONALS = st.one_of(INTEGERS, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def matrices(draw, entries=RATIONALS, rows=None, cols=None):
    """Up to 7 x 8, often rank-deficient: some rows are overwritten by
    combinations of two others, and zero rows occur."""
    m = rows if rows is not None else draw(st.integers(1, 7))
    n = cols if cols is not None else draw(st.integers(1, 8))
    M = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1:
        for _ in range(draw(st.integers(0, m - 1))):
            i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
            a, b = draw(entries), draw(entries)
            M[i] = [a * x + b * y for x, y in zip(M[j], M[k])]
    return M


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_oracle(M):
    rows, pivots = oracle.rref(M)
    assert la.rref(M) == (rows, pivots)
    assert la.rank(M) == len(pivots)
    assert la.nullspace(M) == oracle.nullspace(M)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_matches_oracle(data):
    M = data.draw(matrices())
    if data.draw(st.booleans()):
        x = data.draw(st.lists(RATIONALS, min_size=len(M[0]), max_size=len(M[0])))
        b = la.matvec(M, x)  # consistent system
    else:
        b = data.draw(st.lists(RATIONALS, min_size=len(M), max_size=len(M)))
    assert la.solve(M, b) == oracle.solve(M, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse_matches_oracle(M):
    try:
        expected = oracle.inverse(M)
    except la.SingularMatrix:
        with pytest.raises(la.SingularMatrix):
            la.inverse(M)
    else:
        assert la.inverse(M) == expected


@settings(max_examples=200, deadline=None)
@given(matrices(INTEGERS))
def test_reduced_elimination_scales_the_rref(M):
    rows = [list(r) for r in M]
    pivots, d = la._eliminate(rows, reduce=True)
    expected, expected_pivots = oracle.rref(M)
    assert pivots == expected_pivots
    assert all(rows[r][c] == d for r, c in enumerate(pivots))
    assert [[Fraction(x, d) for x in row] for row in rows] == expected


@st.composite
def symmetric_matrices(draw):
    """Symmetric int/Fraction matrices up to 9 x 9: free entries, often
    with a zero diagonal (every pivot then needs the e_k + e_j step);
    products B^T D B, singular when B has fewer rows than columns; and the
    zero matrix."""
    n = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(("free", "zero diagonal", "product", "zero")))
    if shape == "product":
        B = draw(matrices(INTEGERS, rows=draw(st.integers(0, n)), cols=n)) if n else []
        D = [draw(st.integers(-2, 2)) for _ in B]
        return [[sum(d * b[i] * b[j] for d, b in zip(D, B)) for j in range(n)] for i in range(n)]
    M = [[0] * n for _ in range(n)]
    if shape != "zero":
        for i in range(n):
            for j in range(i + (shape == "free")):
                M[i][j] = M[j][i] = draw(RATIONALS)
    return M


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[0] * 9 for _ in range(9)])
def test_symmetric_inertia_matches_descartes_oracle(M):
    inertia = la.symmetric_inertia(M)
    assert inertia == oracle.symmetric_inertia(M)
    assert sum(inertia) == len(M)
