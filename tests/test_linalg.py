from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import linalg as la


def test_dot_and_matvec():
    assert la.dot((1, 2, 3), (4, 5, 6)) == 32
    M = ((1, 2), (3, 4))
    assert la.matvec(M, (1, 1)) == (3, 7)


def test_matmul_identity():
    M = ((F(1, 2), F(2)), (F(3), F(5, 7)))
    assert la.matmul(M, la.identity(2)) == M
    assert la.matmul(la.identity(2), M) == M


def test_transpose_involution():
    M = ((1, 2, 3), (4, 5, 6))
    assert la.transpose(la.transpose(M)) == M


def test_tensor_vector_row_major():
    assert la.tensor_vector((1, 2), (3, 4)) == (3, 4, 6, 8)


def test_kron_matches_tensor_vector():
    A = ((1, 2), (0, 1))
    B = ((2, 0), (1, 1))
    x, y = (1, 3), (2, 5)
    lhs = la.matvec(la.kron(A, B), la.tensor_vector(x, y))
    rhs = la.tensor_vector(la.matvec(A, x), la.matvec(B, y))
    assert lhs == rhs


def test_reshape_round_trip():
    v = tuple(range(6))
    M = la.vec_to_matrix(v, 2, 3)
    assert M == ((0, 1, 2), (3, 4, 5))
    assert la.matrix_to_vec(M) == v


def test_swap_matrix():
    S = la.swap_matrix(2, 3)
    x, y = (1, 2), (3, 4, 5)
    assert la.matvec(S, la.tensor_vector(x, y)) == la.tensor_vector(y, x)


# One entry type per vector, as a matrix product keeps it; floats without
# -0.0, which the product's sum turns into 0.0.
SWAP_ENTRIES = (
    st.integers(-9, 9),
    st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
    st.floats(-1e6, 1e6).map(lambda x: x + 0.0),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from(SWAP_ENTRIES), st.data())
def test_swap_vector_is_the_swap_matrix_applied(n_a, n_b, entries, data):
    v = tuple(data.draw(st.lists(entries, min_size=n_a * n_b, max_size=n_a * n_b)))
    assert repr(la.swap_vector(v, n_a, n_b)) == repr(la.matvec(la.swap_matrix(n_a, n_b), v))


def test_rank():
    assert la.rank(((1, 0), (0, 1))) == 2
    assert la.rank(((1, 2), (2, 4))) == 1
    assert la.rank(((F(1, 2), F(1, 3)), (F(1, 4), F(1, 6)))) == 1
    assert la.rank(()) == 0


def test_solve_exact():
    A = ((2, 1), (1, 3))
    b = (5, 10)
    x = la.solve(A, b)
    assert x == (F(1), F(3))
    assert la.solve(((1, 1), (1, 1)), (1, 2)) is None


def test_solve_underdetermined_free_vars_zero():
    x = la.solve(((1, 1, 0),), (2,))
    assert x is not None
    assert sum(x) == 2


def test_nullspace():
    ns = la.nullspace(((1, 1, 0), (0, 0, 1)))
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and v[2] == 0


def test_inverse():
    M = ((1, 2), (3, 4))
    Minv = la.inverse(M)
    assert la.matmul(M, Minv) == la.identity(2)
    with pytest.raises(la.SingularMatrix):
        la.inverse(((1, 2), (2, 4)))


def test_primitive():
    assert la.primitive((F(1, 2), F(1, 3))) == (3, 2)
    assert la.primitive((-2, 4)) == (-1, 2)
    assert la.primitive((0, 0)) == (0, 0)


def test_canonical_rays_dedup():
    rays = la.canonical_rays([(2, 0), (1, 0), (0, 3)])
    assert rays == ((0, 1), (1, 0))


def test_char_poly_known():
    # det(tI - [[2,1],[1,2]]) = t^2 - 4t + 3
    assert oracle.char_poly(((2, 1), (1, 2))) == [F(3), F(-4), F(1)]


def test_symmetric_inertia():
    assert la.symmetric_inertia(((2, 1), (1, 2))) == (2, 0, 0)
    assert la.symmetric_inertia(((1, 0), (0, -1))) == (1, 0, 1)
    assert la.symmetric_inertia(((0, 0), (0, 5))) == (1, 1, 0)
    assert la.symmetric_inertia(((0, 1), (1, 0))) == (1, 0, 1)
    with pytest.raises(ValueError):
        la.symmetric_inertia(((0, 1), (2, 0)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_inverse_round_trip_random(rows):
    M = la.matrix(rows)
    if la.rank(M) < 3:
        return
    assert la.matmul(M, la.inverse(M)) == la.identity(3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    )
)
def test_rank_matches_rref_pivot_count(rows):
    M = la.matrix(rows)
    _, pivots = la.rref(M)
    assert la.rank(M) == len(pivots)
