"""``linalg.deviation``, the one residual kernel: the largest absolute
entry of X - Y.  It must equal ``max_abs`` of the entrywise difference
that every residual was read from before (``fraction_oracle``), to the
bit on float data and refusing a NaN wherever it sits, and the integer
residual that ``protocols`` kept for the certificate's f, in value and
type, on exact vectors: an int on all-int data, else one Fraction."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from comcat.errors import InputError
from comcat.linalg import deviation, max_abs

INTS = st.integers(-(10**12), 10**12)
FRACTIONS = st.fractions(-(10**6), 10**6, max_denominator=10**6)
# Every finite double: an overflowing numpy.float64 difference is inf, as
# a Python float's is.  Python floats take infinities too.
FLOAT64 = st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
ENTRIES = {
    "int": INTS,
    "fraction": FRACTIONS,
    "exact": INTS | FRACTIONS,
    "float": st.floats(allow_nan=False),
    "float64": FLOAT64,
    "mixed": INTS | FRACTIONS | st.floats(allow_nan=False) | FLOAT64,
}
EXACT_KINDS = ("int", "fraction", "exact")


@st.composite
def operands(draw, kinds=tuple(ENTRIES), equal_shapes=None):
    """(kind, X, Y): two vectors or two matrices of one entry kind; their
    shapes agree unless equal_shapes is False (drawn when None)."""
    kind = draw(st.sampled_from(kinds))
    entry = ENTRIES[kind]
    if equal_shapes is None:
        equal_shapes = draw(st.booleans())
    shape = st.tuples(st.integers(1, 4), st.integers(0, 5))
    m, n = draw(shape)
    m2, n2 = (m, n) if equal_shapes else draw(shape.filter(lambda s: s != (m, n)))

    def vector(size):
        return st.lists(entry, min_size=size, max_size=size).map(tuple)

    if draw(st.booleans()):
        return kind, draw(vector(n)), draw(vector(n2))
    return kind, draw(st.lists(vector(n), min_size=m, max_size=m).map(tuple)), draw(
        st.lists(vector(n2), min_size=m2, max_size=m2).map(tuple)
    )


def _difference(X, Y):
    is_matrix = bool(X) and isinstance(X[0], tuple)
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle's inf and NaN, unwarned
        return oracle.sub_matrices(X, Y) if is_matrix else oracle.sub_vectors(X, Y)


def _entries(obj) -> tuple:
    return sum(obj, ()) if obj and isinstance(obj[0], tuple) else obj


def _same(x, y) -> bool:
    """Same type and, for floats, the same bits (sign of zero included)."""
    return type(x) is type(y) and (float.hex(float(x)) == float.hex(float(y)) if isinstance(x, float) else x == y)


@settings(max_examples=400, deadline=None)
@given(operands())
def test_deviation_equals_max_abs_of_the_difference(case):
    _, X, Y = case
    try:
        expected = max_abs(_difference(X, Y))
    except InputError:  # inf - inf
        with pytest.raises(InputError, match="NaN"):
            deviation(X, Y)
        return
    got = deviation(X, Y)
    assert got == expected
    if not set(map(type, _entries(X) + _entries(Y))) <= {int, F}:
        assert _same(got, expected)


@settings(max_examples=400, deadline=None)
@given(operands(kinds=EXACT_KINDS, equal_shapes=True))
def test_deviation_equals_the_integer_residual_on_exact_vectors(case):
    _, X, Y = case
    if X and isinstance(X[0], tuple):  # the integer residual took vectors
        X, Y = sum(X, ()), sum(Y, ())
    assert repr(deviation(X, Y)) == repr(oracle.integer_deviation(X, Y))


@settings(max_examples=300, deadline=None)
@given(operands(kinds=EXACT_KINDS))
def test_an_exact_deviation_is_an_int_on_ints_else_one_fraction(case):
    _, X, Y = case
    got = deviation(X, Y)
    assert got == max_abs(_difference(X, Y))
    entries = set(map(type, _entries(X) + _entries(Y)))
    assert type(got) is (int if entries <= {int} else F)


@settings(max_examples=200, deadline=None)
@given(operands(kinds=("float", "float64", "mixed"), equal_shapes=True), st.data())
def test_a_nan_anywhere_is_an_input_error(case, data):
    _, X, Y = case
    target = data.draw(st.sampled_from(["X", "Y"]))
    flat = list(_entries(X if target == "X" else Y))
    if not flat:
        return
    flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(st.sampled_from([float("nan"), np.float64("nan")]))
    M = X if target == "X" else Y
    if M and isinstance(M[0], tuple):
        it = iter(flat)
        M = tuple(tuple(next(it) for _ in row) for row in M)
    else:
        M = tuple(flat)
    X, Y = (M, Y) if target == "X" else (X, M)
    with pytest.raises(InputError, match="NaN"):
        deviation(X, Y)


def test_the_numpy_path_is_the_same_to_the_bit_and_refuses_a_nan():
    X = tuple(tuple(0.1 * (i - j) for j in range(8)) for i in range(8))
    Y = tuple(tuple(-0.0 if i == j else 0.3 for j in range(8)) for i in range(8))
    assert _same(deviation(X, Y), max_abs(oracle.sub_matrices(X, Y)))
    Y = Y[:-1] + ((0.0,) * 7 + (float("nan"),),)
    with pytest.raises(InputError, match="NaN"):
        deviation(X, Y)


@pytest.mark.parametrize(
    "X, Y, expected",
    [
        ((), (), 0),
        (((),), ((),), 0),
        ((0.0,), (0.0,), 0.0),
        ((-0.0,), (0.0,), 0.0),
        ((0.0,), (-0.0,), 0.0),
        ((-0.0,), (-0.0,), 0.0),
        ((1.0, float("inf")), (0.0, 2.0), float("inf")),
        ((float("-inf"),), (1,), float("inf")),
        ((1, 2, 3), (1, 2), 0),
        ((F(1, 2), 7), (0,), F(1, 2)),
        (((1, 2), (3, 4)), ((1, 2),), 0),
        (((1, 2), (3, 4)), ((1,), (3, 5)), 1),
        ((F(1, 3), 2), (0, F(5, 2)), F(1, 2)),
        ((np.float64(1.5), 1), (F(1, 2), 0.25), 1.0),
    ],
)
def test_edge_cases_match_max_abs_of_the_difference(X, Y, expected):
    got = deviation(X, Y)
    assert got == max_abs(_difference(X, Y)) == expected
    if isinstance(expected, float):
        assert _same(got, expected)


@pytest.mark.parametrize("matrices", [False, True])
def test_an_overflowing_float64_difference_is_inf_without_a_warning(matrices):
    def operand(x):
        return ((np.float64(x),),) if matrices else (np.float64(x),)

    # tier-1 turns a RuntimeWarning into an error
    assert deviation(operand(1e308), operand(-1e308)) == float("inf")
    with pytest.raises(InputError, match="NaN"):
        deviation(operand(float("inf")), operand(float("inf")))


def test_unequal_exact_vectors_keep_the_type_rule():
    # The integer residual fell back to max_abs of the difference here, whose
    # type followed the paired entries; the kernel types the operands.
    assert repr(deviation((1, F(1, 2)), (0,))) == "Fraction(1, 1)"
    assert repr(oracle.integer_deviation((1, F(1, 2)), (0,))) == "1"
    assert repr(deviation((1, 5), (0,))) == "1"
