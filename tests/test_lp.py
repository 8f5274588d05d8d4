import random
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import linalg as la
from comcat import lp
from comcat.lp import EQ, GE, LE, Constraint, eq, ge, le, lp_feasible, in_cone, solve_lp


def test_infeasible_interval():
    # x >= 1 together with x <= 0
    assert lp_feasible(1, [ge((1,), 1), le((1,), 0)]) is None


def test_segment_feasible():
    point = lp_feasible(2, [eq((1, 1), 1), ge((1, 0), 0), ge((0, 1), 0)])
    assert point is not None
    x, y = point
    assert x + y == 1 and x >= 0 and y >= 0


def test_solution_is_exact():
    point = lp_feasible(2, [eq((F(1, 3), F(1, 7)), F(2, 21)), ge((1, 0), 0), ge((0, 1), 0)])
    assert point is not None
    assert F(1, 3) * point[0] + F(1, 7) * point[1] == F(2, 21)


def test_free_variables():
    point = lp_feasible(1, [le((1,), -5)])
    assert point is not None and point[0] <= -5


def test_maximize():
    res = solve_lp(
        2,
        [le((1, 1), 4), le((1, 0), 3), ge((1, 0), 0), ge((0, 1), 0)],
        objective=(2, 1),
        maximize=True,
    )
    assert res.status == "optimal"
    assert res.value == 7
    assert res.x == (F(3), F(1))


def test_minimize():
    res = solve_lp(
        2,
        [ge((1, 1), 2), ge((1, 0), 0), ge((0, 1), 0)],
        objective=(3, 1),
    )
    assert res.status == "optimal"
    assert res.value == 2
    assert res.x == (F(0), F(2))


def test_unbounded():
    res = solve_lp(1, [ge((1,), 0)], objective=(1,), maximize=True)
    assert res.status == "unbounded"


def test_degenerate_no_cycle():
    # Beale's cycling example; Bland's rule must terminate at the optimum.
    res = solve_lp(
        4,
        [
            le((F(1, 4), -60, F(-1, 25), 9), 0),
            le((F(1, 2), -90, F(-1, 50), 3), 0),
            le((0, 0, 1, 0), 1),
        ],
        objective=(F(-3, 4), 150, F(-1, 50), 6),
        nonneg=[True] * 4,
    )
    assert res.status == "optimal"
    assert res.value == F(-1, 20)
    assert res.x == (F(1, 25), F(0), F(1), F(0))


def test_in_cone():
    gens = [(1, 0), (1, 1)]
    assert in_cone((2, 1), gens)
    assert in_cone((0, 0), gens)
    assert not in_cone((0, 1), gens)
    assert not in_cone((-1, 0), gens)


def _brute_force_feasible(constraints, num_vars, box=6):
    """Vertex-enumeration oracle: intersect all subsets of boundaries.

    Bounding-box constraints are appended so the region, if nonempty, has a
    vertex inside the search set.
    """
    cons = list(constraints)
    for i in range(num_vars):
        coeff = [0] * num_vars
        coeff[i] = 1
        cons.append(le(tuple(coeff), box))
        cons.append(ge(tuple(coeff), -box))
    for subset in combinations(range(len(cons)), num_vars):
        A = [cons[i].coeffs for i in subset]
        b = [cons[i].rhs for i in subset]
        point = la.solve(A, b)
        if point is None:
            continue
        if all(c.holds(point) for c in cons):
            return point
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.integers(-3, 3),
            st.sampled_from(["<=", ">=", "=="]),
            st.integers(-4, 4),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_feasibility_matches_vertex_enumeration(raw):
    cons = [Constraint((F(a), F(b)), rel, F(r)) for a, b, rel, r in raw]
    boxed = cons + [
        le((1, 0), 6), ge((1, 0), -6), le((0, 1), 6), ge((0, 1), -6),
    ]
    got = lp_feasible(2, boxed)
    expected = _brute_force_feasible(cons, 2)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert all(c.holds(got) for c in boxed)


def _same_as_oracle(num_vars, constraints, **kwargs):
    got = solve_lp(num_vars, constraints, **kwargs)
    want = oracle.solve_lp(num_vars, constraints, **kwargs)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
    return got


@st.composite
def _lps(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        scalar = st.fractions(-3, 3, max_denominator=4)
    else:
        scalar = st.integers(-3, 3).map(F)
    row = st.tuples(*[scalar] * n)
    constraints = draw(
        st.lists(
            st.builds(Constraint, row, st.sampled_from([LE, GE, EQ]), st.just(F(0)) | scalar),
            min_size=1,
            max_size=6,
        )
    )
    kwargs = {
        "objective": draw(st.none() | row),
        "maximize": draw(st.booleans()),
        "nonneg": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    }
    return n, constraints, kwargs


@settings(max_examples=400, deadline=None)
@given(_lps())
def test_integer_tableau_matches_fraction_simplex(lp_data):
    # Same pivots as the Fraction simplex, so the same status, point and
    # value, on integer and rational data, feasible, infeasible, unbounded
    # and degenerate alike, with every tableau on int64 arrays and then with
    # every tableau on list rows.  The second pass also turns off the
    # equality step, so that the LPs it decides reach a tableau too.
    n, constraints, kwargs = lp_data
    for min_cells in (0, float("inf")):
        with mock.patch.object(lp, "_ARRAY_MIN_CELLS", min_cells):
            _same_as_oracle(n, constraints, **kwargs)
    with mock.patch.object(lp, "_settled_by_equalities", lambda *args: None):
        for min_cells in (0, float("inf")):
            with mock.patch.object(lp, "_ARRAY_MIN_CELLS", min_cells):
                _same_as_oracle(n, constraints, **kwargs)


@st.composite
def _lps_with_n_equalities(draw):
    # n equality rows A x = b in n variables, and up to two more: A random
    # (so its last pivot is as often negative as positive) or with its
    # last row a combination of the others (rank below n), b = A x0 or
    # with the dependent row's rhs moved off (inconsistent).  Extra
    # equalities through x0 or off it, and inequalities that x0 meets or
    # misses by a little, in any order among them.
    n = draw(st.integers(1, 4))
    scalar = st.fractions(-3, 3, max_denominator=4) if draw(st.booleans()) else st.integers(-3, 3)
    row = st.tuples(*[scalar] * n)
    x0 = draw(row)

    def through_x0(coeffs, off=0):
        return sum(a * x for a, x in zip(coeffs, x0)) + off

    A = draw(st.lists(row, min_size=n, max_size=n))
    case = draw(st.sampled_from(["unique", "deficient", "inconsistent"]))
    off = 0
    if case != "unique":
        weights = draw(st.lists(scalar, min_size=n - 1, max_size=n - 1))
        A[-1] = tuple(sum(w * a[j] for w, a in zip(weights, A)) for j in range(n))
        if case == "inconsistent":
            off = draw(scalar.filter(bool))
    constraints = [eq(a, through_x0(a)) for a in A[:-1]] + [eq(A[-1], through_x0(A[-1], off))]
    for a in draw(st.lists(row, max_size=2)):
        constraints.append(eq(a, through_x0(a, draw(st.just(0) | scalar))))
    for a in draw(st.lists(row, max_size=3)):
        constraints.append(Constraint(a, draw(st.sampled_from([LE, GE])), through_x0(a, draw(scalar))))
    constraints = [constraints[i] for i in draw(st.permutations(range(len(constraints))))]
    kwargs = {
        "objective": draw(st.none() | row),
        "maximize": draw(st.booleans()),
        "nonneg": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    }
    return n, constraints, kwargs


@settings(max_examples=400, deadline=None)
@given(_lps_with_n_equalities())
def test_equality_rows_answer_as_the_fraction_simplex(lp_data):
    # Inconsistent rows, a unique point that meets or breaks nonneg and the
    # inequalities, and rank-deficient systems left to the simplex: the
    # same status, point and value as the Fraction simplex, and the same
    # repr as the integer simplex.  (The Fraction simplex's value is the
    # int 0 when no basic column has a cost, as for 0 x = 0.)
    n, constraints, kwargs = lp_data
    got = _same_as_oracle(n, constraints, **kwargs)
    with mock.patch.object(lp, "_settled_by_equalities", lambda *args: None):
        assert repr(got) == repr(solve_lp(n, constraints, **kwargs))


@pytest.mark.parametrize(
    "num_vars, constraints, kwargs, result, tableaus",
    [
        # x + y = 1 and 2x + 2y = 3 are inconsistent.
        (2, [eq((1, 1), 1), eq((2, 2), 3)], {}, lp.LpResult("infeasible"), 0),
        # -x = 2 fixes x = -2 over the pivot -1.
        (1, [eq((-1,), 2)], {"nonneg": [True]}, lp.LpResult("infeasible"), 0),
        (1, [eq((-1,), -2)], {"nonneg": [True], "objective": (F(1, 2),)}, lp.LpResult("optimal", (F(2),), F(1)), 0),
        # (1, 1) breaks x + y <= 1 and meets x - y >= 0.
        (2, [eq((1, 0), 1), le((1, 1), 1), eq((0, 1), 1)], {}, lp.LpResult("infeasible"), 0),
        (
            2,
            [eq((1, 0), 1), ge((1, -1), 0), eq((0, 3), 1)],
            {"objective": (1, 1), "maximize": True},
            lp.LpResult("optimal", (F(1), F(1, 3)), F(4, 3)),
            0,
        ),
        # Rank 1 in two variables: the simplex decides.
        (2, [eq((1, 1), 1), eq((2, 2), 2)], {"nonneg": [True, True]}, lp.LpResult("optimal", (F(1), F(0)), None), 1),
        # One equality in two variables: below the gate.
        (2, [eq((1, 1), 1), ge((1, 0), 2)], {}, lp.LpResult("optimal", (F(2), F(-1)), None), 1),
    ],
)
def test_equality_rows_decide_only_when_they_fix_the_answer(
    monkeypatch, num_vars, constraints, kwargs, result, tableaus
):
    built = []
    init = lp._Tableau.__init__

    def counted_init(tab, *args):
        built.append(tab)
        init(tab, *args)

    monkeypatch.setattr(lp._Tableau, "__init__", counted_init)
    got = _same_as_oracle(num_vars, constraints, **kwargs)
    assert (repr(got), len(built)) == (repr(result), tableaus)


def test_redundant_equality_with_negative_drive_out_pivot(monkeypatch):
    # The third row is the second minus the first.  After phase 1 two
    # artificials sit at level 0: one leaves on a pivot of -1, the other
    # row has no structural entry left and is dropped.
    drive_out_pivots = []
    pivot = lp._Tableau.pivot

    def recording_pivot(tab, r, c):
        if tab.cost is None:
            drive_out_pivots.append(tab.rows[r][c])
        pivot(tab, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", recording_pivot)
    cons = [eq((0, -1, 0), -2), eq((-1, 0, 0), 0), eq((-1, 1, 0), 2)]
    res = _same_as_oracle(3, cons, objective=(0, 2, 1), nonneg=[True] * 3)
    assert drive_out_pivots == [-1]
    assert res.x == (F(0), F(2), F(0)) and res.value == 4


def test_ratio_tie_goes_to_smallest_basic_column():
    # x is optimal at -1 along a whole edge; the tie-break of the ratio
    # test decides the vertex (y = 0, not y = 2).
    cons = [le((2, -1), 0), le((2, 1), 0), le((-1, 0), 1), le((2, -1), 2)]
    res = _same_as_oracle(2, cons, objective=(1, 0), nonneg=[False, True])
    assert res.x == (F(-1), F(0)) and res.value == -1


@st.composite
def _larger_lps(draw):
    # Up to 12 constraints in 10 variables: tableaus of 60 to 540 cells,
    # on both sides of the storage threshold.  Denominators stay at most 2,
    # so that the starting denominator (the product of the rows' scales)
    # stays below 2**31 and larger tableaus start on int64.
    n = draw(st.integers(3, 10))
    scalar = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=2)
    row = st.tuples(*[scalar] * n)
    constraints = draw(
        st.lists(
            st.builds(Constraint, row, st.sampled_from([LE, GE, EQ]), scalar),
            min_size=6,
            max_size=12,
        )
    )
    kwargs = {
        "objective": draw(st.none() | row),
        "maximize": draw(st.booleans()),
        "nonneg": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    }
    return n, constraints, kwargs


@settings(max_examples=60, deadline=None)
@given(_larger_lps())
def test_larger_tableaus_match_fraction_simplex_across_the_storage_threshold(lp_data):
    # The storage is picked by the real threshold, so some of these run on
    # int64 arrays and some on list rows.
    n, constraints, kwargs = lp_data
    _same_as_oracle(n, constraints, **kwargs)


def _storage_per_pivot(monkeypatch):
    """Record, for each pivot, whether the tableau was an int64 array."""
    seen = []
    pivot = lp._Tableau.pivot

    def recording_pivot(tab, r, c):
        seen.append(isinstance(tab.table, np.ndarray))
        # Bland's rule terminates; wrong arithmetic may cycle instead.
        assert len(seen) < 1000, "the simplex does not terminate"
        pivot(tab, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", recording_pivot)
    return seen


def _big_lp(bits, noise=999, seed=1):
    # 10 equalities in 12 nonnegative variables (230 cells, above the
    # threshold), feasible at a known point, with coefficients 2**bits
    # plus or minus noise.
    rng = random.Random(seed)
    n, m = 12, 10
    point = [rng.randint(0, 3) for _ in range(n)]
    rows = [[(1 << bits) + rng.randint(-noise, noise) for _ in range(n)] for _ in range(m)]
    cons = [eq(a, sum(x * y for x, y in zip(a, point))) for a in rows]
    objective = [rng.randint(1, 9) for _ in range(n)]
    return n, cons, {"objective": objective, "nonneg": [True] * n}


def test_entries_crossing_two_to_the_31_promote_the_array(monkeypatch):
    seen = _storage_per_pivot(monkeypatch)
    n, cons, kwargs = _big_lp(20)
    res = _same_as_oracle(n, cons, **kwargs)
    assert res.status == "optimal"
    # The first pivots run on int64; once an entry reaches 2**31 the
    # tableau moves to Python ints for good.
    assert seen[0] and not seen[-1]
    assert seen == sorted(seen, reverse=True)


@pytest.mark.parametrize("bits", [40, 70])
def test_starting_rows_beyond_the_int64_bound_stay_on_python_ints(monkeypatch, bits):
    # 2**40 fits int64 but not the 2**31 bound; 2**70 does not fit int64.
    seen = _storage_per_pivot(monkeypatch)
    n, cons, kwargs = _big_lp(bits)
    assert _same_as_oracle(n, cons, **kwargs).status == "optimal"
    assert seen and not any(seen)


def test_large_objective_promotes_the_phase_two_cost_row(monkeypatch):
    seen = _storage_per_pivot(monkeypatch)
    n, cons, kwargs = _big_lp(0, noise=1)
    # Entries of 0, 1 and 2: phase 1 alone stays on int64 throughout.
    assert _same_as_oracle(n, cons, nonneg=kwargs["nonneg"]).status == "optimal"
    assert seen and all(seen)
    seen.clear()
    # A cost row beyond int64 moves phase 2 to Python ints.
    kwargs["objective"] = [(1 << 62) + 7 * i for i in range(n)]
    kwargs["maximize"] = True
    assert _same_as_oracle(n, cons, **kwargs).status == "optimal"
    assert seen[0] and not seen[-1]
