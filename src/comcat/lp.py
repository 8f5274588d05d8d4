"""Exact rational linear programming via two-phase simplex with Bland's rule.

Variables are free unless declared nonnegative; constraints are equalities
or one-sided inequalities whose exact data (int, Fraction) is stored as
given.  Each constraint row is scaled to integers once, by the lcm s_i of
its own denominators (``linalg.integer_scaling``), for both steps below.

An LP with at least as many equality rows as variables first asks those
rows alone (``_settled_by_equalities``, one reduced ``linalg._eliminate``
of [A | b]).  Inconsistent rows make it infeasible; rank ``num_vars``
fixes its one point, which is then checked against the sign constraints
and the inequalities in integers.  Either answer is the only one any
solver can give, so it is returned without a tableau; every other LP runs
the simplex.  The gate is the one case in which equality rows can fix the
point.  Below it they can only refute, which they rarely do: gated on
"some nonzero right-hand side" instead, the step made the cone
construction LPs of one exact benchmark round about 45 % slower in total.

The simplex runs on an integer-preserving tableau (Edmonds' fraction-free
pivoting, the row step of ``linalg``'s Bareiss elimination): every row is
kept as integers over one common denominator, the determinant of the
current basis, and each pivot divides exactly.  The row scales make the
starting (artificial) basis diag(s_i) and the starting denominator
prod s_i; one lcm shared by all rows is not a basis determinant and would
break the exact divisions.  Answers are exact: a returned point satisfies
every constraint with Fraction arithmetic, and "infeasible" is a proof,
not a tolerance call.

The tableau has two storages, chosen once per LP from its size: Python-int
rows below ``_ARRAY_MIN_CELLS`` (200) rows x columns, one ``numpy.int64``
array pivoted by one vectorized update from 200 cells on, exact while every
entry stays below 2**31 and promoted to Python ints when one does not (see
``_Tableau``).  200 is the measured break-even: on the LPs of one exact
benchmark round, tableaus of 168 cells ran 1.36x slower on arrays, 189
cells about even, and those of 200 cells and more 2.4x faster in total
(1.3x at 225 cells, 4.8x beyond 2,000).  Phases 1 and 2, the drive-out of
artificials and Bland's rule are one copy for both storages, so both make
the same pivots and return the same point and value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .linalg import _eliminate, integer_scaling, row_step

LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  rel  rhs, with the exact numbers (int, Fraction) as
    given; ``solve_lp`` scales each row to integers itself."""

    coeffs: tuple
    rel: str
    rhs: object


def le(coeffs, rhs) -> Constraint:
    return Constraint(tuple(coeffs), LE, rhs)


def ge(coeffs, rhs) -> Constraint:
    return Constraint(tuple(coeffs), GE, rhs)


def eq(coeffs, rhs) -> Constraint:
    return Constraint(tuple(coeffs), EQ, rhs)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple] = None
    value: Optional[Fraction] = None

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Dense simplex tableau in integers over one common denominator.

    ``table`` holds the constraint rows and, while minimizing, the cost row
    last.  Row i is ``d`` times row i of the Fraction tableau B^-1 A, with
    its right-hand side as the last entry, and the cost row is ``d`` times
    the reduced costs followed by ``d`` times the negated objective value.
    With ``d`` the determinant of the basis B (up to sign) in the
    integer-scaled constraint matrix, every entry is an integer by Cramer's
    rule, and Edmonds' pivot update divides exactly: ``linalg.row_step`` on
    list rows, the same formula on a whole array at once.  The cost row is
    updated by the same rule as every other row, never recomputed.

    Storage is chosen once, from the tableau's size: below
    ``_ARRAY_MIN_CELLS`` rows x columns, ``table`` is a list of lists of
    Python ints; from there on it is one 2-D ``numpy.int64`` array and a
    pivot is one vectorized update of the whole array.  int64 is exact
    while ``d`` and every |entry| stay below 2**31: each step
    p * x - f * y is then at most 2 (2**31 - 1)**2 < 2**63 in magnitude,
    and the division by ``d`` is exact, so floor division loses nothing.
    An array whose entries reach 2**31 (checked after every pivot and
    whenever a cost row is added), or whose starting rows do not fit, is
    promoted to the list rows, which run on unbounded Python ints from then
    on.  Both storages make the same pivots and hold the same integers.

    Pivots follow Bland's rule (no cycling): the entering column is the
    smallest with a negative reduced cost, the leaving row has the least
    ratio rhs / entry, ties going to the smallest basic column.
    """

    def __init__(self, rows, d, basis, cost):
        self.d = d                # positive common denominator
        self.basis = basis        # list[int]: basic column of each row
        self.table = rows + [cost]
        if len(rows) * len(cost) >= _ARRAY_MIN_CELLS and d < _INT64_SAFE:
            array = _int64(self.table)
            if array is not None:
                self.table = array

    @property
    def rows(self):
        return self.table[: len(self.basis)]

    @property
    def cost(self):
        """The cost row, or None outside the simplex."""
        return self.table[-1] if len(self.table) > len(self.basis) else None

    def row(self, i) -> list:
        """Row i (the cost row is -1 while minimizing) as Python ints."""
        row = self.table[i]
        return row.tolist() if isinstance(row, np.ndarray) else row

    def column(self, j) -> list:
        """Column j as Python ints, the cost row's entry last while minimizing."""
        table = self.table
        if isinstance(table, np.ndarray):
            return table[:, j].tolist()
        return [row[j] for row in table]

    def ratio_rows(self, enter):
        """Lists of Python ints that end in the constraint rows' right-hand
        sides, and the position of column ``enter`` in them."""
        table = self.table
        if isinstance(table, np.ndarray):
            return table[:, [enter, -1]].tolist(), 0
        return table, enter

    def set_cost(self, cost):
        """Append ``cost`` (a list of ints) as the cost row; None drops it."""
        rows = self.rows
        if cost is None:
            self.table = rows
        elif not isinstance(rows, np.ndarray):
            self.table = rows + [cost]
        else:
            array = _int64([cost])
            if array is None:
                self.table = rows.tolist() + [cost]
            else:
                self.table = np.vstack((rows, array))

    def drop_columns(self, start, stop):
        """Delete columns start .. stop - 1 of every row."""
        table = self.table
        if isinstance(table, np.ndarray):
            self.table = np.delete(table, np.s_[start:stop], axis=1)
        else:
            self.table = [row[:start] + row[stop:] for row in table]

    def keep_rows(self, keep):
        """Keep the constraint rows numbered in ``keep`` and their basics."""
        table = self.table
        self.table = table[keep] if isinstance(table, np.ndarray) else [table[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def pivot(self, r, c):
        """Make column c basic in row r; the old pivot p becomes ``d``."""
        table, d = self.table, self.d
        pr = table[r]
        p = pr[c]
        # A negative pivot occurs only when an artificial is driven out.
        # Dividing row r by its pivot makes its sign irrelevant; negating it
        # first keeps d > 0.
        if isinstance(table, np.ndarray):
            p = int(p)
            if p < 0:
                pr, p = -pr, -p
            # Edmonds' step on every row at once, exact in int64 because d
            # and every |entry| are below 2**31.
            new = p * table
            new -= table[:, c, None] * pr
            new //= d
            new[r] = pr
            if new.min() > -_INT64_SAFE and new.max() < _INT64_SAFE:
                self.table = new
            else:
                self.table = new.tolist()
        else:
            if p < 0:
                pr = table[r] = [-x for x in pr]
                p = -p
            for i, row in enumerate(table):
                if i != r:
                    table[i] = row_step(row, pr, c, p, d)
        self.d = p
        self.basis[r] = c

    def minimize(self) -> str:
        basis, n = self.basis, len(self.cost) - 1
        while True:
            cost = self.row(-1)
            enter = next((j for j in range(n) if cost[j] < 0), None)
            if enter is None:
                return "optimal"
            rows, k = self.ratio_rows(enter)
            leave = None
            for i in range(len(basis)):
                row = rows[i]
                a = row[k]
                if a > 0:
                    b = row[-1]
                    if leave is None:
                        leave, best_a, best_b = i, a, b
                        continue
                    # b / a < best_b / best_a, both denominators positive
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_a, best_b = i, a, b
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)


_ARRAY_MIN_CELLS = 200  # rows x columns; measured break-even of the two storages
_INT64_SAFE = 1 << 31  # d and every |entry| below this keep a pivot inside int64


def _int64(rows):
    """``rows`` as one int64 array if every |entry| is below 2**31, else None."""
    try:
        array = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    if array.min() > -_INT64_SAFE and array.max() < _INT64_SAFE:
        return array
    return None


def _settled_by_equalities(num_vars, constraints, scaled, objective, nonneg) -> Optional[LpResult]:
    """The LP's answer when its equality rows decide it, else None.

    ``scaled`` holds each constraint's ``integer_scaling``.  With at least
    ``num_vars`` equality rows, the augmented rows [A | b] are eliminated
    once (``linalg._eliminate``, reduced).  A pivot in the b column means
    the rows are inconsistent: infeasible.  Rank ``num_vars`` fixes the one
    point x = row[-1] / d, which is then checked against ``nonneg`` and
    every inequality in integers: infeasible, or optimal at x.  Any other
    rank leaves the answer to the simplex.  Either answer is the only one
    an LP solver can give, so it equals the simplex's.
    """
    rows = [ints for con, (_, ints) in zip(constraints, scaled) if con.rel == EQ]
    if len(rows) < num_vars:
        return None
    pivots, d = _eliminate(rows, reduce=True)
    if pivots and pivots[-1] == num_vars:
        return LpResult("infeasible")
    if len(pivots) < num_vars:
        return None
    # Row i of the reduced rows is d e_i | d x_i; make d positive so that
    # the integer comparisons below keep their direction.
    nums = [row[-1] for row in rows[:num_vars]]
    if d < 0:
        d, nums = -d, [-v for v in nums]
    if any(flag and v < 0 for flag, v in zip(nonneg, nums)):
        return LpResult("infeasible")
    for con, (_, ints) in zip(constraints, scaled):
        if con.rel != EQ:
            lhs, rhs = sum(map(mul, ints[:-1], nums)), ints[-1] * d
            if (lhs > rhs) if con.rel == LE else (lhs < rhs):
                return LpResult("infeasible")
    value = None
    if objective is not None:
        scale, ints = integer_scaling(objective)
        value = Fraction(sum(map(mul, ints, nums)), scale * d)
    return LpResult("optimal", tuple(Fraction(v, d) for v in nums), value)


def solve_lp(
    num_vars: int,
    constraints: Sequence[Constraint],
    objective: Optional[Sequence] = None,
    maximize: bool = False,
    nonneg: Optional[Sequence[bool]] = None,
) -> LpResult:
    """Solve min/max objective . x subject to the constraints.

    With objective None, any feasible point is returned.  nonneg[i] marks
    variable i as >= 0 (saving the free-variable split).
    """
    if nonneg is None:
        nonneg = [False] * num_vars
    col_of: list[tuple[int, Optional[int]]] = []  # (plus column, minus column)
    ncols = 0
    for i in range(num_vars):
        if nonneg[i]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    def expand(ints, width):
        row = [0] * width
        for i, v in enumerate(ints):
            if v:
                p, m = col_of[i]
                row[p] = v
                if m is not None:
                    row[m] = -v
        return row

    for con in constraints:
        if len(con.coeffs) != num_vars:
            raise ValueError("constraint arity does not match num_vars")
    # Each row (coefficients, then rhs) scaled once to integers by the lcm
    # s_i of its denominators, for the equality step and the tableau alike.
    scaled = [integer_scaling((*con.coeffs, con.rhs)) for con in constraints]
    settled = _settled_by_equalities(num_vars, constraints, scaled, objective, nonneg)
    if settled is not None:
        return settled
    nrows = len(constraints)
    slack_cols = sum(con.rel in (LE, GE) for con in constraints)
    art_start = ncols + slack_cols

    # Row i times s_i: structural and slack columns, s_i in its own
    # artificial column, then the rhs.  The artificial basis is diag(s_i),
    # so d0 = prod s_i and the tableau rows start as d0 times the Fraction
    # rows.
    rows = []
    slack = ncols
    for i, (con, (s, ints)) in enumerate(zip(constraints, scaled)):
        row = expand(ints[:-1], art_start + nrows + 1)
        if con.rel in (LE, GE):
            row[slack] = s if con.rel == LE else -s
            slack += 1
        if ints[-1] < 0:
            row = [-x for x in row]
        row[art_start + i] = s
        row[-1] = abs(ints[-1])
        rows.append(row)
    d = prod(s for s, _ in scaled)
    rows = [row if s == d else [x * (d // s) for x in row] for row, (s, _) in zip(rows, scaled)]

    # Phase 1 minimizes the sum of the artificials, which are basic with
    # cost 1: their reduced costs are 0 and every other column's is minus
    # its column sum.
    cost = [-sum(col) for col in zip(*rows)] if rows else [0] * (art_start + 1)
    cost[art_start:-1] = [0] * nrows
    tab = _Tableau(rows, d, list(range(art_start, art_start + nrows)), cost)
    tab.minimize()
    if tab.cost[-1] != 0:
        return LpResult("infeasible")

    # Drive surviving artificials (all at level 0) out of the basis; the
    # artificial columns take no further part.
    tab.set_cost(None)
    tab.drop_columns(art_start, art_start + nrows)
    for i in range(nrows):
        if tab.basis[i] >= art_start:
            row = tab.row(i)
            pivot_col = next((j for j in range(art_start) if row[j]), None)
            if pivot_col is not None:
                tab.pivot(i, pivot_col)
    tab.keep_rows([i for i in range(nrows) if tab.basis[i] < art_start])

    value = None
    if objective is not None:
        # Objective scaled to integers by the lcm of its denominators: the
        # reduced costs keep their signs, so the pivots do not change.
        scale, ints = integer_scaling(objective)
        obj = expand(ints, art_start)
        if maximize:
            obj = [-x for x in obj]
        cost = [tab.d * x for x in obj] + [0]
        for i, b in enumerate(tab.basis):
            if obj[b]:
                cost = [x - obj[b] * y for x, y in zip(cost, tab.row(i))]
        tab.set_cost(cost)
        if tab.minimize() == "unbounded":
            return LpResult("unbounded")
        value = Fraction(-tab.row(-1)[-1], tab.d * scale)
        if maximize:
            value = -value

    level = [0] * art_start
    for b, v in zip(tab.basis, tab.column(-1)):
        level[b] = v
    x = tuple(
        Fraction(level[p] - (level[m] if m is not None else 0), tab.d) for p, m in col_of
    )
    return LpResult("optimal", x, value)


def lp_feasible(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Optional[Sequence[bool]] = None,
) -> Optional[tuple]:
    """A feasible point, or None as an exact infeasibility certificate."""
    res = solve_lp(num_vars, constraints, nonneg=nonneg)
    return res.x if res.feasible else None


def in_cone(x, generators) -> bool:
    """Exact membership of x in the cone generated by the given vectors."""
    gens = list(generators)
    if not gens:
        return all(v == 0 for v in x)
    n = len(x)
    cons = [
        eq([g[i] for g in gens], x[i])
        for i in range(n)
    ]
    return lp_feasible(len(gens), cons, nonneg=[True] * len(gens)) is not None
