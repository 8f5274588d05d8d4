"""Fraction Gauss-Jordan elimination and simplex, kept as test oracles.

``rref`` below is the elimination the package used before its exact
routines moved onto the integer Bareiss kernel (``linalg._eliminate``),
with ``solve``, ``nullspace``, ``inverse`` and ``primitive`` as they were
then.  It works on Fractions throughout, shares no code with the kernel,
and the reduced row echelon form is unique, so the kernel's results must
equal these exactly.

``_Tableau`` and ``solve_lp`` are the two-phase Fraction simplex the
package used before ``comcat.lp`` moved onto an integer tableau.  The
integer solver makes the same pivots (Bland's rule, the same ratio-test
tie-break), so its status, point and value must equal these exactly.

The last three functions are the LP routes that the polyhedral predicates
took when the cone at hand lacked the description they now read:
``Cone.strictly_positive`` on a facet-only cone, the effect-interval scale
of ``protocols`` on a generator-only effect cone, and the effect-cone
duality check of ``com`` on a facet-only effect cone.  The LP route of
``Cone.member`` (and of ``separability_check``) on a generator-only cone
is ``Cone.member_by_lp``, which the package keeps as its reference.
The first two run on the Fraction simplex above.

``cone_from_generators`` and ``cone_from_facets`` are the factories as
they were when every input, simplicial or not, paid the ``_pointed`` LP
and one ``_drop_redundant`` LP per row.  On a simplicial input (n
independent rows in R^n) the package skips both, since a basis spans a
pointed cone with no redundant row; the cones must be equal.

``normalize_morphism``, ``conditional_state``, ``strongly_self_dual`` and
``negative_inertia_count`` are those functions as they were when each
chose exact or float arithmetic by its own branch (on the model's kind or
on ``is_exact``), before the data alone chose it.  On exact data and on
float data the package's versions must return the same values of the
same types.

``char_poly`` and ``symmetric_inertia`` are the exact inertia as the
package computed it before it moved onto the integer kernel: Descartes'
rule of signs on the Faddeev-LeVerrier characteristic polynomial, over
Fractions, with no elimination.  The package's Sylvester count must give
the same three numbers.

``from_mackey`` and ``find_teleportation`` are those functions as they
were before each read its result off one exact computation.
``from_mackey`` grew a greedy column basis by rank tests and solved for
every state's coordinates, the unit and every outcome functional (with
``solve`` above, and the package's cone factory);
``find_teleportation`` normalized each candidate pair by re-reading the
scale off the diagonal of hat(omega) . r_hat.  The package's versions must
return equal models (or raise the same message) and equal certificates
after the same LPs.  The LPs of the search (``_solve_r_hat``,
``_candidate_omegas_stage2``, ``_solve_omega`` and ``_solve_matching``) are
copies of the package's, kept here so that a changed LP in the package
shows as a different LP call; they run on the Fraction simplex above.
``order_isomorphisms`` is the ray-matching loop of the self-duality and
model-isomorphism searches as it was before it and stage 2 shared one
enumerator (``matching.ray_matchings``): its own ``permutations`` loop
over the bijections allowed by tight-facet counts, with this module's
``_solve_matching``, ``inverse`` and ``rays_leaving``.  The searches must
solve the same LPs with it as with the package's.  Like the stage-2 copy,
it keeps the bound of that time: past ``MAX_RAYS`` rays stage 2 skipped
itself, and the bijection loop raised without naming the model.

``matvec`` and ``matmul`` are the exact products as the package computed
them before exact operands holding a Fraction were scaled to integers
over one denominator: one Fraction sum of Fraction products per entry.
(The package's numpy path for floats is left out; no oracle multiplies
floats.)  ``rays_leaving`` is the polyhedral route of ``cones.rays_leaving``
on them, one ``member`` call on the Fraction image of each generator, and
``_effect_interval_max_scale`` the facet loop of ``protocols`` as it was.
Every oracle here multiplies with these, so no oracle shares the integer
products under test.

``is_exact`` is the exactness test as it was before the package read the
entry types of a scalar, vector or matrix in one pass: a recursive walk
with one ``isinstance`` test per entry; the oracle ``conditional_state``
branches on it.  The package's test must agree with it on scalars,
vectors and matrices of ints, Fractions, floats and ``numpy.float64``.

``remote_evaluate_dual`` is that function as it was when it checked its
result against its own mirrored contraction, ``_tripartite_right``, before
it ran the forward contraction on the swapped form and state.  The
package's version must return the same vector and raise on the same
inputs.

``min_tensor`` and ``max_tensor`` are the composite factories as they were
when every composite was built from the products by the package's cone
factories (their construction LPs), with the description a factory was
not given converted on demand.  The package keeps that route only for
composites without a simplicial factor; with one, it writes both
descriptions of both cones by theorem (``cones.product_cones``), and all
four generator and facet tuples must be equal.

The last six functions are the exact kernels and certificate arithmetic
as they were before the teleportation check read its quantities off
integers: ``integer_scaling``, ``scaled_primitive`` (then
``linalg.primitive``) and ``_eliminate`` with their generator tests and
``next`` pivot search; ``normalized_certificate``, the body of
``find_teleportation``'s candidate loop, whose residual is a Fraction
matrix product minus the identity and whose effect scale,
``ratio_effect_interval_max_scale``, builds one Fraction ratio per facet;
and ``_tripartite_left``, which adds Fraction terms one at a time.  The
package's versions must give the same values of the same types.

``sub_vectors`` and ``sub_matrices`` are the entrywise differences every
residual was read from, as ``max_abs`` of one of them, before
``linalg.deviation`` read them all; ``integer_deviation`` (with
``_quotient``) is the integer residual that ``protocols`` kept for the
certificate's f before the same change.  ``linalg.deviation`` must equal
``max_abs`` of the difference in value, to the bit on float data, and
``integer_deviation`` in value and type on exact vectors of one length.

``polyhedral_composite_violations`` is ``composites.is_composite`` on a
polyhedral composite as it was when the negativity check formed each
product effect again for every state generator.  The package's version
must return the same messages in the same order.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, isfinite, lcm
from typing import Optional, Sequence

import numpy as np

from comcat.com import Com, is_morphism, is_saturated, process_scale
from comcat.composites import MAX, MIN, CompositeCom, _require_polyhedral
from comcat import cones
from comcat.cones import POLYHEDRAL, Cone, _canonical_input
from comcat.conditioning import conditioning_adjoint, form_matrix, marginals
from comcat.config import numeric_tolerance, tolerance_for
from comcat.errors import (
    DegenerateTriple,
    DimensionMismatch,
    NotAMorphism,
    NotGenerating,
    NotPointed,
    RemoteEvalMismatch,
    SingularMatrix,
    UnsupportedKind,
    ZeroMap,
    ZeroProbabilityCondition,
)
from comcat.linalg import (
    dot,
    fmt,
    frac,
    identity,
    max_abs,
    rank,
    row_step,
    scale_matrix,
    finite_array,
    scale_vector,
    tensor_vector,
    transpose,
    vec_to_matrix,
)
from comcat.lp import GE, LE, Constraint, LpResult, eq, ge, in_cone, lp_feasible
from comcat.matching import MAX_RAYS
from comcat.models import MackeyTriple
from comcat.protocols import (
    TeleportationCertificate,
    _r_form_vector,
)

Vector = tuple
Matrix = tuple


def sub_vectors(x, y) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def sub_matrices(A, B) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def is_exact(obj) -> bool:
    """True if a scalar / vector / matrix contains only exact entries."""
    if isinstance(obj, (list, tuple)):
        return all(is_exact(x) for x in obj)
    return isinstance(obj, (int, Fraction))


def matvec(M, x) -> Vector:
    return tuple(dot(row, x) for row in M)


def matmul(A, B) -> Matrix:
    if not B:
        return tuple(() for _ in A)
    cols = list(zip(*B))
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


def rays_leaving(M, source: Cone, target: Cone) -> list:
    """The generators x of the polyhedral source with M x outside the
    polyhedral target, in generator order."""
    return [x for x in source.generators if not target.member(matvec(M, x))]


def _effect_interval_max_scale(r_form, composite_ab: CompositeCom):
    """Largest c >= 0 with c*r_form and u - c*r_form in the effect cone,
    from the facets alone: the least ratio h.u / h.r_form over facets h
    with h.r_form > 0, or None when some h.r_form < 0 (no positive
    multiple of r_form is an effect) or none is positive."""
    u = composite_ab.unit
    best = None
    for h in composite_ab.effect_cone.facets:
        den = dot(h, r_form)
        if den < 0:
            return None
        if den > 0:
            ratio = Fraction(dot(h, u)) / den
            best = ratio if best is None else min(best, ratio)
    return best


def frac_vector(xs) -> Vector:
    return tuple(frac(x) for x in xs)


def frac_matrix(rows) -> Matrix:
    return tuple(frac_vector(r) for r in rows)


def add_matrices(A, B) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


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


def char_poly(A) -> list[Fraction]:
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(tI - A), exact."""
    n = len(A)
    Af = frac_matrix(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = identity(n)
    for k in range(1, n + 1):
        AM = matmul(Af, M)
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        M = add_matrices(AM, scale_matrix(c, identity(n)))
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


class _Tableau:
    """Dense simplex tableau over Fractions, Bland's rule (no cycling)."""

    def __init__(self, rows, rhs, ncols):
        self.rows = rows          # list[list[Fraction]]
        self.rhs = rhs            # list[Fraction]
        self.ncols = ncols
        self.basis: list[int] = []

    def add_artificials(self):
        m = len(self.rows)
        for i, row in enumerate(self.rows):
            row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        self.basis = [self.ncols + i for i in range(m)]
        self.ncols += m

    def pivot(self, r, c):
        pr = self.rows[r]
        pv = pr[c]
        self.rows[r] = pr = [x / pv for x in pr]
        self.rhs[r] = self.rhs[r] / pv
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                f = row[c]
                self.rows[i] = [a - f * b for a, b in zip(row, pr)]
                self.rhs[i] = self.rhs[i] - f * self.rhs[r]
        self.basis[r] = c

    def reduced_costs(self, cost):
        # z_j = sum over basic rows of cost[basic] * row[j]; rc_j = cost_j - z_j
        rc = list(cost)
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        rc[j] -= cb * row[j]
        return rc

    def objective(self, cost) -> Fraction:
        return sum(cost[b] * self.rhs[i] for i, b in enumerate(self.basis))

    def minimize(self, cost, forbidden=frozenset()) -> str:
        while True:
            rc = self.reduced_costs(cost)
            enter = None
            for j in range(self.ncols):
                if j in forbidden:
                    continue
                if rc[j] < 0:
                    enter = j  # Bland: smallest index
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)


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

    def expand(coeffs):
        row = [Fraction(0)] * ncols
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            c = frac(c)
            p, m = col_of[i]
            row[p] += c
            if m is not None:
                row[m] -= c
        return row

    rows, rhs, slack_cols = [], [], 0
    raw = []
    for con in constraints:
        if len(con.coeffs) != num_vars:
            raise ValueError("constraint arity does not match num_vars")
        raw.append((expand(con.coeffs), con.rel, frac(con.rhs)))
        if con.rel in (LE, GE):
            slack_cols += 1
    total = ncols + slack_cols
    s = ncols
    for row, rel, b in raw:
        row = row + [Fraction(0)] * slack_cols
        if rel == LE:
            row[s] = Fraction(1)
            s += 1
        elif rel == GE:
            row[s] = Fraction(-1)
            s += 1
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    tab = _Tableau(rows, rhs, total)
    art_start = tab.ncols
    tab.add_artificials()

    phase1 = [Fraction(0)] * art_start + [Fraction(1)] * (tab.ncols - art_start)
    tab.minimize(phase1)
    if tab.objective(phase1) != 0:
        return LpResult("infeasible")

    # Drive surviving artificials out of the basis.
    for i in range(len(tab.rows)):
        if tab.basis[i] >= art_start:
            pivot_col = next(
                (j for j in range(art_start) if tab.rows[i][j] != 0), None
            )
            if pivot_col is not None:
                tab.pivot(i, pivot_col)
    keep = [i for i in range(len(tab.rows)) if tab.basis[i] < art_start]
    tab.rows = [tab.rows[i] for i in keep]
    tab.rhs = [tab.rhs[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]

    value = None
    if objective is not None:
        obj = expand(objective) + [Fraction(0)] * (tab.ncols - ncols)
        if maximize:
            obj = [-x for x in obj]
        status = tab.minimize(obj, forbidden=frozenset(range(art_start, tab.ncols)))
        if status == "unbounded":
            return LpResult("unbounded")
        value = tab.objective(obj)
        if maximize:
            value = -value

    solution = [Fraction(0)] * tab.ncols
    for i, b in enumerate(tab.basis):
        solution[b] = tab.rhs[i]
    x = []
    for p, m in col_of:
        x.append(solution[p] - (solution[m] if m is not None else 0))
    return LpResult("optimal", tuple(x), value)


def cone_from_generators(gens) -> Cone:
    """Exact polyhedral cone from generating rays.

    Zero vectors are dropped, redundant generators removed (LP test),
    and regularity enforced: raises NotPointed / NotGenerating.
    """
    n, rays = _canonical_input(gens, "generators")
    if not rays:
        raise NotGenerating("all generators are zero")
    if rank(rays) < n:
        raise NotGenerating(f"generators span rank {rank(rays)} < {n}")
    if not _pointed(rays, n):
        raise NotPointed("cone contains a line")
    rays = _drop_redundant(rays)
    return Cone(POLYHEDRAL, n, generators=tuple(rays))


def cone_from_facets(facets) -> Cone:
    """Polyhedral cone {x : h.x >= 0 for all h}; h-list must be regular."""
    n, normals = _canonical_input(facets, "facets")
    if rank(normals) < n:
        raise NotPointed("facet normals do not span; cone contains a line")
    if not _pointed(normals, n):
        raise NotGenerating("facet system admits no interior; cone not generating")
    normals = _drop_redundant(normals)
    return Cone(POLYHEDRAL, n, facets=tuple(normals))


def _pointed(rays, n) -> bool:
    # Pointed iff 0 has no nontrivial nonnegative representation.
    k = len(rays)
    cons = [eq(tuple(r[i] for r in rays), 0) for i in range(n)]
    cons.append(eq((1,) * k, 1))
    return lp_feasible(k, cons, nonneg=[True] * k) is None


def _drop_redundant(rays):
    rays = list(rays)
    i = 0
    while i < len(rays):
        others = rays[:i] + rays[i + 1 :]
        if others and in_cone(rays[i], others):
            rays.pop(i)
        else:
            i += 1
    return rays


def strictly_positive_by_facets(u, facets) -> bool:
    """Is u strictly positive on the cone with these facet normals?"""
    dim = len(facets[0])
    # u interior to the dual cone spanned by the facet normals:
    # u - t*p stays in that cone for some t > 0, p an interior point.
    p = [sum(col) for col in zip(*facets)]
    k = len(facets)
    cons = [
        eq(tuple(h[i] for h in facets) + (p[i],), u[i]) for i in range(dim)
    ]
    res = solve_lp(
        k + 1,
        cons,
        objective=(0,) * k + (1,),
        maximize=True,
        nonneg=[True] * (k + 1),
    )
    return res.status == "optimal" and res.value > 0


def effect_interval_max_scale_by_generators(r_form, composite_ab):
    """Largest c >= 0 with c*r_form and u - c*r_form in the effect cone."""
    E = composite_ab.effect_cone
    u = composite_ab.unit
    gens = E.generators
    k = len(gens)
    n = E.dim
    # variables: c, mu1 (k), mu2 (k); G mu1 = c r, G mu2 = u - c r
    nvars = 1 + 2 * k
    cons = []
    for i in range(n):
        row = [Fraction(0)] * nvars
        row[0] = -Fraction(r_form[i])
        for j, g in enumerate(gens):
            row[1 + j] = Fraction(g[i])
        cons.append(eq(tuple(row), 0))
    for i in range(n):
        row = [Fraction(0)] * nvars
        row[0] = Fraction(r_form[i])
        for j, g in enumerate(gens):
            row[1 + k + j] = Fraction(g[i])
        cons.append(eq(tuple(row), u[i]))
    res = solve_lp(
        nvars,
        cons,
        objective=tuple([Fraction(1)] + [Fraction(0)] * (2 * k)),
        maximize=True,
        nonneg=[True] * nvars,
    )
    if res.status != "optimal":
        return None
    return res.value


def effect_cone_in_dual_by_facets(A, E) -> list[str]:
    """E inside the dual of A, with E known by facets: every state
    generator lies in the cone spanned by those facet normals."""
    out = []
    for g in A.generators:
        if not in_cone(frac_vector(g), E.facets):
            out.append(
                f"state generator {fmt(g)} violates duality with the effect cone"
            )
    return out


def normalize_morphism(phi, A: Com, B: Com):
    """Scale a nonzero morphism to a process: returns (phi / M, M) with M
    the tight maximum of u_B over images of normalized states."""
    report = is_morphism(phi, A, B)
    if not report.ok:
        raise NotAMorphism("; ".join(report.violations))
    if all(x == 0 for row in phi for x in row):
        raise ZeroMap("cannot normalize the zero map")
    M = process_scale(phi, A, B)
    if M == 0:
        raise ZeroMap("unit never fires on the image; no finite normalization")
    if A.kind == POLYHEDRAL:
        inv = Fraction(1) / M
    else:
        inv = 1.0 / M
    return scale_matrix(inv, phi), M


def conditional_state(omega, b, A: Com, B: Com):
    """Normalized conditional state of A given effect b on B."""
    W = form_matrix(omega, A, B)
    _, omega_b = marginals(omega, A, B)
    prob = dot(omega_b, b)
    if prob <= tolerance_for(omega, b):
        raise ZeroProbabilityCondition(f"conditioning probability {prob} is not positive")
    unnormalized = matvec(W, b)
    if is_exact(unnormalized) and is_exact(prob):
        from fractions import Fraction

        return scale_vector(Fraction(1) / prob, unnormalized)
    return scale_vector(1.0 / prob, unnormalized)


def strongly_self_dual(D_A) -> bool:
    """Symmetric structure whose inverting form is positive definite, on a
    saturated model: the cone is then self-dual under a true inner product.

    Exact polyhedral data uses the exact inertia of f_hat; spectral data
    uses eigenvalues."""
    if not D_A.symmetric:
        return False
    if not is_saturated(D_A.com):
        return False
    if D_A.exact():
        pos, zero, neg = symmetric_inertia(D_A.f_hat)
        return zero == 0 and neg == 0
    eigs = np.linalg.eigvalsh(np.array(D_A.f_hat, dtype=float))
    return bool(eigs[0] > numeric_tolerance())


def negative_inertia_count(D_A) -> int:
    """Number of negative eigenvalues of the inverting form."""
    if D_A.exact():
        return symmetric_inertia(D_A.f_hat)[2]
    eigs = np.linalg.eigvalsh(np.array(D_A.f_hat, dtype=float))
    return int(np.sum(eigs < -numeric_tolerance()))


def from_mackey(triple: MackeyTriple) -> Com:
    """Linearize a probability table into a model.

    Duplicate state columns are merged exactly; the carrier is the span of
    the remaining columns, states embed as their coordinate vectors over a
    column basis, effects are the outcome evaluation rows restricted to the
    span plus the unit, and the unit is the functional equal to one on
    every embedded state (its existence is required, else the triple is
    degenerate)."""
    cols = [tuple(row[s] for row in triple.table) for s in range(len(triple.states))]
    merged: list[tuple] = []
    for c in cols:
        if c not in merged:
            merged.append(c)
    if not merged:
        raise DegenerateTriple("no states")

    basis_idx: list[int] = []
    for i, c in enumerate(merged):
        candidate = [merged[j] for j in basis_idx] + [c]
        if rank(candidate) == len(candidate):
            basis_idx.append(i)
    basis = [merged[i] for i in basis_idx]

    # coordinates of every merged column over the chosen basis
    coords = []
    for c in merged:
        sol = solve(transpose(frac_matrix(basis)), c)
        if sol is None:
            raise DegenerateTriple("column outside the span of the basis")
        coords.append(tuple(sol))

    # unit: u . coords(s) = 1 for every state
    u = solve(frac_matrix(coords), tuple(Fraction(1) for _ in coords))
    if u is None:
        raise DegenerateTriple("no linear functional takes value one on every state")

    state_cone = cones.cone_from_generators(coords)

    # evaluation functional of outcome x: a_x . coords(s) = p(x, s)
    effects = []
    for x in range(len(triple.outcomes)):
        target = tuple(c[x] for c in merged)
        a = solve(frac_matrix(coords), target)
        if a is None:
            raise DegenerateTriple("outcome functional is not linear on the span")
        effects.append(tuple(a))
    effects.append(tuple(u))

    return Com(
        label=f"mackey[{len(triple.outcomes)}x{len(triple.states)}]",
        state_cone=state_cone,
        effect_cone=cones.cone_from_generators(effects),
        unit=tuple(u),
    )


def _normalize_state(omega, composite: CompositeCom):
    total = dot(composite.unit, omega)
    if total == 0:
        return None
    return scale_vector(Fraction(1) / total, omega)


def _solve_r_hat(omega_hat, A: Com, B: Com) -> Optional[tuple]:
    """LP for a positive r_hat: A -> B-effects with omega_hat . r_hat = id."""
    n_a, n_b = A.dim, B.dim
    nvars = n_b * n_a  # entries of r_hat, row-major
    cons = []
    for i in range(n_a):
        for j in range(n_a):
            row = [0] * nvars
            for t in range(n_b):
                row[t * n_a + j] = omega_hat[i][t]
            cons.append(eq(row, 1 if i == j else 0))
    eff_facets = B.effect_cone.facets
    for g in A.state_cone.generators:
        for h in eff_facets:
            # (r_hat g).h >= 0: the row-major outer product of h and g
            cons.append(ge([ht * gs for ht in h for gs in g], 0))
    res = solve_lp(nvars, cons)
    if res.status != "optimal":
        return None
    flat = res.x
    return tuple(tuple(flat[t * n_a + s] for s in range(n_a)) for t in range(n_b))


def _candidate_omegas_stage2(A: Com, B: Com, composite_ba: CompositeCom):
    """(omega, r_hat) pairs from injective ray matchings A-states -> B-effects,
    solving an exact LP for omega in the composite cone."""
    a_rays = A.state_cone.generators
    b_rays = B.effect_cone.generators
    if len(a_rays) > len(b_rays) or len(b_rays) > MAX_RAYS:
        return
    n_a, n_b = A.dim, B.dim
    gens_ba = composite_ba.state_cone.generators
    for image in permutations(range(len(b_rays)), len(a_rays)):
        r_hat = _solve_matching(a_rays, [b_rays[j] for j in image], n_b, n_a)
        if r_hat is None:
            continue
        omega = _solve_omega(r_hat, A, B, gens_ba)
        if omega is not None:
            yield omega, r_hat


def _solve_omega(r_hat, A: Com, B: Com, gens_ba) -> Optional[tuple]:
    """LP for omega = sum mu_k G_k with hat(omega) . r_hat = id_A."""
    n_a, n_b = A.dim, B.dim
    k = len(gens_ba)
    cons = []
    # hat(omega) = W^T with W the (n_b x n_a) reshape of omega;
    # (hat(omega) r_hat)[i][j] = sum_t W[t][i] r_hat[t][j]
    Ws = [vec_to_matrix(g, n_b, n_a) for g in gens_ba]
    for i in range(n_a):
        for j in range(n_a):
            row = [sum(W[t][i] * r_hat[t][j] for t in range(n_b)) for W in Ws]
            cons.append(eq(row, 1 if i == j else 0))
    mu = solve_lp(k, cons, nonneg=[True] * k)
    if mu.status != "optimal":
        return None
    omega = [0] * (n_a * n_b)
    for coef, g in zip(mu.x, gens_ba):
        if coef:
            omega = [w + coef * x for w, x in zip(omega, g)]
    return tuple(omega)


def _solve_matching(sources, targets, rows, cols, symmetric=False, extra_rows=None):
    """LP for a rows x cols matrix M (free entries) and scalings lam_i
    with M sources_i = lam_i targets_i; minimizes sum(lam) for a canonical
    pick.  symmetric adds M = M^T (square M); extra_rows adds the exact
    conditions of order_isomorphisms.  Without extra rows lam_i >= 1 fixes
    the free overall scale; with them lam_i >= 0.  None when the LP is
    infeasible."""
    k = len(sources)
    nvars = rows * cols + k
    cons = []
    for i, (s, t) in enumerate(zip(sources, targets)):
        for row in range(rows):
            coeffs = [0] * nvars
            coeffs[row * cols : (row + 1) * cols] = s
            coeffs[rows * cols + i] = -t[row]
            cons.append(eq(coeffs, 0))
    floor = 0 if extra_rows else 1
    for i in range(k):
        coeffs = [0] * nvars
        coeffs[rows * cols + i] = 1
        cons.append(ge(coeffs, floor))
    if symmetric:
        for a in range(rows):
            for b in range(a + 1, rows):
                coeffs = [0] * nvars
                coeffs[a * cols + b] = 1
                coeffs[b * cols + a] = -1
                cons.append(eq(coeffs, 0))
    for coeff_matrix, value in extra_rows or ():
        coeffs = [x for matrix_row in coeff_matrix for x in matrix_row] + [0] * k
        cons.append(eq(coeffs, value))
    objective = [0] * (rows * cols) + [1] * k
    res = solve_lp(nvars, cons, objective=objective)
    if res.status != "optimal":
        return None
    flat = res.x
    return tuple(tuple(flat[row * cols + col] for col in range(cols)) for row in range(rows))


def order_isomorphisms(source: Cone, target: Cone, symmetric=False, extra_rows=None):
    """The pairs (M, M^-1) with M(source) = target, extreme rays to extreme
    rays: every ray bijection in lexicographic order whose rays have equal
    tight-facet counts, one ``_solve_matching`` LP each, then the inverse
    and the two-sided inclusion on generators."""
    if source.kind != POLYHEDRAL or target.kind != POLYHEDRAL:
        raise UnsupportedKind("ray matching needs polyhedral cones")
    n = source.dim
    if target.dim != n:
        return
    src = source.generators
    tgt = target.generators
    if len(src) != len(tgt):
        return
    k = len(src)
    if k > MAX_RAYS:
        raise UnsupportedKind(f"{k} extreme rays exceed the exhaustive search bound {MAX_RAYS}")

    src_profile = [sum(1 for h in source.facets if dot(h, g) == 0) for g in src]
    tgt_profile = [sum(1 for h in target.facets if dot(h, g) == 0) for g in tgt]
    compatible = [
        [j for j in range(k) if tgt_profile[j] == src_profile[i]] for i in range(k)
    ]

    for perm in permutations(range(k)):
        if any(perm[i] not in compatible[i] for i in range(k)):
            continue
        M = _solve_matching(src, [tgt[j] for j in perm], n, n, symmetric, extra_rows)
        if M is None:
            continue
        try:
            Minv = inverse(M)
        except SingularMatrix:
            continue
        if rays_leaving(M, source, target) or rays_leaving(Minv, target, source):
            continue
        yield M, Minv


def find_teleportation(
    A: Com, B: Com, composite_ab: CompositeCom, composite_ba: CompositeCom
) -> Optional[TeleportationCertificate]:
    """Search for a conclusive correction-free protocol sending A through B:
    stage 1 over the composite's extreme rays, stage 2 over ray matchings,
    each candidate pair rescaled from the diagonal of hat(omega) . r_hat."""
    n_a, n_b = A.dim, B.dim

    def finish(omega, r_hat) -> Optional[TeleportationCertificate]:
        omega_n = _normalize_state(omega, composite_ba)
        if omega_n is None:
            return None
        W = vec_to_matrix(omega_n, n_b, n_a)
        omega_hat = transpose(W)
        prod = matmul(omega_hat, r_hat)
        # rescale r_hat against the normalized state
        scale = None
        for i in range(n_a):
            for j in range(n_a):
                if i == j:
                    if prod[i][j] == 0:
                        return None
                    if scale is None:
                        scale = prod[i][j]
                    elif prod[i][j] != scale:
                        return None
                elif prod[i][j] != 0:
                    return None
        r_scaled = tuple(tuple(x / scale for x in row) for row in r_hat)
        residual = max_abs(sub_matrices(matmul(omega_hat, r_scaled), identity(n_a)))
        if residual > tolerance_for(omega_hat, r_scaled):
            return None
        r_form = _r_form_vector(r_scaled)
        c = _effect_interval_max_scale(r_form, composite_ab)
        if c is None or c <= 0:
            return None
        f = scale_vector(c, r_form)
        return TeleportationCertificate(
            omega=omega_n,
            r_hat=r_scaled,
            c=c,
            f=f,
            residual=residual,
            composite_ab=composite_ab,
            composite_ba=composite_ba,
        )

    # Stage 1: pure shared states (extreme rays of the composite cone).
    for ray in composite_ba.state_cone.generators:
        W = vec_to_matrix(ray, n_b, n_a)
        omega_hat = transpose(W)
        r_hat = _solve_r_hat(omega_hat, A, B)
        if r_hat is None:
            continue
        cert = finish(ray, r_hat)
        if cert is not None:
            return cert

    # Stage 2: matched maps with an LP for the shared state.
    for omega, r_hat in _candidate_omegas_stage2(A, B, composite_ba):
        cert = finish(omega, r_hat)
        if cert is not None:
            return cert
    return None


def _tripartite_right(omega, beta, f, A: Com, B: Com, C: Com):
    """(id_A x f)(omega x beta) by explicit tensor contraction; omega is a
    state over (A, C), f a form over (C, B), beta a state of B."""
    F = vec_to_matrix(f, C.dim, B.dim)
    big = tensor_vector(omega, beta)  # index (i*nC + k)*nB + j
    nC, nB = C.dim, B.dim
    out = []
    for i in range(A.dim):
        total = 0
        for k in range(nC):
            for j in range(nB):
                total = total + F[k][j] * big[(i * nC + k) * nB + j]
        out.append(total)
    return tuple(out)


def remote_evaluate_dual(f, omega, beta, A: Com, B: Com, C: Com):
    """Mirror protocol: omega lives on (A,C), f on (C,B), beta is a state
    of B; returns hat(omega)^*(hat(f)^*(beta)) in A, checked against the
    contraction (id_A x f)(omega x beta)."""
    f_hat_star = vec_to_matrix(f, C.dim, B.dim)
    omega_hat_star = conditioning_adjoint(omega, A, C)
    rhs = matvec(omega_hat_star, matvec(f_hat_star, beta))
    lhs = _tripartite_right(omega, beta, f, A, B, C)
    residual = max_abs(sub_vectors(lhs, rhs))
    if residual > tolerance_for(f, omega, beta):
        raise RemoteEvalMismatch(f"dual remote evaluation: sides differ by {residual}")
    return rhs


def min_tensor(A: Com, B: Com) -> CompositeCom:
    """Separable composite: states are mixtures of products, effects are
    everything positive on them (the full dual)."""
    _require_polyhedral(A, B)
    state_cone = cones.cone_from_generators(
        tensor_vector(g, h) for g in A.state_cone.generators for h in B.state_cone.generators
    )
    effect_cone = cones.cone_from_facets(state_cone.generators)
    return CompositeCom(
        label=f"{A.label}(min){B.label}",
        state_cone=state_cone,
        effect_cone=effect_cone,
        unit=tensor_vector(A.unit, B.unit),
        factors=(A, B),
        composite_kind=MIN,
    )


def max_tensor(A: Com, B: Com) -> CompositeCom:
    """Nonsignaling composite: states are all bilinear forms positive on
    product effects; effects are generated by the product effects."""
    _require_polyhedral(A, B)
    effect_products = [
        tensor_vector(a, b) for a in A.effect_cone.generators for b in B.effect_cone.generators
    ]
    state_cone = cones.cone_from_facets(effect_products)
    effect_cone = cones.cone_from_generators(effect_products)
    return CompositeCom(
        label=f"{A.label}(max){B.label}",
        state_cone=state_cone,
        effect_cone=effect_cone,
        unit=tensor_vector(A.unit, B.unit),
        factors=(A, B),
        composite_kind=MAX,
    )


def integer_scaling(values) -> tuple[int, list[int]]:
    """(s, ints): the least s > 0 with every s * value an integer, and those."""
    if all(type(v) is int for v in values):
        return 1, list(values)
    values = [v if isinstance(v, (int, Fraction)) else frac(v) for v in values]
    s = lcm(*(v.denominator for v in values))
    return s, [v.numerator * (s // v.denominator) for v in values]


def scaled_primitive(v) -> Vector:
    """Scale an exact vector to coprime integers; sign is preserved."""
    if not all(type(x) is int for x in v):
        v = integer_scaling(v)[1]
    g = gcd(*v)
    if g == 0:
        return tuple(0 for _ in v)
    return tuple(x // g for x in v)


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
                rows[i] = row_step(rows[i], row_r, c, p, d)
        pivots.append(c)
        d = p
    return pivots, d


def ratio_effect_interval_max_scale(r_form, composite_ab: CompositeCom):
    """Largest c >= 0 with c*r_form and u - c*r_form in the effect cone,
    from the facets alone: the least ratio h.u / h.r_form over facets h
    with h.r_form > 0, or None when some h.r_form < 0 (no positive
    multiple of r_form is an effect) or none is positive."""
    facets = composite_ab.effect_cone.facets
    dens = matvec(facets, r_form)
    if any(den < 0 for den in dens):
        return None
    ratios = [Fraction(dot(h, composite_ab.unit)) / den for h, den in zip(facets, dens) if den > 0]
    return min(ratios, default=None)


def normalized_certificate(omega, r_hat, n_a: int, n_b: int, composite_ab, composite_ba):
    """The body of ``find_teleportation``'s candidate loop, a ``continue``
    read as ``return None``."""
    # The LP's equality rows made hat(omega) . r_hat = id_A, so with
    # t = u . omega the normalized pair is (omega / t, t * r_hat).
    t = dot(composite_ba.unit, omega)
    if t == 0:
        return None
    omega_n = scale_vector(Fraction(1) / t, omega)
    r_scaled = scale_matrix(t, r_hat)
    omega_hat = transpose(vec_to_matrix(omega_n, n_b, n_a))
    residual = max_abs(sub_matrices(matmul(omega_hat, r_scaled), identity(n_a)))
    if residual > tolerance_for(omega_hat, r_scaled):
        return None
    r_form = _r_form_vector(r_scaled)
    c = ratio_effect_interval_max_scale(r_form, composite_ab)
    if c is None or c <= 0:
        return None
    return TeleportationCertificate(
        omega=omega_n,
        r_hat=r_scaled,
        c=c,
        f=scale_vector(c, r_form),
        residual=residual,
        composite_ab=composite_ab,
        composite_ba=composite_ba,
    )


def _tripartite_left(f, omega, alpha, A: Com, B: Com, C: Com):
    """(f x id_C)(alpha x omega) by explicit tensor contraction."""
    F = vec_to_matrix(f, A.dim, B.dim)
    big = tensor_vector(alpha, omega)  # index (i*nB + j)*nC + k
    nB, nC = B.dim, C.dim
    out = []
    for k in range(nC):
        total = 0
        for i in range(A.dim):
            for j in range(nB):
                total = total + F[i][j] * big[(i * nB + j) * nC + k]
        out.append(total)
    return tuple(out)


def integer_deviation(x, y):
    """Max-abs entry of x - y.  Exact vectors of one length are scaled
    once each to integers, compared in integers and divided once
    (``_quotient``); other data takes ``max_abs``."""
    if len(x) != len(y) or not is_exact((x, y)):
        return max_abs(sub_vectors(x, y))
    (s, xs), (t, ys) = integer_scaling(x), integer_scaling(y)
    return _quotient(max((abs(a * t - b * s) for a, b in zip(xs, ys)), default=0), s * t, (x, y))


def _quotient(num: int, den: int, data):
    """num / den for integers read off the exact vectors of data, typed as
    their own arithmetic would type it: the int num when every entry is an
    int (den is then 1), else one Fraction."""
    return num if all(set(map(type, x)) <= {int} for x in data) else Fraction(num, den)


def polyhedral_composite_violations(AB: Com, A: Com, B: Com) -> list[str]:
    """All composite-contract violations of a polyhedral composite."""
    violations: list[str] = []
    if AB.dim != A.dim * B.dim:
        return [f"carrier dim {AB.dim} is not {A.dim}*{B.dim}"]
    u_prod = tensor_vector(A.unit, B.unit)
    residual = sub_vectors(AB.unit, u_prod)
    tolerance = tolerance_for(AB.unit, u_prod)
    if tolerance and not isfinite(sum(residual)):  # a NaN residual compares False
        finite_array((*AB.unit, *u_prod), "the composite unit check")
    if len(AB.unit) != len(u_prod) or max_abs(residual) > tolerance:
        violations.append("unit is not the product of the factor units")

    assert AB.kind == POLYHEDRAL
    for g in A.state_cone.generators:
        for h in B.state_cone.generators:
            if not AB.state_cone.member(tensor_vector(g, h)):
                violations.append(f"product state of {g} and {h} missing from the state cone")
    for a in A.effect_cone.generators:
        for b in B.effect_cone.generators:
            if not AB.effect_cone.member(tensor_vector(a, b)):
                violations.append(f"product effect of {a} and {b} missing from the effect cone")
    state_gens = AB.state_cone.generators
    for w in state_gens:
        for a in A.effect_cone.generators:
            for b in B.effect_cone.generators:
                if dot(w, tensor_vector(a, b)) < 0:
                    violations.append(
                        f"state {w} is negative on the product effect of {a} and {b}"
                    )
    return violations
