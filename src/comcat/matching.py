"""Combinatorial search for order isomorphisms between polyhedral cones.

An order isomorphism must send extreme rays bijectively to extreme rays
(up to positive scaling), so the search runs over ray bijections,
pre-pruned by a combinatorial invariant (how many facets are tight at a
ray), and reads off each surviving bijection the matrix and the per-ray
scalings.  ``ray_matchings`` is the one enumeration, which stage 2 of the
teleportation search walks unfiltered.  Exhaustive and deterministic up
to ``MAX_RAYS`` target rays; past them it refuses, naming the search and
the model.

When the sources are a basis (n independent rays in R^n, a simplicial
cone such as every classical state cone) and the search adds no
condition, each matching has one answer, M = T S^-1 with every scaling 1
(S and T the sources and the chosen targets as columns); ``_basis_maps``
reads d S^-1 off one integer elimination per search
(``linalg.integer_inverse``, no Fraction on the way) and gives each
bijection one integer product.
Every other search (symmetric M, the unit rows of ``com_isomorphism``,
sources that are no basis) solves one exact LP per bijection
(``_solve_matching``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Iterator, Optional, Sequence

from .cones import Cone, rays_leaving
from .errors import SingularMatrix, UnsupportedKind
from .linalg import dot, integer_inverse, inverse, transpose
from .lp import eq, ge, solve_lp

MAX_RAYS = 8


def _tightness_profile(rays, facets):
    return [sum(1 for h in facets if dot(h, g) == 0) for g in rays]


def ray_matchings(sources, targets, rows, cols, search, label, allowed=None, symmetric=False, extra_rows=None):
    """For each injection i -> image[i] of sources into targets, in
    lexicographic order and with image[i] in allowed[i] if given, the
    rows x cols M of the feasible matching LPs (``_solve_matching``): the
    LP's own optimum, read off one inverse (``_basis_maps``) when the
    sources are a basis and neither symmetric nor extra_rows is given.
    Past ``MAX_RAYS`` targets, when some injection exists, raise
    ``UnsupportedKind`` naming the search and the model labelled label."""
    if len(sources) > len(targets):
        return
    if len(targets) > MAX_RAYS:
        raise UnsupportedKind(
            f"{search} is exhaustive up to {MAX_RAYS} extreme rays, and {label} has {len(targets)}"
        )
    basis_map = None if symmetric or extra_rows else _basis_maps(sources, cols)
    for image in permutations(range(len(targets)), len(sources)):
        if allowed is not None and any(j not in can for j, can in zip(image, allowed)):
            continue
        chosen = [targets[j] for j in image]
        if basis_map is not None:
            yield basis_map(chosen)
            continue
        M = _solve_matching(sources, chosen, rows, cols, symmetric, extra_rows)
        if M is not None:
            yield M


def _basis_maps(sources, cols):
    """When the sources are cols independent vectors of length cols, the
    map from chosen targets to the optimum of their matching LP, else None.

    With S = transpose(sources) invertible, every lam >= 1 is feasible
    (M = T diag(lam) S^-1), so the LP's one optimum is lam = 1 and
    M = T S^-1.  The integer rows of d S^-1 (d > 0) come off one
    elimination (``integer_inverse``); each M is then one integer product,
    entry (r, c) the Fraction (row r of T) . (column c of d S^-1) / d,
    typed as the LP's x."""
    if len(sources) != cols:
        return None
    try:
        d, inverse_rows = integer_inverse(transpose(sources))
    except SingularMatrix:
        return None
    inverse_cols = list(zip(*inverse_rows))

    def basis_map(chosen):
        return tuple(tuple(Fraction(dot(t, col), d) for col in inverse_cols) for t in zip(*chosen))

    return basis_map


def order_isomorphisms(
    source: Cone,
    target: Cone,
    symmetric: bool = False,
    extra_rows: Optional[Sequence[tuple[tuple, tuple]]] = None,
    search: str = "the order-isomorphism search",
    label: str = "the target cone",
) -> Iterator[tuple[tuple, tuple]]:
    """Yield the pairs (M, M^-1) with M(source) = target, extreme rays to
    extreme rays; optionally only symmetric M, optionally subject to
    additional exact linear conditions (coeff_matrix_row, value) meaning
    sum_ij row[i][j] * M[i][j] == value.

    Results are verified (invertibility plus two-sided cone inclusion on
    generators) before being yielded, in deterministic order; M^-1 is the
    inverse that the verification computed.  search and label word the
    refusal of a target past the bound (``ray_matchings``).
    """
    if source.kind != "polyhedral" or target.kind != "polyhedral":
        raise UnsupportedKind("ray matching needs polyhedral cones")
    n = source.dim
    if target.dim != n:
        return
    src = source.generators
    tgt = target.generators
    if len(src) != len(tgt):
        return
    src_profile = _tightness_profile(src, source.facets)
    tgt_profile = _tightness_profile(tgt, target.facets)
    allowed = [{j for j, p in enumerate(tgt_profile) if p == q} for q in src_profile]
    for M in ray_matchings(src, tgt, n, n, search, label, allowed, symmetric, extra_rows):
        Minv = _verified_inverse(M, source, target)
        if Minv is not None:
            yield M, Minv


def _solve_matching(sources, targets, rows, cols, symmetric=False, extra_rows=None):
    """LP for a rows x cols matrix M (free entries) and scalings lam_i
    with M sources_i = lam_i targets_i; minimizes sum(lam) for a canonical
    pick.  ``ray_matchings`` solves it where ``_basis_maps`` cannot read
    the optimum off S^-1.  symmetric adds M = M^T (square M); extra_rows
    adds the exact conditions of order_isomorphisms.  Without extra rows
    lam_i >= 1 fixes the free overall scale; extra rows may fix it
    themselves (the unit rows of ``com_isomorphism`` force every
    lam_i > 0), so with them lam_i >= 0 and a map that shrinks rays stays
    feasible.  None when the LP is infeasible."""
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


def _verified_inverse(M, source: Cone, target: Cone):
    """M^-1 when M is an order isomorphism from source onto target, else None."""
    try:
        Minv = inverse(M)
    except SingularMatrix:
        return None
    if any(rays_leaving(M, source, target)) or any(rays_leaving(Minv, target, source)):
        return None
    return Minv


def find_order_isomorphism(
    source: Cone, target: Cone, symmetric: bool = False
) -> Optional[tuple]:
    """First order isomorphism in search order, or None after exhaustion."""
    for M, _ in order_isomorphisms(source, target, symmetric=symmetric):
        return M
    return None


def com_isomorphism(A, B) -> Optional[tuple]:
    """An order isomorphism of models: maps state cone onto state cone,
    pulls the unit back correctly, and its inverse-transpose carries the
    effect cone onto the effect cone.  None if the search exhausts."""
    unit_rows = []
    # u_B(M alpha) = u_A(alpha) for all alpha: M^T u_B = u_A, n linear rows.
    n = A.dim
    for col in range(n):
        row = [[0] * n for _ in range(n)]
        for r in range(n):
            row[r][col] = B.unit[r]
        unit_rows.append((row, A.unit[col]))
    for M, M_inverse in order_isomorphisms(A.state_cone, B.state_cone, extra_rows=unit_rows, label=B.label):
        if not any(rays_leaving(transpose(M_inverse), A.effect_cone, B.effect_cone)) and not any(
            rays_leaving(transpose(M), B.effect_cone, A.effect_cone)
        ):
            return M
    return None
