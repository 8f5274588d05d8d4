"""Combinatorial search for order isomorphisms between polyhedral cones.

An order isomorphism must send extreme rays bijectively to extreme rays
(up to positive scaling), so the search runs over ray bijections,
pre-pruned by a combinatorial invariant (how many facets are tight at a
ray), then solves one exact LP per surviving bijection for the matrix and
the per-ray scalings.  Exhaustive and deterministic for cones with at
most eight extreme rays; larger inputs are refused.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Optional, Sequence

from .cones import Cone, rays_leaving
from .errors import SingularMatrix, UnsupportedKind
from .linalg import dot, inverse, transpose
from .lp import eq, ge, solve_lp

MAX_RAYS = 8


def _tightness_profile(rays, facets):
    return [sum(1 for h in facets if dot(h, g) == 0) for g in rays]


def order_isomorphisms(
    source: Cone,
    target: Cone,
    symmetric: bool = False,
    extra_rows: Optional[Sequence[tuple[tuple, tuple]]] = None,
) -> Iterator[tuple[tuple, tuple]]:
    """Yield the pairs (M, M^-1) with M(source) = target, extreme rays to
    extreme rays; optionally only symmetric M, optionally subject to
    additional exact linear conditions (coeff_matrix_row, value) meaning
    sum_ij row[i][j] * M[i][j] == value.

    Results are verified (invertibility plus two-sided cone inclusion on
    generators) before being yielded, in deterministic order; M^-1 is the
    inverse that the verification computed.
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
    k = len(src)
    if k > MAX_RAYS:
        raise UnsupportedKind(f"{k} extreme rays exceed the exhaustive search bound {MAX_RAYS}")

    src_profile = _tightness_profile(src, source.facets)
    tgt_profile = _tightness_profile(tgt, target.facets)
    compatible = [
        [j for j in range(k) if tgt_profile[j] == src_profile[i]] for i in range(k)
    ]

    for perm in permutations(range(k)):
        if any(perm[i] not in compatible[i] for i in range(k)):
            continue
        M = _solve_matching(src, [tgt[j] for j in perm], n, n, symmetric, extra_rows)
        if M is None:
            continue
        Minv = _verified_inverse(M, source, target)
        if Minv is not None:
            yield M, Minv


def _solve_matching(sources, targets, rows, cols, symmetric=False, extra_rows=None):
    """LP for a rows x cols matrix M (free entries) and scalings lam_i >= 1
    with M sources_i = lam_i targets_i; minimizes sum(lam) for a canonical
    pick.  symmetric adds M = M^T (square M); extra_rows adds the exact
    conditions of order_isomorphisms.  None when the LP is infeasible."""
    k = len(sources)
    nvars = rows * cols + k
    cons = []
    for i, (s, t) in enumerate(zip(sources, targets)):
        for row in range(rows):
            coeffs = [0] * nvars
            coeffs[row * cols : (row + 1) * cols] = s
            coeffs[rows * cols + i] = -t[row]
            cons.append(eq(coeffs, 0))
    for i in range(k):
        coeffs = [0] * nvars
        coeffs[rows * cols + i] = 1
        cons.append(ge(coeffs, 1))
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
    for M, M_inverse in order_isomorphisms(A.state_cone, B.state_cone, extra_rows=unit_rows):
        if not any(rays_leaving(transpose(M_inverse), A.effect_cone, B.effect_cone)) and not any(
            rays_leaving(transpose(M), B.effect_cone, A.effect_cone)
        ):
            return M
    return None
