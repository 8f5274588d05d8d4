"""Self-duality structures: isomorphism states, the canonical adjoint, the
twist automorphism, and the dagger-compactness verdict.

A duality structure on a model A packages an (optionally unnormalized)
bipartite state gamma over (A, A) whose conditioning map is an order
isomorphism from the effect cone onto the state cone, together with the
positive bilinear functional f inverting it.  Conventions follow the
conditioning module: with G the form matrix of gamma, hat(gamma) = G^T;
with F the form matrix of f, hat(f) = F^T, and the structure requires
hat(f) = hat(gamma)^{-1}.

A ``DualityStructure`` is therefore an immutable value of its two maps
(plus the residuals its verification measured): gamma, f, the twist tau
and its inverse are derived from them, each once, on first use.
``build_structure`` is the one producer of verified structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .com import Com, is_saturated
from .cones import PSD, POLYHEDRAL, rays_leaving
from .config import numeric_tolerance, tolerance_for
from .errors import InputError, InvalidStructure, SingularMatrix, UnsupportedKind
from .linalg import (
    identity,
    inverse,
    is_exact,
    matmul,
    matrix_to_vec,
    max_abs,
    rank,
    sub_matrices,
    sub_vectors,
    swap_vector,
    symmetric_inertia,
    transpose,
    vec_to_matrix,
)
from .matching import order_isomorphisms

_SEARCH = "the self-duality search"


@dataclass(frozen=True)
class DualityStructure:
    """Weak self-duality witness for one model: the conditioning map
    gamma_hat (effect space -> state space), its inverse f_hat (state
    space -> effect space), and a read-only copy of the residuals."""

    com: Com
    gamma_hat: tuple
    f_hat: tuple
    residuals: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "residuals", MappingProxyType(dict(self.residuals)))

    @cached_property
    def gamma(self) -> tuple:  # bipartite state vector over (A, A)
        return matrix_to_vec(transpose(self.gamma_hat))

    @cached_property
    def f(self) -> tuple:  # bipartite positive functional vector over (A, A)
        return matrix_to_vec(transpose(self.f_hat))

    @cached_property
    def tau(self) -> tuple:  # the twist, an order automorphism; identity iff symmetric
        return matmul(self.gamma_hat, transpose(self.f_hat))

    @cached_property
    def tau_inverse(self) -> tuple:  # gamma_hat^T f_hat, as f_hat = gamma_hat^-1
        return matmul(transpose(self.gamma_hat), self.f_hat)

    @cached_property
    def symmetric(self) -> bool:
        g_res = max_abs(sub_matrices(self.gamma_hat, transpose(self.gamma_hat)))
        f_res = max_abs(sub_matrices(self.f_hat, transpose(self.f_hat)))
        tol = tolerance_for(self.gamma_hat, self.f_hat)
        return g_res <= tol and f_res <= tol

    def exact(self) -> bool:
        return is_exact(self.gamma_hat) and is_exact(self.f_hat)


def _invert(M):
    """Exact inverse of exact data; otherwise the numerical inverse, with a
    smallest singular value within the tolerance counted as singular.
    Raises SingularMatrix, or InputError on a NaN or infinite entry."""
    if is_exact(M):
        return inverse(M)
    m = np.array(M, dtype=float)
    if not np.isfinite(m).all():
        raise InputError(f"the numerical inverse needs finite entries, got {m[~np.isfinite(m)][0]}")
    if np.linalg.svd(m, compute_uv=False)[-1] <= numeric_tolerance():
        raise SingularMatrix("matrix is numerically singular")
    return tuple(map(tuple, np.linalg.inv(m).tolist()))


def verify_isomorphism_state(gamma, A: Com, ghat_inverse=None) -> list[str]:
    """Violations of the isomorphism-state contract for a bipartite form
    over (A, A): invertible conditioning map carrying the effect cone into
    the state cone and, by its inverse, the state cone into the effect
    cone.  Both directions go through ``cones.rays_leaving``: exact over
    the generators of a polyhedral model, on the seeded probe states of a
    PSD one (seeds 3 and 4).  Exact data is inverted exactly, float data
    numerically; a caller that already holds the inverse of the
    conditioning map passes it as ghat_inverse."""
    n = A.dim
    if len(gamma) != n * n:
        return [f"form has length {len(gamma)}, expected {n * n}"]
    ghat = transpose(vec_to_matrix(gamma, n, n))
    if ghat_inverse is None:
        try:
            ghat_inverse = _invert(ghat)
        except SingularMatrix:
            return [_singular_message(ghat)]
    violations = [
        f"image of effect generator {e} leaves the state cone"
        for e in rays_leaving(ghat, A.effect_cone, A.state_cone, seed=3)
    ]
    violations += [
        f"inverse image of state generator {g} leaves the effect cone"
        for g in rays_leaving(ghat_inverse, A.state_cone, A.effect_cone, seed=4)
    ]
    return violations


def _singular_message(ghat) -> str:
    if is_exact(ghat):
        return f"conditioning map has rank {rank(ghat)} < {len(ghat)}"
    return "conditioning map is numerically singular"


def build_structure(A: Com, gamma_hat, f_hat=None) -> DualityStructure:
    """Assemble and verify a duality structure from its conditioning map.

    f_hat defaults to the exact (or numerical) inverse; when supplied it is
    checked against gamma_hat first and the deviation recorded as a
    residual.  Either way the isomorphism-state check reuses it as the
    inverse instead of inverting gamma_hat again.  The residuals are fixed
    before the record exists; a structure that fails a later check is
    discarded, so ``tau_automorphism`` reads 0 on every returned one."""
    if f_hat is None:
        try:
            f_hat = _invert(gamma_hat)
        except SingularMatrix:
            raise InvalidStructure(_singular_message(gamma_hat)) from None
    gamma_hat, f_hat = tuple(map(tuple, gamma_hat)), tuple(map(tuple, f_hat))
    left = matmul(f_hat, gamma_hat)
    right = matmul(gamma_hat, f_hat)
    ident = identity(A.dim)
    res_inv = max(max_abs(sub_matrices(left, ident)), max_abs(sub_matrices(right, ident)))
    tol = tolerance_for(gamma_hat, f_hat)
    if res_inv > tol:
        raise InvalidStructure(f"f_hat is not the inverse of gamma_hat (residual {res_inv})")
    residuals = {
        "inverse": res_inv,
        "gamma_symmetry": max_abs(sub_matrices(gamma_hat, transpose(gamma_hat))),
        "tau_automorphism": 0,
    }
    struct = DualityStructure(A, gamma_hat, f_hat, residuals)
    violations = verify_isomorphism_state(struct.gamma, A, ghat_inverse=f_hat)
    if violations:
        raise InvalidStructure("; ".join(violations))
    if not _tau_is_automorphism(struct):
        raise InvalidStructure("tau is not an order automorphism")
    return struct


def _tau_is_automorphism(struct: DualityStructure) -> bool:
    """tau maps the state cone onto itself: neither tau nor its inverse
    sends a probe ray out of it."""
    cone = struct.com.state_cone
    return not any(rays_leaving(struct.tau, cone, cone, seed=5)) and not any(
        rays_leaving(struct.tau_inverse, cone, cone, seed=5)
    )


def check_weak_self_duality(A: Com) -> Optional[DualityStructure]:
    """Search for a duality structure by matching extreme rays of the state
    cone to extreme rays of the effect cone; None after exhaustion."""
    return _self_duality_search(A, symmetric=False)


def check_symmetric_self_duality(A: Com) -> Optional[DualityStructure]:
    """Same search restricted to symmetric conditioning maps."""
    return _self_duality_search(A, symmetric=True)


def _self_duality_search(A: Com, symmetric: bool) -> Optional[DualityStructure]:
    if A.kind != POLYHEDRAL:
        raise UnsupportedKind(f"{_SEARCH} is exact-only, and {A.label} is {A.kind}")
    isomorphisms = order_isomorphisms(A.state_cone, A.effect_cone, symmetric, search=_SEARCH, label=A.label)
    for phi, phi_inverse in isomorphisms:
        try:
            return build_structure(A, phi_inverse, f_hat=phi)
        except InvalidStructure:
            continue
    return None


def canonical_adjoint(phi, D_A: DualityStructure, D_B: DualityStructure):
    """Adjoint of phi: A -> B induced by the two structures.

    Computed as gamma_hat_A^* . phi^* . f_hat_B^* and, through the second
    route (f_hat_B . phi . gamma_hat_A)^*, asserted identical."""
    route1 = matmul(
        transpose(D_A.gamma_hat), matmul(transpose(phi), transpose(D_B.f_hat))
    )
    route2 = transpose(matmul(D_B.f_hat, matmul(phi, D_A.gamma_hat)))
    res = max_abs(sub_matrices(route1, route2))
    if res > tolerance_for(route1, route2):
        raise InvalidStructure(f"adjoint routes disagree by {res}")
    return route1


def tau_is_identity(D_A: DualityStructure) -> bool:
    return max_abs(sub_matrices(D_A.tau, identity(len(D_A.tau)))) <= tolerance_for(D_A.tau)


def double_dual_check(phi, D_A: DualityStructure, D_B: DualityStructure) -> dict:
    """Compare the twice-adjoint of phi with tau_B^{-1} . phi . tau_A."""
    twice = canonical_adjoint(canonical_adjoint(phi, D_A, D_B), D_B, D_A)
    direct = matmul(_invert(D_B.tau), matmul(phi, D_A.tau))
    diff = max_abs(sub_matrices(twice, direct))
    deviation = max_abs(sub_matrices(twice, phi))
    return {
        "double_dual": twice,
        "route_difference": diff,
        "deviation_from_identity_behaviour": deviation,
        "involutive_on_this_map": deviation <= tolerance_for(twice, phi),
    }


def symmetry_equivalence_report(A: Com, D_A: DualityStructure) -> dict:
    """Three equivalent symmetry conditions, each checked independently:

    (i)   the canonical adjoint is involutive on a basis of the map space,
    (ii)  the twist automorphism is the identity,
    (iii) gamma and f are symmetric bilinear forms.

    The consistent flag records whether the three booleans agree; the
    witness is the first basis map (in row-major order) on which (i) fails.

    The double adjoint of phi is P phi Q with P = tau^-1 = gamma_hat^T f_hat
    and Q = tau = gamma_hat f_hat^T, both read from the record
    (``double_dual_check`` computes it map by map), so on the basis map E_ab
    it is the outer product P[:, a] Q[b, :].  Its largest absolute
    deviation from E_ab is read in O(1) per map from the column maxima of
    |P| and the row maxima of |Q| with the diagonal entry left out, and
    |P[a][a] Q[b][b] - 1|.  Rounding a product of nonnegative floats is
    monotone, so this equals the entrywise maximum to the bit."""
    n = A.dim
    P, Q = D_A.tau_inverse, D_A.tau
    tol = tolerance_for(P, Q)
    p_off, p_all = _maxima_off_diagonal(transpose(P))
    q_off, q_all = _maxima_off_diagonal(Q)
    witness = None
    for a, b in product(range(n), repeat=2):
        deviation = max(p_off[a] * q_all[b], abs(P[a][a]) * q_off[b], abs(P[a][a] * Q[b][b] - 1))
        if deviation > tol:
            witness = {"basis_map": (a, b), "deviation": deviation}
            break
    cond_i = witness is None
    cond_ii = tau_is_identity(D_A)
    cond_iii = D_A.symmetric
    return {
        "i": cond_i,
        "ii": cond_ii,
        "iii": cond_iii,
        "consistent": (cond_i == cond_ii == cond_iii),
        "witness": witness,
    }


def _maxima_off_diagonal(rows) -> tuple[list, list]:
    """For each row i of a square matrix: the largest |entry| off the
    diagonal (0 when there is none), and the largest |entry| of the row."""
    off, whole = [], []
    for i, row in enumerate(rows):
        m = max((abs(x) for j, x in enumerate(row) if j != i), default=0)
        off.append(m)
        whole.append(max(m, abs(row[i])))
    return off, whole


def counit_dual_check(D_A: DualityStructure) -> dict:
    """The adjoint of f as a preparation equals the swapped gamma.

    The adjoint is computed through the composite-structure machinery,
    (gamma_hat^* tensor gamma_hat^*) applied to f, as vec(K F K^T) with
    K = gamma_hat^* and F the form matrix of f, and compared with
    sigma . gamma."""
    n = D_A.com.dim
    K = transpose(D_A.gamma_hat)
    f_adjoint = matrix_to_vec(matmul(matmul(K, vec_to_matrix(D_A.f, n, n)), transpose(K)))
    swapped_gamma = swap_vector(D_A.gamma, n, n)
    residual = max_abs(sub_vectors(f_adjoint, swapped_gamma))
    return {
        "f_adjoint": f_adjoint,
        "swapped_gamma": swapped_gamma,
        "residual": residual,
        "holds": residual <= tolerance_for(f_adjoint, swapped_gamma),
    }


def strongly_self_dual(D_A: DualityStructure) -> bool:
    """Symmetric structure whose inverting form is positive definite, on a
    saturated model: the cone is then self-dual under a true inner product.

    Exact f_hat uses its exact inertia; float f_hat uses eigenvalues."""
    if not D_A.symmetric:
        return False
    if not is_saturated(D_A.com):
        return False
    pos, zero, neg = _inertia(D_A.f_hat)
    return zero == 0 and neg == 0


def negative_inertia_count(D_A: DualityStructure) -> int:
    """Number of negative eigenvalues of the inverting form."""
    return _inertia(D_A.f_hat)[2]


def _inertia(M) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix:
    exact on exact data, by Sylvester's law of inertia on the integer
    elimination kernel (``linalg.symmetric_inertia``); on float data,
    eigenvalues within the tolerance of zero count as zero."""
    if is_exact(M):
        return symmetric_inertia(M)
    eigs = np.linalg.eigvalsh(np.array(M, dtype=float))
    tol = numeric_tolerance()
    pos, neg = int(np.sum(eigs > tol)), int(np.sum(eigs < -tol))
    return pos, len(eigs) - pos - neg, neg


def strongly_self_dual_model(A: Com) -> bool:
    """Model-level strong self-duality: some symmetric positive-definite
    order isomorphism realizes the duality (a true self-dualizing inner
    product), on a saturated model.

    A structure found by the symmetric search can be symmetric yet
    indefinite (the square bit's reflection), so this predicate searches
    all ray matchings for a definite witness.  PSD models carry the
    trace inner product, whose witness is the identity map."""
    if A.kind == PSD:
        gamma = matrix_to_vec(identity(A.dim))
        return not verify_isomorphism_state(gamma, A)
    if not is_saturated(A):
        return False
    for phi, _ in order_isomorphisms(A.state_cone, A.effect_cone, True, search=_SEARCH, label=A.label):
        pos, zero, neg = symmetric_inertia(phi)
        if zero == 0 and neg == 0:
            return True
    return False


def dagger_compactness_verdict(structures: Sequence[DualityStructure]) -> dict:
    """Theory-level verdict: dagger compact with respect to the canonical
    adjoint iff every object's structure is symmetric; also re-verifies the
    unit/co-unit dagger axiom through the adjoint machinery and reports the
    per-object three-way symmetry equivalences."""
    per_object = []
    ok = True
    consistent = True
    for D in structures:
        trio = symmetry_equivalence_report(D.com, D)
        unit_axiom = None
        if trio["iii"]:
            # dagger axiom: unit = sigma . (co-unit adjoint).  sigma permutes
            # coordinates and is an involution, so this is the co-unit
            # check's equation, adjoint of f = sigma . gamma, residual and all.
            unit_axiom = counit_dual_check(D)["holds"]
            ok = ok and unit_axiom
        per_object.append(
            {
                "label": D.com.label,
                "trio": trio,
                "symmetric": trio["iii"],
                "unit_axiom": unit_axiom,
            }
        )
        consistent = consistent and trio["consistent"]
        ok = ok and trio["iii"]
    return {
        "dagger_compact": ok,
        "all_consistent": consistent,
        "objects": per_object,
    }
