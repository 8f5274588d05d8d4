"""Conditioning maps, marginals, conditional states, remote evaluation.

Coordinate convention (the single authoritative statement, used by every
reshape in the package): a bipartite vector omega over factors (A, B)
stores the form coefficients row-major, index i*n_B + j for basis pair
(i, j), so W = reshape(omega, n_A, n_B) satisfies

    omega(a, b) = a^T W b.

Consequences used everywhere below:
    conditioning map    hat(omega) = W^T : A-effects -> B-states,
    its linear adjoint  hat(omega)^* = W : B-effects -> A-states,
    co-conditioning     hat(f) = F^T : A-states -> B-effects,
    and the swapped state sigma(omega) has form matrix W^T.

Remote evaluation identities are never trusted: both sides are computed
through different code paths (conditioning algebra vs explicit tripartite
contraction) and compared before a result is returned.  The dual runs
the one contraction on the swapped form and state; its algebra route
reads them unswapped, so a wrong swap shows as a mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .com import Com
from .composites import in_max_cone
from .config import tolerance_for
from .errors import (
    DimensionMismatch,
    NotNonsignalingState,
    RemoteEvalMismatch,
    ZeroProbabilityCondition,
)
from .linalg import (
    deviation,
    dot,
    integer_scaling,
    is_exact,
    matvec,
    scale_vector,
    swap_vector,
    tensor_vector,
    transpose,
    vec_to_matrix,
)


def form_matrix(v, A: Com, B: Com):
    if len(v) != A.dim * B.dim:
        raise DimensionMismatch(f"bipartite vector length {len(v)} vs {A.dim}x{B.dim}")
    return vec_to_matrix(v, A.dim, B.dim)


def conditioning_map(omega, A: Com, B: Com, check: bool = True):
    """Matrix of hat(omega): effects of A to subnormalized states of B.

    Requires omega to be nonsignaling-positive (in the max cone)."""
    W = form_matrix(omega, A, B)
    if check and not in_max_cone(omega, A, B):
        raise NotNonsignalingState("form is negative on a product of effect generators")
    return transpose(W)


def co_conditioning_map(f, A: Com, B: Com):
    """Matrix of hat(f): states of A to effect space of B."""
    F = form_matrix(f, A, B)
    return transpose(F)


def conditioning_adjoint(omega, A: Com, B: Com):
    """Matrix of hat(omega)^*: effects of B to states of A (same form,
    evaluated in the opposite order)."""
    return form_matrix(omega, A, B)


def marginals(omega, A: Com, B: Com) -> tuple:
    """(omega_A, omega_B) = (hat(omega)^* u_B, hat(omega) u_A)."""
    W = form_matrix(omega, A, B)
    omega_b = matvec(transpose(W), A.unit)
    omega_a = matvec(W, B.unit)
    return omega_a, omega_b


def conditional_state(omega, b, A: Com, B: Com):
    """Normalized conditional state of A given effect b on B."""
    W = form_matrix(omega, A, B)
    _, omega_b = marginals(omega, A, B)
    prob = dot(omega_b, b)
    if prob <= tolerance_for(omega, b):
        raise ZeroProbabilityCondition(f"conditioning probability {prob} is not positive")
    return scale_vector(Fraction(1) / prob, matvec(W, b))


def _tripartite_left(f, omega, alpha, A: Com, B: Com, C: Com):
    """(f x id_C)(alpha x omega) by explicit tensor contraction.  Exact
    data is scaled to integers once per vector (s f, t omega, r alpha) and
    contracted in Python ints; entry k is then one Fraction over s t r
    when f, alpha or column k of omega holds a Fraction, as the Fraction
    loop gives, and an int otherwise (its sum holds only ints, so the
    division is exact)."""
    nB, nC = B.dim, C.dim
    if not is_exact((f, omega, alpha)):
        return _contract(f, omega, alpha, A.dim, nB, nC)
    (s, f_ints), (t, omega_ints), (r, alpha_ints) = map(integer_scaling, (f, omega, alpha))
    d = s * t * r
    shared = Fraction in map(type, chain(f, alpha))
    return tuple(
        Fraction(v, d) if shared or Fraction in map(type, omega[k::nC]) else v // d
        for k, v in enumerate(_contract(f_ints, omega_ints, alpha_ints, A.dim, nB, nC))
    )


def _contract(f, omega, alpha, nA: int, nB: int, nC: int) -> tuple:
    F = vec_to_matrix(f, nA, nB)
    big = tensor_vector(alpha, omega)  # index (i*nB + j)*nC + k
    out = []
    for k in range(nC):
        total = 0
        for i in range(nA):
            for j in range(nB):
                total = total + F[i][j] * big[(i * nB + j) * nC + k]
        out.append(total)
    return tuple(out)


def remote_evaluate(f, omega, alpha, A: Com, B: Com, C: Com):
    """Process an A-state through a bipartite effect on (A,B) and a shared
    state on (B,C): returns the unnormalized conditional state of C.

    Computes hat(omega)(hat(f)(alpha)) and, independently, the one-shot
    contraction (f x id_C)(alpha x omega); raises if they disagree."""
    rhs, residual = remote_evaluation_residual(f, omega, alpha, A, B, C)
    if residual > tolerance_for(f, omega, alpha):
        raise RemoteEvalMismatch(f"remote evaluation: sides differ by {residual}")
    return rhs


def remote_evaluation_residual(f, omega, alpha, A: Com, B: Com, C: Com):
    """(result, max-abs difference between the two evaluation routes)."""
    f_hat = co_conditioning_map(f, A, B)
    omega_hat = conditioning_map(omega, B, C, check=False)
    rhs = matvec(omega_hat, matvec(f_hat, alpha))
    lhs = _tripartite_left(f, omega, alpha, A, B, C)
    return rhs, deviation(lhs, rhs)


def remote_evaluate_dual(f, omega, beta, A: Com, B: Com, C: Com):
    """Mirror protocol: omega lives on (A,C), f on (C,B), beta is a state
    of B; returns hat(omega)^*(hat(f)^*(beta)) in A, checked against the
    contraction (id_A x f)(omega x beta), computed as the forward
    contraction (sigma f x id_A)(beta x sigma omega) over (B, C, A)."""
    f_hat_star = vec_to_matrix(f, C.dim, B.dim)
    omega_hat_star = conditioning_adjoint(omega, A, C)
    rhs = matvec(omega_hat_star, matvec(f_hat_star, beta))
    f_swapped, omega_swapped = swap_vector(f, C.dim, B.dim), swap_vector(omega, A.dim, C.dim)
    lhs = _tripartite_left(f_swapped, omega_swapped, beta, B, C, A)
    residual = deviation(lhs, rhs)
    if residual > tolerance_for(f, omega, beta):
        raise RemoteEvalMismatch(f"dual remote evaluation: sides differ by {residual}")
    return rhs
