"""Loop versions of the spectral kernels, kept as test oracles.

``psd_state_samples`` is the pure-state sampler the sampled cone checks
used before they moved onto ``cones.probe_rays``, and ``matrix`` is the
coordinate-to-matrix loop that ``hermitian.matrix`` replaced with one
``tensordot``.  Both are as they were then: one trace product per basis
matrix, one matrix sum per coordinate.

``rays_leaving``, ``in_max_cone`` and ``symmetry_equivalence_report`` are
the per-ray, per-pair and per-basis-map loops that the batched array
kernels and the O(n^2) symmetry report replaced, as they were then.

``coords`` and ``maximally_entangled_maps`` are the one-trace-per-entry
loops that ``hermitian.coords`` and ``models.maximally_entangled_structure``
replaced with batched traces, as they were then; the batched results must
equal them to the bit.

``StoredStructure`` and ``build_structure`` are the duality-structure
record and its producer as they were before the record became an
immutable value of its two maps: gamma, f and tau stored beside
gamma_hat and f_hat, the residuals written after construction, and the
twist's inverse recomputed by ``_tau_is_automorphism``.  The derived
record must equal them to the bit.

``probe_array`` is ``cones._probe_array`` as it was before the seeded
draw behind a PSD probe set was memoized: the normal stream drawn,
normalized and stacked under the basis on every call.  The memoized
arrays must equal it to the bit.

``psd_rows_outside`` is the batched rule that ``hermitian.rows_outside_psd``
replaced, as it was then: the matrices of the coordinate rows by
``np.tensordot``, their least eigenvalues by one batched ``eigvalsh``, and
a row outside when its least eigenvalue is below -tol.  The kernel must
give the same indices on every finite batch.

``loop_matmul`` and ``loop_max_abs`` are ``linalg.matmul`` and
``linalg.max_abs`` as they were before float data went through numpy:
one ``dot`` per entry, one recursive ``abs`` per entry.  The numpy
kernels must return the same values of the same types, to the bit.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod
from typing import Iterator, Optional

import numpy as np

from comcat import cones, hermitian
from comcat.com import Com
from comcat.cones import Cone, probe_rays
from comcat.config import tolerance_for
from comcat.errors import InvalidStructure, SingularMatrix
from comcat.linalg import (
    dot,
    identity,
    is_exact,
    matmul,
    matrix_to_vec,
    matvec,
    max_abs,
    sub_matrices,
    transpose,
    vec_to_matrix,
)
from comcat.selfdual import (
    DualityStructure,
    _invert,
    _singular_message,
    tau_is_identity,
    verify_isomorphism_state,
)


def psd_state_samples(dims, seed=0, count=24):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    samples = [np.eye(d, dtype=complex)[:, [i]] @ np.eye(d, dtype=complex)[[i], :] for i in range(d)]
    for _ in range(count):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = v / np.linalg.norm(v)
        samples.append(np.outer(v, v.conj()))
    return [hermitian.coords(m, dims) for m in samples]


def probe_array(C: Cone, seed: int = 0) -> np.ndarray:
    """``probe_rays`` of a PSD cone as one (k, n) float array, built anew
    on each call."""
    d = prod(C.hilbert_dims)
    z = np.random.default_rng(seed).normal(size=(cones.PROBE_SAMPLES, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return hermitian.projector_coords(np.concatenate([np.eye(d), v]), C.hilbert_dims)


def psd_rows_outside(X: np.ndarray, dims: tuple[int, ...], tol: float) -> np.ndarray:
    """Indices of the rows of X whose Hermitian matrix has a least
    eigenvalue below -tol, by one batched eigvalsh."""
    return np.flatnonzero(np.linalg.eigvalsh(np.tensordot(X, hermitian._stacked(dims), axes=1))[:, 0] < -tol)


def matrix(x, dims: tuple[int, ...]) -> np.ndarray:
    """Hermitian matrix with the given coordinates."""
    B = hermitian.basis(dims)
    if len(x) != len(B):
        raise ValueError(f"expected {len(B)} coordinates, got {len(x)}")
    d = prod(dims)
    M = np.zeros((d, d), dtype=complex)
    for c, b in zip(x, B):
        if c != 0:
            M = M + float(c) * b
    return M


def rays_leaving(M, source: Cone, target: Cone, seed: int = 0) -> Iterator[tuple]:
    """Lazily, the probe rays x of source whose image M x is not in target.
    When there are none, M carries source into target: proven for a
    polyhedral source, checked on samples for a PSD one."""
    return (x for x in probe_rays(source, seed) if not target.member(matvec(M, x)))


def in_max_cone(omega, A: Com, B: Com, tolerance: Optional[float] = None) -> bool:
    """Is the form omega(a, b) = a^T W b nonnegative on every pair of probe
    rays of the two effect cones (``cones.probe_rays``)?

    Each probe ray a of A's effect cone gives the row a^T W, which is
    tested against each probe ray of B's.  Polyhedral factors contribute
    all their effect generators, so for two of them the answer is exact
    (on exact data the tolerance is zero); a PSD factor contributes its
    basis projectors and seeded pure states, so the check is sampled."""
    a_rays, b_rays = probe_rays(A.effect_cone), probe_rays(B.effect_cone)
    tol = tolerance_for(omega, a_rays, b_rays) if tolerance is None else tolerance
    Wt = transpose(vec_to_matrix(omega, A.dim, B.dim))
    for a in a_rays:
        row = matvec(Wt, a)
        if any(dot(row, b) < -tol for b in b_rays):
            return False
    return True


def symmetry_equivalence_report(A: Com, D_A: DualityStructure) -> dict:
    """Three equivalent symmetry conditions, each checked independently:

    (i)   the canonical adjoint is involutive on a basis of the map space,
    (ii)  the twist automorphism is the identity,
    (iii) gamma and f are symmetric bilinear forms.

    The consistent flag records whether the three booleans agree; the
    witness is the first basis map (in row-major order) on which (i) fails.

    The double adjoint of phi is P phi Q with P = gamma_hat^T f_hat and
    Q = gamma_hat f_hat^T (``double_dual_check`` computes it map by map),
    so on the basis map E_ab it is the outer product P[:, a] Q[b, :]."""
    n = A.dim
    P = matmul(transpose(D_A.gamma_hat), D_A.f_hat)
    Q = matmul(D_A.gamma_hat, transpose(D_A.f_hat))
    tol = tolerance_for(P, Q)
    witness = None
    for a, b in product(range(n), repeat=2):
        twice_minus_unit = [[p[a] * q for q in Q[b]] for p in P]
        twice_minus_unit[a][b] -= 1
        deviation = max_abs(twice_minus_unit)
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


def coords(M: np.ndarray, dims: tuple[int, ...]) -> tuple[float, ...]:
    """Coordinates of a Hermitian matrix in the named basis."""
    out = []
    for B in hermitian.basis(dims):
        v = np.trace(B @ M)
        out.append(float(v.real))
    return tuple(out)


def maximally_entangled_maps(d: int) -> tuple[tuple, tuple]:
    """(gamma_hat, f_hat) of the maximally entangled structure on C^d."""
    psi = np.zeros((d * d, 1), dtype=complex)
    for i in range(d):
        psi[i * d + i, 0] = 1.0
    psi /= np.sqrt(d)
    proj = psi @ psi.conj().T

    B = hermitian.basis((d,))
    BB = hermitian._stacked((d, d))  # BB[k * n + l] = kron(B[k], B[l])
    n = d * d
    G = [[0.0] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            G[k][l] = float(np.trace(proj @ BB[k * n + l]).real)
    gamma_hat = tuple(tuple(G[l][k] for l in range(n)) for k in range(n))

    # transpose superoperator in the fixed basis, scaled by d
    f_hat_rows = [[0.0] * n for _ in range(n)]
    for l in range(n):
        tcoords = coords(B[l].T, (d,))
        for k in range(n):
            f_hat_rows[k][l] = d * tcoords[k]
    f_hat = tuple(tuple(row) for row in f_hat_rows)
    return gamma_hat, f_hat


def loop_matmul(A, B):
    if not B:
        return tuple(() for _ in A)
    cols = list(zip(*B))
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


def loop_max_abs(obj) -> float:
    """Largest absolute entry of a scalar, vector or matrix."""
    if isinstance(obj, (list, tuple)):
        return max((loop_max_abs(x) for x in obj), default=0)
    return abs(obj)


@dataclass
class StoredStructure:
    """Weak self-duality witness for one model."""

    com: Com
    gamma: tuple  # bipartite state vector over (A, A)
    f: tuple  # bipartite positive functional vector over (A, A)
    gamma_hat: tuple  # matrix, effect space -> state space
    f_hat: tuple  # matrix, state space -> effect space
    tau: tuple  # gamma_hat . f_hat^T, an order automorphism
    residuals: dict = field(default_factory=dict)

    @cached_property
    def symmetric(self) -> bool:
        g_res = max_abs(sub_matrices(self.gamma_hat, transpose(self.gamma_hat)))
        f_res = max_abs(sub_matrices(self.f_hat, transpose(self.f_hat)))
        tol = tolerance_for(self.gamma_hat, self.f_hat)
        return g_res <= tol and f_res <= tol

    def exact(self) -> bool:
        return is_exact(self.gamma_hat) and is_exact(self.f_hat)


def build_structure(A: Com, gamma_hat, f_hat=None) -> StoredStructure:
    """Assemble and verify a duality structure from its conditioning map.

    f_hat defaults to the exact (or numerical) inverse; when supplied it is
    checked against gamma_hat first and the deviation recorded as a
    residual.  Either way the isomorphism-state check reuses it as the
    inverse instead of inverting gamma_hat again."""
    n = A.dim
    gamma = matrix_to_vec(transpose(gamma_hat))
    if f_hat is None:
        try:
            f_hat = _invert(gamma_hat)
        except SingularMatrix:
            raise InvalidStructure(_singular_message(gamma_hat)) from None
    f = matrix_to_vec(transpose(f_hat))
    left = matmul(f_hat, gamma_hat)
    right = matmul(gamma_hat, f_hat)
    ident = identity(n)
    res_inv = max(max_abs(sub_matrices(left, ident)), max_abs(sub_matrices(right, ident)))
    tol = tolerance_for(gamma_hat, f_hat)
    if res_inv > tol:
        raise InvalidStructure(f"f_hat is not the inverse of gamma_hat (residual {res_inv})")
    violations = verify_isomorphism_state(gamma, A, ghat_inverse=f_hat)
    if violations:
        raise InvalidStructure("; ".join(violations))
    tau = matmul(gamma_hat, transpose(f_hat))
    struct = StoredStructure(
        com=A,
        gamma=gamma,
        f=f,
        gamma_hat=tuple(tuple(r) for r in gamma_hat),
        f_hat=tuple(tuple(r) for r in f_hat),
        tau=tau,
        residuals={"inverse": res_inv},
    )
    struct.residuals["gamma_symmetry"] = max_abs(
        sub_matrices(struct.gamma_hat, transpose(struct.gamma_hat))
    )
    struct.residuals["tau_automorphism"] = 0 if _tau_is_automorphism(struct) else 1
    if struct.residuals["tau_automorphism"]:
        raise InvalidStructure("tau is not an order automorphism")
    return struct


def _tau_is_automorphism(struct: StoredStructure) -> bool:
    """tau = gamma_hat f_hat^T maps the state cone onto itself.  Its
    inverse is gamma_hat^T f_hat, since f_hat = gamma_hat^{-1} (which
    ``build_structure`` checks first)."""
    cone, tau = struct.com.state_cone, struct.tau
    inv = matmul(transpose(struct.gamma_hat), struct.f_hat)
    return not any(cones.rays_leaving(tau, cone, cone, seed=5)) and not any(
        cones.rays_leaving(inv, cone, cone, seed=5)
    )
