"""Real coordinatization of Hermitian matrices.

The fixed orthonormal basis (trace inner product) for d x d Hermitians is:
diagonal units E_ii, then (E_ij + E_ji)/sqrt(2) for i < j, then
(-i E_ij + i E_ji)/sqrt(2) for i < j, both families in lexicographic
(i, j) order.  With this basis the trace pairing Tr(XY) is the standard
dot product of coordinate vectors, so linear adjoints are plain
transposes.

Composite systems use the tensor-product basis of the factor bases
(left factor major), so the coordinates of X (x) Y are the row-major
tensor of the factor coordinates.  A basis is therefore named by the
tuple of factor Hilbert dimensions, e.g. (2,) for one qubit and (2, 2)
for the spatial two-qubit composite.

Every coordinate-to-matrix map goes through one ``np.dot`` of the
coordinates with the flattened basis, the reshape-and-dot that
``np.tensordot(x, B, axes=1)`` runs, so the matrices are the same to the
bit without its Python overhead; a coordinate that is NaN or infinite
is an ``InputError`` naming the check that received it.

``rows_outside_psd`` gives the verdicts of one batched ``eigvalsh`` (a
matrix is outside when its least computed eigenvalue is below -tol), but
settles the common batch, where none is outside, with one batched
Cholesky factorization of M_i + (tol/2) I.  With u the unit roundoff and
n the matrix order, the accept is sound under the guard
8 n^2 u max_i ||M_i||_F < tol/2:

- If Cholesky of a Hermitian A runs to completion, the computed factor
  has R*R = A + dA with |dA| <= g_{n+1} |R*| |R|, g_k = k u / (1 - k u)
  (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
  2002, Theorem 10.3); as || |R| ||_2 <= sqrt(n) ||R||_2, this gives
  ||dA||_2 <= n g_{n+1} / (1 - n g_{n+1}) ||A||_2, and complex arithmetic
  at most doubles the constant (ibid., section 3.6).  R*R is PSD, so
  lambda_min(A) >= -||dA||_2.  For A = fl(M + (tol/2) I), whose shift
  rounds by at most u (||M||_2 + tol/2), lambda_min(M) >= -tol/2 - e_c
  with e_c <= (2 n (n + 1) + 1) u (||M||_2 + tol/2) to first order.
- ``eigvalsh`` (Householder tridiagonalization, then a tridiagonal
  solver) is backward stable: its eigenvalues are exact for M + E with
  ||E||_2 <= p(n) u ||M||_2, p(n) a modest multiple of n (Higham, section
  19.3; Demmel, *Applied Numerical Linear Algebra*, 1997, section 5.2),
  here taken as p(n) <= n^2.  By Weyl's inequality each computed
  eigenvalue is within e_e <= n^2 u ||M||_2 of the exact one.

So e_c + e_e <= 6 n^2 u ||M||_F + 6 n^2 u tol/2, which the guard keeps
below tol/2: when the factorization succeeds, every computed least
eigenvalue is at least -tol, the batched verdict.  The basis is
orthonormal, so ||M_i||_F is the Euclidean norm of coordinate row i and
the guard reads the coordinates only.  A NaN or infinite guard fails;
every batch the accept does not settle goes to ``eigvalsh`` on the same
matrices, and ``np.linalg.cholesky`` is never shown NaN, on which it
returns without error.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod, sqrt

import numpy as np

from .linalg import finite_array

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@lru_cache(maxsize=None)
def basis(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis for the given factor dimensions."""
    return tuple(_stacked(dims))


@lru_cache(maxsize=None)
def _stacked(dims: tuple[int, ...]) -> np.ndarray:
    """The basis as one read-only (n, d, d) array; a composite basis holds
    the Kronecker products of the factor bases, left factor major."""
    if len(dims) == 0:
        raise ValueError("at least one factor dimension required")
    if len(dims) == 1:
        B = np.array(_single_basis(dims[0]))
    else:
        left, right = _stacked(dims[:1]), _stacked(dims[1:])
        B = np.empty((len(left) * len(right), prod(dims), prod(dims)), dtype=complex)
        for k, (a, b) in enumerate(product(left, right)):
            B[k] = np.kron(a, b)
    B.flags.writeable = False
    return B


def _single_basis(d: int) -> tuple[np.ndarray, ...]:
    if d < 1:
        raise ValueError("Hilbert dimension must be positive")
    mats = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    s = 1.0 / sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = s
            m[j, i] = s
            mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j * s
            m[j, i] = 1j * s
            mats.append(m)
    return tuple(mats)


def ambient_dim(dims: tuple[int, ...]) -> int:
    return prod(d * d for d in dims)


def coords(M: np.ndarray, dims: tuple[int, ...]) -> tuple[float, ...]:
    """Coordinates of a Hermitian matrix in the named basis."""
    return tuple(np.trace(_stacked(dims) @ M, axis1=1, axis2=2).real.tolist())


def matrix(x, dims: tuple[int, ...]) -> np.ndarray:
    """Hermitian matrix with the given coordinates."""
    return _matrices(x, dims, "a Hermitian matrix")


def _matrices(X, dims: tuple[int, ...], check: str) -> np.ndarray:
    """The Hermitian matrix of each coordinate vector along the last axis
    of X, by one ``np.dot`` with the flattened basis.  A NaN or infinite
    coordinate raises InputError naming check."""
    X = finite_array(X, check)
    B = _stacked(dims)
    if X.shape[-1] != len(B):
        raise ValueError(f"expected {len(B)} coordinates, got {X.shape[-1]}")
    return np.dot(X, B.reshape(len(B), -1)).reshape(X.shape[:-1] + B.shape[1:])


def projector_coords(V: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Coordinates of the projectors |v><v|, one row for each row v of V:
    sum_ij conj(v_i) B_ij v_j for each basis matrix B, as one matrix
    product of the flattened outer products with the flattened basis."""
    B = _stacked(dims)
    outer = np.einsum("ki,kj->kij", V.conj(), V).reshape(len(V), -1)
    return (outer @ B.reshape(len(B), -1).T).real


def eigenvalues(x, dims: tuple[int, ...]) -> np.ndarray:
    return np.linalg.eigvalsh(_matrices(x, dims, "the eigenvalue check"))


def min_eigenvalue(x, dims: tuple[int, ...]) -> float:
    return float(eigenvalues(x, dims)[0])


def rows_outside_psd(X: np.ndarray, dims: tuple[int, ...], tol: float) -> np.ndarray:
    """Indices, in order, of the rows of the (k, n) coordinate array X
    whose Hermitian matrix has a least ``eigvalsh`` eigenvalue below -tol.
    One batched Cholesky factorization of M_i + (tol/2) I returns none
    when it succeeds under the norm guard of the module docstring; any
    other batch is decided by one batched eigvalsh."""
    M = _matrices(X, dims, "the PSD inclusion check")
    n = M.shape[-1]
    if 8 * n * n * _UNIT_ROUNDOFF * np.sqrt(np.einsum("ij,ij->i", X, X).max()) < tol / 2:
        try:
            np.linalg.cholesky(M + (tol / 2) * np.eye(n))
        except np.linalg.LinAlgError:
            pass
        else:
            return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.linalg.eigvalsh(M)[:, 0] < -tol)


def unit_coords(dims: tuple[int, ...]) -> tuple[float, ...]:
    """Coordinates of the identity, i.e. the trace functional."""
    return coords(np.eye(prod(dims), dtype=complex), dims)
