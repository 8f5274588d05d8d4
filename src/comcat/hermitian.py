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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod, sqrt

import numpy as np


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
    B = _stacked(dims)
    if len(x) != len(B):
        raise ValueError(f"expected {len(B)} coordinates, got {len(x)}")
    return np.tensordot(np.asarray(x, dtype=float), B, axes=1)


def projector_coords(V: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Coordinates of the projectors |v><v|, one row for each row v of V:
    sum_ij conj(v_i) B_ij v_j for each basis matrix B, as one matrix
    product of the flattened outer products with the flattened basis."""
    B = _stacked(dims)
    outer = np.einsum("ki,kj->kij", V.conj(), V).reshape(len(V), -1)
    return (outer @ B.reshape(len(B), -1).T).real


def eigenvalues(x, dims: tuple[int, ...]) -> np.ndarray:
    return np.linalg.eigvalsh(matrix(x, dims))


def min_eigenvalue(x, dims: tuple[int, ...]) -> float:
    return float(eigenvalues(x, dims)[0])


def min_eigenvalues(X: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Least eigenvalue of the Hermitian matrix of each row of the (k, n)
    coordinate array X, by one batched eigvalsh."""
    return np.linalg.eigvalsh(np.tensordot(X, _stacked(dims), axes=1))[:, 0]


def unit_coords(dims: tuple[int, ...]) -> tuple[float, ...]:
    """Coordinates of the identity, i.e. the trace functional."""
    return coords(np.eye(prod(dims), dtype=complex), dims)
