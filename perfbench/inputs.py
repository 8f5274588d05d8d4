"""Seeded benchmark inputs, as the JSON documents a comcat user would write.

Every polyhedral model is a builtin rewritten in a random unimodular
integer basis T: states map by T, effects and the unit by T^-T.  That is an
isomorphism of models, so one pinned verdict table serves every seed while
the numbers the exact code works on change with it.  Bipartite states
transform by T (x) T.  Quantum models have a fixed coordinatization; their
seeded inputs are states, effects, local unitaries and Kraus maps.

Only the stdlib and numpy are used here.  Quantum inputs are expressed in
the Hermitian basis the caller passes in (comcat's own, so that they are
in the coordinates the program reads).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

# -- exact integer matrices ------------------------------------------------


def matvec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def transpose(M):
    return [list(col) for col in zip(*M)]


def kron_vec(x, y):
    return [a * b for a in x for b in y]


def unimodular(rng: random.Random, n: int):
    """(T, T^-1): a signed permutation times a unit upper-triangular matrix
    with entries in {-1, 0, 1}.  Both are integer matrices."""
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = rng.choice((-1, 0, 1))
    # inverse of a unit upper-triangular matrix, by back substitution
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            inv[i][j] = -sum(upper[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # T = P U with P[r][perm[r]] = signs[r];  T^-1 = U^-1 P^T
    T = [[signs[r] * x for x in upper[perm[r]]] for r in range(n)]
    T_inv = [[signs[c] * inv[r][perm[c]] for c in range(n)] for r in range(n)]
    return T, T_inv


# -- base models (untransformed, integer data) -----------------------------


def classical_data(n: int):
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    return f"classical{n}", basis, basis, [1] * n


GBIT_STATES = [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]]
GBIT_EFFECTS = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]

HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def polygon_data(label: str, vertices):
    """Cone over a convex polygon (vertices in counter-clockwise order,
    origin inside) at height one, its full dual as effects, unit (0, 0, 1).
    Facet normals are cross products of consecutive lifted vertices."""
    lifted = [[x, y, 1] for x, y in vertices]
    facets = []
    for a, b in zip(lifted, lifted[1:] + lifted[:1]):
        h = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        if any(sum(x * y for x, y in zip(h, v)) < 0 for v in lifted):
            raise ValueError(f"{label}: vertices are not counter-clockwise")
        facets.append(h)
    return label, lifted, facets, [0, 0, 1]


def gbit_data():
    return "gbit", GBIT_STATES, GBIT_EFFECTS, [0, 0, 1]


def model_json(data, T, T_inv) -> dict:
    """Model document with states T s, effects T^-T e and unit T^-T u."""
    label, states, effects, unit = data
    n = len(unit)
    T_inv_t = transpose(T_inv)
    return {
        "label": label,
        "dim": n,
        "state_cone": {"kind": "polyhedral", "dim": n, "generators": [matvec(T, s) for s in states]},
        "effect_cone": {"kind": "polyhedral", "dim": n, "generators": [matvec(T_inv_t, e) for e in effects]},
        "unit": matvec(T_inv_t, unit),
    }


def seeded_model(rng: random.Random, data) -> dict:
    T, T_inv = unimodular(rng, len(data[3]))
    return {"model": model_json(data, T, T_inv), "T": T, "T_inv": T_inv}


# -- exact bipartite data for the square bit --------------------------------

PR_PATTERNS = [
    (a, b, c, a * b * c * -1)
    for a in (-1, 1)
    for b in (-1, 1)
    for c in (-1, 1)
]
ENTANGLED_WEIGHTS = [Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(7, 8), Fraction(1)]
SEPARABLE_WEIGHTS = [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]


def isotropic_pr_state(pattern, p):
    """p * PR box + (1 - p) * maximally mixed product, untransformed gbit
    coordinates.  Separable (local) exactly when p <= 1/2 (CHSH)."""
    e00, e01, e10, e11 = pattern
    W = [[p * e00, p * e01, 0], [p * e10, p * e11, 0], [0, 0, 1]]
    return [Fraction(x) for row in W for x in row]


def transform_state2(omega, T_a, T_b):
    """Bipartite state vector (row-major over (A, B)) under T_a (x) T_b."""
    n_a, n_b = len(T_a), len(T_b)
    W = [omega[i * n_b:(i + 1) * n_b] for i in range(n_a)]
    out = [[sum(T_a[i][k] * W[k][l] * T_b[j][l] for k in range(n_a) for l in range(n_b))
            for j in range(n_b)] for i in range(n_a)]
    return [x for row in out for x in row]


def random_state(rng: random.Random, states, unit):
    """Normalized positive rational combination of the given generators."""
    weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in states]
    v = [sum(w * s[i] for w, s in zip(weights, states)) for i in range(len(unit))]
    total = sum(u * x for u, x in zip(unit, v))
    return [x / total for x in v]


def random_effect(rng: random.Random, effects):
    weights = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in effects]
    return [sum(w * e[i] for w, e in zip(weights, effects)) for i in range(len(effects[0]))]


# -- quantum inputs ----------------------------------------------------------


def quantum_json(d: int) -> dict:
    """quantumD with the trace unit: one on the diagonal basis elements."""
    unit = [1.0] * d + [0.0] * (d * d - d)
    cone = {"kind": "psd", "hilbert_dim": d}
    return {"label": f"quantum{d}", "dim": d * d, "state_cone": cone, "effect_cone": dict(cone), "unit": unit}


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_effect_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian matrix with spectrum rescaled into [0, 1]."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    lo, hi = np.linalg.eigvalsh(h)[[0, -1]]
    return (h - lo * np.eye(d)) / (hi - lo)


def coords(M: np.ndarray, basis) -> list[float]:
    return [float(np.trace(B @ M).real) for B in basis]


def entangled_gamma(rng: np.random.Generator, d: int, basis) -> list[float]:
    """Form of a maximally entangled state (U (x) 1)|phi+> on basis pairs:
    its conditioning map is a unitary conjugation of the transpose, an
    order isomorphism, so it is an isomorphism state for every seed."""
    phi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        phi[i * d + i] = 1.0 / np.sqrt(d)
    psi = np.kron(haar_unitary(rng, d), np.eye(d)) @ phi
    proj = np.outer(psi, psi.conj())
    return [float(np.trace(proj @ np.kron(Bk, Bl)).real) for Bk in basis for Bl in basis]


def kraus_map(rng: np.random.Generator, d: int, basis, terms: int = 3) -> list[list[float]]:
    """Superoperator matrix of rho -> sum K rho K^dagger (completely positive,
    so a morphism of quantumD, with a completely positive adjoint)."""
    ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(terms)]
    cols = [coords(sum(K @ Bl @ K.conj().T for K in ks), basis) for Bl in basis]
    return [list(row) for row in zip(*cols)]
