"""Regular cones: exact polyhedral (integer rays) and spectral PSD (float).

A polyhedral cone keeps two interchangeable descriptions: extreme
generators and facet inequalities.  Either may be supplied at
construction; the other is derived on demand by the double-description
method in exact integer arithmetic: start from the simplicial cone of n
independent rows, read off one integer inverse, and insert the remaining
rows one at a time.  Both directions are the same computation, since the
generators of a cone are the facet normals of its dual.

Storage invariant: each polyhedral description, from either factory,
``dual_cone`` or a lazy conversion, is a tuple of sorted, distinct,
primitive ``int`` tuples (the ``canonical_rays`` form).  Only this module
produces it; callers use rays as they are, and two cones are equal
exactly when their generator tuples are.

Each predicate reads the description that decides it by integer sign
checks: membership the facets, strict positivity of a functional the
generators; a missing description is converted once and kept.  LPs
remain only in construction (``_pointed``, ``_drop_redundant``) and in
``member_by_lp``, the reference membership test.  All three keep their
LPs because the benchmark's tracer pins its ``solve_lp`` counts per
round, and ``member_by_lp`` keeps its name because the tracer patches
it by name; it patches neither construction helper.  A simplicial input
(n independent rows B in R^n, such as every classical system) makes no
construction LP and is never converted: one integer inverse
(``linalg.integer_inverse``) shows the rows independent, pointedness and
extremality are then theorems, and the columns of d B^-1 are the other
description, which both factories store.  Nor does a composite with a
simplicial factor make an LP: ``product_cones`` writes both descriptions
of the product of two cones, and of its dual, from the factors'
descriptions when one factor is simplicial (``products_by_theorem``).  A PSD
cone is the Hermitian positive-semidefinite cone in its fixed real
coordinatization; it is self-dual and its membership test is spectral.

Whether a linear map carries one cone into another is decided on the
source's probe rays (``rays_leaving``): every generator of a polyhedral
cone, and a fixed seeded set of pure states of a PSD cone.  An exact map
between polyhedral cones is tested ray by ray in integer arithmetic.
Every other map gives one float batch of images, and float data has one
verdict, ``rows_outside``, under the tolerance: the least facet value
(polyhedral) or ``hermitian.rows_outside_psd`` (PSD: one batched
Cholesky factorization when none leaves, else one batched eigvalsh).  A
given float point is still read by its exact binary value in the
polyhedral predicates.  The coordinates of a PSD probe set are formed
once per process for each (hilbert_dims, seed) (``_psd_probe_array``, a
bounded cache of read-only arrays) and shared by every later check.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import hermitian
from .config import numeric_tolerance
from .errors import DimensionMismatch, InputError, KindMismatch, NotGenerating, NotPointed, SingularMatrix
from .linalg import (
    _eliminate,
    canonical_rays,
    dot,
    finite_array,
    integer_inverse,
    integer_rows,
    is_exact,
    matvec,
    primitive,
    rank,
    tensor_vector,
)
from .lp import eq, in_cone, lp_feasible

POLYHEDRAL = "polyhedral"
PSD = "psd"
PROBE_SAMPLES = 24  # seeded pure states per PSD probe set


class Cone:
    """Immutable regular cone; construct via the factory functions.

    Values never change after construction, so concurrent reads are safe;
    the lazy representation conversion is idempotent, so a rare duplicated
    computation is the only cost of racing callers."""

    __slots__ = ("kind", "dim", "_generators", "_facets", "hilbert_dims")

    def __init__(self, kind, dim, generators=None, facets=None, hilbert_dims=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_generators", generators)
        object.__setattr__(self, "_facets", facets)
        object.__setattr__(self, "hilbert_dims", hilbert_dims)

    def __setattr__(self, *_):
        raise AttributeError("Cone is immutable")

    def __repr__(self):
        if self.kind == PSD:
            return f"Cone(psd, hilbert_dims={self.hilbert_dims})"
        gens = "?" if self._generators is None else len(self._generators)
        facets = "?" if self._facets is None else len(self._facets)
        return f"Cone(polyhedral, dim={self.dim}, generators={gens}, facets={facets})"

    # -- polyhedral representations ------------------------------------

    @property
    def generators(self) -> tuple:
        if self.kind != POLYHEDRAL:
            raise KindMismatch("PSD cones have no finite generator list")
        if self._generators is None:
            gens = _enumerate_facets(self._facets, self.dim)
            object.__setattr__(self, "_generators", gens)
        return self._generators

    @property
    def facets(self) -> tuple:
        if self.kind != POLYHEDRAL:
            raise KindMismatch("PSD cones have no finite facet list")
        if self._facets is None:
            facets = _enumerate_facets(self._generators, self.dim)
            object.__setattr__(self, "_facets", facets)
        return self._facets

    # -- predicates -----------------------------------------------------

    def member(self, x) -> bool:
        """Cone membership: h.x >= 0 on every facet normal h, on x scaled
        once to primitive integers (polyhedral; a generator-only cone
        converts its facets once), or ``rows_outside`` on x (PSD)."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} vs cone dim {self.dim}")
        if self.kind == PSD:
            return not rows_outside(self, finite_array([x], "the eigenvalue check")).size
        x = primitive(x)
        return all(dot(h, x) >= 0 for h in self.facets)

    def member_by_lp(self, x) -> bool:
        """Exact membership via LP over the generator description."""
        if self.kind != POLYHEDRAL:
            raise KindMismatch("LP membership needs a polyhedral cone")
        return in_cone(x, self.generators)

    def interior_point(self) -> tuple:
        """Sum of generators (polyhedral) or identity coordinates (PSD)."""
        if self.kind == PSD:
            return hermitian.unit_coords(self.hilbert_dims)
        gens = self.generators
        out = list(gens[0])
        for g in gens[1:]:
            out = [a + b for a, b in zip(out, g)]
        return tuple(out)

    def strictly_positive(self, u) -> bool:
        """Is the functional u strictly positive on the cone minus 0?
        Polyhedral: u.g > 0 on every generator g, with u scaled once to
        primitive integers; PSD: u is positive definite beyond the
        tolerance."""
        if self.kind == PSD:
            return hermitian.min_eigenvalue(u, self.hilbert_dims) > numeric_tolerance()
        u = primitive(u)
        return all(dot(u, g) > 0 for g in self.generators)


def _canonical_input(vectors: Iterable[Sequence], what: str) -> tuple[int, list]:
    """(n, the nonzero canonical rays of the given vectors, all of length n)."""
    rows = [tuple(v) for v in vectors]
    if not rows:
        raise NotGenerating(f"no {what} given")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{what} of mixed length")
    return n, [r for r in canonical_rays(rows) if any(r)]


def cone_from_generators(gens: Iterable[Sequence]) -> Cone:
    """Exact polyhedral cone from generating rays (see ``_regular``)."""
    n, rays = _canonical_input(gens, "generators")
    generators, facets = _regular(rays, n, "generators", NotGenerating, NotPointed)
    return Cone(POLYHEDRAL, n, generators=generators, facets=facets)


def cone_from_facets(facets: Iterable[Sequence]) -> Cone:
    """Polyhedral cone {x : h.x >= 0 for all h} (see ``_regular``)."""
    n, normals = _canonical_input(facets, "facets")
    facets, generators = _regular(normals, n, "facet normals", NotPointed, NotGenerating)
    return Cone(POLYHEDRAL, n, generators=generators, facets=facets)


def _regular(rays: list, n: int, what: str, not_spanning, not_pointed) -> tuple[tuple, tuple | None]:
    """(the irredundant rows of a regular description, the other
    description when it comes for free, else None).  The nonzero rows must
    span R^n (else not_spanning) and their cone must be pointed (else
    not_pointed), and a row in the cone of the others is dropped (one LP
    each).  By duality, generators and facets swap the two errors.

    n rows B in R^n make no LP and no conversion: one integer inverse
    (``integer_inverse``) proves them independent, and a basis spans a
    pointed cone with none of its rows in the cone of the others; the
    columns of d B^-1 (d > 0), tight on every row but one and positive
    on that one, are the other description.  A singular B keeps the rank
    error."""
    if not rays:
        raise not_spanning(f"all {what} are zero")
    if len(rays) == n:
        try:
            _, inverse_rows = integer_inverse(rays)
        except SingularMatrix:
            raise not_spanning(f"{what} span rank {rank(rays)} < {n}") from None
        return tuple(rays), canonical_rays(zip(*inverse_rows))
    r = rank(rays)
    if r < n:
        raise not_spanning(f"{what} span rank {r} < {n}")
    if len(rays) > n:
        if not _pointed(rays, n):
            raise not_pointed(f"the cone of the {what} contains a line")
        rays = _drop_redundant(rays)
    return tuple(rays), None


def psd_cone(hilbert_dims: Iterable[int] | int) -> Cone:
    """Hermitian PSD cone; pass factor dims for composite coordinatization."""
    dims = (hilbert_dims,) if isinstance(hilbert_dims, int) else tuple(hilbert_dims)
    if not dims or any(d < 1 for d in dims):
        raise InputError("a PSD cone needs one or more positive Hilbert dimensions")
    return Cone(PSD, hermitian.ambient_dim(dims), hilbert_dims=dims)


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


def _enumerate_facets(rays, n) -> tuple:
    """All facet normals of cone(rays), which must span R^n: the extreme
    rays of {h : h.r >= 0 for every r}, by integer double description.

    The cone on n independent rows B is simplicial, with the columns of
    B^-1 as its rays, all read off one elimination; each further row cuts
    it, keeping the rays on its nonnegative side and adding the primitive
    combination of every adjacent pair it separates.  Tight sets are bit
    masks over the rows inserted so far; two rays are adjacent when they
    share at least n-2 tight rows and no third ray is tight on all of them
    (Fukuda & Prodon 1996, Proposition 7)."""
    if n == 1:
        return (primitive(rays[0]),)
    prim = [primitive(r) for r in rays]
    basis, _ = _eliminate(list(zip(*prim)))  # the first n independent rows
    # Column k of d B^-1 (d > 0), B the basis rows, is tight on every basis
    # row but the k-th and positive on that one, so its primitive is the
    # k-th ray of the start cone.
    _, inverse_rows = integer_inverse([prim[j] for j in basis])
    basis_mask = sum(1 << j for j in basis)
    current = [  # (ray, tight-set mask)
        (primitive(column), basis_mask & ~(1 << j)) for column, j in zip(zip(*inverse_rows), basis)
    ]
    chosen = set(basis)
    for j, row in enumerate(prim):
        if j in chosen:
            continue
        bit = 1 << j
        plus, minus, kept = [], [], []
        for ray, tight in current:
            s = dot(row, ray)
            if s > 0:
                plus.append((ray, tight, s))
                kept.append((ray, tight))
            elif s < 0:
                minus.append((ray, tight, s))
            else:
                kept.append((ray, tight | bit))
        for p, zp, sp in plus:
            for q, zq, sq in minus:
                common = zp & zq
                if common.bit_count() < n - 2 or any(
                    (z & common) == common and r is not p and r is not q for r, z in current
                ):
                    continue
                new = primitive([sp * b - sq * a for a, b in zip(p, q)])
                kept.append((new, common | bit))
        current = kept
    return tuple(sorted(ray for ray, _ in current))


def dual_cone(C: Cone) -> Cone:
    """Dual cone.  Polyhedral: generated by the facet normals (facets are
    recomputed by enumeration, so the double dual is a genuine check).
    PSD: the same cone, which is self-dual."""
    if C.kind == PSD:
        return C
    return cone_from_generators(C.facets)


def simplicial(C: Cone) -> bool:
    """Is C a simplicial polyhedral cone: n generators, equivalently n
    facets, in R^n?  Reads whichever description C holds and converts
    none."""
    if C.kind != POLYHEDRAL:
        return False
    rows = C._generators if C._generators is not None else C._facets
    return len(rows) == C.dim


def products_by_theorem(K: Cone, L: Cone) -> bool:
    """Are K and L polyhedral with one of them simplicial?  Exactly then
    ``product_cones`` builds their product by theorem, and every extreme
    ray of it and of its dual is a tensor product of two vectors."""
    return K.kind == L.kind == POLYHEDRAL and (simplicial(K) or simplicial(L))


def product_cones(K: Cone, L: Cone) -> tuple[Cone, Cone] | None:
    """(P, dual of P) with both descriptions, P the cone generated by the
    tensor products k (x) l of the generators of K and L, when
    ``products_by_theorem(K, L)``; else None.

    In the basis of the simplicial factor's rays, P is a direct sum of
    copies of the other factor, one per ray, so the minimal and maximal
    tensor products of K and L coincide (Aubrun, Lami, Palazuelos and
    Plavala, "Entangleability of cones", 2021): the extreme rays of P are
    the products of generators and its facets the products of facets, with
    no LP and no conversion of P.  Products of primitive rays are
    primitive, as gcd(a (x) b) = gcd(a) gcd(b), and distinct rays have
    distinct products, so both tuples only need sorting to be canonical."""
    if not products_by_theorem(K, L):
        return None
    n = K.dim * L.dim
    gens = tuple(sorted(tensor_vector(a, b) for a in K.generators for b in L.generators))
    facets = tuple(sorted(tensor_vector(f, h) for f in K.facets for h in L.facets))
    return Cone(POLYHEDRAL, n, generators=gens, facets=facets), Cone(POLYHEDRAL, n, generators=facets, facets=gens)


def cones_equal(C: Cone, D: Cone) -> bool:
    """Equality as sets: the stored canonical generators coincide."""
    if C.kind != D.kind or C.dim != D.dim:
        return False
    if C.kind == PSD:
        return C.hilbert_dims == D.hilbert_dims
    return C.generators == D.generators


def probe_rays(C: Cone, seed: int = 0) -> tuple:
    """The rays on which inclusion checks test a cone: the generators of a
    polyhedral cone (exact); for a PSD cone on C^d the d computational-basis
    projectors, then PROBE_SAMPLES pure states drawn from the seeded normal
    stream (real part, then imaginary part, of each vector in turn).  A
    PSD probe set is a new tuple of the memoized ``_probe_array`` rows."""
    if C.kind == POLYHEDRAL:
        return C.generators
    return tuple(map(tuple, _probe_array(C, seed).tolist()))


def _probe_array(C: Cone, seed: int = 0) -> np.ndarray:
    """``probe_rays`` as one (k, n) float array: a new array of the
    generators of a polyhedral cone, the shared read-only
    ``_psd_probe_array`` of a PSD one."""
    if C.kind == POLYHEDRAL:
        return np.array(C.generators, dtype=float)
    return _psd_probe_array(C.hilbert_dims, seed)


@lru_cache()
def _psd_probe_array(hilbert_dims: tuple[int, ...], seed: int) -> np.ndarray:
    """The projector coordinates, in the factor basis of hilbert_dims, of
    the (d + PROBE_SAMPLES) unit vectors of a PSD probe set on C^d: the
    computational basis, then PROBE_SAMPLES normalized draws from the
    seeded normal stream, which depend on d and seed only.  Memoized on
    (hilbert_dims, seed); the array is read-only because every caller
    holds the same one.  The default bound of 128 entries keeps
    caller-chosen seeds from growing it without limit."""
    d = prod(hilbert_dims)
    z = np.random.default_rng(seed).normal(size=(PROBE_SAMPLES, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    X = hermitian.projector_coords(np.concatenate([np.eye(d), v]), hilbert_dims)
    X.flags.writeable = False
    return X


def rows_outside(C: Cone, Y) -> np.ndarray:
    """Indices, in order, of the float rows of the (k, C.dim) array Y that
    lie outside C by more than the tolerance: by the least eigenvalue
    (``hermitian.rows_outside_psd``) in a PSD cone, by the least facet
    value h.y in a polyhedral one.  A NaN or infinite coordinate, or facet
    value, raises InputError."""
    tol = numeric_tolerance()
    if C.kind == PSD:
        return hermitian.rows_outside_psd(Y, C.hilbert_dims, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(Y, dtype=float) @ np.array(C.facets, dtype=float).T
    return np.flatnonzero(finite_array(values, "the polyhedral inclusion check").min(axis=1) < -tol)


def rays_leaving(M, source: Cone, target: Cone, seed: int = 0) -> Iterator[tuple]:
    """The probe rays x of source whose image M x is not in target, in
    probe order.  When there are none, M carries source into target:
    proven for a polyhedral source, checked on samples for a PSD one.

    An exact M between polyhedral cones is decided exactly and lazily: it
    is first scaled once to the integer matrix s M (s > 0, which moves no
    image in or out of the cone), so every image is a Python-int product
    tested by one ``member`` call.  Any other map is one float batch: all
    images as one matrix product, decided by ``rows_outside`` under the
    tolerance.  A NaN or infinite entry of the map, or an image that
    overflows, raises InputError."""
    if source.kind == target.kind == POLYHEDRAL and is_exact(M):
        M = integer_rows(M)[1]
        return (x for x in source.generators if not target.member(matvec(M, x)))
    M = np.asarray(M, dtype=float)
    if M.shape != (target.dim, source.dim):
        raise DimensionMismatch(f"map of shape {M.shape} vs cones of dims {source.dim}, {target.dim}")
    X = _probe_array(source, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # rows_outside refuses what is not finite
        Y = X @ M.T
    leaving = rows_outside(target, Y)
    if source.kind == POLYHEDRAL:
        return iter([source.generators[i] for i in leaving])
    return iter([tuple(X[i].tolist()) for i in leaving])
