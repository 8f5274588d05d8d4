"""Composites of models on the tensor-product carrier.

Local tomography is hard-wired: the composite carrier is the tensor
product of the factor carriers, row-major (left factor major).  A
composite state omega is simultaneously a vector of length n_A*n_B and a
bilinear form on effect pairs via omega(a, b) = a^T W b, W the n_A x n_B
reshape of the vector.

The two polyhedral composites are dual twins, both saturated, built by
one construction (``_product_composite``): P, the cone generated by the
products of the factors' state generators (min) or effect generators
(max), and its dual, whose facets are P's generators.  Min takes P for
its states and the dual for its effects; max the other way round.
When one of the two factor cones is simplicial, as in a classical
system, their minimal and maximal tensor products coincide, and
``cones.product_cones`` writes both descriptions of P and of its dual
from the factors', with no construction LP and no conversion.  Every
extreme state of such a composite is then a product of two vectors
(``pure_states_are_products``, which the teleportation search reads).
Otherwise one LP branch builds P from the products and its dual from
P's generators with the cone factories (their construction LPs); the
description a factory was not given is enumerated only on demand.  That
branch stays only while the benchmark's tracer pins the LP counts of
composites without a simplicial factor; once those pins move, every
composite is to be built by theorem and the branch deleted.

For two PSD factors the composite of interest is the spatial one: the
PSD cone on the tensor-product Hilbert space, coordinatized by
the product basis so that product states have product coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional

import numpy as np

from .com import Com
from .cones import (
    PSD,
    POLYHEDRAL,
    _probe_array,
    cone_from_facets,
    cone_from_generators,
    probe_rays,
    product_cones,
    products_by_theorem,
    psd_cone,
    rows_outside,
)
from .config import numeric_tolerance, tolerance_for
from .errors import KindMismatch, MixedKindUnsupported
from .linalg import (
    deviation,
    dot,
    finite_array,
    is_exact,
    matvec,
    tensor_vector,
    transpose,
    vec_to_matrix,
)
from .lp import le, solve_lp

MIN, MAX, SPATIAL, CUSTOM = "min", "max", "spatial_quantum", "custom"


@dataclass(frozen=True)
class CompositeCom(Com):
    factors: tuple[Com, Com] = None
    composite_kind: str = CUSTOM

    def __repr__(self):
        return (
            f"CompositeCom({self.label!r}, kind={self.composite_kind}, dim={self.dim})"
        )


def _require_polyhedral(A: Com, B: Com):
    if A.kind != POLYHEDRAL or B.kind != POLYHEDRAL:
        raise MixedKindUnsupported(
            "exact tensor cones need polyhedral factors; use the spatial composite for quantum models"
        )


def min_tensor(A: Com, B: Com) -> CompositeCom:
    """Separable composite: states are mixtures of products, effects are
    everything positive on them (the full dual)."""
    return _product_composite(A, B, MIN)


def max_tensor(A: Com, B: Com) -> CompositeCom:
    """Nonsignaling composite: states are all bilinear forms positive on
    product effects; effects are generated by the product effects."""
    return _product_composite(A, B, MAX)


def _factor_cones(A: Com, B: Com, kind: str) -> tuple:
    """The factor cones whose products generate P: the state cones (min)
    or the effect cones (max)."""
    return (A.state_cone, B.state_cone) if kind == MIN else (A.effect_cone, B.effect_cone)


def pure_states_are_products(AB: Com) -> bool:
    """Is AB a min or max composite built by theorem (a simplicial factor
    cone, ``cones.products_by_theorem``)?  Then every extreme ray of its
    state cone is a tensor product of two vectors: P's generators (min)
    or the products of the factors' facets that are P's facets (max)."""
    return (
        isinstance(AB, CompositeCom)
        and AB.composite_kind in (MIN, MAX)
        and products_by_theorem(*_factor_cones(*AB.factors, AB.composite_kind))
    )


def _product_composite(A: Com, B: Com, kind: str) -> CompositeCom:
    """The min or max composite of two polyhedral models, from P and its
    dual (see the module docstring)."""
    _require_polyhedral(A, B)
    K, L = _factor_cones(A, B, kind)
    cones = product_cones(K, L)
    if cones is None:  # the LP branch; see the module docstring
        P = cone_from_generators(tensor_vector(k, l) for k in K.generators for l in L.generators)
        cones = P, cone_from_facets(P.generators)
    state_cone, effect_cone = cones if kind == MIN else cones[::-1]
    return CompositeCom(
        label=f"{A.label}({kind}){B.label}",
        state_cone=state_cone,
        effect_cone=effect_cone,
        unit=tensor_vector(A.unit, B.unit),
        factors=(A, B),
        composite_kind=kind,
    )


def spatial_quantum_composite(A: Com, B: Com) -> CompositeCom:
    """Quantum composite on the tensor-product Hilbert space."""
    if A.kind != PSD or B.kind != PSD:
        raise KindMismatch("spatial composite needs two PSD factors")
    dims = A.state_cone.hilbert_dims + B.state_cone.hilbert_dims
    cone = psd_cone(dims)
    return CompositeCom(
        label=f"{A.label}(spatial){B.label}",
        state_cone=cone,
        effect_cone=psd_cone(dims),
        unit=tensor_vector(A.unit, B.unit),
        factors=(A, B),
        composite_kind=SPATIAL,
    )


# Composite kind name -> (factory, dual twin).  The twin hosts the effect
# of a protocol whose shared state lives in the named kind; min and max are
# each other's twins, and the spatial composite ("spatial") is its own.
KINDS = {
    MIN: (min_tensor, MAX),
    MAX: (max_tensor, MIN),
    SPATIAL: (spatial_quantum_composite, SPATIAL),
    "spatial": (spatial_quantum_composite, SPATIAL),
}


def tensor(A: Com, B: Com, kind: str) -> CompositeCom:
    """The composite of A and B of a kind named in ``KINDS``."""
    if kind not in KINDS:
        raise KeyError(f"unknown composite kind {kind!r}")
    return KINDS[kind][0](A, B)


def in_max_cone(omega, A: Com, B: Com) -> bool:
    """Is the form omega(a, b) = a^T W b nonnegative on every pair of probe
    rays of the two effect cones (``cones.probe_rays``)?

    Polyhedral factors contribute all their effect generators, so for two
    of them and an exact omega the answer is exact: each probe ray a gives
    the row a^T W, tested against each probe ray of B in integer or
    Fraction arithmetic.  A PSD factor contributes its basis projectors
    and seeded pure states, so the check is sampled.  A float omega or a
    PSD factor is read under the tolerance, all pairs at once as the least
    entry of Ra W Rb^T, Ra and Rb the probe rays as float arrays (a NaN
    or infinite omega raises InputError)."""
    if A.kind == B.kind == POLYHEDRAL and is_exact(omega):
        Wt = transpose(vec_to_matrix(omega, A.dim, B.dim))
        b_rays = probe_rays(B.effect_cone)
        for a in probe_rays(A.effect_cone):
            row = matvec(Wt, a)
            if any(dot(row, b) < 0 for b in b_rays):
                return False
        return True
    W = finite_array(omega, "the max-cone check").reshape(A.dim, B.dim)
    Ra, Rb = _probe_array(A.effect_cone), _probe_array(B.effect_cone)
    return bool((Ra @ W @ Rb.T).min() >= -numeric_tolerance())


def is_composite(AB: Com, A: Com, B: Com, seed: int = 0) -> list[str]:
    """All composite-contract violations (empty list = valid composite):
    unit is the product unit, product states and product effects belong to
    the designated cones, and every composite state is positive on product
    effects (max-cone inclusion), the latter with a named witness pair.
    A float unit with a NaN or infinite entry raises InputError."""
    violations: list[str] = []
    if AB.dim != A.dim * B.dim:
        return [f"carrier dim {AB.dim} is not {A.dim}*{B.dim}"]
    u_prod = tensor_vector(A.unit, B.unit)
    tolerance = tolerance_for(AB.unit, u_prod)
    if tolerance and not isfinite(sum(AB.unit) + sum(u_prod)):  # a non-finite unit has no residual
        finite_array((*AB.unit, *u_prod), "the composite unit check")
    if len(AB.unit) != len(u_prod) or deviation(AB.unit, u_prod) > tolerance:
        violations.append("unit is not the product of the factor units")

    if AB.kind == POLYHEDRAL:
        for g in A.state_cone.generators:
            for h in B.state_cone.generators:
                if not AB.state_cone.member(tensor_vector(g, h)):
                    violations.append(f"product state of {g} and {h} missing from the state cone")
        effects = [
            (a, b, tensor_vector(a, b)) for a in A.effect_cone.generators for b in B.effect_cone.generators
        ]
        for a, b, ab in effects:
            if not AB.effect_cone.member(ab):
                violations.append(f"product effect of {a} and {b} missing from the effect cone")
        for w in AB.state_cone.generators:
            for a, b, ab in effects:
                if dot(w, ab) < 0:
                    violations.append(f"state {w} is negative on the product effect of {a} and {b}")
        return violations

    # Spectral composite: products of the factors' i-th probe rays, and
    # the probe rays of the composite itself, each set tested in one batch
    # (the second as in_max_cone does, one form matrix W per probe ray).
    tol = numeric_tolerance()
    Xa, Xb = _probe_array(A.state_cone, seed), _probe_array(B.state_cone, seed + 1)
    k = min(len(Xa), len(Xb))
    products = np.einsum("ki,kj->kij", Xa[:k], Xb[:k]).reshape(k, AB.dim)
    if rows_outside(AB.state_cone, products).size:
        violations.append("a sampled product state left the composite cone")
    Ra, Rb = _probe_array(A.effect_cone), _probe_array(B.effect_cone)
    W = _probe_array(AB.state_cone, seed).reshape(-1, A.dim, B.dim)
    if (Ra @ W @ Rb.T).min() < -tol:
        violations.append("a sampled composite state is negative on a product effect")
    return violations


def separability_check(omega, AB_min: CompositeCom) -> bool:
    """Exact facet-sign membership of the state in the separable (min)
    cone; False means entangled."""
    if AB_min.kind != POLYHEDRAL:
        raise MixedKindUnsupported("separability check needs polyhedral factors")
    return AB_min.state_cone.member(omega)


def separating_functional(omega, generators) -> Optional[tuple]:
    """An exact functional s with s nonpositive on every generator but
    s(omega) > 0, certifying that omega is outside the generated cone.
    Entries are box-bounded so the separation LP stays bounded."""
    n = len(omega)
    cons = [le(g, 0) for g in generators]
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        cons.append(le(e, 1))
        cons.append(le(tuple(-x for x in e), 1))
    res = solve_lp(n, cons, objective=omega, maximize=True)
    if res.status == "optimal" and res.value > 0:
        return res.x
    return None
