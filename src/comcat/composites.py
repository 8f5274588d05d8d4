"""Composites of models on the tensor-product carrier.

Local tomography is hard-wired: the composite carrier is the tensor
product of the factor carriers, row-major (left factor major).  A
composite state omega is simultaneously a vector of length n_A*n_B and a
bilinear form on effect pairs via omega(a, b) = a^T W b, W the n_A x n_B
reshape of the vector.

The two polyhedral composites are dual twins, both saturated:

  min: states generated by products of state generators; effects = the
       full dual of that cone (facet description: the state products).
  max: states = everything positive on products of effect generators
       (facet description: the effect products); effects generated by
       the effect products.

Generator descriptions of the facet-described cones are enumerated only
on demand.  For two PSD factors the composite of interest is the spatial
one: the PSD cone on the tensor-product Hilbert space, coordinatized by
the product basis so that product states have product coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .com import Com
from .cones import (
    PSD,
    POLYHEDRAL,
    cone_from_facets,
    cone_from_generators,
    probe_rays,
    psd_cone,
)
from .config import numeric_tolerance, tolerance_for
from .errors import KindMismatch, MixedKindUnsupported
from .linalg import (
    dot,
    matvec,
    swap_matrix,
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


def product_state(alpha, beta) -> tuple:
    return tensor_vector(alpha, beta)


def _require_polyhedral(A: Com, B: Com):
    if A.kind != POLYHEDRAL or B.kind != POLYHEDRAL:
        raise MixedKindUnsupported(
            "exact tensor cones need polyhedral factors; use the spatial composite for quantum models"
        )


def min_tensor(A: Com, B: Com) -> CompositeCom:
    """Separable composite: states are mixtures of products, effects are
    everything positive on them (the full dual)."""
    _require_polyhedral(A, B)
    state_cone = cone_from_generators(
        tensor_vector(g, h) for g in A.state_cone.generators for h in B.state_cone.generators
    )
    effect_cone = cone_from_facets(state_cone.generators)
    return CompositeCom(
        label=f"{A.label}(min){B.label}",
        state_cone=state_cone,
        effect_cone=effect_cone,
        unit=tensor_vector(A.unit, B.unit),
        factors=(A, B),
        composite_kind=MIN,
    )


def max_tensor(A: Com, B: Com) -> CompositeCom:
    """Nonsignaling composite: states are all bilinear forms positive on
    product effects; effects are generated by the product effects."""
    _require_polyhedral(A, B)
    effect_products = [
        tensor_vector(a, b) for a in A.effect_cone.generators for b in B.effect_cone.generators
    ]
    state_cone = cone_from_facets(effect_products)
    effect_cone = cone_from_generators(effect_products)
    return CompositeCom(
        label=f"{A.label}(max){B.label}",
        state_cone=state_cone,
        effect_cone=effect_cone,
        unit=tensor_vector(A.unit, B.unit),
        factors=(A, B),
        composite_kind=MAX,
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


def tensor(A: Com, B: Com, kind: str) -> CompositeCom:
    if kind == MIN:
        return min_tensor(A, B)
    if kind == MAX:
        return max_tensor(A, B)
    if kind in (SPATIAL, "spatial"):
        return spatial_quantum_composite(A, B)
    raise KeyError(f"unknown composite kind {kind!r}")


def swap_map(A: Com, B: Com) -> tuple:
    """Matrix of the symmetry isomorphism from the (A,B) carrier to (B,A)."""
    return swap_matrix(A.dim, B.dim)


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


def is_composite(AB: Com, A: Com, B: Com, seed: int = 0) -> list[str]:
    """All composite-contract violations (empty list = valid composite):
    unit is the product unit, product states and product effects belong to
    the designated cones, and every composite state is positive on product
    effects (max-cone inclusion), the latter with a named witness pair."""
    violations: list[str] = []
    if AB.dim != A.dim * B.dim:
        return [f"carrier dim {AB.dim} is not {A.dim}*{B.dim}"]
    exact = AB.kind == POLYHEDRAL

    u_prod = tensor_vector(A.unit, B.unit)
    if exact:
        if tuple(AB.unit) != tuple(u_prod):
            violations.append("unit is not the product of the factor units")
    elif max(abs(x - y) for x, y in zip(AB.unit, u_prod)) > numeric_tolerance():
        violations.append("unit is not the product of the factor units")

    if exact:
        for g in A.state_cone.generators:
            for h in B.state_cone.generators:
                if not AB.state_cone.member(tensor_vector(g, h)):
                    violations.append(f"product state of {g} and {h} missing from the state cone")
        for a in A.effect_cone.generators:
            for b in B.effect_cone.generators:
                if not AB.effect_cone.member(tensor_vector(a, b)):
                    violations.append(f"product effect of {a} and {b} missing from the effect cone")
        state_gens = AB.state_cone.generators
        for w in state_gens:
            for a in A.effect_cone.generators:
                for b in B.effect_cone.generators:
                    if dot(w, tensor_vector(a, b)) < 0:
                        violations.append(
                            f"state {w} is negative on the product effect of {a} and {b}"
                        )
        return violations

    # Spectral composite: products of the factors' i-th probe rays, and
    # the probe rays of the composite itself.
    pairs = zip(probe_rays(A.state_cone, seed), probe_rays(B.state_cone, seed + 1))
    if any(not AB.state_cone.member(tensor_vector(alpha, beta)) for alpha, beta in pairs):
        violations.append("a sampled product state left the composite cone")
    if any(not in_max_cone(w, A, B) for w in probe_rays(AB.state_cone, seed)):
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
