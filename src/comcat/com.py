"""Convex operational models: state/effect cone pairs with a unit functional.

The effect space is coordinatized in the same R^n as the state space via
the standard dot-product pairing, so the abstract dual is concrete and
linear adjoints are matrix transposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import numpy as np

from . import hermitian
from .cones import PSD, POLYHEDRAL, Cone, cones_equal, dual_cone, rays_leaving
from .errors import DimensionMismatch, NotAMorphism, ZeroMap
from .linalg import (
    dot,
    fmt,
    matvec,
    scale_matrix,
    transpose,
)


@dataclass(frozen=True)
class Com:
    """A state space, a chosen effect cone inside its dual, and a unit."""

    label: str
    state_cone: Cone
    effect_cone: Cone
    unit: tuple

    @property
    def dim(self) -> int:
        return self.state_cone.dim

    @property
    def kind(self) -> str:
        return self.state_cone.kind

    def is_exact(self) -> bool:
        return self.kind == POLYHEDRAL

    def __repr__(self):
        return f"Com({self.label!r}, dim={self.dim}, kind={self.kind})"


def validate_com(com: Com) -> list[str]:
    """All invariant violations of the triple (empty list = valid).

    Checks are exhaustive rather than fail-fast: unit in the effect cone,
    unit strictly positive on states, effect cone inside the dual of the
    state cone, and regularity of both cones.  PSD models are checked
    spectrally; regularity holds by construction there.
    """
    violations: list[str] = []
    A, E, u = com.state_cone, com.effect_cone, com.unit
    if A.dim != E.dim or len(u) != A.dim:
        return [
            f"carrier dimensions disagree: state {A.dim}, effect {E.dim}, unit {len(u)}"
        ]
    if A.kind != E.kind:
        violations.append(f"state cone kind {A.kind} differs from effect cone kind {E.kind}")
        return violations

    if not E.member(u):
        violations.append("unit functional is not in the effect cone")
    if not A.strictly_positive(u):
        violations.append("unit functional is not strictly positive on the state cone")
    if A.kind == PSD:
        if A.hilbert_dims != E.hilbert_dims:
            violations.append("state and effect PSD cones have different factorizations")
    else:
        violations.extend(_effect_cone_in_dual(A, E))
    return violations


def _effect_cone_in_dual(A: Cone, E: Cone) -> list[str]:
    """E lies in the dual of A iff every effect generator is nonnegative
    on every state generator; each effect generator that is not is named
    with the first state generator it is negative on."""
    out = []
    for e in E.generators:
        bad = next((g for g in A.generators if dot(e, g) < 0), None)
        if bad is not None:
            out.append(f"effect generator {fmt(e)} is negative on state generator {fmt(bad)}")
    return out


def is_saturated(com: Com) -> bool:
    """True iff the effect cone is the full dual of the state cone."""
    if com.kind == PSD:
        return True
    return cones_equal(com.effect_cone, dual_cone(com.state_cone))


def normalized_state_vertices(com: Com) -> tuple:
    """Extreme normalized states: generators scaled to unit value one."""
    out = []
    for g in com.state_cone.generators:
        s = dot(com.unit, g)
        out.append(tuple(Fraction(x) / s for x in g))
    return tuple(out)


def is_effect(com: Com, a) -> bool:
    """Effect test: both a and u - a lie in the effect cone."""
    u_minus = tuple(x - y for x, y in zip(com.unit, a))
    E = com.effect_cone
    return E.member(a) and E.member(u_minus)


# ---------------------------------------------------------------------------
# Morphisms and processes


@dataclass
class MorphismReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    sampled: bool = False


def linear_adjoint(phi) -> tuple:
    """Adjoint in the fixed pairing coordinates: the matrix transpose."""
    return transpose(phi)


def is_morphism(phi, A: Com, B: Com, seed: int = 0) -> MorphismReport:
    """Positivity of phi on state cones plus positivity of its adjoint on
    the designated effect cones; the certificate names every violating
    probe ray (``cones.rays_leaving``).

    A polyhedral source cone is probed on all its generators, so that
    direction is exact.  A PSD source has no finite generator list; its
    direction is checked on the seeded pure states of ``probe_rays``
    (seed for states, seed + 1 for effects) and the report is flagged as
    sampled.
    """
    rows = len(phi)
    cols = len(phi[0]) if rows else 0
    if rows != B.dim or cols != A.dim:
        raise DimensionMismatch(f"map is {rows}x{cols}, expected {B.dim}x{A.dim}")
    violations = [
        f"image of state generator {fmt(g)} leaves the target state cone"
        for g in rays_leaving(phi, A.state_cone, B.state_cone, seed)
    ]
    violations += [
        f"adjoint image of effect generator {fmt(e)} leaves the source effect cone"
        for e in rays_leaving(linear_adjoint(phi), B.effect_cone, A.effect_cone, seed + 1)
    ]
    return MorphismReport(not violations, violations, PSD in (A.kind, B.kind))


def process_scale(phi, A: Com, B: Com) -> object:
    """max of u_B(phi(alpha)) over normalized states alpha (exact for
    polyhedral via polytope vertices; analytic top eigenvalue for PSD)."""
    w = matvec(linear_adjoint(phi), B.unit)
    if A.kind == POLYHEDRAL:
        return max(dot(w, v) for v in normalized_state_vertices(A))
    return float(np.max(hermitian.eigenvalues(w, A.state_cone.hilbert_dims)))


def is_process(phi, A: Com, B: Com) -> bool:
    """Morphism with adjoint(unit) bounded by the unit."""
    report = is_morphism(phi, A, B)
    if not report.ok:
        raise NotAMorphism("; ".join(report.violations))
    w = matvec(linear_adjoint(phi), B.unit)
    residual = tuple(x - y for x, y in zip(A.unit, w))
    return A.effect_cone.member(residual)


def normalize_morphism(phi, A: Com, B: Com):
    """Scale a nonzero morphism to a process: returns (phi / M, M) with M
    the tight maximum of u_B over images of normalized states."""
    report = is_morphism(phi, A, B)
    if not report.ok:
        raise NotAMorphism("; ".join(report.violations))
    if all(x == 0 for row in phi for x in row):
        raise ZeroMap("cannot normalize the zero map")
    M = process_scale(phi, A, B)
    if M == 0:
        raise ZeroMap("unit never fires on the image; no finite normalization")
    if A.kind == POLYHEDRAL:
        inv = Fraction(1) / M
    else:
        inv = 1.0 / M
    return scale_matrix(inv, phi), M


def random_positive_map(rng, A: Com, B: Com, terms: int = 3):
    """Random COM morphism: nonnegative combination of rank-one maps built
    from target state generators and source effect generators."""
    gens_b = B.state_cone.generators
    effs_a = A.effect_cone.generators
    out = [[Fraction(0)] * A.dim for _ in range(B.dim)]
    for _ in range(terms):
        g = gens_b[rng.randrange(len(gens_b))]
        e = effs_a[rng.randrange(len(effs_a))]
        c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for i in range(B.dim):
            for j in range(A.dim):
                out[i][j] += c * g[i] * e[j]
    return tuple(tuple(row) for row in out)
