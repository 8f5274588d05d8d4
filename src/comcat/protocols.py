"""Teleportation discovery, compact-structure verification, and the
factorization of morphisms through remote evaluation.

A teleportation certificate for sending A through B consists of a shared
normalized state omega of the (B, A) composite, a positive map r_hat from
A into B's effect space with hat(omega) . r_hat = id_A, and the largest
positive scale c for which the induced bipartite form c * r_hat is an
effect of the designated (A, B) composite.  The joint search over
(omega, r_hat) is bilinear, so it is staged over finitely many exact
candidates:

  stage 1: omega ranges over the extreme rays of the composite state
           cone (pure shared states; covers PR-box style witnesses),
           with an LP for r_hat;
  stage 2: r_hat ranges over injective matchings from extreme rays of
           A's state cone into extreme rays of B's effect cone, with an
           LP for omega inside the composite cone (covers classically
           correlated witnesses, which are not pure).

Both stages are deterministic; exhaustion of both is reported, not
proven complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from . import hermitian
from .com import Com
from .composites import CompositeCom, in_max_cone
from .cones import POLYHEDRAL, PSD, rays_leaving
from .config import numeric_tolerance, tolerance_for
from .errors import InvalidStructure, MixedKindUnsupported, UnsupportedKind
from .linalg import (
    dot,
    identity,
    is_exact,
    matmul,
    matrix_to_vec,
    max_abs,
    scale_vector,
    sub_matrices,
    tensor_vector,
    transpose,
    vec_to_matrix,
)
from .lp import eq, ge, solve_lp
from .matching import MAX_RAYS, _solve_matching


@dataclass
class TeleportationCertificate:
    """Conclusive correction-free protocol data, with residuals."""

    omega: tuple  # normalized state of the (B, A) composite
    r_hat: tuple  # matrix, A -> effect space of B
    c: object  # maximal effect scale (Fraction or float)
    f: tuple  # the effect c * (r_hat form) on the (A, B) composite
    residual: object  # max-abs deviation of hat(omega) . r_hat from id_A
    composite_ab: CompositeCom = None
    composite_ba: CompositeCom = None


@dataclass
class VerificationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    residuals: dict = field(default_factory=dict)


def _r_form_vector(r_hat) -> tuple:
    """Bipartite form over (A, B) of the map r_hat: f(a, b) = r_hat(a).b."""
    return matrix_to_vec(transpose(r_hat))


def _effect_interval_max_scale(r_form, composite_ab: CompositeCom):
    """Largest c >= 0 with c*r_form and u - c*r_form in the effect cone,
    from the facets alone: the least ratio h.u / h.r_form over facets h
    with h.r_form > 0, or None when some h.r_form < 0 (no positive
    multiple of r_form is an effect) or none is positive."""
    u = composite_ab.unit
    best = None
    for h in composite_ab.effect_cone.facets:
        den = dot(h, r_form)
        if den < 0:
            return None
        if den > 0:
            ratio = Fraction(dot(h, u)) / den
            best = ratio if best is None else min(best, ratio)
    return best


def _solve_r_hat(omega_hat, A: Com, B: Com) -> Optional[tuple]:
    """LP for a positive r_hat: A -> B-effects with omega_hat . r_hat = id."""
    n_a, n_b = A.dim, B.dim
    nvars = n_b * n_a  # entries of r_hat, row-major
    cons = []
    for i in range(n_a):
        for j in range(n_a):
            row = [0] * nvars
            for t in range(n_b):
                row[t * n_a + j] = omega_hat[i][t]
            cons.append(eq(row, 1 if i == j else 0))
    eff_facets = B.effect_cone.facets
    for g in A.state_cone.generators:
        for h in eff_facets:
            # (r_hat g).h >= 0: the row-major outer product of h and g
            cons.append(ge([ht * gs for ht in h for gs in g], 0))
    res = solve_lp(nvars, cons)
    if res.status != "optimal":
        return None
    flat = res.x
    return tuple(tuple(flat[t * n_a + s] for s in range(n_a)) for t in range(n_b))


def _candidate_omegas_stage2(A: Com, B: Com, composite_ba: CompositeCom):
    """(omega, r_hat) pairs from injective ray matchings A-states -> B-effects,
    solving an exact LP for omega in the composite cone."""
    a_rays = A.state_cone.generators
    b_rays = B.effect_cone.generators
    if len(a_rays) > len(b_rays) or len(b_rays) > MAX_RAYS:
        return
    n_a, n_b = A.dim, B.dim
    gens_ba = composite_ba.state_cone.generators
    for image in permutations(range(len(b_rays)), len(a_rays)):
        r_hat = _solve_matching(a_rays, [b_rays[j] for j in image], n_b, n_a)
        if r_hat is None or all(x == 0 for row in r_hat for x in row):
            continue
        omega = _solve_omega(r_hat, A, B, gens_ba)
        if omega is not None:
            yield omega, r_hat


def _solve_omega(r_hat, A: Com, B: Com, gens_ba) -> Optional[tuple]:
    """LP for omega = sum mu_k G_k with hat(omega) . r_hat = id_A."""
    n_a, n_b = A.dim, B.dim
    k = len(gens_ba)
    cons = []
    # hat(omega) = W^T with W the (n_b x n_a) reshape of omega;
    # (hat(omega) r_hat)[i][j] = sum_t W[t][i] r_hat[t][j]
    Ws = [vec_to_matrix(g, n_b, n_a) for g in gens_ba]
    for i in range(n_a):
        for j in range(n_a):
            row = [sum(W[t][i] * r_hat[t][j] for t in range(n_b)) for W in Ws]
            cons.append(eq(row, 1 if i == j else 0))
    mu = solve_lp(k, cons, nonneg=[True] * k)
    if mu.status != "optimal":
        return None
    omega = [0] * (n_a * n_b)
    for coef, g in zip(mu.x, gens_ba):
        if coef:
            omega = [w + coef * x for w, x in zip(omega, g)]
    return tuple(omega)


def _normalize_state(omega, composite: CompositeCom):
    total = dot(composite.unit, omega)
    if total == 0:
        return None
    if is_exact(omega):
        return scale_vector(Fraction(1) / total, omega)
    return scale_vector(1.0 / total, omega)


def find_teleportation(
    A: Com, B: Com, composite_ab: CompositeCom, composite_ba: CompositeCom
) -> Optional[TeleportationCertificate]:
    """Search for a conclusive correction-free protocol sending A through B.

    composite_ba hosts the shared state; composite_ab hosts the measured
    effect.  Exact polyhedral models only; returns the first certificate in
    deterministic stage order, or None when both stages exhaust."""
    if A.kind != POLYHEDRAL or B.kind != POLYHEDRAL:
        raise UnsupportedKind("search is exact-only; verify an explicit PSD candidate instead")
    n_a, n_b = A.dim, B.dim

    def finish(omega, r_hat) -> Optional[TeleportationCertificate]:
        omega_n = _normalize_state(omega, composite_ba)
        if omega_n is None:
            return None
        W = vec_to_matrix(omega_n, n_b, n_a)
        omega_hat = transpose(W)
        prod = matmul(omega_hat, r_hat)
        # rescale r_hat against the normalized state
        scale = None
        for i in range(n_a):
            for j in range(n_a):
                if i == j:
                    if prod[i][j] == 0:
                        return None
                    if scale is None:
                        scale = prod[i][j]
                    elif prod[i][j] != scale:
                        return None
                elif prod[i][j] != 0:
                    return None
        r_scaled = tuple(tuple(x / scale for x in row) for row in r_hat)
        residual = max_abs(sub_matrices(matmul(omega_hat, r_scaled), identity(n_a, Fraction(1))))
        if residual > tolerance_for(omega_hat, r_scaled):
            return None
        r_form = _r_form_vector(r_scaled)
        c = _effect_interval_max_scale(r_form, composite_ab)
        if c is None or c <= 0:
            return None
        f = scale_vector(c, r_form)
        return TeleportationCertificate(
            omega=omega_n,
            r_hat=r_scaled,
            c=c,
            f=f,
            residual=residual,
            composite_ab=composite_ab,
            composite_ba=composite_ba,
        )

    # Stage 1: pure shared states (extreme rays of the composite cone).
    for ray in composite_ba.state_cone.generators:
        W = vec_to_matrix(ray, n_b, n_a)
        omega_hat = transpose(W)
        r_hat = _solve_r_hat(omega_hat, A, B)
        if r_hat is None:
            continue
        cert = finish(ray, r_hat)
        if cert is not None:
            return cert

    # Stage 2: matched maps with an LP for the shared state.
    for omega, r_hat in _candidate_omegas_stage2(A, B, composite_ba):
        cert = finish(omega, r_hat)
        if cert is not None:
            return cert
    return None


def verify_teleportation(cert: TeleportationCertificate, A: Com, B: Com) -> VerificationReport:
    """Independent re-check of every certificate invariant.

    Exact membership and identity checks for polyhedral data; spectral
    (eigenvalue) checks plus sampled positivity for PSD models."""
    violations = []
    residuals = {}
    n_a, n_b = A.dim, B.dim
    composite_ba = cert.composite_ba
    composite_ab = cert.composite_ab
    omega, r_hat, c = cert.omega, cert.r_hat, cert.c

    if len(omega) != n_a * n_b:
        return VerificationReport(False, [f"omega has length {len(omega)}, expected {n_a * n_b}"])

    exact = A.kind == POLYHEDRAL
    tol = 0 if exact else numeric_tolerance()

    # shared state: in the composite cone (or spectral cone), normalized
    if composite_ba is not None:
        if not composite_ba.state_cone.member(omega):
            violations.append("shared state is outside the designated composite cone")
        u_ba = composite_ba.unit
    else:
        u_ba = tensor_vector(B.unit, A.unit)
        if not in_max_cone(omega, B, A):
            violations.append("shared state is not nonsignaling-positive")
    norm = dot(u_ba, omega)
    if abs(norm - 1) > tol:
        violations.append(f"shared state has normalization {norm}")

    # positivity of r_hat on the probe rays of A's state cone
    g = next(rays_leaving(r_hat, A.state_cone, B.effect_cone, seed=6), None)
    if g is not None:
        violations.append(f"r_hat image of state generator {g} leaves the effect cone")

    # identity equation
    W = vec_to_matrix(omega, n_b, n_a)
    prod = matmul(transpose(W), r_hat)
    one = Fraction(1) if exact else 1.0
    res_id = max_abs(sub_matrices(prod, identity(n_a, one)))
    residuals["identity"] = res_id
    if res_id > tol:
        violations.append(f"hat(omega) . r_hat deviates from the identity by {res_id}")

    # effect interval for f = c * r_form
    r_form = _r_form_vector(r_hat)
    f = scale_vector(c, r_form)
    if cert.f is not None:
        residuals["f_consistency"] = max_abs(tuple(x - y for x, y in zip(f, cert.f)))
    if composite_ab is not None and composite_ab.kind == POLYHEDRAL:
        E = composite_ab.effect_cone
        u = composite_ab.unit
        if not E.member(f):
            violations.append("scaled form is not in the composite effect cone")
        if not E.member(tuple(x - y for x, y in zip(u, f))):
            violations.append("unit minus scaled form is not in the composite effect cone")
    else:
        if composite_ab is not None:
            dims = composite_ab.state_cone.hilbert_dims
        elif A.kind == B.kind == PSD:
            dims = A.state_cone.hilbert_dims + B.state_cone.hilbert_dims
        else:
            raise MixedKindUnsupported(
                "the effect check needs a designated composite unless both factors are PSD"
            )
        eigs = hermitian.eigenvalues(f, dims)
        residuals["effect_spectrum"] = (float(eigs[0]), float(eigs[-1]))
        if eigs[0] < -numeric_tolerance():
            violations.append(f"effect form has negative eigenvalue {eigs[0]}")
        if eigs[-1] > 1 + numeric_tolerance():
            violations.append(f"effect form has eigenvalue {eigs[-1]} above one")

    return VerificationReport(not violations, violations, residuals)


def max_effect_scale_psd(r_hat, A: Com, B: Com) -> float:
    """Largest c with c * r_form a valid spectral effect: one over the top
    eigenvalue of the form operator."""
    r_form = _r_form_vector(r_hat)
    dims = A.state_cone.hilbert_dims + B.state_cone.hilbert_dims
    top = float(hermitian.eigenvalues(r_form, dims)[-1])
    if top <= 0:
        raise InvalidStructure("form operator has no positive part")
    return 1.0 / top


# ---------------------------------------------------------------------------
# Compact structures


@dataclass
class CompactStructure:
    """A designated dual object with unit and co-unit and their residuals."""

    obj: Com
    dual_obj: Com
    eta: tuple  # bipartite state vector over (A', A)
    epsilon: tuple  # bipartite effect-multiple vector over (A, A')
    residuals: dict = field(default_factory=dict)


def verify_compact_structure(A: Com, A_dual: Com, eta, epsilon) -> VerificationReport:
    """Evaluate both zig-zag identities as matrix equations through the
    conditioning machinery and report max-abs residuals."""
    n, m = A.dim, A_dual.dim
    if len(eta) != m * n or len(epsilon) != n * m:
        return VerificationReport(
            False, [f"unit/co-unit lengths {len(eta)}, {len(epsilon)} do not match {m}x{n}"]
        )
    N = vec_to_matrix(eta, m, n)  # form over (A', A)
    E = vec_to_matrix(epsilon, n, m)  # form over (A, A')
    eta_hat = transpose(N)  # A'-effects -> A
    eps_hat = transpose(E)  # A -> A'-effects
    one = Fraction(1) if is_exact(eta) and is_exact(epsilon) else 1.0
    snake1 = matmul(eta_hat, eps_hat)
    snake2 = matmul(N, E)
    res1 = max_abs(sub_matrices(snake1, identity(n, one)))
    res2 = max_abs(sub_matrices(snake2, identity(m, one)))
    tol = tolerance_for(eta, epsilon)
    ok = res1 <= tol and res2 <= tol
    report = VerificationReport(ok, [] if ok else ["zig-zag identities fail"], {
        "snake_state_side": res1,
        "snake_dual_side": res2,
    })
    return report


def compact_structure_from_duality(D) -> CompactStructure:
    """Degenerate compact structure induced by a duality structure: the
    unit is gamma, the co-unit is f."""
    report = verify_compact_structure(D.com, D.com, D.gamma, D.f)
    if not report.ok:
        raise InvalidStructure("duality structure fails the zig-zag identities")
    return CompactStructure(
        obj=D.com, dual_obj=D.com, eta=D.gamma, epsilon=D.f, residuals=report.residuals
    )


def factor_morphism(phi, structure: CompactStructure) -> dict:
    """Represent phi: A -> B as conditioning through the structure: the
    bipartite state (id tensor phi)(eta) combined with the co-unit
    reproduces phi; returns the state, the co-unit, and the residual."""
    A = structure.obj
    n = A.dim
    m = structure.dual_obj.dim
    report = verify_compact_structure(structure.obj, structure.dual_obj, structure.eta, structure.epsilon)
    if not report.ok:
        raise InvalidStructure("compact structure does not verify")
    N = vec_to_matrix(structure.eta, m, n)
    omega_phi_matrix = matmul(N, transpose(phi))  # form over (A', B)
    omega_phi = matrix_to_vec(omega_phi_matrix)
    E = vec_to_matrix(structure.epsilon, n, m)
    # hat(omega_phi): A'-effects -> B; hat(epsilon): A -> A'-effects
    recovered = matmul(transpose(omega_phi_matrix), transpose(E))
    residual = max_abs(sub_matrices(recovered, phi))
    return {
        "omega": omega_phi,
        "co_unit": structure.epsilon,
        "recovered": recovered,
        "residual": residual,
        "ok": residual <= tolerance_for(structure.eta, structure.epsilon, phi),
    }


def check_theory_compact_closed(
    objects: Sequence[Com],
    composites: dict,
) -> dict:
    """Per-object teleportation verdicts over a finite theory.

    composites maps an ordered label pair (X.label, Y.label) to the
    composite hosting states of X tensor Y; the effect side of a protocol
    measuring on (A, B) uses the dual-twin composite designated for that
    ordered pair under key ("effects", A.label, B.label), falling back to
    the state composite.  Every object needs a partner teleportable both
    ways; verdicts carry certificates or an exhaustion report."""
    results = {}
    for A in objects:
        entry = {"compact": False, "partner": None, "certificates": None, "exhausted": []}
        for B in objects:
            ab_states = composites.get((A.label, B.label))
            ba_states = composites.get((B.label, A.label))
            if ab_states is None or ba_states is None:
                continue
            ab_effects = composites.get(("effects", A.label, B.label), ab_states)
            ba_effects = composites.get(("effects", B.label, A.label), ba_states)
            there = find_teleportation(A, B, ab_effects, ba_states)
            if there is None:
                entry["exhausted"].append((A.label, "through", B.label))
                continue
            back = find_teleportation(B, A, ba_effects, ab_states)
            if back is None:
                entry["exhausted"].append((B.label, "through", A.label))
                continue
            entry.update(
                {"compact": True, "partner": B.label, "certificates": (there, back)}
            )
            break
        results[A.label] = entry
    results["theory_compact_closed"] = all(
        results[A.label]["compact"] for A in objects
    )
    return results
