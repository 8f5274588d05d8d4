"""Teleportation discovery, compact-structure verification, and the
factorization of morphisms through remote evaluation.

A teleportation certificate for sending A through B consists of a shared
normalized state omega of the (B, A) composite, a positive map r_hat from
A into B's effect space with hat(omega) . r_hat = id_A, and the largest
positive scale c for which the induced bipartite form c * r_hat is an
effect of the designated (A, B) composite.  The joint search over
(omega, r_hat) is bilinear, so it runs over two streams of exact
candidate pairs, taken in order:

  stage 1: omega ranges over the extreme rays of the composite state
           cone (pure shared states; covers PR-box style witnesses),
           with an LP for r_hat;
  stage 2: r_hat ranges over injective matchings from extreme rays of
           A's state cone into extreme rays of B's effect cone, with an
           LP for omega inside the composite cone (covers classically
           correlated witnesses, which are not pure).

Each LP's equality rows fix hat(omega) . r_hat = id_A exactly, so a pair
only needs normalizing: omega / t and t * r_hat with t = u . omega.
Both stages are deterministic; exhaustion of both is reported, not
proven complete.  Past the ray matching's bound on B's effect rays,
stage 2 refuses (``UnsupportedKind``) instead of exhausting.  Stage 1's
positivity rows do not depend on the ray, so each search builds them once.

The certificate arithmetic of the search and of ``verify_teleportation``
is fraction-free on exact data: each vector or matrix is scaled once to
integers (``integer_scaling``), the identity residual is one integer
product compared with s t I, the effect scale compares the integer
ratios h.u / h.r_form by cross-multiplication, and each quantity is
divided once at the end (``_quotient``), with the type the Fraction
arithmetic gave it.  Float data keeps the loops over ``matmul`` and
``dot``.  Every other residual is ``linalg.deviation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from . import hermitian
from .com import Com
from .composites import CompositeCom, in_max_cone
from .cones import POLYHEDRAL, PSD, rays_leaving
from .config import numeric_tolerance, tolerance_for
from .errors import InvalidStructure, MixedKindUnsupported, UnsupportedKind
from .linalg import (
    deviation,
    dot,
    identity,
    integer_rows,
    integer_scaling,
    is_exact,
    matmul,
    matrix_to_vec,
    matvec,
    scale_matrix,
    scale_vector,
    tensor_vector,
    transpose,
    vec_to_matrix,
)
from .lp import eq, ge, solve_lp
from .matching import ray_matchings

_SEARCH = "the teleportation search"


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
    multiple of r_form is an effect) or none is positive.

    Exact data reads every ratio in integers: with r_form = r / s and
    u = v / t, h.u / h.r_form = (h.v s) / (h.r t), the ratios h.v / h.r
    are compared by cross-multiplication and the least becomes one
    Fraction.  Float data keeps the Fraction and float loop."""
    facets = composite_ab.effect_cone.facets
    u = composite_ab.unit
    if not is_exact((r_form, u)):
        dens = matvec(facets, r_form)
        if any(den < 0 for den in dens):
            return None
        ratios = [Fraction(dot(h, u)) / den for h, den in zip(facets, dens) if den > 0]
        return min(ratios, default=None)
    s, r = integer_scaling(r_form)
    t, v = integer_scaling(u)
    least = None  # (h.v, h.r) of the least ratio so far
    for h in facets:
        den = dot(h, r)
        if den < 0:
            return None
        if den > 0:
            num = dot(h, v)
            if least is None or num * least[1] < least[0] * den:
                least = num, den
    return None if least is None else Fraction(least[0] * s, least[1] * t)


def _solve_r_hat(omega_hat, n_a: int, n_b: int, positivity: list) -> Optional[tuple]:
    """LP for a positive r_hat: A -> B-effects with omega_hat . r_hat = id;
    ``positivity`` holds the rows (r_hat g).h >= 0 on A's state generators."""
    nvars = n_b * n_a  # entries of r_hat, row-major
    cons = []
    for i in range(n_a):
        for j in range(n_a):
            row = [0] * nvars
            for t in range(n_b):
                row[t * n_a + j] = omega_hat[i][t]
            cons.append(eq(row, 1 if i == j else 0))
    res = solve_lp(nvars, cons + positivity)
    if res.status != "optimal":
        return None
    flat = res.x
    return tuple(tuple(flat[t * n_a + s] for s in range(n_a)) for t in range(n_b))


def _candidate_omegas_stage1(A: Com, B: Com, composite_ba: CompositeCom):
    """(omega, r_hat) pairs from the pure shared states (extreme rays of the
    composite state cone), solving an exact LP for r_hat.  The positivity
    rows (r_hat g).h >= 0, one for each generator g of A's state cone and
    facet h of B's effect cone (the row-major outer product of h and g),
    are the same for every ray and built once."""
    facets = B.effect_cone.facets
    positivity = [ge([ht * gs for ht in h for gs in g], 0) for g in A.state_cone.generators for h in facets]
    for ray in composite_ba.state_cone.generators:
        r_hat = _solve_r_hat(transpose(vec_to_matrix(ray, B.dim, A.dim)), A.dim, B.dim, positivity)
        if r_hat is not None:
            yield ray, r_hat


def _candidate_omegas_stage2(A: Com, B: Com, composite_ba: CompositeCom):
    """(omega, r_hat) pairs from injective ray matchings A-states -> B-effects,
    solving an exact LP for omega in the composite cone."""
    a_rays = A.state_cone.generators
    b_rays = B.effect_cone.generators
    gens_ba = composite_ba.state_cone.generators
    for r_hat in ray_matchings(a_rays, b_rays, B.dim, A.dim, _SEARCH, B.label):
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
    # so the k generators' W^T, stacked, times r_hat give every row at once.
    products = matmul([col for g in gens_ba for col in transpose(vec_to_matrix(g, n_b, n_a))], r_hat)
    for i in range(n_a):
        for j in range(n_a):
            row = [products[g * n_a + i][j] for g in range(k)]
            cons.append(eq(row, 1 if i == j else 0))
    mu = solve_lp(k, cons, nonneg=[True] * k)
    if mu.status != "optimal":
        return None
    return matvec(transpose(gens_ba), mu.x)


def find_teleportation(
    A: Com, B: Com, composite_ab: CompositeCom, composite_ba: CompositeCom
) -> Optional[TeleportationCertificate]:
    """Search for a conclusive correction-free protocol sending A through B.

    composite_ba hosts the shared state; composite_ab hosts the measured
    effect.  Returns the first certificate in deterministic stage order, or
    None when both stages exhaust.  ``UnsupportedKind`` refuses a quantum
    model at once, and a B past the ray matching's bound after stage 1."""
    for X in (A, B):
        if X.kind != POLYHEDRAL:
            raise UnsupportedKind(f"{_SEARCH} is exact-only, and {X.label} is {X.kind}")
    candidates = chain(
        _candidate_omegas_stage1(A, B, composite_ba), _candidate_omegas_stage2(A, B, composite_ba)
    )
    for omega, r_hat in candidates:
        cert = _certificate(omega, r_hat, A.dim, B.dim, composite_ab, composite_ba)
        if cert is not None:
            return cert
    return None


def _certificate(omega, r_hat, n_a: int, n_b: int, composite_ab, composite_ba):
    """The certificate of one candidate pair, or None.  The LP's equality
    rows made hat(omega) . r_hat = id_A, so with t = u . omega the
    normalized pair is (omega / t, t * r_hat)."""
    t = _dot(composite_ba.unit, omega)
    if t == 0:
        return None
    omega_n = scale_vector(Fraction(1) / t, omega)
    r_scaled = scale_matrix(t, r_hat)
    residual = _identity_residual(omega_n, r_scaled, n_a, n_b)
    if residual > tolerance_for(omega_n, r_scaled):
        return None
    r_form = _r_form_vector(r_scaled)
    c = _effect_interval_max_scale(r_form, composite_ab)
    if c is None or c <= 0:
        return None
    return TeleportationCertificate(
        omega=omega_n,
        r_hat=r_scaled,
        c=c,
        f=scale_vector(c, r_form),
        residual=residual,
        composite_ab=composite_ab,
        composite_ba=composite_ba,
    )


def _identity_residual(omega, r_hat, n_a: int, n_b: int):
    """Max-abs entry of hat(omega) . r_hat - id_A.  Exact data is one
    integer product: omega and r_hat scaled once to integers (s omega,
    t r_hat), their product compared with s t I, and the largest
    deviation divided once (``_quotient``).  Float data takes ``matmul``
    and ``deviation``."""
    if not is_exact((omega, *r_hat)):
        omega_hat = transpose(vec_to_matrix(omega, n_b, n_a))
        return deviation(matmul(omega_hat, r_hat), identity(n_a))
    s, omega_ints = integer_scaling(omega)
    t, r_ints = integer_rows(r_hat)
    st = s * t
    cols = list(zip(*r_ints))
    worst = max(
        abs(dot(row, col) - (st if i == j else 0))
        for i, row in enumerate(transpose(vec_to_matrix(omega_ints, n_b, n_a)))
        for j, col in enumerate(cols)
    )
    return _quotient(worst, st, (omega, *r_hat))


def _dot(x, y):
    """x . y.  Exact vectors are scaled once each to integers and give one
    integer dot product, divided once (``_quotient``); float data takes
    ``dot``."""
    if not is_exact((x, y)):
        return dot(x, y)
    (s, xs), (t, ys) = integer_scaling(x), integer_scaling(y)
    return _quotient(dot(xs, ys), s * t, (x, y))


def _quotient(num: int, den: int, data):
    """num / den for integers read off the exact vectors of data, typed as
    their own arithmetic would type it: the int num when every entry is an
    int (den is then 1), else one Fraction."""
    return num if all(set(map(type, x)) <= {int} for x in data) else Fraction(num, den)


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

    # shared state: in the composite cone (or spectral cone), normalized
    if composite_ba is not None:
        if not composite_ba.state_cone.member(omega):
            violations.append("shared state is outside the designated composite cone")
        u_ba = composite_ba.unit
    else:
        u_ba = tensor_vector(B.unit, A.unit)
        if not in_max_cone(omega, B, A):
            violations.append("shared state is not nonsignaling-positive")
    tol = tolerance_for(omega, r_hat, u_ba)
    norm = _dot(u_ba, omega)
    if abs(norm - 1) > tol:
        violations.append(f"shared state has normalization {norm}")

    # positivity of r_hat on the probe rays of A's state cone
    g = next(rays_leaving(r_hat, A.state_cone, B.effect_cone, seed=6), None)
    if g is not None:
        violations.append(f"r_hat image of state generator {g} leaves the effect cone")

    # identity equation
    res_id = residuals["identity"] = _identity_residual(omega, r_hat, n_a, n_b)
    if res_id > tol:
        violations.append(f"hat(omega) . r_hat deviates from the identity by {res_id}")

    # effect interval for f = c * r_form
    r_form = _r_form_vector(r_hat)
    f = scale_vector(c, r_form)
    if cert.f is not None:
        res_f = residuals["f_consistency"] = deviation(f, cert.f)
        if len(cert.f) != len(f) or res_f > tolerance_for(f, cert.f):
            violations.append(f"certificate f of length {len(cert.f)} deviates from c * r_form by {res_f}")
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
    snake1 = matmul(eta_hat, eps_hat)
    snake2 = matmul(N, E)
    res1 = deviation(snake1, identity(n))
    res2 = deviation(snake2, identity(m))
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
    residual = deviation(recovered, phi)
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
            # for B = A the way back is the same search
            back = there if B is A else find_teleportation(B, A, ba_effects, ab_states)
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
