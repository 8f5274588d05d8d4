import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from comcat import hermitian
from comcat.conditioning import (
    co_conditioning_map,
    conditional_state,
    conditioning_adjoint,
    conditioning_map,
    marginals,
    remote_evaluate,
    remote_evaluate_dual,
)
from comcat.errors import NotNonsignalingState, RemoteEvalMismatch, ZeroProbabilityCondition
from comcat.linalg import (
    dot,
    matvec,
    scale_vector,
    swap_matrix,
    tensor_vector,
)
from comcat.models import classical, gbit, maximally_entangled_structure, quantum

CORRELATED = (F(1, 2), F(0), F(0), F(1, 2))


@pytest.fixture(scope="module")
def c2():
    return classical(2)


@pytest.fixture(scope="module")
def qubit():
    return quantum(2)


@pytest.fixture(scope="module")
def phi_plus(qubit):
    return maximally_entangled_structure(2).gamma


def test_product_state_conditioning_is_rank_one(c2):
    alpha, beta = (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))
    omega = tensor_vector(alpha, beta)
    m = conditioning_map(omega, c2, c2)
    for a in [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]:
        assert matvec(m, a) == scale_vector(dot(a, alpha), beta)


def test_correlated_state_conditioning(c2):
    m = conditioning_map(CORRELATED, c2, c2)
    assert matvec(m, (F(1), F(0))) == (F(1, 2), F(0))


def test_not_nonsignaling_rejected(c2):
    with pytest.raises(NotNonsignalingState):
        conditioning_map((F(1), F(0), F(0), F(-1, 4)), c2, c2)


def test_qubit_conditioning_matches_projector_formula(qubit, phi_plus):
    m = conditioning_map(phi_plus, qubit, qubit)
    B = hermitian.basis((2,))
    psi = np.zeros((4, 1), dtype=complex)
    psi[0, 0] = psi[3, 0] = 1 / np.sqrt(2)
    proj = psi @ psi.conj().T
    for k in range(4):
        expected = [
            np.trace(proj @ np.kron(B[k], B[l])).real for l in range(4)
        ]
        got = matvec(m, tuple(1.0 if i == k else 0.0 for i in range(4)))
        # b(hat(omega)(a)) = omega(a, b) with the trace pairing
        assert np.allclose(got, expected, atol=1e-12)


def test_marginals_product(c2):
    alpha, beta = (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))
    omega = tensor_vector(alpha, beta)
    ma, mb = marginals(omega, c2, c2)
    assert ma == alpha and mb == beta


def test_marginals_correlated(c2):
    ma, mb = marginals(CORRELATED, c2, c2)
    assert ma == (F(1, 2), F(1, 2)) and mb == (F(1, 2), F(1, 2))


def test_marginals_phi_plus_partial_trace_oracle(qubit, phi_plus):
    ma, mb = marginals(phi_plus, qubit, qubit)
    psi = np.zeros((4, 1), dtype=complex)
    psi[0, 0] = psi[3, 0] = 1 / np.sqrt(2)
    proj = (psi @ psi.conj().T).reshape(2, 2, 2, 2)
    reduced_b = np.einsum("ijik->jk", proj)
    reduced_a = np.einsum("jiki->jk", proj)
    assert np.allclose(ma, hermitian.coords(reduced_a, (2,)), atol=1e-12)
    assert np.allclose(mb, hermitian.coords(reduced_b, (2,)), atol=1e-12)
    assert np.allclose(ma, hermitian.coords(np.eye(2) / 2, (2,)), atol=1e-12)


def test_marginals_normalized(c2):
    g = gbit()
    rng = random.Random(3)
    from comcat.composites import max_tensor

    M = max_tensor(g, g)
    gens = M.state_cone.generators
    for _ in range(5):
        weights = [F(rng.randint(0, 4)) for _ in gens]
        if all(w == 0 for w in weights):
            continue
        omega = tuple(sum(w * g_[i] for w, g_ in zip(weights, gens)) for i in range(9))
        total = dot(M.unit, omega)
        omega = scale_vector(F(1) / total, omega)
        ma, mb = marginals(omega, g, g)
        assert dot(g.unit, ma) == 1
        assert dot(g.unit, mb) == 1
        assert g.state_cone.member(ma) and g.state_cone.member(mb)


def test_conditional_state_product_no_signaling(c2):
    alpha, beta = (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))
    omega = tensor_vector(alpha, beta)
    for b in [(F(1), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1))]:
        assert conditional_state(omega, b, c2, c2) == alpha


def test_conditional_state_correlated(c2):
    out = conditional_state(CORRELATED, (F(1), F(0)), c2, c2)
    assert out == (F(1), F(0))


def test_conditional_state_zero_probability(c2):
    with pytest.raises(ZeroProbabilityCondition):
        conditional_state(CORRELATED, (F(0), F(0)), c2, c2)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data())
def test_conditional_state_matches_the_exactness_branch(exact, data):
    # On exact and on float data the normalization has the value and the
    # type that the branch on is_exact gave.
    c2 = classical(2)
    entry = (
        st.fractions(0, 3, max_denominator=5)
        if exact
        else st.floats(0, 3).map(lambda x: round(x, 3))
    )
    omega = tuple(data.draw(entry) for _ in range(4))
    b = tuple(data.draw(entry) for _ in range(2))
    try:
        old = oracle.conditional_state(omega, b, c2, c2)
    except ZeroProbabilityCondition:
        with pytest.raises(ZeroProbabilityCondition):
            conditional_state(omega, b, c2, c2)
        return
    new = conditional_state(omega, b, c2, c2)
    assert new == old and [type(x) for x in new] == [type(x) for x in old]


def test_conditional_states_normalized_and_inside(c2):
    g = gbit()
    from comcat.composites import max_tensor

    M = max_tensor(g, g)
    for omega_ray in M.state_cone.generators[:8]:
        total = dot(M.unit, omega_ray)
        omega = scale_vector(F(1) / total, omega_ray)
        for b in g.effect_cone.generators:
            _, mb = marginals(omega, g, g)
            if dot(mb, b) == 0:
                continue
            cond = conditional_state(omega, b, g, g)
            assert dot(g.unit, cond) == 1
            assert g.state_cone.member(cond)


def test_adjoint_is_swap_conditioning(c2):
    g = gbit()
    from comcat.composites import max_tensor

    M = max_tensor(g, g)
    S = swap_matrix(g.dim, g.dim)
    for omega in M.state_cone.generators[:6]:
        swapped = matvec(S, omega)
        assert conditioning_adjoint(omega, g, g) == conditioning_map(
            swapped, g, g, check=False
        )


def test_remote_evaluate_product_case(c2):
    a, b = (F(1), F(0)), (F(1, 2), F(1, 2))
    beta, gamma = (F(1, 4), F(3, 4)), (F(2, 3), F(1, 3))
    alpha = (F(1, 2), F(1, 2))
    f = tensor_vector(a, b)
    omega = tensor_vector(beta, gamma)
    out = remote_evaluate(f, omega, alpha, c2, c2, c2)
    assert out == scale_vector(dot(a, alpha) * dot(b, beta), gamma)


def test_remote_evaluate_classical_teleportation(c2):
    f = scale_vector(F(1, 2), (F(1), F(0), F(0), F(1)))
    omega = CORRELATED
    for alpha in [(F(1), F(0)), (F(1, 3), F(2, 3))]:
        out = remote_evaluate(f, omega, alpha, c2, c2, c2)
        assert out == scale_vector(F(1, 4), alpha)


def test_remote_evaluate_qubit_teleportation(qubit, phi_plus):
    rng = np.random.default_rng(1)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    alpha = hermitian.coords(rho, (2,))
    out = remote_evaluate(phi_plus, phi_plus, alpha, qubit, qubit, qubit)
    assert np.allclose(out, [x / 4 for x in alpha], atol=1e-10)


def test_remote_evaluate_dual_mirrors(c2):
    a, b = (F(1), F(0)), (F(1, 2), F(1, 2))
    beta = (F(1, 4), F(3, 4))
    omega = tensor_vector((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2)))
    f = tensor_vector(a, b)
    out = remote_evaluate_dual(f, omega, beta, c2, c2, c2)
    # omega = alpha0 x gamma0 over (A, C); f = a x b over (C, B)
    expected = scale_vector(dot(a, (F(1, 2), F(1, 2))) * dot(b, beta), (F(2, 3), F(1, 3)))
    assert out == expected


EXACT_MODELS = {"c2": classical(2), "c3": classical(3), "gbit": gbit()}
RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def _dual_outcome(f, omega, beta, A, B, C, evaluate):
    try:
        return repr(evaluate(f, omega, beta, A, B, C))
    except RemoteEvalMismatch:
        return "mismatch"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_remote_evaluate_dual_matches_the_mirrored_contraction_exact(data):
    # A, B, C drawn independently, so the swaps are of non-square forms too.
    A, B, C = (EXACT_MODELS[data.draw(st.sampled_from(sorted(EXACT_MODELS)))] for _ in range(3))
    f = tuple(data.draw(st.lists(RATIONALS, min_size=C.dim * B.dim, max_size=C.dim * B.dim)))
    omega = tuple(data.draw(st.lists(RATIONALS, min_size=A.dim * C.dim, max_size=A.dim * C.dim)))
    beta = tuple(data.draw(st.lists(RATIONALS, min_size=B.dim, max_size=B.dim)))
    expected = _dual_outcome(f, omega, beta, A, B, C, oracle.remote_evaluate_dual)
    assert expected != "mismatch"
    assert _dual_outcome(f, omega, beta, A, B, C, remote_evaluate_dual) == expected


def test_remote_evaluate_dual_matches_the_mirrored_contraction_float(qubit):
    rng = np.random.default_rng(14)
    for _ in range(50):
        f, omega = (tuple(rng.normal(size=16).tolist()) for _ in range(2))
        beta = tuple(rng.normal(size=4).tolist())
        expected = _dual_outcome(f, omega, beta, qubit, qubit, qubit, oracle.remote_evaluate_dual)
        assert expected != "mismatch"
        assert _dual_outcome(f, omega, beta, qubit, qubit, qubit, remote_evaluate_dual) == expected


def test_remote_evaluate_dual_catches_a_swap_that_does_not_transpose(monkeypatch):
    c2, c3 = classical(2), classical(3)
    f = (F(1), F(2), F(3), F(4), F(5), F(6))  # over (C, B) = (c2, c3)
    omega = (F(1), F(0), F(2), F(1), F(0), F(3))  # over (A, C) = (c3, c2)
    beta = (F(1), F(2), F(3))
    remote_evaluate_dual(f, omega, beta, c3, c3, c2)
    monkeypatch.setattr("comcat.conditioning.swap_vector", lambda v, n_a, n_b: tuple(v))
    with pytest.raises(RemoteEvalMismatch):
        remote_evaluate_dual(f, omega, beta, c3, c3, c2)


def _random_effect(rng, model):
    gens = model.effect_cone.generators
    vec = [F(0)] * model.dim
    for g in gens:
        c = F(rng.randint(0, 3), rng.randint(1, 3))
        vec = [v + c * x for v, x in zip(vec, g)]
    # scale into the unit interval against state vertices
    from comcat.com import normalized_state_vertices

    values = [dot(vec, v) for v in normalized_state_vertices(model)]
    top = max(values)
    if top == 0:
        return tuple(vec)
    return tuple(x / top for x in vec)


def _random_state(rng, model):
    gens = model.state_cone.generators
    vec = [F(0)] * model.dim
    while all(v == 0 for v in vec):
        for g in gens:
            c = F(rng.randint(0, 3), rng.randint(1, 3))
            vec = [v + c * x for v, x in zip(vec, g)]
    total = dot(model.unit, vec)
    return tuple(x / total for x in vec)


def test_co_conditioning_effect_bound(c2):
    """For a genuine bipartite effect f, the co-conditioned image of every
    normalized state stays below the target unit."""
    g = gbit()
    from comcat.com import is_effect, normalized_state_vertices
    from comcat.composites import min_tensor

    M = min_tensor(g, g)
    f = scale_vector(F(1, 2), tensor_vector(g.effect_cone.generators[0], g.unit))
    assert M.effect_cone.member(f)
    assert M.effect_cone.member(tuple(u - x for u, x in zip(M.unit, f)))
    f_hat = co_conditioning_map(f, g, g)
    for alpha in normalized_state_vertices(g):
        image = matvec(f_hat, alpha)
        assert is_effect(g, image)


def test_remote_evaluation_identity_random_exact():
    rng = random.Random(77)
    for model in (classical(2), classical(3), gbit()):
        for _ in range(25):
            f = tensor_vector(_random_effect(rng, model), _random_effect(rng, model))
            omega = tensor_vector(_random_state(rng, model), _random_state(rng, model))
            alpha = _random_state(rng, model)
            # raises RemoteEvalMismatch if the two sides ever disagree
            remote_evaluate(f, omega, alpha, model, model, model)
            remote_evaluate_dual(f, omega, alpha, model, model, model)
