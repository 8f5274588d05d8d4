import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from comcat import hermitian
from comcat.com import (
    is_effect,
    is_morphism,
    is_process,
    is_saturated,
    linear_adjoint,
    normalize_morphism,
    normalized_state_vertices,
    process_scale,
    random_positive_map,
    validate_com,
)
from comcat.cones import cone_from_facets, cone_from_generators, dual_cone
from comcat.com import Com
from comcat.errors import InputError, NotAMorphism, ZeroMap
from comcat.linalg import dot, identity, matmul, matvec, transpose
from comcat.models import classical, gbit, quantum


def test_validate_classical_bit():
    assert validate_com(classical(2)) == []


def test_validate_unit_not_strictly_positive():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    bad = Com("bad", orthant, cone_from_generators([(1, 0), (0, 1)]), (F(1), F(0)))
    violations = validate_com(bad)
    assert any("strictly positive" in v for v in violations)


def test_validate_square_model():
    assert validate_com(gbit()) == []
    # unit value on every generator is exactly 1
    g = gbit()
    assert all(dot(g.unit, v) == 1 for v in g.state_cone.generators)


def test_validate_effect_cone_outside_dual():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    bad_effects = cone_from_generators([(1, 0), (-1, 4)])
    bad = Com("bad", orthant, bad_effects, (F(1), F(1)))
    violations = validate_com(bad)
    assert any("negative on state generator" in v for v in violations)


def test_validate_facet_only_effect_cone_names_the_generator_pair():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    bad_effects = cone_from_facets(cone_from_generators([(1, 0), (-1, 4)]).facets)
    violations = validate_com(Com("bad", orthant, bad_effects, (F(1), F(1))))
    assert violations == ["effect generator (-1, 4) is negative on state generator (1, 0)"]


def test_violations_are_collected_not_fail_fast():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    bad = Com("bad", orthant, cone_from_generators([(1, 0), (-1, 4)]), (F(1), F(0)))
    assert len(validate_com(bad)) >= 2


def test_saturation():
    assert is_saturated(classical(2))
    assert is_saturated(quantum(2))
    assert is_saturated(gbit())
    # shrink the dual square halfway toward the unit: regular, strictly
    # inside the dual, still contains the unit
    g = gbit()
    shrunk = cone_from_generators(
        [
            tuple(F(1, 2) * x + F(1, 2) * u for x, u in zip(d, g.unit))
            for d in g.effect_cone.generators
        ]
    )
    sub = Com("sub", g.state_cone, shrunk, g.unit)
    assert validate_com(sub) == []
    assert not is_saturated(sub)


def test_exact_scales_stay_fractions_on_an_integer_unit():
    # integer generators and an integer unit: a bare x / s would be a float
    states = cone_from_generators([(1, 2), (2, 1)])
    com = Com("ints", states, dual_cone(states), (1, 1))
    assert validate_com(com) == []
    vertices = normalized_state_vertices(com)
    assert vertices == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))
    assert all(type(x) is F for v in vertices for x in v)
    scale = process_scale(((1, 0), (0, 0)), com, com)
    assert type(scale) is F and scale == F(2, 3)


def test_is_morphism_identity():
    for model in (classical(2), classical(3), gbit()):
        assert is_morphism(identity(model.dim), model, model).ok


def test_is_morphism_qubit_transpose():
    q = quantum(2)
    B = hermitian.basis((2,))
    n = 4
    phi = tuple(
        tuple(hermitian.coords(B[j].T, (2,))[i] for j in range(n)) for i in range(n)
    )
    rep = is_morphism(phi, q, q)
    assert rep.ok and rep.sampled


def test_is_morphism_negative_certificate():
    c2 = classical(2)
    phi = ((F(-1), F(0)), (F(0), F(1)))
    rep = is_morphism(phi, c2, c2)
    assert not rep.ok
    assert any("(1, 0)" in v for v in rep.violations)


def _qubit_measurement():
    # Rows are the functionals rho -> <i|rho|i>, i.e. coords of |i><i|.
    return tuple(
        hermitian.coords(np.diag([1.0 - i, float(i)]).astype(complex), (2,)) for i in range(2)
    )


def test_is_morphism_quantum_to_classical():
    q, c2 = quantum(2), classical(2)
    assert is_morphism(((0,) * 4,) * 2, q, c2).ok
    assert is_morphism(_qubit_measurement(), q, c2).ok


def test_is_morphism_quantum_to_classical_negative():
    # Not positive: reported as violations on both sides, not raised.
    negated = tuple(tuple(-x for x in row) for row in _qubit_measurement())
    rep = is_morphism(negated, quantum(2), classical(2))
    assert not rep.ok and rep.sampled
    assert any("adjoint image of effect generator" in v for v in rep.violations)


@pytest.mark.parametrize("entry", ["nan map", "inf diagonal"])
def test_non_finite_quantum_morphism_is_an_input_error(entry):
    # The least eigenvalue of a NaN image is NaN, which is not below -tol,
    # so the spectral check used to accept the map.
    if entry == "nan map":
        phi = ((float("nan"),) * 4,) * 4
    else:
        phi = tuple(tuple(float("inf") if i == j else 0.0 for j in range(4)) for i in range(4))
    q = quantum(2)
    with pytest.raises(InputError, match="PSD inclusion check needs finite coordinates"):
        is_morphism(phi, q, q)
    with pytest.raises(InputError, match="eigenvalue check needs finite coordinates"):
        q.state_cone.member((float("nan"), 1.0, 0.0, 0.0))


def test_is_process():
    c2 = classical(2)
    assert is_process(identity(2), c2, c2)
    two = ((F(2), F(0)), (F(0), F(2)))
    assert not is_process(two, c2, c2)
    half = ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert is_process(half, c2, c2)


def test_is_process_requires_morphism():
    c2 = classical(2)
    with pytest.raises(NotAMorphism):
        is_process(((F(-1), F(0)), (F(0), F(1))), c2, c2)


def test_normalize_morphism():
    c2 = classical(2)
    two = ((F(2), F(0)), (F(0), F(2)))
    process, M = normalize_morphism(two, c2, c2)
    assert M == 2
    assert process == identity(2)
    process, M = normalize_morphism(identity(2), c2, c2)
    assert M == 1
    with pytest.raises(ZeroMap):
        normalize_morphism(((F(0), F(0)), (F(0), F(0))), c2, c2)


def _kraus_map(K) -> tuple:
    """Coordinates of the completely positive qubit map X -> K X K^dagger."""
    B = hermitian.basis((2,))
    return tuple(
        tuple(float(np.trace(Bk @ K @ Bl @ K.conj().T).real) for Bl in B) for Bk in B
    )


def _types(M) -> list:
    return [type(x) for row in M for x in row]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exact", "float", "quantum"]), st.data())
def test_normalize_morphism_matches_the_kind_branch(case, data):
    # On exact and on float data the scale 1/M has the value and the type
    # that the branch on the source model's kind gave.
    if case == "quantum":
        A = B = quantum(2)
        K = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=8, max_size=8))).view(complex)
        assume(np.abs(K).max() > 0.1)
        phi = _kraus_map(K.reshape(2, 2))
    else:
        A, B = classical(2), classical(3)
        entry = (
            st.fractions(0, 4, max_denominator=6)
            if case == "exact"
            else st.floats(0, 4).map(lambda x: round(x, 3))
        )
        phi = tuple(tuple(data.draw(entry) for _ in range(2)) for _ in range(3))
        assume(any(x != 0 for row in phi for x in row))
    new, old = normalize_morphism(phi, A, B), oracle.normalize_morphism(phi, A, B)
    assert new == old
    assert _types(new[0]) == _types(old[0]) and type(new[1]) is type(old[1])


def test_normalize_scale_is_tight():
    rng = random.Random(5)
    g = gbit()
    for _ in range(10):
        phi = random_positive_map(rng, g, g)
        if all(x == 0 for row in phi for x in row):
            continue
        process, M = normalize_morphism(phi, g, g)
        values = [dot(matvec(transpose(process), g.unit), v) for v in normalized_state_vertices(g)]
        assert max(values) == 1
        assert is_process(process, g, g)


def test_depolarizing_scale_one():
    q = quantum(2)
    u = q.unit
    # rho -> Tr(rho) I/2: rank-one map (I/2) u^T in coordinates
    half_id = hermitian.coords(np.eye(2, dtype=complex) / 2, (2,))
    phi = tuple(tuple(half_id[i] * u[j] for j in range(4)) for i in range(4))
    M = process_scale(phi, q, q)
    assert abs(M - 1) < 1e-12


def test_linear_adjoint_round_trip():
    ms = [identity(3), ((0, 1), (1, 0)), ((F(1, 2), F(2, 3)), (F(3), F(5, 7)))]
    for m in ms:
        assert linear_adjoint(linear_adjoint(m)) == tuple(tuple(r) for r in m)


def test_composition_closure():
    rng = random.Random(11)
    for model in (classical(2), gbit()):
        for _ in range(15):
            phi = random_positive_map(rng, model, model)
            psi = random_positive_map(rng, model, model)
            assert is_morphism(phi, model, model).ok
            assert is_morphism(psi, model, model).ok
            assert is_morphism(matmul(psi, phi), model, model).ok


def test_process_values_in_unit_interval():
    rng = random.Random(13)
    for model in (classical(3), gbit()):
        for _ in range(10):
            phi = random_positive_map(rng, model, model)
            if all(x == 0 for row in phi for x in row):
                continue
            process, _ = normalize_morphism(phi, model, model)
            for v in normalized_state_vertices(model):
                p = dot(model.unit, matvec(process, v))
                assert 0 <= p <= 1


def test_effect_order_interval_both_directions():
    g = gbit()
    u = g.unit
    assert is_effect(g, u)
    assert is_effect(g, tuple(F(0) for _ in range(3)))
    assert is_effect(g, (F(1, 2), F(0), F(1, 2)))
    # in the effect cone but above the unit
    assert not is_effect(g, (F(0), F(0), F(2)))
    # below the unit but not in the effect cone
    assert not is_effect(g, (F(1), F(0), F(0)))


def test_quantum_validate_and_states():
    q = quantum(2)
    assert validate_com(q) == []
    assert dot(q.unit, hermitian.coords(np.eye(2) / 2, (2,))) == pytest.approx(1.0)
    proj = hermitian.coords(np.array([[1, 0], [0, 0]], dtype=complex), (2,))
    assert q.state_cone.member(proj)
    assert dot(q.unit, proj) == pytest.approx(1.0)
