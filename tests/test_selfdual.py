from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from comcat import hermitian
from comcat.com import Com, validate_com
from comcat.cones import cone_from_generators
from comcat.errors import InputError, InvalidStructure, UnsupportedKind
from comcat.linalg import (
    identity,
    inverse,
    matmul,
    matvec,
    max_abs,
    sub_matrices,
    tensor_vector,
    transpose,
)
from comcat.models import (
    builtin_structure,
    classical,
    classical_symmetric_structure,
    gbit,
    gbit_reflection_structure,
    gbit_rotation_structure,
    maximally_entangled_structure,
    quantum,
)
from comcat.selfdual import (
    DualityStructure,
    _inertia,
    build_structure,
    canonical_adjoint,
    check_symmetric_self_duality,
    check_weak_self_duality,
    counit_dual_check,
    dagger_compactness_verdict,
    double_dual_check,
    negative_inertia_count,
    strongly_self_dual,
    strongly_self_dual_model,
    tau_is_identity,
    symmetry_equivalence_report,
    verify_isomorphism_state,
)

ALL_STRUCTURES = None


def builtin_structures():
    global ALL_STRUCTURES
    if ALL_STRUCTURES is None:
        ALL_STRUCTURES = {
            "classical": classical_symmetric_structure(2),
            "rotation": gbit_rotation_structure(),
            "reflection": gbit_reflection_structure(),
            "qubit": maximally_entangled_structure(2),
        }
    return ALL_STRUCTURES


def test_verify_isomorphism_state_classical_correlated():
    c2 = classical(2)
    gamma = (F(1, 2), F(0), F(0), F(1, 2))
    assert verify_isomorphism_state(gamma, c2) == []


def test_verify_isomorphism_state_qubit():
    q = quantum(2)
    D = maximally_entangled_structure(2)
    assert verify_isomorphism_state(D.gamma, q) == []


def test_isomorphism_state_with_a_nan_form_is_an_input_error():
    q = quantum(2)
    gamma = (float("nan"),) + tuple(maximally_entangled_structure(2).gamma[1:])
    with pytest.raises(InputError, match="numerical inverse needs finite entries"):
        verify_isomorphism_state(gamma, q)


def test_verify_isomorphism_state_product_fails():
    c2 = classical(2)
    gamma = tensor_vector((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    out = verify_isomorphism_state(gamma, c2)
    assert any("rank" in v for v in out)


def test_wsd_classical_simplices():
    for n in (2, 3, 4):
        D = check_weak_self_duality(classical(n))
        assert D is not None
        # diagonal conditioning map up to scaling
        gh = D.gamma_hat
        assert all(gh[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def test_wsd_gbit_found():
    D = check_weak_self_duality(gbit())
    assert D is not None


def test_wsd_candidate_inverted_once(monkeypatch):
    # The first candidate is accepted: one inverse verifies the order
    # isomorphism phi and is reused as gamma_hat, verify_isomorphism_state
    # reuses phi (= f_hat) as the inverse of gamma_hat, and the twist
    # check reads the twist's inverse as gamma_hat^T f_hat.
    from comcat import linalg, matching, selfdual

    calls = []

    def counting_inverse(M):
        calls.append(M)
        return linalg.inverse(M)

    monkeypatch.setattr(matching, "inverse", counting_inverse)
    monkeypatch.setattr(selfdual, "inverse", counting_inverse)
    D = check_weak_self_duality(gbit())
    assert D is not None and len(calls) == 1
    assert D.f_hat == linalg.inverse(D.gamma_hat)


def test_symmetric_is_computed_once(monkeypatch):
    from comcat import linalg, selfdual

    D = gbit_reflection_structure()
    calls = []

    def counting_sub_matrices(A, B):
        calls.append(A)
        return linalg.sub_matrices(A, B)

    monkeypatch.setattr(selfdual, "sub_matrices", counting_sub_matrices)
    assert D.symmetric and D.symmetric and D.symmetric
    assert len(calls) == 2  # the gamma_hat and f_hat residuals, once


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.integers(1, 4), st.data())
def test_inertia_matches_the_exactness_branch(exact, n, data):
    # Exact and float f_hat give the verdicts, of the same types, that the
    # branch on DualityStructure.exact() gave.
    entry = (
        st.fractions(-3, 3, max_denominator=4)
        if exact
        else st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 2))
    )
    upper = {(i, j): data.draw(entry) for i in range(n) for j in range(i, n)}
    M = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    D = DualityStructure(com=classical(n), gamma_hat=M, f_hat=M)
    assert strongly_self_dual(D) is oracle.strongly_self_dual(D)
    new, old = negative_inertia_count(D), oracle.negative_inertia_count(D)
    assert new == old and type(new) is type(old)
    pos, zero, neg = _inertia(M)
    assert pos + zero + neg == n and neg == old


def test_ssd_gbit_reflection():
    D = check_symmetric_self_duality(gbit())
    assert D is not None and D.symmetric
    assert tau_is_identity(D)


def test_ssd_classical_diagonal():
    D = check_symmetric_self_duality(classical(2))
    assert D is not None and D.symmetric


def test_search_rejects_psd():
    with pytest.raises(UnsupportedKind):
        check_weak_self_duality(quantum(2))


def _wsd_pentagon_model():
    """Non-saturated pentagonal model that is weakly self-dual by
    construction: the effect cone is a linear image of the state cone
    squeezed inside the dual."""
    pentagon = cone_from_generators(
        [(2, 0, 1), (1, 2, 1), (-1, 1, 1), (-2, -1, 1), (1, -2, 1)]
    )
    u = (F(0), F(0), F(1))
    # phi = mostly the unit direction plus a small faithful copy
    eps = F(1, 20)
    phi = tuple(
        tuple(eps * (1 if i == j else 0) + (u[i] if j == 2 else 0) for j in range(3))
        for i in range(3)
    )
    effect_cone = cone_from_generators([matvec(phi, g) for g in pentagon.generators])
    model = Com("pentagon-wsd", pentagon, effect_cone, tuple(matvec(phi, u)))
    assert validate_com(model) == []
    return model


def test_wsd_pentagon_nonsaturated():
    model = _wsd_pentagon_model()
    assert len(model.state_cone.generators) == 5
    D = check_weak_self_duality(model)
    assert D is not None
    for e in model.effect_cone.generators:
        assert model.state_cone.member(matvec(D.gamma_hat, e))


def test_canonical_adjoint_identity():
    for D in builtin_structures().values():
        n = D.com.dim
        adj = canonical_adjoint(identity(n), D, D)
        assert max_abs(sub_matrices(adj, identity(n))) <= 1e-10


def test_canonical_adjoint_classical_not():
    D = classical_symmetric_structure(2)
    NOT = ((F(0), F(1)), (F(1), F(0)))
    adj = canonical_adjoint(NOT, D, D)
    assert adj == NOT


def test_canonical_adjoint_qubit_is_transpose_conjugation():
    D = maximally_entangled_structure(2)
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(4, 4))
    adj = canonical_adjoint(tuple(map(tuple, phi)), D, D)
    # oracle: conjugation by the transpose superoperator of phi^T
    B = hermitian.basis((2,))
    T = np.array(
        [[hermitian.coords(B[j].T, (2,))[i] for j in range(4)] for i in range(4)]
    )
    expected = T @ phi.T @ T
    assert np.allclose(adj, expected, atol=1e-10)


def test_tau_values():
    s = builtin_structures()
    assert tau_is_identity(s["classical"])
    assert tau_is_identity(s["reflection"])
    assert tau_is_identity(s["qubit"])
    rot = s["rotation"]
    quarter_turn = ((F(0), F(-1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)))
    assert rot.tau == quarter_turn
    g = gbit()
    assert all(g.state_cone.member(matvec(rot.tau, v)) for v in g.state_cone.generators)


def test_double_dual_symmetric_structures():
    s = builtin_structures()
    rng = np.random.default_rng(0)
    for name in ("classical", "reflection"):
        D = s[name]
        n = D.com.dim
        phi = tuple(tuple(F(int(x)) for x in row) for row in rng.integers(-3, 4, (n, n)))
        rep = double_dual_check(phi, D, D)
        assert rep["route_difference"] == 0
        assert rep["involutive_on_this_map"]


def test_double_dual_rotation_projection():
    rot = builtin_structures()["rotation"]
    proj = ((F(1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(1)))
    rep = double_dual_check(proj, rot, rot)
    assert rep["route_difference"] == 0
    assert not rep["involutive_on_this_map"]
    # oracle: phi'' = tau^{-1} phi tau with tau the quarter turn
    tau_m = rot.tau
    expected = matmul(inverse(tau_m), matmul(proj, tau_m))
    assert rep["double_dual"] == expected
    # conjugating the x-projection by a quarter turn gives the y-projection
    assert expected == ((F(0), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def test_double_dual_rotation_identity_map():
    rot = builtin_structures()["rotation"]
    rep = double_dual_check(identity(3), rot, rot)
    assert rep["involutive_on_this_map"]


def test_symmetry_equivalence_trio():
    s = builtin_structures()
    expected = {
        "classical": (True, True, True),
        "rotation": (False, False, False),
        "reflection": (True, True, True),
        "qubit": (True, True, True),
    }
    for name, D in s.items():
        rep = symmetry_equivalence_report(D.com, D)
        assert (rep["i"], rep["ii"], rep["iii"]) == expected[name]
        assert rep["consistent"]
        if name == "rotation":
            assert rep["witness"] is not None


def _condition_i_by_double_dual(D):
    """Condition (i) and its first witness, one double_dual_check per basis map."""
    n = D.com.dim
    one = F(1) if D.exact() else 1.0
    for a, b in product(range(n), repeat=2):
        unit = tuple(tuple(one if (r, c) == (a, b) else one - one for c in range(n)) for r in range(n))
        rep = double_dual_check(unit, D, D)
        if not rep["involutive_on_this_map"]:
            return False, {"basis_map": (a, b), "deviation": rep["deviation_from_identity_behaviour"]}
    return True, None


@pytest.mark.parametrize("name", ["gbit:rotation", "gbit:reflection", "qubit:choi"])
def test_condition_i_matches_double_dual_loop(name):
    D = builtin_structure(name)
    rep = symmetry_equivalence_report(D.com, D)
    assert (rep["i"], rep["witness"]) == _condition_i_by_double_dual(D)


def test_counit_dual_identity_all_structures():
    s = builtin_structures()
    for name, D in s.items():
        rep = counit_dual_check(D)
        assert rep["holds"]
        if D.exact():
            assert rep["residual"] == 0
        else:
            assert rep["residual"] <= 1e-10


def test_strong_self_duality():
    s = builtin_structures()
    assert strongly_self_dual(s["classical"])
    assert not strongly_self_dual(s["reflection"])
    assert negative_inertia_count(s["reflection"]) == 1
    assert strongly_self_dual_model(classical(2))
    assert strongly_self_dual_model(quantum(2))
    assert not strongly_self_dual_model(gbit())


def test_dagger_verdicts():
    s = builtin_structures()
    assert dagger_compactness_verdict([s["classical"], classical_symmetric_structure(3)])[
        "dagger_compact"
    ]
    assert dagger_compactness_verdict([s["qubit"]])["dagger_compact"]
    assert not dagger_compactness_verdict([s["rotation"]])["dagger_compact"]
    assert dagger_compactness_verdict([s["reflection"]])["dagger_compact"]


def test_build_structure_rejects_non_isomorphism():
    c2 = classical(2)
    with pytest.raises(InvalidStructure, match="rank 1 < 2"):
        build_structure(c2, ((F(1), F(1)), (F(1), F(1))))


def test_build_structure_checks_a_supplied_inverse_before_using_it():
    # f_hat stands in for the inverse of gamma_hat in the isomorphism-state
    # check, so a wrong one must be refused first, by its residual.
    c2 = classical(2)
    half = ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert build_structure(c2, half, f_hat=((F(2), F(0)), (F(0), F(2)))).symmetric
    with pytest.raises(InvalidStructure, match="not the inverse"):
        build_structure(c2, half, f_hat=((F(2), F(1)), (F(0), F(2))))


def test_structure_inverse_residuals():
    for D in builtin_structures().values():
        left = matmul(D.f_hat, D.gamma_hat)
        right = matmul(D.gamma_hat, D.f_hat)
        n = D.com.dim
        tol = 0 if D.exact() else 1e-10
        assert max_abs(sub_matrices(left, identity(n))) <= tol
        assert max_abs(sub_matrices(right, identity(n))) <= tol
