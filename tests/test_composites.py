from fractions import Fraction as F

import numpy as np
import pytest

import fraction_oracle as oracle

from comcat import hermitian
from comcat.com import is_saturated, validate_com
from comcat.composites import (
    in_max_cone,
    is_composite,
    max_tensor,
    CompositeCom,
    min_tensor,
    separability_check,
    separating_functional,
    spatial_quantum_composite,
    tensor,
)
from comcat.conditioning import conditioning_map
from comcat.errors import InputError, KindMismatch, MixedKindUnsupported
from comcat.cones import cone_from_generators
from comcat.linalg import canonical_rays, dot, matvec, swap_matrix, tensor_vector
from comcat.models import classical, gbit, quantum, gbit_rotation_structure

import pytest


@pytest.fixture(scope="module")
def c2():
    return classical(2)


@pytest.fixture(scope="module")
def g():
    return gbit()


@pytest.fixture(scope="module")
def gbit_pair_min(g):
    return min_tensor(g, g)


@pytest.fixture(scope="module")
def gbit_pair_max(g):
    return max_tensor(g, g)


def pr_box_state():
    """Normalized extreme nonsignaling state outside the separable cone:
    the form of the rotation isomorphism."""
    return gbit_rotation_structure().gamma


def test_min_classical_pair_is_orthant(c2):
    M = min_tensor(c2, c2)
    assert canonical_rays(M.state_cone.generators) == canonical_rays(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert validate_com(M) == []
    assert M.unit == tuple(F(1) for _ in range(4))


def test_min_gbit_pair_sixteen_generators(gbit_pair_min, g):
    assert len(gbit_pair_min.state_cone.generators) == 16
    assert gbit_pair_min.dim == 9
    assert validate_com(gbit_pair_min) == []


def test_min_classical_nm_is_orthant():
    M = min_tensor(classical(2), classical(3))
    assert canonical_rays(M.state_cone.generators) == canonical_rays(
        tuple(1 if i == j else 0 for j in range(6)) for i in range(6)
    )


def test_classical_min_equals_max(c2):
    m = min_tensor(c2, c2)
    x = max_tensor(c2, c2)
    assert canonical_rays(m.state_cone.generators) == canonical_rays(x.state_cone.generators)
    assert canonical_rays(m.effect_cone.generators) == canonical_rays(x.effect_cone.generators)


def test_classical_gbit_min_equals_max(c2, g):
    m = min_tensor(c2, g)
    x = max_tensor(c2, g)
    assert canonical_rays(m.state_cone.generators) == canonical_rays(x.state_cone.generators)


def test_gbit_min_strictly_inside_max(gbit_pair_min, gbit_pair_max, g):
    pr = pr_box_state()
    assert in_max_cone(pr, g, g)
    assert gbit_pair_max.state_cone.member(pr)
    assert not separability_check(pr, gbit_pair_min)
    s = separating_functional(pr, gbit_pair_min.state_cone.generators)
    assert s is not None
    assert dot(s, pr) > 0
    assert all(dot(s, w) <= 0 for w in gbit_pair_min.state_cone.generators)


def test_max_rejects_psd():
    with pytest.raises(MixedKindUnsupported):
        max_tensor(quantum(2), quantum(2))
    with pytest.raises(MixedKindUnsupported):
        min_tensor(quantum(2), classical(2))


def test_spatial_quantum():
    q = quantum(2)
    QQ = spatial_quantum_composite(q, q)
    assert QQ.dim == 16
    assert QQ.state_cone.hilbert_dims == (2, 2)
    rho = hermitian.coords(np.diag([0.5, 0.5]).astype(complex), (2,))
    sigma = hermitian.coords(np.array([[1, 0], [0, 0]], dtype=complex), (2,))
    assert QQ.state_cone.member(tensor_vector(rho, sigma))
    with pytest.raises(KindMismatch):
        spatial_quantum_composite(q, classical(2))


def test_spatial_entangled_state_in_spatial_and_max():
    q = quantum(2)
    QQ = spatial_quantum_composite(q, q)
    psi = np.zeros((4, 1), dtype=complex)
    psi[0, 0] = psi[3, 0] = 1 / np.sqrt(2)
    proj = psi @ psi.conj().T
    w = hermitian.coords(proj, (2, 2))
    assert QQ.state_cone.member(w)
    assert in_max_cone(w, q, q)
    assert abs(dot(QQ.unit, w) - 1) < 1e-12


def _classically_correlated_qc():
    # (|0><0| (x) e_0 + |1><1| (x) e_1) / 2 over (qubit, classical bit)
    p0, p1 = (hermitian.coords(np.diag(d).astype(complex), (2,)) for d in ([1, 0], [0, 1]))
    return tuple(x / 2 for x in np.add(tensor_vector(p0, (1, 0)), tensor_vector(p1, (0, 1))))


def test_in_max_cone_mixed_kinds(c2):
    q = quantum(2)
    w = _classically_correlated_qc()
    assert in_max_cone(w, q, c2)
    assert not in_max_cone(tuple(-x for x in w), q, c2)


def test_is_composite_min_max(gbit_pair_min, gbit_pair_max, g):
    assert is_composite(gbit_pair_min, g, g) == []
    assert is_composite(gbit_pair_max, g, g) == []


def test_is_composite_violation_named_witness(c2):
    M = min_tensor(c2, c2)
    broken = type(M)(
        label=M.label,
        state_cone=M.state_cone,
        effect_cone=M.effect_cone,
        unit=(F(1), F(1), F(1), F(2)),
        factors=M.factors,
        composite_kind=M.composite_kind,
    )
    out = is_composite(broken, c2, c2)
    assert any("unit" in v for v in out)


def test_unit_multiplicativity(c2, g):
    M = min_tensor(c2, g)
    for a in c2.state_cone.generators:
        for b in g.state_cone.generators:
            lhs = dot(M.unit, tensor_vector(a, b))
            assert lhs == dot(c2.unit, a) * dot(g.unit, b)


def test_separability(c2):
    M = min_tensor(c2, c2)
    alpha = (F(1, 2), F(1, 2))
    beta = (F(1, 4), F(3, 4))
    assert separability_check(tensor_vector(alpha, beta), M)
    mix = tuple(
        F(1, 2) * x + F(1, 2) * y
        for x, y in zip(
            tensor_vector((F(1), F(0)), (F(0), F(1))),
            tensor_vector((F(0), F(1)), (F(1), F(0))),
        )
    )
    assert separability_check(mix, M)


def test_swap_symmetry(c2, g):
    AB = min_tensor(c2, g)
    BA = min_tensor(g, c2)
    S = swap_matrix(c2.dim, g.dim)
    swapped = canonical_rays(matvec(S, w) for w in AB.state_cone.generators)
    assert swapped == canonical_rays(BA.state_cone.generators)


def test_min_inside_custom_inside_max(gbit_pair_min, gbit_pair_max, g):
    for w in gbit_pair_min.state_cone.generators:
        assert gbit_pair_max.state_cone.member(w)
    # a custom composite strictly between: separable states plus one
    # entangled ray, effects the product effects
    from comcat.cones import cone_from_generators
    from comcat.composites import CompositeCom

    pr = pr_box_state()
    custom_states = cone_from_generators(
        list(gbit_pair_min.state_cone.generators) + [pr]
    )
    custom = CompositeCom(
        label="custom",
        state_cone=custom_states,
        effect_cone=gbit_pair_max.effect_cone,
        unit=gbit_pair_max.unit,
        factors=(g, g),
        composite_kind="custom",
    )
    assert validate_com(custom) == []
    assert is_composite(custom, g, g) == []
    for w in gbit_pair_min.state_cone.generators:
        assert custom.state_cone.member_by_lp(w)
    for w in custom.state_cone.generators:
        assert gbit_pair_max.state_cone.member(w)


def test_is_composite_negative_state_names_witness(g, gbit_pair_min):
    from comcat.composites import CompositeCom
    from comcat.cones import cone_from_generators

    # a "state" that pairs negatively with the (1,0,1) x (1,0,1) effect
    bad_vec = tuple(F(-2) if i == 0 else (F(1) if i == 8 else F(0)) for i in range(9))
    bad_states = cone_from_generators(
        list(gbit_pair_min.state_cone.generators) + [bad_vec]
    )
    broken = CompositeCom(
        label="broken",
        state_cone=bad_states,
        effect_cone=gbit_pair_min.effect_cone,
        unit=gbit_pair_min.unit,
        factors=(g, g),
        composite_kind="custom",
    )
    out = is_composite(broken, g, g)
    assert any("negative on the product effect" in v for v in out)


@pytest.mark.parametrize("left", ["c2", "gbit"])
def test_is_composite_lists_the_violations_of_the_loops(left, g):
    # Missing product states and effects, negative states and a wrong unit
    # at once: the messages and their order are those of the loops that
    # formed each product effect again for every state generator.
    A = classical(2) if left == "c2" else g
    mn, mx = min_tensor(A, g), max_tensor(A, g)
    n = A.dim * g.dim
    bad = tuple(tuple(-2 if i == j else (1 if i == n - 1 else 0) for i in range(n)) for j in (0, 2))
    broken = CompositeCom(
        label="broken",
        state_cone=cone_from_generators(mn.state_cone.generators[2:] + bad),
        effect_cone=cone_from_generators(mx.effect_cone.generators[1:]),
        unit=tuple(2 * x for x in mn.unit),
        factors=(A, g),
        composite_kind="custom",
    )
    out = is_composite(broken, A, g)
    assert out == oracle.polyhedral_composite_violations(broken, A, g)
    for kind in ("unit is not", "product state of", "product effect of", "negative on the product effect"):
        assert any(kind in v for v in out)


def test_duality_swap_exact(g):
    mx = max_tensor(g, g)
    mn = min_tensor(g, g)
    eff_model_products = canonical_rays(
        tensor_vector(a, b)
        for a in g.effect_cone.generators
        for b in g.effect_cone.generators
    )
    # max effect cone is generated by the effect products (min of the duals)
    assert canonical_rays(mx.effect_cone.generators) == eff_model_products
    # min effect cone is the full dual of the separable cone (max of the duals)
    assert canonical_rays(mn.effect_cone.facets) == canonical_rays(
        mn.state_cone.generators
    )
    assert is_saturated(mn)
    assert is_saturated(mx)


def test_tensor_dispatch(c2):
    assert tensor(c2, c2, "min").composite_kind == "min"
    assert tensor(c2, c2, "max").composite_kind == "max"
    q = quantum(2)
    assert tensor(q, q, "spatial").composite_kind == "spatial_quantum"


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_non_finite_form_is_an_input_error_in_the_max_cone_check(g, entry):
    # A NaN form used to read as outside the max cone, so conditioning
    # reported a refuted NotNonsignalingState; an infinite one warned.
    omega = (entry,) + (0.0,) * 8
    with pytest.raises(InputError, match="the max-cone check needs finite coordinates"):
        in_max_cone(omega, g, g)
    with pytest.raises(InputError, match="the max-cone check needs finite coordinates"):
        conditioning_map(omega, g, g)


@pytest.mark.parametrize("kind", ["spatial", "min"])
def test_non_finite_composite_unit_is_an_input_error(kind):
    # A NaN unit residual compares False, so the unit check used to pass
    # while validate_com refused the same unit.
    A = quantum(2) if kind == "spatial" else gbit()
    AB = tensor(A, A, kind)
    broken = type(AB)(
        label=AB.label,
        state_cone=AB.state_cone,
        effect_cone=AB.effect_cone,
        unit=(float("nan"),) * AB.dim,
        factors=AB.factors,
        composite_kind=AB.composite_kind,
    )
    with pytest.raises(InputError, match="the composite unit check needs finite coordinates"):
        is_composite(broken, A, A)
