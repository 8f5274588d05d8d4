import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import hermitian, lp
from comcat.com import is_saturated, validate_com
from comcat.errors import ComcatError, DegenerateTriple
from comcat.linalg import canonical_rays, dot, matvec
from comcat.matching import com_isomorphism
from comcat.models import (
    builtin,
    builtin_structure,
    classical,
    classical_as_mackey,
    from_mackey,
    gbit,
    mackey_triple,
    maximally_entangled_structure,
    pauli_fragment_triple,
    quantum,
    structure_variants,
)
from comcat.selfdual import tau_is_identity


def test_classical_models():
    triv = classical(1)
    assert triv.dim == 1 and validate_com(triv) == []
    assert triv.unit == (F(1),)
    bit = classical(2)
    assert validate_com(bit) == [] and is_saturated(bit)
    trit = classical(3)
    assert len(trit.state_cone.generators) == 3
    assert validate_com(trit) == []


def test_quantum_model():
    q = quantum(2)
    assert q.dim == 4
    assert validate_com(q) == []
    assert is_saturated(q)
    # normalized states fill the Bloch ball: radius <= 1 inside, > 1 outside
    for r, inside in [(0.5, True), (0.999, True), (1.001, False), (2.0, False)]:
        rho = np.array([[1 + r, 0], [0, 1 - r]]) / 2
        x = hermitian.coords(rho.astype(complex), (2,))
        assert q.state_cone.member(x) is inside
    proj = hermitian.coords(np.array([[1, 0], [0, 0]], dtype=complex), (2,))
    assert q.state_cone.member(proj)
    eigs = hermitian.eigenvalues(proj, (2,))
    assert np.allclose(sorted(eigs), [0, 1], atol=1e-12)


def test_gbit_model():
    g = gbit()
    assert validate_com(g) == []
    assert len(g.state_cone.generators) == 4
    assert is_saturated(g)
    assert canonical_rays(g.effect_cone.generators) == canonical_rays(
        [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    )
    verts = [tuple(x / dot(g.unit, v) for x in v) for v in g.state_cone.generators]
    assert len(set(verts)) == 4


def test_builtin_registry():
    assert builtin("classical2").label == "classical2"
    assert builtin("qubit").label == "quantum2"
    assert builtin("gbit").label == "gbit"
    assert builtin("quantum3").dim == 9
    with pytest.raises(KeyError):
        builtin("nonsense")


def test_builtin_structures():
    assert builtin_structure("classical2:symmetric").symmetric
    assert builtin_structure("gbit:rotation").symmetric is False
    assert builtin_structure("gbit:reflection").symmetric
    assert builtin_structure("qubit:choi").symmetric


STRUCTURE_NAMES = ["classical1", "classical2:symmetric", "classical3", "gbit", "gbit:rotation",
                   "gbit:reflection", "qubit", "qubit:choi", "quantum3:choi"]


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_builtin_structures_are_built_once(name):
    assert builtin_structure(name) is builtin_structure(name)
    assert builtin(name.partition(":")[0]) is builtin(name.partition(":")[0])


@pytest.mark.parametrize(
    "name", ["classical_bit", "classical", "classical2x", "quantum_pair", "quantum", "qubit:symmetric",
             "gbit:choi", "classical2:choi", "square"]
)
def test_unknown_builtin_structure_names_raise_key_error(name):
    with pytest.raises(KeyError):
        builtin_structure(name)


def test_repeated_builtin_structure_solves_no_lp(monkeypatch):
    builtin_structure("gbit:reflection")
    calls = []
    original = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("comcat") and getattr(module, "solve_lp", None) is original:
            monkeypatch.setattr(module, "solve_lp", counted)
    builtin_structure("gbit:reflection")
    assert calls == []
    gbit()  # the counter is live: a fresh square bit solves construction LPs
    assert calls


def test_maximally_entangled_structure():
    D = maximally_entangled_structure(2)
    assert D.symmetric
    assert tau_is_identity(D)
    # normalization: the form evaluates to one on the unit pair
    q = quantum(2)
    G = np.array(D.gamma, dtype=float).reshape(4, 4)
    u = np.array(q.unit, dtype=float)
    assert abs(u @ G @ u - 1) < 1e-12
    # gamma_hat sends the unit to the maximally mixed state
    mixed = hermitian.coords(np.eye(2) / 2, (2,))
    assert np.allclose(matvec(D.gamma_hat, q.unit), mixed, atol=1e-12)
    assert D.residuals["inverse"] <= 1e-10


def test_mackey_identity_table_is_classical_bit():
    com = from_mackey(classical_as_mackey(2))
    assert com.dim == 2
    assert canonical_rays(com.state_cone.generators) == canonical_rays([(1, 0), (0, 1)])
    assert com.unit == (F(1), F(1))


def test_mackey_single_state():
    triple = mackey_triple(["x"], ["s"], [[F(1, 2)]])
    com = from_mackey(triple)
    assert com.dim == 1


def test_mackey_round_trip_classical3():
    com = from_mackey(classical_as_mackey(3))
    target = classical(3)
    iso = com_isomorphism(com, target)
    assert iso is not None


def test_mackey_pauli_fragment():
    com = from_mackey(pauli_fragment_triple())
    assert com.dim == 3
    assert len(com.state_cone.generators) == 4
    assert validate_com(com) == []
    # the + and - y states merge into one interior column
    assert com.label.startswith("mackey")


def test_mackey_degenerate():
    # two statistically identical states merge into a single-state model
    triple = mackey_triple(["x"], ["s", "t"], [[F(1, 2), F(1, 2)]])
    com = from_mackey(triple)
    assert com.dim == 1
    # a state with zero fingerprint admits no unit functional
    with pytest.raises(DegenerateTriple):
        from_mackey(mackey_triple(["x"], ["s", "t"], [[F(1, 2), F(0)]]))


def test_mackey_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        mackey_triple(["x"], ["s"], [[F(3, 2)]])


@pytest.mark.parametrize("model", ["gbit", "classical3", "qubit", "quantum3"])
def test_builtin_structures_are_the_listed_variants(model):
    variants = structure_variants(model)
    assert builtin_structure(model).gamma == builtin_structure(f"{model}:{variants[0]}").gamma
    for variant in variants:
        assert builtin_structure(f"{model}:{variant}").com.label == builtin(model).label


_PROBABILITY = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)])


@st.composite
def probability_tables(draw):
    """Tables of 0-2 measurements with 2-3 outcomes each.  The base columns
    are a distribution per measurement, so a unit exists; duplicate, zero
    and arbitrary columns are mixed in, and a zero column (and mostly an
    arbitrary one) leaves no unit.  With no measurement the table has no
    outcome."""
    sizes = draw(st.lists(st.integers(2, 3), max_size=2))
    n = sum(sizes)

    def distribution(k):
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return [F(w, sum(weights)) for w in weights]

    cols = [sum((distribution(k) for k in sizes), []) for _ in range(draw(st.integers(0, 5)))]
    if cols:
        cols += draw(st.lists(st.sampled_from(cols), max_size=2))
    cols += [[F(0)] * n] * draw(st.integers(0, 1))
    cols += draw(st.lists(st.lists(_PROBABILITY, min_size=n, max_size=n), max_size=1))
    cols = draw(st.permutations(cols))
    return mackey_triple(range(n), range(len(cols)), [[c[x] for c in cols] for x in range(n)])


def _linearized(from_mackey, triple):
    try:
        com = from_mackey(triple)
    except ComcatError as exc:
        return type(exc), str(exc)
    return (
        com.label,
        com.state_cone.generators,
        com.effect_cone.generators,
        com.unit,
        tuple(map(type, com.unit)),
    )


@settings(max_examples=200, deadline=None)
@given(probability_tables())
def test_from_mackey_equals_the_solve_per_column_oracle(triple):
    assert _linearized(from_mackey, triple) == _linearized(oracle.from_mackey, triple)
