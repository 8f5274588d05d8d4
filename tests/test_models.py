import sys
from fractions import Fraction as F

import numpy as np
import pytest

from comcat import hermitian, lp
from comcat.com import is_saturated, validate_com
from comcat.errors import DegenerateTriple
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
