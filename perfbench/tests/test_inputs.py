"""Seeded inputs: determinism, exact inverses, and isomorphism invariants."""

import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import inputs as gen
import workloads
from comcat import hermitian


@pytest.mark.parametrize("n", [2, 3, 6])
def test_unimodular_inverse_is_exact(n):
    for seed in range(20):
        T, T_inv = gen.unimodular(random.Random(seed), n)
        product = [[sum(T[i][k] * T_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_transform_preserves_the_unit_pairing():
    rng = random.Random(7)
    doc = gen.seeded_model(rng, gen.gbit_data())["model"]
    for s in doc["state_cone"]["generators"]:
        assert sum(u * x for u, x in zip(doc["unit"], s)) == 1


def test_polygon_effects_are_tight_facets():
    _, states, effects, _ = gen.polygon_data("hexagon", gen.HEXAGON)
    for h in effects:
        values = [sum(a * b for a, b in zip(h, s)) for s in states]
        assert min(values) == 0 and values.count(0) == 2


def test_isotropic_pr_state_is_normalized_and_nonsignaling():
    omega = gen.isotropic_pr_state(gen.PR_PATTERNS[0], Fraction(3, 4))
    W = [omega[3 * i:3 * i + 3] for i in range(3)]
    assert W[2][2] == 1
    for a in gen.GBIT_EFFECTS:
        for b in gen.GBIT_EFFECTS:
            assert sum(a[i] * W[i][j] * b[j] for i in range(3) for j in range(3)) >= 0


def test_quantum_unit_is_the_trace():
    for d in (2, 3, 4):
        assert tuple(gen.quantum_json(d)["unit"]) == pytest.approx(hermitian.unit_coords((d,)))


def _inputs(name, seed) -> str:
    """Every input of a workload: the files it writes and the data its
    checks close over, with the temporary directory's name taken out."""
    with tempfile.TemporaryDirectory() as d:
        families = workloads.WORKLOADS[name](seed, Path(d))
        files = {p.name: p.read_text() for p in sorted(Path(d).iterdir())}
        cells = [
            c.cell_contents
            for f in families
            for check in f.checks
            for fn in (check.run, check.gate)
            for c in fn.__closure__ or ()
            if not callable(c.cell_contents)
        ]
        text = json.dumps([files, cells], default=repr)
        return text.replace(d, "<workdir>")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    first = _inputs(name, 3)
    assert _inputs(name, 3) == first
    assert _inputs(name, 4) != first


def test_kraus_map_sends_states_to_states():
    basis = hermitian.basis((3,))
    phi = np.array(gen.kraus_map(np.random.default_rng(0), 3, basis))
    rho = gen.random_density(np.random.default_rng(1), 3)
    out = hermitian.matrix(tuple(phi @ np.array(gen.coords(rho, basis))), (3,))
    assert np.linalg.eigvalsh(out)[0] >= -1e-12
