import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import cones, hermitian, lp
from comcat.composites import max_tensor, min_tensor
from comcat.cones import (
    cone_from_facets,
    cone_from_generators,
    cones_equal,
    dual_cone,
    psd_cone,
)
from comcat.errors import DimensionMismatch, NotGenerating, NotPointed
from comcat.linalg import canonical_rays, dot, rank
from comcat.models import classical, gbit

SQUARE_RAYS = [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)]


def test_orthant_from_identity():
    C = cone_from_generators([(1, 0), (0, 1)])
    assert canonical_rays(C.generators) == ((0, 1), (1, 0))
    assert canonical_rays(C.facets) == ((0, 1), (1, 0))


def test_not_pointed():
    with pytest.raises(NotPointed):
        cone_from_generators([(1, 1), (-1, 1), (1, -1), (-1, -1)])


def test_not_generating():
    with pytest.raises(NotGenerating):
        cone_from_generators([(1, 0, 0), (0, 1, 0)])


def test_redundant_generator_removed():
    C = cone_from_generators([(1, 0), (0, 1), (1, 1)])
    assert len(C.generators) == 2


def test_square_cone_facets():
    C = cone_from_generators(SQUARE_RAYS)
    assert len(C.generators) == 4
    assert len(C.facets) == 4
    # Oracle: brute force over all 2-subsets of generators; each facet must
    # be tight on exactly two of the four rays.
    for h in C.facets:
        tight = [g for g in C.generators if dot(h, g) == 0]
        assert len(tight) == 2
        assert rank(tight) == 2
    expected = set()
    for a, b in combinations(C.generators, 2):
        # normal to span(a, b), oriented inward if one-sided
        from comcat.linalg import nullspace, primitive

        ker = nullspace([a, b])
        if len(ker) != 1:
            continue
        h = primitive(ker[0])
        signs = [dot(h, g) for g in C.generators]
        if all(s >= 0 for s in signs):
            expected.add(h)
        elif all(s <= 0 for s in signs):
            expected.add(tuple(-x for x in h))
    assert set(canonical_rays(C.facets)) == expected


def test_member_orthant():
    C = cone_from_generators([(1, 0), (0, 1)])
    assert C.member((1, 2))
    assert not C.member((1, -1))
    with pytest.raises(DimensionMismatch):
        C.member((1, 2, 3))


def test_member_matches_lp_route():
    C = cone_from_generators(SQUARE_RAYS)
    probes = [(0, 0, 1), (1, 1, 1), (2, 0, 1), (3, 0, 1), (0, 0, -1), (1, 0, 0)]
    for p in probes:
        assert C.member(p) == C.member_by_lp(p)


def test_psd_member_hand_eigenvalues():
    C = psd_cone(2)
    x = hermitian.coords(np.array([[1, 2], [2, 1]], dtype=complex), (2,))
    assert not C.member(x)  # eigenvalues 3 and -1
    y = hermitian.coords(np.array([[1, 0], [0, 0]], dtype=complex), (2,))
    assert C.member(y)


def test_dual_orthant_self():
    C = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert cones_equal(dual_cone(C), C)


def test_dual_square_double_dual():
    C = cone_from_generators(SQUARE_RAYS)
    D = dual_cone(C)
    assert canonical_rays(D.generators) == canonical_rays(C.facets)
    assert cones_equal(dual_cone(D), C)


def test_dual_psd_is_the_same_cone():
    C = psd_cone(2)
    D = dual_cone(C)
    assert D.kind == "psd"
    assert cones_equal(C, D)


def test_interior_point():
    C = cone_from_generators([(1, 0), (0, 1)])
    assert C.interior_point() == (1, 1)
    S = cone_from_generators(SQUARE_RAYS)
    assert S.interior_point() == (0, 0, 4)
    for h in S.facets:
        assert dot(h, S.interior_point()) > 0
    Q = psd_cone(2)
    assert Q.interior_point() == (1.0, 1.0, 0.0, 0.0)


def test_member_of_own_generators_and_dual_facets():
    C = cone_from_generators(SQUARE_RAYS)
    for g in C.generators:
        assert C.member(g)
    D = dual_cone(C)
    for h in C.facets:
        assert D.member(h)


def test_cone_from_facets_round_trip():
    C = cone_from_generators(SQUARE_RAYS)
    D = cone_from_facets(C.facets)
    assert canonical_rays(D.generators) == canonical_rays(C.generators)


def test_strictly_positive_both_descriptions():
    gen_cone = cone_from_generators(SQUARE_RAYS)
    assert gen_cone.strictly_positive((0, 0, 1))
    assert not gen_cone.strictly_positive((1, 0, 0))
    facet_cone = cone_from_facets(gen_cone.facets)
    assert facet_cone.strictly_positive((0, 0, 1))
    assert not facet_cone.strictly_positive((1, 0, 0))


def _random_regular_cone(rng, n):
    while True:
        k = rng.randint(n, 8)
        gens = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(k)
        ]
        try:
            return cone_from_generators(gens)
        except (NotPointed, NotGenerating):
            continue


def test_double_dual_ten_cones():
    rng = random.Random(20260808)
    cones = [
        cone_from_generators([tuple(1 if i == j else 0 for j in range(n)) for i in range(n)])
        for n in range(1, 6)
    ]
    cones.append(cone_from_generators(SQUARE_RAYS))
    cones.append(
        cone_from_generators(
            [(2, 0, 1), (1, 2, 1), (-1, 1, 1), (-2, -1, 1), (1, -2, 1)]
        )
    )
    while len(cones) < 10:
        cones.append(_random_regular_cone(rng, rng.choice([3, 4])))
    assert len(cones) == 10
    for C in cones:
        assert cones_equal(dual_cone(dual_cone(C)), C)


def test_pentagon_has_five_rays():
    P = cone_from_generators([(2, 0, 1), (1, 2, 1), (-1, 1, 1), (-2, -1, 1), (1, -2, 1)])
    assert len(P.generators) == 5
    assert len(P.facets) == 5


def test_hermitian_basis_orthonormal():
    for dims in [(2,), (3,), (2, 2)]:
        B = hermitian.basis(dims)
        for i, a in enumerate(B):
            assert np.allclose(a, a.conj().T)
            for j, b in enumerate(B):
                ip = np.trace(a @ b).real
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_hermitian_round_trip():
    rng = np.random.default_rng(7)
    for dims in [(2,), (3,), (2, 2)]:
        d = int(np.prod(dims))
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = (G + G.conj().T) / 2
        x = hermitian.coords(M, dims)
        assert np.allclose(hermitian.matrix(x, dims), M, atol=1e-12)


def test_hermitian_product_basis_tensor_consistency():
    rng = np.random.default_rng(11)
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    A = (G + G.conj().T) / 2
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = (H + H.conj().T) / 2
    xa = hermitian.coords(A, (2,))
    xb = hermitian.coords(B, (2,))
    from comcat.linalg import tensor_vector

    xab = hermitian.coords(np.kron(A, B), (2, 2))
    assert np.allclose(xab, tensor_vector(xa, xb), atol=1e-12)


# -- simplicial inputs make no construction LP ---------------------------


@contextmanager
def _counting_lps():
    """Record every ``solve_lp`` call through any binding in the package."""
    calls = []
    original = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = [m for name, m in sys.modules.items()
             if name.startswith("comcat") and getattr(m, "solve_lp", None) is original]
    for m in bound:
        m.solve_lp = counted
    try:
        yield calls
    finally:
        for m in bound:
            m.solve_lp = original


@st.composite
def simplicial_rows(draw):
    """n independent integer rows in R^n (n in 1..6, entries in [-5, 5]),
    shuffled, each scaled by a positive rational, padded with positively
    scaled duplicates and zero rows: canonically still n rows."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-5, 5)
    basis = draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n))
    assume(rank(basis) == n)
    scale = st.builds(F, st.integers(1, 6), st.integers(1, 6))
    rows = basis + draw(st.lists(st.sampled_from(basis), max_size=3))
    scales = draw(st.lists(scale, min_size=len(rows), max_size=len(rows)))
    rows = [tuple(c * x for x in r) for r, c in zip(rows, scales)]
    rows += [(0,) * n] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


def _same_cone(C, D):
    return (C.kind, C.dim, C._generators, C._facets) == (D.kind, D.dim, D._generators, D._facets)


@settings(max_examples=150, deadline=None)
@given(simplicial_rows())
def test_simplicial_cones_equal_the_lp_construction(rows):
    with _counting_lps() as calls:
        gens = cone_from_generators(rows)
        facets = cone_from_facets(rows)
    assert calls == []
    assert _same_cone(gens, oracle.cone_from_generators(rows))
    assert _same_cone(facets, oracle.cone_from_facets(rows))


def test_classical_models_and_composites_make_no_lp():
    with _counting_lps() as calls:
        classical(4)
        min_tensor(classical(2), classical(3))
        max_tensor(classical(2), classical(3))
    assert calls == []


def test_gbit_still_tests_pointedness(monkeypatch):
    pointed = []
    original = cones._pointed

    def recorded(rays, n):
        pointed.append(len(rays))
        return original(rays, n)

    monkeypatch.setattr(cones, "_pointed", recorded)
    with _counting_lps() as calls:
        gbit()
    assert pointed and calls
