from fractions import Fraction as F

import pytest

from comcat.com import Com
from comcat.cones import cone_from_generators, dual_cone
from comcat.errors import UnsupportedKind
from comcat.linalg import identity, matmul, matvec, rank, transpose
from comcat.matching import com_isomorphism, find_order_isomorphism, order_isomorphisms
from comcat.models import classical, gbit, quantum


def test_orthant_isomorphisms_are_scaled_permutations():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    isos = list(order_isomorphisms(orthant, orthant))
    assert isos
    for M, M_inverse in isos:
        assert matmul(M, M_inverse) == identity(2)
        assert rank(M) == 2
        nonzero = [[x != 0 for x in row] for row in M]
        assert sorted(map(tuple, nonzero)) == [(False, True), (True, False)]


def test_square_to_dual_found():
    square = cone_from_generators([(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    diamond = dual_cone(square)
    M = find_order_isomorphism(square, diamond)
    assert M is not None
    for g in square.generators:
        assert diamond.member(matvec(M, g))


def test_symmetric_restriction():
    square = cone_from_generators([(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    diamond = dual_cone(square)
    M = find_order_isomorphism(square, diamond, symmetric=True)
    assert M is not None
    assert M == transpose(M)


def test_mismatched_ray_counts_exhaust():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    square = cone_from_generators([(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    assert find_order_isomorphism(orthant, cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) is None
    triangle3 = cone_from_generators([(1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    assert find_order_isomorphism(square, triangle3) is None


def test_incompatible_cones_exhaust():
    # square and a quadrilateral with no linear self-map onto it
    square = cone_from_generators([(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    skew = cone_from_generators([(3, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -5, 1)])
    M = find_order_isomorphism(square, skew)
    if M is not None:
        # if one exists it must be a genuine order isomorphism
        for g in square.generators:
            assert skew.member(matvec(M, g))


def test_rejects_psd():
    q = quantum(2)
    with pytest.raises(UnsupportedKind):
        list(order_isomorphisms(q.state_cone, q.state_cone))


def test_com_isomorphism_respects_unit():
    iso = com_isomorphism(classical(3), classical(3))
    assert iso is not None
    c3 = classical(3)
    for g in c3.state_cone.generators:
        assert c3.state_cone.member(matvec(iso, g))
    # units pull back exactly
    assert matvec(transpose(iso), c3.unit) == c3.unit


def test_com_isomorphism_distinguishes_models():
    assert com_isomorphism(classical(3), gbit()) is None


def test_com_isomorphism_finds_maps_that_shrink_rays():
    # The unit rows fix the scale of M, so the ray scalings need no floor
    # of 1: the bit with unit (2, 2) is the classical bit with every
    # state halved, in both directions.
    c2 = classical(2)
    doubled = Com("classical2.doubled_unit", c2.state_cone, c2.effect_cone, (2, 2))
    assert com_isomorphism(c2, doubled) == ((F(1, 2), 0), (0, F(1, 2)))
    assert com_isomorphism(doubled, c2) == ((2, 0), (0, 2))
    for A, B in ((c2, doubled), (doubled, c2)):
        M = com_isomorphism(A, B)
        assert matvec(transpose(M), B.unit) == A.unit
