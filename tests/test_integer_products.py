"""Exact products over one denominator against the Fraction loop oracle.

``matmul`` and ``matvec`` scale exact operands that hold a Fraction to
integers once (s A and t B, s, t > 0), multiply in Python ints and divide
each result entry by s t once.  ``cones.rays_leaving`` scales an exact map
between polyhedral cones once and tests integer images, and
``protocols._effect_interval_max_scale`` reads every facet product from
one ``matvec``.  Each must give the value the Fraction loops of
``fraction_oracle`` give.  ``integer_rows``, the scaling of every exact
matrix operand, must give what it gave when it flattened the matrix.
"""

from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import cones
from comcat.com import Com
from comcat.composites import max_tensor, min_tensor
from comcat.cones import Cone, cone_from_generators
from comcat.errors import DimensionMismatch
from comcat.linalg import integer_rows, integer_scaling, matmul, matvec, transpose
from comcat.models import classical, gbit
from comcat.protocols import _effect_interval_max_scale
from test_double_description import HEXAGON

INTEGERS = st.integers(-9, 9)
FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
ENTRIES = st.one_of(INTEGERS, FRACTIONS)


@st.composite
def exact_matrices(draw, rows=None, cols=None):
    """Up to 6 x 6 ints and Fractions (denominators up to 12), with zero
    rows; some are all ints, some all Fractions."""
    m = rows if rows is not None else draw(st.integers(1, 6))
    n = cols if cols is not None else draw(st.integers(1, 6))
    entries = draw(st.sampled_from([ENTRIES, INTEGERS, FRACTIONS]))
    M = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        M[i] = [draw(st.sampled_from([0, Fraction(0)]))] * n
    return tuple(map(tuple, M))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_match_fraction_loops(data):
    m, k, n = (data.draw(st.integers(1, 6)) for _ in range(3))
    A = data.draw(exact_matrices(m, k))
    B = data.draw(exact_matrices(k, n))
    x = data.draw(exact_matrices(1, k))[0]
    assert matmul(A, B) == oracle.matmul(A, B)
    assert matvec(A, x) == oracle.matvec(A, x)


def test_products_match_fraction_loops_on_edge_cases():
    half = Fraction(1, 2)
    for A, B in [
        (((half,),), ((2,),)),  # the result is an integer
        (((0, 0), (half, -half)), ((Fraction(0), 1), (3, Fraction(-7, 12)))),  # a zero row
        (((1, 2), (3, 4)), ((half, 1), (1, 1))),  # an int factor
        ((), ((half,),)),  # no rows
    ]:
        assert matmul(A, B) == oracle.matmul(A, B)
        for x in B:
            assert matvec(A, x) == oracle.matvec(A, x)
    assert matvec(((half, 1),), (0.5, 1)) == (1.25,)  # a float keeps the loop
    with pytest.raises(DimensionMismatch):
        matvec(((half, 1),), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        matmul(((half, 1),), ((1,), (2,), (3,)))


def _hexagon_cone() -> Cone:
    return cone_from_generators(HEXAGON)


POLYHEDRAL_CONES = {
    "gbit.states": lambda: gbit().state_cone,
    "gbit.effects": lambda: gbit().effect_cone,
    "hexagon": _hexagon_cone,
    "hexagon.dual": lambda: cone_from_generators(_hexagon_cone().facets),
    "classical3": lambda: classical(3).state_cone,
}
CONES = {name: make() for name, make in POLYHEDRAL_CONES.items()}


def _flattened_integer_rows(M):
    """``integer_rows`` as it was: ``integer_scaling`` of the flattened
    matrix, split back into rows."""
    s, flat = integer_scaling([x for row in M for x in row])
    it = iter(flat)
    return s, [list(islice(it, len(row))) for row in M]


@settings(max_examples=300, deadline=None)
@given(st.one_of(exact_matrices(), st.lists(st.lists(ENTRIES, max_size=5).map(tuple), max_size=5).map(tuple)))
def test_integer_rows_scale_each_row_as_the_flattened_matrix(M):
    # ragged and empty matrices too: the flattened form split by row length
    assert repr(integer_rows(M)) == repr(_flattened_integer_rows(M))


@st.composite
def maps_between_cones(draw):
    """(M, source, target) with M a random exact 3 x 3 map, or a random
    positive multiple of the identity or of a generator swap, which keep
    more rays inside."""
    source, target = (CONES[draw(st.sampled_from(sorted(CONES)))] for _ in range(2))
    kind = draw(st.sampled_from(["random", "scaled identity", "scaled permutation"]))
    if kind == "random":
        M = draw(exact_matrices(3, 3))
    else:
        c = draw(st.builds(Fraction, st.integers(1, 30), st.integers(1, 12)))
        perm = (0, 1, 2) if kind == "scaled identity" else (1, 0, 2)
        M = tuple(tuple(c if j == perm[i] else 0 for j in range(3)) for i in range(3))
    return M, source, target


@settings(max_examples=200, deadline=None)
@given(maps_between_cones())
def test_rays_leaving_matches_the_fraction_route(case):
    M, source, target = case
    assert list(cones.rays_leaving(M, source, target)) == oracle.rays_leaving(M, source, target)


def test_rays_leaving_shrunk_identity_keeps_every_ray():
    C = CONES["hexagon"]
    M = tuple(tuple(Fraction(1, 7) if i == j else 0 for j in range(3)) for i in range(3))
    assert list(cones.rays_leaving(M, C, C)) == oracle.rays_leaving(M, C, C) == []
    negated = tuple(tuple(-x for x in row) for row in M)
    assert list(cones.rays_leaving(negated, C, C)) == oracle.rays_leaving(negated, C, C) == list(C.generators)


def test_rays_leaving_hands_member_integer_images():
    seen = []
    member = Cone.member

    def recording_member(self, x):
        seen.append(tuple(map(type, x)))
        return member(self, x)

    M = ((Fraction(1, 2), 0, Fraction(1, 3)), (0, Fraction(2, 3), 0), (Fraction(-1, 6), 0, 1))
    with patch.object(Cone, "member", recording_member):
        for source in CONES.values():
            for target in CONES.values():
                list(cones.rays_leaving(M, source, target))
    assert seen and all(types == (int, int, int) for types in seen)


def _composites() -> dict:
    c2, g = classical(2), gbit()
    hexagon = Com("hexagon", _hexagon_cone(), CONES["hexagon.dual"], (0, 0, 1))
    return {
        "min(c2, c2)": min_tensor(c2, c2),
        "min(c2, gbit)": min_tensor(c2, g),
        "max(gbit, c2)": max_tensor(g, c2),
        "max(c2, hexagon)": max_tensor(c2, hexagon),
    }


COMPOSITES = _composites()


@st.composite
def effect_forms(draw):
    """(r_form, composite): a random exact form, or a nonnegative Fraction
    combination of effect generators, which has a positive scale."""
    composite = COMPOSITES[draw(st.sampled_from(sorted(COMPOSITES)))]
    n = composite.dim
    if draw(st.booleans()):
        return draw(exact_matrices(1, n))[0], composite
    gens = composite.effect_cone.generators
    coefs = draw(st.lists(st.one_of(st.just(0), FRACTIONS.map(abs)), min_size=len(gens), max_size=len(gens)))
    return oracle.matvec(transpose(gens), coefs), composite


@settings(max_examples=200, deadline=None)
@given(effect_forms())
def test_effect_interval_max_scale_matches_the_facet_loop(case):
    r_form, composite = case
    got = _effect_interval_max_scale(r_form, composite)
    want = oracle._effect_interval_max_scale(r_form, composite)
    assert got == want
    assert type(got) is type(want)


def test_effect_interval_max_scale_of_a_generator_sum_is_positive():
    for composite in COMPOSITES.values():
        gens = composite.effect_cone.generators
        r_form = oracle.matvec(transpose(gens), [Fraction(1, 3)] * len(gens))
        got = _effect_interval_max_scale(r_form, composite)
        assert got == oracle._effect_interval_max_scale(r_form, composite) and got > 0
