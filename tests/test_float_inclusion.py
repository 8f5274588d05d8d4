"""Float data has one route through the inclusion checks.

``cones.rays_leaving`` decides an exact map between polyhedral cones on
integer images and every other map as one float batch, whose rows
``cones.rows_outside`` reads under the tolerance: by least facet value
in a polyhedral target.  So a float copy of an exact map gets the exact
verdict whenever no image lies within rounding of a facet without lying
on it, and a float map that is an automorphism up to rounding is
accepted.  ``linalg.is_exact`` reads entry types in one pass and must
agree with the recursive walk of ``fraction_oracle.is_exact``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import linalg
from comcat.com import is_morphism
from comcat.cones import cone_from_generators, rays_leaving
from comcat.errors import InputError, NotGenerating
from comcat.linalg import dot, matvec
from comcat.models import classical, gbit
from test_integer_products import CONES, exact_matrices

FIXED_CONES = {**CONES, "classical2": classical(2).state_cone, "classical4": classical(4).state_cone}
POSITIVE = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))


@st.composite
def polytopes(draw):
    """The cone over 3 to 6 integer points at positive height in R^3 or R^4."""
    n = draw(st.integers(3, 4))
    point = st.tuples(*[st.integers(-3, 3)] * (n - 1), st.integers(1, 3))
    try:
        return cone_from_generators(draw(st.lists(point, min_size=n, max_size=6)))
    except NotGenerating:
        assume(False)


@st.composite
def exact_maps(draw):
    """(M, source, target): M a random exact map, or a positive sum of
    rank-one maps x -> (f.x) t, f a facet of source and t a generator of
    target, which keeps images on facets, or such a sum perturbed."""
    cones = st.one_of(st.sampled_from(list(FIXED_CONES.values())), polytopes())
    source, target = draw(cones), draw(cones)
    kind = draw(st.sampled_from(["random", "positive", "perturbed"]))
    if kind == "random":
        return draw(exact_matrices(target.dim, source.dim)), source, target
    M = [[0] * source.dim for _ in range(target.dim)]
    for _ in range(draw(st.integers(1, 3))):
        t, f = draw(st.sampled_from(target.generators)), draw(st.sampled_from(source.facets))
        c = draw(POSITIVE)
        M = [[m + c * ti * fj for m, fj in zip(row, f)] for row, ti in zip(M, t)]
    if kind == "perturbed":
        E = draw(exact_matrices(target.dim, source.dim))
        M = [[m + e / 20 for m, e in zip(row, e_row)] for row, e_row in zip(M, E)]
    return tuple(map(tuple, M)), source, target


@settings(max_examples=300, deadline=None)
@given(exact_maps())
def test_float_copy_of_an_exact_map_gets_the_exact_verdict(case):
    M, source, target = case
    values = [dot(h, matvec(M, x)) for x in source.generators for h in target.facets]
    assume(all(v == 0 or abs(v) >= Fraction(1, 10**6) for v in values))
    floats = tuple(tuple(float(m) for m in row) for row in M)
    assert list(rays_leaving(floats, source, target)) == list(rays_leaving(M, source, target))


SQUARE_SYMMETRIES = [
    np.array([[c, -s * r, 0], [s, c * r, 0], [0, 0, 1]], dtype=float)
    for c, s in ((1, 0), (0, 1), (-1, 0), (0, -1))
    for r in (1, -1)
]


@pytest.mark.parametrize("seed", range(25))
def test_float_gbit_automorphisms_are_morphisms(seed):
    # Each symmetry of the square, conjugated there and back by a random
    # float basis, carries about 1e-16 of rounding in its entries.
    g, rng = gbit(), np.random.default_rng(seed)
    for S in SQUARE_SYMMETRIES:
        B = rng.normal(size=(3, 3))
        M = np.linalg.inv(B) @ (B @ S @ np.linalg.inv(B)) @ B
        report = is_morphism(tuple(map(tuple, M.tolist())), g, g)
        assert report.ok, report.violations


def test_overflowing_image_is_an_input_error():
    # Every entry is finite, but the image of the generator (1, 1, 1) is not.
    M = ((1e308, 1e308, 0.0), (0.0, 1.0, 0.0), (1e308, 1e308, 1.0))
    with pytest.raises(InputError, match="the polyhedral inclusion check needs finite coordinates"):
        is_morphism(M, gbit(), gbit())


INTS = st.integers(-5, 5)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
FLOATS = st.floats(-4, 4)
ENTRIES = st.sampled_from(
    [INTS, FRACTIONS, st.one_of(INTS, FRACTIONS), st.one_of(INTS, FRACTIONS, FLOATS, FLOATS.map(np.float64))]
)


def _sequences(entries):
    return st.one_of(st.lists(entries, max_size=4), st.lists(entries, max_size=4).map(tuple))


@settings(max_examples=400, deadline=None)
@given(ENTRIES.flatmap(lambda e: st.one_of(e, _sequences(e), _sequences(_sequences(e)))))
def test_is_exact_equals_the_recursive_walk(obj):
    assert linalg.is_exact(obj) == oracle.is_exact(obj)
