"""Double-description conversion against the brute-force oracle it replaced.

The oracle enumerates every (n-1)-subset of the input rows and keeps the
one-sided primitive kernel normals.  It is exact but exponential, so it
only checks small inputs; larger models are pinned by their known counts.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat.composites import max_tensor, min_tensor
from comcat.cones import _enumerate_facets, cone_from_generators
from comcat.com import Com
from comcat.linalg import dot, rank
from comcat.models import classical, gbit

HEXAGON = [(1, 0, 1), (-1, 0, 1), (1, 1, 1), (0, 1, 1), (0, -1, 1), (-1, -1, 1)]


def brute_force_facets(rays, n) -> tuple:
    """Facet normals of cone(rays) by one elimination per (n-1)-subset.
    Kernels and integer scaling come from the Fraction oracle, so no code
    is shared with the double description under test."""
    if n == 1:
        return (oracle.frac_vector(oracle.primitive(rays[0])),)
    prim = [oracle.primitive(r) for r in rays]
    found = set()
    for subset in combinations(range(len(prim)), n - 1):
        h = oracle.kernel_if_corank_one([prim[i] for i in subset], n)
        if h is None:
            continue
        signs = [dot(h, r) for r in prim]
        if all(s >= 0 for s in signs):
            found.add(h)
        elif all(s <= 0 for s in signs):
            found.add(tuple(-x for x in h))
    return tuple(oracle.frac_vector(h) for h in sorted(found))


@st.composite
def spanning_rays(draw):
    """Integer rows spanning R^n, n in 1..6, with duplicated, positively
    (rationally) scaled and redundant (sum of two rows) extras mixed in."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rays = draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n + 4))
    assume(rank(rays) == n)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rays) - 1))
        j = draw(st.integers(0, len(rays) - 1))
        c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        extra = draw(st.sampled_from([
            rays[i],
            tuple(c * x for x in rays[i]),
            tuple(a + b for a, b in zip(rays[i], rays[j])),
        ]))
        rays.insert(draw(st.integers(0, len(rays))), extra)
    return n, rays


@settings(max_examples=200, deadline=None)
@given(spanning_rays())
def test_double_description_matches_brute_force_both_directions(case):
    n, rays = case
    facets = _enumerate_facets(rays, n)
    assert facets == brute_force_facets(rays, n)
    # Facets -> generators: the facet list spans R^n exactly when
    # cone(rays) is pointed, and then its own conversion must agree too.
    # Long facet lists are left out to keep the oracle's subsets few.
    if n > 1 and len(facets) <= n + 6 and rank(facets) == n:
        assert _enumerate_facets(facets, n) == brute_force_facets(facets, n)


@st.composite
def independent_rows(draw):
    """n independent integer rows in R^n, n in 1..8, in any order, so the
    last pivot d of their elimination takes either sign."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=n, max_size=n))
    assume(rank(rows) == n)
    return n, rows


@settings(max_examples=200, deadline=None)
@given(independent_rows())
@example((2, [(-1, 0), (0, 1)]))  # last pivot d = -1
@example((3, [(0, 2, 1), (1, 0, 0), (0, 1, -1)]))  # d = -3 after a row swap
def test_start_cone_of_independent_rows_matches_brute_force(case):
    # n independent rows: the start cone is the whole answer.
    n, rows = case
    assert _enumerate_facets(rows, n) == brute_force_facets(rows, n)


def test_simplicial_input_matches_brute_force():
    # n rays, no insertion step: the seeded cone is the answer.
    for n in range(2, 7):
        rays = [tuple((-1) ** (i + j) * (j + 1) if j >= i else 0 for j in range(n)) for i in range(n)]
        assert _enumerate_facets(rays, n) == brute_force_facets(rays, n)
        assert len(_enumerate_facets(rays, n)) == n


def _counts(cone):
    return len(cone.generators), len(cone.facets)


def test_gbit_composite_counts():
    g = gbit()
    assert _counts(min_tensor(g, g).state_cone) == (16, 24)
    assert _counts(max_tensor(g, g).state_cone) == (24, 16)
    assert _counts(min_tensor(classical(3), g).state_cone) == (12, 12)


def test_max_gbit_composite_matches_brute_force():
    # 16 local boxes and 8 Popescu-Rohrlich boxes from the 16 product-effect facets.
    cone = max_tensor(gbit(), gbit()).state_cone
    assert cone.generators == brute_force_facets(cone.facets, 9)


def test_hexagon_max_composite_generator_count():
    # Regression count: 36 product-effect facets in dimension 9.  Brute
    # force would need C(36, 8) eliminations.
    state = cone_from_generators(HEXAGON)
    hexagon = Com("hexagon", state, cone_from_generators(state.facets), (0, 0, 1))
    cone = max_tensor(hexagon, hexagon).state_cone
    assert len(cone.facets) == 36
    assert len(cone.generators) == 552
