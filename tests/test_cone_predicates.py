"""Sign-only polyhedral predicates against the LP routes they replaced.

Membership reads facets and strict positivity reads generators, whichever
description a cone was built from; the effect-interval scale reads the
effect cone's facets and the duality check reads generators.  Each is
compared with the LP route (``fraction_oracle``) on cones built from
generators only and from facets only.
"""

from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat.com import _effect_cone_in_dual
from comcat.cones import cone_from_facets, cone_from_generators
from comcat.errors import NotPointed
from comcat.protocols import _effect_interval_max_scale
from test_double_description import spanning_rays


def _pointed(rays):
    """cone(rays), or None when it holds a line."""
    try:
        return cone_from_generators(rays)
    except NotPointed:
        return None


def _one_description(C):
    """Fresh copies of C known by generators only and by facets only."""
    return cone_from_generators(C.generators), cone_from_facets(C.facets)


def _sum(vectors):
    return tuple(map(sum, zip(*vectors)))


@settings(max_examples=80, deadline=None)
@given(spanning_rays(), st.data())
def test_member_and_strict_positivity_match_lp(case, data):
    n, rays = case
    ref = _pointed(rays)
    assume(ref is not None)
    vectors = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4))
    # boundary and interior points of the cone and of its dual
    xs = vectors + list(ref.generators) + [_sum(ref.generators)]
    us = vectors + list(ref.facets) + [_sum(ref.facets)]
    for C in _one_description(ref):
        assert [C.member(x) for x in xs] == [ref.member_by_lp(x) for x in xs]
    for C in _one_description(ref):
        assert [C.strictly_positive(u) for u in us] == [
            oracle.strictly_positive_by_facets(u, ref.facets) for u in us
        ]


@settings(max_examples=60, deadline=None)
@given(spanning_rays(), st.data())
def test_effect_interval_scale_matches_lp(case, data):
    n, rays = case
    ref = _pointed(rays)
    assume(ref is not None)
    unit = _sum(ref.generators)  # interior, as a unit must be
    forms = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4))
    forms += list(ref.generators)
    want = [
        oracle.effect_interval_max_scale_by_generators(r, SimpleNamespace(effect_cone=ref, unit=unit))
        for r in forms
    ]
    for E in _one_description(ref):
        got = [_effect_interval_max_scale(r, SimpleNamespace(effect_cone=E, unit=unit)) for r in forms]
        # None (no positive multiple is an effect) is the LP's optimum 0;
        # the caller refuses both alike.
        assert [c or 0 for c in got] == [c or 0 for c in want]
        assert all(c is None or c > 0 for c in got)


@settings(max_examples=60, deadline=None)
@given(spanning_rays(), st.data())
def test_effect_cone_in_dual_verdict_matches_lp(case, data):
    n, rays = case
    A = _pointed(rays)
    assume(A is not None)
    # the dual cone, plus one effect inside it or one drawn at random,
    # which may be negative on a state
    drawn = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    extra = data.draw(st.sampled_from([_sum(A.facets), drawn]))
    assume(any(extra))
    E = _pointed(list(A.facets) + [extra])
    assume(E is not None)
    want = not oracle.effect_cone_in_dual_by_facets(A, E)
    for A1 in _one_description(A):
        for E1 in _one_description(E):
            assert (not _effect_cone_in_dual(A1, E1)) == want
