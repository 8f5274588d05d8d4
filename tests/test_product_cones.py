"""Composites with a simplicial factor, built by theorem.

When one of the two cones a composite multiplies is simplicial, the min
and max tensor products of those cones coincide, and ``product_cones``
writes both descriptions from the factors'.  The LP route it replaces
(``fraction_oracle.min_tensor``/``max_tensor``) must give the same four
generator and facet tuples, and the new route must solve no LP and
convert no composite cone.

Without a simplicial factor the one product construction takes its LP
branch.  It must solve the oracle's LPs (arguments, results and order)
and give its four tuples, and its output must bear out the theorem that
would let the branch go: the products of the multiplied generators are
the extreme rays of the cone they generate and the facets of its dual.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import cones, lp
from comcat.com import Com, is_saturated, validate_com
from comcat.composites import max_tensor, min_tensor, tensor
from comcat.cones import cone_from_facets, cone_from_generators, dual_cone, product_cones, simplicial
from comcat.linalg import rank, tensor_vector
from comcat.models import classical, gbit, quantum

HEXAGON = [(1, 0, 1), (-1, 0, 1), (1, 1, 1), (0, 1, 1), (0, -1, 1), (-1, -1, 1)]
OCTAHEDRON = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]


def _polytope_model(label, points) -> Com:
    """The cone over a polytope at height one, with its full dual."""
    state = cone_from_generators(points)
    return Com(label, state, dual_cone(state), (0,) * (state.dim - 1) + (1,))


def unsaturated_gbit() -> Com:
    """The square bit with its effect cone shrunk to the cone on 2u + e,
    e running over the four extreme effects: valid, not saturated."""
    g = gbit()
    effects = [tuple(2 * u + x for u, x in zip(g.unit, e)) for e in g.effect_cone.generators]
    return Com("gbit.unsaturated", g.state_cone, cone_from_generators(effects), g.unit)


PARTNERS = {
    "gbit": gbit,
    "gbit.unsaturated": unsaturated_gbit,
    "hexagon": lambda: _polytope_model("hexagon", HEXAGON),
    "octahedron": lambda: _polytope_model("octahedron", OCTAHEDRON),
}


@st.composite
def simplicial_models(draw):
    """A model whose state and effect cones are simplicial on a random
    integer basis B of R^n (n in 1..4), one of the two cones held by its
    facets only: states cone(B) and effects {y : B y >= 0}, or the other
    way round.  The factories read only the cones; the unit is carried."""
    n = draw(st.integers(1, 4))
    basis = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=n, max_size=n))
    assume(rank(basis) == n)
    if draw(st.booleans()):
        state, effect = cone_from_generators(basis), cone_from_facets(basis)
    else:
        state, effect = cone_from_facets(basis), cone_from_generators(basis)
    return Com(f"simplex{n}", state, effect, (1,) * n)


@st.composite
def polytope_models(draw):
    """The cone over a random lattice polytope in [-2, 2]^(d-1) (d in 2..4)
    at height one, with its full dual; interior points are redundant."""
    d = draw(st.integers(2, 4))
    coords = st.tuples(*[st.integers(-2, 2)] * (d - 1))
    points = [(*p, 1) for p in draw(st.lists(coords, min_size=d, max_size=d + 4, unique=True))]
    assume(rank(points) == d)
    return _polytope_model(f"polytope{d}", points)


partners = st.one_of(st.sampled_from(sorted(PARTNERS)).map(lambda name: PARTNERS[name]()), polytope_models())


def _descriptions(AB):
    return (
        AB.label,
        AB.unit,
        AB.composite_kind,
        AB.state_cone.generators,
        AB.state_cone.facets,
        AB.effect_cone.generators,
        AB.effect_cone.facets,
    )


@settings(max_examples=150, deadline=None)
@given(simplicial_models(), partners, st.booleans(), st.sampled_from(["min", "max"]))
def test_composite_with_a_simplicial_factor_equals_the_lp_route(S, P, simplicial_first, kind):
    A, B = (S, P) if simplicial_first else (P, S)
    AB = tensor(A, B, kind)
    for C in (AB.state_cone, AB.effect_cone):  # both written at construction
        assert C._generators is not None and C._facets is not None
    LP = {"min": oracle.min_tensor, "max": oracle.max_tensor}[kind](A, B)
    assert _descriptions(AB) == _descriptions(LP)


def test_product_cones_needs_a_simplicial_polyhedral_factor():
    g, c3, q = gbit(), classical(3), quantum(2)
    assert simplicial(c3.state_cone) and simplicial(cone_from_facets(c3.state_cone.generators))
    assert not simplicial(g.state_cone) and not simplicial(g.effect_cone) and not simplicial(q.state_cone)
    assert product_cones(g.state_cone, g.effect_cone) is None
    assert product_cones(c3.state_cone, q.state_cone) is None
    P, D = product_cones(g.state_cone, c3.state_cone)
    assert (P.generators, P.facets) == (D.facets, D.generators)


def test_unsaturated_partner_separates_min_from_max():
    c2, g = classical(2), unsaturated_gbit()
    assert validate_com(g) == [] and not is_saturated(g)
    assert min_tensor(c2, g).state_cone.generators != max_tensor(c2, g).state_cone.generators


def _count_lps_and_conversions(monkeypatch) -> tuple[list, list]:
    """Record every solve_lp call through any comcat binding, as its
    (arguments, keyword arguments, result), and the dimension of every
    cone conversion."""
    calls, dims = [], []
    original, enumerate_facets = lp.solve_lp, cones._enumerate_facets

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    def converted(rays, n):
        dims.append(n)
        return enumerate_facets(rays, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("comcat") and getattr(module, "solve_lp", None) is original:
            monkeypatch.setattr(module, "solve_lp", counted)
    monkeypatch.setattr(cones, "_enumerate_facets", converted)
    return calls, dims


@pytest.mark.parametrize("kind", ["min", "max"])
@pytest.mark.parametrize("classical_first", [True, False])
def test_classical_gbit_composite_solves_no_lp_and_converts_no_composite(monkeypatch, kind, classical_first):
    c3, g = classical(3), gbit()
    A, B = (c3, g) if classical_first else (g, c3)
    calls, dims = _count_lps_and_conversions(monkeypatch)
    AB = tensor(A, B, kind)
    forced = [len(C.generators) + len(C.facets) for C in (AB.state_cone, AB.effect_cone)]
    assert forced == [24, 24]
    assert calls == [] and AB.dim not in dims
    g2 = gbit()  # the counters are live: the LP route of two square bits
    del calls[:]
    min_tensor(g, g2)
    assert len(calls) == 34


# Pairs of factors that are both non-simplicial, in both orders: their
# composites take the LP branch of the one product construction.
NON_SIMPLICIAL_PAIRS = [
    ("gbit", "gbit"),
    ("hexagon", "gbit"),
    ("gbit", "hexagon"),
    ("gbit.unsaturated", "gbit"),
    ("gbit", "gbit.unsaturated"),
    ("octahedron", "gbit"),
    ("gbit", "octahedron"),
    ("hexagon", "hexagon"),
]


@pytest.mark.parametrize("kind", ["min", "max"])
@pytest.mark.parametrize("pair", NON_SIMPLICIAL_PAIRS, ids="-".join)
def test_composite_without_a_simplicial_factor_equals_the_lp_route(monkeypatch, pair, kind):
    A, B = (PARTNERS[name]() for name in pair)
    calls, _ = _count_lps_and_conversions(monkeypatch)
    AB = tensor(A, B, kind)
    built = calls[:]
    del calls[:]
    LP = {"min": oracle.min_tensor, "max": oracle.max_tensor}[kind](A, B)
    assert built and built == calls  # the same LPs, results and order
    assert _descriptions(AB) == _descriptions(LP)
    # The theorem that lets the LP branch go: P, the cone the products of
    # the multiplied factor cones generate (the states of min, the effects
    # of max), has exactly the products as extreme rays, and its dual,
    # the other side, has them as facets.
    K, L = (A.state_cone, B.state_cone) if kind == "min" else (A.effect_cone, B.effect_cone)
    P, D = (AB.state_cone, AB.effect_cone) if kind == "min" else (AB.effect_cone, AB.state_cone)
    products = tuple(sorted(tensor_vector(k, l) for k in K.generators for l in L.generators))
    assert P.generators == products and D.facets == products
