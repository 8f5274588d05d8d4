"""The exact kernels and the teleportation certificate arithmetic on
integers, against copies of the Fraction code they replaced
(``fraction_oracle``): equal values of equal types, compared by value and
by ``repr`` (which tells a Fraction from an int), on int, Fraction and
mixed entries, zero rows, negative scales and the float fallbacks."""

from fractions import Fraction as F
from math import gcd
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import linalg
from comcat.conditioning import _tripartite_left
from comcat.linalg import inverse, matmul, matrix_to_vec, primitive, transpose
from comcat.protocols import _certificate, _effect_interval_max_scale, _r_form_vector

INTS = st.integers(-6, 6)
FRACTIONS = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
FLOATS = st.builds(lambda k: k / 8, st.integers(-48, 48))
ENTRIES = {
    "int": INTS,
    "fraction": FRACTIONS,
    "mixed": st.one_of(INTS, FRACTIONS),
    "float": st.one_of(INTS, FRACTIONS, FLOATS),
}
KINDS = st.sampled_from(sorted(ENTRIES))


def _same(x, y) -> bool:
    return x == y and repr(x) == repr(y)


@st.composite
def vectors(draw, n=None, kind=None):
    kind = kind or draw(KINDS)
    n = draw(st.integers(0, 6)) if n is None else n
    return tuple(draw(ENTRIES[kind]) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(vectors())
def test_integer_scaling_equals_the_generator_copy(v):
    assert _same(linalg.integer_scaling(v), oracle.integer_scaling(v))
    assert _same(linalg.integer_scaling(list(v)), oracle.integer_scaling(list(v)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(vectors(), st.lists(st.just(0), max_size=4).map(tuple)))
def test_primitive_equals_the_generator_copy(v):
    got = primitive(v)
    assert _same(got, oracle.scaled_primitive(v))
    assert type(got) is tuple and all(type(x) is int for x in got)
    if all(type(x) is int for x in v) and gcd(*v) == 1:  # a primitive int tuple comes back as it is
        assert got is v


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 6), st.booleans(), st.data())
def test_eliminate_equals_the_next_pivot_copy(m, n, reduce, data):
    rows = [data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]
    for i in data.draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=2)) if m else ():
        rows[i] = [0] * n  # zero rows
    old, new = [list(r) for r in rows], [list(r) for r in rows]
    assert linalg._eliminate(new, reduce) == oracle._eliminate(old, reduce)
    assert [list(r) for r in new] == [list(r) for r in old]


@st.composite
def effect_cones(draw, n):
    """A stand-in composite: k integer facet rows and an exact unit."""
    facets = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(draw(st.integers(1, 4))))
    return SimpleNamespace(effect_cone=SimpleNamespace(facets=facets), unit=draw(vectors(n, draw(KINDS))))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(vectors(n), effect_cones(n))))
def test_effect_interval_max_scale_equals_the_ratio_copy(case):
    r_form, composite = case
    assert _same(_effect_interval_max_scale(r_form, composite), oracle.ratio_effect_interval_max_scale(r_form, composite))


def _typed(x, kind, draw):
    """x as an int where it is integral and the kind allows it."""
    if kind == "fraction" or x.denominator != 1:
        return x
    return int(x) if kind == "int" or draw(st.booleans()) else x


@st.composite
def candidate_pairs(draw):
    """(omega, r_hat, n_a, n_b, composite_ab, composite_ba) as the search
    hands them to the normalization: hat(omega) . r_hat is the identity
    (times lam, mostly 1) when hat(omega) has full row rank, the unit can
    make u . omega zero or negative, and the facets mostly face r_hat."""
    n_a = draw(st.integers(1, 3))
    n_b = draw(st.integers(n_a, 3))
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    H = [[draw(ENTRIES[kind]) for _ in range(n_b)] for _ in range(n_a)]
    try:
        lam = draw(st.sampled_from([1, 1, 1, 2, -1]))
        r_hat = matmul(transpose(H), inverse(matmul(H, transpose(H))))
        r_hat = tuple(tuple(_typed(lam * F(x), kind, draw) for x in row) for row in r_hat)
    except linalg.SingularMatrix:
        r_hat = tuple(tuple(draw(ENTRIES[kind]) for _ in range(n_a)) for _ in range(n_b))
    omega = matrix_to_vec(transpose(H))
    composite_ba = SimpleNamespace(unit=draw(vectors(n_a * n_b, kind)))
    composite_ab = draw(effect_cones(n_a * n_b))
    t = oracle.dot(composite_ba.unit, omega)
    r_form = _r_form_vector(r_hat)
    facets = []
    for h in composite_ab.effect_cone.facets:
        if t * oracle.dot(h, r_form) < 0 and draw(st.integers(0, 9)):
            h = tuple(-x for x in h)
        facets.append(h)
    composite_ab.effect_cone.facets = tuple(facets)
    if draw(st.integers(0, 4)) == 0:  # the float fallback
        floats = lambda v: tuple(float(x) for x in v)
        omega, r_hat = floats(omega), tuple(map(floats, r_hat))
        composite_ba.unit = floats(composite_ba.unit)
    return omega, r_hat, n_a, n_b, composite_ab, composite_ba


def _fields(cert):
    return None if cert is None else (cert.omega, cert.r_hat, cert.c, cert.f, cert.residual)


@settings(max_examples=500, deadline=None)
@given(candidate_pairs())
def test_certificate_equals_the_normalization_tail(pair):
    assert _same(_fields(_certificate(*pair)), _fields(oracle.normalized_certificate(*pair)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)), KINDS, KINDS, KINDS, st.data())
def test_tripartite_left_equals_the_fraction_loop(dims, kind_f, kind_omega, kind_alpha, data):
    A, B, C = (SimpleNamespace(dim=n) for n in dims)
    f = data.draw(vectors(A.dim * B.dim, kind_f))
    omega = data.draw(vectors(B.dim * C.dim, kind_omega))
    alpha = data.draw(vectors(A.dim, kind_alpha))
    assert _same(_tripartite_left(f, omega, alpha, A, B, C), oracle._tripartite_left(f, omega, alpha, A, B, C))
