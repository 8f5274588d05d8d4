import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice, permutations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from comcat import hermitian, lp, matching, protocols, selfdual
from comcat.com import Com, random_positive_map
from comcat.cones import cone_from_generators, dual_cone
from comcat.composites import max_tensor, min_tensor, spatial_quantum_composite
from comcat.errors import InputError, MixedKindUnsupported, UnsupportedKind
from comcat.linalg import identity, inverse, matvec, scale_vector, transpose, vec_to_matrix
from comcat.lp import eq, lp_feasible
from comcat.models import (
    classical,
    classical_symmetric_structure,
    gbit,
    gbit_reflection_structure,
    gbit_rotation_structure,
    maximally_entangled_structure,
    quantum,
)
from comcat.protocols import (
    TeleportationCertificate,
    check_theory_compact_closed,
    compact_structure_from_duality,
    factor_morphism,
    find_teleportation,
    max_effect_scale_psd,
    verify_compact_structure,
    verify_teleportation,
)


@pytest.fixture(scope="module")
def c2():
    return classical(2)


@pytest.fixture(scope="module")
def g():
    return gbit()


@pytest.fixture(scope="module")
def qubit():
    return quantum(2)


@pytest.fixture(scope="module")
def c2_min(c2):
    return min_tensor(c2, c2)


@pytest.fixture(scope="module")
def g_min(g):
    return min_tensor(g, g)


@pytest.fixture(scope="module")
def g_max(g):
    return max_tensor(g, g)


@pytest.fixture(scope="module")
def classical_cert(c2, c2_min):
    return find_teleportation(c2, c2, c2_min, c2_min)


@pytest.fixture(scope="module")
def gbit_cert(g, g_min, g_max):
    # shared state lives in the nonsignaling (max) composite; the measured
    # effect in the dual twin, whose effect cone is the full dual
    return find_teleportation(g, g, g_min, g_max)


def test_classical_teleportation_certificate(classical_cert, c2):
    cert = classical_cert
    assert cert is not None
    assert cert.omega == (F(1, 2), F(0), F(0), F(1, 2))
    assert cert.c == F(1, 2)
    assert cert.residual == 0
    assert verify_teleportation(cert, c2, c2).ok


def test_gbit_teleportation_certificate(gbit_cert, g):
    cert = gbit_cert
    assert cert is not None
    assert cert.residual == 0
    report = verify_teleportation(cert, g, g)
    assert report.ok, report.violations


def test_teleport_through_trivial_is_none(c2):
    triv = classical(1)
    assert find_teleportation(c2, triv, min_tensor(c2, triv), min_tensor(triv, c2)) is None


def test_search_rejects_psd(qubit):
    Q = spatial_quantum_composite(qubit, qubit)
    with pytest.raises(UnsupportedKind):
        find_teleportation(qubit, qubit, Q, Q)


def test_scale_maximality(classical_cert, gbit_cert, c2, g):
    for cert, model in ((classical_cert, c2), (gbit_cert, g)):
        bumped = TeleportationCertificate(
            omega=cert.omega,
            r_hat=cert.r_hat,
            c=cert.c * F(101, 100),
            f=None,
            residual=cert.residual,
            composite_ab=cert.composite_ab,
            composite_ba=cert.composite_ba,
        )
        report = verify_teleportation(bumped, model, model)
        assert not report.ok


def test_wrong_f_is_a_violation(classical_cert, c2):
    wrong = replace(classical_cert, f=(7,) * len(classical_cert.f))
    report = verify_teleportation(wrong, c2, c2)
    assert not report.ok and report.residuals["f_consistency"] == 7
    assert "certificate f of length 4 deviates from c * r_form by 7" in report.violations


def qubit_certificate(c=F(1, 4)):
    q = quantum(2)
    D = maximally_entangled_structure(2)
    QQ = spatial_quantum_composite(q, q)
    return TeleportationCertificate(
        omega=D.gamma,
        r_hat=D.f_hat,
        c=float(c),
        f=scale_vector(float(c), tuple(x for row in zip(*D.f_hat) for x in row)),
        residual=0.0,
        composite_ab=QQ,
        composite_ba=QQ,
    )


def test_qubit_teleportation_verifies(qubit):
    report = verify_teleportation(qubit_certificate(), qubit, qubit)
    assert report.ok, report.violations
    assert report.residuals["identity"] <= 1e-10
    lo, hi = report.residuals["effect_spectrum"]
    assert lo >= -1e-10 and abs(hi - 1.0) <= 1e-9


def test_verify_mixed_kinds_without_composites_refused(c2, qubit):
    # A classical bit through a qubit: the correlated state over (B, A) and
    # the measurement map r_hat(e_i) = |i><i| pass every check up to the
    # effect spectrum, which has no composite to take its dimensions from.
    p = [hermitian.coords(np.diag(d).astype(complex), (2,)) for d in ([1, 0], [0, 1])]
    omega = tuple(np.add(*(np.outer(p[i], np.eye(2)[i]).ravel() for i in range(2))) / 2)
    r_hat = tuple(tuple(2 * p[j][t] for j in range(2)) for t in range(4))
    cert = TeleportationCertificate(omega=omega, r_hat=r_hat, c=1, f=None, residual=0)
    with pytest.raises(MixedKindUnsupported):
        verify_teleportation(cert, c2, qubit)


def test_teleportation_certificate_with_a_nan_r_hat_is_an_input_error(qubit):
    cert = qubit_certificate()
    r_hat = ((float("nan"),) + tuple(cert.r_hat[0][1:]),) + tuple(cert.r_hat[1:])
    bad = TeleportationCertificate(
        omega=cert.omega, r_hat=r_hat, c=cert.c, f=None, residual=0.0,
        composite_ab=cert.composite_ab, composite_ba=cert.composite_ba,
    )
    with pytest.raises(InputError, match="needs finite"):
        verify_teleportation(bad, qubit, qubit)


def test_qubit_overscaled_fails(qubit):
    report = verify_teleportation(qubit_certificate(F(1, 2)), qubit, qubit)
    assert not report.ok
    assert any("above one" in v for v in report.violations)


def test_qubit_maximal_scale_is_inverse_square_dimension(qubit):
    D = maximally_entangled_structure(2)
    c = max_effect_scale_psd(D.f_hat, qubit, qubit)
    assert abs(c - 0.25) <= 1e-9


def test_snake_equations_classical(c2):
    eta = (F(1), F(0), F(0), F(1))
    eps = (F(1), F(0), F(0), F(1))
    report = verify_compact_structure(c2, c2, eta, eps)
    assert report.ok
    assert report.residuals["snake_state_side"] == 0
    assert report.residuals["snake_dual_side"] == 0


def test_snake_equations_gbit(g):
    for D in (gbit_rotation_structure(), gbit_reflection_structure()):
        report = verify_compact_structure(g, g, D.gamma, D.f)
        assert report.ok
        assert report.residuals["snake_state_side"] == 0
        assert report.residuals["snake_dual_side"] == 0


def test_snake_equations_qubit(qubit):
    D = maximally_entangled_structure(2)
    eta = scale_vector(2.0, D.gamma)
    eps = scale_vector(0.5, D.f)
    report = verify_compact_structure(qubit, qubit, eta, eps)
    assert report.ok
    assert report.residuals["snake_state_side"] <= 1e-10
    assert report.residuals["snake_dual_side"] <= 1e-10


def test_snake_misscaled_unit(c2):
    eta = (F(2), F(0), F(0), F(2))
    eps = (F(1), F(0), F(0), F(1))
    report = verify_compact_structure(c2, c2, eta, eps)
    assert not report.ok
    assert report.residuals["snake_state_side"] == 1


def test_factor_identity_recovers_unit(c2):
    D = classical_symmetric_structure(2)
    structure = compact_structure_from_duality(D)
    out = factor_morphism(identity(2), structure)
    assert out["ok"]
    assert out["omega"] == D.gamma


def test_factor_classical_not_gives_anticorrelated(c2):
    D = classical_symmetric_structure(2)
    structure = compact_structure_from_duality(D)
    NOT = ((F(0), F(1)), (F(1), F(0)))
    out = factor_morphism(NOT, structure)
    assert out["ok"]
    assert out["omega"] == (F(0), F(1, 2), F(1, 2), F(0))


def test_factor_qubit_depolarizing_choi_oracle(qubit):
    D = maximally_entangled_structure(2)
    structure = compact_structure_from_duality(D)
    u = qubit.unit
    half_id = hermitian.coords(np.eye(2, dtype=complex) / 2, (2,))
    phi = tuple(tuple(half_id[i] * u[j] for j in range(4)) for i in range(4))
    out = factor_morphism(phi, structure)
    assert out["ok"] and out["residual"] <= 1e-10
    # Choi oracle: (id x depolarizing) of the maximally entangled projector
    # is the maximally mixed two-qubit state
    expected = hermitian.coords(np.eye(4, dtype=complex) / 4, (2, 2))
    assert np.allclose(out["omega"], expected, atol=1e-10)


def test_factor_fifty_random_morphisms(g):
    rng = random.Random(2026)
    D = gbit_reflection_structure()
    structure = compact_structure_from_duality(D)
    count = 0
    while count < 50:
        phi = random_positive_map(rng, g, g)
        out = factor_morphism(phi, structure)
        assert out["ok"], out["residual"]
        count += 1


def test_identity_is_not_separably_factorable(g):
    """With only separable states and effects the square bit's identity
    cannot factor: the rank-one LP is exactly infeasible."""
    rank_one_maps = [
        tuple(tuple(gv[i] * ev[j] for j in range(3)) for i in range(3))
        for gv in g.state_cone.generators
        for ev in g.effect_cone.generators
    ]
    cons = []
    for i in range(3):
        for j in range(3):
            cons.append(
                eq(tuple(F(m[i][j]) for m in rank_one_maps), F(1 if i == j else 0))
            )
    assert lp_feasible(len(rank_one_maps), cons, nonneg=[True] * len(rank_one_maps)) is None


def _theory_composites(objects, kind, effect_kind=None):
    out = {}
    for A in objects:
        for B in objects:
            out[(A.label, B.label)] = (
                min_tensor(A, B) if kind == "min" else max_tensor(A, B)
            )
            if effect_kind is not None:
                out[("effects", A.label, B.label)] = (
                    min_tensor(A, B) if effect_kind == "min" else max_tensor(A, B)
                )
    return out


def test_theory_classical_pair_compact_closed():
    c2, c3 = classical(2), classical(3)
    comps = _theory_composites([c2, c3], "min")
    out = check_theory_compact_closed([c2, c3], comps)
    assert out["theory_compact_closed"]
    assert out["classical2"]["compact"]
    assert out["classical3"]["compact"]
    assert out["classical3"]["partner"] == "classical3"
    # the trit cannot squeeze through the bit; that pair shows up exhausted
    assert ("classical3", "through", "classical2") in out["classical3"]["exhausted"]


def test_theory_gbit_max_compact_closed(g):
    comps = _theory_composites([g], "max", effect_kind="min")
    out = check_theory_compact_closed([g], comps)
    assert out["theory_compact_closed"]
    there, back = out["gbit"]["certificates"]
    assert verify_teleportation(there, g, g).ok
    assert verify_teleportation(back, g, g).ok


def test_theory_gbit_min_not_certified(g):
    comps = _theory_composites([g], "min")
    out = check_theory_compact_closed([g], comps)
    assert not out["theory_compact_closed"]
    assert not out["gbit"]["compact"]
    assert out["gbit"]["exhausted"]


def test_certificate_round_trip(classical_cert, c2):
    report = verify_teleportation(classical_cert, c2, c2)
    assert report.ok
    assert report.residuals["identity"] == 0


def test_compact_check_searches_each_self_pair_once():
    c2, c3 = classical(2), classical(3)
    searched = []

    def counted(A, B, *composites):
        searched.append((A.label, B.label))
        return find_teleportation(A, B, *composites)

    with patch.object(protocols, "find_teleportation", counted):
        out = check_theory_compact_closed([c2, c3], _theory_composites([c2, c3], "min"))
    assert out["classical2"]["certificates"] == (out["classical2"]["certificates"][0],) * 2
    assert searched == [
        ("classical2", "classical2"),
        ("classical3", "classical2"),
        ("classical3", "classical3"),
    ]


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: elementary row additions,
    then a signed row permutation."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(-2, 2))
        if i != j:
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return [[s * x for x in M[p]] for p, s in zip(draw(st.permutations(range(n))), signs)]


def _in_basis(com, U):
    """com with states carried by U and effects by U^-T, so that every
    probability is unchanged."""
    V = transpose(inverse(U))
    return Com(
        label=com.label,
        state_cone=cone_from_generators([matvec(U, g) for g in com.state_cone.generators]),
        effect_cone=cone_from_generators([matvec(V, e) for e in com.effect_cone.generators]),
        unit=matvec(V, com.unit),
    )


@contextmanager
def _recorded_lps():
    """Record every LP that the teleportation search and the ray matching
    (of the self-duality and model-isomorphism searches too) solve, in the
    package or in the oracle's copies of its LP routines: arguments and
    result, in call order.  The oracle's copies run on its Fraction
    simplex, so equal records also mean equal LP solutions."""
    calls = []

    def recording(solve):
        def solve_and_record(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        return solve_and_record

    with patch.object(protocols, "solve_lp", recording(protocols.solve_lp)), patch.object(
        matching, "solve_lp", recording(matching.solve_lp)
    ), patch.object(oracle, "solve_lp", recording(oracle.solve_lp)):
        yield calls


def _is_basis(sources, cols) -> bool:
    return len(sources) == cols == len(oracle.rref(sources)[1])


@contextmanager
def _basis_matching_lps_dropped(calls):
    """Run the oracle's ``_solve_matching`` as it is, but take out of calls
    the LP it records for a basis source (n independent rays in R^n, with
    no symmetric M and no extra rows): the package reads that LP's one
    optimum off S^-1 and solves no LP (``matching._basis_maps``).  Yields
    the list of those optima, in call order, for the check that replaces
    the dropped LPs: it must equal ``_basis_maps_recorded``'s list."""
    optima = []
    solve = oracle._solve_matching

    def solve_unrecorded(sources, targets, rows, cols, symmetric=False, extra_rows=None):
        start = len(calls)
        M = solve(sources, targets, rows, cols, symmetric, extra_rows)
        if not symmetric and not extra_rows and _is_basis(sources, cols):
            del calls[start:]
            optima.append(M)
        return M

    with patch.object(oracle, "_solve_matching", solve_unrecorded):
        yield optima


@contextmanager
def _basis_maps_recorded():
    """Record every map that the package reads off S^-1, in call order."""
    maps = []
    basis_maps = matching._basis_maps

    def recording(sources, cols):
        basis_map = basis_maps(sources, cols)
        if basis_map is None:
            return None

        def map_and_record(chosen):
            maps.append(basis_map(chosen))
            return maps[-1]

        return map_and_record

    with patch.object(matching, "_basis_maps", recording):
        yield maps


def _pure_states_are_products(A, ba) -> bool:
    """The hypothesis under which the package skips stage 1, read off the
    cones: n_A >= 2, and a factor cone of the min or max composite ba
    (states for min, effects for max) with n rays in R^n."""
    factor_cones = [X.state_cone if ba.composite_kind == "min" else X.effect_cone for X in ba.factors]
    return A.dim >= 2 and any(len(C.generators) == C.dim for C in factor_cones)


@contextmanager
def _stage1_lps_dropped(calls, skipped):
    """Run the oracle's ``_solve_r_hat`` as it is, but when skipped take
    out of calls the LP it records: every pure state of the composite is
    then a product, hat(omega) has rank 1, and the package solves no
    stage-1 LP.  Yields the dropped LPs' answers, in call order, for the
    check that each was infeasible."""
    answers = []
    solve = oracle._solve_r_hat

    def solve_unrecorded(omega_hat, A, B):
        start = len(calls)
        r_hat = solve(omega_hat, A, B)
        if skipped:
            del calls[start:]
            answers.append(r_hat)
        return r_hat

    with patch.object(oracle, "_solve_r_hat", solve_unrecorded):
        yield answers


def _certificate_fields(cert):
    if cert is None:
        return None
    fields = (cert.omega, cert.r_hat, cert.c, cert.f, cert.residual)
    return fields, repr(fields)  # repr tells a Fraction from an int


_MODELS = {"classical2": lambda: classical(2), "classical3": lambda: classical(3), "gbit": gbit}


@pytest.mark.parametrize("kind", ["min", "max"])
@pytest.mark.parametrize("b", sorted(_MODELS))
@pytest.mark.parametrize("a", sorted(_MODELS))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_find_teleportation_equals_the_rescaling_oracle_after_the_same_lps(a, b, kind, data):
    A, B = (_in_basis(X, data.draw(unimodular(X.dim))) for X in (_MODELS[a](), _MODELS[b]()))
    state_side, effect_side = {"min": (min_tensor, max_tensor), "max": (max_tensor, min_tensor)}[kind]
    ba, ab = state_side(B, A), effect_side(A, B)
    skipped = _pure_states_are_products(A, ba)
    with _recorded_lps() as old_lps, _basis_matching_lps_dropped(old_lps) as optima, _stage1_lps_dropped(
        old_lps, skipped
    ) as dropped:
        old = oracle.find_teleportation(A, B, ab, ba)
    with _recorded_lps() as new_lps, _basis_maps_recorded() as maps:
        new = find_teleportation(A, B, ab, ba)
    assert skipped == (a != "gbit" or b != "gbit")
    assert bool(dropped) == skipped and all(r_hat is None for r_hat in dropped)
    assert new_lps == old_lps
    assert repr(maps) == repr(optima)
    assert _certificate_fields(new) == _certificate_fields(old)


@pytest.mark.parametrize(
    "model, state_side, effect_side, lps, tableaus",
    [
        ("classical2", min_tensor, min_tensor, 1, 0),
        ("gbit", max_tensor, min_tensor, 3, 0),
        ("gbit", min_tensor, max_tensor, 48, 32),
    ],
)
def test_equality_rows_decide_the_search_lps_without_a_tableau(
    monkeypatch, model, state_side, effect_side, lps, tableaus
):
    # Every LP is still solved, but those whose equality rows are
    # inconsistent or fix the one point (hat(omega) square) build no
    # simplex tableau.
    A, B = _MODELS[model](), _MODELS[model]()
    ba, ab = state_side(B, A), effect_side(A, B)
    calls, built = [], []
    original, init = lp.solve_lp, lp._Tableau.__init__

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def counted_init(tab, *args):
        built.append(tab)
        init(tab, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("comcat") and getattr(module, "solve_lp", None) is original:
            monkeypatch.setattr(module, "solve_lp", counted)
    monkeypatch.setattr(lp._Tableau, "__init__", counted_init)
    find_teleportation(A, B, ab, ba)
    assert (len(calls), len(built)) == (lps, tableaus)


def _hexagon() -> Com:
    state = cone_from_generators([(1, 0, 1), (-1, 0, 1), (1, 1, 1), (0, 1, 1), (0, -1, 1), (-1, -1, 1)])
    return Com("hexagon", state, dual_cone(state), (0, 0, 1))


def _pyramid() -> Com:
    """The cone over a square pyramid, whose apex lies on four facets and
    each base vertex on three, so the tight-count filter skips bijections."""
    state = cone_from_generators([(1, 1, 0, 1), (1, -1, 0, 1), (-1, 1, 0, 1), (-1, -1, 0, 1), (0, 0, 1, 1)])
    return Com("pyramid", state, dual_cone(state), (0, 0, 0, 1))


@pytest.mark.parametrize("kind", ["min", "max"])
@pytest.mark.parametrize("partner", ["classical", "gbit", "hexagon"])
@pytest.mark.parametrize("classical_sends", [True, False])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_stage_one_is_skipped_only_where_every_lp_is_infeasible(kind, partner, classical_sends, data):
    # A simplicial (classical) factor makes every pure state of the min or
    # max composite a product: each oracle stage-1 LP is infeasible, the
    # package solves none, and its certificate is the one it finds with
    # stage 1 run.
    partners = {"classical": lambda: classical(data.draw(st.integers(2, 4))), "gbit": gbit, "hexagon": _hexagon}
    C, P = classical(data.draw(st.integers(2, 4))), partners[partner]()
    A, B = (_in_basis(X, data.draw(unimodular(X.dim))) for X in ((C, P) if classical_sends else (P, C)))
    state_side, effect_side = {"min": (min_tensor, max_tensor), "max": (max_tensor, min_tensor)}[kind]
    ba, ab = state_side(B, A), effect_side(A, B)
    assert _pure_states_are_products(A, ba)
    for ray in ba.state_cone.generators:
        assert oracle._solve_r_hat(transpose(vec_to_matrix(ray, B.dim, A.dim)), A, B) is None
    with patch.object(protocols, "_solve_r_hat", side_effect=AssertionError("stage 1 solved an LP")):
        skipped = find_teleportation(A, B, ab, ba)
    with patch.object(protocols, "pure_states_are_products", lambda AB: False):
        searched = find_teleportation(A, B, ab, ba)
    assert _certificate_fields(skipped) == _certificate_fields(searched)


@pytest.mark.parametrize("state_side", [min_tensor, max_tensor])
def test_classical1_still_runs_stage_one(state_side):
    # n_A = 1: hat(omega) . r_hat is 1 x 1, a product state can teleport
    # it, and the one stage-1 LP is feasible.
    A = classical(1)
    ba = state_side(A, A)
    with _recorded_lps() as old_lps:
        old = oracle.find_teleportation(A, A, ba, ba)
    with _recorded_lps() as new_lps:
        new = find_teleportation(A, A, ba, ba)
    assert len(new_lps) == 1 and new_lps[0][2].status == "optimal"
    assert new_lps == old_lps
    assert new is not None and _certificate_fields(new) == _certificate_fields(old)


_SEARCHED = {"gbit": gbit, "hexagon": _hexagon, "pyramid": _pyramid} | {
    f"classical{n}": (lambda n=n: classical(n)) for n in range(3, 7)
}


def _searches(A):
    """The results of the weak, symmetric and strong self-duality searches
    of A and of the model isomorphism from A onto A in a sheared basis."""
    shear = [[int(j in (i, i + 1)) for j in range(A.dim)] for i in range(A.dim)]
    weak, sym = selfdual.check_weak_self_duality(A), selfdual.check_symmetric_self_duality(A)
    return (
        [(D.gamma_hat, D.f_hat) for D in (weak, sym)],
        selfdual.strongly_self_dual_model(A),
        matching.com_isomorphism(A, _in_basis(A, shear)),
    )


@pytest.mark.parametrize("model", sorted(_SEARCHED))
def test_ray_matching_searches_solve_the_oracle_loops_lps(model):
    A = _SEARCHED[model]()

    def old_loop(source, target, symmetric=False, extra_rows=None, search=None, label=None):
        return oracle.order_isomorphisms(source, target, symmetric, extra_rows)

    with _recorded_lps() as new_lps, _basis_maps_recorded() as maps:
        new = _searches(A)
    # The old loop runs on the package's simplex: the oracle's Fraction
    # simplex takes minutes over the hexagon's bijections, and equal LPs
    # given to one deterministic solver return equal results.
    with patch.object(oracle, "solve_lp", lp.solve_lp), patch.object(
        selfdual, "order_isomorphisms", old_loop
    ), patch.object(matching, "order_isomorphisms", old_loop), _recorded_lps() as old_lps, _basis_matching_lps_dropped(
        old_lps
    ) as optima:
        old = _searches(A)
    assert new_lps and new_lps == old_lps
    assert repr(maps) == repr(optima)
    assert bool(maps) == model.startswith("classical")
    assert new == old


_TARGETS = {"classical": lambda n: classical(n), "gbit": lambda n: gbit(), "hexagon": lambda n: _hexagon()}


@contextmanager
def _counted_matching_lps():
    calls = []
    solve = matching.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    with patch.object(matching, "solve_lp", counted):
        yield calls


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_basis_sources_match_as_the_oracle_lp_without_an_lp(data):
    # n independent source rays in R^n: each matching LP has the one
    # optimum T S^-1, which the package reads off one inverse per search.
    n = data.draw(st.integers(2, 6))
    sources = _in_basis(classical(n), data.draw(unimodular(n))).state_cone.generators
    kind = data.draw(st.sampled_from(sorted(_TARGETS)))
    model = _TARGETS[kind](data.draw(st.integers(n, 8)))
    target = _in_basis(model, data.draw(unimodular(model.dim)))
    targets, rows = target.effect_cone.generators, target.dim
    allowed = data.draw(
        st.none() | st.lists(st.sets(st.integers(0, len(targets) - 1), min_size=1), min_size=n, max_size=n)
    )
    first = 3  # the oracle's Fraction simplex takes 0.1 s per LP at n = 6
    with _counted_matching_lps() as lps:
        got = list(islice(matching.ray_matchings(sources, targets, rows, n, "search", "B", allowed), first))
    assert lps == []
    expected = []
    for image in permutations(range(len(targets)), n):
        if len(expected) == first:
            break
        if allowed is None or all(j in can for j, can in zip(image, allowed)):
            M = oracle._solve_matching(sources, [targets[j] for j in image], rows, n)
            if M is not None:
                expected.append(M)
    assert repr(got) == repr(expected)


def _unit_rows(A):
    return [
        (tuple(tuple(A.unit[r] if c == col else 0 for c in range(A.dim)) for r in range(A.dim)), A.unit[col])
        for col in range(A.dim)
    ]


@pytest.mark.parametrize(
    "sources, symmetric, extra_rows",
    [
        (classical(3).state_cone.generators, True, None),
        (classical(3).state_cone.generators, False, _unit_rows(classical(3))),
        (gbit().state_cone.generators, False, None),
        (((1, 0, 0), (0, 1, 0), (1, 1, 0)), False, None),  # n rays in R^n, but S is singular
    ],
    ids=["symmetric", "extra-rows", "gbit-source", "singular"],
)
def test_other_searches_keep_one_matching_lp_per_injection(sources, symmetric, extra_rows):
    targets = classical(3).effect_cone.generators + ((1, 1, 1), (2, 1, 1))
    with _counted_matching_lps() as lps:
        got = list(islice(matching.ray_matchings(sources, targets, 3, 3, "search", "B", None, symmetric, extra_rows), 4))
    assert lps  # one LP per injection tried
    images = islice(permutations(range(len(targets)), len(sources)), len(lps))
    solved = (oracle._solve_matching(sources, [targets[j] for j in image], 3, 3, symmetric, extra_rows) for image in images)
    assert repr([M for M in solved if M is not None]) == repr(got)


def test_teleportation_past_the_ray_bound_is_refused():
    c9 = classical(9)
    composite = min_tensor(c9, c9)
    with pytest.raises(UnsupportedKind, match="^the teleportation search is exhaustive up to 8 extreme rays, "
                       "and classical9 has 9$"):
        find_teleportation(c9, c9, composite, composite)
    assert issubclass(UnsupportedKind, InputError)
