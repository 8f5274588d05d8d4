"""The seeded probe rays, the vectorized Hermitian kernel, the batched
inclusion checks, the O(n^2) symmetry report, the float matrix kernels
and the derived duality-structure record against the loop versions and
the stored record in ``sampling_oracle``."""

from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampling_oracle as oracle
from comcat import cones, hermitian, linalg, protocols, selfdual
from comcat.composites import in_max_cone, is_composite, spatial_quantum_composite
from comcat.config import set_tolerance
from comcat.cones import PROBE_SAMPLES, probe_rays, psd_cone
from comcat.errors import DimensionMismatch, InputError, InvalidStructure, SingularMatrix
from comcat.linalg import inverse, kron, matmul, matvec, max_abs, swap_matrix, transpose
from comcat.models import (
    builtin,
    builtin_structure,
    classical,
    classical_symmetric_structure,
    gbit_reflection_structure,
    gbit_rotation_structure,
    maximally_entangled_structure,
    quantum,
)
from comcat.serialize import dumps, structure_to_json


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (3, 3)])
def test_probe_rays_match_loop_sampler(dims):
    for seed in range(7):
        rays = probe_rays(psd_cone(dims), seed)
        old = oracle.psd_state_samples(dims, seed)
        assert len(rays) == len(old) == np.prod(dims) + PROBE_SAMPLES
        assert np.max(np.abs(np.array(rays) - np.array(old))) <= 1e-12
        assert all(type(x) is float for x in rays[-1])


def _assert_probe_rays_match_oracles(dims, seed):
    cone = psd_cone(dims)
    rays = probe_rays(cone, seed)
    assert _bit_identical(rays, oracle.probe_array(cone, seed))
    assert np.max(np.abs(np.array(rays) - np.array(oracle.psd_state_samples(dims, seed)))) <= 1e-12


def test_memoized_probe_draws_equal_the_per_call_draw():
    cones._psd_probe_array.cache_clear()
    calls = [((2, 2), 3), ((2, 2), 3), ((3,), 0), ((2,), 3), ((2, 3), 1), ((3, 3), 6), ((2, 2), 3), ((3,), 0)]
    for dims, seed in calls:
        _assert_probe_rays_match_oracles(dims, seed)
    info = cones._psd_probe_array.cache_info()
    assert (info.misses, info.hits) == (5, 3)


def test_factor_dims_with_one_product_share_a_draw():
    # The coordinates are memoized per factorization, but the pure states
    # behind them are one draw per (d, seed): 2x2 and 4 give the same
    # density matrices.
    cones._psd_probe_array.cache_clear()
    _assert_probe_rays_match_oracles((2, 2), 4)
    _assert_probe_rays_match_oracles((4,), 4)
    info = cones._psd_probe_array.cache_info()
    assert (info.misses, info.hits) == (2, 0)
    for x, y in zip(probe_rays(psd_cone((2, 2)), 4), probe_rays(psd_cone(4), 4)):
        assert np.allclose(hermitian.matrix(x, (2, 2)), hermitian.matrix(y, (4,)), atol=1e-12)


def test_the_memoized_draw_is_read_only():
    X = cones._psd_probe_array((2,), 0)
    assert X.shape == (2 + PROBE_SAMPLES, 4)
    with pytest.raises(ValueError):
        X[0, 0] = 0.5
    assert X[0, 0] == 1.0
    assert cones._probe_array(psd_cone(2), 0) is X


def test_probe_rays_of_polyhedral_cone_are_its_generators():
    cone = classical(3).state_cone
    assert probe_rays(cone, seed=5) == cone.generators


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (4,), (2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_matrix_equals_loop(dims):
    rng = np.random.default_rng(sum(dims))
    n = hermitian.ambient_dim(dims)
    for t in range(50):
        x = rng.normal(size=n)
        if t % 2:
            x[rng.random(n) < 0.5] = 0.0
        x = tuple(x.tolist())
        assert np.array_equal(hermitian.matrix(x, dims), oracle.matrix(x, dims))


def _bit_identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("dims", [(2,), (3,), (4,), (2, 2), (2, 3), (3, 3), (4, 4)])
def test_coords_equal_loop_to_the_bit(dims):
    rng = np.random.default_rng(sum(dims))
    d = int(np.prod(dims))
    mats = [np.eye(d, dtype=complex)]
    for _ in range(20):
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(X + X.conj().T)
    for M in mats:
        assert _bit_identical(hermitian.coords(M, dims), oracle.coords(M, dims))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_maximally_entangled_maps_equal_loop_to_the_bit(d):
    D = maximally_entangled_structure(d)
    gamma_hat, f_hat = oracle.maximally_entangled_maps(d)
    assert _bit_identical(D.gamma_hat, gamma_hat)
    assert _bit_identical(D.f_hat, f_hat)


def swap_coords(d) -> tuple:
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[d * i + j, d * j + i] = 1.0
    return hermitian.coords(swap.astype(complex), (d, d))


def test_in_max_cone_accepts_block_positive_swap():
    # SWAP on C^2 (x) C^2 is positive on every product Tr(SWAP (a (x) b)) =
    # Tr(ab) >= 0, so it is in the max cone, but it has eigenvalue -1.
    q = quantum(2)
    w = swap_coords(2)
    assert in_max_cone(w, q, q)
    assert not spatial_quantum_composite(q, q).state_cone.member(w)
    assert not in_max_cone(tuple(-x for x in w), q, q)


# -- batched kernels against the loop oracles ---------------------------------

SPECTRAL_DIMS = [(2,), (3,), (4,), (2, 2)]


def superoperator(phi, dims_in, dims_out) -> tuple:
    """Coordinate matrix of the linear map X -> phi(X) on Hermitians."""
    B_in, B_out = hermitian._stacked(dims_in), hermitian._stacked(dims_out)
    images = [phi(b) for b in B_in]
    return tuple(
        tuple(float(np.trace(c @ img).real) for img in images) for c in B_out
    )


def random_map(kind, dims, rng, shift):
    """A CP map (three random Kraus operators), the transpose (co-CP), or a
    CP map minus shift times the identity map (not positive for shift > 0
    large enough)."""
    d = int(np.prod(dims))
    if kind == "transpose":
        M = superoperator(lambda X: X.T, dims, dims)
    else:
        kraus = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        kraus /= np.sqrt(3 * d)
        M = superoperator(lambda X: sum(K @ X @ K.conj().T for K in kraus), dims, dims)
    if kind == "shifted":
        M = tuple(
            tuple(m - (shift if i == j else 0.0) for j, m in enumerate(row)) for i, row in enumerate(M)
        )
    return M


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SPECTRAL_DIMS),
    st.sampled_from(["cp", "transpose", "shifted"]),
    st.integers(0, 2**31 - 1),
    st.floats(0.01, 1.0),
    st.integers(0, 6),
)
def test_batched_rays_leaving_equals_loop(dims, kind, map_seed, shift, seed):
    cone = psd_cone(dims)
    M = random_map(kind, dims, np.random.default_rng(map_seed), shift)
    assert list(cones.rays_leaving(M, cone, cone, seed)) == list(oracle.rays_leaving(M, cone, cone, seed))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_rays_leaving_from_polyhedral_source(d):
    # classical(d) -> quantum(d): the diagonal embedding is positive, a
    # negated coordinate sends one generator out; leaving rays stay ints.
    A, Q = classical(d).state_cone, quantum(d).state_cone
    M = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d * d))
    assert list(cones.rays_leaving(M, A, Q)) == list(oracle.rays_leaving(M, A, Q)) == []
    flipped = tuple(tuple(-x if j == d - 1 else x for j, x in enumerate(row)) for row in M)
    leaving = list(cones.rays_leaving(flipped, A, Q))
    assert leaving == list(oracle.rays_leaving(flipped, A, Q)) == [A.generators[0]]
    assert all(type(x) is int for x in leaving[0])


def test_batched_rays_leaving_refuses_a_map_of_the_wrong_shape():
    q2, q3 = psd_cone(2), psd_cone(3)
    square = tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4))
    for source, target in ((q2, q3), (q3, q2)):
        with pytest.raises(DimensionMismatch):
            list(cones.rays_leaving(square, source, target))


@pytest.mark.parametrize("d", [2, 3])
def test_rays_leaving_keeps_an_image_on_the_tolerance_boundary(d):
    # X -> X - t <0|X|0> I sends the projector onto |0> to an image with
    # least eigenvalue exactly -t, and every seeded pure state well inside
    # -t; at tolerance t that ray stays, a hair beyond t it leaves.
    t = 2.0**-20
    cone = psd_cone(d)
    ident = superoperator(lambda X: X, (d,), (d,))
    unit = hermitian.unit_coords((d,))
    try:
        for shift, expected in ((t, []), (t + 2.0**-40, [probe_rays(cone)[0]])):
            M = tuple(
                tuple(m - (shift * unit[i] if j == 0 else 0.0) for j, m in enumerate(row))
                for i, row in enumerate(ident)
            )
            set_tolerance(t)
            assert list(cones.rays_leaving(M, cone, cone)) == expected
            assert list(oracle.rays_leaving(M, cone, cone)) == expected
    finally:
        set_tolerance(None)


def random_form(kind, dims, rng, shift) -> tuple:
    """Coordinates over dims of a pure state (PSD), a random Hermitian
    form, or SWAP (block-positive, not PSD); "shifted" subtracts shift
    times the identity."""
    if kind.endswith("swap"):
        w = swap_coords(dims[0])
    elif kind.endswith("pure"):
        v = rng.normal(size=(int(np.prod(dims)), 2)) @ np.array([1, 1j])
        w = hermitian.coords(np.outer(v, v.conj()), dims)
    else:
        w = tuple(rng.normal(size=hermitian.ambient_dim(dims)).tolist())
    if kind.startswith("shifted"):
        w = tuple(x - shift * u for x, u in zip(w, hermitian.unit_coords(dims)))
    return w


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [(dims, kind) for dims in [(2, 2), (2, 3), (3, 2), (3, 3)] for kind in ("pure", "hermitian", "shifted pure")]
        + [(dims, kind) for dims in [(2, 2), (3, 3)] for kind in ("swap", "shifted swap")]
    ),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 0.6),
)
def test_batched_in_max_cone_equals_loop(case, form_seed, shift):
    dims, kind = case
    A, B = quantum(dims[0]), quantum(dims[1])
    w = random_form(kind, dims, np.random.default_rng(form_seed), shift)
    assert in_max_cone(w, A, B) == oracle.in_max_cone(w, A, B)


@pytest.mark.parametrize("A_name", ["classical2", "gbit", "qubit"])
@pytest.mark.parametrize("B_name", ["classical3", "gbit", "qubit"])
def test_in_max_cone_equals_loop_across_kinds(A_name, B_name):
    # A product of interior states, which is in the max cone, plus noise
    # of growing scale, which sooner or later takes it out.
    A, B = builtin(A_name), builtin(B_name)
    rng = np.random.default_rng(len(A_name) * 7 + len(B_name))
    inside = np.outer(A.state_cone.interior_point(), B.state_cone.interior_point()).ravel()
    inside = inside / np.abs(inside).max()
    for scale in np.linspace(0.0, 1.0, 21):
        w = tuple((inside + scale * rng.normal(size=A.dim * B.dim)).tolist())
        assert in_max_cone(w, A, B) == oracle.in_max_cone(w, A, B)
    if A.kind == B.kind == "polyhedral":
        exact = tuple(Fraction(int(x), 3) for x in rng.integers(-1, 6, size=A.dim * B.dim))
        assert in_max_cone(exact, A, B) == oracle.in_max_cone(exact, A, B)


def test_in_max_cone_keeps_a_form_on_the_tolerance_boundary():
    t = 2.0**-20
    c2 = classical(2)
    set_tolerance(t)
    try:
        for w, expected in (((1.0, -t, 0.5, 1.0), True), ((1.0, -2 * t, 0.5, 1.0), False)):
            assert in_max_cone(w, c2, c2) is expected
            assert oracle.in_max_cone(w, c2, c2, tolerance=t) is expected
    finally:
        set_tolerance(None)


def test_batched_is_composite_on_the_spatial_composites():
    for d in (2, 3):
        q = quantum(d)
        assert is_composite(spatial_quantum_composite(q, q), q, q, seed=d) == []


# -- the Cholesky accept against the batched eigvalsh rule --------------

PLANT_TOL = 2.0**-20
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@st.composite
def planted_batches(draw):
    """(dims, X, lows, norms, bad): rows of Hermitian coordinates whose
    least eigenvalue is planted at lows[i]: 0 on a rank-deficient PSD
    matrix, -PLANT_TOL (1 - 2^-e) or -PLANT_TOL (1 + 2^-e) (e up to 52, so
    past rounding), or well inside.  Frobenius norms run from well inside
    the accept's guard 8 d^2 u ||M||_F < tol/2 to 2^14 times past it.  A
    boundary batch plants every row within rounding of -PLANT_TOL, inside
    the guard, where only the tol/2 shift keeps the factorization from
    accepting a row that eigvalsh puts outside.  With bad set, one
    coordinate is replaced by NaN or an infinity."""
    dims = draw(st.sampled_from([(2,), (3,), (2, 2)]))
    d = int(np.prod(dims))
    guard = PLANT_TOL / (16 * d * d * UNIT_ROUNDOFF)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boundary = draw(st.booleans())
    plants = ["above", "below"] if boundary else ["zero", "above", "below", "inside"]
    rows, lows, norms = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        plant = draw(st.sampled_from(plants))
        e = draw(st.integers(34, 52) if boundary else st.integers(1, 52))
        low = {"zero": 0.0, "above": -(1 - 2.0**-e), "below": -(1 + 2.0**-e), "inside": 0.5}[plant] * PLANT_TOL
        norm = guard * 2.0 ** draw(st.integers(-30, -4) if boundary else st.integers(-30, 14))
        rest = rng.random(d - 1)
        if plant == "zero":
            rest[: draw(st.integers(0, d - 2))] = 0.0
        rest *= np.sqrt(norm**2 - low**2) / np.linalg.norm(rest)
        U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        rows.append(hermitian.coords(U @ np.diag([low, *rest]) @ U.conj().T, dims))
        lows.append(low)
        norms.append(norm)
    X = np.array(rows)
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, None, None]))
    if bad is not None:
        X[draw(st.integers(0, len(X) - 1)), draw(st.integers(0, X.shape[1] - 1))] = bad
    return dims, X, lows, norms, bad is not None


@settings(max_examples=300, deadline=None)
@given(planted_batches())
def test_psd_inclusion_accept_gives_the_batched_eigvalsh_verdicts(case):
    # The rows are the images of the generators e_j of a classical source
    # under the map with columns X[j], so rays_leaving sees them to the bit.
    dims, X, lows, norms, bad = case
    source, target = classical(len(X)).state_cone, psd_cone(dims)
    M = tuple(map(tuple, X.T.tolist()))
    planted = [g.index(1) for g in source.generators]
    set_tolerance(PLANT_TOL)
    try:
        if bad:
            for check in (
                lambda: hermitian.rows_outside_psd(X, dims, PLANT_TOL),
                lambda: list(cones.rays_leaving(M, source, target)),
                lambda: list(oracle.rays_leaving(M, source, target)),
            ):
                with pytest.raises(InputError, match="finite"):
                    check()
            return
        images = np.array(source.generators, dtype=float) @ X
        expected = oracle.psd_rows_outside(images, dims, PLANT_TOL)
        assert np.array_equal(hermitian.rows_outside_psd(images, dims, PLANT_TOL), expected)
        leaving = list(cones.rays_leaving(M, source, target))
        assert leaving == [source.generators[i] for i in expected]
        by_member = list(oracle.rays_leaving(M, source, target))
        for g, j in zip(source.generators, planted):
            # Where the plant is farther from -tol than rounding can move
            # an eigenvalue, every route reads the planted verdict.
            if abs(lows[j] + PLANT_TOL) > 2**10 * X.shape[1] * UNIT_ROUNDOFF * norms[j]:
                assert (g in leaving) == (g in by_member) == (lows[j] < -PLANT_TOL)
    finally:
        set_tolerance(None)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(2, 2, "one factor"), (2, 3, "one factor"), (2, 2, "spatial"), (2, 3, "spatial")]),
    st.integers(0, 2**16),
    st.integers(1, 52),
    st.sampled_from([-1.0, 1.0]),
)
def test_is_composite_product_check_gives_the_batched_eigvalsh_verdict(case, seed, e, side):
    # The tolerance is planted at the least eigenvalue of the sampled
    # products, times 1 -+ 2^-e: quantum(d_a d_b) read as a composite takes
    # product coordinates in the wrong basis (least eigenvalue about -0.8),
    # the spatial composite holds them (least eigenvalue within rounding
    # of 0).
    da, db, kind = case
    A, B = quantum(da), quantum(db)
    AB = spatial_quantum_composite(A, B) if kind == "spatial" else quantum(da * db)
    Xa = oracle.probe_array(A.state_cone, seed)
    Xb = oracle.probe_array(B.state_cone, seed + 1)
    k = min(len(Xa), len(Xb))
    products = np.einsum("ki,kj->kij", Xa[:k], Xb[:k]).reshape(k, AB.dim)
    dims = AB.state_cone.hilbert_dims
    low = np.linalg.eigvalsh(np.tensordot(products, hermitian._stacked(dims), axes=1))[:, 0].min()
    tol = abs(low) * (1 + side * 2.0**-e) if low else 2.0**-e
    set_tolerance(tol)
    try:
        left = "a sampled product state left the composite cone" in is_composite(AB, A, B, seed)
        assert left == bool(oracle.psd_rows_outside(products, dims, tol).size)
    finally:
        set_tolerance(None)


def structure_from(gamma_hat, f_hat, com) -> selfdual.DualityStructure:
    """An unverified structure, enough for the symmetry report."""
    return selfdual.DualityStructure(com=com, gamma_hat=gamma_hat, f_hat=f_hat)


# -- the derived record against the stored one --------------------------


def assert_same_structure(A, gamma_hat, f_hat=None, new=None):
    """build_structure (or the given record) equals the stored-record
    oracle to the bit: equal reprs tell floats, signed zeros and Fraction
    from int apart.  Inputs the oracle rejects are rejected with the same
    message."""
    try:
        old = oracle.build_structure(A, gamma_hat, f_hat)
    except InvalidStructure as exc:
        with pytest.raises(InvalidStructure) as info:
            selfdual.build_structure(A, gamma_hat, f_hat)
        assert str(info.value) == str(exc)
        return
    new = new or selfdual.build_structure(A, gamma_hat, f_hat)
    for name in ("gamma", "f", "gamma_hat", "f_hat", "tau"):
        assert repr(getattr(new, name)) == repr(getattr(old, name)), name
    assert repr(new.tau_inverse) == repr(matmul(transpose(old.gamma_hat), old.f_hat))
    assert repr(dict(new.residuals)) == repr(old.residuals)
    assert dumps(structure_to_json(new)) == dumps(structure_to_json(old))


@pytest.mark.parametrize(
    "name", ["classical1:symmetric", "classical2:symmetric", "classical3:symmetric", "classical5:symmetric",
             "gbit:rotation", "gbit:reflection", "qubit:choi", "quantum3:choi", "quantum4:choi"]
)
def test_builtin_structures_equal_the_stored_record(name):
    D = builtin_structure(name)
    if D.com.state_cone.kind == "psd":
        gamma_hat, f_hat = oracle.maximally_entangled_maps(*D.com.state_cone.hilbert_dims)
    else:
        gamma_hat, f_hat = D.gamma_hat, None
    assert_same_structure(D.com, gamma_hat, f_hat, new=D)


def _monomial(draw, n, entry):
    """A random positive diagonal times a random permutation matrix."""
    perm = draw(st.permutations(range(n)))
    scale = [draw(entry) for _ in range(n)]
    return tuple(tuple(scale[i] if j == perm[i] else 0 * scale[i] for j in range(n)) for i in range(n))


EXACT_SCALES = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
FLOAT_SCALES = st.floats(1e-3, 1e3)
GBIT_MAPS = [gbit_rotation_structure().gamma_hat, gbit_reflection_structure().gamma_hat]


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.integers(1, 4), st.booleans(), st.data())
def test_classical_structures_equal_the_stored_record(exact, n, give_inverse, data):
    entry = EXACT_SCALES if exact else FLOAT_SCALES
    gamma_hat = _monomial(data.draw, n, entry)
    f_hat = None
    if give_inverse:
        f_hat = inverse(gamma_hat) if exact else tuple(map(tuple, np.linalg.inv(gamma_hat).tolist()))
    assert_same_structure(builtin(f"classical{n}"), gamma_hat, f_hat)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_gbit_structures_equal_the_stored_record(exact, data):
    # a state-square symmetry after either builtin map, scaled; or any small
    # integer map, which the oracle mostly rejects
    if data.draw(st.booleans()):
        c = data.draw(EXACT_SCALES if exact else FLOAT_SCALES)
        flip = data.draw(st.sampled_from([((1, 0), (0, 1)), ((0, 1), (1, 0))]))
        signs = data.draw(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))
        S = tuple(tuple(signs[i] * flip[i][j] for j in range(2)) + (0,) for i in range(2)) + ((0, 0, 1),)
        gamma_hat = tuple(tuple(c * x for x in row) for row in matmul(S, data.draw(st.sampled_from(GBIT_MAPS))))
    else:
        entry = st.integers(-2, 2) if exact else st.integers(-2, 2).map(float)
        gamma_hat = tuple(tuple(data.draw(entry) for _ in range(3)) for _ in range(3))
    assert_same_structure(builtin("gbit"), gamma_hat)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.floats(1e-2, 1e2), st.sampled_from([0.0, 1e-13, 1e-6, 1e-2]),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_quantum_structures_equal_the_stored_record(d, c, noise, give_inverse, seed):
    gamma_hat, f_hat = oracle.maximally_entangled_maps(d)
    perturbed = np.array(gamma_hat) * c + noise * np.random.default_rng(seed).normal(size=(d * d, d * d))
    gamma_hat = tuple(map(tuple, perturbed.tolist()))
    f_hat = tuple(tuple(x / c for x in row) for row in f_hat) if give_inverse else None
    assert_same_structure(builtin(f"quantum{d}"), gamma_hat, f_hat)


def test_structure_record_is_immutable():
    D = selfdual.build_structure(classical(2), ((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    assert [f.name for f in fields(D)] == ["com", "gamma_hat", "f_hat", "residuals"]
    for name in ("com", "gamma_hat", "f_hat", "residuals", "gamma", "f", "tau", "tau_inverse", "symmetric"):
        getattr(D, name)
        with pytest.raises(FrozenInstanceError):
            setattr(D, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(D, name)
    with pytest.raises(TypeError):
        D.residuals["inverse"] = 1
    residuals = {"inverse": 0}
    E = selfdual.DualityStructure(D.com, D.gamma_hat, D.f_hat, residuals)
    residuals["inverse"] = 1
    assert E.residuals == {"inverse": 0}


def assert_same_report(D):
    new = selfdual.symmetry_equivalence_report(D.com, D)
    old = oracle.symmetry_equivalence_report(D.com, D)
    assert new == old
    if new["witness"] is not None:
        assert type(new["witness"]["deviation"]) is type(old["witness"]["deviation"])


@pytest.mark.parametrize(
    "make",
    [gbit_rotation_structure, gbit_reflection_structure]
    + [lambda n=n: classical_symmetric_structure(n) for n in (1, 2, 3, 5)]
    + [lambda d=d: maximally_entangled_structure(d) for d in (2, 3)],
)
def test_symmetry_report_equals_loop_on_builtin_structures(make):
    assert_same_report(make())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**31 - 1), st.sampled_from([1e-12, 1e-8, 1e-3]))
def test_symmetry_report_equals_loop_on_perturbed_quantum(d, seed, scale):
    D = maximally_entangled_structure(d)
    rng = np.random.default_rng(seed)
    n = d * d
    gamma_hat = tuple(map(tuple, (np.array(D.gamma_hat) + scale * rng.normal(size=(n, n))).tolist()))
    f_hat = tuple(map(tuple, np.linalg.inv(np.array(gamma_hat)).tolist()))
    assert_same_report(structure_from(gamma_hat, f_hat, D.com))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_symmetry_report_equals_loop_on_exact_maps(n, data):
    entries = st.integers(-3, 3)
    gamma_hat = tuple(tuple(data.draw(entries) for _ in range(n)) for _ in range(n))
    try:
        f_hat = inverse(gamma_hat)
    except SingularMatrix:
        return
    assert_same_report(structure_from(gamma_hat, f_hat, classical(n)))


@pytest.mark.parametrize(
    "make",
    [gbit_rotation_structure, gbit_reflection_structure, lambda: classical_symmetric_structure(3)]
    + [lambda d=d: maximally_entangled_structure(d) for d in (2, 3)],
)
def test_counit_dual_check_equals_kron_route(make):
    D = make()
    n = D.com.dim
    K = transpose(D.gamma_hat)
    check = selfdual.counit_dual_check(D)
    by_kron = matvec(kron(K, K), D.f)
    swapped = matvec(swap_matrix(n, n), D.gamma)
    assert check["swapped_gamma"] == swapped
    if D.exact():
        assert check["f_adjoint"] == by_kron
    else:
        assert np.max(np.abs(np.subtract(check["f_adjoint"], by_kron))) <= 1e-12


# -- float matrix kernels --------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072014e-308,
                  float("inf"), float("-inf"), 1e308, -1e308]
FLOATS = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL_FLOATS))
# ints that round when converted, halfway cases included, and ints too large for a double
ROUNDED_INTS = [2**53 + 1, -(2**53 + 3), 2**63 + 2**10 + 1, 2**64 + 1, 2**64 + 2**11, 2**1100]
MIXED = st.one_of(FLOATS, st.integers(-(2**70), 2**70), st.sampled_from(ROUNDED_INTS))


def _same(x, y) -> bool:
    """Same type and, for floats, the same bits (sign of zero included)."""
    return type(x) is type(y) and (float.hex(x) == float.hex(y) if type(x) is float else x == y)


def _same_matrix(X, Y) -> bool:
    return len(X) == len(Y) and all(
        len(r) == len(s) and all(map(_same, r, s)) for r, s in zip(X, Y)
    )


@st.composite
def float_matrix(draw, rows, cols, nan=False):
    entries = draw(st.sampled_from([FLOATS, MIXED]))
    if nan:
        entries = st.one_of(entries, st.just(float("nan")))
    return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


@st.composite
def float_factors(draw):
    m, k, n = (draw(st.integers(1, 16)) for _ in range(3))
    nan = draw(st.booleans())
    return draw(float_matrix(m, k, nan)), draw(float_matrix(k, n, nan))


@settings(max_examples=300, deadline=None)
@given(float_factors())
def test_float_matmul_equals_loop_to_the_bit(factors):
    A, B = factors
    try:
        expected = oracle.loop_matmul(A, B)
    except OverflowError:  # an int beyond the double range meets a float
        with pytest.raises(OverflowError):
            matmul(A, B)
        return
    assert _same_matrix(matmul(A, B), expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16).flatmap(lambda m: st.integers(1, 16).flatmap(
    lambda n: float_matrix(m, n, nan=True))), st.booleans())
def test_float_max_abs_equals_loop_to_the_bit(M, as_vector):
    data = M[0] if as_vector else [list(row) for row in M]
    assert _same(max_abs(data), oracle.loop_max_abs(data))
    assert _same(max_abs(M[0][0]), oracle.loop_max_abs(M[0][0]))


# numpy.float64 entries, as the rows of a float ndarray hand them over: the
# same doubles, so the kernels must give the loop's bits, as Python floats
F64 = FLOATS.map(np.float64)
F64_DATA = st.one_of(F64, FLOATS)
F64_INTS = st.one_of(F64_DATA, st.integers(-(2**70), 2**70), st.sampled_from(ROUNDED_INTS))
F64_NAN = st.sampled_from([np.float64("nan"), float("nan")])


def _same_bits_as_float(x, y) -> bool:
    """x is a Python float with the bits of y, a float or numpy.float64."""
    return type(x) is float and float.hex(x) == float.hex(y)


def _loop(f, *args):
    """A loop oracle on numpy scalars, without numpy's overflow warnings."""
    with np.errstate(all="ignore"):
        return f(*args)


@st.composite
def float64_factors(draw):
    """Factors that the kernel takes: at least 64 result entries, one factor
    all float data with a numpy.float64 among it, the other float data or
    ints; either may hold a NaN."""
    m, k, n = draw(st.integers(8, 16)), draw(st.integers(1, 16)), draw(st.integers(8, 16))
    nan = draw(st.booleans())
    floats, other = F64_DATA, draw(st.sampled_from([F64, F64_DATA, F64_INTS]))
    if nan:
        floats, other = st.one_of(floats, F64_NAN), st.one_of(other, F64_NAN)
    A = [[draw(floats) for _ in range(k)] for _ in range(m)]
    A[draw(st.integers(0, m - 1))][draw(st.integers(0, k - 1))] = draw(F64)
    B = tuple(tuple(draw(other) for _ in range(n)) for _ in range(k))
    A = tuple(map(tuple, A))
    return (A, B) if draw(st.booleans()) else (transpose(B), transpose(A))


@settings(max_examples=300, deadline=None)
@given(float64_factors())
def test_float64_matmul_equals_loop_to_the_bit(factors):
    A, B = factors
    try:
        expected = _loop(oracle.loop_matmul, A, B)
    except OverflowError:  # an int beyond the double range meets a double
        with pytest.raises(OverflowError):
            matmul(A, B)
        return
    got = matmul(A, B)
    assert len(got) == len(expected)
    assert all(map(_same_bits_as_float, chain.from_iterable(got), chain.from_iterable(expected)))


@settings(max_examples=300, deadline=None)
@given(st.integers(8, 16), st.integers(8, 16), st.booleans(), st.booleans(), st.data())
def test_float64_max_abs_equals_loop_to_the_bit(m, n, nan, as_vector, data):
    entries = st.one_of(F64_DATA, F64_NAN) if nan else F64_DATA
    M = [[np.float64(data.draw(FLOATS))] + [data.draw(entries) for _ in range(n - 1)] for _ in range(m)]
    obj = list(chain.from_iterable(M)) if as_vector else M
    got, expected = max_abs(obj), _loop(oracle.loop_max_abs, obj)
    assert float.hex(got) == float.hex(expected)
    if not any(x != x for x in chain.from_iterable(M)):  # a NaN keeps the loop
        assert _same_bits_as_float(got, expected)


def test_float_matmul_keeps_the_sign_of_zero_as_sum_does():
    A = ((-0.0,) * 16,) * 16
    B = ((0.0,) * 16,) * 16
    assert _same_matrix(matmul(A, B), oracle.loop_matmul(A, B))
    assert float.hex(matmul(A, B)[0][0]) == "0x0.0p+0"


def test_float_data_from_64_entries_runs_without_dot(monkeypatch):
    A = tuple(tuple(0.5 * i - 0.25 * j for j in range(8)) for i in range(8))
    small = ((0.5, -1.0), (2.0, 0.25))
    expected = oracle.loop_matmul(A, linalg.identity(8)), oracle.loop_matmul(small, small)
    monkeypatch.setattr(linalg, "np", None)
    assert _same_matrix(matmul(small, small), expected[1])  # below 64 entries: the loop
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "dot", None)
    assert _same_matrix(matmul(A, linalg.identity(8)), expected[0])
    assert _same_matrix(matmul(linalg.identity(8), A), A)


def test_float64_data_runs_without_dot_while_other_numpy_scalars_keep_the_loop(monkeypatch):
    grid = np.arange(64, dtype=np.float64).reshape(8, 8) * 0.5 - 7.25
    rows = {t: tuple(tuple(r) for r in grid.astype(t)) for t in (np.float64, np.float32, np.int64)}
    expected = {t: _loop(oracle.loop_matmul, M, M) for t, M in rows.items()}

    def refuse(x, y):
        raise AssertionError("dot called on float data")

    monkeypatch.setattr(linalg, "dot", refuse)
    M = rows[np.float64]
    assert _same_matrix(matmul(M, M), tuple(tuple(map(float, r)) for r in expected[np.float64]))
    assert _same_bits_as_float(max_abs(M), oracle.loop_max_abs(M))
    calls = []

    def counting(x, y):
        calls.append(1)
        return oracle.dot(x, y)

    monkeypatch.setattr(linalg, "dot", counting)
    for t in (np.float32, np.int64):
        calls.clear()
        got = matmul(rows[t], rows[t])
        assert len(calls) == 64
        assert all(type(x) is t for x in chain.from_iterable(got)) and got == expected[t]
    monkeypatch.setattr(linalg, "np", None)
    for t in (np.float32, np.int64):  # max_abs keeps the loop too
        assert max_abs(rows[t]) == oracle.loop_max_abs(rows[t])


def test_ragged_float_factors_take_the_loop():
    A = [[0.5] * 8 for _ in range(8)]
    B = [[0.25] * 8 for _ in range(8)]
    short = [row[:] for row in A]
    short[3].pop()
    with pytest.raises(DimensionMismatch):
        matmul(short, B)
    assert _same_matrix(matmul(A, short), oracle.loop_matmul(A, short))  # zip(*B) drops a column
    assert max_abs(short) == oracle.loop_max_abs(short) == 0.5


def test_exact_data_never_enters_numpy(monkeypatch):
    ints = tuple(tuple(i * 8 + j for j in range(8)) for i in range(8))
    M = ((Fraction(1, 2),) + ints[0][1:],) + ints[1:]
    mixed = ((Fraction(1, 2),) + (0.5,) * 7,) + ((0.25,) * 8,) * 7
    pairs = [(M, M), (ints, ints), (mixed, mixed), (ints, mixed)]
    expected = [oracle.loop_matmul(A, B) for A, B in pairs]
    monkeypatch.setattr(linalg, "np", None)
    assert [matmul(A, B) for A, B in pairs] == expected
    assert max_abs(M) == 63 and max_abs(ints) == 63 and max_abs(mixed) == 0.5
    assert max_abs(()) == 0 and max_abs([]) == 0


def _ququart_certificate(seed: int):
    """The data of a ququart teleportation certificate as the spectral
    benchmark builds it: omega, the form of (U (x) 1)|phi+> for a random
    unitary U, and r_hat, the inverse of hat(omega) = G^T as an ndarray."""
    d, n = 4, 16
    basis = hermitian.basis((d,))
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    psi = np.kron(U, np.eye(d)) @ (np.eye(d).reshape(n) / np.sqrt(d))
    proj = np.outer(psi, psi.conj())
    omega = tuple(float(np.trace(proj @ np.kron(Bk, Bl)).real) for Bk in basis for Bl in basis)
    return omega, np.linalg.inv(np.reshape(omega, (n, n)).T)


def _hex(v):
    """float.hex of a float residual, or of each entry of a tuple of them."""
    return tuple(map(_hex, v)) if isinstance(v, tuple) else float.hex(v)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ndarray_rows_certificate_verifies_as_its_float_copy(seed):
    A = quantum(4)
    AB = spatial_quantum_composite(A, A)
    omega, f_hat = _ququart_certificate(seed)
    results = []
    for r_hat in (tuple(tuple(r) for r in f_hat), tuple(map(tuple, f_hat.tolist()))):
        c = protocols.max_effect_scale_psd(r_hat, A, A)
        r_form = tuple(x for row in zip(*r_hat) for x in row)
        cert = protocols.TeleportationCertificate(
            omega=omega, r_hat=r_hat, c=c, f=tuple(c * x for x in r_form), residual=0.0,
            composite_ab=AB, composite_ba=AB,
        )
        report = protocols.verify_teleportation(cert, A, A)
        results.append((float.hex(c), report.ok, report.violations,
                        {k: _hex(v) for k, v in report.residuals.items()}))
    assert results[0] == results[1]
    assert results[0][1] and abs(float.fromhex(results[0][0]) - 1 / 16) <= 1e-9
