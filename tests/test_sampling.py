"""The seeded probe rays and the vectorized Hermitian kernel against the
loop versions in ``sampling_oracle``."""

import numpy as np
import pytest

import sampling_oracle as oracle
from comcat import hermitian
from comcat.composites import in_max_cone, spatial_quantum_composite
from comcat.cones import PROBE_SAMPLES, probe_rays, psd_cone
from comcat.models import classical, quantum


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (3, 3)])
def test_probe_rays_match_loop_sampler(dims):
    for seed in range(7):
        rays = probe_rays(psd_cone(dims), seed)
        old = oracle.psd_state_samples(dims, seed)
        assert len(rays) == len(old) == np.prod(dims) + PROBE_SAMPLES
        assert np.max(np.abs(np.array(rays) - np.array(old))) <= 1e-12
        assert all(type(x) is float for x in rays[-1])


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


def test_in_max_cone_accepts_block_positive_swap():
    # SWAP on C^2 (x) C^2 is positive on every product Tr(SWAP (a (x) b)) =
    # Tr(ab) >= 0, so it is in the max cone, but it has eigenvalue -1.
    q = quantum(2)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    w = hermitian.coords(swap.astype(complex), (2, 2))
    assert in_max_cone(w, q, q)
    assert not spatial_quantum_composite(q, q).state_cone.member(w)
    assert not in_max_cone(tuple(-x for x in w), q, q)
