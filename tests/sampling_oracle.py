"""Loop versions of the spectral kernels, kept as test oracles.

``psd_state_samples`` is the pure-state sampler the sampled cone checks
used before they moved onto ``cones.probe_rays``, and ``matrix`` is the
coordinate-to-matrix loop that ``hermitian.matrix`` replaced with one
``tensordot``.  Both are as they were then: one trace product per basis
matrix, one matrix sum per coordinate.
"""

from math import prod

import numpy as np

from comcat import hermitian


def psd_state_samples(dims, seed=0, count=24):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    samples = [np.eye(d, dtype=complex)[:, [i]] @ np.eye(d, dtype=complex)[[i], :] for i in range(d)]
    for _ in range(count):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = v / np.linalg.norm(v)
        samples.append(np.outer(v, v.conj()))
    return [hermitian.coords(m, dims) for m in samples]


def matrix(x, dims: tuple[int, ...]) -> np.ndarray:
    """Hermitian matrix with the given coordinates."""
    B = hermitian.basis(dims)
    if len(x) != len(B):
        raise ValueError(f"expected {len(B)} coordinates, got {len(x)}")
    d = prod(dims)
    M = np.zeros((d, d), dtype=complex)
    for c, b in zip(x, B):
        if c != 0:
            M = M + float(c) * b
    return M
