"""Reference oracles that only the tests use: hull distance, the closed-form quadratic flow, and brute-force min-norm.

Each is a slow or narrow but plainly correct computation that the package's own code is held to.  Beside them,
``refuse_large_requests`` stubs the allocators, so a test shows what an unchecked call would allocate without
allocating it.
"""

import itertools
import math

import numpy as np

from nsdyn import minimal_norm_element
from nsdyn.catalog import as_point


LARGE = 2 ** 24  # elements: 128 MB of float64, far above what any test call allocates


class Allocated(Exception):
    """A stubbed allocator was asked for more than LARGE elements."""


def _ask(size, what: str):
    if size > LARGE:
        raise Allocated(f"{what} asked for {size} elements")


def refuse_large_requests(monkeypatch, *modules):
    """Make ``np.empty``, ``np.repeat`` and the ``sample_ball`` of each module in ``modules`` raise Allocated on a
    request of more than LARGE elements, before anything is allocated; smaller requests go through."""
    empty, repeat = np.empty, np.repeat

    def stub_empty(shape, *args, **kwargs):
        _ask(math.prod(shape) if isinstance(shape, (tuple, list)) else shape, "np.empty")
        return empty(shape, *args, **kwargs)

    def stub_repeat(a, repeats, *args, **kwargs):
        _ask(np.size(a) * (repeats if isinstance(repeats, int) else int(np.max(repeats))), "np.repeat")
        return repeat(a, repeats, *args, **kwargs)

    monkeypatch.setattr(np, "empty", stub_empty)
    monkeypatch.setattr(np, "repeat", stub_repeat)
    for module in modules:
        def stub_sample_ball(center, radius, n, rng, sample_ball=module.sample_ball):
            _ask(n * np.size(center), "sample_ball")
            return sample_ball(center, radius, n, rng)

        monkeypatch.setattr(module, "sample_ball", stub_sample_ball)


def hull_distance(gens, v) -> float:
    """Distance from ``v`` to the hull of the rows of ``gens``; 0 means hull membership."""
    return float(np.linalg.norm(minimal_norm_element(np.asarray(gens, float) - np.asarray(v, float))))


def exact_flow_quadratic(x0, t: float) -> np.ndarray:
    """Closed-form flow of 0.5*||x||^2: exponential contraction exp(-t)*x0, for a time t >= 0; NaN is refused."""
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    return np.exp(-t) * as_point(x0)


def min_norm_by_subset_enumeration(gens):
    """Exhaustive oracle: the least-norm point among the affine min-norm points of the generator subsets whose affine
    weights are all >= 0."""
    m = gens.shape[0]
    feasible = []
    for size in range(1, m + 1):
        pts = gens[list(itertools.combinations(range(m), size))]  # one (size, dim) block per subset
        lhs = np.ones((pts.shape[0], size + 1, size + 1))
        lhs[:, :size, :size] = pts @ pts.transpose(0, 2, 1)
        lhs[:, size, size] = 0.0
        lam = np.linalg.pinv(lhs)[:, :size, size]  # least-squares weights of [[G, 1], [1, 0]] w = e_last
        feasible.append(np.einsum("sj,sjd->sd", lam, pts)[lam.min(axis=1) >= 0.0])
    cands = np.concatenate(feasible)
    return cands[np.argmin(np.linalg.norm(cands, axis=1))]
