"""Reference oracles that only the tests use: hull distance, the closed-form quadratic flow, and brute-force min-norm.

Each is a slow or narrow but plainly correct computation that the package's own code is held to.
"""

import itertools

import numpy as np

from nsdyn import minimal_norm_element
from nsdyn.catalog import as_point


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
