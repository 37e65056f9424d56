"""Constant-step subgradient iteration x_{k+1} = x_k - alpha * s_k, s_k in the subdifferential.

The inclusion leaves the subgradient selection free; SelectionPolicy pins it
down.  The default minimal-norm selection matches the slow-solution
convention of the continuous flow and makes discrete/continuous comparisons
canonical.  It is the closed form ``fn.min_norm_many``, which the generator
policies also take except at an exact kink.  ``run``, ``run_batch``, ``step``
and the flow share one row selector and one step loop ``_iterate``, so all
agree bit for bit; Wolfe's projector never steps.  The loop alone decides when
a row stops, by one keep test applied from k = 0 on: ``_inside`` an exit ball,
or ``_bounded`` without one, so a diverged batch row retires at its
divergence step, where ``run`` records ``diverged_at``.

The loop owns its working rows: one column-major (``order="F"``) copy of the
start points, updated in place (``s *= a; pts -= s``) and compacted only when
rows exit, into a new column-major array.  Column-major keeps the per-row
reductions over the few coordinates cheap on a thousand rows.  numpy's
``sum(axis=1)`` adds an F-ordered batch column by column but a C-ordered row
of 8 or more entries pairwise, so its bits would depend on the layout and a
batch row would drift from its ``run`` replay.  Every row reduction of the
dynamics (the ball test, ``neg_norm``'s field) therefore uses
``catalog.sum_sq``, which adds the squared columns left to right in any
layout.

Reproducibility contract: every random draw comes from a counter-based
Philox generator.  A trajectory owns a single 64-bit seed; batch drivers
derive per-sample seeds with ``derive_seed(root, *indices)`` (a SeedSequence
keyed on the index tuple), so parallel or reordered execution cannot change
any stream.  A batch row draws from ``make_rng(seeds(row))``, made at its
first kink, so ``run`` and each row of ``run_batch`` replay bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .catalog import CatalogFunction, as_point, sum_sq
from .errors import NonFiniteState, OutOfHorizon

__all__ = [
    "DIVERGENCE_LIMIT",
    "SelectionPolicy",
    "MINIMAL_NORM",
    "Trajectory",
    "InterpolatedPath",
    "step",
    "run",
    "run_batch",
    "interpolate",
    "first_exit",
    "sample_ball",
    "derive_seed",
    "make_rng",
]

# any coordinate beyond this magnitude marks the trajectory as diverged
DIVERGENCE_LIMIT = 1e100

_POLICY_KINDS = ("minimal_norm", "random_extreme", "fixed_index")


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick one subgradient from the generator set.

    minimal_norm   argmin-norm element of the hull (deterministic)
    random_extreme uniform over the generators (seed-dependent)
    fixed_index    generator ``index`` modulo the generator count
    """

    kind: str = "minimal_norm"
    index: int = 0

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")


MINIMAL_NORM = SelectionPolicy("minimal_norm")


def derive_seed(root: int, *indices: int) -> int:
    """64-bit per-stream seed from a root seed and an index tuple."""
    words = np.random.SeedSequence((int(root),) + tuple(int(i) for i in indices)).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def sample_ball(center, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the closed ball B(center, radius).

    Isotropic direction times radius * u^(1/dim), the standard volume-uniform
    construction; documented so seeded experiments stay reproducible.
    """
    center = as_point(center)
    dim = center.shape[0]
    direction = rng.standard_normal((n, dim))
    norms = np.sqrt((direction * direction).sum(axis=1))
    norms[norms == 0.0] = 1.0
    direction /= norms[:, None]
    radii = radius * rng.uniform(0.0, 1.0, n) ** (1.0 / dim)
    return center[None, :] + radii[:, None] * direction


def _selector(fn: CatalogFunction, policy: SelectionPolicy, rng_of=None):
    """Maps (pts, row ids) to one subgradient per row, for every policy.

    A row takes its ``min_norm_many`` row unless it sits at an exact kink under
    a generator policy: then generator ``index % m``, or a uniform draw from the
    row's own stream ``rng_of(id)``, made at its first draw.
    """
    if policy.kind == "minimal_norm":
        return lambda pts, ids: fn.min_norm_many(pts)
    rngs = {}

    def select(pts, ids):
        s = fn.min_norm_many(pts)
        for r in np.flatnonzero(fn.at_kink(pts)):
            gens = fn.generators(pts[r], 0.0)
            j = policy.index
            if policy.kind == "random_extreme":
                if rng_of is None:
                    raise ValueError("random_extreme selection at a kink needs an rng or seeds")
                rng = rngs[ids[r]] = rngs.get(ids[r]) or rng_of(ids[r])
                j = int(rng.integers(gens.shape[0]))
            s[r] = gens[j % gens.shape[0]]
        return s

    return select


def _check_alpha(alpha: float):
    """The step size must be finite and positive; NaN fails."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


def _inside(center, radius: float, dim: int):
    """Keep test ||x - center||^2 <= radius^2 per row, which NaN and inf rows fail.

    The ball must have a finite radius > 0 and lie within DIVERGENCE_LIMIT / 2
    of the origin, so a row inside it is always ``_bounded``.
    """
    center = as_point(center, dim)
    r = float(radius)
    if not (0.0 < r < np.inf and np.abs(center).max() + r <= DIVERGENCE_LIMIT / 2):
        raise ValueError(f"exit ball needs a finite radius > 0 and a finite center, within "
                         f"{DIVERGENCE_LIMIT / 2:g} of the origin; got radius {radius}, center {center.tolist()}")
    r2 = r * r
    return lambda pts: sum_sq(pts - center) <= r2


def _bounded(pts: np.ndarray) -> np.ndarray:
    """Keep test without an exit ball: every |coordinate| <= DIVERGENCE_LIMIT, which NaN fails."""
    return (np.abs(pts) <= DIVERGENCE_LIMIT).all(axis=1)


def _iterate(select, pts: np.ndarray, steps, keep, points=None, subgrads=None):
    """The step loop: x <- x - a * select(x, ids) on every live row, for each step size a.

    keep(pts) is the one stop rule, applied to the starts (k = 0) and after
    every step k: a row it fails retires with exit index k and that point; the
    rest keep -1.  Returns (exit_index, last_points), recording row 0's
    iterates and selections into points[1:] and subgrads when given.

    ``pts`` is never written: the loop steps its own column-major copy in
    place, scaling each fresh selection by a and subtracting it, which gives
    the same bits as x - a * s.  select gets the live rows and their row numbers
    in ``pts`` once per step; exits compact the copy and keep it column-major.
    """
    last = np.array(pts, dtype=float)
    pts = np.array(last, order="F")
    exit_index = np.full(pts.shape[0], -1, dtype=np.int64)
    alive_ids = np.arange(pts.shape[0])
    for k, a in enumerate(chain(steps, (None,))):
        kept = keep(pts)
        if not kept.all():
            gone = alive_ids[~kept]
            exit_index[gone] = k
            last[gone] = pts[~kept]
            alive_ids = alive_ids[kept]
            pts = pts.T.compress(kept, axis=1).T  # pts[kept] would come back row-major
        if a is None or alive_ids.size == 0:
            break
        s = select(pts, alive_ids)
        if points is not None:
            subgrads[k] = s[0]
        s *= a
        pts -= s
        if points is not None:
            points[k + 1] = pts[0]
    last[alive_ids] = pts
    return exit_index, last


def step(fn: CatalogFunction, x, alpha: float, policy: SelectionPolicy = MINIMAL_NORM,
         rng: np.random.Generator | None = None):
    """One update: returns (x - alpha*s, s) with s selected per policy.

    The rng advances only for random_extreme at points with more than one
    generator.
    """
    _check_alpha(alpha)
    x = as_point(x, fn.dim)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"non-finite state {x}")
    s = _selector(fn, policy, None if rng is None else lambda row: rng)(x[None, :], [0])[0]
    return x - alpha * s, s


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterate sequence with everything needed for bit-exact replay.

    points has shape (k_last+1, dim); chosen_subgradients has one row per
    executed step and satisfies points[k+1] == points[k] - alpha * chosen[k]
    exactly (the stored arrays are the arithmetic results themselves).
    """

    fn_id: str
    alpha: float
    points: np.ndarray
    chosen_subgradients: np.ndarray
    policy: SelectionPolicy
    seed: int
    diverged_at: int | None = None

    def __post_init__(self):
        self.points.setflags(write=False)
        self.chosen_subgradients.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_steps(self) -> int:
        return self.chosen_subgradients.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.alpha * np.arange(self.points.shape[0])


def run(fn: CatalogFunction, x0, alpha: float, n_steps: int,
        policy: SelectionPolicy = MINIMAL_NORM, seed: int = 0,
        stop: tuple | None = None) -> Trajectory:
    """Iterate ``n_steps`` times, or until leaving the optional stop ball or diverging.

    stop is (center, radius); from the start on, the first point outside the
    ball or diverged (any |coordinate| > 1e100 or non-finite) is recorded and
    iteration halts there.  Divergence is recorded in diverged_at, never
    raised.  n_steps = 0 is allowed and records the initial point alone.
    """
    _check_alpha(alpha)
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    points = np.empty((n_steps + 1, fn.dim))
    subgrads = np.empty((n_steps, fn.dim))
    points[0] = as_point(x0, fn.dim)
    keep = _bounded if stop is None else _inside(stop[0], stop[1], fn.dim)
    exit_index, last = _iterate(_selector(fn, policy, lambda row: make_rng(seed)), points[:1],
                                repeat(alpha, n_steps), keep, points, subgrads)
    k_last = n_steps if exit_index[0] < 0 else int(exit_index[0])
    return Trajectory(
        fn_id=fn.name,
        alpha=float(alpha),
        points=points[: k_last + 1].copy(),
        chosen_subgradients=subgrads[:k_last].copy(),
        policy=policy,
        seed=int(seed),
        diverged_at=None if _bounded(last)[0] else k_last,
    )


def run_batch(fn: CatalogFunction, x0s: np.ndarray, alpha: float, n_steps: int,
              exit_center=None, exit_radius: float | None = None,
              policy: SelectionPolicy = MINIMAL_NORM, seeds=None):
    """``run``'s step loop over many initial points at once.

    Row i replayed through ``run(..., policy, seed=seeds(i), stop=ball)`` gives
    the same iterates bit for bit; ``seeds`` is called at a row's first kink
    only.  Returns (exit_index, last_points): exit_index[i] is the first k (0
    for the start) at which ``run`` halts, with x_k outside the exit ball or,
    without one, diverged; else -1.  So a diverged row retires at its
    divergence step.
    """
    _check_alpha(alpha)
    keep = _bounded if exit_center is None else _inside(exit_center, exit_radius, fn.dim)
    rng_of = None if seeds is None else lambda i: make_rng(seeds(int(i)))
    return _iterate(_selector(fn, policy, rng_of), x0s, repeat(alpha, n_steps), keep)


@dataclass(frozen=True)
class InterpolatedPath:
    """Piecewise-linear curve through the iterates with nodes at t = alpha*k.

    Defined on [0, min(horizon, alpha * n_steps)].
    """

    trajectory: Trajectory
    horizon: float

    @property
    def t_max(self) -> float:
        return min(self.horizon, self.trajectory.alpha * self.trajectory.n_steps)


def _times(t, t_max: float) -> np.ndarray:
    """``t`` as a float array, checked to lie in [0, t_max]; NaN fails the check."""
    t = np.asarray(t, dtype=float)
    bad = ~((t >= 0.0) & (t <= t_max))
    if bad.any():
        raise OutOfHorizon(f"t={t[bad][0]} outside [0, {t_max}]")
    return t


def _blend(lo, hi, w, at_lo, at_hi) -> np.ndarray:
    """lo + w * (hi - lo) row by row; a time on a node gives its stored point."""
    out = np.where(at_hi[..., None], hi, lo + w[..., None] * (hi - lo))
    return np.where(at_lo[..., None], lo, out)


def interpolate(path: InterpolatedPath, t) -> np.ndarray:
    """Value of the interpolated curve at time t; exact at every node.

    ``t`` is a scalar (one point) or an array of times (one row per time).
    The segment is k = floor(t / alpha), clipped to the last one, and the
    weight (t - alpha*k) / alpha; the ``flow`` module docstring says why
    this formula and not ``flow_value``'s.
    """
    traj = path.trajectory
    alpha = traj.alpha
    t = _times(t, path.t_max)
    k = np.clip(np.floor(t / alpha).astype(np.int64), 0, max(traj.n_steps - 1, 0))
    return _blend(traj.points[k], traj.points[np.minimum(k + 1, traj.n_steps)],
                  (t - alpha * k) / alpha, t == alpha * k, t == alpha * (k + 1))


def first_exit(traj: Trajectory, center, radius: float) -> int | None:
    """Smallest k with points[k] outside the ball (``_inside`` fails, as on NaN), or None."""
    hits = np.flatnonzero(~_inside(center, radius, traj.dim)(traj.points))
    return int(hits[0]) if hits.size else None
