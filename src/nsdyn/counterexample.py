"""Mechanical checks around the unstable non-strict minimum of the cross function.

Every point of the axis set S = {x1*x2 = 0} minimizes
f(x1, x2) = |x1|^1.5 * |x2|^1.5 locally, yet the constant-step iteration
escapes any small ball around (1, 0) from almost every start.  This module
re-implements the off-axis update in closed form (independently of the
generic engine), checks the magnitude-doubling inequality that keeps x2
away from zero, runs seeded escape experiments, and checks the strict
downward drift of x1 that forces the eventual exit.

Measured escape times matter: with |x2| hovering near its attracting scale
~0.5625 * alpha^2 * x1^3, the x1 coordinate drifts down by about
0.63 * alpha^4 * x1^5 per step, so an exit from B((1,0), 0.25) starting at
x1 = 1 takes roughly 0.85/alpha^4 steps (about 1e2 at alpha=0.3, 8e3 at
alpha=0.1, 1.4e5 at alpha=0.05, 8.5e7 at alpha=0.01).  Starts further right
take longer, up to about 1.09/alpha^4 from x1 = 1.25, so the largest exit
index measured over the ball is higher (131 at alpha=0.3, 10845 at
alpha=0.1 over 1000 seeded starts; the README quotes these).  Budgets must
be sized accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import as_point, get_function
from .engine import _check_alpha, derive_seed, make_rng, run_batch, sample_ball
from .errors import OnNullSet, PreconditionViolated

__all__ = [
    "EscapeStats",
    "cross_update",
    "doubling_check",
    "escape_experiment",
    "monotone_drift_check",
    "DEFAULT_ALPHAS",
]

DEFAULT_ALPHAS = (0.01, 0.05, 0.1, 0.3)


def cross_update(x, alpha: float) -> np.ndarray:
    """Closed-form off-axis update of the cross function.

        x1' = x1 - 1.5 * alpha * |x1|^0.5 * |x2|^1.5 * sign(x1)
        x2' = x2 - 1.5 * alpha * |x1|^1.5 * |x2|^0.5 * sign(x2)

    Defined only off the axis set; raises OnNullSet when x1*x2 == 0.
    Agrees with the generic engine step on cross to machine precision.
    """
    x = as_point(x, 2)
    x1, x2 = float(x[0]), float(x[1])
    if x1 * x2 == 0.0:
        raise OnNullSet(f"({x1}, {x2}) lies on the axis set")
    a1, a2 = abs(x1), abs(x2)
    y1 = x1 - alpha * (1.5 * np.sqrt(a1) * a2 * np.sqrt(a2) * np.sign(x1))
    y2 = x2 - alpha * (1.5 * a1 * np.sqrt(a1) * np.sqrt(a2) * np.sign(x2))
    return np.array([y1, y2])


def doubling_check(x, alpha: float) -> bool:
    """Whether one update at least doubles |x2| in the small-|x2| regime.

    Precondition: x1 >= 1/2 and 0 < |x2| <= alpha^2 / 32.  In that regime
    the update overshoots zero so strongly that |x2'| >= 2 |x2| must hold;
    the check is the plain float inequality with no tolerance.
    """
    x = as_point(x, 2)
    x1, x2 = float(x[0]), float(x[1])
    if not (x1 >= 0.5 and 0.0 < abs(x2) <= alpha * alpha / 32.0):
        raise PreconditionViolated(
            f"need x1 >= 1/2 and 0 < |x2| <= alpha^2/32, got x1={x1}, x2={x2}, alpha={alpha}")
    y = cross_update(x, alpha)
    return bool(abs(y[1]) >= 2.0 * abs(x2))


@dataclass(frozen=True)
class EscapeStats:
    """Aggregate of one seeded escape experiment on the cross function."""

    epsilon: float
    alpha: float
    n_samples: int
    k_max: int
    seed: int
    escaped_count: int
    max_exit_index: int  # -1 when nothing escaped
    stuck_on_S_count: int  # starts with x2 == 0 exactly
    non_escaped_offS_count: int

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "N": self.n_samples,
            "K_max": self.k_max,
            "seed": self.seed,
            "escaped_count": self.escaped_count,
            "max_exit_index": self.max_exit_index,
            "stuck_on_S_count": self.stuck_on_S_count,
            "non_escaped_offS_count": self.non_escaped_offS_count,
        }


def escape_experiment(epsilon: float, alpha: float, n_samples: int, k_max: int = 100_000,
                      seed: int = 0, initial_points=None):
    """Count how many starts in B((1,0), epsilon) leave the ball within k_max steps.

    Samples uniformly in the ball (the continuous sampler hits the axis set
    with probability zero; exact x2 == 0 starts are counted as stuck, and in
    the ball they are fixed points that keep -1; any start outside exits at 0).
    Non-escaping off-axis samples are not discarded: they are counted and
    their indices are available in the per-sample table for inspection.

    Returns (EscapeStats, per_sample) where per_sample is a structured array
    with columns (x1_0, x2_0, exit_index, on_S); exit_index is -1 for
    samples that never left the ball.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    _check_alpha(alpha)
    if n_samples < 1 or k_max < 1:
        raise ValueError("n_samples and k_max must be >= 1")
    fn = get_function("cross")
    center = np.array([1.0, 0.0])
    if initial_points is None:
        rng = make_rng(derive_seed(seed, 0xE5C))
        x0s = sample_ball(center, epsilon, n_samples, rng)
    else:
        x0s = np.atleast_2d(np.asarray(initial_points, dtype=float))
        if x0s.shape != (n_samples, 2):
            raise ValueError("initial_points must have shape (n_samples, 2)")
    on_s = x0s[:, 0] * x0s[:, 1] == 0.0
    exit_index, _ = run_batch(fn, x0s, alpha, k_max, center, epsilon)
    escaped = exit_index >= 0
    per_sample = np.zeros(n_samples, dtype=[("x1_0", float), ("x2_0", float),
                                            ("exit_index", np.int64), ("on_S", bool)])
    per_sample["x1_0"] = x0s[:, 0]
    per_sample["x2_0"] = x0s[:, 1]
    per_sample["exit_index"] = exit_index
    per_sample["on_S"] = on_s
    stats = EscapeStats(
        epsilon=float(epsilon),
        alpha=float(alpha),
        n_samples=n_samples,
        k_max=k_max,
        seed=int(seed),
        escaped_count=int(escaped.sum()),
        max_exit_index=int(exit_index.max()) if escaped.any() else -1,
        stuck_on_S_count=int((x0s[:, 1] == 0.0).sum()),
        non_escaped_offS_count=int((~escaped & ~on_s).sum()),
    )
    return stats, per_sample


def monotone_drift_check(traj) -> bool:
    """Whether x1 strictly decreases along a cross trajectory.

    Precondition: every recorded point is off the axis set and has x1 > 0
    (the drift claim concerns the positive-x1 regime).
    """
    if traj.fn_id != "cross":
        raise PreconditionViolated("trajectory is not on the cross function")
    pts = traj.points
    x1 = pts[:, 0]
    if np.any(x1 <= 0.0):
        raise PreconditionViolated("x1 must stay positive over the checked span")
    if np.any(pts[:, 0] * pts[:, 1] == 0.0):
        raise PreconditionViolated("trajectory touches the axis set")
    return bool(np.all(np.diff(x1) < 0.0))
