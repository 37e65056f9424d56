"""Mechanical checks around the unstable non-strict minimum of the cross function.

Every point of the axis set S = {x1*x2 = 0} minimizes
f(x1, x2) = |x1|^1.5 * |x2|^1.5 locally, yet the constant-step iteration
escapes any small ball around (1, 0) from almost every start.  This module
re-implements the off-axis update in closed form (independently of the
generic engine), checks the magnitude-doubling inequality that keeps x2
away from zero, runs seeded escape experiments, and checks the strict
downward drift of x1 that forces the eventual exit.

Escape times follow from the update in closed form.  Off the axes the x2
update has the period-2 cycle x2 -> -x2 at |x2| = (9/16) * alpha^2 * x1^3
(0.5625), the scale |x2| hovers near; on it x1 falls by
1.5 * alpha * sqrt(x1) * |x2|^1.5 = (81/128) * alpha^4 * x1^5 (~0.63) per
step, so x1^-4 grows by (81/32) * alpha^4 per step.  An exit from
B((1,0), 0.25) at x1 = 0.75 then takes (0.75^-4 - x1_0^-4) / ((81/32) *
alpha^4) steps: 0.85/alpha^4 from x1_0 = 1 (about 1e2 at alpha=0.3, 8e3 at
alpha=0.1, 1.4e5 at alpha=0.05, 8.5e7 at alpha=0.01), and up to about
1.09/alpha^4 from x1_0 = 1.25, so the largest exit index measured over the
ball is higher (131 at alpha=0.3, 10845 at alpha=0.1 over 1000 seeded
starts; the README quotes these).  Budgets must be sized accordingly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .catalog import BATCH_BYTES, as_count, as_point, as_real, check_budget, get_function
from .engine import derive_seed, make_rng, run_batch, sample_ball
from .errors import OnNullSet, PreconditionViolated

__all__ = [
    "EscapeStats",
    "cross_update",
    "doubling_check",
    "escape_experiment",
    "monotone_drift_check",
]


def _on_axes(pts: np.ndarray) -> np.ndarray:
    """Whether each point (last axis) is on S: x1 == 0 or x2 == 0, -0.0 included; x1 * x2 underflows to 0 off S."""
    return (pts == 0.0).any(axis=-1)


def cross_update(x, alpha: float) -> np.ndarray:
    """Closed-form off-axis update of the cross function.

        x1' = x1 - 1.5 * alpha * |x1|^0.5 * |x2|^1.5 * sign(x1)
        x2' = x2 - 1.5 * alpha * |x1|^1.5 * |x2|^0.5 * sign(x2)

    Defined only off the axis set; raises OnNullSet when x1 == 0 or x2 == 0.
    Agrees with the generic engine step on cross to machine precision; alpha passes ``as_real``.
    """
    x, alpha = as_point(x, 2), as_real(alpha, "alpha")
    x1, x2 = float(x[0]), float(x[1])
    if _on_axes(x):
        raise OnNullSet(f"({x1}, {x2}) lies on the axis set")
    a1, a2 = abs(x1), abs(x2)
    y1 = x1 - alpha * (1.5 * np.sqrt(a1) * a2 * np.sqrt(a2) * np.sign(x1))
    y2 = x2 - alpha * (1.5 * a1 * np.sqrt(a1) * np.sqrt(a2) * np.sign(x2))
    return np.array([y1, y2])


def doubling_check(x, alpha: float) -> bool:
    """Whether one update at least doubles |x2| in the small-|x2| regime.

    Precondition: x1 >= 1/2 and 0 < |x2| <= alpha^2 / 32.  In that regime
    the update overshoots zero so strongly that |x2'| >= 2 |x2| must hold;
    the check is the plain float inequality with no tolerance; alpha passes ``as_real``.
    """
    x, alpha = as_point(x, 2), as_real(alpha, "alpha")
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
    stuck_on_S_count: int  # starts on S that never escaped (x2 == 0 in the ball): fixed points
    non_escaped_offS_count: int

    def to_json_dict(self) -> dict:
        """The fields as plain data, with n_samples and k_max under the report's names N and K_max."""
        out = asdict(self)
        out["N"], out["K_max"] = out.pop("n_samples"), out.pop("k_max")
        return out


def escape_experiment(epsilon: float, alpha: float, n_samples: int, k_max: int = 100_000, seed: int = 0):
    """Count how many of n_samples starts drawn uniformly in B((1,0), epsilon) leave the ball within k_max steps.

    The sampler hits the axis set S with probability zero; an x2 == 0 start in the ball is a fixed point that keeps
    -1 and counts as stuck, and a start outside exits at 0 as escaped.  Each start is counted once: escaped + stuck
    + non-escaped off S = n_samples.  Non-escaping off-axis samples are not discarded: they are counted and their
    indices are available in the per-sample table for inspection.  Starts of one's own run through
    ``run_batch(get_function("cross"), starts, alpha, k_max, (1, 0), epsilon)``, which returns the exit indices
    this experiment would give them.

    Returns (EscapeStats, per_sample) where per_sample is a structured array with columns (x1_0, x2_0, exit_index,
    on_S); exit_index is -1 for samples that never left the ball.  Counts and the seed pass ``as_count``, n_samples
    ``check_budget`` as a sampled batch in R^2, epsilon (<= 1/2) and alpha ``as_real``.
    """
    epsilon = as_real(epsilon, "epsilon")
    if epsilon > 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    alpha = as_real(alpha, "alpha")
    n_samples, k_max, seed = as_count(n_samples, "n_samples", 1), as_count(k_max, "k_max", 1), as_count(seed, "seed")
    check_budget(n_samples, "n_samples", 2, BATCH_BYTES)
    fn = get_function("cross")
    center = np.array([1.0, 0.0])
    x0s = sample_ball(center, epsilon, n_samples, make_rng(derive_seed(seed, 0xE5C)))
    on_s = _on_axes(x0s)
    exit_index, _ = run_batch(fn, x0s, alpha, k_max, center, epsilon)
    escaped = exit_index >= 0
    per_sample = np.zeros(n_samples, dtype=[("x1_0", float), ("x2_0", float),
                                            ("exit_index", np.int64), ("on_S", bool)])
    per_sample["x1_0"] = x0s[:, 0]
    per_sample["x2_0"] = x0s[:, 1]
    per_sample["exit_index"] = exit_index
    per_sample["on_S"] = on_s
    stats = EscapeStats(
        epsilon=epsilon,
        alpha=alpha,
        n_samples=n_samples,
        k_max=k_max,
        seed=seed,
        escaped_count=int(escaped.sum()),
        max_exit_index=int(exit_index.max()) if escaped.any() else -1,
        stuck_on_S_count=int((on_s & ~escaped).sum()),
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
    if _on_axes(pts).any():
        raise PreconditionViolated("trajectory touches the axis set")
    return bool(np.all(np.diff(x1) < 0.0))
