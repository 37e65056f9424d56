"""Forward integration of the subgradient flow x'(t) = -(minimal-norm subgradient).

The scheme is the explicit Euler polygon at a step h much finer than the
discrete dynamics it is compared against: x_{j+1} = x_j - h * v_j with v_j
the minimal-norm element of the subdifferential at x_j, run by the engine's
recorded loop on the closed-form field ``min_norm_at`` with step sizes
diff(ts).  Accuracy is certified against the closed-form quadratic flow and
the energy identity

    f(x(T)) - f(x(0)) = - integral of ||v(t)||^2 dt

rather than by scheme order.  Around nonsmooth minima the scheme oscillates
inside an h-ball instead of sticking exactly; tolerances account for that.

Where the flow is non-unique this module follows the minimal-norm selection
only, so deviation reports measure distance to that particular solution,
not to the closest of all solutions.

The two curves keep two interpolation formulas.  ``interpolate`` finds the
iterate segment as k = floor(t/alpha) and weighs by (t - alpha*k)/alpha;
``flow_value`` finds the node segment by searchsorted and weighs by
(t - ts[j])/(ts[j+1] - ts[j]).  The node spacings differ from alpha and h in
the last bits, so one formula for both curves, or ``np.interp``, moves the
last bits of sup_dev or of its argmax in about one compare in five.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import RECORD_BYTES, CatalogFunction, as_point, as_real, check_budget
from .engine import InterpolatedPath, _blend, _bounded, _record, _times, interpolate
from .errors import HorizonMismatch, NonFiniteState

__all__ = [
    "FlowSolution",
    "DeviationReport",
    "integrate_flow",
    "flow_value",
    "energy_residual",
    "sup_deviation",
]


@dataclass(frozen=True)
class FlowSolution:
    """Euler-polygon solution nodes with per-node minimal-norm subgradients.

    Nodes sit at t = j*h from xs[0] up to ts[-1]: a multiple of h within 1e-12 of the horizon, else the
    horizon after a shorter last step.  f_values and min_norm_subgrads align with the nodes.
    """

    fn_id: str
    node_step: float
    ts: np.ndarray
    xs: np.ndarray
    min_norm_subgrads: np.ndarray
    f_values: np.ndarray

    def __post_init__(self):
        for arr in (self.ts, self.xs, self.min_norm_subgrads, self.f_values):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def integrate_flow(fn: CatalogFunction, x0, horizon: float, h: float) -> FlowSolution:
    """Integrate x0 over [0, horizon] with step h, both ``as_real`` floats, in the steps ``check_budget`` admits."""
    h, horizon = as_real(h, "h"), as_real(horizon, "horizon")
    if h > horizon:
        raise ValueError(f"need h <= horizon, got h={h}, horizon={horizon}")
    check_budget(horizon / h, "horizon/h", fn.dim, RECORD_BYTES)
    n_full = int(np.floor(horizon / h + 1e-12))
    ts = h * np.arange(n_full + 1)
    if horizon - ts[-1] > 1e-12 * max(1.0, horizon):
        ts = np.append(ts, horizon)
    m = ts.shape[0]
    xs = np.empty((m, fn.dim))
    subs = np.empty((m, fn.dim))
    xs[0] = as_point(x0, fn.dim, "x0")
    exit_k = _record(fn.min_norm_at, xs, subs, np.diff(ts).tolist(), _bounded)
    if exit_k is not None:
        raise NonFiniteState(f"flow diverged at t={ts[exit_k]}")
    subs[m - 1] = fn.min_norm_many(xs[m - 1:])[0]
    return FlowSolution(
        fn_id=fn.name,
        node_step=h,
        ts=ts,
        xs=xs,
        min_norm_subgrads=subs,
        f_values=fn.value_many(xs),
    )


def flow_value(sol: FlowSolution, t) -> np.ndarray:
    """Flow state at time t, linearly interpolated between nodes; exact at nodes.

    ``t`` is a scalar (one point) or an array of times (one row per time).
    The segment is the last node j with ts[j] <= t, clipped to the last
    segment, and the weight (t - ts[j]) / (ts[j+1] - ts[j]).
    """
    ts = sol.ts
    t = _times(t, ts[-1])
    j = np.minimum(np.searchsorted(ts, t, side="right") - 1, ts.shape[0] - 2)
    return _blend(sol.xs[j], sol.xs[j + 1], (t - ts[j]) / (ts[j + 1] - ts[j]),
                  t == ts[j], t == ts[j + 1])


def energy_residual(sol: FlowSolution) -> float:
    """| f(x(T)) - f(x(0)) + Q | with Q the trapezoidal integral of ||v||^2.

    Small residuals certify the dissipation identity numerically; for this
    first-order scheme the residual shrinks roughly linearly in h.
    """
    s = sol.min_norm_subgrads
    q = float(np.trapezoid(np.vecdot(s, s), sol.ts))
    return abs(float(sol.f_values[-1] - sol.f_values[0]) + q)


@dataclass(frozen=True)
class DeviationReport:
    """Sup distance between an interpolated iterate path and a flow solution."""

    alpha: float
    h: float
    sup_dev: float
    t_argmax: float


def sup_deviation(path: InterpolatedPath, sol: FlowSolution) -> DeviationReport:
    """Max distance over the union of both node grids, and where it occurs.

    Each curve is evaluated once on the whole grid, by its own formula (see
    the module docstring).  The row norm ``sqrt(vecdot(d, d))`` has the bits
    of ``np.linalg.norm`` on each row, which ``norm(axis=1)``,
    ``(d*d).sum(axis=1)`` and ``einsum`` do not always give.  The first
    maximum wins.
    """
    t_path = path.t_max
    t_flow = float(sol.ts[-1])
    horizon = min(t_path, t_flow)
    if abs(t_path - t_flow) > 1e-9 * max(1.0, horizon):
        raise HorizonMismatch(f"path horizon {t_path} vs flow horizon {t_flow}")
    traj = path.trajectory
    node_ts = traj.times
    # sorted, not np.union1d (its np.unique imports numpy.ma); a time in both grids comes twice, at one gap
    grid = np.sort(np.concatenate((node_ts[node_ts <= horizon], sol.ts[sol.ts <= horizon])))
    d = interpolate(path, grid) - flow_value(sol, grid)
    gaps = np.sqrt(np.vecdot(d, d))
    i = int(np.argmax(gaps))
    return DeviationReport(alpha=traj.alpha, h=sol.node_step, sup_dev=float(gaps[i]),
                           t_argmax=float(grid[i]))
