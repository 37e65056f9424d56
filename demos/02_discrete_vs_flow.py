"""Discrete iterates vs continuous subgradient flow on one horizon.

Writes aligned CSV pairs for two panels: a stable strict minimum
(vee_bowl from (0, 0.8)) where the iterates hover around the flow, and the
unstable non-strict minimum of cross from (1, 0.1) where the two dynamics
decouple: the flow converges to an axis point and stays, while the
iterates' first coordinate keeps drifting left until they leave any small
ball.  Also prints how the interpolated-iterates-to-flow gap shrinks as the
step size alpha is halved (first-order, roughly 0.5x per halving).
"""

import numpy as np

from nsdyn import InterpolatedPath, get_function, integrate_flow, run, sup_deviation
from nsdyn.reporting import flow_csv_text, trajectory_csv_text, write_text

for name, x0, alpha, horizon in [("vee_bowl", [0.0, 0.8], 0.1, 1.0),
                                 ("cross", [1.0, 0.1], 0.1, 2.0)]:
    fn = get_function(name)
    steps = int(np.ceil(horizon / alpha))
    traj = run(fn, x0, alpha, steps)
    sol = integrate_flow(fn, x0, horizon, alpha / 100.0)
    write_text(f"demo_{name}.discrete.csv", trajectory_csv_text(traj, fn))
    write_text(f"demo_{name}.flow.csv", flow_csv_text(sol))
    dev = sup_deviation(InterpolatedPath(traj, horizon), sol)
    print(f"{name:<9} from {x0}: sup deviation {dev.sup_dev:.5f} at t={dev.t_argmax:.2f} "
          f"-> demo_{name}.discrete.csv / demo_{name}.flow.csv")

print()
print("Deviation shrinks with alpha on the quadratic (flow step pinned at alpha/100):")
quad = get_function("quad", 1)
prev = None
for alpha in (0.2, 0.1, 0.05, 0.025):
    traj = run(quad, [1.0], alpha, int(round(1.0 / alpha)))
    sol = integrate_flow(quad, [1.0], 1.0, alpha / 100.0)
    dev = sup_deviation(InterpolatedPath(traj, 1.0), sol).sup_dev
    note = "" if prev is None else f"  (x{dev / prev:.2f})"
    print(f"  alpha={alpha:<6} sup_dev={dev:.5f}{note}")
    prev = dev

print()
print("Energy bookkeeping along the flow: f(x(T)) - f(x(0)) + integral ||v||^2 dt")
from nsdyn import energy_residual  # noqa: E402

for h in (1e-2, 1e-3, 1e-4):
    sol = integrate_flow(quad, [1.0], 1.0, h)
    print(f"  h={h:<7} residual {energy_residual(sol):.3e}")
