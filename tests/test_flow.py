import numpy as np
import numpy.testing as npt
import pytest

from nsdyn import (
    FlowSolution,
    InterpolatedPath,
    energy_residual,
    get_function,
    integrate_flow,
    interpolate,
    run,
    sup_deviation,
)
from nsdyn.flow import flow_value
from nsdyn.errors import HorizonMismatch, NonFiniteState, OutOfHorizon
from reference import exact_flow_quadratic

QUAD1 = get_function("quad", 1)
ABS1 = get_function("abs_sum", 1)
CROSS = get_function("cross")


def test_quad_flow_reaches_exponential_decay():
    sol = integrate_flow(QUAD1, [1.0], 1.0, 1e-3)
    assert abs(sol.xs[-1, 0] - np.exp(-1.0)) <= 2e-4


def test_cross_axis_start_is_stationary():
    sol = integrate_flow(CROSS, [1.0, 0.0], 2.0, 1e-2)
    assert np.all(sol.xs == np.array([1.0, 0.0]))
    assert np.all(sol.min_norm_subgrads == 0.0)


def test_abs_sum_flow_sticks_near_zero():
    h = 1e-4
    sol = integrate_flow(ABS1, [0.05], 1.0, h)
    # unit-slope descent reaches an h-ball of 0 by t = 0.05 and stays there
    after = np.abs(sol.xs[sol.ts >= 0.05, 0])
    assert after.max() <= h


def test_nodes_equally_spaced_with_final_partial_step():
    sol = integrate_flow(QUAD1, [1.0], 0.25, 0.1)
    npt.assert_allclose(sol.ts, [0.0, 0.1, 0.2, 0.25], rtol=0, atol=1e-15)
    sol = integrate_flow(QUAD1, [1.0], 0.3, 0.1)
    # a multiple of h within 1e-12 of the horizon ends the record: no extra node, and ts[-1] is 3h, not 0.3
    assert sol.ts.shape[0] == 4 and sol.ts[-1] == 3 * 0.1


def test_flow_nodes_are_the_recorded_euler_steps():
    # more steps than one block of the recorded loop, and a shorter last step
    for fn, x0 in [(CROSS, [1.0, 0.1]), (get_function("neg_norm", 3), [0.2, -0.1, 0.05])]:
        sol = integrate_flow(fn, x0, 1.0, 0.0073)
        dt = np.diff(sol.ts)
        assert sol.ts.shape[0] == 138 and 0.0 < dt[-1] < dt[0]
        for j in range(dt.size):
            assert sol.min_norm_subgrads[j].tobytes() == fn.min_norm_many(sol.xs[j:j + 1])[0].tobytes()
            assert sol.xs[j + 1].tobytes() == (sol.xs[j] - dt[j] * sol.min_norm_subgrads[j]).tobytes()


def test_energy_residual_quad_and_ratio():
    sol_a = integrate_flow(QUAD1, [1.0], 1.0, 1e-3)
    sol_b = integrate_flow(QUAD1, [1.0], 1.0, 5e-4)
    r_a = energy_residual(sol_a)
    r_b = energy_residual(sol_b)
    # analytic drop 0.5*(e^-2 - 1) matches the quadrature as h -> 0
    assert r_a <= 5e-3
    assert r_b <= 3e-3
    assert 1.5 <= r_a / r_b <= 4.0


def test_energy_residual_stationary_point_is_zero():
    sol = integrate_flow(CROSS, [1.0, 0.0], 1.0, 1e-2)
    assert energy_residual(sol) == 0.0


def test_energy_residual_abs_sum_unit_slope():
    h = 1e-4
    sol = integrate_flow(ABS1, [0.05], 0.05, h)
    # drop -0.05 against integral of 1 over [0, 0.05]
    assert energy_residual(sol) <= 2 * h


def test_energy_residual_halving_trend_abs_sum():
    # halt mid-descent so the kink never enters the window
    r = [energy_residual(integrate_flow(ABS1, [0.05], 0.03, h))
         for h in (1e-3, 5e-4)]
    assert r[0] <= 2e-3 and r[1] <= 1e-3


def test_exact_flow_quadratic_examples():
    npt.assert_allclose(exact_flow_quadratic([1.0, 0.0], 1.0),
                        [0.3678794411714423, 0.0], rtol=1e-12)
    npt.assert_array_equal(exact_flow_quadratic([0.0, 0.0], 3.7), [0.0, 0.0])
    npt.assert_array_equal(exact_flow_quadratic([2.0], 0.0), [2.0])
    for t in (-1e-300, np.nan):  # NaN is no time: it would give a NaN point
        with pytest.raises(ValueError, match="nonnegative"):
            exact_flow_quadratic([2.0], t)


def test_flow_matches_quadratic_oracle_within_h():
    # measured constant stays below 1 for starts in B(0, 2), horizons <= 2
    for x0, horizon, h in [([1.5, -1.0], 2.0, 1e-2), ([0.5], 1.0, 1e-3), ([-2.0], 2.0, 5e-3)]:
        fn = get_function("quad", len(x0))
        sol = integrate_flow(fn, x0, horizon, h)
        worst = max(
            float(np.linalg.norm(sol.xs[j] - exact_flow_quadratic(x0, sol.ts[j])))
            for j in range(sol.ts.shape[0])
        )
        assert worst <= h


def _exact_nonsmooth_flow(name, x0, ts):
    """The minimal-norm flow in closed form: abs_sum's coordinates (and vee_bowl's x1) move to 0 at unit speed and
    rest, vee_bowl's x2 is x2_0 e^(-2t), and neg_norm leaves 0 along x0 at unit speed."""
    t = ts[:, None]
    if name == "neg_norm":
        return x0 * (1.0 + t / np.linalg.norm(x0))
    xs = np.sign(x0) * np.maximum(np.abs(x0) - t, 0.0)
    if name == "vee_bowl":
        xs[:, 1] = x0[1] * np.exp(-2.0 * ts)
    return xs


def test_flow_error_against_closed_form_nonsmooth_flows():
    # the Euler polygon chatters in an h-band around a kink: each coordinate stays within h of the exact flow
    # (measured <= 0.9997h on 30 random starts per step), vee_bowl's smooth x2 within 0.371 h |x2_0|, and
    # neg_norm, smooth away from 0, only rounds (relative error measured <= 0.22 eps times the node count)
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for name, dim in (("abs_sum", 3), ("vee_bowl", 2), ("neg_norm", 3)):
        fn = get_function(name, dim)
        for h, starts in ((1e-2, 8), (1e-3, 8), (1e-4, 1)):
            for x0 in rng.uniform(-1.0, 1.0, (starts, dim)):
                sol = integrate_flow(fn, x0, 1.0, h)
                exact = _exact_nonsmooth_flow(name, x0, sol.ts)
                err = np.abs(sol.xs - exact)
                if name == "neg_norm":
                    rel = np.linalg.norm(sol.xs - exact, axis=1) / np.linalg.norm(exact, axis=1)
                    assert rel.max() <= eps * sol.ts.size, (x0, h)
                    continue
                bound = np.full(dim, h * (1.0 + 1e-9))
                if name == "vee_bowl":
                    bound[1] = h * abs(x0[1]) / 2.0
                assert (err <= bound).all(), (name, x0, h, err.max(axis=0) / h)
            # so compare's sup_dev measures the discrete run against the flow, not the flow's own error: against
            # the exact flow on the same nodes it moves by at most their largest node distance
            path = InterpolatedPath(run(fn, x0, 0.1, 10), 1.0)
            exact_sol = FlowSolution(name, h, sol.ts, exact, sol.min_norm_subgrads, sol.f_values)
            gap = np.linalg.norm(sol.xs - exact, axis=1).max()
            moved = abs(sup_deviation(path, sol).sup_dev - sup_deviation(path, exact_sol).sup_dev)
            assert moved <= gap + 16 * eps, (name, h, moved, gap)


def test_f_values_non_increasing_up_to_lh():
    cases = [
        (QUAD1, [1.0], 1.0, 1e-3, 1.0),
        (ABS1, [0.05], 1.0, 1e-4, 1.0),
        (get_function("vee_bowl"), [0.3, 0.8], 1.0, 1e-3, 2.0),
        (CROSS, [1.0, 0.3], 1.0, 1e-3, 1.0),
    ]
    for fn, x0, horizon, h, lip in cases:
        sol = integrate_flow(fn, x0, horizon, h)
        increments = np.diff(sol.f_values)
        assert increments.max() <= lip * h


def test_sup_deviation_quad_alpha01():
    traj = run(QUAD1, [1.0], 0.1, 10)
    sol = integrate_flow(QUAD1, [1.0], 1.0, 1e-3)
    dev = sup_deviation(InterpolatedPath(traj, 1.0), sol)
    assert dev.sup_dev == pytest.approx(0.0192, abs=2e-3)
    assert dev.t_argmax == pytest.approx(1.0, abs=1e-9)


def test_sup_deviation_shrinks_with_alpha():
    # halving alpha (flow step pinned at alpha/100) cuts the gap well below 0.75x
    devs = []
    for alpha in (0.2, 0.1, 0.05, 0.025):
        traj = run(QUAD1, [1.0], alpha, int(round(1.0 / alpha)))
        sol = integrate_flow(QUAD1, [1.0], 1.0, alpha / 100.0)
        devs.append(sup_deviation(InterpolatedPath(traj, 1.0), sol).sup_dev)
    for a, b in zip(devs, devs[1:]):
        assert b <= 0.75 * a

    vb = get_function("vee_bowl")
    devs = []
    for alpha in (0.2, 0.1, 0.05, 0.025):
        traj = run(vb, [0.0, 0.8], alpha, int(round(1.0 / alpha)))
        sol = integrate_flow(vb, [0.0, 0.8], 1.0, alpha / 100.0)
        devs.append(sup_deviation(InterpolatedPath(traj, 1.0), sol).sup_dev)
    for a, b in zip(devs, devs[1:]):
        assert b <= 0.75 * a


def test_sup_deviation_stationary_is_zero():
    traj = run(CROSS, [1.0, 0.0], 0.1, 10)
    sol = integrate_flow(CROSS, [1.0, 0.0], 1.0, 1e-3)
    assert sup_deviation(InterpolatedPath(traj, 1.0), sol).sup_dev == 0.0


def _pointwise_sup_deviation(path, sol):
    # reference: one point at a time with the scalar formulas of both curves
    traj, alpha = path.trajectory, path.trajectory.alpha

    def on_path(t):
        k = min(int(np.floor(t / alpha)), traj.n_steps - 1)
        if t == alpha * k:
            return traj.points[k]
        if t == alpha * (k + 1):
            return traj.points[k + 1]
        return traj.points[k] + (t - alpha * k) / alpha * (traj.points[k + 1] - traj.points[k])

    def on_flow(t):
        j = int(np.searchsorted(sol.ts, t, side="right")) - 1
        if sol.ts[j] == t:
            return sol.xs[j]
        return sol.xs[j] + (t - sol.ts[j]) / (sol.ts[j + 1] - sol.ts[j]) * (sol.xs[j + 1] - sol.xs[j])

    node_ts = alpha * np.arange(traj.n_steps + 1)
    grid = np.union1d(node_ts[node_ts <= path.t_max], sol.ts[sol.ts <= path.t_max])
    gaps = [float(np.linalg.norm(on_path(t) - on_flow(t))) for t in grid]
    i = int(np.argmax(gaps))
    return gaps[i], float(grid[i])


def test_sup_deviation_matches_pointwise_reference():
    # off-node flow steps put each curve's grid between the other's nodes
    cases = [("neg_norm", [0.3, -0.4], 0.1, 1.0, 0.03), ("cross", [1.0, 0.1], 0.1, 1.0, 0.03),
             ("abs_sum", [0.0, 0.0, 0.5, 1.0], 0.1, 1.0, 0.007), ("wiggle", [0.3], 0.05, 0.7, 0.013),
             ("vee_bowl", [0.0, 0.8], 0.1, 1.0, 1e-3), ("neg_norm", [0.1, 0.2, -0.3], 0.1, 0.95, 0.07),
             # norm(axis=1) in place of the per-row norm moves this one's last bit
             ("quad", [0.78, 0.17], 0.1, 1.0, 0.03)]
    for name, x0, alpha, horizon, h in cases:
        fn = get_function(name, len(x0))
        path = InterpolatedPath(run(fn, x0, alpha, int(np.ceil(horizon / alpha))), horizon)
        dev = sup_deviation(path, integrate_flow(fn, x0, horizon, h))
        want = _pointwise_sup_deviation(path, integrate_flow(fn, x0, horizon, h))
        assert (dev.sup_dev, dev.t_argmax) == want, name


def test_sup_deviation_horizon_mismatch():
    traj = run(QUAD1, [1.0], 0.1, 5)  # covers [0, 0.5] only
    sol = integrate_flow(QUAD1, [1.0], 1.0, 1e-3)
    with pytest.raises(HorizonMismatch):
        sup_deviation(InterpolatedPath(traj, 1.0), sol)


def test_flow_value_nodes_exact_and_bounded():
    sol = integrate_flow(QUAD1, [1.0], 0.5, 1e-2)
    for j in (0, 7, sol.ts.shape[0] - 1):
        npt.assert_array_equal(flow_value(sol, sol.ts[j]), sol.xs[j])
    npt.assert_array_equal(flow_value(sol, sol.ts), sol.xs)
    for bad in (0.51, -1e-3, np.nan, [0.1, np.nan]):
        with pytest.raises(OutOfHorizon):
            flow_value(sol, bad)
    # off-node times, and a final step shorter than h: each row of the array
    # call is the scalar call's bits
    sol = integrate_flow(CROSS, [1.0, 0.1], 1.0, 0.03)
    ts = np.append(np.linspace(0.0, 1.0, 41), [0.99 + 1e-16, 1.0 - 1e-16])
    rows = flow_value(sol, ts)
    assert rows.shape == (ts.size, 2)
    for t, row in zip(ts, rows):
        assert row.tobytes() == flow_value(sol, t).tobytes()


def test_node_times_give_the_stored_points_bit_for_bit():
    # shuffled arrays that mix every node time with interior times, on each catalog function and step size
    rng = np.random.default_rng(19)
    starts = {"quad": [0.7, -0.0], "abs_sum": [0.05, -0.3], "cross": [1.0, 0.1], "wiggle": [0.3],
              "vee_bowl": [-0.0, 0.8], "neg_norm": [0.3, -0.4]}
    for name, x0 in starts.items():
        fn = get_function(name, len(x0))
        for alpha in (0.1, 0.03, 0.007, 1 / 3):
            traj = run(fn, x0, alpha, 40)
            sol = integrate_flow(fn, x0, 40.5 * alpha, alpha)  # a last node after a short step
            for at, nodes, stored in ((lambda t: interpolate(InterpolatedPath(traj, 40 * alpha), t),
                                       alpha * np.arange(41), traj.points),
                                      (lambda t: flow_value(sol, t), sol.ts, sol.xs)):
                ts = np.append(nodes, nodes[:-1] + rng.uniform(size=nodes.size - 1) * np.diff(nodes))
                perm = rng.permutation(ts.size)
                rows = np.empty((ts.size, fn.dim))
                rows[perm] = at(ts[perm])
                assert rows[:nodes.size].tobytes() == stored.tobytes(), (name, alpha)


def test_integrate_flow_validates_step():
    with pytest.raises(ValueError):
        integrate_flow(QUAD1, [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_flow(QUAD1, [1.0], 0.5, 1.0)
    for horizon in (np.inf, np.nan, 10 ** 400):
        with pytest.raises(ValueError, match="horizon"):
            integrate_flow(QUAD1, [1.0], horizon, 0.1)
    with pytest.raises(ValueError, match="^h must be"):  # an int beyond float range is refused as inf is
        integrate_flow(QUAD1, [1.0], 1.0, 10 ** 400)


def test_diverging_flow_names_the_time():
    # each step at h=3000 multiplies x by -2999, so |x| passes DIVERGENCE_LIMIT (1e100) at step 29, t = 29 * 3000
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match=r"^flow diverged at t=87000\.0$"):
        integrate_flow(QUAD1, [1.0], 100000.0, 3000.0)
