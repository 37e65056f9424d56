import numpy as np
import numpy.testing as npt
import pytest

from nsdyn import (
    cross_update,
    doubling_check,
    escape_experiment,
    get_function,
    monotone_drift_check,
    run,
    step,
)
from nsdyn.counterexample import DEFAULT_ALPHAS
from nsdyn.engine import make_rng
from nsdyn.errors import OnNullSet, PreconditionViolated

CROSS = get_function("cross")


def _by_hand(x1, x2, alpha):
    y1 = x1 - 1.5 * alpha * abs(x1) ** 0.5 * abs(x2) ** 1.5 * np.sign(x1)
    y2 = x2 - 1.5 * alpha * abs(x1) ** 1.5 * abs(x2) ** 0.5 * np.sign(x2)
    return np.array([y1, y2])


def test_cross_update_sign_cases():
    npt.assert_allclose(cross_update([1.0, 0.1], 0.1), _by_hand(1.0, 0.1, 0.1), rtol=1e-15)
    npt.assert_allclose(cross_update([1.0, 0.1], 0.1),
                        [0.9952565835097474, 0.05256583509747431], rtol=1e-12)
    npt.assert_allclose(cross_update([1.0, -0.1], 0.1),
                        [0.9952565835097474, -0.05256583509747431], rtol=1e-12)
    npt.assert_allclose(cross_update([-1.0, 0.1], 0.1),
                        [-0.9952565835097474, 0.05256583509747431], rtol=1e-12)


def test_cross_update_rejects_axis_points():
    for bad in ([1.0, 0.0], [0.0, 0.3], [0.0, 0.0]):
        with pytest.raises(OnNullSet):
            cross_update(bad, 0.1)


def test_cross_update_agrees_with_engine_step():
    rng = make_rng(271828)
    for _ in range(2000):
        x = rng.uniform(-2.0, 2.0, 2)
        if x[0] * x[1] == 0.0:
            continue
        alpha = float(rng.choice(DEFAULT_ALPHAS))
        via_engine, _ = step(CROSS, x, alpha)
        via_formula = cross_update(x, alpha)
        npt.assert_array_equal(via_formula, via_engine)


def test_doubling_boundary_example():
    # |x2| exactly at the alpha^2/32 threshold
    x2 = 3.125e-4
    assert doubling_check([1.0, x2], 0.1)
    y = cross_update([1.0, x2], 0.1)
    assert abs(y[1]) == pytest.approx(2.3391504294495535e-3, rel=1e-12)
    assert abs(y[1]) >= 2 * x2


def test_doubling_deep_regime():
    assert doubling_check([0.5, 1e-6], 0.1)


def test_doubling_precondition():
    with pytest.raises(PreconditionViolated):
        doubling_check([1.0, 0.0], 0.1)
    with pytest.raises(PreconditionViolated):
        doubling_check([0.4, 1e-6], 0.1)  # x1 below 1/2
    with pytest.raises(PreconditionViolated):
        doubling_check([1.0, 0.01], 0.1)  # |x2| above alpha^2/32


def test_doubling_holds_on_random_instances():
    rng = make_rng(424242)
    for _ in range(2000):
        alpha = float(rng.choice(DEFAULT_ALPHAS))
        x1 = float(rng.uniform(0.5, 1.5))
        x2 = float(rng.uniform(0.0, 1.0)) * alpha * alpha / 32.0
        if x2 == 0.0:
            continue
        if rng.uniform() < 0.5:
            x2 = -x2
        assert doubling_check([x1, x2], alpha)


def test_escape_experiment_counts_all_offS_escapes():
    stats, per_sample = escape_experiment(0.25, 0.3, 50, k_max=2000, seed=7)
    assert stats.escaped_count == 50
    assert stats.stuck_on_S_count == 0
    assert stats.non_escaped_offS_count == 0
    assert 0 < stats.max_exit_index <= 2000
    assert np.all(per_sample["exit_index"] >= 1)


def test_escape_experiment_forced_axis_start():
    stats, per_sample = escape_experiment(0.25, 0.1, 1, k_max=100, seed=7,
                                          initial_points=[[1.0, 0.0]])
    assert stats.escaped_count == 0
    assert stats.stuck_on_S_count == 1
    assert per_sample["on_S"][0]
    assert per_sample["exit_index"][0] == -1
    # an axis start outside the ball exits at 0, as an off-axis one does, and
    # counts as escaped only: stuck counts the axis starts inside the ball
    stats, per_sample = escape_experiment(0.25, 0.1, 3, k_max=100, seed=7,
                                          initial_points=[[1.0, 0.0], [1.5, 0.0], [1.5, 0.1]])
    assert per_sample["exit_index"].tolist() == [-1, 0, 0]
    assert per_sample["on_S"].tolist() == [True, True, False]
    assert (stats.escaped_count, stats.stuck_on_S_count, stats.non_escaped_offS_count) == (2, 1, 0)


def test_escape_experiment_regression_baseline():
    # measured max exit at this seed: 10845 steps; pinned with 2x slack
    stats, _ = escape_experiment(0.25, 0.1, 1000, k_max=100_000, seed=7)
    assert stats.escaped_count == 1000
    assert stats.max_exit_index <= 2 * 10_845


def test_escape_experiment_validates_epsilon():
    with pytest.raises(ValueError):
        escape_experiment(0.6, 0.1, 10)
    with pytest.raises(ValueError):
        escape_experiment(0.0, 0.1, 10)


def test_monotone_drift_along_escape():
    traj = run(CROSS, [1.0, 0.1], 0.1, 100)
    assert monotone_drift_check(traj)


def test_monotone_drift_preconditions():
    with pytest.raises(PreconditionViolated):
        monotone_drift_check(run(CROSS, [1.0, 0.0], 0.1, 5))
    with pytest.raises(PreconditionViolated):
        monotone_drift_check(run(CROSS, [-1.0, 0.1], 0.1, 5))
    with pytest.raises(PreconditionViolated):
        monotone_drift_check(run(get_function("quad", 2), [1.0, 0.1], 0.1, 5))


def test_small_x2_grows_until_leaving_the_doubling_region():
    # once 0 < |x2| <= alpha^2/32 with x1 >= 1/2, |x2| increases strictly
    # until the doubling precondition or the ball containment fails
    alpha = 0.3
    bound = alpha * alpha / 32.0
    traj = run(CROSS, [1.0, 1e-12], alpha, 200)
    x = traj.points
    inside = lambda p: (p[0] - 1.0) ** 2 + p[1] ** 2 <= 0.25 ** 2
    k = 0
    grew = 0
    while 0.0 < abs(x[k, 1]) <= bound and x[k, 0] >= 0.5 and inside(x[k]):
        assert abs(x[k + 1, 1]) >= 2.0 * abs(x[k, 1])
        grew += 1
        k += 1
    assert grew >= 2
