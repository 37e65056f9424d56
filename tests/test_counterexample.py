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
    run_batch,
)
from nsdyn import counterexample
from nsdyn.engine import make_rng
from nsdyn.errors import OnNullSet, PreconditionViolated

CROSS = get_function("cross")
ALPHAS = (0.01, 0.05, 0.1, 0.3)  # the step sizes of the C1 criterion


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
    for bad in ([1.0, 0.0], [0.0, 0.3], [0.0, 0.0], [1.0, -0.0], [-0.0, 0.3]):
        with pytest.raises(OnNullSet):
            cross_update(bad, 0.1)


def test_cross_update_agrees_with_engine_step():
    rng = make_rng(271828)
    xs, alphas = [], []
    for _ in range(2000):
        x = rng.uniform(-2.0, 2.0, 2)
        if x[0] * x[1] == 0.0:
            continue
        xs.append(x)
        alphas.append(float(rng.choice(ALPHAS)))
    xs, alphas = np.array(xs), np.array(alphas)
    for alpha in np.unique(alphas).tolist():  # one engine step on every point drawn with this alpha
        pts = xs[alphas == alpha]
        exit_idx, via_engine = run_batch(CROSS, pts, alpha, 1)
        assert (exit_idx == -1).all()
        npt.assert_array_equal(np.array([cross_update(x, alpha) for x in pts]), via_engine)
    # off the axis set, though x1 * x2 underflows to 0
    tiny = np.array([[1e-200, 1e-200], [0.5, 5e-324]])
    for alpha in ALPHAS:
        exit_idx, via_engine = run_batch(CROSS, tiny, alpha, 1)
        assert (exit_idx == -1).all()
        npt.assert_array_equal(np.array([cross_update(x, alpha) for x in tiny]), via_engine)


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


def _doubling_instances():
    """(x, alpha) inside the doubling precondition: the two examples above, then 2000 random draws."""
    cases = [([1.0, 3.125e-4], 0.1), ([0.5, 1e-6], 0.1)]
    rng = make_rng(424242)
    for _ in range(2000):
        alpha = float(rng.choice(ALPHAS))
        x1 = float(rng.uniform(0.5, 1.5))
        x2 = float(rng.uniform(0.0, 1.0)) * alpha * alpha / 32.0
        if x2 == 0.0:
            continue
        if rng.uniform() < 0.5:
            x2 = -x2
        cases.append(([x1, x2], alpha))
    return cases


def test_doubling_holds_on_random_instances():
    for x, alpha in _doubling_instances():
        assert doubling_check(x, alpha)


def test_escape_experiment_counts_all_offS_escapes():
    stats, per_sample = escape_experiment(0.25, 0.3, 50, k_max=2000, seed=7)
    assert stats.escaped_count == 50
    assert stats.stuck_on_S_count == 0
    assert stats.non_escaped_offS_count == 0
    assert 0 < stats.max_exit_index <= 2000
    assert np.all(per_sample["exit_index"] >= 1)


def test_escape_experiment_forced_axis_start(monkeypatch):
    # (epsilon, alpha, k_max, starts, exit indices, on_S, (escaped, stuck, non-escaped off S)); every start is
    # counted once.  An axis start inside the ball is a fixed point and counts as stuck; one outside exits at 0,
    # as an off-axis one does, and counts as escaped only.  (0.5, 5e-324) is off S, though x1 * x2 underflows.
    # The uniform sampler never draws these starts, so the test substitutes the sampler the experiment calls.
    cases = [
        (0.25, 0.1, 100, [[1.0, 0.0]], [-1], [True], (0, 1, 0)),
        (0.25, 0.1, 100, [[1.0, 0.0], [1.5, 0.0], [1.5, 0.1]], [-1, 0, 0], [True, True, False], (2, 1, 0)),
        (0.5, 0.3, 5, [[0.5, 5e-324], [1.0, 0.0]], [-1, -1], [False, True], (0, 1, 1)),
    ]
    for epsilon, alpha, k_max, starts, exits, on_s, counts in cases:
        def forced(center, radius, n, rng):
            assert (center.tolist(), radius, n) == ([1.0, 0.0], epsilon, len(starts))
            return np.array(starts)

        monkeypatch.setattr(counterexample, "sample_ball", forced)
        stats, per_sample = escape_experiment(epsilon, alpha, len(starts), k_max=k_max, seed=7)
        assert per_sample["exit_index"].tolist() == exits
        assert per_sample["on_S"].tolist() == on_s
        assert (stats.escaped_count, stats.stuck_on_S_count, stats.non_escaped_offS_count) == counts
        assert sum(counts) == stats.n_samples


def test_chosen_starts_run_through_run_batch():
    # the experiment's exit indices are run_batch's on its sampled starts, so starts of one's own go there
    stats, per_sample = escape_experiment(0.25, 0.3, 40, k_max=90, seed=7)
    starts = np.column_stack([per_sample["x1_0"], per_sample["x2_0"]])
    exit_index, _ = run_batch(CROSS, starts, 0.3, 90, (1, 0), 0.25)
    assert exit_index.tolist() == per_sample["exit_index"].tolist()
    assert 0 < stats.escaped_count < 40  # both kinds of row: 90 steps fall short of the slowest exits


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
    assert escape_experiment(0.5, 0.1, 2, k_max=5)[0].epsilon == 0.5  # the interval is closed at 1/2
    # and the counts and the starts
    for kwargs, named in ((dict(n_samples=0), "n_samples"), (dict(k_max=0), "k_max")):
        with pytest.raises(ValueError, match=named):
            escape_experiment(**{"epsilon": 0.25, "alpha": 0.1, "n_samples": 2, **kwargs})


def test_escape_experiment_caps_its_batch_before_sampling(monkeypatch):
    # a batch of more rows than the memory budget admits in R^2 (10^6 at 160 bytes a coordinate) is refused on one
    # line naming n_samples, before the sampler allocates a row; the bound itself reaches the sampler
    def sampler(center, radius, n, rng):
        raise LookupError(n)

    monkeypatch.setattr(counterexample, "sample_ball", sampler)
    for n in (10 ** 6 + 1, 10 ** 13, 10 ** 23):
        with pytest.raises(ValueError, match=rf"^n_samples must be at most 1000000 in R\^2, got {n}$"):
            escape_experiment(0.25, 0.3, n, k_max=5)
    with pytest.raises(LookupError, match="^1000000$"):
        escape_experiment(0.25, 0.3, 10 ** 6, k_max=5)


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


def _exact_run(mp, x0, alpha, n_steps):
    """The off-axis update from the float start x0 at the float step alpha, in mpmath's working precision."""
    a = mp.mpf(alpha)
    x1, x2 = mp.mpf(x0[0]), mp.mpf(x0[1])
    points = [(x1, x2)]
    for _ in range(n_steps):
        r1, r2 = mp.sqrt(abs(x1)), mp.sqrt(abs(x2))
        x1, x2 = x1 - a * 1.5 * r1 * abs(x2) * r2 * mp.sign(x1), x2 - a * 1.5 * abs(x1) * r1 * r2 * mp.sign(x2)
        points.append((x1, x2))
    return points


def test_float_runs_shadow_60_digit_runs():
    """C1's lock-on attractor belongs to the dynamics, not to rounding; the float verdicts are the exact ones.

    From three of C1's seed-7 starts, float64 ``run`` stays within 4e-15 of a 60-digit replay (measured: at most
    5.7e-16 over 200 steps at alpha = 0.3, 1.9e-15 over 800 at alpha = 0.1).  Over the last 50 steps at
    alpha = 0.3 both runs sit on the period-2 cycle |x2| = (9/16) alpha^2 x1^3 (ratio 1.0026-1.0040).  The
    checks' inequalities give the 60-digit verdicts on their test inputs: doubling holds there with a margin
    of at least 4.7%, which no rounding of one step closes.
    """
    mp = pytest.importorskip("mpmath").mp
    starts = escape_experiment(0.25, 0.3, 1000, k_max=1, seed=7)[1][:3]  # C1's first three starts
    with mp.workdps(60):
        for alpha, n_steps in ((0.3, 200), (0.1, 800)):
            for x0 in zip(starts["x1_0"].tolist(), starts["x2_0"].tolist()):
                traj = run(CROSS, x0, alpha, n_steps)
                exact = _exact_run(mp, x0, alpha, n_steps)
                gap = max(max(abs(p[0] - e[0]), abs(p[1] - e[1])) for p, e in zip(traj.points.tolist(), exact))
                assert gap <= 4e-15, (x0, alpha, float(gap))
                assert monotone_drift_check(traj) and all(b[0] < a[0] for a, b in zip(exact, exact[1:]))
                if alpha == 0.3:
                    cycle = mp.mpf(9) / 16 * mp.mpf(alpha) ** 2
                    for x1, x2 in traj.points[-50:].tolist() + exact[-50:]:
                        assert 1.0 < abs(x2) / (cycle * x1 ** 3) < 1.005, (x0, x1, x2)
        for x, alpha in _doubling_instances():
            y2 = _exact_run(mp, x, alpha, 1)[1][1]
            assert doubling_check(x, alpha) == (abs(y2) >= 2 * abs(mp.mpf(x[1]))), (x, alpha)
        traj = run(CROSS, [1.0, 0.1], 0.1, 100)  # test_monotone_drift_along_escape's run
        exact = _exact_run(mp, [1.0, 0.1], 0.1, 100)
        assert monotone_drift_check(traj) == all(b[0] < a[0] for a, b in zip(exact, exact[1:]))
