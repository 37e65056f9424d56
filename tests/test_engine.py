import numpy as np
import numpy.testing as npt
import pytest

from nsdyn import (
    InterpolatedPath,
    MINIMAL_NORM,
    SelectionPolicy,
    first_exit,
    get_function,
    hull_distance,
    interpolate,
    run,
    run_batch,
    sample_ball,
    step,
    subdifferential,
)
from nsdyn.engine import DIVERGENCE_LIMIT, derive_seed, make_rng
from nsdyn.errors import NonFiniteState, OutOfHorizon

QUAD1 = get_function("quad", 1)
CROSS = get_function("cross")
ABS1 = get_function("abs_sum", 1)


def test_step_quad():
    x, s = step(QUAD1.__class__(2), [1.0, 0.0], 0.1)
    npt.assert_array_equal(x, [0.9, 0.0])
    npt.assert_array_equal(s, [1.0, 0.0])


def test_step_cross_matches_displayed_update():
    x, s = step(CROSS, [1.0, 0.1], 0.1)
    want_s1 = 1.5 * np.sqrt(1.0) * 0.1 * np.sqrt(0.1)
    want_s2 = 1.5 * 1.0 * np.sqrt(1.0) * np.sqrt(0.1)
    npt.assert_allclose(s, [want_s1, want_s2], rtol=1e-15)
    npt.assert_allclose(x, [1.0 - 0.1 * want_s1, 0.1 - 0.1 * want_s2], rtol=1e-15)
    npt.assert_allclose(x, [0.9952565835097474, 0.05256583509747431], rtol=1e-12)


def test_step_abs_sum_kink_is_fixed_point():
    x, s = step(ABS1, [0.0], 0.1, MINIMAL_NORM)
    npt.assert_array_equal(x, [0.0])
    npt.assert_array_equal(s, [0.0])


def test_step_rejects_nonfinite_state():
    with pytest.raises(NonFiniteState):
        step(QUAD1, [np.nan], 0.1)


def test_run_quad_closed_form():
    traj = run(QUAD1, [1.0], 0.1, 10)
    want = 0.9 ** np.arange(11)
    npt.assert_allclose(traj.points[:, 0], want, rtol=1e-12)
    assert traj.points[10, 0] == pytest.approx(0.3486784401, rel=1e-10)


def test_run_abs_sum_oscillates_exactly():
    traj = run(ABS1, [0.05], 0.1, 4)
    npt.assert_array_equal(traj.points[:, 0], [0.05, -0.05, 0.05, -0.05, 0.05])


def test_run_cross_axis_point_is_stationary():
    traj = run(CROSS, [1.0, 0.0], 0.2, 25)
    assert np.all(traj.points == np.array([1.0, 0.0]))
    assert np.all(traj.chosen_subgradients == 0.0)


def test_run_zero_steps_records_initial_point():
    traj = run(QUAD1, [1.0], 0.1, 0)
    assert traj.points.shape == (1, 1)
    assert traj.chosen_subgradients.shape == (0, 1)


def test_recursion_identity_is_exact():
    for fn, x0 in [(QUAD1, [0.7]), (CROSS, [1.0, 0.3]), (ABS1, [0.31])]:
        traj = run(fn, x0, 0.07, 40)
        recon = traj.points[:-1] - traj.alpha * traj.chosen_subgradients
        npt.assert_array_equal(recon, traj.points[1:])


def test_replay_is_bit_identical():
    for policy in (MINIMAL_NORM, SelectionPolicy("random_extreme"), SelectionPolicy("fixed_index", 1)):
        a = run(ABS1, [0.0], 0.1, 30, policy, seed=123)
        b = run(ABS1, [0.0], 0.1, 30, policy, seed=123)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.chosen_subgradients.tobytes() == b.chosen_subgradients.tobytes()
    c = run(ABS1, [0.0], 0.1, 30, SelectionPolicy("random_extreme"), seed=124)
    a = run(ABS1, [0.0], 0.1, 30, SelectionPolicy("random_extreme"), seed=123)
    assert a.points.tobytes() != c.points.tobytes()


def test_chosen_subgradients_live_in_the_hull():
    traj = run(ABS1, [0.0], 0.1, 20, SelectionPolicy("random_extreme"), seed=5)
    for k in range(traj.n_steps):
        s = subdifferential(ABS1, traj.points[k], 0.0)
        assert hull_distance(s, traj.chosen_subgradients[k]) <= 1e-10


def test_policies_coincide_on_singletons():
    x = [0.4, -0.2]
    qq = get_function("quad", 2)
    base, _ = step(qq, x, 0.1, MINIMAL_NORM)
    for policy in (SelectionPolicy("random_extreme"), SelectionPolicy("fixed_index", 3)):
        rng = make_rng(0)
        got, _ = step(qq, x, 0.1, policy, rng)
        npt.assert_array_equal(got, base)
        # a singleton leaves nothing to draw, so the stream stays put
        assert rng.random() == make_rng(0).random()
    rng = make_rng(0)
    step(ABS1, [0.0], 0.1, SelectionPolicy("random_extreme"), rng)
    assert rng.random() != make_rng(0).random()


def test_interpolate_examples():
    traj = run(QUAD1, [1.0], 0.1, 10)
    path = InterpolatedPath(traj, 1.0)
    npt.assert_allclose(interpolate(path, 0.05), [0.95], rtol=1e-15)
    osc = InterpolatedPath(run(ABS1, [0.05], 0.1, 4), 0.4)
    assert abs(interpolate(osc, 0.15)[0]) < 1e-16
    # an array of times gives one row per time, each the scalar call's bits
    path = InterpolatedPath(run(CROSS, [1.0, 0.25], 0.1, 12), 1.2)
    ts = np.append(np.linspace(0.0, 1.2, 37), [0.3 + 1e-17, 1.2 - 1e-16])
    rows = interpolate(path, ts)
    assert rows.shape == (ts.size, 2)
    for t, row in zip(ts, rows):
        assert row.tobytes() == interpolate(path, t).tobytes()


def test_interpolate_nodes_are_exact():
    for fn, x0 in [(QUAD1, [1.0]), (CROSS, [1.0, 0.25]), (ABS1, [0.05])]:
        traj = run(fn, x0, 0.1, 12)
        path = InterpolatedPath(traj, 0.1 * 12)
        for k in range(13):
            npt.assert_array_equal(interpolate(path, 0.1 * k), traj.points[k])
        npt.assert_array_equal(interpolate(path, 0.1 * np.arange(13)), traj.points)
    zero = run(QUAD1, [-0.0], 0.1, 0)
    assert interpolate(InterpolatedPath(zero, 1.0), [0.0]).tobytes() == zero.points.tobytes()


def test_interpolate_horizon_errors():
    path = InterpolatedPath(run(QUAD1, [1.0], 0.1, 10), 0.5)
    assert path.t_max == 0.5
    with pytest.raises(OutOfHorizon):
        interpolate(path, 0.6)
    with pytest.raises(OutOfHorizon):
        interpolate(path, -0.01)
    for bad in (np.nan, [0.1, np.nan], [0.2, 0.7]):
        with pytest.raises(OutOfHorizon):
            interpolate(path, bad)


def test_first_exit_examples():
    traj = run(QUAD1, [1.0], 0.1, 10)
    assert first_exit(traj, [0.0], 2.0) is None
    # start already outside the ball: the violation index is 0
    assert first_exit(traj, [0.0], 0.5) == 0
    # monotone contraction from inside never exits
    inner = run(QUAD1, [0.4], 0.1, 10)
    assert first_exit(inner, [0.0], 0.5) is None
    osc = run(ABS1, [0.05], 0.1, 4)
    assert first_exit(osc, [0.2], 0.1) == 0


def test_run_stop_ball_truncates_at_first_exit():
    nn = get_function("neg_norm", 2)
    traj = run(nn, [0.05, 0.0], 0.1, 100, stop=([0.0, 0.0], 0.3))
    k = first_exit(traj, [0.0, 0.0], 0.3)
    assert k == traj.points.shape[0] - 1
    assert np.linalg.norm(traj.points[-1]) > 0.3
    assert np.all(np.linalg.norm(traj.points[:-1], axis=1) <= 0.3)


def test_divergence_flagged_not_raised():
    traj = run(QUAD1, [1.0], 3.0, 400)  # |x| doubles every step
    assert traj.diverged_at == 333
    assert traj.points.shape == (334, 1)
    assert abs(traj.points[-1, 0]) > DIVERGENCE_LIMIT
    assert np.all(np.abs(traj.points[:-1, 0]) <= DIVERGENCE_LIMIT)
    # the keep test applies from the start, so a NaN start diverges at 0
    assert run(QUAD1, [np.nan], 0.1, 5).diverged_at == 0
    # run_batch retires a diverged row at its divergence step, with run's last point
    x0s = np.array([[1.0], [np.nan]])
    exit_idx, last = run_batch(QUAD1, x0s, 3.0, 400)
    npt.assert_array_equal(exit_idx, [333, 0])
    for i, x0 in enumerate(x0s):
        assert last[i].tobytes() == run(QUAD1, x0, 3.0, 400).points[-1].tobytes()


def test_bad_exit_ball_is_rejected_everywhere():
    traj = run(QUAD1, [1.0], 0.1, 3)
    for center, radius in [([0.0], 0.0), ([0.0], -0.1), ([0.0], np.nan), ([0.0], np.inf),
                           ([np.nan], 0.5), ([1e100], 0.5)]:
        with pytest.raises(ValueError):
            run(QUAD1, [1.0], 0.1, 3, stop=(center, radius))
        with pytest.raises(ValueError):
            run_batch(QUAD1, np.ones((2, 1)), 0.1, 3, center, radius)
        with pytest.raises(ValueError):
            first_exit(traj, center, radius)


def test_batch_matches_scalar_bitwise():
    cases = [
        ("quad", 2, [[0.3, -1.2], [0.0, 0.0]]),
        ("abs_sum", 2, [[0.0, 5.0], [0.31, -0.11]]),
        ("cross", 2, [[1.0, 0.1], [1.0, 0.0], [-0.7, 0.4]]),
        ("vee_bowl", 2, [[0.0, 0.8], [0.5, -0.5]]),
        ("neg_norm", 2, [[0.0, 0.0], [0.2, 0.1]]),
        ("wiggle", 1, [[0.0], [0.07]]),
        # kinks with two or more active coordinates
        ("abs_sum", 4, [[0.0, 0.0, 0.5, 1.0]]),
        ("abs_sum", 3, [[0.0, 2.0, 0.0]]),
        # ten coordinates: numpy's row sum of a column-major batch drifts one
        # ulp from the row-major replay on these starts
        ("neg_norm", 10, (sample_ball(np.zeros(10), 1.0, 200, make_rng(5)) + 2.0)[[85, 88]]),
    ]
    for name, dim, starts in cases:
        fn = get_function(name, dim)
        x0s = np.array(starts, float)
        for batch in (x0s, np.asfortranarray(x0s)):
            exit_idx, last = run_batch(fn, batch, 0.05, 37)
            assert np.all(exit_idx == -1)  # no exit ball: every sample runs the full budget
            for i, x0 in enumerate(x0s):
                traj = run(fn, x0, 0.05, 37)
                assert traj.points[-1].tobytes() == last[i].tobytes(), (name, i, batch.flags.f_contiguous)


def test_run_batch_matches_run_under_every_policy():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fns = [get_function(name, dim) for name, dim in (("abs_sum", 1), ("abs_sum", 3), ("vee_bowl", 2),
                                                     ("wiggle", 1), ("neg_norm", 1), ("neg_norm", 2),
                                                     ("cross", 2), ("quad", 2))]
    # exact kinks, starts that step onto one at alpha 0.25, and NaN starts
    coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.25, 0.75, np.nan]), st.floats(-1.0, 1.0))
    policies = [MINIMAL_NORM, SelectionPolicy("random_extreme"), SelectionPolicy("fixed_index", 1),
                SelectionPolicy("fixed_index", 2)]

    @hyp.settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @hyp.given(data=st.data(), fn=st.sampled_from(fns), policy=st.sampled_from(policies),
               alpha=st.sampled_from([0.25, 0.1, 0.03]), n_steps=st.integers(0, 12),
               radius=st.none() | st.floats(0.2, 2.0), column_major=st.booleans(),
               root=st.integers(0, 2 ** 32))
    def check(data, fn, policy, alpha, n_steps, radius, column_major, root):
        rows = data.draw(st.lists(st.lists(coord, min_size=fn.dim, max_size=fn.dim), min_size=1, max_size=5))
        x0s = np.array(rows, float)
        batch = np.asfortranarray(x0s) if column_major else x0s
        seeds = [derive_seed(root, i) for i in range(len(rows))]
        stop = None if radius is None else (np.zeros(fn.dim), radius)
        exit_idx, last = run_batch(fn, batch, alpha, n_steps, *(stop or (None, None)), policy, seeds.__getitem__)
        for i, x0 in enumerate(x0s):
            traj = run(fn, x0, alpha, n_steps, policy, seed=seeds[i], stop=stop)
            hit = traj.diverged_at if stop is None else first_exit(traj, *stop)
            assert exit_idx[i] == (-1 if hit is None else hit)
            assert last[i].tobytes() == traj.points[-1].tobytes()

    check()


def test_alpha_must_be_finite_and_positive():
    for alpha in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            step(QUAD1, [1.0], alpha)
        with pytest.raises(ValueError, match="alpha"):
            run(QUAD1, [1.0], alpha, 3)
        with pytest.raises(ValueError, match="alpha"):
            run_batch(QUAD1, np.ones((2, 1)), alpha, 3)


def test_random_extreme_needs_a_stream_only_at_kinks():
    policy = SelectionPolicy("random_extreme")
    step(ABS1, [0.5], 0.1, policy)  # one generator: nothing to draw
    run_batch(ABS1, np.array([[0.5], [-0.3]]), 0.1, 3, policy=policy)
    with pytest.raises(ValueError, match="rng"):
        step(ABS1, [0.0], 0.1, policy)
    with pytest.raises(ValueError, match="rng"):
        run_batch(ABS1, np.array([[0.5], [0.0]]), 0.1, 3, policy=policy)


class _CountingOracle:
    """Delegates to a catalog function, recording the rows of each min_norm_many call."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = []

    def __getattr__(self, name):
        return getattr(self.fn, name)

    def min_norm_many(self, pts):
        self.rows.append(pts.shape[0])
        return self.fn.min_norm_many(pts)


def test_batch_exit_indices_match_first_exit():
    nn = get_function("neg_norm", 2)
    rng = make_rng(17)
    x0s = sample_ball(np.zeros(2), 0.05, 8, rng)
    x0s[0] = [0.2, 0.0]  # starts outside: exit 0, never stepped
    x0s[1] = [0.0, 0.0]  # the zero field keeps it inside: runs the full budget
    before = x0s.tobytes()
    oracle = _CountingOracle(nn)
    exit_idx, _ = run_batch(oracle, x0s, 0.01, 50, np.zeros(2), 0.1)
    assert x0s.tobytes() == before  # the in-place step loop works on its own copy
    assert exit_idx[0] == 0 and exit_idx[1] == -1
    for i, x0 in enumerate(x0s):
        traj = run(nn, x0, 0.01, 50)
        assert first_exit(traj, np.zeros(2), 0.1) == (None if exit_idx[i] < 0 else exit_idx[i])
    # one oracle call per loop iteration, on the rows still alive at that step
    steps = np.where(exit_idx >= 0, exit_idx, 50)
    assert oracle.rows == [int((steps >= k).sum()) for k in range(1, 51)]
    assert sum(oracle.rows) == steps.sum()
    for batch in (x0s, np.asfortranarray(x0s)):  # and without an exit ball, in either layout
        kept = batch.tobytes(order="A")
        run_batch(nn, batch, 0.01, 5)
        assert batch.tobytes(order="A") == kept


def test_cross_iterates_avoid_axis_set():
    # continuous starts never land exactly on {x1*x2 = 0} along the run
    cross = get_function("cross")
    rng = make_rng(2024)
    pts = sample_ball(np.array([1.0, 0.0]), 0.25, 10_000, rng)
    pts = pts[pts[:, 0] * pts[:, 1] != 0.0]
    assert pts.shape[0] == 10_000
    x = pts.copy()
    for _ in range(50):
        x = x - 0.1 * cross.min_norm_many(x)
        assert np.all(x[:, 0] * x[:, 1] != 0.0)


def test_sample_ball_contained_and_seeded():
    center = np.array([1.0, -2.0, 0.5])
    a = sample_ball(center, 0.7, 500, make_rng(9))
    b = sample_ball(center, 0.7, 500, make_rng(9))
    npt.assert_array_equal(a, b)
    assert np.all(np.linalg.norm(a - center, axis=1) <= 0.7)
    assert np.linalg.norm(a - center, axis=1).max() > 0.5


def test_derive_seed_is_stable_and_index_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert 0 <= derive_seed(123, 0) < 2 ** 64
