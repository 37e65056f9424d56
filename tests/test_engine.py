import itertools
import pickle
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from nsdyn import (
    InterpolatedPath,
    MINIMAL_NORM,
    SelectionPolicy,
    StabilityQuery,
    convex_bounds_report,
    cross_update,
    doubling_check,
    escape_experiment,
    estimate_lipschitz,
    first_exit,
    get_function,
    integrate_flow,
    interpolate,
    local_min_check,
    probe,
    run,
    run_batch,
    sample_ball,
)
from nsdyn.engine import (DIVERGENCE_LIMIT, MAX_RECORDED_STEPS, RECORD_BLOCK, Trajectory, _check_recorded, derive_seed,
                          make_rng)
from nsdyn.errors import DimensionMismatch, OutOfHorizon
from nsdyn.flow import flow_value
from nsdyn.stability import LIPSCHITZ_SAMPLES, LOCAL_MIN_SAMPLES
from reference import hull_distance

QUAD1 = get_function("quad", 1)
CROSS = get_function("cross")
ABS1 = get_function("abs_sum", 1)
HUGE = 10 ** 5000  # an int too long for Python to print (4300 digits at most), 16610 bits


def _one_step(fn, x, alpha, policy=MINIMAL_NORM, seed=0):
    """One update as ``run`` records it: (x - alpha * s, s)."""
    traj = run(fn, x, alpha, 1, policy, seed)
    return traj.points[1], traj.chosen_subgradients[0]


def test_step_quad():
    x, s = _one_step(get_function("quad", 2), [1.0, 0.0], 0.1)
    npt.assert_array_equal(x, [0.9, 0.0])
    npt.assert_array_equal(s, [1.0, 0.0])


def test_step_cross_matches_displayed_update():
    x, s = _one_step(CROSS, [1.0, 0.1], 0.1)
    want_s1 = 1.5 * np.sqrt(1.0) * 0.1 * np.sqrt(0.1)
    want_s2 = 1.5 * 1.0 * np.sqrt(1.0) * np.sqrt(0.1)
    npt.assert_allclose(s, [want_s1, want_s2], rtol=1e-15)
    npt.assert_allclose(x, [1.0 - 0.1 * want_s1, 0.1 - 0.1 * want_s2], rtol=1e-15)
    npt.assert_allclose(x, [0.9952565835097474, 0.05256583509747431], rtol=1e-12)


def test_step_abs_sum_kink_is_fixed_point():
    x, s = _one_step(ABS1, [0.0], 0.1, MINIMAL_NORM)
    npt.assert_array_equal(x, [0.0])
    npt.assert_array_equal(s, [0.0])


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
    assert MAX_RECORDED_STEPS == 10 ** 7
    _check_recorded(MAX_RECORDED_STEPS, "steps")  # the one cap of every recorded budget, probe's K too
    with pytest.raises(ValueError, match="--epsilon/--alpha-grid must give between 0 and 10000000 recorded steps"):
        _check_recorded(MAX_RECORDED_STEPS + 1, "--epsilon/--alpha-grid")
    for n_steps in (-1, 10 ** 7 + 1):  # refused before anything is allocated, here a start outside the ball
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="steps"):
                run(QUAD1, [1.0], 0.1, n_steps, stop=([0.0], 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
    with pytest.raises(ValueError, match="n_steps"):  # the batch loop would run no test, not even at k = 0
        run_batch(QUAD1, np.array([[5.0]]), 0.1, -1, [0.0], 1.0)


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
        gens = ABS1.generators(traj.points[k], 0.0)
        assert hull_distance(gens, traj.chosen_subgradients[k]) <= 1e-10


def test_policies_coincide_on_singletons():
    x = [0.4, -0.2]
    qq = get_function("quad", 2)
    base = run(qq, x, 0.1, 1, MINIMAL_NORM)
    for policy in (SelectionPolicy("random_extreme"), SelectionPolicy("fixed_index", 3)):
        got = run(qq, x, 0.1, 1, policy, seed=0)
        assert got.points.tobytes() == base.points.tobytes()
        assert got.chosen_subgradients.tobytes() == base.chosen_subgradients.tobytes()
    # a singleton leaves nothing to draw, so the stream stays put: from 0.25 at alpha 0.25 abs_sum steps onto
    # its kink at k = 1 and draws there what a run started on the kink draws at k = 0 under the same seed
    policy, picks = SelectionPolicy("random_extreme"), set()
    for seed in range(32):
        after = run(ABS1, [0.25], 0.25, 2, policy, seed=seed)
        at = run(ABS1, [0.0], 0.25, 1, policy, seed=seed)
        assert after.points[1, 0] == 0.0
        assert after.chosen_subgradients[1, 0] == at.chosen_subgradients[0, 0], seed
        picks.add(float(at.chosen_subgradients[0, 0]))
    assert picks == {-1.0, 1.0}  # the kink does draw


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


def test_recorded_loop_exits_at_the_first_failing_iterate():
    # at alpha 3 quad maps x to -2x exactly, so |x_k| = |x_0| * 2^k, with |x_0| in (1, 2) * 2^-K, leaves the
    # unit ball at k = K; the recorded loop steps and tests a block of RECORD_BLOCK iterates at once, with a
    # step written out in R^1 and R^2 and a loop in R^3, and must still stop at K on each side of a block edge
    b = RECORD_BLOCK
    for dim in (1, 2, 3):
        quad, center = get_function("quad", dim), np.zeros(dim)
        for exit_k in (1, b // 2, b - 1, b, b + 1, 2 * b, 2 * b + 1):
            for n_steps in (0, 1, b - 1, b, b + 1, 2 * b + 7, 3 * b):
                x0 = [c * 2.0 ** -exit_k for c in (1.5, -0.75, 0.375)[:dim]]
                traj = run(quad, x0, 3.0, n_steps, stop=(center, 1.0))
                k_last = min(exit_k, n_steps)
                assert traj.points.shape == (k_last + 1, dim) and traj.diverged_at is None
                assert first_exit(traj, center, 1.0) == (exit_k if exit_k <= n_steps else None)
                assert traj.points.tobytes() == (np.array([x0]) * (-2.0) ** np.arange(k_last + 1)[:, None]).tobytes()
                exit_idx, last = run_batch(quad, np.array([x0]), 3.0, n_steps, center, 1.0)
                assert exit_idx[0] == (exit_k if exit_k <= n_steps else -1)
                assert last[0].tobytes() == traj.points[-1].tobytes()
                recon = traj.points[:-1] - traj.alpha * traj.chosen_subgradients
                assert recon.tobytes() == traj.points[1:].tobytes()
        # a start outside the ball, or a NaN start, exits at 0 and is never stepped
        for x0, stop in (([1.5] * dim, (center, 1.0)), ([np.nan] * dim, None)):
            oracle, selected = _CountingOracle(quad), []
            oracle.min_norm_at = lambda x: selected.append(x) or quad.min_norm_at(x)
            traj = run(oracle, x0, 3.0, 2 * b, stop=stop)
            assert traj.points.shape == (1, dim) and selected == []
            assert run_batch(quad, np.array([x0]), 3.0, 2 * b, *(stop or (None, None)))[0][0] == 0


def test_steps_past_an_exit_raise_no_warning():
    # the run leaves at k = 1 and the block steps on to inf and NaN, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(CROSS, [1e99, 1e99], 1.0, 3)
    assert traj.diverged_at == 1 and traj.points.shape == (2, 2)


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


def test_stop_rule_retires_exactly_the_masked_rows():
    # the loop writes each row's measure into a workspace, adding (ball) or taking the max of (box) its
    # columns into column 0, and counts the mask's kept rows; in dims 1 to 3 (no column step, one, two) and
    # in either layout the rows it retires must be those the per-row reference retires
    lim, r = DIVERGENCE_LIMIT, 0.5
    over_r, over_lim = np.nextafter(r, 1.0), np.nextafter(lim, np.inf)
    edges = [r, -r, over_r, -over_r, np.nan, np.inf, -np.inf, lim, -lim, over_lim, -over_lim]
    for dim in (1, 2, 3):
        quad = get_function("quad", dim)
        # each edge value in each column, the other coordinates 0, behind one interior row
        rows = np.array([[0.1, -0.2, 0.05][:dim]] + [[v if j == c else 0.0 for j in range(dim)]
                                                     for c in range(dim) for v in edges])
        bounded = (np.abs(rows) <= lim).all(axis=1)
        inside = (rows * rows).sum(axis=1) <= r * r
        # on the sphere is kept and one ulp outside retires; +-1e100 is bounded and one ulp beyond is not
        assert inside.tolist() == [True] + ([True] * 2 + [False] * 9) * dim and bounded.tolist() == \
            [True] + ([True] * 4 + [False] * 3 + [True] * 2 + [False] * 2) * dim
        # at alpha 2 quad maps x to -x exactly, so a kept row stays kept
        for ball, mask in (((None, None), bounded), ((np.zeros(dim), r), inside)):
            # the whole table, and each row beside a kept one
            for ids in (list(range(len(rows))), *([0, i] for i in range(1, len(rows)))):
                want = np.where(mask[ids], -1, 0)
                for batch in (rows[ids], np.asfortranarray(rows[ids])):
                    for n_steps in (0, 4):
                        exit_idx, last = run_batch(quad, batch, 2.0, n_steps, *ball)
                        npt.assert_array_equal(exit_idx, want)
                        assert last[want == 0].tobytes() == rows[ids][want == 0].tobytes()
            exit_idx, last = run_batch(quad, np.empty((0, dim)), 0.1, 3, *ball)
            assert exit_idx.shape == (0,) and last.shape == (0, dim)
        # starts of any other shape are refused before a step: a wrong width, a 1-D point, a stack
        for bad in (np.ones((3, dim + 1)), np.ones((3, dim - 1 or 2)), np.empty((0, dim + 1)), np.ones(dim),
                    np.ones((2, 3, dim))):
            for batch in (bad, np.asfortranarray(bad)):
                with pytest.raises(DimensionMismatch, match=rf"^expected starts of shape \(n, {dim}\)"):
                    run_batch(quad, batch, 0.1, 3)
        for row, kept_b, kept_i in zip(rows, bounded, inside):
            assert run(quad, row, 2.0, 4).diverged_at == (None if kept_b else 0)
            traj = Trajectory("quad", 2.0, np.array([rows[0], row]), np.zeros((1, dim)))
            assert first_exit(traj, np.zeros(dim), r) == (None if kept_i else 1)
    with pytest.raises(DimensionMismatch):  # refused before cross's two-column kernel sees it
        run_batch(CROSS, np.ones((3, 3)), 0.1, 3)


def test_bad_exit_ball_is_rejected_everywhere():
    traj = run(QUAD1, [1.0], 0.1, 3)
    # half a ball, either half None, is refused: never run as no ball, nor passed on to float(None)
    for center, radius in [([0.0], 0.0), ([0.0], -0.0), ([0.0], -0.1), ([0.0], np.nan), ([0.0], np.inf),
                           ([0.0], 10 ** 400), ([np.nan], 0.5), ([1e100], 0.5), (None, 0.25), ([0.0], None)]:
        named = "needs both a center and a radius" if center is None or radius is None else "radius"
        with pytest.raises(ValueError, match=named):
            run(QUAD1, [1.0], 0.1, 3, stop=(center, radius))
        with pytest.raises(ValueError, match=named):
            run_batch(QUAD1, np.ones((2, 1)), 0.1, 3, center, radius)
        with pytest.raises(ValueError, match=named):
            first_exit(traj, center, radius)
    # a ball may reach DIVERGENCE_LIMIT / 2 = 5e99 from the origin, and not one ulp beyond
    beyond = np.nextafter(5e99, np.inf)
    for center, radius in [([0.0], 5e99), ([2.5e99], 2.5e99), ([-4e99], 1e99)]:
        assert abs(center[0]) + radius == 5e99
        run(QUAD1, [1.0], 0.1, 3, stop=(center, radius))
        run_batch(QUAD1, np.ones((2, 1)), 0.1, 3, center, radius)
        first_exit(traj, center, radius)
    for center, radius in [([0.0], beyond), ([-beyond], 1e-300), ([2.5e99], np.nextafter(beyond - 2.5e99, np.inf))]:
        assert abs(center[0]) + radius == beyond
        with pytest.raises(ValueError, match="within 5e\\+99 of the origin"):
            run(QUAD1, [1.0], 0.1, 3, stop=(center, radius))


def test_run_batch_matches_run_at_signed_zero_and_nonzero_centers():
    # the keep test squares x alone at a center of +-0.0 and subtracts any other center; at each center, a batch
    # row, its run replay and the per-row reference ||x - c||^2 <= r^2 must agree, in either layout, on signed
    # zeros, the least subnormal, NaN, infinities, the sphere and one ulp either side of it
    r, tiny = 0.5, 5e-324
    for center in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.25, -0.5]):
        c0, c1 = center
        edge = c0 + r  # exact at these centers
        x0s = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [tiny, -tiny], [-tiny, 0.0],
                        [np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [c0, c1],
                        [c0 + 0.1, c1 - 0.2], [edge, c1], [np.nextafter(edge, -np.inf), c1],
                        [np.nextafter(edge, np.inf), c1], [c0, c1 - r], [c0, np.nextafter(c1 - r, -np.inf)]])
        d = x0s - np.array(center)
        kept = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r  # NaN fails
        assert kept[-5:].tolist() == [True, True, False, True, False]
        for fn, n_steps in itertools.product((get_function("quad"), CROSS, get_function("neg_norm")), (0, 6)):
            for batch in (x0s, np.asfortranarray(x0s)):
                exit_idx, last = run_batch(fn, batch, 0.25, n_steps, center, r)
                if n_steps == 0:
                    npt.assert_array_equal(exit_idx, np.where(kept, -1, 0))
                for i, x0 in enumerate(x0s):
                    traj = run(fn, x0, 0.25, n_steps, stop=(center, r))
                    k = first_exit(traj, center, r)
                    assert exit_idx[i] == (-1 if k is None else k), (center, fn.name, i)
                    assert last[i].tobytes() == traj.points[-1].tobytes(), (center, fn.name, i)
                    d = traj.points - np.array(center)
                    inside = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r
                    assert inside.tolist() == [True] * (len(inside) - (k is not None)) + [False] * (k is not None)


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
    # rows after a retired one pick at their kinks from the streams of their own row numbers in the batch
    extreme, seeds = SelectionPolicy("random_extreme"), [derive_seed(11, i) for i in range(9)]
    exit_idx, last = run_batch(ABS1, [[np.nan]] + [[0.0]] * 8, 0.25, 1, policy=extreme, seeds=seeds.__getitem__)
    assert exit_idx.tolist() == [0] + [-1] * 8
    assert [run(ABS1, [0.0], 0.25, 1, extreme, seeds[i]).points[-1, 0] for i in range(1, 9)] == last[1:, 0].tolist()
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fns = [get_function(name, dim) for name, dim in (("abs_sum", 1), ("abs_sum", 3), ("vee_bowl", 2),
                                                     ("wiggle", 1), ("neg_norm", 1), ("neg_norm", 2),
                                                     ("cross", 2), ("quad", 2),
                                                     ("quad", 3), ("neg_norm", 3))]
    # exact kinks, starts that step onto one at alpha 0.25, and NaN starts
    coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.25, 0.75, np.nan]), st.floats(-1.0, 1.0))
    policies = [MINIMAL_NORM, SelectionPolicy("random_extreme"), SelectionPolicy("fixed_index", 1),
                SelectionPolicy("fixed_index", 2), SelectionPolicy("fixed_index", 5)]

    @hyp.settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @hyp.given(data=st.data(), fn=st.sampled_from(fns), policy=st.sampled_from(policies),
               alpha=st.sampled_from([0.25, 0.1, 0.03]),
               n_steps=st.integers(0, 12) | st.integers(RECORD_BLOCK - 2, RECORD_BLOCK + 2),
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


def test_reflection_flips_each_coordinate_bit_for_bit():
    # every field but wiggle's (x^2 sin(1/x) is odd, so its field is even) is odd in each coordinate, and
    # round-to-nearest is symmetric in sign: flipping start coordinate i flips coordinate i of every
    # iterate, so a sign or association slip in a kernel or in the step shows here
    rng = make_rng(41)
    for name, dim in (("quad", 3), ("abs_sum", 3), ("cross", 2), ("vee_bowl", 2), ("neg_norm", 3)):
        fn = get_function(name, dim)
        for _ in range(4):
            x0, alpha = rng.uniform(-1.0, 1.0, dim), rng.uniform(0.01, 0.3)
            for i in range(dim):
                flip = np.ones(dim)
                flip[i] = -1.0
                ref, got = run(fn, x0, alpha, 300), run(fn, flip * x0, alpha, 300)
                assert got.points.tobytes() == (flip * ref.points).tobytes(), (name, i)
        x0s = sample_ball(np.zeros(dim), 1.0, 200, rng)
        center, radius = rng.uniform(-0.2, 0.2, dim), 0.9
        for i in range(dim):
            flip = np.ones(dim)
            flip[i] = -1.0
            for ball in ((None, None), (center, radius)):
                exit_ref, last_ref = run_batch(fn, x0s, 0.15, 150, *ball)
                flipped = (None, None) if ball[0] is None else (flip * center, radius)
                exit_got, last_got = run_batch(fn, np.asfortranarray(flip * x0s), 0.15, 150, *flipped)
                npt.assert_array_equal(exit_got, exit_ref)
                assert last_got.tobytes() == (flip * last_ref).tobytes(), (name, i)
        assert (exit_ref >= 0).any(), name  # the ball compacts the batch


def test_alpha_must_be_finite_and_positive():
    for alpha in (0.0, -0.1, np.nan, np.inf, 10 ** 400):  # an int beyond float range too
        with pytest.raises(ValueError, match="alpha"):
            run(QUAD1, [1.0], alpha, 3)
        with pytest.raises(ValueError, match="alpha"):
            run_batch(QUAD1, np.ones((2, 1)), alpha, 3)
    # the largest float is the largest alpha: one step from 1 diverges, and is recorded, not raised
    assert run(QUAD1, [1.0], sys.float_info.max, 1).diverged_at == 1
    # an int, numpy float or Fraction steps, and is stored, as its float, bit for bit; an exit radius too
    starts = np.array([[1.0], [-0.5]])
    for value in (Fraction(1, 10), np.float64(0.1), np.float32(0.5), 1):
        ref = float(value)
        got, want = run(QUAD1, [1.0], value, 3), run(QUAD1, [1.0], ref, 3)
        assert type(got.alpha) is float and got.alpha == ref and got.points.tobytes() == want.points.tobytes()
        got, want = run_batch(QUAD1, starts, value, 3, [0.0], value), run_batch(QUAD1, starts, ref, 3, [0.0], ref)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_random_extreme_needs_a_stream_only_at_kinks():
    policy = SelectionPolicy("random_extreme")
    run_batch(ABS1, np.array([[0.5], [-0.3]]), 0.1, 3, policy=policy)  # one generator: nothing to draw
    with pytest.raises(ValueError, match="seeds"):
        run_batch(ABS1, np.array([[0.5], [0.0]]), 0.1, 3, policy=policy)


def test_random_extreme_draws_the_documented_index():
    # j is rng.integers(m) up to m = 2^63, and above it |A| draws of rng.integers(2), highest bit first
    policy = SelectionPolicy("random_extreme")
    for dim, seed in itertools.product((3, 63, 64, 70), (4, 5, 6)):
        fn, x, m = get_function("abs_sum", dim), [0.0] * dim, 2 ** dim
        rng = make_rng(seed)
        j = int(rng.integers(m)) if m <= 2 ** 63 else int("".join(map(str, rng.integers(2, size=dim))), 2)
        assert tuple(_one_step(fn, x, 0.1, policy, seed)[1]) == fn.generator(x, j), (dim, seed)


class _CountingOracle:
    """Delegates to a catalog function, recording the rows of each min_norm_many and value_many call and counting
    at_kink and generators calls."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = []
        self.value_rows = []
        self.kink_calls = 0
        self.generators_calls = 0

    def __getattr__(self, name):
        return getattr(self.fn, name)

    def min_norm_many(self, pts):
        self.rows.append(pts.shape[0])
        return self.fn.min_norm_many(pts)

    def value_many(self, pts):
        self.value_rows.append(pts.shape[0])
        return self.fn.value_many(pts)

    def at_kink(self, pts):
        self.kink_calls += 1
        return self.fn.at_kink(pts)

    def generators(self, x, active_tol=0.0):
        self.generators_calls += 1
        return self.fn.generators(x, active_tol)


def test_a_recorded_generator_policy_run_makes_no_batch_call():
    # run picks one generator on one point, at a kink and off it, with no one-row batch;
    # no selection lists the generator set, run_batch's included
    for policy in (SelectionPolicy("random_extreme"), SelectionPolicy("fixed_index", 1)):
        oracle = _CountingOracle(ABS1)
        traj = run(oracle, [0.5], 0.25, 2 * RECORD_BLOCK, policy, seed=3)
        assert traj.points[2, 0] == 0.0 and traj.chosen_subgradients[2, 0] in (-1.0, 1.0)
        assert traj.points.tobytes() == run(ABS1, [0.5], 0.25, 2 * RECORD_BLOCK, policy, seed=3).points.tobytes()
        assert oracle.rows == [] and oracle.kink_calls == 0, policy
        run_batch(oracle, np.array([[0.5], [0.0]]), 0.25, 5, policy=policy, seeds=lambda i: i)
        assert oracle.kink_calls > 0 and oracle.generators_calls == 0, policy


def test_ball_helpers_draw_their_fixed_samples():
    # the Lipschitz estimate lists the generators at the center and at each of its 256 sampled points, one call a
    # point; the local-min check compares 2000 sampled values in one call
    assert (LIPSCHITZ_SAMPLES, LOCAL_MIN_SAMPLES) == (256, 2000)
    for fn in (get_function("quad", 2), get_function("abs_sum", 3), CROSS):
        oracle = _CountingOracle(fn)
        estimate_lipschitz(oracle, np.zeros(fn.dim), 0.1, seed=3)
        assert oracle.generators_calls == LIPSCHITZ_SAMPLES + 1 and oracle.value_rows == []
        local_min_check(oracle, np.zeros(fn.dim), 0.1, seed=3)
        assert oracle.value_rows == [LOCAL_MIN_SAMPLES] and oracle.generators_calls == LIPSCHITZ_SAMPLES + 1


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
    _assert_one_call_per_step_on_live_rows(oracle, exit_idx, 50)
    for batch in (x0s, np.asfortranarray(x0s)):  # and without an exit ball, in either layout
        kept = batch.tobytes(order="A")
        run_batch(nn, batch, 0.01, 5)
        assert batch.tobytes(order="A") == kept
    # the box test: at alpha 3 quad maps x to -2x, so 1e99 and 3e99 diverge at steps 4 and 2, mid-run
    x0s = np.array([[1.0, -0.5], [1e99, 0.0], [0.25, 3e99], [np.nan, 0.0], [0.0, 0.0]])
    for batch in (x0s, np.asfortranarray(x0s)):
        oracle = _CountingOracle(get_function("quad", 2))
        exit_idx, _ = run_batch(oracle, batch, 3.0, 12)
        npt.assert_array_equal(exit_idx, [-1, 4, 2, 0, -1])
        _assert_one_call_per_step_on_live_rows(oracle, exit_idx, 12)
    # a generator policy: on abs_sum at alpha 0.25 the origin and (0.25, 0.25) map to each other until a row
    # at the origin draws another corner (+-0.25, +-0.25), three of which leave the ball; (0.1, 0.2) oscillates
    x0s = np.array([[0.25, 0.25], [0.0, 0.0], [0.1, 0.2], [0.0, 0.25], [0.6, 0.0]])
    center, radius = np.array([0.1, 0.1]), 0.3
    policy, seeds = SelectionPolicy("random_extreme"), [derive_seed(5, i) for i in range(len(x0s))]
    oracle = _CountingOracle(get_function("abs_sum", 2))
    exit_idx, _ = run_batch(oracle, x0s, 0.25, 30, center, radius, policy, seeds.__getitem__)
    assert exit_idx[0] > 1 and exit_idx[1] > 0 and exit_idx[2] == -1 and exit_idx[4] == 0
    assert oracle.kink_calls == len(oracle.rows)
    for i, x0 in enumerate(x0s):
        traj = run(oracle.fn, x0, 0.25, 30, policy, seed=seeds[i], stop=(center, radius))
        assert first_exit(traj, center, radius) == (None if exit_idx[i] < 0 else exit_idx[i])
    _assert_one_call_per_step_on_live_rows(oracle, exit_idx, 30)


def _assert_one_call_per_step_on_live_rows(oracle, exit_idx, n_steps):
    """One oracle call per loop iteration, on the rows still alive at that step, and no call past the last."""
    steps = np.where(exit_idx >= 0, exit_idx, n_steps)
    live = [int((steps >= k).sum()) for k in range(1, n_steps + 1)]
    assert oracle.rows == [n for n in live if n > 0]
    assert sum(oracle.rows) == steps.sum()


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
    for radius in (Fraction(1, 10), np.float64(0.1), np.float32(0.5), 1):  # the bits of its float
        assert sample_ball(center, radius, 5, make_rng(3)).tobytes() == \
            sample_ball(center, float(radius), 5, make_rng(3)).tobytes()


def test_derive_seed_is_stable_and_index_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert 0 <= derive_seed(123, 0) < 2 ** 64
    # the two 32-bit words of the key's state, low word first
    words = np.random.SeedSequence((7, 1, 2)).generate_state(2)
    assert derive_seed(7, 1, 2) == int(words[0]) | int(words[1]) << 32


def test_every_integer_argument_passes_one_integer_rule():
    # a count, seed, dim or policy index is a Python or numpy int: a float, 3.0 too, or a bool is refused on one
    # line naming the argument, as is a value below its least; run checks its seed before any kink needs it
    quad = get_function("quad", 1)
    query = dict(fn_id="quad", x_star=np.zeros(1), epsilon=0.1, n_samples=2, max_iters=3)
    calls = [("dim", 1, lambda v: get_function("quad", v)),
             ("n_steps", 0, lambda v: run(quad, [1.0], 0.1, v)),
             ("seed", 0, lambda v: run(quad, [1.0], 0.1, 3, seed=v)),
             ("n_steps", 0, lambda v: run_batch(quad, np.ones((2, 1)), 0.1, v)),
             ("n", 0, lambda v: sample_ball([0.0], 0.1, v, make_rng(0))),
             ("seed", 0, make_rng),
             ("seed", 0, lambda v: derive_seed(v, 1)),
             ("seed index", 0, lambda v: derive_seed(1, v)),
             ("index", None, lambda v: SelectionPolicy("fixed_index", v)),
             ("n_samples", 1, lambda v: probe(StabilityQuery(**{**query, "n_samples": v}))),
             ("max_iters", 1, lambda v: probe(StabilityQuery(**{**query, "max_iters": v}))),
             ("seed", 0, lambda v: probe(StabilityQuery(**query, seed=v))),
             ("n_samples", 1, lambda v: escape_experiment(0.25, 0.3, v, k_max=5)),
             ("k_max", 1, lambda v: escape_experiment(0.25, 0.3, 3, k_max=v)),
             ("seed", 0, lambda v: escape_experiment(0.25, 0.3, 3, k_max=5, seed=v)),
             ("n_steps", 0, lambda v: convex_bounds_report(quad, [1.0], 0.1, 0.1, n_steps=v))]
    for name, least, call in calls:
        below = [] if least is None else [least - 1]
        for value in [2.5, 3.0, True, np.float64(3.0), *below]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                call(value)
        if least is not None:  # too long for Python to print, so shown by its sign and bits
            line = f"{name} must be an integer >= {least}, got a negative 16610-bit int"
            with pytest.raises(ValueError, match=f"^{line}$"):
                call(-HUGE)
        call(np.int64(3))
    policy = SelectionPolicy("fixed_index", np.int16(-3))  # an index of either sign, kept as a Python int
    assert type(policy.index) is int and policy.index == -3


def test_every_real_argument_passes_one_real_rule():
    # alpha, h, the horizon (of a flow or an interpolated path), a radius or epsilon is a real number but a bool,
    # finite and > 0 as a float; anything else is refused on one line naming it (half an exit ball, a None radius,
    # has its own line)
    quad = get_function("quad", 1)
    traj = run(quad, [1.0], 0.1, 3)
    query = dict(fn_id="quad", x_star=np.zeros(1), n_samples=1, max_iters=1)
    balls = [lambda v: run(quad, [1.0], 0.1, 3, stop=([0.0], v)),
             lambda v: run_batch(quad, np.ones((2, 1)), 0.1, 3, [0.0], v),
             lambda v: first_exit(traj, [0.0], v)]
    calls = [("radius", ball) for ball in balls] + [
             ("alpha", lambda v: run(quad, [1.0], v, 3)),
             ("alpha", lambda v: run_batch(quad, np.ones((2, 1)), v, 3)),
             ("radius", lambda v: sample_ball([0.0], v, 4, make_rng(0))),
             ("radius", lambda v: estimate_lipschitz(quad, [0.0], v)),
             ("radius", lambda v: local_min_check(quad, [0.0], v)),
             ("h", lambda v: integrate_flow(quad, [1.0], 1.0, v)),
             ("horizon", lambda v: integrate_flow(quad, [1.0], v, 0.125)),
             ("epsilon", lambda v: escape_experiment(v, 0.3, 3, k_max=5)),
             ("alpha", lambda v: escape_experiment(0.25, v, 3, k_max=5)),
             ("epsilon", lambda v: probe(StabilityQuery(**query, epsilon=v))),
             ("alpha", lambda v: convex_bounds_report(quad, [1.0], v, 0.1, n_steps=3)),
             ("epsilon", lambda v: convex_bounds_report(quad, [1.0], 0.1, v, n_steps=3)),
             ("alpha", lambda v: cross_update([1.0, 0.1], v)),
             ("alpha", lambda v: doubling_check([1.0, 1e-6], v)),
             ("horizon", lambda v: InterpolatedPath(traj, v))]
    for name, call in calls:
        for value in ["0.1", None, True, np.True_, np.array(0.1), Decimal("0.1"), 10 ** 400, Fraction(1, 10 ** 400),
                      0.0, -0.0, -0.1, np.nan, np.inf, -np.inf, np.float32(np.inf), HUGE]:
            line = f"{name} must be finite and positive, got {'a 16610-bit int' if value is HUGE else repr(value)}"
            if value is None and call in balls:
                line = "exit ball needs both a center and a radius; got center [0.0], radius None"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                call(value)
        for value in (0.25, np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
            call(value)


def _cells(verdict):
    """A probe verdict's arrays and witness start, without the query, which holds the caller's own spelling."""
    return (verdict.escape_counts, verdict.delta_grid, verdict.alpha_grid, verdict.iters_per_alpha,
            verdict.lipschitz_estimate, verdict.witness and verdict.witness.x0)


def test_every_point_argument_passes_one_point_rule():
    # a point, a batch of starts, a probe grid or a time holds reals but bools: a Python or numpy int or float, or
    # a Fraction, gives the bits of its float64 spelling; None, a string, bytes, a bool (alone or in a list beside
    # numbers), a complex number, a real beyond float64 or a ragged sequence is refused on one line naming the
    # argument, in a list or tuple and in an array alike; an int too long for Python to print shows its bits
    quad, quad2 = get_function("quad", 1), get_function("quad", 2)
    traj = run(quad, [1.0], 0.1, 3)
    path, sol = InterpolatedPath(run(quad, [1.0], 0.1, 10), 1.0), integrate_flow(quad, [1.0], 1.0, 0.125)
    form = {"point": lambda v: [v], "ball": lambda v: [v], "pair": lambda v: [v, v], "grid": lambda v: (v,),
            "batch": lambda v: [[v, v], [v, v]], "time": lambda v: v}
    calls = [("x", "point", quad.value),
             ("x", "point", quad.generators),
             ("x", "pair", lambda p: cross_update(p, 0.1)),
             ("x0", "point", lambda p: run(quad, p, 0.1, 3).points),
             ("x0", "point", lambda p: integrate_flow(quad, p, 0.5, 0.125).xs),
             ("x0", "point", lambda p: convex_bounds_report(quad, p, 0.1, 0.1, n_steps=3)),
             ("center", "ball", lambda p: run(quad, [1.0], 0.1, 3, stop=(p, 2.0)).points),
             ("center", "ball", lambda p: first_exit(traj, p, 2.0)),
             ("center", "point", lambda p: sample_ball(p, 0.1, 4, make_rng(0))),
             ("center", "point", lambda p: estimate_lipschitz(quad, p, 0.1)),
             ("x_star", "point", lambda p: local_min_check(quad, p, 0.1)),
             ("x_star", "point", lambda p: _cells(probe(StabilityQuery("quad", p, 0.1, n_samples=2, max_iters=5)))),
             ("delta_grid", "grid", lambda g: _cells(probe(StabilityQuery("quad", np.zeros(1), 2.0, delta_grid=g,
                                                                          n_samples=2, max_iters=5)))),
             ("alpha_grid", "grid", lambda g: _cells(probe(StabilityQuery("quad", np.zeros(1), 0.1, alpha_grid=g,
                                                                          n_samples=2, max_iters=5)))),
             ("x0s", "batch", lambda b: run_batch(quad2, b, 0.1, 3)),
             ("initial_points", "batch", lambda b: escape_experiment(0.25, 0.3, 2, k_max=5, initial_points=b)),
             ("t", "time", lambda t: interpolate(path, t)),
             ("t", "time", lambda t: flow_value(sol, t))]
    refused = [(None, "None"), ("0.5", "'0.5'"), (b"0.5", "b'0.5'"), (True, "True"), (np.True_, "True"),
               (1j, "1j"), (np.complex128(1j), "1j"), (10 ** 400, repr(10 ** 400)), (-10 ** 400, repr(-10 ** 400)),
               (Fraction(10 ** 400), repr(Fraction(10 ** 400))), (HUGE, "a 16610-bit int"),
               (-HUGE, "a negative 16610-bit int"), (Fraction(HUGE), "a Fraction holding an int too long to print")]
    mixed = [([True, 0.5], "True"), ([0.5, np.True_], "np.True_")]  # numpy alone reads either list as floats
    spellings = [(0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2)),
                 (1.0, 1, np.int64(1), np.uint8(1), np.float32(1.0), Fraction(1))]
    for name, kind, call in calls:
        whole = name not in ("delta_grid", "alpha_grid", "initial_points")  # for which None is the default
        args = [(form[kind](bad), shown) for bad, shown in refused] + [(None, "None")] * whole
        args += [(np.array(form[kind](bad)), shown) for bad, shown in refused]
        args += [([m, m] if kind == "batch" else m, shown) for m, shown in mixed]
        for arg, shown in args:
            line = f"{name} must hold real numbers within float64 range, got {shown}"
            if arg is None and kind == "ball":  # half an exit ball has its own line
                line = "exit ball needs both a center and a radius; got center None, radius 2.0"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                call(arg)  # a None point too: run made it [[nan]], diverged at 0
        with pytest.raises(DimensionMismatch, match=f"^{name} must not be ragged, got "):
            call([[0.5], [0.5, 0.5]])
        for same in spellings:
            want = pickle.dumps(call(form[kind](same[0])))
            for v in same[1:]:
                assert pickle.dumps(call(form[kind](v))) == want, (name, v)
    for curve, at in ((path, interpolate), (sol, flow_value)):  # a scalar time gives one point, not a row of one
        assert at(curve, np.float32(0.5)).shape == (1,)
        assert at(curve, [Fraction(1, 2)]).shape == (1, 1)
