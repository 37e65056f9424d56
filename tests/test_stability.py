import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from nsdyn import (
    SelectionPolicy,
    StabilityQuery,
    catalog,
    convex_bounds_report,
    estimate_lipschitz,
    first_exit,
    get_function,
    local_min_check,
    probe,
    run,
    sample_ball,
    stability,
)
from nsdyn.engine import derive_seed, make_rng
from nsdyn.errors import InvalidQuery, NonFiniteInput, NotConvex
from nsdyn.reporting import json_text, verdict_json_dict
from nsdyn.stability import _max_generator_norm


def test_estimate_lipschitz_abs_sum_is_sharp():
    # every off-axis generator in dim 2 has norm exactly sqrt(2)
    fn = get_function("abs_sum", 2)
    L = estimate_lipschitz(fn, [0.0, 0.0], 0.5, seed=3)
    assert L == pytest.approx(1.1 * np.sqrt(2), rel=1e-12)


def test_estimate_lipschitz_quad_tracks_ball_radius():
    fn = get_function("quad", 2)
    L = estimate_lipschitz(fn, [0.0, 0.0], 1.0, seed=3)
    assert 1.0 <= L <= 1.1 + 1e-12
    # probe estimates over B(x*, epsilon) from the stream keyed (seed, 0x11F); here the samples set the estimate
    verdict = probe(StabilityQuery("quad", np.zeros(2), 0.1, n_samples=1, max_iters=1, seed=5))
    assert verdict.lipschitz_estimate == estimate_lipschitz(fn, [0.0, 0.0], 0.1, seed=derive_seed(5, 0x11F))


def test_estimate_lipschitz_cross_below_analytic_sup():
    fn = get_function("cross")
    L = estimate_lipschitz(fn, [1.0, 0.0], 0.5, seed=3)
    sup = 1.5 * np.sqrt(1.5 * 0.5 ** 3 + 1.5 ** 3 * 0.5)
    assert L <= 1.1 * sup
    assert L >= 0.5 * sup  # the sample actually explores the ball


def test_max_generator_norm_keeps_its_bits_and_a_nan():
    # one sqrt of the largest square against the largest sqrt, row by row, on finite rows
    for fn, center in ((get_function("cross"), [1.0, 0.0]), (get_function("abs_sum", 3), [0.0, 0.5, 0.0]),
                       (get_function("neg_norm", 2), [0.0, 0.0])):
        pts = np.concatenate([[center], sample_ball(center, 0.7, 64, make_rng(5))])
        want = max(float(np.sqrt((g * g).sum(axis=1).max())) for g in (fn.generators(p, 0.0) for p in pts))
        assert _max_generator_norm(fn, pts) == want
    # the stacked one-generator rows sum as each row alone does, also where numpy sums 8 or more entries pairwise,
    # beside a listed set at a kink; each row's generator norm is its largest
    for fn_id, dim in (("quad", 12), ("neg_norm", 9), ("abs_sum", 10)):
        fn = get_function(fn_id, dim)
        rng = make_rng(dim)
        pts = rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-3, 4, (40, dim))
        pts[7, :3] = 0.0  # abs_sum lists 8 generators here
        for i, p in enumerate(pts):
            g = fn.generators(p, 0.0)
            assert _max_generator_norm(fn, pts[i:i + 1]) == float(np.sqrt((g * g).sum(axis=1).max()))
        want = max(_max_generator_norm(fn, pts[i:i + 1]) for i in range(len(pts)))
        assert _max_generator_norm(fn, pts) == want
    # wiggle's field is NaN where 1/t overflows, as on this subnormal ball: the estimate is NaN, not 0.0,
    # and so is the largest norm when a finite one comes first
    fn = get_function("wiggle")
    assert np.isnan(estimate_lipschitz(fn, [5e-324], 1e-320))
    assert np.isnan(_max_generator_norm(fn, np.array([[0.5], [1e-320]])))
    assert np.isnan(_max_generator_norm(fn, np.array([[0.0], [1e-320]])))  # the listed set at the kink is reduced first


def test_every_generator_at_a_point_has_one_squared_norm():
    # _max_generator_norm reduces row 0 of each listed set, which rests on this: bit-equal (g * g).sum(axis=1) on
    # every row, at kinks beside signed zeros, NaN, subnormal and huge coordinates, in each entry's dims and in
    # R^9 to R^12, where numpy sums a row of 8 or more entries pairwise
    pool = np.array([0.0, -0.0, 0.0, -0.0, np.nan, 5e-324, -1e300, 0.75, -3.5])
    rng = make_rng(11)
    for fn_id in catalog.CATALOG_IDS:
        fixed = get_function(fn_id).fixed_dim
        for dim in (fixed,) if fixed else (1, 2, 3, 9, 10, 11, 12):
            fn = get_function(fn_id, dim)
            pts = np.concatenate([np.zeros((2, dim)) * [[1.0], [-1.0]], pool[rng.integers(pool.size, size=(30, dim))]])
            listed = 0
            for p in pts:
                g = fn.generators(p, 0.0)
                with np.errstate(over="ignore"):  # -1e300 squares to inf
                    sq = (g * g).sum(axis=1)
                assert (sq.view(np.uint64) == sq[:1].view(np.uint64)).all(), (fn_id, p)
                listed += sq.size > 1
            assert listed > 0 or fn_id in ("quad", "cross"), (fn_id, dim)


def test_probe_quad_certificate():
    verdict = probe(StabilityQuery("quad", np.zeros(2), 0.1,
                                   delta_grid=(0.05,), alpha_grid=(0.5, 0.1),
                                   n_samples=100, max_iters=1000, seed=21))
    assert verdict.status == "no_escape_observed"
    cert = verdict.certificate
    assert verdict.witness is None
    assert (cert.delta, cert.alpha_bar) == (0.05, 0.5)
    assert np.all(verdict.escape_counts == 0)


def test_probe_neg_norm_radial_escape():
    eps = 0.1
    verdict = probe(StabilityQuery("neg_norm", np.zeros(2), eps,
                                   delta_grid=(eps / 10,), alpha_grid=(eps / 2, eps / 50),
                                   n_samples=20, seed=4))
    assert verdict.status == "escape_witnessed"
    w = verdict.witness
    assert np.all(verdict.escape_counts == 20)
    # witness replays to a genuine exit at the recorded index
    pts = w.trajectory_ref.points
    assert np.linalg.norm(pts[w.exit_index]) > eps
    assert np.all(np.linalg.norm(pts[: w.exit_index], axis=1) <= eps)


def test_probe_cross_escapes_at_desk_scale_alphas():
    verdict = probe(StabilityQuery("cross", np.array([1.0, 0.0]), 0.25,
                                   alpha_grid=(0.3, 0.1), max_iters=20_000,
                                   n_samples=8, seed=4))
    assert verdict.status == "escape_witnessed"
    w = verdict.witness
    d = np.linalg.norm(w.trajectory_ref.points[w.exit_index] - np.array([1.0, 0.0]))
    assert d > 0.25


def test_probe_determinism_and_json_stability():
    q = StabilityQuery("neg_norm", np.zeros(2), 0.1, n_samples=10, seed=77)
    a, b = probe(q), probe(q)
    assert json_text(verdict_json_dict(a)) == json_text(verdict_json_dict(b))
    assert a.witness.trajectory_ref.points.tobytes() == b.witness.trajectory_ref.points.tobytes()


def test_probe_certificate_monotone_under_subgrids():
    # shrinking both grids preserves the certificate (cells are seeded by
    # their values, so the sub-grid reruns identical trajectories)
    full = probe(StabilityQuery("quad", np.zeros(2), 0.1,
                                delta_grid=(0.05, 0.025), alpha_grid=(0.2, 0.1, 0.05),
                                n_samples=40, max_iters=400, seed=9))
    assert full.status == "no_escape_observed"
    for dg in ((0.05, 0.025), (0.025,)):
        for ag in ((0.2, 0.1, 0.05), (0.1, 0.05), (0.05,)):
            sub = probe(StabilityQuery("quad", np.zeros(2), 0.1, delta_grid=dg,
                                       alpha_grid=ag, n_samples=40, max_iters=400, seed=9))
            assert sub.status == "no_escape_observed"


def test_probe_validates_query(monkeypatch):
    with pytest.raises(InvalidQuery):
        probe(StabilityQuery("quad", np.zeros(2), 0.1, delta_grid=(0.2,), seed=1))
    with pytest.raises(InvalidQuery):
        probe(StabilityQuery("quad", np.zeros(2), 0.1, delta_grid=(0.01, 0.05), seed=1))
    with pytest.raises(InvalidQuery):
        probe(StabilityQuery("quad", np.zeros(2), 0.1, n_samples=0, seed=1))
    # one sample and one step are the least counts; the grid checks name their rule at each boundary
    assert probe(StabilityQuery("quad", np.zeros(2), 0.1, n_samples=1, max_iters=1)).certificate.n_samples == 1
    for grids, named in [(dict(delta_grid=(0.1,)), "< epsilon"), (dict(delta_grid=(0.05, 0.05)), "decreasing"),
                         (dict(alpha_grid=(0.1, 0.1)), "decreasing"), (dict(delta_grid=(0.05, 0.0)), "positive"),
                         (dict(alpha_grid=(0.1, 0.0)), "positive")]:
        with pytest.raises(InvalidQuery, match=named):
            probe(StabilityQuery("quad", np.zeros(2), 0.1, max_iters=1, **grids))
    with pytest.raises(InvalidQuery):
        probe(StabilityQuery("quad", np.zeros(2), -0.1, seed=1))
    for budget in (0, -5):  # an empty budget would certify even neg_norm's strict maximum
        with pytest.raises(InvalidQuery, match="max_iters"):
            probe(StabilityQuery("neg_norm", np.zeros(2), 0.1, max_iters=budget))
    # an explicit budget passes the recorded-steps cap, as the derived K does, before any batch runs: 10^7 reaches
    # the first batch (a stub that records its budget, so nothing runs), and one more step does not
    budgets = []

    class Reached(Exception):
        pass

    def first_batch(fn, x0s, alpha, n_steps, *rest):
        budgets.append(n_steps)
        raise Reached

    with monkeypatch.context() as m:
        m.setattr(stability, "run_batch", first_batch)
        with pytest.raises(Reached):
            probe(StabilityQuery("quad", np.zeros(2), 0.1, n_samples=1, max_iters=10 ** 7))
        for budget in (10 ** 7 + 1, 2 ** 63, 10 ** 400):
            with pytest.raises(ValueError, match="^max_iters must give between 0 and 10000000 recorded steps$"):
                probe(StabilityQuery("quad", np.zeros(2), 0.1, n_samples=1, max_iters=budget))
    assert budgets == [10 ** 7]
    for bad in (dict(epsilon=np.nan), dict(epsilon=np.inf), dict(x_star=np.array([np.nan, 0.0])),
                dict(alpha_grid=(np.nan,)), dict(delta_grid=(0.05, np.nan))):
        with pytest.raises(InvalidQuery, match="finite"):
            probe(StabilityQuery(**{"fn_id": "quad", "x_star": np.zeros(2), "epsilon": 0.1, **bad}))
    # a count is an integer, never a bool or a float, and epsilon lies within float range
    for bad, named in [(dict(n_samples=2.5), "n_samples"), (dict(n_samples=True), "n_samples"),
                       (dict(max_iters=3.0), "max_iters"), (dict(epsilon=10 ** 400), "epsilon")]:
        with pytest.raises(InvalidQuery, match=named):
            probe(StabilityQuery(**{"fn_id": "quad", "x_star": np.zeros(2), "epsilon": 0.1, **bad}))


def test_probe_generator_policy_escape():
    verdict = probe(StabilityQuery("neg_norm", np.zeros(2), 0.1,
                                   delta_grid=(0.05,), alpha_grid=(0.01,),
                                   n_samples=5, max_iters=200, seed=2,
                                   policy=SelectionPolicy("random_extreme")))
    assert verdict.status == "escape_witnessed"


def _value_key(x):
    return int(np.float64(x).view(np.uint64))


def _reference_probe(q, verdict):
    """The per-cell, per-sample loop: one scalar ``run`` and ``first_exit`` per start.

    Takes the grids and budgets from the verdict; returns the escape counts,
    the certificate fields (delta, alpha_bar, max_iters) or None, and the
    first escape (x0, alpha, exit index, seed, points) or None.
    """
    fn = get_function(q.fn_id, dim=len(q.x_star))
    deltas, alphas, iters = verdict.delta_grid, verdict.alpha_grid, verdict.iters_per_alpha
    counts = np.zeros((deltas.size, alphas.size), dtype=np.int64)
    first = None
    for d_idx, delta in enumerate(deltas):
        for a_idx, alpha in enumerate(alphas):
            keys = (q.seed, _value_key(delta), _value_key(alpha))
            x0s = sample_ball(q.x_star, delta, q.n_samples, make_rng(derive_seed(*keys)))
            for i, x0 in enumerate(x0s):
                seed = derive_seed(*keys, i)
                traj = run(fn, x0, alpha, int(iters[a_idx]), q.policy, seed=seed,
                           stop=(q.x_star, q.epsilon))
                hit = first_exit(traj, q.x_star, q.epsilon)
                if hit is not None:
                    counts[d_idx, a_idx] += 1
                    if first is None:
                        first = (x0, float(alpha), hit, seed, traj.points)
    cert = next(((float(deltas[d]), float(alphas[a]), int(iters[a:].max()))
                 for d in range(deltas.size) for a in range(alphas.size)
                 if not counts[d, a:].any()), None)
    return counts, cert, first


@pytest.mark.parametrize("policy", [SelectionPolicy(), SelectionPolicy("random_extreme"),
                                    SelectionPolicy("fixed_index", 1)], ids=lambda p: p.kind)
def test_probe_matches_per_cell_reference(policy):
    queries = [
        # escapes in some cells, then a certificate at the smallest alpha
        StabilityQuery("wiggle", np.zeros(1), 0.1, delta_grid=(0.09, 0.05), alpha_grid=(0.03, 0.02, 0.01),
                       n_samples=4, max_iters=100, seed=0, policy=policy),
        StabilityQuery("wiggle", np.zeros(1), 0.1, delta_grid=(0.09, 0.06), alpha_grid=(0.04, 0.025),
                       n_samples=4, max_iters=100, seed=3, policy=policy),
        # only starts near the rim get out within 10 radial steps: first a
        # certificate at the smaller delta, then a witness at the fourth start
        StabilityQuery("neg_norm", np.zeros(2), 0.1, delta_grid=(0.09, 0.05), alpha_grid=(0.004, 0.002),
                       n_samples=6, max_iters=10, seed=5, policy=policy),
        StabilityQuery("neg_norm", np.zeros(2), 0.1, delta_grid=(0.09, 0.07), alpha_grid=(0.004,),
                       n_samples=6, max_iters=10, seed=13, policy=policy),
        StabilityQuery("neg_norm", np.zeros(2), 0.1, n_samples=3, seed=7, policy=policy),
    ]
    for q in queries:
        verdict = probe(q)
        counts, cert, first = _reference_probe(q, verdict)
        assert verdict.escape_counts.tolist() == counts.tolist()
        assert verdict.status == ("no_escape_observed" if cert else "escape_witnessed")
        c = verdict.certificate
        assert (c and (c.delta, c.alpha_bar, c.max_iters)) == cert
        w = verdict.witness
        if cert is None:
            x0, alpha, exit_index, seed, points = first
            assert (w.x0.tobytes(), w.alpha, w.exit_index, w.seed) == (x0.tobytes(), alpha, exit_index, seed)
            assert w.trajectory_ref.points.tobytes() == points.tobytes()
        else:
            assert w is None


def test_probe_runs_one_batch_per_alpha(monkeypatch):
    # a default no-escape probe steps every alpha's 4 x 50 starts together:
    # one min_norm_many call per iteration of each alpha's budget
    rows = []
    field = catalog.Quad.min_norm_many

    def counted(self, pts):
        rows.append(pts.shape[0])
        return field(self, pts)

    monkeypatch.setattr(catalog.Quad, "min_norm_many", counted)
    verdict = probe(StabilityQuery("quad", np.zeros(2), 0.1, seed=0))
    assert verdict.status == "no_escape_observed" and not verdict.escape_counts.any()
    batched = [r for r in rows if r > 1]  # estimate_lipschitz asks one row at a time
    assert len(batched) == verdict.iters_per_alpha.sum() == 2350
    assert set(batched) == {200}


def test_local_min_check_examples():
    out = local_min_check(get_function("cross"), [1.0, 0.0], 0.2, seed=1)
    assert out.status == "consistent_with_local_min"
    assert out.counterexample is None

    out = local_min_check(get_function("neg_norm", 2), [0.0, 0.0], 0.1, seed=1)
    assert out.status == "counterexample_point"
    fn = get_function("neg_norm", 2)
    assert fn.value(out.counterexample) < out.f_center - 1e-12

    out = local_min_check(get_function("wiggle"), [0.0], 0.05, seed=1)
    assert out.status == "counterexample_point"
    assert get_function("wiggle").value(out.counterexample) < -1e-12


@pytest.mark.parametrize("helper", [estimate_lipschitz, local_min_check])
def test_ball_helpers_refuse_a_ball_they_cannot_sample(helper):
    # both sample through sample_ball, whose one check refuses these; unchecked, a NaN center estimated L = 0.0,
    # and a NaN radius passed neg_norm's strict maximum as consistent_with_local_min
    for fn_id, center, radius in [("quad", [0.0, 0.0], np.nan), ("neg_norm", [0.0, 0.0], np.nan),
                                  ("quad", [0.0, 0.0], -1.0), ("quad", [0.0, 0.0], 0.0),
                                  ("quad", [0.0, 0.0], np.inf), ("quad", [0.0, 0.0], 10 ** 400),
                                  ("quad", [np.nan, 0.0], 0.1)]:
        with pytest.raises(ValueError, match="radius|finite"):
            helper(get_function(fn_id, 2), center, radius)
    with pytest.raises(ValueError, match="center"):
        sample_ball([0.0, np.inf], 0.1, 4, make_rng(0))
    # a ball they can sample
    quad = get_function("quad", 2)
    if helper is local_min_check:
        assert helper(quad, [0.0, 0.0], 0.1).status == "consistent_with_local_min"
    else:  # 1.1 times the largest of ||x|| over the center (0.5, 0) and points within 0.1 of it
        assert 0.55 <= helper(quad, [0.5, 0.0], 0.1) <= 0.66


def test_convex_bounds_abs_sum_from_one():
    fn = get_function("abs_sum", 1)
    rep = convex_bounds_report(fn, [1.0], 0.1, 0.1, n_steps=400)
    assert rep.c == 1.0
    assert rep.iters_budget == 100
    assert rep.bound_c2a2 == pytest.approx(0.05)
    assert rep.liminf_gap <= rep.bound_c2a2 + 1e-12
    assert rep.achieved_within_budget
    assert rep.dist_bound is None and rep.diverged_at is None
    # alpha * epsilon is subnormal here, and the exact floor is 10^10
    assert convex_bounds_report(get_function("quad", 1), [1e-155], 1e-160, 1e-160, n_steps=10).iters_budget == 10 ** 10


def test_convex_bounds_report_states_its_runs_divergence():
    # quad at alpha = 3 doubles |x| each step, past the 1e100 divergence limit at iterate 333; the report says so
    assert convex_bounds_report(get_function("quad", 1), [1.0], 3.0, 0.1, n_steps=400).diverged_at == 333


def test_convex_bounds_budget_is_exact_for_every_finite_start():
    # 1 / (1e-309 * 10) * (1 + 1e-12) in exact integers; in floats the first quotient alone overflows
    (n_a, d_a), (n_e, d_e), (n_u, d_u) = (v.as_integer_ratio() for v in (1e-309, 10.0, 1.0 + 1e-12))
    want = d_a * d_e * n_u // (n_a * n_e * d_u)
    assert len(str(want)) == 309
    assert convex_bounds_report(get_function("quad", 1), [1.0], 1e-309, 10.0, n_steps=10).iters_budget == want
    for x0 in ([np.nan], [np.inf]):
        with pytest.raises(NonFiniteInput, match="x0"):
            convex_bounds_report(get_function("quad", 1), x0, 0.1, 0.1, n_steps=10)


def test_convex_bounds_holds_one_listed_set_at_a_time():
    # abs_sum stays at the origin of R^10, where 1024 generators are listed at each of the 401 points; holding
    # every set at once would take ~33 MB
    tracemalloc.start()
    try:
        convex_bounds_report(get_function("abs_sum", 10), np.zeros(10), 0.1, 0.1, n_steps=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_convex_bounds_abs_sum_oscillation_pair():
    fn = get_function("abs_sum", 1)
    rep = convex_bounds_report(fn, [0.07], 0.1, 0.1, n_steps=400)
    # tail oscillates between 0.07 and -0.03, so the liminf gap is 0.03
    assert rep.liminf_gap == pytest.approx(0.03, abs=1e-12)
    assert rep.liminf_gap <= rep.c ** 2 * rep.alpha / 2


def test_convex_bounds_quad_distance_bound():
    fn = get_function("quad", 1)
    rep = convex_bounds_report(fn, [1.0], 0.5, 0.1, n_steps=200)
    assert rep.beta == 0.5
    assert rep.dist_bound == pytest.approx(rep.c * np.sqrt(0.5))
    assert rep.terminal_distance <= rep.dist_bound
    assert rep.terminal_distance == pytest.approx(0.0, abs=1e-30)

    # a quad that declares beta = 2, which only the bound reads: c * sqrt(alpha) / sqrt(2 * 2), for alpha <= 1/4
    class SteepQuad(catalog.Quad):
        quad_growth = 2.0

    rep = convex_bounds_report(SteepQuad(1), [1.0], 0.25, 0.1, n_steps=20)
    assert rep.beta == 2.0
    assert rep.dist_bound == rep.c * np.sqrt(0.25) / 2
    assert convex_bounds_report(SteepQuad(1), [1.0], np.nextafter(0.25, 1.0), 0.1, n_steps=20).dist_bound is None


def test_convex_bounds_default_run_tail_and_cap(monkeypatch):
    quad = get_function("quad", 1)
    # without n_steps the run is max(200, 2 * budget) steps: 200 at budget 3 (x_k = (-2)^k), 400 at budget 200
    for alpha, epsilon, steps in [(3.0, 0.1, 200), (0.1, 0.05, 400)]:
        rep = convex_bounds_report(quad, [1.0], alpha, epsilon)
        assert rep.terminal_distance == abs(run(quad, [1.0], alpha, steps).points[-1, 0])
    assert convex_bounds_report(quad, [1.0], 3.0, 0.1).terminal_distance == 2.0 ** 200
    # the liminf estimate is the tail half: of 21 iterates from k = 10, where f = 0.5 * 4^10 (a third: 0.5 * 4^7)
    assert convex_bounds_report(quad, [1.0], 3.0, 0.1, n_steps=20).liminf_gap == 0.5 * 1024.0 ** 2
    # the 10^7 cap reads 2 * budget, the steps the run records; the run is stubbed, so nothing is stepped
    asked = []

    def stop(fn, x0, alpha, n_steps, policy):
        asked.append(n_steps)
        raise StopIteration

    monkeypatch.setattr(stability, "run", stop)
    with pytest.raises(StopIteration):  # budget 4 * 10^6
        convex_bounds_report(quad, [2000.0], 1.0, 1.0)
    with pytest.raises(ValueError, match="x0/alpha/epsilon"):  # budget 2000^2 + 1000^2 + 1 = 5 * 10^6 + 1
        convex_bounds_report(get_function("quad", 3), [2000.0, 1000.0, 1.0], 1.0, 1.0)
    assert asked == [8 * 10 ** 6]


def test_convex_bounds_rejects_nonconvex():
    with pytest.raises(NotConvex):
        convex_bounds_report(get_function("cross"), [1.0, 0.1], 0.1, 0.1)


def test_convex_bounds_validates_alpha_and_epsilon():
    fn = get_function("abs_sum", 1)
    for alpha, epsilon, named in [(np.nan, 0.1, "alpha"), (-0.1, 0.1, "alpha"), (10 ** 400, 0.1, "alpha"),
                                  (0.1, 0.0, "epsilon"), (0.1, -0.1, "epsilon"), (0.1, np.nan, "epsilon"),
                                  (0.1, np.inf, "epsilon"), (0.1, 10 ** 400, "epsilon")]:
        with pytest.raises(ValueError, match=named):
            convex_bounds_report(fn, [1.0], alpha, epsilon)


def test_no_escape_points_pass_local_min_check():
    # probed no-escape fixtures are also sample-consistent local minima
    for name, x_star in [("quad", np.zeros(2)), ("abs_sum", np.zeros(2)),
                         ("vee_bowl", np.zeros(2))]:
        verdict = probe(StabilityQuery(name, x_star, 0.1, n_samples=20,
                                       max_iters=300, seed=13))
        assert verdict.status == "no_escape_observed"
        check = local_min_check(get_function(name, 2), x_star, 0.05, seed=13)
        assert check.status == "consistent_with_local_min"
