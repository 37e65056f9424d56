"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 1 is known to fail honestly at the two smallest step sizes: the
measured escape times from B((1,0), 0.25) grow like 0.85/alpha^4 steps
(8.5e7 at alpha=0.01, confirmed by direct simulation), so the 1e5-step
budget cannot observe those escapes.  The assertion is kept as stated
rather than weakened; see the README's verification notes.
"""

import time

import numpy as np
import numpy.testing as npt

from nsdyn import (
    InterpolatedPath,
    StabilityQuery,
    convex_bounds_report,
    cross_update,
    doubling_check,
    energy_residual,
    escape_experiment,
    get_function,
    integrate_flow,
    probe,
    run,
    run_batch,
    sup_deviation,
)
from nsdyn.cli import run_command
from nsdyn.engine import make_rng

CROSS = get_function("cross")


def _report(tag: str, ok: bool, detail: str):
    print(f"[ACCEPTANCE] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_c1_counterexample_instability():
    t0 = time.time()
    outcomes = {}
    for alpha in (0.01, 0.05, 0.1, 0.3):
        stats, _ = escape_experiment(0.25, alpha, 1000, k_max=100_000, seed=7)
        outcomes[alpha] = stats.escaped_count
    elapsed = time.time() - t0
    detail = ", ".join(f"alpha={a}: {n}/1000" for a, n in outcomes.items())
    detail += f"; runtime {elapsed:.1f}s (target < 30s)"
    ok = all(n == 1000 for n in outcomes.values()) and elapsed < 30.0
    _report("C1 escape within 1e5 steps at every alpha", ok, detail)
    assert elapsed < 30.0
    assert all(n == 1000 for n in outcomes.values()), (
        "escapes within the 1e5-step budget: " + detail + "; escape times scale "
        "like 0.85/alpha^4 steps, so alpha=0.05 needs ~1.4e5 and alpha=0.01 "
        "~8.5e7 steps (the latter confirmed by a direct 8.45e7-step run)")


def test_c2_doubling_inequality_never_fails():
    rng = make_rng(20260808)
    checked = 0
    failures = 0
    while checked < 10_000:
        alpha = float(rng.choice((0.01, 0.05, 0.1, 0.3)))
        x1 = float(rng.uniform(0.5, 1.5))
        u = float(rng.uniform(0.0, 1.0))
        if u == 0.0:
            continue
        x2 = u * alpha * alpha / 32.0
        if rng.uniform() < 0.5:
            x2 = -x2
        checked += 1
        if not doubling_check([x1, x2], alpha):
            failures += 1
    ok = _report("C2 doubling |x2'| >= 2|x2| on 1e4 draws", failures == 0,
                 f"{failures} failures / {checked} instances, zero tolerance")
    assert ok


def test_c3_update_formula_equivalence():
    rng = make_rng(998877)
    xs, alphas = [], []
    while len(xs) < 10_000:
        x = rng.uniform(-2.0, 2.0, 2)
        if x[0] * x[1] == 0.0:
            continue
        xs.append(x)
        alphas.append(float(rng.choice((0.01, 0.05, 0.1, 0.3))))
    xs, alphas = np.array(xs), np.array(alphas)
    worst = 0.0
    checked = len(xs)
    for alpha in np.unique(alphas).tolist():  # one engine step on every point drawn with this alpha
        pts = xs[alphas == alpha]
        exit_idx, via_engine = run_batch(CROSS, pts, alpha, 1)
        assert (exit_idx == -1).all()
        via_formula = np.array([cross_update(x, alpha) for x in pts])
        denom = np.maximum(np.abs(via_engine), 1e-300)
        worst = max(worst, float(np.max(np.abs(via_formula - via_engine) / denom)))
    ok = _report("C3 closed-form update matches engine step", worst <= 1e-15,
                 f"max relative gap {worst:.2e} over {checked} off-axis points, limit 1e-15")
    assert ok


def test_c4_energy_identity():
    quad = get_function("quad", 1)
    r_coarse = energy_residual(integrate_flow(quad, [1.0], 1.0, 1e-3))
    r_fine = energy_residual(integrate_flow(quad, [1.0], 1.0, 5e-4))
    ratio = r_coarse / r_fine
    abs1 = get_function("abs_sum", 1)
    r_abs = energy_residual(integrate_flow(abs1, [0.05], 0.05, 1e-4))
    ok = (r_coarse <= 5e-3 and r_fine <= 3e-3 and 1.5 <= ratio <= 4.0 and r_abs <= 2e-4)
    _report("C4 energy identity residuals", ok,
            f"quad h=1e-3: {r_coarse:.2e} (<=5e-3), h=5e-4: {r_fine:.2e} (<=3e-3), "
            f"ratio {ratio:.2f} in [1.5,4]; abs_sum: {r_abs:.2e} (<=2e-4)")
    assert r_coarse <= 5e-3 and r_fine <= 3e-3
    assert 1.5 <= ratio <= 4.0
    assert r_abs <= 2e-4


def test_c5_deviation_trend():
    quad = get_function("quad", 1)
    devs = []
    for alpha in (0.1, 0.05, 0.025):
        traj = run(quad, [1.0], alpha, int(round(1.0 / alpha)))
        sol = integrate_flow(quad, [1.0], 1.0, alpha / 100.0)
        devs.append(sup_deviation(InterpolatedPath(traj, 1.0), sol).sup_dev)
    ratios = [b / a for a, b in zip(devs, devs[1:])]
    ok = abs(devs[0] - 0.0192) <= 2e-3 and all(r <= 0.75 for r in ratios)
    _report("C5 interpolation-vs-flow deviation trend", ok,
            f"sup_dev(0.1)={devs[0]:.4f} (0.0192 +- 0.002), halving ratios "
            f"{ratios[0]:.3f}, {ratios[1]:.3f} (<= 0.75)")
    assert abs(devs[0] - 0.0192) <= 2e-3
    assert all(r <= 0.75 for r in ratios)


def _replay_bit_exact(witness, fn_id, x_star, epsilon, policy):
    fn = get_function(fn_id, dim=witness.x0.shape[0])
    replay = run(fn, witness.x0, witness.alpha, witness.exit_index, policy,
                 seed=witness.seed)
    same = replay.points.tobytes() == witness.trajectory_ref.points.tobytes()
    d = np.linalg.norm(replay.points - np.asarray(x_star)[None, :], axis=1)
    return same and d[-1] > epsilon and np.all(d[:-1] <= epsilon)


def test_c6_stability_probes():
    results = {}
    replays = {}
    stable = [("quad", np.zeros(2)), ("abs_sum", np.zeros(2)), ("vee_bowl", np.zeros(2))]
    for name, x_star in stable:
        v = probe(StabilityQuery(name, x_star, 0.1, seed=2026))
        results[name] = v.status
    v = probe(StabilityQuery("neg_norm", np.zeros(2), 0.1, seed=2026))
    results["neg_norm"] = v.status
    if v.witness is not None:
        replays["neg_norm"] = _replay_bit_exact(v.witness, "neg_norm", np.zeros(2),
                                                0.1, v.query.policy)
    # desk-scale step sizes for the cross probe: measured escape times grow
    # like 0.85/alpha^4, so the geometric default ladder cannot terminate
    v = probe(StabilityQuery("cross", np.array([1.0, 0.0]), 0.25,
                             alpha_grid=(0.3, 0.1), max_iters=20_000,
                             n_samples=16, seed=2026))
    results["cross"] = v.status
    if v.witness is not None:
        replays["cross"] = _replay_bit_exact(v.witness, "cross", np.array([1.0, 0.0]),
                                             0.25, v.query.policy)
    want = {
        "quad": "no_escape_observed",
        "abs_sum": "no_escape_observed",
        "vee_bowl": "no_escape_observed",
        "neg_norm": "escape_witnessed",
        "cross": "escape_witnessed",
    }
    ok = results == want and all(replays.values()) and len(replays) == 2
    _report("C6 stability probes on the catalog", ok,
            ", ".join(f"{k}={v}" for k, v in results.items())
            + f"; witness replays bit-exact: {replays}")
    assert results == want
    assert replays == {"neg_norm": True, "cross": True}


def test_c7_convex_bounds():
    abs1 = get_function("abs_sum", 1)
    rep1 = convex_bounds_report(abs1, [1.0], 0.1, 0.1, n_steps=400)
    rep2 = convex_bounds_report(abs1, [0.07], 0.1, 0.1, n_steps=400)
    quad = get_function("quad", 1)
    rep3 = convex_bounds_report(quad, [1.0], 0.5, 0.1, n_steps=300)
    rep4 = convex_bounds_report(quad, [1.0], 1.0, 0.1, n_steps=300)
    ok = (rep1.iters_budget == 100 and rep1.achieved_within_budget
          and rep1.liminf_gap <= 0.05 and rep2.liminf_gap <= 0.05
          and rep3.terminal_distance <= rep3.dist_bound
          and rep4.terminal_distance <= rep4.dist_bound)
    _report("C7 convex constant-step bounds", ok,
            f"abs_sum x0=1: budget={rep1.iters_budget}, gap@budget ok={rep1.achieved_within_budget}, "
            f"liminf={rep1.liminf_gap:.3g} (<=0.05); x0=0.07: liminf={rep2.liminf_gap:.3g} (<=0.05); "
            f"quad terminal {rep3.terminal_distance:.2e} <= {rep3.dist_bound:.3f}")
    assert rep1.iters_budget == 100 and rep1.achieved_within_budget
    assert rep1.liminf_gap <= 0.05 + 1e-15
    assert rep2.liminf_gap <= 0.05 + 1e-15
    assert rep3.terminal_distance <= rep3.dist_bound
    assert rep4.terminal_distance <= rep4.dist_bound


def test_c8_byte_determinism(tmp_path):
    jobs = [
        ["simulate", "--function", "cross", "--x0", "1,0.1", "--alpha", "0.1",
         "--steps", "200", "--seed", "3"],
        ["counterexample", "--epsilon", "0.25", "--alpha", "0.3",
         "--samples", "300", "--seed", "7"],
        ["probe", "--function", "neg_norm", "--xstar", "0,0", "--epsilon", "0.1",
         "--samples", "10", "--seed", "3"],
    ]
    identical = True
    for i, argv in enumerate(jobs):
        a = tmp_path / "first" / f"out{i}"
        b = tmp_path / "second" / f"out{i}"
        a.parent.mkdir(exist_ok=True)
        b.parent.mkdir(exist_ok=True)
        assert run_command(argv + ["--out", str(a)]) == 0
        assert run_command(argv + ["--out", str(b)]) == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    ok = _report("C8 byte-identical reruns", identical,
                 f"{len(jobs)} configurations regenerated twice")
    assert ok
