"""The three workloads of the nsdyn benchmark: inputs, jobs and output checks.

Each workload is a closed loop: one client issues CLI-equivalent library
calls, each after the previous one returns.  Inputs come from the seed
alone; the package sees only the generated inputs.  Checks rest on
invariants that any correct change preserves (bit-exact replays through a
second public entry point, summaries that agree with their tables, golden
bytes, verdicts), never on hashes of current output.  Checks run after the
timed jobs, so they cost no wall time.

Work counts come from the returned outputs (exit indices, budgets, points,
grids), not from program counters, so every rate has an exact base.

    escape      escape_experiment on cross at four step sizes: large-batch
                run_batch.  alpha >= 0.1 drains the batch (exits at ~131 and
                ~1.1e4 steps), so row compaction is heavy; alpha <= 0.05
                keeps >= 75% of rows alive to the budget, so per-row
                arithmetic dominates.
    probe       stability.probe on the catalog: the same run_batch and oracle
                with 4-50 rows and many short cells, so per-iteration
                overhead dominates; also sample_ball, derive_seed,
                estimate_lipschitz and the scalar run loop of a
                non-minimal-norm policy.
    trajectory  single-trajectory jobs (compare, a long simulate, convex
                bounds, README configurations): the scalar run loop,
                generators and Wolfe, single-row min_norm_many inside
                integrate_flow, sup_deviation and row-by-row CSV.  Nothing
                here is batched.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import Counter
from pathlib import Path

import numpy as np

from nsdyn import catalog, counterexample, engine, flow, reporting, stability
from tracing import NullTracer, Tracer, time_min_norm

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR.parent / "tests" / "goldens"

# --- escape ---------------------------------------------------------------

EPSILON = 0.25
N_SAMPLES = 1000
CENTER = np.array([1.0, 0.0])
# (alpha, k_max); every alpha >= DRAIN_ALPHA must drain within its budget
ESCAPE_BUDGETS = ((0.3, 1000), (0.1, 15000), (0.05, 10000), (0.01, 5000))
DRAIN_ALPHA = 0.1
REPLAY_ROWS = (0, N_SAMPLES - 1)
ESCAPE_SAMPLING_KEY = 0xE5C  # escape_experiment's sampling stream: derive_seed(seed, 0xE5C)

# --- probe ----------------------------------------------------------------

LIPSCHITZ_KEY = 0x11F  # probe's Lipschitz stream: derive_seed(seed, 0x11F)

# --- trajectory -----------------------------------------------------------

ALPHA = 0.01
HORIZON = 1.0
FLOW_H = ALPHA / 100.0  # the CLI's default flow step
LONG_ALPHA = 0.1
LONG_STEPS = 10_000
KINK_START = (0.0, 0.0, 0.5, 1.0)  # abs_sum in R^4 with two zero coordinates


def require(problems: list, ok, message: str):
    if not ok:
        problems.append(message)


def _golden(name: str) -> bytes:
    return (GOLDENS / name).read_bytes()


def _loop_iters(exits: np.ndarray, k_max: int) -> int:
    """Iterations of run_batch's step loop, read off its exit indices."""
    if exits.size == 0:
        return 0
    return k_max if (exits < 0).any() else int(exits.max())


def _compactions(exits: np.ndarray) -> int:
    """Steps at which at least one row left the batch."""
    return int(np.unique(exits[exits > 0]).size)


def _batch_steps(exits: np.ndarray, k_max: int) -> int:
    return int(np.where(exits >= 0, exits, k_max).sum())


def _value_key(x: float) -> int:
    # probe seeds each grid cell by the bit pattern of its (delta, alpha) values
    return int(np.float64(x).view(np.uint64))


# --- escape ---------------------------------------------------------------

def escape_inputs(seed: int) -> dict:
    table = json.loads((BENCH_DIR / "expected_escape.json").read_text())
    if [tuple(b) for b in table["budgets"]] != list(ESCAPE_BUDGETS):
        raise ValueError("expected_escape.json was made for other budgets")
    return {"seed": seed, "expected": table["seeds"].get(str(seed))}


def _escape_job(tr, seed, alpha, k_max):
    with tr.span("counterexample.escape_experiment"):
        stats, per = counterexample.escape_experiment(EPSILON, alpha, N_SAMPLES, k_max, seed)
    with tr.span("reporting.per_sample_csv_text"):
        csv_text = reporting.per_sample_csv_text(per)
    with tr.span("reporting.json_text"):
        json_out = reporting.json_text(stats.to_json_dict())
    return stats, per, csv_text, json_out


def _escape_check(tr, seed, alpha, k_max, want, out, problems):
    stats, per, csv_text, json_out = out
    exits = per["exit_index"]
    off = ~per["on_S"]
    escaped = exits >= 0
    require(problems, stats.escaped_count == int(escaped.sum())
            and stats.max_exit_index == (int(exits.max()) if escaped.any() else -1),
            "summary disagrees with the per-sample table")
    require(problems, json.loads(json_out) == stats.to_json_dict(), "JSON does not round-trip")
    rows = csv_text.splitlines()
    require(problems, len(rows) == N_SAMPLES + 1
            and [int(r.split(",")[3]) for r in rows[1:]] == exits.tolist(),
            "per-sample CSV exit column disagrees with the table")
    if want is not None:
        got = [stats.escaped_count, stats.max_exit_index]
        require(problems, got == want, f"escaped/max exit {got}, reference table has {want}")
    if alpha >= DRAIN_ALPHA:
        require(problems, escaped[off].all(), "batch did not drain within the budget")
    else:
        require(problems, (~escaped).sum() >= 0.75 * N_SAMPLES, "fewer than 75% of rows alive")
    cross = catalog.get_function("cross")
    for i in REPLAY_ROWS:
        if per["on_S"][i]:
            continue
        traj = engine.run(cross, [per["x1_0"][i], per["x2_0"][i]], alpha, k_max, stop=(CENTER, EPSILON))
        hit = engine.first_exit(traj, CENTER, EPSILON)
        require(problems, (-1 if hit is None else hit) == exits[i],
                f"row {i}: run exits at {hit}, run_batch at {exits[i]}")
    live = exits[off]
    counts = {"sample_steps": _batch_steps(live, k_max), "loop_iters": _loop_iters(live, k_max),
              "compactions": _compactions(live), "escaped": int(escaped.sum())}
    counts["oracle_rows"] = counts["sample_steps"]
    if tr.active:
        # escape_experiment builds its own cross; replay its batch through the proxy
        rng = engine.make_rng(engine.derive_seed(seed, ESCAPE_SAMPLING_KEY))
        with tr.span("engine.sample_ball"):
            x0s = engine.sample_ball(CENTER, EPSILON, N_SAMPLES, rng)
        require(problems, x0s[:, 0].tobytes() == per["x1_0"].tobytes()
                and x0s[:, 1].tobytes() == per["x2_0"].tobytes(), "replayed starts differ")
        calls0, rows0, _ = tr.oracle_totals("min_norm_many")
        with tr.span("engine.run_batch"):
            idx, _ = engine.run_batch(tr.wrap(cross), x0s[off], alpha, k_max, CENTER, EPSILON)
        calls1, rows1, _ = tr.oracle_totals("min_norm_many")
        require(problems, np.array_equal(idx, live), "run_batch replay gives other exit indices")
        require(problems, (calls1 - calls0, rows1 - rows0) == (counts["loop_iters"], counts["sample_steps"]),
                "oracle calls/rows disagree with the exit indices")
    return counts


def escape_jobs(inputs, tr, full):
    seed, expected = inputs["seed"], inputs["expected"]
    jobs = []
    for j, (alpha, k_max) in enumerate(ESCAPE_BUDGETS):
        want = None if expected is None else expected[j]
        jobs.append((f"escape_alpha_{alpha}",
                     functools.partial(_escape_job, tr, seed, alpha, k_max),
                     functools.partial(_escape_check, tr, seed, alpha, k_max, want)))
    return jobs


def escape_layers(tr, counts):
    steps = counts["sample_steps"]
    calls, rows, mn_ns = tr.oracle_totals("min_norm_many")
    _, rb_ns, rb_self = tr.span_totals("engine.run_batch")
    _, ee_ns, _ = tr.span_totals("counterexample.escape_experiment")
    _, csv_ns, _ = tr.span_totals("reporting.per_sample_csv_text")
    return {
        "catalog.min_norm_many.rows": rows,
        "catalog.min_norm_many.calls": calls,
        "catalog.min_norm_many.ns_per_row": mn_ns / rows,
        "engine.run_batch.sample_steps": steps,
        "engine.run_batch.ns_per_sample_step": rb_ns / steps,
        "engine.run_batch.self_ns_per_sample_step": rb_self / steps,
        "counterexample.escape_experiment.s": ee_ns / 1e9,
        "counterexample.escape_experiment.self_s": (ee_ns - rb_ns) / 1e9,
        "reporting.per_sample_csv_text.us_per_row": csv_ns / 1e3 / (N_SAMPLES * len(ESCAPE_BUDGETS)),
    }


# --- probe ----------------------------------------------------------------

def probe_inputs(seed: int) -> dict:
    zero2 = np.zeros(2)
    q = stability.StabilityQuery
    queries = [
        ("quad", q("quad", zero2, 0.1, seed=seed), "no_escape_observed", None),
        ("abs_sum", q("abs_sum", zero2, 0.1, seed=seed), "no_escape_observed", None),
        ("vee_bowl", q("vee_bowl", zero2, 0.1, seed=seed), "no_escape_observed", None),
        ("neg_norm", q("neg_norm", zero2, 0.1, seed=seed), "escape_witnessed", None),
        ("wiggle", q("wiggle", np.zeros(1), 0.1, seed=seed), "no_escape_observed", None),
        # C6 desk-scale cross query
        ("cross", q("cross", np.array([1.0, 0.0]), 0.25, alpha_grid=(0.3, 0.1), max_iters=20_000,
                    n_samples=16, seed=seed), "escape_witnessed", None),
        ("abs_sum_random_extreme", q("abs_sum", zero2, 0.1, n_samples=4,
                                     policy=engine.SelectionPolicy("random_extreme"), seed=seed),
         "no_escape_observed", None),
        # README configuration with a golden report and witness
        ("golden_probe_negnorm_s3", q("neg_norm", zero2, 0.1, n_samples=10, seed=3),
         "escape_witnessed", "probe_negnorm_s3"),
    ]
    return {"seed": seed, "queries": queries}


def _probe_job(tr, q, golden):
    with tr.span("stability.probe"):
        verdict = stability.probe(q)
    witness_csv = None
    if verdict.witness is not None:
        with tr.span("reporting.trajectory_csv_text"):
            witness_csv = reporting.trajectory_csv_text(verdict.witness.trajectory_ref)
    witness_name = None if golden is None else f"{golden}_witness.csv"
    with tr.span("reporting.json_text"):
        json_out = reporting.json_text(reporting.verdict_json_dict(verdict, witness_name))
    return verdict, json_out, witness_csv


def _derive(tr, *words):
    tr.add("engine.derive_seed.calls")
    return engine.derive_seed(*words)


def _cell_keys(q, verdict, d_idx, a_idx):
    return (q.seed, _value_key(verdict.delta_grid[d_idx]), _value_key(verdict.alpha_grid[a_idx]))


def _replay_cells(tr, q, verdict, fn, cells):
    """Exit indices per cell from sample_ball plus run_batch (or run per sample)."""
    x_star = np.asarray(q.x_star, float)
    fnw = tr.wrap(fn)
    exits = {}
    for d_idx, a_idx in cells:
        delta = float(verdict.delta_grid[d_idx])
        alpha = float(verdict.alpha_grid[a_idx])
        k_max = int(verdict.iters_per_alpha[a_idx])
        keys = _cell_keys(q, verdict, d_idx, a_idx)
        rng = engine.make_rng(_derive(tr, *keys))
        with tr.span("engine.sample_ball"):
            x0s = engine.sample_ball(x_star, delta, q.n_samples, rng)
        if q.policy.kind == "minimal_norm":
            with tr.span("engine.run_batch"):
                idx, _ = engine.run_batch(fnw, x0s, alpha, k_max, x_star, q.epsilon)
        else:
            idx = np.empty(q.n_samples, dtype=np.int64)
            for i in range(q.n_samples):
                seed_i = _derive(tr, *keys, i)
                with tr.span("engine.run"):
                    traj = engine.run(fnw, x0s[i], alpha, k_max, q.policy, seed=seed_i,
                                      stop=(x_star, q.epsilon))
                tr.add("engine.run.steps", traj.n_steps)
                hit = engine.first_exit(traj, x_star, q.epsilon)
                idx[i] = -1 if hit is None else hit
        exits[(d_idx, a_idx)] = (x0s, idx, k_max)
    return exits


def _probe_check(tr, full, q, want_status, golden, out, problems):
    verdict, json_out, witness_csv = out
    counts_grid = verdict.escape_counts
    require(problems, verdict.status == want_status, f"status {verdict.status}, expected {want_status}")
    doc = json.loads(json_out)
    require(problems, doc["status"] == verdict.status and doc["escape_counts"] == counts_grid.tolist(),
            "report JSON disagrees with the verdict")
    fn = catalog.get_function(q.fn_id, dim=len(q.x_star))
    x_star = np.asarray(q.x_star, float)
    counts = Counter(probe_cells=int(counts_grid.size), escapes=int(counts_grid.sum()))
    w = verdict.witness
    if w is not None:
        with tr.span("engine.run"):
            replay = engine.run(tr.wrap(fn), w.x0, w.alpha, w.exit_index, q.policy, seed=w.seed)
        tr.add("engine.run.steps", replay.n_steps)
        dist = np.linalg.norm(replay.points - x_star[None, :], axis=1)
        require(problems, replay.points.tobytes() == w.trajectory_ref.points.tobytes()
                and dist[-1] > q.epsilon and np.all(dist[:-1] <= q.epsilon),
                "witness does not replay bit for bit")
        require(problems, len(witness_csv.splitlines()) == w.exit_index + 2, "witness CSV row count")
        counts["witness_steps"] = w.exit_index
    if golden is not None:
        require(problems, json_out.encode() == _golden(f"{golden}.json"), "report differs from golden")
        require(problems, witness_csv is not None
                and witness_csv.encode() == _golden(f"{golden}_witness.csv"), "witness differs from golden")
    if not (full or tr.active):
        return counts
    if tr.active:
        # probe builds its own function object; replay its inner calls through the proxy
        with tr.span("stability.estimate_lipschitz"):
            lip = stability.estimate_lipschitz(tr.wrap(fn), x_star, q.epsilon,
                                               seed=_derive(tr, q.seed, LIPSCHITZ_KEY))
        require(problems, lip == verdict.lipschitz_estimate, "Lipschitz replay differs")
    cells = [(d, a) for d in range(counts_grid.shape[0]) for a in range(counts_grid.shape[1])
             if tr.active or counts_grid[d, a] > 0]
    calls0, rows0, _ = tr.oracle_totals("min_norm_many")
    exits = _replay_cells(tr, q, verdict, fn, cells)
    calls1, rows1, _ = tr.oracle_totals("min_norm_many")
    steps = loop_iters = compactions = 0
    for (d, a), k_max in np.ndenumerate(np.broadcast_to(verdict.iters_per_alpha, counts_grid.shape)):
        if (d, a) in exits:
            x0s, idx, _ = exits[(d, a)]
            require(problems, int((idx >= 0).sum()) == counts_grid[d, a], f"cell {(d, a)} replay count differs")
        else:
            idx = np.full(q.n_samples, -1, dtype=np.int64)
        steps += _batch_steps(idx, int(k_max))
        loop_iters += _loop_iters(idx, int(k_max))
        compactions += _compactions(idx)
    if w is not None:
        d, a = min(k for k, (_, idx, _) in exits.items() if (idx >= 0).any())
        x0s, idx, _ = exits[(d, a)]
        i = int(np.flatnonzero(idx >= 0)[0])
        require(problems, x0s[i].tobytes() == w.x0.tobytes() and idx[i] == w.exit_index
                and _derive(tr, *_cell_keys(q, verdict, d, a), i) == w.seed,
                "witness is not the first escape of the replayed grid")
    counts.update(sample_steps=steps + counts["witness_steps"])
    if q.policy.kind == "minimal_norm":
        counts.update(loop_iters=loop_iters, compactions=compactions)
        if tr.active:
            require(problems, (calls1 - calls0, rows1 - rows0) == (loop_iters, steps),
                    "oracle calls/rows disagree with the exit indices")
    return counts


def probe_jobs(inputs, tr, full):
    return [(name, functools.partial(_probe_job, tr, q, golden),
             functools.partial(_probe_check, tr, full, q, status, golden))
            for name, q, status, golden in inputs["queries"]]


def probe_layers(tr, counts):
    gen_calls, _, gen_ns = tr.oracle_totals("generators")
    _, rb_ns, _ = tr.span_totals("engine.run_batch")
    _, run_ns, run_self = tr.span_totals("engine.run")
    sb_n, sb_ns, _ = tr.span_totals("engine.sample_ball")
    _, probe_ns, _ = tr.span_totals("stability.probe")
    lip_n, lip_ns, _ = tr.span_totals("stability.estimate_lipschitz")
    run_steps = tr.counts["engine.run.steps"]
    return {
        "catalog.generators.calls": gen_calls,
        "catalog.generators.us_per_call": gen_ns / 1e3 / gen_calls,
        "engine.run_batch.loop_iters": counts["loop_iters"],
        "engine.run_batch.us_per_loop_iter": rb_ns / 1e3 / counts["loop_iters"],
        "engine.run_batch.compactions": counts["compactions"],
        "engine.run.steps": run_steps,
        "engine.run.us_per_step": run_ns / 1e3 / run_steps,
        "engine.run.self_us_per_step": run_self / 1e3 / run_steps,
        "engine.sample_ball.us_per_call": sb_ns / 1e3 / sb_n,
        "engine.derive_seed.calls": tr.counts["engine.derive_seed.calls"],
        "stability.probe.cells": counts["probe_cells"],
        "stability.probe.ms_per_cell": probe_ns / 1e6 / counts["probe_cells"],
        "stability.estimate_lipschitz.ms": lip_ns / 1e6 / lip_n,
    }


# --- trajectory -----------------------------------------------------------

def trajectory_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def signs(n):
        return rng.choice([-1.0, 1.0], n)

    def cross_start():
        return [rng.uniform(0.9, 1.1), rng.uniform(0.05, 0.15) * signs(1)[0]]

    angle = rng.uniform(0.0, 2.0 * np.pi)
    radius = rng.uniform(0.2, 1.0)
    compare = [
        ("quad", 2, rng.uniform(0.3, 1.0, 2) * signs(2)),
        ("abs_sum", 4, np.array(KINK_START)),
        ("cross", 2, np.array(cross_start())),
        ("wiggle", 1, np.array([rng.uniform(0.1, 0.5) * signs(1)[0]])),
        ("vee_bowl", 2, np.array([rng.uniform(0.1, 0.5) * signs(1)[0], rng.uniform(-1.0, 1.0)])),
        ("neg_norm", 2, radius * np.array([np.cos(angle), np.sin(angle)])),
    ]
    return {"seed": seed, "compare": compare, "long_start": np.array(cross_start())}


def _compare_job(tr, fn, x0):
    fnw = tr.wrap(fn)
    n_steps = int(np.ceil(HORIZON / ALPHA))
    with tr.span("engine.run"):
        traj = engine.run(fnw, x0, ALPHA, n_steps)
    with tr.span("flow.integrate_flow"):
        sol = flow.integrate_flow(fnw, x0, HORIZON, FLOW_H)
    with tr.span("flow.sup_deviation"):
        dev = flow.sup_deviation(engine.InterpolatedPath(traj, HORIZON), sol)
    with tr.span("reporting.trajectory_csv_text"):
        traj_csv = reporting.trajectory_csv_text(traj, fnw)
    with tr.span("reporting.flow_csv_text"):
        flow_csv = reporting.flow_csv_text(sol)
    with tr.span("reporting.json_text"):
        json_out = reporting.json_text(dev)
    return traj, sol, dev, traj_csv, flow_csv, json_out


def _simulate_job(tr, fn, x0, alpha, n_steps):
    fnw = tr.wrap(fn)
    with tr.span("engine.run"):
        traj = engine.run(fnw, x0, alpha, n_steps)
    with tr.span("reporting.trajectory_csv_text"):
        text = reporting.trajectory_csv_text(traj, fnw)
    return traj, text


def _convex_bounds_job(tr, fn):
    with tr.span("stability.convex_bounds_report"):
        report = stability.convex_bounds_report(tr.wrap(fn), [1.0], 0.1, 0.1, n_steps=400)
    with tr.span("reporting.json_text"):
        return reporting.json_text(report)


def _list_functions_job(tr):
    with tr.span("reporting.json_text"):
        return reporting.json_text(reporting.catalog_json_list())


def _traj_counts(fn, traj, csv_text, problems) -> Counter:
    require(problems, len(csv_text.splitlines()) == traj.points.shape[0] + 1, "trajectory CSV row count")
    kinks = sum(fn.generators(p, 0.0).shape[0] > 2 for p in traj.points)
    return Counter(discrete_steps=traj.n_steps, sample_steps=traj.n_steps,
                   trajectory_csv_rows=traj.points.shape[0], kink_points=int(kinks))


def _same_as_batch(fn, traj, problems):
    """run's final point must equal run_batch's bit for bit."""
    _, last = engine.run_batch(fn, traj.points[:1], traj.alpha, traj.n_steps)
    require(problems, last[0].tobytes() == traj.points[-1].tobytes(),
            f"run ends at {traj.points[-1].tolist()}, run_batch at {last[0].tolist()}")


def _compare_check(fn, out, problems):
    traj, sol, dev, traj_csv, flow_csv, json_out = out
    counts = _traj_counts(fn, traj, traj_csv, problems)
    require(problems, len(flow_csv.splitlines()) == sol.ts.shape[0] + 1, "flow CSV row count")
    require(problems, json.loads(json_out) == {"alpha": dev.alpha, "h": dev.h, "sup_dev": dev.sup_dev,
                                               "t_argmax": dev.t_argmax}, "deviation JSON")
    require(problems, np.isfinite(dev.sup_dev) and dev.sup_dev >= 0.0, "sup deviation not finite")
    node_ts = traj.alpha * np.arange(traj.n_steps + 1)
    grid = np.union1d(node_ts[node_ts <= HORIZON], sol.ts[sol.ts <= HORIZON])
    counts.update(flow_steps=sol.ts.shape[0] - 1, sample_steps=sol.ts.shape[0] - 1,
                  flow_csv_rows=sol.ts.shape[0], sup_grid_points=grid.size)
    _same_as_batch(fn, traj, problems)
    return counts


def _simulate_check(fn, golden, out, problems):
    traj, text = out
    counts = _traj_counts(fn, traj, text, problems)
    if golden is None:
        _same_as_batch(fn, traj, problems)
    else:
        require(problems, text.encode() == _golden(golden), f"differs from golden {golden}")
    return counts


def _bytes_check(golden, out, problems):
    require(problems, out.encode() == _golden(golden), f"differs from golden {golden}")
    return Counter()


def trajectory_jobs(inputs, tr, full):
    get = catalog.get_function
    jobs = []
    for name, dim, x0 in inputs["compare"]:
        fn = get(name, dim)
        label = "compare_abs_sum_kink" if name == "abs_sum" else f"compare_{name}"
        jobs.append((label, functools.partial(_compare_job, tr, fn, x0),
                     functools.partial(_compare_check, fn)))
    cross = get("cross")
    jobs.append(("simulate_cross_long",
                 functools.partial(_simulate_job, tr, cross, inputs["long_start"], LONG_ALPHA, LONG_STEPS),
                 functools.partial(_simulate_check, cross, None)))
    abs1 = get("abs_sum", 1)
    jobs.append(("golden_convex_bounds_abssum", functools.partial(_convex_bounds_job, tr, abs1),
                 functools.partial(_bytes_check, "convex_bounds_abssum.json")))
    quad = get("quad", 1)
    for golden, fn, x0, steps in (("simulate_quad_k2.csv", quad, [1.0], 2),
                                  ("simulate_quad_k0.csv", quad, [1.0], 0),
                                  ("simulate_cross_200.csv", cross, [1.0, 0.1], 200)):
        jobs.append((f"golden_{golden[:-4]}", functools.partial(_simulate_job, tr, fn, x0, 0.1, steps),
                     functools.partial(_simulate_check, fn, golden)))
    jobs.append(("golden_list_functions", functools.partial(_list_functions_job, tr),
                 functools.partial(_bytes_check, "list_functions.json")))
    return jobs


def trajectory_layers(tr, counts):
    mn_calls, _, mn_ns = tr.oracle_totals("min_norm_many")
    gen_calls, _, gen_ns = tr.oracle_totals("generators")
    value_calls, _, _ = tr.oracle_totals("value")
    _, vm_rows, _ = tr.oracle_totals("value_many")
    _, run_ns, run_self = tr.span_totals("engine.run")
    _, flow_ns, _ = tr.span_totals("flow.integrate_flow")
    _, sup_ns, _ = tr.span_totals("flow.sup_deviation")
    _, cb_ns, _ = tr.span_totals("stability.convex_bounds_report")
    _, tcsv_ns, _ = tr.span_totals("reporting.trajectory_csv_text")
    _, fcsv_ns, _ = tr.span_totals("reporting.flow_csv_text")
    json_n, json_ns, _ = tr.span_totals("reporting.json_text")
    steps = counts["discrete_steps"]
    # Wolfe is timed on fixed kink sets, so the timing survives changes that
    # stop calling it from run: the abs_sum kink start (4 generators, the one
    # set this workload hands to Wolfe) and abs_sum in R^6 at 0 (64 generators)
    kink_set = catalog.get_function("abs_sum", 4).generators(np.array(KINK_START))
    origin_set = catalog.get_function("abs_sum", 6).generators(np.zeros(6))
    return {
        "catalog.min_norm_many.calls": mn_calls,
        "catalog.min_norm_many.us_per_call": mn_ns / 1e3 / mn_calls,
        "catalog.generators.calls": gen_calls,
        "catalog.generators.us_per_call": gen_ns / 1e3 / gen_calls,
        "catalog.wolfe.calls": tr.counts["catalog.wolfe.calls"],
        "catalog.wolfe.us_per_call.m4": time_min_norm(kink_set),
        "catalog.wolfe.us_per_call.m64": time_min_norm(origin_set),
        "catalog.value.calls": value_calls,
        "catalog.value_many.rows": vm_rows,
        "engine.run.steps": steps,
        "engine.run.us_per_step": run_ns / 1e3 / steps,
        "engine.run.self_us_per_step": run_self / 1e3 / steps,
        "flow.integrate_flow.steps": counts["flow_steps"],
        "flow.integrate_flow.us_per_step": flow_ns / 1e3 / counts["flow_steps"],
        "flow.sup_deviation.grid_points": counts["sup_grid_points"],
        "flow.sup_deviation.us_per_point": sup_ns / 1e3 / counts["sup_grid_points"],
        "stability.convex_bounds_report.ms": cb_ns / 1e6,
        "reporting.trajectory_csv_text.us_per_row": tcsv_ns / 1e3 / counts["trajectory_csv_rows"],
        "reporting.flow_csv_text.us_per_row": fcsv_ns / 1e3 / counts["flow_csv_rows"],
        "reporting.json_text.us_per_call": json_ns / 1e3 / json_n,
    }


# --- one pass -------------------------------------------------------------

INPUTS = {"escape": escape_inputs, "probe": probe_inputs, "trajectory": trajectory_inputs}
JOBS = {"escape": escape_jobs, "probe": probe_jobs, "trajectory": trajectory_jobs}
LAYERS = {"escape": escape_layers, "probe": probe_layers, "trajectory": trajectory_layers}


def run_pass(workload: str, inputs: dict, traced: bool, full: bool) -> dict:
    """Run every job of the workload once (timed), then check every output.

    A job that raises counts as failed; so does one whose check reports a
    problem.  ``full`` adds the replays that only some counts need.
    """
    tr = Tracer() if traced else NullTracer()
    jobs = JOBS[workload](inputs, tr, full)
    outputs, errors, seconds = {}, {}, {}
    start = time.perf_counter()
    for name, job, _ in jobs:
        t = time.perf_counter()
        try:
            outputs[name] = job()
        except Exception as exc:  # a raising call is a failed operation, not a crashed benchmark
            errors[name] = f"raised {type(exc).__name__}: {exc}"
        seconds[name] = time.perf_counter() - t
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results, counts = [], Counter()
    for name, _, check in jobs:
        problems = []
        if name in errors:
            problems.append(errors[name])
        else:
            try:
                counts.update(check(outputs[name], problems))
            except Exception as exc:  # a check that cannot run fails its job
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        results.append({"job": name, "ok": not problems, "seconds": seconds[name], "detail": "; ".join(problems)})
    result = {"wall_s": wall, "peak_rss_kib": peak_kib, "jobs": results,
              "counts": {k: int(v) for k, v in sorted(counts.items())}}
    if traced:
        result["layers"] = {k: float(v) for k, v in LAYERS[workload](tr, counts).items()}
        result["oracle"] = {k: list(v) for k, v in tr.oracle.items()}
        result["spans"] = tr.spans
    return result
