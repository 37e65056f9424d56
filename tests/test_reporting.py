import json
import tracemalloc

import numpy as np
import pytest

from nsdyn import (
    StabilityQuery,
    convex_bounds_report,
    escape_experiment,
    get_function,
    integrate_flow,
    probe,
    run,
)
from nsdyn.reporting import (
    CSV_BLOCK,
    _csv,
    fmt,
    flow_csv_text,
    json_text,
    per_sample_csv_text,
    trajectory_csv_text,
    verdict_json_dict,
    write_text,
)
from nsdyn.errors import NonFiniteState


def test_fmt_is_shortest_roundtrip():
    for v in (0.5, 0.1, 1 / 3, 0.32805000000000006, 1e-300, -0.0):
        assert float(fmt(v)) == v
        assert len(fmt(v).replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 17


def test_csv_cells_print_as_fmt():
    # every row prints its cells one by one, on either side of each block boundary
    b = CSV_BLOCK
    for n in (0, 1, b - 1, b, b + 1, 2 * b + 1):
        col = np.resize([0.1, -0.0, 1e-300, 5e-324, np.inf, -np.inf, np.nan, 1 / 3, 1e22, 123456789.0], n)
        flags = np.arange(n) % 3 == 0
        ks = np.arange(n) - 5
        lines = _csv(["v", "on", "k"], [col, flags, ks]).split("\n")
        assert lines == ["v,on,k", *(f"{fmt(v)},{int(on)},{int(k)}" for v, on, k in zip(col, flags, ks)), ""], n
    # a short column is refused, not truncated or padded with blank lines
    with pytest.raises(ValueError, match=r"\[3, 2, 3\]"):
        _csv(["a", "b", "c"], [np.zeros(3), np.arange(2), np.ones(3, bool)])


def _traced_peak(call):
    """call()'s result and the peak bytes allocated during it, numpy's included; tracing slows every allocation."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_recorded_run_and_its_csv_peak_near_their_size():
    # the record is held once, and the CSV at about twice its text
    fn = get_function("cross")
    trajectory_csv_text(run(fn, [1.0, 0.1], 0.1, 10), fn)  # imports and caches before tracing
    traj, peak = _traced_peak(lambda: run(fn, [1.0, 0.1], 0.1, 3000))
    assert peak <= 1.25 * (traj.points.nbytes + traj.chosen_subgradients.nbytes)
    traj = run(fn, [1.0, 0.1], 0.1, 10 ** 4)
    text, peak = _traced_peak(lambda: trajectory_csv_text(traj, fn))
    assert peak <= 3 * len(text)


def test_trajectory_csv_deterministic(tmp_path):
    traj = run(get_function("quad", 1), [1.0], 0.1, 2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_text(a, trajectory_csv_text(traj))
    write_text(b, trajectory_csv_text(traj))
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    assert rows[0] == "k,t,x_0,f,subgrad_norm"
    assert rows[1] == "0,0.0,1.0,0.5,1.0"
    assert rows[2].startswith("1,0.1") and ",0.9," in rows[2]


def test_zero_step_trajectory_csv(tmp_path):
    traj = run(get_function("quad", 1), [1.0], 0.1, 0)
    out = tmp_path / "k0.csv"
    write_text(out, trajectory_csv_text(traj))
    assert out.read_text().splitlines() == ["k,t,x_0,f,subgrad_norm", "0,0.0,1.0,0.5,1.0"]


def test_flow_csv_and_report_json(tmp_path):
    sol = integrate_flow(get_function("quad", 1), [1.0], 0.1, 0.05)
    out = tmp_path / "flow.csv"
    write_text(out, flow_csv_text(sol))
    assert out.read_text().startswith("t,x_0,f,min_norm_subgrad\n0.0,1.0,0.5,1.0\n")

    verdict = probe(StabilityQuery("quad", np.zeros(2), 0.1, delta_grid=(0.05,),
                                   alpha_grid=(0.1,), n_samples=5, max_iters=50, seed=1))
    out = tmp_path / "verdict.json"
    write_text(out, json_text(verdict_json_dict(verdict)))
    got = json.loads(out.read_text())
    assert got["status"] == "no_escape_observed"
    assert got["certificate"]["delta"] == 0.05
    assert got["escape_counts"] == [[0]]

    rep = convex_bounds_report(get_function("quad", 1), [1.0], 0.5, 0.1, n_steps=50)
    out = tmp_path / "bounds.json"
    write_text(out, json_text(rep))
    assert json.loads(out.read_text())["beta"] == 0.5

    stats, per_sample = escape_experiment(0.25, 0.3, 20, k_max=1000, seed=1)
    out = tmp_path / "stats.json"
    write_text(out, json_text(stats.to_json_dict()))
    got = json.loads(out.read_text())
    assert set(got) == {"epsilon", "alpha", "N", "K_max", "seed", "escaped_count",
                        "max_exit_index", "stuck_on_S_count", "non_escaped_offS_count"}
    table = per_sample_csv_text(per_sample)
    assert table.splitlines()[0] == "sample,x1_0,x2_0,exit_index,on_S"
    assert len(table.splitlines()) == 21
    # int and bool columns print as integers, float columns through fmt
    per_sample[:2] = [(1.0, 0.0, -1, True), (0.5, -0.25, 7, False)]
    assert per_sample_csv_text(per_sample).splitlines()[1:3] == ["0,1.0,0.0,-1,1", "1,0.5,-0.25,7,0"]


def test_query_is_echoed_as_given():
    # x_star and the grids keep the ints they were given, as epsilon always has
    q = StabilityQuery("quad", [0, 0], 2, delta_grid=(1,), alpha_grid=(1,), n_samples=3, max_iters=5)
    got = json.loads(json_text(verdict_json_dict(probe(q))))["query"]
    assert got == {"fn_id": "quad", "x_star": [0, 0], "epsilon": 2, "delta_grid": [1], "alpha_grid": [1],
                   "n_samples": 3, "max_iters": 5, "policy": {"kind": "minimal_norm", "index": 0}, "seed": 0}
    assert {type(v) for v in (got["epsilon"], *got["x_star"], *got["delta_grid"], *got["alpha_grid"])} == {int}


def test_compare_csvs_agree_at_t0():
    # compare's discrete and flow CSVs start at the same point, so row 0 of
    # each prints the same t, x, f and subgradient norm
    rng = np.random.default_rng(5)
    cases = [(name, d) for name in ("quad", "abs_sum", "neg_norm") for d in (1, 2, 3, 5, 8)]
    for name, d in cases + [("cross", 2), ("wiggle", 1), ("vee_bowl", 2)]:
        fn = get_function(name, d)
        for x0 in rng.standard_normal((60, d)) * rng.choice([1e-2, 1.0, 1e2], size=(60, 1)):
            discrete = trajectory_csv_text(run(fn, x0, 0.1, 1), fn).splitlines()[1].split(",")
            flow = flow_csv_text(integrate_flow(fn, x0, 0.01, 0.01)).splitlines()[1].split(",")
            assert discrete[1:] == flow, (name, x0.tolist())


def test_csv_line_endings_are_lf(tmp_path):
    traj = run(get_function("cross"), [1.0, 0.1], 0.1, 5)
    out = tmp_path / "t.csv"
    write_text(out, trajectory_csv_text(traj))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_final_row_reports_min_norm_element():
    traj = run(get_function("abs_sum", 1), [0.25], 0.1, 3)
    rows = trajectory_csv_text(traj).splitlines()
    # last point after 3 steps is -0.05; its selected subgradient norm is 1
    assert rows[-1].split(",")[-1] == "1.0"
    sol = integrate_flow(get_function("abs_sum", 1), [0.25], 0.3, 0.1)
    assert flow_csv_text(sol).splitlines()[-1].split(",")[-1] == "1.0"


def test_json_text_sorts_keys_and_keeps_bools():
    text = json_text({"b": True, "a": np.float64(0.5), "c": np.arange(2)})
    assert text == '{\n  "a": 0.5,\n  "b": true,\n  "c": [\n    0,\n    1\n  ]\n}\n'


def test_json_text_refuses_non_finite_values():
    # strict JSON has no spelling for inf or NaN; a diverged quad bound report holds inf in c and bound_c2a2
    with np.errstate(all="ignore"):
        report = convex_bounds_report(get_function("quad", 1), [1.0], 1e300, 0.1)
    for obj in ({"c": np.inf}, {"x": [0.5, -np.inf]}, np.array([[np.nan]]), report):
        with pytest.raises(NonFiniteState, match="non-finite"):
            json_text(obj)
