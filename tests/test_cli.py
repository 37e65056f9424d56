import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nsdyn.cli import (KINDS, SUBCOMMANDS, TAKES, RunConfig, _build_parser, _check_config, _config_from_args,
                       run_command)

GOLDENS = Path(__file__).parent / "goldens"


def _run_in(tmp_path, argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return run_command(argv)
    finally:
        os.chdir(cwd)


def test_simulate_row_count(tmp_path):
    rc = _run_in(tmp_path, ["simulate", "--function", "cross", "--x0", "1,0.1",
                            "--alpha", "0.1", "--steps", "200", "--out", "traj.csv"])
    assert rc == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert len(lines) == 202  # header + steps+1 data rows
    assert lines[0] == "k,t,x_0,x_1,f,subgrad_norm"


def test_goldens_regenerate_byte_identical(tmp_path):
    jobs = {
        "simulate_quad_k2.csv": ["simulate", "--function", "quad", "--x0", "1",
                                 "--alpha", "0.1", "--steps", "2"],
        "simulate_quad_k0.csv": ["simulate", "--function", "quad", "--x0", "1",
                                 "--alpha", "0.1", "--steps", "0"],
        "simulate_cross_200.csv": ["simulate", "--function", "cross", "--x0", "1,0.1",
                                   "--alpha", "0.1", "--steps", "200"],
        "list_functions.json": ["list-functions"],
        "counterexample_e025_a01_n1000_s7.json": [
            "counterexample", "--epsilon", "0.25", "--alpha", "0.1",
            "--samples", "1000", "--seed", "7"],
        "probe_negnorm_s3.json": ["probe", "--function", "neg_norm", "--xstar", "0,0",
                                  "--epsilon", "0.1", "--samples", "10", "--seed", "3"],
        "convex_bounds_abssum.json": ["convex-bounds", "--function", "abs_sum", "--x0", "1",
                                      "--alpha", "0.1", "--epsilon", "0.1", "--steps", "400"],
        # --out is the stem of the .discrete.csv, .flow.csv and .compare.json
        # triple; h=0.03 puts both curves' grids off each other's nodes
        "compare_negnorm_h003": ["compare", "--function", "neg_norm", "--x0", "0.3,-0.4",
                                 "--alpha", "0.1", "--horizon", "1", "--h", "0.03"],
        "compare_cross_h003": ["compare", "--function", "cross", "--x0", "1,0.1",
                               "--alpha", "0.1", "--horizon", "1", "--h", "0.03"],
        "counterexample_e025_a03_n20_s1.json": [
            "counterexample", "--epsilon", "0.25", "--alpha", "0.3", "--samples", "20",
            "--max-iters", "1000", "--seed", "1",
            "--per-sample-csv", "counterexample_e025_a03_n20_s1_per_sample.csv"],
    }
    for name, argv in jobs.items():
        assert _run_in(tmp_path, argv + ["--out", str(tmp_path / name)]) == 0, name
    # every file a command writes (the probe witness, the compare triple, the
    # per-sample table) is a golden, and every golden is written
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDENS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDENS / name).read_bytes(), name


def test_same_invocation_twice_is_byte_identical(tmp_path):
    argv = ["counterexample", "--epsilon", "0.25", "--alpha", "0.3",
            "--samples", "200", "--seed", "11"]
    assert _run_in(tmp_path, argv + ["--out", "a.json"]) == 0
    assert _run_in(tmp_path, argv + ["--out", "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_quad_k2_values():
    rows = (GOLDENS / "simulate_quad_k2.csv").read_text().splitlines()
    got = [row.split(",") for row in rows[1:]]
    want = [(0, 0.0, 1.0, 0.5, 1.0), (1, 0.1, 0.9, 0.405, 0.9),
            (2, 0.2, 0.81, 0.32805, 0.81)]
    for row, (k, t, x, f, sn) in zip(got, want):
        assert int(row[0]) == k
        np.testing.assert_allclose([float(v) for v in row[1:]], [t, x, f, sn], rtol=1e-12)


def test_k0_writes_header_and_initial_row():
    lines = (GOLDENS / "simulate_quad_k0.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,0.0,1.0,")


def test_counterexample_json_example():
    got = json.loads((GOLDENS / "counterexample_e025_a01_n1000_s7.json").read_text())
    assert got["escaped_count"] == 1000
    assert got["N"] == 1000 and got["seed"] == 7


def test_probe_json_example():
    got = json.loads((GOLDENS / "probe_negnorm_s3.json").read_text())
    assert got["status"] == "escape_witnessed"
    assert got["witness"]["trajectory_csv"] == "probe_negnorm_s3_witness.csv"


def test_flags_and_config_produce_identical_bytes(tmp_path):
    argv = ["simulate", "--function", "vee_bowl", "--x0", "0.2,0.5",
            "--alpha", "0.05", "--steps", "40", "--seed", "5",
            "--out", str(tmp_path / "flags.csv")]
    assert run_command(argv) == 0
    cfg = RunConfig(command="simulate", function="vee_bowl", x0=[0.2, 0.5],
                    alpha=0.05, steps=40, seed=5, out=str(tmp_path / "cfg.csv"))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg.to_json())
    assert run_command(["--config", str(cfg_path)]) == 0
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "cfg.csv").read_bytes()


def test_runconfig_json_roundtrip():
    cfg = RunConfig(command="probe", function="quad", xstar=[0.0, 0.0], epsilon=0.1,
                    delta_grid=[0.05], alpha_grid=[0.2, 0.1], samples=9, seed=42,
                    policy="fixed_index", policy_index=2, format="json")
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    argv = ["counterexample", "--epsilon", "0.25", "--alpha", "0.3", "--samples", "50",
            "--seed", "1", "--out", str(tmp_path / "o.json")]
    monkeypatch.setenv("NSDYN_SEED", "7")
    assert run_command(argv) == 0
    got = json.loads((tmp_path / "o.json").read_text())
    assert got["seed"] == 7
    # a command without a seed parses NSDYN_SEED but ignores it
    assert run_command(["flow", "--function", "quad", "--x0", "1", "--horizon", "1", "--h", "0.5",
                        "--out", str(tmp_path / "f.csv")]) == 0
    monkeypatch.delenv("NSDYN_SEED")
    assert run_command(argv) == 0
    assert json.loads((tmp_path / "o.json").read_text())["seed"] == 1


def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch):
    assert run_command(["simulate", "--function", "quad"]) == 2  # missing flags
    assert capsys.readouterr().err != ""
    assert run_command(["no-such-command"]) == 2
    assert run_command([]) == 2
    # flags a command does not take are argparse errors
    for cmd in ("flow --function quad --x0 1 --horizon 1 --h 0.1 --format json",
                "flow --function quad --x0 1 --horizon 1 --h 0.1 --seed 1",
                "list-functions --format csv",
                "convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon 0.1 --seed 5"):
        assert run_command(cmd.split()) == 2, cmd
    assert _run_in(tmp_path, ["simulate", "--function", "nope", "--x0", "1",
                              "--alpha", "0.1", "--steps", "1", "--out", "x.csv"]) == 2
    capsys.readouterr()
    (tmp_path / "bad.json").write_text("{\"command\": ")
    (tmp_path / "extra.json").write_text('{"command": "list-functions", "bogus_key": 1}')
    (tmp_path / "nocommand.json").write_text('{"function": "quad"}')
    (tmp_path / "array.json").write_text("[1, 2]")
    simulate = ["simulate", "--function", "quad", "--x0", "1", "--alpha", "0.1",
                "--steps", "1", "--out", "x.csv"]
    rows = [  # (NSDYN_SEED, argv, text the one stderr line must name)
        ("abc", ["list-functions"], "abc"),
        (None, ["--config", "bad.json"], "error"),
        (None, ["--config", "extra.json"], "bogus_key"),
        (None, ["--config", "missing.json"], "missing.json"),
        (None, ["--config", "nocommand.json"], "'command'"),
        (None, ["--config", "array.json"], "JSON object"),
        (None, simulate + ["--policy", "fixed_index:x"], "'x'"),
        (None, ["simulate", "--function", "quad", "--x0", "1", "--alpha", "inf", "--steps", "1"], "alpha"),
    ]
    probe = ["probe", "--function", "quad", "--out", "p.json"]
    for flags in (["--xstar", "0,0", "--epsilon", "nan"], ["--xstar", "nan,0", "--epsilon", "0.1"],
                  ["--xstar", "0,0", "--epsilon", "0.1", "--alpha-grid", "nan"],
                  ["--xstar", "0,0", "--epsilon", "inf"]):
        rows.append((None, probe + flags, "finite"))
    for alpha in ("nan", "-0.1"):
        rows.append((None, ["counterexample", "--epsilon", "0.25", "--alpha", alpha, "--samples", "5",
                            "--out", "c.json"], "alpha"))
    for i, (cfg, named) in enumerate([
            ({"command": "simulate", "function": "quad"}, "x0"),
            ({"command": "probe", "function": "quad", "xstar": [0, 0]}, "epsilon"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": "3"}, "steps"),
            ({"command": "simulate", "function": "quad", "x0": 1, "alpha": 0.1, "steps": 3}, "x0"),
            ({"command": "flow", "function": "quad", "x0": [1], "horizon": 1, "h": 0.1, "format": "json",
              "policy": "random_extreme", "per_sample_csv": "zz.csv"}, "policy"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": 3,
              "format": "xml"}, "format")]):
        (tmp_path / f"table{i}.json").write_text(json.dumps(cfg))
        rows.append((None, ["--config", f"table{i}.json"], named))
    (tmp_path / "nan.json").write_text('{"command": "simulate", "function": "quad", "x0": [NaN], '
                                       '"alpha": 0.1, "steps": 1, "out": "x.csv"}')
    rows.append((None, ["--config", "nan.json"], "x0"))
    for cmd, named in [("flow --function quad --x0 1 --horizon inf --h 0.1", "horizon"),
                       ("compare --function quad --x0 1 --alpha 0.1 --horizon inf", "horizon"),
                       ("compare --function quad --x0 1 --alpha -0.1 --horizon 1", "alpha"),
                       ("compare --function quad --x0 1 --alpha nan --horizon 1", "alpha"),
                       ("convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon 0", "epsilon"),
                       ("convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon -0.1", "epsilon"),
                       ("convex-bounds --function quad --x0 1 --alpha nan --epsilon 0.1", "alpha"),
                       ("convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon nan", "epsilon"),
                       ("simulate --function quad --x0 nan --alpha 0.1 --steps 3", "x0"),
                       ("flow --function quad --x0 nan --horizon 1 --h 0.1", "x0"),
                       ("convex-bounds --function quad --x0 1e200 --alpha 0.1 --epsilon 0.1", "x0"),
                       ("compare --function quad --x0 1 --alpha 0.1 --horizon -1", "horizon"),
                       ("probe --function neg_norm --xstar 0,0 --epsilon 0.1 --max-iters 0", "max_iters"),
                       ("counterexample --epsilon 0.25 --alpha 0.3 --samples 5 --max-iters 0", "max_iters"),
                       ("simulate --function quad --x0 1 --alpha 0.1 --steps 3 --seed -1", "seed"),
                       ("simulate --function quad --x0 1 --alpha 0.1 --steps -1", "steps"),
                       ("convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon 0.1 --steps -3", "steps"),
                       ("probe --function neg_norm --xstar 0,0 --epsilon 0.1 --samples 0", "samples"),
                       ("counterexample --epsilon 0.25 --alpha 0.3 --samples 0", "samples")]:
        rows.append((None, cmd.split() + ["--out", "o"], named))
    for env_seed, argv, named in rows:
        with monkeypatch.context() as m:
            if env_seed is not None:
                m.setenv("NSDYN_SEED", env_seed)
            assert _run_in(tmp_path, argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0], (argv, err)


# a value each field accepts; a command's walk starts from its required fields set to these
SAMPLE = {"function": "quad", "x0": [1.0], "xstar": [0.0], "alpha": 0.1, "steps": 2, "horizon": 1.0,
          "h": 0.1, "epsilon": 0.25, "delta_grid": [0.05], "alpha_grid": [0.1], "samples": 3,
          "max_iters": 5, "seed": 1, "policy": "random_extreme", "policy_index": 1, "out": "o",
          "format": "json", "per_sample_csv": "s.csv"}
# the largest value below each bounded int field's minimum
BELOW_MINIMUM = {"steps": -1, "samples": 0, "max_iters": 0, "seed": -1}
WRONG = {float: [math.nan, math.inf, "1", True], int: [math.nan, math.inf, 1.5, "1", True],
         list: [math.nan, 1.0, "1", True, [math.nan], [math.inf], ["1"], [True]], str: [1, True]}


def test_every_command_holds_configs_to_its_row(tmp_path, capsys):
    """Walk SUBCOMMANDS with --config files: each case exits 2 with one stderr line naming the field."""
    cases = []  # (config, field the error names)
    for command, (_, required, _) in SUBCOMMANDS.items():
        base = {"command": command, **{name: SAMPLE[name] for name in required}}
        _check_config(RunConfig(**base))
        cases += [({k: v for k, v in base.items() if k != name}, name) for name in required]
        cases += [({**base, name: value}, name) for name, value in SAMPLE.items() if name not in TAKES[command]]
        cases += [({**base, name: value}, name) for name in sorted(TAKES[command] - {"command"})
                  for value in WRONG[KINDS[name]]]
        cases += [({**base, name: value}, name) for name, value in BELOW_MINIMUM.items() if name in TAKES[command]]
    assert len(cases) > 200
    for i, (cfg, named) in enumerate(cases):
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
        assert run_command(["--config", str(tmp_path / f"{i}.json")]) == 2, cfg
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.search(rf"\b{named}\b", err[0]), (cfg, err)


def test_readme_command_line_matches_the_table():
    """README's flag table is SUBCOMMANDS, and each of its `nsdyn` lines parses and passes the check."""
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## Command line", 1)[1]
    argvs = [shlex.split(line)[1:] for line in section.split("```")[1].splitlines() if line.startswith("nsdyn ")]
    assert sorted(argv[0] for argv in argvs) == sorted(SUBCOMMANDS)
    for argv in argvs:
        _check_config(_config_from_args(_build_parser().parse_args(argv)))
    flags = lambda names: " ".join("--" + name.replace("_", "-") for name in names)
    rows = {cells[0].strip("` "): (cells[1].strip(), cells[2].strip()) for cells in
            (line.strip("|").split("|") for line in section.split("\n\n## ", 1)[0].splitlines()
             if line.startswith("| `"))}
    assert rows == {command: (flags(required), flags(optional)) for command, (_, required, optional)
                    in SUBCOMMANDS.items()}


def test_divergence_exit_3(tmp_path, capsys):
    rc = _run_in(tmp_path, ["simulate", "--function", "quad", "--x0", "1",
                            "--alpha", "3.0", "--steps", "400", "--out", "div.csv"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    # the truncated trajectory is still written
    lines = (tmp_path / "div.csv").read_text().splitlines()
    assert len(lines) == 335


def test_compare_emits_aligned_pair(tmp_path):
    rc = _run_in(tmp_path, ["compare", "--function", "vee_bowl", "--x0", "0,0.8",
                            "--alpha", "0.1", "--horizon", "1.0", "--out", "fig"])
    assert rc == 0
    for suffix in (".discrete.csv", ".flow.csv", ".compare.json"):
        assert (tmp_path / f"fig{suffix}").exists()
    dev = json.loads((tmp_path / "fig.compare.json").read_text())
    assert dev["alpha"] == 0.1 and dev["h"] == pytest.approx(0.001)
    assert 0.0 < dev["sup_dev"] < 0.1
    flow_lines = (tmp_path / "fig.flow.csv").read_text().splitlines()
    assert flow_lines[0] == "t,x_0,x_1,f,min_norm_subgrad"
    assert len(flow_lines) == 1002


def test_flow_command(tmp_path):
    rc = _run_in(tmp_path, ["flow", "--function", "quad", "--x0", "1", "--horizon", "1",
                            "--h", "0.01", "--out", "flow.csv"])
    assert rc == 0
    rows = (tmp_path / "flow.csv").read_text().splitlines()
    assert rows[0] == "t,x_0,f,min_norm_subgrad"
    last = rows[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(np.exp(-1.0), abs=5e-3)


def test_stdout_emission(capsys):
    assert run_command(["list-functions"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)[0]["id"] == "quad"
