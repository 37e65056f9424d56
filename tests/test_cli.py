import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nsdyn import cli, engine
from nsdyn.cli import (KINDS, MINIMUM, SUBCOMMANDS, TAKES, RunConfig, _build_parser, _check_config, _config_from_args,
                       run_command)
from nsdyn.reporting import json_text

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


def test_generator_policies_pick_without_listing_the_set(tmp_path):
    # 2^40 and 2^70 generators at the start: each step builds the one it picks, and above 2^63 the
    # random pick is drawn bit by bit
    for dim, policy in ((40, "random_extreme"), (70, "random_extreme"), (70, "fixed_index:5")):
        zeros = ",".join(["0"] * dim)
        rc = _run_in(tmp_path, ["simulate", "--function", "abs_sum", "--x0", zeros, "--alpha", "0.1",
                                "--steps", "3", "--policy", policy, "--out", "t.csv"])
        assert rc == 0, (dim, policy)
        rows = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4 and {abs(float(v)) for v in rows[1][2:2 + dim]} == {0.1}, (dim, policy)


GOLDEN_JOBS = {
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


def test_goldens_regenerate_byte_identical(tmp_path):
    for name, argv in GOLDEN_JOBS.items():
        assert _run_in(tmp_path, argv + ["--out", str(tmp_path / name)]) == 0, name
    # every file a command writes (the probe witness, the compare triple, the
    # per-sample table) is a golden, and every golden is written
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDENS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDENS / name).read_bytes(), name


def test_compare_goldens_need_no_unique(tmp_path, monkeypatch):
    # np.unique's first call imports numpy.ma (~22 ms, ~1.3 MB), which nothing else on the trajectory path
    # loads; sup_deviation merges its two grids without it, to the same bytes
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr("numpy.lib._arraysetops_impl.unique", refuse)  # the name np.union1d calls
    for stem in ("compare_negnorm_h003", "compare_cross_h003"):
        assert _run_in(tmp_path, GOLDEN_JOBS[stem] + ["--out", str(tmp_path / stem)]) == 0, stem
        for suffix in (".discrete.csv", ".flow.csv", ".compare.json"):
            name = stem + suffix
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
    # the probe config spells its numbers as JSON ints, which print as the flags' floats do; a policy with an
    # index is one string in both spellings
    cases = [("simulate --function vee_bowl --x0 0.2,0.5 --alpha 0.05 --steps 40 --seed 5",
              RunConfig(command="simulate", function="vee_bowl", x0=[0.2, 0.5], alpha=0.05, steps=40, seed=5)),
             ("simulate --function abs_sum --x0 0,0.5,0 --alpha 0.1 --steps 3 --policy fixed_index:2",
              RunConfig(command="simulate", function="abs_sum", x0=[0, 0.5, 0], alpha=0.1, steps=3,
                        policy="fixed_index:2")),
             ("probe --function quad --xstar 0,0 --epsilon 2 --delta-grid 1 --alpha-grid 1 --samples 3 --max-iters 5",
              RunConfig(command="probe", function="quad", xstar=[0, 0], epsilon=2, delta_grid=[1], alpha_grid=[1],
                        samples=3, max_iters=5))]
    for i, (flags, cfg) in enumerate(cases):
        assert run_command(flags.split() + ["--out", str(tmp_path / f"flags{i}")]) == 0
        cfg.out = str(tmp_path / f"cfg{i}")
        (tmp_path / f"run{i}.json").write_text(json_text(cfg))
        assert run_command(["--config", str(tmp_path / f"run{i}.json")]) == 0
        assert (tmp_path / f"flags{i}").read_bytes() == (tmp_path / f"cfg{i}").read_bytes(), flags


def test_runconfig_json_roundtrip():
    cfg = RunConfig(command="probe", function="quad", xstar=[0.0, 0.0], epsilon=0.1,
                    delta_grid=[0.05], alpha_grid=[0.2, 0.1], samples=9, seed=42,
                    policy="fixed_index:2", format="json")
    assert RunConfig.from_json(json_text(cfg)) == cfg


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
    # argparse's own errors, and no command at all, are one line too
    for argv, named in ((["simulate", "--function", "quad"], "--x0"), (["no-such-command"], "no-such-command"),
                        ([], "command"), (["simulate", "--function", "cross", "--x0", "1,0.1", "--alpha", "0.1",
                                           "--steps", "abc"], "--steps"),
                        (["simulate", "--function", "quad", "--x0", "1,abc", "--alpha", "0.1", "--steps", "1"],
                         "--x0")):
        assert run_command(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], (argv, err)
    # --help still prints the usage block, to stdout, and exits 0
    assert run_command(["simulate", "--help"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: nsdyn simulate") and out.err == ""
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
    (tmp_path / "list.json").write_text('{"command": "list-functions"}')
    (tmp_path / "long.json").write_text('{"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, '
                                        f'"steps": {"9" * 5000}}}')
    simulate = ["simulate", "--function", "quad", "--x0", "1", "--alpha", "0.1",
                "--steps", "1", "--out", "x.csv"]
    rows = [  # (NSDYN_SEED, argv, text the one stderr line must name)
        ("abc", ["list-functions"], "NSDYN_SEED must be an integer, got 'abc'"),
        # ints of more digits than Python reads (4300): the line names where each came from
        ("9" * 5000, ["list-functions"], "NSDYN_SEED must be an integer, got '999"),
        (None, ["--config", "long.json"], "steps must be an integer >= 0, got inf"),
        (None, ["--config", "bad.json"], "error"),
        (None, ["--config", "extra.json"], "bogus_key"),
        (None, ["--config", "missing.json"], "missing.json"),
        (None, ["--config", "nocommand.json"], "'command'"),
        (None, ["--config", "array.json"], "JSON object"),
        # a command beside --config is refused, not run with its flags dropped
        (None, ["--config", "list.json", "list-functions"], "--config"),
        (None, ["--config", "list.json", "simulate", "--function", "quad", "--x0", "1", "--alpha", "0.1",
                "--steps", "1"], "--config"),
        # a policy index that is not an integer, or empty, is named with its policy
        (None, simulate + ["--policy", "fixed_index:x"], "policy 'fixed_index:x' needs an integer index, got 'x'"),
        (None, simulate + ["--policy", "fixed_index:"], "policy 'fixed_index:' needs an integer index, got ''"),
        (None, simulate + ["--policy", "bogus"], "unknown policy kind 'bogus'"),
        (None, ["simulate", "--function", "quad", "--x0", "1", "--alpha", "inf", "--steps", "1"], "alpha"),
        # an empty path is refused, not written into the working directory or skipped
        (None, ["compare", "--function", "quad", "--x0", "1", "--alpha", "0.1", "--horizon", "1", "--out", ""],
         "out must be a nonempty string, got ''"),
        (None, ["counterexample", "--epsilon", "0.25", "--alpha", "0.3", "--samples", "5", "--per-sample-csv", ""],
         "per_sample_csv must be a nonempty string, got ''"),
        (None, simulate[:-1] + [""], "out must be a nonempty string, got ''"),
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
            ({"command": "nope"}, "unknown command 'nope'"),
            ({"command": "simulate", "function": "quad"}, "x0"),
            ({"command": "probe", "function": "quad", "xstar": [0, 0]}, "epsilon"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": "3"}, "steps"),
            ({"command": "simulate", "function": "quad", "x0": 1, "alpha": 0.1, "steps": 3}, "x0"),
            ({"command": "flow", "function": "quad", "x0": [1], "horizon": 1, "h": 0.1, "format": "json",
              "policy": "random_extreme", "per_sample_csv": "zz.csv"}, "policy"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": 3,
              "format": "xml"}, "format"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": 10 ** 23}, "steps"),
            # an index only after fixed_index, and in the policy string itself, not in a key of its own
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": 3,
              "policy": "random_extreme:1"}, "policy"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": 3,
              "policy": "fixed_index", "policy_index": 2}, "policy_index"),
            ({"command": "simulate", "function": "quad", "x0": [1], "alpha": 0.1, "steps": 3,
              "policy": "fixed_index:"}, "policy 'fixed_index:' needs an integer index")]):
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
                       # an explicit budget beyond a recorded run's cap, as the derived K is (above 2^63 first)
                       ("probe --function quad --xstar 0 --epsilon 0.1 --max-iters 9223372036854775808", "max_iters"),
                       ("probe --function quad --xstar 0 --epsilon 0.1 --max-iters 10000001", "max_iters"),
                       ("probe --function quad --xstar 0,0 --epsilon 0.1 --delta-grid=", "nonempty"),
                       ("probe --function quad --xstar 0,0 --epsilon 0.1 --delta-grid 0.05,-0.01", "positive"),
                       ("counterexample --epsilon 0.25 --alpha 0.3 --samples 5 --max-iters 0", "max_iters"),
                       ("simulate --function quad --x0 1 --alpha 0.1 --steps 3 --seed -1", "seed"),
                       ("simulate --function quad --x0 1 --alpha 0.1 --steps -1", "steps"),
                       ("convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon 0.1 --steps -3", "steps"),
                       ("probe --function neg_norm --xstar 0,0 --epsilon 0.1 --samples 0", "samples"),
                       ("counterexample --epsilon 0.25 --alpha 0.3 --samples 0", "samples"),
                       ("compare --function quad --x0 1 --alpha 0 --horizon 1", "alpha"),
                       # more steps than a recorded run may keep, refused before allocating
                       ("simulate --function quad --x0 1 --alpha 0.1 --steps 100000000000", "steps"),
                       ("compare --function quad --x0 1 --alpha 1e-9 --horizon 1", "horizon/alpha"),
                       ("compare --function quad --x0 1 --alpha 5e-324 --horizon 1e10", "horizon/alpha"),
                       ("flow --function quad --x0 1 --horizon 1 --h 1e-9", "horizon/h"),
                       ("convex-bounds --function quad --x0 1000 --alpha 0.1 --epsilon 0.1", "x0/alpha/epsilon"),
                       ("convex-bounds --function abs_sum --x0 1e99 --alpha 1e-200 --epsilon 1e100",
                        "x0/alpha/epsilon"),
                       ("convex-bounds --function quad --x0 1 --alpha 0.1 --epsilon 0.1 --steps 100000000000",
                        "steps"),
                       # alpha * epsilon underflows to 0 in floats; the exact budget is far above the cap
                       ("convex-bounds --function quad --x0 1 --alpha 5e-324 --epsilon 0.1", "x0/alpha/epsilon"),
                       # probe's budget ceil(T/alpha) * 50 beyond a recorded run's cap: infinite, and above 2^63
                       ("probe --function quad --xstar 0,0 --epsilon 0.1 --alpha-grid 1e-320", "--alpha-grid"),
                       ("probe --function abs_sum --xstar 1 --epsilon 2.5e99 --alpha-grid 0.05,0.01", "--epsilon"),
                       # a probe ball beyond the keep box, and a Lipschitz estimate of NaN on wiggle's subnormal ball
                       ("probe --function cross --xstar 1e300,0 --epsilon 1", "5e+99"),
                       ("probe --function wiggle --xstar 5e-324 --epsilon 1e-320", "Lipschitz estimate"),
                       # the Lipschitz estimate lists the generators at the center: too many to list
                       ("probe --function abs_sum --xstar " + ",".join(["0"] * 40) + " --epsilon 0.1",
                        f"{2 ** 40} generators")]:
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
          "max_iters": 5, "seed": 1, "policy": "random_extreme", "out": "o",
          "format": "json", "per_sample_csv": "s.csv"}
# the largest value below each bounded int field's minimum
BELOW_MINIMUM = {"steps": -1, "samples": 0, "max_iters": 0, "seed": -1}
# 10**400, a 401-digit int, is beyond float64 range
WRONG = {float: [math.nan, math.inf, "1", True, 10 ** 400, 0.0, -1.0], int: [math.nan, math.inf, 1.5, "1", True],
         list: [math.nan, 1.0, "1", True, [math.nan], [math.inf], ["1"], [True], [10 ** 400]], str: [1, True, ""]}


def test_every_command_holds_configs_to_its_row(tmp_path, capsys):
    """Walk SUBCOMMANDS with --config files: each case exits 2 with one stderr line naming the field, and each
    bounded count runs at its least value."""
    cases, least = [], []  # (config, field the error names); configs with one count at its least value
    for command, (_, required, _) in SUBCOMMANDS.items():
        base = {"command": command, **{name: SAMPLE[name] for name in required}}
        _check_config(RunConfig(**base))
        cases += [({k: v for k, v in base.items() if k != name}, name) for name in required]
        cases += [({**base, name: value}, name) for name, value in SAMPLE.items() if name not in TAKES[command]]
        cases += [({**base, name: value}, name) for name in sorted(TAKES[command] - {"command"})
                  for value in WRONG[KINDS[name]]]
        cases += [({**base, name: value}, name) for name, value in BELOW_MINIMUM.items() if name in TAKES[command]]
        short = {"max_iters": SAMPLE["max_iters"]} if "max_iters" in TAKES[command] else {}
        least += [{**base, **short, name: below + 1} for name, below in BELOW_MINIMUM.items() if name in TAKES[command]]
    assert len(cases) > 200
    for i, cfg in enumerate(least):
        (tmp_path / f"least{i}.json").write_text(json.dumps(cfg))
        assert _run_in(tmp_path, ["--config", f"least{i}.json"]) == 0, cfg
    capsys.readouterr()
    for i, (cfg, named) in enumerate(cases):
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
        assert run_command(["--config", str(tmp_path / f"{i}.json")]) == 2, cfg
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.search(rf"\b{named}\b", err[0]), (cfg, err)


def test_every_numeric_flag_fails_on_one_line(tmp_path, capsys, monkeypatch):
    """Walk SUBCOMMANDS with flags: nan, +-inf and a value below MINIMUM each exit 2 with one line naming the flag."""
    monkeypatch.delenv("NSDYN_SEED", raising=False)
    flag = lambda name: "--" + name.replace("_", "-")
    spell = lambda value: ",".join(map(str, value)) if isinstance(value, list) else str(value)
    cases = []  # (argv, field)
    for command, (_, required, optional) in SUBCOMMANDS.items():
        base = [command, "--out=o", *(f"{flag(name)}={spell(SAMPLE[name])}" for name in required)]
        for name in (n for n in required + optional if KINDS[n] is not str):
            values = ["nan", "inf", "-inf"] + ([str(MINIMUM[name] - 1)] if name in MINIMUM else [])
            cases += [([a for a in base if not a.startswith(flag(name) + "=")] + [f"{flag(name)}={value}"], name)
                      for value in values]
    assert len(cases) > 60
    for argv, name in cases:
        assert _run_in(tmp_path, argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.search(rf"\b{name}\b|{flag(name)}\b", err[0]), (argv, err)
    assert not any(tmp_path.iterdir())


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


def test_divergence_exit_3(tmp_path, capsys, monkeypatch):
    # (argv, the one stderr line, whether any output is written): JSON is strict,
    # so a report that would hold inf or NaN is not written, and the command still exits 3;
    # a diverged flow writes nothing, not even compare's discrete CSV
    quad = ["--function", "quad", "--x0", "1"]
    far = ["--function", "quad", "--x0", "1e90", "--alpha", "1e300"]  # the first step overflows to -inf
    wild = ["--horizon", "100000", "--h", "3000"]  # each flow step multiplies x by -2999
    rows = [(["simulate", *quad, "--alpha", "3", "--steps", "400"], "diverged at iterate 333", True),
            (["simulate", *quad, "--alpha", "3", "--steps", "400", "--format", "json"],
             "diverged at iterate 333", True),
            (["simulate", *far, "--steps", "3", "--format", "json"], "diverged at iterate 1", False),
            (["convex-bounds", *quad, "--alpha", "3", "--epsilon", "0.1", "--steps", "400"],
             "diverged at iterate 333", True),
            (["convex-bounds", *quad, "--alpha", "1e300", "--epsilon", "0.1"], "diverged at iterate 1", False),
            (["flow", *quad, *wild], "diverged: flow diverged at t=87000.0", False),
            # compare integrates the flow first, so its 50000 discrete steps are never run
            (["compare", *quad, "--alpha", "2", *wild], "diverged: flow diverged at t=87000.0", False)]
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args) or engine.run(*args, **kwargs))
    for i, (argv, line, written) in enumerate(rows):
        (tmp_path / str(i)).mkdir()
        runs.clear()
        assert _run_in(tmp_path / str(i), argv + ["--out", "out"]) == 3, argv
        assert bool(runs) == (argv[0] == "simulate"), argv
        assert capsys.readouterr().err.splitlines() == [line], argv
        assert any((tmp_path / str(i)).iterdir()) == written, argv
    # the truncated trajectory is still written, and convex-bounds' report has the usual keys, its diverged_at the
    # iterate its stderr line names
    assert len((tmp_path / "0" / "out").read_text().splitlines()) == 335
    assert len(json.loads((tmp_path / "1" / "out").read_text())["points"]) == 334
    golden = json.loads((GOLDENS / "convex_bounds_abssum.json").read_text())
    report = json.loads((tmp_path / "3" / "out").read_text())
    assert set(report) == set(golden) and f"diverged at iterate {report['diverged_at']}" == rows[3][1]
    # no divergence, but c^2 * alpha / 2 overflows: the JSON is refused all the same; the line
    # ends in json's own exception text, so only the part this package writes is matched
    assert _run_in(tmp_path, ["convex-bounds", "--function", "quad", "--x0", "1e50", "--alpha", "1e300",
                              "--epsilon", "0.1", "--steps", "0", "--out", "overflow.json"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("diverged: no JSON output, it would hold a non-finite value ("), err
    assert not (tmp_path / "overflow.json").exists()
    # compare's discrete run diverges after its flow ran: both CSVs are written, the deviation summary is not
    (tmp_path / "c").mkdir()
    assert _run_in(tmp_path / "c", ["compare", *quad, "--alpha", "3", "--horizon", "1000", "--h", "0.1",
                                    "--out", "c"]) == 3
    assert capsys.readouterr().err.splitlines() == ["diverged at iterate 333"]
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["c.discrete.csv", "c.flow.csv"]
    assert len((tmp_path / "c" / "c.discrete.csv").read_text().splitlines()) == 335


def test_divergence_stderr_is_one_line(tmp_path, capsys, recwarn):
    # the step overflows to inf: the CSV keeps the truthful inf, and no numpy
    # warning joins the one diagnostic line
    rc = _run_in(tmp_path, ["simulate", "--function", "cross", "--x0", "1e99,1e99",
                            "--alpha", "1", "--steps", "3", "--out", "div.csv"])
    assert rc == 3
    assert capsys.readouterr().err == "diverged at iterate 1\n"
    assert len(recwarn) == 0
    assert (tmp_path / "div.csv").read_text().splitlines()[-1].endswith(",inf,inf")


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


def test_every_json_report_round_trips_as_strict_json(tmp_path):
    """Each JSON the CLI writes is json_text of its own parse: strict, sorted and printed as it reads."""
    jobs = {"list.json": "list-functions",
            "sim.json": "simulate --function cross --x0 1,0.1 --alpha 0.1 --steps 20 --format json",
            "cmp": "compare --function vee_bowl --x0 0,0.8 --alpha 0.1 --horizon 0.5 --h 0.05",
            "cert.json": "probe --function quad --xstar 0,0 --epsilon 0.1 --samples 3 --max-iters 5",
            "witness.json": "probe --function neg_norm --xstar 0,0 --epsilon 0.1 --samples 10 --seed 3",
            "sub/report.json": "probe --function neg_norm --xstar 0,0 --epsilon 0.1 --samples 10 --seed 3",
            "ce.json": "counterexample --epsilon 0.25 --alpha 0.3 --samples 20 --max-iters 1000 --seed 1",
            "bounds.json": "convex-bounds --function abs_sum --x0 1 --alpha 0.1 --epsilon 0.1 --steps 40"}
    (tmp_path / "sub").mkdir()
    for out, argv in jobs.items():
        assert _run_in(tmp_path, argv.split() + ["--out", out]) == 0, argv
    reports = sorted(tmp_path.rglob("*.json"))
    assert len(reports) == len(jobs)
    for path in reports:
        text = path.read_text()
        assert json_text(json.loads(text)) == text, path.name
    assert "certificate" in json.loads((tmp_path / "cert.json").read_text())
    assert "witness" in json.loads((tmp_path / "witness.json").read_text())
    # a witness lands beside its report, which names it by its base name
    assert json.loads((tmp_path / "sub" / "report.json").read_text())["witness"]["trajectory_csv"] == \
        "report_witness.csv"
    assert (tmp_path / "sub" / "report_witness.csv").read_bytes() == (tmp_path / "witness_witness.csv").read_bytes()
