"""A seeded fuzz table over every entry point: the CLI's exit codes and stderr, the library's error types.

Values are drawn mostly valid, mixed with edge values: zeros of both signs, the least subnormal, 1e-320, 1e300,
1.7e308, NaN, infinities, empty or malformed lists and bad policies.  Budgets stay small in every draw: an explicit
``--max-iters``, ``--samples`` (or ``k_max``, ``samples``) has no upper cap, so one large draw would run for hours.
So probe and counterexample always get a small ``--max-iters`` (probe's derived budget may reach 10^7 steps), and
no point coordinate is 1e-320, which over alpha = epsilon = 5e-324 asks convex-bounds for ~8e6 steps.  Every
other pair of pool values gives a ratio (horizon/h, the convex budget) below ~2100 or above the 10^7 cap.
"""

import math
import os
import random
import warnings

import numpy as np

from nsdyn import (SelectionPolicy, convex_bounds_report, escape_experiment, estimate_lipschitz, get_function,
                   integrate_flow, local_min_check, run, run_batch)
from nsdyn.catalog import CATALOG_IDS
from nsdyn.cli import KINDS, SUBCOMMANDS, _build_parser, _config_from_args, run_command
from nsdyn.errors import NonFiniteState

CONVEX = ("quad", "abs_sum", "vee_bowl")
VECTORS = {1: ["1", "0.5", "0", "-0.25"], 2: ["1,0.1", "0.5,-0.25", "1,0", "0,0"], 3: ["0.3,0,-0.2", "1,1,1", "0,0,0"]}
VALID = {"alpha": ["0.1", "0.25", "0.05"], "epsilon": ["0.1", "0.25"], "horizon": ["1", "0.5"], "h": ["0.1", "0.05"],
         "steps": ["0", "1", "3", "20"], "samples": ["1", "3", "5"], "max_iters": ["1", "5", "20"],
         "seed": ["0", "1", "7"], "policy": ["minimal_norm", "random_extreme", "fixed_index:3"],
         "format": ["csv", "json"], "delta_grid": ["0.05,0.01", "0.02"], "alpha_grid": ["0.1,0.05", "0.2"],
         "per_sample_csv": ["s.csv"]}
EDGE = {float: ["0", "-0", "5e-324", "1e-320", "1e300", "1.7e308", "nan", "inf", "-inf", "-0.1", "x", ""],
        list: ["", ",", "nan", "inf,0", "5e-324,0", "1e300,0", "1.7e308", "-0,-0", "a,b", "1,,2", "0,0,0,0"],
        int: ["0", "-1", "1.5", "x", ""],
        str: ["nope", "fixed_index:x", "fixed_index", "random_extreme:1", ""]}
EDGE_BY_NAME = {"steps": EDGE[int] + ["100000000000"], "seed": EDGE[int] + ["18446744073709551616"],
                "function": ["nope", ""], "format": ["xml", ""]}

FLOATS = [0.1, 0.25, 0.05]
EDGE_NUMBERS = [0.0, -0.0, 5e-324, 1e-320, 1e300, 1.7e308, math.nan, math.inf, -math.inf, -0.1, 1.0]
COORDS = [1.0, 0.5, 0.0, -0.25, 0.1]
EDGE_COORDS = [0.0, -0.0, 5e-324, 1e300, 1.7e308, math.nan, math.inf, -math.inf]  # no 1e-320: see above


def _argv(rng: random.Random) -> list[str]:
    """One command line: every flag of a drawn command, each value valid or, one time in ten, an edge value."""
    command = rng.choice(list(SUBCOMMANDS))
    _, required, optional = SUBCOMMANDS[command]
    fn_id = rng.choice(CONVEX if command == "convex-bounds" and rng.random() < 0.9 else CATALOG_IDS)
    dim = get_function(fn_id).fixed_dim or rng.choice((1, 2, 3))
    argv = [command]
    for name in required + optional:
        if name == "max_iters" or (name in required and rng.random() < 0.97) or rng.random() < 0.5:
            edge = rng.random() < 0.1
            if name in ("x0", "xstar"):
                value = rng.choice(EDGE[list] if edge else VECTORS[dim])
            elif name == "function":
                value = rng.choice(EDGE_BY_NAME[name]) if edge else fn_id
            else:
                value = rng.choice(EDGE_BY_NAME.get(name, EDGE[KINDS[name]]) if edge else VALID[name])
            argv.append(f"--{name.replace('_', '-')}={value}")  # = keeps argparse from reading -inf as a flag
    return argv


def _outputs(code, out):
    """The exit code, stdout and every file the command wrote, which are then removed."""
    files = {}
    for name in sorted(os.listdir()):
        with open(name, "rb") as fh:
            files[name] = fh.read()
        os.remove(name)
    return code, out, files


def _point(rng: random.Random, dim: int) -> list:
    if rng.random() < 0.8:
        return [rng.choice(COORDS) for _ in range(dim)]
    return [rng.choice(EDGE_COORDS) for _ in range(rng.choice((0, dim, dim, dim + 1)))]


def _library_call(rng: random.Random):
    """One library entry point on drawn values, as a thunk; either half of an exit ball may be None."""
    def number():
        return rng.choice(FLOATS if rng.random() < 0.8 else EDGE_NUMBERS)

    fn_id = rng.choice(CATALOG_IDS)
    dim = get_function(fn_id).fixed_dim or rng.choice((1, 2, 3))
    fn = get_function(fn_id, dim)
    x, alpha, steps, seed = _point(rng, dim), number(), rng.choice((0, 1, 5, 20, -1)), rng.choice((0, 7))
    count = rng.choice((1, 4, 16, 0, -1))
    ball = None
    if rng.random() < 0.5:
        ball = (None if rng.random() < 0.15 else _point(rng, dim), None if rng.random() < 0.15 else number())

    def policy():
        return SelectionPolicy(rng.choice(("minimal_norm", "random_extreme", "fixed_index", "nope")),
                               rng.choice((0, 3, -1)))

    return rng.choice([
        lambda: run(fn, x, alpha, steps, policy(), seed, stop=ball),
        lambda: run_batch(fn, np.array([_point(rng, dim) for _ in range(rng.choice((0, 1, 3)))]).reshape(-1, dim),
                          alpha, steps, *(ball or (None, None)), policy(), rng.choice((None, lambda i: i))),
        lambda: integrate_flow(fn, x, number(), number()),
        lambda: escape_experiment(number(), alpha, rng.choice((1, 3, 0, -1)), k_max=rng.choice((1, 5, 20, 0)),
                                  seed=seed),
        lambda: estimate_lipschitz(fn, x, number(), samples=count, seed=seed),
        lambda: local_min_check(fn, x, number(), samples=count, seed=seed),
        lambda: convex_bounds_report(fn, x, alpha, number(), n_steps=rng.choice((None, 0, 10, -1))),
    ])


def test_fuzz_table_every_entry_point(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NSDYN_SEED", raising=False)
    rng = random.Random(2027)
    codes = []
    for i in range(300):
        argv = _argv(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command(argv)
        out, err = capsys.readouterr()
        codes.append(code)
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert len(err.splitlines()) == 1, (argv, err)
        else:
            assert err == "" and not caught, (argv, err, [str(w.message) for w in caught])
        first = _outputs(code, out)
        if code == 0 and i % 4 == 0:  # the same config through --config gives the same bytes
            cfg = _config_from_args(_build_parser().parse_args(argv))
            (tmp_path / "cfg.json").write_text(cfg.to_json())
            code = run_command(["--config", "cfg.json"])
            os.remove("cfg.json")
            assert _outputs(code, capsys.readouterr().out) == first, argv
    assert codes.count(0) > 20 and codes.count(2) > 20, codes  # the draws reach both success and refusal

    raised = 0
    for _ in range(400):
        call = _library_call(rng)
        try:
            with np.errstate(all="ignore"):  # the contract is what a call raises; overflow warnings are not part
                call()
        except (ValueError, NonFiniteState):  # ValueError covers every refusal type in nsdyn.errors
            raised += 1
    assert 0 < raised < 400
