"""A seeded fuzz table over every entry point: the CLI's exit codes and stderr, the library's error types.

Values are drawn mostly valid, mixed with edge values: zeros of both signs, the least subnormal, 1e-320, 1e300,
1.7e308, NaN, infinities, empty or malformed lists and bad policies; in the library half also 10**400 reals, negative
seeds, ints (counts, seeds, dims, policy indices) given as 2.5, 3.0, True or np.float64(3.0), reals (alpha, h, the
horizon, a radius, epsilon) given as "0.1", None, True, np.True_ or np.array(0.1), and points, batches of starts and
probe grids given as None, "0.5", [True], [np.True_], [True, 0.5], [0.5, np.True_], a ragged list, [1j] or
[10**400].  Each library call is made twice, with Python ints and with numpy ints, and gives the same bits or refusal
type both times.

Budgets stay small in every draw. ``--samples`` (``n_samples``) is capped at a batch of 10^6 rows, so its edge draws
10^13 (and, in the CLI, 10^23) are refused before any sampling, but a draw near the cap would run for minutes;
``k_max`` and counterexample's ``--max-iters``, which records nothing, have no upper cap, so one large draw would
run for hours. So probe and counterexample, the library's probe too, always get a ``--max-iters``, a small one but
for probe's edge 2^63, which the recorded-steps cap (10^7, as for probe's derived budget) refuses before any batch
runs. No point coordinate is 1e-320, which over alpha = epsilon = 5e-324 asks convex-bounds for ~8e6 steps. Every
other pair of pool values gives a ratio (horizon/h, the convex budget) below ~2100 or above the 10^7 cap.
"""

import dataclasses
import math
import os
import random
import warnings

import numpy as np

from nsdyn import (CatalogFunction, InterpolatedPath, SelectionPolicy, StabilityQuery, convex_bounds_report,
                   cross_update, doubling_check, escape_experiment, estimate_lipschitz, get_function, integrate_flow,
                   local_min_check, probe, run, run_batch, sup_deviation)
from nsdyn.catalog import CATALOG_IDS
from nsdyn.cli import KINDS, SUBCOMMANDS, _build_parser, _config_from_args, run_command
from nsdyn.errors import NonFiniteState
from nsdyn.reporting import json_text

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
                "samples": EDGE[int] + ["10000000000000", "99999999999999999999999"],  # over the batch cap
                "function": ["nope", ""], "format": ["xml", ""],
                ("probe", "max_iters"): EDGE[int] + ["9223372036854775808"]}  # counterexample's has no cap

FLOATS = [0.1, 0.25, 0.05]
EDGE_NUMBERS = [0.0, -0.0, 5e-324, 1e-320, 1e300, 1.7e308, math.nan, math.inf, -math.inf, -0.1, 1.0, 10 ** 400]
NOT_INTS = [2.5, 3.0, True, np.float64(3.0)]
NOT_REALS = ["0.1", None, True, np.True_, np.array(0.1)]
NOT_POINTS = [None, "0.5", [True], [np.True_], [True, 0.5], [0.5, np.True_], [[0.5], [0.5, 0.5]], [1j], [10 ** 400]]
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
                edges = EDGE_BY_NAME.get((command, name)) or EDGE_BY_NAME.get(name) or EDGE[KINDS[name]]
                value = rng.choice(edges if edge else VALID[name])
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


def _point(rng: random.Random, dim: int):
    """A point of R^dim: mostly valid, else of edge coordinates, of a wrong length, or one time in ten not a point."""
    draw = rng.random()
    if draw < 0.1:
        return rng.choice(NOT_POINTS)
    if draw < 0.8:
        return [rng.choice(COORDS) for _ in range(dim)]
    return [rng.choice(EDGE_COORDS) for _ in range(rng.choice((0, dim, dim, dim + 1)))]


def _batch(rng: random.Random, dim: int, rows: int):
    """``rows`` starts in R^dim, as a list of ``_point`` draws, or one time in ten not a batch of starts."""
    return rng.choice(NOT_POINTS) if rng.random() < 0.1 else [_point(rng, dim) for _ in range(rows)]


def _grid(rng: random.Random, valid):
    """None (the default grid), a valid grid, or one time in ten not a grid."""
    draw = rng.random()
    return rng.choice(NOT_POINTS) if draw < 0.1 else None if draw < 0.5 else rng.choice(valid)


def _library_call(rng: random.Random):
    """One library entry point on drawn values, as a function of ``as_int``, which spells each drawn int.

    Every value is drawn before the call, so the call can be made twice, with Python and with numpy ints.  An int
    argument (count, seed, dim, policy index) is one time in ten not an int: 2.5, 3.0, True or np.float64(3.0); a
    real argument is one time in ten not a real number: "0.1", None, True, np.True_ or np.array(0.1); a point, a
    batch of starts or a probe grid is one time in ten none of these (``NOT_POINTS``).  Either half of an exit ball
    may be None.  ``n_samples`` may be 10^13, over the batch cap.
    """
    def number():
        draw = rng.random()
        return rng.choice(NOT_REALS if draw < 0.1 else FLOATS if draw < 0.8 else EDGE_NUMBERS)

    def integer(*valid):
        return rng.choice(NOT_INTS if rng.random() < 0.1 else valid)

    fn_id = rng.choice(CATALOG_IDS)
    dim = get_function(fn_id).fixed_dim or rng.choice((1, 2, 3))
    fn = get_function(fn_id, dim)
    x, alpha, a, b = _point(rng, dim), number(), number(), number()
    steps, seed, dim_arg = integer(0, 1, 5, 20, -1), integer(0, 7, -1), integer(dim)
    kind, index = rng.choice(("minimal_norm", "random_extreme", "fixed_index", "nope")), integer(0, 3, -1)
    ball = None
    if rng.random() < 0.5:
        ball = (None if rng.random() < 0.15 else _point(rng, dim), None if rng.random() < 0.15 else number())
    starts = _batch(rng, dim, rng.choice((0, 1, 3)))
    delta_grid, alpha_grid = _grid(rng, [(0.05, 0.01), (0.02,)]), _grid(rng, [(0.1, 0.05), (0.2,)])
    with_seeds = rng.random() < 0.5
    n_samples, k_max = integer(1, 3, 0, -1, 10 ** 13), integer(1, 5, 20, 0)
    n_steps = rng.choice((None, integer(0, 10, -1)))

    def calls(as_int):
        def policy():
            return SelectionPolicy(kind, as_int(index))

        return [
            lambda: run(fn, x, alpha, as_int(steps), policy(), as_int(seed), stop=ball),
            lambda: run_batch(fn, np.empty((0, dim)) if starts == [] else starts, alpha, as_int(steps),
                              *(ball or (None, None)), policy(), as_int if with_seeds else None),
            lambda: integrate_flow(fn, x, a, b),
            lambda: escape_experiment(a, alpha, as_int(n_samples), k_max=as_int(k_max), seed=as_int(seed)),
            lambda: estimate_lipschitz(fn, x, a, seed=as_int(seed)),
            lambda: local_min_check(fn, x, a, seed=as_int(seed)),
            lambda: convex_bounds_report(fn, x, alpha, a, n_steps=as_int(n_steps)),
            lambda: probe(StabilityQuery(fn_id, x, a, delta_grid, alpha_grid, n_samples=as_int(n_samples),
                                         max_iters=as_int(k_max), policy=policy(), seed=as_int(seed))),
            lambda: get_function(fn_id, as_int(dim_arg)),
            lambda: cross_update(x, alpha),
            lambda: doubling_check(x, alpha),
            lambda: sup_deviation(InterpolatedPath(run(fn, x, alpha, as_int(steps)), a), integrate_flow(fn, x, a, b)),
        ]

    which = rng.randrange(len(calls(int)))
    return lambda as_int: calls(as_int)[which]()


def _numpy_int(v):
    """A Python int as a numpy int64; anything else, bools included, as it is."""
    return np.int64(v) if type(v) is int else v


def _bits(obj):
    """A comparable image of a call's result: arrays and floats by their bytes, and every int by its type too.

    A verdict's ``query`` is the caller's own object, as given, so it is left out.
    """
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                                         if f.name != "query")
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(v) for v in obj)
    if isinstance(obj, (np.ndarray, float)):
        obj = np.asarray(obj)
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, CatalogFunction):
        return repr(obj), type(obj.dim)
    return type(obj), obj


def _outcome(call, as_int):
    """``_bits`` of the call's result, or the type of the refusal it raised."""
    try:
        with np.errstate(all="ignore"):  # the contract is what a call raises; overflow warnings are not part
            return _bits(call(as_int))
    except (ValueError, NonFiniteState) as exc:  # ValueError covers every refusal type in nsdyn.errors
        return type(exc)


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
            (tmp_path / "cfg.json").write_text(json_text(cfg))
            code = run_command(["--config", "cfg.json"])
            os.remove("cfg.json")
            assert _outputs(code, capsys.readouterr().out) == first, argv
    assert codes.count(0) > 20 and codes.count(2) > 20, codes  # the draws reach both success and refusal

    raised = 0
    for _ in range(400):
        call = _library_call(rng)
        outcome = _outcome(call, lambda v: v)
        raised += isinstance(outcome, type)
        assert _outcome(call, _numpy_int) == outcome  # numpy ints give the bits of Python ints
    assert 0 < raised < 400
