"""A seeded fuzz table over every entry point: the CLI's exit codes and stderr, the library's error types.

Values are drawn mostly valid, mixed with edge values: zeros of both signs, the least subnormal, 1e-320, 1e300,
1.7e308, NaN, infinities, empty or malformed lists and bad policies; in the library half also 10**400 reals, negative
seeds, ints (counts, seeds, dims, policy indices) given as 2.5, 3.0, True or np.float64(3.0), reals (alpha, h, the
horizon, a radius, epsilon) given as "0.1", None, True, np.True_ or np.array(0.1), and points, batches of starts and
probe grids given as None, "0.5", [True], [np.True_], [True, 0.5], [0.5, np.True_], a ragged list, [1j] or
[10**400].  Each library call is made twice, with Python ints and with numpy ints, and gives the same bits or refusal
type both times.

Budgets stay small in every draw but the long ones. About one draw in ten of each half is a ``LONG`` line or call:
every value valid but one budget beyond what the memory budget admits (``catalog.check_budget``), often at a point
of R^100, so it must end on the budget's one refusal line, before anything is allocated; each half reaches that
line. A budget near the memory budget's bound would run for minutes, and ``k_max`` and counterexample's
``--max-iters``, which records nothing, have no upper bound, so one large draw would run for hours. So probe and
counterexample, the library's probe too, always get a ``--max-iters``, a small one but in a long line. No point
coordinate is 1e-320, which over alpha = epsilon = 5e-324 asks convex-bounds for ~8e6 steps. Every other pair of
pool values gives a ratio (horizon/h, the convex budget) below 10^4 or above 10^8, which the memory budget refuses
in every dimension (it admits 2 * 10^7 recorded steps in R^1).
"""

import collections
import dataclasses
import math
import os
import random
import re
import warnings

import numpy as np

from nsdyn import counterexample, stability
from nsdyn import (CatalogFunction, InterpolatedPath, SelectionPolicy, StabilityQuery, convex_bounds_report,
                   cross_update, doubling_check, escape_experiment, estimate_lipschitz, get_function, integrate_flow,
                   local_min_check, probe, run, run_batch, sup_deviation)
from nsdyn.catalog import CATALOG_IDS
from nsdyn.cli import KINDS, SUBCOMMANDS, _build_parser, _config_from_args, run_command
from nsdyn.errors import NonFiniteState
from nsdyn.reporting import json_text
from reference import refuse_large_requests

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
EDGE_BY_NAME = {"seed": EDGE[int] + ["18446744073709551616"], "function": ["nope", ""], "format": ["xml", ""]}
ONES, ZEROS = ",".join(["1"] * 100), ",".join(["0"] * 100)
KINKS = ",".join(["0"] * 20 + ["1"] * 80)  # abs_sum lists 2^20 generators here, 800 MB in R^100
MANY = ",".join(repr(0.1 * 0.99 ** i) for i in range(1000))
# per command, the values of a long line, each valid; None leaves a flag out, as convex-bounds' --steps, which would
# bound the run, while a short run from KINKS lists the generators at its start
LONG = {"simulate": [{"function": "quad", "x0": ONES, "steps": "10000000"}, {"steps": "100000000000"}],
        "flow": [{"function": "quad", "x0": ONES, "horizon": "1000", "h": "0.0001"}],
        "compare": [{"function": "quad", "x0": ONES, "alpha": "0.0001", "horizon": "1000"}],
        "convex-bounds": [{"function": "quad", "x0": ONES, "alpha": "0.001", "epsilon": "0.02", "steps": None},
                          {"function": "abs_sum", "x0": KINKS, "steps": "5"}],
        "probe": [{"function": "quad", "xstar": ZEROS, "samples": "250000"}, {"function": "abs_sum", "xstar": KINKS},
                  {"xstar": "0,0", "function": "quad", "samples": "250000", "alpha_grid": MANY, "delta_grid": None},
                  {"samples": "10000000000000"}, {"samples": "99999999999999999999999"},
                  {"max_iters": "9223372036854775808"}],
        "counterexample": [{"samples": "10000000000000"}, {"samples": "99999999999999999999999"}]}
# a call's refusal: its type, and whether its line is the memory budget's one refusal line
Refusal = collections.namedtuple("Refusal", "type budget_line")
BUDGET_LINE = re.compile(r"^.+ must be at most \d+( over \d+ start balls?( and \d+ step sizes)?)? in R\^\d+, got .+$")

FLOATS = [0.1, 0.25, 0.05]
EDGE_NUMBERS = [0.0, -0.0, 5e-324, 1e-320, 1e300, 1.7e308, math.nan, math.inf, -math.inf, -0.1, 1.0, 10 ** 400]
NOT_INTS = [2.5, 3.0, True, np.float64(3.0)]
NOT_REALS = ["0.1", None, True, np.True_, np.array(0.1)]
NOT_POINTS = [None, "0.5", [True], [np.True_], [True, 0.5], [0.5, np.True_], [[0.5], [0.5, 0.5]], [1j], [10 ** 400]]
COORDS = [1.0, 0.5, 0.0, -0.25, 0.1]
EDGE_COORDS = [0.0, -0.0, 5e-324, 1e300, 1.7e308, math.nan, math.inf, -math.inf]  # no 1e-320: see above


def _argv(rng: random.Random) -> tuple[list[str], bool]:
    """One command line: every flag of a drawn command, each value valid or, one time in ten, an edge value; or, one
    time in ten, a long line (``LONG``), with every required flag; and whether it is long."""
    command = rng.choice(list(SUBCOMMANDS))
    _, required, optional = SUBCOMMANDS[command]
    long = rng.choice(LONG[command]) if command in LONG and rng.random() < 0.1 else {}
    fn_id = long.get("function") or rng.choice(CONVEX if command == "convex-bounds" and rng.random() < 0.9
                                               else CATALOG_IDS)
    dim = get_function(fn_id).fixed_dim or rng.choice((1, 2, 3))
    argv = [command]
    for name in required + optional:
        if name in long:
            argv += [] if long[name] is None else [f"--{name.replace('_', '-')}={long[name]}"]
        elif name == "max_iters" or (name in required and (long or rng.random() < 0.97)) or rng.random() < 0.5:
            edge = not long and rng.random() < 0.1
            if name in ("x0", "xstar"):
                value = rng.choice(EDGE[list] if edge else VECTORS[dim])
            elif name == "function":
                value = rng.choice(EDGE_BY_NAME[name]) if edge else fn_id
            else:
                edges = EDGE_BY_NAME.get(name) or EDGE[KINDS[name]]
                value = rng.choice(edges if edge else VALID[name])
            argv.append(f"--{name.replace('_', '-')}={value}")  # = keeps argparse from reading -inf as a flag
    return argv, bool(long)


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
    may be None.  One call in ten is a long call (``LONG_CALLS``).  Returns the call and whether it is long.
    """
    if rng.random() < 0.1:
        return rng.choice(LONG_CALLS), True

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
    n_samples, k_max = integer(1, 3, 0, -1), integer(1, 5, 20, 0)
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
    return (lambda as_int: calls(as_int)[which]()), False


def _points(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# library calls with every value valid but one budget, as ``LONG``'s lines, each a function of ``as_int``
LONG_CALLS = [
    lambda as_int: run(get_function("quad", 100), _points(ONES), 0.1, as_int(10 ** 7)),
    lambda as_int: integrate_flow(get_function("quad", 100), _points(ONES), 1000.0, 0.0001),
    lambda as_int: convex_bounds_report(get_function("quad", 100), _points(ONES), 0.001, 0.02),
    lambda as_int: convex_bounds_report(get_function("abs_sum", 100), _points(KINKS), 0.1, 0.1, n_steps=as_int(5)),
    lambda as_int: probe(StabilityQuery("quad", _points(ZEROS), 0.1, n_samples=as_int(250_000), max_iters=as_int(1))),
    lambda as_int: probe(StabilityQuery("quad", [0.0, 0.0], 0.1, alpha_grid=tuple(_points(MANY)),
                                        n_samples=as_int(250_000), max_iters=as_int(1))),
    lambda as_int: probe(StabilityQuery("abs_sum", _points(KINKS), 0.1, max_iters=as_int(5))),
    lambda as_int: probe(StabilityQuery("quad", [0.0], 0.1, max_iters=as_int(2 ** 63 - 1))),
    lambda as_int: escape_experiment(0.25, 0.1, as_int(10 ** 13), k_max=as_int(5)),
]


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
    """``_bits`` of the call's result, or the type of the refusal it raised and whether it is the budget's line."""
    try:
        with np.errstate(all="ignore"):  # the contract is what a call raises; overflow warnings are not part
            return _bits(call(as_int))
    except (ValueError, NonFiniteState) as exc:  # ValueError covers every refusal type in nsdyn.errors
        return Refusal(type(exc), bool(BUDGET_LINE.match(str(exc))))


def test_fuzz_table_every_entry_point(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NSDYN_SEED", raising=False)
    refuse_large_requests(monkeypatch, stability, counterexample)  # a missing check fails, unallocated
    rng = random.Random(2027)
    codes, budget_lines = [], 0
    for i in range(300):
        argv, long = _argv(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command(argv)
        out, err = capsys.readouterr()
        codes.append(code)
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert len(err.splitlines()) == 1, (argv, err)
            budget_lines += bool(BUDGET_LINE.match(err.removeprefix("error: ")))
        else:
            assert err == "" and not caught, (argv, err, [str(w.message) for w in caught])
        assert not long or (code == 2 and BUDGET_LINE.match(err.removeprefix("error: "))), (argv, err)
        first = _outputs(code, out)
        if code == 0 and i % 4 == 0:  # the same config through --config gives the same bytes
            cfg = _config_from_args(_build_parser().parse_args(argv))
            (tmp_path / "cfg.json").write_text(json_text(cfg))
            code = run_command(["--config", "cfg.json"])
            os.remove("cfg.json")
            assert _outputs(code, capsys.readouterr().out) == first, argv
    # the draws reach success, refusal and the budget's refusal
    assert codes.count(0) > 20 and codes.count(2) > 20 and budget_lines > 0, (codes, budget_lines)

    raised = budget_lines = 0
    for _ in range(400):
        call, long = _library_call(rng)
        outcome = _outcome(call, lambda v: v)
        raised += isinstance(outcome, Refusal)
        budget_lines += isinstance(outcome, Refusal) and outcome.budget_line
        assert not long or outcome == Refusal(ValueError, True), outcome
        assert _outcome(call, _numpy_int) == outcome  # numpy ints give the bits of Python ints
    assert 0 < raised < 400 and budget_lines > 0, (raised, budget_lines)
