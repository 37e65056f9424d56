"""Command-line entry point.

Subcommands map one-to-one onto library operations:

    list-functions    catalog descriptors as JSON
    simulate          discrete trajectory CSV, or JSON with --format json
    flow              integrated flow CSV
    compare           aligned discrete + flow CSVs plus a deviation summary JSON
    probe             ball-stability probe report JSON
    counterexample    seeded escape experiment JSON
    convex-bounds     constant-step bound report JSON

``SUBCOMMANDS`` declares each command's flags once.  The parser is built
from it, and ``nsdyn --config cfg.json`` (the JSON form of a ``RunConfig``)
is held to the same table; both spellings produce identical bytes.

Exit codes: 0 success, 2 usage error, 3 numerical divergence (reported in
the output, not crashed).  NSDYN_SEED, when set, must be an integer; it
overrides --seed for the commands that take one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from . import reporting
from .catalog import get_function
from .counterexample import escape_experiment
from .engine import InterpolatedPath, SelectionPolicy, run
from .errors import NonFiniteState
from .flow import integrate_flow, sup_deviation
from .reporting import json_text, write_text
from .stability import StabilityQuery, convex_bounds_report, probe

__all__ = ["RunConfig", "run_command", "main"]


@dataclass
class RunConfig:
    """One CLI invocation; round-trips unchanged through its JSON form."""

    command: str
    function: str | None = None
    x0: list | None = None
    xstar: list | None = None
    alpha: float | None = None
    steps: int | None = None
    horizon: float | None = None
    h: float | None = None
    epsilon: float | None = None
    delta_grid: list | None = None
    alpha_grid: list | None = None
    samples: int | None = None
    max_iters: int | None = None
    seed: int = 0
    policy: str = "minimal_norm"
    policy_index: int = 0
    out: str | None = None
    format: str | None = None
    per_sample_csv: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        if not isinstance(data.get("command"), str):
            raise ValueError("config needs a 'command' string")
        return cls(**data)


def _parse_vector(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}")


# command: (help, required fields, optional fields); every command also takes out
SUBCOMMANDS = {
    "list-functions": ("catalog descriptors", (), ()),
    "simulate": ("discrete subgradient trajectory",
                 ("function", "x0", "alpha", "steps"), ("policy", "seed", "format")),
    "flow": ("integrate the subgradient flow", ("function", "x0", "horizon", "h"), ()),
    "compare": ("discrete trajectory vs flow on one horizon",
                ("function", "x0", "alpha", "horizon"), ("h", "policy", "seed")),
    "probe": ("ball-stability probe", ("function", "xstar", "epsilon"),
              ("delta_grid", "alpha_grid", "samples", "max_iters", "policy", "seed")),
    "counterexample": ("escape experiment around (1, 0)", ("epsilon", "alpha", "samples"),
                       ("max_iters", "per_sample_csv", "seed")),
    "convex-bounds": ("constant-step bounds on a convex entry",
                      ("function", "x0", "alpha", "epsilon"), ("steps",)),
}
# the fields each command takes: its row, command and out, and policy_index along with policy
TAKES = {command: {"command", "out", *required, *optional} | ({"policy_index"} if "policy" in optional else set())
         for command, (_, required, optional) in SUBCOMMANDS.items()}
HELP = {"h": "flow step, default alpha/100", "out": "output path (stdout when omitted)"}
CHOICES = {"format": ("csv", "json")}
# the least value of each bounded count, checked in the same field loop as the kinds
MINIMUM = {"steps": 0, "samples": 1, "max_iters": 1, "seed": 0}
# each field's annotated kind (list is a vector), and each kind's flag parser and name in errors
KINDS = {name: (get_args(hint) or (hint,))[0] for name, hint in get_type_hints(RunConfig).items()}
PARSE = {list: (_parse_vector, "a list of finite numbers"), float: (float, "a finite number"),
         int: (int, "an int"), str: (str, "a string")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdyn",
        description="Subgradient-dynamics laboratory: simulate, integrate, probe.",
    )
    parser.add_argument("--config", help="JSON run configuration replacing all flags")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, required, optional) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in required + optional + ("out",):
            p.add_argument("--" + name.replace("_", "-"), type=PARSE[KINDS[name]][0], required=name in required,
                           choices=CHOICES.get(name), help=None if name in required else HELP.get(name),
                           default=argparse.SUPPRESS)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)})
    if cfg.policy.startswith("fixed_index:"):
        cfg.policy, cfg.policy_index = "fixed_index", int(cfg.policy.split(":", 1)[1])
    return cfg


def _has_kind(value, kind) -> bool:
    """Whether a set value is of its field's kind; numbers must be finite, and a bool is not one."""
    if kind is list:
        return isinstance(value, list) and all(_has_kind(v, float) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    return not isinstance(value, float) or math.isfinite(value)


def _check_config(cfg: RunConfig):
    """Hold a config, from flags or --config alike, to its row of SUBCOMMANDS; errors name the field.

    A field the command does not take keeps its default, so ``to_json`` output stays valid input.
    """
    if cfg.command not in SUBCOMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    required = SUBCOMMANDS[cfg.command][1]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in TAKES[cfg.command]:
            if value != f.default:
                raise ValueError(f"{cfg.command} takes no {f.name}, got {value!r}")
        elif value is None:
            if f.name in required:
                raise ValueError(f"{cfg.command} requires {f.name}")
        elif not _has_kind(value, KINDS[f.name]):
            raise ValueError(f"{f.name} must be {PARSE[KINDS[f.name]][1]}, got {value!r}")
        elif f.name in CHOICES and value not in CHOICES[f.name]:
            raise ValueError(f"{f.name} must be one of {CHOICES[f.name]}, got {value!r}")
        elif f.name in MINIMUM and value < MINIMUM[f.name]:
            raise ValueError(f"{f.name} must be >= {MINIMUM[f.name]}, got {value!r}")


def _set(**kwargs) -> dict:
    """The keyword arguments that are not None, so the library's defaults fill in the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _policy(cfg: RunConfig) -> SelectionPolicy:
    return SelectionPolicy(cfg.policy, cfg.policy_index)


def execute(cfg: RunConfig) -> int:
    """Check and run one config; returns the exit code (run_command maps ValueError to 2, NonFiniteState to 3)."""
    _check_config(cfg)
    if cfg.command == "list-functions":
        _emit(json_text(reporting.catalog_json_list()), cfg.out)
        return 0

    if cfg.command == "simulate":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        traj = run(fn, cfg.x0, cfg.alpha, cfg.steps, _policy(cfg), seed=cfg.seed)
        if cfg.format == "json":
            _emit(json_text({"fn_id": traj.fn_id, "alpha": traj.alpha,
                             "points": traj.points, "diverged_at": traj.diverged_at}), cfg.out)
        else:
            _emit(reporting.trajectory_csv_text(traj, fn), cfg.out)
        if traj.diverged_at is not None:
            print(f"diverged at iterate {traj.diverged_at}", file=sys.stderr)
            return 3
        return 0

    if cfg.command == "flow":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        _emit(reporting.flow_csv_text(integrate_flow(fn, cfg.x0, cfg.horizon, cfg.h)), cfg.out)
        return 0

    if cfg.command == "compare":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        if cfg.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {cfg.horizon}")
        h = cfg.h if cfg.h is not None else cfg.alpha / 100.0
        steps = int(np.ceil(cfg.horizon / cfg.alpha))
        traj = run(fn, cfg.x0, cfg.alpha, steps, _policy(cfg), seed=cfg.seed)
        sol = integrate_flow(fn, cfg.x0, cfg.horizon, h)
        stem = cfg.out if cfg.out is not None else "compare"
        write_text(f"{stem}.discrete.csv", reporting.trajectory_csv_text(traj, fn))
        write_text(f"{stem}.flow.csv", reporting.flow_csv_text(sol))
        if traj.diverged_at is not None:
            print(f"diverged at iterate {traj.diverged_at}", file=sys.stderr)
            return 3
        dev = sup_deviation(InterpolatedPath(traj, cfg.horizon), sol)
        _emit(json_text(dev), f"{stem}.compare.json")
        return 0

    if cfg.command == "probe":
        q = StabilityQuery(
            fn_id=cfg.function,
            x_star=np.asarray(cfg.xstar, float),
            epsilon=cfg.epsilon,
            delta_grid=None if cfg.delta_grid is None else tuple(cfg.delta_grid),
            alpha_grid=None if cfg.alpha_grid is None else tuple(cfg.alpha_grid),
            max_iters=cfg.max_iters,
            policy=_policy(cfg),
            seed=cfg.seed,
            **_set(n_samples=cfg.samples),
        )
        verdict = probe(q)
        witness_csv = None
        if verdict.witness is not None and cfg.out is not None:
            base = cfg.out[:-5] if cfg.out.endswith(".json") else cfg.out
            witness_csv = os.path.basename(base) + "_witness.csv"
            write_text(os.path.join(os.path.dirname(base) or ".", witness_csv),
                       reporting.trajectory_csv_text(verdict.witness.trajectory_ref))
        _emit(json_text(reporting.verdict_json_dict(verdict, witness_csv)), cfg.out)
        return 0

    if cfg.command == "counterexample":
        stats, per_sample = escape_experiment(cfg.epsilon, cfg.alpha, cfg.samples, seed=cfg.seed,
                                              **_set(k_max=cfg.max_iters))
        if cfg.per_sample_csv:
            write_text(cfg.per_sample_csv, reporting.per_sample_csv_text(per_sample))
        _emit(json_text(stats.to_json_dict()), cfg.out)
        return 0

    # convex-bounds, the last row of SUBCOMMANDS
    fn = get_function(cfg.function, dim=len(cfg.x0))
    _emit(json_text(convex_bounds_report(fn, cfg.x0, cfg.alpha, cfg.epsilon, n_steps=cfg.steps)), cfg.out)
    return 0


def run_command(argv: list[str]) -> int:
    """Parse argv and execute; never raises for usage or numerical trouble."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.config is None and args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                cfg = RunConfig.from_json(fh.read())
        else:
            cfg = _config_from_args(args)
        env_seed = os.environ.get("NSDYN_SEED")
        if env_seed is not None:
            seed = int(env_seed)  # parsed for every command, so a bad value always exits 2
            if "seed" in TAKES.get(cfg.command, ()):
                cfg.seed = seed
        return execute(cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteState as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
