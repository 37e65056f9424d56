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
is held to the same table and the library's own argument rules; both spellings
produce identical bytes.  A command given beside ``--config`` is a usage error.

Exit codes: 0 success, 2 usage error, argparse's own included, and 3
numerical divergence, each error on one stderr line (a diverged flow
writes nothing).  JSON output is strict: a report that would hold inf or
NaN is not written, and the command exits 3 with one stderr line.
NSDYN_SEED, when set, must be an integer; it overrides --seed for the
commands that take one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from . import reporting
from .catalog import as_count, as_point, as_real, get_function
from .counterexample import escape_experiment
from .engine import InterpolatedPath, SelectionPolicy, _check_recorded, run
from .errors import NonFiniteState
from .flow import integrate_flow, sup_deviation
from .reporting import json_text, write_text
from .stability import StabilityQuery, convex_bounds_report, probe

__all__ = ["RunConfig", "run_command", "main"]


@dataclass
class RunConfig:
    """One CLI invocation; round-trips unchanged through its JSON form, ``reporting.json_text(cfg)``."""

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
    out: str | None = None
    format: str | None = None
    per_sample_csv: str | None = None

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text, parse_int=_json_int)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        if not isinstance(data.get("command"), str):
            raise ValueError("config needs a 'command' string")
        return cls(**data)


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:  # more digits than Python reads (4300), so past float64's range: the field's rule refuses inf
        return float(text)


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
# the fields each command takes: its row, command and out
TAKES = {command: {"command", "out", *required, *optional} for command, (_, required, optional) in SUBCOMMANDS.items()}
HELP = {"h": "flow step, default alpha/100", "out": "output path (stdout when omitted)"}
CHOICES = {"format": ("csv", "json")}
# the least value of each count
MINIMUM = {"steps": 0, "samples": 1, "max_iters": 1, "seed": 0}
# each field's annotated kind, which parses its flag; list is a vector, which _parse_vector parses
KINDS = {name: (get_args(hint) or (hint,))[0] for name, hint in get_type_hints(RunConfig).items()}


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error is one stderr line and exit 2, as every other usage error is."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nsdyn",
        description="Subgradient-dynamics laboratory: simulate, integrate, probe.",
    )
    parser.add_argument("--config", help="JSON run configuration replacing all flags")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, required, optional) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in required + optional + ("out",):
            p.add_argument("--" + name.replace("_", "-"), required=name in required, choices=CHOICES.get(name),
                           type=_parse_vector if KINDS[name] is list else KINDS[name],
                           help=None if name in required else HELP.get(name), default=argparse.SUPPRESS)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)})


def _vector(value, name: str) -> list:
    if not isinstance(value, list) or not np.isfinite(point := as_point(value, name=name)).all():
        raise ValueError(f"{name} must be a list of finite numbers, got {value!r}")
    return point.tolist()


def _string(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a nonempty string, got {value!r}")
    return value


# each kind's rule, the library's for the same argument, returning the value it checked as that kind
RULES = {float: as_real, int: lambda value, name: as_count(value, name, MINIMUM[name]), list: _vector, str: _string}


def _policy(cfg: RunConfig) -> SelectionPolicy:
    """``cfg.policy``, one string in flags and --config alike: a kind, or ``fixed_index:INDEX`` and no other index."""
    kind, colon, index = cfg.policy.partition(":")
    if colon and kind != "fixed_index":
        raise ValueError(f"policy takes an index only after fixed_index, got {cfg.policy!r}")
    try:
        index = int(index) if colon else 0
    except ValueError:
        raise ValueError(f"policy {cfg.policy!r} needs an integer index, got {index!r}") from None
    return SelectionPolicy(kind, index)


def _check_config(cfg: RunConfig):
    """Hold a config, from flags or --config alike, to its row of SUBCOMMANDS; errors name the field.

    A field the command does not take keeps its default, so ``json_text(cfg)`` stays valid input.  A set field keeps
    what its kind's rule in ``RULES`` returns: a JSON int becomes the float its flag gives, so both spellings agree.
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
        else:
            setattr(cfg, f.name, RULES[KINDS[f.name]](value, f.name))
            if f.name in CHOICES and value not in CHOICES[f.name]:
                raise ValueError(f"{f.name} must be one of {CHOICES[f.name]}, got {value!r}")
            if f.name == "policy":
                _policy(cfg)  # parsed before any work


def _set(**kwargs) -> dict:
    """The keyword arguments that are not None, so the library's defaults fill in the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _diverged(k: int | None) -> int:
    """Exit code 3, after one stderr line, for a run that diverged at iterate k; else 0."""
    if k is None:
        return 0
    print(f"diverged at iterate {k}", file=sys.stderr)
    return 3


def _emit_json(obj, out: str | None, diverged_at: int | None) -> int:
    """Write ``obj`` as strict JSON, then return ``_diverged(diverged_at)``.

    A diverged run whose report holds a non-finite value writes nothing and
    exits 3 on its one divergence line.
    """
    try:
        _emit(json_text(obj), out)
    except NonFiniteState:
        if diverged_at is None:
            raise
    return _diverged(diverged_at)


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
            return _emit_json({"fn_id": traj.fn_id, "alpha": traj.alpha, "points": traj.points,
                               "diverged_at": traj.diverged_at}, cfg.out, traj.diverged_at)
        _emit(reporting.trajectory_csv_text(traj, fn), cfg.out)
        return _diverged(traj.diverged_at)

    if cfg.command == "flow":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        _emit(reporting.flow_csv_text(integrate_flow(fn, cfg.x0, cfg.horizon, cfg.h)), cfg.out)
        return 0

    if cfg.command == "compare":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        steps = np.ceil(np.float64(cfg.horizon) / cfg.alpha)  # inf where the ratio overflows
        _check_recorded(steps, "horizon/alpha")
        # the flow first: a flow that diverges stops the command before the discrete run is paid for
        sol = integrate_flow(fn, cfg.x0, cfg.horizon, cfg.h if cfg.h is not None else cfg.alpha / 100.0)
        traj = run(fn, cfg.x0, cfg.alpha, int(steps), _policy(cfg), seed=cfg.seed)
        stem = cfg.out if cfg.out is not None else "compare"
        write_text(f"{stem}.discrete.csv", reporting.trajectory_csv_text(traj, fn))
        write_text(f"{stem}.flow.csv", reporting.flow_csv_text(sol))
        if traj.diverged_at is not None:
            return _diverged(traj.diverged_at)
        dev = sup_deviation(InterpolatedPath(traj, cfg.horizon), sol)
        _emit(json_text(dev), f"{stem}.compare.json")
        return 0

    if cfg.command == "probe":
        q = StabilityQuery(
            fn_id=cfg.function,
            x_star=cfg.xstar,
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
            write_text(os.path.join(os.path.dirname(base), witness_csv),
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
    report = convex_bounds_report(fn, cfg.x0, cfg.alpha, cfg.epsilon, n_steps=cfg.steps)
    return _emit_json(report, cfg.out, report.diverged_at)


def run_command(argv: list[str]) -> int:
    """Parse argv and execute; never raises for usage or numerical trouble."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if (args.config is None) == (args.command is None):  # --config replaces the command and all its flags
        print("error: give a command or --config, exactly one of them", file=sys.stderr)
        return 2
    try:
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                cfg = RunConfig.from_json(fh.read())
        else:
            cfg = _config_from_args(args)
        env_seed = os.environ.get("NSDYN_SEED")
        if env_seed is not None:
            try:  # parsed for every command, so a bad value always exits 2
                seed = int(env_seed)
            except ValueError:  # not an int, or more digits than Python reads
                raise ValueError(f"NSDYN_SEED must be an integer, got {env_seed!r}") from None
            if "seed" in TAKES.get(cfg.command, ()):
                cfg.seed = seed
        with np.errstate(all="ignore"):  # a diverged run reports on one line, not in warnings
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
