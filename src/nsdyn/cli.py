"""Command-line entry point.

Subcommands map one-to-one onto library operations:

    list-functions                  catalog descriptors as JSON
    simulate                        discrete trajectory CSV
    flow                            integrated flow CSV
    compare                         aligned discrete + flow CSVs plus a
                                    deviation summary JSON
    probe                           ball-stability probe report JSON
    counterexample                  seeded escape experiment JSON
    convex-bounds                   constant-step bound report JSON

Exit codes: 0 success, 2 usage error, 3 numerical divergence (reported in
the output, not crashed).  The environment variable NSDYN_SEED, when set,
overrides --seed.  A full run can also be specified as
``nsdyn --config cfg.json`` where cfg.json is the JSON form of the flag
set; both spellings produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

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

COMMANDS = ("list-functions", "simulate", "flow", "compare", "probe",
            "counterexample", "convex-bounds")


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
        if "command" not in data:
            raise ValueError("config has no 'command' key")
        return cls(**data)


def _parse_vector(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdyn",
        description="Subgradient-dynamics laboratory: simulate, integrate, probe.",
    )
    parser.add_argument("--config", help="JSON run configuration replacing all flags")
    sub = parser.add_subparsers(dest="command")

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"))

    p = sub.add_parser("list-functions", help="catalog descriptors")
    common(p, seed=False)

    p = sub.add_parser("simulate", help="discrete subgradient trajectory")
    p.add_argument("--function", required=True)
    p.add_argument("--x0", required=True, type=_parse_vector)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--policy", default="minimal_norm")
    common(p)

    p = sub.add_parser("flow", help="integrate the subgradient flow")
    p.add_argument("--function", required=True)
    p.add_argument("--x0", required=True, type=_parse_vector)
    p.add_argument("--horizon", required=True, type=float)
    p.add_argument("--h", required=True, type=float)
    common(p)

    p = sub.add_parser("compare", help="discrete trajectory vs flow on one horizon")
    p.add_argument("--function", required=True)
    p.add_argument("--x0", required=True, type=_parse_vector)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--horizon", required=True, type=float)
    p.add_argument("--h", type=float, help="flow step, default alpha/100")
    p.add_argument("--policy", default="minimal_norm")
    common(p)

    p = sub.add_parser("probe", help="ball-stability probe")
    p.add_argument("--function", required=True)
    p.add_argument("--xstar", required=True, type=_parse_vector)
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--delta-grid", type=_parse_vector)
    p.add_argument("--alpha-grid", type=_parse_vector)
    p.add_argument("--samples", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--policy", default="minimal_norm")
    common(p)

    p = sub.add_parser("counterexample", help="escape experiment around (1, 0)")
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--per-sample-csv")
    common(p)

    p = sub.add_parser("convex-bounds", help="constant-step bounds on a convex entry")
    p.add_argument("--function", required=True)
    p.add_argument("--x0", required=True, type=_parse_vector)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--steps", type=int)
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)})
    if cfg.policy.startswith("fixed_index:"):
        cfg.policy, cfg.policy_index = "fixed_index", int(cfg.policy.split(":", 1)[1])
    return cfg


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _policy(cfg: RunConfig) -> SelectionPolicy:
    return SelectionPolicy(cfg.policy, cfg.policy_index)


def _check_finite(cfg: RunConfig):
    """Every numeric field, scalar or list, is finite; JSON configs may hold NaN or Infinity."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not np.isfinite(v) for v in items):
            raise ValueError(f"{f.name} must be finite, got {value}")


def execute(cfg: RunConfig) -> int:
    """Run one configuration; returns the process exit code."""
    _check_finite(cfg)
    fmt_kind = cfg.format
    if cfg.command == "list-functions":
        _emit(json_text(reporting.catalog_json_list()), cfg.out)
        return 0

    if cfg.command == "simulate":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        traj = run(fn, cfg.x0, cfg.alpha, cfg.steps, _policy(cfg), seed=cfg.seed)
        fmt_kind = fmt_kind or "csv"
        if fmt_kind == "csv":
            _emit(reporting.trajectory_csv_text(traj, fn), cfg.out)
        else:
            _emit(json_text({"fn_id": traj.fn_id, "alpha": traj.alpha,
                             "points": traj.points, "diverged_at": traj.diverged_at}), cfg.out)
        if traj.diverged_at is not None:
            print(f"diverged at iterate {traj.diverged_at}", file=sys.stderr)
            return 3
        return 0

    if cfg.command == "flow":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        try:
            sol = integrate_flow(fn, cfg.x0, cfg.horizon, cfg.h)
        except NonFiniteState as exc:
            print(f"flow integration diverged: {exc}", file=sys.stderr)
            return 3
        _emit(reporting.flow_csv_text(sol), cfg.out)
        return 0

    if cfg.command == "compare":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        h = cfg.h if cfg.h is not None else cfg.alpha / 100.0
        steps = int(np.ceil(cfg.horizon / cfg.alpha))
        traj = run(fn, cfg.x0, cfg.alpha, steps, _policy(cfg), seed=cfg.seed)
        try:
            sol = integrate_flow(fn, cfg.x0, cfg.horizon, h)
        except NonFiniteState as exc:
            print(f"flow integration diverged: {exc}", file=sys.stderr)
            return 3
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
            n_samples=cfg.samples if cfg.samples is not None else 50,
            max_iters=cfg.max_iters,
            policy=_policy(cfg),
            seed=cfg.seed,
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
        stats, per_sample = escape_experiment(cfg.epsilon, cfg.alpha, cfg.samples,
                                              k_max=cfg.max_iters or 100_000, seed=cfg.seed)
        if cfg.per_sample_csv:
            write_text(cfg.per_sample_csv, reporting.per_sample_csv_text(per_sample))
        _emit(json_text(stats.to_json_dict()), cfg.out)
        return 0

    if cfg.command == "convex-bounds":
        fn = get_function(cfg.function, dim=len(cfg.x0))
        report = convex_bounds_report(fn, cfg.x0, cfg.alpha, cfg.epsilon,
                                      n_steps=cfg.steps, seed=cfg.seed)
        _emit(json_text(report), cfg.out)
        return 0

    print(f"unknown command {cfg.command!r}", file=sys.stderr)
    return 2


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
            cfg.seed = int(env_seed)
        return execute(cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
