"""Bit-stable CSV/JSON emission for trajectories, flows and probe reports.

All reals are printed with Python's shortest round-trip representation
(at most 17 significant digits), keys are sorted, and line endings are LF,
so regenerating any artifact from the same inputs is byte-identical.  Each
JSON document is ``json_text`` of what ``_plain`` builds from an object's own
fields, so a value prints as it was given.  JSON is strict: a report holding
inf or NaN is refused, not written.  A CSV keeps the truthful ``inf`` and
``nan`` of a diverged run.

A CSV is built from columns of equal length, and a column's dtype decides
how every cell in it prints: integer and bool columns as integers (a bool
as 0 or 1), every other column as ``fmt`` prints a float.  Rows are
formatted CSV_BLOCK at a time, so the Python objects of one block's cells
are alive at once, not those of the whole table.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .catalog import CatalogFunction, get_function, list_catalog
from .engine import Trajectory
from .errors import NonFiniteState
from .flow import FlowSolution
from .stability import StabilityVerdict

__all__ = [
    "fmt",
    "trajectory_csv_text",
    "flow_csv_text",
    "per_sample_csv_text",
    "json_text",
    "write_text",
    "verdict_json_dict",
    "catalog_json_list",
]


CSV_BLOCK = 1024  # rows formatted at a time


def fmt(v) -> str:
    """Shortest round-trip decimal for one real."""
    return repr(float(v))


def _csv(header: list[str], columns: list) -> str:
    cols = [c.astype(np.int64 if c.dtype.kind in "biu" else float, copy=False) for c in map(np.asarray, columns)]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"CSV columns of unequal lengths {[len(c) for c in cols]}")
    # repr of a Python float is fmt without its float() call
    blocks = ("\n".join(map(",".join, zip(*(map(repr, c[i:i + CSV_BLOCK].tolist()) for c in cols)))) + "\n"
              for i in range(0, len(cols[0]), CSV_BLOCK))
    return "".join([",".join(header) + "\n", *blocks])


def trajectory_csv_text(traj: Trajectory, fn: CatalogFunction | None = None) -> str:
    """One row per iterate: k, t, coordinates, f, subgrad_norm.

    subgrad_norm on row k is the norm of the subgradient chosen at x_k; the
    final row, which has no executed step, reports the norm of the
    minimal-norm element at the last point.
    """
    fn = fn if fn is not None else get_function(traj.fn_id, dim=traj.dim)
    header = ["k", "t"] + [f"x_{i}" for i in range(traj.dim)] + ["f", "subgrad_norm"]
    s, last = traj.chosen_subgradients, fn.min_norm_many(traj.points[-1:])
    return _csv(header, [np.arange(traj.points.shape[0]), traj.times, *traj.points.T, fn.value_many(traj.points),
                         np.sqrt(np.concatenate([np.vecdot(s, s), np.vecdot(last, last)]))])


def flow_csv_text(sol: FlowSolution) -> str:
    """One row per node: t, coordinates, f, min_norm_subgrad (its norm)."""
    header = ["t"] + [f"x_{i}" for i in range(sol.dim)] + ["f", "min_norm_subgrad"]
    s = sol.min_norm_subgrads
    return _csv(header, [sol.ts, *sol.xs.T, sol.f_values, np.sqrt(np.vecdot(s, s))])


def per_sample_csv_text(per_sample: np.ndarray) -> str:
    """Escape-experiment sample table: index, start, exit index, axis flag."""
    header = ["sample", "x1_0", "x2_0", "exit_index", "on_S"]
    return _csv(header, [np.arange(per_sample.shape[0]), *(per_sample[c] for c in header[1:])])


def _plain(obj):
    """JSON's types for ``obj``: a dataclass as the dict of its fields, numpy arrays and scalars as Python's."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if is_dataclass(obj):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """Strict JSON text of ``obj``; a non-finite float, which JSON cannot spell, raises NonFiniteState."""
    try:
        return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteState(f"no JSON output, it would hold a non-finite value ({exc})") from None


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fields(obj, drop=()) -> dict:
    """A dataclass's own fields, one level deep, but those set to None or named in ``drop``."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name not in drop and getattr(obj, f.name) is not None}


def verdict_json_dict(verdict: StabilityVerdict, witness_csv: str | None = None) -> dict:
    """Probe report: the verdict's fields, less a None certificate or witness; the query is echoed as given.

    The witness leaves out its trajectory, which the CSV ``witness_csv`` names.
    A positive verdict is only ever an observation at the recorded budgets
    and policy, so the status string keeps the word "observed".
    """
    out = _fields(verdict)
    if verdict.witness is not None:
        out["witness"] = _fields(verdict.witness, drop=("trajectory_ref",))
        if witness_csv is not None:
            out["witness"]["trajectory_csv"] = witness_csv
    return _plain(out)


def catalog_json_list() -> list[dict]:
    return [fn.describe() for fn in list_catalog()]
