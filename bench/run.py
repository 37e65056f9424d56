"""nsdyn benchmark: three checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {escape,probe,trajectory} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout that holds src/nsdyn and tests/goldens beside bench/.
Every pass runs in a fresh worker process (bench/worker.py) with the
package on PYTHONPATH and the BLAS/OpenMP thread counts pinned to 1; the
load is one closed-loop client on one thread.  The seed alone makes the
inputs.

--trace 0  passes of the workload, one after another, until S seconds have
           passed (at least three).  End-to-end metrics, medians over passes:
             setup_s             fresh interpreter until nsdyn is imported
                                 and the inputs are built
             wall_s              one pass of the workload, tracing off
             sample_steps_per_s  sample-steps counted from the outputs,
                                 divided by wall_s
             peak_rss_mb         peak resident memory of the pass process
             ops_ok_ratio        jobs that returned and passed every check,
                                 over jobs attempted (1 - ops_failed_ratio;
                                 the complement never reads 0, which a ratio
                                 bound needs)
--trace 1  one round: an untraced and a traced pass of every workload (about
           25 s, whatever S says; per-layer metrics have no bound, so one
           round serves and keeps the run short).  Each per-layer metric is
           named <workload>.<layer>.<function>.<quantity> after the workload
           that exercises that layer, so every traced run reports all of
           them whatever --workload names; <workload>.trace.overhead_ratio
           is traced over untraced wall_s, minus 1.  Spans go to
           bench/out/trace_<workload>_seed<N>.json.  The overhead ratio and
           escape...escape_experiment.self_s (call minus a proxied run_batch
           replay) are differences of single timings and read within the
           machine's timing noise.

Work counts (sample-steps, oracle rows, loop iterations, compactions, probe
cells, Wolfe calls) must repeat exactly between passes of one run and
between runs of the same code and seed (ledger: bench/out/counts.json);
otherwise the run is invalid.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Exit status: 0 when every output check passed apart from KNOWN_FAILURES and
the counts repeat; 1 otherwise (the result line still says why); 2 for a
usage error or a checkout without the package sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("escape", "probe", "trajectory")
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_PASSES = 3
RUN_LIMIT_S = 170.0
# Jobs that fail at the reference commit and stay in their workload so that a
# fix shows as ops_ok_ratio rising: at the abs_sum kink in R^4, run's Wolfe
# selection leaves -4.4e-16 where run_batch's closed form gives exact 0, so
# the two end at different points.
KNOWN_FAILURES = {"trajectory/compare_abs_sum_kink"}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, traced: bool, full: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; adds its set-up time as setup_s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_PINS)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(int(traced)), str(int(full))]
    spawned = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} pass did not finish within the run limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with status {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result.pop("ready_at") - spawned
    return result


def audit(workload: str, passes: list, problems: list, notes: list):
    """Tally jobs and check that work counts repeat; returns (attempted, failed, counts)."""
    attempted = failed = 0
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            key = f"{workload}/{job['job']}"
            if job["ok"]:
                if key in KNOWN_FAILURES:
                    notes[f"known failure {key} now passes"] = None
                continue
            failed += 1
            if key in KNOWN_FAILURES:
                notes[f"known failure {key}: {job['detail']}"] = None
            else:
                problems.append(f"{key}: {job['detail']}")
    counts = dict(passes[0]["counts"])
    for p in passes[1:]:
        for k, v in p["counts"].items():
            if counts.setdefault(k, v) != v:
                problems.append(f"{workload} work count {k} differs between passes: {counts[k]} vs {v}")
    return attempted, failed, counts


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files + [BENCH_DIR / "expected_escape.json"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def ledger_check(key: str, counts: dict, problems: list):
    """Counts of one (code, workload, seed) must equal those of every earlier run."""
    path = OUT_DIR / "counts.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.setdefault(key, counts)
    if seen != counts:
        problems.append(f"work counts {counts} differ from an earlier run of the same code and seed: {seen}")
        return
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def run_untraced(workload, seed, seconds, deadline, problems, notes):
    # Passes until ``seconds`` have passed (at least MIN_PASSES), never starting
    # one that the longest so far says would not end before the deadline.  Only
    # the first pass replays what some counts need; the others must match it.
    passes, longest = [], 0.0
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        if passes and time.monotonic() + 1.5 * longest > deadline:
            break
        t = time.monotonic()
        passes.append(spawn(workload, seed, False, not passes, deadline))
        longest = max(longest, time.monotonic() - t)
    attempted, failed, counts = audit(workload, passes, problems, notes)
    if "sample_steps" not in counts:
        raise BenchError(f"{workload}: no sample-step count; the counting pass failed: {problems}")
    steps = counts["sample_steps"]
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(walls),
        "sample_steps_per_s": statistics.median(steps / w for w in walls),
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] * 1024 / 1e6 for p in passes),
        "ops_ok_ratio": (attempted - failed) / attempted,
    }
    raw = [{"setup_s": p["setup_s"], "wall_s": p["wall_s"], "peak_rss_kib": p["peak_rss_kib"],
            "job_s": [job["seconds"] for job in p["jobs"]]} for p in passes]
    return metrics, attempted, failed, {workload: counts}, raw, passes[0]["numpy"]


def run_traced(seed, deadline, problems, notes):
    attempted = failed = 0
    counts, layers = {}, {}
    OUT_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS:
        base = spawn(w, seed, False, True, deadline)
        traced = spawn(w, seed, True, True, deadline)
        a, f, counts[w] = audit(w, [base, traced], problems, notes)
        attempted += a
        failed += f
        layers.update({f"{w}.{k}": v for k, v in traced["layers"].items()})
        layers[f"{w}.trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"] - 1.0
        (OUT_DIR / f"trace_{w}_seed{seed}.json").write_text(json.dumps(
            {"workload": w, "seed": seed, "span_fields": ["name", "start_ns", "end_ns", "parent", "child_ns"],
             "spans": traced["spans"], "oracle": traced["oracle"]}) + "\n")
    return layers, attempted, failed, counts, traced["numpy"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in (ROOT / "src" / "nsdyn" / "__init__.py", ROOT / "tests" / "goldens",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"bench: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = declared["per_layer"] if args.trace else declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    deadline = time.monotonic() + RUN_LIMIT_S
    problems, notes = [], {}  # notes: an insertion-ordered set
    digest = source_digest()
    try:
        if args.trace:
            metrics, attempted, failed, counts, numpy_version = run_traced(args.seed, deadline, problems, notes)
            raw = {}
        else:
            metrics, attempted, failed, counts, raw, numpy_version = run_untraced(
                args.workload, args.seed, args.seconds, deadline, problems, notes)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"bench: measured metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    if args.trace:
        counts["traced"] = {n: metrics[n] for n, u in units.items() if u == "count"}
    for key, c in counts.items():
        ledger_check(f"{digest}/{key}/seed{args.seed}", c, problems)
    env = {"python": sys.version.split()[0], "numpy": numpy_version, "cpu_count": os.cpu_count(),
           "git_sha": git_sha(), "source_sha256": digest, "seed": args.seed, "thread_pins": THREAD_PINS}
    print(f"nsdyn benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in units:
        print(f"  {name:<58} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'ops_failed_ratio':<58} {failed / attempted:>14.6g} ratio ({failed} failed of {attempted} jobs)")
    for line in notes:
        print(f"note: {line}")
    for line in dict.fromkeys(problems):
        print(f"FAILED: {line}")
    print("counts " + json.dumps(counts, sort_keys=True))
    if raw:
        print("raw " + json.dumps(raw))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
