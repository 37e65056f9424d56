"""Regenerate expected_escape.json: escape counts and max exit indices per seed.

    PYTHONPATH=src python3 bench/make_expected.py [N_SEEDS]

Run at the commit whose dynamics define the reference; the escape workload
then checks every tabulated seed against it.  Seeds 0..N_SEEDS-1 (default
100) at the workload's budgets.
"""

import json
import sys
from pathlib import Path

from nsdyn.counterexample import escape_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import ESCAPE_BUDGETS, EPSILON, N_SAMPLES  # noqa: E402


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    seeds = {}
    for seed in range(n_seeds):
        seeds[str(seed)] = [
            [stats.escaped_count, stats.max_exit_index]
            for stats, _ in (escape_experiment(EPSILON, alpha, N_SAMPLES, k_max, seed)
                             for alpha, k_max in ESCAPE_BUDGETS)]
    lines = [f'  "{seed}": {json.dumps(row)}' for seed, row in seeds.items()]
    text = ('{\n "budgets": ' + json.dumps([list(b) for b in ESCAPE_BUDGETS])
            + ',\n "seeds": {\n' + ",\n".join(lines) + "\n }\n}\n")
    (Path(__file__).resolve().parent / "expected_escape.json").write_text(text)


if __name__ == "__main__":
    main()
