#!/usr/bin/env python3
"""Line coverage of ``src/nsdyn/`` under the Tier-1 suite: every statement that never ran.

    python tools/unrun.py

The tool installs a ``sys.settrace`` line tracer that records only frames of code in ``src/nsdyn/``, then runs the
Tier-1 suite in this process (``pytest -q -p no:cacheprovider tests`` from the repository root) without the tests in
``LEFT_OUT``. A statement ran when a line of its own (its lines less those of the statements nested in it) gave a
line event; docstrings, ``try`` headers and ``global`` statements, which give none, are not counted. It prints each
statement that never ran, with its file, line and first line of text, and exits 1 unless the suite passed and every
unrun statement is on ``ALLOWED`` with its reason; an ``ALLOWED`` entry that no unrun statement matches is reported
too, so the list cannot fall behind the code. Standard library only, besides the pytest that runs the suite; it
takes about half a minute on 2 CPUs.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nsdyn"

# tests that are not run, each with its reason
LEFT_OUT = {
    "tests/test_acceptance.py::test_c1_counterexample_instability":
        "C1 is the documented red check, which fails at 0/241/1000/1000; the escape tests run its code",
    "tests/test_engine.py::test_a_recorded_run_and_its_csv_peak_near_their_size":
        "it bounds the peak RSS, which the tracer's own records move",
}

# (file, first line of the statement's text, stripped) -> why it never runs under Tier-1
ALLOWED = {
    ("catalog.py", "raise NotImplementedError"):
        "the abstract oracles of CatalogFunction; every catalog entry overrides both",
    # Wolfe's three safeguards: no input found that reaches them, among the tests' sets and 20,000 random ones
    # (small integer, Gaussian, with a repeated row at scales 1e-8 to 1e8, and integer plus 1e-13 noise)
    ("catalog.py", "break"): "Wolfe's exit for a best vertex in the corral, and the ends of the two branches below",
    ("catalog.py", "weights = np.clip(v, 0.0, None)"): "Wolfe's minor-cycle fallback when no weight can shrink",
    ("catalog.py", "s = weights.sum()"): "the same fallback",
    ("catalog.py", "if s > 0:"): "the same fallback",
    ("catalog.py", "weights = weights / s"): "the same fallback",
    ("catalog.py", "weights = weights / weights.sum()"):
        "Wolfe's minor cycle when every weight stays positive after the move",
}


def statements(path: Path) -> list[tuple[int, set[int], str]]:
    """(first line, own lines, first line of text) of each counted statement in the file."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        for decorator in getattr(node, "decorator_list", ()):
            own |= set(range(decorator.lineno, decorator.end_lineno + 1))
        out.append((node.lineno, own, text[node.lineno - 1].strip()))
    return sorted(out)


def main() -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)  # a module's or a def's first line
        return local

    os.chdir(ROOT)  # test ids are relative to the repository root
    sys.path.insert(0, str(ROOT / "src"))
    args = ["-q", "-p", "no:cacheprovider", "tests"] + [f"--deselect={test}" for test in LEFT_OUT]
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"the suite did not pass (pytest exit code {code})")
        return 1

    unrun, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for lineno, own, first in statements(path):
            if own & lines:
                continue
            key = (path.name, first)
            used.add(key)
            reason = ALLOWED.get(key)
            unrun.append(reason is not None)
            print(f"{path.name}:{lineno}: {first}  [{reason or 'NOT ALLOWED'}]")
    stale = sorted(set(ALLOWED) - used)
    for name, first in stale:
        print(f"allowed but ran, or gone: {name}: {first}")
    print(f"{len(unrun)} statements never ran, {unrun.count(False)} of them not allowed")
    return 0 if all(unrun) and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
