"""In-memory spans and a counting catalog-function proxy for the traced run.

The traced run records a span (name, start, end, parent) around every call
the benchmark makes into a layer's public function.  Catalog oracle calls
made from inside the package are not spans of their own: the proxy adds
their count, rows and time to per-method totals and to the enclosing
span's child time, so a span's self time is its duration minus that child
time.  Nothing inside the package is edited or patched; the proxy is passed
wherever the API accepts a function object.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from nsdyn.catalog import minimal_norm_element


class NullTracer:
    """Tracing off: spans cost one no-op context manager, functions pass through."""

    active = False

    def span(self, name):
        return contextlib.nullcontext()

    def wrap(self, fn):
        return fn

    def add(self, name, n=1):
        pass

    def oracle_totals(self, method):
        return (0, 0, 0)


class Tracer:
    active = True

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, child_ns]
        self.oracle = {}  # catalog method -> [calls, rows, ns]
        self.counts = Counter()
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        rec = [name, 0, 0, parent, 0]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]

    def wrap(self, fn):
        return TracedFunction(fn, self)

    def add(self, name, n=1):
        self.counts[name] += int(n)

    def record_oracle(self, method, rows, ns):
        tot = self.oracle.setdefault(method, [0, 0, 0])
        tot[0] += 1
        tot[1] += rows
        tot[2] += ns
        if self._open:
            self.spans[self._open[-1]][4] += ns

    def oracle_totals(self, method):
        """(calls, rows, ns) of one catalog method over the pass."""
        return tuple(self.oracle.get(method, (0, 0, 0)))

    def span_totals(self, name):
        """(count, total ns, self ns) over every span with this name."""
        count = total = child = 0
        for rec in self.spans:
            if rec[0] == name:
                count += 1
                total += rec[2] - rec[1]
                child += rec[4]
        return count, total, total - child


class TracedFunction:
    """Delegating CatalogFunction proxy that counts and times every oracle call."""

    def __init__(self, fn, tracer: Tracer):
        self._fn = fn
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._fn, name)

    def value(self, x):
        t = time.perf_counter_ns()
        out = self._fn.value(x)
        self._tracer.record_oracle("value", 1, time.perf_counter_ns() - t)
        return out

    def value_many(self, pts):
        t = time.perf_counter_ns()
        out = self._fn.value_many(pts)
        self._tracer.record_oracle("value_many", len(pts), time.perf_counter_ns() - t)
        return out

    def min_norm_many(self, pts):
        t = time.perf_counter_ns()
        out = self._fn.min_norm_many(pts)
        self._tracer.record_oracle("min_norm_many", len(pts), time.perf_counter_ns() - t)
        return out

    def generators(self, x, active_tol=0.0):
        t = time.perf_counter_ns()
        gens = self._fn.generators(x, active_tol)
        self._tracer.record_oracle("generators", 1, time.perf_counter_ns() - t)
        if gens.shape[0] > 2:  # the minimal-norm selection runs Wolfe on such sets
            self._tracer.add("catalog.wolfe.calls")
        return gens


def time_min_norm(gens, min_ns=100_000_000):
    """Mean microseconds of minimal_norm_element on one generator set.

    Repeats the call until at least ``min_ns`` have elapsed.
    """
    reps = 0
    start = time.perf_counter_ns()
    while True:
        minimal_norm_element(gens)
        reps += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed >= min_ns:
            return elapsed / reps / 1e3
