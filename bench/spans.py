"""Span tracing for the traced in-process run.

The tracer wraps public functions of the rtlab modules from outside:
every module-level name bound to a wrapped function is rebound, so a name
imported into another module (cli's count_colorings, containers'
count_distinct_choices, cleaning's count_rainbow_copies_through_triangle)
is traced too.  Nothing under src/ changes.  Spans (name, start, end,
parent, job) are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Wrapped functions per module.  exactmath's interval helpers are summed
# into one `exactmath.intervals.self_s` metric.
TRACED = {
    "counting": ("count_colorings", "partition_weights", "estimate_partition_work",
                 "partition_polynomial", "rho_max_search"),
    "containers": ("build_rainbow_hypergraph", "materialize_rows", "max_codegrees_from_rows",
                   "structural_max_codegrees", "min_n_for_container", "container_hypothesis_check"),
    "templates": ("count_distinct_choices", "count_rainbow_copies",
                  "count_rainbow_copies_through_triangle"),
    "cleaning": ("clean", "state_graph", "operation1_step", "operation2_step", "critical_sets"),
    "exactmath": ("cmp_value_rpow", "nth_root_interval", "sqrt_interval", "cbrt_interval",
                  "ln_interval", "iv_exact", "iv_add", "iv_mul", "iv_div", "iv_pow", "iv_le"),
    "cli": ("main",),
}
INTERVALS = tuple(f"exactmath.{f}" for f in TRACED["exactmath"] if f != "cmp_value_rpow")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counters = defaultdict(int)
        self.job = None
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.job]
            done = hook(self.counters, args) if hook else None
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if done:
                done(result)
            return result

        return traced

    def install(self):
        """Rebind every traced function in every loaded rtlab namespace.  A
        function the program no longer has is skipped; its metrics read 0."""
        import rtlab.cli  # noqa: F401  (loads every module)
        from rtlab.cache import ResultCache

        modules = [m for k, m in sys.modules.items() if k == "rtlab" or k.startswith("rtlab.")]
        for mod, names in TRACED.items():
            source = sys.modules.get(f"rtlab.{mod}")
            for fname in names:
                original = getattr(source, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod}.{fname}", original, HOOKS.get(f"{mod}.{fname}"))
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        for meth in ("lookup", "store"):
            original = getattr(ResultCache, meth, None)
            if original is not None:
                self._patched.append((ResultCache, meth, original))
                setattr(ResultCache, meth, self._wrap(f"cache.{meth}", original, HOOKS[f"cache.{meth}"]))

    def uninstall(self):
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


# Counters recorded at layer boundaries.  A hook sees the call's arguments
# before the call and returns a function that receives its result.

def _add(key, value):
    def hook(counters, args):
        def done(result):
            counters[key] += value(result)

        return done

    return hook


def _rows(counters, args):
    def done(rows):
        counters["containers.rows"] += len(rows)
        counters["containers.rows_bytes"] += rows.nbytes

    return done


def _cache(counters, args, outcome=None):
    """records_loaded counts the index size after a call that found the
    cache's index unloaded, i.e. the call that read the JSONL file."""
    cache = args[0]
    loads = getattr(cache, "_index", None) is None

    def done(result):
        if loads:
            counters["cache.records_loaded"] += len(getattr(cache, "_index", None) or ())
        if outcome:
            counters[outcome(result)] += 1

    return done


HOOKS = {
    "counting.partition_weights": _add("counting.valid_partitions", sum),
    "counting.estimate_partition_work": _add("counting.work_estimate", int),
    "containers.materialize_rows": _rows,
    "cleaning.clean": _add("cleaning.steps", lambda trace: len(trace.steps)),
    "cache.lookup": lambda counters, args: _cache(
        counters, args, lambda hit: "cache.misses" if hit is None else "cache.hits"
    ),
    "cache.store": _cache,
}


# ---------------------------------------------------------------------------
# Self time.

def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def span_totals(spans):
    """{name: (calls, total_s, self_s)}.  A span's self time is its duration
    minus the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, job) in enumerate(spans):
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - _covered(start, end, children.get(i, ()))
    return {k: tuple(v) for k, v in out.items()}


COUNTERS = ("counting.valid_partitions", "counting.work_estimate", "containers.rows",
            "containers.rows_bytes", "cleaning.steps", "cache.hits", "cache.misses",
            "cache.records_loaded")


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json uses."""
    t = span_totals(spans)
    zero = (0, 0.0, 0.0)
    m = {}
    for name in [f"{mod}.{f}" for mod, fs in TRACED.items() for f in fs]:
        m[f"{name}.calls"], _, m[f"{name}.self_s"] = t.get(name, zero)
    m["exactmath.intervals.self_s"] = sum(m[f"{n}.self_s"] for n in INTERVALS)
    for op in ("lookup", "store"):
        m[f"cache.{op}.total_s"] = t.get(f"cache.{op}", zero)[1]
    m.update({key: counters.get(key, 0) for key in COUNTERS})
    work = m["counting.work_estimate"]
    m["counting.valid_ratio"] = m["counting.valid_partitions"] / work if work else 0.0
    ops = m["cleaning.operation1_step.calls"] + m["cleaning.operation2_step.calls"]
    m["cleaning.fire_ratio"] = m["cleaning.steps"] / ops if ops else 0.0
    return m
