"""Span tracer for the traced run and the per-layer metrics computed from it.

The layers are the package modules. Each public function (a function named in
a module's __all__ and defined there) is wrapped once, and the wrapper is bound
in every namespace of the package that binds the original, so calls through
from-imports (cli, weak_test, grouped_sim) and through module globals
(chisq_quantile -> chisq_cdf) are both seen. Spans are kept in memory as
tuples (id, parent id, pass, name, start_ns, end_ns, raised) and written out
at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "data", "estimators", "fstats", "weak_test", "distributions",
          "grouped_sim")

ID, PARENT, PASS, NAME, START, END, RAISED = range(7)

# Inclusive seconds and call counts of these functions are reported.
FUNCTIONS = (
    "data.load_csv", "data.partial_out",
    "estimators.estimate_moment_cov", "estimators.residual_cov",
    "weak_test.worst_case_bias", "weak_test.weak_iv_test",
    "distributions.chisq_quantile", "distributions.chisq_cdf",
    "grouped_sim.run_sim",
)
# Per-call latency percentiles, pooled over every traced pass of a run.
PERCENTILES = (
    ("weak_test.worst_case_bias", (50, 99)),
    ("distributions.chisq_quantile", (50, 99)),
    ("distributions.chisq_cdf", (50,)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            raised = False
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.pass_id, name, start, end, raised)

        return traced

    @contextmanager
    def installed(self, package="weakiv"):
        """Bind traced wrappers in place of the public functions for the
        duration of the block; the originals are restored afterwards."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,pass,name,start_ns,end_ns,raised\n")
            for s in self.spans:
                fh.write(",".join(str(int(v) if isinstance(v, bool) else v)
                                  for v in s) + "\n")


def self_times(spans):
    """Self time of each span in ns: its duration minus its children's.
    Calls are single-threaded, so children never overlap each other."""
    child = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return {s[ID]: s[END] - s[START] - child[s[ID]] for s in spans}


def layer_of(name):
    return name.split(".", 1)[0]


def pass_metrics(spans, reps):
    """Per-layer metrics of one traced pass over `reps` replications."""
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    out = {}
    layer_self = defaultdict(int)
    layer_calls = defaultdict(int)
    layer_errors = defaultdict(int)
    fn_total = defaultdict(int)
    fn_calls = defaultdict(int)
    fn_self = defaultdict(int)
    cdf_in_quantile = 0
    for s in spans:
        layer = layer_of(s[NAME])
        parent = by_id.get(s[PARENT])
        layer_self[layer] += own[s[ID]]
        layer_calls[layer] += 1
        fn_total[s[NAME]] += s[END] - s[START]
        fn_calls[s[NAME]] += 1
        fn_self[s[NAME]] += own[s[ID]]
        # an error counts once, where it leaves the layer
        if s[RAISED] and (parent is None or layer_of(parent[NAME]) != layer):
            layer_errors[layer] += 1
        if (s[NAME] == "distributions.chisq_cdf" and parent is not None
                and parent[NAME] == "distributions.chisq_quantile"):
            cdf_in_quantile += 1
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    for name in FUNCTIONS:
        out[f"{name}.s"] = fn_total[name] / 1e9
        out[f"{name}.calls"] = fn_calls[name]
    for layer in ("data", "estimators", "weak_test", "distributions"):
        out[f"{layer}.errors"] = layer_errors[layer]
    out["fstats.calls"] = layer_calls["fstats"]
    out["weak_test.critical_value.self_s"] = fn_self["weak_test.critical_value"] / 1e9
    quantiles = fn_calls["distributions.chisq_quantile"]
    out["distributions.cdf_per_quantile"] = cdf_in_quantile / quantiles if quantiles else 0.0
    out["grouped_sim.self_us_per_rep"] = (
        layer_self["grouped_sim"] / 1e3 / reps if fn_calls["grouped_sim.run_sim"] else 0.0
    )
    out["trace.self_sum_s"] = sum(own.values()) / 1e9
    return out


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latency_metrics(spans):
    """Per-call latency percentiles in microseconds, over all given spans."""
    durations = defaultdict(list)
    for s in spans:
        durations[s[NAME]].append((s[END] - s[START]) / 1e3)
    out = {}
    for name, qs in PERCENTILES:
        for q in qs:
            out[f"{name}.p{q}_us"] = percentile(durations[name], q)
    return out, {name: len(durations[name]) for name, _ in PERCENTILES}


def median_of_passes(per_pass):
    """Median over passes of each time metric; counts come from the first pass,
    since the same inputs give the same counts on every pass."""
    first = per_pass[0]
    return {
        key: (statistics.median(p[key] for p in per_pass)
              if isinstance(value, float) else value)
        for key, value in first.items()
    }
