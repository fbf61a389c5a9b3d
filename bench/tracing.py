"""In-memory spans around the package's public functions, and the per-layer metrics.

The tracer replaces every public function of the six library modules with a
wrapper that records one span per call: name, parent span, job id, wall and
process-CPU start and end, and a few work counts read from the arguments or
the result.  Names bound elsewhere (``zeta`` imports ``pseudomagic_polynomial``
and ``evaluate_real`` by name; the package root re-exports everything) are
rebound too, so a call is traced whichever name it goes through.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("counting", "ehrhart", "genfun", "zeta", "euler", "rmt")

# called once per term of every local Euler factor: a span there would trace
# the inner loop rather than the layer boundary
UNTRACED = {"dk_prime_power"}

POLYNOMIAL_FNS = {
    "ehrhart.magic_polynomial",
    "ehrhart.pseudomagic_polynomial",
    "ehrhart.symmetric_even_bounded_polynomials",
}

NAME, PARENT, JOB, T0, T1, C0, C1, INFO = range(8)


def _counts(name, bound, result, prime_count):
    """Work done by one call, read at the boundary."""
    if name == "zeta.divisor_profile":
        return {"tuples": result.total_tuples, "distinct": len(result.counts)}
    if name == "zeta.mv_pseudomoment":
        return {"terms": len(bound.arguments["profile"].counts)}
    if name == "zeta.numeric_moment":
        a = bound.arguments
        return {"grid_terms": (a["steps"] + 1) * a["x"]}
    if name in ("euler.arithmetic_factor_a", "euler.arithmetic_factor_b"):
        return {"primes": prime_count(result.prime_limit)}
    if name.startswith("rmt.") and name.endswith("_mc"):
        return {"samples": result.samples, "threads": bound.arguments.get("threads", 1)}
    return None


COUNTED = {
    "zeta.divisor_profile", "zeta.mv_pseudomoment", "zeta.numeric_moment",
    "euler.arithmetic_factor_a", "euler.arithmetic_factor_b",
    "rmt.secular_abs_moment_mc", "rmt.mixed_moment_mc", "rmt.truncated_poly_moment_mc",
}


class Tracer:
    def __init__(self, prime_count):
        self.spans = []
        self.job = None
        self._stack = []
        self._owner = threading.get_ident()
        self._prime_count = prime_count

    @contextmanager
    def span(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, self.job,
               time.perf_counter(), 0.0, time.process_time(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[T1] = time.perf_counter()
            rec[C1] = time.process_time()
            self._stack.pop()

    def _wrap(self, name, fn):
        sig = inspect.signature(fn) if name in COUNTED else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[INFO] = _counts(name, bound, result, tracer._prime_count)
            return result

        return traced

    def install(self, package: str = "pseudomagic"):
        """Wrap the public functions of each layer and rebind every name that points at one."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans) -> dict:
    """Per-layer busy and self time, call and work counts, derived from the spans."""
    n = len(spans)
    dur = [s[T1] - s[T0] for s in spans]
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    def outermost(i, same):
        return not any(same(spans[a][NAME]) for a in ancestors(i))

    def fn_busy(name):
        return sum(dur[i] for i in range(n)
                   if spans[i][NAME] == name and outermost(i, lambda m: m == name))

    entries = {}  # layer -> spans entering the layer from outside it
    for i, s in enumerate(spans):
        layer = _layer(s[NAME])
        if outermost(i, lambda m: _layer(m) == layer):
            entries.setdefault(layer, []).append(i)

    def busy(layer):
        return sum(dur[i] for i in entries.get(layer, ()))

    def self_time(layer):
        inner = sum(dur[c] for i, s in enumerate(spans) if _layer(s[NAME]) == layer
                    for c in children[i] if _layer(spans[c][NAME]) != layer)
        return busy(layer) - inner

    def info_sum(prefix, key):
        return sum(s[INFO][key] for s in spans
                   if s[NAME].startswith(prefix) and s[INFO] and key in s[INFO])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in ("count_contingency", "count_magic", "count_pseudomagic", "count_pseudomagic_multi",
               "count_symmetric_even"):
        m[f"counting.{fn}.busy_s"] = (fn_busy(f"counting.{fn}"), "s")
    m["counting.calls"] = (len(entries.get("counting", ())), "count")
    m["counting.self_s"] = (self_time("counting"), "s")

    m["ehrhart.busy_s"] = (busy("ehrhart"), "s")
    m["ehrhart.self_s"] = (self_time("ehrhart"), "s")
    polys = sum(1 for s in spans if s[NAME] in POLYNOMIAL_FNS)
    nodes = sum(1 for i, s in enumerate(spans) if _layer(s[NAME]) == "counting"
                and any(_layer(spans[a][NAME]) == "ehrhart" for a in ancestors(i)))
    m["ehrhart.count_nodes"] = (ratio(nodes, polys), "count")

    m["genfun.busy_s"] = (busy("genfun"), "s")
    m["genfun.calls"] = (len(entries.get("genfun", ())), "count")

    prof_busy = fn_busy("zeta.divisor_profile")
    tuples = info_sum("zeta.divisor_profile", "tuples")
    m["zeta.divisor_profile.busy_s"] = (prof_busy, "s")
    m["zeta.divisor_profile.tuples"] = (tuples, "count")
    m["zeta.divisor_profile.tuples_per_s"] = (ratio(tuples, prof_busy), "1/s")
    distinct = info_sum("zeta.divisor_profile", "distinct")
    m["zeta.divisor_profile.distinct_frac"] = (ratio(distinct, tuples), "1")
    m["zeta.mv_pseudomoment.busy_s"] = (fn_busy("zeta.mv_pseudomoment"), "s")
    m["zeta.mv_pseudomoment.terms"] = (info_sum("zeta.mv_pseudomoment", "terms"), "count")
    num_busy = fn_busy("zeta.numeric_moment")
    m["zeta.numeric_moment.busy_s"] = (num_busy, "s")
    m["zeta.numeric_moment.grid_terms_per_s"] = (
        ratio(info_sum("zeta.numeric_moment", "grid_terms"), num_busy), "1/s")
    m["zeta.convergence_ladder.self_s"] = (
        sum(dur[i] - sum(dur[c] for c in children[i])
            for i in range(n) if spans[i][NAME] == "zeta.convergence_ladder"), "s")

    a_busy = fn_busy("euler.arithmetic_factor_a")
    b_busy = fn_busy("euler.arithmetic_factor_b")
    primes = info_sum("euler.", "primes")
    m["euler.arithmetic_factor_a.busy_s"] = (a_busy, "s")
    m["euler.arithmetic_factor_b.busy_s"] = (b_busy, "s")
    m["euler.primes"] = (primes, "count")
    m["euler.us_per_prime"] = (ratio(1e6 * (a_busy + b_busy), primes), "us")

    for fn in ("secular_abs_moment_mc", "mixed_moment_mc", "truncated_poly_moment_mc"):
        m[f"rmt.{fn}.busy_s"] = (fn_busy(f"rmt.{fn}"), "s")
    mc = [i for i in range(n) if spans[i][NAME].startswith("rmt.") and spans[i][INFO]]
    m["rmt.samples"] = (sum(spans[i][INFO]["samples"] for i in mc), "count")
    rates = {}
    for t in (1, 2):
        sel = [i for i in mc if spans[i][INFO]["threads"] == t]
        rates[t] = ratio(sum(spans[i][INFO]["samples"] for i in sel), sum(dur[i] for i in sel))
        m[f"rmt.samples_per_s.t{t}"] = (rates[t], "1/s")
    m["rmt.thread_speedup"] = (ratio(rates[2], rates[1]), "1")
    rmt_top = entries.get("rmt", ())
    m["rmt.cpu_util"] = (ratio(sum(spans[i][C1] - spans[i][C0] for i in rmt_top),
                               sum(dur[i] for i in rmt_top)), "1")
    m["rmt.target_s"] = (sum(dur[i] for i in range(n) if _layer(spans[i][NAME]) == "counting"
                             and spans[i][PARENT] >= 0
                             and _layer(spans[spans[i][PARENT]][NAME]) == "rmt"), "s")
    m["trace.spans"] = (n, "count")
    return m
