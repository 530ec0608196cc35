"""Span tracing of the treewalks layers, from outside the library.

Run as a script, this is a traced ``treewalks`` CLI:

    python3 perfbench/spantrace.py SPANS.json verify injections --max-n 7 --max-len 5

It wraps the public functions listed in ``TRACED`` in every treewalks module
namespace that binds them (``verify`` imports ``count_closed_walks`` by name,
for example), runs ``treewalks.cli.main`` in-process with the given
arguments, and writes the aggregated spans and boundary counts to
SPANS.json.  Standard output is the CLI's own, byte for byte.

Spans are not kept one by one: ``decode_word`` alone runs ~10^5-10^6 times
per command.  Each span is folded on close into a (name, parent name) row
of call count, total time and self time, where self time is the span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACED = {
    "trees": ("tree", "canonical_code", "distances_from", "tree_path"),
    "generate": ("enumerate_free_trees",),
    "walks": ("count_closed_walks", "count_walks", "count_ell_paths", "enumerate_walks", "wiener"),
    "transforms": ("bare_paths", "kc_transform", "dc_transform", "valency"),
    "words": (
        "build_context", "encode_walk", "decode_word", "classify", "words_of",
        "f_map", "g_even", "g_odd", "g_total", "h_map",
    ),
    "verify": (
        "verify_closed_extremal", "verify_kc_monotone", "verify_path_extremal",
        "verify_injections", "build_counterexample", "dc_reduce",
        "report_to_csv", "report_to_json",
    ),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
SWEEPS = ("verify.verify_closed_extremal", "verify.verify_kc_monotone",
          "verify.verify_path_extremal", "verify.verify_injections")

# Boundary counters and ratios reported next to calls and self time, with
# (unit, which direction is better).
COUNT_SPECS = {
    "trees.canonical_code.hit_ratio": ("ratio", "higher"),
    "generate.enumerate_free_trees.trees": ("count", "higher"),
    "generate.built_per_free": ("ratio", "lower"),
    "walks.count_closed_walks.odd_calls": ("count", "lower"),
    "walks.enumerate_walks.walks": ("count", "lower"),
    "transforms.bare_paths.found_ratio": ("ratio", "higher"),
    "words.words_of.words": ("count", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_per_s": ("1/s", "higher"),
    "cli.stdout_bytes": ("bytes", "lower"),
}
TRACE_METRICS = ("trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.unattributed_s")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNT_SPECS) + list(TRACE_METRICS)


def metric_spec(name: str) -> tuple[str, str]:
    """(unit, which direction is better) of a per-layer metric."""
    if name in COUNT_SPECS:
        return COUNT_SPECS[name]
    if name.endswith(".calls"):
        return "count", "lower"
    return "s", "lower"


class Tracer:
    """Folds properly nested spans into rows keyed by (name, parent name)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.rows: dict[tuple, list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[0]
        row = self.rows.get((name, parent))
        if row is None:
            self.rows[(name, parent)] = [1, duration, duration - covered]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        opener, closer = self.open, self.close

        def traced(*args, **kwargs):
            opener(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _length_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["length"]


# Counts taken at the boundary of the function that does the work.
OBSERVERS = {
    "generate.enumerate_free_trees": lambda tr, a, k, r: tr.add("enumerate.trees", len(r)),
    "walks.count_closed_walks": lambda tr, a, k, r: tr.add("closed.odd_calls", _length_arg(a, k) % 2),
    "walks.enumerate_walks": lambda tr, a, k, r: tr.add("enumerate_walks.walks", len(r)),
    "transforms.bare_paths": lambda tr, a, k, r: (
        tr.add("bare_paths.found", len(r)), tr.add("bare_paths.pairs", a[0].n * (a[0].n - 1) // 2)
    ),
    "words.words_of": lambda tr, a, k, r: tr.add("words_of.words", len(r)),
}
OBSERVERS.update(dict.fromkeys(SWEEPS, lambda tr, a, k, r: tr.add("verify.checks", len(r.checks))))


def install(tracer: Tracer) -> dict:
    """Wrap every traced function wherever a treewalks module binds it.
    Returns the original functions by span name."""
    modules = {m: importlib.import_module(f"treewalks.{m}") for m in TRACED}
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "treewalks" or name.startswith("treewalks.")]
    originals = {}
    for mod_name, fns in TRACED.items():
        for fn_name in fns:
            span = f"{mod_name}.{fn_name}"
            orig = getattr(modules[mod_name], fn_name)
            wrapper = tracer.wrap(span, orig, OBSERVERS.get(span))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)
            originals[span] = orig
    return originals


def merge(dumps: list[dict]) -> dict:
    """Sum the span rows, counters and cache statistics of several traced
    processes."""
    rows: dict[tuple, list] = {}
    counts: dict[str, int] = {}
    cache = {"hits": 0, "misses": 0}
    for dump in dumps:
        for name, parent, calls, total, self_s in dump["rows"]:
            row = rows.setdefault((name, parent), [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key in cache:
            cache[key] += dump["cache"][key]
    return {"rows": rows, "counts": counts, "cache": cache}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict, stdout_bytes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced repetition.  A ratio whose base is 0
    (the layer did not run) reads 0.  Self times plus ``trace.unattributed_s``
    add up to ``trace.traced_wall_s``: the remainder is interpreter start-up,
    imports, patching and the wrappers' own cost outside any span."""
    rows, counts, cache = merged["rows"], merged["counts"], merged["cache"]
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    total_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for (name, _parent), (n, total, own) in rows.items():
        calls[name] += n
        total_s[name] += total
        self_s[name] += own
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    free = counts.get("enumerate.trees", 0)
    built = rows.get(("trees.tree", "generate.enumerate_free_trees"), [0])[0]
    checks = counts.get("verify.checks", 0)
    out.update({
        "trees.canonical_code.hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "generate.enumerate_free_trees.trees": free,
        "generate.built_per_free": _ratio(built, free),
        "walks.count_closed_walks.odd_calls": counts.get("closed.odd_calls", 0),
        "walks.enumerate_walks.walks": counts.get("enumerate_walks.walks", 0),
        "transforms.bare_paths.found_ratio": _ratio(counts.get("bare_paths.found", 0), counts.get("bare_paths.pairs", 0)),
        "words.words_of.words": counts.get("words_of.words", 0),
        "verify.checks": checks,
        "verify.checks_per_s": _ratio(checks, sum(total_s[s] for s in SWEEPS)),
        "cli.stdout_bytes": stdout_bytes,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(self_s.values()),
    })
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    originals = install(tracer)
    cli = sys.modules["treewalks.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        info = originals["trees.canonical_code"].cache_info()
        dump = {
            "rows": [[name, parent, *row] for (name, parent), row in tracer.rows.items()],
            "counts": tracer.counts,
            "cache": {"hits": info.hits, "misses": info.misses},
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
