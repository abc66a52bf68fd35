"""Spans and counters around ffkakeya's layers, installed from outside.

Tracer.install() replaces the public functions of each layer module, in
every module namespace that imported them, by wrappers that record a span
(name, start, end, parent, tag).  The dense-table properties of Fq get
spans too.  The scalar Fq.add/sub/mul on extension fields are only counted
and timed, since they run millions of times.  Spans stay in memory; the
worker writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import tracemalloc
import weakref
from time import perf_counter

import numpy as np

LAYERS = ("field", "geometry", "constructions", "verification", "search", "cli")
TABLES = ("add_table", "sub_table", "mul_table", "neg_arr", "inv_arr",
          "sq_arr", "char_arr")
SCALAR_OPS = ("add", "sub", "mul")

NAME, START, END, PARENT, TAG = range(5)


def _scan_pairs(args, kwargs, result):
    """space x complement of an exhaustive scan; None in witness mode."""
    witness = args[1] if len(args) > 1 else kwargs.get("witness")
    if witness is not None:
        return None
    mask = args[0].mask
    return int(mask.size) * int(mask.size - np.count_nonzero(mask))


_TAGS = {
    "sum_profile": lambda args, kwargs, result: int(result.size),
    "verify_radius_kakeya": _scan_pairs,
    "verify_center_kakeya": _scan_pairs,
    "greedy_circular": lambda args, kwargs, result: result.nodes,
    "minimal_circular_exact": lambda args, kwargs, result: result.nodes,
}


class NullTracer:
    """Tracing off: spans cost one context manager."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name, tag=None):
        yield [name, 0.0, 0.0, -1, tag]


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self.since = 0      # first span after set-up
        self.paused = False  # no spans while table_alloc_mb measures
        self.built = []     # (field, table name) built after set-up, weakly held

    @contextlib.contextmanager
    def span(self, name, tag=None):
        if self.paused:
            yield [name, 0.0, 0.0, -1, tag]
            return
        idx = len(self.spans)
        entry = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, tag]
        self.spans.append(entry)
        self._stack.append(idx)
        try:
            yield entry
        finally:
            self._stack.pop()
            entry[END] = perf_counter()

    def _wrap(self, name, fn, tag_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as entry:
                result = fn(*args, **kwargs)
            if tag_fn is not None:
                entry[TAG] = tag_fn(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module("ffkakeya")
        modules = [pkg] + [importlib.import_module(f"ffkakeya.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or home.rpartition(".")[2] not in LAYERS
                        or not home.startswith("ffkakeya.")):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(f"{home.rpartition('.')[2]}.{obj.__name__}",
                                              obj, _TAGS.get(obj.__name__))
                setattr(mod, name, wrapped[obj])
        self._install_field(importlib.import_module("ffkakeya.field").Fq)

    def mark(self) -> None:
        """Set-up is over: table memory counts builds from here on."""
        self.since = len(self.spans)
        self.built.clear()

    def _install_field(self, Fq) -> None:
        def tag(args, kwargs, result, name):
            if not self.paused:
                self.built.append((weakref.ref(args[0]), name))
            return args[0].p, args[0].k

        for name in TABLES:
            prop = Fq.__dict__[name]
            traced = functools.cached_property(self._wrap(
                f"field.{name}", prop.func, functools.partial(tag, name=name)))
            traced.__set_name__(Fq, name)
            setattr(Fq, name, traced)
        for name in SCALAR_OPS:
            setattr(Fq, name, self._counted(getattr(Fq, name)))

    def _counted(self, op):
        @functools.wraps(op)
        def counted(field, a, b):
            if field.k == 1:
                return op(field, a, b)
            t = perf_counter()
            result = op(field, a, b)
            self.scalar_s += perf_counter() - t
            self.scalar_calls += 1
            return result
        return counted

    # ---- metrics ----

    def table_alloc_mb(self) -> float:
        """tracemalloc peak while a fresh instance of the largest field
        whose tables the passes built builds every dense table."""
        seen = [s[TAG] for s in self.spans[self.since:] if s[NAME] in _TABLE_SPANS]
        if not seen:
            return 0.0
        p, k = max(seen, key=lambda pk: pk[0] ** pk[1])
        Fq = importlib.import_module("ffkakeya.field").Fq
        self.paused = True  # the span list's growth would vary the peak
        tracemalloc.start()
        try:
            field = Fq(p, k)
            for name in TABLES:
                getattr(field, name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self.paused = False
        return peak / 2 ** 20

    def layer_metrics(self, windows) -> dict:
        """Median over the warm passes of each per-layer metric, with the
        table memory measured once at the end."""
        per_pass = [pass_metrics(self.spans, *w) for w in windows]
        out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        out["field.table_mb"] = self.table_mb()
        out["field.table_alloc_mb"] = self.table_alloc_mb()
        return out

    def table_mb(self) -> float:
        """Bytes of the tables the passes built that are still held."""
        held = {(id(f), name): vars(f)[name].nbytes
                for ref, name in self.built if (f := ref()) is not None}
        return sum(held.values()) / 2 ** 20


_TABLE_SPANS = frozenset(f"field.{t}" for t in TABLES)
_SIMPLE_MS = {  # metric -> the span names whose outermost time it sums
    "geometry.norm_profile_ms": {"geometry.norm_profile"},
    "geometry.sphere_points_ms": {"geometry.sphere_points"},
    "geometry.hypersphere_points_ms": {"geometry.hypersphere_points"},
    "geometry.count_bruteforce_ms": {"geometry.diagonal_count_bruteforce"},
    "constructions.radius_spherical_ms": {"constructions.radius_spherical"},
    "constructions.center_spherical_ms": {"constructions.center_spherical"},
    "constructions.hypersphere_union_ms": {"constructions.hypersphere_union"},
    "constructions.circular_ms": {"constructions.circular_prime",
                                  "constructions.circular_square",
                                  "constructions.circular_odd_power"},
    "verification.witness_ms": {"verification.witness_valid"},
    "verification.intersection_lemma_ms": {"verification.verify_intersection_lemma"},
    "verification.cover_ms": {"verification.diff_cover", "verification.sum_cover"},
    "search.greedy_ms": {"search.greedy_circular"},
    "search.exact_ms": {"search.minimal_circular_exact"},
}
_EXHAUSTIVE = {"verification.verify_radius_kakeya", "verification.verify_center_kakeya"}


def pass_metrics(spans, lo: int, hi: int, scalar_calls: int, scalar_s: float) -> dict:
    """Per-layer metrics of the spans spans[lo:hi], one pass of the cases."""
    window = range(lo, hi)
    dur = {i: spans[i][END] - spans[i][START] for i in window}
    child = dict.fromkeys(window, 0.0)
    for i in window:
        if spans[i][PARENT] >= lo:
            child[spans[i][PARENT]] += dur[i]

    def outer_s(names, pred=lambda s: True):
        """Summed time of the spans in the group not nested in another."""
        total = 0.0
        for i in window:
            if spans[i][NAME] in names and pred(spans[i]):
                p = spans[i][PARENT]
                while p >= lo and not (spans[p][NAME] in names and pred(spans[p])):
                    p = spans[p][PARENT]
                if p < lo:
                    total += dur[i]
        return total

    def named(name):
        return [i for i in window if spans[i][NAME] == name]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {
        "field.tables_ext_ms": 1e3 * outer_s(_TABLE_SPANS, lambda s: s[TAG][1] > 1),
        "field.tables_prime_ms": 1e3 * outer_s(_TABLE_SPANS, lambda s: s[TAG][1] == 1),
        "field.scalar_ops_per_s": rate(scalar_calls, scalar_s),
    }
    for metric, names in _SIMPLE_MS.items():
        m[metric] = 1e3 * outer_s(names)
    profiles = named("geometry.sum_profile")
    m["geometry.sum_profile_calls"] = len(profiles)
    m["geometry.points_per_s"] = rate(sum(spans[i][TAG] for i in profiles),
                                      sum(dur[i] for i in profiles))
    m["constructions.self_ms"] = 1e3 * sum(
        dur[i] - child[i] for i in window if spans[i][NAME].startswith("constructions."))
    scans = [i for i in window if spans[i][NAME] in _EXHAUSTIVE and spans[i][TAG] is not None]
    scan_pairs = sum(spans[i][TAG] for i in scans)
    exhaustive_s = outer_s(_EXHAUSTIVE, lambda s: s[TAG] is not None)
    m["verification.exhaustive_ms"] = 1e3 * exhaustive_s
    m["verification.scan_pairs"] = scan_pairs
    m["verification.scan_pairs_per_s"] = rate(scan_pairs, exhaustive_s)
    searches = named("search.greedy_circular") + named("search.minimal_circular_exact")
    nodes = sum(spans[i][TAG] for i in searches)
    m["search.nodes"] = nodes
    m["search.nodes_per_s"] = rate(nodes, sum(dur[i] for i in searches))
    calls = named("cli.invocation")
    m["cli.invocation_ms"] = 1e3 * statistics.median(dur[i] for i in calls) if calls else 0.0
    m["cli.output_bytes"] = sum(spans[i][TAG] for i in calls)
    return m
