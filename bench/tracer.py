"""Outside-in tracing of the library's public functions.

The tracer rebinds each traced name in every loaded ``stallings_fta`` module
that holds it (``enriched.canonical_renumber`` as well as
``words.canonical_renumber``), so calls made inside the library are seen
too.  Spans carry the op id and the parent span; self time is a span's
duration minus the time covered by its child spans.  Counts that the
library does not report are read from the arguments and results of the
wrapped calls.  Leaving the ``with`` block restores every name.
"""

from __future__ import annotations

import csv
import gzip
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "stallings_fta"

# module -> traced public functions ("Class.method" for methods)
TARGETS = {
    "syntax": ("parse_element",),
    "words": (
        "recognizes",
        "canonical_renumber",
        "spanning_tree_by_order",
        "product_with_provenance",
        "word_coordinates",
    ),
    "enriched": ("enriched_flower", "reduce", "normalize", "basis", "member"),
    "abelian": (
        "hnf",
        "kernel",
        "solve_left",
        "snf",
        "preimage_under_matrix",
        "coset_intersection_witness",
        "AbelianSubgroup.intersect",
        "AbelianSubgroup.reduce_mod",
        "AbelianSubgroup.contains",
    ),
    "intersection": (
        "doubly_enriched_product",
        "normalize_doubly",
        "intersection_matrices",
        "cayley_multidigraph",
        "vertex_expand",
        "doubly_reduce",
        "equalize",
        "intersect_fg",
        "intersect_stages",
    ),
}
STAGE = "intersection.stage"  # one next() of the iterator intersect_stages returns
OP = "op"  # the benchmark's own code around the calls
MAX_SPANS = 100_000  # spans kept for the span file; later ones are only counted
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns) + (STAGE, OP)

# counts per op, read off the wrapped calls' arguments and results
COUNTS = (
    "words.product.raw_vertices",
    "enriched.flower.arcs",
    "enriched.reduce.arcs_out",
    "abelian.snf.cells",
    "intersection.r",
    "intersection.s",
    "intersection.product.core_vertices",
    "intersection.cayley.vertices",
    "intersection.expand.arcs",
    "intersection.doubly_reduce.arcs_removed",
    "intersection.stage.new_petals",
)


@dataclass
class OpTrace:
    """What one traced op did: per span name, self and inclusive seconds and calls."""

    total: float = 0.0
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    reduce_samples: list = field(default_factory=list)  # (flower arcs, seconds)
    snf_samples: list = field(default_factory=list)  # (columns, seconds)
    stage_samples: list = field(default_factory=list)  # (radius, seconds)


class Tracer:
    """Install with ``with tracer:``; wrap each op in ``with tracer.op():``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, span, parent, name, start, end)
        self.dropped = 0
        self.ops: list[OpTrace] = []
        self._stack: list[int] = []
        self._child_time: dict[int, float] = {}
        self._next_span = 0
        self._current: OpTrace | None = None
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every rebinding."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []
        for mod, fns in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig, self._wrap(name, orig)))
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            patches.append((m, attr, orig, wrapper))
        return patches

    def __enter__(self) -> "Tracer":
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, orig, _ in self._patches:
            setattr(ns, attr, orig)

    # spans -----------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_span
        self._next_span += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float, end: float) -> float:
        self._stack.pop()
        dur = end - start
        op = self._current
        op.self_s[name] += dur - self._child_time.pop(sid, 0.0)
        op.incl_s[name] += dur
        op.calls[name] += 1
        if parent >= 0:
            self._child_time[parent] = self._child_time.get(parent, 0.0) + dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((len(self.ops), sid, parent, name, start, end))
        else:
            self.dropped += 1
        return dur

    @contextmanager
    def op(self):
        """Root span of one op; its self time is the benchmark's own glue."""
        self._current = OpTrace()
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield self._current
        finally:
            end = time.perf_counter()
            self._current.total = self._close(sid, parent, OP, start, end)
            self.ops.append(self._current)
            self._current = None

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._current is None:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = tracer._close(sid, parent, name, start, end)
            if hook is not None:
                result = hook(tracer, tracer._current, args, kwargs, result, dur)
            return result

        return traced

    def _traced_stages(self, stages):
        """Time each next() of the stage iterator as one STAGE span."""
        while True:
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                stage = next(stages)
            except StopIteration:
                self._close(sid, parent, STAGE, start, time.perf_counter())
                return
            except BaseException:
                self._close(sid, parent, STAGE, start, time.perf_counter())
                raise
            dur = self._close(sid, parent, STAGE, start, time.perf_counter())
            op = self._current
            op.counts["intersection.stage.new_petals"] += len(stage.new_elements)
            op.stage_samples.append((stage.radius, dur))
            yield stage

    # results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Spans as gzip CSV: op, span, parent, name, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("op", "span", "parent", "name", "start_s", "end_s"))
            out.writerows(self.spans)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over all traced ops: name -> (value, unit)."""
        ops = self.ops
        n = max(len(ops), 1)
        total = sum(op.total for op in ops) or 1.0
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_pct"] = (100.0 * sum(op.self_s[name] for op in ops) / total, "%")
            out[f"{name}.calls"] = (sum(op.calls[name] for op in ops) / n, "count")

        def summed(key):
            return sum(op.counts[key] for op in ops)

        for key in COUNTS:
            out[key] = (summed(key) / n, "count")
        arcs_in = summed("enriched.reduce.arcs_in")
        out["enriched.reduce.kept_ratio"] = (
            summed("enriched.reduce.arcs_out") / arcs_in if arcs_in else 0.0, "ratio")
        raw = summed("words.product.raw_vertices")
        out["intersection.product.core_ratio"] = (
            summed("intersection.product.core_vertices") / raw if raw else 0.0, "ratio")
        out["enriched.reduce.growth_exp"] = (
            log_log_slope([s for op in ops for s in op.reduce_samples]), "slope")
        out["abelian.snf.growth_exp"] = (
            log_log_slope([s for op in ops for s in op.snf_samples]), "slope")
        stage_slopes = sorted(_late_stage_slope(op.stage_samples) for op in ops if op.stage_samples)
        out["intersection.stage.growth_exp"] = (
            stage_slopes[len(stage_slopes) // 2] if stage_slopes else 0.0, "slope")
        return out

    def inclusive_share(self, names, of) -> float:
        """Share of the inclusive time of `of` spent in spans `names` (in %)."""
        whole = sum(op.total if of == OP else op.incl_s[of] for op in self.ops)
        part = sum(op.incl_s[name] for op in self.ops for name in names)
        return 100.0 * part / whole if whole else 0.0


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Inclusive shares (in %) that show which layer each workload stresses."""
    ops = tracer.ops
    verdict = "intersection.intersection_matrices"
    after_verdict = sum(op.total - op.incl_s[verdict] for op in ops)
    expansion = ("intersection.cayley_multidigraph", "intersection.vertex_expand",
                 "intersection.doubly_reduce", "intersection.equalize")
    part = sum(op.incl_s[name] for op in ops for name in expansion)
    folds = sum(op.calls["enriched.reduce"] + op.calls["enriched.enriched_flower"] for op in ops)
    return {
        "enriched.reduce of op": tracer.inclusive_share(["enriched.reduce"], OP),
        "snf + preimage_under_matrix of verdict": tracer.inclusive_share(
            ["abelian.snf", "abelian.preimage_under_matrix"], verdict),
        "cayley + expand + doubly_reduce + equalize of the steps after the verdict":
            100.0 * part / after_verdict if after_verdict else 0.0,
        "stages of op": tracer.inclusive_share([STAGE], OP),
        "flower + reduce calls per op": folds / max(len(ops), 1),
    }


def self_ms_p50(tracer: Tracer) -> dict[str, float]:
    """Median self time per op (ms) of every span name that ran."""
    out = {}
    for name in SPAN_NAMES:
        if any(op.calls[name] for op in tracer.ops):
            out[name] = 1e3 * sorted(op.self_s[name] for op in tracer.ops)[len(tracer.ops) // 2]
    return out


def _late_stage_slope(samples) -> float:
    """Slope over the last three quarters of the radii, where stage cost is measurable."""
    top = max(r for r, _ in samples)
    return log_log_slope([(r, t) for r, t in samples if 4 * r >= top])


def log_log_slope(samples) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 without spread."""
    pts = [(math.log(x), math.log(y)) for x, y in samples if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# counts read off the wrapped calls ----------------------------------------

def _product(tracer, op, args, kwargs, result, dur):
    op.counts["words.product.raw_vertices"] += result[0].num_vertices
    return result


def _flower(tracer, op, args, kwargs, result, dur):
    op.counts["enriched.flower.arcs"] += len(result.skeleton.arcs)
    return result


def _reduce(tracer, op, args, kwargs, result, dur):
    arcs_in = len(args[0].skeleton.arcs)
    op.counts["enriched.reduce.arcs_in"] += arcs_in
    op.counts["enriched.reduce.arcs_out"] += len(result.skeleton.arcs)
    op.reduce_samples.append((arcs_in, dur))
    return result


def _snf(tracer, op, args, kwargs, result, dur):
    rows = args[0]
    width = kwargs.get("width", args[1] if len(args) > 1 else None)
    if width is None:
        width = len(rows[0]) if rows else 0
    op.counts["abelian.snf.cells"] += len(rows) * width
    op.snf_samples.append((width, dur))
    return result


def _matrices(tracer, op, args, kwargs, result, dur):
    op.counts["intersection.r"] = result.r
    op.counts["intersection.s"] = result.s
    return result


def _doubly_product(tracer, op, args, kwargs, result, dur):
    op.counts["intersection.product.core_vertices"] += result.skeleton.num_vertices
    return result


def _cayley(tracer, op, args, kwargs, result, dur):
    op.counts["intersection.cayley.vertices"] += result[0].num_vertices
    return result


def _expand(tracer, op, args, kwargs, result, dur):
    op.counts["intersection.expand.arcs"] += len(result.skeleton.arcs)
    return result


def _doubly_reduce(tracer, op, args, kwargs, result, dur):
    removed = len(args[0].skeleton.arcs) - len(result.skeleton.arcs)
    op.counts["intersection.doubly_reduce.arcs_removed"] += removed
    return result


def _stages(tracer, op, args, kwargs, result, dur):
    report, stages = result
    return report, tracer._traced_stages(stages)


_HOOKS = {
    "words.product_with_provenance": _product,
    "enriched.enriched_flower": _flower,
    "enriched.reduce": _reduce,
    "abelian.snf": _snf,
    "intersection.intersection_matrices": _matrices,
    "intersection.doubly_enriched_product": _doubly_product,
    "intersection.cayley_multidigraph": _cayley,
    "intersection.vertex_expand": _expand,
    "intersection.doubly_reduce": _doubly_reduce,
    "intersection.intersect_stages": _stages,
}
