"""Benchmark of stallings_fta: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload build --seed 1 --seconds 25 --trace 0

Builds the library from ``src/`` of the checkout this file sits in, checks
the paper cases, sets up three times (``setup_s`` is the import time plus
the median setup), then visits the workload's items in passes until
``--seconds`` have passed.  Every answer is checked against its
by-construction value.  The host's speed drifts by tens of percent within
seconds, so every time is scaled by a calibration loop run next to it, and
each item contributes the median of its visits.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end with ``--trace 0``; per-layer with ``--trace 1``, where each op
runs once untraced and once traced on the same input).  The line before it
holds details: tail percentile, item and pass counts, failed ratio, the
unscaled setup, calibration and all-visit wall and thread CPU times, and in
the traced run the overhead, layer shares and span file.  Exit status: 0
when every answer checks, 1 when one does not, 2 when the library or the
paper cases cannot be loaded or verified.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
CAL_UNITS = 10  # fixed-loop runs per calibration block
CAL_EVERY_S = 0.01  # op time between calibration blocks
UNIT_REF_S = 50e-6  # scaled times read as seconds on a host where the loop takes this


def load_library():
    """Import stallings_fta from this checkout's src/ and nowhere else; None if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stallings_fta
    except ImportError as exc:
        print(f"bench: cannot import stallings_fta from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(stallings_fta.__file__).resolve().is_relative_to(src):
        print(f"bench: stallings_fta came from {stallings_fta.__file__}, not {src}",
              file=sys.stderr)
        return None
    return stallings_fta


def tail(sorted_values):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it,
    but no higher than p99: past that, single stalls of the machine set the value."""
    n = len(sorted_values)
    i = max(min(n - 11, math.ceil(0.99 * n) - 1), 0)
    return sorted_values[i], 100.0 * (i + 1) / n


def _unit() -> int:
    """A fixed pure-Python loop, the yardstick of the host's current speed."""
    d, s = {}, 0
    for i in range(600):
        d[i & 63] = s
        s += i * i
    return s


def calibrate() -> float:
    """Median seconds of CAL_UNITS runs of the fixed loop."""
    times = []
    for _ in range(CAL_UNITS):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, items, seconds, tracer=None):
    """Visit `items` in passes until `seconds` have passed.

    Every answer is checked; a wrong answer or an exception counts as a
    failed op.  A calibration block runs after every CAL_EVERY_S of op
    time; each op's times are scaled by UNIT_REF_S over the mean of the
    blocks on either side of it, so they read as seconds on a host where
    the fixed loop takes UNIT_REF_S.  "visits" holds, per item, the scaled
    (op, first step, last step) times of its checked visits; "wall" and
    "cpu" keep every visit's unscaled wall and thread CPU time.  With a
    tracer, each op also runs traced on the same input and the two answers
    must be equal.
    """
    out = {"visits": [[] for _ in items], "wall": [], "cpu": [], "traced": [],
           "errors": [], "attempted": 0, "failed": 0}
    pending = []  # (item, first, last) of the ops since the last calibration block
    before = calibrate()

    def flush():
        nonlocal before
        after = calibrate()
        scale = 2 * UNIT_REF_S / (before + after)
        for i, t_first, t_last in pending:
            out["visits"][i].append(((t_first + t_last) * scale, t_first * scale, t_last * scale))
        pending.clear()
        before = after

    deadline = time.perf_counter() + seconds
    while out["attempted"] == 0 or time.perf_counter() < deadline:
        i = out["attempted"] % len(items)
        out["attempted"] += 1
        try:
            c0 = time.thread_time()
            answer, t_first, t_last = workload.op(items[i])
            cpu = time.thread_time() - c0
            workload.check(items[i], answer)
            if tracer is not None:
                with tracer, tracer.op() as op_trace:
                    traced_answer = workload.op(items[i])[0]
                out["traced"].append((op_trace.total, t_first + t_last))
                if traced_answer != answer:
                    raise AssertionError("traced answer differs from untraced answer")
        except Exception as exc:  # a wrong or failed op is counted, not fatal
            out["failed"] += 1
            if len(out["errors"]) < 3:
                out["errors"].append(f"{type(exc).__name__}: {exc}")
            continue
        pending.append((i, t_first, t_last))
        out["wall"].append(t_first + t_last)
        out["cpu"].append(cpu)
        if sum(f + la for _, f, la in pending) >= CAL_EVERY_S:
            flush()
    if pending:
        flush()
    out["passes"] = out["attempted"] / len(items)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if load_library() is None:
        return 2
    import preflight
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - START

    mismatches = preflight.run()
    if mismatches:
        print("bench: paper cases disagree:\n  " + "\n  ".join(mismatches), file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    speeds = [calibrate()]
    setups, items = [], None
    for _ in range(SETUP_REPS):
        items = None  # one setup's data alive at a time
        gc.collect()
        t0 = time.perf_counter()
        items = workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)
        speeds.append(calibrate())
    scaled_setups = [2 * t * UNIT_REF_S / (a + b) for t, a, b in zip(setups, speeds, speeds[1:])]
    setup_s = import_s * UNIT_REF_S / speeds[0] + statistics.median(scaled_setups)
    # the setup data stays alive for the whole run; keep collections off it
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    res = measure(workload, items, args.seconds, tracer)

    # each item's typical visit: the median of its scaled times, per column
    typical = [tuple(map(statistics.median, zip(*v))) for v in res["visits"] if v]
    op, first, last = (sorted(col) for col in zip(*typical)) if typical else ([], [], [])
    detail = {
        "workload": args.workload, "seed": args.seed, "items": len(items),
        "passes": round(res["passes"], 2), "failed_ratio": res["failed"] / res["attempted"],
        "steps": dict(zip(("first", "last"), workload.steps)), "errors": res["errors"],
        "import_s": import_s, "setups_s": setups, "calibration_s": speeds,
    }
    if typical:
        tail_value, tail_pct = tail(op)
        detail.update({
            "tail_percentile": round(tail_pct, 2),
            "all_visits_wall_p50_ms": 1e3 * statistics.median(res["wall"]),
            "all_visits_cpu_p50_ms": 1e3 * statistics.median(res["cpu"]),
        })
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(op), "ms"),
            "op_tail_ms": (1e3 * tail_value, "ms"),
            "ops_per_s": (len(op) / sum(op), "1/s"),
            "first_step_p50_ms": (1e3 * statistics.median(first), "ms"),
            "last_step_p50_ms": (1e3 * statistics.median(last), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        } if typical else {}
    else:
        metrics = tracer.metrics()
        traced_s, untraced_s = (sum(t) for t in zip(*res["traced"])) if res["traced"] else (0, 0)
        overhead = 100.0 * (traced_s / untraced_s - 1.0) if untraced_s else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        spans = ROOT / "bench" / "out" / f"{args.workload}.spans.csv.gz"
        tracer.write_spans(spans)
        detail.update({
            "trace_overhead_pct": overhead,
            "layer_shares_pct": tracing.layer_shares(tracer),
            "self_ms_p50": tracing.self_ms_p50(tracer),
            "spans_file": str(spans.relative_to(ROOT)),
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        })
    correct = res["failed"] == 0 and bool(typical)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
