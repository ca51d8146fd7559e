"""Steadiness check: run the benchmark on several seeds and report the spread.

    python3 bench/steady.py --workloads build member --seeds 1-10 --save a.json
    python3 bench/steady.py --workloads build member --seeds 11-20 --against a.json
    python3 bench/steady.py --workloads member --seeds 3 3 3 3 3   # one seed, repeated

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json.  Repeating one seed measures the host's noise alone;
distinct seeds add the variation between inputs.  With ``--against`` it
also compares each median with a saved one.  Runs are sequential, so they
do not compete for cores.

Exit status 1 when a spread other than ``setup_s``'s reaches a third of its
bound, or a median is worse than the saved one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
                         f"{proc.stdout[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse `new` is than `old`, as a share of `old`."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=seeds, default=[seeds("1-10")],
                        help="seeds and ranges such as 1-10; a seed may repeat")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, help="write the medians to this JSON file")
    parser.add_argument("--against", type=Path, help="compare the medians with a saved file")
    args = parser.parse_args()
    run_seeds = [s for group in args.seeds for s in group]
    saved = json.loads(args.against.read_text()) if args.against else {}

    ok = True
    medians: dict[str, dict[str, float]] = {}
    for workload in args.workloads:
        runs = []
        for seed in run_seeds:
            runs.append(run(workload, seed, args.seconds))
            print(f"  {workload} seed {seed}: attempted {runs[-1]['attempted']}", file=sys.stderr)
        print(f"{workload} ({len(runs)} runs, seeds {' '.join(map(str, run_seeds))})")
        medians[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = medians[workload][name] = statistics.median(values)
            s = spread(values)
            line = f"  {name:20s} median {median:12.4f}  spread {s:7.2%}  bound {bound:.0%}"
            if s >= bound / 3:
                line += "  <-- spread at or above a third of the bound"
                ok = ok and name == "setup_s"
            if name in saved.get(workload, {}):
                shift = worse_by(median, saved[workload][name], metric["better"])
                line += f"  worse than saved by {shift:+.2%}"
                if shift > bound:
                    line += "  <-- beyond the bound"
                    ok = False
            print(line)
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
