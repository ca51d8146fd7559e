"""One-off scaling table: single runs at sizes too slow for per-op percentiles.

    python3 bench/scaling.py [--seed 1]

Prints a Markdown table of one timed call per row.  The numbers are
informative only; no run of the benchmark gates on them.
"""

from __future__ import annotations

import argparse
import random
import time

import run


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sf = run.load_library()
    import family

    rng = random.Random(f"scaling:{args.seed}")
    f2z = sf.Ambient(2, sf.AbelianSpec(1))
    rows = []
    for N in (40, 80):
        fam = family.finite_index(rng, 2, N, [(1,), (2,)], 5)
        gens = [f2z.element(w, v) for w, v in fam.generators()]
        e, dt = timed(lambda: sf.stallings(f2z, gens))
        flower = sum(len(w) for w, _ in fam.generators())
        rows.append((f"build, finite-index N={N}", f"{flower} flower arcs", dt))
    for n1, n2 in ((16, 17), (24, 25)):
        f1, f2 = family.fg_pair(rng, n1, n2, 2)
        e1, e2 = (sf.stallings(f2z, [f2z.element(w, v) for w, v in f.generators()])
                  for f in (f1, f2))
        rep, dt = timed(lambda: sf.intersection_matrices(e1, e2))
        rows.append((f"verdict, N1={n1} N2={n2}", f"r={rep.r}", dt))

    def stream(ambient, h1_gens, h2_gens, radius):
        h1 = sf.stallings(ambient, [ambient.element(w, v) for w, v in h1_gens])
        h2 = sf.stallings(ambient, [ambient.element(w) for w in h2_gens])
        _, stages = sf.intersect_stages(h1, h2, max_radius=radius)
        return list(stages)

    stages, dt = timed(lambda: stream(f2z, [((1,), (1,)), ((2,), (0,))], [(1,), (2,)], 128))
    rows.append(("Moldavanski stream, R=128", f"{len(stages)} stages", dt))
    f3z2 = sf.Ambient(3, sf.AbelianSpec(2))
    stages, dt = timed(lambda: stream(
        f3z2, [((1,), (1, 0)), ((2,), (0, 1)), ((3,), (0, 0))], [(1,), (2,), (3,)], 24))
    rows.append(("rank-3 stream, R=24", f"{len(stages)} stages", dt))

    print("| run | size | seconds |")
    print("|---|---|---|")
    for name, size, dt in rows:
        print(f"| {name} | {size} | {dt:.2f} |")


if __name__ == "__main__":
    main()
