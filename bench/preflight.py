"""Paper cases restated as benchmark data, checked before any timing.

Moldavanski's example and Cases 1-5 of Delgado-Ventura (arXiv 1910.05855):
the difference matrix D, the lattice M, the Smith form S, the verdict and
the rank, where the paper states them.  Lattices are compared by mutual
containment with exact rational arithmetic, not by the library's own
normal form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import stallings_fta as sf

MOLDAVANSKI = "group F2 x Z\nH1: x1 t^(1), x2\nH2: x1, x2\n"


def _parameterized(a, d, l1, l2) -> str:
    """H1 = <x^3 t^a, yx, y^3 x y^-2, t^L1>, H2 = <x^2 t^d, yxy^-1, t^L2> in F2 x Z^2."""
    def vec(v):
        return f"t^({v[0]},{v[1]})"

    h1 = [f"x1^3 {vec(a)}", "x2 x1", "x2^3 x1 x2^-2"] + [vec(v) for v in l1]
    h2 = [f"x1^2 {vec(d)}", "x2 x1 x2^-1"] + [vec(v) for v in l2]
    return f"group F2 x Z^2\nH1: {', '.join(h1)}\nH2: {', '.join(h2)}\n"


# (name, problem text, expected fields of the intersection report)
CASES = [
    ("Moldavanski", MOLDAVANSKI, {
        "D": ((1,), (0,)), "M": ((0, 1),), "deltas": (1, 0),
        "verdict": "not-finitely-generated", "rank": math.inf,
    }),
    ("Case 1", _parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)]), {
        "D": ((2, -3), (1, 0)), "M": ((-2, 4), (1, 1)), "S": ((1, 0), (0, 6)),
        "verdict": "finitely-generated", "rank": 7,
    }),
    ("Case 2", _parameterized((3, 3), (2, 2), [(1, 2)], []), {
        "verdict": "not-finitely-generated", "r": 2, "s": 1,
    }),
    ("Case 3", _parameterized((3, 3), (2, 2), [(2, 2)], []), {
        "verdict": "finitely-generated", "rank": 3,
    }),
    ("Case 4", _parameterized((3, 3), (2, 2), [(1, 1)], []), {
        "verdict": "finitely-generated", "rank": 2,
    }),
] + [
    (f"Case 5, p={p}", _parameterized((6, 6), (4, 4), [(6 * p, 6 * p)], []), {
        "verdict": "finitely-generated", "rank": p + 1,
    })
    for p in (2, 3, 4)
]


def _in_lattice(v, rows) -> bool:
    """v in the Z-span of linearly independent rows (exact elimination)."""
    if not rows:
        return not any(v)
    # solve x @ rows = v over Q, column by column
    mat = [[Fraction(a) for a in row] for row in rows]
    k, n = len(mat), len(v)
    aug = [[mat[i][j] for i in range(k)] + [Fraction(v[j])] for j in range(n)]
    piv_row = 0
    for col in range(k):
        pr = next((r for r in range(piv_row, n) if aug[r][col]), None)
        if pr is None:
            return False
        aug[piv_row], aug[pr] = aug[pr], aug[piv_row]
        p = aug[piv_row][col]
        aug[piv_row] = [a / p for a in aug[piv_row]]
        for r in range(n):
            if r != piv_row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[piv_row])]
        piv_row += 1
    if any(aug[r][k] for r in range(piv_row, n)):
        return False
    return all(aug[r][k].denominator == 1 for r in range(piv_row))


def same_lattice(a, b) -> bool:
    return all(_in_lattice(v, b) for v in a) and all(_in_lattice(v, a) for v in b)


def check_case(text: str, expected: dict) -> list[str]:
    """Mismatches between the library's report and the paper's values."""
    problem = sf.parse_problem(text)
    e1, e2 = (sf.stallings(problem.ambient, problem.subgroup(h)) for h in ("H1", "H2"))
    rep = sf.intersection_matrices(e1, e2)
    got = {
        "D": rep.D, "deltas": rep.deltas, "S": rep.snf.S, "verdict": rep.verdict,
        "rank": rep.free_rank, "r": rep.r, "s": rep.s,
    }
    bad = []
    for key, want in expected.items():
        if key == "M":
            if not same_lattice(rep.M.lattice_basis, want):
                bad.append(f"M = {rep.M.lattice_basis}, expected <{want}>")
        elif got[key] != want:
            bad.append(f"{key} = {got[key]}, expected {want}")
    return bad


def run() -> list[str]:
    """Every mismatch, as 'case: detail' lines; empty when all cases agree."""
    return [f"{name}: {msg}" for name, text, want in CASES for msg in check_case(text, want)]
