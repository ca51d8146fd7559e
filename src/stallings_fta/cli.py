"""Command-line interface: subgroup bases, membership, intersections,
indices, transversals, and DOT exports for free-times-abelian groups.

Exit codes: 0 success (and "is a member"), 1 "is not a member",
2 parse or usage error, 3 budget exhausted under --strict.

The environment variable STALLINGS_FTA_SEED is reserved; all computations
are fully deterministic and it is never read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .abelian import INFINITY
from .enriched import (
    GroupElement,
    basis,
    index_report,
    member,
    normalize,
    stallings,
    to_dot as enriched_dot,
    transversal_stream,
)
from .intersection import (
    VERDICT_FG,
    cayley_multidigraph,
    intersect_fg,
    intersect_stages,
    intersection_matrices,
)
from .syntax import (
    ProblemParseError,
    format_element,
    format_group,
    parse_element,
    parse_problem,
)
from .words import spanning_tree_by_order

SCHEMA = 1


def _parse_order(text: str, n: int):
    letters = []
    for token in text.split(","):
        token = token.strip()
        if token.endswith("^-1"):
            letters.append(-_letter_index(token[:-3], n))
        else:
            letters.append(_letter_index(token, n))
    return tuple(letters)


def _letter_index(token: str, n: int) -> int:
    if not token.startswith("x") or not token[1:].isdigit():
        raise ProblemParseError(f"bad letter {token!r} in --order")
    idx = int(token[1:])
    if not (1 <= idx <= n):
        raise ProblemParseError(f"letter {token} out of range for free rank {n}")
    return idx


def _fin(value):
    return "infinity" if value is INFINITY else value


def _dump(payload) -> str:
    return json.dumps(payload, indent=2)


def _matrix(rows):
    return [list(row) for row in rows]


def _automaton_for(problem, name, order, tree_strategy):
    gens = problem.subgroup(name)
    e = stallings(problem.ambient, gens, order)
    tree = spanning_tree_by_order(e.skeleton, order, tree_strategy)
    if tree_strategy != "order":
        e = normalize(e, tree)
    return e, tree


def cmd_basis(args, problem, order) -> int:
    e, tree = _automaton_for(problem, args.subgroup, order, args.tree)
    b = basis(e, tree)
    payload = {
        "schema": SCHEMA,
        "group": format_group(problem.ambient),
        "free_part": [format_element(g) for g in b.free_part],
        "abelian_part": _matrix(b.abelian_part.generator_rows()),
        "rank": b.rank(),
    }
    print(_dump(payload))
    return 0


def cmd_member(args, problem, order) -> int:
    e, _ = _automaton_for(problem, args.subgroup, order, args.tree)
    g = parse_element(args.element, problem.ambient)
    verdict = member(e, g)
    if args.json:
        print(_dump({"schema": SCHEMA, "member": verdict}))
    else:
        print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_index(args, problem, order) -> int:
    e, _ = _automaton_for(problem, args.subgroup, order, args.tree)
    free, abelian, total = index_report(e)
    print(_dump({
        "schema": SCHEMA,
        "free_index": _fin(free),
        "abelian_index": _fin(abelian),
        "total": _fin(total),
    }))
    return 0


def cmd_transversal(args, problem, order) -> int:
    e, _ = _automaton_for(problem, args.subgroup, order, args.tree)
    _, _, total = index_report(e)
    if total is INFINITY and args.limit is None:
        print("error: infinite index; use --limit", file=sys.stderr)
        return 2
    reps = [format_element(g) for g in transversal_stream(e, budget=args.limit)]
    truncated = total is INFINITY or (args.limit is not None and args.limit < total)
    if args.json:
        print(_dump({"schema": SCHEMA, "transversal": reps, "truncated": truncated}))
    else:
        for rep in reps:
            print(rep)
    if truncated and args.strict:
        return 3
    return 0


def _intersection_context(args, problem, order):
    e1, _ = _automaton_for(problem, args.subgroup1, order, "order")
    e2, _ = _automaton_for(problem, args.subgroup2, order, "order")
    report = intersection_matrices(e1, e2, order=order)
    return e1, e2, report


def cmd_intersect(args, problem, order) -> int:
    e1, e2, report = _intersection_context(args, problem, order)
    payload = {
        "schema": SCHEMA,
        "r": report.r,
        "s": report.s,
        "deltas": list(report.deltas),
        "D": _matrix(report.D),
        "M": _matrix(report.M.lattice_basis),
        "verdict": report.verdict,
        "rank": _fin(report.total_rank),
    }
    abelian_elements = [
        format_element(GroupElement((), row)) for row in report.base.generator_rows()
    ]
    truncated = False
    if report.verdict == VERDICT_FG:
        result = intersect_fg(e1, e2, order, report=report)
        b = basis(result, spanning_tree_by_order(result.skeleton, order))
        payload["basis"] = [format_element(g) for g in b.free_part] + abelian_elements
    else:
        _, stages = intersect_stages(e1, e2, max_radius=args.max_radius, order=order)
        prefix = []
        result = None
        for stage in stages:
            prefix.extend(format_element(g) for g in stage.new_elements)
            result = stage.automaton
        truncated = True
        payload["basis_prefix"] = abelian_elements + prefix
        payload["truncated"] = True
        payload["max_radius"] = args.max_radius
    if args.dot:
        print(enriched_dot(result, name="intersection"))
    else:
        print(_dump(payload))
    if truncated and args.strict:
        return 3
    return 0


def cmd_cayley(args, problem, order) -> int:
    _, _, report = _intersection_context(args, problem, order)
    if report.r == 0:
        print("digraph cayley {\n  v0 [shape=doublecircle, label=\"\"];\n}")
        return 0
    radius = None if all(d > 0 for d in report.deltas) else args.max_radius
    aut, elements = cayley_multidigraph(report.deltas, report.snf.Q, radius=radius)
    lines = ["digraph cayley {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, elem in enumerate(elements):
        shape = "doublecircle" if i == aut.basepoint else "circle"
        label = ",".join(str(a) for a in elem)
        lines.append(f"  v{i} [shape={shape}, label=\"({label})\"];")
    for o, k, t in aut.arcs:
        lines.append(f"  v{o} -> v{t} [label=\"w{k}\"];")
    lines.append("}")
    print("\n".join(lines))
    return 0


def cmd_dot(args, problem, order) -> int:
    e, _ = _automaton_for(problem, args.subgroup, order, args.tree)
    print(enriched_dot(e, name=args.subgroup))
    return 0


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stallings-fta",
        description="Enriched Stallings automata for subgroups of F_n x A.",
    )
    parser.add_argument("--order", help="letter order, e.g. 'x2,x2^-1,x1,x1^-1'")
    parser.add_argument(
        "--tree", choices=("order", "first-seen"), default="order",
        help="spanning tree strategy for bases and DOT output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, elements=0, element_arg=False):
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file")
        if elements == 1:
            p.add_argument("subgroup")
        elif elements == 2:
            p.add_argument("subgroup1")
            p.add_argument("subgroup2")
        if element_arg:
            p.add_argument("element")
        p.add_argument("--json", action="store_true")
        p.add_argument("--strict", action="store_true")
        p.add_argument("--limit", type=nonnegative_int, default=None)
        p.add_argument("--max-radius", type=nonnegative_int, default=8, dest="max_radius")
        p.add_argument("--dot", action="store_true")
        p.set_defaults(func=func)
        return p

    add("basis", cmd_basis, elements=1)
    add("member", cmd_member, elements=1, element_arg=True)
    add("index", cmd_index, elements=1)
    add("transversal", cmd_transversal, elements=1)
    add("intersect", cmd_intersect, elements=2)
    add("cayley", cmd_cayley, elements=2)
    add("dot", cmd_dot, elements=1)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            problem = parse_problem(handle.read())
        order = _parse_order(args.order, problem.ambient.n) if args.order else None
        return args.func(args, problem, order)
    except (ProblemParseError, OSError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
