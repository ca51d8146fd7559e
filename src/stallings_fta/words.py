"""Free-group words and involutive pointed automata over letters x1..xn.

A signed letter is a nonzero int: +k for x_k, -k for its inverse.  Words are
freely reduced tuples of signed letters.  Automata store only their positive
arcs; every arc (origin, k, target) with k in 1..n can also be crossed
backwards reading -k.  The basepoint is the unique initial/accepting vertex.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .abelian import Vector, vec_add, vec_neg, vec_sub

Word = tuple[int, ...]
Arc = tuple[int, int, int]  # (origin, letter in 1..n, target)


def free_reduce(letters: Sequence[int]) -> Word:
    """Freely reduce a sequence of signed letters."""
    out: list[int] = []
    for l in letters:
        if l == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def multiply(u: Sequence[int], v: Sequence[int]) -> Word:
    return free_reduce(tuple(u) + tuple(v))


def invert(u: Sequence[int]) -> Word:
    return tuple(-l for l in reversed(u))


def default_order(n: int) -> tuple[int, ...]:
    """The order x1 < x1^-1 < x2 < x2^-1 < ... on signed letters."""
    out = []
    for k in range(1, n + 1):
        out.extend((k, -k))
    return tuple(out)


def check_order(order: Sequence[int], n: int) -> tuple[int, ...]:
    if sorted(order, key=abs) != sorted(default_order(n), key=abs):
        raise ValueError(f"order must be a permutation of the {2 * n} signed letters")
    return tuple(order)


@dataclass(frozen=True)
class Automaton:
    """Involutive pointed automaton given by its positive arcs."""

    n: int
    num_vertices: int
    basepoint: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("an automaton needs at least its basepoint")
        if not (0 <= self.basepoint < self.num_vertices):
            raise ValueError("basepoint out of range")
        for o, k, t in self.arcs:
            if not (0 <= o < self.num_vertices and 0 <= t < self.num_vertices):
                raise ValueError("arc endpoint out of range")
            if not (1 <= k <= self.n):
                raise ValueError(f"letter {k} out of range")

    @cached_property
    def _steps(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """(vertex, signed letter) -> (target, arc index, direction); requires determinism."""
        out: dict[tuple[int, int], tuple[int, int, int]] = {}
        for idx, (o, k, t) in enumerate(self.arcs):
            for key, val in (((o, k), (t, idx, 1)), ((t, -k), (o, idx, -1))):
                if key in out:
                    raise ValueError("automaton is not deterministic")
                out[key] = val
        return out

    def step(self, vertex: int, letter: int):
        return self._steps.get((vertex, letter))

    def is_deterministic(self) -> bool:
        try:
            self._steps
        except ValueError:
            return False
        return True

    def degree(self, vertex: int) -> int:
        return sum((o == vertex) + (t == vertex) for o, _, t in self.arcs)


def flower(n: int, words: Sequence[Sequence[int]]) -> Automaton:
    """Wedge of one petal per word, all based at vertex 0."""
    arcs: list[Arc] = []
    num = 1
    for w in words:
        w = free_reduce(w)
        if not w:
            raise ValueError("flower petals must be nonempty words")
        for l in w:
            if abs(l) > n:
                raise ValueError(f"letter index {abs(l)} out of range for n={n}")
        here = 0
        for i, l in enumerate(w):
            nxt = 0 if i == len(w) - 1 else num
            if nxt:
                num += 1
            if l > 0:
                arcs.append((here, l, nxt))
            else:
                arcs.append((nxt, -l, here))
            here = nxt
    return Automaton(n, num, 0, tuple(arcs))


def _fold_arcs(num_vertices: int, arcs: Sequence[Arc], vector=None):
    """Stallings folding driven by a worklist of colliding arc pairs.

    A union-find merges vertex classes.  Each class keeps a map from signed
    letter to the arc leaving it that way; a union merges the smaller map
    into the larger one and queues the arcs that collide.  Of two colliding
    arcs, the one with the larger index is folded onto the other.

    With `vector` (arc index -> abelian vector read crossing it forward),
    each vertex also carries a potential: the vertex transformations applied
    to it so far, stored relative to its union-find parent.  Let e be the
    vector read along an arc in the fold's direction, potentials included.
    An open fold of arc j onto arc i adds e_i - e_j to the class of j's
    target; a closed fold gains e_j - e_i for the basepoint subgroup.  No
    arc label is rewritten, and vectors are read only when a fold needs them.

    Returns (rep, potential, kept, gained): rep[v] is the least vertex of v's
    class, potential[v] the potential of v (None when zero), kept the
    surviving arc indices in increasing order, gained the nonzero closed-fold
    vectors.
    """
    parent = list(range(num_vertices))
    pot: list[Optional[Vector]] = [None] * num_vertices
    least = list(range(num_vertices))
    out: list[Optional[dict[int, int]]] = [{} for _ in range(num_vertices)]
    alive = [True] * len(arcs)
    gained: list[Vector] = []

    def find(v: int) -> int:
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        for u in reversed(path[:-1]):  # path[-1] already hangs off the root
            pot[u] = _add(pot[u], pot[parent[u]])
            parent[u] = v
        return v

    def potential(v: int) -> Optional[Vector]:
        root = find(v)
        return pot[v] if v == root else _add(pot[v], pot[root])

    def read(x: int, s: int) -> Vector:
        o, _, t = arcs[x]
        if s > 0:
            e = vector(x)
        else:
            e, o, t = vec_neg(vector(x)), t, o
        return _sub(_add(e, potential(t)), potential(o))

    work = [(x, v, s) for x, (o, k, t) in enumerate(arcs) for v, s in ((o, k), (t, -k))]
    while work:
        a, v, s = work.pop()
        if not alive[a]:
            continue
        slots = out[find(v)]
        b = slots.setdefault(s, a)
        if b == a:
            continue
        i, j = (a, b) if a < b else (b, a)
        slots[s] = i
        alive[j] = False
        end = 2 if s > 0 else 0
        ri, rj = find(arcs[i][end]), find(arcs[j][end])
        if out[rj].get(-s) == j:
            del out[rj][-s]
        c = vec_sub(read(i, s), read(j, s)) if vector is not None else ()
        if ri == rj:
            if any(c):
                gained.append(vec_neg(c))
            continue
        if any(c):
            pot[rj] = _add(pot[rj], c)
        if len(out[ri]) < len(out[rj]):
            ri, rj = rj, ri
        parent[rj] = ri
        pot[rj] = _sub(pot[rj], pot[ri])
        least[ri] = min(least[ri], least[rj])
        big = out[ri]
        for s2, x in out[rj].items():
            if big.setdefault(s2, x) != x:
                work.append((x, ri, s2))
        out[rj] = None

    rep = [least[find(v)] for v in range(num_vertices)]
    kept = [x for x in range(len(arcs)) if alive[x]]
    return rep, [potential(v) for v in range(num_vertices)], kept, gained


def _add(u: Optional[Vector], v: Optional[Vector]) -> Optional[Vector]:
    """vec_add with None for zero."""
    if u is None:
        return v
    return u if v is None else vec_add(u, v)


def _sub(u: Optional[Vector], v: Optional[Vector]) -> Optional[Vector]:
    return u if v is None else _add(u, vec_neg(v))


def fold(a: Automaton) -> Automaton:
    """Fold to a deterministic automaton recognizing the same subgroup."""
    rep, _, kept, _ = _fold_arcs(a.num_vertices, a.arcs)
    arcs = [(rep[o], k, rep[t]) for o, k, t in (a.arcs[x] for x in kept)]
    return _compact(a.n, a.num_vertices, rep[a.basepoint], arcs)


def _compact(n: int, num_vertices: int, basepoint: int, arcs: list[Arc]) -> Automaton:
    used = sorted({basepoint} | {o for o, _, _ in arcs} | {t for _, _, t in arcs})
    remap = {v: i for i, v in enumerate(used)}
    return Automaton(
        n,
        len(used),
        remap[basepoint],
        tuple((remap[o], k, remap[t]) for o, k, t in arcs),
    )


def _core_keep(num_vertices: int, basepoint: int, arcs: Sequence[Arc]):
    """Vertices/arc indices surviving the core: basepoint component minus hanging trees."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for idx, (o, _, t) in enumerate(arcs):
        adj[o].append((t, idx))
        adj[t].append((o, idx))
    component = {basepoint}
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for w, _ in adj[v]:
            if w not in component:
                component.add(w)
                queue.append(w)
    alive_arc = [o in component for o, _, t in arcs]
    degree = [0] * num_vertices
    for idx, (o, _, t) in enumerate(arcs):
        if alive_arc[idx]:
            degree[o] += 1
            degree[t] += 1
    leaves = deque(v for v in component if degree[v] <= 1 and v != basepoint)
    dead = set()
    while leaves:
        v = leaves.popleft()
        if v in dead:
            continue
        dead.add(v)
        for w, idx in adj[v]:
            if alive_arc[idx]:
                alive_arc[idx] = False
                degree[w] -= 1
                degree[v] -= 1
                if degree[w] <= 1 and w != basepoint and w not in dead:
                    leaves.append(w)
    kept_vertices = component - dead
    kept_arcs = [i for i, ok in enumerate(alive_arc) if ok]
    return kept_vertices, kept_arcs


def core(a: Automaton) -> Automaton:
    """Basepoint component with all hanging trees removed."""
    kept_vertices, kept_arcs = _core_keep(a.num_vertices, a.basepoint, a.arcs)
    arcs = [a.arcs[i] for i in kept_arcs]
    return _compact(a.n, a.num_vertices, a.basepoint, arcs)


def _bfs_order(a: Automaton, order: Sequence[int]) -> list[int]:
    """Vertices reachable from the basepoint, in breadth-first order under `order`."""
    seen = [False] * a.num_vertices
    seen[a.basepoint] = True
    out = [a.basepoint]
    queue = deque([a.basepoint])
    while queue:
        v = queue.popleft()
        for s in order:
            nxt = a.step(v, s)
            if nxt is not None and not seen[nxt[0]]:
                seen[nxt[0]] = True
                out.append(nxt[0])
                queue.append(nxt[0])
    return out


def canonical_renumber(a: Automaton, order: Optional[Sequence[int]] = None):
    """Renumber vertices in BFS order from the basepoint; sorts arcs.

    Returns (automaton, vertex_map, arc_map) with arc_map[new] = old index.
    Requires a deterministic connected automaton.
    """
    order = check_order(order, a.n) if order is not None else default_order(a.n)
    bfs = _bfs_order(a, order)
    if len(bfs) != a.num_vertices:
        raise ValueError("automaton is not connected")
    vmap = {v: i for i, v in enumerate(bfs)}
    decorated = sorted(
        range(len(a.arcs)),
        key=lambda i: (vmap[a.arcs[i][0]], a.arcs[i][1], vmap[a.arcs[i][2]]),
    )
    arcs = tuple(
        (vmap[a.arcs[i][0]], a.arcs[i][1], vmap[a.arcs[i][2]]) for i in decorated
    )
    return Automaton(a.n, a.num_vertices, 0, arcs), vmap, tuple(decorated)


@dataclass(frozen=True)
class SpanningTree:
    """Breadth-first spanning tree plus the induced petal (cyclomatic) arc order."""

    root: int
    parent: tuple[Optional[tuple[int, int]], ...]  # vertex -> (arc index, direction)
    tree_arcs: frozenset[int]
    vertex_age: tuple[int, ...]  # insertion order -> vertex
    petal_arcs: tuple[int, ...]  # positive non-tree arcs, emission order

    def path_to(self, a: Automaton, v: int) -> list[tuple[int, int]]:
        """Tree walk basepoint -> v as (arc index, direction) steps."""
        steps = []
        while v != self.root:
            arc_idx, d = self.parent[v]
            steps.append((arc_idx, d))
            o, _, t = a.arcs[arc_idx]
            v = o if d == 1 else t
        steps.reverse()
        return steps

    def word_to(self, a: Automaton, v: int) -> Word:
        return tuple(
            a.arcs[i][1] * d for i, d in self.path_to(a, v)
        )


def spanning_tree_by_order(
    a: Automaton, order: Optional[Sequence[int]] = None, strategy: str = "order"
) -> SpanningTree:
    """Grow the spanning tree breadth-first, trying directions in `order`.

    This realizes the rule "attach the smallest-labelled arc at the oldest
    tree vertex that does not close a cycle"; vertex age is insertion order.
    With strategy "first-seen" the directions at each vertex are tried in
    arc storage order instead of letter order.
    """
    order = check_order(order, a.n) if order is not None else default_order(a.n)
    if strategy not in ("order", "first-seen"):
        raise ValueError(f"unknown tree strategy {strategy!r}")
    if strategy == "first-seen":
        per_vertex: dict[int, list[int]] = {}
        for o, k, t in a.arcs:
            per_vertex.setdefault(o, []).append(k)
            per_vertex.setdefault(t, []).append(-k)

        def directions(v: int) -> Sequence[int]:
            out, seen = [], set()
            for s in per_vertex.get(v, ()):
                if s not in seen:
                    seen.add(s)
                    out.append(s)
            return out
    else:
        def directions(v: int) -> Sequence[int]:
            return order

    parent: list[Optional[tuple[int, int]]] = [None] * a.num_vertices
    seen = [False] * a.num_vertices
    seen[a.basepoint] = True
    ages = [a.basepoint]
    tree: set[int] = set()
    queue = deque([a.basepoint])
    while queue:
        v = queue.popleft()
        for s in directions(v):
            nxt = a.step(v, s)
            if nxt is None:
                continue
            w, arc_idx, d = nxt
            if not seen[w]:
                seen[w] = True
                parent[w] = (arc_idx, d)
                tree.add(arc_idx)
                ages.append(w)
                queue.append(w)
    if not all(seen):
        raise ValueError("automaton is not connected")

    petals: list[int] = []
    emitted: set[int] = set()
    for v in ages:
        for s in directions(v):
            nxt = a.step(v, s)
            if nxt is None:
                continue
            _, arc_idx, _ = nxt
            if arc_idx not in tree and arc_idx not in emitted:
                emitted.add(arc_idx)
                petals.append(arc_idx)
    return SpanningTree(
        root=a.basepoint,
        parent=tuple(parent),
        tree_arcs=frozenset(tree),
        vertex_age=tuple(ages),
        petal_arcs=tuple(petals),
    )


def petal_word(a: Automaton, t: SpanningTree, arc_idx: int) -> Word:
    """Label of the petal: basepoint ~> origin, the arc, target ~> basepoint."""
    o, k, tgt = a.arcs[arc_idx]
    back = t.word_to(a, tgt)
    return t.word_to(a, o) + (k,) + invert(back)


def t_basis(a: Automaton, t: SpanningTree) -> list[Word]:
    """Petal words; a free basis of the recognized subgroup."""
    return [petal_word(a, t, i) for i in t.petal_arcs]


def recognizes(a: Automaton, w: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """The unique basepoint walk reading w, as (arc, direction) steps, or None."""
    v = a.basepoint
    walk = []
    for l in free_reduce(w):
        nxt = a.step(v, l)
        if nxt is None:
            return None
        v, arc_idx, d = nxt
        walk.append((arc_idx, d))
    return walk if v == a.basepoint else None


def word_coordinates(a: Automaton, t: SpanningTree, w: Sequence[int]) -> tuple[int, ...]:
    """Signed petal-arc crossing counts of the walk reading w (its abelianized
    expression in the T-basis)."""
    walk = recognizes(a, w)
    if walk is None:
        raise ValueError("word is not recognized by the automaton")
    pos = {arc: i for i, arc in enumerate(t.petal_arcs)}
    out = [0] * len(t.petal_arcs)
    for arc_idx, d in walk:
        i = pos.get(arc_idx)
        if i is not None:
            out[i] += d
    return tuple(out)


def product(a1: Automaton, a2: Automaton) -> Automaton:
    """Tensor product; recognizes the intersection of the recognized subgroups."""
    aut, _ = product_with_provenance(a1, a2)
    return aut


def product_with_provenance(a1: Automaton, a2: Automaton):
    """Tensor product plus, per product arc, the pair of factor arc indices."""
    if a1.n != a2.n:
        raise ValueError("alphabet mismatch")
    v2 = a2.num_vertices
    arcs: list[Arc] = []
    prov: list[tuple[int, int]] = []
    by_letter: dict[int, list[tuple[int, int, int]]] = {}
    for j, (o, k, t) in enumerate(a2.arcs):
        by_letter.setdefault(k, []).append((o, t, j))
    for i, (o1, k, t1) in enumerate(a1.arcs):
        for o2, t2, j in by_letter.get(k, ()):
            arcs.append((o1 * v2 + o2, k, t1 * v2 + t2))
            prov.append((i, j))
    aut = Automaton(
        a1.n,
        a1.num_vertices * v2,
        a1.basepoint * v2 + a2.basepoint,
        tuple(arcs),
    )
    return aut, tuple(prov)


def is_saturated(a: Automaton) -> bool:
    """True iff every vertex has an outgoing arc in every signed direction."""
    for v in range(a.num_vertices):
        for s in default_order(a.n):
            if a.step(v, s) is None:
                return False
    return True


def schreier_transversal(
    a: Automaton, budget: Optional[int] = None, order: Optional[Sequence[int]] = None
) -> Iterator[Word]:
    """Coset representatives of the recognized subgroup, graded by length.

    Breadth-first over the Schreier graph: within the core automaton first,
    then down the hanging trees of missing directions, where every extension
    is a fresh coset.  Complete when the automaton is saturated; truncate an
    infinite stream with `budget`.
    """
    order = check_order(order, a.n) if order is not None else default_order(a.n)
    emitted = 0

    def bump():
        nonlocal emitted
        emitted += 1
        return budget is not None and emitted >= budget

    yield ()
    if bump():
        return
    seen = {a.basepoint}
    queue: deque[tuple[Optional[int], Word]] = deque([(a.basepoint, ())])
    while queue:
        state, word = queue.popleft()
        for s in order:
            if state is None:
                if word and s == -word[-1]:
                    continue
                yield word + (s,)
                if bump():
                    return
                queue.append((None, word + (s,)))
                continue
            nxt = a.step(state, s)
            if nxt is None:
                yield word + (s,)
                if bump():
                    return
                queue.append((None, word + (s,)))
            elif nxt[0] not in seen:
                seen.add(nxt[0])
                yield word + (s,)
                if bump():
                    return
                queue.append((nxt[0], word + (s,)))


def letter_str(l: int) -> str:
    return f"x{l}" if l > 0 else f"x{-l}^-1"


def word_str(w: Sequence[int]) -> str:
    """Render a word, compressing runs: (1, 1, -2) -> "x1^2 x2^-1"."""
    if not w:
        return "1"
    out = []
    for l, group in itertools.groupby(w):
        count = len(list(group))
        base = abs(l)
        exp = count if l > 0 else -count
        out.append(f"x{base}" if exp == 1 else f"x{base}^{exp}")
    return " ".join(out)


def to_dot(a: Automaton, name: str = "automaton") -> str:
    """DOT rendering: basepoint double-circled, one edge per positive arc."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle, label=\"\"];"]
    lines.append(f"  v{a.basepoint} [shape=doublecircle];")
    for v in range(a.num_vertices):
        if v != a.basepoint:
            lines.append(f"  v{v};")
    for o, k, t in a.arcs:
        lines.append(f"  v{o} -> v{t} [label=\"x{k}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
