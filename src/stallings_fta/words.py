"""Free-group words and involutive pointed automata over letters x1..xn.

A signed letter is a nonzero int: +k for x_k, -k for its inverse.  Words are
freely reduced tuples of signed letters.  Automata store only their positive
arcs; every arc (origin, k, target) with k in 1..n can also be crossed
backwards reading -k.  The basepoint is the unique initial/accepting vertex.

A step map sends a vertex and a signed letter to the arc leaving that
vertex by that letter, as (target, arc index, direction).  It is keyed by
the one integer v * (2n + 1) + s, which is unique for the letters s in
+-1..n; a larger letter would alias another vertex's step (n + 1 at v is
-n at v + 1), so the public lookups turn such letters away first.

Spanning trees come from one resumable breadth-first search, _TreeSearch:
resume(start) scans its vertex list from index start while the list grows,
and its parent map is its visited set.  A finished automaton is searched
whole, resume(0); the intersection's expansion stream resumes its search at
each stage where the last sphere's vertices begin.  Both cut petal words
from root paths found by _root_paths.  Folding, the product and the
intersection end in _canonical_core: the step map of their arcs, which the
caller builds or, as the expansion does, keeps as it appends them, one
search from the basepoint, and from it the core (the basepoint and the
ancestors of the petals' ends), its canonical numbering, its arcs in sorted
order and its spanning tree.  canonical_renumber is the same search and
emission without the pruning.  core keeps its own adjacency-list pruning,
and core and fold their compaction, as both accept nondeterministic arcs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import neg
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .abelian import Vector, vec_add, vec_neg

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
    return tuple(map(neg, reversed(u)))


def default_order(n: int) -> tuple[int, ...]:
    """The order x1 < x1^-1 < x2 < x2^-1 < ... on signed letters."""
    out = []
    for k in range(1, n + 1):
        out.extend((k, -k))
    return tuple(out)


def check_order(order: Optional[Sequence[int]], n: int) -> tuple[int, ...]:
    """The letter order as a tuple; None stands for default_order(n)."""
    if order is None:
        return default_order(n)
    if sorted(order) != sorted(default_order(n)):
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
    def _steps(self) -> dict[int, tuple[int, int, int]]:
        """The step map of the arcs (see the module docstring); requires determinism."""
        return _step_map(self.n, self.arcs)

    @cached_property
    def _trees(self) -> dict[tuple[int, ...], SpanningTree]:
        """Spanning trees by checked letter order; see spanning_tree_by_order."""
        return {}

    def step(self, vertex: int, letter: int):
        """(target, arc index, direction) of the arc leaving vertex by the
        signed letter, or None."""
        if not 0 < abs(letter) <= self.n:
            return None
        return self._steps.get(vertex * (2 * self.n + 1) + letter)


def _step_map(n: int, arcs: Sequence[Arc]) -> dict[int, tuple[int, int, int]]:
    """v * (2n + 1) + s -> (target, arc index, direction) over all arcs;
    ValueError unless they are deterministic (two arcs leaving one vertex by
    one signed letter would share a key)."""
    width = 2 * n + 1
    out = {}
    for idx, (o, k, t) in enumerate(arcs):
        out[o * width + k] = (t, idx, 1)
        out[t * width - k] = (o, idx, -1)
    if len(out) != 2 * len(arcs):
        raise ValueError("automaton is not deterministic")
    return out


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


class _Folding:
    """One Stallings folding state: a union-find over vertices whose classes
    keep a map from signed letter to the arc leaving them that way, plus a
    worklist of colliding arcs.

    A union merges the smaller map into the larger one and queues the arcs
    that collide.  Of two colliding arcs, the one with the larger index is
    folded onto the other.

    With `vectors` (arc index -> abelian vector read crossing it forward,
    None for zero), each vertex also carries a potential: the vertex
    transformations applied to it so far, stored relative to its union-find
    parent.  An arc's value is its vector plus its target's potential minus
    its origin's.  An open fold of arc j onto arc i adds the value of i
    minus that of j, read in the fold's direction, to the class of j's
    target; a closed fold gains the opposite for the basepoint subgroup.

    Every arc end that sits in a slot is its class's root: _rebase moves an
    end onto its root, and its potential into the arc's vector, when its
    work item is popped and when its class joins another.  So a walk meets
    only roots and sums raw arc vectors, and after run() every live arc
    lies between roots, whose potentials are their own.

    Arcs come in two ways.  `fold`, `reduce` and `doubly_reduce` hand all
    their arcs to the constructor, which queues every arc end and folds.
    `stallings` starts from the basepoint alone and reads each generator
    into the folded graph with `read_word`, which adds arcs only for the
    part that cannot be read and queues only the collisions at its seams.
    """

    def __init__(self, num_vertices: int, arcs: Sequence[Arc], vectors: Optional[list] = None):
        self.parent = list(range(num_vertices))
        self.pot: list[Optional[Vector]] = [None] * num_vertices
        self.least = list(range(num_vertices))
        self.out: list[Optional[dict[int, int]]] = [{} for _ in range(num_vertices)]
        self.arcs = list(arcs)
        self.vectors = vectors
        self.alive = [True] * len(self.arcs)
        self.gained: list[Vector] = []
        self.work = [(x, v, s) for x, (o, k, t) in enumerate(self.arcs) for v, s in ((o, k), (t, -k))]
        self.run()

    def find(self, v: int) -> int:
        parent = self.parent
        root = parent[v]
        if parent[root] == root:  # v is a root or hangs off one
            return root
        pot = self.pot
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        for u in reversed(path[:-1]):  # path[-1] already hangs off the root
            pot[u] = _add(pot[u], pot[parent[u]])
            parent[u] = v
        return v

    def _rebase(self, x: int, s: int, root: int) -> None:
        """Move arc x's end on side s (its origin if s > 0), which is root or
        hangs off it, onto root, keeping the arc's value."""
        o, k, t = self.arcs[x]
        end = o if s > 0 else t
        if end != root:
            self.arcs[x] = (root, k, t) if s > 0 else (o, k, root)
            if self.vectors is not None:
                self.vectors[x] = (_sub if s > 0 else _add)(self.vectors[x], self.pot[end])

    def value(self, x: int) -> Optional[Vector]:
        """The value of arc x read forward; both its ends must be roots."""
        o, _, t = self.arcs[x]
        return _sub(_add(self.vectors[x], self.pot[t]), self.pot[o])

    def run(self) -> None:
        """Fold until no two arcs leave one class by the same signed letter."""
        find, rebase, value, out, arcs, alive, pot, work = (
            self.find, self._rebase, self.value, self.out, self.arcs, self.alive, self.pot,
            self.work)
        while work:
            a, v, s = work.pop()
            if not alive[a]:
                continue
            r = find(v)
            rebase(a, s, r)
            slots = out[r]
            b = slots.setdefault(s, a)
            if b == a:
                continue
            i, j = (a, b) if a < b else (b, a)
            slots[s] = i
            alive[j] = False
            end = 2 if s > 0 else 0
            for x in (i, j):  # both arcs leave r; their other ends go to their roots
                rebase(x, -s, find(arcs[x][end]))
            ri, rj = arcs[i][end], arcs[j][end]
            if out[rj].get(-s) == j:
                del out[rj][-s]
            c = None if self.vectors is None else (  # i minus j, read in direction s
                _sub(value(i), value(j)) if s > 0 else _sub(value(j), value(i)))
            if c is not None and not any(c):
                c = None
            if ri == rj:
                if c is not None:
                    self.gained.append(vec_neg(c))
                continue
            if c is not None:
                pot[rj] = _add(pot[rj], c)
            if len(out[ri]) < len(out[rj]):
                ri, rj = rj, ri
            self.parent[rj] = ri
            pot[rj] = _sub(pot[rj], pot[ri])
            self.least[ri] = min(self.least[ri], self.least[rj])
            big = out[ri]
            for s2, x in out[rj].items():
                rebase(x, s2, ri)
                if big.setdefault(s2, x) != x:
                    work.append((x, ri, s2))
            out[rj] = None

    def _walk(self, v: int, letters: Iterable[int], stop: int):
        """Follow letters from root v while they read, at most stop of them.

        Returns (steps, end root, value, root and value one step earlier).
        Each letter is one slot lookup: the arc's other end is a root too,
        and the value is the sum of the raw arc vectors crossed, which is
        the walk's value minus the end's potential plus the start's.
        """
        out, arcs, vectors = self.out, self.arcs, self.vectors
        value = before = back = None
        steps = 0
        for s in letters:
            if steps == stop:
                break
            x = out[v].get(s)
            if x is None:
                break
            back, before = v, value
            o, _, t = arcs[x]
            e = vectors[x]
            if e is not None:
                value = _add(value, e) if s > 0 else _sub(value, e)
            v = t if s > 0 else o
            steps += 1
        return steps, v, value, back, before

    def read_word(self, word: Sequence[int], vec: Optional[Vector]) -> None:
        """Add the generator word t^vec (vec None for zero) to the subgroup
        of the folded graph.

        The longest prefix of word readable from the basepoint (vertex 0) is
        walked forward to p, and the longest remaining suffix backward from
        the basepoint to q.  If they meet at one class, the generator reads
        as a closed walk and only vec minus the walk's value joins the
        gained vectors.  Otherwise a fresh path p ~> q spells the unread
        middle and carries the residual vector on its last arc; an empty
        middle keeps one read letter, whose arc then collides.  Only such
        seam collisions reach the worklist, which is run to completion.
        Each walk's raw sum misses the potential of its end less the
        basepoint's.  The basepoint's cancels, and p's and q's are counted
        by the value of a path between them, so vec + b - a is both the gain
        of a closed walk and the residual.
        """
        n = len(word)
        base = self.find(0)
        i, p, a, p_back, a_back = self._walk(base, word, n)
        k, q, b, q_back, b_back = self._walk(base, map(neg, reversed(word)), n - i)
        j = n - k
        if i == j:
            if p == q:
                closed = _sub(_add(vec, b), a)
                if closed is not None and any(closed):
                    self.gained.append(closed)
                return
            if i:
                i, p, a = i - 1, p_back, a_back
            else:
                j, q, b = j + 1, q_back, b_back
        residual = _sub(_add(vec, b), a)
        arcs, vectors, out, work = self.arcs, self.vectors, self.out, self.work
        here = p
        for r in range(i, j):
            l = word[r]
            if r == j - 1:
                there, e = q, residual
            else:
                there, e = len(self.parent), None
                self.parent.append(there)
                self.pot.append(None)
                self.least.append(there)
                out.append({})
            x = len(arcs)
            if l > 0:
                arcs.append((here, l, there))
            else:
                arcs.append((there, -l, here))
                e = None if e is None else vec_neg(e)
            vectors.append(e)
            self.alive.append(True)
            for v, s in ((here, l), (there, -l)):
                if out[v].setdefault(s, x) != x:
                    work.append((x, v, s))
            here = there
        self.run()

    def result(self, basepoint: int):
        """(basepoint, arcs, kept, gained): the basepoint and the surviving
        arcs, each vertex named by the least vertex of its class, kept their
        indices in increasing order and gained the nonzero closed-fold
        vectors.  Survivors lie between roots, so only the basepoint is found."""
        least, arcs = self.least, self.arcs
        kept = [x for x, ok in enumerate(self.alive) if ok]
        named = [(least[o], k, least[t]) for o, k, t in map(arcs.__getitem__, kept)]
        return least[self.find(basepoint)], named, kept, self.gained


def _add(u: Optional[Vector], v: Optional[Vector]) -> Optional[Vector]:
    """vec_add with None for zero."""
    if u is None:
        return v
    return u if v is None else vec_add(u, v)


def _sub(u: Optional[Vector], v: Optional[Vector]) -> Optional[Vector]:
    return u if v is None else _add(u, vec_neg(v))


def fold(a: Automaton) -> Automaton:
    """Fold to a deterministic automaton recognizing the same subgroup."""
    basepoint, arcs, _, _ = _Folding(a.num_vertices, a.arcs).result(a.basepoint)
    return _compact(a.n, a.num_vertices, basepoint, arcs)


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


@dataclass(frozen=True)
class SpanningTree:
    """A finished breadth-first spanning tree plus the induced petal
    (cyclomatic) arc order: one whole _TreeSearch, frozen by _breadth_first
    for spanning_tree_by_order or, renumbered, by _renumbered, which
    _canonical_core and canonical_renumber end in; the search's parents,
    tree arcs and petals are then mapped to the new vertex and arc numbers."""

    root: int
    parent: tuple[Optional[tuple[int, int]], ...]  # vertex -> (arc index, direction)
    tree_arcs: frozenset[int]
    vertex_age: tuple[int, ...]  # insertion order -> vertex
    petal_arcs: tuple[int, ...]  # positive non-tree arcs, emission order


class _TreeSearch:
    """The one breadth-first spanning-tree search; it can be resumed.

    steps is a step map over the n letters, as Automaton._steps is, and may
    gain arcs between calls to resume.  A scanned vertex tries the letters
    directions(v) in turn: an arc reaching a new vertex joins the tree; any
    other non-tree arc is a petal, as it meets two visited vertices.
    vertices (in insertion order) and parent (vertex -> (arc index,
    direction), None at the root; its keys are the visited vertices)
    describe the tree; petals are returned, not kept."""

    def __init__(self, steps: dict, n: int, root: int,
                 directions: Callable[[int], Sequence[int]]):
        self.steps = steps
        self.width = 2 * n + 1
        self.directions = directions
        self.vertices = [root]
        self.parent: dict[int, Optional[tuple[int, int]]] = {root: None}
        self.tree_arcs: set[int] = set()

    def resume(self, start: int) -> list[int]:
        """Scan vertices[start:], the list growing by each vertex this adds;
        return the petals met, in the order met, each as often as met.  A
        whole search is resume(0).  Once arcs join steps, resuming at or
        before the oldest tree vertex they touch adds what resume(0) would:
        a vertex that no new arc touches reaches nothing new."""
        get, width, directions, order, parent, tree = (
            self.steps.get, self.width, self.directions, self.vertices, self.parent,
            self.tree_arcs)
        met = []
        i = start
        while i < len(order):  # order grows while it is read
            v = order[i]
            i += 1
            key = v * width
            for s in directions(v):
                nxt = get(key + s)
                if nxt is None:
                    continue
                w, arc_idx, d = nxt
                if w not in parent:
                    order.append(w)
                    parent[w] = (arc_idx, d)
                    tree.add(arc_idx)
                elif arc_idx not in tree:
                    met.append(arc_idx)
        return met


def _whole_search(steps: dict, n: int, root: int, directions: Callable[[int], Sequence[int]]):
    """A whole search of steps from root: (search, its petals in the order
    first met)."""
    search = _TreeSearch(steps, n, root, directions)
    return search, tuple(dict.fromkeys(search.resume(0)))


def _breadth_first(a: Automaton, directions: Callable[[int], Sequence[int]]) -> SpanningTree:
    """The spanning tree of a whole search of `a` from its basepoint; the
    petals are in the order first met."""
    search, petals = _whole_search(a._steps, a.n, a.basepoint, directions)
    if len(search.vertices) != a.num_vertices:
        raise ValueError("automaton is not connected")
    parent = tuple(map(search.parent.get, range(a.num_vertices)))
    return SpanningTree(a.basepoint, parent, frozenset(search.tree_arcs),
                        tuple(search.vertices), petals)


def _renumbered(n: int, steps: dict, search: _TreeSearch, petals: Sequence[int],
                kept: Sequence[int], order: tuple[int, ...]):
    """The automaton on the kept vertices, numbered as listed (search order,
    the root first), with every arc between two of them, and its spanning
    tree, the search's own, stored in its tree memo under order.

    Scanning each vertex's positive letters 1..n emits the arcs in (origin,
    letter) order, which is their sorted order.  Returns (automaton, tree,
    arc_map) with arc_map[new] = old arc index.
    """
    new = dict(zip(kept, range(len(kept)))).get
    arcs, arc_map, new_arc = [], [], {}
    get, width, letters = steps.get, 2 * n + 1, range(1, n + 1)
    for i, v in enumerate(kept):
        key = v * width
        for k in letters:
            nxt = get(key + k)
            if nxt is not None:
                j = new(nxt[0])
                if j is not None:
                    new_arc[nxt[1]] = len(arcs)
                    arcs.append((i, k, j))
                    arc_map.append(nxt[1])
    out = Automaton(n, len(kept), 0, tuple(arcs))
    parent = [None]
    for arc_idx, d in map(search.parent.__getitem__, kept[1:]):
        parent.append((new_arc[arc_idx], d))
    out._trees[order] = tree = SpanningTree(
        root=0,
        parent=tuple(parent),
        tree_arcs=frozenset(p[0] for p in parent[1:]),
        vertex_age=tuple(range(len(kept))),
        petal_arcs=tuple(map(new_arc.__getitem__, petals)),
    )
    return out, tree, tuple(arc_map)


def canonical_renumber(a: Automaton, order: Optional[Sequence[int]] = None):
    """Renumber vertices in breadth-first order from the basepoint; sort arcs.

    One search of `a` under `order` gives the numbering and the spanning tree
    of the renumbered automaton (vertex_age is 0..V-1), which is stored in
    its tree memo, so spanning_tree_by_order(automaton, order) returns it
    without searching again.  Returns (automaton, tree, arc_map) with
    arc_map[new] = old index.  Requires a deterministic connected automaton.
    This is _canonical_core without its pruning: the same search and the
    same emitting routine, _renumbered.
    """
    order = check_order(order, a.n)
    search, petals = _whole_search(a._steps, a.n, a.basepoint, lambda v: order)
    if len(search.vertices) != a.num_vertices:
        raise ValueError("automaton is not connected")
    return _renumbered(a.n, a._steps, search, petals, search.vertices, order)


def _canonical_core(n: int, basepoint: int, arcs: Sequence[Arc], steps: dict,
                    order: Optional[Sequence[int]]):
    """The core of the basepoint component, canonically renumbered under
    order; the one ending of folding, the product and the intersection.

    steps is the step map of arcs, which the caller builds (_step_map) or,
    as the expansion does, keeps as it appends the arcs.  One search from
    the basepoint: the core is the basepoint with every ancestor of a
    petal's ends (each petal closes a reduced closed walk through its ends'
    root paths, and a subtree holding no petal end hangs by one arc), and
    the search restricted to it is the search of the core alone, as a
    hanging tree is reached only through the vertex it hangs from.  So its
    tree and petals are the core's own.  Vertices off the basepoint
    component, such as folded-away classes, are never reached, so the
    vertex count need not be given.

    Returns (automaton, tree, kept) with kept[i] the index in arcs of the
    automaton's arc i.  ValueError unless all the arcs are deterministic,
    including those off the basepoint component (no caller builds such):
    two arcs leaving one vertex by one letter share a key of steps.
    """
    order = check_order(order, n)
    if len(steps) != 2 * len(arcs):
        raise ValueError("automaton is not deterministic")
    search, petals = _whole_search(steps, n, basepoint, lambda v: order)
    parent, in_core = search.parent, {basepoint}
    for x in petals:
        for v in (arcs[x][0], arcs[x][2]):
            while v not in in_core:
                in_core.add(v)
                arc_idx, d = parent[v]
                v = arcs[arc_idx][0 if d == 1 else 2]
    kept = [v for v in search.vertices if v in in_core]
    return _renumbered(n, steps, search, petals, kept, order)


def spanning_tree_by_order(
    a: Automaton, order: Optional[Sequence[int]] = None, strategy: str = "order"
) -> SpanningTree:
    """Grow the spanning tree breadth-first, trying directions in `order`.

    This realizes the rule "attach the smallest-labelled arc at the oldest
    tree vertex that does not close a cycle"; vertex age is insertion order.
    The tree of each checked order is kept in the automaton's memo, which
    canonical_renumber seeds, so a second call returns the same object.
    With strategy "first-seen" the directions at each vertex are tried in
    arc storage order instead of letter order; those trees are searched on
    every call and never memoized.
    """
    order = check_order(order, a.n)
    if strategy not in ("order", "first-seen"):
        raise ValueError(f"unknown tree strategy {strategy!r}")
    if strategy == "order":
        tree = a._trees.get(order)
        if tree is None:
            tree = a._trees[order] = _breadth_first(a, lambda v: order)
        return tree
    per_vertex: dict[int, list[int]] = {}
    for o, k, t in a.arcs:
        per_vertex.setdefault(o, []).append(k)
        per_vertex.setdefault(t, []).append(-k)
    return _breadth_first(a, lambda v: dict.fromkeys(per_vertex.get(v, ())))


def _root_paths(paths: dict, vertices: Iterable[int], parent, arcs: Sequence[Arc]) -> None:
    """Store the root-path word of each of vertices in paths, in turn: a walk
    up the parent map (vertex -> (arc index, direction)) stops at the
    nearest vertex whose word paths holds, and only the walk's start is
    stored (storing each word walked past costs walk^2)."""
    for v in vertices:
        letters, u = [], v
        while (path := paths.get(u)) is None:
            arc_idx, d = parent[u]
            o, k, t = arcs[arc_idx]
            letters.append(k * d)
            u = o if d == 1 else t
        if letters:
            paths[v] = path + tuple(reversed(letters))


def _petal_cut(paths, arc: Arc) -> Word:
    """An arc's petal word: root path of its origin, the arc, back from its target."""
    o, k, t = arc
    return paths[o] + (k,) + invert(paths[t])


def t_basis(a: Automaton, t: SpanningTree) -> list[Word]:
    """Petal words, in petal order; a free basis of the recognized subgroup.

    Root paths are found for petal ends only, oldest first.  A walk stops at
    the nearest ancestor that is an end too and is no longer than the path
    it yields, so time and memory stay within the length of the words.
    """
    arcs, paths = a.arcs, {t.root: ()}
    ends = {v for i in t.petal_arcs for v in (arcs[i][0], arcs[i][2])}
    _root_paths(paths, filter(ends.__contains__, t.vertex_age), t.parent, arcs)
    return [_petal_cut(paths, arcs[i]) for i in t.petal_arcs]


def recognizes(a: Automaton, w: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """The unique basepoint walk reading w, as (arc, direction) steps, or None."""
    word = free_reduce(w)
    if word and max(map(abs, word)) > a.n:  # its key would name another vertex's step
        return None
    get, width, v = a._steps.get, 2 * a.n + 1, a.basepoint
    walk = []
    for l in word:
        nxt = get(v * width + l)
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
    """True iff every vertex has an outgoing arc in every signed direction:
    iff the step map, one entry per arc end, has 2n entries per vertex."""
    return len(a._steps) == 2 * a.n * a.num_vertices


def schreier_transversal(
    a: Automaton, order: Optional[Sequence[int]] = None
) -> Iterator[Word]:
    """Coset representatives of the recognized subgroup, graded by length.

    Breadth-first over the Schreier graph: within the core automaton first,
    then down the hanging trees of missing directions, where every extension
    is a fresh coset.  Complete when the automaton is saturated; otherwise
    infinite, so truncate it with itertools.islice.
    """
    order = check_order(order, a.n)
    yield ()
    seen = {a.basepoint}
    queue: deque[tuple[Optional[int], Word]] = deque([(a.basepoint, ())])
    while queue:
        state, word = queue.popleft()
        for s in order:
            if state is None:
                if word and s == -word[-1]:
                    continue
                yield word + (s,)
                queue.append((None, word + (s,)))
                continue
            nxt = a.step(state, s)
            if nxt is None:
                yield word + (s,)
                queue.append((None, word + (s,)))
            elif nxt[0] not in seen:
                seen.add(nxt[0])
                yield word + (s,)
                queue.append((nxt[0], word + (s,)))


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
