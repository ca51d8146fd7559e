"""Free-group words and involutive pointed automata over letters x1..xn.

A signed letter is a nonzero int: +k for x_k, -k for its inverse.  Words are
freely reduced tuples of signed letters.  Automata store only their positive
arcs; every arc (origin, k, target) with k in 1..n can also be crossed
backwards reading -k.  The basepoint is the unique initial/accepting vertex.

Spanning trees come from one resumable breadth-first search, _TreeSearch,
run whole for a finished automaton and resumed by the intersection's
expansion stream; both cut petal words from root paths found by _root_path.
Folding, the product and the intersection end in _canonical_core.
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
    return tuple(-l for l in reversed(u))


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
    def _steps(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """(vertex, signed letter) -> (target, arc index, direction); requires determinism."""
        out: dict[tuple[int, int], tuple[int, int, int]] = {}
        for idx, (o, k, t) in enumerate(self.arcs):
            for key, val in (((o, k), (t, idx, 1)), ((t, -k), (o, idx, -1))):
                if key in out:
                    raise ValueError("automaton is not deterministic")
                out[key] = val
        return out

    @cached_property
    def _trees(self) -> dict[tuple[int, ...], SpanningTree]:
        """Spanning trees by checked letter order; see spanning_tree_by_order."""
        return {}

    def step(self, vertex: int, letter: int):
        return self._steps.get((vertex, letter))


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
    parent.  Let e be the vector read along an arc in the fold's direction,
    potentials included.  An open fold of arc j onto arc i adds e_i - e_j
    to the class of j's target; a closed fold gains e_j - e_i for the
    basepoint subgroup.  No arc vector is rewritten.

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

    def potential(self, v: int) -> Optional[Vector]:
        root = self.find(v)
        return self.pot[v] if v == root else _add(self.pot[v], self.pot[root])

    def read(self, x: int, s: int) -> Optional[Vector]:
        """The vector read crossing arc x in direction s, potentials included."""
        o, _, t = self.arcs[x]
        e = self.vectors[x]
        if s < 0:
            o, t = t, o
            if e is not None:
                e = vec_neg(e)
        return _sub(_add(e, self.potential(t)), self.potential(o))

    def run(self) -> None:
        """Fold until no two arcs leave one class by the same signed letter."""
        find, out, arcs, alive, pot, work = (
            self.find, self.out, self.arcs, self.alive, self.pot, self.work)
        read = self.read if self.vectors is not None else None
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
            c = _sub(read(i, s), read(j, s)) if read is not None else None
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
                if big.setdefault(s2, x) != x:
                    work.append((x, ri, s2))
            out[rj] = None

    def _walk(self, v: int, letters: Iterable[int], stop: int):
        """Follow letters from class v while they read, at most stop of them.

        Returns (steps, end class, value, class and value one step earlier).
        """
        find, out, arcs, read = self.find, self.out, self.arcs, self.read
        value = before = back = None
        steps = 0
        for s in letters:
            if steps == stop:
                break
            x = out[v].get(s)
            if x is None:
                break
            back, before = v, value
            value = _add(value, read(x, s))
            v = find(arcs[x][2] if s > 0 else arcs[x][0])
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
        # a root may carry a potential too: the new path reads from p to q
        residual = _sub(_add(_add(vec, b), self.potential(p)), _add(a, self.potential(q)))
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

    def result(self):
        """(rep, kept, gained): rep[v] is the least vertex of v's class, kept
        the surviving arc indices in increasing order, gained the nonzero
        closed-fold vectors.  read(x, 1) gives a survivor's vector."""
        rep = [self.least[self.find(v)] for v in range(len(self.parent))]
        kept = [x for x, ok in enumerate(self.alive) if ok]
        return rep, kept, self.gained


def _add(u: Optional[Vector], v: Optional[Vector]) -> Optional[Vector]:
    """vec_add with None for zero."""
    if u is None:
        return v
    return u if v is None else vec_add(u, v)


def _sub(u: Optional[Vector], v: Optional[Vector]) -> Optional[Vector]:
    return u if v is None else _add(u, vec_neg(v))


def fold(a: Automaton) -> Automaton:
    """Fold to a deterministic automaton recognizing the same subgroup."""
    rep, kept, _ = _Folding(a.num_vertices, a.arcs).result()
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


@dataclass(frozen=True)
class SpanningTree:
    """A finished breadth-first spanning tree plus the induced petal
    (cyclomatic) arc order: one whole _TreeSearch, frozen by _breadth_first
    for spanning_tree_by_order or, renumbered, by canonical_renumber."""

    root: int
    parent: tuple[Optional[tuple[int, int]], ...]  # vertex -> (arc index, direction)
    tree_arcs: frozenset[int]
    vertex_age: tuple[int, ...]  # insertion order -> vertex
    petal_arcs: tuple[int, ...]  # positive non-tree arcs, emission order


class _TreeSearch:
    """The one breadth-first spanning-tree search; it can be resumed.

    steps maps (vertex, signed letter) to (target, arc index, direction), as
    Automaton._steps does, and may gain arcs between calls to extend.  A
    scanned vertex tries the letters directions(v) in turn: an arc reaching
    a new vertex joins the tree; any other non-tree arc is a petal, as it
    meets two visited vertices.  age (vertex -> insertion index), vertices
    (in that order) and parent (vertex -> (arc index, direction), None at
    the root) describe the tree; petals are returned, not kept."""

    def __init__(self, steps: dict, root: int, directions: Callable[[int], Sequence[int]]):
        self.steps = steps
        self.directions = directions
        self.age = {root: 0}
        self.vertices = [root]
        self.parent: dict[int, Optional[tuple[int, int]]] = {root: None}
        self.tree_arcs: set[int] = set()

    def extend(self, vertices: Iterable[int]) -> list[int]:
        """Scan the given vertices that are in the tree, oldest first, then
        each vertex this adds; return the petals met, in the order met, each
        as often as met.  Once arcs join steps, only the tree vertices they
        touch can reach anything new, so resuming from those adds what
        resuming from every vertex would."""
        steps, directions, age, order, parent, tree = (
            self.steps, self.directions, self.age, self.vertices, self.parent, self.tree_arcs)
        met = []
        queue = sorted((v for v in vertices if v in age), key=age.__getitem__)
        for v in queue:  # queue grows while it is read
            for s in directions(v):
                nxt = steps.get((v, s))
                if nxt is None:
                    continue
                w, arc_idx, d = nxt
                if w not in age:
                    age[w] = len(order)
                    order.append(w)
                    parent[w] = (arc_idx, d)
                    tree.add(arc_idx)
                    queue.append(w)
                elif arc_idx not in tree:
                    met.append(arc_idx)
        return met


def _breadth_first(a: Automaton, directions: Callable[[int], Sequence[int]]) -> SpanningTree:
    """The spanning tree of a whole search of `a` from its basepoint; the
    petals are in the order first met."""
    search = _TreeSearch(a._steps, a.basepoint, directions)
    petals = tuple(dict.fromkeys(search.extend((a.basepoint,))))
    if len(search.vertices) != a.num_vertices:
        raise ValueError("automaton is not connected")
    parent = tuple(map(search.parent.get, range(a.num_vertices)))
    return SpanningTree(a.basepoint, parent, frozenset(search.tree_arcs),
                        tuple(search.vertices), petals)


def canonical_renumber(a: Automaton, order: Optional[Sequence[int]] = None):
    """Renumber vertices in breadth-first order from the basepoint; sort arcs.

    One search of `a` under `order` gives the numbering and the spanning tree
    of the renumbered automaton (vertex_age is 0..V-1), which is stored in
    its tree memo, so spanning_tree_by_order(automaton, order) returns it
    without searching again.  Returns (automaton, tree, arc_map) with
    arc_map[new] = old index.  Requires a deterministic connected automaton.
    """
    order = check_order(order, a.n)
    found = _breadth_first(a, lambda v: order)
    new = [0] * a.num_vertices
    for i, v in enumerate(found.vertex_age):
        new[v] = i
    renumbered = [(new[o], k, new[t]) for o, k, t in a.arcs]
    arc_map = sorted(range(len(renumbered)), key=renumbered.__getitem__)
    new_arc = [0] * len(arc_map)
    for i, x in enumerate(arc_map):
        new_arc[x] = i
    out = Automaton(a.n, a.num_vertices, 0, tuple(renumbered[x] for x in arc_map))
    parent = [found.parent[v] for v in found.vertex_age]
    out._trees[order] = tree = SpanningTree(
        root=0,
        parent=tuple(None if p is None else (new_arc[p[0]], p[1]) for p in parent),
        tree_arcs=frozenset(new_arc[x] for x in found.tree_arcs),
        vertex_age=tuple(range(a.num_vertices)),
        petal_arcs=tuple(new_arc[x] for x in found.petal_arcs),
    )
    return out, tree, tuple(arc_map)


def _canonical_core(n: int, num_vertices: int, basepoint: int, arcs: Sequence[Arc],
                    order: Optional[Sequence[int]]):
    """The core of the basepoint component, canonically renumbered under
    order; the one ending of folding, the product and the intersection.

    Returns (automaton, tree, kept) with kept[i] the index in arcs of the
    automaton's arc i.  The arcs must be deterministic on that component.
    """
    _, core_arcs = _core_keep(num_vertices, basepoint, arcs)
    a = _compact(n, num_vertices, basepoint, [arcs[x] for x in core_arcs])
    a, tree, arc_map = canonical_renumber(a, order)
    return a, tree, tuple(core_arcs[i] for i in arc_map)


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


def _root_path(paths: dict, v: int, parent, arcs: Sequence[Arc]) -> Word:
    """v's root-path word: walks up the parent map (vertex -> (arc index,
    direction)) from v to the nearest vertex whose word paths holds, and
    stores v's word alone there (storing each word walked past costs walk^2)."""
    letters, u = [], v
    while (path := paths.get(u)) is None:
        arc_idx, d = parent[u]
        o, k, t = arcs[arc_idx]
        letters.append(k * d)
        u = o if d == 1 else t
    if letters:
        path = paths[v] = path + tuple(reversed(letters))
    return path


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
    for v in filter(ends.__contains__, t.vertex_age):
        _root_path(paths, v, t.parent, arcs)
    return [_petal_cut(paths, arcs[i]) for i in t.petal_arcs]


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
