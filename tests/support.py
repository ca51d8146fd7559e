"""Shared generators and fixtures for the test suite (deterministic seeds)."""

from stallings_fta.abelian import (
    AbelianSpec,
    _hnf_inplace,
    _solve_hnf,
    snf,
    vec_add,
    vec_mat,
    vec_sub,
)
from stallings_fta.enriched import Ambient, _normalized, stallings
from stallings_fta.syntax import format_element, format_group
from stallings_fta.words import _canonical_core, invert, recognizes

F2Z = Ambient(2, AbelianSpec(1))
F2Z2 = Ambient(2, AbelianSpec(2))


def elements(ambient, *pairs):
    return [ambient.element(w, v) for w, v in pairs]


def moldavanski_pair():
    h1 = stallings(F2Z, elements(F2Z, ((1,), (1,)), ((2,), ())))
    h2 = stallings(F2Z, elements(F2Z, ((1,), ()), ((2,), ())))
    return h1, h2


def parameterized_pair(a, d, l1_gens, l2_gens):
    """H1 = <x^3 t^a, yx, y^3 x y^-2, t^L1>, H2 = <x^2 t^d, yxy^-1, t^L2>."""
    h1_gens = elements(
        F2Z2,
        ((1, 1, 1), a),
        ((2, 1), (0, 0)),
        ((2, 2, 2, 1, -2, -2), (0, 0)),
    ) + [F2Z2.element((), g) for g in l1_gens]
    h2_gens = elements(F2Z2, ((1, 1), d), ((2, 1, -2), (0, 0))) + [
        F2Z2.element((), g) for g in l2_gens
    ]
    return stallings(F2Z2, h1_gens), stallings(F2Z2, h2_gens)


def random_element(rng, ambient, maxlen=3, maxcoord=2):
    word = [
        rng.choice([k for k in range(-ambient.n, ambient.n + 1) if k])
        for _ in range(rng.randint(0, maxlen))
    ]
    vec = tuple(rng.randint(-maxcoord, maxcoord) for _ in range(ambient.m))
    return ambient.element(word, vec)


def random_subgroup_gens(rng, ambient, max_gens=3, maxlen=3, maxcoord=2,
                         abelian_chance=0.4):
    gens = [
        random_element(rng, ambient, maxlen, maxcoord)
        for _ in range(rng.randint(1, max_gens))
    ]
    if rng.random() < abelian_chance:
        vec = tuple(rng.randint(-maxcoord, maxcoord) for _ in range(ambient.m))
        gens.append(ambient.element((), vec))
    return gens


def conjugator_word(letter, v, w):
    """x1^v * letter * x1^-w: maps coset x1^v to coset x1^w."""
    return tuple([1] * v + [letter] + [-1] * w)


def tree_petal_word(arcs, parent, arc_idx):
    """Oracle for petal words: walk both root paths up the parent map
    (vertex -> (arc index, direction), None at the root) anew for each petal."""

    def walk(v):
        out = []
        while parent[v] is not None:
            i, d = parent[v]
            o, k, t = arcs[i]
            out.append(k * d)
            v = o if d == 1 else t
        out.reverse()
        return tuple(out)

    o, k, t = arcs[arc_idx]
    return walk(o) + (k,) + invert(walk(t))


def reference_tree(a, order, strategy="order"):
    """Two breadth-first passes, one for the tree and one for the petals."""
    if strategy == "order":
        directions = {v: order for v in range(a.num_vertices)}
    else:
        directions = {v: [] for v in range(a.num_vertices)}
        for o, k, t in a.arcs:
            directions[o].append(k)
            directions[t].append(-k)
        directions = {v: list(dict.fromkeys(ds)) for v, ds in directions.items()}
    parent = [None] * a.num_vertices
    ages, tree = [a.basepoint], set()
    for v in ages:
        for s in directions[v]:
            nxt = a.step(v, s)
            if nxt is not None and nxt[0] not in ages:
                parent[nxt[0]] = nxt[1:]
                tree.add(nxt[1])
                ages.append(nxt[0])
    petals = []
    for v in ages:
        for s in directions[v]:
            nxt = a.step(v, s)
            if nxt is not None and nxt[1] not in tree and nxt[1] not in petals:
                petals.append(nxt[1])
    return a.basepoint, tuple(parent), frozenset(tree), tuple(ages), tuple(petals)


def is_deterministic(a):
    """True iff no two arcs leave a vertex of automaton a by the same signed letter."""
    try:
        a._steps
    except ValueError:
        return False
    return True


def mat_mul(a, b):
    """Product of integer matrices given as sequences of rows."""
    b = [tuple(row) for row in b]
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for coeff, brow in zip(row, b):
            if coeff:
                for j in range(cols):
                    acc[j] += coeff * brow[j]
        out.append(tuple(acc))
    return tuple(out)


def doubly_completion(x, w):
    """Pair of abelian sums read along the basepoint walk for w in the
    doubly-enriched automaton x, or None."""
    walk = recognizes(x.skeleton, w)
    if walk is None:
        return None
    b1 = b2 = x.ambient.zero()
    for arc_idx, d in walk:
        for labels, acc in ((x.labels1, 1), (x.labels2, 2)):
            lab1, lab2 = labels[arc_idx]
            diff = vec_sub(lab2, lab1) if d == 1 else vec_sub(lab1, lab2)
            if acc == 1:
                b1 = vec_add(b1, diff)
            else:
                b2 = vec_add(b2, diff)
    return b1, b2


def fg_by_stages(report):
    """Reference for intersect_fg: the report's stream run to completion, the
    core of its last stage canonically renumbered and T-normalized, its
    arcs keeping the labels the stream equalized them to."""
    for stage in report.stages():
        pass
    last = stage.automaton
    sk = last.skeleton
    skeleton, tree, kept = _canonical_core(report.ambient.n, sk.basepoint, sk.arcs, report.order)
    # the stream labels every arc (0, value)
    return _normalized(report.ambient, skeleton, tree, [last.labels[x][1] for x in kept],
                       last.base)


def image_invariants_by_row(l, d_rows):
    """Oracle for abelian.image_invariants: the Hermite form of [D; L] with
    every row of D, and one solve per row of D, repeated or not."""
    m = l.spec.m
    g = [list(row) for row in d_rows] + [list(row) for row in l.lattice_basis]
    pivots = _hnf_inplace(g, m)
    dec = snf([_solve_hnf(pivots, row) for row in l.lattice_basis], len(pivots))
    factors = dec.deltas_padded(len(pivots))
    keep = [j for j, d in enumerate(factors) if d != 1]
    deltas = (1,) * (len(d_rows) - len(keep)) + tuple(factors[j] for j in keep)
    gens = []
    for row in d_rows:
        y = vec_mat(_solve_hnf(pivots, row), dec.Q, len(pivots))
        gens.append(tuple(y[j] % factors[j] if factors[j] else y[j] for j in keep))
    return deltas, tuple(gens)


class RowCayleyBall:
    """Oracle for intersection._CayleyBall: deltas in any order, and two
    reductions per row at every vertex, repeated and zero rows included;
    plus[v][i] and minus[v][i] are the numbers of v + row_i and v - row_i."""

    def __init__(self, deltas, q_rows):
        self.deltas = tuple(deltas)
        self.gens = [tuple(a % d if d else a for a, d in zip(row, self.deltas)) for row in q_rows]
        zero = (0,) * len(self.deltas)
        self.elements = [zero]
        self.index = {zero: 0}
        self.plus, self.minus = [], []
        self.sphere = range(0, 1)

    def _number(self, vec):
        v = self.index.get(vec)
        if v is None:
            v = self.index[vec] = len(self.elements)
            self.elements.append(vec)
        return v

    def grow(self):
        """v + row_i and then v - row_i for each row in turn."""
        deltas = self.deltas
        for v in self.sphere:
            vec = self.elements[v]
            plus, minus = [], []
            for g in self.gens:
                plus.append(self._number(tuple(
                    (a + b) % d if d else a + b for a, b, d in zip(vec, g, deltas))))
                minus.append(self._number(tuple(
                    (a - b) % d if d else a - b for a, b, d in zip(vec, g, deltas))))
            self.plus.append(tuple(plus))
            self.minus.append(tuple(minus))
        self.sphere = range(self.sphere.stop, len(self.elements))


def cayley_by_row(deltas, q_rows, radius=None):
    """Oracle for intersection.cayley_multidigraph, on RowCayleyBall."""
    ball = RowCayleyBall(deltas, q_rows)
    grown = 0
    while ball.sphere and (radius is None or grown <= radius):
        ball.grow()
        grown += 1
    size = ball.sphere.start
    arcs = tuple((v, i + 1, w)
                 for v in range(size) for i, w in enumerate(ball.plus[v]) if w < size)
    return (len(deltas), size, 0, arcs), tuple(ball.elements[:size])


def format_problem(problem):
    """The problem-file text of a ProblemFile, for parse round-trips."""
    lines = [f"group {format_group(problem.ambient)}"]
    for name, gens in problem.subgroups:
        lines.append(f"{name}: " + ", ".join(format_element(g) for g in gens))
    return "\n".join(lines) + "\n"
