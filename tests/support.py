"""Shared generators and fixtures for the test suite (deterministic seeds)."""

from stallings_fta.abelian import (
    AbelianSpec,
    _hnf_inplace,
    _solve_hnf,
    snf,
    vec_add,
    vec_mat,
    vec_neg,
    vec_sub,
)
from stallings_fta.enriched import Ambient, _normalized, stallings
from stallings_fta.syntax import format_element, format_group
from stallings_fta.words import (
    _add,
    _canonical_core,
    _step_map,
    _sub,
    free_reduce,
    invert,
    recognizes,
)

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


def reference_completion(e, w):
    """completion(e, w) read crossing by crossing: each arc's lab2 - lab1
    forward and its negation backward, summed along the basepoint walk
    that reads w; None where no such walk exists."""
    walk = recognizes(e.skeleton, w)
    if walk is None:
        return None
    total = e.ambient.zero()
    for arc_idx, d in walk:
        lab1, lab2 = e.labels[arc_idx]
        diff = vec_sub(lab2, lab1)
        total = vec_add(total, diff if d == 1 else vec_neg(diff))
    return e.base.reduce_mod(total), e.base


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
    skeleton, tree, kept = _canonical_core(report.ambient.n, sk.basepoint, sk.arcs, sk._steps,
                                           report.order)
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


def coset_presentation(rng, ambient, size):
    """A redundant presentation of an index-size subgroup, as the benchmark's
    build workload makes them: the Schreier generators x1^i x_k x1^-j (x1
    acting as a size-cycle, the other letters as seeded permutations), each
    with a seeded tail vector, then products of two of them, inverses and
    t^K-shifted copies, and t^K itself, all shuffled."""
    acts = [[(i + 1) % size for i in range(size)]]
    acts += [rng.sample(range(size), size) for _ in range(ambient.n - 1)]
    gens = []
    for i in range(size):
        for k, act in enumerate(acts, 1):
            word = free_reduce([1] * i + [k] + [-1] * act[i])
            if word:
                gens.append(ambient.element(word, _tail(rng, ambient)))
    shift = tuple(rng.randint(2, 4) for _ in range(ambient.m))
    for _ in range(len(gens)):
        a, b = rng.choice(gens), rng.choice(gens)
        roll = rng.random()
        if roll < 0.4:
            g = ambient.multiply(a, b if rng.random() < 0.5 else ambient.invert(b))
        elif roll < 0.7:
            g = ambient.invert(a)
        else:
            g = ambient.element(a.word, tuple(x + rng.randint(-1, 1) * d
                                              for x, d in zip(a.vec, shift)))
        gens.append(g)
    gens.append(ambient.element((), shift))
    rng.shuffle(gens)
    return gens


def _tail(rng, ambient):
    return tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(ambient.m))


def check_folding(folding):
    """Assert the slot invariant of a words._Folding whose run() has returned:
    the worklist is empty; every live arc sits in the slots of both its
    ends, and both ends are roots; every slot belongs to a root and holds a
    live arc of its letter whose end on that side is the slot's class."""
    parent, out, arcs, alive = folding.parent, folding.out, folding.arcs, folding.alive
    assert not folding.work
    for x, (o, k, t) in enumerate(arcs):
        if alive[x]:
            assert parent[o] == o and parent[t] == t, (x, arcs[x])
            assert out[o].get(k) == x and out[t].get(-k) == x, (x, arcs[x])
    for v, slots in enumerate(out):
        assert (slots is not None) == (parent[v] == v), v
        for s, x in (slots or {}).items():
            assert alive[x] and arcs[x][1] == abs(s), (v, s, x)
            assert arcs[x][0 if s > 0 else 2] == v, (v, s, arcs[x])


class ReferenceFolding:
    """Oracle for words._Folding: the same union-find, worklist and fold
    order, but no arc end is ever moved and no arc vector rewritten.  So a
    walk finds both ends of each arc it crosses and adds their potentials,
    read_word adds the potentials of the two classes its new path joins,
    and result finds every vertex and reads each survivor's value through
    the potentials of both its ends."""

    def __init__(self, num_vertices, arcs, vectors=None):
        self.parent = list(range(num_vertices))
        self.pot = [None] * num_vertices
        self.least = list(range(num_vertices))
        self.out = [{} for _ in range(num_vertices)]
        self.arcs = list(arcs)
        self.vectors = vectors
        self.alive = [True] * len(self.arcs)
        self.gained = []
        self.work = [(x, v, s) for x, (o, k, t) in enumerate(self.arcs)
                     for v, s in ((o, k), (t, -k))]
        self.run()

    def find(self, v):
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        for u in reversed(path[:-1]):
            self.pot[u] = _add(self.pot[u], self.pot[self.parent[u]])
            self.parent[u] = v
        return v

    def potential(self, v):
        root = self.find(v)
        return self.pot[v] if v == root else _add(self.pot[v], self.pot[root])

    def read(self, x, s):
        """The vector read crossing arc x in direction s, potentials included."""
        o, _, t = self.arcs[x]
        e = self.vectors[x]
        if s < 0:
            o, t = t, o
            e = None if e is None else vec_neg(e)
        return _sub(_add(e, self.potential(t)), self.potential(o))

    def run(self):
        out, arcs, pot, work = self.out, self.arcs, self.pot, self.work
        while work:
            a, v, s = work.pop()
            if not self.alive[a]:
                continue
            slots = out[self.find(v)]
            b = slots.setdefault(s, a)
            if b == a:
                continue
            i, j = (a, b) if a < b else (b, a)
            slots[s] = i
            self.alive[j] = False
            end = 2 if s > 0 else 0
            ri, rj = self.find(arcs[i][end]), self.find(arcs[j][end])
            if out[rj].get(-s) == j:
                del out[rj][-s]
            c = None if self.vectors is None else _sub(self.read(i, s), self.read(j, s))
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
            for s2, x in out[rj].items():
                if out[ri].setdefault(s2, x) != x:
                    work.append((x, ri, s2))
            out[rj] = None

    def _walk(self, v, letters, stop):
        """(steps, end class, value, class and value one step earlier)."""
        value = before = back = None
        steps = 0
        for s in letters:
            if steps == stop:
                break
            x = self.out[v].get(s)
            if x is None:
                break
            back, before = v, value
            o, _, t = self.arcs[x]
            value = _add(value, self.read(x, s))
            v = self.find(t if s > 0 else o)
            steps += 1
        return steps, v, value, back, before

    def read_word(self, word, vec):
        n = len(word)
        base = self.find(0)
        i, p, a, p_back, a_back = self._walk(base, word, n)
        k, q, b, q_back, b_back = self._walk(base, [-l for l in reversed(word)], n - i)
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
        residual = _sub(_add(_add(vec, b), self.potential(p)), _add(a, self.potential(q)))
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
                self.out.append({})
            x = len(self.arcs)
            if l > 0:
                self.arcs.append((here, l, there))
            else:
                self.arcs.append((there, -l, here))
                e = None if e is None else vec_neg(e)
            self.vectors.append(e)
            self.alive.append(True)
            for v, s in ((here, l), (there, -l)):
                if self.out[v].setdefault(s, x) != x:
                    self.work.append((x, v, s))
            here = there
        self.run()

    def result(self):
        """(rep, kept, gained): rep[v] is the least vertex of v's class."""
        rep = [self.least[self.find(v)] for v in range(len(self.parent))]
        return rep, [x for x, ok in enumerate(self.alive) if ok], self.gained


def reference_folded_core(ambient, folding, basepoint, order):
    """enriched._folded_core on a ReferenceFolding: every vertex found, and
    each survivor read through its ends' potentials."""
    rep, kept, gained = folding.result()
    named = [(rep[o], k, rep[t]) for o, k, t in (folding.arcs[x] for x in kept)]
    skeleton, tree, survivors = _canonical_core(
        ambient.n, rep[basepoint], named, _step_map(ambient.n, named), order)
    return skeleton, tree, [folding.read(kept[i], 1) for i in survivors], gained
