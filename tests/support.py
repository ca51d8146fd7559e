"""Shared generators and fixtures for the test suite (deterministic seeds)."""

import re
from collections import deque
from typing import Optional, Sequence

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
from stallings_fta.syntax import (
    MAX_WORD_LETTERS,
    ProblemParseError,
    _literal,
    format_element,
    format_group,
)
from stallings_fta.words import (
    Arc,
    Automaton,
    _add,
    _canonical_core,
    _step_map,
    _sub,
    free_reduce,
    invert,
)

F2Z = Ambient(2, AbelianSpec(1))
F2Z2 = Ambient(2, AbelianSpec(2))
# the abelian parts the lattice-layer tests run over: free, torsion and mixed
LATTICE_SPECS = {
    "Z": AbelianSpec(1),
    "Z^2": AbelianSpec(2),
    "Z^3": AbelianSpec(3),
    "Z+Z6": AbelianSpec(1, (6,)),
    "Z2+Z4": AbelianSpec(0, (2, 4)),
}


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


def reference_walk(a, w):
    """The basepoint walk reading w, free-reduced first, as (arc, direction)
    steps, one per letter, or None; ValueError on the letter 0."""
    v = a.basepoint
    walk = []
    for l in free_reduce(w):
        nxt = a.step(v, l)  # None for a letter above n too
        if nxt is None:
            return None
        v, arc_idx, d = nxt
        walk.append((arc_idx, d))
    return walk if v == a.basepoint else None


def reference_counts(a, w):
    """The nonzero signed net crossing counts of reference_walk, by arc, or None."""
    walk = reference_walk(a, w)
    if walk is None:
        return None
    counts = {}
    for arc_idx, d in walk:
        counts[arc_idx] = counts.get(arc_idx, 0) + d
    return {arc_idx: c for arc_idx, c in counts.items() if c}


def gets_stuck(a, w):
    """True iff reading w letter by letter from the basepoint of a, with no
    reduction, meets a letter that cannot be read where it stands."""
    v = a.basepoint
    for l in w:
        nxt = a.step(v, l)
        if nxt is None:
            return True
        v = nxt[0]
    return False


def unreduced_word(rng, n, petals=()):
    """Up to three words of petals, concatenated as they are, with one to
    three runs of up to three letters inserted at seeded places.  Most runs
    are followed by their inverse, so they cancel, their letters nesting;
    the others stay.  Runs draw on the letters +-1..+-(n + 1), so some
    letters lie above n."""
    out = []
    for _ in range(rng.randint(0, 3) if petals else 0):
        out += rng.choice(petals)
    letters = [k for k in range(-n - 1, n + 2) if k]
    for _ in range(rng.randint(1, 3)):
        run = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.8:
            run += invert(run)
        i = rng.randint(0, len(out))
        out[i:i] = run
    return tuple(out)


def reference_completion(e, w):
    """completion(e, w) read crossing by crossing: each arc's lab2 - lab1
    forward and its negation backward, summed along the basepoint walk
    that reads w; None where no such walk exists."""
    walk = reference_walk(e.skeleton, w)
    if walk is None:
        return None
    total = e.ambient.zero()
    for arc_idx, d in walk:
        lab1, lab2 = e.labels[arc_idx]
        diff = vec_sub(lab2, lab1)
        total = vec_add(total, diff if d == 1 else vec_neg(diff))
    return e.base.reduce_mod(total), e.base


# the oracle of words._canonical_core: an adjacency-list pruning that also
# accepts nondeterministic arcs
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
    used = sorted({a.basepoint} | {o for o, _, _ in arcs} | {t for _, _, t in arcs})
    remap = {v: i for i, v in enumerate(used)}
    return Automaton(a.n, len(used), remap[a.basepoint],
                     tuple((remap[o], k, remap[t]) for o, k, t in arcs))


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
    walk = reference_walk(x.skeleton, w)
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
    pivots = _hnf_inplace(g)
    dec = snf([_solve_hnf(pivots, row) for row in l.lattice_basis], len(pivots))
    factors = dec.deltas_padded(len(pivots))
    keep = [j for j, d in enumerate(factors) if d != 1]
    deltas = (1,) * (len(d_rows) - len(keep)) + tuple(factors[j] for j in keep)
    gens = []
    for row in d_rows:
        y = vec_mat(_solve_hnf(pivots, row), dec.Q, len(pivots))
        gens.append(tuple(y[j] % factors[j] if factors[j] else y[j] for j in keep))
    return deltas, tuple(gens)


def reference_solve_hnf(pivots: dict[int, Sequence[int]], target: Sequence[int]) -> Optional[list[int]]:
    """Some x with x @ (the pivot rows) == target, for the pivot map of a
    Hermite form; None if target is not in its row space."""
    resid = list(target)
    coeff = []
    for c, row in pivots.items():
        q, rem = divmod(resid[c], row[c])
        if rem:
            return None
        coeff.append(q)
        if q:
            for j in range(c, len(row)):
                resid[j] -= q * row[j]
    if any(resid):
        return None
    return coeff


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


# Unicode whitespace that separates tokens; parse_problem's splitlines breaks
# none of these
SEPARATORS = (" ", "  ", "\t", "\u00a0", "\u2003", "\u3000")
NON_ASCII_DIGITS = ("\u0661", "\u0663", "\u0966", "\uff13")  # Arabic-Indic, Devanagari, fullwidth
LONG_LITERAL = "7" * 4400  # past the interpreter's integer-string limit


def letter_tokens(rng, ambient):
    """One or two valid word tokens: 1, a generator, a power from -5 to 5
    (zero included, leading zeros sometimes), or a run that cancels across
    two tokens (x1^3 x1^-5)."""
    k = rng.randint(1, ambient.n)
    roll = rng.random()
    if roll < 0.1:
        return ["1"]
    if roll < 0.3:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        sign = rng.choice(("", "-"))
        return [f"x{k}^{sign}{a}", f"x{k}^{'' if sign else '-'}{b}"]
    if roll < 0.55:
        return [f"x{k}"]
    zeros = "0" * rng.choice((0, 0, 0, 1, 2))
    return [f"x{zeros}{k}^{rng.randint(-5, 5)}"]


def cancelling_tokens(rng, ambient):
    """A run of two to five one-letter tokens x_k (or x_k^-1), then either
    one letter that cancels the last of the run ("one") or a power of the
    inverse letter that cancels part of the run, all of it, or one past it
    ("power").  Returns (tokens, kind)."""
    k, sign = rng.randint(1, ambient.n), rng.choice((1, -1))
    run = [f"x{k}" if sign == 1 else f"x{k}^-1"] * rng.randint(2, 5)
    if rng.random() < 0.5:
        return run + [f"x{k}^{-sign}"], "one"
    return run + [f"x{k}^{-sign * rng.randint(2, len(run) + 1)}"], "power"


def tail_token(rng, ambient):
    """A valid abelian tail: t^k when m = 1 (half the time), else t^(...),
    which is t^() when m = 0; torsion coordinates fall outside [0, d)."""
    coords = [rng.randint(-20, 20) for _ in range(ambient.m)]
    if ambient.m == 1 and rng.random() < 0.5:
        return f"t^{coords[0]}"
    return "t^(" + ",".join(map(str, coords)) + ")"


def element_tokens(rng, ambient, max_groups=6):
    """The tokens of a valid element: up to max_groups draws of letter_tokens,
    then a tail six times in ten."""
    tokens = []
    for _ in range(rng.randint(0, max_groups)):
        tokens += letter_tokens(rng, ambient)
    if rng.random() < 0.6:
        tokens.append(tail_token(rng, ambient))
    return tokens


def mutated_token(rng, ambient):
    """A token the syntax rejects, or reads other than it looks: a digit of
    another script, a truncated power or tail, an oversized literal, a
    generator out of range, a tail of the wrong length, or a stray word."""
    k = rng.randint(1, ambient.n)
    kind = rng.randrange(7)
    if kind == 0:
        token = rng.choice((f"x{k}", f"x{k}^{rng.randint(-5, 5)}", tail_token(rng, ambient)))
        digits = [i for i, ch in enumerate(token) if ch.isdigit()]
        if not digits:
            return "t^" + rng.choice(NON_ASCII_DIGITS)
        i = rng.choice(digits)
        return token[:i] + rng.choice(NON_ASCII_DIGITS) + token[i + 1:]
    if kind == 1:
        return rng.choice((f"x{k}^", f"x{k}^-", "x", "t^", "t^(", "t^(1,)", "t^(,1)",
                           "t^-", "t^(1", "t^1)"))
    if kind == 2:
        return rng.choice((f"x{LONG_LITERAL}", f"x{k}^{LONG_LITERAL}", f"x{k}^-{LONG_LITERAL}",
                           f"t^{LONG_LITERAL}", f"t^(-{LONG_LITERAL}" + ",0" * (ambient.m - 1) + ")"))
    if kind == 3:
        return rng.choice(("x0", f"x{ambient.n + rng.randint(1, 3)}^-2", f"x00{ambient.n + 1}"))
    if kind == 4:
        wrong = rng.choice([c for c in range(4) if c != ambient.m])
        return "t^(" + ",".join(str(rng.randint(-3, 3)) for _ in range(wrong)) + ")"
    if kind == 5:
        return rng.choice(("X1", "y1", "x-1", "x+1", f"x{k}^+2", "t^(--1)", "1x", "11", "t",
                           "t^(1 ", f"x{k}^2^3"))
    return rng.choice(("1", f"x{k}^0", tail_token(rng, ambient)))


def joined(rng, tokens, glue=0.0):
    """Tokens joined by seeded Unicode separators, at the rate glue by none
    (x1x2, x1t^1), with leading and trailing ones."""
    text = rng.choice(("",) + SEPARATORS)
    for i, token in enumerate(tokens):
        if i:
            text += "" if rng.random() < glue else rng.choice(SEPARATORS)
        text += token
    return text + rng.choice(("",) + SEPARATORS)


# The text syntax before elements were read in one pass, for differential
# tests: one regex try per token kind after a whitespace scan, the word
# reduced afterwards by Ambient.element, and a per-character comma split.
_REFERENCE_LETTER_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$", re.ASCII)
_REFERENCE_VECTOR_RE = re.compile(r"t\^(?:\((-?\d+(?:,-?\d+)*)?\)|(-?\d+))$", re.ASCII)


def reference_parse_element(text, ambient, line, col_base, budget):
    """(element, letters read before free reduction), as syntax._parse_element."""
    word = []
    vec = None
    for match in re.finditer(r"\S+", text):
        token = match.group()
        col = col_base + match.start() + 1
        if vec is not None:
            raise ProblemParseError("abelian tail must come last", line, col)
        if token == "1":
            continue
        m = _REFERENCE_LETTER_RE.match(token)
        if m:
            idx = _literal(m.group(1), line, col)
            if not (1 <= idx <= ambient.n):
                raise ProblemParseError(
                    f"generator x{idx} out of range (free rank {ambient.n})", line, col
                )
            exp = _literal(m.group(2), line, col) if m.group(2) is not None else 1
            if len(word) + abs(exp) > budget:
                raise ProblemParseError(
                    f"more than {MAX_WORD_LETTERS} letters before free reduction", line, col
                )
            word.extend([idx if exp > 0 else -idx] * abs(exp))
            continue
        m = _REFERENCE_VECTOR_RE.match(token)
        if m:
            if m.group(2) is not None:
                coords = (_literal(m.group(2), line, col),)
            elif m.group(1):
                coords = tuple(_literal(p, line, col) for p in m.group(1).split(","))
            else:
                coords = ()
            if len(coords) != ambient.m:
                raise ProblemParseError(
                    f"abelian vector has {len(coords)} coordinates, expected {ambient.m}",
                    line,
                    col,
                )
            vec = coords
            continue
        raise ProblemParseError(f"cannot read token {token!r}", line, col)
    return ambient.element(word, vec if vec is not None else ambient.zero()), len(word)


def reference_split_outside_parens(text):
    """Split on commas at parenthesis depth 0; yields (chunk, start offset)."""
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            yield text[start:i], start
            start = i + 1
    yield text[start:], start


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
