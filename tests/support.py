"""Shared generators and fixtures for the test suite (deterministic seeds)."""

from stallings_fta.abelian import AbelianSpec, vec_add, vec_sub
from stallings_fta.enriched import Ambient, stallings
from stallings_fta.words import invert, recognizes

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
