import itertools
import random

import pytest
from support import is_deterministic, reference_tree, tree_petal_word

from stallings_fta.words import (
    Automaton,
    _canonical_core,
    _step_map,
    canonical_renumber,
    check_order,
    core,
    default_order,
    flower,
    fold,
    free_reduce,
    invert,
    is_saturated,
    multiply,
    product,
    recognizes,
    schreier_transversal,
    spanning_tree_by_order,
    t_basis,
    to_dot,
    word_coordinates,
    word_str,
)


def stallings_skeleton(n, words):
    return canonical_renumber(core(fold(flower(n, words))))[0] if words else (
        Automaton(n, 1, 0, ())
    )


def random_word(rng, n, maxlen):
    return free_reduce(
        rng.choice([k for k in range(-n, n + 1) if k]) for _ in range(rng.randint(0, maxlen))
    )


class TestWordOps:
    def test_reduce(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)

    def test_multiply(self):
        assert multiply((1, 2), (-2, 3)) == (1, 3)
        u = (1, -2, 1)
        assert multiply(u, invert(u)) == ()

    def test_invert(self):
        assert invert((1, -2)) == (2, -1)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0))


class TestFlowerAndFold:
    def test_single_loop(self):
        a = flower(2, [(1,)])
        assert a.num_vertices == 1 and a.arcs == ((0, 1, 0),)

    def test_two_letter_cycle(self):
        a = flower(2, [(1, 2)])
        assert a.num_vertices == 2
        assert recognizes(a, (1, 2)) is not None

    def test_conjugate_petal(self):
        a = flower(2, [(1,), (2, 1, -2)])
        assert recognizes(fold(a), (1,)) is not None
        assert recognizes(fold(a), (2, 1, -2)) is not None

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            flower(2, [()])

    def test_fold_merges_flower(self):
        # <x1, x1 x2> = F2: everything folds onto one vertex
        a = fold(flower(2, [(1,), (1, 2)]))
        assert a.num_vertices == 1
        for w in [(1,), (1, 2), (2,)]:
            assert recognizes(a, w) is not None

    def test_fold_fixed_point(self):
        a = stallings_skeleton(2, [(1, 2)])
        assert fold(a) == a

    def test_shared_prefix(self):
        a = fold(flower(3, [(1, 2), (1, 3)]))
        assert a.num_vertices == 2
        assert recognizes(a, (1, 2)) and recognizes(a, (1, 3))

    def test_fold_preserves_subgroup(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(1, 3)
            gens = [w for w in (random_word(rng, n, 6) for _ in range(rng.randint(1, 5))) if w]
            if not gens:
                continue
            a = fold(flower(n, gens))
            assert is_deterministic(a)
            for g in gens:
                assert recognizes(a, g) is not None
            # short products of generators stay recognized
            for u, v in itertools.product(gens, repeat=2):
                assert recognizes(a, multiply(u, v)) is not None

    def test_fold_confluence(self):
        # canonical renumbering erases the fold order; compare against the
        # fold of a shuffled, redundantly enlarged generating set
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = [w for w in (random_word(rng, n, 6) for _ in range(rng.randint(1, 4))) if w]
            if not gens:
                continue
            extra = [multiply(gens[0], g) for g in gens]
            shuffled = gens + [w for w in extra if w]
            rng.shuffle(shuffled)
            a = canonical_renumber(core(fold(flower(n, gens))))[0]
            b = canonical_renumber(core(fold(flower(n, shuffled))))[0]
            assert a == b


class TestCore:
    def test_core_fixed_point(self):
        a = stallings_skeleton(2, [(1,), (2,)])
        assert core(a) == a

    def test_dangling_path_removed(self):
        a = Automaton(2, 3, 0, ((0, 1, 0), (0, 2, 1), (1, 1, 2)))
        c = core(a)
        assert c.num_vertices == 1 and c.arcs == ((0, 1, 0),)

    def test_disconnected_dropped(self):
        a = Automaton(2, 3, 0, ((0, 1, 0), (1, 2, 2), (2, 1, 1)))
        c = core(a)
        assert c.num_vertices == 1


class TestSpanningTree:
    def test_single_vertex(self):
        a = Automaton(2, 1, 0, ())
        t = spanning_tree_by_order(a)
        assert t.tree_arcs == frozenset() and t.petal_arcs == ()

    def test_two_cycle_prefers_x1(self):
        a = stallings_skeleton(2, [(1, 2)])
        t = spanning_tree_by_order(a)
        (tree_arc,) = t.tree_arcs
        assert a.arcs[tree_arc][1] == 1

    def test_disconnected_rejected(self):
        a = Automaton(1, 2, 0, ())
        with pytest.raises(ValueError):
            spanning_tree_by_order(a)
        for b in (a, Automaton(1, 3, 0, ((0, 1, 0), (1, 1, 2)))):
            with pytest.raises(ValueError, match="not connected"):
                canonical_renumber(b)

    def test_order_may_put_an_inverse_first(self):
        assert check_order((-2, 2, -1, 1), 2) == (-2, 2, -1, 1)
        a = stallings_skeleton(2, [(1, 2)])
        t = spanning_tree_by_order(a, (-2, 2, -1, 1))
        (tree_arc,) = t.tree_arcs
        assert a.arcs[tree_arc][1] == 2
        for bad in ((1, 1, 2, -2), (1, -1, 2), (1, -1, 2, -2, 2), (1, -1, 2, 3)):
            with pytest.raises(ValueError):
                check_order(bad, 2)

    def test_petal_count_is_cyclomatic(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = [w for w in (random_word(rng, n, 6) for _ in range(rng.randint(1, 4))) if w]
            if not gens:
                continue
            a = stallings_skeleton(n, gens)
            t = spanning_tree_by_order(a)
            assert len(t.petal_arcs) == len(a.arcs) - a.num_vertices + 1
            for i, w in zip(t.petal_arcs, t_basis(a, t)):
                assert w == tree_petal_word(a.arcs, t.parent, i)
                assert free_reduce(w) == w
                assert recognizes(a, w) is not None


def random_automaton(rng, n, max_vertices=9, extra=6):
    """A deterministic connected automaton with a random basepoint and arc
    storage order: a random tree first, then arcs into free letter slots."""
    num = rng.randint(1, max_vertices)
    used, arcs = set(), []

    def add(o, s, t):
        if s < 0:
            o, s, t = t, -s, o
        if (o, s) in used or (t, -s) in used:
            return False
        used.update({(o, s), (t, -s)})
        arcs.append((o, s, t))
        return True

    signed = [s for k in range(1, n + 1) for s in (k, -k)]
    for v in range(1, num):
        while not add(rng.randrange(v), rng.choice(signed), v):
            pass
    for _ in range(extra):
        add(rng.randrange(num), rng.choice(signed), rng.randrange(num))
    perm = list(range(num))
    rng.shuffle(perm)
    rng.shuffle(arcs)
    return Automaton(n, num, perm[0], tuple((perm[o], k, perm[t]) for o, k, t in arcs))


def as_tuple(t):
    return t.root, t.parent, t.tree_arcs, t.vertex_age, t.petal_arcs


def fresh(a):
    return Automaton(a.n, a.num_vertices, a.basepoint, a.arcs)


class TestTreeFromRenumbering:
    @staticmethod
    def cases(count=240):
        """Seeded random automata of ranks 1-3, half under a permuted order."""
        rng = random.Random(11)
        for i in range(count):
            n = 1 + i % 3
            order = None
            if i % 2:
                order = list(default_order(n))
                rng.shuffle(order)
            yield random_automaton(rng, n), order

    def test_renumbering_tree_is_the_search_of_a_fresh_copy(self):
        for a, order in self.cases():
            b, tree, arc_map = canonical_renumber(a, order)
            assert tree == spanning_tree_by_order(fresh(b), order)
            assert as_tuple(tree) == reference_tree(fresh(b), check_order(order, a.n))
            assert tree.vertex_age == tuple(range(b.num_vertices))
            assert sorted(arc_map) == list(range(len(a.arcs)))
            assert spanning_tree_by_order(b, order) is tree

    def test_search_matches_two_pass_reference(self):
        for a, order in self.cases():
            checked = check_order(order, a.n)
            for strategy in ("order", "first-seen"):
                t = spanning_tree_by_order(fresh(a), order, strategy)
                assert as_tuple(t) == reference_tree(a, checked, strategy)

    def test_second_call_returns_the_same_tree(self):
        for a, order in self.cases(60):
            a = fresh(a)
            t = spanning_tree_by_order(a, order)
            assert spanning_tree_by_order(a, order) is t
            assert spanning_tree_by_order(a, check_order(order, a.n)) is t

    def test_first_seen_trees_bypass_the_memo(self):
        for a, order in self.cases(60):
            a = fresh(a)
            expected = reference_tree(a, check_order(order, a.n), "first-seen")
            t = spanning_tree_by_order(a, order, "first-seen")
            assert as_tuple(t) == expected
            assert a._trees == {}
            a._trees[check_order(order, a.n)] = "memo"
            again = spanning_tree_by_order(a, order, "first-seen")
            assert again is not t and as_tuple(again) == expected


def with_hanging_tree_and_second_component(rng, n):
    """random_automaton plus a hanging path of 1-3 arcs and a disjoint second
    random automaton, vertices renumbered and arcs shuffled at random."""
    while True:
        a = random_automaton(rng, n)
        used = {(o, k) for o, k, _ in a.arcs} | {(t, -k) for _, k, t in a.arcs}
        free = [(v, s) for v in range(a.num_vertices)
                for s in default_order(n) if (v, s) not in used]
        if free:
            break
    num, arcs = a.num_vertices, list(a.arcs)
    v, s = rng.choice(free)
    for _ in range(rng.randint(1, 3)):
        arcs.append((v, s, num) if s > 0 else (num, -s, v))
        v, s, num = num, rng.choice([l for l in default_order(n) if l != -s]), num + 1
    b = random_automaton(rng, n)
    arcs += [(o + num, k, t + num) for o, k, t in b.arcs]
    num += b.num_vertices
    perm = list(range(num))
    rng.shuffle(perm)
    rng.shuffle(arcs)
    return Automaton(n, num, perm[a.basepoint], tuple((perm[o], k, perm[t]) for o, k, t in arcs))


class _Growing:
    """The arcs of a deterministic automaton, grown one arc at a time."""

    def __init__(self, a):
        self.n, self.num, self.basepoint = a.n, a.num_vertices, a.basepoint
        self.arcs = list(a.arcs)
        self.used = {(o, k) for o, k, _ in a.arcs} | {(t, -k) for _, k, t in a.arcs}

    def free(self, v):
        return [s for s in default_order(self.n) if (v, s) not in self.used]

    def add(self, o, s, t):
        """Add the arc o -s-> t; its two letter slots must be free."""
        if s < 0:
            o, s, t = t, -s, o
        assert (o, s) not in self.used and (t, -s) not in self.used
        self.used.update({(o, s), (t, -s)})
        self.arcs.append((o, s, t))

    def path(self, rng, v, length):
        """A path of length arcs from v through fresh vertices; its far end."""
        for _ in range(length):
            self.add(v, rng.choice(self.free(v)), self.num)
            v, self.num = self.num, self.num + 1
        return v

    def automaton(self, rng, second):
        """These arcs and a disjoint copy of second, vertices renumbered and
        arcs shuffled at random."""
        arcs = self.arcs + [(o + self.num, k, t + self.num) for o, k, t in second.arcs]
        perm = list(range(self.num + second.num_vertices))
        rng.shuffle(perm)
        rng.shuffle(arcs)
        return Automaton(self.n, len(perm), perm[self.basepoint],
                         tuple((perm[o], k, perm[t]) for o, k, t in arcs))


def with_stem_loops_and_trees(rng, n):
    """A random automaton with a cycle, grown at free letter slots: a new
    basepoint on a stem of 1-3 arcs (so of degree 1), one to three loops,
    and two or three hanging trees on one vertex, one of them branching;
    then a disjoint second random automaton.  n >= 2: a cycle of x1 alone
    leaves no slot for a stem."""
    while True:
        g = _Growing(random_automaton(rng, n, extra=8))
        stem = [v for v in range(g.num) if g.free(v)]
        if len(g.arcs) >= g.num and stem:  # a cycle for the stem to lead to
            break
    g.basepoint = g.path(rng, rng.choice(stem), rng.randint(1, 3))
    loops = [(v, s) for v in range(g.num) for s in range(1, n + 1)
             if v != g.basepoint and not {(v, s), (v, -s)} & g.used]
    for v, s in rng.sample(loops, min(len(loops), rng.randint(1, 3))):
        g.add(v, s, v)
    roots = [v for v in range(g.num) if v != g.basepoint and len(g.free(v)) >= 2]
    if roots:
        root = rng.choice(roots)
        ends = [g.path(rng, root, rng.randint(1, 3)) for _ in range(min(3, len(g.free(root))))]
        g.path(rng, ends[0], rng.randint(1, 2))  # from a leaf, so the tree branches
    return g.automaton(rng, random_automaton(rng, n))


def renumbered_by_reference(a, order):
    """a renumbered in the order of reference_tree's search under the
    checked order, arcs sorted, and that tree renumbered alike (as_tuple)."""
    _, parent, tree, ages, petals = reference_tree(a, order)
    new = {v: i for i, v in enumerate(ages)}
    arcs = sorted((new[o], k, new[t], x) for x, (o, k, t) in enumerate(a.arcs))
    new_arc = {x: i for i, (_, _, _, x) in enumerate(arcs)}
    out = Automaton(a.n, len(ages), 0, tuple(arc[:3] for arc in arcs))
    tree_parent = tuple(None if parent[v] is None else (new_arc[parent[v][0]], parent[v][1])
                        for v in ages)
    return out, (0, tree_parent, frozenset(map(new_arc.get, tree)),
                 tuple(range(len(ages))), tuple(map(new_arc.get, petals)))


def degree(a, v):
    return sum((o == v) + (t == v) for o, _, t in a.arcs)


class TestCanonicalCore:
    @staticmethod
    def cases(seed, make, count=240, ranks=(1, 2, 3)):
        """Seeded automata from make, half under a permuted order."""
        rng = random.Random(seed)
        for i in range(count):
            n = ranks[i % len(ranks)]
            order = None
            if i % 2:
                order = list(default_order(n))
                rng.shuffle(order)
            yield make(rng, n), order

    def check(self, a, order):
        """_canonical_core against core() renumbered by the reference search;
        returns the output automaton."""
        out, tree, kept = _canonical_core(a.n, a.basepoint, a.arcs, _step_map(a.n, a.arcs), order)
        expected, expected_tree = renumbered_by_reference(core(a), check_order(order, a.n))
        assert out == expected and as_tuple(tree) == expected_tree
        assert spanning_tree_by_order(out, order) is tree
        assert len(kept) == len(out.arcs) < len(a.arcs)
        old = {out.basepoint: a.basepoint}  # output vertex -> input vertex
        for (o, k, t), x in zip(out.arcs, kept):
            o2, k2, t2 = a.arcs[x]
            assert k == k2
            assert old.setdefault(o, o2) == o2 and old.setdefault(t, t2) == t2
        assert len(set(old.values())) == len(old) == out.num_vertices
        return out

    def test_is_the_renumbered_core_and_keeps_arc_provenance(self):
        for a, order in self.cases(23, with_hanging_tree_and_second_component):
            self.check(a, order)

    def test_keeps_a_basepoint_stem_and_loops_and_prunes_many_trees(self):
        stems = loops = 0
        for a, order in self.cases(29, with_stem_loops_and_trees, ranks=(2, 3)):
            assert degree(a, a.basepoint) == 1
            out = self.check(a, order)
            stems += degree(out, 0) == 1
            loops += any(o == t for o, _, t in out.arcs)
        assert stems == 240 and loops >= 200

    def test_nondeterministic_arcs_are_rejected(self):
        # also off the basepoint component, which no constructor builds
        rng = random.Random(31)
        for i in range(60):
            n = 1 + i % 3
            g = _Growing(random_automaton(rng, n))
            clash = rng.choice(g.arcs) if g.arcs and i % 2 else (g.num, 1, g.num + 1)
            if clash[0] == g.num:  # a second component of two arcs x1 out of one vertex
                g.arcs += [clash, (g.num, 1, g.num + 2)]
                g.num += 3
            else:
                o, k, _ = clash
                g.arcs.append((o, k, g.num))
                g.num += 1
            a = g.automaton(rng, Automaton(n, 1, 0, ()))
            steps, width = {}, 2 * n + 1  # as _step_map builds it, with no check
            for x, (o, k, t) in enumerate(a.arcs):
                steps[o * width + k], steps[t * width - k] = (t, x, 1), (o, x, -1)
            with pytest.raises(ValueError, match="not deterministic"):
                _canonical_core(n, a.basepoint, a.arcs, steps, None)
            with pytest.raises(ValueError, match="not deterministic"):
                _step_map(n, a.arcs)
            with pytest.raises(ValueError, match="not deterministic"):
                canonical_renumber(a)


class TestBasisAndCoordinates:
    def test_bouquet(self):
        a = stallings_skeleton(2, [(1,), (2,)])
        t = spanning_tree_by_order(a)
        assert t_basis(a, t) == [(1,), (2,)]

    def test_basis_generates_same_subgroup(self):
        gens = [(1, 1), (2, 1)]
        a = stallings_skeleton(2, gens)
        t = spanning_tree_by_order(a)
        basis = t_basis(a, t)
        b = stallings_skeleton(2, basis)
        assert canonical_renumber(a)[0] == canonical_renumber(b)[0]

    def test_walk_and_coordinates(self):
        a = stallings_skeleton(2, [(1,)])
        t = spanning_tree_by_order(a)
        assert word_coordinates(a, t, (1, 1, 1)) == (3,)
        assert recognizes(a, (2,)) is None
        with pytest.raises(ValueError):
            word_coordinates(a, t, (2,))

    def test_conjugate_coordinates(self):
        a = stallings_skeleton(2, [(1,), (2,)])
        t = spanning_tree_by_order(a)
        assert word_coordinates(a, t, (1, 2, -1)) == (0, 1)


class TestProduct:
    def test_identity_factor(self):
        full = stallings_skeleton(2, [(1,), (2,)])
        a = stallings_skeleton(2, [(1, 2)])
        p = canonical_renumber(core(product(a, full)))[0]
        assert p == canonical_renumber(a)[0]

    def test_power_loops(self):
        a = stallings_skeleton(1, [(1, 1)])
        b = stallings_skeleton(1, [(1, 1, 1)])
        p = core(product(a, b))
        assert p.num_vertices == 6
        assert recognizes(p, (1,) * 6) is not None
        assert recognizes(p, (1,) * 3) is None

    def test_membership_iff_both(self):
        rng = random.Random(4)
        for _ in range(30):
            n = 2
            g1 = [w for w in (random_word(rng, n, 4) for _ in range(2)) if w]
            g2 = [w for w in (random_word(rng, n, 4) for _ in range(2)) if w]
            if not g1 or not g2:
                continue
            a1, a2 = stallings_skeleton(n, g1), stallings_skeleton(n, g2)
            p = core(product(a1, a2))
            for _ in range(20):
                w = random_word(rng, n, 8)
                both = recognizes(a1, w) is not None and recognizes(a2, w) is not None
                assert (recognizes(p, w) is not None) == both


class TestSaturationTransversal:
    def test_full_group(self):
        a = stallings_skeleton(2, [(1,), (2,)])
        assert is_saturated(a)
        assert list(schreier_transversal(a)) == [()]

    def test_index_two(self):
        a = stallings_skeleton(2, [(1, 1), (2,), (1, 2, -1)])
        assert is_saturated(a)
        assert list(schreier_transversal(a)) == [(), (1,)]

    def test_saturation_is_every_step_present(self):
        rng = random.Random(11)
        seen = set()
        for n in (1, 2, 3):
            for _ in range(40):
                # Schreier generators of a subgroup of index size, some dropped
                size = rng.randint(1, 4)
                acts = [[(i + 1) % size for i in range(size)]]
                acts += [rng.sample(range(size), size) for _ in range(n - 1)]
                words = [free_reduce([1] * i + [k] + [-1] * act[i])
                         for i in range(size) for k, act in enumerate(acts, 1)]
                a = stallings_skeleton(n, [w for w in words if w and rng.random() < 0.8])
                every = all(a.step(v, s) is not None
                            for v in range(a.num_vertices) for s in default_order(n))
                assert is_saturated(a) == every
                seen.add((every, a.num_vertices > 1))
        assert len(seen) == 4

    def test_saturation_of_a_nondeterministic_automaton_raises(self):
        with pytest.raises(ValueError, match="not deterministic"):
            is_saturated(Automaton(2, 2, 0, ((0, 1, 0), (0, 1, 1), (1, 2, 1))))

    def test_infinite_stream(self):
        a = stallings_skeleton(2, [(2,)])
        assert not is_saturated(a)
        stream = list(itertools.islice(schreier_transversal(a), 6))
        assert stream[:3] == [(), (1,), (-1,)]
        assert [len(w) for w in stream] == sorted(len(w) for w in stream)
        # pairwise inequivalent cosets of <x2>: w u^-1 never recognized
        for u, v in itertools.combinations(stream, 2):
            assert recognizes(a, multiply(u, invert(v))) is None


class TestRendering:
    def test_word_str(self):
        assert word_str(()) == "1"
        assert word_str((1, 1, -2)) == "x1^2 x2^-1"

    def test_dot_contains_arcs(self):
        a = stallings_skeleton(2, [(1, 2)])
        dot = to_dot(a)
        assert "doublecircle" in dot and "x1" in dot and dot.count("->") == 2
