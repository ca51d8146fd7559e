import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from support import is_deterministic, parameterized_pair, random_subgroup_gens

from stallings_fta import enriched, words
from stallings_fta.abelian import INFINITY, AbelianSpec, AbelianSubgroup
from stallings_fta.enriched import (
    Ambient,
    GroupElement,
    arc_transformation,
    basis,
    closed_fold,
    completion,
    completion_table,
    enriched_flower,
    finite_index_factor_extension,
    index_report,
    member,
    normalize,
    open_fold,
    reduce,
    stallings,
    to_dot,
    transversal_stream,
    vertex_transformation,
)
from stallings_fta.intersection import intersect_fg
from stallings_fta.words import (
    canonical_renumber,
    core,
    flower,
    fold,
    multiply,
    spanning_tree_by_order,
)

F2Z = Ambient(2, AbelianSpec(1))
F2Z2 = Ambient(2, AbelianSpec(2))


def elems(ambient, *pairs):
    return [ambient.element(w, v) for w, v in pairs]


def brute_membership_oracle(ambient, gens, target, depth=5):
    """BFS over products of <= depth generators and inverses."""
    seed = [ambient.identity()]
    gens = list(gens) + [ambient.invert(g) for g in gens]
    seen = {(g.word, g.vec) for g in seed}
    frontier = seed
    for _ in range(depth):
        nxt = []
        for h in frontier:
            for g in gens:
                prod = ambient.multiply(h, g)
                key = (prod.word, prod.vec)
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
        frontier = nxt
    return (target.word, target.vec) in seen


def random_element(rng, ambient, maxlen=4, maxcoord=2):
    word = []
    for _ in range(rng.randint(0, maxlen)):
        word.append(rng.choice([k for k in range(-ambient.n, ambient.n + 1) if k]))
    vec = tuple(rng.randint(-maxcoord, maxcoord) for _ in range(ambient.m))
    return ambient.element(word, vec)


class TestFlower:
    def test_moldavanski_h1(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), (0,))))
        assert e.skeleton.num_vertices == 1
        assert len(e.skeleton.arcs) == 2
        byletter = {arc[1]: lab for arc, lab in zip(e.skeleton.arcs, e.labels)}
        assert byletter[1] == ((0,), (1,))
        assert byletter[2] == ((0,), (0,))
        assert e.base == AbelianSubgroup.trivial(F2Z.abelian)

    def test_purely_abelian_generator(self):
        e = enriched_flower(F2Z2, elems(F2Z2, ((), (0, 6))))
        assert e.skeleton.num_vertices == 1
        assert e.base == AbelianSubgroup.from_generators(F2Z2.abelian, [(0, 6)])

    def test_empty(self):
        e = enriched_flower(F2Z, [])
        assert e.skeleton.num_vertices == 1
        assert e.base == AbelianSubgroup.trivial(F2Z.abelian)

    def test_identity_dropped(self):
        e = enriched_flower(F2Z, [F2Z.identity()])
        assert len(e.skeleton.arcs) == 0 and e.base.lattice_basis == ()


class TestTransformations:
    def setup_method(self):
        self.e = stallings(F2Z2, elems(F2Z2, ((1,), (1, 0)), ((2, 1, -2), (0, 1))))
        self.sample = elems(
            F2Z2,
            ((1,), (1, 0)),
            ((2, 1, -2), (0, 1)),
            ((1, 2, 1, -2), (1, 1)),
            ((1,), (0, 0)),
            ((2,), (0, 0)),
        )

    def test_zero_is_identity(self):
        assert vertex_transformation(self.e, 0, (0, 0)) == self.e
        assert arc_transformation(self.e, 0, (0, 0)) == self.e

    def test_membership_preserved(self):
        rng = random.Random(0)
        e = self.e
        for _ in range(40):
            c = tuple(rng.randint(-3, 3) for _ in range(2))
            if rng.random() < 0.5:
                e = vertex_transformation(e, rng.randrange(e.skeleton.num_vertices), c)
            else:
                e = arc_transformation(e, rng.randrange(len(e.labels)), c)
            for g in self.sample:
                assert member(e, g) == member(self.e, g)

    def test_loop_arc_transformation_keeps_subgroup(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (3,))))
        e2 = arc_transformation(e, 0, (5,))
        assert e2.labels[0] == ((5,), (8,))
        assert member(e2, F2Z.element((1,), (3,)))
        assert not member(e2, F2Z.element((1,), (2,)))


class TestFolds:
    def test_parallel_loops_closed(self):
        # two x-loops reading x t^(1,0) and x t^(0,1): L gains (1,-1)
        amb = F2Z2
        flower = enriched_flower(amb, elems(amb, ((1,), (1, 0)), ((1,), (0, 1))))
        e = reduce(flower)
        assert len(e.skeleton.arcs) == 1
        assert e.base == AbelianSubgroup.from_generators(amb.abelian, [(1, -1)])
        norm = normalize(e, spanning_tree_by_order(e.skeleton))
        assert member(norm, amb.element((1,), (1, 0)))
        assert member(norm, amb.element((1,), (0, 1)))
        assert not member(norm, amb.element((1,), (1, 1)))

    def test_explicit_closed_fold_identical_labels(self):
        amb = F2Z
        flower = enriched_flower(amb, elems(amb, ((1,), (2,)), ((1,), (2,))))
        folded = closed_fold(flower, 0, 1)
        assert folded.base == AbelianSubgroup.trivial(amb.abelian)

    def test_explicit_open_fold(self):
        amb = F2Z
        flower = enriched_flower(amb, elems(amb, ((1, 2), (1,)), ((1, 1), (0,))))
        # both petals start with an x1 arc from the basepoint
        i, j = [idx for idx, arc in enumerate(flower.skeleton.arcs) if arc[0] == 0 and arc[1] == 1]
        folded = open_fold(flower, i, j)
        for g in elems(amb, ((1, 2), (1,)), ((1, 1), (0,))):
            assert member(reduce(folded), g) == member(reduce(flower), g)

    def test_open_fold_precondition(self):
        amb = F2Z
        flower = enriched_flower(amb, elems(amb, ((1,), (0,)), ((1,), (1,))))
        with pytest.raises(ValueError):
            open_fold(flower, 0, 1)  # parallel loops: closed, not open

    def test_random_fold_steps_preserve_membership(self):
        # one manual open or closed fold, then reduce: membership of the
        # generating sample never changes
        rng = random.Random(21)
        for _ in range(40):
            gens = [random_element(rng, F2Z2, maxlen=4) for _ in range(3)]
            gens = [g for g in gens if g.word]
            if not gens:
                continue
            flower = enriched_flower(F2Z2, gens)
            pairs = [
                (i, j)
                for i, j in itertools.combinations(range(len(flower.skeleton.arcs)), 2)
                if flower.skeleton.arcs[i][:2] == flower.skeleton.arcs[j][:2]
            ]
            if not pairs:
                continue
            i, j = pairs[rng.randrange(len(pairs))]
            if flower.skeleton.arcs[i][2] == flower.skeleton.arcs[j][2]:
                stepped = closed_fold(flower, i, j)
            else:
                stepped = open_fold(flower, i, j)
            before = reduce(flower)
            after = reduce(stepped)
            for g in gens:
                assert member(after, g) == member(before, g) == True


def flip_letter(e, k):
    """Store every x_k arc the other way round: (o, k, t) with labels (a, b)
    becomes (t, k, o) with (b, a).  Each label stays at its vertex, so two
    x_k arcs sharing a target now share an origin, and flipping twice is the
    identity."""
    arcs, labels = [], []
    for (o, kk, t), (a, b) in zip(e.skeleton.arcs, e.labels):
        if kk == k:
            o, t, a, b = t, o, b, a
        arcs.append((o, kk, t))
        labels.append((a, b))
    return replace(e, skeleton=replace(e.skeleton, arcs=tuple(arcs)), labels=tuple(labels))


def fold_by_paper_steps(e):
    """open_fold/closed_fold on the first foldable pair until deterministic."""
    while True:
        arcs = e.skeleton.arcs
        for i, j in itertools.combinations(range(len(arcs)), 2):
            (oi, ki, ti), (oj, kj, tj) = arcs[i], arcs[j]
            if ki != kj:
                continue
            if oi == oj:
                e = closed_fold(e, i, j) if ti == tj else open_fold(e, i, j)
                break
            if ti == tj:  # the inverse arcs share their origin
                e = flip_letter(open_fold(flip_letter(e, ki), i, j), ki)
                break
        else:
            return e


class TestFoldEngineAgainstPaperSteps:
    @pytest.mark.parametrize("ambient", [F2Z2, Ambient(2, AbelianSpec(1, (6,)))])
    def test_random_flowers(self, ambient):
        rng = random.Random(33)
        for _ in range(60):
            gens = [random_element(rng, ambient, maxlen=5) for _ in range(rng.randint(1, 4))]
            stepped = fold_by_paper_steps(enriched_flower(ambient, gens))
            assert is_deterministic(stepped.skeleton)
            e = reduce(stepped)  # deterministic already: core and renumbering only
            assert normalize(e, spanning_tree_by_order(e.skeleton)) == stallings(ambient, gens)
            plain = flower(ambient.n, [g.word for g in gens if g.word])
            folded = reduce(enriched_flower(ambient, gens))
            assert canonical_renumber(core(fold(plain)))[0] == folded.skeleton


def flower_reference(ambient, gens, order=None):
    """The paper's construction: fold the whole flower, then normalize."""
    e = reduce(enriched_flower(ambient, gens), order)
    return normalize(e, spanning_tree_by_order(e.skeleton, order))


def folding_of(monkeypatch):
    """Record the folding state each stallings() call ends with."""
    seen = []
    real = words._Folding.result

    def result(self):
        seen.append(self)
        return real(self)

    monkeypatch.setattr(words._Folding, "result", result)
    return seen


READ_AMBIENTS = [
    Ambient(2, AbelianSpec(1)),
    Ambient(3, AbelianSpec(2)),
    Ambient(2, AbelianSpec(1, (6,))),
    Ambient(2, AbelianSpec(0, (2, 4))),
]


class TestStallingsReadsGenerators:
    """stallings() reads each generator into the folded graph instead of
    folding a flower; its value must be the flower construction's."""

    @pytest.mark.parametrize("ambient", READ_AMBIENTS, ids=["F2xZ", "F3xZ2", "F2xZ+Z6", "F2xZ2+Z4"])
    def test_random_sets_match_flower(self, ambient):
        rng = random.Random(f"read:{ambient}")
        for trial in range(250):
            gens = random_subgroup_gens(rng, ambient, max_gens=4, maxlen=6)
            for a, b in itertools.combinations(list(gens), 2):
                if rng.random() < 0.3:  # products read partly or wholly
                    gens.append(ambient.multiply(a, ambient.invert(b)))
            rng.shuffle(gens)
            order = None
            if trial % 2:
                order = list(words.default_order(ambient.n))
                rng.shuffle(order)
            assert stallings(ambient, gens, order) == flower_reference(ambient, gens, order)

    @pytest.mark.parametrize("ambient", READ_AMBIENTS, ids=["F2xZ", "F3xZ2", "F2xZ+Z6", "F2xZ2+Z4"])
    def test_reduce_labels_each_arc_by_its_value(self, ambient):
        rng = random.Random(f"reduce-values:{ambient}")
        zero = ambient.zero()
        for _ in range(60):
            gens = random_subgroup_gens(rng, ambient, max_gens=4, maxlen=6)
            order = list(words.default_order(ambient.n))
            rng.shuffle(order)
            e = reduce(enriched_flower(ambient, gens), order)
            assert all(lab1 == zero for lab1, _ in e.labels)
            canonical = stallings(ambient, gens, order)
            assert normalize(e, spanning_tree_by_order(e.skeleton, order)) == canonical
            assert completion_table(e, 4) == completion_table(canonical, 4)

    def test_schreier_basis_needs_no_fold(self, monkeypatch):
        # index 2 in F2, transversal {1, x1}: every arc read in survives
        gens = elems(F2Z, ((1, 1), (1,)), ((2,), (0,)), ((1, 2, -1), (2,)))
        seen = folding_of(monkeypatch)
        e = stallings(F2Z, gens)
        (folding,) = seen
        assert e == flower_reference(F2Z, gens)
        assert all(folding.alive) and not folding.gained
        assert len(folding.arcs) == len(e.skeleton.arcs) == 4

    def test_closed_walk_only_grows_base(self, monkeypatch):
        gens = elems(F2Z, ((1,), (1,)), ((1, 1), (5,)), ((-1,), (2,)))
        seen = folding_of(monkeypatch)
        e = stallings(F2Z, gens)
        (folding,) = seen
        assert e == flower_reference(F2Z, gens)
        assert len(folding.arcs) == 1  # x1^2 and x1^-1 read on the first arc
        assert e.base == AbelianSubgroup.from_generators(F2Z.abelian, [(3,)])

    def test_full_read_off_basepoint_cascades(self, monkeypatch):
        # x1 reads along the triangle of x1^3 to a vertex that is not the
        # basepoint; its last letter gets a new arc, whose fold collapses it
        gens = elems(F2Z, ((1, 1, 1), (1,)), ((2, 1, -2), (0,)), ((1,), (0,)))
        seen = folding_of(monkeypatch)
        e = stallings(F2Z, gens)
        (folding,) = seen
        assert e == flower_reference(F2Z, gens)
        assert e == stallings(F2Z, elems(F2Z, ((1,), (0,)), ((2, 1, -2), (0,)), ((), (1,))))
        assert len(folding.arcs) == 3 + 3 + 1 and not all(folding.alive)
        assert e.skeleton.num_vertices == 2

    def test_repeated_and_inverse_generators_with_torsion(self):
        amb = Ambient(2, AbelianSpec(0, (2, 4)))
        g = amb.element((1, 2), (1, 1))
        gens = [g, g, amb.invert(g), amb.element((-2, -1), (0, 1)), amb.element((-2, -1), (1, 3))]
        e = stallings(amb, gens)
        assert e == flower_reference(amb, gens)
        assert e == stallings(amb, [g, amb.element((), (1, 2))])
        assert e.base == AbelianSubgroup.from_generators(amb.abelian, [(1, 2)])
        assert len(e.skeleton.arcs) == 2

    def test_seam_at_a_root_with_potential(self):
        # the first two generators fold x2 x1^3 x2^-1 and x2 x1^-1 x2^-1 so
        # that the class reached by x2 is a root carrying a potential; the
        # third generator's new arc starts there
        amb = Ambient(2, AbelianSpec(1, (6,)))
        gens = elems(amb, ((2, 1, 1, 1, -2), (-1, 5)), ((2, -1, -2), (-1, 5)), ((2, 1), (1, 4)))
        e = stallings(amb, gens)
        assert e == flower_reference(amb, gens)
        assert dict(zip((k for _, k, _ in e.skeleton.arcs), e.labels))[2] == ((0, 0), (0, 3))

    @pytest.mark.parametrize("word", [(1, 0), (0,), (3,), (1, -3), (2, 1, 4)])
    def test_letter_out_of_range(self, word):
        with pytest.raises(ValueError, match="out of range"):
            stallings(F2Z, [F2Z.element((1,)), GroupElement(word, (0,))])

    def test_vector_of_wrong_length(self):
        with pytest.raises(ValueError, match="wrong length"):
            stallings(F2Z, [F2Z.element((1,)), GroupElement((2,), (0, 0))])
        with pytest.raises(ValueError, match="wrong length"):
            stallings(F2Z2, [GroupElement((), (1,))])

    def test_builds_no_flower(self, monkeypatch):
        calls = []
        for module, name in ((enriched, "enriched_flower"), (enriched, "reduce"),
                             (words, "flower")):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        foldings = []  # the arcs each folding state starts from
        real_init = words._Folding.__init__

        def init(self, num_vertices, arcs, vectors=None):
            foldings.append(tuple(arcs))
            real_init(self, num_vertices, arcs, vectors)

        monkeypatch.setattr(words._Folding, "__init__", init)
        gens = elems(F2Z2, ((1, 1, 1), (1, 0)), ((2, 1), (0, 0)),
                     ((2, 2, 2, 1, -2, -2), (0, 0)), ((), (0, 6)))
        e = stallings(F2Z2, gens)
        assert calls == [] and foldings == [()]
        flower = enriched.enriched_flower(F2Z2, gens)  # the counters count
        folded = enriched.reduce(flower)
        assert e == normalize(folded, spanning_tree_by_order(folded.skeleton))
        assert calls == ["enriched_flower", "reduce"]
        assert foldings == [(), flower.skeleton.arcs] and flower.skeleton.arcs


class TestStallingsCanonical:
    def test_same_subgroup_same_value(self):
        rng = random.Random(5)
        for _ in range(100):
            gens = [random_element(rng, F2Z2) for _ in range(rng.randint(0, 4))]
            e1 = stallings(F2Z2, gens)
            shuffled = list(gens)
            for a, b in itertools.combinations(range(len(gens)), 2):
                if rng.random() < 0.3:
                    shuffled.append(F2Z2.multiply(gens[a], gens[b]))
            rng.shuffle(shuffled)
            e2 = stallings(F2Z2, shuffled)
            assert e1 == e2

    def test_point_automaton(self):
        e = stallings(F2Z, [])
        assert e.skeleton.num_vertices == 1 and not e.skeleton.arcs

    def test_fixed_point_of_normalize(self):
        e = stallings(F2Z2, elems(F2Z2, ((1, 2), (1, 2)), ((2, 2), (0, 3))))
        tree = spanning_tree_by_order(e.skeleton)
        assert normalize(e, tree) == e

    def test_three_petal_label_placement(self):
        # <x^3 t^a, yx t^b, y^3 x y^-2 t^c, t^(0,6)>: five vertices, labels
        # a, b, c land on the three cyclomatic arcs
        e = stallings(F2Z2, elems(
            F2Z2,
            ((1, 1, 1), (1, 0)),
            ((2, 1), (0, 2)),
            ((2, 2, 2, 1, -2, -2), (5, 0)),
            ((), (0, 6)),
        ))
        assert e.skeleton.num_vertices == 5
        tree = spanning_tree_by_order(e.skeleton)
        placed = {
            (e.skeleton.arcs[i], e.labels[i][1])
            for i in range(len(e.labels))
            if i not in tree.tree_arcs
        }
        assert placed == {
            ((0, 2, 2), (0, 2)),   # b on the y-arc out of the basepoint
            ((1, 1, 2), (1, 0)),   # a on the middle x-arc of the x^3 cycle
            ((3, 2, 4), (5, 0)),   # c on the far y-arc
        }


class TestNormalizeOnItsOwnTree:
    def test_basis_normalizes_nothing_again(self, monkeypatch):
        calls = []
        real = enriched._normalized

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(enriched, "_normalized", counted)
        e = stallings(F2Z2, elems(F2Z2, ((1, 1, 2), (1, 0)), ((2, -1), (0, 3))))
        h1, h2 = parameterized_pair((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        x = intersect_fg(h1, h2)
        before = len(calls)
        basis(e), basis(x)
        assert len(calls) == before
        tree = words.spanning_tree_by_order(e.skeleton, None, "first-seen")
        on_first = normalize(e, tree)
        assert len(calls) == before + 1
        assert normalize(on_first, tree) is on_first
        basis(on_first, tree)
        assert len(calls) == before + 1
        # the remembered tree is not a field: equality and copies ignore it
        assert replace(e, labels=e.labels) == e
        assert normalize(replace(e, labels=e.labels), tree) == on_first
        assert len(calls) == before + 2


class TestCompletionMembership:
    def setup_method(self):
        self.h1 = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), (0,))))

    def test_completion_of_x(self):
        b, base = completion(self.h1, (1,))
        assert b == (1,)
        assert base.lattice_basis == ()

    def test_completion_of_conjugate(self):
        b, _ = completion(self.h1, (1, 2, -1))
        assert b == (0,)

    def test_completion_absent(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (1,))))
        assert completion(e, (2,)) is None

    def test_membership(self):
        assert member(self.h1, F2Z.element((1,), (1,)))
        assert not member(self.h1, F2Z.element((1,), (0,)))
        assert member(self.h1, F2Z.element((1, 2, -1), (0,)))

    def test_member_rejects_a_vector_of_the_wrong_length(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (2,))))  # <x1 t^2>
        assert member(e, GroupElement((1,), (2,)))
        for vec in ((2, 7), (), (2, 0)):
            with pytest.raises(ValueError, match="abelian part has the wrong length"):
                member(e, GroupElement((1,), vec))
        with pytest.raises(ValueError, match="abelian part has the wrong length"):
            member(e, GroupElement((2,), (0, 0)))  # not read by the skeleton either

    def test_member_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            gens = [random_element(rng, F2Z, maxlen=3, maxcoord=1) for _ in range(2)]
            e = stallings(F2Z, gens)
            for _ in range(10):
                g = random_element(rng, F2Z, maxlen=3, maxcoord=2)
                if member(e, g):
                    # positive answers certified by the automaton walk; the
                    # brute-force check is only complete for short elements
                    continue
                assert not brute_membership_oracle(F2Z, gens, g, depth=3)

    def test_brute_force_positive_direction(self):
        rng = random.Random(8)
        for _ in range(15):
            gens = [random_element(rng, F2Z, maxlen=3, maxcoord=1) for _ in range(2)]
            e = stallings(F2Z, gens)
            frontier = [F2Z.identity()]
            closed = list(gens) + [F2Z.invert(g) for g in gens]
            for _ in range(3):
                frontier = [F2Z.multiply(h, g) for h in frontier for g in closed]
                for h in frontier[:40]:
                    assert member(e, h)


class TestBasis:
    def test_moldavanski_basis(self):
        b = basis(stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ()))))
        assert [(g.word, g.vec) for g in b.free_part] == [((1,), (1,)), ((2,), (0,))]
        assert b.abelian_part.lattice_basis == ()

    def test_abelian_only(self):
        e = stallings(F2Z2, elems(F2Z2, ((), (0, 6))))
        b = basis(e)
        assert b.free_part == ()
        assert b.abelian_part == AbelianSubgroup.from_generators(F2Z2.abelian, [(0, 6)])

    def test_basis_regenerates_subgroup(self):
        rng = random.Random(9)
        for _ in range(30):
            gens = [random_element(rng, F2Z2, maxlen=4) for _ in range(3)]
            e = stallings(F2Z2, gens)
            b = basis(e)
            regen = list(b.free_part) + [
                GroupElement((), row) for row in b.abelian_part.lattice_basis
            ]
            assert stallings(F2Z2, regen) == e

    def test_abelian_part_is_full_intersection(self):
        # basis().abelian_part equals {a : t^a in H}, sampled in a box
        gens = elems(F2Z2, ((1,), (1, 0)), ((-1,), (0, 1)))
        e = stallings(F2Z2, gens)
        b = basis(e)
        for a in itertools.product(range(-6, 7), repeat=2):
            assert member(e, F2Z2.element((), a)) == b.abelian_part.contains(a)

    def test_thin_automaton_costs_no_more_than_its_words(self):
        # x1^h x2^h t folds to one cycle of 2h vertices with one petal.  Root
        # paths of every vertex would hold about h^2 letters (some 200 MB at
        # this h); those of the petal's two ends hold 2h.
        half = 5000
        word = (1,) * half + (2,) * half
        e = stallings(F2Z, elems(F2Z, (word, (1,))))
        assert e.skeleton.num_vertices == 2 * half
        tracemalloc.start()
        try:
            b = basis(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(g.word, g.vec) for g in b.free_part] == [(word, (1,))]
        assert peak < 1 << 20


class TestIndex:
    def test_whole_group(self):
        e = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ()), ((), (1,))))
        assert index_report(e) == (1, 1, 1)
        assert [str(g) for g in transversal_stream(e)] == ["1"]

    def test_acceptance_example(self):
        e = stallings(F2Z, elems(
            F2Z, ((1, 1), ()), ((2,), ()), ((1, 2, -1), ()), ((), (2,))
        ))
        assert index_report(e) == (2, 2, 4)
        reps = [(g.word, g.vec) for g in transversal_stream(e)]
        assert reps == [((), (0,)), ((1,), (0,)), ((), (1,)), ((1,), (1,))]

    def test_infinite_abelian_index(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ())))
        free, ab, total = index_report(e)
        assert (free, ab, total) == (1, INFINITY, INFINITY)
        stream = list(itertools.islice(transversal_stream(e), 5))
        assert len(stream) == 5

    def test_random_transversals(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            perm1 = list(range(3))
            perm2 = list(range(3))
            rng.shuffle(perm1)
            rng.shuffle(perm2)
            gens = []
            for v in range(3):
                gens.append(F2Z.element(_perm_word(1, v, perm1[v]), (rng.randint(-2, 2),)))
                gens.append(F2Z.element(_perm_word(2, v, perm2[v]), (rng.randint(-2, 2),)))
            gens.append(F2Z.element((), (rng.randint(2, 8),)))
            e = stallings(F2Z, gens)
            free, ab, total = index_report(e)
            if total is INFINITY or total > 60:
                continue
            reps = list(transversal_stream(e))
            assert len(reps) == total
            for g1, g2 in itertools.combinations(reps, 2):
                assert not member(e, F2Z.multiply(g1, F2Z.invert(g2)))
            checked += 1


def _perm_word(letter, v, w):
    """A word conjugating coset v to w under a chosen transversal {1, x1, x1^2}."""
    base = [1] * v + [letter] + [-1] * w
    return tuple(base)


class TestFactorExtension:
    def test_already_saturated(self):
        e = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ()), ((), (1,))))
        assert finite_index_factor_extension(e) == e

    def test_x_squared(self):
        amb = Ambient(2, AbelianSpec(0))
        e = stallings(amb, [amb.element((1, 1))])
        ext = finite_index_factor_extension(e)
        free, ab, total = index_report(ext)
        assert total == 2
        assert member(ext, amb.element((1, 1)))
        assert member(ext, amb.element((2,)))

    def test_xt_extension(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (1,))))
        ext = finite_index_factor_extension(e)
        free, ab, total = index_report(ext)
        assert total == 1
        assert member(ext, F2Z.element((1,), (1,)))

    def test_random_factors(self):
        rng = random.Random(13)
        for _ in range(20):
            gens = [random_element(rng, F2Z2, maxlen=3) for _ in range(2)]
            e = stallings(F2Z2, gens)
            ext = finite_index_factor_extension(e)
            assert index_report(ext)[2] is not INFINITY
            for g in gens:
                assert member(ext, g)


class TestCompletionTable:
    def test_matches_membership(self):
        e = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ())))
        table = completion_table(e, 4)
        for word, b in table.items():
            assert member(e, GroupElement(word, b))
            assert not member(e, GroupElement(word, (b[0] + 1,)))


def test_dot_export():
    e = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ())))
    dot = to_dot(e)
    assert "doublecircle" in dot and "|x1|" in dot
