import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from support import (
    ReferenceFolding,
    check_folding,
    coset_presentation,
    is_deterministic,
    parameterized_pair,
    random_subgroup_gens,
    reference_completion,
    reference_folded_core,
)

from stallings_fta import enriched, intersection, words
from stallings_fta.abelian import INFINITY, AbelianSpec, AbelianSubgroup
from stallings_fta.enriched import (
    Ambient,
    EnrichedAutomaton,
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
from stallings_fta.intersection import (
    DoublyEnrichedAutomaton,
    doubly_enriched_product,
    doubly_reduce,
    intersect_fg,
)
from stallings_fta.words import (
    canonical_renumber,
    core,
    flower,
    fold,
    free_reduce,
    multiply,
    recognizes,
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

    def result(self, basepoint):
        seen.append(self)
        return real(self, basepoint)

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


FOLDING_AMBIENTS = {
    "F2xZ": F2Z,
    "F3xZ2": Ambient(3, AbelianSpec(2)),
    "F2x(Z+Z6)": Ambient(2, AbelianSpec(1, (6,))),
    "F2x(Z2+Z4)": Ambient(2, AbelianSpec(0, (2, 4))),
    "F2": Ambient(2, AbelianSpec(0)),
}


def folding_inputs(rng, ambient, count):
    """(order, gens): redundant coset presentations of index 2-5 and short
    random sets with products of two generators; half under a permuted
    letter order."""
    letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
    for trial in range(count):
        order = None if trial % 2 == 0 else tuple(rng.sample(letters, len(letters)))
        if trial % 3:
            gens = coset_presentation(rng, ambient, rng.randint(2, 5))
        else:
            gens = random_subgroup_gens(rng, ambient, max_gens=4, maxlen=6)
            gens += [ambient.multiply(rng.choice(gens), ambient.invert(rng.choice(gens)))
                     for _ in range(rng.randint(0, 2))]
        yield order, gens


def doubly_flower(rng, ambient, gens):
    """The flower of gens with a second seeded label system on its arcs."""
    f = enriched_flower(ambient, [g for g in gens if g.word] or [ambient.element((1,))])
    second = tuple((ambient.zero(), tuple(rng.randint(-2, 2) for _ in range(ambient.m)))
                   for _ in f.labels)
    return DoublyEnrichedAutomaton(ambient, f.skeleton, f.labels, second, f.base,
                                   AbelianSubgroup.from_generators(ambient.abelian, []))


def without_zero(v):
    return None if v is None or not any(v) else v


class TestFoldingKeepsSlottedEndsOnRoots:
    """words._Folding keeps every arc end that sits in a slot on its class
    root, so walks read raw arc vectors; support.check_folding states the
    invariant and support.ReferenceFolding, which never moves an arc end,
    is the oracle for every label, gain and kept arc."""

    @pytest.mark.parametrize("name", list(FOLDING_AMBIENTS))
    def test_invariant_after_every_read_and_run(self, name, monkeypatch):
        ambient = FOLDING_AMBIENTS[name]
        real_read, real_run = words._Folding.read_word, words._Folding.run
        seen = {"checks": 0, "cascades": 0, "roots with potentials": 0}

        def read_word(self, word, vec):
            dead = self.alive.count(False)
            real_read(self, word, vec)
            check_folding(self)
            seen["checks"] += 1
            # a seam makes at most two collisions; more folds mean a cascade
            seen["cascades"] += self.alive.count(False) - dead > 2
            seen["roots with potentials"] += any(
                slots and self.pot[v] is not None and any(self.pot[v])
                for v, slots in enumerate(self.out))

        def run(self):
            real_run(self)
            check_folding(self)

        monkeypatch.setattr(words._Folding, "read_word", read_word)
        monkeypatch.setattr(words._Folding, "run", run)
        rng = random.Random(f"folding-invariant:{name}")
        for order, gens in folding_inputs(rng, ambient, 30):
            stallings(ambient, gens, order)
            reduce(enriched_flower(ambient, gens), order)
            e1, e2 = (stallings(ambient, gs, order) for gs in (gens, gens[: len(gens) // 2 + 1]))
            doubly_reduce(doubly_enriched_product(e1, e2, order), order)
            doubly_reduce(doubly_flower(rng, ambient, gens), order)
        assert seen["checks"] >= 300 and seen["cascades"] >= 10, seen
        if ambient.m:
            assert seen["roots with potentials"] >= 50, seen

    @staticmethod
    def assert_same_folding(folding, reference, basepoint):
        base, named, kept, gained = folding.result(basepoint)
        rep, ref_kept, ref_gained = reference.result()
        assert kept == ref_kept and gained == ref_gained
        assert base == rep[basepoint]
        assert named == [(rep[o], k, rep[t]) for o, k, t in map(reference.arcs.__getitem__, kept)]
        if folding.vectors is not None:
            assert [without_zero(folding.value(x)) for x in kept] == \
                [without_zero(reference.read(x, 1)) for x in kept]

    @pytest.mark.parametrize("name", list(FOLDING_AMBIENTS))
    def test_matches_the_reference_folding(self, name, monkeypatch):
        ambient = FOLDING_AMBIENTS[name]
        rng = random.Random(f"folding-reference:{name}")
        for order, gens in folding_inputs(rng, ambient, 24):
            # the engines side by side, on every read and on whole flowers
            folding, reference = words._Folding(1, (), []), ReferenceFolding(1, (), [])
            for g in gens:
                if g.word:
                    vec = g.vec if any(g.vec) else None
                    folding.read_word(g.word, vec)
                    reference.read_word(g.word, vec)
                    assert folding.gained == reference.gained
            self.assert_same_folding(folding, reference, 0)
            flower = enriched_flower(ambient, [g for g in gens if g.word] or [ambient.element((1,))])
            arcs, values = flower.skeleton.arcs, enriched._label_differences(flower.labels)
            size = flower.skeleton.num_vertices
            self.assert_same_folding(words._Folding(size, arcs, list(values)),
                                     ReferenceFolding(size, arcs, list(values)), 0)
            self.assert_same_folding(words._Folding(size, arcs), ReferenceFolding(size, arcs), 0)
            # and the public constructions, raw labels included, on either engine
            doubly = doubly_flower(rng, ambient, gens)
            outputs = []
            for engine, core_of in ((None, None), (ReferenceFolding, reference_folded_core)):
                with monkeypatch.context() as patch:
                    for module in (enriched, intersection) if engine else ():
                        patch.setattr(module, "_Folding", engine)
                        patch.setattr(module, "_folded_core", core_of)
                    outputs.append((stallings(ambient, gens, order), reduce(flower, order),
                                    doubly_reduce(doubly, order)))
            ours, theirs = outputs
            assert ours == theirs
            assert ours[1].labels == theirs[1].labels
            assert (ours[2].labels1, ours[2].labels2) == (theirs[2].labels1, theirs[2].labels2)

    def test_closing_generator_finds_only_the_basepoint(self, monkeypatch):
        rng = random.Random("folding-walk-cost")
        ambient = FOLDING_AMBIENTS["F2x(Z+Z6)"]
        gens = coset_presentation(rng, ambient, 5)
        folding = words._Folding(1, (), [])
        for g in filter(lambda g: g.word, gens):
            folding.read_word(g.word, g.vec if any(g.vec) else None)
        found = []
        real = words._Folding.find

        def find(self, v):
            found.append(v)
            return real(self, v)

        monkeypatch.setattr(words._Folding, "find", find)
        arcs_before = len(folding.arcs)
        for _ in range(50):  # index 5: every word closes on the folded graph
            g = ambient.multiply(rng.choice(gens), ambient.invert(rng.choice(gens)))
            if not g.word:
                continue
            shifted = tuple(x + rng.randint(-3, 3) for x in g.vec)
            found.clear()
            folding.read_word(g.word, shifted)
            assert found == [0]
        assert len(folding.arcs) == arcs_before

    def test_folded_core_finds_only_the_basepoint(self, monkeypatch):
        rng = random.Random("folded-core-cost")
        ambient = FOLDING_AMBIENTS["F3xZ2"]
        zero = ambient.zero()
        real = words._Folding.find
        for _ in range(10):
            gens = coset_presentation(rng, ambient, 4)
            flower = enriched_flower(ambient, [g for g in gens if g.word])
            labels = reduce(flower).labels
            folding = words._Folding(flower.skeleton.num_vertices, flower.skeleton.arcs,
                                     enriched._label_differences(flower.labels))
            found = []
            with monkeypatch.context() as patch:
                patch.setattr(words._Folding, "find", lambda self, v: found.append(v) or real(self, v))
                values = enriched._folded_core(ambient, folding, 0, None)[2]
            assert found == [0]
            assert [(zero, zero if v is None else v) for v in values] == list(labels)


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

    def test_letters_past_n_are_not_read(self):
        # <x1^2, x1 x2 x1^-1>: x1 swaps the two vertices and x2 loops at vertex 1.
        # A step key of letter 3 at vertex 0 is the key of x2^-1 at vertex 1, so
        # an unguarded lookup would read x3 x1 as that loop and then x1 home.
        e = stallings(F2Z, elems(F2Z, ((1, 1), (0,)), ((1, 2, -1), (0,))))
        sk = e.skeleton
        assert sk.num_vertices == 2 and sk.step(1, -2) == (1, 2, -1)
        for letter in (3, -3, 0, 5):
            assert sk.step(0, letter) is None and sk.step(1, letter) is None
        assert recognizes(sk, (3, 1)) is None and recognizes(sk, (1, 2, -1)) is not None
        assert completion(e, (3, 1)) is None
        assert not member(e, GroupElement((3, 1), (0,)))
        assert member(e, GroupElement((1, 2, -1), (0,)))

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


VALUE_AMBIENTS = {
    "F2xZ": F2Z,
    "F2xZ2": F2Z2,
    "F2x(Z+Z6)": Ambient(2, AbelianSpec(1, (6,))),
    "F2x(Z2+Z4)": Ambient(2, AbelianSpec(0, (2, 4))),
}


def value_automata(name, count=25):
    """Per seeded generator set of the ambient: its stallings automaton, the
    reduced flower, a vertex transformation of that (lab1 != 0 on the arcs
    leaving the vertex) and an arc transformation of the last."""
    ambient = VALUE_AMBIENTS[name]
    rng = random.Random(f"values:{name}")
    out = []
    for _ in range(count):
        gens = random_subgroup_gens(rng, ambient, max_gens=4, maxlen=4)
        e = reduce(enriched_flower(ambient, gens))
        moved = vertex_transformation(e, rng.randrange(e.skeleton.num_vertices),
                                      random_element(rng, ambient).vec)
        out += [stallings(ambient, gens), e, moved]
        if e.labels:
            out.append(arc_transformation(moved, rng.randrange(len(e.labels)),
                                          random_element(rng, ambient).vec))
    return out


class TestArcValues:
    """Each enriched automaton's one list of arc values, _differences, read
    by completions, normalization, folding and products."""

    @pytest.mark.parametrize("name", list(VALUE_AMBIENTS))
    def test_reads_match_the_per_crossing_reference(self, name):
        rng = random.Random(f"values:reads:{name}")
        automata = value_automata(name)
        assert any(any(lab1) for e in automata for lab1, _ in e.labels)
        letters = [k for k in range(-2, 3) if k]
        short = [w for length in range(4) for w in itertools.product(letters, repeat=length)
                 if free_reduce(w) == w]
        for e in automata:
            table = completion_table(e, 3)
            recognized = [w for w in short if reference_completion(e, w) is not None]
            assert sorted(table) == sorted(recognized)
            longer = [free_reduce(sum((rng.choice(recognized) for _ in range(3)), ()))
                      for _ in range(5)]
            for w in short + longer:
                expected = reference_completion(e, w)
                assert completion(e, w) == expected
                if w in table:
                    assert table[w] == expected[0]
                vec = random_element(rng, e.ambient).vec
                g = GroupElement(w, e.ambient.abelian.canonicalize(vec))
                assert member(e, g) == (expected is not None and expected[1].contains(
                    tuple(a - b for a, b in zip(g.vec, expected[0]))))
                if expected is not None:
                    assert member(e, GroupElement(w, expected[0]))

    def test_over_three_hundred_automata(self):
        automata = [e for name in VALUE_AMBIENTS for e in value_automata(name)]
        assert len(automata) >= 300
        assert sum(any(lab1) for e in automata for lab1, _ in e.labels) >= 50

    @pytest.mark.parametrize("name", list(VALUE_AMBIENTS))
    def test_folding_and_extension_leave_the_list_alone(self, name):
        for e in value_automata(name, 10):
            diffs = e._differences
            before = list(diffs)
            reduce(e)
            finite_index_factor_extension(e)
            assert e._differences is diffs and diffs == before

    def test_new_automata_get_their_own_values(self):
        ambient = VALUE_AMBIENTS["F2x(Z+Z6)"]
        e = stallings(ambient, elems(ambient, ((1,), (1, 2)), ((2, 1), (3, 0))))
        assert any(e._differences)
        c = (1, 1)
        made = [vertex_transformation(e, 0, c), arc_transformation(e, 0, c),
                replace(e, labels=tuple((lab2, lab1) for lab1, lab2 in e.labels))]
        for new in made:
            assert "_differences" not in new.__dict__
            expected = [tuple(b - a for a, b in zip(lab1, lab2)) for lab1, lab2 in new.labels]
            assert new._differences == [d if any(d) else None for d in expected]
        assert made[2]._differences != e._differences
        fresh = EnrichedAutomaton(e.ambient, e.skeleton, e.labels, e.base)
        assert "_differences" in e.__dict__ and "_differences" not in fresh.__dict__
        assert fresh == e and hash(fresh) == hash(e)

    @pytest.mark.parametrize("name", list(VALUE_AMBIENTS))
    def test_canonical_values_are_their_labels(self, name):
        ambient = VALUE_AMBIENTS[name]
        rng = random.Random(f"values:canonical:{name}")
        for _ in range(10):
            e = stallings(ambient, random_subgroup_gens(rng, ambient, max_gens=4, maxlen=4))
            for (lab1, lab2), diff in zip(e.labels, e._differences):
                assert not any(lab1)
                assert diff is (lab2 if any(lab2) else None)

    def test_one_list_per_automaton(self, monkeypatch):
        calls = []
        original = enriched._label_differences
        monkeypatch.setattr(enriched, "_label_differences",
                            lambda labels: calls.append(1) or original(labels))
        e = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2, 1), (3,))))
        for w in ((1,), (1, 2, -1), (2, 1, -2), (2,), ()):
            completion(e, w)
        completion_table(e, 3)
        assert len(calls) == 1


def test_dot_export():
    e = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ())))
    dot = to_dot(e)
    assert "doublecircle" in dot and "|x1|" in dot
