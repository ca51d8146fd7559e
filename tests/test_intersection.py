import gc
import itertools
import random
import weakref

import pytest

from stallings_fta import abelian, enriched, intersection, words
from stallings_fta.abelian import INFINITY, AbelianSpec, AbelianSubgroup, snf
from stallings_fta.enriched import (
    Ambient,
    EnrichedAutomaton,
    GroupElement,
    _label_differences,
    _tree_values,
    basis,
    completion_table,
    finite_index_factor_extension,
    member,
    normalize,
    reduce,
    stallings,
)
from stallings_fta.intersection import (
    MAX_EXPANSION_VERTICES,
    VERDICT_FG,
    VERDICT_NOT_FG,
    DoublyEnrichedAutomaton,
    NotEqualizableError,
    cayley_multidigraph,
    decide_finitely_generated,
    doubly_enriched_product,
    doubly_reduce,
    equalize,
    intersect_fg,
    intersect_stages,
    intersection_matrices,
    normalize_doubly,
    vertex_expand,
)
from stallings_fta.words import (
    _canonical_core,
    _step_map,
    product,
    product_with_provenance,
    spanning_tree_by_order,
)
from support import (
    RowCayleyBall,
    cayley_by_row,
    core,
    doubly_completion,
    fg_by_stages,
    is_deterministic,
    random_element,
    random_subgroup_gens,
    tree_petal_word,
)

F2Z = Ambient(2, AbelianSpec(1))
F2Z2 = Ambient(2, AbelianSpec(2))
TORSION = Ambient(2, AbelianSpec(1, (6,)))

X, Y = (1,), (2,)


def _product_ball(ambient, gens, depth):
    """All products of at most `depth` generators and inverses."""
    closed = list(gens) + [ambient.invert(g) for g in gens]
    seen = {(ambient.identity().word, ambient.identity().vec)}
    frontier = [ambient.identity()]
    for _ in range(depth):
        nxt = []
        for h in frontier:
            for g in closed:
                prod = ambient.multiply(h, g)
                key = (prod.word, prod.vec)
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
        frontier = nxt
    return seen


def elems(ambient, *pairs):
    return [ambient.element(w, v) for w, v in pairs]


def moldavanski():
    h1 = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ())))
    h2 = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ())))
    return h1, h2


def parameterized(a, d, l1_gens, l2_gens):
    """The two-parameter family H1 = <x^3 t^a, yx, y^3xy^-2, t^L1>,
    H2 = <x^2 t^d, yxy^-1, t^L2> in F2 x Z^2."""
    h1_gens = elems(
        F2Z2,
        ((1, 1, 1), a),
        ((2, 1), (0, 0)),
        ((2, 2, 2, 1, -2, -2), (0, 0)),
    ) + [F2Z2.element((), g) for g in l1_gens]
    h2_gens = elems(F2Z2, ((1, 1), d), ((2, 1, -2), (0, 0))) + [
        F2Z2.element((), g) for g in l2_gens
    ]
    return stallings(F2Z2, h1_gens), stallings(F2Z2, h2_gens)


class TestDoublyProduct:
    def test_moldavanski_product(self):
        h1, h2 = moldavanski()
        p = doubly_enriched_product(h1, h2)
        assert p.skeleton.num_vertices == 1
        assert len(p.skeleton.arcs) == 2
        by_letter = {
            arc[1]: (lab1[1], lab2[1])
            for arc, lab1, lab2 in zip(p.skeleton.arcs, p.labels1, p.labels2)
        }
        assert by_letter[1] == ((1,), (0,))
        assert by_letter[2] == ((0,), (0,))

    def test_full_group_factor(self):
        h1 = stallings(F2Z, elems(F2Z, ((1, 2), (3,))))
        full = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ()), ((), (1,))))
        p = doubly_enriched_product(h1, full)
        assert p.skeleton == h1.skeleton
        assert all(not any(l1) and not any(l2) for l1, l2 in p.labels2)
        assert p.base2 == AbelianSubgroup.full(F2Z.abelian)

    def test_case1_product_shape(self):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        assert h1.skeleton.num_vertices == 5
        assert h2.skeleton.num_vertices == 3
        raw = product(h1.skeleton, h2.skeleton)
        assert raw.num_vertices == 15
        p = doubly_enriched_product(h1, h2)
        assert p.skeleton.num_vertices == 9

    def test_case1_normalized_labels(self):
        # the two non-tree double labels are (2a, 3d) and (a, 0)
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        p = doubly_enriched_product(h1, h2)
        tree = spanning_tree_by_order(p.skeleton)
        nontree = {
            (p.labels1[i][1], p.labels2[i][1])
            for i in range(len(p.skeleton.arcs))
            if i not in tree.tree_arcs
        }
        assert nontree == {((2, 0), (0, 3)), ((1, 0), (0, 0))}

    def test_component_wise_readability(self):
        # label of a product walk = pair of factor completions
        h1, h2 = parameterized((3, 3), (2, 2), [(1, 2)], [])
        p = doubly_enriched_product(h1, h2)
        for w in [(1,) * 6, (2, 1, 1, 1, -2), (2, 1, 1, 1, -2) + (1,) * 6]:
            pair = doubly_completion(p, w)
            assert pair is not None
            b1, b2 = pair
            assert member(h1, F2Z2.element(w, b1))
            assert member(h2, F2Z2.element(w, b2))


class TestMatrices:
    def test_moldavanski_report(self):
        h1, h2 = moldavanski()
        rep = intersection_matrices(h1, h2)
        assert rep.words == ((1,), (2,))
        assert rep.D == ((1,), (0,))
        assert rep.M == AbelianSubgroup.from_generators(AbelianSpec(2), [(0, 1)])
        assert rep.deltas == (1, 0)
        assert rep.verdict == VERDICT_NOT_FG

    def test_case1_report(self):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        rep = intersection_matrices(h1, h2)
        assert rep.words == ((1,) * 6, (2, 1, 1, 1, -2))
        # canonical petal order of H1pi is (yx, x^3, x^-1 y^2 x y^-1 x)
        assert rep.B1 == ((0, 2, 0), (0, 1, 0))
        assert rep.B2 == ((3, 0), (0, 3))
        assert rep.D == ((2, -3), (1, 0))
        assert rep.M == AbelianSubgroup.from_generators(AbelianSpec(2), [(-2, 4), (1, 1)])
        assert rep.deltas == (1, 6)
        assert rep.verdict == VERDICT_FG and rep.free_rank == 7

    def test_free_factor_specializes_to_a1(self):
        # H2 = F2 (zero labels): D reduces to A1 up to basis bookkeeping
        h1 = stallings(F2Z, elems(F2Z, ((1,), (2,)), ((2,), (5,))))
        h2 = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ())))
        rep = intersection_matrices(h1, h2)
        assert rep.D == rep.A1
        assert rep.A2 == ((0,), (0,))

    def test_decision_table(self):
        assert decide_finitely_generated(0, 0, ()) == (VERDICT_FG, True, 0)
        assert decide_finitely_generated(1, 0, (0,)) == (VERDICT_FG, True, 0)
        assert decide_finitely_generated(1, 1, (4,)) == (VERDICT_FG, False, 1)
        assert decide_finitely_generated(2, 2, (1, 6)) == (VERDICT_FG, False, 7)
        assert decide_finitely_generated(2, 1, (1, 0)) == (
            VERDICT_NOT_FG, False, INFINITY,
        )


class TestCayley:
    def test_case1_cycle(self):
        aut, elements = cayley_multidigraph((1, 6), ((1, -1), (0, 1)))
        assert aut.num_vertices == 6
        assert len(aut.arcs) == 12
        # w1 follows -1, w2 follows +1: opposite 6-cycles
        w1 = {(o, t) for o, k, t in aut.arcs if k == 1}
        w2 = {(o, t) for o, k, t in aut.arcs if k == 2}
        assert w1 == {(t, o) for o, t in w2}

    def test_double_trivial_loops(self):
        aut, _ = cayley_multidigraph((1, 1), ((1, 0), (0, 1)))
        assert aut.num_vertices == 1
        assert aut.arcs == ((0, 1, 0), (0, 2, 0))

    def test_line_ball(self):
        aut, elements = cayley_multidigraph((1, 0), ((1, 0), (0, 1)), radius=3)
        assert aut.num_vertices == 7
        loops = [a for a in aut.arcs if a[1] == 1]
        moves = [a for a in aut.arcs if a[1] == 2]
        assert len(loops) == 7 and all(o == t for o, _, t in loops)
        assert len(moves) == 6

    def test_infinite_needs_radius(self):
        with pytest.raises(ValueError):
            cayley_multidigraph((0,), ((1,),))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            cayley_multidigraph((1, 0), ((1, 0), (0, 1)), radius=-1)


class TestCayleyBallClasses:
    """_CayleyBall works once per distinct nonzero generator class; the
    per-row ball of support.RowCayleyBall is its oracle."""

    @staticmethod
    def seeded(rng, count, free_last=True):
        """(deltas, rows): torsion factors, then free ones unless shuffled;
        rows drawn from a small pool, so they repeat, with zero rows and
        rows that vanish once reduced."""
        for _ in range(count):
            torsion = sorted(rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(0, 2)))
            deltas = torsion + [0] * rng.randint(0 if torsion else 1, 2)
            if not free_last:
                rng.shuffle(deltas)
            k = len(deltas)
            pool = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 3))]
            pool.append(tuple(d * rng.randint(-1, 1) for d in deltas))
            rows = [rng.choice(pool) if rng.random() < 0.8 else (0,) * k
                    for _ in range(rng.randint(1, 10))]
            yield deltas, rows

    def test_against_the_per_row_ball(self):
        rng = random.Random("cayley-classes")
        seen = {"repeated": 0, "zero": 0, "vanishing": 0, "mixed": 0}
        for deltas, rows in self.seeded(rng, 300):
            ball, oracle = intersection._CayleyBall(deltas, rows), RowCayleyBall(deltas, rows)
            for _ in range(4):
                ball.grow()
                oracle.grow()
                assert ball.elements == oracle.elements and ball.sphere == oracle.sphere
            for v, plus in enumerate(ball.plus):  # v - row_i is numbered as in elements
                assert tuple(map(plus.__getitem__, ball.row_class)) == oracle.plus[v]
            seen["repeated"] += len(set(map(tuple, rows))) < len(rows)
            seen["zero"] += any(not any(row) for row in rows)
            seen["vanishing"] += any(any(row) and not any(g) for row, g in zip(rows, oracle.gens))
            seen["mixed"] += 0 < deltas.count(0) < len(deltas)
        assert min(seen.values()) >= 20, seen

    def test_cayley_multidigraph_against_the_per_row_graph(self):
        # free factors anywhere, as cayley_multidigraph accepts them
        rng = random.Random("cayley-by-row")
        for deltas, rows in self.seeded(rng, 150, free_last=False):
            rows = [row + (0,) * (len(deltas) - len(row)) for row in rows][:len(deltas)]
            rows += [(0,) * len(deltas)] * (len(deltas) - len(rows))
            radius = None if all(deltas) else rng.randint(0, 3)
            aut, elements = cayley_multidigraph(deltas, rows, radius)
            assert ((aut.n, aut.num_vertices, aut.basepoint, aut.arcs), elements) == \
                cayley_by_row(deltas, rows, radius)

    def test_rows_must_fit_the_deltas(self):
        for rows in (((1, 0), (1,)), ((1, 0), (0, 1, 1))):
            with pytest.raises(ValueError, match="one entry per delta"):
                cayley_multidigraph((2, 3), rows)

    def test_two_reductions_per_class_and_vertex(self, monkeypatch):
        numbered = []
        real = intersection._CayleyBall._number

        def counted(ball, vec):
            numbered.append(vec)
            return real(ball, vec)

        monkeypatch.setattr(intersection._CayleyBall, "_number", counted)
        rng = random.Random("cayley-reductions")
        for deltas, rows in self.seeded(rng, 60):
            ball = intersection._CayleyBall(deltas, rows)
            oracle = RowCayleyBall(deltas, rows)
            assert len(ball.gens) == len({g for g in oracle.gens if any(g)})
            numbered.clear()
            for _ in range(3):
                ball.grow()
            assert len(numbered) == 2 * len(ball.gens) * len(ball.plus)

    def test_free_ball_reduces_no_neighbour(self, monkeypatch):
        # a ball with no nonzero delta grows without a _reduced call; a
        # torsion ball reduces v + g and v - g for every class g
        reduced = []
        real = intersection._CayleyBall._reduced

        def counted(ball, vec):
            reduced.append(vec)
            return real(ball, vec)

        monkeypatch.setattr(intersection._CayleyBall, "_reduced", counted)
        rng = random.Random("cayley-free-reductions")
        kinds = {"free": 0, "torsion": 0}
        for deltas, rows in self.seeded(rng, 60):
            ball = intersection._CayleyBall(deltas, rows)
            free = not any(deltas)
            kinds["free" if free else "torsion"] += 1
            reduced.clear()
            for _ in range(3):
                ball.grow()
            assert len(reduced) == (0 if free else 2 * len(ball.gens) * len(ball.plus))
        assert min(kinds.values()) >= 10, kinds

    def test_intersect_fg_grows_once_per_class(self, monkeypatch):
        balls, numbered = [], []
        Ball = intersection._CayleyBall
        real_init, real_number = Ball.__init__, Ball._number

        def kept(ball, *args):
            balls.append(ball)
            real_init(ball, *args)

        def counted(ball, vec):
            numbered.append(vec)
            return real_number(ball, vec)

        monkeypatch.setattr(Ball, "__init__", kept)
        monkeypatch.setattr(Ball, "_number", counted)
        ambient = Ambient(2, AbelianSpec(0, (2, 4)))
        rng = random.Random("fg-ball-classes")
        checked = 0
        for i in range(400):
            rep = intersection_matrices(*TestFgExpandsOnce.pair(rng, ambient, i, None))
            if rep.pi_trivial or len(set(rep.D)) == rep.r:
                continue
            balls.clear()
            numbered.clear()
            intersect_fg(*rep.factors, report=rep)
            ball, = balls
            assert len(ball.gens) <= len(set(rep.generators)) < rep.r
            assert len(numbered) == 2 * len(ball.gens) * len(ball.elements)
            checked += 1
        assert checked >= 10


class TestExpansion:
    def test_trivial_expansion(self):
        h1, h2 = moldavanski()
        p = doubly_enriched_product(h1, h1)
        tree = spanning_tree_by_order(p.skeleton)
        delta, _ = cayley_multidigraph((1, 1), ((1, 0), (0, 1)))
        x = vertex_expand(delta, p, tree)
        assert x.skeleton.num_vertices == p.skeleton.num_vertices
        assert len(x.skeleton.arcs) == len(p.skeleton.arcs)

    def test_case1_expansion_size(self):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        p = doubly_enriched_product(h1, h2)
        tree = spanning_tree_by_order(p.skeleton)
        rep = intersection_matrices(h1, h2)
        delta, _ = cayley_multidigraph(rep.deltas, rep.snf.Q)
        x = vertex_expand(delta, p, tree)
        assert x.skeleton.num_vertices == 54
        assert is_deterministic(x.skeleton)
        assert len(x.skeleton.arcs) - x.skeleton.num_vertices + 1 == 7

    def test_budget_is_checked_before_growing(self, monkeypatch):
        # <x1 t> & <x1, t^N> = <x1^N t^N>: N vertices, N - 1 of them added to
        # the one-vertex product, one more than the budget
        big = MAX_EXPANSION_VERTICES + 2
        f1z = Ambient(1, AbelianSpec(1))
        h1 = stallings(f1z, [f1z.element(X, (1,))])
        h2 = stallings(f1z, [f1z.element(X), f1z.element((), (big,))])
        rep = intersection_matrices(h1, h2)
        assert rep.verdict == VERDICT_FG and rep.deltas == (big,)
        grown = []
        monkeypatch.setattr(intersection._CayleyBall, "grow", lambda ball: grown.append(ball))
        for build in (lambda: intersect_fg(h1, h2, report=rep),
                      lambda: cayley_multidigraph(rep.deltas, ((1,),)),
                      lambda: cayley_multidigraph((2,) * 17, [(0,) * 17] * 17)):
            with pytest.raises(ValueError, match=f"more than {MAX_EXPANSION_VERTICES} vertices"):
                build()
        assert grown == []

    def test_budget_counts_only_added_vertices(self, monkeypatch):
        f1z = Ambient(1, AbelianSpec(1))
        h1 = stallings(f1z, [f1z.element(X, (1,))])
        fits, over = (stallings(f1z, [f1z.element(X), f1z.element((), (n,))]) for n in (7, 8))
        # H & H for H = <x1^12 x2 t>: deltas (1,), so the expansion is the
        # 13-vertex product itself and adds nothing
        w = F2Z.element(X * 12 + Y, (1,))
        h = stallings(F2Z, [w])
        assert intersection_matrices(h, h).deltas == (1,)
        monkeypatch.setattr(intersection, "MAX_EXPANSION_VERTICES", 6)
        assert intersect_fg(h, h) == h
        assert intersect_fg(h1, fits).skeleton.num_vertices == 7  # adds 6
        with pytest.raises(ValueError, match="more than 6 vertices"):
            intersect_fg(h1, over)

    def test_stream_and_ball_check_the_budget_per_sphere(self, monkeypatch):
        # the plane: a one-vertex product, and a ball of radius R with
        # 2R^2 + 2R + 1 elements (radius 3: 25, radius 4: 41)
        h1 = stallings(F2Z2, elems(F2Z2, (X, (1, 0)), (Y, (0, 1))))
        h2 = stallings(F2Z2, elems(F2Z2, (X, (0, 0)), (Y, (0, 0))))
        rep = intersection_matrices(h1, h2)
        assert rep.verdict == VERDICT_NOT_FG and rep.prod.skeleton.num_vertices == 1
        monkeypatch.setattr(intersection, "MAX_EXPANSION_VERTICES", 24)
        radii = []
        with pytest.raises(ValueError, match="more than 24 vertices"):
            for stage in itertools.islice(rep.stages(), 10):
                radii.append(stage.radius)
        assert radii == [0, 1, 2, 3]  # stage 3 adds 24 vertices to the product, stage 4 40
        assert cayley_multidigraph(rep.deltas, rep.snf.Q, 2)[0].num_vertices == 13
        with pytest.raises(ValueError, match="more than 24 vertices"):
            cayley_multidigraph(rep.deltas, rep.snf.Q, 3)
        monkeypatch.setattr(intersection, "MAX_EXPANSION_VERTICES", 25)
        assert cayley_multidigraph(rep.deltas, rep.snf.Q, 3)[0].num_vertices == 25

    def test_stream_counts_the_copies_of_a_larger_product(self, monkeypatch):
        # <x1 t> & <x1^2, t^3> = <x1^6 t^6>: three copies of a two-vertex
        # product; the stream and intersect_fg refuse alike
        f1z = Ambient(1, AbelianSpec(1))
        h1 = stallings(f1z, [f1z.element(X, (1,))])
        h2 = stallings(f1z, [f1z.element(X + X), f1z.element((), (3,))])
        rep = intersection_matrices(h1, h2)
        vt, size = rep.prod.skeleton.num_vertices, 3
        assert rep.verdict == VERDICT_FG and vt == 2 and rep.deltas == (size,)
        monkeypatch.setattr(intersection, "MAX_EXPANSION_VERTICES", vt * (size - 1))
        assert list(rep.stages())[-1].complete
        assert intersect_fg(h1, h2, report=rep) == fg_by_stages(rep)
        monkeypatch.setattr(intersection, "MAX_EXPANSION_VERTICES", vt * (size - 1) - 1)
        for build in (lambda: list(rep.stages()), lambda: intersect_fg(h1, h2, report=rep)):
            with pytest.raises(ValueError, match="vertices"):
                build()


class TestEqualization:
    def test_zero_labels_equalizable(self):
        h = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ())))
        p = doubly_enriched_product(h, h)
        e = equalize(p)
        assert e.base == AbelianSubgroup.trivial(F2Z.abelian)

    def test_moldavanski_product_not_equalizable(self):
        h1, h2 = moldavanski()
        p = doubly_enriched_product(h1, h2)
        with pytest.raises(NotEqualizableError):
            equalize(p)

    def test_case1_witnesses(self):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        e = intersect_fg(h1, h2)
        witnesses = sorted(set(lab2 for _, lab2 in e.labels) - {(0, 0)})
        assert witnesses == [(-3, 6), (3, 0), (6, -6)]


# Case 1 golden basis.  With exponent -12 in the last word the factor
# completions never meet ((-2,0)+<(0,6)> vs (0,3)+<(3,-3)>), so that variant
# cannot lie in the intersection; -15 is the exponent consistent with the
# witness (-3,6).
CASE1_BASIS = [
    ((2, 1, 1, 1, -2) + (1,) * 6, (3, 0)),
    ((2, 1, 1, 1, 1, 1, 1, -2) + (1,) * 6 + (2, -1, -1, -1, -2), (3, 0)),
    ((2,) + (1,) * 9 + (-2,) + (1,) * 6 + (2,) + (-1,) * 6 + (-2,), (3, 0)),
    ((2,) + (1,) * 12 + (-2,) + (1,) * 6 + (2,) + (-1,) * 9 + (-2,), (3, 0)),
    ((2,) + (1,) * 15 + (-2,) + (1,) * 6 + (2,) + (-1,) * 12 + (-2,), (3, 0)),
    ((2,) + (1,) * 18 + (-2,), (6, -6)),
    ((1,) * 6 + (2,) + (-1,) * 15 + (-2,), (-3, 6)),
]


def assert_same_subgroup(ambient, e, listed):
    """Mutual membership between a computed automaton and a listed basis."""
    for g in listed:
        assert member(e, g)
    regen = stallings(ambient, list(listed) + [
        GroupElement((), row) for row in e.base.lattice_basis
    ])
    b = basis(e)
    for g in b.free_part:
        assert member(regen, g)
    for row in e.base.lattice_basis:
        assert member(regen, GroupElement((), row))


class TestFiniteIntersections:
    def test_case1(self):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        e = intersect_fg(h1, h2)
        b = basis(e)
        assert len(b.free_part) == 7
        assert e.base == AbelianSubgroup.trivial(F2Z2.abelian)
        listed = [F2Z2.element(w, v) for w, v in CASE1_BASIS]
        assert_same_subgroup(F2Z2, e, listed)
        # the exponent -12 variant really is outside the intersection
        variant = F2Z2.element((1,) * 6 + (2,) + (-1,) * 12 + (-2,), (-3, 6))
        assert not member(h1, variant)
        assert not member(e, variant)

    def test_case3(self):
        h1, h2 = parameterized((3, 3), (2, 2), [(2, 2)], [])
        rep = intersection_matrices(h1, h2)
        assert rep.deltas == (1, 2) and rep.verdict == VERDICT_FG
        e = intersect_fg(h1, h2)
        b = basis(e)
        assert len(b.free_part) == 3
        listed = elems(
            F2Z2,
            ((1,) * 6, (6, 6)),
            ((2,) + (1,) * 6 + (-2,), (0, 0)),
            ((2, 1, 1, 1, -2) + (1,) * 6 + (2, -1, -1, -1, -2), (6, 6)),
        )
        assert_same_subgroup(F2Z2, e, listed)

    def test_case4(self):
        h1, h2 = parameterized((3, 3), (2, 2), [(1, 1)], [])
        rep = intersection_matrices(h1, h2)
        assert rep.deltas == (1, 1)
        e = intersect_fg(h1, h2)
        assert len(basis(e).free_part) == 2
        listed = elems(F2Z2, ((1,) * 6, (6, 6)), ((2, 1, 1, 1, -2), (0, 0)))
        assert_same_subgroup(F2Z2, e, listed)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_case5(self, p):
        h1, h2 = parameterized((6, 6), (4, 4), [(6 * p, 6 * p)], [])
        rep = intersection_matrices(h1, h2)
        assert rep.deltas == (1, p)
        e = intersect_fg(h1, h2)
        assert len(basis(e).free_part) == p + 1
        listed = [F2Z2.element((2,) + (1,) * (3 * p) + (-2,), (0, 0))] + [
            F2Z2.element(
                (2,) + (1,) * (3 * k) + (-2,) + (1,) * 6 + (2,) + (-1,) * (3 * k) + (-2,),
                (12, 12),
            )
            for k in range(p)
        ]
        assert_same_subgroup(F2Z2, e, listed)

    def test_same_subgroup_intersection(self):
        h1 = stallings(F2Z, elems(F2Z, ((1, 2), (1,)), ((2, 2), (0,))))
        e = intersect_fg(h1, h1)
        b = basis(e)
        for g in b.free_part:
            assert member(h1, g)
        assert member(e, F2Z.element((1, 2), (1,)))
        assert member(e, F2Z.element((2, 2), (0,)))

    def test_not_fg_raises(self):
        h1, h2 = moldavanski()
        with pytest.raises(ValueError):
            intersect_fg(h1, h2)

    def test_trivial_projection_point(self):
        h1 = stallings(F2Z, elems(F2Z, ((1,), (0,)), ((), (2,))))
        h2 = stallings(F2Z, elems(F2Z, ((2,), (0,)), ((), (3,))))
        rep = intersection_matrices(h1, h2)
        assert rep.pi_trivial
        e = intersect_fg(h1, h2)
        assert e.skeleton.num_vertices == 1 and not e.skeleton.arcs
        assert e.base == AbelianSubgroup.from_generators(F2Z.abelian, [(6,)])


class TestFgPipelineAgainstPaperSteps:
    """intersect_fg, the completed expansion pruned to its core and equalized
    once, against the paper's steps run one after another: Cayley graph,
    vertex expansion, folding, equalization."""

    AMBIENTS = {
        "F2xZ": Ambient(2, AbelianSpec(1)),
        "F3xZ2": Ambient(3, AbelianSpec(2)),
        "F2x(Z+Z6)": Ambient(2, AbelianSpec(1, (6,))),
        "F2x(Z2+Z4)": Ambient(2, AbelianSpec(0, (2, 4))),
    }

    @staticmethod
    def paper_steps(e1, e2, order):
        report = intersection_matrices(e1, e2, order)
        prod = report.prod
        delta_aut, _ = cayley_multidigraph(report.deltas, report.snf.Q)
        x = vertex_expand(delta_aut, prod, spanning_tree_by_order(prod.skeleton, order))
        x = doubly_reduce(x, order)
        return equalize(x, spanning_tree_by_order(x.skeleton, order))

    def check(self, e1, e2, order):
        e = intersect_fg(e1, e2, order)
        assert e == self.paper_steps(e1, e2, order)
        assert core(e.skeleton) == e.skeleton

    def test_rank_one_stems_are_pruned(self):
        # r = 1: each copy of the product hangs a stem off the expanded cycle
        h1 = stallings(F2Z, elems(F2Z, ((-1,), (1,)), ((2,), (2,)), ((), (3,))))
        h2 = stallings(F2Z, elems(F2Z, ((-2, 1, 2), (-2,))))
        rep = intersection_matrices(h1, h2)
        assert rep.verdict == VERDICT_FG and rep.deltas == (3,)
        _, stages = intersect_stages(h1, h2, max_radius=8)
        last = list(stages)[-1]
        assert last.complete and last.automaton.skeleton.num_vertices == 6
        assert intersect_fg(h1, h2).skeleton.num_vertices == 4
        self.check(h1, h2, None)

    @pytest.mark.parametrize("name", list(AMBIENTS))
    def test_random_pairs(self, name):
        ambient = self.AMBIENTS[name]
        rng = random.Random(f"fg-pipeline:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        checked = 0
        while checked < 40:
            order = None if checked % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1 = stallings(ambient, random_subgroup_gens(rng, ambient), order)
            e2 = stallings(ambient, random_subgroup_gens(rng, ambient), order)
            rep = intersection_matrices(e1, e2, order=order)
            if rep.verdict != VERDICT_FG or rep.pi_trivial:
                continue
            self.check(e1, e2, order)
            checked += 1

    @pytest.mark.parametrize("name", list(AMBIENTS))
    def test_doubly_reduce_labels_each_arc_by_its_value(self, name):
        ambient = self.AMBIENTS[name]
        zero = ambient.zero()
        rng = random.Random(f"doubly-reduce:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        checked = 0
        while checked < 10:
            order = tuple(rng.sample(letters, len(letters)))
            e1 = stallings(ambient, random_subgroup_gens(rng, ambient), order)
            e2 = stallings(ambient, random_subgroup_gens(rng, ambient), order)
            rep = intersection_matrices(e1, e2, order=order)
            if rep.verdict != VERDICT_FG or rep.pi_trivial:
                continue
            delta_aut, _ = cayley_multidigraph(rep.deltas, rep.snf.Q)
            x = doubly_reduce(vertex_expand(delta_aut, rep.prod, rep.tree), order)
            assert all(lab1 == zero for lab1, _ in x.labels1 + x.labels2)
            tree = spanning_tree_by_order(x.skeleton, order)
            assert equalize(x, tree) == intersect_fg(e1, e2, order, report=rep)
            checked += 1


class TestNormalizeDoubly:
    """normalize_doubly T-normalizes each label layer as normalize does
    alone, on the same tree, and leaves a product normalized on its tree
    as it is."""

    def test_against_normalize_on_each_layer(self):
        rng = random.Random("normalize-doubly")
        letters = [k for k in range(-TORSION.n, TORSION.n + 1) if k]
        checked = moved = 0
        for i in range(60):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1, e2 = (stallings(TORSION, random_subgroup_gens(rng, TORSION), order)
                      for _ in range(2))
            rep = intersection_matrices(e1, e2, order)
            assert normalize_doubly(rep.prod, rep.tree) == rep.prod
            ball, _ = cayley_multidigraph(rep.deltas, rep.snf.Q, None if all(rep.deltas) else 2)
            x = vertex_expand(ball, rep.prod, rep.tree)
            for y in (x, doubly_reduce(x, order)):
                tree = spanning_tree_by_order(y.skeleton, order)
                got = normalize_doubly(y, tree)
                assert (got.skeleton, got.base1, got.base2) == (y.skeleton, y.base1, y.base2)
                for labels, before, base in ((got.labels1, y.labels1, y.base1),
                                             (got.labels2, y.labels2, y.base2)):
                    alone = normalize(EnrichedAutomaton(TORSION, y.skeleton, before, base), tree)
                    assert labels == alone.labels
                    moved += labels != before
                checked += 1
        assert checked == 120 and moved >= 40


class TestFgExpandsOnce:
    """intersect_fg runs the stream's expansion to the end with no per-stage
    equalization, then equalizes each canonical petal once; the reference
    runs the whole stream and T-normalizes the core of its last stage."""

    AMBIENTS = dict(TestFgPipelineAgainstPaperSteps.AMBIENTS, F2=Ambient(2, AbelianSpec(0)))

    @staticmethod
    def pair(rng, ambient, i, order):
        """Random subgroups; every fourth pair two powers of one word (r = 1),
        and half the pairs conjugated by one word, which puts the basepoint
        on a stem of the product."""
        gens = [random_subgroup_gens(rng, ambient, 4, 4) for _ in range(2)]
        if i % 4 == 3:
            w = random_element(rng, ambient, 3, 0).word
            gens = [[ambient.element(w * p, random_element(rng, ambient).vec),
                     ambient.element((), random_element(rng, ambient).vec)] for p in (2, 3)]
        if i % 4 >= 2:
            u = random_element(rng, ambient, 3, 0)
            gens = [[ambient.multiply(ambient.multiply(u, g), ambient.invert(u)) for g in gs]
                    for gs in gens]
        return [stallings(ambient, gs, order) for gs in gens]

    @pytest.mark.parametrize("name", list(AMBIENTS))
    def test_against_the_stream(self, name):
        ambient = self.AMBIENTS[name]
        rng = random.Random(f"fg-expands-once:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        seen = {"trivial": 0, "rank one": 0, "stems": 0, "larger": 0}
        for i in range(160):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1, e2 = self.pair(rng, ambient, i, order)
            rep = intersection_matrices(e1, e2, order)
            if rep.verdict != VERDICT_FG:
                continue
            e = intersect_fg(e1, e2, order, report=rep)
            assert e == fg_by_stages(rep)
            if rep.pi_trivial:
                seen["trivial"] += 1
            elif rep.r == 1:
                seen["rank one"] += 1
                *_, last = rep.stages()
                seen["stems"] += e.skeleton.num_vertices < last.automaton.skeleton.num_vertices
            else:
                seen["larger"] += 1
        assert min(seen["trivial"], seen["rank one"], seen["larger"]) >= 10
        # with m = 0, Z^1 / M is trivial for r = 1: one block, so no stems
        assert seen["stems"] >= (1 if ambient.m else 0)

    def test_no_stage_work_and_one_solve_per_double_label(self, monkeypatch):
        # the stream's stage loop and the per-stage tree, potential, root-path
        # and labelling calls it makes through this module are never reached;
        # the one search is the canonical core's, from its root
        stage_work, resumed, resume = [], [], words._TreeSearch.resume
        monkeypatch.setattr(intersection._ExpansionStream, "stages",
                            lambda *args: stage_work.append("stages"))
        for name in ("_fill_potentials", "_root_paths", "_arc_value", "_petal_cut"):
            monkeypatch.setattr(intersection, name, lambda *args, name=name: stage_work.append(name))
        monkeypatch.setattr(words._TreeSearch, "resume",
                            lambda search, start: resumed.append(start) or resume(search, start))
        repeated = 0
        for name, ambient in self.AMBIENTS.items():
            rng = random.Random(f"fg-solves:{name}")
            letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
            checked = 0
            while checked < 8:
                order = None if checked % 2 == 0 else tuple(rng.sample(letters, len(letters)))
                e1, e2 = self.pair(rng, ambient, checked, order)
                rep = intersection_matrices(e1, e2, order)
                if rep.verdict != VERDICT_FG or rep.pi_trivial:
                    continue
                checked += 1
                solved, solve = [], rep.solver.witness

                def counted(a, b):
                    solved.append((a, b))
                    return solve(a, b)

                rep.solver.witness = counted
                resumed.clear()
                e = intersect_fg(e1, e2, order, report=rep)
                assert resumed == [0]
                # each petal's unreduced pair: its word's sums in the product's two layers
                petals = [doubly_completion(rep.prod, w)
                          for w in words.t_basis(e.skeleton, spanning_tree_by_order(e.skeleton, order))]
                assert len(solved) == len(set(solved)) and set(solved) == set(petals)
                repeated += len(petals) > len(solved)
        assert stage_work == []
        assert repeated >= 4

    def test_step_map_built_for_the_product_only(self, monkeypatch):
        # the expansion keeps its own step map as it appends its arcs
        calls, real = [], words._step_map

        def counted(n, arcs):
            calls.append(tuple(arcs))
            return real(n, arcs)

        for module in (words, enriched, intersection):
            monkeypatch.setattr(module, "_step_map", counted)
        checked = 0
        for name, ambient in self.AMBIENTS.items():
            rng = random.Random(f"fg-step-map:{name}")
            letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
            for i in range(12):
                order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
                e1, e2 = self.pair(rng, ambient, i, order)
                calls.clear()
                rep = intersection_matrices(e1, e2, order)
                if rep.verdict != VERDICT_FG:
                    continue
                raw, _ = product_with_provenance(e1.skeleton, e2.skeleton)
                assert calls == [raw.arcs]
                calls.clear()
                intersect_fg(e1, e2, order, report=rep)
                assert calls == []
                intersect_fg(e1, e2, order)
                assert calls == [raw.arcs]
                checked += not rep.pi_trivial
        assert checked >= 20

    def test_a_repeated_step_key_is_rejected(self, monkeypatch):
        # an expansion doctored to append its last arc twice: both copies
        # write the same two step keys, which the O(1) count check catches
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        rep = intersection_matrices(h1, h2)
        assert len(basis(intersect_fg(h1, h2, report=rep)).free_part) == 7
        real = intersection._ExpansionStream._expand

        def doctored(stream):
            sphere = real(stream)
            if not stream.ball.sphere:
                arc = o, k, t = stream.arcs[-1]
                x, width = len(stream.arcs), stream.search.width
                stream.steps[o * width + k], stream.steps[t * width - k] = (t, x, 1), (o, x, -1)
                stream.arcs.append(arc)
                stream.diffs.append(stream.diffs[-1])
            return sphere

        monkeypatch.setattr(intersection._ExpansionStream, "_expand", doctored)
        with pytest.raises(ValueError, match="not deterministic"):
            intersect_fg(h1, h2, report=rep)

    @pytest.mark.parametrize("name", list(AMBIENTS))
    def test_product_tree_arcs_carry_nothing(self, name):
        """Every block of the expansion copies the product's tree arcs with
        no label difference: the product is normalized on that very tree."""
        ambient = self.AMBIENTS[name]
        zero = ambient.zero()
        rng = random.Random(f"fg-tree-arcs:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        checked = 0
        for i in range(80):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            rep = intersection_matrices(*self.pair(rng, ambient, i, order), order)
            prod = rep.prod
            for x in rep.tree.tree_arcs:
                assert prod._joined_differences[x] is None
                assert prod.labels1[x] == prod.labels2[x] == (zero, zero)
                checked += 1
        assert checked >= 80


class TestBasisLabelsAreCanonical:
    """basis reads each petal label as it is: normalizing on a tree reduces
    it modulo an HNF that holds the torsion relations, and intersect_fg
    labels petals with canonical witnesses."""

    @pytest.mark.parametrize("name", ["F2x(Z+Z6)", "F2x(Z2+Z4)"])
    def test_constructor_outputs_on_default_and_permuted_trees(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        canonicalize = ambient.abelian.canonicalize
        rng = random.Random(f"canonical-labels:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        fg = torsion = 0
        for i in range(60):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1, e2 = TestFgExpandsOnce.pair(rng, ambient, i, order)
            outputs = [e1, e2, finite_index_factor_extension(e1, order)]
            rep = intersection_matrices(e1, e2, order)
            if rep.verdict == VERDICT_FG:
                outputs.append(intersect_fg(e1, e2, order, report=rep))
                fg += 1
            permuted = tuple(rng.sample(letters, len(letters)))
            for e in outputs:
                for tree in (None, spanning_tree_by_order(e.skeleton, order),
                             spanning_tree_by_order(e.skeleton, permuted)):
                    for g in basis(e, tree).free_part:
                        assert g.vec == canonicalize(g.vec)
                        torsion += any(g.vec[ambient.abelian.m_free:])
        assert fg >= 20 and torsion >= 200


class TestOneContext:
    """The report is the intersection's context: its order, product and tree
    are built once, and later steps read them instead of rebuilding them."""

    TORSION = Ambient(2, AbelianSpec(1, (6,)))
    ORDER = (-1, 2, -2, 1)  # x1^-1, x2, x2^-1, x1

    def torsion_gens(self):
        amb = self.TORSION
        g1 = [amb.element((2, -1, -1), (-2, 0)), amb.element((2,), (1, 1))]
        g2 = [amb.element((1, 1), (0, 4)), amb.element((-2, -1), (2, 0))]
        return g1, g2

    def test_basis_reads_a_factor_on_another_orders_tree(self):
        g1, _ = self.torsion_gens()
        h1 = stallings(self.TORSION, g1)
        tree = spanning_tree_by_order(h1.skeleton, self.ORDER)
        free = basis(h1, tree).free_part
        assert [g.word for g in free] == [(2,), (1, 1)]
        assert all(member(h1, g) for g in free)

    def test_factors_built_under_another_order(self):
        g1, g2 = self.torsion_gens()
        h1, h2 = stallings(self.TORSION, g1), stallings(self.TORSION, g2)
        mixed = intersection_matrices(h1, h2, order=self.ORDER)
        consistent = intersection_matrices(
            stallings(self.TORSION, g1, self.ORDER),
            stallings(self.TORSION, g2, self.ORDER),
            order=self.ORDER,
        )
        for rep in (mixed, consistent, intersection_matrices(h1, h2)):
            assert rep.verdict == VERDICT_NOT_FG and rep.deltas == (1, 0)
        assert mixed.D == consistent.D

    @pytest.mark.parametrize("name", ["F2xZ", "F3xZ2", "F2x(Z+Z6)"])
    def test_random_factors_under_either_order(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"one-context:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        for _ in range(80):
            order = tuple(rng.sample(letters, len(letters)))
            g1 = random_subgroup_gens(rng, ambient)
            g2 = random_subgroup_gens(rng, ambient)
            built = [
                (stallings(ambient, g1, o), stallings(ambient, g2, o)) for o in (None, order)
            ]
            reps = [intersection_matrices(e1, e2, order=order) for e1, e2 in built]
            assert reps[0].verdict == reps[1].verdict
            assert reps[0].deltas == reps[1].deltas
            assert reps[0].D == reps[1].D
            if reps[1].verdict == VERDICT_FG:
                assert intersect_fg(*built[0], order, report=reps[0]) == intersect_fg(
                    *built[1], order, report=reps[1]
                )

    def test_intersect_fg_reuses_the_reports_product(self, monkeypatch):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        rep = intersection_matrices(h1, h2)
        calls = []
        real = intersection.doubly_enriched_product

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(intersection, "doubly_enriched_product", counted)
        e = intersect_fg(h1, h2, report=rep)
        assert calls == []
        assert len(e.skeleton.arcs) - e.skeleton.num_vertices + 1 == 7

    def test_one_op_searches_once_in_each_canonical_core(self, monkeypatch):
        # the product's and the intersection's canonical cores each run one
        # whole search; every other tree is read from a memo
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        searches, inside, outside, whole = [], [], [], []
        resume, core = words._TreeSearch.resume, intersection._canonical_core

        def counted_resume(search, start):
            (searches[-1] if inside else outside).append((list(search.vertices), start))
            return resume(search, start)

        def counted_core(*args):
            searches.append([])
            inside.append(True)
            try:
                return core(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(words._TreeSearch, "resume", counted_resume)
        monkeypatch.setattr(words, "_breadth_first", lambda *args: whole.append(args))
        monkeypatch.setattr(intersection, "_canonical_core", counted_core)
        rep = intersection_matrices(h1, h2)
        b = basis(intersect_fg(h1, h2, report=rep))
        assert [len(calls) for calls in searches] == [1, 1]
        for (([root], start),) in searches:  # a fresh search, run from its root
            assert start == 0
        assert outside == [] and whole == []
        assert rep.verdict == VERDICT_FG and len(b.free_part) == 7

    def test_report_under_another_order_is_rejected(self):
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        rep = intersection_matrices(h1, h2)
        with pytest.raises(ValueError, match="another letter order"):
            intersect_fg(h1, h2, (2, -2, 1, -1), report=rep)
        assert intersect_fg(h1, h2, (1, -1, 2, -2), report=rep) == intersect_fg(h1, h2)

    def test_stages_carry_the_reports_order(self):
        h1, h2 = moldavanski()
        order = (2, -1, -2, 1)
        rep, stages = intersect_stages(h1, h2, max_radius=2, order=order)
        assert rep.order == order
        assert rep.tree == spanning_tree_by_order(rep.prod.skeleton, order)
        assert [s.automaton for s in stages] == [
            s.automaton for s in itertools.islice(rep.stages(), 3)
        ]


class TestDFromTheProduct:
    """D is read off the product's petal values; it equals B1 A1 - B2 A2
    from the factors' bases, which the report builds only when read."""

    @staticmethod
    def from_factor_bases(rep):
        m = rep.ambient.m
        return tuple(
            abelian.vec_sub(abelian.vec_mat(r1, rep.A1, m), abelian.vec_mat(r2, rep.A2, m))
            for r1, r2 in zip(rep.B1, rep.B2)
        )

    @staticmethod
    def small_lattice_pair(rng, ambient):
        """<w_i t^a_i, t^c> and <w_i t^b_i, t^c'> on one list of words, with
        small c, c': many petals, and labels that the two factors' trees
        reduce differently."""
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        words = [[rng.choice(letters) for _ in range(rng.randint(2, 5))]
                 for _ in range(rng.randint(2, 3))]
        return [
            [ambient.element(w, tuple(rng.randint(-5, 5) for _ in range(ambient.m))) for w in words]
            + [ambient.element((), tuple(rng.randint(2, 3) for _ in range(ambient.m)))]
            for _ in range(2)
        ]

    @pytest.mark.parametrize("name", list(TestFgPipelineAgainstPaperSteps.AMBIENTS))
    def test_against_the_factor_bases(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"d-from-product:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        nonzero = 0
        for i in range(120):
            order = tuple(rng.sample(letters, len(letters)))
            if i % 4 < 2:
                g1, g2 = (random_subgroup_gens(rng, ambient, max_gens=4, maxlen=5) for _ in "12")
            else:
                g1, g2 = self.small_lattice_pair(rng, ambient)
            # built and intersected under one order, or built under the
            # default order and intersected under a permuted one
            built = None if i % 2 else order
            rep = intersection_matrices(
                stallings(ambient, g1, built), stallings(ambient, g2, built), order)
            assert rep.D == self.from_factor_bases(rep)
            assert len(rep.D) == rep.r
            nonzero += any(map(any, rep.D))
        assert nonzero >= 40

    def test_matrices_read_no_factor_basis(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(intersection, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("basis", "word_coordinates"):
            monkeypatch.setattr(intersection, name, counted(name))
        h1, h2 = parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)])
        rep = intersection_matrices(h1, h2, (2, -1, 1, -2))
        assert calls == []
        assert rep.D == self.from_factor_bases(rep)
        assert sorted(set(calls)) == ["basis", "word_coordinates"]


class TestJoinedLayers:
    """Both label layers ride as one joined value a || b per arc.  Split at
    m, the joined values equal the same tree routines run on each layer
    alone, and D, the product's labels, intersect_fg and the stream's
    labels equal a direct solve of each arc's (a, b)."""

    @staticmethod
    def split(values, m):
        """The two layers of joined values, None for zero as in each layer."""
        halves = [[None if v is None else v[cut] for v in values]
                  for cut in (slice(m), slice(m, None))]
        return [[v if v is not None and any(v) else None for v in h] for h in halves]

    @staticmethod
    def copied_differences(rep, arcs):
        """Each layer's label difference of the product arc that each
        expanded arc copies: the arc with its origin and letter in a block."""
        prod, vt = rep.prod, rep.prod.skeleton.num_vertices
        source = [prod.skeleton.step(o % vt, k)[1] for o, k, _ in arcs]
        return [[diffs[x] for x in source]
                for diffs in map(_label_differences, (prod.labels1, prod.labels2))]

    @staticmethod
    def solved(rep, a, b):
        c = abelian.coset_intersection_witness(a, rep.prod.base1, b, rep.prod.base2)
        assert c is not None
        return c

    def check_product(self, e1, e2, rep):
        m, zero = rep.ambient.m, rep.ambient.zero()
        raw, prov = product_with_provenance(e1.skeleton, e2.skeleton)
        skeleton, tree, kept = _canonical_core(
            rep.ambient.n, raw.basepoint, raw.arcs, raw._steps, rep.order)
        assert skeleton == rep.prod.skeleton and tree == rep.tree
        factor_diffs = [
            _label_differences(normalize(e, spanning_tree_by_order(e.skeleton, rep.order)).labels)
            for e in (e1, e2)]
        layers = [[diffs[prov[x][side]] for x in kept] for side, diffs in enumerate(factor_diffs)]
        alone = [_tree_values(skeleton, tree, diffs, zero) for diffs in layers]
        joined = _tree_values(skeleton, tree, intersection._joined(*layers, zero), zero + zero)
        petals = tree.petal_arcs
        assert [[joined[x][cut] for x in petals] for cut in (slice(m), slice(m, None))] == [
            [values[x] for x in petals] for values in alone]
        assert rep.D == tuple(abelian.vec_sub(alone[0][x], alone[1][x]) for x in petals)
        assert (rep.prod.labels1, rep.prod.labels2) == tuple(
            tuple((zero, zero if v is None else e.base.reduce_mod(v)) for v in values)
            for values, e in zip(alone, (e1, e2)))
        # the seeded joined differences are those of the labels, and the
        # product's own petal values split as each layer's
        prod_layers = [_label_differences(x) for x in (rep.prod.labels1, rep.prod.labels2)]
        assert rep.prod._joined_differences == intersection._joined(*prod_layers, zero)
        joined = _tree_values(skeleton, tree, rep.prod._joined_differences, zero + zero)
        alone = [_tree_values(skeleton, tree, diffs, zero) for diffs in prod_layers]
        assert self.split(joined, m) == [[v if v is not None and any(v) else None for v in values]
                                         for values in alone]

    def check_fg(self, e1, e2, rep):
        m, zero = rep.ambient.m, rep.ambient.zero()
        expansion = intersection._ExpansionStream(rep)
        while not rep.pi_trivial and expansion.ball.sphere:
            expansion._expand()
        layers = self.copied_differences(rep, expansion.arcs)
        assert self.split(expansion.diffs, m) == layers
        steps = _step_map(rep.ambient.n, expansion.arcs)
        assert expansion.steps == steps  # kept as the arcs were appended
        skeleton, tree, kept = _canonical_core(
            rep.ambient.n, rep.prod.skeleton.basepoint, expansion.arcs, steps, rep.order)
        alone = [_tree_values(skeleton, tree, [diffs[x] for x in kept], zero) for diffs in layers]
        joined = _tree_values(skeleton, tree, [expansion.diffs[x] for x in kept], zero + zero)
        assert [None if v is None else (v[:m], v[m:]) for v in joined] == [
            None if a is None else (a, b) for a, b in zip(*alone)]
        labels = tuple((zero, zero) if a is None else (zero, self.solved(rep, a, b))
                       for a, b in zip(*alone))
        expected = EnrichedAutomaton(rep.ambient, skeleton, labels, rep.base)
        assert intersect_fg(e1, e2, rep.order, report=rep) == expected

    def check_stream(self, rep):
        """The first 4 stages, labelled from each layer's own potentials on
        the stream's tree."""
        m, zero = rep.ambient.m, rep.ambient.zero()
        stream = intersection._ExpansionStream(rep)
        stages = list(itertools.islice(stream.stages(), 4))
        layers = self.copied_differences(rep, stream.arcs)
        assert self.split(stream.diffs, m) == layers
        search, arcs = stream.search, stream.arcs
        phi = [{search.vertices[0]: zero} for _ in layers]
        for w in search.vertices[1:]:  # each after its parent
            x, d = search.parent[w]
            o, _, t = arcs[x]
            for p, diffs in zip(phi, layers):
                diff = diffs[x] or zero
                p[w] = abelian.vec_sub(p[o], diff) if d == 1 else abelian.vec_add(p[t], diff)
        labels, nonzero = [], 0
        for x, (o, _, t) in enumerate(arcs):
            if x in search.tree_arcs:
                labels.append((zero, zero))
                continue
            a, b = (abelian.vec_add(abelian.vec_sub(p[t], p[o]), diffs[x] or zero)
                    for p, diffs in zip(phi, layers))
            labels.append((zero, self.solved(rep, a, b)))
            nonzero += any(labels[-1][1])
        assert stream.labels == labels
        for stage in stages:
            automaton = stage.automaton
            assert automaton.labels == tuple(labels[:len(automaton.labels)])
        return nonzero

    @pytest.mark.parametrize("name", list(TestFgPipelineAgainstPaperSteps.AMBIENTS))
    def test_against_each_layer_alone(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"joined-layers:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        fg = not_fg = nonzero = 0
        for i in range(64):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            if i % 4 in (1, 2):
                e1, e2 = TestStageCost.same_words_pair(rng, ambient, order)
            else:
                e1, e2 = TestFgExpandsOnce.pair(rng, ambient, i, order)
            rep = intersection_matrices(e1, e2, order)
            self.check_product(e1, e2, rep)
            if rep.verdict == VERDICT_FG:
                self.check_fg(e1, e2, rep)
                fg += 1
            else:
                not_fg += 1
            nonzero += self.check_stream(rep)
        # with no Z factor every Z^r / M is finite
        assert fg >= 10 and not_fg >= (5 if ambient.abelian.m_free else 0)
        assert nonzero >= 50


class TestLazyWords:
    """The report's petal words are built on first read: neither the
    verdict nor the constructions walk them."""

    @pytest.mark.parametrize("case, r", [
        ("trivial", 0), ("cyclic", 1), ("moldavanski", 2), ("case1", 2), ("case3", 2),
    ])
    def test_words_on_first_read(self, monkeypatch, case, r):
        calls = []
        real = intersection.t_basis
        monkeypatch.setattr(intersection, "t_basis", lambda *args: calls.append(args) or real(*args))
        pair = {
            "trivial": lambda: [stallings(F2Z, elems(F2Z, (w, (1,)))) for w in (X, Y)],
            "cyclic": lambda: [stallings(F2Z, elems(F2Z, (X * p, (p,)))) for p in (2, 3)],
            "moldavanski": moldavanski,
            "case1": lambda: parameterized((1, 0), (0, 1), [(0, 6)], [(3, -3)]),
            "case3": lambda: parameterized((3, 3), (2, 2), [(2, 2)], []),
        }[case]()
        rep = intersection_matrices(*pair)
        assert rep.r == r == len(rep.D)
        if rep.verdict == VERDICT_FG:
            intersect_fg(*pair, report=rep)
        list(itertools.islice(rep.stages(), 3))
        assert calls == []
        assert rep.words == tuple(words.t_basis(rep.prod.skeleton, rep.tree))
        assert len(rep.words) == r and len(calls) == 1
        assert rep.words is rep.words and len(calls) == 1


class TestAgainstSmithForm:
    """The verdict and the Cayley ball come from matrices of at most m rows
    and columns; the r x r Smith form of M is their oracle."""

    @staticmethod
    def stage_against_paper_steps(rep, stage):
        """The stage equals the vertex expansion of the Cayley ball of its
        radius on the Smith form's generators, equalized."""
        ball, _ = cayley_multidigraph(rep.deltas, rep.snf.Q, radius=stage.radius)
        x = vertex_expand(ball, rep.prod, rep.tree)
        got = stage.automaton
        assert got.skeleton.num_vertices == x.skeleton.num_vertices
        assert got.skeleton.basepoint == x.skeleton.basepoint
        assert sorted(got.skeleton.arcs) == sorted(x.skeleton.arcs)
        at = {arc: i for i, arc in enumerate(got.skeleton.arcs)}
        labels = tuple(got.labels[at[arc]] for arc in x.skeleton.arcs)
        tree = spanning_tree_by_order(x.skeleton, rep.order)
        ours = EnrichedAutomaton(got.ambient, x.skeleton, labels, got.base)
        assert normalize(ours, tree) == normalize(equalize(x, tree), tree)

    @pytest.mark.parametrize("name", list(TestFgPipelineAgainstPaperSteps.AMBIENTS))
    def test_random_pairs(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"smith-oracle:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        for i in range(30):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1 = stallings(ambient, random_subgroup_gens(rng, ambient), order)
            e2 = stallings(ambient, random_subgroup_gens(rng, ambient), order)
            rep = intersection_matrices(e1, e2, order=order)
            dec = snf(rep.M.lattice_basis, rep.r)
            assert rep.snf == dec
            assert rep.deltas == dec.deltas_padded(rep.r) and rep.s == dec.s
            assert (rep.verdict, rep.pi_trivial, rep.free_rank) == decide_finitely_generated(
                rep.r, dec.s, dec.deltas_padded(rep.r)
            )
            if rep.pi_trivial:
                continue
            for stage in itertools.islice(rep.stages(), 3):
                self.stage_against_paper_steps(rep, stage)

    def test_no_r_by_r_work_on_the_verdict_or_stream(self, monkeypatch):
        # x1-exponent sums divisible by 8 and by 9, tails mod 2: r = 73, m = 1
        h1, h2 = (
            stallings(F2Z, [F2Z.element((1,) * n, (1,)), F2Z.element((), (2,))] + [
                F2Z.element((1,) * i + (2,) + (-1,) * i, (i,)) for i in range(n)
            ])
            for n in (8, 9)
        )
        widths, preimages, solvers = [], [], []
        real_snf, real_pre = abelian.snf, abelian.preimage_under_matrix
        real_solver = abelian.CosetIntersection

        def counted_snf(rows, width=None):
            widths.append(width)
            return real_snf(rows, width)

        def counted_pre(*args, **kwargs):
            preimages.append(args)
            return real_pre(*args, **kwargs)

        def counted_solver(*args, **kwargs):
            solvers.append(args)
            return real_solver(*args, **kwargs)

        for module in (abelian, intersection):
            monkeypatch.setattr(module, "snf", counted_snf)
            monkeypatch.setattr(module, "preimage_under_matrix", counted_pre)
        monkeypatch.setattr(intersection, "CosetIntersection", counted_solver)
        rep = intersection_matrices(h1, h2)
        list(itertools.islice(rep.stages(), 3))
        assert rep.r == 73 and rep.verdict == VERDICT_FG
        assert preimages == [] and widths and all(w <= F2Z.m for w in widths)
        assert len(solvers) == 1
        # M and its Smith form stay available, built on first use
        assert rep.deltas == rep.snf.deltas_padded(rep.r)
        assert len(preimages) == 1 and max(widths) == rep.r


class TestStreams:
    def test_moldavanski_stream(self):
        h1, h2 = moldavanski()
        rep, stages = intersect_stages(h1, h2, max_radius=5)
        assert rep.verdict == VERDICT_NOT_FG
        seen = []
        for stage in stages:
            assert not stage.complete
            seen.append(stage)
        words = sorted(g.word for s in seen for g in s.new_elements)
        expected = sorted(
            (1,) * i + (2,) + (-1,) * i if i >= 0 else (-1,) * -i + (2,) + (1,) * -i
            for i in range(-5, 6)
        )
        assert words == expected
        assert all(not any(g.vec) for s in seen for g in s.new_elements)
        for s in seen:
            for g in s.new_elements:
                assert member(h1, g) and member(h2, g)

    def test_negative_radius_rejected(self):
        h1, h2 = moldavanski()
        with pytest.raises(ValueError):
            intersect_stages(h1, h2, max_radius=-1)

    def test_ball_guarantee_case2(self):
        h1, h2 = parameterized((3, 3), (2, 2), [(1, 2)], [])
        rep, stages = intersect_stages(h1, h2, max_radius=4)
        stage_list = list(stages)
        for k in range(-3, 4):
            conj = (2,) + (1,) * (3 * abs(k)) + (-2,)
            if k < 0:
                conj = (2,) + (-1,) * (3 * abs(k)) + (-2,)
            word = conj + (1,) * 6 + tuple(-l for l in reversed(conj))
            g = F2Z2.element(word, (6, 6))
            for stage in stage_list:
                if stage.radius >= abs(k) + 1:
                    assert member(stage.automaton, g)

    def test_fg_stream_stabilizes(self):
        h1, h2 = parameterized((3, 3), (2, 2), [(1, 1)], [])
        rep, stages = intersect_stages(h1, h2, max_radius=8)
        stage_list = list(stages)
        assert stage_list[-1].complete
        final = reduce(stage_list[-1].automaton)
        final = normalize(final, spanning_tree_by_order(final.skeleton))
        assert final == intersect_fg(h1, h2)

    def test_stage_automata_and_elements(self):
        h1, h2 = moldavanski()
        rep, stages = intersect_stages(h1, h2, max_radius=2)
        stage_list = list(stages)
        autos = [stage.automaton for stage in stage_list]
        els = [g for stage in stage_list for g in stage.new_elements]
        assert len(autos) == 3
        assert sorted(len(g.word) for g in els) == [1, 3, 3, 5, 5]

    def test_monotone_membership(self):
        h1, h2 = moldavanski()
        _, stages = intersect_stages(h1, h2, max_radius=3)
        prev_elements = []
        for stage in stages:
            for g in prev_elements:
                assert member(stage.automaton, g)
            prev_elements.extend(stage.new_elements)

    def test_stage_growth_length_bound(self):
        # elements new to stage n have free length at least 2n, which makes
        # membership in the full basis decidable from a finite prefix
        for h1, h2 in (
            moldavanski(),
            parameterized((3, 3), (2, 2), [(1, 2)], []),
        ):
            _, stages = intersect_stages(h1, h2, max_radius=4)
            for stage in stages:
                for g in stage.new_elements:
                    assert len(g.word) >= 2 * stage.radius


class TestStageCost:
    """A stage costs its new sphere: petal words are cut from cached root
    paths, and a stage's automaton is built only when it is read."""

    @staticmethod
    def same_words_pair(rng, ambient, order):
        """<w_i t^a_i> and <w_i t^b_i> on one list of words; where the
        ambient has a Z factor, most such pairs are not finitely generated."""
        words = [random_element(rng, ambient, 4).word for _ in range(rng.randint(2, 3))]
        h1, h2 = (
            stallings(ambient, [
                ambient.element(w, tuple(rng.randint(-2, 2) for _ in range(ambient.m)))
                for w in words
            ], order)
            for _ in range(2)
        )
        return h1, h2

    @pytest.mark.parametrize("name", list(TestFgPipelineAgainstPaperSteps.AMBIENTS))
    def test_petal_words_match_the_tree_walk(self, name):
        # F2x(Z2+Z4) has only finite Cayley graphs; its streams run to completion
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"stage-cost:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        checked = 0
        while checked < 24:
            order = None if checked % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            rep = intersection_matrices(*self.same_words_pair(rng, ambient, order), order)
            if ambient.abelian.m_free and rep.verdict != VERDICT_NOT_FG:
                continue
            checked += 1
            stream = intersection._ExpansionStream(rep)
            cut = [(stage, len(stream.arcs)) for stage in itertools.islice(stream.stages(), 6)]
            start = 0
            for stage, end in cut:
                petals = [i for i in range(start, end) if i not in stream.search.tree_arcs]
                assert [g.word for g in stage.new_elements] == [
                    tree_petal_word(stream.arcs, stream.search.parent, i) for i in petals
                ]
                start = end

    @staticmethod
    def extended_tree(skeleton, order, vertices, parent):
        """Reference: a tree extended breadth-first over a larger automaton,
        scanning every tree vertex oldest first, then each vertex it adds."""
        vertices, parent = list(vertices), dict(parent)
        for v in vertices:  # grows while it is read
            for s in order:
                nxt = skeleton.step(v, s)
                if nxt is not None and nxt[0] not in parent:
                    parent[nxt[0]] = nxt[1:]
                    vertices.append(nxt[0])
        return vertices, parent

    def stream_tree_reports(self, name):
        """Reports of same-words pairs in the named ambient, or the kernel
        pairs: plane, torsion and vt > 1 balls, where fresh letters fall at
        many vertices of sphere n-1."""
        if name == "kernel pairs":
            yield from self.kernel_reports()
            return
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"stream-tree:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        checked = 0
        while checked < 12:
            order = None if checked % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            rep = intersection_matrices(*self.same_words_pair(rng, ambient, order), order)
            if not rep.pi_trivial:
                checked += 1
                yield rep

    @pytest.mark.parametrize("name", ["F2xZ", "F2x(Z+Z6)", "F3xZ2", "kernel pairs"])
    def test_stream_tree_extends_the_one_searchs_tree(self, name):
        # Stage 0's tree is a whole search of its automaton; each later
        # stage's tree extends the one before over every old tree vertex.
        # A whole search of a later stage can differ (F3xZ2, F2x(Z+Z6)):
        # it may reach an old vertex first through a new arc.
        for rep in self.stream_tree_reports(name):
            stream = intersection._ExpansionStream(rep)
            search = stream.search
            basepoint = rep.prod.skeleton.basepoint
            vertices, parent = [basepoint], {basepoint: None}
            for stage in itertools.islice(stream.stages(), 6):
                skeleton = stage.automaton.skeleton
                vertices, parent = self.extended_tree(skeleton, rep.order, vertices, parent)
                assert len(vertices) == skeleton.num_vertices
                assert search.vertices == vertices and search.parent == parent
                assert search.tree_arcs == {p[0] for p in parent.values() if p}
                if stage.radius == 0:
                    whole = words._breadth_first(skeleton, lambda v: rep.order)
                    assert tuple(vertices) == whole.vertex_age
                    assert parent == dict(enumerate(whole.parent))

    def test_stream_is_freed_without_the_cycle_collector(self):
        # the search's directions callback must not hold the stream
        stream = intersection._ExpansionStream(intersection_matrices(*moldavanski()))
        list(itertools.islice(stream.stages(), 4))
        ref = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert ref() is None
        finally:
            gc.enable()

    def test_automaton_read_late_is_the_same(self):
        rng = random.Random("stage-cost:late")
        torsion = Ambient(2, AbelianSpec(1, (6,)))
        pairs = [moldavanski(), parameterized((3, 3), (2, 2), [(1, 2)], [])]
        while len(pairs) < 4:
            h1, h2 = self.same_words_pair(rng, torsion, None)
            if intersection_matrices(h1, h2).verdict == VERDICT_NOT_FG:
                pairs.append((h1, h2))
        for h1, h2 in pairs:
            rep = intersection_matrices(h1, h2)
            at_once = []
            for stage in itertools.islice(rep.stages(), 4):
                stage.automaton  # read as soon as the stage is yielded
                at_once.append(stage)
            for k, stage in enumerate(at_once):
                advanced = list(itertools.islice(rep.stages(), k + 4))  # to stage k + 3
                assert advanced[k].automaton == stage.automaton
                assert advanced[k] == stage
                assert advanced[k + 3].automaton != stage.automaton

    def test_stage_equality_compares_the_automaton(self):
        # the same radius, petals and completeness, over L1 & L2 = 0 and 5Z
        five = F2Z.element((), (5,))
        k1 = stallings(F2Z, elems(F2Z, ((1,), (1,)), ((2,), ())) + [five])
        k2 = stallings(F2Z, elems(F2Z, ((1,), ()), ((2,), ())) + [five])
        a = next(intersection_matrices(*moldavanski()).stages())
        b = next(intersection_matrices(k1, k2).stages())
        assert (a.radius, a.new_elements, a.complete) == (b.radius, b.new_elements, b.complete)
        assert a != b and a.automaton.base != b.automaton.base
        assert a != (a.radius, a.new_elements, a.complete)  # only a stage equals a stage

    def test_stream_builds_no_automaton_and_two_spheres_of_paths(self, monkeypatch):
        built, by_stage = [], {}
        real_automaton, real_cut = intersection.Automaton, intersection._petal_cut

        def counted(*args):
            built.append(args)
            return real_automaton(*args)

        def observed(paths, arc):
            # the path cache is fullest while petals are cut: sphere n is in,
            # sphere n-1 not yet out; keyed by where sphere n stops
            by_stage[stream.ball.sphere.start] = set(paths)
            return real_cut(paths, arc)

        monkeypatch.setattr(intersection, "Automaton", counted)
        monkeypatch.setattr(intersection, "_petal_cut", observed)
        rep = intersection_matrices(*moldavanski())
        stream = intersection._ExpansionStream(rep)
        stages = list(itertools.islice(stream.stages(), 257))
        assert stages[-1].radius == 256 and built == []
        cached = list(by_stage.items())
        assert len(cached) == 257  # every stage cuts a petal
        vt, basepoint = stream.vt, rep.prod.skeleton.basepoint
        stops = [0, 0] + [stop for stop, _ in cached]  # stops[n]: where sphere n-1 starts
        for n, (stop, paths) in enumerate(cached):
            assert paths <= set(range(stops[n] * vt, stop * vt)) | {basepoint}
        assert max(len(paths) for _, paths in cached) <= 4 * vt + 1
        assert len(stream.search.parent) == stops[-1] * vt == 513 * vt
        stages[-1].automaton
        assert len(built) == 1

    # H1 = <w_i t^(a_i)> and H2 = <w_i> on a free basis w_i of F2 or of an
    # index-2 subgroup: lines, planes and torsion balls, finite or not
    KERNEL_PAIRS = {
        "line with a zero row": (F2Z, ((1,), (2,)), ((1,), (0,))),
        "diagonal with repeated rows": (F2Z, ((1,), (2,)), ((1,), (1,))),
        "plane of index 2": (F2Z2, ((1, 1), (2,), (1, 2, -1)), ((1, 0), (0, 1), (0, -1))),
        "torsion cylinder": (TORSION, ((1, 1), (2,), (1, 2, -1)), ((1, 0), (0, 1), (0, 0))),
        "finite torsion ball": (TORSION, ((1, 1), (2,), (1, 2, -1)), ((0, 2), (0, 3), (0, 2))),
    }

    @classmethod
    def kernel_reports(cls):
        for ambient, words, vectors in cls.KERNEL_PAIRS.values():
            h1, h2 = (stallings(ambient, [ambient.element(w, v) for w, v in zip(words, vecs)])
                      for vecs in (vectors, [ambient.zero()] * len(words)))
            yield intersection_matrices(h1, h2)

    def test_kernel_pairs_cover_rows_and_wraps(self):
        seen = {"zero": 0, "repeated": 0, "torsion": 0, "finite": 0, "vt > 1": 0}
        for rep in self.kernel_reports():
            stream = intersection._ExpansionStream(rep)
            *_, last = itertools.islice(stream.stages(), 12)
            seen["zero"] += any(not any(row) for row in rep.generators)
            seen["repeated"] += len(set(rep.generators)) < len(rep.generators)
            seen["torsion"] += any(d > 1 for d in rep.deltas)
            seen["finite"] += last.complete
            seen["vt > 1"] += stream.vt > 1
        assert min(seen.values()) >= 1 and seen["torsion"] == 2, seen

    class _ReadSteps(dict):
        """A step map that records the keys read through get."""

        def __init__(self):
            super().__init__()
            self.read = []

        def get(self, key, default=None):
            self.read.append(key)
            return super().get(key, default)

    def test_resume_scans_only_the_last_two_spheres(self):
        for rep in self.kernel_reports():
            stream = intersection._ExpansionStream(rep)
            search, scanned, order = stream.search, [], rep.order
            search.directions = lambda v: scanned.append(v) or order
            steps = stream.steps = search.steps = self._ReadSteps()
            expand, resume, seen = stream._expand, search.resume, {}

            def spied_expand():
                before, first = set(steps), len(stream.arcs)
                sphere, fresh = expand()
                seen.update(added=set(steps) - before, fresh=fresh,
                            new_arcs=range(first, len(stream.arcs)))
                return sphere, fresh

            def spied_resume(start, fresh):
                steps.read.clear()
                seen["met"] = resume(start, fresh)
                return seen["met"]

            stream._expand, search.resume = spied_expand, spied_resume
            n, width = rep.ambient.n, search.width
            ball, vt, inner = stream.ball, stream.vt, range(0)
            for stage in itertools.islice(stream.stages(), 12):
                sphere = ball.grown  # sphere n; inner is sphere n-1

                def at_inner(keys):  # (vertex, letter) of the keys at sphere n-1
                    pairs = [divmod(key + n, width) for key in keys]
                    return {(v, s - n) for v, s in pairs if v // vt in inner}

                fresh = {(v, s) for v, letters in seen["fresh"].items() for s in letters}
                assert len(fresh) == sum(map(len, seen["fresh"].values()))
                # the fresh letters are the steps that _expand added at sphere
                # n-1, and resume reads sphere n-1 in those letters alone
                assert fresh == at_inner(seen["added"]) == at_inner(steps.read)
                assert {v for v in scanned if v // vt in inner} <= set(seen["fresh"])
                assert {v // vt for v in scanned} <= set(inner) | set(sphere)
                assert len(scanned) <= (len(inner) + len(sphere)) * vt
                # each petal is met at most once from each end
                nontree = [x for x in seen["new_arcs"] if x not in search.tree_arcs]
                assert len(seen["met"]) <= 2 * len(nontree)
                scanned.clear()
                inner = sphere

    def test_entering_arcs_come_sorted(self):
        # Cayley arc copies follow the block copies, the arcs entering the
        # sphere first; they equal the sort of those read off the minus rows
        # of the per-row oracle ball, which numbers the vertices alike
        for rep in self.kernel_reports():
            stream = intersection._ExpansionStream(rep)
            ball, vt = stream.ball, stream.vt
            oracle = RowCayleyBall([d for d in rep.deltas if d != 1], rep.generators)
            petal = {arc: i for i, (arc, _) in enumerate(stream.petals)}
            while ball.sphere and ball.sphere.start < 400:
                start = len(stream.arcs)
                sphere, _ = stream._expand()
                oracle.grow()
                copies = stream.arcs[start + len(sphere) * len(stream.block):]
                cayley = [(o // vt, petal[o % vt, k, t % vt], t // vt) for o, k, t in copies]
                entering = [arc for arc in cayley if arc[0] < sphere.start]
                assert cayley[:len(entering)] == entering == sorted(entering) == sorted(
                    (u, i, w) for w in sphere for i, u in enumerate(oracle.minus[w])
                    if u < sphere.start)

    class _KeepSteps(dict):
        """A step map that ignores the stream's deletions."""

        def pop(self, key, default=None):
            return self.get(key, default)

    def test_stream_keeps_two_spheres_of_steps(self):
        rep = intersection_matrices(*moldavanski())
        stream, kept = intersection._ExpansionStream(rep), intersection._ExpansionStream(rep)
        kept.steps = kept.search.steps = self._KeepSteps()
        stages = list(itertools.islice(stream.stages(), 513))
        assert stages == list(itertools.islice(kept.stages(), 513))
        # a sphere of the Cayley line has 2 blocks, each vertex 2n signed letters
        assert len(stream.steps) <= 2 * 2 * stream.vt * 2 * rep.ambient.n
        assert len(kept.steps) == 2 * len(kept.arcs) > 4000

    class _Forget(dict):
        """A witness memo that keeps nothing."""

        def __setitem__(self, key, value):
            pass

    @pytest.mark.parametrize("name", list(TestFgPipelineAgainstPaperSteps.AMBIENTS))
    def test_one_witness_solve_per_double_label(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        rng = random.Random(f"witness-memo:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        repeated = 0
        for i in range(16):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            if i % 4 < 2:
                pair = self.same_words_pair(rng, ambient, order)
            else:
                pair = [stallings(ambient, random_subgroup_gens(rng, ambient), order)
                        for _ in range(2)]
            rep = intersection_matrices(*pair, order)
            stream = intersection._ExpansionStream(rep)
            pairs, solve = [], stream.witness

            def counted(a, b):
                pairs.append((a, b))
                return solve(a, b)

            def fresh(a, b):
                return abelian.CosetIntersection(rep.prod.base1, rep.prod.base2).witness(a, b)

            stream.witness = counted
            stages = list(itertools.islice(stream.stages(), 5))
            assert len(pairs) == len(set(pairs)) == len(stream.witnesses)
            # the reference solves every non-tree arc with a new solver
            reference = intersection._ExpansionStream(rep)
            reference.witness, reference.witnesses = fresh, self._Forget()
            assert stages == list(itertools.islice(reference.stages(), 5))
            assert stream.labels == reference.labels
            nontree = len(stream.arcs) - len(stream.search.tree_arcs)
            repeated += nontree > len(pairs)
        assert repeated >= 4


class TestWitnessesAreCanonical:
    """CosetIntersection.witness reduces modulo L1 & L2, whose Hermite form
    holds the torsion relation rows, so the memo keeps its results as they
    are."""

    @pytest.mark.parametrize("name", ["F2x(Z+Z6)", "F2x(Z2+Z4)"])
    def test_every_witness_equals_its_canonical_form(self, name):
        ambient = TestFgPipelineAgainstPaperSteps.AMBIENTS[name]
        canonicalize = ambient.abelian.canonicalize
        rng = random.Random(f"canonical-witnesses:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        seen = []
        for i in range(40):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1, e2 = TestFgExpandsOnce.pair(rng, ambient, i, order)
            rep = intersection_matrices(e1, e2, order)
            solve = rep.solver.witness
            rep.solver.witness = lambda a, b, solve=solve: seen.append(solve(a, b)) or seen[-1]
            if rep.verdict == VERDICT_FG:
                intersect_fg(e1, e2, order, report=rep)
            list(itertools.islice(rep.stages(), 4))
        assert all(c == canonicalize(c) for c in seen)
        assert sum(1 for c in seen if any(c[ambient.abelian.m_free:])) >= 20


class TestTorsionAmbient:
    AMB = Ambient(2, AbelianSpec(1, (4,)))

    def _random_subgroup(self, rng):
        gens = []
        for _ in range(rng.randint(1, 3)):
            word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))]
            vec = (rng.randint(-2, 2), rng.randint(0, 3))
            gens.append(self.AMB.element(word, vec))
        if rng.random() < 0.5:
            gens.append(self.AMB.element((), (0, rng.choice([1, 2]))))
        return gens

    def test_membership_equivalence_with_torsion(self):
        rng = random.Random(404)
        for _ in range(25):
            e1 = stallings(self.AMB, self._random_subgroup(rng))
            e2 = stallings(self.AMB, self._random_subgroup(rng))
            rep = intersection_matrices(e1, e2)
            if rep.verdict == VERDICT_FG:
                e = intersect_fg(e1, e2, report=rep)
            else:
                _, stages = intersect_stages(e1, e2, max_radius=2)
                e = list(stages)[-1].automaton
            t0 = completion_table(e, 4)
            t1 = completion_table(e1, 4)
            t2 = completion_table(e2, 4)
            assert set(t0) <= (set(t1) & set(t2))
            for word in set(t1) & set(t2):
                for free in range(-4, 5):
                    for tor in range(4):
                        g = self.AMB.element(word, (free, tor))
                        want = member(e1, g) and member(e2, g)
                        got = word in t0 and e.base.contains(
                            (free - t0[word][0], tor - t0[word][1])
                        )
                        assert got == want, (word, free, tor)

    def test_canonicity_with_torsion(self):
        rng = random.Random(405)
        for _ in range(40):
            gens = self._random_subgroup(rng)
            e = stallings(self.AMB, gens)
            shuffled = list(gens)
            if len(gens) >= 2:
                shuffled.append(self.AMB.multiply(gens[0], gens[-1]))
            rng.shuffle(shuffled)
            assert stallings(self.AMB, shuffled) == e
            # torsion shifts of a generator's vector by d never change H
            lifted = [
                self.AMB.element(g.word, (g.vec[0], g.vec[1] + 4)) for g in gens
            ]
            assert stallings(self.AMB, lifted) == e


class TestLargerInstance:
    def test_case5_p7(self):
        h1, h2 = parameterized((6, 6), (4, 4), [(42, 42)], [])
        rep = intersection_matrices(h1, h2)
        assert rep.deltas == (1, 7)
        e = intersect_fg(h1, h2, report=rep)
        assert len(basis(e).free_part) == 8
        assert member(e, F2Z2.element((2,) + (1,) * 21 + (-2,), (0, 0)))


class TestOracle:
    def _random_subgroup(self, rng):
        gens = []
        for _ in range(rng.randint(1, 3)):
            word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))]
            vec = (rng.randint(-2, 2),)
            gens.append(F2Z.element(word, vec))
        if rng.random() < 0.4:
            gens.append(F2Z.element((), (rng.randint(1, 3),)))
        return gens

    def test_membership_oracle_equivalence(self):
        rng = random.Random(2024)
        for _ in range(40):
            g1 = self._random_subgroup(rng)
            g2 = self._random_subgroup(rng)
            e1, e2 = stallings(F2Z, g1), stallings(F2Z, g2)
            rep = intersection_matrices(e1, e2)
            if rep.verdict == VERDICT_FG:
                e = intersect_fg(e1, e2)
            else:
                _, stages = intersect_stages(e1, e2, max_radius=3)
                e = list(stages)[-1].automaton
            t0 = completion_table(e, 6)
            t1 = completion_table(e1, 6)
            t2 = completion_table(e2, 6)
            assert set(t0) <= (set(t1) & set(t2))
            for word in set(t1) & set(t2):
                for a in range(-6, 7):
                    lhs = word in t0 and e.base.contains((a - t0[word][0],))
                    rhs = e1.base.contains((a - t1[word][0],)) and e2.base.contains(
                        (a - t2[word][0],)
                    )
                    assert lhs == rhs, (word, a)

    def test_rank_law(self):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            g1 = self._random_subgroup(rng)
            g2 = self._random_subgroup(rng)
            e1, e2 = stallings(F2Z, g1), stallings(F2Z, g2)
            rep = intersection_matrices(e1, e2)
            if rep.verdict != VERDICT_FG or rep.pi_trivial:
                continue
            prod_deltas = 1
            for d in rep.deltas:
                prod_deltas *= d
            if prod_deltas * (rep.r - 1) + 1 > 120:
                continue
            e = intersect_fg(e1, e2)
            assert len(basis(e).free_part) - 1 == prod_deltas * (rep.r - 1)
            checked += 1

    def test_base_subgroup_is_intersection(self):
        rng = random.Random(123)
        for _ in range(30):
            g1 = self._random_subgroup(rng)
            g2 = self._random_subgroup(rng)
            e1, e2 = stallings(F2Z, g1), stallings(F2Z, g2)
            rep = intersection_matrices(e1, e2)
            assert rep.base == e1.base.intersect(e2.base)
            if rep.verdict == VERDICT_FG:
                assert intersect_fg(e1, e2).base == rep.base

    def test_against_independent_product_oracle(self):
        # elements produced by raw generator arithmetic in both inputs must
        # be members of the computed intersection, and elements of H1 that
        # fail membership in H2 must fail in the intersection
        rng = random.Random(31)
        for _ in range(20):
            g1 = self._random_subgroup(rng)
            g2 = self._random_subgroup(rng)
            e1, e2 = stallings(F2Z, g1), stallings(F2Z, g2)
            rep = intersection_matrices(e1, e2)
            if rep.verdict == VERDICT_FG:
                e = intersect_fg(e1, e2, report=rep)
            else:
                _, stages = intersect_stages(e1, e2, max_radius=3)
                e = list(stages)[-1].automaton
            h1_ball = _product_ball(F2Z, g1, depth=3)
            h2_ball = _product_ball(F2Z, g2, depth=3)
            for key in h1_ball:
                g = GroupElement(*key)
                if len(g.word) > 6:
                    continue
                if key in h2_ball:
                    assert member(e, g)
                elif not member(e2, g):
                    assert not member(e, g)

    def test_trivial_case_law(self):
        # pi-trivial iff r=0 or (r=1 and M=0); with both L trivial,
        # f.g. iff M = Z^r
        rng = random.Random(7)
        for _ in range(40):
            g1 = self._random_subgroup(rng)
            g2 = self._random_subgroup(rng)
            e1, e2 = stallings(F2Z, g1), stallings(F2Z, g2)
            rep = intersection_matrices(e1, e2)
            expect_trivial = rep.r == 0 or (
                rep.r == 1 and rep.M.lattice_basis == ()
            )
            assert rep.pi_trivial == expect_trivial
            if e1.base.lattice_basis == () and e2.base.lattice_basis == ():
                is_full = rep.M == AbelianSubgroup.full(AbelianSpec(rep.r))
                assert (rep.verdict == VERDICT_FG and not rep.pi_trivial) == (
                    is_full and rep.r >= 1
                )


def _one_arc_product():
    e = stallings(F2Z, elems(F2Z, ((1,), (1,))))
    return doubly_enriched_product(e, e)


class TestRejections:
    @pytest.mark.parametrize("call, message", [
        (lambda: DoublyEnrichedAutomaton(F2Z, _one_arc_product().skeleton, (), (),
                                         AbelianSubgroup.trivial(F2Z.abelian),
                                         AbelianSubgroup.trivial(F2Z.abelian)),
         "one label pair per arc and per factor required"),
        (lambda: doubly_enriched_product(stallings(F2Z, elems(F2Z, ((1,), (1,)))),
                                         stallings(F2Z2, elems(F2Z2, ((1,), (1, 0))))),
         "ambient group mismatch"),
        (lambda: cayley_multidigraph((2, -1), ((1, 0), (0, 1))), "deltas must be nonnegative"),
        (lambda: vertex_expand(cayley_multidigraph((2, 2), ((1, 0), (0, 1)))[0],
                               _one_arc_product(),
                               spanning_tree_by_order(_one_arc_product().skeleton)),
         "delta alphabet must match the petal count"),
    ], ids=["label-count", "product-ambients", "negative-delta", "expand-alphabet"])
    def test_rejected_with_its_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
