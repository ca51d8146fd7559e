"""Intersections of subgroups of F_n x A via doubly-enriched products.

The pipeline: form the product of the two enriched Stallings automata,
keeping both abelian label systems and the pair of basepoint subgroups
(L1, L2); keep its core, renumbered canonically as folding's result is
(words._canonical_core), normalize each system from the factors' arc
values, and read off the petal words w_1..w_r of the free projection
intersection.  The difference matrix D = B1 A1 - B2 A2 measures
how the two completions of each w_j disagree, and with the preimage lattice
M = (L1 + L2) D^-1 <= Z^r the group Z^r / M controls everything: the
intersection's free projection is its Cayley multidigraph on the images of
e_1..e_r, finitely generated exactly when r = 0, r = 1, or Z^r / M is
finite.  v -> vD + (L1 + L2) maps Z^r / M isomorphically onto a subgroup of
Z^m / (L1 + L2), so its invariant factors and the images of the e_i are
computed there, from matrices of at most m rows and columns
(abelian.image_invariants); no r x r matrix is built unless M is read.

The intersection is built by vertex-expanding that Cayley graph by the
product automaton and equalizing each double label (a, b) to a witness in
(a+L1) & (b+L2).  One stream does both, one Cayley sphere per stage: the
stages form a strictly increasing chain of automata whose petals enumerate
a recursive basis, and every element of the intersection with free length
at most 2n is already recognized by the n-th stage.  A stage costs time in
proportion to its new sphere, not to the ball: it copies no arc of earlier
stages, cuts its petal words from the root paths of the two spheres its
arcs join, and builds its automaton only when that is read.  In the
finitely generated case the Cayley graph is finite and the stream runs to
completion; the core of its last stage, canonically numbered, is the
Stallings automaton of the intersection.

The IntersectionReport that intersection_matrices returns is the
intersection's context: the letter order, the normalized product and its
spanning tree are checked and built there once and kept in the report, and
the petal words, D, M and the stream (report.stages()) all read them.
intersect_fg, intersect_stages and the CLI stream from one report.
cayley_multidigraph, vertex_expand, doubly_reduce and equalize remain as
the paper's separate steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

from .abelian import (
    INFINITY,
    AbelianSubgroup,
    CosetIntersection,
    Matrix,
    SnfDecomposition,
    Vector,
    image_invariants,
    preimage_under_matrix,
    snf,
    vec_mat,
    vec_sub,
)
from .enriched import (
    Ambient,
    ArcLabel,
    EnrichedAutomaton,
    GroupElement,
    _arc_value,
    _fill_potentials,
    _label_differences,
    _normalized,
    _normalized_labels,
    _reduce_layers,
    _value_labels,
    basis,
)
from .words import (
    Automaton,
    SpanningTree,
    Word,
    _canonical_core,
    _petal_cut,
    _root_path,
    _TreeSearch,
    canonical_renumber,  # not called here; bench/tracer.py rebinds it in this namespace too
    check_order,
    product_with_provenance,
    spanning_tree_by_order,
    t_basis,
    word_coordinates,
)

VERDICT_FG = "finitely-generated"
VERDICT_NOT_FG = "not-finitely-generated"


class NotEqualizableError(ValueError):
    """Raised when equalizing an automaton with an incompatible double label."""


@dataclass(frozen=True)
class DoublyEnrichedAutomaton:
    """Product object: one skeleton, two abelian label systems, pair (L1, L2)."""

    ambient: Ambient
    skeleton: Automaton
    labels1: tuple[ArcLabel, ...]
    labels2: tuple[ArcLabel, ...]
    base1: AbelianSubgroup
    base2: AbelianSubgroup

    def __post_init__(self):
        if not len(self.labels1) == len(self.labels2) == len(self.skeleton.arcs):
            raise ValueError("one label pair per arc and per factor required")


def doubly_enriched_product(
    e1: EnrichedAutomaton, e2: EnrichedAutomaton, order: Optional[Sequence[int]] = None
) -> DoublyEnrichedAutomaton:
    """Core of the product of two enriched automata, T-normalized.

    Both label systems are carried through the same pruning and the same
    spanning-tree normalization, each reduced modulo its own basepoint
    subgroup.
    """
    if e1.ambient != e2.ambient:
        raise ValueError("ambient group mismatch")
    ambient = e1.ambient
    raw, prov = product_with_provenance(e1.skeleton, e2.skeleton)
    skeleton, tree, kept = _canonical_core(
        ambient.n, raw.num_vertices, raw.basepoint, raw.arcs, order)
    zero = ambient.zero()
    layers = []
    for side, e in enumerate((e1, e2)):
        diffs = _label_differences(e.labels)
        values = [diffs[prov[x][side]] for x in kept]
        layers.append(_normalized_labels(skeleton, tree, values, zero, e.base.reduce_mod))
    return DoublyEnrichedAutomaton(ambient, skeleton, *layers, e1.base, e2.base)


def normalize_doubly(
    x: DoublyEnrichedAutomaton, tree: SpanningTree
) -> DoublyEnrichedAutomaton:
    """T-normalize both label systems (each modulo its own subgroup)."""
    zero = x.ambient.zero()
    layers = [_normalized_labels(x.skeleton, tree, _label_differences(labels), zero, base.reduce_mod)
              for labels, base in ((x.labels1, x.base1), (x.labels2, x.base2))]
    return replace(x, labels1=layers[0], labels2=layers[1])


def doubly_reduce(
    x: DoublyEnrichedAutomaton, order: Optional[Sequence[int]] = None
) -> DoublyEnrichedAutomaton:
    """Fold a doubly-enriched automaton; closed folds feed both subgroups.

    Each arc is labelled (0, value) in both systems, as reduce does."""
    skeleton, _, values, gained = _reduce_layers(x.ambient, x.skeleton, [x.labels1, x.labels2], order)
    spec, zero = x.ambient.abelian, x.ambient.zero()
    base1 = AbelianSubgroup.from_generators(spec, x.base1.lattice_basis + tuple(gained[0]))
    base2 = AbelianSubgroup.from_generators(spec, x.base2.lattice_basis + tuple(gained[1]))
    return DoublyEnrichedAutomaton(x.ambient, skeleton, _value_labels(values[0], zero),
                                   _value_labels(values[1], zero), base1, base2)


@dataclass(frozen=True)
class IntersectionReport:
    """The intersection's context: its letter order, its normalized product
    and the product's spanning tree, and what the finite-generation decision
    reads off them.  The constructions stream from it (see stages).

    deltas and generators are computed in Z^m.  M and snf, the r x r lattice
    and its Smith form, are cached properties built on first read; the CLI
    reads them for the JSON "M" of intersect and the vertex labels of
    cayley, and the paper-case checks and the tests read them too."""

    ambient: Ambient
    order: tuple[int, ...]  # checked letter order
    prod: DoublyEnrichedAutomaton  # normalized on tree
    tree: SpanningTree  # of prod.skeleton under order
    words: tuple[Word, ...]  # free-basis w_1..w_r of H1pi & H2pi
    A1: Matrix
    A2: Matrix
    B1: Matrix
    B2: Matrix
    D: Matrix  # r x m difference matrix
    deltas: Vector  # invariant factors of Z^r / M, padded to length r
    generators: Matrix  # image of each e_i in the non-unit factors of deltas
    base: AbelianSubgroup  # L1 & L2
    verdict: str
    pi_trivial: bool
    free_rank: object  # int | INFINITY
    total_rank: object  # int | INFINITY

    @property
    def r(self) -> int:
        return len(self.words)

    @property
    def s(self) -> int:
        return sum(1 for d in self.deltas if d)

    @cached_property
    def M(self) -> AbelianSubgroup:
        """(L1 + L2) D^-1 <= Z^r, built on first use."""
        return preimage_under_matrix(self.prod.base1.sum(self.prod.base2), self.D, r=self.r)

    @cached_property
    def snf(self) -> SnfDecomposition:
        """Smith form of the M lattice basis, built on first use."""
        return snf(self.M.lattice_basis, width=self.r)

    def stages(self) -> Iterator[IntersectionStage]:
        """Stages of radius 0, 1, ..., ending with the first complete one."""
        return _ExpansionStream(self).stages()


def decide_finitely_generated(r: int, s: int, deltas: Sequence[int]):
    """Finite-generation verdict and predicted rank of the free projection.

    The projection is finitely generated iff r = 0, r = 1, or r = s; it is
    trivial iff r = 0, or r = 1 with delta_1 = 0.  When nontrivial and
    finitely generated its rank is delta_1 ... delta_r * (r - 1) + 1.
    """
    deltas = tuple(deltas)
    if r == 0:
        return VERDICT_FG, True, 0
    if r == 1:
        if deltas[0] == 0:
            return VERDICT_FG, True, 0
        return VERDICT_FG, False, 1
    if s == r:
        prod = 1
        for d in deltas:
            prod *= d
        return VERDICT_FG, False, prod * (r - 1) + 1
    return VERDICT_NOT_FG, False, INFINITY


def intersection_matrices(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    order: Optional[Sequence[int]] = None,
) -> IntersectionReport:
    """Build the intersection's context and populate its matrices and verdict.

    The rows of B_i express each product petal word in the basis of the
    corresponding factor (abelianized); A_i stacks the factor's basis
    vectors, so B_i A_i is a completion of each word in H_i and
    D = B1 A1 - B2 A2 measures their incompatibility.
    """
    ambient = e1.ambient
    m = ambient.m
    order = check_order(order, ambient.n)
    prod = doubly_enriched_product(e1, e2, order)
    tree = spanning_tree_by_order(prod.skeleton, order)
    words = t_basis(prod.skeleton, tree)

    tree1 = spanning_tree_by_order(e1.skeleton, order)
    tree2 = spanning_tree_by_order(e2.skeleton, order)
    a1 = tuple(g.vec for g in basis(e1, tree1).free_part)
    a2 = tuple(g.vec for g in basis(e2, tree2).free_part)
    b1 = tuple(word_coordinates(e1.skeleton, tree1, w) for w in words)
    b2 = tuple(word_coordinates(e2.skeleton, tree2, w) for w in words)
    d = tuple(
        vec_sub(vec_mat(r1, a1, m), vec_mat(r2, a2, m)) for r1, r2 in zip(b1, b2)
    )
    deltas, gens = image_invariants(e1.base.sum(e2.base), d)
    verdict, pi_trivial, free_rank = decide_finitely_generated(
        len(words), sum(1 for x in deltas if x), deltas
    )
    base = e1.base.intersect(e2.base)
    total = INFINITY if free_rank is INFINITY else free_rank + base.rank()
    return IntersectionReport(
        ambient=ambient,
        order=order,
        prod=prod,
        tree=tree,
        words=tuple(words),
        A1=a1,
        A2=a2,
        B1=b1,
        B2=b2,
        D=d,
        deltas=deltas,
        generators=gens,
        base=base,
        verdict=verdict,
        pi_trivial=pi_trivial,
        free_rank=free_rank,
        total_rank=total,
    )


class _CayleyBall:
    """Breadth-first ball of the Cayley multidigraph of Z/delta_1 + ... +
    Z/delta_k on the given generator rows, grown one sphere at a time.

    Vertices are numbered in discovery order, so any isomorphic presentation
    of the group, with the generators in the same order, numbers them alike.
    Growing computes and reduces each v + g_i and v - g_i of the outer
    sphere in one pass, numbers those not seen yet as the next sphere, and
    records plus[v][i] and minus[v][i], the numbers of v + g_i and v - g_i;
    a zero generator gives v itself, a loop.
    """

    def __init__(self, deltas: Sequence[int], q_rows: Sequence[Sequence[int]]):
        self.deltas = tuple(deltas)
        gens = [tuple(a % d if d else a for a, d in zip(row, self.deltas)) for row in q_rows]
        self.gens = [g if any(g) else None for g in gens]  # None for zero
        zero = (0,) * len(self.deltas)
        self.elements = [zero]
        self.index = {zero: 0}
        self.plus: list[tuple[int, ...]] = []
        self.minus: list[tuple[int, ...]] = []
        self.sphere = range(0, 1)  # the outer sphere, not grown yet

    def _number(self, vec: Vector) -> int:
        v = self.index.get(vec)
        if v is None:
            v = self.index[vec] = len(self.elements)
            self.elements.append(vec)
        return v

    def grow(self) -> None:
        """Grow the outer sphere; the sphere it numbers becomes the outer one."""
        deltas, number = self.deltas, self._number
        for v in self.sphere:
            vec = self.elements[v]
            plus, minus = [], []
            for g in self.gens:
                if g is None:
                    plus.append(v)
                    minus.append(v)
                    continue
                plus.append(number(tuple([
                    (a + b) % d if d else a + b for a, b, d in zip(vec, g, deltas)])))
                minus.append(number(tuple([
                    (a - b) % d if d else a - b for a, b, d in zip(vec, g, deltas)])))
            self.plus.append(tuple(plus))
            self.minus.append(tuple(minus))
        self.sphere = range(self.sphere.stop, len(self.elements))


def cayley_multidigraph(
    deltas: Sequence[int], q_rows: Sequence[Sequence[int]], radius: Optional[int] = None
):
    """Cayley multidigraph of Z/delta_1 + ... + Z/delta_r on the rows of Q.

    delta_i = 0 contributes a Z factor and delta_i = 1 a trivial one; trivial
    and repeated generators are kept (one letter per row).  Without a radius
    the group must be finite; with one, the induced ball of that radius
    around the identity is returned.  Returns (automaton, vertex elements).
    """
    r = len(deltas)
    if any(d < 0 for d in deltas):
        raise ValueError("deltas must be nonnegative")
    if radius is not None and radius < 0:
        raise ValueError("ball radius must be nonnegative")
    if len(q_rows) != r:
        raise ValueError("one generator row per delta required")
    if radius is None and any(d == 0 for d in deltas):
        raise ValueError("infinite Cayley graph needs a ball radius")

    ball = _CayleyBall(deltas, q_rows)
    grown = 0
    while ball.sphere and (radius is None or grown <= radius):
        ball.grow()
        grown += 1
    size = ball.sphere.start
    arcs = tuple(
        (v, i + 1, w)
        for v in range(size)
        for i, w in enumerate(ball.plus[v])
        if w < size
    )
    return Automaton(r, size, 0, arcs), tuple(ball.elements[:size])


def vertex_expand(
    delta_aut: Automaton, theta: DoublyEnrichedAutomaton, tree: SpanningTree
) -> DoublyEnrichedAutomaton:
    """Blow every vertex of delta up to a copy of the spanning tree of theta
    and reroute each w_i-arc along the i-th petal, keeping its double label."""
    petals = tree.petal_arcs
    if delta_aut.n != len(petals):
        raise ValueError("delta alphabet must match the petal count")
    sk = theta.skeleton
    vt = sk.num_vertices
    arcs = []
    labels1 = []
    labels2 = []
    tree_arcs = sorted(tree.tree_arcs)
    for d in range(delta_aut.num_vertices):
        for arc_idx in tree_arcs:
            o, k, t = sk.arcs[arc_idx]
            arcs.append((d * vt + o, k, d * vt + t))
            labels1.append(theta.labels1[arc_idx])
            labels2.append(theta.labels2[arc_idx])
    for do, i, dt in delta_aut.arcs:
        arc_idx = petals[i - 1]
        o, k, t = sk.arcs[arc_idx]
        arcs.append((do * vt + o, k, dt * vt + t))
        labels1.append(theta.labels1[arc_idx])
        labels2.append(theta.labels2[arc_idx])
    skeleton = Automaton(
        sk.n,
        delta_aut.num_vertices * vt,
        delta_aut.basepoint * vt + sk.basepoint,
        tuple(arcs),
    )
    return DoublyEnrichedAutomaton(
        theta.ambient, skeleton, tuple(labels1), tuple(labels2), theta.base1, theta.base2
    )


def is_equalizable(x: DoublyEnrichedAutomaton, tree: Optional[SpanningTree] = None) -> bool:
    """True iff every non-tree double label admits a common completion."""
    try:
        equalize(x, tree)
    except NotEqualizableError:
        return False
    return True


def equalize(x: DoublyEnrichedAutomaton, tree: Optional[SpanningTree] = None) -> EnrichedAutomaton:
    """Replace each double label by a witness and (L1, L2) by L1 & L2."""
    tree = tree or spanning_tree_by_order(x.skeleton)
    x = normalize_doubly(x, tree)
    solver = CosetIntersection(x.base1, x.base2)
    zero = x.ambient.zero()
    labels = []
    for arc_idx in range(len(x.skeleton.arcs)):
        if arc_idx in tree.tree_arcs:
            labels.append((zero, zero))
            continue
        a = x.labels1[arc_idx][1]
        b = x.labels2[arc_idx][1]
        c = solver.witness(a, b)
        if c is None:
            raise NotEqualizableError(
                f"arc {arc_idx}: ({a} + L1) and ({b} + L2) do not meet"
            )
        labels.append((zero, c))
    return EnrichedAutomaton(x.ambient, x.skeleton, tuple(labels), solver.base)


def intersect_fg(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    order: Optional[Sequence[int]] = None,
    report: Optional[IntersectionReport] = None,
) -> EnrichedAutomaton:
    """Stallings automaton of H1 & H2; only valid in the f.g. case.

    The report's expansion stream runs until the finite Cayley graph of
    Z^r / M is exhausted.  With r = 1 the copies of the product hang stems
    off the expanded cycle, so the last stage is pruned to its core before
    it is canonically renumbered and T-normalized.  A given report must have
    been built under the same letter order.
    """
    ambient = e1.ambient
    if report is None:
        report = intersection_matrices(e1, e2, order)
    elif check_order(order, ambient.n) != report.order:
        raise ValueError("the report was built under another letter order")
    if report.verdict != VERDICT_FG:
        raise ValueError("intersection is not finitely generated")
    for stage in report.stages():
        pass
    last = stage.automaton
    sk = last.skeleton
    skeleton, tree, kept = _canonical_core(
        ambient.n, sk.num_vertices, sk.basepoint, sk.arcs, report.order)
    # the stream labels every arc (0, value)
    values = [last.labels[x][1] for x in kept]
    return _normalized(ambient, skeleton, tree, values, last.base)


@dataclass(frozen=True)
class IntersectionStage:
    """One step of the recursive construction: the ball radius, the basis
    elements new to this stage, whether the Cayley graph is exhausted, and
    the equalized automaton so far.

    The automaton is built on first read, by the build closure, from
    prefixes of the stream's append-only arc and label lists; so a stage
    read after the stream has moved on gives the same automaton.  Equality
    compares the automaton too."""

    radius: int
    new_elements: tuple[GroupElement, ...]
    complete: bool
    build: Callable[[], EnrichedAutomaton] = field(compare=False, repr=False)

    @cached_property
    def automaton(self) -> EnrichedAutomaton:
        return self.build()

    def __eq__(self, other):
        if not isinstance(other, IntersectionStage):
            return NotImplemented
        return (self.radius, self.new_elements, self.complete) == (
            other.radius, other.new_elements, other.complete
        ) and self.automaton == other.automaton


def intersect_stages(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    max_radius: int = 8,
    order: Optional[Sequence[int]] = None,
):
    """(report, its stages up to max_radius) for growing Cayley balls.

    Stage n recognizes a subgroup of H1 & H2 containing every element whose
    free part has length at most 2n; spanning trees and bases grow
    monotonically, so the concatenated new_elements enumerate a basis.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    report = intersection_matrices(e1, e2, order)
    return report, itertools.islice(report.stages(), max_radius + 1)


def intersect_stream(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    max_radius: int = 8,
    order: Optional[Sequence[int]] = None,
):
    """(report, stream of automata, stream of basis elements).

    Both streams are single-consumer views of the same staged computation.
    The element stream is monotone: stage n only appends new petals.
    """
    report, stages = intersect_stages(e1, e2, max_radius, order)
    for_automata, for_elements = itertools.tee(stages)
    automata = (stage.automaton for stage in for_automata)
    elements = (g for stage in for_elements for g in stage.new_elements)
    return report, automata, elements


class _ExpansionStream:
    """Incremental vertex-expansion of growing Cayley balls by the report's
    product, on the report's spanning tree and letter order.

    Vertex ids are stable across stages: Cayley vertex number d (in BFS
    discovery order) occupies the block [d*vt, (d+1)*vt).  One _TreeSearch
    over the growing step map resumes at each stage from the tree vertices
    the new arcs touch, so each stage's tree extends the last, earlier
    stages are full subautomata of later ones, and petals never disappear.
    (A whole search of a later stage can reach an old vertex by a new arc.)

    A stage costs time in proportion to its sphere: it touches only its own
    arcs, and fills potentials and root paths, with the routines that serve
    finished automata, for the vertices the search adds.  Every new arc of
    stage n joins blocks of spheres n-1 and n, so only those keep them.  A
    stage's automaton is built when it is read."""

    def __init__(self, report: IntersectionReport):
        self.report = report
        self.prod = report.prod
        self.tree = report.tree
        self.ambient = report.ambient
        self.ball = _CayleyBall([d for d in report.deltas if d != 1], report.generators)
        self.witness = CosetIntersection(self.prod.base1, self.prod.base2).witness
        self.prod_diffs = [_label_differences(x) for x in (self.prod.labels1, self.prod.labels2)]
        self.block_arcs = sorted(self.tree.tree_arcs)
        # expansion state
        self.vt = self.prod.skeleton.num_vertices
        self.arcs: list[tuple[int, int, int]] = []
        self.diffs1: list[Optional[Vector]] = []  # per arc, from the product arc it copies
        self.diffs2: list[Optional[Vector]] = []
        self.labels: list[ArcLabel] = []  # equalized, one per arc
        self.steps: dict[tuple[int, int], tuple[int, int, int]] = {}
        # spanning tree; potentials and root-path words of two spheres only
        basepoint = self.prod.skeleton.basepoint
        order = report.order  # the search must not keep the stream alive
        self.search = _TreeSearch(self.steps, basepoint, lambda v: order)
        zero = self.ambient.zero()
        self.phi1: dict[int, Vector] = {basepoint: zero}
        self.phi2: dict[int, Vector] = {basepoint: zero}
        self.path: dict[int, Word] = {basepoint: ()}

    def _copy_arc(self, do, dt, src):
        """Append a copy of product arc src from block do to block dt."""
        o, k, t = self.prod.skeleton.arcs[src]
        o, t, idx = do * self.vt + o, dt * self.vt + t, len(self.arcs)
        self.arcs.append((o, k, t))
        self.diffs1.append(self.prod_diffs[0][src])
        self.diffs2.append(self.prod_diffs[1][src])
        self.steps[(o, k)] = (t, idx, 1)
        self.steps[(t, -k)] = (o, idx, -1)

    def _extend_tree(self, start_arc):
        """Resume the search over the arcs from start_arc on; fill what it adds."""
        search = self.search
        start = len(search.vertices)
        search.extend({v for o, _, t in self.arcs[start_arc:] for v in (o, t)})
        added = search.vertices[start:]
        _fill_potentials(self.phi1, added, search.parent, self.arcs, self.diffs1)
        _fill_potentials(self.phi2, added, search.parent, self.arcs, self.diffs2)
        for w in added:
            _root_path(self.path, w, search.parent, self.arcs)

    def _equalize_new_arcs(self, start_arc):
        """Append the label of each arc from start_arc on; return the new petals."""
        zero = self.ambient.zero()
        tree_arcs = self.search.tree_arcs
        out = []
        for arc_idx in range(start_arc, len(self.arcs)):
            if arc_idx in tree_arcs:
                self.labels.append((zero, zero))
                continue
            arc = o, _, t = self.arcs[arc_idx]
            c = self.witness(
                _arc_value(self.phi1, o, t, self.diffs1[arc_idx]),
                _arc_value(self.phi2, o, t, self.diffs2[arc_idx]),
            )
            if c is None:
                raise NotEqualizableError("vertex expansion must be equalizable")
            element = GroupElement(_petal_cut(self.path, arc), self.ambient.abelian.canonicalize(c))
            self.labels.append((zero, element.vec))
            out.append(element)
        return tuple(out)

    def _automaton(self, num_vertices: int, num_arcs: int) -> EnrichedAutomaton:
        """The equalized automaton on the first vertices and arcs."""
        skeleton = Automaton(
            self.ambient.n, num_vertices, self.prod.skeleton.basepoint,
            tuple(self.arcs[:num_arcs]),
        )
        return EnrichedAutomaton(
            self.ambient, skeleton, tuple(self.labels[:num_arcs]), self.report.base
        )

    def stages(self) -> Iterator[IntersectionStage]:
        """Stages of radius 0, 1, ..., ending with the first complete one.

        Stage n adds the blocks of the Cayley sphere of radius n, then its
        arcs: those from the inner ball into the sphere, ordered by origin
        and generator, then those from the sphere into the ball of radius n.
        Then the potentials and root paths of sphere n-1 are dropped: no
        later arc reaches it.  A trivial free projection is the one complete
        stage of radius 0, the point automaton carrying L1 & L2.
        """
        ambient = self.ambient
        if self.report.pi_trivial:
            point = EnrichedAutomaton(ambient, Automaton(ambient.n, 1, 0, ()), (), self.report.base)
            yield IntersectionStage(0, (), True, lambda: point)
            return
        ball = self.ball
        vt = self.vt
        previous = range(0)
        for radius in itertools.count():
            sphere = ball.sphere
            ball.grow()
            start_arc = len(self.arcs)
            for d in sphere:
                for src in self.block_arcs:
                    self._copy_arc(d, d, src)
            entering = sorted(
                (u, i, w)
                for w in sphere
                for i, u in enumerate(ball.minus[w])
                if u < sphere.start
            )
            leaving = [
                (w, i, u)
                for w in sphere
                for i, u in enumerate(ball.plus[w])
                if u < sphere.stop
            ]
            for do, i, dt in entering + leaving:
                self._copy_arc(do, dt, self.tree.petal_arcs[i])
            self._extend_tree(start_arc)
            new_elements = self._equalize_new_arcs(start_arc)
            for v in range(previous.start * vt, previous.stop * vt):
                del self.path[v], self.phi1[v], self.phi2[v]
            previous = sphere
            build = partial(self._automaton, sphere.stop * vt, len(self.arcs))
            yield IntersectionStage(radius, new_elements, not ball.sphere, build)
            if not ball.sphere:
                return
