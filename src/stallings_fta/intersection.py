"""Intersections of subgroups of F_n x A via doubly-enriched products.

The pipeline: form the product of the two enriched Stallings automata,
keeping both abelian label systems and the pair of basepoint subgroups
(L1, L2); normalize it and read off the petal words w_1..w_r of the free
projection intersection.  The difference matrix D = B1 A1 - B2 A2 measures
how the two completions of each w_j disagree, and the preimage lattice
M = (L1 + L2) D^-1 <= Z^r controls everything: the intersection's free
projection is the Cayley multidigraph of Z^r / M, finitely generated
exactly when r = 0, r = 1, or rank(M) = r.

In the finitely generated case the Stallings automaton of the intersection
is obtained by vertex-expanding that Cayley graph by the product automaton
and equalizing each double label (a, b) to a witness in (a+L1) & (b+L2).
Otherwise the same expansion applied to growing balls of the infinite
Cayley graph yields a strictly increasing chain of automata whose petals
enumerate a recursive basis: every element of the intersection with free
length at most 2n is already recognized by the n-th stage.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .abelian import (
    INFINITY,
    AbelianSubgroup,
    Matrix,
    SnfDecomposition,
    Vector,
    coset_intersection_witness,
    mat_identity,
    preimage_under_matrix,
    snf,
    vec_add,
    vec_mat,
    vec_neg,
    vec_sub,
)
from .enriched import (
    Ambient,
    ArcLabel,
    EnrichedAutomaton,
    GroupElement,
    _normalized_labels,
    _reduce_layers,
    _tree_potentials,
    basis,
)
from .words import (
    Automaton,
    SpanningTree,
    Word,
    _compact,
    _core_keep,
    canonical_renumber,
    check_order,
    default_order,
    invert,
    petal_word,
    product_with_provenance,
    recognizes,
    spanning_tree_by_order,
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
        if len(self.labels1) != len(self.skeleton.arcs) or len(self.labels2) != len(
            self.skeleton.arcs
        ):
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
    labels1 = [e1.labels[i] for i, _ in prov]
    labels2 = [e2.labels[j] for _, j in prov]

    _, kept = _core_keep(raw.num_vertices, raw.basepoint, raw.arcs)
    arcs = [raw.arcs[i] for i in kept]
    labels1 = [labels1[i] for i in kept]
    labels2 = [labels2[i] for i in kept]
    skeleton = _compact(ambient.n, raw.num_vertices, raw.basepoint, arcs)
    skeleton, _, arc_map = canonical_renumber(skeleton, order)
    labels1 = tuple(labels1[i] for i in arc_map)
    labels2 = tuple(labels2[i] for i in arc_map)

    out = DoublyEnrichedAutomaton(ambient, skeleton, labels1, labels2, e1.base, e2.base)
    tree = spanning_tree_by_order(skeleton, order)
    return normalize_doubly(out, tree)


def normalize_doubly(
    x: DoublyEnrichedAutomaton, tree: SpanningTree
) -> DoublyEnrichedAutomaton:
    """T-normalize both label systems (each modulo its own subgroup)."""
    phi1 = _tree_potentials(x.skeleton, tree, x.labels1)
    phi2 = _tree_potentials(x.skeleton, tree, x.labels2)
    labels1 = _normalized_labels(x.skeleton, tree, x.labels1, phi1, x.base1.reduce_mod)
    labels2 = _normalized_labels(x.skeleton, tree, x.labels2, phi2, x.base2.reduce_mod)
    return DoublyEnrichedAutomaton(
        x.ambient, x.skeleton, labels1, labels2, x.base1, x.base2
    )


def doubly_reduce(
    x: DoublyEnrichedAutomaton, order: Optional[Sequence[int]] = None
) -> DoublyEnrichedAutomaton:
    """Fold a doubly-enriched automaton; closed folds feed both subgroups."""
    skeleton, layers, gained = _reduce_layers(x.ambient, x.skeleton, [x.labels1, x.labels2], order)
    spec = x.ambient.abelian
    base1 = AbelianSubgroup.from_generators(spec, x.base1.lattice_basis + tuple(gained[0]))
    base2 = AbelianSubgroup.from_generators(spec, x.base2.lattice_basis + tuple(gained[1]))
    return DoublyEnrichedAutomaton(x.ambient, skeleton, layers[0], layers[1], base1, base2)


def doubly_completion(x: DoublyEnrichedAutomaton, w: Sequence[int]):
    """Pair of abelian sums read along the basepoint walk for w, or None."""
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


@dataclass(frozen=True)
class IntersectionReport:
    """Everything the finite-generation decision and the constructions need."""

    ambient: Ambient
    words: tuple[Word, ...]  # free-basis w_1..w_r of H1pi & H2pi
    petal_labels: tuple[tuple[Vector, Vector], ...]  # (a_i, b_i) per word
    A1: Matrix
    A2: Matrix
    B1: Matrix
    B2: Matrix
    D: Matrix  # r x m difference matrix
    M: AbelianSubgroup  # (L1 + L2) D^-1 <= Z^r
    snf: SnfDecomposition  # of the M lattice basis
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
        return self.snf.s

    @property
    def deltas(self) -> Vector:
        return self.snf.deltas_padded(self.r)


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
    prod: Optional[DoublyEnrichedAutomaton] = None,
    order: Optional[Sequence[int]] = None,
) -> IntersectionReport:
    """Populate the intersection diagram matrices and the verdict.

    The rows of B_i express each product petal word in the basis of the
    corresponding factor (abelianized); A_i stacks the factor's basis
    vectors, so B_i A_i is a completion of each word in H_i and
    D = B1 A1 - B2 A2 measures their incompatibility.
    """
    if prod is None:
        prod = doubly_enriched_product(e1, e2, order)
    ambient = e1.ambient
    m = ambient.m
    tree = spanning_tree_by_order(prod.skeleton, order)
    words = []
    petal_labels = []
    for arc_idx in tree.petal_arcs:
        words.append(petal_word(prod.skeleton, tree, arc_idx))
        petal_labels.append((prod.labels1[arc_idx][1], prod.labels2[arc_idx][1]))

    tree1 = spanning_tree_by_order(e1.skeleton, order)
    tree2 = spanning_tree_by_order(e2.skeleton, order)
    a1 = tuple(g.vec for g in basis(e1, tree1).free_part)
    a2 = tuple(g.vec for g in basis(e2, tree2).free_part)
    b1 = tuple(word_coordinates(e1.skeleton, tree1, w) for w in words)
    b2 = tuple(word_coordinates(e2.skeleton, tree2, w) for w in words)
    d = tuple(
        vec_sub(vec_mat(r1, a1, m), vec_mat(r2, a2, m)) for r1, r2 in zip(b1, b2)
    )
    lat_m = preimage_under_matrix(e1.base.sum(e2.base), d, r=len(words))
    dec = snf(lat_m.lattice_basis, width=len(words))
    verdict, pi_trivial, free_rank = decide_finitely_generated(
        len(words), dec.s, dec.deltas_padded(len(words))
    )
    base = e1.base.intersect(e2.base)
    total = INFINITY if free_rank is INFINITY else free_rank + base.rank()
    return IntersectionReport(
        ambient=ambient,
        words=tuple(words),
        petal_labels=tuple(petal_labels),
        A1=a1,
        A2=a2,
        B1=b1,
        B2=b2,
        D=d,
        M=lat_m,
        snf=dec,
        base=base,
        verdict=verdict,
        pi_trivial=pi_trivial,
        free_rank=free_rank,
        total_rank=total,
    )


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

    def reduce_elem(vec):
        return tuple(a % d if d else a for a, d in zip(vec, deltas))

    gens = [reduce_elem(row) for row in q_rows]
    if radius is None and any(d == 0 for d in deltas):
        raise ValueError("infinite Cayley graph needs a ball radius")

    zero = (0,) * r
    index = {zero: 0}
    elements = [zero]
    dist = [0]
    queue = deque([zero])
    while queue:
        v = queue.popleft()
        d_v = dist[index[v]]
        if radius is not None and d_v == radius:
            continue
        for g in gens:
            for w in (reduce_elem(vec_add(v, g)), reduce_elem(vec_sub(v, g))):
                if w not in index:
                    index[w] = len(elements)
                    elements.append(w)
                    dist.append(d_v + 1)
                    queue.append(w)
    arcs = []
    for v in elements:
        for i, g in enumerate(gens):
            w = reduce_elem(vec_add(v, g))
            j = index.get(w)
            if j is not None:
                arcs.append((index[v], i + 1, j))
    return Automaton(r, len(elements), 0, tuple(arcs)), tuple(elements)


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
    zero_pair = ((0,) * theta.ambient.m, (0,) * theta.ambient.m)
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
    tree = tree or spanning_tree_by_order(x.skeleton)
    x = normalize_doubly(x, tree)
    for arc_idx in range(len(x.skeleton.arcs)):
        if arc_idx in tree.tree_arcs:
            continue
        a = x.labels1[arc_idx][1]
        b = x.labels2[arc_idx][1]
        if coset_intersection_witness(a, x.base1, b, x.base2) is None:
            return False
    return True


def equalize(x: DoublyEnrichedAutomaton, tree: Optional[SpanningTree] = None) -> EnrichedAutomaton:
    """Replace each double label by a witness and (L1, L2) by L1 & L2."""
    tree = tree or spanning_tree_by_order(x.skeleton)
    x = normalize_doubly(x, tree)
    base = x.base1.intersect(x.base2)
    zero = x.ambient.zero()
    labels = []
    for arc_idx in range(len(x.skeleton.arcs)):
        if arc_idx in tree.tree_arcs:
            labels.append((zero, zero))
            continue
        a = x.labels1[arc_idx][1]
        b = x.labels2[arc_idx][1]
        c = coset_intersection_witness(a, x.base1, b, x.base2)
        if c is None:
            raise NotEqualizableError(
                f"arc {arc_idx}: ({a} + L1) and ({b} + L2) do not meet"
            )
        labels.append((zero, c))
    return EnrichedAutomaton(x.ambient, x.skeleton, tuple(labels), base)


def intersect_fg(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    order: Optional[Sequence[int]] = None,
    report: Optional[IntersectionReport] = None,
    prod: Optional[DoublyEnrichedAutomaton] = None,
) -> EnrichedAutomaton:
    """Stallings automaton of H1 & H2; only valid in the f.g. case."""
    if prod is None:
        prod = doubly_enriched_product(e1, e2, order)
    if report is None:
        report = intersection_matrices(e1, e2, prod, order)
    if report.verdict != VERDICT_FG:
        raise ValueError("intersection is not finitely generated")
    ambient = e1.ambient
    if report.pi_trivial:
        return EnrichedAutomaton(
            ambient, Automaton(ambient.n, 1, 0, ()), (), report.base
        )
    delta_aut, _ = cayley_multidigraph(report.deltas, report.snf.Q)
    tree = spanning_tree_by_order(prod.skeleton, order)
    x = vertex_expand(delta_aut, prod, tree)
    x = doubly_reduce(x, order)
    t2 = spanning_tree_by_order(x.skeleton, order)
    return equalize(normalize_doubly(x, t2), t2)


@dataclass(frozen=True)
class IntersectionStage:
    """One step of the recursive construction: the ball radius, the equalized
    automaton so far, the basis elements new to this stage, and whether the
    Cayley graph is exhausted."""

    radius: int
    automaton: EnrichedAutomaton
    new_elements: tuple[GroupElement, ...]
    complete: bool


def intersect_stages(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    max_radius: int = 8,
    order: Optional[Sequence[int]] = None,
):
    """(report, iterator of IntersectionStage) for growing Cayley balls.

    Stage n recognizes a subgroup of H1 & H2 containing every element whose
    free part has length at most 2n; spanning trees and bases grow
    monotonically, so the concatenated new_elements enumerate a basis.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    prod = doubly_enriched_product(e1, e2, order)
    report = intersection_matrices(e1, e2, prod, order)
    ambient = e1.ambient
    if report.pi_trivial:
        point = EnrichedAutomaton(ambient, Automaton(ambient.n, 1, 0, ()), (), report.base)
        return report, iter([IntersectionStage(0, point, (), True)])
    tree = spanning_tree_by_order(prod.skeleton, order)
    stream = _ExpansionStream(prod, report, tree, order)
    return report, stream.stages(max_radius)


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
    """Incremental vertex-expansion of growing Cayley balls.

    Vertex ids are stable across stages: Cayley vertex number d (in BFS
    discovery order) occupies the block [d*vt, (d+1)*vt).  The spanning tree
    is extended breadth-first from the already-visited vertices, so earlier
    stages are full subautomata of later ones and petals never disappear.
    """

    def __init__(self, prod, report, tree, order):
        self.prod = prod
        self.report = report
        self.tree = tree
        self.ambient = prod.ambient
        self.order = (
            check_order(order, self.ambient.n) if order is not None
            else default_order(self.ambient.n)
        )
        deltas = report.deltas
        self.reduce_elem = lambda v: tuple(a % d if d else a for a, d in zip(v, deltas))
        self.gens = [self.reduce_elem(row) for row in report.snf.Q]
        # Cayley ball state
        zero = (0,) * report.r
        self.elements = [zero]
        self.index = {zero: 0}
        self.dist = [0]
        # expansion state
        self.vt = prod.skeleton.num_vertices
        self.arcs: list[tuple[int, int, int]] = []
        self.arc_labels: list[tuple[ArcLabel, ArcLabel]] = []
        self.steps: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.visited: list[int] = []
        self.in_tree_vertex: set[int] = set()
        self.parent: dict[int, tuple[int, int]] = {}
        self.tree_arcs: set[int] = set()
        self.phi1: dict[int, Vector] = {}
        self.phi2: dict[int, Vector] = {}
        self.petal_arcs: list[int] = []
        self.num_vertices = 0

    def _add_arc(self, o, k, t, lab1, lab2):
        idx = len(self.arcs)
        self.arcs.append((o, k, t))
        self.arc_labels.append((lab1, lab2))
        self.steps[(o, k)] = (t, idx, 1)
        self.steps[(t, -k)] = (o, idx, -1)
        return idx

    def _add_block(self, d):
        sk = self.prod.skeleton
        base = d * self.vt
        self.num_vertices = max(self.num_vertices, base + self.vt)
        for arc_idx in sorted(self.tree.tree_arcs):
            o, k, t = sk.arcs[arc_idx]
            self._add_arc(
                base + o, k, base + t,
                self.prod.labels1[arc_idx], self.prod.labels2[arc_idx],
            )

    def _add_delta_arc(self, do, i, dt):
        arc_idx = self.tree.petal_arcs[i]
        o, k, t = self.prod.skeleton.arcs[arc_idx]
        self._add_arc(
            do * self.vt + o, k, dt * self.vt + t,
            self.prod.labels1[arc_idx], self.prod.labels2[arc_idx],
        )

    def _extend_tree(self):
        """Continue the breadth-first spanning tree over the new material."""
        queue = deque(self.visited)
        basepoint = self.prod.skeleton.basepoint
        if not self.visited:
            self.visited.append(basepoint)
            self.in_tree_vertex.add(basepoint)
            zero = self.ambient.zero()
            self.phi1[basepoint] = zero
            self.phi2[basepoint] = zero
            queue.append(basepoint)
        while queue:
            v = queue.popleft()
            for s in self.order:
                nxt = self.steps.get((v, s))
                if nxt is None:
                    continue
                w, arc_idx, d = nxt
                if w in self.in_tree_vertex:
                    continue
                self.in_tree_vertex.add(w)
                self.visited.append(w)
                self.parent[w] = (arc_idx, d)
                self.tree_arcs.add(arc_idx)
                lab1_1, lab2_1 = self.arc_labels[arc_idx][0]
                lab1_2, lab2_2 = self.arc_labels[arc_idx][1]
                if d == 1:
                    self.phi1[w] = vec_add(self.phi1[v], vec_sub(lab1_1, lab2_1))
                    self.phi2[w] = vec_add(self.phi2[v], vec_sub(lab1_2, lab2_2))
                else:
                    self.phi1[w] = vec_add(self.phi1[v], vec_sub(lab2_1, lab1_1))
                    self.phi2[w] = vec_add(self.phi2[v], vec_sub(lab2_2, lab1_2))
                queue.append(w)

    def _petal_word(self, arc_idx):
        o, k, t = self.arcs[arc_idx]

        def path(v):
            out = []
            while v in self.parent:
                a_idx, d = self.parent[v]
                out.append(self.arcs[a_idx][1] * d)
                ao, _, at = self.arcs[a_idx]
                v = ao if d == 1 else at
            out.reverse()
            return tuple(out)

        return path(o) + (k,) + invert(path(t))

    def _collect_new_petals(self, start_arc):
        out = []
        for arc_idx in range(start_arc, len(self.arcs)):
            if arc_idx in self.tree_arcs:
                continue
            self.petal_arcs.append(arc_idx)
            o, _, t = self.arcs[arc_idx]
            (l1a, l1b), (l2a, l2b) = self.arc_labels[arc_idx]
            val1 = vec_sub(vec_add(l1b, self.phi1[t]), vec_add(l1a, self.phi1[o]))
            val2 = vec_sub(vec_add(l2b, self.phi2[t]), vec_add(l2a, self.phi2[o]))
            c = coset_intersection_witness(val1, self.prod.base1, val2, self.prod.base2)
            if c is None:
                raise NotEqualizableError("vertex expansion must be equalizable")
            word = self._petal_word(arc_idx)
            out.append((arc_idx, GroupElement(word, self.ambient.abelian.canonicalize(c))))
        return out

    def _automaton(self, witnesses):
        zero = self.ambient.zero()
        labels = []
        for arc_idx in range(len(self.arcs)):
            if arc_idx in witnesses:
                labels.append((zero, witnesses[arc_idx]))
            else:
                labels.append((zero, zero))
        skeleton = Automaton(
            self.ambient.n,
            self.num_vertices,
            self.prod.skeleton.basepoint,
            tuple(self.arcs),
        )
        return EnrichedAutomaton(self.ambient, skeleton, tuple(labels), self.report.base)

    def stages(self, max_radius: int) -> Iterator[IntersectionStage]:
        witnesses: dict[int, Vector] = {}
        frontier = [0]
        for radius in range(max_radius + 1):
            start_arc = len(self.arcs)
            if radius == 0:
                self._add_block(0)
                new_vertices = [0]
            else:
                new_vertices = []
                for dv in frontier:
                    v = self.elements[dv]
                    for g in self.gens:
                        for w in (
                            self.reduce_elem(vec_add(v, g)),
                            self.reduce_elem(vec_sub(v, g)),
                        ):
                            if w not in self.index:
                                self.index[w] = len(self.elements)
                                self.elements.append(w)
                                self.dist.append(radius)
                                new_vertices.append(self.index[w])
                for dv in new_vertices:
                    self._add_block(dv)
            # induced arcs: any delta arc with both endpoints in the ball and
            # at least one endpoint new (stage 0: both endpoints are vertex 0)
            in_ball = set(range(len(self.elements)))
            fresh = set(new_vertices)
            for dv in sorted(in_ball):
                v = self.elements[dv]
                for i, g in enumerate(self.gens):
                    w = self.reduce_elem(vec_add(v, g))
                    dw = self.index.get(w)
                    if dw is None or dw not in in_ball:
                        continue
                    if dv not in fresh and dw not in fresh:
                        continue
                    self._add_delta_arc(dv, i, dw)
            self._extend_tree()
            new = self._collect_new_petals(start_arc)
            for arc_idx, element in new:
                witnesses[arc_idx] = element.vec
            complete = not _has_growth(self)
            yield IntersectionStage(
                radius,
                self._automaton(witnesses),
                tuple(el for _, el in new),
                complete,
            )
            if complete:
                return
            frontier = new_vertices


def _has_growth(stream: _ExpansionStream) -> bool:
    for v in stream.elements:
        for g in stream.gens:
            for w in (
                stream.reduce_elem(vec_add(v, g)),
                stream.reduce_elem(vec_sub(v, g)),
            ):
                if w not in stream.index:
                    return True
    return False
