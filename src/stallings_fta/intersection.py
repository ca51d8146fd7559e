"""Intersections of subgroups of F_n x A via doubly-enriched products.

The pipeline: form the product of the two enriched Stallings automata,
keeping both abelian label systems and the pair of basepoint subgroups
(L1, L2); keep its core, renumbered canonically as folding's result is
(words._canonical_core), and normalize both systems from the factors' arc
values.  Its petals are the free basis w_1..w_r of the free projection
intersection; the report spells out their words only when read.  A double
label (a, b) is one vector a || b of Z^m x Z^m, the pullback's label
group, so every pass over the arcs carries both systems as one joined
value per arc; one routine, _doubly_labelled, labels both systems from it
for the product, normalize_doubly and doubly_reduce, and equalize and
intersect_fg label with enriched._labelled.  The difference matrix
D = B1 A1 - B2 A2 measures how the two completions of each w_j disagree.
Row j is read off the product: it is the difference of the two halves of
petal j's value, before they are reduced, so no word is walked through a
factor and no factor basis is built (the report builds A_i and B_i only
when they are read).  With the preimage lattice M = (L1 + L2) D^-1 <= Z^r
the group Z^r / M controls everything: the intersection's free
projection is its Cayley multidigraph on the images of e_1..e_r, finitely
generated exactly when r = 0, r = 1, or Z^r / M is finite.
v -> vD + (L1 + L2) maps Z^r / M isomorphically onto a subgroup of
Z^m / (L1 + L2), so its invariant factors and the images of the e_i are
computed there, from matrices of at most m rows and columns
(abelian.image_invariants); no r x r matrix is built unless M is read.

The intersection is built by vertex-expanding that Cayley graph by the
product automaton and equalizing each double label (a, b) to a witness in
(a+L1) & (b+L2), solved once per distinct pair.  One expansion routine
grows the Cayley ball a sphere at a time and copies the product's arcs for
it, writing each copy's step map entries as it appends the copy, so the
expansion has one step map, kept with its arcs.  The images of the e_i
repeat heavily, so image_invariants solves each distinct row of D once and
the ball grows once per distinct generator class, each row reading its
class's neighbours.  The stream (report.stages()) equalizes each sphere as
it comes: its stages form a strictly increasing chain of automata whose
petals enumerate a recursive basis, and every element of the intersection
with free length at most 2n is already recognized by the n-th stage.  A
stage costs time in proportion to its new sphere, not to the ball: it
copies no arc of earlier stages, resumes the tree search where the last
sphere's vertices begin, labels its new arcs and cuts their petal words
from the root paths of the two spheres they join in one loop, and builds
its automaton only when that is read.  Only stages() builds these per-stage
trees, potentials and words.  In the finitely generated case the Cayley
graph is finite: intersect_fg runs the same expansion to completion, hands
its arcs and step map to _canonical_core and equalizes it once, one witness
per canonical petal of its core, on the core's canonical tree; that is the
Stallings automaton of the intersection.

The IntersectionReport that intersection_matrices returns is the
intersection's context: the letter order, the normalized product and its
spanning tree are checked and built there once and kept in the report, as
is the one CosetIntersection of (L1, L2), which gives L1 & L2 and every
witness; D, M, the stream and intersect_fg all read them.  intersect_fg,
intersect_stages and the CLI start from one report.
cayley_multidigraph, vertex_expand, doubly_reduce and equalize remain as
the paper's separate steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .abelian import (
    INFINITY,
    AbelianSubgroup,
    CosetIntersection,
    Matrix,
    Rank,
    SnfDecomposition,
    Vector,
    image_invariants,
    preimage_under_matrix,
    snf,
    vec_sub,
)
from .enriched import (
    Ambient,
    ArcLabel,
    EnrichedAutomaton,
    GroupElement,
    _arc_value,
    _fill_potentials,
    _folded_core,
    _label_differences,
    _labelled,
    _tree_values,
    basis,
    normalize,
)
from .words import (
    Automaton,
    SpanningTree,
    Word,
    _canonical_core,
    _Folding,
    _petal_cut,
    _root_paths,
    _step_map,
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
    """Product object: one skeleton, two abelian label systems, pair (L1, L2).
    Both systems' label differences, one a || b per arc, are kept once read
    or once doubly_enriched_product seeds them (_joined_differences)."""

    ambient: Ambient
    skeleton: Automaton
    labels1: tuple[ArcLabel, ...]
    labels2: tuple[ArcLabel, ...]
    base1: AbelianSubgroup
    base2: AbelianSubgroup

    def __post_init__(self):
        if not len(self.labels1) == len(self.labels2) == len(self.skeleton.arcs):
            raise ValueError("one label pair per arc and per factor required")

    @cached_property
    def _joined_differences(self) -> list[Optional[Vector]]:
        """lab2 - lab1 of both systems, joined per arc by _joined."""
        return _joined(_label_differences(self.labels1), _label_differences(self.labels2),
                       self.ambient.zero())


def _joined(diffs1, diffs2, zero: Vector) -> list[Optional[Vector]]:
    """a || b for each arc's two label differences (None for zero), or None
    where both are zero: one vector of Z^m x Z^m, which the tree routines
    of enriched sum around petals as they sum one layer's."""
    return [None if a is None and b is None else (a or zero) + (b or zero)
            for a, b in zip(diffs1, diffs2)]


def _doubly_labelled(ambient: Ambient, skeleton: Automaton, values,
                     base1: AbelianSubgroup, base2: AbelianSubgroup) -> DoublyEnrichedAutomaton:
    """The automaton labelled (0, a) and (0, b) on each arc of joined value
    a || b, and (0, 0) in both systems where it is None or zero; it keeps
    the values, zero ones as None, as its joined differences."""
    m, zero = ambient.m, ambient.zero()
    joined = [v if v and any(v) else None for v in values]
    labels = (tuple((zero, zero if v is None else v[cut]) for v in joined)
              for cut in (slice(m), slice(m, None)))
    out = DoublyEnrichedAutomaton(ambient, skeleton, *labels, base1, base2)
    out.__dict__["_joined_differences"] = joined
    return out


def doubly_enriched_product(
    e1: EnrichedAutomaton, e2: EnrichedAutomaton, order: Optional[Sequence[int]] = None
) -> DoublyEnrichedAutomaton:
    """Core of the product of two enriched automata, T-normalized.

    Both label systems are carried through the same pruning and the same
    spanning-tree normalization, as one joined value a || b per arc, each
    half reduced modulo its own basepoint subgroup.  Each factor is read
    normalized on its own tree of `order` (free when it was built under
    `order`), so the half i of a product petal's value, before reduction,
    is the completion B_i A_i of its word in factor i.  The differences of
    the two halves, the rows of D = B1 A1 - B2 A2 in petal order, are kept
    on the result outside its fields (_petal_differences);
    intersection_matrices reads them there.
    """
    if e1.ambient != e2.ambient:
        raise ValueError("ambient group mismatch")
    ambient = e1.ambient
    raw, prov = product_with_provenance(e1.skeleton, e2.skeleton)
    skeleton, tree, kept = _canonical_core(
        ambient.n, raw.basepoint, raw.arcs, _step_map(ambient.n, raw.arcs), order)
    m, zero = ambient.m, ambient.zero()
    diffs1, diffs2 = (normalize(e, spanning_tree_by_order(e.skeleton, order))._differences
                      for e in (e1, e2))
    joined = _joined([diffs1[prov[x][0]] for x in kept], [diffs2[prov[x][1]] for x in kept], zero)
    values = _tree_values(skeleton, tree, joined, zero + zero)
    reduce1, reduce2 = e1.base.reduce_mod, e2.base.reduce_mod
    out = _doubly_labelled(ambient, skeleton, [
        None if v is None else reduce1(v[:m]) + reduce2(v[m:]) for v in values], e1.base, e2.base)
    out.__dict__["_petal_differences"] = tuple(  # not a field
        vec_sub(values[x][:m], values[x][m:]) for x in tree.petal_arcs)
    return out


def normalize_doubly(
    x: DoublyEnrichedAutomaton, tree: SpanningTree
) -> DoublyEnrichedAutomaton:
    """T-normalize both label systems (each modulo its own subgroup)."""
    m, zero = x.ambient.m, x.ambient.zero()
    values = _tree_values(x.skeleton, tree, x._joined_differences, zero + zero)
    reduce1, reduce2 = x.base1.reduce_mod, x.base2.reduce_mod
    return _doubly_labelled(x.ambient, x.skeleton, [
        None if v is None else reduce1(v[:m]) + reduce2(v[m:]) for v in values], x.base1, x.base2)


def doubly_reduce(
    x: DoublyEnrichedAutomaton, order: Optional[Sequence[int]] = None
) -> DoublyEnrichedAutomaton:
    """Fold a doubly-enriched automaton; closed folds feed both subgroups.

    Each arc is labelled (0, value) in both systems, as reduce does."""
    sk, m, spec = x.skeleton, x.ambient.m, x.ambient.abelian
    folding = _Folding(sk.num_vertices, sk.arcs, list(x._joined_differences))
    skeleton, _, values, gained = _folded_core(x.ambient, folding, sk.basepoint, order)
    base1, base2 = (
        AbelianSubgroup.from_generators(spec, base.lattice_basis + tuple(g[cut] for g in gained))
        for base, cut in ((x.base1, slice(m)), (x.base2, slice(m, None))))
    return _doubly_labelled(x.ambient, skeleton, values, base1, base2)


@dataclass(frozen=True)
class IntersectionReport:
    """The intersection's context: its letter order, its normalized product
    and the product's spanning tree, and what the finite-generation decision
    reads off them.  The constructions stream from it (see stages).

    D is read off the product's petal values; deltas and generators are
    computed in Z^m.  The petal words w_1..w_r, the paper's A1, A2, B1 and
    B2, read from the two factors that the report keeps for them, and M
    and snf, the r x r lattice and its Smith form, are cached properties
    built on first read; r is the tree's petal count.  The CLI reads M for
    the JSON "M" of intersect and snf for the vertex labels of cayley; the
    paper-case checks and the tests read them all.
    solver, the CosetIntersection of (L1, L2), gives base = L1 & L2 and
    the witnesses of the stream and intersect_fg."""

    ambient: Ambient
    order: tuple[int, ...]  # checked letter order
    prod: DoublyEnrichedAutomaton  # normalized on tree
    tree: SpanningTree  # of prod.skeleton under order
    D: Matrix  # r x m difference matrix
    deltas: Vector  # invariant factors of Z^r / M, padded to length r
    generators: Matrix  # image of each e_i in the non-unit factors of deltas
    base: AbelianSubgroup  # L1 & L2
    verdict: str
    pi_trivial: bool
    free_rank: Rank
    total_rank: Rank
    factors: tuple[EnrichedAutomaton, EnrichedAutomaton] = field(compare=False, repr=False)
    solver: CosetIntersection = field(compare=False, repr=False)  # of (L1, L2); gives base

    @property
    def r(self) -> int:
        return len(self.tree.petal_arcs)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The free basis w_1..w_r of H1pi & H2pi, the petal words of tree."""
        return tuple(t_basis(self.prod.skeleton, self.tree))

    @property
    def s(self) -> int:
        return sum(1 for d in self.deltas if d)

    def _factor_matrices(self, i: int) -> tuple[Matrix, Matrix]:
        """(A, B) of factor i: the abelian parts of its basis on its tree of
        order, and the coordinates of each petal word in that basis."""
        e = self.factors[i]
        tree = spanning_tree_by_order(e.skeleton, self.order)
        return (tuple(g.vec for g in basis(e, tree).free_part),
                tuple(word_coordinates(e.skeleton, tree, w) for w in self.words))

    A1 = cached_property(lambda self: self._factor_matrices(0)[0])
    A2 = cached_property(lambda self: self._factor_matrices(1)[0])
    B1 = cached_property(lambda self: self._factor_matrices(0)[1])
    B2 = cached_property(lambda self: self._factor_matrices(1)[1])

    @cached_property
    def M(self) -> AbelianSubgroup:
        """(L1 + L2) D^-1 <= Z^r, built on first use."""
        return preimage_under_matrix(self.prod.base1.sum(self.prod.base2), self.D)

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

    Row j of D = B1 A1 - B2 A2 is the difference of the two completions of
    the petal word w_j, one in each factor; doubly_enriched_product reads
    both off the product petal's values in its two layers.  The rows of
    B_i, the coordinates of each w_j in factor i's basis, and A_i, that
    basis's abelian parts, are built only when read.
    """
    ambient = e1.ambient
    order = check_order(order, ambient.n)
    prod = doubly_enriched_product(e1, e2, order)
    tree = spanning_tree_by_order(prod.skeleton, order)
    d = prod.__dict__["_petal_differences"]
    deltas, gens = image_invariants(e1.base.sum(e2.base), d)
    verdict, pi_trivial, free_rank = decide_finitely_generated(
        len(d), sum(1 for x in deltas if x), deltas
    )
    solver = CosetIntersection(e1.base, e2.base)
    base = solver.base
    total = INFINITY if free_rank is INFINITY else free_rank + base.rank()
    return IntersectionReport(
        ambient=ambient,
        order=order,
        prod=prod,
        tree=tree,
        D=d,
        deltas=deltas,
        generators=gens,
        base=base,
        verdict=verdict,
        pi_trivial=pi_trivial,
        free_rank=free_rank,
        total_rank=total,
        factors=(e1, e2),
        solver=solver,
    )


class _CayleyBall:
    """Breadth-first ball of the Cayley multidigraph of Z/delta_1 + ... +
    Z/delta_k on the given generator rows, grown one sphere at a time.

    A sum is reduced only up to the last nonzero delta: the zeros after it
    are free factors, which the stream's deltas (the non-unit factors, then
    the zeros) end in.  Rows that are equal once reduced give the same
    arcs, so the work is done once per class: gens holds the distinct
    nonzero reduced rows in first-occurrence order, and row_class maps each
    row to its class, and each zero row to the loop class len(gens).
    Vertices are numbered in discovery order, so any isomorphic
    presentation of the group, with the generators in the same order,
    numbers them alike.  Growing computes and reduces v + g and then
    v - g for each class g in turn, over the outer sphere; this numbers the
    vertices as a pass over the rows would, since a repeated or zero row
    meets no new vertex.  Those not seen yet become the next sphere.
    plus[v][c] is the number of v + g_c, and v itself for the loop class,
    so v + row_i is plus[v][row_class[i]]; v - g_c is numbered, not kept,
    since w = u + g exactly when u = w - g.
    """

    def __init__(self, deltas: Sequence[int], q_rows: Sequence[Sequence[int]]):
        deltas = tuple(deltas)
        t = len(deltas)
        while t and not deltas[t - 1]:
            t -= 1
        self.t, self.mods = t, deltas[:t]  # deltas[t:] are free factors
        classes: dict[Vector, int] = {}
        reduced = [self._reduced(row) for row in q_rows]
        for g in reduced:
            if any(g):
                classes.setdefault(g, len(classes))
        self.gens = list(classes)
        self.row_class = [classes.get(g, len(classes)) for g in reduced]
        zero = (0,) * len(deltas)
        self.elements = [zero]
        self.index = {zero: 0}
        self.plus: list[tuple[int, ...]] = []
        self.sphere = range(0, 1)  # the outer sphere, not grown yet
        self.grown = range(0)  # the sphere grown last, inside the outer one

    def _reduced(self, vec: Iterable[int]) -> Vector:
        """vec as a tuple, reduced up to the last nonzero delta."""
        vec = tuple(vec)
        if not self.t:
            return vec
        return (*[x % d if d else x for x, d in zip(vec, self.mods)], *vec[self.t:])

    def _number(self, vec: Vector) -> int:
        v = self.index.get(vec)
        if v is None:
            v = self.index[vec] = len(self.elements)
            self.elements.append(vec)
        return v

    def grow(self) -> None:
        """Grow the outer sphere; the sphere it numbers becomes the outer one.
        A free ball (no nonzero delta) only makes its sums tuples."""
        number, reduced = self._number, self._reduced if self.t else tuple
        for v in self.sphere:
            vec = self.elements[v]
            plus = []
            for g in self.gens:
                plus.append(number(reduced(map(add, vec, g))))
                number(reduced(map(sub, vec, g)))
            plus.append(v)
            self.plus.append(tuple(plus))
        self.grown, self.sphere = self.sphere, range(self.sphere.stop, len(self.elements))


def cayley_multidigraph(
    deltas: Sequence[int], q_rows: Sequence[Sequence[int]], radius: Optional[int] = None
):
    """Cayley multidigraph of Z/delta_1 + ... + Z/delta_r on the rows of Q.

    delta_i = 0 contributes a Z factor and delta_i = 1 a trivial one; trivial
    and repeated generators are kept (one letter per row), and read from the
    ball's classes through its row_class map.  Without a radius the group
    must be finite; with one, the induced ball of that radius around the
    identity is returned.  Returns (automaton, vertex elements).
    """
    r = len(deltas)
    if any(d < 0 for d in deltas):
        raise ValueError("deltas must be nonnegative")
    if radius is not None and radius < 0:
        raise ValueError("ball radius must be nonnegative")
    if len(q_rows) != r or any(len(row) != r for row in q_rows):
        raise ValueError("one generator row per delta required, with one entry per delta")
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
        for i, w in enumerate(map(ball.plus[v].__getitem__, ball.row_class))
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


def _witness_memo(known: dict, solve, m: int) -> Callable[[Vector], Vector]:
    """a || b -> the canonical c in (a + L1) & (b + L2), given solve, a
    CosetIntersection's witness, which is canonical modulo L1 & L2: each
    distinct joined value is split at m and solved once, and kept in known;
    NotEqualizableError when the two cosets do not meet."""

    def witness(v: Vector) -> Vector:
        c = known.get(v)
        if c is None:
            a, b = v[:m], v[m:]
            c = solve(a, b)
            if c is None:
                raise NotEqualizableError(f"({a} + L1) and ({b} + L2) do not meet")
            known[v] = c
        return c

    return witness


def equalize(x: DoublyEnrichedAutomaton, tree: Optional[SpanningTree] = None) -> EnrichedAutomaton:
    """Replace each double label by a witness and (L1, L2) by L1 & L2.

    A non-tree arc's joined value, summed around its petal of tree and left
    unreduced, is a || b; its label is (0, c) with c the canonical element
    of (a + L1) & (b + L2), solved once per distinct pair.  No
    normalize_doubly step comes first: c is canonical modulo L1 & L2
    whichever representatives of the two cosets it is solved from.
    """
    tree = tree or spanning_tree_by_order(x.skeleton)
    solver = CosetIntersection(x.base1, x.base2)
    zero = x.ambient.zero()
    values = _tree_values(x.skeleton, tree, x._joined_differences, zero + zero)
    witness = _witness_memo({}, solver.witness, x.ambient.m)
    return _labelled(x.ambient, x.skeleton, values, solver.base, witness, tree)


def intersect_fg(
    e1: EnrichedAutomaton,
    e2: EnrichedAutomaton,
    order: Optional[Sequence[int]] = None,
    report: Optional[IntersectionReport] = None,
) -> EnrichedAutomaton:
    """Stallings automaton of H1 & H2; only valid in the f.g. case.

    The report's expansion, the one that stages() equalizes sphere by
    sphere, runs until the finite Cayley graph of Z^r / M is exhausted,
    with no per-stage tree, potentials or petal words.  Its core (with
    r = 1 the copies of the product hang stems off the expanded cycle) is
    canonically renumbered from the expansion's own step map, which
    _canonical_core checks for determinism by its size alone; each arc's
    joined value is read through the product arc it copies and summed
    around the canonical petals, and each petal is equalized once, as
    equalize does.  A given report must have been built under the same
    letter order.
    """
    ambient = e1.ambient
    if report is None:
        report = intersection_matrices(e1, e2, order)
    elif check_order(order, ambient.n) != report.order:
        raise ValueError("the report was built under another letter order")
    if report.verdict != VERDICT_FG:
        raise ValueError("intersection is not finitely generated")
    expansion = _ExpansionStream(report)
    if not report.pi_trivial:  # else block 0 with no arcs: the point
        while expansion.ball.sphere:
            expansion._expand()
    skeleton, tree, kept = _canonical_core(ambient.n, report.prod.skeleton.basepoint,
                                           expansion.arcs, expansion.steps, report.order)
    zero = ambient.zero()
    values = _tree_values(skeleton, tree, [expansion.diffs[x] for x in kept], zero + zero)
    witness = _witness_memo({}, report.solver.witness, ambient.m)
    return _labelled(ambient, skeleton, values, report.base, witness, tree)


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


class _ExpansionStream:
    """Incremental vertex-expansion of growing Cayley balls by the report's
    product, on the report's spanning tree and letter order.

    Vertex ids are stable across stages: Cayley vertex number d (in BFS
    discovery order) occupies the block [d*vt, (d+1)*vt).  The expansion
    (_expand) grows one sphere and appends the arcs it adds, each with the
    joined label difference of the product arc it copies and with its two
    entries in the step map: the step map lives with the arcs, and
    intersect_fg runs the expansion alone to the end and hands both to
    _canonical_core.  stages() also equalizes each sphere's arcs as they
    come, in one loop.  One _TreeSearch over the step map resumes at each
    stage, so each stage's tree extends the last, earlier stages are full
    subautomata of later ones, and petals never disappear.  (A whole search
    of a later stage can reach an old vertex by a new arc.)

    A stage costs time in proportion to its sphere.  Every new arc of stage
    n joins blocks of spheres n-1 and n, and the search adds each sphere's
    vertices in one run, so stage n resumes it where sphere n-1's begin;
    only those two spheres keep their potentials, root paths and steps,
    while the search's parent map and vertex list span the ball.
    Potentials and arc values are joined vectors a || b, one per vertex and
    one per arc, filled with the routines that serve finished automata.
    Each distinct double label is solved once: its canonical witness is
    kept, keyed by a || b, for the later arcs that carry it, at most one
    entry per non-tree arc.  A stage's automaton is built when it is read."""

    def __init__(self, report: IntersectionReport):
        self.report = report
        self.prod = report.prod
        self.ambient = report.ambient
        self.ball = _CayleyBall([d for d in report.deltas if d != 1], report.generators)
        prod_arcs, prod_diffs = self.prod.skeleton.arcs, self.prod._joined_differences
        # the product's tree arcs, which every block copies; the product is
        # normalized on this tree, so their differences are None
        self.block = [prod_arcs[x] for x in sorted(report.tree.tree_arcs)]
        # Cayley arc i copies petal i, with its joined label difference
        self.petals = [(prod_arcs[x], prod_diffs[x]) for x in report.tree.petal_arcs]
        # expansion state
        self.vt = self.prod.skeleton.num_vertices
        self.arcs: list[tuple[int, int, int]] = []
        # per arc, the joined label difference of the product arc it copies
        self.diffs: list[Optional[Vector]] = []
        self.steps: dict[int, tuple[int, int, int]] = {}  # of the arcs, see words
        # per-stage equalization state
        self.witness = report.solver.witness
        self.witnesses: dict[Vector, Vector] = {}  # a || b -> canonical witness
        self.labels: list[ArcLabel] = []  # equalized, one per arc
        # spanning tree; potentials and root-path words of two spheres only
        basepoint = self.prod.skeleton.basepoint
        order = report.order  # the search must not keep the stream alive
        self.search = _TreeSearch(self.steps, self.ambient.n, basepoint, lambda v: order)
        zero = self.ambient.zero()
        self.phi: dict[int, Vector] = {basepoint: zero + zero}
        self.path: dict[int, Word] = {basepoint: ()}

    def _expand(self) -> range:
        """Grow the ball's outer sphere and append the arcs it adds, with
        their steps: the copies of the product's tree arcs in each of its
        blocks, then the copies of petal arcs along its Cayley arcs, those
        from the inner ball into the sphere, ordered by origin and
        generator, then those from the sphere into the ball of its radius.
        Return the sphere.  The entering arcs come in order from the plus
        rows of the sphere grown before it, with no sort: a neighbour of the
        sphere inside the ball lies in that sphere, and w = u + g exactly
        when u = w - g."""
        ball, vt, arcs, diffs, steps = self.ball, self.vt, self.arcs, self.diffs, self.steps
        width, petals, row_class = self.search.width, self.petals, ball.row_class
        inner, sphere = ball.grown, ball.sphere
        ball.grow()
        # (origin block's offset, product arc, its joined difference, target block's offset)
        copies = [(d * vt, arc, None, d * vt) for d in sphere for arc in self.block]
        copies += [(u * vt, *petals[i], w * vt) for u in inner
                   for i, w in enumerate(map(ball.plus[u].__getitem__, row_class))
                   if w >= sphere.start]
        copies += [(w * vt, *petals[i], u * vt) for w in sphere
                   for i, u in enumerate(map(ball.plus[w].__getitem__, row_class))
                   if u < sphere.stop]
        for x, (shift, (o, k, t), diff, target_shift) in enumerate(copies, len(arcs)):
            o += shift
            t += target_shift
            steps[o * width + k], steps[t * width - k] = (t, x, 1), (o, x, -1)
            arcs.append((o, k, t))
            diffs.append(diff)
        return sphere

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

        Stage n expands the Cayley sphere of radius n and resumes the
        search where sphere n-1's vertices begin.  It fills the potentials
        and root paths of the vertices the search adds, then makes one pass
        over the new arcs for their labels and petal words.  Then the
        potentials, root paths and steps of sphere n-1 are dropped: no
        later arc reaches it.  A trivial free projection is the one
        complete stage of radius 0, the point automaton carrying L1 & L2.
        """
        ambient = self.ambient
        if self.report.pi_trivial:
            point = EnrichedAutomaton(ambient, Automaton(ambient.n, 1, 0, ()), (), self.report.base)
            yield IntersectionStage(0, (), True, lambda: point)
            return
        arcs, diffs, labels, steps, phi, path, search = (
            self.arcs, self.diffs, self.labels, self.steps, self.phi, self.path, self.search)
        vertices, parent, tree_arcs = search.vertices, search.parent, search.tree_arcs
        witness = _witness_memo(self.witnesses, self.witness, ambient.m)
        zero, letters, vt, width = ambient.zero(), self.report.order, self.vt, search.width
        inner = begin = 0  # where spheres n-1 and n begin among the search's vertices
        for radius in itertools.count():
            start_arc = len(arcs)
            sphere = self._expand()
            added = len(vertices)
            search.resume(inner)
            _fill_potentials(phi, vertices[added:], parent, arcs, diffs)
            _root_paths(path, vertices[added:], parent, arcs)
            new_elements = []
            for x in range(start_arc, len(arcs)):
                if x in tree_arcs:
                    labels.append((zero, zero))
                    continue
                arc = o, _, t = arcs[x]
                c = witness(_arc_value(phi, o, t, diffs[x]))
                labels.append((zero, c))
                new_elements.append(GroupElement(_petal_cut(path, arc), c))
            for v in vertices[inner:begin]:  # sphere n-1
                del path[v], phi[v]
                for k in letters:
                    steps.pop(v * width + k, None)
            inner, begin = begin, len(vertices)
            build = partial(self._automaton, sphere.stop * vt, len(arcs))
            yield IntersectionStage(radius, tuple(new_elements), not self.ball.sphere, build)
            if not self.ball.sphere:
                return
