"""Enriched Stallings automata for subgroups of F_n x A.

An enriched automaton is an involutive pointed automaton whose positive arcs
carry two abelian labels (lab1 at the origin end, lab2 at the target end) and
whose basepoint carries a subgroup L of A.  Crossing an arc forward reads
x t^(lab2 - lab1); the inverse arc implicitly carries (-lab2, -lab1).  The
subgroup recognized by the automaton consists of the labels of basepoint
walks, with elements of L freely insertable at the basepoint.

The construction pipeline (flower -> enriched folding -> core -> canonical
renumbering -> tree normalization with canonical label representatives
modulo L) produces one automaton value per subgroup, so value equality
decides subgroup equality.  stallings() reaches the same automaton without
building the flower: it reads each generator into the graph folded so far
and adds arcs only for what cannot be read.  Folding ends in
words._canonical_core.  Every construction labels its arcs from their
values lab2 - lab1 with one routine, _labelled: reduce keeps each value,
normalization reduces it modulo L, equalization takes a coset witness.
Normalization, folding, products and completions read those values from
one list per automaton, EnrichedAutomaton._differences; a completion adds
the values of the arcs a walk crosses forward, subtracts the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .abelian import (
    INFINITY,
    AbelianSpec,
    AbelianSubgroup,
    Vector,
    vec_add,
    vec_neg,
    vec_sub,
)
from .words import (
    Arc,
    Automaton,
    SpanningTree,
    Word,
    _canonical_core,
    _Folding,
    _step_map,
    canonical_renumber,
    default_order,
    free_reduce,
    invert,
    is_saturated,
    multiply,
    recognizes,
    schreier_transversal,
    spanning_tree_by_order,
    t_basis,
    word_str,
)

ArcLabel = tuple[Vector, Vector]  # (lab1, lab2) of a positive arc


@dataclass(frozen=True)
class Ambient:
    """The ambient group F_n x A."""

    n: int
    abelian: AbelianSpec

    @property
    def m(self) -> int:
        return self.abelian.m

    def zero(self) -> Vector:
        return self.abelian.zero()

    def element(self, word: Sequence[int], vec: Sequence[int] = ()) -> "GroupElement":
        vec = tuple(vec) if vec else self.zero()
        return GroupElement(free_reduce(word), self.abelian.canonicalize(vec))

    def multiply(self, g: "GroupElement", h: "GroupElement") -> "GroupElement":
        return self.element(multiply(g.word, h.word), vec_add(g.vec, h.vec))

    def invert(self, g: "GroupElement") -> "GroupElement":
        return self.element(invert(g.word), vec_neg(g.vec))

    def identity(self) -> "GroupElement":
        return GroupElement((), self.zero())


@dataclass(frozen=True)
class GroupElement:
    """Normal form w * t^a of an element of F_n x A."""

    word: Word
    vec: Vector

    def __str__(self) -> str:
        w = word_str(self.word) if self.word else ""
        t = "t^(" + ",".join(str(a) for a in self.vec) + ")" if any(self.vec) else ""
        return (w + " " + t).strip() or "1"


@dataclass(frozen=True)
class SubgroupBasis:
    """Free-part elements u_i t^{a_i} plus the abelian part H & A."""

    free_part: tuple[GroupElement, ...]
    abelian_part: AbelianSubgroup

    def rank(self) -> int:
        return len(self.free_part) + self.abelian_part.rank()


@dataclass(frozen=True)
class EnrichedAutomaton:
    """A skeleton, one (lab1, lab2) per positive arc and the basepoint
    subgroup L.  The arcs' values lab2 - lab1 are kept once read
    (_differences); the list is no field, so equality and hashing ignore
    it, and a transformation or replace makes an automaton that reads
    its own."""

    ambient: Ambient
    skeleton: Automaton
    labels: tuple[ArcLabel, ...]
    base: AbelianSubgroup

    def __post_init__(self):
        if len(self.labels) != len(self.skeleton.arcs):
            raise ValueError("one label pair per positive arc required")
        if self.base.spec != self.ambient.abelian:
            raise ValueError("basepoint subgroup lives in the wrong group")

    @cached_property
    def _differences(self) -> list[Optional[Vector]]:
        """lab2 - lab1 per arc, None for zero; readers that change it copy it."""
        return _label_differences(self.labels)


def enriched_flower(ambient: Ambient, gens: Sequence[GroupElement]) -> EnrichedAutomaton:
    """Petals for generators with nonempty word; purely abelian generators
    populate the basepoint subgroup; identities are dropped."""
    zero = ambient.zero()
    arcs = []
    labels = []
    abelian_gens = []
    num = 1
    for g in gens:
        if len(g.vec) != ambient.m:
            raise ValueError("abelian part has the wrong length")
        if not g.word:
            if any(g.vec):
                abelian_gens.append(g.vec)
            continue
        here = 0
        last = len(g.word) - 1
        for i, l in enumerate(g.word):
            nxt = 0 if i == last else num
            if nxt:
                num += 1
            vec = g.vec if i == last else zero
            if l > 0:
                arcs.append((here, l, nxt))
                labels.append((zero, vec))
            else:
                # the petal crosses this positive arc backwards, reading
                # x^-1 t^(lab1 - lab2); lab1 = vec makes that x^-1 t^vec
                arcs.append((nxt, -l, here))
                labels.append((vec, zero))
            here = nxt
    return EnrichedAutomaton(
        ambient,
        Automaton(ambient.n, num, 0, tuple(arcs)),
        tuple(labels),
        AbelianSubgroup.from_generators(ambient.abelian, abelian_gens),
    )


def vertex_transformation(e: EnrichedAutomaton, v: int, c: Sequence[int]) -> EnrichedAutomaton:
    """Add c to every abelian label in the neighborhood of v."""
    if not (0 <= v < e.skeleton.num_vertices):
        raise ValueError("no such vertex")
    c = tuple(c)
    labels = []
    for (o, _, t), (lab1, lab2) in zip(e.skeleton.arcs, e.labels):
        labels.append((
            vec_add(lab1, c) if o == v else lab1,
            vec_add(lab2, c) if t == v else lab2,
        ))
    return replace(e, labels=tuple(labels))


def arc_transformation(e: EnrichedAutomaton, arc_idx: int, c: Sequence[int]) -> EnrichedAutomaton:
    """Add c to both abelian labels of one arc."""
    if not (0 <= arc_idx < len(e.labels)):
        raise ValueError("no such arc")
    c = tuple(c)
    lab1, lab2 = e.labels[arc_idx]
    labels = list(e.labels)
    labels[arc_idx] = (vec_add(lab1, c), vec_add(lab2, c))
    return replace(e, labels=tuple(labels))


def _check_fold_pair(e: EnrichedAutomaton, i: int, j: int) -> None:
    oi, ki, _ = e.skeleton.arcs[i]
    oj, kj, _ = e.skeleton.arcs[j]
    if i == j or ki != kj or oi != oj:
        raise ValueError("foldable arcs must be distinct, same letter, same origin")


def closed_fold(e: EnrichedAutomaton, i: int, j: int) -> EnrichedAutomaton:
    """Delete arc j and grow L by -lab2(i) + lab1(i) - lab1(j) + lab2(j)."""
    _check_fold_pair(e, i, j)
    if e.skeleton.arcs[i][2] != e.skeleton.arcs[j][2]:
        raise ValueError("closed fold needs parallel arcs")
    a1, b1 = e.labels[i]
    a2, b2 = e.labels[j]
    gained = vec_add(vec_sub(a1, b1), vec_sub(b2, a2))
    arcs = tuple(arc for idx, arc in enumerate(e.skeleton.arcs) if idx != j)
    labels = tuple(lab for idx, lab in enumerate(e.labels) if idx != j)
    return EnrichedAutomaton(
        e.ambient,
        replace(e.skeleton, arcs=arcs),
        labels,
        AbelianSubgroup.from_generators(
            e.ambient.abelian, e.base.lattice_basis + (gained,)
        ),
    )


def open_fold(e: EnrichedAutomaton, i: int, j: int) -> EnrichedAutomaton:
    """Match labels of arc j to arc i by an arc and a vertex transformation,
    then identify the targets and delete arc j."""
    _check_fold_pair(e, i, j)
    ti, tj = e.skeleton.arcs[i][2], e.skeleton.arcs[j][2]
    if ti == tj:
        raise ValueError("open fold needs distinct targets")
    e = arc_transformation(e, j, vec_sub(e.labels[i][0], e.labels[j][0]))
    e = vertex_transformation(e, tj, vec_sub(e.labels[i][1], e.labels[j][1]))
    assert e.labels[i] == e.labels[j]
    merged, removed = (ti, tj) if ti < tj else (tj, ti)

    def mv(v: int) -> int:
        if v == removed:
            return merged
        return v - 1 if v > removed else v

    arcs = []
    labels = []
    for idx, ((o, k, t), lab) in enumerate(zip(e.skeleton.arcs, e.labels)):
        if idx == j:
            continue
        arcs.append((mv(o), k, mv(t)))
        labels.append(lab)
    skeleton = Automaton(
        e.skeleton.n,
        e.skeleton.num_vertices - 1,
        mv(e.skeleton.basepoint),
        tuple(arcs),
    )
    return EnrichedAutomaton(e.ambient, skeleton, tuple(labels), e.base)


def _folded_core(ambient: Ambient, folding: _Folding, basepoint: int,
                 order: Optional[Sequence[int]]):
    """The canonical core of a folded graph, its spanning tree under order,
    each survivor's value (lab2 - lab1 after the vertex potentials, None
    for zero) and the closed-fold vectors.  The survivors lie between
    roots, so only the basepoint is found, and a value is the arc's vector
    plus its roots' potentials, read with no search."""
    base, resolved, kept, gained = folding.result(basepoint)
    skeleton, tree, survivors = _canonical_core(
        ambient.n, base, resolved, _step_map(ambient.n, resolved), order)
    return skeleton, tree, [folding.value(kept[i]) for i in survivors], gained


def _labelled(ambient: Ambient, skeleton: Automaton, values, base: AbelianSubgroup,
              label: Optional[Callable[[Vector], Vector]] = None,
              tree: Optional[SpanningTree] = None) -> EnrichedAutomaton:
    """The automaton labelled (0, label(v)) on each arc of value v, (0, v)
    without label, and (0, 0) where v is None.  With tree, whose
    normalization the labels are, it remembers tree as normalize does."""
    zero = ambient.zero()
    labels = tuple((zero, zero) if v is None else (zero, label(v) if label else v) for v in values)
    out = EnrichedAutomaton(ambient, skeleton, labels, base)
    if tree is not None:
        out.__dict__["_normalized_on"] = tree  # not a field: equality ignores it
    return out


def reduce(e: EnrichedAutomaton, order: Optional[Sequence[int]] = None) -> EnrichedAutomaton:
    """Fold to a deterministic core enriched automaton, canonically numbered.

    Closed folds feed the basepoint subgroup; pruned hanging arcs may carry
    labels, which is sound because no reduced basepoint walk crosses them.
    Each arc is labelled (0, value), its value read after the folding's
    vertex transformations.  This is the paper's folding of a whole
    automaton, such as a flower; stallings() reaches the same result,
    normalized, without building the flower.
    """
    folding = _Folding(e.skeleton.num_vertices, e.skeleton.arcs, list(e._differences))
    skeleton, _, values, gained = _folded_core(e.ambient, folding, e.skeleton.basepoint, order)
    base = AbelianSubgroup.from_generators(e.ambient.abelian, e.base.lattice_basis + tuple(gained))
    return _labelled(e.ambient, skeleton, values, base)


def normalize(e: EnrichedAutomaton, tree: SpanningTree) -> EnrichedAutomaton:
    """Concentrate abelian mass on the heads of non-tree arcs.

    Only each arc's value lab2 - lab1 is read.  After this, lab1 = 0
    everywhere, lab2 = 0 on tree arcs, and each non-tree lab2 is the
    canonical representative of its coset modulo L.
    The result remembers the tree object, outside its fields, so
    normalizing it on that tree again returns it as it is.
    """
    if e.__dict__.get("_normalized_on") is tree:
        return e
    return _normalized(e.ambient, e.skeleton, tree, e._differences, e.base)


def _normalized(ambient: Ambient, skeleton: Automaton, tree: SpanningTree, values,
                base: AbelianSubgroup) -> EnrichedAutomaton:
    """The automaton with these arc values (lab2 - lab1, None for zero),
    T-normalized on tree, remembering tree as normalize does."""
    values = _tree_values(skeleton, tree, values, ambient.zero())
    return _labelled(ambient, skeleton, values, base, base.reduce_mod, tree)


def _label_differences(labels: Sequence[ArcLabel]) -> list[Optional[Vector]]:
    """lab2 - lab1 for each arc label, None where it is zero; lab2 itself
    where lab1 is zero, as on every canonical automaton, so such a list
    makes no new vector."""
    diffs = (vec_sub(lab2, lab1) if any(lab1) else lab2 for lab1, lab2 in labels)
    return [diff if any(diff) else None for diff in diffs]


def _fill_potentials(phi, vertices: Iterable[int], parent, arcs: Sequence[Arc], diffs) -> None:
    """Set phi[w], zeroing w's tree-arc label, for each w of vertices in insertion
    order, from its parent's phi and diffs[arc] (lab2 - lab1, None for zero)."""
    for w in vertices:
        arc_idx, d = parent[w]
        o, _, t = arcs[arc_idx]
        diff = diffs[arc_idx]
        if d == 1:  # stored o(parent) -> t(=w)
            phi[w] = phi[o] if diff is None else vec_sub(phi[o], diff)
        else:  # stored o(=w) -> t(parent)
            phi[w] = phi[t] if diff is None else vec_add(phi[t], diff)


def _arc_value(phi, o: int, t: int, diff: Optional[Vector]) -> Vector:
    """An arc's label difference diff after the potentials: phi(t) - phi(o) + diff."""
    value = vec_sub(phi[t], phi[o])
    return value if diff is None else vec_add(diff, value)


def _tree_values(skeleton: Automaton, tree: SpanningTree, diffs, zero: Vector) -> list:
    """Each arc's value diffs[arc] (lab2 - lab1, None for zero) after the
    potentials that zero the tree arcs' values; None on tree arcs.  A
    non-tree arc's value is the sum of diffs around its petal, unreduced."""
    phi: list[Optional[Vector]] = [None] * skeleton.num_vertices
    phi[tree.root] = zero
    _fill_potentials(phi, tree.vertex_age[1:], tree.parent, skeleton.arcs, diffs)
    tree_arcs = tree.tree_arcs
    return [None if idx in tree_arcs else _arc_value(phi, o, t, diff)
            for idx, ((o, _, t), diff) in enumerate(zip(skeleton.arcs, diffs))]


def stallings(
    ambient: Ambient,
    gens: Sequence[GroupElement],
    order: Optional[Sequence[int]] = None,
) -> EnrichedAutomaton:
    """The canonical enriched Stallings automaton of <gens>.

    Value equality of outputs is equivalent to equality of the subgroups.
    Equal to normalize(reduce(enriched_flower(ambient, gens), order), tree)
    on the tree of `order`, but built without the flower: each generator
    with a nonempty word is read into the folded graph so far, which gains
    arcs only for the part that cannot be read, and folds only where they
    meet it.  Purely abelian generators populate the basepoint subgroup.
    """
    folding = _Folding(1, (), [])
    abelian_gens = []
    for g in gens:
        if len(g.vec) != ambient.m:
            raise ValueError("abelian part has the wrong length")
        if not g.word:
            if any(g.vec):
                abelian_gens.append(g.vec)
            continue
        if 0 in g.word or max(map(abs, g.word)) > ambient.n:
            bad = next(l for l in g.word if not 1 <= abs(l) <= ambient.n)
            raise ValueError(f"letter {abs(bad)} out of range")
        folding.read_word(g.word, g.vec if any(g.vec) else None)
    skeleton, tree, values, gained = _folded_core(ambient, folding, 0, order)
    base = AbelianSubgroup.from_generators(ambient.abelian, abelian_gens + gained)
    return _normalized(ambient, skeleton, tree, values, base)


def completion(e: EnrichedAutomaton, w: Sequence[int]):
    """The coset b + L of vectors a with w t^a recognized, or None.

    Returns (b, L) with b canonical modulo L; absent iff the skeleton does
    not recognize w.
    """
    walk = recognizes(e.skeleton, w)
    if walk is None:
        return None
    total, diffs = e.ambient.zero(), e._differences
    for arc_idx, d in walk:
        diff = diffs[arc_idx]
        if diff is not None:
            total = (vec_add if d == 1 else vec_sub)(total, diff)
    return e.base.reduce_mod(total), e.base


def member(e: EnrichedAutomaton, g: GroupElement) -> bool:
    """Subgroup membership of w t^a via its completion."""
    if len(g.vec) != e.ambient.m:
        raise ValueError("abelian part has the wrong length")
    result = completion(e, g.word)
    if result is None:
        return False
    b, base = result
    return base.contains(vec_sub(g.vec, b))


def basis(e: EnrichedAutomaton, tree: Optional[SpanningTree] = None) -> SubgroupBasis:
    """Enriched labels of the positive tree petals plus the basepoint subgroup.

    e is normalized on the tree it is read on (by default the tree of the
    default letter order), whatever tree its labels were normalized on;
    that costs nothing when normalize last left it on that very tree.
    The petal labels are then canonical already, so they are read as they
    are: _normalized reduces them modulo an HNF that holds the torsion
    relation rows, which leaves each torsion coordinate in [0, d_i), and
    the intersection labels its petals with canonical witnesses.
    """
    if tree is None:
        tree = spanning_tree_by_order(e.skeleton)
    e = normalize(e, tree)
    words = t_basis(e.skeleton, tree)
    free = [GroupElement(w, e.labels[i][1]) for w, i in zip(words, tree.petal_arcs)]
    return SubgroupBasis(tuple(free), e.base)


def index_report(e: EnrichedAutomaton):
    """(free index, abelian index, total), each finite or INFINITY."""
    free = e.skeleton.num_vertices if is_saturated(e.skeleton) else INFINITY
    ab = e.base.index()
    total = INFINITY if free is INFINITY or ab is INFINITY else free * ab
    return free, ab, total


def transversal_stream(e: EnrichedAutomaton) -> Iterator[GroupElement]:
    """Right-coset representatives v t^c, graded by |v| + sum|c|.

    Within a grade, smaller abelian weight first; ties follow the underlying
    Schreier and abelian streams.  Complete when the total index is finite;
    otherwise infinite, so truncate it with itertools.islice.
    """
    _, _, total = index_report(e)
    words = _by_grade(schreier_transversal(e.skeleton), len)
    vecs = _by_grade(e.base.transversal(), lambda v: sum(abs(a) for a in v))
    emitted = 0
    for level in itertools.count():
        for ab_weight in range(level + 1):
            for vec in vecs(ab_weight):
                for word in words(level - ab_weight):
                    yield GroupElement(word, vec)
                    emitted += 1
                    if emitted == total:
                        return


def _by_grade(source: Iterator, grade: Callable[..., int]) -> Callable[[int], list]:
    """The items of grade g of a stream that comes in nondecreasing grade,
    as a function of g.  Its groups by grade are read (itertools.groupby)
    and listed as far as the first group of grade g or more."""
    groups = itertools.groupby(source, grade)
    levels: list[list] = []

    def of_grade(g: int) -> list:
        for key, items in groups if len(levels) <= g else ():
            levels.extend([] for _ in range(len(levels), key))
            levels.append(list(items))
            if key >= g:
                break
        return levels[g] if g < len(levels) else []

    return of_grade


def finite_index_factor_extension(
    e: EnrichedAutomaton, order: Optional[Sequence[int]] = None
) -> EnrichedAutomaton:
    """Saturate the skeleton with zero-labelled arcs and complete L to finite
    index; the input subgroup is a factor of the finite-index result."""
    skeleton = e.skeleton
    arcs = list(skeleton.arcs)
    values = list(e._differences)
    for k in range(1, e.ambient.n + 1):
        have_out = {o for o, kk, _ in arcs if kk == k}
        have_in = {t for _, kk, t in arcs if kk == k}
        missing_out = sorted(set(range(skeleton.num_vertices)) - have_out)
        missing_in = sorted(set(range(skeleton.num_vertices)) - have_in)
        for o, t in zip(missing_out, missing_in):
            arcs.append((o, k, t))
            values.append(None)
    # re-canonicalize: the new arcs change the spanning tree
    skeleton, tree, arc_map = canonical_renumber(replace(skeleton, arcs=tuple(arcs)), order)
    return _normalized(e.ambient, skeleton, tree, [values[x] for x in arc_map],
                       e.base.finite_index_completion())


def completion_table(e: EnrichedAutomaton, max_len: int) -> dict[Word, Vector]:
    """Completions of every recognized word of length <= max_len.

    Depth-first over reduced basepoint walks; used by oracle-style tests and
    kept here because it only relies on automaton internals.
    """
    out: dict[Word, Vector] = {}
    skeleton, diffs = e.skeleton, e._differences

    def rec(v: int, word: tuple[int, ...], acc: Vector, last: int):
        if v == skeleton.basepoint:
            out[word] = e.base.reduce_mod(acc)
        if len(word) == max_len:
            return
        for s in default_order(skeleton.n):
            if last and s == -last:
                continue
            nxt = skeleton.step(v, s)
            if nxt is None:
                continue
            w, arc_idx, d = nxt
            diff = diffs[arc_idx]
            here = acc if diff is None else (vec_add if d == 1 else vec_sub)(acc, diff)
            rec(w, word + (s,), here, s)

    rec(skeleton.basepoint, (), e.ambient.zero(), 0)
    return out


def to_dot(e: EnrichedAutomaton, name: str = "enriched") -> str:
    """DOT rendering with arc labels [lab1|x_k|lab2] and L at the basepoint."""
    base_rows = ",".join(str(list(r)) for r in e.base.lattice_basis) or "0"
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  node [shape=circle, label=\"\"];",
        f"  v{e.skeleton.basepoint} [shape=doublecircle, xlabel=\"L=<{base_rows}>\"];",
    ]
    for v in range(e.skeleton.num_vertices):
        if v != e.skeleton.basepoint:
            lines.append(f"  v{v};")
    for (o, k, t), (lab1, lab2) in zip(e.skeleton.arcs, e.labels):
        l1 = ",".join(map(str, lab1))
        l2 = ",".join(map(str, lab2))
        lines.append(f"  v{o} -> v{t} [label=\"({l1})|x{k}|({l2})\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
