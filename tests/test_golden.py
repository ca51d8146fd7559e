"""Golden digest of canonical outputs: one sha256 per function family.

Seeded pairs of subgroups over five ambients, half of them under permuted
letter orders, go through every public construction.  Each output is
written as nested tuples of ints, strings, booleans and None (no frozenset,
dataclass or float repr), so renaming a field or changing set iteration
leaves a hash alone, while any change in a label, a vertex number or an arc
order changes it.  The labels that reduce and doubly_reduce return are not
canonical and are left out.  A hash may change only with a deliberate
change of canonical output.

The corpus holds finite-index "coset" pairs, whose difference matrices D
have many rows and many repeated and zero ones, next to small random
pairs; TestCorpus checks that it does.  The abelian family runs the lattice
layer on its own seeded inputs: tall and wide generator lists and D with up
to 40 rows.  Its kernel and solve_left answers are not canonical and are
checked by property in test_abelian instead.  The stream family runs
seeded not finitely generated pairs (lines, a diagonal, a Schreier family
of index 3, planes, rank 3, and torsion that wraps the ball around) for up
to 24 stages each, and reads every stage automaton only once the stream has
moved past it.  The member family runs the read path (completion, member,
completion_table, word_coordinates, is_saturated) on the corpus's automata
and on deterministic ones that are not canonical, some with lab1 != 0.
"""

import hashlib
import itertools
import random
from functools import lru_cache

import pytest

from stallings_fta.abelian import (
    INFINITY,
    AbelianSpec,
    AbelianSubgroup,
    CosetIntersection,
    hnf,
    image_invariants,
    preimage_under_matrix,
)
from stallings_fta.enriched import (
    Ambient,
    arc_transformation,
    basis,
    completion,
    completion_table,
    enriched_flower,
    index_report,
    member,
    reduce,
    stallings,
    transversal_stream,
    vertex_transformation,
)
from stallings_fta.intersection import (
    VERDICT_FG,
    _CayleyBall,
    cayley_multidigraph,
    intersect_fg,
    intersection_matrices,
)
from stallings_fta.words import (
    free_reduce,
    is_saturated,
    multiply,
    spanning_tree_by_order,
    word_coordinates,
)

AMBIENTS = {
    "F2xZ": Ambient(2, AbelianSpec(1)),
    "F3xZ2": Ambient(3, AbelianSpec(2)),
    "F2x(Z+Z6)": Ambient(2, AbelianSpec(1, (6,))),
    "F2x(Z2+Z4)": Ambient(2, AbelianSpec(0, (2, 4))),
    "F2": Ambient(2, AbelianSpec(0)),
}
PAIRS_PER_AMBIENT = 24
SMALL_R = 6  # M, its Smith form, A_i, B_i and the CLI's Cayley graph only up to this r
STAGES = 4

GOLDEN = {
    "stallings": "2db1b761f237d05a85aae7d4ce0c63e21b478bfc567ef4f139d0180a66cc8ee4",
    "basis": "2c146aa981fe7797ab5b7f700a9f718d923a506dd30872ba5d0c84d429b4077f",
    "index": "b7fd61d915e5f97ea0d29c8c5a95cccd34960c83e08ccdb225784b0b49b9a3a8",
    "matrices": "8e21581d671c4b73e2b66d745fb9682b445e9dba4425435c091a071ba59862c1",
    "matrices_small_r": "cfdcdf923857f124d4c0d67a070f9183e0b92d512e1ab3893677aa740c95c627",
    "intersect_fg": "279e1245fdf549c927ad33131b189c5e55ea0a970af92ab5bef4fd50dc123283",
    "cayley": "05ecc7e8e68b39589476ebbbd4a07f5ec255ded9caafe7f9eb478e0a3450cf46",
    "stages": "887ecc3f48dee514a87194f804b6aae628d49e2b9f255daca94d7fb4d8580601",
    "abelian": "bb8ea73bc35f879535b7610b7579186c241eb26aa1085ec1534a2a1c69ad4fa5",
    "stream": "aa9df876da0a4a05a73d3d762b988bf8abc5348313f75cf6badbfc4f6e9504cb",
    "member": "6ba77ac0d15c60fdddad832bc1cd59aeafaf56c77552adf1f8c11e400c8a0c0d",
}
LATTICE_SPECS = {
    "Z": AbelianSpec(1),
    "Z^2": AbelianSpec(2),
    "Z^3": AbelianSpec(3),
    "Z+Z6": AbelianSpec(1, (6,)),
    "Z2+Z4": AbelianSpec(0, (2, 4)),
}
LATTICE_CASES = 24
MAX_D_ROWS = 40
# name -> (ambient, index of S in F_n, the image of each letter before the
# seeded signs and, with index 1, the seeded shuffle of the letters)
STREAM_SHAPES = {
    "line": (AMBIENTS["F2xZ"], 1, ((1,), (0,))),
    "diagonal": (AMBIENTS["F2xZ"], 1, ((1,), (1,))),
    "schreier": (AMBIENTS["F2xZ"], 3, ((0,), (1,))),
    "plane": (Ambient(2, AbelianSpec(2)), 1, ((1, 0), (0, 1))),
    "plane-index-2": (Ambient(2, AbelianSpec(2)), 2, ((1, 0), (0, 1))),
    "rank3-line": (Ambient(3, AbelianSpec(1)), 1, ((1,), (0,), (0,))),
    "rank3-plane": (AMBIENTS["F3xZ2"], 1, ((1, 0), (0, 1), (0, 0))),
    "torsion-ball": (AMBIENTS["F2x(Z+Z6)"], 2, ((0, 2), (0, 1))),
    "torsion-cylinder": (AMBIENTS["F2x(Z+Z6)"], 1, ((1, 0), (0, 1))),
}
STREAM_PAIRS = 2  # per shape
STREAM_STAGES = 24
MEMBER_FLOWERS = 4  # per ambient
MEMBER_WORDS = 10  # per automaton
MEMBER_TABLE_LEN = 4


def _vec(rng, ambient, bound=2):
    return tuple(rng.randint(-bound, bound) for _ in range(ambient.m))


def _random_gens(rng, ambient):
    """A few short random generators, sometimes one purely abelian."""
    letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
    gens = [ambient.element([rng.choice(letters) for _ in range(rng.randint(0, 4))],
                            _vec(rng, ambient))
            for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.4:
        gens.append(ambient.element((), _vec(rng, ambient)))
    return gens


def _coset_gens(rng, ambient, size, phi):
    """Schreier generators x1^i x_k x1^-j of a subgroup of index size, x1
    acting as a size-cycle, each with its image under the map phi on the
    letters; then t^(2, ..., 2) half the time."""
    acts = [[(i + 1) % size for i in range(size)]]
    acts += [rng.sample(range(size), size) for _ in range(ambient.n - 1)]
    gens = []
    for i in range(size):
        for k, act in enumerate(acts, 1):
            j = act[i]
            word = free_reduce([1] * i + [k] + [-1] * j)
            if word:
                vec = tuple(i * a + b - j * a for a, b in zip(phi[0], phi[k - 1]))
                gens.append(ambient.element(word, vec))
    if rng.random() < 0.5:
        gens.append(ambient.element((), (2,) * ambient.m))
    return gens


def _pair(rng, ambient, i):
    """Coset pairs for i % 5 in (0, 1), sharing the map phi when i % 5 == 0;
    pairs on one list of words with other vectors for i % 5 == 2; else random."""
    kind = i % 5
    if kind < 2:
        def letter_map():
            return [_vec(rng, ambient, 1) for _ in range(ambient.n)]

        phi = letter_map()
        return [_coset_gens(rng, ambient, rng.randint(2, 3), phi if kind == 0 else letter_map())
                for _ in range(2)]
    if kind == 2:
        words = [_random_gens(rng, ambient)[0].word or (1,) for _ in range(rng.randint(2, 3))]
        return [[ambient.element(w, _vec(rng, ambient)) for w in words] for _ in range(2)]
    return [_random_gens(rng, ambient) for _ in range(2)]


@lru_cache(maxsize=None)
def corpus():
    """(ambient name, order, e1, e2, report) for every seeded pair."""
    out = []
    for name, ambient in AMBIENTS.items():
        rng = random.Random(f"golden:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        for i in range(PAIRS_PER_AMBIENT):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1, e2 = (stallings(ambient, gens, order) for gens in _pair(rng, ambient, i))
            out.append((name, order, e1, e2, intersection_matrices(e1, e2, order)))
    return tuple(out)


def _stream_gens(rng, ambient, index, images):
    """H1 = <s t^phi(s)> and H2 = <s> over the Schreier generators s of a
    subgroup S of F_n of the given index (x1 acting as a cycle), phi
    sending each letter to a seeded sign times its image; where phi is
    nonzero on S, H1 & H2 is the kernel of phi on S, not finitely
    generated unless the image of phi is finite."""
    images = list(images)
    if index == 1:
        rng.shuffle(images)
    phi = [tuple(rng.choice((-1, 1)) * x for x in image) for image in images]
    acts = [[(i + 1) % index for i in range(index)]]
    acts += [rng.sample(range(index), index) for _ in range(ambient.n - 1)]
    h1, h2 = [], []
    for i in range(index):
        for k, act in enumerate(acts, 1):
            j = act[i]
            word = free_reduce([1] * i + [k] + [-1] * j)
            if word:
                vec = tuple(i * a + b - j * a for a, b in zip(phi[0], phi[k - 1]))
                h1.append(ambient.element(word, vec))
                h2.append(ambient.element(word))
    return h1, h2


@lru_cache(maxsize=None)
def stream_corpus():
    """(shape name, report) for every seeded stream pair; odd pairs are
    under a permuted letter order."""
    out = []
    for name, (ambient, index, images) in STREAM_SHAPES.items():
        rng = random.Random(f"golden:stream:{name}")
        letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
        for i in range(STREAM_PAIRS):
            order = None if i % 2 == 0 else tuple(rng.sample(letters, len(letters)))
            e1, e2 = (stallings(ambient, gens, order)
                      for gens in _stream_gens(rng, ambient, index, images))
            out.append((name, intersection_matrices(e1, e2, order)))
    return tuple(out)


def _stream(rep):
    """Up to STREAM_STAGES stages: radius, new elements and completeness as
    each stage comes, then every stage automaton, read after the stream
    has moved past it."""
    stages = list(itertools.islice(rep.stages(), STREAM_STAGES))
    return (tuple((s.radius, _elements(s.new_elements), s.complete) for s in stages),
            tuple(_enriched(s.automaton) for s in stages))


@lru_cache(maxsize=None)
def member_corpus():
    """Automata for the read path: every stallings output of the corpus;
    per ambient, seeded reduced flowers, each with a vertex and an arc
    transformation of it (so lab1 != 0); and from every fourth corpus pair
    its intersect_fg result or its stage automaton of radius 2."""
    out = [e for _, _, e1, e2, _ in corpus() for e in (e1, e2)]
    for name, ambient in AMBIENTS.items():
        rng = random.Random(f"golden:member:{name}")
        for _ in range(MEMBER_FLOWERS):
            e = reduce(enriched_flower(ambient, _random_gens(rng, ambient)))
            moved = vertex_transformation(e, rng.randrange(e.skeleton.num_vertices),
                                          _vec(rng, ambient))
            out += [e, moved]
            if e.labels:
                out.append(arc_transformation(moved, rng.randrange(len(e.labels)),
                                              _vec(rng, ambient)))
    for _, order, e1, e2, rep in corpus()[::4]:
        if rep.verdict == VERDICT_FG:
            out.append(intersect_fg(e1, e2, order, rep))
        else:
            *_, stage = itertools.islice(rep.stages(), 3)
            out.append(stage.automaton)
    return tuple(out)


def _member(e, rng):
    """The read path on one automaton: saturation, the completion table,
    and for seeded words (products of recognized ones, and random ones)
    the completion, the petal coordinates, and membership of w t^a on the
    completion's coset and at a random a."""
    ambient = e.ambient
    table = completion_table(e, MEMBER_TABLE_LEN)
    recognized = sorted(table)
    tree = spanning_tree_by_order(e.skeleton)
    letters = [k for k in range(-ambient.n, ambient.n + 1) if k]
    reads = []
    for _ in range(MEMBER_WORDS):
        if rng.random() < 0.6:
            word = ()
            for _ in range(rng.randint(1, 3)):
                word = multiply(word, rng.choice(recognized))
        else:
            word = free_reduce([rng.choice(letters) for _ in range(rng.randint(0, 6))])
        result = completion(e, word)
        off = member(e, ambient.element(word, _vec(rng, ambient, 3)))
        if result is None:
            reads.append((word, None, off))
            continue
        b, base = result
        on = b
        for row in base.lattice_basis:
            on = tuple(x + rng.randint(-2, 2) * y for x, y in zip(on, row))
        reads.append((word, b, base.lattice_basis, word_coordinates(e.skeleton, tree, word),
                      member(e, ambient.element(word, on)), off))
    return (_enriched(e), is_saturated(e.skeleton), tuple(sorted(table.items())),
            tuple(reads))


def _count(x):
    return "inf" if x == INFINITY else x


def _automaton(a):
    return a.n, a.num_vertices, a.basepoint, a.arcs


def _enriched(e):
    return _automaton(e.skeleton), e.labels, e.base.lattice_basis


def _elements(gs):
    return tuple((g.word, g.vec) for g in gs)


def _basis(b):
    return _elements(b.free_part), b.abelian_part.lattice_basis


def _tree(t):
    return t.root, t.parent, tuple(sorted(t.tree_arcs)), t.vertex_age, t.petal_arcs


def _square_cayley_inputs():
    """Seeded deltas and square generator rows with repeated and zero rows,
    torsion and free coordinates mixed."""
    rng = random.Random("golden:cayley")
    for _ in range(12):
        r = rng.randint(1, 6)
        deltas = sorted(rng.choice((0, 1, 2, 3, 4, 6)) for _ in range(r))
        pool = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 3))]
        rows = [rng.choice(pool) if rng.random() < 0.7 else (0,) * r for _ in range(r)]
        yield deltas, rows, None if all(deltas) else 2


def _lattice_inputs():
    """Seeded (spec, gens1, gens2, D, cosets): generator lists tall (more
    rows than m) or wide (fewer), D of 0 to 40 rows drawn from a pool with
    a zero row and rows of L1, and coset pairs (a, b) half of which meet."""
    for name, spec in LATTICE_SPECS.items():
        rng = random.Random(f"golden:abelian:{name}")
        m = spec.m
        for i in range(LATTICE_CASES):
            bound = (2, 5, 30)[i % 3]

            def rows(count):
                return [tuple(rng.randint(-bound, bound) for _ in range(m)) for _ in range(count)]

            gens1 = rows(rng.randint(0, m - 1) if i % 2 else rng.randint(m + 1, m + 4))
            gens2 = rows(rng.randint(0, m + 2))
            pool = rows(rng.randint(1, 3)) + [(0,) * m] + gens1[:1]
            r = rng.randint(0, 6) if i % 4 else rng.randint(10, MAX_D_ROWS)
            d_rows = [rng.choice(pool) for _ in range(r)]
            cosets = []
            for k in range(4):
                a = rows(1)[0]
                b = rows(1)[0]
                if k % 2:  # b - a in L1 + L2
                    b = a
                    for g in gens1 + gens2:
                        b = tuple(x + rng.randint(-2, 2) * y for x, y in zip(b, g))
                cosets.append((a, b))
            yield spec, gens1, gens2, d_rows, cosets


def _lattice(spec, gens1, gens2, d_rows, cosets):
    """The canonical outputs of the lattice layer on one input."""
    m = spec.m
    l1, l2 = (AbelianSubgroup.from_generators(spec, gens) for gens in (gens1, gens2))
    both = CosetIntersection(l1, l2)
    subgroups = (l1, l2, l1.sum(l2), l1.intersect(l2))
    columns = tuple(zip(*d_rows)) if d_rows else ()
    return (
        hnf(gens1, m), hnf(d_rows, m), hnf(columns, len(d_rows)),
        tuple((s.lattice_basis, _count(s.index()), s.rank(),
               s.finite_index_completion().lattice_basis) for s in subgroups),
        both.base.lattice_basis, tuple(both.witness(a, b) for a, b in cosets),
        preimage_under_matrix(l1, d_rows).lattice_basis,
        preimage_under_matrix(subgroups[2], d_rows).lattice_basis,
        image_invariants(l1, d_rows), image_invariants(subgroups[2], d_rows),
    )


def family(name):
    """The canonical outputs of one family over the whole corpus."""
    out = []
    if name == "abelian":
        return [_lattice(*case) for case in _lattice_inputs()]
    if name == "stream":
        return [_stream(rep) for _, rep in stream_corpus()]
    if name == "member":
        rng = random.Random("golden:member:reads")
        return [_member(e, rng) for e in member_corpus()]
    if name == "cayley":
        for deltas, rows, radius in _square_cayley_inputs():
            aut, elems = cayley_multidigraph(deltas, rows, radius)
            out.append((_automaton(aut), elems))
    for _, order, e1, e2, rep in corpus():
        if name == "stallings":
            out.append((_enriched(e1), _enriched(e2)))
        elif name == "basis":
            out.extend((_basis(basis(e)),
                        _basis(basis(e, spanning_tree_by_order(e.skeleton, order))))
                       for e in (e1, e2))
        elif name == "index":
            out.extend((tuple(map(_count, index_report(e))),
                        _elements(itertools.islice(transversal_stream(e), 6))) for e in (e1, e2))
        elif name == "matrices":
            prod = rep.prod
            out.append((
                rep.order, rep.r, rep.s, rep.D, rep.deltas, rep.generators,
                rep.base.lattice_basis, rep.verdict, rep.pi_trivial,
                _count(rep.free_rank), _count(rep.total_rank), rep.words,
                _automaton(prod.skeleton), prod.labels1, prod.labels2,
                prod.base1.lattice_basis, prod.base2.lattice_basis, _tree(rep.tree)))
        elif name == "matrices_small_r" and rep.r <= SMALL_R:
            dec = rep.snf
            out.append((rep.M.lattice_basis, dec.deltas, dec.P, dec.Q, dec.S,
                        rep.A1, rep.A2, rep.B1, rep.B2))
        elif name == "intersect_fg" and rep.verdict == VERDICT_FG:
            fg = intersect_fg(e1, e2, order, rep)
            out.append((_enriched(fg), _basis(basis(fg))))
        elif name == "cayley" and 0 < rep.r <= SMALL_R:
            radius = None if all(rep.deltas) else 2  # as the CLI's cayley with --max-radius 2
            aut, elems = cayley_multidigraph(rep.deltas, rep.snf.Q, radius)
            out.append((_automaton(aut), elems))
        elif name == "stages":
            out.append(tuple(
                (stage.radius, _elements(stage.new_elements), stage.complete,
                 _enriched(stage.automaton))
                for stage in itertools.islice(rep.stages(), STAGES)))
    return out


def digest(name):
    return hashlib.sha256(repr(family(name)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digest(name):
    assert digest(name) == GOLDEN[name]


class TestCorpus:
    """The digest sees what the per-row and per-class code paths branch on."""

    def test_difference_matrices_repeat_and_vanish(self):
        reports = [rep for *_, rep in corpus()]
        assert sum(len(set(rep.D)) < rep.r for rep in reports) >= 10
        assert sum(any(not any(row) for row in rep.D) for rep in reports) >= 10
        assert max(rep.r for rep in reports) >= 10

    def test_both_verdicts_under_both_orders(self):
        seen = {(rep.verdict, order is None) for _, order, _, _, rep in corpus()}
        assert len(seen) == 4

    def test_cayley_rows_repeat_and_vanish(self):
        inputs = list(_square_cayley_inputs())
        assert any(len(set(rows)) < len(rows) for _, rows, _ in inputs)
        assert any(not any(row) for _, rows, _ in inputs for row in rows)
        assert any(radius is not None for *_, radius in inputs)
        assert any(radius is None for *_, radius in inputs)

    def test_lattice_shapes(self):
        inputs = list(_lattice_inputs())
        assert {spec for spec, *_ in inputs} == set(LATTICE_SPECS.values())
        assert sum(len(g) > spec.m for spec, g, *_ in inputs) >= 20  # tall
        assert sum(len(g) < spec.m for spec, g, *_ in inputs if spec.m > 1) >= 10  # wide
        d_rows = [d for *_, d, _ in inputs]
        assert max(map(len, d_rows)) >= 30
        assert sum(len(set(d)) < len(d) for d in d_rows) >= 20
        assert sum(any(not any(row) for row in d) for d in d_rows) >= 20
        assert any(not d for d in d_rows)
        witnesses = [w for case in inputs for w in _lattice(*case)[5]]
        assert witnesses.count(None) >= 20 and len(witnesses) - witnesses.count(None) >= 20

    def test_stream_spheres_rows_and_wraps(self):
        """Spheres of 3 or more blocks, zero and repeated generator rows,
        finite balls and torsion that wraps an infinite ball around."""
        wide = zero = repeated = finite = cylinder = 0
        for _, rep in stream_corpus():
            ball = _CayleyBall([d for d in rep.deltas if d != 1], rep.generators)
            spheres = []
            while ball.sphere and len(spheres) < STREAM_STAGES:
                spheres.append(len(ball.sphere))
                ball.grow()
            assert len(spheres) == STREAM_STAGES or not ball.sphere
            wide += max(spheres) >= 3
            zero += any(not any(row) for row in rep.generators)
            repeated += len(set(rep.generators)) < len(rep.generators)
            torsion = any(d > 1 for d in rep.deltas)
            finite += torsion and not ball.sphere
            cylinder += torsion and bool(ball.sphere)
        assert min(wide, zero, repeated, finite, cylinder) >= 2

    def test_member_reads(self):
        """The member family reads automata with lab1 != 0 and with torsion,
        words off the automaton, and both membership answers."""
        automata = member_corpus()
        assert sum(any(any(lab1) for lab1, _ in e.labels) for e in automata) >= 20
        assert sum(bool(e.ambient.abelian.torsion) for e in automata) >= 40
        reads = [read for out in family("member") for read in out[3]]
        assert sum(read[1] is None for read in reads) >= 100
        answers = [answer for read in reads if read[1] is not None for answer in read[4:]]
        assert min(answers.count(True), answers.count(False)) >= 100
