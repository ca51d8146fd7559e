"""The four workloads: seeded inputs, one op each, and by-construction checks.

Each workload's ``setup(seed)`` builds the items of one pass (inputs plus
everything the op needs beforehand): a fixed schedule of sizes, with
``copies`` fresh seeded instances of each, in seeded order, so every seed
measures the same size mix over different inputs.  ``op(item)`` calls the
library's public API and returns (answer, seconds of the first step, seconds of the last
step); ``check(item, answer)`` raises ``CheckFailed`` unless the answer
agrees with what the generator knows by construction.  Library functions
are looked up on the package at call time, so the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter as clock

import stallings_fta as sf

import family


class CheckFailed(AssertionError):
    """An answer disagrees with the generator's by-construction value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _elements(ambient, gens):
    return [ambient.element(w, v) for w, v in gens]


# build ----------------------------------------------------------------------

def _nonzero(rng: random.Random) -> int:
    """A tail value in +-{1, 2, 3}; a zero tail would skip label work in folding."""
    return rng.choice((-3, -2, -1, 1, 2, 3))


@dataclass(frozen=True)
class BuildItem:
    fam: family.Family
    plain: tuple  # the Schreier basis with tails, and t^K
    redundant: tuple  # shuffled, with products, inverses and t^K shifts


class Build:
    """One op folds both presentations of one subgroup with stallings().

    The first step takes the Schreier basis; the last step takes the
    shuffled presentation with products, inverses and t^K-shifted copies
    added, whose closed folds the first does not need.  A pass has
    `copies` fresh subgroups per size; one op per subgroup keeps the latencies
    spread smoothly over the sizes, so the median falls among neighbours.
    """

    name = "build"
    steps = ("stallings, Schreier basis", "stallings, redundant presentation")
    copies = 8

    def __init__(self, sizes=tuple(range(16, 23))):
        self.sizes = sizes
        self.ambient = sf.Ambient(2, sf.AbelianSpec(1))

    def setup(self, seed: int) -> list[BuildItem]:
        rng = random.Random(f"build:{seed}")
        items = []
        for N in self.sizes * self.copies:
            fam = family.finite_index(rng, 2, N, [(_nonzero(rng),), (_nonzero(rng),)],
                                      rng.randint(2, 12))
            redundant = family.redundant_presentation(rng, fam, N * N // 2)
            items.append(BuildItem(fam, tuple(_elements(self.ambient, fam.generators())),
                                   tuple(_elements(self.ambient, redundant))))
        rng.shuffle(items)
        return items

    def op(self, item: BuildItem):
        t0 = clock()
        e = sf.stallings(self.ambient, item.plain)
        t1 = clock()
        e_redundant = sf.stallings(self.ambient, item.redundant)
        t2 = clock()
        return (e, e_redundant), t1 - t0, t2 - t1

    def check(self, item: BuildItem, answer) -> None:
        e, e_redundant = answer
        fam = item.fam
        expect(e == e_redundant, "the two presentations give different automata")
        expect(sf.index_report(e) == (fam.N, fam.K, fam.N * fam.K),
               f"index {sf.index_report(e)} != {(fam.N, fam.K, fam.N * fam.K)}")
        b = sf.basis(e)
        expect(b.rank() == fam.N + 2, f"basis rank {b.rank()} != {fam.N + 2}")
        expect(b.abelian_part.lattice_basis == ((fam.K,),), "abelian part is not <K>")
        for g in b.free_part:
            expect(fam.contains(g.word, g.vec), f"basis element {g} not in H")


# member ---------------------------------------------------------------------

@dataclass(frozen=True)
class MemberItem:
    automaton: object
    text: str
    expected: bool


class Member:
    """One op is parse_element() of a query string, then member().

    Setup folds the subgroups, so ops only read the finished automata.  The
    queries are thirds: members, right word with a vector off phi(w) + KZ,
    and words outside S.
    """

    name = "member"
    steps = ("parse_element", "member")

    def __init__(self, sizes=(24, 32), queries=3000, lengths=(20, 240)):
        self.sizes = sizes
        self.queries = queries
        self.lengths = lengths
        self.ambient = sf.Ambient(2, sf.AbelianSpec(1))

    def setup(self, seed: int) -> list[MemberItem]:
        rng = random.Random(f"member:{seed}")
        subgroups = []
        for N in self.sizes:
            fam = family.finite_index(rng, 2, N, [(_nonzero(rng),), (_nonzero(rng),)],
                                      rng.randint(3, 12))
            e = sf.stallings(self.ambient, _elements(self.ambient, fam.generators()))
            subgroups.append((fam, e))
        kinds = [q % 3 for q in range(self.queries)]
        rng.shuffle(kinds)
        lo, hi = self.lengths
        items = []
        for q, kind in enumerate(kinds):
            fam, e = subgroups[q % len(subgroups)]
            length = lo + (hi - lo) * q // (self.queries - 1)  # evenly spread: a fixed size mix
            word, vec, expected = family.member_query(rng, fam, kind, length)
            items.append(MemberItem(e, family.format_query(word, vec), expected))
        rng.shuffle(items)
        return items

    def op(self, item: MemberItem):
        t0 = clock()
        g = sf.parse_element(item.text, self.ambient)
        t1 = clock()
        ok = sf.member(item.automaton, g)
        t2 = clock()
        return ok, t1 - t0, t2 - t1

    def check(self, item: MemberItem, answer) -> None:
        expect(answer == item.expected, f"member({item.text[:40]}...) = {answer}")


# intersect-fg -----------------------------------------------------------------

@dataclass(frozen=True)
class FgItem:
    f1: family.Family
    f2: family.Family
    e1: object
    e2: object
    rank: int


class IntersectFg:
    """One op is the verdict (intersection_matrices), then intersect_fg + basis.

    (N1, N2, K) runs over a fixed schedule; N1, N2 coprime and the seeded
    phi1, phi2 chosen so the intersection rank N1*N2*K + 1 is the same for
    every seed.
    """

    name = "intersect-fg"
    steps = ("intersection_matrices", "intersect_fg + basis")
    copies = 3

    def __init__(self, schedule=((7, 8, 2), (7, 8, 4), (7, 9, 2), (7, 9, 4), (6, 11, 4),
                                 (7, 10, 3), (8, 9, 2), (8, 9, 4), (8, 11, 2), (9, 10, 2),
                                 (9, 10, 4), (8, 9, 8))):
        self.schedule = schedule
        self.ambient = sf.Ambient(2, sf.AbelianSpec(1))

    def setup(self, seed: int) -> list[FgItem]:
        rng = random.Random(f"intersect-fg:{seed}")
        items = []
        for n1, n2, K in self.schedule * self.copies:
            f1, f2 = family.fg_pair(rng, n1, n2, K)
            e1, e2 = (sf.stallings(self.ambient, _elements(self.ambient, f.generators()))
                      for f in (f1, f2))
            items.append(FgItem(f1, f2, e1, e2, family.intersection_free_rank(f1, f2)))
        rng.shuffle(items)
        return items

    def op(self, item: FgItem):
        t0 = clock()
        report = sf.intersection_matrices(item.e1, item.e2)
        t1 = clock()
        x = sf.intersect_fg(item.e1, item.e2, report=report)
        b = sf.basis(x)
        t2 = clock()
        return (report, x, b), t1 - t0, t2 - t1

    def check(self, item: FgItem, answer) -> None:
        report, _, b = answer
        expect(report.verdict == sf.VERDICT_FG, f"verdict {report.verdict}")
        expect(report.free_rank == item.rank, f"free rank {report.free_rank} != {item.rank}")
        expect(len(b.free_part) == item.rank, f"basis has {len(b.free_part)} != {item.rank}")
        expect(b.abelian_part.lattice_basis == ((item.f1.K,),), "abelian part is not <K>")
        for g in b.free_part:
            expect(item.f1.contains(g.word, g.vec) and item.f2.contains(g.word, g.vec),
                   f"basis element {g} not in both subgroups")


# intersect-stream -------------------------------------------------------------

def _spread(lo: int, hi: int, count: int = 7) -> tuple[int, ...]:
    """`count` radii spread evenly from lo to hi.

    Items of one shape and radius cost nearly the same for every seed, so
    spread radii keep the op times a continuum rather than a few lumps, and
    a median over items does not jump from lump to lump.
    """
    return tuple(lo + (hi - lo) * j // (count - 1) for j in range(count))


STREAM_SHAPES = (
    family.StreamShape("moldavanski", n=2, m=1, coords=(0,), index=1, radii=_spread(64, 128)),
    family.StreamShape("diagonal", n=2, m=1, coords=(0, 0), index=1, radii=_spread(48, 96)),
    family.StreamShape("schreier", n=2, m=1, coords=(0,), index=3, radii=_spread(32, 64)),
    family.StreamShape("plane", n=2, m=2, coords=(0, 1), index=1, radii=_spread(12, 16)),
    family.StreamShape("rank3-line", n=3, m=1, coords=(0,), index=1, radii=_spread(20, 40)),
    family.StreamShape("rank3-plane", n=3, m=2, coords=(0, 1), index=1, radii=_spread(12, 20)),
)


@dataclass(frozen=True)
class StreamItem:
    fam: family.Family
    h1: object
    h2: object
    radius: int
    probes: tuple  # (element, whether stage `radius` must recognize it)


def _stream_probes(rng: random.Random, fam: family.Family, ambient, radius: int, count: int = 4):
    """Elements whose membership in stage `radius` is known by construction.

    A commutator [u, v] of products of Schreier words lies in S with phi = 0,
    so with the zero vector it is in H1 & H2; with |u| + |v| <= radius its
    free length is at most 2 * radius, and stage `radius` recognizes it.  The
    same word with a nonzero vector is outside H2, and a Schreier word with
    phi != 0 and the zero vector is outside H1.
    """
    basis = fam.schreier_basis()
    inverse = family.inverse

    def product(limit):
        word = ()
        while True:
            s = rng.choice(basis)
            nxt = family.reduce_word(word + (s if rng.random() < 0.5 else inverse(s)))
            if len(nxt) > limit:
                return word
            word = nxt

    zero, unit = (0,) * fam.m, (1,) + (0,) * (fam.m - 1)
    probes = []
    for _ in range(50 * count):  # bounded: at small radii few commutators are nontrivial
        if len(probes) == 2 * count:
            break
        u, v = product(radius // 2), product(radius - radius // 2)
        c = family.reduce_word(u + v + inverse(u) + inverse(v))
        if c:
            probes += [(ambient.element(c, zero), True), (ambient.element(c, unit), False)]
    probes += [(ambient.element(s, zero), False) for s in basis if any(fam.phi_of(s))][:count]
    return tuple(probes)


class IntersectStream:
    """One op runs intersect_stages to radius R; the last step is stage R.

    H1 = <s t^phi(s)> over a free basis s of S (S = F_n or finite index),
    H2 = S x 0, so H1 & H2 = (ker phi & S) x 0 is not finitely generated.
    A pass has a fresh seeded instance of every shape at each of its radii.
    """

    name = "intersect-stream"
    steps = ("intersect_stages + stages 0..R-1", "stage R")

    def __init__(self, shapes=STREAM_SHAPES):
        self.shapes = shapes

    def setup(self, seed: int) -> list[StreamItem]:
        rng = random.Random(f"intersect-stream:{seed}")
        items = []
        for shape in self.shapes:
            ambient = sf.Ambient(shape.n, sf.AbelianSpec(shape.m))
            for radius in shape.radii:
                fam = family.stream_family(rng, shape)
                words = fam.schreier_basis()
                h1 = sf.stallings(ambient, [ambient.element(w, fam.phi_of(w)) for w in words])
                h2 = sf.stallings(ambient, [ambient.element(w) for w in words])
                items.append(StreamItem(fam, h1, h2, radius,
                                        _stream_probes(rng, fam, ambient, radius)))
        rng.shuffle(items)
        return items

    def op(self, item: StreamItem):
        t0 = clock()
        report, stages = sf.intersect_stages(item.h1, item.h2, max_radius=item.radius)
        seen = [next(stages) for _ in range(item.radius)]
        t1 = clock()
        seen.append(next(stages))
        t2 = clock()
        summary = tuple((s.radius, s.new_elements, s.complete) for s in seen)
        return (report, summary, seen[-1].automaton), t1 - t0, t2 - t1

    def check(self, item: StreamItem, answer) -> None:
        report, summary, last = answer
        fam = item.fam
        expect(report.verdict == sf.VERDICT_NOT_FG, f"verdict {report.verdict}")
        expect([r for r, _, _ in summary] == list(range(item.radius + 1)), "stage radii")
        elements = [g for _, new, _ in summary for g in new]
        expect(elements, "no intersection elements enumerated")
        expect(len(set(elements)) == len(elements), "repeated basis element")
        for g in elements:
            expect(not any(g.vec), f"{g} has a nonzero vector")
            expect(not any(fam.phi_of(g.word)), f"phi({g}) != 0")
            expect(fam.in_free_part(g.word), f"{g} not in S")
        for g, expected in item.probes:
            expect(sf.member(last, g) == expected,
                   f"stage {item.radius} member({g}) != {expected}")


WORKLOADS = {w.name: w for w in (Build, Member, IntersectFg, IntersectStream)}
