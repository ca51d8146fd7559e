import collections
import itertools
import random

import pytest

from stallings_fta.abelian import (
    AbelianSpec,
    AbelianSubgroup,
    CosetIntersection,
    coset_intersection_witness,
    hnf,
    image_invariants,
    kernel,
    mat_identity,
    preimage_under_matrix,
    snf,
    solve_left,
    vec_add,
    vec_mat,
    vec_sub,
    INFINITY,
)
from stallings_fta import abelian
from support import LATTICE_SPECS, image_invariants_by_row, mat_mul, reference_solve_hnf

Z2 = AbelianSpec(2)
Z1 = AbelianSpec(1)


def sub(spec, *gens):
    return AbelianSubgroup.from_generators(spec, gens)


class TestCanonicalize:
    def test_torsion_reduction(self):
        spec = AbelianSpec(1, (6,))
        assert spec.canonicalize((5, 8)) == (5, 2)

    def test_torsion_free_identity(self):
        assert Z2.canonicalize((3, -3)) == (3, -3)

    def test_negative_entries(self):
        spec = AbelianSpec(0, (2, 4))
        assert spec.canonicalize((-1, 9)) == (1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Z2.canonicalize((1, 2, 3))


class TestHnf:
    def test_two_generator_lattice(self):
        assert hnf([(0, 6), (3, -3)]) == ((3, 3), (0, 6))

    def test_zero_matrix(self):
        assert hnf([(0, 0), (0, 0)]) == ()
        assert hnf([], width=3) == ()

    def test_redundant_rows(self):
        assert hnf([(2, 0), (0, 2), (1, 1)]) == ((1, 1), (0, 2))

    def test_idempotent_and_row_space_preserved(self):
        rng = random.Random(7)
        for _ in range(200):
            rows = [
                tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(0, 4))
            ]
            width = len(rows[0]) if rows else 2
            rows = [r[:width] + (0,) * (width - len(r)) for r in rows]
            h = hnf(rows, width)
            assert hnf(h, width) == h
            lat = AbelianSubgroup.from_generators(AbelianSpec(width), rows)
            for row in h:
                assert lat.contains(row)
            lat2 = AbelianSubgroup.from_generators(AbelianSpec(width), h)
            for row in rows:
                assert lat2.contains(row)


class TestSnf:
    def test_divisibility_chain_example(self):
        dec = snf([(-2, 4), (1, 1)])
        assert dec.deltas == (1, 6)
        assert dec.S == ((1, 0), (0, 6))

    def test_row_vector_with_kernel(self):
        dec = snf([(0, 1)])
        assert dec.S == ((1, 0),)
        assert dec.deltas == (1,)

    def test_identity(self):
        dec = snf(mat_identity(3))
        assert dec.S == mat_identity(3)
        assert dec.P == mat_identity(3)
        assert dec.Q == mat_identity(3)

    def test_empty(self):
        dec = snf([], width=0)
        assert dec.s == 0 and dec.deltas == ()

    def test_property_suite(self):
        # P @ M @ Q == S, divisibility chain, unimodular transforms
        rng = random.Random(42)
        for _ in range(500):
            k = rng.randint(1, 6)
            r = rng.randint(1, 6)
            rows = [tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(k)]
            dec = snf(rows)
            assert mat_mul(mat_mul(dec.P, rows), dec.Q) == dec.S
            for i, row in enumerate(dec.S):
                for j, v in enumerate(row):
                    if i != j:
                        assert v == 0
            for a, b in zip(dec.deltas, dec.deltas[1:]):
                assert a > 0 and b % a == 0
            assert abs(_det(dec.P)) == 1
            assert abs(_det(dec.Q)) == 1


def _det(mat):
    mat = [list(r) for r in mat]
    n = len(mat)
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        for i in range(col + 1, n):
            while mat[i][col]:
                q = mat[i][col] // mat[col][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[col])]
                if mat[i][col]:
                    mat[col], mat[i] = mat[i], mat[col]
                    det = -det
        det *= mat[col][col]
    return det


class TestSubgroups:
    def test_case1_sum_generators(self):
        l = sub(Z2, (0, 6), (3, -3))
        assert l.lattice_basis == ((3, 3), (0, 6))

    def test_empty_generators(self):
        assert sub(Z2).lattice_basis == ()
        spec = AbelianSpec(1, (6,))
        assert sub(spec).lattice_basis == ((0, 6),)

    def test_torsion_absorbed(self):
        spec = AbelianSpec(1, (6,))
        l = sub(spec, (0, 2))
        assert l.lattice_basis == ((0, 2),)
        assert l.contains((0, 6))

    def test_equality_canonical(self):
        rng = random.Random(3)
        for _ in range(100):
            gens = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)]
            shuffled = [tuple(-x for x in g) for g in gens]
            rng.shuffle(shuffled)
            spec = AbelianSpec(3)
            assert sub(spec, *gens) == sub(spec, *shuffled)

    def test_contains(self):
        l = sub(Z2, (0, 6))
        assert l.contains((0, 12))
        assert not l.contains((0, 3))
        l2 = sub(Z2, (0, 6), (3, -3))
        assert l2.contains((3, 3))

    def test_contains_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rng.randint(1, 3)
            spec = AbelianSpec(m)
            gens = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(2)]
            l = sub(spec, *gens)
            reachable = set()
            for coeffs in itertools.product(range(-5, 6), repeat=len(gens)):
                reachable.add(vec_mat(coeffs, gens, m))
            for vec in itertools.product(range(-4, 5), repeat=m):
                if vec in reachable:
                    assert l.contains(vec)
                elif l.contains(vec):
                    # in the lattice but beyond the oracle box: certify exactly
                    assert solve_left(gens, vec, m) is not None

    def test_cached_pivots_match_a_fresh_computation(self):
        def pivots(l):
            return [(row, next(j for j, a in enumerate(row) if a)) for row in l.lattice_basis]

        def reduce_mod(l, vec):
            resid = list(vec)
            for row, c in pivots(l):
                q = resid[c] // row[c]
                resid = [a - q * b for a, b in zip(resid, row)]
            return tuple(resid)

        def contains(l, vec):
            resid = list(vec)
            for row, c in pivots(l):
                if any(resid[:c]):
                    return False
                q, rem = divmod(resid[c], row[c])
                if rem:
                    return False
                resid = [a - q * b for a, b in zip(resid, row)]
            return not any(resid)

        rng = random.Random(17)
        specs = [AbelianSpec(2), AbelianSpec(1, (6,)), AbelianSpec(0, (2, 4)), AbelianSpec(2, (3,))]
        for i in range(120):
            spec = specs[i % len(specs)]
            gens = [tuple(rng.randint(-6, 6) for _ in range(spec.m))
                    for _ in range(rng.randint(0, 3))]
            l = sub(spec, *gens)
            for _ in range(12):
                vec = tuple(rng.randint(-20, 20) for _ in range(spec.m))
                assert l.reduce_mod(vec) == reduce_mod(l, vec)
                assert l.contains(vec) == contains(l, vec) == sub(spec, *gens).contains(vec)
                assert l.contains(vec_sub(vec, l.reduce_mod(vec)))

    def test_sum_intersect(self):
        l1, l2 = sub(Z2, (0, 6)), sub(Z2, (3, -3))
        assert l1.sum(l2) == sub(Z2, (3, 3), (0, 6))
        assert l1.intersect(l2) == sub(Z2)
        assert l1.sum(l1) == l1 and l1.intersect(l1) == l1
        a, b = sub(Z2, (2, 0)), sub(Z2, (3, 0))
        assert a.intersect(b) == sub(Z2, (6, 0))

    def test_intersect_against_membership(self):
        rng = random.Random(29)
        specs = [AbelianSpec(1), AbelianSpec(2), AbelianSpec(1, (6,)),
                 AbelianSpec(0, (2, 4)), AbelianSpec(2, (3,))]
        for i in range(100):
            spec = specs[i % len(specs)]
            l1, l2 = (sub(spec, *[tuple(rng.randint(-6, 6) for _ in range(spec.m))
                                  for _ in range(rng.randint(0, 3))]) for _ in range(2))
            both = l1.intersect(l2)
            assert both == l2.intersect(l1)
            for v in itertools.product(range(-6, 7), repeat=spec.m):
                assert both.contains(v) == (l1.contains(v) and l2.contains(v))


class TestWitness:
    def test_trivial(self):
        l1, l2 = sub(Z2, (0, 6)), sub(Z2, (3, -3))
        assert coset_intersection_witness((0, 0), l1, (0, 0), l2) == (0, 0)

    def test_case1_style(self):
        l1, l2 = sub(Z2, (0, 6)), sub(Z2, (3, -3))
        c = coset_intersection_witness((2, 0), l1, (-1, 3), l2)
        assert c is not None
        assert l1.contains(vec_sub(c, (2, 0)))
        assert l2.contains(vec_sub(c, (-1, 3)))
        # L1 & L2 is trivial here, so the witness is unique
        assert c == (2, 0)

    def test_absent_on_singletons(self):
        t = sub(Z2)
        assert coset_intersection_witness((1, 0), t, (0, 1), t) is None

    def test_present_iff_difference_in_sum(self):
        rng = random.Random(5)
        for _ in range(150):
            m = rng.randint(1, 3)
            spec = AbelianSpec(m)
            l1 = sub(spec, *[tuple(rng.randint(-4, 4) for _ in range(m))
                             for _ in range(rng.randint(0, 2))])
            l2 = sub(spec, *[tuple(rng.randint(-4, 4) for _ in range(m))
                             for _ in range(rng.randint(0, 2))])
            a = tuple(rng.randint(-4, 4) for _ in range(m))
            b = tuple(rng.randint(-4, 4) for _ in range(m))
            c = coset_intersection_witness(a, l1, b, l2)
            assert (c is not None) == l1.sum(l2).contains(vec_sub(a, b))
            if c is not None:
                assert l1.contains(vec_sub(c, a))
                assert l2.contains(vec_sub(c, b))


class TestReduce:
    """_reduce against the pivot rows, and _solve_hnf against the divmod solve
    it replaced (support.reference_solve_hnf), on the pivot maps of seeded
    subgroups of every LATTICE_SPECS shape and of CosetIntersection stacks
    [L1; -L2].  The targets are solvable, leave a remainder at a pivot, add
    a part that is nonzero only off the pivots to a solvable one, or are
    random."""

    @staticmethod
    def pivot_maps(rng):
        """(m, pivot map) pairs: a subgroup's own, then its stack with another."""
        for spec in LATTICE_SPECS.values():
            m = spec.m
            for i in range(12):
                bound = (2, 5, 30)[i % 3]
                l1, l2 = (sub(spec, *[tuple(rng.randint(-bound, bound) for _ in range(m))
                                      for _ in range(rng.randint(0, m + 2))]) for _ in range(2))
                yield m, l1._pivots
                yield m, CosetIntersection(l1, l2)._pivots

    @staticmethod
    def targets(rng, m, pivots):
        """(kind, target, its quotients or None, whether it is solvable or
        None) for each kind of target."""
        rows = list(pivots.values())
        for _ in range(6):
            coeff = [rng.randint(-3, 3) for _ in rows]
            inside = vec_mat(coeff, rows, m)
            yield "solvable", inside, coeff, True
            c, row = rng.choice(list(pivots.items())) if rows else (None, None)
            if row is not None and row[c] > 1:
                k = rng.randint(1, row[c] - 1) + row[c] * rng.randint(-2, 2)
                yield "remainder", tuple(a + k * (j == c) for j, a in enumerate(inside)), None, False
            off = [j for j in range(m) if j not in pivots]
            if off:
                part = [rng.choice((-1, 1)) * rng.randint(1, 9) if j in off else 0
                        for j in range(m)]
                # the quotients read only the pivot columns, so they are inside's
                yield "off-pivot", vec_add(inside, part), coeff, False
            yield "random", tuple(rng.randint(-40, 40) for _ in range(m)), None, None

    def test_matches_the_reference_solve(self):
        rng = random.Random("reduce")
        kinds = collections.Counter()
        for m, pivots in self.pivot_maps(rng):
            rows = list(pivots.values())
            for kind, target, expected, solvable in self.targets(rng, m, pivots):
                quotients, resid = abelian._reduce(pivots, target)
                assert vec_add(vec_mat(quotients, rows, m), resid) == tuple(target)
                assert all(0 <= resid[c] < row[c] for c, row in pivots.items())
                solved = abelian._solve_hnf(pivots, target)
                assert solved == reference_solve_hnf(pivots, target)
                assert solved == (quotients if not any(resid) else None)
                if expected is not None:
                    assert quotients == expected
                if solvable is not None:
                    assert (solved is not None) == solvable
                kinds[kind, solved is not None] += 1
        assert min(kinds["solvable", True], kinds["remainder", False],
                   kinds["off-pivot", False]) >= 50, kinds
        assert min(kinds["random", True], kinds["random", False]) >= 20, kinds


class TestPreimage:
    def test_divisibility_chain_example(self):
        l = sub(Z2, (0, 6), (3, -3))
        m = preimage_under_matrix(l, ((2, -3), (1, 0)))
        assert m == sub(AbelianSpec(2), (-2, 4), (1, 1))

    def test_row_vector_with_kernel(self):
        m = preimage_under_matrix(sub(Z1), ((1,), (0,)))
        assert m == sub(AbelianSpec(2), (0, 1))

    def test_whole_group(self):
        l = AbelianSubgroup.full(Z2)
        m = preimage_under_matrix(l, ((1, 0), (0, 1), (4, 5)))
        assert m == AbelianSubgroup.full(AbelianSpec(3))

    def test_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(60):
            r, m = rng.randint(1, 3), rng.randint(1, 2)
            spec = AbelianSpec(m)
            l = sub(spec, *[tuple(rng.randint(-3, 3) for _ in range(m))
                            for _ in range(rng.randint(0, 2))])
            d = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(r)]
            pre = preimage_under_matrix(l, d)
            for row in pre.lattice_basis:
                assert l.contains(vec_mat(row, d, m))
            for v in itertools.product(range(-4, 5), repeat=r):
                if l.contains(vec_mat(v, d, m)):
                    assert pre.contains(v)


class TestImageInvariants:
    """image_invariants works in Z^m; the r x r Smith form of the preimage is
    its oracle."""

    SPECS = (AbelianSpec(1), AbelianSpec(2), AbelianSpec(1, (6,)), AbelianSpec(0, (2, 4)))

    def test_divisibility_chain_example(self):
        deltas, gens = image_invariants(sub(Z2, (0, 6), (3, -3)), ((2, -3), (1, 0)))
        assert deltas == (1, 6)
        assert len(gens) == 2 and all(len(g) == 1 for g in gens)

    def test_empty_matrix(self):
        assert image_invariants(sub(Z1), ()) == ((), ())

    def test_against_preimage_smith_form(self):
        rng = random.Random(11)
        for _ in range(150):
            spec = rng.choice(self.SPECS)
            m, r = spec.m, rng.randint(0, 4)
            l = sub(spec, *[tuple(rng.randint(-4, 4) for _ in range(m))
                            for _ in range(rng.randint(0, 2))])
            d = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(r)]
            deltas, gens = image_invariants(l, d)
            pre = preimage_under_matrix(l, d)
            assert deltas == snf(pre.lattice_basis, r).deltas_padded(r)
            factors = [x for x in deltas if x != 1]
            assert len(gens) == r and all(len(g) == len(factors) for g in gens)

            def image(v):
                total = vec_mat(v, gens, len(factors))
                return tuple(a % f if f else a for a, f in zip(total, factors))

            zero = (0,) * len(factors)
            for v in itertools.product(range(-2, 3), repeat=r):
                assert (image(v) == zero) == pre.contains(v)

    @staticmethod
    def seeded(rng, count):
        """(L, D) with D drawn from a small pool of rows: repeated rows,
        zero rows, and rows of L, over free, torsion and mixed ambients."""
        for _ in range(count):
            spec = rng.choice(TestImageInvariants.SPECS)
            m = spec.m
            l = sub(spec, *[tuple(rng.randint(-4, 4) for _ in range(m))
                            for _ in range(rng.randint(0, 2))])
            pool = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 3))]
            pool += [(0,) * m] + list(l.lattice_basis[:1])
            yield l, [rng.choice(pool) for _ in range(rng.randint(0, 12))]

    def test_against_the_per_row_solve(self):
        rng = random.Random("image-invariants-by-row")
        repeated = 0
        for l, d in self.seeded(rng, 300):
            assert image_invariants(l, d) == image_invariants_by_row(l, d)
            repeated += len(set(d)) < len(d)
        assert repeated >= 100

    def test_one_solve_per_distinct_row(self, monkeypatch):
        targets = []
        real = abelian._solve_hnf

        def counted(pivots, target):
            targets.append(tuple(target))
            return real(pivots, target)

        monkeypatch.setattr(abelian, "_solve_hnf", counted)
        rng = random.Random("image-invariants-solves")
        for l, d in self.seeded(rng, 100):
            targets.clear()
            image_invariants(l, d)
            # each row of L once for the Smith form, then each distinct row of D once
            assert targets == list(l.lattice_basis) + list(dict.fromkeys(d))


class TestIndexTransversal:
    def test_infinite(self):
        assert sub(Z2).index() == INFINITY

    def test_rank_one(self):
        assert sub(Z1, (2,)).index() == 2

    def test_case1_sum_index(self):
        assert sub(Z2, (3, 3), (0, 6)).index() == 18

    def test_index_matches_residue_count(self):
        rng = random.Random(13)
        checked = 0
        while checked < 30:
            m = rng.randint(1, 2)
            spec = AbelianSpec(m)
            gens = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(m)]
            l = sub(spec, *gens)
            idx = l.index()
            if idx is INFINITY or idx > 50:
                continue
            reps = {l.reduce_mod(v) for v in itertools.product(range(-8, 9), repeat=m)}
            assert len(reps) == idx
            checked += 1

    def test_transversal_whole_group(self):
        assert list(AbelianSubgroup.full(Z1).transversal()) == [(0,)]

    def test_transversal_mod3(self):
        assert list(sub(Z1, (3,)).transversal()) == [(0,), (1,), (-1,)]

    def test_transversal_budget(self):
        reps = list(itertools.islice(sub(Z2, (1, 1)).transversal(), 3))
        assert len(reps) == 3
        diffs = {b - a for a, b in reps}
        assert len(diffs) == 3

    def test_transversal_complete_and_irredundant(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            m = rng.randint(1, 2)
            spec = AbelianSpec(m)
            gens = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(m)]
            l = sub(spec, *gens)
            idx = l.index()
            if idx is INFINITY or idx > 40:
                continue
            reps = list(l.transversal())
            assert len(reps) == idx
            assert len({l.reduce_mod(v) for v in reps}) == idx
            checked += 1


class TestCompletion:
    def test_full_rank_fixed_point(self):
        l = sub(Z2, (2, 0), (0, 3))
        assert l.finite_index_completion() == l

    def test_summand_completion(self):
        l = sub(Z2, (1, 1))
        comp = l.finite_index_completion()
        assert comp.index() == 1
        assert _is_direct_summand(l, comp)

    def test_trivial_completes_to_whole(self):
        assert sub(Z2).finite_index_completion() == AbelianSubgroup.full(Z2)

    def test_random_summand(self):
        rng = random.Random(23)
        for _ in range(50):
            m = rng.randint(1, 3)
            spec = AbelianSpec(m)
            l = sub(spec, *[tuple(rng.randint(-4, 4) for _ in range(m))
                            for _ in range(rng.randint(0, m))])
            comp = l.finite_index_completion()
            assert comp.index() is not INFINITY
            for row in l.lattice_basis:
                assert comp.contains(row)
            assert _is_direct_summand(l, comp)


def _is_direct_summand(l, comp):
    # the coefficient matrix of L's basis in comp's basis must have unit SNF
    coeffs = []
    for row in l.lattice_basis:
        x = solve_left(comp.lattice_basis, row, l.spec.m)
        assert x is not None
        coeffs.append(x)
    if not coeffs:
        return True
    dec = snf(coeffs, len(comp.lattice_basis))
    return all(d == 1 for d in dec.deltas)


class TestRank:
    def test_free_rank(self):
        assert sub(Z2, (1, 1)).rank() == 1
        assert sub(Z2).rank() == 0

    def test_torsion_rank(self):
        spec = AbelianSpec(0, (2, 4))
        assert AbelianSubgroup.full(spec).rank() == 2
        assert AbelianSubgroup.trivial(spec).rank() == 0
        assert sub(spec, (0, 2)).rank() == 1


class TestSerialization:
    def test_kernel_solve_roundtrip(self):
        rows = [(2, 4, 0), (1, 1, 1)]
        x = solve_left(rows, (3, 5, 1))
        assert x is not None
        assert vec_mat(x, rows, 3) == (3, 5, 1)
        assert solve_left(rows, (0, 0, 5)) is None
        for k in kernel(rows):
            assert vec_mat(k, rows, 3) == (0, 0, 0)

    def test_kernel_and_solve_by_property(self):
        # neither answer is canonical: check what they satisfy, not their bytes
        rng = random.Random("kernel-solve")
        for _ in range(200):
            k, width = rng.randint(0, 6), rng.randint(1, 4)
            rows = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(k)]
            if rows and rng.random() < 0.3:
                rows.append(rows[0])
            ker = kernel(rows, width)
            assert len(ker) == len(rows) - len(hnf(rows, width))
            assert all(vec_mat(x, rows, width) == (0,) * width for x in ker)
            # independent and saturated: the whole left kernel, not a sublattice
            assert all(d == 1 for d in snf(ker, len(rows)).deltas_padded(len(ker)))
            spanned = AbelianSubgroup.from_generators(AbelianSpec(width), rows)
            inside = vec_mat([rng.randint(-3, 3) for _ in rows], rows, width)
            for target in (inside, tuple(rng.randint(-9, 9) for _ in range(width))):
                x = solve_left(rows, target, width)
                assert (x is not None) == spanned.contains(target)
                if x is not None:
                    assert len(x) == len(rows) and vec_mat(x, rows, width) == target


class TestShapes:
    """Every matrix is read through one width check: by default the first
    row's length, which every other row and solve_left's target must have."""

    @pytest.mark.parametrize("call", [
        lambda: snf([(1, 2), (3,)]),
        lambda: snf([(1, 2)], 3),
        lambda: snf([(1, 2)], 1),
        lambda: solve_left([(1, 0)], (1,)),
        lambda: solve_left([(1, 0)], (1, 0, 5)),
    ], ids=["snf-ragged", "snf-wider", "snf-narrower", "solve-short-target", "solve-long-target"])
    def test_misshapen_input_rejected(self, call):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            call()

    def test_widths_that_fit(self):
        assert snf([(1, 2)], 2).S == ((1, 0),)
        assert snf([], 2).Q == mat_identity(2)
        assert solve_left([], (0, 0)) == () and solve_left([], (0, 1)) is None
        assert solve_left([(1, 0)], (3, 0), 2) == (3,)


class TestElements:
    def test_torsion_only_spec_lists_every_element_once(self):
        spec = AbelianSpec(0, (2, 4))
        out = list(spec.elements())
        assert sorted(out) == sorted(itertools.product(range(2), range(4)))
        assert [sum(v) for v in out] == sorted(sum(v) for v in out)

    def test_rank_zero_has_one_element(self):
        assert list(AbelianSpec(0).elements()) == [()]


class TestRejections:
    @pytest.mark.parametrize("call, message", [
        (lambda: AbelianSpec(-1), "m_free must be nonnegative"),
        (lambda: AbelianSpec(0, (0,)), "torsion order 0 < 2"),
        (lambda: AbelianSpec(1.5), "m_free 1.5 is not an integer"),
        (lambda: AbelianSpec(0, (2.5,)), "torsion order 2.5 is not an integer"),
        (lambda: AbelianSpec(1, (2, "6")), "torsion order '6' is not an integer"),
        (lambda: AbelianSubgroup.from_generators(Z2, [(1,)]),
         "generator length 1 != ambient length 2"),
        (lambda: AbelianSubgroup.from_generators(Z1, [(3,), (1.5,)]),
         "generator entry 1.5 is not an integer"),
        (lambda: AbelianSubgroup.from_generators(Z2, [(1, 0), (0, "2")]),
         "generator entry '2' is not an integer"),
        (lambda: AbelianSubgroup(Z1, ((1.5,),)), "generator entry 1.5 is not an integer"),
        (lambda: AbelianSubgroup(Z2, ((1, 0), (0, "2"))), "generator entry '2' is not an integer"),
        (lambda: sub(Z2, (1, 0)).reduce_mod((1,)), "dimension mismatch"),
        (lambda: sub(Z2, (1, 0)).sum(sub(Z1, (1,))), "mismatched ambient abelian groups"),
        (lambda: CosetIntersection(sub(Z2, (1, 0)), sub(Z1, (1,))),
         "mismatched ambient abelian groups"),
        (lambda: CosetIntersection(sub(Z2, (1, 0)), sub(Z2)).witness((1,), (0, 0)),
         "dimension mismatch"),
        (lambda: CosetIntersection(sub(Z2, (1, 0)), sub(Z2)).witness((0, 0), (1, 0, 0)),
         "dimension mismatch"),
        (lambda: preimage_under_matrix(sub(Z2, (1, 0)), [(1, 0), (1,)]), "dimension mismatch"),
        (lambda: image_invariants(sub(Z2, (1, 0)), [(1, 0, 0)]), "dimension mismatch"),
        (lambda: hnf([(1, 2), (3,)]), "ragged matrix"),
        (lambda: kernel([(1,)], 2), "ragged matrix"),
    ], ids=["negative-rank", "torsion-zero", "float-rank", "float-torsion", "string-torsion",
            "generator-length", "float-generator", "string-generator", "direct-float",
            "direct-string", "reduce-length", "sum-specs",
            "coset-specs", "witness-a-length", "witness-b-length", "preimage-width",
            "image-width", "hnf-ragged", "kernel-width"])
    def test_rejected_with_its_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
