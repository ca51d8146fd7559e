"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random

from stallings_fta.abelian import INFINITY, AbelianSpec, AbelianSubgroup, snf
from stallings_fta.enriched import (
    GroupElement,
    arc_transformation,
    basis,
    completion_table,
    index_report,
    member,
    normalize,
    stallings,
    transversal_stream,
    vertex_transformation,
)
from stallings_fta.intersection import (
    VERDICT_FG,
    intersect_fg,
    intersect_stages,
    intersection_matrices,
)
from stallings_fta.words import spanning_tree_by_order

from support import (
    F2Z,
    F2Z2,
    conjugator_word,
    elements,
    mat_mul,
    moldavanski_pair,
    parameterized_pair,
    random_element,
    random_subgroup_gens,
)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_moldavanski():
    h1, h2 = moldavanski_pair()
    rep = intersection_matrices(h1, h2)
    assert rep.D == ((1,), (0,))
    assert rep.M == AbelianSubgroup.from_generators(AbelianSpec(2), [(0, 1)])
    assert rep.deltas == (1, 0)
    assert rep.verdict == "not-finitely-generated"
    _, stages = intersect_stages(h1, h2, max_radius=5)
    got = set()
    for stage in stages:
        for g in stage.new_elements:
            got.add((g.word, g.vec))
    expected = set()
    for i in range(-5, 6):
        conj = (1,) * i if i >= 0 else (-1,) * (-i)
        word = conj + (2,) + tuple(-l for l in reversed(conj))
        expected.add((word, (0,)))
    assert got == expected
    for word, vec in got:
        g = GroupElement(word, vec)
        assert member(h1, g) and member(h2, g)
    report(1, "Moldavanski: D, M, deltas, verdict, radius-5 basis {x^i y x^-i}")


# Case 1 golden basis.  A tempting last element would use exponent -12, but
# x^6 y x^-12 y^-1 has completion coset (-2,0)+<(0,6)> in H1, which misses
# (-3,6); the exponent consistent with that witness is -15.
CASE1_LISTED = [
    ((2, 1, 1, 1, -2) + (1,) * 6, (3, 0)),
    ((2, 1, 1, 1, 1, 1, 1, -2) + (1,) * 6 + (2, -1, -1, -1, -2), (3, 0)),
    ((2,) + (1,) * 9 + (-2,) + (1,) * 6 + (2,) + (-1,) * 6 + (-2,), (3, 0)),
    ((2,) + (1,) * 12 + (-2,) + (1,) * 6 + (2,) + (-1,) * 9 + (-2,), (3, 0)),
    ((2,) + (1,) * 15 + (-2,) + (1,) * 6 + (2,) + (-1,) * 12 + (-2,), (3, 0)),
    ((2,) + (1,) * 18 + (-2,), (6, -6)),
    ((1,) * 6 + (2,) + (-1,) * 15 + (-2,), (-3, 6)),
]


def assert_mutual_membership(ambient, e, listed):
    for g in listed:
        assert member(e, g), f"listed element {g} missing from computed intersection"
    regenerated = stallings(ambient, list(listed) + [
        GroupElement((), row) for row in e.base.lattice_basis
    ])
    b = basis(e)
    for g in b.free_part:
        assert member(regenerated, g), f"computed element {g} missing from listed subgroup"
    for row in e.base.lattice_basis:
        assert member(regenerated, GroupElement((), row))


def test_criterion_2_case1():
    h1, h2 = parameterized_pair((1, 0), (0, 1), [(0, 6)], [(3, -3)])
    rep = intersection_matrices(h1, h2)
    assert rep.D == ((2, -3), (1, 0))
    assert rep.M == AbelianSubgroup.from_generators(AbelianSpec(2), [(-2, 4), (1, 1)])
    assert rep.snf.S == ((1, 0), (0, 6))
    assert rep.verdict == VERDICT_FG
    assert rep.free_rank == 7
    e = intersect_fg(h1, h2, report=rep)
    assert e.base == AbelianSubgroup.trivial(F2Z2.abelian)
    assert len(basis(e).free_part) == 7
    listed = [F2Z2.element(w, v) for w, v in CASE1_LISTED]
    assert_mutual_membership(F2Z2, e, listed)
    report(2, "Case 1: D, M, S = diag(1,6), rank 7, basis equality")


def test_criterion_3_case2():
    h1, h2 = parameterized_pair((3, 3), (2, 2), [(1, 2)], [])
    rep = intersection_matrices(h1, h2)
    assert rep.verdict == "not-finitely-generated"
    assert rep.r == 2 and rep.s == 1
    _, stages = intersect_stages(h1, h2, max_radius=5)
    stage_list = list(stages)
    for k in range(-3, 4):
        conj = (2,) + ((1,) * (3 * k) if k >= 0 else (-1,) * (-3 * k)) + (-2,)
        word = conj + (1,) * 6 + tuple(-l for l in reversed(conj))
        g = F2Z2.element(word, (6, 6))
        for stage in stage_list:
            if stage.radius >= abs(k) + 1:
                assert member(stage.automaton, g), (k, stage.radius)
    report(3, "Case 2: not f.g. (r=2, s=1); t^(6,6) elements enter by radius |k|+1")


def test_criterion_4_cases_3_and_4():
    h1, h2 = parameterized_pair((3, 3), (2, 2), [(2, 2)], [])
    rep = intersection_matrices(h1, h2)
    assert rep.verdict == VERDICT_FG and rep.free_rank == 3
    e3 = intersect_fg(h1, h2, report=rep)
    listed3 = elements(
        F2Z2,
        ((1,) * 6, (6, 6)),
        ((2,) + (1,) * 6 + (-2,), (0, 0)),
        ((2, 1, 1, 1, -2) + (1,) * 6 + (2, -1, -1, -1, -2), (6, 6)),
    )
    assert_mutual_membership(F2Z2, e3, listed3)

    h1, h2 = parameterized_pair((3, 3), (2, 2), [(1, 1)], [])
    rep = intersection_matrices(h1, h2)
    assert rep.verdict == VERDICT_FG and rep.free_rank == 2
    e4 = intersect_fg(h1, h2, report=rep)
    listed4 = elements(F2Z2, ((1,) * 6, (6, 6)), ((2, 1, 1, 1, -2), (0, 0)))
    assert_mutual_membership(F2Z2, e4, listed4)
    report(4, "Cases 3 and 4: ranks 3 and 2, basis equality")


def test_criterion_5_case5():
    for p in (2, 3, 4):
        h1, h2 = parameterized_pair((6, 6), (4, 4), [(6 * p, 6 * p)], [])
        rep = intersection_matrices(h1, h2)
        assert rep.verdict == VERDICT_FG
        assert rep.free_rank == p + 1
        e = intersect_fg(h1, h2, report=rep)
        assert len(basis(e).free_part) == p + 1
        listed = [F2Z2.element((2,) + (1,) * (3 * p) + (-2,), (0, 0))] + [
            F2Z2.element(
                (2,) + (1,) * (3 * k) + (-2,) + (1,) * 6
                + (2,) + (-1,) * (3 * k) + (-2,),
                (12, 12),
            )
            for k in range(p)
        ]
        assert_mutual_membership(F2Z2, e, listed)
    report(5, "Case 5 (p = 2, 3, 4): rank p+1, basis equality")


def test_criterion_6_rank_law():
    rng = random.Random(616)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 20000, "instance generator starved"
        ambient = F2Z if rng.random() < 0.5 else F2Z2
        e1 = stallings(ambient, random_subgroup_gens(rng, ambient))
        e2 = stallings(ambient, random_subgroup_gens(rng, ambient))
        rep = intersection_matrices(e1, e2)
        if rep.verdict != VERDICT_FG or rep.pi_trivial:
            continue
        prod_deltas = 1
        for d in rep.deltas:
            prod_deltas *= d
        predicted = prod_deltas * (rep.r - 1)
        if predicted > 150:
            continue  # keep the expansion at desk scale
        e = intersect_fg(e1, e2, report=rep)
        assert len(basis(e).free_part) - 1 == predicted
        checked += 1
    report(6, f"rank law on {checked} random f.g. instances ({attempts} sampled)")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(707)
    mismatches = 0
    for _ in range(100):
        e1 = stallings(F2Z, random_subgroup_gens(rng, F2Z))
        e2 = stallings(F2Z, random_subgroup_gens(rng, F2Z))
        rep = intersection_matrices(e1, e2)
        if rep.verdict == VERDICT_FG:
            e = intersect_fg(e1, e2, report=rep)
        else:
            _, stages = intersect_stages(e1, e2, max_radius=3)
            e = list(stages)[-1].automaton
        t0 = completion_table(e, 6)
        t1 = completion_table(e1, 6)
        t2 = completion_table(e2, 6)
        assert set(t0) <= (set(t1) & set(t2))
        for word in set(t1) & set(t2):
            b0 = t0.get(word)
            for a in range(-6, 7):
                got = b0 is not None and e.base.contains((a - b0[0],))
                want = e1.base.contains((a - t1[word][0],)) and e2.base.contains(
                    (a - t2[word][0],)
                )
                if got != want:
                    mismatches += 1
    assert mismatches == 0
    report(7, "membership oracle equivalence on 100 random instances, 0 mismatches")


def test_criterion_8_canonical_bijection():
    rng = random.Random(808)
    for _ in range(100):
        ambient = F2Z if rng.random() < 0.5 else F2Z2
        gens = [random_element(rng, ambient, maxlen=4) for _ in range(rng.randint(0, 4))]
        e = stallings(ambient, gens)
        enlarged = list(gens)
        for g, h in itertools.combinations(gens, 2):
            if rng.random() < 0.4:
                enlarged.append(ambient.multiply(g, h))
        rng.shuffle(enlarged)
        assert stallings(ambient, enlarged) == e

    # membership invariance under random abelian transformations + refold
    gens = elements(
        F2Z2, ((1, 2), (1, 0)), ((2, 2, -1), (0, 1)), ((), (0, 4))
    )
    e = stallings(F2Z2, gens)
    sample = [random_element(rng, F2Z2, maxlen=5) for _ in range(30)]
    sample += gens
    truth = [member(e, g) for g in sample]
    twisted = e
    for _ in range(50):
        c = tuple(rng.randint(-4, 4) for _ in range(2))
        if rng.random() < 0.5:
            twisted = vertex_transformation(
                twisted, rng.randrange(twisted.skeleton.num_vertices), c
            )
        else:
            twisted = arc_transformation(twisted, rng.randrange(len(twisted.labels)), c)
        assert [member(twisted, g) for g in sample] == truth
    refolded = normalize(twisted, spanning_tree_by_order(twisted.skeleton))
    assert refolded == e
    report(8, "canonical bijection on 100 subgroups; 50 transformations + refold")


def test_criterion_9_index():
    e = stallings(F2Z, elements(
        F2Z, ((1, 1), ()), ((2,), ()), ((1, 2, -1), ()), ((), (2,))
    ))
    assert index_report(e) == (2, 2, 4)
    reps = list(transversal_stream(e))
    assert [(g.word, g.vec) for g in reps] == [
        ((), (0,)), ((1,), (0,)), ((), (1,)), ((1,), (1,))
    ]

    rng = random.Random(909)
    checked = 0
    while checked < 50:
        size = rng.randint(1, 3)
        perm1 = list(range(size))
        perm2 = list(range(size))
        rng.shuffle(perm1)
        rng.shuffle(perm2)
        gens = []
        for v in range(size):
            gens.append(F2Z.element(conjugator_word(1, v, perm1[v]), (rng.randint(-2, 2),)))
            gens.append(F2Z.element(conjugator_word(2, v, perm2[v]), (rng.randint(-2, 2),)))
        gens.append(F2Z.element((), (rng.randint(2, 10),)))
        e = stallings(F2Z, gens)
        _, _, total = index_report(e)
        if total is INFINITY or total > 60:
            continue
        reps = list(transversal_stream(e))
        assert len(reps) == total
        for g1, g2 in itertools.combinations(reps, 2):
            assert not member(e, F2Z.multiply(g1, F2Z.invert(g2)))
        checked += 1
    report(9, "index (2,2,4) with transversal {1, x, t, xt}; 50 random transversals")


def test_criterion_10_snf_properties():
    rng = random.Random(1010)
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
                else:
                    assert v >= 0
        for a, b in zip(dec.deltas, dec.deltas[1:]):
            assert a > 0 and b % a == 0
        assert abs(_det(dec.P)) == 1
        assert abs(_det(dec.Q)) == 1
    report(10, "SNF property suite on 500 random matrices")


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
