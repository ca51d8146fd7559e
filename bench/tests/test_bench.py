"""The benchmark's own tests: generator, oracle, tracer, preflight, smoke runs.

    python -m pytest bench/tests -q
"""

import dataclasses
import random
import shutil
import subprocess
import sys

import pytest
import stallings_fta as sf
from stallings_fta import enriched, intersection, words

import family
import preflight
import run
import tracer
import workloads

TINY = {
    "build": lambda: workloads.Build(sizes=(5, 6)),
    "member": lambda: workloads.Member(sizes=(5, 7), queries=60, lengths=(5, 40)),
    "intersect-fg": lambda: workloads.IntersectFg(schedule=((2, 3, 2), (3, 4, 3))),
    "intersect-stream": lambda: workloads.IntersectStream(
        [dataclasses.replace(s, radii=(2, 3)) for s in workloads.STREAM_SHAPES]),
}


def _inputs(items):
    """The generated inputs, without the automata built from them."""
    built = ("automaton", "e1", "e2", "h1", "h2")
    return [{k: v for k, v in vars(item).items() if k not in built} for item in items]


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_is_deterministic_per_seed(name):
    a, b, c = (TINY[name]().setup(seed) for seed in (7, 7, 8))
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


def test_schreier_generators_fix_zero_and_carry_phi():
    rng = random.Random(1)
    for N in (1, 2, 5, 9):
        fam = family.finite_index(rng, 3, N, [(2,), (-1,), (3,)], 4)
        basis = fam.schreier_basis()
        assert len(basis) == N * (fam.n - 1) + 1
        for w, vec in fam.generators():
            assert fam.in_free_part(w) and fam.contains(w, vec)
        assert not fam.contains((), (1,)) and fam.contains((), (8,))


def test_redundant_presentation_gives_the_same_oracle_answers():
    rng = random.Random(2)
    fam = family.finite_index(rng, 2, 7, [(1,), (-2,)], 5)
    gens = family.redundant_presentation(rng, fam, 6)
    assert sorted(fam.generators()) == sorted(g for g in gens if g in fam.generators())
    for _ in range(200):  # products of the presentation stay in H
        word, vec = (), (0,)
        for _ in range(rng.randint(1, 4)):
            w, v = rng.choice(gens)
            word, vec = family.reduce_word(word + w), (vec[0] + v[0],)
        assert fam.contains(word, vec)
        assert not fam.contains(word, (vec[0] + 1,))


def test_member_queries_split_into_the_three_kinds():
    rng = random.Random(3)
    fam = family.finite_index(rng, 2, 11, [(2,), (1,)], 6)
    for kind, truth in ((0, True), (1, False), (2, False)):
        for _ in range(50):
            word, vec, expected = family.member_query(rng, fam, kind, rng.randint(1, 60))
            assert expected == truth == fam.contains(word, vec)
            assert fam.in_free_part(word) == (kind != 2)
            text = family.format_query(word, vec)
            assert sf.parse_element(text, sf.Ambient(2, sf.AbelianSpec(1))).word == word


def test_intersection_rank_is_the_same_for_every_seed():
    for seed in range(5):
        f1, f2 = family.fg_pair(random.Random(seed), 4, 5, 6)
        assert family.intersection_free_rank(f1, f2) == 4 * 5 * 6 + 1


def test_preflight_agrees_and_reports_a_wrong_value():
    assert preflight.run() == []
    name, text, want = preflight.CASES[1]
    assert preflight.check_case(text, dict(want, D=((2, -3), (1, 1))))
    assert preflight.check_case(text, dict(want, M=((1, 0), (0, 6))))
    assert not preflight.same_lattice(((2, 0),), ((1, 0),))
    assert preflight.same_lattice(((1, 1), (0, 6)), ((-2, 4), (1, 1)))


def test_tracer_rebinds_every_namespace_and_restores_it():
    original = words.canonical_renumber
    method = sf.AbelianSubgroup.reduce_mod
    t = tracer.Tracer()
    with t:
        assert enriched.canonical_renumber is words.canonical_renumber is not original
        assert intersection.canonical_renumber is words.canonical_renumber
        assert sf.AbelianSubgroup.reduce_mod is not method
    assert enriched.canonical_renumber is original is words.canonical_renumber
    assert sf.AbelianSubgroup.reduce_mod is method


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_has_no_failures(name):
    workload = TINY[name]()
    items = workload.setup(1)
    res = run.measure(workload, items, 0.2)
    assert res["attempted"] >= len(items) and res["failed"] == 0, res["errors"]
    assert all(res["visits"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_answers_equal_untraced_answers(name):
    workload = TINY[name]()
    items = workload.setup(2)
    t = tracer.Tracer()
    res = run.measure(workload, items, 0.2, t)
    assert res["failed"] == 0, res["errors"]
    assert len(t.ops) == res["attempted"] >= len(items)
    metrics = t.metrics()
    assert metrics["op.calls"][0] == 1.0
    assert 99.0 < sum(v for k, (v, _) in metrics.items() if k.endswith(".self_pct")) < 101.0


def test_wrong_answers_are_counted_as_failures():
    workload = TINY["member"]()
    items = [dataclasses.replace(i, expected=not i.expected) for i in workload.setup(3)[:9]]
    res = run.measure(workload, items, 0.05)
    assert res["failed"] == res["attempted"] >= len(items)
    assert res["visits"] == [[] for _ in items]


def test_calibration_scales_times_to_the_reference_speed(monkeypatch):
    class Fake:
        def op(self, item):
            return item, 0.004, 0.006

        def check(self, item, answer):
            assert answer == item

    speeds = iter([1 * run.UNIT_REF_S, 3 * run.UNIT_REF_S])
    monkeypatch.setattr(run, "calibrate", lambda: next(speeds))
    res = run.measure(Fake(), ["a", "b"], 0.0)  # one op between the two blocks
    assert res["visits"] == [[(0.005, 0.002, 0.003)], []]  # the blocks average 2x the reference
    assert res["wall"] == [0.01]


def test_every_checked_visit_is_kept_per_item(monkeypatch):
    class Fake:
        def __init__(self):
            self.n = 0

        def op(self, item):
            self.n += 1
            return item, 1.0 * self.n, 0.0

        def check(self, item, answer):
            assert answer == item

    monkeypatch.setattr(run, "calibrate", lambda: run.UNIT_REF_S)
    res = run.measure(Fake(), ["a", "b", "c"], 0.02)
    assert res["attempted"] >= 4
    for k, visits in enumerate(res["visits"]):
        n = len(range(k, res["attempted"], 3))
        assert [v[1] for v in visits] == [1.0 + k + 3 * j for j in range(n)]


def test_stream_check_fails_on_a_missing_or_short_enumeration():
    workload = TINY["intersect-stream"]()
    item = next(i for i in workload.setup(4) if any(ok for _, ok in i.probes))
    report, summary, last = workload.op(item)[0]
    workload.check(item, (report, summary, last))
    empty = tuple((r, (), done) for r, _, done in summary)
    with pytest.raises(workloads.CheckFailed):
        workload.check(item, (report, empty, last))
    _, stages = sf.intersect_stages(item.h1, item.h2, max_radius=item.radius)
    with pytest.raises(workloads.CheckFailed):  # stage 0 misses the probe commutators
        workload.check(item, (report, summary, next(stages).automaton))


def test_tail_has_ten_samples_beyond_it_up_to_p99():
    value, pct = run.tail(sorted(range(1, 101)))
    assert value == 90 and pct == 90.0
    value, pct = run.tail(sorted(range(1, 10001)))
    assert value == 9900 and pct == 99.0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
