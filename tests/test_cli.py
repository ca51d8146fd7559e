import hashlib
import json

import pytest

from stallings_fta import cli, enriched, intersection, words
from stallings_fta.cli import main
from stallings_fta.syntax import (
    MAX_RANK,
    MAX_WORD_LETTERS,
    ProblemParseError,
    parse_element,
    parse_problem,
)
from support import format_problem

MOLDAVANSKI = """\
# Moldavanski's example
group F2 x Z
H1: x1 t^(1), x2
H2: x1, x2
"""

CASE1 = """\
group F2 x Z^2
H1: x1^3 t^(1,0), x2 x1, x2^3 x1 x2^-2, t^(0,6)
H2: x1^2 t^(0,1), x2 x1 x2^-1, t^(3,-3)
"""

INDEX_EXAMPLE = """\
group F2 x Z
H: x1^2, x2, x1 x2 x1^-1, t^(2)
"""


@pytest.fixture
def moldavanski_file(tmp_path):
    path = tmp_path / "moldavanski.txt"
    path.write_text(MOLDAVANSKI)
    return str(path)


@pytest.fixture
def case1_file(tmp_path):
    path = tmp_path / "case1.txt"
    path.write_text(CASE1)
    return str(path)


@pytest.fixture
def index_file(tmp_path):
    path = tmp_path / "index.txt"
    path.write_text(INDEX_EXAMPLE)
    return str(path)


class TestParsing:
    def test_roundtrip(self):
        problem = parse_problem(CASE1)
        again = parse_problem(format_problem(problem))
        assert again == problem

    def test_roundtrip_torsion(self):
        text = "group F1 x Z x Z/2Z x Z/4Z\nH: x1 t^(1,1,3), t^(0,2,0)\n"
        problem = parse_problem(text)
        assert problem.ambient.abelian.torsion == (2, 4)
        assert parse_problem(format_problem(problem)) == problem

    def test_case1_data(self):
        problem = parse_problem(CASE1)
        h1 = problem.subgroup("H1")
        assert [g.word for g in h1] == [
            (1, 1, 1), (2, 1), (2, 2, 2, 1, -2, -2), ()
        ]
        assert h1[0].vec == (1, 0)
        assert h1[3].vec == (0, 6)

    def test_empty_subgroup(self):
        problem = parse_problem("group F2 x Z\nH:\n")
        assert problem.subgroup("H") == ()

    def test_arity_mismatch_reports_location(self):
        with pytest.raises(ProblemParseError) as err:
            parse_problem("group F2 x Z^2\nH: x1 t^(1)\n")
        assert err.value.line == 2 and err.value.col > 0

    def test_unknown_generator(self):
        with pytest.raises(ProblemParseError):
            parse_problem("group F2 x Z\nH: x3\n")

    def test_torsion_violation(self):
        with pytest.raises(ProblemParseError):
            parse_problem("group F1 x Z/4Z x Z/6Z\nH:\n")

    def test_huge_exponent_rejected_before_expansion(self):
        with pytest.raises(ProblemParseError):
            parse_problem("group F2 x Z\nH: x1^1000000000\n")
        ambient = parse_problem(MOLDAVANSKI).ambient
        half = MAX_WORD_LETTERS // 2 + 1
        with pytest.raises(ProblemParseError):
            parse_element(f"x1^{half} x2^-{half}", ambient)

    def test_letter_budget_spans_the_whole_file(self, tmp_path, capsys):
        half = MAX_WORD_LETTERS // 2 + 1  # each element fits, the two do not
        line = f"H: x1^{half}, x2^{half}"
        with pytest.raises(ProblemParseError, match="letters") as info:
            parse_problem(f"group F2 x Z\n{line}\n")
        assert (info.value.line, info.value.col) == (2, line.index("x2") + 1)
        path = tmp_path / "long.txt"
        path.write_text(f"group F2 x Z\n{line}\n")
        assert main(["index", str(path), "H"]) == 2
        assert "line 2" in capsys.readouterr().err
        inside = MAX_WORD_LETTERS // 2  # both together fill the budget exactly
        gens = parse_problem(f"group F2 x Z\nH: x1^{inside}, x2^{inside}\n").subgroup("H")
        assert [len(g.word) for g in gens] == [inside, inside]

    @pytest.mark.parametrize("group", [f"F{MAX_RANK + 1} x Z", f"F2 x Z^{MAX_RANK + 1}",
                                       f"F2 x Z^{MAX_RANK} x Z/2Z"])
    def test_rank_above_bound_rejected(self, group):
        with pytest.raises(ProblemParseError, match=f"above {MAX_RANK}") as info:
            parse_problem(f"# ranks\ngroup {group}\nH: x1\n")
        assert info.value.line == 2
        ambient = parse_problem(f"group F{MAX_RANK} x Z^{MAX_RANK}\n").ambient
        assert (ambient.n, ambient.m) == (MAX_RANK, MAX_RANK)

    @pytest.mark.parametrize("token", ["x1^", "t^", "t^(1,", "x"])
    def test_oversized_literal_reports_position(self, token):
        digits = "7" * 5000  # past the interpreter's integer-string limit
        tail = ")" if "(" in token else ""
        with pytest.raises(ProblemParseError, match="5000 digits") as info:
            parse_problem(f"group F2 x Z^2\nH: x2,  {token}{digits}{tail}\n")
        assert (info.value.line, info.value.col) == (2, 9)
        with pytest.raises(ProblemParseError, match="5000 digits") as info:
            parse_problem(f"group F{digits}\n")
        assert info.value.line == 1

    @pytest.mark.parametrize("token, col", [
        ("x\u0661", 9),           # ARABIC-INDIC DIGIT ONE
        ("x1^\u0663", 9),
        ("t^(\u0663,0)", 9),
        ("t^\uff13", 9),          # FULLWIDTH DIGIT THREE
    ])
    def test_non_ascii_digit_token_rejected(self, token, col):
        with pytest.raises(ProblemParseError, match="cannot read token") as info:
            parse_problem(f"group F2 x Z^2\nH: x2,  {token}\n")
        assert (info.value.line, info.value.col) == (2, col)

    @pytest.mark.parametrize("line, col", [
        ("H1: x9", 5),
        ("H1 : x9", 6),
        ("  H1   :   x9", 12),
    ])
    def test_column_counts_from_the_colon(self, line, col):
        with pytest.raises(ProblemParseError, match="generator x9 out of range") as info:
            parse_problem(f"group F2 x Z\n{line}\n")
        assert (info.value.line, info.value.col) == (2, col)

    @pytest.mark.parametrize("group", ["F\u0662 x Z", "F2 x Z^\u0662", "F2 x Z/\u0666Z"])
    def test_non_ascii_digit_group_rejected(self, group):
        with pytest.raises(ProblemParseError) as info:
            parse_problem(f"# ranks\ngroup {group}\nH: x1\n")
        assert (info.value.line, info.value.col) == (2, 1)

    def test_identity_and_scalar_tail(self):
        problem = parse_problem("group F1 x Z\nH: 1, x1 t^3\n")
        gens = problem.subgroup("H")
        assert gens[0] == problem.ambient.identity()
        assert gens[1].vec == (3,)


class TestCommands:
    def test_member(self, moldavanski_file, capsys):
        assert main(["member", moldavanski_file, "H1", "x1 t^(1)"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["member", moldavanski_file, "H1", "x1"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_basis_json(self, moldavanski_file, capsys):
        assert main(["basis", moldavanski_file, "H1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["free_part"] == ["x1 t^(1)", "x2"]
        assert payload["abelian_part"] == []
        assert payload["rank"] == 2

    def test_intersect_moldavanski(self, moldavanski_file, capsys):
        assert main(["intersect", moldavanski_file, "H1", "H2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "not-finitely-generated"
        assert payload["deltas"] == [1, 0]
        assert payload["D"] == [[1], [0]]
        assert payload["M"] == [[0, 1]]
        assert payload["rank"] == "infinity"
        assert payload["truncated"] is True
        assert "x2" in payload["basis_prefix"]

    def test_intersect_builds_one_report(self, moldavanski_file, capsys, monkeypatch):
        calls = []
        real = intersection.intersection_matrices

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "intersection_matrices", counted)
        monkeypatch.setattr(intersection, "intersection_matrices", counted)
        assert main(["intersect", moldavanski_file, "H1", "H2"]) == 0
        assert len(calls) == 1
        assert "x2" in json.loads(capsys.readouterr().out)["basis_prefix"]

    @pytest.mark.parametrize("dot", [False, True])
    def test_non_fg_intersect_builds_one_stage_automaton(
        self, moldavanski_file, capsys, monkeypatch, dot
    ):
        built = []
        real = intersection._ExpansionStream._automaton

        def counted(stream, *args):
            built.append(args)
            return real(stream, *args)

        monkeypatch.setattr(intersection._ExpansionStream, "_automaton", counted)
        argv = ["intersect", moldavanski_file, "H1", "H2", "--max-radius", "5"]
        assert main(argv + (["--dot"] if dot else [])) == 0
        assert len(built) == 1
        out = capsys.readouterr().out
        assert out.startswith("digraph") if dot else json.loads(out)["max_radius"] == 5

    def test_huge_free_rank_fails_fast(self, tmp_path, capsys, monkeypatch):
        orders = []
        real = words.default_order

        def recorded(n):
            orders.append(n)
            assert n <= MAX_RANK, "a letter order of the huge rank was built"
            return real(n)

        for module in (words, enriched):
            monkeypatch.setattr(module, "default_order", recorded)
        path = tmp_path / "huge.txt"
        path.write_text("group F100000000 x Z\nH: x1 t^1, x2\n")
        assert main(["basis", str(path), "H"]) == 2
        assert capsys.readouterr().err == (
            f"error: line 1, col 1: free rank 100000000 is above {MAX_RANK}\n"
        )
        assert orders == []

    @pytest.mark.parametrize("dot, builds", [(False, 1), (True, 0)])
    def test_intersect_builds_m_for_json_only(
        self, case1_file, capsys, monkeypatch, dot, builds
    ):
        # --dot prints no "M", so it never builds the r x r preimage lattice
        calls = []
        real = intersection.preimage_under_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(intersection, "preimage_under_matrix", counted)
        argv = ["intersect", case1_file, "H1", "H2"] + (["--dot"] if dot else [])
        assert main(argv) == 0
        assert len(calls) == builds
        out = capsys.readouterr().out
        assert out.startswith("digraph") if dot else "M" in json.loads(out)

    def test_intersect_strict_truncation(self, moldavanski_file):
        assert main(
            ["intersect", moldavanski_file, "H1", "H2", "--max-radius", "2", "--strict"]
        ) == 3

    def test_intersect_case1(self, case1_file, capsys):
        assert main(["intersect", case1_file, "H1", "H2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "finitely-generated"
        assert payload["deltas"] == [1, 6]
        assert payload["rank"] == 7
        assert len(payload["basis"]) == 7

    def test_torsion_intersect_basis(self, tmp_path, capsys):
        path = tmp_path / "torsion.txt"
        path.write_text(
            "group F1 x Z x Z/4Z\nH: x1 t^(1,1), t^(0,2)\nK: x1 t^(1,3)\n"
        )
        assert main(["intersect", str(path), "H", "K"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "finitely-generated"
        # no vacuous generators from the torsion relation lattice
        assert payload["basis"] == ["x1 t^(1,3)"]

    def test_index_and_transversal(self, index_file, capsys):
        assert main(["index", index_file, "H"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": 1, "free_index": 2, "abelian_index": 2, "total": 4,
        }
        assert main(["transversal", index_file, "H"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["1", "x1", "t^(1)", "x1 t^(1)"]

    def test_transversal_limit_infinite(self, moldavanski_file, capsys):
        assert main(["transversal", moldavanski_file, "H1", "--limit", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert main(["transversal", moldavanski_file, "H1"]) == 2

    def test_transversal_limit_zero_prints_nothing(self, moldavanski_file, index_file, capsys):
        for path, name in ((moldavanski_file, "H1"), (index_file, "H")):
            assert main(["transversal", path, name, "--limit", "0"]) == 0
            assert capsys.readouterr().out == ""
            assert main(["transversal", path, name, "--limit", "0", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["transversal"] == [] and payload["truncated"] is True

    def test_dot(self, moldavanski_file, capsys):
        assert main(["dot", moldavanski_file, "H1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "|x1|" in out

    def test_cayley(self, case1_file, capsys):
        assert main(["cayley", case1_file, "H1", "H2"]) == 0
        out = capsys.readouterr().out
        assert out.count("w1") == 6 and out.count("w2") == 6

    @pytest.mark.parametrize("argv", [
        ["cayley", "H1", "H2", "--max-radius", "-1"],
        ["intersect", "H1", "H2", "--max-radius", "-1", "--dot"],
        ["transversal", "H1", "--limit", "-1"],
    ])
    def test_negative_radius_or_limit_exit(self, moldavanski_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], moldavanski_file] + argv[1:])
        assert exc.value.code == 2

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("group F2 x Z\nH: x9\n")
        assert main(["basis", str(path), "H"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_resource_error_exit(self, moldavanski_file, capsys, monkeypatch, error):
        # exit 1 would read as "not a member"
        def exhausted(*args):
            raise error()

        monkeypatch.setattr(cli, "cmd_member", exhausted)
        assert main(["member", moldavanski_file, "H1", "x1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_unknown_subgroup(self, moldavanski_file, capsys):
        assert main(["basis", moldavanski_file, "H9"]) == 2

    def test_determinism(self, case1_file, capsys):
        main(["intersect", case1_file, "H1", "H2"])
        first = capsys.readouterr().out
        main(["intersect", case1_file, "H1", "H2"])
        assert capsys.readouterr().out == first

    def test_order_flag(self, moldavanski_file, capsys):
        assert main(
            ["--order", "x2,x2^-1,x1,x1^-1", "basis", moldavanski_file, "H1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free_part"] == ["x2", "x1 t^(1)"]

    def test_order_flag_inverse_first(self, moldavanski_file, capsys):
        assert main(
            ["--order", "x1^-1,x1,x2,x2^-1", "basis", moldavanski_file, "H1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free_part"] == ["x1 t^(1)", "x2"]
        assert main(
            ["--order", "x2^-1,x2,x1^-1,x1", "basis", moldavanski_file, "H1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free_part"] == ["x2", "x1 t^(1)"]

    def test_order_flag_repeated_letter(self, moldavanski_file, capsys):
        assert main(["--order", "x1,x1,x2,x2^-1", "basis", moldavanski_file, "H1"]) == 2
        assert "permutation" in capsys.readouterr().err

    @pytest.mark.parametrize("letter", [
        "x" + "1" * 5000,  # past the interpreter's integer-string limit
        "x" + "0" * 4 + "12",  # more digits than MAX_RANK has
        "x\u00b2",  # SUPERSCRIPT TWO: isdigit() but not int()
        "x\u0661",  # ARABIC-INDIC DIGIT ONE: int() reads it as 1
        "y1",
    ], ids=["5000-digits", "6-digits", "superscript", "arabic-indic", "not-x"])
    def test_order_flag_bad_letter(self, moldavanski_file, capsys, letter):
        argv = ["--order", f"{letter},x1^-1,x2,x2^-1", "basis", moldavanski_file, "H1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad letter ") and "in --order" in captured.err
        assert main(["--order", f"x2,{letter}^-1,x1,x2^-1", "basis", moldavanski_file, "H1"]) == 2
        assert "bad letter" in capsys.readouterr().err

    def test_tree_strategy_flag(self, index_file, capsys):
        assert main(["--tree", "first-seen", "basis", index_file, "H"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 4

    @pytest.mark.parametrize("argv", [
        ["member", "H", "x1^2"], ["index", "H"], ["transversal", "H", "--limit", "5"],
    ])
    def test_tree_strategy_is_not_searched_where_no_tree_is_printed(
        self, index_file, capsys, monkeypatch, argv
    ):
        argv = [argv[0], index_file, *argv[1:]]
        main(argv)
        plain = capsys.readouterr().out
        strategies = []
        real = words.spanning_tree_by_order

        def counted(a, order=None, strategy="order"):
            strategies.append(strategy)
            return real(a, order, strategy)

        monkeypatch.setattr(cli, "spanning_tree_by_order", counted)
        main(["--tree", "first-seen", *argv])
        assert capsys.readouterr().out == plain
        assert strategies == []


# Stdout of the stream commands, byte for byte: the vertex numbering and
# the arc order of the DOT output are part of the published format.
MOLDAVANSKI_INTERSECT_DOT_R3 = """\
digraph intersection {
  rankdir=LR;
  node [shape=circle, label=""];
  v0 [shape=doublecircle, xlabel="L=<0>"];
  v1;
  v2;
  v3;
  v4;
  v5;
  v6;
  v0 -> v0 [label="(0)|x2|(0)"];
  v0 -> v1 [label="(0)|x1|(0)"];
  v1 -> v1 [label="(0)|x2|(0)"];
  v2 -> v0 [label="(0)|x1|(0)"];
  v2 -> v2 [label="(0)|x2|(0)"];
  v1 -> v3 [label="(0)|x1|(0)"];
  v3 -> v3 [label="(0)|x2|(0)"];
  v4 -> v2 [label="(0)|x1|(0)"];
  v4 -> v4 [label="(0)|x2|(0)"];
  v3 -> v5 [label="(0)|x1|(0)"];
  v5 -> v5 [label="(0)|x2|(0)"];
  v6 -> v4 [label="(0)|x1|(0)"];
  v6 -> v6 [label="(0)|x2|(0)"];
}

"""

MOLDAVANSKI_CAYLEY_R3 = """\
digraph cayley {
  rankdir=LR;
  node [shape=circle];
  v0 [shape=doublecircle, label="(0,0)"];
  v1 [shape=circle, label="(0,1)"];
  v2 [shape=circle, label="(0,-1)"];
  v3 [shape=circle, label="(0,2)"];
  v4 [shape=circle, label="(0,-2)"];
  v5 [shape=circle, label="(0,3)"];
  v6 [shape=circle, label="(0,-3)"];
  v0 -> v1 [label="w1"];
  v0 -> v0 [label="w2"];
  v1 -> v3 [label="w1"];
  v1 -> v1 [label="w2"];
  v2 -> v0 [label="w1"];
  v2 -> v2 [label="w2"];
  v3 -> v5 [label="w1"];
  v3 -> v3 [label="w2"];
  v4 -> v2 [label="w1"];
  v4 -> v4 [label="w2"];
  v5 -> v5 [label="w2"];
  v6 -> v4 [label="w1"];
  v6 -> v6 [label="w2"];
}
"""

CASE1_INTERSECT_DOT_SHA256 = (
    "a68ada463d96e5d0420cd4a8641418b04a9869726e878980b2dee817af6c88c0"
)

# a finitely generated intersection with torsion in D, M and the basis
TORSION_FG = """\
group F2 x Z x Z/6Z
H1: x2 t^(2,5), x2^-1 x1 t^(1,5), t^(-2,4)
H2: t^(2,5), x2 x1 t^(-2,2), x2 t^(2,1)
"""
TORSION_FG_INTERSECT_JSON_SHA256 = (
    "b5760a3fbd5c6fa749e356bc80c593d5a07fa2a756a29c008fd6fd1564cfea41"
)

# redundant conjugates of x2 powers fold onto the path x1 x1 from the
# basepoint with an x2 loop at each of its other two vertices; the basepoint
# has degree 1 and the core keeps its stem
TORSION_STEM = """\
group F2 x Z x Z/4Z
H: x1 x2 x1^-1 t^(1,2), x1 x2^3 x1^-1 t^(3,2), x1 x2^-2 x1^-1 t^(-2,0), \
x1 x2 x1 x2 x1^-1 x2^-1 x1^-1 t^(1,1), x1 x2^2 x1 x2 x1^-1 x2^-2 x1^-1 t^(0,3)
"""
TORSION_STEM_DOT_SHA256 = (
    "20e84e397c8030cdc102c16c2234668dd7944d1e386b70311ed2d1e2f14bdb49"
)
TORSION_STEM_BASIS_JSON_SHA256 = (
    "475cc723477f5f23e3d0565b1c280a37f09eef06b25ebe83d7a9cda5bd687736"
)

# not finitely generated (r = 2, s = 1); its stream's labels are nonzero
# vectors of Z + Z/6Z (m = 2), so a double label split at the wrong
# coordinate changes the labels and the basis prefix
TORSION_STREAM = """\
group F2 x Z x Z/6Z
H1: x2^-1 x1 t^(-1,5), x1 t^(0,1)
H2: x1^2 x2^-1 t^(-1,0), x1^-1 x2 t^(-3,2)
"""
TORSION_STREAM_INTERSECT_JSON_SHA256 = (
    "64e27a9b2e168ae354631d8540c41e518d1d9a88fb44d94bbfb9369dcffeb17d"
)
TORSION_STREAM_INTERSECT_DOT_SHA256 = (
    "92075aa5175884a738af6f8bc45ce47186ac4a0916885c95c0ffc41f7e8de503"
)


class TestPinnedOutput:
    def test_moldavanski_intersect_dot(self, moldavanski_file, capsys):
        argv = ["intersect", moldavanski_file, "H1", "H2", "--max-radius", "3", "--dot"]
        assert main(argv) == 0
        assert capsys.readouterr().out == MOLDAVANSKI_INTERSECT_DOT_R3

    def test_moldavanski_cayley(self, moldavanski_file, capsys):
        assert main(["cayley", moldavanski_file, "H1", "H2", "--max-radius", "3"]) == 0
        assert capsys.readouterr().out == MOLDAVANSKI_CAYLEY_R3

    def test_case1_intersect_dot(self, case1_file, capsys):
        assert main(["intersect", case1_file, "H1", "H2", "--dot"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 119
        assert hashlib.sha256(out.encode()).hexdigest() == CASE1_INTERSECT_DOT_SHA256

    def test_torsion_fg_intersect_json_under_an_order(self, tmp_path, capsys):
        path = tmp_path / "torsion_fg.txt"
        path.write_text(TORSION_FG)
        argv = ["--order", "x2^-1,x1,x2,x1^-1", "intersect", str(path), "H1", "H2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["deltas"] == [1, 6] and payload["D"] == [[0, 1], [1, -3]]
        assert payload["M"] == [[1, 4], [0, 6]] and payload["rank"] == 8
        assert payload["basis"][-1] == "t^(4,4)"
        assert hashlib.sha256(out.encode()).hexdigest() == TORSION_FG_INTERSECT_JSON_SHA256

    @pytest.mark.parametrize("command, sha256", [
        (["dot"], TORSION_STEM_DOT_SHA256),
        (["basis", "--json"], TORSION_STEM_BASIS_JSON_SHA256),
    ])
    def test_torsion_stem_under_an_order(self, tmp_path, capsys, command, sha256):
        path = tmp_path / "torsion_stem.txt"
        path.write_text(TORSION_STEM)
        argv = ["--order", "x2^-1,x1,x2,x1^-1", command[0], str(path), "H", *command[1:]]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == ["dot"]:
            assert "v0 -> v1 [label=\"(0,0)|x1|(0,0)\"];" in out and out.count("v0 ->") == 1
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("flags, sha256", [
        ([], TORSION_STREAM_INTERSECT_JSON_SHA256),
        (["--dot"], TORSION_STREAM_INTERSECT_DOT_SHA256),
    ])
    def test_torsion_stream_with_nonzero_labels(self, tmp_path, capsys, flags, sha256):
        path = tmp_path / "torsion_stream.txt"
        path.write_text(TORSION_STREAM)
        assert main(["intersect", str(path), "H1", "H2", "--max-radius", "3", *flags]) == 0
        out = capsys.readouterr().out
        if flags:
            assert 'v1 -> v3 [label="(0,0)|x1|(-1,0)"];' in out
        else:
            payload = json.loads(out)
            assert (payload["r"], payload["s"]) == (2, 1) and payload["truncated"]
            assert payload["basis_prefix"][0] == "x1^2 x2^-1 t^(-1,0)"
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_torsion_stream_basis_prefix(self, tmp_path, capsys):
        # each stage resumes the spanning tree from several older vertices;
        # the petals, and so this prefix, depend on taking them oldest first
        path = tmp_path / "torsion_stream.txt"
        path.write_text(
            "group F2 x Z x Z/6Z\n"
            "H1: x1 x2^-1 t^(-1,3), x2 t^(-2,0)\n"
            "H2: x1^-1, x2 t^(3,4)\n"
        )
        assert main(["intersect", str(path), "H1", "H2", "--max-radius", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["basis_prefix"] == [
            "x2 x1 x2^-1 x1^-1", "x2^-1 x1 x2 x1^-1",
            "x1^-1 x2 x1 x2^-1", "x1^-1 x2^-1 x1 x2",
            "x1 x2 x1 x2^-1 x1^-2", "x1 x2^-1 x1 x2 x1^-2",
            "x2^2 x1 x2^-2 x1^-1", "x2^-2 x1 x2^2 x1^-1",
            "x1^-2 x2 x1 x2^-1 x1", "x1^-2 x2^-1 x1 x2 x1",
            "x1^-1 x2^2 x1 x2^-2", "x1^-1 x2^-2 x1 x2^2",
        ]
