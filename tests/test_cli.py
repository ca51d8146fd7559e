import json

import pytest

from stallings_fta.cli import main
from stallings_fta.syntax import (
    MAX_WORD_LETTERS,
    ProblemParseError,
    format_problem,
    parse_element,
    parse_problem,
)

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

    def test_identity_and_scalar_tail(self):
        problem = parse_problem("group F1 x Z\nH: 1, x1 t^3\n")
        gens = problem.subgroup("H")
        assert gens[0].is_identity()
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

    def test_tree_strategy_flag(self, index_file, capsys):
        assert main(["--tree", "first-seen", "basis", index_file, "H"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 4
