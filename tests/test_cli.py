import io
import json
import subprocess
import sys

import pytest

from twowalk import (
    IsoBudget,
    SearchBudget,
    adjacency_matrix,
    disjoint_union,
    graph_from_edges,
    square,
    to_edgelist,
    to_graph6,
    to_matrix_json,
    to_matrix_text,
)
from twowalk.cli import _budget, build_parser, main
from conftest import all_graphs, cycle, random_graph

INFEASIBLE_4X4_JSON = "[[2,1,1,0],[1,2,1,1],[1,1,1,0],[0,1,0,1]]"


def run(args, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


@pytest.fixture
def c3_file(tmp_path):
    p = tmp_path / "c3.txt"
    p.write_text(to_edgelist(cycle(3)))
    return str(p)


class TestSquareCommand:
    def test_edge_list_to_text_matrix(self, c3_file, capsys):
        code, out, _ = run(["square", c3_file], capsys=capsys)
        assert code == 0
        assert out == "3\n2 1 1\n1 2 1\n1 1 2\n"

    def test_graph6_stdin(self, monkeypatch, capsys):
        code, out, _ = run(["square", "-"], stdin_text=to_graph6(cycle(6)) + "\n",
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_json_output(self, c3_file, capsys):
        code, out, _ = run(["square", c3_file, "--json"], capsys=capsys)
        assert code == 0
        assert json.loads(out) == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]

    def test_empty_input_is_exit_2(self, monkeypatch, capsys):
        code, _, err = run(["square", "-"], stdin_text="", monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert "input error" in err

    def test_parse_error_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("3\n0 3\n")
        code, _, err = run(["square", str(p)], capsys=capsys)
        assert code == 2
        assert "line 2" in err


class TestAnalyzeCommand:
    def test_infeasible_4x4_exit_1_and_names_v2(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(INFEASIBLE_4X4_JSON)
        code, out, _ = run(["analyze", str(p)], capsys=capsys)
        assert code == 1
        assert "v2" in out
        assert "5/2" in out
        assert "FAIL" in out

    def test_c6_square_exit_0_two_components(self, monkeypatch, capsys):
        S = square(adjacency_matrix(cycle(6)))
        code, out, _ = run(["analyze", "-"], stdin_text=to_matrix_text(S),
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert "support components: 2" in out
        assert "bipartite or disconnected" in out

    def test_asymmetric_exit_2(self, monkeypatch, capsys):
        code, _, err = run(["analyze", "-"], stdin_text="2\n0 1\n0 0\n",
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert err == "input error: matrix is not symmetric\n"

    def test_negative_entry_exit_2(self, monkeypatch, capsys):
        code, _, err = run(["analyze", "-"], stdin_text="2\n0 -1\n-1 0\n",
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert "entry at row 1, column 2 is negative: -1" in err

    def test_json_document(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(INFEASIBLE_4X4_JSON)
        code, out, _ = run(["analyze", str(p), "--json"], capsys=capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["conditions"]["overall"] is False
        assert doc["row_sums"]["rows"][1]["avg_neighbor_degree"] == "5/2"
        assert doc["support_components"]["count"] >= 1
        assert doc["c4"]["divisible_by_four"] is True


class TestCountC4Command:
    def test_k4_square(self, monkeypatch, capsys):
        S = square(adjacency_matrix(__import__("conftest").complete(4)))
        code, out, _ = run(["count-c4", "-"], stdin_text=to_matrix_text(S),
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_non_divisible_exit_1(self, monkeypatch, capsys):
        code, out, _ = run(["count-c4", "-"], stdin_text="3\n0 2 2\n2 0 2\n2 2 0\n",
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1
        assert "3/2" in out


class TestRealizeCommand:
    def test_c5_square_realizes(self, monkeypatch, capsys):
        S = square(adjacency_matrix(cycle(5)))
        code, out, _ = run(["realize", "-"], stdin_text=to_matrix_text(S),
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert out.strip()  # a graph6 witness line

    def test_infeasible_4x4_exit_1(self, monkeypatch, capsys):
        code, out, _ = run(["realize", "-", "--format", "matrix-json"],
                           stdin_text=INFEASIBLE_4X4_JSON, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1
        assert "infeasible" in out

    def test_budget_abort_exit_3(self, monkeypatch, capsys):
        S = square(adjacency_matrix(cycle(6)))
        code, out, _ = run(["realize", "-", "--max-nodes", "5"],
                           stdin_text=to_matrix_text(S), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 3
        assert "aborted" in out

    def test_all_witnesses_json(self, monkeypatch, capsys):
        S = square(adjacency_matrix(cycle(6)))
        code, out, _ = run(["realize", "-", "--all", "--json"],
                           stdin_text=to_matrix_text(S), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["complete"] is True
        assert len(doc["witnesses"]) >= 2
        for w in doc["witnesses"]:
            assert set(w) == {"n", "edges", "graph6"}

    def test_limit(self, monkeypatch, capsys):
        S = square(adjacency_matrix(cycle(6)))
        code, out, _ = run(["realize", "-", "--limit", "1"],
                           stdin_text=to_matrix_text(S), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_limit_reached_as_the_budget_runs_out_exit_0(self, monkeypatch, capsys):
        # two five-vertex trees: the 46-node cap stops the last block
        # just after the fifth witness
        G = disjoint_union(graph_from_edges(5, [(0, 1), (0, 2), (1, 3), (3, 4)]),
                           graph_from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)]))
        text = to_matrix_text(square(adjacency_matrix(G)))
        code, out, _ = run(["realize", "-", "--limit", "5"], stdin_text=text,
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        code, capped, _ = run(["realize", "-", "--limit", "5", "--max-nodes", "46"],
                              stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert capped == out and len(out.splitlines()) == 5

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_is_an_input_error(self, limit, monkeypatch, capsys):
        S = square(adjacency_matrix(cycle(6)))
        code, out, err = run(["realize", "-", "--limit", limit],
                             stdin_text=to_matrix_text(S), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert out == ""
        assert "limit must be positive" in err


class TestFamilyCommand:
    def test_c3_k1_bundle(self, c3_file, capsys):
        code, out, _ = run(["family", c3_file, "-k", "1"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 6 and doc["k"] == 1
        assert len(doc["members"]) == 2
        assert all(not pair["isomorphic"] for pair in doc["certification"]["noniso_pairs"])

    def test_c3_k3_members(self, c3_file, capsys):
        code, out, _ = run(["family", c3_file, "-k", "3"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 18 and len(doc["members"]) == 4

    def test_bipartite_base_exit_1(self, tmp_path, capsys):
        p = tmp_path / "c6.txt"
        p.write_text(to_edgelist(cycle(6)))
        code, _, err = run(["family", str(p), "-k", "1"], capsys=capsys)
        assert code == 1
        assert "bipartite" in err

    def test_directory_output(self, c3_file, tmp_path, capsys):
        outdir = tmp_path / "bundle"
        outdir.mkdir()
        code, _, _ = run(["family", c3_file, "-k", "1", "--out", str(outdir)], capsys=capsys)
        assert code == 0
        assert (outdir / "shared_square.json").exists()
        assert (outdir / "members.g6").read_text().count("\n") == 2
        cert = json.loads((outdir / "certification.json").read_text())
        assert cert["k"] == 1


class TestGraphCommands:
    def test_double_cover(self, c3_file, capsys):
        code, out, _ = run(["double-cover", c3_file], capsys=capsys)
        assert code == 0
        assert out.strip() == to_graph6(__import__("twowalk").bipartite_double_cover(cycle(3)))

    def test_union(self, c3_file, capsys):
        code, out, _ = run(["union", c3_file, c3_file, "--json"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 6 and len(doc["edges"]) == 6

    def test_iso_negative(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(to_edgelist(__import__("twowalk").disjoint_union(cycle(3), cycle(3))))
        b.write_text(to_edgelist(cycle(6)))
        code, out, _ = run(["iso", str(a), str(b)], capsys=capsys)
        assert code == 1
        assert "not isomorphic" in out

    def test_iso_self_identity_ok(self, c3_file, capsys):
        code, out, _ = run(["iso", c3_file, c3_file], capsys=capsys)
        assert code == 0
        assert "isomorphic" in out

    def test_iso_size_mismatch_exit_1_not_2(self, tmp_path, capsys):
        # different vertex counts is a proven negative, not a parse error
        a = tmp_path / "a.txt"
        a.write_text(to_edgelist(cycle(3)))
        b = tmp_path / "b.txt"
        b.write_text(to_edgelist(cycle(4)))
        code, _, _ = run(["iso", str(a), str(b)], capsys=capsys)
        assert code == 1

    def test_similar_witness(self, tmp_path, capsys):
        A, B = __import__("twowalk").similar_square_pair()
        sa = tmp_path / "sa.json"
        sb = tmp_path / "sb.json"
        sa.write_text(to_matrix_json(square(adjacency_matrix(A))))
        sb.write_text(to_matrix_json(square(adjacency_matrix(B))))
        code, out, _ = run(["similar", str(sa), str(sb), "--json"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["similar"] is True and len(doc["permutation"]) == 12

    def test_similar_size_mismatch_exit_2(self, monkeypatch, capsys, tmp_path):
        sa = tmp_path / "sa.json"
        sa.write_text("[[0]]")
        sb = tmp_path / "sb.json"
        sb.write_text("[[0,0],[0,0]]")
        code, _, err = run(["similar", str(sa), str(sb)], capsys=capsys)
        assert code == 2
        assert "differ" in err


class TestBudgetOptions:
    def test_defaults_come_from_the_budget_types(self):
        parser = build_parser()
        assert _budget(SearchBudget, parser.parse_args(["realize", "x"])) == SearchBudget()
        assert _budget(IsoBudget, parser.parse_args(["iso", "a", "b"])) == IsoBudget()

    def test_zero_means_default_and_set_values_pass_through(self):
        parser = build_parser()
        args = parser.parse_args(["realize", "x", "--max-nodes", "0", "--max-seconds", "2.5"])
        assert _budget(SearchBudget, args) == SearchBudget(max_seconds=2.5)
        args = parser.parse_args(["iso", "a", "b", "--max-nodes", "7"])
        assert _budget(IsoBudget, args) == IsoBudget(max_nodes=7)

    @pytest.mark.parametrize("command", ["realize", "iso", "similar", "family"])
    @pytest.mark.parametrize("option", [["--max-nodes", "-5"], ["--max-seconds", "-1"],
                                        ["--max-seconds", "nan"]])
    def test_negative_limit_is_an_input_error(self, command, option, c3_file, tmp_path, capsys):
        s = tmp_path / "s.json"
        s.write_text("[[0]]")
        inputs = {"realize": [str(s)], "iso": [c3_file, c3_file],
                  "similar": [str(s), str(s)], "family": [c3_file, "-k", "1"]}[command]
        code, _, err = run([command, *inputs, *option], capsys=capsys)
        assert code == 2
        assert "must be positive" in err

    @pytest.mark.parametrize("command", ["square", "analyze", "count-c4", "double-cover", "union"])
    @pytest.mark.parametrize("option", [["--max-nodes", "-5"], ["--max-seconds", "1"]])
    def test_commands_without_a_search_refuse_budget_options(self, command, option, c3_file,
                                                             tmp_path, capsys):
        s = tmp_path / "s.json"
        s.write_text("[[0]]")
        inputs = {"square": [c3_file], "analyze": [str(s)], "count-c4": [str(s)],
                  "double-cover": [c3_file], "union": [c3_file, c3_file]}[command]
        assert main([command, *inputs]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPipelines:
    def test_square_pipes_into_realize_in_process(self, monkeypatch, capsys):
        # exhaustive n <= 5 at the CLI layer; n = 6 is spot-checked through
        # real subprocesses below and covered exhaustively at the library
        # layer by the acceptance suite
        for n in range(6):
            for G in all_graphs(n):
                g6 = to_graph6(G) + "\n"
                monkeypatch.setattr(sys, "stdin", io.StringIO(g6))
                assert main(["square", "-"]) == 0
                matrix_text, _ = capsys.readouterr()
                monkeypatch.setattr(sys, "stdin", io.StringIO(matrix_text))
                assert main(["realize", "-"]) == 0
                capsys.readouterr()

    def test_square_pipes_into_realize_subprocess(self, rng):
        for n in (5, 6):
            for _ in range(3):
                G = random_graph(rng, n)
                g6 = to_graph6(G) + "\n"
                p1 = subprocess.run([sys.executable, "-m", "twowalk.cli", "square", "-"],
                                    input=g6, capture_output=True, text=True)
                assert p1.returncode == 0, p1.stderr
                p2 = subprocess.run([sys.executable, "-m", "twowalk.cli", "realize", "-"],
                                    input=p1.stdout, capture_output=True, text=True)
                assert p2.returncode == 0, p2.stderr

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert "twowalk" in out


class TestStableContract:
    """The output schemas, options and exit codes that README documents."""

    @pytest.fixture
    def c6_square(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(to_matrix_text(square(adjacency_matrix(cycle(6)))))
        return str(p)

    @pytest.fixture
    def c6_graph(self, tmp_path):
        p = tmp_path / "c6.g6"
        p.write_text(to_graph6(cycle(6)) + "\n")
        return str(p)

    def test_realize_json_keys(self, c6_square, capsys):
        code, out, _ = run(["realize", c6_square, "--json"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"verdict", "witness", "nodes_explored", "elapsed_ms", "reason"}
        assert doc["verdict"] == "realized" and doc["reason"] is None
        assert set(doc["witness"]) == {"n", "edges", "graph6"}
        assert doc["witness"]["n"] == 6 and len(doc["witness"]["edges"]) == 6

    def test_count_c4_json(self, monkeypatch, capsys):
        S = square(adjacency_matrix(__import__("conftest").complete(4)))
        code, out, _ = run(["count-c4", "-", "--json"], stdin_text=to_matrix_text(S),
                           monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"pair_sum": 12, "divisible_by_four": True, "count": "3"}

    def test_graph_command_json_keys(self, c6_graph, capsys):
        code, out, _ = run(["double-cover", c6_graph, "--json"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n", "edges", "graph6"} and doc["n"] == 12

    def test_out_file(self, c6_graph, tmp_path, capsys):
        target = tmp_path / "sq.json"
        code, out, _ = run(["square", c6_graph, "--json", "--out", str(target)], capsys=capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text()) == square(adjacency_matrix(cycle(6))).to_lists()

    def test_graph_format_given_to_a_matrix_command(self, c6_square, capsys):
        code, out, err = run(["analyze", c6_square, "--format", "graph6"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "input error: graph6 is a graph format; this command expects a matrix\n"

    def test_matrix_format_given_to_a_graph_command(self, c6_graph, capsys):
        code, out, err = run(["square", c6_graph, "--format", "matrix-json"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "input error: matrix-json is a matrix format; this command expects a graph\n"

    def test_unreadable_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run(["analyze", str(missing)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot read {missing}")

    def test_all_stopped_by_the_budget_exit_3(self, c6_square, capsys):
        code, out, _ = run(["realize", c6_square, "--all", "--max-nodes", "5"], capsys=capsys)
        assert code == 3
        assert out.endswith("# enumeration aborted on budget\n")

    def test_all_without_witnesses_exit_1(self, tmp_path, capsys):
        p = tmp_path / "eye.json"
        p.write_text("[[1,0,0],[0,1,0],[0,0,1]]")
        code, out, _ = run(["realize", str(p), "--all"], capsys=capsys)
        assert code == 1
        assert out == "# no witnesses: matrix is not the square of any adjacency matrix\n"

    def test_iso_budget_exhausted_exit_3(self, c6_graph, capsys):
        code, out, err = run(["iso", c6_graph, c6_graph, "--max-nodes", "1"], capsys=capsys)
        assert (code, out) == (3, "")
        assert err == "budget exhausted: mapping search exceeded 1 nodes\n"
