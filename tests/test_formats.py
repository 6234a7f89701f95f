import networkx as nx
import pytest

from twowalk import (
    FormatError,
    IntMatrix,
    adjacency_matrix,
    graph_from_edges,
    parse_edgelist,
    parse_graph6,
    parse_matrix_json,
    parse_matrix_text,
    read_graph,
    read_matrix,
    square,
    to_edgelist,
    to_graph6,
    to_matrix_json,
    to_matrix_text,
)
from twowalk.formats import detect_graph_format, write_graph, write_matrix
from conftest import all_graphs, cycle, empty, random_graph


class TestGraph6:
    def test_known_encodings(self):
        assert to_graph6(empty(0)) == "?"
        assert to_graph6(empty(1)) == "@"
        assert to_graph6(graph_from_edges(2, [(0, 1)])) == "A_"
        assert to_graph6(cycle(5)) == "Dhc"

    def test_roundtrip_exhaustive_small(self):
        for n in range(6):
            for G in all_graphs(n):
                assert parse_graph6(to_graph6(G)) == G

    def test_cross_check_networkx(self, rng):
        for n in (7, 11, 23):
            for _ in range(25):
                G = random_graph(rng, n)
                g6 = to_graph6(G)
                NG = nx.from_graph6_bytes(g6.encode())
                assert {frozenset(e) for e in NG.edges()} == {frozenset(e) for e in G.edges}
                assert nx.to_graph6_bytes(NG, header=False).decode().strip() == g6

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<Dhc") == cycle(5)

    def test_big_n_size_field(self):
        G = empty(100)
        s = to_graph6(G)
        assert s[0] == "~"
        assert parse_graph6(s) == G

    def test_invalid_byte(self):
        with pytest.raises(FormatError, match="invalid graph6 byte"):
            parse_graph6("D\x1fc")

    def test_truncated_body(self):
        with pytest.raises(FormatError, match="too short"):
            parse_graph6("D")


class TestEdgeList:
    def test_roundtrip(self):
        G = graph_from_edges(5, [(0, 1), (2, 4)])
        assert parse_edgelist(to_edgelist(G)) == G

    def test_comments_and_blanks(self):
        text = "# a graph\n\n3\n0 1  # chord\n\n1 2\n"
        assert parse_edgelist(text) == graph_from_edges(3, [(0, 1), (1, 2)])

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("2\n0 0\n")
        with pytest.raises(FormatError, match="line 3"):
            parse_edgelist("2\n0 1\n0 5\n")
        with pytest.raises(FormatError, match="empty"):
            parse_edgelist("   \n# nothing\n")


class TestMatrixFormats:
    def test_json_roundtrip(self):
        M = square(adjacency_matrix(cycle(6)))
        assert parse_matrix_json(to_matrix_json(M)) == M

    def test_text_roundtrip(self):
        M = square(adjacency_matrix(cycle(6)))
        assert parse_matrix_text(to_matrix_text(M)) == M

    def test_json_rejects_ragged(self):
        with pytest.raises(FormatError, match="length") as exc:
            parse_matrix_json("[[1,2],[3]]")
        assert str(exc.value) == "matrix JSON: row 2 has length 1, expected 2"

    def test_json_rejects_non_integer(self):
        with pytest.raises(FormatError, match="not an integer"):
            parse_matrix_json("[[1.5]]")

    def test_json_rejects_negative(self):
        with pytest.raises(FormatError, match="negative"):
            parse_matrix_json("[[0,-1],[-1,0]]")

    def test_text_rejects_negative(self):
        with pytest.raises(FormatError) as exc:
            parse_matrix_text("2\n0 -1\n-1 0\n")
        assert str(exc.value) == "matrix text: entry at row 1, column 2 is negative: -1"

    def test_text_dimension_mismatch(self):
        with pytest.raises(FormatError, match="expected 3 matrix rows"):
            parse_matrix_text("3\n1 2 3\n4 5 6\n")

    def test_text_row_width(self):
        with pytest.raises(FormatError, match="expected 2 entries"):
            parse_matrix_text("2\n1 2\n3\n")


class TestDetection:
    def test_graph6_detected(self):
        assert detect_graph_format(to_graph6(cycle(5))) == "graph6"

    def test_header_detected(self):
        # '>' lies below the graph6 byte range: the header alone decides
        assert detect_graph_format(">>graph6<<Dhc\n") == "graph6"
        assert read_graph(">>graph6<<Dhc\n") == cycle(5)

    def test_edgelist_detected(self):
        assert detect_graph_format("3\n0 1\n") == "edgelist"
        assert detect_graph_format("# comment first\n3\n0 1\n") == "edgelist"

    def test_read_graph_auto(self):
        assert read_graph(to_graph6(cycle(4))) == cycle(4)
        assert read_graph(to_edgelist(cycle(4))) == cycle(4)

    def test_read_matrix_auto(self):
        M = IntMatrix.from_rows([[2, 1], [1, 2]])
        assert read_matrix(to_matrix_json(M)) == M
        assert read_matrix(to_matrix_text(M)) == M
        assert read_matrix(to_matrix_json(M), filename="m.json") == M


class TestFormatErrors:
    """Each malformed input raises FormatError naming where it went wrong:
    (parser, text, message start, line, byte)."""

    CASES = [
        (parse_graph6, "~~??", "truncated graph6 size field", 1, 4),
        (parse_graph6, "~??", "truncated graph6 size field", 1, 3),
        (parse_graph6, "Bw?", "graph6 body too long for n=3", 1, 3),
        (parse_graph6, "   ", "empty graph6 input", 1, None),
        (parse_edgelist, "1 2\n0 1\n", "first line must be the vertex count alone", 1, None),
        (parse_edgelist, "x\n", "invalid vertex count 'x'", 1, None),
        (parse_edgelist, "-1\n", "negative vertex count -1", 1, None),
        (parse_edgelist, "3\n0 1 2\n", "expected 'i j', got '0 1 2'", 2, None),
        (parse_edgelist, "3\n0 a\n", "non-integer endpoint in '0 a'", 2, None),
        (parse_edgelist, "3\n# c\n0 3\n", "bad edge (0,3) for n=3", 3, None),
        (parse_matrix_text, "", "empty matrix input", 1, None),
        (parse_matrix_text, "2 2\n", "first line must be the dimension alone", 1, None),
        (parse_matrix_text, "x\n", "invalid dimension 'x'", 1, None),
        (parse_matrix_text, "-1\n", "negative dimension -1", 1, None),
        (parse_matrix_text, "2\n0 1\n", "expected 2 matrix rows, got 1", 1, None),
        (parse_matrix_text, "2\n0 1\n1 x\n", "non-integer entry in row '1 x'", 3, None),
        (parse_matrix_json, "[[1,2]", "invalid JSON: Expecting ',' delimiter", 1, 7),
        (parse_matrix_json, "\n\n[[1],", "invalid JSON: Expecting value", 3, 6),
        (parse_matrix_json, "{}", "matrix JSON: expected an array of arrays", None, None),
        (parse_matrix_json, "[1,2]", "matrix JSON: expected an array of arrays", None, None),
    ]

    @pytest.mark.parametrize("parse, text, message, line, byte", CASES,
                             ids=[f"{c[0].__name__}-{c[1]!r}" for c in CASES])
    def test_error_names_its_place(self, parse, text, message, line, byte):
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert str(exc.value).startswith(message)
        assert (exc.value.line, exc.value.byte) == (line, byte)

    @pytest.mark.parametrize("call, name", [
        (lambda: read_graph("3\n", "dot"), "unknown graph format 'dot'"),
        (lambda: write_graph(cycle(3), "dot"), "unknown graph format 'dot'"),
        (lambda: read_matrix("[[0]]", "csv"), "unknown matrix format 'csv'"),
        (lambda: write_matrix(IntMatrix.zeros(1), "csv"), "unknown matrix format 'csv'"),
    ], ids=["read_graph", "write_graph", "read_matrix", "write_matrix"])
    def test_unknown_format_name(self, call, name):
        with pytest.raises(FormatError) as exc:
            call()
        assert str(exc.value) == name

    def test_write_graph_edgelist_roundtrip(self):
        G = graph_from_edges(5, [(0, 1), (2, 4), (1, 3)])
        text = write_graph(G, "edgelist")
        assert text == "5\n0 1\n1 3\n2 4\n"
        assert read_graph(text, "edgelist") == G
