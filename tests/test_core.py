import ast
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twowalk import (
    DimensionMismatch,
    Graph,
    IntMatrix,
    Permutation,
    adjacency_matrix,
    apply_similarity,
    degree_sequence,
    graph_from_edges,
    permute_graph,
    square,
)
from conftest import all_graphs, complete, cycle, empty, path, two_walk_count_oracle


class TestGraphFromEdges:
    def test_triangle(self):
        G = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert G.n == 3 and G.num_edges == 3

    def test_empty(self):
        G = graph_from_edges(4, [])
        assert G.n == 4 and G.num_edges == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_edges(3, [(0, 3)])

    def test_duplicates_and_orientation_collapse(self):
        G = graph_from_edges(3, [(1, 0), (0, 1), (0, 1)])
        assert G.sorted_edges() == [(0, 1)]

    @pytest.mark.parametrize("endpoint", [1.5, 1.0, True])
    def test_non_integer_endpoint_rejected(self, endpoint):
        # a float endpoint used to be kept, then written by to_graph6 as
        # the empty graph; bool is excluded as IntMatrix excludes it
        with pytest.raises(ValueError, match="not an integer"):
            Graph(3, [(0, endpoint)])
        with pytest.raises(ValueError, match="not an integer"):
            graph_from_edges(3, [(endpoint, 2)])
        with pytest.raises(ValueError, match="not an integer"):
            Graph(3, [(0, str(endpoint))])

    def test_reversed_pair_points_to_graph_from_edges(self):
        with pytest.raises(ValueError, match=r"edge \(1,0\) is not ordered i < j; graph_from_edges"):
            Graph(3, [(1, 0)])
        assert graph_from_edges(3, [(1, 0)]) == Graph(3, [(0, 1)])

    def test_int_subclass_endpoint_accepted(self):
        class Label(int):
            pass

        assert Graph(3, [(Label(0), Label(2))]).sorted_edges() == [(0, 2)]

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        # the first two used to raise Python's unpacking message, 5 a
        # TypeError from making it a tuple
        message = re.escape(f"edge {edge!r} is not a pair of vertices")
        with pytest.raises(ValueError, match=message):
            Graph(3, [edge])
        with pytest.raises(ValueError, match=message):
            Graph(3, frozenset([edge]))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
            Graph(-1, [])

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
    def test_non_integer_vertex_count_rejected(self, n):
        # Graph(2.5, [(0, 1)]) used to build, and to_graph6 and
        # adjacency_matrix then raised TypeError; bool is excluded as for
        # endpoints
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Graph(n, [(0, 1)])
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            graph_from_edges(n, [])


class TestValueTypesAreFrozen:
    """Each value type copies what it was given into immutable containers,
    so mutating the source changes nothing and every instance hashes."""

    def test_matrix_rows_from_lists(self):
        source = [[1, 0, 1], [0, 2, 0], [1, 0, 1]]
        M = IntMatrix(source)
        source[0][1] = 5
        source.append([0, 0, 0])
        assert M.rows == ((1, 0, 1), (0, 2, 0), (1, 0, 1))
        assert hash(M) == hash(IntMatrix.from_rows([[1, 0, 1], [0, 2, 0], [1, 0, 1]]))
        with pytest.raises(TypeError):
            M.rows[0][1] = 5

    def test_graph_edges_from_a_list(self):
        source = [(0, 1), (1, 2)]
        G = Graph(3, source)
        source.append((0, 2))
        assert G.edges == frozenset({(0, 1), (1, 2)})
        assert hash(G) == hash(graph_from_edges(3, [(2, 1), (1, 0)]))
        assert Graph(3, [[0, 1]]).edges == frozenset({(0, 1)})

    def test_permutation_mapping_from_a_list(self):
        source = [2, 0, 1]
        p = Permutation(source)
        source[0] = 1
        assert p.mapping == (2, 0, 1)
        assert hash(p) == hash(Permutation((2, 0, 1)))


class TestAdjacencyMatrix:
    def test_triangle(self):
        assert adjacency_matrix(cycle(3)).to_lists() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_empty_two(self):
        assert adjacency_matrix(empty(2)).to_lists() == [[0, 0], [0, 0]]

    def test_path(self):
        assert adjacency_matrix(path(3)).to_lists() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def reference_square(rows):
    """M·M by the textbook triple loop over every (i, j, k)."""
    n = len(rows)
    return [[sum(rows[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def sparse_int_matrices(draw):
    """Square nonsymmetric matrices, n = 0..7, mostly zeros, with some
    all-zero rows and entries from 0..9 and from beyond 2^63."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(0, 9), st.integers(2**63, 2**70))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, 6))):
        if i < n:
            rows[i] = [0] * n
    return rows


class TestSquare:
    def test_triangle(self):
        assert square(adjacency_matrix(cycle(3))).to_lists() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]

    def test_path_matches_oracle(self):
        G = path(3)
        assert square(adjacency_matrix(G)).to_lists() == two_walk_count_oracle(G)
        assert square(adjacency_matrix(G)).to_lists() == [[1, 0, 1], [0, 2, 0], [1, 0, 1]]

    def test_zero_matrix(self):
        assert square(IntMatrix.zeros(3)) == IntMatrix.zeros(3)

    def test_general_product_not_just_symmetric(self):
        M = IntMatrix.from_rows([[1, 2], [0, 1]])
        assert square(M).to_lists() == [[1, 4], [0, 1]]

    @pytest.mark.parametrize("n", range(6))
    def test_two_walk_oracle_exhaustive(self, n):
        # n=6 is covered by the acceptance suite
        for G in all_graphs(n):
            assert square(adjacency_matrix(G)).to_lists() == two_walk_count_oracle(G)

    def test_trace_is_twice_edge_count(self):
        for n in range(6):
            for G in all_graphs(n):
                assert square(adjacency_matrix(G)).trace() == 2 * G.num_edges

    @given(st.lists(st.lists(st.integers(0, 9), min_size=5, max_size=5), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_input_gives_symmetric_square(self, rows):
        sym = [[rows[min(i, j)][max(i, j)] for j in range(5)] for i in range(5)]
        M = IntMatrix.from_rows(sym)
        assert M.is_symmetric()
        assert square(M).is_symmetric()

    @given(sparse_int_matrices())
    @example([])
    @example([[0, 2**64 + 1], [0, 0]])
    @example([[2**63, 0, 3], [0, 0, 0], [1, 2**70, 0]])
    @settings(max_examples=150, deadline=None)
    def test_matches_triple_loop(self, rows):
        S = square(IntMatrix.from_rows(rows))
        assert S.to_lists() == reference_square(rows)
        assert all(type(x) is int for row in S.rows for x in row)


class TestIntMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="length"):
            IntMatrix.from_rows([[0, 1], [1]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            IntMatrix.from_rows([[0, -1], [-1, 0]])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix.from_rows([[0.5]])

    @pytest.mark.parametrize("rows, message", [
        (((0, 1), (1,)), "row 2 has length 1, expected 2"),
        (((0.5,),), "entry at row 1, column 1 is not an integer"),
        (((0, True), (True, 0)), "entry at row 1, column 2 is not an integer"),
        (((0, 1), (1, -3)), "entry at row 2, column 2 is negative: -3"),
    ])
    def test_messages_use_one_indexed_positions(self, rows, message):
        with pytest.raises(ValueError) as exc:
            IntMatrix(rows)
        assert str(exc.value) == message

    def test_symmetry_probe(self):
        assert IntMatrix.from_rows([[0, 2], [2, 0]]).is_symmetric()
        assert not IntMatrix.from_rows([[0, 2], [1, 0]]).is_symmetric()


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("images", [(1.0, 0.0), (True, False), (0, 2.0, 1), ("1", "0")])
    def test_non_integer_images_rejected(self, images):
        # sorted((1.0, 0.0)) == [0, 1], so a float permutation used to build
        # and apply_similarity then raised TypeError
        with pytest.raises(ValueError, match="images must be integers"):
            Permutation(images)

    def test_int_subclass_images_accepted(self):
        class Label(int):
            pass

        p = Permutation((Label(1), Label(0)))
        assert p == Permutation((1, 0))
        assert apply_similarity(IntMatrix.from_rows([[1, 0], [0, 2]]), p).diagonal() == (2, 1)

    def test_inverse_composes_to_identity(self):
        p = Permutation((2, 0, 1, 3))
        assert p.compose(p.inverse()) == Permutation.identity(4)
        assert p.inverse().compose(p) == Permutation.identity(4)

    def test_cycle_string(self):
        assert Permutation((1, 0, 2)).cycle_string() == "(0 1)"
        assert Permutation.identity(3).cycle_string() == "id"

    def test_compose_size_mismatch(self):
        with pytest.raises(DimensionMismatch, match="composing permutations of sizes 2 and 3"):
            Permutation.identity(2).compose(Permutation.identity(3))

    def test_repr(self):
        assert repr(Permutation((2, 0, 1))) == "Permutation([2, 0, 1])"


class TestApplySimilarity:
    def test_identity_law(self):
        M = square(adjacency_matrix(cycle(5)))
        assert apply_similarity(M, Permutation.identity(5)) == M

    def test_path_swap_automorphism(self):
        M = adjacency_matrix(path(3))
        assert apply_similarity(M, Permutation((2, 1, 0))) == M

    def test_diagonal_cyclic_shift(self):
        M = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        p = Permutation((1, 2, 0))
        # entry (i,i) of the result is M[p(i)][p(i)]
        assert apply_similarity(M, p).diagonal() == (2, 3, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_similarity(IntMatrix.zeros(3), Permutation.identity(2))

    def test_permute_graph_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="graph of size 3 vs permutation of size 2"):
            permute_graph(path(3), Permutation.identity(2))

    @given(st.permutations(list(range(8))), st.permutations(list(range(8))))
    @settings(max_examples=60, deadline=None)
    def test_group_action_laws(self, pa, qa):
        M = square(adjacency_matrix(graph_from_edges(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (5, 6), (6, 7), (0, 7)])))
        p = Permutation(tuple(pa))
        q = Permutation(tuple(qa))
        lhs = apply_similarity(apply_similarity(M, p), q)
        rhs = apply_similarity(M, p.compose(q))
        assert lhs == rhs
        assert apply_similarity(M, Permutation.identity(8)) == M

    def test_graph_relabel_consistency(self):
        G = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        p = Permutation((4, 2, 0, 1, 3))
        assert adjacency_matrix(permute_graph(G, p)) == apply_similarity(adjacency_matrix(G), p)


class TestDegreeSequence:
    def test_examples(self):
        assert degree_sequence(cycle(3)) == [2, 2, 2]
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert degree_sequence(star) == [3, 1, 1, 1]
        assert degree_sequence(empty(4)) == [0, 0, 0, 0]

    def test_sum_is_twice_edges(self):
        for G in all_graphs(5):
            assert sum(degree_sequence(G)) == 2 * G.num_edges

    def test_complete_graph(self):
        assert degree_sequence(complete(5)) == [4] * 5


def _imported_modules(path):
    """Every module ``path`` imports from, relative imports resolved
    within the ``twowalk`` package."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "twowalk" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("name", ["core.py", "iso.py"])
def test_no_import_from_analysis(name):
    # the symmetry verdict is the matrix's own: neither module needs analysis
    path = Path(__file__).resolve().parents[1] / "src" / "twowalk" / name
    assert "twowalk.analysis" not in _imported_modules(path)


def test_only_kept_touches_an_instance_dict():
    # one memo convention: what a module keeps on a Graph or IntMatrix
    # goes through core._kept (a class's own values are cached_property)
    where = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "twowalk").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Attribute) and node.attr == "__dict__" for node in ast.walk(fn)
            ):
                where.add(f"{path.stem}.{fn.name}")
    assert where == {"core._kept"}


# Library names that nothing in src/ or perfbench/ uses and that are
# kept on purpose, each with its reason.
KEPT_API = {
    "zeros": "tests",  # IntMatrix.zeros
    "entry": "tests",  # IntMatrix.entry
    "components": "tests",  # IndexPartition.components
    "identity": "README",  # Permutation.identity: the similarity laws
    "compose": "README",  # Permutation.compose: the similarity laws
}


def _unused_definitions(root: Path) -> set[str]:
    """Non-dunder functions, classes and methods of ``root/src/twowalk``
    whose name is neither loaded in src/ outside the definition itself
    nor in ``root/perfbench/*.py``.  Matching is by name alone, so one
    use of a name keeps every definition of it (``_Refined.trace`` keeps
    ``IntMatrix.trace``)."""
    defs, uses = [], []
    for path in sorted((root / "src" / "twowalk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree]
        while scopes:
            for node in scopes.pop().body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((node.name, path, node.lineno, node.end_lineno))
                    if isinstance(node, ast.ClassDef):
                        scopes.append(node)
        uses += [(name, path, node.lineno) for node, name in _loads(tree)]
    outside = {name for path in (root / "perfbench").glob("*.py")
               for _, name in _loads(ast.parse(path.read_text(encoding="utf-8")))}
    return {
        name for name, path, start, end in defs
        if not (name.startswith("__") and name.endswith("__")) and name not in outside
        and not any(n == name and (p != path or not start <= line <= end) for n, p, line in uses)
    }


def _loads(tree):
    """(node, name) of every name and attribute that ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node, node.attr


def test_no_dead_library_names():
    import twowalk

    unused = _unused_definitions(Path(__file__).resolve().parents[1])
    assert unused - set(twowalk.__all__) - set(KEPT_API) == set()
    # every kept name is still otherwise unused, so the list stays short
    assert set(KEPT_API) <= unused
