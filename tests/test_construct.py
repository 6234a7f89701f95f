import copy
import itertools
import pickle
import random
import subprocess
import sys
from collections import Counter

import networkx as nx
import pytest

from twowalk import (
    BudgetExhausted,
    DuplicationFamily,
    Graph,
    IntMatrix,
    IsoBudget,
    Permutation,
    SearchBudget,
    adjacency_matrix,
    apply_similarity,
    are_isomorphic,
    bipartite_double_cover,
    degree_sequence,
    disjoint_union,
    duplication_family,
    graph_from_edges,
    is_bipartite,
    permutation_similar,
    permute_graph,
    realize_all,
    similar_square_pair,
    square,
    support_components,
    verify,
    verify_bip_copy,
)
import twowalk
from twowalk import analysis, core, iso
from conftest import (
    SteppedClock,
    all_graphs,
    complete,
    component_count_oracle,
    cycle,
    empty,
    path,
    random_graph,
    two_colorable_oracle,
)


def sq(G):
    return square(adjacency_matrix(G))


def to_nx(G):
    NG = nx.Graph()
    NG.add_nodes_from(range(G.n))
    NG.add_edges_from(G.edges)
    return NG


class TestDisjointUnion:
    def test_two_triangles_block_diagonal(self):
        U = disjoint_union(cycle(3), cycle(3))
        A = adjacency_matrix(U)
        assert U.n == 6
        block = adjacency_matrix(cycle(3)).to_lists()
        got = A.to_lists()
        assert [row[:3] for row in got[:3]] == block
        assert [row[3:] for row in got[3:]] == block
        assert all(got[i][j] == 0 for i in range(3) for j in range(3, 6))

    def test_identity_with_empty(self):
        G = cycle(4)
        assert disjoint_union(G, empty(0)) == G
        assert disjoint_union(empty(0), G) == G

    def test_two_single_edges(self):
        U = disjoint_union(graph_from_edges(2, [(0, 1)]), graph_from_edges(2, [(0, 1)]))
        assert U.sorted_edges() == [(0, 1), (2, 3)]


class TestIsBipartite:
    def test_even_cycle(self):
        coloring = is_bipartite(cycle(6))
        assert coloring is not None
        for i, j in cycle(6).edges:
            assert coloring[i] != coloring[j]

    def test_odd_cycle(self):
        assert is_bipartite(cycle(3)) is None

    def test_edgeless(self):
        assert is_bipartite(empty(3)) == [0, 0, 0]

    def test_agrees_with_oracle_exhaustive(self):
        for n in range(6):
            for G in all_graphs(n):
                assert (is_bipartite(G) is not None) == two_colorable_oracle(G)

    def test_coloring_is_proper_and_roots_are_zero(self):
        # a proper 2-coloring of a component is fixed by its lowest vertex's color
        for n in range(7):
            for G in all_graphs(n):
                coloring = is_bipartite(G)
                if coloring is None:
                    continue
                assert all(coloring[i] != coloring[j] for i, j in G.edges)
                label = support_components(adjacency_matrix(G)).component_of
                roots = {label.index(c) for c in set(label)}
                assert all(coloring[r] == 0 for r in roots)

    def test_coloring_blocks_the_matrix(self):
        G = graph_from_edges(5, [(0, 3), (3, 1), (1, 4), (4, 2)])
        coloring = is_bipartite(G)
        order = sorted(range(5), key=lambda v: (coloring[v], v))
        p = Permutation(tuple(order))
        A = apply_similarity(adjacency_matrix(G), p)
        k = coloring.count(0)
        assert all(A.entry(i, j) == 0 for i in range(k) for j in range(k))
        assert all(A.entry(i, j) == 0 for i in range(k, 5) for j in range(k, 5))


class TestDoubleCover:
    def test_triangle_gives_hexagon(self):
        H = bipartite_double_cover(cycle(3))
        assert H.n == 6
        assert are_isomorphic(H, cycle(6)) is not None

    def test_single_edge_gives_two_edges(self):
        H = bipartite_double_cover(graph_from_edges(2, [(0, 1)]))
        assert H.sorted_edges() == [(0, 3), (1, 2)]
        matching = graph_from_edges(4, [(0, 1), (2, 3)])
        assert are_isomorphic(H, matching) is not None
        assert are_isomorphic(H, cycle(4)) is None

    def test_empty(self):
        assert bipartite_double_cover(empty(3)) == empty(6)

    def test_block_antidiagonal_matrix(self):
        G = cycle(5)
        A = adjacency_matrix(G).to_lists()
        D = adjacency_matrix(bipartite_double_cover(G)).to_lists()
        n = 5
        assert all(D[i][j] == 0 for i in range(n) for j in range(n))
        assert all(D[n + i][n + j] == 0 for i in range(n) for j in range(n))
        assert all(D[i][n + j] == A[i][j] for i in range(n) for j in range(n))

    def test_always_bipartite_random(self, rng):
        for _ in range(40):
            G = random_graph(rng, 8)
            assert is_bipartite(bipartite_double_cover(G)) is not None

    def test_square_is_doubled_square(self, rng):
        for _ in range(25):
            G = random_graph(rng, 8)
            S = sq(G).to_lists()
            D = sq(bipartite_double_cover(G)).to_lists()
            n = G.n
            assert all(D[i][j] == S[i][j] for i in range(n) for j in range(n))
            assert all(D[n + i][n + j] == S[i][j] for i in range(n) for j in range(n))
            assert all(D[i][n + j] == 0 for i in range(n) for j in range(n))


class TestAreIsomorphic:
    def test_c6_vs_double_cover_of_c3(self):
        p = are_isomorphic(cycle(6), bipartite_double_cover(cycle(3)))
        assert p is not None

    def test_triangles_pair_vs_hexagon(self):
        assert are_isomorphic(disjoint_union(cycle(3), cycle(3)), cycle(6)) is None

    def test_self_iso(self):
        G = random_graph(__import__("random").Random(3), 8)
        p = are_isomorphic(G, G)
        assert p is not None
        assert permute_graph(G, p) == G

    def test_witness_maps_edges_onto_edges(self, rng):
        for _ in range(30):
            G = random_graph(rng, 7)
            p_scramble = Permutation(tuple(rng.sample(range(7), 7)))
            H = permute_graph(G, p_scramble)
            p = are_isomorphic(G, H)
            assert p is not None
            assert {tuple(sorted((p(i), p(j)))) for i, j in G.edges} == set(H.edges)

    def test_agrees_with_networkx(self, rng):
        for _ in range(60):
            G = random_graph(rng, 7)
            H = random_graph(rng, 7)
            assert (are_isomorphic(G, H) is not None) == nx.is_isomorphic(to_nx(G), to_nx(H))

    def test_regular_nonisomorphic_pair(self):
        # both 3-regular on 6 vertices: K_3,3 vs the triangular prism
        k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        prism = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                     (0, 3), (1, 4), (2, 5)])
        assert are_isomorphic(k33, prism) is None
        assert nx.is_isomorphic(to_nx(k33), to_nx(prism)) is False

    def test_component_sizes_reject_before_any_matrix(self, monkeypatch):
        # are_isomorphic reads both graphs from their edges: no call builds a matrix
        def refuse(M):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(IntMatrix, "__post_init__", refuse)
        # 4·C5 and 2·C5 ⊔ C10: same order, size and degrees (all 2)
        c5_pair = disjoint_union(cycle(5), cycle(5))
        four = disjoint_union(c5_pair, c5_pair)
        other = disjoint_union(c5_pair, cycle(10))
        assert are_isomorphic(four, other) is None
        # P4 and the star K_1,3: same order and size, degrees differ
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert are_isomorphic(path(4), star) is None
        # an isomorphic pair goes through the whole search
        p = Permutation(tuple(random.Random(5).sample(range(20), 20)))
        q = are_isomorphic(four, permute_graph(four, p))
        assert q is not None
        assert {tuple(sorted((q(i), q(j)))) for i, j in four.edges} == set(permute_graph(four, p).edges)

    def test_mapping_check_survives_optimize_flag(self):
        # a search that returns a wrong mapping must be caught even when
        # python -O strips asserts: on P4 and its square, 1 and 2 swapped
        # (same diagonal and degrees, an entry differs); on diag(1, 2),
        # 0 and 1 swapped (no off-diagonal entry, the diagonal differs)
        code = (
            "from twowalk import IntMatrix, are_isomorphic, graph_from_edges, iso, permutation_similar\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are enabled')\n"
            "iso._search = lambda a, *rest: {4: [0, 2, 1, 3], 2: [1, 0]}[len(a.diag)]\n"
            "P4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])\n"
            "S = IntMatrix.from_rows([[1, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0], [0, 1, 0, 1]])\n"
            "D = IntMatrix.from_rows([[1, 0], [0, 2]])\n"
            "for call, args in ((are_isomorphic, (P4, P4)), (permutation_similar, (S, S)),\n"
            "                   (permutation_similar, (D, D))):\n"
            "    try:\n"
            "        call(*args)\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', exc)\n"
            "    else:\n"
            "        print('returned')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["raised: mapping search returned a non-witness; engine bug"] * 3

    def test_budget_exhaustion_raises(self):
        G = cycle(9)
        H = permute_graph(G, Permutation(tuple(reversed(range(9)))))
        with pytest.raises(BudgetExhausted):
            are_isomorphic(G, H, budget=IsoBudget(max_nodes=1))

    @pytest.mark.parametrize("limits", [{"max_nodes": 0}, {"max_nodes": -5},
                                        {"max_seconds": 0}, {"max_seconds": -1}])
    def test_budget_rejects_non_positive_limits(self, limits):
        with pytest.raises(ValueError, match="must be positive"):
            IsoBudget(**limits)

    @pytest.mark.parametrize("cls", [SearchBudget, IsoBudget])
    @pytest.mark.parametrize("name", ["max_nodes", "max_seconds"])
    def test_budget_rejects_nan_limits(self, cls, name):
        # NaN passes a `<= 0` test and never passes a deadline or a node cap
        with pytest.raises(ValueError, match="must be positive"):
            cls(**{name: float("nan")})
        assert cls(**{name: float("inf")})

    def test_different_sizes_absent(self):
        assert are_isomorphic(cycle(3), cycle(4)) is None

    def test_deadline_raises_with_the_time(self, monkeypatch):
        # the prism and the Moebius ladder on 20 vertices are cubic and
        # connected, so refinement splits nothing, and telling them apart
        # takes the search past its 1,024th node, where the clock is read
        m = 10
        prism = graph_from_edges(2 * m, [(i, (i + 1) % m) for i in range(m)]
                                 + [(m + i, m + (i + 1) % m) for i in range(m)]
                                 + [(i, m + i) for i in range(m)])
        ladder = graph_from_edges(2 * m, [(i, (i + 1) % (2 * m)) for i in range(2 * m)]
                                  + [(i, m + i) for i in range(m)])
        assert are_isomorphic(prism, ladder, IsoBudget(max_nodes=10**5)) is None
        with pytest.raises(BudgetExhausted, match="nodes"):
            are_isomorphic(prism, ladder, IsoBudget(max_nodes=1024))
        monkeypatch.setattr(iso, "time", SteppedClock(1))
        with pytest.raises(BudgetExhausted) as exc:
            are_isomorphic(prism, ladder, IsoBudget(max_seconds=1.5))
        assert str(exc.value) == "mapping search exceeded 1.5s"


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for module in (twowalk, twowalk.construct):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestPermutationSimilar:
    def test_constructed_similarity(self, rng):
        for _ in range(30):
            G = random_graph(rng, 7)
            S = sq(G)
            p = Permutation(tuple(rng.sample(range(7), 7)))
            S2 = apply_similarity(S, p)
            w = permutation_similar(S, S2)
            assert w is not None
            assert apply_similarity(S, w) == S2

    def test_different_diagonals_absent(self):
        S1 = sq(cycle(6))
        S2 = sq(disjoint_union(cycle(5), empty(1)))
        assert sorted(S1.diagonal()) != sorted(S2.diagonal())
        assert permutation_similar(S1, S2) is None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            permutation_similar(IntMatrix.zeros(2), IntMatrix.zeros(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            permutation_similar(IntMatrix.from_rows([[0, 1], [0, 0]]), IntMatrix.zeros(2))

    def test_deeper_than_recursion_limit(self):
        # 1100 vertices: one search depth per vertex, past the default limit
        before = sys.getrecursionlimit()
        w = permutation_similar(IntMatrix.zeros(1100), IntMatrix.zeros(1100))
        assert w == Permutation.identity(1100)
        assert sys.getrecursionlimit() == before

    def test_agrees_with_networkx_weighted_matcher(self, rng):
        def as_weighted_nx(S):
            W = nx.Graph()
            for i in range(S.n):
                W.add_node(i, d=S.entry(i, i))
                for j in range(i + 1, S.n):
                    W.add_edge(i, j, w=S.entry(i, j))
            return W

        for _ in range(25):
            S1 = sq(random_graph(rng, 6, rng.choice([0.3, 0.5, 0.7])))
            S2 = sq(random_graph(rng, 6, rng.choice([0.3, 0.5, 0.7])))
            expected = nx.algorithms.isomorphism.GraphMatcher(
                as_weighted_nx(S1), as_weighted_nx(S2),
                node_match=lambda a, b: a["d"] == b["d"],
                edge_match=lambda a, b: a["w"] == b["w"],
            ).is_isomorphic()
            assert (permutation_similar(S1, S2) is not None) == expected


def dense_refine(Ma, Mb):
    """Reference joint color refinement over whole rows: initial colors
    (diagonal entry, support-component size, sorted row weights), then
    each round the multiset of (entry, color) over every other index."""
    def initial(M):
        label = support_components(M).component_of
        size = Counter(label)
        return [(M.entry(v, v), size[label[v]],
                 tuple(sorted(M.entry(v, u) for u in range(M.n) if u != v)))
                for v in range(M.n)]

    def signatures(M, col):
        return [(col[v], tuple(sorted((M.entry(v, u), col[u]) for u in range(M.n) if u != v)))
                for v in range(M.n)]

    keys_a, keys_b = initial(Ma), initial(Mb)
    palette = {key: idx for idx, key in enumerate(sorted(set(keys_a) | set(keys_b)))}
    col_a, col_b = [palette[k] for k in keys_a], [palette[k] for k in keys_b]
    while True:
        if Counter(col_a) != Counter(col_b):
            return None
        sig_a, sig_b = signatures(Ma, col_a), signatures(Mb, col_b)
        palette = {key: idx for idx, key in enumerate(sorted(set(sig_a) | set(sig_b)))}
        new_a, new_b = [palette[s] for s in sig_a], [palette[s] for s in sig_b]
        if len(set(new_a)) == len(set(col_a)):
            return None if Counter(new_a) != Counter(new_b) else (new_a, new_b)
        col_a, col_b = new_a, new_b


def dense_mapping(Ma, Mb):
    """Reference mapping search over whole rows: ``dense_refine``'s
    classes, the order most ordered support-neighbours first, then rarest
    class, then index (by a full scan), and each candidate of u's class,
    in index order, tested against every vertex mapped before u.  Returns
    the permutation or None, and the nodes counted as the engine counts
    them (one per unused candidate tried)."""
    refined = dense_refine(Ma, Mb)
    if refined is None:
        return None, 0
    col_a, col_b = refined
    n, rows_a, rows_b = Ma.n, Ma.rows, Mb.rows
    class_size = Counter(col_a)
    order, anchored = [], [0] * n
    while len(order) < n:
        v = min((u for u in range(n) if u not in order),
                key=lambda u: (-anchored[u], class_size[col_a[u]], u))
        order.append(v)
        for u in range(n):
            if u != v and rows_a[v][u] and u not in order:
                anchored[u] += 1
    mapping, nodes = {}, 0

    def extend(depth):
        nonlocal nodes
        if depth == n:
            return True
        u = order[depth]
        for x in range(n):
            if col_b[x] != col_a[u] or x in mapping.values():
                continue
            nodes += 1
            if all(rows_a[u][v] == rows_b[x][mapping[v]] for v in order[:depth]):
                mapping[u] = x
                if extend(depth + 1):
                    return True
                del mapping[u]
        return False

    found = extend(0)
    return (Permutation(tuple(mapping[i] for i in range(n))) if found else None), nodes


def outcome(call, *args):
    """A call's mapping as a tuple, None, or the BudgetExhausted message."""
    try:
        p = call(*args)
    except BudgetExhausted as exc:
        return ("budget", str(exc))
    return p if p is None else p.mapping


def refine(Ma, Mb):
    """Joint color refinement of two matrices from their one-sided
    traces: both sides' colors when their certificates are equal, else
    None (no mapping can exist)."""
    (col_a, cert_a), (col_b, cert_b) = (iso._trace(iso._matrix_side(M)) for M in (Ma, Mb))
    return (col_a, col_b) if cert_a == cert_b else None


def joint_partition(colors):
    """The partition of both sides' indices that a coloring induces, in
    a canonical form; None stays None."""
    if colors is None:
        return None
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in colors[0] + colors[1]]


def relabelled(M, rng):
    return apply_similarity(M, Permutation(tuple(rng.sample(range(M.n), M.n))))


class TestRefinement:
    """The refinement over nonzero entries splits as the dense one does."""

    @staticmethod
    def assert_same_partition(Ma, Mb):
        assert joint_partition(refine(Ma, Mb)) == joint_partition(dense_refine(Ma, Mb))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_graph_against_a_relabelling(self, n):
        rng = random.Random(n)
        for G in all_graphs(n):
            A = adjacency_matrix(G)
            self.assert_same_partition(A, relabelled(A, rng))

    def test_component_sizes_split_regular_graphs(self):
        A = adjacency_matrix(disjoint_union(cycle(3), cycle(4)))
        self.assert_same_partition(A, relabelled(A, random.Random(7)))
        assert len(set(refine(A, A)[0])) == 2
        B, C = adjacency_matrix(cycle(6)), adjacency_matrix(disjoint_union(cycle(3), cycle(3)))
        self.assert_same_partition(B, C)
        assert refine(B, C) is None

    def test_random_integer_matrices(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(0, 3)
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rows[j][i] = rng.randint(1, 3)
            M = IntMatrix.from_rows(rows)
            self.assert_same_partition(M, relabelled(M, rng))
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rows[j][i] = (rows[i][j] + 1) % 4
            self.assert_same_partition(M, relabelled(IntMatrix.from_rows(rows), rng))


class TestAgainstDenseSearch:
    """are_isomorphic and permutation_similar give the dense reference's
    mapping, None or BudgetExhausted, call for call."""

    CAPS = [None, 1, 2, 3, 5, 8, 20]

    @staticmethod
    def assert_agrees(call, args, reference, cap):
        """``call(*args, budget)`` gives the reference's outcome at ``cap``
        and on both sides of the reference's node count."""
        found, nodes = reference
        for c in {cap} | {c for c in (nodes, nodes - 1) if c > 0}:
            if c and nodes > c:
                expected = ("budget", f"mapping search exceeded {c} nodes")
            else:
                expected = found if found is None else found.mapping
            assert outcome(call, *args, IsoBudget(max_nodes=c) if c else None) == expected

    def assert_graphs_agree(self, G, H, cap):
        self.assert_agrees(are_isomorphic, (G, H),
                           dense_mapping(adjacency_matrix(G), adjacency_matrix(H)), cap)

    def assert_matrices_agree(self, S1, S2, cap):
        self.assert_agrees(permutation_similar, (S1, S2), dense_mapping(S2, S1), cap)

    @pytest.mark.parametrize("n", range(6))
    def test_every_graph_against_a_relabelling(self, n):
        rng = random.Random(100 + n)
        graphs = list(all_graphs(n))
        for G in graphs:
            H = permute_graph(G, Permutation(tuple(rng.sample(range(n), n))))
            self.assert_graphs_agree(G, H, rng.choice(self.CAPS))
            self.assert_graphs_agree(G, rng.choice(graphs), None)

    def test_c5_k2_witnesses(self):
        witnesses = realize_all(duplication_family(cycle(5), 2).shared_square).witnesses
        rng = random.Random(12)
        for _ in range(60):
            self.assert_graphs_agree(rng.choice(witnesses), rng.choice(witnesses), rng.choice(self.CAPS))

    def test_regular_graphs_refinement_cannot_split(self):
        k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        prism = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                     (0, 3), (1, 4), (2, 5)])
        petersen = graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                    + [(i, 5 + i) for i in range(5)]
                                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        rng = random.Random(15)
        for G, H in ((k33, prism), (prism, k33), (k33, k33), (cycle(6), cycle(6))):
            self.assert_graphs_agree(G, H, None)
        for G in (k33, prism, petersen, cycle(9)):
            self.assert_graphs_agree(G, permute_graph(G, Permutation(tuple(rng.sample(range(G.n), G.n)))), None)

    def test_weighted_matrices(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(1, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(0, 2)
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rows[j][i] = rng.choice([1, 2, 3, 2**70])
            M = IntMatrix.from_rows(rows)
            self.assert_matrices_agree(M, relabelled(M, rng), rng.choice(self.CAPS))
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rows[j][i] = rows[i][j] + 1
            self.assert_matrices_agree(M, relabelled(IntMatrix.from_rows(rows), rng), None)

    def test_squares(self):
        rng = random.Random(14)
        for _ in range(60):
            S = sq(random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5])))
            self.assert_matrices_agree(S, relabelled(S, rng), rng.choice(self.CAPS))
        S = duplication_family(cycle(5), 2).shared_square
        for cap in self.CAPS:
            self.assert_matrices_agree(S, relabelled(S, rng), cap)


def fresh(X):
    """A new Graph or IntMatrix equal to X, with nothing kept on it."""
    return Graph(X.n, X.edges) if isinstance(X, Graph) else IntMatrix(X.rows)


class TestReusedObjects(TestAgainstDenseSearch):
    """TestAgainstDenseSearch's corpora with every Graph and IntMatrix
    reused across calls, so each call after the first reads the
    refinement kept on its arguments: after a call stopped by the budget,
    a second time, and with the arguments swapped, every outcome is the
    dense reference's and a fresh-object call's."""

    def assert_agrees(self, call, args, reference, cap):
        found, nodes = reference
        if nodes > 1:
            assert outcome(call, *args, IsoBudget(max_nodes=1)) == (
                "budget", "mapping search exceeded 1 nodes")
        for _ in range(2):
            super().assert_agrees(call, args, reference, cap)
        budget = IsoBudget(max_nodes=cap) if cap else None
        assert outcome(call, *args, budget) == outcome(call, *map(fresh, args), budget)

    def assert_graphs_agree(self, G, H, cap):
        super().assert_graphs_agree(G, H, cap)
        super().assert_graphs_agree(H, G, cap)

    def assert_matrices_agree(self, S1, S2, cap):
        super().assert_matrices_agree(S1, S2, cap)
        super().assert_matrices_agree(S2, S1, cap)


class TestCertificates:
    """Two sides have equal certificates exactly when the dense joint
    refinement returns colors, and then their colors split both sides as
    the dense ones do; on pairs of different inputs, not only
    relabellings."""

    @staticmethod
    def assert_certificates_decide(a, b, Ma, Mb):
        (col_a, cert_a), (col_b, cert_b) = iso._trace(a), iso._trace(b)
        dense = dense_refine(Ma, Mb)
        assert (cert_a == cert_b) == (dense is not None)
        if dense is not None:
            assert joint_partition((col_a, col_b)) == joint_partition(dense)

    def assert_graphs(self, G, H):
        A, B = adjacency_matrix(G), adjacency_matrix(H)
        self.assert_certificates_decide(iso._graph_side(G), iso._graph_side(H), A, B)
        # a graph's side and its adjacency matrix's refine alike
        assert iso._trace(iso._graph_side(G)) == iso._trace(iso._matrix_side(A))

    @pytest.mark.parametrize("n", range(5))
    def test_every_pair_of_labelled_graphs(self, n):
        graphs = list(all_graphs(n))
        for G, H in itertools.product(graphs, repeat=2):
            self.assert_graphs(G, H)

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_pairs(self, n):
        rng = random.Random(200 + n)
        for _ in range(400):
            G = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            H = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            self.assert_graphs(G, H)
            self.assert_graphs(G, permute_graph(G, Permutation(tuple(rng.sample(range(n), n)))))

    def test_weighted_matrices(self):
        # the 200 matrices of TestRefinement.test_random_integer_matrices,
        # each with its altered copy and with every earlier one of its size
        rng = random.Random(8)
        seen = []
        for _ in range(200):
            n = rng.randint(1, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(0, 3)
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = rows[j][i] = rng.randint(1, 3)
            M = IntMatrix.from_rows(rows)
            relabelled(M, rng)
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rows[j][i] = (rows[i][j] + 1) % 4
            altered = relabelled(IntMatrix.from_rows(rows), rng)
            for other in [altered] + [X for X in seen if X.n == n]:
                self.assert_certificates_decide(iso._matrix_side(M), iso._matrix_side(other), M, other)
            seen.append(M)


class TestKeptRefinement:
    """The refinement kept on a Graph or IntMatrix is invisible to
    equality, hashing, repr, pickling and copying."""

    def pair(self, kind):
        G = disjoint_union(cycle(5), path(3))
        H = permute_graph(G, Permutation(tuple(random.Random(4).sample(range(8), 8))))
        if kind == "graph":
            return are_isomorphic, G, H
        return permutation_similar, sq(G), sq(H)

    @pytest.mark.parametrize("kind", ["graph", "matrix"])
    def test_invisible_after_an_iso_call(self, kind):
        call, X, Y = self.pair(kind)
        expected = call(X, Y)
        assert expected is not None and "_iso" in X.__dict__
        clean = fresh(X)
        for clone in (pickle.loads(pickle.dumps(X)), copy.copy(X), copy.deepcopy(X)):
            assert "_iso" not in clone.__dict__
            assert clone == X == clean
            assert hash(clone) == hash(X) == hash(clean)
            assert repr(clone) == repr(X)
            assert call(clone, Y) == expected
        assert pickle.dumps(X) == pickle.dumps(clean)

    def test_kept_symmetry_verdict(self, monkeypatch):
        S, T = sq(cycle(5)), sq(cycle(5))
        asym = IntMatrix.from_rows([[0, 1], [0, 0]])

        def calls():
            assert permutation_similar(S, T) is not None
            with pytest.raises(ValueError, match="requires symmetric matrices"):
                permutation_similar(asym, asym)

        calls()

        def refuse(rows):
            raise AssertionError("symmetry scanned again")

        monkeypatch.setattr(core, "_asymmetric_pair", refuse)
        monkeypatch.setattr(analysis, "_asymmetric_pair", refuse)
        calls()


class TestVerifyBipCopy:
    def test_examples(self):
        assert verify_bip_copy(cycle(6)) is True
        assert verify_bip_copy(cycle(3)) is False
        assert verify_bip_copy(graph_from_edges(2, [(0, 1)])) is True

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_bipartiteness_exhaustive(self, n):
        for G in all_graphs(n):
            assert verify_bip_copy(G) == (is_bipartite(G) is not None)


class TestDuplicationFamily:
    def test_c3_k1(self):
        fam = duplication_family(cycle(3), 1)
        assert fam.shared_square.n == 6
        assert len(fam.members) == 2
        for m in fam.members:
            assert verify(m, fam.shared_square)
        assert are_isomorphic(fam.members[0], fam.members[1]) is None
        # first member is the double cover (a hexagon), second the plain union
        assert component_count_oracle(fam.members[0]) == 1
        assert component_count_oracle(fam.members[1]) == 2

    def test_c3_k3(self):
        fam = duplication_family(cycle(3), 3)
        assert fam.shared_square.n == 18
        assert len(fam.members) == 4
        for m in fam.members:
            assert verify(m, fam.shared_square)
        for a, b in itertools.combinations(fam.members, 2):
            assert are_isomorphic(a, b) is None

    def test_c5_k2(self):
        fam = duplication_family(cycle(5), 2)
        assert fam.shared_square.n == 20
        assert len(fam.members) == 3

    def test_bipartite_base_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            duplication_family(cycle(6), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            duplication_family(cycle(3), 0)

    @pytest.mark.parametrize("k", [True, 1.5, 2.0, "2"])
    def test_k_must_be_an_integer(self, k):
        # True used to build a family whose JSON said "k": true, and 1.5
        # raised TypeError from multiplying the list of copies
        with pytest.raises(ValueError, match=f"k must be a positive integer, got {k!r}"):
            duplication_family(cycle(3), k)

    def test_member_must_square_to_shared_matrix(self):
        fam = duplication_family(cycle(3), 1)
        wrong = (fam.members[0], disjoint_union(cycle(5), empty(1)))
        short = (fam.members[0], cycle(3))
        for members in (wrong, short):
            with pytest.raises(ValueError, match="member 1 does not square"):
                DuplicationFamily(
                    fam.base, fam.k, fam.shared_square, members, fam.member_descriptions
                )


class TestBundledPair:
    def test_structure(self):
        A, B = similar_square_pair()
        assert A.n == B.n == 12
        assert degree_sequence(A) == [4] * 12
        assert degree_sequence(B) == [4] * 12
        assert component_count_oracle(A) == component_count_oracle(B) == 1
        assert is_bipartite(A) is None and is_bipartite(B) is None

    def test_nonisomorphic_but_similar_squares(self):
        A, B = similar_square_pair()
        assert are_isomorphic(A, B) is None
        SA, SB = sq(A), sq(B)
        assert SA != SB  # the shipped labelings do not give equal squares
        w = permutation_similar(SA, SB)
        assert w is not None
        assert apply_similarity(SA, w) == SB
