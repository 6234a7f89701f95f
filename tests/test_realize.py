import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twowalk import (
    IntMatrix,
    Permutation,
    RealizationVerdict,
    SearchBudget,
    adjacency_matrix,
    apply_similarity,
    are_isomorphic,
    degree_sequence,
    disjoint_union,
    duplication_family,
    graph_from_edges,
    necessary_conditions,
    realize,
    realize_all,
    square,
    support_components,
    verify,
)
from twowalk import _search_py
from conftest import (
    PRIME,
    SteppedClock,
    all_graphs,
    brute_force_square_witnesses,
    complete,
    cycle,
    empty,
    plain_rref,
    powers_commuting_witness,
    random_graph,
    square_witness_table,
)

INFEASIBLE_4X4 = IntMatrix.from_rows([[2, 1, 1, 0], [1, 2, 1, 1], [1, 1, 1, 0], [0, 1, 0, 1]])


def sq(G):
    return square(adjacency_matrix(G))


def random_candidate(rng: random.Random, n: int) -> IntMatrix:
    """Random symmetric nonnegative matrix shaped like a plausible square:
    diagonal entries are degrees, off-diagonal bounded by both."""
    diag = [rng.randrange(n) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(min(diag[i], diag[j]) + 1)
            rows[i][j] = rows[j][i] = v
    return IntMatrix.from_rows(rows)


class TestVerify:
    def test_c3(self):
        assert verify(cycle(3), IntMatrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]]))

    def test_c3_against_zero(self):
        assert not verify(cycle(3), IntMatrix.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify(cycle(3), IntMatrix.zeros(4))

    @pytest.mark.parametrize("n", range(6))
    def test_matches_dense_square_exhaustive(self, n):
        """Agrees with the dense square on every graph's own square and on
        each single-entry change: +1 on a diagonal entry, +1 on a
        symmetric off-diagonal pair."""
        for G in all_graphs(n):
            S = sq(G)
            candidates = [S]
            for i in range(n):
                for j in range(i, n):
                    rows = S.to_lists()
                    rows[i][j] += 1
                    rows[j][i] = rows[i][j]
                    candidates.append(IntMatrix.from_rows(rows))
            for T in candidates:
                assert verify(G, T) == (sq(G) == T)


class TestRealize:
    def test_c5_witness_isomorphic_to_c5(self):
        out = realize(sq(cycle(5)))
        assert out.verdict is RealizationVerdict.REALIZED
        assert verify(out.witness, sq(cycle(5)))
        assert are_isomorphic(out.witness, cycle(5)) is not None

    def test_known_infeasible_4x4_via_conditions(self):
        out = realize(INFEASIBLE_4X4)
        assert out.verdict is RealizationVerdict.INFEASIBLE
        assert "multiset" in out.reason
        assert out.nodes_explored == 0

    def test_two_triangles(self):
        S = sq(disjoint_union(cycle(3), cycle(3)))
        out = realize(S)
        assert out.verdict is RealizationVerdict.REALIZED
        assert verify(out.witness, S)

    def test_exhausted_reason_distinct_from_abort(self):
        # passes every necessary condition, yet two degree-3 vertices on
        # 4 vertices must be adjacent and share neighbors, contradicting
        # the all-zero off-diagonal: only exhaustion can reject this
        M = IntMatrix.from_rows([
            [0, 0, 0, 0],
            [0, 3, 0, 0],
            [0, 0, 3, 0],
            [0, 0, 0, 0],
        ])
        assert necessary_conditions(M).overall
        out = realize(M)
        assert out.verdict is RealizationVerdict.INFEASIBLE
        assert out.reason == "search exhausted"
        assert not brute_force_square_witnesses(M, stop_at=1)

    def test_abort_on_node_budget(self):
        S = sq(cycle(6))
        out = realize(S, budget=SearchBudget(max_nodes=3, max_seconds=None))
        assert out.verdict is RealizationVerdict.ABORTED
        assert "node budget" in out.reason

    def test_deterministic(self):
        S = sq(cycle(6))
        a = realize(S)
        b = realize(S)
        assert a.witness == b.witness and a.nodes_explored == b.nodes_explored

    @pytest.mark.parametrize("n", range(6))
    def test_every_square_realizes_exhaustive(self, n):
        for G in all_graphs(n):
            out = realize(sq(G))
            assert out.verdict is RealizationVerdict.REALIZED

    def test_every_square_realizes_n7_sample(self, rng):
        for _ in range(60):
            G = random_graph(rng, 7)
            out = realize(sq(G))
            assert out.verdict is RealizationVerdict.REALIZED

    def test_similarity_equivariance(self, rng):
        for _ in range(40):
            n = rng.randrange(2, 6)
            S = random_candidate(rng, n)
            p = Permutation(tuple(rng.sample(range(n), n)))
            a = realize(S).verdict
            b = realize(apply_similarity(S, p)).verdict
            assert a == b

    def test_oracle_agreement_random_candidates(self, rng):
        """Verdicts match the 2^C(n,2) brute-force oracle on candidates
        that pass the necessary conditions."""
        checked = 0
        while checked < 120:
            n = rng.randrange(2, 6)
            S = random_candidate(rng, n)
            if not necessary_conditions(S).overall:
                continue
            checked += 1
            out = realize(S)
            oracle_hit = bool(brute_force_square_witnesses(S, stop_at=1))
            assert (out.verdict is RealizationVerdict.REALIZED) == oracle_hit
            if oracle_hit:
                assert verify(out.witness, S)


class TestRealizeAll:
    def test_c6_contains_both_duplication_shapes(self):
        enum = realize_all(sq(cycle(6)))
        assert enum.complete
        shapes = {tuple(degree_sequence(w)) for w in enum}
        assert len(enum) >= 2
        kinds = set()
        for w in enum:
            kinds.add("triangle-pair" if max(len(c) for c in _components(w)) == 3 else "hexagon")
        assert kinds == {"triangle-pair", "hexagon"}
        assert shapes == {(2, 2, 2, 2, 2, 2)}

    def test_k2_square_forced(self):
        S = IntMatrix.from_rows([[1, 0], [0, 1]])
        enum = realize_all(S)
        assert enum.complete and len(enum) == 1
        assert enum[0].sorted_edges() == [(0, 1)]

    def test_zero_matrix_only_empty_graph(self):
        enum = realize_all(IntMatrix.zeros(3))
        assert enum.complete and len(enum) == 1
        assert enum[0] == empty(3)

    def test_limit_stops_early(self):
        enum = realize_all(sq(cycle(6)), limit=1)
        assert enum.complete and len(enum) == 1

    @pytest.mark.parametrize("limit", [2.5, 2.0, True])
    def test_limit_must_be_an_integer(self, limit):
        # on two disjoint triangles limit=2.5 used to give 4 witnesses: the
        # block search stopped at 0 < limit <= len, the product never at
        # len == 2.5; True was read as 1
        S = sq(disjoint_union(cycle(3), cycle(3)))
        with pytest.raises(ValueError, match=f"limit must be an integer or None, got {limit!r}"):
            realize_all(S, limit=limit)
        assert len(realize_all(S, limit=2)) == 2

    @pytest.mark.parametrize("n", range(6))
    def test_matches_brute_force_exhaustive(self, n):
        squares = {sq(G) for G in all_graphs(n)}
        for S in squares:
            expected = {frozenset(w.edges) for w in brute_force_square_witnesses(S)}
            got = {frozenset(w.edges) for w in realize_all(S)}
            assert got == expected

    def test_witness_set_equivariant_under_similarity(self, rng):
        """The kernel searches in its own vertex order but reports witnesses
        in the caller's labels: relabelling S relabels its witness set."""
        checked = 0
        while checked < 12:
            n = rng.randrange(6, 8)
            G = random_graph(rng, n)
            S = sq(G)
            if len(set(S.diagonal())) == 1:
                continue
            checked += 1
            p = Permutation(tuple(rng.sample(range(n), n)))
            T = apply_similarity(S, p)
            # T[i][j] == S[p(i)][p(j)]: an edge {a, b} of S's witness is
            # the edge {p⁻¹(a), p⁻¹(b)} of T's
            inv = p.inverse()
            expected = {
                frozenset(tuple(sorted((inv(a), inv(b)))) for a, b in w.edges)
                for w in realize_all(S)
            }
            got = {frozenset(w.edges) for w in realize_all(T)}
            assert got == expected

    def test_star_with_hub_last_in_caller_labels(self):
        star = graph_from_edges(6, [(v, 5) for v in range(5)])
        out = realize(sq(star))
        assert out.verdict is RealizationVerdict.REALIZED
        assert out.witness.sorted_edges() == [(v, 5) for v in range(5)]

    def test_infeasible_gives_empty_complete(self):
        enum = realize_all(INFEASIBLE_4X4)
        assert enum.complete and len(enum) == 0

    def test_budget_abort_flagged_incomplete(self):
        enum = realize_all(sq(cycle(6)), budget=SearchBudget(max_nodes=3, max_seconds=None))
        assert not enum.complete


PETERSEN = graph_from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


@pytest.mark.parametrize(
    "G, first_nodes, all_nodes, all_witnesses",
    [
        (cycle(6), 15, 84, 7),
        (PETERSEN, 820, 10732, 11),
        (graph_from_edges(10, sorted(set(PETERSEN.edges) - {(0, 1)})), 183, 5604, 6),
    ],
    ids=["C6", "Petersen", "Petersen-minus-edge"],
)
def test_node_counts_pinned(G, first_nodes, all_nodes, all_witnesses):
    """The search order and node accounting are a contract: these counts
    depend on the exact labelling and must not drift.  C6 is bipartite, so
    its square splits into two blocks: their cross block is searched
    first (15 nodes to C6 itself), then their triangles once each (the
    two-triangle cover adds one node for its first block and one for its
    witness);
    Petersen is regular and connected, so the kernel searches it as one
    block in the identity order; Petersen minus an edge is not regular,
    so its counts pin the degree-descending order."""
    assert realize(sq(G)).nodes_explored == first_nodes
    enum = realize_all(sq(G))
    assert enum.complete
    assert (enum.nodes_explored, len(enum)) == (all_nodes, all_witnesses)


# passes the battery and is one support component, yet no graph has this
# square: only the completion of the last vertex, whose common-neighbour
# counts are otherwise capped from above only, rejects the candidate leaf
LAST_VERTEX_INFEASIBLE = IntMatrix.from_rows([
    [3, 1, 1, 1, 0, 2],
    [1, 2, 1, 1, 1, 1],
    [1, 1, 4, 1, 2, 1],
    [1, 1, 1, 2, 1, 1],
    [0, 1, 2, 1, 2, 1],
    [2, 1, 1, 1, 1, 3],
])


def test_last_vertex_completion_is_checked():
    S = LAST_VERTEX_INFEASIBLE
    assert necessary_conditions(S).overall
    out = realize(S)
    assert out.verdict is RealizationVerdict.INFEASIBLE
    assert out.reason == "search exhausted"
    enum = realize_all(S)
    assert enum.complete and len(enum) == 0
    assert not brute_force_square_witnesses(S, stop_at=1)


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def block_diagonal(*blocks):
    n = sum(b.n for b in blocks)
    rows = []
    for b in blocks:
        at = len(rows)
        rows += [[0] * at + row + [0] * (n - at - b.n) for row in b.to_lists()]
    return IntMatrix.from_rows(rows)


# the square of two five-vertex trees: a 46-node cap stops its last block
# just after the fifth of its 8 witnesses
TWO_TREES = sq(disjoint_union(graph_from_edges(5, [(0, 1), (0, 2), (1, 3), (3, 4)]),
                              graph_from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])))


def shared_square(G, k):
    return duplication_family(G, k).shared_square


def relabelled(S, seed):
    p = Permutation(tuple(random.Random(seed).sample(range(S.n), S.n)))
    return apply_similarity(S, p)


class TestSplitSearch:
    """Squares whose support splits are searched block by block."""

    def test_two_pentagons(self):
        # C5 ⊔ C5 itself, or the pentagons' two sides joined by a C10
        # (ten ways)
        enum = realize_all(sq(disjoint_union(cycle(5), cycle(5))))
        assert enum.complete and len(enum) == 11

    def test_c5_k2_witnesses_and_classes(self):
        enum = realize_all(shared_square(cycle(5), 2))
        assert enum.complete and len(enum) == 361
        assert len({w.edges for w in enum}) == 361
        reps = []
        for w in enum:
            if all(are_isomorphic(w, r) is None for r in reps):
                reps.append(w)
        assert len(reps) == 3

    def test_relabelled_petersen_square_realizes(self):
        S = relabelled(shared_square(PETERSEN, 2), 2)
        out = realize(S, SearchBudget(max_nodes=100_000))
        assert out.verdict is RealizationVerdict.REALIZED

    def test_node_budget_is_shared_by_the_blocks(self):
        budget = SearchBudget(max_nodes=100, max_seconds=None)
        enum = realize_all(shared_square(cycle(5), 2), budget=budget)
        assert not enum.complete and enum.nodes_explored == 101
        out = realize(shared_square(PETERSEN, 2), budget)
        assert out.verdict is RealizationVerdict.ABORTED
        assert out.nodes_explored == 101

    def test_abort_keeps_the_witnesses_found_so_far(self):
        S = relabelled(shared_square(cycle(5), 2), 2)
        enum = realize_all(S, budget=SearchBudget(max_nodes=1000, max_seconds=None))
        assert not enum.complete and enum.nodes_explored == 1001
        assert 0 < len(enum) < 361
        assert list(enum) == list(realize_all(S))[: len(enum)]

    def test_stopped_last_block_keeps_its_witnesses(self):
        # one block plus an isolated vertex: the block's partial list is
        # emitted, as a prefix of the unbudgeted order
        S = sq(disjoint_union(PETERSEN, empty(1)))
        enum = realize_all(S, budget=SearchBudget(max_nodes=5000, max_seconds=None))
        assert not enum.complete and enum.nodes_explored == 5001
        assert 0 < len(enum) < 11
        assert list(enum) == list(realize_all(S))[: len(enum)]

    def test_stopped_last_block_that_reaches_the_limit_is_complete(self):
        five = list(realize_all(TWO_TREES, limit=5))
        enum = realize_all(TWO_TREES, limit=5, budget=SearchBudget(max_nodes=46))
        assert enum.complete and list(enum) == five
        enum = realize_all(TWO_TREES, limit=6, budget=SearchBudget(max_nodes=46))
        assert not enum.complete and list(enum) == five

    def test_complete_exactly_when_the_limit_is_reached_or_the_search_ends(self):
        full = list(realize_all(TWO_TREES))
        assert len(full) == 8
        for limit in (None, *range(1, len(full) + 2)):
            uncapped = realize_all(TWO_TREES, limit=limit)
            for cap in range(1, uncapped.nodes_explored + 2):
                budget = SearchBudget(max_nodes=cap, max_seconds=None)
                enum = realize_all(TWO_TREES, limit=limit, budget=budget)
                assert list(enum) == full[: len(enum)], (limit, cap)
                finished = uncapped.nodes_explored <= cap
                assert enum.complete == (len(enum) == limit or finished), (limit, cap)

    def test_budgets_bound_the_product_emission(self):
        # 39!! perfect matchings, each found by a one-node cross search
        S = identity(40)
        enum = realize_all(S, budget=SearchBudget(max_nodes=1000, max_seconds=None))
        assert not enum.complete and enum.nodes_explored == 1001
        assert 0 < len(enum) < 1000
        start = time.monotonic()
        enum = realize_all(S, budget=SearchBudget(max_seconds=0.2))
        assert not enum.complete and len(enum) > 0
        # search and re-verification get 0.2 s each
        assert time.monotonic() - start < 2

    def test_component_without_any_cover_is_infeasible(self):
        # the last block has no witness alone and no other block has its
        # trace, so no cover contains it: the walk stops there instead of
        # visiting the sets of components the single vertices' matchings
        # leave
        S = block_diagonal(identity(40), LAST_VERTEX_INFEASIBLE)
        assert necessary_conditions(S).overall
        out = realize(S)
        assert out.verdict is RealizationVerdict.INFEASIBLE
        assert out.reason == "search exhausted"
        assert out.nodes_explored == 112
        enum = realize_all(S)
        assert enum.complete and len(enum) == 0

    def test_component_without_a_cover_among_equal_traces_is_infeasible(self):
        # the infeasible block's only partner of equal trace, the last
        # vertex, gives it no witness either, so no cover contains it
        S = block_diagonal(identity(40), LAST_VERTEX_INFEASIBLE, IntMatrix.from_rows([[16]]))
        assert necessary_conditions(S).overall
        out = realize(S)
        assert out.verdict is RealizationVerdict.INFEASIBLE
        assert out.reason == "search exhausted"
        assert out.nodes_explored == 114
        enum = realize_all(S)
        assert enum.complete and len(enum) == 0

    def test_dead_set_is_walked_once(self):
        # an odd number of single vertices of trace 1 has no perfect
        # matching, which only the walk finds; each set of components
        # the matchings of the first ones leave is walked once (without
        # the dead set: 1,063,624 nodes)
        S = block_diagonal(identity(15), IntMatrix.from_rows([[3]]))
        assert necessary_conditions(S).overall
        out = realize(S)
        assert out.verdict is RealizationVerdict.INFEASIBLE
        assert out.reason == "search exhausted"
        assert out.nodes_explored == 988

    def test_budgets_bound_the_cover_walk(self):
        # as above with 41 single vertices: the sets walked still grow
        # exponentially with their number, so only the budgets end the walk
        S = block_diagonal(identity(41), IntMatrix.from_rows([[3]]))
        assert necessary_conditions(S).overall
        out = realize(S, SearchBudget(max_nodes=10_000, max_seconds=None))
        assert out.verdict is RealizationVerdict.ABORTED
        assert out.nodes_explored == 10_001
        start = time.monotonic()
        out = realize(S, SearchBudget(max_seconds=0.2))
        assert out.verdict is RealizationVerdict.ABORTED
        assert time.monotonic() - start < 2

    def test_limit_takes_a_prefix_of_the_order(self):
        S = shared_square(cycle(5), 2)
        enum = realize_all(S, limit=5)
        assert enum.complete and len({w.edges for w in enum}) == 5
        assert list(enum) == list(realize_all(S))[:5]

    def test_isolated_vertices(self):
        G = disjoint_union(disjoint_union(cycle(5), empty(2)), cycle(3))
        enum = realize_all(sq(G))
        assert enum.complete and list(enum) == [G]
        out = realize(IntMatrix.zeros(4))
        assert out.witness == empty(4) and out.nodes_explored == 0

    def test_identity_is_every_perfect_matching(self):
        enum = realize_all(identity(6))
        assert enum.complete and len({w.edges for w in enum}) == 15


@pytest.mark.parametrize("cap", [30, 1_000_000], ids=["stopping", "unbounded"])
@pytest.mark.parametrize(
    "S",
    [
        sq(cycle(6)),
        relabelled(shared_square(cycle(5), 2), 2),
        LAST_VERTEX_INFEASIBLE,
        identity(6),
    ],
    ids=["c6", "c5_k2_relabelled", "last_vertex_infeasible", "identity6"],
)
def test_kernel_call_replays_realize(S, cap):
    # a step-by-step replay of realize and realize_all calls the kernel
    # on its own and must see their witnesses and node counts
    budget = SearchBudget(max_nodes=cap, max_seconds=None)
    out = realize(S, budget)
    _, raw, nodes = _search_py.run_search(S.n, S.to_lists(), cap, 0.0, 1)
    mine = [] if out.witness is None else [out.witness.sorted_edges()]
    assert (raw, nodes) == (mine, out.nodes_explored)
    enum = realize_all(S, budget=budget)
    status, raw, nodes = _search_py.run_search(S.n, S.to_lists(), cap, 0.0, 0)
    assert raw == [w.sorted_edges() for w in enum]
    assert nodes == enum.nodes_explored
    assert enum.complete == (status == _search_py.EXHAUSTED)


# frozen inputs on which the commutation test decides a block that the
# search alone does not decide cheaply: the hard suite's G(16, 1/2) draw
# half16.0 (without the test it aborts at 150,000 nodes) and the screen
# suite's swapped square sw118 (8,652 nodes to exhaust without it)
HALF16_EDGES = [
    (0, 7), (0, 8), (0, 9), (0, 11), (0, 13), (0, 15), (1, 2), (1, 3), (1, 4), (1, 5),
    (1, 6), (1, 9), (1, 12), (1, 13), (1, 14), (1, 15), (2, 3), (2, 5), (2, 7), (2, 8),
    (2, 9), (2, 11), (2, 13), (3, 7), (3, 8), (3, 10), (3, 11), (3, 13), (4, 7), (4, 8),
    (4, 9), (4, 13), (4, 15), (5, 6), (5, 8), (5, 9), (5, 11), (5, 12), (5, 13), (6, 10),
    (6, 12), (7, 8), (7, 9), (7, 14), (7, 15), (8, 9), (8, 11), (8, 12), (8, 14), (8, 15),
    (9, 10), (9, 11), (9, 14), (10, 11), (10, 12), (10, 14), (10, 15), (11, 13), (12, 14),
    (14, 15),
]
SW118 = IntMatrix.from_rows([
    [5, 2, 1, 2, 2, 4, 4, 3, 2],
    [2, 4, 2, 2, 1, 1, 3, 3, 3],
    [1, 2, 5, 3, 1, 2, 3, 4, 3],
    [2, 2, 3, 5, 1, 3, 2, 3, 3],
    [2, 1, 1, 1, 3, 3, 2, 2, 2],
    [4, 1, 2, 3, 3, 5, 3, 3, 2],
    [4, 3, 3, 2, 2, 3, 6, 3, 3],
    [3, 3, 4, 3, 2, 3, 3, 6, 3],
    [2, 3, 3, 3, 2, 2, 3, 3, 5],
])
HARD_CAP = SearchBudget(max_nodes=150_000)
SUITES = Path(__file__).resolve().parents[1] / "perfbench" / "suites"


class TestCommutation:
    def test_matches_brute_force_on_small_blocks(self):
        """Every distinct support-component block of the squares of all
        graphs with n <= 6, and a fixed sample of battery-passing
        one-entry changes of them: the test never reports no witness for
        a block that has one, and a single candidate is the block's only
        witness."""
        tables = {n: square_witness_table(n) for n in range(1, 7)}
        blocks = set()
        for n in range(1, 7):
            for S in tables[n]:
                for comp in support_components(IntMatrix.from_rows(S)).components():
                    blocks.add(tuple(tuple(S[a][b] for b in comp) for a in comp))
        outcomes = {"undecided": 0, "none": 0, "one": 0}

        def check(block):
            decided = _search_py._commuting_witness([list(row) for row in block], 0.0)
            if decided is None:
                outcomes["undecided"] += 1
                return
            assert decided == tables[len(block)].get(block, []), block
            outcomes["one" if decided else "none"] += 1

        for block in blocks:
            check(block)
        assert len(blocks) == 23_626 and min(outcomes.values()) > 0

        rng = random.Random(20261019)
        order = sorted(blocks)
        changed: set[tuple] = set()
        while len(changed) < 2_000:
            rows = [list(row) for row in rng.choice(order)]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((-1, 1))
            block = tuple(map(tuple, rows))
            if rows[i][j] < 0 or block in blocks or block in changed:
                continue
            if necessary_conditions(IntMatrix.from_rows(rows)).overall:
                changed.add(block)
                check(block)

    def test_matches_powers_route_on_suite_blocks(self):
        """Every distinct support-component block with n <= 24 of the
        frozen screen and hard suites: the Krylov-coordinate test decides
        each exactly as the dense-powers route does."""
        blocks = set()
        for name in ("screen-1", "screen-2", "hard-1", "hard-2"):
            with open(SUITES / f"{name}.json") as f:
                instances = json.load(f)["instances"]
            for inst in instances:
                rows = sq(graph_from_edges(inst["n"], [tuple(e) for e in inst["edges"]])).to_lists()
                for i, j, v in inst["changes"]:
                    rows[i][j] = rows[j][i] = v
                for comp in support_components(IntMatrix.from_rows(rows)).components():
                    if len(comp) <= 24:
                        blocks.add(tuple(tuple(rows[a][b] for b in comp) for a in comp))
        outcomes = {"undecided": 0, "none": 0, "one": 0}
        for block in blocks:
            s = [list(row) for row in block]
            decided = _search_py._commuting_witness(s, 0.0)
            assert decided == powers_commuting_witness(s), block
            outcomes["undecided" if decided is None else "one" if decided else "none"] += 1
        assert len(blocks) == 3_254
        assert outcomes == {"undecided": 985, "none": 1_547, "one": 722}

    @pytest.mark.parametrize("n", range(3, 22, 2))
    def test_odd_cycle_squares_stay_undecided(self, n):
        # every eigenvalue of sq(C_n) for odd n but the top one is double,
        # so S is not cyclic
        s = sq(cycle(n)).to_lists()
        assert powers_commuting_witness(s) is None
        assert _search_py._commuting_witness(s, 0.0) is None

    def test_half16_realized_at_the_gate(self):
        S = sq(graph_from_edges(16, HALF16_EDGES))
        out = realize(S, HARD_CAP)
        assert out.verdict is RealizationVerdict.REALIZED
        assert verify(out.witness, S)
        # one block searched alone: the test runs on its first node past
        # the gate
        assert out.nodes_explored == _search_py._gate(16) + 1

    def test_gate_formula(self):
        # min(n^3, 6 n^2): a function of n alone, so node counts do not
        # depend on the machine
        assert [_search_py._gate(n) for n in range(1, 9)] == [1, 8, 27, 64, 125, 216, 294, 384]
        assert all(_search_py._gate(n) == min(n**3, 6 * n * n) for n in range(200))

    @pytest.mark.parametrize("n", range(10, 17))
    def test_cyclic_nullity_one_squares_stop_at_the_gate(self, n, monkeypatch):
        """Seeded G(n,1/2) squares whose one block is certified cyclic
        with d = 1: realize stops on the node past the gate with the
        search's own witness, unless the search alone ends sooner; at
        least one draw per n reaches the gate."""
        at_gate = 0
        for seed in range(6):
            S = sq(random_graph(random.Random(seed * 100 + n), n))
            if len(support_components(S).components()) != 1:
                continue
            decided = _search_py._commuting_witness(S.to_lists(), 0.0)
            if decided is None or len(decided) != 1:
                continue
            out = realize(S, HARD_CAP)
            with monkeypatch.context() as m:
                m.setattr(_search_py, "_gate", lambda k: HARD_CAP.max_nodes)
                alone = realize(S, HARD_CAP)
            # d = 1: the witness is the block's only one
            assert verify(out.witness, S) and alone.witness in (None, out.witness)
            if alone.nodes_explored > _search_py._gate(n):
                assert out.nodes_explored == _search_py._gate(n) + 1
                at_gate += 1
            else:
                assert out.nodes_explored == alone.nodes_explored
        assert at_gate >= 1

    def test_block_done_under_its_gate_runs_no_test(self, monkeypatch):
        """One-block squares of seeded G(n,1/2), n = 7..12: the test runs
        exactly when the block's search passes its gate."""
        calls = 0
        test = _search_py._commuting_witness

        def counted(s, deadline):
            nonlocal calls
            calls += 1
            return test(s, deadline)

        monkeypatch.setattr(_search_py, "_commuting_witness", counted)
        seen = set()
        for n in range(7, 13):
            for seed in range(6):
                S = sq(random_graph(random.Random(seed * 100 + n), n))
                if len(support_components(S).components()) != 1:
                    continue
                for run in (realize, realize_all):
                    calls = 0
                    nodes = run(S, budget=HARD_CAP).nodes_explored
                    assert calls == (nodes > _search_py._gate(n)), (n, seed, run)
                    seen.add(calls)
        assert seen == {0, 1}

    def test_sw118_exhausted_at_the_gate(self):
        assert necessary_conditions(SW118).overall
        out = realize(SW118, HARD_CAP)
        assert out.verdict is RealizationVerdict.INFEASIBLE
        assert out.reason == "search exhausted"
        assert out.nodes_explored <= 9**3 + 1

    def test_deadline_leaves_the_block_undecided(self, monkeypatch):
        s = sq(graph_from_edges(16, HALF16_EDGES)).to_lists()
        assert _search_py._commuting_witness(s, 0.0) is not None
        assert _search_py._commuting_witness(s, time.monotonic() - 1.0) is None
        # a clock that passes the deadline at its k-th read, for every read
        # the test makes: between Krylov steps and before each reduction
        reads = 0

        def clock():
            nonlocal reads
            reads += 1
            return 2.0 if reads >= passed_at else 0.0

        passed_at = float("inf")
        monkeypatch.setattr(_search_py.time, "monotonic", clock)
        assert _search_py._commuting_witness(s, 1.0) is not None
        total = reads
        assert total == 2 * 16
        for passed_at in range(1, total + 1):
            reads = 0
            assert _search_py._commuting_witness(s, 1.0) is None, passed_at

    def test_half16_survives_optimize_flag(self):
        code = (
            "from twowalk import SearchBudget, adjacency_matrix, graph_from_edges, realize, square, verify\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are enabled')\n"
            f"S = square(adjacency_matrix(graph_from_edges(16, {HALF16_EDGES!r})))\n"
            "out = realize(S, SearchBudget(max_nodes=150_000))\n"
            "print(out.verdict.value, out.nodes_explored, verify(out.witness, S))\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["realized", str(_search_py._gate(16) + 1), "True"]


class TestPackedReduce:
    """``_search_py._reduce`` packs each row into one int of slots; it must
    return the same pivots and rows as an entrywise RREF mod p."""

    @staticmethod
    def check(rows):
        packed = [list(row) for row in rows]
        plain = [list(row) for row in rows]
        assert _search_py._reduce(packed) == plain_rref(plain)
        assert packed == plain

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (8, 16), (16, 8), (24, 48), (40, 3)])
    def test_random(self, shape):
        rng = random.Random(shape[0] * 1000 + shape[1])
        rows, cols = shape
        for _ in range(5):
            self.check([[rng.randrange(PRIME) for _ in range(cols)] for _ in range(rows)])

    @pytest.mark.parametrize("shape", [(6, 6), (10, 20), (20, 10)])
    def test_rank_deficient_with_zero_columns(self, shape):
        rng = random.Random(shape[0] * 7 + shape[1])
        rows, cols = shape
        base = [[rng.randrange(PRIME) for _ in range(cols)] for _ in range(3)]
        matrix = []
        for _ in range(rows):
            a, b, c = (rng.randrange(PRIME) for _ in range(3))
            matrix.append([(a * x + b * y + c * z) % PRIME for x, y, z in zip(*base)])
        for c in rng.sample(range(cols), 2):
            for row in matrix:
                row[c] = 0
        self.check(matrix)
        self.check([[0] * cols for _ in range(rows)])

    @pytest.mark.parametrize("shape", [(200, 40), (60, 200)])
    def test_large_entries_do_not_carry(self, shape):
        # every entry p - 1, and p - 2 on the diagonal for full rank: a row
        # takes one multiply-add of up to p^2 per pivot, so a slot without
        # room for the row count carries into the next
        rows, cols = shape
        self.check([[PRIME - 1] * cols for _ in range(rows)])
        self.check([[PRIME - 1 - (i == j) for j in range(cols)] for i in range(rows)])

    @pytest.mark.parametrize("rows", [2, 63, 64, 200])
    @pytest.mark.parametrize("tail", [0, 1, PRIME - 1])
    def test_late_pivot_row_after_every_step(self, rows, tail):
        # rows - 1 unit rows pivot first, each eliminating the last row,
        # all p - 1, with the largest factor; so the last row has taken the
        # most steps a row can take before it is folded and normalized as
        # the last pivot (a zero tail adds (p - 1)p to a slot per step)
        r = rows - 1
        matrix = [[int(j == i) if j < r else tail for j in range(r + 3)] for i in range(r)]
        matrix.append([PRIME - 1] * (r + 3))
        self.check(matrix)

    @pytest.mark.parametrize("width", [66, 72, 80, 93])
    def test_fold_reduces_slots_at_the_top_of_the_third_digit(self, width):
        # _reduce's widths run from 66 bits up; _fold promises a result
        # congruent mod p, at most p + 1 for slots of up to 93 bits (2^63 - 1
        # reaches it) and at most p below 2^62, where _reduce needs p - top
        # not to borrow; no slot may reach into its neighbours
        top = (1 << width) - 1
        values = [0, 1, PRIME - 1, PRIME, 2 * PRIME, PRIME * (PRIME + 2), 2**62 - 1, 2**62,
                  2**63 - 1, top - (1 << 62) + 1, top - 1, top]
        packed = _search_py._pack(values, width)
        low = _search_py._pack([PRIME] * len(values), width)
        high = _search_py._pack([(1 << width - 62) - 1] * len(values), width)
        folded = _search_py._fold(packed, low, high)
        mask = (1 << width) - 1
        slots = [folded >> k * width & mask for k in range(len(values) + 1)]
        assert slots[-1] == 0
        for x, y in zip(values, slots):
            assert y % PRIME == x % PRIME and y <= PRIME + (x >= 2**62), (x, y)
        assert slots[values.index(2**63 - 1)] == PRIME + 1


class TestDeadlines:
    """The time budget's checks, driven by a clock that jumps past the
    deadline at a chosen call: the first call sets the deadline."""

    BUDGET = SearchBudget(max_seconds=1.0)

    def stopped(self, monkeypatch, S, calls):
        monkeypatch.setattr(_search_py, "time", SteppedClock(calls))
        return realize_all(S, budget=self.BUDGET)

    def test_checked_before_a_block_search(self, monkeypatch):
        # sq(C6) has two support components: the check before their cross
        # block (the clock's second call) passes and the block emits its
        # six hexagons; the check before the next block stops the walk
        S = sq(cycle(6))
        full = realize_all(S)
        enum = self.stopped(monkeypatch, S, 2)
        assert not enum.complete
        assert 0 < len(enum) < len(full) and list(enum) == list(full)[:len(enum)]
        monkeypatch.setattr(_search_py, "time", SteppedClock(1))
        out = realize(S, budget=self.BUDGET)
        assert out.verdict is RealizationVerdict.ABORTED and out.nodes_explored == 0
        assert out.reason == "search aborted: time budget exhausted"

    def test_checked_inside_a_block_search(self, monkeypatch):
        # sq(C12) has two support components, and the search of their
        # cross block passes its 1,024th node, where the check stops it
        # with the witnesses found by then
        S = sq(cycle(12))
        full = realize_all(S)
        enum = self.stopped(monkeypatch, S, 2)
        assert not enum.complete
        assert enum.nodes_explored == _search_py._TIME_CHECK_MASK + 1
        assert 0 < len(enum) < len(full) and list(enum) == list(full)[:len(enum)]
        # sq(C11) is one block searched alone, whose one witness takes
        # 4,172 nodes: the same check aborts realize
        monkeypatch.setattr(_search_py, "time", SteppedClock(2))
        out = realize(sq(cycle(11)), budget=self.BUDGET)
        assert out.verdict is RealizationVerdict.ABORTED
        assert out.nodes_explored == _search_py._TIME_CHECK_MASK + 1
        assert out.reason == "search aborted: time budget exhausted"


class TestGuarantees:
    def test_recursion_limit_unchanged(self):
        # 1225 edge positions: deeper than the default recursion limit
        before = sys.getrecursionlimit()
        out = realize(sq(complete(50)))
        assert out.verdict is RealizationVerdict.REALIZED
        assert out.nodes_explored > 1225
        assert sys.getrecursionlimit() == before

    def test_witness_check_survives_optimize_flag(self):
        # a kernel that returns the non-witness edge (0,1) for the zero
        # matrix must be caught even when python -O strips asserts
        code = (
            "from twowalk import IntMatrix, _search_py, realize, realize_all\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are enabled')\n"
            "_search_py.run_search = lambda *args: (_search_py.EXHAUSTED, [[(0, 1)]], 1)\n"
            "for call in (realize, realize_all):\n"
            "    try:\n"
            "        call(IntMatrix.zeros(3))\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', exc)\n"
            "    else:\n"
            "        print('returned')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["raised: search returned a non-witness; kernel bug"] * 2


def _components(G):
    from collections import deque

    adj = G.adjacency_sets()
    seen = [False] * G.n
    comps = []
    for s in range(G.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = deque([s])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    q.append(u)
        comps.append(comp)
    return comps
